//! Correctness of every pass. A speed-only change to the simulator must
//! leave every simulated statistic bit-identical, so each pass's result
//! fingerprints and work counts must equal:
//!
//! * at the default seed, the golden values in `golden.txt`;
//! * at any seed, those of every earlier pass of the same kind in the run
//!   (traced passes are held to the untraced `run` kind).
//!
//! Sliced passes drive the whole horizon before `run()` resets the
//! measurement window, so they are checked by the cumulative state they
//! reach (`Pass::add_state`), a kind of its own. Its first pass drives the
//! horizon in one `advance_to` call, so every timed sliced pass must also
//! show that slicing changes nothing.

use std::collections::BTreeMap;

use crate::workload::{Counts, Pass, Workload};

/// The seed the golden values were recorded at.
pub const DEFAULT_SEED: u64 = 1;

const GOLDEN: &str = include_str!("../golden.txt");

/// Golden fingerprints of `workload`'s pass `kind`, if recorded: lines of
/// `workload kind 0x<hex>...`, `#` starting a comment.
pub fn golden(workload: Workload, kind: &str) -> Option<Vec<u64>> {
    GOLDEN
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut it = l.split_whitespace();
            if it.next()? != workload.name() || it.next()? != kind {
                return None;
            }
            it.map(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16).ok())
                .collect()
        })
}

/// `0x`-prefixed hex, the golden file's notation.
pub fn hex(fps: &[u64]) -> String {
    fps.iter()
        .map(|f| format!("{f:#018x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// What every later pass of a kind must reproduce.
pub struct Expect {
    workload: Workload,
    seed: u64,
    seen: BTreeMap<&'static str, (Vec<u64>, Counts)>,
}

impl Expect {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Expect {
            workload,
            seed,
            seen: BTreeMap::new(),
        }
    }

    pub fn workload(&self) -> Workload {
        self.workload
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The first pass of `kind`, once one has been checked.
    pub fn first(&self, kind: &str) -> Option<&(Vec<u64>, Counts)> {
        self.seen.get(kind)
    }

    /// Check a pass of `kind`; the error names the workload and what differed.
    pub fn check(&mut self, kind: &'static str, p: &Pass) -> Result<(), String> {
        let w = self.workload.name();
        let (fps, c) = (&p.fingerprints, &p.counts);
        match self.seen.get(kind) {
            None => {
                println!("fingerprint {w} {kind} {}", hex(fps));
                self.seen.insert(kind, (fps.clone(), *c));
            }
            Some((first, _)) if first != fps => {
                return Err(format!(
                    "{w}: `{kind}` fingerprints {} differ from the first pass's {}",
                    hex(fps),
                    hex(first)
                ))
            }
            Some((_, counts)) if counts != c => {
                return Err(format!(
                    "{w}: `{kind}` work counts {c:?} differ from the first pass's {counts:?}"
                ))
            }
            Some(_) => {}
        }
        if self.seed == DEFAULT_SEED {
            match golden(self.workload, kind) {
                None => return Err(format!("{w}: no golden `{kind}` fingerprint recorded")),
                Some(g) if g != *fps => {
                    return Err(format!(
                        "{w}: `{kind}` fingerprints {} differ from golden {}",
                        hex(fps),
                        hex(&g)
                    ))
                }
                Some(_) => {}
            }
        }
        if c.conservation_failures > 0 {
            return Err(format!(
                "{w}: {} flowscope conservation failures",
                c.conservation_failures
            ));
        }
        if c.watchdog_violations > 0 {
            return Err(format!(
                "{w}: {} telemetry watchdog violations",
                c.watchdog_violations
            ));
        }
        Ok(())
    }
}
