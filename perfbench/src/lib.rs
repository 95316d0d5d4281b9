//! The hostcc-sim benchmark harness. See `README.md` beside this crate for
//! the workloads, the metrics and what each layer metric should move.
//!
//! `--trace 0` measures the end-to-end metrics from unprofiled passes;
//! `--trace 1` runs the layer microbenchmarks and profiled passes for the
//! per-layer metrics. Both check every pass (`check.rs`) and print the
//! metric table, then the result object as the last line.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hostcc_perf::{alloc_stats, reset_alloc_peak, PerfScope};

mod check;
mod micro;
mod report;
mod stats;
mod workload;

use check::{hex, Expect, DEFAULT_SEED};
use report::Report;
use stats::{mean_of_medians, median, min, min_by_index, quantile};
use workload::{Mode, Pass, Workload};

const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
workloads: paper-hostcc fattree-incast matchup-sweep chaos-observed";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 20;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} needs a whole number, got '{value}'"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    )
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.clamp(1, 120),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                    }
                }
                _ => return Err(format!("unknown argument '{flag}'")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

pub fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = nproc();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={workers}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::default();
    let run = if args.trace { traced } else { untraced };
    if let Err(e) = guarded(|| run(&args, &mut report)) {
        report.attempt(Err(format!("{}: {e}", args.workload.name())));
    }
    for m in &report.metrics {
        if !m.value.is_finite() {
            let e = format!("{}: metric {} is {}", args.workload.name(), m.name, m.value);
            report.attempt(Err(e));
            break;
        }
    }
    print!("{}", report.table());
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Worker threads for the sweep workload: one per available CPU.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f`, turning a panic into an error naming it.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("non-string payload");
        format!("panicked: {msg}")
    })
}

/// Run one pass under a panic guard, check it as `kind`, and tally it.
fn attempt_pass(
    report: &mut Report,
    expect: &mut Expect,
    kind: &'static str,
    pass: impl FnOnce() -> Result<Pass, String>,
) -> Option<Pass> {
    let name = expect.workload().name();
    match guarded(pass).and_then(|r| r) {
        Ok(p) => {
            report.attempt(expect.check(kind, &p));
            Some(p)
        }
        Err(e) => {
            report.attempt(Err(format!("{name}: `{kind}` pass {e}")));
            None
        }
    }
}

fn per_sim_ms(p: &Pass, value: f64) -> f64 {
    value / (p.sim_ns as f64 / 1e6)
}

/// Peak resident set of this process in MiB (`VmHWM`), if the kernel
/// reports it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// A pass's wall seconds with every unit of its deterministic work at its
/// fastest over `passes` (see `stats::min`): per simulation its set-up,
/// each slice and the closing collect.
fn least_interfered_s(passes: &[Pass]) -> f64 {
    let total = |f: fn(&Pass) -> &[f64]| min_by_index(passes.iter().map(f)).iter().sum::<f64>();
    total(|p| &p.setup_s) + total(|p| &p.slices_us) / 1e6 + total(|p| &p.collect_s)
}

/// Set-up work per timed block of `setup_s`.
const SETUP_BLOCK: Duration = Duration::from_millis(2);
/// Share of each sliced pass's time spent on set-up blocks after it.
const SETUP_SHARE: f64 = 0.05;

/// Set-ups per timed block: as many as take `SETUP_BLOCK` of timed set-up,
/// counted once at the start of the run (at least one) after one untimed
/// set-up, which also pays the process's first-use costs.
fn setup_reps(w: Workload, seed: u64) -> usize {
    workload::setup_once(w, seed);
    let mut timed = 0.0;
    let mut n = 0;
    while timed < SETUP_BLOCK.as_secs_f64() {
        timed += workload::setup_once(w, seed);
        n += 1;
    }
    n
}

/// One block of `reps` set-ups: mean seconds per set-up.
fn setup_block(w: Workload, seed: u64, reps: usize) -> f64 {
    (0..reps)
        .map(|_| workload::setup_once(w, seed))
        .sum::<f64>()
        / reps as f64
}

/// The end-to-end metrics, from unprofiled passes.
fn untraced(args: &Args, report: &mut Report) {
    let (w, seed) = (args.workload, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let mut expect = Expect::new(w, seed);
    let reps = setup_reps(w, seed);
    let mut setups = vec![setup_block(w, seed, reps)];

    // One pass through the program's own path for its result fingerprints
    // (for the sweep workload: the sweep engine, on one worker); the timing
    // comes from sliced passes.
    attempt_pass(report, &mut expect, "run", || {
        if w == Workload::MatchupSweep {
            workload::sweep_pass(seed, 1, false)
        } else {
            Ok(workload::sim_pass(w, seed, Mode::Run))
        }
    });
    whole_pass(report, &mut expect);
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while passes.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        let p = attempt_pass(report, &mut expect, "sliced", || {
            Ok(workload::sim_pass(w, seed, Mode::Sliced))
        });
        passes.extend(p);
        // Set-up blocks after every pass, a fixed share of its time, so that
        // set-up, like every other timing, is sampled over the whole run,
        // and as densely on workloads with long passes as on short ones.
        let t_setup = Instant::now();
        let share = t.elapsed().mul_f64(SETUP_SHARE);
        while t_setup.elapsed() < share {
            setups.push(setup_block(w, seed, reps));
        }
        if report.failed > 0 && start.elapsed() > budget {
            break;
        }
    }
    reference_checks(w, seed, &mut expect, report);

    let Some(first) = passes.first() else { return };
    let wall_s = least_interfered_s(&passes);
    report.push(
        "wall_us_per_sim_ms",
        per_sim_ms(first, wall_s * 1e6),
        "us/ms",
        passes.len(),
    );
    // Per simulation, not pooled: the two chaos arms' slices form two
    // populations about 1.3x apart, so a pooled median would fall in the
    // sparse gap between them and jump with a few slices.
    let slices = min_by_index(passes.iter().map(|p| p.slices_us.as_slice()));
    let n = slices.len() * passes.len();
    report.push(
        "slice_us.p50",
        mean_of_medians(&slices, &first.sim_slices),
        "us",
        n,
    );
    report.push("setup_s", min(&setups), "s", setups.len());
    report.push("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    print_counts(&expect);
}

/// The first pass of the `sliced` kind: the whole horizon in one
/// `advance_to` call, whose cumulative state every timed sliced pass must
/// then reproduce, so that no slice boundary changes the simulation.
fn whole_pass(report: &mut Report, expect: &mut Expect) {
    let w = expect.workload();
    let seed = expect.seed();
    attempt_pass(report, expect, "sliced", || {
        Ok(workload::sim_pass(w, seed, Mode::Whole))
    });
}

/// Checks against the simulator's own drivers: `run_matchup` on `nproc`
/// workers (or the harness's sweep on `nproc` workers, for seeds
/// `run_matchup` cannot take) against the one-worker passes, and
/// `run_chaos` at the default seed.
fn reference_checks(w: Workload, seed: u64, expect: &mut Expect, report: &mut Report) {
    let name = w.name();
    let run_fps = expect.first("run").map(|(fps, _)| fps.clone());
    match w {
        Workload::MatchupSweep if seed == DEFAULT_SEED => {
            let outcome = guarded(|| workload::reference_matchup(nproc()))
                .and_then(|r| r)
                .and_then(|fp| match &run_fps {
                    Some(fps) if fps[0] == fp => Ok(()),
                    _ => Err(format!(
                        "{name}: run_matchup on {} workers gives {} but the passes gave {:?}",
                        nproc(),
                        hex(&[fp]),
                        run_fps
                    )),
                });
            report.attempt(outcome);
        }
        Workload::MatchupSweep => {
            attempt_pass(report, expect, "run", || {
                workload::sweep_pass(seed, nproc(), false)
            });
        }
        Workload::ChaosObserved if seed == DEFAULT_SEED => {
            let outcome = guarded(workload::reference_chaos)
                .and_then(|r| r)
                .and_then(|(fp, telemetry, violations)| {
                    let golden = check::golden(w, "report");
                    if golden != Some(vec![fp]) {
                        println!("fingerprint {name} report {}", hex(&[fp]));
                        return Err(format!("{name}: run_chaos report {} is not the golden {golden:?}", hex(&[fp])));
                    }
                    if violations != [0, 0] {
                        return Err(format!("{name}: run_chaos watchdog violations {violations:?}"));
                    }
                    // Per arm: [cell metrics, telemetry, flowscope].
                    let ours = run_fps.as_ref().map(|f| [f[1], f[4]]);
                    if ours != Some(telemetry) {
                        return Err(format!(
                            "{name}: run_chaos arm telemetry {} differs from the run pass's {ours:?}",
                            hex(&telemetry)
                        ));
                    }
                    Ok(())
                });
            report.attempt(outcome);
        }
        _ => {}
    }
}

/// The deterministic work counts of one `run` pass, beside the metrics.
fn print_counts(expect: &Expect) {
    if let Some((_, counts)) = expect.first("run") {
        let line: Vec<String> = counts
            .fields()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("work per pass: {}", line.join(" "));
    }
}

/// The per-layer metrics: microbenchmarks, then untraced, profiled and
/// sliced passes in turn.
fn traced(args: &Args, report: &mut Report) {
    let (w, seed) = (args.workload, args.seed);
    let name = w.name();
    if alloc_stats().is_none() {
        report.attempt(Err(format!(
            "{name}: --trace 1 needs the counting-allocator build (perfbench-alloc)"
        )));
        return;
    }
    let budget = Duration::from_secs(args.seconds);
    let mut expect = Expect::new(w, seed);

    micro::run_all(
        seed,
        budget.mul_f64(0.01).max(Duration::from_millis(20)),
        report,
    );
    let (child_ns, parent_ns) = micro::perf_cost();
    let expand: Vec<f64> = (0..20).map(|_| workload::expand_once(w, seed)).collect();

    let mut plain: Vec<Pass> = Vec::new();
    let mut profiled: Vec<Pass> = Vec::new();
    let mut sliced: Vec<Pass> = Vec::new();
    let mut allocs = Vec::new();
    let mut peaks = Vec::new();
    whole_pass(report, &mut expect);
    let start = Instant::now();
    while plain.is_empty() || profiled.is_empty() || sliced.is_empty() || start.elapsed() < budget {
        reset_alloc_peak();
        let before = alloc_stats().expect("checked above");
        let p = if w == Workload::MatchupSweep {
            attempt_pass(report, &mut expect, "run", || {
                workload::sweep_pass(seed, nproc(), false)
            })
        } else {
            attempt_pass(report, &mut expect, "run", || {
                Ok(workload::sim_pass(w, seed, Mode::Run))
            })
        };
        let delta = alloc_stats().expect("checked above").since(&before);
        if let Some(p) = p {
            allocs.push(per_sim_ms(&p, delta.allocs as f64));
            peaks.push(delta.peak_live_bytes as f64);
            plain.push(p);
        }
        let p = if w == Workload::MatchupSweep {
            attempt_pass(report, &mut expect, "run", || {
                workload::sweep_pass(seed, nproc(), true)
            })
        } else {
            attempt_pass(report, &mut expect, "run", || {
                Ok(workload::sim_pass(w, seed, Mode::Traced))
            })
        };
        profiled.extend(p);
        sliced.extend(attempt_pass(report, &mut expect, "sliced", || {
            Ok(workload::sim_pass(w, seed, Mode::Sliced))
        }));
        if report.failed > 0 && start.elapsed() > budget {
            break;
        }
    }
    if profiled.is_empty() || plain.is_empty() {
        return;
    }

    // Profiler scopes, its own cost subtracted: each scope's enters x the
    // child share of an empty enter/exit pair, and from the enclosing
    // engine scope every nested enter x the parent share.
    let mut perf = profiled[0].perf.clone().unwrap_or_default();
    for p in &profiled[1..] {
        perf.merge(p.perf.as_ref().expect("profiled passes carry a report"));
    }
    let sim_ms: f64 = profiled.iter().map(|p| p.sim_ns as f64 / 1e6).sum();
    let nested: u64 = PerfScope::ALL[1..]
        .iter()
        .map(|&s| perf.scope_enters[s as usize])
        .sum();
    let scope = |s: PerfScope| {
        let (ns, enters) = (
            perf.scope_ns[s as usize] as f64,
            perf.scope_enters[s as usize],
        );
        let own = if s == PerfScope::Engine {
            nested as f64 * parent_ns
        } else {
            enters as f64 * child_ns
        };
        (
            (ns - own).max(0.0) / sim_ms,
            enters as f64 / sim_ms,
            enters as usize,
        )
    };
    let n_prof = profiled.len();
    for s in PerfScope::ALL {
        let (self_ns, enters, n) = scope(s);
        let name = s.name();
        // A chaos event is a handful of window edges per run: its
        // self-time is below the clock's resolution, so only its rate is
        // reported.
        if s != PerfScope::EvChaos {
            report.push(
                format!("{name}.self_ns_per_sim_ms"),
                self_ns,
                "ns/ms",
                n_prof,
            );
        }
        if s != PerfScope::Engine {
            report.push(format!("{name}.enters_per_sim_ms"), enters, "1/ms", n);
        }
    }

    let first = &plain[0];
    let c = first.counts;
    let count = |r: &mut Report, name: &str, v: u64| r.push(name, v as f64, "count", 1);
    report.push(
        "sim.events_per_sim_ms",
        per_sim_ms(first, c.events as f64),
        "1/ms",
        1,
    );
    count(report, "work.events", c.events);
    count(report, "work.host_ticks", profiled[0].host_ticks);
    count(report, "work.flow_polls", profiled[0].flow_polls);
    count(report, "fabric.data_packets", c.data_packets);
    count(report, "fabric.switch_drops", c.switch_drops);
    count(report, "fabric.fabric_marks", c.fabric_marks);
    count(report, "host.nic_drops", c.nic_drops);
    count(report, "host.host_marks", c.host_marks);
    count(report, "core.mba_writes", c.mba_writes);
    count(report, "transport.retransmits", c.retransmits);
    count(report, "transport.timeouts", c.timeouts);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    report.push(
        "transport.packets_per_flow_poll",
        ratio(c.data_packets, profiled[0].window_polls),
        "ratio",
        1,
    );
    report.push(
        "transport.retx_frac",
        ratio(c.retransmits, c.data_packets),
        "ratio",
        1,
    );
    count(report, "telemetry.samples", c.telemetry_samples);
    count(report, "trace.events", c.trace_events);
    count(
        report,
        "flowscope.conservation_failures",
        c.conservation_failures,
    );
    count(report, "chaos.injections", c.chaos_injections);

    let ns = |v: f64| v * 1e9;
    let setup: Vec<f64> = plain
        .iter()
        .chain(&sliced)
        .flat_map(|p| p.setup_s.iter().map(|&s| ns(s)))
        .collect();
    report.push("experiments.new_ns", min(&setup), "ns", setup.len());
    let advance: Vec<f64> = sliced
        .iter()
        .map(|p| per_sim_ms(p, p.slices_us.iter().sum::<f64>() * 1e3))
        .collect();
    report.push(
        "experiments.advance_ns_per_sim_ms",
        min(&advance),
        "ns/ms",
        advance.len(),
    );
    // The tail of the horizon's slices rests on its few most packet-dense
    // slices, which interference slows most: too unsteady to bound end to
    // end on a shared machine, so it is reported with the layers.
    let slices = min_by_index(sliced.iter().map(|p| p.slices_us.as_slice()));
    report.push(
        "slice_us.p99",
        quantile(&slices, 0.99),
        "us",
        slices.len() * sliced.len(),
    );
    let collect: Vec<f64> = sliced
        .iter()
        .flat_map(|p| p.collect_s.iter().map(|&s| ns(s)))
        .collect();
    report.push("experiments.collect_ns", min(&collect), "ns", collect.len());
    let expand_ns: Vec<f64> = expand.iter().map(|&s| ns(s)).collect();
    report.push(
        "experiments.expand_ns",
        min(&expand_ns),
        "ns",
        expand_ns.len(),
    );
    let cell = min_by_index(plain.iter().map(|p| p.cell_s.as_slice()));
    let cell_ns: Vec<f64> = cell.iter().map(|&s| ns(s)).collect();
    report.push(
        "experiments.cell_ns.p50",
        median(&cell_ns),
        "ns",
        cell_ns.len() * plain.len(),
    );
    let export: Vec<f64> = plain.iter().map(|p| ns(p.export_s)).collect();
    report.push("experiments.export_ns", min(&export), "ns", export.len());
    let busy = |p: &Pass| p.cell_s.iter().sum::<f64>();
    let speedup: Vec<f64> = plain.iter().map(|p| busy(p) / p.wall_s).collect();
    report.push(
        "experiments.parallel_speedup",
        median(&speedup),
        "ratio",
        speedup.len(),
    );
    let idle: Vec<f64> = plain
        .iter()
        .map(|p| 1.0 - busy(p) / (p.workers as f64 * p.wall_s))
        .collect();
    report.push(
        "experiments.worker_idle_frac",
        median(&idle),
        "ratio",
        idle.len(),
    );

    report.push("perf.enter_exit_ns", child_ns + parent_ns, "ns", 5);
    let plain_wall = min(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    // On `matchup-sweep` the sweep engine's throughput on `nproc` workers.
    report.push(
        "cells_per_s",
        first.cells as f64 / plain_wall,
        "1/s",
        plain.len(),
    );
    let prof_wall = min(&profiled.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    report.push(
        "perf.overhead_frac",
        (prof_wall - plain_wall) / prof_wall,
        "ratio",
        n_prof,
    );
    report.push(
        "alloc.allocs_per_sim_ms",
        median(&allocs),
        "1/ms",
        allocs.len(),
    );
    report.push("alloc.peak_live_bytes", median(&peaks), "B", peaks.len());
    print_counts(&expect);
}
