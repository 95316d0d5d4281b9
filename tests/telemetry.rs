//! Cross-crate acceptance tests for the telemetry pipeline: per-cell
//! telemetry summaries must be bit-identical at any worker count, and
//! every sweep preset must run clean under `--strict-invariants` — the
//! watchdog's conservation identities (NIC packets, PCIe credits, IIO
//! bytes, MBA level range) hold across the whole scenario space.

use hostcc_experiments::figures::Budget;
use hostcc_experiments::grid::GridSpec;
use hostcc_experiments::sweep::{run_sweep, SweepOptions};
use hostcc_sim::Nanos;

fn quick_figure_grid() -> GridSpec {
    let mut spec = GridSpec::preset("figure-grid").expect("preset exists");
    spec.base.warmup = Nanos::from_micros(500);
    spec.base.measure = Nanos::from_millis(2);
    spec
}

fn telemetry_opts(workers: usize) -> SweepOptions {
    SweepOptions {
        workers,
        telemetry: true,
        strict_invariants: true,
        ..SweepOptions::default()
    }
}

#[test]
fn telemetry_fingerprints_are_bit_identical_across_worker_counts() {
    let spec = quick_figure_grid();
    let serial = run_sweep(&spec, &telemetry_opts(1)).expect("strict run is clean");
    let parallel = run_sweep(&spec, &telemetry_opts(4)).expect("strict run is clean");

    assert_eq!(serial.cells.len(), 16, "the acceptance grid is 2x2x4");
    assert_eq!(serial.fingerprint, parallel.fingerprint);
    for (a, b) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(a.index, b.index);
        let (sa, sb) = (
            a.telemetry.as_ref().expect("telemetry attached"),
            b.telemetry.as_ref().expect("telemetry attached"),
        );
        assert_eq!(
            sa.fingerprint(),
            sb.fingerprint(),
            "cell '{}' telemetry diverges at 4 workers",
            a.key
        );
        assert_eq!(sa.total_violations(), 0, "cell '{}'", a.key);
        assert!(sa.samples > 0, "cell '{}' sampled nothing", a.key);
    }

    let merged = serial.telemetry.as_ref().expect("manifest summary");
    assert_eq!(
        merged.samples,
        serial
            .cells
            .iter()
            .map(|r| r.telemetry.as_ref().unwrap().samples)
            .sum::<u64>()
    );
    assert_eq!(
        merged.fingerprint(),
        parallel.telemetry.as_ref().unwrap().fingerprint()
    );
}

#[test]
fn every_sweep_preset_is_clean_under_strict_invariants() {
    for (_, name, _) in GridSpec::presets() {
        let mut spec = GridSpec::preset(name).expect("listed preset exists");
        if spec.chaos.is_empty() {
            spec.base.warmup = Nanos::from_micros(200);
            spec.base.measure = Nanos::from_micros(600);
        } else {
            // The faults open at 4.5 ms: a shorter run could never fire
            // them, and expansion rejects such a cell.
            spec.base = Budget::quick().apply(spec.base);
        }
        let manifest = run_sweep(&spec, &telemetry_opts(0))
            .unwrap_or_else(|e| panic!("preset '{name}' violates invariants: {e}"));
        let summary = manifest.telemetry.as_ref().expect("telemetry merged");
        assert_eq!(summary.total_violations(), 0, "preset '{name}'");
        assert!(summary.checks > 0, "preset '{name}' never checked");
    }
}
