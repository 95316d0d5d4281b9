//! Sim-rate profiling: how fast is the simulator simulating?
//!
//! Piggybacks on the [`EventQueue`](hostcc_sim::EventQueue)'s existing
//! popped counter — the profiler just snapshots it (plus the wall clock and
//! the simulated clock) at start and finish. Wall-clock numbers are
//! intentionally kept *out* of `RunResult`: they vary run to run, and
//! results must stay bit-identical for a given scenario and seed.

use std::time::Instant;

use hostcc_sim::json::f64_debug;
use hostcc_sim::Nanos;

/// An in-flight measurement; [`SimRateProfiler::finish`] closes it.
#[derive(Debug, Clone)]
pub struct SimRateProfiler {
    wall_start: Instant,
    events_start: u64,
    sim_start: Nanos,
}

impl SimRateProfiler {
    /// Snapshot the three clocks at the start of a run. `events_processed`
    /// is the queue's popped counter, `sim_now` the simulated time.
    pub fn start(events_processed: u64, sim_now: Nanos) -> Self {
        SimRateProfiler {
            wall_start: Instant::now(),
            events_start: events_processed,
            sim_start: sim_now,
        }
    }

    /// Close the measurement with the counters' final values.
    pub fn finish(self, events_processed: u64, sim_now: Nanos) -> SimRateReport {
        SimRateReport {
            wall_secs: self.wall_start.elapsed().as_secs_f64(),
            events: events_processed.saturating_sub(self.events_start),
            sim_ns: sim_now.as_nanos().saturating_sub(self.sim_start.as_nanos()),
        }
    }
}

/// The closed measurement: wall time spent, events popped, sim time covered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimRateReport {
    /// Wall-clock seconds elapsed.
    pub wall_secs: f64,
    /// Events popped from the queue during the measurement.
    pub events: u64,
    /// Simulated nanoseconds covered.
    pub sim_ns: u64,
}

impl SimRateReport {
    /// Events popped per wall-clock second.
    ///
    /// All rate accessors share the same degenerate-measurement rule:
    /// any zero (or negative, for the float) denominator yields `0.0`
    /// rather than an `inf`/`NaN` that would poison downstream JSON.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.events as f64 / self.wall_secs
    }

    /// Simulated nanoseconds advanced per wall-clock second — the
    /// speed-of-simulation figure the BENCH trajectory tracks (1e9 means
    /// real time).
    pub fn sim_ns_per_wall_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.sim_ns as f64 / self.wall_secs
    }

    /// Wall-clock microseconds spent per simulated millisecond — the
    /// slowdown factor ×1000 (1000 here means real time).
    pub fn wall_us_per_sim_ms(&self) -> f64 {
        if self.sim_ns == 0 || self.wall_secs <= 0.0 {
            return 0.0;
        }
        (self.wall_secs * 1e6) / (self.sim_ns as f64 / 1e6)
    }

    /// The one JSON emission point for sim-rate blocks (the sweep
    /// manifest sidecar and the BENCH workload `rate` block both call
    /// this): raw counters plus the derived rates, serde-free.
    ///
    /// `wall_secs` and everything derived from it are wall-clock data —
    /// non-deterministic, and never part of any fingerprint.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"wall_secs\": {}, \"events\": {}, \"sim_ns\": {}, \
             \"events_per_sec\": {}, \"sim_ns_per_wall_sec\": {}, \
             \"wall_us_per_sim_ms\": {}}}",
            f64_debug(self.wall_secs),
            self.events,
            self.sim_ns,
            f64_debug(self.events_per_sec()),
            f64_debug(self.sim_ns_per_wall_sec()),
            f64_debug(self.wall_us_per_sim_ms()),
        )
    }

    /// One-line human rendering for end-of-run output.
    pub fn render(&self) -> String {
        format!(
            "sim-rate: {} events in {:.3} s wall ({:.0} ev/s), {:.3} ms simulated, {:.1} wall-us/sim-ms",
            self.events,
            self.wall_secs,
            self.events_per_sec(),
            self.sim_ns as f64 / 1e6,
            self.wall_us_per_sim_ms(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_math() {
        let r = SimRateReport {
            wall_secs: 2.0,
            events: 1_000_000,
            sim_ns: 4_000_000, // 4 simulated ms
        };
        assert_eq!(r.events_per_sec(), 500_000.0);
        assert_eq!(r.sim_ns_per_wall_sec(), 2_000_000.0);
        assert_eq!(r.wall_us_per_sim_ms(), 500_000.0);
        let line = r.render();
        assert!(line.contains("1000000 events"), "{line}");
        assert!(line.contains("4.000 ms simulated"), "{line}");
    }

    #[test]
    fn zero_denominators_do_not_panic() {
        let r = SimRateReport {
            wall_secs: 0.0,
            events: 0,
            sim_ns: 0,
        };
        assert_eq!(r.events_per_sec(), 0.0);
        assert_eq!(r.sim_ns_per_wall_sec(), 0.0);
        assert_eq!(r.wall_us_per_sim_ms(), 0.0);
        r.render();
        // The JSON path must emit finite numbers even for the degenerate
        // measurement (0.0, never NaN/inf/null rates).
        let json = r.to_json();
        assert!(json.contains("\"events_per_sec\": 0.0"), "{json}");
        assert!(json.contains("\"sim_ns_per_wall_sec\": 0.0"), "{json}");
    }

    #[test]
    fn json_block_carries_raw_counters_and_derived_rates() {
        let r = SimRateReport {
            wall_secs: 0.5,
            events: 200,
            sim_ns: 1_000_000,
        };
        let json = r.to_json();
        assert!(json.contains("\"wall_secs\": 0.5"), "{json}");
        assert!(json.contains("\"events\": 200"), "{json}");
        assert!(json.contains("\"sim_ns\": 1000000"), "{json}");
        assert!(json.contains("\"events_per_sec\": 400.0"), "{json}");
        assert!(
            json.contains("\"sim_ns_per_wall_sec\": 2000000.0"),
            "{json}"
        );
    }

    #[test]
    fn profiler_counts_deltas() {
        let p = SimRateProfiler::start(100, Nanos::from_micros(5));
        let r = p.finish(350, Nanos::from_micros(9));
        assert_eq!(r.events, 250);
        assert_eq!(r.sim_ns, 4_000);
        assert!(r.wall_secs >= 0.0);
    }
}
