//! The four workloads and their timed passes.
//!
//! A pass is one closed-loop repetition of a workload: it builds the
//! workload's scenarios from the seed, runs them to completion, and
//! returns wall times, the result fingerprints and the deterministic work
//! counts. Nothing here judges a pass; `check.rs` does.

use std::time::Instant;

use hostcc_chaos::{ChaosDriver, ChaosTimeline};
use hostcc_experiments::figures::Budget;
use hostcc_experiments::grid::{Cell, GridSpec};
use hostcc_experiments::sweep::{run_cells, CellMetrics, CellRun, SweepOptions};
use hostcc_experiments::{CcKind, CcSel, RunResult, Scenario, Simulation};
use hostcc_flowscope::{FlowScope, FlowscopeHandle};
use hostcc_matchup::{CellScore, GroupOutcome, MatchupReport};
use hostcc_perf::{PerfHandle, PerfProfiler, PerfReport, PerfScope};
use hostcc_sim::Nanos;
use hostcc_telemetry::{summary_json, to_jsonl};
use hostcc_trace::{TraceFilter, TraceHandle, Tracer, DEFAULT_TRACE_CAPACITY};

/// The chaos timeline `chaos-observed` runs (a 400 µs link blackout).
pub const CHAOS_SPEC: &str = "flap";
/// Simulated time per timed slice of a sliced pass.
pub const SLICE: Nanos = Nanos::from_micros(100);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperHostcc,
    FattreeIncast,
    MatchupSweep,
    ChaosObserved,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperHostcc,
        Workload::FattreeIncast,
        Workload::MatchupSweep,
        Workload::ChaosObserved,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperHostcc => "paper-hostcc",
            Workload::FattreeIncast => "fattree-incast",
            Workload::MatchupSweep => "matchup-sweep",
            Workload::ChaosObserved => "chaos-observed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenarios one non-sweep pass runs, in order. For the sweep
    /// workload these are its cells, which sliced passes drive one after
    /// another.
    fn scenarios(self, seed: u64) -> Vec<Scenario> {
        let b = Budget::standard();
        let seeded = |mut s: Scenario| {
            s.seed = seed;
            s
        };
        match self {
            Workload::PaperHostcc => {
                vec![seeded(
                    b.apply(Scenario::with_congestion(3.0).enable_hostcc()),
                )]
            }
            Workload::FattreeIncast => {
                vec![seeded(
                    b.apply(Scenario::fat_tree_incast(4, 3.0).enable_hostcc()),
                )]
            }
            // The arms `repro chaos` runs: the RPC workload on the congested
            // dumbbell with telemetry recording, hostCC off then on.
            Workload::ChaosObserved => {
                let b = chaos_budget();
                let mut base = b.apply(Scenario::with_congestion(3.0).with_rpc(b.rpc_clients));
                base.record = true;
                base.chaos = Some(CHAOS_SPEC.to_string());
                let base = seeded(base);
                vec![base.clone(), base.enable_hostcc()]
            }
            // Cell seeds are derived from the grid's base seed.
            Workload::MatchupSweep => matchup_grid(seed)
                .expand()
                .expect("the matchup grid expands")
                .into_iter()
                .map(|c| c.scenario)
                .collect(),
        }
    }

    /// Observability tools the workload attaches after `Simulation::new`.
    fn attach(self, sim: &mut Simulation) {
        match self {
            Workload::ChaosObserved => {
                sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
                sim.set_trace(TraceHandle::new(Tracer::new(
                    DEFAULT_TRACE_CAPACITY,
                    TraceFilter::all(),
                )));
            }
            // What the sweep engine attaches to every matchup cell.
            Workload::MatchupSweep => sim.set_flowscope(FlowscopeHandle::new(FlowScope::new())),
            Workload::PaperHostcc | Workload::FattreeIncast => {}
        }
    }
}

/// The chaos workload's budget: `repro chaos --quick`'s, whose measurement
/// window still holds the whole fault. Its passes take 0.2–0.3 s, so a
/// timed run repeats each slice of the horizon 60–100 times.
fn chaos_budget() -> Budget {
    Budget::quick()
}

/// The sweep workload's budget: `repro matchup --quick`'s. Its cells take
/// about 0.1 s, short enough for a timed run to repeat each many times.
fn matchup_budget() -> Budget {
    Budget::quick()
}

/// The smoke matchup grid (`run_matchup("smoke", matchup_budget(), ..)`):
/// every CC kind x hostCC off/on on the incast-8 dumbbell with the RPC
/// workload, under the given base seed.
fn matchup_grid(seed: u64) -> GridSpec {
    let b = matchup_budget();
    let mut g = GridSpec::new(
        "incast",
        b.apply(Scenario::incast(8, 3.0).with_rpc(b.rpc_clients)),
    );
    g.hostcc = vec![false, true];
    g.cc = CcKind::ALL.iter().map(|&k| CcSel::Kind(k)).collect();
    g.base.seed = seed;
    g
}

/// Deterministic work one pass did, summed over its simulations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub data_packets: u64,
    pub retransmits: u64,
    pub timeouts: u64,
    pub nic_drops: u64,
    pub host_marks: u64,
    pub switch_drops: u64,
    pub fabric_marks: u64,
    pub mba_writes: u64,
    pub trace_events: u64,
    pub telemetry_samples: u64,
    pub watchdog_violations: u64,
    pub conservation_failures: u64,
    pub chaos_injections: u64,
}

impl Counts {
    fn add_metrics(&mut self, m: &CellMetrics) {
        self.data_packets += m.data_packets;
        self.retransmits += m.retransmits;
        self.timeouts += m.timeouts;
        self.nic_drops += m.nic_drops;
        self.host_marks += m.host_marks;
        self.switch_drops += m.switch_drops;
        self.fabric_marks += m.fabric_marks;
        self.mba_writes += m.mba_writes;
    }

    /// `label value` pairs for the report.
    pub fn fields(&self) -> [(&'static str, u64); 14] {
        [
            ("events", self.events),
            ("data_packets", self.data_packets),
            ("retransmits", self.retransmits),
            ("timeouts", self.timeouts),
            ("nic_drops", self.nic_drops),
            ("host_marks", self.host_marks),
            ("switch_drops", self.switch_drops),
            ("fabric_marks", self.fabric_marks),
            ("mba_writes", self.mba_writes),
            ("trace_events", self.trace_events),
            ("telemetry_samples", self.telemetry_samples),
            ("watchdog_violations", self.watchdog_violations),
            ("conservation_failures", self.conservation_failures),
            ("chaos_injections", self.chaos_injections),
        ]
    }
}

/// How a pass drives each simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Simulation::run`, nothing attached beyond the workload's own tools.
    Run,
    /// As `Run`, with a `PerfProfiler` attached.
    Traced,
    /// `advance_to` in `SLICE` steps over the whole horizon, each step
    /// timed; then the simulation's cumulative state is read, and `run()`
    /// (now only a window reset and the collect) is timed.
    Sliced,
    /// As `Sliced`, with the whole horizon in one `advance_to` call: the
    /// state every sliced pass must reproduce.
    Whole,
}

/// One timed pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of the whole pass, set-up included, exports excluded.
    pub wall_s: f64,
    /// Simulated nanoseconds over all its simulations.
    pub sim_ns: u64,
    /// Simulations (cells) completed.
    pub cells: usize,
    /// Sweep worker threads (1 for non-sweep passes).
    pub workers: usize,
    /// Per simulation: `Simulation::new` plus attachments, in seconds.
    pub setup_s: Vec<f64>,
    /// Per simulation: wall seconds from set-up done to result.
    pub cell_s: Vec<f64>,
    /// Sliced passes: host µs per simulated slice, every slice in order.
    pub slices_us: Vec<f64>,
    /// Sliced passes: how many of `slices_us` each simulation took, in order.
    pub sim_slices: Vec<usize>,
    /// Sliced passes: seconds of the closing `run()` (reset + collect).
    pub collect_s: Vec<f64>,
    /// Seconds spent turning results into the workload's exports.
    pub export_s: f64,
    /// The result fingerprints, in simulation order (sliced and whole
    /// passes: the cumulative-state fingerprints).
    pub fingerprints: Vec<u64>,
    pub counts: Counts,
    /// Traced passes: the merged profiler report, and the host ticks and
    /// flow polls (ticks x flows) it counted.
    pub perf: Option<PerfReport>,
    pub host_ticks: u64,
    pub flow_polls: u64,
    /// Flow polls inside the measurement windows (ticks there x flows).
    pub window_polls: u64,
}

/// Flows `Simulation::tick` polls every tick: the greedy flows plus one per
/// RPC client.
fn flow_count(s: &Scenario) -> u64 {
    let rpc = if s.rpc.is_some() {
        s.rpc_clients as u64
    } else {
        0
    };
    s.total_greedy_flows() as u64 + rpc
}

/// Injections the scenario's chaos timeline compiles to.
fn chaos_injections(s: &Scenario) -> u64 {
    s.chaos.as_deref().map_or(0, |spec| {
        let timeline = ChaosTimeline::resolve(spec).expect("workload chaos specs resolve");
        ChaosDriver::new(timeline, s.seed).injections().len() as u64
    })
}

impl Pass {
    /// Fold in one simulation's profiler report.
    fn add_perf(&mut self, perf: Option<PerfReport>, s: &Scenario) {
        let Some(perf) = perf else { return };
        let ticks = perf.scope_enters[PerfScope::TickHost as usize];
        let flows = flow_count(s);
        self.host_ticks += ticks;
        self.flow_polls += ticks * flows;
        let horizon = (s.warmup + s.measure).as_nanos();
        self.window_polls += ticks * s.measure.as_nanos() / horizon * flows;
        match &mut self.perf {
            Some(total) => total.merge(&perf),
            None => self.perf = Some(perf),
        }
    }

    /// Fold in one finished simulation's result.
    fn add_result(&mut self, s: &Scenario, r: &RunResult, events: u64) {
        let t = Instant::now();
        let metrics = CellMetrics::from_result(r);
        self.fingerprints.push(metrics.fingerprint());
        if let Some(tel) = &r.telemetry {
            self.fingerprints.push(tel.summary.fingerprint());
            std::hint::black_box((summary_json(tel), to_jsonl(&tel.series)));
            self.counts.telemetry_samples += tel.summary.samples;
            self.counts.watchdog_violations += tel.summary.total_violations();
        }
        if let Some(fs) = &r.flowscope {
            self.fingerprints.push(fs.fingerprint());
            std::hint::black_box(fs.to_json());
            self.counts.conservation_failures += fs.summary.conservation_failures;
        }
        self.export_s += t.elapsed().as_secs_f64();
        self.counts.add_metrics(&metrics);
        self.counts.events += events;
        self.counts.trace_events += r.trace.as_ref().map_or(0, |t| t.total());
        self.counts.chaos_injections += chaos_injections(s);
    }

    /// Fold in the cumulative state of a simulation driven over its whole
    /// horizon but not yet collected, read through the public API before
    /// `run()` resets the measurement windows: the clock, the event count,
    /// the receiver's datapath totals and gauges, the MBA writes, the
    /// hostCC controller's state, the per-kind trace counts, and the
    /// telemetry summary and flow ledger where attached (their own
    /// fingerprints).
    fn add_state(&mut self, s: &Scenario, sim: &Simulation) {
        let mut h = Fnv::new();
        let probe = sim.rx().probe();
        for v in [
            sim.now().as_nanos(),
            sim.events_processed(),
            probe.nic_arrivals_total,
            probe.nic_drops_total,
            probe.nic_queued,
            probe.nic_backlog_bytes,
            probe.iio_pending,
            probe.delivered_total,
            u64::from(probe.mba_requested),
            sim.rx().nic_peak_bytes(),
            sim.rx().mba().writes(),
        ] {
            h.word(v);
        }
        for v in [
            probe.pcie_inflight_bytes,
            probe.pcie_credits_avail_bytes,
            probe.iio_waiting_bytes,
            probe.iio_inserted_bytes,
            probe.iio_admitted_bytes,
            probe.ddio_eviction_fraction,
            probe.copy_backlog_app_bytes,
            probe.mc_served_bytes,
            probe.mc_utilization,
        ] {
            h.word(v.to_bits());
        }
        if let Some(cc) = sim.hostcc() {
            h.word(cc.samples());
            h.word(u64::from(cc.desired_level()));
            h.word(cc.is().to_bits());
            h.word(cc.bs().as_bytes_per_ns().to_bits());
        }
        if let Some(tc) = sim.trace_counts() {
            for (kind, n) in tc.iter() {
                h.word(kind as u64);
                h.word(n);
            }
            h.word(tc.overflowed);
            self.counts.trace_events += tc.total();
        }
        self.fingerprints.push(h.0);
        if let Some(tel) = sim.telemetry().summary() {
            self.fingerprints.push(tel.fingerprint());
            self.counts.telemetry_samples += tel.samples;
            self.counts.watchdog_violations += tel.total_violations();
        }
        if let Some(fs) = sim.flowscope().result(sim.now()) {
            self.fingerprints.push(fs.fingerprint());
            self.counts.conservation_failures += fs.summary.conservation_failures;
        }
        self.counts.events += sim.events_processed();
        self.counts.nic_drops += probe.nic_drops_total;
        self.counts.mba_writes += sim.rx().mba().writes();
        self.counts.chaos_injections += chaos_injections(s);
    }
}

/// FNV-1a over 64-bit words, for the cumulative-state fingerprint.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One pass of a non-sweep workload, or a sliced pass of the sweep
/// workload's cells, one after another.
pub fn sim_pass(w: Workload, seed: u64, mode: Mode) -> Pass {
    let started = Instant::now();
    let mut p = Pass {
        workers: 1,
        ..Pass::default()
    };
    for s in w.scenarios(seed) {
        let horizon = s.warmup + s.measure;
        let t = Instant::now();
        let mut sim = Simulation::new(s.clone());
        w.attach(&mut sim);
        if mode == Mode::Traced {
            sim.set_perf(PerfHandle::new(PerfProfiler::new()));
        }
        p.setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        match mode {
            Mode::Sliced => {
                let before = p.slices_us.len();
                let mut at = Nanos::ZERO;
                let mut last = Instant::now();
                while at < horizon {
                    at = (at + SLICE).min(horizon);
                    sim.advance_to(at);
                    let now = Instant::now();
                    p.slices_us.push((now - last).as_secs_f64() * 1e6);
                    last = now;
                }
                p.sim_slices.push(p.slices_us.len() - before);
            }
            Mode::Whole => sim.advance_to(horizon),
            Mode::Run | Mode::Traced => {}
        }
        // A drive over the whole horizon leaves the window reset to the
        // closing `run()`, so its result covers almost nothing: the
        // simulation's state before that call is what gets checked.
        let drove = matches!(mode, Mode::Sliced | Mode::Whole);
        let t_state = Instant::now();
        if drove {
            p.add_state(&s, &sim);
        }
        let state_s = t_state.elapsed().as_secs_f64();
        let t_collect = Instant::now();
        let r = sim.run();
        if mode == Mode::Sliced {
            p.collect_s.push(t_collect.elapsed().as_secs_f64());
        }
        // Reading the state is harness work: kept out of the pass's wall
        // time, like the exports.
        p.cell_s.push(t.elapsed().as_secs_f64() - state_s);
        p.export_s += state_s;
        p.sim_ns += sim.now().as_nanos();
        p.cells += 1;
        if !drove {
            p.add_result(&s, &r, sim.events_processed());
        }
        p.add_perf(sim.perf().report(), &s);
    }
    // Exports are timed on their own, as for the sweep.
    p.wall_s = started.elapsed().as_secs_f64() - p.export_s;
    p
}

/// Flatten one executed cell into its matchup score: the scoring of the
/// simulator's `run_matchup`, restated here because that function takes
/// no seed. The default-seed golden pins the two to the same report.
fn score_cell(context: &str, run: &CellRun) -> Result<CellScore, String> {
    let fs = run
        .flowscope
        .as_ref()
        .ok_or_else(|| format!("matchup cell '{}' ran without a flow ledger", run.key))?;
    let min_flow_gbps = fs
        .flows
        .iter()
        .filter(|f| f.greedy)
        .map(|f| f.goodput_gbps)
        .fold(f64::INFINITY, f64::min);
    Ok(CellScore {
        cc: run.get("cc").unwrap_or("?").to_string(),
        hostcc: run.get("hostcc") == Some("on"),
        context: context.to_string(),
        key: run.key.clone(),
        seed: run.seed,
        goodput_gbps: run.metrics.goodput_gbps,
        min_flow_gbps: if min_flow_gbps.is_finite() {
            min_flow_gbps
        } else {
            0.0
        },
        jain: fs.jain,
        convergence_ns: fs.convergence_ns,
        retransmits: run.metrics.retransmits,
        timeouts: run.metrics.timeouts,
        drop_rate_pct: run.metrics.drop_rate_pct,
        rpc_p99_ns: run.metrics.rpc.iter().map(|r| r.whiskers_ns[2]).max(),
        groups: fs
            .groups
            .iter()
            .map(|g| GroupOutcome {
                group: g.group.clone(),
                flows: g.flows,
                goodput_gbps: g.goodput_gbps,
                jain: g.jain,
                retransmits: g.retransmits,
            })
            .collect(),
    })
}

/// One pass of the matchup sweep: expand the grid, run its 14 cells on
/// `workers` threads, score them into a `MatchupReport`.
pub fn sweep_pass(seed: u64, workers: usize, perf: bool) -> Result<Pass, String> {
    let started = Instant::now();
    let grid = matchup_grid(seed);
    let cells: Vec<Cell> = grid.expand()?;
    let opts = SweepOptions {
        workers,
        trace: false,
        flows: true,
        perf,
        ..SweepOptions::default()
    };
    let runs = run_cells(&cells, &opts);
    let report = MatchupReport {
        preset: "smoke".to_string(),
        budget: "quick".to_string(),
        cells: runs
            .iter()
            .map(|r| score_cell(&grid.name, r))
            .collect::<Result<_, _>>()?,
    };
    let wall_s = started.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box((report.to_json(), report.leaderboard_csv()));
    let mut p = Pass {
        wall_s,
        workers,
        export_s: t.elapsed().as_secs_f64(),
        fingerprints: vec![report.fingerprint()],
        ..Pass::default()
    };
    for (cell, run) in cells.iter().zip(&runs) {
        p.cells += 1;
        p.sim_ns += run.sim_ns;
        p.cell_s.push(run.wall_secs);
        p.counts.add_metrics(&run.metrics);
        p.counts.events += run.events;
        if let Some(fs) = &run.flowscope {
            p.counts.conservation_failures += fs.summary.conservation_failures;
        }
        p.add_perf(run.perf.clone(), &cell.scenario);
    }
    Ok(p)
}

/// Set-up alone, the way a pass does it, in seconds: `Simulation::new`
/// plus attachments for each simulation in turn, each dropped untimed
/// before the next is built, and for the sweep `GridSpec::expand` too.
pub fn setup_once(w: Workload, seed: u64) -> f64 {
    let (mut total, scenarios) = if w == Workload::MatchupSweep {
        let t = Instant::now();
        let cells = matchup_grid(seed)
            .expand()
            .expect("the matchup grid expands");
        let expand_s = t.elapsed().as_secs_f64();
        (expand_s, cells.into_iter().map(|c| c.scenario).collect())
    } else {
        (0.0, w.scenarios(seed))
    };
    for s in scenarios {
        let t = Instant::now();
        let mut sim = Simulation::new(s);
        w.attach(&mut sim);
        total += t.elapsed().as_secs_f64();
        drop(sim);
    }
    total
}

/// Seconds of `GridSpec::expand` for the workload's grid (a one-cell grid
/// for the non-sweep workloads, which run their scenarios directly).
pub fn expand_once(w: Workload, seed: u64) -> f64 {
    let grid = match w {
        Workload::MatchupSweep => matchup_grid(seed),
        _ => GridSpec::new(w.name(), w.scenarios(seed).remove(0)),
    };
    let t = Instant::now();
    std::hint::black_box(grid.expand().expect("workload grids expand"));
    t.elapsed().as_secs_f64()
}

/// Fingerprint of the simulator's own `run_matchup("smoke", ..)` (default
/// seed only: the preset carries its own base seed).
pub fn reference_matchup(workers: usize) -> Result<u64, String> {
    hostcc_experiments::matchup::run_matchup("smoke", &matchup_budget(), "quick", workers)
        .map(|r| r.fingerprint())
}

/// The simulator's own `run_chaos` report for the workload's timeline
/// (default seed only), serial: `(report fingerprint, per-arm telemetry
/// fingerprints, per-arm watchdog violations)`.
pub fn reference_chaos() -> Result<(u64, [u64; 2], [u64; 2]), String> {
    let r = hostcc_experiments::resilience::run_chaos(CHAOS_SPEC, &chaos_budget(), 1)?;
    Ok((
        r.fingerprint(),
        [r.off.telemetry_fingerprint, r.on.telemetry_fingerprint],
        [r.off.violations, r.on.violations],
    ))
}
