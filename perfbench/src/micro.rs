//! Layer microbenchmarks: each drives one crate's public functions with no
//! `Simulation` around it, on inputs drawn from the workload seed.
//!
//! Every benchmark times blocks of calls (so a clock read costs well under
//! a percent of a block) and reports the fastest block's nanoseconds per
//! call (`stats::min`: every block does the same kind of work, and other
//! load on the machine only adds time). Where a name carries a size (`f16`, `k4`, `dense4096`), that is
//! the input size the calls ran at.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hostcc_chaos::{ChaosDriver, ChaosTimeline};
use hostcc_core::{HostCc, HostCcConfig};
use hostcc_experiments::{CcKind, Scenario};
use hostcc_fabric::{
    FlowId, FqLink, Packet, PacketArena, PacketBody, SwitchPort, SwitchPortConfig, Topology,
};
use hostcc_host::{HostConfig, MsrReadModel, RxHost, TickOutput, MBA_LEVELS};
use hostcc_matchup::{CellScore, GroupOutcome, MatchupReport};
use hostcc_perf::{PerfHandle, PerfProfiler, PerfScope};
use hostcc_sim::{EventQueue, Nanos, Rate, Rng};
use hostcc_telemetry::{Telemetry, TelemetryConfig, WatchdogInput};
use hostcc_trace::{TraceEvent, TraceFilter, Tracer};
use hostcc_transport::{
    BbrLite, CongestionControl, Cubic, Dcqcn, Dctcp, Flow, FlowConfig, Reno, Swift, Timely,
};

use crate::report::Report;
use crate::stats::{median, min};
use crate::workload::CHAOS_SPEC;

/// Wire size of one full-MTU data packet (4096 B payload + 66 B headers).
const WIRE_BYTES: u64 = 4096 + 66;
/// Length of the precomputed random input tables (a power of two).
const TABLE: usize = 4096;

/// Time `op` in blocks of `per_block` calls until `budget` has elapsed
/// (at least five blocks, after one untimed warm-up block).
fn bench(budget: Duration, per_block: usize, mut op: impl FnMut()) -> (f64, usize) {
    for _ in 0..per_block {
        op();
    }
    let mut per_call = Vec::new();
    let start = Instant::now();
    while per_call.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..per_block {
            op();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / per_block as f64);
    }
    (min(&per_call), per_call.len())
}

/// The CC constructors the simulator uses for each kind (Swift's target
/// carries 25 % headroom over the base RTT).
fn make_cc(kind: CcKind, base_rtt: Nanos) -> Box<dyn CongestionControl> {
    match kind {
        CcKind::Dctcp => Box::new(Dctcp::new()),
        CcKind::Reno => Box::new(Reno::new()),
        CcKind::Cubic => Box::new(Cubic::new()),
        CcKind::Swift => Box::new(Swift::new(base_rtt.scale(1.25))),
        CcKind::Timely => Box::new(Timely::new(base_rtt)),
        CcKind::Dcqcn => Box::new(Dcqcn::new()),
        CcKind::BbrLite => Box::new(BbrLite::new()),
    }
}

/// Run every microbenchmark, `budget` each, and add its metric.
pub fn run_all(seed: u64, budget: Duration, r: &mut Report) {
    let mut push = |name: &str, (ns, n): (f64, usize)| r.push(name, ns, "ns", n);
    push("sim.wheel_ns.dense4096", wheel(seed, budget, 4096, 10_000));
    push("sim.wheel_ns.sparse16", wheel(seed, budget, 16, 2_000_000));
    push("fabric.fq_ns.f1", fq(seed, budget, 1));
    push("fabric.fq_ns.f16", fq(seed, budget, 16));
    push("fabric.switch_enqueue_ns", switch_enqueue(seed, budget));
    push("fabric.route_ns.k4", route(seed, budget));
    push("host.rx_tick_ns.mapp0", rx_tick(seed, budget, 0.0));
    push("host.rx_tick_ns.mapp3", rx_tick(seed, budget, 3.0));
    push("host.wire_arrival_ns", wire_arrival(seed, budget));
    push("core.hostcc_tick_ns", hostcc_tick(seed, budget));
    push("transport.on_tick_ns", flow_on_tick(budget));
    for kind in CcKind::ALL {
        push(
            &format!("transport.ack_ns.{}", kind.name()),
            ack(seed, budget, kind),
        );
    }
    push("telemetry.sample_ns.g32", telemetry_sample(seed, budget));
    push("trace.record_ns", trace_record(seed, budget));
    push("chaos.resolve_ns", chaos_resolve(seed, budget));
    push("matchup.score_ns.c14", matchup_score(seed, budget));
}

/// `EventQueue::pop_before` + `schedule` of the popped event `1..spread`
/// ns later, at a constant `depth` of pending events.
fn wheel(seed: u64, budget: Duration, depth: usize, spread: u64) -> (f64, usize) {
    let mut rng = Rng::new(seed ^ 0x1);
    let delays: Vec<Nanos> = (0..TABLE)
        .map(|_| Nanos::from_nanos(1 + rng.below(spread)))
        .collect();
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..depth {
        q.schedule(delays[i % TABLE], i as u32);
    }
    let mut k = 0;
    bench(budget, 1024, || {
        let (t, ev) = q
            .pop_before(Nanos::MAX)
            .expect("the queue holds `depth` events");
        q.schedule(t + delays[k & (TABLE - 1)], ev);
        k += 1;
    })
}

/// `FqLink::enqueue` + `on_depart` on a 100 Gbps link holding a standing
/// backlog of four packets per flow, arrivals spread over `flows` flows.
fn fq(seed: u64, budget: Duration, flows: u32) -> (f64, usize) {
    let mut rng = Rng::new(seed ^ 0x2);
    let picks: Vec<FlowId> = (0..TABLE)
        .map(|_| FlowId(rng.below(flows as u64) as u32))
        .collect();
    let mut arena = PacketArena::new();
    let pkt = arena.insert(Packet::data(0, FlowId(0), 0, 4096, false, Nanos::ZERO));
    let mut link = FqLink::new(Rate::gbps(100.0));
    let mut id = 0;
    let mut first = None;
    for f in 0..flows {
        for _ in 0..4 {
            id += 1;
            first = first.or(link.enqueue(Nanos::ZERO, FlowId(f), WIRE_BYTES, id, pkt));
        }
    }
    let mut dep = first.expect("the first enqueue starts service");
    let mut k = 0;
    bench(budget, 1024, || {
        id += 1;
        black_box(link.enqueue(dep.at, picks[k & (TABLE - 1)], WIRE_BYTES, id, pkt));
        dep = link
            .on_depart(dep.at)
            .expect("the backlog keeps the link busy");
        k += 1;
    })
}

/// `SwitchPort::enqueue` under arrivals averaging 5 % above the port's
/// drain rate (an incast), so the queue climbs past the marking threshold
/// to the buffer limit and stays there, marking and tail-dropping.
fn switch_enqueue(seed: u64, budget: Duration) -> (f64, usize) {
    let mut rng = Rng::new(seed ^ 0x3);
    let service = Rate::gbps(100.0).time_for_bytes(WIRE_BYTES).as_nanos();
    let gaps: Vec<Nanos> = (0..TABLE)
        .map(|_| Nanos::from_nanos(rng.range(service * 8 / 10, service * 11 / 10)))
        .collect();
    let mut port = SwitchPort::new(SwitchPortConfig::paper_default());
    let mut now = Nanos::ZERO;
    let mut k = 0;
    bench(budget, 1024, || {
        now += gaps[k & (TABLE - 1)];
        black_box(port.enqueue(now, WIRE_BYTES));
        k += 1;
    })
}

/// `Topology::route` on a k = 4 fat tree between random host pairs.
fn route(seed: u64, budget: Duration) -> (f64, usize) {
    let topo = Topology::fat_tree(4);
    let hosts = topo.host_count() as u64;
    let mut rng = Rng::new(seed ^ 0x4);
    let pairs: Vec<(u32, u32, u32)> = (0..TABLE)
        .map(|_| {
            let src = rng.below(hosts);
            let dst = (src + 1 + rng.below(hosts - 1)) % hosts;
            (src as u32, dst as u32, rng.below(64) as u32)
        })
        .collect();
    let mut k = 0;
    bench(budget, 64, || {
        let (src, dst, flow) = pairs[k & (TABLE - 1)];
        black_box(topo.route(src, dst, flow, seed));
        k += 1;
    })
}

/// Per-tick arrival counts of a 100 Gbps line of full-MTU packets, with
/// each packet gap jittered by ±20 %.
fn line_rate_arrivals(rng: &mut Rng, tick: Nanos) -> Vec<u32> {
    let gap = Rate::gbps(100.0).time_for_bytes(WIRE_BYTES).as_nanos();
    let mut next = 0u64;
    (0..TABLE as u64)
        .map(|t| {
            let end = (t + 1) * tick.as_nanos();
            let mut n = 0;
            while next < end {
                n += 1;
                next += rng.range(gap * 8 / 10, gap * 12 / 10);
            }
            n
        })
        .collect()
}

/// A receiver host fed at line rate by four flows, one tick at a time.
struct FedHost {
    rx: RxHost,
    out: TickOutput,
    arrivals: Vec<u32>,
    tick: Nanos,
    now: Nanos,
    id: u64,
    k: usize,
}

impl FedHost {
    fn new(seed: u64, mapp_degree: f64) -> Self {
        let cfg = HostConfig::paper_default();
        let tick = cfg.tick;
        let mut rng = Rng::new(seed ^ 0x5);
        FedHost {
            rx: RxHost::new(cfg, mapp_degree),
            out: TickOutput::default(),
            arrivals: line_rate_arrivals(&mut rng, tick),
            tick,
            now: Nanos::ZERO,
            id: 0,
            k: 0,
        }
    }

    /// Offer the next packet on the wire.
    fn arrive(&mut self) {
        self.id += 1;
        let flow = FlowId((self.id % 4) as u32);
        let seq = (self.id / 4) * 4096;
        let pkt = Packet::data(self.id, flow, seq, 4096, false, self.now);
        black_box(self.rx.on_wire_arrival(pkt, self.now));
    }

    /// One host tick with this tick's scheduled arrivals.
    fn step(&mut self) {
        self.now += self.tick;
        for _ in 0..self.arrivals[self.k & (TABLE - 1)] {
            self.arrive();
        }
        self.k += 1;
        self.rx.tick_into(self.now, &mut self.out);
    }
}

/// `RxHost::tick_into` (plus that tick's `on_wire_arrival` calls) at MApp
/// degree `mapp_degree`, after 2 ms of simulated warm-up.
fn rx_tick(seed: u64, budget: Duration, mapp_degree: f64) -> (f64, usize) {
    let mut host = FedHost::new(seed, mapp_degree);
    for _ in 0..20_000 {
        host.step();
    }
    bench(budget, 1024, || host.step())
}

/// `RxHost::on_wire_arrival`, timed in bursts of 16 packets into a host
/// whose NIC has drained between bursts (the drain ticks are untimed).
fn wire_arrival(seed: u64, budget: Duration) -> (f64, usize) {
    const BURST: usize = 16;
    let mut host = FedHost::new(seed, 3.0);
    for _ in 0..20_000 {
        host.step();
    }
    let mut per_call = Vec::new();
    let start = Instant::now();
    while per_call.len() < 5 || start.elapsed() < budget {
        while host.rx.nic_backlog_bytes() > 0 {
            host.now += host.tick;
            host.rx.tick_into(host.now, &mut host.out);
        }
        let t = Instant::now();
        for _ in 0..BURST {
            host.arrive();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / BURST as f64);
    }
    (min(&per_call), per_call.len())
}

/// `HostCc::on_tick_with_nic` replayed over 4096 recorded ticks of a
/// congested (MApp 3) host: counter snapshots and NIC backlog per tick.
fn hostcc_tick(seed: u64, budget: Duration) -> (f64, usize) {
    let mut host = FedHost::new(seed, 3.0);
    for _ in 0..20_000 {
        host.step();
    }
    let ticks: Vec<_> = (0..TABLE)
        .map(|_| {
            host.step();
            (host.now, host.rx.msr().clone(), host.rx.nic_backlog_bytes())
        })
        .collect();
    let cfg = host.rx.cfg().clone();
    let mut per_call = Vec::new();
    let start = Instant::now();
    while per_call.len() < 5 || start.elapsed() < budget {
        let mut hc = HostCc::new(
            HostCcConfig::paper_default(),
            MsrReadModel::new(cfg.msr_read_mean, cfg.msr_read_jitter),
            cfg.f_iio_ghz,
            Rng::new(seed ^ 0x6),
        );
        let mut mba = host.rx.mba().clone();
        let t = Instant::now();
        for (now, bank, backlog) in &ticks {
            black_box(hc.on_tick_with_nic(*now, bank, *backlog, &mut mba));
        }
        per_call.push(t.elapsed().as_nanos() as f64 / ticks.len() as f64);
    }
    (min(&per_call), per_call.len())
}

/// `Flow::on_tick` of an idle flow (no data, no timers armed): the cost of
/// the per-tick poll that finds nothing to do.
fn flow_on_tick(budget: Duration) -> (f64, usize) {
    let s = Scenario::paper_baseline();
    let mut flow = Flow::new(
        FlowId(0),
        FlowConfig::for_mtu(s.mtu),
        Box::new(Dctcp::new()),
    );
    let tick = s.host.tick;
    let mut now = Nanos::ZERO;
    bench(budget, 1024, || {
        now += tick;
        flow.on_tick(now);
    })
}

/// `Flow::on_ack_sack` for a greedy flow under `kind`, plus the
/// `poll_send` calls that refill the window it opens. ACKs arrive in send
/// order one per packet time at 100 Gbps; a tenth carry ECN-Echo.
fn ack(seed: u64, budget: Duration, kind: CcKind) -> (f64, usize) {
    let s = Scenario::paper_baseline();
    let mut flow = Flow::new(
        FlowId(0),
        FlowConfig::for_mtu(s.mtu),
        make_cc(kind, s.base_rtt()),
    );
    flow.set_greedy();
    let mut rng = Rng::new(seed ^ 0x7);
    let ece: Vec<bool> = (0..TABLE).map(|_| rng.chance(0.1)).collect();
    let step = Rate::gbps(100.0).time_for_bytes(WIRE_BYTES);
    let mut inflight: VecDeque<u64> = VecDeque::new();
    let mut now = Nanos::ZERO;
    let mut k = 0;
    bench(budget, 256, || {
        now += step;
        if let Some(end) = inflight.pop_front() {
            flow.on_ack_sack(now, end, ece[k & (TABLE - 1)], 64 << 20, &[]);
            k += 1;
        }
        while let Some(p) = flow.poll_send(now) {
            if let PacketBody::Data { seq, len, .. } = p.body {
                inflight.push_back(seq + len as u64);
            }
        }
    })
}

/// `Telemetry::check_and_sample` over a registry of 32 gauges.
fn telemetry_sample(seed: u64, budget: Duration) -> (f64, usize) {
    let cfg = TelemetryConfig::default();
    let interval = cfg.interval;
    let mut t = Telemetry::new(cfg);
    let mut rng = Rng::new(seed ^ 0x8);
    for i in 0..32 {
        t.registry_mut()
            .gauge_set(&format!("bench.gauge{i:02}"), rng.f64());
    }
    let input = WatchdogInput {
        pcie_credit_limit_bytes: 1e6,
        mba_levels: MBA_LEVELS,
        ..WatchdogInput::default()
    };
    let mut now = Nanos::ZERO;
    bench(budget, 256, || {
        now += interval;
        t.check_and_sample(now, &input);
    })
}

/// `Tracer::record` into a 65 536-record ring (past its first wrap).
fn trace_record(seed: u64, budget: Duration) -> (f64, usize) {
    let mut tracer = Tracer::new(1 << 16, TraceFilter::all());
    let mut rng = Rng::new(seed ^ 0x9);
    let values: Vec<u64> = (0..TABLE).map(|_| rng.below(1 << 20)).collect();
    let mut now = Nanos::ZERO;
    let mut k = 0;
    let mut op = || {
        now += Nanos::from_nanos(100);
        let v = values[k & (TABLE - 1)];
        let ev = match k % 3 {
            0 => TraceEvent::IioOccupancy {
                cachelines: v as f64 / 64.0,
            },
            1 => TraceEvent::CcUpdate {
                flow: (v % 8) as u32,
                cwnd_bytes: v,
            },
            _ => TraceEvent::NicBacklog { bytes: v },
        };
        tracer.record(now, ev);
        k += 1;
    };
    for _ in 0..1 << 16 {
        op();
    }
    bench(budget, 1024, op)
}

/// `ChaosTimeline::resolve` of the workload's chaos preset plus
/// `ChaosDriver::new`, which compiles it into injections.
fn chaos_resolve(seed: u64, budget: Duration) -> (f64, usize) {
    bench(budget, 16, || {
        let timeline = ChaosTimeline::resolve(CHAOS_SPEC).expect("the preset resolves");
        black_box(ChaosDriver::new(timeline, seed));
    })
}

/// `MatchupReport::leaderboard` + `fingerprint` over 14 seeded cells (all
/// 7 CC kinds x hostCC off/on, the size of the smoke matchup).
fn matchup_score(seed: u64, budget: Duration) -> (f64, usize) {
    let mut rng = Rng::new(seed ^ 0xa);
    let cells = (0..2 * CcKind::ALL.len())
        .map(|i| {
            let cc = CcKind::ALL[i / 2].name().to_string();
            let hostcc = i % 2 == 1;
            CellScore {
                key: format!("cc={cc} hostcc={hostcc}"),
                context: "incast".to_string(),
                seed: rng.next_u64(),
                goodput_gbps: 100.0 * rng.f64(),
                min_flow_gbps: 10.0 * rng.f64(),
                jain: rng.f64(),
                convergence_ns: rng.chance(0.8).then(|| rng.below(5_000_000)),
                retransmits: rng.below(1000),
                timeouts: rng.below(10),
                drop_rate_pct: rng.f64(),
                rpc_p99_ns: Some(rng.below(1_000_000)),
                groups: vec![GroupOutcome {
                    group: cc.clone(),
                    flows: 8,
                    goodput_gbps: 100.0 * rng.f64(),
                    jain: rng.f64(),
                    retransmits: rng.below(1000),
                }],
                cc,
                hostcc,
            }
        })
        .collect();
    let report = MatchupReport {
        preset: "smoke".to_string(),
        budget: "standard".to_string(),
        cells,
    };
    bench(budget, 16, || {
        black_box(report.leaderboard());
        black_box(report.fingerprint());
    })
}

/// The profiler's own cost per scope: `(child, parent)` nanoseconds that
/// one empty `enter`/`exit` pair adds to its own scope and to the
/// enclosing scope, medians over five batches of 100 000 pairs.
pub fn perf_cost() -> (f64, f64) {
    const PAIRS: u64 = 100_000;
    let mut child = Vec::new();
    let mut parent = Vec::new();
    for _ in 0..5 {
        let perf = PerfHandle::new(PerfProfiler::new());
        perf.enter(PerfScope::Engine);
        for _ in 0..PAIRS {
            perf.enter(PerfScope::EvDepart);
            perf.exit();
        }
        perf.exit();
        let r = perf.report().expect("the profiler is attached");
        child.push(r.scope_ns[PerfScope::EvDepart as usize] as f64 / PAIRS as f64);
        parent.push(r.scope_ns[PerfScope::Engine as usize] as f64 / PAIRS as f64);
    }
    (median(&child), median(&parent))
}
