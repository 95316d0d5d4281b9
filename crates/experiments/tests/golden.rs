//! Golden fingerprints of the no-topology fabric path.
//!
//! The paper's testbed (senders behind one ToR switch, no attached
//! topology graph) is what every paper figure and most sweep and chaos
//! presets run, so its results are pinned here, in tier-1. A refactor of
//! the fabric, the forwarder or the chaos wiring must leave these
//! constants unchanged; a change to them means simulated behaviour moved
//! and every published number with it.

use hostcc_experiments::figures::Budget;
use hostcc_experiments::sweep::CellMetrics;
use hostcc_experiments::{Scenario, Simulation};
use hostcc_flowscope::{FlowScope, FlowscopeHandle};

/// `CellMetrics::fingerprint()` of the four `repro` scenario targets at
/// `Budget::quick()`.
const SCENARIOS: [(&str, u64); 4] = [
    ("baseline", 0xb00c_5c17_f58e_765d),
    ("congested", 0xbde1_ebe2_a235_ce7a),
    ("hostcc", 0x7b62_d2cc_9b85_8025),
    ("incast", 0xd629_6843_d5f4_a1d1),
];

/// The quick `flap` chaos run (`repro chaos --quick --preset flap`):
/// per arm, hostCC off then on, the telemetry summary fingerprint and the
/// flow-ledger fingerprint (which folds in the ledger summary and every
/// flow row).
const FLAP_ARMS: [(&str, u64, u64); 2] = [
    ("off", 0xa8aa_61d8_84b7_c5a5, 0xa0de_0139_4f94_55dc),
    ("on", 0xbccb_c2fb_109c_df90, 0xa7bb_4d64_073b_565a),
];

fn scenario(name: &str) -> Scenario {
    match name {
        "baseline" => Scenario::paper_baseline(),
        "congested" => Scenario::with_congestion(3.0),
        "hostcc" => Scenario::with_congestion(3.0).enable_hostcc(),
        "incast" => Scenario::incast(8, 3.0).enable_hostcc(),
        _ => unreachable!("unknown scenario {name}"),
    }
}

#[test]
fn no_topology_scenarios_match_their_golden_fingerprints() {
    let budget = Budget::quick();
    let got: Vec<(&str, u64)> = SCENARIOS
        .iter()
        .map(|&(name, _)| {
            let r = Simulation::new(budget.apply(scenario(name))).run();
            (name, CellMetrics::from_result(&r).fingerprint())
        })
        .collect();
    assert_eq!(got, SCENARIOS, "got {got:#x?}");
}

#[test]
fn flap_chaos_arms_match_their_golden_fingerprints() {
    // The arms `resilience::run_chaos` builds: RPC workload on the
    // congested host, telemetry on, one flow ledger per arm.
    let budget = Budget::quick();
    let mut base = budget.apply(Scenario::with_congestion(3.0).with_rpc(budget.rpc_clients));
    base.record = true;
    base.chaos = Some("flap".to_string());
    let got: Vec<(&str, u64, u64)> = [("off", base.clone()), ("on", base.enable_hostcc())]
        .into_iter()
        .map(|(arm, s)| {
            let mut sim = Simulation::new(s);
            sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
            let r = sim.run();
            let telemetry = r.telemetry.expect("record=true attaches telemetry");
            let flowscope = r.flowscope.expect("the recorder was attached");
            (
                arm,
                telemetry.summary.fingerprint(),
                flowscope.fingerprint(),
            )
        })
        .collect();
    assert_eq!(got, FLAP_ARMS, "got {got:#x?}");
}
