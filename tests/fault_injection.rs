//! Fault-injection acceptance: a full-DC outage in the middle of a
//! contended 8-DC fleet must never deadlock or panic — affected queries
//! either complete via retry + re-placement or are reported failed with
//! fault-attributed counters — and the committed scenario suite's
//! invariants must hold.

use wanify::Pregauged;
use wanify_gda::{
    Arrivals, FaultPolicy, FleetConfig, FleetEngine, FleetReport, JobProfile, RoundRobinShards,
    ShardedFleetEngine, Tetrium,
};
use wanify_netsim::{
    paper_testbed_n, Backbone, BwMatrix, DcId, FaultSchedule, LinkModelParams, NetSim, VmType,
};
use wanify_workloads::{mixed_trace, TraceConfig};

const N_DCS: usize = 8;
const N_JOBS: usize = 20;

fn faulted_engine(faults: &FaultSchedule, policy: FaultPolicy, seed: u64) -> FleetEngine {
    let mut sim =
        NetSim::new(paper_testbed_n(VmType::t2_medium(), N_DCS), LinkModelParams::frozen(), seed);
    sim.set_fault_schedule(faults.clone());
    FleetEngine::new(
        sim,
        Box::new(Tetrium::new()),
        Box::new(Pregauged::new(BwMatrix::filled(N_DCS, 300.0))),
        FleetConfig {
            max_concurrent: N_JOBS,
            regauge_every_s: f64::INFINITY,
            conns: None,
            faults: Some(policy),
        },
    )
}

fn trace() -> Vec<JobProfile> {
    mixed_trace(&TraceConfig::new(N_DCS, N_JOBS, 31).scaled(0.25))
}

#[test]
fn full_dc_outage_mid_fleet_recovers_via_retry_and_replacement() {
    // Two DCs go dark while all 20 queries are in flight, then heal.
    let faults = FaultSchedule::new().dc_outage(DcId(3), 3.0, 40.0).dc_outage(DcId(6), 10.0, 35.0);
    let policy = FaultPolicy { stall_timeout_s: 5.0, max_retries: 6, backoff_base_s: 5.0 };
    let report = faulted_engine(&faults, policy, 17)
        .run(&trace(), &Arrivals::Closed { clients: N_JOBS, think_s: 0.0 })
        .expect("a healing outage must not error the fleet");

    assert_eq!(report.outcomes.len(), N_JOBS, "every query is accounted for");
    assert_eq!(report.failed_jobs(), 0, "healed outages must not fail jobs: {:?}", report.faults);
    assert!(report.faults.retries >= 1, "{:?}", report.faults);
    assert!(report.faults.replacements >= 1, "{:?}", report.faults);
    assert!(report.faults.stalled_flows >= 1, "{:?}", report.faults);
    assert!(report.faults.degraded_s > 0.0, "{:?}", report.faults);
}

#[test]
fn permanent_outage_fails_affected_queries_with_accounting() {
    let faults = FaultSchedule::new().at(0.0, wanify_netsim::FaultKind::DcDown(DcId(2)));
    let policy = FaultPolicy { stall_timeout_s: 4.0, max_retries: 2, backoff_base_s: 4.0 };
    let report = faulted_engine(&faults, policy, 23)
        .run(&trace(), &Arrivals::Closed { clients: N_JOBS, think_s: 0.0 })
        .expect("a permanent outage must terminate cleanly, not wedge");

    assert_eq!(report.outcomes.len(), N_JOBS, "failed queries still produce outcomes");
    assert!(report.failed_jobs() >= 1, "some shuffle must need the dead DC");
    assert_eq!(report.failed_jobs() as u64, report.faults.failed_jobs);
    assert!(report.faults.retries >= 2, "{:?}", report.faults);
    for o in report.outcomes.iter().filter(|o| o.failed) {
        assert!(o.report.latency_s > 0.0, "partial accounting carries elapsed time");
        assert!(o.completed_s >= o.admitted_s);
    }
}

#[test]
fn faulted_sharded_fleet_is_deterministic_and_accounted() {
    let faults = FaultSchedule::new().dc_outage(DcId(3), 3.0, 40.0);
    let policy = FaultPolicy { stall_timeout_s: 5.0, max_retries: 6, backoff_base_s: 5.0 };
    let topo = paper_testbed_n(VmType::t2_medium(), N_DCS);
    let run = || {
        ShardedFleetEngine::new(
            (0..4).map(|_| faulted_engine(&faults, policy, 17)).collect(),
            Box::new(RoundRobinShards::new()),
            Some(Backbone::continental(&topo, 4000.0, 30.0)),
        )
        .run(&trace(), &Arrivals::Closed { clients: N_JOBS, think_s: 0.0 })
        .expect("faulted sharded fleet runs")
    };
    let digest = |r: &FleetReport| -> Vec<(u64, u64, bool)> {
        r.outcomes
            .iter()
            .map(|o| (o.report.latency_s.to_bits(), o.completed_s.to_bits(), o.failed))
            .collect()
    };
    let a = run();
    let b = run();
    assert_eq!(a.fleet.outcomes.len(), N_JOBS);
    assert_eq!(digest(&a.fleet), digest(&b.fleet), "sharded faulted runs must be bit-identical");
    assert_eq!(a.fleet.faults, b.fleet.faults);
    assert!(a.fleet.faults.degraded_s > 0.0);
}

#[test]
fn committed_scenario_suite_passes_all_invariants() {
    for spec in wanify_scenarios::all() {
        let outcome = wanify_scenarios::run_scenario(&spec);
        assert!(
            outcome.passed(),
            "scenario {} failed: {:?}",
            spec.name,
            outcome.checks.iter().filter(|c| !c.pass).collect::<Vec<_>>()
        );
    }
}
