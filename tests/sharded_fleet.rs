//! Sharded-fleet acceptance: the 8-DC region-tagged trace served by a
//! 4-shard fleet completes deterministically — bit-identical across
//! repeated runs and rayon thread counts — and a 1-shard fleet matches
//! the single-engine `FleetEngine` exactly.
//!
//! CI additionally runs this under `RAYON_NUM_THREADS=1` and `=4`, and
//! `bench sharded` re-runs every arm inside 1- and 4-thread pools, so
//! thread-count invariance is enforced through the environment (here)
//! and through installed pools (there).

use wanify_gda::{
    Arrivals, FleetConfig, FleetEngine, FleetReport, JobProfile, RoundRobinShards,
    ShardedFleetEngine, ShardedFleetReport, Tetrium,
};
use wanify_netsim::{paper_testbed_n, Backbone, LinkModelParams, NetSim, VmType};
use wanify_workloads::{regional_mixed_trace, TraceConfig};

const N_DCS: usize = 8;
const N_JOBS: usize = 48;

fn engine(max_concurrent: usize) -> FleetEngine {
    FleetEngine::new(
        NetSim::new(paper_testbed_n(VmType::t2_medium(), N_DCS), LinkModelParams::frozen(), 5),
        Box::new(Tetrium::new()),
        Box::new(wanify::StaticIndependent::new()),
        FleetConfig { max_concurrent, regauge_every_s: 300.0, conns: None, faults: None },
    )
}

fn trace() -> Vec<JobProfile> {
    let backbone =
        Backbone::continental(&paper_testbed_n(VmType::t2_medium(), N_DCS), 4000.0, 30.0);
    regional_mixed_trace(&TraceConfig::new(N_DCS, N_JOBS, 21).scaled(0.25), backbone.groups())
}

fn run_sharded(jobs: &[JobProfile], shards: usize) -> ShardedFleetReport {
    let backbone =
        Backbone::continental(&paper_testbed_n(VmType::t2_medium(), N_DCS), 4000.0, 30.0);
    ShardedFleetEngine::new(
        (0..shards).map(|_| engine(N_JOBS)).collect(),
        Box::new(RoundRobinShards::new()),
        Some(backbone),
    )
    .run(jobs, &Arrivals::Closed { clients: N_JOBS, think_s: 0.0 })
    .expect("trace matches the 8-DC testbed")
}

fn assert_bit_identical(a: &FleetReport, b: &FleetReport) {
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.report.job, y.report.job);
        assert_eq!(x.report.latency_s.to_bits(), y.report.latency_s.to_bits());
        assert_eq!(x.arrived_s.to_bits(), y.arrived_s.to_bits());
        assert_eq!(x.admitted_s.to_bits(), y.admitted_s.to_bits());
        assert_eq!(x.completed_s.to_bits(), y.completed_s.to_bits());
    }
    assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
    assert_eq!(a.gauges, b.gauges);
}

#[test]
fn four_shard_fleet_is_deterministic_at_any_thread_count() {
    let jobs = trace();

    let a = run_sharded(&jobs, 4);
    assert_eq!(a.fleet.outcomes.len(), N_JOBS, "every query must complete");
    assert_eq!(a.shards(), 4);
    assert_eq!(a.shard_sizes(), vec![12, 12, 12, 12], "round-robin balances 48 jobs 4 ways");
    assert!(a.fleet.duration_s > 0.0);

    // Bit-identical on repetition (ambient thread count).
    let b = run_sharded(&jobs, 4);
    assert_bit_identical(&a.fleet, &b.fleet);
    assert_eq!(a.backbone_syncs, b.backbone_syncs);

    // Bit-identical under explicit 1- and 4-thread pools.
    for threads in [1usize, 4] {
        let pooled = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool construction")
            .install(|| run_sharded(&jobs, 4));
        assert_bit_identical(&a.fleet, &pooled.fleet);
    }
}

#[test]
fn one_shard_fleet_matches_the_single_engine_exactly() {
    let jobs = trace();
    let single = engine(N_JOBS)
        .run(&jobs, &Arrivals::Closed { clients: N_JOBS, think_s: 0.0 })
        .expect("trace matches the 8-DC testbed");
    let sharded = run_sharded(&jobs, 1);
    assert_eq!(sharded.backbone_syncs, 0, "a lone shard never epoch-exchanges");
    assert_bit_identical(&sharded.fleet, &single);
}

#[test]
fn sharding_decomposes_contention() {
    // 48 tenants on one WAN vs 4 shards of 12: per-shard contention must
    // drop, so the sharded fleet's median makespan is strictly better.
    let jobs = trace();
    let single = engine(N_JOBS)
        .run(&jobs, &Arrivals::Closed { clients: N_JOBS, think_s: 0.0 })
        .expect("trace matches the 8-DC testbed");
    let sharded = run_sharded(&jobs, 4);
    assert!(
        sharded.fleet.makespan().p50 < single.makespan().p50,
        "sharded p50 {:.0}s vs single-engine p50 {:.0}s",
        sharded.fleet.makespan().p50,
        single.makespan().p50
    );
}
