//! Sharded-vs-single parity and determinism properties.
//!
//! * A **1-shard** [`ShardedFleetEngine`] must reproduce
//!   [`FleetEngine::run`] **bit for bit** across random topologies,
//!   traces, arrival processes and schedulers: a lone shard owns every
//!   backbone trunk, so no sync deadlines are imposed and the partition /
//!   merge machinery must be an exact identity.
//! * **Multi-shard** runs must be bit-identical across repeated runs and
//!   across rayon thread counts — the wall-clock scale-out must never
//!   leak into the simulated results.

use proptest::prelude::*;
use wanify_gda::{
    Arrivals, FleetConfig, FleetEngine, FleetReport, RoundRobinShards, ShardedFleetEngine, Tetrium,
    VanillaSpark,
};
use wanify_netsim::{paper_testbed_n, Backbone, LinkModelParams, NetSim, VmType};
use wanify_workloads::{mixed_trace, TraceConfig};

fn engine(n: usize, seed: u64, max_concurrent: usize, sched_id: usize) -> FleetEngine {
    let sim = NetSim::new(paper_testbed_n(VmType::t2_medium(), n), LinkModelParams::frozen(), seed);
    let scheduler: Box<dyn wanify_gda::Scheduler> = match sched_id {
        0 => Box::new(VanillaSpark::new()),
        _ => Box::new(Tetrium::new()),
    };
    FleetEngine::new(
        sim,
        scheduler,
        Box::new(wanify::StaticIndependent::new()),
        FleetConfig {
            max_concurrent,
            regauge_every_s: 120.0,
            conns: None,
            faults: None,
            ..FleetConfig::default()
        },
    )
}

fn assert_reports_bit_identical(a: &FleetReport, b: &FleetReport) {
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.report.job, y.report.job);
        assert_eq!(x.report.latency_s.to_bits(), y.report.latency_s.to_bits(), "latency");
        assert_eq!(x.report.min_bw_mbps.to_bits(), y.report.min_bw_mbps.to_bits(), "min bw");
        assert_eq!(x.report.shuffle_gb.to_bits(), y.report.shuffle_gb.to_bits(), "shuffle");
        assert_eq!(x.arrived_s.to_bits(), y.arrived_s.to_bits(), "arrived");
        assert_eq!(x.admitted_s.to_bits(), y.admitted_s.to_bits(), "admitted");
        assert_eq!(x.completed_s.to_bits(), y.completed_s.to_bits(), "completed");
        for (e, f) in x.report.egress_gb.iter().zip(&y.report.egress_gb) {
            assert_eq!(e.to_bits(), f.to_bits(), "egress");
        }
    }
    assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits(), "duration");
    assert_eq!(a.gauges, b.gauges, "gauges");
    assert_eq!(a.scheduler, b.scheduler);
    assert_eq!(a.belief, b.belief);
    let (pa, pb) = (a.makespan(), b.makespan());
    assert_eq!(pa.p50.to_bits(), pb.p50.to_bits());
    assert_eq!(pa.p99.to_bits(), pb.p99.to_bits());
}

#[allow(clippy::too_many_arguments)]
fn check_one_shard_parity(
    n: usize,
    jobs: usize,
    trace_seed: u64,
    sim_seed: u64,
    max_concurrent: usize,
    sched_id: usize,
    poisson: bool,
    with_backbone: bool,
) {
    let trace = mixed_trace(&TraceConfig::new(n, jobs, trace_seed).scaled(0.5));
    let arrivals = if poisson {
        Arrivals::Poisson { rate_per_s: 0.05, seed: trace_seed ^ 0xA1 }
    } else {
        Arrivals::Closed { clients: 1 + (jobs % 3), think_s: 0.5 }
    };

    let single = engine(n, sim_seed, max_concurrent, sched_id).run(&trace, &arrivals).unwrap();

    let topo = paper_testbed_n(VmType::t2_medium(), n);
    let backbone = with_backbone.then(|| Backbone::continental(&topo, 500.0, 10.0));
    let sharded = ShardedFleetEngine::new(
        vec![engine(n, sim_seed, max_concurrent, sched_id)],
        Box::new(RoundRobinShards::new()),
        backbone,
    )
    .run(&trace, &arrivals)
    .unwrap();

    assert_eq!(sharded.shards(), 1);
    assert_eq!(sharded.backbone_syncs, 0, "a lone shard never epoch-exchanges");
    assert_reports_bit_identical(&sharded.fleet, &single);
    // The shard's own report is accounting-only (outcomes live once, in
    // the merged report): its counts and sums must still be the single
    // engine's.
    let shard = &sharded.per_shard[0];
    assert_eq!(shard.completed(), single.completed());
    assert_eq!(shard.failed_jobs(), single.failed_jobs());
    assert_eq!(shard.gauges, single.gauges);
    assert_eq!(shard.total_egress_gb().to_bits(), single.total_egress_gb().to_bits());
    assert_eq!(shard.total_cost_usd().to_bits(), single.total_cost_usd().to_bits());
    assert_eq!(shard.network_cost_usd().to_bits(), single.network_cost_usd().to_bits());
}

proptest! {
    #[test]
    fn one_shard_is_bit_identical_to_the_single_engine_fleet(
        n in 2usize..6,
        jobs in 1usize..7,
        trace_seed in 0u64..500,
        sim_seed in 0u64..100,
        max_concurrent in 1usize..5,
        sched_id in 0usize..2,
        poisson_bit in 0usize..2,
        backbone_bit in 0usize..2,
    ) {
        check_one_shard_parity(
            n,
            jobs,
            trace_seed,
            sim_seed,
            max_concurrent,
            sched_id,
            poisson_bit == 1,
            backbone_bit == 1,
        );
    }

    #[test]
    fn multi_shard_runs_are_bit_identical_across_runs_and_thread_counts(
        n in 3usize..6,
        jobs in 2usize..9,
        shards in 2usize..5,
        trace_seed in 0u64..200,
        trunk in 100.0f64..2000.0,
    ) {
        let trace = mixed_trace(&TraceConfig::new(n, jobs, trace_seed).scaled(0.5));
        let topo = paper_testbed_n(VmType::t2_medium(), n);
        let arrivals = Arrivals::Closed { clients: 2, think_s: 0.0 };
        let build = || ShardedFleetEngine::new(
            (0..shards).map(|_| engine(n, 7, 8, 1)).collect(),
            Box::new(RoundRobinShards::new()),
            Some(Backbone::continental(&topo, trunk, 5.0)),
        );
        let run_with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| build().run(&trace, &arrivals).unwrap())
        };
        let a = run_with(1);
        let b = run_with(1);
        let c = run_with(4);
        assert_reports_bit_identical(&a.fleet, &b.fleet);
        assert_reports_bit_identical(&a.fleet, &c.fleet);
        prop_assert_eq!(a.backbone_syncs, c.backbone_syncs);
        prop_assert_eq!(a.fleet.outcomes.len(), jobs);
    }
}
