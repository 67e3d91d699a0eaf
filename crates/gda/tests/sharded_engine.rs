//! Sharded fleet behaviour: completion, deterministic merge, rayon
//! thread-count invariance, and backbone pressure.

use wanify_gda::{
    poisson_times_iter, Arrivals, FleetConfig, FleetEngine, RoundRobinShards, ShardedFleetEngine,
    ShardedFleetReport, Tetrium,
};
use wanify_netsim::{paper_testbed_n, Backbone, LinkModelParams, NetSim, VmType};
use wanify_workloads::{mixed_trace, trace_iter, TraceConfig};

fn shard_engine(n: usize, seed: u64, max_concurrent: usize) -> FleetEngine {
    FleetEngine::new(
        NetSim::new(paper_testbed_n(VmType::t2_medium(), n), LinkModelParams::frozen(), seed),
        Box::new(Tetrium::new()),
        Box::new(wanify::StaticIndependent::new()),
        FleetConfig { max_concurrent, regauge_every_s: 300.0, conns: None, faults: None },
    )
}

fn sharded(n_dcs: usize, n_shards: usize, trunk_mbps: f64, sync_s: f64) -> ShardedFleetEngine {
    let topo = paper_testbed_n(VmType::t2_medium(), n_dcs);
    let backbone = Backbone::continental(&topo, trunk_mbps, sync_s);
    ShardedFleetEngine::new(
        (0..n_shards).map(|_| shard_engine(n_dcs, 11, 16)).collect(),
        Box::new(RoundRobinShards::new()),
        Some(backbone),
    )
}

fn run_key(report: &ShardedFleetReport) -> Vec<(String, u64, u64, u64)> {
    report
        .fleet
        .outcomes
        .iter()
        .map(|o| {
            (
                o.report.job.clone(),
                o.report.latency_s.to_bits(),
                o.completed_s.to_bits(),
                o.admitted_s.to_bits(),
            )
        })
        .collect()
}

#[test]
fn every_job_completes_across_shards() {
    let trace = mixed_trace(&TraceConfig::new(4, 12, 5).scaled(0.5));
    let report = sharded(4, 3, 2000.0, 5.0)
        .run(&trace, &Arrivals::Closed { clients: 4, think_s: 0.0 })
        .unwrap();
    assert_eq!(report.fleet.outcomes.len(), 12);
    assert_eq!(report.shards(), 3);
    assert_eq!(report.shard_sizes(), vec![4, 4, 4], "round-robin balances the trace");
    assert!(report.backbone_syncs > 0);
    assert_eq!(report.policy, "round-robin");
    // Merged outcomes are in global completion order.
    for pair in report.fleet.outcomes.windows(2) {
        assert!(pair[0].completed_s <= pair[1].completed_s);
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let trace = mixed_trace(&TraceConfig::new(4, 10, 9).scaled(0.5));
    let run = || {
        sharded(4, 2, 1500.0, 5.0)
            .run(&trace, &Arrivals::Poisson { rate_per_s: 0.05, seed: 3 })
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(run_key(&a), run_key(&b));
    assert_eq!(a.fleet.duration_s.to_bits(), b.fleet.duration_s.to_bits());
    assert_eq!(a.backbone_syncs, b.backbone_syncs);
}

#[test]
fn thread_count_does_not_change_results() {
    let trace = mixed_trace(&TraceConfig::new(4, 10, 2).scaled(0.5));
    let run_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            sharded(4, 4, 1000.0, 5.0)
                .run(&trace, &Arrivals::Closed { clients: 3, think_s: 1.0 })
                .unwrap()
        })
    };
    let serial = run_with(1);
    let parallel = run_with(4);
    assert_eq!(run_key(&serial), run_key(&parallel));
    assert_eq!(serial.fleet.duration_s.to_bits(), parallel.fleet.duration_s.to_bits());
}

#[test]
fn poisson_arrival_process_is_independent_of_the_shard_count() {
    // The global stream is sampled once and thinned across shards, so
    // the set of (job, arrival time) pairs must not depend on how many
    // shards serve the trace — sharding must never compress load.
    let trace = mixed_trace(&TraceConfig::new(4, 14, 6).scaled(0.5));
    let arrivals = Arrivals::Poisson { rate_per_s: 0.05, seed: 9 };
    let arrivals_of = |shards: usize| {
        let report = sharded(4, shards, 1500.0, 5.0).run(&trace, &arrivals).unwrap();
        let mut v: Vec<(String, u64)> = report
            .fleet
            .outcomes
            .iter()
            .map(|o| (o.report.job.clone(), o.arrived_s.to_bits()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(arrivals_of(1), arrivals_of(4));
}

#[test]
fn closed_loop_clients_split_across_shards() {
    // 4 clients over 2 shards: 2 each, so at most 2 jobs per shard are
    // in flight and the fleet-wide concurrency matches the single
    // engine's 4, not 8.
    let trace = mixed_trace(&TraceConfig::new(4, 12, 3).scaled(0.5));
    let report = sharded(4, 2, 2000.0, 5.0)
        .run(&trace, &Arrivals::Closed { clients: 4, think_s: 0.0 })
        .unwrap();
    assert_eq!(report.fleet.outcomes.len(), 12);
    assert_eq!(report.shard_sizes(), vec![6, 6]);
    // Outcomes live once, in the merged report; round-robin puts job
    // `idx` on shard `idx % 2`.
    for shard in 0..2 {
        // With 2 clients per shard, no more than 2 of a shard's jobs can
        // ever have arrived before the first completion.
        let at_zero = report
            .fleet
            .outcomes
            .iter()
            .filter(|o| o.job_idx % 2 == shard && o.arrived_s == 0.0)
            .count();
        assert!(at_zero <= 2, "shard {shard} admitted {at_zero} jobs at t=0 with 2 clients");
    }
}

/// Every outcome's `job_idx` is its trace index — `mixed_trace` tags job
/// `i`'s name with a trailing `-<i>` — and each index appears once.
fn assert_job_idx_is_the_trace_index(report: &ShardedFleetReport, jobs: usize) {
    let mut seen: Vec<usize> = report.fleet.outcomes.iter().map(|o| o.job_idx).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..jobs).collect::<Vec<_>>());
    for o in &report.fleet.outcomes {
        let (_, tag) = o.report.job.rsplit_once('-').expect("trace names end in -<idx>");
        assert_eq!(tag.parse::<usize>().unwrap(), o.job_idx, "job {}", o.report.job);
    }
}

#[test]
fn job_idx_is_the_trace_index_on_every_sharded_path() {
    let cfg = TraceConfig::new(4, 12, 5).scaled(0.5);
    let trace = mixed_trace(&cfg);
    for arrivals in [
        Arrivals::Poisson { rate_per_s: 0.05, seed: 3 },
        Arrivals::Closed { clients: 4, think_s: 0.0 },
    ] {
        let report = sharded(4, 2, 2000.0, 5.0).run(&trace, &arrivals).unwrap();
        assert_job_idx_is_the_trace_index(&report, 12);
    }
    let times = poisson_times_iter(0.05, 3).unwrap();
    let streamed = sharded(4, 2, 2000.0, 5.0)
        .run_stream(12, Box::new(times.zip(trace_iter(&cfg))), usize::MAX)
        .unwrap();
    assert_job_idx_is_the_trace_index(&streamed, 12);
}

#[test]
fn tight_backbone_slows_cross_group_tenants() {
    // Big enough shuffles to outlive the first sync window, and a 2 s
    // exchange cadence so the 40 Mbps trunks actually get reserved.
    let trace = mixed_trace(&TraceConfig::new(4, 8, 7).scaled(4.0));
    let arrivals = Arrivals::Closed { clients: 4, think_s: 0.0 };
    let wide = sharded(4, 2, f64::INFINITY, 2.0).run(&trace, &arrivals).unwrap();
    let narrow = sharded(4, 2, 40.0, 2.0).run(&trace, &arrivals).unwrap();
    assert!(
        narrow.fleet.makespan().mean > wide.fleet.makespan().mean,
        "a 40 Mbps backbone must hurt: narrow {:.0}s vs wide {:.0}s",
        narrow.fleet.makespan().mean,
        wide.fleet.makespan().mean
    );
}

#[test]
fn backbone_group_map_must_cover_the_topology() {
    let trace = mixed_trace(&TraceConfig::new(4, 2, 1));
    let bad = Backbone::uniform(vec![0, 1], 100.0, 10.0); // 2 DCs, topo has 4
    let err = ShardedFleetEngine::new(
        vec![shard_engine(4, 1, 4), shard_engine(4, 1, 4)],
        Box::new(RoundRobinShards::new()),
        Some(bad),
    )
    .run(&trace, &Arrivals::Closed { clients: 1, think_s: 0.0 })
    .unwrap_err();
    assert!(matches!(err, wanify::WanifyError::DimensionMismatch { expected: 4, got: 2 }));
}

#[test]
fn empty_shards_are_harmless() {
    // 5 shards, 3 jobs: two shards serve nothing.
    let trace = mixed_trace(&TraceConfig::new(4, 3, 8).scaled(0.5));
    let topo = paper_testbed_n(VmType::t2_medium(), 4);
    let report = ShardedFleetEngine::new(
        (0..5).map(|_| shard_engine(4, 2, 8)).collect(),
        Box::new(RoundRobinShards::new()),
        Some(Backbone::continental(&topo, 2000.0, 20.0)),
    )
    .run(&trace, &Arrivals::Closed { clients: 2, think_s: 0.0 })
    .unwrap();
    assert_eq!(report.fleet.outcomes.len(), 3);
    assert_eq!(report.shard_sizes(), vec![1, 1, 1, 0, 0]);
}
