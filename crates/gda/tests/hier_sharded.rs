//! Hierarchical backbone coupling and window-streamed sharded serving:
//! completion, determinism across repeats and thread counts, coupling
//! pressure, the tiers' exchange cadence, equivalence between the
//! materialized and streamed drivers, and the streamed driver's outcome
//! cap: exact totals and per-job state bounded by one window.

use std::sync::Arc;

use wanify::Pregauged;
use wanify_gda::{
    poisson_times_iter, Arrivals, FleetConfig, FleetEngine, FleetReport, JobProfile,
    RoundRobinShards, ShardedFleetEngine, ShardedFleetReport, Tetrium,
};
use wanify_netsim::{
    paper_testbed_n, Backbone, BackboneHierarchy, BwMatrix, LinkModelParams, NetSim, VmType,
};
use wanify_workloads::{mixed_trace, trace_iter, TraceConfig};

const N_DCS: usize = 8;

fn shard_engine(seed: u64, max_concurrent: usize) -> FleetEngine {
    FleetEngine::new(
        NetSim::new(paper_testbed_n(VmType::t2_medium(), N_DCS), LinkModelParams::frozen(), seed),
        Box::new(Tetrium::new()),
        Box::new(wanify::StaticIndependent::new()),
        FleetConfig { max_concurrent, regauge_every_s: 300.0, ..FleetConfig::default() },
    )
}

/// 8 one-DC regions under a 2-tier coupling: regional trunks exchanged
/// every 2 s, continental trunks every 6 s (ratio 3).
fn hierarchy(regional_mbps: f64, continental_mbps: f64) -> BackboneHierarchy {
    let topo = paper_testbed_n(VmType::t2_medium(), N_DCS);
    BackboneHierarchy::regional_continental(&topo, regional_mbps, continental_mbps, 2.0, 6.0)
}

fn hier_sharded(n_shards: usize, regional_mbps: f64, continental_mbps: f64) -> ShardedFleetEngine {
    ShardedFleetEngine::new(
        (0..n_shards).map(|_| shard_engine(11, 16)).collect(),
        Box::new(RoundRobinShards::new()),
        None,
    )
    .with_hierarchy(hierarchy(regional_mbps, continental_mbps))
}

/// 3 shards on a pregauged belief: admission gauges take no simulated
/// time, so no shard overshoots a window edge.
fn pregauged_sharded(flat: Option<Backbone>) -> ShardedFleetEngine {
    let engine = || {
        FleetEngine::new(
            NetSim::new(paper_testbed_n(VmType::t2_medium(), N_DCS), LinkModelParams::frozen(), 11),
            Box::new(Tetrium::new()),
            Box::new(Pregauged::new(BwMatrix::filled(N_DCS, 300.0))),
            FleetConfig { max_concurrent: 16, ..FleetConfig::default() },
        )
    };
    ShardedFleetEngine::new(
        (0..3).map(|_| engine()).collect(),
        Box::new(RoundRobinShards::new()),
        flat,
    )
}

/// The first `n` arrival times of the seeded Poisson stream.
fn poisson_times(n: usize, rate_per_s: f64, seed: u64) -> Vec<f64> {
    poisson_times_iter(rate_per_s, seed).unwrap().take(n).collect()
}

/// `cfg`'s trace, streamed lazily behind the seeded Poisson times.
fn stream(
    cfg: &TraceConfig,
    rate_per_s: f64,
    seed: u64,
) -> Box<dyn Iterator<Item = (f64, JobProfile)> + Send> {
    Box::new(poisson_times_iter(rate_per_s, seed).unwrap().zip(trace_iter(cfg)))
}

fn run_key(report: &ShardedFleetReport) -> Vec<(Arc<str>, u64, u64, u64)> {
    fleet_key(&report.fleet)
}

fn fleet_key(report: &FleetReport) -> Vec<(Arc<str>, u64, u64, u64)> {
    report
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
fn hierarchical_fleet_completes_and_exchanges_both_tiers() {
    let trace = mixed_trace(&TraceConfig::new(N_DCS, 12, 5).scaled(0.5));
    let report = hier_sharded(3, 3000.0, 6000.0)
        .run(&trace, &Arrivals::Closed { clients: 4, think_s: 0.0 })
        .unwrap();
    assert_eq!(report.fleet.completed(), 12);
    assert_eq!(report.shards(), 3);
    // The fine tier exchanges every window, the coarse tier every third:
    // more exchanges than windows, fewer than two per window.
    assert!(report.backbone_syncs > 0);
    for pair in report.fleet.outcomes.windows(2) {
        assert!(pair[0].completed_s <= pair[1].completed_s);
    }
}

#[test]
fn every_tier_exchanges_at_its_cadence() {
    // A closed loop starts at 0 s, so a run that never overshoots a
    // window edge spans w = max(1, ⌈duration / 2 s⌉) tier-1 windows.
    let trace = mixed_trace(&TraceConfig::new(N_DCS, 12, 5).scaled(0.5));
    let arrivals = Arrivals::Closed { clients: 4, think_s: 0.0 };
    let windows = |r: &ShardedFleetReport| ((r.fleet.duration_s / 2.0).ceil() as u64).max(1);

    let hier = pregauged_sharded(None)
        .with_hierarchy(hierarchy(3000.0, 6000.0))
        .run(&trace, &arrivals)
        .unwrap();
    let w = windows(&hier);
    assert!(w > 3, "the run must span several tier-2 windows, got {w}");
    assert_eq!(hier.backbone_syncs, w + w.div_ceil(3), "tier 1 every window, tier 2 every third");

    // Narrow regional trunks, so a flat backbone left in place would show.
    let narrow = || Backbone::regional(&paper_testbed_n(VmType::t2_medium(), N_DCS), 50.0, 2.0);
    let flat = pregauged_sharded(Some(narrow())).run(&trace, &arrivals).unwrap();
    assert_eq!(flat.backbone_syncs, windows(&flat), "a flat backbone exchanges once a window");
    assert_ne!(run_key(&flat), run_key(&hier), "50 Mbps trunks must bind");

    // A hierarchy replaces the flat backbone outright.
    let replaced = pregauged_sharded(Some(narrow()))
        .with_hierarchy(hierarchy(3000.0, 6000.0))
        .run(&trace, &arrivals)
        .unwrap();
    assert_eq!(run_key(&replaced), run_key(&hier));
    assert_eq!(replaced.backbone_syncs, hier.backbone_syncs);
}

#[test]
fn hierarchical_runs_are_bit_identical_across_repeats_and_threads() {
    let trace = mixed_trace(&TraceConfig::new(N_DCS, 10, 9).scaled(0.5));
    let run_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            hier_sharded(4, 2500.0, 5000.0)
                .run(&trace, &Arrivals::Poisson { rate_per_s: 0.05, seed: 3 })
                .unwrap()
        })
    };
    let a = run_with(1);
    let b = run_with(1);
    let c = run_with(4);
    assert_eq!(run_key(&a), run_key(&b), "repeats must be bit-identical");
    assert_eq!(run_key(&a), run_key(&c), "thread count must not change results");
    assert_eq!(a.fleet.duration_s.to_bits(), c.fleet.duration_s.to_bits());
    assert_eq!(a.backbone_syncs, c.backbone_syncs);
}

#[test]
fn tight_continental_tier_slows_the_fleet() {
    // Shuffles big enough to outlive several sync windows. The regional
    // tier is wide in both runs; only the continental trunks narrow.
    let trace = mixed_trace(&TraceConfig::new(N_DCS, 8, 7).scaled(2.0));
    let arrivals = Arrivals::Closed { clients: 4, think_s: 0.0 };
    let wide = hier_sharded(2, f64::INFINITY, f64::INFINITY).run(&trace, &arrivals).unwrap();
    let narrow = hier_sharded(2, f64::INFINITY, 50.0).run(&trace, &arrivals).unwrap();
    assert!(
        narrow.fleet.makespan().mean > wide.fleet.makespan().mean,
        "a 50 Mbps continental tier must hurt: narrow {:.0}s vs wide {:.0}s",
        narrow.fleet.makespan().mean,
        wide.fleet.makespan().mean
    );
}

#[test]
fn streamed_sharded_run_matches_materialized() {
    // Same trace, same thinned Poisson schedule, same hierarchy: the
    // window-streamed driver must reproduce the materialized one.
    let cfg = TraceConfig::new(N_DCS, 16, 6).scaled(0.5);
    let materialized = hier_sharded(3, 3000.0, 6000.0)
        .run(&mixed_trace(&cfg), &Arrivals::Scheduled { times: poisson_times(16, 0.08, 21) })
        .unwrap();
    let streamed =
        hier_sharded(3, 3000.0, 6000.0).run_stream(16, stream(&cfg, 0.08, 21), usize::MAX).unwrap();

    assert_eq!(run_key(&materialized), run_key(&streamed));
    assert_eq!(materialized.fleet.duration_s.to_bits(), streamed.fleet.duration_s.to_bits());
    assert_eq!(materialized.fleet.gauges, streamed.fleet.gauges);
    assert_eq!(materialized.backbone_syncs, streamed.backbone_syncs);
    assert!(!streamed.fleet.sketched(), "uncapped streamed run stays exact");
}

#[test]
fn one_shard_stream_is_bit_identical_to_the_single_engine() {
    // An uncoupled lone shard is fed the whole stream in one unbounded
    // window, so it must reproduce the single engine's Poisson run.
    let cfg = TraceConfig::new(4, 24, 5).scaled(0.5);
    let engine = || {
        FleetEngine::new(
            NetSim::new(paper_testbed_n(VmType::t2_medium(), 4), LinkModelParams::frozen(), 7),
            Box::new(Tetrium::new()),
            Box::new(wanify::StaticIndependent::new()),
            FleetConfig { max_concurrent: 8, regauge_every_s: 300.0, ..FleetConfig::default() },
        )
    };
    let single = engine()
        .run(&mixed_trace(&cfg), &Arrivals::Poisson { rate_per_s: 0.08, seed: 17 })
        .unwrap();
    let streamed = ShardedFleetEngine::new(vec![engine()], Box::new(RoundRobinShards::new()), None)
        .run_stream(24, stream(&cfg, 0.08, 17), usize::MAX)
        .unwrap();
    assert_eq!(fleet_key(&single), run_key(&streamed));
    assert_eq!(single.duration_s.to_bits(), streamed.fleet.duration_s.to_bits());
    assert_eq!(single.gauges, streamed.fleet.gauges);
    assert!(!streamed.fleet.sketched());
    assert_eq!(streamed.fleet.completed(), 24);
}

#[test]
fn streamed_sharded_run_caps_outcomes_without_losing_totals() {
    let cfg = TraceConfig::new(N_DCS, 24, 6).scaled(0.5);
    let exact = hier_sharded(3, 3000.0, 6000.0)
        .run(&mixed_trace(&cfg), &Arrivals::Scheduled { times: poisson_times(24, 0.08, 21) })
        .unwrap();
    let capped = hier_sharded(3, 3000.0, 6000.0).run_stream(24, stream(&cfg, 0.08, 21), 6).unwrap();

    assert!(capped.fleet.sketched());
    assert_eq!(capped.fleet.outcomes.len(), 6);
    assert_eq!(capped.fleet.completed(), 24);
    assert_eq!(capped.shard_sizes().iter().sum::<usize>(), 24);
    assert_eq!(capped.fleet.failed_jobs(), exact.fleet.failed_jobs());
    assert_eq!(
        capped.fleet.total_egress_gb().to_bits(),
        exact.fleet.total_egress_gb().to_bits(),
        "sums absorb in the same global order"
    );
    assert_eq!(capped.fleet.total_cost_usd().to_bits(), exact.fleet.total_cost_usd().to_bits());
    assert_eq!(capped.fleet.duration_s.to_bits(), exact.fleet.duration_s.to_bits());
}

#[test]
fn streamed_peak_tracked_stays_bounded_by_the_cap() {
    let cfg = TraceConfig::new(N_DCS, 40, 5).scaled(0.5);
    // Materialized: every shard holds its whole slice of the trace, and
    // the driver every outcome.
    let materialized = hier_sharded(3, 3000.0, 6000.0)
        .run(&mixed_trace(&cfg), &Arrivals::Scheduled { times: poisson_times(40, 0.08, 17) })
        .unwrap();
    assert!(materialized.peak_tracked >= 40);

    // Streamed + capped: one window's arrivals and completions per shard
    // plus at most `retain_outcomes` outcomes — far below the trace.
    let streamed =
        hier_sharded(3, 3000.0, 6000.0).run_stream(40, stream(&cfg, 0.08, 17), 8).unwrap();
    assert!(
        streamed.peak_tracked < materialized.peak_tracked,
        "streamed peak {} must undercut materialized peak {}",
        streamed.peak_tracked,
        materialized.peak_tracked
    );
    assert!(streamed.peak_tracked <= 8 + 40, "peak {}", streamed.peak_tracked);
}

#[test]
fn streamed_sharded_run_is_thread_count_invariant() {
    let cfg = TraceConfig::new(N_DCS, 12, 2).scaled(0.5);
    let run_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            hier_sharded(4, 2500.0, 5000.0).run_stream(12, stream(&cfg, 0.08, 4), 4).unwrap()
        })
    };
    let serial = run_with(1);
    let parallel = run_with(4);
    assert_eq!(run_key(&serial), run_key(&parallel));
    assert_eq!(serial.fleet.duration_s.to_bits(), parallel.fleet.duration_s.to_bits());
    assert_eq!(serial.fleet.total_cost_usd().to_bits(), parallel.fleet.total_cost_usd().to_bits());
}

#[test]
fn streamed_stream_that_runs_dry_errors() {
    let cfg = TraceConfig::new(N_DCS, 4, 6).scaled(0.5);
    let err = hier_sharded(2, 3000.0, 6000.0)
        .run_stream(9, stream(&cfg, 0.08, 21), usize::MAX)
        .unwrap_err();
    assert!(format!("{err}").contains("ran dry"), "{err}");
}

#[test]
fn decreasing_streamed_arrivals_are_rejected() {
    let jobs = mixed_trace(&TraceConfig::new(N_DCS, 3, 5).scaled(0.5));
    let ooo = vec![(5.0, jobs[0].clone()), (2.0, jobs[1].clone()), (9.0, jobs[2].clone())];
    let err = hier_sharded(2, 3000.0, 6000.0)
        .run_stream(3, Box::new(ooo.into_iter()), usize::MAX)
        .unwrap_err();
    assert!(format!("{err}").contains("non-decreasing"), "{err}");
}
