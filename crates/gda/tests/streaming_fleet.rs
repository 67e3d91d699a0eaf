//! Streaming arrivals and constant-memory accounting on the streamed
//! driver, `ShardedFleetEngine::run_stream`: the retention cap bounds
//! per-job state without losing aggregate accuracy, the sketched report's
//! percentiles stay close to the exact order statistics, and a stream
//! that delivers fewer jobs than promised is an error, not a hang.

use wanify_gda::{
    poisson_times_iter, Arrivals, FleetConfig, FleetEngine, JobProfile, RoundRobinShards,
    ShardedFleetEngine, ShardedFleetReport, Tetrium,
};
use wanify_netsim::{paper_testbed_n, BackboneHierarchy, LinkModelParams, NetSim, VmType};
use wanify_workloads::{mixed_trace, trace_iter, TraceConfig};

const N_DCS: usize = 8;
const SEED: u64 = 21;

/// `n_shards` shards of `max_concurrent` slots each, under a two-tier
/// coupling (regional trunks every 2 s, continental every 6 s).
fn sharded(n_shards: usize, max_concurrent: usize) -> ShardedFleetEngine {
    let topo = paper_testbed_n(VmType::t2_medium(), N_DCS);
    let hierarchy = BackboneHierarchy::regional_continental(&topo, 3000.0, 6000.0, 2.0, 6.0);
    let engine = || {
        FleetEngine::new(
            NetSim::new(topo.clone(), LinkModelParams::frozen(), 11),
            Box::new(Tetrium::new()),
            Box::new(wanify::StaticIndependent::new()),
            FleetConfig { max_concurrent, regauge_every_s: 300.0, ..FleetConfig::default() },
        )
    };
    ShardedFleetEngine::new(
        (0..n_shards).map(|_| engine()).collect(),
        Box::new(RoundRobinShards::new()),
        None,
    )
    .with_hierarchy(hierarchy)
}

fn cfg(jobs: usize) -> TraceConfig {
    TraceConfig::new(N_DCS, jobs, 6).scaled(0.5)
}

/// `jobs` trace entries, streamed lazily behind the seeded Poisson times.
fn stream(jobs: usize, rate_per_s: f64) -> Box<dyn Iterator<Item = (f64, JobProfile)> + Send> {
    Box::new(poisson_times_iter(rate_per_s, SEED).unwrap().zip(trace_iter(&cfg(jobs))))
}

fn report_key(report: &ShardedFleetReport) -> Vec<(String, u64, u64, u64)> {
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
fn retention_cap_keeps_totals_exact_and_percentiles_close() {
    // 3 admission slots fleet-wide against a hot offered rate: real
    // queueing, so the queue-wait distribution is non-degenerate and the
    // sketch has an actual shape to track.
    let hot = 1.0;
    let times = poisson_times_iter(hot, SEED).unwrap().take(160).collect();
    let exact = sharded(3, 1).run(&mixed_trace(&cfg(160)), &Arrivals::Scheduled { times }).unwrap();
    let capped = sharded(3, 1).run_stream(160, stream(160, hot), 8).unwrap();

    // The timeline itself is untouched by accounting: the retained
    // prefix matches the exact run's first outcomes bit for bit.
    assert!(capped.fleet.sketched());
    assert_eq!(capped.fleet.outcomes.len(), 8);
    assert_eq!(report_key(&exact)[..8], report_key(&capped)[..]);
    assert_eq!(capped.fleet.completed(), 160);
    assert_eq!(capped.fleet.duration_s.to_bits(), exact.fleet.duration_s.to_bits());

    // Sums and counts absorb in the same global order, so they stay
    // bitwise equal to the exact run's.
    let (c, e) = (&capped.fleet, &exact.fleet);
    assert_eq!(c.failed_jobs(), e.failed_jobs());
    assert_eq!(c.total_egress_gb().to_bits(), e.total_egress_gb().to_bits());
    assert_eq!(c.total_cost_usd().to_bits(), e.total_cost_usd().to_bits());
    assert_eq!(c.network_cost_usd().to_bits(), e.network_cost_usd().to_bits());
    assert_eq!(c.throughput_jobs_per_s().to_bits(), e.throughput_jobs_per_s().to_bits());

    // Percentiles come from the P² sketches: estimates, but close. 160
    // non-stationary samples (the queue grows through the run) is a
    // stress case for a 5-marker sketch, so the bounds here are loose —
    // this test pins the *wiring*; the sketch unit tests pin 1% accuracy
    // at 20k i.i.d. samples.
    for (sk, ex) in [(c.makespan(), e.makespan()), (c.queue_wait(), e.queue_wait())] {
        for (s, x, rel) in [(sk.p50, ex.p50, 0.25), (sk.p95, ex.p95, 0.35), (sk.p99, ex.p99, 0.35)]
        {
            // Relative bound with a small absolute floor (exact p50
            // queue wait is 0.0 when admissions are uncontended).
            let tol = rel * x.abs() + 0.05;
            assert!((s - x).abs() <= tol, "sketched {s} vs exact {x} (tol {tol})");
        }
        // The exact mean sums in sorted order, the sketch in completion
        // order: same values, different rounding — ulp-level agreement.
        assert!((sk.mean - ex.mean).abs() <= 1e-9 * ex.mean.abs().max(1.0), "{sk:?} {ex:?}");
        assert_eq!(sk.max.to_bits(), ex.max.to_bits(), "max absorbs exactly");
    }
}

#[test]
fn stream_that_runs_dry_reports_a_stall_not_a_hang() {
    // Promise 10 jobs, deliver 4: the run must name the cause at the
    // pull that finds the stream dry, not spin, succeed, or report a
    // cause-free stall after the last delivered job drains.
    let err = sharded(2, 8).run_stream(10, stream(4, 0.08), usize::MAX).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("ran dry after 4 of 10"), "unexpected error: {msg}");
}
