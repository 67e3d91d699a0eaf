//! Streaming arrivals and constant-memory accounting: a streamed run is
//! bit-identical to the materialized one, the retention cap bounds
//! per-job state without losing aggregate accuracy, and the sketched
//! report's percentiles stay close to the exact order statistics.

use wanify_gda::{
    poisson_times_iter, Arrivals, FleetConfig, FleetEngine, FleetReport, FleetRun, Tetrium,
};
use wanify_netsim::{paper_testbed_n, LinkModelParams, NetSim, VmType};
use wanify_workloads::{mixed_trace, trace_iter, TraceConfig};

const RATE_PER_S: f64 = 0.08;
const SEED: u64 = 17;

fn engine(n: usize, max_concurrent: usize, retain: usize) -> FleetEngine {
    FleetEngine::new(
        NetSim::new(paper_testbed_n(VmType::t2_medium(), n), LinkModelParams::frozen(), 7),
        Box::new(Tetrium::new()),
        Box::new(wanify::StaticIndependent::new()),
        FleetConfig {
            max_concurrent,
            regauge_every_s: 300.0,
            retain_outcomes: retain,
            ..FleetConfig::default()
        },
    )
}

fn cfg(jobs: usize) -> TraceConfig {
    TraceConfig::new(4, jobs, 5).scaled(0.5)
}

/// The streaming arrival source: the same trace and Poisson times the
/// materialized run uses, zipped lazily.
fn stream(jobs: usize) -> Box<dyn Iterator<Item = (f64, wanify_gda::JobProfile)> + Send> {
    let times = poisson_times_iter(RATE_PER_S, SEED).unwrap();
    Box::new(times.zip(trace_iter(&cfg(jobs))))
}

fn materialized(jobs: usize, retain: usize) -> FleetReport {
    engine(4, 8, retain)
        .run(&mixed_trace(&cfg(jobs)), &Arrivals::Poisson { rate_per_s: RATE_PER_S, seed: SEED })
        .unwrap()
}

fn report_key(report: &FleetReport) -> Vec<(String, u64, u64, u64)> {
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
fn streamed_run_is_bit_identical_to_materialized() {
    let exact = materialized(24, usize::MAX);
    let streamed = engine(4, 8, usize::MAX).run_stream(24, stream(24)).unwrap();
    assert_eq!(report_key(&exact), report_key(&streamed));
    assert_eq!(exact.duration_s.to_bits(), streamed.duration_s.to_bits());
    assert_eq!(exact.gauges, streamed.gauges);
    assert!(!streamed.sketched());
    assert_eq!(streamed.completed(), 24);
}

#[test]
fn retention_cap_keeps_totals_exact_and_percentiles_close() {
    // 3 admission slots against a hot offered rate: real queueing, so
    // the queue-wait distribution is non-degenerate and the sketch has
    // an actual shape to track.
    let hot = 1.0;
    let exact = engine(4, 3, usize::MAX)
        .run(&mixed_trace(&cfg(160)), &Arrivals::Poisson { rate_per_s: hot, seed: SEED })
        .unwrap();
    let times = poisson_times_iter(hot, SEED).unwrap();
    let capped =
        engine(4, 3, 8).run_stream(160, Box::new(times.zip(trace_iter(&cfg(160))))).unwrap();

    // The timeline itself is untouched by accounting: the retained
    // prefix matches the exact run's first outcomes bit for bit.
    assert!(capped.sketched());
    assert_eq!(capped.outcomes.len(), 8);
    assert_eq!(report_key(&exact)[..8], report_key(&capped)[..]);
    assert_eq!(capped.completed(), 160);
    assert_eq!(capped.duration_s.to_bits(), exact.duration_s.to_bits());

    // Sums and counts absorb in the same order, so they stay bitwise
    // equal to the exact run's.
    assert_eq!(capped.failed_jobs(), exact.failed_jobs());
    assert_eq!(capped.total_egress_gb().to_bits(), exact.total_egress_gb().to_bits());
    assert_eq!(capped.total_cost_usd().to_bits(), exact.total_cost_usd().to_bits());
    assert_eq!(capped.network_cost_usd().to_bits(), exact.network_cost_usd().to_bits());
    assert_eq!(capped.throughput_jobs_per_s().to_bits(), exact.throughput_jobs_per_s().to_bits());

    // Percentiles come from the P² sketches: estimates, but close. 160
    // non-stationary samples (the queue grows through the run) is a
    // stress case for a 5-marker sketch, so the bounds here are loose —
    // this test pins the *wiring*; the dedicated sketch unit tests pin
    // 1% accuracy at 20k i.i.d. samples.
    for (sk, ex) in
        [(capped.makespan(), exact.makespan()), (capped.queue_wait(), exact.queue_wait())]
    {
        for (s, e, rel) in [(sk.p50, ex.p50, 0.25), (sk.p95, ex.p95, 0.35), (sk.p99, ex.p99, 0.35)]
        {
            // Relative bound with a small absolute floor (exact p50
            // queue wait is 0.0 when admissions are uncontended).
            let tol = rel * e.abs() + 0.05;
            assert!((s - e).abs() <= tol, "sketched {s} vs exact {e} (tol {tol})");
        }
        // The exact mean sums in sorted order, the sketch in completion
        // order: same values, different rounding — ulp-level agreement.
        assert!(
            (sk.mean - ex.mean).abs() <= 1e-9 * ex.mean.abs().max(1.0),
            "{} {}",
            sk.mean,
            ex.mean
        );
        assert_eq!(sk.max.to_bits(), ex.max.to_bits(), "max absorbs exactly");
    }
}

#[test]
fn per_class_aggregates_cover_every_job() {
    let report = engine(4, 8, 8).run_stream(40, stream(40)).unwrap();
    let classes = report.classes();
    assert!(!classes.is_empty());
    assert_eq!(classes.total_jobs(), 40, "every completion lands in exactly one class");
    for (name, stats) in classes.iter() {
        assert!(stats.jobs > 0, "class {name} exists but holds no jobs");
        assert!(stats.makespan.count() == stats.jobs);
    }
}

#[test]
fn streamed_peak_tracked_stays_bounded_by_the_cap() {
    let mut materialized_run = FleetRun::start(
        engine(4, 8, usize::MAX),
        mixed_trace(&cfg(40)),
        &Arrivals::Poisson { rate_per_s: RATE_PER_S, seed: SEED },
    )
    .unwrap();
    materialized_run.run_until(f64::INFINITY).unwrap();
    // Materialized: the whole trace plus every outcome is held at once.
    assert!(materialized_run.peak_tracked() >= 40);

    let mut streamed_run = FleetRun::start_stream(engine(4, 8, 8), 40, stream(40)).unwrap();
    streamed_run.run_until(f64::INFINITY).unwrap();
    assert!(streamed_run.finished());
    // Streamed + capped: one look-ahead arrival, the pending queue, and
    // at most `retain_outcomes` outcomes — far below the trace length.
    assert!(
        streamed_run.peak_tracked() < materialized_run.peak_tracked(),
        "streamed peak {} must undercut materialized peak {}",
        streamed_run.peak_tracked(),
        materialized_run.peak_tracked()
    );
    assert!(streamed_run.peak_tracked() <= 8 + 40, "peak {}", streamed_run.peak_tracked());
}

#[test]
fn stream_that_runs_dry_reports_a_stall_not_a_hang() {
    // Promise 10 jobs, deliver 4: the run must name the cause at the
    // pull that finds the stream dry, not spin, succeed, or report a
    // cause-free stall after the last delivered job drains.
    let err = engine(4, 8, usize::MAX).run_stream(10, stream(4)).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("ran dry after 4 of 10"), "unexpected error: {msg}");
}

#[test]
fn decreasing_streamed_arrivals_are_rejected() {
    let jobs: Vec<_> = mixed_trace(&cfg(3));
    let ooo = vec![(5.0, jobs[0].clone()), (2.0, jobs[1].clone()), (9.0, jobs[2].clone())];
    let err = engine(4, 8, usize::MAX).run_stream(3, Box::new(ooo.into_iter())).unwrap_err();
    assert!(format!("{err}").contains("non-decreasing"), "{err}");
}
