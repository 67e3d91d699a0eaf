//! End-to-end gateway behaviour over a real fleet engine: shedding under
//! sustained overload, reject-vs-block overflow policies, tenant-quota
//! isolation, breaker-backed serving through a gauge outage, and bit
//! determinism of the whole front-end.

use wanify::Pregauged;
use wanify_gateway::{
    BreakerConfig, CircuitBreakerSource, Disposition, FlakySource, Gateway, GatewayConfig,
    GatewayRequest, OverloadPolicy, QuotaConfig,
};
use wanify_gda::{DataLayout, FleetConfig, FleetEngine, JobProfile, StageProfile, Tetrium};
use wanify_netsim::{paper_testbed_n, BwMatrix, LinkModelParams, NetSim, VmType};

fn sim(n: usize, seed: u64) -> NetSim {
    NetSim::new(paper_testbed_n(VmType::t2_medium(), n), LinkModelParams::frozen(), seed)
}

fn job(n: usize, gb: f64, name: &str) -> JobProfile {
    JobProfile::new(
        name,
        DataLayout::uniform(n, gb),
        vec![StageProfile::shuffling("map", 1.0, 1.0), StageProfile::terminal("reduce", 0.05, 0.5)],
    )
}

fn engine(seed: u64, max_concurrent: usize) -> FleetEngine {
    FleetEngine::new(
        sim(3, seed),
        Box::new(Tetrium::new()),
        Box::new(wanify::MeasuredRuntime::default()),
        FleetConfig { max_concurrent, ..FleetConfig::default() },
    )
}

/// A burst of identical requests arriving at `spacing_s`, each with the
/// same relative deadline.
fn burst(count: usize, spacing_s: f64, deadline_slack_s: f64) -> Vec<GatewayRequest> {
    (0..count)
        .map(|i| {
            let arrival_s = i as f64 * spacing_s;
            GatewayRequest {
                job: job(3, 2.0, &format!("burst-{i}")),
                arrival_s,
                deadline_s: Some(arrival_s + deadline_slack_s),
            }
        })
        .collect()
}

#[test]
fn sustained_overload_sheds_instead_of_collapsing() {
    // One admission slot, arrivals far faster than service: without
    // shedding every later job would blow its deadline while queued.
    let gw = Gateway::new(
        engine(1, 1),
        GatewayConfig { queue_depth: 64, shed_headroom: 1.5, ..GatewayConfig::default() },
    );
    let report = gw.serve(burst(20, 5.0, 120.0)).unwrap();
    let serving = report.fleet.serving;
    assert_eq!(serving.offered, 20);
    assert!(serving.shed_jobs > 0, "overload must shed, got {serving:?}");
    assert!(report.good() > 0, "some requests still meet their deadline");
    // Shedding is the whole point: nothing that was admitted should then
    // miss its deadline by much — the estimator filtered the hopeless.
    assert_eq!(
        report.served() + serving.shed_jobs as usize,
        20,
        "every request is either served or shed"
    );
    assert!(serving.deadline_misses <= 2, "admission kept late finishes rare, got {serving:?}");
}

#[test]
fn reject_policy_bounds_the_queue_and_block_policy_serves_everyone() {
    let reqs = burst(12, 1.0, f64::INFINITY);
    let rejecting = Gateway::new(
        engine(2, 1),
        GatewayConfig { queue_depth: 2, overload: OverloadPolicy::Reject, ..Default::default() },
    )
    .serve(reqs.clone())
    .unwrap();
    assert!(
        rejecting.fleet.serving.rejected > 0,
        "a two-deep queue under a 12-job burst must overflow"
    );
    assert_eq!(
        rejecting.served() + rejecting.fleet.serving.rejected as usize,
        12,
        "no deadline pressure: everything not rejected is served"
    );

    let blocking = Gateway::new(
        engine(2, 1),
        GatewayConfig { queue_depth: 2, overload: OverloadPolicy::Block, ..Default::default() },
    )
    .serve(reqs)
    .unwrap();
    assert_eq!(blocking.fleet.serving.rejected, 0);
    assert_eq!(blocking.served(), 12, "blocking parks submitters instead of refusing");
    assert!(
        blocking.latency.max >= rejecting.latency.max,
        "blocking trades latency for completeness"
    );
}

#[test]
fn quota_isolates_a_storming_tenant_class() {
    // "noisy" storms 10 requests at t=0; "quiet" sends one per 30 s.
    // Quota: burst 2, 0.04 tokens/s (more than one token per 30 s) — the
    // storm is clipped to its burst, the quiet class never notices.
    let mut reqs = Vec::new();
    for i in 0..10 {
        reqs.push(GatewayRequest {
            job: job(3, 1.0, &format!("noisy-{i}")),
            arrival_s: 0.0,
            deadline_s: None,
        });
    }
    for i in 0..4 {
        reqs.push(GatewayRequest {
            job: job(3, 1.0, &format!("quiet-{i}")),
            arrival_s: 30.0 * (i + 1) as f64,
            deadline_s: None,
        });
    }
    reqs.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
    let report = Gateway::new(
        engine(3, 4),
        GatewayConfig {
            quota: Some(QuotaConfig { rate_per_s: 0.04, burst: 2.0 }),
            ..GatewayConfig::default()
        },
    )
    .serve(reqs)
    .unwrap();
    assert_eq!(report.fleet.serving.quota_rejected, 8, "the storm is clipped to its burst");
    let quiet_served = report
        .dispositions
        .iter()
        .skip(10)
        .filter(|d| matches!(d, Disposition::Served { .. }))
        .count();
    assert_eq!(quiet_served, 4, "the quiet class is untouched by the noisy one's storm");
}

#[test]
fn breaker_keeps_serving_through_a_gauge_outage() {
    // The primary gauge fails until t=200 s; the breaker degrades to a
    // static fallback belief and recovers after the outage. Re-gauge
    // every 30 s so the breaker sees a stream of gauges.
    let primary = Box::new(FlakySource::new(Box::new(wanify::MeasuredRuntime::default()), 200.0));
    let breaker = CircuitBreakerSource::new(
        primary,
        Box::new(Pregauged::new(BwMatrix::filled(3, 100.0))),
        BreakerConfig { failure_threshold: 2, cooldown_s: 40.0 },
    );
    let handle = breaker.stats_handle();
    let engine = FleetEngine::new(
        sim(3, 5),
        Box::new(Tetrium::new()),
        Box::new(breaker),
        FleetConfig { max_concurrent: 2, regauge_every_s: 30.0, ..FleetConfig::default() },
    );
    let reqs: Vec<GatewayRequest> = (0..10)
        .map(|i| GatewayRequest {
            job: job(3, 2.0, &format!("bb-{i}")),
            arrival_s: 40.0 * i as f64,
            deadline_s: None,
        })
        .collect();
    let report =
        Gateway::new(engine, GatewayConfig::default()).with_breaker(handle).serve(reqs).unwrap();
    let serving = report.fleet.serving;
    assert_eq!(report.served(), 10, "the outage degrades beliefs, never queries");
    assert!(serving.breaker_trips >= 1, "the outage must trip the breaker, got {serving:?}");
    assert!(serving.breaker_fallbacks >= 1);
    assert!(serving.breaker_recoveries >= 1, "the healed primary is probed back in");
    assert_eq!(report.fleet.faults.failed_jobs, 0);
}

#[test]
fn an_infinite_serving_deadline_is_an_error_not_a_panic() {
    let mut gw = Gateway::new(engine(1, 1), GatewayConfig::default());
    match gw.advance_to(f64::INFINITY) {
        Err(wanify::WanifyError::InvalidConfig(msg)) => assert!(msg.contains("finite"), "{msg}"),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // The gateway is still usable afterwards.
    gw.advance_to(10.0).unwrap();
}

#[test]
fn gateway_runs_are_bit_deterministic() {
    let run = || {
        Gateway::new(
            engine(7, 2),
            GatewayConfig {
                queue_depth: 3,
                quota: Some(QuotaConfig { rate_per_s: 0.05, burst: 3.0 }),
                ..GatewayConfig::default()
            },
        )
        .serve(burst(15, 7.0, 300.0))
        .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.dispositions, b.dispositions);
    assert_eq!(a.fleet.serving, b.fleet.serving);
    assert_eq!(a.latency.p99.to_bits(), b.latency.p99.to_bits());
    assert_eq!(a.fleet.duration_s.to_bits(), b.fleet.duration_s.to_bits());
}
