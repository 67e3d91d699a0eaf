//! The committed scenario suite: fault-injection and live-dynamics
//! studies.
//!
//! Each entry is ~20 lines of declarative spec — the point of the
//! harness. [`all`] returns them in report order; [`by_name`] resolves a
//! name given to `scenario_runner`.

use crate::spec::{
    BeliefKind, BreakerSpec, DynamicsSpec, GatewaySpec, Invariant, ScenarioSpec, SchedKind,
};
use wanify_gda::{Arrivals, FaultPolicy};
use wanify_netsim::{DcId, FaultSchedule};

/// Mid-run full-DC outage that heals: stalls must be detected, the
/// remainder re-placed onto alive DCs, and every job must still finish.
fn outage_recovery() -> ScenarioSpec {
    ScenarioSpec::new(
        "outage-recovery",
        "A full DC goes dark for 40 s while every client's first shuffle is in flight; \
         the stall watchdog cancels wedged shuffles, re-places the dead-destination \
         remainder through the scheduler, and the healed WAN drains the resubmissions — \
         nobody fails.",
    )
    .dcs(4)
    .jobs(6)
    .scale(0.4)
    .arrivals(Arrivals::Closed { clients: 6, think_s: 0.0 })
    .faults(FaultSchedule::new().dc_outage(DcId(1), 4.0, 45.0))
    .policy(Some(FaultPolicy { stall_timeout_s: 5.0, max_retries: 5, backoff_base_s: 5.0 }))
    .expect(Invariant::AllComplete)
    .expect(Invariant::RetriesAtLeast(1))
    .expect(Invariant::ReplacementsAtLeast(1))
    .expect(Invariant::DegradedBetween(5.0, 41.5))
    .expect(Invariant::SlowdownAtLeast(1.2))
}

/// Periodic degradation of one directed pair in both directions: rates
/// never hit zero, so the fleet rides through without any intervention.
fn link_flap() -> ScenarioSpec {
    ScenarioSpec::new(
        "link-flap",
        "The UsEast↔UsWest pair flaps to 15 % capacity every 20 s; rates stay nonzero so \
         the watchdog never fires, and a runtime-measured belief must not place \
         meaningfully worse than a static-independent one.",
    )
    .jobs(6)
    .belief(BeliefKind::MeasuredRuntime(5))
    .arrivals(Arrivals::Closed { clients: 6, think_s: 0.0 })
    .faults(FaultSchedule::new().link_flap(DcId(0), DcId(1), 0.15, 10.0, 20.0, 6).link_flap(
        DcId(1),
        DcId(0),
        0.15,
        10.0,
        20.0,
        6,
    ))
    .expect(Invariant::AllComplete)
    .expect(Invariant::RetriesAtMost(0))
    .expect(Invariant::DegradedBetween(1.0, 120.5))
    .expect(Invariant::RuntimeBeliefNoWorse(0.15))
}

/// A flash crowd arriving into a straggling DC: load spike and slow
/// links overlap, but degradation must stay graceful.
fn flash_crowd_straggler() -> ScenarioSpec {
    ScenarioSpec::new(
        "flash-crowd-straggler",
        "Five queries arrive at t=0 and five more in one burst at t=30 while every link \
         of a straggler DC runs at 25 % until t=120; the queue drains gracefully with no \
         failures and no pathological tail.",
    )
    .dcs(4)
    .jobs(10)
    .scale(0.3)
    .scheduler(SchedKind::Vanilla)
    .arrivals(Arrivals::Scheduled {
        times: vec![0.0, 0.0, 0.0, 0.0, 0.0, 30.0, 30.0, 30.0, 30.0, 30.0],
    })
    .faults(FaultSchedule::new().straggler(DcId(3), 0.25, 10.0).straggler(DcId(3), 1.0, 120.0))
    .expect(Invariant::AllComplete)
    .expect(Invariant::DegradedBetween(5.0, 110.5))
    .expect(Invariant::TailWithin(50.0))
}

/// A diurnal bandwidth wave with no recovery policy installed: factors
/// never reach zero, so the legacy stall-is-error path must never trip.
fn diurnal_wave() -> ScenarioSpec {
    ScenarioSpec::new(
        "diurnal-wave",
        "Two 200 s raised-cosine bandwidth cycles dipping to 40 % hit a Poisson-arriving \
         fleet running without any fault policy; the wave slows the fleet but can never \
         stall it, so the policy-free legacy path stays safe.",
    )
    .jobs(8)
    .scheduler(SchedKind::Kimchi)
    .belief(BeliefKind::StaticIndependent)
    .arrivals(Arrivals::Poisson { rate_per_s: 0.05, seed: 7 })
    .faults(FaultSchedule::new().diurnal(200.0, 0.4, 8, 2))
    .policy(None)
    .expect(Invariant::AllComplete)
    .expect(Invariant::DegradedBetween(10.0, 400.5))
    .expect(Invariant::SlowdownAtLeast(1.0))
}

/// A DC that never comes back: jobs whose shuffles need it must be
/// aborted after bounded retries with partial accounting — the fleet
/// must not wedge and must not error.
fn permanent_outage() -> ScenarioSpec {
    ScenarioSpec::new(
        "permanent-outage",
        "One DC is dark from t=0 and never recovers; every query that must move data to \
         or from it exhausts its two retries and is reported failed with partial \
         accounting, while the fleet itself keeps serving and terminates cleanly.",
    )
    .jobs(3)
    .scale(0.4)
    .scheduler(SchedKind::Vanilla)
    .arrivals(Arrivals::Closed { clients: 3, think_s: 0.0 })
    .faults(FaultSchedule::new().at(0.0, wanify_netsim::FaultKind::DcDown(DcId(1))))
    .policy(Some(FaultPolicy { stall_timeout_s: 4.0, max_retries: 2, backoff_base_s: 4.0 }))
    .expect(Invariant::FailedAtLeast(1))
    .expect(Invariant::FailedAtMost(3))
    .expect(Invariant::RetriesAtLeast(2))
    .expect(Invariant::DegradedBetween(1.0, f64::INFINITY))
}

/// A regional storm over a sharded fleet: an outage plus a straggler in
/// different continents, tenants homed to region groups.
fn regional_storm() -> ScenarioSpec {
    ScenarioSpec::new(
        "regional-storm",
        "A 6-DC fleet with region-homed tenants takes a 38 s AP outage and a NA \
         straggler at once; solo and 3-shard arms both recover every query through \
         retry + re-placement.",
    )
    .dcs(6)
    .jobs(12)
    .scale(0.3)
    .regional()
    .shards(3)
    .arrivals(Arrivals::Closed { clients: 6, think_s: 0.0 })
    .faults(
        FaultSchedule::new().dc_outage(DcId(2), 2.0, 40.0).straggler(DcId(1), 0.3, 5.0).straggler(
            DcId(1),
            1.0,
            50.0,
        ),
    )
    .policy(Some(FaultPolicy { stall_timeout_s: 4.0, max_retries: 6, backoff_base_s: 4.0 }))
    .expect(Invariant::AllComplete)
    .expect(Invariant::RetriesAtLeast(1))
    .expect(Invariant::DegradedBetween(5.0, 49.5))
    .expect(Invariant::SlowdownAtLeast(1.2))
}

/// Live tick-quantized dynamics with no injected faults: the network
/// moves on its own (OU noise composed with a diurnal wave), and the
/// runtime-measured belief must still hold its own against static.
fn diurnal_live_dynamics() -> ScenarioSpec {
    ScenarioSpec::new(
        "diurnal-live-dynamics",
        "No faults at all — instead the WAN itself breathes: OU noise on a 30 s tick \
         composed with a ±30 % diurnal wave. The coalescing engine schedules every rate \
         change, every job completes, and a runtime-measured belief must not place \
         meaningfully worse than a static-independent one on the moving network.",
    )
    .jobs(8)
    .scale(0.4)
    .belief(BeliefKind::MeasuredRuntime(5))
    .arrivals(Arrivals::Closed { clients: 4, think_s: 0.0 })
    .dynamics(DynamicsSpec { sigma: 0.06, theta: 0.25, tick_s: 30.0, diurnal: Some((0.3, 240.0)) })
    .expect(Invariant::AllComplete)
    .expect(Invariant::TailWithin(50.0))
    .expect(Invariant::RuntimeBeliefNoWorse(0.15))
}

/// An AIMD agent fleet riding a faulted, live-dynamics WAN: every shard
/// carries its own WANify agent waking on a 5 s analytic schedule, so
/// the hooked run still coalesces between wakes.
fn aimd_agents_fleet() -> ScenarioSpec {
    ScenarioSpec::new(
        "aimd-agents-fleet",
        "WANify's per-DC AIMD agents steer the fleet's connection matrix every 5 s while \
         OU dynamics drift the links and a mid-run straggler bites; the agents schedule \
         their wakes analytically, the faulted run costs real time over the agent-free \
         clean baseline, and nobody fails.",
    )
    .dcs(4)
    .jobs(8)
    .scale(0.8)
    .arrivals(Arrivals::Closed { clients: 4, think_s: 0.0 })
    .dynamics(DynamicsSpec { sigma: 0.06, theta: 0.25, tick_s: 30.0, diurnal: None })
    .agents(5.0)
    .faults(FaultSchedule::new().straggler(DcId(2), 0.08, 2.0).straggler(DcId(2), 1.0, 80.0))
    .expect(Invariant::AllComplete)
    .expect(Invariant::RetriesAtMost(0))
    .expect(Invariant::DegradedBetween(5.0, 78.5))
    .expect(Invariant::SlowdownAtLeast(1.05))
}

/// Open-loop arrivals far beyond the fleet's service rate, pushed
/// through the serving gateway: deadline shedding must hold goodput up
/// instead of letting every queued request rot past its deadline.
fn sustained_overload_shedding() -> ScenarioSpec {
    ScenarioSpec::new(
        "sustained-overload-shedding",
        "Poisson arrivals at roughly three times the two-slot fleet's service rate hit \
         the gateway for 16 queries straight; the deadline-aware admission control sheds \
         the hopeless requests from the queue, keeps the admitted ones largely on time, \
         and the fleet never collapses into serving only late work.",
    )
    .jobs(16)
    .scale(1.0)
    .concurrent(1)
    .arrivals(Arrivals::Poisson { rate_per_s: 0.5, seed: 21 })
    .gateway(GatewaySpec {
        queue_depth: 8,
        deadline_slack_s: Some(45.0),
        shed_headroom: 1.2,
        ..GatewaySpec::default()
    })
    .expect(Invariant::ServedAtLeast(4))
    .expect(Invariant::ShedAtLeast(1))
    .expect(Invariant::RejectedAtLeast(1))
    .expect(Invariant::DeadlineMissesAtMost(3))
}

/// A monitoring-plane outage under a serving gateway: every gauge fails
/// for the first half of the run, the circuit breaker trips to a static
/// fallback belief, and a half-open probe recovers the primary once the
/// plane heals — queries degrade, none fail.
fn belief_breaker_trip() -> ScenarioSpec {
    ScenarioSpec::new(
        "belief-breaker-trip",
        "The runtime-measurement plane is down until t=250 s, so every re-gauge fails; \
         after two consecutive failures the breaker opens and serves a pregauged \
         fallback belief, then a post-outage half-open probe recovers runtime \
         measurement — every query completes, none ever sees a gauge error.",
    )
    .jobs(8)
    .scale(0.4)
    .belief(BeliefKind::MeasuredRuntime(5))
    .regauge_every(40.0)
    .arrivals(Arrivals::Poisson { rate_per_s: 0.02, seed: 13 })
    .gateway(GatewaySpec {
        breaker: Some(BreakerSpec {
            fail_until_s: 250.0,
            failure_threshold: 2,
            cooldown_s: 60.0,
            fallback_mbps: 200.0,
        }),
        ..GatewaySpec::default()
    })
    .expect(Invariant::ServedAtLeast(8))
    .expect(Invariant::FailedAtMost(0))
    .expect(Invariant::BreakerTripsAtLeast(1))
    .expect(Invariant::BreakerRecoveriesAtLeast(1))
}

/// Every committed scenario, in report order.
pub fn all() -> Vec<ScenarioSpec> {
    vec![
        outage_recovery(),
        link_flap(),
        flash_crowd_straggler(),
        diurnal_wave(),
        permanent_outage(),
        regional_storm(),
        diurnal_live_dynamics(),
        aimd_agents_fleet(),
        sustained_overload_shedding(),
        belief_breaker_trip(),
    ]
}

/// Resolves a scenario by its [`ScenarioSpec::name`].
pub fn by_name(name: &str) -> Option<ScenarioSpec> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_at_least_six_unique_scenarios() {
        let specs = all();
        assert!(specs.len() >= 6, "got {}", specs.len());
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "scenario names must be unique");
    }

    #[test]
    fn every_scenario_declares_a_directional_invariant() {
        for spec in all() {
            assert!(!spec.invariants.is_empty(), "{} has no invariants", spec.name);
            assert!(
                !spec.faults.is_empty() || spec.has_live_dynamics() || spec.gateway.is_some(),
                "{} neither injects faults, moves the network, nor stresses the gateway",
                spec.name
            );
        }
    }

    #[test]
    fn names_are_kebab_case_ids() {
        for spec in all() {
            assert!(
                spec.name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{} is not kebab-case",
                spec.name
            );
        }
    }

    #[test]
    fn by_name_resolves_and_rejects() {
        assert!(by_name("outage-recovery").is_some());
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn the_readme_lists_the_catalog_and_runs_only_its_names() {
        let readme = include_str!("../../../README.md");
        let names: Vec<&str> = all().iter().map(|s| s.name).collect();

        // The backticked names of the sentence that introduces the catalog.
        let sentence = readme.split("(`wanify_scenarios::catalog`)").nth(1).expect("catalog");
        let sentence = sentence.split('.').next().expect("sentence");
        let listed: Vec<&str> = sentence.split('`').skip(1).step_by(2).collect();
        assert_eq!(listed, names, "README.md catalog list");

        // Every name a `scenario_runner` command line passes.
        for line in readme.lines().filter_map(|l| l.split("--bin scenario_runner --").nth(1)) {
            let mut args = line.split('#').next().unwrap_or("").split_whitespace();
            while let Some(arg) = args.next() {
                match arg {
                    "--out" | "--digest" => {
                        args.next();
                    }
                    "\\" => {}
                    flag if flag.starts_with("--") => {}
                    name => assert!(names.contains(&name), "README.md runs unknown `{name}`"),
                }
            }
        }
    }

    #[test]
    fn traces_fit_their_topologies() {
        for spec in all() {
            let trace = spec.trace();
            assert_eq!(trace.len(), spec.jobs, "{}", spec.name);
            for job in &trace {
                assert_eq!(job.layout.len(), spec.n_dcs, "{}", spec.name);
            }
        }
    }
}
