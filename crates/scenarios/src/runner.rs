//! Executes scenario specs and renders the committed report.
//!
//! [`run_scenario`] drives one [`ScenarioSpec`] through every arm the
//! suite guarantees:
//!
//! * **solo, faulted** — through the serving gateway when the spec
//!   declares one;
//! * **sharded, faulted** (batch specs only) — every job of the trace
//!   must be accounted for (completed or reported failed);
//! * **counterfactual arms on demand** — a no-fault rerun for
//!   [`Invariant::SlowdownAtLeast`], a static-belief rerun for
//!   [`Invariant::RuntimeBeliefNoWorse`];
//! * **invariant evaluation** — every declared [`Invariant`] against the
//!   solo faulted report.
//!
//! [`render_markdown`] emits the deterministic `SCENARIOS.md` (simulated
//! metrics only — no wall-clock — so CI can regenerate and
//! `git diff --exit-code` it), and [`render_digests`] the bit-exact
//! `SCENARIOS.digest` (simulated values via `f64::to_bits`). `bench
//! scenarios` is the determinism gate: a repeat, a 1-thread and a
//! 4-thread pool must reproduce these digests.

use std::fmt::Write as _;

use crate::spec::{BeliefKind, CheckCtx, CheckResult, Invariant, ScenarioSpec};
use wanify_gda::{FleetReport, RoundRobinShards, ShardedFleetEngine, ShardedFleetReport};

/// One executed scenario: the reports of every arm plus the verdicts.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The spec that was run.
    pub spec: ScenarioSpec,
    /// The solo faulted run (the arm invariants are evaluated on). For a
    /// gateway scenario this is the gateway's fleet report, serving
    /// counters populated.
    pub solo: FleetReport,
    /// The sharded faulted run; `None` for gateway scenarios, whose
    /// serving front-end is solo-only.
    pub sharded: Option<ShardedFleetReport>,
    /// Duration of the no-fault counterfactual, when one was needed.
    pub nofault_duration_s: Option<f64>,
    /// Mean makespan of the static-belief counterfactual, when needed.
    pub static_mean_makespan_s: Option<f64>,
    /// One verdict per declared invariant, in declaration order.
    pub checks: Vec<CheckResult>,
}

impl ScenarioOutcome {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

/// Bit-exact digest of a fleet report's simulated outcomes — everything
/// the run produced except wall-clock time. Two runs are "identical"
/// iff their digests match.
pub fn digest(report: &FleetReport) -> String {
    let mut out = String::new();
    for o in &report.outcomes {
        writeln!(
            out,
            "{} latency={:016x} arrived={:016x} completed={:016x} failed={}",
            o.report.job,
            o.report.latency_s.to_bits(),
            o.arrived_s.to_bits(),
            o.completed_s.to_bits(),
            o.failed,
        )
        .expect("write to String");
    }
    let f = &report.faults;
    writeln!(
        out,
        "duration={:016x} gauges={} retries={} replacements={} stalled={} failed={} \
         degraded={:016x}",
        report.duration_s.to_bits(),
        report.gauges,
        f.retries,
        f.replacements,
        f.stalled_flows,
        f.failed_jobs,
        f.degraded_s.to_bits(),
    )
    .expect("write to String");
    let s = &report.serving;
    writeln!(
        out,
        "serving offered={} rejected={} quota_rejected={} shed={} misses={} trips={} \
         fallbacks={} recoveries={}",
        s.offered,
        s.rejected,
        s.quota_rejected,
        s.shed_jobs,
        s.deadline_misses,
        s.breaker_trips,
        s.breaker_fallbacks,
        s.breaker_recoveries,
    )
    .expect("write to String");
    out
}

fn run_solo(spec: &ScenarioSpec, faulted: bool, belief: BeliefKind) -> FleetReport {
    spec.engine_with(faulted, belief)
        .run(&spec.trace(), &spec.arrivals)
        .unwrap_or_else(|e| panic!("scenario {}: solo arm failed to run: {e:?}", spec.name))
}

fn run_gateway(spec: &ScenarioSpec) -> FleetReport {
    let (engine, handle) = spec.gateway_engine();
    let mut gateway = wanify_gateway::Gateway::new(engine, spec.gateway_config());
    if let Some(handle) = handle {
        gateway = gateway.with_breaker(handle);
    }
    gateway
        .serve(spec.gateway_requests())
        .unwrap_or_else(|e| panic!("scenario {}: gateway arm failed to run: {e:?}", spec.name))
        .fleet
}

fn run_sharded(spec: &ScenarioSpec) -> ShardedFleetReport {
    let report = ShardedFleetEngine::new(
        (0..spec.shards).map(|_| spec.engine(true)).collect(),
        Box::new(RoundRobinShards::new()),
        Some(spec.backbone()),
    )
    .run(&spec.trace(), &spec.arrivals)
    .unwrap_or_else(|e| panic!("scenario {}: sharded arm failed to run: {e:?}", spec.name));
    assert_eq!(
        report.fleet.outcomes.len(),
        spec.jobs,
        "scenario {}: the sharded arm must account for every job",
        spec.name
    );
    report
}

/// The rules only the spec knows; the fleet, sharded and gateway layers
/// check the rest of their inputs themselves.
fn check_spec(spec: &ScenarioSpec) {
    let name = spec.name;
    let sharded_ok = spec.gateway.is_some() || spec.shards >= 2;
    assert!(sharded_ok, "scenario {name}: the sharded arm needs at least 2 shards");
    let dynamics_ok = spec.dynamics.is_none_or(|d| d.tick_s > 0.0);
    assert!(dynamics_ok, "scenario {name}: dynamics must be schedulable (tick_s > 0)");
}

/// Runs one spec through every arm (see the module docs) and evaluates
/// its invariants.
///
/// # Panics
///
/// Panics if the spec is malformed (a sharded arm of fewer than 2 shards,
/// dynamics with `tick_s <= 0`), if an arm fails to run, or if the
/// sharded arm loses track of a job — those are harness guarantees, not
/// scenario-dependent outcomes.
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioOutcome {
    check_spec(spec);
    let gated = spec.gateway.is_some();
    let solo = if gated { run_gateway(spec) } else { run_solo(spec, true, spec.belief) };
    let sharded = (!gated).then(|| run_sharded(spec));

    let nofault_duration_s = spec
        .invariants
        .iter()
        .any(Invariant::needs_nofault_arm)
        .then(|| run_solo(spec, false, spec.belief).duration_s);
    let static_mean_makespan_s = spec
        .invariants
        .iter()
        .any(Invariant::needs_static_arm)
        .then(|| run_solo(spec, true, BeliefKind::StaticIndependent).makespan().mean);

    let ctx = CheckCtx { jobs: spec.jobs, solo: &solo, nofault_duration_s, static_mean_makespan_s };
    let checks = spec.invariants.iter().map(|i| i.check(&ctx)).collect();
    ScenarioOutcome {
        spec: spec.clone(),
        solo,
        sharded,
        nofault_duration_s,
        static_mean_makespan_s,
        checks,
    }
}

/// Runs every spec in order.
pub fn run_all(specs: &[ScenarioSpec]) -> Vec<ScenarioOutcome> {
    specs.iter().map(run_scenario).collect()
}

/// Renders the committed markdown report: deterministic, simulated
/// metrics only.
pub fn render_markdown(outcomes: &[ScenarioOutcome]) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "# Fault-injection scenario suite\n");
    let _ = writeln!(
        md,
        "Deterministic WAN-misbehaviour studies over the fleet engine: every \
         scenario composes a topology, a mixed trace, a `FaultSchedule` and a \
         recovery `FaultPolicy`, runs solo **and** sharded (`bench scenarios` \
         asserts bit-identity across repeats and thread counts), and checks \
         directional invariants. All numbers are simulated — regenerating this \
         file on any machine must produce the identical bytes, which CI enforces.\n"
    );
    let _ = writeln!(
        md,
        "Regenerate: `cargo run --release -p wanify-scenarios --bin scenario_runner -- \
         --out SCENARIOS.md --digest SCENARIOS.digest`\n"
    );
    let passed = outcomes.iter().filter(|o| o.passed()).count();
    let _ = writeln!(md, "**{passed}/{} scenarios pass all invariants.**\n", outcomes.len());

    for o in outcomes {
        let spec = &o.spec;
        let _ = writeln!(md, "## {} — {}\n", spec.name, if o.passed() { "PASS" } else { "FAIL" });
        let _ = writeln!(md, "{}\n", spec.summary);
        let policy = match &spec.policy {
            Some(p) => format!(
                "timeout {:.0}s, {} retries, backoff {:.0}s",
                p.stall_timeout_s, p.max_retries, p.backoff_base_s
            ),
            None => "none (stall = error)".to_string(),
        };
        let _ = writeln!(md, "| knob | value |");
        let _ = writeln!(md, "|------|-------|");
        let _ = writeln!(md, "| topology | {}-DC paper-testbed prefix |", spec.n_dcs);
        let _ = writeln!(
            md,
            "| trace | {} jobs{}, seed {}, scale {:.2}, arrivals {} |",
            spec.jobs,
            if spec.regional { " (region-homed)" } else { "" },
            spec.seed,
            spec.scale,
            spec.arrivals_label(),
        );
        let _ = writeln!(
            md,
            "| scheduler / belief | {} / {} |",
            spec.sched.build().name(),
            spec.belief.label()
        );
        let _ = writeln!(md, "| faults / policy | {} events / {policy} |", spec.faults.len());
        if let Some(d) = &spec.dynamics {
            let _ = writeln!(md, "| dynamics | {} |", d.label());
        }
        if let Some(a) = &spec.agent {
            let _ = writeln!(
                md,
                "| agents | AIMD fleet, {:.0} s wake interval (faulted arms only) |",
                a.interval_s
            );
        }
        if let Some(g) = &spec.gateway {
            let deadline = match g.deadline_slack_s {
                Some(s) => format!("deadline +{s:.0}s (headroom {:.1})", g.shed_headroom),
                None => "no deadlines".to_string(),
            };
            let quota = match g.quota {
                Some(q) => format!(", quota {}/s burst {}", q.rate_per_s, q.burst),
                None => String::new(),
            };
            let breaker = match g.breaker {
                Some(b) => format!(
                    ", breaker(fail<{:.0}s, trip {}, cooldown {:.0}s)",
                    b.fail_until_s, b.failure_threshold, b.cooldown_s
                ),
                None => String::new(),
            };
            let _ = writeln!(
                md,
                "| gateway | queue {} ({:?}), {deadline}{quota}{breaker} |",
                g.queue_depth, g.overload
            );
        }
        let _ = writeln!(md);

        let row = |r: &FleetReport| {
            let m = r.makespan();
            format!(
                "{:.2} | {:.2} / {:.2} | {} / {} | {} | {} | {:.2}",
                r.duration_s,
                m.p50,
                m.p99,
                r.faults.retries,
                r.faults.replacements,
                r.faults.stalled_flows,
                r.failed_jobs(),
                r.faults.degraded_s,
            )
        };
        let _ = writeln!(
            md,
            "| arm | duration (s) | makespan p50 / p99 (s) | retries / re-placed | stalled \
             flows | failed jobs | degraded (s) |"
        );
        let _ = writeln!(md, "|-----|--------------|------------------------|---------------------|---------------|-------------|--------------|");
        let _ = writeln!(md, "| solo | {} |", row(&o.solo));
        if let Some(sharded) = &o.sharded {
            let _ = writeln!(md, "| sharded({}) | {} |", spec.shards, row(&sharded.fleet));
        }
        if spec.gateway.is_some() {
            let s = &o.solo.serving;
            let _ = writeln!(
                md,
                "\nServing: offered {} → served {}, shed {}, rejected {} (quota {}), \
                 deadline misses {}, breaker trips/fallbacks/recoveries {}/{}/{}.",
                s.offered,
                o.solo.outcomes.len(),
                s.shed_jobs,
                s.rejected,
                s.quota_rejected,
                s.deadline_misses,
                s.breaker_trips,
                s.breaker_fallbacks,
                s.breaker_recoveries,
            );
        }
        if let Some(base) = o.nofault_duration_s {
            let _ = writeln!(md, "| solo, no faults | {base:.2} | — | — | — | — | — |");
        }
        if let Some(stat) = o.static_mean_makespan_s {
            let _ = writeln!(
                md,
                "\nStatic-belief counterfactual mean makespan: {stat:.2} s \
                 (spec belief: {:.2} s).",
                o.solo.makespan().mean
            );
        }
        let _ = writeln!(md, "\nInvariants:\n");
        for c in &o.checks {
            let _ =
                writeln!(md, "- [{}] {} — {}", if c.pass { "x" } else { " " }, c.label, c.detail);
        }
        let _ = writeln!(md);
    }
    md
}

/// Renders the bit-exact digest file (one block per scenario, solo then
/// sharded): the text `bench scenarios`' identity gate compares and
/// `SCENARIOS.digest` commits.
pub fn render_digests(outcomes: &[ScenarioOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        let _ = writeln!(out, "== {} solo ==", o.spec.name);
        out.push_str(&digest(&o.solo));
        if let Some(sharded) = &o.sharded {
            let _ = writeln!(out, "== {} sharded({}) ==", o.spec.name, o.spec.shards);
            out.push_str(&digest(&sharded.fleet));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SchedKind;
    use wanify_gda::FaultPolicy;
    use wanify_netsim::{DcId, FaultSchedule};

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            jobs: 2,
            scale: 0.3,
            sched: SchedKind::Vanilla,
            faults: FaultSchedule::new().dc_outage(DcId(1), 2.0, 12.0),
            policy: Some(FaultPolicy { stall_timeout_s: 3.0, max_retries: 4, backoff_base_s: 3.0 }),
            invariants: vec![Invariant::AllComplete, Invariant::DegradedBetween(0.5, 10.5)],
            ..ScenarioSpec::new("tiny", "smallest runnable scenario")
        }
    }

    #[test]
    fn tiny_scenario_runs_and_passes() {
        let outcome = run_scenario(&tiny_spec());
        assert!(outcome.passed(), "checks: {:?}", outcome.checks);
        assert_eq!(outcome.solo.outcomes.len(), 2);
        assert_eq!(
            outcome.sharded.as_ref().expect("batch spec runs sharded").fleet.outcomes.len(),
            2
        );
    }

    #[test]
    fn gateway_scenario_skips_the_sharded_arm_and_counts_serving() {
        use crate::spec::GatewaySpec;
        use wanify_gda::Arrivals;
        let spec = ScenarioSpec {
            jobs: 3,
            scale: 0.3,
            sched: SchedKind::Vanilla,
            arrivals: Arrivals::Poisson { rate_per_s: 0.05, seed: 3 },
            faults: FaultSchedule::new().straggler(DcId(1), 0.5, 2.0).straggler(DcId(1), 1.0, 30.0),
            gateway: Some(GatewaySpec::default()),
            invariants: vec![Invariant::ServedAtLeast(3)],
            ..ScenarioSpec::new("tiny-gated", "gateway smoke")
        };
        let outcome = run_scenario(&spec);
        assert!(outcome.passed(), "checks: {:?}", outcome.checks);
        assert!(outcome.sharded.is_none(), "gateway scenarios are solo-only");
        assert_eq!(outcome.solo.serving.offered, 3);
        let d = digest(&outcome.solo);
        assert!(d.contains("serving offered=3"), "digest records serving counters:\n{d}");
    }

    #[test]
    fn renders_are_deterministic() {
        let a = run_scenario(&tiny_spec());
        let b = run_scenario(&tiny_spec());
        assert_eq!(render_markdown(&[a]), render_markdown(&[b]));
    }

    #[test]
    fn failing_invariant_is_reported_not_panicked() {
        let mut spec = tiny_spec();
        spec.invariants.push(Invariant::FailedAtLeast(99));
        let outcome = run_scenario(&spec);
        assert!(!outcome.passed());
        let md = render_markdown(&[outcome]);
        assert!(md.contains("FAIL"));
        assert!(md.contains("- [ ]"), "unmet invariants render unchecked");
    }

    #[test]
    fn digest_captures_fault_counters() {
        let outcome = run_scenario(&tiny_spec());
        let d = digest(&outcome.solo);
        assert!(d.contains("retries="));
        assert!(d.contains("degraded="));
        assert_eq!(d, digest(&outcome.solo));
    }
}
