//! # wanify-scenarios
//!
//! A declarative fault-injection scenario harness over the fleet engine.
//!
//! The WANify paper measures a *healthy* WAN; production WANs misbehave.
//! This crate turns the netsim fault layer
//! ([`wanify_netsim::FaultSchedule`]: DC outages, link flap, stragglers,
//! diurnal waves) and the fleet's recovery machinery
//! ([`wanify_gda::FaultPolicy`]: stall watchdog, bounded retries with
//! backoff, re-placement away from dead DCs) into a scenario suite:
//!
//! * [`spec`] — [`ScenarioSpec`], a struct literal over
//!   [`ScenarioSpec::new`]'s defaults composing a paper-testbed topology,
//!   a deterministic mixed trace, an arrival process, a belief
//!   provenance, a scheduler, a fault timeline, a recovery policy, live
//!   dynamics, an agent fleet or a serving gateway, and a list of
//!   directional [`Invariant`]s;
//! * [`catalog`] — the ten committed scenarios (DC outage + recovery,
//!   link flap, flash crowd into a straggler, diurnal wave, permanent
//!   outage, sharded regional storm, live diurnal dynamics, an AIMD agent
//!   fleet, sustained overload shedding, a belief-breaker trip);
//! * [`runner`] — executes each spec solo and, unless it fronts a
//!   gateway, sharded; runs counterfactual arms on demand (no-fault,
//!   static-belief), evaluates the invariants, and renders the committed
//!   `SCENARIOS.md` / `SCENARIOS.digest` artifacts.
//!
//! Everything is simulated and deterministic. Two gates hold it so:
//! `bench scenarios` runs the whole catalog again in a repeat, a 1-thread
//! and a 4-thread pool and asserts bit-identical digests (baseline
//! `BENCH_scenarios.json`, drift-gated by `bench --check`), and CI
//! regenerates `SCENARIOS.md` / `SCENARIOS.digest` and fails on drift.
//!
//! ## Adding a scenario
//!
//! ```
//! use wanify_scenarios::{Invariant, ScenarioSpec};
//! use wanify_gda::FaultPolicy;
//! use wanify_netsim::{DcId, FaultSchedule};
//!
//! let spec = ScenarioSpec {
//!     n_dcs: 4,
//!     jobs: 6,
//!     scale: 0.4,
//!     faults: FaultSchedule::new().dc_outage(DcId(1), 4.0, 45.0),
//!     policy: Some(FaultPolicy { stall_timeout_s: 5.0, max_retries: 5, backoff_base_s: 5.0 }),
//!     invariants: vec![Invariant::AllComplete, Invariant::RetriesAtLeast(1)],
//!     ..ScenarioSpec::new("my-outage", "what it shows")
//! };
//! let outcome = wanify_scenarios::run_scenario(&spec);
//! assert!(outcome.passed());
//! ```

#![warn(unreachable_pub)]

pub mod catalog;
pub mod runner;
pub mod spec;

pub use catalog::{all, by_name};
pub use runner::{digest, render_digests, render_markdown, run_all, run_scenario, ScenarioOutcome};
pub use spec::{
    BeliefKind, BreakerSpec, CheckCtx, CheckResult, GatewaySpec, Invariant, ScenarioSpec, SchedKind,
};
