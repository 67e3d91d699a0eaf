//! # wanify-scenarios
//!
//! A declarative fault-injection scenario harness over the fleet engine.
//!
//! The WANify paper measures a *healthy* WAN; production WANs misbehave.
//! This crate turns the netsim fault layer
//! ([`wanify_netsim::FaultSchedule`]) and the fleet's recovery machinery
//! ([`wanify_gda::FaultPolicy`]) into a scenario suite:
//!
//! * [`spec`] — [`ScenarioSpec`], a fluent builder composing a
//!   paper-testbed topology, a deterministic mixed trace, an arrival
//!   process, a belief provenance, a scheduler, a fault timeline, a
//!   recovery policy and a list of directional [`Invariant`]s;
//! * [`catalog`] — the six committed scenarios (DC outage + recovery,
//!   link flap, flash crowd into a straggler, diurnal wave, permanent
//!   outage, sharded regional storm);
//! * [`runner`] — executes each spec solo **and** sharded (twice each,
//!   digest-asserted bit-identical), runs counterfactual arms on demand
//!   (no-fault, static-belief), evaluates the invariants, and renders
//!   the committed `SCENARIOS.md` / `SCENARIOS.digest` artifacts.
//!
//! Everything is simulated and deterministic: regenerating the report on
//! any machine — at any rayon thread count — must reproduce it byte for
//! byte, which CI enforces with a drift check.
//!
//! ## Adding a scenario
//!
//! ```
//! use wanify_scenarios::{Invariant, ScenarioSpec};
//! use wanify_gda::FaultPolicy;
//! use wanify_netsim::{DcId, FaultSchedule};
//!
//! let spec = ScenarioSpec::new("my-outage", "what it shows")
//!     .dcs(4)
//!     .jobs(6)
//!     .scale(0.4)
//!     .faults(FaultSchedule::new().dc_outage(DcId(1), 4.0, 45.0))
//!     .policy(Some(FaultPolicy { stall_timeout_s: 5.0, max_retries: 5, backoff_base_s: 5.0 }))
//!     .expect(Invariant::AllComplete)
//!     .expect(Invariant::RetriesAtLeast(1));
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
