//! Overload-robust serving gateway over the WANify fleet engine.
//!
//! The rest of the workspace answers "how fast does this batch of
//! queries run?"; this crate answers "what happens when queries keep
//! arriving faster than the fleet can run them?". A [`Gateway`] fronts a
//! [`wanify_gda::FleetRun`] with the classic serving defenses:
//!
//! - a **bounded submission queue** with a configurable overload policy
//!   ([`OverloadPolicy::Reject`] fails fast, [`OverloadPolicy::Block`]
//!   parks submitters);
//! - **deadline-aware shedding** — queued requests whose predicted
//!   makespan (from the current bandwidth belief) can no longer meet
//!   their deadline are dropped before they waste WAN capacity;
//! - **per-tenant-class token-bucket quotas** ([`QuotaConfig`]) so one
//!   tenant's storm cannot starve the rest;
//! - a **circuit breaker on belief gauging**
//!   ([`CircuitBreakerSource`]) that degrades to a static fallback
//!   belief instead of failing queries when the monitoring plane is
//!   down, with half-open probe recovery.
//!
//! Everything is keyed on simulated time, so gateway runs are
//! bit-deterministic like the rest of the workspace — including across
//! `RAYON_NUM_THREADS` settings, which CI asserts.

#![warn(unreachable_pub)]

pub mod breaker;
pub mod gateway;
pub mod quota;

pub use breaker::{BreakerConfig, BreakerHandle, BreakerStats, CircuitBreakerSource, FlakySource};
pub use gateway::{
    Disposition, Gateway, GatewayConfig, GatewayReport, GatewayRequest, OverloadPolicy,
};
pub use quota::QuotaConfig;
