//! Umbrella crate for the WANify reproduction workspace.
//!
//! This root package exists to host the cross-crate integration tests
//! (`tests/`) and the runnable examples (`examples/`); the implementation
//! lives in the `crates/` members. See the workspace `README.md` for the
//! layout and the [`wanify`] crate for the pipeline facade.

pub use wanify;
pub use wanify_experiments;
pub use wanify_forest;
pub use wanify_gda;
pub use wanify_netsim;
pub use wanify_workloads;

/// The README's Rust blocks, compiled and run by `cargo test` as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeExamples;
