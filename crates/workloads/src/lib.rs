//! # wanify-workloads
//!
//! Calibrated models of the workloads the WANify paper evaluates (§5.1):
//!
//! * [`terasort`] — TeraSort, the shuffle-heavy sort benchmark used for the
//!   parallel-data-transfer comparisons (Fig. 5);
//! * [`wordcount`] — WordCount with controllable intermediate data size
//!   (all-distinct words, Fig. 6) and block-level skew (Fig. 10);
//! * [`tpcds`] — TPC-DS query profiles for queries 82 (light-weight), 95
//!   and 11 (average-weight) and 78 (heavy-weight) (Table 4, Figs. 7-8);
//! * [`quantization`] — an SAGQ-style geo-distributed ML training loop
//!   whose gradient precision adapts to believed bandwidth (Fig. 4);
//! * [`trace`] — deterministic mixed multi-tenant job streams (TeraSort /
//!   WordCount / TPC-DS mix) for the `wanify-gda` fleet engine;
//! * [`loadgen`] — open-loop Poisson request streams and offered-rate
//!   sweeps over the mixed trace, the input of the serving gateway's
//!   goodput-vs-load curves.
//!
//! Each model captures the *shape* that drives WAN behaviour — stage
//! structure, shuffle volume per DC pair and compute/network balance — not
//! the byte-exact semantics of the original programs.
//!
//! Every generator has two forms: a materialized `Vec` (small runs,
//! tests) and an O(1)-memory streaming iterator ([`trace_iter`],
//! [`regional_trace_iter`], [`offered_load_iter`]) that produces the
//! identical sequence bit for bit — the form million-query fleets are
//! driven from.

#![warn(unreachable_pub)]

pub mod loadgen;
pub mod quantization;
pub mod terasort;
pub mod tpcds;
pub mod trace;
pub mod wordcount;

pub use loadgen::{
    offered_load, offered_load_iter, rate_sweep, LoadSpec, OfferedJob, OfferedLoadIter,
};
pub use quantization::{QuantConfig, QuantPolicy, TrainingReport};
pub use tpcds::TpcDsQuery;
pub use trace::{
    mixed_trace, regional_mixed_trace, regional_trace_iter, trace_iter, RegionalTraceIter,
    TraceConfig, TraceIter,
};
