//! # wanify
//!
//! Reproduction of **WANify: Gauging and Balancing Runtime WAN Bandwidth
//! for Geo-distributed Data Analytics** (Mohapatra & Oh, IISWC 2025).
//!
//! WANify gives geo-distributed data analytics (GDA) systems two things:
//!
//! 1. **Accurate runtime bandwidth, cheaply** — a Random-Forest model
//!    ([`predictor`]) maps 1-second snapshot probes (plus cluster size,
//!    host metrics and geo-distance, Table 3) to the stable bandwidth a
//!    20-second simultaneous measurement would report, cutting monitoring
//!    cost by ~96% ([`costs`], Table 2).
//! 2. **Balanced WAN usage** — from the predicted matrix it infers DC
//!    closeness ([`relations`], Algorithm 1), computes heterogeneous
//!    min/max parallel-connection windows per DC pair ([`global`],
//!    Eq. 2-3), and fine-tunes live connections with AIMD agents plus
//!    traffic-control throttling of bandwidth-rich links ([`local`],
//!    [`throttle`], [`agent`]), trading the strongest links for the
//!    weakest and raising the cluster's minimum bandwidth.
//!
//! Heterogeneity — skewed inputs, multi-cloud providers, uneven VM fleets,
//! varying cluster sizes — is handled in [`hetero`] (§3.3). The [`Wanify`]
//! facade bundles the whole pipeline behind the "WANify Interface" of the
//! paper's architecture (Fig. 3).
//!
//! Bandwidth *provenance* is decoupled from bandwidth *consumers* through
//! the [`source::BandwidthSource`] trait: planning and scheduling accept
//! any source — statically measured, runtime-measured or model-predicted —
//! through one interface, which is exactly the coupling §2.2 argues
//! against in existing systems.
//!
//! ## Quick example
//!
//! ```
//! use wanify::{MeasuredRuntime, Wanify, WanifyConfig};
//! use wanify_netsim::{paper_testbed_n, LinkModelParams, NetSim, VmType};
//!
//! let topo = paper_testbed_n(VmType::t2_medium(), 4);
//! let mut net = NetSim::new(topo, LinkModelParams::default(), 7);
//! // Gauge runtime bandwidth through any BandwidthSource (here: a live
//! // measurement; in production: the trained PredictedRuntime model) and
//! // plan heterogeneous connections that lift the weakest links.
//! let wanify = Wanify::new(WanifyConfig::default());
//! let plan = wanify.plan(&mut MeasuredRuntime::default(), &mut net)?;
//! assert!(plan.initial_conns().iter_pairs().any(|(_, _, c)| c > 1));
//! # Ok::<(), wanify::WanifyError>(())
//! ```

#![warn(unreachable_pub)]

pub mod agent;
pub mod costs;
pub mod error;
pub mod features;
pub mod global;
pub mod hetero;
pub mod interface;
pub mod local;
pub mod predictor;
pub mod relations;
pub mod source;
pub mod throttle;

pub use agent::WanifyAgent;
pub use error::WanifyError;
pub use features::FeatureVector;
pub use global::{optimize_global, GlobalPlan};
pub use hetero::{association_chunks, refactoring_vector};
pub use interface::{Wanify, WanifyConfig, WanifyPlan};
pub use local::{AimdMode, LocalOptimizer};
pub use predictor::{BandwidthAnalyzer, WanPredictionModel};
pub use relations::{infer_dc_relations, DcRelations};
pub use source::{
    BandwidthSource, MeasuredRuntime, PredictedRuntime, Pregauged, StaticIndependent,
    StaticSimultaneous,
};
pub use throttle::throttle_caps;
