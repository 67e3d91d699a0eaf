//! # wanify-netsim
//!
//! A deterministic, flow-level wide-area-network (WAN) simulator that stands
//! in for the AWS multi-region testbed used by the WANify paper (IISWC'25).
//!
//! The simulator models the four structural phenomena that WANify exploits:
//!
//! 1. **Window-limited single connections** — a single TCP connection over a
//!    long-RTT path achieves `K / RTT^alpha` Mbps, so distant regions see far
//!    less throughput than nearby ones (US East ↔ US West ≈ 1700 Mbps vs
//!    US East ↔ AP Southeast ≈ 121 Mbps with default calibration).
//! 2. **Runtime contention** — simultaneous all-to-all transfers share each
//!    VM's egress/ingress capacity under RTT-biased weighted max-min
//!    fairness, so statically measured bandwidth does not match runtime
//!    bandwidth (paper Table 1).
//! 3. **Connection-count leverage** — a flow's ceiling grows with its number
//!    of parallel connections, and its share of a contended NIC grows with
//!    its RTT-biased weight, so *heterogeneous* connection counts can raise
//!    the weakest link at the cost of the strongest (paper Fig. 2).
//! 4. **Congestion collapse** — oversubscribing a host's connection budget
//!    wastes goodput on retransmissions, so uniform parallelism stops helping
//!    (paper §2.2).
//!
//! Everything is seeded and reproducible; temporal dynamics follow an
//! Ornstein-Uhlenbeck process per directed region pair (paper §5.7).
//!
//! ## Performance model
//!
//! One transfer loop (in [`engine`]) moves every payload. It coalesces
//! epochs between *events* — pair drains, submissions, caller deadlines,
//! fault boundaries, dynamics ticks and hook wakes — performing one
//! fairness solve per event and jumping whole segments at a time,
//! bit-identically to per-epoch stepping (see the [`sim`] module docs).
//! Live dynamics stay coalescible because [`Dynamics`] is quantized onto
//! a configurable tick ([`LinkModelParams::dynamics_tick_s`]); hooks stay
//! coalescible when they schedule their wakes via
//! [`EpochHook::next_wake`], as the AIMD agent does. Only the legacy
//! continuous dynamics (`dynamics_tick_s <= 0`) and hooks that decline to
//! schedule force stepping every epoch.
//!
//! Every solve reads one pair-major description of its flows (see the
//! [`fairness`] module docs), filed afresh by one counting pass: the loop
//! files its pairs in flight at every event, and the stateless
//! [`NetSim::allocate_rates_with`] under gauges and probes files its flow
//! list into a reusable [`RateScratch`]. Both are allocation-free once
//! their buffers have grown.
//!
//! The loop has two entry points. [`NetSim::run_transfers`] is the
//! blocking one: a single flow group with the network to itself, run to
//! completion, optionally under an [`EpochHook`]. For multi-tenant
//! workloads — many queries' shuffles contending on one WAN — the
//! resumable [`NetEngine`] adds job-tagged flow groups submitted
//! mid-flight, completion events and caller deadlines, still at one
//! fairness solve per event. The [`backbone`] module couples *several*
//! such engines — one per fleet shard — through finite inter-group
//! trunks divided by a coarse epoch exchange, so shards coalesce
//! independently between sync points and scale out across cores.
//!
//! ## Quick example
//!
//! ```
//! use wanify_netsim::{NetSim, Topology, Region, VmType, LinkModelParams};
//!
//! let topo = Topology::builder()
//!     .dc(Region::UsEast, VmType::t2_medium(), 1)
//!     .dc(Region::UsWest, VmType::t2_medium(), 1)
//!     .dc(Region::ApSoutheast1, VmType::t2_medium(), 1)
//!     .build()
//!     .expect("at least two data centers");
//! let mut sim = NetSim::new(topo, LinkModelParams::default(), 42);
//! let static_bw = sim.measure_static_independent();
//! let runtime = sim.measure_static_simultaneous();
//! assert!(static_bw.max_off_diag() > runtime.min_off_diag());
//! ```

pub mod backbone;
pub mod dynamics;
pub mod engine;
pub mod fairness;
pub mod faults;
pub mod flow;
pub mod geo;
pub mod grid;
pub mod probe;
pub mod sim;
pub mod stats;
pub mod topology;
pub mod vm;

mod params;

pub use backbone::{Backbone, BackboneHierarchy};
pub use dynamics::Dynamics;
pub use engine::{GroupId, GroupReport, NetEngine};
pub use fairness::SolveShape;
pub use faults::{FaultEvent, FaultKind, FaultSchedule};
pub use flow::{FlowId, FlowSpec, Transfer, TransferReport};
pub use geo::{haversine_miles, GeoPoint, Region};
pub use grid::{BwMatrix, ConnMatrix, Grid};
pub use params::LinkModelParams;
pub use probe::{HostMetrics, ProbeReading};
pub use sim::{EpochCtx, EpochHook, NetSim, RateScratch, RunStats};
pub use topology::{DataCenter, DcId, Topology, TopologyBuilder, TopologyError};
pub use vm::VmType;

/// Convenience constructor for the paper's 8-region AWS testbed (Fig. 1)
/// with one VM of `vm` per data center.
///
/// The regions are, in index order: US East (N. Virginia), US West
/// (N. California), AP South (Mumbai), AP Southeast (Singapore),
/// AP Southeast 2 (Sydney), AP Northeast (Tokyo), EU West (Ireland) and
/// SA East (São Paulo).
///
/// # Examples
///
/// ```
/// use wanify_netsim::{paper_testbed, VmType};
/// let topo = paper_testbed(VmType::t2_medium());
/// assert_eq!(topo.len(), 8);
/// ```
pub fn paper_testbed(vm: VmType) -> Topology {
    Topology::builder()
        .dc(Region::UsEast, vm.clone(), 1)
        .dc(Region::UsWest, vm.clone(), 1)
        .dc(Region::ApSouth, vm.clone(), 1)
        .dc(Region::ApSoutheast1, vm.clone(), 1)
        .dc(Region::ApSoutheast2, vm.clone(), 1)
        .dc(Region::ApNortheast, vm.clone(), 1)
        .dc(Region::EuWest, vm.clone(), 1)
        .dc(Region::SaEast, vm, 1)
        .build()
        .expect("paper testbed has 8 DCs")
}

/// A testbed restricted to the first `n` regions of [`paper_testbed`],
/// used by the varying-cluster-size experiments (paper §3.3.2, Fig. 11a).
///
/// # Panics
///
/// Panics if `n < 2` or `n > 8`.
pub fn paper_testbed_n(vm: VmType, n: usize) -> Topology {
    assert!((2..=8).contains(&n), "paper testbed supports 2..=8 DCs, got {n}");
    let regions = Region::paper_order();
    let mut b = Topology::builder();
    for region in regions.iter().take(n) {
        b = b.dc(*region, vm.clone(), 1);
    }
    b.build().expect("n >= 2 DCs")
}

/// A testbed of `n` DCs tiling the eight paper regions in
/// [`Region::paper_order`] — DC `i` lives in region `i % 8` — for the
/// 64+ DC scale experiments the 8-region testbed cannot express. Every
/// region hosts `ceil(n / 8)`-ish DCs, so [`Backbone::regional`] /
/// [`backbone::BackboneHierarchy::regional_continental`] give it a
/// natural two-tier decomposition.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn paper_testbed_tiled(vm: VmType, n: usize) -> Topology {
    assert!(n >= 2, "a tiled testbed needs at least 2 DCs, got {n}");
    let regions = Region::paper_order();
    let mut b = Topology::builder();
    for i in 0..n {
        b = b.dc(regions[i % regions.len()], vm.clone(), 1);
    }
    b.build().expect("n >= 2 DCs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_has_eight_regions() {
        let topo = paper_testbed(VmType::t2_medium());
        assert_eq!(topo.len(), 8);
        assert_eq!(topo.dc(DcId(0)).region, Region::UsEast);
        assert_eq!(topo.dc(DcId(7)).region, Region::SaEast);
    }

    #[test]
    fn paper_testbed_n_truncates() {
        let topo = paper_testbed_n(VmType::t3_nano(), 3);
        assert_eq!(topo.len(), 3);
        assert_eq!(topo.dc(DcId(2)).region, Region::ApSouth);
    }

    #[test]
    #[should_panic]
    fn paper_testbed_n_rejects_one_dc() {
        let _ = paper_testbed_n(VmType::t3_nano(), 1);
    }
}
