//! Data-center topology: regions, VM fleets, distances and RTTs.

use crate::geo::{haversine_miles, Region};
use crate::grid::Grid;
use crate::vm::VmType;

/// Index of a data center within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DcId(pub usize);

impl std::fmt::Display for DcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DC{}", self.0)
    }
}

/// A data center: a region plus a homogeneous fleet of worker VMs.
///
/// WANify's *association* rule (paper §3.3.3) treats multiple VMs in one DC
/// as a single large VM whose NIC capacity is the sum of the members'; the
/// simulator follows the same aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct DataCenter {
    /// Cloud region hosting the DC.
    pub region: Region,
    /// VM flavor of every worker in this DC.
    pub vm: VmType,
    /// Number of worker VMs.
    pub vm_count: u32,
}

impl DataCenter {
    /// Aggregate WAN egress capacity across the fleet, in Mbps.
    pub fn egress_cap_mbps(&self) -> f64 {
        self.vm.wan_egress_mbps * f64::from(self.vm_count)
    }

    /// Aggregate WAN ingress capacity across the fleet, in Mbps.
    pub fn ingress_cap_mbps(&self) -> f64 {
        self.vm.wan_ingress_mbps * f64::from(self.vm_count)
    }

    /// Aggregate connection budget across the fleet.
    pub fn conn_budget(&self) -> u32 {
        self.vm.conn_budget * self.vm_count
    }

    /// Total vCPUs across the fleet.
    pub fn vcpus(&self) -> u32 {
        self.vm.vcpus * self.vm_count
    }
}

/// Error building a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Fewer than two data centers were supplied.
    TooFewDataCenters(usize),
    /// A data center was declared with zero VMs.
    EmptyDataCenter(Region),
    /// More than [`Topology::MAX_DCS`] data centers were supplied.
    TooManyDataCenters(usize),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::TooFewDataCenters(n) => {
                write!(f, "a WAN topology needs at least 2 data centers, got {n}")
            }
            TopologyError::EmptyDataCenter(r) => {
                write!(f, "data center in {r} was declared with zero VMs")
            }
            TopologyError::TooManyDataCenters(n) => {
                write!(
                    f,
                    "a WAN topology holds at most {} data centers, got {n}",
                    Topology::MAX_DCS
                )
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Builder for [`Topology`] (see [`Topology::builder`]).
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    dcs: Vec<DataCenter>,
}

impl TopologyBuilder {
    /// Adds a data center with `vm_count` VMs of flavor `vm` in `region`.
    #[must_use]
    pub fn dc(mut self, region: Region, vm: VmType, vm_count: u32) -> Self {
        self.dcs.push(DataCenter { region, vm, vm_count });
        self
    }

    /// Finalizes the topology, precomputing distances and RTTs.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if fewer than two or more than
    /// [`Topology::MAX_DCS`] DCs were added, or any DC has zero VMs.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.dcs.len() < 2 {
            return Err(TopologyError::TooFewDataCenters(self.dcs.len()));
        }
        if self.dcs.len() > Topology::MAX_DCS {
            return Err(TopologyError::TooManyDataCenters(self.dcs.len()));
        }
        if let Some(dc) = self.dcs.iter().find(|d| d.vm_count == 0) {
            return Err(TopologyError::EmptyDataCenter(dc.region));
        }
        // The haversine formula squares the only terms whose sign depends
        // on the order of its arguments, so a distance equals its mirror
        // bit for bit and a point is +0.0 miles from itself
        // (`distances_mirror_bit_for_bit` pins both facts).
        let distances = Grid::symmetric(self.dcs.len(), 0.0, |i, j| {
            haversine_miles(self.dcs[i].region.location(), self.dcs[j].region.location())
        });
        Ok(Topology { dcs: self.dcs, distances })
    }
}

/// An immutable multi-DC WAN topology.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    dcs: Vec<DataCenter>,
    distances: Grid<f64>,
}

impl Topology {
    /// The most data centers a topology holds: the transfer engine keeps
    /// the endpoints of every pair in flight as `u16`.
    pub const MAX_DCS: usize = 1 << 16;

    /// Starts building a topology.
    ///
    /// # Examples
    ///
    /// ```
    /// use wanify_netsim::{Topology, Region, VmType};
    /// let topo = Topology::builder()
    ///     .dc(Region::UsEast, VmType::t2_medium(), 1)
    ///     .dc(Region::EuWest, VmType::t2_medium(), 2)
    ///     .build()?;
    /// assert_eq!(topo.len(), 2);
    /// # Ok::<(), wanify_netsim::TopologyError>(())
    /// ```
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Number of data centers.
    pub fn len(&self) -> usize {
        self.dcs.len()
    }

    /// Always false: topologies have at least two DCs.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The data center with index `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn dc(&self, id: DcId) -> &DataCenter {
        &self.dcs[id.0]
    }

    /// Iterates over `(DcId, &DataCenter)`.
    pub fn iter(&self) -> impl Iterator<Item = (DcId, &DataCenter)> {
        self.dcs.iter().enumerate().map(|(i, dc)| (DcId(i), dc))
    }

    /// All DC ids in index order.
    pub fn ids(&self) -> Vec<DcId> {
        (0..self.dcs.len()).map(DcId).collect()
    }

    /// Great-circle distance between two DCs in miles.
    pub fn distance_miles(&self, a: DcId, b: DcId) -> f64 {
        self.distances.get(a.0, b.0)
    }

    /// Region display names, used to label rendered matrices.
    pub fn labels(&self) -> Vec<String> {
        self.dcs.iter().map(|d| d.region.name().to_string()).collect()
    }

    /// Returns a copy of the topology with `extra` additional VMs in `dc`
    /// (heterogeneous-VM experiments, paper §5.8.3).
    ///
    /// # Panics
    ///
    /// Panics if `dc` is out of range.
    pub fn with_extra_vms(&self, dc: DcId, extra: u32) -> Topology {
        let mut t = self.clone();
        t.dcs[dc.0].vm_count += extra;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_dc() -> Topology {
        Topology::builder()
            .dc(Region::UsEast, VmType::t2_medium(), 1)
            .dc(Region::UsWest, VmType::t2_medium(), 1)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_single_dc() {
        let err =
            Topology::builder().dc(Region::UsEast, VmType::t2_medium(), 1).build().unwrap_err();
        assert_eq!(err, TopologyError::TooFewDataCenters(1));
    }

    #[test]
    fn builder_rejects_zero_vm_dc() {
        let err = Topology::builder()
            .dc(Region::UsEast, VmType::t2_medium(), 1)
            .dc(Region::UsWest, VmType::t2_medium(), 0)
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::EmptyDataCenter(Region::UsWest));
    }

    #[test]
    fn builder_rejects_more_dcs_than_u16_endpoints_name() {
        let many = |n: usize| {
            let mut b = Topology::builder();
            b.dcs = vec![
                DataCenter { region: Region::UsEast, vm: VmType::t2_medium(), vm_count: 1 };
                n
            ];
            b
        };
        let err = many(Topology::MAX_DCS + 1).build().unwrap_err();
        assert_eq!(err, TopologyError::TooManyDataCenters(Topology::MAX_DCS + 1));
        assert_eq!(Topology::MAX_DCS - 1, usize::from(u16::MAX), "the largest index is a u16");
        assert!(many(8).build().is_ok());
    }

    #[test]
    fn distances_are_symmetric_and_zero_on_diagonal() {
        let t = two_dc();
        assert_eq!(t.distance_miles(DcId(0), DcId(0)), 0.0);
        let d01 = t.distance_miles(DcId(0), DcId(1));
        let d10 = t.distance_miles(DcId(1), DcId(0));
        assert!((d01 - d10).abs() < 1e-9 && d01 > 2000.0);
    }

    /// What lets `build` compute one triangle: over every region pair the
    /// formula gives the same bits either way round, and +0.0 for a pair
    /// of DCs in one place.
    #[test]
    fn distances_mirror_bit_for_bit() {
        let mut regions = Region::paper_order().to_vec();
        regions.push(Region::GcpUsCentral);
        for &a in &regions {
            assert_eq!(haversine_miles(a.location(), a.location()).to_bits(), 0.0f64.to_bits());
            for &b in &regions {
                let there = haversine_miles(a.location(), b.location());
                let back = haversine_miles(b.location(), a.location());
                assert_eq!(there.to_bits(), back.to_bits(), "{a:?} / {b:?}");
            }
        }
    }

    #[test]
    fn association_aggregates_vm_fleet() {
        let t = Topology::builder()
            .dc(Region::UsEast, VmType::t2_medium(), 3)
            .dc(Region::UsWest, VmType::t2_medium(), 1)
            .build()
            .unwrap();
        let dc = t.dc(DcId(0));
        assert!((dc.egress_cap_mbps() - 3.0 * dc.vm.wan_egress_mbps).abs() < 1e-9);
        assert_eq!(dc.conn_budget(), 72);
        assert_eq!(dc.vcpus(), 6);
    }

    #[test]
    fn with_extra_vms_only_touches_target() {
        let t = two_dc().with_extra_vms(DcId(1), 2);
        assert_eq!(t.dc(DcId(0)).vm_count, 1);
        assert_eq!(t.dc(DcId(1)).vm_count, 3);
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let msg = TopologyError::TooFewDataCenters(0).to_string();
        assert!(msg.starts_with('a') && msg.contains("at least 2"));
    }
}
