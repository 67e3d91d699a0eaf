//! Prediction features (paper Table 3).
//!
//! One feature vector describes one directed DC pair at probe time:
//! cluster size `N`, real-time snapshot bandwidth `S_BWij`, receiver
//! memory utilization `Md`, sender CPU load `Ci`, retransmissions `Nr`,
//! and the physical distance `Dij` between the VMs' regions.

use wanify_netsim::{DcId, ProbeReading, Topology};

/// Number of features per sample.
pub const FEATURE_COUNT: usize = 6;

/// The Table-3 feature vector for one directed DC pair.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    /// `N` — number of DCs in the VM-based cluster.
    pub n_dcs: f64,
    /// `S_BWij` — 1-second snapshot bandwidth between the pair, Mbps.
    pub snapshot_bw_mbps: f64,
    /// `Md` — memory utilization at the receiving end, `[0, 1]`.
    pub mem_util_dst: f64,
    /// `Ci` — CPU load at the sending VM, `[0, 1]`.
    pub cpu_load_src: f64,
    /// `Nr` — retransmissions observed on the pair's hosts.
    pub retransmissions: f64,
    /// `Dij` — physical distance between the VMs in miles.
    pub distance_miles: f64,
}

impl FeatureVector {
    /// Builds the vector for the directed pair `src → dst` from a probe.
    ///
    /// # Panics
    ///
    /// Panics if the probe's size disagrees with the topology.
    pub fn from_probe(probe: &ProbeReading, topo: &Topology, src: DcId, dst: DcId) -> Self {
        assert_eq!(probe.bw.len(), topo.len(), "probe and topology sizes differ");
        Self {
            n_dcs: topo.len() as f64,
            snapshot_bw_mbps: probe.bw.at(src, dst),
            mem_util_dst: probe.hosts[dst.0].mem_util,
            cpu_load_src: probe.hosts[src.0].cpu_load,
            retransmissions: f64::from(
                probe.hosts[src.0].retransmissions + probe.hosts[dst.0].retransmissions,
            ),
            distance_miles: topo.distance_miles(src, dst),
        }
    }

    /// Row form consumed by the Random Forest, in Table-3 order.
    pub fn to_array(&self) -> [f64; FEATURE_COUNT] {
        [
            self.n_dcs,
            self.snapshot_bw_mbps,
            self.mem_util_dst,
            self.cpu_load_src,
            self.retransmissions,
            self.distance_miles,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanify_netsim::{paper_testbed_n, ConnMatrix, LinkModelParams, NetSim, VmType};

    #[test]
    fn builds_from_probe_with_all_features() {
        let topo = paper_testbed_n(VmType::t2_medium(), 3);
        let mut sim = NetSim::new(topo, LinkModelParams::frozen(), 5);
        let probe = sim.snapshot(&ConnMatrix::filled(3, 1));
        let fv = FeatureVector::from_probe(&probe, sim.topology(), DcId(0), DcId(2));
        assert_eq!(fv.n_dcs, 3.0);
        assert!(fv.snapshot_bw_mbps > 0.0);
        assert!(fv.distance_miles > 5000.0, "US East → AP South is far");
        assert_eq!(fv.to_array()[1], fv.snapshot_bw_mbps);
    }

    #[test]
    fn direction_matters() {
        let topo = paper_testbed_n(VmType::t2_medium(), 3);
        let mut sim = NetSim::new(topo, LinkModelParams::frozen(), 6);
        let probe = sim.snapshot(&ConnMatrix::filled(3, 1));
        let ab = FeatureVector::from_probe(&probe, sim.topology(), DcId(0), DcId(1));
        let ba = FeatureVector::from_probe(&probe, sim.topology(), DcId(1), DcId(0));
        assert_eq!(ab.distance_miles, ba.distance_miles);
        // Receiver-side memory differs between the two directions in general.
        assert_eq!(ab.mem_util_dst, probe.hosts[1].mem_util);
        assert_eq!(ba.mem_util_dst, probe.hosts[0].mem_util);
    }
}
