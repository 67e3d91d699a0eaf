//! Heterogeneity handling (paper §3.3).
//!
//! * **Skewed input data** (§3.3.1) — skew weights `ws` flow into
//!   [`crate::global::optimize_global`].
//! * **Varying cluster sizes** (§3.3.2) — handled by training the
//!   prediction model across sizes; see [`crate::predictor`].
//! * **Heterogeneous providers** (§3.3.3) — [`refactoring_vector`] builds
//!   the a-priori `rvec` from each DC's provider.
//! * **Heterogeneous VM counts** (§3.3.3) — [`association_chunks`] splits
//!   a DC-level connection count across the DC's VMs proportionally.

use wanify_netsim::geo::Provider;
use wanify_netsim::Topology;

/// Bandwidth factor applied to DCs of a non-primary provider, calibrated
/// against the cross-provider penalty observed in measurements (§3.3.3;
/// the simulator's cross-provider factor is 0.8).
const CROSS_PROVIDER_RVEC: f64 = 0.8;

/// Builds the refactoring vector `rvec` for a topology: 1.0 for DCs on the
/// majority provider, 0.8-scaled otherwise. By default
/// (single provider) this is all ones, making refactoring a no-op as the
/// paper specifies.
pub fn refactoring_vector(topo: &Topology) -> Vec<f64> {
    let aws_count = topo.iter().filter(|(_, dc)| dc.region.provider() == Provider::Aws).count();
    let majority = if aws_count * 2 >= topo.len() { Provider::Aws } else { Provider::Gcp };
    topo.iter()
        .map(|(_, dc)| if dc.region.provider() == majority { 1.0 } else { CROSS_PROVIDER_RVEC })
        .collect()
}

/// Splits `total_conns` for one DC pair across `vm_count` VMs as evenly as
/// possible (the paper's association: global optimization treats the DC as
/// one large VM, then results are "proportionally chunked and distributed
/// among workers", §3.3.3).
///
/// Every VM receives at least one connection when `total_conns >= vm_count`;
/// otherwise the first `total_conns` VMs receive one each.
///
/// # Panics
///
/// Panics if `vm_count == 0`.
pub fn association_chunks(total_conns: u32, vm_count: u32) -> Vec<u32> {
    assert!(vm_count > 0, "a DC must have at least one VM");
    let base = total_conns / vm_count;
    let rem = total_conns % vm_count;
    (0..vm_count).map(|i| base + u32::from(i < rem)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanify_netsim::{Region, Topology, VmType};

    #[test]
    fn single_provider_rvec_is_all_ones() {
        let topo = wanify_netsim::paper_testbed(VmType::t2_medium());
        assert_eq!(refactoring_vector(&topo), vec![1.0; 8]);
    }

    #[test]
    fn multi_cloud_rvec_marks_minority_provider() {
        let topo = Topology::builder()
            .dc(Region::UsEast, VmType::t2_medium(), 1)
            .dc(Region::UsWest, VmType::t2_medium(), 1)
            .dc(Region::GcpUsCentral, VmType::e2_medium(), 1)
            .build()
            .unwrap();
        let rv = refactoring_vector(&topo);
        assert_eq!(rv[0], 1.0);
        assert_eq!(rv[2], CROSS_PROVIDER_RVEC);
    }

    #[test]
    fn chunks_split_evenly_with_remainder_up_front() {
        assert_eq!(association_chunks(8, 3), vec![3, 3, 2]);
        assert_eq!(association_chunks(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(association_chunks(0, 2), vec![0, 0]);
        let total: u32 = association_chunks(17, 5).iter().sum();
        assert_eq!(total, 17);
    }

    #[test]
    #[should_panic]
    fn zero_vms_rejected() {
        let _ = association_chunks(4, 0);
    }
}
