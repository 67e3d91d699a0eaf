//! Query cost accounting: compute, network egress and storage.
//!
//! The paper's cost figures include compute, network and storage (§5.1),
//! with a $0.05/vCPU-hour surcharge for unlimited CPU bursts, and note
//! that inter-region data transfer is the dominant unit price (§2.2).

use wanify_netsim::{Region, Topology};

/// Inter-region egress price in USD per GB for traffic leaving `region`
/// (AWS/GCP published inter-region transfer rates, rounded).
pub fn egress_price_per_gb(region: Region) -> f64 {
    match region {
        Region::UsEast | Region::UsWest => 0.02,
        Region::EuWest => 0.02,
        Region::ApSouth => 0.086,
        Region::ApSoutheast1 => 0.09,
        Region::ApSoutheast2 => 0.098,
        Region::ApNortheast => 0.09,
        Region::SaEast => 0.138,
        Region::GcpUsCentral => 0.08,
    }
}

/// S3-style storage price in USD per GB-month (§5.1 uses S3-mounted HDFS).
pub const STORAGE_PRICE_PER_GB_MONTH: f64 = 0.023;

/// Hours per billing month used to prorate storage.
const HOURS_PER_MONTH: f64 = 730.0;

/// Itemized cost of one query execution, in USD.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// VM compute cost including burst surcharges.
    pub compute_usd: f64,
    /// Inter-region egress cost.
    pub network_usd: f64,
    /// Prorated input storage cost.
    pub storage_usd: f64,
}

impl CostBreakdown {
    /// Sum of all components.
    pub fn total_usd(&self) -> f64 {
        self.compute_usd + self.network_usd + self.storage_usd
    }
}

impl std::fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "${:.3} (compute ${:.3}, network ${:.3}, storage ${:.3})",
            self.total_usd(),
            self.compute_usd,
            self.network_usd,
            self.storage_usd
        )
    }
}

/// Prices a query execution on a topology at the published unit prices.
#[derive(Debug, Clone, Default)]
pub struct CostModel;

impl CostModel {
    /// Creates the default model.
    pub fn new() -> Self {
        Self
    }

    /// Prices a run: `duration_s` of the whole fleet plus per-source egress
    /// gigabytes and the stored input.
    ///
    /// # Panics
    ///
    /// Panics if `egress_gb_per_dc.len()` differs from the topology size.
    pub fn price(
        &self,
        topo: &Topology,
        duration_s: f64,
        egress_gb_per_dc: &[f64],
        stored_input_gb: f64,
    ) -> CostBreakdown {
        assert_eq!(egress_gb_per_dc.len(), topo.len(), "egress vector must have one entry per DC");
        let hours = duration_s / 3600.0;
        let compute_usd: f64 = topo
            .iter()
            .map(|(_, dc)| f64::from(dc.vm_count) * dc.vm.effective_price_per_hour() * hours)
            .sum();
        let network_usd: f64 = topo
            .iter()
            .zip(egress_gb_per_dc)
            .map(|((_, dc), gb)| egress_price_per_gb(dc.region) * gb)
            .sum();
        let storage_usd = stored_input_gb * STORAGE_PRICE_PER_GB_MONTH * hours / HOURS_PER_MONTH;
        CostBreakdown { compute_usd, network_usd, storage_usd }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanify_netsim::{paper_testbed, VmType};

    #[test]
    fn compute_cost_scales_with_duration() {
        let topo = paper_testbed(VmType::t2_medium());
        let model = CostModel::new();
        let short = model.price(&topo, 600.0, &[0.0; 8], 0.0);
        let long = model.price(&topo, 1200.0, &[0.0; 8], 0.0);
        assert!((long.compute_usd / short.compute_usd - 2.0).abs() < 1e-9);
    }

    #[test]
    fn network_cost_uses_source_region_prices() {
        let topo = paper_testbed(VmType::t2_medium());
        let model = CostModel::new();
        let mut from_us = vec![0.0; 8];
        from_us[0] = 10.0; // US East: $0.02/GB
        let mut from_sa = vec![0.0; 8];
        from_sa[7] = 10.0; // SA East: $0.138/GB
        let us = model.price(&topo, 0.0, &from_us, 0.0);
        let sa = model.price(&topo, 0.0, &from_sa, 0.0);
        assert!((us.network_usd - 0.2).abs() < 1e-9);
        assert!((sa.network_usd - 1.38).abs() < 1e-9);
    }

    #[test]
    fn storage_cost_is_small_but_positive() {
        let topo = paper_testbed(VmType::t2_medium());
        let c = CostModel::new().price(&topo, 3600.0, &[0.0; 8], 100.0);
        assert!(c.storage_usd > 0.0 && c.storage_usd < 0.01);
    }

    #[test]
    fn burst_surcharge_reflected_in_compute() {
        let topo = paper_testbed(VmType::t2_medium());
        let c = CostModel::new().price(&topo, 3600.0, &[0.0; 8], 0.0);
        // 8 VMs × ($0.0464 + 2 vCPU × $0.05) ≈ $1.17 per hour.
        assert!((c.compute_usd - 8.0 * 0.1464).abs() < 1e-6);
    }

    #[test]
    fn total_sums_components() {
        let b = CostBreakdown { compute_usd: 1.0, network_usd: 2.0, storage_usd: 0.5 };
        assert_eq!(b.total_usd(), 3.5);
        assert!(b.to_string().contains("compute"));
    }

    #[test]
    #[should_panic]
    fn egress_vector_length_checked() {
        let topo = paper_testbed(VmType::t2_medium());
        let _ = CostModel::new().price(&topo, 1.0, &[0.0; 3], 0.0);
    }
}
