//! Virtual machine types: compute capacity, NIC limits and pricing.
//!
//! Cloud providers throttle WAN bandwidth based on instance type and size
//! (paper §2.1: an m5.large has 10 Gbps of aggregate network bandwidth but
//! only up to 5 Gbps across the WAN). The experiments use unlimited-burst
//! t3.nano probes and t2.medium/t2.large workers, with a $0.05 per
//! vCPU-hour burst surcharge added to cost figures (paper §5.1).

/// A virtual machine flavor.
#[derive(Debug, Clone, PartialEq)]
pub struct VmType {
    /// Flavor name, e.g. `"t2.medium"`.
    pub name: String,
    /// Number of virtual CPUs.
    pub vcpus: u32,
    /// Memory in GiB.
    pub mem_gib: f64,
    /// WAN egress NIC cap in Mbps (already halved from LAN per §2.1).
    pub wan_egress_mbps: f64,
    /// WAN ingress NIC cap in Mbps.
    pub wan_ingress_mbps: f64,
    /// Parallel-connection budget before congestion losses kick in.
    pub conn_budget: u32,
    /// On-demand price in USD per instance-hour.
    pub price_per_hour: f64,
    /// Whether CPU bursting is unlimited (adds the vCPU-hour surcharge).
    pub unlimited_burst: bool,
}

impl VmType {
    /// AWS t3.nano with unlimited burst — the paper's bandwidth probe VM
    /// (§2.2, §5.1).
    pub fn t3_nano() -> Self {
        Self {
            name: "t3.nano".to_string(),
            vcpus: 2,
            mem_gib: 0.5,
            wan_egress_mbps: 1900.0,
            wan_ingress_mbps: 1900.0,
            conn_budget: 16,
            price_per_hour: 0.0052,
            unlimited_burst: true,
        }
    }

    /// AWS t2.medium — the paper's Spark worker VM (§5.1).
    pub fn t2_medium() -> Self {
        Self {
            name: "t2.medium".to_string(),
            vcpus: 2,
            mem_gib: 4.0,
            wan_egress_mbps: 2600.0,
            wan_ingress_mbps: 2600.0,
            conn_budget: 24,
            price_per_hour: 0.0464,
            unlimited_burst: true,
        }
    }

    /// GCP e2-medium — the multi-cloud comparison VM (§5.8.3).
    pub fn e2_medium() -> Self {
        Self {
            name: "e2-medium".to_string(),
            vcpus: 2,
            mem_gib: 4.0,
            wan_egress_mbps: 1800.0,
            wan_ingress_mbps: 1800.0,
            conn_budget: 24,
            price_per_hour: 0.0335,
            unlimited_burst: false,
        }
    }

    /// Effective compute price per hour including the unlimited-burst
    /// surcharge of $0.05 per vCPU-hour (paper §5.1).
    pub fn effective_price_per_hour(&self) -> f64 {
        let surcharge = if self.unlimited_burst { 0.05 * f64::from(self.vcpus) } else { 0.0 };
        self.price_per_hour + surcharge
    }
}

impl std::fmt::Display for VmType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
impl VmType {
    /// AWS m5.large — the §2.1 example (10 Gbps network, 5 Gbps WAN).
    fn m5_large() -> Self {
        Self {
            name: "m5.large".to_string(),
            vcpus: 2,
            mem_gib: 8.0,
            wan_egress_mbps: 5000.0,
            wan_ingress_mbps: 5000.0,
            conn_budget: 48,
            price_per_hour: 0.096,
            unlimited_burst: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_surcharge_applies_per_vcpu() {
        let vm = VmType::t2_medium();
        assert!((vm.effective_price_per_hour() - (0.0464 + 0.10)).abs() < 1e-12);
    }

    #[test]
    fn non_burst_vm_has_no_surcharge() {
        let vm = VmType::m5_large();
        assert!((vm.effective_price_per_hour() - 0.096).abs() < 1e-12);
    }

    #[test]
    fn nic_caps_ordered_by_size() {
        assert!(VmType::t3_nano().wan_egress_mbps < VmType::t2_medium().wan_egress_mbps);
        assert!(VmType::t2_medium().wan_egress_mbps < VmType::m5_large().wan_egress_mbps);
    }

    #[test]
    fn display_is_flavor_name() {
        assert_eq!(VmType::t3_nano().to_string(), "t3.nano");
    }
}
