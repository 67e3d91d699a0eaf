//! Bandwidth-monitoring cost model (paper §2.2, Eq. 1 and Table 2).
//!
//! Measuring runtime bandwidth across all DC pairs is expensive: each
//! monitoring event costs `N · (x·y + z)` where `x` is per-instance-second
//! compute, `y` the monitoring duration and `z` the per-instance network
//! cost of the probe traffic, repeated `O` times a year (Eq. 1). WANify
//! replaces 20-second runs with 1-second snapshots plus a prediction
//! model, cutting the annual bill by roughly an order of magnitude
//! (Table 2 reports ~96% savings).

use wanify_netsim::VmType;

/// `O` — monitoring occurrences per year. The paper follows Tetrium's
/// cadence of every 30 minutes ⇒ 17,520 events.
pub const OCCURRENCES_PER_YEAR: f64 = 17_520.0;

/// `y` — stable runtime monitoring duration in seconds (≥ 20 s).
pub const RUNTIME_DURATION_S: f64 = 20.0;

/// Snapshot duration in seconds.
pub const SNAPSHOT_DURATION_S: f64 = 1.0;

/// Average probe bandwidth per instance, Mbps.
pub const AVG_PROBE_BW_MBPS: f64 = 200.0;

/// Inter-region transfer price, USD/GB.
pub const NETWORK_PRICE_PER_GB: f64 = 0.02;

/// Training dataset size in samples.
pub const TRAINING_SAMPLES: usize = 1000;

/// `x` — per-instance-second compute cost in USD of the probe VM, the
/// paper's unlimited-burst t3.nano.
fn instance_cost_per_s() -> f64 {
    VmType::t3_nano().effective_price_per_hour() / 3600.0
}

/// `z(y)` — per-instance network cost of probing for `y` seconds.
fn network_cost(duration_s: f64) -> f64 {
    let gb = AVG_PROBE_BW_MBPS * duration_s / 8.0 / 1024.0;
    gb * NETWORK_PRICE_PER_GB
}

/// Eq. 1: annual cost of full runtime monitoring for `n` DCs.
fn annual_runtime_monitoring(n: usize) -> f64 {
    let per_event = instance_cost_per_s() * RUNTIME_DURATION_S + network_cost(RUNTIME_DURATION_S);
    OCCURRENCES_PER_YEAR * n as f64 * per_event
}

/// One-time training cost for `n` DCs: every sample needs a snapshot
/// *and* a stable runtime measurement.
fn training_cost(n: usize) -> f64 {
    let per_sample = instance_cost_per_s() * (RUNTIME_DURATION_S + SNAPSHOT_DURATION_S)
        + network_cost(RUNTIME_DURATION_S)
        + network_cost(SNAPSHOT_DURATION_S);
    TRAINING_SAMPLES as f64 * n as f64 * per_sample
}

/// Annual cost of snapshot-based prediction for `n` DCs.
fn annual_prediction(n: usize) -> f64 {
    let per_event = instance_cost_per_s() * SNAPSHOT_DURATION_S + network_cost(SNAPSHOT_DURATION_S);
    OCCURRENCES_PER_YEAR * n as f64 * per_event
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Cluster size.
    pub n_dcs: usize,
    /// Annual runtime-monitoring cost, USD.
    pub runtime_monitoring_usd: f64,
    /// One-time model training cost, USD.
    pub training_usd: f64,
    /// Annual prediction (snapshot) cost, USD.
    pub predictions_usd: f64,
}

/// Regenerates Table 2 for the paper's cluster sizes {4, 6, 8}.
pub fn table2() -> Vec<Table2Row> {
    [4usize, 6, 8]
        .iter()
        .map(|&n| Table2Row {
            n_dcs: n,
            runtime_monitoring_usd: annual_runtime_monitoring(n),
            training_usd: training_cost(n),
            predictions_usd: annual_prediction(n),
        })
        .collect()
}

/// Overall savings fraction of prediction vs runtime monitoring across the
/// Table 2 cluster sizes (paper: ~96%).
pub fn table2_savings_pct() -> f64 {
    let rows = table2();
    let monitoring: f64 = rows.iter().map(|r| r.runtime_monitoring_usd).sum();
    let prediction: f64 = rows.iter().map(|r| r.training_usd + r.predictions_usd).sum();
    100.0 * (1.0 - prediction / monitoring)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_monitoring_matches_paper_magnitude() {
        // Paper Table 2: $703 / $1055 / $1406 for N = 4 / 6 / 8.
        let c4 = annual_runtime_monitoring(4);
        assert!((600.0..850.0).contains(&c4), "N=4 annual ≈ $703, got {c4:.0}");
        let c8 = annual_runtime_monitoring(8);
        assert!((c8 / c4 - 2.0).abs() < 1e-9, "cost is linear in N");
    }

    #[test]
    fn savings_are_large() {
        let pct = table2_savings_pct();
        assert!(pct > 85.0, "paper reports ~96% savings, got {pct:.1}%");
    }

    #[test]
    fn prediction_is_much_cheaper_per_year() {
        for n in [4, 6, 8] {
            assert!(annual_prediction(n) < annual_runtime_monitoring(n) / 10.0);
        }
    }

    #[test]
    fn table_has_three_rows_in_order() {
        let rows = table2();
        let ns: Vec<usize> = rows.iter().map(|r| r.n_dcs).collect();
        assert_eq!(ns, vec![4, 6, 8]);
        assert!(rows[0].runtime_monitoring_usd < rows[2].runtime_monitoring_usd);
    }

    #[test]
    fn network_cost_scales_with_duration() {
        assert!((network_cost(20.0) / network_cost(1.0) - 20.0).abs() < 1e-9);
    }
}
