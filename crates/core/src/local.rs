//! Dynamic local optimization: AIMD fine-tuning of live connections.
//!
//! Global optimization hands every worker a per-destination window of
//! connections and achievable bandwidths. Each VM's local optimizer starts
//! at the *maximum* of the window and reacts to node-level monitoring
//! (the paper uses ifTop) every few seconds (§3.2.2):
//!
//! * **Multiplicative decrease** — monitored bandwidth significantly below
//!   target (Δ > 100 Mbps, the same significance bound used throughout the
//!   paper) signals congestion: halve connections and target, flooring at
//!   the window minimum;
//! * **Additive increase** — monitored ≈ target signals headroom: add one
//!   connection and a linear bandwidth increment, ceiling at the maximum.
//!
//! Pairs moving less than 1 MB skip the state machine entirely — their
//! utilization says nothing about the network (§3.2.2).

use crate::global::GlobalPlan;
use wanify_netsim::BwMatrix;

/// Significant bandwidth difference in Mbps (paper: 100 Mbps [13, 24]).
pub const SIGNIFICANT_DELTA_MBPS: f64 = 100.0;

/// Data-transfer size below which AIMD updates are skipped (1 MB, §3.2.2),
/// expressed in gigabits.
pub const SKIP_BELOW_GB: f64 = 8.0 / 1024.0;

/// The factor `min(1, host / off-diagonal row sum)` that scales row `src`
/// of an achievable-bandwidth matrix down to its host's egress estimate:
/// the linear model of Eq. 3 can promise more than a VM's NIC can push.
/// A zero row or a non-finite host estimate leaves the row unscaled.
pub(crate) fn feasible_factor(achievable_bw: &BwMatrix, src: usize, host_mbps: f64) -> f64 {
    let n = achievable_bw.len();
    let row_sum: f64 = (0..n).filter(|&j| j != src).map(|j| achievable_bw.get(src, j)).sum();
    if row_sum > 0.0 && host_mbps.is_finite() {
        (host_mbps / row_sum).min(1.0)
    } else {
        1.0
    }
}

/// Current AIMD mode for one destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AimdMode {
    /// Probing upward: connections grow by 1 per interval.
    AdditiveIncrease,
    /// Backing off congestion: connections and targets halve.
    MultiplicativeDecrease,
}

/// The per-VM local optimizer for one source DC.
#[derive(Debug, Clone)]
pub struct LocalOptimizer {
    src: usize,
    min_cons: Vec<u32>,
    max_cons: Vec<u32>,
    min_bw: Vec<f64>,
    max_bw: Vec<f64>,
    per_conn_bw: Vec<f64>,
    target_cons: Vec<u32>,
    target_bw: Vec<f64>,
    mode: Vec<AimdMode>,
}

impl LocalOptimizer {
    /// Creates the optimizer for source DC `src` from a global plan,
    /// starting at the maximum configuration (the paper's initial state,
    /// which "begins from maximum throughput").
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range for the plan.
    pub fn new(src: usize, plan: &GlobalPlan) -> Self {
        let n = plan.max_cons.len();
        assert!(src < n, "source DC {src} out of range for a {n}-DC plan");
        // Bandwidth targets must be *attainable* or every pair reads as
        // congested forever (the paper's targets track observed bandwidth,
        // Fig. 9). The linear achievable row can exceed the host's egress
        // estimate; scale it down proportionally when it does.
        let feas = feasible_factor(&plan.max_bw, src, plan.host_egress_mbps[src]);
        let max_bw: Vec<f64> = (0..n).map(|j| plan.max_bw.get(src, j) * feas).collect();
        let min_bw: Vec<f64> = (0..n).map(|j| plan.min_bw.get(src, j).min(max_bw[j])).collect();
        let mut o = Self {
            src,
            min_cons: (0..n).map(|j| plan.min_cons.get(src, j)).collect(),
            max_cons: (0..n).map(|j| plan.max_cons.get(src, j)).collect(),
            min_bw,
            target_bw: max_bw.clone(),
            max_bw,
            per_conn_bw: Vec::new(),
            target_cons: (0..n).map(|j| plan.max_cons.get(src, j)).collect(),
            mode: vec![AimdMode::AdditiveIncrease; n],
        };
        // Linear increment per connection, consistent with the achievable-BW
        // model of Eq. 3 (BW grows linearly with connections).
        o.per_conn_bw = (0..n)
            .map(|j| {
                let c = o.max_cons[j];
                if c > 0 {
                    o.max_bw[j] / f64::from(c)
                } else {
                    0.0
                }
            })
            .collect();
        o
    }

    /// Current target connections toward `dst`.
    pub fn target_cons(&self, dst: usize) -> u32 {
        self.target_cons[dst]
    }

    /// Current target bandwidth toward `dst`, Mbps.
    pub fn target_bw(&self, dst: usize) -> f64 {
        self.target_bw[dst]
    }

    /// Current AIMD mode toward `dst`.
    pub fn mode(&self, dst: usize) -> AimdMode {
        self.mode[dst]
    }

    /// Source DC index this optimizer runs on.
    pub fn src(&self) -> usize {
        self.src
    }

    /// One AIMD step for destination `dst` given the monitored bandwidth
    /// and the remaining payload on the pair. Returns the new target
    /// connection count.
    pub fn update(&mut self, dst: usize, monitored_mbps: f64, remaining_gb: f64) -> u32 {
        if dst == self.src || remaining_gb < SKIP_BELOW_GB {
            return self.target_cons[dst];
        }
        if self.target_bw[dst] - monitored_mbps > SIGNIFICANT_DELTA_MBPS {
            // Congestion: multiplicative decrease, floored at the window min.
            self.mode[dst] = AimdMode::MultiplicativeDecrease;
            self.target_cons[dst] = (self.target_cons[dst] / 2).max(self.min_cons[dst]);
            self.target_bw[dst] = (self.target_bw[dst] / 2.0).max(self.min_bw[dst]);
        } else {
            // Network keeping up: additive increase toward the window max.
            self.mode[dst] = AimdMode::AdditiveIncrease;
            self.target_cons[dst] = (self.target_cons[dst] + 1).min(self.max_cons[dst]);
            self.target_bw[dst] =
                (self.target_bw[dst] + self.per_conn_bw[dst]).min(self.max_bw[dst]);
        }
        self.target_cons[dst]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::optimize_global;
    use crate::relations::infer_dc_relations;

    fn plan() -> GlobalPlan {
        let bw = BwMatrix::from_rows(
            3,
            vec![1000.0, 400.0, 120.0, 380.0, 1000.0, 130.0, 110.0, 120.0, 1000.0],
        );
        let rel = infer_dc_relations(&bw, 30.0).unwrap();
        optimize_global(&bw, &rel, 8, None, None).unwrap()
    }

    #[test]
    fn starts_at_maximum_configuration() {
        let p = plan();
        let o = LocalOptimizer::new(0, &p);
        assert_eq!(o.target_cons(2), p.max_cons.get(0, 2));
        // Bandwidth targets start at the feasibility-scaled maximum: never
        // above the linear ceiling, never zero.
        assert!(o.target_bw(2) > 0.0);
        assert!(o.target_bw(2) <= p.max_bw.get(0, 2) + 1e-9);
        assert_eq!(o.mode(2), AimdMode::AdditiveIncrease);
    }

    #[test]
    fn feasibility_scaling_preserves_row_shape() {
        let p = plan();
        let o = LocalOptimizer::new(0, &p);
        // Ratios between destinations match the plan's achievable ratios.
        let plan_ratio = p.max_bw.get(0, 1) / p.max_bw.get(0, 2);
        let target_ratio = o.target_bw(1) / o.target_bw(2);
        assert!((plan_ratio - target_ratio).abs() < 1e-9);
    }

    #[test]
    fn congestion_halves_connections() {
        let p = plan();
        let mut o = LocalOptimizer::new(0, &p);
        let before = o.target_cons(2); // 8
        let target = o.target_bw(2);
        // Monitored significantly below the target ⇒ decrease.
        let after = o.update(2, (target - 150.0).max(0.0), 1.0);
        assert_eq!(o.mode(2), AimdMode::MultiplicativeDecrease);
        assert_eq!(after, before / 2);
        assert!(o.target_bw(2) < target);
    }

    #[test]
    fn decrease_floors_at_window_minimum() {
        let p = plan();
        let mut o = LocalOptimizer::new(0, &p);
        for _ in 0..10 {
            o.update(2, 0.0, 1.0);
        }
        assert_eq!(o.target_cons(2), p.min_cons.get(0, 2));
        assert!(o.target_bw(2) >= p.min_bw.get(0, 2) - 1e-9);
    }

    #[test]
    fn recovery_increases_additively() {
        let p = plan();
        let mut o = LocalOptimizer::new(0, &p);
        o.update(2, 0.0, 1.0); // drop to 4 connections
        let dropped = o.target_cons(2);
        // Monitored ≈ target ⇒ increase by exactly one.
        let target = o.target_bw(2);
        let after = o.update(2, target, 1.0);
        assert_eq!(after, dropped + 1);
        assert_eq!(o.mode(2), AimdMode::AdditiveIncrease);
    }

    #[test]
    fn increase_saturates_at_window_maximum() {
        let p = plan();
        let mut o = LocalOptimizer::new(0, &p);
        for _ in 0..20 {
            let t = o.target_bw(2);
            o.update(2, t, 1.0);
        }
        assert_eq!(o.target_cons(2), p.max_cons.get(0, 2));
        assert!(o.target_bw(2) <= p.max_bw.get(0, 2) + 1e-9);
    }

    #[test]
    fn tiny_transfers_skip_the_state_machine() {
        let p = plan();
        let mut o = LocalOptimizer::new(0, &p);
        let before = o.target_cons(2);
        // 0.5 MB remaining: far below the 1 MB floor.
        let after = o.update(2, 0.0, 0.0005 * 8.0 / 1024.0);
        assert_eq!(after, before, "sub-1MB pairs must not toggle modes");
        assert_eq!(o.mode(2), AimdMode::AdditiveIncrease);
    }

    #[test]
    fn own_dc_is_ignored() {
        let p = plan();
        let mut o = LocalOptimizer::new(1, &p);
        let c = o.update(1, 0.0, 5.0);
        assert_eq!(c, o.target_cons(1));
    }

    #[test]
    fn paper_example_thresholds() {
        // §3.2.2: min-max {1000,800,240}-{1000,1600,600} Mbps means DC0-DC1
        // enters decrease mode below 1500 Mbps monitored.
        let p = plan();
        let mut o = LocalOptimizer::new(0, &p);
        let target = o.target_bw(1);
        // Just inside the significance band: stays in increase mode.
        o.update(1, target - 99.0, 1.0);
        assert_eq!(o.mode(1), AimdMode::AdditiveIncrease);
        // Reset and cross the band: decrease.
        let mut o = LocalOptimizer::new(0, &p);
        o.update(1, target - 101.0, 1.0);
        assert_eq!(o.mode(1), AimdMode::MultiplicativeDecrease);
    }
}
