//! Kimchi: network-cost-aware geo-distributed placement.
//!
//! Reimplementation of the placement policy of "Network cost-aware
//! geo-distributed data analytics system" (Oh et al., TPDS'21), the
//! paper's second GDA baseline. Kimchi balances stage latency against
//! inter-region egress dollars: reduce fractions favour DCs that are both
//! fast to reach *and* hold expensive-to-export data locally.

use super::{migrate_stranded, normalize, PlacementCtx, Scheduler};
use crate::cost::egress_price_per_gb;
use wanify_netsim::DcId;

/// Network-cost-aware scheduler.
#[derive(Debug, Clone)]
pub struct Kimchi {
    /// Strength of the cost term; 0 reduces Kimchi to pure latency
    /// equalization (Tetrium-like).
    pub cost_weight: f64,
}

impl Default for Kimchi {
    fn default() -> Self {
        Self { cost_weight: 0.6 }
    }
}

impl Kimchi {
    /// Creates the scheduler with the default latency/cost blend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Kimchi {
    fn name(&self) -> &str {
        "kimchi"
    }

    /// Reduce weight at `j` is `1/unit_time_j`, boosted by how much egress
    /// cost is avoided by keeping `j`'s own (priced) output local.
    fn place_reduce(&self, ctx: &PlacementCtx<'_>) -> Vec<f64> {
        let total_out: f64 = ctx.out_gb.iter().sum();
        let weights: Vec<f64> = (0..ctx.n())
            .map(|j| {
                // Egress avoided per unit fraction placed at j: j's own
                // output priced at j's region egress rate.
                let price = egress_price_per_gb(ctx.topo.dc(DcId(j)).region);
                let avoided = if total_out > 0.0 { price * ctx.out_gb[j] / total_out } else { 0.0 };
                ctx.latency_weight(j) * (1.0 + self.cost_weight * avoided / 0.138)
            })
            .collect();
        normalize(&weights)
    }

    /// Kimchi migrates stranded input like Tetrium, but only when the move
    /// itself is cheap (small data or cheap source region).
    fn migrate_input(&self, ctx: &PlacementCtx<'_>) -> Option<Vec<f64>> {
        let total: f64 = ctx.out_gb.iter().sum();
        // Cost guard: do not pay to move a large share of pricey data.
        migrate_stranded(ctx, 0.25, |i, gb| {
            gb <= 0.35 * total || egress_price_per_gb(ctx.topo.dc(DcId(i)).region) <= 0.05
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::ctx_fixture;
    use super::*;
    use wanify_netsim::BwMatrix;

    #[test]
    fn still_avoids_weak_links() {
        let (topo, bw, out) = ctx_fixture();
        let ctx = PlacementCtx { topo: &topo, bw: &bw, out_gb: &out, compute_s_per_gb: 0.0 };
        let r = Kimchi::new().place_reduce(&ctx);
        assert!(r[3] < 0.7 * r[0], "weak DC3 avoided: {r:?}");
    }

    #[test]
    fn cost_term_biases_toward_expensive_regions_data() {
        // Equal bandwidth everywhere; DC3 (AP SE, $0.09/GB) holds most data.
        let (topo, _, _) = ctx_fixture();
        let bw = BwMatrix::from_fn(4, |i, j| if i == j { 0.0 } else { 800.0 });
        let out = vec![1.0, 1.0, 1.0, 9.0];
        let ctx = PlacementCtx { topo: &topo, bw: &bw, out_gb: &out, compute_s_per_gb: 0.0 };
        let pure_latency = Kimchi { cost_weight: 0.0 }.place_reduce(&ctx);
        let cost_aware = Kimchi::new().place_reduce(&ctx);
        assert!(
            cost_aware[3] > pure_latency[3],
            "cost-aware ({:?}) should keep pricey AP SE data local vs ({:?})",
            cost_aware,
            pure_latency
        );
    }

    #[test]
    fn zero_cost_weight_matches_latency_equalization() {
        let (topo, bw, out) = ctx_fixture();
        let ctx = PlacementCtx { topo: &topo, bw: &bw, out_gb: &out, compute_s_per_gb: 0.0 };
        let k = Kimchi { cost_weight: 0.0 }.place_reduce(&ctx);
        let t = super::super::Tetrium::new().place_reduce(&ctx);
        for (a, b) in k.iter().zip(&t) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn migration_respects_cost_guard() {
        let (topo, _, _) = ctx_fixture();
        // DC3 (AP SE: expensive) is stranded AND holds most of the data.
        let bw = BwMatrix::from_fn(4, |i, j| {
            if i == j {
                0.0
            } else if i == 3 {
                20.0
            } else {
                1000.0
            }
        });
        let out = vec![1.0, 1.0, 1.0, 10.0];
        let ctx = PlacementCtx { topo: &topo, bw: &bw, out_gb: &out, compute_s_per_gb: 0.0 };
        assert!(
            Kimchi::new().migrate_input(&ctx).is_none(),
            "large expensive migration should be declined"
        );
        // Small data at the same DC is fine to move.
        let out = vec![5.0, 5.0, 5.0, 0.5];
        let ctx = PlacementCtx { topo: &topo, bw: &bw, out_gb: &out, compute_s_per_gb: 0.0 };
        let migrated = Kimchi::new().migrate_input(&ctx).expect("cheap migration accepted");
        assert_eq!(migrated[3], 0.0);
    }
}
