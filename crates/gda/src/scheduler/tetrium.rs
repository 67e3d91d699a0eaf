//! Tetrium: multi-resource (network + compute) latency-optimal placement.
//!
//! Reimplementation of the placement heuristic of "Wide-area analytics
//! with multiple resources" (Hung et al., EuroSys'18), the paper's primary
//! GDA baseline. Reduce fractions equalize each DC's estimated stage
//! completion time — the slowest incoming WAN link plus local compute —
//! and inputs stranded behind very weak links are migrated out before the
//! job starts (the behaviour the paper highlights in §2.2).

use super::{migrate_stranded, normalize, PlacementCtx, Scheduler};

/// Latency-optimal WAN-aware scheduler.
#[derive(Debug, Clone)]
pub struct Tetrium {
    /// Links weaker than `migration_ratio · median(min outgoing BW)` have
    /// their input migrated to the best-connected neighbour.
    pub migration_ratio: f64,
}

impl Default for Tetrium {
    fn default() -> Self {
        Self { migration_ratio: 0.25 }
    }
}

impl Tetrium {
    /// Creates the scheduler with default migration threshold.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Tetrium {
    fn name(&self) -> &str {
        "tetrium"
    }

    /// Minimizes `max_j (r_j · unit_time_j)` subject to `Σ r_j = 1`, whose
    /// optimum equalizes completion times: `r_j ∝ 1 / unit_time_j`.
    fn place_reduce(&self, ctx: &PlacementCtx<'_>) -> Vec<f64> {
        normalize(&(0..ctx.n()).map(|j| ctx.latency_weight(j)).collect::<Vec<_>>())
    }

    /// Moves every stranded input, whatever it costs to move.
    fn migrate_input(&self, ctx: &PlacementCtx<'_>) -> Option<Vec<f64>> {
        migrate_stranded(ctx, self.migration_ratio, |_, _| true)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::ctx_fixture;
    use super::*;
    use wanify_netsim::BwMatrix;

    #[test]
    fn starves_weakly_connected_dc() {
        let (topo, bw, out) = ctx_fixture();
        let ctx = PlacementCtx { topo: &topo, bw: &bw, out_gb: &out, compute_s_per_gb: 0.0 };
        let r = Tetrium::new().place_reduce(&ctx);
        assert!(r[3] < 0.6 * r[0], "DC3 (120 Mbps links) should get fewer reduces: {r:?}");
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equalizes_completion_times() {
        let (topo, bw, out) = ctx_fixture();
        let ctx = PlacementCtx { topo: &topo, bw: &bw, out_gb: &out, compute_s_per_gb: 0.0 };
        let r = Tetrium::new().place_reduce(&ctx);
        let times: Vec<f64> = (0..4).map(|j| r[j] * ctx.unit_time_at(j)).collect();
        let spread = times.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - times.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(spread < 1e-6, "equalized times expected, got {times:?}");
    }

    #[test]
    fn responds_to_bandwidth_estimate_changes() {
        let (topo, _, out) = ctx_fixture();
        // Flip the weak DC from 3 to 0.
        let bw = BwMatrix::from_fn(4, |i, j| {
            if i == j {
                0.0
            } else if i == 0 || j == 0 {
                120.0
            } else {
                1000.0
            }
        });
        let ctx = PlacementCtx { topo: &topo, bw: &bw, out_gb: &out, compute_s_per_gb: 0.0 };
        let r = Tetrium::new().place_reduce(&ctx);
        assert!(r[0] < 0.6 * r[3], "now DC0 should get fewer reduces: {r:?}");
    }

    #[test]
    fn migrates_input_from_severely_weak_dc() {
        let (topo, _, _) = ctx_fixture();
        // DC2's best outgoing link (20 Mbps) is far below the median.
        let bw = BwMatrix::from_fn(4, |i, j| {
            if i == j {
                0.0
            } else if i == 2 {
                20.0
            } else {
                1000.0
            }
        });
        let out = vec![5.0, 5.0, 5.0, 5.0];
        let ctx = PlacementCtx { topo: &topo, bw: &bw, out_gb: &out, compute_s_per_gb: 0.0 };
        let migrated = Tetrium::new().migrate_input(&ctx).expect("migration expected");
        assert_eq!(migrated[2], 0.0);
        assert!((migrated.iter().sum::<f64>() - 20.0).abs() < 1e-9, "mass conserved");
    }

    #[test]
    fn no_migration_on_balanced_links() {
        let (topo, bw, out) = ctx_fixture();
        let ctx = PlacementCtx { topo: &topo, bw: &bw, out_gb: &out, compute_s_per_gb: 0.0 };
        // DC3's best link is 120 vs median 1000: 0.12 < 0.25 ⇒ migrates.
        assert!(Tetrium::new().migrate_input(&ctx).is_some());
        // With a gentler threshold nothing moves.
        let lax = Tetrium { migration_ratio: 0.05 };
        assert!(lax.migrate_input(&ctx).is_none());
    }
}
