//! Bandwidth throttling of BW-rich links (traffic control).
//!
//! Nearby DCs would otherwise consume the bulk of each host's network
//! capacity. WANify's local agents compute, per source DC, the mean of the
//! achievable bandwidths from that region as a threshold `T`, and use
//! traffic control (tc) to cap every destination whose achievable
//! bandwidth exceeds `T` down to `T` (paper §3.2.2 "Throttling BW"; the
//! WANify-TC variant of Fig. 5).
//!
//! [`throttle_caps`] is the one rule: the plan's initial caps
//! ([`crate::WanifyPlan::initial_throttles`]) and the agents' caps after
//! their first AIMD interval both come from it.

use crate::local::{feasible_factor, SIGNIFICANT_DELTA_MBPS};
use crate::relations::DcRelations;
use wanify_netsim::{BwMatrix, Grid};

/// Computes per-pair throttle caps from achievable bandwidths.
///
/// Returns a grid where cell `(i, j)` is the cap in Mbps for the directed
/// pair, or `f64::INFINITY` when the pair is not throttled.
///
/// The linear achievable model (`BW × connections`, Eq. 3) can exceed what
/// a VM's NIC can physically push, so each row is first scaled by
/// `min(1, host_egress / row_sum)` — preserving the row's relative shape;
/// an infinite host estimate leaves it unscaled. The per-source threshold
/// `T` is the scaled row's mean, and entries above it are capped to it.
/// This keeps `T` realistic so that caps on BW-rich nearby links actually
/// bind — the effect WANify-TC relies on (Fig. 5).
///
/// With `relations`, a pair is only eligible for capping when it belongs
/// to its source row's *closest* off-diagonal relationship class — the
/// "nearby DCs" the paper singles out for throttling (§3.2.2). This keeps
/// agents from capping mid-distance links when AIMD targets drift during
/// execution.
///
/// # Panics
///
/// Panics if the host vector or the relation matrix differs in size from
/// the bandwidth matrix.
pub fn throttle_caps(
    achievable_bw: &BwMatrix,
    host_egress_mbps: &[f64],
    relations: Option<&DcRelations>,
) -> Grid<f64> {
    let n = achievable_bw.len();
    assert_eq!(host_egress_mbps.len(), n, "one egress estimate per host required");
    assert!(relations.is_none_or(|r| r.len() == n), "relations must match the matrix size");
    let factor: Vec<f64> =
        (0..n).map(|i| feasible_factor(achievable_bw, i, host_egress_mbps[i])).collect();
    let scaled = BwMatrix::from_fn(n, |i, j| achievable_bw.get(i, j) * factor[i]);
    let mut caps = Grid::filled(n, f64::INFINITY);
    for i in 0..n {
        let threshold = scaled.row_mean_off_diag(i);
        let closest = relations.and_then(|r| (0..n).filter(|&k| k != i).map(|k| r.get(i, k)).min());
        for j in (0..n).filter(|&j| j != i) {
            // Only genuinely BW-rich destinations are capped: the excess
            // over the regional mean must itself be significant (>100
            // Mbps), else a uniformly weak region would throttle its
            // least-bad link.
            let nearby = relations.is_none_or(|r| Some(r.get(i, j)) == closest);
            if nearby && scaled.get(i, j) > threshold + SIGNIFICANT_DELTA_MBPS {
                caps.set(i, j, threshold);
            }
        }
    }
    caps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw() -> BwMatrix {
        BwMatrix::from_rows(3, vec![0.0, 1600.0, 200.0, 1600.0, 0.0, 300.0, 200.0, 300.0, 0.0])
    }

    /// Caps with unbounded hosts and no relation mask.
    fn unclamped(bw: &BwMatrix) -> Grid<f64> {
        throttle_caps(bw, &vec![f64::INFINITY; bw.len()], None)
    }

    #[test]
    fn rich_links_are_capped_to_the_row_mean() {
        let caps = unclamped(&bw());
        // Row 0 mean = (1600+200)/2 = 900 ⇒ the 1600 link caps at 900.
        assert!((caps.get(0, 1) - 900.0).abs() < 1e-9);
        assert_eq!(caps.get(0, 2), f64::INFINITY, "weak links stay free");
    }

    #[test]
    fn diagonal_never_throttled() {
        let caps = unclamped(&bw());
        for i in 0..3 {
            assert_eq!(caps.get(i, i), f64::INFINITY);
        }
    }

    #[test]
    fn uniform_rows_are_untouched() {
        let uniform = BwMatrix::from_fn(3, |i, j| if i == j { 0.0 } else { 500.0 });
        let caps = unclamped(&uniform);
        for (_, _, c) in caps.iter_pairs() {
            assert_eq!(c, f64::INFINITY, "nothing exceeds the mean of equals");
        }
    }

    #[test]
    fn thresholds_are_per_source_row() {
        let caps = unclamped(&bw());
        // Row 1 mean = (1600+300)/2 = 950.
        assert!((caps.get(1, 0) - 950.0).abs() < 1e-9);
        assert_eq!(caps.get(1, 2), f64::INFINITY);
    }

    #[test]
    fn relations_spare_links_outside_the_closest_class() {
        // Row 0's closest class is DC 2, so the rich 0→1 link is spared;
        // row 1's closest class is DC 0, whose rich link is capped.
        let relations = DcRelations::from_rows(3, vec![1, 3, 2, 2, 1, 3, 2, 3, 1]);
        let caps = throttle_caps(&bw(), &[f64::INFINITY; 3], Some(&relations));
        assert_eq!(caps.get(0, 1), f64::INFINITY);
        assert!((caps.get(1, 0) - 950.0).abs() < 1e-9);
        assert_eq!(unclamped(&bw()).get(0, 1), 900.0);
    }

    #[test]
    fn empty_matrix_yields_empty_caps() {
        let empty = BwMatrix::new(0);
        assert!(throttle_caps(&empty, &[], None).is_empty());
        let relations = DcRelations::new(0);
        assert!(throttle_caps(&empty, &[], Some(&relations)).is_empty());
    }

    #[test]
    fn single_dc_has_no_throttleable_pairs() {
        let one = BwMatrix::filled(1, 0.0);
        let clamped = throttle_caps(&one, &[500.0], None);
        assert_eq!(clamped.get(0, 0), f64::INFINITY, "intra-DC is never capped");
        // The mask must not panic hunting for a closest *other* DC.
        let relations = DcRelations::filled(1, 1);
        let masked = throttle_caps(&one, &[500.0], Some(&relations));
        assert_eq!(masked.get(0, 0), f64::INFINITY);
    }

    #[test]
    fn infinite_host_egress_never_scales_rows() {
        // Infinite host estimates must leave every row as a factor of
        // exactly 1 does (hosts equal to the row sums), not poison the
        // thresholds with NaN or infinity.
        let exact = throttle_caps(&bw(), &[1800.0, 1900.0, 500.0], None);
        let infinite = unclamped(&bw());
        for (i, j, cap) in exact.iter_pairs() {
            assert_eq!(infinite.get(i, j).to_bits(), cap.to_bits(), "({i},{j})");
            assert!(!infinite.get(i, j).is_nan());
        }
        assert!(infinite.iter_pairs().any(|(_, _, c)| c.is_finite()), "the rich link is capped");
    }

    #[test]
    fn zero_bandwidth_rows_stay_uncapped() {
        // A dead region (all-zero row) has threshold 0 and no cell above
        // it: nothing to throttle, and no NaN from the 0/0 rescale.
        let mut dead = bw();
        for j in 0..3 {
            dead.set(2, j, 0.0);
        }
        let caps = throttle_caps(&dead, &[1000.0, 1000.0, 1000.0], None);
        assert_eq!(caps.get(2, 0), f64::INFINITY);
        assert_eq!(caps.get(2, 1), f64::INFINITY);
        assert!(caps.iter_pairs().all(|(_, _, c)| !c.is_nan()));
    }

    #[test]
    #[should_panic]
    fn clamped_rejects_mismatched_host_vector() {
        let _ = throttle_caps(&bw(), &[1000.0, 1000.0], None);
    }

    #[test]
    #[should_panic]
    fn masked_rejects_mismatched_relations() {
        let relations = DcRelations::filled(2, 1);
        let _ = throttle_caps(&bw(), &[1e3, 1e3, 1e3], Some(&relations));
    }
}
