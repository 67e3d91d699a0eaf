//! Algorithm 1: inferring data-center relationships.
//!
//! Global optimization needs to know which DC pairs are "close" (strong
//! links) and which are "far" (weak links). `INFER_DC_RELATIONS` (paper
//! §3.2.1, Algorithm 1) buckets the predicted runtime bandwidths into
//! *closeness indices*: index 1 is the closest relationship (a DC with
//! itself), growing indices mean weaker links.

use crate::error::WanifyError;
use wanify_netsim::{BwMatrix, Grid};

/// Closeness-index matrix produced by [`infer_dc_relations`].
///
/// `rel.get(i, j) == 1` means "same DC / strongest class"; the maximum
/// value identifies the weakest link class in the cluster.
pub type DcRelations = Grid<u32>;

/// `D`, the minimum bandwidth difference Algorithm 1 treats as significant
/// when [`crate::Wanify`] plans (the paper's example in §3.2.1 uses
/// 30 Mbps).
pub const MIN_DIFF_MBPS: f64 = 30.0;

/// Implements Algorithm 1 of the paper.
///
/// `bw` is the predicted runtime bandwidth matrix (diagonal entries are
/// treated as intra-DC and assigned the strongest class); `min_diff` is
/// `D`, the minimum bandwidth difference considered significant when
/// merging adjacent bandwidth levels ([`Wanify`](crate::Wanify) plans
/// with [`MIN_DIFF_MBPS`]).
///
/// # Errors
///
/// Returns [`WanifyError::InvalidConfig`] if `min_diff` is negative.
///
/// # Examples
///
/// The paper's worked example (§3.2.1):
///
/// ```
/// use wanify_netsim::BwMatrix;
/// use wanify::relations::infer_dc_relations;
///
/// let bw = BwMatrix::from_rows(3, vec![
///     1000.0, 400.0, 120.0,
///     380.0, 1000.0, 130.0,
///     110.0, 120.0, 1000.0,
/// ]);
/// let rel = infer_dc_relations(&bw, 30.0)?;
/// assert_eq!(rel.get(0, 0), 1); // 1000 ⇒ closest
/// assert_eq!(rel.get(0, 1), 2); // 400  ⇒ middle class
/// assert_eq!(rel.get(0, 2), 3); // 120  ⇒ farthest class
/// # Ok::<(), wanify::WanifyError>(())
/// ```
pub fn infer_dc_relations(bw: &BwMatrix, min_diff: f64) -> Result<DcRelations, WanifyError> {
    if min_diff < 0.0 {
        return Err(WanifyError::InvalidConfig(format!(
            "minimum significant difference must be non-negative, got {min_diff}"
        )));
    }
    let n = bw.len();
    // Intra-DC bandwidth dwarfs WAN links; synthesize a diagonal level
    // above every observed value so the diagonal always lands in class 1.
    let diag_level = bw.max_off_diag().max(0.0) * 10.0 + 1.0;

    // Line 3: sorted set of unique bandwidth levels.
    let mut levels: Vec<f64> = bw.iter_pairs().map(|(_, _, v)| v).collect();
    levels.push(diag_level);
    levels.sort_by(|a, b| a.partial_cmp(b).expect("finite bandwidth"));
    levels.dedup();

    // Lines 4-8: reverse traversal merging levels closer than D.
    let mut i = levels.len().saturating_sub(1);
    while i >= 1 {
        if levels[i] - levels[i - 1] < min_diff {
            levels.remove(i);
        }
        i -= 1;
    }
    let n_levels = levels.len() as u32;

    // Lines 9-22: assign each pair the class of its nearest level.
    let rel = Grid::from_fn(n, |i, j| {
        let v = if i == j { diag_level } else { bw.get(i, j) };
        let k = nearest_level(&levels, v);
        n_levels - k as u32 // 1-based from the top: strongest ⇒ 1
    });
    Ok(rel)
}

/// Index (0-based) of the level nearest to `v` via binary search.
fn nearest_level(levels: &[f64], v: f64) -> usize {
    match levels.binary_search_by(|l| l.partial_cmp(&v).expect("finite")) {
        Ok(k) => k,
        Err(ins) => {
            if ins == 0 {
                0
            } else if ins >= levels.len() {
                levels.len() - 1
            } else if (v - levels[ins - 1]) <= (levels[ins] - v) {
                ins - 1
            } else {
                ins
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_example() -> BwMatrix {
        BwMatrix::from_rows(
            3,
            vec![1000.0, 400.0, 120.0, 380.0, 1000.0, 130.0, 110.0, 120.0, 1000.0],
        )
    }

    #[test]
    fn reproduces_paper_worked_example() {
        let rel = infer_dc_relations(&paper_example(), 30.0).unwrap();
        // Diagonal: closeness 1.
        for i in 0..3 {
            assert_eq!(rel.get(i, i), 1);
        }
        // {400, 380} ⇒ class 2; {110, 120, 130} ⇒ class 3.
        assert_eq!(rel.get(0, 1), 2);
        assert_eq!(rel.get(1, 0), 2);
        assert_eq!(rel.get(0, 2), 3);
        assert_eq!(rel.get(1, 2), 3);
        assert_eq!(rel.get(2, 0), 3);
        assert_eq!(rel.get(2, 1), 3);
    }

    #[test]
    fn zero_min_diff_keeps_every_level() {
        let rel = infer_dc_relations(&paper_example(), 0.0).unwrap();
        // 6 off-diagonal unique values + diagonal level ⇒ up to 7 classes.
        let max = rel.iter_pairs().map(|(_, _, v)| v).max().unwrap();
        assert!(max >= 6, "expected fine-grained classes, got max {max}");
    }

    #[test]
    fn huge_min_diff_collapses_wan_links_into_one_class() {
        let rel = infer_dc_relations(&paper_example(), 10_000.0).unwrap();
        let classes: std::collections::BTreeSet<u32> =
            rel.iter_pairs().map(|(_, _, v)| v).collect();
        assert_eq!(classes.len(), 1, "all WAN links in one class: {classes:?}");
    }

    #[test]
    fn negative_min_diff_rejected() {
        assert!(matches!(
            infer_dc_relations(&paper_example(), -1.0),
            Err(WanifyError::InvalidConfig(_))
        ));
    }

    #[test]
    fn ties_exactly_at_min_diff_stay_separate_levels() {
        // Algorithm 1 merges levels *strictly* closer than D; a gap of
        // exactly D is significant and must keep its own class.
        let bw =
            BwMatrix::from_rows(3, vec![0.0, 400.0, 430.0, 400.0, 0.0, 430.0, 400.0, 430.0, 0.0]);
        let exactly_d = infer_dc_relations(&bw, 30.0).unwrap();
        assert_ne!(
            exactly_d.get(0, 1),
            exactly_d.get(0, 2),
            "a 30 Mbps gap at D=30 is significant and must not merge"
        );
        // One epsilon wider and the same pair of levels merges.
        let merged = infer_dc_relations(&bw, 30.0 + 1e-9).unwrap();
        assert_eq!(merged.get(0, 1), merged.get(0, 2));
    }

    #[test]
    fn chained_ties_merge_pairwise_not_transitively() {
        // Levels {100, 125, 150} with D = 30: the reverse traversal merges
        // 150 into 125's class, then 125 into 100's — the paper's greedy
        // chain collapse, leaving one WAN class plus the diagonal.
        let bw =
            BwMatrix::from_rows(3, vec![0.0, 100.0, 125.0, 100.0, 0.0, 150.0, 125.0, 150.0, 0.0]);
        let rel = infer_dc_relations(&bw, 30.0).unwrap();
        assert_eq!(rel.get(0, 1), rel.get(0, 2));
        assert_eq!(rel.get(0, 2), rel.get(1, 2));
        assert!(rel.get(0, 1) > rel.get(0, 0), "WAN class stays above the diagonal class");
    }

    #[test]
    fn zero_diff_duplicate_levels_dedup_into_one_class() {
        // Identical bandwidths are one level even with D = 0.
        let bw =
            BwMatrix::from_rows(3, vec![0.0, 500.0, 500.0, 500.0, 0.0, 500.0, 500.0, 500.0, 0.0]);
        let rel = infer_dc_relations(&bw, 0.0).unwrap();
        let classes: std::collections::BTreeSet<u32> =
            rel.iter_pairs().map(|(_, _, v)| v).collect();
        assert_eq!(classes.len(), 1);
    }

    #[test]
    fn nearest_level_boundaries() {
        let levels = [110.0, 380.0, 1000.0];
        assert_eq!(nearest_level(&levels, 50.0), 0);
        assert_eq!(nearest_level(&levels, 2000.0), 2);
        assert_eq!(nearest_level(&levels, 244.0), 0); // closer to 110
        assert_eq!(nearest_level(&levels, 246.0), 1); // closer to 380
        assert_eq!(nearest_level(&levels, 380.0), 1); // exact hit
    }

    #[test]
    fn stronger_links_never_get_larger_index() {
        let rel = infer_dc_relations(&paper_example(), 30.0).unwrap();
        let bw = paper_example();
        for (i1, j1, v1) in bw.iter_pairs() {
            for (i2, j2, v2) in bw.iter_pairs() {
                if v1 > v2 {
                    assert!(
                        rel.get(i1, j1) <= rel.get(i2, j2),
                        "bw {v1} got class {} but bw {v2} got {}",
                        rel.get(i1, j1),
                        rel.get(i2, j2)
                    );
                }
            }
        }
    }

    #[cfg(test)]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn classes_are_monotone_in_bandwidth(
                vals in proptest::collection::vec(50.0f64..2000.0, 6),
                d in 0.0f64..200.0,
            ) {
                let bw = BwMatrix::from_rows(3, vec![
                    0.0, vals[0], vals[1],
                    vals[2], 0.0, vals[3],
                    vals[4], vals[5], 0.0,
                ]);
                let rel = infer_dc_relations(&bw, d).unwrap();
                let mut pairs: Vec<(f64, u32)> =
                    bw.iter_pairs().map(|(i, j, v)| (v, rel.get(i, j))).collect();
                pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                for w in pairs.windows(2) {
                    prop_assert!(w[0].1 >= w[1].1,
                        "higher bandwidth must not get a weaker class: {pairs:?}");
                }
            }

            #[test]
            fn diagonal_is_always_class_one(
                vals in proptest::collection::vec(1.0f64..5000.0, 6),
                d in 0.0f64..500.0,
            ) {
                let bw = BwMatrix::from_rows(3, vec![
                    0.0, vals[0], vals[1],
                    vals[2], 0.0, vals[3],
                    vals[4], vals[5], 0.0,
                ]);
                let rel = infer_dc_relations(&bw, d).unwrap();
                for i in 0..3 {
                    prop_assert_eq!(rel.get(i, i), 1);
                }
            }
        }
    }
}
