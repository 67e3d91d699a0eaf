//! Static global optimization of heterogeneous connections (Eq. 2-3).
//!
//! Given predicted runtime bandwidths and the closeness indices of
//! Algorithm 1, the global optimizer computes, for every DC pair, a
//! *window* of parallel connections (`minCons..=maxCons`) and the
//! corresponding achievable bandwidths (`minBW..=maxBW`). Distant pairs
//! (high closeness index) receive more connections out of each host's
//! limited budget `M` ([`MAX_CONNS`]), trading strong links for weak ones
//! (paper §3.2.1).
//! Skew weights `ws` (§3.3.1) and the provider refactoring vector `rvec`
//! (§3.3.3) scale the result.

use crate::error::WanifyError;
use crate::relations::DcRelations;
use wanify_netsim::{BwMatrix, ConnMatrix};

/// Output of [`optimize_global`]: per-pair connection windows and the
/// achievable-bandwidth range (the paper's two target matrices, §2.3).
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalPlan {
    /// Minimum connections per directed pair (floor of the AIMD window).
    pub min_cons: ConnMatrix,
    /// Maximum connections per directed pair (ceiling of the AIMD window).
    pub max_cons: ConnMatrix,
    /// Achievable bandwidth at `min_cons`, Mbps.
    pub min_bw: BwMatrix,
    /// Achievable bandwidth at `max_cons`, Mbps.
    pub max_bw: BwMatrix,
    /// Estimated egress capacity per host, Mbps: the row sums of the
    /// predicted runtime matrix. A simultaneous all-pair measurement
    /// saturates each VM's NIC, so the row sum approximates what the host
    /// can push in total — used to clamp throttling thresholds.
    pub host_egress_mbps: Vec<f64>,
}

/// `M`, the per-host parallel-connection budget of Eq. 2-3 (the paper's
/// worked example in §3.2.1 uses 8, matching the uniform-parallelism
/// baseline of §5.1).
pub const MAX_CONNS: u32 = 8;

/// Hard per-pair ceiling applied after skew scaling, as a multiple of `M`.
const SKEW_CEILING_FACTOR: u32 = 2;

/// Per-source-row connection budget as a multiple of `M` (§3.2.1: the
/// total parallel connections a VM sustains are limited; rows exceeding
/// the budget are shrunk proportionally).
const ROW_BUDGET_FACTOR: u32 = 3;

/// Implements Eq. 2 and Eq. 3 of the paper.
///
/// * `bw` — predicted runtime single-connection bandwidths;
/// * `rel` — closeness indices from [`crate::relations::infer_dc_relations`];
/// * `skew_weights` — optional per-DC input-data fractions `ws`; weights
///   are normalized to mean 1 and scale the *source* DC's connections;
/// * `rvec` — optional per-DC provider refactoring factors (§3.3.3),
///   multiplied pairwise onto achievable bandwidth.
///
/// # Errors
///
/// Returns [`WanifyError::DimensionMismatch`] if matrix/vector sizes
/// disagree.
pub fn optimize_global(
    bw: &BwMatrix,
    rel: &DcRelations,
    skew_weights: Option<&[f64]>,
    rvec: Option<&[f64]>,
) -> Result<GlobalPlan, WanifyError> {
    let n = bw.len();
    if rel.len() != n {
        return Err(WanifyError::DimensionMismatch { expected: n, got: rel.len() });
    }
    if let Some(ws) = skew_weights {
        if ws.len() != n {
            return Err(WanifyError::DimensionMismatch { expected: n, got: ws.len() });
        }
    }
    if let Some(rv) = rvec {
        if rv.len() != n {
            return Err(WanifyError::DimensionMismatch { expected: n, got: rv.len() });
        }
    }

    // Eq. 2: sum of closeness indices skipping class 1 (the diagonal), and
    // per-row maxima.
    let sum_all: f64 = {
        let total: u32 = (0..n).flat_map(|i| (0..n).map(move |j| rel.get(i, j))).sum();
        f64::from(total) - n as f64
    };
    let max_row: Vec<f64> = (0..n)
        .map(|i| f64::from((0..n).map(|j| rel.get(i, j)).max().expect("non-empty row")))
        .collect();

    // Skew weights normalized to mean 1 so an unskewed cluster is a no-op.
    let ws: Vec<f64> = match skew_weights {
        Some(w) => {
            let mean = w.iter().sum::<f64>() / n as f64;
            if mean > 0.0 {
                w.iter().map(|x| x / mean).collect()
            } else {
                vec![1.0; n]
            }
        }
        None => vec![1.0; n],
    };
    let rv: Vec<f64> = rvec.map_or_else(|| vec![1.0; n], <[f64]>::to_vec);

    let m = f64::from(MAX_CONNS);
    let ceiling = MAX_CONNS * SKEW_CEILING_FACTOR;
    let raw_pair = |i: usize, j: usize| -> (f64, f64) {
        let relij = f64::from(rel.get(i, j));
        let lo = ((relij / sum_all) * (m - 1.0)).floor().max(1.0);
        let hi = (m * relij / max_row[i]).ceil().max(lo);
        (lo, hi)
    };
    // Skew weights *re-allocate* budget (§3.3.1): a pair's scale grows with
    // the source's data share (it must push more) and shrinks when the
    // destination is itself data-heavy (its host budget is needed for
    // sending). ws normalized to mean 1 makes an unskewed cluster a no-op.
    let pair_factor = |i: usize, j: usize| -> f64 { ws[i] / (0.5 + 0.5 * ws[j]) };

    // First pass: scaled per-pair maxima.
    let mut hi_scaled = vec![vec![0.0_f64; n]; n];
    let mut lo_scaled = vec![vec![0.0_f64; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let (lo, hi) = raw_pair(i, j);
                let f = pair_factor(i, j);
                lo_scaled[i][j] = (lo * f).max(1.0);
                hi_scaled[i][j] = (hi * f).max(1.0);
            }
        }
    }
    // Second pass: clamp each row's total parallelism to the host budget
    // (§3.2.1: connections from a VM in a DC are limited; exceeding the
    // optimal threshold degrades performance), preserving row shape.
    let row_budget = f64::from(MAX_CONNS * ROW_BUDGET_FACTOR);
    for i in 0..n {
        let total: f64 = (0..n).filter(|&j| j != i).map(|j| hi_scaled[i][j]).sum();
        if total > row_budget {
            let shrink = row_budget / total;
            for j in 0..n {
                if j != i {
                    hi_scaled[i][j] = (hi_scaled[i][j] * shrink).max(1.0);
                    lo_scaled[i][j] = (lo_scaled[i][j] * shrink).max(1.0);
                }
            }
        }
    }

    let mut min_cons = ConnMatrix::new(n);
    let mut max_cons = ConnMatrix::new(n);
    let mut min_bw = BwMatrix::new(n);
    let mut max_bw = BwMatrix::new(n);
    for i in 0..n {
        for j in 0..n {
            let (lo, hi) = if i == j {
                (1u32, 1u32)
            } else {
                let lo = (lo_scaled[i][j].round() as u32).clamp(1, ceiling);
                let hi = (hi_scaled[i][j].round() as u32).clamp(1, ceiling);
                (lo.min(hi), hi.max(lo))
            };
            min_cons.set(i, j, lo);
            max_cons.set(i, j, hi);
            // Empirically, runtime BW grows linearly with connections
            // (§3.2.1), so achievable BW = predicted BW × connections.
            let pair_rv = rv[i] * rv[j];
            min_bw.set(i, j, bw.get(i, j) * f64::from(lo) * pair_rv);
            max_bw.set(i, j, bw.get(i, j) * f64::from(hi) * pair_rv);
        }
    }
    let host_egress_mbps: Vec<f64> =
        (0..n).map(|i| (0..n).filter(|&j| j != i).map(|j| bw.get(i, j)).sum()).collect();
    Ok(GlobalPlan { min_cons, max_cons, min_bw, max_bw, host_egress_mbps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relations::infer_dc_relations;

    fn paper_inputs() -> (BwMatrix, DcRelations) {
        let bw = BwMatrix::from_rows(
            3,
            vec![1000.0, 400.0, 120.0, 380.0, 1000.0, 130.0, 110.0, 120.0, 1000.0],
        );
        let rel = infer_dc_relations(&bw, 30.0).unwrap();
        (bw, rel)
    }

    #[test]
    fn reproduces_paper_worked_example() {
        // Paper §3.2.1: with M = 8, minCons is all ones and maxCons gives
        // nearby pairs 6 and distant pairs 8 connections.
        let (bw, rel) = paper_inputs();
        let plan = optimize_global(&bw, &rel, None, None).unwrap();
        for (_, _, c) in plan.min_cons.iter_pairs() {
            assert_eq!(c, 1, "minCons should be all ones");
        }
        assert_eq!(plan.max_cons.get(0, 1), 6, "nearby pair (class 2)");
        assert_eq!(plan.max_cons.get(1, 0), 6);
        assert_eq!(plan.max_cons.get(0, 2), 8, "distant pair (class 3)");
        assert_eq!(plan.max_cons.get(2, 1), 8);
        assert_eq!(plan.max_cons.get(0, 0), 1, "diagonal uses one connection");
    }

    #[test]
    fn achievable_bw_is_linear_in_connections() {
        let (bw, rel) = paper_inputs();
        let plan = optimize_global(&bw, &rel, None, None).unwrap();
        assert!((plan.max_bw.get(0, 2) - 120.0 * 8.0).abs() < 1e-9);
        assert!((plan.min_bw.get(0, 2) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn distant_pairs_get_at_least_as_many_connections() {
        let (bw, rel) = paper_inputs();
        let plan = optimize_global(&bw, &rel, None, None).unwrap();
        for (i, j, c) in plan.max_cons.iter_pairs() {
            for (i2, j2, c2) in plan.max_cons.iter_pairs() {
                if rel.get(i, j) > rel.get(i2, j2) {
                    assert!(c >= c2, "farther pair ({i},{j}) must get ≥ connections");
                }
            }
        }
    }

    #[test]
    fn skew_weights_boost_data_heavy_sources() {
        let (bw, rel) = paper_inputs();
        // DC0 holds 70% of the input.
        let ws = [0.7, 0.2, 0.1];
        let plan = optimize_global(&bw, &rel, Some(&ws), None).unwrap();
        let base = optimize_global(&bw, &rel, None, None).unwrap();
        assert!(
            plan.max_cons.get(0, 2) > base.max_cons.get(0, 2),
            "skewed DC0 gets more outgoing connections"
        );
        assert!(plan.max_cons.get(2, 0) <= base.max_cons.get(2, 0));
    }

    #[test]
    fn skew_scaling_is_capped() {
        let (bw, rel) = paper_inputs();
        let ws = [100.0, 0.001, 0.001];
        let plan = optimize_global(&bw, &rel, Some(&ws), None).unwrap();
        for (_, _, c) in plan.max_cons.iter_pairs() {
            assert!(c <= 16, "cap at 2·M, got {c}");
            assert!(c >= 1);
        }
    }

    #[test]
    fn rvec_scales_bandwidth_not_connections() {
        let (bw, rel) = paper_inputs();
        let rv = [1.0, 1.0, 0.8]; // DC2 on another provider
        let plan = optimize_global(&bw, &rel, None, Some(&rv)).unwrap();
        let base = optimize_global(&bw, &rel, None, None).unwrap();
        assert_eq!(plan.max_cons, base.max_cons);
        assert!((plan.max_bw.get(0, 2) - base.max_bw.get(0, 2) * 0.8).abs() < 1e-9);
        assert!((plan.max_bw.get(0, 1) - base.max_bw.get(0, 1)).abs() < 1e-9);
    }

    #[test]
    fn dimension_checks() {
        let (bw, rel) = paper_inputs();
        assert!(matches!(
            optimize_global(&bw, &rel, Some(&[1.0]), None),
            Err(WanifyError::DimensionMismatch { .. })
        ));
    }

    #[cfg(test)]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_bw() -> impl Strategy<Value = BwMatrix> {
            proptest::collection::vec(30.0f64..3000.0, 12).prop_map(|v| {
                let mut k = 0;
                BwMatrix::from_fn(4, |i, j| {
                    if i == j {
                        0.0
                    } else {
                        let x = v[k % 12];
                        k += 1;
                        x
                    }
                })
            })
        }

        proptest! {
            #[test]
            fn plan_invariants_hold(
                bw in arb_bw(),
                d in 0.0f64..300.0,
                ws in proptest::collection::vec(0.0f64..1.0, 4),
            ) {
                let rel = infer_dc_relations(&bw, d).unwrap();
                let plan = optimize_global(&bw, &rel, Some(&ws), None).unwrap();
                let row_budget = f64::from(MAX_CONNS * 3);
                for i in 0..4 {
                    let mut row_total = 0.0;
                    for j in 0..4 {
                        let lo = plan.min_cons.get(i, j);
                        let hi = plan.max_cons.get(i, j);
                        prop_assert!(lo >= 1 && hi >= lo);
                        prop_assert!(hi <= MAX_CONNS * 2, "pair cap 2M violated: {hi}");
                        prop_assert!(
                            plan.min_bw.get(i, j) <= plan.max_bw.get(i, j) + 1e-9
                        );
                        if i != j {
                            row_total += f64::from(hi);
                        }
                    }
                    // Rounding can exceed the analog budget by at most one
                    // connection per pair.
                    prop_assert!(row_total <= row_budget + 4.0,
                        "row {i} total {row_total} blows the budget {row_budget}");
                }
            }

            #[test]
            fn farther_class_never_fewer_connections_without_skew(bw in arb_bw()) {
                let rel = infer_dc_relations(&bw, 50.0).unwrap();
                let plan = optimize_global(&bw, &rel, None, None).unwrap();
                for i in 0..4 {
                    for j in 0..4 {
                        for k in 0..4 {
                            if i != j && i != k
                                && rel.get(i, j) > rel.get(i, k)
                            {
                                prop_assert!(
                                    plan.max_cons.get(i, j) >= plan.max_cons.get(i, k),
                                    "row {i}: farther {j} got fewer conns"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn min_never_exceeds_max() {
        let (bw, rel) = paper_inputs();
        let plan = optimize_global(&bw, &rel, None, None).unwrap();
        for (i, j, lo) in plan.min_cons.iter_pairs() {
            assert!(lo <= plan.max_cons.get(i, j));
            assert!(plan.min_bw.get(i, j) <= plan.max_bw.get(i, j) + 1e-9);
        }
    }
}
