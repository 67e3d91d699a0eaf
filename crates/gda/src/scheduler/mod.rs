//! WAN-aware task and data placement.
//!
//! All schedulers consume a bandwidth matrix *estimate* and produce reduce
//! fractions (share of reduce tasks per DC) and optional input migration.
//! The executor then runs the implied transfers on the true simulated
//! network, so the quality of the estimate determines real performance —
//! the paper's central premise (§2.2).

mod kimchi;
mod tetrium;
mod vanilla;

pub use kimchi::Kimchi;
pub use tetrium::Tetrium;
pub use vanilla::VanillaSpark;

use wanify::source::BandwidthSource;
use wanify_netsim::{BwMatrix, NetSim, Topology};

/// Inputs available when placing one stage's reduce tasks.
#[derive(Debug)]
pub struct PlacementCtx<'a> {
    /// The cluster topology.
    pub topo: &'a Topology,
    /// Bandwidth estimate the scheduler believes in (Mbps, directed).
    pub bw: &'a BwMatrix,
    /// Intermediate output waiting at each DC, in gigabytes.
    pub out_gb: &'a [f64],
    /// vCPU-seconds needed per gigabyte in the downstream stage.
    pub compute_s_per_gb: f64,
}

impl PlacementCtx<'_> {
    /// Number of DCs.
    pub fn n(&self) -> usize {
        self.topo.len()
    }

    /// Estimated seconds for one *unit fraction* of reduce work placed at
    /// DC `j`, combining three terms:
    ///
    /// 1. **aggregate inflow** — the shuffle into `j` moves `Σ out_i · r_j`
    ///    gigabytes through `j`'s receive path, whose capacity is estimated
    ///    by the *column sum* of the bandwidth matrix. Runtime matrices
    ///    measure what each DC can actually absorb under contention;
    ///    static-independent matrices overestimate it non-uniformly, which
    ///    is exactly the sub-optimality the paper attributes to them (§2.2);
    /// 2. **worst single link** — the slowest incoming pair is window
    ///    limited regardless of aggregate capacity;
    /// 3. **compute** — the downstream work per unit fraction.
    pub fn unit_time_at(&self, j: usize) -> f64 {
        let n = self.n();
        let col_sum: f64 = (0..n).filter(|&i| i != j).map(|i| self.bw.get(i, j)).sum();
        let inflow_gb: f64 = (0..n).filter(|&i| i != j).map(|i| self.out_gb[i]).sum();
        // GB → Gb (×8) → seconds at Mbps (×1000).
        let aggregate = inflow_gb * 8.0 * 1000.0 / col_sum.max(1.0);
        let worst_link = (0..n)
            .filter(|&i| i != j && self.out_gb[i] > 0.0)
            .map(|i| self.out_gb[i] * 8.0 * 1000.0 / self.bw.get(i, j).max(1.0))
            .fold(0.0, f64::max);
        let total_out: f64 = self.out_gb.iter().sum();
        let vcpus = f64::from(self.topo.dc(wanify_netsim::DcId(j)).vcpus());
        let compute = total_out * self.compute_s_per_gb / vcpus.max(1.0);
        aggregate + worst_link + compute
    }

    /// Latency-equalizing reduce weight of DC `j`: `1 / unit_time_j`, or
    /// 1 when the unit time is zero.
    pub(crate) fn latency_weight(&self, j: usize) -> f64 {
        let t = self.unit_time_at(j);
        if t <= 0.0 {
            1.0
        } else {
            1.0 / t
        }
    }
}

/// Migrates input away from DCs whose *strongest outgoing link* is below
/// `ratio` times the cluster median of strongest links — they would
/// bottleneck every shuffle they feed. DCs are visited in index order on
/// the layout as it changes; a stranded DC whose input `movable(dc, gb)`
/// accepts sends all of it over its best link. A NaN belief cell counts
/// as 0 Mbps. Returns `None` when nothing moves.
pub(crate) fn migrate_stranded(
    ctx: &PlacementCtx<'_>,
    ratio: f64,
    movable: impl Fn(usize, f64) -> bool,
) -> Option<Vec<f64>> {
    let n = ctx.n();
    let mbps = |i, j| if ctx.bw.get(i, j).is_nan() { 0.0 } else { ctx.bw.get(i, j) };
    let best_out: Vec<f64> = (0..n)
        .map(|i| (0..n).filter(|&j| j != i).map(|j| mbps(i, j)).fold(0.0, f64::max))
        .collect();
    let mut sorted = best_out.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[n / 2];
    let mut layout = ctx.out_gb.to_vec();
    let mut changed = false;
    for i in 0..n {
        if layout[i] > 0.0 && best_out[i] < ratio * median && movable(i, layout[i]) {
            let target = (0..n)
                .filter(|&j| j != i)
                .max_by(|&a, &b| mbps(i, a).total_cmp(&mbps(i, b)))
                .expect("at least two DCs");
            layout[target] += layout[i];
            layout[i] = 0.0;
            changed = true;
        }
    }
    changed.then_some(layout)
}

/// A reduce-task and data placement policy.
///
/// `Send` so boxed schedulers can serve fleet shards running on worker
/// threads (see `wanify_gda::sharded`).
pub trait Scheduler: Send {
    /// Human-readable scheduler name for reports.
    fn name(&self) -> &str;

    /// Fraction of reduce tasks to run at each DC; must be non-negative
    /// and sum to 1 (validated by [`normalize`]).
    fn place_reduce(&self, ctx: &PlacementCtx<'_>) -> Vec<f64>;

    /// Optional input migration before the job starts: returns the new
    /// per-DC input gigabytes, or `None` to leave data in place.
    ///
    /// The default implementation performs no migration.
    fn migrate_input(&self, _ctx: &PlacementCtx<'_>) -> Option<Vec<f64>> {
        None
    }

    /// Places reduce tasks using a belief gauged from any
    /// [`BandwidthSource`] — the provenance-agnostic entry point.
    ///
    /// Every scheduler consumes static, measured and predicted bandwidth
    /// through this one method; nothing in the placement path knows where
    /// the matrix came from.
    ///
    /// # Panics
    ///
    /// Panics if the source cannot gauge the network (a configuration
    /// error, e.g. a model trained for a different topology family).
    fn place_reduce_from(
        &self,
        source: &mut dyn BandwidthSource,
        sim: &mut NetSim,
        out_gb: &[f64],
        compute_s_per_gb: f64,
    ) -> Vec<f64> {
        let bw = source.gauge(sim).expect("bandwidth source must match the topology");
        let ctx = PlacementCtx { topo: sim.topology(), bw: &bw, out_gb, compute_s_per_gb };
        self.place_reduce(&ctx)
    }
}

/// Normalizes non-negative weights into fractions summing to 1; falls back
/// to uniform when the weights vanish.
pub fn normalize(weights: &[f64]) -> Vec<f64> {
    let clamped: Vec<f64> = weights.iter().map(|&w| w.max(0.0)).collect();
    let sum: f64 = clamped.iter().sum();
    if sum <= 0.0 {
        return vec![1.0 / weights.len() as f64; weights.len()];
    }
    clamped.iter().map(|w| w / sum).collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use wanify_netsim::{paper_testbed_n, VmType};

    /// A 4-DC topology plus a bandwidth matrix where DC3's links are weak.
    pub(crate) fn ctx_fixture() -> (Topology, BwMatrix, Vec<f64>) {
        let topo = paper_testbed_n(VmType::t2_medium(), 4);
        let bw = BwMatrix::from_fn(4, |i, j| {
            if i == j {
                0.0
            } else if i == 3 || j == 3 {
                120.0
            } else {
                1000.0
            }
        });
        let out = vec![2.0, 2.0, 2.0, 2.0];
        (topo, bw, out)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::ctx_fixture;
    use super::*;

    #[test]
    fn normalize_sums_to_one() {
        let r = normalize(&[1.0, 3.0]);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((r[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn normalize_clamps_negatives_and_handles_zero() {
        assert_eq!(normalize(&[0.0, 0.0]), vec![0.5, 0.5]);
        let r = normalize(&[-1.0, 1.0]);
        assert_eq!(r, vec![0.0, 1.0]);
    }

    #[test]
    fn unit_time_prefers_well_connected_dcs() {
        let (topo, bw, out) = ctx_fixture();
        let ctx = PlacementCtx { topo: &topo, bw: &bw, out_gb: &out, compute_s_per_gb: 0.0 };
        assert!(
            ctx.unit_time_at(3) > 1.5 * ctx.unit_time_at(0),
            "weakly connected DC3 should look much slower: {} vs {}",
            ctx.unit_time_at(3),
            ctx.unit_time_at(0)
        );
    }

    #[cfg(test)]
    mod properties {
        use super::super::{Kimchi, Scheduler, Tetrium, VanillaSpark};
        use super::*;
        use proptest::prelude::*;
        use wanify_netsim::{paper_testbed_n, VmType};

        proptest! {
            #[test]
            fn fractions_are_a_distribution(
                bws in proptest::collection::vec(20.0f64..3000.0, 12),
                out in proptest::collection::vec(0.0f64..10.0, 4),
                compute in 0.0f64..10.0,
            ) {
                let topo = paper_testbed_n(VmType::t2_medium(), 4);
                let mut k = 0;
                let bw = wanify_netsim::BwMatrix::from_fn(4, |i, j| {
                    if i == j { 0.0 } else { let x = bws[k % 12]; k += 1; x }
                });
                let ctx = PlacementCtx {
                    topo: &topo,
                    bw: &bw,
                    out_gb: &out,
                    compute_s_per_gb: compute,
                };
                let schedulers: Vec<Box<dyn Scheduler>> = vec![
                    Box::new(VanillaSpark::new()),
                    Box::new(Tetrium::new()),
                    Box::new(Kimchi::new()),
                ];
                for s in &schedulers {
                    let r = s.place_reduce(&ctx);
                    prop_assert_eq!(r.len(), 4);
                    prop_assert!(r.iter().all(|&x| x >= 0.0));
                    prop_assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9,
                        "{} fractions must sum to 1: {r:?}", s.name());
                }
            }

            #[test]
            fn migration_conserves_data(
                bws in proptest::collection::vec(10.0f64..2000.0, 12),
                out in proptest::collection::vec(0.1f64..10.0, 4),
            ) {
                let topo = paper_testbed_n(VmType::t2_medium(), 4);
                let mut k = 0;
                let bw = wanify_netsim::BwMatrix::from_fn(4, |i, j| {
                    if i == j { 0.0 } else { let x = bws[k % 12]; k += 1; x }
                });
                let ctx = PlacementCtx {
                    topo: &topo,
                    bw: &bw,
                    out_gb: &out,
                    compute_s_per_gb: 1.0,
                };
                for s in [&Tetrium::new() as &dyn Scheduler, &Kimchi::new()] {
                    if let Some(new_layout) = s.migrate_input(&ctx) {
                        let before: f64 = out.iter().sum();
                        let after: f64 = new_layout.iter().sum();
                        prop_assert!((before - after).abs() < 1e-9,
                            "{} migration lost data", s.name());
                        prop_assert!(new_layout.iter().all(|&x| x >= 0.0));
                    }
                }
            }
        }
    }

    #[test]
    fn nan_belief_cell_does_not_panic_migration() {
        use wanify_netsim::{paper_testbed_n, VmType};
        let topo = paper_testbed_n(VmType::t2_medium(), 3);
        // DC 0's only finite link is a 1 Mbps one; its other cell is NaN.
        let bw = BwMatrix::from_fn(3, |i, j| match (i, j) {
            _ if i == j => 0.0,
            (0, 1) => f64::NAN,
            (0, _) => 1.0,
            _ => 1000.0,
        });
        let out = vec![5.0, 5.0, 5.0];
        let ctx = PlacementCtx { topo: &topo, bw: &bw, out_gb: &out, compute_s_per_gb: 0.0 };
        for s in [&Tetrium::new() as &dyn Scheduler, &Kimchi::new()] {
            assert_eq!(s.migrate_input(&ctx), Some(vec![0.0, 5.0, 10.0]), "{}", s.name());
        }
    }

    #[test]
    fn unit_time_includes_compute_term() {
        let (topo, bw, out) = ctx_fixture();
        let no_compute = PlacementCtx { topo: &topo, bw: &bw, out_gb: &out, compute_s_per_gb: 0.0 }
            .unit_time_at(0);
        let with_compute =
            PlacementCtx { topo: &topo, bw: &bw, out_gb: &out, compute_s_per_gb: 10.0 }
                .unit_time_at(0);
        assert!(with_compute > no_compute);
    }
}
