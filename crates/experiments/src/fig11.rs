//! Fig. 11: prediction accuracy across cluster shapes (§5.8.2, §5.8.3).
//!
//! For each cluster configuration the static-independent and the
//! predicted matrices are compared against the actual runtime matrix,
//! counting significant differences (>100 Mbps). (a) varies the number of
//! DCs; (b) adds 1-5 extra VMs to three DCs (non-uniform fleets). The
//! paper's claim: predicted beats static everywhere.

use crate::common::{Belief, ExpEnv};
use crate::table::Table;
use wanify_netsim::{paper_testbed_n, DcId, LinkModelParams, NetSim, VmType};

/// One configuration's accuracy comparison.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Configuration label (e.g. `"N=6"` or `"+3 VMs"`).
    pub label: String,
    /// Significant diffs of static-independent vs runtime.
    pub static_significant: usize,
    /// Significant diffs of predicted vs runtime.
    pub predicted_significant: usize,
    /// Number of directed pairs.
    pub n_pairs: usize,
}

/// Result of the Fig. 11 reproduction.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// (a) varying DC counts.
    pub by_cluster_size: Vec<AccuracyRow>,
    /// (b) non-uniform VM fleets.
    pub by_extra_vms: Vec<AccuracyRow>,
}

impl Fig11 {
    /// Rendered summary.
    pub fn render(&self) -> String {
        let table = |title: &str, rows: &[AccuracyRow]| {
            let cells = rows.iter().map(|r| {
                vec![
                    r.label.clone(),
                    format!("{}/{}", r.static_significant, r.n_pairs),
                    format!("{}/{}", r.predicted_significant, r.n_pairs),
                ]
            });
            Table::text(title, &["config", "static-independent", "predicted"], cells.collect())
                .expect("three cells per row")
        };
        let by_size = table(
            "Fig. 11(a): significant diffs vs runtime, by cluster size",
            &self.by_cluster_size,
        );
        let by_vms = table("Fig. 11(b): with extra VMs at 3 DCs", &self.by_extra_vms);
        by_size.note("").render() + &by_vms.note("paper: predicted < static everywhere").render()
    }
}

/// Significance bound in Mbps.
const SIGNIFICANT: f64 = 100.0;

fn compare(env: &ExpEnv, sim: &mut NetSim, label: &str) -> AccuracyRow {
    let n = sim.topology().len();
    let static_bw = env.gauge(Belief::StaticIndependent, sim);
    sim.shuffle_time();
    let predicted = env.gauge(Belief::Predicted, sim);
    let runtime = env.gauge(Belief::MeasuredRuntime, sim);
    AccuracyRow {
        label: label.to_string(),
        static_significant: static_bw.count_significant_diffs(&runtime, SIGNIFICANT),
        predicted_significant: predicted.count_significant_diffs(&runtime, SIGNIFICANT),
        n_pairs: n * (n - 1),
    }
}

/// Runs both sweeps.
pub fn run(env: &ExpEnv) -> Fig11 {
    // One model trained across sizes serves every configuration (§3.3.2).
    let sim_on = |topo, seed| NetSim::new(topo, LinkModelParams::default(), seed);

    let by_cluster_size = (4..=8).map(|n| {
        let topo = paper_testbed_n(VmType::t2_medium(), n);
        compare(env, &mut sim_on(topo, env.seed.wrapping_add(n as u64 * 131)), &format!("N={n}"))
    });

    let by_extra_vms = (1..=5u32).map(|extra| {
        // Three "randomly selected" DCs — fixed here for determinism: the
        // paper also fixes its selection per run.
        let topo = paper_testbed_n(VmType::t2_medium(), 8)
            .with_extra_vms(DcId(1), extra)
            .with_extra_vms(DcId(4), extra)
            .with_extra_vms(DcId(6), extra);
        let mut sim = sim_on(topo, env.seed.wrapping_add(1000 + u64::from(extra)));
        compare(env, &mut sim, &format!("+{extra} VMs"))
    });
    Fig11 { by_cluster_size: by_cluster_size.collect(), by_extra_vms: by_extra_vms.collect() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Effort;

    #[test]
    fn predicted_beats_static_overall() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 91));
        let static_total: usize = f.by_cluster_size.iter().map(|r| r.static_significant).sum();
        let predicted_total: usize =
            f.by_cluster_size.iter().map(|r| r.predicted_significant).sum();
        assert!(
            predicted_total < static_total,
            "predicted ({predicted_total}) must beat static ({static_total})"
        );
    }

    #[test]
    fn heterogeneous_vms_also_favor_prediction() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 92));
        let static_total: usize = f.by_extra_vms.iter().map(|r| r.static_significant).sum();
        let predicted_total: usize = f.by_extra_vms.iter().map(|r| r.predicted_significant).sum();
        assert!(predicted_total <= static_total);
    }

    #[test]
    fn sweeps_have_expected_lengths() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 93));
        assert_eq!(f.by_cluster_size.len(), 5);
        assert_eq!(f.by_extra_vms.len(), 5);
        assert_eq!(f.by_cluster_size[0].label, "N=4");
    }
}
