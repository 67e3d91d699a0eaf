//! Table 4: performance/cost improvements from runtime bandwidth alone.
//!
//! Tetrium and Kimchi plan TPC-DS queries with three bandwidth beliefs —
//! static-independent (their default), static-simultaneous, and WANify's
//! predicted runtime matrix — all with single-connection transfers
//! (§5.2). The paper reports latency gains up to ~18% and cost gains up
//! to ~5.2%, with predicted ≈ simultaneous.

use crate::common::{wan_aware_schedulers, Arm, Belief, ExpEnv};
use crate::table::{Col, Measured, Row, Table};
use wanify_workloads::TpcDsQuery;

/// Runs all queries × schedulers × beliefs; each row is one runtime
/// belief's gain over static-independent on the same network.
pub fn run(env: &ExpEnv) -> Table {
    let mut rows = Vec::new();
    for (qi, query) in TpcDsQuery::all().into_iter().enumerate() {
        let job = query.job(env.n, 100.0 * env.effort.input_scale());
        for (si, scheduler) in wan_aware_schedulers().iter().enumerate() {
            let run_id = (qi * 10 + si) as u64;
            let run = |belief| env.run_arm(run_id, &job, scheduler.as_ref(), Arm::Single(belief));
            let base = Measured::from(&run(Belief::StaticIndependent));
            for belief in [Belief::StaticSimultaneous, Belief::Predicted] {
                let report = run(belief);
                let key = [query.name(), scheduler.name(), &report.belief];
                rows.push(Row::new(&key, Measured::from(&report), base));
            }
        }
    }
    Table::grid(
        "Table 4: gains over static-independent BWs (single connection)",
        &["query", "scheduler", "belief"],
        &[("perf", Col::LatencyGain), ("cost", Col::CostGain), ("minBW", Col::MinBwRatio)],
        rows,
    )
    .expect("three labels per row")
    .note("paper: perf up to ~18%, cost up to ~5.2%, ~1.5x min BW on avg/heavy queries")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Effort;

    #[test]
    fn runtime_beliefs_help_nontrivial_queries() {
        let t = run(&ExpEnv::new(8, Effort::Quick, 42));
        assert_eq!(t.rows.len(), 16);
        // Paper: up to ~18%.
        let best = t.rows.iter().map(|r| r.gain().latency_pct).fold(f64::NEG_INFINITY, f64::max);
        assert!(best > 2.0, "some query should gain from runtime BW, best {best:.1}%");
    }

    #[test]
    fn light_query_gains_little() {
        let t = run(&ExpEnv::new(8, Effort::Quick, 43));
        let perf = |query: &'static str| {
            t.rows.iter().filter(move |r| r.key[0] == query).map(|r| r.gain().latency_pct)
        };
        let q82_best = perf("q82").map(f64::abs).fold(0.0, f64::max);
        let q78_best = perf("q78").fold(f64::NEG_INFINITY, f64::max);
        assert!(
            q82_best < q78_best.max(5.0) + 10.0,
            "q82 (tiny shuffle) should not dominate: q82 {q82_best:.1}% vs q78 {q78_best:.1}%"
        );
    }

    #[test]
    fn predicted_tracks_simultaneous() {
        let t = run(&ExpEnv::new(8, Effort::Quick, 44));
        // Across all cells, the mean gap between the two beliefs is small.
        let mut gaps = Vec::new();
        for pair in t.rows.chunks(2) {
            gaps.push((pair[0].gain().latency_pct - pair[1].gain().latency_pct).abs());
        }
        let mean_gap: f64 = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!(mean_gap < 15.0, "predicted should track simultaneous, gap {mean_gap:.1}%");
    }
}
