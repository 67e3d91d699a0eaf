//! Fig. 7: end-to-end TPC-DS with and without WANify (§5.4).
//!
//! Tetrium and Kimchi run queries 82, 95, 11 and 78, either as published
//! (static-independent beliefs, single connections) or WANify-enabled
//! (predicted beliefs + heterogeneous parallel connections + agents +
//! throttling). The paper reports up to 24% lower latency, up to 8% lower
//! cost, and a 3.3× higher minimum bandwidth.

use crate::common::{wan_aware_schedulers, Arm, Belief, ExpEnv, WanifyMode};
use crate::table::{Col, Measured, Row, Table};
use wanify_workloads::TpcDsQuery;

/// Runs all queries on both schedulers: WANify-enabled against the
/// scheduler as published, on the same network.
pub fn run(env: &ExpEnv) -> Table {
    let mut rows = Vec::new();
    for (qi, query) in TpcDsQuery::all().into_iter().enumerate() {
        let job = query.job(env.n, 100.0 * env.effort.input_scale());
        for (si, scheduler) in wan_aware_schedulers().iter().enumerate() {
            let measure = |arm| {
                Measured::from(&env.run_arm((qi * 10 + si) as u64, &job, scheduler.as_ref(), arm))
            };
            let base = measure(Arm::Single(Belief::StaticIndependent));
            let wanified = measure(Arm::wanify(WanifyMode::full()));
            rows.push(Row::new(&[query.name(), scheduler.name()], wanified, base));
        }
    }
    Table::grid(
        "Fig. 7: TPC-DS with/without WANify",
        &["query", "scheduler"],
        &[
            ("base (s)", Col::Base(&Col::Latency(0))),
            ("WANify (s)", Col::Latency(0)),
            ("latency", Col::LatencyGain),
            ("cost", Col::CostGain),
            ("minBW", Col::MinBwRatio),
        ],
        rows,
    )
    .expect("two labels per row")
    .note("paper: up to 24% latency, 8% cost, 3.3x min BW")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Effort;

    #[test]
    fn wanify_reduces_latency_on_heavy_queries() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 51));
        let q78: Vec<&Row> = f.rows.iter().filter(|r| r.key[0] == "q78").collect();
        assert!(!q78.is_empty());
        for r in q78 {
            assert!(
                r.gain().latency_pct > 0.0,
                "q78 {} should improve, got {:+.1}%",
                r.key[1],
                r.gain().latency_pct
            );
        }
    }

    #[test]
    fn min_bandwidth_rises_substantially() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 52));
        let best = f.rows.iter().map(|r| r.gain().min_bw_ratio).fold(f64::NEG_INFINITY, f64::max);
        assert!(best > 1.5, "paper reports 3.3x, got {best:.2}x");
    }

    #[test]
    fn all_eight_rows_present() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 53));
        assert_eq!(f.rows.len(), 8);
    }
}
