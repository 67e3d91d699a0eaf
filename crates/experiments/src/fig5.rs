//! Fig. 5: comparing parallel data transfer approaches on TeraSort
//! (§5.3.1) — no WAN-aware scheduling anywhere, pure transfer layer.
//!
//! Four approaches: vanilla single-connection Spark ("No WANify"),
//! WANify-P (uniform 8 connections), WANify-Dynamic (heterogeneous +
//! agents, no throttling), and WANify-TC (the default: + throttling).
//! The paper's shape: WANify-P *hurts* (congestion), Dynamic helps,
//! TC is best on latency, cost and minimum bandwidth.

use crate::common::{Arm, Belief, ExpEnv, WanifyMode};
use crate::table::{Col, Measured, Row, Table};
use wanify_gda::{DataLayout, VanillaSpark};
use wanify_workloads::terasort;

/// The four approaches, in paper order: locality-aware Spark on static
/// beliefs and single connections, then the three transfer layers on
/// predicted beliefs.
pub const ARMS: [(&str, Arm); 4] = [
    ("No WANify", Arm::Single(Belief::StaticIndependent)),
    ("WANify-P", Arm::Uniform(8)),
    ("WANify-Dynamic", Arm::wanify(WanifyMode::dynamic())),
    ("WANify-TC", Arm::wanify(WanifyMode::full())),
];

/// Runs the four approaches, each on its own network.
pub fn run(env: &ExpEnv) -> Table {
    let job = terasort::job(DataLayout::uniform(env.n, 100.0 * env.effort.input_scale()));
    let rows = ARMS.iter().enumerate().map(|(k, &(name, arm))| {
        let m = Measured::from(&env.run_arm(k as u64, &job, &VanillaSpark::new(), arm));
        Row::new(&[name], m, m)
    });
    Table::grid(
        "Fig. 5: parallel data transfer approaches (TeraSort)",
        &["approach"],
        &[("latency (s)", Col::Latency(0)), ("cost", Col::Cost(2)), ("min BW (Mbps)", Col::MinBw)],
        rows.collect(),
    )
    .expect("one label per row")
    .note("paper: TC best (61 min, $4.7, 790 Mbps); uniform-P worst")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Effort;

    #[test]
    fn tc_is_the_best_approach() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 19));
        let tc = f.row(&["WANify-TC"]);
        let baseline = f.row(&["No WANify"]);
        assert!(
            tc.latency_s < baseline.latency_s,
            "TC {} should beat single-connection {}",
            tc.latency_s,
            baseline.latency_s
        );
        assert!(tc.min_bw_mbps > baseline.min_bw_mbps);
    }

    #[test]
    fn dynamic_beats_uniform_parallelism() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 20));
        let dynamic = f.row(&["WANify-Dynamic"]);
        let uniform = f.row(&["WANify-P"]);
        // At quick-effort scale the AIMD agents only get a handful of
        // 5-second epochs to converge, so parity with uniform parallelism
        // is acceptable; the decisive paper claim (TC best) is asserted in
        // `tc_is_the_best_approach`.
        assert!(
            dynamic.latency_s <= uniform.latency_s * 1.15,
            "heterogeneous {} should not materially lose to uniform {}",
            dynamic.latency_s,
            uniform.latency_s
        );
        assert!(dynamic.min_bw_mbps >= uniform.min_bw_mbps * 0.9);
    }

    #[test]
    fn all_four_approaches_present() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 21));
        assert_eq!(f.rows.len(), 4);
        assert!(f.render().contains("WANify-TC"));
    }
}
