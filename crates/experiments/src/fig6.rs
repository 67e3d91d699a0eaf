//! Fig. 6: efficacy against various shuffle sizes (§5.3.2).
//!
//! WordCount over all-distinct-word inputs whose intermediate data is
//! controlled directly. The paper's shape: at tiny shuffle sizes (≈2-4 MB)
//! WANify and vanilla tie; from ~7.4 MB upward WANify's heterogeneous
//! connections cut latency and cost and lift the minimum bandwidth.

use crate::common::{Arm, Belief, ExpEnv, WanifyMode};
use crate::table::{Col, Measured, Row, Table};
use wanify_gda::VanillaSpark;
use wanify_workloads::wordcount;

/// The paper's sweep sizes in MB (x-axis of Fig. 6 plus larger tails).
pub const SWEEP_MB: [f64; 6] = [2.06, 3.63, 7.4, 40.0, 200.0, 600.0];

/// Runs the sweep: per size, WANify-TC against vanilla single-connection
/// Spark on the same network.
pub fn run(env: &ExpEnv) -> Table {
    let rows = SWEEP_MB.iter().enumerate().map(|(k, &mb)| {
        // Input in [100, 600] MB as §5.1; intermediate controlled directly.
        let job = wordcount::sweep_job(env.n, (mb * 20.0).clamp(100.0, 600.0), mb);
        let measure =
            |arm| Measured::from(&env.run_arm(100 + k as u64, &job, &VanillaSpark::new(), arm));
        let vanilla = measure(Arm::Single(Belief::StaticIndependent));
        Row::new(&[&format!("{mb:.2}")], measure(Arm::wanify(WanifyMode::full())), vanilla)
    });
    Table::grid(
        "Fig. 6: WordCount shuffle-size sweep",
        &["intermediate (MB)"],
        &[
            ("vanilla lat (s)", Col::Base(&Col::Latency(1))),
            ("WANify lat (s)", Col::Latency(1)),
            ("vanilla cost", Col::Base(&Col::Cost(3))),
            ("WANify cost", Col::Cost(3)),
            ("vanilla minBW", Col::Base(&Col::MinBw)),
            ("WANify minBW", Col::MinBw),
        ],
        rows.collect(),
    )
    .expect("one label per row")
    .note("paper: ties below ~4 MB; WANify wins from ~7.4 MB up")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Effort;

    #[test]
    fn small_shuffles_tie() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 31));
        let p = &f.rows[0]; // 2.06 MB
        let gap = (p.base.latency_s - p.latency_s).abs();
        assert!(
            gap <= p.base.latency_s * 0.35 + 3.0,
            "tiny shuffles should be close: vanilla {} vs wanify {}",
            p.base.latency_s,
            p.latency_s
        );
    }

    #[test]
    fn large_shuffles_favor_wanify() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 32));
        let p = f.rows.last().unwrap(); // 600 MB
        assert!(
            p.latency_s < p.base.latency_s,
            "600 MB shuffle: wanify {} should beat vanilla {}",
            p.latency_s,
            p.base.latency_s
        );
        assert!(p.min_bw_mbps > p.base.min_bw_mbps);
    }

    #[test]
    fn sweep_covers_paper_sizes() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 33));
        assert_eq!(f.rows.len(), SWEEP_MB.len());
        assert_eq!(f.rows[2].key, ["7.40"]);
    }
}
