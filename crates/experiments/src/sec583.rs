//! §5.8.3 "Benefits in GDA": heterogeneous compute capacities.
//!
//! TPC-DS query 78 on the 8-DC testbed with one extra t2.medium VM in
//! US East. Three arms: vanilla Tetrium (static-independent beliefs),
//! Tetrium-r (predicted beliefs, single connection) and full
//! WANify-enabled Tetrium. The paper reports 5%/1%/1.2× for Tetrium-r and
//! 15%/7.4%/2× for the full stack.

use crate::common::{Arm, Belief, Effort, ExpEnv, WanifyMode};
use crate::table::{Measured, Row, Table};
use wanify_gda::Tetrium;
use wanify_netsim::{paper_testbed, DcId, VmType};
use wanify_workloads::TpcDsQuery;

/// The two arms compared against vanilla Tetrium.
pub const ARMS: [(&str, Arm); 2] =
    [("Tetrium-r", Arm::Single(Belief::Predicted)), ("WANify", Arm::wanify(WanifyMode::full()))];

/// Runs the three arms on the heterogeneous fleet.
pub fn run(effort: Effort, seed: u64) -> Table {
    // Train the model on the homogeneous sizes; heterogeneous fleets are
    // covered by the host-metric features (§3.3.3).
    let topo = paper_testbed(VmType::t2_medium()).with_extra_vms(DcId(0), 1);
    let env = ExpEnv::trained(topo, &[6, 7, 8], [seed ^ 0x583, seed], effort, seed);
    let job = TpcDsQuery::Q78.job(env.n, 100.0 * effort.input_scale());
    let measure = |arm| Measured::from(&env.run_arm(0, &job, &Tetrium::new(), arm));
    let vanilla = measure(Arm::Single(Belief::StaticIndependent));
    let mut table =
        Table::lines("Sec 5.8.3: q78 with an extra t2.medium VM in US East (vs vanilla Tetrium)");
    for (name, arm) in ARMS {
        let row = Row::new(&[name], measure(arm), vanilla);
        let g = row.gain();
        table.notes.push(format!(
            "{name:<12} latency {:+.1}%  cost {:+.1}%  minBW {:.2}x",
            g.latency_pct, g.cost_pct, g.min_bw_ratio
        ));
        table.rows.push(row);
    }
    table.note("paper: Tetrium-r 5%/1%/1.2x; WANify 15%/7.4%/2x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_wanify_beats_prediction_only() {
        let s = run(Effort::Quick, 583);
        let r = s.row(&["Tetrium-r"]).gain();
        let w = s.row(&["WANify"]).gain();
        assert!(
            w.latency_pct >= r.latency_pct - 2.0,
            "full WANify ({:+.1}%) should be at least Tetrium-r ({:+.1}%)",
            w.latency_pct,
            r.latency_pct
        );
        assert!(w.min_bw_ratio > 1.0, "min BW must rise with parallel connections");
    }

    #[test]
    fn two_rows_rendered() {
        let s = run(Effort::Quick, 584);
        assert_eq!(s.rows.len(), 2);
        assert!(s.render().contains("Tetrium-r"));
    }
}
