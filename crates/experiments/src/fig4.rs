//! Fig. 4: impact on geo-distributed ML training (§5.6).
//!
//! Five quantized training variants over the MNIST-scale workload:
//! NoQ (full precision), SAGQ (static-independent BW beliefs), SimQ
//! (simultaneous), PredQ (predicted), and WQ (WANify: predicted beliefs +
//! heterogeneous parallel connections + agents). The paper reports SAGQ
//! −22% vs NoQ, SimQ/PredQ a further 13-14.5%, and WQ best (−26% vs SAGQ)
//! with a 2× minimum-bandwidth boost.

use crate::common::{Belief, Effort, ExpEnv};
use crate::table::{Col, Measured, Row, Table};
use wanify::{Wanify, WanifyConfig};
use wanify_netsim::DcId;
use wanify_workloads::quantization::{run_training, QuantConfig, QuantPolicy};

fn ml_config(effort: Effort) -> QuantConfig {
    QuantConfig {
        master: DcId(0),
        grad_mb_per_epoch: 1800.0 * effort.input_scale(),
        compute_s_per_epoch: 240.0 * effort.input_scale(),
        epochs: match effort {
            Effort::Quick => 3,
            Effort::Full => 10,
        },
        target_transfer_s: 25.0,
        ..QuantConfig::default()
    }
}

/// The single-connection variants: full precision, then precision chosen
/// from each belief.
pub const VARIANTS: [(&str, Option<Belief>); 4] = [
    ("NoQ", None),
    ("SAGQ", Some(Belief::StaticIndependent)),
    ("SimQ", Some(Belief::StaticSimultaneous)),
    ("PredQ", Some(Belief::Predicted)),
];

/// Runs all five variants (NoQ, SAGQ, SimQ, PredQ, WQ in paper order).
pub fn run(env: &ExpEnv) -> Table {
    let cfg = ml_config(env.effort);
    let mut rows = Vec::new();
    for (i, (name, belief)) in VARIANTS.into_iter().enumerate() {
        let mut sim = env.sim(i as u64);
        let policy = match belief {
            Some(belief) => QuantPolicy::BwDriven(env.gauge(belief, &mut sim)),
            None => QuantPolicy::FullPrecision,
        };
        let m = Measured::from(&run_training(&mut sim, &cfg, &policy, None, None));
        rows.push(Row::new(&[name], m, m));
    }

    // WQ: predicted beliefs + WANify connection plan + local agents.
    // Throttling stays off: SAGQ already equalizes per-link transfer times
    // by sizing payloads to believed bandwidth, so capping rich links would
    // only re-inflate the near workers' exchanges. The hub-and-spoke ML
    // pattern benefits from the heterogeneous connections and AIMD alone.
    let mut sim = env.sim(9);
    let predicted = env.gauge(Belief::Predicted, &mut sim);
    let wanify = Wanify::new(WanifyConfig { throttling: false, ..WanifyConfig::default() });
    let plan = wanify.try_plan_matrix(&predicted).expect("no skew or rvec vector to mismatch");
    let mut agent = wanify.agent(&plan);
    // WQ picks precision from the same predicted beliefs as PredQ — the
    // quantizer's accuracy/precision trade-off is unchanged — while the
    // transport layer additionally enjoys WANify's parallel heterogeneous
    // connections and throttling, which is where the extra speedup and the
    // 2x minimum-bandwidth boost come from (§5.6).
    let policy = QuantPolicy::BwDriven(predicted);
    let report =
        run_training(&mut sim, &cfg, &policy, Some(plan.initial_conns()), Some(&mut agent));
    let wq = Measured::from(&report);
    rows.push(Row::new(&["WQ"], wq, wq));

    let table = Table::grid(
        "Fig. 4: quantized geo-distributed training",
        &["variant"],
        &[("training (s)", Col::Latency(0)), ("cost", Col::Cost(2)), ("min BW (Mbps)", Col::MinBw)],
        rows,
    )
    .expect("one label per row");
    let over_sagq = table.row(&["WQ"]).gain_over(table.row(&["SAGQ"])).latency_pct;
    table.note(format!("WQ vs SAGQ: {over_sagq:+.1}% training time (paper: ~26%)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_paper() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 7));
        assert_eq!(f.rows.len(), 5);
        let noq = f.row(&["NoQ"]).latency_s;
        let sagq = f.row(&["SAGQ"]).latency_s;
        let wq = f.row(&["WQ"]).latency_s;
        assert!(sagq <= noq, "quantization must not slow training: {sagq} vs {noq}");
        assert!(wq < sagq, "WANify must beat static quantization: {wq} vs {sagq}");
    }

    #[test]
    fn wq_boosts_minimum_bandwidth() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 8));
        assert!(
            f.row(&["WQ"]).min_bw_mbps > 1.3 * f.row(&["SAGQ"]).min_bw_mbps,
            "paper: ~2x min BW boost, got {} vs {}",
            f.row(&["WQ"]).min_bw_mbps,
            f.row(&["SAGQ"]).min_bw_mbps
        );
    }

    #[test]
    fn accurate_beliefs_beat_static() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 9));
        let sagq = f.row(&["SAGQ"]).latency_s;
        let best_accurate = f.row(&["SimQ"]).latency_s.min(f.row(&["PredQ"]).latency_s);
        assert!(
            best_accurate <= sagq * 1.02,
            "accurate beliefs should not lose to static: {best_accurate} vs {sagq}"
        );
    }
}
