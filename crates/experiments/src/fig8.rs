//! Fig. 8: validation of WANify's design (§5.5).
//!
//! (a) Ablation on TPC-DS query 78: Vanilla (unmodified GDA system),
//! Global-only, Local-only (static 1..=8 window), and full WANify. The
//! paper's ordering: WANify (≈23%) > Global-only (≈16%) > Local-only
//! (≈11%) > Vanilla.
//!
//! (b) Prediction-error injection: ±100 Mbps (the significance bound) is
//! randomly added to the predicted matrix; the paper reports ~18% higher
//! latency, ~5% higher cost and a ~38% lower minimum bandwidth.

use crate::common::{
    improvement_pct, run_arm_on, wan_aware_schedulers, Arm, Belief, ExpEnv, WanifyMode,
};
use crate::table::{Col, Measured, Row, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wanify::Pregauged;
use wanify_gda::Tetrium;
use wanify_netsim::BwMatrix;
use wanify_workloads::TpcDsQuery;

const FULL: Arm = Arm::wanify(WanifyMode::full());

/// The ablation arms, each compared against the unmodified GDA system
/// (`vanilla`: static-independent beliefs, single connections).
pub const ARMS: [(&str, Arm); 3] = [
    ("global-only", Arm::wanify(WanifyMode::global_only())),
    ("local-only", Arm::wanify(WanifyMode::local_only())),
    ("wanify", FULL),
];

/// Randomly adds or subtracts `delta` Mbps to every off-diagonal cell
/// (the paper's WANify-err perturbation).
///
/// Values are floored at 15% of the original: the paper's matrices bottom
/// out near 121 Mbps, so its −100 Mbps shift cuts a weak link by at most
/// ~83%; our runtime matrices reach lower absolute values and an absolute
/// floor of ~1 Mbps would make the perturbation categorically harsher than
/// the paper's.
pub fn inject_error(bw: &BwMatrix, delta: f64, seed: u64) -> BwMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = bw.len();
    BwMatrix::from_fn(n, |i, j| {
        if i == j {
            bw.get(i, j)
        } else {
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let v = bw.get(i, j);
            (v + sign * delta).max(0.15 * v).max(1.0)
        }
    })
}

/// Runs the ablation and error-injection studies: rows `[scheduler, arm]`
/// against that scheduler's vanilla run, plus the row `["wanify-err"]` —
/// WANify on the error-injected matrix against WANify on the clean one
/// (Tetrium, q78), reported in the notes rather than the grid.
pub fn run(env: &ExpEnv) -> Table {
    let job = TpcDsQuery::Q78.job(env.n, 100.0 * env.effort.input_scale());
    let mut rows = Vec::new();
    for (si, scheduler) in wan_aware_schedulers().iter().enumerate() {
        let measure = |arm| Measured::from(&env.run_arm(si as u64, &job, scheduler.as_ref(), arm));
        let vanilla = measure(Arm::Single(Belief::StaticIndependent));
        rows.push(Row::new(&[scheduler.name(), "vanilla"], vanilla, vanilla));
        for (name, arm) in ARMS {
            rows.push(Row::new(&[scheduler.name(), name], measure(arm), vanilla));
        }
    }

    // Error injection on Tetrium: the same network, the same gauge, then
    // the plan sees the perturbed matrix.
    let clean = Measured::from(&env.run_arm(77, &job, &Tetrium::new(), FULL));
    let mut sim = env.sim(77);
    let noisy_bw = inject_error(&env.gauge(Belief::Predicted, &mut sim), 100.0, env.seed ^ 0xE44);
    let mut source = Pregauged::named(noisy_bw, "predicted+err");
    let noisy = run_arm_on(&mut sim, &job, &Tetrium::new(), &mut source, FULL);
    let erred = Row::new(&["wanify-err"], Measured::from(&noisy), clean);
    let (g, min_bw_pct) = (erred.gain(), -improvement_pct(clean.min_bw_mbps, erred.min_bw_mbps));

    let mut table = Table::grid(
        "Fig. 8(a): ablation on q78",
        &["scheduler", "arm"],
        &[
            ("latency (s)", Col::Latency(0)),
            ("vs vanilla", Col::LatencyGain),
            ("min BW", Col::MinBw),
        ],
        rows,
    )
    .expect("two labels per row")
    .note("paper: WANify ~23% > Global-only ~16% > Local-only ~11%")
    .note("")
    .note("Fig. 8(b): prediction-error injection (±100 Mbps)")
    .note(format!(
        "latency {:+.1}% (paper ~+18%), cost {:+.1}% (~+5%), min BW {:+.1}% (~-38%)",
        -g.latency_pct, -g.cost_pct, min_bw_pct
    ));
    table.rows.push(erred);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Effort;

    #[test]
    fn full_wanify_beats_partial_arms() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 61));
        for sched in ["tetrium", "kimchi"] {
            let full = f.row(&[sched, "wanify"]).gain().latency_pct;
            let global = f.row(&[sched, "global-only"]).gain().latency_pct;
            assert!(
                full >= global - 3.0,
                "{sched}: full ({full:.1}%) should be at least global-only ({global:.1}%)"
            );
            assert!(full > 0.0, "{sched}: full WANify must beat vanilla");
        }
    }

    #[test]
    fn error_injection_hurts() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 62));
        let latency_increase_pct = -f.row(&["wanify-err"]).gain().latency_pct;
        assert!(
            latency_increase_pct > -3.0,
            "±100 Mbps errors should not help latency: {latency_increase_pct:+.1}%"
        );
    }

    #[test]
    fn inject_error_shifts_every_cell_by_delta() {
        let bw = BwMatrix::from_fn(3, |i, j| if i == j { 0.0 } else { 500.0 });
        let e = inject_error(&bw, 100.0, 9);
        for (_, _, v) in e.iter_pairs() {
            assert!((v - 400.0).abs() < 1e-9 || (v - 600.0).abs() < 1e-9);
        }
    }

    #[test]
    fn inject_error_floors_at_one() {
        let bw = BwMatrix::from_fn(2, |i, j| if i == j { 0.0 } else { 50.0 });
        let e = inject_error(&bw, 100.0, 1);
        for (_, _, v) in e.iter_pairs() {
            assert!(v >= 1.0);
        }
    }
}
