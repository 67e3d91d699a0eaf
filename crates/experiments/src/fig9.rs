//! Fig. 9: handling dynamics — AIMD tracking accuracy (§5.7).
//!
//! A WANify-enabled Tetrium run traces the local optimizer of US East:
//! per 5-second epoch, the standard deviation of its target bandwidths to
//! every other region is compared with the standard deviation of the
//! actual monitored bandwidths (the simulator's ifTop). With 20% random
//! error injected into targets, the paper counts 6 epochs whose deltas
//! are significant (>100 Mbps) and observes more epochs overall.

use crate::common::{Belief, ExpEnv};
use crate::table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wanify::{Wanify, WanifyConfig};
use wanify_gda::{run_job, Tetrium, TransferOptions};
use wanify_netsim::stats::std_dev;
use wanify_workloads::TpcDsQuery;

/// Per-epoch standard deviations of the traced source's bandwidths.
#[derive(Debug, Clone)]
pub struct EpochSd {
    /// Epoch time, seconds.
    pub time_s: f64,
    /// SD of local-optimizer target bandwidths (Mbps).
    pub target_sd: f64,
    /// SD of monitored runtime bandwidths (Mbps).
    pub observed_sd: f64,
}

/// Result of the Fig. 9 reproduction.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Clean-run SD trace.
    pub clean: Vec<EpochSd>,
    /// Error-injected SD trace (20% target noise).
    pub with_error: Vec<EpochSd>,
}

impl Fig9 {
    /// Rendered summary.
    pub fn render(&self) -> String {
        let preview: Vec<String> = self
            .clean
            .iter()
            .take(8)
            .map(|e| {
                format!(
                    "t={:>5.0}s target_sd={:>6.0} observed_sd={:>6.0}",
                    e.time_s, e.target_sd, e.observed_sd
                )
            })
            .collect();
        Table::lines("Fig. 9: AIMD tracking of runtime dynamics (US East)")
            .note(format!(
                "clean run: {} epochs, {} significant SD deltas (>100 Mbps)",
                self.clean.len(),
                significant(&self.clean)
            ))
            .note(format!(
                "20% error:  {} epochs, {} significant SD deltas (paper: 6 verticals)",
                self.with_error.len(),
                significant(&self.with_error)
            ))
            .note(preview.join("\n"))
            .render()
    }
}

fn trace_run(env: &ExpEnv, perturb_pct: f64, seed: u64) -> Vec<EpochSd> {
    // Double the q78 input so shuffles span enough 5-second AIMD epochs to
    // populate the SD trace (the paper's runs last tens of minutes).
    let job = TpcDsQuery::Q78.job(env.n, 200.0 * env.effort.input_scale());
    let mut sim = env.sim(seed);
    let wanify = Wanify::new(WanifyConfig::default());
    let plan = wanify
        .plan(env.source(Belief::Predicted).as_mut(), &mut sim)
        .expect("predicted source matches the environment topology");
    sim.set_throttles(&plan.initial_throttles);
    let mut belief = wanify::Pregauged::named(plan.achievable_bw().clone(), "wanify(predicted)");
    let conns = plan.initial_conns().clone();
    let mut agent = wanify.agent(&plan).traced(0);
    let _ = run_job(
        &mut sim,
        &job,
        &Tetrium::new(),
        &mut belief,
        TransferOptions { conns: Some(&conns), hook: Some(&mut agent) },
    )
    .expect("fig9 jobs match their topology");
    sim.clear_throttles();

    // The traced source is DC 0 (US East): entry 0 of a sample is itself.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF19);
    agent
        .trace()
        .iter()
        .map(|sample| {
            let mut targets = sample.target_bw[1..].to_vec();
            if perturb_pct > 0.0 {
                for t in &mut targets {
                    let e: f64 = rng.gen_range(-1.0..1.0) * perturb_pct;
                    *t *= 1.0 + e;
                }
            }
            EpochSd {
                time_s: sample.time_s,
                target_sd: std_dev(&targets),
                observed_sd: std_dev(&sample.observed_bw[1..]),
            }
        })
        .collect()
}

/// Epochs whose target and observed SDs differ significantly (>100 Mbps;
/// the paper counts 6 in its error-injected trace).
pub fn significant(trace: &[EpochSd]) -> usize {
    trace.iter().filter(|e| (e.target_sd - e.observed_sd).abs() > 100.0).count()
}

/// Runs the clean and error-injected traces.
pub fn run(env: &ExpEnv) -> Fig9 {
    Fig9 { clean: trace_run(env, 0.0, 201), with_error: trace_run(env, 0.20, 202) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Effort;

    #[test]
    fn traces_are_nonempty() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 71));
        assert!(!f.clean.is_empty(), "agent must record AIMD epochs");
        assert!(!f.with_error.is_empty());
    }

    #[test]
    fn error_injection_increases_significant_deltas() {
        // Significance counts are integer-valued and noisy at quick-effort
        // scale (few AIMD epochs), so allow a ±1 band around the paper's
        // qualitative claim that injected error produces more deltas.
        let f = run(&ExpEnv::new(8, Effort::Quick, 72));
        let (clean, error) = (significant(&f.clean), significant(&f.with_error));
        assert!(
            error + 1 >= clean,
            "20% error should not reduce significant deltas: {error} vs {clean}"
        );
    }

    #[test]
    fn sds_are_finite_and_nonnegative() {
        let f = run(&ExpEnv::new(8, Effort::Quick, 73));
        for e in f.clean.iter().chain(&f.with_error) {
            assert!(e.target_sd.is_finite() && e.target_sd >= 0.0);
            assert!(e.observed_sd.is_finite() && e.observed_sd >= 0.0);
        }
    }
}
