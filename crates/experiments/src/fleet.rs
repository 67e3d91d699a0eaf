//! Fleet scenario: belief provenances under cross-query contention.
//!
//! The solo-query experiments (fig5–fig8) already show that belief
//! quality determines latency when one query owns the WAN. This driver
//! asks the production question the ROADMAP's north star implies: with a
//! *fleet* of concurrent mixed queries contending on one shared WAN, how
//! do the §5.2 belief provenances rank, and what does each cost in
//! monitoring time? Every arm serves the identical deterministic trace
//! (same jobs, same Poisson arrivals, same seeds) through the
//! [`wanify_gda::FleetEngine`], varying only the shared
//! [`wanify::BandwidthSource`] — so the
//! differences are purely belief-driven, as in the paper's §5.2
//! methodology, but now measured as fleet throughput and tail makespan
//! instead of single-query latency.

use crate::common::{fleet_engine, Belief, Effort, ExpEnv};
use crate::table::Table;
use wanify_gda::{Arrivals, FleetReport};
use wanify_workloads::{mixed_trace, TraceConfig};

/// Outcome of [`run`].
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// One fleet report per belief provenance.
    pub rows: Vec<FleetReport>,
    /// Queries in the trace.
    pub jobs: usize,
    /// Data centers in the testbed.
    pub n_dcs: usize,
}

impl FleetResult {
    /// The report for `belief`, if present.
    pub fn row(&self, belief: &str) -> Option<&FleetReport> {
        self.rows.iter().find(|r| r.belief == belief)
    }

    /// Renders the comparison as an aligned text table.
    pub fn render(&self) -> String {
        let cells = self.rows.iter().map(|r| {
            let makespan = r.makespan();
            vec![
                r.belief.clone(),
                format!("{:.4}", r.throughput_jobs_per_s()),
                format!("{:.0}", makespan.p50),
                format!("{:.0}", makespan.p95),
                format!("{:.0}", makespan.p99),
                format!("{:.0}", r.queue_wait().mean),
                format!("{}", r.gauges),
                format!("${:.2}", r.network_cost_usd()),
            ]
        });
        Table::text(
            &format!(
                "Fleet contention: {} mixed queries on {} DCs, Tetrium, shared belief cache\n",
                self.jobs, self.n_dcs
            ),
            &["belief", "jobs/s", "p50 mkspan", "p95", "p99", "mean wait", "gauges", "egress $"],
            cells.collect(),
        )
        .expect("eight cells per row")
        .render()
    }
}

/// Runs the fleet comparison across belief provenances.
///
/// `Quick` effort serves 16 queries on its own 4-DC environment; `Full`
/// serves 60 on the shared 8-DC paper testbed. Identical traces and
/// arrivals per arm.
pub fn run(env: &ExpEnv) -> FleetResult {
    let (n, jobs, rate) = match env.effort {
        Effort::Quick => (4, 16, 0.02),
        Effort::Full => (8, 60, 0.02),
    };
    let small;
    let env = if n == env.n {
        env
    } else {
        small = ExpEnv::new(n, env.effort, env.seed);
        &small
    };
    let trace = mixed_trace(&TraceConfig::new(n, jobs, env.seed ^ 0xF1EE).scaled(0.5));
    let beliefs = [
        Belief::StaticIndependent,
        Belief::StaticSimultaneous,
        Belief::Predicted,
        Belief::MeasuredRuntime,
    ];
    let rows = beliefs
        .iter()
        .map(|&belief| {
            fleet_engine(env.sim(100), env.source(belief), 8, 120.0)
                .run(&trace, &Arrivals::Poisson { rate_per_s: rate, seed: env.seed ^ 0xBEEF })
                .expect("fleet traces match their topology")
        })
        .collect();
    FleetResult { rows, jobs, n_dcs: n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_belief_serves_the_whole_trace() {
        let result = run(&ExpEnv::new(4, Effort::Quick, 9));
        assert_eq!((result.rows.len(), result.n_dcs), (4, 4));
        for row in &result.rows {
            assert!(row.throughput_jobs_per_s() > 0.0, "{} served nothing", row.belief);
            assert!(row.makespan().p99 >= row.makespan().p50);
        }
        assert!(result.render().contains("jobs/s"));
    }

    #[test]
    fn predicted_tracks_ground_truth_at_a_fraction_of_the_probe_cost() {
        // Each predicted gauge is a 1-second snapshot instead of a
        // 20-second stable measurement. The fleet-level claim that is
        // robust at any load: the predicted arm stays within a few percent
        // of the measured-runtime arm's throughput while paying a far
        // shorter probe per gauge — Table 2's monitoring-cost argument,
        // fleet-sized.
        let result = run(&ExpEnv::new(4, Effort::Quick, 4));
        let predicted = result.row("predicted").expect("predicted arm");
        let measured = result.row("measured-runtime").expect("measured arm");
        assert!(predicted.gauges >= 1 && measured.gauges >= 1);
        let ratio = predicted.throughput_jobs_per_s() / measured.throughput_jobs_per_s();
        assert!(
            (0.9..=1.1).contains(&ratio),
            "predicted should track ground truth closely, got ratio {ratio:.3}"
        );
    }
}
