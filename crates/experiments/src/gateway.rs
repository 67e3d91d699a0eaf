//! Gateway overload study: goodput across an offered-load sweep.
//!
//! Beyond the paper: WANify measures how fast one analytics job runs;
//! this driver asks what happens when jobs keep *arriving*. An
//! admission-controlled serving gateway ([`wanify_gateway::Gateway`])
//! fronts the fleet engine while an open-loop Poisson source offers the
//! same deterministic job mix at multiples of the fleet's calibrated
//! saturation rate. A well-behaved gateway degrades by shedding and
//! rejecting — goodput (deadline-met completions per simulated second)
//! holds near capacity instead of collapsing as offered load passes
//! saturation.
//!
//! Simulated results are bit-identical across repeated runs and rayon
//! thread counts, like everything else in this workspace.

use crate::common::{fleet_engine, Effort};
use crate::table::Table;
use wanify::Pregauged;
use wanify_gateway::{Gateway, GatewayConfig, GatewayReport, GatewayRequest};
use wanify_gda::FleetConfig;
use wanify_netsim::{paper_testbed_n, BwMatrix, LinkModelParams, NetSim, VmType};
use wanify_workloads::{offered_load, LoadSpec};

const N_DCS: usize = 3;
/// Admission slots of the fleet behind the gateway.
pub const MAX_CONCURRENT: usize = 2;
/// Deadline slack granted to every request, in unloaded mean makespans.
pub const SLACK_MAKESPANS: f64 = 4.0;

/// One offered-load point of the sweep.
#[derive(Debug)]
pub struct GatewayRow {
    /// Offered load as a multiple of the calibrated saturation rate.
    pub load_multiple: f64,
    /// Offered arrival rate, jobs per simulated second.
    pub rate_per_s: f64,
    /// What the gateway did with it: dispositions in
    /// `report.fleet.serving`, latency order statistics, duration.
    pub report: GatewayReport,
}

impl GatewayRow {
    /// Good completions (deadline met, no fault) per simulated second.
    pub fn goodput_per_s(&self) -> f64 {
        self.report.good() as f64 / self.report.fleet.duration_s.max(1e-9)
    }
}

/// Outcome of [`run`].
#[derive(Debug)]
pub struct GatewayResult {
    /// One row per offered-load multiple, in sweep order.
    pub rows: Vec<GatewayRow>,
    /// Calibrated saturation rate, jobs per simulated second.
    pub saturation_rate_per_s: f64,
    /// Jobs offered at every sweep point.
    pub jobs: usize,
}

impl GatewayResult {
    /// The row closest to `multiple` times saturation.
    pub fn at(&self, multiple: f64) -> Option<&GatewayRow> {
        self.rows.iter().min_by(|a, b| {
            (a.load_multiple - multiple).abs().total_cmp(&(b.load_multiple - multiple).abs())
        })
    }

    /// Renders the sweep as an aligned text table.
    pub fn render(&self) -> String {
        let cells = self.rows.iter().map(|r| {
            let s = &r.report.fleet.serving;
            vec![
                format!("{:.1}x", r.load_multiple),
                format!("{}", s.offered),
                format!("{}", r.report.served()),
                format!("{}", r.report.good()),
                format!("{}", s.shed_jobs),
                format!("{}", s.rejected),
                format!("{}", s.deadline_misses),
                format!("{:.4}", r.goodput_per_s()),
                format!("{:.1}", r.report.latency.p99),
            ]
        });
        Table::text(
            &format!(
                "Serving gateway under overload: {} jobs per point on {} DCs, \
                 saturation {:.4} jobs/s, deadlines at {:.0}x unloaded makespan\n",
                self.jobs, N_DCS, self.saturation_rate_per_s, SLACK_MAKESPANS
            ),
            &[
                "load",
                "offered",
                "served",
                "good",
                "shed",
                "rejected",
                "misses",
                "goodput/s",
                "p99 s",
            ],
            cells.collect(),
        )
        .expect("nine cells per row")
        .render()
    }
}

fn serve(seed: u64, requests: Vec<GatewayRequest>) -> GatewayReport {
    let topo = paper_testbed_n(VmType::t2_medium(), N_DCS);
    let engine = fleet_engine(
        NetSim::new(topo, LinkModelParams::frozen(), seed),
        Box::new(Pregauged::new(BwMatrix::filled(N_DCS, 300.0))),
        MAX_CONCURRENT,
        FleetConfig::default().regauge_every_s,
    );
    Gateway::new(engine, GatewayConfig { queue_depth: 8, ..GatewayConfig::default() })
        .serve(requests)
        .expect("gateway sweep point failed to run")
}

fn to_requests(spec: &LoadSpec) -> Vec<GatewayRequest> {
    offered_load(spec)
        .into_iter()
        .map(|o| GatewayRequest { job: o.job, arrival_s: o.arrival_s, deadline_s: o.deadline_s })
        .collect()
}

/// Runs the offered-load sweep.
///
/// `Quick` effort offers 10 jobs per point at 0.5/1/2x saturation;
/// `Full` offers 40 at 0.5/1/1.5/2/3x.
pub fn run(effort: Effort, seed: u64) -> GatewayResult {
    let (jobs, multiples): (usize, &[f64]) = match effort {
        Effort::Quick => (10, &[0.5, 1.0, 2.0]),
        Effort::Full => (40, &[0.5, 1.0, 1.5, 2.0, 3.0]),
    };
    // Calibration: the same mix, trickled far below saturation with no
    // deadlines, gives the unloaded mean makespan.
    let base = LoadSpec::new(N_DCS, jobs, seed, 1e-3).scaled(0.8);
    let unloaded = serve(seed, to_requests(&base));
    let mean_makespan_s = unloaded.fleet.makespan().mean;
    let saturation_rate_per_s = MAX_CONCURRENT as f64 / mean_makespan_s.max(1e-9);
    let slack_s = SLACK_MAKESPANS * mean_makespan_s;

    let rows = multiples
        .iter()
        .map(|&m| {
            let rate = m * saturation_rate_per_s;
            let load = base.clone().at_rate(rate).with_deadline_slack(slack_s);
            GatewayRow {
                load_multiple: m,
                rate_per_s: rate,
                report: serve(seed, to_requests(&load)),
            }
        })
        .collect();
    GatewayResult { rows, saturation_rate_per_s, jobs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_holds_past_saturation() {
        let result = run(Effort::Quick, 77);
        assert_eq!(result.rows.len(), 3);
        let at_sat = result.at(1.0).expect("saturation point").goodput_per_s();
        let at_2x = result.at(2.0).expect("2x point").goodput_per_s();
        assert!(at_sat > 0.0, "saturation point served nothing");
        assert!(
            at_2x >= 0.8 * at_sat,
            "goodput collapsed past saturation: {at_2x:.4} vs {at_sat:.4}"
        );
        for row in &result.rows {
            assert!(row.report.latency.p50.is_finite());
            let duration_s = row.report.fleet.duration_s;
            assert!(duration_s.is_finite() && duration_s > 0.0);
        }
        assert!(result.render().contains("goodput/s"));
    }

    #[test]
    fn simulated_results_are_reproducible() {
        let a = run(Effort::Quick, 5);
        let b = run(Effort::Quick, 5);
        assert_eq!(a.saturation_rate_per_s.to_bits(), b.saturation_rate_per_s.to_bits());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.goodput_per_s().to_bits(), y.goodput_per_s().to_bits());
            assert_eq!(x.report.latency.p99.to_bits(), y.report.latency.p99.to_bits());
            let counts = |r: &GatewayRow| {
                let s = &r.report.fleet.serving;
                (r.report.served(), r.report.good(), s.shed_jobs, s.rejected)
            };
            assert_eq!(counts(x), counts(y));
        }
    }
}
