//! `gateway-overload`: an open-loop Poisson stream at twice the
//! calibrated saturation rate into the serving gateway, on live
//! dynamics. It uses `gda.fleet` a third way (serving push:
//! `submit_job`/`serve_step`), uses `netsim.engine` with small flow sets
//! under moving bandwidth, and refuses about a third of the requests
//! before they touch the WAN, so the gateway's admission cost shows.
//!
//! The loop is open in *simulated* time: latency runs from a request's
//! scheduled arrival, and the generator is never late by construction.

use crate::trace::span;
use crate::workload::{digest_fleet, timed, Fnv, Layers, Rep, Workload};
use crate::wrap;
use wanify::Pregauged;
use wanify_gateway::{Disposition, Gateway, GatewayConfig, GatewayReport, GatewayRequest};
use wanify_gda::{FleetConfig, FleetEngine, Tetrium};
use wanify_netsim::{paper_testbed_n, BwMatrix, LinkModelParams, NetSim, VmType};
use wanify_workloads::{offered_load, LoadSpec};

const N_DCS: usize = 8;
const MAX_CONCURRENT: usize = 8;
/// Requests per rep.
pub const REQUESTS: usize = 22_000;
/// Requests of the set-up warm-up pass.
const WARMUP_REQUESTS: usize = 2_000;
/// Requests of the unloaded calibration trickle.
const CALIBRATION_REQUESTS: usize = 200;
/// Seed of the calibration trickle: the saturation rate is a property of
/// the system under test, so it must not move with the request seed.
const CALIBRATION_SEED: u64 = 77;
/// Offered load, in multiples of the calibrated saturation rate.
const LOAD_MULTIPLE: f64 = 2.0;
/// Deadline slack of every request, in unloaded mean makespans.
const SLACK_MAKESPANS: f64 = 4.0;

pub struct GatewayOverload {
    requests: Vec<GatewayRequest>,
    gen_s: f64,
}

fn requests_of(spec: &LoadSpec) -> Vec<GatewayRequest> {
    offered_load(spec)
        .into_iter()
        .map(|o| GatewayRequest { job: o.job, arrival_s: o.arrival_s, deadline_s: o.deadline_s })
        .collect()
}

fn serve(requests: Vec<GatewayRequest>, traced: bool) -> Result<GatewayReport, String> {
    let params = LinkModelParams {
        dynamics_tick_s: 30.0,
        snapshot_noise: 0.0,
        ..LinkModelParams::default()
    };
    let engine = FleetEngine::new(
        NetSim::new(paper_testbed_n(VmType::t2_medium(), N_DCS), params, 77),
        wrap::scheduler(Box::new(Tetrium::new()), traced),
        wrap::source(Box::new(Pregauged::new(BwMatrix::filled(N_DCS, 300.0))), traced),
        FleetConfig { max_concurrent: MAX_CONCURRENT, ..FleetConfig::default() },
    );
    let gateway =
        Gateway::new(engine, GatewayConfig { queue_depth: 32, ..GatewayConfig::default() });
    let _s = span("gateway.serve");
    gateway.serve(requests).map_err(|e| format!("gateway serve: {e}"))
}

impl Workload for GatewayOverload {
    const NAME: &'static str = "gateway-overload";

    fn prepare(seed: u64, shrink: usize) -> Self {
        // The same mix trickled far below saturation, without deadlines,
        // gives the unloaded mean makespan the load is scaled against.
        let trickle =
            LoadSpec::new(N_DCS, CALIBRATION_REQUESTS, CALIBRATION_SEED, 1e-3).scaled(0.8);
        let unloaded = serve(requests_of(&trickle), false).expect("calibration trickle runs");
        let mean_makespan_s = unloaded.fleet.makespan().mean;
        let saturation_rate = MAX_CONCURRENT as f64 / mean_makespan_s;

        let count = (REQUESTS / shrink).max(CALIBRATION_REQUESTS);
        let spec = LoadSpec::new(N_DCS, count, seed, LOAD_MULTIPLE * saturation_rate)
            .scaled(0.8)
            .with_deadline_slack(SLACK_MAKESPANS * mean_makespan_s);
        let (requests, gen_s) = timed(|| requests_of(&spec));
        let warm = requests[..WARMUP_REQUESTS.min(requests.len())].to_vec();
        serve(warm, false).expect("warm-up pass runs");
        Self { requests, gen_s }
    }

    fn setup_layers(&self) -> Layers {
        Layers::from([
            ("workloads.gen_calls", self.requests.len() as f64),
            ("workloads.gen_busy_s", self.gen_s),
        ])
    }

    fn rep(&self, traced: bool) -> Result<Rep, String> {
        let requests = self.requests.clone();
        let (report, wall_s) = timed(|| serve(requests, traced));
        let report = report?;
        let s = report.fleet.serving;
        let (served, good) = (report.served() as u64, report.good() as u64);
        if s.offered != self.requests.len() as u64
            || s.offered != served + s.rejected + s.quota_rejected + s.shed_jobs
        {
            return Err(format!(
                "gateway identity broken: offered {} != served {served} + rejected {} + \
                 quota_rejected {} + shed {}",
                s.offered, s.rejected, s.quota_rejected, s.shed_jobs
            ));
        }
        if report.fleet.completed() as u64 != served {
            return Err(format!(
                "fleet completed {} but {served} served",
                report.fleet.completed()
            ));
        }
        let mut h = Fnv::new();
        digest_fleet(&mut h, &report.fleet);
        for d in &report.dispositions {
            match *d {
                Disposition::Served { completed_s, met_deadline, failed } => {
                    h.f64(completed_s);
                    h.u64(u64::from(met_deadline) | u64::from(failed) << 1);
                }
                Disposition::RejectedOverload => h.u64(2),
                Disposition::RejectedQuota => h.u64(3),
                Disposition::Shed => h.u64(4),
            }
        }
        Ok(Rep {
            wall_s,
            ops: s.offered,
            good,
            aborted: report.fleet.failed_jobs() as u64,
            digest: h.finish(),
            sim_jobs_per_sim_s: good as f64 / report.fleet.duration_s,
            sim_latency_p50_s: report.latency.p50,
            sim_latency_p99_s: report.latency.p99,
            latency_samples: served,
            sim_cost_usd_per_job: report.fleet.total_cost_usd() / served as f64,
            layers: Layers::from([
                ("gateway.offered", s.offered as f64),
                ("gateway.served", served as f64),
                ("gateway.shed", s.shed_jobs as f64),
                ("gateway.rejected", s.rejected as f64),
                ("gateway.good_ratio", good as f64 / served as f64),
                ("gda.fleet.gauges", report.fleet.gauges as f64),
            ]),
        })
    }

    fn probes(&self, _untraced_wall_s: f64) -> Layers {
        Layers::new() // the layers under the gateway are probed by the other workloads
    }
}
