//! `fleet-closed`: the contention regime. Sixteen closed-loop clients
//! with no think time keep sixteen queries (≈900 flows per fairness
//! solve) on one shared 8-DC WAN, so `netsim.engine` and `gda.fleet` do
//! nearly all the work while sharding, the gateway and the forest do
//! none.
//!
//! Sixteen, not the sixty of `bench_fleet`: past about twenty tenants the
//! link model's over-budget goodput loss makes the closed loop bistable —
//! at sixty clients the same 3 000 queries in a different order finish at
//! either 0.040 or 0.073 jobs per simulated second — so no simulated-time
//! metric would repeat across seeds. At sixteen every one of them stays
//! within a few percent.

use crate::probes;
use crate::trace::span;
use crate::workload::{digest_fleet, timed, Fnv, Layers, Rep, Workload};
use crate::wrap;
use wanify_gda::{Arrivals, FleetConfig, FleetEngine, FleetReport, FleetRun, JobProfile, Tetrium};
use wanify_netsim::{paper_testbed_n, LinkModelParams, NetSim, RunStats, VmType};
use wanify_workloads::{mixed_trace, TraceConfig};

pub const N_DCS: usize = 8;
/// Queries per rep.
pub const QUERIES: usize = 14_000;
/// Closed-loop clients, and the admission limit (`FleetConfig`'s
/// default).
pub const CLIENTS: usize = 16;
/// Queries of the set-up warm-up pass.
const WARMUP_QUERIES: usize = 3_000;

pub struct FleetClosed {
    jobs: Vec<JobProfile>,
    gen_s: f64,
}

/// What one drive of the fleet yields beyond its report.
pub struct Drive {
    pub report: FleetReport,
    pub stats: RunStats,
    pub peak_tracked: usize,
}

/// `FleetRun::start → run_until(∞) → into_report` over `jobs`, each call
/// under its own span.
pub fn drive(jobs: &[JobProfile], clients: usize, traced: bool) -> Result<Drive, String> {
    let start = span("gda.fleet.start");
    let engine = FleetEngine::new(
        NetSim::new(paper_testbed_n(VmType::t2_medium(), N_DCS), LinkModelParams::frozen(), 11),
        wrap::scheduler(Box::new(Tetrium::new()), traced),
        wrap::source(Box::new(wanify::StaticIndependent::new()), traced),
        FleetConfig { max_concurrent: clients, regauge_every_s: 300.0, ..FleetConfig::default() },
    );
    let mut run =
        FleetRun::start(engine, jobs.to_vec(), &Arrivals::Closed { clients, think_s: 0.0 })
            .map_err(|e| format!("fleet start: {e}"))?;
    drop(start);
    {
        let _s = span("gda.fleet.drive");
        run.run_until(f64::INFINITY).map_err(|e| format!("fleet drive: {e}"))?;
    }
    let stats = run.sim().last_run_stats();
    let peak_tracked = run.peak_tracked();
    let _s = span("gda.fleet.report");
    Ok(Drive { report: run.into_report(), stats, peak_tracked })
}

/// Digest of a plain fleet report.
pub fn digest(report: &FleetReport) -> u64 {
    let mut h = Fnv::new();
    digest_fleet(&mut h, report);
    h.finish()
}

impl Workload for FleetClosed {
    const NAME: &'static str = "fleet-closed";

    fn prepare(seed: u64, shrink: usize) -> Self {
        let queries = (QUERIES / shrink).max(CLIENTS);
        let (jobs, gen_s) =
            timed(|| mixed_trace(&TraceConfig::new(N_DCS, queries, seed).scaled(0.5)));
        let warm = &jobs[..WARMUP_QUERIES.min(jobs.len())];
        drive(warm, CLIENTS, false).expect("warm-up pass runs");
        Self { jobs, gen_s }
    }

    fn setup_layers(&self) -> Layers {
        Layers::from([
            ("workloads.gen_calls", self.jobs.len() as f64),
            ("workloads.gen_busy_s", self.gen_s),
        ])
    }

    fn rep(&self, traced: bool) -> Result<Rep, String> {
        let (d, wall_s) = timed(|| drive(&self.jobs, CLIENTS, traced));
        let d = d?;
        let r = &d.report;
        let issued = self.jobs.len();
        if r.completed() != issued || r.outcomes.len() != issued {
            return Err(format!("completed {} of {issued} issued queries", r.completed()));
        }
        let failed = r.failed_jobs();
        let makespan = r.makespan();
        Ok(Rep {
            wall_s,
            ops: issued as u64,
            good: (issued - failed) as u64,
            aborted: failed as u64,
            digest: digest(r),
            sim_jobs_per_sim_s: r.throughput_jobs_per_s(),
            sim_latency_p50_s: makespan.p50,
            sim_latency_p99_s: makespan.p99,
            latency_samples: issued as u64,
            sim_cost_usd_per_job: r.total_cost_usd() / issued as f64,
            layers: Layers::from([
                ("gda.fleet.gauges", r.gauges as f64),
                ("gda.fleet.peak_tracked", d.peak_tracked as f64),
                ("netsim.engine.solves", d.stats.solves as f64),
                ("netsim.engine.epochs", d.stats.epochs as f64),
            ]),
        })
    }

    fn probes(&self, _untraced_wall_s: f64) -> Layers {
        let churn = probes::engine_churn(N_DCS, CLIENTS, 40);
        let mut out = probes::fairness_solves();
        out.extend([
            ("netsim.engine.probe8x16.submit_busy_s", churn.submit_busy_s),
            ("netsim.engine.probe8x16.advance_busy_s", churn.advance_busy_s),
            ("netsim.engine.probe8x16.solves", churn.solves as f64),
            ("netsim.engine.probe8x16.us_per_solve", churn.us_per_solve()),
        ]);
        out
    }
}
