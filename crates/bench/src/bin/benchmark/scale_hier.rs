//! `scale-hier`: the `bench_scale` FULL configuration — a 64-DC tiled
//! WAN, 8 shards, a two-tier backbone hierarchy, a lazily streamed
//! Poisson trace and sketched accounting — the only workload where
//! `gda.sharded`, `netsim.backbone`, `gda.sketch` and streaming ingestion
//! run. Timed inside a 1-thread rayon pool: on a shared 2-core box the
//! 2-thread wall spreads by a quarter while the 1-thread wall repeats
//! within 2 %, so parallel efficiency is the per-layer
//! `gda.sharded.par_speedup` instead.

use crate::probes;
use crate::trace::span;
use crate::workload::{digest_fleet, pool, timed, Fnv, Layers, Rep, Workload};
use crate::wrap::{self, TracedArrivals, TracedPolicy};
use wanify_gda::{
    poisson_times_iter, FleetConfig, FleetEngine, JobProfile, RoundRobinShards, ShardPolicy,
    ShardedFleetEngine, ShardedFleetReport, Tetrium,
};
use wanify_netsim::{paper_testbed_tiled, BackboneHierarchy, LinkModelParams, NetSim, VmType};
use wanify_workloads::{trace_iter, TraceConfig};

const N_DCS: usize = 64;
const SHARDS: usize = 8;
/// Queries per rep.
pub const QUERIES: usize = 1_000;
/// Queries of the set-up warm-up pass.
const WARMUP_QUERIES: usize = 60;
/// Fleet-wide Poisson arrival rate, jobs per simulated second.
const RATE_PER_S: f64 = 0.5;
/// Seed of the tenant trace. `--seed` drives the Poisson arrival times
/// only: the mix puts exactly half the jobs in the four fast TPC-DS
/// classes (makespans under 20 s, the rest over 40 s), so the median
/// makespan sits in the gap between them and a resampled mix flips it
/// between the two sides (17.7–23.5 s over ten seeds). With the tenants
/// fixed and the arrivals seeded it stays within 19.6–21.7 s.
const TENANT_SEED: u64 = 42;
/// Outcomes the driver retains; the rest fold into the sketches.
const RETAIN_OUTCOMES: usize = 256;
/// Regional trunks exchange every 30 simulated seconds, continental
/// trunks every 90.
const TIER1_SYNC_S: f64 = 30.0;
const TIER2_SYNC_S: f64 = 90.0;

pub struct ScaleHier {
    seed: u64,
    queries: usize,
}

fn shard_engine(traced: bool) -> FleetEngine {
    FleetEngine::new(
        NetSim::new(paper_testbed_tiled(VmType::t2_medium(), N_DCS), LinkModelParams::frozen(), 11),
        wrap::scheduler(Box::new(Tetrium::new()), traced),
        wrap::source(Box::new(wanify::StaticIndependent::new()), traced),
        FleetConfig { max_concurrent: 8, regauge_every_s: 3600.0, ..FleetConfig::default() },
    )
}

/// One streamed hierarchical run of `queries` jobs on the calling
/// thread's rayon pool.
fn run(seed: u64, queries: usize, traced: bool) -> Result<ShardedFleetReport, String> {
    let topo = paper_testbed_tiled(VmType::t2_medium(), N_DCS);
    let hierarchy =
        BackboneHierarchy::regional_continental(&topo, 4000.0, 8000.0, TIER1_SYNC_S, TIER2_SYNC_S);
    let times = poisson_times_iter(RATE_PER_S, seed).expect("positive rate");
    let jobs = trace_iter(&TraceConfig::new(N_DCS, queries, TENANT_SEED).scaled(0.25));
    let arrivals = times.zip(jobs);
    let stream: Box<dyn Iterator<Item = (f64, JobProfile)> + Send> =
        if traced { Box::new(TracedArrivals(arrivals)) } else { Box::new(arrivals) };
    let policy: Box<dyn ShardPolicy> = if traced {
        Box::new(TracedPolicy(Box::new(RoundRobinShards::new())))
    } else {
        Box::new(RoundRobinShards::new())
    };
    let engine =
        ShardedFleetEngine::new((0..SHARDS).map(|_| shard_engine(traced)).collect(), policy, None)
            .with_hierarchy(hierarchy);
    let _s = span("gda.sharded.run");
    engine.run_stream(queries, stream, RETAIN_OUTCOMES).map_err(|e| format!("sharded run: {e}"))
}

/// Sync windows behind `syncs` tier exchanges: every window exchanges
/// tier 1 and every third one also tier 2.
fn windows_of(syncs: u64) -> u64 {
    let ratio = (TIER2_SYNC_S / TIER1_SYNC_S) as u64;
    (0..=syncs).find(|w| w + w.div_ceil(ratio) == syncs).unwrap_or(0)
}

impl Workload for ScaleHier {
    const NAME: &'static str = "scale-hier";

    fn prepare(seed: u64, shrink: usize) -> Self {
        pool(1).install(|| run(seed, WARMUP_QUERIES, false)).expect("warm-up pass runs");
        Self { seed, queries: (QUERIES / shrink).max(WARMUP_QUERIES) }
    }

    fn setup_layers(&self) -> Layers {
        Layers::new() // the trace is streamed inside the rep, not materialized here
    }

    fn rep(&self, traced: bool) -> Result<Rep, String> {
        let (report, wall_s) = timed(|| pool(1).install(|| run(self.seed, self.queries, traced)));
        let report = report?;
        let fleet = &report.fleet;
        if fleet.completed() != self.queries {
            return Err(format!(
                "completed {} of {} issued queries",
                fleet.completed(),
                self.queries
            ));
        }
        let mut h = Fnv::new();
        digest_fleet(&mut h, fleet);
        h.u64(report.backbone_syncs);
        h.u64(report.peak_tracked as u64);
        let makespan = fleet.makespan();
        Ok(Rep {
            wall_s,
            ops: self.queries as u64,
            good: (self.queries - fleet.failed_jobs()) as u64,
            aborted: fleet.failed_jobs() as u64,
            digest: h.finish(),
            sim_jobs_per_sim_s: fleet.throughput_jobs_per_s(),
            sim_latency_p50_s: makespan.p50,
            sim_latency_p99_s: makespan.p99,
            latency_samples: self.queries as u64,
            sim_cost_usd_per_job: fleet.total_cost_usd() / self.queries as f64,
            layers: Layers::from([
                ("netsim.backbone.syncs", report.backbone_syncs as f64),
                ("gda.sharded.windows", windows_of(report.backbone_syncs) as f64),
                ("gda.fleet.gauges", fleet.gauges as f64),
                ("gda.fleet.peak_tracked", report.peak_tracked as f64),
            ]),
        })
    }

    fn probes(&self, untraced_wall_s: f64) -> Layers {
        let churn = probes::engine_churn(N_DCS, SHARDS, 300);
        // One extra pass on two threads, against the 1-thread reps.
        let (two, two_s) = timed(|| pool(2).install(|| run(self.seed, self.queries, false)));
        let outcomes = two.expect("the reps already ran this").fleet.outcomes;
        Layers::from([
            ("netsim.engine.probe64x8.submit_busy_s", churn.submit_busy_s),
            ("netsim.engine.probe64x8.advance_busy_s", churn.advance_busy_s),
            ("netsim.engine.probe64x8.solves", churn.solves as f64),
            ("netsim.engine.probe64x8.us_per_solve", churn.us_per_solve()),
            ("netsim.backbone.allocate_us", probes::backbone_allocate_us(N_DCS, SHARDS)),
            ("gda.sketch.absorb_ns", probes::sketch_absorb_ns(&outcomes)),
            ("gda.sharded.par_speedup", untraced_wall_s / two_s),
        ])
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn windows_invert_the_tier_exchange_count() {
        // 7 windows: 7 tier-1 exchanges + tier 2 at windows 0, 3, 6.
        assert_eq!(super::windows_of(10), 7);
        assert_eq!(super::windows_of(2), 1);
        assert_eq!(super::windows_of(0), 0);
    }
}
