//! Sharded-fleet scenario: shard-count sweep under one identical trace.
//!
//! The fleet experiment showed belief provenance matters under
//! contention; this driver asks the scale-out question the ROADMAP's
//! "sharded multi-sim fleets" item poses: serve the *same* region-tagged
//! mixed trace with 1, 2, 4 and 8 shards — tenants partitioned across
//! shard-local engines, coupled by a continental backbone — and measure
//! what sharding buys (wall-clock speedup from smaller per-shard event
//! loops running in parallel on rayon) and what it costs (the coarse
//! backbone reservation vs one engine's exact global fairness). A
//! single-engine [`FleetEngine`] arm anchors the comparison.
//!
//! Simulated results are bit-identical across repeated runs and thread
//! counts; only the wall-clock column is machine-dependent.

use crate::common::{render_table, Effort};
use std::time::Instant;
use wanify_gda::{
    Arrivals, FleetConfig, FleetEngine, JobProfile, RoundRobinShards, ShardedFleetEngine, Tetrium,
};
use wanify_netsim::{paper_testbed_n, Backbone, LinkModelParams, NetSim, VmType};
use wanify_workloads::{regional_mixed_trace, TraceConfig};

/// One arm of the shard sweep.
#[derive(Debug, Clone)]
pub struct ShardedRow {
    /// Number of shards (0 = the single-engine `FleetEngine` baseline).
    pub shards: usize,
    /// Wall-clock seconds for the arm.
    pub wall_s: f64,
    /// Wall-clock speedup vs the single-engine baseline.
    pub speedup: f64,
    /// Completed queries per simulated second.
    pub throughput_jobs_per_s: f64,
    /// Median admission-to-completion makespan, seconds.
    pub p50_makespan_s: f64,
    /// 95th-percentile makespan, seconds.
    pub p95_makespan_s: f64,
    /// Backbone epoch exchanges performed.
    pub backbone_syncs: u64,
}

/// Outcome of [`run`].
#[derive(Debug, Clone)]
pub struct ShardedResult {
    /// Baseline + one row per shard count.
    pub rows: Vec<ShardedRow>,
    /// Queries in the trace.
    pub jobs: usize,
    /// Data centers in the testbed.
    pub n_dcs: usize,
}

impl ShardedResult {
    /// The row for `shards` shards (0 = single-engine baseline).
    pub fn row(&self, shards: usize) -> Option<&ShardedRow> {
        self.rows.iter().find(|r| r.shards == shards)
    }

    /// Renders the sweep as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Sharded fleet scale-out: {} region-tagged queries on {} DCs, \
             round-robin shards, continental backbone\n\n",
            self.jobs, self.n_dcs
        );
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    if r.shards == 0 { "single".into() } else { format!("{}", r.shards) },
                    format!("{:.4}", r.throughput_jobs_per_s),
                    format!("{:.0}", r.p50_makespan_s),
                    format!("{:.0}", r.p95_makespan_s),
                    format!("{}", r.backbone_syncs),
                ]
            })
            .collect();
        out.push_str(&render_table(&["shards", "jobs/s", "p50 mkspan", "p95", "syncs"], &rows));
        out
    }
}

fn shard_engine(n: usize, seed: u64, max_concurrent: usize) -> FleetEngine {
    FleetEngine::new(
        NetSim::new(paper_testbed_n(VmType::t2_medium(), n), LinkModelParams::frozen(), seed),
        Box::new(Tetrium::new()),
        Box::new(wanify::StaticIndependent::new()),
        FleetConfig {
            max_concurrent,
            regauge_every_s: 300.0,
            conns: None,
            faults: None,
            ..FleetConfig::default()
        },
    )
}

fn sharded_arm(
    trace: &[JobProfile],
    n: usize,
    shards: usize,
    seed: u64,
    max_concurrent: usize,
) -> (f64, wanify_gda::ShardedFleetReport) {
    let topo = paper_testbed_n(VmType::t2_medium(), n);
    let backbone = Backbone::continental(&topo, 4000.0, 30.0);
    // Round-robin placement: the continental backbone only has 2-3
    // region groups, so region-group placement would leave every shard
    // beyond the group count empty and the high-shard arms would
    // silently re-measure the low ones. Round-robin keeps all N shards
    // populated at every sweep point.
    let engine = ShardedFleetEngine::new(
        (0..shards).map(|_| shard_engine(n, seed, max_concurrent)).collect(),
        Box::new(RoundRobinShards::new()),
        Some(backbone),
    );
    let arrivals = Arrivals::Closed { clients: max_concurrent, think_s: 0.0 };
    let start = Instant::now();
    let report = engine.run(trace, &arrivals).expect("sharded trace matches its topology");
    (start.elapsed().as_secs_f64(), report)
}

/// Runs the shard sweep: a single-engine baseline, then 1/2/4/8 shards
/// over the identical trace.
///
/// `Quick` effort serves 16 queries on 4 DCs (shard counts 1/2/4);
/// `Full` serves 60 on the 8-DC paper testbed (1/2/4/8).
pub fn run(effort: Effort, seed: u64) -> ShardedResult {
    let (n, jobs, shard_counts): (usize, usize, &[usize]) = match effort {
        Effort::Quick => (4, 16, &[1, 2, 4]),
        Effort::Full => (8, 60, &[1, 2, 4, 8]),
    };
    let topo = paper_testbed_n(VmType::t2_medium(), n);
    let backbone = Backbone::continental(&topo, 4000.0, 30.0);
    let trace = regional_mixed_trace(
        &TraceConfig::new(n, jobs, seed ^ 0x5AD).scaled(0.5),
        backbone.groups(),
    );
    let max_concurrent = jobs; // everything admitted: maximal contention

    // Single-engine baseline.
    let start = Instant::now();
    let single = shard_engine(n, seed, max_concurrent)
        .run(&trace, &Arrivals::Closed { clients: max_concurrent, think_s: 0.0 })
        .expect("trace matches its topology");
    let single_wall = start.elapsed().as_secs_f64();
    let mut rows = vec![ShardedRow {
        shards: 0,
        wall_s: single_wall,
        speedup: 1.0,
        throughput_jobs_per_s: single.throughput_jobs_per_s(),
        p50_makespan_s: single.makespan().p50,
        p95_makespan_s: single.makespan().p95,
        backbone_syncs: 0,
    }];

    for &shards in shard_counts {
        let (wall, report) = sharded_arm(&trace, n, shards, seed, max_concurrent);
        rows.push(ShardedRow {
            shards,
            wall_s: wall,
            speedup: single_wall / wall.max(1e-9),
            throughput_jobs_per_s: report.fleet.throughput_jobs_per_s(),
            p50_makespan_s: report.fleet.makespan().p50,
            p95_makespan_s: report.fleet.makespan().p95,
            backbone_syncs: report.backbone_syncs,
        });
    }
    ShardedResult { rows, jobs, n_dcs: n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_serves_every_arm() {
        let result = run(Effort::Quick, 9);
        assert_eq!(result.rows.len(), 4, "baseline + three shard counts");
        for row in &result.rows {
            assert!(row.throughput_jobs_per_s > 0.0, "{} shards served nothing", row.shards);
            assert!(row.p95_makespan_s >= row.p50_makespan_s);
        }
        assert!(result.render().contains("syncs"));
    }

    #[test]
    fn simulated_results_are_reproducible() {
        let a = run(Effort::Quick, 4);
        let b = run(Effort::Quick, 4);
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.shards, y.shards);
            assert_eq!(x.throughput_jobs_per_s.to_bits(), y.throughput_jobs_per_s.to_bits());
            assert_eq!(x.p50_makespan_s.to_bits(), y.p50_makespan_s.to_bits());
            assert_eq!(x.backbone_syncs, y.backbone_syncs);
        }
    }
}
