//! Sharded-fleet scenario: shard-count sweep under one identical trace.
//!
//! The fleet experiment showed belief provenance matters under
//! contention; this driver asks the scale-out question the ROADMAP's
//! "sharded multi-sim fleets" item poses: serve the *same* region-tagged
//! mixed trace with 1, 2, 4 and 8 shards — tenants partitioned across
//! shard-local engines, coupled by a continental backbone — and measure
//! what sharding costs in simulated terms (the coarse backbone
//! reservation vs one engine's exact global fairness). A single-engine
//! [`FleetEngine`] arm anchors the comparison. What sharding buys —
//! wall-clock speedup from smaller per-shard event loops running in
//! parallel on rayon — is `bench sharded`'s half: the same [`Sweep`] with
//! a timer and the identity gate around each arm, published in
//! `BENCH_sharded.json`'s `wall` section.
//!
//! Simulated results are bit-identical across repeated runs and thread
//! counts, and they are all this module prints.

use crate::common::{fleet_engine, Effort};
use crate::table::Table;
use wanify::StaticIndependent;
use wanify_gda::{
    Arrivals, FleetEngine, FleetReport, JobProfile, RoundRobinShards, ShardedFleetEngine,
    ShardedFleetReport,
};
use wanify_netsim::{paper_testbed_n, Backbone, LinkModelParams, NetSim, Topology, VmType};
use wanify_workloads::{regional_mixed_trace, TraceConfig};

/// The shard study's fixed half: one testbed, one backbone, one
/// region-tagged trace with every query admitted at once (maximal
/// contention), served by engines seeded `sim_seed`. `repro sharded` and
/// `bench sharded` are this sweep at two `(sim_seed, trace_seed)` pairs.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The testbed.
    pub topo: Topology,
    /// Shard counts to sweep.
    pub shard_counts: &'static [usize],
    /// The trace every arm serves.
    pub trace: Vec<JobProfile>,
    backbone: Backbone,
    sim_seed: u64,
}

impl Sweep {
    /// `Quick` effort: 16 queries on 4 DCs, 1/2/4 shards; `Full`: 60 on
    /// the 8-DC paper testbed, 1/2/4/8.
    pub fn new(effort: Effort, sim_seed: u64, trace_seed: u64) -> Self {
        let (n, jobs, shard_counts): (usize, usize, &[usize]) = match effort {
            Effort::Quick => (4, 16, &[1, 2, 4]),
            Effort::Full => (8, 60, &[1, 2, 4, 8]),
        };
        let topo = paper_testbed_n(VmType::t2_medium(), n);
        let backbone = Backbone::continental(&topo, 4000.0, 30.0);
        let config = TraceConfig::new(n, jobs, trace_seed).scaled(0.5);
        let trace = regional_mixed_trace(&config, backbone.groups());
        Self { topo, shard_counts, trace, backbone, sim_seed }
    }

    fn engine(&self) -> FleetEngine {
        let sim = NetSim::new(self.topo.clone(), LinkModelParams::frozen(), self.sim_seed);
        fleet_engine(sim, Box::new(StaticIndependent::new()), self.trace.len(), 300.0)
    }

    fn arrivals(&self) -> Arrivals {
        Arrivals::Closed { clients: self.trace.len(), think_s: 0.0 }
    }

    /// The single-engine [`FleetEngine`] arm that anchors the comparison.
    pub fn single(&self) -> FleetReport {
        self.engine().run(&self.trace, &self.arrivals()).expect("trace matches its topology")
    }

    /// The `shards`-shard arm, coupled by the continental backbone.
    ///
    /// Round-robin placement: the continental backbone only has 2-3
    /// region groups, so region-group placement would leave every shard
    /// beyond the group count empty and the high-shard arms would
    /// silently re-measure the low ones. Round-robin keeps all N shards
    /// populated at every sweep point.
    pub fn arm(&self, shards: usize) -> ShardedFleetReport {
        ShardedFleetEngine::new(
            (0..shards).map(|_| self.engine()).collect(),
            Box::new(RoundRobinShards::new()),
            Some(self.backbone.clone()),
        )
        .run(&self.trace, &self.arrivals())
        .expect("sharded trace matches its topology")
    }
}

/// One arm of the shard sweep.
#[derive(Debug, Clone)]
pub struct ShardedRow {
    /// Number of shards (0 = the single-engine `FleetEngine` baseline).
    pub shards: usize,
    /// The merged fleet report: throughput, makespan order statistics.
    pub fleet: FleetReport,
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
    /// Renders the sweep as an aligned text table (simulated values only;
    /// `BENCH_sharded.json`'s `wall` section publishes the wall-clock).
    pub fn render(&self) -> String {
        let cells = self.rows.iter().map(|r| {
            vec![
                if r.shards == 0 { "single".into() } else { format!("{}", r.shards) },
                format!("{:.4}", r.fleet.throughput_jobs_per_s()),
                format!("{:.0}", r.fleet.makespan().p50),
                format!("{:.0}", r.fleet.makespan().p95),
                format!("{}", r.backbone_syncs),
            ]
        });
        Table::text(
            &format!(
                "Sharded fleet scale-out: {} region-tagged queries on {} DCs, \
                 round-robin shards, continental backbone\n",
                self.jobs, self.n_dcs
            ),
            &["shards", "jobs/s", "p50 mkspan", "p95", "syncs"],
            cells.collect(),
        )
        .expect("five cells per row")
        .render()
    }
}

/// Runs the shard sweep: a single-engine baseline, then 1/2/4(/8) shards
/// over the identical trace.
pub fn run(effort: Effort, seed: u64) -> ShardedResult {
    let sweep = Sweep::new(effort, seed, seed ^ 0x5AD);
    let mut rows = vec![ShardedRow { shards: 0, fleet: sweep.single(), backbone_syncs: 0 }];
    for &shards in sweep.shard_counts {
        let ShardedFleetReport { fleet, backbone_syncs, .. } = sweep.arm(shards);
        rows.push(ShardedRow { shards, fleet, backbone_syncs });
    }
    ShardedResult { rows, jobs: sweep.trace.len(), n_dcs: sweep.topo.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_serves_every_arm() {
        let result = run(Effort::Quick, 9);
        assert_eq!(result.rows.len(), 4, "baseline + three shard counts");
        for row in &result.rows {
            assert!(
                row.fleet.throughput_jobs_per_s() > 0.0,
                "{} shards served nothing",
                row.shards
            );
            assert!(row.fleet.makespan().p95 >= row.fleet.makespan().p50);
        }
        assert!(result.render().contains("syncs"));
    }

    #[test]
    fn simulated_results_are_reproducible() {
        let a = run(Effort::Quick, 4);
        let b = run(Effort::Quick, 4);
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.shards, y.shards);
            let (x_fleet, y_fleet) = (&x.fleet, &y.fleet);
            assert_eq!(
                x_fleet.throughput_jobs_per_s().to_bits(),
                y_fleet.throughput_jobs_per_s().to_bits()
            );
            assert_eq!(x_fleet.makespan().p50.to_bits(), y_fleet.makespan().p50.to_bits());
            assert_eq!(x.backbone_syncs, y.backbone_syncs);
        }
    }
}
