//! Knee table: closed-loop fleet throughput against the tenant count.
//!
//! Past about twenty closed-loop tenants on the 8-DC paper testbed the
//! link model's over-budget goodput loss feeds on itself: jobs stay in
//! flight longer, so more of them overlap, so every host sits further
//! over its connection budget. This driver measures where that knee
//! sits. Every point serves one `mixed_trace(..).scaled(0.5)` through a
//! [`wanify_gda::FleetEngine`] (Tetrium, a `StaticIndependent` belief
//! regauged every 300 s, frozen dynamics) with `clients` closed-loop
//! tenants and as many admission slots, once per seeded ordering of the
//! trace, and reports the spread the orderings give.
//!
//! A point is **bistable** when its orderings fall into two clusters.
//! Sort the orderings' throughputs ascending and split them at the
//! largest ratio between neighbours: the point is bistable when that
//! ratio is at least [`BISTABLE_GAP`] and exceeds the max/min ratio
//! inside each of the two clusters. A single-regime point spreads a few
//! percent and has no such gap.
//!
//! Simulated values only, bit-identical across runs and thread counts.

use crate::common::{fleet_engine, Effort};
use crate::table::Table;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use wanify::StaticIndependent;
use wanify_gda::Arrivals;
use wanify_netsim::{paper_testbed_n, LinkModelParams, NetSim, VmType};
use wanify_workloads::{mixed_trace, TraceConfig};

/// Closed-loop tenant counts, one table row each.
pub const CLIENTS: [usize; 10] = [4, 8, 12, 16, 20, 24, 32, 48, 60, 120];

/// Seeded orderings of the trace per point.
pub const ORDERINGS: usize = 5;

/// The smallest neighbour ratio that splits a point into two clusters.
pub const BISTABLE_GAP: f64 = 1.25;

/// One ordering's run at one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Run {
    /// Completed jobs per simulated second.
    pub jobs_per_s: f64,
    /// Median makespan (admission to completion), simulated seconds.
    pub p50_s: f64,
}

/// One tenant count, every ordering.
#[derive(Debug, Clone)]
pub struct KneePoint {
    /// Closed-loop tenants (and admission slots).
    pub clients: usize,
    /// One run per ordering, in ordering order.
    pub runs: Vec<Run>,
}

/// `(median, min, max)` of `values`; the median of an even count is the
/// mean of the middle two.
fn spread(values: impl Iterator<Item = f64>) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    let median = if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 };
    (median, v[0], v[v.len() - 1])
}

impl KneePoint {
    /// `(median, min, max)` jobs per simulated second over the orderings.
    pub fn jobs_per_s(&self) -> (f64, f64, f64) {
        spread(self.runs.iter().map(|r| r.jobs_per_s))
    }

    /// `(median, min, max)` p50 makespan over the orderings, seconds.
    pub fn p50_s(&self) -> (f64, f64, f64) {
        spread(self.runs.iter().map(|r| r.p50_s))
    }

    /// Whether the orderings' throughputs split into two clusters (module
    /// docs).
    pub fn bistable(&self) -> bool {
        let mut v: Vec<f64> = self.runs.iter().map(|r| r.jobs_per_s).collect();
        v.sort_by(f64::total_cmp);
        let Some(cut) =
            (1..v.len()).max_by(|&a, &b| (v[a] / v[a - 1]).total_cmp(&(v[b] / v[b - 1])))
        else {
            return false;
        };
        let gap = v[cut] / v[cut - 1];
        let (low, high) = v.split_at(cut);
        let within = |c: &[f64]| c[c.len() - 1] / c[0];
        gap >= BISTABLE_GAP && gap > within(low) && gap > within(high)
    }
}

/// Outcome of [`run`].
#[derive(Debug, Clone)]
pub struct KneeResult {
    /// One point per tenant count, ascending.
    pub points: Vec<KneePoint>,
    /// Queries in the trace.
    pub jobs: usize,
    /// Data centers in the testbed.
    pub n_dcs: usize,
}

impl KneeResult {
    /// Renders the sweep as an aligned text table.
    pub fn render(&self) -> String {
        let cells = self.points.iter().map(|p| {
            let (jobs, jobs_min, jobs_max) = p.jobs_per_s();
            let (p50, p50_min, p50_max) = p.p50_s();
            vec![
                format!("{}", p.clients),
                format!("{jobs:.4}"),
                format!("{jobs_min:.4}"),
                format!("{jobs_max:.4}"),
                format!("{p50:.0}"),
                format!("{p50_min:.0}"),
                format!("{p50_max:.0}"),
                if p.bistable() { "yes" } else { "no" }.to_string(),
            ]
        });
        Table::text(
            &format!(
                "Closed-loop knee: {} mixed queries on {} DCs, {ORDERINGS} orderings per point, \
                 Tetrium, static-independent belief, frozen dynamics\n",
                self.jobs, self.n_dcs
            ),
            &["clients", "jobs/s", "min", "max", "p50 mkspan", "min", "max", "bistable"],
            cells.collect(),
        )
        .expect("eight cells per row")
        .note(format!(
            "bistable: the sorted throughputs split at their largest neighbour ratio, \
             which is >= {BISTABLE_GAP}x and wider than either cluster"
        ))
        .render()
    }
}

/// Runs the sweep: every tenant count of [`CLIENTS`], every ordering.
///
/// `Full` effort serves 3 000 queries per run on the 8-DC paper testbed;
/// `Quick` serves 30 on its own 4-DC testbed, which keeps the table a
/// tenth of a second long while every point still runs.
pub fn run(effort: Effort, seed: u64) -> KneeResult {
    let (n_dcs, jobs) = match effort {
        Effort::Quick => (4, 30),
        Effort::Full => (8, 3000),
    };
    let trace = mixed_trace(&TraceConfig::new(n_dcs, jobs, seed ^ 0x4EE).scaled(0.5));
    let orderings: Vec<_> = (0..ORDERINGS as u64)
        .map(|k| {
            let mut order = trace.clone();
            order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0DE5 ^ k));
            order
        })
        .collect();
    let topo = paper_testbed_n(VmType::t2_medium(), n_dcs);
    let points = CLIENTS
        .iter()
        .map(|&clients| {
            let runs = orderings
                .iter()
                .map(|order| {
                    let sim = NetSim::new(topo.clone(), LinkModelParams::frozen(), seed);
                    let report =
                        fleet_engine(sim, Box::new(StaticIndependent::new()), clients, 300.0)
                            .run(order, &Arrivals::Closed { clients, think_s: 0.0 })
                            .expect("the trace matches its topology");
                    Run { jobs_per_s: report.throughput_jobs_per_s(), p50_s: report.makespan().p50 }
                })
                .collect();
            KneePoint { clients, runs }
        })
        .collect();
    KneeResult { points, jobs, n_dcs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(jobs_per_s: &[f64]) -> KneePoint {
        let runs = jobs_per_s.iter().map(|&jobs_per_s| Run { jobs_per_s, p50_s: 1.0 }).collect();
        KneePoint { clients: 60, runs }
    }

    #[test]
    fn two_separated_clusters_are_bistable_and_one_spread_is_not() {
        assert!(point(&[0.040, 0.073, 0.041, 0.072, 0.074]).bistable());
        assert!(!point(&[0.60, 0.61, 0.59, 0.62, 0.60]).bistable());
        // A gap no wider than a cluster's own spread splits nothing.
        assert!(!point(&[1.0, 1.3, 1.7, 2.2, 2.9]).bistable());
        assert!(!point(&[0.5]).bistable());
        assert_eq!(point(&[3.0, 1.0, 2.0, 5.0]).jobs_per_s(), (2.5, 1.0, 5.0));
    }

    #[test]
    fn every_point_serves_the_whole_trace_at_every_ordering() {
        let result = run(Effort::Quick, 9);
        let clients: Vec<usize> = result.points.iter().map(|p| p.clients).collect();
        assert_eq!(clients, CLIENTS);
        for p in &result.points {
            assert_eq!(p.runs.len(), ORDERINGS);
            assert!(p.runs.iter().all(|r| r.jobs_per_s > 0.0 && r.p50_s > 0.0), "{p:?}");
        }
        assert!(result.render().contains("bistable"));
    }
}
