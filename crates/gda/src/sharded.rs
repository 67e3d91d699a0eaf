//! Sharded multi-sim fleet: tenants partitioned across shard-local
//! engines, coupled by a cross-shard backbone, run on rayon.
//!
//! [`FleetEngine`] serializes every tenant through one
//! [`NetEngine`](wanify_netsim::NetEngine): fleet scale is capped by
//! a single event loop on a single core, and every fairness solve sees
//! *all* tenants' flows at once. [`ShardedFleetEngine`] breaks that wall
//! with the decomposition distributed node runtimes use:
//!
//! * a pluggable [`ShardPolicy`] assigns each tenant to one of N
//!   **shards** ([`RoundRobinShards`] balances them by trace index);
//! * every shard is a full [`FleetEngine`] (own simulator, scheduler,
//!   belief cache) driven as a resumable [`FleetRun`], so per-shard
//!   event loops and fairness solves only carry that shard's tenants.
//!   A shard owns its simulator, not its solver scratch: each solve
//!   borrows the scratch of the thread it runs on, so N shards hold one
//!   set of solver buffers per thread, not N;
//! * shards are coupled through one tier list, a [`BackboneHierarchy`]
//!   (a flat [`Backbone`] is its single tier): at every sync point the
//!   driver refreshes each tier whose cadence is due — collects
//!   per-shard cross-group demand, divides each trunk by max-min
//!   fairness — and applies every tier's held grant to each shard as
//!   per-pair caps, composed by minimum; between sync points the shards
//!   simulate **independently**, each event-coalescing as usual;
//! * there is **one window loop with two front doors**:
//!   [`ShardedFleetEngine::run`] partitions a materialized trace up front
//!   and lets each shard own its slice,
//!   [`ShardedFleetEngine::run_stream`] pushes a lazily pulled stream's
//!   arrivals to their shards window by window; behind both, the same
//!   loop exchanges the tiers, steps every shard to the window's edge on
//!   rayon, and drains the window's completions — in `(completed_s,
//!   shard)` order — into **one report**, so each outcome is stored once.
//!
//! Determinism is the headline property: results are **bit-identical at
//! any `RAYON_NUM_THREADS`** (shards share no mutable state inside a
//! window, and the drain orders by completion time with shard index as
//! the tiebreak), and a 1-shard sharded fleet — where no cross-shard
//! exchange exists, so no sync deadlines are imposed — reproduces
//! [`FleetEngine::run`](crate::FleetEngine::run) bit for bit (pinned by
//! the `sharded_parity` proptest).

use crate::fleet::{
    self, Arrivals, FleetEngine, FleetReport, FleetRun, JobOutcome, StreamingTotals,
};
use crate::job::JobProfile;
use rayon::prelude::*;
use wanify::WanifyError;
use wanify_netsim::{Backbone, BackboneHierarchy, Grid, RunStats, Topology};

/// A tier's grant held between refreshes: per-shard shares and the
/// demand snapshot they were computed against.
type TierGrant = (Vec<Grid<f64>>, Vec<Grid<f64>>);

/// Assigns every job of a trace to a shard.
///
/// `Send` so policies can be consulted from the sharded driver; the
/// driver reduces whatever the policy returns modulo the shard count.
pub trait ShardPolicy: Send {
    /// Policy name for reports.
    fn name(&self) -> &str;

    /// Shard for job `idx` of the trace (reduced modulo `n_shards` by the
    /// driver).
    fn shard_of(&self, idx: usize, job: &JobProfile, topo: &Topology, n_shards: usize) -> usize;
}

/// Shards tenants round-robin by trace index: balanced shard populations
/// regardless of workload mix, the default for wall-clock scale-out
/// sweeps.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinShards;

impl RoundRobinShards {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl ShardPolicy for RoundRobinShards {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn shard_of(&self, idx: usize, _job: &JobProfile, _topo: &Topology, n_shards: usize) -> usize {
        idx % n_shards
    }
}

/// Outcome of one sharded fleet run.
#[derive(Debug, Clone)]
pub struct ShardedFleetReport {
    /// The merged fleet-level report: all shards' outcomes ordered by
    /// completion time (shard index breaks ties), gauges summed, duration
    /// spanning first arrival to last completion across the whole fleet.
    pub fleet: FleetReport,
    /// Shard policy that partitioned the trace.
    pub policy: String,
    /// Backbone epoch exchanges performed (0 when uncoupled).
    pub backbone_syncs: u64,
    /// The shards' network engines' work over the whole run, summed over
    /// the shards: `stats.flows / stats.solves` is the mean size of a
    /// shard's solve.
    pub stats: RunStats,
    /// Peak per-job state the fleet held at once: the sum of every
    /// shard's [`FleetRun::peak_tracked`] plus the outcomes the driver
    /// retained — the memory proxy `bench scale` tracks. A materialized
    /// run holds the whole trace; a streamed one holds one window.
    pub peak_tracked: usize,
    /// Jobs each shard completed, in shard order. Per-job outcomes live
    /// once, in `fleet.outcomes`; their [`JobOutcome::job_idx`] is the
    /// trace index, which the shard policy maps back to the shard that
    /// served them.
    shard_completed: Vec<usize>,
}

impl ShardedFleetReport {
    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shard_completed.len()
    }

    /// Jobs served per shard, in shard order (every completion, not only
    /// the outcomes the driver retained).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shard_completed.clone()
    }
}

/// The sharded multi-tenant serving engine. See the module docs.
pub struct ShardedFleetEngine {
    shards: Vec<FleetEngine>,
    policy: Box<dyn ShardPolicy>,
    coupling: Option<BackboneHierarchy>,
}

impl std::fmt::Debug for ShardedFleetEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedFleetEngine")
            .field("shards", &self.shards.len())
            .field("policy", &self.policy.name())
            .field("tiers", &self.coupling.as_ref().map_or(0, |h| h.tiers().len()))
            .finish()
    }
}

impl ShardedFleetEngine {
    /// Builds a sharded fleet from per-shard engines, a placement policy
    /// and an optional backbone. Each engine must simulate the same
    /// topology (each shard sees the whole WAN; only its own tenants'
    /// flows run on it). With `backbone: None` — or a single shard, which
    /// owns every trunk outright — the shards run fully uncoupled and no
    /// sync deadlines are imposed. An empty `shards` is refused by
    /// [`ShardedFleetEngine::run`] and [`ShardedFleetEngine::run_stream`].
    pub fn new(
        shards: Vec<FleetEngine>,
        policy: Box<dyn ShardPolicy>,
        backbone: Option<Backbone>,
    ) -> Self {
        Self { shards, policy, coupling: backbone.map(BackboneHierarchy::from) }
    }

    /// Couples the shards through a multi-tier [`BackboneHierarchy`]
    /// instead of a flat backbone: the fine tier (e.g. regional trunks)
    /// exchanges every sync window, a coarser tier (e.g. continental
    /// trunks) only at its cadence, its last grant persisting in
    /// between. The tiers' caps compose cell-wise, so a flow crossing
    /// both a regional and a continental boundary is bounded by the
    /// tighter of its two grants. Replaces any flat backbone passed to
    /// [`ShardedFleetEngine::new`].
    #[must_use]
    pub fn with_hierarchy(mut self, hierarchy: BackboneHierarchy) -> Self {
        self.coupling = Some(hierarchy);
        self
    }

    /// Validates the shard list, shard topologies and the coupling's
    /// group maps, then hands the shard engines over to be started.
    fn take_shards(&mut self) -> Result<Vec<FleetEngine>, WanifyError> {
        let Some(first) = self.shards.first() else {
            return Err(WanifyError::InvalidConfig(
                "a sharded fleet needs at least one shard".into(),
            ));
        };
        let n_dcs = first.sim().topology().len();
        if let Some(h) = &self.coupling {
            let got = h.tiers()[0].0.groups().len();
            if got != n_dcs {
                return Err(WanifyError::DimensionMismatch { expected: n_dcs, got });
            }
        }
        for (s, shard) in self.shards.iter().enumerate() {
            if shard.sim().topology().len() != n_dcs {
                return Err(WanifyError::DimensionMismatch {
                    expected: n_dcs,
                    got: shard.sim().topology().len(),
                });
            }
            if shard.sim().topology() != self.shards[0].sim().topology() {
                return Err(WanifyError::InvalidConfig(format!(
                    "shard {s} simulates a different topology than shard 0; every shard \
                     must replicate the same WAN"
                )));
            }
        }
        Ok(std::mem::take(&mut self.shards))
    }

    /// Serves `jobs` across the shards and returns the merged report.
    ///
    /// The trace is partitioned by the shard policy (preserving trace
    /// order within each shard, and each job's trace index as its
    /// [`JobOutcome::job_idx`]), and the fleet-wide load is preserved at
    /// every shard count: an open-loop schedule is fixed **once** for the
    /// whole trace — a Poisson stream sampled exactly as
    /// [`FleetEngine::run`] samples it — and its arrival times travel
    /// with the jobs to their shards (thinning, so the aggregate arrival
    /// process never scales with the shard count), while a closed-loop
    /// client population is split across shards (remainder to the lowest
    /// indices, at least one client per shard). A 1-shard fleet therefore
    /// reproduces [`FleetEngine::run`] exactly. Each shard owns its slice
    /// of the trace; the shared window loop only steps and drains them.
    ///
    /// # Errors
    ///
    /// Returns [`WanifyError`] for an empty shard list, invalid arrivals,
    /// gauge/layout failures on any shard (lowest shard index wins when
    /// several fail in one window), a backbone whose group map does not
    /// cover the topology, or a shard that can no longer make progress.
    pub fn run(
        mut self,
        jobs: &[JobProfile],
        arrivals: &Arrivals,
    ) -> Result<ShardedFleetReport, WanifyError> {
        let engines = self.take_shards()?;
        let n_shards = engines.len();
        let times = arrivals.open_loop_times(jobs.len())?;

        let mut shard_jobs: Vec<Vec<(usize, JobProfile)>> = vec![Vec::new(); n_shards];
        let topo = engines[0].sim().topology();
        for (idx, job) in jobs.iter().enumerate() {
            let s = self.policy.shard_of(idx, job, topo, n_shards) % n_shards;
            shard_jobs[s].push((idx, job.clone()));
        }

        let mut runs: Vec<FleetRun> = Vec::with_capacity(n_shards);
        for (s, (engine, shard_jobs)) in engines.into_iter().zip(shard_jobs).enumerate() {
            let shard_arrivals = match arrivals {
                // Split the client population (remainder to the lowest
                // indices) so the fleet-wide concurrency level does not
                // scale with the shard count; every shard keeps at least
                // one client so a non-empty one can make progress.
                Arrivals::Closed { clients, think_s } => Arrivals::Closed {
                    clients: (clients / n_shards + usize::from(s < clients % n_shards)).max(1),
                    think_s: *think_s,
                },
                _ => Arrivals::Scheduled {
                    times: shard_jobs.iter().map(|(idx, _)| times[*idx]).collect(),
                },
            };
            runs.push(FleetRun::start_indexed(engine, shard_jobs, &shard_arrivals)?);
        }
        self.drive_windows(runs, usize::MAX, |_, _| Ok(false))
    }

    /// Serves `total_jobs` arrivals pulled lazily from `stream` —
    /// `(arrival_s, profile)` pairs in non-decreasing time order — with
    /// O(window) per-job state instead of O(trace): each sync window the
    /// driver pushes the arrivals due inside it to their shards (the
    /// policy sees the job's global index) before the shared window loop
    /// steps and drains them, retaining at most `retain_outcomes`
    /// individual outcomes. The same loop as [`ShardedFleetEngine::run`]
    /// behind a different front door: with the same jobs and arrival
    /// times the two produce the same report.
    ///
    /// # Errors
    ///
    /// Returns [`WanifyError`] exactly as [`ShardedFleetEngine::run`]
    /// does, plus [`WanifyError::InvalidConfig`] for invalid or
    /// decreasing streamed arrival times and a stream that runs dry
    /// before `total_jobs`.
    pub fn run_stream(
        mut self,
        total_jobs: usize,
        mut stream: Box<dyn Iterator<Item = (f64, JobProfile)> + Send>,
        retain_outcomes: usize,
    ) -> Result<ShardedFleetReport, WanifyError> {
        let engines = self.take_shards()?;
        let n_shards = engines.len();
        let topo = engines[0].sim().topology().clone();
        let runs: Vec<FleetRun> = engines.into_iter().map(FleetRun::start_serving).collect();

        let policy = &self.policy;
        let mut issued = 0usize;
        let mut last_s = 0.0f64;
        // The stream is pulled one arrival ahead of the window's edge.
        let mut ahead: Option<(f64, JobProfile)> = None;
        self.drive_windows(runs, retain_outcomes, |runs, window_end| {
            while issued < total_jobs {
                let (at_s, job) = match ahead.take() {
                    Some(pulled) => pulled,
                    None => fleet::next_arrival(&mut stream, last_s, issued, total_jobs)?,
                };
                last_s = at_s;
                if at_s > window_end {
                    ahead = Some((at_s, job));
                    break;
                }
                let s = policy.shard_of(issued, &job, &topo, n_shards) % n_shards;
                runs[s].push_job(issued, at_s, job);
                issued += 1;
            }
            Ok(issued < total_jobs)
        })
    }

    /// The one window loop behind both front doors. Each sync window:
    /// `feed` pushes whatever arrives inside it (and says whether more
    /// is to come), the tiers exchange, every unfinished shard advances
    /// to the window's edge on rayon, and the window's completions are
    /// drained in `(completed_s, shard)` order — deterministic at any
    /// thread count — into the fleet-wide totals and, up to
    /// `retain_outcomes`, the merged outcome vector, so each outcome is
    /// absorbed and stored once. With a coupling and ≥ 2 shards the
    /// window is the finest tier's sync interval; otherwise (no coupling,
    /// or a single shard that owns every trunk outright) the shards are
    /// uncoupled and one unbounded window serves everything.
    ///
    /// The drain order is the global completion order whenever no shard
    /// overshoots a window's edge (a gauge at admission is the only
    /// thing that can), and always deterministic.
    fn drive_windows(
        &self,
        mut runs: Vec<FleetRun>,
        retain_outcomes: usize,
        mut feed: impl FnMut(&mut [FleetRun], f64) -> Result<bool, WanifyError>,
    ) -> Result<ShardedFleetReport, WanifyError> {
        let n_shards = runs.len();
        let coupling = self.coupling.as_ref().filter(|_| n_shards > 1);
        let sync_s = coupling.map_or(f64::INFINITY, |h| h.tiers()[0].0.sync_every_s());
        let mut backbone_syncs = 0u64;
        let mut grants = vec![TierGrant::default(); coupling.map_or(0, |h| h.tiers().len())];
        let mut window = 0u64;
        let mut totals = StreamingTotals::default();
        let mut outcomes: Vec<JobOutcome> = Vec::new();
        let mut first_arrival_s = f64::INFINITY;
        let mut last_completed_s = f64::NEG_INFINITY;
        loop {
            let window_end =
                if sync_s.is_finite() { (window + 1) as f64 * sync_s } else { f64::INFINITY };
            let more_to_feed = feed(&mut runs, window_end)?;

            if let Some(h) = coupling {
                backbone_syncs += exchange_tiers(h, &mut runs, window, &mut grants);
            }
            window += 1;
            // Each shard owns its whole state: the window outcome cannot
            // depend on scheduling, so any thread count is bit-identical.
            let stepped: Vec<(FleetRun, Option<WanifyError>)> = runs
                .into_par_iter()
                .map(|mut run| {
                    let err = if run.finished() { None } else { run.run_until(window_end).err() };
                    (run, err)
                })
                .collect();
            runs = Vec::with_capacity(n_shards);
            for (run, err) in stepped {
                if let Some(e) = err {
                    return Err(e);
                }
                runs.push(run);
            }

            let mut drained: Vec<(usize, JobOutcome)> = Vec::new();
            for (s, run) in runs.iter_mut().enumerate() {
                drained.extend(run.take_outcomes().into_iter().map(|o| (s, o)));
            }
            drained.sort_by(|(sa, a), (sb, b)| {
                a.completed_s.total_cmp(&b.completed_s).then(sa.cmp(sb))
            });
            for (_, o) in drained {
                first_arrival_s = first_arrival_s.min(o.arrived_s);
                last_completed_s = last_completed_s.max(o.completed_s);
                totals.absorb(&o);
                if outcomes.len() < retain_outcomes {
                    outcomes.push(o);
                }
            }

            if !more_to_feed && runs.iter().all(FleetRun::finished) {
                break;
            }
            debug_assert!(
                sync_s.is_finite(),
                "an unbounded window either finishes every shard or errors"
            );
        }

        let peak_tracked = runs.iter().map(FleetRun::peak_tracked).sum::<usize>() + outcomes.len();
        let stats = merge_stats(runs.iter().map(|r| r.sim().last_run_stats()));
        let shard_completed = runs.iter().map(FleetRun::completed).collect();
        // The drain took every outcome, so these reports carry only each
        // shard's gauges, fault counters and names.
        let shards: Vec<FleetReport> = runs.into_iter().map(FleetRun::into_report).collect();
        let duration_s =
            if totals.completed == 0 { 0.0 } else { last_completed_s - first_arrival_s };
        let fleet = FleetReport::new(
            outcomes,
            totals,
            duration_s,
            shards.iter().map(|r| r.gauges).sum(),
            shards[0].scheduler.clone(),
            shards[0].belief.clone(),
            merge_faults(&shards),
        );
        Ok(ShardedFleetReport {
            fleet,
            policy: self.policy.name().to_string(),
            backbone_syncs,
            stats,
            peak_tracked,
            shard_completed,
        })
    }
}

/// One sync-point exchange: every tier whose cadence divides `window`
/// refreshes its grant (shares *and* the demand snapshot they were
/// computed against) — at window 0 every tier does — and every shard
/// then applies all held grants at once, composed cell-wise by the
/// engine. Returns the number of tier exchanges performed.
fn exchange_tiers(
    coupling: &BackboneHierarchy,
    runs: &mut [FleetRun],
    window: u64,
    grants: &mut [TierGrant],
) -> u64 {
    let mut exchanges = 0;
    for ((bb, cadence), grant) in coupling.tiers().iter().zip(grants.iter_mut()) {
        if window.is_multiple_of(*cadence) {
            let demands: Vec<Grid<f64>> = runs
                .iter()
                .map(|r| r.fleet.engine.cross_group_demand_mbps(bb.groups(), bb.n_groups()))
                .collect();
            *grant = (bb.allocate(&demands), demands);
            exchanges += 1;
        }
    }
    for (s, run) in runs.iter_mut().enumerate() {
        let held: Vec<_> = coupling
            .tiers()
            .iter()
            .zip(grants.iter())
            .map(|((bb, _), (shares, demands))| (bb.groups(), &shares[s], &demands[s]))
            .collect();
        run.fleet.engine.apply_backbone_tiers(&held);
    }
    exchanges
}

/// Sums per-shard engine statistics; the run coalesced if every shard's
/// engine did.
fn merge_stats(shards: impl Iterator<Item = RunStats>) -> RunStats {
    shards
        .reduce(|a, b| RunStats {
            solves: a.solves + b.solves,
            flows: a.flows + b.flows,
            rounds: a.rounds + b.rounds,
            epochs: a.epochs + b.epochs,
            coalesced: a.coalesced && b.coalesced,
        })
        .unwrap_or_default()
}

/// Merges per-shard fault counters: event counters sum across shards;
/// degraded time does not — every shard replicates the same WAN (and
/// fault schedule), so summing would multiply one outage by the shard
/// count.
fn merge_faults(shards: &[FleetReport]) -> crate::fleet::FaultCounters {
    let mut faults = crate::fleet::FaultCounters::default();
    for r in shards {
        faults.stalled_flows += r.faults.stalled_flows;
        faults.retries += r.faults.retries;
        faults.replacements += r.faults.replacements;
        faults.failed_jobs += r.faults.failed_jobs;
        faults.degraded_s = faults.degraded_s.max(r.faults.degraded_s);
    }
    faults
}

// Engine-level behaviour (completion, determinism, thread-count
// invariance, backbone pressure) is covered by the integration tests in
// `tests/sharded_engine.rs` and the `sharded_parity` proptest — they need
// `wanify-workloads` traces, which dev-cycle back onto this crate and
// therefore cannot unify types with a unit-test build. The policy logic
// below is self-contained.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::StageProfile;
    use crate::storage::DataLayout;
    use wanify_netsim::{paper_testbed_n, VmType};

    fn job(name: &str, layout: DataLayout) -> JobProfile {
        JobProfile::new(
            name,
            layout,
            vec![
                StageProfile::shuffling("map", 1.0, 1.0),
                StageProfile::terminal("reduce", 0.1, 0.5),
            ],
        )
    }

    #[test]
    fn an_empty_shard_list_is_an_error_not_a_panic() {
        let empty = || ShardedFleetEngine::new(Vec::new(), Box::new(RoundRobinShards), None);
        let closed = Arrivals::Closed { clients: 1, think_s: 0.0 };
        let refused = |r: Result<ShardedFleetReport, WanifyError>| match r {
            Err(WanifyError::InvalidConfig(m)) => m.contains("at least one shard"),
            _ => false,
        };
        assert!(refused(empty().run(&[], &closed)));
        assert!(refused(empty().run_stream(0, Box::new(std::iter::empty()), 0)));
    }

    #[test]
    fn round_robin_balances_by_index() {
        let topo = paper_testbed_n(VmType::t2_medium(), 4);
        let policy = RoundRobinShards::new();
        let j = job("any-0", DataLayout::uniform(4, 1.0));
        let shards: Vec<usize> = (0..6).map(|i| policy.shard_of(i, &j, &topo, 3)).collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2]);
    }
}
