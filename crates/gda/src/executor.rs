//! Executes a job profile on the simulated WAN.
//!
//! The executor is where the paper's premise becomes mechanical: the
//! scheduler plans with a bandwidth *belief* (static, simultaneous or
//! predicted), but every shuffle actually runs on the [`NetSim`] where true
//! runtime contention, dynamics and connection behaviour apply. Bad beliefs
//! therefore produce genuinely slower queries (paper §2.2, §5.2).

use crate::cost::{CostBreakdown, CostModel};
use crate::job::JobProfile;
use crate::scheduler::{PlacementCtx, Scheduler};
use std::sync::Arc;
use wanify::source::BandwidthSource;
use wanify::WanifyError;
use wanify_netsim::{
    BwMatrix, ConnMatrix, DcId, EpochHook, GroupId, GroupReport, NetSim, Topology, Transfer,
};

/// Transfer-layer options for a query run.
#[derive(Default)]
pub struct TransferOptions<'a> {
    /// Parallel-connection matrix for shuffles; `None` means a single
    /// connection per DC pair (the vanilla Spark behaviour, §2.1).
    pub conns: Option<&'a ConnMatrix>,
    /// Per-epoch hook (WANify's local agents) driven during shuffles.
    pub hook: Option<&'a mut dyn EpochHook>,
}

impl std::fmt::Debug for TransferOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransferOptions")
            .field("conns", &self.conns.is_some())
            .field("hook", &self.hook.is_some())
            .finish()
    }
}

/// Outcome of one query execution.
///
/// The three names are shared, not copied: `job` is the profile's own
/// [`JobProfile::name`], and a fleet converts its scheduler's and belief
/// source's names once, so every report it emits points at the same two
/// allocations. Cloning a report copies only its two vectors.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Job name.
    pub job: Arc<str>,
    /// Scheduler that planned the run.
    pub scheduler: Arc<str>,
    /// Provenance of the bandwidth belief the scheduler planned with.
    pub belief: Arc<str>,
    /// End-to-end job completion time in seconds.
    pub latency_s: f64,
    /// Itemized dollar cost.
    pub cost: CostBreakdown,
    /// Weakest observed per-pair mean bandwidth across all shuffles, Mbps
    /// (the paper's "minimum BW of the cluster"); 0 when nothing shuffled.
    pub min_bw_mbps: f64,
    /// Total bytes shuffled across the WAN, in gigabytes.
    pub shuffle_gb: f64,
    /// Egress gigabytes per source DC (drives network cost).
    pub egress_gb: Vec<f64>,
    /// Latency of each stage (compute + shuffle), in seconds.
    pub stage_latencies_s: Vec<f64>,
}

/// Runs `job` under `scheduler` on the simulated WAN.
///
/// `belief` is *any* [`BandwidthSource`]: the scheduler plans with
/// whatever matrix the source gauges at job start, while the simulation
/// itself uses the network's true state — so the provenance of the belief
/// (static, measured, predicted) determines real performance exactly as
/// in the paper (§2.2, §5.2). Returns the full [`QueryReport`].
///
/// The per-query semantics live in one place — the [`JobRun`] state
/// machine; this function merely drives it to completion with exclusive
/// use of the simulator, executing [`JobStep::Compute`] as
/// [`NetSim::advance`] and [`JobStep::Shuffle`] as a blocking
/// [`NetSim::run_transfers`] call (with the agent hook on stage shuffles,
/// never on migration). The fleet path drives the same machine from
/// [`wanify_netsim::NetEngine`] completion events instead.
///
/// # Errors
///
/// Returns [`WanifyError::DimensionMismatch`] when the job layout width
/// differs from the topology size, [`WanifyError::InvalidConfig`] naming
/// the job and the stage when a shuffle never finishes (the simulator
/// gave it up as [`wanify_netsim::TransferReport::truncated`]: permanently
/// stalled, or out of its epoch budget), and propagates any gauge failure
/// from the bandwidth source.
pub fn run_job<S: BandwidthSource + ?Sized>(
    sim: &mut NetSim,
    job: &JobProfile,
    scheduler: &dyn Scheduler,
    belief: &mut S,
    mut opts: TransferOptions<'_>,
) -> Result<QueryReport, WanifyError> {
    let bw_belief = belief.gauge(sim)?;
    let mut run = JobRun::new(
        job.clone(),
        bw_belief,
        belief.name(),
        scheduler.name(),
        sim.topology(),
        opts.conns.cloned(),
    )?;
    let mut step = run.start(scheduler, sim.topology());
    loop {
        step = match step {
            JobStep::Compute { seconds } => {
                sim.advance(seconds);
                run.on_compute_done(scheduler, sim.topology())
            }
            JobStep::Shuffle { transfers, conns, migration } => {
                let hook = if migration { None } else { opts.hook.as_deref_mut() };
                let tr = sim.run_transfers(&transfers, &conns, hook);
                if tr.truncated {
                    let stage = match run.phase {
                        RunPhase::Shuffling(s) => format!("stage `{}`", job.stages[s].name),
                        _ => "input migration".to_string(),
                    };
                    return Err(WanifyError::InvalidConfig(format!(
                        "job `{}` stalled: the {stage} shuffle did not finish within {} epochs",
                        job.name, tr.epochs
                    )));
                }
                let group = GroupReport {
                    group: GroupId(0),
                    submitted_s: 0.0,
                    completed_s: 0.0,
                    makespan_s: tr.makespan_s,
                    min_pair_bw_mbps: tr.min_pair_bw_mbps,
                    egress_gigabits: tr.egress_gigabits,
                };
                run.on_shuffle_done(&group, sim.topology())
            }
            JobStep::Done(report) => return Ok(*report),
            // `run_job` never installs a fault policy, so aborts cannot
            // originate here; a Failed step would come from driving the
            // state machine externally and still carries a full report.
            JobStep::Failed(report) => return Ok(*report),
        };
    }
}

/// Straggler-dominated compute time of one stage: every DC processes its
/// local data, the stage waits for the busiest DC (§2.1). `data_gb` is
/// indexed by `DcId`.
pub fn stage_compute_s(data_gb: &[f64], compute_s_per_gb: f64, topo: &Topology) -> f64 {
    data_gb
        .iter()
        .enumerate()
        .map(|(j, gb)| gb * compute_s_per_gb / f64::from(topo.dc(DcId(j)).vcpus()))
        .fold(0.0, f64::max)
}

/// Cross-DC transfers implied by shuffling `out_gb` into `fractions`,
/// plus the total gigabytes that cross the WAN.
fn shuffle_transfers(out_gb: &[f64], fractions: &[f64]) -> (Vec<Transfer>, f64) {
    let mut transfers = Vec::new();
    let mut moved = 0.0;
    for (i, &out) in out_gb.iter().enumerate() {
        for (j, &r) in fractions.iter().enumerate() {
            let gb = out * r;
            if i != j && gb > 1e-12 {
                transfers.push(Transfer::from_gigabytes(DcId(i), DcId(j), gb));
                moved += gb;
            }
        }
    }
    (transfers, moved)
}

/// What a [`JobRun`] needs next from its driver.
///
/// The fleet event loop executes the step — a simulated-time timer for
/// compute, an engine submission for a shuffle — and feeds the outcome
/// back through [`JobRun::on_compute_done`] / [`JobRun::on_shuffle_done`].
#[derive(Debug)]
pub enum JobStep {
    /// The job computes for this many simulated seconds (possibly 0).
    Compute {
        /// Straggler-dominated duration of the compute phase.
        seconds: f64,
    },
    /// The job shuffles: submit these transfers as one flow group.
    Shuffle {
        /// Cross-DC transfers of this shuffle (never empty).
        transfers: Vec<Transfer>,
        /// Parallel-connection matrix the group should use.
        conns: ConnMatrix,
        /// Whether this is the pre-job input migration (which never runs
        /// agent hooks) rather than a stage shuffle.
        migration: bool,
    },
    /// The job finished; here is its report.
    Done(Box<QueryReport>),
    /// The job was aborted by a fault policy after exhausting its stall
    /// retries; the report carries the accounting accrued so far.
    Failed(Box<QueryReport>),
}

/// Phase of a [`JobRun`] between driver events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunPhase {
    /// Waiting for the input-migration flow group to drain.
    Migrating,
    /// Waiting for stage `s`'s compute timer.
    Computing(usize),
    /// Waiting for stage `s`'s shuffle flow group to drain.
    Shuffling(usize),
    /// Report emitted.
    Finished,
}

/// One query's execution as a resumable state machine:
/// `migrate → (compute → shuffle)* → done`.
///
/// [`run_job`] owns the simulator for the whole query; `JobRun` instead
/// *reacts* to completion events, so many runs can interleave on one
/// [`wanify_netsim::NetEngine`] and contend for the same WAN — the fleet
/// regime (see [`crate::fleet`]). Driving a lone `JobRun` through the
/// engine reproduces `run_job`'s [`QueryReport`] bit for bit (enforced by
/// the `fleet_parity` proptest).
///
/// The driver contract: call [`JobRun::start`] once, execute the returned
/// [`JobStep`], then keep feeding completions via
/// [`JobRun::on_compute_done`] / [`JobRun::on_shuffle_done`] until
/// [`JobStep::Done`].
#[derive(Debug)]
pub struct JobRun {
    job: JobProfile,
    /// Belief matrix gauged at admission; placements use it throughout.
    /// Shared, not copied: a fleet hands every job admitted between two
    /// gauges the same allocation.
    bw_belief: Arc<BwMatrix>,
    belief_name: Arc<str>,
    scheduler_name: Arc<str>,
    /// Stage-shuffle connections; `None` means single connections.
    conns: Option<ConnMatrix>,
    phase: RunPhase,
    data_gb: Vec<f64>,
    latency_s: f64,
    /// Start-of-stage latency, for per-stage accounting.
    stage_start_s: f64,
    /// Duration of the pending compute phase (accumulated on completion).
    pending_compute_s: f64,
    min_bw: Option<f64>,
    shuffle_gb: f64,
    egress_gb: Vec<f64>,
    stage_latencies_s: Vec<f64>,
}

impl JobRun {
    /// Builds the state machine for `job`, planning every placement on
    /// `bw_belief` (the matrix a [`BandwidthSource`] gauged at admission).
    /// The run only reads the belief, so it takes a plain matrix or a
    /// shared one: a fleet passes each job an `Arc` of its cached gauge
    /// rather than a copy of it. The belief and scheduler names go into
    /// the report as given; a fleet passes the same two `Arc<str>` to
    /// every run. `conns` is the per-shuffle connection matrix; `None`
    /// means single connections (vanilla Spark).
    ///
    /// # Errors
    ///
    /// Returns [`WanifyError::DimensionMismatch`] when the job layout or
    /// the belief matrix does not match the topology.
    pub fn new(
        job: JobProfile,
        bw_belief: impl Into<Arc<BwMatrix>>,
        belief_name: impl Into<Arc<str>>,
        scheduler_name: impl Into<Arc<str>>,
        topo: &Topology,
        conns: Option<ConnMatrix>,
    ) -> Result<Self, WanifyError> {
        let n = topo.len();
        let bw_belief = bw_belief.into();
        if job.layout.len() != n {
            return Err(WanifyError::DimensionMismatch { expected: n, got: job.layout.len() });
        }
        if bw_belief.len() != n {
            return Err(WanifyError::DimensionMismatch { expected: n, got: bw_belief.len() });
        }
        if let Some(c) = &conns {
            if c.len() != n {
                return Err(WanifyError::DimensionMismatch { expected: n, got: c.len() });
            }
        }
        let data_gb = (0..n).map(|i| job.layout.gb_at(i)).collect();
        Ok(Self {
            job,
            bw_belief,
            belief_name: belief_name.into(),
            scheduler_name: scheduler_name.into(),
            conns,
            phase: RunPhase::Computing(0),
            data_gb,
            latency_s: 0.0,
            stage_start_s: 0.0,
            pending_compute_s: 0.0,
            min_bw: None,
            shuffle_gb: 0.0,
            egress_gb: vec![0.0; n],
            stage_latencies_s: Vec::new(),
        })
    }

    /// The job this run executes.
    pub fn job(&self) -> &JobProfile {
        &self.job
    }

    /// Kicks off the run: decides input migration on the belief matrix and
    /// returns the first step.
    pub fn start(&mut self, scheduler: &dyn Scheduler, topo: &Topology) -> JobStep {
        let ctx = PlacementCtx {
            topo,
            bw: &self.bw_belief,
            out_gb: &self.data_gb,
            compute_s_per_gb: self.job.stages[0].compute_s_per_gb,
        };
        if let Some(new_layout) = scheduler.migrate_input(&ctx) {
            let transfers = migration_transfers(&self.data_gb, &new_layout);
            self.data_gb = new_layout;
            if !transfers.is_empty() {
                self.phase = RunPhase::Migrating;
                return self.shuffle(transfers, true);
            }
        }
        self.begin_compute(0, topo)
    }

    /// Feeds back a finished compute phase and returns the next step.
    ///
    /// # Panics
    ///
    /// Panics if the run was not waiting for a compute phase.
    pub fn on_compute_done(&mut self, scheduler: &dyn Scheduler, topo: &Topology) -> JobStep {
        let RunPhase::Computing(s) = self.phase else {
            panic!("on_compute_done in phase {:?}", self.phase);
        };
        self.latency_s += self.pending_compute_s;
        self.pending_compute_s = 0.0;

        let stage = &self.job.stages[s];
        let out_gb: Vec<f64> = self.data_gb.iter().map(|gb| gb * stage.selectivity).collect();
        let total_out: f64 = out_gb.iter().sum();

        if stage.shuffles && total_out > 1e-12 {
            let downstream_compute =
                self.job.stages.get(s + 1).map_or(0.0, |next| next.compute_s_per_gb);
            let ctx = PlacementCtx {
                topo,
                bw: &self.bw_belief,
                out_gb: &out_gb,
                compute_s_per_gb: downstream_compute,
            };
            let fractions = scheduler.place_reduce(&ctx);
            debug_assert!((fractions.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            let (transfers, moved_gb) = shuffle_transfers(&out_gb, &fractions);
            self.shuffle_gb += moved_gb;
            self.data_gb = fractions.iter().map(|r| r * total_out).collect();
            if !transfers.is_empty() {
                self.phase = RunPhase::Shuffling(s);
                return self.shuffle(transfers, false);
            }
        } else {
            self.data_gb = out_gb;
        }
        self.finish_stage(s, topo)
    }

    /// Feeds back a drained flow group (migration or stage shuffle) and
    /// returns the next step.
    ///
    /// # Panics
    ///
    /// Panics if the run was not waiting for a shuffle.
    pub fn on_shuffle_done(&mut self, report: &GroupReport, topo: &Topology) -> JobStep {
        self.latency_s += report.makespan_s;
        self.min_bw = Some(self.min_bw.unwrap_or(f64::INFINITY).min(report.min_pair_bw_mbps));
        for (i, gb) in report.egress_gigabits.iter().enumerate() {
            self.egress_gb[i] += gb / 8.0;
        }
        self.shuffle_drained(topo)
    }

    /// Feeds back a *cancelled* stalled flow group: absorbs the partial
    /// accounting, re-places every transfer whose destination DC is down
    /// (per `dcs_up`) onto the best alive DC the scheduler would pick for
    /// the surviving volume, and returns the step to resume with plus the
    /// number of redirected transfers. The step is a [`JobStep::Shuffle`]
    /// carrying the rebuilt remainder — or, when every surviving byte
    /// lands back on its own source, the post-shuffle continuation.
    /// Transfers whose *source* is down are kept as-is: their bytes are
    /// unreachable until the DC heals, so resubmitting (and stalling
    /// again, under the fleet's backoff) is the only honest move.
    ///
    /// # Panics
    ///
    /// Panics if the run was not waiting for a shuffle.
    pub fn on_shuffle_stalled(
        &mut self,
        partial: &GroupReport,
        remaining: &[Transfer],
        dcs_up: &[bool],
        scheduler: &dyn Scheduler,
        topo: &Topology,
    ) -> (JobStep, u64) {
        let migration = match self.phase {
            RunPhase::Migrating => true,
            RunPhase::Shuffling(_) => false,
            phase => panic!("on_shuffle_stalled in phase {phase:?}"),
        };
        self.absorb_partial(partial);
        let n = topo.len();

        // Re-place over the belief with dead DCs masked out, weighting by
        // the volume still waiting at each source.
        let mut out_gb = vec![0.0; n];
        for t in remaining {
            out_gb[t.src.0] += t.gigabits / 8.0;
        }
        let downstream_compute = match self.phase {
            RunPhase::Shuffling(s) => {
                self.job.stages.get(s + 1).map_or(0.0, |next| next.compute_s_per_gb)
            }
            _ => self.job.stages[0].compute_s_per_gb,
        };
        let mut masked = BwMatrix::clone(&self.bw_belief);
        for i in 0..n {
            for j in 0..n {
                if !dcs_up[i] || !dcs_up[j] {
                    masked.set(i, j, 0.0);
                }
            }
        }
        let ctx = PlacementCtx {
            topo,
            bw: &masked,
            out_gb: &out_gb,
            compute_s_per_gb: downstream_compute,
        };
        let fractions = scheduler.place_reduce(&ctx);
        // Best alive destination: the highest-fraction DC that is up
        // (lowest id on ties, deterministic).
        let best_alive = (0..n)
            .filter(|&j| dcs_up[j])
            .max_by(|&a, &b| fractions[a].total_cmp(&fractions[b]).then(b.cmp(&a)));

        let mut transfers = Vec::with_capacity(remaining.len());
        let mut redirected = 0u64;
        for t in remaining {
            if dcs_up[t.dst.0] {
                transfers.push(*t);
                continue;
            }
            let Some(new_dst) = best_alive else {
                // Every DC is down: nothing to redirect to; resubmit and
                // let the backoff wait out the outage.
                transfers.push(*t);
                continue;
            };
            redirected += 1;
            let gb = t.gigabits / 8.0;
            self.data_gb[t.dst.0] -= gb;
            self.data_gb[new_dst] += gb;
            if new_dst != t.src.0 {
                transfers.push(Transfer::new(t.src, DcId(new_dst), t.gigabits));
            }
            // new_dst == src: the bytes stay local, nothing crosses the
            // WAN for this transfer.
        }

        if transfers.is_empty() {
            // The whole remainder resolved locally: the shuffle is over.
            return (self.shuffle_drained(topo), redirected);
        }
        (self.shuffle(transfers, migration), redirected)
    }

    /// Aborts the run after a fault policy exhausted its retries: absorbs
    /// the cancelled group's partial accounting, closes the current
    /// stage, prices the cost of what actually ran and emits
    /// [`JobStep::Failed`].
    ///
    /// # Panics
    ///
    /// Panics if the run was not waiting for a shuffle.
    pub fn abort(&mut self, partial: &GroupReport, topo: &Topology) -> JobStep {
        assert!(
            matches!(self.phase, RunPhase::Migrating | RunPhase::Shuffling(_)),
            "abort in phase {:?}",
            self.phase
        );
        self.absorb_partial(partial);
        self.stage_latencies_s.push(self.latency_s - self.stage_start_s);
        JobStep::Failed(self.finish(topo))
    }

    /// Folds a cancelled group's partial accounting into the run: elapsed
    /// (including stalled) time, egress that actually moved, and the
    /// observed floor bandwidth — but only when some pair carried data
    /// (an outage-from-the-start group reports 0, which is "no
    /// observation", not "zero bandwidth").
    fn absorb_partial(&mut self, partial: &GroupReport) {
        self.latency_s += partial.makespan_s;
        if partial.min_pair_bw_mbps > 0.0 {
            self.min_bw = Some(self.min_bw.unwrap_or(f64::INFINITY).min(partial.min_pair_bw_mbps));
        }
        for (i, gb) in partial.egress_gigabits.iter().enumerate() {
            self.egress_gb[i] += gb / 8.0;
        }
    }

    /// Emits a shuffle of `transfers`. Stage shuffles run on the run's
    /// connection matrix; input migration always runs on single
    /// connections (§2.2).
    fn shuffle(&self, transfers: Vec<Transfer>, migration: bool) -> JobStep {
        let stage_conns = self.conns.as_ref().filter(|_| !migration).cloned();
        let conns = stage_conns.unwrap_or_else(|| ConnMatrix::filled(self.data_gb.len(), 1));
        JobStep::Shuffle { transfers, conns, migration }
    }

    /// The step after a drained shuffle: stage 0's compute after input
    /// migration, else the close of the shuffling stage.
    fn shuffle_drained(&mut self, topo: &Topology) -> JobStep {
        match self.phase {
            RunPhase::Migrating => self.begin_compute(0, topo),
            RunPhase::Shuffling(s) => self.finish_stage(s, topo),
            phase => panic!("shuffle drained in phase {phase:?}"),
        }
    }

    /// Emits stage `s`'s compute step.
    fn begin_compute(&mut self, s: usize, topo: &Topology) -> JobStep {
        self.phase = RunPhase::Computing(s);
        self.stage_start_s = self.latency_s;
        self.pending_compute_s =
            stage_compute_s(&self.data_gb, self.job.stages[s].compute_s_per_gb, topo);
        JobStep::Compute { seconds: self.pending_compute_s }
    }

    /// Closes stage `s`'s accounting and moves on (or finishes).
    fn finish_stage(&mut self, s: usize, topo: &Topology) -> JobStep {
        self.stage_latencies_s.push(self.latency_s - self.stage_start_s);
        if s + 1 < self.job.stages.len() {
            self.begin_compute(s + 1, topo)
        } else {
            JobStep::Done(self.finish(topo))
        }
    }

    /// Marks the run finished and reports it, pricing what actually ran.
    fn finish(&mut self, topo: &Topology) -> Box<QueryReport> {
        self.phase = RunPhase::Finished;
        let cost =
            CostModel::new().price(topo, self.latency_s, &self.egress_gb, self.job.input_gb());
        Box::new(QueryReport {
            job: Arc::clone(&self.job.name),
            scheduler: Arc::clone(&self.scheduler_name),
            belief: Arc::clone(&self.belief_name),
            latency_s: self.latency_s,
            cost,
            min_bw_mbps: self.min_bw.unwrap_or(0.0),
            shuffle_gb: self.shuffle_gb,
            egress_gb: std::mem::take(&mut self.egress_gb),
            stage_latencies_s: std::mem::take(&mut self.stage_latencies_s),
        })
    }
}

/// Greedy matching of surpluses to deficits between two layouts.
fn migration_transfers(old: &[f64], new: &[f64]) -> Vec<Transfer> {
    let mut surplus: Vec<(usize, f64)> = Vec::new();
    let mut deficit: Vec<(usize, f64)> = Vec::new();
    for i in 0..old.len() {
        let delta = old[i] - new[i];
        if delta > 1e-12 {
            surplus.push((i, delta));
        } else if delta < -1e-12 {
            deficit.push((i, -delta));
        }
    }
    let mut transfers = Vec::new();
    let mut d_iter = deficit.into_iter();
    let mut current = d_iter.next();
    for (src, mut amount) in surplus {
        while amount > 1e-12 {
            let Some((dst, need)) = current else { break };
            let moved = amount.min(need);
            transfers.push(Transfer::from_gigabytes(DcId(src), DcId(dst), moved));
            amount -= moved;
            if need - moved > 1e-12 {
                current = Some((dst, need - moved));
            } else {
                current = d_iter.next();
            }
        }
    }
    transfers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::StageProfile;
    use crate::scheduler::{Tetrium, VanillaSpark};
    use crate::storage::DataLayout;
    use wanify_netsim::{paper_testbed_n, LinkModelParams, VmType};

    impl JobRun {
        /// The belief this run plans on.
        pub(crate) fn belief(&self) -> &Arc<BwMatrix> {
            &self.bw_belief
        }
    }

    fn sim(n: usize) -> NetSim {
        NetSim::new(paper_testbed_n(VmType::t2_medium(), n), LinkModelParams::frozen(), 7)
    }

    fn sort_job(n: usize, gb: f64) -> JobProfile {
        JobProfile::new(
            "sort",
            DataLayout::uniform(n, gb),
            vec![
                StageProfile::shuffling("map", 1.0, 1.0),
                StageProfile::terminal("reduce", 0.05, 0.5),
            ],
        )
    }

    #[test]
    fn migration_transfers_conserve_mass() {
        let old = [4.0, 0.0, 2.0];
        let new = [0.0, 6.0, 0.0];
        let ts = migration_transfers(&old, &new);
        let moved: f64 = ts.iter().map(|t| t.gigabits / 8.0).sum();
        assert!((moved - 6.0).abs() < 1e-9);
        assert!(ts.iter().all(|t| t.dst == DcId(1)));
    }

    #[test]
    fn run_reports_sane_metrics() {
        let mut s = sim(4);
        let job = sort_job(4, 4.0);
        let report = run_job(
            &mut s,
            &job,
            &Tetrium::new(),
            &mut wanify::StaticIndependent::new(),
            TransferOptions::default(),
        )
        .unwrap();
        assert!(report.latency_s > 0.0);
        assert!(report.cost.total_usd() > 0.0);
        assert!(report.min_bw_mbps > 0.0);
        assert!(report.shuffle_gb > 0.0 && report.shuffle_gb < 4.0);
        assert_eq!(report.stage_latencies_s.len(), 2);
        let stage_sum: f64 = report.stage_latencies_s.iter().sum();
        assert!((stage_sum - report.latency_s).abs() < 1e-6);
    }

    #[test]
    fn wan_aware_beats_vanilla_on_heterogeneous_links() {
        let job = sort_job(4, 4.0);
        let mut s1 = sim(4);
        let vanilla = run_job(
            &mut s1,
            &job,
            &VanillaSpark::new(),
            &mut wanify::StaticIndependent::new(),
            TransferOptions::default(),
        )
        .unwrap();
        let mut s2 = sim(4);
        let tetrium = run_job(
            &mut s2,
            &job,
            &Tetrium::new(),
            &mut wanify::StaticIndependent::new(),
            TransferOptions::default(),
        )
        .unwrap();
        assert!(
            tetrium.latency_s < vanilla.latency_s,
            "tetrium {} vs vanilla {}",
            tetrium.latency_s,
            vanilla.latency_s
        );
    }

    #[test]
    fn parallel_connections_speed_up_the_shuffle() {
        let job = sort_job(4, 4.0);
        let mut s1 = sim(4);
        let single = run_job(
            &mut s1,
            &job,
            &Tetrium::new(),
            &mut wanify::StaticIndependent::new(),
            TransferOptions::default(),
        )
        .unwrap();
        let mut s2 = sim(4);
        let conns = ConnMatrix::from_fn(4, |i, j| if i == j { 1 } else { 4 });
        let parallel = run_job(
            &mut s2,
            &job,
            &Tetrium::new(),
            &mut wanify::StaticIndependent::new(),
            TransferOptions { conns: Some(&conns), hook: None },
        )
        .unwrap();
        assert!(
            parallel.latency_s < single.latency_s,
            "parallel {} vs single {}",
            parallel.latency_s,
            single.latency_s
        );
    }

    #[test]
    fn zero_input_job_costs_almost_nothing() {
        let mut s = sim(3);
        let job = sort_job(3, 0.0);
        let report = run_job(
            &mut s,
            &job,
            &VanillaSpark::new(),
            &mut wanify::StaticIndependent::new(),
            TransferOptions::default(),
        )
        .unwrap();
        assert_eq!(report.shuffle_gb, 0.0);
        assert_eq!(report.min_bw_mbps, 0.0);
        assert!(report.latency_s < 1.0);
    }

    #[test]
    fn transferless_job_reports_zero_min_bw() {
        // Regression: `min_bw` accumulates from `f64::INFINITY`; a job
        // whose stages never shuffle must report 0, not the sentinel.
        let mut s = sim(3);
        let job = JobProfile::new(
            "local-only",
            DataLayout::uniform(3, 6.0),
            vec![StageProfile::terminal("scan", 1.0, 0.5), StageProfile::terminal("agg", 0.1, 0.2)],
        );
        let report = run_job(
            &mut s,
            &job,
            &VanillaSpark::new(),
            &mut wanify::StaticIndependent::new(),
            TransferOptions::default(),
        )
        .unwrap();
        assert!(report.latency_s > 0.0, "compute still takes time");
        assert_eq!(report.min_bw_mbps, 0.0);
        assert!(report.min_bw_mbps.is_finite());
        assert_eq!(report.shuffle_gb, 0.0);
    }

    #[test]
    fn layout_width_mismatch_is_an_error_not_a_panic() {
        let mut s = sim(4);
        let job = sort_job(3, 3.0); // 3-DC layout on a 4-DC topology
        let err = run_job(
            &mut s,
            &job,
            &Tetrium::new(),
            &mut wanify::StaticIndependent::new(),
            TransferOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, wanify::WanifyError::DimensionMismatch { expected: 4, got: 3 });
    }

    #[test]
    fn a_shuffle_that_never_finishes_is_an_error_naming_the_job_and_stage() {
        // Vanilla Spark reduces everywhere, so 0 → 1 carries map output;
        // at 0 Mbps that pair can never drain.
        let mut s = sim(3);
        s.set_throttle(DcId(0), DcId(1), 0.0);
        let err = run_job(
            &mut s,
            &sort_job(3, 3.0),
            &VanillaSpark::new(),
            &mut wanify::StaticIndependent::new(),
            TransferOptions::default(),
        )
        .unwrap_err();
        let WanifyError::InvalidConfig(message) = err else { panic!("got {err:?}") };
        assert!(message.contains("job `sort`") && message.contains("stage `map`"), "{message}");
    }

    #[test]
    fn egress_accounting_feeds_network_cost() {
        let mut s = sim(3);
        let job = sort_job(3, 3.0);
        let report = run_job(
            &mut s,
            &job,
            &VanillaSpark::new(),
            &mut wanify::StaticIndependent::new(),
            TransferOptions::default(),
        )
        .unwrap();
        let total_egress: f64 = report.egress_gb.iter().sum();
        assert!(total_egress > 0.0);
        assert!(report.cost.network_usd > 0.0);
    }
}
