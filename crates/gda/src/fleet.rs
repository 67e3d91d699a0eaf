//! Multi-tenant fleet engine: many queries, one shared WAN.
//!
//! [`run_job`](crate::run_job) grants each query exclusive use of the
//! simulator, so cross-query contention — the regime Tetrium (Hung et
//! al., EuroSys'18) and Kimchi (Oh et al., TPDS'21) actually target — is
//! unrepresentable there. [`FleetEngine`] lifts the same per-job state
//! machine ([`JobRun`]) onto the resumable
//! [`NetEngine`](wanify_netsim::NetEngine): every admitted query's
//! shuffles are job-tagged flow groups contending under weighted max-min
//! fairness with everyone else's, and the engine's completion events
//! drive the per-job `migrate → compute → shuffle` progressions.
//!
//! The fleet adds the serving-layer concerns around that core:
//!
//! * an **arrival queue** fed through **one arrival path with three
//!   callers**: whoever produces an arrival — a materialized trace armed
//!   at start (seeded Poisson [`Arrivals::Poisson`] or explicit
//!   [`Arrivals::Scheduled`] times), a closed-loop client pool
//!   ([`Arrivals::Closed`]) or an external push
//!   ([`FleetRun::submit_job`], the sharded driver's streamed feed) — it
//!   is one `(job_idx, arrival_s, profile)` moved behind one arrival
//!   timer, and one validator checks every arrival time;
//! * **admission control** — at most [`FleetConfig::max_concurrent`]
//!   queries run at once, the rest wait (queue time is reported);
//! * a **shared belief cache** — one [`BandwidthSource`] serves every
//!   tenant, re-gauged only when older than
//!   [`FleetConfig::regauge_every_s`] simulated seconds, amortizing the
//!   monitoring cost the paper's Table 2 measures across queries;
//! * **fleet statistics** in **one report** — completed/s, queue-wait
//!   and makespan percentiles, egress dollars: [`StreamingTotals`]
//!   absorbs every completion once, where the report is built, and
//!   [`FleetReport::new`] reads exact order statistics off the retained
//!   outcomes when they are all there, the sketches when the driver that
//!   built the totals kept fewer.
//!
//! Everything is seeded and deterministic: identical inputs produce
//! bit-identical [`FleetReport`]s.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use crate::executor::{JobRun, JobStep};
use crate::job::JobProfile;
use crate::scheduler::Scheduler;
use crate::sketch::StreamingPercentiles;
use crate::QueryReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wanify::source::BandwidthSource;
use wanify::WanifyError;
use wanify_netsim::{BwMatrix, ConnMatrix, EpochCtx, EpochHook, GroupId, NetEngine, NetSim};

/// Recovery knobs for a failure-aware fleet.
///
/// With a policy installed (see [`FleetConfig::faults`]), a flow group
/// whose every remaining pair holds a zero rate — e.g. because a
/// [`wanify_netsim::FaultSchedule`] downed a DC it must cross — is put
/// under watch; if it is still stalled `stall_timeout_s` later, the fleet
/// cancels it, re-places the dead-destination remainder through the
/// scheduler, and resubmits after an exponential backoff. A job whose
/// shuffle stalls more than `max_retries` times is aborted and reported
/// failed (with its partial accounting) instead of wedging the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Seconds a group must stay rate-zero before the fleet intervenes
    /// (short transients — a link flap healing on its own — ride through).
    pub stall_timeout_s: f64,
    /// Stall interventions allowed per job before it is failed.
    pub max_retries: u32,
    /// Base of the exponential resubmit backoff: retry `k` resubmits
    /// `backoff_base_s · 2^(k-1)` seconds after the cancel.
    pub backoff_base_s: f64,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self { stall_timeout_s: 30.0, max_retries: 3, backoff_base_s: 15.0 }
    }
}

/// Fault-attributed counters of one fleet run (all zero without faults).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultCounters {
    /// Undelivered transfers collected from cancelled stalled groups.
    pub stalled_flows: u64,
    /// Stall interventions that led to a resubmission.
    pub retries: u64,
    /// Transfers re-placed to a different (alive) destination DC.
    pub replacements: u64,
    /// Jobs aborted after exhausting [`FaultPolicy::max_retries`].
    pub failed_jobs: u64,
    /// Simulated seconds the WAN spent with any fault active (from
    /// [`wanify_netsim::NetSim::degraded_s`]).
    pub degraded_s: f64,
}

/// Serving-layer counters of a gateway-fronted run (all zero when the
/// fleet replayed a plain trace with no gateway in front).
///
/// The gateway crate folds its admission decisions into these so one
/// [`FleetReport`] carries the whole serving story: how much load was
/// offered, how much was refused at the front door, shed from the queue,
/// or served late, and how the belief circuit breaker behaved.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServingCounters {
    /// Requests offered to the gateway (admitted or not).
    pub offered: u64,
    /// Requests refused because the submission queue was full.
    pub rejected: u64,
    /// Requests refused by a per-tenant-class token bucket.
    pub quota_rejected: u64,
    /// Queued requests shed because their predicted makespan could no
    /// longer meet their deadline.
    pub shed_jobs: u64,
    /// Requests served to completion but past their deadline.
    pub deadline_misses: u64,
    /// Times the belief circuit breaker tripped open (including re-trips
    /// from a failed half-open probe).
    pub breaker_trips: u64,
    /// Gauges answered by the fallback belief while the primary was
    /// failing or the breaker was open.
    pub breaker_fallbacks: u64,
    /// Half-open probes that found the primary healthy again.
    pub breaker_recoveries: u64,
}

/// Serving-layer knobs of a [`FleetEngine`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Admission limit: queries running concurrently (≥ 1).
    pub max_concurrent: usize,
    /// Shared-belief staleness bound, simulated seconds: a gauge older
    /// than this is refreshed at the next admission. `f64::INFINITY`
    /// gauges exactly once; `0.0` re-gauges per admission (per-query
    /// monitoring, as `run_job` does).
    pub regauge_every_s: f64,
    /// Per-shuffle parallel-connection matrix applied to every job;
    /// `None` means single connections (vanilla Spark).
    pub conns: Option<ConnMatrix>,
    /// Stall detection and recovery; `None` keeps the legacy behaviour
    /// (a permanently stalled flow is a fleet error, not a retry).
    pub faults: Option<FaultPolicy>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self { max_concurrent: 16, regauge_every_s: 60.0, conns: None, faults: None }
    }
}

/// How jobs arrive at the fleet.
#[derive(Debug, Clone)]
pub enum Arrivals {
    /// Open loop: Poisson arrivals at `rate_per_s`, sampled with a
    /// dedicated seeded stream (deterministic, independent of the
    /// simulator's seed).
    Poisson {
        /// Mean arrivals per simulated second (> 0).
        rate_per_s: f64,
        /// Seed of the interarrival stream.
        seed: u64,
    },
    /// Closed loop: `clients` concurrent clients submit one job each at
    /// t = 0 and the next one `think_s` seconds after their previous job
    /// completes.
    Closed {
        /// Number of concurrent clients (≥ 1).
        clients: usize,
        /// Think time between a completion and the next submission.
        think_s: f64,
    },
    /// Open loop with explicit absolute arrival times: job `i` arrives at
    /// `times[i]` simulated seconds. The scenario harness uses this for
    /// deterministic flash crowds (many arrivals at one instant) timed
    /// against a fault schedule.
    Scheduled {
        /// Arrival time per job of the trace (finite, ≥ 0).
        times: Vec<f64>,
    },
}

/// One query's fleet-level outcome.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Index of the job in the run's submission order (the trace index,
    /// or the value [`FleetRun::submit_job`] returned). Outcomes land in
    /// completion order, so this is the join key back to the request.
    pub job_idx: usize,
    /// The per-query report, exactly as `run_job` would shape it.
    pub report: QueryReport,
    /// Simulated time the job entered the arrival queue.
    pub arrived_s: f64,
    /// Simulated time the job was admitted (started running).
    pub admitted_s: f64,
    /// Simulated time the job finished.
    pub completed_s: f64,
    /// Whether the job was aborted after exhausting its fault-policy
    /// retries (its report then carries partial accounting).
    pub failed: bool,
}

impl JobOutcome {
    /// Seconds spent waiting in the arrival queue.
    pub fn queue_wait_s(&self) -> f64 {
        self.admitted_s - self.arrived_s
    }

    /// Wall-clock makespan from admission to completion (includes
    /// contention slowdown and any monitoring windows).
    pub fn makespan_s(&self) -> f64 {
        self.completed_s - self.admitted_s
    }
}

/// Order statistics of a sample, nearest-rank percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
}

impl Percentiles {
    /// Computes the statistics of `values` (all zero when empty).
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self { p50: 0.0, p95: 0.0, p99: 0.0, mean: 0.0, max: 0.0 };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |q: f64| {
            let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[idx - 1]
        };
        Self {
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Constant-memory accounting of a fleet run: everything the report
/// needs that would otherwise be recomputed by iterating the retained
/// [`JobOutcome`]s — which a driver that keeps only some of them no
/// longer has. Fed one outcome at a time in completion order, so totals
/// fed every outcome are bit-identical to iterating the outcome vector.
#[derive(Debug, Clone, Default)]
pub struct StreamingTotals {
    /// Queries completed (including failed ones).
    pub completed: usize,
    /// Queries aborted by the fault policy.
    pub failed: usize,
    /// Streaming queue-wait statistics (arrival → admission).
    pub queue_wait: StreamingPercentiles,
    /// Streaming makespan statistics (admission → completion).
    pub makespan: StreamingPercentiles,
    /// Total egress gigabytes that crossed the WAN.
    pub egress_gb: f64,
    /// Total dollars across all queries (compute + network + storage).
    pub cost_usd: f64,
    /// Network (egress) dollars across all queries.
    pub network_cost_usd: f64,
}

impl StreamingTotals {
    /// Absorbs one completed query, in completion order.
    pub fn absorb(&mut self, outcome: &JobOutcome) {
        self.completed += 1;
        if outcome.failed {
            self.failed += 1;
        }
        self.queue_wait.observe(outcome.queue_wait_s());
        self.makespan.observe(outcome.makespan_s());
        self.egress_gb += outcome.report.egress_gb.iter().sum::<f64>();
        self.cost_usd += outcome.report.cost.total_usd();
        self.network_cost_usd += outcome.report.cost.network_usd;
    }
}

/// Aggregate outcome of one fleet run.
///
/// Built by [`FleetReport::new`] from the retained outcomes and the
/// [`StreamingTotals`] that absorbed every completion. The report is
/// exact when the two agree on the count (order statistics computed once
/// from the full outcome vector) and [`sketched`](FleetReport::sketched)
/// otherwise: the driver kept fewer outcomes than it absorbed (the
/// sharded fleet's streamed run), `outcomes` holds only the retained
/// prefix and the statistics come from the streaming sketches. [`FleetReport::queue_wait`] and [`FleetReport::makespan`]
/// return the cached values either way.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-job outcomes in completion order. In a
    /// [`sketched`](FleetReport::sketched) report this is only the
    /// retained prefix — use [`FleetReport::completed`] for the real
    /// count and the aggregate accessors for totals.
    pub outcomes: Vec<JobOutcome>,
    /// Simulated seconds from the first arrival to the last completion.
    pub duration_s: f64,
    /// How often the shared belief was actually gauged (the amortization
    /// the belief cache buys; `run_job` would have gauged once per query).
    pub gauges: u64,
    /// Scheduler that served the fleet.
    pub scheduler: String,
    /// Provenance of the shared bandwidth belief.
    pub belief: String,
    /// Fault-attributed counters (all zero when no faults were injected).
    pub faults: FaultCounters,
    /// Serving-layer counters (all zero when no gateway fronted the run).
    pub serving: ServingCounters,
    /// The run's accumulated aggregates (every completion, retained or
    /// not).
    totals: StreamingTotals,
    /// Whether the percentile statistics are sketch estimates rather
    /// than exact order statistics.
    sketched: bool,
    /// Queue-wait order statistics, computed at construction.
    queue_wait: Percentiles,
    /// Makespan order statistics, computed at construction.
    makespan: Percentiles,
}

impl FleetReport {
    /// Assembles the report of a run that retained `outcomes` (in
    /// completion order) and absorbed every completion into `totals`.
    /// Exact order statistics when `totals.completed == outcomes.len()`,
    /// the sketches' snapshots when the driver dropped some.
    pub fn new(
        outcomes: Vec<JobOutcome>,
        totals: StreamingTotals,
        duration_s: f64,
        gauges: u64,
        scheduler: String,
        belief: String,
        faults: FaultCounters,
    ) -> Self {
        let sketched = totals.completed != outcomes.len();
        let (queue_wait, makespan) = if sketched {
            (totals.queue_wait.snapshot(), totals.makespan.snapshot())
        } else {
            let waits: Vec<f64> = outcomes.iter().map(JobOutcome::queue_wait_s).collect();
            let makespans: Vec<f64> = outcomes.iter().map(JobOutcome::makespan_s).collect();
            (Percentiles::of(&waits), Percentiles::of(&makespans))
        };
        Self {
            outcomes,
            duration_s,
            gauges,
            scheduler,
            belief,
            faults,
            serving: ServingCounters::default(),
            totals,
            sketched,
            queue_wait,
            makespan,
        }
    }

    /// Attaches the gateway's serving-layer counters; builder-style.
    #[must_use]
    pub fn with_serving(mut self, serving: ServingCounters) -> Self {
        self.serving = serving;
        self
    }

    /// Whether the percentile statistics are streaming-sketch estimates
    /// (the driver kept fewer outcomes than completed) rather than exact
    /// order statistics.
    pub fn sketched(&self) -> bool {
        self.sketched
    }

    /// Queries completed, including any whose individual outcomes the
    /// driver dropped.
    pub fn completed(&self) -> usize {
        self.totals.completed
    }

    /// Number of jobs that were aborted by the fault policy.
    pub fn failed_jobs(&self) -> usize {
        self.totals.failed
    }

    /// Completed queries per simulated second.
    pub fn throughput_jobs_per_s(&self) -> f64 {
        if self.duration_s > 0.0 {
            self.totals.completed as f64 / self.duration_s
        } else {
            0.0
        }
    }

    /// Queue-wait order statistics (cached at construction; sketch
    /// estimates in a [`sketched`](FleetReport::sketched) report).
    pub fn queue_wait(&self) -> Percentiles {
        self.queue_wait
    }

    /// Admission-to-completion makespan order statistics (cached at
    /// construction; sketch estimates in a
    /// [`sketched`](FleetReport::sketched) report).
    pub fn makespan(&self) -> Percentiles {
        self.makespan
    }

    /// Total egress gigabytes that crossed the WAN.
    pub fn total_egress_gb(&self) -> f64 {
        self.totals.egress_gb
    }

    /// Total dollars across all queries (compute + network + storage).
    pub fn total_cost_usd(&self) -> f64 {
        self.totals.cost_usd
    }

    /// Network (egress) dollars across all queries.
    pub fn network_cost_usd(&self) -> f64 {
        self.totals.network_cost_usd
    }
}

/// A timer in the fleet's event queue. Ordered by time then sequence
/// number, so ties break deterministically in insertion order.
#[derive(Debug)]
struct Timer {
    at_s: f64,
    seq: u64,
    kind: TimerKind,
}

#[derive(Debug)]
enum TimerKind {
    /// The front of the `incoming` FIFO joins the arrival queue.
    Arrival,
    /// The compute phase of the run in `slot` finishes.
    ComputeDone(usize),
    /// A watched group's stall grace period expires: if the group is
    /// still stalled, the fault policy intervenes.
    StallCheck(GroupId),
    /// The backoff of the run in `slot` expires: resubmit its re-placed
    /// shuffle remainder.
    RetrySubmit(usize),
    /// The fleet-level agent's next observation is due (recurring while
    /// jobs remain; see [`FleetAgent`]).
    AgentWake,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest timer pops
        // first.
        other.at_s.total_cmp(&self.at_s).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A running query: its state machine plus fleet-level timestamps.
#[derive(Debug)]
struct ActiveRun {
    run: JobRun,
    job_idx: usize,
    arrived_s: f64,
    admitted_s: f64,
    /// Stall interventions this job has absorbed so far.
    attempts: u32,
    /// A re-placed shuffle remainder waiting out its backoff.
    retry: Option<(Vec<wanify_netsim::Transfer>, ConnMatrix)>,
    /// The flow group this job has in flight (a [`JobRun`] shuffles one
    /// group at a time), which is how engine events find their owner.
    group: Option<GroupId>,
    /// Whether `group` already holds a pending [`TimerKind::StallCheck`].
    stall_watched: bool,
}

/// A fleet-level WANify agent: an [`EpochHook`] driven on a fixed timer
/// cadence over the whole multi-tenant engine, instead of per-epoch over
/// one exclusive `run_transfers` call. At each wake the agent observes
/// the engine's aggregate per-pair rates and remaining payloads, may
/// retune the shared connection matrix (applied to every in-flight group
/// and preferred over [`FleetConfig::conns`] at admission) and install
/// traffic-control throttles. Wakes are ordinary timers in the fleet's
/// event queue, so the engine still coalesces whole windows between them
/// — a live agent at near-frozen wall-clock cost.
pub struct FleetAgent {
    /// The agent logic (typically `wanify::WanifyAgent`).
    pub hook: Box<dyn EpochHook + Send>,
    /// Simulated seconds between wakes (finite and positive). The first
    /// wake fires one interval after the run starts: at t = 0 nothing
    /// has been through a fairness solve, so there is nothing to observe.
    pub interval_s: f64,
    /// The shared connection matrix the agent steers.
    pub conns: ConnMatrix,
}

impl std::fmt::Debug for FleetAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetAgent")
            .field("interval_s", &self.interval_s)
            .field("conns", &self.conns)
            .finish()
    }
}

/// The multi-tenant serving engine. See the module docs.
///
/// Construction wires a simulator, one scheduler and one shared
/// [`BandwidthSource`]; [`FleetEngine::run`] consumes the engine and a
/// job trace and returns the [`FleetReport`].
pub struct FleetEngine {
    /// The simulator; the sharded driver exchanges backbone grants on it.
    pub(crate) engine: NetEngine,
    scheduler: Box<dyn Scheduler>,
    source: Box<dyn BandwidthSource>,
    /// `scheduler.name()` and `source.name()`, converted once: every
    /// report of this fleet shares these two allocations.
    scheduler_name: Arc<str>,
    belief_name: Arc<str>,
    config: FleetConfig,
    /// Shared belief cache: the gauged matrix and when it was gauged.
    /// Every job admitted until the next gauge shares this allocation.
    belief: Option<(Arc<BwMatrix>, f64)>,
    gauges: u64,
    /// An optional fleet-level agent, driven by a recurring timer.
    agent: Option<FleetAgent>,
}

impl std::fmt::Debug for FleetEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetEngine")
            .field("scheduler", &self.scheduler.name())
            .field("belief", &self.source.name())
            .field("config", &self.config)
            .field("gauges", &self.gauges)
            .field("agent", &self.agent)
            .finish()
    }
}

impl FleetEngine {
    /// Builds a fleet over `sim`, serving every query with `scheduler`
    /// planning on the shared `source` belief.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_concurrent` is 0, or if a fault policy has a
    /// non-positive stall timeout or a negative/non-finite backoff.
    pub fn new(
        sim: NetSim,
        scheduler: Box<dyn Scheduler>,
        source: Box<dyn BandwidthSource>,
        config: FleetConfig,
    ) -> Self {
        assert!(config.max_concurrent >= 1, "admission limit must allow at least one query");
        if let Some(policy) = &config.faults {
            assert!(
                policy.stall_timeout_s.is_finite() && policy.stall_timeout_s > 0.0,
                "stall timeout must be finite and positive, got {}",
                policy.stall_timeout_s
            );
            assert!(
                policy.backoff_base_s.is_finite() && policy.backoff_base_s >= 0.0,
                "backoff base must be finite and non-negative, got {}",
                policy.backoff_base_s
            );
        }
        Self {
            engine: NetEngine::new(sim),
            scheduler_name: scheduler.name().into(),
            belief_name: source.name().into(),
            scheduler,
            source,
            config,
            belief: None,
            gauges: 0,
            agent: None,
        }
    }

    /// Installs a fleet-level agent (see [`FleetAgent`]); builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `agent.interval_s` is not finite and positive, or its
    /// connection matrix does not match the topology size.
    pub fn with_agent(mut self, agent: FleetAgent) -> Self {
        assert!(
            agent.interval_s.is_finite() && agent.interval_s > 0.0,
            "agent interval must be finite and positive, got {}",
            agent.interval_s
        );
        assert_eq!(
            agent.conns.len(),
            self.engine.sim().topology().len(),
            "agent connection matrix must match topology size"
        );
        self.agent = Some(agent);
        self
    }

    /// Read access to the underlying simulator (topology, time, stats).
    pub fn sim(&self) -> &NetSim {
        self.engine.sim()
    }

    /// Runs `jobs` to completion under the given arrival process and
    /// returns the fleet report. Deterministic: same inputs, bit-identical
    /// output.
    ///
    /// Equivalent to [`FleetRun::start`] followed by one unbounded
    /// [`FleetRun::run_until`]; drivers that need to interleave the fleet
    /// with other work (the sharded fleet's sync windows, a future async
    /// front-end) use [`FleetRun`] directly.
    ///
    /// # Errors
    ///
    /// Returns [`WanifyError`] when the shared source fails to gauge the
    /// network, when a job's layout does not match the topology, or when
    /// the configuration cannot make progress (e.g. a Poisson rate that is
    /// not finite and positive).
    pub fn run(self, jobs: &[JobProfile], arrivals: &Arrivals) -> Result<FleetReport, WanifyError> {
        let mut run = FleetRun::start(self, jobs.to_vec(), arrivals)?;
        run.run_until(f64::INFINITY)?;
        Ok(run.into_report())
    }
}

/// An unbounded, seeded, clonable iterator of absolute Poisson arrival
/// times — the one arrival-time source shared by [`FleetRun::start`]
/// (which takes the first `n`), the sharded fleet's streamed feed and
/// the serving gateway's open-loop load generator, so all of them draw
/// bit-identical schedules from identical inputs, and a million-query
/// stream costs O(1) memory instead of a Vec.
///
/// # Errors
///
/// Returns [`WanifyError::InvalidConfig`] for a rate that is not finite
/// and positive.
pub fn poisson_times_iter(rate_per_s: f64, seed: u64) -> Result<PoissonTimes, WanifyError> {
    if !(rate_per_s.is_finite() && rate_per_s > 0.0) {
        return Err(WanifyError::InvalidConfig(format!(
            "Poisson arrival rate must be finite and positive, got {rate_per_s}"
        )));
    }
    Ok(PoissonTimes { rng: StdRng::seed_from_u64(seed), rate_per_s, t: 0.0 })
}

/// Unbounded seeded Poisson arrival-time stream; see
/// [`poisson_times_iter`].
#[derive(Debug, Clone)]
pub struct PoissonTimes {
    rng: StdRng,
    rate_per_s: f64,
    t: f64,
}

impl Iterator for PoissonTimes {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        // Exponential interarrivals: -ln(1-U)/λ, U ∈ [0, 1).
        let u: f64 = self.rng.gen();
        self.t += -(1.0 - u).ln() / self.rate_per_s;
        Some(self.t)
    }
}

/// The one arrival-time check: finite, non-negative, and not before the
/// previous arrival of an ordered source (`last_s`; an explicit schedule,
/// which may list its jobs in any time order, passes 0).
fn check_arrival_time(at_s: f64, last_s: f64) -> Result<(), WanifyError> {
    if !(at_s.is_finite() && at_s >= 0.0) {
        return Err(WanifyError::InvalidConfig(format!(
            "arrival times must be finite and non-negative, got {at_s}"
        )));
    }
    if at_s < last_s {
        return Err(WanifyError::InvalidConfig(format!(
            "streamed arrivals must be non-decreasing, got {at_s} after {last_s}"
        )));
    }
    Ok(())
}

/// Pulls and validates the next `(arrival_s, profile)` pair of an arrival
/// stream that still owes `total_jobs - issued` jobs and last yielded
/// time `last_s` — the validator behind the sharded driver's per-window
/// feed.
///
/// # Errors
///
/// Returns [`WanifyError::InvalidConfig`] for a stream that runs dry, and
/// for a time that is not finite, negative, or before `last_s`.
pub(crate) fn next_arrival(
    stream: &mut impl Iterator<Item = (f64, JobProfile)>,
    last_s: f64,
    issued: usize,
    total_jobs: usize,
) -> Result<(f64, JobProfile), WanifyError> {
    let Some((at_s, job)) = stream.next() else {
        return Err(WanifyError::InvalidConfig(format!(
            "arrival stream ran dry after {issued} of {total_jobs} jobs"
        )));
    };
    check_arrival_time(at_s, last_s)?;
    Ok((at_s, job))
}

impl Arrivals {
    /// The absolute arrival time of each of `jobs` jobs under an
    /// open-loop process — sampled (Poisson) or validated (Scheduled)
    /// here, once, so a sharded fleet thins the very schedule a single
    /// engine would serve. Empty for a (validated) closed loop, whose
    /// arrivals are paced by completions instead.
    ///
    /// # Errors
    ///
    /// Returns [`WanifyError::InvalidConfig`] for a non-positive Poisson
    /// rate, a schedule that does not hold one valid time per job, or a
    /// zero-client closed loop.
    pub fn open_loop_times(&self, jobs: usize) -> Result<Vec<f64>, WanifyError> {
        match self {
            Arrivals::Poisson { rate_per_s, seed } => {
                Ok(poisson_times_iter(*rate_per_s, *seed)?.take(jobs).collect())
            }
            Arrivals::Scheduled { times } => {
                if times.len() != jobs {
                    return Err(WanifyError::InvalidConfig(format!(
                        "arrival schedule covers {} jobs but the trace has {jobs}",
                        times.len()
                    )));
                }
                times.iter().try_for_each(|&t| check_arrival_time(t, 0.0))?;
                Ok(times.clone())
            }
            Arrivals::Closed { clients: 0, .. } => Err(WanifyError::InvalidConfig(
                "closed-loop arrivals need at least one client".into(),
            )),
            Arrivals::Closed { .. } => Ok(Vec::new()),
        }
    }
}

/// Who still owes a [`FleetRun`] arrivals. Every arrival takes one path
/// ([`FleetRun::arrive`]); the variants differ only in who calls it and
/// when.
enum Source {
    /// Nobody inside the run: a materialized open-loop trace was armed in
    /// full at start, and a serving front-end or the sharded driver
    /// pushes from outside ([`FleetRun::push_job`]).
    Push,
    /// A closed-loop client pool: the unissued `(job_idx, profile)` pairs,
    /// released one per completion `think_s` after it.
    Closed { waiting: std::vec::IntoIter<(usize, JobProfile)>, clients: usize, think_s: f64 },
}

/// A fleet mid-flight: the resumable core behind [`FleetEngine::run`].
///
/// A constructor seeds the arrival source; [`FleetRun::run_until`] then
/// advances the event loop — timer firing, admission, engine completion
/// events — up to an absolute simulated deadline, and can be called
/// again to continue. This windowed drive is the seam both the sharded
/// fleet (which pauses every shard at backbone sync points) and the
/// serving gateway (which pauses at submission windows) plug into. A
/// single `run_until(f64::INFINITY)` reproduces the uninterrupted
/// [`FleetEngine::run`] timeline bit for bit.
///
/// There is **one arrival path with three callers**: whoever produces an
/// arrival, it is one `(job_idx, arrival_s, profile)` moved into the
/// `incoming` FIFO behind one arrival timer. A materialized trace
/// ([`FleetRun::start`], open loop) arms every job at start; a
/// closed-loop client pool ([`FleetRun::start`], closed loop) releases a
/// job per completion; and an external producer
/// ([`FleetRun::submit_job`], the sharded driver's window feed of a
/// streamed trace) pushes whenever it likes.
///
/// The run keeps every outcome until its driver takes them: whoever
/// drops outcomes decides how many to keep, and totals are computed
/// once, where a report is built ([`FleetRun::into_report`]).
pub struct FleetRun {
    pub(crate) fleet: FleetEngine,
    timers: BinaryHeap<Timer>,
    seq: u64,
    pending: VecDeque<(usize, f64, JobProfile)>,
    slots: Vec<Option<ActiveRun>>,
    counters: FaultCounters,
    running: usize,
    /// Outcomes in completion order, not yet taken by the driver.
    outcomes: Vec<JobOutcome>,
    first_arrival_s: f64,
    /// Who produces the arrivals not armed yet.
    source: Source,
    /// Jobs this run will see in total (fixed by the trace length; grows
    /// per external push).
    total_jobs: usize,
    /// Jobs whose arrival timers have been armed so far.
    issued: usize,
    /// Jobs completed — `>= outcomes.len()` once the driver takes
    /// outcomes.
    completed: usize,
    /// `(job_idx, arrival_s, profile)` of every armed arrival whose timer
    /// has not fired yet, ordered like the timers — by time, ties in
    /// arming order — so the front is always the next arrival to fire.
    incoming: VecDeque<(usize, f64, JobProfile)>,
    /// High-water mark of per-job state held at once (see
    /// [`FleetRun::peak_tracked`]).
    peak_tracked: usize,
}

impl std::fmt::Debug for FleetRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetRun")
            .field("fleet", &self.fleet)
            .field("total_jobs", &self.total_jobs)
            .field("completed", &self.completed)
            .field("running", &self.running)
            .finish()
    }
}

impl FleetRun {
    /// The shared skeleton behind every constructor: a run expecting
    /// `total_jobs` jobs from `source`, nothing armed yet.
    fn fresh(fleet: FleetEngine, total_jobs: usize, source: Source) -> Self {
        Self {
            timers: BinaryHeap::new(),
            seq: 0,
            pending: VecDeque::new(),
            slots: Vec::new(),
            counters: FaultCounters::default(),
            running: 0,
            outcomes: Vec::with_capacity(total_jobs),
            first_arrival_s: f64::INFINITY,
            source,
            total_jobs,
            issued: 0,
            completed: 0,
            incoming: VecDeque::new(),
            peak_tracked: 0,
            fleet,
        }
    }

    /// Seeds the run: validates `arrivals` and arms `jobs` under it, job
    /// `i` of the trace being job index `i`.
    ///
    /// # Errors
    ///
    /// Returns [`WanifyError::InvalidConfig`] for a non-positive Poisson
    /// rate, an invalid explicit schedule or a zero-client closed loop.
    pub fn start(
        fleet: FleetEngine,
        jobs: Vec<JobProfile>,
        arrivals: &Arrivals,
    ) -> Result<Self, WanifyError> {
        Self::start_indexed(fleet, jobs.into_iter().enumerate().collect(), arrivals)
    }

    /// [`FleetRun::start`] over jobs that carry their own indices: the
    /// sharded fleet hands each shard its slice of the trace as
    /// `(global_idx, profile)` pairs, so every [`JobOutcome::job_idx`] is
    /// the trace index at any shard count. An open-loop trace is armed
    /// in full, in stable `(time, position)` order — the order the timer
    /// heap pops same-instant arrivals in; a closed loop arms its first
    /// `clients` jobs at t = 0 and keeps the rest for
    /// [`Source::Closed`].
    pub(crate) fn start_indexed(
        fleet: FleetEngine,
        jobs: Vec<(usize, JobProfile)>,
        arrivals: &Arrivals,
    ) -> Result<Self, WanifyError> {
        let times = arrivals.open_loop_times(jobs.len())?;
        let mut run = Self::fresh(fleet, jobs.len(), Source::Push);
        if let Arrivals::Closed { clients, think_s } = arrivals {
            let mut waiting = jobs.into_iter();
            for (idx, job) in waiting.by_ref().take(*clients) {
                run.arrive(idx, 0.0, job);
            }
            run.source = Source::Closed { waiting, clients: *clients, think_s: think_s.max(0.0) };
        } else {
            let mut trace: Vec<(f64, (usize, JobProfile))> = times.into_iter().zip(jobs).collect();
            trace.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (at_s, (idx, job)) in trace {
                run.arrive(idx, at_s, job);
            }
        }
        run.arm_agent();
        Ok(run)
    }

    /// Seeds an empty serving run: no trace, no arrival timers. A
    /// front-end (the gateway crate) feeds it incrementally through
    /// [`FleetRun::submit_job`] and steps it with [`FleetRun::serve_step`],
    /// owning queueing and admission policy itself — this run's internal
    /// pending queue only ever holds jobs the front-end has already
    /// decided to admit.
    pub fn start_serving(fleet: FleetEngine) -> Self {
        let mut run = Self::fresh(fleet, 0, Source::Push);
        run.arm_agent();
        run
    }

    /// The one arrival path: job `idx` will join the arrival queue at
    /// `at_s` (or at once, if that is already past). The profile is
    /// moved into `incoming` behind one arrival timer.
    fn arrive(&mut self, idx: usize, at_s: f64, job: JobProfile) {
        self.issued += 1;
        // Producers arm in non-decreasing time order, so this is a push
        // to the back; the search keeps the queue in timer order for any
        // mix of producers.
        let at = self.incoming.partition_point(|(_, t, _)| *t <= at_s);
        self.incoming.insert(at, (idx, at_s, job));
        self.push_timer(at_s, TimerKind::Arrival);
        self.note_tracked();
    }

    /// Pushes one job from outside the run, arriving at `at_s` under the
    /// caller's job index `idx` (which travels with the outcome): the
    /// sharded driver's window feed, and [`FleetRun::submit_job`].
    pub(crate) fn push_job(&mut self, idx: usize, at_s: f64, job: JobProfile) {
        self.total_jobs += 1;
        self.arrive(idx, at_s, job);
    }

    /// Submits one job arriving *now* and returns its job index — the
    /// key its [`JobOutcome`] can later be matched by, since outcomes
    /// land in completion order. The serving seam: a front-end calls
    /// this between [`FleetRun::serve_step`] windows.
    pub fn submit_job(&mut self, job: JobProfile) -> usize {
        let idx = self.issued;
        self.push_job(idx, self.time_s(), job);
        idx
    }

    /// Queries currently running (admitted, not yet completed).
    pub fn running(&self) -> usize {
        self.running
    }

    /// Submitted jobs not yet completed: running, queued inside the run,
    /// or holding an unfired arrival timer. A serving front-end admits
    /// while `in_service() < max_concurrent()` so nothing it submits
    /// waits invisibly inside the run.
    pub fn in_service(&self) -> usize {
        self.issued - self.completed
    }

    /// The admission limit of the underlying fleet.
    pub fn max_concurrent(&self) -> usize {
        self.fleet.config.max_concurrent
    }

    /// Outcomes so far, in completion order, less any the driver has
    /// taken (see [`FleetRun::completed`] for the true count).
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Queries completed so far, including any whose outcomes the driver
    /// has taken.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// High-water mark of per-job state this run has held at once:
    /// untaken outcomes + queued arrivals + armed arrivals + the
    /// profiles a closed-loop pool has yet to release. The memory proxy
    /// the scale benchmark tracks — O(trace) for a materialized trace
    /// (each profile is held once and moved along, never cloned),
    /// O(in-flight) for a pushed one whose driver takes the outcomes as
    /// they land.
    pub fn peak_tracked(&self) -> usize {
        self.peak_tracked
    }

    /// Records the high-water mark of per-job state held right now.
    fn note_tracked(&mut self) {
        let unreleased = match &self.source {
            Source::Closed { waiting, .. } => waiting.len(),
            Source::Push => 0,
        };
        let tracked = self.outcomes.len() + self.pending.len() + self.incoming.len() + unreleased;
        self.peak_tracked = self.peak_tracked.max(tracked);
    }

    /// The shared belief cache's current bandwidth matrix, if anything
    /// has been gauged yet (admission-control estimators read this).
    pub fn belief_bw(&self) -> Option<&BwMatrix> {
        self.fleet.belief.as_ref().map(|(bw, _)| &**bw)
    }

    /// Read access to the underlying simulator (topology, time, stats).
    pub fn sim(&self) -> &NetSim {
        self.fleet.engine.sim()
    }

    /// Schedules the installed agent's first wake, one interval in.
    fn arm_agent(&mut self) {
        if let Some(agent) = &self.fleet.agent {
            let at = self.fleet.engine.sim().time_s() + agent.interval_s;
            self.push_timer(at, TimerKind::AgentWake);
        }
    }

    /// Whether every job has completed.
    pub fn finished(&self) -> bool {
        self.completed == self.total_jobs
    }

    /// Current simulated time of this fleet's WAN.
    pub fn time_s(&self) -> f64 {
        self.fleet.engine.sim().time_s()
    }

    /// Advances the event loop until every job completes or simulated
    /// time reaches `deadline_s`, whichever comes first. In-flight
    /// transfers are served up to — including fractionally into — the
    /// deadline, exactly as a foreign tenant's timer would pause them.
    ///
    /// **Deadline/timer tie semantics** (pinned; incremental drivers like
    /// the sharded fleet's sync windows and the serving gateway rely on
    /// them): a timer due *exactly* at `deadline_s` fires before the call
    /// returns, and its same-instant consequences — queue admissions, the
    /// admitted job's first compute timer or shuffle submission — are
    /// fully processed. Anything such a timer schedules *strictly later*
    /// than the deadline stays pending for the next call. The deadline is
    /// therefore inclusive: `run_until(t)` leaves the run exactly as an
    /// unbounded run would look the instant after time `t`'s events fired.
    ///
    /// # Errors
    ///
    /// Returns [`WanifyError`] on gauge/layout failures and when the fleet
    /// can no longer make progress (no pending timers and only rate-zero
    /// flows in flight), independent of the deadline.
    pub fn run_until(&mut self, deadline_s: f64) -> Result<(), WanifyError> {
        self.drive(deadline_s, false).map(|_| ())
    }

    /// Advances one serving window: runs until simulated time reaches
    /// `deadline_s` or at least one job completes, whichever comes first,
    /// and returns how many jobs completed during the call. Unlike
    /// [`FleetRun::run_until`], a run whose every submitted job has
    /// already finished idles *forward* — the WAN clock (and any live
    /// dynamics or scheduled faults) advances to the window's edge — so a
    /// front-end can interleave [`FleetRun::submit_job`] calls with
    /// fixed-size windows and the quiet stretches between arrivals still
    /// cost simulated time. Returning on the first completion lets the
    /// front-end refill freed admission slots mid-window; the same
    /// deadline-tie semantics as `run_until` apply.
    ///
    /// # Errors
    ///
    /// Returns [`WanifyError::InvalidConfig`] if `deadline_s` is not
    /// finite (a serving window needs an edge to idle toward), and
    /// otherwise any [`WanifyError`] exactly as [`FleetRun::run_until`]
    /// does.
    pub fn serve_step(&mut self, deadline_s: f64) -> Result<usize, WanifyError> {
        if !deadline_s.is_finite() {
            return Err(WanifyError::InvalidConfig(format!(
                "serving windows need a finite deadline, got {deadline_s}"
            )));
        }
        let done = self.drive(deadline_s, true)?;
        if done > 0 {
            return Ok(done);
        }
        // Nothing completed and nothing is left to do: idle the WAN
        // forward to the window's edge (scheduled faults and dynamics
        // still apply along the way).
        while self.finished() && self.time_s() < deadline_s {
            let before = self.time_s();
            let events = self.fleet.engine.advance_until(deadline_s);
            debug_assert!(events.is_empty(), "an idle fleet has no flow groups to complete");
            if self.time_s() <= before {
                break;
            }
        }
        Ok(0)
    }

    /// The event-loop core behind [`FleetRun::run_until`] and
    /// [`FleetRun::serve_step`]: advances until every job completes, the
    /// deadline is reached, or — with `stop_on_completion` — at least one
    /// job has completed and its instant is fully processed. Returns the
    /// number of jobs completed during the call.
    fn drive(&mut self, deadline_s: f64, stop_on_completion: bool) -> Result<usize, WanifyError> {
        let completed_at_entry = self.completed;
        while self.completed < self.total_jobs {
            if stop_on_completion && self.completed > completed_at_entry {
                break;
            }
            let now = self.fleet.engine.sim().time_s();

            // Closed loop: every completion frees a client, who thinks for
            // `think_s` and submits the next job. Checked at the loop top
            // so completions from any path (timer or engine event) pace
            // the next submission.
            while let Source::Closed { waiting, clients, think_s } = &mut self.source {
                if self.issued >= *clients + self.completed {
                    break;
                }
                let Some((idx, job)) = waiting.next() else { break };
                let at_s = now + *think_s;
                self.arrive(idx, at_s, job);
            }

            // Fire every timer that is due (ties in insertion order).
            let mut fired = false;
            while self.timers.peek().is_some_and(|t| t.at_s <= now + 1e-9) {
                fired = true;
                let timer = self.timers.pop().expect("peeked");
                match timer.kind {
                    TimerKind::Arrival => {
                        self.first_arrival_s = self.first_arrival_s.min(now);
                        let (idx, _, job) =
                            self.incoming.pop_front().expect("every arrival timer has a profile");
                        self.pending.push_back((idx, now, job));
                    }
                    TimerKind::ComputeDone(slot) => {
                        let step = self.slots[slot]
                            .as_mut()
                            .expect("compute timer for a live run")
                            .run
                            .on_compute_done(
                                self.fleet.scheduler.as_ref(),
                                self.fleet.engine.sim().topology(),
                            );
                        self.dispatch(slot, step);
                    }
                    TimerKind::StallCheck(gid) => {
                        // Only intervene if the group is still in flight
                        // and still rate-zero: a fault that healed inside
                        // the grace period needs no recovery.
                        if let Some(slot) = self.owner_of(gid) {
                            self.slots[slot].as_mut().expect("owner is live").stall_watched = false;
                            if self.fleet.engine.is_group_stalled(gid) {
                                self.recover_stalled(gid, slot);
                            }
                        }
                    }
                    TimerKind::RetrySubmit(slot) => {
                        let active = self.slots[slot].as_mut().expect("retry timer for a live run");
                        let (transfers, conns) =
                            active.retry.take().expect("retry payload stashed at cancel");
                        active.group = Some(self.fleet.engine.submit(&transfers, &conns));
                    }
                    TimerKind::AgentWake => {
                        self.agent_wake();
                        // Recurring while work remains; the last wake dies
                        // with the last job so the run can terminate.
                        if self.completed < self.total_jobs {
                            if let Some(agent) = &self.fleet.agent {
                                self.push_timer(now + agent.interval_s, TimerKind::AgentWake);
                            }
                        }
                    }
                }
            }

            // Admit from the queue while the limit allows.
            while self.running < self.fleet.config.max_concurrent && !self.pending.is_empty() {
                let (idx, arrived_s, job) = self.pending.pop_front().expect("non-empty");
                let slot = self.admit(idx, job, arrived_s)?;
                let step = self.slots[slot]
                    .as_mut()
                    .expect("just admitted")
                    .run
                    .start(self.fleet.scheduler.as_ref(), self.fleet.engine.sim().topology());
                self.running += 1;
                self.dispatch(slot, step);
            }
            if fired {
                // Firing may have queued work that changes what "next
                // timer" means; re-evaluate before advancing time.
                continue;
            }
            if self.completed == self.total_jobs {
                break;
            }
            if now >= deadline_s {
                return Ok(self.completed - completed_at_entry);
            }

            let next_timer_s = self.timers.peek().map_or(f64::INFINITY, |t| t.at_s);
            if self.fleet.engine.is_idle() && next_timer_s.is_infinite() {
                return Err(self.stall_error("fleet stalled"));
            }
            // Under a fault policy the engine must not barrel through an
            // outage unobserved (with no timer pending, an unbounded
            // advance would jump the fault boundaries internally and only
            // return at the next completion). Cap each advance at one
            // stall timeout so stalled groups are noticed — in simulated
            // time, so the cadence is deterministic.
            let mut engine_deadline_s = next_timer_s.min(deadline_s);
            if let Some(policy) = &self.fleet.config.faults {
                if !self.fleet.engine.is_idle() {
                    engine_deadline_s = engine_deadline_s.min(now + policy.stall_timeout_s);
                }
            }
            let events = self.fleet.engine.advance_until(engine_deadline_s);
            // With a fault policy, put newly rate-zero groups under watch
            // (each gets one StallCheck timer at now + stall_timeout_s).
            if self.fleet.config.faults.is_some() {
                self.watch_stalls();
            }
            if events.is_empty()
                && self.timers.is_empty()
                && !self.fleet.engine.is_idle()
                && !self.fleet.engine.has_live_flows()
                && !self.fleet.engine.sim().has_pending_faults()
            {
                // No timer to wake us (watch_stalls would have armed one
                // under a fault policy), no scheduled fault that could
                // restore rates, groups in flight, and every remaining
                // flow is rate-zero (e.g. a 0-Mbps throttle on a shuffled
                // pair): no amount of stepping will ever drain them.
                // Surface the stall instead of spinning forever. (An
                // empty result with *live* flows just means the engine's
                // per-call epoch budget ran out on a slow transfer; the
                // next iteration keeps advancing it.)
                return Err(
                    self.stall_error("fleet stalled: in-flight transfers cannot make progress")
                );
            }
            for event in events {
                let slot = self.owner_of(event.group).expect("every group has an owner");
                let active = self.slots[slot].as_mut().expect("owner is live");
                // A watched group that drained before its StallCheck fired
                // is done with the watchdog: the stale timer finds no
                // owner and fires as a no-op.
                active.group = None;
                active.stall_watched = false;
                let step = active.run.on_shuffle_done(&event, self.fleet.engine.sim().topology());
                self.dispatch(slot, step);
            }
        }
        Ok(self.completed - completed_at_entry)
    }

    /// Finalizes the run into its exact report: the outcomes still held
    /// are absorbed into the totals here, in completion order (a driver
    /// that took outcomes along the way builds its own totals from them).
    pub fn into_report(self) -> FleetReport {
        let duration_s = if self.first_arrival_s.is_finite() {
            self.fleet.engine.sim().time_s() - self.first_arrival_s
        } else {
            0.0
        };
        let mut counters = self.counters;
        counters.degraded_s = self.fleet.engine.sim().degraded_s();
        let mut totals = StreamingTotals::default();
        self.outcomes.iter().for_each(|o| totals.absorb(o));
        FleetReport::new(
            self.outcomes,
            totals,
            duration_s,
            self.fleet.gauges,
            self.fleet.scheduler.name().to_string(),
            self.fleet.source.name().to_string(),
            counters,
        )
    }

    /// Hands the outcomes held so far to the caller, leaving the run's
    /// vector empty (the sharded driver drains every shard at each sync
    /// point, so each outcome is stored once and per-shard memory stays
    /// bounded by one window).
    pub(crate) fn take_outcomes(&mut self) -> Vec<JobOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// The slot whose job has flow group `gid` in flight. A scan: there
    /// are at most `max_concurrent` slots.
    fn owner_of(&self, gid: GroupId) -> Option<usize> {
        self.slots.iter().position(|s| s.as_ref().is_some_and(|a| a.group == Some(gid)))
    }

    fn push_timer(&mut self, at_s: f64, kind: TimerKind) {
        self.timers.push(Timer { at_s, seq: self.seq, kind });
        self.seq += 1;
    }

    fn stall_error(&self, what: &str) -> WanifyError {
        WanifyError::InvalidConfig(format!(
            "{what} ({} of {} jobs unfinished)",
            self.total_jobs - self.completed,
            self.total_jobs
        ))
    }

    /// Admits one job: refreshes the shared belief if stale and builds its
    /// state machine in a free slot. The job holds the cached belief
    /// itself, an `Arc` of it, not a copy: a belief costs one matrix per
    /// gauge, not one per job in flight.
    fn admit(
        &mut self,
        job_idx: usize,
        job: JobProfile,
        arrived_s: f64,
    ) -> Result<usize, WanifyError> {
        let fleet = &mut self.fleet;
        let now = fleet.engine.sim().time_s();
        let stale = match &fleet.belief {
            None => true,
            Some((_, gauged_at)) => now - gauged_at >= fleet.config.regauge_every_s,
        };
        if stale {
            // Gauging probes the live network and costs simulated time —
            // the monitoring cost the shared cache amortizes over tenants.
            let bw = fleet.source.gauge(fleet.engine.sim_mut())?;
            let gauged_at = fleet.engine.sim().time_s();
            fleet.belief = Some((Arc::new(bw), gauged_at));
            fleet.gauges += 1;
        }
        let (bw, _) = fleet.belief.as_ref().expect("belief gauged above");
        // An installed agent's live connection matrix supersedes the
        // static per-fleet one: new admissions start on the counts the
        // agent has steered to so far.
        let conns = match &fleet.agent {
            Some(agent) => Some(agent.conns.clone()),
            None => fleet.config.conns.clone(),
        };
        let run = JobRun::new(
            job,
            Arc::clone(bw),
            Arc::clone(&fleet.belief_name),
            Arc::clone(&fleet.scheduler_name),
            fleet.engine.sim().topology(),
            conns,
        )?;
        let admitted_s = fleet.engine.sim().time_s();
        let active = ActiveRun {
            run,
            job_idx,
            arrived_s,
            admitted_s,
            attempts: 0,
            retry: None,
            group: None,
            stall_watched: false,
        };
        let slot = self.slots.iter().position(Option::is_none).unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.slots[slot] = Some(active);
        Ok(slot)
    }

    /// Executes one [`JobStep`]: schedules a timer, submits a flow group,
    /// or finalizes the run.
    fn dispatch(&mut self, slot: usize, step: JobStep) {
        let now = self.fleet.engine.sim().time_s();
        match step {
            JobStep::Compute { seconds } => {
                self.push_timer(now + seconds, TimerKind::ComputeDone(slot));
            }
            JobStep::Shuffle { transfers, conns, migration: _ } => {
                let id = self.fleet.engine.submit(&transfers, &conns);
                self.slots[slot].as_mut().expect("shuffle of a live run").group = Some(id);
            }
            JobStep::Done(report) => self.finalize(slot, *report, false),
            JobStep::Failed(report) => self.finalize(slot, *report, true),
        }
    }

    /// Frees `slot` and accounts its job's completion at the current
    /// time, `failed` when the fault policy aborted it.
    fn finalize(&mut self, slot: usize, report: QueryReport, failed: bool) {
        let active = self.slots[slot].take().expect("finalizing a live run");
        self.running -= 1;
        self.completed += 1;
        self.outcomes.push(JobOutcome {
            job_idx: active.job_idx,
            report,
            arrived_s: active.arrived_s,
            admitted_s: active.admitted_s,
            completed_s: self.fleet.engine.sim().time_s(),
            failed,
        });
        self.note_tracked();
    }

    /// One fleet-level agent wake: observe the engine's aggregate state,
    /// let the hook act, and write its interventions back — connection
    /// counts to every in-flight group, throttles to the simulator.
    fn agent_wake(&mut self) {
        let fleet = &mut self.fleet;
        let Some(agent) = fleet.agent.as_mut() else { return };
        let observed = fleet.engine.observed_pair_bw_mbps();
        let remaining = fleet.engine.remaining_pair_gb();
        let mut throttles = fleet.engine.sim().throttles().clone();
        let mut ctx = EpochCtx {
            time_s: fleet.engine.sim().time_s(),
            observed_bw: &observed,
            remaining_gb: &remaining,
            conns: &mut agent.conns,
            throttles: &mut throttles,
        };
        agent.hook.on_epoch(&mut ctx);
        fleet.engine.sim_mut().set_throttles(&throttles);
        fleet.engine.apply_conns(&agent.conns);
    }

    /// Puts every newly stalled, owned group under a stall-timeout watch.
    fn watch_stalls(&mut self) {
        let timeout_s = match &self.fleet.config.faults {
            Some(policy) => policy.stall_timeout_s,
            None => return,
        };
        let now = self.fleet.engine.sim().time_s();
        for gid in self.fleet.engine.stalled_groups() {
            let Some(slot) = self.owner_of(gid) else { continue };
            let active = self.slots[slot].as_mut().expect("owner is live");
            if !active.stall_watched {
                active.stall_watched = true;
                self.push_timer(now + timeout_s, TimerKind::StallCheck(gid));
            }
        }
    }

    /// Fault-policy intervention on a group that outlived its stall grace
    /// period: cancel it, and either abort the job (retries exhausted) or
    /// re-place the dead-destination remainder and schedule a backed-off
    /// resubmit.
    fn recover_stalled(&mut self, gid: GroupId, slot: usize) {
        let policy = self.fleet.config.faults.expect("stall timers only exist under a policy");
        let (partial, remaining) =
            self.fleet.engine.cancel_group(gid).expect("a stalled group is in flight");
        self.counters.stalled_flows += remaining.len() as u64;
        let attempts = {
            let active = self.slots[slot].as_mut().expect("stalled group has a live owner");
            active.group = None;
            active.attempts += 1;
            active.attempts
        };
        if attempts > policy.max_retries {
            self.counters.failed_jobs += 1;
            let step = self.slots[slot]
                .as_mut()
                .expect("stalled group has a live owner")
                .run
                .abort(&partial, self.fleet.engine.sim().topology());
            self.dispatch(slot, step);
            return;
        }
        self.counters.retries += 1;
        let up = self.fleet.engine.sim().dcs_up();
        let (step, redirected) = self.slots[slot]
            .as_mut()
            .expect("stalled group has a live owner")
            .run
            .on_shuffle_stalled(
                &partial,
                &remaining,
                &up,
                self.fleet.scheduler.as_ref(),
                self.fleet.engine.sim().topology(),
            );
        self.counters.replacements += redirected;
        match step {
            JobStep::Shuffle { transfers, conns, migration: _ } => {
                // Exponential backoff: 1st retry waits base, then 2×, 4×…
                let backoff_s = policy.backoff_base_s * 2f64.powi(attempts as i32 - 1);
                let now = self.fleet.engine.sim().time_s();
                self.slots[slot].as_mut().expect("stalled group has a live owner").retry =
                    Some((transfers, conns));
                self.push_timer(now + backoff_s, TimerKind::RetrySubmit(slot));
            }
            // Every surviving byte re-placed onto its own source: the
            // shuffle resolved locally and the job continues at once.
            other => self.dispatch(slot, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::StageProfile;
    use crate::scheduler::{Tetrium, VanillaSpark};
    use crate::storage::DataLayout;
    use wanify::Pregauged;
    use wanify_netsim::{paper_testbed_n, LinkModelParams, VmType};

    fn sim(n: usize, seed: u64) -> NetSim {
        NetSim::new(paper_testbed_n(VmType::t2_medium(), n), LinkModelParams::frozen(), seed)
    }

    fn small_job(n: usize, gb: f64, name: &str) -> JobProfile {
        JobProfile::new(
            name,
            DataLayout::uniform(n, gb),
            vec![
                StageProfile::shuffling("map", 1.0, 1.0),
                StageProfile::terminal("reduce", 0.05, 0.5),
            ],
        )
    }

    fn fleet(n: usize, seed: u64, config: FleetConfig) -> FleetEngine {
        FleetEngine::new(
            sim(n, seed),
            Box::new(Tetrium::new()),
            Box::new(wanify::StaticIndependent::new()),
            config,
        )
    }

    #[test]
    fn poisson_fleet_completes_every_job() {
        let jobs: Vec<JobProfile> =
            (0..8).map(|i| small_job(3, 1.0 + 0.5 * i as f64, &format!("j{i}"))).collect();
        let report = fleet(3, 1, FleetConfig::default())
            .run(&jobs, &Arrivals::Poisson { rate_per_s: 0.05, seed: 9 })
            .unwrap();
        assert_eq!(report.outcomes.len(), 8);
        assert!(report.duration_s > 0.0);
        assert!(report.throughput_jobs_per_s() > 0.0);
        for o in &report.outcomes {
            assert!(o.report.latency_s > 0.0);
            assert!(o.completed_s >= o.admitted_s);
            assert!(o.admitted_s >= o.arrived_s);
        }
    }

    #[test]
    fn closed_loop_respects_client_count() {
        let jobs: Vec<JobProfile> = (0..6).map(|i| small_job(3, 2.0, &format!("c{i}"))).collect();
        let report = fleet(3, 2, FleetConfig::default())
            .run(&jobs, &Arrivals::Closed { clients: 2, think_s: 1.0 })
            .unwrap();
        assert_eq!(report.outcomes.len(), 6);
        // With 2 clients, at most 2 jobs overlap; arrival times beyond the
        // first two must be strictly after some completion.
        let later_arrivals = report.outcomes.iter().filter(|o| o.arrived_s > 0.0).count();
        assert_eq!(later_arrivals, 4);
    }

    #[test]
    fn admission_limit_queues_excess_jobs() {
        let jobs: Vec<JobProfile> = (0..4).map(|i| small_job(3, 4.0, &format!("q{i}"))).collect();
        let config = FleetConfig { max_concurrent: 1, ..FleetConfig::default() };
        let report =
            fleet(3, 3, config).run(&jobs, &Arrivals::Closed { clients: 4, think_s: 0.0 }).unwrap();
        assert_eq!(report.outcomes.len(), 4);
        assert!(report.queue_wait().max > 0.0, "with one admission slot, someone must have waited");
    }

    #[test]
    fn jobs_admitted_between_gauges_share_one_belief_allocation() {
        let config =
            FleetConfig { max_concurrent: 5, regauge_every_s: 30.0, ..FleetConfig::default() };
        let mut run = FleetRun::start_serving(fleet(3, 5, config));
        let beliefs = |run: &FleetRun| -> Vec<Arc<BwMatrix>> {
            run.slots.iter().flatten().map(|active| Arc::clone(active.run.belief())).collect()
        };
        for i in 0..3 {
            run.submit_job(small_job(3, 60.0, &format!("early{i}")));
        }
        run.serve_step(run.time_s() + 1.0).unwrap();
        let first = Arc::clone(&run.fleet.belief.as_ref().expect("gauged at admission").0);
        let early = beliefs(&run);
        assert_eq!(early.len(), 3, "all three admitted at one gauge");
        assert!(early.iter().all(|bw| Arc::ptr_eq(bw, &first)));
        // One matrix: the cache, `first`, the three jobs and `early`'s
        // three clones all hold the same allocation.
        assert_eq!(Arc::strong_count(&first), 2 + 3 + 3);

        // Past the regauge interval the next admission gauges afresh, and
        // the jobs admitted after it share the new allocation.
        while run.time_s() < 40.0 {
            run.serve_step(40.0).unwrap();
        }
        assert!(run.running() > 0, "the early jobs are still in flight");
        let late: Vec<usize> =
            (0..2).map(|i| run.submit_job(small_job(3, 60.0, &format!("late{i}")))).collect();
        run.serve_step(run.time_s() + 0.5).unwrap();
        let second = Arc::clone(&run.fleet.belief.as_ref().expect("regauged").0);
        assert!(!Arc::ptr_eq(&first, &second), "a regauge starts a new allocation");
        let admitted: Vec<&ActiveRun> = run.slots.iter().flatten().collect();
        for active in &admitted {
            let want = if late.contains(&active.job_idx) { &second } else { &first };
            assert!(Arc::ptr_eq(active.run.belief(), want), "job {}", active.job_idx);
        }
        assert_eq!(admitted.iter().filter(|a| late.contains(&a.job_idx)).count(), 2);
    }

    #[test]
    fn shared_belief_cache_amortizes_gauges() {
        let jobs: Vec<JobProfile> = (0..6).map(|i| small_job(3, 1.0, &format!("g{i}"))).collect();
        let fresh = FleetEngine::new(
            sim(3, 4),
            Box::new(Tetrium::new()),
            Box::new(wanify::MeasuredRuntime::default()),
            FleetConfig { regauge_every_s: 0.0, ..FleetConfig::default() },
        )
        .run(&jobs, &Arrivals::Closed { clients: 1, think_s: 0.0 })
        .unwrap();
        let cached = FleetEngine::new(
            sim(3, 4),
            Box::new(Tetrium::new()),
            Box::new(wanify::MeasuredRuntime::default()),
            FleetConfig { regauge_every_s: f64::INFINITY, ..FleetConfig::default() },
        )
        .run(&jobs, &Arrivals::Closed { clients: 1, think_s: 0.0 })
        .unwrap();
        assert_eq!(fresh.gauges, 6, "regauge_every_s = 0 gauges per admission");
        assert_eq!(cached.gauges, 1, "an infinite staleness bound gauges once");
        assert!(cached.duration_s < fresh.duration_s, "monitoring costs simulated time");
    }

    #[test]
    fn fleet_run_is_deterministic() {
        let jobs: Vec<JobProfile> =
            (0..5).map(|i| small_job(4, 1.0 + i as f64, &format!("d{i}"))).collect();
        let run = || {
            fleet(4, 7, FleetConfig::default())
                .run(&jobs, &Arrivals::Poisson { rate_per_s: 0.02, seed: 11 })
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.report.latency_s.to_bits(), y.report.latency_s.to_bits());
            assert_eq!(x.completed_s.to_bits(), y.completed_s.to_bits());
        }
        assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
    }

    #[test]
    fn layout_mismatch_surfaces_as_error() {
        let jobs = vec![small_job(3, 1.0, "bad")];
        let err = fleet(4, 5, FleetConfig::default())
            .run(&jobs, &Arrivals::Closed { clients: 1, think_s: 0.0 })
            .unwrap_err();
        assert!(matches!(err, WanifyError::DimensionMismatch { expected: 4, got: 3 }));
    }

    #[test]
    fn wrong_sized_conns_matrix_is_an_error_not_a_panic() {
        let jobs = vec![small_job(4, 1.0, "c")];
        let err = FleetEngine::new(
            sim(4, 5),
            Box::new(Tetrium::new()),
            Box::new(wanify::StaticIndependent::new()),
            FleetConfig { conns: Some(ConnMatrix::filled(3, 2)), ..FleetConfig::default() },
        )
        .run(&jobs, &Arrivals::Closed { clients: 1, think_s: 0.0 })
        .unwrap_err();
        assert!(matches!(err, WanifyError::DimensionMismatch { expected: 4, got: 3 }));
    }

    #[test]
    fn zero_rate_transfers_stall_with_an_error_not_a_hang() {
        use wanify_netsim::DcId;
        let mut s = sim(3, 8);
        // A 0-Mbps throttle on a pair every uniform shuffle must cross:
        // the transfer can never drain.
        s.set_throttle(DcId(0), DcId(1), 0.0);
        let err = FleetEngine::new(
            s,
            Box::new(VanillaSpark::new()),
            Box::new(Pregauged::new(BwMatrix::filled(3, 300.0))),
            FleetConfig::default(),
        )
        .run(&[small_job(3, 2.0, "stuck")], &Arrivals::Closed { clients: 1, think_s: 0.0 })
        .unwrap_err();
        assert!(matches!(err, WanifyError::InvalidConfig(_)), "got {err:?}");
    }

    #[test]
    fn dc_outage_recovers_via_retry_and_replacement() {
        use wanify_netsim::{DcId, FaultSchedule};
        // DC1 is dark from t = 0 to t = 20: the uniform shuffle's alive
        // pairs drain, the rest stall, the policy cancels + re-places,
        // and the healed WAN drains the resubmitted remainder.
        let mut s = sim(3, 11);
        s.set_fault_schedule(FaultSchedule::new().dc_outage(DcId(1), 0.0, 20.0));
        let config = FleetConfig {
            faults: Some(FaultPolicy { stall_timeout_s: 5.0, max_retries: 5, backoff_base_s: 5.0 }),
            ..FleetConfig::default()
        };
        let report = FleetEngine::new(
            s,
            Box::new(VanillaSpark::new()),
            Box::new(Pregauged::new(BwMatrix::filled(3, 300.0))),
            config,
        )
        .run(&[small_job(3, 0.6, "flaky")], &Arrivals::Closed { clients: 1, think_s: 0.0 })
        .unwrap();
        assert_eq!(report.outcomes.len(), 1);
        assert!(!report.outcomes[0].failed, "the job must recover, not fail");
        assert_eq!(report.failed_jobs(), 0);
        assert!(report.faults.retries >= 1, "stall must trigger a retry: {:?}", report.faults);
        assert!(report.faults.stalled_flows >= 1, "{:?}", report.faults);
        assert!(
            report.faults.replacements >= 1,
            "dead-destination transfers must re-place: {:?}",
            report.faults
        );
        assert!(report.faults.degraded_s > 0.0, "{:?}", report.faults);
        assert_eq!(report.faults.failed_jobs, 0);
    }

    #[test]
    fn permanent_outage_fails_the_job_with_partial_accounting() {
        use wanify_netsim::{DcId, FaultKind, FaultSchedule};
        // DC1 never comes back: transfers sourced there are unreachable
        // forever, so the job must be aborted after max_retries — not
        // wedge the fleet, not error the run.
        let mut s = sim(3, 12);
        s.set_fault_schedule(FaultSchedule::new().at(0.0, FaultKind::DcDown(DcId(1))));
        let config = FleetConfig {
            faults: Some(FaultPolicy { stall_timeout_s: 2.0, max_retries: 2, backoff_base_s: 2.0 }),
            ..FleetConfig::default()
        };
        let report = FleetEngine::new(
            s,
            Box::new(VanillaSpark::new()),
            Box::new(Pregauged::new(BwMatrix::filled(3, 300.0))),
            config,
        )
        .run(&[small_job(3, 0.6, "doomed")], &Arrivals::Closed { clients: 1, think_s: 0.0 })
        .unwrap();
        assert_eq!(report.outcomes.len(), 1);
        assert!(report.outcomes[0].failed);
        assert_eq!(report.failed_jobs(), 1);
        assert_eq!(report.faults.failed_jobs, 1);
        assert_eq!(report.faults.retries, 2, "both allowed retries were spent");
        let r = &report.outcomes[0].report;
        assert!(r.latency_s > 0.0, "partial accounting still carries elapsed time");
        assert!(r.egress_gb.iter().sum::<f64>() > 0.0, "the alive pairs did move data");
    }

    #[test]
    fn faulted_fleet_is_deterministic() {
        use wanify_netsim::{DcId, FaultSchedule};
        let jobs: Vec<JobProfile> =
            (0..4).map(|i| small_job(3, 0.5 + 0.25 * i as f64, &format!("f{i}"))).collect();
        let run = || {
            let mut s = sim(3, 13);
            s.set_fault_schedule(FaultSchedule::new().dc_outage(DcId(2), 3.0, 18.0).link_flap(
                DcId(0),
                DcId(1),
                0.3,
                1.0,
                4.0,
                3,
            ));
            FleetEngine::new(
                s,
                Box::new(VanillaSpark::new()),
                Box::new(Pregauged::new(BwMatrix::filled(3, 300.0))),
                FleetConfig { faults: Some(FaultPolicy::default()), ..FleetConfig::default() },
            )
            .run(&jobs, &Arrivals::Scheduled { times: vec![0.0, 1.0, 1.0, 6.0] })
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.report.latency_s.to_bits(), y.report.latency_s.to_bits());
            assert_eq!(x.completed_s.to_bits(), y.completed_s.to_bits());
            assert_eq!(x.failed, y.failed);
        }
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.faults.degraded_s.to_bits(), b.faults.degraded_s.to_bits());
    }

    #[test]
    fn scheduled_arrivals_fire_at_their_times() {
        let jobs: Vec<JobProfile> = (0..3).map(|i| small_job(3, 1.0, &format!("t{i}"))).collect();
        // Pregauged belief: admission costs no simulated time, so the
        // arrival timestamps land exactly on the schedule.
        let report = FleetEngine::new(
            sim(3, 14),
            Box::new(Tetrium::new()),
            Box::new(Pregauged::new(BwMatrix::filled(3, 300.0))),
            FleetConfig::default(),
        )
        .run(&jobs, &Arrivals::Scheduled { times: vec![0.0, 5.0, 5.0] })
        .unwrap();
        assert_eq!(report.outcomes.len(), 3);
        let mut arrived: Vec<f64> = report.outcomes.iter().map(|o| o.arrived_s).collect();
        arrived.sort_by(f64::total_cmp);
        assert_eq!(arrived, vec![0.0, 5.0, 5.0]);

        // An unsorted schedule: each job still arrives at its own time,
        // and same-instant arrivals are admitted in trace order (one
        // admission slot, so `admitted_s` orders them).
        let times = vec![30.0, 0.0, 30.0, 10.0, 0.0];
        let jobs: Vec<JobProfile> = (0..5).map(|i| small_job(3, 1.0, &format!("u{i}"))).collect();
        let report = FleetEngine::new(
            sim(3, 14),
            Box::new(Tetrium::new()),
            Box::new(Pregauged::new(BwMatrix::filled(3, 300.0))),
            FleetConfig { max_concurrent: 1, ..FleetConfig::default() },
        )
        .run(&jobs, &Arrivals::Scheduled { times: times.clone() })
        .unwrap();
        assert_eq!(report.outcomes.len(), 5);
        let mut admitted = vec![0.0; 5];
        for o in &report.outcomes {
            assert_eq!(o.arrived_s, times[o.job_idx], "job {} arrives on schedule", o.job_idx);
            admitted[o.job_idx] = o.admitted_s;
        }
        assert!(admitted[1] < admitted[4], "t = 0 tie admits in trace order: {admitted:?}");
        assert!(admitted[0] < admitted[2], "t = 30 tie admits in trace order: {admitted:?}");
    }

    #[test]
    fn invalid_arrival_schedules_are_rejected() {
        let jobs: Vec<JobProfile> = (0..2).map(|i| small_job(3, 1.0, &format!("v{i}"))).collect();
        let err = fleet(3, 15, FleetConfig::default())
            .run(&jobs, &Arrivals::Scheduled { times: vec![0.0] })
            .unwrap_err();
        assert!(matches!(err, WanifyError::InvalidConfig(_)));
        let err = fleet(3, 15, FleetConfig::default())
            .run(&jobs, &Arrivals::Scheduled { times: vec![0.0, f64::NAN] })
            .unwrap_err();
        assert!(matches!(err, WanifyError::InvalidConfig(_)));
    }

    #[test]
    fn invalid_poisson_rate_is_rejected() {
        let jobs = vec![small_job(3, 1.0, "r")];
        let err = fleet(3, 5, FleetConfig::default())
            .run(&jobs, &Arrivals::Poisson { rate_per_s: 0.0, seed: 1 })
            .unwrap_err();
        assert!(matches!(err, WanifyError::InvalidConfig(_)));
    }

    #[test]
    fn vanilla_fleet_runs_with_pregauged_belief() {
        let n = 3;
        let jobs: Vec<JobProfile> = (0..3).map(|i| small_job(n, 2.0, &format!("p{i}"))).collect();
        let belief = Pregauged::new(BwMatrix::filled(n, 300.0));
        let report = FleetEngine::new(
            sim(n, 6),
            Box::new(VanillaSpark::new()),
            Box::new(belief),
            FleetConfig::default(),
        )
        .run(&jobs, &Arrivals::Closed { clients: 3, think_s: 0.0 })
        .unwrap();
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.belief, "pregauged");
        assert_eq!(report.gauges, 1);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let p = Percentiles::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(p.p50, 2.0);
        assert_eq!(p.p95, 4.0);
        assert_eq!(p.max, 4.0);
        assert!((p.mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_of_empty_input_are_all_zero() {
        let empty = Percentiles::of(&[]);
        assert_eq!(empty.p50, 0.0);
        assert_eq!(empty.p95, 0.0);
        assert_eq!(empty.p99, 0.0);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.max, 0.0);
    }

    #[test]
    fn percentiles_of_a_single_element_are_that_element() {
        let one = Percentiles::of(&[7.25]);
        assert_eq!(one.p50, 7.25);
        assert_eq!(one.p95, 7.25);
        assert_eq!(one.p99, 7.25);
        assert_eq!(one.mean, 7.25);
        assert_eq!(one.max, 7.25);
    }

    #[test]
    fn percentiles_of_tied_values_are_that_value() {
        let tied = Percentiles::of(&[3.5; 9]);
        assert_eq!(tied.p50, 3.5);
        assert_eq!(tied.p95, 3.5);
        assert_eq!(tied.p99, 3.5);
        assert_eq!(tied.mean, 3.5);
        assert_eq!(tied.max, 3.5);
        // Partial ties: the nearest-rank statistics stay on real sample
        // values, never interpolated between them.
        let partial = Percentiles::of(&[1.0, 2.0, 2.0, 2.0, 9.0]);
        assert_eq!(partial.p50, 2.0);
        assert_eq!(partial.p95, 9.0);
        assert_eq!(partial.max, 9.0);
    }

    #[test]
    fn fleet_report_caches_percentiles_at_construction() {
        let jobs: Vec<JobProfile> = (0..4).map(|i| small_job(3, 1.0, &format!("s{i}"))).collect();
        let report = fleet(3, 1, FleetConfig::default())
            .run(&jobs, &Arrivals::Closed { clients: 2, think_s: 0.0 })
            .unwrap();
        // Cached statistics agree with a fresh computation over the
        // outcome vectors…
        let waits: Vec<f64> = report.outcomes.iter().map(JobOutcome::queue_wait_s).collect();
        let makespans: Vec<f64> = report.outcomes.iter().map(JobOutcome::makespan_s).collect();
        assert_eq!(report.queue_wait(), Percentiles::of(&waits));
        assert_eq!(report.makespan(), Percentiles::of(&makespans));
        // …and repeated calls return the identical cached value.
        assert_eq!(report.makespan(), report.makespan());
    }

    #[test]
    fn timer_exactly_at_deadline_fires_before_run_until_returns() {
        // Pinned tie semantics: an arrival timer due exactly at the
        // deadline fires — and the job is admitted and dispatched — before
        // run_until returns, while strictly later timers stay pending.
        let jobs = vec![small_job(3, 2.0, "tie-a"), small_job(3, 2.0, "tie-b")];
        let engine = FleetEngine::new(
            sim(3, 21),
            Box::new(Tetrium::new()),
            Box::new(Pregauged::new(BwMatrix::filled(3, 300.0))),
            FleetConfig::default(),
        );
        let mut run =
            FleetRun::start(engine, jobs, &Arrivals::Scheduled { times: vec![5.0, 5.5] }).unwrap();
        run.run_until(5.0).unwrap();
        assert_eq!(run.time_s(), 5.0, "the run pauses exactly at the deadline");
        assert_eq!(run.running(), 1, "the t=5.0 arrival was admitted before returning");
        assert_eq!(run.outcomes().len(), 0, "nothing can have completed yet");
        // The t=5.5 arrival stayed pending; the next window picks it up.
        run.run_until(f64::INFINITY).unwrap();
        assert_eq!(run.outcomes().len(), 2);
        let mut arrived: Vec<f64> = run.outcomes().iter().map(|o| o.arrived_s).collect();
        arrived.sort_by(f64::total_cmp);
        assert_eq!(arrived, vec![5.0, 5.5]);
    }

    #[test]
    fn drained_group_is_swept_from_the_stall_watch() {
        use wanify_netsim::{DcId, FaultSchedule};
        // A 2 s outage puts the shuffle under watch (timeout 30 s), heals
        // long before the StallCheck fires, and the group drains: its
        // owner must leave the watch at completion, and the healed stall
        // must not be counted.
        let mut s = sim(3, 22);
        s.set_fault_schedule(FaultSchedule::new().dc_outage(DcId(1), 0.0, 2.0));
        let config = FleetConfig {
            faults: Some(FaultPolicy {
                stall_timeout_s: 30.0,
                max_retries: 3,
                backoff_base_s: 5.0,
            }),
            ..FleetConfig::default()
        };
        let engine = FleetEngine::new(
            s,
            Box::new(VanillaSpark::new()),
            Box::new(Pregauged::new(BwMatrix::filled(3, 300.0))),
            config,
        );
        let mut run = FleetRun::start(
            engine,
            vec![small_job(3, 0.6, "healed")],
            &Arrivals::Closed { clients: 1, think_s: 0.0 },
        )
        .unwrap();
        run.run_until(f64::INFINITY).unwrap();
        assert_eq!(run.outcomes().len(), 1);
        assert!(!run.outcomes()[0].failed);
        assert!(
            run.slots.iter().flatten().all(|a| a.group.is_none() && !a.stall_watched),
            "completed groups must leave the watch"
        );
        assert_eq!(run.counters.stalled_flows, 0, "a stall that healed in grace counts nothing");
        assert_eq!(run.counters.retries, 0);
        // The stale StallCheck timer fires later as a no-op: re-running a
        // query over the same fleet never double-counts stalled_flows.
        let report = run.into_report();
        assert_eq!(report.faults.stalled_flows, 0);
    }

    #[test]
    fn zero_retry_policy_fails_straight_from_first_stall() {
        use wanify_netsim::{DcId, FaultKind, FaultSchedule};
        // max_retries = 0: the first stall intervention must abort the job
        // outright — failed accounting consistent, no retry, and no
        // RetrySubmit backoff timer (the run terminates at the abort).
        let mut s = sim(3, 23);
        s.set_fault_schedule(FaultSchedule::new().at(0.0, FaultKind::DcDown(DcId(1))));
        let config = FleetConfig {
            faults: Some(FaultPolicy { stall_timeout_s: 2.0, max_retries: 0, backoff_base_s: 2.0 }),
            ..FleetConfig::default()
        };
        let report = FleetEngine::new(
            s,
            Box::new(VanillaSpark::new()),
            Box::new(Pregauged::new(BwMatrix::filled(3, 300.0))),
            config,
        )
        .run(&[small_job(3, 0.6, "one-shot")], &Arrivals::Closed { clients: 1, think_s: 0.0 })
        .unwrap();
        assert_eq!(report.outcomes.len(), 1);
        assert!(report.outcomes[0].failed);
        assert_eq!(report.faults.failed_jobs, 1);
        assert_eq!(report.faults.retries, 0, "zero retries allowed, zero spent");
        assert!(report.faults.stalled_flows >= 1, "{:?}", report.faults);
        // The abort lands one stall timeout after the watch was armed —
        // there is no backoff wait tacked on.
        assert!(
            report.outcomes[0].completed_s <= 3.0 * 2.0 + 1.0,
            "no RetrySubmit backoff may delay the abort: completed at {:.2}s",
            report.outcomes[0].completed_s
        );
    }

    #[test]
    fn serving_run_accepts_incremental_submissions() {
        let engine = FleetEngine::new(
            sim(3, 24),
            Box::new(Tetrium::new()),
            Box::new(Pregauged::new(BwMatrix::filled(3, 300.0))),
            FleetConfig::default(),
        );
        let mut run = FleetRun::start_serving(engine);
        assert!(run.finished(), "an empty serving run is trivially finished");
        // Idle stepping advances the WAN clock to the window edge.
        let done = run.serve_step(10.0).unwrap();
        assert_eq!(done, 0);
        assert_eq!(run.time_s(), 10.0);
        // Submit, then step to completion.
        let idx = run.submit_job(small_job(3, 1.0, "served-0"));
        assert_eq!(idx, 0);
        assert_eq!(run.in_service(), 1);
        let mut total = 0;
        while !run.finished() {
            total += run.serve_step(run.time_s() + 50.0).unwrap();
        }
        assert_eq!(total, 1);
        assert_eq!(run.outcomes().len(), 1);
        assert!(run.outcomes()[0].arrived_s >= 10.0, "the job arrived after the idle window");
        let report = run
            .into_report()
            .with_serving(ServingCounters { offered: 1, ..ServingCounters::default() });
        assert_eq!(report.serving.offered, 1);
        assert_eq!(report.serving.shed_jobs, 0);
    }

    #[test]
    fn serving_run_does_not_hoard_served_profiles() {
        // 200 jobs pushed one at a time, at most one in service, the
        // driver taking each outcome as it lands: the per-job state held
        // at once is bounded by the admission limit, not by how many
        // jobs have been served.
        let config = FleetConfig::default();
        let max_concurrent = config.max_concurrent;
        let engine = FleetEngine::new(
            sim(3, 26),
            Box::new(Tetrium::new()),
            Box::new(Pregauged::new(BwMatrix::filled(3, 300.0))),
            config,
        );
        let mut run = FleetRun::start_serving(engine);
        let mut taken = 0;
        for i in 0..200 {
            assert_eq!(run.submit_job(small_job(3, 0.1, &format!("tiny-{i}"))), i);
            while !run.finished() {
                run.serve_step(run.time_s() + 50.0).unwrap();
            }
            taken += run.take_outcomes().len();
        }
        assert_eq!(run.completed(), 200);
        assert_eq!(taken, 200, "every outcome reaches the driver exactly once");
        assert!(
            run.peak_tracked() <= 1 + max_concurrent,
            "peak {} grew with the jobs served",
            run.peak_tracked()
        );
    }

    #[test]
    fn serve_step_returns_at_first_completion_not_the_deadline() {
        let engine = FleetEngine::new(
            sim(3, 25),
            Box::new(Tetrium::new()),
            Box::new(Pregauged::new(BwMatrix::filled(3, 300.0))),
            FleetConfig::default(),
        );
        let mut run = FleetRun::start_serving(engine);
        let _ = run.submit_job(small_job(3, 0.5, "quick"));
        let done = run.serve_step(1e6).unwrap();
        assert_eq!(done, 1, "the window ends at the first completion");
        assert!(run.time_s() < 1e6, "the run must not idle to the far deadline");
        assert!(run.finished());
    }
}
