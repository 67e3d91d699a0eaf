//! Declarative scenario specs: topology + trace + faults + invariants.
//!
//! A [`ScenarioSpec`] is built fluently and composes everything one
//! fault-injection study needs — the paper-testbed topology prefix, the
//! deterministic mixed trace, the arrival process, the belief provenance
//! and scheduler under test, a [`FaultSchedule`], the fleet's recovery
//! [`FaultPolicy`], and the directional [`Invariant`]s the run must
//! satisfy. Adding a scenario to the suite is ~20 lines of spec in
//! [`crate::catalog`], not a new binary.

use wanify::{BandwidthSource, MeasuredRuntime, Pregauged, StaticIndependent, Wanify};
use wanify_gateway::{
    BreakerConfig, BreakerHandle, CircuitBreakerSource, FlakySource, GatewayConfig, GatewayRequest,
    OverloadPolicy, QuotaConfig,
};
use wanify_gda::{
    Arrivals, FaultPolicy, FleetAgent, FleetConfig, FleetEngine, FleetReport, JobProfile, Kimchi,
    Scheduler, Tetrium, VanillaSpark,
};
use wanify_netsim::{
    paper_testbed_n, Backbone, BwMatrix, ConnMatrix, FaultSchedule, LinkModelParams, NetSim,
    Topology, VmType,
};
use wanify_workloads::{mixed_trace, regional_mixed_trace, TraceConfig};

/// Which bandwidth-belief provenance the fleet plans with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BeliefKind {
    /// A pre-supplied uniform matrix (Mbps): gauging costs no simulated
    /// time, so arrivals land exactly on schedule.
    Pregauged(f64),
    /// Per-pair independent static probes (the paper's classic baseline).
    StaticIndependent,
    /// Simultaneous runtime measurement over a probe window (seconds).
    MeasuredRuntime(u32),
}

impl BeliefKind {
    /// Builds the source for an `n`-DC fleet.
    pub fn build(&self, n: usize) -> Box<dyn BandwidthSource> {
        match *self {
            BeliefKind::Pregauged(mbps) => Box::new(Pregauged::new(BwMatrix::filled(n, mbps))),
            BeliefKind::StaticIndependent => Box::new(StaticIndependent::new()),
            BeliefKind::MeasuredRuntime(probe_s) => Box::new(MeasuredRuntime::new(probe_s)),
        }
    }

    /// Short human label for reports.
    pub fn label(&self) -> String {
        match *self {
            BeliefKind::Pregauged(mbps) => format!("pregauged({mbps:.0} Mbps)"),
            BeliefKind::StaticIndependent => "static-independent".to_string(),
            BeliefKind::MeasuredRuntime(s) => format!("measured-runtime({s}s)"),
        }
    }
}

/// Live WAN dynamics of a scenario's simulator (`None` on a
/// [`ScenarioSpec`] keeps the legacy frozen network).
///
/// The OU process and the optional diurnal sinusoid are quantized on
/// `tick_s`, so rate changes stay schedulable and the fleet keeps the
/// event-coalescing fast path even with bandwidth moving all run long.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsSpec {
    /// Relative amplitude of the OU bandwidth noise.
    pub sigma: f64,
    /// Mean-reversion rate of the OU process (per second).
    pub theta: f64,
    /// Quantization tick in seconds (rate changes fire only here).
    pub tick_s: f64,
    /// Optional diurnal wave: `(relative amplitude, period seconds)`.
    pub diurnal: Option<(f64, f64)>,
}

impl DynamicsSpec {
    /// Short human label for reports.
    pub fn label(&self) -> String {
        match self.diurnal {
            Some((a, p)) => format!(
                "ou(σ={}, θ={}, tick {:.0}s) + diurnal(±{:.0}%, {:.0}s)",
                self.sigma,
                self.theta,
                self.tick_s,
                a * 100.0,
                p
            ),
            None => format!("ou(σ={}, θ={}, tick {:.0}s)", self.sigma, self.theta, self.tick_s),
        }
    }
}

/// An AIMD agent fleet riding the scenario's faulted arms: every shard
/// gets its own [`wanify::WanifyAgent`] planned from a runtime probe of the
/// clean network, waking every `interval_s` simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentSpec {
    /// Simulated seconds between agent wakes.
    pub interval_s: f64,
}

/// A deterministic gauge outage driving the belief circuit breaker on a
/// gateway scenario: the spec's primary belief source fails every gauge
/// before `fail_until_s`, answered by a pregauged fallback while the
/// breaker is open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerSpec {
    /// Simulated instant the primary gauge heals.
    pub fail_until_s: f64,
    /// Consecutive failures that trip the breaker.
    pub failure_threshold: u32,
    /// Open-state cooldown before a half-open probe.
    pub cooldown_s: f64,
    /// Uniform bandwidth of the pregauged fallback belief, Mbps.
    pub fallback_mbps: f64,
}

/// The serving front-end of a gateway scenario: requests flow through a
/// [`wanify_gateway::Gateway`] instead of being batch-submitted, so the
/// scenario can overload the fleet and assert on shedding, rejection and
/// breaker behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewaySpec {
    /// Bounded submission-queue depth.
    pub queue_depth: usize,
    /// Policy when the queue is full.
    pub overload: OverloadPolicy,
    /// Relative completion deadline granted to every request (`None`
    /// never sheds).
    pub deadline_slack_s: Option<f64>,
    /// Safety factor on predicted makespans for shedding.
    pub shed_headroom: f64,
    /// Per-tenant-class admission quota.
    pub quota: Option<QuotaConfig>,
    /// Gauge-outage + circuit-breaker arm.
    pub breaker: Option<BreakerSpec>,
}

impl Default for GatewaySpec {
    fn default() -> Self {
        Self {
            queue_depth: 32,
            overload: OverloadPolicy::Reject,
            deadline_slack_s: None,
            shed_headroom: 1.0,
            quota: None,
            breaker: None,
        }
    }
}

/// Which scheduler serves the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// Locality-aware maps, uniform reduces.
    Vanilla,
    /// Latency-optimal task + data placement.
    Tetrium,
    /// Network-cost-aware placement.
    Kimchi,
}

impl SchedKind {
    /// Builds the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedKind::Vanilla => Box::new(VanillaSpark::new()),
            SchedKind::Tetrium => Box::new(Tetrium::new()),
            SchedKind::Kimchi => Box::new(Kimchi::new()),
        }
    }
}

/// A directional property the scenario's (faulted, solo) run must hold.
///
/// Invariants are evaluated against the solo faulted [`FleetReport`];
/// two of them additionally demand a counterfactual arm the runner
/// executes on demand (a no-fault rerun, a static-belief rerun).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Invariant {
    /// Every job of the trace completes and none is reported failed.
    AllComplete,
    /// At least this many jobs are aborted by the fault policy.
    FailedAtLeast(u64),
    /// At most this many jobs are aborted by the fault policy.
    FailedAtMost(u64),
    /// The fault policy performs at least this many retries.
    RetriesAtLeast(u64),
    /// The fault policy performs at most this many retries (0 = the
    /// watchdog must never fire: the fault rides through on its own).
    RetriesAtMost(u64),
    /// At least this many transfers are re-placed to an alive DC.
    ReplacementsAtLeast(u64),
    /// Simulated seconds with any fault active lies in `[lo, hi]`.
    DegradedBetween(f64, f64),
    /// Faulted duration ≥ `factor` × the no-fault counterfactual's
    /// duration (faults must cost simulated time, never save it).
    SlowdownAtLeast(f64),
    /// Makespan p99 ≤ `factor` × p50: degradation stays graceful, no
    /// pathological tail.
    TailWithin(f64),
    /// Mean makespan under the spec's (runtime) belief ≤
    /// `(1 + tolerance)` × mean makespan of a static-independent-belief
    /// rerun — the paper's runtime-beats-static claim under faults.
    RuntimeBeliefNoWorse(f64),
    /// At least this many requests run to completion (gateway arm).
    ServedAtLeast(u64),
    /// At least this many queued requests are deadline-shed (gateway
    /// arm).
    ShedAtLeast(u64),
    /// At least this many requests are refused at the front door —
    /// queue overflow or tenant quota (gateway arm).
    RejectedAtLeast(u64),
    /// At most this many served requests miss their deadline (gateway
    /// arm): admission control must keep late finishes rare.
    DeadlineMissesAtMost(u64),
    /// The belief circuit breaker trips at least this often (gateway
    /// arm).
    BreakerTripsAtLeast(u64),
    /// The belief circuit breaker recovers its primary at least this
    /// often (gateway arm).
    BreakerRecoveriesAtLeast(u64),
}

/// Inputs an [`Invariant::check`] can draw on.
#[derive(Debug)]
pub struct CheckCtx<'a> {
    /// Jobs in the trace.
    pub jobs: usize,
    /// The solo faulted run.
    pub solo: &'a FleetReport,
    /// Duration of the no-fault counterfactual, when one was run.
    pub nofault_duration_s: Option<f64>,
    /// Mean makespan of the static-belief counterfactual, when run.
    pub static_mean_makespan_s: Option<f64>,
}

/// Outcome of one invariant check.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// What was asserted.
    pub label: String,
    /// Whether it held.
    pub pass: bool,
    /// The observed numbers behind the verdict.
    pub detail: String,
}

impl Invariant {
    /// Whether this invariant needs the no-fault counterfactual arm.
    pub fn needs_nofault_arm(&self) -> bool {
        matches!(self, Invariant::SlowdownAtLeast(_))
    }

    /// Whether this invariant needs the static-belief counterfactual arm.
    pub fn needs_static_arm(&self) -> bool {
        matches!(self, Invariant::RuntimeBeliefNoWorse(_))
    }

    /// Evaluates the invariant.
    pub fn check(&self, ctx: &CheckCtx) -> CheckResult {
        let f = &ctx.solo.faults;
        let s = &ctx.solo.serving;
        let (label, pass, detail) = match *self {
            Invariant::AllComplete => (
                format!("all {} jobs complete, none failed", ctx.jobs),
                ctx.solo.outcomes.len() == ctx.jobs && ctx.solo.failed_jobs() == 0,
                format!("completed={} failed={}", ctx.solo.outcomes.len(), ctx.solo.failed_jobs()),
            ),
            Invariant::FailedAtLeast(n) => (
                format!("≥ {n} job(s) aborted by the fault policy"),
                f.failed_jobs >= n,
                format!("failed_jobs={}", f.failed_jobs),
            ),
            Invariant::FailedAtMost(n) => (
                format!("≤ {n} job(s) aborted by the fault policy"),
                f.failed_jobs <= n,
                format!("failed_jobs={}", f.failed_jobs),
            ),
            Invariant::RetriesAtLeast(n) => (
                format!("≥ {n} stall retr{}", if n == 1 { "y" } else { "ies" }),
                f.retries >= n,
                format!("retries={}", f.retries),
            ),
            Invariant::RetriesAtMost(n) => (
                format!("≤ {n} stall retr{}", if n == 1 { "y" } else { "ies" }),
                f.retries <= n,
                format!("retries={}", f.retries),
            ),
            Invariant::ReplacementsAtLeast(n) => (
                format!("≥ {n} transfer(s) re-placed to an alive DC"),
                f.replacements >= n,
                format!("replacements={}", f.replacements),
            ),
            Invariant::DegradedBetween(lo, hi) => (
                format!("degraded time in [{lo:.0}, {hi:.0}] s"),
                (lo..=hi).contains(&f.degraded_s),
                format!("degraded_s={:.2}", f.degraded_s),
            ),
            Invariant::SlowdownAtLeast(factor) => {
                let base = ctx.nofault_duration_s.expect("runner provides the no-fault arm");
                (
                    format!("faults slow the fleet ≥ {factor:.2}x vs no-fault"),
                    ctx.solo.duration_s >= factor * base,
                    format!(
                        "faulted={:.2}s nofault={:.2}s ratio={:.2}",
                        ctx.solo.duration_s,
                        base,
                        ctx.solo.duration_s / base.max(1e-12)
                    ),
                )
            }
            Invariant::TailWithin(factor) => {
                let m = ctx.solo.makespan();
                (
                    format!("makespan p99 ≤ {factor:.1}x p50 (graceful tail)"),
                    m.p99 <= factor * m.p50,
                    format!(
                        "p50={:.2}s p99={:.2}s ratio={:.2}",
                        m.p50,
                        m.p99,
                        m.p99 / m.p50.max(1e-12)
                    ),
                )
            }
            Invariant::RuntimeBeliefNoWorse(tol) => {
                let stat =
                    ctx.static_mean_makespan_s.expect("runner provides the static-belief arm");
                let mine = ctx.solo.makespan().mean;
                (
                    format!("runtime belief ≤ {:.0}% worse than static belief", tol * 100.0),
                    mine <= (1.0 + tol) * stat,
                    format!("runtime-mean={mine:.2}s static-mean={stat:.2}s"),
                )
            }
            Invariant::ServedAtLeast(n) => (
                format!("≥ {n} request(s) served to completion"),
                ctx.solo.outcomes.len() as u64 >= n,
                format!("served={}", ctx.solo.outcomes.len()),
            ),
            Invariant::ShedAtLeast(n) => (
                format!("≥ {n} request(s) deadline-shed"),
                s.shed_jobs >= n,
                format!("shed_jobs={}", s.shed_jobs),
            ),
            Invariant::RejectedAtLeast(n) => (
                format!("≥ {n} request(s) refused at the front door"),
                s.rejected + s.quota_rejected >= n,
                format!("rejected={} quota_rejected={}", s.rejected, s.quota_rejected),
            ),
            Invariant::DeadlineMissesAtMost(n) => (
                format!("≤ {n} served request(s) miss their deadline"),
                s.deadline_misses <= n,
                format!("deadline_misses={}", s.deadline_misses),
            ),
            Invariant::BreakerTripsAtLeast(n) => (
                format!("belief breaker trips ≥ {n} time(s)"),
                s.breaker_trips >= n,
                format!("breaker_trips={}", s.breaker_trips),
            ),
            Invariant::BreakerRecoveriesAtLeast(n) => (
                format!("belief breaker recovers ≥ {n} time(s)"),
                s.breaker_recoveries >= n,
                format!("breaker_recoveries={}", s.breaker_recoveries),
            ),
        };
        CheckResult { label, pass, detail }
    }
}

/// One declarative fault-injection scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Unique kebab-case id (the name `scenario_runner` takes).
    pub name: &'static str,
    /// One-sentence story of what the scenario exercises.
    pub summary: &'static str,
    /// Paper-testbed prefix size (2..=8 DCs).
    pub n_dcs: usize,
    /// Jobs in the trace.
    pub jobs: usize,
    /// Seed of both the trace sampler and the simulator.
    pub seed: u64,
    /// Input-size multiplier on the trace.
    pub scale: f64,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Belief provenance the fleet plans with.
    pub belief: BeliefKind,
    /// Scheduler under test.
    pub sched: SchedKind,
    /// The injected fault timeline.
    pub faults: FaultSchedule,
    /// Stall detection/recovery policy (`None` = legacy stall-is-error).
    pub policy: Option<FaultPolicy>,
    /// Admission limit.
    pub max_concurrent: usize,
    /// Shared-belief staleness bound.
    pub regauge_every_s: f64,
    /// Shard count of the sharded arm (≥ 2).
    pub shards: usize,
    /// Whether the trace is region-homed to the backbone's groups.
    pub regional: bool,
    /// Live WAN dynamics (`None` = frozen network).
    pub dynamics: Option<DynamicsSpec>,
    /// AIMD agent fleet on the faulted arms (`None` = agent-free).
    pub agent: Option<AgentSpec>,
    /// Serving gateway front-end (`None` = batch submission). Gateway
    /// scenarios run the solo arm through the gateway and skip the
    /// sharded arm.
    pub gateway: Option<GatewaySpec>,
    /// Directional properties the solo faulted run must satisfy.
    pub invariants: Vec<Invariant>,
}

impl ScenarioSpec {
    /// A scenario skeleton with fleet-sized defaults.
    pub fn new(name: &'static str, summary: &'static str) -> Self {
        Self {
            name,
            summary,
            n_dcs: 3,
            jobs: 4,
            seed: 42,
            scale: 0.5,
            arrivals: Arrivals::Closed { clients: 4, think_s: 0.0 },
            belief: BeliefKind::Pregauged(300.0),
            sched: SchedKind::Tetrium,
            faults: FaultSchedule::new(),
            policy: Some(FaultPolicy::default()),
            max_concurrent: 16,
            regauge_every_s: f64::INFINITY,
            shards: 2,
            regional: false,
            dynamics: None,
            agent: None,
            gateway: None,
            invariants: Vec::new(),
        }
    }

    /// Sets the admission limit (concurrent queries).
    #[must_use]
    pub fn concurrent(mut self, max_concurrent: usize) -> Self {
        assert!(max_concurrent >= 1, "admission limit must allow at least one query");
        self.max_concurrent = max_concurrent;
        self
    }

    /// Sets the shared-belief staleness bound.
    #[must_use]
    pub fn regauge_every(mut self, every_s: f64) -> Self {
        self.regauge_every_s = every_s;
        self
    }

    /// Fronts the solo arm with a serving gateway. Gateway scenarios
    /// need an open-loop arrival process (Poisson or Scheduled) — a
    /// closed loop can never overload the fleet.
    #[must_use]
    pub fn gateway(mut self, gateway: GatewaySpec) -> Self {
        assert!(
            !matches!(self.arrivals, Arrivals::Closed { .. }),
            "gateway scenarios need open-loop arrivals: set .arrivals(...) first"
        );
        self.gateway = Some(gateway);
        self
    }

    /// Sets the paper-testbed prefix size.
    #[must_use]
    pub fn dcs(mut self, n: usize) -> Self {
        self.n_dcs = n;
        self
    }

    /// Sets the trace length.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the trace + simulator seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the trace input-size multiplier.
    #[must_use]
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the arrival process.
    #[must_use]
    pub fn arrivals(mut self, arrivals: Arrivals) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Sets the belief provenance.
    #[must_use]
    pub fn belief(mut self, belief: BeliefKind) -> Self {
        self.belief = belief;
        self
    }

    /// Sets the scheduler.
    #[must_use]
    pub fn scheduler(mut self, sched: SchedKind) -> Self {
        self.sched = sched;
        self
    }

    /// Installs the fault timeline.
    #[must_use]
    pub fn faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the recovery policy (`None` = legacy stall-is-error).
    #[must_use]
    pub fn policy(mut self, policy: Option<FaultPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the sharded arm's shard count.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards >= 2, "the sharded arm needs at least 2 shards");
        self.shards = shards;
        self
    }

    /// Homes the trace's tenants to the backbone's region groups.
    #[must_use]
    pub fn regional(mut self) -> Self {
        self.regional = true;
        self
    }

    /// Installs live tick-quantized WAN dynamics.
    #[must_use]
    pub fn dynamics(mut self, dynamics: DynamicsSpec) -> Self {
        assert!(dynamics.tick_s > 0.0, "scenario dynamics must be schedulable (tick_s > 0)");
        self.dynamics = Some(dynamics);
        self
    }

    /// Rides an AIMD agent fleet on the faulted arms, waking every
    /// `interval_s` simulated seconds.
    #[must_use]
    pub fn agents(mut self, interval_s: f64) -> Self {
        self.agent = Some(AgentSpec { interval_s });
        self
    }

    /// Appends one invariant.
    #[must_use]
    pub fn expect(mut self, invariant: Invariant) -> Self {
        self.invariants.push(invariant);
        self
    }

    /// Short human label of the arrival process for reports.
    pub fn arrivals_label(&self) -> String {
        match &self.arrivals {
            Arrivals::Poisson { rate_per_s, seed } => {
                format!("poisson({rate_per_s}/s, seed {seed})")
            }
            Arrivals::Closed { clients, think_s } => {
                format!("closed({clients} clients, think {think_s:.0}s)")
            }
            Arrivals::Scheduled { times } => {
                let bursts = times.iter().filter(|t| **t == 0.0).count();
                format!("scheduled({} times, {bursts} at t=0)", times.len())
            }
        }
    }

    /// The scenario's topology: the first `n_dcs` paper-testbed regions.
    pub fn topology(&self) -> Topology {
        paper_testbed_n(VmType::t2_medium(), self.n_dcs)
    }

    /// The backbone coupling the sharded arm (continental grouping).
    pub fn backbone(&self) -> Backbone {
        Backbone::continental(&self.topology(), 4000.0, 30.0)
    }

    /// The deterministic job trace.
    pub fn trace(&self) -> Vec<JobProfile> {
        let cfg = TraceConfig::new(self.n_dcs, self.jobs, self.seed).scaled(self.scale);
        if self.regional {
            regional_mixed_trace(&cfg, self.backbone().groups())
        } else {
            mixed_trace(&cfg)
        }
    }

    /// A fresh simulator — frozen unless a [`DynamicsSpec`] is
    /// installed; `faulted` installs the fault schedule (the no-fault
    /// counterfactual passes `false`; live dynamics ride both arms).
    pub fn sim(&self, faulted: bool) -> NetSim {
        let params = match self.dynamics {
            Some(d) => LinkModelParams {
                dynamics_sigma: d.sigma,
                dynamics_theta: d.theta,
                dynamics_tick_s: d.tick_s,
                snapshot_noise: 0.0,
                ..LinkModelParams::default()
            },
            None => LinkModelParams::frozen(),
        };
        let mut sim = NetSim::new(self.topology(), params, self.seed);
        if let Some(DynamicsSpec { diurnal: Some((amplitude, period_s)), .. }) = self.dynamics {
            sim.dynamics_mut().set_diurnal(amplitude, period_s, 0.0);
        }
        if faulted && !self.faults.is_empty() {
            sim.set_fault_schedule(self.faults.clone());
        }
        sim
    }

    /// Builds the spec's [`FleetAgent`]: a [`wanify::WanifyAgent`] that
    /// the default [`Wanify`] facade plans from a runtime probe of the
    /// clean (no-fault) network, exactly as the paper's gauging step would
    /// run before the workload arrives.
    ///
    /// # Panics
    ///
    /// Panics if no [`AgentSpec`] is installed or planning fails.
    pub fn build_agent(&self) -> FleetAgent {
        let spec = self.agent.expect("spec declares an agent");
        let mut probe = self.sim(false);
        let bw = probe.measure_runtime(&ConnMatrix::filled(self.n_dcs, 1), 5).bw;
        let wanify = Wanify::default();
        let plan = wanify
            .try_plan_matrix(&bw)
            .unwrap_or_else(|e| panic!("scenario {}: planning failed: {e:?}", self.name));
        FleetAgent {
            conns: plan.initial_conns().clone(),
            hook: Box::new(wanify.agent(&plan)),
            interval_s: spec.interval_s,
        }
    }

    /// The fleet-layer config (admission, regauge, recovery policy).
    pub fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            max_concurrent: self.max_concurrent,
            regauge_every_s: self.regauge_every_s,
            conns: None,
            faults: self.policy,
        }
    }

    /// A fresh solo fleet engine with the spec's belief.
    pub fn engine(&self, faulted: bool) -> FleetEngine {
        self.engine_with(faulted, self.belief)
    }

    /// A fresh solo fleet engine with an overridden belief (the
    /// counterfactual-arm hook). A declared agent rides only the
    /// faulted arms: the no-fault counterfactual stays agent-free, so
    /// [`Invariant::SlowdownAtLeast`] compares the hooked fleet against
    /// an unassisted clean baseline.
    pub fn engine_with(&self, faulted: bool, belief: BeliefKind) -> FleetEngine {
        let engine = FleetEngine::new(
            self.sim(faulted),
            self.sched.build(),
            belief.build(self.n_dcs),
            self.fleet_config(),
        );
        if faulted && self.agent.is_some() {
            engine.with_agent(self.build_agent())
        } else {
            engine
        }
    }

    /// The gateway arm's fleet engine: the spec's belief source,
    /// wrapped — when a [`BreakerSpec`] is declared — in a deterministic
    /// gauge outage ([`FlakySource`]) behind a [`CircuitBreakerSource`]
    /// with a pregauged fallback. Returns the engine plus the breaker's
    /// stats handle when one was installed.
    ///
    /// # Panics
    ///
    /// Panics if no [`GatewaySpec`] is installed.
    pub fn gateway_engine(&self) -> (FleetEngine, Option<BreakerHandle>) {
        let gw = self.gateway.expect("spec declares a gateway");
        let (source, handle): (Box<dyn BandwidthSource>, _) = match gw.breaker {
            Some(b) => {
                let primary =
                    Box::new(FlakySource::new(self.belief.build(self.n_dcs), b.fail_until_s));
                let breaker = CircuitBreakerSource::new(
                    primary,
                    Box::new(Pregauged::new(BwMatrix::filled(self.n_dcs, b.fallback_mbps))),
                    BreakerConfig {
                        failure_threshold: b.failure_threshold,
                        cooldown_s: b.cooldown_s,
                    },
                );
                let handle = breaker.stats_handle();
                (Box::new(breaker), Some(handle))
            }
            None => (self.belief.build(self.n_dcs), None),
        };
        let engine =
            FleetEngine::new(self.sim(true), self.sched.build(), source, self.fleet_config());
        let engine =
            if self.agent.is_some() { engine.with_agent(self.build_agent()) } else { engine };
        (engine, handle)
    }

    /// The gateway arm's [`GatewayConfig`].
    ///
    /// # Panics
    ///
    /// Panics if no [`GatewaySpec`] is installed.
    pub fn gateway_config(&self) -> GatewayConfig {
        let gw = self.gateway.expect("spec declares a gateway");
        GatewayConfig {
            queue_depth: gw.queue_depth,
            overload: gw.overload,
            quota: gw.quota,
            shed_headroom: gw.shed_headroom,
        }
    }

    /// The gateway arm's request stream: the spec's trace with arrival
    /// times drawn from its open-loop arrival process and deadlines from
    /// the [`GatewaySpec`]'s slack.
    ///
    /// # Panics
    ///
    /// Panics if no [`GatewaySpec`] is installed, if the arrival process
    /// is closed-loop, or if a scheduled arrival list does not cover the
    /// trace.
    pub fn gateway_requests(&self) -> Vec<GatewayRequest> {
        let gw = self.gateway.expect("spec declares a gateway");
        if let Arrivals::Closed { .. } = self.arrivals {
            panic!("scenario {}: gateway arm needs open-loop arrivals", self.name)
        }
        let times = self
            .arrivals
            .open_loop_times(self.jobs)
            .unwrap_or_else(|e| panic!("scenario {}: bad open-loop arrivals: {e:?}", self.name));
        self.trace()
            .into_iter()
            .zip(times)
            .map(|(job, arrival_s)| GatewayRequest {
                job,
                arrival_s,
                deadline_s: gw.deadline_slack_s.map(|slack| arrival_s + slack),
            })
            .collect()
    }
}

#[cfg(test)]
impl ScenarioSpec {
    /// Whether the scenario's network moves on its own (live dynamics
    /// installed), independently of any fault schedule.
    pub(crate) fn has_live_dynamics(&self) -> bool {
        self.dynamics.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanify_netsim::DcId;

    #[test]
    fn builder_composes_a_spec() {
        let spec = ScenarioSpec::new("t", "test")
            .dcs(4)
            .jobs(7)
            .seed(9)
            .scale(0.25)
            .scheduler(SchedKind::Kimchi)
            .belief(BeliefKind::StaticIndependent)
            .faults(FaultSchedule::new().dc_outage(DcId(1), 10.0, 20.0))
            .shards(3)
            .expect(Invariant::AllComplete);
        assert_eq!(spec.n_dcs, 4);
        assert_eq!(spec.jobs, 7);
        assert_eq!(spec.faults.len(), 2);
        assert_eq!(spec.shards, 3);
        assert_eq!(spec.invariants.len(), 1);
        assert_eq!(spec.trace().len(), 7);
        assert_eq!(spec.topology().len(), 4);
    }

    #[test]
    fn trace_is_deterministic_per_spec() {
        let spec = ScenarioSpec::new("t", "test").dcs(4).jobs(6);
        assert_eq!(spec.trace(), spec.trace());
        let regional = spec.clone().regional();
        assert_eq!(regional.trace(), regional.trace());
        assert!(regional.trace()[0].name.contains("@g"));
    }

    #[test]
    fn counterfactual_sim_carries_no_faults() {
        let spec = ScenarioSpec::new("t", "test").faults(FaultSchedule::new().dc_outage(
            DcId(0),
            1.0,
            2.0,
        ));
        assert!(spec.sim(true).has_pending_faults());
        assert!(!spec.sim(false).has_pending_faults());
    }

    #[test]
    fn invariant_arm_requirements() {
        assert!(Invariant::SlowdownAtLeast(1.0).needs_nofault_arm());
        assert!(Invariant::RuntimeBeliefNoWorse(0.1).needs_static_arm());
        assert!(!Invariant::AllComplete.needs_nofault_arm());
        assert!(!Invariant::RetriesAtLeast(1).needs_static_arm());
    }

    #[test]
    #[should_panic(expected = "at least 2 shards")]
    fn single_shard_arm_is_rejected() {
        let _ = ScenarioSpec::new("t", "test").shards(1);
    }

    #[test]
    fn dynamics_and_agent_compose() {
        let spec = ScenarioSpec::new("t", "test")
            .dynamics(DynamicsSpec {
                sigma: 0.05,
                theta: 0.2,
                tick_s: 30.0,
                diurnal: Some((0.2, 100.0)),
            })
            .agents(5.0);
        assert!(spec.has_live_dynamics());
        let mut sim = spec.sim(false);
        assert!(sim.dynamics_mut().next_change_after(0.0).is_some());
        // The faulted arm builds its agent (probe + plan) without issue.
        let _ = spec.engine(true);
    }

    #[test]
    #[should_panic(expected = "schedulable")]
    fn continuous_dynamics_are_rejected() {
        let _ = ScenarioSpec::new("t", "test").dynamics(DynamicsSpec {
            sigma: 0.05,
            theta: 0.2,
            tick_s: 0.0,
            diurnal: None,
        });
    }
}
