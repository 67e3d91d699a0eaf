//! The serving front-end itself: a bounded submission queue with
//! backpressure, deadline-aware shedding, and per-tenant-class quotas
//! over an incremental [`FleetRun`].
//!
//! The gateway owns every admission decision; the fleet run underneath
//! only ever sees jobs the gateway has already let through, submitted
//! just-in-time as admission slots free up ([`FleetRun::serve_step`]
//! returns at each completion so freed capacity is refilled mid-window).
//! Requests the gateway refuses — queue overflow under
//! [`OverloadPolicy::Reject`], an over-quota tenant class, a queued
//! request whose predicted makespan can no longer meet its deadline —
//! never touch the WAN, which is precisely what keeps goodput from
//! collapsing past saturation: capacity is spent only on work that can
//! still succeed.

use std::collections::{BTreeMap, VecDeque};

use crate::breaker::BreakerHandle;
use crate::quota::{QuotaConfig, TokenBucket};
use wanify::WanifyError;
use wanify_gda::{
    job_family, stage_compute_s, FleetEngine, FleetReport, FleetRun, JobProfile, Percentiles,
    ServingCounters,
};
use wanify_netsim::RunStats;

/// What to do with a request that finds the submission queue full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Refuse it outright (counted in
    /// [`ServingCounters::rejected`]) — fail fast, bounded queueing
    /// delay for everyone admitted.
    Reject,
    /// Park the submitter outside the queue; the request enters as
    /// space frees. Nothing is refused, but queueing delay (and
    /// deadline shedding) grows without bound past saturation.
    Block,
}

/// Gateway knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayConfig {
    /// Bounded submission-queue depth (≥ 1).
    pub queue_depth: usize,
    /// Policy when the queue is full.
    pub overload: OverloadPolicy,
    /// Per-tenant-class token-bucket quota; `None` admits every class.
    pub quota: Option<QuotaConfig>,
    /// Safety factor on predicted makespans for deadline shedding
    /// (> 0): a queued request is shed when
    /// `now + shed_headroom × predicted_makespan` exceeds its deadline.
    /// Larger sheds earlier.
    pub shed_headroom: f64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self { queue_depth: 32, overload: OverloadPolicy::Reject, quota: None, shed_headroom: 1.0 }
    }
}

/// One request: a job, when it arrives at the gateway, and an optional
/// absolute completion deadline.
#[derive(Debug, Clone)]
pub struct GatewayRequest {
    /// The query to run.
    pub job: JobProfile,
    /// Simulated arrival time at the gateway.
    pub arrival_s: f64,
    /// Absolute completion deadline; `None` never sheds.
    pub deadline_s: Option<f64>,
}

/// How the gateway disposed of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disposition {
    /// Ran to completion on the fleet.
    Served {
        /// When it finished.
        completed_s: f64,
        /// Whether it finished by its deadline (vacuously true without
        /// one).
        met_deadline: bool,
        /// Whether the fault policy aborted it (partial accounting).
        failed: bool,
    },
    /// Refused at the front door: queue full under
    /// [`OverloadPolicy::Reject`].
    RejectedOverload,
    /// Refused by its tenant class's token bucket.
    RejectedQuota,
    /// Dropped from the queue: its predicted makespan could no longer
    /// meet its deadline.
    Shed,
}

/// The gateway's final accounting.
#[derive(Debug)]
pub struct GatewayReport {
    /// The underlying fleet report, serving counters folded in.
    pub fleet: FleetReport,
    /// Per-request verdicts, in offer order.
    pub dispositions: Vec<Disposition>,
    /// End-to-end latency (gateway arrival → completion) order
    /// statistics of the served requests.
    pub latency: Percentiles,
    /// The network engine's work over the whole run.
    pub stats: RunStats,
}

impl GatewayReport {
    /// Requests that ran to completion (late or not).
    pub fn served(&self) -> usize {
        self.dispositions.iter().filter(|d| matches!(d, Disposition::Served { .. })).count()
    }

    /// Requests that completed successfully by their deadline — the
    /// numerator of every goodput figure.
    pub fn good(&self) -> usize {
        self.dispositions
            .iter()
            .filter(|d| matches!(d, Disposition::Served { met_deadline: true, failed: false, .. }))
            .count()
    }
}

/// A request sitting in (or overflowing) the submission queue.
#[derive(Debug)]
struct Queued {
    req: usize,
    job: JobProfile,
    deadline_s: Option<f64>,
}

/// The serving gateway; see the module docs. Drive it manually with
/// [`Gateway::advance_to`] / [`Gateway::offer`] / [`Gateway::drain`] /
/// [`Gateway::finish`], or hand it a whole arrival-ordered stream via
/// [`Gateway::serve`].
#[derive(Debug)]
pub struct Gateway {
    run: FleetRun,
    cfg: GatewayConfig,
    queue: VecDeque<Queued>,
    overflow: VecDeque<Queued>,
    /// One bucket per tenant class (ordered map: deterministic Debug).
    buckets: BTreeMap<String, TokenBucket>,
    counters: ServingCounters,
    /// Verdict per request, `None` while still queued or running.
    dispositions: Vec<Option<Disposition>>,
    /// `(arrival_s, deadline_s)` per request.
    reqs: Vec<(f64, Option<f64>)>,
    /// Request index per fleet job index (dense: the serving run numbers
    /// its submissions 0, 1, 2, …).
    owner: Vec<usize>,
    /// The raw (uncalibrated) makespan estimate at admission per fleet
    /// job index, the denominator of the calibration feedback.
    raw_est: Vec<f64>,
    /// EWMA of observed/predicted makespan: the static belief model
    /// cannot see link sharing or transport overheads, so the gateway
    /// learns a correction factor from every completion.
    calibration: f64,
    /// Outcomes already folded into dispositions.
    recorded: usize,
    breaker: Option<BreakerHandle>,
}

impl Gateway {
    /// Fronts `engine` with the gateway.
    ///
    /// # Panics
    ///
    /// Panics on a zero queue depth, a non-positive or non-finite shed
    /// headroom, or an invalid quota (non-finite rate, burst < 1).
    pub fn new(engine: FleetEngine, cfg: GatewayConfig) -> Self {
        assert!(cfg.queue_depth >= 1, "the submission queue needs at least one slot");
        assert!(
            cfg.shed_headroom.is_finite() && cfg.shed_headroom > 0.0,
            "shed headroom must be finite and positive, got {}",
            cfg.shed_headroom
        );
        if let Some(q) = &cfg.quota {
            assert!(
                q.rate_per_s.is_finite() && q.rate_per_s >= 0.0,
                "quota rate must be finite and non-negative, got {}",
                q.rate_per_s
            );
            assert!(q.burst >= 1.0, "a quota burst below one token admits nothing");
        }
        Self {
            run: FleetRun::start_serving(engine),
            cfg,
            queue: VecDeque::new(),
            overflow: VecDeque::new(),
            buckets: BTreeMap::new(),
            counters: ServingCounters::default(),
            dispositions: Vec::new(),
            reqs: Vec::new(),
            owner: Vec::new(),
            raw_est: Vec::new(),
            calibration: 1.0,
            recorded: 0,
            breaker: None,
        }
    }

    /// Attaches a [`BreakerHandle`] whose counters are folded into the
    /// report at [`Gateway::finish`]; builder-style. Pair it with a
    /// [`crate::CircuitBreakerSource`] installed as the engine's belief
    /// source.
    #[must_use]
    pub fn with_breaker(mut self, handle: BreakerHandle) -> Self {
        self.breaker = Some(handle);
        self
    }

    /// Current simulated time of the fronted fleet.
    pub fn time_s(&self) -> f64 {
        self.run.time_s()
    }

    /// Requests waiting in the bounded queue plus parked submitters.
    pub fn queued(&self) -> usize {
        self.queue.len() + self.overflow.len()
    }

    /// Offers one request arriving *now* (advance the clock to its
    /// arrival first). Quota and overflow verdicts are immediate;
    /// everything else queues for dispatch.
    pub fn offer(&mut self, req: GatewayRequest) {
        let idx = self.dispositions.len();
        self.dispositions.push(None);
        self.reqs.push((req.arrival_s, req.deadline_s));
        self.counters.offered += 1;
        let now = self.run.time_s();
        if let Some(quota) = self.cfg.quota {
            // Look the class up by `&str`: only a class's first request
            // allocates its key.
            let class = job_family(&req.job.name);
            let within = match self.buckets.get_mut(class) {
                Some(bucket) => bucket.try_take(now),
                None => {
                    let mut bucket = TokenBucket::new(quota, now);
                    let within = bucket.try_take(now);
                    self.buckets.insert(class.to_string(), bucket);
                    within
                }
            };
            if !within {
                self.counters.quota_rejected += 1;
                self.dispositions[idx] = Some(Disposition::RejectedQuota);
                return;
            }
        }
        let queued = Queued { req: idx, job: req.job, deadline_s: req.deadline_s };
        if self.queue.len() >= self.cfg.queue_depth {
            match self.cfg.overload {
                OverloadPolicy::Reject => {
                    self.counters.rejected += 1;
                    self.dispositions[idx] = Some(Disposition::RejectedOverload);
                }
                OverloadPolicy::Block => self.overflow.push_back(queued),
            }
        } else {
            self.queue.push_back(queued);
        }
        self.pump();
    }

    /// Advances simulated time to `t`, dispatching queued work into
    /// freed admission slots along the way.
    ///
    /// # Errors
    ///
    /// Returns [`WanifyError::InvalidConfig`] for an infinite `t`, and
    /// propagates any other [`WanifyError`] from the underlying fleet run.
    pub fn advance_to(&mut self, t: f64) -> Result<(), WanifyError> {
        loop {
            self.pump();
            let target = t.max(self.run.time_s());
            let done = self.run.serve_step(target)?;
            self.absorb_completions();
            if done == 0 {
                return Ok(());
            }
        }
    }

    /// Serves until every queued and running request is disposed of.
    ///
    /// # Errors
    ///
    /// Propagates any [`WanifyError`] from the underlying fleet run.
    pub fn drain(&mut self) -> Result<(), WanifyError> {
        loop {
            self.pump();
            if self.queue.is_empty() && self.overflow.is_empty() && self.run.in_service() == 0 {
                return Ok(());
            }
            let _ = self.run.serve_step(self.run.time_s() + 3600.0)?;
            self.absorb_completions();
        }
    }

    /// Finalizes the report. Call [`Gateway::drain`] first — every
    /// offered request must have a verdict.
    ///
    /// # Panics
    ///
    /// Panics if a request is still queued or running.
    pub fn finish(mut self) -> GatewayReport {
        if let Some(handle) = &self.breaker {
            let stats = handle.stats();
            self.counters.breaker_trips = stats.trips;
            self.counters.breaker_fallbacks = stats.fallbacks;
            self.counters.breaker_recoveries = stats.recoveries;
        }
        let mut latencies = Vec::new();
        let dispositions: Vec<Disposition> = self
            .dispositions
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                let d = d.expect("every offered request has a verdict after drain");
                if let Disposition::Served { completed_s, .. } = d {
                    latencies.push(completed_s - self.reqs[i].0);
                }
                d
            })
            .collect();
        let stats = self.run.sim().last_run_stats();
        let fleet = self.run.into_report().with_serving(self.counters);
        GatewayReport { fleet, dispositions, latency: Percentiles::of(&latencies), stats }
    }

    /// Serves a whole arrival-ordered request stream and finishes.
    ///
    /// # Errors
    ///
    /// Returns [`WanifyError::InvalidConfig`] for arrivals that are not
    /// finite and non-decreasing, and propagates fleet errors.
    pub fn serve(mut self, requests: Vec<GatewayRequest>) -> Result<GatewayReport, WanifyError> {
        let mut last = 0.0;
        for r in &requests {
            if !(r.arrival_s.is_finite() && r.arrival_s >= last) {
                return Err(WanifyError::InvalidConfig(format!(
                    "request arrivals must be finite and non-decreasing, got {} after {last}",
                    r.arrival_s
                )));
            }
            last = r.arrival_s;
        }
        for r in requests {
            self.advance_to(r.arrival_s)?;
            self.offer(r);
        }
        self.drain()?;
        Ok(self.finish())
    }

    /// Moves parked submitters into the bounded queue and dispatches
    /// from its head into free admission slots, shedding requests whose
    /// deadline is no longer reachable.
    fn pump(&mut self) {
        loop {
            while self.queue.len() < self.cfg.queue_depth {
                match self.overflow.pop_front() {
                    Some(q) => self.queue.push_back(q),
                    None => break,
                }
            }
            if self.queue.is_empty() || self.run.in_service() >= self.run.max_concurrent() {
                return;
            }
            let head = self.queue.pop_front().expect("checked non-empty");
            let raw = self.raw_estimate_s(&head.job);
            if let Some(deadline) = head.deadline_s {
                let eta = self.run.time_s() + self.cfg.shed_headroom * raw * self.calibration;
                if eta > deadline {
                    self.counters.shed_jobs += 1;
                    self.dispositions[head.req] = Some(Disposition::Shed);
                    continue;
                }
            }
            let job_idx = self.run.submit_job(head.job);
            debug_assert_eq!(job_idx, self.owner.len(), "serving job indices are dense");
            self.owner.push(head.req);
            self.raw_est.push(raw);
        }
    }

    /// Folds newly completed outcomes into dispositions and the
    /// deadline-miss counter.
    fn absorb_completions(&mut self) {
        for o in &self.run.outcomes()[self.recorded..] {
            let req = self.owner[o.job_idx];
            let met = self.reqs[req].1.is_none_or(|d| o.completed_s <= d + 1e-9);
            if !met {
                self.counters.deadline_misses += 1;
            }
            let raw = self.raw_est[o.job_idx];
            if raw > 1e-9 && !o.failed {
                let ratio = ((o.completed_s - o.admitted_s) / raw).clamp(0.01, 100.0);
                self.calibration = 0.5 * self.calibration + 0.5 * ratio;
            }
            self.dispositions[req] = Some(Disposition::Served {
                completed_s: o.completed_s,
                met_deadline: met,
                failed: o.failed,
            });
        }
        self.recorded = self.run.outcomes().len();
    }

    /// Model-based makespan prediction of `job` on the current belief:
    /// per-stage straggler compute (the executor's own model) plus
    /// shuffle volume over the mean off-diagonal belief bandwidth, the
    /// shuffle share scaled by the tenants already in service (they
    /// split the WAN). Optimistic before the first gauge — with no
    /// belief yet nothing is shed, so a cold gateway admits its
    /// calibration traffic. The model cannot see link sharing or
    /// transport overheads; completions feed the gap back into
    /// `calibration`.
    fn raw_estimate_s(&self, job: &JobProfile) -> f64 {
        let Some(bw) = self.run.belief_bw() else { return 0.0 };
        let topo = self.run.sim().topology();
        let n = topo.len();
        if n < 2 || job.layout.len() != n {
            return 0.0;
        }
        let mean_mbps = bw.mean_off_diag().max(1e-6);
        let mut data: Vec<f64> = (0..n).map(|i| job.layout.gb_at(i)).collect();
        let mut total_s = 0.0;
        for stage in job.stages.iter() {
            total_s += stage_compute_s(&data, stage.compute_s_per_gb, topo);
            let out: Vec<f64> = data.iter().map(|gb| gb * stage.selectivity).collect();
            let total_out: f64 = out.iter().sum();
            if stage.shuffles && total_out > 1e-12 {
                // Uniform all-to-all: (n-1)/n of the bytes cross the WAN
                // over n parallel senders; sharing scales the transfer
                // time by the tenants it contends with.
                let wan_gb = total_out * (n as f64 - 1.0) / n as f64;
                let share = (self.run.in_service() + 1) as f64;
                total_s += wan_gb * 8000.0 * share / (mean_mbps * n as f64);
                data = vec![total_out / n as f64; n];
            } else {
                data = out;
            }
        }
        total_s
    }
}
