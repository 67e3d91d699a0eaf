//! The WAN simulator: rate allocation, temporal evolution and transfers.
//!
//! # The event-coalescing transfer loop
//!
//! Bulk transfers advance in fixed epochs of
//! [`LinkModelParams::epoch_dt_s`] seconds. Within a *rate segment* — a
//! stretch of epochs over which a pair's allocated rate is unchanged — the
//! per-pair accounting is closed-form: after `m` epochs at quota `g`
//! (gigabits per epoch), the remaining payload is `r0 − m·g`, the moved
//! payload `m0 + m·g` and the busy time `b0 + m·dt`.
//!
//! Rates can only change at *schedulable events*: a pair draining, a
//! scheduled fault boundary, a dynamics tick (the OU grid and piecewise
//! components evolve only on the quantized tick — see
//! [`crate::Dynamics`]), or an [`EpochHook`] wake. The loop solves
//! weighted max-min fairness once per segment and jumps straight to the
//! nearest of those horizons: `O(events)` fairness solves instead of
//! `O(simulated seconds)`, under frozen *and* live dynamics, hooked or
//! not. Because both modes evaluate the same closed-form float
//! expressions at the same anchor points — and tick-quantized dynamics
//! consume identical RNG draws whether time advances in one jump or many
//! steps — the fast path is *bit-identical* to per-epoch stepping. Only
//! the legacy continuous dynamics (`dynamics_tick_s <= 0`) and hooks
//! that decline to schedule a wake ([`EpochHook::next_wake`] returning
//! `None`, the default) force stepping every epoch.
//!
//! There is one such loop in the crate and it lives in [`crate::engine`].
//! This module holds what it is made of: the per-pair anchor accounting,
//! the drain and event horizons, and the simulator's answers to a
//! fairness solve (through `fairness::Network`). It also holds two entry
//! points. [`NetSim::allocate_rates_with`] is the stateless one: it files
//! a flow list pair-major and solves it, for gauges and probes.
//! [`NetSim::run_transfers`] is the blocking one: it submits one flow
//! group to the loop, seats its optional [`EpochHook`] on it and advances
//! to completion. [`crate::NetEngine`] is the resumable, multi-tenant
//! entry point to the same loop.
//!
//! [`NetSim::last_run_stats`] reports how many solves the previous run
//! performed, which the perf tests and `BENCH_netsim.json` runner track.

use crate::dynamics::Dynamics;
use crate::engine::{HookSeat, TransferLoop};
use crate::fairness::{FairnessWorkspace, Network, PairFlows, SolveShape};
use crate::faults::{ActiveFaults, FaultSchedule};
use crate::flow::{FlowSpec, Transfer, TransferReport};
use crate::grid::{BwMatrix, ConnMatrix, Grid};
use crate::params::LinkModelParams;
use crate::topology::{DcId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Safety valve on the number of simulated epochs per `run_transfers`.
pub const MAX_EPOCHS: usize = 4_000_000;

/// Payload below which a pair counts as drained, in gigabits (~1 bit).
pub const PAYLOAD_EPS_GB: f64 = 1e-9;

/// Effective intra-DC transfer rate in Mbps (LAN, never the bottleneck).
pub const INTRA_DC_MBPS: f64 = 25_000.0;

/// Context handed to an [`EpochHook`] once per simulated second.
///
/// WANify's local agents (paper §4.1.3) plug in here: they observe the
/// monitored per-pair bandwidth (the simulator's stand-in for `ifTop`),
/// and may adjust connection counts and traffic-control throttles for the
/// next epoch.
#[derive(Debug)]
pub struct EpochCtx<'a> {
    /// Simulation time at the start of the epoch, in seconds.
    pub time_s: f64,
    /// Throughput observed during the previous epoch, per directed pair.
    pub observed_bw: &'a BwMatrix,
    /// Remaining payload per directed pair, in gigabits.
    pub remaining_gb: &'a BwMatrix,
    /// Connection counts to use from the next epoch on (mutable).
    pub conns: &'a mut ConnMatrix,
    /// Per-pair throughput caps in Mbps (`f64::INFINITY` = unthrottled).
    pub throttles: &'a mut Grid<f64>,
}

/// Per-epoch callback driven by [`NetSim::run_transfers`].
///
/// By default a hook observes and may intervene after *every* simulated
/// epoch — no epochs are coalesced away from under it. Hooks that only
/// act on a schedule (the AIMD agent updates every `interval_s`) can
/// override [`EpochHook::next_wake`] to tell the simulator when they
/// next need to run, which re-enables event coalescing between wakes.
pub trait EpochHook {
    /// Invoked after every served segment (every epoch unless the hook
    /// schedules wakes via [`EpochHook::next_wake`]).
    fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>);

    /// The next absolute simulation time this hook needs to observe, or
    /// `None` to be invoked after every epoch (the default, preserving
    /// strict per-epoch semantics).
    ///
    /// Returning `Some(w)` lets the transfer loop coalesce whole
    /// multi-epoch segments up to `w`. The hook is still invoked at the
    /// end of *every* segment — drains, fault boundaries and dynamics
    /// ticks end segments too, and float rounding may land an invocation
    /// an epoch early — so a scheduling hook must treat off-wake
    /// invocations as no-ops (re-checking `ctx.time_s` against its own
    /// schedule), exactly as an interval-guarded per-epoch hook already
    /// does.
    fn next_wake(&mut self, now_s: f64) -> Option<f64> {
        let _ = now_s;
        None
    }
}

/// Statistics about the most recent [`NetSim::run_transfers`] call, or
/// the cumulative work of a [`crate::NetEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Fairness solves performed (one per rate segment).
    pub solves: u64,
    /// Flows in flight, summed over the solves: `flows / solves` is the
    /// size of the problem an event files and solves.
    pub flows: u64,
    /// Epochs simulated (matches [`TransferReport::epochs`]).
    pub epochs: u64,
    /// Whether the event-coalescing fast path served multi-epoch
    /// segments: the dynamics were schedulable and any installed hook
    /// scheduled its wakes.
    pub coalesced: bool,
}

/// Reusable buffers for [`NetSim::allocate_rates_with`].
///
/// One scratch serves any sequence of calls on any simulator; every
/// buffer grows to its high-water mark and is then reused, so repeated
/// solves on the hot path are allocation-free.
#[derive(Debug, Clone, Default)]
pub struct RateScratch {
    /// The WAN flows of the last call, each under its input index.
    flows: PairFlows,
    ws: FairnessWorkspace,
    /// Rate per input flow of the last call.
    rates: Vec<f64>,
}

impl RateScratch {
    /// Size of the last solve: the flows, classes, live resources and
    /// rounds a change to the solver would see on this input.
    pub fn last_shape(&self) -> SolveShape {
        self.ws.last_shape()
    }
}

/// Progress of one directed pair of a flow group through the transfer
/// loop, kept as an anchor plus a whole number of epochs served at the
/// current quota so coalesced jumps and per-epoch steps evaluate
/// identical expressions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairProgress {
    pub(crate) src: usize,
    pub(crate) dst: usize,
    /// Remaining payload at the segment anchor, gigabits. Private, like
    /// `quota`: the drain memo below is valid only while both stand.
    remaining: f64,
    /// Moved payload at the anchor, gigabits.
    pub(crate) moved: f64,
    /// Busy time at the anchor, seconds.
    pub(crate) busy: f64,
    /// Per-epoch quota at the current rate (`rate · dt / 1000`), gigabits.
    quota: f64,
    /// Whole epochs served since the anchor.
    pub(crate) served: u64,
    pub(crate) active: bool,
    /// Memo of [`PairProgress::drain_epoch`]: [`DRAIN_UNKNOWN`] until
    /// asked, [`DRAIN_NEVER`] for a pair that cannot drain.
    drain_at: u64,
}

/// No valid drain epoch is 0: a pair drains after at least one epoch.
const DRAIN_UNKNOWN: u64 = 0;
const DRAIN_NEVER: u64 = u64::MAX;

impl PairProgress {
    pub(crate) fn new(src: usize, dst: usize, total: f64) -> Self {
        Self {
            src,
            dst,
            remaining: total,
            moved: 0.0,
            busy: 0.0,
            quota: 0.0,
            served: 0,
            active: total > PAYLOAD_EPS_GB,
            drain_at: DRAIN_UNKNOWN,
        }
    }

    /// Remaining payload at the segment anchor, in gigabits.
    pub(crate) fn remaining(&self) -> f64 {
        self.remaining
    }

    /// Per-epoch quota at the current rate, in gigabits.
    pub(crate) fn quota(&self) -> f64 {
        self.quota
    }

    /// Remaining payload after the served epochs, in gigabits.
    pub(crate) fn current_remaining(&self) -> f64 {
        self.remaining - self.served as f64 * self.quota
    }

    /// Mean throughput while busy as of the anchor, in Mbps.
    pub(crate) fn achieved_mbps(&self) -> f64 {
        if self.busy > 0.0 {
            self.moved * 1000.0 / self.busy
        } else {
            0.0
        }
    }

    /// Installs the quota of a fresh fairness solve, re-anchoring first
    /// if it differs from the one the pair has been served at.
    pub(crate) fn set_quota(&mut self, quota: f64, dt: f64) {
        if quota != self.quota {
            self.reanchor(dt);
            self.quota = quota;
            self.drain_at = DRAIN_UNKNOWN;
        }
    }

    /// Epoch count since the anchor at which an active pair drains at its
    /// current quota ([`epochs_to_drain`]), or `None` if it never does.
    /// The answer depends only on the anchor and the quota, so it is
    /// computed once per (anchor, quota) and reused while epochs are
    /// served against them.
    pub(crate) fn drain_epoch(&mut self) -> Option<u64> {
        if self.drain_at == DRAIN_UNKNOWN {
            self.drain_at =
                epochs_to_drain(self.remaining, self.quota, self.served).unwrap_or(DRAIN_NEVER);
        }
        (self.drain_at != DRAIN_NEVER).then_some(self.drain_at)
    }

    /// Epochs from now until the pair drains ([`PairProgress::drain_epoch`]
    /// less `served`), if fewer than `below`; `None` if not, or never.
    /// The loop asks every pair in flight after every solve, most quotas
    /// have just changed (so the memo is cold) and only the soonest drain
    /// matters — and one product settles a pair that is not it:
    /// `remaining − m·quota` does not rise with `m`, so a pair still above
    /// the drain threshold at `m = served + below − 1` drains no sooner
    /// than `below` epochs from now, and is spared the division and the
    /// search. The threshold test is the search's own expression.
    pub(crate) fn epochs_left_below(&mut self, below: u64) -> Option<u64> {
        if self.drain_at == DRAIN_UNKNOWN && self.quota > 0.0 {
            let last = self.served.checked_add(below - 1).filter(|&m| m < DRAIN_CAP);
            if last.is_some_and(|m| self.remaining - m as f64 * self.quota > PAYLOAD_EPS_GB) {
                return None;
            }
        }
        self.drain_epoch().map(|m| m - self.served).filter(|&left| left < below)
    }

    /// Folds the served epochs into the anchor; called when the pair's
    /// quota is about to change and when a run ends mid-segment.
    pub(crate) fn reanchor(&mut self, dt: f64) {
        if self.served > 0 {
            let m = self.served as f64;
            self.remaining -= m * self.quota;
            self.moved += m * self.quota;
            self.busy += m * dt;
            self.served = 0;
            self.drain_at = DRAIN_UNKNOWN;
        }
    }

    /// Marks the pair drained: its last served epoch moved the remainder
    /// (including any sub-epsilon crumb, ~1 bit at most).
    pub(crate) fn drain(&mut self, dt: f64) {
        self.busy += self.served as f64 * dt;
        self.moved += self.remaining;
        self.remaining = 0.0;
        self.served = 0;
        self.active = false;
    }

    /// Serves a *fraction* of an epoch (`0 < frac < 1`) at the current
    /// quota, folding straight into the anchor. Only a caller deadline (a
    /// compute timer of another tenant) landing strictly inside an epoch
    /// takes this path; [`NetSim::run_transfers`] has no deadline and
    /// serves whole epochs only.
    pub(crate) fn serve_partial(&mut self, frac: f64, dt: f64) {
        self.reanchor(dt);
        let moved = (frac * self.quota).min(self.remaining);
        self.remaining -= moved;
        self.moved += moved;
        self.busy += frac * dt;
        self.drain_at = DRAIN_UNKNOWN;
    }
}

/// Epoch counts at or past this are "never": `m as f64` stops being exact.
const DRAIN_CAP: u64 = 1 << 53;

/// Where [`epochs_to_drain`] starts looking: `(remaining − ε) / quota`
/// rounded up, or `served + 1` if that is larger or the estimate is
/// negative, not finite or ≥ 2^53. Rounds without `f64::ceil`, a libm
/// call on baseline x86-64: below 2^53 the truncation converts back
/// exactly, so one compare says whether it fell short. (NaN fails both
/// range tests; `-0.0` passes the first, as it did `ceil`'s.)
fn drain_estimate(remaining: f64, quota: f64, served: u64) -> u64 {
    let est = (remaining - PAYLOAD_EPS_GB) / quota;
    if est >= 0.0 && est < DRAIN_CAP as f64 {
        let whole = est as u64;
        (whole + u64::from((whole as f64) < est)).max(served + 1)
    } else {
        served + 1
    }
}

/// Smallest epoch count `m > served` at which a pair at `quota` gigabits
/// per epoch falls to ≤ [`PAYLOAD_EPS_GB`] remaining, or `None` if it
/// never drains (zero or vanishing rate). The pair must still be active:
/// more than [`PAYLOAD_EPS_GB`] left after `served` epochs. Evaluates
/// the exact float expression of [`PairProgress::current_remaining`], so
/// the answer matches per-epoch stepping bit for bit.
fn epochs_to_drain(remaining: f64, quota: f64, served: u64) -> Option<u64> {
    if quota <= 0.0 {
        return None;
    }
    let left_after = |m: u64| remaining - m as f64 * quota;
    let mut hi = drain_estimate(remaining, quota, served);
    while left_after(hi) > PAYLOAD_EPS_GB {
        if hi >= DRAIN_CAP {
            return None;
        }
        hi = hi.saturating_mul(2).min(DRAIN_CAP);
    }
    // left_after is monotone non-increasing in m, left_after(served) > eps.
    // The ceil estimate is almost always exact: one look at its
    // predecessor confirms it without the search.
    let mut lo = served;
    if hi - lo > 1 && left_after(hi - 1) > PAYLOAD_EPS_GB {
        return Some(hi);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if left_after(mid) <= PAYLOAD_EPS_GB {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Whole epochs of length `dt` from `now_s` that the coalescing fast
/// path may jump without overshooting an event at `next_s` (≥ 1;
/// `u64::MAX` when the event time is not finite). The bound lands
/// exactly on the epoch whose solve point first sees the event, so
/// coalesced jumps apply it at the same simulated epoch as per-epoch
/// stepping — faults, dynamics ticks and hook wakes all share this clip.
pub(crate) fn epochs_until_event(now_s: f64, next_s: f64, dt: f64) -> u64 {
    if !next_s.is_finite() {
        return u64::MAX;
    }
    let k = ((next_s - now_s - 1e-9) / dt).ceil();
    if k <= 1.0 {
        1
    } else if k >= u64::MAX as f64 {
        u64::MAX
    } else {
        k as u64
    }
}

/// The deterministic WAN simulator.
///
/// See the crate-level documentation for the model; all randomness flows
/// from the seed given to [`NetSim::new`].
#[derive(Debug)]
pub struct NetSim {
    topo: Topology,
    params: LinkModelParams,
    /// Per-directed-pair constants of the link model. `topo` and `params`
    /// never change after construction, so neither do these.
    links: Grid<LinkStatic>,
    dynamics: Dynamics,
    rng: StdRng,
    time_s: f64,
    pub(crate) throttles: Grid<f64>,
    /// Per-pair caps reserved by a cross-shard backbone exchange
    /// ([`crate::backbone`]); `f64::INFINITY` everywhere when this
    /// simulator is not a shard of a sharded fleet.
    backbone_caps: Grid<f64>,
    pub(crate) last_run_stats: RunStats,
    /// Installed fault schedule plus live fault state; `None` until
    /// [`NetSim::set_fault_schedule`], keeping fault-free runs bit-identical
    /// to builds that predate the fault layer.
    faults: Option<Box<ActiveFaults>>,
    /// Total simulated seconds spent with any fault active.
    degraded_s: f64,
    /// Buffers of the probes in `probe.rs`, which gauge thousands of
    /// times per run.
    pub(crate) probe: ProbeScratch,
}

/// What the link model says about a directed DC pair before any runtime
/// state (dynamics, faults, throttles, reservations) is applied.
#[derive(Debug, Clone, Copy, Default)]
struct LinkStatic {
    /// [`LinkModelParams::conn_cap_mbps`] at the pair's distance.
    conn_cap_mbps: f64,
    /// [`LinkModelParams::conn_weight`] at the pair's distance.
    conn_weight: f64,
    /// Whether the endpoints sit in different cloud providers.
    cross_provider: bool,
}

/// Everything the simulator's runtime state says about one directed pair
/// at one instant: what a flow's ceiling is made of besides its
/// connection count. Read once per pair, it serves every flow on it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairState {
    conn_cap_mbps: f64,
    conn_weight: f64,
    multiplier: f64,
    fault_factor: f64,
    /// [`LinkModelParams::cross_provider_factor`] if the pair crosses
    /// providers.
    provider_factor: Option<f64>,
    throttle_mbps: f64,
    backbone_cap_mbps: f64,
}

impl PairState {
    /// See [`NetSim::unreserved_ceiling_mbps`].
    fn unreserved_ceiling_mbps(&self, conns: u32) -> f64 {
        let mut cap = f64::from(conns) * self.conn_cap_mbps;
        cap *= self.multiplier;
        cap *= self.fault_factor;
        if let Some(factor) = self.provider_factor {
            cap *= factor;
        }
        cap.min(self.throttle_mbps)
    }

    /// Effective ceiling of a flow of `conns` connections in Mbps: the
    /// unreserved ceiling further capped by any backbone reservation.
    fn ceiling_mbps(&self, conns: u32) -> f64 {
        self.unreserved_ceiling_mbps(conns).min(self.backbone_cap_mbps)
    }
}

/// Solver scratch plus the all-pairs flow list of a measurement round.
#[derive(Debug, Default)]
pub(crate) struct ProbeScratch {
    pub(crate) rates: RateScratch,
    pub(crate) flows: Vec<FlowSpec>,
}

impl NetSim {
    /// Creates a simulator over `topo` with the given parameters and seed.
    pub fn new(topo: Topology, params: LinkModelParams, seed: u64) -> Self {
        let n = topo.len();
        let dynamics = Dynamics::with_tick(
            n,
            params.dynamics_sigma,
            params.dynamics_theta,
            params.dynamics_tick_s,
        );
        let link = |i: usize, j: usize| {
            let dist = topo.distance_miles(DcId(i), DcId(j));
            LinkStatic {
                conn_cap_mbps: params.conn_cap_mbps(dist),
                conn_weight: params.conn_weight(dist),
                cross_provider: topo.dc(DcId(i)).region.provider()
                    != topo.dc(DcId(j)).region.provider(),
            }
        };
        // A link's statics depend on the pair only through its distance
        // and provider mismatch, both symmetric (the topology mirrors its
        // distance grid): one `powf` pair serves both directions, and one
        // serves every DC's zero-mile link to itself.
        let links = Grid::symmetric(n, link(0, 0), link);
        Self {
            topo,
            params,
            links,
            dynamics,
            rng: StdRng::seed_from_u64(seed),
            time_s: 0.0,
            throttles: Grid::filled(n, f64::INFINITY),
            backbone_caps: Grid::filled(n, f64::INFINITY),
            last_run_stats: RunStats::default(),
            faults: None,
            degraded_s: 0.0,
            probe: ProbeScratch::default(),
        }
    }

    /// The simulated topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The link-model parameters.
    pub fn params(&self) -> &LinkModelParams {
        &self.params
    }

    /// Current simulation time in seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Length of one transfer epoch in seconds (at least a millisecond).
    pub(crate) fn epoch_dt(&self) -> f64 {
        self.params.epoch_dt_s.max(1e-3)
    }

    /// Mutable access to the RNG (probe noise shares the seed stream).
    pub(crate) fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Current dynamics multipliers (for inspection/testing).
    pub fn dynamics(&self) -> &Dynamics {
        &self.dynamics
    }

    /// Mutable access to the dynamics, for installing piecewise
    /// components ([`Dynamics::set_diurnal`], [`Dynamics::set_decay`]).
    pub fn dynamics_mut(&mut self) -> &mut Dynamics {
        &mut self.dynamics
    }

    /// Whether the event-coalescing fast path may serve multi-epoch
    /// segments: rate changes must be schedulable, i.e. the dynamics are
    /// tick-quantized (frozen dynamics trivially are). Only the legacy
    /// continuous process (`dynamics_tick_s <= 0`) reports `false`.
    pub fn coalescible(&self) -> bool {
        self.dynamics.is_schedulable()
    }

    /// Statistics about the most recent [`NetSim::run_transfers`] call or
    /// the cumulative work of an attached [`crate::engine::NetEngine`]
    /// (mirrored here after every step, so they stay coherent across
    /// mid-flight submissions).
    pub fn last_run_stats(&self) -> RunStats {
        self.last_run_stats
    }

    /// Caps the directed pair `src → dst` at `cap_mbps` (traffic control,
    /// paper §3.2.2 "Throttling BW").
    pub fn set_throttle(&mut self, src: DcId, dst: DcId, cap_mbps: f64) {
        self.throttles.put(src, dst, cap_mbps.max(0.0));
    }

    /// Removes all traffic-control caps.
    pub fn clear_throttles(&mut self) {
        let n = self.topo.len();
        self.throttles = Grid::filled(n, f64::INFINITY);
    }

    /// Current throttle table.
    pub fn throttles(&self) -> &Grid<f64> {
        &self.throttles
    }

    /// Replaces the backbone reservation caps wholesale. A sharded fleet
    /// driver calls this at every epoch-exchange sync point with the
    /// per-pair shares its shard reserved on the cross-shard backbone;
    /// `f64::INFINITY` cells leave a pair unconstrained. Composes with
    /// (does not overwrite) any traffic-control throttles.
    ///
    /// # Panics
    ///
    /// Panics if `caps` does not match the topology size.
    pub fn set_backbone_caps(&mut self, caps: Grid<f64>) {
        assert_eq!(caps.len(), self.topo.len(), "backbone caps must match topology size");
        self.backbone_caps = caps;
    }

    /// Removes every backbone reservation cap.
    pub fn clear_backbone_caps(&mut self) {
        let n = self.topo.len();
        self.backbone_caps = Grid::filled(n, f64::INFINITY);
    }

    /// Current backbone reservation caps.
    pub fn backbone_caps(&self) -> &Grid<f64> {
        &self.backbone_caps
    }

    /// Installs a [`FaultSchedule`]: events fire at the first solve point
    /// at or after their timestamp as the simulation advances, scaling
    /// per-pair bandwidth multiplicatively (a downed DC zeroes every WAN
    /// pair touching it). Replaces any prior schedule and resets the fault
    /// state to healthy; event times are absolute simulation seconds.
    ///
    /// # Panics
    ///
    /// Panics if an event names a DC outside the topology.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.faults = Some(Box::new(ActiveFaults::install(schedule, self.topo.len())));
    }

    /// Applies every scheduled fault due at the current simulation time;
    /// returns how many events fired. The transfer loop calls this at every
    /// solve point; per-epoch reference loops (and tests) may call it
    /// directly to mirror that cadence.
    pub fn poll_faults(&mut self) -> usize {
        let now = self.time_s;
        self.faults.as_mut().map_or(0, |f| f.poll(now))
    }

    /// Timestamp of the next unapplied fault event, or `INFINITY`.
    pub fn next_fault_s(&self) -> f64 {
        self.faults.as_ref().map_or(f64::INFINITY, |f| f.next_at_s())
    }

    /// Whether any scheduled fault event has yet to fire. A stalled flow
    /// with pending faults may still recover; without them it never will.
    pub fn has_pending_faults(&self) -> bool {
        self.next_fault_s().is_finite()
    }

    /// Effective fault factor of the directed WAN pair `(i, j)`:
    /// 1.0 when healthy (or no schedule installed), 0.0 when either
    /// endpoint is down, the product of link/straggler/global factors
    /// otherwise. Intra-DC traffic is never faulted.
    pub fn fault_factor(&self, i: usize, j: usize) -> f64 {
        self.faults.as_ref().map_or(1.0, |f| f.state.factor(i, j))
    }

    /// Whether any fault is currently active.
    pub fn fault_degraded(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.state.is_degraded())
    }

    /// Total simulated seconds spent with any fault active.
    pub fn degraded_s(&self) -> f64 {
        self.degraded_s
    }

    /// Whether the DC is currently up (always true without a schedule).
    pub fn dc_is_up(&self, dc: DcId) -> bool {
        self.faults.as_ref().is_none_or(|f| f.state.dc_is_up(dc.0))
    }

    /// Up/down status of every DC (all up without a schedule).
    pub fn dcs_up(&self) -> Vec<bool> {
        match &self.faults {
            Some(f) => f.state.dcs_up().to_vec(),
            None => vec![true; self.topo.len()],
        }
    }

    /// Whole epochs of length `dt` the coalescing fast path may jump
    /// without overshooting the next scheduled fault (≥ 1; `u64::MAX`
    /// when no fault is pending). See [`epochs_until_event`].
    pub(crate) fn epochs_until_next_fault(&self, dt: f64) -> u64 {
        epochs_until_event(self.time_s, self.next_fault_s(), dt)
    }

    /// Whole epochs of length `dt` the coalescing fast path may jump
    /// without overshooting the next dynamics tick (≥ 1; `u64::MAX` when
    /// the multipliers will never change again). The bound lands on the
    /// epoch whose closing [`NetSim::advance`] crosses the tick, so the
    /// next solve sees the post-tick multipliers at the same simulated
    /// epoch as per-epoch stepping.
    pub(crate) fn epochs_until_next_rate_change(&self, dt: f64) -> u64 {
        match self.dynamics.next_change_after(self.time_s) {
            Some(next) => epochs_until_event(self.time_s, next, dt),
            None => u64::MAX,
        }
    }

    /// Advances to `until_s`, pausing at each scheduled fault time to
    /// apply it, so idle jumps (no active flows) keep the fault state and
    /// degraded-time accounting exact.
    pub(crate) fn advance_through_faults(&mut self, until_s: f64) {
        loop {
            let next = self.next_fault_s();
            if next > until_s {
                break;
            }
            let dt = next - self.time_s;
            if dt > 0.0 {
                self.advance(dt);
            }
            self.poll_faults();
        }
        let dt = until_s - self.time_s;
        if dt > 0.0 {
            self.advance(dt);
        }
    }

    /// Advances wall-clock time and bandwidth dynamics by `dt_s` seconds.
    pub fn advance(&mut self, dt_s: f64) {
        self.dynamics.advance(dt_s, &mut self.rng);
        self.time_s += dt_s;
        if self.fault_degraded() {
            self.degraded_s += dt_s;
        }
    }

    /// Jumps to an independent point in time (a different hour/day), as the
    /// paper does when collecting training data over a week (§5.1).
    pub fn shuffle_time(&mut self) {
        self.dynamics.shuffle_epoch(&mut self.rng);
        self.time_s += 3600.0;
    }

    /// Ceiling of a flow in Mbps *before* backbone reservations: window
    /// limit × dynamics × provider factor, capped by any traffic-control
    /// throttle. This is the demand signal a cross-shard epoch exchange
    /// measures — deliberately blind to the backbone caps it feeds, so a
    /// shard's reservation tracks what it *wants*, not what it was last
    /// granted.
    pub fn unreserved_ceiling_mbps(&self, f: &FlowSpec) -> f64 {
        self.pair_state(f.src.0, f.dst.0).unreserved_ceiling_mbps(f.conns)
    }

    /// The directed pair `src → dst` as the simulator stands.
    fn pair_state(&self, src: usize, dst: usize) -> PairState {
        let link = self.links.get(src, dst);
        PairState {
            conn_cap_mbps: link.conn_cap_mbps,
            conn_weight: link.conn_weight,
            multiplier: self.dynamics.multiplier(src, dst),
            fault_factor: self.fault_factor(src, dst),
            provider_factor: link.cross_provider.then_some(self.params.cross_provider_factor),
            throttle_mbps: self.throttles.get(src, dst),
            backbone_cap_mbps: self.backbone_caps.get(src, dst),
        }
    }

    /// Allocates instantaneous rates (Mbps) to a set of concurrent flows
    /// under weighted max-min fairness with congestion-degraded NIC caps.
    ///
    /// Intra-DC flows (`src == dst`) are never WAN-limited and receive an
    /// effectively unbounded rate, matching the paper's system model (§2.1).
    ///
    /// Convenience wrapper over [`NetSim::allocate_rates_with`] that pays
    /// for fresh buffers; hot loops should hold a [`RateScratch`].
    pub fn allocate_rates(&self, flows: &[FlowSpec]) -> Vec<f64> {
        let mut scratch = RateScratch::default();
        self.allocate_rates_with(flows, &mut scratch).to_vec()
    }

    /// Allocation-free variant of [`NetSim::allocate_rates`]: files the
    /// flows pair-major in `scratch`'s reused lists, each under its input
    /// index, and solves them with the reused workspace. Resources are
    /// visited in a fully deterministic order (per-DC egress/ingress, then
    /// backbone paths in ascending `(src, dst)` order), so identical inputs
    /// always produce bit-identical rates across runs and platforms.
    /// Filing costs O(flows + DCs): a one-flow gauge on a 64-DC topology
    /// does no per-pair work.
    ///
    /// This is the stateless entry, for gauges and probes. The transfer
    /// loop ([`crate::engine`]) files its pairs in flight with the same
    /// pass and solves them with the same workspace code at every event.
    pub fn allocate_rates_with<'s>(
        &self,
        flows: &[FlowSpec],
        scratch: &'s mut RateScratch,
    ) -> &'s [f64] {
        let s = scratch;
        s.flows.file(self.topo.len(), flows, |f| (f.src.0, f.dst.0, f.conns));
        s.ws.solve_pairs(&s.flows, self, flows.len());
        let solved = s.ws.rates();
        s.rates.clear();
        s.rates.extend(flows.iter().enumerate().map(|(slot, f)| match (f.src == f.dst, f.conns) {
            (_, 0) => 0.0,
            // Intra-DC transfers run at LAN speed; model as very fast.
            (true, _) => INTRA_DC_MBPS,
            (false, _) => solved[slot],
        }));
        &s.rates
    }

    /// Simulates the given transfers to completion.
    ///
    /// `conns` gives the initial parallel-connection matrix; an optional
    /// [`EpochHook`] (WANify's local agents) may mutate connections and
    /// throttles between epochs. Returns per-transfer completion times and
    /// bandwidth statistics.
    ///
    /// The transfers run as one flow group on the transfer loop of
    /// [`crate::engine`], with the network to themselves and no deadline.
    /// Epochs between rate-change events — pair drains, fault boundaries,
    /// dynamics ticks and hook wakes — are coalesced: fairness is
    /// re-solved only where rates can actually change, with results
    /// bit-identical to per-epoch stepping (see the module docs). A hook
    /// whose [`EpochHook::next_wake`] returns `None` (the default) and the
    /// legacy continuous dynamics force the per-epoch path.
    /// [`NetSim::last_run_stats`] exposes the solve count either way.
    ///
    /// Transfers the loop gives up on — permanently stalled (every
    /// remaining pair at rate zero, nothing scheduled to change that) or
    /// out of [`MAX_EPOCHS`] — are reported as they stand over the whole
    /// epoch budget, with [`TransferReport::truncated`] set.
    ///
    /// # Panics
    ///
    /// Panics if `conns` does not match the topology size or any transfer
    /// has a negative payload.
    pub fn run_transfers<'a, 'b: 'a>(
        &mut self,
        transfers: &[Transfer],
        conns: &ConnMatrix,
        hook: Option<&'a mut (dyn EpochHook + 'b)>,
    ) -> TransferReport {
        // With a hook, the reported flag tracks whether it scheduled wakes.
        let mut lp = TransferLoop::new(self.coalescible() && hook.is_none());
        let id = lp.submit(self, transfers, conns);
        let mut seat = hook.map(|h| HookSeat::new(h, transfers, conns));
        let (group, truncated) = match lp.advance(self, f64::INFINITY, seat.as_mut()).pop() {
            Some(group) => (group, false),
            None => {
                // The loop gave the group up as permanently stalled, or
                // it ran out of `MAX_EPOCHS`. A blocking call has nobody
                // to hand a stall to: cover what is left of the budget in
                // one jump (clock and busy time advance, nothing moves)
                // and report the group as it stands, truncated.
                let left = MAX_EPOCHS as u64 - lp.stats.epochs;
                if left > 0 {
                    lp.serve(self, left, seat.as_mut());
                }
                (lp.cancel(self, id).expect("the lone group is still in flight"), true)
            }
        };
        self.last_run_stats = lp.stats;

        // The group's accounting, per pair and per original transfer.
        // Transfers on a pair share a flow, so each finishes with it.
        let (n, dt) = (self.topo.len(), self.epoch_dt());
        let mut busy_s = BwMatrix::new(n);
        let mut achieved = BwMatrix::new(n);
        for pair in &group.pairs {
            busy_s.set(pair.src, pair.dst, pair.busy);
            achieved.set(pair.src, pair.dst, pair.achieved_mbps());
        }
        let completion = transfers
            .iter()
            .map(|t| busy_s.at(t.src, t.dst).max(if t.gigabits > 0.0 { dt } else { 0.0 }))
            .collect();
        let summary = group.report(n, dt);
        TransferReport {
            makespan_s: summary.makespan_s,
            completion_s: completion,
            achieved_bw: achieved,
            min_pair_bw_mbps: summary.min_pair_bw_mbps,
            egress_gigabits: summary.egress_gigabits,
            epochs: lp.stats.epochs as usize,
            truncated,
        }
    }
}

/// The simulator as it stands, for a fairness solve: what the link model
/// says of every NIC and directed pair at this instant.
impl Network for NetSim {
    type Pair = PairState;

    fn egress_cap_mbps(&self, host: usize, conns: u32) -> f64 {
        let dc = self.topo.dc(DcId(host));
        dc.egress_cap_mbps() / self.params.congestion_divisor(conns, dc.conn_budget())
    }

    fn ingress_cap_mbps(&self, host: usize, conns: u32) -> f64 {
        let dc = self.topo.dc(DcId(host));
        dc.ingress_cap_mbps() / self.params.congestion_divisor(conns, dc.conn_budget())
    }

    fn pair(&self, src: usize, dst: usize) -> PairState {
        self.pair_state(src, dst)
    }

    fn path_cap_mbps(&self, pair: &PairState) -> f64 {
        self.params.path_cap_mbps * pair.multiplier * pair.fault_factor
    }

    fn weight(&self, pair: &PairState, conns: u32) -> f64 {
        f64::from(conns) * pair.conn_weight
    }

    fn ceiling_mbps(&self, pair: &PairState, conns: u32) -> f64 {
        pair.ceiling_mbps(conns)
    }
}

/// Bit-exact references for the parity tests below and for the transfer
/// loop's shadow oracle: the rate allocation and the drain horizon as they
/// stood before the fast paths, verbatim.
#[cfg(any(test, debug_assertions))]
pub(crate) mod reference {
    use super::*;
    use crate::fairness::reference::{FairnessProblem, ReferenceWorkspace, ResourceKind};

    /// Problem index of an input flow that no WAN resource constrains.
    const NOT_IN_PROBLEM: usize = usize::MAX;

    /// `NetSim::unreserved_ceiling_mbps` straight from the link model:
    /// two `powf` and two provider lookups per call, no pair table.
    fn unreserved_ceiling_mbps(sim: &NetSim, f: &FlowSpec) -> f64 {
        let dist = sim.topo.distance_miles(f.src, f.dst);
        let mut cap = f64::from(f.conns) * sim.params.conn_cap_mbps(dist);
        cap *= sim.dynamics.multiplier(f.src.0, f.dst.0);
        cap *= sim.fault_factor(f.src.0, f.dst.0);
        let src_provider = sim.topo.dc(f.src).region.provider();
        let dst_provider = sim.topo.dc(f.dst).region.provider();
        if src_provider != dst_provider {
            cap *= sim.params.cross_provider_factor;
        }
        cap.min(sim.throttles.at(f.src, f.dst))
    }

    fn flow_ceiling(sim: &NetSim, f: &FlowSpec) -> f64 {
        unreserved_ceiling_mbps(sim, f).min(sim.backbone_caps.at(f.src, f.dst))
    }

    fn flow_weight(sim: &NetSim, f: &FlowSpec) -> f64 {
        let dist = sim.topo.distance_miles(f.src, f.dst);
        f64::from(f.conns) * sim.params.conn_weight(dist)
    }

    /// `NetSim::allocate_rates_with` straight from the link model: a
    /// problem built flow by flow with the `n² + 1`-bucket counting sort,
    /// every resource kept, solved by the all-flows-per-round reference
    /// solver — whose rates the problem then holds to its physical limits
    /// (`FairnessProblem::audit`).
    pub(crate) fn allocate_rates(sim: &NetSim, flows: &[FlowSpec]) -> Vec<f64> {
        let n = sim.topo.len();
        let mut problem = FairnessProblem::new();
        let mut problem_index = Vec::new();
        let mut host_conns = vec![0u32; n];

        for f in flows {
            if f.src == f.dst || f.conns == 0 {
                problem_index.push(NOT_IN_PROBLEM);
                continue;
            }
            let idx = problem.add_flow(flow_weight(sim, f), flow_ceiling(sim, f));
            problem_index.push(idx);
            host_conns[f.src.0] += f.conns;
            host_conns[f.dst.0] += f.conns;
        }
        let wan_flows = problem.flow_count();

        let mut sd_offsets = vec![0usize; n * n + 1];
        let mut dst_offsets = vec![0usize; n + 1];
        for (i, f) in flows.iter().enumerate() {
            if problem_index[i] != NOT_IN_PROBLEM {
                sd_offsets[f.src.0 * n + f.dst.0 + 1] += 1;
                dst_offsets[f.dst.0 + 1] += 1;
            }
        }
        for k in 0..n * n {
            sd_offsets[k + 1] += sd_offsets[k];
        }
        for k in 0..n {
            dst_offsets[k + 1] += dst_offsets[k];
        }
        let mut sd_cursor = sd_offsets[..n * n].to_vec();
        let mut dst_cursor = dst_offsets[..n].to_vec();
        let mut sd_flows = vec![0usize; wan_flows];
        let mut dst_flows = vec![0usize; wan_flows];
        for (i, f) in flows.iter().enumerate() {
            let idx = problem_index[i];
            if idx == NOT_IN_PROBLEM {
                continue;
            }
            let key = f.src.0 * n + f.dst.0;
            sd_flows[sd_cursor[key]] = idx;
            sd_cursor[key] += 1;
            dst_flows[dst_cursor[f.dst.0]] = idx;
            dst_cursor[f.dst.0] += 1;
        }

        for dc in 0..n {
            let d = sim.topo.dc(DcId(dc));
            let divisor = sim.params.congestion_divisor(host_conns[dc], d.conn_budget());
            let egress = &sd_flows[sd_offsets[dc * n]..sd_offsets[(dc + 1) * n]];
            if !egress.is_empty() {
                problem.add_resource(
                    ResourceKind::Egress(dc),
                    d.egress_cap_mbps() / divisor,
                    egress,
                );
            }
            let ingress = &dst_flows[dst_offsets[dc]..dst_offsets[dc + 1]];
            if !ingress.is_empty() {
                problem.add_resource(
                    ResourceKind::Ingress(dc),
                    d.ingress_cap_mbps() / divisor,
                    ingress,
                );
            }
        }
        for src in 0..n {
            for dst in 0..n {
                let key = src * n + dst;
                let members = &sd_flows[sd_offsets[key]..sd_offsets[key + 1]];
                if !members.is_empty() {
                    let cap = sim.params.path_cap_mbps
                        * sim.dynamics.multiplier(src, dst)
                        * sim.fault_factor(src, dst);
                    problem.add_resource(ResourceKind::Path(src, dst), cap, members);
                }
            }
        }

        let mut ws = ReferenceWorkspace::default();
        problem.audit(ws.solve(&problem));
        flows
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let idx = problem_index[i];
                if idx != NOT_IN_PROBLEM {
                    ws.rates()[idx]
                } else if f.src == f.dst && f.conns > 0 {
                    INTRA_DC_MBPS
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// `drain_estimate` by way of `f64::ceil`.
    #[cfg(test)]
    pub(super) fn drain_estimate(remaining: f64, quota: f64, served: u64) -> u64 {
        const CAP: u64 = 1 << 53;
        let est = ((remaining - PAYLOAD_EPS_GB) / quota).ceil();
        if est.is_finite() && est >= 0.0 && est < CAP as f64 {
            (est as u64).max(served + 1)
        } else {
            served + 1
        }
    }

    /// `epochs_to_drain` without the predecessor shortcut: always the
    /// binary search.
    #[cfg(test)]
    pub(super) fn epochs_to_drain(remaining: f64, quota: f64, served: u64) -> Option<u64> {
        if quota <= 0.0 {
            return None;
        }
        let left_after = |m: u64| remaining - m as f64 * quota;
        const CAP: u64 = 1 << 53;
        let mut hi = drain_estimate(remaining, quota, served);
        while left_after(hi) > PAYLOAD_EPS_GB {
            if hi >= CAP {
                return None;
            }
            hi = hi.saturating_mul(2).min(CAP);
        }
        let mut lo = served;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if left_after(mid) <= PAYLOAD_EPS_GB {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Region;
    use crate::vm::VmType;

    fn sim3() -> NetSim {
        let topo = Topology::builder()
            .dc(Region::UsEast, VmType::t3_nano(), 1)
            .dc(Region::UsWest, VmType::t3_nano(), 1)
            .dc(Region::ApSoutheast1, VmType::t3_nano(), 1)
            .build()
            .unwrap();
        NetSim::new(topo, LinkModelParams::frozen(), 1)
    }

    #[test]
    fn lone_flow_is_window_limited_on_long_paths() {
        let sim = sim3();
        let rates = sim.allocate_rates(&[FlowSpec::new(DcId(0), DcId(2), 1)]);
        assert!((100.0..150.0).contains(&rates[0]), "US East→AP SE single conn: {}", rates[0]);
    }

    #[test]
    fn lone_flow_nic_limited_on_short_paths() {
        let sim = sim3();
        let rates = sim.allocate_rates(&[FlowSpec::new(DcId(0), DcId(1), 4)]);
        let nic = sim.topology().dc(DcId(0)).egress_cap_mbps();
        assert!(rates[0] <= nic + 1e-6);
        assert!(rates[0] > 0.8 * nic, "4 conns should saturate the NIC, got {}", rates[0]);
    }

    #[test]
    fn parallel_connections_raise_weak_link_throughput() {
        let sim = sim3();
        let one = sim.allocate_rates(&[FlowSpec::new(DcId(0), DcId(2), 1)])[0];
        let nine = sim.allocate_rates(&[FlowSpec::new(DcId(0), DcId(2), 9)])[0];
        assert!(nine > 6.0 * one, "9 conns: {nine} vs 1 conn: {one}");
        assert!((800.0..1300.0).contains(&nine), "paper: ~1 Gbps with 9 conns, got {nine}");
    }

    #[test]
    fn contention_starves_long_rtt_flows() {
        let sim = sim3();
        let flows = [
            FlowSpec::new(DcId(0), DcId(1), 8), // nearby, well-parallelized
            FlowSpec::new(DcId(0), DcId(2), 1), // distant, same egress NIC
        ];
        let rates = sim.allocate_rates(&flows);
        let alone = sim.allocate_rates(&[flows[1]])[0];
        assert!(rates[1] < alone, "contended {} vs alone {alone}", rates[1]);
        assert!(rates[0] > 4.0 * rates[1], "RTT bias should favor the nearby flow");
    }

    #[test]
    fn throttle_caps_flow() {
        let mut sim = sim3();
        sim.set_throttle(DcId(0), DcId(1), 200.0);
        let rates = sim.allocate_rates(&[FlowSpec::new(DcId(0), DcId(1), 8)]);
        assert!(rates[0] <= 200.0 + 1e-6);
        sim.clear_throttles();
        let rates = sim.allocate_rates(&[FlowSpec::new(DcId(0), DcId(1), 8)]);
        assert!(rates[0] > 1000.0);
    }

    #[test]
    fn backbone_caps_compose_with_throttles_and_clear() {
        let mut sim = sim3();
        let flow = [FlowSpec::new(DcId(0), DcId(1), 8)];
        let free = sim.allocate_rates(&flow)[0];
        // A backbone reservation caps the pair like a throttle would…
        let mut caps = Grid::filled(3, f64::INFINITY);
        caps.set(0, 1, 150.0);
        sim.set_backbone_caps(caps);
        assert!(sim.allocate_rates(&flow)[0] <= 150.0 + 1e-6);
        // …composes with (does not overwrite) traffic control: the
        // tighter of the two wins.
        sim.set_throttle(DcId(0), DcId(1), 90.0);
        assert!(sim.allocate_rates(&flow)[0] <= 90.0 + 1e-6);
        // The demand signal stays blind to the reservation, capped only
        // by the throttle.
        assert!((sim.unreserved_ceiling_mbps(&flow[0]) - 90.0).abs() < 1e-6);
        // Clearing the reservation restores the throttled rate; clearing
        // the throttle restores the free rate bit for bit.
        sim.clear_backbone_caps();
        assert!(sim.backbone_caps().get(0, 1).is_infinite());
        assert!(sim.allocate_rates(&flow)[0] <= 90.0 + 1e-6);
        sim.clear_throttles();
        assert_eq!(sim.allocate_rates(&flow)[0].to_bits(), free.to_bits());
    }

    #[test]
    fn intra_dc_flows_run_at_lan_speed() {
        let sim = sim3();
        let rates = sim.allocate_rates(&[FlowSpec::new(DcId(1), DcId(1), 1)]);
        assert_eq!(rates[0], INTRA_DC_MBPS);
    }

    #[test]
    fn zero_conn_flow_gets_zero() {
        let sim = sim3();
        let rates = sim.allocate_rates(&[FlowSpec::new(DcId(0), DcId(1), 0)]);
        assert_eq!(rates[0], 0.0);
    }

    #[test]
    fn oversubscribed_host_loses_goodput() {
        let sim = sim3();
        let modest = sim.allocate_rates(&[FlowSpec::new(DcId(0), DcId(1), 8)])[0];
        let flooded = sim.allocate_rates(&[FlowSpec::new(DcId(0), DcId(1), 64)])[0];
        assert!(
            flooded < modest,
            "64 conns ({flooded}) should underperform 8 conns ({modest}) via congestion"
        );
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        let sim = sim3();
        let mut scratch = RateScratch::default();
        let mixed = [
            FlowSpec::new(DcId(0), DcId(1), 8),
            FlowSpec::new(DcId(1), DcId(1), 1), // intra-DC
            FlowSpec::new(DcId(0), DcId(2), 2),
            FlowSpec::new(DcId(2), DcId(0), 0), // idle
        ];
        let first = sim.allocate_rates_with(&mixed, &mut scratch).to_vec();
        assert_eq!(first, sim.allocate_rates(&mixed));
        // A differently-shaped problem in between must not leak state…
        let _ = sim.allocate_rates_with(&[FlowSpec::new(DcId(2), DcId(1), 3)], &mut scratch);
        // …and re-solving the original is bit-identical.
        assert_eq!(sim.allocate_rates_with(&mixed, &mut scratch), first.as_slice());
    }

    #[test]
    fn one_flow_solve_on_64_dcs_sizes_no_buffer_by_dc_pairs() {
        // The gauge shape: 161 280 of these per `scale-hier` rep. Every
        // scratch buffer must be sized by flows or by DCs, never DCs².
        let topo = crate::paper_testbed_tiled(VmType::t2_medium(), 64);
        let sim = NetSim::new(topo, LinkModelParams::frozen(), 1);
        let mut s = RateScratch::default();
        let rate = sim.allocate_rates_with(&[FlowSpec::new(DcId(3), DcId(40), 1)], &mut s)[0];
        assert!(rate > 0.0);
        let sizes = [s.flows.footprint(), s.ws.footprint(), s.rates.len()];
        assert!(sizes.iter().all(|&len| len <= 2 * 64 + 1), "{sizes:?}");
        assert_eq!(s.flows.size(), (1, 3), "egress, ingress and one path");
    }

    #[test]
    fn allocate_rates_is_deterministic_across_calls() {
        // Regression for the HashMap-ordered Path resources the CSR
        // grouping replaced: repeated solves must be bit-identical.
        let sim = sim3();
        let flows: Vec<FlowSpec> = (0..3)
            .flat_map(|i| (0..3).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| FlowSpec::new(DcId(i), DcId(j), 1 + (i + 2 * j) as u32))
            .collect();
        let first = sim.allocate_rates(&flows);
        for _ in 0..10 {
            assert_eq!(sim.allocate_rates(&flows), first);
        }
    }

    #[test]
    fn run_transfers_completes_and_reports() {
        let mut sim = sim3();
        let transfers = [
            Transfer::new(DcId(0), DcId(1), 4.0),
            Transfer::new(DcId(0), DcId(2), 1.0),
            Transfer::new(DcId(2), DcId(1), 0.5),
        ];
        let conns = ConnMatrix::filled(3, 1);
        let report = sim.run_transfers(&transfers, &conns, None);
        assert!(report.makespan_s >= 1.0 && !report.truncated);
        assert_eq!(report.completion_s.len(), 3);
        assert!(report.min_pair_bw_mbps > 0.0);
        assert!(report.egress_gigabits[0] > 4.9, "DC0 sent 5 Gb total");
        assert!(report.max_pair_bw_mbps() >= report.min_pair_bw_mbps);
    }

    #[test]
    fn run_transfers_with_zero_payload_is_instant() {
        let mut sim = sim3();
        let conns = ConnMatrix::filled(3, 1);
        let report = sim.run_transfers(&[Transfer::new(DcId(0), DcId(1), 0.0)], &conns, None);
        assert_eq!(report.epochs, 0);
        assert_eq!(report.completion_s[0], 0.0);
        assert_eq!(sim.last_run_stats().solves, 0);
    }

    #[test]
    fn coalescing_solves_once_per_drain_event() {
        // Three pairs, frozen dynamics, no hook: the fast path may solve
        // at most once per pair-drain event (drains can coincide).
        let mut sim = sim3();
        let transfers = [
            Transfer::new(DcId(0), DcId(1), 40.0),
            Transfer::new(DcId(0), DcId(2), 10.0),
            Transfer::new(DcId(2), DcId(1), 5.0),
        ];
        let conns = ConnMatrix::filled(3, 2);
        let report = sim.run_transfers(&transfers, &conns, None);
        let stats = sim.last_run_stats();
        assert!(stats.coalesced);
        assert!(stats.solves <= 3, "3 drain events but {} solves", stats.solves);
        assert!(
            report.epochs as u64 > stats.solves * 10,
            "coalescing should skip most epochs: {} epochs, {} solves",
            report.epochs,
            stats.solves
        );
    }

    #[test]
    fn per_epoch_path_solves_every_epoch() {
        struct Noop;
        impl EpochHook for Noop {
            fn on_epoch(&mut self, _ctx: &mut EpochCtx<'_>) {}
        }
        let mut sim = sim3();
        let conns = ConnMatrix::filled(3, 1);
        let report =
            sim.run_transfers(&[Transfer::new(DcId(0), DcId(1), 2.0)], &conns, Some(&mut Noop));
        let stats = sim.last_run_stats();
        assert!(!stats.coalesced);
        assert_eq!(stats.solves, report.epochs as u64);
    }

    #[test]
    fn hook_can_raise_connections_mid_transfer() {
        struct Booster;
        impl EpochHook for Booster {
            fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
                ctx.conns.set(0, 2, 9);
            }
        }
        let mut sim = sim3();
        let conns = ConnMatrix::filled(3, 1);
        let slow = sim.run_transfers(&[Transfer::new(DcId(0), DcId(2), 2.0)], &conns, None);
        let mut sim = sim3();
        let fast =
            sim.run_transfers(&[Transfer::new(DcId(0), DcId(2), 2.0)], &conns, Some(&mut Booster));
        assert!(
            fast.makespan_s < slow.makespan_s,
            "boosted {} vs single-conn {}",
            fast.makespan_s,
            slow.makespan_s
        );
    }

    #[test]
    fn permanently_stalled_transfer_covers_the_epoch_budget() {
        // The blocking tail: the loop hands back a group that can never
        // drain, and the call — having nobody to pass the stall on to —
        // covers the rest of `MAX_EPOCHS` in one jump and says so.
        let dead_pair = |sim: &mut NetSim| sim.set_throttle(DcId(0), DcId(1), 0.0);
        let dead_dc = |sim: &mut NetSim| {
            let down = crate::faults::FaultKind::DcDown(DcId(1));
            sim.set_fault_schedule(crate::faults::FaultSchedule::new().at(0.0, down));
        };
        let stalls: [&dyn Fn(&mut NetSim); 2] = [&dead_pair, &dead_dc];
        for stall in stalls {
            let mut sim = sim3();
            stall(&mut sim);
            let conns = ConnMatrix::filled(3, 1);
            let report = sim.run_transfers(&[Transfer::new(DcId(0), DcId(1), 2.0)], &conns, None);
            assert!(report.truncated, "the budget is reported, not silently covered");
            assert_eq!(report.epochs, MAX_EPOCHS);
            assert_eq!(sim.time_s(), MAX_EPOCHS as f64 * sim.epoch_dt());
            assert_eq!(report.makespan_s, sim.time_s(), "stalled time is busy time");
            assert_eq!(report.egress_gigabits, vec![0.0; 3], "nothing moved");
            assert_eq!(report.min_pair_bw_mbps, 0.0);
            let stats = sim.last_run_stats();
            assert_eq!(stats.epochs, MAX_EPOCHS as u64);
            assert!(stats.solves <= 2, "the budget is covered, not stepped: {}", stats.solves);
        }
    }

    #[cfg(test)]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_flows() -> impl Strategy<Value = Vec<FlowSpec>> {
            proptest::collection::vec((0usize..3, 0usize..3, 0u32..12), 1..10).prop_map(|raw| {
                raw.into_iter().map(|(s, d, c)| FlowSpec::new(DcId(s), DcId(d), c)).collect()
            })
        }

        proptest! {
            #[test]
            fn rates_are_nonnegative_and_window_bounded(flows in arb_flows()) {
                let sim = sim3();
                let rates = sim.allocate_rates(&flows);
                for (f, &rate) in flows.iter().zip(&rates) {
                    prop_assert!(rate >= 0.0);
                    if f.src != f.dst && f.conns > 0 {
                        let dist = sim.topology().distance_miles(f.src, f.dst);
                        let window =
                            f64::from(f.conns) * sim.params().conn_cap_mbps(dist);
                        prop_assert!(rate <= window + 1e-6,
                            "flow {f:?} rate {rate} exceeds window {window}");
                    }
                }
            }

            #[test]
            fn no_host_nic_oversubscribed(flows in arb_flows()) {
                let sim = sim3();
                let rates = sim.allocate_rates(&flows);
                for h in 0..3 {
                    let egress: f64 = flows
                        .iter()
                        .zip(&rates)
                        .filter(|(f, _)| f.src == DcId(h) && f.src != f.dst)
                        .map(|(_, &r)| r)
                        .sum();
                    let cap = sim.topology().dc(DcId(h)).egress_cap_mbps();
                    prop_assert!(egress <= cap + 1e-6,
                        "host {h} egress {egress} exceeds NIC {cap}");
                }
            }

            #[test]
            fn transfers_conserve_payload(
                payloads in proptest::collection::vec(0.0f64..5.0, 3),
            ) {
                let mut sim = sim3();
                let transfers: Vec<Transfer> = payloads
                    .iter()
                    .enumerate()
                    .map(|(k, &gb)| Transfer::new(DcId(k % 3), DcId((k + 1) % 3), gb))
                    .collect();
                let conns = ConnMatrix::filled(3, 2);
                let report = sim.run_transfers(&transfers, &conns, None);
                let moved: f64 = report.egress_gigabits.iter().sum();
                let requested: f64 = payloads.iter().sum();
                prop_assert!((moved - requested).abs() < 1e-6,
                    "moved {moved} Gb vs requested {requested} Gb");
            }
        }
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical_to_none() {
        let transfers =
            [Transfer::new(DcId(0), DcId(2), 8.0), Transfer::new(DcId(0), DcId(1), 3.0)];
        let conns = ConnMatrix::filled(3, 2);
        let mut plain = sim3();
        let baseline = plain.run_transfers(&transfers, &conns, None);
        let mut faulted = sim3();
        faulted.set_fault_schedule(crate::faults::FaultSchedule::new());
        let report = faulted.run_transfers(&transfers, &conns, None);
        assert_eq!(report.makespan_s.to_bits(), baseline.makespan_s.to_bits());
        assert_eq!(report.min_pair_bw_mbps.to_bits(), baseline.min_pair_bw_mbps.to_bits());
        assert_eq!(report.epochs, baseline.epochs);
        assert_eq!(faulted.degraded_s(), 0.0);
    }

    #[test]
    fn dc_outage_stalls_the_pair_until_recovery() {
        let transfers = [Transfer::new(DcId(0), DcId(1), 4.0)];
        let conns = ConnMatrix::filled(3, 2);
        let mut clean = sim3();
        let fast = clean.run_transfers(&transfers, &conns, None);

        let mut sim = sim3();
        sim.set_fault_schedule(crate::faults::FaultSchedule::new().dc_outage(DcId(1), 1.0, 30.0));
        let slow = sim.run_transfers(&transfers, &conns, None);
        assert!(
            slow.makespan_s > 29.0,
            "payload must wait out the outage: {} vs clean {}",
            slow.makespan_s,
            fast.makespan_s
        );
        assert!((sim.degraded_s() - 29.0).abs() < 0.5, "degraded for ~29 s: {}", sim.degraded_s());
        assert!(!sim.fault_degraded(), "outage healed by completion");
        assert!(!sim.has_pending_faults());
        // Payload is conserved through the stall.
        let moved: f64 = slow.egress_gigabits.iter().sum();
        assert!((moved - 4.0).abs() < 1e-6);
    }

    #[test]
    fn link_degradation_scales_the_ceiling() {
        let mut sim = sim3();
        let flow = [FlowSpec::new(DcId(0), DcId(1), 2)];
        let healthy = sim.unreserved_ceiling_mbps(&flow[0]);
        sim.set_fault_schedule(crate::faults::FaultSchedule::new().at(
            0.0,
            crate::faults::FaultKind::LinkFactor { src: DcId(0), dst: DcId(1), factor: 0.25 },
        ));
        sim.poll_faults();
        let degraded = sim.unreserved_ceiling_mbps(&flow[0]);
        assert!((degraded - 0.25 * healthy).abs() < 1e-9, "{degraded} vs {healthy}");
        assert!(sim.fault_degraded());
        assert!(sim.dc_is_up(DcId(0)) && sim.dc_is_up(DcId(1)));
    }

    #[test]
    fn faulted_fast_path_matches_per_epoch_stepping() {
        // The coalesced jump must clip at each fault event and land on the
        // same epochs as per-epoch stepping (a Noop hook forces it).
        struct Noop;
        impl EpochHook for Noop {
            fn on_epoch(&mut self, _ctx: &mut EpochCtx<'_>) {}
        }
        let schedule = || {
            crate::faults::FaultSchedule::new()
                .dc_outage(DcId(2), 3.0, 9.0)
                .link_flap(DcId(0), DcId(1), 0.4, 2.0, 5.0, 3)
                .straggler(DcId(1), 0.7, 12.0)
                .diurnal(40.0, 0.6, 4, 1)
        };
        let transfers = [
            Transfer::new(DcId(0), DcId(1), 10.0),
            Transfer::new(DcId(0), DcId(2), 2.0),
            Transfer::new(DcId(2), DcId(1), 1.0),
        ];
        let conns = ConnMatrix::filled(3, 2);
        let mut coalesced = sim3();
        coalesced.set_fault_schedule(schedule());
        let a = coalesced.run_transfers(&transfers, &conns, None);
        assert!(coalesced.last_run_stats().coalesced);
        let mut stepped = sim3();
        stepped.set_fault_schedule(schedule());
        let b = stepped.run_transfers(&transfers, &conns, Some(&mut Noop));
        assert!(!stepped.last_run_stats().coalesced);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
        assert_eq!(a.min_pair_bw_mbps.to_bits(), b.min_pair_bw_mbps.to_bits());
        for (x, y) in a.completion_s.iter().zip(&b.completion_s) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(coalesced.degraded_s().to_bits(), stepped.degraded_s().to_bits());
    }

    #[test]
    fn faulted_runs_are_bit_identical_across_repeats() {
        let run = || {
            let mut sim = sim3();
            sim.set_fault_schedule(
                crate::faults::FaultSchedule::new()
                    .dc_outage(DcId(1), 2.0, 12.0)
                    .diurnal(30.0, 0.5, 6, 2),
            );
            let conns = ConnMatrix::filled(3, 1);
            let r = sim.run_transfers(&[Transfer::new(DcId(0), DcId(1), 6.0)], &conns, None);
            (r.makespan_s.to_bits(), sim.degraded_s().to_bits())
        };
        assert_eq!(run(), run());
    }

    mod parity {
        use super::*;
        use crate::faults::{FaultKind, FaultSchedule};
        use crate::{paper_testbed_n, paper_testbed_tiled};
        use proptest::prelude::*;
        use rand::Rng;

        /// A simulator of `n` DCs in a random runtime state: live
        /// multipliers, throttles (some zero), backbone reservations and
        /// active faults (a downed DC, degraded links and hosts).
        fn arb_sim(rng: &mut StdRng, n: usize) -> NetSim {
            let vm = if rng.gen_range(0..2) == 0 { VmType::t2_medium() } else { VmType::t3_nano() };
            let topo = if n <= 8 { paper_testbed_n(vm, n) } else { paper_testbed_tiled(vm, n) };
            let params = if rng.gen_range(0..2) == 0 {
                LinkModelParams::frozen()
            } else {
                LinkModelParams { dynamics_sigma: 0.2, ..LinkModelParams::default() }
            };
            let mut sim = NetSim::new(topo, params, rng.gen_range(0..u64::MAX));
            sim.advance(rng.gen_range(1.0..40.0));
            let pair = |rng: &mut StdRng| (DcId(rng.gen_range(0..n)), DcId(rng.gen_range(0..n)));
            for _ in 0..rng.gen_range(0..6) {
                let (src, dst) = pair(rng);
                let cap = if rng.gen_range(0..4) == 0 { 0.0 } else { rng.gen_range(1.0..900.0) };
                sim.set_throttle(src, dst, cap);
            }
            if rng.gen_range(0..2) == 0 {
                let mut caps = Grid::filled(n, f64::INFINITY);
                for _ in 0..rng.gen_range(1..8) {
                    let (src, dst) = pair(rng);
                    caps.put(src, dst, rng.gen_range(5.0..600.0));
                }
                sim.set_backbone_caps(caps);
            }
            if rng.gen_range(0..2) == 0 {
                let (src, dst) = pair(rng);
                let mut schedule = FaultSchedule::new()
                    .at(0.0, FaultKind::LinkFactor { src, dst, factor: rng.gen_range(0.0..1.0) })
                    .at(0.0, FaultKind::DcFactor { dc: src, factor: rng.gen_range(0.1..1.0) });
                if rng.gen_range(0..2) == 0 {
                    schedule = schedule.at(0.0, FaultKind::DcDown(dst));
                }
                if rng.gen_range(0..3) == 0 {
                    schedule = schedule.at(0.0, FaultKind::GlobalFactor(rng.gen_range(0.3..1.0)));
                }
                sim.set_fault_schedule(schedule);
                sim.poll_faults();
            }
            sim
        }

        /// The engine's flow-set shape: several groups, each the
        /// all-pairs shuffle of a block of DCs, so most pairs carry one
        /// flow per group; plus zero-connection and intra-DC flows. One
        /// case in six is a lone flow (the gauge shape).
        fn arb_flows(rng: &mut StdRng, n: usize) -> Vec<FlowSpec> {
            if rng.gen_range(0..6) == 0 {
                let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
                return vec![FlowSpec::new(DcId(src), DcId(dst), rng.gen_range(0..4))];
            }
            let mut flows = Vec::new();
            for _ in 0..rng.gen_range(1..9) {
                let width = rng.gen_range(2..n.min(8) + 1);
                let base = rng.gen_range(0..n - width + 1);
                for i in base..base + width {
                    for j in base..base + width {
                        if rng.gen_range(0..8) != 0 {
                            flows.push(FlowSpec::new(DcId(i), DcId(j), rng.gen_range(0..12)));
                        }
                    }
                }
            }
            flows
        }

        /// The fleet's flow-set shape: 4–8 tenants' complete shuffles of
        /// one block of DCs, 1, 2 or 4 connections per pair, so every
        /// directed pair carries the same `(weight, ceiling)` more than
        /// once and `(k·w, k·c)` multiples of it beside.
        fn arb_tenant_flows(rng: &mut StdRng, n: usize) -> Vec<FlowSpec> {
            let width = rng.gen_range(2..n.min(16) + 1);
            let base = rng.gen_range(0..n - width + 1);
            let mut flows = Vec::new();
            for _ in 0..rng.gen_range(4..9) {
                flows.extend(shuffle(base, width, |_| [1, 2, 4][rng.gen_range(0usize..3)]));
            }
            flows
        }

        /// The all-pairs shuffle of DCs `base..base + width`, `conns(pair)`
        /// connections on its `pair`-th directed pair.
        fn shuffle(
            base: usize,
            width: usize,
            mut conns: impl FnMut(usize) -> u32,
        ) -> Vec<FlowSpec> {
            let pairs = (0..width).flat_map(|i| (0..width).map(move |j| (i, j)));
            pairs
                .filter(|(i, j)| i != j)
                .enumerate()
                .map(|(pair, (i, j))| FlowSpec::new(DcId(base + i), DcId(base + j), conns(pair)))
                .collect()
        }

        /// What the solver's class sharing has to work with, pinned so a
        /// solver change is sized from a test: fleet flow sets repeat
        /// their `(weight, ceiling)` many times over, a lone heterogeneous
        /// plan repeats nothing.
        #[test]
        fn fleet_flow_sets_repeat_their_classes_and_lone_plans_do_not() {
            let mut scratch = RateScratch::default();

            // `scale-hier`: eight 16-DC groups on the tiled 64-DC WAN. A
            // block holds two DCs of every region, so its 240 pairs fall
            // into one class per region pair.
            let topo = paper_testbed_tiled(VmType::t2_medium(), 64);
            let sim = NetSim::new(topo, LinkModelParams::frozen(), 11);
            let flows: Vec<FlowSpec> =
                (0..8).flat_map(|k| shuffle(16 * (k % 4), 16, |_| 1)).collect();
            sim.allocate_rates_with(&flows, &mut scratch);
            let shape = scratch.ws.last_shape();
            assert_eq!(shape.flows, 8 * 240);
            assert!(shape.classes * 20 <= shape.flows, "{shape:?}");
            assert!(shape.rounds >= 2 && shape.live_resources > 0, "{shape:?}");

            // `wanify-loop`: one plan on 8 DCs, its own connection count
            // on every pair.
            let sim =
                NetSim::new(paper_testbed_n(VmType::t2_medium(), 8), LinkModelParams::frozen(), 11);
            sim.allocate_rates_with(&shuffle(0, 8, |pair| 1 + pair as u32), &mut scratch);
            let shape = scratch.ws.last_shape();
            assert_eq!((shape.flows, shape.classes), (56, 56), "{shape:?}");
        }

        proptest! {
            #[test]
            fn allocate_rates_is_bit_identical_to_reference(seed in 0u64..u64::MAX) {
                let mut rng = StdRng::seed_from_u64(seed);
                // Two simulators of different sizes, 3, 8 or 64 DCs, take
                // turns on one scratch: its lists re-size at every turn,
                // and no turn may leak into the next.
                let first = rng.gen_range(0usize..3);
                let second = (first + rng.gen_range(1usize..3)) % 3;
                let sims = [first, second].map(|k| arb_sim(&mut rng, [3, 8, 64][k]));
                let mut scratch = RateScratch::default();
                for round in 0..4 {
                    let sim = &sims[round % 2];
                    let n = sim.topology().len();
                    let tenants = round / 2 == 1;
                    let flows =
                        if tenants { arb_tenant_flows(&mut rng, n) } else { arb_flows(&mut rng, n) };
                    let fast = sim.allocate_rates_with(&flows, &mut scratch);
                    let slow = reference::allocate_rates(sim, &flows);
                    prop_assert_eq!(fast.len(), slow.len());
                    for (f, (a, b)) in fast.iter().zip(&slow).enumerate() {
                        prop_assert_eq!(a.to_bits(), b.to_bits(),
                            "flow {} {:?}: {} vs reference {}", f, flows[f], a, b);
                    }
                    let mut fresh = RateScratch::default();
                    sim.allocate_rates_with(&flows, &mut fresh);
                    prop_assert_eq!(scratch.last_shape(), fresh.last_shape());
                    // Four tenants and three connection counts: any pair
                    // that is up repeats a class, so the class-sharing
                    // rounds ran on shared classes.
                    let shape = scratch.last_shape();
                    prop_assert!(!tenants || shape.flows == 0 || shape.classes < shape.flows,
                        "{:?}", shape);
                }
            }

            #[test]
            fn drain_shortcut_matches_the_search(
                quota in 1e-9f64..4.0,
                epochs in 1u64..5000,
                crumb in -2e-9f64..2e-9,
                edge in 0usize..4,
                skip in 0.0f64..1.0,
            ) {
                // Payloads within a crumb of a whole number of epochs —
                // or exactly the drain epsilon past one — sit on the edge
                // where the ceil estimate is off by one.
                let crumb = [crumb, 0.0, PAYLOAD_EPS_GB, 2.0 * PAYLOAD_EPS_GB][edge];
                let remaining = epochs as f64 * quota + crumb;
                if remaining > PAYLOAD_EPS_GB {
                    let from_zero = reference::epochs_to_drain(remaining, quota, 0);
                    prop_assert_eq!(epochs_to_drain(remaining, quota, 0), from_zero);
                    let m = from_zero.expect("a positive quota drains");
                    let served = (skip * (m - 1) as f64) as u64;
                    prop_assert_eq!(epochs_to_drain(remaining, quota, served), Some(m));
                    prop_assert_eq!(reference::epochs_to_drain(remaining, quota, served), Some(m));
                }
            }

            #[test]
            fn drain_estimate_rounds_up_like_ceil_on_the_edges(
                quota_exp in -20i32..21,
                mantissa in 1.0f64..2.0,
                whole in 0u64..5000,
                frac in -1.0f64..1.0,
                edge in 0usize..12,
                served in 0u64..3,
            ) {
                // Estimates in (-1, 0], on and beside whole numbers, around
                // 2^52 and 2^53 (where every double is whole), infinite and
                // NaN: the reference keeps the `ceil` expression.
                let quota = [mantissa, 1.0][edge % 2] * 2f64.powi(quota_exp);
                let two52 = (1u64 << 52) as f64;
                let epochs = [
                    frac.min(0.0),
                    -0.0,
                    whole as f64,
                    whole as f64 + frac * 1e-9,
                    whole as f64 + frac,
                    two52 - 1.0,
                    two52 + 1.0,
                    2.0 * two52 - 1.0,
                    2.0 * two52,
                    4.0 * two52,
                    f64::INFINITY,
                    f64::NAN,
                ][edge];
                let remaining = epochs * quota + PAYLOAD_EPS_GB;
                for quota in [quota, -quota, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
                    prop_assert_eq!(
                        drain_estimate(remaining, quota, served),
                        reference::drain_estimate(remaining, quota, served),
                        "remaining {} quota {}", remaining, quota);
                }
            }

            #[test]
            fn soonest_drain_filter_agrees_with_the_search(
                quota in 1e-9f64..4.0,
                epochs in 1u64..5000,
                crumb in -2e-9f64..2e-9,
                skip in 0.0f64..1.0,
                edge in 0usize..6,
                far in 2u64..10_000,
            ) {
                // `below` on, one short of and one past the true answer,
                // at 1, far off and at "no bound yet".
                let remaining = epochs as f64 * quota + crumb;
                if remaining > PAYLOAD_EPS_GB {
                    let m = reference::epochs_to_drain(remaining, quota, 0).expect("drains");
                    let mut pair = PairProgress::new(0, 1, remaining);
                    pair.set_quota(quota, 0.25);
                    pair.served = (skip * (m - 1) as f64) as u64;
                    let left = m - pair.served;
                    let below = [left, left + 1, left.max(2) - 1, 1, far, u64::MAX][edge];
                    let want = Some(left).filter(|&k| k < below);
                    prop_assert_eq!(pair.epochs_left_below(below), want, "cold memo");
                    prop_assert_eq!(pair.epochs_left_below(below), want, "either memo state");
                    pair.set_quota(0.0, 0.25);
                    prop_assert_eq!(pair.epochs_left_below(below), None, "a stalled pair");
                }
            }

            #[test]
            fn cached_drain_epoch_matches_a_fresh_search(seed in 0u64..u64::MAX) {
                // Walk a pair through served epochs, quota changes and
                // fractional serves; the memo must always equal a search
                // from the pair's current state.
                let mut rng = StdRng::seed_from_u64(seed);
                let dt = 0.25;
                let mut pair = PairProgress::new(0, 1, rng.gen_range(0.01..50.0));
                pair.set_quota(rng.gen_range(1e-4..2.0), dt);
                for _ in 0..200 {
                    let fresh = reference::epochs_to_drain(pair.remaining, pair.quota, pair.served);
                    prop_assert_eq!(pair.drain_epoch(), fresh);
                    let Some(m) = fresh else { break };
                    match rng.gen_range(0..4) {
                        0 => pair.set_quota(rng.gen_range(0.0..2.0), dt),
                        1 => {
                            pair.serve_partial(rng.gen_range(0.05..0.95), dt);
                            if pair.remaining <= PAYLOAD_EPS_GB {
                                break;
                            }
                        }
                        _ => {
                            pair.served += rng.gen_range(0..m - pair.served);
                            prop_assert!(pair.current_remaining() > PAYLOAD_EPS_GB);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let run = || {
            let topo = Topology::builder()
                .dc(Region::UsEast, VmType::t3_nano(), 1)
                .dc(Region::EuWest, VmType::t3_nano(), 1)
                .build()
                .unwrap();
            let mut sim = NetSim::new(topo, LinkModelParams::default(), 99);
            let conns = ConnMatrix::filled(2, 2);
            sim.run_transfers(&[Transfer::new(DcId(0), DcId(1), 3.0)], &conns, None).makespan_s
        };
        assert_eq!(run(), run());
    }
}
