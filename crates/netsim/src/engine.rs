//! The transfer loop, and the resumable multi-tenant engine around it.
//!
//! Every simulated byte in this workspace moves through one loop
//! (`TransferLoop::advance` below): **flow groups** (one query's shuffle each)
//! contend on one WAN under weighted max-min fairness, and the loop
//! serves them in closed-form *rate segments* — one fairness solve per
//! segment, where a segment ends at a pair drain, a new submission, a
//! caller deadline, a fault boundary, a dynamics tick or a hook wake (see
//! the [`crate::sim`] module docs for why that is bit-identical to
//! stepping every epoch). The loop has two entry points:
//!
//! * [`NetSim::run_transfers`] is the blocking one: it submits one group,
//!   advances with no deadline, optionally seats an [`EpochHook`] on the
//!   loop (`HookSeat`), and shapes the finished group into a
//!   [`crate::TransferReport`].
//! * [`NetEngine`] is the resumable one. Real GDA clusters overlap
//!   queries from many tenants, and every shuffle contends with everyone
//!   else's on the same NICs and backbone paths (the regime Tetrium and
//!   Kimchi actually target). [`NetEngine::submit`] registers a
//!   job-tagged group at the current simulation time, mid-flight of any
//!   other group — a submission is just another rate-change event: the
//!   next solve sees the new flows, and every pair whose fair share moved
//!   re-anchors, exactly as a pair drain would.
//!   [`NetEngine::advance_until`] advances until the next **group
//!   completion event** or a caller deadline (a compute timer, an
//!   arrival), whichever comes first, and returns the completed groups'
//!   [`GroupReport`]s.
//!
//! A [`GroupReport`] and a [`crate::TransferReport`] are two views of the
//! same per-pair accounting, so `run_transfers` *is* a lone group on the
//! engine's loop rather than a second implementation held to it by tests.
//!
//! Flows from *different* groups on the same DC pair stay distinct and
//! contend under weighted max-min fairness; flows *within* a group on the
//! same pair share one flow (Spark executors multiplex a connection pool
//! per peer).
//!
//! # The flows in flight
//!
//! Every event ends in one weighted max-min solve over every pair in
//! flight. `TransferLoop::flows` lists those pairs in the order a flow
//! list would name them — submission order, then ascending `(src, dst)` —
//! each with its endpoints and connection count: a submission appends its
//! group's pairs, a drain or [`NetEngine::cancel_group`] closes the list
//! up behind the pairs that leave, and [`NetEngine::apply_conns`] or a
//! seated hook's `EpochCtx::conns` rewrites the counts. Before each solve
//! the loop files that list afresh by the counting pass
//! [`NetSim::allocate_rates_with`] uses (`fairness::PairFlows::file`; an
//! intra-DC pair is a gap no WAN resource constrains) and solves it from
//! zero, the solver asking the simulator, as it stands at that instant,
//! for the ceilings and capacities (once per occupied pair and NIC, not
//! per flow). So no mutator — of the groups, the counts, the throttles,
//! the backbone caps, the faults, the dynamics or the clock — has anything
//! to maintain, nothing is carried from one solve to the next (see
//! [`crate::fairness`], "What is kept between solves"), and no rate
//! differs by a bit from the stateless entry's over the same list.
//!
//! # Whose buffers a solve uses
//!
//! Neither the filing nor the solver's buffers belong to a loop: every
//! call borrows its thread's scratch (`sim::Scratch`) for its length, so
//! a process holds one warm set per thread however many engines,
//! blocking runs and probes it drives (a sharded fleet's shards take
//! turns on their worker threads' sets). Which set serves a solve moves
//! no bit: a solve keeps nothing of the last one but buffer capacity, and
//! the one slot it leaves unfiled, an intra-DC pair, is never read
//! (`FlowRef::rate` answers for it). The loop keeps only the last solve's
//! shape, for [`RunStats::rounds`]. A blocking run lends its thread's set
//! for the whole run, so a seated hook that drives a simulator of its own
//! solves on a fresh set.
//!
//! In debug and test builds every event also runs the **shadow oracle**
//! (`TransferLoop::shadow_check`). It lists the active pairs afresh from
//! the groups, and the loop's list must name the same pairs in the same
//! order. Over that list the textbook reference
//! (`sim::reference::allocate_rates`) builds the problem from the link
//! model flow by flow and solves it by plain progressive filling — no pair
//! table, no filing, no classes, no pruning: every rate must agree with it
//! on `f64::to_bits`, and its problem must find them physically possible
//! (finite, within ceilings and capacities).

use crate::fairness::SolveShape;
use crate::flow::{FlowSpec, Transfer};
use crate::grid::{BwMatrix, ConnMatrix, Grid};
use crate::params::EPOCH_DT_S;
use crate::sim::{
    epochs_until_event, with_scratch, EpochCtx, EpochHook, NetSim, PairProgress, RunStats, Scratch,
    INTRA_DC_MBPS, MAX_EPOCHS, PAYLOAD_EPS_GB,
};
use crate::topology::{DcId, Topology};

/// Identifier of a submitted flow group, unique within one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u64);

/// Completion record of one flow group.
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// The group this report describes.
    pub group: GroupId,
    /// Simulation time when the group was submitted, seconds.
    pub submitted_s: f64,
    /// Simulation time when the last pair drained, seconds.
    pub completed_s: f64,
    /// Longest per-pair busy time within the group, seconds — the same
    /// quantity [`crate::TransferReport::makespan_s`] reports.
    pub makespan_s: f64,
    /// Smallest per-pair mean throughput among WAN pairs that carried data.
    pub min_pair_bw_mbps: f64,
    /// Total gigabits moved over the WAN per source DC (egress cost
    /// accounting; intra-DC payload never leaves the DC).
    pub egress_gigabits: Vec<f64>,
}

/// One submitted group's state, in flight and as handed back finished.
#[derive(Debug)]
pub(crate) struct GroupState {
    id: GroupId,
    /// One entry per directed pair with payload, ascending `(src, dst)`.
    pub(crate) pairs: Vec<PairProgress>,
    active_pairs: usize,
    submitted_s: f64,
    /// When the last pair drained (or the group was cancelled), seconds.
    completed_s: f64,
    /// Whether any transfer carried a strictly positive payload (drives
    /// the one-epoch makespan floor).
    any_payload: bool,
    /// Whether the group's pairs have been through at least one fairness
    /// solve — before that, zero quotas mean "not rated yet", not
    /// "stalled".
    solved: bool,
}

impl GroupState {
    /// Every remaining pair held a zero rate at the last fairness solve.
    fn stalled(&self) -> bool {
        self.solved && self.pairs.iter().all(|p| !p.active || p.quota() <= 0.0)
    }

    /// The group's accounting. Intra-DC pairs (`src == dst`) count into
    /// the makespan only: they neither cross the WAN (egress) nor say
    /// anything about it (minimum pair bandwidth).
    pub(crate) fn report(&self, n_dcs: usize, dt: f64) -> GroupReport {
        let mut makespan = if self.any_payload { dt } else { 0.0 };
        let mut min_bw = f64::INFINITY;
        let mut egress = vec![0.0; n_dcs];
        for pair in &self.pairs {
            makespan = makespan.max(pair.busy);
            if pair.src() != pair.dst() {
                min_bw = min_bw.min(pair.achieved_mbps());
                egress[pair.src()] += pair.moved;
            }
        }
        GroupReport {
            group: self.id,
            submitted_s: self.submitted_s,
            completed_s: self.completed_s,
            makespan_s: makespan,
            min_pair_bw_mbps: if min_bw.is_finite() { min_bw } else { 0.0 },
            egress_gigabits: egress,
        }
    }
}

/// An [`EpochHook`] seated on the loop for one blocking
/// [`NetSim::run_transfers`] call, with the matrices it is shown and may
/// edit. The seat serves that call's lone group; what a hook would mean
/// among several tenants is deliberately left undefined.
pub(crate) struct HookSeat<'a> {
    hook: &'a mut dyn EpochHook,
    /// The solver's rate per pair over the segment just served.
    observed: BwMatrix,
    /// Starts as the submitted per-pair sums (sub-epsilon crumbs
    /// included), then tracks every pair the loop serves.
    remaining: BwMatrix,
    conns: ConnMatrix,
}

impl<'a> HookSeat<'a> {
    /// Seats `hook` for transfers [`TransferLoop::submit`] has accepted.
    pub(crate) fn new(
        hook: &'a mut dyn EpochHook,
        transfers: &[Transfer],
        conns: &ConnMatrix,
    ) -> Self {
        let mut remaining = BwMatrix::new(conns.len());
        for t in transfers {
            remaining.put(t.src, t.dst, remaining.at(t.src, t.dst) + t.gigabits);
        }
        Self { hook, observed: BwMatrix::new(conns.len()), remaining, conns: conns.clone() }
    }
}

/// The one event-coalescing transfer loop: flow groups in flight and the
/// list of their pairs. It borrows the simulator and the thread's
/// [`Scratch`] (filing, solver and merge buffers) per call, so the
/// blocking [`NetSim::run_transfers`] builds one on the stack and
/// [`NetEngine`] keeps one next to the simulator it owns.
#[derive(Debug)]
pub(crate) struct TransferLoop {
    groups: Vec<GroupState>,
    next_group: u64,
    /// Groups that completed instantly at submission (no WAN payload),
    /// delivered by the next `advance` call.
    ready: Vec<GroupState>,
    /// Cumulative solves, flows and epochs; callers mirror it into
    /// [`NetSim::last_run_stats`].
    pub(crate) stats: RunStats,
    /// Every pair in flight, in [`in_flight`] order. A pair's position
    /// here is its slot in the filing and the index of its rate.
    flows: Vec<FlowRef>,
    /// Size of the last solve.
    shape: SolveShape,
    /// Slots of the pairs drained by the serve under way, ascending.
    drained: Vec<u32>,
    /// The shadow oracle's flow list.
    #[cfg(any(debug_assertions, test))]
    shadow: Vec<FlowSpec>,
}

/// One pair in flight: where it sits in the loop's groups, and the flow
/// it is filed as. The endpoints are `u16`, as in [`PairProgress`].
#[derive(Debug, Clone, Copy)]
struct FlowRef {
    group: u32,
    pair: u32,
    src: u16,
    dst: u16,
    /// Parallel connections, as submitted or as last overwritten by
    /// [`NetEngine::apply_conns`] or a seated hook, at least one.
    conns: u32,
}

const _: () = assert!(std::mem::size_of::<FlowRef>() <= 16);
const _: () = assert!(Topology::MAX_DCS <= 1 << 16, "every DC index fits a u16 endpoint");

impl FlowRef {
    /// `(src, dst, conns)`, as [`PairFlows::file`] reads a flow.
    fn ends(&self) -> (usize, usize, u32) {
        (self.src as usize, self.dst as usize, self.conns)
    }

    /// The pair as a flow list names it.
    fn spec(&self) -> FlowSpec {
        FlowSpec::new(DcId(self.src as usize), DcId(self.dst as usize), self.conns)
    }

    /// Rate in Mbps of the pair in `slot`, given the solver's rates by
    /// slot: the WAN does not constrain an intra-DC pair.
    fn rate(&self, rates: &[f64], slot: usize) -> f64 {
        if self.src == self.dst {
            INTRA_DC_MBPS
        } else {
            rates[slot]
        }
    }

    /// The pair as [`in_flight`] lists it.
    #[cfg(any(debug_assertions, test))]
    fn listed(&self) -> (usize, usize, usize, usize) {
        (self.group as usize, self.pair as usize, self.src as usize, self.dst as usize)
    }
}

/// The active pairs of `groups` as `(group index, pair index, src, dst)`,
/// in submission order then ascending `(src, dst)` — fully deterministic.
#[cfg(any(debug_assertions, test))]
fn in_flight(groups: &[GroupState]) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
    groups.iter().enumerate().flat_map(|(g, group)| {
        let active = group.pairs.iter().enumerate().filter(|(_, pair)| pair.active);
        active.map(move |(p, pair)| (g, p, pair.src(), pair.dst()))
    })
}

impl TransferLoop {
    /// An empty loop; `coalesced` seeds [`RunStats::coalesced`].
    pub(crate) fn new(coalesced: bool) -> Self {
        Self {
            groups: Vec::new(),
            next_group: 0,
            ready: Vec::new(),
            stats: RunStats { coalesced, ..RunStats::default() },
            flows: Vec::new(),
            shape: SolveShape::default(),
            drained: Vec::new(),
            #[cfg(any(debug_assertions, test))]
            shadow: Default::default(),
        }
    }

    /// See [`NetEngine::submit`].
    pub(crate) fn submit(
        &mut self,
        sim: &NetSim,
        scratch: &mut Scratch,
        transfers: &[Transfer],
        conns: &ConnMatrix,
    ) -> GroupId {
        let n = sim.topology().len();
        assert_eq!(conns.len(), n, "connection matrix must match topology size");
        for t in transfers {
            assert!(t.gigabits >= 0.0, "transfer payload must be non-negative");
        }
        let id = GroupId(self.next_group);
        self.next_group += 1;

        // One flow per directed pair: a stable sort by pair keeps each
        // pair's payloads in submission order, so their sum rounds as a
        // running total over the transfers would, at O(pairs) cost.
        let merge = &mut scratch.merge;
        merge.clear();
        for t in transfers {
            assert!(t.src.0 < n && t.dst.0 < n, "transfer endpoint outside the topology");
            merge.push((t.src.0 * n + t.dst.0, t.gigabits));
        }
        merge.sort_by_key(|&(key, _)| key);
        // The newest group's pairs are the last of the flow list. A group
        // holds its pairs until it is collected, so their vector is sized
        // to the runs rather than left with a doubling's slack.
        let g = self.groups.len() as u32;
        let mut pairs = Vec::with_capacity(merge.chunk_by(|a, b| a.0 == b.0).count());
        for run in merge.chunk_by(|a, b| a.0 == b.0) {
            let total = run.iter().fold(0.0, |sum, &(_, gigabits)| sum + gigabits);
            if total > PAYLOAD_EPS_GB {
                let (src, dst) = (run[0].0 / n, run[0].0 % n);
                let (pair, conns) = (pairs.len() as u32, conns.get(src, dst).max(1));
                self.flows.push(FlowRef {
                    group: g,
                    pair,
                    src: src as u16,
                    dst: dst as u16,
                    conns,
                });
                pairs.push(PairProgress::new(src, dst, total));
            }
        }
        let now = sim.time_s();
        let group = GroupState {
            id,
            active_pairs: pairs.len(),
            pairs,
            submitted_s: now,
            completed_s: now,
            any_payload: transfers.iter().any(|t| t.gigabits > 0.0),
            solved: false,
        };
        // With nothing to move, completion is immediate (sub-epsilon
        // payloads still get the one-epoch makespan floor).
        if group.pairs.is_empty() {
            self.ready.push(group);
        } else {
            self.groups.push(group);
        }
        id
    }

    /// See [`NetEngine::advance_until`]; hands back the finished groups
    /// themselves. A seated hook bounds every segment by its wake and
    /// runs at the end of each one.
    pub(crate) fn advance(
        &mut self,
        sim: &mut NetSim,
        scratch: &mut Scratch,
        deadline_s: f64,
        mut seat: Option<&mut HookSeat<'_>>,
    ) -> Vec<GroupState> {
        if !self.ready.is_empty() {
            return std::mem::take(&mut self.ready);
        }
        let dt = EPOCH_DT_S;
        let mut completed = Vec::new();
        let mut budget = MAX_EPOCHS as u64;

        while completed.is_empty() && budget > 0 {
            // Apply any fault events due at this solve point: rates below
            // reflect the post-event network.
            sim.poll_faults();
            let now = sim.time_s();
            if self.groups.is_empty() {
                if deadline_s.is_finite() && deadline_s > now {
                    // Idle jump: pause at each scheduled fault so the
                    // fault state and degraded-time accounting stay exact
                    // while no flows are in flight.
                    sim.advance_through_faults(deadline_s);
                }
                break;
            }
            if deadline_s <= now {
                break;
            }

            // Every event files the flows in flight afresh and solves them
            // from zero; the simulator is read as it is now.
            let (filed, ws) = (&mut scratch.solve.flows, &mut scratch.solve.ws);
            filed.file(sim.topology().len(), &self.flows, FlowRef::ends);
            ws.solve_pairs(filed, &*sim, self.flows.len());
            let rates = ws.rates();
            self.shape = ws.last_shape();
            self.stats.solves += 1;
            self.stats.flows += self.flows.len() as u64;
            self.stats.rounds += self.shape.rounds as u64;
            #[cfg(any(debug_assertions, test))]
            self.shadow_check(sim, rates);

            // A seated hook names its next wake; one that declines to
            // (`Some(None)`) wants every epoch, which disables coalescing.
            // The reported flag tracks whether it scheduled (last segment
            // wins).
            let wake = seat.as_deref_mut().map(|s| s.hook.next_wake(now));
            if let Some(w) = wake {
                self.stats.coalesced = w.is_some();
            }
            // Re-anchor every pair whose per-epoch quota changed (drains,
            // new submissions, deadline re-entries and hook edits all
            // funnel through this one check) and, while the pair is at
            // hand, ask it for the nearest rate-change horizon of its
            // kind: the epochs until it drains.
            let coalesce = wake != Some(None);
            let mut k_step: u64 = if coalesce { u64::MAX } else { 1 };
            for (slot, flow) in self.flows.iter().enumerate() {
                let pair = &mut self.groups[flow.group as usize].pairs[flow.pair as usize];
                pair.set_quota(flow.rate(rates, slot) * dt / 1000.0, dt);
                if coalesce {
                    k_step = pair.epochs_left_below(k_step).unwrap_or(k_step);
                }
            }
            for group in &mut self.groups {
                group.solved = true;
            }
            // The other horizons: the next scheduled fault, the next
            // dynamics tick, the wake.
            k_step = k_step
                .max(1)
                .min(sim.epochs_until_next_fault(dt))
                .min(sim.epochs_until_next_rate_change(dt));
            if let Some(Some(w)) = wake {
                k_step = k_step.min(epochs_until_event(now, w, dt));
            }
            // Whole epochs that fit before the caller's deadline.
            let k_deadline: u64 = if deadline_s.is_finite() {
                ((deadline_s - now) / dt).floor() as u64
            } else {
                u64::MAX
            };

            if k_step == u64::MAX && !deadline_s.is_finite() {
                // Permanent stall: no pair can ever drain (all rates are
                // zero) and no scheduled event will change that. Return
                // empty instead of burning the epoch budget on no-payload
                // epochs; callers tell this apart from slowness via
                // `has_live_flows`.
                break;
            }
            if k_step <= k_deadline {
                let k = k_step.min(budget);
                budget -= k;
                self.serve(sim, rates, k, seat.as_deref_mut());
                self.collect_completed(sim.time_s(), &mut completed);
            } else {
                // The deadline lands before the next event: serve the
                // whole epochs that fit, plus the fractional remainder
                // (multi-tenant only — a lone blocking group has no
                // deadline), and hand control back.
                let k = k_deadline.min(budget);
                if k > 0 {
                    for flow in &self.flows {
                        self.groups[flow.group as usize].pairs[flow.pair as usize].served += k;
                    }
                    self.stats.epochs += k;
                    sim.advance(k as f64 * dt);
                }
                let frac_s = deadline_s - sim.time_s();
                if frac_s > 0.0 {
                    for (slot, flow) in self.flows.iter().enumerate() {
                        let group = &mut self.groups[flow.group as usize];
                        let pair = &mut group.pairs[flow.pair as usize];
                        pair.serve_partial(frac_s / dt, dt);
                        // A pair can finish *inside* the fraction (its
                        // drain was due next epoch); mark it drained now
                        // so its group completes at the deadline instead
                        // of occupying a fairness share for one more
                        // no-payload epoch.
                        if pair.active && pair.remaining() <= PAYLOAD_EPS_GB {
                            pair.drain(dt);
                            group.active_pairs -= 1;
                            self.drained.push(slot as u32);
                        }
                    }
                    self.retire_drained();
                    sim.advance(frac_s);
                    self.collect_completed(sim.time_s(), &mut completed);
                }
                break;
            }
        }
        completed
    }

    /// Serves `k` whole epochs at the quotas of the last solve, moves the
    /// clock, and runs a seated hook on the segment just closed: it sees
    /// the solver's rates (`rates`, by slot) and the remaining payloads of
    /// the segment's flows, and its connection edits reach the group
    /// before the next solve (its throttle edits land on the simulator and
    /// stay there). A wake-scheduling hook treats off-wake calls as no-ops.
    pub(crate) fn serve(
        &mut self,
        sim: &mut NetSim,
        rates: &[f64],
        k: u64,
        seat: Option<&mut HookSeat<'_>>,
    ) {
        let dt = EPOCH_DT_S;
        for (slot, flow) in self.flows.iter().enumerate() {
            let group = &mut self.groups[flow.group as usize];
            let pair = &mut group.pairs[flow.pair as usize];
            pair.served += k;
            if pair.current_remaining() <= PAYLOAD_EPS_GB {
                pair.drain(dt);
                group.active_pairs -= 1;
                self.drained.push(slot as u32);
            }
        }
        self.stats.epochs += k;
        sim.advance(k as f64 * dt);

        if let Some(seat) = seat {
            for pair in self.groups.iter().flat_map(|g| &g.pairs) {
                seat.observed.set(pair.src(), pair.dst(), 0.0);
            }
            for (slot, flow) in self.flows.iter().enumerate() {
                let pair = &self.groups[flow.group as usize].pairs[flow.pair as usize];
                seat.observed.set(pair.src(), pair.dst(), flow.rate(rates, slot));
                let left = if pair.active { pair.current_remaining() } else { 0.0 };
                seat.remaining.set(pair.src(), pair.dst(), left);
            }
            seat.hook.on_epoch(&mut EpochCtx {
                time_s: sim.time_s(),
                observed_bw: &seat.observed,
                remaining_gb: &seat.remaining,
                conns: &mut seat.conns,
                throttles: &mut sim.throttles,
            });
            self.apply_conns(&seat.conns);
        }
        self.retire_drained();
    }

    /// Takes the pairs the serve just drained off the list, which closes
    /// up behind them in order.
    fn retire_drained(&mut self) {
        if self.drained.is_empty() {
            return;
        }
        let mut drained = self.drained.drain(..).peekable();
        let mut slot = 0;
        self.flows.retain(|_| {
            slot += 1;
            drained.next_if_eq(&(slot - 1)).is_none()
        });
    }

    /// The shadow oracle (module docs): every active pair listed from the
    /// groups, which the loop's list must name in the same order; over the
    /// list, the textbook reference must give each pair the loop's rate
    /// (`rates`, by slot) bit for bit, within its problem's ceilings and
    /// capacities.
    #[cfg(any(debug_assertions, test))]
    fn shadow_check(&mut self, sim: &NetSim, rates: &[f64]) {
        let mut listed = self.flows.iter();
        for pair in in_flight(&self.groups) {
            let at = listed.next().map(FlowRef::listed);
            assert_eq!(at, Some(pair), "the flow list lost track of the groups");
        }
        assert!(listed.next().is_none(), "the flow list kept a pair that is gone");
        let specs = &mut self.shadow;
        specs.clear();
        specs.extend(self.flows.iter().map(FlowRef::spec));
        let physics = crate::sim::reference::allocate_rates(sim, specs);
        for (slot, (flow, built)) in self.flows.iter().zip(physics).enumerate() {
            let got = flow.rate(rates, slot);
            assert_eq!(
                got.to_bits(),
                built.to_bits(),
                "the loop gives {:?} {got} Mbps, the reference {built}",
                specs[slot]
            );
        }
    }

    /// Moves every group whose last pair has drained into `out`, in
    /// submission order, stamped `done_at`. Its pairs left the list as
    /// they drained; the groups behind it move down, and the list's group
    /// indices follow them: the list is in group order, so one walk of
    /// both counts the groups that leave ahead of each pair.
    fn collect_completed(&mut self, done_at: f64, out: &mut Vec<GroupState>) {
        if self.groups.iter().all(|g| g.active_pairs > 0) {
            return;
        }
        let (mut next, mut gone) = (0, 0);
        for flow in &mut self.flows {
            while next < flow.group as usize {
                gone += u32::from(self.groups[next].active_pairs == 0);
                next += 1;
            }
            flow.group -= gone;
        }
        out.extend(self.groups.extract_if(.., |g| g.active_pairs == 0).map(|mut g| {
            g.completed_s = done_at;
            g
        }));
    }

    /// Takes an in-flight group off the loop at the current simulation
    /// time, its open segment folded into its accounting; `None` for ids
    /// not in flight. Its pairs leave the list, and the groups behind it
    /// move down.
    pub(crate) fn cancel(&mut self, sim: &NetSim, id: GroupId) -> Option<GroupState> {
        let idx = self.groups.iter().position(|g| g.id == id)?;
        self.flows.retain_mut(|flow| {
            let stays = flow.group as usize != idx;
            flow.group -= u32::from(flow.group as usize > idx);
            stays
        });
        let mut group = self.groups.remove(idx);
        let dt = EPOCH_DT_S;
        for pair in &mut group.pairs {
            pair.reanchor(dt);
        }
        group.completed_s = sim.time_s();
        Some(group)
    }

    /// Overwrites the connection counts of every pair in flight.
    fn apply_conns(&mut self, conns: &ConnMatrix) {
        for flow in &mut self.flows {
            flow.conns = conns.get(flow.src as usize, flow.dst as usize).max(1);
        }
    }
}

/// The resumable multi-tenant transfer engine. See the module docs.
#[derive(Debug)]
pub struct NetEngine {
    sim: NetSim,
    lp: TransferLoop,
}

impl NetEngine {
    /// Wraps `sim` into an engine. The engine drives all simulation time
    /// while groups are in flight.
    pub fn new(sim: NetSim) -> Self {
        let lp = TransferLoop::new(true);
        Self { sim, lp }
    }

    /// Read access to the wrapped simulator.
    pub fn sim(&self) -> &NetSim {
        &self.sim
    }

    /// Mutable access to the wrapped simulator, e.g. for gauging a
    /// [`BandwidthSource`](crate::BwMatrix) belief between events. Probes
    /// advance simulation time (measurement costs real seconds); in-flight
    /// pairs do not progress during that window, so measurement occupies
    /// wall-clock time without moving tenant payload — the monitoring-cost
    /// tradeoff the paper's Table 2 is about.
    pub fn sim_mut(&mut self) -> &mut NetSim {
        &mut self.sim
    }

    /// True when no group is in flight and no completion awaits delivery.
    pub fn is_idle(&self) -> bool {
        self.lp.groups.is_empty() && self.lp.ready.is_empty()
    }

    /// True when at least one in-flight pair held a positive rate at the
    /// last fairness solve — i.e. another [`NetEngine::advance_until`]
    /// call can still move payload. `false` with groups in flight means
    /// every remaining flow is rate-zero (e.g. a 0-Mbps throttle): no
    /// amount of stepping will ever drain them. Callers driving the
    /// engine with open deadlines should treat an empty `advance_until`
    /// result as a permanent stall only when this is `false`; otherwise
    /// the call merely exhausted its per-call epoch budget on a slow but
    /// progressing transfer.
    pub fn has_live_flows(&self) -> bool {
        self.lp.groups.iter().any(|g| g.pairs.iter().any(|p| p.active && p.quota() > 0.0))
    }

    /// Groups whose every remaining pair held a zero rate at the last
    /// fairness solve — e.g. because a fault downed a DC they must cross.
    /// Such a group cannot progress until rates change (a fault heals, a
    /// throttle lifts) or a caller re-routes it via
    /// [`NetEngine::cancel_group`]. Freshly submitted groups that have not
    /// been through a solve yet are never reported. Ids come out in
    /// submission order.
    pub fn stalled_groups(&self) -> Vec<GroupId> {
        self.lp.groups.iter().filter(|g| g.stalled()).map(|g| g.id).collect()
    }

    /// Whether the given in-flight group is stalled per
    /// [`NetEngine::stalled_groups`] (false for unknown/completed ids).
    pub fn is_group_stalled(&self, id: GroupId) -> bool {
        self.lp.groups.iter().any(|g| g.id == id && g.stalled())
    }

    /// Cancels an in-flight group: folds its accounting at the current
    /// simulation time and returns the partial [`GroupReport`] plus one
    /// [`Transfer`] per pair with undelivered payload, so a failure-aware
    /// caller can re-place and resubmit the remainder. Time spent stalled
    /// counts into the partial report's busy/makespan, as it would for a
    /// pair that later drained. Returns `None` for unknown ids and for
    /// groups that already completed (including instantly-completed groups
    /// awaiting delivery — their report arrives via
    /// [`NetEngine::advance_until`] as usual).
    pub fn cancel_group(&mut self, id: GroupId) -> Option<(GroupReport, Vec<Transfer>)> {
        let group = self.lp.cancel(&self.sim, id)?;
        let remaining = group
            .pairs
            .iter()
            .filter(|p| p.active && p.remaining() > PAYLOAD_EPS_GB)
            .map(|p| Transfer::new(DcId(p.src()), DcId(p.dst()), p.remaining()))
            .collect();
        Some((group.report(self.sim.topology().len(), EPOCH_DT_S), remaining))
    }

    /// Cumulative engine statistics (also mirrored into
    /// [`NetSim::last_run_stats`] after every step).
    pub fn stats(&self) -> RunStats {
        self.lp.stats
    }

    /// Submits a flow group at the current simulation time and returns its
    /// id. The group's transfers aggregate per directed pair (one flow per
    /// pair); `conns` is the group's parallel-connection matrix. A group
    /// with no effective payload completes instantly and is reported by
    /// the next [`NetEngine::advance_until`] call.
    ///
    /// # Panics
    ///
    /// Panics if `conns` does not match the topology size or any payload
    /// is negative.
    pub fn submit(&mut self, transfers: &[Transfer], conns: &ConnMatrix) -> GroupId {
        with_scratch(|scratch| self.lp.submit(&self.sim, scratch, transfers, conns))
    }

    /// Advances the simulation until the next group completion or until
    /// `deadline_s` (absolute simulation time), whichever comes first, and
    /// returns every group that completed at that instant (often one, but
    /// simultaneous drains are possible). An empty result means the
    /// deadline was reached — or the engine is idle, in which case time
    /// jumps straight to a finite deadline.
    ///
    /// Fairness is re-solved once per segment (pair drain, submission,
    /// deadline, fault boundary, dynamics tick), never every epoch.
    pub fn advance_until(&mut self, deadline_s: f64) -> Vec<GroupReport> {
        let done = with_scratch(|s| self.lp.advance(&mut self.sim, s, deadline_s, None));
        self.sim.last_run_stats = self.lp.stats;
        let (n, dt) = (self.sim.topology().len(), EPOCH_DT_S);
        done.iter().map(|g| g.report(n, dt)).collect()
    }

    /// Shard-boundary flow accounting: the engine's current demand on
    /// every directed cross-group trunk, in Mbps.
    ///
    /// For each in-flight pair whose endpoints sit in different region
    /// groups (per `group_of`, indexed by DC), the pair's *unreserved*
    /// ceiling — window limit × dynamics × provider factor, capped by
    /// traffic-control throttles but **not** by the current backbone
    /// reservation — is added to the `group(src) → group(dst)` cell. A
    /// cross-shard [`crate::Backbone`] divides each trunk across shards
    /// from these grids at every epoch-exchange sync point.
    ///
    /// # Panics
    ///
    /// Panics if `group_of` does not match the topology size or any group
    /// index is `>= n_groups`.
    pub fn cross_group_demand_mbps(&self, group_of: &[usize], n_groups: usize) -> Grid<f64> {
        assert_eq!(group_of.len(), self.sim.topology().len(), "group map must cover every DC");
        let mut demand = Grid::filled(n_groups, 0.0);
        for flow in &self.lp.flows {
            let (src, dst, _) = flow.ends();
            let (gs, gd) = (group_of[src], group_of[dst]);
            if gs == gd {
                continue;
            }
            let ceiling = self.sim.unreserved_ceiling_mbps(&flow.spec());
            demand.set(gs, gd, demand.get(gs, gd) + ceiling);
        }
        demand
    }

    /// Applies granted backbone shares as per-pair caps, one
    /// `(group_of, share, demand)` triple per grouping tier, composed by
    /// per-pair **minimum** — the hierarchical-sharding seam.
    ///
    /// In each tier, `share` is this shard's grant per directed group
    /// pair (from [`crate::Backbone::allocate`]) and `demand` is the grid
    /// this engine reported via [`NetEngine::cross_group_demand_mbps`]
    /// for that exchange — passed back in rather than recomputed, both to
    /// avoid re-deriving every boundary pair's ceiling and to make
    /// explicit that the grant must be applied against the demand it was
    /// computed from. Each trunk's grant is split across the shard's
    /// in-flight boundary pairs on that trunk proportionally to their
    /// unreserved ceilings; pairs on trunks the shard has no in-flight
    /// demand on — and all pairs interior to a tier's groups — stay
    /// uncapped by that tier until the next sync point (the documented
    /// coarseness of the epoch exchange). A boundary pair crossing both a
    /// region-group border (tier 1) and a super-group border (tier 2) is
    /// limited by whichever tier grants it less. The composed caps
    /// replace any previous backbone reservation on the wrapped simulator
    /// in one shot; the next fairness solve re-anchors every pair whose
    /// rate they change.
    ///
    /// # Panics
    ///
    /// Panics if any tier's group map does not match the topology size.
    pub fn apply_backbone_tiers(&mut self, tiers: &[(&[usize], &Grid<f64>, &Grid<f64>)]) {
        let n = self.sim.topology().len();
        let mut caps = Grid::filled(n, f64::INFINITY);
        for &(group_of, share, demand) in tiers {
            let tier = self.backbone_caps(group_of, share, demand);
            for src in 0..n {
                for dst in 0..n {
                    let composed = caps.get(src, dst).min(tier.get(src, dst));
                    caps.set(src, dst, composed);
                }
            }
        }
        self.sim.set_backbone_caps(caps);
    }

    /// The per-pair cap grid one tier's grant induces (see
    /// [`NetEngine::apply_backbone_tiers`]).
    fn backbone_caps(
        &self,
        group_of: &[usize],
        share_mbps: &Grid<f64>,
        demand_mbps: &Grid<f64>,
    ) -> Grid<f64> {
        let n = self.sim.topology().len();
        assert_eq!(group_of.len(), n, "group map must cover every DC");
        let totals = demand_mbps;
        let mut caps = Grid::filled(n, f64::INFINITY);
        for flow in &self.lp.flows {
            let (src, dst, _) = flow.ends();
            let (gs, gd) = (group_of[src], group_of[dst]);
            if gs == gd {
                continue;
            }
            let share = share_mbps.get(gs, gd);
            if share.is_infinite() {
                continue;
            }
            let total = totals.get(gs, gd);
            if total <= 0.0 {
                continue;
            }
            let ceiling = self.sim.unreserved_ceiling_mbps(&flow.spec());
            let slice = share * (ceiling / total);
            let cell = caps.get(src, dst);
            // Flows from several groups can share a DC pair; their
            // slices add up to the pair's aggregate cap.
            caps.set(src, dst, if cell.is_infinite() { slice } else { cell + slice });
        }
        caps
    }

    /// Aggregate rate per directed pair at the last fairness solve, in
    /// Mbps: the sum over in-flight groups of each active pair's current
    /// allocation. A fleet-level agent reads this as its `ifTop`
    /// monitoring stand-in (paper §4.1.3). Zero for pairs with no active
    /// flow and for freshly submitted groups not yet through a solve.
    pub fn observed_pair_bw_mbps(&self) -> BwMatrix {
        let n = self.sim.topology().len();
        let dt = EPOCH_DT_S;
        let mut bw = BwMatrix::new(n);
        for group in &self.lp.groups {
            for pair in &group.pairs {
                if pair.active {
                    let rate = pair.quota() * 1000.0 / dt;
                    bw.set(pair.src(), pair.dst(), bw.get(pair.src(), pair.dst()) + rate);
                }
            }
        }
        bw
    }

    /// Remaining WAN payload per directed pair in gigabits, summed over
    /// every in-flight group — the demand signal a fleet-level agent
    /// weighs its connection optimization by.
    pub fn remaining_pair_gb(&self) -> BwMatrix {
        let n = self.sim.topology().len();
        let mut left = BwMatrix::new(n);
        for group in &self.lp.groups {
            for pair in &group.pairs {
                if pair.active {
                    let r = pair.current_remaining().max(0.0);
                    left.set(pair.src(), pair.dst(), left.get(pair.src(), pair.dst()) + r);
                }
            }
        }
        left
    }

    /// Overwrites the connection matrix of every in-flight group — the
    /// fleet-level agent's intervention point. The next fairness solve
    /// sees the new counts, and every pair whose fair share moves
    /// re-anchors, exactly as any other rate-change event.
    ///
    /// # Panics
    ///
    /// Panics if `conns` does not match the topology size.
    pub fn apply_conns(&mut self, conns: &ConnMatrix) {
        assert_eq!(
            conns.len(),
            self.sim.topology().len(),
            "connection matrix must match topology size"
        );
        self.lp.apply_conns(conns);
    }
}

#[cfg(test)]
impl NetEngine {
    /// Number of groups currently in flight (excluding instantly-completed
    /// ones awaiting delivery).
    fn active_groups(&self) -> usize {
        self.lp.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Region;
    use crate::params::LinkModelParams;
    use crate::topology::Topology;
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

    fn drive_to_completion(engine: &mut NetEngine) -> Vec<GroupReport> {
        let mut reports = Vec::new();
        while !engine.is_idle() {
            reports.extend(engine.advance_until(f64::INFINITY));
        }
        reports
    }

    #[test]
    fn intra_dc_pairs_count_into_makespan_only() {
        // An intra-DC transfer next to WAN ones: it never leaves its DC,
        // so it is no egress and says nothing about WAN bandwidth.
        let wan = [Transfer::new(DcId(0), DcId(1), 4.0), Transfer::new(DcId(1), DcId(2), 1.0)];
        let mut mixed = wan.to_vec();
        mixed.insert(1, Transfer::new(DcId(1), DcId(1), 2.0));
        let conns = ConnMatrix::filled(3, 2);
        let run = |transfers: &[Transfer]| {
            let mut engine = NetEngine::new(sim3());
            engine.submit(transfers, &conns);
            drive_to_completion(&mut engine).remove(0)
        };
        let (with, without) = (run(&mixed), run(&wan));
        assert!((with.egress_gigabits[1] - 1.0).abs() < 1e-9, "{:?}", with.egress_gigabits);
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&with.egress_gigabits), bits(&without.egress_gigabits));
        assert_eq!(with.min_pair_bw_mbps.to_bits(), without.min_pair_bw_mbps.to_bits());
        assert_eq!(with.makespan_s.to_bits(), without.makespan_s.to_bits());

        // On its own it still takes its epoch, and that is all it does.
        let alone = run(&mixed[1..2]);
        assert!(alone.makespan_s > 0.0);
        assert_eq!(alone.min_pair_bw_mbps, 0.0);
        assert_eq!(alone.egress_gigabits, vec![0.0; 3]);
    }

    #[test]
    fn apply_conns_reaches_the_pairs_in_flight() {
        let transfers = [Transfer::new(DcId(0), DcId(2), 30.0)];
        let mut slow = NetEngine::new(sim3());
        slow.submit(&transfers, &ConnMatrix::filled(3, 1));
        let single = drive_to_completion(&mut slow).remove(0);

        let mut boosted = NetEngine::new(sim3());
        boosted.submit(&transfers, &ConnMatrix::filled(3, 1));
        let _ = boosted.advance_until(1.0);
        boosted.apply_conns(&ConnMatrix::filled(3, 9));
        let nine = drive_to_completion(&mut boosted).remove(0);
        assert!(
            nine.makespan_s < 0.5 * single.makespan_s,
            "nine connections from t = 1 s: {} vs {}",
            nine.makespan_s,
            single.makespan_s
        );
    }

    #[test]
    fn mid_flight_submission_slows_the_first_tenant() {
        let transfers = [Transfer::new(DcId(0), DcId(1), 20.0)];
        let conns = ConnMatrix::filled(3, 1);

        let mut solo = NetEngine::new(sim3());
        solo.submit(&transfers, &conns);
        let solo_report = drive_to_completion(&mut solo).remove(0);

        let mut shared = NetEngine::new(sim3());
        shared.submit(&transfers, &conns);
        // A second tenant arrives 2 s in, shuffling on the same pair.
        let mid = shared.advance_until(2.0);
        assert!(mid.is_empty(), "nothing should drain in the first 2 s");
        shared.submit(&[Transfer::new(DcId(0), DcId(1), 20.0)], &conns);
        let reports = drive_to_completion(&mut shared);
        assert_eq!(reports.len(), 2);
        let first = reports.iter().find(|r| r.group == GroupId(0)).unwrap();
        assert!(
            first.makespan_s > solo_report.makespan_s,
            "contended {} vs solo {}",
            first.makespan_s,
            solo_report.makespan_s
        );
    }

    #[test]
    fn stats_stay_coherent_across_mid_flight_submissions() {
        let conns = ConnMatrix::filled(3, 1);
        let mut engine = NetEngine::new(sim3());
        engine.submit(&[Transfer::new(DcId(0), DcId(1), 8.0)], &conns);
        let _ = engine.advance_until(1.0);
        let after_first = engine.sim().last_run_stats();
        assert!(after_first.solves >= 1);
        engine.submit(&[Transfer::new(DcId(2), DcId(1), 8.0)], &conns);
        let _ = drive_to_completion(&mut engine);
        let final_stats = engine.sim().last_run_stats();
        assert!(final_stats.solves > after_first.solves, "solves must accumulate");
        assert!(final_stats.epochs > after_first.epochs, "epochs must accumulate");
        assert_eq!(final_stats, engine.stats());
        assert!(final_stats.coalesced);
    }

    #[test]
    fn deadline_is_respected_and_resumable() {
        let conns = ConnMatrix::filled(3, 1);
        let mut engine = NetEngine::new(sim3());
        engine.submit(&[Transfer::new(DcId(0), DcId(2), 50.0)], &conns);
        // Deadline strictly inside an epoch: time must land exactly there.
        let none = engine.advance_until(2.6);
        assert!(none.is_empty());
        assert!((engine.sim().time_s() - 2.6).abs() < 1e-9);
        assert_eq!(engine.active_groups(), 1);
        let reports = drive_to_completion(&mut engine);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].completed_s > 2.6);
    }

    #[test]
    fn idle_engine_jumps_to_deadline() {
        let mut engine = NetEngine::new(sim3());
        assert!(engine.is_idle());
        let none = engine.advance_until(7.5);
        assert!(none.is_empty());
        assert!((engine.sim().time_s() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn empty_group_completes_instantly() {
        let conns = ConnMatrix::filled(3, 1);
        let mut engine = NetEngine::new(sim3());
        let id = engine.submit(&[Transfer::new(DcId(0), DcId(1), 0.0)], &conns);
        assert!(!engine.is_idle());
        let reports = engine.advance_until(f64::INFINITY);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].group, id);
        assert_eq!(reports[0].makespan_s, 0.0);
        assert_eq!(reports[0].min_pair_bw_mbps, 0.0);
        assert!(engine.is_idle());
        assert_eq!(engine.sim().time_s(), 0.0, "no time passes for an empty group");
    }

    #[test]
    fn has_live_flows_separates_stalls_from_slow_transfers() {
        let conns = ConnMatrix::filled(3, 1);
        // A progressing transfer: live flows while in flight.
        let mut engine = NetEngine::new(sim3());
        engine.submit(&[Transfer::new(DcId(0), DcId(1), 10.0)], &conns);
        let _ = engine.advance_until(1.0);
        assert!(engine.has_live_flows());
        // A rate-zero transfer (0-Mbps throttle): permanently stalled.
        let mut sim = sim3();
        sim.set_throttle(DcId(0), DcId(1), 0.0);
        let mut engine = NetEngine::new(sim);
        engine.submit(&[Transfer::new(DcId(0), DcId(1), 1.0)], &conns);
        let none = engine.advance_until(f64::INFINITY);
        assert!(none.is_empty(), "a rate-zero pair can never drain");
        assert!(!engine.is_idle());
        assert!(!engine.has_live_flows(), "stall must be distinguishable from slowness");
    }

    #[test]
    fn pair_finishing_inside_a_fractional_serve_drains_at_the_deadline() {
        let conns = ConnMatrix::filled(3, 1);
        let mut engine = NetEngine::new(sim3());
        let dt = EPOCH_DT_S;
        // Size the payload to 80 % of one epoch's quota: it would drain at
        // the first whole epoch, but a deadline at 0.9 epochs covers it
        // (0.9 × quota ≥ 0.8 × quota), so the partial serve must finish it.
        let rate = engine.sim().allocate_rates(&[FlowSpec::new(DcId(0), DcId(1), 1)])[0];
        let quota_gb = rate * dt / 1000.0;
        engine.submit(&[Transfer::new(DcId(0), DcId(1), 0.8 * quota_gb)], &conns);
        let events = engine.advance_until(0.9 * dt);
        assert_eq!(events.len(), 1, "the pair drained inside the fraction");
        assert!((events[0].completed_s - 0.9 * dt).abs() < 1e-9);
        assert!(engine.is_idle());
    }

    #[test]
    fn payload_is_conserved_across_tenants() {
        let conns = ConnMatrix::filled(3, 2);
        let mut engine = NetEngine::new(sim3());
        engine.submit(&[Transfer::new(DcId(0), DcId(1), 6.0)], &conns);
        let _ = engine.advance_until(1.3); // force a fractional-epoch serve
        engine.submit(&[Transfer::new(DcId(1), DcId(2), 4.0)], &conns);
        let reports = drive_to_completion(&mut engine);
        let moved: f64 = reports.iter().flat_map(|r| r.egress_gigabits.iter()).sum();
        assert!((moved - 10.0).abs() < 1e-6, "moved {moved} Gb of 10 Gb submitted");
    }

    #[test]
    fn same_timestamp_drains_report_in_group_id_order() {
        // Regression for deterministic event ordering: two identical
        // groups on the same pair get the same fair share, so their pairs
        // drain at the same epoch; the completion events must come out in
        // ascending GroupId (submission) order, every time.
        let conns = ConnMatrix::filled(3, 1);
        let mut engine = NetEngine::new(sim3());
        let ids: Vec<GroupId> = (0..3)
            .map(|_| engine.submit(&[Transfer::new(DcId(0), DcId(1), 12.0)], &conns))
            .collect();
        let events = engine.advance_until(f64::INFINITY);
        assert_eq!(events.len(), 3, "equal groups drain at the same instant");
        let first_done = events[0].completed_s;
        for (event, id) in events.iter().zip(&ids) {
            assert_eq!(event.group, *id, "events must be ordered by GroupId");
            assert_eq!(event.completed_s.to_bits(), first_done.to_bits());
        }
        assert!(engine.is_idle());
    }

    #[test]
    fn cross_group_demand_counts_only_boundary_pairs() {
        let conns = ConnMatrix::filled(3, 2);
        let mut engine = NetEngine::new(sim3());
        // DC0, DC1 in group 0; DC2 in group 1.
        let groups = [0usize, 0, 1];
        engine.submit(
            &[
                Transfer::new(DcId(0), DcId(1), 5.0), // intra-group
                Transfer::new(DcId(0), DcId(2), 5.0), // boundary 0 → 1
                Transfer::new(DcId(2), DcId(1), 5.0), // boundary 1 → 0
            ],
            &conns,
        );
        let demand = engine.cross_group_demand_mbps(&groups, 2);
        let spec02 = FlowSpec::new(DcId(0), DcId(2), 2);
        let spec21 = FlowSpec::new(DcId(2), DcId(1), 2);
        let want02 = engine.sim().unreserved_ceiling_mbps(&spec02);
        let want21 = engine.sim().unreserved_ceiling_mbps(&spec21);
        assert_eq!(demand.get(0, 1).to_bits(), want02.to_bits());
        assert_eq!(demand.get(1, 0).to_bits(), want21.to_bits());
        assert_eq!(demand.get(0, 0), 0.0, "intra-group traffic never hits the backbone");
    }

    #[test]
    fn backbone_allocation_caps_boundary_pairs_and_slows_them() {
        let conns = ConnMatrix::filled(3, 1);
        let groups = [0usize, 0, 1];

        let mut free = NetEngine::new(sim3());
        free.submit(&[Transfer::new(DcId(0), DcId(2), 10.0)], &conns);
        let unconstrained = drive_to_completion(&mut free).remove(0);

        let mut capped = NetEngine::new(sim3());
        capped.submit(&[Transfer::new(DcId(0), DcId(2), 10.0)], &conns);
        let mut share = crate::grid::Grid::filled(2, f64::INFINITY);
        share.set(0, 1, 20.0); // a 20 Mbps trunk reservation
        let demand = capped.cross_group_demand_mbps(&groups, 2);
        capped.apply_backbone_tiers(&[(&groups, &share, &demand)]);
        assert!((capped.sim().backbone_caps().get(0, 2) - 20.0).abs() < 1e-9);
        assert!(capped.sim().backbone_caps().get(0, 1).is_infinite());
        let constrained = drive_to_completion(&mut capped).remove(0);
        assert!(
            constrained.makespan_s > 2.0 * unconstrained.makespan_s,
            "a tight trunk reservation must slow the boundary shuffle: {} vs {}",
            constrained.makespan_s,
            unconstrained.makespan_s
        );
    }

    #[test]
    fn live_dynamics_keep_the_engine_coalescing() {
        // Tick-quantized OU dynamics: the engine clips its jumps at tick
        // boundaries and otherwise serves whole inter-tick segments, so a
        // group takes far fewer solves than epochs.
        let topo = Topology::builder()
            .dc(Region::UsEast, VmType::t3_nano(), 1)
            .dc(Region::UsWest, VmType::t3_nano(), 1)
            .dc(Region::ApSoutheast1, VmType::t3_nano(), 1)
            .build()
            .unwrap();
        let params =
            LinkModelParams { dynamics_tick_s: 30.0, snapshot_noise: 0.0, ..Default::default() };
        let mut engine = NetEngine::new(NetSim::new(topo, params, 19));
        let transfers =
            [Transfer::new(DcId(0), DcId(1), 80.0), Transfer::new(DcId(0), DcId(2), 15.0)];
        engine.submit(&transfers, &ConnMatrix::filled(3, 2));
        assert_eq!(drive_to_completion(&mut engine).len(), 1);
        let stats = engine.sim().last_run_stats();
        assert!(stats.coalesced);
        assert!(
            stats.solves * 10 <= stats.epochs,
            "30 s ticks should coalesce >= 10x: {} solves over {} epochs",
            stats.solves,
            stats.epochs
        );
    }

    #[test]
    fn outage_mid_flight_stalls_then_recovery_completes() {
        let conns = ConnMatrix::filled(3, 1);
        let mut sim = sim3();
        sim.set_fault_schedule(crate::faults::FaultSchedule::new().dc_outage(DcId(1), 1.0, 25.0));
        let mut engine = NetEngine::new(sim);
        let id = engine.submit(&[Transfer::new(DcId(0), DcId(1), 2.0)], &conns);
        // Mid-outage the group is stalled but not dead: recovery pends.
        let none = engine.advance_until(10.0);
        assert!(none.is_empty());
        assert!(engine.is_group_stalled(id), "outage must stall the group");
        assert_eq!(engine.stalled_groups(), vec![id]);
        assert!(!engine.has_live_flows());
        assert!(engine.sim().has_pending_faults(), "recovery is still scheduled");
        // Recovery drains it without any caller intervention.
        let reports = drive_to_completion(&mut engine);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].completed_s > 25.0, "completed at {}", reports[0].completed_s);
        assert!(!engine.is_group_stalled(id));
    }

    #[test]
    fn permanent_outage_returns_empty_without_burning_the_epoch_budget() {
        let conns = ConnMatrix::filled(3, 1);
        let mut sim = sim3();
        sim.set_fault_schedule(
            crate::faults::FaultSchedule::new().at(0.5, crate::faults::FaultKind::DcDown(DcId(1))),
        );
        let mut engine = NetEngine::new(sim);
        let id = engine.submit(&[Transfer::new(DcId(0), DcId(1), 2.0)], &conns);
        let none = engine.advance_until(f64::INFINITY);
        assert!(none.is_empty());
        assert!(!engine.is_idle());
        assert!(!engine.has_live_flows());
        assert!(engine.is_group_stalled(id));
        assert!(!engine.sim().has_pending_faults(), "nothing left to heal the pair");
        assert!(
            engine.stats().epochs < 10_000,
            "dead-stall break must not serve empty epochs: {}",
            engine.stats().epochs
        );
    }

    #[test]
    fn cancel_group_returns_partial_accounting_and_remainder() {
        let conns = ConnMatrix::filled(3, 1);
        let mut sim = sim3();
        sim.set_fault_schedule(
            crate::faults::FaultSchedule::new().at(2.0, crate::faults::FaultKind::DcDown(DcId(1))),
        );
        let mut engine = NetEngine::new(sim);
        let id = engine.submit(&[Transfer::new(DcId(0), DcId(1), 8.0)], &conns);
        let _ = engine.advance_until(10.0);
        assert!(engine.is_group_stalled(id));
        let (partial, remaining) = engine.cancel_group(id).expect("group is in flight");
        assert_eq!(partial.group, id);
        assert_eq!(remaining.len(), 1, "one pair still holds payload");
        let left = remaining[0].gigabits;
        let moved = partial.egress_gigabits[0];
        assert!(moved > 0.0, "2 s of healthy transfer moved something");
        assert!((moved + left - 8.0).abs() < 1e-6, "cancel conserves payload: {moved} + {left}");
        assert!(engine.is_idle(), "cancel removed the only group");
        assert!(engine.cancel_group(id).is_none(), "double cancel is a no-op");
    }

    #[test]
    fn idle_jumps_keep_degraded_time_exact() {
        let mut sim = sim3();
        sim.set_fault_schedule(crate::faults::FaultSchedule::new().dc_outage(DcId(0), 5.0, 9.0));
        let mut engine = NetEngine::new(sim);
        let none = engine.advance_until(20.0);
        assert!(none.is_empty());
        assert!((engine.sim().time_s() - 20.0).abs() < 1e-9);
        assert!((engine.sim().degraded_s() - 4.0).abs() < 1e-9, "{}", engine.sim().degraded_s());
        assert!(!engine.sim().fault_degraded());
    }

    /// The loop's list of the flows in flight — the description of the
    /// flow set that stands between events — against the groups. Under
    /// `cfg(test)` every event runs `TransferLoop::shadow_check` — the
    /// active pairs listed afresh from the groups, the loop's list held to
    /// them, and the textbook reference over them, rate for rate on
    /// `to_bits`, within its ceilings and capacities — so these tests only
    /// have to *reach* the code: each drives one thing that can change a
    /// flow set or a rate between two events, and checks the list right
    /// after it, before an event has filed it.
    mod description_parity {
        use super::*;
        use crate::faults::{FaultKind, FaultSchedule};
        use crate::{paper_testbed_n, paper_testbed_tiled};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Eight t3.nano DCs: an all-pairs group at two connections puts
        /// 28 on every host against a budget of 16, so the congestion
        /// divisors — and with them every NIC capacity — move with every
        /// drain.
        fn engine8(params: LinkModelParams) -> NetEngine {
            NetEngine::new(NetSim::new(paper_testbed_n(VmType::t3_nano(), 8), params, 7))
        }

        /// The all-pairs shuffle of DCs `base..base + width`, `gb(k)`
        /// gigabits on its `k`-th pair.
        fn shuffle(base: usize, width: usize, mut gb: impl FnMut(usize) -> f64) -> Vec<Transfer> {
            let pairs = (0..width).flat_map(|i| (0..width).map(move |j| (i, j)));
            pairs
                .filter(|(i, j)| i != j)
                .enumerate()
                .map(|(k, (i, j))| Transfer::new(DcId(base + i), DcId(base + j), gb(k)))
                .collect()
        }

        /// Asserts that the loop lists exactly the pairs in flight, in flow
        /// order: what the next event files.
        fn assert_listed(engine: &NetEngine) {
            let listed: Vec<_> = engine.lp.flows.iter().map(FlowRef::listed).collect();
            assert_eq!(listed, in_flight(&engine.lp.groups).collect::<Vec<_>>());
        }

        /// Advances by one deadline-bounded step.
        fn advance_by(engine: &mut NetEngine, step_s: f64) {
            let _ = engine.advance_until(engine.sim().time_s() + step_s);
        }

        #[test]
        fn a_submission_appends_and_a_completion_touches_nothing() {
            let conns = ConnMatrix::filled(8, 1);
            let mut engine = engine8(LinkModelParams::frozen());
            // The short group is submitted first: when it completes, the
            // long one behind it moves down a group index.
            let short = engine.submit(&shuffle(0, 4, |k| 0.2 + 0.01 * k as f64), &conns);
            engine.submit(&shuffle(2, 6, |k| 30.0 + k as f64), &conns);
            assert_eq!(engine.lp.flows.len(), 12 + 30);
            assert_listed(&engine);
            let done = engine.advance_until(f64::INFINITY);
            assert_eq!(done.iter().map(|r| r.group).collect::<Vec<_>>(), [short]);
            // Its pairs left the list as they drained, so the completion
            // takes nothing off it: the long group's pairs stand, group 0.
            assert_eq!(engine.lp.flows.len(), 30);
            assert_listed(&engine);
            advance_by(&mut engine, 3.3);
            // The newcomer's six pairs go to the end, on pairs the long
            // group is on too and on ones it is not.
            let before = engine.lp.flows.len();
            engine.submit(&shuffle(0, 3, |_| 5.0), &conns);
            assert_eq!(engine.lp.flows.len(), before + 6);
            assert_listed(&engine);
            advance_by(&mut engine, 3.3);
            assert_listed(&engine);
            assert_eq!(drive_to_completion(&mut engine).len(), 2);
        }

        #[test]
        fn cancel_group_takes_its_pairs_out_one_by_one() {
            let conns = ConnMatrix::filled(8, 2);
            let mut engine = engine8(LinkModelParams::frozen());
            let first = engine.submit(&shuffle(0, 8, |k| 40.0 + k as f64), &conns);
            engine.submit(&shuffle(0, 8, |k| 20.0 + k as f64), &conns);
            advance_by(&mut engine, 2.6);
            assert!(engine.cancel_group(first).is_some());
            assert_eq!(engine.lp.flows.len(), 56, "its 56 pairs left the list");
            assert_listed(&engine);
            advance_by(&mut engine, 2.6);
            assert_eq!(drive_to_completion(&mut engine).len(), 1);
        }

        #[test]
        fn apply_conns_rewrites_the_counts_in_flight_in_place() {
            let mut engine = engine8(LinkModelParams::frozen());
            // Two tenants on every pair, at two counts: a pair's flows are
            // two runs and two classes until the matrix below levels them.
            engine.submit(&shuffle(0, 8, |k| 20.0 + k as f64), &ConnMatrix::filled(8, 2));
            engine.submit(&shuffle(0, 8, |k| 20.0 + k as f64), &ConnMatrix::filled(8, 1));
            advance_by(&mut engine, 1.7);
            engine.apply_conns(&ConnMatrix::filled(8, 1));
            assert_listed(&engine);
            assert!(engine.lp.flows.iter().all(|flow| flow.conns == 1), "one tenant's halved");
            advance_by(&mut engine, 1.7);
            let slow = engine.observed_pair_bw_mbps().get(0, 7);
            engine.apply_conns(&ConnMatrix::filled(8, 1));
            assert_listed(&engine);
            advance_by(&mut engine, 1.7);
            // Both tenants' flows on the long pair leave the class they
            // share for a new one.
            let mut boosted = ConnMatrix::filled(8, 1);
            boosted.set(0, 7, 3);
            engine.apply_conns(&boosted);
            assert_listed(&engine);
            advance_by(&mut engine, 1.7);
            let fast = engine.observed_pair_bw_mbps().get(0, 7);
            assert!(fast > 1.5 * slow, "three connections on the long pair: {fast} vs {slow}");
            assert_eq!(drive_to_completion(&mut engine).len(), 2);
        }

        #[test]
        fn throttle_edits_reach_a_standing_description() {
            let mut engine = engine8(LinkModelParams::frozen());
            engine.submit(&shuffle(0, 8, |k| 20.0 + k as f64), &ConnMatrix::filled(8, 2));
            advance_by(&mut engine, 1.7);
            let free = engine.observed_pair_bw_mbps().get(0, 1);
            engine.sim_mut().set_throttle(DcId(0), DcId(1), 0.25 * free);
            assert_listed(&engine);
            advance_by(&mut engine, 1.7);
            let capped = engine.observed_pair_bw_mbps().get(0, 1);
            assert!(capped <= 0.25 * free + 1e-9, "{capped} under a {} throttle", 0.25 * free);
            engine.sim_mut().clear_throttles();
            advance_by(&mut engine, 1.7);
            assert!(engine.observed_pair_bw_mbps().get(0, 1) > capped);
            assert_eq!(drive_to_completion(&mut engine).len(), 1);
        }

        #[test]
        fn backbone_tiers_reach_a_standing_description() {
            let group_of = [0usize, 0, 0, 0, 1, 1, 1, 1];
            let mut engine = engine8(LinkModelParams::frozen());
            engine.submit(&shuffle(0, 8, |k| 20.0 + k as f64), &ConnMatrix::filled(8, 2));
            advance_by(&mut engine, 1.7);
            let demand = engine.cross_group_demand_mbps(&group_of, 2);
            let mut share = Grid::filled(2, f64::INFINITY);
            share.set(0, 1, 100.0);
            engine.apply_backbone_tiers(&[(&group_of, &share, &demand)]);
            assert_listed(&engine);
            advance_by(&mut engine, 1.7);
            let bw = engine.observed_pair_bw_mbps();
            let trunk: f64 =
                (0..4).flat_map(|i| (4..8).map(move |j| (i, j))).map(|(i, j)| bw.get(i, j)).sum();
            assert!(trunk <= 100.0 + 1e-6, "sixteen pairs share a 100 Mbps trunk: {trunk}");
            engine.sim_mut().clear_backbone_caps();
            assert_eq!(drive_to_completion(&mut engine).len(), 1);
        }

        #[test]
        fn fault_boundaries_reach_a_standing_description() {
            let mut engine = engine8(LinkModelParams::frozen());
            engine.submit(&shuffle(0, 8, |k| 20.0 + k as f64), &ConnMatrix::filled(8, 2));
            advance_by(&mut engine, 1.7);
            let now = engine.sim().time_s();
            engine.sim_mut().set_fault_schedule(
                FaultSchedule::new()
                    .dc_outage(DcId(3), now + 2.0, now + 9.0)
                    .link_flap(DcId(0), DcId(1), 0.3, now + 1.0, 4.0, 3)
                    .straggler(DcId(5), 0.6, now + 5.0),
            );
            assert_listed(&engine);
            advance_by(&mut engine, 4.0);
            assert_eq!(engine.observed_pair_bw_mbps().get(3, 0), 0.0, "DC 3 is down");
            assert_listed(&engine);
            assert_eq!(drive_to_completion(&mut engine).len(), 1);
        }

        #[test]
        fn dynamics_ticks_and_decay_reach_a_standing_description() {
            for tick_s in [1.0, 30.0] {
                let params = LinkModelParams {
                    dynamics_tick_s: tick_s,
                    snapshot_noise: 0.0,
                    ..Default::default()
                };
                let mut engine = engine8(params);
                engine.submit(&shuffle(0, 8, |k| 60.0 + k as f64), &ConnMatrix::filled(8, 2));
                advance_by(&mut engine, 1.7);
                engine.sim_mut().dynamics_mut().set_decay(0.004, 0.3);
                assert_listed(&engine);
                advance_by(&mut engine, 2.0 * tick_s + 0.4);
                assert_eq!(drive_to_completion(&mut engine).len(), 1);
                assert!(engine.stats().coalesced);
            }
        }

        #[test]
        fn a_gauge_through_sim_mut_reaches_a_standing_description() {
            let params = LinkModelParams { dynamics_tick_s: 1.0, ..Default::default() };
            let mut engine = engine8(params);
            let conns = ConnMatrix::filled(8, 2);
            engine.submit(&shuffle(0, 8, |k| 20.0 + k as f64), &conns);
            advance_by(&mut engine, 1.7);
            // A snapshot draws probe noise and moves the clock a second,
            // and with it the multipliers.
            let reading = engine.sim_mut().snapshot(&conns);
            assert!(reading.bw.get(0, 1) > 0.0);
            assert_listed(&engine);
            advance_by(&mut engine, 1.7);
            assert_eq!(drive_to_completion(&mut engine).len(), 1);
        }

        #[test]
        fn a_pair_draining_inside_the_fraction_is_retired() {
            let conns = ConnMatrix::filled(8, 1);
            let mut engine = engine8(LinkModelParams::frozen());
            let dt = EPOCH_DT_S;
            // One pair sized to drain inside a 0.9-epoch deadline, as in
            // `pair_finishing_inside_a_fractional_serve_drains_at_the_deadline`,
            // beside long ones that keep the group — and its description —
            // in flight.
            let mut transfers = shuffle(0, 3, |_| 50.0);
            let rate = engine.sim().allocate_rates(
                &transfers.iter().map(|t| FlowSpec::new(t.src, t.dst, 1)).collect::<Vec<_>>(),
            )[0];
            transfers[0].gigabits = 0.8 * rate * dt / 1000.0;
            engine.submit(&transfers, &conns);
            assert!(engine.advance_until(0.9 * dt).is_empty());
            assert_eq!(engine.remaining_pair_gb().get(0, 1), 0.0, "drained inside the fraction");
            assert_eq!(engine.lp.flows.len(), 5, "and off the list");
            assert_listed(&engine);
            assert_eq!(drive_to_completion(&mut engine).len(), 1);
        }

        /// Wakes every 5 s and, when it does, moves a throttle: the hook's
        /// edits land on the simulator, never on the flow set.
        struct ThrottleMover(f64);

        impl EpochHook for ThrottleMover {
            fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
                if ctx.time_s + 1e-9 >= self.0 {
                    self.0 += 5.0;
                    let cap =
                        if ctx.throttles.get(0, 1).is_finite() { f64::INFINITY } else { 150.0 };
                    ctx.throttles.set(0, 1, cap);
                }
            }

            fn next_wake(&mut self, _now_s: f64) -> Option<f64> {
                Some(self.0)
            }
        }

        /// Raises every pair to `self.1` connections once, at `self.0`.
        struct ConnRaiser(f64, u32);

        impl EpochHook for ConnRaiser {
            fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
                if ctx.time_s + 1e-9 >= self.0 {
                    *ctx.conns = ConnMatrix::filled(ctx.conns.len(), self.1);
                }
            }

            fn next_wake(&mut self, now_s: f64) -> Option<f64> {
                Some(if now_s < self.0 { self.0 } else { now_s + 60.0 })
            }
        }

        #[test]
        fn a_lone_hooked_run_files_whatever_the_hook_edits() {
            let sim8 =
                || NetSim::new(paper_testbed_n(VmType::t3_nano(), 8), LinkModelParams::frozen(), 7);
            let transfers = shuffle(0, 8, |k| 4.0 + k as f64);
            let conns = ConnMatrix::from_fn(8, |i, j| 1 + ((3 * i + j) % 4) as u32);

            let mut sim = sim8();
            let plain = sim.run_transfers(&transfers, &conns, Some(&mut ThrottleMover(f64::MAX)));
            let mut sim = sim8();
            sim.run_transfers(&transfers, &conns, Some(&mut ThrottleMover(5.0)));
            let stats = sim.last_run_stats();
            assert!(stats.coalesced && stats.solves >= 40, "{stats:?}");

            // The hook's connection matrix reaches the list's counts, and
            // the next event files them.
            let mut sim = sim8();
            let raised = sim.run_transfers(&transfers, &conns, Some(&mut ConnRaiser(6.0, 5)));
            assert_ne!(raised.makespan_s, plain.makespan_s, "and the edit reached the flows");
        }

        /// The traffic an event files, pinned beside
        /// `fleet_flow_sets_repeat_their_classes_and_lone_plans_do_not`:
        /// eight live 8-DC groups churning over the tiled 64-DC WAN (the
        /// repo benchmark's `probes::engine_churn` shape) solve some 140
        /// flows at each event.
        #[test]
        fn a_churning_fleet_files_some_140_flows_per_event() {
            let topo = paper_testbed_tiled(VmType::t2_medium(), 64);
            let mut engine = NetEngine::new(NetSim::new(topo, LinkModelParams::frozen(), 11));
            let conns = ConnMatrix::filled(64, 1);
            let mut rng = StdRng::seed_from_u64(64);
            let mut submitted = 0;
            let mut submit = |engine: &mut NetEngine| {
                engine
                    .submit(&shuffle(8 * (submitted % 8), 8, |_| rng.gen_range(0.5..4.0)), &conns);
                submitted += 1;
            };
            (0..8).for_each(|_| submit(&mut engine));
            let mut drained = 0;
            while drained < 24 {
                for _ in engine.advance_until(f64::INFINITY) {
                    drained += 1;
                    submit(&mut engine);
                }
            }
            let stats = engine.stats();
            assert!(stats.solves >= 200, "{stats:?}");
            assert!((100..200).contains(&(stats.flows / stats.solves)), "{stats:?}");
        }

        /// One step of a random multi-tenant script.
        fn step(engine: &mut NetEngine, rng: &mut StdRng, live: &mut Vec<GroupId>) {
            let n = engine.sim().topology().len();
            let palette = |rng: &mut StdRng| [1u32, 2, 4][rng.gen_range(0usize..3)];
            let now = engine.sim().time_s();
            match rng.gen_range(0..12) {
                // Tenants on shared pairs: blocks overlap, payloads and
                // connection counts come from small palettes.
                0..=2 => {
                    let width = rng.gen_range(2..n.min(6) + 1);
                    let base = rng.gen_range(0..n - width + 1);
                    let sizes = [0.4, 1.0, 2.5, rng.gen_range(0.1..6.0)];
                    let pick = rng.gen_range(1usize..5);
                    let transfers = shuffle(base, width, |k| sizes[k % pick]);
                    live.push(engine.submit(&transfers, &ConnMatrix::filled(n, palette(rng))));
                }
                // A deadline strictly inside an epoch.
                3..=5 => {
                    let done = engine.advance_until(now + rng.gen_range(0.05..6.0));
                    live.retain(|id| done.iter().all(|r| r.group != *id));
                }
                // The next completion, or a minute: with no deadline, a pair
                // a throttle holds at zero while the dynamics tick would
                // spend the whole epoch budget a tick at a time.
                6 => {
                    let done = engine.advance_until(now + 60.0);
                    live.retain(|id| done.iter().all(|r| r.group != *id));
                }
                7 => {
                    if !live.is_empty() {
                        let id = live.swap_remove(rng.gen_range(0..live.len()));
                        assert!(engine.cancel_group(id).is_some());
                    }
                }
                8 => engine.apply_conns(&ConnMatrix::filled(n, palette(rng))),
                9 => {
                    if rng.gen_range(0..3) == 0 {
                        engine.sim_mut().clear_throttles();
                    } else {
                        let cap = [0.0, 40.0, 300.0][rng.gen_range(0usize..3)];
                        let (src, dst) = (DcId(rng.gen_range(0..n)), DcId(rng.gen_range(0..n)));
                        engine.sim_mut().set_throttle(src, dst, cap);
                    }
                }
                10 => {
                    let group_of: Vec<usize> = (0..n).map(|dc| 2 * dc / n).collect();
                    let demand = engine.cross_group_demand_mbps(&group_of, 2);
                    let share = Grid::from_fn(2, |i, j| {
                        if i == j {
                            f64::INFINITY
                        } else {
                            [f64::INFINITY, 60.0, 400.0][rng.gen_range(0usize..3)]
                        }
                    });
                    engine.apply_backbone_tiers(&[(&group_of, &share, &demand)]);
                }
                _ => {
                    if rng.gen_range(0..2) == 0 {
                        engine.sim_mut().dynamics_mut().set_decay(rng.gen_range(0.0..0.01), 0.4);
                    } else {
                        let _ = engine.sim_mut().snapshot(&ConnMatrix::filled(n, 1));
                    }
                }
            }
        }

        proptest! {
            #[test]
            fn random_multi_tenant_scripts_keep_the_list_in_order(
                seed in 0u64..u64::MAX,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let n = [3usize, 8][rng.gen_range(0usize..2)];
                let params = match rng.gen_range(0..3) {
                    0 => LinkModelParams::frozen(),
                    1 => LinkModelParams { dynamics_tick_s: 1.0, ..Default::default() },
                    _ => LinkModelParams { dynamics_tick_s: 30.0, ..Default::default() },
                };
                let mut sim = NetSim::new(paper_testbed_n(VmType::t3_nano(), n), params, seed);
                if rng.gen_range(0..2) == 0 {
                    let dc = |rng: &mut StdRng| DcId(rng.gen_range(0..n));
                    sim.set_fault_schedule(
                        FaultSchedule::new()
                            .dc_outage(dc(&mut rng), 2.0, rng.gen_range(4.0..12.0))
                            .link_flap(DcId(0), DcId(1), 0.4, 1.0, 3.0, 2)
                            .at(rng.gen_range(0.0..8.0), FaultKind::GlobalFactor(0.7)),
                    );
                }
                let mut engine = NetEngine::new(sim);
                let mut live = Vec::new();
                let first = shuffle(0, n, |k| [0.5, 2.0][k % 2]);
                live.push(engine.submit(&first, &ConnMatrix::filled(n, 2)));
                for _ in 0..rng.gen_range(8..30) {
                    let solves = engine.stats().solves;
                    step(&mut engine, &mut rng, &mut live);
                    // Whatever the step was — a submission, a cancellation,
                    // a serve, an edit of the simulator or of the counts —
                    // the list names the pairs in flight, and the one event
                    // after it files every one of them.
                    assert_listed(&engine);
                    if engine.stats().solves > solves || engine.active_groups() == 0 {
                        continue;
                    }
                    let (before, listed) = (engine.stats(), engine.lp.flows.len() as u64);
                    let done = engine.advance_until(engine.sim().time_s() + 1e-3);
                    live.retain(|id| done.iter().all(|r| r.group != *id));
                    let after = engine.stats();
                    prop_assert_eq!(after.solves - before.solves, 1);
                    prop_assert_eq!(after.flows - before.flows, listed);
                    let rounds = engine.lp.shape.rounds as u64;
                    prop_assert_eq!(after.rounds - before.rounds, rounds);
                }
                // Lift what could stall a pair for good, then drain.
                engine.sim_mut().clear_throttles();
                engine.sim_mut().clear_backbone_caps();
                for _ in 0..10_000 {
                    if engine.is_idle() {
                        break;
                    }
                    let _ = engine.advance_until(f64::INFINITY);
                }
                prop_assert!(engine.is_idle(), "every group drains once the caps are lifted");
                prop_assert!(engine.lp.flows.is_empty());
                prop_assert_eq!(engine.stats(), engine.sim().last_run_stats());
            }
        }
    }
}
