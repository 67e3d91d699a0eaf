//! Weighted max-min fair bandwidth allocation (progressive filling).
//!
//! Runtime contention is the core of the paper's motivation (§2.2): when
//! all DC pairs transfer simultaneously, each flow's throughput is decided
//! by how the shared resources — VM egress NICs, VM ingress NICs and
//! backbone paths — are divided. The simulator divides them with classic
//! progressive filling, weighted by each flow's TCP bias
//! (`connections / RTT^alpha`), subject to per-flow window ceilings.
//!
//! # Hot-path design
//!
//! Every fleet, shard, gateway and `run_transfers` event ends in one
//! solve, so a solve must be cheap — and since every committed digest in
//! this repo hashes its rates, it must be cheap *without changing a bit of
//! them*. The solver therefore performs, on every rate and every
//! resource sum, exactly the floating-point operations of the plain
//! algorithm in the same order; it saves the memory touches that fed no
//! operation, and the operations whose operands and result are bit-equal
//! to ones it has already performed (flow classes, below). The plain
//! algorithm (all flows and all resources scanned in every round, nothing
//! pruned, nothing shared) is kept as `reference::ReferenceWorkspace`
//! under `#[cfg(test)]`, and proptests here and in `sim.rs` hold the two
//! to `f64::to_bits` equality.
//!
//! * **Reuse.** [`FairnessProblem`] stores resource membership as
//!   CSR-style flat arrays and [`FairnessProblem::clear`] keeps their
//!   capacity; [`FairnessWorkspace`] owns every buffer a solve needs, so
//!   repeated solves are allocation-free once the buffers have grown.
//! * **Incremental sums.** Each resource's consumed bandwidth `used` and
//!   active-weight sum `active_w` are updated in place — once per round,
//!   plus once per member when it freezes — never re-summed.
//! * **Active sets.** A round only concerns flows that are still filling
//!   and resources that still have one. The workspace keeps the resources
//!   as an ascending, order-preserving compacted list: `live` holds every
//!   resource that is not slack (below) and has an unfrozen member (one
//!   may linger for a round after its last member froze; its zero
//!   `active_w` excludes it from every test). Walking it visits the
//!   resources a full scan would have acted on, in the same order, so
//!   `t_star` and every `used`/`active_w` update sequence are unchanged.
//!   The flows are kept by class (below). Growing and freezing at the
//!   ceiling follow the resources' taking the round's growth at their
//!   pre-freeze weight — the order the plain algorithm's separate passes
//!   produce.
//! * **One pass over the membership.** Preparing a solve reads each
//!   membership entry once: it sums the resource's active weight, applies
//!   the slack test, and threads the entry into its flow's linked list of
//!   live resources, which is all the flow → resource adjacency a freeze
//!   needs. There is no second counting sort.
//!
//! ## Slack resources
//!
//! A resource whose capacity its members' ceilings cannot fill never
//! matters: most backbone paths (4 Gbps against window-limited flows) and
//! lightly loaded NICs. Such a resource is dropped before the rounds.
//! Let `k` be its active members, `S = Σ c_f` their ceilings, `W = Σ w_f`
//! their weights, `G = W / min w_f`, `R` the round limit of the solve
//! and `u = 2⁻⁵³`. A rate never exceeds its ceiling, so in exact
//! arithmetic `Σ r_f ≤ S` throughout. The solver's tracked sums differ
//! from the exact ones by rounding only:
//!
//! * `active_w` is a `k`-term sum followed by at most `k` subtractions, all
//!   at magnitude ≤ `W`: it is within `2·k·u·W` of the exact active weight.
//! * `used` grows by `active_w · t_star` per round. Over the rounds in
//!   which the resource has an active member the `t_star` sum to at most
//!   `(S + EPS) / min w_f` (the last member to freeze grew by its weight
//!   times that), so the `active_w` error contributes at most
//!   `2·k·u·G·(S + EPS)`; the additions themselves, the members' own rate
//!   roundings and the freeze corrections add at most `u·S·(2R + k)`.
//!
//! *It never saturates:* `used + EPS ≤ S + drift + EPS`, below the
//! capacity once `cap − S` exceeds the drift plus `EPS`. *It never sets
//! `t_star`:* let `τ` be the smallest normalized headroom
//! `(c_f − r_f) / w_f` among its active members, so `t_star ≤ τ`. Summing
//! `c_f − r_f ≥ τ·w_f` over them (the mediant inequality) gives
//! `cap − Σ r_f ≥ (cap − S) + τ·A` with `A` the exact active weight, hence
//! `(cap − used) / active_w ≥ ((cap − S) − drift + τ·A) / (A + 2·k·u·W)`,
//! which is strictly above `τ` once `cap − S` exceeds the drift by
//! `τ·2·k·u·W ≤ 2·k·u·G·(S + EPS)`, plus `4·u·S` for the two divisions.
//! All told `cap − S > EPS + 8·u·(S + EPS)·(k·G + R)` suffices. The test
//! applies sixteen times that (`PRUNE_SLACK`) and never drops a resource
//! whose ceiling sum is not finite. A resource at `cap == S`, or an ulp
//! either side, is kept; the margin scales with the spread of the weights,
//! so an ill-conditioned resource (weights fourteen decades apart, where
//! `active_w` itself is mostly rounding) is simply never pruned.
//!
//! ## Flow classes
//!
//! A fleet's flow set repeats itself: tenants that overlap on eight DCs
//! put the same `(connections × RTT bias, window ceiling)` on a directed
//! pair once each — the repo benchmark's sixteen closed-loop tenants keep
//! some 136 flows in flight per solve, about eight to a class, not
//! sixteen to a pair — and 1 750 flows on a tiled 64-DC WAN carry about
//! thirty distinct pairs of values. A **class** is the set of active
//! flows whose `weight.to_bits()` and `ceiling.to_bits()` are equal
//! (value-equal, too: active flows have both above `EPS`, so no ±0 and no
//! NaN). Classes are found by value while preparing a solve — one
//! open-addressing lookup per active flow, nothing hinted by the caller —
//! and the rounds then run once per class instead of once per flow. That
//! moves no bit, in four steps:
//!
//! 1. *Shared accumulator.* Every member starts at rate 0 and, while
//!    active, takes `rate += weight · t_star` with bit-equal operands each
//!    round, so all active members of a class hold one bit pattern. The
//!    class keeps it once; a member receives it (or the ceiling) at the
//!    moment it freezes.
//! 2. *Order-free `min`.* The flow part of `t_star` is the minimum of
//!    `(ceiling − rate) / weight` over the active flows. Members of a
//!    class contribute the same value, those values are positive and not
//!    NaN (an active flow sits more than `EPS` below its ceiling), and
//!    `f64::min` over such values does not depend on order or
//!    multiplicity: the minimum over live classes is the same number.
//! 3. *Ascending-index freezes.* Freezing a flow updates `used[r] +=
//!    delta` and `active_w[r] = (active_w[r] − weight).max(0)` on each of
//!    its resources, and those do not commute: every resource must see a
//!    round's ceiling freezes in ascending flow index, as the per-flow
//!    loop makes them. A class's member list is ascending; when several
//!    classes reach their ceilings in one round — routine: WANify's
//!    heterogeneous plans put `(k·w, k·c)` flows on one pair, equal ratio,
//!    same round — their active members are marked in a bit mask that is
//!    then read back in index order. Growing every class before freezing
//!    any is the same as the per-flow loop's grow-and-freeze, because
//!    growing reads no resource state. The saturation pass is the plain
//!    one: resource by resource, member by member.
//! 4. *Early exits.* A solve can stop with flows still active (`t_star`
//!    not finite, `t_star ≤ EPS`, round limit). Their per-flow
//!    accumulators would hold what their class holds, so the class's rate
//!    is written to them on the way out.
//!
//! Detection is pure cost where nothing repeats (a lone plan's 28 flows
//! are 27 classes, a gauge is one flow), so it is kept to one struct per
//! class, a table sized by the classes rather than the flows and never
//! cleared (slots carry the solve's stamp), and two `u32`s per flow.
//!
//! ## What is kept between solves, and what is deliberately not
//!
//! Two things could outlive a solve, and they are treated differently.
//!
//! The **description** of the problem — which flows exist, on which
//! directed pair, with how many connections — is kept, by the transfer
//! loop ([`crate::engine`]), as a `PairFlows`: every flow filed once under
//! its pair, in ascending *slot* (its rank in the flow list a build would
//! be given, gaps allowed), plus per host the occupied pairs out of it and
//! the slots into it. A flow that joins is appended, one that leaves is
//! taken out of two short lists, a connection count is rewritten where it
//! stands; nothing is sorted, compacted or re-listed per event. The
//! solver reads the member lists of a built [`FairnessProblem`] off that
//! filing (`FairnessWorkspace::solve_pairs`): the egress NIC of a host is
//! its pairs' lists end to end, a path is one list, the ingress NIC is the
//! host's slot list; resources are visited in the order a build creates
//! them, and the round limit counts the flows and resources a build would
//! have. What the network decides — ceilings, weights, capacities — is
//! not part of the description at all: the solve asks a `Network` for it,
//! once per occupied pair and per run of equal connection counts on it,
//! which is also where the classes come from (one lookup per run). So the
//! solve performs, on every sum and every rate, the operations a solve of
//! the rebuilt problem performs, in the same order; the rounds are one
//! loop over a membership view that both descriptions implement.
//!
//! The **solve** is not kept: every one starts from zero rates, zero
//! `used`, a fresh class table. Warm-starting from the previous solve's
//! rates, maintaining a solve incrementally across events, and *summing*
//! the flows of one DC pair into one flow of their total weight would each
//! save more work than the above — and each changes the order in which
//! contributions accumulate into a rate or a resource sum, so the low
//! bits of every rate, and with them every committed digest, would move.
//! *Sharing* the arithmetic of bit-equal flows, which is what the classes
//! do, reorders nothing: each flow still freezes on its own, in its own
//! turn, with its own update to every resource it crosses. Nor is there
//! much for an incremental solve to keep: on the 64-DC fleet workload
//! 1 544 of the 1 896 rates in flight change at every event, because the
//! NIC congestion divisors move with every drain (and a tenth of the
//! flows in flight drain at every event). Skipping a solve whose problem
//! equals the previous one was measured instead: 5 %, 7 % and 11 % of
//! solves on the three fleet workloads of the repo benchmark qualify
//! (8–30 % change no rate), which does not pay for the state.

/// Identifies a capacity-constrained resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Aggregate WAN egress NIC of a data center.
    Egress(usize),
    /// Aggregate WAN ingress NIC of a data center.
    Ingress(usize),
    /// Backbone path for a directed region pair.
    Path(usize, usize),
}

/// A weighted max-min allocation problem.
///
/// Flows are referenced by their index in insertion order. Each flow has a
/// contention `weight` and a throughput `ceiling` (its window limit); each
/// resource caps the sum of its member flows' rates.
#[derive(Debug, Clone, Default)]
pub struct FairnessProblem {
    weights: Vec<f64>,
    ceilings: Vec<f64>,
    res_kinds: Vec<ResourceKind>,
    res_caps: Vec<f64>,
    /// CSR offsets into `members`; resource `r` owns
    /// `members[res_bounds[r]..res_bounds[r + 1]]`.
    res_bounds: Vec<usize>,
    members: Vec<usize>,
}

impl FairnessProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the problem while keeping its allocations for reuse.
    pub fn clear(&mut self) {
        self.weights.clear();
        self.ceilings.clear();
        self.res_kinds.clear();
        self.res_caps.clear();
        self.res_bounds.clear();
        self.members.clear();
    }

    /// Adds a flow and returns its index.
    ///
    /// A non-positive `weight` or `ceiling` yields a flow that is allocated
    /// zero bandwidth.
    pub fn add_flow(&mut self, weight: f64, ceiling_mbps: f64) -> usize {
        self.weights.push(weight.max(0.0));
        self.ceilings.push(ceiling_mbps.max(0.0));
        self.weights.len() - 1
    }

    /// Adds a resource constraining the given member flows.
    ///
    /// # Panics
    ///
    /// Panics if any member index does not refer to an added flow.
    pub fn add_resource(&mut self, kind: ResourceKind, capacity_mbps: f64, members: &[usize]) {
        self.add_resource_with(kind, capacity_mbps, members.iter().copied());
    }

    /// Adds a resource whose members come from an iterator, copying them
    /// straight into the flat membership array (no intermediate `Vec`).
    ///
    /// # Panics
    ///
    /// Panics if any member index does not refer to an added flow.
    pub fn add_resource_with(
        &mut self,
        kind: ResourceKind,
        capacity_mbps: f64,
        members: impl IntoIterator<Item = usize>,
    ) {
        if self.res_bounds.is_empty() {
            self.res_bounds.push(0);
        }
        for m in members {
            assert!(m < self.weights.len(), "resource member {m} refers to an unknown flow");
            self.members.push(m);
        }
        self.res_kinds.push(kind);
        self.res_caps.push(capacity_mbps.max(0.0));
        self.res_bounds.push(self.members.len());
    }

    /// Number of flows.
    pub fn flow_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of resources.
    pub fn resource_count(&self) -> usize {
        self.res_caps.len()
    }

    /// Overwrites the ceiling of flow `f`, as [`FairnessProblem::add_flow`]
    /// would have set it.
    pub(crate) fn set_ceiling(&mut self, f: usize, ceiling_mbps: f64) {
        self.ceilings[f] = ceiling_mbps.max(0.0);
    }

    /// Panics unless `rates` is physically possible for this problem:
    /// every rate finite, non-negative and at most its flow's ceiling, no
    /// resource carrying more than its capacity (give or take the
    /// solver's `EPS`). The transfer loop's shadow oracle holds every
    /// event of a debug or test build to it.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn audit(&self, rates: &[f64]) {
        for (f, (&rate, &ceiling)) in rates.iter().zip(&self.ceilings).enumerate() {
            assert!(rate.is_finite() && rate >= 0.0, "flow {f} is allocated {rate} Mbps");
            assert!(rate <= ceiling, "flow {f} runs at {rate} Mbps over a {ceiling} Mbps ceiling");
        }
        for (kind, capacity, members) in self.resources() {
            let carried = members.iter().fold(0.0, |sum, &m| sum + rates[m]);
            assert!(carried <= capacity + EPS, "{kind:?} carries {carried} of {capacity} Mbps");
        }
    }

    /// Member flows of resource `r`.
    fn members_of(&self, r: usize) -> &[usize] {
        &self.members[self.res_bounds[r]..self.res_bounds[r + 1]]
    }

    /// Iterates over `(kind, capacity_mbps, members)` for every resource.
    pub fn resources(&self) -> impl Iterator<Item = (ResourceKind, f64, &[usize])> + '_ {
        (0..self.resource_count())
            .map(|r| (self.res_kinds[r], self.res_caps[r], self.members_of(r)))
    }
}

/// "None" in the `u32` indices of a [`PairFlows`] and of its solve.
const NONE: u32 = u32::MAX;

/// One flow of a [`PairFlows`], as its source host lists it.
#[derive(Debug, Clone, Copy)]
struct PairFlow {
    dst: u32,
    /// Where the flow's rate goes.
    slot: u32,
    /// Its parallel connections.
    conns: u32,
}

/// A standing, pair-major description of the flows between `hosts` hosts:
/// the same allocation problem [`crate::NetSim::allocate_rates_with`]
/// sorts into a [`FairnessProblem`] on every call, kept in a shape that is
/// edited instead of sorted (module docs, "What is kept between solves").
///
/// The caller names each flow by a **slot**: a `u32` that grows with the
/// flow's rank in the flow list a fresh build would be given and is not
/// reused while the flow lives (so ascending slot *is* ascending flow
/// index, with gaps where flows have left). A flow is filed once, with
/// the flows of its directed pair, and the three member lists of a built
/// problem are read off that filing:
///
/// * the **egress** NIC of `src` is the host's list: its flows in
///   `(dst, slot)` order — what the build's two counting sorts produce;
/// * the **path** of `(src, dst)` is the run of equal `dst` in that list;
/// * the **ingress** NIC of `dst` lists its members in ascending flow
///   index, which interleaves the pairs `(·, dst)` (flow order is group
///   by group), so it cannot be read off the pair runs: each host keeps
///   the slots bound for it, ascending. Its sums take their operands from
///   the flow's class, found while the runs were walked.
///
/// A flow that joins has the highest slot so far: it goes to the end of
/// its pair's run and of its destination's slots. Flows that leave are
/// taken out of those two lists, each a host's worth of flows long, in
/// one pass per list however many it loses. Nothing here depends on the
/// network's state: weights, ceilings and capacities are asked of a
/// [`Network`] at every solve.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairFlows {
    /// Per host, the flows out of it in `(dst, slot)` order.
    egress: Vec<Vec<PairFlow>>,
    /// Per host, the slots of the flows into it, ascending.
    ingress: Vec<Vec<u32>>,
    /// Connections per host, both directions.
    host_conns: Vec<u32>,
    /// `(src, dst)` of each filed slot.
    ends: Vec<(u32, u32)>,
    /// Directed pairs with a flow on them: the runs of `egress`.
    pairs: usize,
    /// Working space of `remove_all`: per host list (egress `2·host`,
    /// ingress `2·host + 1`) whether it is losing a flow, and which are.
    losing: (Vec<bool>, Vec<u32>),
}

impl PairFlows {
    /// Makes an empty set for `hosts` hosts, unless it is one already.
    pub(crate) fn set_hosts(&mut self, hosts: usize) {
        if self.egress.len() != hosts {
            *self = Self {
                egress: vec![Vec::new(); hosts],
                ingress: vec![Vec::new(); hosts],
                host_conns: vec![0; hosts],
                losing: (vec![false; 2 * hosts], Vec::new()),
                ..Self::default()
            };
        }
    }

    /// Files a flow of `conns` connections from `src` to `dst` under
    /// `slot`, which must exceed every slot filed before it.
    pub(crate) fn insert(&mut self, slot: u32, src: usize, dst: usize, conns: u32) {
        let (out, into) = (&mut self.egress[src], &mut self.ingress[dst]);
        let at = out.partition_point(|flow| flow.dst as usize <= dst);
        debug_assert!(
            out[..at].last().is_none_or(|last| (last.dst as usize, last.slot) < (dst, slot))
                && into.last().is_none_or(|&last| last < slot),
            "slot {slot} joins out of order"
        );
        self.pairs += usize::from(out[..at].last().is_none_or(|last| last.dst as usize != dst));
        out.insert(at, PairFlow { dst: dst as u32, slot, conns });
        into.push(slot);
        self.host_conns[src] += conns;
        self.host_conns[dst] += conns;
        if self.ends.len() <= slot as usize {
            self.ends.resize(slot as usize + 1, (NONE, NONE));
        }
        self.ends[slot as usize] = (src as u32, dst as u32);
    }

    /// Takes the flows filed under `slots` (a slot nothing is filed under
    /// is passed over) out of their pairs' runs and their destinations'
    /// slots, and their connections off their hosts: one pass over each
    /// host list that loses a flow, however many it loses.
    pub(crate) fn remove_all(&mut self, slots: &[u32]) {
        let Self { egress, ingress, host_conns, ends, pairs, losing } = self;
        for &slot in slots {
            let Some(filed) = ends.get_mut(slot as usize).filter(|ends| ends.0 != NONE) else {
                continue;
            };
            let (src, dst) = std::mem::replace(filed, (NONE, NONE));
            for list in [2 * src, 2 * dst + 1] {
                if !std::mem::replace(&mut losing.0[list as usize], true) {
                    losing.1.push(list);
                }
            }
        }
        for list in losing.1.drain(..) {
            losing.0[list as usize] = false;
            let host = list as usize / 2;
            if list % 2 == 1 {
                ingress[host].retain(|&slot| ends[slot as usize].0 != NONE);
                continue;
            }
            let out = &mut egress[host];
            let runs = |out: &[PairFlow]| out.chunk_by(|a, b| a.dst == b.dst).count();
            let before = runs(out);
            out.retain(|flow| {
                let stays = ends[flow.slot as usize].0 != NONE;
                if !stays {
                    host_conns[host] -= flow.conns;
                    host_conns[flow.dst as usize] -= flow.conns;
                }
                stays
            });
            *pairs -= before - runs(out);
        }
    }

    /// Gives the flow filed under `slot`, if one is, a new connection count.
    pub(crate) fn set_conns(&mut self, slot: u32, conns: u32) {
        let Some(&(src, dst)) = self.ends.get(slot as usize).filter(|ends| ends.0 != NONE) else {
            return;
        };
        let out = &mut self.egress[src as usize];
        let flow = out.iter_mut().find(|flow| flow.slot == slot);
        let flow = flow.expect("a filed slot is listed under its source");
        let old = std::mem::replace(&mut flow.conns, conns);
        for host in [src, dst] {
            let on_host = &mut self.host_conns[host as usize];
            *on_host = *on_host - old + conns;
        }
    }

    /// Renames every slot `s` to `new_slot[s]`. The map must keep the
    /// filed slots' order and never raise one.
    pub(crate) fn renumber(&mut self, new_slot: &[u32]) {
        for flow in self.egress.iter_mut().flatten() {
            flow.slot = new_slot[flow.slot as usize];
        }
        for slot in self.ingress.iter_mut().flatten() {
            *slot = new_slot[*slot as usize];
        }
        let mut slots = 0;
        for (old, &new) in new_slot.iter().enumerate().take(self.ends.len()) {
            if new != NONE {
                self.ends[new as usize] = self.ends[old];
                slots = new as usize + 1;
            }
        }
        self.ends.truncate(slots);
    }

    /// Flows filed, and the resources a build over them would create: one
    /// per occupied NIC and one per occupied pair.
    fn size(&self) -> (usize, usize) {
        let (mut flows, mut resources) = (0, self.pairs);
        for (out, into) in self.egress.iter().zip(&self.ingress) {
            flows += into.len();
            resources += usize::from(!out.is_empty()) + usize::from(!into.is_empty());
        }
        (flows, resources)
    }
}

/// What the network says, at the instant of a solve, about the hosts and
/// directed pairs of a [`PairFlows`]. The solve clamps every answer at
/// zero, as [`FairnessProblem::add_flow`] and
/// [`FairnessProblem::add_resource`] clamp their arguments.
pub(crate) trait Network {
    /// The state of one directed pair, read once for every flow on it.
    type Pair;
    /// Capacity of `host`'s egress NIC with `conns` connections on the host.
    fn egress_cap_mbps(&self, host: usize, conns: u32) -> f64;
    /// Capacity of `host`'s ingress NIC with `conns` connections on the host.
    fn ingress_cap_mbps(&self, host: usize, conns: u32) -> f64;
    /// The directed pair `src → dst` as it stands.
    fn pair(&self, src: usize, dst: usize) -> Self::Pair;
    /// Capacity of the pair's backbone path.
    fn path_cap_mbps(&self, pair: &Self::Pair) -> f64;
    /// Contention weight of a flow of `conns` connections on the pair.
    fn weight(&self, pair: &Self::Pair, conns: u32) -> f64;
    /// Ceiling of a flow of `conns` connections on the pair.
    fn ceiling_mbps(&self, pair: &Self::Pair, conns: u32) -> f64;
}

/// Rates, weights and ceilings at or below this are treated as zero.
const EPS: f64 = 1e-9;

/// Scale of the slack-test margin: sixteen times the `8·u = 4·ε` of the
/// rounding-drift bound derived in the module docs.
const PRUNE_SLACK: f64 = 64.0 * f64::EPSILON;

/// End of a linked list in [`FairnessWorkspace::link`] and
/// [`FairnessWorkspace::class_link`].
const NO_LINK: u32 = u32::MAX;

/// Slots of a fresh class table (a power of two).
const MIN_TABLE: usize = 16;

/// The active flows of one solve whose weight and ceiling are bit-equal
/// (module docs, "Flow classes"): they hold the same rate for as long as
/// they are active, so the rounds keep it once.
#[derive(Debug, Clone, Copy)]
struct FlowClass {
    weight: f64,
    ceiling: f64,
    /// The rate every still-active member has accumulated.
    rate: f64,
    /// Members not yet frozen.
    active: u32,
    /// Lowest-index member; [`FairnessWorkspace::class_link`] chains the
    /// rest in ascending flow index.
    head: u32,
}

/// Size of the most recent [`FairnessWorkspace::solve`], for tests and
/// issues that need to know what traffic a solver change would see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveShape {
    /// Flows that took part (positive weight and ceiling).
    pub flows: usize,
    /// Distinct `(weight, ceiling)` bit patterns among them.
    pub classes: usize,
    /// Resources that survived the slack test.
    pub live_resources: usize,
    /// Progressive-filling rounds run.
    pub rounds: usize,
}

/// Reusable buffers for [`allocate_max_min`]-style solves.
///
/// One workspace can serve any sequence of problems; buffers grow to the
/// high-water mark and are then reused without further allocation.
#[derive(Debug, Clone, Default)]
pub struct FairnessWorkspace {
    rates: Vec<f64>,
    active: Vec<bool>,
    /// Incrementally maintained bandwidth consumed per resource.
    used: Vec<f64>,
    /// Incrementally maintained sum of active member weights per resource.
    active_w: Vec<f64>,
    /// Active member count per resource; when it reaches zero `active_w`
    /// is pinned to exactly 0.0, so float residue from the incremental
    /// subtractions can never leave a ghost resource binding `t_star`.
    active_n: Vec<usize>,
    /// One entry per distinct `(weight, ceiling)` among the active flows.
    classes: Vec<FlowClass>,
    /// Indices into `classes` of those with an active member, compacted
    /// as classes freeze.
    live_classes: Vec<u32>,
    /// Per active flow, `(class, next member of the class)`. (Flow and
    /// membership indices are kept as `u32` in the per-flow buffers:
    /// fleets hold tens of thousands of flows per solve, and these
    /// buffers set the solver's memory footprint.)
    class_link: Vec<(u32, u32)>,
    /// Open-addressing table from `(weight, ceiling)` bits to class, as
    /// `(stamp, class)`: a slot belongs to the current solve iff its
    /// stamp is `stamp`, so nothing is cleared between solves. Sized by
    /// the classes it has held (load ≤ ½), not by the flows.
    table: Vec<(u32, u32)>,
    stamp: u32,
    /// One bit per flow: the members of the classes that reached their
    /// ceiling in the current round, read back in ascending flow index.
    /// All zero between rounds.
    freeze_mask: Vec<u64>,
    /// Resources that can still bind — not slack, at least one active
    /// member — in ascending index order, compacted as they die.
    live: Vec<usize>,
    /// Flow → live-resource adjacency as one singly linked list per flow:
    /// `link_head[f]` indexes `link`, whose entries are `(next, resource)`
    /// and sit at the member's position in the problem's membership array.
    link_head: Vec<u32>,
    link: Vec<(u32, u32)>,
    /// The resources of the [`PairFlows`] being solved.
    pair_solve: PairSolve,
    shape: SolveShape,
}

impl FairnessWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-flow rates of the most recent [`FairnessWorkspace::solve`].
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Size of the most recent [`FairnessWorkspace::solve`].
    pub fn last_shape(&self) -> SolveShape {
        self.shape
    }

    /// Deactivates flow `f`, removing its weight from every live resource
    /// it belongs to and folding `rate_delta` (a ceiling clamp
    /// correction) into those resources' `used` sums. Each resource's
    /// update is independent of the others', so their order is immaterial.
    #[inline(always)] // out of line, the rounds' loops spill around the call: ×1.3 on small solves
    fn freeze_flow(&mut self, members: &impl Members, f: usize, weight: f64, rate_delta: f64) {
        self.active[f] = false;
        for r in members.live_resources(f) {
            self.used[r] += rate_delta;
            self.active_n[r] -= 1;
            self.active_w[r] =
                if self.active_n[r] == 0 { 0.0 } else { (self.active_w[r] - weight).max(0.0) };
        }
    }

    /// Each round saturates at least one flow or resource, so a solve
    /// runs at most flows + resources times (plus the round that finds
    /// nothing left).
    fn max_rounds(flows: usize, resources: usize) -> usize {
        flows + resources + 1
    }

    /// First slot of the probe sequence for a `(weight, ceiling)` key:
    /// the top bits of a multiplicative hash, which depend on every bit
    /// of the key (weights `w, 2w, 4w` differ in the exponent alone).
    fn home_slot(&self, weight_bits: u64, ceiling_bits: u64) -> usize {
        let key = weight_bits ^ ceiling_bits.rotate_left(32);
        let shift = u64::BITS - self.table.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// The class of an active flow with this weight and ceiling, created
    /// empty if no earlier flow of the solve had the same bits.
    fn class_for(&mut self, weight: f64, ceiling: f64) -> u32 {
        let (wb, cb) = (weight.to_bits(), ceiling.to_bits());
        let mask = self.table.len() - 1;
        let mut slot = self.home_slot(wb, cb);
        loop {
            let (stamp, k) = self.table[slot];
            if stamp != self.stamp {
                break;
            }
            let class = &self.classes[k as usize];
            if class.weight.to_bits() == wb && class.ceiling.to_bits() == cb {
                return k;
            }
            slot = (slot + 1) & mask;
        }
        let k = self.classes.len() as u32;
        self.classes.push(FlowClass { weight, ceiling, rate: 0.0, active: 0, head: NO_LINK });
        self.table[slot] = (self.stamp, k);
        if self.classes.len() * 2 > self.table.len() {
            self.grow_table();
        }
        k
    }

    /// Doubles the class table and re-seats the classes of the current
    /// solve in it.
    fn grow_table(&mut self) {
        let slots = self.table.len() * 2;
        self.table.clear();
        self.table.resize(slots, (0, 0));
        for k in 0..self.classes.len() {
            let class = &self.classes[k];
            let mut slot = self.home_slot(class.weight.to_bits(), class.ceiling.to_bits());
            while self.table[slot].0 == self.stamp {
                slot = (slot + 1) & (slots - 1);
            }
            self.table[slot] = (self.stamp, k as u32);
        }
    }

    /// Invalidates every slot of the class table at once.
    fn new_stamp(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.table.fill((0, 0));
            self.stamp = 1;
        }
    }

    /// Resets the buffers for `problem`, sorts its active flows into
    /// classes, and makes the one pass over its membership a solve
    /// needs: per-resource active weight and count, the slack test, and
    /// the flow → resource links of the resources that survive it.
    fn prepare(&mut self, problem: &FairnessProblem) {
        let n = problem.flow_count();
        let nr = problem.resource_count();
        let max_rounds = Self::max_rounds(n, nr);
        assert!(
            n < NO_LINK as usize
                && problem.members.len() < NO_LINK as usize
                && nr < NO_LINK as usize,
            "problem too large for 32-bit flow links"
        );
        self.rates.clear();
        self.rates.resize(n, 0.0);
        self.active.clear();
        self.active.resize(n, false);
        self.used.clear();
        self.used.resize(nr, 0.0);
        self.active_w.clear();
        self.active_w.resize(nr, 0.0);
        self.active_n.clear();
        self.active_n.resize(nr, 0);
        self.link_head.clear();
        self.link_head.resize(n, NO_LINK);
        // Entries are written before they are read; no need to reset them.
        if self.link.len() < problem.members.len() {
            self.link.resize(problem.members.len(), (NO_LINK, 0));
        }
        if self.class_link.len() < n {
            self.class_link.resize(n, (0, NO_LINK));
        }
        if self.freeze_mask.len() * 64 < n {
            self.freeze_mask.resize(n.div_ceil(64), 0);
        }
        if self.table.is_empty() {
            self.table.resize(MIN_TABLE, (0, 0));
        }
        self.new_stamp();

        // Highest index first, each flow pushed onto the front of its
        // class's list: the lists come out in ascending flow index.
        self.classes.clear();
        let mut flows = 0;
        for f in (0..n).rev() {
            let (weight, ceiling) = (problem.weights[f], problem.ceilings[f]);
            if weight > EPS && ceiling > EPS {
                self.active[f] = true;
                flows += 1;
                let k = self.class_for(weight, ceiling);
                let class = &mut self.classes[k as usize];
                self.class_link[f] = (k, class.head);
                class.head = f as u32;
                class.active += 1;
            }
        }
        self.live_classes.clear();
        self.live_classes.extend(0..self.classes.len() as u32);

        self.live.clear();
        for r in 0..nr {
            let (lo, hi) = (problem.res_bounds[r], problem.res_bounds[r + 1]);
            let mut load = Load::default();
            for &m in &problem.members[lo..hi] {
                if self.active[m] {
                    load.add(problem.weights[m], problem.ceilings[m]);
                }
            }
            if !self.admit(r, &load, problem.res_caps[r], max_rounds) {
                continue;
            }
            self.live.push(r);
            for k in lo..hi {
                let m = problem.members[k];
                if self.active[m] {
                    self.link[k] = (self.link_head[m], r as u32);
                    self.link_head[m] = k as u32;
                }
            }
        }
        self.shape = SolveShape {
            flows,
            classes: self.classes.len(),
            live_resources: self.live.len(),
            rounds: 0,
        };
    }

    /// Solves `problem` by progressive filling; returns per-flow rates in
    /// Mbps (also available afterwards via [`FairnessWorkspace::rates`]).
    ///
    /// Properties (checked by tests below):
    /// * no resource is oversubscribed;
    /// * no flow exceeds its ceiling;
    /// * the allocation is max-min fair w.r.t. the weights: a flow is only
    ///   below its proportional share if a ceiling or a saturated resource
    ///   binds it.
    pub fn solve(&mut self, problem: &FairnessProblem) -> &[f64] {
        self.prepare(problem);
        // The links leave the workspace for the rounds, which read them
        // through the membership view while updating the rest of it.
        let (link_head, link) =
            (std::mem::take(&mut self.link_head), std::mem::take(&mut self.link));
        let members = CsrMembers { problem, link_head: &link_head, link: &link };
        let max_rounds = Self::max_rounds(problem.flow_count(), problem.resource_count());
        self.rounds(&members, max_rounds, problem.flow_count());
        (self.link_head, self.link) = (link_head, link);
        &self.rates
    }

    /// Solves the flows standing in `flows` on `net` as it is now, from
    /// zero: rate for rate, on `f64::to_bits`, what
    /// [`FairnessWorkspace::solve`] gives for the problem a build over
    /// the same flows in slot order would make. Rates are indexed by
    /// slot, `slots` being one past the highest in use; a slot `flows`
    /// does not list keeps whatever rate it had.
    pub(crate) fn solve_pairs<N: Network>(&mut self, flows: &PairFlows, net: &N, slots: usize) {
        let mut solve = std::mem::take(&mut self.pair_solve);
        let max_rounds = self.prepare_pairs(flows, net, slots, &mut solve);
        self.rounds(&PairMembers { flows, solve: &solve }, max_rounds, slots);
        self.pair_solve = solve;
    }

    /// [`FairnessWorkspace::prepare`] for a [`PairFlows`]: the same sums
    /// over the same members in the same order, read off the hosts' lists.
    /// Resources are numbered egress `2·host`, ingress `2·host + 1`, then
    /// the occupied paths in ascending `(src, dst)` — the order a build
    /// creates them in, which is the order `live` must list them in.
    /// Returns the round limit.
    fn prepare_pairs<N: Network>(
        &mut self,
        set: &PairFlows,
        net: &N,
        slots: usize,
        solve: &mut PairSolve,
    ) -> usize {
        let hosts = set.egress.len();
        let (listed, resources) = set.size();
        let nr = 2 * hosts + set.pairs;
        let max_rounds = Self::max_rounds(listed, resources);
        assert!(slots < NO_LINK as usize && nr < NO_LINK as usize, "flow set too large");
        // Only filed slots are written, and only they are read.
        if self.rates.len() < slots {
            self.rates.resize(slots, 0.0);
            self.active.resize(slots, false);
            self.class_link.resize(slots, (0, NO_LINK));
        }
        if solve.slot_path.len() < slots {
            solve.slot_path.resize(slots, NONE);
        }
        if self.freeze_mask.len() * 64 < slots {
            self.freeze_mask.resize(slots.div_ceil(64), 0);
        }
        for sums in [&mut self.used, &mut self.active_w] {
            sums.clear();
            sums.resize(nr, 0.0);
        }
        self.active_n.clear();
        self.active_n.resize(nr, 0);
        solve.caps.clear();
        solve.caps.resize(nr, 0.0);
        solve.in_rounds.clear();
        solve.in_rounds.resize(nr, false);
        solve.paths.clear();
        if self.table.is_empty() {
            self.table.resize(MIN_TABLE, (0, 0));
        }
        self.new_stamp();
        self.classes.clear();

        // Host by host, pair by pair, in the order of the egress and path
        // member lists: weight, ceiling and class once per run of equal
        // connection counts, each flow into its class and into the sums
        // of its NIC and its path.
        let mut flows = 0;
        for (src, out) in set.egress.iter().enumerate() {
            let mut nic = Load::default();
            let mut lo = 0;
            for on_pair in out.chunk_by(|a, b| a.dst == b.dst) {
                let r = 2 * hosts + solve.paths.len();
                let pair = net.pair(src, on_pair[0].dst as usize);
                let mut path = Load::default();
                let (mut run, mut weight, mut ceiling, mut class) = (None, 0.0, 0.0, NONE);
                for flow in on_pair {
                    if run != Some(flow.conns) {
                        run = Some(flow.conns);
                        weight = net.weight(&pair, flow.conns).max(0.0);
                        ceiling = net.ceiling_mbps(&pair, flow.conns).max(0.0);
                        let live = weight > EPS && ceiling > EPS;
                        class = if live { self.class_for(weight, ceiling) } else { NONE };
                    }
                    let f = flow.slot as usize;
                    self.active[f] = class != NONE;
                    if class == NONE {
                        self.rates[f] = 0.0;
                        continue;
                    }
                    let members = &mut self.classes[class as usize];
                    self.class_link[f] = (class, members.head);
                    members.head = flow.slot;
                    members.active += 1;
                    solve.slot_path[f] = r as u32;
                    flows += 1;
                    nic.add(weight, ceiling);
                    path.add(weight, ceiling);
                }
                solve.paths.push((src as u32, lo as u32, (lo + on_pair.len()) as u32));
                lo += on_pair.len();
                solve.caps[r] = net.path_cap_mbps(&pair).max(0.0);
                solve.in_rounds[r] = self.admit(r, &path, solve.caps[r], max_rounds);
            }
            if !out.is_empty() {
                let r = 2 * src;
                solve.caps[r] = net.egress_cap_mbps(src, set.host_conns[src]).max(0.0);
                solve.in_rounds[r] = self.admit(r, &nic, solve.caps[r], max_rounds);
            }
        }
        // The ingress members, in ascending flow index: a flow's weight
        // and ceiling are its class's.
        for (dst, into) in set.ingress.iter().enumerate() {
            if into.is_empty() {
                continue;
            }
            let mut nic = Load::default();
            for &slot in into {
                if self.active[slot as usize] {
                    let class = &self.classes[self.class_link[slot as usize].0 as usize];
                    nic.add(class.weight, class.ceiling);
                }
            }
            let r = 2 * dst + 1;
            solve.caps[r] = net.ingress_cap_mbps(dst, set.host_conns[dst]).max(0.0);
            solve.in_rounds[r] = self.admit(r, &nic, solve.caps[r], max_rounds);
        }
        self.live.clear();
        self.live.extend((0..nr).filter(|&r| solve.in_rounds[r]));
        self.live_classes.clear();
        self.live_classes.extend(0..self.classes.len() as u32);
        self.shape = SolveShape {
            flows,
            classes: self.classes.len(),
            live_resources: self.live.len(),
            rounds: 0,
        };
        max_rounds
    }

    /// Records resource `r`'s active members and says whether it takes
    /// part in the rounds: it has an active member and is not slack.
    fn admit(&mut self, r: usize, load: &Load, capacity: f64, max_rounds: usize) -> bool {
        self.active_n[r] = load.count;
        self.active_w[r] = load.weight;
        load.count > 0 && !load.is_slack(capacity, max_rounds)
    }

    /// The rounds of a prepared solve. `flows` bounds the flow indices
    /// (or slots) that `members` can name.
    fn rounds(&mut self, members: &impl Members, max_rounds: usize, flows: usize) {
        let capacity = members.capacities();
        // The two compacted lists leave the workspace for the rounds so
        // the loops below can call `freeze_flow` while walking them.
        let mut classes = std::mem::take(&mut self.live_classes);
        let mut live = std::mem::take(&mut self.live);

        for _ in 0..max_rounds {
            if classes.is_empty() {
                break;
            }
            self.shape.rounds += 1;
            // Smallest normalized headroom across ceilings and resources.
            let mut t_star = f64::INFINITY;
            for &k in &classes {
                let class = &self.classes[k as usize];
                t_star = t_star.min((class.ceiling - class.rate) / class.weight);
            }
            for &r in &live {
                if self.active_w[r] > EPS {
                    t_star = t_star.min((capacity[r] - self.used[r]).max(0.0) / self.active_w[r]);
                }
            }
            if !t_star.is_finite() {
                break;
            }
            // Resources first: their `used` must take this round's growth
            // at the pre-freeze active weight, before any clamp correction.
            for &r in &live {
                if self.active_w[r] > EPS {
                    self.used[r] += self.active_w[r] * t_star;
                }
            }
            // Grow every live class; one that reached its ceiling leaves
            // the list and marks its active members for the freeze below.
            let mut kept = 0;
            for i in 0..classes.len() {
                let k = classes[i];
                let class = &mut self.classes[k as usize];
                class.rate += class.weight * t_star;
                if class.rate + EPS >= class.ceiling {
                    class.active = 0;
                    let mut m = class.head;
                    while m != NO_LINK {
                        if self.active[m as usize] {
                            self.freeze_mask[m as usize / 64] |= 1 << (m % 64);
                        }
                        m = self.class_link[m as usize].1;
                    }
                } else {
                    classes[kept] = k;
                    kept += 1;
                }
            }
            let at_ceiling = kept < classes.len();
            classes.truncate(kept);
            // Freeze the marked flows in ascending flow index, whichever
            // classes they came from: a resource's `used` and `active_w`
            // updates do not commute, and this is the order the per-flow
            // loop applies them in. Each flow freezes at most once per
            // solve and the freeze work is O(membership degree).
            if at_ceiling {
                for word in 0..flows.div_ceil(64) {
                    let mut bits = std::mem::take(&mut self.freeze_mask[word]);
                    while bits != 0 {
                        let f = word * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let class = self.classes[self.class_link[f].0 as usize];
                        self.rates[f] = class.ceiling;
                        self.freeze_flow(members, f, class.weight, class.ceiling - class.rate);
                    }
                }
            }
            // Freeze the members of saturated resources at their class's
            // rate, dropping resources whose members are all frozen. One
            // that dies after its turn here is skipped by the weight test
            // and dropped a round later.
            let mut saturated = false;
            let mut kept = 0;
            for i in 0..live.len() {
                let r = live[i];
                if self.active_w[r] > EPS && self.used[r] + EPS >= capacity[r] {
                    for m in members.members(r) {
                        if self.active[m] {
                            let class = &mut self.classes[self.class_link[m].0 as usize];
                            class.active -= 1;
                            self.rates[m] = class.rate;
                            let weight = class.weight;
                            self.freeze_flow(members, m, weight, 0.0);
                            saturated = true;
                        }
                    }
                }
                if self.active_n[r] > 0 {
                    live[kept] = r;
                    kept += 1;
                }
            }
            live.truncate(kept);
            if saturated {
                classes.retain(|&k| self.classes[k as usize].active > 0);
            }
            if t_star <= EPS {
                // Numerical stall: everything remaining is effectively frozen.
                break;
            }
        }
        // A solve that stopped early leaves active flows behind: they
        // keep what their class had accumulated.
        for &k in &classes {
            let class = self.classes[k as usize];
            let mut m = class.head;
            while m != NO_LINK {
                if self.active[m as usize] {
                    self.rates[m as usize] = class.rate;
                }
                m = self.class_link[m as usize].1;
            }
        }
        self.live_classes = classes;
        self.live = live;
    }
}

/// The active members of one resource as `prepare` sums them, in member
/// order.
#[derive(Debug, Clone, Copy)]
struct Load {
    count: usize,
    weight: f64,
    ceilings: f64,
    min_weight: f64,
}

impl Default for Load {
    fn default() -> Self {
        Self { count: 0, weight: 0.0, ceilings: 0.0, min_weight: f64::INFINITY }
    }
}

impl Load {
    fn add(&mut self, weight: f64, ceiling: f64) {
        self.count += 1;
        self.weight += weight;
        self.ceilings += ceiling;
        self.min_weight = self.min_weight.min(weight);
    }

    /// Slack test (module docs): the members' ceilings cannot fill the
    /// resource even after worst-case rounding drift of `used` and
    /// `active_w`, so it can neither bind `t_star` nor saturate.
    fn is_slack(&self, capacity: f64, max_rounds: usize) -> bool {
        let drift = self.count as f64 * (self.weight / self.min_weight) + max_rounds as f64;
        let margin = 2.0 * EPS + (self.ceilings + EPS) * drift * PRUNE_SLACK;
        self.ceilings.is_finite() && capacity - self.ceilings > margin
    }
}

/// What the rounds need to know of a prepared problem's membership, so
/// that one loop serves a [`FairnessProblem`] and a [`PairFlows`].
trait Members {
    /// Capacity per resource.
    fn capacities(&self) -> &[f64];
    /// The members of resource `r`, in member order.
    fn members(&self, r: usize) -> impl Iterator<Item = usize>;
    /// The resources of flow `f` that take part in the rounds.
    fn live_resources(&self, f: usize) -> impl Iterator<Item = usize>;
}

/// A [`FairnessProblem`] with the flow → resource links `prepare` threaded.
struct CsrMembers<'a> {
    problem: &'a FairnessProblem,
    link_head: &'a [u32],
    link: &'a [(u32, u32)],
}

impl Members for CsrMembers<'_> {
    #[inline]
    fn capacities(&self) -> &[f64] {
        &self.problem.res_caps
    }

    #[inline]
    fn members(&self, r: usize) -> impl Iterator<Item = usize> {
        self.problem.members_of(r).iter().copied()
    }

    #[inline]
    fn live_resources(&self, f: usize) -> impl Iterator<Item = usize> {
        let mut k = self.link_head[f];
        std::iter::from_fn(move || {
            let (next, r) = *self.link.get(k as usize)?;
            k = next;
            Some(r as usize)
        })
    }
}

/// What [`FairnessWorkspace::prepare_pairs`] found out about the
/// resources of a [`PairFlows`] for one solve.
#[derive(Debug, Clone, Default)]
struct PairSolve {
    /// Capacity per resource.
    caps: Vec<f64>,
    /// Per resource: takes part in the rounds.
    in_rounds: Vec<bool>,
    /// Per path resource, counted from `2·hosts`: its source host and
    /// its run in that host's list.
    paths: Vec<(u32, u32, u32)>,
    /// Per active slot: its path's resource.
    slot_path: Vec<u32>,
}

/// A [`PairFlows`] as prepared: a flow's resources are its source's
/// egress NIC, its destination's ingress NIC and its pair's path.
struct PairMembers<'a> {
    flows: &'a PairFlows,
    solve: &'a PairSolve,
}

impl Members for PairMembers<'_> {
    #[inline]
    fn capacities(&self) -> &[f64] {
        &self.solve.caps
    }

    #[inline]
    fn members(&self, r: usize) -> impl Iterator<Item = usize> {
        // A NIC or path out of a host is a stretch of its list; an
        // ingress NIC is the other list, and the first stretch is empty.
        let set = self.flows;
        let (out, into): (&[PairFlow], &[u32]) = match r.checked_sub(2 * set.egress.len()) {
            Some(path) => {
                let (src, lo, hi) = self.solve.paths[path];
                (&set.egress[src as usize][lo as usize..hi as usize], &[])
            }
            None if r.is_multiple_of(2) => (&set.egress[r / 2], &[]),
            None => (&[], &set.ingress[r / 2]),
        };
        out.iter().map(|flow| flow.slot as usize).chain(into.iter().map(|&slot| slot as usize))
    }

    #[inline]
    fn live_resources(&self, f: usize) -> impl Iterator<Item = usize> {
        let (src, dst) = self.flows.ends[f];
        let of_flow = [2 * src as usize, 2 * dst as usize + 1, self.solve.slot_path[f] as usize];
        of_flow.into_iter().filter(|&r| self.solve.in_rounds[r])
    }
}

/// Solves the problem by progressive filling; returns per-flow rates in Mbps.
///
/// Convenience wrapper that allocates a fresh [`FairnessWorkspace`]; hot
/// paths should hold a workspace and call [`FairnessWorkspace::solve`].
pub fn allocate_max_min(problem: &FairnessProblem) -> Vec<f64> {
    let mut ws = FairnessWorkspace::new();
    ws.solve(problem);
    ws.rates
}

/// Bit-exact reference for the parity tests here and in `sim.rs`.
#[cfg(test)]
pub(crate) mod reference {
    use super::FairnessProblem;

    /// The solver as it stood before the active-set rewrite, kept verbatim:
    /// every round scans all flows and all resources, nothing is pruned, and
    /// the flow → resource adjacency comes from a counting sort.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct ReferenceWorkspace {
        rates: Vec<f64>,
        active: Vec<bool>,
        /// Incrementally maintained bandwidth consumed per resource.
        used: Vec<f64>,
        /// Incrementally maintained sum of active member weights per resource.
        active_w: Vec<f64>,
        /// Active member count per resource; when it reaches zero `active_w`
        /// is pinned to exactly 0.0, so float residue from the incremental
        /// subtractions can never leave a ghost resource binding `t_star`.
        active_n: Vec<usize>,
        /// CSR adjacency flow → resources (offsets + flat resource indices).
        flow_res_bounds: Vec<usize>,
        flow_res: Vec<usize>,
        cursor: Vec<usize>,
    }

    impl ReferenceWorkspace {
        pub(crate) fn rates(&self) -> &[f64] {
            &self.rates
        }

        /// Deactivates flow `f`, removing its weight from every resource it
        /// belongs to and folding `rate_delta` (a ceiling clamp correction)
        /// into those resources' `used` sums.
        fn freeze_flow(&mut self, f: usize, weight: f64, rate_delta: f64) {
            self.active[f] = false;
            for k in self.flow_res_bounds[f]..self.flow_res_bounds[f + 1] {
                let r = self.flow_res[k];
                self.used[r] += rate_delta;
                self.active_n[r] -= 1;
                self.active_w[r] =
                    if self.active_n[r] == 0 { 0.0 } else { (self.active_w[r] - weight).max(0.0) };
            }
        }

        /// Solves `problem` by progressive filling; returns per-flow rates in
        /// Mbps (also available afterwards via `rates`).
        ///
        /// Properties (checked by tests below):
        /// * no resource is oversubscribed;
        /// * no flow exceeds its ceiling;
        /// * the allocation is max-min fair w.r.t. the weights: a flow is only
        ///   below its proportional share if a ceiling or a saturated resource
        ///   binds it.
        pub(crate) fn solve(&mut self, problem: &FairnessProblem) -> &[f64] {
            const EPS: f64 = 1e-9;
            let n = problem.flow_count();
            let nr = problem.resource_count();

            self.rates.clear();
            self.rates.resize(n, 0.0);
            self.active.clear();
            self.active.resize(n, false);
            self.used.clear();
            self.used.resize(nr, 0.0);
            self.active_w.clear();
            self.active_w.resize(nr, 0.0);
            self.active_n.clear();
            self.active_n.resize(nr, 0);

            // Flow → resource CSR adjacency via a counting sort over members.
            self.flow_res_bounds.clear();
            self.flow_res_bounds.resize(n + 1, 0);
            for &m in &problem.members {
                self.flow_res_bounds[m + 1] += 1;
            }
            for f in 0..n {
                self.flow_res_bounds[f + 1] += self.flow_res_bounds[f];
            }
            self.flow_res.clear();
            self.flow_res.resize(problem.members.len(), 0);
            self.cursor.clear();
            self.cursor.extend_from_slice(&self.flow_res_bounds[..n]);
            for r in 0..nr {
                for &m in problem.members_of(r) {
                    self.flow_res[self.cursor[m]] = r;
                    self.cursor[m] += 1;
                }
            }

            let mut active_count = 0usize;
            for f in 0..n {
                if problem.weights[f] > EPS && problem.ceilings[f] > EPS {
                    self.active[f] = true;
                    active_count += 1;
                }
            }
            for r in 0..nr {
                let active_members = problem.members_of(r).iter().filter(|&&m| self.active[m]);
                self.active_n[r] = active_members.clone().count();
                self.active_w[r] = active_members.map(|&m| problem.weights[m]).sum();
            }

            // Each round saturates at least one flow or resource, so the loop
            // runs at most flows + resources times.
            for _ in 0..(n + nr + 1) {
                if active_count == 0 {
                    break;
                }
                // Smallest normalized headroom across ceilings and resources.
                let mut t_star = f64::INFINITY;
                for f in 0..n {
                    if self.active[f] {
                        t_star =
                            t_star.min((problem.ceilings[f] - self.rates[f]) / problem.weights[f]);
                    }
                }
                for r in 0..nr {
                    if self.active_w[r] > EPS {
                        t_star = t_star
                            .min((problem.res_caps[r] - self.used[r]).max(0.0) / self.active_w[r]);
                    }
                }
                if !t_star.is_finite() {
                    break;
                }
                for f in 0..n {
                    if self.active[f] {
                        self.rates[f] += problem.weights[f] * t_star;
                    }
                }
                for r in 0..nr {
                    if self.active_w[r] > EPS {
                        self.used[r] += self.active_w[r] * t_star;
                    }
                }
                // Freeze flows at their ceiling, then members of saturated
                // resources; the freeze work is O(membership degree) and each
                // flow freezes at most once over the whole solve.
                for f in 0..n {
                    if self.active[f] && self.rates[f] + EPS >= problem.ceilings[f] {
                        let delta = problem.ceilings[f] - self.rates[f];
                        self.rates[f] = problem.ceilings[f];
                        self.freeze_flow(f, problem.weights[f], delta);
                        active_count -= 1;
                    }
                }
                for r in 0..nr {
                    if self.active_w[r] > EPS && self.used[r] + EPS >= problem.res_caps[r] {
                        for &m in problem.members_of(r) {
                            if self.active[m] {
                                self.freeze_flow(m, problem.weights[m], 0.0);
                                active_count -= 1;
                            }
                        }
                    }
                }
                if t_star <= EPS {
                    // Numerical stall: everything remaining is effectively frozen.
                    break;
                }
            }
            &self.rates
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(rates: &[f64], members: &[usize]) -> f64 {
        members.iter().map(|&m| rates[m]).sum()
    }

    #[test]
    fn single_flow_hits_min_of_ceiling_and_capacity() {
        let mut p = FairnessProblem::new();
        let f = p.add_flow(1.0, 500.0);
        p.add_resource(ResourceKind::Egress(0), 1000.0, &[f]);
        assert!((allocate_max_min(&p)[f] - 500.0).abs() < 1e-6);

        let mut p = FairnessProblem::new();
        let f = p.add_flow(1.0, 5000.0);
        p.add_resource(ResourceKind::Egress(0), 1000.0, &[f]);
        assert!((allocate_max_min(&p)[f] - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn equal_weights_split_equally() {
        let mut p = FairnessProblem::new();
        let a = p.add_flow(1.0, 1e9);
        let b = p.add_flow(1.0, 1e9);
        p.add_resource(ResourceKind::Egress(0), 1000.0, &[a, b]);
        let r = allocate_max_min(&p);
        assert!((r[a] - 500.0).abs() < 1e-6 && (r[b] - 500.0).abs() < 1e-6);
    }

    #[test]
    fn weights_bias_the_split() {
        let mut p = FairnessProblem::new();
        let a = p.add_flow(3.0, 1e9);
        let b = p.add_flow(1.0, 1e9);
        p.add_resource(ResourceKind::Egress(0), 1000.0, &[a, b]);
        let r = allocate_max_min(&p);
        assert!((r[a] - 750.0).abs() < 1e-6 && (r[b] - 250.0).abs() < 1e-6);
    }

    #[test]
    fn ceiling_frees_capacity_for_others() {
        let mut p = FairnessProblem::new();
        let a = p.add_flow(1.0, 100.0); // window-limited
        let b = p.add_flow(1.0, 1e9);
        p.add_resource(ResourceKind::Egress(0), 1000.0, &[a, b]);
        let r = allocate_max_min(&p);
        assert!((r[a] - 100.0).abs() < 1e-6);
        assert!((r[b] - 900.0).abs() < 1e-6, "b should absorb a's unused share, got {}", r[b]);
    }

    #[test]
    fn multiple_resources_bind_the_tightest() {
        let mut p = FairnessProblem::new();
        let a = p.add_flow(1.0, 1e9);
        p.add_resource(ResourceKind::Egress(0), 800.0, &[a]);
        p.add_resource(ResourceKind::Ingress(1), 300.0, &[a]);
        p.add_resource(ResourceKind::Path(0, 1), 4000.0, &[a]);
        assert!((allocate_max_min(&p)[a] - 300.0).abs() < 1e-6);
    }

    #[test]
    fn zero_weight_flow_gets_nothing() {
        let mut p = FairnessProblem::new();
        let a = p.add_flow(0.0, 1e9);
        let b = p.add_flow(1.0, 1e9);
        p.add_resource(ResourceKind::Egress(0), 1000.0, &[a, b]);
        let r = allocate_max_min(&p);
        assert_eq!(r[a], 0.0);
        assert!((r[b] - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_problem_returns_empty() {
        assert!(allocate_max_min(&FairnessProblem::new()).is_empty());
    }

    #[test]
    fn shared_middle_resource_triangle() {
        // Two flows share host 0 egress; one of them is also path-limited.
        let mut p = FairnessProblem::new();
        let near = p.add_flow(4.0, 1e9);
        let far = p.add_flow(1.0, 120.0);
        p.add_resource(ResourceKind::Egress(0), 1000.0, &[near, far]);
        let r = allocate_max_min(&p);
        assert!((r[far] - 120.0).abs() < 1e-6);
        assert!((r[near] - 880.0).abs() < 1e-6);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_state() {
        let mut p = FairnessProblem::new();
        let a = p.add_flow(1.0, 100.0);
        p.add_resource(ResourceKind::Egress(0), 50.0, &[a]);
        p.clear();
        assert_eq!(p.flow_count(), 0);
        assert_eq!(p.resource_count(), 0);
        let b = p.add_flow(1.0, 1e9);
        p.add_resource(ResourceKind::Egress(0), 700.0, &[b]);
        assert!((allocate_max_min(&p)[b] - 700.0).abs() < 1e-6);
    }

    #[test]
    fn huge_weights_leave_no_ghost_resources() {
        // Float residue from the incremental active-weight subtraction
        // must not let a saturated resource whose members all froze keep
        // binding t_star; flows on other resources must still fill up.
        let mut p = FairnessProblem::new();
        let a = p.add_flow(1.0e8 / 3.0, 1e9);
        let b = p.add_flow(1.0e8 / 7.0, 1e9);
        let c = p.add_flow(1.0, 1e9);
        p.add_resource(ResourceKind::Egress(0), 500.0, &[a, b]);
        p.add_resource(ResourceKind::Egress(1), 800.0, &[c]);
        let fast = allocate_max_min(&p);
        let slow = reference_solve(&p);
        for (f, (&x, &y)) in fast.iter().zip(&slow).enumerate() {
            assert!((x - y).abs() < 1e-6, "flow {f}: incremental {x} vs reference {y}");
        }
        assert!((fast[c] - 800.0).abs() < 1e-6, "flow c must fill its own NIC, got {}", fast[c]);
    }

    #[test]
    fn workspace_reuse_is_consistent() {
        let mut ws = FairnessWorkspace::new();
        let mut big = FairnessProblem::new();
        for i in 0..20 {
            let f = big.add_flow(1.0 + i as f64, 1e9);
            big.add_resource(ResourceKind::Egress(i), 100.0, &[f]);
        }
        let first = ws.solve(&big).to_vec();

        // A smaller problem in between must not leak state…
        let mut small = FairnessProblem::new();
        let a = small.add_flow(2.0, 1e9);
        small.add_resource(ResourceKind::Egress(0), 10.0, &[a]);
        assert!((ws.solve(&small)[a] - 10.0).abs() < 1e-6);

        // …and re-solving the big problem is bit-identical.
        assert_eq!(ws.solve(&big), first.as_slice());
    }

    /// Textbook progressive filling with per-round full recomputation —
    /// the reference the incremental solver is checked against.
    fn reference_solve(p: &FairnessProblem) -> Vec<f64> {
        const EPS: f64 = 1e-9;
        let n = p.flow_count();
        let mut rates = vec![0.0_f64; n];
        let mut active: Vec<bool> =
            (0..n).map(|f| p.weights[f] > EPS && p.ceilings[f] > EPS).collect();
        for _ in 0..(n + p.resource_count() + 1) {
            if !active.iter().any(|&a| a) {
                break;
            }
            let mut t_star = f64::INFINITY;
            for f in 0..n {
                if active[f] {
                    t_star = t_star.min((p.ceilings[f] - rates[f]) / p.weights[f]);
                }
            }
            for (_, cap, members) in p.resources() {
                let used: f64 = members.iter().map(|&m| rates[m]).sum();
                let w: f64 = members.iter().filter(|&&m| active[m]).map(|&m| p.weights[m]).sum();
                if w > EPS {
                    t_star = t_star.min((cap - used).max(0.0) / w);
                }
            }
            if !t_star.is_finite() {
                break;
            }
            for f in 0..n {
                if active[f] {
                    rates[f] += p.weights[f] * t_star;
                }
            }
            for f in 0..n {
                if active[f] && rates[f] + EPS >= p.ceilings[f] {
                    rates[f] = p.ceilings[f];
                    active[f] = false;
                }
            }
            for (_, cap, members) in p.resources() {
                let used: f64 = members.iter().map(|&m| rates[m]).sum();
                if used + EPS >= cap {
                    for &m in members {
                        active[m] = false;
                    }
                }
            }
            if t_star <= EPS {
                break;
            }
        }
        rates
    }

    /// Sum of `members`' ceilings exactly as the solver's slack test
    /// accumulates it (active members only, member order).
    fn ceiling_sum(p: &FairnessProblem, members: &[usize]) -> f64 {
        let active = |m: usize| p.weights[m] > EPS && p.ceilings[m] > EPS;
        members.iter().filter(|&&m| active(m)).map(|&m| p.ceilings[m]).fold(0.0, |a, c| a + c)
    }

    /// Holds the solver to the reference on `to_bits`; returns what the
    /// solve looked like, so a test can check it exercised what it meant to.
    fn assert_bit_identical(p: &FairnessProblem) -> SolveShape {
        assert_bit_identical_with(&mut FairnessWorkspace::new(), p)
    }

    /// [`assert_bit_identical`] through a workspace that has history.
    fn assert_bit_identical_with(ws: &mut FairnessWorkspace, p: &FairnessProblem) -> SolveShape {
        let fast = ws.solve(p);
        let mut reference = reference::ReferenceWorkspace::default();
        let slow = reference.solve(p);
        assert_eq!(fast.len(), slow.len());
        for (f, (a, b)) in fast.iter().zip(slow).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "flow {f}: {a} vs reference {b}");
        }
        ws.last_shape()
    }

    #[test]
    fn slack_resources_are_pruned_and_binding_ones_kept() {
        // The sim's common shape: window-limited flows under a NIC that
        // binds and a 4 Gbps path that cannot.
        let mut p = FairnessProblem::new();
        let a = p.add_flow(1.0, 900.0);
        let b = p.add_flow(2.0, 700.0);
        p.add_resource(ResourceKind::Egress(0), 1000.0, &[a, b]);
        p.add_resource(ResourceKind::Path(0, 1), 4000.0, &[a, b]);
        p.add_resource(ResourceKind::Ingress(1), 1600.0, &[a, b]); // cap == sum: kept
        let mut ws = FairnessWorkspace::new();
        ws.prepare(&p);
        assert_eq!(ws.live, vec![0, 2]);
        assert_bit_identical(&p);
    }

    #[test]
    fn pruning_margin_edge_is_bit_identical() {
        // Capacities at, one ulp either side of, and a few margins around
        // the members' ceiling sum: whichever side of the slack test each
        // lands on, the rates must not move by a bit.
        let weights = [0.31, 2.7, 0.004, 1.0, 0.09];
        let ceilings = [121.3, 1704.9, 87.25, 410.0, 933.1];
        let members = [0, 1, 2, 3, 4];
        let mut base = FairnessProblem::new();
        for (&w, &c) in weights.iter().zip(&ceilings) {
            base.add_flow(w, c);
        }
        let sum = ceiling_sum(&base, &members);
        let ulp = |x: f64, k: i64| f64::from_bits((x.to_bits() as i64 + k) as u64);
        let caps = [
            sum,
            ulp(sum, 1),
            ulp(sum, -1),
            sum + 1e-9,
            sum + 2e-9,
            sum + 4e-9,
            sum * (1.0 + 1e-12),
            sum * (1.0 + 1e-9),
            sum - 1e-9,
        ];
        for cap in caps {
            let mut p = base.clone();
            p.add_resource(ResourceKind::Egress(0), cap, &members);
            p.add_resource(ResourceKind::Ingress(1), 2500.0, &members[1..4]);
            assert_bit_identical(&p);
        }
    }

    #[test]
    fn infinite_ceilings_are_never_pruned() {
        let mut p = FairnessProblem::new();
        let a = p.add_flow(1.0, f64::INFINITY);
        let b = p.add_flow(3.0, 50.0);
        p.add_resource(ResourceKind::Egress(0), f64::INFINITY, &[a, b]);
        p.add_resource(ResourceKind::Path(0, 1), 4000.0, &[a, b]);
        let mut ws = FairnessWorkspace::new();
        ws.prepare(&p);
        assert_eq!(ws.live, vec![0, 1]);
        assert_bit_identical(&p);
    }

    /// The class-sharing rounds against the per-flow reference, on inputs
    /// that repeat their `(weight, ceiling)` — the only inputs on which
    /// member lists, shared rates and merged freezes run at all.
    mod class_parity {
        use super::*;
        use proptest::prelude::*;
        use rand::{rngs::StdRng, Rng, SeedableRng};

        /// Multiples a palette entry is drawn at: `(k·w, k·c)` keeps the
        /// headroom ratio, so the multiples of one entry reach their
        /// ceilings in the same round as distinct classes.
        const MULTIPLES: [f64; 4] = [1.0, 2.0, 3.0, 4.0];

        /// 2–400 flows over a palette of 1–6 `(weight, ceiling)` values
        /// (some unbounded) and their multiples, with a sprinkling of dead
        /// flows. Every flow crosses an egress and an ingress NIC of 1–8
        /// hosts, as the simulator's do; a few further resources take
        /// random members, one of them twice. Capacities bind, saturate,
        /// sit on the slack edge or are zero. Returns the palette size too.
        pub(super) fn palette_problem(seed: u64) -> (FairnessProblem, usize) {
            let mut rng = StdRng::seed_from_u64(seed);
            let palette: Vec<(f64, f64)> = (0..rng.gen_range(1usize..7))
                .map(|_| {
                    let unbounded = rng.gen_range(0u32..8) == 0;
                    let c = if unbounded { f64::INFINITY } else { rng.gen_range(5.0..2000.0) };
                    (rng.gen_range(0.05..8.0), c)
                })
                .collect();
            let mut p = FairnessProblem::new();
            let nf = rng.gen_range(2usize..401);
            let hosts = rng.gen_range(1usize..9);
            let mut nics: Vec<Vec<usize>> = vec![Vec::new(); 2 * hosts];
            for f in 0..nf {
                let (w, c) = palette[rng.gen_range(0..palette.len())];
                match rng.gen_range(0u32..20) {
                    0 => p.add_flow(0.0, c),
                    1 => p.add_flow(w, 1e-10),
                    _ => {
                        let k = MULTIPLES[rng.gen_range(0..MULTIPLES.len())];
                        p.add_flow(k * w, k * c)
                    }
                };
                nics[rng.gen_range(0..hosts)].push(f);
                nics[hosts + rng.gen_range(0..hosts)].push(f);
            }
            for _ in 0..rng.gen_range(0usize..4) {
                let mut members: Vec<usize> =
                    (0..nf).filter(|_| rng.gen_range(0u32..4) == 0).collect();
                members.push(rng.gen_range(0..nf));
                members.push(members[rng.gen_range(0..members.len())]);
                nics.push(members);
            }
            for (r, members) in nics.iter().enumerate().filter(|(_, m)| !m.is_empty()) {
                let sum = ceiling_sum(&p, members);
                let sum = if sum.is_finite() { sum } else { 3000.0 };
                let cap = match rng.gen_range(0u32..10) {
                    0 => sum,
                    1 => f64::from_bits(sum.to_bits() + 1),
                    2 => 1e9,
                    3 => 0.0,
                    4..=7 => sum * rng.gen_range(0.05..0.95),
                    _ => rng.gen_range(50.0..3000.0),
                };
                p.add_resource(ResourceKind::Egress(r), cap, members);
            }
            (p, palette.len())
        }

        proptest! {
            #[test]
            fn palette_problems_are_bit_identical_to_reference(seed in 0u64..u64::MAX) {
                let (p, palette) = palette_problem(seed);
                let shape = assert_bit_identical(&p);
                prop_assert!(shape.classes <= palette * MULTIPLES.len(), "{:?}", shape);
            }

            #[test]
            fn one_workspace_serves_palette_and_distinct_problems_alike(seed in 0u64..u64::MAX) {
                // Reuse across shapes, with the stamp about to wrap: a
                // stale table slot or list link must never be read.
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ws = FairnessWorkspace::new();
                ws.stamp = u32::MAX - 2;
                for _ in 0..6 {
                    let p = if rng.gen_range(0u32..2) == 0 {
                        palette_problem(rng.gen_range(0..u64::MAX)).0
                    } else {
                        properties::adversarial_problem(rng.gen_range(0..u64::MAX))
                    };
                    assert_bit_identical_with(&mut ws, &p);
                }
            }
        }

        #[test]
        fn classes_tied_at_their_ceilings_freeze_in_flow_order() {
            // A and B have one headroom ratio, so both reach their
            // ceilings in round one, members interleaved by index on a
            // resource that stays live: C keeps filling it until it
            // saturates, and C's final rate is a function of the
            // resource's `active_w` after the A/B subtractions — whose
            // low bits depend on the order they were made in.
            let mut sensitive = 0;
            for seed in 0..200 {
                let mut rng = StdRng::seed_from_u64(seed);
                let ratio = rng.gen_range(20.0..400.0);
                let (wa, wb, wc) =
                    (rng.gen_range(0.1..3.0), rng.gen_range(0.1..3.0), rng.gen_range(0.1..3.0));
                let mut p = FairnessProblem::new();
                let n = rng.gen_range(6usize..40);
                for f in 0..n {
                    match f % 3 {
                        0 => p.add_flow(wa, wa * ratio),
                        1 => p.add_flow(wb, wb * ratio),
                        _ => p.add_flow(wc, 1e9),
                    };
                }
                // Room for everyone's growth up to the tie, and some more.
                let members: Vec<usize> = (0..n).collect();
                let at_tie = p.weights.iter().sum::<f64>() * ratio;
                let cap = at_tie * rng.gen_range(1.1..2.0);
                p.add_resource(ResourceKind::Egress(0), cap, &members);
                let shape = assert_bit_identical(&p);
                assert_eq!((shape.classes, shape.live_resources), (3, 1), "{shape:?}");
                assert!(shape.rounds >= 2, "{shape:?}");

                // The same problem with the tied classes' members grouped
                // by class: if its C rates differ, this seed can tell
                // flow order from class order.
                let mut grouped = FairnessProblem::new();
                let by_class = |class: usize| (0..n).filter(move |f| f % 3 == class);
                for f in by_class(0).chain(by_class(1)).chain(by_class(2)) {
                    grouped.add_flow(p.weights[f], p.ceilings[f]);
                }
                grouped.add_resource(ResourceKind::Egress(0), cap, &members);
                let c_rate = |p: &FairnessProblem| *allocate_max_min(p).last().expect("n >= 6");
                if c_rate(&p).to_bits() != c_rate(&grouped).to_bits() {
                    sensitive += 1;
                }
            }
            assert!(sensitive >= 20, "only {sensitive} of 200 draws are order-sensitive");
        }

        #[test]
        fn a_class_split_by_a_saturated_resource_keeps_both_rates() {
            // Members 0 and 1 of the class sit behind a tight NIC and
            // freeze below the ceiling in round one; members 3 and 4 go on
            // to reach it, and must neither re-freeze nor overwrite them.
            let mut p = FairnessProblem::new();
            for _ in 0..2 {
                p.add_flow(0.7, 400.0);
            }
            p.add_flow(1.3, 900.0);
            for _ in 0..2 {
                p.add_flow(0.7, 400.0);
            }
            p.add_resource(ResourceKind::Egress(0), 300.0, &[0, 1, 2]);
            p.add_resource(ResourceKind::Egress(1), 800.0, &[3, 4]);
            let shape = assert_bit_identical(&p);
            assert_eq!((shape.flows, shape.classes), (5, 2), "{shape:?}");
            let rates = allocate_max_min(&p);
            assert!(rates[0] < 100.0 && rates[0] == rates[1], "{rates:?}");
            assert_eq!((rates[3], rates[4]), (400.0, 400.0));
        }

        #[test]
        fn a_class_frozen_whole_by_its_resources_leaves_the_rounds() {
            // All of class A freezes when its NIC saturates at t = 100. If
            // it stayed in the live list, its phantom ceiling at t = 1000
            // would cut the last round (B to its ceiling at 500, then C's
            // NIC at 1500) in two.
            let mut p = FairnessProblem::new();
            for _ in 0..3 {
                p.add_flow(1.0, 1000.0); // A
            }
            for _ in 0..2 {
                p.add_flow(0.9, 450.0); // B
            }
            for _ in 0..2 {
                p.add_flow(0.7, 2000.0); // C
            }
            p.add_resource(ResourceKind::Egress(0), 300.0, &[0, 1, 2]);
            p.add_resource(ResourceKind::Egress(1), 2100.0, &[5, 6]);
            let shape = assert_bit_identical(&p);
            assert_eq!((shape.flows, shape.classes, shape.rounds), (7, 3, 3), "{shape:?}");
        }

        #[test]
        fn a_member_listed_twice_is_frozen_once() {
            let mut p = FairnessProblem::new();
            for _ in 0..4 {
                p.add_flow(0.9, 350.0);
            }
            p.add_flow(2.1, 5000.0);
            // Saturates with its double entry still active…
            p.add_resource(ResourceKind::Egress(0), 500.0, &[0, 1, 1, 4]);
            // …and one whose double entry reaches the ceiling instead.
            p.add_resource(ResourceKind::Egress(1), 700.0, &[2, 3, 3]);
            let shape = assert_bit_identical(&p);
            assert_eq!((shape.flows, shape.classes), (5, 2), "{shape:?}");
        }

        #[test]
        fn an_unbounded_class_stops_at_its_resources_or_not_at_all() {
            let mut p = FairnessProblem::new();
            for _ in 0..3 {
                p.add_flow(1.5, f64::INFINITY);
            }
            for _ in 0..2 {
                p.add_flow(0.4, 120.0);
            }
            // Flow 0 is capped by a resource; 1 and 2 are on none, so the
            // solve ends on a non-finite `t_star` with their class live.
            p.add_resource(ResourceKind::Egress(0), 600.0, &[0, 3]);
            p.add_resource(ResourceKind::Egress(1), 1000.0, &[4]);
            let shape = assert_bit_identical(&p);
            assert_eq!((shape.flows, shape.classes), (5, 2), "{shape:?}");
            let rates = allocate_max_min(&p);
            assert!((rates[0] - 480.0).abs() < 1e-6, "{rates:?}");
            assert!(rates[1] > 0.0 && rates[1] == rates[2], "{rates:?}");
        }

        #[test]
        fn dead_flows_join_no_class() {
            // Bit-equal to each other (and, but for the dead field, to a
            // live class): none of them may be counted, listed or grown.
            let mut p = FairnessProblem::new();
            for f in 0..12 {
                match f % 4 {
                    0 => p.add_flow(0.0, 250.0),
                    1 => p.add_flow(1.1, 0.0),
                    2 => p.add_flow(1.1, 1e-10),
                    _ => p.add_flow(1.1, 250.0),
                };
            }
            p.add_resource(ResourceKind::Egress(0), 600.0, &(0..12).collect::<Vec<_>>());
            let shape = assert_bit_identical(&p);
            assert_eq!((shape.flows, shape.classes), (3, 1), "{shape:?}");
            let rates = allocate_max_min(&p);
            assert!((0..12).all(|f| (rates[f] > 0.0) == (f % 4 == 3)), "{rates:?}");
        }

        #[test]
        fn a_stalled_solve_leaves_its_live_classes_their_rate() {
            // Round one ends at class A's ceiling with 5e-7 Mbps of the
            // NIC left for weights of 2 000: round two's `t_star` is under
            // EPS, the NIC saturates, and the solve stops with class C —
            // on no live resource — still active at what it had reached.
            let mut p = FairnessProblem::new();
            for _ in 0..2 {
                p.add_flow(1000.0, 100.0); // A
            }
            for _ in 0..2 {
                p.add_flow(1000.0, 1000.0); // B
            }
            for _ in 0..3 {
                p.add_flow(500.0, 5000.0); // C
            }
            p.add_resource(ResourceKind::Egress(0), 400.0 + 5e-7, &[0, 1, 2, 3]);
            let shape = assert_bit_identical(&p);
            assert_eq!((shape.flows, shape.classes, shape.rounds), (7, 3, 2), "{shape:?}");
            let rates = allocate_max_min(&p);
            assert!(rates[4] > 50.0 && rates[4] < 50.001, "{rates:?}");
            assert!(rates[4] == rates[5] && rates[5] == rates[6], "{rates:?}");
        }
    }

    /// A standing [`PairFlows`] against the problem a build over the same
    /// flows makes: the same resources with the same members in the same
    /// order, the same solve (`last_shape`, rounds included), every rate
    /// bit for bit — after joins, departures, connection edits and
    /// renumberings, on networks whose answers come from small palettes
    /// (classes repeat, some flows are dead, NICs and paths bind, sit
    /// slack or are shut).
    mod description_parity {
        use super::*;
        use proptest::prelude::*;
        use rand::{rngs::StdRng, Rng, SeedableRng};

        /// Per host the two NIC capacities; per directed pair the weight
        /// and ceiling of one connection and the path capacity.
        struct PaletteNet {
            hosts: usize,
            nics: Vec<(f64, f64)>,
            pairs: Vec<(f64, f64, f64)>,
        }

        impl PaletteNet {
            fn new(rng: &mut StdRng, hosts: usize) -> Self {
                let mut pick = |palette: &[f64]| palette[rng.gen_range(0..palette.len())];
                let nic = [0.0, 90.0, 400.0, 1e9];
                let nics = (0..hosts).map(|_| (pick(&nic), pick(&nic))).collect();
                let pairs = (0..hosts * hosts)
                    .map(|_| {
                        let ceiling = pick(&[0.0, 35.0, 120.0, 120.0, f64::INFINITY]);
                        (pick(&[0.5, 1.0, 1.0, 1.7]), ceiling, pick(&[0.0, 150.0, 4000.0, 4000.0]))
                    })
                    .collect();
                Self { hosts, nics, pairs }
            }
        }

        impl Network for PaletteNet {
            type Pair = (f64, f64, f64);

            fn egress_cap_mbps(&self, host: usize, conns: u32) -> f64 {
                self.nics[host].0 / (1.0 + f64::from(conns) / 64.0)
            }

            fn ingress_cap_mbps(&self, host: usize, conns: u32) -> f64 {
                self.nics[host].1 / (1.0 + f64::from(conns) / 64.0)
            }

            fn pair(&self, src: usize, dst: usize) -> Self::Pair {
                self.pairs[src * self.hosts + dst]
            }

            fn path_cap_mbps(&self, pair: &Self::Pair) -> f64 {
                pair.2
            }

            fn weight(&self, pair: &Self::Pair, conns: u32) -> f64 {
                f64::from(conns) * pair.0
            }

            fn ceiling_mbps(&self, pair: &Self::Pair, conns: u32) -> f64 {
                f64::from(conns) * pair.1
            }
        }

        /// A flow as a flow list names it.
        type Flow = (usize, usize, u32);

        /// The problem [`crate::NetSim::allocate_rates_with`] builds for
        /// `flows` on `net`: per host its egress members in `(dst, index)`
        /// order and its ingress members by index, then the paths in
        /// ascending `(src, dst)`.
        fn build(net: &PaletteNet, flows: &[Flow]) -> FairnessProblem {
            let mut p = FairnessProblem::new();
            let mut host_conns = vec![0; net.hosts];
            for &(src, dst, conns) in flows {
                let pair = net.pair(src, dst);
                p.add_flow(net.weight(&pair, conns), net.ceiling_mbps(&pair, conns));
                host_conns[src] += conns;
                host_conns[dst] += conns;
            }
            let mut by_pair: Vec<usize> = (0..flows.len()).collect();
            by_pair.sort_by_key(|&f| (flows[f].0, flows[f].1, f));
            for (host, &conns) in host_conns.iter().enumerate() {
                let egress: Vec<usize> =
                    by_pair.iter().copied().filter(|&f| flows[f].0 == host).collect();
                if !egress.is_empty() {
                    let cap = net.egress_cap_mbps(host, conns);
                    p.add_resource(ResourceKind::Egress(host), cap, &egress);
                }
                let ingress: Vec<usize> =
                    (0..flows.len()).filter(|&f| flows[f].1 == host).collect();
                if !ingress.is_empty() {
                    let cap = net.ingress_cap_mbps(host, conns);
                    p.add_resource(ResourceKind::Ingress(host), cap, &ingress);
                }
            }
            for run in
                by_pair.chunk_by(|&a, &b| flows[a].0 == flows[b].0 && flows[a].1 == flows[b].1)
            {
                let (src, dst, _) = flows[run[0]];
                let cap = net.path_cap_mbps(&net.pair(src, dst));
                p.add_resource(ResourceKind::Path(src, dst), cap, run);
            }
            p
        }

        /// A [`PairFlows`] under edit, beside the flow list it stands for
        /// (`None`: a slot whose flow has left).
        struct Standing {
            net: PaletteNet,
            set: PairFlows,
            slots: Vec<Option<Flow>>,
        }

        impl Standing {
            fn new(seed: u64) -> (Self, StdRng) {
                let mut rng = StdRng::seed_from_u64(seed);
                let hosts = rng.gen_range(2usize..7);
                let mut set = PairFlows::default();
                set.set_hosts(hosts);
                (Self { net: PaletteNet::new(&mut rng, hosts), set, slots: Vec::new() }, rng)
            }

            fn live(&self) -> Vec<usize> {
                (0..self.slots.len()).filter(|&slot| self.slots[slot].is_some()).collect()
            }

            /// A tenant joins: one flow of `conns` connections on each of
            /// some pairs (on all of them if `all`), ascending.
            fn join(&mut self, rng: &mut StdRng, conns: u32, all: bool) {
                let hosts = self.net.hosts;
                for (src, dst) in (0..hosts).flat_map(|i| (0..hosts).map(move |j| (i, j))) {
                    if src != dst && (all || rng.gen_range(0..3) != 0) {
                        self.set.insert(self.slots.len() as u32, src, dst, conns);
                        self.slots.push(Some((src, dst, conns)));
                    }
                }
            }

            fn leave(&mut self, slot: usize) {
                self.set.remove_all(&[slot as u32]);
                self.slots[slot] = None;
            }

            fn set_conns(&mut self, slot: usize, conns: u32) {
                self.set.set_conns(slot as u32, conns);
                self.slots[slot].as_mut().expect("a live slot").2 = conns;
            }

            fn renumber(&mut self) {
                let mut kept = 0;
                let keep = |flow: &Option<Flow>| flow.map_or(NONE, |_| (kept, kept += 1).0);
                let new_slot: Vec<u32> = self.slots.iter().map(keep).collect();
                self.set.renumber(&new_slot);
                self.slots.retain(Option::is_some);
            }

            /// One random edit.
            fn step(&mut self, rng: &mut StdRng) {
                let live = self.live();
                let pick = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
                match rng.gen_range(0..8) {
                    0 | 1 => {
                        let conns = [1, 2, 4][rng.gen_range(0usize..3)];
                        self.join(rng, conns, false);
                    }
                    2..=4 if !live.is_empty() => {
                        for _ in 0..rng.gen_range(1..live.len().min(6) + 1) {
                            let slot = pick(rng);
                            if self.slots[slot].is_some() {
                                self.leave(slot);
                            }
                        }
                    }
                    5 if !live.is_empty() => {
                        self.set_conns(pick(rng), [1, 2, 3][rng.gen_range(0usize..3)])
                    }
                    6 => self.renumber(),
                    _ => {}
                }
            }

            /// Holds the standing set to a build over its flow list:
            /// resources, members, capacities, shape and every rate.
            fn check(&self, ws: &mut FairnessWorkspace) -> SolveShape {
                let live = self.live();
                let flows: Vec<Flow> = live.iter().map(|&slot| self.slots[slot].unwrap()).collect();
                let fresh = build(&self.net, &flows);
                ws.solve_pairs(&self.set, &self.net, self.slots.len());
                let mut reference = FairnessWorkspace::new();
                reference.solve(&fresh);
                for (f, &slot) in live.iter().enumerate() {
                    let (got, want) = (ws.rates()[slot], reference.rates()[f]);
                    assert_eq!(got.to_bits(), want.to_bits(), "slot {slot}: {got} vs {want}");
                }
                assert_eq!(ws.last_shape(), reference.last_shape());

                let hosts = self.net.hosts;
                let views = PairMembers { flows: &self.set, solve: &ws.pair_solve };
                let nics = (0..2 * hosts).filter(|&r| match r % 2 {
                    0 => !self.set.egress[r / 2].is_empty(),
                    _ => !self.set.ingress[r / 2].is_empty(),
                });
                let listed: Vec<usize> =
                    nics.chain((0..ws.pair_solve.paths.len()).map(|k| 2 * hosts + k)).collect();
                assert_eq!(listed.len(), fresh.resource_count());
                for (&r, (kind, cap, members)) in listed.iter().zip(fresh.resources()) {
                    let want = match r.checked_sub(2 * hosts) {
                        Some(k) => {
                            let (src, lo, _) = ws.pair_solve.paths[k];
                            let dst = self.set.egress[src as usize][lo as usize].dst;
                            ResourceKind::Path(src as usize, dst as usize)
                        }
                        None if r % 2 == 0 => ResourceKind::Egress(r / 2),
                        None => ResourceKind::Ingress(r / 2),
                    };
                    assert_eq!(kind, want);
                    assert_eq!(views.capacities()[r].to_bits(), cap.to_bits(), "{kind:?}");
                    let slots: Vec<usize> = views.members(r).collect();
                    let want: Vec<usize> = members.iter().map(|&m| live[m]).collect();
                    assert_eq!(slots, want, "{kind:?}");
                }
                ws.last_shape()
            }
        }

        proptest! {
            #[test]
            fn the_views_list_a_fresh_builds_resources_in_its_order(seed in 0u64..u64::MAX) {
                let (mut standing, mut rng) = Standing::new(seed);
                let mut ws = FairnessWorkspace::new();
                // Two tenants alike: every live flow shares its class.
                standing.join(&mut rng, 2, true);
                standing.join(&mut rng, 2, true);
                let shape = standing.check(&mut ws);
                prop_assert!(2 * shape.classes <= shape.flows, "{:?}", shape);
                for _ in 0..rng.gen_range(4..25) {
                    standing.step(&mut rng);
                    standing.check(&mut ws);
                }
            }
        }

        #[test]
        fn the_round_limit_counts_flows_and_resources_not_slots() {
            // Most of the slot space is retired; the limit — which enters
            // every slack margin — is the one a build over the survivors
            // has, whatever the slot count says.
            let (mut standing, mut rng) = Standing::new(7);
            (0..4).for_each(|_| standing.join(&mut rng, 1, false));
            for slot in standing.live() {
                if slot % 5 != 0 {
                    standing.leave(slot);
                }
            }
            let live = standing.live();
            assert!(live.len() >= 2 && standing.slots.len() > 3 * live.len());
            let flows: Vec<Flow> = live.iter().map(|&slot| standing.slots[slot].unwrap()).collect();
            let fresh = build(&standing.net, &flows);
            assert_eq!(standing.set.size(), (fresh.flow_count(), fresh.resource_count()));
            let mut ws = FairnessWorkspace::new();
            let mut solve = PairSolve::default();
            let limit =
                ws.prepare_pairs(&standing.set, &standing.net, standing.slots.len(), &mut solve);
            assert_eq!(limit, fresh.flow_count() + fresh.resource_count() + 1);
            standing.check(&mut ws);
        }

        #[test]
        fn classes_tied_at_their_ceilings_freeze_in_slot_order() {
            // `class_parity`'s order-sensitive case, standing: two pairs
            // into one host with one headroom ratio reach their ceilings
            // in round one, their flows interleaved by slot (tenant by
            // tenant) on the ingress NIC, which a third pair keeps
            // filling — its rate depends on the order of the NIC's
            // weight subtractions.
            let mut sensitive = 0;
            for seed in 0..200 {
                let mut rng = StdRng::seed_from_u64(seed);
                let ratio = rng.gen_range(20.0..400.0);
                let w = [rng.gen_range(0.1..3.0), rng.gen_range(0.1..3.0), rng.gen_range(0.1..3.0)];
                let tenants = rng.gen_range(2usize..12);
                let mut pairs = vec![(1.0, 0.0, 1e12); 16];
                pairs[3] = (w[0], w[0] * ratio, 1e12); // 0 → 3
                pairs[4 + 3] = (w[1], w[1] * ratio, 1e12); // 1 → 3
                pairs[8 + 3] = (w[2], 1e9, 1e12); // 2 → 3
                let at_tie = tenants as f64 * (w[0] + w[1] + w[2]) * ratio;
                let mut nics = vec![(1e12, 1e12); 4];
                nics[3].1 = at_tie * rng.gen_range(1.1..2.0) * (1.0 + 3.0 * tenants as f64 / 64.0);
                let net = PaletteNet { hosts: 4, nics, pairs };
                let mut set = PairFlows::default();
                set.set_hosts(4);
                let mut standing = Standing { net, set, slots: Vec::new() };
                for _ in 0..tenants {
                    for src in 0..3 {
                        standing.set.insert(standing.slots.len() as u32, src, 3, 1);
                        standing.slots.push(Some((src, 3, 1)));
                    }
                }
                let mut ws = FairnessWorkspace::new();
                let shape = standing.check(&mut ws);
                assert_eq!((shape.classes, shape.live_resources), (3, 1), "{shape:?}");
                assert!(shape.rounds >= 2, "{shape:?}");
                let last = ws.rates()[3 * tenants - 1];

                // The same flows with the tied pairs' members pair by
                // pair — the order the pair lists alone would give.
                let by_pair = (0..3).flat_map(|src| (0..tenants).map(move |_| (src, 3usize, 1u32)));
                let grouped = build(&standing.net, &by_pair.collect::<Vec<_>>());
                if allocate_max_min(&grouped)[3 * tenants - 1].to_bits() != last.to_bits() {
                    sensitive += 1;
                }
            }
            assert!(sensitive >= 20, "only {sensitive} of 200 draws are order-sensitive");
        }

        #[test]
        fn a_retired_slot_is_never_visited() {
            let (mut standing, mut rng) = Standing::new(11);
            (0..3).for_each(|_| standing.join(&mut rng, 2, false));
            let mut ws = FairnessWorkspace::new();
            standing.check(&mut ws);
            let gone: Vec<usize> =
                standing.live().into_iter().filter(|slot| slot % 3 == 1).collect();
            for &slot in &gone {
                standing.leave(slot);
                // Whatever the next solve writes here would show.
                ws.rates[slot] = f64::NAN;
                ws.active[slot] = true;
                ws.class_link[slot] = (NONE, slot as u32);
            }
            standing.check(&mut ws);
            let listed = standing.set.egress.iter().flatten().map(|flow| flow.slot);
            let listed: Vec<u32> =
                listed.chain(standing.set.ingress.iter().flatten().copied()).collect();
            for &slot in &gone {
                assert!(ws.rates[slot].is_nan(), "slot {slot} was written");
                assert!(!listed.contains(&(slot as u32)), "slot {slot} is still listed");
                assert_eq!(standing.set.ends[slot], (NONE, NONE));
            }
            assert!(ws.freeze_mask.iter().all(|&word| word == 0));
        }
    }

    #[cfg(test)]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_problem() -> impl Strategy<Value = FairnessProblem> {
            (2usize..6, 1usize..4).prop_flat_map(|(nf, nr)| {
                let flows = proptest::collection::vec((0.1f64..10.0, 10.0f64..5000.0), nf);
                let resources = proptest::collection::vec(
                    (50.0f64..3000.0, proptest::collection::vec(0usize..nf, 1..=nf)),
                    nr,
                );
                (flows, resources).prop_map(|(flows, resources)| {
                    let mut p = FairnessProblem::new();
                    for (w, c) in flows {
                        p.add_flow(w, c);
                    }
                    for (i, (cap, mut members)) in resources.into_iter().enumerate() {
                        members.sort_unstable();
                        members.dedup();
                        p.add_resource(ResourceKind::Egress(i), cap, &members);
                    }
                    p
                })
            })
        }

        /// Problems built to stress the active-set solver's parity with
        /// the reference: dead flows (zero or sub-epsilon weight or
        /// ceiling), weights spread over fourteen decades, unbounded
        /// ceilings, and capacities sitting on the slack-test edge.
        pub(super) fn adversarial_problem(seed: u64) -> FairnessProblem {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut p = FairnessProblem::new();
            let nf = rng.gen_range(1usize..48);
            for _ in 0..nf {
                let w = match rng.gen_range(0u32..10) {
                    0 => 0.0,
                    1 => 1e-10,
                    2 => rng.gen_range(1e6..1e8),
                    _ => rng.gen_range(1e-6..10.0),
                };
                let c = match rng.gen_range(0u32..12) {
                    0 => 0.0,
                    1 => f64::INFINITY,
                    2 => 1e9,
                    _ => rng.gen_range(1.0..5000.0),
                };
                p.add_flow(w, c);
            }
            let nr = rng.gen_range(1usize..10);
            for r in 0..nr {
                let mut members: Vec<usize> =
                    (0..nf).filter(|_| rng.gen_range(0u32..3) == 0).collect();
                if members.is_empty() {
                    members.push(rng.gen_range(0..nf));
                }
                let sum = ceiling_sum(&p, &members);
                let cap = match rng.gen_range(0u32..8) {
                    0 => sum,
                    1 => f64::from_bits(sum.to_bits() + 1),
                    2 => f64::from_bits(sum.to_bits().saturating_sub(1)),
                    3 => sum + rng.gen_range(0.0..1e-8),
                    4 => sum * (1.0 + rng.gen_range(0.0..1e-10)),
                    5 => 4000.0,
                    _ => rng.gen_range(50.0..3000.0),
                };
                p.add_resource(ResourceKind::Egress(r), cap, &members);
            }
            p
        }

        proptest! {
            #[test]
            fn no_resource_oversubscribed(p in arb_problem()) {
                let rates = allocate_max_min(&p);
                for (kind, cap, members) in p.resources() {
                    let used = total(&rates, members);
                    prop_assert!(used <= cap + 1e-6,
                        "{kind:?} used {used} of {cap}");
                }
            }

            #[test]
            fn no_flow_exceeds_ceiling(p in arb_problem()) {
                let rates = allocate_max_min(&p);
                for (f, &rate) in rates.iter().enumerate() {
                    prop_assert!(rate <= p.ceilings[f] + 1e-6);
                    prop_assert!(rate >= 0.0);
                }
            }

            #[test]
            fn allocation_is_pareto_efficient(p in arb_problem()) {
                // Every flow is blocked by its ceiling or by a saturated resource.
                let rates = allocate_max_min(&p);
                for f in 0..p.flow_count() {
                    if rates[f] + 1e-6 >= p.ceilings[f] {
                        continue;
                    }
                    let blocked = p.resources().any(|(_, cap, members)| {
                        members.contains(&f) && total(&rates, members) + 1e-6 >= cap
                    });
                    let unconstrained = !p.resources().any(|(_, _, members)| members.contains(&f));
                    prop_assert!(blocked || unconstrained,
                        "flow {f} at {} below ceiling {} with slack everywhere",
                        rates[f], p.ceilings[f]);
                }
            }

            #[test]
            fn active_set_solver_is_bit_identical_to_reference(seed in 0u64..u64::MAX) {
                assert_bit_identical(&adversarial_problem(seed));
            }

            #[test]
            fn active_set_solver_is_bit_identical_on_plain_problems(p in arb_problem()) {
                assert_bit_identical(&p);
            }

            #[test]
            fn incremental_matches_reference_solver(p in arb_problem()) {
                let fast = allocate_max_min(&p);
                let slow = reference_solve(&p);
                for (f, (&a, &b)) in fast.iter().zip(&slow).enumerate() {
                    prop_assert!((a - b).abs() < 1e-6,
                        "flow {f}: incremental {a} vs reference {b}");
                }
            }
        }
    }
}
