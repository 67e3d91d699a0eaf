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
//! pruned, nothing shared, over a problem built flow by flow) is kept as
//! `reference::ReferenceWorkspace` in test and debug builds: proptests
//! here and in `sim.rs` hold the two to `f64::to_bits` equality, and the
//! transfer loop's shadow oracle holds every engine event to it.
//!
//! * **Reuse.** A problem is described pair-major, as a `PairFlows`:
//!   two flat member arrays, one per direction, cut into per-host lists
//!   by offsets, each keeping its capacity from one filing to the next
//!   (a fixed set of buffers at any host count, not two lists per host);
//!   `FairnessWorkspace` owns every buffer a solve needs, so repeated
//!   solves are allocation-free once the buffers have grown. A filing and
//!   a workspace serve every solve on their thread: the crate's entries
//!   borrow one per thread (`sim::Scratch`), not one per engine or call.
//! * **Incremental sums.** Each resource is one record (`Res`): its
//!   capacity, whether it takes part in the rounds, and its consumed
//!   bandwidth `used`, active-weight sum `active_w` and active-member
//!   count, updated in place — once per round, plus once per member when
//!   it freezes — never re-summed. A freeze touches its flow's three
//!   records. The class part of `t_star`, the minimum headroom over the
//!   live classes, is carried too: the grow pass folds it over the
//!   classes that stay, in list order — the list, order and values the
//!   next round's scan would fold — and a saturation that drops classes
//!   refolds it over the survivors in the pass that drops them. So each
//!   live class is visited once per round.
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
//!   produce. A resource that saturates is **settled** before its members
//!   are walked: it leaves the rounds at once, and its members' freezes
//!   update only their other resources. That is exact because nothing
//!   reads its sums again. The walk freezes every active member, so
//!   afterwards its count would be 0 and `active_w` pinned to 0.0, and
//!   `used` would have taken `+= 0.0`, which leaves a sum that is never
//!   −0.0 unchanged. During the walk only the members' `active` flags are
//!   read. A later resource of the pass reads only its own sums. A later
//!   round could only reach it through a member, and none is left
//!   active. The plain algorithm drops it from every later test as well,
//!   on its zero weight.
//! * **One pass per occupied pair.** Preparing a solve walks each host's
//!   pair runs once: the pair's state, and each run of equal connection
//!   counts' weight, ceiling and class, are asked for once, and every
//!   flow is added to the sums of its egress NIC and its path; the
//!   ingress NICs then take their operands from the classes. A flow's
//!   resources are its source's egress, its destination's ingress and its
//!   pair's path, so a freeze finds them without an adjacency list.
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
//! open-addressing lookup per run of equal connection counts on a pair,
//! nothing hinted by the caller —
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
//!    multiplicity: the minimum over live classes is the same number. (It
//!    is carried from the grow pass, above, without reordering anything.)
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
//! Two things could outlive a solve, and neither does: only the capacity
//! of the buffers is kept. That is why one filing and one workspace per
//! thread can serve every engine, blocking run and probe on it in turn
//! (`sim::Scratch`): which buffers a solve finds moves no bit. The one
//! thing a solve leaves behind, a rate in a slot it did not file, is
//! never read: both callers answer for such a flow themselves.
//!
//! The **description** of the problem — which flows exist, on which
//! directed pair, with how many connections — is a `PairFlows`: every
//! flow filed once under its pair, in ascending *slot* (its index in a
//! flow list; flows no WAN resource constrains are gaps), plus per host
//! the occupied pairs out of it and the slots into it, each host's list
//! a stretch of one flat array. The solver reads
//! the three member lists of the textbook problem
//! (`reference::FairnessProblem`, built flow by flow) off that filing: the
//! egress NIC of a host is its pairs' lists end to end, a path is one
//! list, the ingress NIC is the host's slot list; resources are visited in
//! the order a build creates them, and the round limit counts the flows
//! and resources a build would have. Both callers file afresh before every
//! solve, by one counting pass with no sort: the stateless entry
//! ([`crate::NetSim::allocate_rates_with`]) its flow list, the transfer
//! loop ([`crate::engine`]) its list of the pairs in flight. Filing costs
//! one pass over the flows and the hosts; a filing kept and edited across
//! events cost about as much in bookkeeping at the sizes the fleets solve,
//! and more where events are small and churny. What the network decides —
//! ceilings, weights, capacities — is not part of the description at all:
//! the solve asks a `Network` for it, once per occupied pair and per run
//! of equal connection counts on it, which is also where the classes come
//! from (one lookup per run). So a solve performs, on every sum and every
//! rate, the operations a solve of the built problem performs, in the
//! same order.
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

/// A pair-major description of the flows between `hosts` hosts (module
/// docs, "What is kept between solves"), filed afresh from a flow list
/// before every solve ([`PairFlows::file`]).
///
/// Each flow is named by its **slot**, its index in the list, so ascending
/// slot *is* ascending flow index. A flow is filed once, with the flows of
/// its directed pair, and the three member lists of a built problem are
/// read off that filing:
///
/// * the **egress** NIC of `src` is the host's list: its flows in
///   `(dst, slot)` order — the build's order, `(src, dst, index)`;
/// * the **path** of `(src, dst)` is the run of equal `dst` in that list;
/// * the **ingress** NIC of `dst` lists its members in ascending flow
///   index, which interleaves the pairs `(·, dst)` (flow order is group
///   by group), so it cannot be read off the pair runs: each host keeps
///   the slots bound for it, ascending. Its sums take their operands from
///   the flow's class, found while the runs were walked.
///
/// The hosts' lists lie end to end in two flat arrays, one for each
/// direction, host by host, each host's list found by its offset. So a
/// filing holds the same few buffers whatever the host count, each at
/// the high-water mark of one filing's flows or hosts.
///
/// A flow no WAN resource constrains (intra-DC, no connections) is not
/// filed: its slot is a gap in every list, and a solve never writes its
/// rate. Nothing here depends on the network's state: weights, ceilings
/// and capacities are asked of a [`Network`] at every solve.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairFlows {
    /// Every host's flows out of it, each host's in `(dst, slot)` order.
    egress: Vec<PairFlow>,
    /// Where each host's flows start in `egress`, and one past the last.
    egress_at: Vec<u32>,
    /// Every host's slots of the flows into it, each host's ascending.
    ingress: Vec<u32>,
    /// Where each host's slots start in `ingress`, and one past the last.
    ingress_at: Vec<u32>,
    /// Connections per host, both directions.
    host_conns: Vec<u32>,
    /// `(src, dst)` of each filed slot.
    ends: Vec<(u32, u32)>,
    /// Per host, where a filing puts its next flow in each list, and the
    /// destination of the last flow it took out of the host.
    cursor: Vec<Cursor>,
    /// Hosts with a flow out of them, ascending.
    sources: Vec<u32>,
    /// Hosts with a flow into them, ascending.
    sinks: Vec<u32>,
    /// Directed pairs with a flow on them: the runs of the egress lists.
    pairs: usize,
}

/// A host's place in the lists of a [`PairFlows::file`] under way.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    out: u32,
    into: u32,
    last: u32,
}

impl PairFlows {
    /// Files `flows` afresh on `hosts` hosts, flow `i` under slot `i` with
    /// the `(src, dst, conns)` that `ends_of` reads off it, leaving out
    /// those no WAN resource constrains (intra-DC, no connections). A
    /// counting pass, with no sort and no insertion: each host's flows
    /// are counted into offsets, each destination lists its slots in
    /// input order, then each source takes its flows off those lists
    /// destination by destination, which leaves them in `(dst, slot)`
    /// order. Allocation-free once the buffers have grown.
    pub(crate) fn file<F>(
        &mut self,
        hosts: usize,
        flows: &[F],
        ends_of: impl Fn(&F) -> (usize, usize, u32),
    ) {
        let Self {
            egress,
            egress_at,
            ingress,
            ingress_at,
            host_conns,
            ends,
            cursor,
            sources,
            sinks,
            pairs,
        } = self;
        for at in [&mut *egress_at, &mut *ingress_at] {
            at.clear();
            at.resize(hosts + 1, 0);
        }
        host_conns.clear();
        host_conns.resize(hosts, 0);
        // Each host's flows out and in, counted one place up.
        ends.clear();
        ends.extend(flows.iter().map(|flow| {
            let (src, dst, conns) = ends_of(flow);
            if src == dst || conns == 0 {
                return (NONE, NONE);
            }
            egress_at[src + 1] += 1;
            ingress_at[dst + 1] += 1;
            host_conns[src] += conns;
            host_conns[dst] += conns;
            (src as u32, dst as u32)
        }));
        // The counts become offsets, and each host's cursors start at its
        // lists' first entries.
        cursor.clear();
        sources.clear();
        sinks.clear();
        let (mut out, mut into) = (0, 0);
        for host in 0..hosts {
            let (flows_out, flows_in) = (egress_at[host + 1], ingress_at[host + 1]);
            cursor.push(Cursor { out, into, last: NONE });
            if flows_out > 0 {
                sources.push(host as u32);
            }
            if flows_in > 0 {
                sinks.push(host as u32);
            }
            (out, into) = (out + flows_out, into + flows_in);
            (egress_at[host + 1], ingress_at[host + 1]) = (out, into);
        }
        // Every entry of both lists is written below.
        ingress.resize(into as usize, 0);
        egress.resize(out as usize, PairFlow { dst: NONE, slot: NONE, conns: 0 });
        for (slot, &(_, dst)) in ends.iter().enumerate() {
            if dst != NONE {
                let at = &mut cursor[dst as usize].into;
                ingress[*at as usize] = slot as u32;
                *at += 1;
            }
        }
        // The ingress lists end to end are every filed slot by
        // destination, then ascending: each source takes its flows in that
        // order, and a flow opens a pair unless its source's last one went
        // to the same destination.
        *pairs = 0;
        for &slot in ingress.iter() {
            let (src, dst) = ends[slot as usize];
            let Cursor { out, last, .. } = &mut cursor[src as usize];
            *pairs += usize::from(*last != dst);
            *last = dst;
            let conns = ends_of(&flows[slot as usize]).2;
            egress[*out as usize] = PairFlow { dst, slot, conns };
            *out += 1;
        }
    }

    /// Hosts of the last filing.
    fn hosts(&self) -> usize {
        self.host_conns.len()
    }

    /// `host`'s flows out of it, in `(dst, slot)` order.
    fn egress_of(&self, host: usize) -> &[PairFlow] {
        &self.egress[self.egress_at[host] as usize..self.egress_at[host + 1] as usize]
    }

    /// `host`'s slots of the flows into it, ascending.
    fn ingress_of(&self, host: usize) -> &[u32] {
        &self.ingress[self.ingress_at[host] as usize..self.ingress_at[host + 1] as usize]
    }

    /// Flows filed, and the resources a build over them would create: one
    /// per occupied NIC and one per occupied pair.
    pub(crate) fn size(&self) -> (usize, usize) {
        (self.ingress.len(), self.pairs + self.sources.len() + self.sinks.len())
    }
}

/// What the network says, at the instant of a solve, about the hosts and
/// directed pairs of a [`PairFlows`]. The solve clamps every answer at
/// zero.
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

/// End of a linked list in [`FairnessWorkspace::class_link`].
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

impl FlowClass {
    /// Normalized headroom `(ceiling − rate) / weight`: the class's part
    /// in `t_star`.
    #[inline]
    fn headroom(&self) -> f64 {
        (self.ceiling - self.rate) / self.weight
    }
}

/// One resource of a solve: its capacity and the sums the rounds keep of
/// its active members, in one record, so a freeze touches three records.
#[derive(Debug, Clone, Copy, Default)]
struct Res {
    /// Bandwidth consumed, maintained incrementally.
    used: f64,
    /// Sum of the active members' weights, maintained incrementally.
    active_w: f64,
    cap: f64,
    /// Active members; when it reaches zero `active_w` is pinned to
    /// exactly 0.0, so float residue from the incremental subtractions can
    /// never leave a ghost resource binding `t_star`.
    active_n: u32,
    /// Takes part in the rounds: not slack, and not settled (module docs,
    /// "Active sets").
    in_rounds: bool,
}

/// Size of a fairness solve, for tests and issues that need to know what
/// traffic a solver change would see.
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

/// Reusable buffers for [`FairnessWorkspace::solve_pairs`].
///
/// One workspace can serve any sequence of problems; buffers grow to the
/// high-water mark and are then reused without further allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct FairnessWorkspace {
    rates: Vec<f64>,
    active: Vec<bool>,
    /// Per resource, everything the rounds read and update of it.
    res: Vec<Res>,
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
    /// The resources of the [`PairFlows`] being solved.
    pair_solve: PairSolve,
    shape: SolveShape,
}

impl FairnessWorkspace {
    /// Per-slot rates of the most recent solve.
    pub(crate) fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Size of the most recent solve.
    pub(crate) fn last_shape(&self) -> SolveShape {
        self.shape
    }

    /// Deactivates flow `f`, removing its weight from every resource it
    /// belongs to that takes part in the rounds and folding `rate_delta`
    /// (a ceiling clamp correction) into those resources' `used` sums.
    /// Each resource's update is independent of the others', so their
    /// order is immaterial.
    #[inline(always)] // out of line, the rounds' loops spill around the call: ×1.3 on small solves
    fn freeze_flow(&mut self, members: &PairMembers<'_>, f: usize, weight: f64, rate_delta: f64) {
        self.active[f] = false;
        for r in members.resources(f) {
            let res = &mut self.res[r];
            if res.in_rounds {
                res.used += rate_delta;
                res.active_n -= 1;
                res.active_w =
                    if res.active_n == 0 { 0.0 } else { (res.active_w - weight).max(0.0) };
            }
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

    /// Solves the flows filed in `flows` on `net` as it is now, from zero,
    /// by progressive filling: rate for rate, on `f64::to_bits`, what the
    /// plain algorithm (`reference::ReferenceWorkspace`) gives for the
    /// problem a build over the same flows in slot order makes. Rates are
    /// indexed by slot, `slots` being one past the highest in use; a slot
    /// `flows` does not list keeps whatever rate it had.
    ///
    /// Properties (checked by tests below):
    /// * no resource is oversubscribed;
    /// * no flow exceeds its ceiling;
    /// * the allocation is max-min fair w.r.t. the weights: a flow is only
    ///   below its proportional share if a ceiling or a saturated resource
    ///   binds it.
    pub(crate) fn solve_pairs<N: Network>(&mut self, flows: &PairFlows, net: &N, slots: usize) {
        let mut solve = std::mem::take(&mut self.pair_solve);
        let max_rounds = self.prepare_pairs(flows, net, slots, &mut solve);
        self.rounds(&PairMembers { flows, solve: &solve }, max_rounds, slots);
        self.pair_solve = solve;
    }

    /// Resets the buffers for a solve of `set`, sorts its active flows
    /// into classes, and makes the one pass over the hosts' lists a solve
    /// needs: per-resource active weight and count, and the slack test.
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
        let hosts = set.hosts();
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
        self.res.clear();
        self.res.resize(nr, Res::default());
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
        for &src in &set.sources {
            let src = src as usize;
            let (out, mut lo) = (set.egress_of(src), set.egress_at[src]);
            let mut nic = Load::default();
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
                        if live {
                            // The slack test's `min w_f`, once per run.
                            nic.floor(weight);
                            path.floor(weight);
                        }
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
                let hi = lo + on_pair.len() as u32;
                solve.paths.push((lo, hi));
                lo = hi;
                self.res[r] = path.admit(net.path_cap_mbps(&pair), max_rounds);
            }
            let cap = net.egress_cap_mbps(src, set.host_conns[src]);
            self.res[2 * src] = nic.admit(cap, max_rounds);
        }
        // The ingress members, in ascending flow index: a flow's weight
        // and ceiling are its class's.
        for &dst in &set.sinks {
            let dst = dst as usize;
            let mut nic = Load::default();
            for &slot in set.ingress_of(dst) {
                if self.active[slot as usize] {
                    let class = &self.classes[self.class_link[slot as usize].0 as usize];
                    nic.add(class.weight, class.ceiling);
                    nic.floor(class.weight);
                }
            }
            let cap = net.ingress_cap_mbps(dst, set.host_conns[dst]);
            self.res[2 * dst + 1] = nic.admit(cap, max_rounds);
        }
        self.live.clear();
        self.live.extend((0..nr).filter(|&r| self.res[r].in_rounds));
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

    /// The rounds of a prepared solve. `flows` bounds the slots that
    /// `members` can name.
    fn rounds(&mut self, members: &PairMembers<'_>, max_rounds: usize, flows: usize) {
        // The two compacted lists leave the workspace for the rounds so
        // the loops below can call `freeze_flow` while walking them.
        let mut classes = std::mem::take(&mut self.live_classes);
        let mut live = std::mem::take(&mut self.live);

        // The class part of the next round's `t_star`: the minimum headroom
        // over `classes`, folded in list order as a scan of it would be.
        let mut class_t =
            classes.iter().fold(f64::INFINITY, |t, &k| t.min(self.classes[k as usize].headroom()));

        for _ in 0..max_rounds {
            if classes.is_empty() {
                break;
            }
            self.shape.rounds += 1;
            // Smallest normalized headroom across ceilings and resources.
            let mut t_star = class_t;
            for &r in &live {
                let res = &self.res[r];
                if res.active_w > EPS {
                    t_star = t_star.min((res.cap - res.used).max(0.0) / res.active_w);
                }
            }
            if !t_star.is_finite() {
                break;
            }
            // Resources first: their `used` must take this round's growth
            // at the pre-freeze active weight, before any clamp correction.
            for &r in &live {
                let res = &mut self.res[r];
                if res.active_w > EPS {
                    res.used += res.active_w * t_star;
                }
            }
            // Grow every live class; one that reached its ceiling leaves
            // the list and marks its active members for the freeze below,
            // one that stays folds its headroom into the next `class_t`.
            let mut kept = 0;
            class_t = f64::INFINITY;
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
                    class_t = class_t.min(class.headroom());
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
            // rate, dropping resources whose members are all frozen. A
            // saturated resource is settled before its walk (module docs,
            // "Active sets"); one that dies after its turn here is skipped
            // by the weight test and dropped a round later.
            let mut saturated = false;
            let mut kept = 0;
            for i in 0..live.len() {
                let r = live[i];
                let res = &mut self.res[r];
                if res.active_w > EPS && res.used + EPS >= res.cap {
                    res.in_rounds = false;
                    saturated = true;
                    for m in members.members(r) {
                        if self.active[m] {
                            let class = &mut self.classes[self.class_link[m].0 as usize];
                            class.active -= 1;
                            self.rates[m] = class.rate;
                            let weight = class.weight;
                            self.freeze_flow(members, m, weight, 0.0);
                        }
                    }
                } else if res.active_n > 0 {
                    live[kept] = r;
                    kept += 1;
                }
            }
            live.truncate(kept);
            if saturated {
                // Classes frozen whole leave; `class_t` is refolded over the
                // survivors, in list order.
                class_t = f64::INFINITY;
                classes.retain(|&k| {
                    let class = &self.classes[k as usize];
                    if class.active > 0 {
                        class_t = class_t.min(class.headroom());
                    }
                    class.active > 0
                });
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

/// The active members of one resource as `prepare_pairs` sums them, in
/// member order.
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
    }

    /// Folds a member's weight into `min_weight`: once per run of equal
    /// weights is enough.
    fn floor(&mut self, weight: f64) {
        self.min_weight = self.min_weight.min(weight);
    }

    /// The resource of capacity `capacity` (clamped at zero) these members
    /// load. It takes part in the rounds if it has an active member and is
    /// not slack.
    fn admit(&self, capacity: f64, max_rounds: usize) -> Res {
        let cap = capacity.max(0.0);
        Res {
            used: 0.0,
            active_w: self.weight,
            cap,
            active_n: self.count as u32,
            in_rounds: self.count > 0 && !self.is_slack(cap, max_rounds),
        }
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

/// What [`FairnessWorkspace::prepare_pairs`] found out about the
/// resources of a [`PairFlows`] for one solve.
#[derive(Debug, Clone, Default)]
struct PairSolve {
    /// Per path resource, counted from `2·hosts`: its run in the flat
    /// egress list.
    paths: Vec<(u32, u32)>,
    /// Per active slot: its path's resource.
    slot_path: Vec<u32>,
}

/// A [`PairFlows`] as prepared, as the rounds read its membership: a
/// flow's resources are its source's egress NIC, its destination's
/// ingress NIC and its pair's path.
struct PairMembers<'a> {
    flows: &'a PairFlows,
    solve: &'a PairSolve,
}

impl PairMembers<'_> {
    /// The members of resource `r`, in member order.
    #[inline]
    fn members(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        // A NIC or path out of a host is a stretch of its list; an
        // ingress NIC is the other list, and the first stretch is empty.
        let set = self.flows;
        let (out, into): (&[PairFlow], &[u32]) = match r.checked_sub(2 * set.hosts()) {
            Some(path) => {
                let (lo, hi) = self.solve.paths[path];
                (&set.egress[lo as usize..hi as usize], &[])
            }
            None if r.is_multiple_of(2) => (set.egress_of(r / 2), &[]),
            None => (&[], set.ingress_of(r / 2)),
        };
        out.iter().map(|flow| flow.slot as usize).chain(into.iter().map(|&slot| slot as usize))
    }

    /// The resources of flow `f`: egress, ingress, path.
    #[inline]
    fn resources(&self, f: usize) -> [usize; 3] {
        let (src, dst) = self.flows.ends[f];
        [2 * src as usize, 2 * dst as usize + 1, self.solve.slot_path[f] as usize]
    }
}

/// The textbook problem and solver: the parity tests here and in `sim.rs`
/// and the transfer loop's shadow oracle hold the fast path to them.
#[cfg(any(test, debug_assertions))]
pub(crate) mod reference {
    use super::EPS;

    /// Identifies a capacity-constrained resource.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum ResourceKind {
        /// Aggregate WAN egress NIC of a data center.
        Egress(usize),
        /// Aggregate WAN ingress NIC of a data center.
        Ingress(usize),
        /// Backbone path for a directed region pair.
        Path(usize, usize),
    }

    /// A weighted max-min allocation problem, built flow by flow and
    /// resource by resource.
    ///
    /// Flows are referenced by their index in insertion order. Each flow
    /// has a contention `weight` and a throughput `ceiling` (its window
    /// limit); each resource caps the sum of its member flows' rates.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct FairnessProblem {
        pub(super) weights: Vec<f64>,
        pub(super) ceilings: Vec<f64>,
        res_kinds: Vec<ResourceKind>,
        res_caps: Vec<f64>,
        /// CSR offsets into `members`; resource `r` owns
        /// `members[res_bounds[r]..res_bounds[r + 1]]`.
        res_bounds: Vec<usize>,
        members: Vec<usize>,
    }

    impl FairnessProblem {
        /// Creates an empty problem.
        pub(crate) fn new() -> Self {
            Self::default()
        }

        /// Adds a flow and returns its index.
        ///
        /// A non-positive `weight` or `ceiling` yields a flow that is
        /// allocated zero bandwidth.
        pub(crate) fn add_flow(&mut self, weight: f64, ceiling_mbps: f64) -> usize {
            self.weights.push(weight.max(0.0));
            self.ceilings.push(ceiling_mbps.max(0.0));
            self.weights.len() - 1
        }

        /// Adds a resource constraining the given member flows.
        ///
        /// # Panics
        ///
        /// Panics if any member index does not refer to an added flow.
        pub(crate) fn add_resource(
            &mut self,
            kind: ResourceKind,
            capacity: f64,
            members: &[usize],
        ) {
            if self.res_bounds.is_empty() {
                self.res_bounds.push(0);
            }
            for &m in members {
                assert!(m < self.weights.len(), "resource member {m} refers to an unknown flow");
                self.members.push(m);
            }
            self.res_kinds.push(kind);
            self.res_caps.push(capacity.max(0.0));
            self.res_bounds.push(self.members.len());
        }

        /// Number of flows.
        pub(crate) fn flow_count(&self) -> usize {
            self.weights.len()
        }

        /// Number of resources.
        pub(crate) fn resource_count(&self) -> usize {
            self.res_caps.len()
        }

        /// Panics unless `rates` is physically possible for this problem:
        /// every rate finite, non-negative and at most its flow's ceiling,
        /// no resource carrying more than its capacity (give or take the
        /// solver's `EPS`).
        pub(crate) fn audit(&self, rates: &[f64]) {
            for (f, (&rate, &ceiling)) in rates.iter().zip(&self.ceilings).enumerate() {
                assert!(rate.is_finite() && rate >= 0.0, "flow {f} is allocated {rate} Mbps");
                assert!(
                    rate <= ceiling,
                    "flow {f} runs at {rate} Mbps over a {ceiling} Mbps ceiling"
                );
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
        pub(crate) fn resources(&self) -> impl Iterator<Item = (ResourceKind, f64, &[usize])> + '_ {
            (0..self.resource_count())
                .map(|r| (self.res_kinds[r], self.res_caps[r], self.members_of(r)))
        }
    }

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
    use super::reference::{FairnessProblem, ReferenceWorkspace, ResourceKind};
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    const INF: f64 = f64::INFINITY;

    /// A network for the solver alone: per host the two NIC capacities,
    /// per directed pair the weight and ceiling of one connection and the
    /// path capacity. A NIC's capacity is divided by `1 + conns / budget`
    /// for the connections on its host, as the link model's congestion
    /// divisor would.
    struct PaletteNet {
        hosts: usize,
        nics: Vec<(f64, f64)>,
        pairs: Vec<(f64, f64, f64)>,
        budget: f64,
    }

    impl PaletteNet {
        /// Unbounded NICs and paths, no congestion, and one connection of
        /// weight 1 and no ceiling on every pair.
        fn open(hosts: usize) -> Self {
            let pairs = vec![(1.0, INF, INF); hosts * hosts];
            Self { hosts, nics: vec![(INF, INF); hosts], pairs, budget: INF }
        }

        /// Capacities, weights and ceilings drawn from small palettes, so
        /// classes repeat, some flows are dead, and NICs and paths bind,
        /// sit slack or are shut; NICs slow past 64 connections.
        fn new(rng: &mut StdRng, hosts: usize) -> Self {
            let mut pick = |palette: &[f64]| palette[rng.gen_range(0..palette.len())];
            let nic = [0.0, 90.0, 400.0, 1e9];
            let nics = (0..hosts).map(|_| (pick(&nic), pick(&nic))).collect();
            let pairs = (0..hosts * hosts)
                .map(|_| {
                    let ceiling = pick(&[0.0, 35.0, 120.0, 120.0, INF]);
                    (pick(&[0.5, 1.0, 1.0, 1.7]), ceiling, pick(&[0.0, 150.0, 4000.0, 4000.0]))
                })
                .collect();
            Self { hosts, nics, pairs, budget: 64.0 }
        }

        /// The pair `src → dst`: weight and ceiling of one connection, path
        /// capacity.
        fn pair_mut(&mut self, src: usize, dst: usize) -> &mut (f64, f64, f64) {
            &mut self.pairs[src * self.hosts + dst]
        }

        /// The capacity of `kind`, before the congestion divisor.
        fn cap_mut(&mut self, kind: ResourceKind) -> &mut f64 {
            match kind {
                ResourceKind::Egress(host) => &mut self.nics[host].0,
                ResourceKind::Ingress(host) => &mut self.nics[host].1,
                ResourceKind::Path(src, dst) => &mut self.pair_mut(src, dst).2,
            }
        }
    }

    impl Network for PaletteNet {
        type Pair = (f64, f64, f64);

        fn egress_cap_mbps(&self, host: usize, conns: u32) -> f64 {
            self.nics[host].0 / (1.0 + f64::from(conns) / self.budget)
        }

        fn ingress_cap_mbps(&self, host: usize, conns: u32) -> f64 {
            self.nics[host].1 / (1.0 + f64::from(conns) / self.budget)
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

    /// `PaletteNet::open`, with host 0's egress NIC at `egress` and one
    /// connection from host 0 to host `k + 1` at `pairs[k]`.
    fn fan_out(egress: f64, pairs: &[(f64, f64)]) -> PaletteNet {
        let mut net = PaletteNet::open(pairs.len() + 1);
        net.nics[0].0 = egress;
        for (k, &(weight, ceiling)) in pairs.iter().enumerate() {
            *net.pair_mut(0, k + 1) = (weight, ceiling, INF);
        }
        net
    }

    /// A flow as a flow list names it: `(src, dst, conns)`, across the WAN.
    type Flow = (usize, usize, u32);

    /// A flow of `conns` connections between two of `hosts` hosts.
    fn any_flow(rng: &mut StdRng, hosts: usize, conns: u32) -> Flow {
        let src = rng.gen_range(0..hosts);
        (src, (src + rng.gen_range(1..hosts)) % hosts, conns)
    }

    /// `flows` filed as both callers file theirs: flow `i` under slot `i`.
    fn file(hosts: usize, flows: &[Flow]) -> PairFlows {
        let mut set = PairFlows::default();
        set.file(hosts, flows, |&flow| flow);
        set
    }

    /// The problem the textbook build makes of `flows` on `net`: per host
    /// its egress members in `(dst, index)` order and its ingress members
    /// by index, then the paths in ascending `(src, dst)`.
    fn build(net: &PaletteNet, flows: &[Flow]) -> FairnessProblem {
        let mut p = FairnessProblem::new();
        let mut host_conns = vec![0; net.hosts];
        for &(src, dst, conns) in flows {
            assert!(src != dst && conns > 0, "{:?} does not cross the WAN", (src, dst, conns));
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
            let ingress: Vec<usize> = (0..flows.len()).filter(|&f| flows[f].1 == host).collect();
            if !ingress.is_empty() {
                let cap = net.ingress_cap_mbps(host, conns);
                p.add_resource(ResourceKind::Ingress(host), cap, &ingress);
            }
        }
        for run in by_pair.chunk_by(|&a, &b| flows[a].0 == flows[b].0 && flows[a].1 == flows[b].1) {
            let (src, dst, _) = flows[run[0]];
            let cap = net.path_cap_mbps(&net.pair(src, dst));
            p.add_resource(ResourceKind::Path(src, dst), cap, run);
        }
        p
    }

    /// Holds the resources a solve of `set` read off its lists to
    /// `problem`, a build over the flows it files — flow `f` under
    /// `slots[f]`: the same resources in the same order, with the same
    /// capacities and members.
    fn assert_views(
        set: &PairFlows,
        ws: &FairnessWorkspace,
        problem: &FairnessProblem,
        slots: &[usize],
    ) {
        let hosts = set.hosts();
        let views = PairMembers { flows: set, solve: &ws.pair_solve };
        let nics = (0..2 * hosts).filter(|&r| match r % 2 {
            0 => !set.egress_of(r / 2).is_empty(),
            _ => !set.ingress_of(r / 2).is_empty(),
        });
        let listed: Vec<usize> =
            nics.chain((0..ws.pair_solve.paths.len()).map(|k| 2 * hosts + k)).collect();
        assert_eq!(listed.len(), problem.resource_count());
        for (&r, (kind, cap, members)) in listed.iter().zip(problem.resources()) {
            let want = match r.checked_sub(2 * hosts) {
                Some(k) => {
                    let (src, dst) =
                        set.ends[set.egress[ws.pair_solve.paths[k].0 as usize].slot as usize];
                    ResourceKind::Path(src as usize, dst as usize)
                }
                None if r % 2 == 0 => ResourceKind::Egress(r / 2),
                None => ResourceKind::Ingress(r / 2),
            };
            assert_eq!(kind, want);
            assert_eq!(ws.res[r].cap.to_bits(), cap.to_bits(), "{kind:?}");
            let listed: Vec<usize> = views.members(r).collect();
            let want: Vec<usize> = members.iter().map(|&m| slots[m]).collect();
            assert_eq!(listed, want, "{kind:?}");
        }
    }

    /// Solves `flows` on `net` through `ws` as the stateless entry does —
    /// filed, then `solve_pairs` — and holds the filing to a build over
    /// the same flows resource for resource and every rate to the
    /// reference solver's on `f64::to_bits`. Returns the rates by flow and
    /// what the solve looked like, so a test can check it exercised what
    /// it meant to.
    fn solve_with(
        ws: &mut FairnessWorkspace,
        net: &PaletteNet,
        flows: &[Flow],
    ) -> (Vec<f64>, SolveShape) {
        let set = file(net.hosts, flows);
        ws.solve_pairs(&set, net, flows.len());
        let problem = build(net, flows);
        assert_views(&set, ws, &problem, &(0..flows.len()).collect::<Vec<_>>());
        let rates = ws.rates()[..flows.len()].to_vec();
        let mut reference = ReferenceWorkspace::default();
        for (f, (a, b)) in rates.iter().zip(reference.solve(&problem)).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "flow {f} {:?}: {a} vs reference {b}", flows[f]);
        }
        (rates, ws.last_shape())
    }

    /// [`solve_with`] through a fresh workspace.
    fn solve(net: &PaletteNet, flows: &[Flow]) -> (Vec<f64>, SolveShape) {
        solve_with(&mut FairnessWorkspace::default(), net, flows)
    }

    fn total(rates: &[f64], members: &[usize]) -> f64 {
        members.iter().map(|&m| rates[m]).sum()
    }

    /// Sum of `members`' ceilings exactly as the solver's slack test
    /// accumulates it (active members only, member order).
    fn ceiling_sum(p: &FairnessProblem, members: &[usize]) -> f64 {
        let active = |m: usize| p.weights[m] > EPS && p.ceilings[m] > EPS;
        members.iter().filter(|&&m| active(m)).map(|&m| p.ceilings[m]).fold(0.0, |a, c| a + c)
    }

    /// Gives every resource `flows` occupy on `net` the capacity `cap`
    /// draws from its members' ceiling sum (3 000 if that sum is not
    /// finite). `net` must not congest: its budget is unbounded.
    fn draw_caps(net: &mut PaletteNet, flows: &[Flow], mut cap: impl FnMut(f64) -> f64) {
        let p = build(net, flows);
        for (kind, _, members) in p.resources() {
            let sum = ceiling_sum(&p, members);
            *net.cap_mut(kind) = cap(if sum.is_finite() { sum } else { 3000.0 });
        }
    }

    /// Textbook progressive filling with per-round full recomputation —
    /// no incremental sums — which the solvers are checked against to a
    /// tolerance.
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

    /// Three pairs into host 3, `tenants` flows on each, tenant by tenant:
    /// the first two pairs share one headroom ratio and reach their
    /// ceilings in round one, the third has no window limit and keeps
    /// filling host 3's ingress NIC, which has room for everyone's growth
    /// up to the tie and some more — so the third pair's rate depends on
    /// the order of the NIC's weight subtractions at the tie.
    fn tied(seed: u64) -> (PaletteNet, Vec<Flow>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ratio = rng.gen_range(20.0..400.0);
        let w = [rng.gen_range(0.1..3.0), rng.gen_range(0.1..3.0), rng.gen_range(0.1..3.0)];
        let tenants = rng.gen_range(2usize..12);
        let mut net = PaletteNet::open(4);
        *net.pair_mut(0, 3) = (w[0], w[0] * ratio, INF);
        *net.pair_mut(1, 3) = (w[1], w[1] * ratio, INF);
        *net.pair_mut(2, 3) = (w[2], 1e9, INF);
        let at_tie = tenants as f64 * (w[0] + w[1] + w[2]) * ratio;
        net.nics[3].1 = at_tie * rng.gen_range(1.1..2.0);
        let flows = (0..tenants).flat_map(|_| (0..3).map(|src| (src, 3, 1))).collect();
        (net, flows)
    }

    /// Whether the last of `tied`'s `flows` takes another rate than
    /// `interleaved` when the same flows come pair by pair: if so, the
    /// draw can tell slot order from class order.
    fn order_sensitive(net: &PaletteNet, flows: &[Flow], interleaved: f64) -> bool {
        let mut by_pair = flows.to_vec();
        by_pair.sort_by_key(|&(src, _, _)| src);
        solve(net, &by_pair).0[flows.len() - 1].to_bits() != interleaved.to_bits()
    }

    impl PairFlows {
        /// The longest buffer the set holds, for tests that bound its
        /// footprint.
        pub(crate) fn footprint(&self) -> usize {
            let lists = [self.egress.len(), self.ingress.len(), self.ends.len()];
            let per_host = [
                self.egress_at.len(),
                self.ingress_at.len(),
                self.host_conns.len(),
                self.cursor.len(),
                self.sources.len(),
                self.sinks.len(),
            ];
            lists.into_iter().chain(per_host).max().unwrap_or(0)
        }
    }

    impl FairnessWorkspace {
        /// The longest buffer the workspace holds, for tests that bound its
        /// footprint.
        pub(crate) fn footprint(&self) -> usize {
            let solve = &self.pair_solve;
            let per_slot = [
                self.rates.len(),
                self.active.len(),
                self.class_link.len(),
                self.freeze_mask.len(),
            ];
            let rest = [self.res.len(), self.classes.len(), self.table.len(), self.live.len()];
            let of_solve = [solve.paths.len(), solve.slot_path.len()];
            per_slot.into_iter().chain(rest).chain(of_solve).max().unwrap_or(0)
        }
    }

    #[test]
    fn single_flow_hits_min_of_ceiling_and_capacity() {
        let mut net = fan_out(1000.0, &[(1.0, 500.0)]);
        assert!((solve(&net, &[(0, 1, 1)]).0[0] - 500.0).abs() < 1e-6);
        *net.pair_mut(0, 1) = (1.0, 5000.0, INF);
        assert!((solve(&net, &[(0, 1, 1)]).0[0] - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn equal_weights_split_equally() {
        let net = fan_out(1000.0, &[(1.0, 1e9), (1.0, 1e9)]);
        let r = solve(&net, &[(0, 1, 1), (0, 2, 1)]).0;
        assert!((r[0] - 500.0).abs() < 1e-6 && (r[1] - 500.0).abs() < 1e-6);
    }

    #[test]
    fn weights_bias_the_split() {
        // Three connections against one, on one pair.
        let r = solve(&fan_out(1000.0, &[(1.0, 1e9)]), &[(0, 1, 3), (0, 1, 1)]).0;
        assert!((r[0] - 750.0).abs() < 1e-6 && (r[1] - 250.0).abs() < 1e-6);
    }

    #[test]
    fn ceiling_frees_capacity_for_others() {
        // The first flow is window-limited.
        let net = fan_out(1000.0, &[(1.0, 100.0), (1.0, 1e9)]);
        let r = solve(&net, &[(0, 1, 1), (0, 2, 1)]).0;
        assert!((r[0] - 100.0).abs() < 1e-6);
        assert!((r[1] - 900.0).abs() < 1e-6, "b should absorb a's unused share, got {}", r[1]);
    }

    #[test]
    fn multiple_resources_bind_the_tightest() {
        let mut net = fan_out(800.0, &[(1.0, 1e9)]);
        net.nics[1].1 = 300.0;
        net.pair_mut(0, 1).2 = 4000.0;
        assert!((solve(&net, &[(0, 1, 1)]).0[0] - 300.0).abs() < 1e-6);
    }

    #[test]
    fn zero_weight_flow_gets_nothing() {
        let net = fan_out(1000.0, &[(0.0, 1e9), (1.0, 1e9)]);
        let r = solve(&net, &[(0, 1, 1), (0, 2, 1)]).0;
        assert_eq!(r[0], 0.0);
        assert!((r[1] - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_problem_returns_empty() {
        let (rates, shape) = solve(&PaletteNet::open(3), &[]);
        assert!(rates.is_empty());
        assert_eq!(shape, SolveShape::default());
    }

    #[test]
    fn shared_middle_resource_triangle() {
        // Two flows share host 0 egress; one of them is also path-limited.
        let mut net = fan_out(1000.0, &[(4.0, 1e9), (1.0, 1e9)]);
        net.pair_mut(0, 2).2 = 120.0;
        let (r, shape) = solve(&net, &[(0, 1, 1), (0, 2, 1)]);
        assert!((r[1] - 120.0).abs() < 1e-6);
        assert!((r[0] - 880.0).abs() < 1e-6);
        assert_eq!(shape.rounds, 2, "{shape:?}");
    }

    #[test]
    fn clear_keeps_capacity_and_resets_state() {
        // Re-filing a set keeps its lists' capacity and forgets what they
        // held, connection counts included: host 0's NIC slows with the
        // connections on it, so a stale count would show in the rate.
        let mut net = fan_out(50.0, &[(1.0, 100.0), (1.0, 1e9)]);
        net.budget = 64.0;
        let mut set = file(net.hosts, &[(0, 1, 4), (0, 1, 2), (0, 2, 3)]);
        let capacity = set.egress.capacity();
        set.file(net.hosts, &[(0, 2, 1)], |&flow: &Flow| flow);
        assert_eq!((set.egress.capacity(), set.size()), (capacity, (1, 3)));
        let mut ws = FairnessWorkspace::default();
        ws.solve_pairs(&set, &net, 1);
        let fresh = solve(&net, &[(0, 2, 1)]).0[0];
        assert_eq!(ws.rates()[0].to_bits(), fresh.to_bits());
        assert!((fresh - 50.0 / (1.0 + 1.0 / 64.0)).abs() < 1e-9, "{fresh}");
    }

    #[test]
    fn huge_weights_leave_no_ghost_resources() {
        // Float residue from the incremental active-weight subtraction
        // must not let a saturated resource whose members all froze keep
        // binding t_star; flows on other resources must still fill up.
        let mut net = fan_out(500.0, &[(1.0e8 / 3.0, 1e9), (1.0e8 / 7.0, 1e9)]);
        net.nics[1].0 = 800.0;
        *net.pair_mut(1, 2) = (1.0, 1e9, INF);
        let flows = [(0, 1, 1), (0, 2, 1), (1, 2, 1)];
        let fast = solve(&net, &flows).0;
        let slow = reference_solve(&build(&net, &flows));
        for (f, (&x, &y)) in fast.iter().zip(&slow).enumerate() {
            assert!((x - y).abs() < 1e-6, "flow {f}: incremental {x} vs reference {y}");
        }
        assert!((fast[2] - 800.0).abs() < 1e-6, "flow c must fill its own NIC, got {}", fast[2]);
    }

    #[test]
    fn workspace_reuse_is_consistent() {
        let mut ws = FairnessWorkspace::default();
        // Twenty hosts in a ring, each flow alone on its egress NIC.
        let mut big = PaletteNet::open(20);
        let ring: Vec<Flow> = (0..20).map(|i| (i, (i + 1) % 20, 1)).collect();
        for (i, &(src, dst, _)) in ring.iter().enumerate() {
            big.nics[src].0 = 100.0;
            *big.pair_mut(src, dst) = (1.0 + i as f64, 1e9, INF);
        }
        let first = solve_with(&mut ws, &big, &ring).0;

        // A smaller problem in between must not leak state…
        let small = fan_out(10.0, &[(2.0, 1e9)]);
        assert!((solve_with(&mut ws, &small, &[(0, 1, 1)]).0[0] - 10.0).abs() < 1e-6);

        // …and re-solving the big problem is bit-identical.
        assert_eq!(solve_with(&mut ws, &big, &ring).0, first);
    }

    #[test]
    fn slack_resources_are_pruned_and_binding_ones_kept() {
        // The sim's common shape: window-limited flows under a NIC that
        // binds and a 4 Gbps path that cannot.
        let mut net = fan_out(1000.0, &[(1.0, 450.0)]);
        net.pair_mut(0, 1).2 = 4000.0;
        net.nics[1].1 = 1350.0; // == the ceiling sum: kept
        let flows = [(0, 1, 2), (0, 1, 1)];
        let mut ws = FairnessWorkspace::default();
        ws.prepare_pairs(&file(2, &flows), &net, flows.len(), &mut PairSolve::default());
        assert_eq!(ws.live, vec![0, 3], "egress 0 and ingress 1, not the path");
        let shape = solve(&net, &flows).1;
        assert_eq!((shape.live_resources, file(2, &flows).size().1), (2, 3));
    }

    #[test]
    fn pruning_margin_edge_is_bit_identical() {
        // Capacities at, one ulp either side of, and a few margins around
        // the members' ceiling sum: whichever side of the slack test each
        // lands on, the rates must not move by a bit. Five flows out of
        // host 0, two of them into host 2, whose NIC is slack.
        let pairs = [(0.31, 121.3), (0.9, 568.3), (0.004, 87.25), (0.09, 933.1)];
        let mut net = fan_out(0.0, &pairs);
        net.nics[2].1 = 2500.0;
        let flows = [(0, 1, 1), (0, 2, 3), (0, 3, 1), (0, 2, 1), (0, 4, 1)];
        let p = build(&net, &flows);
        let (kind, _, egress) = p.resources().next().expect("host 0's egress comes first");
        assert_eq!(kind, ResourceKind::Egress(0));
        let sum = ceiling_sum(&p, egress);
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
            net.nics[0].0 = cap;
            solve(&net, &flows);
        }
    }

    #[test]
    fn infinite_ceilings_are_never_pruned() {
        // The unbounded flow keeps an unbounded NIC and a 4 Gbps path in
        // the rounds; the bounded one's own ingress NIC and path are slack.
        let mut net = fan_out(INF, &[(1.0, INF), (3.0, 50.0)]);
        net.pair_mut(0, 1).2 = 4000.0;
        net.pair_mut(0, 2).2 = 4000.0;
        let flows = [(0, 1, 1), (0, 2, 1)];
        let mut ws = FairnessWorkspace::default();
        ws.prepare_pairs(&file(3, &flows), &net, flows.len(), &mut PairSolve::default());
        assert_eq!(ws.live, vec![0, 3, 6], "egress 0, ingress 1 and the path 0 → 1");
        let (rates, shape) = solve(&net, &flows);
        assert_eq!((shape.live_resources, shape.rounds), (3, 2), "{shape:?}");
        assert!((rates[0] - 4000.0).abs() < 1e-6 && rates[1] == 50.0, "{rates:?}");
    }

    /// The class-sharing rounds against the per-flow reference, on inputs
    /// that repeat their `(weight, ceiling)` — the only inputs on which
    /// member lists, shared rates and merged freezes run at all.
    mod class_parity {
        use super::*;
        use proptest::prelude::*;

        /// Connection counts a flow is drawn at: `(k·w, k·c)` keeps the
        /// headroom ratio of its pair's one connection, so the multiples on
        /// a pair reach their ceilings in the same round as distinct
        /// classes.
        const MULTIPLES: [u32; 4] = [1, 2, 3, 4];

        /// Tenants on shared pairs: 2–400 flows among 2–8 hosts at 1–4
        /// connections, every pair's one connection drawn from a palette
        /// of 1–6 `(weight, ceiling)` values (some unbounded), a
        /// sprinkling of pairs dead. NICs and paths bind, saturate, sit on
        /// the slack edge or are zero. Returns the palette size too.
        pub(super) fn palette_flows(seed: u64) -> (PaletteNet, Vec<Flow>, usize) {
            let mut rng = StdRng::seed_from_u64(seed);
            let palette: Vec<(f64, f64)> = (0..rng.gen_range(1usize..7))
                .map(|_| {
                    let unbounded = rng.gen_range(0u32..8) == 0;
                    let c = if unbounded { INF } else { rng.gen_range(5.0..2000.0) };
                    (rng.gen_range(0.05..8.0), c)
                })
                .collect();
            let hosts = rng.gen_range(2usize..9);
            let mut net = PaletteNet::open(hosts);
            for pair in &mut net.pairs {
                let (w, c) = palette[rng.gen_range(0..palette.len())];
                *pair = match rng.gen_range(0u32..20) {
                    0 => (0.0, c, INF),
                    1 => (w, 1e-10, INF),
                    _ => (w, c, INF),
                };
            }
            let flows: Vec<Flow> = (0..rng.gen_range(2usize..401))
                .map(|_| {
                    let conns = MULTIPLES[rng.gen_range(0..MULTIPLES.len())];
                    any_flow(&mut rng, hosts, conns)
                })
                .collect();
            draw_caps(&mut net, &flows, |sum| match rng.gen_range(0u32..10) {
                0 => sum,
                1 => f64::from_bits(sum.to_bits() + 1),
                2 => 1e9,
                3 => 0.0,
                4..=7 => sum * rng.gen_range(0.05..0.95),
                _ => rng.gen_range(50.0..3000.0),
            });
            (net, flows, palette.len())
        }

        proptest! {
            #[test]
            fn palette_problems_are_bit_identical_to_reference(seed in 0u64..u64::MAX) {
                let (net, flows, palette) = palette_flows(seed);
                let shape = solve(&net, &flows).1;
                prop_assert!(shape.classes <= palette * MULTIPLES.len(), "{:?}", shape);
            }

            #[test]
            fn one_workspace_serves_palette_and_distinct_problems_alike(seed in 0u64..u64::MAX) {
                // Reuse across shapes and host counts, with the stamp about
                // to wrap: a stale table slot or list link must never be
                // read.
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ws = FairnessWorkspace { stamp: u32::MAX - 2, ..Default::default() };
                for _ in 0..6 {
                    let (net, flows) = if rng.gen_range(0u32..2) == 0 {
                        let (net, flows, _) = palette_flows(rng.gen_range(0..u64::MAX));
                        (net, flows)
                    } else {
                        properties::adversarial_flows(rng.gen_range(0..u64::MAX))
                    };
                    solve_with(&mut ws, &net, &flows);
                }
            }
        }

        #[test]
        fn classes_tied_at_their_ceilings_freeze_in_flow_order() {
            // The tied pairs' flows are interleaved by slot on host 3's
            // ingress NIC: each of its weight subtractions must come in
            // slot order, as the per-flow loop makes them.
            let mut sensitive = 0;
            for seed in 0..200 {
                let (net, flows) = tied(seed);
                let (rates, shape) = solve(&net, &flows);
                assert_eq!((shape.classes, shape.live_resources), (3, 1), "{shape:?}");
                assert!(shape.rounds >= 2, "{shape:?}");
                sensitive += usize::from(order_sensitive(&net, &flows, rates[flows.len() - 1]));
            }
            assert!(sensitive >= 20, "only {sensitive} of 200 draws are order-sensitive");
        }

        #[test]
        fn a_class_split_by_a_saturated_resource_keeps_both_rates() {
            // Two flows of the class sit behind host 0's tight NIC and
            // freeze below the ceiling in round one; two out of host 1 go
            // on to reach it, and must neither re-freeze nor overwrite
            // them.
            let mut net = PaletteNet::open(4);
            (net.nics[0].0, net.nics[1].0) = (300.0, 800.0);
            *net.pair_mut(0, 2) = (0.7, 400.0, INF);
            *net.pair_mut(1, 2) = (0.7, 400.0, INF);
            *net.pair_mut(0, 3) = (1.3, 900.0, INF);
            let flows = [(0, 2, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 2, 1)];
            let (rates, shape) = solve(&net, &flows);
            assert_eq!((shape.flows, shape.classes), (5, 2), "{shape:?}");
            assert!(rates[0] < 100.0 && rates[0] == rates[1], "{rates:?}");
            assert_eq!((rates[3], rates[4]), (400.0, 400.0));
        }

        #[test]
        fn a_class_frozen_whole_by_its_resources_leaves_the_rounds() {
            // All of class A freezes when its NIC saturates at t = 100. If
            // it stayed in the live list, its phantom ceiling at t = 1000
            // would cut the last round (B to its ceiling at 500, then C's
            // NIC at 1500) in two.
            let mut net = PaletteNet::open(5);
            (net.nics[0].0, net.nics[1].0) = (300.0, 2100.0);
            *net.pair_mut(0, 1) = (1.0, 1000.0, INF); // A
            *net.pair_mut(2, 3) = (0.9, 450.0, INF); // B
            *net.pair_mut(1, 4) = (0.7, 2000.0, INF); // C
            let flows =
                [(0, 1, 1), (0, 1, 1), (0, 1, 1), (2, 3, 1), (2, 3, 1), (1, 4, 1), (1, 4, 1)];
            let shape = solve(&net, &flows).1;
            assert_eq!((shape.flows, shape.classes, shape.rounds), (7, 3, 3), "{shape:?}");
        }

        #[test]
        fn a_saturated_nic_settles_once_and_its_members_update_their_other_resources() {
            // Host 0's egress NIC saturates in round one with its six
            // members active: two tenants on the pairs into hosts 1–3, tied
            // class by class across the pairs and interleaved by slot. Their
            // freezes skip the dying NIC but reach hosts 1–3's ingress NICs
            // and their own paths, all live, which host 4's flows go on to
            // fill one NIC a round.
            for seed in 0..50 {
                let mut rng = StdRng::seed_from_u64(seed);
                let (w, w4) = (rng.gen_range(0.1..3.0), rng.gen_range(0.1..3.0));
                let mut net = PaletteNet::open(5);
                let egress = rng.gen_range(100.0..500.0);
                net.nics[0].0 = egress;
                let t1 = egress / (9.0 * w);
                for dst in 1..4 {
                    *net.pair_mut(0, dst) = (w, INF, INF);
                    *net.pair_mut(4, dst) = (w4, INF, INF);
                    net.nics[dst].1 = t1 * 3.0 * (w + w4) * rng.gen_range(1.5..4.0);
                }
                let flows: Vec<Flow> = (1..3)
                    .flat_map(|conns| [0, 4].map(|src| (1..4).map(move |dst| (src, dst, conns))))
                    .flatten()
                    .collect();
                let mut ws = FairnessWorkspace::default();
                ws.prepare_pairs(&file(5, &flows), &net, flows.len(), &mut PairSolve::default());
                // Both egress NICs, the three ingress NICs, all six paths.
                assert_eq!(ws.live, vec![0, 3, 5, 7, 8, 10, 11, 12, 13, 14, 15]);
                let (rates, shape) = solve_with(&mut ws, &net, &flows);
                assert_eq!((shape.flows, shape.classes, shape.live_resources), (12, 4, 11));
                assert!(shape.rounds >= 2, "{shape:?}");
                let out_of_0: Vec<usize> = (0..12).filter(|&f| flows[f].0 == 0).collect();
                assert!((total(&rates, &out_of_0) - egress).abs() < 1e-6, "{rates:?}");
                for f in out_of_0 {
                    let conns = f64::from(flows[f].2);
                    assert!((rates[f] - conns * w * t1).abs() < 1e-6, "{rates:?}");
                }
            }
        }

        #[test]
        fn a_class_frozen_whole_leaves_the_next_t_star() {
            // Host 0's NIC freezes all of class A at t1 = 300.3 / 2.1 in
            // round one, below A's ceiling; class B, on host 1's NIC,
            // survives. A's headroom undercuts B's next step, so it must
            // leave the carried minimum with A, or round two would stop
            // short at it.
            let mut net = PaletteNet::open(4);
            (net.nics[0].0, net.nics[1].0) = (300.3, 3000.7);
            *net.pair_mut(0, 2) = (0.7, 600.1, INF); // A
            *net.pair_mut(1, 3) = (1.1, INF, INF); // B
            let flows = [(0, 2, 1), (1, 3, 1), (0, 2, 1), (1, 3, 1), (0, 2, 1)];
            let (rates, shape) = solve(&net, &flows);
            assert_eq!((shape.flows, shape.classes, shape.rounds), (5, 2, 2), "{shape:?}");
            let t1 = 300.3 / 2.1;
            let (a, b) = ((600.1 - 0.7 * t1) / 0.7, (3000.7 - 2.2 * t1) / 2.2);
            assert!(a < b, "A's headroom {a} must undercut B's step {b}");
            assert!((rates[0] - 0.7 * t1).abs() < 1e-6, "{rates:?}");
            assert!((rates[1] - 3000.7 / 2.0).abs() < 1e-6, "{rates:?}");
        }

        #[test]
        fn an_unbounded_class_stops_at_its_resources_or_not_at_all() {
            // Flow 0 of the unbounded class is capped by host 0's NIC;
            // flows 1 and 2 cross only unbounded NICs and a path, so the
            // solve ends on a non-finite `t_star` with their class live.
            let mut net = PaletteNet::open(4);
            (net.nics[0].0, net.nics[1].0) = (600.0, 1000.0);
            *net.pair_mut(0, 1) = (1.5, INF, INF);
            *net.pair_mut(2, 3) = (1.5, INF, INF);
            *net.pair_mut(0, 2) = (0.4, 120.0, INF);
            *net.pair_mut(1, 2) = (0.4, 120.0, INF);
            let flows = [(0, 1, 1), (2, 3, 1), (2, 3, 1), (0, 2, 1), (1, 2, 1)];
            let (rates, shape) = solve(&net, &flows);
            assert_eq!((shape.flows, shape.classes), (5, 2), "{shape:?}");
            assert!((rates[0] - 480.0).abs() < 1e-6, "{rates:?}");
            assert!(rates[1] > 0.0 && rates[1] == rates[2], "{rates:?}");
        }

        #[test]
        fn dead_flows_join_no_class() {
            // Bit-equal to each other (and, but for the dead field, to a
            // live class): none of them may be counted, listed or grown.
            let net = fan_out(600.0, &[(0.0, 250.0), (1.1, 0.0), (1.1, 1e-10), (1.1, 250.0)]);
            let flows: Vec<Flow> = (0..12).map(|f| (0, 1 + f % 4, 1)).collect();
            let (rates, shape) = solve(&net, &flows);
            assert_eq!((shape.flows, shape.classes), (3, 1), "{shape:?}");
            assert!((0..12).all(|f| (rates[f] > 0.0) == (f % 4 == 3)), "{rates:?}");
        }

        #[test]
        fn a_stalled_solve_leaves_its_live_classes_their_rate() {
            // Round one ends at class A's ceiling with 5e-7 Mbps of host
            // 0's NIC left for weights of 2 000: round two's `t_star` is
            // under EPS, the NIC saturates, and the solve stops with class
            // C — on no binding resource — still active at what it had
            // reached.
            let mut net = fan_out(400.0 + 5e-7, &[(1000.0, 100.0), (1000.0, 1000.0)]);
            *net.pair_mut(2, 1) = (500.0, 5000.0, INF); // C
            let flows =
                [(0, 1, 1), (0, 1, 1), (0, 2, 1), (0, 2, 1), (2, 1, 1), (2, 1, 1), (2, 1, 1)];
            let (rates, shape) = solve(&net, &flows);
            assert_eq!((shape.flows, shape.classes, shape.rounds), (7, 3, 2), "{shape:?}");
            assert!(rates[4] > 50.0 && rates[4] < 50.001, "{rates:?}");
            assert!(rates[4] == rates[5] && rates[5] == rates[6], "{rates:?}");
        }
    }

    /// [`PairFlows::file`] over flow lists with unfiled gaps — intra-DC
    /// flows and flows of no connections, where the transfer loop's list
    /// has its intra-DC pairs — against the problem a build over the filed
    /// flows makes: the same resources with the same members in the same
    /// order, the same solve (`last_shape`, rounds included), every rate
    /// bit for bit, on networks whose answers come from small palettes
    /// (classes repeat, some flows are dead, NICs and paths bind, sit
    /// slack or are shut). One set and one workspace serve a list as
    /// tenants join, leave and change their counts, as the loop's do.
    mod description_parity {
        use super::*;
        use proptest::prelude::*;

        /// Whether the filing lists `flow`: it crosses the WAN.
        fn crosses(&(src, dst, conns): &Flow) -> bool {
            src != dst && conns > 0
        }

        /// A flow no WAN resource constrains: intra-DC, or of no
        /// connections.
        fn gap(rng: &mut StdRng, hosts: usize) -> Flow {
            let host = rng.gen_range(0..hosts);
            if rng.gen_range(0..2) == 0 {
                (host, host, 1)
            } else {
                (host, (host + 1) % hosts, 0)
            }
        }

        /// A tenant: one flow of `conns` connections on each of some pairs
        /// (on all of them, and no gap, if `all`), ascending.
        fn tenant(rng: &mut StdRng, hosts: usize, conns: u32, all: bool) -> Vec<Flow> {
            let mut flows = Vec::new();
            for (src, dst) in (0..hosts).flat_map(|i| (0..hosts).map(move |j| (i, j))) {
                if src != dst && (all || rng.gen_range(0..3) != 0) {
                    flows.push((src, dst, conns));
                }
                if !all && rng.gen_range(0..8) == 0 {
                    flows.push(gap(rng, hosts));
                }
            }
            flows
        }

        /// One random edit of `list`: a tenant joins at the end, some flows
        /// leave and the list closes up behind them, a count changes, or a
        /// flow stops crossing the WAN.
        fn step(rng: &mut StdRng, hosts: usize, list: &mut Vec<Flow>) {
            let len = list.len();
            match rng.gen_range(0..8) {
                0 | 1 => {
                    let conns = [1, 2, 4][rng.gen_range(0usize..3)];
                    list.extend(tenant(rng, hosts, conns, false));
                }
                2..=4 if len > 0 => {
                    for _ in 0..rng.gen_range(1..len.min(6) + 1) {
                        if !list.is_empty() {
                            list.remove(rng.gen_range(0..list.len()));
                        }
                    }
                }
                5 if len > 0 => list[rng.gen_range(0..len)].2 = [1, 2, 3][rng.gen_range(0usize..3)],
                6 if len > 0 => list[rng.gen_range(0..len)] = gap(rng, hosts),
                _ => {}
            }
        }

        /// Files `list` into `set`, solves it through `ws`, and holds both to
        /// the list without its gaps: the views to a build over it, the
        /// shape and every rate to [`solve`]'s.
        fn check(
            set: &mut PairFlows,
            ws: &mut FairnessWorkspace,
            net: &PaletteNet,
            list: &[Flow],
        ) -> SolveShape {
            set.file(net.hosts, list, |&flow| flow);
            ws.solve_pairs(set, net, list.len());
            let filed: Vec<usize> = (0..list.len()).filter(|&slot| crosses(&list[slot])).collect();
            let flows: Vec<Flow> = filed.iter().map(|&slot| list[slot]).collect();
            let (rates, shape) = solve(net, &flows);
            for (f, &slot) in filed.iter().enumerate() {
                let (got, want) = (ws.rates()[slot], rates[f]);
                assert_eq!(got.to_bits(), want.to_bits(), "slot {slot}: {got} vs {want}");
            }
            assert_eq!(ws.last_shape(), shape);
            assert_views(set, ws, &build(net, &flows), &filed);
            shape
        }

        #[test]
        fn one_flat_filing_serves_any_host_count_in_turn() {
            // The lists lie end to end in flat arrays cut by per-host
            // offsets: a filing on fewer hosts than the last, or more, must
            // cut them afresh and list every member where a build would.
            let mut rng = StdRng::seed_from_u64(29);
            let (mut set, mut ws) = (PairFlows::default(), FairnessWorkspace::default());
            let mut high_water = 0;
            for hosts in [6, 3, 5, 2, 6, 4] {
                let net = PaletteNet::new(&mut rng, hosts);
                let mut list = tenant(&mut rng, hosts, 2, false);
                list.extend(tenant(&mut rng, hosts, 1, false));
                list.extend(tenant(&mut rng, hosts, 2, true));
                check(&mut set, &mut ws, &net, &list);
                high_water = high_water.max(list.len());
                assert_eq!(set.egress_at.len(), hosts + 1);
                assert!(set.footprint() <= high_water, "{} > {high_water}", set.footprint());
            }
        }

        proptest! {
            #[test]
            fn the_views_list_a_fresh_builds_resources_in_its_order(seed in 0u64..u64::MAX) {
                let mut rng = StdRng::seed_from_u64(seed);
                let hosts = rng.gen_range(2usize..7);
                let net = PaletteNet::new(&mut rng, hosts);
                let (mut set, mut ws) = (PairFlows::default(), FairnessWorkspace::default());
                // Two tenants alike: every live flow shares its class.
                let mut list = tenant(&mut rng, hosts, 2, true);
                list.extend(tenant(&mut rng, hosts, 2, true));
                let shape = check(&mut set, &mut ws, &net, &list);
                prop_assert!(2 * shape.classes <= shape.flows, "{:?}", shape);
                for _ in 0..rng.gen_range(4..25) {
                    step(&mut rng, hosts, &mut list);
                    check(&mut set, &mut ws, &net, &list);
                }
            }
        }

        #[test]
        fn the_round_limit_counts_flows_and_resources_not_slots() {
            // Three slots in four are gaps; the limit — which enters every
            // slack margin — is the one a build over the filed flows has,
            // whatever the slot count says.
            let mut rng = StdRng::seed_from_u64(7);
            let net = PaletteNet::new(&mut rng, 5);
            let mut list = Vec::new();
            for _ in 0..4 {
                for flow in tenant(&mut rng, 5, 1, true) {
                    list.push(flow);
                    list.extend((0..3).map(|_| gap(&mut rng, 5)));
                }
            }
            let flows: Vec<Flow> = list.iter().copied().filter(crosses).collect();
            assert_eq!(list.len(), 4 * flows.len());
            let set = file(5, &list);
            let fresh = build(&net, &flows);
            assert_eq!(set.size(), (fresh.flow_count(), fresh.resource_count()));
            let mut ws = FairnessWorkspace::default();
            let limit = ws.prepare_pairs(&set, &net, list.len(), &mut PairSolve::default());
            assert_eq!(limit, fresh.flow_count() + fresh.resource_count() + 1);
            check(&mut PairFlows::default(), &mut ws, &net, &list);
        }

        #[test]
        fn classes_tied_at_their_ceilings_freeze_in_slot_order() {
            // `class_parity`'s order-sensitive case with a gap after every
            // flow: host 3's slot list interleaves the tied pairs tenant by
            // tenant, as the loop's list does, and the gaps move no freeze.
            let mut sensitive = 0;
            for seed in 0..200 {
                let (net, flows) = tied(seed);
                let list: Vec<Flow> = flows.iter().flat_map(|&flow| [flow, (3, 3, 1)]).collect();
                let mut ws = FairnessWorkspace::default();
                let shape = check(&mut PairFlows::default(), &mut ws, &net, &list);
                assert_eq!((shape.classes, shape.live_resources), (3, 1), "{shape:?}");
                assert!(shape.rounds >= 2, "{shape:?}");
                let last = ws.rates()[list.len() - 2];
                sensitive += usize::from(order_sensitive(&net, &flows, last));
            }
            assert!(sensitive >= 20, "only {sensitive} of 200 draws are order-sensitive");
        }

        #[test]
        fn a_retired_slot_is_never_visited() {
            // Flows that stop crossing the WAN between two filings leave
            // gaps: the next solve neither lists nor writes their slots,
            // whatever the workspace held for them.
            let mut rng = StdRng::seed_from_u64(11);
            let net = PaletteNet::new(&mut rng, 5);
            let mut list: Vec<Flow> = (0..3).flat_map(|_| tenant(&mut rng, 5, 2, false)).collect();
            let (mut set, mut ws) = (PairFlows::default(), FairnessWorkspace::default());
            check(&mut set, &mut ws, &net, &list);
            let gone: Vec<usize> =
                (0..list.len()).filter(|&slot| slot % 3 == 1 && crosses(&list[slot])).collect();
            assert!(gone.len() >= 5, "{gone:?}");
            for &slot in &gone {
                list[slot] = (slot % 5, slot % 5, 2);
                // Whatever the next solve writes here would show.
                ws.rates[slot] = f64::NAN;
                ws.active[slot] = true;
                ws.class_link[slot] = (NONE, slot as u32);
            }
            check(&mut set, &mut ws, &net, &list);
            let listed = set.egress.iter().map(|flow| flow.slot);
            let listed: Vec<u32> = listed.chain(set.ingress.iter().copied()).collect();
            for &slot in &gone {
                assert!(ws.rates[slot].is_nan(), "slot {slot} was written");
                assert!(!listed.contains(&(slot as u32)), "slot {slot} is still listed");
                assert_eq!(set.ends[slot], (NONE, NONE));
            }
            assert!(ws.freeze_mask.iter().all(|&word| word == 0));
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// 2–5 flows among 2–4 hosts at 1–3 connections: every pair's one
        /// connection has a random weight and ceiling, every NIC and path a
        /// random capacity.
        fn plain_flows(seed: u64) -> (PaletteNet, Vec<Flow>) {
            let mut rng = StdRng::seed_from_u64(seed);
            let hosts = rng.gen_range(2usize..5);
            let mut net = PaletteNet::open(hosts);
            for pair in &mut net.pairs {
                let (w, c) = (rng.gen_range(0.1..10.0), rng.gen_range(10.0..5000.0));
                *pair = (w, c, rng.gen_range(50.0..3000.0));
            }
            for nic in &mut net.nics {
                *nic = (rng.gen_range(50.0..3000.0), rng.gen_range(50.0..3000.0));
            }
            let flows = (0..rng.gen_range(2usize..6))
                .map(|_| {
                    let conns = rng.gen_range(1u32..4);
                    any_flow(&mut rng, hosts, conns)
                })
                .collect();
            (net, flows)
        }

        /// Flows built to stress the active-set solver's parity with the
        /// reference: dead pairs (zero or sub-epsilon weight or ceiling),
        /// weights spread over fourteen decades, unbounded ceilings, and
        /// capacities sitting on the slack-test edge.
        pub(super) fn adversarial_flows(seed: u64) -> (PaletteNet, Vec<Flow>) {
            let mut rng = StdRng::seed_from_u64(seed);
            let hosts = rng.gen_range(2usize..7);
            let mut net = PaletteNet::open(hosts);
            for pair in &mut net.pairs {
                let w = match rng.gen_range(0u32..10) {
                    0 => 0.0,
                    1 => 1e-10,
                    2 => rng.gen_range(1e6..1e8),
                    _ => rng.gen_range(1e-6..10.0),
                };
                let c = match rng.gen_range(0u32..12) {
                    0 => 0.0,
                    1 => INF,
                    2 => 1e9,
                    _ => rng.gen_range(1.0..5000.0),
                };
                *pair = (w, c, INF);
            }
            let flows: Vec<Flow> = (0..rng.gen_range(1usize..48))
                .map(|_| {
                    let conns = rng.gen_range(1u32..4);
                    any_flow(&mut rng, hosts, conns)
                })
                .collect();
            draw_caps(&mut net, &flows, |sum| match rng.gen_range(0u32..8) {
                0 => sum,
                1 => f64::from_bits(sum.to_bits() + 1),
                2 => f64::from_bits(sum.to_bits().saturating_sub(1)),
                3 => sum + rng.gen_range(0.0..1e-8),
                4 => sum * (1.0 + rng.gen_range(0.0..1e-10)),
                5 => 4000.0,
                _ => rng.gen_range(50.0..3000.0),
            });
            (net, flows)
        }

        proptest! {
            #[test]
            fn no_resource_oversubscribed(seed in 0u64..u64::MAX) {
                let (net, flows) = plain_flows(seed);
                let rates = solve(&net, &flows).0;
                for (kind, cap, members) in build(&net, &flows).resources() {
                    let used = total(&rates, members);
                    prop_assert!(used <= cap + 1e-6, "{kind:?} used {used} of {cap}");
                }
            }

            #[test]
            fn no_flow_exceeds_ceiling(seed in 0u64..u64::MAX) {
                let (net, flows) = plain_flows(seed);
                let rates = solve(&net, &flows).0;
                let p = build(&net, &flows);
                for (f, &rate) in rates.iter().enumerate() {
                    prop_assert!(rate <= p.ceilings[f] + 1e-6);
                    prop_assert!(rate >= 0.0);
                }
            }

            #[test]
            fn allocation_is_pareto_efficient(seed in 0u64..u64::MAX) {
                // Every flow is blocked by its ceiling or by a saturated resource.
                let (net, flows) = plain_flows(seed);
                let rates = solve(&net, &flows).0;
                let p = build(&net, &flows);
                for f in 0..p.flow_count() {
                    if rates[f] + 1e-6 >= p.ceilings[f] {
                        continue;
                    }
                    let blocked = p.resources().any(|(_, cap, members)| {
                        members.contains(&f) && total(&rates, members) + 1e-6 >= cap
                    });
                    prop_assert!(blocked,
                        "flow {f} at {} below ceiling {} with slack everywhere",
                        rates[f], p.ceilings[f]);
                }
            }

            #[test]
            fn active_set_solver_is_bit_identical_to_reference(seed in 0u64..u64::MAX) {
                let (net, flows) = adversarial_flows(seed);
                solve(&net, &flows);
            }

            #[test]
            fn active_set_solver_is_bit_identical_on_plain_problems(seed in 0u64..u64::MAX) {
                let (net, flows) = plain_flows(seed);
                let shape = solve(&net, &flows).1;
                prop_assert!(shape.flows == flows.len() && shape.rounds >= 1, "{:?}", shape);
            }

            #[test]
            fn incremental_matches_reference_solver(seed in 0u64..u64::MAX) {
                let (net, flows) = plain_flows(seed);
                let fast = solve(&net, &flows).0;
                let slow = reference_solve(&build(&net, &flows));
                for (f, (&a, &b)) in fast.iter().zip(&slow).enumerate() {
                    prop_assert!((a - b).abs() < 1e-6,
                        "flow {f}: incremental {a} vs reference {b}");
                }
            }
        }
    }
}
