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
//! them*. The solver therefore performs exactly the floating-point
//! operations of the plain algorithm, in the same order, and saves only
//! the memory touches that fed no operation. The plain algorithm (all
//! flows and all resources scanned in every round, nothing pruned) is kept
//! as `reference::ReferenceWorkspace` under `#[cfg(test)]`, and proptests
//! here and in `sim.rs` hold the two to `f64::to_bits` equality.
//!
//! * **Reuse.** [`FairnessProblem`] stores resource membership as
//!   CSR-style flat arrays and [`FairnessProblem::clear`] keeps their
//!   capacity; [`FairnessWorkspace`] owns every buffer a solve needs, so
//!   repeated solves are allocation-free once the buffers have grown.
//! * **Incremental sums.** Each resource's consumed bandwidth `used` and
//!   active-weight sum `active_w` are updated in place — once per round,
//!   plus once per member when it freezes — never re-summed.
//! * **Active sets.** A round only concerns flows that are still filling
//!   and resources that still have one. The workspace keeps both as
//!   ascending, order-preserving compacted lists: `active_flows` is
//!   exactly the set of unfrozen flows, and `live` holds every resource
//!   that is not slack (below) and has an unfrozen member (one may linger
//!   for a round after its last member froze; its zero `active_w` excludes
//!   it from every test). Walking a compacted list visits the elements a
//!   full scan would have acted on, in the same order, so `t_star`, every
//!   rate and every `used`/`active_w` update sequence are unchanged.
//!   Growing a flow and freezing it at its ceiling share one pass, after
//!   the resources have taken the round's growth at their pre-freeze
//!   weight — the order the plain algorithm's separate passes produce.
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
//! ## What is deliberately not done
//!
//! Warm-starting from the previous solve's rates, maintaining a solve
//! incrementally across events, and aggregating the flows of one DC pair
//! would each save more work than the above — and each changes the order
//! in which contributions accumulate into a rate, so the low bits of
//! every rate, and with them every committed digest, would move.
//! Skipping a solve whose problem equals the previous one was measured
//! instead: 5 %, 7 % and 11 % of solves on the three fleet workloads of
//! the repo benchmark qualify, which does not pay for the state.

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

/// Rates, weights and ceilings at or below this are treated as zero.
const EPS: f64 = 1e-9;

/// Scale of the slack-test margin: sixteen times the `8·u = 4·ε` of the
/// rounding-drift bound derived in the module docs.
const PRUNE_SLACK: f64 = 64.0 * f64::EPSILON;

/// End of a flow's resource list in [`FairnessWorkspace::link`].
const NO_LINK: u32 = u32::MAX;

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
    /// Active flows in ascending index order, compacted as flows freeze.
    /// (Flow and membership indices are kept as `u32` in the per-flow
    /// buffers: fleets hold tens of thousands of flows per solve, and
    /// these buffers set the solver's memory footprint.)
    active_flows: Vec<u32>,
    /// Resources that can still bind — not slack, at least one active
    /// member — in ascending index order, compacted as they die.
    live: Vec<usize>,
    /// Flow → live-resource adjacency as one singly linked list per flow:
    /// `link_head[f]` indexes `link`, whose entries are `(next, resource)`
    /// and sit at the member's position in the problem's membership array.
    link_head: Vec<u32>,
    link: Vec<(u32, u32)>,
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

    /// Deactivates flow `f`, removing its weight from every live resource
    /// it belongs to and folding `rate_delta` (a ceiling clamp
    /// correction) into those resources' `used` sums. Each resource's
    /// update is independent of the others', so list order is immaterial.
    fn freeze_flow(&mut self, f: usize, weight: f64, rate_delta: f64) {
        self.active[f] = false;
        let mut k = self.link_head[f];
        while k != NO_LINK {
            let (next, r) = self.link[k as usize];
            let r = r as usize;
            self.used[r] += rate_delta;
            self.active_n[r] -= 1;
            self.active_w[r] =
                if self.active_n[r] == 0 { 0.0 } else { (self.active_w[r] - weight).max(0.0) };
            k = next;
        }
    }

    /// Each round saturates at least one flow or resource, so a solve
    /// runs at most flows + resources times (plus the round that finds
    /// nothing left).
    fn max_rounds(problem: &FairnessProblem) -> usize {
        problem.flow_count() + problem.resource_count() + 1
    }

    /// Resets the buffers for `problem` and makes the one pass over its
    /// membership a solve needs: per-resource active weight and count,
    /// the slack test, and the flow → resource links of the resources
    /// that survive it.
    fn prepare(&mut self, problem: &FairnessProblem) {
        let n = problem.flow_count();
        let nr = problem.resource_count();
        let max_rounds = Self::max_rounds(problem);
        assert!(
            problem.members.len() < NO_LINK as usize && nr < NO_LINK as usize,
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

        self.active_flows.clear();
        for f in 0..n {
            if problem.weights[f] > EPS && problem.ceilings[f] > EPS {
                self.active[f] = true;
                self.active_flows.push(f as u32);
            }
        }

        self.live.clear();
        for r in 0..nr {
            let (lo, hi) = (problem.res_bounds[r], problem.res_bounds[r + 1]);
            let (mut count, mut weight, mut ceilings) = (0usize, 0.0_f64, 0.0_f64);
            let mut min_weight = f64::INFINITY;
            for &m in &problem.members[lo..hi] {
                if self.active[m] {
                    count += 1;
                    weight += problem.weights[m];
                    ceilings += problem.ceilings[m];
                    min_weight = min_weight.min(problem.weights[m]);
                }
            }
            self.active_n[r] = count;
            self.active_w[r] = weight;
            if count == 0 {
                continue;
            }
            // Slack test (module docs): the members' ceilings cannot fill
            // the resource even after worst-case rounding drift of `used`
            // and `active_w`, so it can neither bind `t_star` nor saturate.
            let drift = count as f64 * (weight / min_weight) + max_rounds as f64;
            let margin = 2.0 * EPS + (ceilings + EPS) * drift * PRUNE_SLACK;
            if ceilings.is_finite() && problem.res_caps[r] - ceilings > margin {
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
        // The two compacted lists leave the workspace for the rounds so
        // the loops below can call `freeze_flow` while walking them.
        let mut flows = std::mem::take(&mut self.active_flows);
        let mut live = std::mem::take(&mut self.live);

        for _ in 0..Self::max_rounds(problem) {
            if flows.is_empty() {
                break;
            }
            // Smallest normalized headroom across ceilings and resources.
            let mut t_star = f64::INFINITY;
            for &f in &flows {
                let f = f as usize;
                t_star = t_star.min((problem.ceilings[f] - self.rates[f]) / problem.weights[f]);
            }
            for &r in &live {
                if self.active_w[r] > EPS {
                    t_star = t_star
                        .min((problem.res_caps[r] - self.used[r]).max(0.0) / self.active_w[r]);
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
            // Grow every active flow and freeze it at once if it reached
            // its ceiling. Each flow freezes at most once per solve and
            // the freeze work is O(membership degree).
            let mut kept = 0;
            for i in 0..flows.len() {
                let f = flows[i] as usize;
                self.rates[f] += problem.weights[f] * t_star;
                if self.rates[f] + EPS >= problem.ceilings[f] {
                    let delta = problem.ceilings[f] - self.rates[f];
                    self.rates[f] = problem.ceilings[f];
                    self.freeze_flow(f, problem.weights[f], delta);
                } else {
                    flows[kept] = f as u32;
                    kept += 1;
                }
            }
            flows.truncate(kept);
            // Freeze the members of saturated resources, dropping
            // resources whose members are all frozen. One that dies after
            // its turn here is skipped by the weight test and dropped a
            // round later.
            let mut saturated = false;
            let mut kept = 0;
            for i in 0..live.len() {
                let r = live[i];
                if self.active_w[r] > EPS && self.used[r] + EPS >= problem.res_caps[r] {
                    for &m in problem.members_of(r) {
                        if self.active[m] {
                            self.freeze_flow(m, problem.weights[m], 0.0);
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
                flows.retain(|&f| self.active[f as usize]);
            }
            if t_star <= EPS {
                // Numerical stall: everything remaining is effectively frozen.
                break;
            }
        }
        self.active_flows = flows;
        self.live = live;
        &self.rates
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

    fn assert_bit_identical(p: &FairnessProblem) {
        let fast = allocate_max_min(p);
        let mut reference = reference::ReferenceWorkspace::default();
        let slow = reference.solve(p);
        assert_eq!(fast.len(), slow.len());
        for (f, (a, b)) in fast.iter().zip(slow).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "flow {f}: {a} vs reference {b}");
        }
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
        fn adversarial_problem(seed: u64) -> FairnessProblem {
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
