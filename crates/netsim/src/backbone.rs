//! Cross-shard backbone: finite inter-group trunks shared by shard-local
//! simulators through a coarse epoch exchange.
//!
//! A sharded fleet partitions tenants across several independent
//! [`NetEngine`](crate::NetEngine)s so each shard's event loop stays small
//! and shards can run on separate cores. The shards are not fully
//! independent, though: traffic that leaves a shard's *region group*
//! rides trunks every shard shares — the inter-continental backbone. This
//! module models that coupling without forcing the shards into lockstep:
//!
//! * [`Backbone`] partitions the data centers into **region groups** and
//!   assigns every directed group pair a finite trunk capacity;
//! * [`BackboneHierarchy`] is the coupling a fleet runs: a list of
//!   backbone tiers, finest first, each with a cadence in **sync
//!   windows** (the finest tier's [`Backbone::sync_every_s`]). A flat
//!   backbone is one tier exchanged every window; a two-tier hierarchy
//!   adds coarse super-group trunks exchanged every `r`-th window;
//! * at every sync point the fleet driver takes every tier that is due,
//!   collects each shard's cross-group *demand* on it (the unreserved
//!   ceilings of its in-flight boundary flows, see
//!   [`crate::NetEngine::cross_group_demand_mbps`]), and
//!   [`Backbone::allocate`] splits every trunk across shards by max-min
//!   fairness, spreading any headroom evenly;
//! * each shard applies every tier's last grant as per-pair caps,
//!   composed by minimum ([`crate::NetEngine::apply_backbone_tiers`]),
//!   and then simulates the next window **independently**,
//!   event-coalescing as usual.
//!
//! The exchange is deliberately coarse: reservations trail demand by one
//! window (a shard whose boundary traffic appears mid-window runs on the
//! previous grant — or uncapped, if it had none — until the next sync).
//! That is the price of keeping shards independently coalescing between
//! sync points, and it shrinks with `sync_every_s`. Everything here is
//! pure arithmetic over caller-supplied state, so a fixed sync schedule
//! yields bit-identical allocations regardless of how many OS threads
//! drive the shards.

use crate::geo::Region;
use crate::grid::Grid;
use crate::topology::{DcId, Topology};

/// The cross-shard backbone model. See the module docs.
#[derive(Debug, Clone)]
pub struct Backbone {
    /// Region group of each DC, indexed by `DcId`.
    group_of: Vec<usize>,
    n_groups: usize,
    /// Trunk capacity per directed group pair, Mbps (`f64::INFINITY` =
    /// unconstrained trunk; the diagonal is ignored — intra-group traffic
    /// never crosses the backbone).
    capacity_mbps: Grid<f64>,
    /// Simulated seconds between epoch-exchange sync points.
    sync_every_s: f64,
}

impl Backbone {
    /// Builds a backbone over an explicit DC → group map and a per-group
    /// directed trunk-capacity matrix.
    ///
    /// # Panics
    ///
    /// Panics if `group_of` is empty, any group index is out of range for
    /// `capacity_mbps`, any capacity is negative or NaN, or
    /// `sync_every_s` is not finite and positive.
    pub fn new(group_of: Vec<usize>, capacity_mbps: Grid<f64>, sync_every_s: f64) -> Self {
        assert!(!group_of.is_empty(), "a backbone needs at least one data center");
        let n_groups = capacity_mbps.len();
        for (dc, &g) in group_of.iter().enumerate() {
            assert!(g < n_groups, "DC{dc} assigned to group {g}, but only {n_groups} groups exist");
        }
        for i in 0..n_groups {
            for j in 0..n_groups {
                let c = capacity_mbps.get(i, j);
                assert!(c >= 0.0, "trunk capacity ({i},{j}) must be non-negative, got {c}");
            }
        }
        assert!(
            sync_every_s.is_finite() && sync_every_s > 0.0,
            "sync interval must be finite and positive, got {sync_every_s}"
        );
        Self { group_of, n_groups, capacity_mbps, sync_every_s }
    }

    /// A backbone with the same trunk capacity on every directed group
    /// pair.
    pub fn uniform(group_of: Vec<usize>, trunk_mbps: f64, sync_every_s: f64) -> Self {
        let n_groups = group_of.iter().copied().max().map_or(0, |g| g + 1);
        Self::new(group_of, Grid::filled(n_groups, trunk_mbps), sync_every_s)
    }

    /// A backbone grouping `topo`'s DCs by continent (Americas, Europe,
    /// Asia-Pacific), with `trunk_mbps` capacity per directed trunk — the
    /// natural region-group decomposition of the paper's 8-DC testbed.
    pub fn continental(topo: &Topology, trunk_mbps: f64, sync_every_s: f64) -> Self {
        Self::grouped_by(topo, continent_of, trunk_mbps, sync_every_s)
    }

    /// A backbone grouping `topo`'s DCs by cloud region, with
    /// `trunk_mbps` capacity per directed trunk — the fine tier of a
    /// [`BackboneHierarchy`] over tiled many-DC topologies
    /// ([`crate::paper_testbed_tiled`]), where every region hosts
    /// several DCs.
    pub fn regional(topo: &Topology, trunk_mbps: f64, sync_every_s: f64) -> Self {
        Self::grouped_by(topo, |region| region, trunk_mbps, sync_every_s)
    }

    /// A uniform backbone grouping `topo`'s DCs by `key` of their region.
    /// Group ids are compacted in order of first appearance, so
    /// topologies spanning fewer keys still get dense groups (important
    /// for `group % n_shards` style placement).
    fn grouped_by<K: PartialEq>(
        topo: &Topology,
        key: impl Fn(Region) -> K,
        trunk_mbps: f64,
        sync_every_s: f64,
    ) -> Self {
        let mut seen: Vec<K> = Vec::new();
        let group_of: Vec<usize> = topo
            .iter()
            .map(|(_, dc)| {
                let k = key(dc.region);
                seen.iter().position(|s| *s == k).unwrap_or_else(|| {
                    seen.push(k);
                    seen.len() - 1
                })
            })
            .collect();
        Self::new(group_of, Grid::filled(seen.len(), trunk_mbps), sync_every_s)
    }

    /// Region group of a DC.
    ///
    /// # Panics
    ///
    /// Panics if `dc` is out of range.
    pub fn group_of(&self, dc: DcId) -> usize {
        self.group_of[dc.0]
    }

    /// The DC → group map, indexed by `DcId`.
    pub fn groups(&self) -> &[usize] {
        &self.group_of
    }

    /// Number of region groups.
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Simulated seconds between epoch-exchange sync points.
    pub fn sync_every_s(&self) -> f64 {
        self.sync_every_s
    }

    /// Trunk capacity of a directed group pair, Mbps.
    pub fn trunk_mbps(&self, from_group: usize, to_group: usize) -> f64 {
        self.capacity_mbps.get(from_group, to_group)
    }

    /// The epoch exchange: splits every directed trunk across shards.
    ///
    /// `demands[s]` is shard `s`'s wanted Mbps per directed group pair
    /// (its in-flight boundary flows' unreserved ceilings). Each trunk is
    /// divided by max-min fairness — every shard gets up to an equal
    /// share, unused portions are redistributed to still-hungry shards —
    /// and any capacity left after all demands are met is spread evenly
    /// across all shards as headroom, so a shard whose boundary traffic
    /// grows mid-window is not strangled at its stale demand. Trunks with
    /// infinite capacity grant `f64::INFINITY` to everyone.
    ///
    /// Pure and deterministic: the result depends only on the inputs, in
    /// shard-index order.
    ///
    /// # Panics
    ///
    /// Panics if any demand grid does not match the group count.
    pub fn allocate(&self, demands: &[Grid<f64>]) -> Vec<Grid<f64>> {
        let g = self.n_groups;
        for d in demands {
            assert_eq!(d.len(), g, "demand grid must be n_groups × n_groups");
        }
        let shards = demands.len();
        let mut shares = vec![Grid::filled(g, f64::INFINITY); shards];
        if shards == 0 {
            return shares;
        }
        let mut grant = vec![0.0f64; shards];
        for from in 0..g {
            for to in 0..g {
                if from == to {
                    continue;
                }
                let cap = self.capacity_mbps.get(from, to);
                if cap.is_infinite() {
                    continue; // every shard keeps f64::INFINITY
                }
                // Max-min over the shards' demands: repeatedly hand every
                // unsatisfied shard an equal slice of what is left.
                for slot in grant.iter_mut() {
                    *slot = 0.0;
                }
                let mut remaining = cap;
                // Hungry means the same thing here as in the serving loop
                // below (> 1e-12 unmet demand); a looser bound would let a
                // sub-epsilon demand count as hungry yet never be served
                // or satisfied, aborting the water-fill a round early.
                let mut hungry: usize =
                    (0..shards).filter(|&s| demands[s].get(from, to) > 1e-12).count();
                while hungry > 0 && remaining > 1e-9 {
                    let slice = remaining / hungry as f64;
                    let mut satisfied_this_round = 0usize;
                    let mut used = 0.0;
                    for s in 0..shards {
                        let want = demands[s].get(from, to);
                        if want - grant[s] <= 1e-12 {
                            continue;
                        }
                        let take = slice.min(want - grant[s]);
                        grant[s] += take;
                        used += take;
                        if want - grant[s] <= 1e-12 {
                            satisfied_this_round += 1;
                        }
                    }
                    remaining -= used;
                    if satisfied_this_round == 0 {
                        break; // everyone hungry took a full slice
                    }
                    hungry -= satisfied_this_round;
                }
                // Headroom: spread leftover capacity evenly over all
                // shards so growth between syncs is not capped at zero.
                let bonus = remaining.max(0.0) / shards as f64;
                for s in 0..shards {
                    shares[s].set(from, to, grant[s] + bonus);
                }
            }
        }
        shares
    }
}

/// The coupling of a sharded fleet: an ordered list of [`Backbone`]
/// tiers, finest first, each exchanged at its own cadence.
///
/// A flat backbone is a one-tier hierarchy ([`From<Backbone>`]),
/// exchanged every sync window. Large fleets split a 64+ DC topology
/// across many shards and layer two tiers ([`BackboneHierarchy::new`]):
///
/// * **tier 1** (fine): region groups with their own trunk capacities,
///   exchanged every `sync_every_s()` of its own — the sync window, the
///   frequent, cheap sync between sibling shards;
/// * **tier 2** (coarse): super-groups (e.g. continents) with their own
///   trunks, exchanged every `r`-th window, where `r` (its cadence) is
///   the integer ratio of the two tiers' `sync_every_s()`.
///
/// Tier 1 must **refine** tier 2: two DCs sharing a tier-1 group always
/// share a tier-2 super-group, so a boundary pair's tier-2 trunk is a
/// strictly coarser constraint and the tiers' grants compose by per-pair
/// minimum ([`crate::NetEngine::apply_backbone_tiers`]). Between its
/// exchanges a tier's last grant persists — the same one-window
/// coarseness the fine tier already accepts, one level up.
#[derive(Debug, Clone)]
pub struct BackboneHierarchy {
    /// `(backbone, cadence in sync windows)`, finest first; the finest
    /// tier's cadence is 1.
    tiers: Vec<(Backbone, u64)>,
}

impl From<Backbone> for BackboneHierarchy {
    fn from(flat: Backbone) -> Self {
        Self { tiers: vec![(flat, 1)] }
    }
}

impl BackboneHierarchy {
    /// Builds a two-tier hierarchy and validates its invariants.
    ///
    /// # Panics
    ///
    /// Panics if the tiers cover different DC counts, tier 1 does not
    /// refine tier 2, or tier 2's sync window is not an integer multiple
    /// of tier 1's.
    pub fn new(tier1: Backbone, tier2: Backbone) -> Self {
        assert_eq!(
            tier1.groups().len(),
            tier2.groups().len(),
            "both tiers must group the same data centers"
        );
        // Refinement: every tier-1 group maps into exactly one tier-2
        // super-group.
        let mut super_of_group: Vec<Option<usize>> = vec![None; tier1.n_groups()];
        for (dc, (&g, &s)) in tier1.groups().iter().zip(tier2.groups()).enumerate() {
            match super_of_group[g] {
                None => super_of_group[g] = Some(s),
                Some(prev) => assert_eq!(
                    prev, s,
                    "tier 1 must refine tier 2: DC{dc} puts group {g} in super-group {s}, \
                     but another DC put it in {prev}"
                ),
            }
        }
        let ratio = tier2.sync_every_s() / tier1.sync_every_s();
        let cadence = ratio.round() as u64;
        assert!(
            cadence >= 1 && (ratio - cadence as f64).abs() < 1e-9,
            "tier-2 sync window ({}s) must be an integer multiple of tier 1's ({}s)",
            tier2.sync_every_s(),
            tier1.sync_every_s()
        );
        Self { tiers: vec![(tier1, 1), (tier2, cadence)] }
    }

    /// The natural hierarchy for tiled paper topologies: tier 1 groups
    /// by cloud region, tier 2 by continent.
    pub fn regional_continental(
        topo: &Topology,
        regional_trunk_mbps: f64,
        continental_trunk_mbps: f64,
        tier1_sync_s: f64,
        tier2_sync_s: f64,
    ) -> Self {
        Self::new(
            Backbone::regional(topo, regional_trunk_mbps, tier1_sync_s),
            Backbone::continental(topo, continental_trunk_mbps, tier2_sync_s),
        )
    }

    /// The tiers, finest first, each with its cadence: how many sync
    /// windows (each the finest tier's [`Backbone::sync_every_s`]) lie
    /// between its exchanges. The finest tier's cadence is 1.
    pub fn tiers(&self) -> &[(Backbone, u64)] {
        &self.tiers
    }
}

/// Continent of a region, for [`Backbone::continental`].
fn continent_of(region: Region) -> usize {
    match region {
        Region::UsEast | Region::UsWest | Region::SaEast | Region::GcpUsCentral => 0,
        Region::EuWest => 1,
        Region::ApSouth | Region::ApSoutheast1 | Region::ApSoutheast2 | Region::ApNortheast => 2,
    }
}

#[cfg(test)]
impl Backbone {
    /// Whether a directed DC pair crosses a group boundary (and therefore
    /// rides the backbone).
    fn is_cross(&self, src: DcId, dst: DcId) -> bool {
        self.group_of[src.0] != self.group_of[dst.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmType;

    fn demand(g: usize, cells: &[(usize, usize, f64)]) -> Grid<f64> {
        let mut d = Grid::filled(g, 0.0);
        for &(i, j, v) in cells {
            d.set(i, j, v);
        }
        d
    }

    #[test]
    fn continental_groups_the_paper_testbed() {
        let topo = crate::paper_testbed(VmType::t2_medium());
        let bb = Backbone::continental(&topo, 1000.0, 10.0);
        assert_eq!(bb.n_groups(), 3);
        // US East / US West / SA East share the Americas group.
        assert_eq!(bb.group_of(DcId(0)), bb.group_of(DcId(1)));
        assert_eq!(bb.group_of(DcId(0)), bb.group_of(DcId(7)));
        // Mumbai..Tokyo share Asia-Pacific; Ireland is alone in Europe.
        assert_eq!(bb.group_of(DcId(2)), bb.group_of(DcId(5)));
        assert!(bb.is_cross(DcId(0), DcId(6)));
        assert!(!bb.is_cross(DcId(0), DcId(1)));
    }

    #[test]
    fn allocate_splits_contended_trunks_max_min() {
        let bb = Backbone::uniform(vec![0, 1], 900.0, 10.0);
        // Shard 0 wants 600, shard 1 wants 200: max-min gives 200 to the
        // small one, 600 to the big one, and splits the 100 headroom.
        let shares = bb.allocate(&[demand(2, &[(0, 1, 600.0)]), demand(2, &[(0, 1, 200.0)])]);
        assert!((shares[0].get(0, 1) - 650.0).abs() < 1e-6, "{}", shares[0].get(0, 1));
        assert!((shares[1].get(0, 1) - 250.0).abs() < 1e-6, "{}", shares[1].get(0, 1));
        // The reverse trunk had no demand: all capacity is headroom.
        assert!((shares[0].get(1, 0) - 450.0).abs() < 1e-6);
    }

    #[test]
    fn allocate_caps_oversubscribed_trunks_at_equal_shares() {
        let bb = Backbone::uniform(vec![0, 1], 300.0, 10.0);
        let shares = bb.allocate(&[
            demand(2, &[(0, 1, 500.0)]),
            demand(2, &[(0, 1, 500.0)]),
            demand(2, &[(0, 1, 500.0)]),
        ]);
        let total: f64 = (0..3).map(|s| shares[s].get(0, 1)).sum();
        assert!((total - 300.0).abs() < 1e-6, "grants must exhaust the trunk, got {total}");
        for s in &shares {
            assert!((s.get(0, 1) - 100.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sub_epsilon_demands_do_not_starve_the_water_fill() {
        // Regression: a shard wanting < 1e-12 Mbps must not count as
        // hungry (it can never be served or satisfied), or the max-min
        // loop aborts after one round and underallocates the trunk.
        let bb = Backbone::uniform(vec![0, 1], 100.0, 10.0);
        let shares = bb.allocate(&[demand(2, &[(0, 1, 5e-13)]), demand(2, &[(0, 1, 1000.0)])]);
        assert!(
            shares[1].get(0, 1) >= 100.0 - 1e-6,
            "the real demand must get (at least) the whole trunk, got {}",
            shares[1].get(0, 1)
        );
    }

    #[test]
    fn infinite_trunks_grant_infinity() {
        let bb = Backbone::uniform(vec![0, 1], f64::INFINITY, 5.0);
        let shares = bb.allocate(&[demand(2, &[(0, 1, 100.0)])]);
        assert!(shares[0].get(0, 1).is_infinite());
    }

    #[test]
    fn allocation_is_deterministic() {
        let bb = Backbone::uniform(vec![0, 0, 1, 2], 750.0, 20.0);
        let demands: Vec<Grid<f64>> = (0..4)
            .map(|s| {
                Grid::from_fn(3, |i, j| {
                    if i == j {
                        0.0
                    } else {
                        ((s * 7 + i * 3 + j) % 5) as f64 * 123.456
                    }
                })
            })
            .collect();
        let a = bb.allocate(&demands);
        let b = bb.allocate(&demands);
        for (x, y) in a.iter().zip(&b) {
            for i in 0..3 {
                for j in 0..3 {
                    assert_eq!(x.get(i, j).to_bits(), y.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sync interval")]
    fn zero_sync_interval_is_rejected() {
        let _ = Backbone::uniform(vec![0, 1], 100.0, 0.0);
    }

    #[test]
    fn regional_groups_a_tiled_testbed_by_region() {
        let topo = crate::paper_testbed_tiled(VmType::t2_medium(), 20);
        let bb = Backbone::regional(&topo, 2000.0, 10.0);
        assert_eq!(bb.n_groups(), 8, "20 DCs tile all 8 paper regions");
        // DC 0 and DC 8 are both US East: same region group.
        assert_eq!(bb.group_of(DcId(0)), bb.group_of(DcId(8)));
        assert!(bb.is_cross(DcId(0), DcId(1)));
        assert!(!bb.is_cross(DcId(3), DcId(11)));
    }

    #[test]
    fn hierarchy_validates_refinement_and_sync_ratio() {
        let topo = crate::paper_testbed_tiled(VmType::t2_medium(), 16);
        let h = BackboneHierarchy::regional_continental(&topo, 2000.0, 5000.0, 10.0, 30.0);
        let [(t1, 1), (t2, 3)] = h.tiers() else { panic!("two tiers, cadences 1 and 3") };
        assert_eq!(t1.n_groups(), 8);
        assert_eq!(t2.n_groups(), 3);
        // Refinement in action: a regional boundary inside a continent
        // crosses tier 1 but not tier 2.
        assert!(t1.is_cross(DcId(0), DcId(1)));
        assert!(!t2.is_cross(DcId(0), DcId(1)), "US East / US West share a continent");
    }

    #[test]
    #[should_panic(expected = "refine")]
    fn hierarchy_rejects_non_refining_tiers() {
        // Tier 1 lumps DCs 0 and 1 together, but tier 2 separates them.
        let t1 = Backbone::uniform(vec![0, 0, 1], 100.0, 10.0);
        let t2 = Backbone::uniform(vec![0, 1, 1], 100.0, 20.0);
        let _ = BackboneHierarchy::new(t1, t2);
    }

    #[test]
    #[should_panic(expected = "integer multiple")]
    fn hierarchy_rejects_misaligned_sync_windows() {
        let t1 = Backbone::uniform(vec![0, 0, 1], 100.0, 10.0);
        let t2 = Backbone::uniform(vec![0, 0, 1], 100.0, 25.0);
        let _ = BackboneHierarchy::new(t1, t2);
    }

    #[test]
    #[should_panic(expected = "group")]
    fn out_of_range_group_is_rejected() {
        let _ = Backbone::new(vec![0, 5], Grid::filled(2, 100.0), 10.0);
    }
}
