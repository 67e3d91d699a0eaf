//! CART regression trees with variance-reduction splits.
//!
//! # Stored form: 12-byte, pre-order nodes
//!
//! The builder emits nodes in pre-order, so a split's left child is always
//! the next node (`left == at + 1`) and only the right child needs an
//! index. A node is therefore 12 bytes — `{ t, link }`, aligned to 4 —
//! where `t` is the split threshold or the leaf value and `link` packs the
//! rest (`Links`): the split column in its low bits, the right child's
//! index above them. The column field is as wide as the tree's feature
//! count needs plus one code, all ones, that marks a leaf (3 bits for the
//! gauge's 6 columns, 7 for 70); its width is fixed once per tree at fit
//! time, and the index gets the bits left over. A leaf's right child is
//! the leaf itself. This array is the only stored form of a tree.
//!
//! # Inference: fixed-depth, lane-interleaved walks
//!
//! [`RegressionTree::for_each_leaf`] walks a block of [`LANES`] rows
//! through the tree together for exactly `depth` steps (the depth is
//! recorded at fit time). A row that reaches its leaf early stays there,
//! because a leaf steps to itself whichever way the comparison falls. The
//! step decodes the link with one mask and one shift and ends in a pair of
//! selects with no data-dependent branch, so the node loads of independent
//! lanes overlap instead of each waiting for the previous row's walk to
//! finish (`select_unpredictable`, Rust 1.88, is what keeps the compiler
//! from turning the select back into a branch that mispredicts half the
//! time). The comparison is the `x <= threshold` the builder partitioned
//! with, so NaN and values exactly on a threshold go where they always
//! went.
//!
//! # Fit: rank once, count per tree, partition stably
//!
//! A CART node needs its samples ordered by every candidate feature. A fit
//! (or a warm start) first builds a `Ranks` table: per feature, the
//! dense rank of every dataset row, so rows whose values compare equal
//! under `partial_cmp` (−0.0 and +0.0 among them) share a rank and rank
//! order is value order. Each tree then orders its sample positions per
//! feature with one counting pass over its bootstrap positions by rank.
//! The pass places positions in ascending order within a rank, so every
//! array comes out ordered by (value, position): exactly what a stable
//! comparison sort of the positions yields, with no comparison. The
//! builder keeps the ascending positions as one more array and
//! stable-partitions all of them at each accepted split. A stable
//! partition of a sequence ordered by (value, position) leaves each side
//! ordered by (value, position), which is exactly what a stable sort of
//! that side's ascending positions would produce. So every node scans the
//! same order, finds the same scores and thresholds, and draws the same
//! per-node feature shuffle from the RNG as a builder that re-sorts at
//! every node — the `reference` test module keeps that builder, and
//! `parity.rs` pins the two node for node.
//!
//! A split search copies each candidate feature's values and targets, in
//! that feature's order, into two contiguous buffers, sums the targets,
//! and scans the cuts with the running sums of y and y² in registers.
//! Every cut's score is the expression the reference evaluates on its
//! prefix-sum arrays, over the same additions in the same order, so the
//! bits agree. A node's mean is computed only if it becomes a leaf.
//!
//! Deliberately not done here, because each changes output bits or needs a
//! proof of its own: `f32` thresholds, quantising features to threshold
//! ranks (ranks only order the samples; thresholds stay midpoints of the
//! raw values, and the partition compares raw values), merging
//! equal-valued sibling leaves, and reordering nodes or trees for
//! locality.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::hint::select_unpredictable;

/// Hyper-parameters of a single regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Maximum depth; the root is depth 0.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples each child must retain.
    pub min_samples_leaf: usize,
    /// Features sampled per split (`None` = all features).
    pub features_per_split: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self { max_depth: 16, min_samples_split: 2, min_samples_leaf: 1, features_per_split: None }
    }
}

/// Rows that walk a tree together: enough that the out-of-order core
/// always has independent node loads in flight. Measured on the 56-row,
/// 60-tree gauge over a stream of distinct snapshots: 8 lanes 181 µs, 16
/// 157 µs, 32 150 µs, 56 170 µs (and 470 µs at any width when the step
/// compiles to a branch instead of a select).
pub(crate) const LANES: usize = 16;

/// One node of the pre-order array; the left child of a split at `at` is
/// `at + 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, packed(4))]
struct PackedNode {
    /// Split threshold, or the leaf's value.
    t: f64,
    /// Split column (or the leaf code) and right child, packed by the
    /// tree's [`Links`].
    link: u32,
}

const _: () = assert!(std::mem::size_of::<PackedNode>() == 12);

/// How one tree packs a node's column and right child into a `u32` link:
/// the column in the low `column_bits` bits, all ones there for a leaf,
/// the right child's index in the bits above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Links {
    column_bits: u32,
}

impl Links {
    /// The narrowest column field that holds every column of an
    /// `n_features`-wide row and the leaf code.
    pub(crate) fn for_width(n_features: usize) -> Self {
        Self { column_bits: usize::BITS - n_features.leading_zeros() }
    }

    /// The leaf code: all ones across the column field, so also its mask.
    fn leaf(self) -> u32 {
        1u32.checked_shl(self.column_bits).map_or(u32::MAX, |bit| bit - 1)
    }

    /// The largest node index a link can hold.
    pub(crate) fn max_index(self) -> usize {
        u32::MAX.checked_shr(self.column_bits).map_or(0, |max| max as usize)
    }

    /// Packs `column` (or the leaf code) with the right child `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in the bits the column field leaves.
    fn pack(self, column: u32, index: usize) -> u32 {
        let fits = self.column_bits < u32::BITS && index <= self.max_index();
        assert!(fits, "a tree's node index fits in the bits its column field leaves over");
        (index as u32) << self.column_bits | column
    }

    /// `(column or leaf code, right child)` of a link.
    fn unpack(self, link: u32) -> (u32, u32) {
        (link & self.leaf(), link >> self.column_bits)
    }
}

fn sample_id(at: usize) -> u32 {
    u32::try_from(at).expect("a tree indexes its samples with u32")
}

/// A fitted CART regression tree.
///
/// Splits minimize the weighted sum of child variances (equivalently,
/// maximize variance reduction), the standard CART criterion for
/// regression.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<PackedNode>,
    links: Links,
    n_features: usize,
    depth: usize,
}

impl RegressionTree {
    /// Fits a tree on `data`.
    ///
    /// `rng` drives per-split feature subsampling when
    /// [`TreeParams::features_per_split`] is set (used by the forest).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(data: &Dataset, params: &TreeParams, rng: &mut StdRng) -> Self {
        assert!(!data.is_empty(), "cannot fit a tree on an empty dataset");
        let sample: Vec<usize> = (0..data.len()).collect();
        Self::fit_sample(data, &Ranks::new(data), &sample, params, rng)
    }

    /// Fits a tree on the rows of `data` that `sample` lists (a bootstrap
    /// draw lists rows more than once), without copying the rows out;
    /// `ranks` is `data`'s rank table.
    pub(crate) fn fit_sample(
        data: &Dataset,
        ranks: &Ranks,
        sample: &[usize],
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> Self {
        assert!(!sample.is_empty(), "cannot fit a tree on an empty dataset");
        let mut builder = Builder::new(data, ranks, sample, params, rng);
        builder.build(0, sample.len(), 0);
        let mut nodes = builder.nodes;
        nodes.shrink_to_fit();
        Self { nodes, links: builder.links, n_features: data.n_features(), depth: builder.depth }
    }

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the training feature count.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut value = 0.0;
        self.for_each_leaf(row, 1, |_, v| value = v);
        value
    }

    /// Walks each of the `n_rows` rows in `rows` (row-major, `n_features`
    /// wide) to its leaf and hands `(row index, leaf value)` to `sink`, in
    /// row order.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not `n_rows` times the training feature
    /// count.
    pub(crate) fn for_each_leaf(
        &self,
        rows: &[f64],
        n_rows: usize,
        mut sink: impl FnMut(usize, f64),
    ) {
        let width = self.n_features;
        assert_eq!(rows.len(), n_rows * width, "feature arity mismatch");
        let nodes = self.nodes.as_slice();
        let links = self.links;
        for start in (0..n_rows).step_by(LANES) {
            let lanes = LANES.min(n_rows - start);
            let mut at = [0u32; LANES];
            for _ in 0..self.depth {
                for (lane, at) in at[..lanes].iter_mut().enumerate() {
                    let node = nodes[*at as usize];
                    let (column, right) = links.unpack(node.link);
                    let is_leaf = column == links.leaf();
                    // A tree with a split has at least one column, so a
                    // leaf may read column 0; its comparison is discarded.
                    let column = if is_leaf { 0 } else { column as usize };
                    let x = rows[(start + lane) * width + column];
                    let left = *at + u32::from(!is_leaf);
                    *at = select_unpredictable(x <= node.t, left, right);
                }
            }
            for (lane, &at) in at[..lanes].iter().enumerate() {
                sink(start + lane, nodes[at as usize].t);
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the deepest leaf.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// Per feature, the dense rank of every row of a dataset under
/// `partial_cmp`: rows with equal values share a rank, and a feature's
/// ranks run from 0 to its number of distinct values less one. Built once
/// per fit or warm start and shared by its trees; a fitted tree keeps
/// nothing of it.
pub(crate) struct Ranks {
    n_rows: usize,
    /// The rank of row `i` under feature `f` is `ranks[f * n_rows + i]`.
    ranks: Vec<u32>,
    /// Per feature, the number of distinct values.
    levels: Vec<usize>,
}

impl Ranks {
    /// The rank table of `data`, which must not be empty.
    pub(crate) fn new(data: &Dataset) -> Self {
        let (n_rows, width) = (data.len(), data.n_features());
        let xs = data.row_major();
        let mut ranks = vec![0; width * n_rows];
        let mut levels = Vec::with_capacity(width);
        let mut by_value: Vec<u32> = (0..sample_id(n_rows)).collect();
        for (f, column) in ranks.chunks_exact_mut(n_rows).enumerate() {
            let x = |i: u32| xs[i as usize * width + f];
            by_value.sort_unstable_by(|&a, &b| x(a).partial_cmp(&x(b)).expect("finite feature"));
            let (mut rank, mut prev) = (0, x(by_value[0]));
            for &i in &by_value {
                if x(i) != prev {
                    rank += 1;
                    prev = x(i);
                }
                column[i as usize] = rank;
            }
            levels.push(rank as usize + 1);
        }
        Self { n_rows, ranks, levels }
    }

    /// `n_features + 1` arrays of `sample.len()` positions each: array `f`
    /// orders the positions by (feature `f`, position), the last is
    /// ascending. One counting pass per feature, stable in position.
    pub(crate) fn presort(&self, sample: &[usize]) -> Vec<u32> {
        let n = sample.len();
        let mut order = Vec::with_capacity((self.levels.len() + 1) * n);
        order.resize(self.levels.len() * n, 0);
        let mut next = vec![0u32; self.levels.iter().max().map_or(0, |&l| l + 1)];
        for ((ranks, &levels), order) in
            self.ranks.chunks_exact(self.n_rows).zip(&self.levels).zip(order.chunks_exact_mut(n))
        {
            // `next[r]` becomes the first slot of rank `r`: the count of
            // positions ranked below it.
            let next = &mut next[..=levels];
            next.fill(0);
            for &i in sample {
                next[ranks[i] as usize + 1] += 1;
            }
            for r in 1..levels {
                next[r] += next[r - 1];
            }
            for (p, &i) in sample.iter().enumerate() {
                let slot = &mut next[ranks[i] as usize];
                order[*slot as usize] = sample_id(p);
                *slot += 1;
            }
        }
        order.extend(0..sample_id(n));
        order
    }
}

/// Fit-time state of one tree: the sample in column-major form, its
/// per-feature presorted orders, scratch buffers, and the nodes so far.
struct Builder<'a> {
    params: &'a TreeParams,
    rng: &'a mut StdRng,
    n_samples: usize,
    n_features: usize,
    /// Feature `f` of sample position `p` is `xs[f * n_samples + p]`.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// `n_features + 1` arrays of `n_samples` positions each. Array `f`
    /// is ordered by (feature `f`, position); the last is ascending. A
    /// node owns the same `lo..hi` range of every array.
    order: Vec<u32>,
    /// Per sample position: which side of the split being applied.
    goes_left: Vec<bool>,
    /// The right side of a range while it is being partitioned.
    spill: Vec<u32>,
    /// One node's feature values and targets in one feature's order.
    node_x: Vec<f64>,
    node_y: Vec<f64>,
    /// Candidate features of the node being split.
    features: Vec<usize>,
    links: Links,
    nodes: Vec<PackedNode>,
    depth: usize,
}

impl<'a> Builder<'a> {
    fn new(
        data: &Dataset,
        ranks: &Ranks,
        sample: &[usize],
        params: &'a TreeParams,
        rng: &'a mut StdRng,
    ) -> Self {
        let n_samples = sample.len();
        let n_features = data.n_features();
        let mut xs = vec![0.0; n_features * n_samples];
        for (p, &i) in sample.iter().enumerate() {
            for (f, &x) in data.row(i).iter().enumerate() {
                xs[f * n_samples + p] = x;
            }
        }
        Self {
            params,
            rng,
            n_samples,
            n_features,
            xs,
            ys: sample.iter().map(|&i| data.target(i)).collect(),
            order: ranks.presort(sample),
            goes_left: vec![false; n_samples],
            spill: vec![0; n_samples],
            node_x: vec![0.0; n_samples],
            node_y: vec![0.0; n_samples],
            features: Vec::with_capacity(n_features),
            links: Links::for_width(n_features),
            nodes: Vec::new(),
            depth: 0,
        }
    }

    /// Builds, in pre-order, the subtree for the samples in `lo..hi` of
    /// every order array.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) {
        let params = self.params;
        let len = hi - lo;
        let leaf_ok = depth >= params.max_depth
            || len < params.min_samples_split
            || len < 2 * params.min_samples_leaf;
        if !leaf_ok {
            if let Some((feature, threshold)) = self.best_split(lo, hi) {
                // Count before moving anything: a midpoint that rounds up
                // to the upper value can leave a side under the minimum.
                let left_len = self.mark_left(lo, hi, feature, threshold);
                if left_len >= params.min_samples_leaf && len - left_len >= params.min_samples_leaf
                {
                    self.partition(lo, hi, feature);
                    let at = self.nodes.len();
                    self.nodes.push(PackedNode { t: threshold, link: 0 }); // patched below
                    self.build(lo, lo + left_len, depth + 1);
                    self.nodes[at].link = self.links.pack(feature as u32, self.nodes.len());
                    self.build(lo + left_len, hi, depth + 1);
                    return;
                }
            }
        }
        self.depth = self.depth.max(depth);
        let ascending = &self.order[self.n_features * self.n_samples..][lo..hi];
        let mean = ascending.iter().map(|&p| self.ys[p as usize]).sum::<f64>() / len as f64;
        let link = self.links.pack(self.links.leaf(), self.nodes.len());
        self.nodes.push(PackedNode { t: mean, link });
    }

    /// Finds the (feature, threshold) minimizing weighted child variance.
    fn best_split(&mut self, lo: usize, hi: usize) -> Option<(usize, f64)> {
        // The shuffle always starts from the identity arrangement.
        self.features.clear();
        self.features.extend(0..self.n_features);
        if let Some(k) = self.params.features_per_split {
            self.features.shuffle(self.rng);
            self.features.truncate(k.max(1).min(self.n_features));
        }

        let n = hi - lo;
        if n < 2 {
            return None; // no cut leaves both sides non-empty
        }
        let min_leaf = self.params.min_samples_leaf;
        // Both sides of a cut are non-empty.
        let (first, last) = (min_leaf.max(1), (n - min_leaf).min(n - 1));
        let (xs, ys) = (&mut self.node_x[..n], &mut self.node_y[..n]);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for &feature in &self.features {
            let order = &self.order[feature * self.n_samples..][lo..hi];
            let column = &self.xs[feature * self.n_samples..][..self.n_samples];
            let (mut total, mut total2) = (0.0, 0.0);
            for ((&p, x), y) in order.iter().zip(&mut *xs).zip(&mut *ys) {
                *x = column[p as usize];
                *y = self.ys[p as usize];
                total += *y;
                total2 += *y * *y;
            }
            // Sum of squared errors of `count` targets summing to `s`,
            // their squares to `s2`.
            let sse = |s: f64, s2: f64, count: usize| (s2 - s * s / count as f64).max(0.0);
            // Running sums of y and y² over the first `cut` samples make
            // every candidate cut's variance O(1).
            let (mut s, mut s2) = (0.0, 0.0);
            for (cut, (&y, pair)) in (1..).zip(ys[..last].iter().zip(xs[..=last].windows(2))) {
                s += y;
                s2 += y * y;
                let (lo_val, hi_val) = (pair[0], pair[1]);
                if cut < first || lo_val == hi_val {
                    continue; // a side under the minimum, or equal values split
                }
                let score = sse(s, s2, cut) + sse(total - s, total2 - s2, n - cut);
                if best.is_none_or(|(_, _, best)| score < best) {
                    best = Some((feature, (lo_val + hi_val) / 2.0, score));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }

    /// Records which samples of `lo..hi` go left of the split; returns
    /// how many do.
    fn mark_left(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let column = &self.xs[feature * self.n_samples..][..self.n_samples];
        let mut left_len = 0;
        for &p in &self.order[self.n_features * self.n_samples..][lo..hi] {
            let left = column[p as usize] <= threshold;
            self.goes_left[p as usize] = left;
            left_len += usize::from(left);
        }
        left_len
    }

    /// Stable-partitions `lo..hi` of every order array by `goes_left`.
    fn partition(&mut self, lo: usize, hi: usize, split_feature: usize) {
        for (which, order) in self.order.chunks_exact_mut(self.n_samples).enumerate() {
            if which == split_feature {
                continue; // ordered by the split feature: the left side is already a prefix
            }
            let range = &mut order[lo..hi];
            let (mut lefts, mut rights) = (0, 0);
            for k in 0..range.len() {
                let p = range[k];
                let left = self.goes_left[p as usize];
                // Branch-free: write both places, advance one cursor.
                range[lefts] = p;
                self.spill[rights] = p;
                lefts += usize::from(left);
                rights += usize::from(!left);
            }
            range[lefts..].copy_from_slice(&self.spill[..rights]);
        }
    }
}

#[cfg(test)]
impl RegressionTree {
    /// The packed nodes spelled out as reference nodes, index for index.
    pub(crate) fn to_reference_nodes(&self) -> Vec<reference::Node> {
        let spell = |(at, node): (usize, &PackedNode)| match self.links.unpack(node.link) {
            (column, right) if column == self.links.leaf() => {
                assert_eq!(right as usize, at, "a leaf links to itself");
                reference::Node::Leaf { value: node.t }
            }
            (column, right) => reference::Node::Split {
                feature: column as usize,
                threshold: node.t,
                left: at + 1,
                right: right as usize,
            },
        };
        self.nodes.iter().enumerate().map(spell).collect()
    }
}

/// The builder and walk this module replaced, kept verbatim as the
/// reference the parity tests (`parity.rs`) compare against: a 40-byte
/// `enum Node`, a fresh sort per node per candidate feature, one row at a
/// time.
#[cfg(test)]
pub(crate) mod reference {
    use super::TreeParams;
    use crate::dataset::Dataset;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;

    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Node {
        Leaf { value: f64 },
        Split { feature: usize, threshold: f64, left: usize, right: usize },
    }

    /// A fitted CART regression tree.
    ///
    /// Splits minimize the weighted sum of child variances (equivalently,
    /// maximize variance reduction), the standard CART criterion for
    /// regression.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct ReferenceTree {
        pub(crate) nodes: Vec<Node>,
        n_features: usize,
    }

    impl ReferenceTree {
        /// Fits a tree on `data`.
        ///
        /// `rng` drives per-split feature subsampling when
        /// [`TreeParams::features_per_split`] is set (used by the forest).
        ///
        /// # Panics
        ///
        /// Panics if `data` is empty.
        pub(crate) fn fit(data: &Dataset, params: &TreeParams, rng: &mut StdRng) -> Self {
            assert!(!data.is_empty(), "cannot fit a tree on an empty dataset");
            let mut tree = Self { nodes: Vec::new(), n_features: data.n_features() };
            let indices: Vec<usize> = (0..data.len()).collect();
            tree.build(data, indices, params, 0, rng);
            tree
        }

        /// Predicts the target for one feature row.
        ///
        /// # Panics
        ///
        /// Panics if `row.len()` differs from the training feature count.
        pub(crate) fn predict(&self, row: &[f64]) -> f64 {
            assert_eq!(row.len(), self.n_features, "feature arity mismatch");
            let mut at = 0usize;
            loop {
                match &self.nodes[at] {
                    Node::Leaf { value } => return *value,
                    Node::Split { feature, threshold, left, right } => {
                        at = if row[*feature] <= *threshold { *left } else { *right };
                    }
                }
            }
        }

        /// Recursively builds the subtree for `indices`; returns its node index.
        fn build(
            &mut self,
            data: &Dataset,
            indices: Vec<usize>,
            params: &TreeParams,
            depth: usize,
            rng: &mut StdRng,
        ) -> usize {
            let mean = indices.iter().map(|&i| data.target(i)).sum::<f64>() / indices.len() as f64;
            let leaf_ok = depth >= params.max_depth
                || indices.len() < params.min_samples_split
                || indices.len() < 2 * params.min_samples_leaf;
            if !leaf_ok {
                if let Some((feature, threshold)) = self.best_split(data, &indices, params, rng) {
                    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                        indices.iter().partition(|&&i| data.row(i)[feature] <= threshold);
                    if left_idx.len() >= params.min_samples_leaf
                        && right_idx.len() >= params.min_samples_leaf
                    {
                        let at = self.nodes.len();
                        self.nodes.push(Node::Leaf { value: mean }); // placeholder
                        let left = self.build(data, left_idx, params, depth + 1, rng);
                        let right = self.build(data, right_idx, params, depth + 1, rng);
                        self.nodes[at] = Node::Split { feature, threshold, left, right };
                        return at;
                    }
                }
            }
            self.nodes.push(Node::Leaf { value: mean });
            self.nodes.len() - 1
        }

        /// Finds the (feature, threshold) minimizing weighted child variance.
        fn best_split(
            &self,
            data: &Dataset,
            indices: &[usize],
            params: &TreeParams,
            rng: &mut StdRng,
        ) -> Option<(usize, f64)> {
            let mut features: Vec<usize> = (0..data.n_features()).collect();
            if let Some(k) = params.features_per_split {
                features.shuffle(rng);
                features.truncate(k.max(1).min(data.n_features()));
            }

            let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
            for &feature in &features {
                let mut order: Vec<usize> = indices.to_vec();
                order.sort_by(|&a, &b| {
                    data.row(a)[feature].partial_cmp(&data.row(b)[feature]).expect("finite feature")
                });
                // Prefix sums of y and y^2 over the sorted order enable O(1)
                // variance computation for every candidate cut.
                let n = order.len();
                let mut sum = vec![0.0; n + 1];
                let mut sum2 = vec![0.0; n + 1];
                for (k, &i) in order.iter().enumerate() {
                    let y = data.target(i);
                    sum[k + 1] = sum[k] + y;
                    sum2[k + 1] = sum2[k] + y * y;
                }
                let sse = |lo: usize, hi: usize| -> f64 {
                    // Sum of squared errors of targets in order[lo..hi].
                    let cnt = (hi - lo) as f64;
                    let s = sum[hi] - sum[lo];
                    let s2 = sum2[hi] - sum2[lo];
                    (s2 - s * s / cnt).max(0.0)
                };
                for cut in params.min_samples_leaf..=(n - params.min_samples_leaf) {
                    if cut == 0 || cut == n {
                        continue;
                    }
                    let lo_val = data.row(order[cut - 1])[feature];
                    let hi_val = data.row(order[cut])[feature];
                    if lo_val == hi_val {
                        continue; // cannot separate equal feature values
                    }
                    let score = sse(0, cut) + sse(cut, n);
                    if best.is_none_or(|(_, _, s)| score < s) {
                        best = Some((feature, (lo_val + hi_val) / 2.0, score));
                    }
                }
            }
            best.map(|(f, t, _)| (f, t))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn step_data() -> Dataset {
        // y = 10 for x < 5, y = 20 for x >= 5: one split suffices.
        let mut d = Dataset::new(1);
        for i in 0..10 {
            let x = f64::from(i);
            d.push(vec![x], if x < 5.0 { 10.0 } else { 20.0 }).unwrap();
        }
        d
    }

    #[test]
    fn learns_a_step_function() {
        let tree = RegressionTree::fit(&step_data(), &TreeParams::default(), &mut rng());
        assert_eq!(tree.predict(&[2.0]), 10.0);
        assert_eq!(tree.predict(&[7.0]), 20.0);
    }

    #[test]
    fn depth_zero_yields_global_mean() {
        let params = TreeParams { max_depth: 0, ..TreeParams::default() };
        let tree = RegressionTree::fit(&step_data(), &params, &mut rng());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[0.0]), 15.0);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn constant_targets_produce_single_leaf() {
        let mut d = Dataset::new(2);
        for i in 0..20 {
            d.push(vec![f64::from(i), f64::from(i % 3)], 4.2).unwrap();
        }
        let tree = RegressionTree::fit(&d, &TreeParams::default(), &mut rng());
        // Splitting never reduces SSE below 0, but any split keeps SSE at 0;
        // predictions must be exact either way.
        assert_eq!(tree.predict(&[3.0, 1.0]), 4.2);
    }

    #[test]
    fn min_samples_leaf_limits_granularity() {
        let params = TreeParams { min_samples_leaf: 5, ..TreeParams::default() };
        let tree = RegressionTree::fit(&step_data(), &params, &mut rng());
        // With 10 samples and min leaf 5, at most one split is possible.
        assert!(tree.node_count() <= 3);
    }

    #[test]
    fn multivariate_split_picks_informative_feature() {
        // Feature 1 is noise; feature 0 determines y.
        let mut d = Dataset::new(2);
        for i in 0..40 {
            let x = f64::from(i);
            d.push(vec![x, f64::from(i % 2)], if x < 20.0 { -5.0 } else { 5.0 }).unwrap();
        }
        let tree = RegressionTree::fit(&d, &TreeParams::default(), &mut rng());
        assert_eq!(tree.predict(&[3.0, 0.0]), -5.0);
        assert_eq!(tree.predict(&[33.0, 0.0]), 5.0);
    }

    #[test]
    fn piecewise_linear_approximation_improves_with_depth() {
        let mut d = Dataset::new(1);
        for i in 0..200 {
            let x = f64::from(i) / 20.0;
            d.push(vec![x], x.sin()).unwrap();
        }
        let shallow = RegressionTree::fit(
            &d,
            &TreeParams { max_depth: 2, ..TreeParams::default() },
            &mut rng(),
        );
        let deep = RegressionTree::fit(
            &d,
            &TreeParams { max_depth: 8, ..TreeParams::default() },
            &mut rng(),
        );
        let err = |t: &RegressionTree| -> f64 {
            d.iter().map(|(x, y)| (t.predict(x) - y).powi(2)).sum::<f64>() / d.len() as f64
        };
        assert!(err(&deep) < err(&shallow) / 4.0);
    }

    #[test]
    fn links_round_trip_at_their_largest_index() {
        for (n_features, column_bits) in
            [(0, 0), (1, 1), (6, 3), (7, 3), (8, 4), (70, 7), (1 << 20, 21)]
        {
            let links = Links::for_width(n_features);
            let max = links.max_index();
            assert_eq!(max, (1usize << (32 - column_bits)) - 1, "{n_features} columns");
            let last_column = u32::try_from(n_features.saturating_sub(1)).unwrap();
            for column in [0, last_column, links.leaf()] {
                let link = links.pack(column, max);
                assert_eq!(links.unpack(link), (column, max as u32), "{n_features} columns");
            }
            assert!(n_features == 0 || links.leaf() > last_column, "the leaf code is no column");
        }
    }

    #[test]
    #[should_panic(expected = "a tree's node index fits in the bits its column field leaves over")]
    fn a_link_refuses_an_index_past_its_bits() {
        let links = Links::for_width(70);
        let _ = links.pack(0, links.max_index() + 1);
    }

    #[test]
    #[should_panic]
    fn empty_dataset_panics() {
        let d = Dataset::new(1);
        let _ = RegressionTree::fit(&d, &TreeParams::default(), &mut rng());
    }

    #[test]
    #[should_panic]
    fn predict_checks_arity() {
        let tree = RegressionTree::fit(&step_data(), &TreeParams::default(), &mut rng());
        let _ = tree.predict(&[1.0, 2.0]);
    }

    #[cfg(test)]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn predictions_within_target_range(
                rows in proptest::collection::vec((0.0f64..100.0, -50.0f64..50.0), 5..60),
                probe in 0.0f64..100.0,
            ) {
                let mut d = Dataset::new(1);
                for (x, y) in &rows {
                    d.push(vec![*x], *y).unwrap();
                }
                let tree = RegressionTree::fit(&d, &TreeParams::default(), &mut rng());
                let lo = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
                let hi = rows.iter().map(|r| r.1).fold(f64::NEG_INFINITY, f64::max);
                let p = tree.predict(&[probe]);
                // Leaf values are means of training targets, so predictions
                // can never escape the convex hull of the targets.
                prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
            }

            #[test]
            fn training_points_fit_exactly_with_unlimited_depth(
                xs in proptest::collection::btree_set(0i32..1000, 2..40),
            ) {
                let mut d = Dataset::new(1);
                for &x in &xs {
                    d.push(vec![f64::from(x)], f64::from(x % 7)).unwrap();
                }
                let params = TreeParams { max_depth: 64, ..TreeParams::default() };
                let tree = RegressionTree::fit(&d, &params, &mut rng());
                for (row, y) in d.iter() {
                    prop_assert!((tree.predict(row) - y).abs() < 1e-9);
                }
            }
        }
    }
}
