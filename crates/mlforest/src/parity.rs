//! Bit-for-bit parity of the packed, presorted, tree-major code against
//! the reference it replaced (`tree::reference`: a sort per node per
//! feature, `enum Node`, one row at a time).
//!
//! (a) Fitted trees are compared node for node, and the RNG's next output
//! after the fit must agree, so the per-node feature shuffles were drawn
//! at the same points. (b) `predict_rows` is compared with the reference
//! per-row ensemble mean. Everything is compared on `to_bits`. (c) The
//! counting presort is compared, column by column, with the stable
//! comparison sort it replaced.
//!
//! CI runs these with the rest of the crate in release (`cargo test
//! --release -p wanify-forest`); the 8 400-row case is slow in a debug
//! build.

use crate::dataset::Dataset;
use crate::forest::{ForestParams, RandomForest};
use crate::tree::reference::{Node, ReferenceTree};
use crate::tree::{Links, Ranks, RegressionTree, TreeParams, LANES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The forest fit this PR replaced: the same seed chain and bootstrap
/// draw, a copied `Dataset::select` sample, reference trees, sequential.
struct ReferenceForest {
    trees: Vec<ReferenceTree>,
    params: ForestParams,
    next_seed: u64,
}

impl ReferenceForest {
    fn fit(data: &Dataset, params: &ForestParams, seed: u64) -> Self {
        let mut forest = Self { trees: Vec::new(), params: params.clone(), next_seed: seed };
        forest.grow(data, params.n_estimators);
        forest
    }

    fn grow(&mut self, data: &Dataset, count: usize) {
        let tree_params = TreeParams {
            features_per_split: self
                .params
                .features_per_split
                .or(Some((data.n_features() / 3).max(1))),
            ..self.params.tree.clone()
        };
        for _ in 0..count {
            let mut rng = StdRng::seed_from_u64(self.next_seed);
            self.next_seed = self.next_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let sample = if self.params.bootstrap {
                let n = data.len();
                let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                data.select(&indices)
            } else {
                data.clone()
            };
            self.trees.push(ReferenceTree::fit(&sample, &tree_params, &mut rng));
        }
    }

    fn predict(&self, row: &[f64]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict(row)).sum();
        sum / self.trees.len() as f64
    }
}

fn depth_below(nodes: &[Node], at: usize) -> usize {
    match nodes[at] {
        Node::Leaf { .. } => 0,
        Node::Split { left, right, .. } => {
            1 + depth_below(nodes, left).max(depth_below(nodes, right))
        }
    }
}

fn assert_same_nodes(packed: &RegressionTree, reference: &ReferenceTree, case: &str) {
    assert_eq!(packed.depth(), depth_below(&reference.nodes, 0), "{case}: recorded depth");
    let packed = packed.to_reference_nodes();
    assert_eq!(packed.len(), reference.nodes.len(), "{case}: node count");
    for (at, pair) in packed.iter().zip(&reference.nodes).enumerate() {
        let same = match pair {
            (Node::Leaf { value: a }, Node::Leaf { value: b }) => a.to_bits() == b.to_bits(),
            (
                Node::Split { feature: fa, threshold: ta, left: la, right: ra },
                Node::Split { feature: fb, threshold: tb, left: lb, right: rb },
            ) => fa == fb && ta.to_bits() == tb.to_bits() && la == lb && ra == rb,
            _ => false,
        };
        assert!(same, "{case}: node {at} is {:?}, reference {:?}", pair.0, pair.1);
    }
}

/// A dataset built to provoke ties: feature values come from a handful of
/// levels (among them both zeros, and neighbouring floats whose midpoint
/// rounds onto one of them, so a sample sits exactly on its node's
/// threshold), `constant` columns hold one value, `copies` columns repeat
/// column 0, and targets are coarse enough that different cuts can score
/// the same.
fn tie_prone_data(rows: usize, width: usize, constant: bool, copies: bool, seed: u64) -> Dataset {
    const LEVELS: [f64; 11] = [
        -3.5,
        -1.0,
        -0.0,
        0.0,
        5.0e-324,
        0.25,
        1.0,
        1.0 + f64::EPSILON,
        1.0 + 2.0 * f64::EPSILON,
        1.0e-300,
        7.0,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new(width);
    for _ in 0..rows {
        let mut x: Vec<f64> = (0..width)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    LEVELS[rng.gen_range(0..LEVELS.len())]
                } else {
                    rng.gen_range(-4.0..8.0)
                }
            })
            .collect();
        if constant && width > 1 {
            x[width - 1] = 2.5;
        }
        if copies && width > 2 {
            x[1] = x[0];
        }
        let y = if rng.gen_bool(0.5) {
            f64::from(rng.gen_range(0..4u32))
        } else {
            rng.gen_range(-50.0..50.0)
        };
        data.push(x, y).unwrap();
    }
    data
}

/// A Table-3-shaped dataset: 6 features, bandwidth-scale targets, the
/// retransmission column integer-valued with many ties.
fn table3_like(rows: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new(6);
    for _ in 0..rows {
        let mut x: Vec<f64> = (0..6).map(|_| rng.gen::<f64>()).collect();
        x[0] = f64::from(rng.gen_range(2..9u32));
        x[4] = f64::from(rng.gen_range(0..12u32));
        let y = 1800.0 * x[1] / (1.0 + 2.0 * x[5]) + 120.0 * x[2] + 60.0 * (x[3] - 0.5) + x[4];
        data.push(x, y).unwrap();
    }
    data
}

proptest! {
    /// (a) on whole datasets: every `min_samples_leaf` × `max_depth` ×
    /// `features_per_split` combination, on tie-prone data.
    #[test]
    fn parity_fit_matches_reference_node_for_node(
        shape in (1usize..70, 1usize..6),
        constant in 0u8..2,
        copies in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let (rows, width) = shape;
        let data = tie_prone_data(rows, width, constant == 1, copies == 1, seed);
        for min_samples_leaf in [1, 3] {
            for max_depth in [0, 2, 18] {
                for features_per_split in [None, Some(1), Some(width)] {
                    let params = TreeParams {
                        max_depth,
                        min_samples_leaf,
                        features_per_split,
                        ..TreeParams::default()
                    };
                    let case = format!("{rows}x{width} seed {seed} {params:?}");
                    let (mut rng, mut reference_rng) =
                        (StdRng::seed_from_u64(seed ^ 0xB0B), StdRng::seed_from_u64(seed ^ 0xB0B));
                    let packed = RegressionTree::fit(&data, &params, &mut rng);
                    let reference = ReferenceTree::fit(&data, &params, &mut reference_rng);
                    assert_same_nodes(&packed, &reference, &case);
                    prop_assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>(), "{}: RNG", case);
                }
            }
        }
    }

    /// (a) on bootstrap draws: `fit_sample` over an index list with
    /// repeats against the reference fit of the copied-out sample.
    #[test]
    fn parity_fit_sample_matches_reference_on_bootstrap_duplicates(
        shape in (2usize..60, 1usize..5),
        min_samples_leaf in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let (rows, width) = shape;
        let data = tie_prone_data(rows, width, false, true, seed);
        let mut draw = StdRng::seed_from_u64(seed ^ 0xD1CE);
        // Half the rows at most, so most of them repeat.
        let sample: Vec<usize> =
            (0..rows).map(|_| draw.gen_range(0..rows.div_ceil(2))).collect();
        let params = TreeParams {
            max_depth: 18,
            min_samples_leaf,
            features_per_split: Some(width.div_ceil(2)),
            ..TreeParams::default()
        };
        let (mut rng, mut reference_rng) = (draw.clone(), draw);
        let ranks = Ranks::new(&data);
        let packed = RegressionTree::fit_sample(&data, &ranks, &sample, &params, &mut rng);
        let reference = ReferenceTree::fit(&data.select(&sample), &params, &mut reference_rng);
        assert_same_nodes(&packed, &reference, &format!("{rows}x{width} seed {seed}"));
        prop_assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());
    }

    /// (c): on bootstrap draws (most rows repeat) of tie-prone data, zero
    /// width included, every presorted column equals a stable
    /// `sort_by(partial_cmp)` of the sample positions, so ties — −0.0
    /// against +0.0, repeated rows, a constant column — keep ascending
    /// sample position, and the last array is the positions in order.
    #[test]
    fn presort_matches_a_stable_sort_column_by_column(
        shape in (1usize..70, 0usize..6),
        constant in 0u8..2,
        copies in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let (rows, width) = shape;
        let data = tie_prone_data(rows, width, constant == 1, copies == 1, seed);
        let mut draw = StdRng::seed_from_u64(seed ^ 0x50F7);
        let sample: Vec<usize> =
            (0..rows).map(|_| draw.gen_range(0..rows.div_ceil(2))).collect();
        let order = Ranks::new(&data).presort(&sample);
        prop_assert_eq!(order.len(), (width + 1) * rows);
        for (f, got) in order.chunks_exact(rows).enumerate() {
            let mut want: Vec<u32> = (0..rows as u32).collect();
            if f < width {
                let x = |p: u32| data.row(sample[p as usize])[f];
                want.sort_by(|&a, &b| x(a).partial_cmp(&x(b)).expect("finite feature"));
            }
            prop_assert_eq!(got, &want[..], "{}x{} seed {}: column {}", rows, width, seed, f);
        }
    }

    /// (b): every batch size around the lane width, rows salted with NaN,
    /// ±∞, ±0 and values exactly on a threshold, on a warm-started forest.
    #[test]
    fn parity_predict_rows_matches_reference_mean(seed in 0u64..1_000_000) {
        let train = tie_prone_data(120, 4, false, false, seed);
        let more = tie_prone_data(90, 4, true, false, seed ^ 0xFACE);
        let params = ForestParams { n_estimators: 5, ..ForestParams::default() };
        let mut forest = RandomForest::fit(&train, &params, seed);
        let mut reference = ReferenceForest::fit(&train, &params, seed);
        forest.warm_start(&more, 3);
        reference.grow(&more, 3);
        for (packed, reference) in forest.trees().iter().zip(&reference.trees) {
            assert_same_nodes(packed, reference, &format!("forest seed {seed}"));
        }
        let thresholds: Vec<(usize, f64)> = forest
            .trees()
            .iter()
            .flat_map(|t| t.to_reference_nodes())
            .filter_map(|n| match n {
                Node::Split { feature, threshold, .. } => Some((feature, threshold)),
                Node::Leaf { .. } => None,
            })
            .collect();
        prop_assert!(!thresholds.is_empty());

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A17);
        for batch in [0, 1, LANES - 1, LANES, LANES + 1, 56, 4032] {
            let mut rows = vec![0.0; batch * 4];
            for row in rows.chunks_exact_mut(4) {
                for x in row.iter_mut() {
                    *x = rng.gen_range(-4.0..8.0);
                }
                let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
                match rng.gen_range(0..4u32) {
                    0 => row[rng.gen_range(0..4usize)] = special[rng.gen_range(0..special.len())],
                    1 => {
                        let (feature, threshold) = thresholds[rng.gen_range(0..thresholds.len())];
                        row[feature] = threshold;
                    }
                    _ => {}
                }
            }
            let mut out = vec![f64::NAN; batch];
            forest.predict_rows(&rows, &mut out);
            for (r, (row, got)) in rows.chunks_exact(4).zip(&out).enumerate() {
                let want = reference.predict(row);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "batch {} row {}", batch, r);
                prop_assert_eq!(forest.predict(row).to_bits(), want.to_bits());
            }
        }
    }
}

/// The benchmark's shape: 8 400 Table-3-like rows, depth 18, bootstrap,
/// 4 of 6 features per split; predictions over 4 032 rows.
#[test]
fn parity_on_the_gauge_shaped_forest() {
    let data = table3_like(8_400, 17);
    let params =
        ForestParams { n_estimators: 3, features_per_split: Some(4), ..ForestParams::default() };
    let forest = RandomForest::fit(&data, &params, 0x5A5A);
    let reference = ReferenceForest::fit(&data, &params, 0x5A5A);
    for (k, (packed, reference)) in forest.trees().iter().zip(&reference.trees).enumerate() {
        assert_same_nodes(packed, reference, &format!("tree {k}"));
    }
    let probes = table3_like(4_032, 18);
    let mut out = vec![0.0; probes.len()];
    forest.predict_rows(probes.row_major(), &mut out);
    for ((row, _), got) in probes.iter().zip(&out) {
        assert_eq!(got.to_bits(), reference.predict(row).to_bits());
    }
}

/// A zero-width dataset fits to a single leaf; a batch over it has no
/// feature values at all and still yields one mean per row.
#[test]
fn parity_on_a_zero_width_dataset() {
    let mut data = Dataset::new(0);
    for y in [1.0, 2.0, 6.0] {
        data.push(Vec::new(), y).unwrap();
    }
    let params = ForestParams { n_estimators: 2, bootstrap: false, ..ForestParams::default() };
    let forest = RandomForest::fit(&data, &params, 1);
    let reference = ReferenceForest::fit(&data, &params, 1);
    let mut out = [0.0; LANES + 1];
    forest.predict_rows(&[], &mut out);
    assert!(out.iter().all(|p| p.to_bits() == reference.predict(&[]).to_bits()));
    assert_eq!(out[0], 3.0);
}

/// Out-of-bag error walks each tree's own rows; it must equal the
/// row-major definition (per row, the mean over the trees that did not
/// see it, in tree order).
#[test]
fn parity_of_oob_mae_with_the_row_major_definition() {
    let data = table3_like(300, 5);
    let params = ForestParams { n_estimators: 12, ..ForestParams::default() };
    let forest = RandomForest::fit(&data, &params, 9);
    let reference = ReferenceForest::fit(&data, &params, 9);
    // Re-draw each tree's bag from the seed chain to know its OOB rows.
    let mut seed = 9u64;
    let mut in_bag = Vec::new();
    for _ in 0..params.n_estimators {
        let mut rng = StdRng::seed_from_u64(seed);
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut bag = vec![false; data.len()];
        for _ in 0..data.len() {
            bag[rng.gen_range(0..data.len())] = true;
        }
        in_bag.push(bag);
    }
    let (mut total, mut count) = (0.0, 0usize);
    for (i, (row, y)) in data.iter().enumerate() {
        let (mut sum, mut trees) = (0.0, 0usize);
        for (tree, bag) in reference.trees.iter().zip(&in_bag) {
            if !bag[i] {
                sum += tree.predict(row);
                trees += 1;
            }
        }
        if trees > 0 {
            total += (sum / trees as f64 - y).abs();
            count += 1;
        }
    }
    let want = total / count as f64;
    assert_eq!(forest.oob_mae(&data).unwrap().to_bits(), want.to_bits());
}

/// Each warm start draws its trees' bags over its own dataset: a longer
/// superset, then a shorter prefix. Out-of-bag error over the original
/// rows must equal the row-major definition with each tree's bag drawn
/// over that tree's own row count, its rows past the end of the data
/// left out; without bootstrap there is no out-of-bag error at all.
#[test]
fn parity_of_oob_mae_on_warm_started_forests() {
    let data = table3_like(300, 5);
    let mut longer = data.clone();
    longer.extend_from(&table3_like(120, 6)).unwrap();
    let prefix: Vec<usize> = (0..180).collect();
    let shorter = data.select(&prefix);
    // (dataset, trees grown on it), in the order they were grown.
    let steps = [(&data, 6), (&longer, 4), (&shorter, 5)];

    let params = ForestParams { n_estimators: 6, ..ForestParams::default() };
    let mut forest = RandomForest::fit(&data, &params, 21);
    let mut reference = ReferenceForest::fit(&data, &params, 21);
    for &(more, count) in &steps[1..] {
        forest.warm_start(more, count);
        reference.grow(more, count);
    }

    let mut seed = 21u64;
    let mut in_bag = Vec::new();
    for &(grown_on, count) in &steps {
        for _ in 0..count {
            let mut rng = StdRng::seed_from_u64(seed);
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let n = grown_on.len();
            let mut bag = vec![false; n];
            for _ in 0..n {
                bag[rng.gen_range(0..n)] = true;
            }
            in_bag.push(bag);
        }
    }
    for evaluated in [&data, &longer, &shorter] {
        let (mut total, mut count) = (0.0, 0usize);
        for (i, (row, y)) in evaluated.iter().enumerate() {
            let (mut sum, mut trees) = (0.0, 0usize);
            for (tree, bag) in reference.trees.iter().zip(&in_bag) {
                if i < bag.len() && !bag[i] {
                    sum += tree.predict(row);
                    trees += 1;
                }
            }
            if trees > 0 {
                total += (sum / trees as f64 - y).abs();
                count += 1;
            }
        }
        let want = total / count as f64;
        let got = forest.oob_mae(evaluated).expect("bootstrap forests have OOB rows");
        assert_eq!(got.to_bits(), want.to_bits(), "{} rows", evaluated.len());
    }

    let params = ForestParams { bootstrap: false, ..params };
    let mut forest = RandomForest::fit(&data, &params, 21);
    forest.warm_start(&longer, 2);
    forest.warm_start(&shorter, 2);
    assert!(forest.oob_mae(&data).is_none());
    assert!(forest.oob_mae(&longer).is_none());
}

/// 70 tie-prone columns take a 7-bit column field and 1 column a 1-bit
/// one; both fit and predict as the reference does, node for node, with a
/// split on a column that sets the field's top bit.
#[test]
fn parity_on_a_wide_dataset() {
    for (width, column_bits) in [(70, 7), (1, 1)] {
        assert_eq!(Links::for_width(width).max_index(), (1 << (32 - column_bits)) - 1);
        let data = tie_prone_data(400, width, false, width > 2, 70);
        for features_per_split in [None, Some(width.div_ceil(3))] {
            let params = TreeParams { max_depth: 18, features_per_split, ..TreeParams::default() };
            let case = format!("{width} columns, {params:?}");
            let (mut rng, mut reference_rng) =
                (StdRng::seed_from_u64(0x70), StdRng::seed_from_u64(0x70));
            let packed = RegressionTree::fit(&data, &params, &mut rng);
            let reference = ReferenceTree::fit(&data, &params, &mut reference_rng);
            assert_same_nodes(&packed, &reference, &case);
            assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>(), "{case}: RNG");
            let highest = reference
                .nodes
                .iter()
                .filter_map(|n| match n {
                    Node::Split { feature, .. } => Some(*feature),
                    Node::Leaf { .. } => None,
                })
                .max();
            // Some split's column sets the field's top bit (column 64 of 70).
            let top = (1 << (column_bits - 1)).min(width - 1);
            assert!(highest >= Some(top), "{case}: highest split column {highest:?}");
        }

        let params = ForestParams { n_estimators: 4, ..ForestParams::default() };
        let forest = RandomForest::fit(&data, &params, 0x71);
        let reference = ReferenceForest::fit(&data, &params, 0x71);
        for (packed, reference) in forest.trees().iter().zip(&reference.trees) {
            assert_same_nodes(packed, reference, &format!("{width}-column forest"));
        }
        let probes = tie_prone_data(LANES * 3 + 5, width, false, false, 71);
        let mut out = vec![0.0; probes.len()];
        forest.predict_rows(probes.row_major(), &mut out);
        for ((row, _), got) in probes.iter().zip(&out) {
            assert_eq!(got.to_bits(), reference.predict(row).to_bits(), "{width} columns");
        }
    }
}
