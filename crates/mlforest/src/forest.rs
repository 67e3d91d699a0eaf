//! Random Forest regression: bagging + feature subsampling + warm start.
//!
//! The fit is parallelized with `rayon`: bagging is embarrassingly
//! parallel, and determinism is preserved by deriving one RNG seed per
//! tree from the forest seed *before* fanning out, so the ensemble is
//! bit-identical at any thread count (see
//! `deterministic_across_thread_counts`). The trees of one fit or warm
//! start share one rank table of its dataset (see the [`tree`](crate::tree)
//! module's "Fit" section), built before the fan-out and dropped after it.
//!
//! # Inference: one pass over the forest per batch
//!
//! [`RandomForest::predict_rows`] is the one inference path. It is
//! tree-major: the outer loop takes the trees in ensemble order and the
//! inner loop sends every row block through that tree (see the
//! [`tree`](crate::tree) module for the walk), so a batch reads each
//! tree's packed nodes once while they are cache-resident, instead of
//! once per row. Each row's accumulator starts from the identity
//! `Iterator::sum` starts from, receives tree 0, 1, 2, … in that order and
//! is divided once — the sequence of float operations a per-row
//! `trees.map(predict).sum() / n` performs, so the bits are the same; only
//! the interleaving between rows differs. The walk is single-threaded: a
//! 56-row gauge costs less than a fork/join.
//!
//! # Bags: replayed from seeds, not stored
//!
//! A fitted forest keeps its trees and, per tree, only the `(seed, rows)`
//! it was grown from: the RNG seed and the length of its training set.
//! Tree `k`'s bootstrap bag is the first `rows` draws of
//! `gen_range(0..rows)` from `StdRng::seed_from_u64(seed)` (`bootstrap_draw`),
//! so [`RandomForest::oob_mae`] redraws each bag to learn which rows the
//! tree never saw, instead of keeping an out-of-bag row list per tree that
//! would grow the model by trees × rows under warm starts.

use crate::dataset::Dataset;
use crate::tree::{Ranks, RegressionTree, TreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Hyper-parameters of a [`RandomForest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ForestParams {
    /// Number of trees. The paper settles on 100 estimators (§5.1).
    pub n_estimators: usize,
    /// Per-tree CART parameters.
    pub tree: TreeParams,
    /// Features sampled per split; `None` = `max(1, n_features / 3)`,
    /// the common regression default.
    pub features_per_split: Option<usize>,
    /// Draw bootstrap samples (with replacement) per tree.
    pub bootstrap: bool,
}

impl Default for ForestParams {
    fn default() -> Self {
        Self {
            n_estimators: 100,
            tree: TreeParams { max_depth: 18, min_samples_leaf: 1, ..TreeParams::default() },
            features_per_split: None,
            bootstrap: true,
        }
    }
}

/// A fitted Random Forest regressor.
///
/// The ensemble mean of bootstrapped CART trees; supports
/// [`warm_start`](RandomForest::warm_start) retraining, which the paper uses
/// when the maximum cluster size grows (§3.3.2) or prediction error drifts
/// (§3.3.4).
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    /// Per tree, the seed and training-set length its bag replays from.
    bags: Vec<(u64, usize)>,
    params: ForestParams,
    n_features: usize,
    next_seed: u64,
}

impl RandomForest {
    /// Fits a forest of [`ForestParams::n_estimators`] trees on `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `n_estimators` is zero.
    pub fn fit(data: &Dataset, params: &ForestParams, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
        assert!(params.n_estimators > 0, "a forest needs at least one tree");
        let mut forest = Self {
            trees: Vec::new(),
            bags: Vec::new(),
            params: params.clone(),
            n_features: data.n_features(),
            next_seed: seed,
        };
        forest.grow(data, params.n_estimators);
        forest
    }

    /// Adds `extra` trees trained on `data`, keeping the existing ensemble
    /// — the paper's warm-start retraining path.
    ///
    /// # Panics
    ///
    /// Panics if `data`'s width differs from the original training data.
    pub fn warm_start(&mut self, data: &Dataset, extra: usize) {
        assert_eq!(data.n_features(), self.n_features, "feature arity changed across warm start");
        self.grow(data, extra);
    }

    fn grow(&mut self, data: &Dataset, count: usize) {
        let tree_params = TreeParams {
            features_per_split: self
                .params
                .features_per_split
                .or(Some((data.n_features() / 3).max(1))),
            ..self.params.tree.clone()
        };
        // Pre-derive every tree's seed from the forest seed chain so the
        // per-tree work can fan out to any number of threads while the
        // fitted ensemble stays bit-identical to a sequential build.
        let seeds: Vec<u64> = (0..count)
            .map(|_| {
                let seed = self.next_seed;
                self.next_seed = self.next_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                seed
            })
            .collect();
        let bootstrap = self.params.bootstrap;
        let n = data.len();
        self.bags.extend(seeds.iter().map(|&seed| (seed, n)));
        let ranks = Ranks::new(data);
        let fitted: Vec<RegressionTree> = seeds
            .into_par_iter()
            .map(|seed| {
                let (mut rng, sample) = if bootstrap {
                    bootstrap_draw(seed, n)
                } else {
                    (StdRng::seed_from_u64(seed), (0..n).collect())
                };
                RegressionTree::fit_sample(data, &ranks, &sample, &tree_params, &mut rng)
            })
            .collect();
        self.trees.extend(fitted);
    }

    /// Ensemble-mean prediction for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the training feature count.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut out = [0.0];
        self.predict_rows(row, &mut out);
        out[0]
    }

    /// Ensemble-mean predictions for a batch: `rows` holds `out.len()`
    /// feature rows back to back (row-major), and `out[r]` receives row
    /// `r`'s prediction, bit-identical to [`predict`](Self::predict) on
    /// that row.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not `out.len()` times the training
    /// feature count.
    pub fn predict_rows(&self, rows: &[f64], out: &mut [f64]) {
        assert_eq!(rows.len(), out.len() * self.n_features, "feature arity mismatch");
        // Whatever `Iterator::sum` starts from (-0.0 on current Rust, +0.0
        // before), so an ensemble of -0.0 leaves keeps the sign it had.
        out.fill(std::iter::empty::<f64>().sum());
        for tree in &self.trees {
            tree.for_each_leaf(rows, out.len(), |r, value| out[r] += value);
        }
        let n_trees = self.trees.len() as f64;
        for sum in out {
            *sum /= n_trees;
        }
    }

    /// Number of trees currently in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of features per row the forest was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The fitted trees, in ensemble order.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Out-of-bag mean absolute error against `data` (the training set the
    /// forest was fitted on). Returns `None` when bootstrap was disabled or
    /// no row was ever out-of-bag.
    pub fn oob_mae(&self, data: &Dataset) -> Option<f64> {
        if !self.params.bootstrap {
            return None;
        }
        // Tree-major like `predict_rows`: each tree walks its own
        // out-of-bag rows, and every row still sums its trees in order.
        let mut sums = vec![0.0; data.len()];
        let mut trees = vec![0usize; data.len()];
        let (mut in_bag, mut oob, mut rows) = (Vec::new(), Vec::new(), Vec::new());
        for (tree, &(seed, n)) in self.trees.iter().zip(&self.bags) {
            in_bag.clear();
            in_bag.resize(n, false);
            for i in bootstrap_draw(seed, n).1 {
                in_bag[i] = true;
            }
            // A warm-started tree may have been fitted on a longer dataset;
            // its rows past the end of `data` have no target here.
            oob.clear();
            oob.extend((0..n.min(data.len())).filter(|&i| !in_bag[i]));
            rows.clear();
            rows.extend(oob.iter().flat_map(|&i| data.row(i)));
            tree.for_each_leaf(&rows, oob.len(), |k, value| {
                sums[oob[k]] += value;
                trees[oob[k]] += 1;
            });
        }
        let mut total = 0.0;
        let mut count = 0usize;
        for (i, (&sum, &trees)) in sums.iter().zip(&trees).enumerate() {
            if trees > 0 {
                total += (sum / trees as f64 - data.target(i)).abs();
                count += 1;
            }
        }
        (count > 0).then(|| total / count as f64)
    }
}

/// The bootstrap bag of the tree seeded `seed` over `n` rows: `n` row
/// indices drawn with replacement, and the RNG positioned after the draw,
/// where the tree's fit continues from.
fn bootstrap_draw(seed: u64, n: usize) -> (StdRng, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sample = (0..n).map(|_| rng.gen_range(0..n)).collect();
    (rng, sample)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn friedman_like(n: usize, seed: u64) -> Dataset {
        // A smooth nonlinear target over 4 features.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(4);
        for _ in 0..n {
            let x: Vec<f64> = (0..4).map(|_| rng.gen::<f64>()).collect();
            let y = 10.0 * (std::f64::consts::PI * x[0] * x[1]).sin()
                + 20.0 * (x[2] - 0.5).powi(2)
                + 10.0 * x[3];
            d.push(x, y).unwrap();
        }
        d
    }

    #[test]
    fn forest_beats_single_tree_on_noise() {
        let train = friedman_like(400, 1);
        let test = friedman_like(100, 2);
        let params = ForestParams { n_estimators: 40, ..ForestParams::default() };
        let forest = RandomForest::fit(&train, &params, 3);
        let single = RandomForest::fit(
            &train,
            &ForestParams { n_estimators: 1, bootstrap: false, ..params },
            3,
        );
        let err = |m: &RandomForest| {
            let preds: Vec<f64> = test.iter().map(|(x, _)| m.predict(x)).collect();
            metrics::mse(&preds, test.targets())
        };
        assert!(err(&forest) < err(&single), "ensemble should generalize better");
    }

    #[test]
    fn high_r2_on_smooth_function() {
        let train = friedman_like(600, 4);
        let test = friedman_like(150, 5);
        let forest = RandomForest::fit(&train, &ForestParams::default(), 6);
        let preds: Vec<f64> = test.iter().map(|(x, _)| forest.predict(x)).collect();
        let r2 = metrics::r2(&preds, test.targets());
        assert!(r2 > 0.85, "R² = {r2}");
    }

    #[test]
    fn warm_start_extends_ensemble() {
        let train = friedman_like(200, 7);
        let mut forest = RandomForest::fit(
            &train,
            &ForestParams { n_estimators: 10, ..ForestParams::default() },
            8,
        );
        assert_eq!(forest.n_trees(), 10);
        forest.warm_start(&train, 15);
        assert_eq!(forest.n_trees(), 25);
    }

    #[test]
    fn warm_start_on_new_data_improves_new_regime() {
        // Regime A: y = x; regime B (new cluster sizes): y = x + 50.
        let mut a = Dataset::new(2);
        let mut b = Dataset::new(2);
        for i in 0..150 {
            let x = f64::from(i) / 10.0;
            a.push(vec![x, 0.0], x).unwrap();
            b.push(vec![x, 1.0], x + 50.0).unwrap();
        }
        let mut forest =
            RandomForest::fit(&a, &ForestParams { n_estimators: 30, ..ForestParams::default() }, 9);
        let before = (forest.predict(&[5.0, 1.0]) - 55.0).abs();
        let mut merged = a.clone();
        merged.extend_from(&b).unwrap();
        forest.warm_start(&merged, 60);
        let after = (forest.predict(&[5.0, 1.0]) - 55.0).abs();
        assert!(after < before, "warm start should adapt: {after} vs {before}");
    }

    #[test]
    fn oob_error_available_with_bootstrap() {
        let train = friedman_like(300, 10);
        let forest = RandomForest::fit(
            &train,
            &ForestParams { n_estimators: 25, ..ForestParams::default() },
            11,
        );
        let mae = forest.oob_mae(&train).expect("bootstrap forests have OOB rows");
        assert!(mae > 0.0 && mae < 5.0, "OOB MAE = {mae}");
    }

    #[test]
    fn oob_error_absent_without_bootstrap() {
        let train = friedman_like(50, 12);
        let forest = RandomForest::fit(
            &train,
            &ForestParams { n_estimators: 3, bootstrap: false, ..ForestParams::default() },
            13,
        );
        assert!(forest.oob_mae(&train).is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let train = friedman_like(100, 14);
        let p = ForestParams { n_estimators: 5, ..ForestParams::default() };
        let a = RandomForest::fit(&train, &p, 99);
        let b = RandomForest::fit(&train, &p, 99);
        assert_eq!(a.predict(&[0.3, 0.4, 0.5, 0.6]), b.predict(&[0.3, 0.4, 0.5, 0.6]));
    }

    #[test]
    #[should_panic]
    fn zero_estimators_panics() {
        let train = friedman_like(10, 15);
        let _ = RandomForest::fit(
            &train,
            &ForestParams { n_estimators: 0, ..ForestParams::default() },
            0,
        );
    }

    /// A Table-3-shaped dataset (6 features, bandwidth-scale targets) for
    /// the parallel-fit regression tests.
    fn table3_like(rows: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(6);
        for _ in 0..rows {
            let x: Vec<f64> = (0..6).map(|_| rng.gen::<f64>()).collect();
            // Snapshot BW dominates, host metrics and distance modulate.
            let y = 1800.0 * x[0] / (1.0 + 2.0 * x[5])
                + 120.0 * x[1]
                + 60.0 * (x[2] - 0.5)
                + 30.0 * x[3] * x[4];
            d.push(x, y).unwrap();
        }
        d
    }

    fn fit_with_threads(data: &Dataset, threads: usize) -> RandomForest {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            RandomForest::fit(
                data,
                &ForestParams { n_estimators: 24, ..ForestParams::default() },
                0xF0E1,
            )
        })
    }

    /// Regression pin: the rayon-parallel fit+predict path reproduces a
    /// fixed golden prediction for a seeded dataset, bit for bit. If this
    /// moves, forest determinism broke (seed chain, RNG, or reduction
    /// order).
    #[test]
    fn golden_prediction_regression() {
        let data = table3_like(400, 99);
        let forest = RandomForest::fit(
            &data,
            &ForestParams { n_estimators: 24, ..ForestParams::default() },
            0xF0E1,
        );
        let probe = [0.5, 0.25, 0.75, 0.1, 0.9, 0.33];
        let golden = f64::from_bits(GOLDEN_PREDICTION_BITS);
        assert_eq!(
            forest.predict(&probe).to_bits(),
            golden.to_bits(),
            "prediction {} drifted from golden {}",
            forest.predict(&probe),
            golden
        );
    }

    /// Bit pattern of the expected `golden_prediction_regression` output
    /// (582.4684602783736), produced by this crate's seeded pipeline.
    const GOLDEN_PREDICTION_BITS: u64 = 4648334662578092216;

    /// The parallel fit is bit-identical across thread counts, including
    /// the sequential (1-thread) path.
    #[test]
    fn deterministic_across_thread_counts() {
        let data = table3_like(300, 7);
        let probes = table3_like(40, 8);
        let single = fit_with_threads(&data, 1);
        for threads in [2, 4, 8] {
            let multi = fit_with_threads(&data, threads);
            for (row, _) in probes.iter() {
                assert_eq!(
                    single.predict(row).to_bits(),
                    multi.predict(row).to_bits(),
                    "{threads}-thread fit diverged from sequential"
                );
            }
            let batch_single: Vec<f64> = probes.iter().map(|(r, _)| single.predict(r)).collect();
            let rows = probes.row_major();
            let mut batch_multi = vec![0.0; probes.len()];
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| multi.predict_rows(rows, &mut batch_multi));
            assert_eq!(batch_single, batch_multi);
        }
    }

    /// On multi-core hosts the parallel fit must beat the 1-thread fit on
    /// a Table-3-sized training set (the outputs are asserted identical
    /// either way; the speedup assertion is skipped on single-core CI).
    /// Each arm takes its best of two runs so a transient scheduler burp
    /// cannot flip the comparison on a loaded machine.
    #[test]
    fn parallel_fit_is_faster_on_multicore() {
        let data = table3_like(1500, 21);
        let time_fit = |threads: usize| {
            let start = std::time::Instant::now();
            let forest = fit_with_threads(&data, threads);
            (start.elapsed(), forest)
        };
        // Warm up allocators/caches so the comparison is fair.
        let _ = fit_with_threads(&data, 1);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (elapsed_single, single) = time_fit(1);
        let (elapsed_multi, multi) = time_fit(cores.min(8));
        let probe = [0.4, 0.6, 0.2, 0.8, 0.5, 0.1];
        assert_eq!(single.predict(&probe).to_bits(), multi.predict(&probe).to_bits());
        if cores > 1 {
            let best_single = elapsed_single.min(time_fit(1).0);
            let best_multi = elapsed_multi.min(time_fit(cores.min(8)).0);
            assert!(
                best_multi < best_single,
                "parallel fit {best_multi:?} should beat single-thread {best_single:?} \
                 on {cores} cores"
            );
        }
    }
}
