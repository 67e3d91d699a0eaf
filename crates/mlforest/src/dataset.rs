//! Row-major regression datasets.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Errors raised when assembling a [`Dataset`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// A row's feature count did not match the dataset's width.
    WrongArity {
        /// Expected number of features.
        expected: usize,
        /// Number of features in the offending row.
        got: usize,
    },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::WrongArity { expected, got } => {
                write!(f, "row has {got} features but the dataset expects {expected}")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

/// A supervised regression dataset: rows of features plus one target each.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    n_features: usize,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset expecting `n_features` features per row.
    pub fn new(n_features: usize) -> Self {
        Self { n_features, xs: Vec::new(), ys: Vec::new() }
    }

    /// Appends a sample.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::WrongArity`] if `features.len()` differs from
    /// the dataset's width.
    pub fn push(&mut self, features: Vec<f64>, target: f64) -> Result<(), DatasetError> {
        if features.len() != self.n_features {
            return Err(DatasetError::WrongArity {
                expected: self.n_features,
                got: features.len(),
            });
        }
        self.xs.push(features);
        self.ys.push(target);
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// Number of features per row.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Feature row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.xs[i]
    }

    /// Target of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn target(&self, i: usize) -> f64 {
        self.ys[i]
    }

    /// All targets.
    pub fn targets(&self) -> &[f64] {
        &self.ys
    }

    /// Every feature row back to back, the batch form
    /// [`RandomForest::predict_rows`](crate::RandomForest::predict_rows)
    /// takes.
    pub fn row_major(&self) -> Vec<f64> {
        self.xs.iter().flatten().copied().collect()
    }

    /// Iterates over `(features, target)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> {
        self.xs.iter().map(Vec::as_slice).zip(self.ys.iter().copied())
    }

    /// Merges another dataset of identical width into this one.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::WrongArity`] on width mismatch.
    pub fn extend_from(&mut self, other: &Dataset) -> Result<(), DatasetError> {
        if other.n_features != self.n_features {
            return Err(DatasetError::WrongArity {
                expected: self.n_features,
                got: other.n_features,
            });
        }
        self.xs.extend(other.xs.iter().cloned());
        self.ys.extend(other.ys.iter().copied());
        Ok(())
    }

    /// Splits into `(train, test)` with `test_fraction` of samples held out,
    /// shuffled by `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `test_fraction` is outside `[0, 1)`.
    pub fn train_test_split(&self, test_fraction: f64, rng: &mut StdRng) -> (Dataset, Dataset) {
        assert!((0.0..1.0).contains(&test_fraction), "test fraction must be in [0, 1)");
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        let n_test = (self.len() as f64 * test_fraction).round() as usize;
        let mut train = Dataset::new(self.n_features);
        let mut test = Dataset::new(self.n_features);
        for (k, &i) in order.iter().enumerate() {
            let dst = if k < n_test { &mut test } else { &mut train };
            dst.xs.push(self.xs[i].clone());
            dst.ys.push(self.ys[i]);
        }
        (train, test)
    }

    /// A new dataset containing the given row indices (with repetition),
    /// used for bootstrap sampling.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.n_features);
        for &i in indices {
            out.xs.push(self.xs[i].clone());
            out.ys.push(self.ys[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn toy(n: usize) -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..n {
            let x = i as f64;
            d.push(vec![x, -x], 2.0 * x).unwrap();
        }
        d
    }

    #[test]
    fn push_checks_arity() {
        let mut d = Dataset::new(3);
        let err = d.push(vec![1.0], 0.0).unwrap_err();
        assert_eq!(err, DatasetError::WrongArity { expected: 3, got: 1 });
        assert!(d.is_empty());
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = toy(100);
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = d.train_test_split(0.2, &mut rng);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
        assert_eq!(train.n_features(), 2);
    }

    #[test]
    fn split_zero_fraction_keeps_everything_in_train() {
        let d = toy(10);
        let mut rng = StdRng::seed_from_u64(2);
        let (train, test) = d.train_test_split(0.0, &mut rng);
        assert_eq!(train.len(), 10);
        assert!(test.is_empty());
    }

    #[test]
    fn select_allows_repetition() {
        let d = toy(3);
        let b = d.select(&[0, 0, 2]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.target(0), 0.0);
        assert_eq!(b.target(2), 4.0);
    }

    #[test]
    fn extend_from_requires_same_width() {
        let mut a = toy(2);
        let b = Dataset::new(5);
        assert!(a.extend_from(&b).is_err());
        let c = toy(4);
        a.extend_from(&c).unwrap();
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn row_major_concatenates_rows() {
        assert_eq!(toy(2).row_major(), vec![0.0, -0.0, 1.0, -1.0]);
    }

    #[test]
    fn iter_yields_pairs() {
        let d = toy(3);
        let collected: Vec<f64> = d.iter().map(|(_, y)| y).collect();
        assert_eq!(collected, vec![0.0, 2.0, 4.0]);
    }
}
