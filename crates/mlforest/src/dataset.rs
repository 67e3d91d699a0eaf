//! Row-major regression datasets.
//!
//! A [`Dataset`] keeps its feature rows back to back in one `Vec<f64>`,
//! so [`Dataset::row_major`] hands out the batch form
//! [`RandomForest::predict_rows`](crate::RandomForest::predict_rows) takes
//! without copying it. Every value it holds is finite: [`Dataset::push`]
//! refuses NaN and ±∞, which would otherwise panic a fit's rank table or
//! poison its leaf means.

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
    /// A feature or the target was NaN or infinite.
    NonFinite {
        /// The offending feature's column, or `None` for the target.
        column: Option<usize>,
    },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::WrongArity { expected, got } => {
                write!(f, "row has {got} features but the dataset expects {expected}")
            }
            DatasetError::NonFinite { column: Some(column) } => {
                write!(f, "feature {column} is not finite")
            }
            DatasetError::NonFinite { column: None } => write!(f, "target is not finite"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// A supervised regression dataset: rows of features plus one target each.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    n_features: usize,
    /// Feature `f` of row `i` is `xs[i * n_features + f]`.
    xs: Vec<f64>,
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
    /// the dataset's width, and [`DatasetError::NonFinite`] if a feature or
    /// the target is NaN or infinite; the dataset is unchanged either way.
    pub fn push(&mut self, features: Vec<f64>, target: f64) -> Result<(), DatasetError> {
        if features.len() != self.n_features {
            return Err(DatasetError::WrongArity {
                expected: self.n_features,
                got: features.len(),
            });
        }
        if let Some(column) = features.iter().position(|x| !x.is_finite()) {
            return Err(DatasetError::NonFinite { column: Some(column) });
        }
        if !target.is_finite() {
            return Err(DatasetError::NonFinite { column: None });
        }
        self.xs.extend_from_slice(&features);
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
        assert!(i < self.len(), "row {i} of a {}-row dataset", self.len());
        &self.xs[i * self.n_features..][..self.n_features]
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
    pub fn row_major(&self) -> &[f64] {
        &self.xs
    }

    /// Iterates over `(features, target)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> {
        (0..self.len()).map(|i| (self.row(i), self.ys[i]))
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
        self.xs.extend_from_slice(&other.xs);
        self.ys.extend_from_slice(&other.ys);
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
        let (test_rows, train_rows) = order.split_at(n_test);
        (self.select(train_rows), self.select(test_rows))
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
            out.xs.extend_from_slice(self.row(i));
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
    fn push_rejects_non_finite_values() {
        let mut d = Dataset::new(2);
        let err = d.push(vec![1.0, f64::NAN], 0.0).unwrap_err();
        assert_eq!(err, DatasetError::NonFinite { column: Some(1) });
        let err = d.push(vec![f64::NEG_INFINITY, 1.0], 0.0).unwrap_err();
        assert_eq!(err, DatasetError::NonFinite { column: Some(0) });
        let err = d.push(vec![1.0, 2.0], f64::NAN).unwrap_err();
        assert_eq!(err, DatasetError::NonFinite { column: None });
        assert_eq!(err.to_string(), "target is not finite");
        assert!(d.is_empty() && d.row_major().is_empty());
        d.push(vec![-0.0, f64::MIN_POSITIVE], f64::MAX).unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn rows_of_a_zero_width_dataset_are_empty() {
        let mut d = Dataset::new(0);
        d.push(Vec::new(), 1.0).unwrap();
        d.push(Vec::new(), 2.0).unwrap();
        assert_eq!(
            d.iter().map(|(row, y)| (row.len(), y)).collect::<Vec<_>>(),
            [(0, 1.0), (0, 2.0)]
        );
        assert!(d.row_major().is_empty());
    }

    #[test]
    #[should_panic(expected = "row 2 of a 2-row dataset")]
    fn row_checks_bounds_at_zero_width() {
        let mut d = Dataset::new(0);
        d.push(Vec::new(), 1.0).unwrap();
        d.push(Vec::new(), 2.0).unwrap();
        let _ = d.row(2);
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
