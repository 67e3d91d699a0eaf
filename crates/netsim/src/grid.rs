//! Square matrices keyed by data-center pairs.
//!
//! WANify represents both predicted bandwidth and optimized connection
//! counts as N×N matrices where cell `(i, j)` describes the directed link
//! from DC `i` to DC `j` (paper §2.3). [`Grid`] is the shared container;
//! [`BwMatrix`] and [`ConnMatrix`] are the two aliases used throughout.

use crate::topology::DcId;

/// A dense square matrix over data-center pairs.
///
/// The diagonal describes intra-DC values which, per the paper's system
/// model (§2.1), are never WAN-limited; most consumers use the
/// `*_off_diag` helpers that skip it.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid<T> {
    n: usize,
    data: Vec<T>,
}

/// Directed bandwidth matrix in Mbps.
pub type BwMatrix = Grid<f64>;
/// Directed parallel-connection-count matrix.
pub type ConnMatrix = Grid<u32>;

impl<T: Copy + Default> Grid<T> {
    /// Creates an `n × n` grid filled with `T::default()`.
    ///
    /// `n == 0` yields the empty grid: every aggregate helper returns its
    /// identity and `iter_pairs` is empty.
    pub fn new(n: usize) -> Self {
        Self { n, data: vec![T::default(); n * n] }
    }

    /// Creates an `n × n` grid filled with `fill`.
    pub fn filled(n: usize, fill: T) -> Self {
        Self { n, data: vec![fill; n * n] }
    }

    /// Builds a grid from a closure over `(row, col)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut g = Self::new(n);
        for i in 0..n {
            for j in 0..n {
                g.set(i, j, f(i, j));
            }
        }
        g
    }

    /// Builds a symmetric grid: `diagonal` on the diagonal and `f(i, j)`,
    /// evaluated once per unordered pair `i < j`, in both `(i, j)` and
    /// `(j, i)`.
    pub fn symmetric(n: usize, diagonal: T, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut g = Self::filled(n, diagonal);
        for i in 0..n {
            for j in i + 1..n {
                let v = f(i, j);
                g.set(i, j, v);
                g.set(j, i, v);
            }
        }
        g
    }

    /// Builds a grid from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a perfect square matching `n * n`.
    pub fn from_rows(n: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), n * n, "row-major data must contain n*n cells");
        Self { n, data }
    }

    /// Number of rows (== columns == data centers).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the grid has zero rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Value at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.n && j < self.n, "index ({i},{j}) out of bounds for {}", self.n);
        self.data[i * self.n + j]
    }

    /// Sets the value at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.n && j < self.n, "index ({i},{j}) out of bounds for {}", self.n);
        self.data[i * self.n + j] = v;
    }

    /// Value for a directed DC pair.
    pub fn at(&self, src: DcId, dst: DcId) -> T {
        self.get(src.0, dst.0)
    }

    /// Sets the value for a directed DC pair.
    pub fn put(&mut self, src: DcId, dst: DcId, v: T) {
        self.set(src.0, dst.0, v);
    }

    /// Iterates over all directed off-diagonal pairs `(i, j, value)`.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        let n = self.n;
        (0..n)
            .flat_map(move |i| (0..n).filter(move |&j| j != i).map(move |j| (i, j, self.get(i, j))))
    }

    /// Iterates mutably over all directed off-diagonal pairs
    /// `(i, j, &mut value)`, in the same row-major order as
    /// [`Grid::iter_pairs`] — consumers that draw randomness per cell
    /// (the OU dynamics) rely on that order being identical.
    pub fn iter_pairs_mut(&mut self) -> impl Iterator<Item = (usize, usize, &mut T)> {
        let n = self.n;
        self.data.iter_mut().enumerate().filter_map(move |(idx, v)| {
            let (i, j) = (idx / n, idx % n);
            (i != j).then_some((i, j, v))
        })
    }

    /// Maps every cell through `f`, producing a new grid.
    pub fn map<U: Copy + Default>(&self, mut f: impl FnMut(T) -> U) -> Grid<U> {
        Grid::from_fn(self.n, |i, j| f(self.get(i, j)))
    }

    /// Row `i` as a vector.
    pub fn row(&self, i: usize) -> Vec<T> {
        (0..self.n).map(|j| self.get(i, j)).collect()
    }

    /// Row-major view of the underlying data.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

impl Grid<f64> {
    /// Minimum off-diagonal value — the paper's "minimum BW of the cluster".
    ///
    /// Returns `f64::INFINITY` for a 1×1 grid (no off-diagonal cells).
    pub fn min_off_diag(&self) -> f64 {
        self.iter_pairs().map(|(_, _, v)| v).fold(f64::INFINITY, f64::min)
    }

    /// Maximum off-diagonal value — the strongest WAN link.
    pub fn max_off_diag(&self) -> f64 {
        self.iter_pairs().map(|(_, _, v)| v).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean of the off-diagonal values.
    pub fn mean_off_diag(&self) -> f64 {
        let n = self.n;
        if n < 2 {
            return 0.0;
        }
        let sum: f64 = self.iter_pairs().map(|(_, _, v)| v).sum();
        sum / (n * (n - 1)) as f64
    }

    /// Mean of the off-diagonal values of row `i` — WANify's throttling
    /// threshold `T` for a source DC (paper §3.2.2).
    pub fn row_mean_off_diag(&self, i: usize) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let sum: f64 = (0..self.n).filter(|&j| j != i).map(|j| self.get(i, j)).sum();
        sum / (self.n - 1) as f64
    }

    /// Count of directed off-diagonal pairs whose absolute difference from
    /// `other` exceeds `threshold` — the paper's "significant difference"
    /// metric (>100 Mbps; Table 1, Fig. 11).
    ///
    /// # Panics
    ///
    /// Panics if the grids have different sizes.
    pub fn count_significant_diffs(&self, other: &Grid<f64>, threshold: f64) -> usize {
        assert_eq!(self.n, other.n, "grids must have matching dimensions");
        self.iter_pairs().filter(|&(i, j, v)| (v - other.get(i, j)).abs() > threshold).count()
    }

    /// Renders the grid as an aligned text table with row/column labels.
    pub fn render(&self, labels: &[String]) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:>12}", ""));
        for j in 0..self.n {
            let label = labels.get(j).map(String::as_str).unwrap_or("?");
            out.push_str(&format!("{label:>12}"));
        }
        out.push('\n');
        for i in 0..self.n {
            let label = labels.get(i).map(String::as_str).unwrap_or("?");
            out.push_str(&format!("{label:>12}"));
            for j in 0..self.n {
                out.push_str(&format!("{:>12.1}", self.get(i, j)));
            }
            out.push('\n');
        }
        out
    }
}

impl Grid<u32> {
    /// Total number of off-diagonal connections in the matrix.
    pub fn total_off_diag(&self) -> u64 {
        self.iter_pairs().map(|(_, _, v)| u64::from(v)).sum()
    }

    /// Converts connection counts to `f64` for arithmetic with bandwidth.
    pub fn to_f64(&self) -> Grid<f64> {
        self.map(f64::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BwMatrix {
        BwMatrix::from_rows(3, vec![0.0, 400.0, 120.0, 380.0, 0.0, 130.0, 110.0, 125.0, 0.0])
    }

    #[test]
    fn symmetric_evaluates_each_unordered_pair_once() {
        let mut calls = Vec::new();
        let g = Grid::symmetric(3, -1.0, |i, j| {
            calls.push((i, j));
            (10 * i + j) as f64
        });
        assert_eq!(calls, [(0, 1), (0, 2), (1, 2)]);
        assert_eq!(
            g,
            BwMatrix::from_rows(3, vec![-1.0, 1.0, 2.0, 1.0, -1.0, 12.0, 2.0, 12.0, -1.0])
        );
    }

    #[test]
    fn min_max_off_diag_skip_diagonal() {
        let g = sample();
        assert_eq!(g.min_off_diag(), 110.0);
        assert_eq!(g.max_off_diag(), 400.0);
    }

    #[test]
    fn mean_off_diag() {
        let g = sample();
        let expected = (400.0 + 120.0 + 380.0 + 130.0 + 110.0 + 125.0) / 6.0;
        assert!((g.mean_off_diag() - expected).abs() < 1e-9);
    }

    #[test]
    fn row_mean_off_diag_is_throttle_threshold() {
        let g = sample();
        assert!((g.row_mean_off_diag(0) - 260.0).abs() < 1e-9);
    }

    #[test]
    fn significant_diff_counts() {
        let a = sample();
        let mut b = sample();
        b.set(0, 1, 100.0); // |400-100| = 300 > 100
        b.set(2, 0, 170.0); // |110-170| = 60  < 100
        assert_eq!(a.count_significant_diffs(&b, 100.0), 1);
    }

    #[test]
    fn iter_pairs_visits_all_off_diagonal() {
        let g = sample();
        assert_eq!(g.iter_pairs().count(), 6);
    }

    #[test]
    fn iter_pairs_mut_visits_the_same_cells_in_the_same_order() {
        let mut g = sample();
        let order: Vec<(usize, usize)> = g.iter_pairs().map(|(i, j, _)| (i, j)).collect();
        let mut_order: Vec<(usize, usize)> = g.iter_pairs_mut().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(order, mut_order);
        for (_, _, v) in g.iter_pairs_mut() {
            *v += 1.0;
        }
        assert_eq!(g.get(0, 1), 401.0);
        assert_eq!(g.get(0, 0), 0.0, "the diagonal must be skipped");
    }

    #[test]
    fn conn_matrix_totals() {
        let c = ConnMatrix::from_rows(2, vec![1, 8, 3, 1]);
        assert_eq!(c.total_off_diag(), 11);
        assert_eq!(c.to_f64().get(0, 1), 8.0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_get_panics() {
        sample().get(3, 0);
    }

    #[test]
    #[should_panic]
    fn mismatched_rows_panics() {
        let _ = BwMatrix::from_rows(2, vec![0.0; 3]);
    }

    #[test]
    fn empty_grid_is_well_behaved() {
        let g = BwMatrix::new(0);
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.iter_pairs().count(), 0);
        assert_eq!(g.min_off_diag(), f64::INFINITY);
        assert_eq!(g.max_off_diag(), f64::NEG_INFINITY);
        assert_eq!(g.mean_off_diag(), 0.0);
        assert_eq!(g.count_significant_diffs(&BwMatrix::filled(0, 1.0), 100.0), 0);
    }

    #[test]
    fn render_contains_labels() {
        let g = sample();
        let labels = vec!["A".to_string(), "B".to_string(), "C".to_string()];
        let s = g.render(&labels);
        assert!(s.contains('A') && s.contains("400.0"));
    }
}
