//! HDFS-like block storage layout across data centers.
//!
//! The paper stores input on S3-mounted HDFS with 64 MB blocks (§5.1) and
//! controls skew by moving blocks between regions (§5.8.1). WANify reads
//! the resulting *skewness weights* from the storage layer (§3.3.1).

use std::sync::Arc;

/// Distribution of a job's input blocks across data centers.
///
/// The block counts are shared: cloning a layout bumps one reference
/// count, and [`DataLayout::move_blocks`] copies the counts on write
/// (`Arc::make_mut`) when another layout still shares them, so an edit
/// never shows through a clone.
#[derive(Debug, Clone, PartialEq)]
pub struct DataLayout {
    /// Block size in megabytes (the paper uses 64 MB).
    pub block_size_mb: f64,
    /// Number of blocks stored at each DC.
    pub blocks_per_dc: Arc<[u64]>,
}

impl DataLayout {
    /// Spreads `total_gb` uniformly over `n_dcs` data centers.
    ///
    /// # Panics
    ///
    /// Panics if `n_dcs == 0` or `total_gb < 0`.
    pub fn uniform(n_dcs: usize, total_gb: f64) -> Self {
        assert!(n_dcs > 0, "layout needs at least one DC");
        assert!(total_gb >= 0.0, "input size must be non-negative");
        let block_size_mb = 64.0;
        let total_blocks = (total_gb * 1024.0 / block_size_mb).round() as u64;
        let base = total_blocks / n_dcs as u64;
        let rem = (total_blocks % n_dcs as u64) as usize;
        let blocks_per_dc = (0..n_dcs).map(|i| base + u64::from(i < rem)).collect();
        Self { block_size_mb, blocks_per_dc }
    }

    /// Builds a layout from explicit per-DC gigabytes.
    ///
    /// # Panics
    ///
    /// Panics if `gb_per_dc` is empty or contains negatives.
    pub fn from_gb(gb_per_dc: &[f64]) -> Self {
        assert!(!gb_per_dc.is_empty(), "layout needs at least one DC");
        assert!(gb_per_dc.iter().all(|&g| g >= 0.0), "sizes must be non-negative");
        let block_size_mb = 64.0;
        let blocks_per_dc =
            gb_per_dc.iter().map(|g| (g * 1024.0 / block_size_mb).round() as u64).collect();
        Self { block_size_mb, blocks_per_dc }
    }

    /// Number of data centers in the layout.
    pub fn len(&self) -> usize {
        self.blocks_per_dc.len()
    }

    /// True when the layout covers no DCs (never constructible).
    pub fn is_empty(&self) -> bool {
        self.blocks_per_dc.is_empty()
    }

    /// Gigabytes stored at DC `i`.
    pub fn gb_at(&self, i: usize) -> f64 {
        self.blocks_per_dc[i] as f64 * self.block_size_mb / 1024.0
    }

    /// Total input size in gigabytes.
    pub fn total_gb(&self) -> f64 {
        (0..self.len()).map(|i| self.gb_at(i)).sum()
    }

    /// Per-DC input fractions (sum to 1) — WANify's skewness weights `ws`
    /// (paper §3.3.1). Uniform when the layout is empty.
    pub fn skew_weights(&self) -> Vec<f64> {
        let total: u64 = self.blocks_per_dc.iter().sum();
        if total == 0 {
            return vec![1.0 / self.len() as f64; self.len()];
        }
        self.blocks_per_dc.iter().map(|&b| b as f64 / total as f64).collect()
    }

    /// Moves `blocks` from DC `from` to DC `to` (as §5.8.1 does to create
    /// skew), clamping at availability. Copies the block counts first if
    /// another layout shares them.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn move_blocks(&mut self, from: usize, to: usize, blocks: u64) {
        assert!(from < self.len() && to < self.len(), "DC index out of bounds");
        let moved = blocks.min(self.blocks_per_dc[from]);
        let counts = Arc::make_mut(&mut self.blocks_per_dc);
        counts[from] -= moved;
        counts[to] += moved;
    }

    /// Gini-style skewness indicator: 0 for perfectly uniform layouts,
    /// approaching 1 as all data concentrates in one DC.
    pub fn skewness(&self) -> f64 {
        let w = self.skew_weights();
        let n = w.len() as f64;
        if n <= 1.0 {
            return 0.0;
        }
        let max = w.iter().copied().fold(0.0, f64::max);
        (max - 1.0 / n) / (1.0 - 1.0 / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_layout_splits_evenly() {
        let l = DataLayout::uniform(8, 100.0);
        assert_eq!(l.len(), 8);
        assert!((l.total_gb() - 100.0).abs() < 0.1);
        let w = l.skew_weights();
        for &x in &w {
            assert!((x - 0.125).abs() < 0.01);
        }
        assert!(l.skewness() < 0.01);
    }

    #[test]
    fn from_gb_roundtrips() {
        let l = DataLayout::from_gb(&[10.0, 0.0, 30.0]);
        assert!((l.gb_at(0) - 10.0).abs() < 0.1);
        assert_eq!(l.gb_at(1), 0.0);
        assert!((l.total_gb() - 40.0).abs() < 0.1);
    }

    #[test]
    fn move_blocks_creates_skew() {
        let mut l = DataLayout::uniform(4, 40.0);
        let before = l.skewness();
        let half = l.blocks_per_dc[1] / 2 + l.blocks_per_dc[2];
        l.move_blocks(1, 0, half);
        l.move_blocks(2, 0, half);
        assert!(l.skewness() > before);
        let total: u64 = l.blocks_per_dc.iter().sum();
        assert_eq!(total, 40 * 1024 / 64);
    }

    #[test]
    fn move_blocks_clamps_at_availability() {
        let mut l = DataLayout::from_gb(&[1.0, 1.0]);
        l.move_blocks(0, 1, 10_000);
        assert_eq!(l.blocks_per_dc[0], 0);
    }

    #[test]
    fn skew_weights_of_empty_data_are_uniform() {
        let l = DataLayout::from_gb(&[0.0, 0.0]);
        assert_eq!(l.skew_weights(), vec![0.5, 0.5]);
    }

    #[test]
    fn full_concentration_has_skewness_one() {
        let l = DataLayout::from_gb(&[100.0, 0.0, 0.0, 0.0]);
        assert!((l.skewness() - 1.0).abs() < 1e-9);
    }
}
