//! Constant-memory streaming order statistics for million-query fleets.
//!
//! [`Percentiles::of`](crate::Percentiles::of) sorts the full sample —
//! exact, but O(n) retained memory, which caps a fleet at however many
//! [`JobOutcome`](crate::JobOutcome)s fit in RAM. This module provides
//! the streaming alternative the fleet switches to above its retention
//! cap: the **P²** single-pass quantile estimator of Jain & Chlamtac
//! (CACM 1985), five markers per tracked quantile, parabolic marker
//! adjustment with a linear fallback. O(1) memory per quantile, fully
//! deterministic (pure arithmetic, no RNG, no timestamps), so sketched
//! fleet reports stay bit-identical across repeats and thread counts.
//!
//! * [`P2Quantile`] — one tracked quantile. Exact (nearest-rank over an
//!   internal 5-slot buffer) until five observations have been seen,
//!   then a P² estimate.
//! * [`StreamingPercentiles`] — the sketch equivalent of
//!   [`Percentiles`](crate::Percentiles): p50/p95/p99 sketches plus
//!   exact mean and max. `snapshot()` yields a `Percentiles` whose
//!   quantiles are estimates (within ~1% of exact nearest-rank on 10k+
//!   well-behaved samples; pinned by the `sketch_accuracy` tests).
//! * [`job_family`] — the workload family of a job name, the key the
//!   gateway's per-class quotas share.

/// Streaming estimator of one quantile `q` — the P² algorithm.
///
/// Keeps five markers whose heights straddle the target quantile and
/// nudges them toward their desired ranks after every observation
/// (parabolic interpolation, linear fallback when parabolic would break
/// marker monotonicity). Until five values have been observed the
/// estimate is the exact nearest-rank statistic of the values seen, so
/// tiny samples match [`Percentiles::of`](crate::Percentiles::of)
/// exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights h_0..h_4 (h_2 estimates the quantile).
    heights: [f64; 5],
    /// Actual marker positions n_0..n_4 (1-based ranks, integral values
    /// kept as f64 per the published algorithm).
    positions: [f64; 5],
    /// Desired marker positions n'_0..n'_4.
    desired: [f64; 5],
    /// Per-observation increments of the desired positions.
    increments: [f64; 5],
    count: u64,
}

impl P2Quantile {
    /// A sketch tracking quantile `q` (0 < q < 1).
    ///
    /// # Panics
    ///
    /// Panics when `q` is not strictly between 0 and 1.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "tracked quantile must be in (0, 1), got {q}");
        Self {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The tracked quantile.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Observations absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Absorbs one observation.
    pub fn observe(&mut self, x: f64) {
        if self.count < 5 {
            // Initialization: buffer the first five observations sorted
            // in the height slots; they become the initial markers.
            let n = self.count as usize;
            self.heights[n] = x;
            self.heights[..=n].sort_by(f64::total_cmp);
            self.count += 1;
            return;
        }
        self.count += 1;

        // 1. Locate the cell k with h_k <= x < h_{k+1}, extending the
        //    extreme markers when x falls outside them.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // h_0 <= x < h_4 here, so some cell below 4 holds it.
            (0..4).rev().find(|&i| self.heights[i] <= x).unwrap_or(0)
        };

        // 2. Shift the actual positions above the cell and advance every
        //    desired position by its increment.
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }

        // 3. Nudge the three interior markers toward their desired
        //    positions where a whole step is warranted.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let room_up = self.positions[i + 1] - self.positions[i] > 1.0;
            let room_down = self.positions[i - 1] - self.positions[i] < -1.0;
            if (d >= 1.0 && room_up) || (d <= -1.0 && room_down) {
                let d = d.signum();
                let parabolic = self.parabolic(i, d);
                // Monotonicity guard: the parabolic step must keep the
                // marker strictly between its neighbours; otherwise fall
                // back to a linear step (which, for tied neighbours,
                // leaves the height on a real sample value).
                if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                    self.heights[i] = parabolic;
                } else {
                    self.heights[i] = self.linear(i, d);
                }
                self.positions[i] += d;
            }
        }
    }

    /// Piecewise-parabolic (P²) height prediction for marker `i` moved
    /// by `d` (±1).
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (h, n) = (&self.heights, &self.positions);
        h[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
    }

    /// Linear height prediction for marker `i` moved by `d` (±1).
    fn linear(&self, i: usize, d: f64) -> f64 {
        let (h, n) = (&self.heights, &self.positions);
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        h[i] + d * (h[j] - h[i]) / (n[j] - n[i])
    }

    /// The current estimate: exact nearest-rank while fewer than five
    /// observations have been seen (zero when empty), the middle-marker
    /// P² estimate afterwards.
    pub fn estimate(&self) -> f64 {
        let n = self.count as usize;
        if n == 0 {
            return 0.0;
        }
        if n <= 5 {
            // heights[..n] holds every observation, sorted.
            let idx = ((self.q * n as f64).ceil() as usize).clamp(1, n);
            return self.heights[idx - 1];
        }
        self.heights[2]
    }
}

/// The streaming, constant-memory counterpart of
/// [`Percentiles`](crate::Percentiles): P² sketches for p50/p95/p99
/// plus exact running mean and max. Deterministic — equal observation
/// sequences produce bit-identical snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingPercentiles {
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
    sum: f64,
    max: f64,
    count: u64,
}

impl Default for StreamingPercentiles {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingPercentiles {
    /// An empty sketch.
    pub fn new() -> Self {
        Self {
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
            sum: 0.0,
            max: 0.0,
            count: 0,
        }
    }

    /// Absorbs one observation into all three quantile sketches and the
    /// mean/max accumulators.
    pub fn observe(&mut self, x: f64) {
        self.p50.observe(x);
        self.p95.observe(x);
        self.p99.observe(x);
        self.sum += x;
        if self.count == 0 || x > self.max {
            self.max = x;
        }
        self.count += 1;
    }

    /// Observations absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The current statistics as a [`Percentiles`](crate::Percentiles)
    /// value (all zero when empty, exact below six observations, P²
    /// estimates above).
    pub fn snapshot(&self) -> crate::Percentiles {
        crate::Percentiles {
            p50: self.p50.estimate(),
            p95: self.p95.estimate(),
            p99: self.p99.estimate(),
            mean: if self.count == 0 { 0.0 } else { self.sum / self.count as f64 },
            max: self.max,
        }
    }
}

/// The workload family of a job name: everything before the trailing
/// `-<index>` tag appended by the trace generators (`"tpcds-q82-7@g1"`
/// → `"tpcds-q82"`); names without a tag are their own family.
pub fn job_family(name: &str) -> &str {
    name.rsplit_once('-').map_or(name, |(family, _)| family)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Percentiles;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    // ---- edge cases mirroring the exact `Percentiles` unit tests ----

    #[test]
    fn sketch_of_empty_input_is_all_zero() {
        let empty = StreamingPercentiles::new().snapshot();
        assert_eq!(empty.p50, 0.0);
        assert_eq!(empty.p95, 0.0);
        assert_eq!(empty.p99, 0.0);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.max, 0.0);
    }

    #[test]
    fn sketch_of_a_single_element_is_that_element() {
        let mut s = StreamingPercentiles::new();
        s.observe(7.25);
        let one = s.snapshot();
        assert_eq!(one.p50, 7.25);
        assert_eq!(one.p95, 7.25);
        assert_eq!(one.p99, 7.25);
        assert_eq!(one.mean, 7.25);
        assert_eq!(one.max, 7.25);
    }

    #[test]
    fn sketch_of_tied_values_is_that_value() {
        let mut s = StreamingPercentiles::new();
        for _ in 0..9 {
            s.observe(3.5);
        }
        let tied = s.snapshot();
        assert_eq!(tied.p50, 3.5);
        assert_eq!(tied.p95, 3.5);
        assert_eq!(tied.p99, 3.5);
        assert_eq!(tied.mean, 3.5);
        assert_eq!(tied.max, 3.5);
    }

    #[test]
    fn sketch_matches_exact_nearest_rank_below_six_observations() {
        // Up to five observations the sketch still holds the full
        // sample, so it must agree with `Percentiles::of` bit for bit —
        // including the partial-tie case of the exact tests.
        for sample in [
            vec![4.0, 1.0, 3.0, 2.0],
            vec![7.25],
            vec![1.0, 2.0, 2.0, 2.0, 9.0],
            vec![5.0, 5.0, 5.0],
        ] {
            let mut s = StreamingPercentiles::new();
            for &x in &sample {
                s.observe(x);
            }
            assert_eq!(s.snapshot(), Percentiles::of(&sample), "sample {sample:?}");
        }
    }

    // ---- accuracy on large deterministic samples ----

    fn relative_error(est: f64, exact: f64) -> f64 {
        (est - exact).abs() / exact.abs().max(1e-12)
    }

    fn assert_within_one_percent(samples: &[f64], what: &str) {
        assert!(samples.len() >= 10_000, "accuracy is asserted on >= 10k samples");
        let exact = Percentiles::of(samples);
        let mut s = StreamingPercentiles::new();
        for &x in samples {
            s.observe(x);
        }
        let est = s.snapshot();
        for (name, e, x) in
            [("p50", est.p50, exact.p50), ("p95", est.p95, exact.p95), ("p99", est.p99, exact.p99)]
        {
            assert!(
                relative_error(e, x) < 0.01,
                "{what} {name}: sketch {e} vs exact {x} (rel err {})",
                relative_error(e, x)
            );
        }
        assert!(relative_error(est.mean, exact.mean) < 1e-9, "mean is exact");
        assert_eq!(est.max, exact.max, "max is exact");
    }

    #[test]
    fn sketch_within_one_percent_of_exact_on_uniform_samples() {
        let mut rng = StdRng::seed_from_u64(42);
        let samples: Vec<f64> = (0..20_000).map(|_| rng.gen_range(10.0..500.0)).collect();
        assert_within_one_percent(&samples, "uniform");
    }

    #[test]
    fn sketch_within_one_percent_of_exact_on_heavy_tailed_samples() {
        // Exponential via inverse CDF — the shape fleet makespans take
        // under contention (many quick queries, a long straggler tail).
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<f64> =
            (0..20_000).map(|_| 30.0 - 60.0 * (1.0 - rng.gen::<f64>()).ln()).collect();
        assert_within_one_percent(&samples, "exponential");
    }

    #[test]
    fn sketch_is_deterministic() {
        let feed = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = StreamingPercentiles::new();
            for _ in 0..5_000 {
                s.observe(rng.gen_range(0.0..100.0));
            }
            s.snapshot()
        };
        let (a, b) = (feed(3), feed(3));
        assert_eq!(a.p50.to_bits(), b.p50.to_bits());
        assert_eq!(a.p95.to_bits(), b.p95.to_bits());
        assert_eq!(a.p99.to_bits(), b.p99.to_bits());
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.max.to_bits(), b.max.to_bits());
    }

    // ---- workload families ----

    #[test]
    fn job_family_strips_the_trace_index_tag() {
        assert_eq!(job_family("terasort-17"), "terasort");
        assert_eq!(job_family("tpcds-q82-7@g1"), "tpcds-q82");
        assert_eq!(job_family("untagged"), "untagged");
    }
}
