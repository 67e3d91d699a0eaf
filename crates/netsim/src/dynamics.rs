//! Temporal WAN bandwidth dynamics.
//!
//! WAN bandwidth fluctuates on the scale of minutes (paper §2.2 citing the
//! IMC'21 WAN traffic study); WANify's local agents exist to track the
//! drift. Each directed region pair carries an independent
//! Ornstein-Uhlenbeck multiplier, mean-reverting to 1.0, that scales both
//! the per-connection ceiling and the backbone path capacity. Two optional
//! closed-form components — a diurnal sinusoid and a linear decay —
//! compose multiplicatively with the OU grid.
//!
//! # Tick quantization
//!
//! All evolution is quantized onto a configurable *tick* (`tick_s`,
//! default 1 s): OU steps fire and the deterministic components are
//! resampled only when accumulated time crosses a tick boundary, never
//! mid-tick. Between ticks every multiplier is constant, which makes rate
//! changes *schedulable*: [`Dynamics::next_change_after`] tells the
//! event-coalescing transfer loop exactly when the next change lands, so
//! live-dynamics runs can jump whole multi-epoch segments instead of
//! stepping every epoch. Crucially, tick crossings depend only on total
//! accumulated time, so `advance(k·dt)` and `k` calls of `advance(dt)`
//! fire the same OU steps and consume the same RNG draws — the invariant
//! behind the coalesced-vs-stepped bit parity. With `tick_s == 1` and
//! whole-second advances the trajectories are bit-identical to the legacy
//! per-second process. The tick must be positive: every run is
//! schedulable.

use crate::grid::Grid;
use crate::stats::{clamp, sample_standard_normal};
use rand::rngs::StdRng;
use rand::Rng;

/// Lower clamp of the dynamics multiplier.
const MULT_MIN: f64 = 0.45;
/// Upper clamp of the dynamics multiplier.
const MULT_MAX: f64 = 1.55;

/// Tolerance when testing whether accumulated time crosses a tick
/// boundary, mirroring the fault-boundary clip in `sim.rs`: targets that
/// land within `1e-9` s of a boundary count as crossing it, so chunked
/// and stepped advances agree even when `dt` is not exactly representable.
const TICK_EPS: f64 = 1e-9;

/// A diurnal bandwidth wave: `1 + amplitude · sin(2π (t + phase) / period)`,
/// sampled at tick boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Diurnal {
    amplitude: f64,
    period_s: f64,
    phase_s: f64,
}

impl Diurnal {
    fn factor(&self, t_s: f64) -> f64 {
        1.0 + self.amplitude * (std::f64::consts::TAU * (t_s + self.phase_s) / self.period_s).sin()
    }
}

/// A linear capacity decay: `max(1 − slope · t, floor)`, sampled at tick
/// boundaries. Once the floor is reached the component never changes
/// again, so a decay-only dynamics becomes fully coalescible.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Decay {
    slope_per_s: f64,
    floor: f64,
}

impl Decay {
    fn factor(&self, t_s: f64) -> f64 {
        (1.0 - self.slope_per_s * t_s).max(self.floor)
    }

    fn still_changing(&self, t_s: f64) -> bool {
        self.slope_per_s > 0.0 && 1.0 - self.slope_per_s * t_s > self.floor
    }
}

/// Per-directed-pair bandwidth multipliers: a tick-quantized
/// Ornstein-Uhlenbeck grid composed with optional closed-form piecewise
/// components (see the module docs).
#[derive(Debug, Clone)]
pub struct Dynamics {
    multipliers: Grid<f64>,
    sigma: f64,
    theta: f64,
    /// Quantization tick, seconds (positive).
    tick_s: f64,
    /// Seconds accumulated toward the next tick boundary.
    acc_s: f64,
    /// Tick boundaries crossed since construction; `ticks_done · tick_s`
    /// is the model time the deterministic components are sampled at.
    ticks_done: u64,
    diurnal: Option<Diurnal>,
    decay: Option<Decay>,
    /// Product of the deterministic components, sampled at the last tick.
    det_factor: f64,
}

impl Dynamics {
    /// Creates dynamics for `n` data centers with OU parameters
    /// `sigma` (volatility) and `theta` (mean reversion per second),
    /// quantized onto a 1 s tick.
    pub fn new(n: usize, sigma: f64, theta: f64) -> Self {
        Self::with_tick(n, sigma, theta, 1.0)
    }

    /// Creates dynamics quantized onto an explicit tick. Larger ticks
    /// (e.g. 30 s for fleet runs) mean longer constant-rate segments and
    /// proportionally fewer fairness solves.
    ///
    /// # Panics
    ///
    /// Panics if `tick_s` is not positive.
    pub fn with_tick(n: usize, sigma: f64, theta: f64, tick_s: f64) -> Self {
        assert!(tick_s > 0.0, "the dynamics tick must be positive, got {tick_s}");
        Self {
            multipliers: Grid::filled(n, 1.0),
            sigma,
            theta,
            tick_s,
            acc_s: 0.0,
            ticks_done: 0,
            diurnal: None,
            decay: None,
            det_factor: 1.0,
        }
    }

    /// Installs a diurnal sinusoid component: the effective multiplier is
    /// scaled by `1 + amplitude · sin(2π (t + phase) / period)`, resampled
    /// at tick boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is not in `[0, 1)` (the factor must stay
    /// strictly positive — a zero multiplier would alias a fault-layer
    /// outage) or `period_s` is not positive.
    pub fn set_diurnal(&mut self, amplitude: f64, period_s: f64, phase_s: f64) {
        assert!((0.0..1.0).contains(&amplitude), "diurnal amplitude must be in [0, 1)");
        assert!(period_s > 0.0, "diurnal period must be positive");
        self.diurnal = Some(Diurnal { amplitude, period_s, phase_s });
        self.resample_det();
    }

    /// Installs a linear decay component: the effective multiplier is
    /// scaled by `max(1 − slope · t, floor)`, resampled at tick
    /// boundaries. Once the floor is reached the component is inert.
    ///
    /// # Panics
    ///
    /// Panics if `slope_per_s` is negative or `floor` is not in `(0, 1]`.
    pub fn set_decay(&mut self, slope_per_s: f64, floor: f64) {
        assert!(slope_per_s >= 0.0, "decay slope must be non-negative");
        assert!(floor > 0.0 && floor <= 1.0, "decay floor must be in (0, 1]");
        self.decay = Some(Decay { slope_per_s, floor });
        self.resample_det();
    }

    /// Whether the dynamics are frozen (no OU volatility, no piecewise
    /// component): multipliers stay pinned at 1.0 and [`Dynamics::advance`]
    /// consumes no randomness.
    pub fn is_frozen(&self) -> bool {
        self.sigma == 0.0 && self.diurnal.is_none() && self.decay.is_none()
    }

    /// The absolute time of the next multiplier change strictly after
    /// `t_s` — the next tick boundary — or `None` when nothing will ever
    /// change again (frozen, or a finished decay as the only component).
    pub fn next_change_after(&self, t_s: f64) -> Option<f64> {
        let model_t = self.ticks_done as f64 * self.tick_s;
        let still_changing = self.sigma != 0.0
            || self.diurnal.is_some()
            || self.decay.is_some_and(|d| d.still_changing(model_t));
        if !still_changing {
            return None;
        }
        Some(t_s + (self.tick_s - self.acc_s))
    }

    /// Current multiplier for the directed pair `(i, j)`: the OU grid
    /// value times the deterministic components' factor (1.0 when none
    /// are installed, so the pure-OU value is bit-unchanged).
    pub fn multiplier(&self, i: usize, j: usize) -> f64 {
        if i == j {
            1.0
        } else {
            self.multipliers.get(i, j) * self.det_factor
        }
    }

    /// Advances all pairs by `dt_s` seconds. Evolution fires only at tick
    /// boundaries crossed by the accumulated time, so chunked and stepped
    /// advances consume identical RNG draws at identical boundaries.
    /// Frozen dynamics consume no randomness at all.
    pub fn advance(&mut self, dt_s: f64, rng: &mut StdRng) {
        if self.is_frozen() {
            return;
        }
        self.acc_s += dt_s;
        while self.acc_s >= self.tick_s - TICK_EPS {
            self.acc_s -= self.tick_s;
            self.ticks_done += 1;
            if self.sigma != 0.0 {
                self.ou_step(self.tick_s, rng);
            }
            self.resample_det();
        }
    }

    /// Re-randomizes every pair around the mean, emulating a probe taken at
    /// a different time of day (the paper collects training data "at
    /// different times over a week", §5.1). The tick phase is preserved:
    /// a shuffle models a jump in wall-clock, not a tick-grid reset.
    pub fn shuffle_epoch(&mut self, rng: &mut StdRng) {
        if self.sigma == 0.0 {
            return;
        }
        // Stationary OU std-dev is sigma / sqrt(2 theta).
        let stationary_sd = self.sigma / (2.0 * self.theta).sqrt();
        for (_, _, m) in self.multipliers.iter_pairs_mut() {
            let v = 1.0 + stationary_sd * sample_standard_normal(rng);
            *m = clamp(v, MULT_MIN, MULT_MAX);
        }
        let _ = rng.gen::<u64>();
    }

    /// Snapshot of the OU multiplier grid (excluding the deterministic
    /// components' factor — see [`Dynamics::multiplier`]).
    pub fn multipliers(&self) -> &Grid<f64> {
        &self.multipliers
    }

    /// One OU step of width `dt_s` over every off-diagonal pair. The
    /// diagonal is skipped outright (no branch per cell), and cells are
    /// visited in the same row-major order as the legacy loop so RNG
    /// consumption is bit-compatible.
    fn ou_step(&mut self, dt_s: f64, rng: &mut StdRng) {
        let sqrt_dt = dt_s.sqrt();
        let (theta, sigma) = (self.theta, self.sigma);
        for (_, _, m) in self.multipliers.iter_pairs_mut() {
            let dm = theta * (1.0 - *m) * dt_s + sigma * sqrt_dt * sample_standard_normal(rng);
            *m = clamp(*m + dm, MULT_MIN, MULT_MAX);
        }
    }

    /// Resamples the deterministic components at the current tick time.
    fn resample_det(&mut self) {
        let t = self.ticks_done as f64 * self.tick_s;
        self.det_factor =
            self.diurnal.map_or(1.0, |d| d.factor(t)) * self.decay.map_or(1.0, |d| d.factor(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn frozen_dynamics_stay_at_one() {
        let mut d = Dynamics::new(4, 0.0, 0.25);
        let mut rng = StdRng::seed_from_u64(1);
        d.advance(100.0, &mut rng);
        for (_, _, m) in d.multipliers().iter_pairs() {
            assert_eq!(m, 1.0);
        }
    }

    #[test]
    fn diagonal_is_always_one() {
        let mut d = Dynamics::new(3, 0.1, 0.25);
        let mut rng = StdRng::seed_from_u64(2);
        d.advance(5.0, &mut rng);
        assert_eq!(d.multiplier(1, 1), 1.0);
    }

    #[test]
    fn multipliers_stay_clamped() {
        let mut d = Dynamics::new(3, 0.5, 0.05);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            d.advance(1.0, &mut rng);
        }
        for (_, _, m) in d.multipliers().iter_pairs() {
            assert!((MULT_MIN..=MULT_MAX).contains(&m), "multiplier {m} escaped clamp");
        }
    }

    #[test]
    fn mean_reversion_pulls_toward_one() {
        let mut d = Dynamics::new(2, 0.05, 0.5);
        let mut rng = StdRng::seed_from_u64(4);
        d.multipliers.set(0, 1, MULT_MIN);
        let mut sum = 0.0;
        for _ in 0..200 {
            d.advance(1.0, &mut rng);
            sum += d.multiplier(0, 1);
        }
        assert!(sum / 200.0 > 0.8, "long-run mean {} should revert toward 1", sum / 200.0);
    }

    #[test]
    fn frozen_dynamics_consume_no_randomness() {
        // The coalescing fast path requires frozen advances to leave
        // the RNG untouched — otherwise jumped and stepped runs would
        // diverge. shuffle_epoch must be equally inert.
        let mut d = Dynamics::new(4, 0.0, 0.25);
        let mut rng = StdRng::seed_from_u64(7);
        let mut reference = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            d.advance(3.7, &mut rng);
            d.shuffle_epoch(&mut rng);
        }
        assert_eq!(rng.gen::<u64>(), reference.gen::<u64>(), "frozen dynamics burned RNG state");
    }

    #[test]
    fn deterministic_components_consume_no_randomness() {
        // Diurnal + decay evolve without drawing randomness: a sigma == 0
        // dynamics with piecewise components must track the same RNG
        // stream as an untouched one, even across many tick crossings.
        let mut d = Dynamics::new(3, 0.0, 0.25);
        d.set_diurnal(0.4, 120.0, 0.0);
        d.set_decay(0.001, 0.5);
        let mut rng = StdRng::seed_from_u64(21);
        let mut reference = StdRng::seed_from_u64(21);
        for _ in 0..50 {
            d.advance(7.25, &mut rng);
        }
        assert!(!d.is_frozen());
        assert_eq!(rng.gen::<u64>(), reference.gen::<u64>(), "deterministic models burned RNG");
    }

    #[test]
    fn is_frozen_is_consistent_after_shuffle_epoch() {
        let mut frozen = Dynamics::new(3, 0.0, 0.25);
        let mut rng = StdRng::seed_from_u64(8);
        assert!(frozen.is_frozen());
        frozen.shuffle_epoch(&mut rng);
        assert!(frozen.is_frozen(), "shuffling must not unfreeze");
        for (_, _, m) in frozen.multipliers().iter_pairs() {
            assert_eq!(m, 1.0, "frozen multipliers stay pinned through a shuffle");
        }
        let mut live = Dynamics::new(3, 0.2, 0.25);
        assert!(!live.is_frozen());
        live.shuffle_epoch(&mut rng);
        assert!(!live.is_frozen(), "shuffling must not freeze live dynamics");
    }

    #[test]
    fn multipliers_stay_positive_under_long_advances() {
        // Volatile, weakly-reverting dynamics stepped for a long stretch:
        // the clamp floor must keep every multiplier strictly positive
        // (a zero multiplier would alias a fault-layer outage).
        let mut d = Dynamics::new(4, 0.8, 0.01);
        let mut rng = StdRng::seed_from_u64(9);
        for step in 0..2_000 {
            d.advance(if step % 3 == 0 { 10.0 } else { 0.25 }, &mut rng);
            for (i, j, m) in d.multipliers().iter_pairs() {
                assert!(m > 0.0, "multiplier ({i},{j}) = {m} not positive at step {step}");
                assert!((MULT_MIN..=MULT_MAX).contains(&m), "({i},{j}) = {m} escaped clamp");
            }
        }
    }

    #[test]
    fn shuffle_epoch_changes_values() {
        let mut d = Dynamics::new(3, 0.1, 0.25);
        let mut rng = StdRng::seed_from_u64(5);
        let before = d.multipliers().clone();
        d.shuffle_epoch(&mut rng);
        assert_ne!(&before, d.multipliers());
    }

    #[test]
    fn chunked_and_stepped_advances_are_bit_identical() {
        // The tick-quantization invariant behind coalescing parity:
        // advance(k·dt) must equal k advances of dt — same multipliers,
        // same RNG consumption — for tick-aligned and unaligned dts.
        for &(dt, chunks, tick) in
            &[(0.25, 8usize, 1.0), (0.25, 120, 30.0), (1.0, 7, 5.0), (0.1, 30, 0.7)]
        {
            let mut stepped = Dynamics::with_tick(3, 0.2, 0.3, tick);
            let mut jumped = stepped.clone();
            let mut rng_a = StdRng::seed_from_u64(31);
            let mut rng_b = StdRng::seed_from_u64(31);
            for _ in 0..chunks {
                stepped.advance(dt, &mut rng_a);
            }
            jumped.advance(chunks as f64 * dt, &mut rng_b);
            for (i, j, m) in stepped.multipliers().iter_pairs() {
                assert_eq!(
                    m.to_bits(),
                    jumped.multipliers().get(i, j).to_bits(),
                    "({i},{j}) diverged at dt={dt} tick={tick}"
                );
            }
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG streams diverged");
        }
    }

    #[test]
    fn next_change_after_tracks_the_tick_grid() {
        let mut d = Dynamics::with_tick(3, 0.1, 0.25, 30.0);
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(d.next_change_after(0.0), Some(30.0));
        d.advance(12.5, &mut rng);
        assert_eq!(d.next_change_after(12.5), Some(12.5 + 17.5));
        d.advance(17.5, &mut rng); // crosses the first tick exactly
        assert_eq!(d.next_change_after(30.0), Some(60.0));
        // Frozen dynamics never change.
        let frozen = Dynamics::new(3, 0.0, 0.25);
        assert_eq!(frozen.next_change_after(5.0), None);
    }

    #[test]
    fn finished_decay_becomes_fully_coalescible() {
        // A decay-only dynamics changes until the floor, then never again:
        // next_change_after must flip to None so coalescing can jump to
        // the drain horizon.
        let mut d = Dynamics::with_tick(2, 0.0, 0.25, 10.0);
        d.set_decay(0.01, 0.6); // floor reached at t = 40
        let mut rng = StdRng::seed_from_u64(12);
        assert!(d.next_change_after(0.0).is_some());
        d.advance(50.0, &mut rng);
        assert_eq!(d.multiplier(0, 1), 0.6);
        assert_eq!(d.next_change_after(50.0), None, "a floored decay never changes again");
    }

    #[test]
    fn diurnal_component_scales_the_multiplier() {
        let mut d = Dynamics::with_tick(2, 0.0, 0.25, 25.0);
        d.set_diurnal(0.5, 100.0, 0.0);
        let mut rng = StdRng::seed_from_u64(13);
        assert_eq!(d.multiplier(0, 1), 1.0, "sin(0) = 0 at t = 0");
        d.advance(25.0, &mut rng); // quarter period: sin = 1
        assert!((d.multiplier(0, 1) - 1.5).abs() < 1e-12, "got {}", d.multiplier(0, 1));
        d.advance(50.0, &mut rng); // three quarters: sin = -1
        assert!((d.multiplier(0, 1) - 0.5).abs() < 1e-12, "got {}", d.multiplier(0, 1));
        assert!(d.multiplier(0, 1) > 0.0);
    }

    // Regression fence for the quantization refactor: with the default
    // 1 s tick, whole-second advances reproduce the legacy per-second OU
    // process bit-for-bit — including shuffle_epoch interleavings — for
    // any seed.
    fn legacy_reference(n: usize, sigma: f64, theta: f64, ops: &[bool], seed: u64) -> Grid<f64> {
        let mut grid = Grid::filled(n, 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        for &shuffle in ops {
            if shuffle {
                let stationary_sd = sigma / (2.0 * theta).sqrt();
                for i in 0..n {
                    for j in 0..n {
                        if i == j {
                            continue;
                        }
                        let m = 1.0 + stationary_sd * sample_standard_normal(&mut rng);
                        grid.set(i, j, clamp(m, MULT_MIN, MULT_MAX));
                    }
                }
                let _ = rng.gen::<u64>();
            } else {
                let dt_s = 1.0f64;
                let sqrt_dt = dt_s.sqrt();
                for i in 0..n {
                    for j in 0..n {
                        if i == j {
                            continue;
                        }
                        let m = grid.get(i, j);
                        let dm = theta * (1.0 - m) * dt_s
                            + sigma * sqrt_dt * sample_standard_normal(&mut rng);
                        grid.set(i, j, clamp(m + dm, MULT_MIN, MULT_MAX));
                    }
                }
            }
        }
        grid
    }

    proptest! {
        #[test]
        fn unit_tick_reproduces_legacy_per_second_trajectories(
            seed in 0u64..1_000_000,
            sigma in 0.01f64..0.5,
            theta in 0.05f64..0.9,
            ops in proptest::collection::vec((0.0f64..1.0).prop_map(|x| x < 0.2), 1..60),
        ) {
            let n = 3;
            let mut d = Dynamics::new(n, sigma, theta);
            let mut rng = StdRng::seed_from_u64(seed);
            for &shuffle in &ops {
                if shuffle {
                    d.shuffle_epoch(&mut rng);
                } else {
                    d.advance(1.0, &mut rng);
                }
            }
            let reference = legacy_reference(n, sigma, theta, &ops, seed);
            for (i, j, m) in d.multipliers().iter_pairs() {
                prop_assert_eq!(
                    m.to_bits(),
                    reference.get(i, j).to_bits(),
                    "({},{}) diverged from the legacy process", i, j
                );
            }
        }
    }
}
