//! Deterministic fault injection: timestamped WAN misbehaviour.
//!
//! A [`FaultSchedule`] is a list of [`FaultEvent`]s — DC outages and
//! recoveries, directed-link degradation and flap, straggler DCs, diurnal
//! bandwidth cycles — applied by [`crate::NetSim`] as first-class
//! rate-change events. Faults compose *multiplicatively* with the existing
//! rate model: the effective per-pair factor scales both the window-limit
//! ceiling and the backbone path capacity, exactly where
//! [`crate::Dynamics`] multipliers already apply, so a fault is
//! indistinguishable from (deterministic, scheduled) weather.
//!
//! Two properties make the layer safe to drop under the event-coalescing
//! machinery:
//!
//! 1. **No randomness.** Applying an event consumes no RNG, so a faulted
//!    run stays bit-identical across repeats and thread counts.
//! 2. **Epoch-aligned firing.** Events fire at the first *solve point* at
//!    or after their timestamp: the coalesced fast path clips its jumps at
//!    the next pending event (`NetSim::epochs_until_next_fault`),
//!    so it applies each fault at the same simulated epoch as naive
//!    per-second stepping — the parity the `coalescing` suite pins down.
//!
//! A DC outage zeroes every WAN pair touching the DC (its NIC is gone);
//! intra-DC traffic (`src == dst`) is deliberately unaffected — the paper's
//! model only ever contends on the WAN.

use crate::grid::Grid;
use crate::topology::DcId;

/// What a single fault event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The DC's NIC capacity drops to zero: every WAN pair touching it
    /// stalls until a matching [`FaultKind::DcUp`].
    DcDown(DcId),
    /// Recovers a DC downed by [`FaultKind::DcDown`].
    DcUp(DcId),
    /// Sets the directed pair's bandwidth factor (1.0 = healthy,
    /// 0.25 = severe degradation, values > 1 are clamped at apply time).
    LinkFactor {
        /// Source DC of the degraded pair.
        src: DcId,
        /// Destination DC of the degraded pair.
        dst: DcId,
        /// New factor for the pair (clamped to `[0, 1]`).
        factor: f64,
    },
    /// Straggler DC: sets the factor on *every* WAN link touching the DC
    /// (both directions). 1.0 restores it.
    DcFactor {
        /// The straggling DC.
        dc: DcId,
        /// New factor for all its links (clamped to `[0, 1]`).
        factor: f64,
    },
    /// Sets the global bandwidth factor on every WAN pair — the diurnal
    /// wave knob (clamped to `[0, 1]`).
    GlobalFactor(f64),
}

/// One timestamped fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Absolute simulation time the event fires at, seconds.
    pub at_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic timeline of fault events.
///
/// Built fluently; [`crate::NetSim::set_fault_schedule`] installs it.
/// Events are stably sorted by timestamp at installation, so ties fire in
/// insertion order.
///
/// # Examples
///
/// ```
/// use wanify_netsim::{DcId, FaultSchedule};
/// let faults = FaultSchedule::new()
///     .dc_outage(DcId(1), 60.0, 180.0)
///     .link_flap(DcId(0), DcId(2), 0.3, 30.0, 40.0, 5)
///     .straggler(DcId(2), 0.5, 400.0);
/// assert_eq!(faults.len(), 2 + 10 + 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events in the schedule.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The raw events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Adds one event.
    #[must_use]
    pub fn at(mut self, at_s: f64, kind: FaultKind) -> Self {
        assert!(at_s.is_finite() && at_s >= 0.0, "fault time must be finite and non-negative");
        self.events.push(FaultEvent { at_s, kind });
        self
    }

    /// Full-DC outage: down at `from_s`, back up at `until_s`.
    #[must_use]
    pub fn dc_outage(self, dc: DcId, from_s: f64, until_s: f64) -> Self {
        assert!(until_s > from_s, "outage must end after it starts");
        self.at(from_s, FaultKind::DcDown(dc)).at(until_s, FaultKind::DcUp(dc))
    }

    /// Link flap: the directed pair degrades to `factor` for half of each
    /// `period_s`, recovers for the other half, repeated `cycles` times
    /// starting at `start_s`.
    #[must_use]
    pub fn link_flap(
        mut self,
        src: DcId,
        dst: DcId,
        factor: f64,
        start_s: f64,
        period_s: f64,
        cycles: usize,
    ) -> Self {
        assert!(period_s > 0.0, "flap period must be positive");
        for c in 0..cycles {
            let t = start_s + c as f64 * period_s;
            self = self
                .at(t, FaultKind::LinkFactor { src, dst, factor })
                .at(t + period_s / 2.0, FaultKind::LinkFactor { src, dst, factor: 1.0 });
        }
        self
    }

    /// Straggler DC: every link touching `dc` degrades to `factor` at
    /// `at_s` (pair with a later `straggler(dc, 1.0, ..)` to recover).
    #[must_use]
    pub fn straggler(self, dc: DcId, factor: f64, at_s: f64) -> Self {
        self.at(at_s, FaultKind::DcFactor { dc, factor })
    }

    /// Diurnal bandwidth wave: a stepwise raised-cosine global factor
    /// dipping to `trough_factor` at mid-period, `steps` steps per period,
    /// `cycles` periods starting at t = 0. Ends with an explicit restore
    /// to 1.0.
    #[must_use]
    pub fn diurnal(
        mut self,
        period_s: f64,
        trough_factor: f64,
        steps: usize,
        cycles: usize,
    ) -> Self {
        assert!(period_s > 0.0 && steps > 0, "diurnal wave needs a positive period and steps");
        let depth = 1.0 - trough_factor.clamp(0.0, 1.0);
        for c in 0..cycles {
            for s in 0..steps {
                let phase = (s as f64 + 0.5) / steps as f64; // step midpoint
                                                             // Raised cosine: 1 at the period edges, trough at phase 0.5.
                let factor = 1.0 - depth * 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
                let t = (c as f64 + s as f64 / steps as f64) * period_s;
                self = self.at(t, FaultKind::GlobalFactor(factor));
            }
        }
        self.at(cycles as f64 * period_s, FaultKind::GlobalFactor(1.0))
    }
}

/// An installed schedule: sorted events, a cursor, and the live state.
#[derive(Debug, Clone)]
pub(crate) struct ActiveFaults {
    events: Vec<FaultEvent>,
    cursor: usize,
    pub(crate) state: FaultState,
}

impl ActiveFaults {
    /// Installs `schedule` over an `n`-DC topology: stable-sorts events by
    /// timestamp (ties fire in insertion order) and resets to healthy.
    ///
    /// # Panics
    ///
    /// Panics if any event names a DC outside the topology.
    pub(crate) fn install(schedule: FaultSchedule, n: usize) -> Self {
        for e in &schedule.events {
            let dc_ok = |dc: DcId| dc.0 < n;
            let ok = match e.kind {
                FaultKind::DcDown(dc) | FaultKind::DcUp(dc) => dc_ok(dc),
                FaultKind::LinkFactor { src, dst, .. } => dc_ok(src) && dc_ok(dst),
                FaultKind::DcFactor { dc, .. } => dc_ok(dc),
                FaultKind::GlobalFactor(_) => true,
            };
            assert!(ok, "fault event {e:?} names a DC outside the {n}-DC topology");
        }
        let mut events = schedule.events;
        events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        Self { events, cursor: 0, state: FaultState::healthy(n) }
    }

    /// Timestamp of the next unapplied event (`INFINITY` when exhausted).
    pub(crate) fn next_at_s(&self) -> f64 {
        self.events.get(self.cursor).map_or(f64::INFINITY, |e| e.at_s)
    }

    /// Applies every event due at or before `now_s` (with the same 1e-9
    /// tolerance the fleet timers use); returns how many fired.
    pub(crate) fn poll(&mut self, now_s: f64) -> usize {
        let mut applied = 0;
        while let Some(e) = self.events.get(self.cursor) {
            if e.at_s > now_s + 1e-9 {
                break;
            }
            self.state.apply(e.kind);
            self.cursor += 1;
            applied += 1;
        }
        applied
    }
}

/// Live fault state: what the schedule has done to the network so far.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    up: Vec<bool>,
    link: Grid<f64>,
    dc_factor: Vec<f64>,
    global: f64,
    /// Cached "anything differs from healthy" flag, recomputed on apply.
    degraded: bool,
}

impl FaultState {
    pub(crate) fn healthy(n: usize) -> Self {
        Self {
            up: vec![true; n],
            link: Grid::filled(n, 1.0),
            dc_factor: vec![1.0; n],
            global: 1.0,
            degraded: false,
        }
    }

    /// Effective bandwidth factor of the directed WAN pair `(i, j)`.
    /// Intra-DC traffic is never faulted.
    #[inline]
    pub(crate) fn factor(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 1.0;
        }
        if !self.up[i] || !self.up[j] {
            return 0.0;
        }
        self.link.get(i, j) * self.dc_factor[i] * self.dc_factor[j] * self.global
    }

    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded
    }

    pub(crate) fn dc_is_up(&self, dc: usize) -> bool {
        self.up[dc]
    }

    pub(crate) fn dcs_up(&self) -> &[bool] {
        &self.up
    }

    /// Applies one event and refreshes the degraded flag.
    pub(crate) fn apply(&mut self, kind: FaultKind) {
        let n = self.up.len();
        match kind {
            FaultKind::DcDown(dc) => self.up[dc.0] = false,
            FaultKind::DcUp(dc) => self.up[dc.0] = true,
            FaultKind::LinkFactor { src, dst, factor } => {
                self.link.set(src.0, dst.0, factor.clamp(0.0, 1.0));
            }
            FaultKind::DcFactor { dc, factor } => {
                self.dc_factor[dc.0] = factor.clamp(0.0, 1.0);
            }
            FaultKind::GlobalFactor(factor) => self.global = factor.clamp(0.0, 1.0),
        }
        self.degraded = self.up.iter().any(|&u| !u)
            || self.global != 1.0
            || self.dc_factor.iter().any(|&f| f != 1.0)
            || (0..n).any(|i| (0..n).any(|j| self.link.get(i, j) != 1.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_zeroes_every_touching_pair_and_recovers() {
        let mut st = FaultState::healthy(3);
        st.apply(FaultKind::DcDown(DcId(1)));
        assert!(st.is_degraded());
        assert!(!st.dc_is_up(1));
        assert_eq!(st.factor(0, 1), 0.0);
        assert_eq!(st.factor(1, 2), 0.0);
        assert_eq!(st.factor(0, 2), 1.0, "pairs not touching the DC are unaffected");
        assert_eq!(st.factor(1, 1), 1.0, "intra-DC traffic is never faulted");
        st.apply(FaultKind::DcUp(DcId(1)));
        assert!(!st.is_degraded());
        assert_eq!(st.factor(0, 1), 1.0);
    }

    #[test]
    fn factors_compose_multiplicatively() {
        let mut st = FaultState::healthy(3);
        st.apply(FaultKind::LinkFactor { src: DcId(0), dst: DcId(1), factor: 0.5 });
        st.apply(FaultKind::DcFactor { dc: DcId(1), factor: 0.5 });
        st.apply(FaultKind::GlobalFactor(0.8));
        assert!((st.factor(0, 1) - 0.5 * 0.5 * 0.8).abs() < 1e-12);
        assert!((st.factor(2, 1) - 0.5 * 0.8).abs() < 1e-12, "dc factor hits both directions");
        assert!((st.factor(1, 2) - 0.5 * 0.8).abs() < 1e-12);
        assert!((st.factor(0, 2) - 0.8).abs() < 1e-12, "global factor hits every WAN pair");
        assert!(st.is_degraded());
    }

    #[test]
    fn restoring_every_factor_clears_degraded() {
        let mut st = FaultState::healthy(2);
        st.apply(FaultKind::LinkFactor { src: DcId(0), dst: DcId(1), factor: 0.25 });
        st.apply(FaultKind::GlobalFactor(0.9));
        assert!(st.is_degraded());
        st.apply(FaultKind::LinkFactor { src: DcId(0), dst: DcId(1), factor: 1.0 });
        st.apply(FaultKind::GlobalFactor(1.0));
        assert!(!st.is_degraded());
    }

    #[test]
    fn factors_clamp_to_unit_range() {
        let mut st = FaultState::healthy(2);
        st.apply(FaultKind::LinkFactor { src: DcId(0), dst: DcId(1), factor: 7.0 });
        assert_eq!(st.factor(0, 1), 1.0);
        st.apply(FaultKind::GlobalFactor(-2.0));
        assert_eq!(st.factor(0, 1), 0.0);
    }

    #[test]
    fn schedule_builders_expand_to_events() {
        let s = FaultSchedule::new()
            .dc_outage(DcId(0), 10.0, 20.0)
            .link_flap(DcId(0), DcId(1), 0.4, 0.0, 10.0, 3)
            .straggler(DcId(1), 0.6, 5.0)
            .diurnal(100.0, 0.5, 4, 2);
        assert_eq!(s.len(), 2 + 6 + 1 + 9);
        assert!(s.events().iter().all(|e| e.at_s >= 0.0));
    }

    #[test]
    fn diurnal_dips_to_the_trough_and_restores() {
        let s = FaultSchedule::new().diurnal(100.0, 0.5, 4, 1);
        let factors: Vec<f64> = s
            .events()
            .iter()
            .map(|e| match e.kind {
                FaultKind::GlobalFactor(f) => f,
                other => panic!("diurnal emits only GlobalFactor, got {other:?}"),
            })
            .collect();
        let min = factors.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(min < 0.6, "wave must approach the 0.5 trough, got {min}");
        assert_eq!(*factors.last().unwrap(), 1.0, "wave must end restored");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_fault_time_is_rejected() {
        let _ = FaultSchedule::new().at(f64::INFINITY, FaultKind::GlobalFactor(0.5));
    }
}
