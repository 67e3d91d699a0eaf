//! Calibrated parameters of the WAN link model.

/// Fixed RTT component in milliseconds (last-mile + stack latency).
const RTT_BASE_MS: f64 = 2.0;
/// RTT growth per great-circle mile (fiber propagation + routing slack).
const RTT_MS_PER_MILE: f64 = 0.0205;
/// Numerator of the per-connection window limit, in Mbps · ms^exponent.
const WINDOW_K: f64 = 4.6e6;
/// Exponent of the RTT penalty on the per-connection *window* ceiling
/// (2 calibrates the Fig. 1 endpoints: 1700 Mbps nearby, 121 far).
const RTT_EXPONENT: f64 = 2.0;
/// Exponent of the RTT bias in *contention weight*. Deliberately below
/// the window exponent: under contention, long-RTT flows lose share but
/// not as steeply as their window limit falls with distance, so runtime
/// bandwidth is a non-proportional reshuffling of static bandwidth —
/// nearby links lose the most, ranks can flip (paper §2.2, Table 1).
const WEIGHT_RTT_EXPONENT: f64 = 1.7;
/// Backbone capacity per directed region pair, in Mbps.
pub(crate) const PATH_CAP_MBPS: f64 = 4000.0;
/// Multiplier on `conn_cap` for flows crossing cloud providers.
pub(crate) const CROSS_PROVIDER_FACTOR: f64 = 0.8;

/// Simulation step of [`crate::NetSim::run_transfers`] and the
/// [`crate::NetEngine`] transfer loop, in seconds. Probes always use
/// 1-second epochs. With frozen dynamics and no hook the loop coalesces
/// epochs between drain events, so the step sets accounting
/// granularity, not the number of fairness solves.
pub const EPOCH_DT_S: f64 = 0.25;

/// The link model's settable parameters: congestion, dynamics and probe
/// noise. The geometry is fixed by the constants above, calibrated so
/// that static-independent single-connection probes reproduce the
/// paper's Fig. 1 endpoints: ≈1700 Mbps between US East and US West and
/// ≈121 Mbps between US East and AP Southeast (Singapore).
///
/// The model is:
///
/// * `RTT(i,j) = RTT_BASE_MS + RTT_MS_PER_MILE · distance(i,j)`
/// * per-connection throughput ceiling
///   `conn_cap(i,j) = WINDOW_K / RTT^RTT_EXPONENT`, times
///   `CROSS_PROVIDER_FACTOR` for a pair that crosses cloud providers
/// * a flow with `n` connections has ceiling `n · conn_cap` and competes for
///   shared NIC capacity with weight `n / RTT^WEIGHT_RTT_EXPONENT` (TCP RTT
///   bias)
/// * a host whose total active connections exceed its budget `B` wastes
///   goodput: its usable NIC capacity is divided by
///   `1 + congestion_lambda · (conns/B − 1)²`
/// * every directed region pair also has a backbone path capacity
///   `PATH_CAP_MBPS`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModelParams {
    /// Goodput loss slope once a host exceeds its connection budget.
    pub congestion_lambda: f64,
    /// Relative amplitude of the Ornstein-Uhlenbeck bandwidth dynamics.
    pub dynamics_sigma: f64,
    /// Mean-reversion rate of the dynamics process (per second).
    pub dynamics_theta: f64,
    /// Quantization tick of the dynamics in seconds: OU steps fire and
    /// the piecewise components resample only at tick boundaries, which
    /// makes rate changes schedulable and lets the transfer loop coalesce
    /// epochs between them. 1 s (the default) is bit-compatible with the
    /// legacy per-second process; larger ticks (e.g. 30 s for fleet runs)
    /// trade temporal resolution for proportionally fewer fairness
    /// solves. Must be positive: [`crate::NetSim::new`] rejects anything
    /// else.
    pub dynamics_tick_s: f64,
    /// Relative observation noise of a 1-second snapshot probe.
    pub snapshot_noise: f64,
}

impl Default for LinkModelParams {
    fn default() -> Self {
        Self {
            congestion_lambda: 0.4,
            dynamics_sigma: 0.06,
            dynamics_theta: 0.25,
            dynamics_tick_s: 1.0,
            snapshot_noise: 0.05,
        }
    }
}

impl LinkModelParams {
    /// Round-trip time in milliseconds for a link of `distance_miles`.
    pub fn rtt_ms(&self, distance_miles: f64) -> f64 {
        RTT_BASE_MS + RTT_MS_PER_MILE * distance_miles
    }

    /// Single-connection throughput ceiling in Mbps for a link of
    /// `distance_miles`, before NIC/path caps.
    pub fn conn_cap_mbps(&self, distance_miles: f64) -> f64 {
        WINDOW_K / self.rtt_ms(distance_miles).powf(RTT_EXPONENT)
    }

    /// Contention weight of one connection on a link of `distance_miles`
    /// (TCP's RTT bias: long-RTT connections lose the bandwidth race).
    pub fn conn_weight(&self, distance_miles: f64) -> f64 {
        1.0 / self.rtt_ms(distance_miles).powf(WEIGHT_RTT_EXPONENT)
    }

    /// Goodput divisor for a host running `conns` connections with budget
    /// `budget`: 1.0 while within budget, growing *quadratically* in the
    /// oversubscription ratio beyond it. Mild oversubscription (a WANify
    /// plan at ~2× budget) costs little; flooding every pair with uniform
    /// parallel connections (~5× budget) collapses goodput — the paper's
    /// observation that naive parallelism backfires (§2.2, Fig. 5).
    pub fn congestion_divisor(&self, conns: u32, budget: u32) -> f64 {
        if budget == 0 || conns <= budget {
            1.0
        } else {
            let over = f64::from(conns) / f64::from(budget) - 1.0;
            1.0 + self.congestion_lambda * over * over
        }
    }

    /// A params set with dynamics and snapshot noise disabled, for
    /// deterministic unit tests.
    pub fn frozen() -> Self {
        Self { dynamics_sigma: 0.0, snapshot_noise: 0.0, ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_us_east_us_west() {
        // ~2,437 miles => RTT ~52 ms => ~1700 Mbps.
        let p = LinkModelParams::default();
        let cap = p.conn_cap_mbps(2437.0);
        assert!((1500.0..1900.0).contains(&cap), "got {cap}");
    }

    #[test]
    fn calibration_us_east_singapore() {
        // ~9,670 miles => RTT ~200 ms => ~115 Mbps (paper observed 121).
        let p = LinkModelParams::default();
        let cap = p.conn_cap_mbps(9670.0);
        assert!((100.0..145.0).contains(&cap), "got {cap}");
    }

    #[test]
    fn conn_cap_decreases_with_distance() {
        let p = LinkModelParams::default();
        assert!(p.conn_cap_mbps(1000.0) > p.conn_cap_mbps(5000.0));
    }

    #[test]
    fn congestion_divisor_is_one_within_budget() {
        let p = LinkModelParams::default();
        assert_eq!(p.congestion_divisor(8, 16), 1.0);
        assert_eq!(p.congestion_divisor(16, 16), 1.0);
        assert!(p.congestion_divisor(32, 16) > 1.0);
    }

    #[test]
    fn congestion_divisor_handles_zero_budget() {
        let p = LinkModelParams::default();
        assert_eq!(p.congestion_divisor(100, 0), 1.0);
    }

    #[test]
    fn frozen_disables_noise() {
        let p = LinkModelParams::frozen();
        assert_eq!(p.dynamics_sigma, 0.0);
        assert_eq!(p.snapshot_noise, 0.0);
    }
}
