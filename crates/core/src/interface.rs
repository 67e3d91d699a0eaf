//! The WANify Interface: one facade over the whole pipeline (Fig. 3).
//!
//! GDA systems interact with WANify through two artifacts, both N×N
//! matrices (§2.3): the predicted runtime bandwidth matrix (consumed as a
//! drop-in replacement for statically measured bandwidth) and the
//! optimized heterogeneous connection matrix (consumed by the transfer
//! layer). [`Wanify::plan`] produces both, and [`Wanify::agent`] spawns the
//! local agents that keep them fresh at runtime.

use crate::agent::WanifyAgent;
use crate::error::WanifyError;
use crate::global::{optimize_global, GlobalPlan};
use crate::local::feasible_factor;
use crate::relations::{infer_dc_relations, DcRelations};
use crate::source::BandwidthSource;
use crate::throttle::throttle_caps;
use wanify_netsim::{BwMatrix, ConnMatrix, Grid, NetSim};

/// Configuration of the WANify pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct WanifyConfig {
    /// `M` — per-host parallel-connection budget (paper example: 8).
    pub max_conns_per_pair: u32,
    /// `D` — minimum bandwidth difference for Algorithm 1's level merge.
    pub relation_min_diff_mbps: f64,
    /// Enable traffic-control throttling of BW-rich links (WANify-TC).
    pub throttling: bool,
    /// AIMD update interval for local agents, seconds.
    pub aimd_interval_s: f64,
    /// Optional per-DC skew weights `ws` (from the storage layer, §3.3.1).
    pub skew_weights: Option<Vec<f64>>,
    /// Optional provider refactoring vector `rvec` (§3.3.3).
    pub rvec: Option<Vec<f64>>,
}

impl Default for WanifyConfig {
    fn default() -> Self {
        Self {
            max_conns_per_pair: 8,
            relation_min_diff_mbps: 30.0,
            throttling: true,
            aimd_interval_s: crate::agent::DEFAULT_AIMD_INTERVAL_S,
            skew_weights: None,
            rvec: None,
        }
    }
}

/// The two matrices (plus internals) WANify hands to a GDA system.
#[derive(Debug, Clone, PartialEq)]
pub struct WanifyPlan {
    /// Closeness indices from Algorithm 1.
    pub relations: DcRelations,
    /// Connection windows and achievable bandwidths from Eq. 2-3.
    pub global: GlobalPlan,
    /// Initial traffic-control caps (infinite when throttling is off).
    pub initial_throttles: Grid<f64>,
}

impl WanifyPlan {
    /// The connection matrix a GDA system should open initially: AIMD
    /// starts from the window maximum.
    pub fn initial_conns(&self) -> &ConnMatrix {
        &self.global.max_cons
    }

    /// Achievable bandwidth matrix at the initial configuration, which a
    /// GDA system can feed to its scheduler instead of static bandwidth.
    pub fn achievable_bw(&self) -> &BwMatrix {
        &self.global.max_bw
    }

    /// Achievable bandwidth with every row scaled down to the source
    /// host's estimated egress capacity (`min(1, host / row sum)`).
    ///
    /// The linear model of Eq. 3 can promise more than a VM's NIC can
    /// push; consumers sizing work to the matrix — schedulers, or SAGQ-style
    /// quantization picking gradient precision — should use this feasible
    /// variant, mirroring how the local optimizers scale their targets.
    pub fn feasible_achievable_bw(&self) -> BwMatrix {
        let (max_bw, hosts) = (&self.global.max_bw, &self.global.host_egress_mbps);
        let factor: Vec<f64> =
            (0..max_bw.len()).map(|i| feasible_factor(max_bw, i, hosts[i])).collect();
        BwMatrix::from_fn(max_bw.len(), |i, j| max_bw.get(i, j) * factor[i])
    }
}

/// The WANify framework facade.
#[derive(Debug, Clone, Default)]
pub struct Wanify {
    config: WanifyConfig,
}

impl Wanify {
    /// Creates the framework with the given configuration.
    pub fn new(config: WanifyConfig) -> Self {
        Self { config }
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &WanifyConfig {
        &self.config
    }

    /// Gauges `net` through any [`BandwidthSource`] and plans from the
    /// result — the provenance-agnostic entry point of the pipeline.
    ///
    /// The source decides *how* bandwidth is obtained (static probe,
    /// fresh measurement, model prediction, replay); planning is
    /// identical for all of them.
    ///
    /// # Errors
    ///
    /// Returns [`WanifyError`] when gauging fails or the configuration is
    /// inconsistent with the gauged matrix.
    pub fn plan<S: BandwidthSource + ?Sized>(
        &self,
        source: &mut S,
        net: &mut NetSim,
    ) -> Result<WanifyPlan, WanifyError> {
        let bw = source.gauge(net)?;
        self.try_plan_matrix(&bw)
    }

    /// Runs Algorithm 1 + global optimization on an already-gauged
    /// bandwidth matrix (the low-level step behind [`Wanify::plan`]).
    ///
    /// # Errors
    ///
    /// Returns [`WanifyError`] when the configured skew/rvec vectors
    /// mismatch the matrix size or the configuration is invalid.
    pub fn try_plan_matrix(&self, predicted_bw: &BwMatrix) -> Result<WanifyPlan, WanifyError> {
        let relations = infer_dc_relations(predicted_bw, self.config.relation_min_diff_mbps)?;
        let global = optimize_global(
            predicted_bw,
            &relations,
            self.config.max_conns_per_pair,
            self.config.skew_weights.as_deref(),
            self.config.rvec.as_deref(),
        )?;
        let initial_throttles = if self.config.throttling {
            throttle_caps(&global.max_bw, &global.host_egress_mbps, Some(&relations))
        } else {
            Grid::filled(predicted_bw.len(), f64::INFINITY)
        };
        Ok(WanifyPlan { relations, global, initial_throttles })
    }

    /// Spawns the local-agent fleet for a plan.
    pub fn agent(&self, plan: &WanifyPlan) -> WanifyAgent {
        WanifyAgent::with_options(&plan.global, self.config.aimd_interval_s, self.config.throttling)
            .with_relations(plan.relations.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw3() -> BwMatrix {
        BwMatrix::from_rows(3, vec![0.0, 400.0, 120.0, 380.0, 0.0, 130.0, 110.0, 120.0, 0.0])
    }

    #[test]
    fn plan_produces_heterogeneous_connections() {
        let plan = Wanify::new(WanifyConfig::default()).try_plan_matrix(&bw3()).unwrap();
        let weak = plan.initial_conns().get(0, 2); // 120 Mbps link
        let strong = plan.initial_conns().get(0, 1); // 400 Mbps link
        assert!(weak > strong, "distant pair gets more connections: {weak} vs {strong}");
    }

    #[test]
    fn throttling_toggle_controls_initial_caps() {
        let on = Wanify::new(WanifyConfig::default()).try_plan_matrix(&bw3()).unwrap();
        assert!(on.initial_throttles.iter_pairs().any(|(_, _, c)| c.is_finite()));
        let off = Wanify::new(WanifyConfig { throttling: false, ..WanifyConfig::default() })
            .try_plan_matrix(&bw3())
            .unwrap();
        assert!(off.initial_throttles.iter_pairs().all(|(_, _, c)| c.is_infinite()));
    }

    #[test]
    fn achievable_bw_scales_with_connections() {
        let plan = Wanify::new(WanifyConfig::default()).try_plan_matrix(&bw3()).unwrap();
        let c = plan.initial_conns().get(0, 2);
        assert!((plan.achievable_bw().get(0, 2) - 120.0 * f64::from(c)).abs() < 1e-9);
    }

    #[test]
    fn try_plan_rejects_mismatched_skew() {
        let w = Wanify::new(WanifyConfig {
            skew_weights: Some(vec![0.5, 0.5]),
            ..WanifyConfig::default()
        });
        assert!(matches!(w.try_plan_matrix(&bw3()), Err(WanifyError::DimensionMismatch { .. })));
    }

    #[test]
    fn agent_respects_config_interval() {
        let config = WanifyConfig { aimd_interval_s: 2.5, ..WanifyConfig::default() };
        let wanify = Wanify::new(config);
        let plan = wanify.try_plan_matrix(&bw3()).unwrap();
        let agent = wanify.agent(&plan);
        assert_eq!(agent.updates(), 0);
    }

    #[test]
    fn initial_conns_equal_window_maximum() {
        let plan = Wanify::new(WanifyConfig::default()).try_plan_matrix(&bw3()).unwrap();
        assert_eq!(plan.initial_conns(), &plan.global.max_cons);
    }

    #[test]
    fn agent_and_throttles_follow_the_plan_bit_for_bit() {
        let wanify = Wanify::default();
        let plan = wanify.try_plan_matrix(&bw3()).unwrap();
        let bits = |m: &BwMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let targets = wanify.agent(&plan).target_bw_matrix();
        assert_eq!(bits(&targets), bits(&plan.feasible_achievable_bw()));
        let caps = throttle_caps(
            &plan.global.max_bw,
            &plan.global.host_egress_mbps,
            Some(&plan.relations),
        );
        assert_eq!(plan.initial_throttles, caps);
        assert!(caps.iter_pairs().any(|(_, _, c)| c.is_finite()), "the plan throttles something");
    }

    #[test]
    fn plan_accepts_any_bandwidth_source() {
        use crate::source::{MeasuredRuntime, Pregauged};
        use wanify_netsim::{paper_testbed_n, LinkModelParams, VmType};

        let wanify = Wanify::new(WanifyConfig::default());
        let mut net =
            NetSim::new(paper_testbed_n(VmType::t3_nano(), 3), LinkModelParams::default(), 3);

        // A measuring source and a replayed matrix go through the same API.
        let measured = wanify.plan(&mut MeasuredRuntime::default(), &mut net).unwrap();
        assert_eq!(measured.initial_conns().len(), 3);

        let mut replay = Pregauged::from(bw3());
        let replayed = wanify.plan(&mut replay, &mut net).unwrap();
        assert_eq!(
            replayed,
            wanify.try_plan_matrix(&bw3()).unwrap(),
            "replay matches matrix-level planning"
        );

        // Trait objects work too (dyn BandwidthSource).
        let dynamic: &mut dyn BandwidthSource = &mut replay;
        assert_eq!(wanify.plan(dynamic, &mut net).unwrap(), replayed);
    }
}
