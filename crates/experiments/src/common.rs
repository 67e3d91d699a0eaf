//! The evaluation grid's shared half: the environment, the arms and the
//! one runner.
//!
//! The paper's evaluation (§5.2–§5.8) is one grid — workload × bandwidth
//! belief × scheduler × transfer layer → latency, cost, minimum
//! bandwidth. [`ExpEnv`] is the testbed plus the trained model; an
//! [`Arm`] names a belief and a transfer layer; [`ExpEnv::run_arm`]
//! executes one cell of the grid and [`crate::table`] holds what it
//! measured. A figure module is an arm list plus a header.

use std::sync::Arc;
use wanify::{
    BandwidthAnalyzer, BandwidthSource, MeasuredRuntime, PredictedRuntime, Pregauged,
    StaticIndependent, StaticSimultaneous, WanPredictionModel, Wanify, WanifyConfig,
};
use wanify_forest::Dataset;
use wanify_gda::{
    run_job, FleetConfig, FleetEngine, JobProfile, Kimchi, QueryReport, Scheduler, Tetrium,
    TransferOptions,
};
use wanify_netsim::{
    paper_testbed_n, BwMatrix, ConnMatrix, LinkModelParams, NetSim, Topology, VmType,
};

/// How much compute to spend on an experiment.
///
/// `Quick` keeps unit/integration tests fast; `Full` approaches the
/// paper's sample counts and is what the `repro` binary runs by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small sample counts for tests.
    Quick,
    /// Paper-scale sample counts.
    Full,
}

impl Effort {
    /// Training samples per cluster size for the prediction model.
    pub fn samples_per_size(self) -> usize {
        match self {
            Effort::Quick => 25,
            Effort::Full => 100,
        }
    }

    /// Random-forest size (paper: 100 estimators).
    pub fn n_estimators(self) -> usize {
        match self {
            Effort::Quick => 25,
            Effort::Full => 100,
        }
    }

    /// Input scale factor applied to the big workloads.
    pub fn input_scale(self) -> f64 {
        match self {
            Effort::Quick => 0.25,
            Effort::Full => 1.0,
        }
    }
}

/// The bandwidth beliefs of §5.2, by provenance. Tables label a belief
/// by its source's name ([`BandwidthSource::name`], which every
/// [`QueryReport`] carries as `belief`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Belief {
    /// One pair at a time, measured once (existing systems).
    StaticIndependent,
    /// All pairs at once for 20 s, measured once.
    StaticSimultaneous,
    /// WANify: fresh snapshot through the trained model per gauge.
    Predicted,
    /// Ground truth: fresh stable measurement per gauge.
    MeasuredRuntime,
}

/// Which WANify pieces an [`Arm::Wanify`] enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WanifyMode {
    /// Use the heterogeneous connection plan (global optimization).
    pub global: bool,
    /// Run the AIMD local agents during shuffles.
    pub local: bool,
    /// Enable traffic-control throttling.
    pub throttling: bool,
}

impl WanifyMode {
    /// Everything on (the paper's default WANify / WANify-TC).
    pub const fn full() -> Self {
        Self { global: true, local: true, throttling: true }
    }

    /// Global + local without throttling (WANify-Dynamic).
    pub const fn dynamic() -> Self {
        Self { global: true, local: true, throttling: false }
    }

    /// Global optimization only (the Fig. 8 ablation arm).
    pub const fn global_only() -> Self {
        Self { global: true, local: false, throttling: false }
    }

    /// Local agents only, on a static 1..=M window (Fig. 8 ablation arm).
    pub const fn local_only() -> Self {
        Self { global: false, local: true, throttling: false }
    }
}

/// One arm of the evaluation grid: what the scheduler believes and what
/// carries its transfers. The parallel layers run on WANify's predicted
/// runtime bandwidth, as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// One connection per pair, planning on the given belief (the
    /// schedulers as published, on static-independent).
    Single(Belief),
    /// The same `k` parallel connections on every pair (WANify-P).
    Uniform(u32),
    /// WANify's heterogeneous plan per `mode`; `skew` feeds the job's
    /// storage-layer skew weights into the plan (§5.8.1).
    Wanify {
        /// Which WANify pieces are on.
        mode: WanifyMode,
        /// Whether the plan sees the input layout's skew weights.
        skew: bool,
    },
}

impl Arm {
    /// WANify per `mode`, skew-unaware.
    pub const fn wanify(mode: WanifyMode) -> Self {
        Arm::Wanify { mode, skew: false }
    }

    /// The belief the arm plans on.
    pub fn belief(self) -> Belief {
        match self {
            Arm::Single(belief) => belief,
            Arm::Uniform(_) | Arm::Wanify { .. } => Belief::Predicted,
        }
    }
}

/// The standard experiment environment: a testbed, a trained prediction
/// model and the bandwidth beliefs of §5.2. It is also what every registry
/// entry runs under — `repro` builds the 8-DC one once (the fit is
/// seed-deterministic at any thread count) and hands it to each.
#[derive(Debug)]
pub struct ExpEnv {
    /// Number of DCs.
    pub n: usize,
    /// The testbed every [`ExpEnv::sim`] is built on.
    pub topo: Topology,
    /// Base RNG seed; every run derives from it deterministically.
    pub seed: u64,
    /// Trained WAN prediction model, shared by every predicted source
    /// built from this environment.
    pub model: Arc<WanPredictionModel>,
    /// Effort level used to build the environment.
    pub effort: Effort,
}

/// The analyzer's training set over cluster `sizes` at `effort`'s sample
/// count, on the worker VM flavor.
pub fn training_data(effort: Effort, sizes: &[usize], seed: u64) -> Dataset {
    let analyzer = BandwidthAnalyzer {
        vm: VmType::t2_medium(),
        params: LinkModelParams::default(),
        samples_per_size: effort.samples_per_size(),
    };
    analyzer.collect(sizes, seed)
}

impl ExpEnv {
    /// The first `n` paper regions, the model trained on sizes `2..=n`
    /// (capped to 8) as §3.3.2 prescribes.
    pub fn new(n: usize, effort: Effort, seed: u64) -> Self {
        let topo = paper_testbed_n(VmType::t2_medium(), n);
        let sizes: Vec<usize> = (2..=n.min(8)).collect();
        Self::trained(topo, &sizes, [seed ^ 0xA5A5, seed ^ 0x5A5A], effort, seed)
    }

    /// Any testbed, the model trained on cluster `sizes` with the given
    /// `[collect, fit]` seeds.
    pub fn trained(
        topo: Topology,
        sizes: &[usize],
        [collect_seed, fit_seed]: [u64; 2],
        effort: Effort,
        seed: u64,
    ) -> Self {
        let data = training_data(effort, sizes, collect_seed);
        let model = WanPredictionModel::train(&data, effort.n_estimators(), fit_seed);
        Self { n: topo.len(), topo, seed, model: Arc::new(model), effort }
    }

    /// A fresh simulator on the environment's testbed, offset by `run`.
    pub fn sim(&self, run: u64) -> NetSim {
        let seed = self.seed.wrapping_add(run.wrapping_mul(0x9E37_79B9));
        NetSim::new(self.topo.clone(), LinkModelParams::default(), seed)
    }

    /// Builds a [`BandwidthSource`] for the requested belief.
    ///
    /// Predicted beliefs share the environment's trained model; static
    /// beliefs start cold and cache their first measurement.
    pub fn source(&self, belief: Belief) -> Box<dyn BandwidthSource> {
        match belief {
            Belief::StaticIndependent => Box::new(StaticIndependent::new()),
            Belief::StaticSimultaneous => Box::new(StaticSimultaneous::default()),
            Belief::Predicted => Box::new(PredictedRuntime::new(self.model.clone())),
            Belief::MeasuredRuntime => Box::new(MeasuredRuntime::default()),
        }
    }

    /// Gauges one belief matrix from `sim` (a convenience over
    /// [`ExpEnv::source`] for drivers that need the raw matrix).
    pub fn gauge(&self, belief: Belief, sim: &mut NetSim) -> BwMatrix {
        self.source(belief).gauge(sim).expect("environment sources match their topology")
    }

    /// Runs `job` under `scheduler` on one arm of the grid, on the
    /// simulator derived from `run_id` — arms that share a `run_id` see
    /// the same network.
    pub fn run_arm(
        &self,
        run_id: u64,
        job: &JobProfile,
        scheduler: &dyn Scheduler,
        arm: Arm,
    ) -> QueryReport {
        run_arm_on(&mut self.sim(run_id), job, scheduler, self.source(arm.belief()).as_mut(), arm)
    }
}

/// The two WAN-aware GDA schedulers the paper evaluates, in table order.
pub fn wan_aware_schedulers() -> [Box<dyn Scheduler>; 2] {
    [Box::new(Tetrium::new()), Box::new(Kimchi::new())]
}

/// `k` connections on every directed pair.
pub fn uniform_conns(n: usize, k: u32) -> ConnMatrix {
    ConnMatrix::from_fn(n, |i, j| if i == j { 1 } else { k })
}

/// [`ExpEnv::run_arm`] for callers that bring their own simulator and
/// their own `source`, which stands in for the arm's belief. The plain
/// arms hand the source to the scheduler as is.
pub fn run_arm_on(
    sim: &mut NetSim,
    job: &JobProfile,
    scheduler: &dyn Scheduler,
    source: &mut dyn BandwidthSource,
    arm: Arm,
) -> QueryReport {
    let uniform;
    let conns = match arm {
        Arm::Wanify { mode, skew } => return wanify_arm(sim, job, scheduler, source, mode, skew),
        Arm::Uniform(k) => {
            uniform = uniform_conns(sim.topology().len(), k);
            Some(&uniform)
        }
        Arm::Single(_) => None,
    };
    run_job(sim, job, scheduler, source, TransferOptions { conns, hook: None })
        .expect("environment jobs match their topology")
}

/// WANify gauges the source once and plans on the gauged matrix; the
/// scheduler receives the plan's feasible achievable-bandwidth belief,
/// transfers start from the plan's connection matrix and the agents
/// fine-tune from there.
fn wanify_arm(
    sim: &mut NetSim,
    job: &JobProfile,
    scheduler: &dyn Scheduler,
    source: &mut dyn BandwidthSource,
    mode: WanifyMode,
    skew: bool,
) -> QueryReport {
    let n = sim.topology().len();
    let predicted_bw = source.gauge(sim).expect("bandwidth source must match the topology");
    let wanify = Wanify::new(WanifyConfig {
        throttling: mode.throttling,
        skew_weights: skew.then(|| job.layout.skew_weights()),
        ..WanifyConfig::default()
    });
    let plan = if mode.global {
        wanify.try_plan_matrix(&predicted_bw).expect("skew weights cover every DC")
    } else {
        // Local-only ablation: a flat 1..=M window on every pair, unaware
        // of inferred closeness (paper §5.5).
        let flat = BwMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { 1.0 });
        let mut plan = wanify.try_plan_matrix(&flat).expect("skew weights cover every DC");
        // Achievable BW still derives from the prediction so AIMD targets
        // are meaningful.
        plan.global.max_bw = BwMatrix::from_fn(n, |i, j| {
            predicted_bw.get(i, j) * f64::from(plan.global.max_cons.get(i, j))
        });
        plan.global.min_bw = predicted_bw.clone();
        plan.global.host_egress_mbps = (0..n)
            .map(|i| (0..n).filter(|&j| j != i).map(|j| predicted_bw.get(i, j)).sum())
            .collect();
        plan
    };

    // A plan without throttling carries an all-uncapped table.
    sim.set_throttles(&plan.initial_throttles);
    let mut belief =
        Pregauged::named(plan.feasible_achievable_bw(), format!("wanify({})", source.name()));
    let conns = plan.initial_conns().clone();
    let mut agent = wanify.agent(&plan);
    let opts = TransferOptions {
        conns: Some(&conns),
        hook: if mode.local { Some(&mut agent) } else { None },
    };
    let report = run_job(sim, job, scheduler, &mut belief, opts)
        .expect("wanified jobs match their topology");
    sim.clear_throttles();
    report
}

/// The fleet engine every fleet study and fleet bench serves from:
/// Tetrium placement over `sim`, one shared `belief` re-gauged every
/// `regauge_every_s`, `max_concurrent` admission slots.
pub fn fleet_engine(
    sim: NetSim,
    belief: Box<dyn BandwidthSource>,
    max_concurrent: usize,
    regauge_every_s: f64,
) -> FleetEngine {
    let config = FleetConfig { max_concurrent, regauge_every_s, ..FleetConfig::default() };
    FleetEngine::new(sim, Box::new(Tetrium::new()), belief, config)
}

/// Percentage improvement of `new` over `baseline` (positive = better/lower).
pub fn improvement_pct(baseline: f64, new: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    100.0 * (baseline - new) / baseline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Measured;
    use wanify_gda::{DataLayout, StageProfile};

    fn small_job(name: &str) -> JobProfile {
        JobProfile::new(
            name,
            DataLayout::uniform(3, 2.0),
            vec![StageProfile::shuffling("m", 1.0, 1.0), StageProfile::terminal("r", 0.1, 0.5)],
        )
    }

    #[test]
    fn improvement_pct_signs() {
        assert!((improvement_pct(100.0, 80.0) - 20.0).abs() < 1e-12);
        assert!(improvement_pct(100.0, 120.0) < 0.0);
        assert_eq!(improvement_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn env_beliefs_have_consistent_shape() {
        let env = ExpEnv::new(4, Effort::Quick, 3);
        let mut sim = env.sim(0);
        let a = env.gauge(Belief::StaticIndependent, &mut sim);
        let b = env.gauge(Belief::StaticSimultaneous, &mut sim);
        let c = env.gauge(Belief::Predicted, &mut sim);
        let d = env.gauge(Belief::MeasuredRuntime, &mut sim);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
        assert_eq!(c.len(), 4);
        assert_eq!(d.len(), 4);
        assert!(c.max_off_diag() > 0.0);
    }

    #[test]
    fn wanified_run_executes_all_modes() {
        let env = ExpEnv::new(3, Effort::Quick, 5);
        let job = small_job("t");
        for mode in [
            WanifyMode::full(),
            WanifyMode::dynamic(),
            WanifyMode::global_only(),
            WanifyMode::local_only(),
        ] {
            for skew in [false, true] {
                let arm = Arm::Wanify { mode, skew };
                let report = env.run_arm(1, &job, &Tetrium::new(), arm);
                assert!(report.latency_s > 0.0, "{arm:?} must produce a run");
            }
        }
        let uniform = env.run_arm(1, &job, &Tetrium::new(), Arm::Uniform(8));
        assert!(uniform.latency_s > 0.0 && &*uniform.belief == "predicted");
    }

    #[test]
    fn compare_produces_both_arms() {
        let env = ExpEnv::new(3, Effort::Quick, 8);
        let job = small_job("cmp");
        let baseline =
            env.run_arm(2, &job, &Tetrium::new(), Arm::Single(Belief::StaticIndependent));
        let wanified = env.run_arm(2, &job, &Tetrium::new(), Arm::wanify(WanifyMode::full()));
        assert_eq!(&*baseline.belief, "static-independent");
        assert!(wanified.belief.starts_with("wanify("));
        assert!(Measured::from(&wanified).gain_over(&Measured::from(&baseline)).min_bw_ratio > 0.0);
    }

    #[test]
    fn belief_labels_match_source_names() {
        let env = ExpEnv::new(3, Effort::Quick, 9);
        for (belief, label) in [
            (Belief::StaticIndependent, "static-independent"),
            (Belief::StaticSimultaneous, "static-simultaneous"),
            (Belief::Predicted, "predicted"),
            (Belief::MeasuredRuntime, "measured-runtime"),
        ] {
            assert_eq!(env.source(belief).name(), label);
        }
    }
}
