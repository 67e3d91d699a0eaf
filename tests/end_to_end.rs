//! End-to-end integration: netsim → prediction → planning → execution.

use wanify::{
    BandwidthAnalyzer, PredictedRuntime, Pregauged, WanPredictionModel, Wanify, WanifyConfig,
};
use wanify_experiments::common::{Arm, Belief, Effort, ExpEnv, WanifyMode};
use wanify_gda::{run_job, DataLayout, Tetrium, TransferOptions, VanillaSpark};
use wanify_netsim::{paper_testbed_n, ConnMatrix, LinkModelParams, NetSim, VmType};
use wanify_workloads::terasort;

/// The full pipeline of the paper, end to end: probe → train → predict →
/// infer relations → optimize globally → execute with agents — and the
/// result must beat the static single-connection baseline.
#[test]
fn full_pipeline_beats_static_baseline() {
    let env = ExpEnv::new(6, Effort::Quick, 404);
    let job = terasort::job(DataLayout::uniform(6, 12.0));
    let sched = VanillaSpark::new();

    let baseline = env.run_arm(0, &job, &sched, Arm::Single(Belief::StaticIndependent));
    let wanified = env.run_arm(1, &job, &sched, Arm::wanify(WanifyMode::full()));

    assert!(
        wanified.latency_s < baseline.latency_s,
        "WANify {}s must beat the baseline {}s",
        wanified.latency_s,
        baseline.latency_s
    );
    assert!(wanified.min_bw_mbps > baseline.min_bw_mbps);
}

/// The prediction model trained by the analyzer plugs into planning
/// without any manual glue, across cluster sizes.
#[test]
fn predicted_matrix_feeds_planning_for_unseen_cluster_size() {
    let analyzer = BandwidthAnalyzer {
        vm: VmType::t2_medium(),
        params: LinkModelParams::default(),
        samples_per_size: 20,
    };
    let data = analyzer.collect(&[3, 5], 88);
    let model = WanPredictionModel::train(&data, 30, 2);

    // Size 4 was never trained on (§3.3.2 generalization); the predicted
    // source feeds planning directly through the provenance-agnostic API.
    let mut sim =
        NetSim::new(paper_testbed_n(VmType::t2_medium(), 4), LinkModelParams::default(), 99);
    let mut source = PredictedRuntime::new(model);
    let plan = Wanify::new(WanifyConfig::default())
        .plan(&mut source, &mut sim)
        .expect("model generalizes to the unseen size");
    assert_eq!(plan.initial_conns().len(), 4);
    assert!(plan.initial_conns().iter_pairs().any(|(_, _, c)| c > 1));
}

/// Agents drive live transfers: connection counts in the simulator change
/// over the course of a WANify-enabled run.
#[test]
fn agents_adjust_connections_during_execution() {
    let env = ExpEnv::new(4, Effort::Quick, 505);
    let mut sim = env.sim(0);
    let wanify = Wanify::new(WanifyConfig::default());
    let plan = wanify
        .plan(env.source(Belief::Predicted).as_mut(), &mut sim)
        .expect("predicted source matches topology");
    let mut agent = wanify.agent(&plan).traced(0);
    let job = terasort::job(DataLayout::uniform(4, 10.0));
    let conns = plan.initial_conns().clone();
    let _ = run_job(
        &mut sim,
        &job,
        &Tetrium::new(),
        &mut Pregauged::named(plan.achievable_bw().clone(), "wanify(predicted)"),
        TransferOptions { conns: Some(&conns), hook: Some(&mut agent) },
    )
    .unwrap();
    assert!(agent.updates() > 0, "agents must run during the shuffle");
    assert!(!agent.trace().is_empty());
}

/// Reproducibility: the same seed yields bit-identical end-to-end results.
#[test]
fn end_to_end_determinism() {
    let run = || {
        let env = ExpEnv::new(4, Effort::Quick, 606);
        let job = terasort::job(DataLayout::uniform(4, 5.0));
        let r = env.run_arm(0, &job, &VanillaSpark::new(), Arm::wanify(WanifyMode::full()));
        (r.latency_s, r.cost.total_usd(), r.min_bw_mbps)
    };
    assert_eq!(run(), run());
}

/// Multi-cloud refactoring (§3.3.3/§5.8.3): an AWS+GCP cluster plans with
/// an rvec that discounts the minority provider, and the resulting plan
/// still lifts the weakest link on the live simulator.
#[test]
fn multi_cloud_refactoring_end_to_end() {
    use wanify::refactoring_vector;
    use wanify_netsim::{Region, Topology};

    let topo = Topology::builder()
        .dc(Region::UsEast, VmType::t2_medium(), 1)
        .dc(Region::UsWest, VmType::t2_medium(), 1)
        .dc(Region::ApSoutheast1, VmType::t2_medium(), 1)
        .dc(Region::GcpUsCentral, VmType::e2_medium(), 1)
        .build()
        .expect("4-DC multi-cloud cluster");
    let rvec = refactoring_vector(&topo);
    assert_eq!(rvec, vec![1.0, 1.0, 1.0, 0.8], "GCP DC discounted");

    let mut sim = NetSim::new(topo, LinkModelParams::default(), 909);
    let runtime = sim.measure_runtime(&ConnMatrix::filled(4, 1), 20).bw;
    let wanify = Wanify::new(WanifyConfig { rvec: Some(rvec), ..WanifyConfig::default() });
    let plan = wanify.try_plan_matrix(&runtime).unwrap();

    // rvec scales achievable bandwidth for cross-provider pairs only.
    let base = Wanify::new(WanifyConfig::default()).try_plan_matrix(&runtime).unwrap();
    let cross = plan.achievable_bw().get(0, 3) / base.achievable_bw().get(0, 3);
    let same = plan.achievable_bw().get(0, 1) / base.achievable_bw().get(0, 1);
    assert!((cross - 0.8).abs() < 1e-9, "cross-provider scaled by rvec: {cross}");
    assert!((same - 1.0).abs() < 1e-9, "intra-provider untouched: {same}");

    // The plan still raises the weakest link when executed.
    sim.set_throttles(&plan.initial_throttles);
    let balanced = sim.measure_runtime(plan.initial_conns(), 20).bw;
    assert!(
        balanced.min_off_diag() > runtime.min_off_diag(),
        "balanced {} vs single-connection {}",
        balanced.min_off_diag(),
        runtime.min_off_diag()
    );
}
