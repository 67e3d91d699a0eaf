//! The `BandwidthSource` abstraction exercised end to end: every
//! provenance (static-independent, static-simultaneous, predicted,
//! measured-runtime) flows through `Wanify::plan`, all three `wanify-gda`
//! schedulers, and the executor without any provenance-specific API.

use wanify::{
    BandwidthSource, MeasuredRuntime, PredictedRuntime, Pregauged, StaticIndependent,
    StaticSimultaneous, Wanify, WanifyConfig,
};
use wanify_experiments::common::{Belief, Effort, ExpEnv};
use wanify_gda::{run_job, Kimchi, Scheduler, Tetrium, TransferOptions, VanillaSpark};
use wanify_netsim::BwMatrix;
use wanify_workloads::terasort;

fn all_sources(env: &ExpEnv) -> Vec<Box<dyn BandwidthSource>> {
    vec![
        Box::new(StaticIndependent::new()),
        Box::new(StaticSimultaneous::default()),
        Box::new(PredictedRuntime::new(env.model.clone())),
        Box::new(MeasuredRuntime::default()),
    ]
}

/// `Wanify::plan` accepts every source impl through one signature and
/// produces a structurally valid plan for each.
#[test]
fn plan_works_with_every_source() {
    let env = ExpEnv::new(4, Effort::Quick, 801);
    let wanify = Wanify::new(WanifyConfig::default());
    for (k, mut source) in all_sources(&env).into_iter().enumerate() {
        let mut sim = env.sim(k as u64);
        let plan = wanify
            .plan(source.as_mut(), &mut sim)
            .unwrap_or_else(|e| panic!("{} failed to plan: {e}", source.name()));
        assert_eq!(plan.initial_conns().len(), 4, "{}", source.name());
        assert!(
            plan.initial_conns().iter_pairs().any(|(_, _, c)| c >= 1),
            "{} must open connections",
            source.name()
        );
        assert!(plan.achievable_bw().max_off_diag() > 0.0, "{}", source.name());
    }
}

/// Every scheduler consumes every source through the executor; the report
/// records the belief's provenance.
#[test]
fn every_scheduler_runs_on_every_source() {
    let env = ExpEnv::new(3, Effort::Quick, 802);
    let job = terasort::job(wanify_gda::DataLayout::uniform(3, 2.0));
    let schedulers: Vec<Box<dyn Scheduler>> =
        vec![Box::new(VanillaSpark::new()), Box::new(Tetrium::new()), Box::new(Kimchi::new())];
    let names = ["static-independent", "static-simultaneous", "predicted", "measured-runtime"];
    for sched in &schedulers {
        for (mut source, expected_name) in all_sources(&env).into_iter().zip(names) {
            let mut sim = env.sim(7);
            let report = run_job(
                &mut sim,
                &job,
                sched.as_ref(),
                source.as_mut(),
                TransferOptions::default(),
            )
            .unwrap();
            assert!(report.latency_s > 0.0, "{}/{expected_name}", sched.name());
            assert_eq!(&*report.belief, expected_name, "{}", sched.name());
        }
    }
}

/// The dyn-safe `Scheduler::place_reduce_from` plans directly from a
/// source, and the placement matches planning on the gauged matrix.
#[test]
fn place_reduce_from_matches_matrix_level_placement() {
    let env = ExpEnv::new(4, Effort::Quick, 803);
    let out_gb = vec![2.0, 1.0, 3.0, 0.5];
    for sched in [&VanillaSpark::new() as &dyn Scheduler, &Tetrium::new(), &Kimchi::new()] {
        // Static sources cache, so two gauges of one instance agree.
        let mut source = StaticIndependent::new();
        let mut sim = env.sim(1);
        let fractions = sched.place_reduce_from(&mut source, &mut sim, &out_gb, 1.0);
        assert_eq!(fractions.len(), 4);
        assert!((fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{}", sched.name());

        let gauged = source.gauge(&mut sim).unwrap();
        let again = sched.place_reduce_from(&mut Pregauged::from(gauged), &mut sim, &out_gb, 1.0);
        assert_eq!(fractions, again, "{}", sched.name());
    }
}

/// The provenance hierarchy the paper claims (§5.2, Fig. 11): against
/// fresh runtime measurements, the predicted belief is closer than the
/// static-independent belief in most epochs.
#[test]
fn predicted_source_closer_to_runtime_than_static() {
    let env = ExpEnv::new(4, Effort::Quick, 804);
    let mut sim = env.sim(3);
    let static_bw = env.gauge(Belief::StaticIndependent, &mut sim);
    let rounds = 5;
    let mut predicted_wins = 0;
    for _ in 0..rounds {
        sim.shuffle_time();
        let predicted = env.gauge(Belief::Predicted, &mut sim);
        let runtime = env.gauge(Belief::MeasuredRuntime, &mut sim);
        let err = |m: &BwMatrix| -> f64 {
            m.iter_pairs().map(|(i, j, v)| (v - runtime.get(i, j)).abs()).sum()
        };
        if err(&predicted) < err(&static_bw) {
            predicted_wins += 1;
        }
    }
    assert!(
        predicted_wins * 2 > rounds,
        "predicted belief should beat the stale static view in most epochs, won \
         {predicted_wins}/{rounds}"
    );
}

/// Static sources hold their first measurement while runtime sources track
/// the drifting network — the exact coupling Table 1 quantifies.
#[test]
fn static_sources_go_stale_runtime_sources_do_not() {
    let env = ExpEnv::new(3, Effort::Quick, 805);
    let mut sim = env.sim(4);
    let mut stale = StaticSimultaneous::default();
    let mut live = MeasuredRuntime::default();
    let first_stale = stale.gauge(&mut sim).unwrap();
    let first_live = live.gauge(&mut sim).unwrap();
    sim.shuffle_time();
    assert_eq!(first_stale, stale.gauge(&mut sim).unwrap());
    assert_ne!(first_live, live.gauge(&mut sim).unwrap());
}
