//! Cross-crate scheduler behaviour on the live simulator.

use wanify::Pregauged;
use wanify_experiments::common::{Arm, Belief, Effort, ExpEnv};
use wanify_gda::{run_job, Kimchi, Scheduler, Tetrium, TransferOptions, VanillaSpark};
use wanify_netsim::BwMatrix;
use wanify_workloads::{terasort, TpcDsQuery};

/// WAN-aware schedulers beat vanilla Spark on a heterogeneous WAN for a
/// shuffle-heavy job, whatever the belief source.
#[test]
fn wan_aware_schedulers_beat_vanilla_on_terasort() {
    let env = ExpEnv::new(6, Effort::Quick, 701);
    let job = terasort::job(wanify_gda::DataLayout::uniform(6, 12.0));
    let mut latencies = Vec::new();
    let schedulers: Vec<Box<dyn Scheduler>> =
        vec![Box::new(VanillaSpark::new()), Box::new(Tetrium::new()), Box::new(Kimchi::new())];
    for sched in &schedulers {
        let r = env.run_arm(0, &job, sched.as_ref(), Arm::Single(Belief::StaticSimultaneous));
        latencies.push((sched.name().to_string(), r.latency_s));
    }
    let vanilla = latencies[0].1;
    for (name, lat) in &latencies[1..] {
        assert!(*lat <= vanilla * 1.02, "{name} ({lat}s) should not lose to vanilla ({vanilla}s)");
    }
}

/// Kimchi spends less on the network than Tetrium when an expensive region
/// holds the data (its raison d'être), at bounded latency overhead.
#[test]
fn kimchi_trades_latency_for_cost() {
    let env = ExpEnv::new(6, Effort::Quick, 702);
    // All input in SA East (the priciest egress region of the testbed).
    let mut gb = vec![0.0; 6];
    gb[5] = 12.0;
    let job = wanify_gda::JobProfile::new(
        "sa-heavy",
        wanify_gda::DataLayout::from_gb(&gb),
        vec![
            wanify_gda::StageProfile::shuffling("map", 1.0, 1.0),
            wanify_gda::StageProfile::terminal("reduce", 0.1, 0.5),
        ],
    );
    let run_with = |sched: &dyn Scheduler, run_id: u64| {
        env.run_arm(run_id, &job, sched, Arm::Single(Belief::StaticSimultaneous))
    };
    let tetrium = run_with(&Tetrium::new(), 0);
    let kimchi = run_with(&Kimchi::new(), 0);
    assert!(
        kimchi.cost.network_usd <= tetrium.cost.network_usd * 1.001,
        "kimchi network ${} should not exceed tetrium ${}",
        kimchi.cost.network_usd,
        tetrium.cost.network_usd
    );
}

/// A scheduler believing a degenerate matrix must still return valid
/// fractions and the executor must complete the job.
#[test]
fn schedulers_survive_degenerate_beliefs() {
    let env = ExpEnv::new(4, Effort::Quick, 703);
    let job = TpcDsQuery::Q95.job(4, 4.0);
    for matrix in [
        BwMatrix::filled(4, 0.0),
        BwMatrix::filled(4, 1e9),
        BwMatrix::from_fn(4, |i, j| if i == j { 0.0 } else { 1.0 }),
    ] {
        let mut sim = env.sim(0);
        let r = run_job(
            &mut sim,
            &job,
            &Tetrium::new(),
            &mut Pregauged::from(matrix),
            TransferOptions::default(),
        )
        .unwrap();
        assert!(r.latency_s.is_finite() && r.latency_s > 0.0);
    }
}

/// Input migration triggered by a stranded region actually moves the data
/// before the first stage and pays for it in the report.
#[test]
fn tetrium_migration_registers_in_the_report() {
    let env = ExpEnv::new(4, Effort::Quick, 704);
    let job = terasort::job(wanify_gda::DataLayout::uniform(4, 4.0));
    // A belief that marks DC2 as hopeless: best outgoing link 20 Mbps.
    let belief = BwMatrix::from_fn(4, |i, j| {
        if i == j {
            0.0
        } else if i == 2 {
            20.0
        } else {
            1000.0
        }
    });
    let mut sim = env.sim(0);
    let migrating = run_job(
        &mut sim,
        &job,
        &Tetrium::new(),
        &mut Pregauged::from(belief),
        TransferOptions::default(),
    )
    .unwrap();
    // DC2 must have exported its share of the input over the WAN.
    assert!(
        migrating.egress_gb[2] >= 0.9,
        "stranded DC2 should have migrated ~1 GB out, got {}",
        migrating.egress_gb[2]
    );
}
