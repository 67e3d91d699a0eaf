//! Single-vs-multi parity: one job driven through the fleet event loop
//! must reproduce the legacy blocking `run_job` report **bit for bit**.
//!
//! Both paths share the per-query semantics (`JobRun` mirrors `run_job`'s
//! migrate → compute → shuffle progression) but execute through entirely
//! different machinery — `run_transfers` vs `NetEngine` completion events
//! — so this property pins the refactor: a fleet of one *is* the old
//! executor.

use proptest::prelude::*;
use wanify::Pregauged;
use wanify_gda::{
    run_job, Arrivals, DataLayout, FleetConfig, FleetEngine, JobProfile, Kimchi, QueryReport,
    Scheduler, StageProfile, Tetrium, TransferOptions, VanillaSpark,
};
use wanify_netsim::{paper_testbed_n, BwMatrix, ConnMatrix, LinkModelParams, NetSim, VmType};

fn sim(n: usize, seed: u64) -> NetSim {
    NetSim::new(paper_testbed_n(VmType::t2_medium(), n), LinkModelParams::frozen(), seed)
}

fn scheduler(id: usize) -> Box<dyn Scheduler> {
    match id {
        0 => Box::new(VanillaSpark::new()),
        1 => Box::new(Tetrium::new()),
        _ => Box::new(Kimchi::new()),
    }
}

fn assert_bit_identical(fleet: &QueryReport, legacy: &QueryReport) {
    assert_eq!(fleet.job, legacy.job);
    assert_eq!(fleet.scheduler, legacy.scheduler);
    assert_eq!(fleet.belief, legacy.belief);
    assert_eq!(fleet.latency_s.to_bits(), legacy.latency_s.to_bits(), "latency");
    assert_eq!(fleet.min_bw_mbps.to_bits(), legacy.min_bw_mbps.to_bits(), "min_bw");
    assert_eq!(fleet.shuffle_gb.to_bits(), legacy.shuffle_gb.to_bits(), "shuffle_gb");
    assert_eq!(fleet.cost.compute_usd.to_bits(), legacy.cost.compute_usd.to_bits());
    assert_eq!(fleet.cost.network_usd.to_bits(), legacy.cost.network_usd.to_bits());
    assert_eq!(fleet.cost.storage_usd.to_bits(), legacy.cost.storage_usd.to_bits());
    assert_eq!(fleet.egress_gb.len(), legacy.egress_gb.len());
    for (a, b) in fleet.egress_gb.iter().zip(&legacy.egress_gb) {
        assert_eq!(a.to_bits(), b.to_bits(), "egress");
    }
    assert_eq!(fleet.stage_latencies_s.len(), legacy.stage_latencies_s.len());
    for (a, b) in fleet.stage_latencies_s.iter().zip(&legacy.stage_latencies_s) {
        assert_eq!(a.to_bits(), b.to_bits(), "stage latency");
    }
}

#[allow(clippy::too_many_arguments)]
fn check_parity(
    n: usize,
    gb: f64,
    skew_to_first: bool,
    sel: f64,
    compute: f64,
    sched_id: usize,
    conns_per_pair: u32,
    bw_scale: f64,
    seed: u64,
) {
    let mut layout = DataLayout::uniform(n, gb);
    if skew_to_first {
        let half = layout.blocks_per_dc[1] / 2;
        layout.move_blocks(1, 0, half);
    }
    let job = JobProfile::new(
        "parity",
        layout,
        vec![
            StageProfile::shuffling("map", sel, compute),
            StageProfile::shuffling("join", 0.6, 0.5 * compute),
            StageProfile::terminal("agg", 0.1, 0.2),
        ],
    );
    // A synthetic, topology-shaped belief: no probing, no RNG, so both
    // paths plan on exactly the same matrix.
    let bw = BwMatrix::from_fn(n, |i, j| {
        if i == j {
            0.0
        } else {
            bw_scale * (1.0 + ((i * 7 + j * 3) % 5) as f64 * 0.25)
        }
    });
    let conns = ConnMatrix::from_fn(n, |i, j| if i == j { 1 } else { conns_per_pair });

    let legacy = run_job(
        &mut sim(n, seed),
        &job,
        scheduler(sched_id).as_ref(),
        &mut Pregauged::new(bw.clone()),
        TransferOptions { conns: Some(&conns), hook: None },
    )
    .unwrap();

    let fleet_report = FleetEngine::new(
        sim(n, seed),
        scheduler(sched_id),
        Box::new(Pregauged::new(bw)),
        FleetConfig {
            max_concurrent: 1,
            regauge_every_s: f64::INFINITY,
            conns: Some(conns),
            faults: None,
        },
    )
    .run(std::slice::from_ref(&job), &Arrivals::Closed { clients: 1, think_s: 0.0 })
    .unwrap();

    assert_eq!(fleet_report.outcomes.len(), 1);
    assert_bit_identical(&fleet_report.outcomes[0].report, &legacy);
}

proptest! {
    #[test]
    fn lone_fleet_job_matches_blocking_run_job(
        n in 2usize..5,
        gb in 0.0f64..6.0,
        skew_bit in 0usize..2,
        sel in 0.05f64..1.2,
        compute in 0.0f64..3.0,
        sched_id in 0usize..3,
        conns_per_pair in 1u32..5,
        bw_scale in 50.0f64..1500.0,
        seed in 0u64..1_000,
    ) {
        check_parity(n, gb, skew_bit == 1, sel, compute, sched_id, conns_per_pair, bw_scale, seed);
    }
}

#[test]
fn parity_holds_on_the_paper_testbed_with_migration() {
    // Kimchi migrates input; 8 DCs exercises every region pair.
    check_parity(8, 12.0, true, 1.0, 2.0, 2, 4, 400.0, 77);
}

#[test]
fn parity_holds_for_a_computeless_shuffleless_job() {
    check_parity(3, 0.0, false, 0.5, 0.0, 0, 1, 200.0, 5);
}
