//! Fleet-level agent hooks: a [`FleetAgent`] wakes on its own timer,
//! observes the shared WAN, and steers the fleet's connection matrix —
//! without perturbing the simulation when it chooses not to act, and
//! deterministically when it does (including across rayon thread counts
//! and live tick-quantized dynamics).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use wanify::{infer_dc_relations, optimize_global, GlobalPlan, WanifyAgent};
use wanify_gda::{
    Arrivals, FleetAgent, FleetConfig, FleetEngine, FleetReport, RoundRobinShards,
    ShardedFleetEngine, Tetrium,
};
use wanify_netsim::{
    paper_testbed_n, Backbone, ConnMatrix, EpochCtx, EpochHook, LinkModelParams, NetSim, VmType,
    EPOCH_DT_S,
};
use wanify_workloads::{mixed_trace, TraceConfig};

const N_DCS: usize = 4;

fn live_params(tick_s: f64) -> LinkModelParams {
    LinkModelParams { dynamics_tick_s: tick_s, snapshot_noise: 0.0, ..Default::default() }
}

fn fleet(params: LinkModelParams, seed: u64, conns: Option<ConnMatrix>) -> FleetEngine {
    FleetEngine::new(
        NetSim::new(paper_testbed_n(VmType::t2_medium(), N_DCS), params, seed),
        Box::new(Tetrium::new()),
        Box::new(wanify::StaticIndependent::new()),
        FleetConfig { max_concurrent: 8, regauge_every_s: 300.0, conns, faults: None },
    )
}

fn plan() -> GlobalPlan {
    let mut probe =
        NetSim::new(paper_testbed_n(VmType::t2_medium(), N_DCS), LinkModelParams::frozen(), 17);
    let bw = probe.measure_runtime(&ConnMatrix::filled(N_DCS, 1), 5).bw;
    let rel = infer_dc_relations(&bw, 30.0).unwrap();
    optimize_global(&bw, &rel, 8, None, None).unwrap()
}

fn run_key(report: &FleetReport) -> Vec<(Arc<str>, u64, u64)> {
    report
        .outcomes
        .iter()
        .map(|o| (o.report.job.clone(), o.report.latency_s.to_bits(), o.completed_s.to_bits()))
        .collect()
}

/// A hook that never touches the context: the agent machinery around it
/// (wake timers, observation matrices, throttle write-back, connection
/// push-down) must then leave every outcome unchanged up to epoch
/// re-quantization — a wake timer chops the engine's advance windows
/// exactly like a mid-flight submission does, which can re-phase a
/// flow's epoch grid by at most one `EPOCH_DT_S`.
struct Inert {
    wakes: Arc<AtomicUsize>,
}

impl EpochHook for Inert {
    fn on_epoch(&mut self, _ctx: &mut EpochCtx<'_>) {
        self.wakes.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn inert_agent_leaves_fleet_outcomes_unchanged_up_to_requantization() {
    let trace = mixed_trace(&TraceConfig::new(N_DCS, 8, 5).scaled(0.5));
    let arrivals = Arrivals::Closed { clients: 3, think_s: 0.0 };
    let conns = ConnMatrix::filled(N_DCS, 2);

    let plain =
        fleet(LinkModelParams::frozen(), 11, Some(conns.clone())).run(&trace, &arrivals).unwrap();
    let wakes = Arc::new(AtomicUsize::new(0));
    let agent =
        FleetAgent { hook: Box::new(Inert { wakes: Arc::clone(&wakes) }), interval_s: 5.0, conns };
    let hooked = fleet(LinkModelParams::frozen(), 11, None)
        .with_agent(agent)
        .run(&trace, &arrivals)
        .unwrap();

    assert_eq!(hooked.outcomes.len(), 8);
    assert!(wakes.load(Ordering::Relaxed) >= 2, "the run spans several 5 s wake intervals");
    let dt = EPOCH_DT_S;
    for (a, b) in plain.outcomes.iter().zip(&hooked.outcomes) {
        assert_eq!(a.report.job, b.report.job, "completion order must not change");
        assert!(
            (a.report.latency_s - b.report.latency_s).abs() <= dt + 1e-9,
            "{}: inert-agent latency {} vs plain {}",
            a.report.job,
            b.report.latency_s,
            a.report.latency_s
        );
        assert!((a.completed_s - b.completed_s).abs() <= dt + 1e-9);
    }
}

#[test]
fn aimd_agent_fleet_is_deterministic_and_completes() {
    let trace = mixed_trace(&TraceConfig::new(N_DCS, 10, 3).scaled(0.5));
    let arrivals = Arrivals::Poisson { rate_per_s: 0.05, seed: 7 };
    let run = || {
        let p = plan();
        let agent = FleetAgent {
            hook: Box::new(WanifyAgent::new(&p)),
            interval_s: 5.0,
            conns: p.max_cons.clone(),
        };
        fleet(live_params(30.0), 29, None).with_agent(agent).run(&trace, &arrivals).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.outcomes.len(), 10, "every job must complete under the live agent");
    assert_eq!(run_key(&a), run_key(&b), "agent-hooked fleets must be reproducible");
    assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
}

#[test]
fn sharded_agent_fleet_is_thread_count_invariant_under_live_dynamics() {
    // Each shard carries its own AIMD agent and its own tick-quantized
    // dynamics process; the rayon scale-out must not change a bit.
    let trace = mixed_trace(&TraceConfig::new(N_DCS, 10, 2).scaled(0.5));
    let topo = paper_testbed_n(VmType::t2_medium(), N_DCS);
    let run_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            let shards = (0..2)
                .map(|_| {
                    let p = plan();
                    let agent = FleetAgent {
                        hook: Box::new(WanifyAgent::new(&p)),
                        interval_s: 5.0,
                        conns: p.max_cons.clone(),
                    };
                    fleet(live_params(30.0), 11, None).with_agent(agent)
                })
                .collect();
            ShardedFleetEngine::new(
                shards,
                Box::new(RoundRobinShards::new()),
                Some(Backbone::continental(&topo, 2000.0, 5.0)),
            )
            .run(&trace, &Arrivals::Closed { clients: 4, think_s: 0.0 })
            .unwrap()
        })
    };
    let serial = run_with(1);
    let parallel = run_with(4);
    assert_eq!(serial.fleet.outcomes.len(), 10);
    assert_eq!(run_key(&serial.fleet), run_key(&parallel.fleet));
    assert_eq!(serial.fleet.duration_s.to_bits(), parallel.fleet.duration_s.to_bits());
}
