//! The seven tracked workloads, their floors and the registry.
//!
//! Every entry runs its workload through [`identical`], asserts its
//! floors, and returns the `deterministic` / `wall` sections of its
//! file. Behavioural floors hold in every mode; wall-clock floors are
//! machine-dependent and deliberately far below what the release build
//! does — they only catch catastrophic regressions (losing event
//! coalescing, materializing a streamed trace).

use crate::Value::{Arr, Obj};
use crate::{
    all_pair_flows, all_pair_transfers, fingerprint, fixed, frozen_sim, identical, live_sim, num,
    text, timed, Bench, NoopHook, Run, Value,
};
use std::fmt::Write as _;
use std::hint::black_box;
use wanify::StaticIndependent;
use wanify_experiments::common::fleet_engine;
use wanify_experiments::{gateway as gateway_study, sharded as sharded_study, Effort};
use wanify_gda::{
    poisson_times_iter, Arrivals, FleetReport, JobProfile, RoundRobinShards, ShardedFleetEngine,
    ShardedFleetReport,
};
use wanify_netsim::{
    paper_testbed_tiled, BackboneHierarchy, ConnMatrix, DcId, EpochHook, FlowSpec, LinkModelParams,
    NetEngine, NetSim, RateScratch, RunStats, VmType,
};
use wanify_workloads::{mixed_trace, trace_iter, TraceConfig};

/// Every `bench` entry; `all` runs them in this order (cheapest first).
pub static REGISTRY: [Bench; 7] = [
    Bench { name: "netsim", run: netsim },
    Bench { name: "dynamics", run: dynamics },
    Bench { name: "scenarios", run: scenarios },
    Bench { name: "gateway", run: gateway },
    Bench { name: "fleet", run: fleet },
    Bench { name: "sharded", run: sharded },
    Bench { name: "scale", run: scale },
];

// Behavioural floors, asserted in every mode.
/// `dynamics`: per-epoch solves over coalesced solves under live dynamics.
const MIN_SOLVE_RATIO: f64 = 10.0;
/// `gateway`: goodput at 2x saturation over goodput at saturation.
const GOODPUT_FLOOR_AT_2X: f64 = 0.8;
/// `scale`: the largest arm's memory proxy over the middle arm's,
/// despite serving 10x the queries.
const MAX_PEAK_GROWTH: f64 = 2.0;

// Wall-clock floors.
/// `fleet`: completed queries per wall-second, both modes.
const FLEET_MIN_JOBS_PER_WALL_S: f64 = 5.0;
/// `netsim` and `dynamics`: coalesced over per-epoch stepping, full mode.
const MIN_COALESCING_SPEEDUP: f64 = 10.0;
/// `sharded`: 4 shards over the single engine on the 8-DC trace, full mode.
const MIN_SPEEDUP_AT_4_SHARDS: f64 = 2.0;
/// `scale`: completed queries per wall-second at the largest arm, full mode.
const SCALE_MIN_JOBS_PER_WALL_S: f64 = 100.0;

/// One bit-exact line per retained outcome.
fn outcome_lines(report: &FleetReport) -> String {
    let mut out = String::new();
    for o in &report.outcomes {
        let _ = writeln!(
            out,
            "{} latency={:016x} arrived={:016x} admitted={:016x} completed={:016x}",
            o.report.job,
            o.report.latency_s.to_bits(),
            o.arrived_s.to_bits(),
            o.admitted_s.to_bits(),
            o.completed_s.to_bits(),
        );
    }
    out
}

/// Digest of a fully retained fleet report (`fleet`, `sharded`).
fn fleet_digest(report: &FleetReport) -> String {
    let mut out = outcome_lines(report);
    let _ = writeln!(out, "duration={:016x} gauges={}", report.duration_s.to_bits(), report.gauges);
    out
}

/// One `run_transfers` pass of [`coalescing`].
struct Stepped {
    epochs: u64,
    makespan_s: f64,
    stats: RunStats,
    wall_s: f64,
}

/// What [`coalescing`] hands its two callers: the entries of their
/// section, the solve-count ratio and the gated digest.
struct Coalescing {
    deterministic: Vec<(&'static str, Value)>,
    wall: Vec<(&'static str, Value)>,
    solve_ratio: f64,
    digest: String,
}

/// 8-DC all-pairs `run_transfers` on the simulator `sim` builds, twice:
/// on the event-coalescing fast path, and forced onto per-epoch stepping
/// by a do-nothing hook (the pre-coalescing solve-per-epoch cost model).
/// The two must agree bit for bit.
fn coalescing(label: &str, sim: impl Fn() -> NetSim, payload_gb: f64, smoke: bool) -> Coalescing {
    let transfers = all_pair_transfers(8, payload_gb);
    let conns = ConnMatrix::filled(8, 2);
    let stepped = |per_epoch: bool| {
        let mut sim = sim();
        let mut hook = NoopHook;
        let hook = per_epoch.then_some(&mut hook as &mut dyn EpochHook);
        let (report, wall_s) = timed(|| sim.run_transfers(&transfers, &conns, hook));
        Stepped {
            epochs: report.epochs as u64,
            makespan_s: report.makespan_s,
            stats: sim.last_run_stats(),
            wall_s,
        }
    };
    let line = |mode: &str, s: &Stepped| {
        format!(
            "{mode} epochs={} makespan={:016x} solves={}\n",
            s.epochs,
            s.makespan_s.to_bits(),
            s.stats.solves
        )
    };
    let ((fast, slow), _, digest) = identical(
        label,
        || (stepped(false), stepped(true)),
        |(fast, slow)| line("coalesced", fast) + &line("per_epoch", slow),
    );
    assert_eq!(fast.epochs, slow.epochs, "{label}: modes must simulate identical epochs");
    assert_eq!(
        fast.makespan_s.to_bits(),
        slow.makespan_s.to_bits(),
        "{label}: modes must agree bit for bit"
    );
    assert!(fast.stats.coalesced, "{label}: the hook-free run must keep the fast path");
    let speedup = slow.wall_s / fast.wall_s.max(1e-12);
    assert!(
        smoke || speedup >= MIN_COALESCING_SPEEDUP,
        "{label}: coalescing speedup regressed below {MIN_COALESCING_SPEEDUP}x: {speedup:.1}x"
    );
    let wall_of = |s: &Stepped| {
        Obj(vec![
            ("wall_s", fixed(s.wall_s, 6)),
            ("epochs_per_wall_s", fixed(s.epochs as f64 / s.wall_s.max(1e-12), 0)),
        ])
    };
    Coalescing {
        deterministic: vec![
            ("workload", text(format!("8dc_all_pairs_{payload_gb}gb"))),
            ("simulated_epochs", num(fast.epochs)),
            ("makespan_s", fixed(fast.makespan_s, 1)),
            ("coalesced", Obj(vec![("solves", num(fast.stats.solves))])),
            ("per_epoch", Obj(vec![("solves", num(slow.stats.solves))])),
        ],
        wall: vec![
            ("coalesced", wall_of(&fast)),
            ("per_epoch", wall_of(&slow)),
            ("speedup", fixed(speedup, 1)),
        ],
        solve_ratio: slow.stats.solves as f64 / fast.stats.solves.max(1) as f64,
        digest,
    }
}

/// The netsim hot path: solver ns/iter through the zero-alloc
/// `RateScratch` path, event coalescing on a frozen network, and the
/// [`probes`]. Full
/// mode sizes the slowest pair past 1000 simulated seconds, the regime
/// the coalescing loop is built for.
fn netsim(smoke: bool) -> Run {
    let sim = frozen_sim(8);
    let flows = all_pair_flows(8, 4);
    let mut scratch = RateScratch::default();
    let iters: u32 = if smoke { 200 } else { 5_000 };
    // Warm the buffers so the timed loop is allocation-free.
    let _ = sim.allocate_rates_with(&flows, &mut scratch);
    let (acc, solver_wall_s) =
        timed(|| (0..iters).map(|_| sim.allocate_rates_with(&flows, &mut scratch)[0]).sum::<f64>());
    assert!(acc > 0.0, "solver produced no bandwidth");

    let long = coalescing("netsim", || frozen_sim(8), if smoke { 4.0 } else { 160.0 }, smoke);
    Run {
        deterministic: Obj(vec![
            ("solver", Obj(vec![("workload", text("8dc_all_pairs_4conn"))])),
            ("run_transfers_long", Obj(long.deterministic)),
        ]),
        wall: Obj(vec![
            (
                "solver",
                Obj(vec![("ns_per_iter", fixed(solver_wall_s * 1e9 / f64::from(iters), 1))]),
            ),
            ("run_transfers_long", Obj(long.wall)),
            ("probes", probes(smoke)),
        ]),
        digest: long.digest,
    }
}

/// `count` tenants' all-pairs shuffles, tenant `k` on the `width`-DC
/// block starting at `width * (k % blocks)`, with `conns(k, pair)`
/// connections on its `pair`-th directed pair.
fn tenant_flows(
    count: usize,
    width: usize,
    blocks: usize,
    conns: impl Fn(usize, usize) -> u32,
) -> Vec<FlowSpec> {
    let mut flows = Vec::new();
    for k in 0..count {
        let base = width * (k % blocks);
        for (pair, f) in all_pair_flows(width, 1).into_iter().enumerate() {
            flows.push(FlowSpec::new(DcId(base + f.src.0), DcId(base + f.dst.0), conns(k, pair)));
        }
    }
    flows
}

/// Keeps eight all-pairs groups in flight on a bare 8-DC engine until
/// 64 have drained, replacing each drained group at once; group `k`
/// shuffles `0.5 + k % 5` gigabits per pair.
fn churn(sim: NetSim) -> RunStats {
    let conns = ConnMatrix::filled(8, 1);
    let mut engine = NetEngine::new(sim);
    let mut submitted = 0;
    let mut submit = |engine: &mut NetEngine| {
        engine.submit(&all_pair_transfers(8, 0.5 + (submitted % 5) as f64), &conns);
        submitted += 1;
    };
    (0..8).for_each(|_| submit(&mut engine));
    let mut drained = 0;
    while drained < 64 {
        for _ in engine.advance_until(f64::INFINITY) {
            drained += 1;
            submit(&mut engine);
        }
    }
    engine.stats()
}

/// One solve of `flows` on `sim` through `scratch`, as one event.
fn solve(sim: &NetSim, flows: &[FlowSpec], scratch: &mut RateScratch) -> RunStats {
    black_box(sim.allocate_rates_with(flows, scratch)[0]);
    let s = scratch.last_shape();
    RunStats { solves: 1, flows: s.flows as u64, rounds: s.rounds as u64, ..Default::default() }
}

/// The solver and transfer-loop shapes no other row prices, outside the
/// identity gate. Each is timed as the fastest of five loops of at least
/// 5 ms and written beside its events, flows per event and rounds per
/// solve; smoke runs each once, untimed.
fn probes(smoke: bool) -> Value {
    let mut scratch = RateScratch::default();
    let mut probe = |name, run: &dyn Fn(&mut RateScratch) -> RunStats| {
        let stats = run(&mut scratch);
        let events = stats.solves as f64;
        let per_solve = |count: u64| fixed(count as f64 / events, 1);
        let mut row = vec![
            ("events", num(stats.solves)),
            ("flows_per_event", per_solve(stats.flows)),
            ("rounds_per_solve", per_solve(stats.rounds)),
        ];
        if !smoke {
            let mut per_run_s = |reps: u32| {
                let mut sum = || (0..reps).map(|_| run(&mut scratch).solves).sum::<u64>();
                timed(|| black_box(sum())).1 / f64::from(reps)
            };
            let reps = (5e-3 / per_run_s(1).max(1e-9)).ceil().min(1e5) as u32;
            let us = (0..5).map(|_| per_run_s(reps)).fold(f64::INFINITY, f64::min) * 1e6;
            row.extend([("us_per_run", fixed(us, 3)), ("us_per_event", fixed(us / events, 3))]);
        }
        (name, Obj(row))
    };
    let sim64 =
        NetSim::new(paper_testbed_tiled(VmType::t2_medium(), 64), LinkModelParams::frozen(), 11);
    let sim8 = frozen_sim(8);
    let tenants = tenant_flows(34, 8, 8, |k, _| 1 + k as u32 % 3);
    let (tiled, distinct) =
        (tenant_flows(8, 16, 4, |_, _| 1), tenant_flows(1, 8, 1, |_, p| 1 + p as u32));
    let gauge = [FlowSpec::new(DcId(3), DcId(40), 1)];
    Obj(vec![
        // `scale-hier`'s pair-by-pair gauge: must not grow with DCs².
        probe("allocate_rates/64dc_one_flow", &|s| solve(&sim64, &gauge, s)),
        // 34 tenants over the eight 8-DC blocks: rounds track the flows left.
        probe("allocate_rates/64dc_1904_flows", &|s| solve(&sim64, &tenants, s)),
        // Eight 16-DC groups, ~30 region-pair classes (`scale-hier`).
        probe("fairness_solve/tiled64_8x16dc", &|s| solve(&sim64, &tiled, s)),
        // Nothing repeats (`wanify-loop`'s plans): prices class detection.
        probe("fairness_solve/8dc_distinct_56", &|s| solve(&sim8, &distinct, s)),
        // What `fleet-closed` puts on the WAN: ~130 flows per event.
        probe("engine_events/8dc_8tenants", &|_| churn(frozen_sim(8))),
        // The same on live dynamics, as `gateway-overload` runs it.
        probe("engine_events/8dc_live_8tenants", &|_| churn(live_sim(8, 30.0))),
    ])
}

/// Event coalescing *under live dynamics*: with the OU process quantized
/// onto a 30 s tick, rate changes are schedulable events, so a run whose
/// bandwidth moves the whole time still solves fairness once per event
/// (the chunked dynamics advance consumes the identical RNG stream).
fn dynamics(smoke: bool) -> Run {
    const TICK_S: f64 = 30.0;
    let payload_gb = if smoke { 24.0 } else { 160.0 };
    let mut live = coalescing("dynamics", || live_sim(8, TICK_S), payload_gb, smoke);
    assert!(
        live.solve_ratio >= MIN_SOLVE_RATIO,
        "live-dynamics coalescing must save >= {MIN_SOLVE_RATIO}x solves: {:.1}x",
        live.solve_ratio
    );
    live.deterministic.extend([
        ("dynamics", text(format!("ou_sigma0.06_theta0.25_tick{TICK_S}s"))),
        ("solve_ratio", fixed(live.solve_ratio, 1)),
    ]);
    Run {
        deterministic: Obj(vec![("run_transfers_live", Obj(live.deterministic))]),
        wall: Obj(vec![("run_transfers_live", Obj(live.wall))]),
        digest: live.digest,
    }
}

/// The whole committed fault-injection catalog (well under a second, so
/// smoke runs all of it too); every scenario must pass its invariants.
fn scenarios(_smoke: bool) -> Run {
    let specs = wanify_scenarios::catalog::all();
    let (outcomes, wall_s, digest) = identical(
        "scenarios",
        || wanify_scenarios::run_all(&specs),
        |outcomes| wanify_scenarios::render_digests(outcomes),
    );
    let rows = outcomes.iter().map(|o| {
        assert!(
            o.passed(),
            "scenario {} failed its invariants: {:?}",
            o.spec.name,
            o.checks.iter().filter(|c| !c.pass).collect::<Vec<_>>()
        );
        let f = &o.solo.faults;
        let sharded_duration_s =
            o.sharded.as_ref().map_or(num("null"), |s| fixed(s.fleet.duration_s, 2));
        Obj(vec![
            ("name", text(o.spec.name)),
            ("solo_duration_s", fixed(o.solo.duration_s, 2)),
            ("sharded_duration_s", sharded_duration_s),
            ("retries", num(f.retries)),
            ("replacements", num(f.replacements)),
            ("stalled_flows", num(f.stalled_flows)),
            ("failed_jobs", num(f.failed_jobs)),
            ("degraded_s", fixed(f.degraded_s, 2)),
            ("invariants", num(o.checks.len())),
        ])
    });
    Run {
        deterministic: Obj(vec![("scenarios", Arr(rows.collect()))]),
        wall: Obj(vec![("suite_wall_s_ambient", fixed(wall_s, 3))]),
        digest,
    }
}

/// The serving gateway's goodput-vs-offered-load curve
/// (`wanify_experiments::gateway`, seed 77): goodput must not collapse
/// past saturation.
fn gateway(smoke: bool) -> Run {
    let effort = if smoke { Effort::Quick } else { Effort::Full };
    let section = |r: &gateway_study::GatewayResult| {
        let rows = r.rows.iter().map(|row| {
            let (report, s) = (&row.report, &row.report.fleet.serving);
            Obj(vec![
                ("load_multiple", fixed(row.load_multiple, 2)),
                ("rate_per_s", fixed(row.rate_per_s, 6)),
                ("offered", num(s.offered)),
                ("served", num(report.served())),
                ("good", num(report.good())),
                ("shed", num(s.shed_jobs)),
                ("rejected", num(s.rejected)),
                ("deadline_misses", num(s.deadline_misses)),
                ("goodput_per_s", fixed(row.goodput_per_s(), 6)),
                ("latency_p50_s", fixed(report.latency.p50, 3)),
                ("latency_p99_s", fixed(report.latency.p99, 3)),
                ("duration_s", fixed(report.fleet.duration_s, 3)),
            ])
        });
        Obj(vec![
            ("jobs_per_point", num(r.jobs)),
            ("max_concurrent", num(gateway_study::MAX_CONCURRENT)),
            ("saturation_rate_per_s", fixed(r.saturation_rate_per_s, 6)),
            ("deadline_slack_makespans", fixed(gateway_study::SLACK_MAKESPANS, 1)),
            ("goodput_floor_at_2x", fixed(GOODPUT_FLOOR_AT_2X, 2)),
            ("sweep", Arr(rows.collect())),
        ])
    };
    let (result, wall_s, digest) =
        identical("gateway", || gateway_study::run(effort, 77), |r| section(r).render(0));
    let at_sat = result.at(1.0).expect("the sweep has a saturation point").goodput_per_s();
    let at_2x = result.at(2.0).expect("the sweep has a 2x point").goodput_per_s();
    assert!(
        at_2x >= GOODPUT_FLOOR_AT_2X * at_sat,
        "goodput collapse past saturation: {at_2x:.4}/s at 2x vs {at_sat:.4}/s at 1x (floor \
         {GOODPUT_FLOOR_AT_2X})"
    );
    Run { deterministic: section(&result), wall: Obj(vec![("wall_s", fixed(wall_s, 3))]), digest }
}

/// A mixed trace (TeraSort / WordCount / TPC-DS) with every query
/// admitted at once, so dozens contend on one shared WAN: contention
/// must be visible against the same queries run solo on an idle WAN.
fn fleet(smoke: bool) -> Run {
    let (n, n_jobs) = if smoke { (4, 16) } else { (8, 60) };
    let trace = mixed_trace(&TraceConfig::new(n, n_jobs, 42).scaled(0.5));
    let serve = |jobs: &[JobProfile], clients: usize| {
        fleet_engine(frozen_sim(n), Box::new(StaticIndependent::new()), clients, 300.0)
            .run(jobs, &Arrivals::Closed { clients, think_s: 0.0 })
            .expect("bench trace matches its topology")
    };
    let (fleet, wall_s, digest) = identical("fleet", || serve(&trace, n_jobs), fleet_digest);
    assert_eq!(fleet.outcomes.len(), n_jobs, "every query must complete");
    let jobs_per_wall_s = n_jobs as f64 / wall_s.max(1e-12);
    assert!(
        jobs_per_wall_s >= FLEET_MIN_JOBS_PER_WALL_S,
        "fleet throughput regressed below {FLEET_MIN_JOBS_PER_WALL_S} jobs per wall-second: \
         {jobs_per_wall_s:.1}"
    );

    let solo_makespan = |job| serve(std::slice::from_ref(job), 1).outcomes[0].makespan_s();
    let (solo_total, solo_wall_s) = timed(|| trace.iter().map(solo_makespan).sum::<f64>());
    let solo_mean = solo_total / n_jobs as f64;
    let fleet_mean = fleet.outcomes.iter().map(|o| o.makespan_s()).sum::<f64>() / n_jobs as f64;
    assert!(
        fleet_mean > solo_mean,
        "contention must be measurable: fleet mean {fleet_mean:.1}s vs solo {solo_mean:.1}s"
    );
    let (makespan, wait) = (fleet.makespan(), fleet.queue_wait());
    Run {
        deterministic: Obj(vec![
            ("workload", text(format!("{n}dc_mixed_{n_jobs}jobs_closed{n_jobs}"))),
            (
                "fleet",
                Obj(vec![
                    ("completed", num(fleet.outcomes.len())),
                    ("simulated_duration_s", fixed(fleet.duration_s, 1)),
                    ("throughput_jobs_per_sim_s", fixed(fleet.throughput_jobs_per_s(), 5)),
                    ("mean_makespan_s", fixed(fleet_mean, 1)),
                    ("p50_makespan_s", fixed(makespan.p50, 1)),
                    ("p95_makespan_s", fixed(makespan.p95, 1)),
                    ("p99_makespan_s", fixed(makespan.p99, 1)),
                    ("mean_queue_wait_s", fixed(wait.mean, 1)),
                    ("gauges", num(fleet.gauges)),
                    ("egress_usd", fixed(fleet.network_cost_usd(), 2)),
                ]),
            ),
            (
                "solo_baseline",
                Obj(vec![
                    ("mean_makespan_s", fixed(solo_mean, 1)),
                    ("contention_slowdown", fixed(fleet_mean / solo_mean.max(1e-12), 2)),
                ]),
            ),
        ]),
        wall: Obj(vec![
            (
                "fleet",
                Obj(vec![
                    ("wall_s", fixed(wall_s, 3)),
                    ("jobs_per_wall_s", fixed(jobs_per_wall_s, 1)),
                ]),
            ),
            ("solo_baseline", Obj(vec![("wall_s", fixed(solo_wall_s, 3))])),
        ]),
        digest,
    }
}

/// The shard sweep of `wanify_experiments::sharded` (engines at seed 11,
/// trace at seed 42): one region-tagged mixed trace served by the single
/// engine and by 1/2/4(/8) shards coupled through a continental
/// backbone. The 1-shard arm must reproduce the single engine bit for bit.
fn sharded(smoke: bool) -> Run {
    let sweep = sharded_study::Sweep::new(if smoke { Effort::Quick } else { Effort::Full }, 11, 42);
    let (n, n_jobs) = (sweep.topo.len(), sweep.trace.len());

    let (single, single_wall_s) = timed(|| sweep.single());
    assert_eq!(single.outcomes.len(), n_jobs, "every query must complete");

    let (mut arms, mut wall_arms, mut digest) = (Vec::new(), Vec::new(), String::new());
    for &shards in sweep.shard_counts {
        let (report, wall_s, arm_digest) = identical(
            &format!("{shards}-shard"),
            || sweep.arm(shards),
            |r: &ShardedFleetReport| fleet_digest(&r.fleet),
        );
        assert_eq!(report.fleet.outcomes.len(), n_jobs, "every query must complete");
        if shards == 1 {
            assert!(
                arm_digest == fleet_digest(&single),
                "1-shard vs single-engine: runs must be bit-identical"
            );
        }
        let speedup = single_wall_s / wall_s.max(1e-12);
        assert!(
            smoke || shards != 4 || speedup >= MIN_SPEEDUP_AT_4_SHARDS,
            "4-shard wall-clock speedup regressed below {MIN_SPEEDUP_AT_4_SHARDS}x: \
             {speedup:.2}x (single {single_wall_s:.3}s vs sharded {wall_s:.3}s)"
        );
        let makespan = report.fleet.makespan();
        arms.push(Obj(vec![
            ("shards", num(shards)),
            ("jobs_per_sim_s", fixed(report.fleet.throughput_jobs_per_s(), 5)),
            ("p50_makespan_s", fixed(makespan.p50, 1)),
            ("p95_makespan_s", fixed(makespan.p95, 1)),
            ("backbone_syncs", num(report.backbone_syncs)),
        ]));
        wall_arms.push(Obj(vec![
            ("shards", num(shards)),
            ("wall_s", fixed(wall_s, 3)),
            ("speedup", fixed(speedup, 2)),
        ]));
        let _ = write!(digest, "== {shards} shard(s) ==\n{arm_digest}");
    }
    Run {
        deterministic: Obj(vec![
            ("workload", text(format!("{n}dc_regional_{n_jobs}jobs_closed{n_jobs}"))),
            (
                "single_engine",
                Obj(vec![
                    ("simulated_duration_s", fixed(single.duration_s, 1)),
                    ("p50_makespan_s", fixed(single.makespan().p50, 1)),
                ]),
            ),
            ("sharded", Arr(arms)),
        ]),
        wall: Obj(vec![
            ("single_engine", Obj(vec![("wall_s", fixed(single_wall_s, 3))])),
            ("sharded", Arr(wall_arms)),
        ]),
        digest,
    }
}

/// The streamed, hierarchically-sharded fleet at scale: N queries from a
/// lazy trace/Poisson stream through shards coupled by a two-tier
/// backbone over a tiled WAN, the driver retaining a bounded window of
/// per-job state. The middle arm is the one the identity gate re-runs.
fn scale(smoke: bool) -> Run {
    /// Outcomes the driver retains; the rest fold into streaming sketches.
    const RETAIN_OUTCOMES: usize = 256;
    /// Fleet-wide Poisson rate, jobs per simulated second — well under
    /// the service rate, so the memory proxy measures the design's
    /// footprint, not a backlog.
    const RATE_PER_S: f64 = 0.5;
    let (n_dcs, shards, arm_queries): (usize, usize, &[usize]) =
        if smoke { (16, 4, &[60, 1_000]) } else { (64, 8, &[60, 10_000, 100_000]) };
    let topo = || paper_testbed_tiled(VmType::t2_medium(), n_dcs);
    let stream = |queries: usize| {
        // Regional trunks exchange every 30 simulated seconds,
        // continental trunks every 90; between coarse syncs the last
        // continental grant persists.
        let hierarchy =
            BackboneHierarchy::regional_continental(&topo(), 4000.0, 8000.0, 30.0, 90.0);
        let times = poisson_times_iter(RATE_PER_S, 42).expect("positive rate");
        let jobs = trace_iter(&TraceConfig::new(n_dcs, queries, 42).scaled(0.25));
        // Round-robin placement: balanced shard populations, so the arms
        // measure decomposition + parallelism rather than placement luck.
        let shard = |_| {
            let sim = NetSim::new(topo(), LinkModelParams::frozen(), 11);
            fleet_engine(sim, Box::new(StaticIndependent::new()), 8, 3600.0)
        };
        let engines = (0..shards).map(shard).collect();
        let report = ShardedFleetEngine::new(engines, Box::new(RoundRobinShards::new()), None)
            .with_hierarchy(hierarchy)
            .run_stream(queries, Box::new(times.zip(jobs)), RETAIN_OUTCOMES)
            .expect("scale trace matches its topology");
        assert_eq!(report.fleet.completed(), queries, "every query must complete");
        report
    };
    let stream_digest = |r: &ShardedFleetReport| {
        let mut out = outcome_lines(&r.fleet);
        let _ = writeln!(
            out,
            "completed={} failed={} duration={:016x} egress={:016x} cost={:016x} gauges={} \
             syncs={} peak={}",
            r.fleet.completed(),
            r.fleet.failed_jobs(),
            r.fleet.duration_s.to_bits(),
            r.fleet.total_egress_gb().to_bits(),
            r.fleet.total_cost_usd().to_bits(),
            r.fleet.gauges,
            r.backbone_syncs,
            r.peak_tracked,
        );
        out
    };

    let (mut arms, mut wall_arms, mut digest, mut peaks) =
        (Vec::new(), Vec::new(), String::new(), Vec::new());
    for (i, &queries) in arm_queries.iter().enumerate() {
        let (report, wall_s, arm_digest) = if i == 1 {
            identical(&format!("{queries}-query"), || stream(queries), stream_digest)
        } else {
            let (report, wall_s) = timed(|| stream(queries));
            let arm_digest = stream_digest(&report);
            (report, wall_s, arm_digest)
        };
        let jobs_per_wall_s = queries as f64 / wall_s.max(1e-12);
        assert!(
            smoke || i + 1 < arm_queries.len() || jobs_per_wall_s >= SCALE_MIN_JOBS_PER_WALL_S,
            "scale throughput regressed below {SCALE_MIN_JOBS_PER_WALL_S} jobs per wall-second \
             at the {queries}-query arm: {jobs_per_wall_s:.1}"
        );
        arms.push(Obj(vec![
            ("queries", num(queries)),
            ("completed", num(report.fleet.completed())),
            ("simulated_duration_s", fixed(report.fleet.duration_s, 3)),
            ("jobs_per_sim_s", fixed(report.fleet.throughput_jobs_per_s(), 5)),
            ("peak_tracked", num(report.peak_tracked)),
            ("retained_outcomes", num(report.fleet.outcomes.len())),
            ("backbone_syncs", num(report.backbone_syncs)),
            ("digest", text(format!("{:016x}", fingerprint(&arm_digest)))),
        ]));
        wall_arms.push(Obj(vec![
            ("queries", num(queries)),
            ("wall_s", fixed(wall_s, 3)),
            ("jobs_per_wall_s", fixed(jobs_per_wall_s, 1)),
        ]));
        let _ = write!(digest, "== {queries} queries ==\n{arm_digest}");
        peaks.push(report.peak_tracked);
    }
    let (mid_peak, top_peak) = (peaks[1], peaks[peaks.len() - 1]);
    assert!(
        (top_peak as f64) <= MAX_PEAK_GROWTH * mid_peak as f64,
        "memory proxy must stay flat with query count: {top_peak} at the largest arm vs \
         {mid_peak} at the middle arm (limit {MAX_PEAK_GROWTH}x)"
    );
    Run {
        deterministic: Obj(vec![
            (
                "workload",
                text(format!("{n_dcs}dc_tiled_{shards}shards_hier_mixed_rate{RATE_PER_S}")),
            ),
            ("retain_outcomes", num(RETAIN_OUTCOMES)),
            ("arms", Arr(arms)),
        ]),
        wall: Arr(wall_arms),
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(row: &[(&'static str, Value)], key: &str) -> Option<f64> {
        match row.iter().find(|(k, _)| *k == key) {
            Some((_, Value::Leaf(s))) => Some(s.parse().expect("a number")),
            _ => None,
        }
    }

    #[test]
    fn smoke_probes_run_each_shape_once_and_write_its_counts_untimed() {
        let Obj(rows) = probes(true) else { panic!("probes is an object") };
        let names: Vec<&str> = rows.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "allocate_rates/64dc_one_flow",
                "allocate_rates/64dc_1904_flows",
                "fairness_solve/tiled64_8x16dc",
                "fairness_solve/8dc_distinct_56",
                "engine_events/8dc_8tenants",
                "engine_events/8dc_live_8tenants",
            ]
        );
        for (name, row) in &rows {
            let Obj(row) = row else { panic!("{name} is an object") };
            let events = leaf(row, "events").expect("events");
            let flows = leaf(row, "flows_per_event").expect("flows_per_event");
            assert!(leaf(row, "rounds_per_solve").expect("rounds_per_solve") >= 1.0, "{name}");
            assert!(leaf(row, "us_per_run").is_none(), "{name} is timed under smoke");
            if name.starts_with("engine_events/") {
                // 64 drained groups, eight of 56 flows each in flight.
                assert!(events >= 64.0 && flows > 56.0, "{name}: {events} events, {flows} flows");
            } else {
                let want =
                    [1.0, 1904.0, 8.0 * 240.0, 56.0][names.iter().position(|n| n == name).unwrap()];
                assert_eq!((events, flows), (1.0, want), "{name}");
            }
        }
    }
}
