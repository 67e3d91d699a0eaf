//! Microbenches for the netsim hot path: the weighted max-min solver
//! through the stateless entry, the transfer loop's cost per event
//! (`engine_events`) and the
//! event-coalescing transfer loop end to end (small/large topologies,
//! short and long payloads, coalesced vs forced per-epoch stepping).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wanify_bench::{all_pair_flows, all_pair_transfers, frozen_sim, live_sim, NoopHook};
use wanify_netsim::{
    paper_testbed_tiled, ConnMatrix, DcId, EpochCtx, EpochHook, FlowSpec, LinkModelParams,
    NetEngine, NetSim, RateScratch, RunStats, Transfer, VmType,
};

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocate_rates");
    group.sample_size(50);

    // The zero-alloc stateless entry: pair-major filing + workspace solve
    // through reused buffers.
    let sim = frozen_sim(8);
    let flows = all_pair_flows(8, 4);
    let mut scratch = RateScratch::default();
    group.bench_function("allocate_rates_with_8dc_scratch", |b| {
        b.iter(|| {
            let rates = sim.allocate_rates_with(black_box(&flows), &mut scratch);
            black_box(rates[0])
        })
    });

    // 64 DCs, the two shapes `scale-hier` solves. A gauge is one flow:
    // its cost must not grow with DCs². An engine solve is 34 tenants'
    // all-pairs shuffles over the eight 8-DC blocks (1 904 flows, ~15
    // progressive-filling rounds): its cost must track the flows still
    // active in each round, not all flows every round.
    let topo = paper_testbed_tiled(VmType::t2_medium(), 64);
    let sim64 = NetSim::new(topo, LinkModelParams::frozen(), 11);
    let gauge = [FlowSpec::new(DcId(3), DcId(40), 1)];
    group.bench_function("allocate_rates_with_64dc_one_flow", |b| {
        b.iter(|| black_box(sim64.allocate_rates_with(black_box(&gauge), &mut scratch)[0]))
    });
    let tenants = tenant_flows(34, 8, 8, |k, _| 1 + k as u32 % 3);
    group.bench_function("allocate_rates_with_64dc_1904_flows", |b| {
        b.iter(|| black_box(sim64.allocate_rates_with(black_box(&tenants), &mut scratch)[0]))
    });
    group.finish();
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

/// Filing + solve at the three `(flows, classes)` shapes that decide what
/// the solver's rounds cost: rounds run once per distinct `(weight,
/// ceiling)`, so the first two must price like their class counts (a
/// return to per-flow rounds shows here), and the third — nothing
/// repeats — prices the class detection itself (a fat detection pass
/// shows here).
fn bench_flow_classes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fairness_solve");
    group.sample_size(50);
    let mut scratch = RateScratch::default();
    let mut bench = |name: &str, sim: &NetSim, flows: &[FlowSpec]| {
        group.bench_function(name, |b| {
            b.iter(|| black_box(sim.allocate_rates_with(black_box(flows), &mut scratch)[0]))
        });
    };

    // Eight 16-DC groups on the tiled 64-DC WAN: 1 920 flows, two DCs per
    // region in every block, so ~30 region-pair classes (`scale-hier`).
    let topo = paper_testbed_tiled(VmType::t2_medium(), 64);
    let sim64 = NetSim::new(topo, LinkModelParams::frozen(), 11);
    bench("tiled64_8x16dc", &sim64, &tenant_flows(8, 16, 4, |_, _| 1));

    // 16 tenants on the same 8 DCs: 896 flows, each directed pair 16
    // times over (`fleet-closed`).
    let sim8 = frozen_sim(8);
    bench("8dc_16tenants", &sim8, &tenant_flows(16, 8, 1, |_, _| 1));

    // One tenant, every pair with its own connection count: 56 flows in
    // 56 classes (`wanify-loop`'s heterogeneous plans).
    bench("8dc_distinct_56", &sim8, &tenant_flows(1, 8, 1, |_, pair| 1 + pair as u32));
    group.finish();
}

/// Keeps `live` all-pairs groups in flight on a bare engine until
/// `completions` have drained, replacing each drained group at once;
/// group `k` shuffles `gb(k)` gigabits per pair over the `width`-DC block
/// starting at `width * (k % blocks)`.
fn churn(
    sim: NetSim,
    (width, blocks): (usize, usize),
    live: usize,
    completions: usize,
    gb: impl Fn(usize) -> f64,
) -> RunStats {
    let conns = ConnMatrix::filled(sim.topology().len(), 1);
    let mut engine = NetEngine::new(sim);
    let mut submitted = 0;
    let mut submit = |engine: &mut NetEngine| {
        let base = width * (submitted % blocks);
        let mut transfers = all_pair_transfers(width, gb(submitted));
        for t in &mut transfers {
            *t = Transfer::new(DcId(base + t.src.0), DcId(base + t.dst.0), t.gigabits);
        }
        engine.submit(&transfers, &conns);
        submitted += 1;
    };
    (0..live).for_each(|_| submit(&mut engine));
    let mut drained = 0;
    while drained < completions {
        for _ in engine.advance_until(f64::INFINITY) {
            drained += 1;
            submit(&mut engine);
        }
    }
    engine.stats()
}

/// A hook that wakes every 5 s and edits nothing: the lone hooked group
/// keeps coalescing and its flow set changes by drains alone.
struct Watcher;

impl EpochHook for Watcher {
    fn on_epoch(&mut self, _ctx: &mut EpochCtx<'_>) {}

    fn next_wake(&mut self, now_s: f64) -> Option<f64> {
        Some(now_s + 5.0)
    }
}

/// What one event of the transfer loop costs: each bench is a fixed script
/// of events, and the line printed before it says how many (`solves`), how
/// many flows an event files and solves, and how many progressive-filling
/// rounds a solve runs, so the mean divides into a per-event and a
/// per-flow figure.
fn bench_engine_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_events");
    group.sample_size(10);
    let mut bench = |name: &str, script: &dyn Fn() -> RunStats| {
        let stats = script();
        let per_solve = |count: u64| count as f64 / stats.solves as f64;
        println!(
            "engine_events/{name}: {} events · {:.0} flows/event · {:.1} rounds/solve",
            stats.solves,
            per_solve(stats.flows),
            per_solve(stats.rounds)
        );
        group.bench_function(name, |b| b.iter(|| black_box(script())));
    };

    // Eight 8-DC groups churning over the eight blocks of the tiled 64-DC
    // WAN (`scale-hier`'s shards, `probe64x8`): ~180 flows per event, one
    // to a pair.
    let tiled = || {
        let topo = paper_testbed_tiled(VmType::t2_medium(), 64);
        NetSim::new(topo, LinkModelParams::frozen(), 11)
    };
    bench("tiled64_8x8dc", &|| churn(tiled(), (8, 8), 8, 64, |k| 0.5 + (k % 7) as f64 * 0.5));

    // Sixteen tenants shuffling on the same 8 DCs at once (`probe8x16`):
    // ~270 flows per event, every pair five times over. No fleet of the
    // repo benchmark looks like this — see the next one.
    bench("8dc_16tenants", &|| churn(frozen_sim(8), (8, 1), 16, 32, |k| 0.5 + (k % 5) as f64));

    // What `fleet-closed` puts on the WAN: its sixteen closed-loop
    // tenants think and compute between shuffles, so a few of them are in
    // flight together: 136 flows per event there, eight to a class; 130 here.
    bench("8dc_8tenants", &|| churn(frozen_sim(8), (8, 1), 8, 64, |k| 0.5 + (k % 5) as f64));

    // The same eight tenants on live dynamics (30 s ticks), as
    // `gateway-overload` runs them: every pair's bandwidth moves on its
    // own, so a class is about a pair, and rounds double: 18 per solve
    // here, 24 in `gateway-overload` (89 flows in 34 classes per event).
    bench("8dc_live_8tenants", &|| {
        churn(live_sim(8, 30.0), (8, 1), 8, 64, |k| 0.5 + (k % 5) as f64)
    });

    // One hooked group with its own connection count on every pair
    // (`wanify-loop`): 56 pairs at the start, then only drains.
    bench("8dc_lone_hooked", &|| {
        let mut sim = frozen_sim(8);
        let conns = ConnMatrix::from_fn(8, |i, j| 1 + ((3 * i + j) % 4) as u32);
        let transfers: Vec<Transfer> = all_pair_transfers(8, 1.0)
            .into_iter()
            .enumerate()
            .map(|(k, t)| Transfer::new(t.src, t.dst, 2.0 + k as f64))
            .collect();
        sim.run_transfers(&transfers, &conns, Some(&mut Watcher));
        sim.last_run_stats()
    });
    group.finish();
}

fn bench_run_transfers(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_transfers");
    group.sample_size(10);

    let conns3 = ConnMatrix::filled(3, 2);
    let short = all_pair_transfers(3, 1.0);
    group.bench_function("small_topology_short_payload", |b| {
        b.iter(|| {
            let mut sim = frozen_sim(3);
            black_box(sim.run_transfers(black_box(&short), &conns3, None).makespan_s)
        })
    });

    let conns8 = ConnMatrix::filled(8, 2);
    let long = all_pair_transfers(8, 40.0);
    group.bench_function("large_topology_long_payload_coalesced", |b| {
        b.iter(|| {
            let mut sim = frozen_sim(8);
            black_box(sim.run_transfers(black_box(&long), &conns8, None).makespan_s)
        })
    });

    // The pre-coalescing cost model: one fairness solve per epoch, forced
    // by a do-nothing hook. Identical results, O(seconds) solves.
    let medium = all_pair_transfers(8, 4.0);
    group.bench_function("large_topology_medium_payload_per_epoch", |b| {
        b.iter(|| {
            let mut sim = frozen_sim(8);
            let mut hook = NoopHook;
            black_box(sim.run_transfers(black_box(&medium), &conns8, Some(&mut hook)).makespan_s)
        })
    });
    group.finish();
}

criterion_group!(
    netsim_core,
    bench_solver,
    bench_flow_classes,
    bench_engine_events,
    bench_run_transfers
);
criterion_main!(netsim_core);
