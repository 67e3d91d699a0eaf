//! Direct calls into single layers' public functions, on inputs shaped
//! like the workloads. They run in the traced run only and cost a
//! fraction of a second each; their inputs are fixed (not seeded by
//! `--seed`) so their counts repeat exactly between commits.

use std::hint::black_box;
use std::time::Instant;

use crate::workload::{timed, Layers};
use wanify::{StaticSimultaneous, Wanify, WanifyConfig};
use wanify_gda::{JobOutcome, StreamingTotals};
use wanify_netsim::{
    paper_testbed_n, paper_testbed_tiled, Backbone, ConnMatrix, DcId, FlowSpec, Grid,
    LinkModelParams, NetEngine, NetSim, RateScratch, Transfer, VmType,
};

/// splitmix64: the probes' own tiny deterministic stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn between(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn all_pairs(dcs: std::ops::Range<usize>) -> impl Iterator<Item = (DcId, DcId)> + Clone {
    dcs.clone()
        .flat_map(move |i| dcs.clone().filter(move |&j| j != i).map(move |j| (DcId(i), DcId(j))))
}

/// Result of one [`engine_churn`] probe.
pub struct Churn {
    pub submit_busy_s: f64,
    pub advance_busy_s: f64,
    pub solves: u64,
}

impl Churn {
    pub fn us_per_solve(&self) -> f64 {
        self.advance_busy_s * 1e6 / self.solves.max(1) as f64
    }
}

/// Keeps `live` all-pairs flow groups in flight on a bare [`NetEngine`]
/// over `n_dcs` DCs until `completions` groups have drained, replacing
/// each drained group at once — the submit/drain churn a fleet imposes,
/// without the fleet. Group `k` spans the eight DCs `8·(k mod n_dcs/8)..`.
pub fn engine_churn(n_dcs: usize, live: usize, completions: usize) -> Churn {
    let vm = VmType::t2_medium();
    let topo = if n_dcs <= 8 { paper_testbed_n(vm, n_dcs) } else { paper_testbed_tiled(vm, n_dcs) };
    let mut engine = NetEngine::new(NetSim::new(topo, LinkModelParams::frozen(), 11));
    let conns = ConnMatrix::filled(n_dcs, 1);
    let mut mix = Mix(n_dcs as u64);
    let mut group = |k: usize| -> Vec<Transfer> {
        let base = 8 * (k % (n_dcs / 8));
        all_pairs(base..base + 8)
            .map(|(src, dst)| Transfer { src, dst, gigabits: mix.between(0.5, 4.0) })
            .collect()
    };

    let mut probe = Churn { submit_busy_s: 0.0, advance_busy_s: 0.0, solves: 0 };
    let mut submitted = 0;
    let mut submit = |engine: &mut NetEngine, probe: &mut Churn| {
        let transfers = group(submitted);
        submitted += 1;
        let ((), s) = timed(|| {
            engine.submit(&transfers, &conns);
        });
        probe.submit_busy_s += s;
    };
    for _ in 0..live {
        submit(&mut engine, &mut probe);
    }
    let mut drained = 0;
    while drained < completions {
        let (reports, s) = timed(|| engine.advance_until(f64::INFINITY));
        probe.advance_busy_s += s;
        assert!(!reports.is_empty(), "frozen all-pairs groups always drain");
        for _ in &reports {
            drained += 1;
            submit(&mut engine, &mut probe);
        }
    }
    probe.solves = engine.stats().solves;
    probe
}

/// Nanoseconds per `NetSim::allocate_rates_with` at 1, 8 and 16 tenants'
/// worth of all-pairs flows on 8 DCs (56, 448, 896 flows; 16 is what
/// `fleet-closed` keeps in flight).
pub fn fairness_solves() -> Layers {
    let sim = NetSim::new(paper_testbed_n(VmType::t2_medium(), 8), LinkModelParams::frozen(), 11);
    let mut scratch = RateScratch::default();
    let mut solve_ns = |tenants: usize, iters: u32| {
        let flows: Vec<FlowSpec> = (0..tenants)
            .flat_map(|_| all_pairs(0..8).map(|(s, d)| FlowSpec::new(s, d, 1)))
            .collect();
        let start = Instant::now();
        for _ in 0..iters {
            black_box(sim.allocate_rates_with(black_box(&flows), &mut scratch));
        }
        start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
    };
    Layers::from([
        ("netsim.fairness.solve_ns.f56", solve_ns(1, 20_000)),
        ("netsim.fairness.solve_ns.f448", solve_ns(8, 4_000)),
        ("netsim.fairness.solve_ns.f896", solve_ns(16, 2_000)),
    ])
}

/// `NetSim::run_transfers` — the hooked transfer loop — moving an
/// all-pairs shuffle under a planned `WanifyAgent` on live dynamics.
pub fn hooked_transfers() -> Layers {
    const RUNS: u64 = 40;
    let wanify = Wanify::new(WanifyConfig::default());
    let transfers: Vec<Transfer> =
        all_pairs(0..8).map(|(src, dst)| Transfer { src, dst, gigabits: 6.0 }).collect();
    let (mut busy_s, mut solves, mut epochs) = (0.0, 0, 0);
    for run in 0..RUNS {
        let topo = paper_testbed_n(VmType::t2_medium(), 8);
        let mut sim = NetSim::new(topo, LinkModelParams::default(), 500 + run);
        let plan = wanify
            .plan(&mut StaticSimultaneous::default(), &mut sim)
            .expect("the static source matches its own topology");
        let mut agent = wanify.agent(&plan);
        let ((), s) = timed(|| {
            black_box(sim.run_transfers(&transfers, plan.initial_conns(), Some(&mut agent)));
        });
        busy_s += s;
        solves += sim.last_run_stats().solves;
        epochs += sim.last_run_stats().epochs;
    }
    Layers::from([
        ("netsim.sim.probe.xfer_busy_s", busy_s),
        ("netsim.sim.probe.solves", solves as f64),
        ("netsim.sim.probe.epochs", epochs as f64),
        ("netsim.sim.probe.us_per_solve", busy_s * 1e6 / solves.max(1) as f64),
    ])
}

/// Microseconds per `Backbone::allocate` over `shards` demand grids of
/// the regional tier of a `n_dcs`-DC tiled topology.
pub fn backbone_allocate_us(n_dcs: usize, shards: usize) -> f64 {
    const ITERS: u32 = 4_000;
    let topo = paper_testbed_tiled(VmType::t2_medium(), n_dcs);
    let backbone = Backbone::regional(&topo, 4000.0, 30.0);
    let mut mix = Mix(shards as u64);
    let demands: Vec<Grid<f64>> =
        (0..shards)
            .map(|_| {
                Grid::from_fn(backbone.n_groups(), |i, j| {
                    if i == j {
                        0.0
                    } else {
                        mix.between(0.0, 2000.0)
                    }
                })
            })
            .collect();
    let start = Instant::now();
    for _ in 0..ITERS {
        black_box(backbone.allocate(black_box(&demands)));
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(ITERS)
}

/// Nanoseconds per `StreamingTotals::absorb` (two P² sketches plus the
/// per-class roll-up), cycling over real `outcomes`.
pub fn sketch_absorb_ns(outcomes: &[JobOutcome]) -> f64 {
    const ABSORBS: usize = 200_000;
    let mut totals = StreamingTotals::default();
    let start = Instant::now();
    for outcome in outcomes.iter().cycle().take(ABSORBS) {
        totals.absorb(black_box(outcome));
    }
    black_box(&totals);
    start.elapsed().as_secs_f64() * 1e9 / ABSORBS as f64
}
