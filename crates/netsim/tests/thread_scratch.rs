//! The solver scratch is the thread's, not the engine's: every solve on a
//! thread borrows one warm set of buffers, so a second engine of a shape
//! the thread has already solved allocates nothing to solve it, and a
//! hook that runs a simulator of its own inside a blocking run solves on
//! a fresh set, leaving both runs bit-identical to the same runs made one
//! after the other.
//!
//! Allocations are counted by a thread-local counter, so the tests of
//! this binary can run in parallel without seeing each other's; it lives
//! in its own test binary because a `#[global_allocator]` is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wanify_netsim::{
    paper_testbed_n, paper_testbed_tiled, BwMatrix, ConnMatrix, DcId, EpochCtx, EpochHook,
    LinkModelParams, NetEngine, NetSim, Transfer, TransferReport, VmType,
};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation on
/// the calling thread.
struct Counting;

fn count() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Every directed pair of `n` DCs, with payloads large enough that no
/// pair drains in the first seconds.
fn all_to_all(n: usize) -> Vec<Transfer> {
    let pairs = (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)));
    pairs
        .enumerate()
        .map(|(k, (i, j))| Transfer::new(DcId(i), DcId(j), 40.0 + (k % 7) as f64))
        .collect()
}

/// A 16-DC engine with the all-to-all group submitted, on mixed
/// connection counts (several flow classes per NIC).
fn submitted() -> NetEngine {
    const N: usize = 16;
    let sim =
        NetSim::new(paper_testbed_tiled(VmType::t2_medium(), N), LinkModelParams::frozen(), 3);
    let mut engine = NetEngine::new(sim);
    let conns = ConnMatrix::from_fn(N, |i, j| 1 + ((i + 2 * j) % 3) as u32);
    engine.submit(&all_to_all(N), &conns);
    engine
}

/// Advances a freshly submitted engine to 2.5 s, before any pair drains:
/// one solve, two whole epochs and a fraction.
fn advance_to_the_deadline(engine: &mut NetEngine) {
    let done = engine.advance_until(2.5);
    assert!(done.is_empty(), "no group completes before the deadline");
    assert_eq!(engine.stats().solves, 1, "{:?}", engine.stats());
    assert_eq!(engine.stats().flows, 16 * 15);
}

#[test]
fn a_second_engine_of_a_solved_shape_advances_without_allocating() {
    // The first engine grows this thread's scratch to the group's size.
    let mut first = submitted();
    while !first.is_idle() {
        first.advance_until(f64::INFINITY);
    }
    let mut second = submitted();
    let ((), warm) = allocations(|| advance_to_the_deadline(&mut second));

    // The same advance on a thread that has solved nothing yet.
    let ((), cold) = std::thread::spawn(|| {
        let mut engine = submitted();
        allocations(|| advance_to_the_deadline(&mut engine))
    })
    .join()
    .expect("the cold advance runs");

    if cfg!(debug_assertions) {
        // The shadow oracle allocates its own problem at every event in
        // debug builds; only the solver's buffers differ between the two.
        assert!(warm < cold, "warm {warm} vs cold {cold} allocations");
    } else {
        assert_eq!(warm, 0, "a warm thread's advance allocated (cold: {cold})");
    }
}

/// Wakes every three seconds and records what it was shown; with
/// `inner`, runs the next of its transfer sets on its own simulator at
/// every call, inside the outer run's solve loop.
struct Nesting {
    inner: Option<(NetSim, Vec<Vec<Transfer>>)>,
    inner_reports: Vec<TransferReport>,
    seen: Vec<(u64, Vec<u64>)>,
}

impl Nesting {
    fn new(inner: Option<(NetSim, Vec<Vec<Transfer>>)>) -> Self {
        Self { inner, inner_reports: Vec::new(), seen: Vec::new() }
    }
}

impl EpochHook for Nesting {
    fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
        let observed = ctx.observed_bw.iter_pairs().map(|(_, _, bw)| bw.to_bits()).collect();
        self.seen.push((ctx.time_s.to_bits(), observed));
        if let Some((sim, sets)) = &mut self.inner {
            let transfers = &sets[self.inner_reports.len() % sets.len()];
            let conns = ConnMatrix::filled(sim.topology().len(), 2);
            self.inner_reports.push(sim.run_transfers(transfers, &conns, None));
        }
    }

    fn next_wake(&mut self, now_s: f64) -> Option<f64> {
        Some((now_s / 3.0).floor() * 3.0 + 3.0)
    }
}

fn inner_sim() -> NetSim {
    NetSim::new(paper_testbed_n(VmType::t3_nano(), 8), LinkModelParams::default(), 5)
}

/// An all-to-all set on 8 DCs and a lone pair: the inner solves differ
/// in size from each other and from the outer ones.
fn inner_sets() -> Vec<Vec<Transfer>> {
    let all: Vec<Transfer> =
        all_to_all(8).into_iter().map(|t| Transfer { gigabits: 0.5, ..t }).collect();
    vec![all, vec![Transfer::new(DcId(6), DcId(2), 1.5)]]
}

fn outer(hook: &mut Nesting) -> TransferReport {
    let topo = paper_testbed_n(VmType::t2_medium(), 6);
    let mut sim = NetSim::new(topo, LinkModelParams::default(), 9);
    let transfers: Vec<Transfer> = all_to_all(6)
        .into_iter()
        .enumerate()
        .map(|(k, t)| Transfer { gigabits: 2.0 + 0.5 * k as f64, ..t })
        .collect();
    let conns = ConnMatrix::from_fn(6, |i, j| 1 + ((i + j) % 4) as u32);
    sim.run_transfers(&transfers, &conns, Some(hook))
}

fn key(r: &TransferReport) -> (u64, Vec<u64>, Vec<u64>, Vec<u64>, usize, bool) {
    let bits = |xs: &mut dyn Iterator<Item = f64>| xs.map(f64::to_bits).collect::<Vec<_>>();
    let achieved = |bw: &BwMatrix| bits(&mut bw.iter_pairs().map(|(_, _, x)| x));
    (
        r.makespan_s.to_bits(),
        bits(&mut r.completion_s.iter().copied()),
        achieved(&r.achieved_bw),
        bits(&mut r.egress_gigabits.iter().copied()),
        r.epochs,
        r.truncated,
    )
}

#[test]
fn a_simulator_run_inside_a_hook_leaves_both_runs_bit_identical() {
    let mut nested = Nesting::new(Some((inner_sim(), inner_sets())));
    let outer_nested = outer(&mut nested);

    // The same runs, one after the other: the outer one under a hook that
    // wakes alike and runs nothing, then as many inner runs on a fresh
    // simulator of the same seed.
    let mut alone = Nesting::new(None);
    let outer_alone = outer(&mut alone);
    let mut sim = inner_sim();
    let sets = inner_sets();
    let inner_alone: Vec<TransferReport> = (0..nested.inner_reports.len())
        .map(|k| sim.run_transfers(&sets[k % sets.len()], &ConnMatrix::filled(8, 2), None))
        .collect();

    assert!(nested.inner_reports.len() >= 4, "{} inner runs", nested.inner_reports.len());
    assert_eq!(key(&outer_nested), key(&outer_alone));
    assert_eq!(nested.seen, alone.seen, "the hook is shown the same rates at the same times");
    let keys = |rs: &[TransferReport]| rs.iter().map(key).collect::<Vec<_>>();
    assert_eq!(keys(&nested.inner_reports), keys(&inner_alone));
}
