//! A fitted forest keeps its trees and nothing that grows with the
//! training rows: every node is 12 bytes, and each tree adds a constant
//! (its header and the seed and row count its bootstrap bag replays
//! from), before and after a warm start.
//!
//! Live heap bytes are counted by a thread-local counter, so the tests of
//! this binary can run in parallel without seeing each other's; the fits
//! run in a 1-thread pool, which works on the calling thread. It lives in
//! its own test binary because a `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wanify_forest::{Dataset, ForestParams, RandomForest};

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes the calling thread holds.
struct Counting;

fn count(bytes: isize) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call forwards unchanged to `System`; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` in a 1-thread pool and returns its result with the heap bytes
/// it left allocated on this thread.
fn retained<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let before = LIVE_BYTES.with(Cell::get);
    let out = pool.install(f);
    let after = LIVE_BYTES.with(Cell::get);
    (out, usize::try_from(after - before).expect("a fit frees no more than it allocates"))
}

/// A gauge-shaped training set: 6 columns, bandwidth-scale targets.
fn gauge_like(rows: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new(6);
    for _ in 0..rows {
        let mut x: Vec<f64> = (0..6).map(|_| rng.gen::<f64>()).collect();
        x[0] = f64::from(rng.gen_range(2..9u32));
        let y = 1800.0 * x[1] / (1.0 + 2.0 * x[5]) + 120.0 * x[2] + 60.0 * (x[3] - 0.5) + x[0];
        data.push(x, y).unwrap();
    }
    data
}

fn node_bytes(forest: &RandomForest) -> usize {
    forest.trees().iter().map(|t| t.node_count() * 12).sum()
}

/// What a tree holds besides its nodes: its header (48 B) and its bag's
/// seed and row count (16 B), at most twice over for the spare capacity
/// a warm start's growth leaves in the forest's two vectors.
const PER_TREE: usize = 2 * (48 + 16);

#[test]
fn a_fitted_forest_retains_its_nodes_and_a_constant_per_tree() {
    let data = gauge_like(2_000, 3);
    let params =
        ForestParams { n_estimators: 12, features_per_split: Some(4), ..ForestParams::default() };
    // Warm-up: anything a first fit sets up once is not the forest's.
    drop(retained(|| RandomForest::fit(&data, &params, 1)));

    let (mut forest, fit_bytes) = retained(|| RandomForest::fit(&data, &params, 2));
    let nodes = node_bytes(&forest);
    assert!(nodes > 12 * 1_000 * forest.n_trees(), "{nodes} B of nodes: a shallow forest");
    assert!(
        (nodes..=nodes + PER_TREE * forest.n_trees()).contains(&fit_bytes),
        "fit retained {fit_bytes} B for {nodes} B of nodes in {} trees",
        forest.n_trees()
    );

    // A warm start on more rows adds its trees' nodes and constants only.
    let mut more = data.clone();
    more.extend_from(&gauge_like(1_000, 4)).unwrap();
    let ((), warm_bytes) = retained(|| forest.warm_start(&more, 9));
    let added = node_bytes(&forest) - nodes;
    assert!(
        (added..=added + PER_TREE * forest.n_trees()).contains(&warm_bytes),
        "warm start retained {warm_bytes} B for {added} B of new nodes"
    );
    assert!(forest.oob_mae(&more).is_some());
}
