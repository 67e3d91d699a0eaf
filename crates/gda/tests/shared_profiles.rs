//! The sharing contract of job profiles and reports, checked by counting
//! heap allocations: cloning a trace copies the `Vec` of profiles and
//! nothing else, an edited layout copies its blocks rather than writing
//! through to the profile it was cloned from, and every report of one
//! fleet points at the same scheduler and belief names. Absorbing a
//! completion into a fleet's streaming totals allocates nothing.
//!
//! The counter is thread-local, so the tests of this binary can run in
//! parallel without seeing each other's allocations; it lives in its own
//! test binary because a `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use wanify_gda::{
    Arrivals, FleetConfig, FleetEngine, FleetRun, JobOutcome, JobProfile, StreamingTotals, Tetrium,
};
use wanify_netsim::{paper_testbed_n, LinkModelParams, NetSim, VmType};
use wanify_workloads::{mixed_trace, TraceConfig};

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

#[test]
fn cloning_a_trace_allocates_only_its_vec() {
    let trace = mixed_trace(&TraceConfig::new(8, 1_000, 42));
    let (copy, n) = allocations(|| trace.clone());
    assert_eq!(n, 1, "a clone of {} profiles made {n} allocations", trace.len());
    assert_eq!(copy, trace);
}

#[test]
fn moving_blocks_on_a_clone_copies_them_first() {
    let trace = mixed_trace(&TraceConfig::new(8, 20, 42));
    let before: Vec<u64> = trace[0].layout.blocks_per_dc.to_vec();
    let mut copy = trace.clone();
    assert!(Arc::ptr_eq(&copy[0].layout.blocks_per_dc, &trace[0].layout.blocks_per_dc));

    let moving = before[1];
    assert!(moving > 0, "{before:?}");
    copy[0].layout.move_blocks(1, 0, moving);
    assert_eq!(&*trace[0].layout.blocks_per_dc, &before[..], "the original is unchanged");
    assert_eq!(copy[0].layout.blocks_per_dc[1], 0);
    assert_eq!(copy[0].layout.blocks_per_dc[0], before[0] + moving);
    assert!(!Arc::ptr_eq(&copy[0].layout.blocks_per_dc, &trace[0].layout.blocks_per_dc));
    // The profiles nobody edited still share everything.
    assert!(Arc::ptr_eq(&copy[1].layout.blocks_per_dc, &trace[1].layout.blocks_per_dc));
    assert!(Arc::ptr_eq(&copy[0].stages, &trace[0].stages));
}

/// The outcomes of `trace` run to completion by a three-tenant fleet on
/// a frozen four-DC WAN, in completion order.
fn run_fleet(trace: &[JobProfile]) -> Vec<JobOutcome> {
    let engine = FleetEngine::new(
        NetSim::new(paper_testbed_n(VmType::t2_medium(), 4), LinkModelParams::frozen(), 11),
        Box::new(Tetrium::new()),
        Box::new(wanify::StaticIndependent::new()),
        FleetConfig { max_concurrent: 3, ..FleetConfig::default() },
    );
    let mut run =
        FleetRun::start(engine, trace.to_vec(), &Arrivals::Closed { clients: 3, think_s: 0.0 })
            .expect("trace fits the WAN");
    run.run_until(f64::INFINITY).expect("the fleet drains");
    run.into_report().outcomes
}

#[test]
fn reports_of_one_fleet_share_their_names() {
    let trace = mixed_trace(&TraceConfig::new(4, 6, 42).scaled(0.5));
    let outcomes = run_fleet(&trace);
    assert_eq!(outcomes.len(), trace.len());

    let (first, second) = (&outcomes[0].report, &outcomes[1].report);
    assert_eq!(&*first.scheduler, "tetrium");
    assert!(Arc::ptr_eq(&first.scheduler, &second.scheduler), "one scheduler name per fleet");
    assert!(Arc::ptr_eq(&first.belief, &second.belief), "one belief name per fleet");
    for o in &outcomes {
        assert!(Arc::ptr_eq(&o.report.job, &trace[o.job_idx].name), "{}", o.report.job);
    }
}

#[test]
fn absorbing_a_completion_allocates_nothing() {
    let outcomes = run_fleet(&mixed_trace(&TraceConfig::new(4, 6, 42).scaled(0.5)));
    let mut totals = StreamingTotals::default();
    totals.absorb(&outcomes[0]);
    for outcome in &outcomes {
        let ((), n) = allocations(|| totals.absorb(outcome));
        assert_eq!(n, 0, "absorbing {} made {n} allocations", outcome.report.job);
    }
    assert_eq!(totals.completed, outcomes.len() + 1);
}
