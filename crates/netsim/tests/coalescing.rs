//! Event-coalescing parity: the transfer loop's fast path, entered
//! through `run_transfers`, must be bit-identical to naive per-second
//! stepping.
//!
//! The reference stepper below is an independent implementation of the
//! documented transfer semantics (see `wanify_netsim::sim` module docs):
//! it re-solves weighted max-min fairness after **every** simulated
//! epoch through the public `allocate_rates`, and keeps the same
//! anchor-plus-served-epochs accounting the engine defines, so any
//! divergence in the engine's event-coalescing jump arithmetic shows up
//! as a bit-level report mismatch.

use proptest::prelude::*;
use wanify_netsim::sim::{MAX_EPOCHS, PAYLOAD_EPS_GB};
use wanify_netsim::{
    paper_testbed_n, BwMatrix, ConnMatrix, DcId, EpochCtx, EpochHook, FaultSchedule, FlowSpec,
    LinkModelParams, NetSim, Transfer, TransferReport, VmType, EPOCH_DT_S,
};

fn frozen_sim(n: usize, seed: u64) -> NetSim {
    NetSim::new(paper_testbed_n(VmType::t3_nano(), n), LinkModelParams::frozen(), seed)
}

/// A sim with live OU dynamics quantized on `tick_s`. Probe noise is off so
/// the only RNG consumer is the dynamics process itself.
fn live_sim(n: usize, seed: u64, tick_s: f64) -> NetSim {
    let params =
        LinkModelParams { dynamics_tick_s: tick_s, snapshot_noise: 0.0, ..Default::default() };
    NetSim::new(paper_testbed_n(VmType::t3_nano(), n), params, seed)
}

struct RefPair {
    src: usize,
    dst: usize,
    remaining: f64,
    moved: f64,
    busy: f64,
    quota: f64,
    served: u64,
    active: bool,
}

impl RefPair {
    fn fold(&mut self, dt: f64) {
        if self.served > 0 {
            let m = self.served as f64;
            self.remaining -= m * self.quota;
            self.moved += m * self.quota;
            self.busy += m * dt;
            self.served = 0;
        }
    }
}

/// Naive per-second stepper: one fairness solve per epoch, forever.
fn reference_run(sim: &mut NetSim, transfers: &[Transfer], conns: &ConnMatrix) -> TransferReport {
    let n = sim.topology().len();
    let mut totals = BwMatrix::new(n);
    for t in transfers {
        assert!(t.gigabits >= 0.0);
        totals.put(t.src, t.dst, totals.at(t.src, t.dst) + t.gigabits);
    }
    let mut pairs: Vec<RefPair> = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if totals.get(i, j) > PAYLOAD_EPS_GB {
                pairs.push(RefPair {
                    src: i,
                    dst: j,
                    remaining: totals.get(i, j),
                    moved: 0.0,
                    busy: 0.0,
                    quota: 0.0,
                    served: 0,
                    active: true,
                });
            }
        }
    }

    let dt = EPOCH_DT_S;
    let mut epochs = 0usize;
    while pairs.iter().any(|p| p.active) && epochs < MAX_EPOCHS {
        // Fault events fire at solve points; the per-epoch reference has
        // one per epoch (a no-op unless a schedule is installed).
        sim.poll_faults();
        let flows: Vec<FlowSpec> = pairs
            .iter()
            .filter(|p| p.active)
            .map(|p| {
                let c = if p.src == p.dst { 1 } else { conns.get(p.src, p.dst).max(1) };
                FlowSpec::new(DcId(p.src), DcId(p.dst), c)
            })
            .collect();
        let rates = sim.allocate_rates(&flows);
        for (f, p) in pairs.iter_mut().filter(|p| p.active).enumerate() {
            let quota = rates[f] * dt / 1000.0;
            if quota != p.quota {
                p.fold(dt);
                p.quota = quota;
            }
            p.served += 1;
            if p.remaining - p.served as f64 * p.quota <= PAYLOAD_EPS_GB {
                p.busy += p.served as f64 * dt;
                p.moved += p.remaining;
                p.remaining = 0.0;
                p.served = 0;
                p.active = false;
            }
        }
        epochs += 1;
        sim.advance(dt);
    }

    let mut busy_s = BwMatrix::new(n);
    let mut moved_gb = BwMatrix::new(n);
    for p in &mut pairs {
        p.fold(dt);
        busy_s.set(p.src, p.dst, p.busy);
        moved_gb.set(p.src, p.dst, p.moved);
    }
    let achieved = BwMatrix::from_fn(n, |i, j| {
        let busy = busy_s.get(i, j);
        if busy > 0.0 {
            moved_gb.get(i, j) * 1000.0 / busy
        } else {
            0.0
        }
    });
    let min_pair = achieved
        .iter_pairs()
        .filter(|&(i, j, _)| totals.get(i, j) > PAYLOAD_EPS_GB)
        .map(|(_, _, v)| v)
        .fold(f64::INFINITY, f64::min);
    let mut egress = vec![0.0; n];
    for (i, _, gb) in moved_gb.iter_pairs() {
        egress[i] += gb;
    }
    let completion: Vec<f64> = transfers
        .iter()
        .map(|t| busy_s.at(t.src, t.dst).max(if t.gigabits > 0.0 { dt } else { 0.0 }))
        .collect();
    let makespan = completion.iter().copied().fold(0.0, f64::max);
    TransferReport {
        makespan_s: makespan,
        completion_s: completion,
        achieved_bw: achieved,
        min_pair_bw_mbps: if min_pair.is_finite() { min_pair } else { 0.0 },
        egress_gigabits: egress,
        epochs,
        truncated: pairs.iter().any(|p| p.active),
    }
}

/// Bit-level equality over every report field.
fn assert_reports_bit_identical(fast: &TransferReport, reference: &TransferReport) {
    assert_eq!(fast.epochs, reference.epochs, "epoch counts differ");
    assert_eq!(fast.truncated, reference.truncated, "one run gave up, the other did not");
    assert_eq!(
        fast.makespan_s.to_bits(),
        reference.makespan_s.to_bits(),
        "makespan differs: {} vs {}",
        fast.makespan_s,
        reference.makespan_s
    );
    assert_eq!(
        fast.min_pair_bw_mbps.to_bits(),
        reference.min_pair_bw_mbps.to_bits(),
        "min pair bw differs"
    );
    let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&fast.completion_s), bits(&reference.completion_s), "completion times differ");
    assert_eq!(
        bits(&fast.egress_gigabits),
        bits(&reference.egress_gigabits),
        "egress accounting differs"
    );
    assert_eq!(
        bits(fast.achieved_bw.as_slice()),
        bits(reference.achieved_bw.as_slice()),
        "achieved bandwidth matrices differ"
    );
}

#[test]
fn coalesced_run_matches_reference_on_mixed_workload() {
    let transfers = [
        Transfer::new(DcId(0), DcId(1), 12.0),
        Transfer::new(DcId(0), DcId(2), 3.5),
        Transfer::new(DcId(2), DcId(1), 0.25),
        Transfer::new(DcId(1), DcId(1), 2.0), // intra-DC
        Transfer::new(DcId(2), DcId(0), 0.0), // empty
    ];
    let conns = ConnMatrix::from_fn(3, |i, j| if i == j { 1 } else { 1 + (i + 2 * j) as u32 });
    let fast = frozen_sim(3, 42).run_transfers(&transfers, &conns, None);
    let reference = reference_run(&mut frozen_sim(3, 42), &transfers, &conns);
    assert_reports_bit_identical(&fast, &reference);
}

#[test]
fn merged_pairs_crumbs_and_clamped_cells_match_reference() {
    // Several transfers per pair, interleaved and out of pair order, with
    // payloads whose sum depends on the order of addition (0.1 + 0.2 +
    // 0.3): the loop's sort-and-merge must round like the reference's
    // running per-pair total. Plus a sub-epsilon crumb on a live pair, a
    // crumb-only pair, a zero-connection cell (clamps to one connection)
    // and an intra-DC transfer.
    let transfers = [
        Transfer::new(DcId(2), DcId(1), 0.3),
        Transfer::new(DcId(0), DcId(1), 0.1),
        Transfer::new(DcId(0), DcId(2), 7.0),
        Transfer::new(DcId(0), DcId(1), 0.2),
        Transfer::new(DcId(2), DcId(1), 1e-10),
        Transfer::new(DcId(1), DcId(1), 1.5),
        Transfer::new(DcId(0), DcId(1), 0.3),
        Transfer::new(DcId(1), DcId(0), 1e-10),
        Transfer::new(DcId(2), DcId(1), 0.6),
    ];
    let mut conns = ConnMatrix::filled(3, 1);
    conns.set(0, 1, 3);
    conns.set(2, 1, 0);
    let mut sim = frozen_sim(3, 1);
    let fast = sim.run_transfers(&transfers, &conns, None);
    let reference = reference_run(&mut frozen_sim(3, 1), &transfers, &conns);
    assert_reports_bit_identical(&fast, &reference);
    assert_eq!(sim.last_run_stats().epochs, reference.epochs as u64);
    assert!(fast.completion_s[4] > 0.25, "the crumb rides its pair's flow");
    assert_eq!(fast.completion_s[7], 0.25, "a crumb-only pair takes the one-epoch floor");
    assert_eq!(fast.egress_gigabits[1], 0.0, "intra-DC payload is no egress");
}

#[test]
fn long_transfer_solve_count_is_bounded_by_drain_events() {
    // The slowest pair (US East → AP Southeast, 1 conn ≈ 121 Mbps) takes
    // well over 1000 simulated seconds; the fast path must still solve
    // fairness at most once per pair-drain event plus the initial solve.
    let transfers = [
        Transfer::new(DcId(0), DcId(3), 160.0), // >1000 s on the weak link
        Transfer::new(DcId(0), DcId(1), 240.0),
        Transfer::new(DcId(1), DcId(2), 100.0),
        Transfer::new(DcId(2), DcId(3), 40.0),
    ];
    let conns = ConnMatrix::filled(4, 1);
    let mut sim = frozen_sim(4, 7);
    let fast = sim.run_transfers(&transfers, &conns, None);
    let stats = sim.last_run_stats();

    assert!(stats.coalesced, "frozen no-hook run must take the fast path");
    let drain_events = transfers.len() as u64;
    assert!(
        stats.solves <= drain_events + 1,
        "{} solves for {} drain events",
        stats.solves,
        drain_events
    );
    let dt = EPOCH_DT_S;
    assert!(
        fast.makespan_s >= 1000.0,
        "workload too small to exercise coalescing: {} s",
        fast.makespan_s
    );
    assert!(fast.epochs as f64 * dt >= 1000.0);

    let reference = reference_run(&mut frozen_sim(4, 7), &transfers, &conns);
    assert_reports_bit_identical(&fast, &reference);
}

#[test]
fn noop_hook_forces_per_epoch_yet_stays_bit_identical() {
    // A do-nothing hook forces one solve per epoch; because both modes
    // evaluate the same segment expressions, the reports must still be
    // bit-identical — this is the engine-internal parity guarantee.
    struct Noop;
    impl EpochHook for Noop {
        fn on_epoch(&mut self, _ctx: &mut EpochCtx<'_>) {}
    }
    let transfers = [Transfer::new(DcId(0), DcId(1), 8.0), Transfer::new(DcId(1), DcId(2), 2.0)];
    let conns = ConnMatrix::filled(3, 2);
    let fast = frozen_sim(3, 9).run_transfers(&transfers, &conns, None);
    let mut sim = frozen_sim(3, 9);
    let stepped = sim.run_transfers(&transfers, &conns, Some(&mut Noop));
    assert!(!sim.last_run_stats().coalesced);
    assert_eq!(sim.last_run_stats().solves, stepped.epochs as u64);
    assert_reports_bit_identical(&fast, &stepped);
}

#[test]
fn hooks_see_every_epoch_even_when_coalescing_would_apply() {
    // Regression companion to `hook_can_raise_connections_mid_transfer`:
    // a hook-driven run on a frozen network must observe every epoch.
    struct Counter {
        calls: usize,
        boosted: bool,
    }
    impl EpochHook for Counter {
        fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
            self.calls += 1;
            if !self.boosted && ctx.time_s >= 3.0 {
                ctx.conns.set(0, 3, 9);
                self.boosted = true;
            }
        }
    }
    let mut hook = Counter { calls: 0, boosted: false };
    let mut sim = frozen_sim(4, 21);
    let conns = ConnMatrix::filled(4, 1);
    let report =
        sim.run_transfers(&[Transfer::new(DcId(0), DcId(3), 5.0)], &conns, Some(&mut hook));
    assert_eq!(hook.calls, report.epochs, "the hook must run after every epoch");
    assert!(hook.boosted, "the mid-transfer intervention must have fired");
    assert_eq!(sim.last_run_stats().solves, report.epochs as u64);
}

#[test]
fn fault_timeline_stays_bit_identical_to_reference() {
    // A compound fault timeline — outage, flap, straggler, diurnal wave —
    // injected as coalesced rate-change events must land on exactly the
    // epochs the per-second reference sees them at.
    let schedule = || {
        FaultSchedule::new()
            .dc_outage(DcId(1), 4.0, 16.0)
            .link_flap(DcId(0), DcId(2), 0.35, 1.0, 6.0, 4)
            .straggler(DcId(2), 0.6, 20.0)
            .straggler(DcId(2), 1.0, 35.0)
            .diurnal(50.0, 0.5, 5, 1)
    };
    let transfers = [
        Transfer::new(DcId(0), DcId(1), 9.0),
        Transfer::new(DcId(0), DcId(2), 4.0),
        Transfer::new(DcId(2), DcId(1), 2.0),
        Transfer::new(DcId(1), DcId(0), 0.5),
    ];
    let conns = ConnMatrix::from_fn(3, |i, j| if i == j { 1 } else { 1 + (2 * i + j) as u32 });
    let mut fast_sim = frozen_sim(3, 13);
    fast_sim.set_fault_schedule(schedule());
    let fast = fast_sim.run_transfers(&transfers, &conns, None);
    let mut ref_sim = frozen_sim(3, 13);
    ref_sim.set_fault_schedule(schedule());
    let reference = reference_run(&mut ref_sim, &transfers, &conns);
    assert!(fast_sim.last_run_stats().coalesced);
    assert_reports_bit_identical(&fast, &reference);
    assert_eq!(fast_sim.degraded_s().to_bits(), ref_sim.degraded_s().to_bits());
    assert!(fast_sim.degraded_s() > 0.0, "the timeline must actually degrade the run");
}

#[test]
fn live_dynamics_stay_bit_identical_to_reference() {
    // OU dynamics quantized on a 30 s tick: rates change only at tick
    // boundaries, so the fast path jumps whole inter-tick segments yet
    // must reproduce the per-epoch reference bit for bit.
    let transfers = [
        Transfer::new(DcId(0), DcId(1), 90.0),
        Transfer::new(DcId(0), DcId(2), 20.0),
        Transfer::new(DcId(2), DcId(1), 6.0),
    ];
    let conns = ConnMatrix::from_fn(3, |i, j| if i == j { 1 } else { 1 + (i + 2 * j) as u32 });
    let mut fast_sim = live_sim(3, 77, 30.0);
    let fast = fast_sim.run_transfers(&transfers, &conns, None);
    let stats = fast_sim.last_run_stats();
    let reference = reference_run(&mut live_sim(3, 77, 30.0), &transfers, &conns);
    assert_reports_bit_identical(&fast, &reference);
    assert!(stats.coalesced, "tick-quantized dynamics must keep the fast path");
    assert!(
        stats.solves * 10 <= stats.epochs,
        "30 s ticks at dt 0.25 should coalesce >= 10x: {} solves over {} epochs",
        stats.solves,
        stats.epochs
    );
}

#[test]
fn unit_tick_dynamics_match_reference() {
    // The bit-compat default: a 1 s tick with dt 0.25 still coalesces the
    // four epochs inside each tick while reproducing the legacy trajectory.
    let transfers = [Transfer::new(DcId(0), DcId(1), 25.0), Transfer::new(DcId(1), DcId(2), 8.0)];
    let conns = ConnMatrix::filled(3, 2);
    let mut fast_sim = live_sim(3, 5, 1.0);
    let fast = fast_sim.run_transfers(&transfers, &conns, None);
    let stats = fast_sim.last_run_stats();
    let reference = reference_run(&mut live_sim(3, 5, 1.0), &transfers, &conns);
    assert_reports_bit_identical(&fast, &reference);
    assert!(stats.coalesced);
    assert!(stats.solves < stats.epochs, "{} solves, {} epochs", stats.solves, stats.epochs);
}

#[test]
fn composed_diurnal_and_decay_stay_bit_identical_to_reference() {
    // Piecewise deterministic components (diurnal sinusoid + linear decay)
    // resample on the same tick grid as the OU process, so composing them
    // must not break fast-path parity.
    let install = |sim: &mut NetSim| {
        sim.dynamics_mut().set_diurnal(0.3, 120.0, 15.0);
        sim.dynamics_mut().set_decay(1e-4, 0.7);
    };
    let transfers = [Transfer::new(DcId(0), DcId(1), 60.0), Transfer::new(DcId(0), DcId(2), 9.0)];
    let conns = ConnMatrix::filled(3, 2);
    let mut fast_sim = live_sim(3, 31, 10.0);
    install(&mut fast_sim);
    let fast = fast_sim.run_transfers(&transfers, &conns, None);
    let mut ref_sim = live_sim(3, 31, 10.0);
    install(&mut ref_sim);
    let reference = reference_run(&mut ref_sim, &transfers, &conns);
    assert_reports_bit_identical(&fast, &reference);
    assert!(fast_sim.last_run_stats().coalesced);
}

/// An AIMD-shaped hook: acts only at interval boundaries, and — when
/// `schedule` is set — tells the engine so via `next_wake`, keeping the
/// run coalescible. With `schedule` off the same hook forces per-epoch
/// stepping, which is the reference arm of the hooked parity tests.
struct IntervalHook {
    next_s: f64,
    interval_s: f64,
    schedule: bool,
    updates: usize,
}

impl IntervalHook {
    fn new(interval_s: f64, schedule: bool) -> Self {
        Self { next_s: 0.0, interval_s, schedule, updates: 0 }
    }
}

impl EpochHook for IntervalHook {
    fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
        if ctx.time_s < self.next_s {
            return;
        }
        self.next_s = ctx.time_s + self.interval_s;
        self.updates += 1;
        // A deterministic intervention that depends only on the update
        // count, so both arms drive identical connection trajectories.
        ctx.conns.set(0, 1, 1 + (self.updates % 5) as u32);
        ctx.conns.set(1, 2, 1 + ((self.updates * 2) % 4) as u32);
    }

    fn next_wake(&mut self, _now_s: f64) -> Option<f64> {
        self.schedule.then_some(self.next_s)
    }
}

#[test]
fn wake_scheduling_hook_matches_per_epoch_hook_bit_for_bit() {
    let transfers = [
        Transfer::new(DcId(0), DcId(1), 70.0),
        Transfer::new(DcId(1), DcId(2), 30.0),
        Transfer::new(DcId(0), DcId(2), 5.0),
    ];
    let conns = ConnMatrix::filled(3, 1);

    let mut scheduled = IntervalHook::new(5.0, true);
    let mut fast_sim = frozen_sim(3, 11);
    let fast = fast_sim.run_transfers(&transfers, &conns, Some(&mut scheduled));
    let fast_stats = fast_sim.last_run_stats();

    let mut stepped_hook = IntervalHook::new(5.0, false);
    let mut ref_sim = frozen_sim(3, 11);
    let stepped = ref_sim.run_transfers(&transfers, &conns, Some(&mut stepped_hook));
    let ref_stats = ref_sim.last_run_stats();

    assert_reports_bit_identical(&fast, &stepped);
    assert_eq!(scheduled.updates, stepped_hook.updates, "both arms must act at the same wakes");
    assert!(scheduled.updates >= 3, "the run must span several intervals");
    assert!(fast_stats.coalesced, "a wake-scheduling hook must keep the fast path");
    assert!(!ref_stats.coalesced);
    assert_eq!(ref_stats.solves, stepped.epochs as u64);
    assert!(
        fast_stats.solves * 4 <= ref_stats.solves,
        "wake scheduling should save most solves: {} vs {}",
        fast_stats.solves,
        ref_stats.solves
    );
}

#[test]
fn hooked_live_dynamics_and_faults_compose_bit_identically() {
    // The full horizon: drains, fault boundaries, 10 s dynamics ticks and
    // 5 s hook wakes all interleave; the generalized next-event jump must
    // still match the same hook forced to step per epoch.
    let schedule =
        || FaultSchedule::new().dc_outage(DcId(2), 6.0, 14.0).straggler(DcId(0), 0.7, 20.0);
    let transfers = [Transfer::new(DcId(0), DcId(1), 55.0), Transfer::new(DcId(0), DcId(2), 12.0)];
    let conns = ConnMatrix::filled(3, 2);

    let mut scheduled = IntervalHook::new(5.0, true);
    let mut fast_sim = live_sim(3, 23, 10.0);
    fast_sim.set_fault_schedule(schedule());
    let fast = fast_sim.run_transfers(&transfers, &conns, Some(&mut scheduled));

    let mut stepped_hook = IntervalHook::new(5.0, false);
    let mut ref_sim = live_sim(3, 23, 10.0);
    ref_sim.set_fault_schedule(schedule());
    let stepped = ref_sim.run_transfers(&transfers, &conns, Some(&mut stepped_hook));

    assert_reports_bit_identical(&fast, &stepped);
    assert_eq!(scheduled.updates, stepped_hook.updates);
    assert_eq!(fast_sim.degraded_s().to_bits(), ref_sim.degraded_s().to_bits());
    assert!(fast_sim.last_run_stats().coalesced);
    assert!(fast_sim.last_run_stats().solves < ref_sim.last_run_stats().solves);
}

/// One self-healing fault for the parity proptest: `(kind, dc_a, dc_b,
/// start, duration, factor)` expands to an event plus its restoration, so
/// the per-second reference never steps a permanently-stalled pair to the
/// epoch cap.
fn arb_fault_timeline() -> impl Strategy<Value = Vec<(u8, usize, usize, f64, f64, f64)>> {
    proptest::collection::vec(
        (0u8..4, 0usize..3, 0usize..3, 0.5f64..25.0, 1.0f64..12.0, 0.2f64..1.0),
        0..5,
    )
}

fn build_schedule(timeline: &[(u8, usize, usize, f64, f64, f64)]) -> FaultSchedule {
    let mut s = FaultSchedule::new();
    for &(kind, a, b, start, dur, factor) in timeline {
        s = match kind {
            0 => s.dc_outage(DcId(a), start, start + dur),
            1 => {
                let (src, dst) = (DcId(a), DcId(b));
                s.at(start, wanify_netsim::FaultKind::LinkFactor { src, dst, factor })
                    .at(start + dur, wanify_netsim::FaultKind::LinkFactor { src, dst, factor: 1.0 })
            }
            2 => s.straggler(DcId(a), factor, start).straggler(DcId(a), 1.0, start + dur),
            _ => s
                .at(start, wanify_netsim::FaultKind::GlobalFactor(factor))
                .at(start + dur, wanify_netsim::FaultKind::GlobalFactor(1.0)),
        };
    }
    s
}

proptest! {
    #[test]
    fn fault_event_parity_on_random_timelines(
        payloads in proptest::collection::vec((0usize..3, 0usize..3, 0.0f64..4.0), 1..5),
        timeline in arb_fault_timeline(),
        seed in 0u64..500,
    ) {
        let transfers: Vec<Transfer> = payloads
            .iter()
            .map(|&(s, d, gb)| Transfer::new(DcId(s), DcId(d), gb))
            .collect();
        let conns = ConnMatrix::filled(3, 2);
        let mut fast_sim = frozen_sim(3, seed);
        fast_sim.set_fault_schedule(build_schedule(&timeline));
        let fast = fast_sim.run_transfers(&transfers, &conns, None);
        let mut ref_sim = frozen_sim(3, seed);
        ref_sim.set_fault_schedule(build_schedule(&timeline));
        let reference = reference_run(&mut ref_sim, &transfers, &conns);
        prop_assert_eq!(fast.epochs, reference.epochs);
        prop_assert_eq!(fast.makespan_s.to_bits(), reference.makespan_s.to_bits());
        prop_assert_eq!(fast.min_pair_bw_mbps.to_bits(), reference.min_pair_bw_mbps.to_bits());
        for (a, b) in fast.completion_s.iter().zip(&reference.completion_s) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in fast.egress_gigabits.iter().zip(&reference.egress_gigabits) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(fast_sim.degraded_s().to_bits(), ref_sim.degraded_s().to_bits());
    }

    #[test]
    fn coalescing_parity_on_random_workloads(
        payloads in proptest::collection::vec((0usize..3, 0usize..3, 0.0f64..4.0), 1..7),
        conn_seed in 1u32..6,
        zero_cell in (0usize..3, 0usize..3),
        seed in 0u64..1000,
    ) {
        // Cells repeat and land on the diagonal (nine cells, up to six
        // draws), and one cell asks for zero connections.
        let transfers: Vec<Transfer> = payloads
            .iter()
            .map(|&(s, d, gb)| Transfer::new(DcId(s), DcId(d), gb))
            .collect();
        let mut conns =
            ConnMatrix::from_fn(3, |i, j| 1 + ((i as u32 + conn_seed * j as u32) % 5));
        conns.set(zero_cell.0, zero_cell.1, 0);
        let fast = frozen_sim(3, seed).run_transfers(&transfers, &conns, None);
        let reference = reference_run(&mut frozen_sim(3, seed), &transfers, &conns);
        prop_assert_eq!(fast.epochs, reference.epochs);
        prop_assert_eq!(fast.makespan_s.to_bits(), reference.makespan_s.to_bits());
        prop_assert_eq!(fast.min_pair_bw_mbps.to_bits(), reference.min_pair_bw_mbps.to_bits());
        for (a, b) in fast.completion_s.iter().zip(&reference.completion_s) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in fast.egress_gigabits.iter().zip(&reference.egress_gigabits) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in fast.achieved_bw.as_slice().iter().zip(reference.achieved_bw.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn live_dynamics_parity_on_random_faulted_timelines(
        payloads in proptest::collection::vec((0usize..3, 0usize..3, 0.5f64..5.0), 1..4),
        tick_i in 0usize..4,
        timeline in arb_fault_timeline(),
        seed in 0u64..500,
    ) {
        // Ticks are multiples of dt (0.25 s), so segment time accounting
        // is exact and parity must hold to the bit.
        let tick = [1.0, 2.0, 7.5, 30.0][tick_i];
        let transfers: Vec<Transfer> = payloads
            .iter()
            .map(|&(s, d, gb)| Transfer::new(DcId(s), DcId(d), gb))
            .collect();
        let conns = ConnMatrix::filled(3, 2);
        let mut fast_sim = live_sim(3, seed, tick);
        fast_sim.set_fault_schedule(build_schedule(&timeline));
        let fast = fast_sim.run_transfers(&transfers, &conns, None);
        prop_assert!(fast_sim.last_run_stats().coalesced);
        let mut ref_sim = live_sim(3, seed, tick);
        ref_sim.set_fault_schedule(build_schedule(&timeline));
        let reference = reference_run(&mut ref_sim, &transfers, &conns);
        prop_assert_eq!(fast.epochs, reference.epochs);
        prop_assert_eq!(fast.makespan_s.to_bits(), reference.makespan_s.to_bits());
        prop_assert_eq!(fast.min_pair_bw_mbps.to_bits(), reference.min_pair_bw_mbps.to_bits());
        for (a, b) in fast.completion_s.iter().zip(&reference.completion_s) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in fast.egress_gigabits.iter().zip(&reference.egress_gigabits) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in fast.achieved_bw.as_slice().iter().zip(reference.achieved_bw.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(fast_sim.degraded_s().to_bits(), ref_sim.degraded_s().to_bits());
    }

    #[test]
    fn wake_scheduled_hooks_parity_on_random_workloads(
        payloads in proptest::collection::vec((0usize..3, 0usize..3, 1.0f64..6.0), 1..4),
        interval_i in 0usize..3,
        tick_i in 0usize..3,
        seed in 0u64..500,
    ) {
        let interval = [2.5, 5.0, 10.0][interval_i];
        // tick 0.0 here means frozen dynamics (the frozen_sim arm).
        let tick = [0.0, 1.0, 30.0][tick_i];
        let make_sim = || if tick > 0.0 { live_sim(3, seed, tick) } else { frozen_sim(3, seed) };
        let transfers: Vec<Transfer> = payloads
            .iter()
            .map(|&(s, d, gb)| Transfer::new(DcId(s), DcId(d), gb))
            .collect();
        let conns = ConnMatrix::filled(3, 1);

        let mut scheduled = IntervalHook::new(interval, true);
        let mut fast_sim = make_sim();
        let fast = fast_sim.run_transfers(&transfers, &conns, Some(&mut scheduled));

        let mut stepped_hook = IntervalHook::new(interval, false);
        let mut ref_sim = make_sim();
        let stepped = ref_sim.run_transfers(&transfers, &conns, Some(&mut stepped_hook));

        prop_assert_eq!(scheduled.updates, stepped_hook.updates);
        prop_assert!(fast_sim.last_run_stats().solves <= ref_sim.last_run_stats().solves);
        prop_assert_eq!(fast.epochs, stepped.epochs);
        prop_assert_eq!(fast.makespan_s.to_bits(), stepped.makespan_s.to_bits());
        prop_assert_eq!(fast.min_pair_bw_mbps.to_bits(), stepped.min_pair_bw_mbps.to_bits());
        for (a, b) in fast.completion_s.iter().zip(&stepped.completion_s) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in fast.egress_gigabits.iter().zip(&stepped.egress_gigabits) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in fast.achieved_bw.as_slice().iter().zip(stepped.achieved_bw.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
