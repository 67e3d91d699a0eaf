//! Metamorphic relations: properties that hold between two runs, so they
//! need no second implementation to check against.
//!
//! **R1, relabelling.** Under frozen dynamics a DC's index is only a
//! name: renaming the DCs by a permutation — topology order, data
//! layouts, connection counts, transfers — and renaming the results back
//! gives the same times bit for bit: every completion, makespan, job
//! latency and stage latency, and behind a gateway every verdict (served,
//! shed or rejected) too. A sharded fleet's backbone is renamed with the
//! DCs: its group map moves, its group labels stay. A fault schedule is
//! renamed event by event (outages, link flaps, stragglers), and under a
//! fault policy every stall, retry, re-placement and failure lands on the
//! same job at the same time, so the fault counters agree bit for bit.
//!
//! Accumulated volumes are not label-free. The fairness solve and the
//! per-DC egress sums add in DC-index order, so a renamed run's
//! per-pair achieved bandwidth and per-DC egress differ from the
//! original's by up to 3 ulp on these inputs. They are left out of R1
//! until those sums stop depending on the labels.
//!
//! Nor, as the sharded fleet shows, are job and stage latencies. A job's
//! latency adds up its compute phases, and a phase after a shuffle lasts
//! as long as the volume its reducers were given, which is a DC-index
//! order sum (`scheduler::normalize` over the placement weights,
//! `JobRun`'s total stage output). One job of the 24 there ends 1 ulp
//! apart in latency; its completion, taken off the fleet's clock, does
//! not move. Arrivals, admissions, completions and makespans are
//! checked bit for bit.

use wanify::Pregauged;
use wanify_gateway::{Disposition, Gateway, GatewayConfig, GatewayReport, GatewayRequest};
use wanify_gda::{
    Arrivals, DataLayout, FaultCounters, FaultPolicy, FleetConfig, FleetEngine, FleetReport,
    FleetRun, JobProfile, Kimchi, QueryReport, RoundRobinShards, Scheduler, ShardedFleetEngine,
    ShardedFleetReport, Tetrium, VanillaSpark,
};
use wanify_netsim::{
    paper_testbed_n, Backbone, BwMatrix, DcId, FaultKind, FaultSchedule, Grid, LinkModelParams,
    NetSim, RunStats, Topology, Transfer, VmType,
};
use wanify_workloads::{mixed_trace, offered_load, LoadSpec, TraceConfig};

const N_DCS: usize = 6;

/// A fixed derangement: old DC `i` is renamed `SIGMA[i]`.
const SIGMA: [usize; N_DCS] = [2, 4, 0, 5, 1, 3];

/// Renames DCs by [`SIGMA`]: whatever old DC `i` held, new DC
/// `SIGMA[i]` holds.
struct Relabel;

impl Relabel {
    fn dc(&self, d: DcId) -> DcId {
        DcId(SIGMA[d.0])
    }

    /// A per-DC vector, renamed.
    fn vec<T: Clone>(&self, v: &[T]) -> Vec<T> {
        let mut out = v.to_vec();
        for (i, x) in v.iter().enumerate() {
            out[SIGMA[i]] = x.clone();
        }
        out
    }

    /// A pair grid, renamed.
    fn grid<T: Copy + Default>(&self, g: &Grid<T>) -> Grid<T> {
        let mut out = Grid::new(g.len());
        for (i, j, x) in g.iter_pairs() {
            out.set(SIGMA[i], SIGMA[j], x);
        }
        out
    }

    fn topology(&self, topo: &Topology) -> Topology {
        let dcs = self.vec(&topo.iter().map(|(_, dc)| dc.clone()).collect::<Vec<_>>());
        dcs.into_iter()
            .fold(Topology::builder(), |b, dc| b.dc(dc.region, dc.vm, dc.vm_count))
            .build()
            .expect("a permutation of a valid topology")
    }

    fn transfers(&self, transfers: &[Transfer]) -> Vec<Transfer> {
        transfers
            .iter()
            .map(|t| Transfer::new(self.dc(t.src), self.dc(t.dst), t.gigabits))
            .collect()
    }

    /// A fault schedule, renamed: every event at its time, on the renamed
    /// DCs, in its order.
    fn faults(&self, faults: &FaultSchedule) -> FaultSchedule {
        faults.events().iter().fold(FaultSchedule::new(), |moved, e| {
            let kind = match e.kind {
                FaultKind::DcDown(dc) => FaultKind::DcDown(self.dc(dc)),
                FaultKind::DcUp(dc) => FaultKind::DcUp(self.dc(dc)),
                FaultKind::LinkFactor { src, dst, factor } => {
                    FaultKind::LinkFactor { src: self.dc(src), dst: self.dc(dst), factor }
                }
                FaultKind::DcFactor { dc, factor } => {
                    FaultKind::DcFactor { dc: self.dc(dc), factor }
                }
                global @ FaultKind::GlobalFactor(_) => global,
            };
            moved.at(e.at_s, kind)
        })
    }

    fn job(&self, job: &JobProfile) -> JobProfile {
        let layout =
            DataLayout { blocks_per_dc: self.vec(&job.layout.blocks_per_dc).into(), ..job.layout };
        JobProfile { layout, ..job.clone() }
    }
}

fn frozen(topo: Topology) -> NetSim {
    NetSim::new(topo, LinkModelParams::frozen(), 11)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn r1_relabelling_leaves_a_lone_group_bit_identical() {
    let topo = paper_testbed_n(VmType::t2_medium(), N_DCS);
    let pairs: Vec<(usize, usize)> =
        (0..N_DCS).flat_map(|i| (0..N_DCS).filter(move |&j| j != i).map(move |j| (i, j))).collect();
    let transfers: Vec<Transfer> = pairs
        .iter()
        .enumerate()
        .map(|(k, &(i, j))| Transfer::new(DcId(i), DcId(j), 2.0 + 0.75 * k as f64))
        .collect();
    let conns = Grid::from_fn(N_DCS, |i, j| 1 + ((3 * i + 5 * j) % 7) as u32);

    let mut sim = frozen(topo.clone());
    let base = sim.run_transfers(&transfers, &conns, None);
    let stats = sim.last_run_stats();
    let mut moved_sim = frozen(Relabel.topology(&topo));
    let moved =
        moved_sim.run_transfers(&Relabel.transfers(&transfers), &Relabel.grid(&conns), None);

    // Rule 3: the run must share NICs across pairs of several classes.
    assert!(!base.truncated && stats.solves > 1, "{stats:?}");
    assert!(stats.flows / stats.solves > N_DCS as u64, "{stats:?}");
    assert_eq!(bits(&moved.completion_s), bits(&base.completion_s), "transfer i stays transfer i");
    assert_eq!(moved.makespan_s.to_bits(), base.makespan_s.to_bits());
}

/// Runs `jobs` on a closed-loop fleet of `clients` and returns the
/// reports by job name and the engine's counters.
fn fleet(
    topo: Topology,
    scheduler: Box<dyn Scheduler>,
    jobs: &[JobProfile],
    clients: usize,
) -> (Vec<QueryReport>, RunStats) {
    let config =
        FleetConfig { max_concurrent: clients, regauge_every_s: 300.0, conns: None, faults: None };
    let engine = FleetEngine::new(
        frozen(topo),
        scheduler,
        Box::new(wanify::StaticIndependent::new()),
        config,
    );
    let arrivals = Arrivals::Closed { clients, think_s: 0.0 };
    let mut run = FleetRun::start(engine, jobs.to_vec(), &arrivals).expect("trace fits the WAN");
    run.run_until(f64::INFINITY).expect("the fleet drains");
    let stats = run.sim().last_run_stats();
    let mut reports: Vec<QueryReport> =
        run.into_report().outcomes.into_iter().map(|o| o.report).collect();
    reports.sort_by(|a, b| a.job.cmp(&b.job));
    (reports, stats)
}

#[test]
fn r1_relabelling_leaves_every_fleet_job_bit_identical() {
    let topo = paper_testbed_n(VmType::t2_medium(), N_DCS);
    let trace = mixed_trace(&TraceConfig::new(N_DCS, 12, 42).scaled(0.5));
    let moved_trace: Vec<JobProfile> = trace.iter().map(|j| Relabel.job(j)).collect();
    let schedulers: [fn() -> Box<dyn Scheduler>; 3] =
        [|| Box::new(VanillaSpark::new()), || Box::new(Tetrium::new()), || Box::new(Kimchi::new())];
    for scheduler in schedulers {
        for clients in [1, 4] {
            let (base, stats) = fleet(topo.clone(), scheduler(), &trace, clients);
            let (moved, _) = fleet(Relabel.topology(&topo), scheduler(), &moved_trace, clients);
            let cell = format!("{} × {clients} clients", base[0].scheduler);
            assert_eq!(base.len(), trace.len(), "{cell}: every job completes");
            if clients > 1 {
                // Rule 3: more flows per event than one tenant's all-pairs shuffle.
                let per_event = stats.flows / stats.solves;
                assert!(per_event > (N_DCS * (N_DCS - 1)) as u64, "{cell}: {per_event} flows");
            }
            for (b, m) in base.iter().zip(&moved) {
                assert_eq!(b.job, m.job, "{cell}");
                assert_eq!(m.latency_s.to_bits(), b.latency_s.to_bits(), "{cell}: {}", b.job);
                assert_eq!(
                    bits(&m.stage_latencies_s),
                    bits(&b.stage_latencies_s),
                    "{cell}: {}",
                    b.job
                );
            }
        }
    }
}

/// Serves `requests` through a gateway with a 4-slot fleet and a 6-deep
/// rejecting queue, planning on a flat 300 Mbps belief.
fn gateway(topo: Topology, requests: Vec<GatewayRequest>) -> GatewayReport {
    let engine = FleetEngine::new(
        frozen(topo),
        Box::new(Tetrium::new()),
        Box::new(Pregauged::new(BwMatrix::filled(N_DCS, 300.0))),
        FleetConfig { max_concurrent: 4, ..FleetConfig::default() },
    );
    let config = GatewayConfig { queue_depth: 6, ..GatewayConfig::default() };
    Gateway::new(engine, config).serve(requests).expect("arrivals are ordered")
}

fn requests(spec: &LoadSpec) -> Vec<GatewayRequest> {
    offered_load(spec)
        .into_iter()
        .map(|o| GatewayRequest { job: o.job, arrival_s: o.arrival_s, deadline_s: o.deadline_s })
        .collect()
}

/// A disposition with its completion time as bits.
fn verdict(d: &Disposition) -> (u8, u64, bool, bool) {
    match *d {
        Disposition::Served { completed_s, met_deadline, failed } => {
            (0, completed_s.to_bits(), met_deadline, failed)
        }
        Disposition::RejectedOverload => (1, 0, false, false),
        Disposition::RejectedQuota => (2, 0, false, false),
        Disposition::Shed => (3, 0, false, false),
    }
}

#[test]
fn r1_relabelling_leaves_every_gateway_disposition_bit_identical() {
    let topo = paper_testbed_n(VmType::t2_medium(), N_DCS);
    // Calibrate as the gateway benchmark does: the unloaded mean makespan
    // of the same mix, trickled in, sets the saturation rate of 4 slots.
    let trickle = LoadSpec::new(N_DCS, 40, 42, 1e-3).scaled(0.8);
    let mean_s = gateway(topo.clone(), requests(&trickle)).fleet.makespan().mean;
    let spec = LoadSpec::new(N_DCS, 40, 42, 2.0 * 4.0 / mean_s)
        .scaled(0.8)
        .with_deadline_slack(4.0 * mean_s);
    let offered = requests(&spec);
    let moved_offered: Vec<GatewayRequest> =
        offered.iter().map(|r| GatewayRequest { job: Relabel.job(&r.job), ..r.clone() }).collect();

    let base = gateway(topo.clone(), offered);
    let moved = gateway(Relabel.topology(&topo), moved_offered);

    // Requests are served, shed and rejected: every path of admission ran.
    let s = base.fleet.serving;
    assert!(base.served() > 0 && s.shed_jobs > 0 && s.rejected > 0, "{s:?}");
    // Rule 3: more flows per event than one tenant's all-pairs shuffle.
    let per_event = base.stats.flows / base.stats.solves;
    assert!(per_event > (N_DCS * (N_DCS - 1)) as u64, "{per_event} flows per solve");

    let verdicts = |r: &GatewayReport| r.dispositions.iter().map(verdict).collect::<Vec<_>>();
    assert_eq!(verdicts(&moved), verdicts(&base), "request i keeps its verdict and time");
    let outcomes = |r: GatewayReport| {
        let mut v: Vec<_> = r
            .fleet
            .outcomes
            .into_iter()
            .map(|o| (o.job_idx, o.report.latency_s.to_bits(), bits(&o.report.stage_latencies_s)))
            .collect();
        v.sort();
        v
    };
    assert_eq!(outcomes(moved), outcomes(base));
}

/// Runs `jobs` on three round-robin shards of a 3-slot fleet each, under
/// open-loop arrivals, coupled by `backbone` if any.
fn sharded(topo: &Topology, backbone: Option<Backbone>, jobs: &[JobProfile]) -> ShardedFleetReport {
    let config =
        FleetConfig { max_concurrent: 3, regauge_every_s: 300.0, conns: None, faults: None };
    let shard = || {
        FleetEngine::new(
            frozen(topo.clone()),
            Box::new(Tetrium::new()),
            Box::new(wanify::StaticIndependent::new()),
            config.clone(),
        )
    };
    ShardedFleetEngine::new((0..3).map(|_| shard()).collect(), Box::new(RoundRobinShards), backbone)
        .run(jobs, &Arrivals::Poisson { rate_per_s: 2.0, seed: 7 })
        .expect("trace fits the WAN")
}

/// Every outcome's arrival, admission, completion and makespan as bits,
/// by trace index. Job and stage latencies are left out (module docs).
fn sharded_key(report: &ShardedFleetReport) -> Vec<(usize, [u64; 4])> {
    let mut key: Vec<_> = report
        .fleet
        .outcomes
        .iter()
        .map(|o| {
            let times = [o.arrived_s, o.admitted_s, o.completed_s, o.makespan_s()];
            (o.job_idx, times.map(f64::to_bits))
        })
        .collect();
    key.sort();
    key
}

#[test]
fn r1_relabelling_leaves_every_sharded_fleet_job_bit_identical() {
    const TRUNK_MBPS: f64 = 150.0;
    const SYNC_S: f64 = 5.0;
    let topo = paper_testbed_n(VmType::t2_medium(), N_DCS);
    let trace = mixed_trace(&TraceConfig::new(N_DCS, 24, 42).scaled(0.5));
    let moved_trace: Vec<JobProfile> = trace.iter().map(|j| Relabel.job(j)).collect();
    let backbone = Backbone::regional(&topo, TRUNK_MBPS, SYNC_S);
    // The group map moves with the DCs; the groups keep their labels.
    let moved_backbone = Backbone::uniform(Relabel.vec(backbone.groups()), TRUNK_MBPS, SYNC_S);

    let base = sharded(&topo, Some(backbone), &trace);
    let moved = sharded(&Relabel.topology(&topo), Some(moved_backbone), &moved_trace);

    assert_eq!(base.fleet.outcomes.len(), trace.len(), "every job completes");
    assert_eq!(base.shard_sizes(), vec![8, 8, 8]);
    assert!(base.backbone_syncs > 0);
    // The trunks bind: without them the same trace ends differently.
    assert_ne!(sharded_key(&sharded(&topo, None, &trace)), sharded_key(&base));
    // Rule 3: more flows per shard solve than one tenant's all-pairs
    // shuffle, so at least two groups share a shard's WAN.
    let per_solve = base.stats.flows / base.stats.solves;
    assert!(per_solve > (N_DCS * (N_DCS - 1)) as u64, "{per_solve} flows per solve");

    assert_eq!(sharded_key(&moved), sharded_key(&base), "job i keeps every time");
    assert_eq!(moved.fleet.duration_s.to_bits(), base.fleet.duration_s.to_bits());
}

/// Runs `jobs` on a closed-loop fleet of 4 clients under `faults`, with a
/// fault policy that cancels a stalled shuffle, re-places its remainder
/// and resubmits it; returns the report and the engine's counters.
fn faulted_fleet(
    topo: Topology,
    faults: FaultSchedule,
    jobs: &[JobProfile],
) -> (FleetReport, RunStats) {
    let mut sim = frozen(topo);
    sim.set_fault_schedule(faults);
    let policy = FaultPolicy { stall_timeout_s: 4.0, max_retries: 4, backoff_base_s: 3.0 };
    let config = FleetConfig {
        max_concurrent: 4,
        regauge_every_s: 300.0,
        conns: None,
        faults: Some(policy),
    };
    let engine = FleetEngine::new(
        sim,
        Box::new(Tetrium::new()),
        Box::new(wanify::StaticIndependent::new()),
        config,
    );
    let arrivals = Arrivals::Closed { clients: 4, think_s: 0.0 };
    let mut run = FleetRun::start(engine, jobs.to_vec(), &arrivals).expect("trace fits the WAN");
    run.run_until(f64::INFINITY).expect("a faulted fleet drains");
    let stats = run.sim().last_run_stats();
    (run.into_report(), stats)
}

/// Every outcome's arrival, admission, completion and makespan as bits,
/// and whether it failed, by trace index.
fn faulted_key(report: &FleetReport) -> Vec<(usize, [u64; 4], bool)> {
    let mut key: Vec<_> = report
        .outcomes
        .iter()
        .map(|o| {
            let times = [o.arrived_s, o.admitted_s, o.completed_s, o.makespan_s()];
            (o.job_idx, times.map(f64::to_bits), o.failed)
        })
        .collect();
    key.sort();
    key
}

#[test]
fn r1_relabelling_leaves_a_faulted_fleet_bit_identical() {
    let topo = paper_testbed_n(VmType::t2_medium(), N_DCS);
    let trace = mixed_trace(&TraceConfig::new(N_DCS, 16, 42).scaled(0.5));
    let moved_trace: Vec<JobProfile> = trace.iter().map(|j| Relabel.job(j)).collect();
    let faults = FaultSchedule::new()
        .dc_outage(DcId(3), 31.0, 45.0)
        .link_flap(DcId(0), DcId(2), 0.3, 30.5, 3.0, 5)
        .straggler(DcId(4), 0.5, 33.0)
        .straggler(DcId(4), 1.0, 40.0);

    let (base, stats) = faulted_fleet(topo.clone(), faults.clone(), &trace);
    let (moved, _) = faulted_fleet(Relabel.topology(&topo), Relabel.faults(&faults), &moved_trace);

    assert_eq!(base.outcomes.len(), trace.len(), "every job is accounted for");
    // The policy intervened: shuffles stalled on the downed DC, were
    // cancelled, re-placed and resubmitted.
    let f = base.faults;
    assert!(f.stalled_flows > 0 && f.retries > 0 && f.replacements > 0, "{f:?}");
    assert!(f.degraded_s > 0.0, "{f:?}");
    // The faults bind: without them the same trace ends differently.
    let (healthy, _) = faulted_fleet(topo.clone(), FaultSchedule::new(), &trace);
    assert_ne!(faulted_key(&healthy), faulted_key(&base));
    // Rule 3: more flows per event than one tenant's all-pairs shuffle.
    let per_event = stats.flows / stats.solves;
    assert!(per_event > (N_DCS * (N_DCS - 1)) as u64, "{per_event} flows per solve");

    assert_eq!(faulted_key(&moved), faulted_key(&base), "job i keeps every time and verdict");
    assert_eq!(moved.duration_s.to_bits(), base.duration_s.to_bits());
    let counters = |f: FaultCounters| {
        (f.stalled_flows, f.retries, f.replacements, f.failed_jobs, f.degraded_s.to_bits())
    };
    assert_eq!(counters(moved.faults), counters(base.faults));
    let latencies = |r: &FleetReport| {
        let mut v: Vec<_> = r
            .outcomes
            .iter()
            .map(|o| (o.job_idx, o.report.latency_s.to_bits(), bits(&o.report.stage_latencies_s)))
            .collect();
        v.sort();
        v
    };
    assert_eq!(latencies(&moved), latencies(&base));
}
