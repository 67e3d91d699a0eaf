//! # wanify-gda
//!
//! A geo-distributed data analytics (GDA) engine substrate: the simulated
//! equivalent of the paper's Spark + HDFS + Tetrium/Kimchi stack (§5.1).
//!
//! A [`job::JobProfile`] models a query as a sequence of stages
//! (compute + shuffle). A [`scheduler::Scheduler`] consumes a
//! bandwidth matrix — static-independent, static-simultaneous or WANify's
//! predicted runtime matrix — and decides reduce-task placement and input
//! migration. The [`executor`] then *actually* runs the resulting transfers
//! on the [`wanify_netsim`] WAN simulator, where true runtime contention
//! applies, so decisions made with inaccurate bandwidth estimates cost real
//! simulated latency exactly as the paper describes (§2.2).
//!
//! Three schedulers are provided:
//!
//! * [`scheduler::VanillaSpark`] — locality-aware maps, uniform reduces;
//! * [`scheduler::Tetrium`] — latency-optimal task + data placement
//!   (Hung et al., EuroSys'18), reimplemented from its published heuristic;
//! * [`scheduler::Kimchi`] — network-cost-aware placement (Oh et al.,
//!   TPDS'21), trading latency against egress dollars.
//!
//! Costs follow the paper's accounting (§5.1): compute (with the unlimited
//! burst vCPU surcharge), inter-region network egress, and storage.
//!
//! Three execution paths share the same per-query semantics:
//!
//! * [`executor::run_job`] — the legacy blocking path: one query owns the
//!   simulator until it completes;
//! * [`fleet::FleetEngine`] — the multi-tenant path: many concurrent
//!   queries, each a resumable [`executor::JobRun`] state machine, contend
//!   on one shared WAN through [`wanify_netsim::NetEngine`]. A fleet of
//!   one reproduces `run_job`'s report bit for bit;
//! * [`sharded::ShardedFleetEngine`] — the scale-out path: tenants
//!   partitioned across shard-local engines by a [`sharded::ShardPolicy`],
//!   coupled through a [`wanify_netsim::Backbone`] epoch exchange, run on
//!   rayon and drained window by window in a deterministic order. One
//!   shard reproduces `FleetEngine` bit for bit; results are identical
//!   at any thread count.
//!
//! The fleet is built around three single points. **One arrival path,
//! three callers**: a materialized trace, a closed-loop client pool and
//! an external push (the gateway, the sharded driver's streamed feed)
//! all move `(job_idx, arrival_s, profile)` into a [`fleet::FleetRun`]
//! the same way, behind one arrival-time validator. **One window loop,
//! two front doors**: [`sharded::ShardedFleetEngine::run`] (shards own
//! their slice of a partitioned trace) and
//! [`sharded::ShardedFleetEngine::run_stream`] (the driver pushes a
//! stream's arrivals window by window) share the exchange → step →
//! drain loop. **One report**: a [`fleet::FleetRun`] keeps every outcome
//! until its driver takes them, [`fleet::StreamingTotals`] absorbs each
//! completion once, where the report is built, and
//! [`fleet::FleetReport::new`] is exact exactly when the retained
//! outcomes are all of them.
//!
//! The fleet scales past materialized traces: the streamed sharded run
//! ([`sharded::ShardedFleetEngine::run_stream`]) pulls arrivals lazily
//! from an iterator so the trace is O(1) memory, and its
//! `retain_outcomes` argument caps the per-job outcomes the driver keeps,
//! with every completion still folded into deterministic P² percentile
//! [`sketch`]es (sums stay bitwise-exact), and shards couple through one
//! tier list, a [`wanify_netsim::BackboneHierarchy`] (a flat backbone is
//! one tier; tiled 64+ DC topologies add continental trunks every Nth
//! sync window to the regional ones). `BENCH_scale.json` pins the
//! resulting 60 → 10k → 100k query trajectory with a flat memory ceiling.

#![warn(unreachable_pub)]

pub mod cost;
pub mod executor;
pub mod fleet;
pub mod job;
pub mod scheduler;
pub mod sharded;
pub mod sketch;
pub mod storage;

pub use cost::{CostBreakdown, CostModel};
pub use executor::{run_job, stage_compute_s, JobRun, JobStep, QueryReport, TransferOptions};
pub use fleet::{
    poisson_times_iter, Arrivals, FaultCounters, FaultPolicy, FleetAgent, FleetConfig, FleetEngine,
    FleetReport, FleetRun, JobOutcome, Percentiles, PoissonTimes, ServingCounters, StreamingTotals,
};
pub use job::{JobProfile, StageProfile};
pub use scheduler::{Kimchi, PlacementCtx, Scheduler, Tetrium, VanillaSpark};
pub use sharded::{RoundRobinShards, ShardPolicy, ShardedFleetEngine, ShardedFleetReport};
pub use sketch::{job_family, P2Quantile, StreamingPercentiles};
pub use storage::DataLayout;
