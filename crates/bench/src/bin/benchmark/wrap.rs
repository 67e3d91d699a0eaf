//! Delegating wrappers around the library's public trait objects. Each
//! forwards every call unchanged and records a span around it, so the
//! traced pass can attribute time to a layer without touching library
//! code. Untraced reps do not install them at all.

use crate::trace::span;
use wanify::{BandwidthSource, WanifyError};
use wanify_gda::{JobProfile, PlacementCtx, Scheduler, ShardPolicy};
use wanify_netsim::{BwMatrix, EpochCtx, EpochHook, NetSim, Topology};

pub struct TracedScheduler(pub Box<dyn Scheduler>);

impl Scheduler for TracedScheduler {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn place_reduce(&self, ctx: &PlacementCtx<'_>) -> Vec<f64> {
        let _s = span("gda.scheduler.place");
        self.0.place_reduce(ctx)
    }

    fn migrate_input(&self, ctx: &PlacementCtx<'_>) -> Option<Vec<f64>> {
        let _s = span("gda.scheduler.migrate");
        self.0.migrate_input(ctx)
    }
}

pub struct TracedSource(pub Box<dyn BandwidthSource>);

impl BandwidthSource for TracedSource {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn gauge(&mut self, net: &mut NetSim) -> Result<BwMatrix, WanifyError> {
        let _s = span("core.source.gauge");
        self.0.gauge(net)
    }
}

pub struct TracedPolicy(pub Box<dyn ShardPolicy>);

impl ShardPolicy for TracedPolicy {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn shard_of(&self, idx: usize, job: &JobProfile, topo: &Topology, n_shards: usize) -> usize {
        let _s = span("gda.sharded.shard_of");
        self.0.shard_of(idx, job, topo, n_shards)
    }
}

pub struct TracedHook<'a>(pub &'a mut dyn EpochHook);

impl EpochHook for TracedHook<'_> {
    fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
        let _s = span("core.agent.epoch");
        self.0.on_epoch(ctx);
    }

    fn next_wake(&mut self, now_s: f64) -> Option<f64> {
        self.0.next_wake(now_s)
    }
}

/// Arrival iterator whose every pull is a `workloads.gen` span.
pub struct TracedArrivals<I>(pub I);

impl<I: Iterator> Iterator for TracedArrivals<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let _s = span("workloads.gen");
        self.0.next()
    }
}

/// `inner`, wrapped when the pass is traced.
pub fn scheduler(inner: Box<dyn Scheduler>, traced: bool) -> Box<dyn Scheduler> {
    if traced {
        Box::new(TracedScheduler(inner))
    } else {
        inner
    }
}

/// `inner`, wrapped when the pass is traced.
pub fn source(inner: Box<dyn BandwidthSource>, traced: bool) -> Box<dyn BandwidthSource> {
    if traced {
        Box::new(TracedSource(inner))
    } else {
        inner
    }
}
