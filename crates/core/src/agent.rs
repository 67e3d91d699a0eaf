//! WANify's distributed local agents (paper §4.1.3).
//!
//! Each VM runs a local agent with three sub-modules: a WAN monitor
//! (observed per-pair bandwidth — the simulator's ifTop), the AIMD
//! [`crate::local::LocalOptimizer`], and a connections
//! manager that applies the tuned connection counts to the live pool.
//! [`WanifyAgent`] bundles the agents of every DC into one
//! [`EpochHook`] that the GDA executor drives during shuffles.

use crate::global::GlobalPlan;
use crate::local::LocalOptimizer;
use crate::relations::DcRelations;
use crate::throttle::throttle_caps;
use wanify_netsim::{BwMatrix, EpochCtx, EpochHook};

/// One recorded agent step, used by the dynamics analysis of Fig. 9.
#[derive(Debug, Clone)]
pub struct AgentSample {
    /// Simulation time of the update.
    pub time_s: f64,
    /// Target bandwidths from the traced source DC to every destination.
    pub target_bw: Vec<f64>,
    /// Monitored bandwidths from the traced source DC to every destination.
    pub observed_bw: Vec<f64>,
}

/// The fleet of per-DC local agents driven once per AIMD interval.
#[derive(Debug)]
pub struct WanifyAgent {
    optimizers: Vec<LocalOptimizer>,
    host_egress_mbps: Vec<f64>,
    relations: Option<DcRelations>,
    interval_s: f64,
    throttling: bool,
    next_update_s: f64,
    trace_src: Option<usize>,
    trace: Vec<AgentSample>,
    updates: usize,
}

/// The paper's local-optimizer epoch: target updates every 5 seconds
/// (§5.7: "an epoch refers to the 5-second interval").
pub const DEFAULT_AIMD_INTERVAL_S: f64 = 5.0;

impl WanifyAgent {
    /// Creates agents for every DC of `plan`, updating every
    /// [`DEFAULT_AIMD_INTERVAL_S`] seconds, with throttling enabled.
    pub fn new(plan: &GlobalPlan) -> Self {
        Self::with_options(plan, DEFAULT_AIMD_INTERVAL_S, true)
    }

    /// Creates agents with an explicit AIMD interval and throttling switch
    /// (throttling off reproduces the WANify-Dynamic variant of Fig. 5).
    ///
    /// # Panics
    ///
    /// Panics if `interval_s` is not positive.
    pub fn with_options(plan: &GlobalPlan, interval_s: f64, throttling: bool) -> Self {
        assert!(interval_s > 0.0, "AIMD interval must be positive");
        let n = plan.max_cons.len();
        Self {
            optimizers: (0..n).map(|src| LocalOptimizer::new(src, plan)).collect(),
            host_egress_mbps: plan.host_egress_mbps.clone(),
            relations: None,
            interval_s,
            throttling,
            next_update_s: 0.0,
            trace_src: None,
            trace: Vec::new(),
            updates: 0,
        }
    }

    /// Enables tracing of target/observed bandwidths from `src` (Fig. 9
    /// traces US East).
    #[must_use]
    pub fn traced(mut self, src: usize) -> Self {
        self.trace_src = Some(src);
        self
    }

    /// Restricts throttling to each row's closest relationship class (the
    /// "nearby DCs" of §3.2.2), using Algorithm 1's output.
    #[must_use]
    pub fn with_relations(mut self, relations: DcRelations) -> Self {
        self.relations = Some(relations);
        self
    }

    /// Recorded trace (empty unless [`WanifyAgent::traced`] was used).
    pub fn trace(&self) -> &[AgentSample] {
        &self.trace
    }

    /// Number of AIMD updates performed.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Current target-bandwidth matrix across all agents.
    pub fn target_bw_matrix(&self) -> BwMatrix {
        let n = self.optimizers.len();
        BwMatrix::from_fn(n, |i, j| self.optimizers[i].target_bw(j))
    }
}

impl EpochHook for WanifyAgent {
    fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
        if ctx.time_s < self.next_update_s {
            return;
        }
        self.next_update_s = ctx.time_s + self.interval_s;
        self.updates += 1;
        let n = self.optimizers.len();

        // AIMD step on every directed pair; the connections manager applies
        // the tuned counts to the live pool.
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let monitored = ctx.observed_bw.get(src, dst);
                let remaining = ctx.remaining_gb.get(src, dst);
                let conns = self.optimizers[src].update(dst, monitored, remaining);
                ctx.conns.set(src, dst, conns);
            }
        }

        // Throttle BW-rich destinations to the per-source mean. Caps are
        // installed once, from the stable achievable-bandwidth targets of
        // the *first* interval: recomputing them from drifting AIMD targets
        // would tighten caps on links whose targets are merely backing off,
        // hurting exactly the transfers the caps are meant to protect.
        if self.throttling && self.updates == 1 {
            let targets = self.target_bw_matrix();
            *ctx.throttles =
                throttle_caps(&targets, &self.host_egress_mbps, self.relations.as_ref());
        }

        if let Some(src) = self.trace_src {
            self.trace.push(AgentSample {
                time_s: ctx.time_s,
                target_bw: (0..n).map(|j| self.optimizers[src].target_bw(j)).collect(),
                observed_bw: (0..n).map(|j| ctx.observed_bw.get(src, j)).collect(),
            });
        }
    }

    /// The agent's wake schedule is analytic: it acts only at interval
    /// boundaries (`on_epoch` above already no-ops before
    /// `next_update_s`), so the simulator may coalesce every epoch in
    /// between — hooked runs keep the `O(events)` fast path.
    fn next_wake(&mut self, _now_s: f64) -> Option<f64> {
        Some(self.next_update_s)
    }
}

#[cfg(test)]
impl WanifyAgent {
    /// The local optimizer of DC `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    fn optimizer(&self, src: usize) -> &LocalOptimizer {
        &self.optimizers[src]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::optimize_global;
    use crate::relations::infer_dc_relations;
    use wanify_netsim::{
        paper_testbed_n, ConnMatrix, DcId, LinkModelParams, NetSim, Transfer, VmType,
    };

    fn plan_for(sim: &mut NetSim) -> GlobalPlan {
        let bw = sim.measure_runtime(&ConnMatrix::filled(sim.topology().len(), 1), 5).bw;
        let rel = infer_dc_relations(&bw, 30.0).unwrap();
        optimize_global(&bw, &rel, 8, None, None).unwrap()
    }

    fn sim() -> NetSim {
        NetSim::new(paper_testbed_n(VmType::t2_medium(), 3), LinkModelParams::frozen(), 17)
    }

    #[test]
    fn agent_updates_only_on_interval() {
        let mut s = sim();
        let plan = plan_for(&mut s);
        let mut agent = WanifyAgent::with_options(&plan, 5.0, false);
        let transfers =
            [Transfer::new(DcId(0), DcId(2), 2.0), Transfer::new(DcId(0), DcId(1), 10.0)];
        let report = s.run_transfers(&transfers, &plan.max_cons, Some(&mut agent));
        assert!(agent.updates() >= 1);
        assert!(
            (agent.updates() as f64) <= report.epochs as f64 / 5.0 + 1.0,
            "updates {} vs epochs {}",
            agent.updates(),
            report.epochs
        );
    }

    #[test]
    fn traced_agent_records_samples() {
        let mut s = sim();
        let plan = plan_for(&mut s);
        let mut agent = WanifyAgent::new(&plan).traced(0);
        let transfers = [Transfer::new(DcId(0), DcId(2), 3.0)];
        let _ = s.run_transfers(&transfers, &plan.max_cons, Some(&mut agent));
        assert!(!agent.trace().is_empty());
        let sample = &agent.trace()[0];
        assert_eq!(sample.target_bw.len(), 3);
        assert_eq!(sample.observed_bw.len(), 3);
    }

    #[test]
    fn throttling_writes_caps_into_context() {
        let mut s = sim();
        let plan = plan_for(&mut s);
        let mut agent = WanifyAgent::new(&plan);
        let transfers =
            [Transfer::new(DcId(0), DcId(1), 8.0), Transfer::new(DcId(0), DcId(2), 1.0)];
        let _ = s.run_transfers(&transfers, &plan.max_cons, Some(&mut agent));
        let throttled = s.throttles().iter_pairs().filter(|&(_, _, c)| c.is_finite()).count();
        assert!(throttled > 0, "BW-rich nearby links should be capped");
    }

    #[test]
    fn agent_reacts_to_congestion_by_reducing_connections() {
        use wanify_netsim::{BwMatrix, ConnMatrix};
        let mut s = sim();
        // A hand-crafted plan with wildly optimistic targets (the host
        // estimate is huge, so no feasibility scaling): monitored BW will
        // fall far short, forcing multiplicative decrease.
        let n = 3;
        let plan = GlobalPlan {
            min_cons: ConnMatrix::filled(n, 1),
            max_cons: ConnMatrix::from_fn(n, |i, j| if i == j { 1 } else { 8 }),
            min_bw: BwMatrix::filled(n, 100.0),
            max_bw: BwMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { 50_000.0 }),
            host_egress_mbps: vec![1e12; n],
        };
        let mut agent = WanifyAgent::with_options(&plan, 5.0, false);
        let transfers = [
            Transfer::new(DcId(0), DcId(1), 60.0),
            Transfer::new(DcId(1), DcId(0), 60.0),
            Transfer::new(DcId(0), DcId(2), 12.0),
            Transfer::new(DcId(2), DcId(0), 12.0),
        ];
        let _ = s.run_transfers(&transfers, &plan.max_cons, Some(&mut agent));
        let o = agent.optimizer(0);
        assert!(
            o.target_cons(1) < plan.max_cons.get(0, 1)
                || o.target_cons(2) < plan.max_cons.get(0, 2),
            "at least one contended pair should have backed off"
        );
    }

    #[test]
    #[should_panic]
    fn zero_interval_rejected() {
        let mut s = sim();
        let plan = plan_for(&mut s);
        let _ = WanifyAgent::with_options(&plan, 0.0, true);
    }
}
