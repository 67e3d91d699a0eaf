//! `wanify-loop`: the paper's own pipeline, gauge → predict → plan →
//! execute, one query at a time on 8 DCs with default live dynamics.
//! Every round runs the same query on two identically seeded fresh
//! simulators: the baseline (static-independent belief, single
//! connections) and WANify (predicted belief, planned heterogeneous
//! connections, throttles, the AIMD agent hook). The only workload that
//! exercises `mlforest`, `core.*` and the hooked `NetSim::run_transfers`
//! loop, and the one carrying the paper's headline numbers; the fleet,
//! sharded and gateway layers do nothing here.

use std::sync::Arc;

use crate::probes;
use crate::trace::{set_request, span};
use crate::workload::{pool, timed, Fnv, Layers, Rep, Workload};
use crate::wrap::{self, TracedHook};
use wanify::{
    BandwidthAnalyzer, BandwidthSource, PredictedRuntime, Pregauged, StaticIndependent,
    WanPredictionModel, Wanify, WanifyConfig,
};
use wanify_gda::{
    run_job, JobProfile, Percentiles, QueryReport, Scheduler, Tetrium, TransferOptions,
};
use wanify_netsim::{paper_testbed_n, DcId, LinkModelParams, NetSim, VmType};
use wanify_workloads::{mixed_trace, TraceConfig};

const N_DCS: usize = 8;
/// Rounds per rep.
pub const ROUNDS: usize = 2_800;
/// Analyzer samples per cluster size (sizes 2..=8: 168 rows per sample).
const SAMPLES_PER_SIZE: usize = 50;
/// Held-out samples per cluster size, drawn from a different seed.
const HELD_OUT_SAMPLES_PER_SIZE: usize = 20;
/// Forest size (paper: 100 estimators).
const TREES: usize = 60;

pub struct WanifyLoop {
    seed: u64,
    jobs: Vec<JobProfile>,
    model: Arc<WanPredictionModel>,
    gen_s: f64,
    collect_s: f64,
    train_s: f64,
    accuracy_pct: f64,
    /// `(samples per size, trees)` the model was trained with.
    training: (usize, usize),
}

fn analyzer(samples_per_size: usize) -> BandwidthAnalyzer {
    BandwidthAnalyzer {
        vm: VmType::t2_medium(),
        params: LinkModelParams::default(),
        samples_per_size,
    }
}

fn fresh_sim(seed: u64, round: usize) -> NetSim {
    NetSim::new(
        paper_testbed_n(VmType::t2_medium(), N_DCS),
        LinkModelParams::default(),
        seed.wrapping_add((round as u64).wrapping_mul(0x9E37_79B9)),
    )
}

/// The WANify arm of one round: gauge through the model, plan, install
/// the initial throttles, and run with the plan's connections and the
/// agent hook.
fn wanified(
    sim: &mut NetSim,
    job: &JobProfile,
    scheduler: &dyn Scheduler,
    source: &mut dyn BandwidthSource,
    traced: bool,
) -> Result<QueryReport, String> {
    let predicted = source.gauge(sim).map_err(|e| format!("gauge: {e}"))?;
    let wanify = Wanify::new(WanifyConfig::default());
    let plan = {
        let _s = span("core.plan");
        wanify.try_plan_matrix(&predicted).map_err(|e| format!("plan: {e}"))?
    };
    for (i, j, cap) in plan.initial_throttles.iter_pairs() {
        if cap.is_finite() {
            sim.set_throttle(DcId(i), DcId(j), cap);
        }
    }
    let mut belief = Pregauged::named(plan.feasible_achievable_bw(), "wanify(predicted)");
    let mut agent = wanify.agent(&plan);
    let mut traced_agent;
    let hook: &mut dyn wanify_netsim::EpochHook = if traced {
        traced_agent = TracedHook(&mut agent);
        &mut traced_agent
    } else {
        &mut agent
    };
    let opts = TransferOptions { conns: Some(plan.initial_conns()), hook: Some(hook) };
    let _s = span("gda.executor.run_job");
    run_job(sim, job, scheduler, &mut belief, opts).map_err(|e| format!("wanified run: {e}"))
}

impl Workload for WanifyLoop {
    const NAME: &'static str = "wanify-loop";

    fn prepare(seed: u64, shrink: usize) -> Self {
        let sizes: Vec<usize> = (2..=N_DCS).collect();
        let train_seed = seed ^ 0xA5A5;
        let held_out_seed = train_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let training = ((SAMPLES_PER_SIZE / shrink).max(4), (TREES / shrink).max(8));
        let (data, collect_s) = timed(|| analyzer(training.0).collect(&sizes, train_seed));
        let (model, train_s) = timed(|| {
            pool(1).install(|| WanPredictionModel::train(&data, training.1, seed ^ 0x5A5A))
        });
        let held_out =
            analyzer((HELD_OUT_SAMPLES_PER_SIZE / shrink).max(2)).collect(&sizes, held_out_seed);
        let accuracy_pct = model.training_accuracy(&held_out);
        let rounds = (ROUNDS / shrink).max(20);
        let (jobs, gen_s) = timed(|| mixed_trace(&TraceConfig::new(N_DCS, rounds, seed)));
        Self {
            seed,
            jobs,
            model: Arc::new(model),
            gen_s,
            collect_s,
            train_s,
            accuracy_pct,
            training,
        }
    }

    fn setup_layers(&self) -> Layers {
        Layers::from([
            ("workloads.gen_calls", self.jobs.len() as f64),
            ("workloads.gen_busy_s", self.gen_s),
            ("core.predictor.collect_s", self.collect_s),
            ("core.predictor.train_s", self.train_s),
            ("predict_accuracy_pct", self.accuracy_pct),
        ])
    }

    fn rep(&self, traced: bool) -> Result<Rep, String> {
        let scheduler = wrap::scheduler(Box::new(Tetrium::new()), traced);
        let mut h = Fnv::new();
        let mut latencies = Vec::with_capacity(self.jobs.len());
        let (mut base_latency, mut wan_latency) = (0.0, 0.0);
        let (mut base_min_bw, mut wan_min_bw) = (0.0, 0.0);
        let (mut sim_s, mut cost_usd) = (0.0, 0.0);
        let start = std::time::Instant::now();
        for (round, job) in self.jobs.iter().enumerate() {
            set_request(round as u64);
            let base = {
                let mut sim = fresh_sim(self.seed, round);
                let mut belief = wrap::source(Box::new(StaticIndependent::new()), traced);
                let _s = span("gda.executor.run_job");
                run_job(&mut sim, job, &*scheduler, &mut *belief, TransferOptions::default())
                    .map_err(|e| format!("baseline run: {e}"))?
            };
            let wan = {
                let mut sim = fresh_sim(self.seed, round);
                let mut predicted =
                    wrap::source(Box::new(PredictedRuntime::new(self.model.clone())), traced);
                wanified(&mut sim, job, &*scheduler, &mut *predicted, traced)?
            };
            for r in [&base, &wan] {
                h.f64(r.latency_s);
                h.f64(r.min_bw_mbps);
                h.f64(r.cost.total_usd());
            }
            if base.min_bw_mbps > 0.0 && wan.min_bw_mbps > 0.0 {
                base_min_bw += base.min_bw_mbps;
                wan_min_bw += wan.min_bw_mbps;
            }
            base_latency += base.latency_s;
            wan_latency += wan.latency_s;
            sim_s += wan.latency_s;
            cost_usd += wan.cost.total_usd();
            latencies.push(wan.latency_s);
        }
        let wall_s = start.elapsed().as_secs_f64();
        // The model's held-out accuracy is an output of the set-up.
        h.f64(self.accuracy_pct);
        let rounds = self.jobs.len();
        let min_bw_ratio = wan_min_bw / base_min_bw;
        if min_bw_ratio.is_nan() || min_bw_ratio <= 1.0 {
            return Err(format!(
                "WANify must raise the weakest pair's bandwidth: sim_min_bw_ratio {min_bw_ratio}"
            ));
        }
        let latency = Percentiles::of(&latencies);
        Ok(Rep {
            wall_s,
            ops: rounds as u64,
            good: rounds as u64,
            aborted: 0,
            digest: h.finish(),
            sim_jobs_per_sim_s: rounds as f64 / sim_s,
            sim_latency_p50_s: latency.p50,
            sim_latency_p99_s: latency.p99,
            latency_samples: rounds as u64,
            sim_cost_usd_per_job: cost_usd / rounds as f64,
            layers: Layers::from([
                ("sim_min_bw_ratio", min_bw_ratio),
                ("sim_latency_gain_pct", 100.0 * (base_latency - wan_latency) / base_latency),
            ]),
        })
    }

    fn probes(&self, _untraced_wall_s: f64) -> Layers {
        let sizes: Vec<usize> = (2..=N_DCS).collect();
        let data = analyzer(self.training.0).collect(&sizes, self.seed ^ 0xA5A5);
        let (_, train_s_2t) = timed(|| {
            pool(2)
                .install(|| WanPredictionModel::train(&data, self.training.1, self.seed ^ 0x5A5A))
        });
        let mut out = probes::hooked_transfers();
        out.insert("core.predictor.train_s_2t", train_s_2t);
        out
    }
}
