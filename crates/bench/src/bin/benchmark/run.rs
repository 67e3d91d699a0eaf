//! One run of one workload: set-up, timed reps, output checks, and the
//! metrics of the mode that ran.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::compare::median;
use crate::json::Value;
use crate::metrics::{self, tables};
use crate::trace;
use crate::workload::{timed, Layers, Rep, Workload};
use crate::{Args, OUT_DIR};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `--smoke` divides every operation count by this.
const SMOKE_SHRINK: usize = 20;

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Spans reported as a call count and a busy time:
/// `(span, calls metric, busy metric)`.
const CALLS_AND_BUSY: [(&str, &str, &str); 6] = [
    ("workloads.gen", "workloads.gen_calls", "workloads.gen_busy_s"),
    ("core.source.gauge", "core.source.gauge_calls", "core.source.gauge_busy_s"),
    ("core.plan", "core.plan.calls", "core.plan.busy_s"),
    ("core.agent.epoch", "core.agent.epoch_calls", "core.agent.busy_s"),
    ("gda.scheduler.place", "gda.scheduler.place_calls", "gda.scheduler.place_busy_s"),
    ("gda.scheduler.migrate", "gda.scheduler.migrate_calls", "gda.scheduler.migrate_busy_s"),
];

/// Per-layer metrics a traced rep's spans give, plus the ratios that
/// combine them with the rep's exact counters.
fn span_layers(spans: &[trace::Span], rep: &Rep) -> Layers {
    let by_name = trace::summarize(spans);
    let stat = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let count = |name: &str| rep.layers.get(name).copied().unwrap_or(0.0);
    let per = |total_s: f64, n: f64| if n > 0.0 { total_s * 1e6 / n } else { 0.0 };

    let run_job = stat("gda.executor.run_job");
    let drive = stat("gda.fleet.drive");
    let sharded = stat("gda.sharded.run");
    let serve = stat("gateway.serve");
    let mut layers = Layers::from([
        ("gda.executor.run_job_calls", run_job.calls as f64),
        ("gda.executor.run_job_self_s", run_job.self_s()),
        ("gda.fleet.start_s", stat("gda.fleet.start").busy_s()),
        ("gda.fleet.drive_s", drive.busy_s()),
        ("gda.fleet.drive_self_s", drive.self_s()),
        ("gda.fleet.report_s", stat("gda.fleet.report").busy_s()),
        ("gda.fleet.us_per_solve", per(drive.self_s(), count("netsim.engine.solves"))),
        ("gda.sharded.run_s", sharded.busy_s()),
        ("gda.sharded.run_self_s", sharded.self_s()),
        ("gda.sharded.shard_of_calls", stat("gda.sharded.shard_of").calls as f64),
        ("gda.sharded.us_per_window", per(sharded.self_s(), count("gda.sharded.windows"))),
        ("gateway.serve_s", serve.busy_s()),
        ("gateway.serve_self_s", serve.self_s()),
        ("gateway.us_per_offered", per(serve.self_s(), count("gateway.offered"))),
    ]);
    for (span, calls, busy) in CALLS_AND_BUSY {
        layers.insert(calls, stat(span).calls as f64);
        layers.insert(busy, stat(span).busy_s());
    }
    layers
}

fn wall_times<'a>(reps: impl Iterator<Item = &'a Rep>) -> Vec<f64> {
    reps.map(|r| r.wall_s).collect()
}

/// A metric as printed: `(name, unit, value)`.
type Metric = (&'static str, &'static str, f64);

/// Everything one run of one workload measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the mode that ran.
    pub metrics: Vec<Metric>,
    /// Results-file entry: inputs, raw per-rep values, digest.
    pub detail: Value,
}

/// One traced rep: its result, its spans' per-layer figures, and the
/// share of its wall time its root spans cover.
struct TracedRep {
    rep: Rep,
    span_layers: Layers,
    covered: f64,
}

fn traced_rep<W: Workload>(w: &W) -> Result<(TracedRep, Vec<trace::Span>), String> {
    trace::start();
    let rep = w.rep(true);
    let spans = trace::finish();
    let rep = rep?;
    let roots: u64 =
        spans.iter().filter(|s| s.parent == trace::NO_PARENT).map(|s| s.end_ns - s.start_ns).sum();
    let covered = roots as f64 * 1e-9 / rep.wall_s;
    Ok((TracedRep { span_layers: span_layers(&spans, &rep), rep, covered }, spans))
}

/// The paper's headline figures, which only `wanify-loop` has. The
/// traced run prints them as per-layer metrics; the untraced run records
/// them in its results entry so `--compare` sees them too.
pub const HEADLINE: [&str; 3] =
    ["sim_min_bw_ratio", "sim_latency_gain_pct", "predict_accuracy_pct"];

/// End-to-end metric values, in the table's order. A metric of the table
/// this function has no value for is a problem.
fn end_to_end(
    setup_s: &[f64],
    first: &Rep,
    rates: &[f64],
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let values = [
        ("setup_s", median(setup_s)),
        ("jobs_per_wall_s", median(rates)),
        ("peak_rss_mb", peak_rss_mb()),
        ("good_share", first.good as f64 / first.ops as f64),
        ("sim_jobs_per_sim_s", first.sim_jobs_per_sim_s),
        ("sim_latency_p50_s", first.sim_latency_p50_s),
        ("sim_latency_p99_s", first.sim_latency_p99_s),
        ("sim_cost_usd_per_job", first.sim_cost_usd_per_job),
    ];
    let value = |name: &str| values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
    tables()
        .end_to_end
        .iter()
        .map(|m| {
            let v = value(m.name).unwrap_or_else(|| {
                problems
                    .push(format!("end-to-end metric {} is in the table but not measured", m.name));
                f64::NAN
            });
            (m.name, m.unit, v)
        })
        .collect()
}

/// Per-layer metric values, in the table's order: set-up timings, the
/// median over the traced reps of each counter and span figure, the
/// probes, and the tracing overhead. A name outside the table is a
/// problem.
fn per_layer<W: Workload>(
    w: &W,
    plain: &[Rep],
    traced: &[TracedRep],
    spans: usize,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let plain_wall_s = median(&wall_times(plain.iter()));
    let traced_wall_s = median(&wall_times(traced.iter().map(|t| &t.rep)));

    let mut per_rep: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    for t in traced {
        for (k, v) in t.rep.layers.iter().chain(&t.span_layers) {
            per_rep.entry(k).or_default().push(*v);
        }
    }
    // A workload reports a layer figure from one place only, except
    // `workloads.gen_*` (set-up when materialized, spans when streamed).
    let mut layers = w.setup_layers();
    let sources = [
        per_rep.iter().map(|(k, v)| (*k, median(v))).collect::<Layers>(),
        w.probes(plain_wall_s),
        Layers::from([
            ("trace.spans", spans as f64),
            ("trace.overhead_pct", 100.0 * (traced_wall_s / plain_wall_s - 1.0)),
        ]),
    ];
    for (k, v) in sources.into_iter().flatten() {
        *layers.entry(k).or_insert(0.0) += v;
    }
    for k in layers.keys() {
        if !tables().per_layer.iter().any(|m| m.name == *k) {
            problems.push(format!("per-layer metric {k} is not in the table"));
        }
    }
    tables()
        .per_layer
        .iter()
        .map(|m| (m.name, m.unit, layers.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

pub fn run_workload<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let shrink = if args.smoke { SMOKE_SHRINK } else { 1 };
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.0 } else { tables().run_seconds });

    // Set-up: several times (the median is `setup_s`); once when traced or
    // smoke-testing, which report no set-up time to compare.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..(if args.trace || args.smoke { 1 } else { SETUPS }) {
        let (w, s) = timed(|| W::prepare(args.seed, shrink));
        setup_s.push(s);
        prepared = Some(w);
    }
    let w = prepared.expect("at least one set-up");

    // Timed reps until `seconds` have passed, and at least two that can be
    // compared; the traced run alternates untraced and traced reps so
    // both see the same machine state.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let min_plain = if args.trace { 1 } else { 2 };
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<TracedRep> = Vec::new();
    let mut last_spans = Vec::new();
    while plain.len() < min_plain || Instant::now() < deadline {
        plain.push(w.rep(false)?);
        if args.trace {
            let (rep, spans) = traced_rep(&w)?;
            traced.push(rep);
            last_spans = spans;
        }
    }

    // Output checks: every rep, traced or not, reproduces one digest, and
    // the root spans of a traced rep account for its wall time.
    let first = &plain[0];
    let rates: Vec<f64> = plain.iter().map(|r| r.ops as f64 / r.wall_s).collect();
    let all = || plain.iter().chain(traced.iter().map(|t| &t.rep));
    let mut problems: Vec<String> = all()
        .filter(|r| r.digest != first.digest || r.ops != first.ops || r.good != first.good)
        .map(|r| {
            format!("digest {:016x} differs from the first rep's {:016x}", r.digest, first.digest)
        })
        .collect();
    for t in traced.iter().filter(|t| t.covered < 0.95) {
        problems.push(format!("root spans cover only {:.1} % of a traced rep", 100.0 * t.covered));
    }

    let metrics = if args.trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.json", W::NAME));
        trace::write_json(&path, W::NAME, &last_spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {} ({} spans)", path.display(), last_spans.len());
        per_layer(&w, &plain, &traced, last_spans.len(), &mut problems)
    } else {
        end_to_end(&setup_s, first, &rates, &mut problems)
    };
    for (name, _, value) in &metrics {
        if !metrics::valid_name(name) {
            problems.push(format!("metric name {name:?} is malformed"));
        }
        if !value.is_finite() {
            problems.push(format!("{name} is not finite"));
        }
    }
    for p in &problems {
        eprintln!("CHECK FAILED [{}]: {p}", W::NAME);
    }

    let mut layers = w.setup_layers();
    layers.extend(&first.layers);
    let headline = HEADLINE
        .iter()
        .filter_map(|&k| Some((k.to_string(), Value::Num(*layers.get(k)?))))
        .collect();

    let detail = Value::obj(vec![
        ("workload", Value::Str(W::NAME.into())),
        ("seed", Value::Num(args.seed as f64)),
        ("trace", Value::Bool(args.trace)),
        ("smoke", Value::Bool(args.smoke)),
        ("seconds", Value::Num(seconds)),
        ("nproc", Value::Num(nproc() as f64)),
        ("reps", Value::Num(plain.len() as f64)),
        ("ops_per_rep", Value::Num(first.ops as f64)),
        ("latency_samples", Value::Num(first.latency_samples as f64)),
        ("digest", Value::Str(format!("{:016x}", first.digest))),
        ("headline", Value::Obj(headline)),
        (
            "raw",
            Value::obj(vec![
                ("setup_s", Value::nums(&setup_s)),
                ("jobs_per_wall_s", Value::nums(&rates)),
                ("wall_s", Value::nums(&wall_times(plain.iter()))),
                ("traced_wall_s", Value::nums(&wall_times(traced.iter().map(|t| &t.rep)))),
            ]),
        ),
        (
            "metrics",
            Value::Obj(metrics.iter().map(|&(n, _, v)| (n.to_string(), Value::Num(v))).collect()),
        ),
    ]);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: all().map(|r| r.ops).sum(),
        failed: all().map(|r| r.aborted).sum(),
        metrics,
        detail,
    })
}
