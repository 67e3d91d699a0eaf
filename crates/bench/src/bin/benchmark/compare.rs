//! `--compare A.json B.json`: the tool the acceptance check and every
//! later performance change uses to read two results files against the
//! benchmark's own bounds, plus the order statistics it and the runner
//! share.

use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::metrics::{tables, EndToEnd};
use crate::run::HEADLINE;

/// Quartiles by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some([1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    }))
}

pub fn median(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some(q) => q[1],
        None => values.first().copied().unwrap_or(f64::NAN),
    }
}

/// Distance between the first and third quartile as a share of the
/// median; 0 for a single value.
pub fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |q| (q[2] - q[0]) / q[1])
}

/// The untraced run of `workload` in a results file.
fn untraced_run<'a>(results: &'a Value, workload: &str) -> Option<&'a Value> {
    results.get("runs")?.as_arr()?.iter().find(|r| {
        r.get("workload").and_then(Value::as_str) == Some(workload)
            && r.get("trace") == Some(&Value::Bool(false))
    })
}

/// Raw values of end-to-end metric `metric` in a run: the per-rep values
/// where the run recorded them, else the single reported value.
fn raw_values(run: &Value, metric: &str) -> Option<Vec<f64>> {
    if let Some(raw) = run.get("raw").and_then(|r| r.get(metric)).and_then(Value::as_arr) {
        return raw.iter().map(Value::as_f64).collect();
    }
    Some(vec![run.get("metrics")?.get(metric)?.as_f64()?])
}

/// Verdict of B against A on one metric: `ok`, `worse` (B's median is
/// worse than A's by more than the bound) or `unresolved` (either side's
/// own quartile spread is wider than the bound, or A's median is zero or
/// missing, so the medians cannot be told apart).
fn verdict(m: &EndToEnd, a: &[f64], b: &[f64]) -> &'static str {
    let worsening = m.better.worsening(median(a), median(b));
    let resolved = spread(a).abs() <= m.bound && spread(b).abs() <= m.bound;
    if !(resolved && worsening.is_finite()) {
        "unresolved"
    } else if worsening > m.bound {
        "worse"
    } else {
        "ok"
    }
}

/// Prints one row and returns whether it is `ok`.
fn row(m: &EndToEnd, a: &[f64], b: &[f64]) -> bool {
    let v = verdict(m, a, b);
    println!(
        "  {:<22} A {:>14.6} B {:>14.6} {:<5} ratio {:.4}  bound {:>4.1}% ({} is better)  {v}",
        m.name,
        median(a),
        median(b),
        m.unit,
        median(b) / median(a),
        100.0 * m.bound,
        m.better.label(),
    );
    v == "ok"
}

/// Bound of the paper's headline figures in `--compare`: they are
/// simulated-time figures, exact for a fixed seed.
const HEADLINE_BOUND: f64 = 0.005;

/// Prints every row of B against A and returns whether all are `ok`.
/// Two files measure the same thing only when, workload by workload,
/// they ran the same seed, size (`smoke`) and operation count: anything
/// else is an error, not a verdict. With equal inputs the `digest` must
/// be equal too — every `sim_*` value follows from it — so a digest that
/// differs is a behaviour change and reads `worse` whatever the bounds
/// say.
fn compare_results(a: &Value, b: &Value) -> Result<bool, String> {
    let mut all_ok = true;
    for &workload in &tables().workloads {
        let (Some(ra), Some(rb)) = (untraced_run(a, workload), untraced_run(b, workload)) else {
            return Err(format!("{workload}: one of the files has no untraced run of it"));
        };
        for input in ["seed", "smoke", "ops_per_rep"] {
            if ra.get(input).is_none() || ra.get(input) != rb.get(input) {
                let show = |r: &Value| r.get(input).map_or("nothing".into(), Value::render);
                return Err(format!(
                    "{workload}: {input} is {} in A and {} in B, so the files cannot be compared",
                    show(ra),
                    show(rb)
                ));
            }
        }
        println!("{workload}");
        let digest =
            |r: &Value| r.get("digest").and_then(Value::as_str).unwrap_or("missing").to_string();
        let same = ra.get("digest").is_some() && ra.get("digest") == rb.get("digest");
        all_ok &= same;
        println!(
            "  {:<22} A {:>14} B {:>14}  {}",
            "digest",
            digest(ra),
            digest(rb),
            if same { "ok" } else { "worse (outputs changed: every sim_* value is suspect)" }
        );
        for m in &tables().end_to_end {
            match (raw_values(ra, m.name), raw_values(rb, m.name)) {
                (Some(va), Some(vb)) => all_ok &= row(m, &va, &vb),
                _ => {
                    println!("  {:<22} missing from one of the files", m.name);
                    all_ok = false;
                }
            }
        }
        // The paper's figures, where the workload has them.
        for name in HEADLINE {
            let value = |r: &Value| r.get("headline")?.get(name)?.as_f64();
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else { continue };
            let layer = tables().per_layer.iter().find(|m| m.name == name).expect("in the table");
            let m =
                EndToEnd { name, unit: layer.unit, better: layer.better, bound: HEADLINE_BOUND };
            all_ok &= row(&m, &[va], &[vb]);
        }
    }
    Ok(all_ok)
}

pub fn compare(a_path: &Path, b_path: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    println!("A = {}, B = {}; ratio = B / A (base A)", a_path.display(), b_path.display());
    match load(a_path).and_then(|a| compare_results(&a, &load(b_path)?)) {
        Ok(all_ok) => crate::exit_code(all_ok),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), Some([3.5, 13.5, 31.0]));
        // statistics.quantiles([1, 2], n=4) extrapolates past the range.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let metric = |name: &str| *tables().end_to_end.iter().find(|m| m.name == name).unwrap();
        let higher = &metric("jobs_per_wall_s"); // 25 %
        assert_eq!(verdict(higher, &[100.0; 4], &[80.0; 4]), "ok");
        assert_eq!(verdict(higher, &[100.0; 4], &[70.0; 4]), "worse");
        assert_eq!(verdict(higher, &[100.0; 4], &[130.0; 4]), "ok");
        assert_eq!(verdict(higher, &[100.0; 4], &[60.0, 100.0, 100.0, 140.0]), "unresolved");
        let lower = &metric("setup_s"); // 25 %
        assert_eq!(verdict(lower, &[1.0; 3], &[1.3; 3]), "worse");
        assert_eq!(verdict(lower, &[1.0; 3], &[0.5; 3]), "ok");
        // A zero or missing base gives no ratio to judge.
        assert_eq!(verdict(lower, &[0.0; 3], &[0.0; 3]), "unresolved");
        assert_eq!(verdict(lower, &[0.0; 3], &[1.0; 3]), "unresolved");
        assert_eq!(verdict(lower, &[f64::NAN], &[1.0]), "unresolved");
    }

    /// A results file in which every workload reads `value` on every
    /// end-to-end metric.
    fn results(seed: f64, smoke: bool, digest: &str, value: f64, gain_pct: f64) -> Value {
        let runs = tables()
            .workloads
            .iter()
            .map(|w| {
                let metrics =
                    tables().end_to_end.iter().map(|m| (m.name.to_string(), Value::Num(value)));
                Value::obj(vec![
                    ("workload", Value::Str(w.to_string())),
                    ("trace", Value::Bool(false)),
                    ("seed", Value::Num(seed)),
                    ("smoke", Value::Bool(smoke)),
                    ("ops_per_rep", Value::Num(100.0)),
                    ("digest", Value::Str(digest.into())),
                    ("headline", Value::obj(vec![("sim_latency_gain_pct", Value::Num(gain_pct))])),
                    ("metrics", Value::Obj(metrics.collect())),
                ])
            })
            .collect();
        Value::obj(vec![("runs", Value::Arr(runs))])
    }

    #[test]
    fn only_like_is_compared_with_like_and_a_changed_digest_is_worse() {
        let a = results(42.0, false, "00aa", 10.0, 30.0);
        assert_eq!(compare_results(&a, &a), Ok(true));
        // Other inputs: no verdict at all.
        assert!(compare_results(&a, &results(43.0, false, "00aa", 10.0, 30.0)).is_err());
        assert!(compare_results(&a, &results(42.0, true, "00aa", 10.0, 30.0)).is_err());
        assert!(compare_results(&a, &Value::obj(vec![("runs", Value::Arr(vec![]))])).is_err());
        // Same inputs, other outputs: worse, however small the move.
        assert_eq!(compare_results(&a, &results(42.0, false, "00ab", 10.0, 30.0)), Ok(false));
        // A headline figure that drops is worse even inside every bound.
        assert_eq!(compare_results(&a, &results(42.0, false, "00aa", 10.0, 5.0)), Ok(false));
        assert_eq!(compare_results(&a, &results(42.0, false, "00aa", 10.0, 31.0)), Ok(true));
    }
}
