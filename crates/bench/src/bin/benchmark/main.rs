//! The repo's benchmark: four workloads, end-to-end metrics from
//! untraced reps, per-layer metrics from a traced pass. See `README.md`
//! beside this file and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! benchmark [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!                                     every workload, each in a child process
//! benchmark --compare A.json B.json   verdict per workload × end-to-end metric
//! ```
//!
//! This directory is the whole frozen surface of the benchmark: it uses
//! the library crates' public items only and nothing from `wanify_bench`.

mod compare;
mod fleet_closed;
mod gateway_overload;
mod json;
mod metrics;
mod probes;
mod run;
mod scale_hier;
mod trace;
mod wanify_loop;
mod workload;
mod wrap;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Value;
use metrics::tables;
use run::{nproc, run_workload};
use workload::Workload;

/// Where trace files and the suite's results file go, under the current
/// directory.
pub const OUT_DIR: &str = "target/benchmark";

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: 42, seconds: None, trace: false, smoke: false, compare: None };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be finite and non-negative, got {s}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--compare" => {
                args.compare = Some((value("two paths")?.into(), value("two paths")?.into()))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and prints, last, the one-line
/// result object the acceptance driver reads.
fn single(name: &str, args: &Args) -> ExitCode {
    let outcome = match name {
        fleet_closed::FleetClosed::NAME => run_workload::<fleet_closed::FleetClosed>(args),
        scale_hier::ScaleHier::NAME => run_workload::<scale_hier::ScaleHier>(args),
        gateway_overload::GatewayOverload::NAME => {
            run_workload::<gateway_overload::GatewayOverload>(args)
        }
        wanify_loop::WanifyLoop::NAME => run_workload::<wanify_loop::WanifyLoop>(args),
        other => {
            eprintln!("unknown workload {other}; one of {:?}", tables().workloads);
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("CHECK FAILED [{name}]: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (metric, unit, value) in &outcome.metrics {
        println!("{name:<17} {metric:<40} {value:>16.6} {unit}");
    }
    println!("detail {}", outcome.detail.render());
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(n, unit, v)| {
            (
                n.to_string(),
                Value::obj(vec![("value", Value::Num(v)), ("unit", Value::Str(unit.into()))]),
            )
        })
        .collect();
    let line = Value::obj(vec![
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.render());
    exit_code(outcome.correct)
}

/// Runs every workload, each in a fresh child process of this program
/// (so `peak_rss_mb` is per workload), sequentially, and writes the
/// results file.
fn suite(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut entries = Vec::new();
    for &name in &tables().workloads {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
            cmd.args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            // `output` waits for the child; its stderr passes through.
            let output = match cmd.stderr(std::process::Stdio::inherit()).output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("cannot run {name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            ok &= output.status.success();
            let detail = stdout.lines().rev().find_map(|l| l.strip_prefix("detail "));
            match detail.map(json::parse) {
                Some(Ok(v)) => entries.push(v),
                _ => {
                    eprintln!("{name}: the child printed no detail line");
                    ok = false;
                }
            }
        }
    }
    let results = Value::obj(vec![
        ("seed", Value::Num(args.seed as f64)),
        ("nproc", Value::Num(nproc() as f64)),
        ("smoke", Value::Bool(args.smoke)),
        ("runs", Value::Arr(entries)),
    ]);
    let path = Path::new(OUT_DIR).join("results.json");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, results.render() + "\n"));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("writing {}: {e}", path.display());
            ok = false;
        }
    }
    exit_code(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nsee the usage at the top of main.rs or the README beside it");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::compare(a, b);
    }
    match &args.workload {
        Some(name) => single(name, &args),
        None => suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanify_workloads::{mixed_trace, TraceConfig};

    #[test]
    fn args_accept_the_drivers_form() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload scale-hier --seed 7 --seconds 3 --trace 0")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("scale-hier"), 7, Some(3.0), false)
        );
        let a = parse_args(&argv("--trace 1 --smoke")).unwrap();
        assert!(a.trace && a.smoke);
        assert!(parse_args(&argv("--trace")).is_err());
        assert!(parse_args(&argv("--trace yes")).is_err());
        assert!(parse_args(&argv("--seconds -1")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    #[test]
    fn every_workload_of_the_table_is_one_this_program_runs() {
        let programs = [
            fleet_closed::FleetClosed::NAME,
            scale_hier::ScaleHier::NAME,
            gateway_overload::GatewayOverload::NAME,
            wanify_loop::WanifyLoop::NAME,
        ];
        assert_eq!(tables().workloads, programs);
    }

    /// The wrappers forward every call unchanged: a traced, recorded
    /// 20-job fleet reproduces the unwrapped run's digest, and its spans
    /// nest under the driver calls.
    #[test]
    fn wrappers_are_digest_neutral_on_a_20_job_fleet() {
        let jobs = mixed_trace(&TraceConfig::new(fleet_closed::N_DCS, 20, 5).scaled(0.5));
        let plain = fleet_closed::drive(&jobs, 8, false).expect("plain run");
        trace::start();
        let traced = fleet_closed::drive(&jobs, 8, true);
        let spans = trace::finish();
        let traced = traced.expect("traced run");
        assert_eq!(fleet_closed::digest(&plain.report), fleet_closed::digest(&traced.report));
        assert_eq!(plain.stats, traced.stats);

        let by_name = trace::summarize(&spans);
        assert!(by_name["gda.scheduler.place"].calls >= 20);
        assert_eq!(by_name["core.source.gauge"].calls, traced.report.gauges);
        let drive = spans.iter().position(|s| s.name == "gda.fleet.drive").expect("drive span");
        let nested = spans
            .iter()
            .filter(|s| s.name.starts_with("gda.scheduler."))
            .all(|s| s.parent == drive as u32);
        assert!(nested, "scheduler calls happen inside the drive");
        assert!(by_name["gda.fleet.drive"].self_ns < by_name["gda.fleet.drive"].busy_ns);
    }
}
