//! Runs the fault-injection scenario suite and writes the committed
//! report artifacts.
//!
//! ```text
//! scenario_runner [--out PATH] [--digest PATH] [name...]
//! ```
//!
//! * `--out`     — write the markdown report (the committed copy lives
//!   at `SCENARIOS.md`; CI regenerates it and fails on drift).
//! * `--digest`  — write the bit-exact outcome digests (committed as
//!   `SCENARIOS.digest`; `bench scenarios` asserts that a repeat and
//!   1- and 4-thread pools reproduce them).
//! * `name...`   — run only the named scenarios (in catalog order).
//!
//! Exits nonzero if any scenario's invariants fail, printing the
//! offending checks.

use wanify_scenarios::{catalog, render_digests, render_markdown, run_all};

fn main() {
    let mut out = None;
    let mut digest_path = None;
    let mut names = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" | "--digest" => {
                let Some(path) = args.next().filter(|p| !p.starts_with("--")) else {
                    eprintln!("error: {arg} requires a path argument");
                    std::process::exit(2);
                };
                let slot = if arg == "--out" { &mut out } else { &mut digest_path };
                *slot = Some(path);
            }
            "--help" | "-h" => usage(""),
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag}")),
            _ => names.push(arg),
        }
    }

    if let Some(name) = names.iter().find(|n| catalog::by_name(n).is_none()) {
        usage(&format!("unknown scenario {name}"));
    }
    let mut specs = catalog::all();
    if !names.is_empty() {
        specs.retain(|s| names.iter().any(|n| n == s.name));
    }

    let outcomes = run_all(&specs);
    let md = render_markdown(&outcomes);
    print!("{md}");
    if let Some(path) = out {
        std::fs::write(&path, &md).expect("write scenario report");
        eprintln!("wrote {path}");
    }
    if let Some(path) = digest_path {
        std::fs::write(&path, render_digests(&outcomes)).expect("write scenario digests");
        eprintln!("wrote {path}");
    }

    let failed: Vec<&str> = outcomes.iter().filter(|o| !o.passed()).map(|o| o.spec.name).collect();
    if !failed.is_empty() {
        eprintln!("scenario invariants failed: {}", failed.join(", "));
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: scenario_runner [--out PATH] [--digest PATH] [name...]\n\
         scenarios: {}",
        wanify_scenarios::all().iter().map(|s| s.name).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2);
}
