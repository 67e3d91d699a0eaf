//! Regenerates the WANify paper's tables and figures (plus the
//! beyond-the-paper fleet, sharding, serving and knee studies).
//!
//! ```text
//! repro [--quick] [--seed N] <id>... | all
//! ```
//!
//! Valid ids are `wanify_experiments::registry::ENTRIES` (`all` runs
//! exactly those, in order); the fault-injection scenarios run through
//! `scenario_runner`. Every argument is checked before anything runs: an
//! unknown id or flag exits with status 2 and the full id list. Stdout
//! carries simulated values only — `REPRO.md` pins `repro --quick all` —
//! and the per-id wall-clock goes to stderr.

use wanify_experiments::common::{Effort, ExpEnv};
use wanify_experiments::registry;

fn main() {
    let mut effort = Effort::Full;
    let mut seed = 42u64;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => effort = Effort::Quick,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--help" | "-h" => usage(""),
            flag if flag.starts_with('-') => usage(&format!("unknown flag: {flag}")),
            "all" => ids.extend(registry::ENTRIES.iter().map(|e| e.id.to_string())),
            id if registry::is_known(id) => ids.push(id.to_string()),
            id => usage(&format!("unknown experiment id: {id}")),
        }
    }
    if ids.is_empty() {
        usage("no experiment id given");
    }
    // The 8-DC paper environment every artifact shares, trained once.
    let env = ExpEnv::new(8, effort, seed);
    for id in ids {
        let start = std::time::Instant::now();
        let output = registry::run(&id, &env).expect("every id was checked");
        eprintln!("{id}: {:.1}s", start.elapsed().as_secs_f64());
        println!("=== {id} ===");
        println!("{output}");
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: repro [--quick] [--seed N] <id>... | all\nids: {}",
        registry::experiment_ids().join(" ")
    );
    std::process::exit(2);
}
