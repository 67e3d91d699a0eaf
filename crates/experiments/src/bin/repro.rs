//! Regenerates the WANify paper's tables and figures (plus the
//! beyond-the-paper fleet and fault-injection studies).
//!
//! ```text
//! repro [--quick] [--seed N] <id>|all
//! ```
//!
//! Valid ids come from `wanify_experiments::registry` — the paper
//! artifacts (`table1` … `sec583`), the fleet studies (`fleet`,
//! `sharded`, `model`), the whole scenario suite (`scenarios`) and
//! individual `scenario:<name>` entries. An unknown id exits nonzero and
//! prints the full list.

use wanify_experiments::{registry, Effort};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut effort = Effort::Full;
    let mut seed = 42u64;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => effort = Effort::Quick,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--help" | "-h" => usage(""),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        usage("no experiment id given");
    }
    // `all` runs the base ids; the `scenarios` entry already covers every
    // individual `scenario:<name>`, so those aren't repeated.
    let selected: Vec<String> = if ids.iter().any(|i| i == "all") {
        registry::BASE_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        ids
    };
    for id in selected {
        let start = std::time::Instant::now();
        let output = registry::run(&id, effort, seed).unwrap_or_else(|| {
            eprintln!("unknown experiment id: {id}");
            eprintln!("valid ids: {}", registry::experiment_ids().join(" "));
            std::process::exit(2);
        });
        // Wall-clock goes to stderr: stdout is the byte-stable artifact
        // that `REPRO.md` pins.
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
        "usage: repro [--quick] [--seed N] <id>|all\nids: {}",
        registry::experiment_ids().join(" ")
    );
    std::process::exit(2);
}
