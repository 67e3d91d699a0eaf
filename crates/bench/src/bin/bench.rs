//! The one bench front door: `bench <name>|all [--smoke] [--check] [--out PATH]`.
//!
//! Runs the selected registry entries (each asserts its identity gate
//! and its floors), prints every file, then
//!   * by default writes `BENCH_<name>.json` — full mode only: smoke
//!     numbers never overwrite a committed baseline;
//!   * `--out PATH` writes there instead, in either mode (one bench);
//!   * `--check` writes nothing and requires the committed file to carry
//!     this run's `deterministic` section verbatim (the drift gate;
//!     wall-clock leaves are exempt).
//!
//! An unknown name or flag exits with status 2 and the registry's names.

use wanify_bench::{deterministic_matches, document, fingerprint, Args};

fn main() {
    let args = Args::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    for bench in &args.benches {
        let name = bench.name;
        let run = (bench.run)(args.smoke);
        let json = document(name, args.smoke, &run);
        print!("{json}");
        eprintln!("{name}: four identical runs, digest {:016x}", fingerprint(&run.digest));
        let path = args.out.clone().unwrap_or_else(|| bench.file());
        if args.check {
            let committed = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("--check: cannot read {path}: {e}"));
            assert!(
                deterministic_matches(&committed, &run),
                "--check: the deterministic section of {path} does not match this run — the \
                 baseline drifted; run `bench {name}` and commit the new file if intended"
            );
            eprintln!("{path}: deterministic section matches");
        } else if args.out.is_some() || !args.smoke {
            std::fs::write(&path, json).expect("write benchmark JSON");
            eprintln!("wrote {path}");
        }
    }
}
