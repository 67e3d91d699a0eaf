//! The bench harness: one registry, one identity gate, one writer, one
//! drift gate.
//!
//! * **Registry** ([`suite::REGISTRY`]) — every tracked workload is a
//!   [`Bench`]: a name, its committed file `BENCH_<name>.json`, and one
//!   `fn(smoke) -> Run`. The `bench` binary is the only front door:
//!   `bench <name>|all [--smoke] [--check] [--out PATH]`, parsed by
//!   [`Args::from_args`], which refuses unknown names and flags.
//! * **Identity gate** ([`identical`]) — *what makes a run deterministic*
//!   is decided once: the ambient run, a repeat, a 1-thread rayon pool
//!   and a 4-thread pool must produce four equal bit-exact digests.
//! * **Writer** ([`Value`], [`document`]) — every file has the layout
//!   `{bench, mode, deterministic, wall}`: simulated, machine-independent
//!   leaves in the first section, wall-clock leaves in the second.
//! * **Drift gate** ([`deterministic_matches`]) — `--check` passes iff
//!   the committed file contains this run's `deterministic` section
//!   verbatim; the `wall` section is exempt.
//!
//! The `netsim` entry also times, in its `wall.probes` object, the
//! solver and transfer-loop shapes no other row prices.

pub mod suite;

use std::time::Instant;
use wanify_netsim::{
    paper_testbed_n, DcId, EpochCtx, EpochHook, FlowSpec, LinkModelParams, NetSim, Transfer, VmType,
};

/// What one registry entry produces: the two sections of its file and
/// the bit-exact text its identity gate compared.
#[derive(Debug)]
pub struct Run {
    /// Simulated results — bit-stable across machines and thread counts.
    pub deterministic: Value,
    /// Wall-clock timings of the ambient run.
    pub wall: Value,
    /// Everything the gated runs produced except wall-clock time.
    pub digest: String,
}

/// One tracked workload.
#[derive(Debug)]
pub struct Bench {
    /// Registry key, also the `bench` field of the file.
    pub name: &'static str,
    /// Runs the workload (small CI variant when `smoke`), asserting its
    /// floors and its identity gate on the way.
    pub run: fn(smoke: bool) -> Run,
}

impl Bench {
    /// The committed baseline this entry regenerates and is checked against.
    pub fn file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// The `bench` command line.
///
/// `--smoke` selects the small CI workload and never writes a committed
/// baseline (only an explicit `--out PATH`); `--check` compares instead
/// of writing and is full-mode only.
#[derive(Debug)]
pub struct Args {
    /// The selected entries, in registry order (`all` selects every one).
    pub benches: Vec<&'static Bench>,
    /// `--smoke`.
    pub smoke: bool,
    /// `--check`.
    pub check: bool,
    /// `--out PATH`: the file to write (or, with `--check`, to compare).
    pub out: Option<String>,
}

impl Args {
    /// Parses `<name>|all [--smoke] [--check] [--out PATH]`.
    ///
    /// # Errors
    ///
    /// An unknown name or flag, a missing `--out` path, or a flag
    /// combination that has no meaning — each with the usage line.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let names: Vec<&str> = suite::REGISTRY.iter().map(|b| b.name).collect();
        let usage =
            format!("usage: bench <{}|all> [--smoke] [--check] [--out PATH]", names.join("|"));
        let mut args = args.into_iter();
        let name = args.next().ok_or_else(|| usage.clone())?;
        let benches: Vec<&Bench> =
            suite::REGISTRY.iter().filter(|b| name == "all" || name == b.name).collect();
        if benches.is_empty() {
            return Err(format!("unknown bench `{name}`\n{usage}"));
        }
        let mut parsed = Self { benches, smoke: false, check: false, out: None };
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--smoke" => parsed.smoke = true,
                "--check" => parsed.check = true,
                "--out" => match args.next() {
                    Some(path) if !path.starts_with("--") => parsed.out = Some(path),
                    _ => return Err(format!("--out requires a path\n{usage}")),
                },
                _ => return Err(format!("unknown flag `{flag}`\n{usage}")),
            }
        }
        if parsed.check && parsed.smoke {
            return Err(format!("--check compares full-mode runs only\n{usage}"));
        }
        if parsed.out.is_some() && parsed.benches.len() > 1 {
            return Err(format!("--out names one file; select one bench\n{usage}"));
        }
        Ok(parsed)
    }
}

/// Runs `f`, returning its result and its wall-clock seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// The identity gate: runs `work` ambient (timed), then again ambient,
/// inside a 1-thread rayon pool and inside a 4-thread pool, and requires
/// all four `digest`s to be equal. Returns the ambient run, its wall
/// seconds and the digest.
///
/// # Panics
///
/// When a re-run's digest differs — a determinism bug in `work`.
pub fn identical<T>(
    label: &str,
    work: impl Fn() -> T,
    digest: impl Fn(&T) -> String,
) -> (T, f64, String) {
    let (first, wall_s) = timed(&work);
    let want = digest(&first);
    // A 0-thread pool is rayon's "automatic": the ambient count again.
    for (arm, threads) in [("repeat", 0), ("1-thread pool", 1), ("4-thread pool", 4)] {
        let again = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool construction")
            .install(&work);
        assert!(digest(&again) == want, "{label}: the {arm} run is not bit-identical to the first");
    }
    (first, wall_s, want)
}

/// FNV-1a 64 over a digest text: a compact fingerprint for files and logs.
pub fn fingerprint(digest: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in digest.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The value tree every `BENCH_*.json` is rendered from. Leaves are
/// formatted when the tree is built ([`fixed`], [`num`], [`text`]) so
/// the rendered text is byte-stable; strings are program constants and
/// go out unescaped.
#[derive(Debug, Clone)]
pub enum Value {
    /// A number, `null` or a quoted string, already formatted.
    Leaf(String),
    /// An object: one entry per line, unless inside an array row.
    Obj(Vec<(&'static str, Value)>),
    /// An array: one row per line, each row on a single line.
    Arr(Vec<Value>),
}

/// A float leaf with exactly `decimals` fractional digits.
pub fn fixed(x: f64, decimals: usize) -> Value {
    Value::Leaf(format!("{x:.decimals$}"))
}

/// An integer leaf (anything whose `Display` is a JSON number).
pub fn num(n: impl std::fmt::Display) -> Value {
    Value::Leaf(n.to_string())
}

/// A string leaf.
pub fn text(s: impl std::fmt::Display) -> Value {
    Value::Leaf(format!("\"{s}\""))
}

impl Value {
    /// Renders the value as it appears after `"key": ` on a line
    /// indented by `indent` spaces.
    pub fn render(&self, indent: usize) -> String {
        let close = " ".repeat(indent);
        match self {
            Value::Obj(entries) => {
                let lines: Vec<String> =
                    entries.iter().map(|(k, v)| entry(k, v, indent + 2)).collect();
                format!("{{\n{}\n{close}}}", lines.join(",\n"))
            }
            Value::Arr(rows) => {
                let lines: Vec<String> =
                    rows.iter().map(|r| format!("{close}  {}", r.inline())).collect();
                format!("[\n{}\n{close}]", lines.join(",\n"))
            }
            Value::Leaf(leaf) => leaf.clone(),
        }
    }

    fn inline(&self) -> String {
        match self {
            Value::Leaf(leaf) => leaf.clone(),
            Value::Obj(entries) => {
                let fields: Vec<String> =
                    entries.iter().map(|(k, v)| format!("\"{k}\": {}", v.inline())).collect();
                format!("{{ {} }}", fields.join(", "))
            }
            Value::Arr(rows) => {
                format!("[{}]", rows.iter().map(Value::inline).collect::<Vec<_>>().join(", "))
            }
        }
    }
}

/// One `"key": value` line (or block) indented by `indent` spaces.
fn entry(key: &str, value: &Value, indent: usize) -> String {
    format!("{}\"{key}\": {}", " ".repeat(indent), value.render(indent))
}

/// The whole file: `{bench, mode, deterministic, wall}`.
pub fn document(bench: &str, smoke: bool, run: &Run) -> String {
    let mode = if smoke { "smoke" } else { "full" };
    let doc = Value::Obj(vec![
        ("bench", text(bench)),
        ("mode", text(mode)),
        ("deterministic", run.deterministic.clone()),
        ("wall", run.wall.clone()),
    ]);
    doc.render(0) + "\n"
}

/// The drift gate: whether `committed` carries this run's
/// `deterministic` section verbatim. Wall-clock leaves are exempt.
pub fn deterministic_matches(committed: &str, run: &Run) -> bool {
    committed.contains(&entry("deterministic", &run.deterministic, 2))
}

/// A hook that does nothing — forces `run_transfers` onto the per-epoch
/// path (one fairness solve per epoch, the pre-coalescing cost model)
/// while leaving results bit-identical.
pub struct NoopHook;

impl EpochHook for NoopHook {
    fn on_epoch(&mut self, _ctx: &mut EpochCtx<'_>) {}
}

/// A frozen-dynamics simulator on the first `n` paper regions — the
/// standard perf-measurement environment (coalescing-eligible).
pub fn frozen_sim(n: usize) -> NetSim {
    NetSim::new(paper_testbed_n(VmType::t2_medium(), n), LinkModelParams::frozen(), 11)
}

/// A live-dynamics simulator on the first `n` paper regions: default OU
/// noise quantized on `tick_s`, probe noise off — the measurement
/// environment of the `dynamics` bench (coalescing-eligible *despite*
/// the bandwidth moving all run long).
pub fn live_sim(n: usize, tick_s: f64) -> NetSim {
    let params =
        LinkModelParams { dynamics_tick_s: tick_s, snapshot_noise: 0.0, ..Default::default() };
    NetSim::new(paper_testbed_n(VmType::t2_medium(), n), params, 11)
}

/// Every directed pair of distinct DCs in an `n`-DC cluster, row-major.
fn all_pairs(n: usize) -> impl Iterator<Item = (DcId, DcId)> {
    (0..n).flat_map(move |i| (0..n).filter(move |&j| i != j).map(move |j| (DcId(i), DcId(j))))
}

/// Every directed WAN pair of an `n`-DC cluster with `conns` connections.
pub fn all_pair_flows(n: usize, conns: u32) -> Vec<FlowSpec> {
    all_pairs(n).map(|(src, dst)| FlowSpec::new(src, dst, conns)).collect()
}

/// A `gb`-gigabit transfer on every directed WAN pair of an `n`-DC cluster.
pub fn all_pair_transfers(n: usize, gb: f64) -> Vec<Transfer> {
    all_pairs(n).map(|(src, dst)| Transfer::new(src, dst, gb)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Result<Args, String> {
        Args::from_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn a_mistyped_name_or_flag_is_an_error_that_lists_the_registry() {
        for argv in [&["fleet", "--smok"][..], &["flee"], &[], &["fleet", "--out"], &["--smoke"]] {
            let err = args(argv).expect_err("must be refused");
            assert!(err.contains("usage: bench <netsim|dynamics|"), "{argv:?}: {err}");
        }
        assert!(args(&["scale", "--smoke", "--check"]).is_err(), "--check is full-mode only");
        assert!(args(&["all", "--out", "x.json"]).is_err(), "one path cannot hold seven files");
    }

    #[test]
    fn all_selects_the_whole_registry_and_a_name_selects_one() {
        let all = args(&["all", "--smoke"]).expect("valid");
        assert!(all.smoke && !all.check && all.out.is_none());
        assert_eq!(all.benches.len(), 7);
        let one = args(&["scale", "--check", "--out", "x.json"]).expect("valid");
        assert_eq!(one.benches.len(), 1);
        assert_eq!(
            (one.benches[0].name, one.check, one.out.as_deref()),
            ("scale", true, Some("x.json"))
        );
    }

    #[test]
    fn registry_names_are_unique_and_each_committed_file_has_the_layout() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (i, bench) in suite::REGISTRY.iter().enumerate() {
            assert!(suite::REGISTRY[..i].iter().all(|b| b.name != bench.name), "{}", bench.name);
            assert_eq!(bench.file(), format!("BENCH_{}.json", bench.name));
            let committed = std::fs::read_to_string(root.join(bench.file())).expect("committed");
            let head = format!(
                "{{\n  \"bench\": \"{}\",\n  \"mode\": \"full\",\n  \"deterministic\": {{\n",
                bench.name
            );
            assert!(committed.starts_with(&head), "{} does not start with {head}", bench.file());
            assert!(
                committed.contains("\n  },\n  \"wall\": "),
                "{} has no wall section",
                bench.file()
            );
        }
    }

    #[test]
    fn the_readme_runs_only_registry_entries_and_no_cargo_bench() {
        let readme = include_str!("../../../README.md");
        assert!(!readme.contains("cargo bench"), "README.md names a `cargo bench` target");
        let names: Vec<&str> = suite::REGISTRY.iter().map(|b| b.name).collect();
        for line in readme.lines().filter_map(|l| l.split("--bin bench -- ").nth(1)) {
            let name = line.split_whitespace().next().unwrap_or("");
            // `<name>` stands for the list the README gives right after it.
            assert!(
                names.contains(&name) || name == "all" || name == "<name>",
                "README.md runs `bench {name}`"
            );
        }
        let list = readme.split("`<name>` is one of ").nth(1).expect("the README's name list");
        let listed: Vec<&str> =
            list.split(" — ").next().expect("list").split('`').skip(1).step_by(2).collect();
        assert_eq!(listed, names, "README.md bench name list");
    }

    #[test]
    fn the_gate_really_installs_one_and_four_thread_pools() {
        // Whatever the ambient count is, it cannot equal both 1 and 4.
        let gate = std::panic::catch_unwind(|| {
            identical("threads", rayon::current_num_threads, |n| n.to_string())
        });
        let message = *gate.expect_err("the gate must fail").downcast::<String>().expect("message");
        assert!(message.contains("-thread pool run is not bit-identical"), "{message}");
        let (value, _, digest) = identical("constant", || 7, |n| n.to_string());
        assert_eq!((value, digest.as_str()), (7, "7"));
    }

    fn sample(peak: usize, wall_s: f64) -> Run {
        let arm = Value::Obj(vec![("queries", num(60)), ("peak_tracked", num(peak))]);
        Run {
            deterministic: Value::Obj(vec![
                ("workload", text("w")),
                ("arms", Value::Arr(vec![arm])),
            ]),
            wall: Value::Obj(vec![("wall_s", fixed(wall_s, 3))]),
            digest: String::new(),
        }
    }

    #[test]
    fn check_exempts_the_wall_section_and_catches_one_changed_deterministic_value() {
        let committed = document("sample", false, &sample(115, 2.042));
        assert!(deterministic_matches(&committed, &sample(115, 0.846)));
        assert!(!deterministic_matches(&committed, &sample(116, 2.042)));
    }

    #[test]
    fn the_writer_reproduces_the_committed_scale_section_byte_for_byte() {
        let arm = |queries: usize, duration_s, rate, peak: usize, kept: usize, syncs: u64, fp| {
            Value::Obj(vec![
                ("queries", num(queries)),
                ("completed", num(queries)),
                ("simulated_duration_s", fixed(duration_s, 3)),
                ("jobs_per_sim_s", fixed(rate, 5)),
                ("peak_tracked", num(peak)),
                ("retained_outcomes", num(kept)),
                ("backbone_syncs", num(syncs)),
                ("digest", text(format!("{fp:016x}"))),
            ])
        };
        let run = Run {
            deterministic: Value::Obj(vec![
                ("workload", text("64dc_tiled_8shards_hier_mixed_rate0.5")),
                ("retain_outcomes", num(256)),
                (
                    "arms",
                    Value::Arr(vec![
                        arm(60, 4088.135, 0.01468, 115, 60, 183, 0x19fc_9d2c_613e_b375_u64),
                        arm(10_000, 20080.577, 0.49799, 2240, 256, 894, 0x09c1_805e_e116_07a7),
                        arm(100_000, 198_671.0, 0.50334, 2240, 256, 8831, 0x45d0_8442_3d91_a19f),
                    ]),
                ),
            ]),
            wall: Value::Arr(vec![Value::Obj(vec![
                ("queries", num(60)),
                ("wall_s", fixed(2.0, 3)),
            ])]),
            digest: String::new(),
        };
        let committed = include_str!("../../../BENCH_scale.json");
        assert!(deterministic_matches(committed, &run));
        let written = document("scale", false, &run);
        let split = written.find("  \"wall\"").expect("wall section");
        assert_eq!(&written[..split], &committed[..split], "everything above the wall section");
        assert!(written
            .ends_with("  \"wall\": [\n    { \"queries\": 60, \"wall_s\": 2.000 }\n  ]\n}\n"));
    }
}
