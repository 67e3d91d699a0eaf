//! What the four workloads share: the [`Workload`] interface the runner
//! drives, the result of one rep, and the output digest.

use std::collections::BTreeMap;

/// Per-layer metric values of one traced rep or one probe, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The outcome of one timed rep.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds of the timed section.
    pub wall_s: f64,
    /// Operations issued: queries, offered requests, or rounds.
    pub ops: u64,
    /// Operations with a good outcome: a completed, unfailed query; a
    /// request served by its deadline; a completed round.
    pub good: u64,
    /// Operations that failed outright: queries the fleet's fault policy
    /// aborted. A request the gateway refuses or serves late is not one —
    /// refusal is the specified answer to that input; it lowers
    /// `good_share` instead.
    pub aborted: u64,
    /// FNV-64 over outcome bit patterns and totals.
    pub digest: u64,
    /// Completed (gateway: good) operations per simulated second.
    pub sim_jobs_per_sim_s: f64,
    pub sim_latency_p50_s: f64,
    pub sim_latency_p99_s: f64,
    /// Latency samples behind the two percentiles.
    pub latency_samples: u64,
    pub sim_cost_usd_per_job: f64,
    /// Exact counters and driver timings of this rep, by per-layer
    /// metric name.
    pub layers: Layers,
}

/// One benchmark workload. `prepare` is everything before the first
/// timed rep and is what `setup_s` measures; `rep` is the timed section
/// and may be called any number of times, each time on fresh engines
/// built from the prepared inputs, so every call must return the same
/// digest.
pub trait Workload {
    const NAME: &'static str;

    /// Generates inputs from `seed` (operation counts divided by
    /// `shrink`), calibrates or trains whatever the workload needs, and
    /// runs the fixed warm-up pass.
    fn prepare(seed: u64, shrink: usize) -> Self;

    /// Set-up timings that are per-layer metrics (input generation,
    /// training).
    fn setup_layers(&self) -> Layers;

    /// Runs the timed section once, checking the workload's output
    /// identities. With `traced`, the delegating wrappers are installed
    /// and driver calls are wrapped in spans.
    fn rep(&self, traced: bool) -> Result<Rep, String>;

    /// Direct calls into the layers this workload leans on, on inputs
    /// shaped like it (traced run only). `untraced_wall_s` is the median
    /// wall time of this run's untraced reps.
    fn probes(&self, untraced_wall_s: f64) -> Layers;
}

/// FNV-1a 64 over 64-bit words, low byte first.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Folds a fleet report's retained outcomes and totals into `h` — the
/// shared core of the three fleet-backed workloads' digests.
pub fn digest_fleet(h: &mut Fnv, report: &wanify_gda::FleetReport) {
    for o in &report.outcomes {
        h.u64(o.job_idx as u64);
        h.f64(o.report.latency_s);
        h.f64(o.report.cost.total_usd());
        h.f64(o.arrived_s);
        h.f64(o.admitted_s);
        h.f64(o.completed_s);
        h.u64(u64::from(o.failed));
    }
    h.u64(report.completed() as u64);
    h.u64(report.failed_jobs() as u64);
    h.f64(report.duration_s);
    h.f64(report.total_egress_gb());
    h.f64(report.total_cost_usd());
    h.u64(report.gauges);
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A rayon pool of exactly `threads` threads.
pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool construction")
}
