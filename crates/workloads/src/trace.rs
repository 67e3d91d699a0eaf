//! Mixed multi-tenant job traces for the fleet engine.
//!
//! The paper evaluates workloads one at a time; a production cluster runs
//! them *together*. [`mixed_trace`] deterministically samples a stream of
//! jobs with the weight mix of §5.1's workload set — shuffle-heavy
//! TeraSorts, WordCounts with varying intermediate sizes, and the four
//! TPC-DS weight classes — scaled down so dozens of queries fit in one
//! simulated serving window. Every job's input size and skew are drawn
//! from a seeded stream: equal `(seed, n_dcs, jobs)` inputs produce an
//! identical trace, which is what makes fleet runs reproducible end to
//! end. [`regional_mixed_trace`] additionally homes every job to a
//! region group — the tenant shape sharded fleets partition on.
//!
//! Both builders are thin `collect()`s over **streaming iterators**
//! ([`trace_iter`], [`regional_trace_iter`]): the iterator holds one
//! seeded RNG and synthesizes each job on demand, so a 10⁶-query fleet
//! run never materializes its trace — O(1) memory at any length, while
//! the `Vec` path stays available (and bit-identical, pinned by a
//! proptest) for the dozens-of-queries experiments. The iterators are
//! `Clone + Send`, so a sharded driver can fan one trace definition out
//! to shard threads without sharing mutable state.

use crate::{terasort, wordcount, TpcDsQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wanify_gda::{DataLayout, JobProfile};

/// Shape of one [`mixed_trace`] job stream.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Data centers every job's layout must cover.
    pub n_dcs: usize,
    /// Number of jobs in the trace.
    pub jobs: usize,
    /// Seed of the sampling stream.
    pub seed: u64,
    /// Multiplier on every job's input size (1.0 ≈ 1–8 GB per query,
    /// sized for fleet runs rather than the paper's 100 GB solo runs).
    pub scale: f64,
}

impl TraceConfig {
    /// A fleet-sized trace over `n_dcs` data centers.
    pub fn new(n_dcs: usize, jobs: usize, seed: u64) -> Self {
        Self { n_dcs, jobs, seed, scale: 1.0 }
    }

    /// Sets the input-size multiplier.
    #[must_use]
    pub fn scaled(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }
}

/// Samples the deterministic mixed trace described in the module docs.
///
/// The mix is roughly 20 % TeraSort, 30 % WordCount and 50 % TPC-DS
/// (uniform over Q82/Q95/Q11/Q78), with per-job input sizes jittered and
/// a third of the jobs skewed toward one region, as block layouts in the
/// paper's §5.8.1 skew study are.
///
/// # Panics
///
/// Panics if `n_dcs == 0`, `jobs == 0` or `scale <= 0`.
///
/// # Examples
///
/// ```
/// use wanify_workloads::trace::{mixed_trace, TraceConfig};
/// let jobs = mixed_trace(&TraceConfig::new(4, 10, 7));
/// assert_eq!(jobs.len(), 10);
/// assert_eq!(jobs, mixed_trace(&TraceConfig::new(4, 10, 7)));
/// ```
pub fn mixed_trace(cfg: &TraceConfig) -> Vec<JobProfile> {
    trace_iter(cfg).collect()
}

/// The streaming form of [`mixed_trace`]: a `Clone + Send` iterator that
/// synthesizes job `i` only when asked for it. Holds one [`StdRng`] and a
/// position — O(1) memory at any trace length — and draws the exact RNG
/// stream `mixed_trace` draws, so collecting it reproduces the
/// materialized trace bit for bit (pinned by the
/// `streaming_trace_matches_materialized` proptest).
///
/// # Panics
///
/// Panics as [`mixed_trace`] does for degenerate configs.
///
/// # Examples
///
/// ```
/// use wanify_workloads::trace::{mixed_trace, trace_iter, TraceConfig};
/// let cfg = TraceConfig::new(4, 10, 7);
/// assert_eq!(trace_iter(&cfg).collect::<Vec<_>>(), mixed_trace(&cfg));
/// ```
pub fn trace_iter(cfg: &TraceConfig) -> TraceIter {
    assert!(cfg.n_dcs > 0, "a trace needs at least one DC");
    assert!(cfg.jobs > 0, "a trace needs at least one job");
    assert!(cfg.scale > 0.0, "trace scale must be positive");
    TraceIter { cfg: cfg.clone(), rng: StdRng::seed_from_u64(cfg.seed), idx: 0 }
}

/// Streaming job source behind [`mixed_trace`]; see [`trace_iter`].
#[derive(Debug, Clone)]
pub struct TraceIter {
    cfg: TraceConfig,
    rng: StdRng,
    idx: usize,
}

impl TraceIter {
    /// Jobs this iterator will have produced when exhausted.
    pub fn total(&self) -> usize {
        self.cfg.jobs
    }
}

impl Iterator for TraceIter {
    type Item = JobProfile;

    fn next(&mut self) -> Option<JobProfile> {
        if self.idx >= self.cfg.jobs {
            return None;
        }
        let idx = self.idx;
        self.idx += 1;
        let cfg = &self.cfg;
        let rng = &mut self.rng;
        let input_gb = cfg.scale * rng.gen_range(1.0..8.0);
        let layout = sample_layout(cfg.n_dcs, input_gb, rng);
        let pick: f64 = rng.gen();
        let mut job = if pick < 0.2 {
            terasort::job(layout)
        } else if pick < 0.5 {
            // Intermediate size between 10 % and 120 % of the input, the
            // span of the paper's Fig. 6 sweep.
            let intermediate_mb = input_gb * 1024.0 * rng.gen_range(0.1..1.2);
            wordcount::job_with_intermediate(layout, intermediate_mb)
        } else {
            TpcDsQuery::all()[rng.gen_range(0..4usize)].job_over(layout)
        };
        job.name = format!("{}-{idx}", job.name).into();
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.cfg.jobs - self.idx;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TraceIter {}

/// Samples a **region-tagged** mixed trace: the same workload mix as
/// [`mixed_trace`], but every job is homed to one of the region groups in
/// `group_of` (the DC → group map a
/// [`Backbone`](wanify_netsim::Backbone) uses) and most of its input is
/// concentrated on that group's data centers. Home groups rotate
/// round-robin over the trace, so every group gets tenants; job names
/// gain an `@g<home>` tag (e.g. `terasort-4@g2`) that region-group shard
/// policies and report readers can key on.
///
/// This is the natural input for a sharded fleet: tenants mostly shuffle
/// inside their home group, and only the spill-over rides the cross-shard
/// backbone.
///
/// # Panics
///
/// Panics if `group_of.len() != cfg.n_dcs` (and as [`mixed_trace`] for
/// degenerate configs).
///
/// # Examples
///
/// ```
/// use wanify_workloads::trace::{regional_mixed_trace, TraceConfig};
/// let jobs = regional_mixed_trace(&TraceConfig::new(4, 6, 7), &[0, 0, 1, 1]);
/// assert_eq!(jobs.len(), 6);
/// assert!(jobs[0].name.contains("@g"));
/// ```
pub fn regional_mixed_trace(cfg: &TraceConfig, group_of: &[usize]) -> Vec<JobProfile> {
    regional_trace_iter(cfg, group_of.to_vec()).collect()
}

/// The streaming form of [`regional_mixed_trace`]: wraps [`trace_iter`]
/// and applies the region-group homing per item, so the region-tagged
/// trace is O(1) memory too. `Clone + Send`; collecting it reproduces
/// the materialized regional trace bit for bit.
///
/// # Panics
///
/// Panics if `group_of.len() != cfg.n_dcs` (and as [`trace_iter`] for
/// degenerate configs).
pub fn regional_trace_iter(cfg: &TraceConfig, group_of: Vec<usize>) -> RegionalTraceIter {
    assert_eq!(
        group_of.len(),
        cfg.n_dcs,
        "group map must assign every DC of the trace a region group"
    );
    let n_groups = group_of.iter().copied().max().map_or(1, |g| g + 1);
    RegionalTraceIter { inner: trace_iter(cfg), group_of, n_groups }
}

/// Streaming job source behind [`regional_mixed_trace`]; see
/// [`regional_trace_iter`].
#[derive(Debug, Clone)]
pub struct RegionalTraceIter {
    inner: TraceIter,
    group_of: Vec<usize>,
    n_groups: usize,
}

impl RegionalTraceIter {
    /// Jobs this iterator will have produced when exhausted.
    pub fn total(&self) -> usize {
        self.inner.total()
    }
}

impl Iterator for RegionalTraceIter {
    type Item = JobProfile;

    fn next(&mut self) -> Option<JobProfile> {
        // The wrapped iterator advances its own index; the job we are
        // about to home is the one at the pre-advance position.
        let idx = self.inner.idx;
        let mut job = self.inner.next()?;
        let home = idx % self.n_groups;
        let n_dcs = self.group_of.len();
        let home_dcs: Vec<usize> = (0..n_dcs).filter(|&dc| self.group_of[dc] == home).collect();
        if !home_dcs.is_empty() {
            // Concentrate the input: move three quarters of every foreign
            // DC's blocks onto the home group, spread round-robin.
            let mut slot = idx % home_dcs.len();
            for (from, &group) in self.group_of.iter().enumerate() {
                if group == home {
                    continue;
                }
                let moving = 3 * job.layout.blocks_per_dc[from] / 4;
                job.layout.move_blocks(from, home_dcs[slot], moving);
                slot = (slot + 1) % home_dcs.len();
            }
        }
        job.name = format!("{}@g{home}", job.name).into();
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for RegionalTraceIter {}

/// Uniform layout two thirds of the time, one third skewed toward a
/// random region (as the paper's HDFS block moves create).
fn sample_layout(n_dcs: usize, input_gb: f64, rng: &mut StdRng) -> DataLayout {
    let mut layout = DataLayout::uniform(n_dcs, input_gb);
    if n_dcs > 1 && rng.gen_range(0..3usize) == 0 {
        let hot = rng.gen_range(0..n_dcs);
        for from in 0..n_dcs {
            if from != hot {
                let half = layout.blocks_per_dc[from] / 2;
                layout.move_blocks(from, hot, half);
            }
        }
    }
    layout
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic() {
        let a = mixed_trace(&TraceConfig::new(8, 40, 3));
        let b = mixed_trace(&TraceConfig::new(8, 40, 3));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = mixed_trace(&TraceConfig::new(8, 40, 3));
        let b = mixed_trace(&TraceConfig::new(8, 40, 4));
        assert_ne!(a, b);
    }

    #[test]
    fn trace_mixes_workload_families() {
        let jobs = mixed_trace(&TraceConfig::new(4, 60, 11));
        let count = |prefix: &str| jobs.iter().filter(|j| j.name.starts_with(prefix)).count();
        assert!(count("terasort") > 0, "no terasort in the mix");
        assert!(count("wordcount") > 0, "no wordcount in the mix");
        assert!(count("q") > 0, "no TPC-DS in the mix");
        assert_eq!(count("terasort") + count("wordcount") + count("q"), 60);
    }

    #[test]
    fn layouts_cover_the_cluster_and_respect_scale() {
        let jobs = mixed_trace(&TraceConfig::new(5, 30, 9).scaled(0.5));
        for j in &jobs {
            assert_eq!(j.layout.len(), 5);
            assert!(j.input_gb() <= 0.5 * 8.0 + 0.1, "{} too big", j.input_gb());
        }
    }

    #[test]
    fn some_jobs_are_skewed() {
        let jobs = mixed_trace(&TraceConfig::new(6, 60, 2));
        assert!(jobs.iter().any(|j| j.layout.skewness() > 0.2));
        assert!(jobs.iter().any(|j| j.layout.skewness() < 0.05));
    }

    #[test]
    #[should_panic]
    fn zero_jobs_panics() {
        let _ = mixed_trace(&TraceConfig::new(4, 0, 1));
    }

    #[test]
    fn regional_trace_is_deterministic_and_tagged() {
        let groups = [0usize, 0, 1, 2];
        let a = regional_mixed_trace(&TraceConfig::new(4, 12, 6), &groups);
        let b = regional_mixed_trace(&TraceConfig::new(4, 12, 6), &groups);
        assert_eq!(a, b);
        for (idx, job) in a.iter().enumerate() {
            assert!(
                job.name.ends_with(&format!("@g{}", idx % 3)),
                "{} lacks its home tag",
                job.name
            );
        }
    }

    #[test]
    fn regional_trace_concentrates_data_in_the_home_group() {
        let groups = [0usize, 0, 1, 1];
        let jobs = regional_mixed_trace(&TraceConfig::new(4, 10, 3), &groups);
        for (idx, job) in jobs.iter().enumerate() {
            let home = idx % 2;
            let home_gb: f64 =
                (0..4).filter(|&d| groups[d] == home).map(|d| job.layout.gb_at(d)).sum();
            let total: f64 = (0..4).map(|d| job.layout.gb_at(d)).sum();
            assert!(
                home_gb > 0.6 * total,
                "{}: home group holds {home_gb:.2} of {total:.2} GB",
                job.name
            );
        }
    }

    #[test]
    fn regional_trace_rotates_home_groups() {
        let groups = [0usize, 1, 2, 2];
        let jobs = regional_mixed_trace(&TraceConfig::new(4, 9, 5), &groups);
        for home in 0..3 {
            assert!(
                jobs.iter().any(|j| j.name.ends_with(&format!("@g{home}"))),
                "group {home} got no tenants"
            );
        }
    }

    #[test]
    #[should_panic(expected = "group map")]
    fn regional_trace_rejects_short_group_maps() {
        let _ = regional_mixed_trace(&TraceConfig::new(4, 4, 1), &[0, 1]);
    }
}
