//! Open-loop load generation for the serving gateway.
//!
//! Closed-loop drivers ([`wanify_gda::Arrivals::Closed`]) can never
//! overload a system — each client waits for its previous job. Measuring
//! overload behaviour needs an *open* loop: arrivals keep coming at the
//! offered rate whether or not the fleet keeps up. [`offered_load`]
//! samples a deterministic Poisson request stream over the mixed
//! multi-tenant trace, and [`rate_sweep`] scales one spec across a list
//! of offered rates (same jobs, same arrival *pattern*, compressed or
//! stretched in time) — the sweep a goodput-vs-load curve is measured
//! on, from well below saturation to far beyond it.

use crate::trace::{trace_iter, TraceConfig, TraceIter};
use wanify_gda::{poisson_times_iter, JobProfile, PoissonTimes};

/// Shape of one open-loop offered load.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Data centers every job's layout must cover.
    pub n_dcs: usize,
    /// Number of requests in the stream.
    pub jobs: usize,
    /// Seed of both the job-mix and the arrival streams.
    pub seed: u64,
    /// Multiplier on every job's input size.
    pub scale: f64,
    /// Offered arrival rate, requests per simulated second (> 0).
    pub rate_per_s: f64,
    /// Relative completion deadline granted to every request (arrival +
    /// slack); `None` issues requests without deadlines.
    pub deadline_slack_s: Option<f64>,
}

impl LoadSpec {
    /// An open-loop stream of `jobs` requests at `rate_per_s` over
    /// `n_dcs` data centers.
    pub fn new(n_dcs: usize, jobs: usize, seed: u64, rate_per_s: f64) -> Self {
        Self { n_dcs, jobs, seed, scale: 1.0, rate_per_s, deadline_slack_s: None }
    }

    /// Sets the input-size multiplier.
    #[must_use]
    pub fn scaled(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Grants every request a completion deadline `slack_s` after its
    /// arrival.
    #[must_use]
    pub fn with_deadline_slack(mut self, slack_s: f64) -> Self {
        self.deadline_slack_s = Some(slack_s);
        self
    }

    /// The same spec at a different offered rate.
    #[must_use]
    pub fn at_rate(mut self, rate_per_s: f64) -> Self {
        self.rate_per_s = rate_per_s;
        self
    }
}

/// One request of an offered load: a job, when it arrives, and its
/// optional absolute deadline. Mirrors the gateway's request shape
/// without depending on the gateway crate.
#[derive(Debug, Clone, PartialEq)]
pub struct OfferedJob {
    /// The query to run.
    pub job: JobProfile,
    /// Absolute arrival time at the front-end, seconds.
    pub arrival_s: f64,
    /// Absolute completion deadline, if the spec grants one.
    pub deadline_s: Option<f64>,
}

/// Samples the deterministic open-loop request stream of `spec`: the
/// mixed multi-tenant trace ([`mixed_trace`](crate::mixed_trace)) with
/// Poisson arrival times ([`poisson_times_iter`]) at the offered rate,
/// sorted by arrival (Poisson times are already non-decreasing). Equal
/// specs produce bit-identical streams.
///
/// # Panics
///
/// Panics on a degenerate spec: no jobs, no DCs, a non-positive scale
/// or rate, or a non-positive deadline slack.
pub fn offered_load(spec: &LoadSpec) -> Vec<OfferedJob> {
    offered_load_iter(spec).collect()
}

/// The streaming form of [`offered_load`]: zips the streaming trace
/// ([`trace_iter`]) with the streaming Poisson arrival schedule
/// ([`poisson_times_iter`]), so a million-request stream is generated
/// in O(1) memory. `Clone + Send`; collecting it reproduces the
/// materialized Vec bit for bit.
///
/// # Panics
///
/// Panics on a degenerate spec: no jobs, no DCs, a non-positive scale
/// or rate, or a non-positive deadline slack.
pub fn offered_load_iter(spec: &LoadSpec) -> OfferedLoadIter {
    assert!(
        spec.rate_per_s.is_finite() && spec.rate_per_s > 0.0,
        "offered rate must be finite and positive, got {}",
        spec.rate_per_s
    );
    if let Some(slack) = spec.deadline_slack_s {
        assert!(
            slack.is_finite() && slack > 0.0,
            "deadline slack must be finite and positive, got {slack}"
        );
    }
    let jobs = trace_iter(&TraceConfig::new(spec.n_dcs, spec.jobs, spec.seed).scaled(spec.scale));
    let times = poisson_times_iter(spec.rate_per_s, spec.seed).expect("rate validated above");
    OfferedLoadIter { jobs, times, deadline_slack_s: spec.deadline_slack_s }
}

/// Streaming request source behind [`offered_load`]; see
/// [`offered_load_iter`].
#[derive(Debug, Clone)]
pub struct OfferedLoadIter {
    jobs: TraceIter,
    times: PoissonTimes,
    deadline_slack_s: Option<f64>,
}

impl Iterator for OfferedLoadIter {
    type Item = OfferedJob;

    fn next(&mut self) -> Option<OfferedJob> {
        let job = self.jobs.next()?;
        let arrival_s = self.times.next().expect("Poisson stream is unbounded");
        Some(OfferedJob {
            job,
            arrival_s,
            deadline_s: self.deadline_slack_s.map(|slack| arrival_s + slack),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.jobs.size_hint()
    }
}

impl ExactSizeIterator for OfferedLoadIter {}

/// The same base load at each offered rate: identical job mix and
/// arrival pattern, compressed or stretched in time. This is the sweep
/// a goodput-vs-offered-load curve is measured on — only the rate
/// varies between points, so the curve isolates overload behaviour from
/// workload noise.
pub fn rate_sweep(base: &LoadSpec, rates: &[f64]) -> Vec<(f64, Vec<OfferedJob>)> {
    rates.iter().map(|&r| (r, offered_load(&base.clone().at_rate(r)))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offered_load_is_deterministic_and_sorted() {
        let spec = LoadSpec::new(3, 25, 9, 0.05).with_deadline_slack(300.0);
        let a = offered_load(&spec);
        let b = offered_load(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 25);
        for w in a.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s, "arrivals must be non-decreasing");
        }
        for r in &a {
            assert_eq!(r.deadline_s, Some(r.arrival_s + 300.0));
        }
    }

    #[test]
    fn rate_scales_arrival_times_not_the_mix() {
        let base = LoadSpec::new(3, 10, 4, 0.01);
        let slow = offered_load(&base);
        let fast = offered_load(&base.clone().at_rate(0.1));
        let names = |l: &[OfferedJob]| l.iter().map(|o| o.job.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&slow), names(&fast), "the job mix is rate-independent");
        let last = |l: &[OfferedJob]| l.last().unwrap().arrival_s;
        assert!(
            (last(&slow) / last(&fast) - 10.0).abs() < 1e-6,
            "10x the rate compresses the same pattern 10x in time"
        );
    }

    #[test]
    fn rate_sweep_covers_every_rate() {
        let sweep = rate_sweep(&LoadSpec::new(3, 5, 1, 0.01), &[0.005, 0.01, 0.02]);
        assert_eq!(sweep.len(), 3);
        for (rate, reqs) in &sweep {
            assert_eq!(reqs.len(), 5);
            assert!(*rate > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "offered rate")]
    fn zero_rate_panics() {
        let _ = offered_load(&LoadSpec::new(3, 5, 1, 0.0));
    }
}
