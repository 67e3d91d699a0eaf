//! Per-tenant-class token buckets: one tenant's storm cannot starve the
//! rest of the fleet's admission capacity.
//!
//! Classes are job *families* — the name prefix before the trailing
//! `-<index>` tag the trace generators append (`terasort-7` → `terasort`,
//! `q42-3` → `q42`, see [`wanify_gda::job_family`]). Buckets refill in
//! *simulated* time, so quota decisions are as deterministic as
//! everything else in the workspace.

/// Token-bucket rate limit applied independently to every tenant class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaConfig {
    /// Sustained admissions per simulated second each class may make.
    pub rate_per_s: f64,
    /// Burst capacity: tokens a bucket can hold (≥ 1). A fresh class
    /// starts with a full bucket.
    pub burst: f64,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        Self { rate_per_s: 0.1, burst: 4.0 }
    }
}

/// One class's bucket: lazily refilled at each take.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    tokens: f64,
    last_refill_s: f64,
    cfg: QuotaConfig,
}

impl TokenBucket {
    /// A full bucket as of `now_s`.
    pub(crate) fn new(cfg: QuotaConfig, now_s: f64) -> Self {
        Self { tokens: cfg.burst, last_refill_s: now_s, cfg }
    }

    /// Refills for the simulated time elapsed, then takes one token if
    /// available. Returns whether the admission is within quota.
    pub(crate) fn try_take(&mut self, now_s: f64) -> bool {
        let dt = (now_s - self.last_refill_s).max(0.0);
        self.tokens = (self.tokens + dt * self.cfg.rate_per_s).min(self.cfg.burst);
        self.last_refill_s = now_s;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanify_gda::job_family;

    #[test]
    fn class_is_the_family_prefix() {
        assert_eq!(job_family("terasort-7"), "terasort");
        assert_eq!(job_family("q42-3"), "q42");
        assert_eq!(job_family("wordcount-12@g1"), "wordcount");
        assert_eq!(job_family("solo"), "solo");
    }

    #[test]
    fn bucket_enforces_burst_then_rate() {
        let mut b = TokenBucket::new(QuotaConfig { rate_per_s: 0.5, burst: 2.0 }, 0.0);
        assert!(b.try_take(0.0), "a fresh bucket holds its burst");
        assert!(b.try_take(0.0));
        assert!(!b.try_take(0.0), "the burst is spent");
        assert!(!b.try_take(1.0), "0.5 tokens/s: one second refills only half a token");
        assert!(b.try_take(2.0), "two seconds refill a whole token");
        assert!(!b.try_take(2.0));
    }

    #[test]
    fn bucket_caps_at_burst_after_a_long_idle() {
        let mut b = TokenBucket::new(QuotaConfig { rate_per_s: 1.0, burst: 3.0 }, 0.0);
        for _ in 0..3 {
            assert!(b.try_take(0.0));
        }
        // A very long idle refills to the cap, not beyond.
        for _ in 0..3 {
            assert!(b.try_take(1e6));
        }
        assert!(!b.try_take(1e6));
    }

    #[test]
    fn refill_ignores_time_running_backwards() {
        let mut b = TokenBucket::new(QuotaConfig { rate_per_s: 1.0, burst: 1.0 }, 10.0);
        assert!(b.try_take(10.0));
        assert!(!b.try_take(5.0), "an earlier timestamp must not mint tokens");
    }
}
