//! TPC-DS query profiles.
//!
//! The paper evaluates three weight classes (§5.2): light-weight (query
//! 82), average-weight (queries 11 and 95) and heavy-weight (query 78),
//! over 100 GB (and 40 GB for Kimchi parity) of input. The profiles below
//! model each query as its Spark stage DAG with per-stage selectivities
//! calibrated to the class: light queries barely shuffle, heavy queries
//! push tens of gigabytes across the WAN.

use std::sync::{Arc, OnceLock};
use wanify_gda::{DataLayout, JobProfile, StageProfile};

/// The four TPC-DS queries used throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpcDsQuery {
    /// Query 82 — light-weight: inventory/item filter, tiny shuffle.
    Q82,
    /// Query 95 — average-weight: web-sales self-joins.
    Q95,
    /// Query 11 — average-weight: customer year-over-year totals.
    Q11,
    /// Query 78 — heavy-weight: store/web/catalog sales joins.
    Q78,
}

impl TpcDsQuery {
    /// All evaluated queries in the paper's reporting order.
    pub fn all() -> [TpcDsQuery; 4] {
        [TpcDsQuery::Q82, TpcDsQuery::Q95, TpcDsQuery::Q11, TpcDsQuery::Q78]
    }

    /// Query label, e.g. `"q78"`.
    pub fn name(self) -> &'static str {
        match self {
            TpcDsQuery::Q82 => "q82",
            TpcDsQuery::Q95 => "q95",
            TpcDsQuery::Q11 => "q11",
            TpcDsQuery::Q78 => "q78",
        }
    }

    /// Builds the query's stage profile over `input_gb` spread uniformly
    /// across `n_dcs` data centers.
    pub fn job(self, n_dcs: usize, input_gb: f64) -> JobProfile {
        self.job_over(DataLayout::uniform(n_dcs, input_gb))
    }

    /// Builds the query's stage profile over `layout`. Every job of one
    /// query shares one stage list.
    pub(crate) fn job_over(self, layout: DataLayout) -> JobProfile {
        static STAGES: [OnceLock<Arc<[StageProfile]>>; 4] =
            [OnceLock::new(), OnceLock::new(), OnceLock::new(), OnceLock::new()];
        let stages = STAGES[self as usize].get_or_init(|| self.stages().into());
        JobProfile::new(self.name(), layout, Arc::clone(stages))
    }

    /// The query's Spark stage DAG.
    fn stages(self) -> Vec<StageProfile> {
        match self {
            // Light: a selective scan then a pinhole aggregate. The shuffle
            // is ~0.1% of input (≈100 MB at 100 GB).
            TpcDsQuery::Q82 => vec![
                StageProfile::shuffling("scan-filter", 0.001, 1.2),
                StageProfile::terminal("aggregate", 0.1, 0.8),
            ],
            // Average: two join shuffles around 3-5% of input.
            TpcDsQuery::Q95 => vec![
                StageProfile::shuffling("scan-ws", 0.05, 1.5),
                StageProfile::shuffling("self-join", 0.6, 2.0),
                StageProfile::terminal("dedup-agg", 0.2, 1.0),
            ],
            // Average, slightly heavier tail than q95.
            TpcDsQuery::Q11 => vec![
                StageProfile::shuffling("scan-customer", 0.06, 1.5),
                StageProfile::shuffling("year-totals", 0.7, 2.0),
                StageProfile::terminal("compare", 0.2, 1.0),
            ],
            // Heavy: three sales channels joined; ~20% of input shuffles.
            TpcDsQuery::Q78 => vec![
                StageProfile::shuffling("scan-sales", 0.12, 1.8),
                StageProfile::shuffling("join-returns", 0.8, 2.2),
                StageProfile::shuffling("join-channels", 0.5, 2.0),
                StageProfile::terminal("ratio-agg", 0.1, 1.0),
            ],
        }
    }
}

impl std::fmt::Display for TpcDsQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
impl TpcDsQuery {
    /// The paper's default 100 GB configuration (§5.1).
    fn paper_job(self, n_dcs: usize) -> JobProfile {
        self.job(n_dcs, 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_classes_order_by_shuffle_volume() {
        let shuffle = |q: TpcDsQuery| q.paper_job(8).estimated_shuffle_gb();
        assert!(shuffle(TpcDsQuery::Q82) < 0.5, "light: {}", shuffle(TpcDsQuery::Q82));
        assert!(shuffle(TpcDsQuery::Q95) > 2.0);
        assert!(shuffle(TpcDsQuery::Q11) > shuffle(TpcDsQuery::Q95));
        assert!(shuffle(TpcDsQuery::Q78) > 2.0 * shuffle(TpcDsQuery::Q11));
    }

    #[test]
    fn q78_is_multi_stage() {
        let j = TpcDsQuery::Q78.paper_job(8);
        assert_eq!(j.stages.len(), 4);
        assert_eq!(j.stages.iter().filter(|s| s.shuffles).count(), 3);
    }

    #[test]
    fn kimchi_parity_input_also_supported() {
        let j = TpcDsQuery::Q95.job(8, 40.0);
        assert!((j.input_gb() - 40.0).abs() < 0.5);
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = TpcDsQuery::all().iter().map(|q| q.name()).collect();
        assert_eq!(names, vec!["q82", "q95", "q11", "q78"]);
        assert_eq!(TpcDsQuery::Q78.to_string(), "q78");
    }
}
