//! Analytics job profiles: stage DAGs with compute and shuffle behaviour.

use std::sync::Arc;

use crate::storage::DataLayout;

/// One stage of a job: a compute pass over its input followed by an
/// all-to-all shuffle of its output (unless it is the final stage).
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Stage label, e.g. `"map"` or `"reduce-1"`.
    pub name: String,
    /// Output bytes / input bytes for this stage (shuffle selectivity).
    pub selectivity: f64,
    /// vCPU-seconds needed per gigabyte of stage input.
    pub compute_s_per_gb: f64,
    /// Whether the stage's output is shuffled to the next stage. The last
    /// stage of most queries aggregates locally and sets this to `false`.
    pub shuffles: bool,
}

impl StageProfile {
    /// Creates a shuffling stage.
    pub fn shuffling(name: &str, selectivity: f64, compute_s_per_gb: f64) -> Self {
        Self { name: name.to_string(), selectivity, compute_s_per_gb, shuffles: true }
    }

    /// Creates a terminal (non-shuffling) stage.
    pub fn terminal(name: &str, selectivity: f64, compute_s_per_gb: f64) -> Self {
        Self { name: name.to_string(), selectivity, compute_s_per_gb, shuffles: false }
    }
}

/// A complete analytics job: input layout plus an ordered list of stages.
///
/// This is the simulator's stand-in for a Spark job compiled from TeraSort,
/// WordCount, a TPC-DS query, or an ML training iteration (paper §5.1).
///
/// Every part is shared: cloning a profile bumps three reference counts
/// (name, stages, layout blocks) and allocates nothing. Generators hand
/// every job of one family the same stage list, and
/// [`QueryReport::job`](crate::QueryReport::job) shares the name.
/// Editing a clone's layout copies its blocks first
/// ([`DataLayout::move_blocks`]), so the original never changes.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    /// Job name used in reports.
    pub name: Arc<str>,
    /// Input block distribution across DCs.
    pub layout: DataLayout,
    /// Stages in execution order.
    pub stages: Arc<[StageProfile]>,
}

impl JobProfile {
    /// Creates a job over `layout` with the given stages. Both the name
    /// and the stages may be passed already shared (`Arc<str>`,
    /// `Arc<[StageProfile]>`); a `&str`, `String` or `Vec` goes into a
    /// new allocation.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or any selectivity is negative.
    pub fn new(
        name: impl Into<Arc<str>>,
        layout: DataLayout,
        stages: impl Into<Arc<[StageProfile]>>,
    ) -> Self {
        let stages = stages.into();
        assert!(!stages.is_empty(), "a job needs at least one stage");
        assert!(
            stages.iter().all(|s| s.selectivity >= 0.0 && s.compute_s_per_gb >= 0.0),
            "stage parameters must be non-negative"
        );
        Self { name: name.into(), layout, stages }
    }

    /// Total input size in gigabytes.
    pub fn input_gb(&self) -> f64 {
        self.layout.total_gb()
    }

    /// Estimated total shuffle volume in gigabytes, assuming the input
    /// passes through every stage in place (used for cost previews).
    pub fn estimated_shuffle_gb(&self) -> f64 {
        let mut data = self.input_gb();
        let mut shuffled = 0.0;
        for s in self.stages.iter() {
            data *= s.selectivity;
            if s.shuffles {
                shuffled += data;
            }
        }
        shuffled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobProfile {
        JobProfile::new(
            "sort",
            DataLayout::uniform(4, 10.0),
            vec![
                StageProfile::shuffling("map", 1.0, 2.0),
                StageProfile::terminal("reduce", 0.1, 1.0),
            ],
        )
    }

    #[test]
    fn job_reports_input_size() {
        assert!((job().input_gb() - 10.0).abs() < 0.1);
    }

    #[test]
    fn shuffle_estimate_accumulates_shuffling_stages() {
        let j = job();
        // Only the map stage shuffles: 10 GB × 1.0 selectivity.
        assert!((j.estimated_shuffle_gb() - 10.0).abs() < 0.1);
    }

    #[test]
    #[should_panic]
    fn empty_stage_list_panics() {
        let _ = JobProfile::new("bad", DataLayout::uniform(2, 1.0), vec![]);
    }

    #[test]
    #[should_panic]
    fn negative_selectivity_panics() {
        let _ = JobProfile::new(
            "bad",
            DataLayout::uniform(2, 1.0),
            vec![StageProfile::shuffling("m", -0.5, 1.0)],
        );
    }
}
