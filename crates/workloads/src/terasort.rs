//! TeraSort: the canonical shuffle-everything benchmark.
//!
//! Sorting shuffles its entire input across the cluster (selectivity ≈ 1),
//! which is why the paper uses it to stress parallel data transfer
//! approaches (§5.3.1, Fig. 5). The 100 GB configuration matches §5.1.

use std::sync::{Arc, OnceLock};
use wanify_gda::{DataLayout, JobProfile, StageProfile};

/// vCPU-seconds per GB for the partition/sample map pass.
const MAP_COMPUTE_S_PER_GB: f64 = 4.0;
/// vCPU-seconds per GB for the merge/sort reduce pass.
const REDUCE_COMPUTE_S_PER_GB: f64 = 6.0;

/// Builds a TeraSort job over `layout`.
///
/// # Examples
///
/// ```
/// use wanify_gda::DataLayout;
/// let job = wanify_workloads::terasort::job(DataLayout::uniform(8, 100.0));
/// assert_eq!(job.stages.len(), 2);
/// assert!((job.estimated_shuffle_gb() - 100.0).abs() < 0.5);
/// ```
pub fn job(layout: DataLayout) -> JobProfile {
    // Every TeraSort runs the same two stages: build them once and share.
    static STAGES: OnceLock<Arc<[StageProfile]>> = OnceLock::new();
    let stages = STAGES.get_or_init(|| {
        Arc::new([
            StageProfile::shuffling("partition-map", 1.0, MAP_COMPUTE_S_PER_GB),
            StageProfile::terminal("sort-reduce", 1.0, REDUCE_COMPUTE_S_PER_GB),
        ])
    });
    JobProfile::new("terasort", layout, Arc::clone(stages))
}

/// The paper's TeraSort configuration: 100 GB spread uniformly over `n` DCs.
#[cfg(test)]
fn paper_job(n_dcs: usize) -> JobProfile {
    job(DataLayout::uniform(n_dcs, 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_its_whole_input() {
        let j = paper_job(8);
        assert!((j.estimated_shuffle_gb() - 100.0).abs() < 0.5);
        assert!(j.stages[0].shuffles);
        assert!(!j.stages[1].shuffles);
    }

    #[test]
    fn input_matches_paper_setup() {
        assert!((paper_job(8).input_gb() - 100.0).abs() < 0.5);
    }
}
