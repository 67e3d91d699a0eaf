//! Fleet acceptance: ≥ 50 concurrent mixed queries on the 8-DC paper
//! testbed complete deterministically and show measurable cross-query
//! contention.

use wanify_gda::{Arrivals, FleetConfig, FleetEngine, FleetReport, JobProfile, Tetrium};
use wanify_netsim::{paper_testbed_n, LinkModelParams, NetSim, VmType};
use wanify_workloads::{mixed_trace, TraceConfig};

const N_DCS: usize = 8;
const N_JOBS: usize = 55;

fn sim(seed: u64) -> NetSim {
    NetSim::new(paper_testbed_n(VmType::t2_medium(), N_DCS), LinkModelParams::frozen(), seed)
}

fn run_fleet(jobs: &[JobProfile], max_concurrent: usize, seed: u64) -> FleetReport {
    FleetEngine::new(
        sim(seed),
        Box::new(Tetrium::new()),
        Box::new(wanify::StaticIndependent::new()),
        FleetConfig { max_concurrent, regauge_every_s: 300.0, conns: None, faults: None },
    )
    .run(jobs, &Arrivals::Closed { clients: max_concurrent, think_s: 0.0 })
    .expect("trace matches the 8-DC testbed")
}

#[test]
fn fifty_plus_concurrent_queries_complete_deterministically() {
    let trace = mixed_trace(&TraceConfig::new(N_DCS, N_JOBS, 21).scaled(0.25));

    // All 55 queries admitted at once: maximal contention.
    let a = run_fleet(&trace, N_JOBS, 5);
    assert_eq!(a.outcomes.len(), N_JOBS, "every query must complete");
    assert!(a.duration_s > 0.0);

    // Bit-identical across repeated runs.
    let b = run_fleet(&trace, N_JOBS, 5);
    assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
    assert_eq!(a.gauges, b.gauges);
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.report.job, y.report.job);
        assert_eq!(x.report.latency_s.to_bits(), y.report.latency_s.to_bits());
        assert_eq!(x.report.min_bw_mbps.to_bits(), y.report.min_bw_mbps.to_bits());
        assert_eq!(x.completed_s.to_bits(), y.completed_s.to_bits());
        assert_eq!(x.admitted_s.to_bits(), y.admitted_s.to_bits());
    }

    // A different simulator seed is a different (but still valid) run.
    let c = run_fleet(&trace, N_JOBS, 6);
    assert_eq!(c.outcomes.len(), N_JOBS);

    // Contention is measurable: each query's fleet makespan must be at
    // least its solo makespan, and on average strictly (much) worse.
    let mut solo_mean = 0.0;
    let mut strictly_worse = 0usize;
    for (job, outcome) in trace.iter().zip(&a.outcomes_by_name()) {
        let solo = run_fleet(std::slice::from_ref(job), 1, 5);
        let solo_makespan = solo.outcomes[0].makespan_s();
        solo_mean += solo_makespan / N_JOBS as f64;
        if outcome.makespan_s() > solo_makespan {
            strictly_worse += 1;
        }
    }
    let fleet_mean = a.outcomes.iter().map(|o| o.makespan_s()).sum::<f64>() / N_JOBS as f64;
    assert!(
        fleet_mean > 2.0 * solo_mean,
        "contention must dominate: fleet mean {fleet_mean:.1}s vs solo mean {solo_mean:.1}s"
    );
    assert!(
        strictly_worse * 10 >= N_JOBS * 9,
        "under a 55-way overload nearly every query should be strictly slower than solo \
         ({strictly_worse}/{N_JOBS} were)"
    );
}

/// Maps completion-ordered outcomes back to trace order by job name.
trait ByName {
    fn outcomes_by_name(&self) -> Vec<wanify_gda::JobOutcome>;
}

impl ByName for FleetReport {
    fn outcomes_by_name(&self) -> Vec<wanify_gda::JobOutcome> {
        let mut by_trace = self.outcomes.clone();
        // Trace job names end in their trace index: "terasort-17".
        by_trace.sort_by_key(|o| {
            o.report
                .job
                .rsplit('-')
                .next()
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or(usize::MAX)
        });
        by_trace
    }
}
