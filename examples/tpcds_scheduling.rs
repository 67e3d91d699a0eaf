//! TPC-DS scheduling under different bandwidth beliefs (paper §5.2, §5.4).
//!
//! Shows how the quality of the bandwidth matrix fed to a WAN-aware
//! scheduler (Tetrium or Kimchi) changes real query latency: the scheduler
//! plans with its belief, but the shuffle runs on the simulated WAN where
//! runtime contention applies.
//!
//! ```text
//! cargo run --release -p wanify-experiments --example tpcds_scheduling [q82|q95|q11|q78]
//! ```

use wanify_experiments::common::{Arm, Belief, Effort, ExpEnv, WanifyMode};
use wanify_gda::{Kimchi, Scheduler, Tetrium};
use wanify_workloads::TpcDsQuery;

fn main() {
    let query = match std::env::args().nth(1).as_deref() {
        Some("q82") => TpcDsQuery::Q82,
        Some("q95") => TpcDsQuery::Q95,
        Some("q11") => TpcDsQuery::Q11,
        _ => TpcDsQuery::Q78,
    };
    println!("TPC-DS {query} (25 GB input) on 8 geo-distributed DCs\n");

    let env = ExpEnv::new(8, Effort::Quick, 17);
    let job = query.job(8, 25.0);
    let schedulers: Vec<Box<dyn Scheduler>> =
        vec![Box::new(Tetrium::new()), Box::new(Kimchi::new())];

    for sched in &schedulers {
        println!("--- scheduler: {} ---", sched.name());
        for belief in [Belief::StaticIndependent, Belief::StaticSimultaneous, Belief::Predicted] {
            let report = env.run_arm(5, &job, sched.as_ref(), Arm::Single(belief));
            println!(
                "  {:<22} latency {:>6.1}s  cost {}",
                report.belief, report.latency_s, report.cost
            );
        }
        // And the full WANify treatment on top of the predicted belief.
        let wanified = env.run_arm(5, &job, sched.as_ref(), Arm::wanify(WanifyMode::full()));
        println!(
            "  {:<22} latency {:>6.1}s  cost {}  (min BW {:.0} Mbps)\n",
            "predicted + WANify", wanified.latency_s, wanified.cost, wanified.min_bw_mbps
        );
    }
}
