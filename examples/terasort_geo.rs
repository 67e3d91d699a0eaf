//! Geo-distributed TeraSort with and without WANify (paper Fig. 5).
//!
//! Runs the shuffle-heavy TeraSort benchmark on the 8-region testbed under
//! four transfer strategies and prints latency, cost and minimum observed
//! bandwidth for each.
//!
//! ```text
//! cargo run --release -p wanify-experiments --example terasort_geo [input_gb]
//! ```

use wanify_experiments::common::{Arm, Belief, Effort, ExpEnv, WanifyMode};
use wanify_gda::{DataLayout, VanillaSpark};
use wanify_workloads::terasort;

fn main() {
    let input_gb: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(25.0);
    println!("TeraSort over {input_gb} GB on 8 geo-distributed DCs\n");

    let env = ExpEnv::new(8, Effort::Quick, 11);
    let job = terasort::job(DataLayout::uniform(8, input_gb));
    let sched = VanillaSpark::new();

    // Vanilla Spark: locality-aware, single connection per DC pair.
    let vanilla = env.run_arm(0, &job, &sched, Arm::Single(Belief::StaticIndependent));
    println!(
        "vanilla Spark       latency {:>6.0}s  cost {}  min BW {:>5.0} Mbps",
        vanilla.latency_s, vanilla.cost, vanilla.min_bw_mbps
    );

    // Uniform parallelism: 8 connections everywhere (WANify-P).
    let uniform = env.run_arm(1, &job, &sched, Arm::Uniform(8));
    println!(
        "uniform 8 conns     latency {:>6.0}s  cost {}  min BW {:>5.0} Mbps",
        uniform.latency_s, uniform.cost, uniform.min_bw_mbps
    );

    // Full WANify: heterogeneous connections + agents + throttling.
    let wanified = env.run_arm(2, &job, &sched, Arm::wanify(WanifyMode::full()));
    println!(
        "WANify (TC)         latency {:>6.0}s  cost {}  min BW {:>5.0} Mbps",
        wanified.latency_s, wanified.cost, wanified.min_bw_mbps
    );

    println!(
        "\nWANify vs vanilla: {:.1}% latency reduction, {:.1}x minimum bandwidth",
        100.0 * (vanilla.latency_s - wanified.latency_s) / vanilla.latency_s,
        wanified.min_bw_mbps / vanilla.min_bw_mbps.max(1.0)
    );
}
