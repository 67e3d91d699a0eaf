//! Multi-tenant fleet demo: concurrent queries contending on one WAN.
//!
//! Serves a deterministic mixed trace (TeraSort / WordCount / TPC-DS)
//! through the fleet engine twice — once with a generous admission limit
//! (heavy contention) and once one-at-a-time (no contention) — and prints
//! what sharing the WAN costs each query.
//!
//! Run with `cargo run --release --example fleet_contention [jobs]`.

use wanify_gda::{Arrivals, FleetConfig, FleetEngine, FleetReport, Tetrium};
use wanify_netsim::{paper_testbed_n, LinkModelParams, NetSim, VmType};
use wanify_workloads::{mixed_trace, TraceConfig};

fn serve(jobs: &[wanify_gda::JobProfile], max_concurrent: usize) -> FleetReport {
    let sim = NetSim::new(paper_testbed_n(VmType::t2_medium(), 8), LinkModelParams::frozen(), 11);
    FleetEngine::new(
        sim,
        Box::new(Tetrium::new()),
        Box::new(wanify::StaticIndependent::new()),
        FleetConfig { max_concurrent, regauge_every_s: 300.0, conns: None, faults: None },
    )
    .run(jobs, &Arrivals::Closed { clients: max_concurrent, think_s: 0.0 })
    .expect("trace matches the 8-DC testbed")
}

fn main() {
    let n_jobs: usize = match std::env::args().nth(1) {
        None => 24,
        Some(raw) => match raw.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("error: expected a positive job count, got {raw:?}");
                eprintln!("usage: fleet_contention [jobs]   (default: 24)");
                std::process::exit(2);
            }
        },
    };
    println!("{n_jobs} mixed queries on the 8-DC paper testbed (Tetrium, static belief)\n");
    let trace = mixed_trace(&TraceConfig::new(8, n_jobs, 42).scaled(0.5));

    let contended = serve(&trace, n_jobs);
    let serial = serve(&trace, 1);

    let report = |label: &str, r: &FleetReport| {
        let m = r.makespan();
        println!(
            "{label:<22} duration {:>7.0}s  {:.4} jobs/s  makespan p50 {:>6.0}s  p95 {:>6.0}s  \
             mean wait {:>6.0}s  egress ${:.2}",
            r.duration_s,
            r.throughput_jobs_per_s(),
            m.p50,
            m.p95,
            r.queue_wait().mean,
            r.network_cost_usd(),
        );
    };
    report("all-at-once (shared)", &contended);
    report("one-at-a-time", &serial);

    let slowdown = contended.makespan().mean / serial.makespan().mean.max(1e-12);
    println!(
        "\nSharing the WAN stretches the mean query makespan {slowdown:.1}x — \
         the cross-query contention regime the fleet engine exists to study."
    );
}
