//! Quickstart: gauge runtime bandwidth and balance it with WANify.
//!
//! Builds the paper's 8-region AWS testbed, shows how statically measured
//! bandwidth diverges from runtime bandwidth, trains the prediction model,
//! and plans heterogeneous connections that lift the cluster's weakest
//! link.
//!
//! ```text
//! cargo run --release -p wanify-experiments --example quickstart
//! ```

use wanify::{
    BandwidthAnalyzer, BandwidthSource, MeasuredRuntime, PredictedRuntime, StaticIndependent,
    WanPredictionModel, Wanify, WanifyConfig,
};
use wanify_netsim::{paper_testbed, LinkModelParams, NetSim, VmType};

fn main() {
    // 1. The testbed: 8 AWS regions, one t2.medium worker each (Fig. 1).
    let topo = paper_testbed(VmType::t2_medium());
    let labels = topo.labels();
    let mut sim = NetSim::new(topo, LinkModelParams::default(), 42);

    // 2. Static-independent probing — what existing GDA systems do.
    let static_bw = StaticIndependent::new().gauge(&mut sim).expect("probe matches topology");
    println!("static-independent bandwidth (Mbps):");
    println!("{}", static_bw.render(&labels));

    // 3. Runtime bandwidth under simultaneous all-to-all transfer.
    let runtime = MeasuredRuntime::default().gauge(&mut sim).expect("probe matches topology");
    println!("runtime bandwidth during all-to-all transfer (Mbps):");
    println!("{}", runtime.render(&labels));
    let gaps = static_bw.count_significant_diffs(&runtime, 100.0);
    println!("significant gaps (>100 Mbps): {gaps} of 56 directed pairs\n");

    // 4. WANify's cheap alternative: train once, then predict runtime
    //    bandwidth from 1-second snapshots — the same BandwidthSource
    //    interface as the static probes above.
    let analyzer = BandwidthAnalyzer {
        vm: VmType::t2_medium(),
        params: LinkModelParams::default(),
        samples_per_size: 40,
    };
    let data = analyzer.collect(&[4, 6, 8], 7);
    let model = WanPredictionModel::train(&data, 60, 1);
    println!(
        "prediction model: {} trees, training accuracy {:.2}% (paper: 98.51%)",
        model.n_trees(),
        model.training_accuracy(&data)
    );
    let mut predictor = PredictedRuntime::new(model);
    let predicted = predictor.gauge(&mut sim).expect("sizes match");
    let pred_gaps = predicted.count_significant_diffs(&runtime, 100.0);
    println!("predicted-vs-runtime significant gaps: {pred_gaps} (static had {gaps})\n");

    // 5. Balance the WAN: heterogeneous connections + throttling, planned
    //    straight from the predicted source.
    let wanify = Wanify::new(WanifyConfig::default());
    let plan = wanify.plan(&mut predictor, &mut sim).expect("predictor matches topology");
    println!("optimized connections (max window):");
    println!("{}", plan.initial_conns().to_f64().render(&labels));
    let before = runtime.min_off_diag();
    sim.set_throttles(&plan.initial_throttles);
    let balanced = sim.measure_runtime(plan.initial_conns(), 20);
    println!(
        "minimum cluster bandwidth: {:.0} -> {:.0} Mbps ({:.1}x)",
        before,
        balanced.bw.min_off_diag(),
        balanced.bw.min_off_diag() / before
    );
}
