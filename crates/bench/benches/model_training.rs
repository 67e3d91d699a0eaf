//! Criterion bench for the prediction model: the quality study end to
//! end, plus the two forest costs the `wanify-loop` workload pays — the
//! one-off fit and the per-gauge prediction.
//!
//! Prints the regenerated artifact once (quick effort), then measures the
//! end-to-end runner. `repro -- model` produces the full-effort version.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wanify::{BandwidthAnalyzer, WanPredictionModel};
use wanify_experiments::model;
use wanify_experiments::Effort;
use wanify_netsim::{paper_testbed_n, ConnMatrix, LinkModelParams, NetSim, VmType};

fn bench(c: &mut Criterion) {
    println!("{}", model::run(Effort::Quick, 42).render());
    let mut group = c.benchmark_group("model");
    group.sample_size(10);
    group.bench_function("forest_vs_baselines", |b| {
        b.iter(|| model::run(Effort::Quick, black_box(42)))
    });

    // The repo benchmark's training set: 50 samples of every cluster size
    // 2..=8 is 8 400 rows. A return to per-node sorting shows here.
    let sizes: Vec<usize> = (2..=8).collect();
    let data = BandwidthAnalyzer::new(50).collect(&sizes, 42);
    let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("rayon pool");
    group.bench_function("forest_fit_8400rows_60trees_1thread", |b| {
        b.iter(|| one_thread.install(|| WanPredictionModel::train(black_box(&data), 60, 7)))
    });

    // The gauge: 56 directed pairs of an 8-DC snapshot through 60 trees.
    // A return to row-major walking shows here.
    let model = WanPredictionModel::train(&data, 60, 7);
    let mut sim = NetSim::new(paper_testbed_n(VmType::t3_nano(), 8), LinkModelParams::default(), 3);
    let snapshot = sim.snapshot(&ConnMatrix::filled(8, 1));
    group.sample_size(200);
    group.bench_function("predict_matrix_8dc_60trees", |b| {
        b.iter(|| model.predict_matrix(black_box(&snapshot), sim.topology()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
