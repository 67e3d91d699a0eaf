//! Criterion bench over the experiment registry: every entry of
//! `wanify_experiments::registry::ENTRIES` — the paper's tables and
//! figures and the beyond-the-paper studies — at quick effort, seed 42.
//!
//! Prints each regenerated artifact once, then measures its runner end to
//! end. The entries share one trained 8-DC environment, as in `repro`, so a
//! row times the experiment, not the forest fit — `model_training` prices
//! that. `repro -- <id>` produces the
//! full-effort version.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wanify_experiments::common::{Effort, ExpEnv};
use wanify_experiments::registry::ENTRIES;

fn bench(c: &mut Criterion) {
    let env = ExpEnv::new(8, Effort::Quick, 42);
    let mut group = c.benchmark_group("paper_artifacts");
    group.sample_size(10);
    for entry in &ENTRIES {
        println!("{}", (entry.run)(&env));
        group.bench_function(entry.id, |b| b.iter(|| (entry.run)(black_box(&env))));
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
