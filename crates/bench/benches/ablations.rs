//! Ablations for the design choices DESIGN.md calls out:
//!
//! * dynamic-scheduling chunk size (the paper settled on 1000),
//! * BP rounding batch size (`BP(batch=r)`),
//! * both-sides vs one-side initialization of the parallel
//!   locally-dominant matcher (the paper found one-side "noticeably"
//!   faster).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netalign_core::bp::othermax::vertex_stats_into;
use netalign_core::prelude::*;
use netalign_data::standins::StandIn;
use netalign_matching::approx::{parallel_local_dominant, InitStrategy, ParallelLdOptions};
use netalign_matching::MatcherKind;
use std::hint::black_box;

fn bench_chunk_size(c: &mut Criterion) {
    let inst = StandIn::LcshWiki.generate(0.01, 7);
    let l = &inst.problem.l;
    let m = l.num_edges();
    let g: Vec<f64> = (0..m).map(|i| ((i * 13) % 97) as f64 * 0.02).collect();
    let mut group = c.benchmark_group("ablation-chunk");
    group.sample_size(20);
    for chunk in [1usize, 10, 100, 1000, 10000] {
        group.bench_with_input(BenchmarkId::from_parameter(chunk), &chunk, |b, &chunk| {
            let mut rows = vec![(0.0, 0.0, 0usize); l.num_left()];
            let mut cols = vec![(0.0, 0.0, 0usize); l.num_right()];
            b.iter(|| {
                vertex_stats_into(l, &g, &g, &mut rows, &mut cols, chunk);
                black_box((&rows, &cols));
            })
        });
    }
    group.finish();
}

fn bench_batch_size(c: &mut Criterion) {
    let inst = StandIn::DmelaScere.generate(0.15, 7);
    let mut group = c.benchmark_group("ablation-batch");
    group.sample_size(10);
    for batch in [1usize, 10, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            let cfg = AlignConfig {
                iterations: 5,
                batch,
                matcher: MatcherKind::ParallelLocalDominant,
                ..Default::default()
            };
            b.iter(|| black_box(belief_propagation(&inst.problem, &cfg)))
        });
    }
    group.finish();
}

fn bench_init_strategy(c: &mut Criterion) {
    let inst = StandIn::LcshWiki.generate(0.01, 7);
    let l = &inst.problem.l;
    let mut group = c.benchmark_group("ablation-ld-init");
    group.sample_size(20);
    for (name, init) in [
        ("both-sides", InitStrategy::BothSides),
        ("one-side", InitStrategy::LeftSide),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &init, |b, &init| {
            b.iter(|| {
                black_box(parallel_local_dominant(
                    l,
                    l.weights(),
                    ParallelLdOptions { init },
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_chunk_size,
    bench_batch_size,
    bench_init_strategy
);
criterion_main!(benches);
