//! Microbenchmarks of BP's per-iteration passes (the steps of Figure
//! 7) swept over rayon pool sizes: pass 2, the per-vertex othermax
//! statistics; one full `BpEngine::step`, which times the real passes
//! (`fig7` and perfbench's traced `bp.step` break it down per pass);
//! full `belief_propagation` iterations with deferred rounding (the
//! end-to-end per-iteration wall-clock that
//! BENCH_2.json tracks across runtime changes); and netalignd's solve
//! of the `bp-ontology` instance, where every iteration's flush is
//! rounded beside the next iteration's passes.
//!
//! Environment knobs (for CI's bench-smoke job):
//! * `NETALIGN_BENCH_SCALE` — stand-in scale (default 0.01);
//! * `NETALIGN_BENCH_POOLS` — comma-separated pool sizes (default 1,4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netalign_bench::{bench_pools, bench_scale};
use netalign_core::bp::othermax::vertex_stats_into;
use netalign_core::bp::BpEngine;
use netalign_core::prelude::*;
use netalign_data::standins::StandIn;
use netalign_matching::MatcherKind;
use std::hint::black_box;

fn bench_bp_kernels(c: &mut Criterion) {
    let scale = bench_scale();
    let inst = StandIn::LcshWiki.generate(scale, 7);
    let p = &inst.problem;
    let m = p.l.num_edges();
    let g: Vec<f64> = (0..m).map(|i| ((i * 31) % 101) as f64 * 0.01).collect();
    // perfbench's `bp-ontology` instance.
    let ontology = StandIn::LcshWiki.generate(0.00065, 1).problem;

    let mut group = c.benchmark_group("bp-steps");
    group.sample_size(20);

    for &threads in &bench_pools() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build rayon pool");

        group.bench_function(BenchmarkId::new("othermax-stats (pass 2)", threads), |b| {
            let mut rows = vec![(0.0, 0.0, 0usize); p.l.num_left()];
            let mut cols = vec![(0.0, 0.0, 0usize); p.l.num_right()];
            pool.install(|| {
                b.iter(|| {
                    vertex_stats_into(&p.l, &g, &g, &mut rows, &mut cols, 1000);
                    black_box((&rows, &cols));
                })
            })
        });

        // The full iteration: the three passes plus the commit swap and
        // the staging copies, through the engine itself.
        group.bench_function(
            BenchmarkId::new("bp-iteration (BpEngine::step)", threads),
            |b| {
                let cfg = AlignConfig {
                    iterations: 20,
                    matcher: MatcherKind::ParallelLocalDominant,
                    ..Default::default()
                };
                pool.install(|| {
                    let mut engine = BpEngine::new(p, &cfg);
                    b.iter(|| {
                        engine.step();
                        engine.discard_pending();
                    })
                })
            },
        );

        // End-to-end: 20 BP iterations with rounding deferred to the
        // final flush — per-iteration runtime overhead is what the
        // persistent-pool work targets.
        group.bench_function(
            BenchmarkId::new("bp-20-iters (deferred rounding)", threads),
            |b| {
                let cfg = AlignConfig {
                    iterations: 20,
                    batch: 20,
                    matcher: MatcherKind::ParallelLocalDominant,
                    ..Default::default()
                };
                pool.install(|| b.iter(|| black_box(belief_propagation(p, &cfg))))
            },
        );

        // netalignd's solve: 50 iterations, each one's y and z rounded
        // greedily beside the next iteration's passes, then the final
        // exact round.
        group.bench_function(
            BenchmarkId::new("bp-50-iters (pipelined rounding)", threads),
            |b| {
                let cfg = AlignConfig {
                    iterations: 50,
                    matcher: MatcherKind::Greedy,
                    final_exact_round: true,
                    trace_matcher: true,
                    ..Default::default()
                };
                pool.install(|| b.iter(|| black_box(belief_propagation(&ontology, &cfg))))
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_bp_kernels);
criterion_main!(benches);
