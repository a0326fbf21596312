//! Microbenchmarks of BP's per-iteration passes (the steps of Figure
//! 7) swept over rayon pool sizes: pass 1, the fused transpose-read +
//! clamp + row-sum sweep behind `compute-F`/`compute-d`; pass 2, the
//! per-vertex othermax statistics; pass 3, the fused message, `S`
//! update, damping and finite-count sweep; one full
//! `BpEngine::step`; full `belief_propagation` iterations with
//! deferred rounding (the end-to-end per-iteration wall-clock that
//! BENCH_2.json tracks across runtime changes); and netalignd's solve
//! of the `bp-ontology` instance, where every iteration's flush is
//! rounded beside the next iteration's passes.
//!
//! Environment knobs (for CI's bench-smoke job):
//! * `NETALIGN_BENCH_SCALE` — stand-in scale (default 0.01);
//! * `NETALIGN_BENCH_POOLS` — comma-separated pool sizes (default 1,4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netalign_bench::{bench_pools, bench_scale};
use netalign_core::bp::othermax::{column_positions, othermax, vertex_stats_into};
use netalign_core::bp::BpEngine;
use netalign_core::prelude::*;
use netalign_core::rowspans::RowSpans;
use netalign_data::standins::StandIn;
use netalign_matching::MatcherKind;
use rayon::prelude::*;
use std::hint::black_box;

fn bench_bp_kernels(c: &mut Criterion) {
    let scale = bench_scale();
    let inst = StandIn::LcshWiki.generate(scale, 7);
    let p = &inst.problem;
    let m = p.l.num_edges();
    let nnz = p.s.nnz();
    let g: Vec<f64> = (0..m).map(|i| ((i * 31) % 101) as f64 * 0.01).collect();
    let col_pos = column_positions(&p.l);
    let sk: Vec<f64> = (0..nnz)
        .map(|i| ((i * 17) % 47) as f64 * 0.1 - 2.0)
        .collect();
    let rowptr = p.s.rowptr();
    let spans = RowSpans::from_rowptr(rowptr);
    let row_bounds = spans.row_bounds();
    let entry_bounds = spans.entry_bounds();
    // Pass 3's inputs: pass 1's F and d, pass 2's statistics of g.
    let fv: Vec<f64> = (0..nnz).map(|i| ((i * 7) % 3) as f64).collect();
    let d: Vec<f64> = (0..m).map(|i| ((i * 11) % 13) as f64 * 0.5).collect();
    let mut row_stats = vec![(0.0, 0.0, 0usize); p.l.num_left()];
    let mut col_stats = vec![(0.0, 0.0, 0usize); p.l.num_right()];
    vertex_stats_into(&p.l, &g, &g, &mut row_stats, &mut col_stats, 1000);
    // perfbench's `bp-ontology` instance.
    let ontology = StandIn::LcshWiki.generate(0.00065, 1).problem;

    let mut group = c.benchmark_group("bp-steps");
    group.sample_size(20);

    for &threads in &bench_pools() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build rayon pool");

        // Pass 1: F (transpose read through the value permutation +
        // clamp) and its row sums d in one sweep over the precomputed
        // span decomposition.
        group.bench_function(BenchmarkId::new("compute-f+d (pass 1)", threads), |b| {
            let perm = p.s.transpose_perm().as_slice();
            let w = p.l.weights();
            let mut fv = vec![0.0; nnz];
            let mut d = vec![0.0; m];
            pool.install(|| {
                b.iter(|| {
                    rayon::par_uneven_chunks_mut(&mut fv, entry_bounds)
                        .zip(rayon::par_uneven_chunks_mut(&mut d, row_bounds))
                        .enumerate()
                        .for_each(|(gi, (fv_chunk, d_chunk))| {
                            let rows = row_bounds[gi]..row_bounds[gi + 1];
                            let base = entry_bounds[gi];
                            for (de, e) in d_chunk.iter_mut().zip(rows) {
                                let mut acc = 0.0;
                                for idx in rowptr[e]..rowptr[e + 1] {
                                    let f = (2.0 + sk[perm[idx]]).clamp(0.0, 2.0);
                                    fv_chunk[idx - base] = f;
                                    acc += f;
                                }
                                *de = w[e] + acc;
                            }
                        });
                    black_box((&fv, &d));
                })
            })
        });

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

        // Pass 3: per edge, othermax from the statistics, y, z and the
        // row scale, damping, the damped S row, and the finite count.
        group.bench_function(BenchmarkId::new("update (pass 3)", threads), |b| {
            let gk = 0.9;
            let mut y_next = vec![0.0; m];
            let mut z_next = vec![0.0; m];
            let mut sk_next = vec![0.0; nnz];
            pool.install(|| {
                b.iter(|| {
                    let bad: u64 = rayon::par_uneven_chunks_mut(&mut sk_next, entry_bounds)
                        .zip(rayon::par_uneven_chunks_mut(&mut y_next, row_bounds))
                        .zip(rayon::par_uneven_chunks_mut(&mut z_next, row_bounds))
                        .enumerate()
                        .map(|(gi, ((sk_chunk, y_chunk), z_chunk))| {
                            let (base, row0) = (entry_bounds[gi], row_bounds[gi]);
                            let mut bad = 0u64;
                            for e in row0..row_bounds[gi + 1] {
                                let (a, bv) = p.l.endpoints(e);
                                let omr =
                                    othermax(row_stats[a as usize], e - p.l.left_range(a).start);
                                let omc = othermax(col_stats[bv as usize], col_pos[e] as usize);
                                let (y, z) = (d[e] - omc, d[e] - omr);
                                let scale = y + z - d[e];
                                y_chunk[e - row0] = gk * y + (1.0 - gk) * g[e];
                                z_chunk[e - row0] = gk * z + (1.0 - gk) * g[e];
                                for idx in rowptr[e]..rowptr[e + 1] {
                                    let v = gk * (scale - fv[idx]) + (1.0 - gk) * sk[idx];
                                    sk_chunk[idx - base] = v;
                                    bad += u64::from(!v.is_finite());
                                }
                            }
                            bad
                        })
                        .sum();
                    black_box((bad, &y_next, &z_next, &sk_next));
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
