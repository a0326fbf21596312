//! Matcher comparison: exact SSP vs the ½-approximations on a
//! realistic rounding workload (the dmela-scere stand-in's `w`).
//!
//! Supports the Figure 4/6 interpretation: the matching step is the
//! dominant per-iteration cost, and the locally-dominant approximation
//! is the `O(|E_L|)` replacement for the `O(|E_L|·N log N)` exact
//! matcher.
//!
//! The `rounding-iterates` group rounds what BP's rounding step
//! actually sees: the staged y and z vectors of a 50-iteration BP run
//! on the lcsh-wiki stand-in at scale 0.00065, seed 1 (the
//! `bp-ontology` instance), most of whose entries are not positive.
//! Each function rounds all 100 vectors per sample. `greedy` and
//! `ld-parallel` time the matcher alone; `lane-greedy` is a rounding
//! lane's whole work per vector, the greedy matching and its objective
//! evaluation, as BP's `RoundingLane::round` does it. The vectors must
//! be distinct: a kernel looped on one vector trains the branch
//! predictor on that vector's comparisons, and on BP's iterates those
//! data-dependent branches, not memory, set the cost of both the
//! matcher and the passes (a pass kernel ran 2.5–5× faster looped on
//! one iterate than on the stream). The group sweeps
//! `NETALIGN_BENCH_POOLS` (default 1,4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netalign_bench::bench_pools;
use netalign_core::bp::BpEngine;
use netalign_core::config::AlignConfig;
use netalign_core::objective::{evaluate_matching_with_scratch, EvalScratch};
use netalign_data::standins::StandIn;
use netalign_data::synthetic::{power_law_alignment, PowerLawParams};
use netalign_matching::{max_weight_matching, MatcherCounters, MatcherEngine, MatcherKind};
use std::hint::black_box;

fn bench_matchers(c: &mut Criterion) {
    let inst = StandIn::DmelaScere.generate(0.25, 7);
    let l = &inst.problem.l;
    let w = l.weights();
    let mut group = c.benchmark_group("matching");
    group.sample_size(10);
    for kind in [
        MatcherKind::Exact,
        MatcherKind::Greedy,
        MatcherKind::LocalDominant,
        MatcherKind::ParallelLocalDominant,
        MatcherKind::ParallelLocalDominantOneSide,
        MatcherKind::PathGrowing,
        MatcherKind::Auction { eps_rel: 1e-3 },
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| b.iter(|| black_box(max_weight_matching(l, w, kind))),
        );
    }
    group.finish();
}

/// The matcher engine on a power-law instance: its two preallocated
/// kinds, queue-based parallel LD and sequential greedy, over a weight
/// sequence. The one-shot `ParallelLocalDominant` (fresh allocations
/// every call) is the baseline.
fn bench_engine_vs_one_shot(c: &mut Criterion) {
    let inst = power_law_alignment(&PowerLawParams {
        n: 4000,
        expected_degree: 8.0,
        seed: 7,
        ..Default::default()
    });
    let l = inst.problem.l.clone();
    let m = l.num_edges();
    // A sequence of rounding inputs, a few entries drifting per step.
    let steps = 10usize;
    let mut seq: Vec<Vec<f64>> = Vec::with_capacity(steps);
    let mut w = l.weights().to_vec();
    for s in 0..steps {
        for j in 0..8 {
            let e = (s * 7919 + j * 104729) % m;
            w[e] += 0.001 * (1.0 + (s + j) as f64 * 0.1);
        }
        seq.push(w.clone());
    }

    let mut group = c.benchmark_group("matcher-engine");
    group.sample_size(10);
    group.bench_function("one-shot-ld-parallel", |b| {
        b.iter(|| {
            for w in &seq {
                black_box(max_weight_matching(
                    &l,
                    w,
                    MatcherKind::ParallelLocalDominant,
                ));
            }
        })
    });
    for kind in [MatcherKind::ParallelLocalDominant, MatcherKind::Greedy] {
        group.bench_function(format!("engine-{}", kind.name()), |b| {
            let mut eng = MatcherEngine::new(&l, kind);
            let counters = MatcherCounters::disabled();
            b.iter(|| {
                for w in &seq {
                    black_box(eng.run(&l, w, counters));
                }
            })
        });
    }
    group.finish();
}

fn bench_matching_scaling_with_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching-size");
    group.sample_size(10);
    for scale in [0.05, 0.1, 0.2] {
        let inst = StandIn::DmelaScere.generate(scale, 7);
        let l = inst.problem.l.clone();
        let edges = l.num_edges();
        group.bench_with_input(BenchmarkId::new("ld-parallel", edges), &l, |b, l| {
            b.iter(|| {
                black_box(max_weight_matching(
                    l,
                    l.weights(),
                    MatcherKind::ParallelLocalDominant,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("exact", edges), &l, |b, l| {
            b.iter(|| black_box(max_weight_matching(l, l.weights(), MatcherKind::Exact)))
        });
    }
    group.finish();
}

/// The staged y and z vectors of a 50-iteration BP run on the
/// `bp-ontology` instance, in staging order, unrounded.
fn staged_bp_iterates(p: &netalign_core::problem::NetAlignProblem) -> Vec<Vec<f64>> {
    let cfg = AlignConfig {
        iterations: 50,
        ..AlignConfig::default()
    };
    let mut engine = BpEngine::new(p, &cfg);
    let mut staged = Vec::with_capacity(2 * cfg.iterations);
    for _ in 0..cfg.iterations {
        engine.step();
        let state = engine.checkpoint_state();
        staged.push(state.y);
        staged.push(state.z);
        engine.discard_pending();
        engine.end_iteration();
    }
    staged
}

fn bench_rounding_iterates(c: &mut Criterion) {
    let inst = StandIn::LcshWiki.generate(0.00065, 1);
    let l = &inst.problem.l;
    let staged = staged_bp_iterates(&inst.problem);
    for (side, first) in [("y", 0), ("z", 1)] {
        let mut positive: Vec<usize> = staged[first..]
            .iter()
            .step_by(2)
            .map(|g| g.iter().filter(|&&x| x > 0.0).count())
            .collect();
        positive.sort_unstable();
        eprintln!(
            "rounding-iterates: median {} of {} {side} entries positive",
            positive[positive.len() / 2],
            l.num_edges()
        );
    }
    let mut group = c.benchmark_group("rounding-iterates");
    group.sample_size(10);
    for threads in bench_pools() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        for kind in [MatcherKind::Greedy, MatcherKind::ParallelLocalDominant] {
            group.bench_function(BenchmarkId::new(kind.name(), threads), |b| {
                let mut eng = MatcherEngine::new(l, kind);
                let counters = MatcherCounters::disabled();
                pool.install(|| {
                    b.iter(|| {
                        for g in &staged {
                            black_box(eng.run(l, g, counters));
                        }
                    })
                })
            });
        }
        group.bench_function(BenchmarkId::new("lane-greedy", threads), |b| {
            let mut eng = MatcherEngine::new(l, MatcherKind::Greedy);
            let mut eval = EvalScratch::new(l);
            let counters = MatcherCounters::disabled();
            let cfg = AlignConfig::default();
            pool.install(|| {
                b.iter(|| {
                    for g in &staged {
                        let m = eng.run(l, g, counters);
                        black_box(evaluate_matching_with_scratch(
                            &inst.problem,
                            m,
                            cfg.alpha,
                            cfg.beta,
                            &mut eval,
                        ));
                    }
                })
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matchers,
    bench_engine_vs_one_shot,
    bench_matching_scaling_with_size,
    bench_rounding_iterates
);
criterion_main!(benches);
