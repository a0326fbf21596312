//! Bit-identical results across worker-pool sizes.
//!
//! The runtime's determinism contract: parallel regions decompose into
//! chunks as a function of the data size only (never the pool size),
//! and reductions combine chunk results in chunk order — so float
//! round-off is the same whether 1 or 8 workers ran the region, and
//! both aligners produce bit-identical objectives, matchings and
//! histories at every pool size.

use netalign_core::prelude::*;
use netalign_graph::generators::{add_random_edges, identity_plus_noise_l, power_law_graph};

fn problem() -> NetAlignProblem {
    let g = power_law_graph(70, 2.4, 12, 31);
    let a = add_random_edges(&g, 0.03, 32);
    let b = add_random_edges(&g, 0.03, 33);
    let l = identity_plus_noise_l(70, 70, 5.0 / 70.0, 1.0, 1.0, 34);
    NetAlignProblem::new(a, b, l)
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

fn assert_same(base: &AlignmentResult, r: &AlignmentResult, threads: usize) {
    assert_eq!(
        base.objective.to_bits(),
        r.objective.to_bits(),
        "objective differs at pool size {threads}"
    );
    assert_eq!(
        base.matching, r.matching,
        "matching differs at pool size {threads}"
    );
    assert_eq!(
        base.best_iteration, r.best_iteration,
        "best iteration differs at pool size {threads}"
    );
    assert_eq!(base.history.len(), r.history.len());
    for (a, b) in base.history.iter().zip(&r.history) {
        assert_eq!(
            a.objective.to_bits(),
            b.objective.to_bits(),
            "history objective differs at pool size {threads}, iteration {}",
            a.iteration
        );
        assert_eq!(
            a.upper_bound.map(f64::to_bits),
            b.upper_bound.map(f64::to_bits),
            "history upper bound differs at pool size {threads}, iteration {}",
            a.iteration
        );
    }
}

#[test]
fn bp_is_bit_identical_across_pool_sizes() {
    let p = problem();
    let cfg = AlignConfig {
        iterations: 20,
        batch: 4,
        record_history: true,
        ..Default::default()
    };
    let base = pool(1).install(|| belief_propagation(&p, &cfg));
    for threads in [2, 4, 8] {
        let r = pool(threads).install(|| belief_propagation(&p, &cfg));
        assert_same(&base, &r, threads);
    }
}

/// Greedy rounding (the preallocated sequential matcher) holds the
/// same contract: it computes the unique locally-dominant matching, so
/// every pool size produces the same bits.
#[test]
fn bp_engine_rounding_is_bit_identical_across_pool_sizes() {
    let p = problem();
    let cfg = AlignConfig {
        iterations: 20,
        batch: 4,
        matcher: MatcherKind::Greedy,
        record_history: true,
        ..Default::default()
    };
    let base = pool(1).install(|| belief_propagation(&p, &cfg));
    for threads in [2, 4, 8] {
        let r = pool(threads).install(|| belief_propagation(&p, &cfg));
        assert_same(&base, &r, threads);
    }
}

#[test]
fn mr_engine_rounding_is_bit_identical_across_pool_sizes() {
    let p = problem();
    let cfg = AlignConfig {
        iterations: 20,
        matcher: MatcherKind::ParallelLocalDominant,
        enriched_rounding: true,
        record_history: true,
        ..Default::default()
    };
    let base = pool(1).install(|| matching_relaxation(&p, &cfg));
    for threads in [2, 4, 8] {
        let r = pool(threads).install(|| matching_relaxation(&p, &cfg));
        assert_same(&base, &r, threads);
        assert_eq!(
            base.upper_bound.map(f64::to_bits),
            r.upper_bound.map(f64::to_bits),
            "MR upper bound differs at pool size {threads}"
        );
    }
}

#[test]
fn mr_is_bit_identical_across_pool_sizes() {
    let p = problem();
    let cfg = AlignConfig {
        iterations: 20,
        record_history: true,
        ..Default::default()
    };
    let base = pool(1).install(|| matching_relaxation(&p, &cfg));
    for threads in [2, 4, 8] {
        let r = pool(threads).install(|| matching_relaxation(&p, &cfg));
        assert_same(&base, &r, threads);
        assert_eq!(
            base.upper_bound.map(f64::to_bits),
            r.upper_bound.map(f64::to_bits),
            "MR upper bound differs at pool size {threads}"
        );
    }
}
