//! An oracle for the packed-key greedy kernel.
//!
//! [`reference_greedy`] is the comparator-sort greedy the packed `u128`
//! keys replaced: it sorts edge ids with `f64::total_cmp` on the weight
//! and then compares the unified endpoint ids of
//! [`netalign_matching::order::edge_key`]. The tests feed both kernels
//! weights drawn from a palette of the values where a bit-pattern
//! order could go wrong — ties, `0.0`, `-0.0`, negatives, the smallest
//! positive subnormal, `f64::MAX`, `+∞` and NaN — and require the
//! greedy engine and `greedy_matching` to equal the reference and pass
//! the greedy certificate. One sparse instance has more than 2¹⁶
//! vertices per side, so vertex ids need more than 16 bits of the key.

use netalign_graph::BipartiteGraph;
use netalign_matching::order::{certifies_greedy, edge_key};
use netalign_matching::{
    greedy_matching, GreedyScratch, MatcherCounters, MatcherEngine, MatcherKind, Matching,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Greedy by a comparator sort on [`edge_key`]: the positive edges in
/// descending key order, each taken when both endpoints are free.
fn reference_greedy(l: &BipartiteGraph, weights: &[f64]) -> Matching {
    let na = l.num_left();
    let mut order: Vec<usize> = (0..l.num_edges()).filter(|&e| weights[e] > 0.0).collect();
    order.sort_unstable_by(|&e1, &e2| {
        let (a1, b1) = l.endpoints(e1);
        let (a2, b2) = l.endpoints(e2);
        let k1 = edge_key(weights[e1], a1, b1, na);
        let k2 = edge_key(weights[e2], a2, b2, na);
        // Descending.
        k2.0.total_cmp(&k1.0)
            .then_with(|| (k2.1, k2.2).cmp(&(k1.1, k1.2)))
    });
    let mut out = Matching::empty(na, l.num_right());
    for e in order {
        let (a, b) = l.endpoints(e);
        if out.mate_of_left(a).is_none() && out.mate_of_right(b).is_none() {
            out.add_pair(a, b);
        }
    }
    out
}

/// The values a packed key has to order (or drop) correctly, ties
/// included by repetition.
const PALETTE: [f64; 12] = [
    1.0,
    1.0,
    2.5,
    0.0,
    -0.0,
    -1.0,
    -f64::MAX,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::INFINITY,
    f64::NAN,
    f64::NEG_INFINITY,
];

/// The smallest positive subnormal, `2⁻¹⁰⁷⁴`.
fn smallest_subnormal() -> f64 {
    f64::from_bits(1)
}

/// A random weight: a palette value, the smallest subnormal, or a
/// random positive value that may tie with another edge's.
fn palette_weight(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0..16) {
        i @ 0..=11 => PALETTE[i],
        12 => smallest_subnormal(),
        13 => rng.gen_range(1..4) as f64 * 0.25,
        _ => rng.gen_range(0.1..5.0),
    }
}

/// A random graph with `edges` candidate edges (duplicates merged) and
/// unit weights; the tests pass their palette weights separately, since
/// a graph's own weights must be finite.
fn random_l(rng: &mut ChaCha8Rng, na: usize, nb: usize, edges: usize) -> BipartiteGraph {
    let entries: Vec<(u32, u32, f64)> = (0..edges)
        .map(|_| {
            (
                rng.gen_range(0..na) as u32,
                rng.gen_range(0..nb) as u32,
                1.0,
            )
        })
        .collect();
    BipartiteGraph::from_entries(na, nb, entries)
}

/// Check every greedy entry point against the reference on `w`.
fn check(l: &BipartiteGraph, w: &[f64], engine: &mut MatcherEngine, label: &str) {
    let reference = reference_greedy(l, w);
    assert!(certifies_greedy(l, w, &reference), "reference: {label}");
    let got = greedy_matching(l, w);
    assert_eq!(got, reference, "greedy_matching: {label}");
    assert!(certifies_greedy(l, w, &got), "greedy_matching: {label}");
    let got = engine.run(l, w, MatcherCounters::disabled());
    assert_eq!(*got, reference, "greedy engine: {label}");
    assert!(certifies_greedy(l, w, got), "greedy engine: {label}");
}

#[test]
fn packed_greedy_equals_the_comparator_sort_on_palette_weights() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9e37);
    for case in 0..200 {
        let (na, nb) = (rng.gen_range(1..24), rng.gen_range(1..24));
        let edges = rng.gen_range(0..na * nb + 1);
        let l = random_l(&mut rng, na, nb, edges);
        // One engine per graph, reused over several weight vectors.
        let mut engine = MatcherEngine::new(&l, MatcherKind::Greedy);
        for step in 0..4 {
            let w: Vec<f64> = (0..l.num_edges())
                .map(|_| palette_weight(&mut rng))
                .collect();
            check(&l, &w, &mut engine, &format!("case {case} step {step}"));
        }
    }
}

#[test]
fn packed_greedy_orders_ties_by_unified_ids() {
    // Every edge ties, so the vertex ids alone decide: a key that
    // breaks a tie toward the smaller id picks a different matching on
    // most of these. Swapping the two id fields would not: two adjacent
    // edges share an endpoint, so either field order compares them by
    // the other endpoint and greedy takes the same matching.
    let mut rng = ChaCha8Rng::seed_from_u64(0x51ed);
    for case in 0..50 {
        let (na, nb) = (rng.gen_range(2..30), rng.gen_range(2..30));
        let l = random_l(&mut rng, na, nb, na * nb / 2);
        let mut engine = MatcherEngine::new(&l, MatcherKind::Greedy);
        let w = vec![1.0; l.num_edges()];
        check(&l, &w, &mut engine, &format!("all-tie case {case}"));
    }
}

#[test]
fn packed_greedy_handles_vertex_ids_beyond_sixteen_bits() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1d5);
    let (na, nb) = (70_001, 66_537);
    let l = random_l(&mut rng, na, nb, 120_000);
    assert!(na > 1 << 16 && nb > 1 << 16);
    let mut engine = MatcherEngine::new(&l, MatcherKind::Greedy);
    // Palette weights, then heavy ties among a few values, so the id
    // fields decide most comparisons.
    let w: Vec<f64> = (0..l.num_edges())
        .map(|_| palette_weight(&mut rng))
        .collect();
    check(&l, &w, &mut engine, "large palette");
    let w: Vec<f64> = (0..l.num_edges())
        .map(|_| rng.gen_range(1..4) as f64)
        .collect();
    check(&l, &w, &mut engine, "large ties");
    let mut scratch = GreedyScratch::new(&l);
    assert_eq!(*scratch.run(&l, &w), reference_greedy(&l, &w));
}
