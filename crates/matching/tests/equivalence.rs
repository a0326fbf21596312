//! Cross-implementation equivalence under pool sweeps.
//!
//! The locally-dominant matching is unique under the crate's total edge
//! order, so three independent implementations — the sequential
//! greedy, serial LD and the paper's queue-based parallel LD — must
//! return bit-identical results at every thread count, and that result
//! must pass the greedy certificate. Property tests drive random graphs
//! (zero and negative weights included) through all three, plus the
//! preallocated LD and greedy engines reused over weight sequences, at
//! pools {1, 2, 4, 8}.

use netalign_graph::BipartiteGraph;
use netalign_matching::approx::{
    parallel_local_dominant, serial_local_dominant, ParallelLdOptions,
};
use netalign_matching::order::certifies_greedy;
use netalign_matching::{
    greedy_matching, GreedyScratch, MatcherCounters, MatcherEngine, MatcherKind, Matching,
};
use proptest::prelude::*;

const POOLS: [usize; 4] = [1, 2, 4, 8];

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

/// Random bipartite instance with weights spanning negative, zero and
/// tied positive values — the edge cases of the "only positive edges
/// match" rule.
fn arb_instance() -> impl Strategy<Value = BipartiteGraph> {
    (2usize..14, 2usize..14).prop_flat_map(|(na, nb)| {
        let max_edges = na * nb;
        proptest::collection::vec(
            // (endpoint, endpoint, weight-class selector, raw weight):
            // the selector mixes positives with zeros, negatives and
            // small-integer ties.
            (0..na as u32, 0..nb as u32, 0u32..6, 0.1f64..5.0),
            0..max_edges.min(60),
        )
        .prop_map(move |raw| {
            let mut entries: Vec<(u32, u32, f64)> = raw
                .into_iter()
                .map(|(a, b, class, w)| {
                    let w = match class {
                        0 => 0.0,
                        1 => -w,
                        2 => w.ceil(), // ties on 1.0..=5.0
                        _ => w,
                    };
                    (a, b, w)
                })
                .collect();
            entries.sort_by_key(|&(a, b, _)| (a, b));
            entries.dedup_by_key(|&mut (a, b, _)| (a, b));
            BipartiteGraph::from_entries(na, nb, entries)
        })
    })
}

/// A short sequence of weight vectors derived from the graph's own by
/// sparse perturbations — what a converging aligner feeds the matcher.
fn arb_instance_and_sequence() -> impl Strategy<Value = (BipartiteGraph, Vec<Vec<f64>>)> {
    arb_instance().prop_flat_map(|l| {
        let m = l.num_edges();
        let base: Vec<f64> = l.weights().to_vec();
        proptest::collection::vec(
            proptest::collection::vec((0..m.max(1), -2.0f64..2.0), 0..(m / 2 + 1)),
            1..5,
        )
        .prop_map(move |steps| {
            let mut w = base.clone();
            let mut seq = vec![w.clone()];
            for step in steps {
                for (e, delta) in step {
                    if e < w.len() {
                        w[e] += delta;
                    }
                }
                seq.push(w.clone());
            }
            (l.clone(), seq)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// sequential greedy ≡ greedy engine ≡ serial LD ≡ parallel LD, at
    /// every pool size, and the result certifies. The greedy leg is
    /// what licenses the delta replay's cheap stage rematcher: a sort
    /// plus one linear pass reproduces the pool-invariant matching.
    #[test]
    fn greedy_and_ld_agree_across_pools(l in arb_instance()) {
        let reference = serial_local_dominant(&l, l.weights());
        prop_assert!(certifies_greedy(&l, l.weights(), &reference));
        prop_assert_eq!(&greedy_matching(&l, l.weights()), &reference);
        let mut scratch = GreedyScratch::new(&l);
        prop_assert_eq!(scratch.run(&l, l.weights()), &reference);
        for threads in POOLS {
            let (pld, gr) = pool(threads).install(|| {
                (
                    parallel_local_dominant(&l, l.weights(), ParallelLdOptions::default()),
                    MatcherEngine::new(&l, MatcherKind::Greedy)
                        .run(&l, l.weights(), MatcherCounters::disabled())
                        .clone(),
                )
            });
            prop_assert_eq!(&pld, &reference, "parallel LD at {} threads", threads);
            prop_assert_eq!(&gr, &reference, "greedy engine at {} threads", threads);
        }
    }

    /// One engine per kind, reused over a weight sequence, is
    /// bit-identical to the serial oracle at every pool size.
    #[test]
    fn engine_equals_oracle_across_pools((l, seq) in arb_instance_and_sequence()) {
        // Serial oracle per step, computed once.
        let oracle: Vec<Matching> =
            seq.iter().map(|w| serial_local_dominant(&l, w)).collect();
        for kind in [MatcherKind::ParallelLocalDominant, MatcherKind::Greedy] {
            for threads in POOLS {
                pool(threads).install(|| {
                    let mut eng = MatcherEngine::new(&l, kind);
                    let c = MatcherCounters::disabled();
                    for (step, w) in seq.iter().enumerate() {
                        let got = eng.run(&l, w, c).clone();
                        prop_assert_eq!(
                            &got, &oracle[step],
                            "{:?} at {} threads, step {}", kind, threads, step
                        );
                    }
                });
            }
        }
    }
}
