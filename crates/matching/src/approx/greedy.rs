//! Global greedy ½-approximate matching.
//!
//! Sort the positive-weight edges by the total edge order and take each
//! edge whose endpoints are both still free. The result is exactly the
//! (unique) locally-dominant matching, so this doubles as the reference
//! implementation for the pointer-based algorithms.
//!
//! The keys are packed `u128`s: `w.to_bits()`, then the unified right
//! id `na + b`, then `a`. Positive `f64`s (subnormals and `+∞`
//! included) order like their bit patterns and `na + b > a`, so the
//! keys order exactly as [`crate::order::edge_key`] does; the
//! `w > 0.0` filter drops `±0`, negatives and NaN first.
//!
//! [`GreedyScratch::run`] does not sort every key. A matching holds at
//! most `min(|V_A|, |V_B|)` edges, and on BP's iterates only 10–16% of
//! the positive keys end up matched, so it works in blocks: it moves
//! the top block of the live keys, first `min(|V_A|, |V_B|)` of them,
//! to their end (`select_nth_unstable`), sorts and scans only that
//! block, then keeps the remaining keys whose endpoints are both still
//! free, and repeats until no key is left. Every remaining key ranks
//! below every scanned one, so the scanned blocks are a prefix of the
//! full descending order, and a dropped key would have been skipped
//! when the full scan reached it. So the result is the same unique
//! matching as one full sort and scan. The block doubles each round,
//! so a key order that matches little per block still ends in
//! `O(log(|E_L|))` rounds of linear work.

use crate::matching::{Matching, UNMATCHED};
use netalign_graph::{BipartiteGraph, VertexId};

/// Greedy maximum-weight matching: ½-approximate in weight and
/// cardinality.
pub fn greedy_matching(l: &BipartiteGraph, weights: &[f64]) -> Matching {
    let mut scratch = GreedyScratch::new(l);
    scratch.run(l, weights);
    scratch.out
}

/// Reusable buffers for repeated [`GreedyScratch::run`] calls over one
/// graph: the packed sort keys (16 B per candidate edge) and the output
/// matching. Selections and sorts of key blocks, no steady-state
/// allocation — the cheap sequential path for callers that
/// already know the matching is pool-invariant (greedy ≡
/// locally-dominant on the strict total order), such as the greedy
/// [`crate::MatcherEngine`] and the delta-replay stage rematcher.
pub struct GreedyScratch {
    keys: Vec<u128>,
    /// The matching produced by the last [`Self::run`].
    pub out: Matching,
}

impl GreedyScratch {
    /// Preallocate for `l`. Panics if its unified vertex ids overflow
    /// `u32`.
    pub fn new(l: &BipartiteGraph) -> Self {
        assert!(
            l.num_left() + l.num_right() <= u32::MAX as usize,
            "greedy keys pack unified vertex ids into 32 bits"
        );
        Self {
            keys: Vec::with_capacity(l.num_edges()),
            out: Matching::empty(l.num_left(), l.num_right()),
        }
    }

    /// Compute the greedy matching of `weights` into [`Self::out`] and
    /// return it: blockwise, as the module docs describe.
    pub fn run(&mut self, l: &BipartiteGraph, weights: &[f64]) -> &Matching {
        assert_eq!(weights.len(), l.num_edges());
        let na = l.num_left() as VertexId;
        self.keys.clear();
        self.keys.extend(
            l.edge_iter()
                .filter(|&(_, _, e)| weights[e] > 0.0)
                .map(|(a, b, e)| {
                    (u128::from(weights[e].to_bits()) << 64)
                        | (u128::from(na + b) << 32)
                        | u128::from(a)
                }),
        );
        self.out.clear();
        let (keys, out) = (&mut self.keys, &mut self.out);
        let endpoints = |key: u128| (key as VertexId, (key >> 32) as VertexId - na);
        let free = |out: &Matching, (a, b): (VertexId, VertexId)| {
            (out.left_mates()[a as usize] == UNMATCHED)
                & (out.right_mates()[b as usize] == UNMATCHED)
        };
        let mut block = l.num_left().min(l.num_right()).max(1);
        let mut live = keys.len();
        while live > 0 {
            // keys[rest..live] become the top block, in key order.
            let rest = live.saturating_sub(block);
            if rest > 0 {
                keys[..live].select_nth_unstable(rest);
            }
            keys[rest..live].sort_unstable();
            for &key in keys[rest..live].iter().rev() {
                let (a, b) = endpoints(key);
                if free(out, (a, b)) {
                    out.add_pair(a, b);
                }
            }
            // Keep the unscanned keys whose endpoints are both free,
            // without a branch per key.
            live = 0;
            for i in 0..rest {
                let key = keys[i];
                keys[live] = key;
                live += usize::from(free(out, endpoints(key)));
            }
            block *= 2;
        }
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ssp::max_weight_matching_ssp;

    #[test]
    fn takes_heaviest_first() {
        let l = BipartiteGraph::from_entries(2, 2, vec![(0, 0, 2.0), (0, 1, 3.0), (1, 1, 2.0)]);
        let m = greedy_matching(&l, l.weights());
        // Greedy grabs (0,1)=3 and then (1,?) has only b1, taken → card 1.
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.weight_in(&l), 3.0);
    }

    #[test]
    fn is_half_approximation_on_randoms() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        for _ in 0..30 {
            let na = rng.gen_range(2..10);
            let nb = rng.gen_range(2..10);
            let mut entries = Vec::new();
            for a in 0..na {
                for b in 0..nb {
                    if rng.gen_bool(0.4) {
                        entries.push((a as u32, b as u32, rng.gen_range(0.1..5.0)));
                    }
                }
            }
            let l = BipartiteGraph::from_entries(na, nb, entries);
            let m = greedy_matching(&l, l.weights());
            assert!(m.is_valid(&l));
            assert!(m.is_maximal(&l, l.weights()));
            let (opt, _) = max_weight_matching_ssp(&l, l.weights());
            assert!(
                m.weight_in(&l) * 2.0 >= opt.weight_in(&l) - 1e-9,
                "greedy below half of optimal"
            );
        }
    }

    #[test]
    fn skips_non_positive_edges() {
        let l = BipartiteGraph::from_entries(2, 2, vec![(0, 0, 0.0), (1, 1, -1.0), (0, 1, 1.0)]);
        let m = greedy_matching(&l, l.weights());
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.mate_of_left(0), Some(1));
    }

    #[test]
    fn deterministic_tie_breaking() {
        // All weights equal: the order key decides. Unified ids: right b
        // becomes na+b = 2+b. Keys (max,min): (0,1)->(3,0), (1,0)->(2,1),
        // (1,1)->(3,1), (0,0)->(2,0). Descending: (1,1), (0,1), (1,0), (0,0).
        let l = BipartiteGraph::from_entries(
            2,
            2,
            vec![(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)],
        );
        let m = greedy_matching(&l, l.weights());
        assert_eq!(m.mate_of_left(1), Some(1));
        assert_eq!(m.mate_of_left(0), Some(0));
    }
}
