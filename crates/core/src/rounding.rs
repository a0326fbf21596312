//! `round_heuristic` (paper Table I): convert a real-valued heuristic
//! vector over `E_L` into a matching via maximum-weight bipartite
//! matching, then evaluate the alignment objective.
//!
//! The rounding step is where the exact vs approximate matching
//! substitution — the paper's central experiment — happens: every
//! rounding call takes a [`MatcherKind`]. The aligners' per-iterate
//! rounding goes through a [`netalign_matching::MatcherEngine`] of the
//! same kind; this one-shot helper serves the baselines and the final
//! exact round.

use crate::objective::{evaluate_matching, ObjectiveValue};
use crate::problem::NetAlignProblem;
use netalign_matching::{max_weight_matching, MatcherKind, Matching};

/// A rounded heuristic: the matching plus its evaluated objective.
#[derive(Clone, Debug)]
pub struct RoundedSolution {
    /// The matching produced from the heuristic weights.
    pub matching: Matching,
    /// Objective components under the problem's `w`, `S`.
    pub value: ObjectiveValue,
}

/// Round one heuristic vector `g` to a matching with the chosen
/// matcher and evaluate `α wᵀx + (β/2) xᵀSx`.
///
/// ```
/// use netalign_core::{NetAlignProblem, rounding::round_heuristic};
/// use netalign_graph::{Graph, BipartiteGraph};
/// use netalign_matching::MatcherKind;
///
/// let a = Graph::from_edges(2, vec![(0, 1)]);
/// let b = Graph::from_edges(2, vec![(0, 1)]);
/// let l = BipartiteGraph::from_entries(2, 2, vec![
///     (0, 0, 1.0), (1, 1, 1.0),
/// ]);
/// let p = NetAlignProblem::new(a, b, l);
/// let g = vec![1.0, 1.0]; // heuristic weights over E_L
/// let r = round_heuristic(&p, &g, 1.0, 2.0, MatcherKind::Exact);
/// assert_eq!(r.value.overlap, 1.0); // the matched pair overlaps (0,1)
/// assert_eq!(r.value.total, 2.0 + 2.0);
/// ```
pub fn round_heuristic(
    p: &NetAlignProblem,
    g: &[f64],
    alpha: f64,
    beta: f64,
    matcher: MatcherKind,
) -> RoundedSolution {
    assert_eq!(
        g.len(),
        p.l.num_edges(),
        "heuristic length must equal |E_L|"
    );
    let matching = max_weight_matching(&p.l, g, matcher);
    let value = evaluate_matching(p, &matching, alpha, beta);
    RoundedSolution { matching, value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netalign_graph::{BipartiteGraph, Graph};

    fn problem() -> NetAlignProblem {
        let a = Graph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        let b = Graph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        let l = BipartiteGraph::from_entries(
            3,
            3,
            vec![(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (0, 1, 5.0)],
        );
        NetAlignProblem::new(a, b, l)
    }

    #[test]
    fn rounding_follows_heuristic_not_w() {
        let p = problem();
        // Heuristic favouring the identity despite (0,1) having w=5.
        let mut g = vec![0.0; 4];
        for i in 0..3 {
            g[p.l.edge_id(i, i).unwrap()] = 10.0;
        }
        let r = round_heuristic(&p, &g, 1.0, 2.0, MatcherKind::Exact);
        assert_eq!(r.matching.cardinality(), 3);
        assert_eq!(r.value.overlap, 3.0);
    }

    #[test]
    fn exact_and_approx_agree_on_clear_cut_heuristics() {
        let p = problem();
        let mut g = vec![0.0; 4];
        for i in 0..3 {
            g[p.l.edge_id(i, i).unwrap()] = 1.0 + i as f64;
        }
        let exact = round_heuristic(&p, &g, 1.0, 2.0, MatcherKind::Exact);
        let approx = round_heuristic(&p, &g, 1.0, 2.0, MatcherKind::ParallelLocalDominant);
        assert_eq!(exact.matching, approx.matching);
    }

    #[test]
    #[should_panic(expected = "heuristic length")]
    fn wrong_length_panics() {
        let p = problem();
        let _ = round_heuristic(&p, &[1.0], 1.0, 2.0, MatcherKind::Exact);
    }
}
