//! Objective evaluation: `α wᵀx + (β/2) xᵀSx`.
//!
//! A matching holds at most `min(|V_A|, |V_B|)` of the `|E_L|` edges,
//! and BP rounds two vectors per iteration, so
//! [`evaluate_matching_with_scratch`] keeps the matched edge ids and
//! walks only their rows of `S`: its cost follows the matching, not
//! `|E_L|`. Its caller-owned [`EvalScratch`] is sized once per problem;
//! [`evaluate_matching`] runs the same code on a scratch of its own,
//! and [`evaluate_indicator`] is the dense form over an indicator `x`.

use crate::problem::NetAlignProblem;
use netalign_graph::BipartiteGraph;
use netalign_matching::Matching;

/// The three components of an evaluated alignment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObjectiveValue {
    /// `wᵀx` — total similarity weight of the matched pairs.
    pub weight: f64,
    /// `xᵀSx / 2` — number of overlapped edges.
    pub overlap: f64,
    /// `α·weight + β·overlap`.
    pub total: f64,
}

/// Evaluate an indicator vector `x` over `E_L`.
pub fn evaluate_indicator(p: &NetAlignProblem, x: &[f64], alpha: f64, beta: f64) -> ObjectiveValue {
    assert_eq!(x.len(), p.l.num_edges());
    let weight: f64 = x.iter().zip(p.l.weights()).map(|(&xi, &wi)| xi * wi).sum();
    let overlap = p.s.quadratic_form(x) / 2.0;
    ObjectiveValue {
        weight,
        overlap,
        total: alpha * weight + beta * overlap,
    }
}

/// Evaluate a matching without materializing the indicator: see
/// [`evaluate_matching_with_scratch`], here on a scratch of its own.
pub fn evaluate_matching(
    p: &NetAlignProblem,
    m: &Matching,
    alpha: f64,
    beta: f64,
) -> ObjectiveValue {
    evaluate_matching_with_scratch(p, m, alpha, beta, &mut EvalScratch::new(&p.l))
}

/// Caller-owned scratch of [`evaluate_matching_with_scratch`], sized
/// once per problem so steady-state loops do not allocate: a mark per
/// edge of `L` and room for the matched edge ids, of which a matching
/// holds at most `min(|V_A|, |V_B|)`. Every evaluation leaves it as
/// [`EvalScratch::new`] made it.
#[derive(Debug, PartialEq)]
pub struct EvalScratch {
    marks: Vec<bool>,
    ids: Vec<usize>,
}

impl EvalScratch {
    /// An all-clear scratch for matchings in `l`.
    pub fn new(l: &BipartiteGraph) -> Self {
        EvalScratch {
            marks: vec![false; l.num_edges()],
            ids: Vec::with_capacity(l.num_left().min(l.num_right())),
        }
    }
}

/// Evaluate a matching: mark its edges and keep their ids, summing the
/// weight in matched-pair (left-vertex ascending) order, then count the
/// marked partners in the matched edges' rows of `S` only, and clear
/// what was set. The cost follows the matching and its rows of `S`,
/// not `|E_L|`; the overlap is an integer count, so the order its rows
/// are walked in changes no bit.
pub fn evaluate_matching_with_scratch(
    p: &NetAlignProblem,
    m: &Matching,
    alpha: f64,
    beta: f64,
    scratch: &mut EvalScratch,
) -> ObjectiveValue {
    let EvalScratch { marks, ids } = scratch;
    assert_eq!(marks.len(), p.l.num_edges());
    let mut weight = 0.0;
    for (a, b) in m.pairs() {
        let e = p.l.edge_id(a, b).expect("matched pair must be an L edge");
        marks[e] = true;
        ids.push(e);
        weight += p.l.weight(e);
    }
    let mut twice_overlap = 0usize;
    for &e in ids.iter() {
        for &f in p.s.row_cols(e) {
            twice_overlap += usize::from(marks[f as usize]);
        }
    }
    for &e in ids.iter() {
        marks[e] = false;
    }
    ids.clear();
    let overlap = twice_overlap as f64 / 2.0;
    ObjectiveValue {
        weight,
        overlap,
        total: alpha * weight + beta * overlap,
    }
}

/// The paper's §III.A "terrible" upper bound obtained by ignoring the
/// matching constraints entirely: `α·eᵀw + (β/2)·eᵀSe`. MR's Lagrangian
/// bound is always at least this tight; exposed for comparison and
/// sanity checks.
pub fn trivial_upper_bound(p: &NetAlignProblem, alpha: f64, beta: f64) -> f64 {
    let wsum: f64 = p.l.weights().iter().filter(|w| **w > 0.0).sum();
    alpha * wsum + beta / 2.0 * p.s.nnz() as f64
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
            vec![(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0), (0, 1, 0.5)],
        );
        NetAlignProblem::new(a, b, l)
    }

    #[test]
    fn identity_matching_value() {
        let p = problem();
        let mut m = Matching::empty(3, 3);
        for i in 0..3 {
            m.add_pair(i, i);
        }
        let v = evaluate_matching(&p, &m, 1.0, 2.0);
        assert_eq!(v.weight, 6.0);
        assert_eq!(v.overlap, 3.0);
        assert_eq!(v.total, 12.0);
    }

    #[test]
    fn indicator_and_matching_paths_agree() {
        let p = problem();
        let mut m = Matching::empty(3, 3);
        m.add_pair(0, 1);
        m.add_pair(2, 2);
        let via_m = evaluate_matching(&p, &m, 0.5, 1.5);
        let via_x = evaluate_indicator(&p, &m.indicator(&p.l), 0.5, 1.5);
        assert_eq!(via_m, via_x);
    }

    #[test]
    fn scratch_path_is_bit_identical_and_restores_marks() {
        let p = problem();
        let mut m = Matching::empty(3, 3);
        m.add_pair(0, 1);
        m.add_pair(2, 2);
        let mut scratch = EvalScratch::new(&p.l);
        for (alpha, beta) in [(1.0, 2.0), (0.3, 1.7)] {
            let plain = evaluate_matching(&p, &m, alpha, beta);
            let v = evaluate_matching_with_scratch(&p, &m, alpha, beta, &mut scratch);
            assert_eq!(plain.weight.to_bits(), v.weight.to_bits());
            assert_eq!(plain.overlap.to_bits(), v.overlap.to_bits());
            assert_eq!(plain.total.to_bits(), v.total.to_bits());
            assert_eq!(scratch, EvalScratch::new(&p.l), "scratch must be restored");
        }
    }

    #[test]
    fn trivial_bound_dominates_any_matching() {
        let p = problem();
        let bound = trivial_upper_bound(&p, 1.0, 2.0);
        let mut m = Matching::empty(3, 3);
        for i in 0..3 {
            m.add_pair(i, i);
        }
        let v = evaluate_matching(&p, &m, 1.0, 2.0);
        assert!(bound >= v.total);
        // "terrible": it is the sum of everything
        assert_eq!(bound, 6.5 + p.s.nnz() as f64);
    }

    #[test]
    fn empty_matching_is_zero() {
        let p = problem();
        let m = Matching::empty(3, 3);
        let v = evaluate_matching(&p, &m, 1.0, 1.0);
        assert_eq!(v.total, 0.0);
    }

    #[test]
    fn partial_identity_has_partial_overlap() {
        let p = problem();
        let mut m = Matching::empty(3, 3);
        m.add_pair(0, 0);
        m.add_pair(1, 1);
        // one overlapping edge pair ((0,0),(1,1)) since (0,1) in both graphs
        let v = evaluate_matching(&p, &m, 1.0, 2.0);
        assert_eq!(v.overlap, 1.0);
        assert_eq!(v.weight, 3.0);
        assert_eq!(v.total, 5.0);
    }
}
