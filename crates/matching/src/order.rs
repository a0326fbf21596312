//! The deterministic total order on weighted edges shared by every
//! approximation algorithm in this crate.
//!
//! The paper breaks weight ties with "unique vertex ids" (§V). We make
//! that precise: edges compare by weight first, then by the larger
//! endpoint id (in the *unified* id space where right vertex `b` gets id
//! `na + b`), then by the smaller endpoint id. This is a total order on
//! the edge set of any simple graph, because two distinct edges can only
//! tie on weight, never on both endpoints.
//!
//! Under a total order, the locally-dominant matching is **unique** and
//! equals the greedy matching taken in decreasing order — the property
//! the test-suite uses to cross-validate the serial and parallel
//! implementations. [`certifies_greedy`] checks that property against
//! the problem alone, sharing no code with any matcher.

use crate::matching::{Matching, UNMATCHED};
use netalign_graph::{BipartiteGraph, VertexId};

/// Comparison key of an edge: `(weight, max_unified_id, min_unified_id)`.
///
/// Larger keys dominate. `a` is a left-vertex id, `b` a right-vertex id;
/// `na` is the number of left vertices (for unifying the id spaces).
#[inline]
pub fn edge_key(w: f64, a: VertexId, b: VertexId, na: usize) -> (f64, VertexId, VertexId) {
    let ub = b + na as VertexId;
    if a > ub {
        (w, a, ub)
    } else {
        (w, ub, a)
    }
}

/// True when edge 1 strictly dominates edge 2 in the total order.
#[inline]
pub fn edge_gt(
    w1: f64,
    a1: VertexId,
    b1: VertexId,
    w2: f64,
    a2: VertexId,
    b2: VertexId,
    na: usize,
) -> bool {
    let k1 = edge_key(w1, a1, b1, na);
    let k2 = edge_key(w2, a2, b2, na);
    match k1.0.total_cmp(&k2.0) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => (k1.1, k1.2) > (k2.1, k2.2),
    }
}

/// True exactly when `m` is *the* greedy matching of `l` under the
/// weights `w` — and so the unique locally-dominant one — checked in
/// one pass over `E_L` without running any matcher:
///
/// 1. `m` is a valid matching of `l`;
/// 2. every matched edge has positive weight;
/// 3. every unmatched positive edge has a matched neighbour edge that
///    [`edge_gt`] ranks above it.
///
/// Why these suffice: if `m` differs from the greedy matching `g`, let
/// `f` be the top-ranked edge of their symmetric difference. If `f` is
/// in `g`, condition 3 gives a matched neighbour ranked above `f`;
/// `g` cannot hold it, so it lies in the difference above `f`. If `f`
/// is in `m`, it is positive, so greedy skipped it for a neighbour
/// ranked above it; `m` cannot hold that one, so again it lies in the
/// difference above `f`. Either way `f` was not the top.
pub fn certifies_greedy(l: &BipartiteGraph, w: &[f64], m: &Matching) -> bool {
    let (na, nb) = (l.num_left(), l.num_right());
    let (left, right) = (m.left_mates(), m.right_mates());
    if w.len() != l.num_edges() || left.len() != na || right.len() != nb {
        return false;
    }
    let positive = |x: f64| x > 0.0;
    // The weight of every left vertex's matched edge, `None` while the
    // pair has not been seen as an edge of `l`.
    let mut matched_w: Vec<Option<f64>> = vec![None; na];
    for (a, b, e) in l.edge_iter() {
        if left[a as usize] == b {
            matched_w[a as usize] = Some(w[e]);
        }
    }
    for (a, &b) in left.iter().enumerate() {
        if b == UNMATCHED {
            continue;
        }
        let Some(wm) = matched_w[a] else { return false };
        if right[b as usize] != a as VertexId || !positive(wm) {
            return false;
        }
    }
    for (b, &a) in right.iter().enumerate() {
        if a != UNMATCHED && left.get(a as usize) != Some(&(b as VertexId)) {
            return false;
        }
    }
    // A matched edge at `(a, b)` ranked above the candidate edge `f`.
    let above = |a: VertexId, b: VertexId, f: (f64, VertexId, VertexId)| {
        matched_w[a as usize].is_some_and(|wm| edge_gt(wm, a, b, f.0, f.1, f.2, na))
    };
    l.edge_iter().all(|(a, b, e)| {
        let f = (w[e], a, b);
        !positive(w[e])
            || left[a as usize] == b
            || (left[a as usize] != UNMATCHED && above(a, left[a as usize], f))
            || (right[b as usize] != UNMATCHED && above(right[b as usize], b, f))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_dominates() {
        assert!(edge_gt(2.0, 0, 0, 1.0, 5, 5, 10));
        assert!(!edge_gt(1.0, 5, 5, 2.0, 0, 0, 10));
    }

    #[test]
    fn ties_break_by_max_then_min_unified_id() {
        // edges (a=0,b=3) and (a=1,b=2) with na=4: unified (0,7) vs (1,6)
        assert!(edge_gt(1.0, 0, 3, 1.0, 1, 2, 4));
        // equal max id: (a=2,b=1) vs (a=3,b=1) with na=4: (2,5) vs (3,5)
        assert!(edge_gt(1.0, 3, 1, 1.0, 2, 1, 4));
    }

    #[test]
    fn order_is_total_on_distinct_edges() {
        let edges = [(0u32, 0u32), (0, 1), (1, 0), (1, 1)];
        for (i, &(a1, b1)) in edges.iter().enumerate() {
            for (j, &(a2, b2)) in edges.iter().enumerate() {
                if i != j {
                    let gt = edge_gt(1.0, a1, b1, 1.0, a2, b2, 2);
                    let lt = edge_gt(1.0, a2, b2, 1.0, a1, b1, 2);
                    assert!(gt ^ lt, "exactly one of gt/lt must hold for distinct edges");
                }
            }
        }
    }

    #[test]
    fn irreflexive() {
        assert!(!edge_gt(1.0, 2, 3, 1.0, 2, 3, 5));
    }

    fn tiny() -> BipartiteGraph {
        BipartiteGraph::from_entries(
            3,
            3,
            vec![
                (0, 0, 2.0),
                (0, 1, 3.0),
                (1, 1, 2.0),
                (1, 0, 0.0),
                (2, 2, -1.0),
            ],
        )
    }

    fn matching(pairs: &[(VertexId, VertexId)]) -> Matching {
        let mut m = Matching::empty(3, 3);
        for &(a, b) in pairs {
            m.add_pair(a, b);
        }
        m
    }

    #[test]
    fn certificate_accepts_the_greedy_matching_only() {
        let l = tiny();
        let w = l.weights();
        assert!(certifies_greedy(&l, w, &matching(&[(0, 1)])));
        // The optimum is not the greedy matching.
        assert!(!certifies_greedy(&l, w, &matching(&[(0, 0), (1, 1)])));
        // Dropping a pair leaves a positive edge undominated.
        assert!(!certifies_greedy(&l, w, &matching(&[])));
        // Adding a zero or a negative edge breaks condition 2.
        assert!(!certifies_greedy(&l, w, &matching(&[(0, 1), (1, 0)])));
        assert!(!certifies_greedy(&l, w, &matching(&[(0, 1), (2, 2)])));
    }

    #[test]
    fn certificate_rejects_invalid_matchings() {
        let l = tiny();
        // (2, 0) is not an edge of l.
        let m = Matching::from_mates(vec![1, UNMATCHED, 0], vec![2, 0, UNMATCHED]);
        assert!(!certifies_greedy(&l, l.weights(), &m));
        // Wrong shape.
        assert!(!certifies_greedy(&l, l.weights(), &Matching::empty(2, 3)));
    }

    #[test]
    fn certificate_breaks_weight_ties_by_the_edge_order() {
        // All four edges tie; the order ranks (1,1) top, which blocks
        // (0,1) and (1,0), so greedy takes (0,0) next.
        let l = BipartiteGraph::from_entries(
            2,
            2,
            vec![(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)],
        );
        let w = l.weights();
        assert!(certifies_greedy(&l, w, &{
            let mut m = Matching::empty(2, 2);
            m.add_pair(1, 1);
            m.add_pair(0, 0);
            m
        }));
        assert!(!certifies_greedy(&l, w, &{
            let mut m = Matching::empty(2, 2);
            m.add_pair(0, 1);
            m.add_pair(1, 0);
            m
        }));
    }
}
