//! The [`Matching`] result type.

use netalign_graph::{BipartiteGraph, VertexId};

/// Sentinel for an unmatched vertex.
pub const UNMATCHED: VertexId = VertexId::MAX;

/// A matching in a bipartite graph `L`, stored as mate arrays over both
/// vertex sides.
///
/// ```
/// use netalign_matching::Matching;
///
/// let mut m = Matching::empty(2, 3);
/// m.add_pair(0, 2);
/// assert_eq!(m.cardinality(), 1);
/// assert_eq!(m.mate_of_left(0), Some(2));
/// assert_eq!(m.mate_of_right(2), Some(0));
/// assert_eq!(m.pairs().collect::<Vec<_>>(), vec![(0, 2)]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    mate_of_left: Vec<VertexId>,
    mate_of_right: Vec<VertexId>,
}

impl Matching {
    /// The empty matching for a graph with `na` left and `nb` right
    /// vertices.
    pub fn empty(na: usize, nb: usize) -> Self {
        Self {
            mate_of_left: vec![UNMATCHED; na],
            mate_of_right: vec![UNMATCHED; nb],
        }
    }

    /// Reset to the empty matching over the same vertex sets, keeping
    /// the allocations.
    pub fn clear(&mut self) {
        self.mate_of_left.fill(UNMATCHED);
        self.mate_of_right.fill(UNMATCHED);
    }

    /// Build from raw mate arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (a claims b but b does not
    /// claim a back).
    pub fn from_mates(mate_of_left: Vec<VertexId>, mate_of_right: Vec<VertexId>) -> Self {
        let m = Self {
            mate_of_left,
            mate_of_right,
        };
        m.assert_consistent();
        m
    }

    fn assert_consistent(&self) {
        for (a, &b) in self.mate_of_left.iter().enumerate() {
            if b != UNMATCHED {
                assert!(
                    (b as usize) < self.mate_of_right.len()
                        && self.mate_of_right[b as usize] == a as VertexId,
                    "inconsistent mates: left {a} -> right {b}"
                );
            }
        }
        for (b, &a) in self.mate_of_right.iter().enumerate() {
            if a != UNMATCHED {
                assert!(
                    (a as usize) < self.mate_of_left.len()
                        && self.mate_of_left[a as usize] == b as VertexId,
                    "inconsistent mates: right {b} -> left {a}"
                );
            }
        }
    }

    /// Overwrite this matching in place from a unified mate array
    /// (left ids unchanged, right vertex `b` stored as `na + b` — the
    /// [`crate::approx`] convention), reusing the existing buffers so
    /// the preallocated engine can return `&Matching` without
    /// allocating.
    pub(crate) fn refill_from_unified(&mut self, na: usize, mate: &[VertexId]) {
        debug_assert_eq!(
            mate.len(),
            self.mate_of_left.len() + self.mate_of_right.len()
        );
        debug_assert_eq!(na, self.mate_of_left.len());
        for (a, slot) in self.mate_of_left.iter_mut().enumerate() {
            let m = mate[a];
            *slot = if m == UNMATCHED {
                UNMATCHED
            } else {
                debug_assert!(m >= na as VertexId, "left vertex matched to left vertex");
                m - na as VertexId
            };
        }
        for (b, slot) in self.mate_of_right.iter_mut().enumerate() {
            *slot = mate[na + b];
        }
        debug_assert!({
            self.assert_consistent();
            true
        });
    }

    /// Add the pair `(a, b)` to the matching.
    ///
    /// # Panics
    /// Panics if either endpoint is already matched.
    pub fn add_pair(&mut self, a: VertexId, b: VertexId) {
        assert_eq!(
            self.mate_of_left[a as usize], UNMATCHED,
            "left {a} already matched"
        );
        assert_eq!(
            self.mate_of_right[b as usize], UNMATCHED,
            "right {b} already matched"
        );
        self.mate_of_left[a as usize] = b;
        self.mate_of_right[b as usize] = a;
    }

    /// Mate of left vertex `a`, if any.
    #[inline]
    pub fn mate_of_left(&self, a: VertexId) -> Option<VertexId> {
        let m = self.mate_of_left[a as usize];
        (m != UNMATCHED).then_some(m)
    }

    /// Mate of right vertex `b`, if any.
    #[inline]
    pub fn mate_of_right(&self, b: VertexId) -> Option<VertexId> {
        let m = self.mate_of_right[b as usize];
        (m != UNMATCHED).then_some(m)
    }

    /// Raw left-side mate array (`UNMATCHED` sentinel for free vertices).
    #[inline]
    pub fn left_mates(&self) -> &[VertexId] {
        &self.mate_of_left
    }

    /// Raw right-side mate array.
    #[inline]
    pub fn right_mates(&self) -> &[VertexId] {
        &self.mate_of_right
    }

    /// Number of matched pairs.
    pub fn cardinality(&self) -> usize {
        self.mate_of_left
            .iter()
            .filter(|&&m| m != UNMATCHED)
            .count()
    }

    /// Iterate over matched `(a, b)` pairs in order of `a`.
    pub fn pairs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.mate_of_left
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b != UNMATCHED)
            .map(|(a, &b)| (a as VertexId, b))
    }

    /// Total weight of the matching under the given per-edge weight
    /// vector (global edge order of `l`).
    ///
    /// # Panics
    /// Panics if a matched pair is not an edge of `l`.
    pub fn weight(&self, l: &BipartiteGraph, weights: &[f64]) -> f64 {
        self.pairs()
            .map(|(a, b)| {
                let e = l
                    .edge_id(a, b)
                    .unwrap_or_else(|| panic!("matched pair ({a},{b}) is not an edge of L"));
                weights[e]
            })
            .sum()
    }

    /// Total weight under `l`'s own weight vector.
    pub fn weight_in(&self, l: &BipartiteGraph) -> f64 {
        self.weight(l, l.weights())
    }

    /// 0/1 indicator vector `x` over the global edge order of `l`.
    pub fn indicator(&self, l: &BipartiteGraph) -> Vec<f64> {
        let mut x = vec![0.0; l.num_edges()];
        self.indicator_into(l, &mut x);
        x
    }

    /// Fill a caller-owned 0/1 indicator vector over the global edge
    /// order of `l` — the allocation-free form of
    /// [`Matching::indicator`] for preallocated iteration scratch.
    pub fn indicator_into(&self, l: &BipartiteGraph, x: &mut [f64]) {
        assert_eq!(x.len(), l.num_edges());
        x.fill(0.0);
        for (a, b) in self.pairs() {
            let e = l.edge_id(a, b).expect("matched pair must be an edge of L");
            x[e] = 1.0;
        }
    }

    /// Check that every matched pair is an edge of `l` and the mate
    /// arrays are mutually consistent.
    pub fn is_valid(&self, l: &BipartiteGraph) -> bool {
        if self.mate_of_left.len() != l.num_left() || self.mate_of_right.len() != l.num_right() {
            return false;
        }
        for (a, &b) in self.mate_of_left.iter().enumerate() {
            if b != UNMATCHED
                && ((b as usize) >= l.num_right()
                    || self.mate_of_right[b as usize] != a as VertexId
                    || !l.has_edge(a as VertexId, b))
            {
                return false;
            }
        }
        for (b, &a) in self.mate_of_right.iter().enumerate() {
            if a != UNMATCHED && self.mate_of_left[a as usize] != b as VertexId {
                return false;
            }
        }
        true
    }

    /// True when no edge of `l` with positive weight has both endpoints
    /// free — i.e. the matching is maximal on the positive-weight
    /// subgraph (the half-approximation guarantee needs this).
    pub fn is_maximal(&self, l: &BipartiteGraph, weights: &[f64]) -> bool {
        for (a, b, e) in l.edge_iter() {
            if weights[e] > 0.0
                && self.mate_of_left[a as usize] == UNMATCHED
                && self.mate_of_right[b as usize] == UNMATCHED
            {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_l() -> BipartiteGraph {
        BipartiteGraph::from_entries(
            3,
            3,
            vec![
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 1, 5.0),
            ],
        )
    }

    #[test]
    fn empty_matching() {
        let m = Matching::empty(3, 2);
        assert_eq!(m.cardinality(), 0);
        assert_eq!(m.pairs().count(), 0);
        assert_eq!(m.mate_of_left(0), None);
    }

    #[test]
    fn add_pairs_and_weight() {
        let l = sample_l();
        let mut m = Matching::empty(3, 3);
        m.add_pair(0, 2);
        m.add_pair(2, 1);
        assert_eq!(m.cardinality(), 2);
        assert_eq!(m.weight_in(&l), 7.0);
        assert!(m.is_valid(&l));
    }

    #[test]
    fn indicator_marks_matched_edges() {
        let l = sample_l();
        let mut m = Matching::empty(3, 3);
        m.add_pair(1, 1);
        let x = m.indicator(&l);
        assert_eq!(x, vec![0.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "already matched")]
    fn double_match_panics() {
        let mut m = Matching::empty(2, 2);
        m.add_pair(0, 1);
        m.add_pair(1, 1);
    }

    #[test]
    fn validity_rejects_non_edges() {
        let l = sample_l();
        let mut m = Matching::empty(3, 3);
        m.add_pair(1, 0); // (1,0) is not an edge
        assert!(!m.is_valid(&l));
    }

    #[test]
    fn maximality() {
        let l = sample_l();
        let mut m = Matching::empty(3, 3);
        m.add_pair(0, 0);
        // (1,1) has both endpoints free and positive weight
        assert!(!m.is_maximal(&l, l.weights()));
        m.add_pair(1, 1);
        // Now every positive edge touches a matched vertex: (0,*) via a0,
        // (2,0) via b0, (2,1) via b1.
        assert!(m.is_maximal(&l, l.weights()));
    }

    #[test]
    fn maximality_holds_when_positive_edges_covered() {
        let l = sample_l();
        let mut m = Matching::empty(3, 3);
        m.add_pair(0, 2);
        m.add_pair(1, 1);
        m.add_pair(2, 0);
        assert!(m.is_maximal(&l, l.weights()));
    }

    #[test]
    fn from_mates_accepts_consistent() {
        let m = Matching::from_mates(vec![1, UNMATCHED], vec![UNMATCHED, 0]);
        assert_eq!(m.cardinality(), 1);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn from_mates_rejects_inconsistent() {
        let _ = Matching::from_mates(vec![1, UNMATCHED], vec![0, UNMATCHED]);
    }
}
