//! Half-approximate maximum-weight matching algorithms.
//!
//! All three algorithms compute *the same* matching — the unique
//! locally-dominant matching under the total edge order of
//! [`crate::order`] — by different means:
//!
//! * [`greedy`] — global sort by edge key, then a linear scan,
//! * [`local_dominant`] — the serial pointer-based algorithm
//!   (Preis / Manne–Bisseling),
//! * [`parallel_ld`] — the paper's multicore queue-based algorithm
//!   (Algorithms 1–3) with atomic mate claims and `fetch_add` queues.
//!
//! Each is a ½-approximation in both weight and cardinality because the
//! result is a maximal matching of locally-dominant edges.

pub mod greedy;
pub mod local_dominant;
pub mod parallel_ld;
pub mod path_growing;

pub use greedy::{greedy_matching, GreedyScratch};
pub use local_dominant::serial_local_dominant;
pub use parallel_ld::{
    parallel_local_dominant, parallel_local_dominant_traced, InitStrategy, ParallelLdOptions,
};
pub use path_growing::path_growing_matching;

use netalign_graph::{BipartiteGraph, VertexId};

/// Adjacency entries per parallel grain for the vertex sweeps. Chosen
/// so a grain amortizes rayon's task overhead while hub vertices of a
/// power-law `L` still spread across grains.
const GRAIN_ENTRIES: usize = 2048;

/// Degree-aware grain bounds over the unified vertex set: consecutive
/// vertex ranges holding roughly [`GRAIN_ENTRIES`] adjacency entries
/// each, so power-law hubs don't pile into one rayon task the way
/// fixed-width vertex chunks would.
///
/// Returns `g + 1` bounds: grain `i` spans unified vertices
/// `bounds[i]..bounds[i+1]`. The split depends only on the graph —
/// never on the pool size — so every sweep over these grains
/// partitions work identically at any thread count.
pub(crate) fn degree_grains(l: &BipartiteGraph) -> Vec<u32> {
    let na = l.num_left();
    let n = na + l.num_right();
    let mut bounds = vec![0u32];
    let mut acc = 0usize;
    for v in 0..n {
        acc += if v < na {
            l.left_degree(v as VertexId)
        } else {
            l.right_degree((v - na) as VertexId)
        };
        if acc >= GRAIN_ENTRIES {
            bounds.push((v + 1) as u32);
            acc = 0;
        }
    }
    if *bounds.last().unwrap() != n as u32 {
        bounds.push(n as u32);
    }
    bounds
}

/// A view of the bipartite graph `L` as a *general* graph on the
/// unified vertex set `0..na+nb` (left ids unchanged, right vertex `b`
/// becomes `na + b`). The paper feeds `L` to the matcher this way:
/// "we provide a bipartite graph as a general graph to the algorithm by
/// not making a distinction between the two sets of vertices" (§V).
pub(crate) struct UnifiedView<'a> {
    pub l: &'a BipartiteGraph,
    pub weights: &'a [f64],
}

impl<'a> UnifiedView<'a> {
    pub fn new(l: &'a BipartiteGraph, weights: &'a [f64]) -> Self {
        assert_eq!(weights.len(), l.num_edges());
        Self { l, weights }
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.l.num_left() + self.l.num_right()
    }

    #[inline]
    pub fn na(&self) -> usize {
        self.l.num_left()
    }

    /// Visit `(unified_neighbor, weight)` for every neighbor of a
    /// unified vertex id. A closure-based visitor avoids boxing an
    /// iterator in the innermost matching loop.
    #[inline]
    pub fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, f64)) {
        let na = self.na() as VertexId;
        if v < na {
            for (b, e) in self.l.left_edges(v) {
                f(na + b, self.weights[e]);
            }
        } else {
            for (a, e) in self.l.right_edges(v - na) {
                f(a, self.weights[e]);
            }
        }
    }

    /// Convert a matching over unified ids (mate array of length
    /// `na + nb`) into a [`crate::Matching`].
    pub fn to_matching(&self, mate: &[VertexId]) -> crate::Matching {
        use crate::matching::UNMATCHED;
        let na = self.na();
        let nb = self.l.num_right();
        let mut left = vec![UNMATCHED; na];
        let mut right = vec![UNMATCHED; nb];
        for a in 0..na {
            let m = mate[a];
            if m != UNMATCHED {
                debug_assert!(m >= na as VertexId, "left vertex matched to left vertex");
                left[a] = m - na as VertexId;
            }
        }
        for b in 0..nb {
            let m = mate[na + b];
            if m != UNMATCHED {
                right[b] = m;
            }
        }
        crate::Matching::from_mates(left, right)
    }
}

/// The unified-id edge comparison used by every locally-dominant
/// variant: weight first, then `(max_id, min_id)` — a total order on
/// distinct edges (see [`crate::order`]).
#[inline]
pub(crate) fn unified_edge_gt(
    w1: f64,
    u1: VertexId,
    v1: VertexId,
    w2: f64,
    u2: VertexId,
    v2: VertexId,
) -> bool {
    match w1.total_cmp(&w2) {
        std::cmp::Ordering::Greater => return true,
        std::cmp::Ordering::Less => return false,
        std::cmp::Ordering::Equal => {}
    }
    let k1 = if u1 > v1 { (u1, v1) } else { (v1, u1) };
    let k2 = if u2 > v2 { (u2, v2) } else { (v2, u2) };
    k1 > k2
}
