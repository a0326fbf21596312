//! The Suitor algorithm for ½-approximate maximum-weight matching
//! (Manne & Halappanavar, IPDPS 2014) — the authors' own follow-up to
//! the queue-based algorithm reproduced in [`super::parallel_ld`], and
//! the natural "future work" of the paper's §V.
//!
//! Every vertex *proposes* to its heaviest neighbor whose current best
//! proposal it can beat; a displaced suitor immediately continues
//! proposing on its own behalf. The fixed point assigns each vertex the
//! best proposal it received, and mutual proposals form exactly the
//! locally-dominant matching — so under this crate's total edge order
//! the Suitor result equals the greedy / pointer-based results, which
//! the tests assert.
//!
//! # Lock-free proposal slots
//!
//! The parallel variant runs the proposal chains concurrently. Instead
//! of the per-vertex lock of the published algorithm, each vertex `v`
//! owns one `AtomicU64` slot packing `(score << 32) | proposer`, where
//! the *score* of an edge at `v` is its rank from the bottom of `v`'s
//! adjacency under the crate's total edge order (heaviest edge of a
//! degree-`d` vertex scores `d`, lightest scores `1`, empty slot is
//! `0`). Scores are precomputed per weight vector by sorting every
//! vertex's adjacency segment, so
//!
//! * comparing packed values compares proposals *exactly* as
//!   [`unified_edge_gt`] would — scores at one vertex are distinct
//!   because each proposer reaches `v` through exactly one edge;
//! * a proposal is published with one `fetch_max`: the slot's value is
//!   monotonically non-decreasing, so a rejection is final and the
//!   acceptance pre-check (`slot >> 32 < score`) never goes stale in
//!   the accepting direction;
//! * after a lost `fetch_max` the standing score is *strictly* greater
//!   than the attempted one (ties are impossible), so a rescan makes
//!   progress and the chains terminate.
//!
//! Monotone slots mean the final configuration is the unique stable
//! fixed point of the proposal dynamics — the same one the serial
//! algorithm reaches — independent of thread count and schedule, which
//! preserves the crate's bit-identical-at-any-pool-size guarantee.
//!
//! [`parallel_suitor_traced`] counts proposals, displacements and lost
//! `fetch_max` races into a [`MatcherCounters`]. Unlike the queue-based
//! matcher's counters these are schedule-*dependent* (which thread
//! loses a race, and how often chains rescan, varies), so they are
//! excluded from the determinism assertions.

use super::{degree_grains, unified_edge_gt, UnifiedView};
use crate::matching::{Matching, UNMATCHED};
use netalign_graph::{BipartiteGraph, VertexId};
use netalign_trace::MatcherCounters;
use rayon::par_uneven_chunks_mut;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Empty proposal slot (any real proposal has score ≥ 1).
pub(crate) const EMPTY_SLOT: u64 = 0;
/// Low half of a packed slot: the proposer id.
pub(crate) const PROPOSER_MASK: u64 = 0xffff_ffff;

/// Serial Suitor algorithm.
pub fn serial_suitor(l: &BipartiteGraph, weights: &[f64]) -> Matching {
    let view = UnifiedView::new(l, weights);
    let n = view.num_vertices();
    // suitor[v] = current best proposer to v; ws[v] = its edge weight.
    let mut suitor = vec![UNMATCHED; n];
    let mut ws = vec![0.0f64; n];

    for start in 0..n as VertexId {
        let mut current = start;
        loop {
            // Find the heaviest neighbor `t` of `current` that would
            // accept `current` (beats t's standing proposal).
            let mut best_t = UNMATCHED;
            let mut best_w = 0.0f64;
            view.for_each_neighbor(current, |t, w| {
                if w <= 0.0 {
                    return;
                }
                let standing = suitor[t as usize];
                let accepts = standing == UNMATCHED
                    || unified_edge_gt(w, current, t, ws[t as usize], standing, t);
                if accepts
                    && (best_t == UNMATCHED
                        || unified_edge_gt(w, current, t, best_w, current, best_t))
                {
                    best_t = t;
                    best_w = w;
                }
            });
            let Some(t) = (best_t != UNMATCHED).then_some(best_t) else {
                break; // current retires unmatched
            };
            let displaced = suitor[t as usize];
            suitor[t as usize] = current;
            ws[t as usize] = best_w;
            if displaced == UNMATCHED {
                break;
            }
            current = displaced; // displaced suitor proposes again
        }
    }
    mutual_proposals_to_matching(&view, &suitor)
}

/// Preallocated state of the lock-free parallel Suitor: the proposal
/// slots plus the per-vertex adjacency segments and edge scores that
/// realize the packed total order. Recycled across weight vectors by
/// [`crate::engine::MatcherEngine`].
pub(crate) struct SuitorWorkspace {
    /// `slot[v] = (score << 32) | proposer`, [`EMPTY_SLOT`] when free.
    pub slots: Vec<AtomicU64>,
    /// Edge ids grouped per unified vertex (left segments then right),
    /// each segment sorted descending under the total edge order by
    /// [`SuitorWorkspace::sort_segments`].
    pub order: Vec<u32>,
    /// Segment bounds into `order` (len `n + 1`).
    pub seg_start: Vec<usize>,
    /// `score_left[e]`: rank of edge `e` at its left endpoint.
    pub score_left: Vec<AtomicU32>,
    /// `score_right[e]`: rank of edge `e` at its right endpoint.
    pub score_right: Vec<AtomicU32>,
}

impl SuitorWorkspace {
    /// Allocate the workspace for `l` (structure only; scores are
    /// filled per weight vector by [`SuitorWorkspace::sort_segments`]).
    pub fn new(l: &BipartiteGraph) -> Self {
        let na = l.num_left();
        let nb = l.num_right();
        let m = l.num_edges();
        let n = na + nb;
        assert!(
            (n as u64) < u32::MAX as u64,
            "vertex count must fit the packed slot's id half"
        );
        let mut seg_start = Vec::with_capacity(n + 1);
        seg_start.push(0usize);
        for a in 0..na {
            seg_start.push(seg_start[a] + l.left_degree(a as VertexId));
        }
        for b in 0..nb {
            seg_start.push(seg_start[na + b] + l.right_degree(b as VertexId));
        }
        debug_assert_eq!(seg_start[n], 2 * m);
        let mut order = vec![0u32; 2 * m];
        for a in 0..na {
            let s = seg_start[a];
            for (i, (_, e)) in l.left_edges(a as VertexId).enumerate() {
                order[s + i] = e as u32;
            }
        }
        for b in 0..nb {
            let s = seg_start[na + b];
            for (i, (_, e)) in l.right_edges(b as VertexId).enumerate() {
                order[s + i] = e as u32;
            }
        }
        SuitorWorkspace {
            slots: (0..n).map(|_| AtomicU64::new(EMPTY_SLOT)).collect(),
            order,
            seg_start,
            score_left: (0..m).map(|_| AtomicU32::new(0)).collect(),
            score_right: (0..m).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Sort every vertex segment descending under `weights` and refill
    /// the scores, parallel over degree-aware grains (`vertex_bounds` /
    /// `order_bounds` from [`degree_grains`]). Deterministic: segments
    /// are disjoint and each sort depends only on its own data.
    pub fn sort_segments(
        &mut self,
        l: &BipartiteGraph,
        weights: &[f64],
        vertex_bounds: &[u32],
        order_bounds: &[usize],
    ) {
        let seg_start = &self.seg_start;
        let score_left = &self.score_left;
        let score_right = &self.score_right;
        let na = l.num_left();
        par_uneven_chunks_mut(&mut self.order, order_bounds)
            .enumerate()
            .for_each(|(g, chunk)| {
                let base = order_bounds[g];
                for v in vertex_bounds[g]..vertex_bounds[g + 1] {
                    let (s, e) = (seg_start[v as usize], seg_start[v as usize + 1]);
                    let seg = &mut chunk[s - base..e - base];
                    sort_one_segment(l, weights, v, na, seg);
                    fill_scores(v, na, seg, score_left, score_right);
                }
            });
    }
}

/// Sort one vertex's adjacency segment descending under the total edge
/// order (weight by `total_cmp`, then the `(max_id, min_id)` pair).
fn sort_one_segment(l: &BipartiteGraph, weights: &[f64], v: VertexId, na: usize, seg: &mut [u32]) {
    let other = |e: u32| -> VertexId {
        let (a, b) = l.endpoints(e as usize);
        if (v as usize) < na {
            na as VertexId + b
        } else {
            a
        }
    };
    seg.sort_unstable_by(|&x, &y| {
        if unified_edge_gt(
            weights[x as usize],
            v,
            other(x),
            weights[y as usize],
            v,
            other(y),
        ) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    });
}

/// `score = deg − position` over a sorted segment: the heaviest edge at
/// a degree-`d` vertex scores `d`, the lightest scores `1`.
fn fill_scores(
    v: VertexId,
    na: usize,
    seg: &[u32],
    score_left: &[AtomicU32],
    score_right: &[AtomicU32],
) {
    let deg = seg.len() as u32;
    for (pos, &e) in seg.iter().enumerate() {
        let sc = deg - pos as u32;
        if (v as usize) < na {
            score_left[e as usize].store(sc, Ordering::Relaxed);
        } else {
            score_right[e as usize].store(sc, Ordering::Relaxed);
        }
    }
}

/// One proposal chain starting at `start`: scan for the best target
/// that would accept, publish with `fetch_max`, continue with whoever
/// got displaced. See the module docs for the termination and
/// determinism argument.
pub(crate) fn propose_chain(
    l: &BipartiteGraph,
    weights: &[f64],
    slots: &[AtomicU64],
    score_left: &[AtomicU32],
    score_right: &[AtomicU32],
    start: VertexId,
    counters: &MatcherCounters,
) {
    let na = l.num_left() as VertexId;
    let mut current = start;
    'chain: loop {
        let mut best_t = UNMATCHED;
        let mut best_w = 0.0f64;
        let mut best_score = 0u32;
        if current < na {
            for (b, e) in l.left_edges(current) {
                let w = weights[e];
                if w <= 0.0 {
                    continue;
                }
                let t = na + b;
                let sc = score_right[e].load(Ordering::Relaxed);
                if ((slots[t as usize].load(Ordering::Acquire) >> 32) as u32) >= sc {
                    continue; // t rejects — final, slots only grow
                }
                if best_t == UNMATCHED || unified_edge_gt(w, current, t, best_w, current, best_t) {
                    best_t = t;
                    best_w = w;
                    best_score = sc;
                }
            }
        } else {
            for (a, e) in l.right_edges(current - na) {
                let w = weights[e];
                if w <= 0.0 {
                    continue;
                }
                let sc = score_left[e].load(Ordering::Relaxed);
                if ((slots[a as usize].load(Ordering::Acquire) >> 32) as u32) >= sc {
                    continue;
                }
                if best_t == UNMATCHED || unified_edge_gt(w, current, a, best_w, current, best_t) {
                    best_t = a;
                    best_w = w;
                    best_score = sc;
                }
            }
        }
        if best_t == UNMATCHED {
            return; // current retires unmatched
        }
        let packed = ((best_score as u64) << 32) | current as u64;
        let old = slots[best_t as usize].fetch_max(packed, Ordering::AcqRel);
        if old >= packed {
            // Outbid between scan and publish; the standing score is
            // strictly higher, so the rescan cannot loop on this target.
            counters.add_cas_failures(1);
            continue 'chain;
        }
        counters.add_proposals(1);
        if old == EMPTY_SLOT {
            return;
        }
        counters.add_displacements(1);
        current = (old & PROPOSER_MASK) as VertexId;
    }
}

/// Decode the fixed-point slots into a unified mate array: mutual
/// proposals are the matched pairs.
pub(crate) fn extract_mates_into(slots: &[AtomicU64], mate: &mut [VertexId]) {
    for (v, mv) in mate.iter_mut().enumerate() {
        let sv = slots[v].load(Ordering::Acquire);
        *mv = if sv == EMPTY_SLOT {
            UNMATCHED
        } else {
            let s = (sv & PROPOSER_MASK) as VertexId;
            let ss = slots[s as usize].load(Ordering::Acquire);
            if ss != EMPTY_SLOT && (ss & PROPOSER_MASK) as VertexId == v as VertexId {
                s
            } else {
                UNMATCHED
            }
        };
    }
}

/// Lock-free parallel Suitor (see the module docs): vertices propose
/// concurrently through packed `fetch_max` slots; displacement chains
/// continue on the displacing thread.
pub fn parallel_suitor(l: &BipartiteGraph, weights: &[f64]) -> Matching {
    parallel_suitor_traced(l, weights, MatcherCounters::disabled())
}

/// [`parallel_suitor`] with event counting: proposals, displacements
/// and lost `fetch_max` races (schedule-dependent — see module docs).
pub fn parallel_suitor_traced(
    l: &BipartiteGraph,
    weights: &[f64],
    counters: &MatcherCounters,
) -> Matching {
    let view = UnifiedView::new(l, weights);
    let n = view.num_vertices();
    let mut ws = SuitorWorkspace::new(l);
    let (vertex_bounds, order_bounds) = degree_grains(l);
    ws.sort_segments(l, weights, &vertex_bounds, &order_bounds);
    let slots = &ws.slots;
    let score_left = &ws.score_left;
    let score_right = &ws.score_right;
    (0..n as VertexId)
        .into_par_iter()
        .with_min_len(64)
        .for_each(|v| propose_chain(l, weights, slots, score_left, score_right, v, counters));
    let mut mate = vec![UNMATCHED; n];
    extract_mates_into(&ws.slots, &mut mate);
    view.to_matching(&mate)
}

/// Mutual proposals are the matched pairs.
fn mutual_proposals_to_matching(view: &UnifiedView<'_>, suitor: &[VertexId]) -> Matching {
    let n = suitor.len();
    let mut mate = vec![UNMATCHED; n];
    for v in 0..n {
        let s = suitor[v];
        if s != UNMATCHED && suitor[s as usize] == v as VertexId {
            mate[v] = s;
        }
    }
    view.to_matching(&mate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::greedy::greedy_matching;
    use rand::{Rng, SeedableRng};

    fn random_l(seed: u64, na: usize, nb: usize, p: f64, ties: bool) -> BipartiteGraph {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut entries = Vec::new();
        for a in 0..na {
            for b in 0..nb {
                if rng.gen_bool(p) {
                    let w = if ties {
                        rng.gen_range(1..4) as f64
                    } else {
                        rng.gen_range(0.1..5.0)
                    };
                    entries.push((a as u32, b as u32, w));
                }
            }
        }
        BipartiteGraph::from_entries(na, nb, entries)
    }

    #[test]
    fn serial_suitor_equals_greedy() {
        for seed in 0..25 {
            let l = random_l(seed, 10, 11, 0.4, false);
            assert_eq!(
                serial_suitor(&l, l.weights()),
                greedy_matching(&l, l.weights()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn serial_suitor_equals_greedy_with_ties() {
        for seed in 50..70 {
            let l = random_l(seed, 12, 12, 0.5, true);
            assert_eq!(
                serial_suitor(&l, l.weights()),
                greedy_matching(&l, l.weights()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn parallel_suitor_equals_serial() {
        for seed in 100..120 {
            let l = random_l(seed, 30, 28, 0.2, false);
            assert_eq!(
                parallel_suitor(&l, l.weights()),
                serial_suitor(&l, l.weights()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn parallel_suitor_equals_serial_with_ties() {
        for seed in 200..220 {
            let l = random_l(seed, 24, 26, 0.35, true);
            assert_eq!(
                parallel_suitor(&l, l.weights()),
                serial_suitor(&l, l.weights()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn parallel_suitor_deterministic_across_runs() {
        let l = random_l(7, 60, 55, 0.15, true);
        let first = parallel_suitor(&l, l.weights());
        for _ in 0..10 {
            assert_eq!(first, parallel_suitor(&l, l.weights()));
        }
    }

    #[test]
    fn handles_degenerate_graphs() {
        let empty = BipartiteGraph::from_entries(3, 3, Vec::<(u32, u32, f64)>::new());
        assert_eq!(serial_suitor(&empty, empty.weights()).cardinality(), 0);
        assert_eq!(parallel_suitor(&empty, empty.weights()).cardinality(), 0);
        let neg = BipartiteGraph::from_entries(1, 1, vec![(0, 0, -1.0)]);
        assert_eq!(serial_suitor(&neg, neg.weights()).cardinality(), 0);
        assert_eq!(parallel_suitor(&neg, neg.weights()).cardinality(), 0);
    }

    #[test]
    fn star_graph_takes_heaviest_leaf() {
        let l = BipartiteGraph::from_entries(
            1,
            4,
            vec![(0, 0, 1.0), (0, 1, 3.0), (0, 2, 2.0), (0, 3, 0.5)],
        );
        let m = serial_suitor(&l, l.weights());
        assert_eq!(m.mate_of_left(0), Some(1));
        assert_eq!(m.cardinality(), 1);
        assert_eq!(parallel_suitor(&l, l.weights()), m);
    }

    #[test]
    fn traced_counts_proposals_and_displacements() {
        // Star: every leaf proposes to the center in turn; each winner
        // displaces the previous one except the first.
        let l = random_l(33, 20, 20, 0.3, false);
        let counters = MatcherCounters::new(true);
        let m = parallel_suitor_traced(&l, l.weights(), &counters);
        let s = counters.snapshot();
        assert!(
            s.proposals >= m.cardinality() as u64,
            "every matched pair needs at least one proposal per side"
        );
        // Untraced sink records nothing and does not perturb results.
        assert_eq!(m, parallel_suitor(&l, l.weights()));
        assert!(MatcherCounters::disabled().snapshot().is_zero());
    }

    #[test]
    fn scores_encode_the_total_order() {
        let l = random_l(91, 15, 15, 0.4, true);
        let mut ws = SuitorWorkspace::new(&l);
        let (vb, ob) = degree_grains(&l);
        ws.sort_segments(&l, l.weights(), &vb, &ob);
        let na = l.num_left();
        // Within every vertex's adjacency, a higher score must mean a
        // greater edge under the unified order.
        for v in 0..(na + l.num_right()) as VertexId {
            let seg = &ws.order[ws.seg_start[v as usize]..ws.seg_start[v as usize + 1]];
            for pair in seg.windows(2) {
                let (hi, lo) = (pair[0] as usize, pair[1] as usize);
                let other = |e: usize| {
                    let (a, b) = l.endpoints(e);
                    if (v as usize) < na {
                        na as VertexId + b
                    } else {
                        a
                    }
                };
                assert!(unified_edge_gt(
                    l.weights()[hi],
                    v,
                    other(hi),
                    l.weights()[lo],
                    v,
                    other(lo)
                ));
                let score_of = |e: usize| {
                    if (v as usize) < na {
                        ws.score_left[e].load(Ordering::Relaxed)
                    } else {
                        ws.score_right[e].load(Ordering::Relaxed)
                    }
                };
                assert!(score_of(hi) > score_of(lo));
            }
        }
    }
}
