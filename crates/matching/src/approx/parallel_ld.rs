//! The paper's parallel locally-dominant ½-approximate matching
//! (Algorithms 1–3 of §V), implemented with `std::sync::atomic` and
//! rayon.
//!
//! Structure (mirroring the pseudo-code):
//!
//! * **Phase 1** — `FindMate` for every vertex in parallel, then
//!   `MatchVertex` for every vertex in parallel. Locally-dominant pairs
//!   (mutual candidates) are claimed and enqueued in `Q_C`.
//! * **Phase 2** — while `Q_C` is non-empty, one *round* per queue
//!   generation, each round split into three barrier-separated
//!   sub-phases:
//!   1. **collect** — for each matched vertex `u ∈ Q_C` in parallel,
//!      every free neighbor `v` whose candidate was invalidated
//!      (`candidate[v] = u`, or never computed) is claimed into a
//!      deduplicated reprocess list;
//!   2. **re-find** — `FindMate` re-runs for every listed vertex
//!      against the frozen mate array;
//!   3. **match** — `MatchVertex` runs for every listed vertex; fresh
//!      matches enqueue into `Q_N`, and the queues swap.
//!
//!   The barriers between sub-phases (the ends of the rayon parallel
//!   loops) freeze `mate` during collect/re-find and `candidate` during
//!   match, so *which* vertices re-run `FindMate`, *what* they compute,
//!   and *which* pairs match in a round are all schedule-independent.
//!   Only the order of the reprocess list and the identity of the
//!   thread that wins a claim remain racy — neither affects the result
//!   nor any counter value.
//!
//! Queue pushes use `fetch_add` on an atomic tail index — the Rust
//! equivalent of the `__sync_fetch_and_add` hardware intrinsic the
//! paper highlights. Mate claims use a single compare-exchange on the
//! smaller endpoint (canonical order), so exactly one thread wins a
//! pair and duplicates are impossible; the winner alone enqueues both
//! endpoints, bounding each queue by the vertex count.
//!
//! Under the total edge order of [`crate::order`] the locally-dominant
//! matching is unique, so this routine returns bit-identical results
//! for every thread count and schedule — a property the tests assert
//! against the serial implementation.
//!
//! # Observability
//!
//! [`parallel_local_dominant_traced`] records event counts into a
//! [`MatcherCounters`]: phase-2 rounds, initial and re-run `FindMate`
//! executions, `MatchVertex` attempts (reciprocity hits), matched
//! pairs, lost claim compare-exchanges, and the queue high-water mark.
//! With [`InitStrategy::BothSides`] every counter is deterministic for
//! a fixed input at any thread count (the sub-phase structure above);
//! with [`InitStrategy::LeftSide`] the on-demand candidate computation
//! makes `find_mate_initial` (and through it `match_attempts` /
//! `cas_failures`) schedule-dependent.

use super::{degree_grains, unified_edge_gt, UnifiedView};
use crate::matching::{Matching, UNMATCHED};
use netalign_graph::{BipartiteGraph, VertexId};
use netalign_trace::MatcherCounters;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// How Phase 1 seeds the candidate pointers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InitStrategy {
    /// Spawn from both vertex sets, as in the general-graph algorithm.
    #[default]
    BothSides,
    /// Spawn only from `V_A`, computing the reciprocal candidate of the
    /// chosen `V_B` vertex on demand — the bipartite-aware
    /// initialization the paper reports as "noticeably" faster (§V).
    LeftSide,
}

/// Options for [`parallel_local_dominant`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelLdOptions {
    /// Phase-1 initialization strategy.
    pub init: InitStrategy,
}

/// Candidate sentinel: not yet computed (used by the one-side init).
const UNSET: VertexId = VertexId::MAX;
/// Candidate sentinel: computed, no eligible neighbor.
const NO_CANDIDATE: VertexId = VertexId::MAX - 1;
/// Reprocess-claim sentinel: never claimed in any round.
const NEVER: u32 = u32::MAX;

/// Parallel locally-dominant matching on the unified view of `l`,
/// using the current rayon thread pool.
pub fn parallel_local_dominant(
    l: &BipartiteGraph,
    weights: &[f64],
    opts: ParallelLdOptions,
) -> Matching {
    parallel_local_dominant_traced(l, weights, opts, MatcherCounters::disabled())
}

/// [`parallel_local_dominant`] with event counting (see the module
/// docs for the determinism guarantees per init strategy).
pub fn parallel_local_dominant_traced(
    l: &BipartiteGraph,
    weights: &[f64],
    opts: ParallelLdOptions,
    counters: &MatcherCounters,
) -> Matching {
    let mut ws = LdWorkspace::new(l);
    ws.run(l, weights, opts.init, counters);
    ws.out
}

/// The queue-based algorithm's working set for one graph, recycled
/// across calls: [`crate::engine::MatcherEngine`] keeps one, and
/// [`parallel_local_dominant_traced`] builds one per call.
pub(crate) struct LdWorkspace {
    // Degree-aware grains over the unified vertex set (data-dependent
    // only — never pool-dependent), balancing adjacency entries so
    // power-law hubs spread across rayon tasks.
    vertex_bounds: Vec<u32>,
    mate: Vec<AtomicU32>,
    candidate: Vec<AtomicU32>,
    // Queues: each matched vertex is enqueued exactly once (by the
    // thread that won its pair), so capacity n suffices.
    q_cur: Vec<AtomicU32>,
    q_next: Vec<AtomicU32>,
    tail_cur: AtomicUsize,
    tail_next: AtomicUsize,
    // Phase-2 reprocess list: `claimed[v]` holds the last round that
    // listed `v` (swap-as-claim dedups without a per-round reset).
    reprocess: Vec<AtomicU32>,
    reprocess_tail: AtomicUsize,
    claimed: Vec<AtomicU32>,
    // Recycled output.
    mate_plain: Vec<VertexId>,
    out: Matching,
}

impl LdWorkspace {
    pub(crate) fn new(l: &BipartiteGraph) -> Self {
        let n = l.num_left() + l.num_right();
        assert!(
            (n as u64) < u32::MAX as u64,
            "vertex count must fit the u32 mate encoding"
        );
        let atoms = |v: u32| (0..n).map(|_| AtomicU32::new(v)).collect::<Vec<_>>();
        LdWorkspace {
            vertex_bounds: degree_grains(l),
            mate: atoms(UNMATCHED),
            candidate: atoms(UNSET),
            q_cur: atoms(UNMATCHED),
            q_next: atoms(UNMATCHED),
            tail_cur: AtomicUsize::new(0),
            tail_next: AtomicUsize::new(0),
            reprocess: atoms(UNMATCHED),
            reprocess_tail: AtomicUsize::new(0),
            claimed: atoms(NEVER),
            mate_plain: vec![UNMATCHED; n],
            out: Matching::empty(l.num_left(), l.num_right()),
        }
    }

    /// Match `weights` on `l`, the graph the workspace was sized for.
    /// Performs no heap allocation.
    pub(crate) fn run(
        &mut self,
        l: &BipartiteGraph,
        weights: &[f64],
        init: InitStrategy,
        counters: &MatcherCounters,
    ) -> &Matching {
        let view = UnifiedView::new(l, weights);
        let vb = &self.vertex_bounds;
        let grains = vb.len() - 1;
        let (mate, candidate, claimed) = (&self.mate, &self.candidate, &self.claimed);
        let (q_cur, tail_cur) = (&self.q_cur, &self.tail_cur);
        (0..grains).into_par_iter().with_min_len(1).for_each(|g| {
            for v in vb[g] as usize..vb[g + 1] as usize {
                mate[v].store(UNMATCHED, Ordering::Relaxed);
                candidate[v].store(UNSET, Ordering::Relaxed);
                claimed[v].store(NEVER, Ordering::Relaxed);
            }
        });
        self.tail_cur.store(0, Ordering::Relaxed);
        self.tail_next.store(0, Ordering::Relaxed);
        self.reprocess_tail.store(0, Ordering::Relaxed);

        match init {
            InitStrategy::BothSides => {
                counters.add_find_mate_initial(mate.len() as u64);
                (0..grains).into_par_iter().with_min_len(1).for_each(|g| {
                    for v in vb[g]..vb[g + 1] {
                        candidate[v as usize].store(find_mate(&view, v, mate), Ordering::SeqCst);
                    }
                });
                (0..grains).into_par_iter().with_min_len(1).for_each(|g| {
                    for v in vb[g]..vb[g + 1] {
                        match_vertex(&view, v, mate, candidate, q_cur, tail_cur, counters);
                    }
                });
            }
            InitStrategy::LeftSide => {
                let na = view.na() as VertexId;
                counters.add_find_mate_initial(na as u64);
                (0..na).into_par_iter().for_each(|a| {
                    candidate[a as usize].store(find_mate(&view, a, mate), Ordering::SeqCst);
                });
                (0..na).into_par_iter().for_each(|a| {
                    let b = candidate[a as usize].load(Ordering::SeqCst);
                    if b == NO_CANDIDATE || b == UNSET {
                        return;
                    }
                    // MatchVertex computes `b`'s candidate on demand
                    // (see below). Attempt the match from both
                    // endpoints: `b`'s freshly computed candidate may
                    // reciprocate some *other* left vertex whose own
                    // MatchVertex already ran and missed it.
                    match_vertex(&view, a, mate, candidate, q_cur, tail_cur, counters);
                    match_vertex(&view, b, mate, candidate, q_cur, tail_cur, counters);
                });
            }
        }
        self.phase2(&view, counters);
        for (out, m) in self.mate_plain.iter_mut().zip(&self.mate) {
            *out = m.load(Ordering::Acquire);
        }
        self.out.refill_from_unified(l.num_left(), &self.mate_plain);
        &self.out
    }

    /// Phase 2: process queue rounds until no new matches appear.
    /// Expects `q_cur`/`tail_cur` seeded by a phase-1 sweep,
    /// `reprocess_tail` zero and `claimed` at [`NEVER`] for every
    /// vertex that might be listed (the round counter restarts at 0 on
    /// every call).
    fn phase2(&self, view: &UnifiedView<'_>, counters: &MatcherCounters) {
        counters.record_queue_len(self.tail_cur.load(Ordering::Acquire) as u64);
        let (mate, candidate) = (&self.mate, &self.candidate);
        let (reprocess, reprocess_tail, claimed) =
            (&self.reprocess, &self.reprocess_tail, &self.claimed);
        let (mut qc, mut tc, mut qn, mut tn) =
            (&self.q_cur, &self.tail_cur, &self.q_next, &self.tail_next);
        let mut round: u32 = 0;
        while tc.load(Ordering::Acquire) > 0 {
            let len = tc.load(Ordering::Acquire);
            counters.incr_rounds();

            // Sub-phase 2a (collect): claim every free neighbor whose
            // candidate the previous round's matches invalidated. `mate`
            // and `candidate` are frozen here, so the claimed *set* is
            // deterministic; only its order in the list is not.
            qc[..len].par_iter().for_each(|slot| {
                let u = slot.load(Ordering::Acquire);
                debug_assert_ne!(u, UNMATCHED);
                let na = view.na() as VertexId;
                let consider = |v: VertexId| {
                    if mate[v as usize].load(Ordering::Acquire) != UNMATCHED {
                        return;
                    }
                    let c = candidate[v as usize].load(Ordering::SeqCst);
                    // `UNSET` only occurs with the one-side init: the right
                    // vertex never computed a candidate, so list it too.
                    if (c == u || c == UNSET)
                        && claimed[v as usize].swap(round, Ordering::AcqRel) != round
                    {
                        let idx = reprocess_tail.fetch_add(1, Ordering::AcqRel);
                        reprocess[idx].store(v, Ordering::Release);
                    }
                };
                if u < na {
                    for (b, _) in view.l.left_edges(u) {
                        consider(na + b);
                    }
                } else {
                    for (a, _) in view.l.right_edges(u - na) {
                        consider(a);
                    }
                }
            });
            let listed = reprocess_tail.load(Ordering::Acquire);
            counters.add_find_mate_reruns(listed as u64);

            // Sub-phase 2b (re-find): recompute candidates against the
            // frozen mate array. Distinct listed vertices write distinct
            // slots, so the computed values are deterministic.
            reprocess[..listed].par_iter().for_each(|slot| {
                let v = slot.load(Ordering::Acquire);
                candidate[v as usize].store(find_mate(view, v, mate), Ordering::SeqCst);
            });

            // Sub-phase 2c (match): candidates are now frozen; the
            // reciprocal pairs — and with them every counter increment —
            // are fixed before the first claim races.
            reprocess[..listed].par_iter().for_each(|slot| {
                let v = slot.load(Ordering::Acquire);
                match_vertex(view, v, mate, candidate, qn, tn, counters);
            });

            reprocess_tail.store(0, Ordering::Release);
            std::mem::swap(&mut qc, &mut qn);
            std::mem::swap(&mut tc, &mut tn);
            tn.store(0, Ordering::Release);
            counters.record_queue_len(tc.load(Ordering::Acquire) as u64);
            round += 1;
        }
    }
}

/// `FindMate` (Algorithm 2): the heaviest currently-free neighbor of
/// `s` under the total edge order, or `NO_CANDIDATE`.
pub(crate) fn find_mate(view: &UnifiedView<'_>, s: VertexId, mate: &[AtomicU32]) -> VertexId {
    let mut best_id = NO_CANDIDATE;
    let mut best_w = 0.0f64;
    view.for_each_neighbor(s, |t, w| {
        if w <= 0.0 || mate[t as usize].load(Ordering::Acquire) != UNMATCHED {
            return;
        }
        if best_id == NO_CANDIDATE || unified_edge_gt(w, s, t, best_w, s, best_id) {
            best_id = t;
            best_w = w;
        }
    });
    best_id
}

/// `MatchVertex` (Algorithm 3): match `(s, candidate[s])` when locally
/// dominant; the claim winner enqueues both endpoints.
#[allow(clippy::too_many_arguments)]
pub(crate) fn match_vertex(
    view: &UnifiedView<'_>,
    s: VertexId,
    mate: &[AtomicU32],
    candidate: &[AtomicU32],
    queue: &[AtomicU32],
    tail: &AtomicUsize,
    counters: &MatcherCounters,
) {
    let c = candidate[s as usize].load(Ordering::SeqCst);
    if c == NO_CANDIDATE || c == UNSET {
        return;
    }
    // One-side init leaves right-vertex candidates uncomputed until
    // first touched: compute on demand (once, CAS keeps the first
    // write) or the reciprocity check below would wrongly fail.
    if candidate[c as usize].load(Ordering::SeqCst) == UNSET {
        counters.add_find_mate_initial(1);
        let fm = find_mate(view, c, mate);
        let _ =
            candidate[c as usize].compare_exchange(UNSET, fm, Ordering::SeqCst, Ordering::SeqCst);
    }
    if candidate[c as usize].load(Ordering::SeqCst) != s {
        return;
    }
    // Locally dominant: claim in canonical (smaller id first) order so
    // that exactly one of the two symmetric MatchVertex calls wins.
    counters.add_match_attempts(1);
    let (lo, hi) = if s < c { (s, c) } else { (c, s) };
    if mate[lo as usize]
        .compare_exchange(UNMATCHED, hi, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {
        counters.add_matched_pairs(1);
        // Reciprocity is stable once observed (a vertex only recomputes
        // its candidate after its current candidate got matched), so the
        // partner slot is exclusively ours.
        let prev = mate[hi as usize].swap(lo, Ordering::AcqRel);
        debug_assert_eq!(prev, UNMATCHED, "partner was claimed twice");
        let idx = tail.fetch_add(2, Ordering::AcqRel);
        queue[idx].store(lo, Ordering::Release);
        queue[idx + 1].store(hi, Ordering::Release);
    } else {
        counters.add_cas_failures(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::greedy::greedy_matching;
    use crate::approx::local_dominant::serial_local_dominant;
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
    fn equals_serial_on_randoms_both_sides() {
        for seed in 0..20 {
            let l = random_l(seed, 30, 28, 0.15, false);
            let par = parallel_local_dominant(&l, l.weights(), ParallelLdOptions::default());
            let ser = serial_local_dominant(&l, l.weights());
            assert_eq!(par, ser, "seed {seed}");
        }
    }

    #[test]
    fn equals_serial_with_one_side_init() {
        let opts = ParallelLdOptions {
            init: InitStrategy::LeftSide,
        };
        for seed in 40..60 {
            let l = random_l(seed, 25, 31, 0.2, false);
            let par = parallel_local_dominant(&l, l.weights(), opts);
            let ser = serial_local_dominant(&l, l.weights());
            assert_eq!(par, ser, "seed {seed}");
        }
    }

    #[test]
    fn equals_serial_with_weight_ties() {
        for seed in 80..95 {
            let l = random_l(seed, 40, 40, 0.25, true);
            let par = parallel_local_dominant(&l, l.weights(), ParallelLdOptions::default());
            let ser = serial_local_dominant(&l, l.weights());
            assert_eq!(par, ser, "seed {seed}");
        }
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let l = random_l(7, 60, 55, 0.1, true);
        let first = parallel_local_dominant(&l, l.weights(), ParallelLdOptions::default());
        for _ in 0..10 {
            let again = parallel_local_dominant(&l, l.weights(), ParallelLdOptions::default());
            assert_eq!(first, again);
        }
    }

    #[test]
    fn matches_greedy_reference() {
        for seed in 120..135 {
            let l = random_l(seed, 20, 20, 0.3, false);
            let par = parallel_local_dominant(&l, l.weights(), ParallelLdOptions::default());
            let gr = greedy_matching(&l, l.weights());
            assert_eq!(par, gr, "seed {seed}");
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let l = BipartiteGraph::from_entries(4, 4, Vec::<(u32, u32, f64)>::new());
        let m = parallel_local_dominant(&l, l.weights(), ParallelLdOptions::default());
        assert_eq!(m.cardinality(), 0);
    }

    #[test]
    fn maximality_on_larger_instance() {
        let l = random_l(999, 200, 180, 0.05, false);
        let m = parallel_local_dominant(&l, l.weights(), ParallelLdOptions::default());
        assert!(m.is_valid(&l));
        assert!(m.is_maximal(&l, l.weights()));
    }

    /// Hand-built conflict instance with exactly known counter values.
    ///
    /// Path weights `a0 -2- b0`, `a0 -3- b1`, `a1 -1- b1`:
    /// phase 1 matches `(a0, b1)` (mutual best, weight 3) in one pair;
    /// round 1 reprocesses `b0` (candidate was `a0`) and `a1`
    /// (candidate was `b1`), both re-run FindMate and find nothing
    /// (their only positive-weight neighbors are taken); round 2 never
    /// happens because no pair matched.
    #[test]
    fn counters_exact_on_conflict_path() {
        let l = BipartiteGraph::from_entries(2, 2, vec![(0, 0, 2.0), (0, 1, 3.0), (1, 1, 1.0)]);
        let counters = MatcherCounters::new(true);
        let m = parallel_local_dominant_traced(
            &l,
            l.weights(),
            ParallelLdOptions::default(),
            &counters,
        );
        assert_eq!(m.cardinality(), 1);
        let s = counters.snapshot();
        assert_eq!(s.find_mate_initial, 4, "one FindMate per vertex in phase 1");
        assert_eq!(s.rounds, 1, "one phase-2 round drains the queue");
        assert_eq!(s.find_mate_reruns, 2, "b0 and a1 re-run FindMate");
        assert_eq!(s.match_attempts, 2, "both endpoints of (a0,b1) attempt");
        assert_eq!(s.matched_pairs, 1);
        assert_eq!(s.cas_failures, 1, "the losing endpoint of the pair");
        assert_eq!(s.queue_peak, 2, "the queue held both endpoints once");
    }

    /// A 3×3 chain of conflicts that needs a productive second round:
    /// `a0 -5- b0` and `a1`'s best (`b0`) gets taken, so `a1` falls
    /// back to `b1`, displacing `a2`'s hope in round 2.
    #[test]
    fn counters_exact_on_cascading_rounds() {
        let l = BipartiteGraph::from_entries(
            3,
            3,
            vec![
                (0, 0, 5.0),
                (1, 0, 4.0),
                (1, 1, 3.0),
                (2, 1, 2.0),
                (2, 2, 1.0),
            ],
        );
        let counters = MatcherCounters::new(true);
        let m = parallel_local_dominant_traced(
            &l,
            l.weights(),
            ParallelLdOptions::default(),
            &counters,
        );
        // Locally-dominant (= greedy by weight): (a0,b0), (a1,b1), (a2,b2).
        assert_eq!(m.cardinality(), 3);
        let s = counters.snapshot();
        assert_eq!(s.find_mate_initial, 6);
        // Phase 1 matches (a0,b0) (both endpoints attempt, one loses the
        // claim). Round 1 lists only a1 (its candidate b0 got taken);
        // its re-found candidate b1 still points at a1, so (a1,b1)
        // matches from a1's attempt alone. Round 2 likewise lists only
        // a2 and matches (a2,b2). Round 3 lists nothing and the queue
        // drains.
        assert_eq!(s.rounds, 3);
        assert_eq!(s.find_mate_reruns, 2, "a1 in round 1, a2 in round 2");
        assert_eq!(s.match_attempts, 4);
        assert_eq!(s.matched_pairs, 3);
        assert_eq!(s.cas_failures, 1);
        assert_eq!(s.queue_peak, 2);
    }

    /// Counter determinism: two traced runs on the same input produce
    /// identical snapshots (BothSides init; see module docs).
    #[test]
    fn counters_are_deterministic_across_runs() {
        let l = random_l(4242, 80, 75, 0.12, true);
        let mut snaps = Vec::new();
        for _ in 0..5 {
            let c = MatcherCounters::new(true);
            let _ =
                parallel_local_dominant_traced(&l, l.weights(), ParallelLdOptions::default(), &c);
            snaps.push(c.snapshot());
        }
        for s in &snaps[1..] {
            assert_eq!(*s, snaps[0]);
        }
    }

    /// The disabled sink records nothing and does not perturb results.
    #[test]
    fn disabled_counters_stay_zero() {
        let l = random_l(11, 30, 30, 0.2, false);
        let traced = MatcherCounters::new(true);
        let a =
            parallel_local_dominant_traced(&l, l.weights(), ParallelLdOptions::default(), &traced);
        let b = parallel_local_dominant_traced(
            &l,
            l.weights(),
            ParallelLdOptions::default(),
            MatcherCounters::disabled(),
        );
        assert_eq!(a, b);
        assert!(!traced.snapshot().is_zero());
        assert!(MatcherCounters::disabled().snapshot().is_zero());
    }
}
