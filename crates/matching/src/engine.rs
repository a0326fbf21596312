//! [`MatcherEngine`] — the preallocated rounding matcher that both
//! aligner engines call once per rounding step.
//!
//! The aligners of `netalign-core` round a *sequence* of weight vectors
//! over one fixed graph `L`. The free functions of [`crate::approx`]
//! treat every call as independent: they allocate a fresh working set
//! (mate/candidate/queue/reprocess arrays or proposal slots) and start
//! from nothing. This engine sizes every array the matcher touches once
//! in [`MatcherEngine::new`] and recycles it across calls, extending the
//! persistent-pool guarantee of the iteration kernels through the
//! rounding step: steady-state calls perform no heap allocation
//! (asserted by the counting allocator in
//! `crates/core/tests/alloc_free.rs`). Every call is a cold run of the
//! chosen matcher on the given weights.
//!
//! # Determinism of the packed-CAS Suitor slot
//!
//! The lock-free Suitor variant ([`crate::approx::suitor`]) packs a
//! proposal into one `u64` as `(score << 32) | proposer`, where the
//! score is the proposing edge's rank inside the target's adjacency
//! under the crate's total edge order. Scores at one target are
//! distinct (each proposer reaches it through exactly one edge), so an
//! integer `fetch_max` on the slot decides *exactly* the comparison
//! `unified_edge_gt` would. The slot value is monotonically
//! non-decreasing; a rejected proposal therefore stays rejected, a lost
//! race strictly increased the slot, and the proposal dynamics converge
//! to their unique stable fixed point — the locally-dominant matching —
//! on every schedule. That is what keeps engine results bit-identical
//! at any pool size, matching the queue-based LD matcher. (Suitor
//! *event counters* — proposals, displacements, lost races — remain
//! schedule-dependent; the determinism tests exclude them.)

use crate::approx::parallel_ld::{find_mate, ld_phase2, match_vertex, LdState, NEVER, UNSET};
use crate::approx::suitor::{extract_mates_into, propose_chain, SuitorWorkspace, EMPTY_SLOT};
use crate::approx::{degree_grains, UnifiedView};
use crate::matching::{Matching, UNMATCHED};
use netalign_graph::{BipartiteGraph, VertexId};
use netalign_trace::MatcherCounters;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Which ½-approximate matcher the engine runs per rounding call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RoundingMatcher {
    /// The paper's queue-based parallel locally-dominant algorithm
    /// (Algorithms 1–3) on recycled arrays — the default.
    #[default]
    Ld,
    /// The lock-free parallel Suitor with packed `fetch_max` slots.
    Suitor,
}

/// Preallocated rounding matcher for one fixed graph `L`. See the
/// module docs for the determinism argument.
pub struct MatcherEngine {
    kind: RoundingMatcher,
    na: usize,
    nb: usize,
    m: usize,
    n: usize,

    // Degree-aware grains over the unified vertex set (data-dependent
    // only — never pool-dependent), balancing adjacency entries so
    // power-law hubs spread across rayon tasks.
    vertex_bounds: Vec<u32>,
    entry_bounds: Vec<usize>,

    // Queue-based LD working set (kind == Ld).
    mate: Vec<AtomicU32>,
    candidate: Vec<AtomicU32>,
    q_cur: Vec<AtomicU32>,
    q_next: Vec<AtomicU32>,
    tail_cur: AtomicUsize,
    tail_next: AtomicUsize,
    reprocess: Vec<AtomicU32>,
    reprocess_tail: AtomicUsize,
    claimed: Vec<AtomicU32>,

    // Lock-free Suitor working set (kind == Suitor).
    suitor: Option<SuitorWorkspace>,

    // Recycled output.
    mate_plain: Vec<VertexId>,
    out: Matching,
}

impl MatcherEngine {
    /// Size every buffer for `l`.
    pub fn new(l: &BipartiteGraph, kind: RoundingMatcher) -> Self {
        let na = l.num_left();
        let nb = l.num_right();
        let m = l.num_edges();
        let n = na + nb;
        assert!(
            (n as u64) < u32::MAX as u64,
            "vertex count must fit the u32 mate/slot encoding"
        );
        let (vertex_bounds, entry_bounds) = degree_grains(l);
        let ld = kind == RoundingMatcher::Ld;
        let atoms = |v: u32| {
            let len = if ld { n } else { 0 };
            (0..len).map(|_| AtomicU32::new(v)).collect::<Vec<_>>()
        };
        MatcherEngine {
            kind,
            na,
            nb,
            m,
            n,
            vertex_bounds,
            entry_bounds,
            mate: atoms(UNMATCHED),
            candidate: atoms(UNSET),
            q_cur: atoms(UNMATCHED),
            q_next: atoms(UNMATCHED),
            tail_cur: AtomicUsize::new(0),
            tail_next: AtomicUsize::new(0),
            reprocess: atoms(UNMATCHED),
            reprocess_tail: AtomicUsize::new(0),
            claimed: atoms(NEVER),
            suitor: (!ld).then(|| SuitorWorkspace::new(l)),
            mate_plain: vec![UNMATCHED; n],
            out: Matching::empty(na, nb),
        }
    }

    /// The matcher variant this engine runs.
    pub fn kind(&self) -> RoundingMatcher {
        self.kind
    }

    /// Compute the ½-approximate matching of `weights` on `l` — the
    /// same graph the engine was built for — into the recycled output.
    /// Steady-state calls perform no heap allocation.
    pub fn run(
        &mut self,
        l: &BipartiteGraph,
        weights: &[f64],
        counters: &MatcherCounters,
    ) -> &Matching {
        assert_eq!(l.num_left(), self.na, "engine is bound to one graph");
        assert_eq!(l.num_right(), self.nb, "engine is bound to one graph");
        assert_eq!(l.num_edges(), self.m, "engine is bound to one graph");
        assert_eq!(weights.len(), self.m);
        match self.kind {
            RoundingMatcher::Ld => self.run_ld(l, weights, counters),
            RoundingMatcher::Suitor => self.run_suitor(l, weights, counters),
        }
        self.out.refill_from_unified(self.na, &self.mate_plain);
        &self.out
    }

    fn run_ld(&mut self, l: &BipartiteGraph, weights: &[f64], counters: &MatcherCounters) {
        let view = UnifiedView::new(l, weights);
        let vb = &self.vertex_bounds;
        let grains = vb.len() - 1;
        let (mate, candidate, claimed) = (&self.mate, &self.candidate, &self.claimed);
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

        counters.add_find_mate_initial(self.n as u64);
        (0..grains).into_par_iter().with_min_len(1).for_each(|g| {
            for v in vb[g]..vb[g + 1] {
                candidate[v as usize].store(find_mate(&view, v, mate), Ordering::SeqCst);
            }
        });
        let (q_cur, tail_cur) = (&self.q_cur, &self.tail_cur);
        (0..grains).into_par_iter().with_min_len(1).for_each(|g| {
            for v in vb[g]..vb[g + 1] {
                match_vertex(&view, v, mate, candidate, q_cur, tail_cur, counters);
            }
        });
        let st = LdState {
            mate: &self.mate,
            candidate: &self.candidate,
            q_cur: &self.q_cur,
            q_next: &self.q_next,
            tail_cur: &self.tail_cur,
            tail_next: &self.tail_next,
            reprocess: &self.reprocess,
            reprocess_tail: &self.reprocess_tail,
            claimed: &self.claimed,
        };
        ld_phase2(&view, &st, counters);
        for (v, out) in self.mate_plain.iter_mut().enumerate() {
            *out = self.mate[v].load(Ordering::Acquire);
        }
    }

    fn run_suitor(&mut self, l: &BipartiteGraph, weights: &[f64], counters: &MatcherCounters) {
        let ws = self.suitor.as_mut().expect("suitor workspace");
        ws.sort_segments(l, weights, &self.vertex_bounds, &self.entry_bounds);
        ws.slots
            .par_iter()
            .with_min_len(1024)
            .for_each(|s| s.store(EMPTY_SLOT, Ordering::Relaxed));
        let (slots, sl, sr) = (&ws.slots, &ws.score_left, &ws.score_right);
        let vb = &self.vertex_bounds;
        let grains = vb.len() - 1;
        (0..grains).into_par_iter().with_min_len(1).for_each(|g| {
            for v in vb[g]..vb[g + 1] {
                propose_chain(l, weights, slots, sl, sr, v, counters);
            }
        });
        extract_mates_into(slots, &mut self.mate_plain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::parallel_ld::ParallelLdOptions;
    use crate::approx::{parallel_local_dominant, parallel_suitor, serial_local_dominant};
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

    /// A weight sequence with progressively sparser changes, modeling a
    /// converging aligner (sign flips included to exercise the w ≤ 0
    /// paths).
    fn weight_sequence(l: &BipartiteGraph, seed: u64, steps: usize) -> Vec<Vec<f64>> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let m = l.num_edges();
        let mut w: Vec<f64> = l.weights().to_vec();
        let mut seq = vec![w.clone()];
        for s in 0..steps {
            let frac = 1.0 / (s + 1) as f64;
            for v in w.iter_mut() {
                if rng.gen_bool(frac.min(0.8)) {
                    *v += rng.gen_range(-1.5..1.5);
                }
            }
            if m > 0 {
                // Occasionally zero an edge outright.
                let e = rng.gen_range(0..m);
                if rng.gen_bool(0.5) {
                    w[e] = 0.0;
                }
            }
            seq.push(w.clone());
        }
        seq
    }

    #[test]
    fn cold_engine_matches_free_functions() {
        for seed in 0..12 {
            let l = random_l(seed, 35, 32, 0.2, seed % 2 == 0);
            let mut ld = MatcherEngine::new(&l, RoundingMatcher::Ld);
            let mut su = MatcherEngine::new(&l, RoundingMatcher::Suitor);
            let c = MatcherCounters::disabled();
            let reference = serial_local_dominant(&l, l.weights());
            assert_eq!(*ld.run(&l, l.weights(), c), reference, "seed {seed}");
            assert_eq!(*su.run(&l, l.weights(), c), reference, "seed {seed}");
            assert_eq!(
                parallel_local_dominant(&l, l.weights(), ParallelLdOptions::default()),
                reference
            );
            assert_eq!(parallel_suitor(&l, l.weights()), reference);
        }
    }

    #[test]
    fn cold_ld_engine_counters_match_legacy() {
        // The engine's cold LD path must replay the legacy algorithm
        // event-for-event, not just result-for-result.
        let l = random_l(77, 50, 45, 0.15, true);
        let legacy = MatcherCounters::new(true);
        let _ = crate::approx::parallel_local_dominant_traced(
            &l,
            l.weights(),
            ParallelLdOptions::default(),
            &legacy,
        );
        let engine = MatcherCounters::new(true);
        let mut eng = MatcherEngine::new(&l, RoundingMatcher::Ld);
        let _ = eng.run(&l, l.weights(), &engine);
        assert_eq!(engine.snapshot(), legacy.snapshot());
    }

    /// One engine reused over a weight sequence — recycled buffers,
    /// stale state from the previous call — matches the oracle on
    /// every step and emits the same counter stream as a fresh engine.
    /// One worker thread fixes the schedule, so Suitor's race counters
    /// are comparable too.
    #[test]
    fn reused_engine_matches_oracle_over_sequences() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool");
        pool.install(|| {
            for seed in 0..6 {
                let l = random_l(300 + seed, 40, 38, 0.18, seed % 2 == 0);
                let seq = weight_sequence(&l, 900 + seed, 10);
                for kind in [RoundingMatcher::Ld, RoundingMatcher::Suitor] {
                    let mut eng = MatcherEngine::new(&l, kind);
                    for (step, w) in seq.iter().enumerate() {
                        let reused = MatcherCounters::new(true);
                        assert_eq!(
                            *eng.run(&l, w, &reused),
                            serial_local_dominant(&l, w),
                            "kind {kind:?} seed {seed} step {step}"
                        );
                        let fresh = MatcherCounters::new(true);
                        let _ = MatcherEngine::new(&l, kind).run(&l, w, &fresh);
                        assert_eq!(
                            reused.snapshot(),
                            fresh.snapshot(),
                            "counters: kind {kind:?} seed {seed} step {step}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn handles_all_negative_and_empty() {
        let l = BipartiteGraph::from_entries(2, 2, vec![(0, 0, -1.0), (1, 1, -2.0)]);
        let mut eng = MatcherEngine::new(&l, RoundingMatcher::Ld);
        let c = MatcherCounters::disabled();
        assert_eq!(eng.run(&l, l.weights(), c).cardinality(), 0);
        let w = vec![3.0, -2.0];
        assert_eq!(eng.run(&l, &w, c).cardinality(), 1);
        let empty = BipartiteGraph::from_entries(3, 2, Vec::<(u32, u32, f64)>::new());
        let mut e2 = MatcherEngine::new(&empty, RoundingMatcher::Suitor);
        assert_eq!(e2.run(&empty, empty.weights(), c).cardinality(), 0);
        assert_eq!(e2.run(&empty, empty.weights(), c).cardinality(), 0);
    }
}
