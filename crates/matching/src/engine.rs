//! [`MatcherEngine`] — the rounding matcher that both aligner engines
//! call once per rounding step.
//!
//! The aligners of `netalign-core` round a *sequence* of weight vectors
//! over one fixed graph `L`, always with the one [`MatcherKind`] their
//! config names. The engine is built once per aligner for that kind
//! and recycles what it can across calls:
//!
//! * [`MatcherKind::ParallelLocalDominant`] runs the paper's
//!   queue-based algorithm (Algorithms 1–3) on mate, candidate, queue
//!   and reprocess arrays sized once in [`MatcherEngine::new`];
//! * [`MatcherKind::Greedy`] runs the sorted greedy on a recycled
//!   [`GreedyScratch`];
//! * every other kind calls [`max_weight_matching_traced`] and keeps
//!   the [`Matching`] it returns.
//!
//! The two preallocated kinds extend the persistent-pool guarantee of
//! the iteration kernels through the rounding step: their steady-state
//! calls perform no heap allocation (asserted by the counting
//! allocator in `crates/core/tests/alloc_free.rs`). Every call is a
//! cold run of the chosen matcher on the given weights, so the engine
//! returns exactly what the one-shot matcher of the same kind returns,
//! counters included.

use crate::api::{max_weight_matching_traced, MatcherKind};
use crate::approx::parallel_ld::{InitStrategy, LdWorkspace};
use crate::approx::GreedyScratch;
use crate::matching::Matching;
use netalign_graph::BipartiteGraph;
use netalign_trace::MatcherCounters;

/// Rounding matcher for one fixed graph `L`. See the module docs.
pub struct MatcherEngine {
    kind: MatcherKind,
    na: usize,
    nb: usize,
    m: usize,
    work: Work,
}

/// The per-kind working set.
enum Work {
    Ld(Box<LdWorkspace>),
    Greedy(GreedyScratch),
    OneShot(Matching),
}

impl MatcherEngine {
    /// Build the engine of `kind` for `l`.
    pub fn new(l: &BipartiteGraph, kind: MatcherKind) -> Self {
        let (na, nb) = (l.num_left(), l.num_right());
        let work = match kind {
            MatcherKind::ParallelLocalDominant => Work::Ld(Box::new(LdWorkspace::new(l))),
            MatcherKind::Greedy => Work::Greedy(GreedyScratch::new(l)),
            _ => Work::OneShot(Matching::empty(na, nb)),
        };
        MatcherEngine {
            kind,
            na,
            nb,
            m: l.num_edges(),
            work,
        }
    }

    /// The matcher this engine runs.
    pub fn kind(&self) -> MatcherKind {
        self.kind
    }

    /// Match `weights` on `l` — the same graph the engine was built
    /// for. Steady-state calls of the preallocated kinds perform no
    /// heap allocation.
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
        match &mut self.work {
            Work::Ld(ws) => ws.run(l, weights, InitStrategy::BothSides, counters),
            Work::Greedy(scratch) => scratch.run(l, weights),
            Work::OneShot(out) => {
                *out = max_weight_matching_traced(l, weights, self.kind, counters);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::parallel_ld::ParallelLdOptions;
    use crate::approx::{greedy_matching, parallel_local_dominant, serial_local_dominant};
    use crate::order::certifies_greedy;
    use rand::{Rng, SeedableRng};

    /// Every kind the engine accepts.
    const KINDS: [MatcherKind; 7] = [
        MatcherKind::Exact,
        MatcherKind::Greedy,
        MatcherKind::LocalDominant,
        MatcherKind::ParallelLocalDominant,
        MatcherKind::ParallelLocalDominantOneSide,
        MatcherKind::PathGrowing,
        MatcherKind::Auction { eps_rel: 1e-4 },
    ];

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
            let mut ld = MatcherEngine::new(&l, MatcherKind::ParallelLocalDominant);
            let mut gr = MatcherEngine::new(&l, MatcherKind::Greedy);
            let c = MatcherCounters::disabled();
            let reference = serial_local_dominant(&l, l.weights());
            assert_eq!(*ld.run(&l, l.weights(), c), reference, "seed {seed}");
            assert_eq!(*gr.run(&l, l.weights(), c), reference, "seed {seed}");
            assert_eq!(
                parallel_local_dominant(&l, l.weights(), ParallelLdOptions::default()),
                reference
            );
            assert_eq!(greedy_matching(&l, l.weights()), reference);
            assert!(certifies_greedy(&l, l.weights(), &reference), "seed {seed}");
        }
    }

    /// One engine reused over a weight sequence — recycled buffers,
    /// stale state from the previous call — matches the oracle on
    /// every step, passes the greedy certificate, and emits the same
    /// counter stream as a fresh engine.
    #[test]
    fn reused_engine_matches_oracle_over_sequences() {
        for seed in 0..6 {
            let l = random_l(300 + seed, 40, 38, 0.18, seed % 2 == 0);
            let seq = weight_sequence(&l, 900 + seed, 10);
            for kind in [MatcherKind::ParallelLocalDominant, MatcherKind::Greedy] {
                let mut eng = MatcherEngine::new(&l, kind);
                for (step, w) in seq.iter().enumerate() {
                    let reused = MatcherCounters::new(true);
                    let m = eng.run(&l, w, &reused);
                    assert_eq!(
                        *m,
                        serial_local_dominant(&l, w),
                        "kind {kind:?} seed {seed} step {step}"
                    );
                    assert!(
                        certifies_greedy(&l, w, m),
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
    }

    /// Every kind returns exactly the one-shot matcher's matching, and
    /// the locally-dominant kinds pass the greedy certificate on random
    /// graphs with ties, zero and negative weights.
    #[test]
    fn every_kind_matches_its_one_shot_matcher() {
        for seed in 0..4 {
            let l = random_l(500 + seed, 24, 22, 0.25, seed % 2 == 0);
            for kind in KINDS {
                let mut eng = MatcherEngine::new(&l, kind);
                assert_eq!(eng.kind(), kind);
                for (step, w) in weight_sequence(&l, 700 + seed, 6).iter().enumerate() {
                    let c = MatcherCounters::disabled();
                    let m = eng.run(&l, w, c);
                    assert_eq!(*m, max_weight_matching_traced(&l, w, kind, c));
                    assert!(m.is_valid(&l));
                    if kind.is_locally_dominant() {
                        assert!(
                            certifies_greedy(&l, w, m),
                            "kind {kind:?} seed {seed} step {step}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn handles_all_negative_and_empty() {
        let l = BipartiteGraph::from_entries(2, 2, vec![(0, 0, -1.0), (1, 1, -2.0)]);
        let c = MatcherCounters::disabled();
        for kind in KINDS {
            let mut eng = MatcherEngine::new(&l, kind);
            assert_eq!(eng.run(&l, l.weights(), c).cardinality(), 0, "{kind:?}");
            let w = vec![3.0, -2.0];
            assert_eq!(eng.run(&l, &w, c).cardinality(), 1, "{kind:?}");
        }
        let empty = BipartiteGraph::from_entries(3, 2, Vec::<(u32, u32, f64)>::new());
        for kind in [MatcherKind::ParallelLocalDominant, MatcherKind::Greedy] {
            let mut e2 = MatcherEngine::new(&empty, kind);
            assert_eq!(e2.run(&empty, empty.weights(), c).cardinality(), 0);
            assert_eq!(e2.run(&empty, empty.weights(), c).cardinality(), 0);
        }
    }
}
