//! Property tests for incremental re-alignment: a delta replay must be
//! bit-identical to a cold solve of the patched problem at every pool
//! size, for mixed deltas (reweights, candidate inserts/removes and
//! structural A-edge toggles), whether the replay stays sparse or
//! escapes to the engines mid-run.

use netalign_core::config::AlignConfig;
use netalign_core::delta::{DeltaBase, GraphDelta, ProblemDelta};
use netalign_core::prelude::belief_propagation;
use netalign_core::problem::NetAlignProblem;
use netalign_core::result::AlignmentResult;
use netalign_graph::generators::{add_random_edges, identity_plus_noise_l, power_law_graph};
use netalign_matching::MatcherKind;
use proptest::prelude::*;

const POOLS: [usize; 4] = [1, 2, 4, 8];

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

fn instance(n: usize, seed: u64) -> NetAlignProblem {
    let g = power_law_graph(n, 2.5, 10, seed);
    let a = add_random_edges(&g, 0.03, seed + 1);
    let b = add_random_edges(&g, 0.03, seed + 2);
    let l = identity_plus_noise_l(n, n, 5.0 / n as f64, 1.0, 1.0, seed + 3);
    NetAlignProblem::new(a, b, l)
}

fn cfg(iterations: usize, batch: usize) -> AlignConfig {
    AlignConfig {
        iterations,
        batch,
        matcher: MatcherKind::ParallelLocalDominant,
        final_exact_round: true,
        record_history: true,
        ..Default::default()
    }
}

/// A mixed delta derived from proptest selectors: candidate reweights on
/// a coarse grid (exact in f64), at most one candidate insert, at most
/// one candidate expiry, and at most one structural A-edge toggle.
fn build_delta(
    p: &NetAlignProblem,
    reweights: &[(usize, u32)],
    insert_l: bool,
    remove_l: bool,
    toggle_a: bool,
) -> ProblemDelta {
    let m = p.l.num_edges();
    let mut delta = ProblemDelta::default();
    let mut touched = std::collections::BTreeSet::new();

    // Expire one candidate first so reweights can skip it.
    if remove_l && m > 1 {
        let (a, b) = p.l.endpoints(m / 2);
        delta.l.remove.push((a, b));
        touched.insert((a, b));
    }
    for &(pick, grid) in reweights {
        let (a, b) = p.l.endpoints(pick % m);
        if touched.insert((a, b)) {
            delta.l.reweight.push((a, b, (grid % 16 + 1) as f64 / 4.0));
        }
    }
    if insert_l {
        'scan: for a in 0..p.l.num_left() as u32 {
            for b in 0..p.l.num_right() as u32 {
                if p.l.edge_id(a, b).is_none() && !touched.contains(&(a, b)) {
                    delta.l.insert.push((a, b, 0.75));
                    break 'scan;
                }
            }
        }
    }
    if toggle_a {
        if let Some((u, v)) = p.a.edges().next() {
            delta.a = GraphDelta {
                remove: vec![(u, v)],
                ..Default::default()
            };
        }
    }
    delta
}

fn cold_solve(p: &NetAlignProblem, delta: &ProblemDelta, config: &AlignConfig) -> AlignmentResult {
    let a2 = delta.a.apply(&p.a).unwrap();
    let b2 = delta.b.apply(&p.b).unwrap();
    let l2 = delta.l.apply(&p.l).unwrap().graph;
    belief_propagation(&NetAlignProblem::new(a2, b2, l2), config)
}

fn assert_bit_identical(r: &AlignmentResult, c: &AlignmentResult) {
    assert_eq!(&r.matching, &c.matching);
    assert_eq!(r.objective.to_bits(), c.objective.to_bits());
    assert_eq!(r.weight.to_bits(), c.weight.to_bits());
    assert_eq!(r.overlap.to_bits(), c.overlap.to_bits());
    assert_eq!(r.best_iteration, c.best_iteration);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Delta replay ≡ cold solve of the patched problem, bitwise, at
    /// pools {1, 2, 4, 8} — and every pool agrees with every other.
    #[test]
    fn delta_replay_matches_cold_across_pools(
        n in 24usize..40,
        seed in 0u64..1000,
        batch in 1usize..3,
        reweights in proptest::collection::vec((0usize..1usize << 16, 0u32..64), 1..6),
        insert_l in 0u32..2,
        remove_l in 0u32..2,
        toggle_a in 0u32..2,
    ) {
        let p = instance(n, seed);
        let config = cfg(8, batch);
        let delta = build_delta(&p, &reweights, insert_l == 1, remove_l == 1, toggle_a == 1);

        let mut reference: Option<AlignmentResult> = None;
        for threads in POOLS {
            let (replayed, cold) = pool(threads).install(|| {
                let (_, mut base) = DeltaBase::record(p.clone(), config).unwrap();
                let (replayed, stats) = base.apply(&delta).unwrap();
                prop_assert!(stats.delta_reused_iterations >= 1, "{} threads", threads);
                (replayed, cold_solve(&p, &delta, &config))
            });
            assert_bit_identical(&replayed, &cold);
            match &reference {
                None => reference = Some(replayed),
                Some(r) => assert_bit_identical(&replayed, r),
            }
        }
    }
}
