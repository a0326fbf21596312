//! Property tests for incremental re-alignment: a delta replay must be
//! bit-identical to a cold solve of the patched problem at every pool
//! size, for mixed deltas (reweights, candidate inserts/removes and
//! structural A-edge toggles), whether the replay stays sparse or
//! escapes to the engines mid-run. Bit-identical means the result and
//! the whole advanced trajectory: every recorded iterate `y`, `z`,
//! `S⁽ᵏ⁾` and every stage equals a cold recording's, byte for byte.
//! A rounded result alone would not show a one-ulp drift in the
//! replayed rows, since such a drift rarely changes a matching.

use netalign_core::checkpoint::PayloadWriter;
use netalign_core::config::AlignConfig;
use netalign_core::delta::{
    record_bp, BpTrajectory, CandidateDelta, DeltaBase, DeltaStats, GraphDelta, ProblemDelta,
};
use netalign_core::prelude::belief_propagation;
use netalign_core::problem::NetAlignProblem;
use netalign_core::result::AlignmentResult;
use netalign_core::trace::faults;
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

fn patched(p: &NetAlignProblem, delta: &ProblemDelta) -> NetAlignProblem {
    let a2 = delta.a.apply(&p.a).unwrap();
    let b2 = delta.b.apply(&p.b).unwrap();
    let l2 = delta.l.apply(&p.l).unwrap().graph;
    NetAlignProblem::new(a2, b2, l2)
}

fn trajectory_bytes(t: &BpTrajectory) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    t.serialize_into(&mut w);
    w.into_bytes()
}

/// Apply `delta` to a recorded base of `p` and check the replay against
/// a cold solve of the patched problem bit for bit, and the advanced
/// trajectory against a cold recording's byte for byte. Returns the
/// replay's result and stats.
fn replay_matches_cold_recording(
    p: &NetAlignProblem,
    delta: &ProblemDelta,
    config: &AlignConfig,
) -> (AlignmentResult, DeltaStats) {
    // Recording and an escape step real engines, whose step is a fault
    // point.
    let _guard = faults::test_lock();
    let (_, mut base) = DeltaBase::record(p.clone(), *config).unwrap();
    let (replayed, stats) = base.apply(delta).unwrap();
    let p2 = patched(p, delta);
    assert_bit_identical(&replayed, &belief_propagation(&p2, config));
    let (_, cold_traj) = record_bp(&p2, config).unwrap();
    let advanced = base
        .trajectory()
        .expect("a successful apply keeps the trajectory");
    assert!(
        trajectory_bytes(advanced) == trajectory_bytes(&cold_traj),
        "advanced trajectory differs from a cold recording ({stats:?})"
    );
    (replayed, stats)
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
    /// pools {1, 2, 4, 8}, its advanced trajectory ≡ a cold recording
    /// byte for byte — and every pool agrees with every other.
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
            let replayed = pool(threads).install(|| {
                let (replayed, stats) = replay_matches_cold_recording(&p, &delta, &config);
                prop_assert!(stats.delta_reused_iterations >= 1, "{} threads", threads);
                replayed
            });
            match &reference {
                None => reference = Some(replayed),
                Some(r) => assert_bit_identical(&replayed, r),
            }
        }
    }
}

/// netalignd's delta shape (perfbench's `serve-mix`): 150 vertices, two
/// iterations, 1% of the candidates reweighted to multiples of 1/16.
/// The replay stays sparse to the end.
#[test]
fn serve_mix_shaped_reweight_replays_the_cold_trajectory() {
    let n = 150;
    let g = power_law_graph(n, 2.2, 40, 0x5eed + 1);
    let a = add_random_edges(&g, 2.0 / n as f64, 3);
    let b = add_random_edges(&g, 2.0 / n as f64, 4);
    let l = identity_plus_noise_l(n, n, 24.0 / n as f64, 1.0, 0.5, 8);
    let p = NetAlignProblem::new(a, b, l);
    let m = p.l.num_edges();
    let reweight = (0..m.div_ceil(100))
        .map(|i| {
            let e = i * 97 % m;
            let (a, b) = p.l.endpoints(e);
            (a, b, (17 + e % 47) as f64 / 16.0)
        })
        .collect();
    let delta = ProblemDelta {
        l: CandidateDelta {
            reweight,
            ..Default::default()
        },
        ..Default::default()
    };
    let config = AlignConfig {
        iterations: 2,
        matcher: MatcherKind::Greedy,
        final_exact_round: true,
        ..Default::default()
    };
    let (_, stats) = replay_matches_cold_recording(&p, &delta, &config);
    assert_eq!(stats.escaped_at, None);
    assert_eq!(stats.delta_reused_iterations, 2);
}

/// A structural delta: one candidate expired, one inserted, one edge of
/// `A` removed and one of `B` inserted.
#[test]
fn structural_delta_replays_the_cold_trajectory() {
    let p = instance(36, 5);
    let mut delta = build_delta(&p, &[(7, 3), (19, 40)], true, true, true);
    'b: for u in 0..p.b.num_vertices() as u32 {
        for v in (u + 1)..p.b.num_vertices() as u32 {
            if !p.b.has_edge(u, v) {
                delta.b.insert.push((u, v));
                break 'b;
            }
        }
    }
    let (_, stats) = replay_matches_cold_recording(&p, &delta, &cfg(8, 2));
    assert!(stats.delta_reused_iterations >= 1);
    assert!(stats.squares.rows_reused > 0);
}

/// A delta reweighting half the candidates escapes at once, and the
/// resumed engine records the rest of the trajectory.
#[test]
fn wide_delta_escapes_and_replays_the_cold_trajectory() {
    let p = instance(120, 41);
    for batch in [1, 3] {
        let reweight = (0..p.l.num_edges())
            .step_by(2)
            .map(|e| {
                let (a, b) = p.l.endpoints(e);
                (a, b, 1.0 + (e % 7) as f64 * 0.25)
            })
            .collect();
        let delta = ProblemDelta {
            l: CandidateDelta {
                reweight,
                ..Default::default()
            },
            ..Default::default()
        };
        let (_, stats) = replay_matches_cold_recording(&p, &delta, &cfg(9, batch));
        assert!(stats.escaped_at.is_some(), "batch {batch}");
    }
}
