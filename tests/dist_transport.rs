//! Distributed execution over real sockets: the multi-process BP
//! engine (`netalign_core::dist`) must give the in-process engine's
//! results bit for bit — objective, matching, weight, overlap, best
//! iteration and history — at every worker count. A one-ulp drift in
//! an iterate rarely moves a rounding, so these checks cannot pin the
//! iterates; `dist::worker`'s unit test in the core crate compares
//! those after every iteration. The distributed LD matcher must keep
//! its guarantees (validity, half-approximation, termination,
//! maximality) when half its routed messages are dropped on the wire —
//! the socket counterparts of the message-fault unit tests in
//! `netalign_matching::distributed`.
//!
//! Every test here spawns actual worker *processes* (the `netalignmc`
//! binary re-entering through `maybe_run_worker`) and talks to them
//! over localhost TCP — nothing is simulated.

use netalignmc::core::dist::{align_distributed, match_distributed, DistConfig, DistReport};
use netalignmc::core::NetAlignProblem;
use netalignmc::data::synthetic::{power_law_alignment, PowerLawParams};
use netalignmc::prelude::*;
use std::path::PathBuf;

fn instance(seed: u64) -> NetAlignProblem {
    power_law_alignment(&PowerLawParams {
        n: 80,
        expected_degree: 5.0,
        seed,
        ..Default::default()
    })
    .problem
}

fn cfg(iterations: usize) -> AlignConfig {
    AlignConfig {
        iterations,
        matcher: MatcherKind::ParallelLocalDominant,
        ..Default::default()
    }
}

/// The worker executable: the test harness itself is not
/// distributed-capable, so point every run at the real CLI binary.
fn dist_config(workers: usize) -> DistConfig {
    let mut dc = DistConfig::new(workers);
    dc.worker_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_netalignmc")));
    dc
}

fn run(p: &NetAlignProblem, config: &AlignConfig, dc: &DistConfig) -> DistReport {
    align_distributed(p, config, dc).expect("distributed run failed")
}

#[test]
fn bit_identical_to_in_process_engine_at_every_worker_count() {
    let p = instance(3);
    let config = cfg(10);
    let shared = belief_propagation(&p, &config);
    // Odd counts give uneven partitions of the left vertices.
    for workers in [1, 2, 3, 4, 5] {
        let report = run(&p, &config, &dist_config(workers));
        let dist = report.result;
        assert_eq!(
            dist.objective.to_bits(),
            shared.objective.to_bits(),
            "workers {workers}"
        );
        assert_eq!(dist.matching, shared.matching, "workers {workers}");
        assert_eq!(
            dist.best_iteration, shared.best_iteration,
            "workers {workers}"
        );
        assert_eq!(
            dist.weight.to_bits(),
            shared.weight.to_bits(),
            "workers {workers}"
        );
        assert_eq!(
            dist.overlap.to_bits(),
            shared.overlap.to_bits(),
            "workers {workers}"
        );
    }
}

#[test]
fn history_and_final_exact_round_match_in_process() {
    let p = instance(7);
    let config = AlignConfig {
        iterations: 6,
        batch: 3,
        record_history: true,
        final_exact_round: true,
        ..cfg(6)
    };
    let shared = belief_propagation(&p, &config);
    let report = run(&p, &config, &dist_config(2));
    let dist = report.result;
    assert_eq!(dist.objective.to_bits(), shared.objective.to_bits());
    assert_eq!(dist.matching, shared.matching);
    assert_eq!(shared.history.len(), dist.history.len());
    for (a, b) in shared.history.iter().zip(dist.history.iter()) {
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    }
}

#[test]
fn more_workers_than_left_vertices_still_valid() {
    let p = instance(9);
    let config = cfg(3);
    // The partition caps ranks at |V_A|; asking for an absurd worker
    // count must degrade to that cap, not wedge or crash.
    let report = run(&p, &config, &dist_config(64));
    assert!(report.result.matching.is_valid(&p.l));
}

/// Exact optimum for the half-approximation bound.
fn exact_weight(p: &NetAlignProblem) -> f64 {
    max_weight_matching(&p.l, p.l.weights(), MatcherKind::Exact).weight(&p.l, p.l.weights())
}

/// 50% injected loss on real sockets: the coordinator discards every
/// 2nd routed matcher message, flipping the workers into the
/// loss-tolerant retransmission protocol. Completing at all proves
/// termination (a wedged protocol hangs the test); the matching must
/// be valid, maximal, and within the ½-approximation bound.
#[test]
fn matcher_survives_fifty_percent_message_loss_over_sockets() {
    for seed in [5, 11] {
        let p = instance(seed);
        let half = exact_weight(&p) / 2.0;
        for workers in [2, 4] {
            let mut dc = dist_config(workers);
            dc.matcher_msg_drop = Some(2);
            let m = match_distributed(&p, p.l.weights(), &dc).expect("lossy matcher run failed");
            assert!(m.is_valid(&p.l), "seed {seed} workers {workers}");
            assert!(
                m.is_maximal(&p.l, p.l.weights()),
                "seed {seed} workers {workers}"
            );
            let w = m.weight(&p.l, p.l.weights());
            assert!(
                w + 1e-9 >= half,
                "half-approximation violated over sockets: {w} < {half} \
                 (seed {seed} workers {workers})"
            );
        }
    }
}

/// Lighter loss rates must also converge — and because the
/// locally-dominant fixed point is unique, every loss rate (including
/// none) lands on the same matching.
#[test]
fn message_loss_does_not_change_the_fixed_point() {
    let p = instance(13);
    let clean =
        match_distributed(&p, p.l.weights(), &dist_config(2)).expect("clean matcher run failed");
    assert!(clean.is_valid(&p.l));
    for drop_every in [2, 3, 7] {
        let mut dc = dist_config(3);
        dc.matcher_msg_drop = Some(drop_every);
        let lossy = match_distributed(&p, p.l.weights(), &dc).expect("lossy matcher run failed");
        assert_eq!(lossy, clean, "drop_every {drop_every}");
    }
}

/// A full BP run whose every per-iteration rounding goes through the
/// lossy matcher path still reproduces the fault-free result exactly.
#[test]
fn full_run_under_matcher_loss_is_bit_identical() {
    let p = instance(17);
    let config = cfg(8);
    let clean = run(&p, &config, &dist_config(2)).result;
    let mut dc = dist_config(2);
    dc.matcher_msg_drop = Some(2);
    let lossy = run(&p, &config, &dc).result;
    assert_eq!(lossy.objective.to_bits(), clean.objective.to_bits());
    assert_eq!(lossy.matching, clean.matching);
}
