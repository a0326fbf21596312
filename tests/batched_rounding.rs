//! Regression tests for BP's deferred rounding (`BP(batch=r)`,
//! paper §VI.B): the trigger `pending.len() >= 2r || k == iterations`
//! must round every heuristic vector (y and z of every iteration)
//! exactly once — including the final partial batch — and batching
//! must not change the solution when the matcher is deterministic.
//!
//! The batch partition is observed through the
//! `rounding_batch_sizes` trace counter, so these tests pin the exact
//! flush schedule, not just the end result.

use netalignmc::core::dist::{align_distributed, DistConfig};
use netalignmc::data::synthetic::{power_law_alignment, PowerLawParams};
use netalignmc::prelude::*;
use std::path::PathBuf;

fn instance(seed: u64) -> netalignmc::core::NetAlignProblem {
    power_law_alignment(&PowerLawParams {
        n: 60,
        expected_degree: 5.0,
        seed,
        ..Default::default()
    })
    .problem
}

fn cfg(iterations: usize, batch: usize) -> AlignConfig {
    AlignConfig {
        iterations,
        batch,
        matcher: MatcherKind::Exact,
        ..Default::default()
    }
}

#[test]
fn batch_partition_covers_every_vector_exactly_once() {
    // 7 iterations at batch=3: y and z are deferred (2 vectors per
    // iteration, threshold 2*3 = 6), so the flush schedule is
    // [6, 6, 2] — the trailing 2 being the final partial batch that a
    // missing `k == iterations` arm would silently drop.
    let p = instance(31);
    let r = belief_propagation(&p, &cfg(7, 3));
    assert_eq!(r.trace.algo.rounding_batch_sizes, vec![6, 6, 2]);
    assert_eq!(r.trace.algo.rounding_invocations, 3);
    assert_eq!(r.trace.algo.vectors_rounded(), 2 * 7);
}

#[test]
fn batch_one_rounds_each_iteration_immediately() {
    let p = instance(31);
    let r = belief_propagation(&p, &cfg(7, 1));
    assert_eq!(r.trace.algo.rounding_batch_sizes, vec![2; 7]);
    assert_eq!(r.trace.algo.vectors_rounded(), 2 * 7);
}

#[test]
fn exact_divisor_batch_still_flushes_only_on_threshold() {
    // batch=7 over 7 iterations: one flush of all 14 vectors at the
    // final iteration (threshold and end-of-run coincide).
    let p = instance(31);
    let r = belief_propagation(&p, &cfg(7, 7));
    assert_eq!(r.trace.algo.rounding_batch_sizes, vec![14]);
}

#[test]
fn batching_matches_immediate_rounding_with_exact_matcher() {
    // With a deterministic matcher, deferring the roundings must not
    // change which iterate wins or what it rounds to.
    let p = instance(47);
    let immediate = belief_propagation(&p, &cfg(9, 1));
    for batch in [2, 3, 4, 9, 20] {
        let deferred = belief_propagation(&p, &cfg(9, batch));
        assert_eq!(immediate.objective, deferred.objective, "batch={batch}");
        assert_eq!(immediate.matching, deferred.matching, "batch={batch}");
        assert_eq!(
            immediate.best_iteration, deferred.best_iteration,
            "batch={batch}"
        );
    }
}

#[test]
fn distributed_bp_shares_the_batch_schedule() {
    // The multi-process coordinator carries the same trigger; its
    // flush schedule and solution must agree with the shared-memory
    // aligner (it always rounds with the distributed LD matcher).
    let p = instance(53);
    let config = AlignConfig {
        iterations: 7,
        batch: 3,
        matcher: MatcherKind::ParallelLocalDominant,
        ..Default::default()
    };
    let shared = belief_propagation(&p, &config);
    // The test harness is not distributed-capable; the CLI binary is.
    let mut dc = DistConfig::new(3);
    dc.worker_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_netalignmc")));
    let dist = align_distributed(&p, &config, &dc)
        .expect("distributed run failed")
        .result;
    assert_eq!(dist.trace.algo.rounding_batch_sizes, vec![6, 6, 2]);
    assert_eq!(shared.objective, dist.objective);
    assert_eq!(shared.matching, dist.matching);
}
