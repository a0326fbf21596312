//! Tier-2 deadline/anytime suite: cooperative cancellation, injected
//! deterministic deadlines, and pool reuse after a cancelled region.
//!
//! * a cancelled token unwinds the current parallel region within one
//!   chunk (the runtime's distinguished `RegionCancelled` payload), the
//!   harness converts it into a clean `Cancelled` outcome, and the
//!   persistent pool stays reusable — the next run is **bit-identical**
//!   to an undisturbed one;
//! * an injected deadline (`NETALIGN_FAULT_DEADLINE` / the programmatic
//!   plan) stops both engines at the same iteration at every pool size,
//!   with identical best-so-far results — wall-clock never decides what
//!   a completed iteration computes;
//! * completions, cancel reasons and the degradation-ladder rung are
//!   reported faithfully.
//!
//! Cancel tokens are registered in a *scoped* registry keyed by the
//! runtime's per-thread cancel scope, so a latched token only ever
//! stops its own run — concurrent harness runs are independent (see
//! `concurrent_harness_runs_cancel_independently`). The fault plan is
//! still process-global, so EVERY test in this binary takes
//! `faults::test_lock()` first.

use netalign_core::prelude::*;
use netalign_core::trace::faults;
use netalign_graph::generators::{add_random_edges, identity_plus_noise_l, power_law_graph};

fn problem() -> NetAlignProblem {
    let g = power_law_graph(70, 2.4, 12, 31);
    let a = add_random_edges(&g, 0.03, 32);
    let b = add_random_edges(&g, 0.03, 33);
    let l = identity_plus_noise_l(70, 70, 5.0 / 70.0, 1.0, 1.0, 34);
    NetAlignProblem::new(a, b, l)
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

fn assert_bit_identical(base: &AlignmentResult, r: &AlignmentResult, label: &str) {
    assert_eq!(
        base.objective.to_bits(),
        r.objective.to_bits(),
        "objective differs: {label}"
    );
    assert_eq!(base.matching, r.matching, "matching differs: {label}");
    assert_eq!(
        base.best_iteration, r.best_iteration,
        "best iteration differs: {label}"
    );
    assert_eq!(
        base.history.len(),
        r.history.len(),
        "history length differs: {label}"
    );
    for (a, b) in base.history.iter().zip(&r.history) {
        assert_eq!(
            a.objective.to_bits(),
            b.objective.to_bits(),
            "history objective differs: {label}, iteration {}",
            a.iteration
        );
    }
}

#[test]
fn injected_deadline_is_deterministic_across_pools_bp() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 16,
        batch: 3,
        record_history: true,
        ..Default::default()
    };
    // The reference: an undisturbed run with the iteration budget cut
    // to the injected deadline. A deadline stop at iteration k must be
    // indistinguishable from "the budget was k all along".
    let short = pool(1).install(|| {
        belief_propagation(
            &p,
            &AlignConfig {
                iterations: 6,
                ..cfg
            },
        )
    });
    for threads in [1, 2, 4, 8] {
        faults::install(faults::FaultPlan {
            deadline: Some(6),
            ..Default::default()
        });
        let outcome = pool(threads)
            .install(|| RunHarness::new().run_bp(&p, &cfg))
            .expect("budgeted run");
        faults::clear();
        assert_eq!(outcome.completion, Completion::DeadlineBestSoFar);
        assert_eq!(outcome.iterations_run, 6, "pool {threads}");
        assert_eq!(outcome.ladder_rung, 3);
        assert_bit_identical(
            &short,
            &outcome.result,
            &format!("BP injected deadline at pool {threads}"),
        );
    }
}

#[test]
fn injected_deadline_is_deterministic_across_pools_mr() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 16,
        record_history: true,
        ..Default::default()
    };
    let short = pool(1).install(|| {
        matching_relaxation(
            &p,
            &AlignConfig {
                iterations: 9,
                ..cfg
            },
        )
    });
    for threads in [1, 2, 4, 8] {
        faults::install(faults::FaultPlan {
            deadline: Some(9),
            ..Default::default()
        });
        let outcome = pool(threads)
            .install(|| RunHarness::new().run_mr(&p, &cfg))
            .expect("budgeted run");
        faults::clear();
        assert_eq!(outcome.completion, Completion::DeadlineBestSoFar);
        assert_eq!(outcome.iterations_run, 9, "pool {threads}");
        // MR's best-so-far matches the short run except the final upper
        // bound (`finish` folds the current objective in) — covered by
        // assert_bit_identical which skips `upper_bound` here on
        // purpose: both runs call finish() at the same iterate, so it
        // is compared via the objective/history instead.
        assert_bit_identical(
            &short,
            &outcome.result,
            &format!("MR injected deadline at pool {threads}"),
        );
    }
}

#[test]
fn cancelled_region_leaves_pool_reusable_bit_identically() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 10,
        batch: 2,
        record_history: true,
        ..Default::default()
    };
    for threads in [1, 2, 4, 8] {
        let pool = pool(threads);
        let clean = pool.install(|| belief_propagation(&p, &cfg));

        // A pre-cancelled token: the very first parallel region of the
        // run observes it at its first chunk claim and unwinds with the
        // runtime's distinguished payload. The harness converts that
        // into a clean Cancelled outcome (never a panic).
        let token = CancelToken::new();
        token.cancel(CancelReason::Manual);
        let outcome = pool
            .install(|| {
                RunHarness::new()
                    .with_cancel_token(token.clone())
                    .run_bp(&p, &cfg)
            })
            .expect("cancelled run still returns an outcome");
        assert_eq!(outcome.completion, Completion::Cancelled);
        assert_eq!(outcome.cancel_reason, Some(CancelReason::Manual));
        assert_eq!(
            outcome.iterations_run, 0,
            "cancel landed before any boundary"
        );
        assert!(
            outcome.result.objective.is_finite(),
            "best-so-far assembly must be complete, got {}",
            outcome.result.objective
        );

        // The same pool must run the next region normally — and still
        // bit-identically: no worker died, no chunk state leaked.
        let after = pool.install(|| belief_propagation(&p, &cfg));
        assert_bit_identical(
            &clean,
            &after,
            &format!("run after a cancelled region at pool {threads}"),
        );
    }
}

#[test]
fn mid_run_cancellation_keeps_completed_iterations() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 12,
        batch: 2,
        record_history: true,
        ..Default::default()
    };
    // The hold point stops the run at the end of iteration 3 until its
    // token is cancelled; the helper thread cancels once the run is
    // held, so the cancel lands at that boundary at every pool size.
    faults::install(faults::plan_from_env_pairs(&[("NETALIGN_FAULT_HOLD", "3")]));
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            while faults::holds_reached() == 0 && !token.is_cancelled() {
                std::thread::yield_now();
            }
            token.cancel(CancelReason::Manual);
        })
    };
    let outcome = pool(4).install(|| {
        RunHarness::new()
            .with_cancel_token(token.clone())
            .run_bp(&p, &cfg)
    });
    // Releases the helper should the run have ended without holding.
    token.cancel(CancelReason::Manual);
    canceller.join().expect("canceller thread");
    faults::clear();
    let outcome = outcome.expect("cancelled run still returns an outcome");
    assert_eq!(outcome.completion, Completion::Cancelled);
    assert_eq!(outcome.cancel_reason, Some(CancelReason::Manual));
    assert!(
        outcome.iterations_run < 12,
        "the cancel must stop the run early, ran {}",
        outcome.iterations_run
    );
    assert_eq!(outcome.iterations_run, 3, "the cancel lands at the hold");
    assert!(outcome.result.objective.is_finite());
    assert!(outcome.result.matching.is_valid(&p.l));
}

#[test]
fn watchdog_reason_is_reported_as_cancelled() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 8,
        ..Default::default()
    };
    // The watchdog thread itself is unit-tested in the trace crate;
    // here we prove the harness maps its reason to a clean outcome.
    let token = CancelToken::new();
    token.cancel(CancelReason::Watchdog);
    let outcome = pool(2)
        .install(|| RunHarness::new().with_cancel_token(token).run_mr(&p, &cfg))
        .expect("watchdog-cancelled run still returns an outcome");
    assert_eq!(outcome.completion, Completion::Cancelled);
    assert_eq!(outcome.cancel_reason, Some(CancelReason::Watchdog));
}

#[test]
fn deadline_env_grammar_parses() {
    let _guard = faults::test_lock();
    let plan = faults::plan_from_env_pairs(&[("NETALIGN_FAULT_DEADLINE", "7")]);
    assert_eq!(plan.deadline, Some(7));
    assert_eq!(plan.panic, None);
    let none = faults::plan_from_env_pairs(&[]);
    assert!(none.is_empty());
}

#[test]
fn soft_iteration_budget_escalates_but_completes() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 10,
        batch: 2,
        record_history: true,
        ..Default::default()
    };
    // A zero-width soft budget pressures the ladder every iteration but
    // must never terminate the run: the full budget completes, capped
    // at rung 2 (forced cheap rounding).
    let outcome = pool(4)
        .install(|| {
            RunHarness::new()
                .with_time_budget(TimeBudget {
                    deadline: None,
                    soft_iteration: Some(std::time::Duration::ZERO),
                })
                .run_bp(&p, &cfg)
        })
        .expect("soft-budget run");
    assert_eq!(outcome.completion, Completion::Completed);
    assert_eq!(outcome.iterations_run, 10);
    assert!(
        (1..=2).contains(&outcome.ladder_rung),
        "soft pressure must climb the ladder without stopping, rung {}",
        outcome.ladder_rung
    );
    assert!(outcome.result.objective.is_finite());
}

/// Ladder rung 2 switches rounding to greedy, which returns the same
/// unique matching as the locally-dominant matcher it replaces, and
/// rung 1 only defers BP's rounding. So a run pressured up to rung 2
/// is bit-identical to the unpressured one: matching, objective bits,
/// best iteration and the whole history.
#[test]
fn soft_budget_rung_two_is_result_neutral() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 10,
        batch: 2,
        matcher: MatcherKind::ParallelLocalDominant,
        record_history: true,
        ..Default::default()
    };
    let harness = RunHarness::new().with_time_budget(TimeBudget {
        deadline: None,
        soft_iteration: Some(std::time::Duration::ZERO),
    });
    let (bp, mr) = pool(4).install(|| (harness.run_bp(&p, &cfg), harness.run_mr(&p, &cfg)));
    let pressured = [bp.expect("soft-budget BP"), mr.expect("soft-budget MR")];
    let unpressured = [
        netalign_core::belief_propagation(&p, &cfg),
        netalign_core::matching_relaxation(&p, &cfg),
    ];
    for (outcome, reference) in pressured.iter().zip(&unpressured) {
        assert_eq!(outcome.completion, Completion::Completed);
        assert_eq!(outcome.ladder_rung, 2, "zero-width budget reaches rung 2");
        let r = &outcome.result;
        assert_eq!(r.matching, reference.matching);
        assert_eq!(r.objective.to_bits(), reference.objective.to_bits());
        assert_eq!(r.best_iteration, reference.best_iteration);
        assert_eq!(
            r.upper_bound.map(f64::to_bits),
            reference.upper_bound.map(f64::to_bits)
        );
        assert_eq!(r.history.len(), reference.history.len());
        for (h, rh) in r.history.iter().zip(&reference.history) {
            assert_eq!(h.iteration, rh.iteration);
            assert_eq!(h.objective.to_bits(), rh.objective.to_bits());
            assert_eq!(
                h.upper_bound.map(f64::to_bits),
                rh.upper_bound.map(f64::to_bits)
            );
        }
    }
}

#[test]
fn concurrent_harness_runs_cancel_independently() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 12,
        record_history: true,
        ..Default::default()
    };
    let reference = netalign_core::belief_propagation(&p, &cfg);

    // Two harness runs overlap in one process, each with its own
    // registered token. Cancelling the long run must not disturb the
    // short one: tokens live in a scoped registry, not a single
    // process-global slot.
    let start = std::sync::Arc::new(std::sync::Barrier::new(3));
    let victim_token = CancelToken::new();
    let victim = std::thread::spawn({
        let p = p.clone();
        let token = victim_token.clone();
        let start = std::sync::Arc::clone(&start);
        move || {
            let long = AlignConfig {
                iterations: 1_000_000,
                ..Default::default()
            };
            start.wait();
            RunHarness::new()
                .with_cancel_token(token)
                .run_bp(&p, &long)
                .expect("cancelled run still returns an outcome")
        }
    });
    let bystander = std::thread::spawn({
        let p = p.clone();
        let start = std::sync::Arc::clone(&start);
        move || {
            start.wait();
            RunHarness::new()
                .with_cancel_token(CancelToken::new())
                .run_bp(&p, &cfg)
                .expect("bystander run")
        }
    });
    start.wait();
    std::thread::sleep(std::time::Duration::from_millis(30));
    victim_token.cancel(CancelReason::Manual);

    let victim_outcome = victim.join().expect("victim thread");
    let bystander_outcome = bystander.join().expect("bystander thread");
    assert_eq!(victim_outcome.completion, Completion::Cancelled);
    assert_eq!(victim_outcome.cancel_reason, Some(CancelReason::Manual));
    assert_eq!(
        bystander_outcome.completion,
        Completion::Completed,
        "a sibling run's cancellation leaked into this run"
    );
    assert_eq!(bystander_outcome.iterations_run, 12);
    assert_bit_identical(
        &reference,
        &bystander_outcome.result,
        "bystander vs undisturbed",
    );
}

/// BP hands a due rounding flush to the next step. A stop completes
/// that flush in flight only while its cancel scope lets it — the
/// harness's fires at the run's clock deadline — and a cancelled
/// completion drops the whole flush, as a step cancelled while
/// rounding would: the incumbent and history end at the iteration
/// before, and the result is still a valid matching.
#[test]
fn cancelled_completion_drops_the_flush_in_flight() {
    use netalign_core::bp::BpEngine;
    use netalign_core::trace::cancel;
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 12,
        record_history: true,
        ..Default::default()
    };
    for threads in [1, 2, 4] {
        let r = pool(threads).install(|| {
            let mut engine = BpEngine::new(&p, &cfg);
            for _ in 0..6 {
                engine.step();
                engine.round_pending();
                engine.end_iteration();
            }
            let token = CancelToken::new();
            token.cancel(CancelReason::Deadline);
            let scope = cancel::register(token);
            rayon::with_cancel_scope(scope, || engine.discard_pending());
            cancel::deregister(scope);
            engine.finish_in_place()
        });
        let last = r.history.last().map(|h| h.iteration);
        assert_eq!(
            last,
            Some(5),
            "pool {threads}: the flush of iteration 6 must be dropped"
        );
        assert_eq!(r.history.len(), 10, "pool {threads}");
        assert!(r.best_iteration <= 5, "pool {threads}");
        assert!(r.matching.is_valid(&p.l), "pool {threads}");
    }
}
