//! Tier-2 fault-tolerance suite: every recovery path of the run
//! harness proved end-to-end under injected faults.
//!
//! * kill-mid-run → resume → **bit-identical** final objective,
//!   matching, bounds and counters vs the uninterrupted run, at worker
//!   pools {1, 2, 4, 8};
//! * injected NaN → rollback to the last finite iterate + damping/step
//!   recovery, never a panic or a non-finite final objective, and the
//!   recovery count lands in the JSON report;
//! * a worker panic mid-region propagates to the caller while the
//!   persistent pool stays usable for the next region;
//! * a checkpoint corrupted in flight is rejected by the loader and the
//!   resume falls back to the previous valid snapshot.
//!
//! Cargo runs this binary's tests on parallel threads within one
//! process, and the fault plan is process-global — so EVERY test here
//! takes `faults::test_lock()` first.

use netalign_core::checkpoint::{self, CheckpointError, EngineKind};
use netalign_core::config::CheckpointPolicy;
use netalign_core::prelude::*;
use netalign_core::trace::faults;
use netalign_graph::generators::{add_random_edges, identity_plus_noise_l, power_law_graph};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

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

fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "netalign-resilience-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
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
        base.upper_bound.map(f64::to_bits),
        r.upper_bound.map(f64::to_bits),
        "upper bound differs: {label}"
    );
    assert_eq!(
        base.history.len(),
        r.history.len(),
        "history length differs: {label}"
    );
    for (a, b) in base.history.iter().zip(&r.history) {
        assert_eq!(a.iteration, b.iteration, "history iteration: {label}");
        assert_eq!(
            a.objective.to_bits(),
            b.objective.to_bits(),
            "history objective differs: {label}, iteration {}",
            a.iteration
        );
        assert_eq!(
            a.weight.to_bits(),
            b.weight.to_bits(),
            "history weight differs: {label}, iteration {}",
            a.iteration
        );
        assert_eq!(
            a.overlap.to_bits(),
            b.overlap.to_bits(),
            "history overlap differs: {label}, iteration {}",
            a.iteration
        );
        assert_eq!(
            a.upper_bound.map(f64::to_bits),
            b.upper_bound.map(f64::to_bits),
            "history upper bound differs: {label}, iteration {}",
            a.iteration
        );
    }
    assert_eq!(
        base.trace.algo, r.trace.algo,
        "algo counters differ: {label}"
    );
}

/// Kill a checkpointed run at `kill_iter` via an injected panic, then
/// resume from the checkpoint directory; both legs run inside `pool`.
fn kill_and_resume(
    p: &NetAlignProblem,
    cfg: &AlignConfig,
    engine: EngineKind,
    kill_iter: u64,
    threads: usize,
) -> AlignmentResult {
    let dir = scratch_dir(&format!("kr-{}-{threads}", engine.name()));
    let step = format!("{}.step", engine.name());
    faults::install(faults::FaultPlan {
        panic: Some(faults::StepTrigger::new(step, kill_iter)),
        ..Default::default()
    });
    let harness = RunHarness::new().with_checkpoint_dir(&dir);
    let killed = catch_unwind(AssertUnwindSafe(|| {
        pool(threads).install(|| match engine {
            EngineKind::Bp => harness.run_bp(p, cfg),
            EngineKind::Mr => harness.run_mr(p, cfg),
        })
    }));
    faults::clear();
    assert!(killed.is_err(), "the injected kill must surface as a panic");
    assert!(
        !checkpoint::list_checkpoints(&dir, engine).is_empty(),
        "the killed run must have left checkpoints behind"
    );

    let resume = RunHarness::new().with_resume_from(&dir);
    let result = pool(threads)
        .install(|| match engine {
            EngineKind::Bp => resume.run_bp(p, cfg),
            EngineKind::Mr => resume.run_mr(p, cfg),
        })
        .expect("resume leg")
        .result;
    std::fs::remove_dir_all(&dir).ok();
    result
}

#[test]
fn bp_kill_and_resume_is_bit_identical_across_pools() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 16,
        batch: 3,
        record_history: true,
        ..Default::default()
    };
    let base = pool(1).install(|| belief_propagation(&p, &cfg));
    for threads in [1, 2, 4, 8] {
        let resumed = kill_and_resume(&p, &cfg, EngineKind::Bp, 9, threads);
        assert_bit_identical(&base, &resumed, &format!("BP resume at pool {threads}"));
    }
}

#[test]
fn mr_kill_and_resume_is_bit_identical_across_pools() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 16,
        record_history: true,
        ..Default::default()
    };
    let base = pool(1).install(|| matching_relaxation(&p, &cfg));
    for threads in [1, 2, 4, 8] {
        let resumed = kill_and_resume(&p, &cfg, EngineKind::Mr, 9, threads);
        assert_bit_identical(&base, &resumed, &format!("MR resume at pool {threads}"));
    }
}

#[test]
fn coarse_checkpoint_cadence_still_resumes_exactly() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 16,
        record_history: true,
        checkpoint: CheckpointPolicy {
            every_k_iters: 5,
            every_secs: 0.0,
        },
        ..Default::default()
    };
    let base = pool(1).install(|| matching_relaxation(&p, &cfg));
    // Kill at iteration 12: the newest snapshot is iteration 10, so the
    // resume replays iterations 11..16.
    let resumed = kill_and_resume(&p, &cfg, EngineKind::Mr, 12, 4);
    assert_bit_identical(&base, &resumed, "MR resume from every-5 cadence");
}

#[test]
fn bp_nan_injection_recovers_to_finite_result() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 14,
        record_history: true,
        ..Default::default()
    };
    faults::install(faults::FaultPlan {
        nan: Some(faults::StepTrigger::new("bp.damping", 5)),
        ..Default::default()
    });
    let r = belief_propagation(&p, &cfg);
    faults::clear();
    assert!(
        r.objective.is_finite(),
        "guarded BP must end finite, got {}",
        r.objective
    );
    assert!(r.matching.is_valid(&p.l));
    assert_eq!(
        r.trace.algo.numeric_recoveries, 1,
        "exactly one injected NaN, exactly one recovery"
    );
    let report = r.report_json().render();
    assert!(
        report.contains("\"numeric_recoveries\":1"),
        "recovery count missing from the JSON report: {report}"
    );
}

#[test]
fn mr_nan_injection_recovers_in_both_guard_positions() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 14,
        record_history: true,
        ..Default::default()
    };
    for step in ["mr.daxpy", "mr.update-u"] {
        faults::install(faults::FaultPlan {
            nan: Some(faults::StepTrigger::new(step, 4)),
            ..Default::default()
        });
        let r = matching_relaxation(&p, &cfg);
        faults::clear();
        assert!(
            r.objective.is_finite(),
            "guarded MR must end finite after a NaN in {step}"
        );
        assert!(r.matching.is_valid(&p.l), "invalid matching after {step}");
        assert_eq!(
            r.trace.algo.numeric_recoveries, 1,
            "one injected NaN in {step}, one recovery"
        );
        assert!(r
            .upper_bound
            .expect("MR always reports a bound")
            .is_finite());
    }
}

#[test]
fn nan_recovery_tightens_but_does_not_stop_the_run() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 12,
        record_history: true,
        ..Default::default()
    };
    let clean = belief_propagation(&p, &cfg);
    faults::install(faults::FaultPlan {
        nan: Some(faults::StepTrigger::new("bp.damping", 3)),
        ..Default::default()
    });
    let recovered = belief_propagation(&p, &cfg);
    faults::clear();
    // The rolled-back iteration stages nothing, so the recovered run
    // rounds two fewer vectors but still completes the budget.
    assert_eq!(
        recovered.history.len() + 2,
        clean.history.len(),
        "exactly the killed iteration's two roundings are missing"
    );
    assert!(recovered.objective.is_finite());
}

#[test]
fn worker_panic_propagates_and_pool_survives() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 8,
        record_history: true,
        ..Default::default()
    };
    let clean = pool(4).install(|| belief_propagation(&p, &cfg));

    // Panic on the 5th chunk claim. On this instance every data-chunked
    // region is single-chunk (len < min_len) and runs inline, but each
    // iteration's othermax `join` publishes its second half to the pool
    // — so claims accrue once per iteration and the 5th lands mid-run.
    faults::install(faults::FaultPlan {
        chunk_panic: Some(5),
        ..Default::default()
    });
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        pool(4).install(|| belief_propagation(&p, &cfg))
    }));
    faults::clear();
    assert!(outcome.is_err(), "the worker panic must reach the caller");

    // The same process-global pool machinery must run the next region
    // normally — and still bit-identically.
    let after = pool(4).install(|| belief_propagation(&p, &cfg));
    assert_bit_identical(&clean, &after, "run after a worker panic");
}

#[test]
fn corrupted_checkpoint_write_falls_back_to_previous_snapshot() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 12,
        record_history: true,
        ..Default::default()
    };
    let base = matching_relaxation(&p, &cfg);

    let dir = scratch_dir("corrupt-write");
    // Corrupt the 6th checkpoint written (iteration 6), then kill at
    // iteration 8: the scan must skip the damaged iteration-6 file (and
    // 7, 8 are fine) — kill happens before 8's write, so the newest
    // valid snapshot is iteration 7.
    faults::install(faults::FaultPlan {
        checkpoint: Some(faults::CheckpointFault {
            damage: faults::CheckpointDamage::Corrupt,
            nth_write: 6,
        }),
        panic: Some(faults::StepTrigger::new("mr.step", 8)),
        ..Default::default()
    });
    let harness = RunHarness::new().with_checkpoint_dir(&dir).with_keep(10);
    let killed = catch_unwind(AssertUnwindSafe(|| harness.run_mr(&p, &cfg)));
    faults::clear();
    assert!(killed.is_err());

    // The damaged file is still on disk and still rejected.
    let bad = dir.join(checkpoint::checkpoint_file_name(EngineKind::Mr, 6));
    match checkpoint::load_checkpoint(&bad, EngineKind::Mr, &p, &cfg) {
        Err(CheckpointError::Corrupt { .. }) | Err(CheckpointError::BadMagic { .. }) => {}
        other => panic!("damaged write must be rejected, got {other:?}"),
    }

    let resumed = RunHarness::new()
        .with_resume_from(&dir)
        .run_mr(&p, &cfg)
        .expect("resume must fall back to a valid snapshot")
        .result;
    assert_bit_identical(&base, &resumed, "resume past a corrupted write");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_checkpoint_write_is_rejected_with_typed_error() {
    let _guard = faults::test_lock();
    let p = problem();
    let cfg = AlignConfig {
        iterations: 6,
        ..Default::default()
    };
    let dir = scratch_dir("truncate-write");
    faults::install(faults::FaultPlan {
        checkpoint: Some(faults::CheckpointFault {
            damage: faults::CheckpointDamage::Truncate,
            nth_write: 6,
        }),
        ..Default::default()
    });
    RunHarness::new()
        .with_checkpoint_dir(&dir)
        .with_keep(10)
        .run_bp(&p, &cfg)
        .expect("truncation hits the file, not the writer");
    faults::clear();

    let bad = dir.join(checkpoint::checkpoint_file_name(EngineKind::Bp, 6));
    match checkpoint::load_checkpoint(&bad, EngineKind::Bp, &p, &cfg) {
        Err(CheckpointError::Corrupt { .. }) => {}
        other => panic!("truncated file must be Corrupt, got {other:?}"),
    }
    // An explicit --resume pointing at the truncated file is a hard
    // error; pointing at the directory falls back to iteration 5.
    assert!(RunHarness::new()
        .with_resume_from(&bad)
        .run_bp(&p, &cfg)
        .is_err());
    let base = belief_propagation(&p, &cfg);
    let resumed = RunHarness::new()
        .with_resume_from(&dir)
        .run_bp(&p, &cfg)
        .expect("directory resume skips the truncated file")
        .result;
    assert_eq!(base.objective.to_bits(), resumed.objective.to_bits());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_from_deadline_cut_checkpoint_is_bit_identical() {
    let _guard = faults::test_lock();
    let p = problem();
    // Preallocated LD rounding: the resume leg runs on a freshly built
    // matcher engine, exactly like a mid-run restore.
    let cfg = AlignConfig {
        iterations: 16,
        batch: 3,
        record_history: true,
        matcher: MatcherKind::ParallelLocalDominant,
        ..Default::default()
    };
    let base = pool(4).install(|| belief_propagation(&p, &cfg));

    // Deterministic deadline at iteration 7: the harness cuts a final
    // checkpoint through the same atomic tmp+rename path as mid-run
    // snapshots and returns the incumbent.
    let dir = scratch_dir("deadline-cut");
    faults::install(faults::FaultPlan {
        deadline: Some(7),
        ..Default::default()
    });
    let outcome = pool(4)
        .install(|| {
            RunHarness::new()
                .with_checkpoint_dir(&dir)
                .with_on_deadline(DeadlinePolicy::Checkpoint)
                .run_bp(&p, &cfg)
        })
        .expect("deadline leg");
    faults::clear();
    assert_eq!(outcome.completion, Completion::DeadlineBestSoFar);
    assert_eq!(outcome.iterations_run, 7);
    let cut = outcome
        .deadline_checkpoint
        .expect("the deadline stop must cut a checkpoint");
    assert!(cut.ends_with(checkpoint::checkpoint_file_name(EngineKind::Bp, 7)));

    // Resuming from the cut (with a larger budget) must replay
    // iterations 8..16 exactly as the uninterrupted run.
    let resumed = pool(4)
        .install(|| RunHarness::new().with_resume_from(&cut).run_bp(&p, &cfg))
        .expect("resume from deadline cut")
        .result;
    assert_bit_identical(&base, &resumed, "resume from a deadline-cut checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn env_driven_fault_grammar_matches_programmatic_plans() {
    let _guard = faults::test_lock();
    // The env grammar is parsed once per process; tests exercise the
    // parser directly to stay order-independent.
    let plan = faults::plan_from_env_pairs(&[
        ("NETALIGN_FAULT_NAN", "bp.damping@5"),
        ("NETALIGN_FAULT_CKPT", "corrupt@2"),
    ]);
    assert_eq!(plan.nan, Some(faults::StepTrigger::new("bp.damping", 5)));
    assert_eq!(
        plan.checkpoint,
        Some(faults::CheckpointFault {
            damage: faults::CheckpointDamage::Corrupt,
            nth_write: 2,
        })
    );
    assert_eq!(plan.panic, None);
    assert_eq!(plan.chunk_panic, None);
}
