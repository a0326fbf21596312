//! A pinned oracle for BP's pipelined rounding: `round_pending` hands a
//! due flush to the next `step`, which rounds it beside its own passes.
//! No iterate reads a rounding, so every run here must reproduce,
//! bit for bit, the results of the engine that rounded each flush on
//! the spot — the constants in [`PINNED`] were computed with it. Each
//! path below meets a flush in flight at iteration [`K`]:
//!
//! * a clean run (every flush handed over, the last one completed by
//!   `finish_in_place`);
//! * an injected deadline at `K` (`discard_pending` completes it);
//! * a cancel landing at the `NETALIGN_FAULT_HOLD` point `K`, and a
//!   deadline cancel landing there that cuts a checkpoint;
//! * a cancel armed before step `K + 1`, whose region unwinds at its
//!   first chunk claim with the flush still in flight, followed by
//!   `discard_pending` and `finish_in_place`;
//! * an injected `bp.step` panic at `K + 1` in a run that checkpoints
//!   every iteration, resumed from the newest checkpoint;
//! * a deadline-cut checkpoint at `K` (its bytes pinned too), resumed
//!   to completion;
//! * ladder rung 2 (`force_cheap_rounding`) right after the flush of
//!   `K` was handed over, matcher counters included.
//!
//! Each runs at batch 1 and batch 4, at installed pools 1 and 2, on
//! the `bp-ontology` stand-in (lcsh-wiki at scale 0.00065, seed 1,
//! rounded as netalignd rounds) and on a §VI.A power-law instance
//! rounded with parallel LD, so a lane's matcher nests its own regions.
//!
//! The fault plan is process-global, so every test takes
//! `faults::test_lock()` first.

use netalign_core::bp::BpEngine;
use netalign_core::checkpoint::{self, EngineKind};
use netalign_core::prelude::*;
use netalign_core::trace::{cancel, faults};
use netalign_data::standins::StandIn;
use netalign_data::synthetic::{power_law_alignment, PowerLawParams};
use netalign_graph::nacs::fnv1a64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The iteration every path stops, checkpoints or switches matcher at.
/// A flush is due there at both batch sizes.
const K: usize = 8;

/// What a run must reproduce: the objective's bits, the best iteration,
/// and FNV-1a digests of the matching, of every history entry's
/// iteration and objective bits, of `trace.algo`, of the matcher
/// counters, and of the checkpoint file the path cut (0 when none).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pin {
    objective: u64,
    best_iteration: usize,
    matching: u64,
    history: u64,
    algo: u64,
    matcher: u64,
    file: u64,
}

impl Pin {
    fn of(r: &AlignmentResult, file: u64) -> Pin {
        let history: Vec<_> = r
            .history
            .iter()
            .map(|h| (h.iteration, h.objective.to_bits()))
            .collect();
        Pin {
            objective: r.objective.to_bits(),
            best_iteration: r.best_iteration,
            matching: digest(r.matching.left_mates()),
            history: digest(&history),
            algo: digest(&r.trace.algo),
            matcher: digest(&r.trace.matcher),
            file,
        }
    }
}

fn digest(x: &(impl std::fmt::Debug + ?Sized)) -> u64 {
    fnv1a64(format!("{x:?}").as_bytes())
}

/// `(instance, batch, path, pin)`.
#[rustfmt::skip]
const PINNED: &[(&str, usize, &str, Pin)] = &[
    ("ontology", 1, "clean", Pin { objective: 4643344050334132809, best_iteration: 30, matching: 8284448590284621817, history: 15224392346759681539, algo: 9138812378702549827, matcher: 9982879742925041447, file: 0 }),
    ("ontology", 1, "deadline", Pin { objective: 4641525584663382343, best_iteration: 5, matching: 9565567401485692594, history: 6374453157284663784, algo: 3784240686714208901, matcher: 9982879742925041447, file: 0 }),
    ("ontology", 1, "hold-cancel", Pin { objective: 4641525584663382343, best_iteration: 5, matching: 9565567401485692594, history: 6374453157284663784, algo: 3784240686714208901, matcher: 9982879742925041447, file: 0 }),
    ("ontology", 1, "hold-deadline", Pin { objective: 4641525584663382343, best_iteration: 5, matching: 9565567401485692594, history: 6374453157284663784, algo: 3784240686714208901, matcher: 9982879742925041447, file: 4974267287817281453 }),
    ("ontology", 1, "step-cancel", Pin { objective: 4641525584663382343, best_iteration: 5, matching: 9565567401485692594, history: 6374453157284663784, algo: 3784240686714208901, matcher: 9982879742925041447, file: 0 }),
    ("ontology", 1, "panic-resume", Pin { objective: 4643344050334132809, best_iteration: 30, matching: 8284448590284621817, history: 15224392346759681539, algo: 9138812378702549827, matcher: 9982879742925041447, file: 0 }),
    ("ontology", 1, "checkpoint-resume", Pin { objective: 4643344050334132809, best_iteration: 30, matching: 8284448590284621817, history: 15224392346759681539, algo: 9138812378702549827, matcher: 9982879742925041447, file: 4974267287817281453 }),
    ("ontology", 1, "cheap-rounding", Pin { objective: 4643344050334132809, best_iteration: 30, matching: 8284448590284621817, history: 15224392346759681539, algo: 9138812378702549827, matcher: 9982879742925041447, file: 0 }),
    ("ontology", 4, "clean", Pin { objective: 4643344050334132809, best_iteration: 30, matching: 8284448590284621817, history: 15224392346759681539, algo: 11253007082841993608, matcher: 9982879742925041447, file: 0 }),
    ("ontology", 4, "deadline", Pin { objective: 4641525584663382343, best_iteration: 5, matching: 9565567401485692594, history: 6374453157284663784, algo: 11603922978864790591, matcher: 9982879742925041447, file: 0 }),
    ("ontology", 4, "hold-cancel", Pin { objective: 4641525584663382343, best_iteration: 5, matching: 9565567401485692594, history: 6374453157284663784, algo: 11603922978864790591, matcher: 9982879742925041447, file: 0 }),
    ("ontology", 4, "hold-deadline", Pin { objective: 4641525584663382343, best_iteration: 5, matching: 9565567401485692594, history: 6374453157284663784, algo: 11603922978864790591, matcher: 9982879742925041447, file: 1783438415942347743 }),
    ("ontology", 4, "step-cancel", Pin { objective: 4641525584663382343, best_iteration: 5, matching: 9565567401485692594, history: 6374453157284663784, algo: 11603922978864790591, matcher: 9982879742925041447, file: 0 }),
    ("ontology", 4, "panic-resume", Pin { objective: 4643344050334132809, best_iteration: 30, matching: 8284448590284621817, history: 15224392346759681539, algo: 11253007082841993608, matcher: 9982879742925041447, file: 0 }),
    ("ontology", 4, "checkpoint-resume", Pin { objective: 4643344050334132809, best_iteration: 30, matching: 8284448590284621817, history: 15224392346759681539, algo: 11253007082841993608, matcher: 9982879742925041447, file: 1783438415942347743 }),
    ("ontology", 4, "cheap-rounding", Pin { objective: 4643344050334132809, best_iteration: 30, matching: 8284448590284621817, history: 15224392346759681539, algo: 11253007082841993608, matcher: 9982879742925041447, file: 0 }),
    ("power-law", 1, "clean", Pin { objective: 4644442668842090496, best_iteration: 9, matching: 11517466943796206915, history: 15982332297511269149, algo: 8493939879454680986, matcher: 14650481672480219059, file: 0 }),
    ("power-law", 1, "deadline", Pin { objective: 4644389892283957248, best_iteration: 8, matching: 6821504348551597269, history: 721624172026502505, algo: 16594477287708496866, matcher: 8755209832120466841, file: 0 }),
    ("power-law", 1, "hold-cancel", Pin { objective: 4644389892283957248, best_iteration: 8, matching: 6821504348551597269, history: 721624172026502505, algo: 16594477287708496866, matcher: 8755209832120466841, file: 0 }),
    ("power-law", 1, "hold-deadline", Pin { objective: 4644389892283957248, best_iteration: 8, matching: 6821504348551597269, history: 721624172026502505, algo: 16594477287708496866, matcher: 8755209832120466841, file: 8088141325358933553 }),
    ("power-law", 1, "step-cancel", Pin { objective: 4644389892283957248, best_iteration: 8, matching: 6821504348551597269, history: 721624172026502505, algo: 16594477287708496866, matcher: 8755209832120466841, file: 0 }),
    ("power-law", 1, "panic-resume", Pin { objective: 4644442668842090496, best_iteration: 9, matching: 11517466943796206915, history: 15982332297511269149, algo: 8493939879454680986, matcher: 14650481672480219059, file: 0 }),
    ("power-law", 1, "checkpoint-resume", Pin { objective: 4644442668842090496, best_iteration: 9, matching: 11517466943796206915, history: 15982332297511269149, algo: 8493939879454680986, matcher: 14650481672480219059, file: 8088141325358933553 }),
    ("power-law", 1, "cheap-rounding", Pin { objective: 4644442668842090496, best_iteration: 9, matching: 11517466943796206915, history: 15982332297511269149, algo: 8493939879454680986, matcher: 3390548257583889282, file: 0 }),
    ("power-law", 4, "clean", Pin { objective: 4644442668842090496, best_iteration: 9, matching: 11517466943796206915, history: 15982332297511269149, algo: 10041235342894130760, matcher: 14650481672480219059, file: 0 }),
    ("power-law", 4, "deadline", Pin { objective: 4644389892283957248, best_iteration: 8, matching: 6821504348551597269, history: 721624172026502505, algo: 9042042395482615696, matcher: 8755209832120466841, file: 0 }),
    ("power-law", 4, "hold-cancel", Pin { objective: 4644389892283957248, best_iteration: 8, matching: 6821504348551597269, history: 721624172026502505, algo: 9042042395482615696, matcher: 8755209832120466841, file: 0 }),
    ("power-law", 4, "hold-deadline", Pin { objective: 4644389892283957248, best_iteration: 8, matching: 6821504348551597269, history: 721624172026502505, algo: 9042042395482615696, matcher: 8755209832120466841, file: 10159963875694134110 }),
    ("power-law", 4, "step-cancel", Pin { objective: 4644389892283957248, best_iteration: 8, matching: 6821504348551597269, history: 721624172026502505, algo: 9042042395482615696, matcher: 8755209832120466841, file: 0 }),
    ("power-law", 4, "panic-resume", Pin { objective: 4644442668842090496, best_iteration: 9, matching: 11517466943796206915, history: 15982332297511269149, algo: 10041235342894130760, matcher: 14650481672480219059, file: 0 }),
    ("power-law", 4, "checkpoint-resume", Pin { objective: 4644442668842090496, best_iteration: 9, matching: 11517466943796206915, history: 15982332297511269149, algo: 10041235342894130760, matcher: 14650481672480219059, file: 10159963875694134110 }),
    ("power-law", 4, "cheap-rounding", Pin { objective: 4644442668842090496, best_iteration: 9, matching: 11517466943796206915, history: 15982332297511269149, algo: 10041235342894130760, matcher: 3390548257583889282, file: 0 }),
];

struct Instance {
    name: &'static str,
    problem: NetAlignProblem,
    config: AlignConfig,
}

fn instances() -> &'static [Instance] {
    static INSTANCES: OnceLock<Vec<Instance>> = OnceLock::new();
    INSTANCES.get_or_init(|| {
        vec![
            Instance {
                name: "ontology",
                problem: StandIn::LcshWiki.generate(0.00065, 1).problem,
                config: AlignConfig {
                    iterations: 50,
                    matcher: MatcherKind::Greedy,
                    final_exact_round: true,
                    trace_matcher: true,
                    record_history: true,
                    ..Default::default()
                },
            },
            Instance {
                name: "power-law",
                problem: power_law_alignment(&PowerLawParams {
                    n: 100,
                    seed: 2,
                    ..Default::default()
                })
                .problem,
                config: AlignConfig {
                    iterations: 24,
                    matcher: MatcherKind::ParallelLocalDominant,
                    trace_matcher: true,
                    record_history: true,
                    ..Default::default()
                },
            },
        ]
    })
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
        "netalign-pipelined-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run `path` on every instance at batch 1 and 4 and pools 1 and 2,
/// and check each run against [`PINNED`]. `run` returns the result and
/// the digest of the checkpoint file it cut, if any. On a mismatch the
/// message lists every run's actual pin in the table's own syntax.
fn check(path: &str, run: impl Fn(&NetAlignProblem, &AlignConfig) -> (AlignmentResult, u64)) {
    let _guard = faults::test_lock();
    let (mut table, mut wrong) = (String::new(), Vec::new());
    for inst in instances() {
        for batch in [1, 4] {
            let cfg = AlignConfig {
                batch,
                ..inst.config
            };
            let pinned = PINNED
                .iter()
                .find(|(i, b, p, _)| *i == inst.name && *b == batch && *p == path)
                .map(|e| e.3);
            for threads in [1, 2] {
                let (r, file) = pool(threads).install(|| run(&inst.problem, &cfg));
                assert!(r.matching.is_valid(&inst.problem.l));
                let pin = Pin::of(&r, file);
                if threads == 1 {
                    table += &format!("    ({:?}, {batch}, {path:?}, {pin:?}),\n", inst.name);
                }
                if pinned != Some(pin) {
                    wrong.push(format!("{} batch {batch} pool {threads}", inst.name));
                }
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "{path}: differs from the pinned results at {wrong:?}; this build's pins:\n{table}"
    );
}

#[test]
fn clean_runs_match_the_pins() {
    check("clean", |p, cfg| (belief_propagation(p, cfg), 0));
}

#[test]
fn injected_deadline_completes_the_flush_in_flight() {
    check("deadline", |p, cfg| {
        faults::install(faults::FaultPlan {
            deadline: Some(K as u64),
            ..Default::default()
        });
        let outcome = RunHarness::new().run_bp(p, cfg);
        faults::clear();
        let outcome = outcome.expect("budgeted run");
        assert_eq!(outcome.completion, Completion::DeadlineBestSoFar);
        assert_eq!(outcome.iterations_run, K);
        (outcome.result, 0)
    });
}

/// Run `harness` with a fresh token that a helper cancels with `reason`
/// once the run holds at the `NETALIGN_FAULT_HOLD` point `K`.
fn run_cancelled_at_hold(
    harness: RunHarness,
    reason: CancelReason,
    p: &NetAlignProblem,
    cfg: &AlignConfig,
) -> Result<AlignOutcome, HarnessError> {
    faults::install(faults::plan_from_env_pairs(&[(
        "NETALIGN_FAULT_HOLD",
        &K.to_string(),
    )]));
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            while faults::holds_reached() == 0 && !token.is_cancelled() {
                std::thread::yield_now();
            }
            token.cancel(reason);
        })
    };
    let outcome = harness.with_cancel_token(token.clone()).run_bp(p, cfg);
    token.cancel(reason);
    canceller.join().expect("canceller thread");
    faults::clear();
    outcome
}

#[test]
fn cancel_at_the_hold_point_completes_the_flush_in_flight() {
    check("hold-cancel", |p, cfg| {
        let outcome = run_cancelled_at_hold(RunHarness::new(), CancelReason::Manual, p, cfg)
            .expect("cancelled run still returns an outcome");
        assert_eq!(outcome.completion, Completion::Cancelled);
        assert_eq!(outcome.iterations_run, K);
        (outcome.result, 0)
    });
}

/// A real deadline cancels the run's token before the harness cuts its
/// checkpoint, so completing the flush in flight for the snapshot must
/// not unwind.
#[test]
fn deadline_cancel_at_the_hold_point_cuts_a_checkpoint() {
    check("hold-deadline", |p, cfg| {
        let dir = scratch_dir("hold");
        let harness = RunHarness::new()
            .with_checkpoint_dir(&dir)
            .with_on_deadline(DeadlinePolicy::Checkpoint);
        let outcome = run_cancelled_at_hold(harness, CancelReason::Deadline, p, cfg)
            .expect("a deadline stop returns an outcome");
        assert_eq!(outcome.completion, Completion::DeadlineBestSoFar);
        assert_eq!(outcome.iterations_run, K);
        let cut = outcome
            .deadline_checkpoint
            .expect("the deadline stop must cut a checkpoint");
        let file = fnv1a64(&std::fs::read(&cut).expect("read the cut checkpoint"));
        std::fs::remove_dir_all(&dir).ok();
        (outcome.result, file)
    });
}

#[test]
fn cancel_inside_the_next_step_completes_the_flush_in_flight() {
    check("step-cancel", |p, cfg| {
        let token = CancelToken::new();
        let scope = cancel::register(token.clone());
        let prev = rayon::set_cancel_scope(scope);
        let mut engine = BpEngine::new(p, cfg);
        for _ in 0..K {
            engine.step();
            if engine.rounding_due() {
                engine.round_pending();
            }
            engine.end_iteration();
        }
        token.cancel(CancelReason::Manual);
        let unwound = catch_unwind(AssertUnwindSafe(|| engine.step()));
        rayon::set_cancel_scope(prev);
        cancel::deregister(scope);
        let payload = unwound.expect_err("the armed cancel must unwind step K + 1");
        assert!(payload.downcast_ref::<rayon::RegionCancelled>().is_some());
        engine.discard_pending();
        (engine.finish_in_place(), 0)
    });
}

#[test]
fn panic_in_the_next_step_resumes_from_the_newest_checkpoint() {
    check("panic-resume", |p, cfg| {
        let dir = scratch_dir("panic");
        faults::install(faults::FaultPlan {
            panic: Some(faults::StepTrigger::new("bp.step", K as u64 + 1)),
            ..Default::default()
        });
        let killed = catch_unwind(AssertUnwindSafe(|| {
            RunHarness::new().with_checkpoint_dir(&dir).run_bp(p, cfg)
        }));
        faults::clear();
        assert!(killed.is_err(), "the injected kill must surface as a panic");
        let newest = checkpoint::list_checkpoints(&dir, EngineKind::Bp);
        assert!(newest
            .iter()
            .any(|f| f.ends_with(checkpoint::checkpoint_file_name(EngineKind::Bp, K))));
        let resumed = RunHarness::new()
            .with_resume_from(&dir)
            .run_bp(p, cfg)
            .expect("resume leg");
        std::fs::remove_dir_all(&dir).ok();
        (resumed.result, 0)
    });
}

#[test]
fn checkpoint_with_a_flush_in_flight_resumes_to_completion() {
    check("checkpoint-resume", |p, cfg| {
        let dir = scratch_dir("cut");
        faults::install(faults::FaultPlan {
            deadline: Some(K as u64),
            ..Default::default()
        });
        let outcome = RunHarness::new()
            .with_checkpoint_dir(&dir)
            .with_on_deadline(DeadlinePolicy::Checkpoint)
            .run_bp(p, cfg);
        faults::clear();
        let cut = outcome
            .expect("deadline leg")
            .deadline_checkpoint
            .expect("the deadline stop must cut a checkpoint");
        let file = fnv1a64(&std::fs::read(&cut).expect("read the cut checkpoint"));
        let resumed = RunHarness::new()
            .with_resume_from(&cut)
            .run_bp(p, cfg)
            .expect("resume from the cut");
        std::fs::remove_dir_all(&dir).ok();
        (resumed.result, file)
    });
}

#[test]
fn cheap_rounding_right_after_a_hand_over_keeps_the_counters() {
    check("cheap-rounding", |p, cfg| {
        let mut engine = BpEngine::new(p, cfg);
        while engine.iteration() < cfg.iterations {
            engine.step();
            if engine.rounding_due() {
                engine.round_pending();
            }
            engine.end_iteration();
            if engine.iteration() == K {
                engine.force_cheap_rounding();
            }
        }
        (engine.finish(), 0)
    });
}
