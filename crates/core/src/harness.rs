//! Fault-tolerant, deadline-aware run driver: the engine loops of
//! [`crate::bp::belief_propagation`] / [`crate::mr::matching_relaxation`]
//! wrapped with policy-driven checkpointing, resume, cooperative
//! cancellation, and a graceful-degradation ladder.
//!
//! ```text
//! let harness = RunHarness::new().with_checkpoint_dir("ckpts");
//! let outcome = harness.run_bp(&problem, &config)?;  // writes snapshots
//! // ... process dies mid-run ...
//! let outcome = RunHarness::new()
//!     .with_resume_from("ckpts")                     // newest valid file
//!     .with_checkpoint_dir("ckpts")
//!     .run_bp(&problem, &config)?;                   // bit-identical tail
//! ```
//!
//! Because every kernel reduction is deterministic at every pool size,
//! a resumed run reproduces the uninterrupted run *exactly*: same
//! objective history, same matching, same bounds, same counters — only
//! wall-clock timings differ. The resilience test suite asserts this
//! bit-for-bit at pools {1, 2, 4, 8}.
//!
//! Resume semantics:
//!
//! * a **file** path must load cleanly — any validation failure is a
//!   hard [`CheckpointError`];
//! * a **directory** path is scanned newest-first and damaged or
//!   mismatched files are skipped, so a checkpoint corrupted in flight
//!   falls back to the previous valid snapshot; the error list becomes
//!   hard only when *no* file validates. An empty directory starts a
//!   fresh run (the kill may have predated the first snapshot).
//!
//! # Deadlines and anytime execution
//!
//! Both aligners are anytime algorithms: every rounded iterate is a
//! feasible solution and the engines track the best one seen. A
//! [`TimeBudget`] turns that property into a service guarantee — a
//! budgeted run *always* returns an [`AlignOutcome`] whose
//! [`Completion`] says how it ended:
//!
//! * `Completed` — the full iteration budget ran;
//! * `DeadlineBestSoFar` — the time budget expired (or an expiry was
//!   predicted within one more iteration); the result is the incumbent
//!   best-so-far matching, fully assembled, never a half-written state;
//! * `Cancelled` — the run's [`CancelToken`] was cancelled (manual
//!   request or watchdog-detected stall).
//!
//! Cancellation is cooperative at two granularities: the vendored
//! runtime probes the run's token once per *chunk claim* (a cancelled
//! parallel region unwinds within one chunk of work per participant,
//! with the pool reusable afterward), and the harness probes at
//! *iteration boundaries*, where stopping is deterministic. A stop
//! rounds BP's flush in flight only until the clock deadline; a
//! checkpoint snapshot rounds it regardless, at most one flush.
//!
//! Under pressure — an EWMA of per-iteration cost approaching the
//! remaining budget — the harness climbs a degradation ladder *before*
//! the deadline: (1) BP escalates the rounding batch (`BP(batch=r)`),
//! (2) both engines switch to greedy rounding, (3) the run
//! cuts a final checkpoint (same atomic tmp+rename path as mid-run
//! snapshots) and returns best-so-far. The ladder sheds only *rounding
//! frequency and matcher cost*; completed iterations are never
//! approximated retroactively, so a run stopped at iteration `k` with a
//! given ladder state is bit-identical at every pool size. The
//! deterministic deadline tests pin the stop with
//! `NETALIGN_FAULT_DEADLINE=<iter>` instead of a wall clock.

use crate::bp::BpEngine;
use crate::checkpoint::{
    checkpoint_file_name, load_checkpoint, load_latest_checkpoint, prune_checkpoints,
    write_checkpoint, CheckpointError, CheckpointState, EngineKind,
};
use crate::config::{AlignConfig, CheckpointPolicy, TimeBudget};
use crate::delta::{self, BpTrajectory, DeltaBase, DeltaError, DeltaStats, ProblemDelta};
use crate::mr::MrEngine;
use crate::problem::NetAlignProblem;
use crate::result::AlignmentResult;
use crate::trace::cancel::{self, CancelReason, CancelToken, Watchdog};
use crate::trace::faults;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How a harness-driven run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// The configured iteration budget ran to the end.
    Completed,
    /// The time budget expired (or its expiry was predicted within one
    /// more iteration); the result is the best-so-far incumbent.
    DeadlineBestSoFar,
    /// The run's cancel token fired (manual request or watchdog stall);
    /// the result is the best-so-far incumbent.
    Cancelled,
}

impl Completion {
    /// Stable kebab-case label for JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            Completion::Completed => "completed",
            Completion::DeadlineBestSoFar => "deadline-best-so-far",
            Completion::Cancelled => "cancelled",
        }
    }
}

/// Result of a harness-driven run: the assembled alignment plus how the
/// run ended. The result is always fully assembled — best-so-far
/// matching, objective, history, counters — regardless of completion.
#[derive(Clone, Debug)]
pub struct AlignOutcome {
    /// The alignment (the incumbent best-so-far on early stops).
    pub result: AlignmentResult,
    /// How the run ended.
    pub completion: Completion,
    /// Aligner iterations fully completed before the stop.
    pub iterations_run: usize,
    /// Why the cancel token fired, when it did.
    pub cancel_reason: Option<CancelReason>,
    /// Highest degradation-ladder rung engaged (0 = none, 1 = batch
    /// escalation, 2 = forced cheap rounding, 3 = final cut).
    pub ladder_rung: u8,
    /// The deadline-cut checkpoint, when one was written.
    pub deadline_checkpoint: Option<PathBuf>,
}

impl AlignOutcome {
    /// Wrap a result produced outside the harness (a direct engine
    /// call) as a normally completed outcome, so callers can treat
    /// harnessed and direct runs uniformly.
    pub fn completed(result: AlignmentResult, iterations_run: usize) -> Self {
        AlignOutcome {
            result,
            completion: Completion::Completed,
            iterations_run,
            cancel_reason: None,
            ladder_rung: 0,
            deadline_checkpoint: None,
        }
    }
}

/// What the harness does when the time budget expires.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeadlinePolicy {
    /// Return the best-so-far result (cutting a final checkpoint too
    /// when a checkpoint directory is configured). The default.
    #[default]
    BestSoFar,
    /// Like `BestSoFar`, but a checkpoint directory is expected — the
    /// run is meant to be resumed with a larger budget later.
    Checkpoint,
    /// Treat expiry as a failure: [`HarnessError::DeadlineExceeded`].
    Error,
}

/// Errors a harness run can surface.
#[derive(Debug)]
pub enum HarnessError {
    /// Checkpoint write/load failure.
    Checkpoint(CheckpointError),
    /// The time budget expired under [`DeadlinePolicy::Error`].
    DeadlineExceeded {
        /// Iterations fully completed before expiry.
        iterations_run: usize,
    },
    /// A delta record/replay failure (malformed delta, unrecordable
    /// config, or a base whose trajectory cannot be replayed).
    Delta(DeltaError),
}

impl From<CheckpointError> for HarnessError {
    fn from(e: CheckpointError) -> Self {
        HarnessError::Checkpoint(e)
    }
}

impl From<DeltaError> for HarnessError {
    fn from(e: DeltaError) -> Self {
        HarnessError::Delta(e)
    }
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Checkpoint(e) => write!(f, "{e}"),
            HarnessError::DeadlineExceeded { iterations_run } => write!(
                f,
                "time budget expired after {iterations_run} iterations (deadline policy: error)"
            ),
            HarnessError::Delta(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Checkpoint(e) => Some(e),
            HarnessError::DeadlineExceeded { .. } => None,
            HarnessError::Delta(e) => Some(e),
        }
    }
}

/// Checkpoint/resume + deadline wrapper around the BP and MR engines.
#[derive(Clone, Debug, Default)]
pub struct RunHarness {
    checkpoint_dir: Option<PathBuf>,
    resume_from: Option<PathBuf>,
    keep: usize,
    budget: TimeBudget,
    on_deadline: DeadlinePolicy,
    watchdog_stall: Option<Duration>,
    cancel_token: Option<CancelToken>,
}

impl RunHarness {
    /// Plain harness: no checkpoints, no resume, no time budget
    /// (identical to calling the wrapper functions directly).
    pub fn new() -> Self {
        RunHarness {
            checkpoint_dir: None,
            resume_from: None,
            keep: 3,
            budget: TimeBudget::unbounded(),
            on_deadline: DeadlinePolicy::BestSoFar,
            watchdog_stall: None,
            cancel_token: None,
        }
    }

    /// Write snapshots into `dir` (created on demand). The cadence
    /// comes from [`AlignConfig::checkpoint`]; when that policy is
    /// disabled, a directory implies checkpointing every iteration.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Resume from `path`: either a specific checkpoint file (must
    /// validate — hard error otherwise) or a directory (newest valid
    /// snapshot wins; empty directory starts fresh).
    pub fn with_resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// How many snapshots to retain per engine (older ones are pruned
    /// after each write; default 3, so one corrupted write still leaves
    /// validated fallbacks).
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// Bound the run by `budget` (see [`TimeBudget`]).
    pub fn with_time_budget(mut self, budget: TimeBudget) -> Self {
        self.budget = budget;
        self
    }

    /// What to do when the budget expires (default: best-so-far).
    pub fn with_on_deadline(mut self, policy: DeadlinePolicy) -> Self {
        self.on_deadline = policy;
        self
    }

    /// Arm a watchdog: when no heartbeat (chunk claim or iteration) is
    /// observed for `stall`, the run is cancelled cleanly with a
    /// `Watchdog` reason instead of hanging. Cooperative — a loop that
    /// never reaches a probe point can only be reported, not recovered.
    pub fn with_watchdog(mut self, stall: Duration) -> Self {
        self.watchdog_stall = Some(stall);
        self
    }

    /// Drive the run through an externally owned token, so a caller
    /// (service handler, signal hook, test) can cancel it mid-flight.
    /// Overrides the token the harness would otherwise build from
    /// [`TimeBudget::deadline`] — give the external token a deadline of
    /// its own if both are wanted.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel_token = Some(token);
        self
    }

    /// The effective cadence: an explicit policy wins; a checkpoint
    /// directory with the policy disabled means every iteration.
    fn effective_policy(&self, config: &AlignConfig) -> CheckpointPolicy {
        if config.checkpoint.is_enabled() {
            config.checkpoint
        } else if self.checkpoint_dir.is_some() {
            CheckpointPolicy {
                every_k_iters: 1,
                every_secs: 0.0,
            }
        } else {
            CheckpointPolicy::disabled()
        }
    }

    /// Resolve the configured resume source into a validated state.
    fn resolve_resume(
        &self,
        engine: EngineKind,
        p: &NetAlignProblem,
        config: &AlignConfig,
    ) -> Result<Option<CheckpointState>, CheckpointError> {
        let Some(src) = &self.resume_from else {
            return Ok(None);
        };
        if src.is_dir() {
            match load_latest_checkpoint(src, engine, p, config) {
                Ok(Some((_, state))) => Ok(Some(state)),
                Ok(None) => Ok(None),
                // Every candidate failed: surface the newest file's
                // error (the one a user most likely cares about).
                Err(mut attempts) => Err(attempts.swap_remove(0).1),
            }
        } else {
            load_checkpoint(src, engine, p, config).map(Some)
        }
    }

    fn write_snapshot(
        dir: &Path,
        engine: EngineKind,
        k: usize,
        p: &NetAlignProblem,
        config: &AlignConfig,
        state: &CheckpointState,
        keep: usize,
    ) -> Result<PathBuf, CheckpointError> {
        let path = dir.join(checkpoint_file_name(engine, k));
        write_checkpoint(&path, p, config, state)?;
        prune_checkpoints(dir, engine, keep);
        Ok(path)
    }

    /// Run belief propagation under this harness.
    pub fn run_bp(
        &self,
        p: &NetAlignProblem,
        config: &AlignConfig,
    ) -> Result<AlignOutcome, HarnessError> {
        let mut engine = BpEngine::new(p, config);
        if let Some(CheckpointState::Bp(state)) = self.resolve_resume(EngineKind::Bp, p, config)? {
            engine.restore_state(state);
        }
        let policy = self.effective_policy(config);
        let mut driver = BudgetDriver::new(self);
        let mut iters_since = 0usize;
        let mut last_write = Instant::now();
        let mut completed = engine.iteration();
        let mut stop: Option<Stop> = None;
        // A periodic snapshot completes the flush in flight outside the
        // timed step, so its time counts toward the next iteration.
        let mut snapshot_time = Duration::ZERO;
        while engine.iteration() < config.iterations {
            let iter_start = Instant::now();
            let stepped = catch_unwind(AssertUnwindSafe(|| {
                engine.step();
                if engine.rounding_due() {
                    engine.round_pending();
                }
                engine.end_iteration();
            }));
            if let Err(payload) = stepped {
                stop = Some(driver.classify_unwind(payload));
                break;
            }
            completed = engine.iteration();
            let iter_secs =
                (iter_start.elapsed() + std::mem::take(&mut snapshot_time)).as_secs_f64();
            match driver.after_iteration(completed as u64, iter_secs) {
                Verdict::Continue { escalate_to } => match escalate_to {
                    1 => engine.escalate_batch(),
                    2 => {
                        engine.escalate_batch();
                        engine.force_cheap_rounding();
                    }
                    _ => {}
                },
                Verdict::Deadline => {
                    // Rung 3: cut a final checkpoint (the state is
                    // consistent — we are at an iteration boundary),
                    // then stop with the incumbent.
                    let cut = if let Some(dir) = &self.checkpoint_dir {
                        let state = CheckpointState::Bp(engine.checkpoint_state());
                        Some(Self::write_snapshot(
                            dir,
                            EngineKind::Bp,
                            completed,
                            p,
                            config,
                            &state,
                            self.keep,
                        )?)
                    } else {
                        None
                    };
                    stop = Some(Stop {
                        completion: Completion::DeadlineBestSoFar,
                        checkpoint: cut,
                    });
                    break;
                }
                Verdict::Cancelled => {
                    stop = Some(Stop {
                        completion: Completion::Cancelled,
                        checkpoint: None,
                    });
                    break;
                }
            }
            iters_since += 1;
            if let Some(dir) = &self.checkpoint_dir {
                if policy.due(iters_since, last_write.elapsed().as_secs_f64()) {
                    let t0 = Instant::now();
                    let state = CheckpointState::Bp(engine.checkpoint_state());
                    snapshot_time = t0.elapsed();
                    Self::write_snapshot(
                        dir,
                        EngineKind::Bp,
                        engine.iteration(),
                        p,
                        config,
                        &state,
                        self.keep,
                    )?;
                    iters_since = 0;
                    last_write = Instant::now();
                }
            }
        }
        // Final assembly must not be cancelled by the very deadline it
        // answers: release the global token before touching the engine.
        let ladder_rung = driver.finish(&stop);
        let cancel_reason = driver.reason();
        let outcome = match stop {
            None => AlignOutcome {
                result: engine.finish_in_place(),
                completion: Completion::Completed,
                iterations_run: completed,
                cancel_reason,
                ladder_rung,
                deadline_checkpoint: None,
            },
            Some(stop) => {
                if stop.completion == Completion::DeadlineBestSoFar
                    && self.on_deadline == DeadlinePolicy::Error
                {
                    return Err(HarnessError::DeadlineExceeded {
                        iterations_run: completed,
                    });
                }
                // No time to round the staged backlog — the incumbent
                // is the answer. The flush in flight is completed only
                // while the run's deadline allows.
                driver.until_deadline(|| engine.discard_pending());
                AlignOutcome {
                    result: engine.finish_in_place(),
                    completion: stop.completion,
                    iterations_run: completed,
                    cancel_reason,
                    ladder_rung,
                    deadline_checkpoint: stop.checkpoint,
                }
            }
        };
        Ok(outcome)
    }

    /// Run the matching relaxation under this harness.
    pub fn run_mr(
        &self,
        p: &NetAlignProblem,
        config: &AlignConfig,
    ) -> Result<AlignOutcome, HarnessError> {
        let mut engine = MrEngine::new(p, config);
        if let Some(CheckpointState::Mr(state)) = self.resolve_resume(EngineKind::Mr, p, config)? {
            engine.restore_state(state);
        }
        let policy = self.effective_policy(config);
        let mut driver = BudgetDriver::new(self);
        let mut iters_since = 0usize;
        let mut last_write = Instant::now();
        let mut completed = engine.iteration();
        let mut stop: Option<Stop> = None;
        while engine.iteration() < config.iterations {
            let iter_start = Instant::now();
            let stepped = catch_unwind(AssertUnwindSafe(|| {
                engine.step();
                engine.end_iteration();
            }));
            if let Err(payload) = stepped {
                stop = Some(driver.classify_unwind(payload));
                break;
            }
            completed = engine.iteration();
            match driver.after_iteration(completed as u64, iter_start.elapsed().as_secs_f64()) {
                Verdict::Continue { escalate_to } => {
                    // MR has no rounding batch; rungs 1 and 2 both land
                    // on the cheap-matcher switch.
                    if escalate_to >= 2 {
                        engine.force_cheap_rounding();
                    }
                }
                Verdict::Deadline => {
                    let cut = if let Some(dir) = &self.checkpoint_dir {
                        let state = CheckpointState::Mr(engine.checkpoint_state());
                        Some(Self::write_snapshot(
                            dir,
                            EngineKind::Mr,
                            completed,
                            p,
                            config,
                            &state,
                            self.keep,
                        )?)
                    } else {
                        None
                    };
                    stop = Some(Stop {
                        completion: Completion::DeadlineBestSoFar,
                        checkpoint: cut,
                    });
                    break;
                }
                Verdict::Cancelled => {
                    stop = Some(Stop {
                        completion: Completion::Cancelled,
                        checkpoint: None,
                    });
                    break;
                }
            }
            iters_since += 1;
            if let Some(dir) = &self.checkpoint_dir {
                if policy.due(iters_since, last_write.elapsed().as_secs_f64()) {
                    let state = CheckpointState::Mr(engine.checkpoint_state());
                    Self::write_snapshot(
                        dir,
                        EngineKind::Mr,
                        engine.iteration(),
                        p,
                        config,
                        &state,
                        self.keep,
                    )?;
                    iters_since = 0;
                    last_write = Instant::now();
                }
            }
        }
        let ladder_rung = driver.finish(&stop);
        let cancel_reason = driver.reason();
        let outcome = match stop {
            None => AlignOutcome {
                result: engine.finish(),
                completion: Completion::Completed,
                iterations_run: completed,
                cancel_reason,
                ladder_rung,
                deadline_checkpoint: None,
            },
            Some(stop) => {
                if stop.completion == Completion::DeadlineBestSoFar
                    && self.on_deadline == DeadlinePolicy::Error
                {
                    return Err(HarnessError::DeadlineExceeded {
                        iterations_run: completed,
                    });
                }
                AlignOutcome {
                    result: engine.finish(),
                    completion: stop.completion,
                    iterations_run: completed,
                    cancel_reason,
                    ladder_rung,
                    deadline_checkpoint: stop.checkpoint,
                }
            }
        };
        Ok(outcome)
    }

    /// Run belief propagation while recording its full per-iteration
    /// trajectory, enabling later [`run_bp_delta`](Self::run_bp_delta)
    /// calls. Recording requires a deterministic, uninterrupted run, so
    /// this path ignores the harness's budget/deadline/checkpoint
    /// machinery and always completes the full iteration count.
    pub fn run_bp_recorded(
        &self,
        p: &NetAlignProblem,
        config: &AlignConfig,
    ) -> Result<(AlignOutcome, BpTrajectory), HarnessError> {
        let (result, trajectory) = delta::record_bp(p, config)?;
        Ok((
            AlignOutcome::completed(result, config.iterations),
            trajectory,
        ))
    }

    /// Re-align an edited instance from a recorded [`DeltaBase`]: patch
    /// the problem (including the squares matrix) in place of a
    /// rebuild, replay only the iterations/rows the delta actually
    /// perturbs, and reuse rounded stages whose inputs are bitwise
    /// unchanged. The result is bit-identical to a cold re-solve of the
    /// patched instance; `base` advances so further deltas chain.
    pub fn run_bp_delta(
        &self,
        base: &mut DeltaBase,
        delta: &ProblemDelta,
    ) -> Result<(AlignOutcome, DeltaStats), HarnessError> {
        let (result, stats) = base.apply(delta)?;
        let iterations = base.config().iterations;
        Ok((AlignOutcome::completed(result, iterations), stats))
    }

    /// Re-align an edited instance with the matching relaxation. MR's
    /// subgradient state has no sparse-replay story (every multiplier
    /// couples through the global matching), so this patches the
    /// problem — reusing the squares matrix — and re-solves it. The
    /// result is trivially bit-identical to a cold run on the patched
    /// instance; the returned problem is the patched one, for chaining.
    pub fn run_mr_delta(
        &self,
        p: &NetAlignProblem,
        config: &AlignConfig,
        delta: &ProblemDelta,
    ) -> Result<
        (
            NetAlignProblem,
            AlignOutcome,
            crate::squares::SquaresPatchStats,
        ),
        HarnessError,
    > {
        let (patched, stats) = delta::patch_problem(p, delta)?;
        let outcome = self.run_mr(&patched, config)?;
        Ok((patched, outcome, stats))
    }
}

/// How an early stop ended, before the outcome is assembled.
struct Stop {
    completion: Completion,
    checkpoint: Option<PathBuf>,
}

/// Post-iteration verdict of the budget driver.
enum Verdict {
    /// Keep going; a non-zero `escalate_to` means the ladder just
    /// climbed to that rung (monotone — reported once per rung).
    Continue { escalate_to: u8 },
    /// Stop now with the incumbent (deadline expired or predicted to
    /// expire within one more iteration).
    Deadline,
    /// Stop now with the incumbent (manual cancel or watchdog stall).
    Cancelled,
}

/// Per-run deadline/ladder state. Owns the run's scoped token
/// registration and the watchdog; [`BudgetDriver::finish`] (or drop)
/// releases both so the final assembly and later runs are unaffected.
/// Registration is *scoped* — each driver gets its own cancel scope id,
/// made current on the driving thread and adopted by every parallel
/// region the run publishes — so concurrent harness runs in one
/// process never observe each other's deadlines.
struct BudgetDriver {
    token: CancelToken,
    watchdog: Option<Watchdog>,
    /// This run's registered cancel scope (0 = not registered).
    scope: u64,
    /// The driving thread's previous scope, restored on release.
    prev_scope: u64,
    /// EWMA of per-iteration wall-clock cost, seconds.
    ewma: Option<f64>,
    /// Highest rung engaged so far (monotone, 0–3).
    rung: u8,
    /// Deterministic injected deadline (1-based iteration), if armed.
    injected: Option<u64>,
    deadline_bounded: bool,
    soft: Option<f64>,
}

impl BudgetDriver {
    /// EWMA weight of the newest iteration.
    const EWMA_ALPHA: f64 = 0.3;
    /// Rung thresholds, in multiples of the EWMA per-iteration cost:
    /// remaining < 4×ewma → rung 1, < 2×ewma → rung 2, < 1×ewma →
    /// rung 3 (stop: the next iteration would overrun).
    const RUNG1_HEADROOM: f64 = 4.0;
    const RUNG2_HEADROOM: f64 = 2.0;

    fn new(harness: &RunHarness) -> Self {
        let injected = faults::deadline_iteration();
        let token = match (&harness.cancel_token, harness.budget.deadline) {
            (Some(token), _) => token.clone(),
            (None, Some(budget)) => CancelToken::with_budget(budget),
            (None, None) => CancelToken::new(),
        };
        // The runtime hook only needs the token when something can
        // actually fire; an unbounded, watchdog-less run skips the
        // registration entirely (and pays nothing per chunk).
        let bounded = harness.budget.is_bounded()
            || harness.watchdog_stall.is_some()
            || harness.cancel_token.is_some()
            || injected.is_some();
        let (scope, prev_scope) = if bounded {
            let scope = cancel::register(token.clone());
            (scope, rayon::set_cancel_scope(scope))
        } else {
            (0, 0)
        };
        let watchdog = harness
            .watchdog_stall
            .map(|stall| Watchdog::spawn(token.clone(), stall));
        BudgetDriver {
            watchdog,
            scope,
            prev_scope,
            ewma: None,
            rung: 0,
            injected,
            deadline_bounded: token.deadline().is_some(),
            soft: harness.budget.soft_iteration.map(|d| d.as_secs_f64()),
            token,
        }
    }

    /// Feed one completed iteration (1-based `k`, wall-clock cost) and
    /// decide what happens next.
    fn after_iteration(&mut self, k: u64, iter_secs: f64) -> Verdict {
        self.token.tick();
        faults::hold_point(k, &self.token);
        if self.injected.is_some_and(|d| k >= d) {
            self.rung = 3;
            return Verdict::Deadline;
        }
        if self.token.should_stop() {
            return match self.token.reason() {
                Some(CancelReason::Deadline) => {
                    self.rung = 3;
                    Verdict::Deadline
                }
                _ => Verdict::Cancelled,
            };
        }
        let ewma = match self.ewma {
            None => iter_secs,
            Some(prev) => (1.0 - Self::EWMA_ALPHA) * prev + Self::EWMA_ALPHA * iter_secs,
        };
        self.ewma = Some(ewma);
        let mut target = self.rung;
        if self.deadline_bounded {
            if let Some(remaining) = self.token.remaining() {
                let remaining = remaining.as_secs_f64();
                if remaining < ewma {
                    self.rung = 3;
                    return Verdict::Deadline;
                }
                if remaining < Self::RUNG2_HEADROOM * ewma {
                    target = target.max(2);
                } else if remaining < Self::RUNG1_HEADROOM * ewma {
                    target = target.max(1);
                }
            }
        }
        // The soft per-iteration budget escalates pressure one rung at
        // a time but never terminates a run by itself.
        if self.soft.is_some_and(|soft| iter_secs > soft) {
            target = target.max((self.rung + 1).min(2));
        }
        if target > self.rung {
            self.rung = target;
            Verdict::Continue {
                escalate_to: target,
            }
        } else {
            Verdict::Continue { escalate_to: 0 }
        }
    }

    /// Classify a payload unwound out of an engine step: the runtime's
    /// distinguished cancellation payload becomes a clean stop (keyed
    /// on the token's reason), anything else is a genuine panic and is
    /// re-raised.
    fn classify_unwind(&mut self, payload: Box<dyn std::any::Any + Send>) -> Stop {
        if payload.downcast_ref::<rayon::RegionCancelled>().is_none() {
            self.release();
            resume_unwind(payload);
        }
        match self.token.reason() {
            Some(CancelReason::Deadline) => {
                self.rung = 3;
                Stop {
                    completion: Completion::DeadlineBestSoFar,
                    checkpoint: None,
                }
            }
            _ => Stop {
                completion: Completion::Cancelled,
                checkpoint: None,
            },
        }
    }

    /// Run `f` in a fresh cancel scope that fires only at the run's
    /// clock deadline, or in no scope when the run has none.
    fn until_deadline(&self, f: impl FnOnce()) {
        let scope = self
            .token
            .deadline()
            .map_or(0, |at| cancel::register(CancelToken::with_deadline(at)));
        let done = catch_unwind(AssertUnwindSafe(|| rayon::with_cancel_scope(scope, f)));
        cancel::deregister(scope);
        if let Err(payload) = done {
            resume_unwind(payload);
        }
    }

    /// The token's cancel reason, if it fired.
    fn reason(&self) -> Option<CancelReason> {
        self.token.reason()
    }

    /// Release the watchdog and the scoped token registration (so the
    /// final assembly cannot be cancelled by the expired deadline) and
    /// report the highest rung engaged.
    fn finish(&mut self, stop: &Option<Stop>) -> u8 {
        if stop
            .as_ref()
            .is_some_and(|s| s.completion == Completion::DeadlineBestSoFar)
        {
            self.rung = 3;
        }
        self.release();
        self.rung
    }

    fn release(&mut self) {
        self.watchdog = None;
        if self.scope != 0 {
            rayon::set_cancel_scope(self.prev_scope);
            cancel::deregister(self.scope);
            self.scope = 0;
        }
    }
}

impl Drop for BudgetDriver {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::list_checkpoints;
    use crate::trace::faults;
    use netalign_graph::{BipartiteGraph, Graph};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tiny_problem() -> NetAlignProblem {
        let a = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let b = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let l = BipartiteGraph::from_entries(
            4,
            4,
            vec![
                (0, 0, 1.0),
                (1, 1, 1.0),
                (2, 2, 1.0),
                (3, 3, 1.0),
                (0, 2, 1.0),
                (1, 3, 1.0),
            ],
        );
        NetAlignProblem::new(a, b, l)
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "netalign-harness-test-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn plain_harness_matches_wrapper() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig {
            iterations: 12,
            record_history: true,
            ..Default::default()
        };
        let direct = crate::bp::belief_propagation(&p, &cfg);
        let harnessed = RunHarness::new().run_bp(&p, &cfg).expect("no checkpoints");
        assert_eq!(harnessed.completion, Completion::Completed);
        assert_eq!(harnessed.iterations_run, 12);
        assert_eq!(harnessed.ladder_rung, 0);
        assert_eq!(direct.objective, harnessed.result.objective);
        assert_eq!(direct.matching, harnessed.result.matching);
    }

    #[test]
    fn checkpoints_are_written_and_pruned() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig {
            iterations: 9,
            ..Default::default()
        };
        let dir = scratch_dir("prune");
        RunHarness::new()
            .with_checkpoint_dir(&dir)
            .with_keep(2)
            .run_mr(&p, &cfg)
            .expect("run");
        let files = list_checkpoints(&dir, EngineKind::Mr);
        assert_eq!(files.len(), 2, "keep=2 must retain exactly 2 snapshots");
        assert!(files[0].ends_with(checkpoint_file_name(EngineKind::Mr, 9)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_from_directory_reproduces_run() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig {
            iterations: 14,
            batch: 3,
            record_history: true,
            ..Default::default()
        };
        let full = RunHarness::new().run_bp(&p, &cfg).expect("full run").result;

        // First leg: stop after 6 iterations, leaving a checkpoint.
        let dir = scratch_dir("resume");
        let short = AlignConfig {
            iterations: 6,
            ..cfg
        };
        RunHarness::new()
            .with_checkpoint_dir(&dir)
            .run_bp(&p, &short)
            .expect("first leg");

        // Second leg: a fingerprint-compatible resume needs the same
        // iteration budget, so the first leg's checkpoints are written
        // under the full config too.
        let resumed = RunHarness::new()
            .with_resume_from(&dir)
            .run_bp(&p, &cfg)
            .err();
        // iterations differs (6 vs 14) -> ConfigMismatch is correct.
        assert!(
            matches!(
                resumed,
                Some(HarnessError::Checkpoint(
                    CheckpointError::ConfigMismatch { .. }
                ))
            ),
            "config fingerprint must protect against budget drift, got {resumed:?}"
        );
        std::fs::remove_dir_all(&dir).ok();

        // Proper kill-and-resume: same config throughout, kill via a
        // fault at iteration 7.
        let dir = scratch_dir("resume2");
        faults::install(faults::FaultPlan {
            panic: Some(faults::StepTrigger::new("bp.step", 7)),
            ..Default::default()
        });
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            RunHarness::new()
                .with_checkpoint_dir(&dir)
                .run_bp(&p, &cfg)
                .expect("write leg")
        }));
        faults::clear();
        assert!(killed.is_err(), "the injected panic must surface");

        let resumed = RunHarness::new()
            .with_resume_from(&dir)
            .run_bp(&p, &cfg)
            .expect("resume leg")
            .result;
        assert_eq!(full.objective, resumed.objective);
        assert_eq!(full.matching, resumed.matching);
        assert_eq!(full.best_iteration, resumed.best_iteration);
        assert_eq!(full.history.len(), resumed.history.len());
        for (a, b) in full.history.iter().zip(&resumed.history) {
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_from_missing_file_is_hard_error() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig::default();
        let err = RunHarness::new()
            .with_resume_from("/definitely/not/a/checkpoint.bin")
            .run_bp(&p, &cfg)
            .err();
        assert!(matches!(
            err,
            Some(HarnessError::Checkpoint(CheckpointError::Io { .. }))
        ));
    }

    #[test]
    fn resume_from_empty_directory_starts_fresh() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig {
            iterations: 8,
            ..Default::default()
        };
        let dir = scratch_dir("empty");
        let direct = crate::bp::belief_propagation(&p, &cfg);
        let fresh = RunHarness::new()
            .with_resume_from(&dir)
            .run_bp(&p, &cfg)
            .expect("fresh start");
        assert_eq!(direct.objective, fresh.result.objective);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_deadline_stops_with_best_so_far() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig {
            iterations: 12,
            record_history: true,
            ..Default::default()
        };
        faults::install(faults::FaultPlan {
            deadline: Some(5),
            ..Default::default()
        });
        let outcome = RunHarness::new().run_bp(&p, &cfg).expect("budgeted run");
        faults::clear();
        assert_eq!(outcome.completion, Completion::DeadlineBestSoFar);
        assert_eq!(outcome.iterations_run, 5);
        assert_eq!(outcome.ladder_rung, 3);
        assert!(outcome.result.objective.is_finite());
        // The injected deadline must stop the run exactly where a short
        // iteration budget would.
        let short = crate::bp::belief_propagation(
            &p,
            &AlignConfig {
                iterations: 5,
                ..cfg
            },
        );
        assert_eq!(outcome.result.objective, short.objective);
        assert_eq!(outcome.result.matching, short.matching);
    }

    // Tests that actually *cancel* a registered token live in
    // tests/deadline.rs, alongside the concurrent-runs test showing a
    // latched token only stops its own scoped run.

    #[test]
    fn recorded_and_delta_runs_match_cold_solves() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig {
            iterations: 10,
            record_history: true,
            matcher: netalign_matching::MatcherKind::ParallelLocalDominant,
            final_exact_round: true,
            ..Default::default()
        };
        let harness = RunHarness::new();
        let (outcome, trajectory) = harness.run_bp_recorded(&p, &cfg).expect("recorded run");
        assert_eq!(outcome.completion, Completion::Completed);
        assert_eq!(trajectory.iterations(), 10);

        // Reweight one candidate and replay.
        let (a0, b0) = p.l.endpoints(4);
        let delta = ProblemDelta {
            l: crate::delta::CandidateDelta {
                reweight: vec![(a0, b0, 2.5)],
                ..Default::default()
            },
            ..Default::default()
        };
        let mut base = DeltaBase::from_parts(p.clone(), cfg, trajectory);
        let (replayed, stats) = harness.run_bp_delta(&mut base, &delta).expect("delta run");
        assert!(stats.delta_reused_iterations >= 1);

        let (patched, _) = delta::patch_problem(&p, &delta).expect("patch");
        let cold = crate::bp::belief_propagation(&patched, &cfg);
        assert_eq!(replayed.result.matching, cold.matching);
        assert_eq!(
            replayed.result.objective.to_bits(),
            cold.objective.to_bits()
        );

        // MR delta: patched problem + re-solve ≡ cold on patched.
        let (mr_p, mr_outcome, _) = harness.run_mr_delta(&p, &cfg, &delta).expect("mr delta");
        let mr_cold = crate::mr::matching_relaxation(&mr_p, &cfg);
        assert_eq!(mr_outcome.result.matching, mr_cold.matching);
        assert_eq!(
            mr_outcome.result.objective.to_bits(),
            mr_cold.objective.to_bits()
        );
    }

    #[test]
    fn expired_budget_with_error_policy_is_an_error() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig {
            iterations: 12,
            ..Default::default()
        };
        faults::install(faults::FaultPlan {
            deadline: Some(3),
            ..Default::default()
        });
        let err = RunHarness::new()
            .with_on_deadline(DeadlinePolicy::Error)
            .run_bp(&p, &cfg)
            .err();
        faults::clear();
        assert!(
            matches!(
                err,
                Some(HarnessError::DeadlineExceeded { iterations_run: 3 })
            ),
            "got {err:?}"
        );
    }
}
