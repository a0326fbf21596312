//! Run configuration shared by the BP and MR aligners.

use netalign_matching::MatcherKind;
use std::time::Duration;

/// How BP's messages are damped toward the previous iterate (the paper
/// describes only the `γᵏ` variant and points to Bayati et al. [13]
/// for the others; both extra variants from that paper are provided).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DampingKind {
    /// `m⁽ᵏ⁾ ← γᵏ·m⁽ᵏ⁾ + (1−γᵏ)·m⁽ᵏ⁻¹⁾` — the weight of the fresh
    /// message decays geometrically, freezing the iteration (the
    /// variant in the paper's Listing 2).
    #[default]
    Power,
    /// `m⁽ᵏ⁾ ← γ·m⁽ᵏ⁾ + (1−γ)·m⁽ᵏ⁻¹⁾` — constant interpolation.
    Constant,
    /// No damping: raw message updates (may oscillate; the rounding
    /// step still tracks the best iterate).
    None,
}

impl DampingKind {
    /// Interpolation weight of the *fresh* message at iteration `k`
    /// (1-based) for damping base `gamma`.
    pub fn fresh_weight(&self, gamma: f64, k: usize) -> f64 {
        match self {
            DampingKind::Power => gamma.powi(k as i32),
            DampingKind::Constant => gamma,
            DampingKind::None => 1.0,
        }
    }
}

/// When to write engine-state snapshots during a run (see
/// [`crate::checkpoint`]). Both triggers are independent; either firing
/// causes a checkpoint at the end of the current iteration. The zero
/// value disables a trigger, and [`CheckpointPolicy::disabled`] (the
/// default) disables checkpointing entirely.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointPolicy {
    /// Checkpoint every `k` completed iterations (0 = off).
    pub every_k_iters: usize,
    /// Checkpoint when this many seconds elapsed since the last one
    /// (0 = off). Wall-clock cadence only affects *when* snapshots are
    /// taken, never their contents, so resumed runs stay bit-identical.
    pub every_secs: f64,
}

impl CheckpointPolicy {
    /// No checkpointing.
    pub const fn disabled() -> Self {
        CheckpointPolicy {
            every_k_iters: 0,
            every_secs: 0.0,
        }
    }

    /// True when at least one trigger is configured.
    pub fn is_enabled(&self) -> bool {
        self.every_k_iters > 0 || self.every_secs > 0.0
    }

    /// Should a checkpoint be written, given the iterations and seconds
    /// elapsed since the previous one?
    pub fn due(&self, iters_since: usize, secs_since: f64) -> bool {
        (self.every_k_iters > 0 && iters_since >= self.every_k_iters)
            || (self.every_secs > 0.0 && secs_since >= self.every_secs)
    }
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Wall-clock budget of a harness-driven run (see [`crate::harness`]).
///
/// Both aligners are *anytime* algorithms — every rounded iterate is a
/// feasible solution and the engines track the best one seen — so a
/// budgeted run never fails outright: at expiry the harness returns the
/// incumbent with a `DeadlineBestSoFar` completion. The budget also
/// feeds the graceful-degradation ladder: an EWMA of per-iteration cost
/// is compared against the remaining time, and the harness sheds
/// rounding work (larger BP batches, a forced switch to greedy rounding)
/// *before* the deadline instead of dying at it.
///
/// Wall-clock pressure only ever decides *when* the run stops or
/// degrades, never what any completed iteration computes, so two runs
/// stopped at the same iteration with the same ladder state are
/// bit-identical at every pool size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeBudget {
    /// Total wall-clock budget for the run (`None` = unbounded).
    pub deadline: Option<Duration>,
    /// Soft per-iteration budget: an iteration exceeding it escalates
    /// the degradation ladder one rung even while the total budget
    /// still looks comfortable (`None` = off). Never terminates a run
    /// by itself.
    pub soft_iteration: Option<Duration>,
}

impl TimeBudget {
    /// No time limits (the default).
    pub const fn unbounded() -> Self {
        TimeBudget {
            deadline: None,
            soft_iteration: None,
        }
    }

    /// Budget with a total deadline of `ms` milliseconds.
    pub fn from_deadline_ms(ms: u64) -> Self {
        TimeBudget {
            deadline: Some(Duration::from_millis(ms)),
            soft_iteration: None,
        }
    }

    /// True when any limit is configured.
    pub fn is_bounded(&self) -> bool {
        self.deadline.is_some() || self.soft_iteration.is_some()
    }
}

/// Parameters of an alignment run. Field meanings follow the paper:
/// `α`/`β` weight the two objective terms, `γ` is BP's damping base and
/// MR's subgradient step size, `mstep` is MR's stall window before the
/// step halves, and `batch` is BP's rounding batch size `r`.
#[derive(Clone, Copy, Debug)]
pub struct AlignConfig {
    /// Weight of the matching term `wᵀx`.
    pub alpha: f64,
    /// Weight of the overlap term `xᵀSx/2`.
    pub beta: f64,
    /// BP: damping base (`γ^k` interpolation). MR: initial step size.
    pub gamma: f64,
    /// Number of iterations.
    pub iterations: usize,
    /// MR only: halve `γ` when the upper bound has not improved for
    /// this many iterations.
    pub mstep: usize,
    /// BP only: rounding batch size `r` (`BP(batch=r)`); 1 rounds every
    /// iterate immediately.
    pub batch: usize,
    /// Matching algorithm used inside the rounding step: every iterate
    /// and the final rounding go through it. MR builds one
    /// [`netalign_matching::MatcherEngine`] of this kind per run, BP one
    /// per rounding lane; the parallel locally-dominant and greedy kinds
    /// round without steady-state allocation.
    pub matcher: MatcherKind,
    /// BP only: damping variant (the paper uses [`DampingKind::Power`]).
    pub damping: DampingKind,
    /// MR only: enriched rounding (the `rtype = 2` option of the
    /// authors' released `netalignmr`): after matching `w̄`, re-match
    /// the overlap-aware weights `αw + β·S·x` and keep the better
    /// solution. One extra matching per iteration; substantially
    /// improves MR's primal solutions on noisy instances.
    pub enriched_rounding: bool,
    /// Perform one final *exact* matching on the best heuristic vector
    /// before returning, as the paper does at the end of §VII's setup.
    pub final_exact_round: bool,
    /// Record per-iteration history (objective, weight, overlap).
    pub record_history: bool,
    /// Record the parallel matcher's event counters into the result's
    /// [`crate::trace::RunTrace::matcher`] snapshot. Off by default:
    /// the enabled path adds relaxed atomic traffic inside the matcher;
    /// disabled it costs one predictable branch per event.
    pub trace_matcher: bool,
    /// Numerical guard rails: finite-check the iterate at the end of
    /// every iteration and, on a non-finite value, roll back to the
    /// last finite iterate and tighten the damping/step size (BP:
    /// `γ ← γ/2` on the damping base; MR: the same halving the paper's
    /// `mstep` machinery uses) instead of silently diverging. Costs one
    /// extra read pass plus one copy of the iterate per iteration; on
    /// by default because the `γᵏ` interpolation propagates any NaN to
    /// every later iterate. Recoveries are counted in
    /// [`netalign_trace::AlgoCounters::numeric_recoveries`].
    pub numeric_guards: bool,
    /// Checkpoint cadence; snapshots are only written when a run is
    /// driven through [`crate::harness`] with a checkpoint directory.
    pub checkpoint: CheckpointPolicy,
}

impl Default for AlignConfig {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            beta: 2.0,
            gamma: 0.99,
            iterations: 100,
            mstep: 10,
            batch: 1,
            matcher: MatcherKind::Exact,
            damping: DampingKind::Power,
            enriched_rounding: false,
            final_exact_round: false,
            record_history: false,
            trace_matcher: false,
            numeric_guards: true,
            checkpoint: CheckpointPolicy::disabled(),
        }
    }
}

impl AlignConfig {
    /// Validate parameter ranges.
    ///
    /// # Panics
    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        assert!(self.alpha >= 0.0, "alpha must be non-negative");
        assert!(self.beta >= 0.0, "beta must be non-negative");
        assert!(
            self.alpha > 0.0 || self.beta > 0.0,
            "at least one of alpha/beta must be positive"
        );
        assert!(
            self.gamma > 0.0 && self.gamma <= 1.0,
            "gamma must be in (0, 1], got {}",
            self.gamma
        );
        assert!(self.iterations > 0, "need at least one iteration");
        assert!(self.batch >= 1, "batch must be at least 1");
        assert!(self.mstep >= 1, "mstep must be at least 1");
        assert!(
            self.checkpoint.every_secs >= 0.0,
            "checkpoint.every_secs must be non-negative, got {}",
            self.checkpoint.every_secs
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn damping_fresh_weights() {
        assert_eq!(DampingKind::Power.fresh_weight(0.9, 2), 0.81);
        assert_eq!(DampingKind::Constant.fresh_weight(0.9, 50), 0.9);
        assert_eq!(DampingKind::None.fresh_weight(0.5, 3), 1.0);
    }

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = AlignConfig::default();
        c.validate();
        assert_eq!(c.alpha, 1.0);
        assert_eq!(c.beta, 2.0);
        assert_eq!(c.gamma, 0.99);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_bad_gamma() {
        AlignConfig {
            gamma: 1.5,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn rejects_zero_batch() {
        AlignConfig {
            batch: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_negative_alpha() {
        AlignConfig {
            alpha: -1.0,
            ..Default::default()
        }
        .validate();
    }
}
