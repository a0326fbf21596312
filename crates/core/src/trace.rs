//! Run observability: the instrumented step taxonomy, hierarchical
//! per-iteration timing, matcher counters, and machine-readable run
//! reports (paper §VIII.C, Figures 6 and 7).
//!
//! This module is the aligner-facing surface over the
//! [`netalign_trace`] substrate. A [`RunTrace`] travels inside every
//! [`crate::result::AlignmentResult`] and bundles:
//!
//! * per-step wall-clock spans, broken down by iteration
//!   ([`StepTrace`] indexed by [`Step`]);
//! * a [`MatcherCounterSnapshot`] of the parallel matcher's events
//!   (populated when [`crate::config::AlignConfig::trace_matcher`] is
//!   set);
//! * [`AlgoCounters`] — messages updated, rounding invocations and
//!   batch sizes, best-iterate improvements.

pub use netalign_trace::{
    cancel, faults, peak_rss_kb, AlgoCounters, Json, MatcherCounterSnapshot, MatcherCounters,
    StepTrace,
};

use std::time::{Duration, Instant};

/// The instrumented steps of both aligners. MR uses the first five
/// (Listing 1's annotations), BP the last six (Listing 2's).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Step {
    // -- Klau's MR method --
    /// Step 1: one small exact matching per row of S.
    RowMatch,
    /// Step 2: `w̄ = αw + d`.
    Daxpy,
    /// Step 3: the full bipartite matching of `w̄` (or a BP rounding).
    Match,
    /// Step 4: objective / bound evaluation.
    ObjectiveEval,
    /// Step 5: Lagrange multiplier update.
    UpdateU,
    // -- BP --
    /// Step 1: `F = bound₀^β (βS + S⁽ᵏ⁾ᵀ)`.
    ComputeF,
    /// Step 2: `d = αw + Fe`.
    ComputeD,
    /// Step 3's othermax statistics (BP's second pass).
    OtherMax,
    /// Step 4: `S⁽ᵏ⁾ = diag(y+z−d) S − F` — in BP the third pass, which
    /// also forms `y` and `z` (step 3), damps all three (step 5) and
    /// counts non-finite values for the guard.
    UpdateS,
    /// Step 5: the `γᵏ` damping interpolation. BP damps inside
    /// [`Step::UpdateS`], so this step reads 0; it stays for the
    /// paper's Figure 7 axis.
    Damping,
    // -- shared --
    /// Numerical guard rails (when
    /// [`crate::config::AlignConfig::numeric_guards`] is on): MR's
    /// end-of-iteration finite check, safe-iterate copy and rollback.
    /// BP counts non-finite values inside [`Step::UpdateS`] and rolls
    /// back by not committing the iterate, so it records nothing here.
    Guard,
}

impl Step {
    /// All steps, for iteration in reports.
    pub const ALL: [Step; 11] = [
        Step::RowMatch,
        Step::Daxpy,
        Step::Match,
        Step::ObjectiveEval,
        Step::UpdateU,
        Step::ComputeF,
        Step::ComputeD,
        Step::OtherMax,
        Step::UpdateS,
        Step::Damping,
        Step::Guard,
    ];

    /// Stable display names, parallel to [`Step::ALL`] — the step axis
    /// of every trace and JSON report.
    pub const NAMES: [&'static str; 11] = [
        "row-match",
        "daxpy",
        "match",
        "objective",
        "update-u",
        "compute-f",
        "compute-d",
        "othermax",
        "update-s",
        "damping",
        "guard",
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.index()]
    }

    /// Position in [`Step::ALL`] / [`Step::NAMES`] (the [`StepTrace`]
    /// index).
    pub const fn index(&self) -> usize {
        match self {
            Step::RowMatch => 0,
            Step::Daxpy => 1,
            Step::Match => 2,
            Step::ObjectiveEval => 3,
            Step::UpdateU => 4,
            Step::ComputeF => 5,
            Step::ComputeD => 6,
            Step::OtherMax => 7,
            Step::UpdateS => 8,
            Step::Damping => 9,
            Step::Guard => 10,
        }
    }
}

/// The full observability record of one aligner run: hierarchical step
/// timing plus matcher and aligner counters. Carried by
/// [`crate::result::AlignmentResult::trace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunTrace {
    /// Per-step wall-clock spans, per iteration, indexed by [`Step`].
    pub steps: StepTrace,
    /// Parallel-matcher event counts accumulated over the run (zero
    /// unless the run traced its matcher).
    pub matcher: MatcherCounterSnapshot,
    /// Aligner-level counters.
    pub algo: AlgoCounters,
    /// Lifetime peak resident-set size of the process (kB) sampled at
    /// the end of the run — `VmHWM` on Linux, 0 elsewhere. Monotone
    /// over the process lifetime, so in-process comparisons must
    /// sample the out-of-core run first.
    pub peak_rss_kb: u64,
}

impl Default for RunTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl RunTrace {
    /// Fresh trace recording per-iteration step rows.
    pub fn new() -> Self {
        RunTrace {
            steps: StepTrace::new(&Step::NAMES),
            matcher: MatcherCounterSnapshot::default(),
            algo: AlgoCounters::default(),
            peak_rss_kb: 0,
        }
    }

    /// Fresh trace keeping only step totals (constant memory for very
    /// long runs).
    pub fn totals_only() -> Self {
        RunTrace {
            steps: StepTrace::with_options(&Step::NAMES, false),
            matcher: MatcherCounterSnapshot::default(),
            algo: AlgoCounters::default(),
            peak_rss_kb: 0,
        }
    }

    /// Record the process's lifetime peak RSS so far (kB) into the
    /// trace. Keeps the larger of the stored and sampled values.
    pub fn stamp_peak_rss(&mut self) {
        self.peak_rss_kb = self.peak_rss_kb.max(netalign_trace::peak_rss_kb());
    }

    /// Time a closure, attributing its wall-clock to `step`.
    pub fn time<T>(&mut self, step: Step, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(step, start.elapsed());
        out
    }

    /// Add an externally measured duration to a step (current
    /// iteration).
    pub fn add(&mut self, step: Step, d: Duration) {
        self.steps.add(step.index(), d);
    }

    /// Close the current iteration's row of step spans.
    pub fn end_iteration(&mut self) {
        self.steps.end_iteration();
    }

    /// Pre-size storage for `iterations` rows and as many rounding
    /// batches, so the aligners' steady-state loops record without
    /// allocating.
    pub fn reserve_iterations(&mut self, iterations: usize) {
        self.steps.reserve_iterations(iterations);
        self.algo.rounding_batch_sizes.reserve(iterations);
    }

    /// Accumulated time of one step.
    pub fn get(&self, step: Step) -> Duration {
        self.steps.get(step.index())
    }

    /// Total across all steps.
    pub fn total(&self) -> Duration {
        self.steps.total()
    }

    /// Merge another run's trace into this one: step totals add,
    /// iteration rows append, matcher counters accumulate, aligner
    /// counters add.
    pub fn merge(&mut self, other: &RunTrace) {
        self.steps.merge(&other.steps);
        self.matcher.accumulate(&other.matcher);
        self.algo.messages_updated += other.algo.messages_updated;
        self.algo.rounding_invocations += other.algo.rounding_invocations;
        self.algo
            .rounding_batch_sizes
            .extend_from_slice(&other.algo.rounding_batch_sizes);
        self.algo.best_improvements += other.algo.best_improvements;
        self.algo.numeric_recoveries += other.algo.numeric_recoveries;
        // RSS is a process-wide high-water mark, not an additive span.
        self.peak_rss_kb = self.peak_rss_kb.max(other.peak_rss_kb);
    }

    /// `(step-name, seconds, share-of-total)` rows for non-zero steps,
    /// ready for the Figure 6/7 breakdown tables.
    pub fn report(&self) -> Vec<(&'static str, f64, f64)> {
        let total = self.total().as_secs_f64();
        Step::ALL
            .iter()
            .filter(|s| !self.get(**s).is_zero())
            .map(|s| {
                let secs = self.get(*s).as_secs_f64();
                (s.name(), secs, if total > 0.0 { secs / total } else { 0.0 })
            })
            .collect()
    }

    /// Human-readable summary: the per-step table plus counter lines.
    pub fn report_table(&self) -> String {
        let mut out = self.steps.report();
        if !self.matcher.is_zero() {
            out.push_str(&format!(
                "matcher: {} rounds, {} find-mate (+{} re-runs), {} attempts -> {} pairs ({} lost CAS), queue peak {}\n",
                self.matcher.rounds,
                self.matcher.find_mate_initial,
                self.matcher.find_mate_reruns,
                self.matcher.match_attempts,
                self.matcher.matched_pairs,
                self.matcher.cas_failures,
                self.matcher.queue_peak,
            ));
        }
        if self.algo != AlgoCounters::default() {
            out.push_str(&format!(
                "aligner: {} messages updated, {} roundings over {} vectors, {} best improvements\n",
                self.algo.messages_updated,
                self.algo.rounding_invocations,
                self.algo.vectors_rounded(),
                self.algo.best_improvements,
            ));
        }
        if self.algo.numeric_recoveries > 0 {
            out.push_str(&format!(
                "guard: {} numeric recoveries (rolled back to the last finite iterate)\n",
                self.algo.numeric_recoveries,
            ));
        }
        if self.peak_rss_kb > 0 {
            out.push_str(&format!("memory: peak RSS {} kB\n", self.peak_rss_kb));
        }
        out
    }

    /// Machine-readable form: step spans, matcher counters, aligner
    /// counters.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("steps", self.steps.to_json()),
            ("matcher", self.matcher.to_json()),
            ("algo", self.algo.to_json()),
            ("peak_rss_kb", Json::U64(self.peak_rss_kb)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_accumulates() {
        let mut t = RunTrace::new();
        let v = t.time(Step::Daxpy, || 21 * 2);
        assert_eq!(v, 42);
        assert!(t.get(Step::Daxpy) > Duration::ZERO);
        assert_eq!(t.get(Step::Match), Duration::ZERO);
    }

    #[test]
    fn report_shares_sum_to_one() {
        let mut t = RunTrace::new();
        t.add(Step::RowMatch, Duration::from_millis(30));
        t.add(Step::Match, Duration::from_millis(70));
        let rep = t.report();
        assert_eq!(rep.len(), 2);
        let share_sum: f64 = rep.iter().map(|r| r.2).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut t1 = RunTrace::new();
        t1.add(Step::OtherMax, Duration::from_millis(5));
        t1.algo.rounding_batch_sizes.push(2);
        let mut t2 = RunTrace::new();
        t2.add(Step::OtherMax, Duration::from_millis(7));
        t2.algo.rounding_batch_sizes.push(3);
        t2.matcher.rounds = 4;
        t1.merge(&t2);
        assert_eq!(t1.get(Step::OtherMax), Duration::from_millis(12));
        assert_eq!(t1.algo.rounding_batch_sizes, vec![2, 3]);
        assert_eq!(t1.matcher.rounds, 4);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Step::RowMatch.name(), "row-match");
        assert_eq!(Step::Damping.name(), "damping");
        assert_eq!(Step::Guard.name(), "guard");
        assert_eq!(Step::ALL.len(), 11);
        for (i, s) in Step::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(s.name(), Step::NAMES[i]);
        }
    }

    #[test]
    fn iterations_are_recorded() {
        let mut t = RunTrace::new();
        t.add(Step::ComputeF, Duration::from_millis(1));
        t.end_iteration();
        t.add(Step::ComputeF, Duration::from_millis(2));
        t.end_iteration();
        assert_eq!(t.steps.num_iterations(), 2);
        assert_eq!(
            t.steps.iteration(1)[Step::ComputeF.index()],
            Duration::from_millis(2)
        );
    }

    #[test]
    fn peak_rss_merges_as_max_and_reports() {
        let mut t1 = RunTrace::new();
        t1.peak_rss_kb = 512;
        let mut t2 = RunTrace::new();
        t2.peak_rss_kb = 2048;
        t1.merge(&t2);
        assert_eq!(t1.peak_rss_kb, 2048);
        assert!(t1.report_table().contains("peak RSS 2048 kB"));
        assert!(t1.to_json().render().contains("\"peak_rss_kb\":2048"));
        #[cfg(target_os = "linux")]
        {
            let mut t = RunTrace::new();
            t.stamp_peak_rss();
            assert!(t.peak_rss_kb > 0);
        }
    }

    #[test]
    fn json_contains_all_sections() {
        let mut t = RunTrace::new();
        t.add(Step::Match, Duration::from_millis(3));
        t.matcher.rounds = 2;
        t.algo.rounding_invocations = 1;
        let text = t.to_json().render();
        assert!(text.contains("\"steps\""));
        assert!(text.contains("\"matcher\""));
        assert!(text.contains("\"rounds\":2"));
        assert!(text.contains("\"rounding_invocations\":1"));
    }
}
