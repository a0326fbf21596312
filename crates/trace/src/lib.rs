//! Observability substrate for the netalign workspace.
//!
//! Four pieces, all dependency-free:
//!
//! * [`StepTrace`] — hierarchical per-iteration, per-step wall-clock
//!   spans. Replaces the old flat `StepTimers`: every `add` feeds both
//!   the step's running total and the current iteration's row, and
//!   [`StepTrace::end_iteration`] closes a row, so a run keeps the full
//!   iteration × step breakdown the paper's Figures 6–7 are built from.
//! * [`MatcherCounters`] — lock-free event counters for the parallel
//!   locally-dominant matcher (phase-2 rounds, FindMate re-executions,
//!   compare-exchange failures, queue high-water mark). All updates are
//!   relaxed atomics behind a branch on `enabled`, so the disabled path
//!   costs one predictable branch; [`MatcherCounters::disabled`] is a
//!   shared zero-cost sink for untraced call sites.
//! * [`AlgoCounters`] + [`Json`] — aligner-level counters (messages
//!   updated, rounding batch sizes, best-iterate improvements, numeric
//!   recoveries) and a minimal JSON document tree for machine-readable
//!   run reports.
//! * [`faults`] — deterministic fault injection (NaN poisoning, worker
//!   panics, checkpoint damage) driven by test plans or the
//!   `NETALIGN_FAULT_*` environment variables; used by the tier-2
//!   resilience suite to prove every recovery path end-to-end.
//!
//! Counter updates are only issued at schedule-independent points (see
//! the matcher's round structure), so for a fixed input, configuration,
//! and thread count the snapshots are bit-for-bit reproducible — the
//! determinism tests assert on them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

pub mod cancel;
pub mod dist;
pub mod faults;
pub mod metrics;

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// A minimal JSON document tree; [`Json::render`] produces the text.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (exact).
    U64(u64),
    /// Signed integer (exact).
    I64(i64),
    /// Float; non-finite values render as `null`.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// String value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Duration as fractional seconds.
    pub fn secs(d: Duration) -> Json {
        Json::F64(d.as_secs_f64())
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one (exact `U64`, a
    /// non-negative `I64`, or an integral non-negative `F64` — JSON has
    /// one number type, so consumers must not care which variant the
    /// producer chose).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as a float, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Render with a trailing newline (for files).
    pub fn render_line(&self) -> String {
        let mut out = self.render();
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    let text = format!("{v}");
                    out.push_str(&text);
                    // `{}` on an integral f64 prints no decimal point;
                    // keep the value typed as a float for consumers.
                    if !text.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Hierarchical step timing
// ---------------------------------------------------------------------

/// Per-iteration, per-step wall-clock spans over a fixed step set.
///
/// Step identity is an index into the `names` slice the trace was
/// built with (the aligners use their `Step` enum's index). `add`
/// accumulates into the running totals *and* the open iteration row;
/// `end_iteration` closes the row. Timing outside any iteration (e.g. a
/// final exact rounding pass) still lands in the totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepTrace {
    names: &'static [&'static str],
    totals: Vec<Duration>,
    current: Vec<Duration>,
    current_dirty: bool,
    /// Closed iteration rows, flattened with stride `names.len()`; a
    /// flat array keeps `end_iteration` allocation-free once
    /// [`StepTrace::reserve_iterations`] has sized it.
    iterations: Vec<Duration>,
    record_iterations: bool,
}

impl StepTrace {
    /// Empty trace over the given step names, keeping per-iteration
    /// rows.
    pub fn new(names: &'static [&'static str]) -> Self {
        Self::with_options(names, true)
    }

    /// Empty trace; `record_iterations = false` keeps only totals
    /// (constant memory for long runs).
    pub fn with_options(names: &'static [&'static str], record_iterations: bool) -> Self {
        StepTrace {
            names,
            totals: vec![Duration::ZERO; names.len()],
            current: vec![Duration::ZERO; names.len()],
            current_dirty: false,
            iterations: Vec::new(),
            record_iterations,
        }
    }

    /// The step names this trace is indexed by.
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }

    /// Add a measured span to `step`.
    pub fn add(&mut self, step: usize, d: Duration) {
        self.totals[step] += d;
        if self.record_iterations {
            self.current[step] += d;
            self.current_dirty = true;
        }
    }

    /// Pre-size the iteration-row storage for `n` iterations, making
    /// the next `n` [`StepTrace::end_iteration`] calls allocation-free
    /// (the aligners' steady-state loops rely on this).
    pub fn reserve_iterations(&mut self, n: usize) {
        if self.record_iterations {
            self.iterations.reserve(n * self.names.len());
        }
    }

    /// Close the current iteration row.
    pub fn end_iteration(&mut self) {
        if self.record_iterations {
            self.iterations.extend_from_slice(&self.current);
            self.current.fill(Duration::ZERO);
            self.current_dirty = false;
        }
    }

    /// Total time attributed to `step`.
    pub fn get(&self, step: usize) -> Duration {
        self.totals[step]
    }

    /// Sum over all steps.
    pub fn total(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// Number of closed iteration rows.
    pub fn num_iterations(&self) -> usize {
        self.iterations.len() / self.names.len()
    }

    /// Per-step durations of closed iteration `k`.
    pub fn iteration(&self, k: usize) -> &[Duration] {
        let stride = self.names.len();
        &self.iterations[k * stride..(k + 1) * stride]
    }

    /// Fold another trace over the same step set into this one:
    /// totals add element-wise, iteration rows append.
    ///
    /// # Panics
    /// Panics if the step sets differ.
    pub fn merge(&mut self, other: &StepTrace) {
        assert_eq!(
            self.names, other.names,
            "cannot merge traces over different steps"
        );
        for (t, o) in self.totals.iter_mut().zip(&other.totals) {
            *t += *o;
        }
        if self.record_iterations {
            self.iterations.extend_from_slice(&other.iterations);
        }
    }

    /// Human-readable per-step totals, widest first.
    pub fn report(&self) -> String {
        let total = self.total();
        let mut rows: Vec<(usize, Duration)> = self.totals.iter().copied().enumerate().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        let mut out = String::new();
        for (idx, d) in rows {
            if d.is_zero() {
                continue;
            }
            let pct = if total.is_zero() {
                0.0
            } else {
                100.0 * d.as_secs_f64() / total.as_secs_f64()
            };
            out.push_str(&format!(
                "{:>12}  {:>10.3} ms  {:>5.1}%\n",
                self.names[idx],
                d.as_secs_f64() * 1e3,
                pct
            ));
        }
        out.push_str(&format!(
            "{:>12}  {:>10.3} ms\n",
            "total",
            total.as_secs_f64() * 1e3
        ));
        out
    }

    /// JSON form: step names, totals (seconds), per-iteration rows.
    pub fn to_json(&self) -> Json {
        let stride = self.names.len();
        let mut pending: Vec<&[Duration]> = self.iterations.chunks(stride).collect();
        if self.current_dirty {
            pending.push(&self.current);
        }
        Json::obj(vec![
            (
                "steps",
                Json::Arr(self.names.iter().map(|n| Json::str(*n)).collect()),
            ),
            (
                "totals_s",
                Json::Arr(self.totals.iter().map(|d| Json::secs(*d)).collect()),
            ),
            ("total_s", Json::secs(self.total())),
            (
                "iterations_s",
                Json::Arr(
                    pending
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(|d| Json::secs(*d)).collect()))
                        .collect(),
                ),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Matcher counters
// ---------------------------------------------------------------------

/// Lock-free event counters for the parallel matcher family.
///
/// Worker threads update through `&self` with relaxed atomics; every
/// update branches on `enabled` first, so a disabled instance (or the
/// [`MatcherCounters::disabled`] sink) adds one well-predicted branch
/// and no memory traffic to the hot paths.
#[derive(Debug)]
pub struct MatcherCounters {
    enabled: bool,
    rounds: AtomicU64,
    find_mate_initial: AtomicU64,
    find_mate_reruns: AtomicU64,
    match_attempts: AtomicU64,
    matched_pairs: AtomicU64,
    cas_failures: AtomicU64,
    queue_peak: AtomicU64,
}

static DISABLED_COUNTERS: MatcherCounters = MatcherCounters::new(false);

impl MatcherCounters {
    /// Fresh zeroed counters.
    pub const fn new(enabled: bool) -> Self {
        MatcherCounters {
            enabled,
            rounds: AtomicU64::new(0),
            find_mate_initial: AtomicU64::new(0),
            find_mate_reruns: AtomicU64::new(0),
            match_attempts: AtomicU64::new(0),
            matched_pairs: AtomicU64::new(0),
            cas_failures: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
        }
    }

    /// Shared sink for untraced call sites; never records anything.
    pub fn disabled() -> &'static MatcherCounters {
        &DISABLED_COUNTERS
    }

    /// Whether updates are recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// One phase-2 round executed.
    #[inline]
    pub fn incr_rounds(&self) {
        if self.enabled {
            self.rounds.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `n` initial (phase-1) FindMate executions.
    #[inline]
    pub fn add_find_mate_initial(&self, n: u64) {
        if self.enabled {
            self.find_mate_initial.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// `n` FindMate re-executions (phase-2 recomputations).
    #[inline]
    pub fn add_find_mate_reruns(&self, n: u64) {
        if self.enabled {
            self.find_mate_reruns.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// `n` MatchVertex attempts (locally-dominant pair checks).
    #[inline]
    pub fn add_match_attempts(&self, n: u64) {
        if self.enabled {
            self.match_attempts.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// `n` pairs claimed into the matching.
    #[inline]
    pub fn add_matched_pairs(&self, n: u64) {
        if self.enabled {
            self.matched_pairs.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// `n` lost compare-exchange races.
    #[inline]
    pub fn add_cas_failures(&self, n: u64) {
        if self.enabled {
            self.cas_failures.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Fold a queue occupancy observation into the high-water mark.
    #[inline]
    pub fn record_queue_len(&self, len: u64) {
        if self.enabled {
            self.queue_peak.fetch_max(len, Ordering::Relaxed);
        }
    }

    /// Current values as a plain struct.
    pub fn snapshot(&self) -> MatcherCounterSnapshot {
        MatcherCounterSnapshot {
            rounds: self.rounds.load(Ordering::Relaxed),
            find_mate_initial: self.find_mate_initial.load(Ordering::Relaxed),
            find_mate_reruns: self.find_mate_reruns.load(Ordering::Relaxed),
            match_attempts: self.match_attempts.load(Ordering::Relaxed),
            matched_pairs: self.matched_pairs.load(Ordering::Relaxed),
            cas_failures: self.cas_failures.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            ..MatcherCounterSnapshot::default()
        }
    }

    /// Seed the counters from a snapshot (no-op when disabled). Used
    /// by checkpoint resume so that the counters reported at the end of
    /// a resumed run equal the uninterrupted run's totals.
    pub fn preload(&self, snap: &MatcherCounterSnapshot) {
        if self.enabled {
            self.rounds.fetch_add(snap.rounds, Ordering::Relaxed);
            self.find_mate_initial
                .fetch_add(snap.find_mate_initial, Ordering::Relaxed);
            self.find_mate_reruns
                .fetch_add(snap.find_mate_reruns, Ordering::Relaxed);
            self.match_attempts
                .fetch_add(snap.match_attempts, Ordering::Relaxed);
            self.matched_pairs
                .fetch_add(snap.matched_pairs, Ordering::Relaxed);
            self.cas_failures
                .fetch_add(snap.cas_failures, Ordering::Relaxed);
            self.queue_peak
                .fetch_max(snap.queue_peak, Ordering::Relaxed);
        }
    }

    /// Zero every counter (the enabled flag is unchanged).
    pub fn reset(&self) {
        self.rounds.store(0, Ordering::Relaxed);
        self.find_mate_initial.store(0, Ordering::Relaxed);
        self.find_mate_reruns.store(0, Ordering::Relaxed);
        self.match_attempts.store(0, Ordering::Relaxed);
        self.matched_pairs.store(0, Ordering::Relaxed);
        self.cas_failures.store(0, Ordering::Relaxed);
        self.queue_peak.store(0, Ordering::Relaxed);
    }
}

/// Plain-value snapshot of [`MatcherCounters`]; comparable and
/// serializable, used by determinism tests and run reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatcherCounterSnapshot {
    /// Phase-2 rounds executed (queue generations).
    pub rounds: u64,
    /// Initial FindMate executions (phase 1).
    pub find_mate_initial: u64,
    /// FindMate re-executions (phase 2).
    pub find_mate_reruns: u64,
    /// MatchVertex attempts.
    pub match_attempts: u64,
    /// Pairs claimed into the matching.
    pub matched_pairs: u64,
    /// Lost compare-exchange races.
    pub cas_failures: u64,
    /// Queue occupancy high-water mark.
    pub queue_peak: u64,
    /// Always 0: the Suitor matchers that counted proposals are gone.
    /// Kept so readers of the snapshot and checkpoint v2's counter
    /// block stay unchanged.
    pub proposals: u64,
    /// Always 0, like [`MatcherCounterSnapshot::proposals`].
    pub displacements: u64,
    /// Always 0: the matcher no longer warm-starts. Kept so readers of
    /// the snapshot and checkpoint v2's counter block stay unchanged.
    pub warm_hits: u64,
    /// Always 0, like [`MatcherCounterSnapshot::warm_hits`].
    pub reseeded_vertices: u64,
}

impl MatcherCounterSnapshot {
    /// True when nothing was recorded.
    pub fn is_zero(&self) -> bool {
        *self == MatcherCounterSnapshot::default()
    }

    /// Accumulate another snapshot (e.g. across aligner iterations).
    pub fn accumulate(&mut self, other: &MatcherCounterSnapshot) {
        self.rounds += other.rounds;
        self.find_mate_initial += other.find_mate_initial;
        self.find_mate_reruns += other.find_mate_reruns;
        self.match_attempts += other.match_attempts;
        self.matched_pairs += other.matched_pairs;
        self.cas_failures += other.cas_failures;
        self.queue_peak = self.queue_peak.max(other.queue_peak);
    }

    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rounds", Json::U64(self.rounds)),
            ("find_mate_initial", Json::U64(self.find_mate_initial)),
            ("find_mate_reruns", Json::U64(self.find_mate_reruns)),
            ("match_attempts", Json::U64(self.match_attempts)),
            ("matched_pairs", Json::U64(self.matched_pairs)),
            ("cas_failures", Json::U64(self.cas_failures)),
            ("queue_peak", Json::U64(self.queue_peak)),
            ("proposals", Json::U64(self.proposals)),
            ("displacements", Json::U64(self.displacements)),
        ])
    }
}

// ---------------------------------------------------------------------
// Aligner counters
// ---------------------------------------------------------------------

/// Aligner-level counters (BP / MR). Updated single-threaded between
/// parallel kernels, so plain integers suffice.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AlgoCounters {
    /// Message/heuristic entries written across all iterations.
    pub messages_updated: u64,
    /// Rounding passes executed (batched or not).
    pub rounding_invocations: u64,
    /// Heuristic vectors rounded per batched pass, in order.
    pub rounding_batch_sizes: Vec<u64>,
    /// Times the best iterate improved.
    pub best_improvements: u64,
    /// Times the numerical guard rolled the iterate back to the last
    /// finite state and tightened the damping/step size.
    pub numeric_recoveries: u64,
}

impl AlgoCounters {
    /// Total heuristic vectors rounded.
    pub fn vectors_rounded(&self) -> u64 {
        self.rounding_batch_sizes.iter().sum()
    }

    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("messages_updated", Json::U64(self.messages_updated)),
            ("rounding_invocations", Json::U64(self.rounding_invocations)),
            (
                "rounding_batch_sizes",
                Json::Arr(
                    self.rounding_batch_sizes
                        .iter()
                        .map(|&s| Json::U64(s))
                        .collect(),
                ),
            ),
            ("vectors_rounded", Json::U64(self.vectors_rounded())),
            ("best_improvements", Json::U64(self.best_improvements)),
            ("numeric_recoveries", Json::U64(self.numeric_recoveries)),
        ])
    }
}

// ---------------------------------------------------------------------
// Process memory
// ---------------------------------------------------------------------

/// Lifetime peak resident-set size of this process in kilobytes.
///
/// Reads `VmHWM` from `/proc/self/status` on Linux; returns 0 on other
/// platforms or if the file cannot be parsed. The value is monotone over
/// the process lifetime, so callers comparing phases must sample in the
/// order they care about.
pub fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            if let Some(line) = status.lines().find(|l| l.starts_with("VmHWM:")) {
                if let Some(v) = line.split_whitespace().nth(1) {
                    return v.parse().unwrap_or(0);
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEPS: &[&str] = &["alpha", "beta"];

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_kb() > 0);
    }

    #[test]
    fn step_trace_accumulates_and_records_iterations() {
        let mut t = StepTrace::new(STEPS);
        t.add(0, Duration::from_millis(5));
        t.add(1, Duration::from_millis(3));
        t.end_iteration();
        t.add(0, Duration::from_millis(2));
        t.end_iteration();
        assert_eq!(t.get(0), Duration::from_millis(7));
        assert_eq!(t.get(1), Duration::from_millis(3));
        assert_eq!(t.total(), Duration::from_millis(10));
        assert_eq!(t.num_iterations(), 2);
        assert_eq!(
            t.iteration(0),
            &[Duration::from_millis(5), Duration::from_millis(3)]
        );
        assert_eq!(t.iteration(1), &[Duration::from_millis(2), Duration::ZERO]);
    }

    #[test]
    fn step_trace_without_iterations_keeps_totals_only() {
        let mut t = StepTrace::with_options(STEPS, false);
        t.add(0, Duration::from_millis(1));
        t.end_iteration();
        t.add(0, Duration::from_millis(1));
        assert_eq!(t.num_iterations(), 0);
        assert_eq!(t.get(0), Duration::from_millis(2));
    }

    #[test]
    fn step_trace_merge_adds_totals() {
        let mut a = StepTrace::new(STEPS);
        let mut b = StepTrace::new(STEPS);
        a.add(0, Duration::from_millis(1));
        b.add(0, Duration::from_millis(2));
        b.end_iteration();
        a.merge(&b);
        assert_eq!(a.get(0), Duration::from_millis(3));
        assert_eq!(a.num_iterations(), 1);
    }

    #[test]
    fn disabled_counters_record_nothing() {
        let c = MatcherCounters::disabled();
        c.incr_rounds();
        c.add_find_mate_reruns(5);
        c.add_cas_failures(2);
        c.record_queue_len(100);
        assert!(c.snapshot().is_zero());
        assert!(!c.is_enabled());
    }

    #[test]
    fn enabled_counters_record_and_reset() {
        let c = MatcherCounters::new(true);
        c.incr_rounds();
        c.incr_rounds();
        c.add_find_mate_initial(7);
        c.add_match_attempts(4);
        c.add_matched_pairs(3);
        c.add_cas_failures(1);
        c.record_queue_len(10);
        c.record_queue_len(4);
        let s = c.snapshot();
        assert_eq!(s.rounds, 2);
        assert_eq!(s.find_mate_initial, 7);
        assert_eq!(s.match_attempts, 4);
        assert_eq!(s.matched_pairs, 3);
        assert_eq!(s.cas_failures, 1);
        assert_eq!(s.queue_peak, 10);
        c.reset();
        assert!(c.snapshot().is_zero());
        assert!(c.is_enabled());
    }

    #[test]
    fn snapshot_accumulate_sums_and_maxes() {
        let mut a = MatcherCounterSnapshot {
            rounds: 1,
            queue_peak: 5,
            ..Default::default()
        };
        let b = MatcherCounterSnapshot {
            rounds: 2,
            queue_peak: 3,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.queue_peak, 5);
    }

    #[test]
    fn json_renders_expected_text() {
        let j = Json::obj(vec![
            ("a", Json::U64(3)),
            ("b", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c", Json::str("x\"y")),
            ("d", Json::F64(1.5)),
            ("e", Json::F64(2.0)),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a":3,"b":[true,null],"c":"x\"y","d":1.5,"e":2.0}"#
        );
    }

    #[test]
    fn json_non_finite_floats_render_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn algo_counters_sum_batches() {
        let c = AlgoCounters {
            rounding_batch_sizes: vec![4, 4, 2],
            rounding_invocations: 3,
            ..Default::default()
        };
        assert_eq!(c.vectors_rounded(), 10);
        assert!(c.to_json().render().contains("\"vectors_rounded\":10"));
    }
}
