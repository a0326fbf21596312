//! Timed windows, set-up timing and the end-to-end report every
//! workload shares.

use crate::stats::{self, Percentile};
use crate::sys;
use netalign_trace::Json;
use std::time::Instant;

/// Set-up runs per benchmark run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Command-line arguments of one benchmark run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Latencies and CPU use of one closed-loop timed window.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Wall time of every completed op, in completion order.
    pub lat_ms: Vec<f64>,
    /// Length of the window.
    pub secs: f64,
    /// User + system CPU spent in the window, reaped children included.
    pub cpu_ms: f64,
    /// Ops started.
    pub attempted: u64,
    /// Ops that failed or returned a wrong result.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
}

/// Ops an end-to-end window holds at least: enough for p90 to keep 10
/// samples beyond it with room to spare. A window on a slow host runs
/// past its nominal length to reach it, up to [`MAX_STRETCH`] times.
pub const MIN_OPS: u64 = 120;
pub const MAX_STRETCH: f64 = 3.0;

impl Window {
    /// Run `op` back to back for `seconds`, and on until `min_ops` ops
    /// completed (within [`MAX_STRETCH`] × `seconds`). `op` times its
    /// own call (so result checking stays out of the latency) and
    /// returns the wall time with the check's verdict.
    pub fn closed_loop(
        seconds: f64,
        min_ops: u64,
        mut op: impl FnMut() -> (f64, Result<(), String>),
    ) -> Window {
        let cpu0 = sys::cpu_times().total_ms();
        let t0 = Instant::now();
        let mut w = Window::default();
        while window_open(t0, seconds, w.attempted, min_ops) {
            let (ms, checked) = op();
            w.record(ms, checked);
        }
        w.secs = t0.elapsed().as_secs_f64();
        w.cpu_ms = sys::cpu_times().total_ms() - cpu0;
        w
    }

    /// Alternate an untraced op and a traced op for `seconds`, so both
    /// samples come from the same stretch of host conditions. Returns
    /// the untraced and the traced window; both ops time themselves.
    pub fn alternating(
        seconds: f64,
        mut untraced: impl FnMut() -> (f64, Result<(), String>),
        mut traced: impl FnMut() -> (f64, Result<(), String>),
    ) -> (Window, Window) {
        let t0 = Instant::now();
        let (mut u, mut t) = (Window::default(), Window::default());
        while t0.elapsed().as_secs_f64() < seconds {
            let (ms, checked) = untraced();
            u.record(ms, checked);
            let (ms, checked) = traced();
            t.record(ms, checked);
        }
        u.secs = t0.elapsed().as_secs_f64();
        t.secs = u.secs;
        (u, t)
    }

    /// Count one op.
    pub fn record(&mut self, ms: f64, checked: Result<(), String>) {
        self.attempted += 1;
        self.lat_ms.push(ms);
        if let Err(e) = checked {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }

    /// Fold another window measured over the same interval (a second
    /// client) into this one.
    pub fn merge(&mut self, other: Window) {
        self.lat_ms.extend(other.lat_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    /// Nearest-rank percentile of the latencies.
    pub fn percentile(&self, q: f64) -> Option<Percentile> {
        stats::percentile(&stats::sorted(self.lat_ms.clone()), q)
    }
}

/// Whether a window that started at `t0` and has run `ops` ops goes on.
pub fn window_open(t0: Instant, seconds: f64, ops: u64, min_ops: u64) -> bool {
    let elapsed = t0.elapsed().as_secs_f64();
    elapsed < seconds || (ops < min_ops && elapsed < MAX_STRETCH * seconds)
}

/// Run `setup` [`SETUP_REPS`] times, keeping the last state; returns it
/// with the wall time of every repetition. Each earlier state is
/// dropped before the next is built, so memory peaks at one state.
pub fn repeated_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        let s = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        state = Some(s);
    }
    Ok((state.expect("SETUP_REPS > 0"), times))
}

/// What one benchmark run prints.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Run context: host, revision, instance, sample counts.
    pub context: Vec<(String, Json)>,
    /// Reasons the run must not count (it then exits non-zero).
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn context(&mut self, key: impl Into<String>, value: Json) {
        self.context.push((key.into(), value));
    }

    /// Count a window's ops and note its failures.
    pub fn count(&mut self, w: &Window) {
        self.attempted += w.attempted;
        self.failed += w.failed;
        if let Some(e) = &w.first_error {
            self.problems.push(format!(
                "{} of {} ops failed; first: {e}",
                w.failed, w.attempted
            ));
        }
    }

    /// Add a percentile metric, or withhold it (and fail the run) when
    /// too few samples lie beyond it.
    fn percentile(&mut self, name: &'static str, p: Option<Percentile>) {
        match p {
            Some(p) if p.reportable() => {
                self.metric(name, p.value, "ms");
                self.context(
                    format!("{name}.samples"),
                    Json::obj(vec![
                        ("samples", Json::U64(p.samples as u64)),
                        ("beyond", Json::U64(p.beyond as u64)),
                    ]),
                );
            }
            p => self.problems.push(format!(
                "{name} withheld: {} samples beyond it, need {}",
                p.map_or(0, |p| p.beyond),
                stats::MIN_BEYOND
            )),
        }
    }

    /// The end-to-end metrics of one untraced window and its set-up.
    pub fn end_to_end(&mut self, setup_s: &[f64], w: &Window) {
        let n = w.lat_ms.len().max(1) as f64;
        self.metric("setup_s", stats::median(setup_s), "s");
        self.percentile("p50_ms", w.percentile(0.5));
        self.percentile("p90_ms", w.percentile(0.9));
        self.metric("ops_per_s", w.lat_ms.len() as f64 / w.secs, "1/s");
        self.metric("cpu_ms_per_op", w.cpu_ms / n, "ms");
        self.metric("peak_rss_mib", sys::peak_rss_mib(), "MiB");
        self.context(
            "setup_reps_s",
            Json::Arr(setup_s.iter().map(|&s| Json::F64(s)).collect()),
        );
        self.context("window_s", Json::F64(w.secs));
        let lat = stats::sorted(w.lat_ms.clone());
        self.context(
            "lat_ms_min_q1_q2_q3_max",
            Json::Arr(
                [1e-9, 0.25, 0.5, 0.75, 1.0]
                    .iter()
                    .map(|&q| stats::percentile(&lat, q).map_or(Json::Null, |p| Json::F64(p.value)))
                    .collect(),
            ),
        );
        self.context(
            "error_rate",
            Json::F64(w.failed as f64 / w.attempted.max(1) as f64),
        );
        self.count(w);
    }

    /// The final stdout line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name,
                    Json::obj(vec![("value", Json::F64(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect();
        Json::obj(vec![
            (
                "correct",
                Json::Bool(self.failed == 0 && self.problems.is_empty()),
            ),
            ("attempted", Json::U64(self.attempted.max(1))),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}
