//! Server-wide observability: request/error counters, cache and queue
//! gauges and latency histograms (service-level, plus cache-hit/miss
//! solve) — exported as one JSON document by the `metrics` op.

use netalign_trace::metrics::LatencyHistogram;
use netalign_trace::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// All counters live behind relaxed atomics: every thread records,
/// the `metrics` op snapshots.
pub struct ServerMetrics {
    started: Instant,
    /// Frames that parsed into some request.
    pub requests_total: AtomicU64,
    /// 200 align replies.
    pub align_ok: AtomicU64,
    /// 400 replies.
    pub malformed: AtomicU64,
    /// 413 replies.
    pub oversized: AtomicU64,
    /// 422 replies.
    pub invalid: AtomicU64,
    /// 429 replies.
    pub overload: AtomicU64,
    /// 500 replies.
    pub internal: AtomicU64,
    /// 503 replies.
    pub shutting_down: AtomicU64,
    /// Engine-cache hits (warm serves).
    pub cache_hits: AtomicU64,
    /// Engine-cache misses (cold builds).
    pub cache_misses: AtomicU64,
    /// Engine-cache evictions.
    pub cache_evictions: AtomicU64,
    /// Problems currently cached.
    pub cache_entries: AtomicU64,
    /// Requests currently admitted but not finished.
    pub queue_depth: AtomicU64,
    /// Connections currently open.
    pub connections: AtomicU64,
    /// Runs that ended `deadline-best-so-far`.
    pub deadline_best_so_far: AtomicU64,
    /// 200 `align_delta` replies.
    pub delta_served: AtomicU64,
    /// 422 `align_delta` replies (unknown/unrecorded base, bad delta).
    pub delta_rejected: AtomicU64,
    /// Iterations replayed through the sparse delta path, summed.
    pub delta_reused_iterations: AtomicU64,
    /// 408 replies (per-connection frame timeout tripped).
    pub timeouts: AtomicU64,
    /// Supervised restarts this process has behind it (seeded from the
    /// supervisor via `NETALIGND_RESTARTS`).
    pub restarts: AtomicU64,
    /// Boot-time journal recoveries that replayed committed state.
    pub recoveries: AtomicU64,
    /// Committed journal operations replayed at boot.
    pub journal_replayed: AtomicU64,
    /// Torn/corrupt journal tails discarded at boot.
    pub journal_torn_discarded: AtomicU64,
    /// Spill files that failed to write (entry served but not durable).
    pub spill_write_errors: AtomicU64,
    /// Spill files that failed to load at boot (entry dropped).
    pub spill_load_errors: AtomicU64,
    /// End-to-end service latency (admission to reply built).
    pub service_latency: LatencyHistogram,
    /// Solve latency of cache-hit (warm) requests.
    pub solve_warm: LatencyHistogram,
    /// Solve latency of cache-miss (cold) requests.
    pub solve_cold: LatencyHistogram,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// Zeroed metrics, clock started now.
    pub fn new() -> Self {
        ServerMetrics {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            align_ok: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            overload: AtomicU64::new(0),
            internal: AtomicU64::new(0),
            shutting_down: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            cache_entries: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            deadline_best_so_far: AtomicU64::new(0),
            delta_served: AtomicU64::new(0),
            delta_rejected: AtomicU64::new(0),
            delta_reused_iterations: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            journal_replayed: AtomicU64::new(0),
            journal_torn_discarded: AtomicU64::new(0),
            spill_write_errors: AtomicU64::new(0),
            spill_load_errors: AtomicU64::new(0),
            service_latency: LatencyHistogram::new(),
            solve_warm: LatencyHistogram::new(),
            solve_cold: LatencyHistogram::new(),
        }
    }

    /// Increment a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Resident set size of this process in kilobytes (Linux; `None`
    /// elsewhere or when `/proc` is unavailable).
    pub fn vm_rss_kb() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// The full `/metrics`-style snapshot.
    pub fn to_json(&self, queue_capacity: usize, cache_capacity: usize) -> Json {
        let load = |c: &AtomicU64| Json::U64(c.load(Ordering::Relaxed));
        Json::obj(vec![
            (
                "uptime_ms",
                Json::U64(self.started.elapsed().as_millis() as u64),
            ),
            ("requests_total", load(&self.requests_total)),
            ("align_ok", load(&self.align_ok)),
            (
                "errors",
                Json::obj(vec![
                    ("malformed", load(&self.malformed)),
                    ("oversized", load(&self.oversized)),
                    ("invalid", load(&self.invalid)),
                    ("overload", load(&self.overload)),
                    ("internal", load(&self.internal)),
                    ("shutting_down", load(&self.shutting_down)),
                    ("timeouts", load(&self.timeouts)),
                ]),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("hits", load(&self.cache_hits)),
                    ("misses", load(&self.cache_misses)),
                    ("evictions", load(&self.cache_evictions)),
                    ("entries", load(&self.cache_entries)),
                    ("capacity", Json::U64(cache_capacity as u64)),
                ]),
            ),
            (
                "queue",
                Json::obj(vec![
                    ("depth", load(&self.queue_depth)),
                    ("capacity", Json::U64(queue_capacity as u64)),
                ]),
            ),
            ("connections", load(&self.connections)),
            ("deadline_best_so_far", load(&self.deadline_best_so_far)),
            (
                "delta",
                Json::obj(vec![
                    ("served", load(&self.delta_served)),
                    ("rejected", load(&self.delta_rejected)),
                    ("reused_iterations", load(&self.delta_reused_iterations)),
                ]),
            ),
            (
                "durable",
                Json::obj(vec![
                    ("restarts", load(&self.restarts)),
                    ("recoveries", load(&self.recoveries)),
                    ("journal_replayed", load(&self.journal_replayed)),
                    ("journal_torn_discarded", load(&self.journal_torn_discarded)),
                    ("spill_write_errors", load(&self.spill_write_errors)),
                    ("spill_load_errors", load(&self.spill_load_errors)),
                ]),
            ),
            // Distributed-run counters are process-global (the
            // coordinator in `netalign_core::dist` bumps them); the
            // daemon surfaces them so a fleet scraping `metrics` sees
            // recovery activity without reading coordinator logs.
            ("dist", netalign_trace::dist::global().snapshot().to_json()),
            (
                "latency",
                Json::obj(vec![
                    ("service", self.service_latency.to_json()),
                    ("solve_warm", self.solve_warm.to_json()),
                    ("solve_cold", self.solve_cold.to_json()),
                ]),
            ),
            (
                "process",
                Json::obj(vec![(
                    "vm_rss_kb",
                    Self::vm_rss_kb().map_or(Json::Null, Json::U64),
                )]),
            ),
        ])
    }
}
