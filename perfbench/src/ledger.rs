//! The traced run's span ledger.
//!
//! Spans live in memory while the run measures and are written out
//! once it ends, so tracing adds no I/O to the timed ops. Each span has
//! a name (its layer), an op id shared by every span of one op, a
//! parent, and start/end offsets from the ledger's origin. A span's
//! *self time* is its duration minus its children's; the spans of one
//! op never overlap their siblings, so self times add up to the op's
//! wall time exactly.
//!
//! Spans are recorded from the benchmark's side of each public call
//! into a layer. Where only the program knows an extent (the server's
//! queue and solve timers, the fitted distributed cost split) the span
//! is placed inside its parent with that duration and marked
//! `derived`.

use netalign_trace::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval of one op.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `bp.step`.
    pub name: &'static str,
    /// Op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span (`None` for an op's root).
    pub parent: Option<usize>,
    /// Start, nanoseconds after the ledger's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the ledger's origin.
    pub end_ns: u64,
    /// Extent reported by the program rather than measured here.
    pub derived: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Mean per-op self time of each layer over a band of ops.
#[derive(Clone, Debug, PartialEq)]
pub struct Breakdown {
    /// `(layer, mean self ms per op)`, sorted by layer name.
    pub layers: Vec<(&'static str, f64)>,
    /// Mean wall time of the ops in the band.
    pub wall_ms: f64,
    /// Ops in the band.
    pub ops: usize,
}

impl Breakdown {
    /// Mean self ms per op of one layer (0 when the band never ran it).
    pub fn layer_ms(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, ms)| *ms)
    }

    /// Sum of every layer's self time: the band's wall time, rebuilt.
    pub fn sum_ms(&self) -> f64 {
        self.layers.iter().map(|(_, ms)| ms).sum()
    }
}

/// In-memory span store.
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Ledger {
    fn default() -> Self {
        Self::new()
    }
}

impl Ledger {
    /// An empty ledger whose clock starts now.
    pub fn new() -> Self {
        Ledger {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.push(Span {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
            derived: false,
        })
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Add a span of `dur_ms` reported by the program, starting
    /// `offset_ms` after its parent starts.
    pub fn derived(
        &mut self,
        name: &'static str,
        parent: usize,
        offset_ms: f64,
        dur_ms: f64,
    ) -> usize {
        let p = &self.spans[parent];
        let start_ns = p.start_ns + (offset_ms.max(0.0) * 1e6) as u64;
        let span = Span {
            name,
            op: p.op,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + (dur_ms.max(0.0) * 1e6) as u64,
            derived: true,
        };
        self.push(span)
    }

    /// Record a finished span.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Duration of span `id` in milliseconds.
    pub fn ms(&self, id: usize) -> f64 {
        self.spans[id].dur_ns() as f64 / 1e6
    }

    /// Self time of every span, in nanoseconds.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Wall time of every op whose root span is named `root`, in ms,
    /// in op order.
    pub fn op_walls(&self, root: &str) -> Vec<(u64, f64)> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| (s.op, s.dur_ns() as f64 / 1e6))
            .collect()
    }

    /// Total duration and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ms, n), s| (ms + s.dur_ns() as f64 / 1e6, n + 1))
    }

    /// Per-layer breakdown of the `root` ops whose wall time ranks
    /// between the 40th and 60th percentile: the ops that make up the
    /// median, so the layers sum to (close to) the traced p50 even when
    /// the op mix is skewed.
    pub fn median_band(&self, root: &str) -> Breakdown {
        let mut walls = self.op_walls(root);
        walls.sort_by(|a, b| a.1.total_cmp(&b.1));
        let n = walls.len();
        let (lo, hi) = (n * 2 / 5, (n * 3).div_ceil(5).max(n * 2 / 5 + 1).min(n));
        let band: Vec<u64> = walls[lo..hi].iter().map(|w| w.0).collect();
        self.breakdown(&band)
    }

    /// Per-layer mean self time over the given ops.
    pub fn breakdown(&self, ops: &[u64]) -> Breakdown {
        let own = self.self_ns();
        let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut wall = 0u64;
        for (s, own) in self.spans.iter().zip(own) {
            if !ops.contains(&s.op) {
                continue;
            }
            *layers.entry(s.name).or_default() += own;
            if s.parent.is_none() {
                wall += s.dur_ns();
            }
        }
        let per_op = |ns: u64| ns as f64 / 1e6 / ops.len().max(1) as f64;
        Breakdown {
            layers: layers.into_iter().map(|(n, ns)| (n, per_op(ns))).collect(),
            wall_ms: per_op(wall),
            ops: ops.len(),
        }
    }

    /// Write `header` and then one JSON object per span, one per line.
    pub fn write(&self, path: &Path, header: &Json) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(header.render_line().as_bytes())?;
        for (id, s) in self.spans.iter().enumerate() {
            let span = Json::obj(vec![
                ("id", Json::U64(id as u64)),
                ("name", Json::str(s.name)),
                ("op", Json::U64(s.op)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                ("derived", Json::Bool(s.derived)),
            ]);
            out.write_all(span.render_line().as_bytes())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u64, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            name,
            op,
            parent,
            start_ns: s * 1_000_000,
            end_ns: e * 1_000_000,
            derived: false,
        }
    }

    #[test]
    fn self_times_sum_to_the_op_wall() {
        let mut l = Ledger::new();
        let root = l.push(span("op", 0, None, 0, 10));
        let step = l.push(span("step", 0, Some(root), 1, 4));
        l.push(span("inner", 0, Some(step), 2, 3));
        l.push(span("round", 0, Some(root), 4, 9));
        let b = l.breakdown(&[0]);
        assert_eq!(b.layer_ms("op"), 2.0);
        assert_eq!(b.layer_ms("step"), 2.0);
        assert_eq!(b.layer_ms("inner"), 1.0);
        assert_eq!(b.layer_ms("round"), 5.0);
        assert_eq!(b.sum_ms(), 10.0);
        assert_eq!(b.wall_ms, 10.0);
        assert_eq!(l.total("step"), (3.0, 1));
    }

    #[test]
    fn median_band_skips_the_tails() {
        let mut l = Ledger::new();
        // Ten ops of wall 1..=10 ms; the slow tail has its own layer.
        for op in 0..10u64 {
            let root = l.push(span("op", op, None, 0, op + 1));
            if op == 9 {
                l.push(span("cold", op, Some(root), 0, 5));
            }
        }
        let b = l.median_band("op");
        assert_eq!(b.ops, 2);
        assert_eq!(b.wall_ms, 5.5);
        assert_eq!(b.layer_ms("cold"), 0.0);
    }

    #[test]
    fn derived_spans_nest_inside_their_parent() {
        let mut l = Ledger::new();
        let root = l.push(span("req", 3, None, 10, 20));
        let q = l.derived("queue", root, 1.0, 2.5);
        assert_eq!(l.spans[q].op, 3);
        assert_eq!(l.spans[q].start_ns, 11_000_000);
        assert_eq!(l.ms(q), 2.5);
        assert!(l.spans[q].derived);
        assert_eq!(l.breakdown(&[3]).layer_ms("req"), 7.5);
    }
}
