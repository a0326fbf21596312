//! Versioned, checksummed engine-state snapshots for crash recovery.
//!
//! A checkpoint captures everything a [`crate::bp::BpEngine`] /
//! [`crate::mr::MrEngine`] needs to continue a run *bit-identically*:
//! the damped messages or multipliers, the engine-local damping/step
//! state, the best-so-far iterate, the staged-but-unrounded BP batch,
//! the iteration history and the run counters. The runtime's
//! deterministic chunk decomposition (identical reductions at every
//! pool size) makes this a provable guarantee, asserted end-to-end by
//! the resilience suite: kill → resume equals the uninterrupted run.
//! Neither engine holds RNG state — every kernel is deterministic — so
//! nothing stochastic needs to be captured.
//!
//! # File format (version 2)
//!
//! Version 2 extends the matcher-counter block with four slots that
//! are always written as 0: `proposals` and `displacements` (the
//! Suitor matchers are gone) and `warm_hits` and `reseeded_vertices`
//! (rounding stopped warm-starting); version-1 files are rejected
//! with [`CheckpointError::VersionMismatch`]. Little-endian throughout:
//!
//! ```text
//! magic      4 bytes   b"NACP"
//! version    u32       2
//! engine     u8        0 = BP, 1 = MR
//! shape      4 × u64   (|V_A|, |V_B|, |E_L|, nnz(S))
//! config     u64       FNV-1a 64 of the canonical config string
//! payload_len u64
//! checksum   u64       FNV-1a 64 over the payload bytes
//! payload    payload_len bytes (engine-specific state)
//! ```
//!
//! Writes are atomic: serialize to `<file>.tmp` in the target
//! directory, `fsync`, rename over the final name, then best-effort
//! `fsync` the directory — a crash mid-write can leave a stale `.tmp`
//! but never a half-written checkpoint under the real name. Loads
//! validate magic, version, engine kind, problem shape, config
//! fingerprint and checksum, and reject failures with a typed
//! [`CheckpointError`] naming the cause; no `unwrap` anywhere on the
//! load path. Wall-clock step timings are intentionally *not*
//! checkpointed: the bit-identity contract covers objectives,
//! matchings, bounds and counters, not durations.

use crate::config::AlignConfig;
use crate::problem::NetAlignProblem;
use crate::result::IterationRecord;
use crate::trace::faults;
use netalign_trace::{AlgoCounters, MatcherCounterSnapshot};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Format version written by this build.
pub const CHECKPOINT_VERSION: u32 = 2;

const MAGIC: [u8; 4] = *b"NACP";
const HEADER_LEN: usize = 4 + 4 + 1 + 4 * 8 + 8 + 8 + 8;

/// Which engine a checkpoint belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Belief propagation ([`crate::bp::BpEngine`]).
    Bp,
    /// Matching relaxation ([`crate::mr::MrEngine`]).
    Mr,
}

impl EngineKind {
    /// Stable display name (also the checkpoint file-name infix).
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Bp => "bp",
            EngineKind::Mr => "mr",
        }
    }

    fn tag(&self) -> u8 {
        match self {
            EngineKind::Bp => 0,
            EngineKind::Mr => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<EngineKind> {
        match tag {
            0 => Some(EngineKind::Bp),
            1 => Some(EngineKind::Mr),
            _ => None,
        }
    }
}

/// Why a checkpoint could not be written or loaded. Every variant
/// names the offending file; loads distinguish structural damage
/// ([`CheckpointError::Corrupt`]) from honest mismatches (version,
/// engine, shape, config) so callers can tell "retry another file"
/// from "wrong file".
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io {
        /// File (or directory) involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// The file does not start with the checkpoint magic.
    BadMagic {
        /// Offending file.
        path: PathBuf,
    },
    /// Written by an incompatible format version.
    VersionMismatch {
        /// Offending file.
        path: PathBuf,
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// Checkpoint belongs to the other engine.
    WrongEngine {
        /// Offending file.
        path: PathBuf,
        /// Engine named in the header.
        found: &'static str,
        /// Engine the caller is resuming.
        expected: &'static str,
    },
    /// Checkpoint was taken on a different problem instance.
    ShapeMismatch {
        /// Offending file.
        path: PathBuf,
        /// `(|V_A|, |V_B|, |E_L|, nnz(S))` in the header.
        found: (u64, u64, u64, u64),
        /// Shape of the problem being resumed.
        expected: (u64, u64, u64, u64),
    },
    /// Checkpoint was taken under a different [`AlignConfig`].
    ConfigMismatch {
        /// Offending file.
        path: PathBuf,
    },
    /// Truncated file, checksum failure, or malformed payload.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What exactly failed.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint I/O error on {}: {source}", path.display())
            }
            CheckpointError::BadMagic { path } => {
                write!(f, "{} is not a checkpoint file (bad magic)", path.display())
            }
            CheckpointError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "{}: checkpoint version {found}, this build reads version {expected}",
                path.display()
            ),
            CheckpointError::WrongEngine {
                path,
                found,
                expected,
            } => write!(
                f,
                "{}: checkpoint is for the {found} engine, expected {expected}",
                path.display()
            ),
            CheckpointError::ShapeMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "{}: checkpoint problem shape {found:?} does not match {expected:?}",
                path.display()
            ),
            CheckpointError::ConfigMismatch { path } => write!(
                f,
                "{}: checkpoint was taken under a different configuration",
                path.display()
            ),
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "{}: corrupt checkpoint ({detail})", path.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Engine state
// ---------------------------------------------------------------------

/// Serializable snapshot of a [`crate::bp::BpEngine`] at an iteration
/// boundary. Only the independent state is captured: after damping the
/// previous iterates equal the current ones and the guard's safe copy
/// equals the (verified finite) iterate, so `y`/`z`/`sk` reconstruct
/// all three buffer families on resume.
#[derive(Clone, Debug, PartialEq)]
pub struct BpState {
    /// Iterations completed.
    pub k: usize,
    /// Engine-local damping base (differs from the configured `γ` after
    /// a numeric recovery tightened it).
    pub gamma: f64,
    /// Damped `y` messages over `E_L`.
    pub y: Vec<f64>,
    /// Damped `z` messages over `E_L`.
    pub z: Vec<f64>,
    /// Damped `S⁽ᵏ⁾` values over the pattern of `S`.
    pub sk: Vec<f64>,
    /// Iteration numbers of the staged-but-unrounded batch.
    pub pending_iter: Vec<usize>,
    /// Staged heuristic vectors awaiting the next batched rounding.
    pub pending_bufs: Vec<Vec<f64>>,
    /// Best `(objective, iteration)` so far.
    pub best: Option<(f64, usize)>,
    /// Heuristic vector behind `best`.
    pub best_g: Vec<f64>,
    /// Per-rounding history records so far.
    pub history: Vec<IterationRecord>,
    /// Aligner counters so far.
    pub algo: AlgoCounters,
    /// Matcher counters so far.
    pub matcher: MatcherCounterSnapshot,
}

/// Serializable snapshot of a [`crate::mr::MrEngine`] at an iteration
/// boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct MrState {
    /// Iterations completed.
    pub k: usize,
    /// Engine-local subgradient step size (halved by `mstep` stalls and
    /// numeric recoveries).
    pub gamma: f64,
    /// Lagrange multipliers over the pattern of `S`.
    pub u_vals: Vec<f64>,
    /// Best `(objective, iteration)` so far.
    pub best: Option<(f64, usize)>,
    /// Heuristic vector behind `best`.
    pub best_g: Vec<f64>,
    /// Best (smallest) upper bound so far.
    pub best_upper: f64,
    /// Iterations since the upper bound last improved.
    pub stall: usize,
    /// Per-iteration history records so far.
    pub history: Vec<IterationRecord>,
    /// Aligner counters so far.
    pub algo: AlgoCounters,
    /// Matcher counters so far.
    pub matcher: MatcherCounterSnapshot,
}

/// A parsed checkpoint: the engine-specific state.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointState {
    /// BP engine state.
    Bp(BpState),
    /// MR engine state.
    Mr(MrState),
}

impl CheckpointState {
    /// Which engine this state belongs to.
    pub fn engine(&self) -> EngineKind {
        match self {
            CheckpointState::Bp(_) => EngineKind::Bp,
            CheckpointState::Mr(_) => EngineKind::Mr,
        }
    }

    /// Iterations completed at snapshot time.
    pub fn iteration(&self) -> usize {
        match self {
            CheckpointState::Bp(s) => s.k,
            CheckpointState::Mr(s) => s.k,
        }
    }
}

// ---------------------------------------------------------------------
// FNV-1a + config fingerprint
// ---------------------------------------------------------------------

/// FNV-1a 64-bit hash — the checksum used by every on-disk format in
/// the workspace (checkpoints, serve-layer spill files, the operations
/// journal), re-exported from the NACS container so they all agree on
/// one implementation.
pub use netalign_graph::nacs::fnv1a64;

/// Fingerprint of every config field that influences the iteration
/// trajectory. Observability toggles (`record_history`,
/// `trace_matcher`) and the checkpoint cadence itself are deliberately
/// excluded: they never change the numbers, so a resume may e.g. use a
/// different checkpoint interval than the original run.
pub fn config_fingerprint(config: &AlignConfig) -> u64 {
    let canonical = format!(
        "alpha={};beta={};gamma={};iterations={};mstep={};batch={};matcher={:?};damping={:?};enriched={};final_exact={};guards={}",
        config.alpha.to_bits(),
        config.beta.to_bits(),
        config.gamma.to_bits(),
        config.iterations,
        config.mstep,
        config.batch,
        config.matcher,
        config.damping,
        config.enriched_rounding,
        config.final_exact_round,
        config.numeric_guards,
    );
    fnv1a64(canonical.as_bytes())
}

fn problem_shape(p: &NetAlignProblem) -> (u64, u64, u64, u64) {
    let (na, nb, m, nnz) = p.shape();
    (na as u64, nb as u64, m as u64, nnz as u64)
}

// ---------------------------------------------------------------------
// Payload serialization
// ---------------------------------------------------------------------

/// Little-endian payload builder shared by every on-disk format in the
/// workspace (checkpoint payloads, serve-layer spill files, journal
/// records). Pure in-memory appends; framing/checksums stay with the
/// caller.
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl Default for PayloadWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl PayloadWriter {
    /// Empty buffer.
    pub fn new() -> Self {
        PayloadWriter { buf: Vec::new() }
    }

    /// Consume the writer, yielding the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes accumulated so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` by bit pattern (exact round-trip, NaN-safe).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Append a length-prefixed `usize` slice.
    pub fn put_usize_slice(&mut self, v: &[usize]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_usize(x);
        }
    }

    fn put_opt_best(&mut self, best: Option<(f64, usize)>) {
        match best {
            None => self.put_u8(0),
            Some((obj, iter)) => {
                self.put_u8(1);
                self.put_f64(obj);
                self.put_usize(iter);
            }
        }
    }

    fn put_history(&mut self, history: &[IterationRecord]) {
        self.put_usize(history.len());
        for rec in history {
            self.put_usize(rec.iteration);
            self.put_f64(rec.objective);
            self.put_f64(rec.weight);
            self.put_f64(rec.overlap);
            match rec.upper_bound {
                None => self.put_u8(0),
                Some(ub) => {
                    self.put_u8(1);
                    self.put_f64(ub);
                }
            }
        }
    }

    fn put_algo(&mut self, algo: &AlgoCounters) {
        self.put_u64(algo.messages_updated);
        self.put_u64(algo.rounding_invocations);
        self.put_u64(algo.best_improvements);
        self.put_u64(algo.numeric_recoveries);
        self.put_usize(algo.rounding_batch_sizes.len());
        for &s in &algo.rounding_batch_sizes {
            self.put_u64(s);
        }
    }

    fn put_matcher(&mut self, m: &MatcherCounterSnapshot) {
        self.put_u64(m.rounds);
        self.put_u64(m.find_mate_initial);
        self.put_u64(m.find_mate_reruns);
        self.put_u64(m.match_attempts);
        self.put_u64(m.matched_pairs);
        self.put_u64(m.cas_failures);
        self.put_u64(m.queue_peak);
        self.put_u64(m.proposals);
        self.put_u64(m.displacements);
        self.put_u64(m.warm_hits);
        self.put_u64(m.reseeded_vertices);
    }
}

/// Bounded cursor over the payload; every read is length-checked and
/// reports a descriptive corruption detail instead of panicking.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    /// Borrow the next `n` bytes, or a descriptive truncation error.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "payload truncated reading {what}: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Next byte.
    pub fn get_u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    /// Next `u64` (little-endian).
    pub fn get_u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Next `u64`, converted to `usize`.
    pub fn get_usize(&mut self, what: &str) -> Result<usize, String> {
        let v = self.get_u64(what)?;
        usize::try_from(v).map_err(|_| format!("{what}: value {v} exceeds usize"))
    }

    /// Next `f64` by bit pattern.
    pub fn get_f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Length-prefixed `f64` vector whose length must equal `expect`
    /// (a problem dimension), guarding against shape-coherent headers
    /// with incoherent payloads.
    pub fn get_f64_vec(&mut self, expect: usize, what: &str) -> Result<Vec<f64>, String> {
        let len = self.get_usize(what)?;
        if len != expect {
            return Err(format!("{what}: length {len}, expected {expect}"));
        }
        let bytes = self.take(len * 8, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                let mut arr = [0u8; 8];
                arr.copy_from_slice(c);
                f64::from_bits(u64::from_le_bytes(arr))
            })
            .collect())
    }

    /// Length-prefixed `usize` vector, capped at `max` entries.
    pub fn get_usize_vec(&mut self, max: usize, what: &str) -> Result<Vec<usize>, String> {
        let len = self.get_usize(what)?;
        if len > max {
            return Err(format!("{what}: implausible length {len} (cap {max})"));
        }
        (0..len).map(|_| self.get_usize(what)).collect()
    }

    fn get_opt_best(&mut self) -> Result<Option<(f64, usize)>, String> {
        match self.get_u8("best flag")? {
            0 => Ok(None),
            1 => {
                let obj = self.get_f64("best objective")?;
                let iter = self.get_usize("best iteration")?;
                Ok(Some((obj, iter)))
            }
            t => Err(format!("best flag: invalid tag {t}")),
        }
    }

    fn get_history(&mut self, max: usize) -> Result<Vec<IterationRecord>, String> {
        let len = self.get_usize("history length")?;
        if len > max {
            return Err(format!("history length {len} implausible (cap {max})"));
        }
        (0..len)
            .map(|_| {
                let iteration = self.get_usize("history iteration")?;
                let objective = self.get_f64("history objective")?;
                let weight = self.get_f64("history weight")?;
                let overlap = self.get_f64("history overlap")?;
                let upper_bound = match self.get_u8("history ub flag")? {
                    0 => None,
                    1 => Some(self.get_f64("history upper bound")?),
                    t => return Err(format!("history ub flag: invalid tag {t}")),
                };
                Ok(IterationRecord {
                    iteration,
                    objective,
                    weight,
                    overlap,
                    upper_bound,
                })
            })
            .collect()
    }

    fn get_algo(&mut self, max_batches: usize) -> Result<AlgoCounters, String> {
        let messages_updated = self.get_u64("algo.messages_updated")?;
        let rounding_invocations = self.get_u64("algo.rounding_invocations")?;
        let best_improvements = self.get_u64("algo.best_improvements")?;
        let numeric_recoveries = self.get_u64("algo.numeric_recoveries")?;
        let len = self.get_usize("algo.batch_sizes length")?;
        if len > max_batches {
            return Err(format!("algo.batch_sizes length {len} implausible"));
        }
        let rounding_batch_sizes = (0..len)
            .map(|_| self.get_u64("algo.batch_sizes entry"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(AlgoCounters {
            messages_updated,
            rounding_invocations,
            rounding_batch_sizes,
            best_improvements,
            numeric_recoveries,
        })
    }

    fn get_matcher(&mut self) -> Result<MatcherCounterSnapshot, String> {
        Ok(MatcherCounterSnapshot {
            rounds: self.get_u64("matcher.rounds")?,
            find_mate_initial: self.get_u64("matcher.find_mate_initial")?,
            find_mate_reruns: self.get_u64("matcher.find_mate_reruns")?,
            match_attempts: self.get_u64("matcher.match_attempts")?,
            matched_pairs: self.get_u64("matcher.matched_pairs")?,
            cas_failures: self.get_u64("matcher.cas_failures")?,
            queue_peak: self.get_u64("matcher.queue_peak")?,
            proposals: self.get_u64("matcher.proposals")?,
            displacements: self.get_u64("matcher.displacements")?,
            warm_hits: self.get_u64("matcher.warm_hits")?,
            reseeded_vertices: self.get_u64("matcher.reseeded_vertices")?,
        })
    }

    /// Assert the cursor consumed the whole buffer.
    pub fn finish(&self, what: &str) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{what}: {} trailing bytes after payload",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

fn serialize_payload(state: &CheckpointState) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    match state {
        CheckpointState::Bp(s) => {
            w.put_usize(s.k);
            w.put_f64(s.gamma);
            w.put_f64_slice(&s.y);
            w.put_f64_slice(&s.z);
            w.put_f64_slice(&s.sk);
            w.put_usize_slice(&s.pending_iter);
            w.put_usize(s.pending_bufs.len());
            for buf in &s.pending_bufs {
                w.put_f64_slice(buf);
            }
            w.put_opt_best(s.best);
            w.put_f64_slice(&s.best_g);
            w.put_history(&s.history);
            w.put_algo(&s.algo);
            w.put_matcher(&s.matcher);
        }
        CheckpointState::Mr(s) => {
            w.put_usize(s.k);
            w.put_f64(s.gamma);
            w.put_f64_slice(&s.u_vals);
            w.put_opt_best(s.best);
            w.put_f64_slice(&s.best_g);
            w.put_f64(s.best_upper);
            w.put_usize(s.stall);
            w.put_history(&s.history);
            w.put_algo(&s.algo);
            w.put_matcher(&s.matcher);
        }
    }
    w.into_bytes()
}

/// Sanity cap for variable-length payload sections, derived from the
/// configured iteration budget (each iteration contributes at most a
/// handful of records).
fn plausibility_cap(config: &AlignConfig) -> usize {
    4 * config.iterations + 16
}

fn parse_payload(
    payload: &[u8],
    engine: EngineKind,
    p: &NetAlignProblem,
    config: &AlignConfig,
) -> Result<CheckpointState, String> {
    let (_, _, m, nnz) = p.shape();
    let cap = plausibility_cap(config);
    let mut r = PayloadReader::new(payload);
    let state = match engine {
        EngineKind::Bp => {
            let k = r.get_usize("bp.k")?;
            let gamma = r.get_f64("bp.gamma")?;
            let y = r.get_f64_vec(m, "bp.y")?;
            let z = r.get_f64_vec(m, "bp.z")?;
            let sk = r.get_f64_vec(nnz, "bp.sk")?;
            let pending_iter = r.get_usize_vec(cap, "bp.pending_iter")?;
            let n_bufs = r.get_usize("bp.pending_bufs length")?;
            if n_bufs != pending_iter.len() {
                return Err(format!(
                    "bp.pending_bufs length {n_bufs} != pending_iter length {}",
                    pending_iter.len()
                ));
            }
            let pending_bufs = (0..n_bufs)
                .map(|_| r.get_f64_vec(m, "bp.pending buffer"))
                .collect::<Result<Vec<_>, _>>()?;
            let best = r.get_opt_best()?;
            let best_g = r.get_f64_vec(m, "bp.best_g")?;
            let history = r.get_history(cap)?;
            let algo = r.get_algo(cap)?;
            let matcher = r.get_matcher()?;
            CheckpointState::Bp(BpState {
                k,
                gamma,
                y,
                z,
                sk,
                pending_iter,
                pending_bufs,
                best,
                best_g,
                history,
                algo,
                matcher,
            })
        }
        EngineKind::Mr => {
            let k = r.get_usize("mr.k")?;
            let gamma = r.get_f64("mr.gamma")?;
            let u_vals = r.get_f64_vec(nnz, "mr.u_vals")?;
            let best = r.get_opt_best()?;
            let best_g = r.get_f64_vec(m, "mr.best_g")?;
            let best_upper = r.get_f64("mr.best_upper")?;
            let stall = r.get_usize("mr.stall")?;
            let history = r.get_history(cap)?;
            let algo = r.get_algo(cap)?;
            let matcher = r.get_matcher()?;
            CheckpointState::Mr(MrState {
                k,
                gamma,
                u_vals,
                best,
                best_g,
                best_upper,
                stall,
                history,
                algo,
                matcher,
            })
        }
    };
    r.finish("payload")?;
    Ok(state)
}

// ---------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------

fn io_err(path: &Path, source: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Serialize `state` and write it atomically to `path`. The
/// fault-injection layer may damage the byte buffer on its way out
/// (that is the point: the *loader* must catch it).
pub fn write_checkpoint(
    path: &Path,
    p: &NetAlignProblem,
    config: &AlignConfig,
    state: &CheckpointState,
) -> Result<(), CheckpointError> {
    let payload = serialize_payload(state);
    let shape = problem_shape(p);
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    bytes.push(state.engine().tag());
    for dim in [shape.0, shape.1, shape.2, shape.3] {
        bytes.extend_from_slice(&dim.to_le_bytes());
    }
    bytes.extend_from_slice(&config_fingerprint(config).to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);

    if let Some(damage) = faults::checkpoint_damage() {
        faults::damage_bytes(&mut bytes, damage);
    }

    write_atomic(path, &bytes)
}

/// Write `bytes` to `path` via a same-directory temp file + `fsync` +
/// rename, so a crash never leaves a partial file under `path`.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    if let Some(dir) = dir {
        // Persist the rename itself; best-effort (not all platforms
        // support fsync on directories).
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Load and fully validate a checkpoint for `expected` engine, problem
/// and configuration.
pub fn load_checkpoint(
    path: &Path,
    expected: EngineKind,
    p: &NetAlignProblem,
    config: &AlignConfig,
) -> Result<CheckpointState, CheckpointError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    let corrupt = |detail: String| CheckpointError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    if bytes.len() < 4 || bytes[0..4] != MAGIC {
        return Err(CheckpointError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "file is {} bytes, header needs {HEADER_LEN}",
            bytes.len()
        )));
    }
    // Header reads cannot fail on length (checked above); map_err keeps
    // the load path unwrap-free regardless.
    let mut r = PayloadReader::new(&bytes[4..HEADER_LEN]);
    let version = {
        let b = r.take(4, "version").map_err(corrupt)?;
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    };
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            path: path.to_path_buf(),
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let tag = r.get_u8("engine tag").map_err(corrupt)?;
    let engine = EngineKind::from_tag(tag).ok_or_else(|| corrupt(format!("engine tag {tag}")))?;
    if engine != expected {
        return Err(CheckpointError::WrongEngine {
            path: path.to_path_buf(),
            found: engine.name(),
            expected: expected.name(),
        });
    }
    let mut shape = [0u64; 4];
    for s in shape.iter_mut() {
        *s = r.get_u64("shape").map_err(corrupt)?;
    }
    let found = (shape[0], shape[1], shape[2], shape[3]);
    let expected_shape = problem_shape(p);
    if found != expected_shape {
        return Err(CheckpointError::ShapeMismatch {
            path: path.to_path_buf(),
            found,
            expected: expected_shape,
        });
    }
    let fingerprint = r.get_u64("config fingerprint").map_err(corrupt)?;
    if fingerprint != config_fingerprint(config) {
        return Err(CheckpointError::ConfigMismatch {
            path: path.to_path_buf(),
        });
    }
    let payload_len = r.get_usize("payload length").map_err(corrupt)?;
    let checksum = r.get_u64("checksum").map_err(corrupt)?;
    let payload = bytes
        .get(HEADER_LEN..)
        .filter(|pl| pl.len() == payload_len)
        .ok_or_else(|| {
            corrupt(format!(
                "payload is {} bytes, header says {payload_len}",
                bytes.len() - HEADER_LEN
            ))
        })?;
    let actual = fnv1a64(payload);
    if actual != checksum {
        return Err(corrupt(format!(
            "checksum mismatch: stored {checksum:#018x}, computed {actual:#018x}"
        )));
    }
    parse_payload(payload, engine, p, config).map_err(corrupt)
}

// ---------------------------------------------------------------------
// Checkpoint directories
// ---------------------------------------------------------------------

/// File name for engine `engine` at iteration `k`:
/// `ckpt-<engine>-<k:06>.bin`. Zero-padding makes lexicographic order
/// equal iteration order, which the latest-first scan relies on.
pub fn checkpoint_file_name(engine: EngineKind, k: usize) -> String {
    format!("ckpt-{}-{k:06}.bin", engine.name())
}

/// Checkpoint files for `engine` in `dir`, newest (highest iteration)
/// first. Missing or unreadable directories yield an empty list.
pub fn list_checkpoints(dir: &Path, engine: EngineKind) -> Vec<PathBuf> {
    let prefix = format!("ckpt-{}-", engine.name());
    let mut found: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|path| {
                path.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".bin"))
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    found.sort();
    found.reverse();
    found
}

/// Load the newest checkpoint in `dir` that validates cleanly, skipping
/// damaged or mismatched files (each skip is recorded in the returned
/// attempts list). Returns `Ok(None)` when no file validates.
#[allow(clippy::type_complexity)]
pub fn load_latest_checkpoint(
    dir: &Path,
    expected: EngineKind,
    p: &NetAlignProblem,
    config: &AlignConfig,
) -> Result<Option<(PathBuf, CheckpointState)>, Vec<(PathBuf, CheckpointError)>> {
    let mut attempts = Vec::new();
    for path in list_checkpoints(dir, expected) {
        match load_checkpoint(&path, expected, p, config) {
            Ok(state) => return Ok(Some((path, state))),
            Err(e) => attempts.push((path, e)),
        }
    }
    if attempts.is_empty() {
        Ok(None)
    } else {
        Err(attempts)
    }
}

/// Delete all but the newest `keep` checkpoints for `engine` in `dir`
/// (best-effort; removal failures are ignored).
pub fn prune_checkpoints(dir: &Path, engine: EngineKind, keep: usize) {
    for stale in list_checkpoints(dir, engine).into_iter().skip(keep) {
        let _ = std::fs::remove_file(stale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netalign_graph::{BipartiteGraph, Graph};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tiny_problem() -> NetAlignProblem {
        let a = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let b = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let l = BipartiteGraph::from_entries(3, 3, vec![(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        NetAlignProblem::new(a, b, l)
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "netalign-ckpt-test-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn sample_bp_state(p: &NetAlignProblem) -> CheckpointState {
        let (_, _, m, nnz) = p.shape();
        CheckpointState::Bp(BpState {
            k: 7,
            gamma: 0.495,
            y: (0..m).map(|i| i as f64 * 0.5).collect(),
            z: (0..m).map(|i| -(i as f64)).collect(),
            sk: (0..nnz).map(|i| i as f64 + 0.25).collect(),
            pending_iter: vec![6, 7],
            pending_bufs: vec![vec![1.0; m], vec![2.0; m]],
            best: Some((3.5, 4)),
            best_g: vec![0.5; m],
            history: vec![IterationRecord {
                iteration: 4,
                objective: 3.5,
                weight: 2.0,
                overlap: 0.75,
                upper_bound: None,
            }],
            algo: AlgoCounters {
                messages_updated: 123,
                rounding_invocations: 3,
                rounding_batch_sizes: vec![2, 2, 1],
                best_improvements: 2,
                numeric_recoveries: 1,
            },
            matcher: MatcherCounterSnapshot {
                rounds: 5,
                matched_pairs: 9,
                ..Default::default()
            },
        })
    }

    fn sample_mr_state(p: &NetAlignProblem) -> CheckpointState {
        let (_, _, m, nnz) = p.shape();
        CheckpointState::Mr(MrState {
            k: 11,
            gamma: 0.2,
            u_vals: (0..nnz).map(|i| (i as f64) * 0.125 - 1.0).collect(),
            best: Some((2.0, 9)),
            best_g: vec![0.25; m],
            best_upper: 2.5,
            stall: 3,
            history: vec![IterationRecord {
                iteration: 9,
                objective: 2.0,
                weight: 2.0,
                overlap: 0.0,
                upper_bound: Some(2.5),
            }],
            algo: AlgoCounters::default(),
            matcher: MatcherCounterSnapshot::default(),
        })
    }

    #[test]
    fn bp_state_round_trips() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig::default();
        let dir = scratch_dir("bp-rt");
        let path = dir.join(checkpoint_file_name(EngineKind::Bp, 7));
        let state = sample_bp_state(&p);
        write_checkpoint(&path, &p, &cfg, &state).expect("write");
        let loaded = load_checkpoint(&path, EngineKind::Bp, &p, &cfg).expect("load");
        assert_eq!(loaded, state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mr_state_round_trips() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig::default();
        let dir = scratch_dir("mr-rt");
        let path = dir.join(checkpoint_file_name(EngineKind::Mr, 11));
        let state = sample_mr_state(&p);
        write_checkpoint(&path, &p, &cfg, &state).expect("write");
        let loaded = load_checkpoint(&path, EngineKind::Mr, &p, &cfg).expect("load");
        assert_eq!(loaded, state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig::default();
        let dir = scratch_dir("magic");
        let path = dir.join("not-a-checkpoint.bin");
        std::fs::write(
            &path,
            b"definitely not NACP data, long enough to pass the header check",
        )
        .expect("write junk");
        match load_checkpoint(&path, EngineKind::Bp, &p, &cfg) {
            Err(CheckpointError::BadMagic { .. }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_version_mismatch() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig::default();
        let dir = scratch_dir("version");
        let path = dir.join("ckpt.bin");
        write_checkpoint(&path, &p, &cfg, &sample_bp_state(&p)).expect("write");
        let mut bytes = std::fs::read(&path).expect("read back");
        bytes[4] = 99; // bump the version field
        std::fs::write(&path, &bytes).expect("rewrite");
        match load_checkpoint(&path, EngineKind::Bp, &p, &cfg) {
            Err(CheckpointError::VersionMismatch {
                found, expected, ..
            }) => {
                assert_eq!(found, 99);
                assert_eq!(expected, CHECKPOINT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_wrong_engine() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig::default();
        let dir = scratch_dir("engine");
        let path = dir.join("ckpt.bin");
        write_checkpoint(&path, &p, &cfg, &sample_bp_state(&p)).expect("write");
        match load_checkpoint(&path, EngineKind::Mr, &p, &cfg) {
            Err(CheckpointError::WrongEngine {
                found, expected, ..
            }) => {
                assert_eq!(found, "bp");
                assert_eq!(expected, "mr");
            }
            other => panic!("expected WrongEngine, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_shape_mismatch() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig::default();
        let dir = scratch_dir("shape");
        let path = dir.join("ckpt.bin");
        write_checkpoint(&path, &p, &cfg, &sample_bp_state(&p)).expect("write");
        let a = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let b = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let l = BipartiteGraph::from_entries(
            4,
            4,
            vec![(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0)],
        );
        let other = NetAlignProblem::new(a, b, l);
        match load_checkpoint(&path, EngineKind::Bp, &other, &cfg) {
            Err(CheckpointError::ShapeMismatch { .. }) => {}
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_config_mismatch() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig::default();
        let dir = scratch_dir("config");
        let path = dir.join("ckpt.bin");
        write_checkpoint(&path, &p, &cfg, &sample_bp_state(&p)).expect("write");
        let other = AlignConfig { gamma: 0.5, ..cfg };
        match load_checkpoint(&path, EngineKind::Bp, &p, &other) {
            Err(CheckpointError::ConfigMismatch { .. }) => {}
            got => panic!("expected ConfigMismatch, got {got:?}"),
        }
        // Observability toggles are excluded from the fingerprint.
        let still_fine = AlignConfig {
            record_history: true,
            ..cfg
        };
        load_checkpoint(&path, EngineKind::Bp, &p, &still_fine)
            .expect("history toggle must not invalidate checkpoints");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_corruption_and_truncation() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig::default();
        let dir = scratch_dir("corrupt");
        let path = dir.join("ckpt.bin");
        write_checkpoint(&path, &p, &cfg, &sample_bp_state(&p)).expect("write");
        let pristine = std::fs::read(&path).expect("read back");

        // Flip a payload byte -> checksum failure.
        let mut bytes = pristine.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite");
        match load_checkpoint(&path, EngineKind::Bp, &p, &cfg) {
            Err(CheckpointError::Corrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "detail: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Truncate the payload -> length failure.
        std::fs::write(&path, &pristine[..pristine.len() / 2]).expect("truncate");
        match load_checkpoint(&path, EngineKind::Bp, &p, &cfg) {
            Err(CheckpointError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Truncate into the header.
        std::fs::write(&path, &pristine[..10]).expect("truncate header");
        match load_checkpoint(&path, EngineKind::Bp, &p, &cfg) {
            Err(CheckpointError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig::default();
        let path = std::env::temp_dir().join("netalign-ckpt-test-definitely-missing.bin");
        match load_checkpoint(&path, EngineKind::Bp, &p, &cfg) {
            Err(CheckpointError::Io { .. }) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn latest_scan_skips_damaged_files() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig::default();
        let dir = scratch_dir("latest");
        let older = dir.join(checkpoint_file_name(EngineKind::Bp, 3));
        let newer = dir.join(checkpoint_file_name(EngineKind::Bp, 7));
        let old_state = CheckpointState::Bp(match sample_bp_state(&p) {
            CheckpointState::Bp(mut s) => {
                s.k = 3;
                s
            }
            _ => unreachable!(),
        });
        write_checkpoint(&older, &p, &cfg, &old_state).expect("write older");
        write_checkpoint(&newer, &p, &cfg, &sample_bp_state(&p)).expect("write newer");
        // Damage the newest file; the scan must fall back to iteration 3.
        let mut bytes = std::fs::read(&newer).expect("read newer");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newer, &bytes).expect("rewrite newer");
        let (path, state) = load_latest_checkpoint(&dir, EngineKind::Bp, &p, &cfg)
            .expect("scan")
            .expect("some checkpoint validates");
        assert_eq!(path, older);
        assert_eq!(state.iteration(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_newest() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig::default();
        let dir = scratch_dir("prune");
        for k in [1usize, 2, 3, 4, 5] {
            let path = dir.join(checkpoint_file_name(EngineKind::Bp, k));
            let state = CheckpointState::Bp(match sample_bp_state(&p) {
                CheckpointState::Bp(mut s) => {
                    s.k = k;
                    s
                }
                _ => unreachable!(),
            });
            write_checkpoint(&path, &p, &cfg, &state).expect("write");
        }
        prune_checkpoints(&dir, EngineKind::Bp, 2);
        let left = list_checkpoints(&dir, EngineKind::Bp);
        assert_eq!(left.len(), 2);
        assert!(left[0].ends_with(checkpoint_file_name(EngineKind::Bp, 5)));
        assert!(left[1].ends_with(checkpoint_file_name(EngineKind::Bp, 4)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_write_damage_is_caught_by_loader() {
        let _guard = faults::test_lock();
        let p = tiny_problem();
        let cfg = AlignConfig::default();
        let dir = scratch_dir("fault");
        let path = dir.join("ckpt.bin");
        faults::install(faults::FaultPlan {
            checkpoint: Some(faults::CheckpointFault {
                damage: faults::CheckpointDamage::Corrupt,
                nth_write: 1,
            }),
            ..Default::default()
        });
        write_checkpoint(&path, &p, &cfg, &sample_bp_state(&p)).expect("write");
        faults::clear();
        assert!(
            load_checkpoint(&path, EngineKind::Bp, &p, &cfg).is_err(),
            "damaged write must not load"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
