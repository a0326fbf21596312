//! Durable serving state: spill files + an operations journal.
//!
//! With `--state-dir` set, `netalignd` survives hard crashes with
//! *bit-identical* recovery. Two on-disk artifacts per directory:
//!
//! * **Spill files** (`spill-<fp>.nasp`) — one per recorded cache
//!   entry, holding everything a [`crate::cache::CacheEntry`] needs to
//!   answer `align_delta` again: the full [`AlignConfig`], the graphs
//!   `A`/`B`/`L`, and the recorded [`BpTrajectory`]. The squares
//!   matrix and the rounding engine are deliberately *not* spilled:
//!   `NetAlignProblem::new` rebuilds `S` bit-identically from the
//!   canonical graphs, and the engine holds only scratch buffers, so
//!   a rebooted entry simply builds a fresh one. Same framing
//!   discipline as `NACP` checkpoints: magic, version, FNV-1a checksum
//!   over the payload, atomic tmp+fsync+rename+dir-fsync. Version 2
//!   dropped the config byte of the removed warm start option, and
//!   version 3 the byte of the removed `rounding` option together with
//!   the Suitor matcher tags (5, 6 and 10); older files fail to load
//!   with a version error.
//!
//! * **The journal** (`journal.log`) — an append-only, per-record
//!   checksummed log of admitted `align --record` / `align_delta`
//!   operations. A `begin` record is appended at admission, a `commit`
//!   record (fsynced) once the spill file is durable; recovery replays
//!   commits only, so an entry is either fully restorable or invisible
//!   — never half-loaded. A torn or bit-flipped tail (the crash case
//!   the chaos suite injects at `journal-append`) is detected by the
//!   per-record checksum, counted, and truncated away so the journal
//!   stays appendable. When the file outgrows `max_journal_bytes` it
//!   is rotated: rewritten as one commit per live entry (atomic
//!   rename), and orphaned spill files are garbage-collected.
//!
//! The store is owned by the solver thread — like the engine cache it
//! mirrors, it needs no locking.

use crate::fingerprint::{problem_fingerprint, Method};
use netalign_core::checkpoint::{fnv1a64, PayloadReader, PayloadWriter};
use netalign_core::config::{AlignConfig, CheckpointPolicy, DampingKind};
use netalign_core::delta::BpTrajectory;
use netalign_core::problem::NetAlignProblem;
use netalign_graph::{BipartiteGraph, Graph, VertexId};
use netalign_matching::MatcherKind;
use netalign_trace::faults;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Spill-file magic (`NACP`'s sibling: NetAlign SPill).
const SPILL_MAGIC: [u8; 4] = *b"NASP";
/// Spill format version.
const SPILL_VERSION: u32 = 3;
/// Journal record magic (NetAlign JournaL).
const JOURNAL_MAGIC: [u8; 4] = *b"NAJL";
/// Fixed journal record header: magic + kind + seq + payload_len +
/// checksum.
const JOURNAL_HEADER_LEN: usize = 4 + 1 + 8 + 4 + 8;
/// Sanity cap on a journal record payload (real payloads are ≤ 17
/// bytes; anything bigger is damage, not data).
const JOURNAL_MAX_PAYLOAD: u32 = 1024;

/// Fault point: the commit append is half-written then the process
/// aborts — the deterministic torn-tail crash.
pub const KILL_JOURNAL_APPEND: &str = "journal-append";
/// Fault point: the spill temp file is fsynced but the process aborts
/// before the rename — a stale `.tmp` a restart must ignore.
pub const KILL_SPILL_RENAME: &str = "spill-rename";

const KIND_BEGIN: u8 = 0;
const KIND_COMMIT: u8 = 1;
const OP_RECORD: u8 = 0;
const OP_DELTA: u8 = 1;

/// One parsed journal record.
#[derive(Debug, PartialEq, Eq)]
enum JournalRecord {
    BeginRecord { fp: u64 },
    CommitRecord { fp: u64 },
    BeginDelta { base: u64 },
    CommitDelta { base: u64, new_fp: u64 },
}

/// One cache entry restored from a spill file.
pub struct RecoveredEntry {
    /// Problem fingerprint the entry answers to.
    pub fingerprint: u64,
    /// Aligner the entry was built for.
    pub method: Method,
    /// The rebuilt problem (squares matrix reconstructed, bit-identical
    /// to the one that was spilled).
    pub problem: NetAlignProblem,
    /// The run config.
    pub config: AlignConfig,
    /// The recorded trajectory, if the entry had one.
    pub trajectory: Option<BpTrajectory>,
}

/// What a [`DurableStore::open`] recovery found.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Committed operations replayed from the journal.
    pub journal_replayed: u64,
    /// Torn/corrupt journal tails discarded (0 or 1 per boot).
    pub journal_torn_discarded: u64,
    /// `begin` records with no matching `commit` (in-flight at crash).
    pub incomplete_discarded: u64,
    /// Live spill files that failed to load (corrupt, missing, another
    /// format version, or fingerprint drift); each is skipped, never
    /// half-loaded.
    pub spill_load_errors: u64,
    /// The fingerprints the journal committed, in commit order, before
    /// any spill loading — the exact prefix a damaged journal yields
    /// (the torn-tail proptest pins this down byte by byte).
    pub live_after_replay: Vec<u64>,
}

/// The solver thread's handle on the state directory.
pub struct DurableStore {
    dir: PathBuf,
    journal_path: PathBuf,
    journal: File,
    journal_bytes: u64,
    max_journal_bytes: u64,
    next_seq: u64,
    /// Live (committed, not superseded) fingerprints in commit order.
    live: Vec<u64>,
}

impl DurableStore {
    /// Open (creating if needed) the state directory, replay the
    /// journal, and load every live spill file. Returns the store with
    /// its append handle positioned past the last intact record, the
    /// recovery accounting, and the restored entries in commit order.
    pub fn open(
        dir: &Path,
        max_journal_bytes: u64,
    ) -> std::io::Result<(DurableStore, RecoveryReport, Vec<RecoveredEntry>)> {
        std::fs::create_dir_all(dir)?;
        let journal_path = dir.join("journal.log");
        let mut report = RecoveryReport::default();

        let bytes = match std::fs::read(&journal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (records, good_len) = scan_journal(&bytes);
        if good_len < bytes.len() {
            report.journal_torn_discarded = 1;
            // Truncate the tail so subsequent appends land on a record
            // boundary and the next scan parses cleanly.
            let f = OpenOptions::new().write(true).open(&journal_path)?;
            f.set_len(good_len as u64)?;
            f.sync_all()?;
        }

        let mut live: Vec<u64> = Vec::new();
        let mut pending: Vec<u64> = Vec::new();
        for rec in &records {
            match *rec {
                JournalRecord::BeginRecord { fp } => pending.push(fp),
                JournalRecord::BeginDelta { base } => pending.push(base),
                JournalRecord::CommitRecord { fp } => {
                    report.journal_replayed += 1;
                    remove_first(&mut pending, fp);
                    if !live.contains(&fp) {
                        live.push(fp);
                    }
                }
                JournalRecord::CommitDelta { base, new_fp } => {
                    report.journal_replayed += 1;
                    remove_first(&mut pending, base);
                    live.retain(|&f| f != base);
                    if !live.contains(&new_fp) {
                        live.push(new_fp);
                    }
                }
            }
        }
        report.incomplete_discarded = pending.len() as u64;
        report.live_after_replay = live.clone();

        // Load spills for the live set; a failed load drops the entry
        // (it will be GC'd at the next rotation).
        let mut entries = Vec::new();
        let mut loaded: Vec<u64> = Vec::new();
        for &fp in &live {
            match load_spill(&spill_path(dir, fp), fp) {
                Ok(entry) => {
                    loaded.push(fp);
                    entries.push(entry);
                }
                Err(detail) => {
                    report.spill_load_errors += 1;
                    eprintln!("netalignd: dropping unrecoverable spill {fp:016x}: {detail}");
                }
            }
        }

        // Scrub stale temp files from interrupted spill renames.
        if let Ok(listing) = std::fs::read_dir(dir) {
            for f in listing.flatten() {
                if f.path().extension().is_some_and(|e| e == "tmp") {
                    let _ = std::fs::remove_file(f.path());
                }
            }
        }

        let journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)?;
        let journal_bytes = journal.metadata()?.len();
        let store = DurableStore {
            dir: dir.to_path_buf(),
            journal_path,
            journal,
            journal_bytes,
            max_journal_bytes,
            next_seq: records.len() as u64 + 1,
            live: loaded,
        };
        Ok((store, report, entries))
    }

    /// Fingerprints currently committed and loadable.
    pub fn live(&self) -> &[u64] {
        &self.live
    }

    /// Journal an admitted `align --record` of `fp` (no fsync; an
    /// unflushed begin is an incomplete entry by definition).
    pub fn begin_record(&mut self, fp: u64) -> std::io::Result<()> {
        let mut p = PayloadWriter::new();
        p.put_u8(OP_RECORD);
        p.put_u64(fp);
        self.append(KIND_BEGIN, &p.into_bytes(), false)
    }

    /// Journal an admitted `align_delta` against `base`.
    pub fn begin_delta(&mut self, base: u64) -> std::io::Result<()> {
        let mut p = PayloadWriter::new();
        p.put_u8(OP_DELTA);
        p.put_u64(base);
        self.append(KIND_BEGIN, &p.into_bytes(), false)
    }

    /// Mark the recorded base `fp` complete: its spill file is durable
    /// and recovery must restore it. Fsyncs.
    pub fn commit_record(&mut self, fp: u64) -> std::io::Result<()> {
        let mut p = PayloadWriter::new();
        p.put_u8(OP_RECORD);
        p.put_u64(fp);
        self.append(KIND_COMMIT, &p.into_bytes(), true)?;
        if !self.live.contains(&fp) {
            self.live.push(fp);
        }
        self.maybe_rotate()
    }

    /// Mark a delta re-alignment complete: `base` is superseded by
    /// `new_fp` (whose spill file is durable). Fsyncs.
    pub fn commit_delta(&mut self, base: u64, new_fp: u64) -> std::io::Result<()> {
        let mut p = PayloadWriter::new();
        p.put_u8(OP_DELTA);
        p.put_u64(base);
        p.put_u64(new_fp);
        self.append(KIND_COMMIT, &p.into_bytes(), true)?;
        self.live.retain(|&f| f != base);
        if !self.live.contains(&new_fp) {
            self.live.push(new_fp);
        }
        self.maybe_rotate()
    }

    fn append(&mut self, kind: u8, payload: &[u8], sync: bool) -> std::io::Result<()> {
        let seq = self.next_seq;
        let bytes = encode_record(kind, seq, payload);
        if sync && faults::kill_due(KILL_JOURNAL_APPEND) {
            // Crash with exactly half the record on disk: the
            // deterministic torn tail the recovery path must detect,
            // count, and truncate.
            let half = &bytes[..bytes.len() / 2];
            let _ = self.journal.write_all(half);
            let _ = self.journal.sync_all();
            std::process::abort();
        }
        self.journal.write_all(&bytes)?;
        if sync {
            self.journal.sync_all()?;
        }
        self.next_seq = seq + 1;
        self.journal_bytes += bytes.len() as u64;
        Ok(())
    }

    /// Rewrite the journal as one commit per live entry once it
    /// outgrows the bound, and delete spill files no commit references.
    fn maybe_rotate(&mut self) -> std::io::Result<()> {
        if self.journal_bytes <= self.max_journal_bytes {
            return Ok(());
        }
        let mut bytes = Vec::new();
        for (i, &fp) in self.live.iter().enumerate() {
            let mut p = PayloadWriter::new();
            p.put_u8(OP_RECORD);
            p.put_u64(fp);
            bytes.extend_from_slice(&encode_record(KIND_COMMIT, i as u64 + 1, &p.into_bytes()));
        }
        let tmp = self.journal_path.with_extension("log.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.journal_path)?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.journal = OpenOptions::new().append(true).open(&self.journal_path)?;
        self.journal_bytes = bytes.len() as u64;
        self.next_seq = self.live.len() as u64 + 1;

        // GC: spill files not referenced by any live commit.
        let keep: HashSet<PathBuf> = self
            .live
            .iter()
            .map(|&fp| spill_path(&self.dir, fp))
            .collect();
        if let Ok(listing) = std::fs::read_dir(&self.dir) {
            for f in listing.flatten() {
                let path = f.path();
                let name = f.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("spill-") && name.ends_with(".nasp") && !keep.contains(&path) {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        Ok(())
    }

    /// Write the spill file for `fp` atomically (tmp + fsync + rename +
    /// dir fsync). Must precede the commit journal record: recovery
    /// trusts a commit to mean the spill is durable.
    pub fn spill(
        &self,
        fp: u64,
        method: Method,
        problem: &NetAlignProblem,
        config: &AlignConfig,
        trajectory: Option<&BpTrajectory>,
    ) -> Result<(), String> {
        let payload = serialize_entry(problem, config, trajectory);
        let mut bytes = Vec::with_capacity(payload.len() + 33);
        bytes.extend_from_slice(&SPILL_MAGIC);
        bytes.extend_from_slice(&SPILL_VERSION.to_le_bytes());
        bytes.extend_from_slice(&fp.to_le_bytes());
        bytes.push(method_tag(method));
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);

        let path = spill_path(&self.dir, fp);
        let tmp = path.with_extension("nasp.tmp");
        let write = |p: &Path, b: &[u8]| -> std::io::Result<()> {
            let mut f = File::create(p)?;
            f.write_all(b)?;
            f.sync_all()?;
            Ok(())
        };
        write(&tmp, &bytes).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        if faults::kill_due(KILL_SPILL_RENAME) {
            // The tmp file is durable but the rename never happens: a
            // restart must treat the entry as absent (no commit was
            // journaled) and scrub the orphan.
            std::process::abort();
        }
        std::fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Best-effort removal of a superseded spill file.
    pub fn remove_spill(&self, fp: u64) {
        let _ = std::fs::remove_file(spill_path(&self.dir, fp));
    }
}

fn remove_first(v: &mut Vec<u64>, x: u64) {
    if let Some(i) = v.iter().position(|&f| f == x) {
        v.remove(i);
    }
}

fn spill_path(dir: &Path, fp: u64) -> PathBuf {
    dir.join(format!("spill-{fp:016x}.nasp"))
}

fn method_tag(method: Method) -> u8 {
    match method {
        Method::Bp => 0,
        Method::Mr => 1,
    }
}

fn method_from_tag(tag: u8) -> Result<Method, String> {
    match tag {
        0 => Ok(Method::Bp),
        1 => Ok(Method::Mr),
        t => Err(format!("spill method: invalid tag {t}")),
    }
}

// ---------------------------------------------------------------------
// Journal encoding / scanning
// ---------------------------------------------------------------------

fn encode_record(kind: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(JOURNAL_HEADER_LEN + payload.len());
    bytes.extend_from_slice(&JOURNAL_MAGIC);
    bytes.push(kind);
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&record_checksum(kind, seq, payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

fn record_checksum(kind: u8, seq: u64, payload: &[u8]) -> u64 {
    let mut hashed = Vec::with_capacity(9 + payload.len());
    hashed.push(kind);
    hashed.extend_from_slice(&seq.to_le_bytes());
    hashed.extend_from_slice(payload);
    fnv1a64(&hashed)
}

/// Scan the journal, returning every intact record in order plus the
/// byte offset the intact prefix ends at. Any malformed header, short
/// payload, checksum mismatch, or undecodable payload stops the scan
/// there — the tail is damage, never data.
fn scan_journal(bytes: &[u8]) -> (Vec<JournalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= JOURNAL_HEADER_LEN {
        let h = &bytes[pos..pos + JOURNAL_HEADER_LEN];
        if h[0..4] != JOURNAL_MAGIC {
            break;
        }
        let kind = h[4];
        let seq = u64::from_le_bytes(h[5..13].try_into().unwrap());
        let len = u32::from_le_bytes(h[13..17].try_into().unwrap());
        let checksum = u64::from_le_bytes(h[17..25].try_into().unwrap());
        if len > JOURNAL_MAX_PAYLOAD {
            break;
        }
        let start = pos + JOURNAL_HEADER_LEN;
        let Some(end) = start
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
        else {
            break;
        };
        let payload = &bytes[start..end];
        if record_checksum(kind, seq, payload) != checksum {
            break;
        }
        let Ok(record) = decode_record(kind, payload) else {
            break;
        };
        records.push(record);
        pos = end;
    }
    (records, pos)
}

fn decode_record(kind: u8, payload: &[u8]) -> Result<JournalRecord, String> {
    let mut r = PayloadReader::new(payload);
    let op = r.get_u8("journal op")?;
    let record = match (kind, op) {
        (KIND_BEGIN, OP_RECORD) => JournalRecord::BeginRecord {
            fp: r.get_u64("journal fp")?,
        },
        (KIND_COMMIT, OP_RECORD) => JournalRecord::CommitRecord {
            fp: r.get_u64("journal fp")?,
        },
        (KIND_BEGIN, OP_DELTA) => JournalRecord::BeginDelta {
            base: r.get_u64("journal base")?,
        },
        (KIND_COMMIT, OP_DELTA) => JournalRecord::CommitDelta {
            base: r.get_u64("journal base")?,
            new_fp: r.get_u64("journal new fp")?,
        },
        (k, o) => return Err(format!("journal record: invalid kind/op {k}/{o}")),
    };
    r.finish("journal record")?;
    Ok(record)
}

// ---------------------------------------------------------------------
// Spill serialization
// ---------------------------------------------------------------------

fn serialize_entry(
    problem: &NetAlignProblem,
    config: &AlignConfig,
    trajectory: Option<&BpTrajectory>,
) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    put_config(&mut w, config);
    put_graph(&mut w, &problem.a);
    put_graph(&mut w, &problem.b);
    put_bipartite(&mut w, &problem.l);
    match trajectory {
        None => w.put_u8(0),
        Some(t) => {
            w.put_u8(1);
            t.serialize_into(&mut w);
        }
    }
    w.into_bytes()
}

/// Parse and fully validate one spill file. `expect_fp` is the
/// fingerprint the journal committed; the loaded entry must recompute
/// to exactly that value (method + graphs + config), so any bit drift
/// between spill and journal rejects the entry instead of serving a
/// wrong base.
fn load_spill(path: &Path, expect_fp: u64) -> Result<RecoveredEntry, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if bytes.len() < 4 || bytes[0..4] != SPILL_MAGIC {
        return Err("bad spill magic".to_string());
    }
    let mut r = PayloadReader::new(&bytes[4..]);
    let version = {
        let b = r.take(4, "spill version")?;
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    };
    if version != SPILL_VERSION {
        return Err(format!(
            "spill version {version}, this build reads {SPILL_VERSION}"
        ));
    }
    let fp = r.get_u64("spill fingerprint")?;
    if fp != expect_fp {
        return Err(format!(
            "spill fingerprint {fp:016x} does not match journal {expect_fp:016x}"
        ));
    }
    let method = method_from_tag(r.get_u8("spill method")?)?;
    let payload_len = r.get_usize("spill payload length")?;
    let checksum = r.get_u64("spill checksum")?;
    let payload = r.take(payload_len, "spill payload")?;
    r.finish("spill file")?;
    if fnv1a64(payload) != checksum {
        return Err("spill checksum mismatch".to_string());
    }

    let mut p = PayloadReader::new(payload);
    let config = get_config(&mut p)?;
    let a = get_graph(&mut p, "spill graph a")?;
    let b = get_graph(&mut p, "spill graph b")?;
    let l = get_bipartite(&mut p)?;
    if l.num_left() != a.num_vertices() || l.num_right() != b.num_vertices() {
        return Err("spill candidate graph shape does not match A/B".to_string());
    }
    // The recomputed fingerprint must agree with the committed one —
    // the end-to-end guard that recovery is serving the same problem.
    if problem_fingerprint(&a, &b, &l, method, &config) != expect_fp {
        return Err("recomputed fingerprint diverges from journal commit".to_string());
    }
    // Rebuilds S bit-identically (canonical graphs, deterministic
    // parallel build) — the reason S itself is never spilled.
    let problem = NetAlignProblem::new(a, b, l);
    let trajectory = match p.get_u8("spill trajectory flag")? {
        0 => None,
        1 => Some(BpTrajectory::deserialize(
            &mut p,
            problem.l.num_edges(),
            problem.s.nnz(),
        )?),
        t => return Err(format!("spill trajectory flag: invalid tag {t}")),
    };
    p.finish("spill payload")?;
    Ok(RecoveredEntry {
        fingerprint: expect_fp,
        method,
        problem,
        config,
        trajectory,
    })
}

fn put_config(w: &mut PayloadWriter, c: &AlignConfig) {
    w.put_f64(c.alpha);
    w.put_f64(c.beta);
    w.put_f64(c.gamma);
    w.put_usize(c.iterations);
    w.put_usize(c.mstep);
    w.put_usize(c.batch);
    match c.matcher {
        MatcherKind::Exact => w.put_u8(0),
        MatcherKind::Greedy => w.put_u8(1),
        MatcherKind::LocalDominant => w.put_u8(2),
        MatcherKind::ParallelLocalDominant => w.put_u8(3),
        MatcherKind::ParallelLocalDominantOneSide => w.put_u8(4),
        MatcherKind::PathGrowing => w.put_u8(7),
        MatcherKind::Auction { eps_rel } => {
            w.put_u8(9);
            w.put_f64(eps_rel);
        }
    }
    w.put_u8(match c.damping {
        DampingKind::Power => 0,
        DampingKind::Constant => 1,
        DampingKind::None => 2,
    });
    w.put_u8(c.enriched_rounding as u8);
    w.put_u8(c.final_exact_round as u8);
    w.put_u8(c.record_history as u8);
    w.put_u8(c.trace_matcher as u8);
    w.put_u8(c.numeric_guards as u8);
    w.put_usize(c.checkpoint.every_k_iters);
    w.put_f64(c.checkpoint.every_secs);
}

fn get_config(r: &mut PayloadReader<'_>) -> Result<AlignConfig, String> {
    let alpha = r.get_f64("config.alpha")?;
    let beta = r.get_f64("config.beta")?;
    let gamma = r.get_f64("config.gamma")?;
    let iterations = r.get_usize("config.iterations")?;
    let mstep = r.get_usize("config.mstep")?;
    let batch = r.get_usize("config.batch")?;
    let matcher = match r.get_u8("config.matcher")? {
        0 => MatcherKind::Exact,
        1 => MatcherKind::Greedy,
        2 => MatcherKind::LocalDominant,
        3 => MatcherKind::ParallelLocalDominant,
        4 => MatcherKind::ParallelLocalDominantOneSide,
        7 => MatcherKind::PathGrowing,
        9 => MatcherKind::Auction {
            eps_rel: r.get_f64("config.matcher.eps_rel")?,
        },
        t => return Err(format!("config.matcher: invalid tag {t}")),
    };
    let damping = match r.get_u8("config.damping")? {
        0 => DampingKind::Power,
        1 => DampingKind::Constant,
        2 => DampingKind::None,
        t => return Err(format!("config.damping: invalid tag {t}")),
    };
    let get_bool = |r: &mut PayloadReader<'_>, what: &str| -> Result<bool, String> {
        match r.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(format!("{what}: invalid bool {t}")),
        }
    };
    let enriched_rounding = get_bool(r, "config.enriched_rounding")?;
    let final_exact_round = get_bool(r, "config.final_exact_round")?;
    let record_history = get_bool(r, "config.record_history")?;
    let trace_matcher = get_bool(r, "config.trace_matcher")?;
    let numeric_guards = get_bool(r, "config.numeric_guards")?;
    let every_k_iters = r.get_usize("config.checkpoint.every_k_iters")?;
    let every_secs = r.get_f64("config.checkpoint.every_secs")?;
    Ok(AlignConfig {
        alpha,
        beta,
        gamma,
        iterations,
        mstep,
        batch,
        matcher,
        damping,
        enriched_rounding,
        final_exact_round,
        record_history,
        trace_matcher,
        numeric_guards,
        checkpoint: CheckpointPolicy {
            every_k_iters,
            every_secs,
        },
    })
}

fn put_graph(w: &mut PayloadWriter, g: &Graph) {
    w.put_usize(g.num_vertices());
    w.put_usize(g.num_edges());
    for (u, v) in g.edges() {
        w.put_u64(u as u64);
        w.put_u64(v as u64);
    }
}

fn get_graph(r: &mut PayloadReader<'_>, what: &str) -> Result<Graph, String> {
    let n = r.get_usize(what)?;
    let num_edges = r.get_usize(what)?;
    if num_edges > n.saturating_mul(n) {
        return Err(format!("{what}: implausible edge count {num_edges}"));
    }
    let mut edges = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let u = get_vertex(r, n, what)?;
        let v = get_vertex(r, n, what)?;
        edges.push((u, v));
    }
    Ok(Graph::from_edges(n, edges))
}

fn put_bipartite(w: &mut PayloadWriter, l: &BipartiteGraph) {
    w.put_usize(l.num_left());
    w.put_usize(l.num_right());
    w.put_usize(l.num_edges());
    for e in 0..l.num_edges() {
        let (a, b) = l.endpoints(e);
        w.put_u64(a as u64);
        w.put_u64(b as u64);
        w.put_f64(l.weight(e));
    }
}

fn get_bipartite(r: &mut PayloadReader<'_>) -> Result<BipartiteGraph, String> {
    let na = r.get_usize("spill l.na")?;
    let nb = r.get_usize("spill l.nb")?;
    let num_edges = r.get_usize("spill l.num_edges")?;
    if num_edges > na.saturating_mul(nb) {
        return Err(format!("spill l: implausible edge count {num_edges}"));
    }
    let mut entries = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let a = get_vertex(r, na, "spill l entry")?;
        let b = get_vertex(r, nb, "spill l entry")?;
        let weight = r.get_f64("spill l weight")?;
        entries.push((a, b, weight));
    }
    BipartiteGraph::try_from_entries(na, nb, entries).map_err(|e| format!("spill l: {e}"))
}

fn get_vertex(r: &mut PayloadReader<'_>, n: usize, what: &str) -> Result<VertexId, String> {
    let v = r.get_u64(what)?;
    if v as usize >= n {
        return Err(format!("{what}: vertex {v} out of range (n = {n})"));
    }
    VertexId::try_from(v).map_err(|_| format!("{what}: vertex {v} exceeds VertexId"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netalign_core::delta::{DeltaBase, ProblemDelta};
    use netalign_graph::delta::CandidateDelta;

    fn problem(seed: u64) -> (Graph, Graph, BipartiteGraph) {
        // Small deterministic instance with enough structure for BP to
        // record a non-trivial trajectory.
        let n = 8usize;
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        for i in 0..n as u32 {
            ea.push((i, (i + 1) % n as u32));
            eb.push((i, (i + 1) % n as u32));
            if i.is_multiple_of(2) {
                ea.push((i, (i + 3) % n as u32));
            }
            if (i + seed as u32).is_multiple_of(3) {
                eb.push((i, (i + 2) % n as u32));
            }
        }
        let a = Graph::from_edges(n, ea);
        let b = Graph::from_edges(n, eb);
        let mut entries = Vec::new();
        for i in 0..n as u32 {
            entries.push((i, i, 1.0));
            entries.push((i, (i + 1) % n as u32, 0.5));
        }
        let l = BipartiteGraph::from_entries(n, n, entries);
        (a, b, l)
    }

    fn config() -> AlignConfig {
        AlignConfig {
            iterations: 6,
            matcher: MatcherKind::ParallelLocalDominant,
            final_exact_round: true,
            record_history: false,
            ..AlignConfig::default()
        }
    }

    fn recorded_base(seed: u64) -> (u64, NetAlignProblem, AlignConfig, BpTrajectory) {
        let (a, b, l) = problem(seed);
        let config = config();
        let fp = problem_fingerprint(&a, &b, &l, Method::Bp, &config);
        let p = NetAlignProblem::new(a, b, l);
        let (_, trajectory) = netalign_core::delta::record_bp(&p, &config).expect("record");
        (fp, p, config, trajectory)
    }

    #[test]
    fn spill_round_trips_bit_identically() {
        let dir = std::env::temp_dir().join(format!("nasp-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, report, entries) = DurableStore::open(&dir, 1 << 20).expect("open");
        assert_eq!(report.journal_replayed, 0);
        assert!(entries.is_empty());

        let (fp, problem, config, trajectory) = recorded_base(1);
        store
            .spill(fp, Method::Bp, &problem, &config, Some(&trajectory))
            .expect("spill");
        let entry = load_spill(&spill_path(&dir, fp), fp).expect("load");
        assert_eq!(entry.fingerprint, fp);
        assert_eq!(entry.method, Method::Bp);
        // Graph equality is bit equality: canonical CSR + sorted
        // entries derive PartialEq.
        assert_eq!(entry.problem.a, problem.a);
        assert_eq!(entry.problem.b, problem.b);
        assert_eq!(entry.problem.l, problem.l);
        assert_eq!(entry.problem.s.nnz(), problem.s.nnz());
        let t = entry.trajectory.expect("trajectory survived");
        assert_eq!(t.iterations(), trajectory.iterations());
        assert_eq!(t.num_candidates(), trajectory.num_candidates());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_base_replays_deltas_bit_identically_to_uncrashed() {
        let dir = std::env::temp_dir().join(format!("nasp-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (fp, problem, config, trajectory) = recorded_base(1);

        // Control: delta applied to the in-memory base.
        let delta = ProblemDelta {
            l: CandidateDelta {
                reweight: vec![(0, 0, 1.25)],
                ..Default::default()
            },
            ..Default::default()
        };
        let control = {
            let mut base = DeltaBase::from_parts(problem.clone(), config, trajectory.clone());
            let (result, _) = base.apply(&delta).expect("control delta");
            result.objective
        };

        // Crash path: spill + commit, reopen, replay against the
        // recovered entry.
        {
            let (mut store, _, _) = DurableStore::open(&dir, 1 << 20).expect("open");
            store.begin_record(fp).expect("begin");
            store
                .spill(fp, Method::Bp, &problem, &config, Some(&trajectory))
                .expect("spill");
            store.commit_record(fp).expect("commit");
        }
        let (store, report, mut entries) = DurableStore::open(&dir, 1 << 20).expect("reopen");
        assert_eq!(store.live(), &[fp]);
        assert_eq!(report.journal_replayed, 1);
        assert_eq!(report.journal_torn_discarded, 0);
        assert_eq!(report.spill_load_errors, 0);
        let entry = entries.pop().expect("one recovered entry");
        let mut base = DeltaBase::from_parts(
            entry.problem,
            entry.config,
            entry.trajectory.expect("trajectory"),
        );
        let (result, _) = base.apply(&delta).expect("recovered delta");
        assert_eq!(
            result.objective.to_bits(),
            control.to_bits(),
            "post-recovery delta must be bit-identical to the uncrashed control"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A spill from an older format version fails with a version
    /// error, counts as a load error, and the other committed entries
    /// still recover.
    #[test]
    fn version_one_spill_is_rejected_and_recovery_goes_on() {
        for version in [1u32, 2] {
            let dir = std::env::temp_dir().join(format!("nasp-v{version}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let old = recorded_base(1);
            let kept = recorded_base(2);
            assert_ne!(old.0, kept.0, "test needs distinct fingerprints");
            {
                let (mut store, _, _) = DurableStore::open(&dir, 1 << 20).expect("open");
                for (fp, problem, config, trajectory) in [&old, &kept] {
                    store.begin_record(*fp).expect("begin");
                    store
                        .spill(*fp, Method::Bp, problem, config, Some(trajectory))
                        .expect("spill");
                    store.commit_record(*fp).expect("commit");
                }
            }
            // Stamp the first spill with the old version (bytes 4..8
            // after magic).
            let path = spill_path(&dir, old.0);
            let mut bytes = std::fs::read(&path).expect("read spill");
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).expect("rewrite spill");
            let err = load_spill(&path, old.0)
                .err()
                .expect("an old version must not load");
            assert!(err.contains(&format!("spill version {version}")), "{err}");

            let (store, report, entries) = DurableStore::open(&dir, 1 << 20).expect("reopen");
            assert_eq!(report.journal_replayed, 2);
            assert_eq!(report.spill_load_errors, 1);
            assert_eq!(store.live(), &[kept.0]);
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0].fingerprint, kept.0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_tail_is_discarded_and_journal_stays_appendable() {
        let dir = std::env::temp_dir().join(format!("nasp-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut store, _, _) = DurableStore::open(&dir, 1 << 20).expect("open");
            store.begin_record(0xAA).expect("begin");
            store.commit_record(0xAA).expect("commit");
            store.begin_record(0xBB).expect("begin 2");
            store.commit_record(0xBB).expect("commit 2");
        }
        // Tear the last record in half.
        let path = dir.join("journal.log");
        let bytes = std::fs::read(&path).expect("read journal");
        std::fs::write(&path, &bytes[..bytes.len() - 10]).expect("tear");

        let (mut store, report, _) = DurableStore::open(&dir, 1 << 20).expect("reopen");
        assert_eq!(report.journal_torn_discarded, 1);
        // Only 0xAA's commit survives intact (0xBB's was torn, leaving
        // its begin pending); 0xAA has no spill file here, so it is
        // dropped with a counted load error — never half-loaded.
        assert_eq!(report.journal_replayed, 1);
        assert_eq!(report.incomplete_discarded, 1);
        assert_eq!(report.spill_load_errors, 1);

        // Appends after truncation must parse on the next scan.
        store.begin_record(0xCC).expect("begin post-tear");
        store.commit_record(0xCC).expect("commit post-tear");
        drop(store);
        let (_, report2, _) = DurableStore::open(&dir, 1 << 20).expect("re-reopen");
        assert_eq!(report2.journal_torn_discarded, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_compacts_journal_and_gcs_orphans() {
        let dir = std::env::temp_dir().join(format!("nasp-rotate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Tiny bound: every commit triggers rotation.
        let (mut store, _, _) = DurableStore::open(&dir, 64).expect("open");
        // Fake spill files so GC has something to keep/delete.
        std::fs::write(spill_path(&dir, 1), b"x").unwrap();
        store.begin_record(1).expect("begin");
        store.commit_record(1).expect("commit");
        store.begin_delta(1).expect("begin delta");
        std::fs::write(spill_path(&dir, 2), b"x").unwrap();
        store.commit_delta(1, 2).expect("commit delta");
        assert_eq!(store.live(), &[2]);
        // Rotation rewrote the journal as live commits only and GC'd
        // the superseded spill.
        assert!(!spill_path(&dir, 1).exists(), "orphan spill GC'd");
        assert!(spill_path(&dir, 2).exists(), "live spill kept");
        drop(store);
        // Reopen: the rotated journal replays to {2}, whose fake spill
        // content fails validation and is dropped with a counted error
        // (never half-loaded).
        let (store, report, _) = DurableStore::open(&dir, 64).expect("reopen");
        assert!(store.live().is_empty());
        assert_eq!(report.journal_replayed, 1);
        assert_eq!(report.spill_load_errors, 1);
        assert_eq!(report.incomplete_discarded, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn begin_without_commit_is_invisible() {
        let dir = std::env::temp_dir().join(format!("nasp-incomplete-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut store, _, _) = DurableStore::open(&dir, 1 << 20).expect("open");
            store.begin_record(0xF00).expect("begin");
            // No commit: the process "crashed" mid-solve. The begin is
            // unsynced, so flush it through the handle drop.
        }
        let (store, report, entries) = DurableStore::open(&dir, 1 << 20).expect("reopen");
        assert!(store.live().is_empty());
        assert!(entries.is_empty());
        assert_eq!(report.incomplete_discarded, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
