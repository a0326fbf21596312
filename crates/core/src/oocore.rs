//! Out-of-core belief propagation: align instances whose squares
//! matrix — and whose `nnz(S)`-sized iterate state — does not fit in
//! RAM.
//!
//! The in-core [`BpEngine`](crate::bp::BpEngine) keeps three
//! `nnz`-sized arrays resident (`S⁽ᵏ⁾`, its previous iterate, and the
//! scratch `F`) and gathers the transpose through the value
//! permutation — a random access per stored entry. Neither survives
//! contact with a memory budget: the arrays must spill, and a random
//! gather over a spilled array is a page fault per entry.
//!
//! The out-of-core path removes both obstacles with one
//! reformulation: alongside `sk` it maintains the *transpose
//! companion* `skt[idx] = sk[perm[idx]]` as an explicit second array.
//! Because the transpose permutation of a structurally symmetric CSR
//! is an involution (`perm ∘ perm = id`), both arrays can be advanced
//! with **strictly sequential** sweeps over the pattern. An iteration
//! runs the in-core engine's three passes (see [`crate::bp`]):
//!
//! * pass 1, the fused F/d sweep, computes
//!   `d[r] = α·w[r] + Σ_{idx ∈ row r} bound₀^β(β + skt[idx])`, reading
//!   the committed `skt` in storage order and storing no `F`;
//! * pass 2, the per-vertex othermax statistics, touches only
//!   `m`-sized state and is unchanged;
//! * pass 3 runs the in-core per-edge update — the damped messages
//!   and the row scale `y + z − d` — over all edges first, keeping
//!   every scale. Then one superblock sweep writes
//!   `sk_next[idx] = γ·(scale[row] − f(idx)) + (1−γ)·sk[idx]` and
//!   `skt_next[idx] = γ·(scale[colidx[idx]] − fᵗ(idx)) + (1−γ)·skt[idx]`
//!   with `f(idx) = bound₀^β(β + skt[idx])`,
//!   `fᵗ(idx) = bound₀^β(β + sk[idx])`. It reads and writes all four
//!   `nnz` streams in storage order, with only the `m`-sized `scale`
//!   vector accessed randomly, and counts non-finite `sk_next` values
//!   for the numeric guard.
//!
//! As in core, the committed streams are read-only during a step, and
//! the `_next` streams swap in only when the iterate is finite. Every
//! f64 operation consumes bit-identical operands in the same order as
//! the in-core passes, so the out-of-core run is **bit-identical** to
//! the in-core run at every thread count and superblock size — the
//! `oocore` integration tests pin this.
//!
//! The four `nnz` streams live in unlinked memory-mapped scratch
//! files ([`ScratchF64`]); the pattern is served by a mapped
//! [`CsrView`]. Sweeps process one *superblock* of rows at a time
//! (sized from the resident budget) and release the pages behind them
//! (`msync` + `MADV_DONTNEED`), so peak RSS stays near the `m`-sized
//! baseline plus one superblock window regardless of `nnz`.

use crate::bp::{damped, BpEngine};
use crate::config::AlignConfig;
use crate::problem::NetAlignProblem;
use crate::result::AlignmentResult;
use crate::rowspans::RowSpans;
use crate::squares::SquaresMatrix;
use netalign_graph::mmap::ScratchF64;
use netalign_graph::nacs::NacsError;
use netalign_graph::{BipartiteGraph, Graph};
use rayon::par_uneven_chunks_mut;
use rayon::prelude::*;
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;

/// Options for the out-of-core alignment path.
#[derive(Clone, Debug)]
pub struct OocOptions {
    /// Directory for the NACS squares file and the iterate scratch
    /// files. Must be on a filesystem with room for
    /// `~5 × 8 × nnz(S)` bytes.
    pub scratch_dir: PathBuf,
    /// Resident-set budget in bytes. `None` = stream through mapped
    /// storage without constraining the superblock window.
    pub max_resident_bytes: Option<u64>,
    /// Override the derived superblock size (stored entries per sweep
    /// step). For tests and tuning; `None` = derive from the budget.
    pub superblock_entries: Option<usize>,
}

impl OocOptions {
    /// Options with no resident budget (mapped storage, full-width
    /// sweeps).
    pub fn new(scratch_dir: impl Into<PathBuf>) -> OocOptions {
        OocOptions {
            scratch_dir: scratch_dir.into(),
            max_resident_bytes: None,
            superblock_entries: None,
        }
    }

    /// Set the resident budget in mebibytes.
    pub fn with_budget_mb(mut self, mb: u64) -> OocOptions {
        self.max_resident_bytes = Some(mb << 20);
        self
    }

    /// Force a specific superblock size (stored entries per sweep).
    pub fn with_superblock_entries(mut self, entries: usize) -> OocOptions {
        self.superblock_entries = Some(entries);
        self
    }
}

/// Failures specific to the out-of-core path.
#[derive(Debug)]
pub enum OocError {
    /// Scratch-file or mapping I/O failed.
    Io(std::io::Error),
    /// Writing or reopening the NACS squares file failed.
    Nacs(NacsError),
    /// The budget cannot cover even the `m`-sized working set plus a
    /// minimal superblock window.
    BudgetTooSmall {
        /// The budget that was requested.
        budget_bytes: u64,
        /// The estimated unavoidable resident baseline.
        baseline_bytes: u64,
    },
    /// A config knob the out-of-core engine does not support.
    Unsupported(&'static str),
}

impl fmt::Display for OocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OocError::Io(e) => write!(f, "out-of-core I/O error: {e}"),
            OocError::Nacs(e) => write!(f, "squares file error: {e}"),
            OocError::BudgetTooSmall {
                budget_bytes,
                baseline_bytes,
            } => write!(
                f,
                "resident budget {} KiB is below the {} KiB working-set \
                 baseline for this instance",
                budget_bytes >> 10,
                baseline_bytes >> 10
            ),
            OocError::Unsupported(what) => {
                write!(f, "unsupported in out-of-core mode: {what}")
            }
        }
    }
}

impl std::error::Error for OocError {}

impl From<std::io::Error> for OocError {
    fn from(e: std::io::Error) -> OocError {
        OocError::Io(e)
    }
}

impl From<NacsError> for OocError {
    fn from(e: NacsError) -> OocError {
        OocError::Nacs(e)
    }
}

/// Estimated unavoidable resident bytes of a BP run: the `m`-sized
/// engine vectors (iterates, othermax scratch, staging buffers,
/// matcher engines, `L` itself) plus a fixed allowance for the
/// binary, thread stacks and allocator slack. Deliberately
/// conservative — the budget gate should fail loudly, not thrash.
pub fn resident_baseline_bytes(m: usize, na: usize, nb: usize) -> u64 {
    (m as u64) * 224 + ((na + nb) as u64) * 64 + (96 << 20)
}

/// Bytes of resident window each stored entry of `S` costs during the
/// widest sweep (four f64 streams + the column index), with slack for
/// page-granularity rounding.
const BYTES_PER_ENTRY: u64 = 48;

/// Smallest superblock worth scheduling (entries): below this the
/// per-superblock `msync`/`madvise` calls dominate.
const MIN_SUPERBLOCK_ENTRIES: usize = 1 << 16;

/// How the budget splits into sweep windows and build buffers.
#[derive(Clone, Copy, Debug)]
pub struct OocPlan {
    /// Target stored entries per sweep superblock.
    pub superblock_entries: usize,
    /// Spill-buffer bytes for the streaming squares build.
    pub spill_buffer_bytes: usize,
    /// The baseline estimate the plan was derived from.
    pub baseline_bytes: u64,
}

/// Derive the sweep/build plan from the instance shape and budget.
/// Fails with [`OocError::BudgetTooSmall`] when the budget cannot
/// cover the baseline plus a minimal window.
pub fn plan_for(m: usize, na: usize, nb: usize, opts: &OocOptions) -> Result<OocPlan, OocError> {
    let baseline = resident_baseline_bytes(m, na, nb);
    let window = match opts.max_resident_bytes {
        None => u64::MAX,
        Some(budget) => {
            let floor = baseline + (BYTES_PER_ENTRY * MIN_SUPERBLOCK_ENTRIES as u64);
            if budget < floor {
                return Err(OocError::BudgetTooSmall {
                    budget_bytes: budget,
                    baseline_bytes: floor,
                });
            }
            budget - baseline
        }
    };
    let superblock_entries = usize::try_from(window / BYTES_PER_ENTRY)
        .unwrap_or(usize::MAX)
        .max(MIN_SUPERBLOCK_ENTRIES);
    let spill_buffer_bytes = usize::try_from((window / 2).min(256 << 20))
        .unwrap_or(256 << 20)
        .max(1 << 20);
    Ok(OocPlan {
        superblock_entries,
        spill_buffer_bytes,
        baseline_bytes: baseline,
    })
}

/// One contiguous span of rows (and their stored entries) processed
/// per sweep step, with the chunk boundaries for row-parallel work
/// inside it (relative to the superblock start, per
/// [`rayon::par_uneven_chunks_mut`]).
#[derive(Clone, Debug)]
pub(crate) struct Superblock {
    pub(crate) rows: Range<usize>,
    pub(crate) entries: Range<usize>,
    pub(crate) rel_row_bounds: Vec<usize>,
    pub(crate) rel_entry_bounds: Vec<usize>,
}

/// The out-of-core additions to a [`BpEngine`]: the four spilled
/// `nnz` streams and the superblock schedule.
pub(crate) struct OocState {
    /// Committed damped `S⁽ᵏ⁾` values.
    sk: ScratchF64,
    /// Transpose companion of `sk`: `skt[idx] = sk[perm[idx]]`.
    skt: ScratchF64,
    /// The step's output `S⁽ᵏ⁺¹⁾`, swapped in by [`OocState::advance`].
    sk_next: ScratchF64,
    /// Transpose companion of `sk_next`.
    skt_next: ScratchF64,
    /// Sweep schedule: superblocks aligned to span-group boundaries.
    superblocks: Vec<Superblock>,
}

impl OocState {
    /// Allocate the scratch streams in `opts.scratch_dir` and derive
    /// the superblock schedule from the span decomposition.
    pub(crate) fn new(
        p: &NetAlignProblem,
        spans: &RowSpans,
        opts: &OocOptions,
    ) -> Result<OocState, OocError> {
        let m = p.l.num_edges();
        let nnz = p.s.nnz();
        let plan = plan_for(m, p.l.num_left(), p.l.num_right(), opts)?;
        let dir = &opts.scratch_dir;
        std::fs::create_dir_all(dir)?;
        Ok(OocState {
            sk: ScratchF64::zeroed_in(dir, "bp-sk-a", nnz)?,
            skt: ScratchF64::zeroed_in(dir, "bp-skt-a", nnz)?,
            sk_next: ScratchF64::zeroed_in(dir, "bp-sk-b", nnz)?,
            skt_next: ScratchF64::zeroed_in(dir, "bp-skt-b", nnz)?,
            superblocks: superblocks_from_spans(
                spans,
                opts.superblock_entries.unwrap_or(plan.superblock_entries),
            ),
        })
    }

    /// Pass 1 out of core: `d[r] = α·w[r] + Σ bound₀^β(β + skt[idx])`,
    /// one superblock at a time, the transpose read through the
    /// committed companion stream in storage order — no permutation
    /// gather, no stored `F`. Accumulation order matches the in-core
    /// pass exactly.
    pub(crate) fn fused_d(&self, p: &NetAlignProblem, alpha: f64, beta: f64, d: &mut [f64]) {
        let (rowptr, w) = (p.s.rowptr(), p.l.weights());
        for sb in &self.superblocks {
            self.skt.advise_sequential(sb.entries.clone());
            let (skt, rb) = (self.skt.as_slice(), &sb.rel_row_bounds);
            par_uneven_chunks_mut(&mut d[sb.rows.clone()], rb)
                .enumerate()
                .for_each(|(g, d_chunk)| {
                    let rows = (sb.rows.start + rb[g])..(sb.rows.start + rb[g + 1]);
                    for (de, e) in d_chunk.iter_mut().zip(rows) {
                        let mut acc = 0.0;
                        for idx in rowptr[e]..rowptr[e + 1] {
                            acc += (beta + skt[idx]).clamp(0.0, beta);
                        }
                        *de = alpha * w[e] + acc;
                    }
                });
            self.skt.release(sb.entries.clone());
        }
    }

    /// Pass 3's `S` sweep out of core, after the per-edge update filled
    /// `scale`: both `sk_next` and its transpose companion are produced
    /// in storage order, one superblock at a time —
    /// `sk_next[idx] = γ·(scale[row] − f) + (1−γ)·sk[idx]` and
    /// `skt_next[idx] = γ·(scale[colidx[idx]] − fᵗ) + (1−γ)·skt[idx]`
    /// with `f`/`fᵗ` the bound of the respective *other* stream (the
    /// involution `perm ∘ perm = id` makes both expressions exact
    /// transposes of each other). Only `scale` (m-sized, resident) is
    /// accessed randomly. Returns the count of non-finite `sk_next`
    /// values for the numeric guard.
    pub(crate) fn update_s(
        &mut self,
        p: &NetAlignProblem,
        beta: f64,
        gk: f64,
        scale: &[f64],
    ) -> u64 {
        let (rowptr, colidx) = (p.s.rowptr(), p.s.colidx());
        let mut nonfinite = 0;
        for sb in &self.superblocks {
            self.sk.advise_sequential(sb.entries.clone());
            self.skt.advise_sequential(sb.entries.clone());
            let (sk, skt) = (self.sk.as_slice(), self.skt.as_slice());
            let sk_next = &mut self.sk_next.as_mut_slice()[sb.entries.clone()];
            let skt_next = &mut self.skt_next.as_mut_slice()[sb.entries.clone()];
            let (rb, eb) = (&sb.rel_row_bounds, &sb.rel_entry_bounds);
            nonfinite += par_uneven_chunks_mut(sk_next, eb)
                .zip(par_uneven_chunks_mut(skt_next, eb))
                .enumerate()
                .map(|(g, (sk_chunk, skt_chunk))| {
                    let base = sb.entries.start + eb[g];
                    let mut bad = 0u64;
                    for e in (sb.rows.start + rb[g])..(sb.rows.start + rb[g + 1]) {
                        for idx in rowptr[e]..rowptr[e + 1] {
                            let f = (beta + skt[idx]).clamp(0.0, beta);
                            let v = damped(gk, scale[e] - f, sk[idx]);
                            sk_chunk[idx - base] = v;
                            bad += u64::from(!v.is_finite());
                            let ft = (beta + sk[idx]).clamp(0.0, beta);
                            skt_chunk[idx - base] =
                                damped(gk, scale[colidx[idx] as usize] - ft, skt[idx]);
                        }
                    }
                    bad
                })
                .sum::<u64>();
            self.sk_next.release(sb.entries.clone());
            self.skt_next.release(sb.entries.clone());
            self.sk.release(sb.entries.clone());
            self.skt.release(sb.entries.clone());
        }
        nonfinite
    }

    /// Commit the step's output streams after a finite iteration.
    pub(crate) fn advance(&mut self) {
        std::mem::swap(&mut self.sk, &mut self.sk_next);
        std::mem::swap(&mut self.skt, &mut self.skt_next);
    }
}

/// Merge consecutive span groups into superblocks of roughly
/// `target` entries each, recording the intra-superblock chunk
/// bounds. A single group larger than `target` becomes its own
/// superblock (rows are never split).
pub(crate) fn superblocks_from_spans(spans: &RowSpans, target: usize) -> Vec<Superblock> {
    let row_bounds = spans.row_bounds();
    let entry_bounds = spans.entry_bounds();
    let groups = spans.num_groups();
    let mut out = Vec::new();
    let mut g0 = 0;
    while g0 < groups {
        let mut g1 = g0 + 1;
        while g1 < groups && entry_bounds[g1 + 1] - entry_bounds[g0] <= target {
            g1 += 1;
        }
        out.push(Superblock {
            rows: row_bounds[g0]..row_bounds[g1],
            entries: entry_bounds[g0]..entry_bounds[g1],
            rel_row_bounds: row_bounds[g0..=g1]
                .iter()
                .map(|&r| r - row_bounds[g0])
                .collect(),
            rel_entry_bounds: entry_bounds[g0..=g1]
                .iter()
                .map(|&e| e - entry_bounds[g0])
                .collect(),
        });
        g0 = g1;
    }
    out
}

/// Run belief propagation out-of-core on a problem whose squares
/// matrix is memory-mapped ([`SquaresMatrix::is_mapped`]).
///
/// Bit-identical to [`belief_propagation`](crate::bp::belief_propagation)
/// on the equivalent in-core problem, at every thread count.
pub fn belief_propagation_ooc(
    problem: &NetAlignProblem,
    config: &AlignConfig,
    opts: &OocOptions,
) -> Result<AlignmentResult, OocError> {
    let mut engine = BpEngine::new_ooc(problem, config, opts)?;
    for _ in 0..config.iterations {
        engine.step();
        if engine.rounding_due() {
            engine.round_pending();
        }
        engine.end_iteration();
    }
    Ok(engine.finish())
}

/// End-to-end out-of-core alignment: build the squares matrix by
/// streaming (spilling row blocks to `opts.scratch_dir`), reopen it
/// memory-mapped, and run [`belief_propagation_ooc`]. The NACS file
/// (`s.nacs`) is left in the scratch directory for inspection.
pub fn align_streaming(
    a: Graph,
    b: Graph,
    l: BipartiteGraph,
    config: &AlignConfig,
    opts: &OocOptions,
) -> Result<AlignmentResult, OocError> {
    let plan = plan_for(l.num_edges(), l.num_left(), l.num_right(), opts)?;
    std::fs::create_dir_all(&opts.scratch_dir)?;
    let nacs_path = opts.scratch_dir.join("s.nacs");
    let s = SquaresMatrix::build_streaming(&a, &b, &l, &nacs_path, plan.spill_buffer_bytes)?;
    let problem = NetAlignProblem::from_parts(a, b, l, s);
    belief_propagation_ooc(&problem, config, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_rejects_budget_below_baseline() {
        let opts = OocOptions::new("/tmp/x").with_budget_mb(1);
        match plan_for(1000, 100, 100, &opts) {
            Err(OocError::BudgetTooSmall {
                budget_bytes,
                baseline_bytes,
            }) => {
                assert_eq!(budget_bytes, 1 << 20);
                assert!(baseline_bytes > budget_bytes);
            }
            other => panic!("expected BudgetTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn plan_without_budget_is_unbounded() {
        let opts = OocOptions::new("/tmp/x");
        let plan = plan_for(1000, 100, 100, &opts).unwrap();
        assert!(plan.superblock_entries >= usize::MAX / 64);
        assert!(plan.spill_buffer_bytes >= 1 << 20);
    }

    #[test]
    fn plan_scales_window_with_budget() {
        let opts = OocOptions::new("/tmp/x").with_budget_mb(512);
        let small = plan_for(1000, 100, 100, &opts).unwrap();
        let opts = OocOptions::new("/tmp/x").with_budget_mb(1024);
        let large = plan_for(1000, 100, 100, &opts).unwrap();
        assert!(large.superblock_entries > small.superblock_entries);
    }

    #[test]
    fn superblocks_cover_all_rows_and_entries() {
        // rowptr with skewed rows: 10 rows, entries 0,5,5,25,25,...
        let rowptr = vec![0usize, 5, 10, 35, 40, 45, 50, 75, 80, 85, 90];
        let spans = RowSpans::build(&rowptr, 5);
        let sbs = superblocks_from_spans(&spans, 30);
        assert!(!sbs.is_empty());
        assert_eq!(sbs[0].rows.start, 0);
        assert_eq!(sbs.last().unwrap().rows.end, 10);
        assert_eq!(sbs.last().unwrap().entries.end, 90);
        for w in sbs.windows(2) {
            assert_eq!(w[0].rows.end, w[1].rows.start);
            assert_eq!(w[0].entries.end, w[1].entries.start);
        }
        for sb in &sbs {
            assert_eq!(sb.rel_row_bounds[0], 0);
            assert_eq!(
                *sb.rel_row_bounds.last().unwrap(),
                sb.rows.end - sb.rows.start
            );
            assert_eq!(sb.rel_entry_bounds[0], 0);
            assert_eq!(
                *sb.rel_entry_bounds.last().unwrap(),
                sb.entries.end - sb.entries.start
            );
        }
    }
}
