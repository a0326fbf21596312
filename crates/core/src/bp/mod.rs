//! Belief propagation for network alignment (paper Listing 2 / §III.B,
//! parallelization per §IV.C).
//!
//! Per iteration `k`, Listing 2 reads:
//!
//! 1. `F = bound₀^β (β·S + S⁽ᵏ⁻¹⁾ᵀ)` — elementwise over the fixed
//!    pattern of `S`, the transpose read through the value permutation;
//! 2. `d = α·w + F·e` — row sums;
//! 3. `y⁽ᵏ⁾ = d − othermaxcol(z⁽ᵏ⁻¹⁾)`,
//!    `z⁽ᵏ⁾ = d − othermaxrow(y⁽ᵏ⁻¹⁾)`;
//! 4. `S⁽ᵏ⁾ = diag(y⁽ᵏ⁾ + z⁽ᵏ⁾ − d)·S − F` — a row rescale of the
//!    pattern minus `F`;
//! 5. damping: iterates interpolate toward the previous ones with
//!    weight `γᵏ` (which decays to zero, freezing the messages);
//! 6. rounding: match `y⁽ᵏ⁾` and `z⁽ᵏ⁾` with the configured matcher
//!    and evaluate the objective — every iteration for `batch = 1`, or
//!    deferred into batches of `r` iterations for `BP(batch = r)`.
//!    Either way the staged vectors are rounded concurrently, one
//!    contiguous run per rounding lane, and no later iterate reads the
//!    result (paper §VII). So a due flush is handed to the next
//!    iteration, which rounds it *beside* its own passes: iteration
//!    `k + 1` publishes one region of tasks, the passes as task 0 and
//!    each lane's run as a further task, claimed by whichever thread is
//!    free ([`rayon::join_each`]). The values then merge into the
//!    incumbent and history in staging order, as a flush rounded on the
//!    spot would, so every result bit is the same. An iteration then
//!    costs about the larger of its passes and the flush instead of
//!    their sum.
//!
//! Steps 1–5 run as **three parallel passes** inside that region's
//! first task, each a nested region of the pool:
//!
//! * **pass 1** fuses steps 1 and 2 into one row-parallel sweep over
//!   the pattern of `S`: each row of `F` is written and summed in the
//!   same pass, with the transpose read through the value permutation
//!   — no materialized `S⁽ᵏ⁻¹⁾ᵀ` buffer;
//! * **pass 2** takes the per-vertex `max2` statistics of `y⁽ᵏ⁻¹⁾`
//!   (left vertices) and `z⁽ᵏ⁻¹⁾` (right vertices) as one `join`
//!   ([`othermax::vertex_stats_into`]);
//! * **pass 3** walks the span groups of `S` once, each as two flat
//!   loops. The first runs over the group's edges: it reads both
//!   othermax values from those statistics, forms `y`, `z` and the row
//!   scale `y + z − d` from the undamped values, damps `y` and `z`, and
//!   keeps each scale in an `|E_L|` scratch. The second runs over the
//!   group's entries of `S`, takes each entry's row from a per-entry row
//!   map built once in [`BpEngine::new`], and writes the damped value
//!   `γᵏ·(scale − F) + (1 − γᵏ)·S⁽ᵏ⁻¹⁾`. So no loop's trip count depends
//!   on the length of a row of `S`, whose loop exit would mispredict on
//!   rows of uneven length. Both loops count the non-finite values they
//!   write. Out of core, a superblock sweep replaces the second loop.
//!
//! The committed iterate `(y, z, S)` is read-only during a step: the
//! passes write a second buffer set, which is swapped in when the count
//! is zero. The numeric guard's rollback is therefore free — the
//! committed iterate simply stays — and halves the damping base.
//!
//! Listing 2's arithmetic has one home: this module's scalar functions
//! `f_entry` (step 1), `row_d` and `f_row` (steps 1–2 of a row),
//! `edge_messages` (steps 3–5 of an edge) and `damped`, and the
//! statistics of [`othermax`](mod@othermax) (`push`, `max2`, `merge`).
//! The passes here, the out-of-core sweeps ([`crate::oocore`]), the
//! distributed worker ([`crate::dist`]) and the delta replay
//! ([`crate::delta`]) each keep their own loops and compute through
//! them, so every path applies the same f64 operations in the same
//! order and the results are bit-identical at every pool size,
//! superblock size, worker count and delta. Each path has a gate that
//! compares its iterate with the in-core engine's bit for bit after
//! every iteration.
//!
//! The rounding step is the only place the matching algorithm appears;
//! the iterates themselves are independent of it (paper §VII), which is
//! why approximate matching barely changes BP's solution quality.
//! Every rounding lane owns one [`MatcherEngine`] of
//! [`AlignConfig::matcher`]'s kind.
//!
//! All state lives in a [`BpEngine`]: the committed iterate, its output
//! twin and the pass scratch are allocated once in [`BpEngine::new`],
//! and the steady-state loop ([`BpEngine::step`] /
//! [`BpEngine::round_pending`]) is allocation-free (paper §IV: "no
//! dynamic memory allocations") — pending rounding vectors are staged
//! in pooled buffers that are recycled after every flush, before the
//! step that rounded it stages its own. Every method that reads or
//! changes rounding state (`round_pending`, `discard_pending`,
//! `checkpoint_state`, `set_recorder`, `finish_in_place`) first
//! completes a flush in flight on the lanes — `discard_pending` only
//! while the caller's cancel scope lets it — ladder rung 2
//! (`force_cheap_rounding`) switches matchers at the next hand-over, and
//! with a trajectory recorder attached every flush is rounded when it
//! is due.

pub mod othermax;

use crate::checkpoint::BpState;
use crate::config::AlignConfig;
use crate::objective::{
    evaluate_matching, evaluate_matching_with_scratch, EvalScratch, ObjectiveValue,
};
use crate::oocore::{OocError, OocOptions, OocState};
use crate::problem::NetAlignProblem;
use crate::result::{fold_incumbent, AlignmentResult, IterationRecord};
use crate::rounding::{round_heuristic, RoundedSolution};
use crate::rowspans::RowSpans;
use crate::squares::SquaresMatrix;
use crate::trace::{faults, MatcherCounters, RunTrace, Step};
use netalign_graph::mmap::Advice;
use netalign_graph::nacs::Section;
use netalign_graph::BipartiteGraph;
use netalign_matching::{MatcherEngine, MatcherKind, Matching};
use othermax::{column_positions, othermax, vertex_stats_into, Max2};
use rayon::par_uneven_chunks_mut;
use rayon::prelude::*;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Work-chunk size for the dynamic-scheduling analog of the paper's
/// OpenMP `schedule(dynamic, 1000)` (§IV.A).
pub(crate) const CHUNK: usize = 1000;

/// Register the fault-injection and cancellation chunk hooks with the
/// runtime exactly once per process. Both hooks are no-ops unless
/// armed (a fault plan installed / a cancel token current), so
/// unconditional installation costs one function-pointer load each per
/// chunk claim.
pub(crate) fn install_fault_hook() {
    static ONCE: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    ONCE.get_or_init(|| {
        rayon::set_chunk_fault_hook(Some(faults::chunk_claim_tick));
        rayon::set_chunk_cancel_hook(Some(crate::trace::cancel::chunk_probe));
    });
}

/// Run belief propagation on `problem` with `config`.
///
/// Returns the best rounded solution over all iterations (after an
/// optional final exact re-rounding of the best heuristic vector).
pub fn belief_propagation(problem: &NetAlignProblem, config: &AlignConfig) -> AlignmentResult {
    let mut engine = BpEngine::new(problem, config);
    for _ in 0..config.iterations {
        engine.step();
        if engine.rounding_due() {
            engine.round_pending();
        }
        engine.end_iteration();
    }
    engine.finish()
}

/// The resident state of one BP run: every buffer the iteration
/// touches, allocated once up front. Driving the engine manually
/// (instead of through [`belief_propagation`]) exposes the
/// steady-state loop to tests — e.g. the allocation-counting test
/// that asserts [`BpEngine::step`] performs no heap traffic.
pub struct BpEngine<'a> {
    p: &'a NetAlignProblem,
    config: &'a AlignConfig,
    /// Iterations completed so far (`step` increments first).
    k: usize,
    /// Engine-local damping base: starts at `config.gamma`, halved by
    /// each numeric recovery (so a rolled-back run re-approaches the
    /// fixed point more conservatively).
    gamma: f64,
    // The committed iterate: y/z messages over E_L and S^(k) values
    // over the pattern. Zeros initially — BP's own starting point, so
    // a first-iteration rollback is well defined. Read-only during a
    // step.
    y: Vec<f64>,
    z: Vec<f64>,
    sk: Vec<f64>,
    // The step's output, swapped with the committed iterate when it
    // is finite (always, with guards off).
    y_next: Vec<f64>,
    z_next: Vec<f64>,
    sk_next: Vec<f64>,
    // Pass scratch: d and F from pass 1, the per-vertex othermax
    // statistics from pass 2, each edge's row scale from pass 3.
    d: Vec<f64>,
    fv: Vec<f64>,
    row_stats: Vec<Max2>,
    col_stats: Vec<Max2>,
    scale: Vec<f64>,
    // Loop-invariant structure, computed once per run: each edge's
    // position in its column, each entry's row of S (in core only).
    col_pos: Vec<u32>,
    entry_rows: Vec<u32>,
    spans: RowSpans,
    // Rounding bookkeeping: staged vectors (and their iterations)
    // awaiting a batched rounding, the flush handed to the next step
    // (in flight), and the pool their buffers return to afterward.
    pending_iter: Vec<usize>,
    pending_bufs: Vec<Vec<f64>>,
    flush_iter: Vec<usize>,
    flush_bufs: Vec<Vec<f64>>,
    buf_pool: Vec<Vec<f64>>,
    // Rounding lanes, one matcher engine of `config.matcher`'s kind
    // each, at most one per pool thread: a flush splits its staged
    // vectors, y and z alike, into one contiguous run per lane and
    // rounds the runs concurrently.
    lanes: Vec<RoundingLane>,
    // Degradation-ladder override of `config.batch` (rung 1): the
    // harness escalates the rounding batch under deadline pressure,
    // trading rounding frequency for time exactly like the paper's
    // `BP(batch = r)` variant. `None` = the configured batch.
    batch_override: Option<usize>,
    // Degradation-ladder rung 2 engaged: the lanes switch to greedy at
    // the next hand-over, after the flush in flight is rounded.
    cheap_rounding: bool,
    best: Option<(f64, usize)>,
    best_g: Vec<f64>,
    // Trajectory recorder for incremental re-alignment: when attached,
    // every post-damping iterate and every rounded stage is captured so
    // a later structural delta can be replayed sparsely (crate::delta).
    recorder: Option<crate::delta::TrajectoryRecorder>,
    // Out-of-core mode (crate::oocore): the nnz-sized iterate streams
    // live in spilled scratch files and `sk`/`sk_next`/`fv` above stay
    // empty. `None` = the ordinary in-core engine.
    ooc: Option<OocState>,
    // Observability.
    trace: RunTrace,
    counters: MatcherCounters,
    history: Vec<IterationRecord>,
}

/// One rounding lane of [`BpEngine`]: a matcher engine, the scratch of
/// its allocation-free objective evaluation, and the values
/// of the vectors it rounded in the current flush, in staging order,
/// with the time it spent on them.
struct RoundingLane {
    engine: MatcherEngine,
    eval: EvalScratch,
    values: Vec<ObjectiveValue>,
    busy: Duration,
}

impl RoundingLane {
    /// Match the heuristic vector `g`, evaluate the matching under
    /// `config`'s α and β, and keep the value.
    fn round(
        &mut self,
        p: &NetAlignProblem,
        config: &AlignConfig,
        g: &[f64],
        counters: &MatcherCounters,
    ) -> (&Matching, ObjectiveValue) {
        let t0 = Instant::now();
        let m = self.engine.run(&p.l, g, counters);
        let value = evaluate_matching_with_scratch(p, m, config.alpha, config.beta, &mut self.eval);
        self.values.push(value);
        self.busy += t0.elapsed();
        (m, value)
    }
}

/// Run `lead` beside the flush in flight — the `staged` vectors, if any
/// — as one pool region of tasks: `lead` is task 0 and lane `i`'s
/// contiguous run of the staged vectors task `i + 1`, each claimed by
/// whichever thread is free ([`rayon::join_each`]). The lanes keep their
/// values for [`BpEngine::merge_flush`].
fn beside_flush<R: Send>(
    p: &NetAlignProblem,
    config: &AlignConfig,
    lanes: &mut [RoundingLane],
    staged: &[Vec<f64>],
    counters: &MatcherCounters,
    lead: impl FnOnce() -> R + Send,
) -> R {
    let n = if staged.is_empty() { 0 } else { lanes.len() };
    let per_lane = staged.len().div_ceil(lanes.len()).max(1);
    // The lanes split the pool: each lane's matcher runs its nested
    // parallel regions on its share of the threads, so concurrent lanes
    // do not recruit workers beyond the pool. (A vendored-rayon pool is
    // only a thread-count scope, so building one allocates nothing.)
    let share = rayon::ThreadPoolBuilder::new()
        .num_threads((rayon::current_num_threads() / lanes.len()).max(1))
        .build()
        .expect("the vendored thread pool builder is infallible");
    rayon::join_each(lead, &mut lanes[..n], |i, lane| {
        let run = staged.chunks(per_lane).nth(i).unwrap_or_default();
        share.install(|| {
            // A lane skips what it rounded before an unwound region
            // stopped it part way.
            for g in &run[lane.values.len()..] {
                lane.round(p, config, g, counters);
            }
        })
    })
}

impl<'a> BpEngine<'a> {
    /// Allocate all run state for `problem` under `config`.
    pub fn new(p: &'a NetAlignProblem, config: &'a AlignConfig) -> Self {
        Self::new_inner(p, config, true)
    }

    /// Allocate an out-of-core engine: the `nnz`-sized iterate state
    /// lives in spilled scratch files under `opts.scratch_dir` and
    /// every sweep over the pattern of `S` is a sequential superblock
    /// pass sized from `opts.max_resident_bytes`. Requires a
    /// memory-mapped squares matrix. Bit-identical to the in-core
    /// engine at every thread count (see [`crate::oocore`]).
    pub fn new_ooc(
        p: &'a NetAlignProblem,
        config: &'a AlignConfig,
        opts: &OocOptions,
    ) -> Result<Self, OocError> {
        if !p.s.is_mapped() {
            return Err(OocError::Unsupported(
                "out-of-core BP requires a memory-mapped squares matrix \
                 (SquaresMatrix::build_streaming or from_mapped)",
            ));
        }
        let mut engine = Self::new_inner(p, config, false);
        engine.ooc = Some(OocState::new(p, &engine.spans, opts)?);
        Ok(engine)
    }

    /// Shared constructor: `nnz_state` controls whether the in-core
    /// `nnz`-sized arrays are allocated (false in out-of-core mode,
    /// where spilled streams replace them).
    fn new_inner(p: &'a NetAlignProblem, config: &'a AlignConfig, nnz_state: bool) -> Self {
        config.validate();
        install_fault_hook();
        let m = p.l.num_edges();
        let nnz = if nnz_state { p.s.nnz() } else { 0 };
        let mut trace = RunTrace::new();
        trace.reserve_iterations(config.iterations);
        let batch_cap = config.batch.max(1) * 2 + 2;
        BpEngine {
            p,
            config,
            k: 0,
            gamma: config.gamma,
            y: vec![0.0; m],
            z: vec![0.0; m],
            sk: vec![0.0; nnz],
            y_next: vec![0.0; m],
            z_next: vec![0.0; m],
            sk_next: vec![0.0; nnz],
            d: vec![0.0; m],
            fv: vec![0.0; nnz],
            row_stats: vec![(0.0, 0.0, 0); p.l.num_left()],
            col_stats: vec![(0.0, 0.0, 0); p.l.num_right()],
            scale: vec![0.0; m],
            col_pos: column_positions(&p.l),
            entry_rows: if nnz_state {
                entry_rows(p.s.rowptr())
            } else {
                Vec::new()
            },
            spans: RowSpans::from_rowptr(p.s.rowptr()),
            pending_iter: Vec::with_capacity(batch_cap),
            pending_bufs: Vec::with_capacity(batch_cap),
            flush_iter: Vec::with_capacity(batch_cap),
            flush_bufs: Vec::with_capacity(batch_cap),
            buf_pool: Vec::with_capacity(batch_cap),
            lanes: (0..rayon::current_num_threads().min(2 * config.batch.max(1)))
                .map(|_| RoundingLane {
                    engine: MatcherEngine::new(&p.l, config.matcher),
                    eval: EvalScratch::new(&p.l),
                    values: Vec::with_capacity(batch_cap),
                    busy: Duration::ZERO,
                })
                .collect(),
            batch_override: None,
            cheap_rounding: false,
            best: None,
            best_g: vec![0.0; m],
            recorder: None,
            ooc: None,
            trace,
            counters: MatcherCounters::new(config.trace_matcher),
            history: Vec::with_capacity(if config.record_history {
                2 * config.iterations
            } else {
                0
            }),
        }
    }

    /// Iterations completed so far.
    pub fn iteration(&self) -> usize {
        self.k
    }

    /// Run one BP iteration (Listing 2 steps 1–5, as the three passes
    /// of the module docs) and stage the new `y`/`z` iterates for
    /// rounding. A flush that [`round_pending`](Self::round_pending)
    /// handed over is rounded in the same pool region as the passes, on
    /// the lanes, and merged before the new iterates are staged.
    /// Allocation-free after the first `2·batch` iterations warmed up
    /// the staging pool. Out of core, every pass over the pattern of `S`
    /// is a *sequential* superblock sweep over spilled streams (see
    /// [`crate::oocore`]).
    pub fn step(&mut self) {
        self.k += 1;
        let k = self.k;
        if faults::active() {
            faults::panic_point("bp.step", k as u64);
        }
        let Self {
            p,
            config,
            y,
            z,
            sk,
            y_next,
            z_next,
            sk_next,
            d,
            fv,
            row_stats,
            col_stats,
            scale,
            col_pos,
            entry_rows,
            spans,
            ooc,
            trace,
            lanes,
            flush_bufs,
            counters,
            ..
        } = self;
        let p = *p;
        let (alpha, beta) = (config.alpha, config.beta);
        let gk = config.damping.fresh_weight(self.gamma, k);
        let m = p.l.num_edges();
        let nnz = p.s.nnz();

        let passes = || {
            // Pass 1, steps 1+2: F = bound_0^beta(beta*S + S^(k-1)^T)
            // and d = alpha*w + F e in one row-parallel sweep. Out of
            // core, F is recomputed in pass 3 instead of stored.
            let t0 = Instant::now();
            match ooc {
                None => fused_f_d(&p.s, spans, sk, p.l.weights(), alpha, beta, fv, d),
                Some(ooc) => ooc.fused_d(p, alpha, beta, d),
            }
            trace.add(Step::ComputeF, t0.elapsed());

            // Pass 2: the othermax statistics of the committed messages.
            let t0 = Instant::now();
            vertex_stats_into(&p.l, y, z, row_stats, col_stats, CHUNK);
            trace.add(Step::OtherMax, t0.elapsed());

            // Pass 3, steps 3–5 and the finite count of the guard.
            let t0 = Instant::now();
            let u = EdgeUpdate {
                l: &p.l,
                col_pos,
                row_stats,
                col_stats,
                d,
                y,
                z,
                gk,
            };
            let nonfinite = match ooc {
                None => update_pass(
                    &u, spans, entry_rows, fv, sk, scale, sk_next, y_next, z_next,
                ),
                // The S sweep reads other rows' scales through the
                // transpose companion, so every scale is in place first.
                Some(ooc) => {
                    message_pass(&u, spans, scale, y_next, z_next)
                        + ooc.update_s(p, beta, gk, scale)
                }
            };
            trace.add(Step::UpdateS, t0.elapsed());
            nonfinite
        };
        let mut nonfinite = beside_flush(p, config, lanes, flush_bufs, counters, passes);
        self.merge_flush();

        if faults::active() && faults::nan_due("bp.damping", k as u64) {
            self.y_next[0] = f64::NAN;
            nonfinite += 1;
        }

        // Guard rail: a non-finite iterate would poison the `γᵏ`
        // interpolation of every later iteration, so it is never
        // committed. The committed iterate stays the last finite one,
        // and the damping base halves.
        if self.config.numeric_guards && nonfinite > 0 {
            self.gamma *= 0.5;
            self.trace.algo.numeric_recoveries += 1;
            // Nothing of this iteration survives: no messages were
            // produced and no iterate is staged for rounding. The
            // trajectory still needs this iteration's (rolled-back)
            // state so slot `k` stays the post-iteration-`k` state.
            if let Some(rec) = &mut self.recorder {
                rec.note_recovery();
                rec.record_iteration(k, &self.y, &self.z, &self.sk);
            }
            return;
        }
        std::mem::swap(&mut self.y, &mut self.y_next);
        std::mem::swap(&mut self.z, &mut self.z_next);
        std::mem::swap(&mut self.sk, &mut self.sk_next);
        if let Some(ooc) = &mut self.ooc {
            ooc.advance();
        }

        // The y/z/sk entries rewritten this iteration are BP's
        // "messages"; d and F are derived scratch.
        self.trace.algo.messages_updated += (2 * m + nnz) as u64;

        // Step 6 staging: copy the damped iterates into pooled buffers
        // for the next batched rounding.
        let mut buf = self.buf_pool.pop().unwrap_or_else(|| vec![0.0; m]);
        buf.copy_from_slice(&self.y);
        self.pending_bufs.push(buf);
        self.pending_iter.push(k);
        let mut buf = self.buf_pool.pop().unwrap_or_else(|| vec![0.0; m]);
        buf.copy_from_slice(&self.z);
        self.pending_bufs.push(buf);
        self.pending_iter.push(k);

        if let Some(rec) = &mut self.recorder {
            rec.record_iteration(k, &self.y, &self.z, &self.sk);
        }
    }

    /// Whether the staged iterates should be rounded now: the batch is
    /// full, or the configured iteration budget is exhausted.
    pub fn rounding_due(&self) -> bool {
        !self.pending_iter.is_empty()
            && (self.pending_iter.len() >= self.effective_batch() * 2
                || self.k >= self.config.iterations)
    }

    /// The rounding batch size currently in force: the configured value
    /// unless the degradation ladder escalated it.
    pub fn effective_batch(&self) -> usize {
        self.batch_override.unwrap_or(self.config.batch).max(1)
    }

    /// Degradation-ladder rung 1: double the rounding batch size (the
    /// paper's `BP(batch = r)` trade — fewer, larger batched roundings
    /// per wall-clock second). Capped so a long slide under pressure
    /// cannot defer rounding indefinitely. Changing the batch changes
    /// *when* iterates are rounded, never how, so a run escalated at a
    /// fixed iteration stays deterministic at every pool size.
    pub fn escalate_batch(&mut self) {
        self.batch_override = Some((self.effective_batch() * 2).min(64));
    }

    /// Degradation-ladder rung 2: round every further iterate with the
    /// sequential greedy matcher. For the locally-dominant matchers
    /// greedy returns the same unique matching, only faster, so the
    /// rung changes no result bit. A no-op when the engine already
    /// rounds greedily; otherwise the replacement engine allocates once.
    /// The lanes switch at the next [`round_pending`](Self::round_pending),
    /// once a flush in flight is rounded with the matcher it was handed
    /// over under, so the matcher counters stay those of a run that
    /// rounded it right away and the rung itself rounds nothing.
    pub fn force_cheap_rounding(&mut self) {
        self.cheap_rounding = true;
    }

    /// Complete the flush in flight, or drop it if the caller's cancel
    /// scope cancels that, then drop every staged iterate not yet handed
    /// to a rounding, recycling the buffers. Used by the harness at a
    /// deadline or cancel stop: the incumbent must be assembled *now*,
    /// but every iteration whose rounding was already due keeps it, also
    /// after a step unwound mid-flush, while the run's clock deadline
    /// allows (the harness's scope fires there).
    pub fn discard_pending(&mut self) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.complete_flush())) {
            if payload.downcast_ref::<rayon::RegionCancelled>().is_none() {
                resume_unwind(payload);
            }
            self.lanes.iter_mut().for_each(|lane| lane.values.clear());
            self.flush_iter.clear();
            self.buf_pool.append(&mut self.flush_bufs);
        }
        self.pending_iter.clear();
        self.buf_pool.append(&mut self.pending_bufs);
    }

    /// Round every staged iterate (`BP(batch = r)`): hand them to the
    /// next [`step`](Self::step), which rounds them beside its own
    /// passes in one pool region and then updates the incumbent and
    /// history in staging order. A flush still in flight is completed
    /// first. The staged vectors are independent tasks, as in the
    /// paper: the lanes round one contiguous run each, concurrently,
    /// and a parallel matcher nests its own parallelism on its lane's
    /// share of the pool. No iterate reads a rounding, so handing it
    /// over changes no result bit. Zero steady-state allocation with the
    /// preallocated matchers. With a trajectory recorder attached, which
    /// keeps every stage's matching, the first lane rounds the whole
    /// flush here and now.
    pub fn round_pending(&mut self) {
        self.complete_flush();
        for lane in self.lanes.iter_mut().filter(|_| self.cheap_rounding) {
            if lane.engine.kind() != MatcherKind::Greedy {
                lane.engine = MatcherEngine::new(&self.p.l, MatcherKind::Greedy);
            }
        }
        std::mem::swap(&mut self.pending_iter, &mut self.flush_iter);
        std::mem::swap(&mut self.pending_bufs, &mut self.flush_bufs);
        if self.recorder.is_some() {
            self.complete_flush();
        }
    }

    /// Round the flush in flight, if any, on the lanes — only what an
    /// unwound step left unrounded — and merge it.
    fn complete_flush(&mut self) {
        if self.flush_iter.is_empty() {
            return;
        }
        let Self {
            p,
            config,
            flush_iter,
            flush_bufs,
            lanes,
            counters,
            recorder,
            ..
        } = self;
        match recorder {
            Some(rec) => {
                for (idx, (&iter_k, g)) in flush_iter.iter().zip(flush_bufs.iter()).enumerate() {
                    let (m, value) = lanes[0].round(p, config, g, counters);
                    rec.record_stage(iter_k, idx % 2, m, value);
                }
            }
            None => beside_flush(p, config, lanes, flush_bufs, counters, || ()),
        }
        self.merge_flush();
    }

    /// Merge a rounded flush into the incumbent and history in staging
    /// order, recycle its buffers, and add its longest lane's time, plus
    /// the merge, to the `match` step of the trace.
    fn merge_flush(&mut self) {
        if self.flush_iter.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let record_history = self.config.record_history;
        let Self {
            flush_iter,
            flush_bufs,
            buf_pool,
            lanes,
            history,
            best,
            best_g,
            trace,
            ..
        } = self;
        trace.algo.rounding_invocations += 1;
        trace
            .algo
            .rounding_batch_sizes
            .push(flush_bufs.len() as u64);
        let values = lanes.iter().flat_map(|lane| &lane.values);
        for ((&iter_k, g), &v) in flush_iter.iter().zip(flush_bufs.iter()).zip(values) {
            if fold_incumbent(history, record_history, best, iter_k, v, None) {
                best_g.copy_from_slice(g);
                trace.algo.best_improvements += 1;
            }
        }
        let busy = lanes
            .iter_mut()
            .map(|lane| {
                lane.values.clear();
                std::mem::take(&mut lane.busy)
            })
            .max()
            .unwrap_or_default();
        flush_iter.clear();
        buf_pool.append(flush_bufs);
        trace.add(Step::Match, busy + t0.elapsed());
        self.post_round_release();
    }

    /// Out-of-core only: the objective evaluations behind a rounding
    /// walk rows of `S` through the mapped column indices in matched-
    /// edge order. Drop those pages afterwards so the evaluation's
    /// random working set does not accumulate on top of the sweeps'
    /// sequential window.
    fn post_round_release(&self) {
        if self.ooc.is_some() {
            if let Some(view) = self.p.s.mapped_view() {
                view.advise_section(Section::Indices, Advice::DontNeed);
            }
        }
    }

    /// Close the current iteration's trace row.
    pub fn end_iteration(&mut self) {
        self.trace.end_iteration();
    }

    /// Attach a trajectory recorder (incremental re-alignment support),
    /// after completing a flush in flight: from here on every flush is
    /// rounded when it is due.
    pub fn set_recorder(&mut self, recorder: crate::delta::TrajectoryRecorder) {
        assert!(
            self.ooc.is_none(),
            "trajectory recording is not supported in out-of-core mode"
        );
        self.complete_flush();
        self.recorder = Some(recorder);
    }

    /// Detach and return the recorder, if one was attached.
    pub fn take_recorder(&mut self) -> Option<crate::delta::TrajectoryRecorder> {
        self.recorder.take()
    }

    /// Snapshot the engine for [`crate::checkpoint`]. Between steps
    /// the committed iterate is the whole iterate state (the output
    /// buffers are overwritten by the next step), so only it is
    /// captured. A flush in flight is completed first, so the snapshot
    /// holds its rounding, as one taken right after a synchronous flush
    /// would, and never in-flight vectors. The completion is
    /// uncancellable, like final assembly (a deadline checkpoint is cut
    /// after the token fired). With a checkpoint due every iteration,
    /// each flush is rounded here, not beside the next iteration's passes.
    pub fn checkpoint_state(&mut self) -> BpState {
        assert!(
            self.ooc.is_none(),
            "checkpointing is not supported in out-of-core mode"
        );
        rayon::with_cancel_scope(0, || self.complete_flush());
        BpState {
            k: self.k,
            gamma: self.gamma,
            y: self.y.clone(),
            z: self.z.clone(),
            sk: self.sk.clone(),
            pending_iter: self.pending_iter.clone(),
            pending_bufs: self.pending_bufs.clone(),
            best: self.best,
            best_g: self.best_g.clone(),
            history: self.history.clone(),
            algo: self.trace.algo.clone(),
            matcher: self.counters.snapshot(),
        }
    }

    /// Restore a freshly constructed engine from a checkpoint taken on
    /// the same problem and config (the loader already validated both).
    /// Wall-clock step timings restart from zero; everything that feeds
    /// the bit-identity contract — iterates, incumbent, history,
    /// counters — continues exactly where the snapshot left off.
    pub fn restore_state(&mut self, state: BpState) {
        self.k = state.k;
        self.gamma = state.gamma;
        self.y.copy_from_slice(&state.y);
        self.z.copy_from_slice(&state.z);
        self.sk.copy_from_slice(&state.sk);
        self.pending_iter = state.pending_iter;
        self.pending_bufs = state.pending_bufs;
        self.best = state.best;
        self.best_g.copy_from_slice(&state.best_g);
        self.history = state.history;
        self.trace.algo = state.algo;
        self.counters.preload(&state.matcher);
    }

    /// Complete the flush in flight, round any remaining staged
    /// iterates, and assemble the result, leaving the engine hollow but
    /// alive so owned components (the trajectory recorder) can still be
    /// taken afterwards.
    pub fn finish_in_place(&mut self) -> AlignmentResult {
        self.round_pending();
        self.complete_flush();
        let history = std::mem::take(&mut self.history);
        let trace = std::mem::take(&mut self.trace);
        let mut best_g = std::mem::take(&mut self.best_g);
        let best = match self.best.take() {
            Some((obj, iter)) => Some((obj, best_g, iter)),
            None => {
                // Pathological runs where every iteration was rolled
                // back never round anything. Fall back to the current
                // (guard-finite) iterate so the caller still gets a
                // valid matching instead of a panic.
                best_g.clear();
                best_g.extend_from_slice(&self.y);
                Some((f64::NEG_INFINITY, best_g, self.k))
            }
        };
        let (l, counters, engine) = (&self.p.l, &self.counters, &mut self.lanes[0].engine);
        finalize(self.p, self.config, best, history, trace, counters, |g| {
            engine.run(l, g, counters).clone()
        })
    }

    /// Flush any remaining staged iterates and assemble the result.
    pub fn finish(mut self) -> AlignmentResult {
        self.finish_in_place()
    }
}

/// Pass 1, fused Listing 2 steps 1+2: one row-parallel sweep over the
/// fixed pattern of `S` writes each row's `F` and its sum `d` with
/// [`f_row`], the transpose of the committed `sk` read in place through
/// the value permutation — no materialized `S⁽ᵏ⁻¹⁾ᵀ`.
#[allow(clippy::too_many_arguments)]
fn fused_f_d(
    s: &SquaresMatrix,
    spans: &RowSpans,
    sk: &[f64],
    w: &[f64],
    alpha: f64,
    beta: f64,
    fv: &mut [f64],
    d: &mut [f64],
) {
    let rowptr = s.rowptr();
    let perm = s.transpose_perm_slice();
    let row_bounds = spans.row_bounds();
    let entry_bounds = spans.entry_bounds();
    par_uneven_chunks_mut(fv, entry_bounds)
        .zip(par_uneven_chunks_mut(d, row_bounds))
        .enumerate()
        .for_each(|(g, (fv_chunk, d_chunk))| {
            let rows = row_bounds[g]..row_bounds[g + 1];
            let base = entry_bounds[g];
            for (de, e) in d_chunk.iter_mut().zip(rows) {
                let (lo, hi) = (rowptr[e], rowptr[e + 1]);
                let t = perm[lo..hi].iter().map(|&i| sk[i]);
                *de = f_row(alpha * w[e], beta, t, &mut fv_chunk[lo - base..hi - base]);
            }
        });
}

// Listing 2's arithmetic, which every BP path computes through (see the
// module docs).

/// Step 1 for one entry: `F = bound₀^β(β + t)` of the entry's
/// transpose value `t = S⁽ᵏ⁻¹⁾ᵀ[e, c]`.
#[inline]
pub(crate) fn f_entry(beta: f64, t: f64) -> f64 {
    (beta + t).clamp(0.0, beta)
}

/// Step 2 for one row: `d = αw + ΣF` over the row's `F` values, added
/// up from `+0.0` in storage order. (`Iterator::sum` starts from
/// `−0.0`, which would change `d` when `αw` is `−0.0`.)
#[inline]
pub(crate) fn row_d(aw: f64, f: impl Iterator<Item = f64>) -> f64 {
    aw + f.fold(0.0, |acc, v| acc + v)
}

/// Steps 1 and 2 for one row of `S`: writes `F` of the row's transpose
/// values `t` into `f` and returns `d = αw + ΣF`, summed as [`row_d`]
/// sums it.
#[inline]
pub(crate) fn f_row(aw: f64, beta: f64, t: impl Iterator<Item = f64>, f: &mut [f64]) -> f64 {
    row_d(
        aw,
        f.iter_mut().zip(t).map(|(f, t)| {
            *f = f_entry(beta, t);
            *f
        }),
    )
}

/// Steps 3–5 for one edge, from its row sum `d`, its two othermax
/// values and its committed messages `y`, `z`: the damped `y` and `z`,
/// and the row scale `(y + z) − d` of the undamped ones, by which step 4
/// writes the edge's row `S⁽ᵏ⁾ = scale − F` (damped with [`damped`]).
#[inline]
pub(crate) fn edge_messages(
    gk: f64,
    d: f64,
    omr: f64,
    omc: f64,
    y: f64,
    z: f64,
) -> (f64, f64, f64) {
    let (yn, zn) = (d - omc, d - omr);
    (damped(gk, yn, y), damped(gk, zn, z), yn + zn - d)
}

/// Step 5's interpolation of one value: `γᵏ·fresh + (1 − γᵏ)·prev`.
#[inline]
pub(crate) fn damped(gk: f64, fresh: f64, prev: f64) -> f64 {
    gk * fresh + (1.0 - gk) * prev
}

/// What pass 3 reads to update the messages of one edge of `L`: `d`
/// from pass 1, the per-vertex statistics of pass 2, and the committed
/// `y`, `z` that damping interpolates toward.
struct EdgeUpdate<'s> {
    l: &'s BipartiteGraph,
    col_pos: &'s [u32],
    row_stats: &'s [Max2],
    col_stats: &'s [Max2],
    d: &'s [f64],
    y: &'s [f64],
    z: &'s [f64],
    gk: f64,
}

impl EdgeUpdate<'_> {
    /// Listing 2 steps 3–5 for edge `e`: the damped `y[e]` and `z[e]`,
    /// and the row scale `y + z − d` of the undamped messages.
    #[inline]
    fn at(&self, e: usize) -> (f64, f64, f64) {
        let (a, b) = self.l.endpoints(e);
        let omr = othermax(self.row_stats[a as usize], e - self.l.left_range(a).start);
        let omc = othermax(self.col_stats[b as usize], self.col_pos[e] as usize);
        edge_messages(self.gk, self.d[e], omr, omc, self.y[e], self.z[e])
    }

    /// The per-edge update over the edges `rows` (one span group),
    /// writing the damped messages and the row scales into the group's
    /// chunks. Returns the count of non-finite messages.
    #[inline]
    fn messages(
        &self,
        rows: Range<usize>,
        scale: &mut [f64],
        y_next: &mut [f64],
        z_next: &mut [f64],
    ) -> u64 {
        let mut bad = 0;
        for (((e, sc), yn), zn) in rows.zip(scale).zip(y_next).zip(z_next) {
            let (y, z, s) = self.at(e);
            (*sc, *yn, *zn) = (s, y, z);
            bad += u64::from(!y.is_finite()) + u64::from(!z.is_finite());
        }
        bad
    }
}

/// The row of every entry of a CSR pattern, for sweeps whose trip
/// count should not depend on the length of a row.
fn entry_rows(rowptr: &[usize]) -> Vec<u32> {
    let mut rows = Vec::with_capacity(rowptr[rowptr.len() - 1]);
    for (r, w) in rowptr.windows(2).enumerate() {
        rows.resize(w[1], r as u32);
    }
    rows
}

/// Pass 3 in core: one row-parallel sweep over the span groups of `S`.
/// Each group runs two flat loops: the per-edge update of its messages
/// and row scales, then one loop over its entries of `S` that writes
/// the damped row `sk_next[idx] = γᵏ·(scale[row] − F[idx]) + (1 − γᵏ)·
/// sk[idx]`, with `F` from pass 1 and `row` from `entry_rows`. Neither
/// loop's trip count depends on the length of a row, so no exit
/// branch mispredicts per row. Returns the count of non-finite values
/// written.
#[allow(clippy::too_many_arguments)]
fn update_pass(
    u: &EdgeUpdate,
    spans: &RowSpans,
    entry_rows: &[u32],
    fv: &[f64],
    sk: &[f64],
    scale: &mut [f64],
    sk_next: &mut [f64],
    y_next: &mut [f64],
    z_next: &mut [f64],
) -> u64 {
    let row_bounds = spans.row_bounds();
    let entry_bounds = spans.entry_bounds();
    par_uneven_chunks_mut(sk_next, entry_bounds)
        .zip(par_uneven_chunks_mut(scale, row_bounds))
        .zip(par_uneven_chunks_mut(y_next, row_bounds))
        .zip(par_uneven_chunks_mut(z_next, row_bounds))
        .enumerate()
        .map(|(g, (((sk_chunk, scale_chunk), y_chunk), z_chunk))| {
            let row0 = row_bounds[g];
            let mut bad = u.messages(row0..row_bounds[g + 1], scale_chunk, y_chunk, z_chunk);
            let entries = entry_bounds[g]..entry_bounds[g + 1];
            let rows = &entry_rows[entries.clone()];
            for (((v, &r), &f), &prev) in sk_chunk
                .iter_mut()
                .zip(rows)
                .zip(&fv[entries.clone()])
                .zip(&sk[entries])
            {
                *v = damped(u.gk, scale_chunk[r as usize - row0] - f, prev);
                bad += u64::from(!v.is_finite());
            }
            bad
        })
        .sum()
}

/// Pass 3's message half out of core: the per-edge update alone, over
/// the same span groups, keeping every row scale for the superblock
/// sweep of `S` that follows ([`OocState::update_s`]). Returns the count
/// of non-finite messages.
fn message_pass(
    u: &EdgeUpdate,
    spans: &RowSpans,
    scale: &mut [f64],
    y_next: &mut [f64],
    z_next: &mut [f64],
) -> u64 {
    let row_bounds = spans.row_bounds();
    par_uneven_chunks_mut(scale, row_bounds)
        .zip(par_uneven_chunks_mut(y_next, row_bounds))
        .zip(par_uneven_chunks_mut(z_next, row_bounds))
        .enumerate()
        .map(|(g, ((scale_chunk, y_chunk), z_chunk))| {
            u.messages(
                row_bounds[g]..row_bounds[g + 1],
                scale_chunk,
                y_chunk,
                z_chunk,
            )
        })
        .sum()
}

/// Shared tail of both aligners: round the best heuristic — with the
/// exact matcher when the final exact round keeps it, otherwise with
/// `rematch`, the caller's own rounding engine — then assemble the
/// result.
pub(crate) fn finalize(
    p: &NetAlignProblem,
    config: &AlignConfig,
    best: Option<(f64, Vec<f64>, usize)>,
    history: Vec<IterationRecord>,
    mut trace: RunTrace,
    matcher_counters: &MatcherCounters,
    rematch: impl FnOnce(&[f64]) -> Matching,
) -> AlignmentResult {
    // Invariant, not a user-reachable panic: both engines' `finish`
    // methods substitute a fallback incumbent when no rounding ever
    // succeeded, so `best` is always `Some` by the time it gets here.
    let (best_obj, best_g, best_iter) = best.expect("finish() always supplies an incumbent");
    let t0 = Instant::now();
    let RoundedSolution { matching, value } =
        exact_final_round(p, config, &best_g, best_obj, || rematch(&best_g));
    trace.add(Step::Match, t0.elapsed());
    trace.matcher = matcher_counters.snapshot();
    trace.stamp_peak_rss();
    AlignmentResult {
        matching,
        objective: value.total,
        weight: value.weight,
        overlap: value.overlap,
        best_iteration: best_iter,
        upper_bound: None,
        history,
        trace,
    }
}

/// The paper's closing step (§VII): with `final_exact_round` and a
/// heuristic matcher, round the best iterate `best_g` once more with
/// the exact matcher, and return that rounding when its objective is
/// at least the incumbent's `best_obj`. The exact candidate goes
/// first, so the configured matcher's rounding of `best_g`, the
/// `incumbent` matching, is computed (and evaluated) only when needed.
pub(crate) fn exact_final_round(
    p: &NetAlignProblem,
    config: &AlignConfig,
    best_g: &[f64],
    best_obj: f64,
    incumbent: impl FnOnce() -> Matching,
) -> RoundedSolution {
    if config.final_exact_round && config.matcher != MatcherKind::Exact {
        let exact = round_heuristic(p, best_g, config.alpha, config.beta, MatcherKind::Exact);
        if exact.value.total >= best_obj {
            return exact;
        }
    }
    let matching = incumbent();
    let value = evaluate_matching(p, &matching, config.alpha, config.beta);
    RoundedSolution { matching, value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netalign_graph::generators::{add_random_edges, identity_plus_noise_l, power_law_graph};
    use netalign_graph::{BipartiteGraph, Graph};

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

    #[test]
    fn recovers_identity_on_cycle() {
        let p = tiny_problem();
        let cfg = AlignConfig {
            iterations: 20,
            record_history: true,
            ..Default::default()
        };
        let r = belief_propagation(&p, &cfg);
        assert_eq!(r.matching.cardinality(), 4);
        assert_eq!(r.overlap, 4.0);
        for i in 0..4 {
            assert_eq!(r.matching.mate_of_left(i), Some(i));
        }
        assert_eq!(r.history.len(), 40); // 2 roundings per iteration
    }

    #[test]
    fn approximate_matching_matches_exact_on_tiny() {
        let p = tiny_problem();
        let exact = belief_propagation(
            &p,
            &AlignConfig {
                iterations: 15,
                ..Default::default()
            },
        );
        let approx = belief_propagation(
            &p,
            &AlignConfig {
                iterations: 15,
                matcher: MatcherKind::ParallelLocalDominant,
                ..Default::default()
            },
        );
        assert_eq!(exact.objective, approx.objective);
    }

    #[test]
    fn batching_does_not_change_the_result() {
        let p = tiny_problem();
        let base = AlignConfig {
            iterations: 12,
            ..Default::default()
        };
        let r1 = belief_propagation(&p, &base);
        let r10 = belief_propagation(&p, &AlignConfig { batch: 10, ..base });
        assert_eq!(r1.objective, r10.objective);
        assert_eq!(r1.matching, r10.matching);
    }

    #[test]
    fn power_law_instance_beats_naive_weight_matching() {
        let g = power_law_graph(60, 2.5, 12, 5);
        let a = add_random_edges(&g, 0.02, 6);
        let b = add_random_edges(&g, 0.02, 7);
        let l = identity_plus_noise_l(60, 60, 4.0 / 60.0, 1.0, 1.0, 8);
        let p = NetAlignProblem::new(a, b, l);
        let cfg = AlignConfig {
            iterations: 50,
            ..Default::default()
        };
        let r = belief_propagation(&p, &cfg);
        // Naive rounding of w alone:
        let naive = round_heuristic(&p, p.l.weights(), 1.0, 2.0, MatcherKind::Exact);
        assert!(
            r.objective >= naive.value.total,
            "BP ({}) should beat naive rounding ({})",
            r.objective,
            naive.value.total
        );
        assert!(r.overlap > 0.0);
    }

    #[test]
    fn history_is_recorded_per_rounding() {
        let p = tiny_problem();
        let cfg = AlignConfig {
            iterations: 6,
            batch: 4,
            record_history: true,
            ..Default::default()
        };
        let r = belief_propagation(&p, &cfg);
        assert_eq!(r.history.len(), 12);
        // iterations appear in non-decreasing order
        for w in r.history.windows(2) {
            assert!(w[0].iteration <= w[1].iteration);
        }
    }

    #[test]
    fn final_exact_round_never_hurts() {
        let p = tiny_problem();
        let base = AlignConfig {
            iterations: 10,
            matcher: MatcherKind::Greedy,
            ..Default::default()
        };
        let without = belief_propagation(&p, &base);
        let with = belief_propagation(
            &p,
            &AlignConfig {
                final_exact_round: true,
                ..base
            },
        );
        assert!(with.objective >= without.objective);
    }

    #[test]
    fn engine_loop_matches_wrapper() {
        let p = tiny_problem();
        let cfg = AlignConfig {
            iterations: 14,
            batch: 3,
            ..Default::default()
        };
        let via_wrapper = belief_propagation(&p, &cfg);
        let mut e = BpEngine::new(&p, &cfg);
        for _ in 0..cfg.iterations {
            e.step();
            if e.rounding_due() {
                e.round_pending();
            }
            e.end_iteration();
        }
        let manual = e.finish();
        assert_eq!(via_wrapper.objective, manual.objective);
        assert_eq!(via_wrapper.matching, manual.matching);
        assert_eq!(via_wrapper.best_iteration, manual.best_iteration);
    }

    /// Every matcher of the locally-dominant family — the preallocated
    /// greedy engine, the one-shot serial and one-side LD — reproduces
    /// the parallel-LD engine run bit for bit: same incumbent, same
    /// matching, same per-rounding history.
    #[test]
    fn locally_dominant_matchers_round_identically() {
        let g = power_law_graph(40, 2.5, 10, 25);
        let a = add_random_edges(&g, 0.02, 26);
        let b = add_random_edges(&g, 0.02, 27);
        let l = identity_plus_noise_l(40, 40, 4.0 / 40.0, 1.0, 1.0, 28);
        let p = NetAlignProblem::new(a, b, l);
        for batch in [1, 4] {
            let ld_cfg = AlignConfig {
                iterations: 15,
                batch,
                matcher: MatcherKind::ParallelLocalDominant,
                record_history: true,
                ..Default::default()
            };
            let ld = belief_propagation(&p, &ld_cfg);
            for kind in [
                MatcherKind::Greedy,
                MatcherKind::LocalDominant,
                MatcherKind::ParallelLocalDominantOneSide,
            ] {
                let cfg = AlignConfig {
                    matcher: kind,
                    ..ld_cfg
                };
                let r = belief_propagation(&p, &cfg);
                assert_eq!(
                    r.objective.to_bits(),
                    ld.objective.to_bits(),
                    "batch {batch}, {kind:?}"
                );
                assert_eq!(r.matching, ld.matching);
                assert_eq!(r.best_iteration, ld.best_iteration);
                assert_eq!(r.history.len(), ld.history.len());
                for (h, lh) in r.history.iter().zip(&ld.history) {
                    assert_eq!(h.iteration, lh.iteration);
                    assert_eq!(h.objective.to_bits(), lh.objective.to_bits());
                }
            }
        }
    }
}

/// The out-of-core engine's iterate against the in-core one's.
#[cfg(test)]
mod ooc_gate {
    use super::*;
    use crate::trace::faults;
    use netalign_graph::generators::{lcsh_like, LcshLikeConfig};

    const ITERATIONS: usize = 8;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Step `BpEngine::new` and `BpEngine::new_ooc` side by side at pools
    /// 1 and 2 and superblocks of 257 entries, a third of `S` and all of
    /// it, and compare `y`, `z` and the committed `S` stream with the
    /// in-core iterate after every iteration, bit for bit.
    #[test]
    fn ooc_iterates_match_in_core_bit_for_bit() {
        // The engines' step is a fault point that other tests arm.
        let _guard = faults::test_lock();
        let inst = lcsh_like(
            &LcshLikeConfig {
                va: 260,
                vb: 200,
                ea: 600,
                eb: 700,
                el: 2600,
                exponent: 2.0,
                edge_retention: 0.9,
                l_coverage: 0.9,
                confusion: 0.7,
                max_deg: 40,
            },
            11,
        );
        let (a, b, l) = (inst.a, inst.b, inst.l);
        let p = NetAlignProblem::new(a.clone(), b.clone(), l.clone());
        let dir = std::env::temp_dir().join(format!("netalign-ooc-gate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = SquaresMatrix::build_streaming(&a, &b, &l, &dir.join("s.nacs"), 1 << 16).unwrap();
        let nnz = s.nnz();
        let mapped = NetAlignProblem::from_parts(a, b, l, s);
        let cfg = AlignConfig {
            iterations: ITERATIONS,
            ..Default::default()
        };
        for threads in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for sb in [257, nnz / 3, nnz] {
                let opts = OocOptions::new(&dir).with_superblock_entries(sb);
                pool.install(|| {
                    let mut inc = BpEngine::new(&p, &cfg);
                    let mut ooc = BpEngine::new_ooc(&mapped, &cfg, &opts).unwrap();
                    for k in 1..=ITERATIONS {
                        for e in [&mut inc, &mut ooc] {
                            e.step();
                            e.discard_pending();
                        }
                        let at = format!("pool {threads}, superblock {sb}, iteration {k}");
                        let committed = ooc.ooc.as_ref().unwrap().committed_s();
                        assert!(bits(&ooc.y) == bits(&inc.y), "{at}: y differs");
                        assert!(bits(&ooc.z) == bits(&inc.z), "{at}: z differs");
                        assert!(bits(committed) == bits(&inc.sk), "{at}: S differs");
                    }
                });
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
