//! Belief propagation for network alignment (paper Listing 2 / §III.B,
//! parallelization per §IV.C).
//!
//! Per iteration `k`:
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
//!    and evaluate the objective — immediately for `batch = 1`, or
//!    deferred into batches of `r` iterations for `BP(batch = r)`.
//!    Either way the staged vectors are rounded concurrently, one
//!    contiguous run per rounding lane.
//!
//! Steps 1 and 2 are **fused** into one row-parallel sweep over the
//! pattern of `S`: each row of `F` is written and summed in the same
//! pass, with the transpose read through the value permutation — no
//! materialized `S⁽ᵏ⁻¹⁾ᵀ` buffer, one fewer traversal of `nnz` data.
//!
//! The rounding step is the only place the matching algorithm appears;
//! the iterates themselves are independent of it (paper §VII), which is
//! why approximate matching barely changes BP's solution quality.
//! Every rounding lane owns one [`MatcherEngine`] of
//! [`AlignConfig::matcher`]'s kind.
//!
//! All state lives in a [`BpEngine`]: buffers are allocated once in
//! [`BpEngine::new`] and the steady-state loop
//! ([`BpEngine::step`] / [`BpEngine::round_pending`]) is
//! allocation-free (paper §IV: "no dynamic memory allocations") —
//! pending rounding vectors are staged in pooled buffers that are
//! recycled after every flush.

pub mod othermax;

use crate::checkpoint::BpState;
use crate::config::AlignConfig;
use crate::objective::{evaluate_matching, evaluate_matching_with_scratch, ObjectiveValue};
use crate::oocore::{OocError, OocOptions, OocState, Superblock};
use crate::problem::NetAlignProblem;
use crate::result::{AlignmentResult, IterationRecord};
use crate::rounding::{round_heuristic, RoundedSolution};
use crate::rowspans::RowSpans;
use crate::squares::SquaresMatrix;
use crate::trace::{faults, MatcherCounters, RunTrace, Step};
use netalign_graph::mmap::Advice;
use netalign_graph::nacs::Section;
use netalign_graph::VertexId;
use netalign_matching::{max_weight_matching_traced, MatcherEngine, MatcherKind, Matching};
use othermax::{column_positions, othermaxcol_into, othermaxrow_into};
use rayon::par_uneven_chunks_mut;
use rayon::prelude::*;
use std::time::Instant;

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

/// True iff every element of `v` is finite — the guard-rail read pass,
/// parallel over the same chunk decomposition as the kernels.
pub(crate) fn all_finite(v: &[f64]) -> bool {
    v.par_iter()
        .with_min_len(CHUNK)
        .map(|&x| if x.is_finite() { 0u64 } else { 1 })
        .sum::<u64>()
        == 0
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
    // Iterate state: y/z messages over E_L, S^(k) values over the
    // pattern, plus the derived d, F and othermax scratch.
    y: Vec<f64>,
    z: Vec<f64>,
    y_prev: Vec<f64>,
    z_prev: Vec<f64>,
    d: Vec<f64>,
    sk: Vec<f64>,
    sk_prev: Vec<f64>,
    // Last verified-finite damped iterate (the rollback target of the
    // numeric guard); empty when guards are off. Zeros initially — the
    // zero iterate is BP's own starting point, so a first-iteration
    // rollback is well defined.
    safe_y: Vec<f64>,
    safe_z: Vec<f64>,
    safe_sk: Vec<f64>,
    fv: Vec<f64>,
    omr: Vec<f64>,
    omc: Vec<f64>,
    // Loop-invariant structure, computed once per run.
    col_pos: Vec<u32>,
    spans: RowSpans,
    row_stats: Vec<(f64, f64, usize)>,
    col_stats: Vec<(f64, f64, usize)>,
    // Rounding bookkeeping: staged vectors (and their iterations)
    // awaiting a batched rounding, plus the pool their buffers return
    // to afterward.
    pending_iter: Vec<usize>,
    pending_bufs: Vec<Vec<f64>>,
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
    best: Option<(f64, usize)>,
    best_g: Vec<f64>,
    // Trajectory recorder for incremental re-alignment: when attached,
    // every post-damping iterate and every rounded stage is captured so
    // a later structural delta can be replayed sparsely (crate::delta).
    recorder: Option<crate::delta::TrajectoryRecorder>,
    // Out-of-core mode (crate::oocore): the nnz-sized iterate streams
    // live in spilled scratch files and `sk`/`sk_prev`/`fv`/`safe_sk`
    // above stay empty. `None` = the ordinary in-core engine.
    ooc: Option<OocState>,
    // Observability.
    trace: RunTrace,
    counters: MatcherCounters,
    history: Vec<IterationRecord>,
}

/// One rounding lane of [`BpEngine`]: a matcher engine, the all-false
/// scratch of its allocation-free objective evaluation, and the values
/// of the vectors it rounded in the current flush, in staging order.
struct RoundingLane {
    engine: MatcherEngine,
    marks: Vec<bool>,
    values: Vec<ObjectiveValue>,
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
        let m = self.engine.run(&p.l, g, counters);
        let value =
            evaluate_matching_with_scratch(p, m, config.alpha, config.beta, &mut self.marks);
        self.values.push(value);
        (m, value)
    }
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
        let guards = config.numeric_guards;
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
            y_prev: vec![0.0; m],
            z_prev: vec![0.0; m],
            d: vec![0.0; m],
            sk: vec![0.0; nnz],
            sk_prev: vec![0.0; nnz],
            safe_y: vec![0.0; if guards { m } else { 0 }],
            safe_z: vec![0.0; if guards { m } else { 0 }],
            safe_sk: vec![0.0; if guards { nnz } else { 0 }],
            fv: vec![0.0; nnz],
            omr: vec![0.0; m],
            omc: vec![0.0; m],
            col_pos: column_positions(&p.l),
            spans: RowSpans::from_rowptr(p.s.rowptr()),
            row_stats: vec![(0.0, 0.0, 0); p.l.num_left()],
            col_stats: vec![(0.0, 0.0, 0); p.l.num_right()],
            pending_iter: Vec::with_capacity(batch_cap),
            pending_bufs: Vec::with_capacity(batch_cap),
            buf_pool: Vec::with_capacity(batch_cap),
            lanes: (0..rayon::current_num_threads().min(2 * config.batch.max(1)))
                .map(|_| RoundingLane {
                    engine: MatcherEngine::new(&p.l, config.matcher),
                    marks: vec![false; m],
                    values: Vec::with_capacity(batch_cap),
                })
                .collect(),
            batch_override: None,
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

    /// Run one BP iteration (Listing 2 steps 1–5) and stage the new
    /// `y`/`z` iterates for rounding. Allocation-free after the first
    /// `2·batch` iterations warmed up the staging pool.
    pub fn step(&mut self) {
        if self.ooc.is_some() {
            // Take the state out so the sweep can borrow it alongside
            // the engine's own buffers; reinstalled unconditionally.
            let mut ooc = self.ooc.take().expect("checked is_some");
            self.step_ooc(&mut ooc);
            self.ooc = Some(ooc);
            return;
        }
        self.k += 1;
        let k = self.k;
        if faults::active() {
            faults::panic_point("bp.step", k as u64);
        }
        let p = self.p;
        let (alpha, beta) = (self.config.alpha, self.config.beta);
        let gk = self.config.damping.fresh_weight(self.gamma, k);
        let w = p.l.weights();
        let rowptr = p.s.rowptr();
        let m = p.l.num_edges();
        let nnz = p.s.nnz();

        // Steps 1+2 fused: F = bound_0^beta(beta*S + S^(k-1)^T) and
        // d = alpha*w + F e in one row-parallel sweep.
        let t0 = Instant::now();
        fused_f_d(
            &p.s,
            &self.spans,
            &self.sk_prev,
            w,
            alpha,
            beta,
            &mut self.fv,
            &mut self.d,
        );
        self.trace.add(Step::ComputeF, t0.elapsed());

        // Step 3: othermax sweeps (use previous iterates). The two
        // sweeps are independent, so they run as parallel tasks — the
        // reorganization the paper's §IX suggests as future work.
        let t0 = Instant::now();
        rayon::join(
            || {
                othermaxcol_into(
                    &p.l,
                    &self.z_prev,
                    &self.col_pos,
                    &mut self.omc,
                    &mut self.col_stats,
                    CHUNK,
                )
            },
            || {
                othermaxrow_into(
                    &p.l,
                    &self.y_prev,
                    &mut self.omr,
                    &mut self.row_stats,
                    CHUNK,
                )
            },
        );
        self.y
            .par_iter_mut()
            .with_min_len(CHUNK)
            .zip(self.d.par_iter().with_min_len(CHUNK))
            .zip(self.omc.par_iter().with_min_len(CHUNK))
            .for_each(|((yi, &di), &oi)| *yi = di - oi);
        self.z
            .par_iter_mut()
            .with_min_len(CHUNK)
            .zip(self.d.par_iter().with_min_len(CHUNK))
            .zip(self.omr.par_iter().with_min_len(CHUNK))
            .for_each(|((zi, &di), &oi)| *zi = di - oi);
        self.trace.add(Step::OtherMax, t0.elapsed());

        // Step 4: S^(k) = diag(y + z - d) S - F, row-parallel over the
        // precomputed span decomposition of the fixed pattern.
        let t0 = Instant::now();
        sk_rowwise_update(
            rowptr,
            &self.spans,
            &mut self.sk,
            &self.y,
            &self.z,
            &self.d,
            &self.fv,
        );
        self.trace.add(Step::UpdateS, t0.elapsed());

        // Step 5: damping toward the previous iterate.
        let t0 = Instant::now();
        damp(&mut self.y, &mut self.y_prev, gk);
        damp(&mut self.z, &mut self.z_prev, gk);
        damp(&mut self.sk, &mut self.sk_prev, gk);
        self.trace.add(Step::Damping, t0.elapsed());

        if faults::active() && faults::nan_due("bp.damping", k as u64) {
            self.y[0] = f64::NAN;
        }

        // Guard rail: verify the damped iterate is finite before it can
        // poison the `γᵏ` interpolation of every later iteration. On
        // failure, roll back to the last finite iterate and halve the
        // damping base.
        if self.config.numeric_guards {
            let t0 = Instant::now();
            let finite = all_finite(&self.y) && all_finite(&self.z) && all_finite(&self.sk);
            if finite {
                self.safe_y.copy_from_slice(&self.y);
                self.safe_z.copy_from_slice(&self.z);
                self.safe_sk.copy_from_slice(&self.sk);
                self.trace.add(Step::Guard, t0.elapsed());
            } else {
                self.y.copy_from_slice(&self.safe_y);
                self.y_prev.copy_from_slice(&self.safe_y);
                self.z.copy_from_slice(&self.safe_z);
                self.z_prev.copy_from_slice(&self.safe_z);
                self.sk.copy_from_slice(&self.safe_sk);
                self.sk_prev.copy_from_slice(&self.safe_sk);
                self.gamma *= 0.5;
                self.trace.algo.numeric_recoveries += 1;
                self.trace.add(Step::Guard, t0.elapsed());
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

    /// Out-of-core iteration: same Listing 2 steps, but every pass
    /// over the pattern of `S` is a *sequential* superblock sweep over
    /// spilled streams (see [`crate::oocore`] for the reformulation
    /// and the bit-identity argument), releasing pages behind it.
    fn step_ooc(&mut self, ooc: &mut OocState) {
        self.k += 1;
        let k = self.k;
        if faults::active() {
            faults::panic_point("bp.step", k as u64);
        }
        let p = self.p;
        let (alpha, beta) = (self.config.alpha, self.config.beta);
        let gk = self.config.damping.fresh_weight(self.gamma, k);
        let w = p.l.weights();
        let rowptr = p.s.rowptr();
        let colidx = p.s.colidx();
        let m = p.l.num_edges();
        let nnz = p.s.nnz();

        // Steps 1+2 fused: d from the transpose companion, read in
        // storage order. F is recomputed in the update sweep instead
        // of stored — same bits, one fewer nnz stream resident.
        let t0 = Instant::now();
        for sb in &ooc.superblocks {
            ooc.skt_prev.advise_sequential(sb.entries.clone());
            ooc_fused_d(
                rowptr,
                sb,
                ooc.skt_prev.as_slice(),
                w,
                alpha,
                beta,
                &mut self.d[sb.rows.clone()],
            );
            ooc.skt_prev.release(sb.entries.clone());
        }
        self.trace.add(Step::ComputeF, t0.elapsed());

        // Step 3: identical to the in-core engine — only m-sized state.
        let t0 = Instant::now();
        rayon::join(
            || {
                othermaxcol_into(
                    &p.l,
                    &self.z_prev,
                    &self.col_pos,
                    &mut self.omc,
                    &mut self.col_stats,
                    CHUNK,
                )
            },
            || {
                othermaxrow_into(
                    &p.l,
                    &self.y_prev,
                    &mut self.omr,
                    &mut self.row_stats,
                    CHUNK,
                )
            },
        );
        self.y
            .par_iter_mut()
            .with_min_len(CHUNK)
            .zip(self.d.par_iter().with_min_len(CHUNK))
            .zip(self.omc.par_iter().with_min_len(CHUNK))
            .for_each(|((yi, &di), &oi)| *yi = di - oi);
        self.z
            .par_iter_mut()
            .with_min_len(CHUNK)
            .zip(self.d.par_iter().with_min_len(CHUNK))
            .zip(self.omr.par_iter().with_min_len(CHUNK))
            .for_each(|((zi, &di), &oi)| *zi = di - oi);
        self.trace.add(Step::OtherMax, t0.elapsed());

        // Steps 4+5 (S part), fused with damping: precompute the row
        // scale from the *undamped* y/z (as in-core step 4 does), then
        // advance sk and its transpose companion in one sequential
        // sweep, counting non-finite values inline for the guard.
        let t0 = Instant::now();
        ooc.scale
            .par_iter_mut()
            .with_min_len(CHUNK)
            .zip(self.y.par_iter().with_min_len(CHUNK))
            .zip(self.z.par_iter().with_min_len(CHUNK))
            .zip(self.d.par_iter().with_min_len(CHUNK))
            .for_each(|(((s, &yi), &zi), &di)| *s = yi + zi - di);
        let mut nonfinite = 0u64;
        for sb in &ooc.superblocks {
            ooc.sk_prev.advise_sequential(sb.entries.clone());
            ooc.skt_prev.advise_sequential(sb.entries.clone());
            nonfinite += ooc_sk_update(
                rowptr,
                colidx,
                sb,
                ooc.sk_prev.as_slice(),
                ooc.skt_prev.as_slice(),
                &ooc.scale,
                beta,
                gk,
                &mut ooc.sk.as_mut_slice()[sb.entries.clone()],
                &mut ooc.skt.as_mut_slice()[sb.entries.clone()],
            );
            ooc.sk.release(sb.entries.clone());
            ooc.skt.release(sb.entries.clone());
            ooc.sk_prev.release(sb.entries.clone());
            ooc.skt_prev.release(sb.entries.clone());
        }
        self.trace.add(Step::UpdateS, t0.elapsed());

        // Step 5 (y/z): the sk damping already happened in the sweep.
        let t0 = Instant::now();
        damp(&mut self.y, &mut self.y_prev, gk);
        damp(&mut self.z, &mut self.z_prev, gk);
        self.trace.add(Step::Damping, t0.elapsed());

        if faults::active() && faults::nan_due("bp.damping", k as u64) {
            self.y[0] = f64::NAN;
        }

        // Guard rail: same decision as in-core (the inline count sees
        // bit-identical sk values). The ping/pong swap replaces the
        // `safe_sk` copy: the prev streams are only ever overwritten
        // *after* an iterate verified finite, so on rollback they
        // already hold the in-core rollback target.
        if self.config.numeric_guards {
            let t0 = Instant::now();
            let finite = all_finite(&self.y) && all_finite(&self.z) && nonfinite == 0;
            if finite {
                self.safe_y.copy_from_slice(&self.y);
                self.safe_z.copy_from_slice(&self.z);
                ooc.advance();
                self.trace.add(Step::Guard, t0.elapsed());
            } else {
                self.y.copy_from_slice(&self.safe_y);
                self.y_prev.copy_from_slice(&self.safe_y);
                self.z.copy_from_slice(&self.safe_z);
                self.z_prev.copy_from_slice(&self.safe_z);
                self.gamma *= 0.5;
                self.trace.algo.numeric_recoveries += 1;
                self.trace.add(Step::Guard, t0.elapsed());
                return;
            }
        } else {
            ooc.advance();
        }

        self.trace.algo.messages_updated += (2 * m + nnz) as u64;

        let mut buf = self.buf_pool.pop().unwrap_or_else(|| vec![0.0; m]);
        buf.copy_from_slice(&self.y);
        self.pending_bufs.push(buf);
        self.pending_iter.push(k);
        let mut buf = self.buf_pool.pop().unwrap_or_else(|| vec![0.0; m]);
        buf.copy_from_slice(&self.z);
        self.pending_bufs.push(buf);
        self.pending_iter.push(k);
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
    pub fn force_cheap_rounding(&mut self) {
        for lane in &mut self.lanes {
            if lane.engine.kind() != MatcherKind::Greedy {
                lane.engine = MatcherEngine::new(&self.p.l, MatcherKind::Greedy);
            }
        }
    }

    /// Drop every staged-but-unrounded iterate, recycling the buffers.
    /// Used by the harness at a deadline stop: the incumbent must be
    /// assembled *now*, and rounding the backlog would spend time the
    /// budget no longer has.
    pub fn discard_pending(&mut self) {
        self.pending_iter.clear();
        self.buf_pool.append(&mut self.pending_bufs);
    }

    /// Round every staged iterate (`BP(batch = r)`), update the
    /// incumbent in staging order, and recycle the staging buffers.
    /// The staged vectors are independent tasks, as in the paper: the
    /// lanes round one contiguous run each, concurrently, and a
    /// parallel matcher nests its own parallelism on its lane's share
    /// of the pool. Zero steady-state allocation with the preallocated
    /// matchers. With a trajectory recorder attached, which keeps every
    /// stage's matching, the first lane rounds the whole flush.
    pub fn round_pending(&mut self) {
        if self.pending_iter.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let (config, record_history) = (self.config, self.config.record_history);
        let Self {
            p,
            pending_iter,
            pending_bufs,
            buf_pool,
            lanes,
            counters,
            history,
            best,
            best_g,
            recorder,
            trace,
            ..
        } = self;
        trace.algo.rounding_invocations += 1;
        trace
            .algo
            .rounding_batch_sizes
            .push(pending_bufs.len() as u64);
        lanes.iter_mut().for_each(|lane| lane.values.clear());
        if let Some(rec) = recorder.as_mut() {
            for (idx, (&iter_k, g)) in pending_iter.iter().zip(pending_bufs.iter()).enumerate() {
                let (m, value) = lanes[0].round(p, config, g, counters);
                rec.record_stage(iter_k, idx % 2, m, value);
            }
        } else {
            let (per_lane, staged) = (pending_bufs.len().div_ceil(lanes.len()), &*pending_bufs);
            // The lanes split the pool: each lane's matcher runs its
            // nested parallel regions on its share of the threads, so
            // concurrent lanes do not recruit workers beyond the pool.
            // (A vendored-rayon pool is only a thread-count scope, so
            // building one allocates nothing.)
            let share = rayon::ThreadPoolBuilder::new()
                .num_threads((rayon::current_num_threads() / lanes.len()).max(1))
                .build()
                .expect("the vendored thread pool builder is infallible");
            lanes.par_iter_mut().enumerate().for_each(|(i, lane)| {
                share.install(|| {
                    for g in staged.iter().skip(i * per_lane).take(per_lane) {
                        lane.round(p, config, g, counters);
                    }
                })
            });
        }
        let values = lanes.iter().flat_map(|lane| &lane.values);
        for ((&iter_k, g), v) in pending_iter.iter().zip(pending_bufs.iter()).zip(values) {
            if record_history {
                history.push(IterationRecord {
                    iteration: iter_k,
                    objective: v.total,
                    weight: v.weight,
                    overlap: v.overlap,
                    upper_bound: None,
                });
            }
            if best.is_none_or(|(b, _)| v.total > b) {
                *best = Some((v.total, iter_k));
                best_g.copy_from_slice(g);
                trace.algo.best_improvements += 1;
            }
        }
        pending_iter.clear();
        buf_pool.append(pending_bufs);
        trace.add(Step::Match, t0.elapsed());
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

    /// Attach a trajectory recorder (incremental re-alignment support).
    pub fn set_recorder(&mut self, recorder: crate::delta::TrajectoryRecorder) {
        assert!(
            self.ooc.is_none(),
            "trajectory recording is not supported in out-of-core mode"
        );
        self.recorder = Some(recorder);
    }

    /// Detach and return the recorder, if one was attached.
    pub fn take_recorder(&mut self) -> Option<crate::delta::TrajectoryRecorder> {
        self.recorder.take()
    }

    /// Snapshot the engine for [`crate::checkpoint`]. Taken at an
    /// iteration boundary, the damped previous iterates equal the
    /// current ones, so only the current iterate is captured.
    pub fn checkpoint_state(&self) -> BpState {
        assert!(
            self.ooc.is_none(),
            "checkpointing is not supported in out-of-core mode"
        );
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
        self.y_prev.copy_from_slice(&state.y);
        self.z.copy_from_slice(&state.z);
        self.z_prev.copy_from_slice(&state.z);
        self.sk.copy_from_slice(&state.sk);
        self.sk_prev.copy_from_slice(&state.sk);
        if self.config.numeric_guards {
            self.safe_y.copy_from_slice(&state.y);
            self.safe_z.copy_from_slice(&state.z);
            self.safe_sk.copy_from_slice(&state.sk);
        }
        self.pending_iter = state.pending_iter;
        self.pending_bufs = state.pending_bufs;
        self.best = state.best;
        self.best_g.copy_from_slice(&state.best_g);
        self.history = state.history;
        self.trace.algo = state.algo;
        self.counters.preload(&state.matcher);
    }

    /// Flush any remaining staged iterates and assemble the result,
    /// leaving the engine hollow but alive so owned components (the
    /// trajectory recorder) can still be taken afterwards.
    pub fn finish_in_place(&mut self) -> AlignmentResult {
        self.round_pending();
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
        finalize(self.p, self.config, best, history, trace, &self.counters)
    }

    /// Flush any remaining staged iterates and assemble the result.
    pub fn finish(mut self) -> AlignmentResult {
        self.finish_in_place()
    }
}

/// Fused Listing 2 steps 1+2: one row-parallel sweep over the fixed
/// pattern of `S` computes `F[e, :] = bound₀^β(β + S⁽ᵏ⁻¹⁾ᵀ[e, :])`
/// (the transpose read in place through the value permutation — no
/// materialized `S⁽ᵏ⁻¹⁾ᵀ`) and its row sum `d[e] = α·w[e] + Σ F[e, :]`
/// in the same pass.
#[allow(clippy::too_many_arguments)]
fn fused_f_d(
    s: &SquaresMatrix,
    spans: &RowSpans,
    sk_prev: &[f64],
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
                let mut acc = 0.0;
                for idx in rowptr[e]..rowptr[e + 1] {
                    let f = (beta + sk_prev[perm[idx]]).clamp(0.0, beta);
                    fv_chunk[idx - base] = f;
                    acc += f;
                }
                *de = alpha * w[e] + acc;
            }
        });
}

/// `S^(k)[e, :] = (y[e] + z[e] - d[e]) - F[e, :]` over the fixed
/// pattern, row-parallel through the precomputed span decomposition
/// (no per-call slice vector).
fn sk_rowwise_update(
    rowptr: &[usize],
    spans: &RowSpans,
    sk: &mut [f64],
    y: &[f64],
    z: &[f64],
    d: &[f64],
    fv: &[f64],
) {
    let row_bounds = spans.row_bounds();
    let entry_bounds = spans.entry_bounds();
    par_uneven_chunks_mut(sk, entry_bounds)
        .enumerate()
        .for_each(|(g, sk_chunk)| {
            let base = entry_bounds[g];
            for e in row_bounds[g]..row_bounds[g + 1] {
                let scale = y[e] + z[e] - d[e];
                for idx in rowptr[e]..rowptr[e + 1] {
                    sk_chunk[idx - base] = scale - fv[idx];
                }
            }
        });
}

/// Out-of-core steps 1+2 over one superblock: `d[r] = α·w[r] +
/// Σ bound₀^β(β + skt_prev[idx])`, the transpose read through the
/// companion stream in storage order — no permutation gather, no
/// stored `F`. Accumulation order matches [`fused_f_d`] exactly.
fn ooc_fused_d(
    rowptr: &[usize],
    sb: &Superblock,
    skt_prev: &[f64],
    w: &[f64],
    alpha: f64,
    beta: f64,
    d: &mut [f64],
) {
    let rb = &sb.rel_row_bounds;
    let row0 = sb.rows.start;
    par_uneven_chunks_mut(d, rb)
        .enumerate()
        .for_each(|(g, d_chunk)| {
            let rows = (row0 + rb[g])..(row0 + rb[g + 1]);
            for (de, e) in d_chunk.iter_mut().zip(rows) {
                let mut acc = 0.0;
                for idx in rowptr[e]..rowptr[e + 1] {
                    let f = (beta + skt_prev[idx]).clamp(0.0, beta);
                    acc += f;
                }
                *de = alpha * w[e] + acc;
            }
        });
}

/// Out-of-core steps 4+5 (S part) over one superblock, fused with
/// damping: both the new `sk` and its transpose companion `skt` are
/// produced in storage order —
/// `sk[idx] = γ·(scale[row] − f) + (1−γ)·sk_prev[idx]` and
/// `skt[idx] = γ·(scale[colidx[idx]] − fᵗ) + (1−γ)·skt_prev[idx]`
/// with `f`/`fᵗ` the bound of the respective *other* stream (the
/// involution `perm ∘ perm = id` makes both expressions exact
/// transposes of each other). Only `scale` (m-sized, resident) is
/// accessed randomly. Returns the count of non-finite new `sk`
/// values for the numeric guard.
#[allow(clippy::too_many_arguments)]
fn ooc_sk_update(
    rowptr: &[usize],
    colidx: &[VertexId],
    sb: &Superblock,
    sk_prev: &[f64],
    skt_prev: &[f64],
    scale: &[f64],
    beta: f64,
    gk: f64,
    sk: &mut [f64],
    skt: &mut [f64],
) -> u64 {
    let rb = &sb.rel_row_bounds;
    let eb = &sb.rel_entry_bounds;
    let row0 = sb.rows.start;
    let ent0 = sb.entries.start;
    par_uneven_chunks_mut(sk, eb)
        .zip(par_uneven_chunks_mut(skt, eb))
        .enumerate()
        .map(|(g, (sk_chunk, skt_chunk))| {
            let base = ent0 + eb[g];
            let mut bad = 0u64;
            for e in (row0 + rb[g])..(row0 + rb[g + 1]) {
                let sc = scale[e];
                for idx in rowptr[e]..rowptr[e + 1] {
                    let f = (beta + skt_prev[idx]).clamp(0.0, beta);
                    let v = gk * (sc - f) + (1.0 - gk) * sk_prev[idx];
                    sk_chunk[idx - base] = v;
                    bad += u64::from(!v.is_finite());
                    let ft = (beta + sk_prev[idx]).clamp(0.0, beta);
                    skt_chunk[idx - base] =
                        gk * (scale[colidx[idx] as usize] - ft) + (1.0 - gk) * skt_prev[idx];
                }
            }
            bad
        })
        .sum()
}

/// `cur ← gk·cur + (1−gk)·prev`, then `prev ← cur`.
fn damp(cur: &mut [f64], prev: &mut [f64], gk: f64) {
    cur.par_iter_mut()
        .with_min_len(CHUNK)
        .zip(prev.par_iter_mut().with_min_len(CHUNK))
        .for_each(|(c, p)| {
            *c = gk * *c + (1.0 - gk) * *p;
            *p = *c;
        });
}

/// Shared tail of both aligners: round the best heuristic — with the
/// exact matcher when the final exact round keeps it, otherwise with
/// the configured matcher — then assemble the result.
pub(crate) fn finalize(
    p: &NetAlignProblem,
    config: &AlignConfig,
    best: Option<(f64, Vec<f64>, usize)>,
    history: Vec<IterationRecord>,
    mut trace: RunTrace,
    matcher_counters: &MatcherCounters,
) -> AlignmentResult {
    // Invariant, not a user-reachable panic: both engines' `finish`
    // methods substitute a fallback incumbent when no rounding ever
    // succeeded, so `best` is always `Some` by the time it gets here.
    let (best_obj, best_g, best_iter) = best.expect("finish() always supplies an incumbent");
    let t0 = Instant::now();
    let RoundedSolution { matching, value } =
        exact_final_round(p, config, &best_g, best_obj, || {
            max_weight_matching_traced(&p.l, &best_g, config.matcher, matcher_counters)
        });
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
