//! Klau's matching relaxation (MR) for network alignment
//! (paper Listing 1 / §III.A, parallelization per §IV.B).
//!
//! Per iteration `k`:
//!
//! 1. **row match** — for every row of `S`, an exact tiny matching of
//!    the row of `(β/2)·S + U⁽ᵏ⁾ − U⁽ᵏ⁾ᵀ` gives `d` and the selection
//!    indicator `S_L`;
//! 2. **daxpy** — `w̄⁽ᵏ⁾ = α·w + d`;
//! 3. **match** — `x⁽ᵏ⁾ = bipartite_match(w̄⁽ᵏ⁾)` (this is where the
//!    exact/approximate substitution happens);
//! 4. **objective** — lower bound `α·x ᵀw + (β/2)xᵀSx` and upper bound
//!    `w̄⁽ᵏ⁾ᵀx⁽ᵏ⁾`;
//! 5. **update U** — subgradient step
//!    `F = U⁽ᵏ⁻¹⁾ − γ·X·triu(S_L) + γ·tril(S_L)ᵀ·X`, clamped to
//!    `[−β/2, β/2]` (the bound used by the authors' released
//!    `netalignmr` code; the paper writes `bound F` without the
//!    interval). When the upper bound hasn't improved for `mstep`
//!    iterations, `γ` halves.
//!
//! Unlike BP, the matching *drives* the multiplier update, which is why
//! MR is sensitive to approximate rounding (paper §VII).
//!
//! All state lives in an [`MrEngine`], allocated once in
//! [`MrEngine::new`]. The numeric kernels of each iteration (row
//! matchings, daxpy, multiplier update) are allocation-free in the
//! steady state, and so is the full bipartite matching of step 3 with
//! the preallocated matchers (parallel LD, greedy) of
//! [`MatcherEngine`].

pub mod rowmatch;

use crate::bp::{finalize, install_fault_hook, CHUNK};
use crate::checkpoint::MrState;
use crate::config::AlignConfig;
use crate::objective::{evaluate_matching_with_scratch, EvalScratch};
use crate::problem::NetAlignProblem;
use crate::result::{AlignmentResult, IterationRecord};
use crate::rowspans::RowSpans;
use crate::trace::{faults, MatcherCounters, RunTrace, Step};
use netalign_matching::{MatcherEngine, MatcherKind};
use rayon::par_uneven_chunks_mut;
use rayon::prelude::*;
use rowmatch::{solve_row_matchings_into, RowWorkspace};
use std::time::Instant;

/// True iff every element of `v` is finite — the guard-rail read pass,
/// parallel over the same chunk decomposition as the kernels.
fn all_finite(v: &[f64]) -> bool {
    v.par_iter()
        .with_min_len(CHUNK)
        .map(|&x| if x.is_finite() { 0u64 } else { 1 })
        .sum::<u64>()
        == 0
}

/// Run Klau's matching relaxation on `problem` with `config`.
pub fn matching_relaxation(problem: &NetAlignProblem, config: &AlignConfig) -> AlignmentResult {
    let mut engine = MrEngine::new(problem, config);
    for _ in 0..config.iterations {
        engine.step();
        engine.end_iteration();
    }
    engine.finish()
}

/// The resident state of one MR run: multipliers, iteration scratch
/// and the loop-invariant row decomposition, allocated once up front.
pub struct MrEngine<'a> {
    p: &'a NetAlignProblem,
    config: &'a AlignConfig,
    /// Iterations completed so far (`step` increments first).
    k: usize,
    gamma: f64,
    // Lagrange multipliers U over the pattern of S (upper triangle
    // only; the lower triangle enters through −Uᵀ), plus the previous
    // iterate the subgradient step reads.
    u_vals: Vec<f64>,
    u_old: Vec<f64>,
    // Last verified-finite multipliers (the rollback target of the
    // numeric guard); empty when guards are off. Zeros initially — the
    // zero multipliers are MR's own starting point.
    safe_u: Vec<f64>,
    // Per-iteration scratch.
    row_w: Vec<f64>,
    sl_vals: Vec<f64>,
    d: Vec<f64>,
    wbar: Vec<f64>,
    x: Vec<f64>,
    g2: Vec<f64>,
    // Loop-invariant structure.
    spans: RowSpans,
    workspaces: Vec<RowWorkspace>,
    // One matcher engine rounds w̄ every iteration, plus the
    // enriched-rounding weights when that option is on. `eval` is the
    // scratch of the allocation-free objective evaluation.
    rounding: MatcherEngine,
    eval: EvalScratch,
    // Incumbent and step-size control.
    best: Option<(f64, usize)>,
    best_g: Vec<f64>,
    best_upper: f64,
    stall: usize,
    // Observability.
    trace: RunTrace,
    counters: MatcherCounters,
    history: Vec<IterationRecord>,
}

impl<'a> MrEngine<'a> {
    /// Allocate all run state for `problem` under `config`.
    pub fn new(p: &'a NetAlignProblem, config: &'a AlignConfig) -> Self {
        config.validate();
        install_fault_hook();
        let m = p.l.num_edges();
        let nnz = p.s.nnz();
        let mut trace = RunTrace::new();
        trace.reserve_iterations(config.iterations);
        let spans = RowSpans::from_rowptr(p.s.rowptr());
        let workspaces = vec![RowWorkspace::default(); spans.num_groups()];
        MrEngine {
            p,
            config,
            k: 0,
            gamma: config.gamma,
            u_vals: vec![0.0; nnz],
            u_old: vec![0.0; nnz],
            safe_u: vec![0.0; if config.numeric_guards { nnz } else { 0 }],
            row_w: vec![0.0; nnz],
            sl_vals: vec![0.0; nnz],
            d: vec![0.0; m],
            wbar: vec![0.0; m],
            x: vec![0.0; m],
            g2: vec![0.0; if config.enriched_rounding { m } else { 0 }],
            spans,
            workspaces,
            rounding: MatcherEngine::new(&p.l, config.matcher),
            eval: EvalScratch::new(&p.l),
            best: None,
            best_g: vec![0.0; m],
            best_upper: f64::INFINITY,
            stall: 0,
            trace,
            counters: MatcherCounters::new(config.trace_matcher),
            history: Vec::with_capacity(if config.record_history {
                config.iterations
            } else {
                0
            }),
        }
    }

    /// Iterations completed so far.
    pub fn iteration(&self) -> usize {
        self.k
    }

    /// Run one MR iteration (Listing 1 steps 1–5).
    pub fn step(&mut self) {
        self.k += 1;
        let k = self.k;
        if faults::active() {
            faults::panic_point("mr.step", k as u64);
        }
        let p = self.p;
        let (alpha, beta) = (self.config.alpha, self.config.beta);
        let gamma = self.gamma;
        let m = p.l.num_edges();
        let nnz = p.s.nnz();
        let perm = p.s.transpose_perm_slice();

        // Step 1: row matchings on (β/2)S + U − Uᵀ.
        let t0 = Instant::now();
        {
            let u_vals = &self.u_vals;
            self.row_w
                .par_iter_mut()
                .enumerate()
                .with_min_len(CHUNK)
                .for_each(|(idx, rw)| {
                    *rw = beta / 2.0 + u_vals[idx] - u_vals[perm[idx]];
                });
        }
        solve_row_matchings_into(
            p,
            &self.row_w,
            &self.spans,
            &mut self.d,
            &mut self.sl_vals,
            &mut self.workspaces,
        );
        self.trace.add(Step::RowMatch, t0.elapsed());

        // Step 2: w̄ = αw + d.
        let t0 = Instant::now();
        self.wbar
            .par_iter_mut()
            .with_min_len(CHUNK)
            .zip(p.l.weights().par_iter().with_min_len(CHUNK))
            .zip(self.d.par_iter().with_min_len(CHUNK))
            .for_each(|((wb, &wi), &di)| *wb = alpha * wi + di);
        self.trace.add(Step::Daxpy, t0.elapsed());

        if faults::active() && faults::nan_due("mr.daxpy", k as u64) {
            self.wbar[0] = f64::NAN;
        }

        // Guard rail: a non-finite w̄ means the multipliers (or the row
        // matchings they drive) went non-finite — nothing downstream of
        // here is usable. Roll the multipliers back to the last finite
        // iterate and halve the step, the same recovery the paper's
        // `mstep` machinery applies on a stalled bound.
        if self.config.numeric_guards {
            let t0 = Instant::now();
            let finite = all_finite(&self.wbar);
            self.trace.add(Step::Guard, t0.elapsed());
            if !finite {
                self.recover_from_nonfinite();
                return;
            }
        }

        // Step 3: the full matching, exact or approximate.
        let t0 = Instant::now();
        let matching = self.rounding.run(&p.l, &self.wbar, &self.counters);
        self.trace.add(Step::Match, t0.elapsed());
        self.trace.algo.rounding_invocations += 1;
        self.trace.algo.rounding_batch_sizes.push(1);

        // Step 4: bounds. The scratch evaluation is bit-identical to
        // the allocating one and keeps the loop allocation-free.
        let t0 = Instant::now();
        let mut value = evaluate_matching_with_scratch(p, matching, alpha, beta, &mut self.eval);
        matching.indicator_into(&p.l, &mut self.x);
        // Serial dot product: a rayon float reduction's tree shape (and
        // hence its roundoff) depends on work stealing; this sum must be
        // deterministic so that runs are reproducible across pool sizes.
        let upper: f64 = self
            .x
            .iter()
            .zip(self.wbar.iter())
            .map(|(&xi, &wi)| xi * wi)
            .sum();
        self.trace.add(Step::ObjectiveEval, t0.elapsed());

        // Optional enriched rounding (netalignmr's rtype=2): re-match
        // the overlap-aware weights αw + β·S·x and keep the better
        // primal. Counts toward the Match step.
        let mut use_enriched = false;
        if self.config.enriched_rounding {
            let t0 = Instant::now();
            let rowptr = p.s.rowptr();
            let colidx = p.s.colidx();
            let x = &self.x;
            self.g2
                .par_iter_mut()
                .enumerate()
                .with_min_len(CHUNK)
                .for_each(|(e, ge)| {
                    let mut acc = 0.0;
                    for idx in rowptr[e]..rowptr[e + 1] {
                        acc += x[colidx[idx] as usize];
                    }
                    *ge = alpha * p.l.weights()[e] + beta * acc;
                });
            let m2 = self.rounding.run(&p.l, &self.g2, &self.counters);
            let v2 = evaluate_matching_with_scratch(p, m2, alpha, beta, &mut self.eval);
            if v2.total > value.total {
                value = v2;
                use_enriched = true;
            }
            self.trace.add(Step::Match, t0.elapsed());
            self.trace.algo.rounding_invocations += 1;
            self.trace.algo.rounding_batch_sizes.push(1);
        }

        if self.config.record_history {
            self.history.push(IterationRecord {
                iteration: k,
                objective: value.total,
                weight: value.weight,
                overlap: value.overlap,
                upper_bound: Some(upper),
            });
        }
        if self.best.is_none_or(|(b, _)| value.total > b) {
            self.best = Some((value.total, k));
            self.best_g
                .copy_from_slice(if use_enriched { &self.g2 } else { &self.wbar });
            self.trace.algo.best_improvements += 1;
        }

        // Step size control: halve γ when the upper bound stalls.
        if upper < self.best_upper - 1e-12 {
            self.best_upper = upper;
            self.stall = 0;
        } else {
            self.stall += 1;
            if self.stall >= self.config.mstep {
                self.gamma /= 2.0;
                self.stall = 0;
            }
        }

        // Step 5: F = U − γ·X·triu(S_L) + γ·tril(S_L)ᵀ·X, clamped.
        let t0 = Instant::now();
        self.u_old.copy_from_slice(&self.u_vals);
        update_multipliers(
            p,
            &self.spans,
            &mut self.u_vals,
            &self.u_old,
            &self.sl_vals,
            &self.x,
            gamma,
            beta / 2.0,
        );
        self.trace.add(Step::UpdateU, t0.elapsed());

        if faults::active() && faults::nan_due("mr.update-u", k as u64) {
            self.u_vals[0] = f64::NAN;
        }

        // Guard rail: verify the new multipliers before they seed the
        // next iteration; on success they become the rollback target.
        if self.config.numeric_guards {
            let t0 = Instant::now();
            let finite = all_finite(&self.u_vals);
            if finite {
                self.safe_u.copy_from_slice(&self.u_vals);
                self.trace.add(Step::Guard, t0.elapsed());
            } else {
                self.trace.add(Step::Guard, t0.elapsed());
                self.recover_from_nonfinite();
                return;
            }
        }

        // The multiplier block and the two weight vectors rewritten
        // this iteration are MR's "messages".
        self.trace.algo.messages_updated += (2 * nnz + m) as u64;
    }

    /// Roll the multipliers back to the last finite iterate, halve the
    /// subgradient step (the paper's `mstep` recovery), and count it.
    fn recover_from_nonfinite(&mut self) {
        self.u_vals.copy_from_slice(&self.safe_u);
        self.gamma /= 2.0;
        self.stall = 0;
        self.trace.algo.numeric_recoveries += 1;
    }

    /// Close the current iteration's trace row.
    pub fn end_iteration(&mut self) {
        self.trace.end_iteration();
    }

    /// Degradation-ladder rung 2: match every further iteration with
    /// the sequential greedy matcher. For the locally-dominant matchers
    /// greedy returns the same unique matching, only faster, so the
    /// rung changes no result bit. A no-op when the engine already
    /// matches greedily; otherwise the replacement engine allocates
    /// once.
    pub fn force_cheap_rounding(&mut self) {
        if self.rounding.kind() != MatcherKind::Greedy {
            self.rounding = MatcherEngine::new(&self.p.l, MatcherKind::Greedy);
        }
    }

    /// Snapshot the engine for [`crate::checkpoint`]. Only the
    /// multipliers are independent state — every per-iteration buffer
    /// (`d`, `w̄`, `x`, …) is fully rewritten by the next `step`.
    pub fn checkpoint_state(&self) -> MrState {
        MrState {
            k: self.k,
            gamma: self.gamma,
            u_vals: self.u_vals.clone(),
            best: self.best,
            best_g: self.best_g.clone(),
            best_upper: self.best_upper,
            stall: self.stall,
            history: self.history.clone(),
            algo: self.trace.algo.clone(),
            matcher: self.counters.snapshot(),
        }
    }

    /// Restore a freshly constructed engine from a checkpoint taken on
    /// the same problem and config (the loader already validated both).
    /// Wall-clock step timings restart from zero; everything that feeds
    /// the bit-identity contract continues where the snapshot left off.
    pub fn restore_state(&mut self, state: MrState) {
        self.k = state.k;
        self.gamma = state.gamma;
        self.u_vals.copy_from_slice(&state.u_vals);
        if self.config.numeric_guards {
            self.safe_u.copy_from_slice(&state.u_vals);
        }
        self.best = state.best;
        self.best_g.copy_from_slice(&state.best_g);
        self.best_upper = state.best_upper;
        self.stall = state.stall;
        self.history = state.history;
        self.trace.algo = state.algo;
        self.counters.preload(&state.matcher);
    }

    /// Assemble the result from the incumbent.
    pub fn finish(mut self) -> AlignmentResult {
        let history = std::mem::take(&mut self.history);
        let trace = std::mem::take(&mut self.trace);
        let mut best_g = std::mem::take(&mut self.best_g);
        let best = match self.best.take() {
            Some((obj, iter)) => Some((obj, best_g, iter)),
            None => {
                // Pathological runs where every iteration was rolled
                // back never reach the matching step. Fall back to the
                // raw similarity weights so the caller still gets a
                // valid matching instead of a panic.
                best_g.clear();
                best_g.extend_from_slice(self.p.l.weights());
                Some((f64::NEG_INFINITY, best_g, self.k))
            }
        };
        let (l, counters, engine) = (&self.p.l, &self.counters, &mut self.rounding);
        let mut result = finalize(self.p, self.config, best, history, trace, counters, |g| {
            engine.run(l, g, counters).clone()
        });
        result.upper_bound = Some(self.best_upper.max(result.objective));
        result
    }
}

/// Listing 1 step 5: `U ← bound(U_old − γ·X·triu(S_L) + γ·tril(S_L)ᵀ·X)`
/// row-parallel over the precomputed span decomposition of `S`'s
/// pattern. Entry `idx` sits at `(e, f)` with `e` the row and
/// `f = colidx[idx]`; `triu(S_L)[e,f]` is `S_L`'s own entry and
/// `tril(S_L)ᵀ[e,f] = S_L[f,e]` is read through the transpose
/// permutation. Allocation-free; public so the allocation-counting
/// tests can drive the kernel directly.
#[allow(clippy::too_many_arguments)]
pub fn update_multipliers(
    p: &NetAlignProblem,
    spans: &RowSpans,
    u_vals: &mut [f64],
    u_old: &[f64],
    sl_vals: &[f64],
    x: &[f64],
    gamma: f64,
    bound: f64,
) {
    let rowptr = p.s.rowptr();
    let colidx = p.s.colidx();
    let perm = p.s.transpose_perm_slice();
    let row_bounds = spans.row_bounds();
    let entry_bounds = spans.entry_bounds();
    par_uneven_chunks_mut(u_vals, entry_bounds)
        .enumerate()
        .for_each(|(g, u_chunk)| {
            let base = entry_bounds[g];
            for e in row_bounds[g]..row_bounds[g + 1] {
                for idx in rowptr[e]..rowptr[e + 1] {
                    let uv = &mut u_chunk[idx - base];
                    let f = colidx[idx] as usize;
                    if f <= e {
                        *uv = 0.0; // strictly upper triangular multipliers
                        continue;
                    }
                    let upd = u_old[idx] - gamma * x[e] * sl_vals[idx]
                        + gamma * sl_vals[perm[idx]] * x[f];
                    *uv = upd.clamp(-bound, bound);
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use netalign_graph::generators::{add_random_edges, identity_plus_noise_l, power_law_graph};
    use netalign_graph::{BipartiteGraph, Graph};

    fn cycle_problem() -> NetAlignProblem {
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
        let p = cycle_problem();
        let cfg = AlignConfig {
            iterations: 25,
            record_history: true,
            ..Default::default()
        };
        let r = matching_relaxation(&p, &cfg);
        assert_eq!(r.matching.cardinality(), 4);
        assert_eq!(r.overlap, 4.0);
        assert_eq!(r.history.len(), 25);
    }

    #[test]
    fn upper_bound_dominates_objective() {
        let p = cycle_problem();
        let cfg = AlignConfig {
            iterations: 30,
            ..Default::default()
        };
        let r = matching_relaxation(&p, &cfg);
        let ub = r.upper_bound.unwrap();
        assert!(
            ub + 1e-9 >= r.objective,
            "upper bound {ub} below objective {}",
            r.objective
        );
        let ratio = r.approximation_ratio().unwrap();
        assert!(ratio > 0.0 && ratio <= 1.0 + 1e-9);
    }

    #[test]
    fn optimality_gap_closes_on_easy_instance() {
        let p = cycle_problem();
        let cfg = AlignConfig {
            iterations: 60,
            ..Default::default()
        };
        let r = matching_relaxation(&p, &cfg);
        // identity objective: weight 4 + 2*overlap 4 = 12
        assert_eq!(r.objective, 12.0);
        assert!(r.approximation_ratio().unwrap() > 0.9);
    }

    #[test]
    fn power_law_instance_beats_naive() {
        let g = power_law_graph(50, 2.5, 10, 15);
        let a = add_random_edges(&g, 0.02, 16);
        let b = add_random_edges(&g, 0.02, 17);
        let l = identity_plus_noise_l(50, 50, 3.0 / 50.0, 1.0, 1.0, 18);
        let p = NetAlignProblem::new(a, b, l);
        let cfg = AlignConfig {
            iterations: 40,
            ..Default::default()
        };
        let r = matching_relaxation(&p, &cfg);
        let naive =
            crate::rounding::round_heuristic(&p, p.l.weights(), 1.0, 2.0, MatcherKind::Exact);
        assert!(r.objective >= naive.value.total);
    }

    #[test]
    fn approximate_matching_degrades_gracefully() {
        // The paper's key negative finding: MR + approximate matching
        // still runs and produces a valid (if possibly worse) solution.
        let p = cycle_problem();
        let cfg = AlignConfig {
            iterations: 25,
            ..Default::default()
        };
        let exact = matching_relaxation(&p, &cfg);
        let approx = matching_relaxation(
            &p,
            &AlignConfig {
                matcher: MatcherKind::ParallelLocalDominant,
                ..cfg
            },
        );
        assert!(approx.matching.is_valid(&p.l));
        assert!(approx.objective <= exact.objective + 1e-9);
    }

    #[test]
    fn enriched_rounding_never_hurts() {
        let g = power_law_graph(60, 2.2, 12, 55);
        let a = add_random_edges(&g, 0.02, 56);
        let b = add_random_edges(&g, 0.02, 57);
        let l = identity_plus_noise_l(60, 60, 8.0 / 60.0, 1.0, 1.0, 58);
        let p = NetAlignProblem::new(a, b, l);
        let base = AlignConfig {
            iterations: 30,
            ..Default::default()
        };
        let plain = matching_relaxation(&p, &base);
        let enriched = matching_relaxation(
            &p,
            &AlignConfig {
                enriched_rounding: true,
                ..base
            },
        );
        assert!(enriched.objective >= plain.objective - 1e-9);
        assert!(enriched.matching.is_valid(&p.l));
    }

    #[test]
    fn multipliers_stay_strictly_upper() {
        // Internal invariant is not directly observable; exercise a run
        // with history and check bounds behave sanely instead.
        let p = cycle_problem();
        let cfg = AlignConfig {
            iterations: 12,
            mstep: 3,
            record_history: true,
            ..Default::default()
        };
        let r = matching_relaxation(&p, &cfg);
        for rec in &r.history {
            assert!(rec.upper_bound.unwrap().is_finite());
            assert!(rec.objective <= rec.upper_bound.unwrap() + 1e-9 + p.l.num_edges() as f64);
        }
    }

    #[test]
    fn engine_loop_matches_wrapper() {
        let p = cycle_problem();
        let cfg = AlignConfig {
            iterations: 18,
            ..Default::default()
        };
        let via_wrapper = matching_relaxation(&p, &cfg);
        let mut e = MrEngine::new(&p, &cfg);
        for _ in 0..cfg.iterations {
            e.step();
            e.end_iteration();
        }
        let manual = e.finish();
        assert_eq!(via_wrapper.objective, manual.objective);
        assert_eq!(via_wrapper.matching, manual.matching);
        assert_eq!(via_wrapper.upper_bound, manual.upper_bound);
    }

    /// Every matcher of the locally-dominant family, with and without
    /// enriched rounding, reproduces the parallel-LD engine run bit for
    /// bit. MR is the stronger test: the matching drives the multiplier
    /// update, so any divergence compounds across iterations.
    #[test]
    fn locally_dominant_matchers_round_identically() {
        let g = power_law_graph(40, 2.5, 10, 35);
        let a = add_random_edges(&g, 0.02, 36);
        let b = add_random_edges(&g, 0.02, 37);
        let l = identity_plus_noise_l(40, 40, 4.0 / 40.0, 1.0, 1.0, 38);
        let p = NetAlignProblem::new(a, b, l);
        for enriched in [false, true] {
            let ld_cfg = AlignConfig {
                iterations: 15,
                matcher: MatcherKind::ParallelLocalDominant,
                enriched_rounding: enriched,
                record_history: true,
                ..Default::default()
            };
            let ld = matching_relaxation(&p, &ld_cfg);
            for kind in [
                MatcherKind::Greedy,
                MatcherKind::LocalDominant,
                MatcherKind::ParallelLocalDominantOneSide,
            ] {
                let cfg = AlignConfig {
                    matcher: kind,
                    ..ld_cfg
                };
                let r = matching_relaxation(&p, &cfg);
                assert_eq!(
                    r.objective.to_bits(),
                    ld.objective.to_bits(),
                    "enriched {enriched}, {kind:?}"
                );
                assert_eq!(r.matching, ld.matching);
                assert_eq!(r.upper_bound, ld.upper_bound);
                assert_eq!(r.history.len(), ld.history.len());
                for (h, lh) in r.history.iter().zip(&ld.history) {
                    assert_eq!(h.objective.to_bits(), lh.objective.to_bits());
                    assert_eq!(
                        h.upper_bound.unwrap().to_bits(),
                        lh.upper_bound.unwrap().to_bits()
                    );
                }
            }
        }
    }
}
