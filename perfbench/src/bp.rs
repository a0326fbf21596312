//! `bp-ontology` and `bp-squares`: one caller in a closed loop, each op
//! one `RunHarness::run_bp` call on a 2-thread pool with netalignd's
//! default config (engine LD rounding, warm start, 50 iterations).
//!
//! Also home of what the other workloads share with these two: the
//! pinned reference a result is checked against, and the traced
//! engine op that splits a solve into `bp.init`, `bp.step`, `rounding`
//! and `bp.finish`.

use crate::ledger::Ledger;
use crate::measure::{repeated_setup, Args, Report, Window, MIN_OPS};
use crate::stats;
use crate::{dist, serve, sys};
use netalign_core::bp::{belief_propagation, BpEngine};
use netalign_core::config::AlignConfig;
use netalign_core::harness::{Completion, RunHarness};
use netalign_core::problem::NetAlignProblem;
use netalign_core::result::AlignmentResult;
use netalign_data::standins::StandIn;
use netalign_graph::generators::{
    add_random_edges, expected_degree_to_probability, identity_plus_noise_l, power_law_graph,
};
use netalign_graph::{BipartiteGraph, Graph, VertexId};
use netalign_matching::Matching;
use netalign_serve::protocol::default_config;
use netalign_trace::Json;
use rayon::ThreadPool;
use std::time::Instant;

/// `bp-ontology`: lcsh-wiki stand-in scale. |E_L| ≫ nnz(S), so the
/// rounding matcher does almost all the work.
const ONTOLOGY_SCALE: f64 = 0.00065;
/// `bp-squares`: §VI.A power-law family with dense `A`, `B`, so
/// nnz(S)/|E_L| stays above 100 and the S sweeps dominate.
const SQUARES_N: usize = 200;
const SQUARES_P_EDGE: f64 = 0.30;
const SQUARES_DBAR: f64 = 5.5;
/// Ops run and discarded at the end of set-up (lazy pool start, first
/// touch of every buffer).
const WARMUP_OPS: usize = 2;

/// Bytes one BP iteration moves per non-zero of `S` and per candidate
/// edge, computed from the arrays each pass reads and writes (fused
/// F/d sweep 24, S update 16, damping 32, guard 24 per non-zero;
/// messages, othermax, damping, guard and staging per edge). Ignores
/// cache reuse, so it is a computed figure, not a measured one.
const STEP_BYTES_PER_NNZ: f64 = 96.0;
const STEP_BYTES_PER_EDGE: f64 = 272.0;

/// Which of the two BP workloads.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    Ontology,
    Squares,
}

/// The pinned answer a result must reproduce bit for bit.
#[derive(Clone, Debug)]
pub struct Reference {
    objective: f64,
    mates: Vec<VertexId>,
}

impl Reference {
    pub fn of(r: &AlignmentResult) -> Self {
        Reference {
            objective: r.objective,
            mates: r.matching.left_mates().to_vec(),
        }
    }

    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Check that `m` is a valid matching of `l`, equal to the
    /// reference's, with the reference's objective bits.
    pub fn check(&self, l: &BipartiteGraph, m: &Matching, objective: f64) -> Result<(), String> {
        if !m.is_valid(l) {
            return Err("returned matching is not a valid matching of L".into());
        }
        if objective.to_bits() != self.objective.to_bits() {
            return Err(format!(
                "objective {objective:e} differs from reference {:e}",
                self.objective
            ));
        }
        if m.left_mates() != self.mates.as_slice() {
            return Err("matching differs from the reference matching".into());
        }
        Ok(())
    }

    /// [`check`](Self::check) for an in-process result, which must also
    /// have run to completion.
    pub fn check_result(&self, p: &NetAlignProblem, r: &AlignmentResult) -> Result<(), String> {
        self.check(&p.l, &r.matching, r.objective)
    }
}

/// A pool of `threads` threads.
pub fn pool(threads: usize) -> ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("vendored pool build is infallible")
}

/// A built instance and what its build cost.
pub struct Instance {
    pub problem: NetAlignProblem,
    /// Wall time of the squares build (`NetAlignProblem::new`).
    pub squares_ms: f64,
}

impl Instance {
    /// Build `S` for the given graphs on `pool`, timing it.
    pub fn build(a: Graph, b: Graph, l: BipartiteGraph, pool: &ThreadPool) -> Instance {
        let t0 = Instant::now();
        let problem = pool.install(|| NetAlignProblem::new(a, b, l));
        Instance {
            problem,
            squares_ms: t0.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// `{|V_A|, |V_B|, |E_L|, nnz(S)}` for the run context.
    pub fn shape_json(&self) -> Json {
        let (va, vb, el, nnz) = self.problem.shape();
        Json::obj(vec![
            ("va", Json::U64(va as u64)),
            ("vb", Json::U64(vb as u64)),
            ("el", Json::U64(el as u64)),
            ("nnz_s", Json::U64(nnz as u64)),
        ])
    }
}

/// The §VI.A power-law recipe (base graph, two perturbed copies,
/// identity-plus-noise candidates), as `power_law_alignment` builds it
/// but returning the graphs so the squares build can be timed alone.
pub fn power_law_graphs(
    n: usize,
    p_edge: f64,
    dbar: f64,
    seed: u64,
) -> (Graph, Graph, BipartiteGraph) {
    let g = power_law_graph(n, 2.5, 40.min(n - 1), seed);
    let a = add_random_edges(&g, p_edge, seed.wrapping_add(1));
    let b = add_random_edges(&g, p_edge, seed.wrapping_add(2));
    let p = expected_degree_to_probability(dbar, n);
    let l = identity_plus_noise_l(n, n, p, 1.0, 1.0, seed.wrapping_add(3));
    (a, b, l)
}

fn graphs(shape: Shape, seed: u64) -> (Graph, Graph, BipartiteGraph) {
    match shape {
        Shape::Ontology => {
            let g = StandIn::LcshWiki.generate_graphs(ONTOLOGY_SCALE, seed);
            (g.a, g.b, g.l)
        }
        Shape::Squares => power_law_graphs(SQUARES_N, SQUARES_P_EDGE, SQUARES_DBAR, seed),
    }
}

/// One untraced op: a `RunHarness::run_bp` call, timed, then checked.
pub fn harness_op(
    p: &NetAlignProblem,
    cfg: &AlignConfig,
    pool: &ThreadPool,
    reference: &Reference,
) -> (f64, Result<(), String>) {
    let t0 = Instant::now();
    let run = pool.install(|| RunHarness::new().run_bp(p, cfg));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let checked = match run {
        Ok(o) if o.completion != Completion::Completed => {
            Err(format!("run ended {}", o.completion.label()))
        }
        Ok(o) => reference.check_result(p, &o.result),
        Err(e) => Err(format!("harness error: {e}")),
    };
    (ms, checked)
}

/// One traced op: the loop `RunHarness::run_bp` drives, with a span
/// around each engine call.
pub fn traced_engine_op(
    ledger: &mut Ledger,
    op: u64,
    p: &NetAlignProblem,
    cfg: &AlignConfig,
    pool: &ThreadPool,
) -> AlignmentResult {
    pool.install(|| {
        let root = ledger.open("bp.run", op, None);
        let s = ledger.open("bp.init", op, Some(root));
        let mut engine = BpEngine::new(p, cfg);
        ledger.close(s);
        while engine.iteration() < cfg.iterations {
            let s = ledger.open("bp.step", op, Some(root));
            engine.step();
            ledger.close(s);
            if engine.rounding_due() {
                let s = ledger.open("rounding", op, Some(root));
                engine.round_pending();
                ledger.close(s);
            }
            engine.end_iteration();
        }
        let s = ledger.open("bp.finish", op, Some(root));
        let result = engine.finish_in_place();
        ledger.close(s);
        ledger.close(root);
        result
    })
}

/// Trace `ops` engine solves of `p` (at least one), checking each.
/// Returns the last result and a window counting the checks.
pub fn trace_engine(
    ledger: &mut Ledger,
    first_op: u64,
    ops: usize,
    p: &NetAlignProblem,
    cfg: &AlignConfig,
    pool: &ThreadPool,
    reference: &Reference,
) -> (AlignmentResult, Window) {
    let mut w = Window::default();
    let mut last = None;
    for i in 0..ops.max(1) {
        let r = traced_engine_op(ledger, first_op + i as u64, p, cfg, pool);
        w.record(0.0, reference.check_result(p, &r));
        last = Some(r);
    }
    (last.expect("at least one op"), w)
}

/// The squares-layer metrics of an instance.
pub fn squares_metrics(rep: &mut Report, inst: &Instance) {
    let (_, _, el, nnz) = inst.problem.shape();
    rep.metric("squares.build_ms", inst.squares_ms, "ms");
    rep.metric("squares.nnz", nnz as f64, "count");
    rep.metric("squares.nnz_per_edge", nnz as f64 / el as f64, "ratio");
}

/// The bp, rounding and matching-layer metrics of the `bp.run` ops in
/// `ledger`; `last` is one of their (identical) results.
pub fn engine_metrics(
    rep: &mut Report,
    ledger: &Ledger,
    p: &NetAlignProblem,
    last: &AlignmentResult,
) {
    let (_, _, el, nnz) = p.shape();
    let ops = ledger.op_walls("bp.run").len().max(1) as f64;
    let wall: f64 = ledger.op_walls("bp.run").iter().map(|w| w.1).sum();
    let (step_ms, steps) = ledger.total("bp.step");
    let (round_ms, _) = ledger.total("rounding");
    let (finish_ms, _) = ledger.total("bp.finish");
    let (init_ms, _) = ledger.total("bp.init");
    let vectors = last.trace.algo.vectors_rounded() as f64;
    let step_avg = step_ms / steps.max(1) as f64;
    let bytes = nnz as f64 * STEP_BYTES_PER_NNZ + el as f64 * STEP_BYTES_PER_EDGE;
    rep.metric("bp.step_ms", step_avg, "ms");
    rep.metric("bp.step_share", step_ms / wall, "ratio");
    rep.metric("bp.step_bytes", bytes, "B");
    rep.metric("bp.step_gbps", bytes / (step_avg * 1e6), "GB/s");
    rep.metric("bp.init_ms", init_ms / ops, "ms");
    rep.metric("bp.finish_ms", finish_ms / ops, "ms");
    rep.metric("rounding.vector_ms", round_ms / (vectors * ops), "ms");
    rep.metric("rounding.share", round_ms / wall, "ratio");
    rep.metric("rounding.vectors", vectors, "count");
    let m = &last.trace.matcher;
    let vertices = (p.l.num_left() + p.l.num_right()) as f64;
    rep.metric(
        "matching.reseed_ratio",
        m.reseeded_vertices as f64 / (vectors * vertices),
        "ratio",
    );
    rep.metric("matching.warm_hits", m.warm_hits as f64, "count");
    rep.metric(
        "matching.reseeded_vertices",
        m.reseeded_vertices as f64,
        "count",
    );
    rep.metric(
        "matching.find_mate_reruns",
        m.find_mate_reruns as f64,
        "count",
    );
}

/// Residual and tracing overhead of a workload whose untraced ops are
/// `untraced` and whose traced ops are the `root` spans of `ledger`.
pub fn residual_metrics(rep: &mut Report, untraced: &Window, ledger: &Ledger, root: &str) {
    let p50 = untraced.percentile(0.5).map_or(f64::NAN, |p| p.value);
    let traced: Vec<f64> = ledger.op_walls(root).iter().map(|w| w.1).collect();
    let band = ledger.median_band(root);
    let residual = p50 - band.sum_ms();
    rep.metric("harness.residual_ms", residual, "ms");
    rep.metric(
        "trace.overhead_pct",
        (stats::median(&traced) - p50) / p50 * 100.0,
        "%",
    );
    rep.context(
        "ledger",
        Json::obj(vec![
            ("root", Json::str(root)),
            ("untraced_p50_ms", Json::F64(p50)),
            ("band_ops", Json::U64(band.ops as u64)),
            ("band_wall_ms", Json::F64(band.wall_ms)),
            (
                "layers_ms",
                Json::obj(
                    band.layers
                        .iter()
                        .map(|&(n, ms)| (n, Json::F64(ms)))
                        .collect(),
                ),
            ),
            ("residual_ms", Json::F64(residual)),
            ("residual_bound_ms", Json::F64(RESIDUAL_BOUND * p50)),
        ]),
    );
    if residual.abs() > RESIDUAL_BOUND * p50 {
        eprintln!(
            "perfbench: residual {residual:.3} ms exceeds {:.0}% of the untraced p50 {p50:.3} ms",
            RESIDUAL_BOUND * 100.0
        );
    }
}

/// Stated bound on `|harness.residual_ms|`, as a share of the untraced
/// p50.
pub const RESIDUAL_BOUND: f64 = 0.10;

struct Setup {
    inst: Instance,
    reference: Reference,
}

fn setup(shape: Shape, seed: u64, cfg: &AlignConfig, pool: &ThreadPool) -> Result<Setup, String> {
    let (a, b, l) = graphs(shape, seed);
    let inst = Instance::build(a, b, l, pool);
    let reference = Reference::of(&pool.install(|| belief_propagation(&inst.problem, cfg)));
    for _ in 0..WARMUP_OPS {
        harness_op(&inst.problem, cfg, pool, &reference).1?;
    }
    Ok(Setup { inst, reference })
}

pub fn run(shape: Shape, args: &Args) -> Report {
    let mut rep = Report::default();
    let threads = sys::pool_threads();
    let pool = pool(threads);
    let cfg = default_config();
    let (st, setup_s) = match repeated_setup(|| setup(shape, args.seed, &cfg, &pool)) {
        Ok(x) => x,
        Err(e) => {
            rep.problems.push(format!("set-up failed: {e}"));
            return rep;
        }
    };
    let p = &st.inst.problem;
    rep.context("instance", st.inst.shape_json());
    rep.context("pool_threads", Json::U64(threads as u64));
    rep.context("iterations", Json::U64(cfg.iterations as u64));
    rep.context("reference_objective", Json::F64(st.reference.objective()));
    let op = || harness_op(p, &cfg, &pool, &st.reference);
    if !args.trace {
        let w = Window::closed_loop(args.seconds, MIN_OPS, op);
        rep.end_to_end(&setup_s, &w);
        return rep;
    }
    let mut ledger = Ledger::new();
    let mut last = None;
    let mut next = 0u64;
    let (untraced, traced) = Window::alternating(args.seconds, op, || {
        let r = traced_engine_op(&mut ledger, next, p, &cfg, &pool);
        next += 1;
        let checked = st.reference.check_result(p, &r);
        last = Some(r);
        (0.0, checked)
    });
    rep.count(&untraced);
    rep.count(&traced);
    squares_metrics(&mut rep, &st.inst);
    engine_metrics(
        &mut rep,
        &ledger,
        p,
        last.as_ref().expect("traced window ran"),
    );
    residual_metrics(&mut rep, &untraced, &ledger, "bp.run");
    serve::probe(&mut rep, &mut ledger, args.seed);
    dist::probe(&mut rep, &mut ledger, args.seed, &pool);
    crate::write_ledger(&ledger, args, &rep);
    rep
}
