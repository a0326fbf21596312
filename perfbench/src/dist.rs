//! `dist-bp`: one caller in a closed loop, each op one
//! `align_distributed` call with 2 worker processes of one pool thread
//! each, on a §VI.A power-law instance, with netalignd's default config
//! at 10 iterations (and the parallel-LD final matcher, see [`config`]).
//!
//! Workers are this executable re-entered through
//! `dist::maybe_run_worker`. Each op gets a fresh checkpoint directory
//! under the benchmark's output directory, removed inside the timed
//! call as the coordinator's own temporary directory would be.

use crate::bp::{self, Instance, Reference};
use crate::ledger::Ledger;
use crate::measure::{repeated_setup, Args, Report, Window, MIN_OPS};
use crate::stats::{fixed_and_per_step, interquartile_mean, median};
use crate::{serve, sys};
use netalign_core::bp::belief_propagation;
use netalign_core::config::AlignConfig;
use netalign_core::dist::{align_distributed, match_distributed, DistConfig};
use netalign_core::problem::NetAlignProblem;
use netalign_core::result::AlignmentResult;
use netalign_matching::MatcherKind;
use netalign_serve::protocol::default_config;
use netalign_trace::Json;
use rayon::ThreadPool;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Worker processes per op.
pub const WORKERS: usize = 2;
const N: usize = 900;
const P_EDGE: f64 = 0.02;
const DBAR: f64 = 5.0;
/// BP iterations per op (`k`); the split also runs `2k`.
const ITERATIONS: usize = 10;
const WARMUP_OPS: usize = 2;
/// Repetitions of each call in the fixed/superstep split.
const SPLIT_REPS: usize = 7;

/// A problem, its config and references at `k` and `2k` iterations.
pub struct Target<'a> {
    pub problem: &'a NetAlignProblem,
    pub cfg: AlignConfig,
    pub reference: &'a Reference,
    pub reference_2k: Reference,
}

impl<'a> Target<'a> {
    pub fn new(
        problem: &'a NetAlignProblem,
        cfg: AlignConfig,
        reference: &'a Reference,
        pool: &ThreadPool,
    ) -> Self {
        let cfg_2k = AlignConfig {
            iterations: 2 * cfg.iterations,
            ..cfg
        };
        let reference_2k = Reference::of(&pool.install(|| belief_propagation(problem, &cfg_2k)));
        Target {
            problem,
            cfg,
            reference,
            reference_2k,
        }
    }
}

/// A fresh checkpoint directory inside the benchmark's output tree.
fn state_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    Path::new(crate::OUT_DIR).join(format!(
        "dist-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn dist_config(dir: PathBuf) -> DistConfig {
    let mut dc = DistConfig::new(WORKERS);
    dc.state_dir = Some(dir);
    dc
}

/// One `align_distributed` call, timed, then checked against
/// `reference` and for a clean transport. Also returns the run's
/// `[retransmissions, worker_restarts]`.
pub fn dist_op(
    p: &NetAlignProblem,
    cfg: &AlignConfig,
    reference: &Reference,
) -> (f64, [u64; 2], Result<(), String>) {
    let dir = state_dir();
    let t0 = Instant::now();
    let run = align_distributed(p, cfg, &dist_config(dir.clone()));
    let _ = std::fs::remove_dir_all(&dir);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match run {
        Ok(r) => {
            let counts = [r.retransmissions, r.worker_restarts];
            let checked = reference
                .check_result(p, &r.result)
                .and_then(|()| match counts {
                    [0, 0] => Ok(()),
                    [re, wr] => Err(format!(
                        "clean run needed {wr} restarts and {re} retransmissions"
                    )),
                });
            (ms, counts, checked)
        }
        Err(e) => (ms, [0, 0], Err(e.to_string())),
    }
}

/// The dist-layer metrics, measured on `t`: [`SPLIT_REPS`] rounds of a
/// run at `k` iterations, one at `2k`, a distributed matching of the
/// candidate weights and a traced in-process solve. The `k`-iteration
/// runs become `dist.align` ops in `ledger`; they and the ones in
/// `align_ids` get derived children: `k` fitted supersteps and the rest
/// of their wall as fixed cost. Returns the last in-process result.
pub fn split(
    rep: &mut Report,
    ledger: &mut Ledger,
    t: &Target,
    pool: &ThreadPool,
    mut align_ids: Vec<usize>,
    first_op: u64,
) -> AlignmentResult {
    let k = t.cfg.iterations;
    let cfg_2k = AlignConfig {
        iterations: 2 * k,
        ..t.cfg
    };
    let mut w = Window::default();
    let mut counts = [0u64; 2];
    let (mut wall_k, mut wall_2k, mut matched, mut local) = (vec![], vec![], vec![], vec![]);
    let mut last = None;
    for i in 0..SPLIT_REPS as u64 {
        let op = first_op + 4 * i;
        let id = ledger.open("dist.align", op, None);
        let (ms, c, checked) = dist_op(t.problem, &t.cfg, t.reference);
        ledger.close(id);
        align_ids.push(id);
        wall_k.push(ms);
        w.record(ms, checked);
        counts = [counts[0] + c[0], counts[1] + c[1]];

        let id = ledger.open("dist.align_2k", op + 1, None);
        let (ms, c, checked) = dist_op(t.problem, &cfg_2k, &t.reference_2k);
        ledger.close(id);
        wall_2k.push(ms);
        w.record(ms, checked);
        counts = [counts[0] + c[0], counts[1] + c[1]];

        let dir = state_dir();
        let id = ledger.open("dist.match", op + 2, None);
        let m = match_distributed(t.problem, t.problem.l.weights(), &dist_config(dir.clone()));
        let _ = std::fs::remove_dir_all(&dir);
        ledger.close(id);
        matched.push(ledger.ms(id));
        let m = m.map_err(|e| e.to_string()).and_then(|m| {
            if m.is_valid(&t.problem.l) {
                Ok(())
            } else {
                Err("invalid distributed matching".into())
            }
        });
        w.record(ledger.ms(id), m);

        let t0 = Instant::now();
        let r = bp::traced_engine_op(ledger, op + 3, t.problem, &t.cfg, pool);
        local.push(t0.elapsed().as_secs_f64() * 1e3);
        w.record(0.0, t.reference.check_result(t.problem, &r));
        last = Some(r);
    }
    let align_ms: Vec<f64> = align_ids.iter().map(|&id| ledger.ms(id)).collect();
    // Interquartile means: the walls move in the coordinator's polling
    // steps, which a median would snap to.
    let (fixed, step) =
        fixed_and_per_step(k, interquartile_mean(&wall_k), interquartile_mean(&wall_2k));
    for &id in &align_ids {
        // Everything of the op that is not its k supersteps is its
        // fixed cost, so each op's spans still sum to its wall time.
        let steps = (k as f64 * step).clamp(0.0, ledger.ms(id));
        ledger.derived("dist.fixed", id, 0.0, ledger.ms(id) - steps);
        ledger.derived("dist.supersteps", id, ledger.ms(id) - steps, steps);
    }
    rep.metric("dist.fixed_ms", fixed, "ms");
    rep.metric("dist.superstep_ms", step, "ms");
    rep.metric("dist.round_ms", median(&matched), "ms");
    rep.metric(
        "dist.overhead_ratio",
        median(&align_ms) / median(&local),
        "ratio",
    );
    rep.metric("dist.retransmissions", counts[0] as f64, "count");
    rep.metric("dist.worker_restarts", counts[1] as f64, "count");
    rep.count(&w);
    last.expect("SPLIT_REPS > 0")
}

/// netalignd's default config at [`ITERATIONS`], with the final
/// re-rounding done by the parallel locally-dominant matcher. The
/// distributed path always re-rounds that way; the in-process engine
/// uses `config.matcher` (exact by default), so only this setting
/// makes the two comparable bit for bit.
fn config() -> AlignConfig {
    AlignConfig {
        iterations: ITERATIONS,
        matcher: MatcherKind::ParallelLocalDominant,
        ..default_config()
    }
}

struct Setup {
    inst: Instance,
    reference: Reference,
}

fn setup(seed: u64, cfg: &AlignConfig, pool: &ThreadPool) -> Result<Setup, String> {
    let (a, b, l) = bp::power_law_graphs(N, P_EDGE, DBAR, seed);
    let inst = Instance::build(a, b, l, pool);
    let reference = Reference::of(&pool.install(|| belief_propagation(&inst.problem, cfg)));
    for _ in 0..WARMUP_OPS {
        dist_op(&inst.problem, cfg, &reference).2?;
    }
    Ok(Setup { inst, reference })
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let threads = sys::pool_threads();
    let pool = bp::pool(threads);
    let cfg = config();
    let (st, setup_s) = match repeated_setup(|| setup(args.seed, &cfg, &pool)) {
        Ok(x) => x,
        Err(e) => {
            rep.problems.push(format!("set-up failed: {e}"));
            return rep;
        }
    };
    let p = &st.inst.problem;
    rep.context("instance", st.inst.shape_json());
    rep.context("pool_threads", Json::U64(threads as u64));
    rep.context("workers", Json::U64(WORKERS as u64));
    rep.context("worker_pool_threads", Json::U64(1));
    rep.context("iterations", Json::U64(ITERATIONS as u64));
    let op = || {
        let (ms, _, checked) = dist_op(p, &cfg, &st.reference);
        (ms, checked)
    };
    if !args.trace {
        let w = Window::closed_loop(args.seconds, MIN_OPS, op);
        rep.end_to_end(&setup_s, &w);
        return rep;
    }
    // Untraced and traced (`dist.align` span) ops alternate for most of
    // the window; the split runs that attribute them take the rest.
    let mut ledger = Ledger::new();
    let mut ids = Vec::new();
    let mut next = 0u64;
    let (untraced, traced) = Window::alternating(TRACED_SHARE * args.seconds, op, || {
        let id = ledger.open("dist.align", next, None);
        let (ms, _, checked) = dist_op(p, &cfg, &st.reference);
        ledger.close(id);
        ids.push(id);
        next += 1;
        (ms, checked)
    });
    rep.count(&untraced);
    rep.count(&traced);
    let target = Target::new(p, cfg, &st.reference, &pool);
    let last = split(&mut rep, &mut ledger, &target, &pool, ids, 1 << 40);
    bp::squares_metrics(&mut rep, &st.inst);
    bp::engine_metrics(&mut rep, &ledger, p, &last);
    bp::residual_metrics(&mut rep, &untraced, &ledger, "dist.align");
    serve::probe(&mut rep, &mut ledger, args.seed);
    crate::write_ledger(&ledger, args, &rep);
    rep
}

/// Share of a traced run's window spent on alternating ops; the split
/// takes the rest.
const TRACED_SHARE: f64 = 0.6;

/// The dist-layer metrics on this workload's instance for `seed`, for
/// workloads whose own ops stay in one process.
pub fn probe(rep: &mut Report, ledger: &mut Ledger, seed: u64, pool: &ThreadPool) {
    let cfg = config();
    match setup(seed, &cfg, pool) {
        Ok(st) => {
            let target = Target::new(&st.inst.problem, cfg, &st.reference, pool);
            split(rep, ledger, &target, pool, Vec::new(), 1 << 48);
        }
        Err(e) => rep.problems.push(format!("dist probe set-up failed: {e}")),
    }
}
