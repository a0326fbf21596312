//! The paper's headline result (§IX): replacing exact bipartite
//! matching by the parallel ½-approximation turns a ~10-minute serial
//! solve into ~36 seconds — a combination of the cheaper `O(|E_L|)`
//! matcher and multicore scaling — at negligible cost in solution
//! quality for BP.
//!
//! This harness runs BP on the lcsh-wiki stand-in three ways:
//!   1. 1 thread, exact matching        (the "before" configuration)
//!   2. 1 thread, approximate matching  (algorithmic gain alone)
//!   3. N threads, approximate matching (the paper's configuration)
//!
//! and reports the wall-clock ratio plus the objective gap.
//!
//! Flags: `--scale`, `--iters`, `--seed`, `--threads` (max pool size),
//! `--matcher NAME` to pick the approximate configurations' matcher
//! (a matcher kind name, default `ld-parallel`; the exact baseline is
//! unaffected), `--json PATH` to also write the machine-
//! readable report (one full [`AlignmentResult::report_json`] per
//! configuration; schema in EXPERIMENTS.md), `--checkpoint DIR` to
//! snapshot each configuration into its own `DIR/<slug>` subdirectory
//! (a rerun of the same command auto-resumes), and `--resume PATH` to
//! resume from an explicit snapshot tree. `--mmap DIR` streams the squares matrix to
//! `DIR/s.nacs` and runs on the memory-mapped view (bit-identical);
//! `--max-resident-mb N` bounds the build and exits 6 when infeasible.

use netalign_bench::{
    available_threads, completion_json, deadline_harness, harness_for_run, outcome_or_exit,
    run_with_threads, standin_problem_or_exit, table::f, write_json_report_or_exit, Args, Table,
};
use netalign_core::prelude::*;
use netalign_core::trace::Json;
use netalign_data::standins::StandIn;
use netalign_matching::MatcherKind;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let scale = args.f64("scale", 0.01);
    let iters = args.usize("iters", 10);
    let seed = args.u64("seed", 11);
    let max_threads = args.usize("threads", available_threads());
    let approx = args.matcher(MatcherKind::ParallelLocalDominant);
    let json_path = args.string("json", "");
    let checkpoint = args.string("checkpoint", "");
    let resume = args.string("resume", "");

    let problem = standin_problem_or_exit(&args, StandIn::LcshWiki, scale, seed);
    eprintln!(
        "lcsh-wiki stand-in at scale {scale}: shape {:?}",
        problem.shape()
    );

    let runs = [
        ("BP exact, 1 thread", "exact-t1", MatcherKind::Exact, 1usize),
        ("BP approx, 1 thread", "approx-t1", approx, 1),
        ("BP approx, max threads", "approx-tmax", approx, max_threads),
    ];

    println!("Headline — exact/serial vs approximate/parallel BP ({iters} iters)\n");
    let mut t = Table::new(&["configuration", "threads", "seconds", "objective"]);
    let mut results = Vec::new();
    let mut reports = Vec::new();
    for (name, slug, matcher, nt) in runs {
        let cfg = AlignConfig {
            iterations: iters,
            batch: 20,
            matcher,
            trace_matcher: true,
            ..Default::default()
        };
        let problem = &problem;
        let harness = deadline_harness(&args, harness_for_run(&checkpoint, &resume, slug));
        let (secs, r) = run_with_threads(nt, || {
            let start = Instant::now();
            let r = match &harness {
                None => Ok(AlignOutcome::completed(
                    belief_propagation(problem, &cfg),
                    cfg.iterations,
                )),
                Some(h) => h.run_bp(problem, &cfg),
            };
            (start.elapsed().as_secs_f64(), r)
        });
        let outcome = outcome_or_exit(name, r);
        let r = &outcome.result;
        eprintln!(
            "{name}: {secs:.2}s, objective {:.1} ({})",
            r.objective,
            outcome.completion.label()
        );
        t.row(&[
            name.to_string(),
            nt.to_string(),
            f(secs, 2),
            f(r.objective, 1),
        ]);
        let mut fields = vec![
            ("configuration", Json::str(name)),
            ("matcher", Json::str(matcher.name())),
            ("threads", Json::U64(nt as u64)),
            ("wall_seconds", Json::F64(secs)),
            ("report", r.report_json()),
        ];
        fields.extend(completion_json(&outcome));
        reports.push(Json::obj(fields));
        results.push((name, secs, r.objective));
    }
    t.print();

    let (_, t_exact, o_exact) = results[0];
    let (_, t_par, o_par) = results[2];
    println!(
        "\nend-to-end speedup (exact/1t -> approx/{max_threads}t): {:.1}x",
        t_exact / t_par
    );
    println!(
        "objective change: {:+.2}% (paper: negligible for BP)",
        100.0 * (o_par - o_exact) / o_exact.abs().max(1e-12)
    );
    println!("paper's numbers on the real lcsh-wiki with 40 threads: 10 min -> 36 s.");

    if !json_path.is_empty() {
        let report = Json::obj(vec![
            ("figure", Json::str("headline")),
            ("scale", Json::F64(scale)),
            ("iterations", Json::U64(iters as u64)),
            ("seed", Json::U64(seed)),
            ("speedup", Json::F64(t_exact / t_par)),
            ("runs", Json::Arr(reports)),
        ]);
        write_json_report_or_exit(&json_path, &report);
    }
}
