//! Figure 7: per-step strong scaling of BP(batch=20) on the lcsh-wiki
//! stand-in (steps: compute-F, compute-d, othermax, update-S, damping,
//! matching). The paper reports othermax ≈ 15%, matching ≈ 58% and
//! damping ≈ 12% at 40 threads, with damping the limiting step.
//!
//! Flags: `--scale`, `--iters`, `--seed`, `--threads`, `--batch`,
//! `--matcher NAME` (a matcher kind name, default `ld-parallel`; the
//! locally-dominant kinds such as `greedy` give bit-identical
//! results), `--json PATH` to also write the machine-readable report
//! (per-thread-count per-step seconds plus the matcher counters;
//! schema in EXPERIMENTS.md), `--checkpoint DIR` to
//! snapshot each run into `DIR/t{n}` (a rerun of the same command
//! auto-resumes), and `--resume PATH` to resume from an explicit
//! snapshot tree. `--mmap DIR` streams the squares matrix to
//! `DIR/s.nacs` and runs on the memory-mapped view (bit-identical);
//! `--max-resident-mb N` bounds the build and exits 6 when infeasible.

use netalign_bench::{
    completion_json, deadline_harness, harness_for_run, outcome_or_exit, run_with_threads,
    standin_problem_or_exit, table::f, thread_sweep, write_json_report_or_exit, Args, Table,
};
use netalign_core::prelude::*;
use netalign_core::trace::{Json, Step};
use netalign_data::standins::StandIn;

const BP_STEPS: [Step; 6] = [
    Step::ComputeF,
    Step::ComputeD,
    Step::OtherMax,
    Step::UpdateS,
    Step::Damping,
    Step::Match,
];

fn main() {
    let args = Args::parse();
    let scale = args.f64("scale", 0.01);
    let iters = args.usize("iters", 10);
    let seed = args.u64("seed", 11);
    let batch = args.usize("batch", 20);
    let threads = args.usize_list("threads", thread_sweep());
    let matcher = args.matcher(MatcherKind::ParallelLocalDominant);
    let json_path = args.string("json", "");
    let checkpoint = args.string("checkpoint", "");
    let resume = args.string("resume", "");

    let problem = standin_problem_or_exit(&args, StandIn::LcshWiki, scale, seed);
    eprintln!(
        "lcsh-wiki stand-in at scale {scale}: shape {:?}",
        problem.shape()
    );

    println!("Figure 7 — per-step strong scaling of BP(batch={batch}) ({iters} iters)\n");
    let mut t = Table::new(&["threads", "step", "seconds", "speedup", "share"]);
    let mut base: Option<Vec<f64>> = None;
    let mut runs = Vec::new();
    for &nt in &threads {
        let cfg = AlignConfig {
            iterations: iters,
            batch,
            matcher,
            trace_matcher: true,
            ..Default::default()
        };
        let problem = &problem;
        let harness = deadline_harness(
            &args,
            harness_for_run(&checkpoint, &resume, &format!("t{nt}")),
        );
        let outcome = outcome_or_exit(
            &format!("threads={nt}"),
            run_with_threads(nt, || match &harness {
                None => Ok(AlignOutcome::completed(
                    belief_propagation(problem, &cfg),
                    cfg.iterations,
                )),
                Some(h) => h.run_bp(problem, &cfg),
            }),
        );
        let trace = outcome.result.trace.clone();
        let secs: Vec<f64> = BP_STEPS
            .iter()
            .map(|s| trace.get(*s).as_secs_f64())
            .collect();
        let total: f64 = secs.iter().sum();
        let base = base.get_or_insert_with(|| secs.clone());
        for (i, step) in BP_STEPS.iter().enumerate() {
            t.row(&[
                nt.to_string(),
                step.name().to_string(),
                f(secs[i], 3),
                f(base[i] / secs[i].max(1e-12), 2),
                f(secs[i] / total.max(1e-12), 3),
            ]);
        }
        eprintln!(
            "threads={nt}: total {total:.3}s ({})",
            outcome.completion.label()
        );
        let mut fields = vec![
            ("threads", Json::U64(nt as u64)),
            (
                "steps",
                Json::obj(
                    BP_STEPS
                        .iter()
                        .zip(&secs)
                        .map(|(s, &v)| (s.name(), Json::F64(v)))
                        .collect(),
                ),
            ),
            ("total_seconds", Json::F64(total)),
            ("matcher", trace.matcher.to_json()),
            ("algo", trace.algo.to_json()),
            ("peak_rss_kb", Json::U64(trace.peak_rss_kb)),
        ];
        fields.extend(completion_json(&outcome));
        runs.push(Json::obj(fields));
    }
    t.print();
    println!("\nexpected shape (paper): matching takes the majority of the iteration");
    println!("(50–75%); the memory-bandwidth-bound damping step scales worst.");

    if !json_path.is_empty() {
        let report = Json::obj(vec![
            ("figure", Json::str("fig7")),
            ("scale", Json::F64(scale)),
            ("iterations", Json::U64(iters as u64)),
            ("seed", Json::U64(seed)),
            ("batch", Json::U64(batch as u64)),
            ("runs", Json::Arr(runs)),
        ]);
        write_json_report_or_exit(&json_path, &report);
    }
}
