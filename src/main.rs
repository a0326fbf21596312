//! `netalignmc` — command-line network alignment.
//!
//! ```text
//! netalignmc stats    --a A.el --b B.el --l L.smat
//! netalignmc align    --a A.el --b B.el --l L.smat --method bp
//!                     [--matcher ld-parallel]
//!                     [--alpha 1] [--beta 2]
//!                     [--gamma 0.99] [--iters 100] [--batch 1]
//!                     [--out matching.txt] [--json-out result.json]
//!                     [--checkpoint DIR] [--resume PATH]
//!
//! `--matcher` names the matcher that rounds every iterate: `exact`
//! (the default), `greedy`, `ld-serial`, `ld-parallel`,
//! `ld-parallel-1side`, `path-growing` or `auction`. `greedy` and the
//! `ld-*` kinds return the same unique matching.
//! netalignmc generate --dataset dmela-scere [--scale 0.1] [--seed 42]
//!                     --out-dir data/
//! ```
//!
//! `--dist-workers N` executes the BP run across `N` worker processes
//! over localhost TCP (`--dist-base-port P` pins the coordinator port).
//! Workers that crash are respawned and resumed from per-iteration
//! checkpoints; past the respawn budget their rows are re-partitioned
//! onto survivors. The result is bit-identical to the in-process
//! engine. Unrecoverable transport failure exits with code 7.
//!
//! A `--deadline-ms` turns an `align` run into a deadline-aware anytime
//! run: at expiry the best-so-far matching is returned (completion
//! `deadline-best-so-far`), with `--on-deadline` selecting best-so-far
//! (default), checkpoint-and-return, or treat-as-error.
//!
//! Graphs are edge lists with an `n m` header; `L` is SMAT (see
//! `netalign_graph::io`). The matching output has one `a b` line per
//! aligned pair.

use netalignmc::core::baselines::{isorank, naive_rounding, nsd, IsoRankConfig, NsdConfig};
use netalignmc::core::exitcode;
use netalignmc::core::NetAlignProblem;
use netalignmc::data::standins::StandIn;
use netalignmc::graph::io;
use netalignmc::graph::stats::{degree_summary, left_degree_summary};
use netalignmc::prelude::*;
use std::collections::HashMap;
use std::process::exit;

fn help_text() -> String {
    format!(
        "usage: netalignmc <stats|align|generate|serve> [--flag value]...\n\
         \n\
         align flags (see the crate docs for the full list):\n\
         \x20 --a A.el --b B.el --l L.smat   input graphs\n\
         \x20 --method bp|mr|isorank|nsd|naive\n\
         \x20 --matcher exact|greedy|ld-serial|ld-parallel|ld-parallel-1side|path-growing|auction\n\
         \x20 --mmap DIR                     out-of-core BP: stream S to DIR, mmap sweeps\n\
         \x20 --max-resident-mb N            resident budget for --mmap (exit 6 if infeasible)\n\
         \x20 --dist-workers N               run BP across N worker processes over localhost TCP\n\
         \x20 --dist-base-port P             coordinator listen port for --dist-workers (0 = ephemeral)\n\
         \x20 --checkpoint DIR [--resume PATH]\n\
         \x20 --deadline-ms N                total wall-clock budget (anytime run)\n\
         \x20 --soft-iter-ms N               per-iteration soft budget (degradation only)\n\
         \x20 --watchdog-ms N                cancel cleanly when no progress for N ms\n\
         \x20 --on-deadline best-so-far|checkpoint|error   (default best-so-far)\n\
         \n\
         serve flags (alignment-as-a-service daemon; see netalignd --help):\n\
         \x20 --addr HOST:PORT               bind address (default 127.0.0.1:7464)\n\
         \x20 --cache-capacity N             warm problems kept resident (default 8)\n\
         \x20 --queue-capacity N             admission bound; overflow answers 429\n\
         \x20 --watchdog-ms N                per-solve stall watchdog (0 disables)\n\
         \x20 --threads N                    solver worker threads\n\
         \x20 --state-dir PATH               durable state dir (journal + spills)\n\
         \x20 --journal-max-bytes N          journal rotation threshold\n\
         \x20 --conn-timeout-ms N            per-frame receive timeout (0 = none)\n\
         \n\
         {}",
        exitcode::HELP_TABLE
    )
}

fn usage() -> ! {
    eprintln!("{}", help_text());
    exit(exitcode::USAGE)
}

fn main() {
    // Distributed worker re-entry: when spawned by a coordinator this
    // process runs the worker loop and exits before any CLI parsing.
    netalignmc::core::dist::maybe_run_worker();
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    if cmd == "help" || cmd == "--help" || cmd == "-h" {
        println!("{}", help_text());
        exit(exitcode::OK)
    }
    let mut flags: HashMap<String, String> = HashMap::new();
    let rest: Vec<String> = args.collect();
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        if a == "--help" || a == "-h" {
            println!("{}", help_text());
            exit(exitcode::OK)
        }
        let Some(key) = a.strip_prefix("--") else {
            eprintln!("expected --flag, got '{a}'");
            usage()
        };
        let Some(val) = it.next() else {
            eprintln!("flag --{key} needs a value");
            usage()
        };
        flags.insert(key.to_string(), val);
    }

    // Exit-code discipline: anything that unwinds out of a subcommand
    // is an internal error (code 5), distinct from the generic 1 of an
    // uncaught panic so scripted callers can classify it.
    let ran = std::panic::catch_unwind(|| match cmd.as_str() {
        "stats" => cmd_stats(&flags),
        "align" => cmd_align(&flags),
        "generate" => cmd_generate(&flags),
        "serve" => cmd_serve(&flags),
        other => {
            eprintln!("unknown subcommand '{other}'");
            usage()
        }
    });
    if ran.is_err() {
        eprintln!("internal error: the run panicked (details above)");
        exit(exitcode::INTERNAL)
    }
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or_else(|| {
        eprintln!("missing required flag --{key}");
        exit(exitcode::USAGE)
    })
}

fn get_or<'a>(flags: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or(default)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid {what}: '{s}'");
        exit(exitcode::USAGE)
    })
}

/// `netalignmc serve`: run the alignment daemon in-process (same
/// runtime as the standalone `netalignd` binary).
fn cmd_serve(flags: &HashMap<String, String>) {
    use netalignmc::serve::{ServerHandle, ServerOptions};
    let defaults = ServerOptions::default();
    let opts = ServerOptions {
        addr: get_or(flags, "addr", "127.0.0.1:7464").to_string(),
        cache_capacity: parse_num(
            get_or(
                flags,
                "cache-capacity",
                &defaults.cache_capacity.to_string(),
            ),
            "--cache-capacity",
        ),
        queue_capacity: parse_num(
            get_or(
                flags,
                "queue-capacity",
                &defaults.queue_capacity.to_string(),
            ),
            "--queue-capacity",
        ),
        max_frame_bytes: parse_num(
            get_or(
                flags,
                "max-frame-bytes",
                &defaults.max_frame_bytes.to_string(),
            ),
            "--max-frame-bytes",
        ),
        watchdog_ms: match parse_num::<u64>(get_or(flags, "watchdog-ms", "30000"), "--watchdog-ms")
        {
            0 => None,
            ms => Some(ms),
        },
        threads: flags.get("threads").map(|t| parse_num(t, "--threads")),
        state_dir: flags.get("state-dir").map(Into::into),
        journal_max_bytes: parse_num(
            get_or(
                flags,
                "journal-max-bytes",
                &defaults.journal_max_bytes.to_string(),
            ),
            "--journal-max-bytes",
        ),
        conn_timeout_ms: match parse_num::<u64>(
            get_or(flags, "conn-timeout-ms", "0"),
            "--conn-timeout-ms",
        ) {
            0 => None,
            ms => Some(ms),
        },
        // The `crash` op is a chaos-harness affordance of the
        // standalone `netalignd`; the in-process daemon always 422s it.
        allow_crash_op: false,
    };
    let handle = ServerHandle::start(opts).unwrap_or_else(|e| {
        eprintln!("serve: bind failed: {e}");
        exit(exitcode::IO)
    });
    println!("netalignd listening on {}", handle.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    handle.wait();
    exit(exitcode::OK)
}

fn load_graphs(
    flags: &HashMap<String, String>,
) -> (
    netalignmc::graph::Graph,
    netalignmc::graph::Graph,
    netalignmc::graph::BipartiteGraph,
) {
    let a = io::read_edge_list_file(get(flags, "a")).unwrap_or_else(|e| {
        eprintln!("failed to read A: {e}");
        exit(exitcode::IO)
    });
    let b = io::read_edge_list_file(get(flags, "b")).unwrap_or_else(|e| {
        eprintln!("failed to read B: {e}");
        exit(exitcode::IO)
    });
    let l = io::read_bipartite_smat_file(get(flags, "l")).unwrap_or_else(|e| {
        eprintln!("failed to read L: {e}");
        exit(exitcode::IO)
    });
    (a, b, l)
}

fn load_problem(flags: &HashMap<String, String>) -> NetAlignProblem {
    let (a, b, l) = load_graphs(flags);
    NetAlignProblem::new(a, b, l)
}

/// Map a `--matcher` value, a [`MatcherKind::name`], to its kind.
fn parse_matcher(name: &str) -> MatcherKind {
    MatcherKind::from_name(name).unwrap_or_else(|| {
        eprintln!("unknown matcher '{name}'");
        exit(exitcode::USAGE)
    })
}

fn cmd_stats(flags: &HashMap<String, String>) {
    let p = load_problem(flags);
    let (va, vb, el, nnz) = p.shape();
    println!("|V_A| = {va}");
    println!("|V_B| = {vb}");
    println!("|E_A| = {}", p.a.num_edges());
    println!("|E_B| = {}", p.b.num_edges());
    println!("|E_L| = {el}");
    println!("nnz(S) = {nnz}");
    let da = degree_summary(&p.a);
    let dl = left_degree_summary(&p.l);
    println!(
        "deg(A): min {} max {} mean {:.2} cv {:.2}",
        da.min, da.max, da.mean, da.cv
    );
    println!(
        "deg(L): min {} max {} mean {:.2} cv {:.2}",
        dl.min, dl.max, dl.mean, dl.cv
    );
    let srows = netalignmc::graph::stats::summarize((0..el).map(|e| p.s.row_range(e).len()));
    println!(
        "nnz/row(S): min {} max {} mean {:.2} cv {:.2}",
        srows.min, srows.max, srows.mean, srows.cv
    );
}

fn cmd_align(flags: &HashMap<String, String>) {
    let method = get_or(flags, "method", "bp");
    let matcher = parse_matcher(get_or(flags, "matcher", "exact"));
    let cfg = AlignConfig {
        alpha: parse_num(get_or(flags, "alpha", "1.0"), "alpha"),
        beta: parse_num(get_or(flags, "beta", "2.0"), "beta"),
        gamma: parse_num(get_or(flags, "gamma", "0.99"), "gamma"),
        iterations: parse_num(get_or(flags, "iters", "100"), "iters"),
        mstep: parse_num(get_or(flags, "mstep", "10"), "mstep"),
        batch: parse_num(get_or(flags, "batch", "1"), "batch"),
        matcher,
        final_exact_round: get_or(flags, "final-exact", "true") == "true",
        ..Default::default()
    };
    // --checkpoint DIR snapshots the run into DIR (a rerun of the same
    // command auto-resumes from the newest valid snapshot); --resume
    // PATH resumes from an explicit snapshot file or directory.
    // --deadline-ms / --soft-iter-ms / --watchdog-ms bound the run in
    // wall-clock time (anytime execution). Only the iterative bp/mr
    // engines support these.
    let checkpoint = flags.get("checkpoint").map(std::path::PathBuf::from);
    let resume = flags.get("resume").map(std::path::PathBuf::from);
    let deadline_ms: Option<u64> = flags
        .get("deadline-ms")
        .map(|s| parse_num(s, "deadline-ms"));
    let soft_iter_ms: Option<u64> = flags
        .get("soft-iter-ms")
        .map(|s| parse_num(s, "soft-iter-ms"));
    let watchdog_ms: Option<u64> = flags
        .get("watchdog-ms")
        .map(|s| parse_num(s, "watchdog-ms"));
    let on_deadline = match get_or(flags, "on-deadline", "best-so-far") {
        "best-so-far" => DeadlinePolicy::BestSoFar,
        "checkpoint" => DeadlinePolicy::Checkpoint,
        "error" => DeadlinePolicy::Error,
        other => {
            eprintln!("unknown --on-deadline '{other}' (best-so-far|checkpoint|error)");
            exit(exitcode::USAGE)
        }
    };
    if on_deadline == DeadlinePolicy::Checkpoint && checkpoint.is_none() {
        eprintln!("--on-deadline checkpoint requires --checkpoint DIR");
        exit(exitcode::USAGE)
    }
    // --mmap DIR switches `--method bp` to the out-of-core path: the
    // squares matrix is streamed to DIR/s.nacs, the nnz-sized message
    // streams live in unlinked scratch files under DIR, and the sweeps
    // run over mapped superblocks. --max-resident-mb bounds the
    // resident working set; an infeasible budget is refused up front
    // with exit code 6.
    let mmap_dir = flags.get("mmap").map(std::path::PathBuf::from);
    let max_resident_mb: Option<u64> = flags
        .get("max-resident-mb")
        .map(|s| parse_num(s, "max-resident-mb"));
    if max_resident_mb.is_some() && mmap_dir.is_none() {
        eprintln!("--max-resident-mb requires --mmap DIR");
        exit(exitcode::USAGE)
    }
    if mmap_dir.is_some() {
        if method != "bp" {
            eprintln!("--mmap only applies to --method bp");
            exit(exitcode::USAGE)
        }
        if checkpoint.is_some()
            || resume.is_some()
            || deadline_ms.is_some()
            || soft_iter_ms.is_some()
            || watchdog_ms.is_some()
        {
            eprintln!(
                "--mmap is incompatible with --checkpoint/--resume/--deadline-ms/\
                 --soft-iter-ms/--watchdog-ms (out-of-core runs are not checkpointable)"
            );
            exit(exitcode::USAGE)
        }
    }
    // --dist-workers N runs the BP engine across N worker *processes*
    // over localhost TCP (crash recovery included); the result is
    // bit-identical to the in-process engine. A transport failure that
    // recovery cannot mask (all workers past their respawn budgets, or
    // the coordinator socket failing) exits with code 7.
    let dist_workers: Option<usize> = flags
        .get("dist-workers")
        .map(|s| parse_num(s, "dist-workers"));
    let dist_base_port: u16 = parse_num(get_or(flags, "dist-base-port", "0"), "dist-base-port");
    if dist_workers.is_none() && flags.contains_key("dist-base-port") {
        eprintln!("--dist-base-port requires --dist-workers N");
        exit(exitcode::USAGE)
    }
    if let Some(w) = dist_workers {
        if w == 0 {
            eprintln!("--dist-workers must be at least 1");
            exit(exitcode::USAGE)
        }
        if method != "bp" {
            eprintln!("--dist-workers only applies to --method bp");
            exit(exitcode::USAGE)
        }
        if mmap_dir.is_some() {
            eprintln!("--dist-workers is incompatible with --mmap (pick one execution mode)");
            exit(exitcode::USAGE)
        }
        if checkpoint.is_some()
            || resume.is_some()
            || deadline_ms.is_some()
            || soft_iter_ms.is_some()
            || watchdog_ms.is_some()
        {
            eprintln!(
                "--dist-workers is incompatible with --checkpoint/--resume/--deadline-ms/\
                 --soft-iter-ms/--watchdog-ms (distributed runs checkpoint internally)"
            );
            exit(exitcode::USAGE)
        }
    }
    let needs_harness = checkpoint.is_some()
        || resume.is_some()
        || deadline_ms.is_some()
        || soft_iter_ms.is_some()
        || watchdog_ms.is_some();
    let harness = if needs_harness {
        if method != "bp" && method != "mr" {
            eprintln!(
                "--checkpoint/--resume/--deadline-ms/--watchdog-ms only apply to --method bp or mr"
            );
            exit(exitcode::USAGE)
        }
        let mut h = RunHarness::new().with_on_deadline(on_deadline);
        if let Some(dir) = &checkpoint {
            if resume.is_none() && dir.is_dir() {
                h = h.with_resume_from(dir);
            }
            h = h.with_checkpoint_dir(dir);
        }
        if let Some(src) = &resume {
            h = h.with_resume_from(src);
        }
        if deadline_ms.is_some() || soft_iter_ms.is_some() {
            h = h.with_time_budget(TimeBudget {
                deadline: deadline_ms.map(std::time::Duration::from_millis),
                soft_iteration: soft_iter_ms.map(std::time::Duration::from_millis),
            });
        }
        if let Some(ms) = watchdog_ms {
            h = h.with_watchdog(std::time::Duration::from_millis(ms));
        }
        Some(h)
    } else {
        None
    };
    let run_harnessed = |r: Result<AlignOutcome, HarnessError>| -> AlignOutcome {
        match r {
            Ok(o) => o,
            Err(HarnessError::DeadlineExceeded { iterations_run }) => {
                eprintln!(
                    "deadline expired after {iterations_run} iterations (--on-deadline error)"
                );
                exit(exitcode::DEADLINE)
            }
            Err(HarnessError::Checkpoint(e)) => {
                eprintln!("checkpoint/resume failed: {e}");
                exit(match e {
                    CheckpointError::Io { .. } => exitcode::IO,
                    _ => exitcode::INTERNAL,
                })
            }
            Err(HarnessError::Delta(e)) => {
                eprintln!("delta replay failed: {e}");
                exit(exitcode::INTERNAL)
            }
        }
    };
    let unpack = |o: AlignOutcome| {
        let AlignOutcome {
            result,
            completion,
            iterations_run,
            cancel_reason,
            ladder_rung,
            deadline_checkpoint,
        } = o;
        (
            result,
            Some((
                completion,
                iterations_run,
                ladder_rung,
                cancel_reason,
                deadline_checkpoint,
            )),
        )
    };
    let start = std::time::Instant::now();
    // Recovery counters from a distributed run, for the report and
    // `--json-out` (the chaos CI matrix gates on these).
    let mut dist: Option<(usize, u64, u64, u64, u64)> = None;
    let (r, meta) = if let Some(workers) = dist_workers {
        use netalignmc::core::dist::{align_distributed, DistConfig, DistReport};
        let p = load_problem(flags);
        let mut dc = DistConfig::from_env(workers);
        dc.base_port = dist_base_port;
        match align_distributed(&p, &cfg, &dc) {
            Ok(DistReport {
                result,
                workers,
                worker_restarts,
                retransmissions,
                repartitions,
                recoveries,
            }) => {
                dist = Some((
                    workers,
                    worker_restarts,
                    retransmissions,
                    repartitions,
                    recoveries,
                ));
                (result, None)
            }
            Err(e) => {
                eprintln!("distributed run failed: {e}");
                exit(exitcode::TRANSPORT)
            }
        }
    } else if let Some(dir) = &mmap_dir {
        let (a, b, l) = load_graphs(flags);
        let mut opts = OocOptions::new(dir);
        if let Some(mb) = max_resident_mb {
            opts = opts.with_budget_mb(mb);
        }
        match align_streaming(a, b, l, &cfg, &opts) {
            Ok(r) => (r, None),
            Err(OocError::BudgetTooSmall {
                budget_bytes,
                baseline_bytes,
            }) => {
                eprintln!(
                    "--max-resident-mb {} is below the out-of-core baseline \
                     ({} MiB needed for the m-sized working set plus a minimal window)",
                    budget_bytes >> 20,
                    baseline_bytes.div_ceil(1 << 20),
                );
                exit(exitcode::BUDGET)
            }
            Err(OocError::Io(e)) => {
                eprintln!(
                    "out-of-core scratch I/O failed under {}: {e}",
                    dir.display()
                );
                exit(exitcode::IO)
            }
            Err(OocError::Nacs(e)) => {
                eprintln!(
                    "streaming squares build failed under {}: {e}",
                    dir.display()
                );
                exit(exitcode::IO)
            }
            Err(e) => {
                eprintln!("out-of-core run failed: {e}");
                exit(exitcode::INTERNAL)
            }
        }
    } else {
        let p = load_problem(flags);
        match (method, &harness) {
            ("bp", None) => (belief_propagation(&p, &cfg), None),
            ("bp", Some(h)) => unpack(run_harnessed(h.run_bp(&p, &cfg))),
            ("mr", None) => (matching_relaxation(&p, &cfg), None),
            ("mr", Some(h)) => unpack(run_harnessed(h.run_mr(&p, &cfg))),
            ("isorank", _) => (isorank(&p, &IsoRankConfig::default(), &cfg), None),
            ("nsd", _) => (nsd(&p, &NsdConfig::default(), &cfg), None),
            ("naive", _) => (naive_rounding(&p, &cfg), None),
            (other, _) => {
                eprintln!("unknown method '{other}' (bp|mr|isorank|nsd|naive)");
                exit(exitcode::USAGE)
            }
        }
    };
    let secs = start.elapsed().as_secs_f64();
    println!("method    : {method}");
    println!("matcher   : {}", cfg.matcher.name());
    println!("objective : {:.4}", r.objective);
    println!("weight    : {:.4}", r.weight);
    println!("overlap   : {:.1}", r.overlap);
    println!("matched   : {}", r.matching.cardinality());
    if let Some(ub) = r.upper_bound {
        println!("upper     : {ub:.4}");
    }
    println!("time      : {secs:.3}s");
    if let Some((w, restarts, retrans, reparts, recov)) = &dist {
        println!(
            "dist      : {w} workers (restarts {restarts}, retransmissions {retrans}, \
             repartitions {reparts}, recoveries {recov})"
        );
    }
    if r.trace.peak_rss_kb > 0 {
        println!("peak rss  : {} kB", r.trace.peak_rss_kb);
    }
    if let Some((completion, iters, rung, reason, ckpt)) = &meta {
        println!("completion: {}", completion.label());
        if *completion != Completion::Completed {
            println!("stopped   : after {iters} iterations (ladder rung {rung})");
            if let Some(reason) = reason {
                println!("cause     : {}", reason.label());
            }
            if let Some(ckpt) = ckpt {
                println!("cut ckpt  : {}", ckpt.display());
            }
        }
    }

    if let Some(out) = flags.get("out") {
        let mut body = String::new();
        for (a, b) in r.matching.pairs() {
            body.push_str(&format!("{a} {b}\n"));
        }
        write_output_file(out, &body, "--out");
        println!("matching written to {out}");
    }
    if let Some(out) = flags.get("json-out") {
        let (completion_label, iters_run, rung, reason_json) = match &meta {
            Some((c, i, rung, reason, _)) => (
                c.label(),
                *i,
                *rung,
                reason
                    .map(|x| format!("\"{}\"", x.label()))
                    .unwrap_or_else(|| "null".to_string()),
            ),
            None => ("completed", cfg.iterations, 0, "null".to_string()),
        };
        let dist_json = match &dist {
            Some((w, restarts, retrans, reparts, recov)) => format!(
                "{{\"workers\": {w}, \"worker_restarts\": {restarts}, \
                 \"retransmissions\": {retrans}, \"repartitions\": {reparts}, \
                 \"recoveries\": {recov}}}"
            ),
            None => "null".to_string(),
        };
        let json = format!(
            "{{\n  \"method\": \"{}\",\n  \"matcher\": \"{}\",\n  \"objective\": {},\n  \"weight\": {},\n  \"overlap\": {},\n  \"matched\": {},\n  \"seconds\": {},\n  \"peak_rss_kb\": {},\n  \"completion\": \"{}\",\n  \"iterations_run\": {},\n  \"ladder_rung\": {},\n  \"cancel_reason\": {},\n  \"dist\": {}\n}}\n",
            method,
            cfg.matcher.name(),
            r.objective,
            r.weight,
            r.overlap,
            r.matching.cardinality(),
            secs,
            r.trace.peak_rss_kb,
            completion_label,
            iters_run,
            rung,
            reason_json,
            dist_json
        );
        write_output_file(out, &json, "--json-out");
        println!("summary written to {out}");
    }
}

/// Write a user-requested output file, creating missing parent
/// directories; report failures on stderr and exit(1) instead of
/// panicking with a backtrace.
fn write_output_file(path: &str, body: &str, flag: &str) {
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {flag} directory {}: {e}", dir.display());
                exit(exitcode::IO)
            }
        }
    }
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("cannot write {flag} file {}: {e}", path.display());
        exit(exitcode::IO)
    }
}

fn cmd_generate(flags: &HashMap<String, String>) {
    let name = get(flags, "dataset");
    let scale: f64 = parse_num(get_or(flags, "scale", "0.05"), "scale");
    let seed: u64 = parse_num(get_or(flags, "seed", "42"), "seed");
    let out_dir = std::path::PathBuf::from(get(flags, "out-dir"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create --out-dir {}: {e}", out_dir.display());
        exit(exitcode::IO)
    }

    let inst = match name {
        "dmela-scere" => StandIn::DmelaScere.generate(scale, seed),
        "homo-musm" => StandIn::HomoMusm.generate(scale, seed),
        "lcsh-wiki" => StandIn::LcshWiki.generate(scale, seed),
        "lcsh-rameau" => StandIn::LcshRameau.generate(scale, seed),
        "powerlaw" => netalignmc::data::synthetic::power_law_alignment(
            &netalignmc::data::synthetic::PowerLawParams {
                seed,
                ..Default::default()
            },
        ),
        other => {
            eprintln!("unknown dataset '{other}'");
            exit(exitcode::USAGE)
        }
    };
    fn fail(out_dir: &std::path::Path, what: &str, e: impl std::fmt::Display) -> ! {
        eprintln!("cannot write {what} under {}: {e}", out_dir.display());
        exit(exitcode::IO)
    }
    io::write_edge_list_file(&inst.problem.a, out_dir.join("a.el"))
        .unwrap_or_else(|e| fail(&out_dir, "a.el", e));
    io::write_edge_list_file(&inst.problem.b, out_dir.join("b.el"))
        .unwrap_or_else(|e| fail(&out_dir, "b.el", e));
    io::write_bipartite_smat_file(&inst.problem.l, out_dir.join("l.smat"))
        .unwrap_or_else(|e| fail(&out_dir, "l.smat", e));
    let mut planted = String::new();
    for (a, pb) in inst.planted.iter().enumerate() {
        if let Some(b) = pb {
            planted.push_str(&format!("{a} {b}\n"));
        }
    }
    std::fs::write(out_dir.join("planted.txt"), planted)
        .unwrap_or_else(|e| fail(&out_dir, "planted.txt", e));
    let (va, vb, el, nnz) = inst.problem.shape();
    println!(
        "wrote {name} (scale {scale}, seed {seed}) to {}",
        out_dir.display()
    );
    println!("|V_A|={va} |V_B|={vb} |E_L|={el} nnz(S)={nnz}");
}
