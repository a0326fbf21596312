//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload bp-ontology --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Workloads: `bp-ontology`,
//! `bp-squares`, `serve-mix`, `dist-bp` (see `perfbench/README.md`).
//! With `--trace 0` the run measures the end-to-end metrics with
//! tracing off; with `--trace 1` it measures the per-layer metrics,
//! half of the window untraced and half traced, and writes the span
//! ledger to `.perfbench_out/`. Context lines go to stdout first; the
//! last line is the result object. The exit code is non-zero when an
//! op failed its check or a metric had to be withheld.

mod bp;
mod dist;
mod ledger;
mod measure;
mod serve;
mod stats;
mod sys;

use ledger::Ledger;
use measure::{Args, Report};
use netalign_trace::Json;
use std::path::Path;

/// Where the run writes ledgers and distributed checkpoints.
pub const OUT_DIR: &str = ".perfbench_out";

const USAGE: &str = "usage: perfbench --workload bp-ontology|bp-squares|serve-mix|dist-bp \
                     --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: must be in (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Write the run's spans, headed by its context, to the output dir.
pub fn write_ledger(ledger: &Ledger, args: &Args, rep: &Report) {
    let path = Path::new(OUT_DIR).join(format!("ledger-{}-seed{}.jsonl", args.workload, args.seed));
    let header = Json::obj(vec![
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::U64(args.seed)),
        ("context", Json::Obj(rep.context.clone())),
    ]);
    if let Err(e) = ledger.write(&path, &header) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() {
    netalign_core::dist::maybe_run_worker();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Distributed workers are spawned from this executable and inherit
    // its environment. Fix this process's default pool size first, then
    // pin the workers' pools to one thread each.
    let _ = rayon::current_num_threads();
    std::env::set_var("NETALIGN_THREADS", "1");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let mut rep = match args.workload.as_str() {
        "bp-ontology" => bp::run(bp::Shape::Ontology, &args),
        "bp-squares" => bp::run(bp::Shape::Squares, &args),
        "serve-mix" => serve::run(&args),
        "dist-bp" => dist::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut context = vec![
        ("workload".to_string(), Json::str(args.workload.clone())),
        ("seed".to_string(), Json::U64(args.seed)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("nproc".to_string(), Json::U64(sys::nproc() as u64)),
        (
            "git_rev".to_string(),
            sys::git_rev().map_or(Json::Null, Json::Str),
        ),
    ];
    context.append(&mut rep.context);
    println!(
        "{}",
        Json::obj(vec![("context", Json::Obj(context))]).render()
    );
    for p in &rep.problems {
        eprintln!("perfbench: {p}");
    }
    if let Some((name, ..)) = rep.metrics.iter().find(|m| !m.1.is_finite()) {
        rep.problems
            .push(format!("metric {name} is not a finite number"));
    }
    println!("{}", rep.result_line());
    if !rep.problems.is_empty() || rep.failed > 0 {
        std::process::exit(1);
    }
}
