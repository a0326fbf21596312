//! Incremental re-alignment smoke: delta replay against a cold
//! re-solve on a Table II stand-in (homo-musm at published scale by
//! default — its 1% delta frontier stays sparse across the run).
//!
//! The evolving-graph workload: a recorded BP base run, then a k-edge
//! candidate reweight (k ≤ 1% of `|E_L|` by default — the
//! delta-proportional regime). The delta path patches the squares
//! matrix in place and replays only the iterations/rows the edit
//! actually perturbs; the cold path rebuilds the patched problem from
//! scratch (graph rebuilds + full S enumeration) and re-solves all T
//! iterations. Both must produce bit-identical results; the delta wall
//! must come in at or under `--max-ratio` (default 0.5) of the cold
//! wall. Recording the base is *not* timed — it is the state the
//! service already holds when an edit arrives.
//!
//! Walls are minima over `--reps` repetitions, each from a freshly
//! recorded base so no warmth leaks between reps. The JSON report
//! (CI's `delta-smoke` job parses it, and a committed run lives at
//! `results/BENCH_7.json`) carries the walls, the ratio, the parity
//! verdict, and the replay's work accounting.
//!
//! Flags: `--standin`, `--scale`, `--seed`, `--iterations`,
//! `--changes` (0 = auto `max(1, m/100)`), `--reps`, `--threads`,
//! `--max-ratio`, `--json PATH`.

use netalign_bench::{run_with_threads, table::f, write_json_report_or_exit, Args, Table};
use netalign_core::bp::belief_propagation;
use netalign_core::config::AlignConfig;
use netalign_core::delta::{DeltaBase, DeltaStats, ProblemDelta};
use netalign_core::problem::NetAlignProblem;
use netalign_core::result::AlignmentResult;
use netalign_core::trace::Json;
use netalign_data::standins::StandIn;
use netalign_matching::MatcherKind;
use std::time::Instant;

/// `git rev-parse HEAD`, or `Json::Null` outside a work tree.
fn git_rev() -> Json {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| Json::str(s.trim()))
        .unwrap_or(Json::Null)
}

fn assert_bit_identical(delta: &AlignmentResult, cold: &AlignmentResult) {
    assert_eq!(
        delta.matching, cold.matching,
        "delta replay produced a different matching than the cold re-solve"
    );
    assert_eq!(
        delta.objective.to_bits(),
        cold.objective.to_bits(),
        "delta objective {} != cold objective {}",
        delta.objective,
        cold.objective
    );
    assert_eq!(delta.weight.to_bits(), cold.weight.to_bits());
    assert_eq!(delta.overlap.to_bits(), cold.overlap.to_bits());
    assert_eq!(delta.best_iteration, cold.best_iteration);
}

fn main() {
    let args = Args::parse();
    let standin = match args.string("standin", "homo-musm").as_str() {
        "dmela-scere" => StandIn::DmelaScere,
        "homo-musm" => StandIn::HomoMusm,
        "lcsh-wiki" => StandIn::LcshWiki,
        "lcsh-rameau" => StandIn::LcshRameau,
        other => panic!("unknown --standin '{other}'"),
    };
    let scale = args.f64("scale", 1.0);
    let seed = args.u64("seed", 7);
    let iterations = args.usize("iterations", 12);
    let changes = args.usize("changes", 0);
    let reps = args.usize("reps", 3);
    let threads = args.usize("threads", 1);
    let max_ratio = args.f64("max-ratio", 0.5);
    let json_path = args.string("json", "results/BENCH_7.json");

    let inst = standin.generate(scale, seed);
    let (a, b, l) = (
        inst.problem.a.clone(),
        inst.problem.b.clone(),
        inst.problem.l.clone(),
    );
    let m = l.num_edges();
    let k = if changes == 0 {
        (m / 100).max(1)
    } else {
        changes.min(m)
    };
    eprintln!(
        "{} stand-in at scale {scale}: shape {:?}, {m} candidates, \
         delta reweights {k} ({:.2}% of |E_L|)",
        standin.spec().name,
        inst.problem.shape(),
        100.0 * k as f64 / m as f64
    );

    let config = AlignConfig {
        iterations,
        matcher: MatcherKind::ParallelLocalDominant,
        final_exact_round: true,
        ..AlignConfig::default()
    };

    // The k-edge delta: deterministic distinct candidate picks, new
    // weights on the 1/16 grid so patched entries are exactly
    // representable (weight bits survive the canonical L rebuild).
    let mut delta = ProblemDelta::default();
    let mut state = seed ^ 0x9e3779b97f4a7c15;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < k {
        picked.insert((rng() % m as u64) as usize);
    }
    for e in picked {
        let (u, v) = l.endpoints(e);
        let w = (16 + rng() % 48) as f64 / 16.0;
        delta.l.reweight.push((u, v, w));
    }

    // Patched graphs a cold client would rebuild (L rebuilt through the
    // same canonicalising constructor the delta path uses internally).
    let patched_l = delta.l.apply(&l).expect("reweight delta is valid").graph;

    let mut cold_walls = Vec::with_capacity(reps);
    let mut delta_walls = Vec::with_capacity(reps);
    let mut last_stats = DeltaStats::default();
    run_with_threads(threads, || {
        for rep in 0..reps {
            // Delta path: base recorded off the clock (the service holds
            // it already), then patch + sparse replay on the clock.
            let base_problem = NetAlignProblem::new(a.clone(), b.clone(), l.clone());
            let (_, mut base) =
                DeltaBase::record(base_problem, config).expect("recording the base run failed");
            let t = Instant::now();
            let (delta_result, stats) = base.apply(&delta).expect("delta replay failed");
            let delta_wall = t.elapsed().as_secs_f64();

            // Cold path: rebuild the patched problem from scratch
            // (including full S enumeration) and solve all iterations.
            let t = Instant::now();
            let patched = NetAlignProblem::new(a.clone(), b.clone(), patched_l.clone());
            let cold_result = belief_propagation(&patched, &config);
            let cold_wall = t.elapsed().as_secs_f64();

            assert_bit_identical(&delta_result, &cold_result);
            assert!(
                stats.delta_reused_iterations > 0,
                "sparse replay reused no iterations"
            );
            eprintln!(
                "rep {rep}: cold {:.1} ms, delta {:.1} ms ({} of {} iterations sparse, \
                 {} of {} row slots recomputed)",
                cold_wall * 1e3,
                delta_wall * 1e3,
                stats.delta_reused_iterations,
                stats.iterations_total,
                stats.rows_recomputed,
                stats.row_slots_total,
            );
            cold_walls.push(cold_wall);
            delta_walls.push(delta_wall);
            last_stats = stats;
        }
    });

    let cold = cold_walls.iter().cloned().fold(f64::INFINITY, f64::min);
    let delta_wall = delta_walls.iter().cloned().fold(f64::INFINITY, f64::min);
    let ratio = delta_wall / cold;

    let mut table = Table::new(&["path", "wall ms", "x cold"]);
    table.row(&["cold re-solve".into(), f(cold * 1e3, 2), f(1.0, 3)]);
    table.row(&["delta replay".into(), f(delta_wall * 1e3, 2), f(ratio, 3)]);
    table.print();

    let stats_json = Json::obj(vec![
        (
            "reused_iterations",
            Json::U64(last_stats.delta_reused_iterations as u64),
        ),
        (
            "iterations_total",
            Json::U64(last_stats.iterations_total as u64),
        ),
        (
            "rows_recomputed",
            Json::U64(last_stats.rows_recomputed as u64),
        ),
        (
            "row_slots_total",
            Json::U64(last_stats.row_slots_total as u64),
        ),
        ("seed_rows", Json::U64(last_stats.seed_rows as u64)),
        ("stages_reused", Json::U64(last_stats.stages_reused as u64)),
        (
            "stages_rematched",
            Json::U64(last_stats.stages_rematched as u64),
        ),
        (
            "escaped_at",
            last_stats
                .escaped_at
                .map_or(Json::Null, |i| Json::U64(i as u64)),
        ),
        (
            "squares",
            Json::obj(vec![
                (
                    "rows_reenumerated",
                    Json::U64(last_stats.squares.rows_reenumerated as u64),
                ),
                (
                    "rows_reused",
                    Json::U64(last_stats.squares.rows_reused as u64),
                ),
                (
                    "entries_reused",
                    Json::U64(last_stats.squares.entries_reused as u64),
                ),
                ("nnz", Json::U64(last_stats.squares.nnz as u64)),
            ]),
        ),
    ]);
    let report = Json::obj(vec![
        ("bench", Json::str("delta_smoke")),
        ("git_rev", git_rev()),
        (
            "config",
            Json::obj(vec![
                ("scale", Json::F64(scale)),
                ("seed", Json::U64(seed)),
                ("iterations", Json::U64(iterations as u64)),
                ("threads", Json::U64(threads as u64)),
                ("reps", Json::U64(reps as u64)),
                ("candidates", Json::U64(m as u64)),
                ("delta_edges", Json::U64(k as u64)),
                ("max_ratio", Json::F64(max_ratio)),
            ]),
        ),
        ("cold_ms", Json::F64(cold * 1e3)),
        ("delta_ms", Json::F64(delta_wall * 1e3)),
        ("ratio", Json::F64(ratio)),
        ("bit_identical", Json::Bool(true)),
        ("delta", stats_json),
    ]);
    if !json_path.is_empty() {
        write_json_report_or_exit(&json_path, &report);
    }

    if ratio > max_ratio {
        eprintln!(
            "FAIL: delta replay took {ratio:.3}x the cold re-solve \
             (gate: <= {max_ratio})"
        );
        std::process::exit(1);
    }
    eprintln!("OK: delta replay at {ratio:.3}x cold (gate: <= {max_ratio})");
}
