//! Matcher comparison table (ablation companion to §V): every matching
//! algorithm in the workspace on one rounding workload — weight
//! relative to optimal, cardinality, wall-clock.
//!
//! Flags: `--dataset dmela-scere|homo-musm|lcsh-wiki|lcsh-rameau`,
//! `--scale`, `--seed`.

use netalign_bench::{table::f, Args, Table};
use netalign_data::standins::StandIn;
use netalign_matching::cardinality::hopcroft_karp;
use netalign_matching::{max_weight_matching, MatcherKind};
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let scale = args.f64("scale", 0.2);
    let seed = args.u64("seed", 7);
    let dataset = args.string("dataset", "dmela-scere");

    let si = match dataset.as_str() {
        "dmela-scere" => StandIn::DmelaScere,
        "homo-musm" => StandIn::HomoMusm,
        "lcsh-wiki" => StandIn::LcshWiki,
        "lcsh-rameau" => StandIn::LcshRameau,
        other => panic!("unknown dataset '{other}'"),
    };
    let inst = si.generate(scale, seed);
    let l = &inst.problem.l;
    eprintln!(
        "{dataset} at scale {scale}: shape {:?}",
        inst.problem.shape()
    );

    // Reference: exact weight and maximum cardinality.
    let t0 = Instant::now();
    let exact = max_weight_matching(l, l.weights(), MatcherKind::Exact);
    let exact_time = t0.elapsed().as_secs_f64();
    let opt_weight = exact.weight_in(l);
    let max_card = hopcroft_karp(l).cardinality();

    println!(
        "Matcher comparison on {dataset} ({} edges; optimal weight {:.1}, max cardinality {})\n",
        l.num_edges(),
        opt_weight,
        max_card
    );
    let mut t = Table::new(&[
        "matcher",
        "weight",
        "% of optimal",
        "cardinality",
        "seconds",
    ]);
    t.row(&[
        "exact".into(),
        f(opt_weight, 1),
        "100.00".into(),
        exact.cardinality().to_string(),
        f(exact_time, 4),
    ]);
    for kind in [
        MatcherKind::Greedy,
        MatcherKind::LocalDominant,
        MatcherKind::ParallelLocalDominant,
        MatcherKind::ParallelLocalDominantOneSide,
        MatcherKind::PathGrowing,
        MatcherKind::Auction { eps_rel: 1e-4 },
    ] {
        let t0 = Instant::now();
        let m = max_weight_matching(l, l.weights(), kind);
        let secs = t0.elapsed().as_secs_f64();
        let w = m.weight_in(l);
        assert!(m.is_valid(l), "{} invalid", kind.name());
        if kind.is_approximate() {
            assert!(
                w * 2.0 >= opt_weight - 1e-9,
                "{} broke the ½ bound",
                kind.name()
            );
        }
        t.row(&[
            kind.name().to_string(),
            f(w, 1),
            f(100.0 * w / opt_weight, 2),
            m.cardinality().to_string(),
            f(secs, 4),
        ]);
    }
    t.print();
    println!("\nAll locally-dominant-family rows (greedy, ld-*) report the");
    println!("same weight: the matching is unique under the total edge order.");
}
