//! Out-of-core BP vs the in-core engine: bit-identity contract.
//!
//! The out-of-core path (crate::oocore) reformulates the nnz sweeps
//! around an explicit transpose-companion stream so they become
//! strictly sequential over spilled storage. Every f64 operation is
//! supposed to consume bit-identical operands in the same order as
//! the in-core kernels — these tests pin that, across thread pools,
//! superblock sizes, and rounding configurations, on instances built
//! both in-core and through the streaming NACS builder.

use netalign_core::config::AlignConfig;
use netalign_core::oocore::{belief_propagation_ooc, OocOptions};
use netalign_core::prelude::*;
use netalign_core::squares::SquaresMatrix;
use netalign_graph::generators::{lcsh_like, LcshLikeConfig};
use netalign_graph::{BipartiteGraph, Graph};
use proptest::prelude::*;
use std::path::PathBuf;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("netalign-oocore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A small instance whose squares matrix is dense enough (confusion
/// wedges) that superblock sweeps actually split the pattern.
fn dense_instance(seed: u64) -> (Graph, Graph, BipartiteGraph) {
    let cfg = LcshLikeConfig {
        va: 260,
        vb: 200,
        ea: 600,
        eb: 700,
        el: 2600,
        exponent: 2.0,
        edge_retention: 0.9,
        l_coverage: 0.9,
        confusion: 0.7,
        max_deg: 40,
    };
    let inst = lcsh_like(&cfg, seed);
    (inst.a, inst.b, inst.l)
}

fn assert_bit_identical(r: &AlignmentResult, reference: &AlignmentResult, label: &str) {
    assert_eq!(
        r.objective.to_bits(),
        reference.objective.to_bits(),
        "{label}: objective"
    );
    assert_eq!(r.matching, reference.matching, "{label}: matching");
    assert_eq!(
        r.best_iteration, reference.best_iteration,
        "{label}: best iteration"
    );
    assert_eq!(r.history.len(), reference.history.len(), "{label}: history");
    for (h, rh) in r.history.iter().zip(&reference.history) {
        assert_eq!(h.iteration, rh.iteration, "{label}: history iteration");
        assert_eq!(
            h.objective.to_bits(),
            rh.objective.to_bits(),
            "{label}: history objective"
        );
    }
}

/// The core contract: streaming-built, memory-mapped, superblock-swept
/// BP reproduces the in-core run bit-for-bit at pools {1, 2, 4, 8}
/// and at superblock sizes from degenerate to single-sweep.
#[test]
fn ooc_is_bit_identical_to_in_core_across_pools() {
    let (a, b, l) = dense_instance(11);
    let cfg = AlignConfig {
        iterations: 10,
        batch: 2,
        record_history: true,
        ..Default::default()
    };
    let reference =
        belief_propagation(&NetAlignProblem::new(a.clone(), b.clone(), l.clone()), &cfg);

    let dir = scratch("pools");
    let s = SquaresMatrix::build_streaming(&a, &b, &l, &dir.join("s.nacs"), 1 << 16).unwrap();
    let nnz = s.nnz();
    assert!(nnz > 4_000, "instance too sparse to exercise sweeps: {nnz}");
    let mapped = NetAlignProblem::from_parts(a, b, l, s);

    for threads in [1, 2, 4, 8] {
        for sb_entries in [257, nnz / 3, nnz] {
            let opts = OocOptions::new(&dir).with_superblock_entries(sb_entries.max(1));
            let r = pool(threads)
                .install(|| belief_propagation_ooc(&mapped, &cfg, &opts))
                .unwrap();
            assert_bit_identical(&r, &reference, &format!("pool {threads}, sb {sb_entries}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Greedy rounding through the out-of-core sweeps also matches —
/// rounding only ever sees m-sized iterates, and any bit drift
/// upstream would change which matching it picks.
#[test]
fn ooc_engine_rounding_matches_in_core() {
    let (a, b, l) = dense_instance(12);
    let cfg = AlignConfig {
        iterations: 8,
        matcher: MatcherKind::Greedy,
        record_history: true,
        ..Default::default()
    };
    let reference =
        belief_propagation(&NetAlignProblem::new(a.clone(), b.clone(), l.clone()), &cfg);
    let dir = scratch("rounding");
    let s = SquaresMatrix::build_streaming(&a, &b, &l, &dir.join("s.nacs"), 1 << 16).unwrap();
    let sb = s.nnz() / 5;
    let mapped = NetAlignProblem::from_parts(a, b, l, s);
    let opts = OocOptions::new(&dir).with_superblock_entries(sb.max(1));
    let r = belief_propagation_ooc(&mapped, &cfg, &opts).unwrap();
    assert_bit_identical(&r, &reference, "engine rounding");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A mapped squares matrix behind the *unchanged* in-core engines:
/// `CsrView` serves the same accessor surface, so `belief_propagation`
/// and `matching_relaxation` run on it untouched and bit-identically.
#[test]
fn mapped_s_with_in_core_engines_is_bit_identical() {
    let (a, b, l) = dense_instance(13);
    let p_incore = NetAlignProblem::new(a.clone(), b.clone(), l.clone());
    let dir = scratch("mapped");
    p_incore.s.write_nacs(&dir.join("s.nacs")).unwrap();
    let view = netalign_graph::nacs::CsrView::open(&dir.join("s.nacs")).unwrap();
    let p_mapped = NetAlignProblem::from_parts(a, b, l, SquaresMatrix::from_mapped(view).unwrap());

    let bp_cfg = AlignConfig {
        iterations: 8,
        record_history: true,
        ..Default::default()
    };
    let bp_ref = belief_propagation(&p_incore, &bp_cfg);
    let bp_map = belief_propagation(&p_mapped, &bp_cfg);
    assert_bit_identical(&bp_map, &bp_ref, "bp on mapped S");

    let mr_cfg = AlignConfig {
        iterations: 6,
        ..Default::default()
    };
    let mr_ref = matching_relaxation(&p_incore, &mr_cfg);
    let mr_map = matching_relaxation(&p_mapped, &mr_cfg);
    assert_eq!(mr_map.objective.to_bits(), mr_ref.objective.to_bits());
    assert_eq!(mr_map.matching, mr_ref.matching);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Budget gating: a budget below the working-set baseline is refused
/// up front with `BudgetTooSmall`, never a thrashing run.
#[test]
fn undersized_budget_is_rejected() {
    let (a, b, l) = dense_instance(14);
    let dir = scratch("budget");
    let s = SquaresMatrix::build_streaming(&a, &b, &l, &dir.join("s.nacs"), 1 << 16).unwrap();
    let p = NetAlignProblem::from_parts(a, b, l, s);
    let opts = OocOptions::new(&dir).with_budget_mb(4);
    match belief_propagation_ooc(&p, &AlignConfig::default(), &opts) {
        Err(OocError::BudgetTooSmall { .. }) => {}
        other => panic!("expected BudgetTooSmall, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Out-of-core BP demands a mapped squares matrix.
#[test]
fn in_core_s_is_rejected() {
    let (a, b, l) = dense_instance(15);
    let p = NetAlignProblem::new(a, b, l);
    let opts = OocOptions::new(scratch("notmapped"));
    match belief_propagation_ooc(&p, &AlignConfig::default(), &opts) {
        Err(OocError::Unsupported(_)) => {}
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form of the contract: random small instances, random
    /// superblock sizes and pools — NACS round-trip plus the
    /// out-of-core sweeps reproduce the in-core solve bit-for-bit.
    #[test]
    fn ooc_solve_matches_in_core_on_random_instances(
        seed in 0u64..1u64 << 16,
        threads_exp in 0u32..4,
        sb_shift in 0u32..10,
        iterations in 4usize..9,
    ) {
        let cfg = LcshLikeConfig {
            va: 120,
            vb: 100,
            ea: 260,
            eb: 300,
            el: 900,
            exponent: 2.0,
            edge_retention: 0.9,
            l_coverage: 0.9,
            confusion: 0.6,
            max_deg: 30,
        };
        let threads = 1usize << threads_exp; // pools 1, 2, 4, 8
        let inst = lcsh_like(&cfg, seed);
        let (a, b, l) = (inst.a, inst.b, inst.l);
        let align = AlignConfig {
            iterations,
            record_history: true,
            ..Default::default()
        };
        let reference =
            belief_propagation(&NetAlignProblem::new(a.clone(), b.clone(), l.clone()), &align);
        let dir = scratch(&format!("prop-{seed}-{threads_exp}-{sb_shift}"));
        let s = SquaresMatrix::build_streaming(&a, &b, &l, &dir.join("s.nacs"), 4096).unwrap();
        let sb_entries = (s.nnz() >> sb_shift).max(64);
        let mapped = NetAlignProblem::from_parts(a, b, l, s);
        let opts = OocOptions::new(&dir).with_superblock_entries(sb_entries);
        let r = pool(threads)
            .install(|| belief_propagation_ooc(&mapped, &align, &opts))
            .unwrap();
        assert_bit_identical(&r, &reference, "proptest instance");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
