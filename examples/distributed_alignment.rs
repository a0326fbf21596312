//! Distributed-memory alignment (paper §IX future work): run belief
//! propagation across worker processes over localhost TCP — a halo
//! exchange for the `Sᵀ` gather, a two-superstep othermax merge, and
//! the message-passing locally-dominant matcher for rounding — and
//! verify the result agrees with the shared-memory implementation
//! exactly.
//!
//! Run with: `cargo run --release --example distributed_alignment [-- workers]`

use netalignmc::core::dist::{align_distributed, maybe_run_worker, DistConfig};
use netalignmc::data::standins::StandIn;
use netalignmc::prelude::*;
use std::time::Instant;

fn main() {
    // The coordinator spawns its workers from this executable; a
    // spawned worker serves the run here and exits.
    maybe_run_worker();

    let workers: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("workers must be an integer"))
        .unwrap_or(4);

    let inst = StandIn::DmelaScere.generate(0.1, 21);
    let (va, vb, el, nnz) = inst.problem.shape();
    println!("dmela-scere stand-in: |V_A|={va} |V_B|={vb} |E_L|={el} nnz(S)={nnz}");

    let cfg = AlignConfig {
        iterations: 15,
        batch: 5,
        matcher: MatcherKind::ParallelLocalDominant,
        ..Default::default()
    };

    let t0 = Instant::now();
    let shared = belief_propagation(&inst.problem, &cfg);
    let t_shared = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let dist = align_distributed(&inst.problem, &cfg, &DistConfig::new(workers))
        .unwrap_or_else(|e| panic!("distributed run failed: {e}"))
        .result;
    let t_dist = t0.elapsed().as_secs_f64();

    println!(
        "\nshared-memory BP : objective {:.1} ({t_shared:.2}s)",
        shared.objective
    );
    println!(
        "distributed  BP  : objective {:.1} ({t_dist:.2}s, {workers} worker processes)",
        dist.objective
    );
    assert_eq!(
        shared.objective.to_bits(),
        dist.objective.to_bits(),
        "results must agree bit-for-bit"
    );
    assert_eq!(shared.matching, dist.matching);
    println!("\nresults are bit-identical: the BSP decomposition performs the same");
    println!("floating-point operations in the same order, and the distributed");
    println!("matcher returns the same (unique) locally-dominant matching.");
    println!("\n(On one machine the workers pay process and loopback overhead; the");
    println!("point is the communication structure a cluster run would use.)");
}
