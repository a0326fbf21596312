//! An oracle for BP's iteration that shares no code with the engine:
//! a naive, test-local Listing 2 written straight from the paper, one
//! step at a time, compared bit for bit with the engine's committed
//! iterate after each of the first iterations at several pool sizes.
//!
//! The engine computes Listing 2 as three fused passes (see
//! `netalign_core::bp`), and the out-of-core engine shares the third;
//! `oocore.rs` only shows the two engines agree with each other. This
//! file shows they agree with the formulas:
//!
//! 1. `F = bound₀^β(β·S + S⁽ᵏ⁻¹⁾ᵀ)`, the transpose entry found by
//!    scanning its row of the pattern;
//! 2. `d = α·w + F·e`, summed in row order;
//! 3. `y = d − othermaxcol(z⁽ᵏ⁻¹⁾)`, `z = d − othermaxrow(y⁽ᵏ⁻¹⁾)`,
//!    each othermax a scan of the vertex's edges;
//! 4. `S⁽ᵏ⁾ = (y + z − d) − F` row by row;
//! 5. damping `γᵏ·x + (1 − γᵏ)·x⁽ᵏ⁻¹⁾` of all three, and the numeric
//!    guard: a non-finite iterate is dropped and `γ` halves.
//!
//! Fault plans are process-global, so every test here holds
//! `faults::test_lock`.

use netalign_core::bp::BpEngine;
use netalign_core::config::{AlignConfig, DampingKind};
use netalign_core::problem::NetAlignProblem;
use netalign_core::trace::faults;
use netalign_data::standins::StandIn;

const ITERATIONS: usize = 6;

/// One BP iterate: messages over `E_L`, `S⁽ᵏ⁾` over the pattern.
#[derive(Clone)]
struct Iterate {
    y: Vec<f64>,
    z: Vec<f64>,
    sk: Vec<f64>,
}

/// The largest `g` over the edges `siblings` other than `e`, clamped
/// at zero (`bound₀` of the paper's othermax).
fn others_max(siblings: impl Iterator<Item = usize>, e: usize, g: &[f64]) -> f64 {
    siblings
        .filter(|&s| s != e)
        .map(|s| g[s])
        .fold(f64::NEG_INFINITY, f64::max)
        .max(0.0)
}

/// Listing 2 steps 1–5 from `prev` with fresh-message weight `gk`.
fn reference_step(p: &NetAlignProblem, cfg: &AlignConfig, gk: f64, prev: &Iterate) -> Iterate {
    let (alpha, beta) = (cfg.alpha, cfg.beta);
    let (l, s) = (&p.l, &p.s);
    let (rowptr, colidx, perm) = (s.rowptr(), s.colidx(), s.transpose_perm_slice());
    let (m, w) = (l.num_edges(), l.weights());

    // Steps 1 and 2.
    let mut f = vec![0.0; s.nnz()];
    let mut d = vec![0.0; m];
    for e in 0..m {
        let mut acc = 0.0;
        for idx in rowptr[e]..rowptr[e + 1] {
            let c = colidx[idx] as usize;
            let t = (rowptr[c]..rowptr[c + 1])
                .find(|&j| colidx[j] as usize == e)
                .expect("S is structurally symmetric");
            assert_eq!(t, perm[idx], "transpose permutation of entry {idx}");
            f[idx] = (beta + prev.sk[t]).clamp(0.0, beta);
            acc += f[idx];
        }
        d[e] = alpha * w[e] + acc;
    }

    // Steps 3–5.
    let mut next = Iterate {
        y: vec![0.0; m],
        z: vec![0.0; m],
        sk: vec![0.0; s.nnz()],
    };
    for e in 0..m {
        let (a, b) = l.endpoints(e);
        let omc = others_max(l.right_edges(b).map(|(_, s)| s), e, &prev.z);
        let omr = others_max(l.left_edges(a).map(|(_, s)| s), e, &prev.y);
        let y = d[e] - omc;
        let z = d[e] - omr;
        let scale = y + z - d[e];
        next.y[e] = gk * y + (1.0 - gk) * prev.y[e];
        next.z[e] = gk * z + (1.0 - gk) * prev.z[e];
        for idx in rowptr[e]..rowptr[e + 1] {
            let s_new = scale - f[idx];
            next.sk[idx] = gk * s_new + (1.0 - gk) * prev.sk[idx];
        }
    }
    next
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Step the engine and the reference side by side for `ITERATIONS`
/// iterations at pool size `threads`, injecting a NaN into `y` after
/// damping at iteration `nan_at`, and compare the committed iterate
/// and damping base bit for bit after every step.
fn check_against_reference(p: &NetAlignProblem, threads: usize, nan_at: Option<usize>) {
    let cfg = AlignConfig {
        iterations: ITERATIONS,
        damping: DampingKind::Power,
        ..Default::default()
    };
    let m = p.l.num_edges();
    let mut reference = Iterate {
        y: vec![0.0; m],
        z: vec![0.0; m],
        sk: vec![0.0; p.s.nnz()],
    };
    let mut gamma = cfg.gamma;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let mut engine = BpEngine::new(p, &cfg);
        for k in 1..=ITERATIONS {
            engine.step();
            engine.discard_pending();

            let mut next = reference_step(p, &cfg, gamma.powi(k as i32), &reference);
            if nan_at == Some(k) {
                next.y[0] = f64::NAN;
            }
            let finite = next.y.iter().chain(&next.z).chain(&next.sk);
            if finite.clone().all(|x| x.is_finite()) {
                reference = next;
            } else {
                gamma *= 0.5;
            }

            let state = engine.checkpoint_state();
            let at = format!("pool {threads}, iteration {k}");
            assert_eq!(state.k, k, "{at}: iteration count");
            assert_eq!(state.gamma.to_bits(), gamma.to_bits(), "{at}: damping base");
            assert!(bits(&state.y) == bits(&reference.y), "{at}: y differs");
            assert!(bits(&state.z) == bits(&reference.z), "{at}: z differs");
            assert!(bits(&state.sk) == bits(&reference.sk), "{at}: S differs");
        }
    });
}

fn instances() -> Vec<(&'static str, NetAlignProblem)> {
    vec![
        // 1486 × 1030 vertices: both statistics passes split into
        // several chunks, and the pattern into several span groups.
        ("lcsh-wiki", StandIn::LcshWiki.generate(0.005, 7).problem),
        ("dmela-scere", StandIn::DmelaScere.generate(0.1, 3).problem),
    ]
}

#[test]
fn engine_iterates_match_the_naive_listing_2_at_every_pool_size() {
    let _guard = faults::test_lock();
    for (name, p) in instances() {
        for threads in [1, 2, 4] {
            eprintln!("{name}: pool {threads}");
            check_against_reference(&p, threads, None);
        }
    }
}

#[test]
fn injected_nan_rolls_back_like_the_naive_guard() {
    let _guard = faults::test_lock();
    let (name, p) = instances().swap_remove(0);
    for threads in [1, 2] {
        eprintln!("{name}: pool {threads}, NaN at iteration 3");
        faults::install(faults::plan_from_env_pairs(&[(
            "NETALIGN_FAULT_NAN",
            "bp.damping@3",
        )]));
        let outcome = std::panic::catch_unwind(|| check_against_reference(&p, threads, Some(3)));
        faults::clear();
        if let Err(e) = outcome {
            std::panic::resume_unwind(e);
        }
    }
}
