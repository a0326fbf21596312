//! Property-based tests of the core alignment machinery.

use netalign_core::bp::othermax::{column_positions, othermax, vertex_stats_into};
use netalign_core::objective::{
    evaluate_indicator, evaluate_matching, evaluate_matching_with_scratch, EvalScratch,
};
use netalign_core::problem::NetAlignProblem;
use netalign_core::squares::SquaresMatrix;
use netalign_graph::{BipartiteGraph, Graph};
use netalign_matching::{max_weight_matching, MatcherKind, Matching};
use proptest::prelude::*;

/// Strategy: a small random alignment problem.
fn arb_problem() -> impl Strategy<Value = NetAlignProblem> {
    (3usize..9, 3usize..9).prop_flat_map(|(na, nb)| {
        let a_edges = proptest::collection::vec((0..na as u32, 0..na as u32), 0..2 * na);
        let b_edges = proptest::collection::vec((0..nb as u32, 0..nb as u32), 0..2 * nb);
        let l_entries =
            proptest::collection::vec((0..na as u32, 0..nb as u32, 0.01f64..4.0), 1..na * nb);
        (a_edges, b_edges, l_entries).prop_map(move |(ae, be, le)| {
            let a = Graph::from_edges(na, ae.into_iter().filter(|(u, v)| u != v));
            let b = Graph::from_edges(nb, be.into_iter().filter(|(u, v)| u != v));
            let l = BipartiteGraph::from_entries(na, nb, le);
            NetAlignProblem::new(a, b, l)
        })
    })
}

/// Values for the othermax oracles, drawn from a palette with ties,
/// both zeros, both infinities and NaN (which reaches pass 2 when the
/// numeric guards are off).
fn palette_values(m: usize, seed: u64) -> Vec<f64> {
    use rand::{Rng, SeedableRng};
    const PALETTE: [f64; 8] = [
        f64::NAN,
        f64::NEG_INFINITY,
        -2.5,
        -0.0,
        0.0,
        1.5,
        3.0,
        f64::INFINITY,
    ];
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..m)
        .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
        .collect()
}

/// Reference othermax over the sibling edges of one edge: the first of
/// the largest sibling values under strict `>` scans (not `f64::max`,
/// whose result on `±0` Rust leaves unspecified; NaN never wins),
/// unclamped, and clamped at `+0.0`.
fn othermax_reference(g: &[f64], siblings: impl Iterator<Item = usize>) -> (f64, f64) {
    let mut best = f64::NEG_INFINITY;
    for f in siblings {
        if g[f] > best {
            best = g[f];
        }
    }
    (best, if best > 0.0 { best } else { 0.0 })
}

/// Oracle: count squares by exhaustive enumeration.
fn squares_oracle(p: &NetAlignProblem) -> usize {
    let mut count = 0;
    for (i, ip, _) in p.l.edge_iter() {
        for (j, jp, f) in p.l.edge_iter() {
            let e = p.l.edge_id(i, ip).unwrap();
            if e != f && p.a.has_edge(i, j) && p.b.has_edge(ip, jp) {
                count += 1;
            }
        }
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn squares_matrix_matches_exhaustive_enumeration(p in arb_problem()) {
        prop_assert_eq!(p.s.nnz(), squares_oracle(&p));
        // symmetry + empty diagonal
        prop_assert!(p.s.pattern().is_structurally_symmetric());
        for e in 0..p.l.num_edges() {
            prop_assert!(!p.s.row_cols(e).contains(&(e as u32)));
        }
    }

    /// The indicator, allocating and scratch evaluations agree bit for
    /// bit on the empty matching, every matcher's matching and random
    /// matchings that take edges whose row of `S` is empty, and each
    /// scratch evaluation leaves the scratch all-clear.
    #[test]
    fn objective_paths_agree_for_every_matcher(p in arb_problem(), seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let (na, nb) = (p.l.num_left(), p.l.num_right());
        let mut matchings = vec![Matching::empty(na, nb)];
        for kind in [MatcherKind::Exact, MatcherKind::ParallelLocalDominant, MatcherKind::Greedy] {
            matchings.push(max_weight_matching(&p.l, p.l.weights(), kind));
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..4 {
            // Empty-row edges go first so most matchings hold one.
            let mut order: Vec<(bool, u32, usize)> = p
                .l
                .edge_iter()
                .map(|(_, _, e)| (!p.s.row_cols(e).is_empty(), rng.gen(), e))
                .collect();
            order.sort_unstable();
            let mut m = Matching::empty(na, nb);
            for (_, _, e) in order {
                let (a, b) = p.l.endpoints(e);
                if m.mate_of_left(a).is_none() && m.mate_of_right(b).is_none() && rng.gen_bool(0.6) {
                    m.add_pair(a, b);
                }
            }
            matchings.push(m);
        }
        let mut scratch = EvalScratch::new(&p.l);
        for m in &matchings {
            let (alpha, beta) = (0.7, 2.0);
            let via_indicator = evaluate_indicator(&p, &m.indicator(&p.l), alpha, beta);
            let via_matching = evaluate_matching(&p, m, alpha, beta);
            let via_scratch = evaluate_matching_with_scratch(&p, m, alpha, beta, &mut scratch);
            for v in [via_matching, via_scratch] {
                prop_assert_eq!(v.weight.to_bits(), via_indicator.weight.to_bits());
                prop_assert_eq!(v.overlap.to_bits(), via_indicator.overlap.to_bits());
                prop_assert_eq!(v.total.to_bits(), via_indicator.total.to_bits());
            }
            prop_assert!(scratch == EvalScratch::new(&p.l), "scratch left dirty");
            prop_assert!(via_matching.overlap.fract() == 0.0 || via_matching.overlap.fract() == 0.5);
        }
    }

    #[test]
    fn overlap_is_symmetric_in_problem_orientation(p in arb_problem()) {
        // Swapping A<->B and transposing L preserves objective values of
        // the mirrored matching.
        let m = max_weight_matching(&p.l, p.l.weights(), MatcherKind::Exact);
        let v = evaluate_matching(&p, &m, 1.0, 2.0);
        // mirrored problem
        let lt = BipartiteGraph::from_entries(
            p.l.num_right(),
            p.l.num_left(),
            p.l.edge_iter().map(|(a, b, e)| (b, a, p.l.weight(e))),
        );
        let pm = NetAlignProblem::new(p.b.clone(), p.a.clone(), lt);
        let mm = netalign_matching::Matching::from_mates(
            m.right_mates().to_vec(),
            m.left_mates().to_vec(),
        );
        let vm = evaluate_matching(&pm, &mm, 1.0, 2.0);
        prop_assert!((v.total - vm.total).abs() < 1e-9);
        prop_assert!((v.overlap - vm.overlap).abs() < 1e-9);
    }

    #[test]
    fn othermax_row_oracle(p in arb_problem(), seed in 0u64..100) {
        let g = palette_values(p.l.num_edges(), seed);
        let mut rows = vec![(0.0, 0.0, 0usize); p.l.num_left()];
        let mut cols = vec![(0.0, 0.0, 0usize); p.l.num_right()];
        vertex_stats_into(&p.l, &g, &g, &mut rows, &mut cols, 1000);
        for (a, _, e) in p.l.edge_iter() {
            let (max1, max2, arg) = rows[a as usize];
            let pos = e - p.l.left_range(a).start;
            let siblings = p.l.left_edges(a).map(|(_, f)| f).filter(|&f| f != e);
            let (best, expect) = othermax_reference(&g, siblings);
            let unclamped = if pos == arg { max2 } else { max1 };
            prop_assert_eq!(unclamped.to_bits(), best.to_bits(), "edge {}", e);
            let got = othermax(rows[a as usize], pos);
            prop_assert_eq!(got.to_bits(), expect.to_bits(), "edge {}: got {} want {}", e, got, expect);
        }
    }

    #[test]
    fn othermax_col_oracle(p in arb_problem(), seed in 100u64..200) {
        let g = palette_values(p.l.num_edges(), seed);
        let pos = column_positions(&p.l);
        let mut rows = vec![(0.0, 0.0, 0usize); p.l.num_left()];
        let mut cols = vec![(0.0, 0.0, 0usize); p.l.num_right()];
        vertex_stats_into(&p.l, &g, &g, &mut rows, &mut cols, 1000);
        for (_, b, e) in p.l.edge_iter() {
            let (max1, max2, arg) = cols[b as usize];
            let siblings = p.l.right_edges(b).map(|(_, f)| f).filter(|&f| f != e);
            let (best, expect) = othermax_reference(&g, siblings);
            let unclamped = if pos[e] as usize == arg { max2 } else { max1 };
            prop_assert_eq!(unclamped.to_bits(), best.to_bits(), "edge {}", e);
            let got = othermax(cols[b as usize], pos[e] as usize);
            prop_assert_eq!(got.to_bits(), expect.to_bits(), "edge {}: got {} want {}", e, got, expect);
        }
    }

    #[test]
    fn quadratic_form_equals_dense(p in arb_problem(), seed in 200u64..260) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let m = p.l.num_edges();
        let x: Vec<f64> = (0..m).map(|_| if rng.gen_bool(0.5) { 1.0 } else { 0.0 }).collect();
        let fast = p.s.quadratic_form(&x);
        let mut slow = 0.0;
        for e in 0..m {
            for &f in p.s.row_cols(e) {
                slow += x[e] * x[f as usize];
            }
        }
        prop_assert!((fast - slow).abs() < 1e-9);
    }

    #[test]
    fn transpose_perm_transposes_values(p in arb_problem(), seed in 300u64..360) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let s: &SquaresMatrix = &p.s;
        let vals: Vec<f64> = (0..s.nnz()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut t = vec![0.0; s.nnz()];
        s.transpose_vals_into(&vals, &mut t);
        // check entry (e,f) of transpose equals (f,e) of original
        for e in 0..s.dim() {
            let range = s.row_range(e);
            for (off, &f) in s.row_cols(e).iter().enumerate() {
                let orig_idx = s
                    .pattern()
                    .find_entry(f as usize, e as u32)
                    .expect("symmetric pattern");
                prop_assert_eq!(t[range.start + off], vals[orig_idx]);
            }
        }
    }
}
