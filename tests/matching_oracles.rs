//! Property-based cross-validation of the matching algorithms:
//! the exact solver against brute force and its own duality
//! certificate; the locally-dominant family against each other and the
//! ½-approximation bound.

use netalignmc::graph::BipartiteGraph;
use netalignmc::matching::approx::{
    greedy_matching, parallel_local_dominant, path_growing_matching, serial_local_dominant,
    InitStrategy, ParallelLdOptions,
};
use netalignmc::matching::exact::{
    auction_matching, brute_force_matching, hungarian_matching, max_weight_matching_ssp,
    verify_optimality, AuctionOptions,
};
use netalignmc::matching::order::certifies_greedy;
use proptest::prelude::*;

/// Strategy: a random small weighted bipartite graph.
fn small_bipartite() -> impl Strategy<Value = BipartiteGraph> {
    (2usize..8, 2usize..8).prop_flat_map(|(na, nb)| {
        proptest::collection::vec((0..na as u32, 0..nb as u32, 0.0f64..10.0), 0..na * nb)
            .prop_map(move |entries| BipartiteGraph::from_entries(na, nb, entries))
    })
}

/// Strategy: weights that may be negative or tied.
fn rough_bipartite() -> impl Strategy<Value = BipartiteGraph> {
    (2usize..10, 2usize..10).prop_flat_map(|(na, nb)| {
        proptest::collection::vec((0..na as u32, 0..nb as u32, -2i32..8), 1..na * nb).prop_map(
            move |entries| {
                BipartiteGraph::from_entries(
                    na,
                    nb,
                    entries.into_iter().map(|(a, b, w)| (a, b, w as f64)),
                )
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ssp_matches_brute_force(l in small_bipartite()) {
        let (m, cert) = max_weight_matching_ssp(&l, l.weights());
        let val = verify_optimality(&l, l.weights(), &m, &cert).unwrap();
        let (brute_val, _) = brute_force_matching(&l, l.weights());
        prop_assert!((val - brute_val).abs() < 1e-9, "ssp {val} vs brute {brute_val}");
    }

    #[test]
    fn ssp_handles_negative_and_tied_weights(l in rough_bipartite()) {
        let (m, cert) = max_weight_matching_ssp(&l, l.weights());
        let val = verify_optimality(&l, l.weights(), &m, &cert).unwrap();
        let (brute_val, _) = brute_force_matching(&l, l.weights());
        prop_assert!((val - brute_val).abs() < 1e-9);
        // no matched edge has non-positive weight
        for (a, b) in m.pairs() {
            let e = l.edge_id(a, b).unwrap();
            prop_assert!(l.weight(e) > 0.0);
        }
    }

    #[test]
    fn locally_dominant_family_agrees(l in rough_bipartite()) {
        let gr = greedy_matching(&l, l.weights());
        let ser = serial_local_dominant(&l, l.weights());
        let par = parallel_local_dominant(&l, l.weights(), ParallelLdOptions::default());
        let par1 = parallel_local_dominant(
            &l,
            l.weights(),
            ParallelLdOptions { init: InitStrategy::LeftSide },
        );
        prop_assert_eq!(&gr, &ser);
        prop_assert_eq!(&gr, &par);
        prop_assert_eq!(&gr, &par1);
        // The code-independent oracle: the agreed matching is the
        // greedy one, certified against the problem alone.
        prop_assert!(certifies_greedy(&l, l.weights(), &gr));
    }

    #[test]
    fn hungarian_agrees_with_ssp(l in rough_bipartite()) {
        let (ssp, cert) = max_weight_matching_ssp(&l, l.weights());
        let ssp_val = verify_optimality(&l, l.weights(), &ssp, &cert).unwrap();
        let hung = hungarian_matching(&l, l.weights());
        prop_assert!((hung.weight_in(&l) - ssp_val).abs() < 1e-9);
    }

    #[test]
    fn path_growing_respects_half_bound(l in rough_bipartite()) {
        let m = path_growing_matching(&l, l.weights());
        prop_assert!(m.is_valid(&l));
        let (opt, _) = max_weight_matching_ssp(&l, l.weights());
        prop_assert!(m.weight_in(&l) * 2.0 >= opt.weight_in(&l) - 1e-9);
    }

    #[test]
    fn half_approximation_bound_holds(l in rough_bipartite()) {
        let par = parallel_local_dominant(&l, l.weights(), ParallelLdOptions::default());
        prop_assert!(par.is_valid(&l));
        prop_assert!(par.is_maximal(&l, l.weights()));
        let (opt, _) = max_weight_matching_ssp(&l, l.weights());
        prop_assert!(par.weight_in(&l) * 2.0 >= opt.weight_in(&l) - 1e-9);
    }

    #[test]
    fn auction_respects_its_gap_bound(l in small_bipartite()) {
        let eps_rel = 1e-4;
        let m = auction_matching(&l, l.weights(), AuctionOptions { eps_rel });
        prop_assert!(m.is_valid(&l));
        let (opt, _) = max_weight_matching_ssp(&l, l.weights());
        let max_w = l.weights().iter().fold(0.0f64, |a, &w| a.max(w));
        let bound = m.cardinality().max(1) as f64 * eps_rel * max_w;
        prop_assert!(opt.weight_in(&l) - m.weight_in(&l) <= bound + 1e-9);
    }

    #[test]
    fn matchings_never_exceed_the_optimum(l in rough_bipartite()) {
        let (opt, cert) = max_weight_matching_ssp(&l, l.weights());
        let opt_w = verify_optimality(&l, l.weights(), &opt, &cert).unwrap();
        for m in [
            greedy_matching(&l, l.weights()),
            serial_local_dominant(&l, l.weights()),
            parallel_local_dominant(&l, l.weights(), ParallelLdOptions::default()),
        ] {
            prop_assert!(m.weight_in(&l) <= opt_w + 1e-9);
        }
    }
}
