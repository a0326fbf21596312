//! A single entry point over all matching algorithms, used by the
//! aligners to swap exact and approximate rounding (the paper's central
//! experiment).

use crate::approx::{
    greedy_matching, parallel_local_dominant_traced, path_growing_matching, serial_local_dominant,
    InitStrategy, ParallelLdOptions,
};
use crate::exact::{auction_matching, max_weight_matching_ssp, AuctionOptions};
use crate::Matching;
use netalign_graph::BipartiteGraph;
use netalign_trace::MatcherCounters;

/// Which maximum-weight matching algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum MatcherKind {
    /// Exact: successive shortest augmenting paths with potentials.
    #[default]
    Exact,
    /// Global greedy ½-approximation (serial).
    Greedy,
    /// Serial pointer-based locally-dominant ½-approximation.
    LocalDominant,
    /// The paper's parallel queue-based locally-dominant
    /// ½-approximation, spawning from both vertex sets.
    ParallelLocalDominant,
    /// Parallel locally-dominant with the bipartite one-side
    /// initialization (§V, last paragraph).
    ParallelLocalDominantOneSide,
    /// Path-growing ½-approximation (Drake–Hougardy).
    PathGrowing,
    /// Bertsekas auction (near-exact baseline).
    Auction {
        /// ε as a fraction of the max weight; the gap to optimal is at
        /// most `cardinality · eps_rel · max_weight`.
        eps_rel: f64,
    },
}

impl MatcherKind {
    /// Short stable name, used in experiment output tables.
    pub fn name(&self) -> &'static str {
        match self {
            MatcherKind::Exact => "exact",
            MatcherKind::Greedy => "greedy",
            MatcherKind::LocalDominant => "ld-serial",
            MatcherKind::ParallelLocalDominant => "ld-parallel",
            MatcherKind::ParallelLocalDominantOneSide => "ld-parallel-1side",
            MatcherKind::PathGrowing => "path-growing",
            MatcherKind::Auction { .. } => "auction",
        }
    }

    /// The kind whose [`MatcherKind::name`] is `name`, or `None` for
    /// an unknown name. `"auction"` carries the default ε of
    /// [`AuctionOptions`].
    pub fn from_name(name: &str) -> Option<MatcherKind> {
        Some(match name {
            "exact" => MatcherKind::Exact,
            "greedy" => MatcherKind::Greedy,
            "ld-serial" => MatcherKind::LocalDominant,
            "ld-parallel" => MatcherKind::ParallelLocalDominant,
            "ld-parallel-1side" => MatcherKind::ParallelLocalDominantOneSide,
            "path-growing" => MatcherKind::PathGrowing,
            "auction" => MatcherKind::Auction {
                eps_rel: AuctionOptions::default().eps_rel,
            },
            _ => return None,
        })
    }

    /// True for the ½-approximate algorithms.
    pub fn is_approximate(&self) -> bool {
        matches!(
            self,
            MatcherKind::Greedy
                | MatcherKind::LocalDominant
                | MatcherKind::ParallelLocalDominant
                | MatcherKind::ParallelLocalDominantOneSide
                | MatcherKind::PathGrowing
        )
    }

    /// True for the matchers whose output is *the* locally-dominant
    /// matching, unique under the total edge order of [`crate::order`]:
    /// greedy and the three locally-dominant variants. Any one of them
    /// can stand in for another bit for bit.
    pub fn is_locally_dominant(&self) -> bool {
        matches!(
            self,
            MatcherKind::Greedy
                | MatcherKind::LocalDominant
                | MatcherKind::ParallelLocalDominant
                | MatcherKind::ParallelLocalDominantOneSide
        )
    }
}

/// Compute a maximum-weight matching of `l` under `weights` with the
/// chosen algorithm.
///
/// ```
/// use netalign_graph::BipartiteGraph;
/// use netalign_matching::{max_weight_matching, MatcherKind};
///
/// let l = BipartiteGraph::from_entries(2, 2, vec![
///     (0, 0, 2.0), (0, 1, 3.0), (1, 1, 2.0),
/// ]);
/// let exact = max_weight_matching(&l, l.weights(), MatcherKind::Exact);
/// assert_eq!(exact.weight_in(&l), 4.0); // (0,0) + (1,1)
///
/// // The ½-approximate matcher may settle for the heavy edge:
/// let approx = max_weight_matching(&l, l.weights(), MatcherKind::ParallelLocalDominant);
/// assert!(approx.weight_in(&l) * 2.0 >= exact.weight_in(&l));
/// ```
///
/// # Panics
/// Panics if `weights.len() != l.num_edges()`.
pub fn max_weight_matching(l: &BipartiteGraph, weights: &[f64], kind: MatcherKind) -> Matching {
    max_weight_matching_traced(l, weights, kind, MatcherCounters::disabled())
}

/// [`max_weight_matching`] with event counting for the parallel
/// locally-dominant family. Other matchers run unchanged and leave
/// `counters` untouched (their snapshots stay zero).
pub fn max_weight_matching_traced(
    l: &BipartiteGraph,
    weights: &[f64],
    kind: MatcherKind,
    counters: &MatcherCounters,
) -> Matching {
    match kind {
        MatcherKind::Exact => max_weight_matching_ssp(l, weights).0,
        MatcherKind::Greedy => greedy_matching(l, weights),
        MatcherKind::LocalDominant => serial_local_dominant(l, weights),
        MatcherKind::ParallelLocalDominant => parallel_local_dominant_traced(
            l,
            weights,
            ParallelLdOptions {
                init: InitStrategy::BothSides,
            },
            counters,
        ),
        MatcherKind::ParallelLocalDominantOneSide => parallel_local_dominant_traced(
            l,
            weights,
            ParallelLdOptions {
                init: InitStrategy::LeftSide,
            },
            counters,
        ),
        MatcherKind::PathGrowing => path_growing_matching(l, weights),
        MatcherKind::Auction { eps_rel } => {
            auction_matching(l, weights, AuctionOptions { eps_rel })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l() -> BipartiteGraph {
        BipartiteGraph::from_entries(
            3,
            3,
            vec![
                (0, 0, 2.0),
                (0, 1, 3.0),
                (1, 1, 2.0),
                (2, 2, 1.0),
                (1, 2, 0.5),
            ],
        )
    }

    #[test]
    fn every_kind_returns_valid_matching() {
        let l = l();
        for kind in [
            MatcherKind::Exact,
            MatcherKind::Greedy,
            MatcherKind::LocalDominant,
            MatcherKind::ParallelLocalDominant,
            MatcherKind::ParallelLocalDominantOneSide,
            MatcherKind::PathGrowing,
            MatcherKind::Auction { eps_rel: 1e-6 },
        ] {
            let m = max_weight_matching(&l, l.weights(), kind);
            assert!(
                m.is_valid(&l),
                "{} produced an invalid matching",
                kind.name()
            );
            assert!(m.weight_in(&l) > 0.0);
        }
    }

    #[test]
    fn exact_dominates_approximations() {
        let l = l();
        let opt = max_weight_matching(&l, l.weights(), MatcherKind::Exact).weight_in(&l);
        for kind in [
            MatcherKind::Greedy,
            MatcherKind::LocalDominant,
            MatcherKind::ParallelLocalDominant,
        ] {
            let w = max_weight_matching(&l, l.weights(), kind).weight_in(&l);
            assert!(w <= opt + 1e-12);
            assert!(w * 2.0 >= opt - 1e-12, "{} below half-approx", kind.name());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(MatcherKind::Exact.name(), "exact");
        assert_eq!(MatcherKind::ParallelLocalDominant.name(), "ld-parallel");
        assert!(MatcherKind::ParallelLocalDominant.is_approximate());
        assert!(!MatcherKind::Exact.is_approximate());
        assert!(!MatcherKind::Auction { eps_rel: 1e-6 }.is_approximate());
        assert!(MatcherKind::Greedy.is_locally_dominant());
        assert!(!MatcherKind::PathGrowing.is_locally_dominant());
        assert!(!MatcherKind::Exact.is_locally_dominant());
    }

    #[test]
    fn from_name_inverts_name() {
        for kind in [
            MatcherKind::Exact,
            MatcherKind::Greedy,
            MatcherKind::LocalDominant,
            MatcherKind::ParallelLocalDominant,
            MatcherKind::ParallelLocalDominantOneSide,
            MatcherKind::PathGrowing,
            MatcherKind::Auction { eps_rel: 1e-4 },
        ] {
            assert_eq!(MatcherKind::from_name(kind.name()), Some(kind));
        }
        for gone in ["ld", "suitor", "Exact", ""] {
            assert_eq!(MatcherKind::from_name(gone), None, "{gone}");
        }
    }
}
