//! Network alignment heuristics — the primary contribution of the
//! SC'12 paper *"A multithreaded algorithm for network alignment via
//! approximate matching"* (Khan, Gleich, Pothen, Halappanavar).
//!
//! Given two undirected graphs `A`, `B` and a weighted bipartite
//! candidate graph `L` between their vertex sets, network alignment
//! seeks a matching `x` in `L` maximizing
//!
//! ```text
//!     α · wᵀx  +  (β/2) · xᵀ S x
//! ```
//!
//! where `S` is the *squares* matrix: `S[(i,i'),(j,j')] = 1` iff
//! `(i,j) ∈ E_A` and `(i',j') ∈ E_B` (an *overlapped* edge pair).
//!
//! This crate implements both heuristics the paper parallelizes:
//!
//! * [`bp`] — belief propagation message passing (Listing 2), with
//!   batched rounding `BP(batch=r)`;
//! * [`mr`] — Klau's matching relaxation / Lagrangian subgradient
//!   method (Listing 1);
//!
//! plus the machinery they share: [`squares`] (building `S`),
//! [`objective`], [`rounding`] (the `round_heuristic` of Table I with a
//! pluggable exact/approximate matcher), run observability ([`trace`]:
//! per-step spans, matcher counters, JSON reports), fault tolerance
//! ([`checkpoint`]: versioned engine snapshots; [`harness`]:
//! checkpointed + resumable runs), and the run [`config`] /
//! [`result`] types.
//!
//! # Quickstart
//!
//! ```
//! use netalign_core::prelude::*;
//! use netalign_graph::{Graph, BipartiteGraph};
//!
//! // Two triangles and a noisy candidate graph between them.
//! let a = Graph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
//! let b = Graph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
//! let l = BipartiteGraph::from_entries(3, 3, vec![
//!     (0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (0, 1, 1.0),
//! ]);
//! let problem = NetAlignProblem::new(a, b, l);
//! let config = AlignConfig { iterations: 20, ..AlignConfig::default() };
//! let result = belief_propagation(&problem, &config);
//! assert_eq!(result.matching.cardinality(), 3);
//! assert_eq!(result.overlap, 3.0); // all three edges overlap
//! ```

pub mod baselines;
pub mod bp;
pub mod checkpoint;
pub mod config;
pub mod delta;
pub mod dist;
pub mod exitcode;
pub mod frame;
pub mod harness;
pub mod mr;
pub mod objective;
pub mod oocore;
pub mod pareto;
pub mod problem;
pub mod result;
pub mod rounding;
pub mod rowspans;
pub mod squares;
pub mod trace;

pub mod prelude {
    //! Convenient re-exports of the most used items.
    pub use crate::baselines::{isorank, naive_rounding, nsd, IsoRankConfig, NsdConfig};
    pub use crate::bp::belief_propagation;
    pub use crate::checkpoint::{CheckpointError, EngineKind};
    pub use crate::config::{AlignConfig, CheckpointPolicy, TimeBudget};
    pub use crate::harness::{AlignOutcome, Completion, DeadlinePolicy, HarnessError, RunHarness};
    pub use crate::mr::matching_relaxation;
    pub use crate::oocore::{align_streaming, belief_propagation_ooc, OocError, OocOptions};
    pub use crate::problem::NetAlignProblem;
    pub use crate::result::AlignmentResult;
    pub use crate::trace::cancel::{CancelReason, CancelToken};
    pub use netalign_matching::MatcherKind;
}

pub use bp::belief_propagation;
pub use config::AlignConfig;
pub use mr::matching_relaxation;
pub use problem::NetAlignProblem;
pub use result::AlignmentResult;
