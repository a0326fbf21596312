//! Maximum-weight bipartite matching algorithms.
//!
//! The SC'12 paper replaces the exact bipartite matching inside network
//! alignment by a parallel half-approximate *locally-dominant* matching.
//! This crate provides the full menagerie:
//!
//! * [`exact`] — an optimal sparse solver (successive shortest
//!   augmenting paths with dual potentials, LEDA-style), a dense
//!   brute-force oracle for testing, and an auction algorithm.
//! * [`approx`] — half-approximations: global greedy, the serial
//!   pointer-based locally-dominant algorithm (Preis / Manne–Bisseling),
//!   the paper's parallel queue-based variant (Algorithms 1–3) with
//!   the optional one-side bipartite initialization, and path growing.
//! * [`MatcherEngine`] — the rounding matcher the aligners build once
//!   per run from their configured [`MatcherKind`].
//! * [`Matching`] — the result type: mate arrays over both sides plus
//!   weight/validation helpers and the 0/1 indicator vector used by the
//!   aligners.
//!
//! All algorithms share one deterministic total order on edges
//! ([`order::edge_key`]): weight first, then endpoint ids. Under that
//! order the locally-dominant matching is *unique* and equals the greedy
//! matching, which the test-suite exploits as a cross-implementation
//! oracle (serial LD == parallel LD == greedy, for every schedule) and
//! checks against the problem alone with [`order::certifies_greedy`].
//!
//! Only edges with strictly positive weight are ever matched: a
//! maximum-weight matching that is free to leave vertices unmatched
//! never benefits from a non-positive edge.

pub mod api;
pub mod approx;
pub mod cardinality;
pub mod distributed;
pub mod engine;
pub mod exact;
pub mod matching;
pub mod order;

pub use api::{max_weight_matching, max_weight_matching_traced, MatcherKind};
pub use approx::{greedy_matching, GreedyScratch};
pub use engine::MatcherEngine;
pub use matching::Matching;
pub use netalign_trace::{MatcherCounterSnapshot, MatcherCounters};
