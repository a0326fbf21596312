//! Problem fingerprints: the engine-cache key.
//!
//! A fingerprint commits to everything that decides whether two align
//! requests may share cached state — both input graphs (structure),
//! the candidate graph `L` (structure *and* weights), the aligner
//! method, and every config field that influences the iteration
//! trajectory (via [`netalign_core::checkpoint::config_fingerprint`],
//! which already excludes observability toggles).
//!
//! Edge *sets* are hashed in canonical (sorted) order, so two requests
//! that list the same edges in different orders collide — exactly what
//! a cache wants — while any added/removed edge, changed weight bit,
//! or changed config knob produces a different key. 64-bit FNV-1a is
//! not collision-proof against adversaries: the cache trusts the key,
//! so two colliding problems would share one cached entry.

use netalign_core::checkpoint::config_fingerprint;
use netalign_core::config::AlignConfig;
use netalign_graph::bipartite::BipartiteGraph;
use netalign_graph::nacs::Fnv64;
use netalign_graph::undirected::Graph;

/// Aligner selector carried by each request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Belief propagation (the paper's Listing 2).
    Bp,
    /// Klau's matching relaxation.
    Mr,
}

impl Method {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Bp => "bp",
            Method::Mr => "mr",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "bp" => Some(Method::Bp),
            "mr" => Some(Method::Mr),
            _ => None,
        }
    }
}

/// Canonical structure hash of an undirected graph: vertex count plus
/// the sorted edge set (each edge normalized to `(min, max)`).
pub fn graph_structure_fingerprint(g: &Graph) -> u64 {
    let mut edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
    edges.sort_unstable();
    edges.dedup();
    let mut h = Fnv64::new();
    h.update_u64(g.num_vertices() as u64);
    h.update_u64(edges.len() as u64);
    for (u, v) in edges {
        h.update_u64(u as u64);
        h.update_u64(v as u64);
    }
    h.finish()
}

/// Canonical hash of the weighted candidate graph `L`: shape plus the
/// sorted `(a, b, weight-bits)` entry set.
pub fn candidate_fingerprint(l: &BipartiteGraph) -> u64 {
    let mut entries: Vec<(u32, u32, u64)> = (0..l.num_edges())
        .map(|e| {
            let (a, b) = l.endpoints(e);
            (a, b, l.weight(e).to_bits())
        })
        .collect();
    entries.sort_unstable();
    let mut h = Fnv64::new();
    h.update_u64(l.num_left() as u64);
    h.update_u64(l.num_right() as u64);
    h.update_u64(entries.len() as u64);
    for (a, b, w) in entries {
        h.update_u64(a as u64);
        h.update_u64(b as u64);
        h.update_u64(w);
    }
    h.finish()
}

/// The full cache key: both graphs, `L`, the method, and the
/// trajectory-relevant config.
pub fn problem_fingerprint(
    a: &Graph,
    b: &Graph,
    l: &BipartiteGraph,
    method: Method,
    config: &AlignConfig,
) -> u64 {
    let mut h = Fnv64::new();
    h.update_u64(match method {
        Method::Bp => 0xb9,
        Method::Mr => 0x34,
    });
    h.update_u64(graph_structure_fingerprint(a));
    h.update_u64(graph_structure_fingerprint(b));
    h.update_u64(candidate_fingerprint(l));
    h.update_u64(config_fingerprint(config));
    h.finish()
}

/// Render a fingerprint the way the protocol carries it.
pub fn render_fingerprint(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parse a wire fingerprint (16 lowercase hex digits, as produced by
/// [`render_fingerprint`]; shorter forms and uppercase are tolerated).
pub fn parse_fingerprint(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}
