//! The engine cache: LRU over problem fingerprints.
//!
//! An entry owns everything expensive that a repeat request would
//! otherwise rebuild: the [`NetAlignProblem`] (whose squares matrix
//! `S` dominates cold-start cost) and the validated [`AlignConfig`].
//! The aligner engines themselves (`BpEngine`/`MrEngine`, each with
//! its rounding matcher engine) borrow the problem and are rebuilt per
//! run — their allocation is cheap next to `S`.
//!
//! The cache is owned by the single solver thread, so it needs no
//! locking; all concurrency control happens at admission.

use crate::fingerprint::Method;
use netalign_core::config::AlignConfig;
use netalign_core::delta::BpTrajectory;
use netalign_core::problem::NetAlignProblem;

/// One cached problem.
pub struct CacheEntry {
    /// The cache key (graphs + method + config fingerprint).
    pub fingerprint: u64,
    /// Aligner this entry was built for.
    pub method: Method,
    /// The fully built problem (`A`, `B`, `L`, `S`).
    pub problem: NetAlignProblem,
    /// The validated config the fingerprint committed to.
    pub config: AlignConfig,
    /// Recorded BP trajectory, present after an `align` with
    /// `record: true` — the base an `align_delta` replays against.
    pub trajectory: Option<BpTrajectory>,
    /// Runs served from this entry (including the one that built it).
    pub uses: u64,
    last_used: u64,
}

/// Outcome of a cache probe, for metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The fingerprint was cached.
    Hit,
    /// The fingerprint was not cached.
    Miss,
}

/// A strict-capacity LRU keyed by problem fingerprint. Capacities are
/// small (each entry holds a whole problem), so lookup is a linear
/// scan — cheaper than hashing at these sizes and trivially correct.
pub struct EngineCache {
    entries: Vec<CacheEntry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl EngineCache {
    /// Empty cache holding at most `capacity` problems (minimum 1).
    pub fn new(capacity: usize) -> Self {
        EngineCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of cached problems.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime (hits, misses, evictions).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Look up a fingerprint, refreshing its recency on a hit.
    pub fn get_mut(&mut self, fingerprint: u64) -> Option<&mut CacheEntry> {
        self.tick += 1;
        let tick = self.tick;
        match self
            .entries
            .iter_mut()
            .find(|e| e.fingerprint == fingerprint)
        {
            Some(e) => {
                self.hits += 1;
                e.last_used = tick;
                e.uses += 1;
                Some(e)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Look up a fingerprint WITHOUT touching recency or hit/miss
    /// stats — for re-finding an entry the caller just probed or
    /// inserted.
    pub fn peek_mut(&mut self, fingerprint: u64) -> Option<&mut CacheEntry> {
        self.entries
            .iter_mut()
            .find(|e| e.fingerprint == fingerprint)
    }

    /// Insert a freshly built entry, evicting the least-recently used
    /// one when full. Returns the evicted fingerprint, if any.
    pub fn insert(
        &mut self,
        fingerprint: u64,
        method: Method,
        problem: NetAlignProblem,
        config: AlignConfig,
    ) -> Option<u64> {
        self.tick += 1;
        debug_assert!(
            self.entries.iter().all(|e| e.fingerprint != fingerprint),
            "insert of an already-cached fingerprint"
        );
        let mut evicted = None;
        if self.entries.len() >= self.capacity {
            let (idx, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .expect("cache is non-empty when full");
            let old = self.entries.swap_remove(idx);
            self.evictions += 1;
            evicted = Some(old.fingerprint);
        }
        self.entries.push(CacheEntry {
            fingerprint,
            method,
            problem,
            config,
            trajectory: None,
            uses: 1,
            last_used: self.tick,
        });
        evicted
    }

    /// Re-key an entry after a delta patched its problem in place: the
    /// entry now answers to the *patched* graphs' fingerprint. Any
    /// stale entry already cached under the new key is evicted first
    /// (the re-keyed entry carries the fresher engine/trajectory).
    /// Returns false when `old` is not cached.
    pub fn rekey(&mut self, old: u64, new: u64) -> bool {
        if old == new {
            return self.entries.iter().any(|e| e.fingerprint == old);
        }
        if !self.entries.iter().any(|e| e.fingerprint == old) {
            return false;
        }
        if let Some(idx) = self.entries.iter().position(|e| e.fingerprint == new) {
            self.entries.swap_remove(idx);
            self.evictions += 1;
        }
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.fingerprint == old)
            .expect("presence checked above");
        entry.fingerprint = new;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netalign_graph::bipartite::BipartiteGraph;
    use netalign_graph::undirected::Graph;

    fn tiny_problem(seed: u32) -> NetAlignProblem {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (seed % 3, 3)]);
        let l = BipartiteGraph::from_entries(4, 4, (0..4).map(|i| (i, i, 1.0 + seed as f64 * 0.1)));
        NetAlignProblem::new(g.clone(), g, l)
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c = EngineCache::new(2);
        let cfg = AlignConfig::default();
        assert_eq!(c.insert(1, Method::Bp, tiny_problem(1), cfg), None);
        assert_eq!(c.insert(2, Method::Bp, tiny_problem(2), cfg), None);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get_mut(1).is_some());
        let evicted = c.insert(3, Method::Bp, tiny_problem(3), cfg);
        assert_eq!(evicted, Some(2));
        assert!(c.get_mut(1).is_some());
        assert!(c.get_mut(2).is_none());
        assert!(c.get_mut(3).is_some());
        assert_eq!(c.len(), 2);
        let (hits, misses, evictions) = c.stats();
        assert_eq!((hits, misses, evictions), (3, 1, 1));
    }

    #[test]
    fn rekey_moves_an_entry_and_evicts_a_stale_target() {
        let mut c = EngineCache::new(4);
        let cfg = AlignConfig::default();
        c.insert(1, Method::Bp, tiny_problem(1), cfg);
        c.insert(2, Method::Bp, tiny_problem(2), cfg);
        assert!(c.rekey(1, 9));
        assert!(c.get_mut(9).is_some());
        assert!(c.get_mut(1).is_none());
        // Re-keying onto an occupied key evicts the stale holder.
        assert!(c.rekey(9, 2));
        assert_eq!(c.len(), 1);
        assert!(c.get_mut(2).is_some());
        let (_, _, evictions) = c.stats();
        assert_eq!(evictions, 1);
        assert!(!c.rekey(42, 43));
    }

    #[test]
    fn capacity_has_a_floor_of_one() {
        let mut c = EngineCache::new(0);
        let cfg = AlignConfig::default();
        assert_eq!(c.capacity(), 1);
        c.insert(1, Method::Bp, tiny_problem(1), cfg);
        c.insert(2, Method::Bp, tiny_problem(2), cfg);
        assert_eq!(c.len(), 1);
    }
}
