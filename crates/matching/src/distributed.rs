//! Distributed-memory locally-dominant matching: one rank's share of
//! the protocol.
//!
//! The paper's §IX names a distributed half-approximation matching
//! (Çatalyürek et al. [29]) as the path to an MPI implementation. This
//! module holds that algorithm's per-rank logic, [`RankCore`]:
//! vertices are block-partitioned across `num_ranks` ranks, every rank
//! owns the `mate`/`candidate` state of its vertices only, and all
//! cross-partition coordination happens through explicit messages
//! ([`DistMsg`]: `Propose`, `Matched`). The multi-process layer
//! (`netalign_core::dist`) runs one core per worker process and routes
//! the messages over sockets; each worker holds a full copy of the
//! graph, standing in for the halo/ghost replication a real MPI code
//! would use.
//!
//! The protocol is bulk-synchronous, three phases per round:
//!
//! 1. **Propose** — each rank recomputes candidates for its dirty
//!    vertices and sends a proposal to the candidate's owner.
//! 2. **Match** — ranks drain proposals; an owned vertex whose own
//!    candidate has proposed to it forms a locally-dominant pair, which
//!    is matched and announced to every rank.
//! 3. **Invalidate** — ranks drain announcements, update their view of
//!    who is matched, and mark neighbors that pointed at a newly
//!    matched vertex dirty for the next round.
//!
//! A proposal stays valid while its target is unmatched (a vertex only
//! re-proposes after its previous target matched), so pending proposals
//! are stored per target until consumed or invalidated.
//!
//! Under the crate's total edge order, the result equals the serial
//! locally-dominant matching for every rank count — asserted in tests.
//!
//! ## Message loss
//!
//! A core built with `faulty = true` tolerates dropped and repeated
//! messages. It engages three hardening rules — a proposal that goes
//! unanswered for its timeout window is retransmitted on a bounded
//! exponential backoff (1, 2, 4, … rounds up to
//! [`RESEND_BACKOFF_CAP`], reset whenever the proposer learns
//! something new), owners answer proposals to already-matched vertices
//! with a retransmitted `Matched` reply, and termination waits for a
//! quiet grace window under a hard round cap — so the
//! half-approximation and termination guarantees survive lost and
//! repeated messages, and a silent peer cannot stall termination
//! (asserted in tests). A rank still owing a scheduled retransmission
//! counts as active, so quiescence detection never fires while a
//! timed-out proposal is waiting out its backoff window.

use crate::approx::{unified_edge_gt, UnifiedView};

/// Longest per-round answer timeout (in rounds) a faulty-mode proposal
/// backs off to before being retransmitted. The schedule is 1, 2, 4, …
/// capped here, so a lost message is always re-sent within a bounded
/// window while settled vertices stop flooding the links.
pub const RESEND_BACKOFF_CAP: usize = 16;
use crate::matching::{Matching, UNMATCHED};
use netalign_graph::{BipartiteGraph, VertexId};

/// Messages between ranks. Public so transports can encode them: the
/// distributed layer (`netalign_core::dist`) ships them over framed
/// sockets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistMsg {
    /// `from` has chosen `to` as its candidate.
    Propose { from: VertexId, to: VertexId },
    /// `v` got matched to `mate` (broadcast to all ranks).
    Matched { v: VertexId, mate: VertexId },
}

/// Block partition: owner of vertex `v` among `p` ranks over `n`
/// vertices.
#[inline]
fn owner(v: VertexId, n: usize, p: usize) -> usize {
    let block = n.div_ceil(p);
    ((v as usize) / block).min(p - 1)
}

/// Candidate of `s` among neighbors the rank believes are unmatched.
fn find_mate_local(view: &UnifiedView<'_>, s: VertexId, known_matched: &[bool]) -> VertexId {
    let mut best = UNMATCHED;
    let mut best_w = 0.0f64;
    view.for_each_neighbor(s, |t, w| {
        if w <= 0.0 || known_matched[t as usize] {
            return;
        }
        if best == UNMATCHED || unified_edge_gt(w, s, t, best_w, s, best) {
            best = t;
            best_w = w;
        }
    });
    best
}

/// One rank's share of the distributed locally-dominant protocol,
/// independent of the transport: the distributed layer
/// (`netalign_core::dist`) runs it over framed sockets, the unit tests
/// below through a sequential in-memory router. The struct holds everything a rank owns — mate/candidate state for its
/// vertex block, pending proposals, the retransmission schedule — and
/// the three phase methods emit outgoing messages through a
/// `(dest_rank, msg)` callback, so the protocol logic (answer
/// timeouts, bounded exponential backoff, symmetric announcements)
/// lives here exactly once.
///
/// The driver contract, per round:
/// 1. [`phase_propose`](Self::phase_propose) — deliver its messages to
///    each destination's next `phase_match`;
/// 2. [`phase_match`](Self::phase_match) with the proposals that
///    arrived — deliver its announcements to each destination's next
///    `phase_invalidate`;
/// 3. [`phase_invalidate`](Self::phase_invalidate) with the arrived
///    announcements — returns this rank's activity flag; the driver
///    ORs the flags across ranks and feeds the result to a shared
///    [`Quiescence`] to decide termination.
///
/// The core does not borrow the graph: the phase methods take
/// `(l, weights)` per call, so a worker process can hold the core and
/// the deserialized graph side by side.
pub struct RankCore {
    /// Total unified vertices.
    n: usize,
    /// Effective rank count (`min(num_ranks, n)`).
    p: usize,
    /// Owned vertex block `[lo, hi)` (empty when `rank >= p`).
    lo: usize,
    hi: usize,
    /// Hardened mode: retransmission + grace-window termination.
    faulty: bool,
    mate: Vec<VertexId>,
    candidate: Vec<VertexId>,
    proposals: Vec<Vec<VertexId>>,
    known_matched: Vec<bool>,
    dirty: Vec<VertexId>,
    matched_now: Vec<(VertexId, VertexId)>,
    // Announcements drained early: a transport that does not keep the
    // phases apart may deliver a `Matched` broadcast among the phase-2
    // proposals, so phase 2 defers it here for phase 3 instead of
    // asserting it away.
    deferred: Vec<DistMsg>,
    // Faulty-mode retransmission schedule, indexed by (v - lo): a
    // proposal whose sender is still unmatched at round `resend_at`
    // has timed out and is re-sent, after which the window doubles up
    // to [`RESEND_BACKOFF_CAP`]. Fresh information (a dirty vertex)
    // resets the schedule so reactions stay immediate.
    resend_at: Vec<usize>,
    backoff: Vec<usize>,
}

impl RankCore {
    /// State for `rank` of `num_ranks` over the unified vertex set of
    /// `l`. Ranks at or past the effective rank count own an empty
    /// block and simply relay protocol rounds.
    ///
    /// # Panics
    /// Panics if `num_ranks == 0`.
    pub fn new(l: &BipartiteGraph, rank: usize, num_ranks: usize, faulty: bool) -> Self {
        assert!(num_ranks >= 1, "need at least one rank");
        let n = l.num_left() + l.num_right();
        let p = num_ranks.min(n).max(1);
        let block = n.div_ceil(p).max(1);
        // Both bounds clamp to `n`: when `block` rounds up, the last
        // ranks' nominal blocks can start past the vertex set (e.g.
        // n=160, p=64 → block=3, rank 54 starts at 162) and they own
        // an empty range like the `rank >= p` relays.
        let (lo, hi) = if rank >= p {
            (n, n)
        } else {
            ((rank * block).min(n), ((rank + 1) * block).min(n))
        };
        let sched = if faulty { hi - lo } else { 0 };
        RankCore {
            n,
            p,
            lo,
            hi,
            faulty,
            mate: vec![UNMATCHED; hi - lo],
            candidate: vec![UNMATCHED; hi - lo],
            proposals: vec![Vec::new(); hi - lo],
            known_matched: vec![false; n],
            dirty: (lo as VertexId..hi as VertexId).collect(),
            matched_now: Vec::new(),
            deferred: Vec::new(),
            resend_at: vec![0; sched],
            backoff: vec![1; sched],
        }
    }

    /// Effective rank count: every owner returned by the phase
    /// callbacks is `< effective_ranks()`.
    pub fn effective_ranks(&self) -> usize {
        self.p
    }

    #[inline]
    fn owns(&self, v: VertexId) -> bool {
        (self.lo..self.hi).contains(&(v as usize))
    }

    /// Phase 1: propose. Fault-free runs propose only for dirty
    /// vertices. Under faults a dropped proposal must eventually be
    /// retransmitted, but re-sending every proposal every round floods
    /// the links — instead each unanswered proposal times out on its
    /// vertex's bounded exponential-backoff schedule.
    ///
    /// # Panics
    /// Panics if `weights.len() != l.num_edges()`.
    pub fn phase_propose(
        &mut self,
        l: &BipartiteGraph,
        weights: &[f64],
        round: usize,
        mut send: impl FnMut(usize, DistMsg),
    ) {
        let view = UnifiedView::new(l, weights);
        let (lo, hi) = (self.lo, self.hi);
        if self.faulty {
            for &v in &self.dirty {
                let li = v as usize - lo;
                self.backoff[li] = 1;
                self.resend_at[li] = round;
            }
            self.dirty.clear();
            for li in 0..(hi - lo) {
                if self.mate[li] == UNMATCHED && round >= self.resend_at[li] {
                    self.dirty.push((lo + li) as VertexId);
                }
            }
        }
        for i in 0..self.dirty.len() {
            let v = self.dirty[i];
            let li = v as usize - lo;
            if self.mate[li] != UNMATCHED {
                continue;
            }
            let c = find_mate_local(&view, v, &self.known_matched);
            self.candidate[li] = c;
            if c != UNMATCHED {
                send(
                    owner(c, self.n, self.p),
                    DistMsg::Propose { from: v, to: c },
                );
                if self.faulty {
                    self.resend_at[li] = round + self.backoff[li];
                    self.backoff[li] = (self.backoff[li] * 2).min(RESEND_BACKOFF_CAP);
                }
            }
        }
        self.dirty.clear();
    }

    /// Phase 2: drain arrived proposals, match locally-dominant pairs,
    /// broadcast symmetric announcements. (`Matched` announcements
    /// that arrive with the proposals are deferred to phase 3.)
    pub fn phase_match(&mut self, inbox: &[DistMsg], mut send: impl FnMut(usize, DistMsg)) {
        let (lo, hi) = (self.lo, self.hi);
        for &msg in inbox {
            if let DistMsg::Propose { from, to } = msg {
                debug_assert!(self.owns(to));
                let li = to as usize - lo;
                if self.mate[li] != UNMATCHED {
                    // `to` already matched. Under faults the proposer
                    // may have missed the announcement — retransmit the
                    // pair to its owner so it stops proposing here.
                    if self.faulty {
                        send(
                            owner(from, self.n, self.p),
                            DistMsg::Matched {
                                v: to,
                                mate: self.mate[li],
                            },
                        );
                    }
                } else if !self.proposals[li].contains(&from) {
                    self.proposals[li].push(from);
                }
            } else {
                self.deferred.push(msg);
            }
        }
        self.matched_now.clear();
        for li in 0..(hi - lo) {
            if self.mate[li] != UNMATCHED {
                continue;
            }
            let c = self.candidate[li];
            if c == UNMATCHED {
                continue;
            }
            // A proposal from exactly our candidate makes the pair
            // locally dominant. (A stored proposal stays valid while we
            // are unmatched; see module docs.)
            if self.proposals[li].contains(&c) && !self.known_matched[c as usize] {
                let v = (lo + li) as VertexId;
                self.mate[li] = c;
                self.matched_now.push((v, c));
            }
        }
        for i in 0..self.matched_now.len() {
            let (v, c) = self.matched_now[i];
            for r in 0..self.p {
                send(r, DistMsg::Matched { v, mate: c });
                send(r, DistMsg::Matched { v: c, mate: v });
            }
        }
    }

    /// Phase 3: drain announcements (deferred ones first), invalidate
    /// neighbors. Every announcement names the full pair, so it
    /// teaches us about BOTH endpoints — that way losing one of the
    /// two twin broadcasts loses no information. Returns this rank's
    /// activity flag for the round (see [`Quiescence`]).
    ///
    /// # Panics
    /// Panics if `weights.len() != l.num_edges()`.
    pub fn phase_invalidate(
        &mut self,
        l: &BipartiteGraph,
        weights: &[f64],
        inbox: &[DistMsg],
    ) -> bool {
        let view = UnifiedView::new(l, weights);
        let lo = self.lo;
        let mut learned = false;
        let drained: Vec<DistMsg> = self
            .deferred
            .drain(..)
            .chain(inbox.iter().copied())
            .collect();
        for msg in drained {
            if let DistMsg::Matched { v, mate: m } = msg {
                for (x, y) in [(v, m), (m, v)] {
                    if self.known_matched[x as usize] {
                        continue; // duplicate announcement
                    }
                    learned = true;
                    self.known_matched[x as usize] = true;
                    if self.owns(x) {
                        self.mate[x as usize - lo] = y;
                        self.proposals[x as usize - lo].clear();
                    }
                    // Neighbors of x that we own and that pointed at x
                    // must recompute — the mirror of the paper's queue
                    // phase.
                    let dirty = &mut self.dirty;
                    let mate = &self.mate;
                    let candidate = &self.candidate;
                    let (blo, bhi) = (self.lo, self.hi);
                    view.for_each_neighbor(x, |u, _| {
                        if (blo..bhi).contains(&(u as usize))
                            && mate[u as usize - blo] == UNMATCHED
                            && candidate[u as usize - blo] == x
                        {
                            dirty.push(u);
                        }
                    });
                }
            } else {
                unreachable!("Propose messages cannot cross the phase-3 barriers");
            }
        }
        self.dirty.sort_unstable();
        self.dirty.dedup();

        // Fault-free runs stop at the first globally quiet round;
        // faulty runs treat new matches/knowledge as activity, count a
        // proposal still waiting out its backoff window as activity
        // too (so quiescence cannot fire while a retransmission is
        // owed), and wait out a grace window so in-flight messages can
        // land.
        if self.faulty {
            let pending_resend = (0..(self.hi - lo)).any(|li| {
                self.mate[li] == UNMATCHED
                    && self.candidate[li] != UNMATCHED
                    && !self.known_matched[self.candidate[li] as usize]
            });
            !self.matched_now.is_empty() || learned || !self.dirty.is_empty() || pending_resend
        } else {
            !self.dirty.is_empty()
        }
    }

    /// The matched pairs this rank owns.
    pub fn pairs(&self) -> Vec<(VertexId, VertexId)> {
        (self.lo..self.hi)
            .filter(|&v| self.mate[v - self.lo] != UNMATCHED)
            .map(|v| (v as VertexId, self.mate[v - self.lo]))
            .collect()
    }
}

/// The protocol's global termination rule, shared by every driver: a
/// fault-free run stops at the first globally quiet round; a faulty
/// run waits out [`Self::GRACE`] consecutive quiet rounds (so
/// in-flight retransmissions can land) under a hard round cap.
#[derive(Clone, Copy, Debug)]
pub struct Quiescence {
    faulty: bool,
    round: usize,
    quiet: usize,
    round_cap: usize,
}

impl Quiescence {
    /// Faulty runs only quit after this many consecutive quiet rounds,
    /// giving dropped retransmissions time to get through.
    pub const GRACE: usize = 3;

    /// Rule for an `n`-vertex instance. The cap is a hard safety net
    /// for faulty runs; the grace-window quiescence test terminates
    /// every practical run long before it.
    pub fn new(faulty: bool, n: usize) -> Self {
        Quiescence {
            faulty,
            round: 0,
            quiet: 0,
            round_cap: 8 * n + 64,
        }
    }

    /// Current 0-based round.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Record the round's global activity flag (the OR over every
    /// rank's [`RankCore::phase_invalidate`] result). Returns `true`
    /// when the protocol is done; otherwise advances to the next
    /// round.
    pub fn step(&mut self, keep_going: bool) -> bool {
        self.quiet = if keep_going { 0 } else { self.quiet + 1 };
        let done = if self.faulty {
            self.quiet >= Self::GRACE
        } else {
            self.quiet >= 1
        };
        if done || (self.faulty && self.round + 1 >= self.round_cap) {
            return true;
        }
        self.round += 1;
        false
    }
}

/// Assemble the per-rank pair lists produced by [`RankCore::pairs`]
/// into a [`Matching`] over `l`.
pub fn pairs_to_matching(
    l: &BipartiteGraph,
    pairs: impl IntoIterator<Item = (VertexId, VertexId)>,
) -> Matching {
    let view = UnifiedView::new(l, l.weights());
    let mut mate = vec![UNMATCHED; view.num_vertices()];
    for (v, m) in pairs {
        mate[v as usize] = m;
    }
    view.to_matching(&mate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{greedy_matching, serial_local_dominant};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// One rank's outgoing link. Faults are deterministic and counted
    /// per sending rank: every `drop_every`-th message the rank sends is
    /// lost, every `dup_every`-th is delivered twice (0 disables either).
    #[derive(Clone, Copy)]
    struct Link {
        drop_every: usize,
        dup_every: usize,
        sent: usize,
    }

    impl Link {
        const CLEAN: Link = Link::lossy(0, 0);

        const fn lossy(drop_every: usize, dup_every: usize) -> Link {
            Link {
                drop_every,
                dup_every,
                sent: 0,
            }
        }

        fn send(&mut self, inboxes: &mut [Vec<DistMsg>], dest: usize, msg: DistMsg) {
            self.sent += 1;
            let nth = |every: usize| every > 0 && self.sent.is_multiple_of(every);
            if nth(self.drop_every) {
                return; // lost in transit
            }
            inboxes[dest].push(msg);
            if nth(self.dup_every) {
                inboxes[dest].push(msg);
            }
        }
    }

    /// Sequential router: runs each phase rank by rank and fills every
    /// inbox in sender order, the order the coordinator's
    /// `round_distributed` routes replies in. Every rank sends through
    /// its own copy of `link`.
    fn route(l: &BipartiteGraph, ranks: usize, link: Link) -> Matching {
        let w = l.weights();
        let faulty = link.drop_every > 0 || link.dup_every > 0;
        let mut cores: Vec<RankCore> = (0..ranks)
            .map(|r| RankCore::new(l, r, ranks, faulty))
            .collect();
        let mut links = vec![link; ranks];
        let mut q = Quiescence::new(faulty, l.num_left() + l.num_right());
        loop {
            let mut proposals = vec![Vec::new(); ranks];
            for (core, link) in cores.iter_mut().zip(&mut links) {
                core.phase_propose(l, w, q.round(), |dest, msg| {
                    link.send(&mut proposals, dest, msg)
                });
            }
            let mut announcements = vec![Vec::new(); ranks];
            for ((core, link), inbox) in cores.iter_mut().zip(&mut links).zip(&proposals) {
                core.phase_match(inbox, |dest, msg| link.send(&mut announcements, dest, msg));
            }
            let mut keep_going = false;
            for (core, inbox) in cores.iter_mut().zip(&announcements) {
                keep_going |= core.phase_invalidate(l, w, inbox);
            }
            if q.step(keep_going) {
                return pairs_to_matching(l, cores.iter().flat_map(RankCore::pairs));
            }
        }
    }

    fn random_l(seed: u64, na: usize, nb: usize, pr: f64) -> BipartiteGraph {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut entries = Vec::new();
        for a in 0..na {
            for b in 0..nb {
                if rng.gen_bool(pr) {
                    entries.push((a as u32, b as u32, rng.gen_range(0.1..5.0)));
                }
            }
        }
        BipartiteGraph::from_entries(na, nb, entries)
    }

    /// Weights that may be negative or tied.
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
        fn negative_and_tied_weights_give_the_greedy_matching(l in rough_bipartite()) {
            let greedy = greedy_matching(&l, l.weights());
            for ranks in [1, 3, 7] {
                prop_assert_eq!(&route(&l, ranks, Link::CLEAN), &greedy, "ranks {}", ranks);
            }
        }
    }

    #[test]
    fn single_rank_equals_serial() {
        for seed in 0..10 {
            let l = random_l(seed, 15, 13, 0.3);
            assert_eq!(
                route(&l, 1, Link::CLEAN),
                serial_local_dominant(&l, l.weights()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn many_ranks_equal_serial() {
        for seed in 20..35 {
            let l = random_l(seed, 25, 22, 0.25);
            let serial = serial_local_dominant(&l, l.weights());
            for ranks in [2, 3, 4, 7] {
                assert_eq!(
                    route(&l, ranks, Link::CLEAN),
                    serial,
                    "seed {seed} ranks {ranks}"
                );
            }
        }
    }

    #[test]
    fn more_ranks_than_vertices() {
        let l = random_l(1, 3, 3, 0.8);
        let serial = serial_local_dominant(&l, l.weights());
        assert_eq!(route(&l, 64, Link::CLEAN), serial);
    }

    #[test]
    fn rank_blocks_that_round_past_the_vertex_set_are_empty() {
        // n = 160, p = 64 → block = 3 and rank 54's nominal range
        // starts at 162 > n. Those trailing ranks must degrade to
        // empty relays (regression: `hi - lo` underflowed).
        let l = random_l(21, 80, 80, 0.1);
        let serial = serial_local_dominant(&l, l.weights());
        assert_eq!(route(&l, 64, Link::CLEAN), serial);
        for rank in [53, 54, 63] {
            let core = RankCore::new(&l, rank, 64, false);
            assert!(core.pairs().is_empty());
        }
    }

    #[test]
    fn empty_graph_terminates() {
        let l = BipartiteGraph::from_entries(4, 4, Vec::<(u32, u32, f64)>::new());
        let m = route(&l, 3, Link::CLEAN);
        assert_eq!(m.cardinality(), 0);
    }

    #[test]
    fn cross_partition_pairs_are_found() {
        // Force the dominant pair to straddle the partition boundary:
        // left vertices live in rank 0's block, right in the last.
        let l = BipartiteGraph::from_entries(
            2,
            2,
            vec![(0, 0, 5.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)],
        );
        let m = route(&l, 4, Link::CLEAN);
        assert_eq!(m.mate_of_left(0), Some(0));
        assert_eq!(m.mate_of_left(1), Some(1));
    }

    #[test]
    fn deterministic_across_runs_and_rank_counts() {
        let l = random_l(9, 40, 40, 0.15);
        let reference = route(&l, 2, Link::CLEAN);
        for _ in 0..5 {
            assert_eq!(route(&l, 5, Link::CLEAN), reference);
        }
    }

    /// Exact optimum for the half-approximation bound.
    fn exact_weight(l: &BipartiteGraph) -> f64 {
        crate::max_weight_matching(l, l.weights(), crate::MatcherKind::Exact).weight(l, l.weights())
    }

    #[test]
    fn dropped_messages_keep_half_approximation_and_terminate() {
        for seed in [2, 7, 11] {
            let l = random_l(seed, 24, 20, 0.3);
            let half = exact_weight(&l) / 2.0;
            for ranks in [2, 3, 5] {
                for drop_every in [2, 3, 7] {
                    // Completing at all proves termination despite the
                    // losses (a wedged protocol would hang the test).
                    let m = route(&l, ranks, Link::lossy(drop_every, 0));
                    assert!(
                        m.is_valid(&l),
                        "seed {seed} ranks {ranks} drop {drop_every}"
                    );
                    let w = m.weight(&l, l.weights());
                    assert!(
                        w + 1e-9 >= half,
                        "half-approximation violated: {w} < {half} \
                         (seed {seed} ranks {ranks} drop {drop_every})"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicated_messages_do_not_change_the_matching() {
        for seed in [3, 13] {
            let l = random_l(seed, 22, 25, 0.25);
            let serial = serial_local_dominant(&l, l.weights());
            for ranks in [2, 4] {
                for dup_every in [1, 2, 5] {
                    assert_eq!(
                        route(&l, ranks, Link::lossy(0, dup_every)),
                        serial,
                        "seed {seed} ranks {ranks} dup {dup_every}"
                    );
                }
            }
        }
    }

    #[test]
    fn backoff_retransmission_survives_heavy_loss() {
        // Half of all traffic dropped: correctness now rests entirely on
        // the timed-out proposals being retransmitted on the backoff
        // schedule. Completing at all proves a silent (lossy) peer
        // cannot stall termination; maximality proves no vertex gave up
        // while a viable partner was still free.
        for seed in [4, 17] {
            let l = random_l(seed, 26, 24, 0.3);
            let half = exact_weight(&l) / 2.0;
            for ranks in [2, 4, 6] {
                let m = route(&l, ranks, Link::lossy(2, 0));
                assert!(m.is_valid(&l), "seed {seed} ranks {ranks}");
                let w = m.weight(&l, l.weights());
                assert!(
                    w + 1e-9 >= half,
                    "half-approximation violated under heavy loss: {w} < {half} \
                     (seed {seed} ranks {ranks})"
                );
                assert!(m.is_maximal(&l, l.weights()), "seed {seed} ranks {ranks}");
            }
        }
    }

    #[test]
    fn lossless_backoff_path_equals_serial() {
        // Duplication alone activates faulty mode — and with it the
        // backoff re-propose schedule — without losing any message, so
        // the retransmission machinery must be a pure no-op on the
        // final matching: candidates evolve exactly as in the
        // fault-free protocol.
        for seed in [6, 19] {
            let l = random_l(seed, 28, 26, 0.25);
            let serial = serial_local_dominant(&l, l.weights());
            for ranks in [3, 5] {
                assert_eq!(
                    route(&l, ranks, Link::lossy(0, 1)),
                    serial,
                    "seed {seed} ranks {ranks}"
                );
            }
        }
    }

    #[test]
    fn combined_drop_and_dup_faults_keep_the_guarantees() {
        let l = random_l(5, 30, 30, 0.2);
        let half = exact_weight(&l) / 2.0;
        for ranks in [2, 6] {
            let m = route(&l, ranks, Link::lossy(3, 4));
            assert!(m.is_valid(&l), "ranks {ranks}");
            let w = m.weight(&l, l.weights());
            assert!(w + 1e-9 >= half, "ranks {ranks}: {w} < {half}");
            // The matching is also maximal: no edge with two free
            // endpoints is left behind once the faulty run settles.
            assert!(m.is_maximal(&l, l.weights()), "ranks {ranks}");
        }
    }
}
