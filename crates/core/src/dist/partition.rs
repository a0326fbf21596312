//! The static decomposition a distributed BP run shares between the
//! coordinator, the workers and the wire codec:
//!
//! * the edges of `L` (and with them the rows of `S`, the message
//!   vectors `y`/`z`/`d`, and the value blocks of `S⁽ᵏ⁾`/`F`) are
//!   **block-partitioned by left vertex** ([`Partition`]), so
//!   `othermaxrow`, the `F`/`d` kernels, the `S⁽ᵏ⁾` update and the
//!   damping are part-local;
//! * reading `S⁽ᵏ⁻¹⁾ᵀ` through the transpose permutation becomes a
//!   **static halo exchange**: each part's needed remote value indices
//!   are computed once ([`RankPart`]'s plans), and every iteration ships
//!   exactly those values (the CombBLAS-style sparse communication
//!   plan);
//! * `othermaxcol` is a two-superstep **partial-stats merge**: parts
//!   compute `(max, second-max, argmax-edge)` partials ([`ColStat`]) for
//!   each right vertex they touch, the vertex's owner merges them
//!   deterministically ([`merge_col_partials`]; ties keep the lowest
//!   edge id, matching the shared-memory kernel), and merged stats flow
//!   back to the contributors.

use crate::problem::NetAlignProblem;

/// Column statistics for the othermaxcol merge; workers ship partials
/// to the coordinator over the wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ColStat {
    pub(crate) max1: f64,
    pub(crate) max2: f64,
    pub(crate) arg_eid: u32,
}

impl ColStat {
    pub(crate) const EMPTY: ColStat = ColStat {
        max1: f64::NEG_INFINITY,
        max2: f64::NEG_INFINITY,
        arg_eid: u32::MAX,
    };

    /// Fold one value in edge order (strict `>` keeps the earliest
    /// edge on ties — the shared-memory kernel's behaviour).
    pub(crate) fn push(&mut self, v: f64, eid: u32) {
        if v > self.max1 {
            self.max2 = self.max1;
            self.max1 = v;
            self.arg_eid = eid;
        } else if v > self.max2 {
            self.max2 = v;
        }
    }

    /// Merge another partial computed over *later* edges.
    pub(crate) fn merge(&mut self, other: &ColStat) {
        if other.max1 > self.max1 {
            self.max2 = self.max1.max(other.max2);
            self.max1 = other.max1;
            self.arg_eid = other.arg_eid;
        } else {
            self.max2 = self.max2.max(other.max1);
        }
    }
}

/// One part's static share of a left-vertex-aligned partition, plus
/// the halo-exchange plans for the transpose gather. Computed once by
/// [`Partition::new`].
#[derive(Clone, Debug, Default)]
pub(crate) struct RankPart {
    /// Left-vertex range `[a_lo, a_hi)` whose edge ranges this part
    /// owns.
    pub(crate) a_lo: usize,
    pub(crate) a_hi: usize,
    /// Global edge range `[e_lo, e_hi)`.
    pub(crate) e_lo: usize,
    pub(crate) e_hi: usize,
    /// Global S-value range `[v_lo, v_hi)` (= rowptr[e_lo]..rowptr[e_hi]).
    pub(crate) v_lo: usize,
    pub(crate) v_hi: usize,
    /// Halo plan: for each peer part, the *global* S-value indices of
    /// `sk_prev` values this part must receive (in agreed order), and
    /// the local positions of `skt` they scatter into.
    pub(crate) recv_plan: Vec<Vec<u32>>,
    pub(crate) scatter_plan: Vec<Vec<u32>>,
    /// For each peer part, the local positions of values to send.
    pub(crate) send_plan: Vec<Vec<u32>>,
}

/// A static left-vertex-aligned partition of the problem's edges (and
/// with them the rows of `S` and the message vectors) into blocks of
/// roughly balanced edge count, with precomputed halo plans.
#[derive(Clone, Debug)]
pub(crate) struct Partition {
    pub(crate) parts: Vec<RankPart>,
}

impl Partition {
    /// Split `problem` across `ranks` workers (capped at the number of
    /// left vertices, floored at one).
    pub(crate) fn new(problem: &NetAlignProblem, ranks: usize) -> Partition {
        let p = problem;
        let m = p.l.num_edges();
        let rowptr = p.s.rowptr();
        let perm = p.s.transpose_perm_slice();
        let nranks = ranks.min(p.l.num_left().max(1)).max(1);

        let mut boundaries = vec![0usize]; // left-vertex boundaries
        {
            let per = m.div_ceil(nranks);
            let mut acc = 0usize;
            for a in 0..p.l.num_left() {
                acc += p.l.left_degree(a as u32);
                if acc >= per * boundaries.len() && boundaries.len() < nranks {
                    boundaries.push(a + 1);
                }
            }
            while boundaries.len() < nranks {
                boundaries.push(p.l.num_left());
            }
            boundaries.push(p.l.num_left());
        }
        let edge_lo = |r: usize| {
            if boundaries[r] >= p.l.num_left() {
                m
            } else {
                p.l.left_range(boundaries[r] as u32).start
            }
        };
        let mut parts: Vec<RankPart> = (0..nranks)
            .map(|r| {
                let e_lo = edge_lo(r);
                let e_hi = if r + 1 == nranks { m } else { edge_lo(r + 1) };
                RankPart {
                    a_lo: boundaries[r],
                    a_hi: boundaries[r + 1],
                    e_lo,
                    e_hi,
                    v_lo: rowptr[e_lo],
                    v_hi: rowptr[e_hi],
                    recv_plan: vec![Vec::new(); nranks],
                    scatter_plan: vec![Vec::new(); nranks],
                    send_plan: vec![Vec::new(); nranks],
                }
            })
            .collect();

        // Static halo plan for the transpose gather.
        let owner_of_value = |idx: usize, parts: &[RankPart]| -> usize {
            parts.partition_point(|pt| pt.v_hi <= idx)
        };
        for r in 0..nranks {
            let (v_lo, v_hi) = (parts[r].v_lo, parts[r].v_hi);
            let mut recv: Vec<Vec<u32>> = vec![Vec::new(); nranks];
            let mut scatter: Vec<Vec<u32>> = vec![Vec::new(); nranks];
            for idx in v_lo..v_hi {
                let src = perm[idx];
                let owner = owner_of_value(src, &parts);
                recv[owner].push(src as u32);
                scatter[owner].push((idx - v_lo) as u32);
            }
            parts[r].recv_plan = recv;
            parts[r].scatter_plan = scatter;
        }
        // Mirror into send plans (local positions at the source part).
        for r in 0..nranks {
            for s in 0..nranks {
                let plan: Vec<u32> = parts[s].recv_plan[r]
                    .iter()
                    .map(|&g| (g as usize - parts[r].v_lo) as u32)
                    .collect();
                parts[r].send_plan[s] = plan;
            }
        }
        Partition { parts }
    }

    pub(crate) fn num_ranks(&self) -> usize {
        self.parts.len()
    }
}

/// Merge per-part `othermaxcol` partials over `nb` right vertices into
/// one global stat list: group by the right vertex's owner, merge in
/// part order (= edge order, so ties keep the lowest edge id), then
/// flatten in owner order. Within an owner, vertices keep the order in
/// which they first appear, so every right vertex is named once.
pub(crate) fn merge_col_partials(
    all_partials: &[Vec<(u32, ColStat)>],
    nb: usize,
    nranks: usize,
) -> Vec<(u32, ColStat)> {
    let bblock = nb.div_ceil(nranks).max(1);
    let owner_of_b = |b: u32| ((b as usize) / bblock).min(nranks - 1);
    let mut merged: Vec<Vec<(u32, ColStat)>> = vec![Vec::new(); nranks];
    // slot[b]: b's position in its owner's merged list.
    let mut slot = vec![u32::MAX; nb];
    for &(b, stat) in all_partials.iter().flatten() {
        let list = &mut merged[owner_of_b(b)];
        match slot[b as usize] {
            u32::MAX => {
                slot[b as usize] = list.len() as u32;
                list.push((b, stat));
            }
            i => list[i as usize].1.merge(&stat),
        }
    }
    merged.concat()
}
