//! The `othermax` kernels of the BP method (paper §III.B).
//!
//! For a weight vector `g` over the edges of `L`:
//!
//! * `othermaxrow(g)[i,i'] = bound₀[max over (i,k') ∈ E_L, k' ≠ i' of g]`
//!   — per *left* vertex, each edge sees the maximum of its siblings;
//!   the maximum edge itself sees the second maximum. Negative results
//!   clamp to zero.
//! * `othermaxcol` is the same per *right* vertex.
//!
//! BP never materializes either vector. [`vertex_stats_into`] takes
//! one [`Max2`] statistic per vertex — pass 2 of an iteration, both
//! sides as one `join` — and [`othermax`] reads an edge's value from
//! its vertex's statistic inside pass 3's per-edge update. The left
//! side's edge ranges are contiguous in the global order, the right
//! side goes through the column CSR's edge-id list.

use netalign_graph::{BipartiteGraph, VertexId};
use rayon::prelude::*;
use std::hint::select_unpredictable;

/// Per-vertex `(max, second max, position of the max)` of a weight
/// vector over the vertex's edge list, as [`max2`] computes it.
pub type Max2 = (f64, f64, usize);

/// Find `(max, second_max, argmax_position)` of an iterator of values:
/// a value strictly above the maximum takes its place (the old maximum
/// becomes the second), else one strictly above the second maximum
/// replaces it. Both comparisons run for every value and select without
/// branching, since on real iterates their outcome is data-dependent
/// and a mispredicted branch costs more than the select. `pub(crate)`
/// so the delta replay recomputes othermax entries with bit-identical
/// comparison order.
#[inline]
pub(crate) fn max2(vals: impl Iterator<Item = f64>) -> Max2 {
    let mut max1 = f64::NEG_INFINITY;
    let mut max2 = f64::NEG_INFINITY;
    let mut arg = usize::MAX;
    for (i, v) in vals.enumerate() {
        let (top, second) = (v > max1, v > max2);
        max2 = select_unpredictable(top, max1, select_unpredictable(second, v, max2));
        max1 = select_unpredictable(top, v, max1);
        arg = select_unpredictable(top, i, arg);
    }
    (max1, max2, arg)
}

/// `othermax` of the edge at position `pos` of its vertex's edge list,
/// from that vertex's statistic: the largest sibling value (the second
/// maximum when the edge holds the maximum), clamped at zero — a value
/// not above zero, either zero and NaN included, reads `+0.0`.
#[inline]
pub fn othermax((max1, max2, arg): Max2, pos: usize) -> f64 {
    let v = select_unpredictable(pos == arg, max2, max1);
    select_unpredictable(v > 0.0, v, 0.0)
}

/// Precompute each edge's position within its right vertex's column
/// list, the `pos` of its `othermaxcol` lookup. Build once per problem
/// (the structure of `L` never changes).
pub fn column_positions(l: &BipartiteGraph) -> Vec<u32> {
    let mut pos = vec![0u32; l.num_edges()];
    for b in 0..l.num_right() as VertexId {
        for (p, (_, e)) in l.right_edges(b).enumerate() {
            pos[e] = p as u32;
        }
    }
    pos
}

/// Pass 2 of a BP iteration: the [`Max2`] statistic of `y` over every
/// left vertex's edges (for `othermaxrow`) and of `z` over every right
/// vertex's edges (for `othermaxcol`), the two sides as one `join` —
/// the task-parallel reorganization the paper's §IX suggests — each
/// parallel over its vertices. `row_stats` and `col_stats` are
/// caller-owned scratch of length `l.num_left()` and `l.num_right()`
/// (overwritten), which keeps the pass allocation-free.
pub fn vertex_stats_into(
    l: &BipartiteGraph,
    y: &[f64],
    z: &[f64],
    row_stats: &mut [Max2],
    col_stats: &mut [Max2],
    chunk: usize,
) {
    assert_eq!(y.len(), l.num_edges());
    assert_eq!(z.len(), l.num_edges());
    assert_eq!(row_stats.len(), l.num_left());
    assert_eq!(col_stats.len(), l.num_right());
    rayon::join(
        || {
            row_stats
                .par_iter_mut()
                .enumerate()
                .with_min_len(chunk)
                .for_each(|(a, s)| *s = max2(y[l.left_range(a as VertexId)].iter().copied()))
        },
        || {
            col_stats
                .par_iter_mut()
                .enumerate()
                .with_min_len(chunk)
                .for_each(|(b, s)| *s = max2(l.right_edges(b as VertexId).map(|(_, e)| z[e])))
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l() -> BipartiteGraph {
        // a0: b0, b1 ; a1: b0, b1 ; a2: b1
        BipartiteGraph::from_entries(
            3,
            2,
            vec![
                (0, 0, 0.0),
                (0, 1, 0.0),
                (1, 0, 0.0),
                (1, 1, 0.0),
                (2, 1, 0.0),
            ],
        )
    }

    /// `othermaxrow(g)` and `othermaxcol(g)` through the statistics
    /// pass and the per-edge lookup, as pass 3 reads them.
    fn othermax_row_col(l: &BipartiteGraph, g: &[f64], chunk: usize) -> (Vec<f64>, Vec<f64>) {
        let mut rows = vec![(0.0, 0.0, 0); l.num_left()];
        let mut cols = vec![(0.0, 0.0, 0); l.num_right()];
        vertex_stats_into(l, g, g, &mut rows, &mut cols, chunk);
        let pos = column_positions(l);
        (0..l.num_edges())
            .map(|e| {
                let (a, b) = l.endpoints(e);
                (
                    othermax(rows[a as usize], e - l.left_range(a).start),
                    othermax(cols[b as usize], pos[e] as usize),
                )
            })
            .unzip()
    }

    #[test]
    fn row_othermax_basic() {
        let l = l();
        // edges in global order: (0,0)=e0,(0,1)=e1,(1,0)=e2,(1,1)=e3,(2,1)=e4
        let g = vec![3.0, 1.0, 2.0, 5.0, 4.0];
        // row a0: values [3,1]: e0 is max -> second=1; e1 -> 3
        // row a1: [2,5]: e2 -> 5; e3 -> 2
        // row a2: [4]: single edge -> second = -inf -> clamp 0
        assert_eq!(othermax_row_col(&l, &g, 1).0, vec![1.0, 3.0, 5.0, 2.0, 0.0]);
    }

    #[test]
    fn col_othermax_basic() {
        let l = l();
        let g = vec![3.0, 1.0, 2.0, 5.0, 4.0];
        // col b0: edges e0=3, e2=2: e0 -> 2; e2 -> 3
        // col b1: edges e1=1, e3=5, e4=4: e1 -> 5; e3 -> 4; e4 -> 5
        assert_eq!(othermax_row_col(&l, &g, 1).1, vec![2.0, 5.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn negative_values_clamp_to_zero() {
        let l = l();
        let g = vec![-1.0, -2.0, -3.0, -4.0, -5.0];
        let (row, col) = othermax_row_col(&l, &g, 1);
        assert!(row.iter().chain(&col).all(|&v| v == 0.0));
    }

    #[test]
    fn ties_give_tied_value_to_argmax() {
        // Two equal maxima in a row: the argmax edge still sees the
        // other equal value as its "other max".
        let l = BipartiteGraph::from_entries(1, 2, vec![(0, 0, 0.0), (0, 1, 0.0)]);
        let g = vec![7.0, 7.0];
        assert_eq!(othermax_row_col(&l, &g, 1).0, vec![7.0, 7.0]);
    }

    /// `max2` written with branches: the reference its selects match.
    fn max2_branching(vals: &[f64]) -> Max2 {
        let (mut max1, mut max2, mut arg) = (f64::NEG_INFINITY, f64::NEG_INFINITY, usize::MAX);
        for (i, &v) in vals.iter().enumerate() {
            if v > max1 {
                max2 = max1;
                max1 = v;
                arg = i;
            } else if v > max2 {
                max2 = v;
            }
        }
        (max1, max2, arg)
    }

    /// Every list of up to four values drawn from a palette with ties,
    /// both zeros, both infinities and NaN, the empty list included:
    /// `max2` agrees with the branching loop bit for bit, argmax too.
    #[test]
    fn max2_matches_the_branching_loop_bit_for_bit() {
        let palette = [
            f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            2.0,
            f64::INFINITY,
        ];
        let mut vals = Vec::with_capacity(4);
        for len in 0..=4u32 {
            for code in 0..palette.len().pow(len) {
                vals.clear();
                vals.extend((0..len).map(|d| palette[code / palette.len().pow(d) % palette.len()]));
                let (got, want) = (max2(vals.iter().copied()), max2_branching(&vals));
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits(), got.2),
                    (want.0.to_bits(), want.1.to_bits(), want.2),
                    "{vals:?}"
                );
            }
        }
    }

    #[test]
    fn chunked_matches_unchunked() {
        let l = l();
        let g = vec![0.5, 2.5, -1.0, 3.5, 0.25];
        assert_eq!(othermax_row_col(&l, &g, 1), othermax_row_col(&l, &g, 1000));
    }
}
