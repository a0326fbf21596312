//! The squares matrix `S`.
//!
//! Rows and columns of `S` are indexed by the edges of `L` (in the
//! global edge order). `S[e, f] = 1` for `e = (i,i')`, `f = (j,j')`
//! exactly when `(i,j) ∈ E_A` and `(i',j') ∈ E_B` — matching both `e`
//! and `f` then *overlaps* that pair of edges. `S` is structurally and
//! numerically symmetric and has an empty diagonal (simple graphs have
//! no self-loops), so the number of overlapped edges for an indicator
//! `x` is `xᵀSx / 2`.
//!
//! `S`'s structure is fixed for the lifetime of a problem. Iteration
//! matrices over the same pattern (`S^{(k)}`, `U^{(k)}`, `F`, `S_L`)
//! are plain value arrays of length [`SquaresMatrix::nnz`], and the
//! transpose is realized by the precomputed value permutation
//! (the paper's §IV.A trick).

use netalign_graph::csr::CsrMatrix;
use netalign_graph::nacs::{CsrView, NacsError, NacsWriter, Section};
use netalign_graph::permutation::Permutation;
use netalign_graph::{BipartiteGraph, EdgeId, Graph, VertexId};
use rayon::prelude::*;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Physical storage of the squares pattern: fully in-core, or an
/// mmap-backed [`CsrView`] over a `NACS` file (out-of-core mode).
#[derive(Clone, Debug)]
enum Storage {
    InCore {
        pattern: CsrMatrix,
        transpose_perm: Permutation,
    },
    Mapped {
        view: CsrView,
    },
}

/// The squares matrix: fixed CSR pattern over `E_L × E_L` with the
/// transpose permutation precomputed.
///
/// The pattern either lives in core (the default) or is memory-mapped
/// from a `NACS` file built by [`SquaresMatrix::build_streaming`]. Both
/// forms expose identical `rowptr`/`colidx`/`transpose_perm_slice`
/// accessors, so the aligner kernels are storage-agnostic.
#[derive(Clone, Debug)]
pub struct SquaresMatrix {
    storage: Storage,
}

fn write_u32_stream<W: Write>(w: &mut W, vals: &[u32]) -> std::io::Result<()> {
    #[cfg(target_endian = "little")]
    {
        let bytes =
            unsafe { std::slice::from_raw_parts(vals.as_ptr() as *const u8, vals.len() * 4) };
        w.write_all(bytes)
    }
    #[cfg(not(target_endian = "little"))]
    {
        for &v in vals {
            w.write_all(&v.to_le_bytes())?;
        }
        Ok(())
    }
}

/// Read until `buf` is full or EOF; returns the bytes read.
fn fill_buf<R: Read>(rd: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = rd.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    Ok(filled)
}

/// What [`SquaresMatrix::patch`] did, for delta-solve reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct SquaresPatchStats {
    /// Rows re-enumerated from the patched graphs.
    pub rows_reenumerated: usize,
    /// Rows whose old column lists were carried over through the remap.
    pub rows_reused: usize,
    /// Entries carried over without re-enumeration.
    pub entries_reused: usize,
    /// Total entries in the patched matrix.
    pub nnz: usize,
}

/// The columns of row `e = (i, i')` of the squares matrix, sorted: the
/// edges `(j, j')` of `L` with `j ∈ adj_A(i)` and `j' ∈ adj_B(i')`.
fn squares_row(a: &Graph, b: &Graph, l: &BipartiteGraph, e: EdgeId) -> Vec<VertexId> {
    let (i, ip) = l.endpoints(e);
    let mut cols: Vec<VertexId> = Vec::new();
    for &j in a.neighbors(i) {
        for &jp in b.neighbors(ip) {
            if let Some(f) = l.edge_id(j, jp) {
                debug_assert_ne!(f, e, "squares cannot be diagonal");
                cols.push(f as VertexId);
            }
        }
    }
    cols.sort_unstable();
    cols
}

impl SquaresMatrix {
    /// Enumerate all squares between `A`, `B`, `L` in parallel and
    /// assemble the CSR pattern.
    ///
    /// For each edge `e = (i,i')` of `L`, the candidate partners are
    /// pairs `(j, j')` with `j ∈ adj_A(i)`, `j' ∈ adj_B(i')` and
    /// `(j,j') ∈ E_L`: every neighbor pair of the two adjacencies, looked
    /// up in `L`. [`SquaresMatrix::build_streaming`] and
    /// [`SquaresMatrix::patch`] enumerate a row the same way.
    pub fn build(a: &Graph, b: &Graph, l: &BipartiteGraph) -> Self {
        assert!(
            l.num_edges() < u32::MAX as usize - 1,
            "edge ids must fit in u32"
        );
        // Parallel over rows (edges of L).
        let rows: Vec<Vec<VertexId>> = (0..l.num_edges())
            .into_par_iter()
            .map(|e| squares_row(a, b, l, e))
            .collect();

        let m = l.num_edges();
        let mut rowptr = vec![0usize; m + 1];
        for (e, r) in rows.iter().enumerate() {
            rowptr[e + 1] = rowptr[e] + r.len();
        }
        let nnz = rowptr[m];
        let mut colidx = Vec::with_capacity(nnz);
        for r in &rows {
            colidx.extend_from_slice(r);
        }
        let vals = vec![1.0f64; nnz];
        let pattern = CsrMatrix::from_raw(m, m, rowptr, colidx, vals);
        debug_assert!(pattern.is_structurally_symmetric());
        let transpose_perm = pattern.transpose_permutation();
        Self {
            storage: Storage::InCore {
                pattern,
                transpose_perm,
            },
        }
    }

    /// Wrap a memory-mapped `NACS` view as a squares matrix.
    ///
    /// The file must be square and carry a transpose-permutation
    /// section (as written by [`SquaresMatrix::build_streaming`] or
    /// [`SquaresMatrix::write_nacs`]); values are implicitly 1.0.
    pub fn from_mapped(view: CsrView) -> Result<Self, NacsError> {
        if view.nrows() != view.ncols() {
            return Err(NacsError::Format(format!(
                "squares matrix must be square, got {}x{}",
                view.nrows(),
                view.ncols()
            )));
        }
        if view.perm().is_none() {
            return Err(NacsError::Format(
                "squares NACS file lacks the transpose permutation section".into(),
            ));
        }
        Ok(Self {
            storage: Storage::Mapped { view },
        })
    }

    /// True when the pattern is served from a memory-mapped file.
    pub fn is_mapped(&self) -> bool {
        matches!(self.storage, Storage::Mapped { .. })
    }

    /// The mapped view, when out-of-core.
    pub fn mapped_view(&self) -> Option<&CsrView> {
        match &self.storage {
            Storage::Mapped { view } => Some(view),
            Storage::InCore { .. } => None,
        }
    }

    /// Write this matrix to a `NACS` file (unit weights + transpose
    /// permutation), so it can be reopened with
    /// [`CsrView::open`] + [`SquaresMatrix::from_mapped`].
    pub fn write_nacs(&self, path: &Path) -> Result<(), NacsError> {
        match &self.storage {
            Storage::InCore {
                pattern,
                transpose_perm,
            } => pattern.write_nacs(path, true, Some(transpose_perm.as_slice())),
            Storage::Mapped { view } => view.to_csr().write_nacs(path, true, view.perm()),
        }
    }

    /// Enumerate the squares of `A`, `B`, `L` directly into a `NACS`
    /// file, holding at most `spill_buffer_bytes` of enumerated column
    /// indices in memory at a time, then reopen the file mapped.
    ///
    /// The per-row enumeration is byte-for-byte the same as
    /// [`SquaresMatrix::build`]; blocks of rows are enumerated in
    /// parallel and their (sorted) column lists are appended to a spill
    /// file whenever the buffer exceeds its budget. A second sequential
    /// pass over the spill emits the `indices` section, and a third
    /// emits the transpose permutation without materializing it: for a
    /// structurally symmetric pattern the transpose permutation is an
    /// involution, so `perm[k] = next[colidx[k]]++` (with `next`
    /// initialized from `rowptr`) produces, entry by entry in file
    /// order, exactly the permutation the in-core next-slot walk
    /// builds. Only `O(|E_L|)` state (row counts, `next`) stays
    /// resident.
    pub fn build_streaming(
        a: &Graph,
        b: &Graph,
        l: &BipartiteGraph,
        path: &Path,
        spill_buffer_bytes: usize,
    ) -> Result<Self, NacsError> {
        assert!(
            l.num_edges() < u32::MAX as usize - 1,
            "edge ids must fit in u32"
        );
        let m = l.num_edges();
        let mut spill_path = path.as_os_str().to_owned();
        spill_path.push(".spill");
        let spill_path = std::path::PathBuf::from(spill_path);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }

        // Pass 1: enumerate row blocks in parallel, spill column lists.
        const ROWS_PER_CHUNK: usize = 2048;
        let cap_entries = (spill_buffer_bytes / 4).max(1 << 16);
        let mut rowcount = vec![0u32; m];
        let mut nnz = 0u64;
        {
            let spill = std::fs::File::create(&spill_path)?;
            let mut spill = BufWriter::with_capacity(1 << 20, spill);
            let mut buf: Vec<u32> = Vec::with_capacity(cap_entries.min(1 << 24));
            let mut base = 0usize;
            while base < m {
                let end = (base + ROWS_PER_CHUNK).min(m);
                let chunk_rows: Vec<Vec<VertexId>> = (base..end)
                    .into_par_iter()
                    .map(|e| squares_row(a, b, l, e))
                    .collect();
                for (off, cols) in chunk_rows.iter().enumerate() {
                    rowcount[base + off] = cols.len() as u32;
                    nnz += cols.len() as u64;
                    buf.extend_from_slice(cols);
                    if buf.len() >= cap_entries {
                        write_u32_stream(&mut spill, &buf)?;
                        buf.clear();
                    }
                }
                base = end;
            }
            write_u32_stream(&mut spill, &buf)?;
            spill.flush()?;
        }

        // Header + indptr from the row counts.
        let mut w = NacsWriter::create(path, m, m, nnz as usize, true, true)?;
        w.begin_section(Section::Indptr)?;
        {
            let mut acc = 0u64;
            let mut out: Vec<u64> = Vec::with_capacity(1 << 16);
            out.push(0);
            for &c in &rowcount {
                acc += c as u64;
                out.push(acc);
                if out.len() == 1 << 16 {
                    w.write_u64s(&out)?;
                    out.clear();
                }
            }
            w.write_u64s(&out)?;
        }
        w.end_section()?;

        // Pass 2: stream the spill through as the indices section.
        w.begin_section(Section::Indices)?;
        {
            let mut rd = BufReader::with_capacity(1 << 20, std::fs::File::open(&spill_path)?);
            let mut chunk = vec![0u8; 1 << 20];
            loop {
                let n = rd.read(&mut chunk)?;
                if n == 0 {
                    break;
                }
                w.write(&chunk[..n])?;
            }
        }
        w.end_section()?;

        // Pass 3: stream the spill again, emitting the involution
        // transpose permutation entry by entry.
        w.begin_section(Section::Perm)?;
        {
            let mut next = vec![0u64; m];
            let mut acc = 0u64;
            for (e, &c) in rowcount.iter().enumerate() {
                next[e] = acc;
                acc += c as u64;
            }
            let mut rd = BufReader::with_capacity(1 << 20, std::fs::File::open(&spill_path)?);
            let mut chunk = vec![0u8; 1 << 20];
            let mut out: Vec<u64> = Vec::with_capacity(1 << 18);
            loop {
                let n = fill_buf(&mut rd, &mut chunk)?;
                if n == 0 {
                    break;
                }
                debug_assert_eq!(n % 4, 0, "spill size is a multiple of 4");
                for cb in chunk[..n].chunks_exact(4) {
                    let c = u32::from_le_bytes(cb.try_into().unwrap()) as usize;
                    out.push(next[c]);
                    next[c] += 1;
                    if out.len() == 1 << 18 {
                        w.write_u64s(&out)?;
                        out.clear();
                    }
                }
            }
            w.write_u64s(&out)?;
        }
        w.end_section()?;
        w.finish()?;
        let _ = std::fs::remove_file(&spill_path);

        Self::from_mapped(CsrView::open(path)?)
    }

    /// Patch this matrix after a structural delta instead of rebuilding
    /// it from scratch.
    ///
    /// `a2`/`b2`/`l2` are the *patched* graphs. `old_to_new` maps old
    /// `L` edge ids to new ones (`usize::MAX` = removed), `new_to_old`
    /// is its inverse (`usize::MAX` = brand-new edge). `core_rows` is
    /// the sorted set of new row ids whose square set may have changed
    /// — the caller derives it from the delta (new rows, rows touching
    /// A/B-delta vertices, partner rows of L-delta edges). Every other
    /// row's old column list is carried over through the id remap;
    /// only core rows are re-enumerated with [`SquaresMatrix::build`]'s
    /// algorithm, so the result is bit-identical to a full rebuild at a
    /// fraction of the work.
    ///
    /// Returns the patched matrix, one `shape_preserved` flag per core
    /// row (true when its column set is unchanged modulo renumbering —
    /// per-entry row state like `sk` can then be carried over 1:1), and
    /// patch statistics.
    pub fn patch(
        &self,
        a2: &Graph,
        b2: &Graph,
        l2: &BipartiteGraph,
        old_to_new: &[usize],
        new_to_old: &[usize],
        core_rows: &[EdgeId],
    ) -> (SquaresMatrix, Vec<bool>, SquaresPatchStats) {
        assert!(
            l2.num_edges() < u32::MAX as usize - 1,
            "edge ids must fit in u32"
        );
        let m2 = l2.num_edges();
        assert_eq!(old_to_new.len(), self.dim());
        assert_eq!(new_to_old.len(), m2);
        debug_assert!(core_rows.windows(2).all(|w| w[0] < w[1]));

        // Re-enumerate core rows as build() enumerates every row.
        let core_cols: Vec<Vec<VertexId>> = core_rows
            .par_iter()
            .map(|&e| squares_row(a2, b2, l2, e))
            .collect();

        // Assemble: core rows take their fresh lists; every other row
        // remaps its old column list (monotone map keeps it sorted).
        let mut rowptr = Vec::with_capacity(m2 + 1);
        rowptr.push(0usize);
        let mut colidx: Vec<VertexId> = Vec::with_capacity(self.nnz());
        let mut shape_preserved = vec![false; core_rows.len()];
        let mut entries_reused = 0usize;
        let mut core_iter = core_rows.iter().zip(core_cols.iter()).peekable();
        for e in 0..m2 {
            match core_iter.peek() {
                Some(&(&ce, cols)) if ce == e => {
                    // Shape is preserved when the old row exists and its
                    // surviving remapped columns equal the fresh list.
                    let old = new_to_old[e];
                    if old != usize::MAX {
                        let old_cols = self.row_cols(old);
                        shape_preserved[core_rows.binary_search(&e).unwrap()] = old_cols.len()
                            == cols.len()
                            && old_cols
                                .iter()
                                .zip(cols.iter())
                                .all(|(&oc, &nc)| old_to_new[oc as usize] == nc as usize);
                    }
                    colidx.extend_from_slice(cols);
                    core_iter.next();
                }
                _ => {
                    let old = new_to_old[e];
                    debug_assert_ne!(old, usize::MAX, "non-core rows must map to an old row");
                    for &oc in self.row_cols(old) {
                        let nc = old_to_new[oc as usize];
                        debug_assert_ne!(
                            nc,
                            usize::MAX,
                            "a non-core row referenced a removed column — its partner \
                             rows were not all marked core"
                        );
                        colidx.push(nc as VertexId);
                    }
                    entries_reused += colidx.len() - rowptr[e];
                }
            }
            rowptr.push(colidx.len());
        }
        let nnz = colidx.len();
        let vals = vec![1.0f64; nnz];
        let pattern = CsrMatrix::from_raw(m2, m2, rowptr, colidx, vals);
        debug_assert!(pattern.is_structurally_symmetric());

        // Transpose permutation via the same next-slot walk as
        // `CsrMatrix::transpose_permutation`, but without its O(nnz log)
        // symmetry assertion on the hot path (debug-checked above).
        let mut perm = vec![0usize; nnz];
        let mut next = pattern.rowptr().to_vec();
        for row in 0..m2 {
            for e in pattern.row_range(row) {
                let c = pattern.colidx()[e] as usize;
                let slot = next[c];
                next[c] += 1;
                perm[slot] = e;
            }
        }
        let transpose_perm = Permutation::from_vec(perm);
        let stats = SquaresPatchStats {
            rows_reenumerated: core_rows.len(),
            rows_reused: m2 - core_rows.len(),
            entries_reused,
            nnz,
        };
        (
            SquaresMatrix {
                storage: Storage::InCore {
                    pattern,
                    transpose_perm,
                },
            },
            shape_preserved,
            stats,
        )
    }

    /// Number of stored entries (each overlapping pair counts twice —
    /// the symmetric storage convention of the paper's Table II).
    #[inline]
    pub fn nnz(&self) -> usize {
        match &self.storage {
            Storage::InCore { pattern, .. } => pattern.nnz(),
            Storage::Mapped { view } => view.nnz(),
        }
    }

    /// Number of rows/columns (`|E_L|`).
    #[inline]
    pub fn dim(&self) -> usize {
        match &self.storage {
            Storage::InCore { pattern, .. } => pattern.nrows(),
            Storage::Mapped { view } => view.nrows(),
        }
    }

    /// The underlying in-core CSR pattern (values all 1.0).
    ///
    /// # Panics
    /// Panics for mapped storage — kernels should use the slice
    /// accessors, which work for both.
    #[inline]
    pub fn pattern(&self) -> &CsrMatrix {
        match &self.storage {
            Storage::InCore { pattern, .. } => pattern,
            Storage::Mapped { .. } => {
                panic!("pattern() requires in-core storage; use rowptr()/colidx()")
            }
        }
    }

    /// Row pointer array.
    #[inline]
    pub fn rowptr(&self) -> &[usize] {
        match &self.storage {
            Storage::InCore { pattern, .. } => pattern.rowptr(),
            Storage::Mapped { view } => view.rowptr(),
        }
    }

    /// Column indices (edge ids of `L`).
    #[inline]
    pub fn colidx(&self) -> &[VertexId] {
        match &self.storage {
            Storage::InCore { pattern, .. } => pattern.colidx(),
            Storage::Mapped { view } => view.colidx(),
        }
    }

    /// Entry-index range of row `e`.
    #[inline]
    pub fn row_range(&self, e: EdgeId) -> std::ops::Range<usize> {
        let p = self.rowptr();
        p[e]..p[e + 1]
    }

    /// Column ids of row `e`.
    #[inline]
    pub fn row_cols(&self, e: EdgeId) -> &[VertexId] {
        &self.colidx()[self.row_range(e)]
    }

    /// The transpose value permutation as a typed [`Permutation`].
    ///
    /// # Panics
    /// Panics for mapped storage — use
    /// [`transpose_perm_slice`](SquaresMatrix::transpose_perm_slice).
    #[inline]
    pub fn transpose_perm(&self) -> &Permutation {
        match &self.storage {
            Storage::InCore { transpose_perm, .. } => transpose_perm,
            Storage::Mapped { .. } => {
                panic!("transpose_perm() requires in-core storage; use transpose_perm_slice()")
            }
        }
    }

    /// The transpose value permutation as a raw slice, for either
    /// storage: for a value array `v` over this pattern,
    /// `transpose(v)[k] = v[perm[k]]`.
    #[inline]
    pub fn transpose_perm_slice(&self) -> &[usize] {
        match &self.storage {
            Storage::InCore { transpose_perm, .. } => transpose_perm.as_slice(),
            Storage::Mapped { view } => view
                .perm()
                .expect("mapped squares matrices always carry a perm section"),
        }
    }

    /// Gather a transposed value array: `out[k] = vals[perm[k]]`
    /// (parallel).
    pub fn transpose_vals_into(&self, vals: &[f64], out: &mut [f64]) {
        assert_eq!(vals.len(), self.nnz());
        assert_eq!(out.len(), self.nnz());
        let perm = self.transpose_perm_slice();
        out.par_iter_mut()
            .zip(perm.par_iter())
            .for_each(|(o, &p)| *o = vals[p]);
    }

    /// Fresh value array over the pattern, filled with `init`.
    pub fn new_vals(&self, init: f64) -> Vec<f64> {
        vec![init; self.nnz()]
    }

    /// `xᵀ S x` for an indicator (or real) vector `x` over `E_L`,
    /// computed in parallel. The overlap count is half of this.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim());
        (0..self.dim())
            .into_par_iter()
            .map(|e| {
                if x[e] == 0.0 {
                    return 0.0;
                }
                let mut acc = 0.0;
                for &f in self.row_cols(e) {
                    acc += x[f as usize];
                }
                acc * x[e]
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles with identity L plus one extra candidate.
    fn triangle_problem() -> (Graph, Graph, BipartiteGraph) {
        let a = Graph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        let b = Graph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        let l = BipartiteGraph::from_entries(
            3,
            3,
            vec![(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (0, 1, 0.5)],
        );
        (a, b, l)
    }

    #[test]
    fn squares_of_triangles() {
        let (a, b, l) = triangle_problem();
        let s = SquaresMatrix::build(&a, &b, &l);
        assert_eq!(s.dim(), 4);
        // Identity pairs: ((0,0),(1,1)), ((0,0),(2,2)), ((1,1),(2,2))
        // each stored twice = 6. Extra edge (0,1): pairs with (j,j')
        // where j ∈ {1,2}, j' ∈ {0,2} and (j,j') ∈ L: (2,2) only -> 2 more.
        // Also (0,1) with (1,0)? (1,0) not in L. Total 8.
        assert_eq!(s.nnz(), 8);
        let e01 = l.edge_id(0, 1).unwrap();
        let e22 = l.edge_id(2, 2).unwrap();
        assert!(s.row_cols(e01).contains(&(e22 as u32)));
    }

    #[test]
    fn pattern_is_symmetric_with_empty_diagonal() {
        let (a, b, l) = triangle_problem();
        let s = SquaresMatrix::build(&a, &b, &l);
        assert!(s.pattern().is_structurally_symmetric());
        for e in 0..s.dim() {
            assert!(!s.row_cols(e).contains(&(e as u32)));
        }
    }

    #[test]
    fn quadratic_form_counts_overlaps_twice() {
        let (a, b, l) = triangle_problem();
        let s = SquaresMatrix::build(&a, &b, &l);
        // identity matching indicator
        let mut x = vec![0.0; 4];
        for i in 0..3 {
            x[l.edge_id(i, i).unwrap()] = 1.0;
        }
        // 3 overlapped edges -> x'Sx = 6
        assert_eq!(s.quadratic_form(&x), 6.0);
    }

    #[test]
    fn transpose_vals_roundtrip() {
        let (a, b, l) = triangle_problem();
        let s = SquaresMatrix::build(&a, &b, &l);
        let vals: Vec<f64> = (0..s.nnz()).map(|i| i as f64).collect();
        let mut t = vec![0.0; s.nnz()];
        s.transpose_vals_into(&vals, &mut t);
        let mut back = vec![0.0; s.nnz()];
        s.transpose_vals_into(&t, &mut back);
        assert_eq!(vals, back); // transpose is an involution
    }

    #[test]
    fn patch_with_all_core_rows_matches_rebuild() {
        let (a, b, l) = triangle_problem();
        let s = SquaresMatrix::build(&a, &b, &l);
        // Remove candidate (0,1), add (1,0); drop A edge (2,0).
        let d = netalign_graph::delta::CandidateDelta {
            insert: vec![(1, 0, 0.4)],
            remove: vec![(0, 1)],
            ..Default::default()
        };
        let applied = d.apply(&l).unwrap();
        let a2 = netalign_graph::delta::GraphDelta {
            remove: vec![(2, 0)],
            ..Default::default()
        }
        .apply(&a)
        .unwrap();
        let core: Vec<EdgeId> = (0..applied.graph.num_edges()).collect();
        let (patched, _, stats) = s.patch(
            &a2,
            &b,
            &applied.graph,
            &applied.old_to_new,
            &applied.new_to_old(),
            &core,
        );
        let rebuilt = SquaresMatrix::build(&a2, &b, &applied.graph);
        assert_eq!(patched.pattern(), rebuilt.pattern());
        assert_eq!(patched.transpose_perm(), rebuilt.transpose_perm());
        assert_eq!(stats.rows_reenumerated, core.len());
        assert_eq!(stats.rows_reused, 0);
    }

    #[test]
    fn patch_with_no_core_rows_keeps_the_pattern() {
        // A pure reweight never changes S: empty core set, identity map.
        let (a, b, l) = triangle_problem();
        let s = SquaresMatrix::build(&a, &b, &l);
        let ids: Vec<usize> = (0..l.num_edges()).collect();
        let (patched, flags, stats) = s.patch(&a, &b, &l, &ids, &ids, &[]);
        assert_eq!(patched.pattern(), s.pattern());
        assert_eq!(patched.transpose_perm(), s.transpose_perm());
        assert!(flags.is_empty());
        assert_eq!(stats.entries_reused, s.nnz());
    }

    #[test]
    fn streaming_build_matches_in_core() {
        let (a, b, l) = triangle_problem();
        let s = SquaresMatrix::build(&a, &b, &l);
        let dir = std::env::temp_dir().join(format!("netalign-squares-{}", std::process::id()));
        let path = dir.join("triangle.nacs");
        // A 64-byte buffer forces multiple spill flushes even here.
        let sm = SquaresMatrix::build_streaming(&a, &b, &l, &path, 64).unwrap();
        assert!(sm.is_mapped());
        assert!(!s.is_mapped());
        assert_eq!(sm.dim(), s.dim());
        assert_eq!(sm.nnz(), s.nnz());
        assert_eq!(sm.rowptr(), s.rowptr());
        assert_eq!(sm.colidx(), s.colidx());
        assert_eq!(sm.transpose_perm_slice(), s.transpose_perm().as_slice());
        for e in 0..s.dim() {
            assert_eq!(sm.row_cols(e), s.row_cols(e));
        }
        let x = [1.0, 0.5, 1.0, 0.0];
        assert_eq!(
            sm.quadratic_form(&x).to_bits(),
            s.quadratic_form(&x).to_bits()
        );
        // write_nacs of the in-core matrix reopens identically too.
        let path2 = dir.join("triangle2.nacs");
        s.write_nacs(&path2).unwrap();
        let sm2 = SquaresMatrix::from_mapped(netalign_graph::nacs::CsrView::open(&path2).unwrap())
            .unwrap();
        assert_eq!(sm2.colidx(), s.colidx());
        assert_eq!(sm2.transpose_perm_slice(), s.transpose_perm().as_slice());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path2);
    }

    #[test]
    #[should_panic(expected = "in-core")]
    fn mapped_pattern_access_panics() {
        let (a, b, l) = triangle_problem();
        let dir = std::env::temp_dir().join(format!("netalign-squares-{}", std::process::id()));
        let path = dir.join("panic.nacs");
        let sm = SquaresMatrix::build_streaming(&a, &b, &l, &path, 1 << 20).unwrap();
        let _ = std::fs::remove_file(&path);
        let _ = sm.pattern();
    }

    #[test]
    fn empty_graphs_give_empty_s() {
        let a = Graph::empty(2);
        let b = Graph::empty(2);
        let l = BipartiteGraph::from_entries(2, 2, vec![(0, 0, 1.0), (1, 1, 1.0)]);
        let s = SquaresMatrix::build(&a, &b, &l);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.quadratic_form(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn square_needs_both_graph_edges() {
        // Edge only in A, not B: no squares.
        let a = Graph::from_edges(2, vec![(0, 1)]);
        let b = Graph::empty(2);
        let l = BipartiteGraph::from_entries(2, 2, vec![(0, 0, 1.0), (1, 1, 1.0)]);
        let s = SquaresMatrix::build(&a, &b, &l);
        assert_eq!(s.nnz(), 0);
    }
}
