//! `NACS` — NetAlign CSR Store, the on-disk CSR container for
//! out-of-core alignment.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"NACS"
//!      4     2  version (currently 1)
//!      6     2  flags   (bit 0: unit weights — no weights section;
//!                        bit 1: transpose permutation section present)
//!      8     8  endian probe 0x0102030405060708
//!     16     8  nrows
//!     24     8  ncols
//!     32     8  nnz
//!     40    96  section table: 4 × { offset u64, len u64, fnv1a64 u64 }
//!               (indptr, indices, weights, perm; absent sections zeroed)
//!    136     8  fnv1a64 of header bytes 0..136
//!    144   112  reserved (zero)
//!    256     …  sections, each at an 8-aligned offset, zero-padded
//! ```
//!
//! Sections: `indptr` is `nrows+1` × u64, `indices` is `nnz` × u32,
//! `weights` is `nnz` × f64 (absent when all values are 1.0 and never
//! read — the squares matrix case), `perm` is `nnz` × u64 (the
//! transpose permutation of a structurally symmetric matrix, see
//! [`crate::csr::CsrMatrix::transpose_permutation`]).
//!
//! Files are written through the same atomic discipline as checkpoints:
//! stream to `<path>.tmp`, fsync, rename over `path`, fsync the
//! directory. [`CsrView::open`] verifies every checksum and the CSR
//! structural invariants by *streaming* the file with a small read
//! buffer (never through the map, so verification does not inflate
//! resident memory), then memory-maps it read-only.

use crate::csr::CsrMatrix;
use crate::mmap::{Advice, Mmap};
use crate::VertexId;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File format version written by this crate.
pub const NACS_VERSION: u16 = 1;

const MAGIC: [u8; 4] = *b"NACS";
const ENDIAN_PROBE: u64 = 0x0102_0304_0506_0708;
const HEADER_LEN: usize = 256;
const HEADER_HASHED: usize = 136;
const FLAG_UNIT_WEIGHTS: u16 = 1;
const FLAG_HAS_PERM: u16 = 2;
const KNOWN_FLAGS: u16 = FLAG_UNIT_WEIGHTS | FLAG_HAS_PERM;
const VERIFY_BUF: usize = 1 << 20;

/// The four section slots of a `NACS` file, in on-disk order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// Row pointer array, `nrows + 1` × u64.
    Indptr,
    /// Column indices, `nnz` × u32.
    Indices,
    /// Edge weights, `nnz` × f64 (absent under unit weights).
    Weights,
    /// Transpose permutation, `nnz` × u64 (optional).
    Perm,
}

impl Section {
    fn index(self) -> usize {
        match self {
            Section::Indptr => 0,
            Section::Indices => 1,
            Section::Weights => 2,
            Section::Perm => 3,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Section::Indptr => "indptr",
            Section::Indices => "indices",
            Section::Weights => "weights",
            Section::Perm => "perm",
        }
    }
}

/// Errors from writing or opening a `NACS` file.
#[derive(Debug)]
pub enum NacsError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a valid `NACS` container (bad magic, truncated,
    /// inconsistent sizes, invalid CSR structure, …).
    Format(String),
    /// A stored checksum does not match the file contents.
    Checksum(&'static str),
    /// The file is valid but this target cannot map it
    /// (non-64-bit or big-endian host).
    Unsupported(&'static str),
}

impl std::fmt::Display for NacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NacsError::Io(e) => write!(f, "nacs i/o error: {e}"),
            NacsError::Format(m) => write!(f, "nacs format error: {m}"),
            NacsError::Checksum(s) => write!(f, "nacs checksum mismatch in {s} section"),
            NacsError::Unsupported(m) => write!(f, "nacs unsupported on this target: {m}"),
        }
    }
}

impl std::error::Error for NacsError {}

impl From<io::Error> for NacsError {
    fn from(e: io::Error) -> Self {
        NacsError::Io(e)
    }
}

// ---------------------------------------------------------------------
// FNV-1a 64
// ---------------------------------------------------------------------

/// Streaming FNV-1a 64-bit hasher, the one FNV implementation in the
/// workspace (dependency-free and fast enough to stream at I/O speed).
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    /// Fold bytes into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// Fold one `u64` word into the hash as its little-endian bytes.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a 64 of `bytes`: the checksum and fingerprint hash of
/// every on-disk format and cache key in the workspace.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

struct OpenSection {
    section: Section,
    hasher: Fnv64,
    written: u64,
    expected: u64,
}

/// Streaming writer producing a `NACS` file atomically.
///
/// Sections must be written in on-disk order via
/// [`begin_section`](NacsWriter::begin_section) /
/// [`end_section`](NacsWriter::end_section); [`finish`](NacsWriter::finish)
/// seals the header and renames the temporary file into place. If the
/// writer is dropped before `finish`, the temporary file is removed.
pub struct NacsWriter {
    out: Option<BufWriter<File>>,
    tmp: PathBuf,
    path: PathBuf,
    nrows: u64,
    ncols: u64,
    nnz: u64,
    flags: u16,
    next_section: usize,
    table: [(u64, u64, u64); 4],
    pos: u64,
    cur: Option<OpenSection>,
}

impl NacsWriter {
    /// Open a writer for `path` with the given shape. `unit_weights`
    /// omits the weights section; `has_perm` requires a perm section.
    pub fn create(
        path: &Path,
        nrows: usize,
        ncols: usize,
        nnz: usize,
        unit_weights: bool,
        has_perm: bool,
    ) -> Result<NacsWriter, NacsError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let file = File::create(&tmp)?;
        let mut out = BufWriter::with_capacity(VERIFY_BUF, file);
        out.write_all(&[0u8; HEADER_LEN])?;
        let mut flags = 0u16;
        if unit_weights {
            flags |= FLAG_UNIT_WEIGHTS;
        }
        if has_perm {
            flags |= FLAG_HAS_PERM;
        }
        Ok(NacsWriter {
            out: Some(out),
            tmp,
            path: path.to_path_buf(),
            nrows: nrows as u64,
            ncols: ncols as u64,
            nnz: nnz as u64,
            flags,
            next_section: 0,
            table: [(0, 0, 0); 4],
            pos: HEADER_LEN as u64,
            cur: None,
        })
    }

    fn expected_sections(&self) -> Vec<Section> {
        let mut v = vec![Section::Indptr, Section::Indices];
        if self.flags & FLAG_UNIT_WEIGHTS == 0 {
            v.push(Section::Weights);
        }
        if self.flags & FLAG_HAS_PERM != 0 {
            v.push(Section::Perm);
        }
        v
    }

    fn expected_len(&self, s: Section) -> u64 {
        match s {
            Section::Indptr => (self.nrows + 1) * 8,
            Section::Indices => self.nnz * 4,
            Section::Weights => self.nnz * 8,
            Section::Perm => self.nnz * 8,
        }
    }

    /// Start the next section; must match the expected order.
    pub fn begin_section(&mut self, s: Section) -> Result<(), NacsError> {
        if self.cur.is_some() {
            return Err(NacsError::Format("section already open".into()));
        }
        let order = self.expected_sections();
        let expect = order.get(self.next_section).copied();
        if expect != Some(s) {
            return Err(NacsError::Format(format!(
                "section {} out of order (expected {:?})",
                s.name(),
                expect.map(Section::name)
            )));
        }
        // 8-align the section start.
        let pad = (8 - (self.pos % 8)) % 8;
        if pad > 0 {
            self.out
                .as_mut()
                .unwrap()
                .write_all(&[0u8; 8][..pad as usize])?;
            self.pos += pad;
        }
        self.table[s.index()].0 = self.pos;
        self.cur = Some(OpenSection {
            section: s,
            hasher: Fnv64::new(),
            written: 0,
            expected: self.expected_len(s),
        });
        Ok(())
    }

    /// Append raw bytes to the open section.
    pub fn write(&mut self, bytes: &[u8]) -> Result<(), NacsError> {
        let cur = self
            .cur
            .as_mut()
            .ok_or_else(|| NacsError::Format("no open section".into()))?;
        cur.hasher.update(bytes);
        cur.written += bytes.len() as u64;
        self.out.as_mut().unwrap().write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Append u64 values (little-endian) to the open section.
    pub fn write_u64s(&mut self, vals: &[u64]) -> Result<(), NacsError> {
        #[cfg(target_endian = "little")]
        {
            let bytes =
                unsafe { std::slice::from_raw_parts(vals.as_ptr() as *const u8, vals.len() * 8) };
            self.write(bytes)
        }
        #[cfg(not(target_endian = "little"))]
        {
            for &v in vals {
                self.write(&v.to_le_bytes())?;
            }
            Ok(())
        }
    }

    /// Append u32 values (little-endian) to the open section.
    pub fn write_u32s(&mut self, vals: &[u32]) -> Result<(), NacsError> {
        #[cfg(target_endian = "little")]
        {
            let bytes =
                unsafe { std::slice::from_raw_parts(vals.as_ptr() as *const u8, vals.len() * 4) };
            self.write(bytes)
        }
        #[cfg(not(target_endian = "little"))]
        {
            for &v in vals {
                self.write(&v.to_le_bytes())?;
            }
            Ok(())
        }
    }

    /// Append f64 values (little-endian bit patterns) to the open section.
    pub fn write_f64s(&mut self, vals: &[f64]) -> Result<(), NacsError> {
        #[cfg(target_endian = "little")]
        {
            let bytes =
                unsafe { std::slice::from_raw_parts(vals.as_ptr() as *const u8, vals.len() * 8) };
            self.write(bytes)
        }
        #[cfg(not(target_endian = "little"))]
        {
            for &v in vals {
                self.write(&v.to_bits().to_le_bytes())?;
            }
            Ok(())
        }
    }

    /// Close the open section, checking its length against the header
    /// shape and recording its checksum.
    pub fn end_section(&mut self) -> Result<(), NacsError> {
        let cur = self
            .cur
            .take()
            .ok_or_else(|| NacsError::Format("no open section".into()))?;
        if cur.written != cur.expected {
            return Err(NacsError::Format(format!(
                "section {} has {} bytes, expected {}",
                cur.section.name(),
                cur.written,
                cur.expected
            )));
        }
        let e = &mut self.table[cur.section.index()];
        e.1 = cur.written;
        e.2 = cur.hasher.finish();
        self.next_section += 1;
        Ok(())
    }

    /// Seal the header, fsync, and atomically rename into place.
    pub fn finish(mut self) -> Result<(), NacsError> {
        if self.cur.is_some() {
            return Err(NacsError::Format("finish with open section".into()));
        }
        let order = self.expected_sections();
        if self.next_section != order.len() {
            return Err(NacsError::Format(format!(
                "finish after {} of {} sections",
                self.next_section,
                order.len()
            )));
        }
        let mut hdr = [0u8; HEADER_LEN];
        hdr[0..4].copy_from_slice(&MAGIC);
        hdr[4..6].copy_from_slice(&NACS_VERSION.to_le_bytes());
        hdr[6..8].copy_from_slice(&self.flags.to_le_bytes());
        hdr[8..16].copy_from_slice(&ENDIAN_PROBE.to_le_bytes());
        hdr[16..24].copy_from_slice(&self.nrows.to_le_bytes());
        hdr[24..32].copy_from_slice(&self.ncols.to_le_bytes());
        hdr[32..40].copy_from_slice(&self.nnz.to_le_bytes());
        for (i, &(off, len, sum)) in self.table.iter().enumerate() {
            let base = 40 + i * 24;
            hdr[base..base + 8].copy_from_slice(&off.to_le_bytes());
            hdr[base + 8..base + 16].copy_from_slice(&len.to_le_bytes());
            hdr[base + 16..base + 24].copy_from_slice(&sum.to_le_bytes());
        }
        let hsum = fnv1a64(&hdr[..HEADER_HASHED]);
        hdr[HEADER_HASHED..HEADER_HASHED + 8].copy_from_slice(&hsum.to_le_bytes());

        let mut out = self.out.take().unwrap();
        out.flush()?;
        let mut file = out
            .into_inner()
            .map_err(|e| NacsError::Io(e.into_error()))?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&hdr)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&self.tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(if dir.as_os_str().is_empty() {
                Path::new(".")
            } else {
                dir
            }) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

impl Drop for NacsWriter {
    fn drop(&mut self) {
        if self.out.is_some() {
            // finish() was never reached; drop the partial temp file.
            self.out = None;
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

// ---------------------------------------------------------------------
// Reader / mapped view
// ---------------------------------------------------------------------

struct Header {
    flags: u16,
    nrows: u64,
    ncols: u64,
    nnz: u64,
    table: [(u64, u64, u64); 4],
}

fn parse_header(hdr: &[u8; HEADER_LEN]) -> Result<Header, NacsError> {
    if hdr[0..4] != MAGIC {
        return Err(NacsError::Format("bad magic".into()));
    }
    let version = u16::from_le_bytes([hdr[4], hdr[5]]);
    if version != NACS_VERSION {
        return Err(NacsError::Format(format!("unknown version {version}")));
    }
    let flags = u16::from_le_bytes([hdr[6], hdr[7]]);
    if flags & !KNOWN_FLAGS != 0 {
        return Err(NacsError::Format(format!("unknown flags {flags:#x}")));
    }
    let rd64 = |at: usize| u64::from_le_bytes(hdr[at..at + 8].try_into().unwrap());
    if rd64(8) != ENDIAN_PROBE {
        return Err(NacsError::Format("endian probe mismatch".into()));
    }
    let stored = rd64(HEADER_HASHED);
    if fnv1a64(&hdr[..HEADER_HASHED]) != stored {
        return Err(NacsError::Checksum("header"));
    }
    // The reserved tail of the header sits outside the checksummed
    // prefix; the writer zeroes it, so any other value is corruption.
    if hdr[HEADER_HASHED + 8..].iter().any(|&b| b != 0) {
        return Err(NacsError::Format("nonzero header padding".into()));
    }
    let mut table = [(0u64, 0u64, 0u64); 4];
    for (i, e) in table.iter_mut().enumerate() {
        let base = 40 + i * 24;
        *e = (rd64(base), rd64(base + 8), rd64(base + 16));
    }
    Ok(Header {
        flags,
        nrows: rd64(16),
        ncols: rd64(24),
        nnz: rd64(32),
        table,
    })
}

/// A read-only, memory-mapped view of a `NACS` CSR matrix.
///
/// Cloning is cheap (the map is shared through an [`Arc`]). Row
/// pointers and the optional transpose permutation are exposed as
/// `&[usize]` by reinterpreting the on-disk little-endian u64 sections;
/// [`CsrView::open`] refuses to open on targets where that is unsound.
#[derive(Clone)]
pub struct CsrView {
    map: Arc<Mmap>,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    flags: u16,
    // byte ranges within the map, (offset, len); absent => (0, 0)
    table: [(usize, usize); 4],
}

fn cast_slice<T>(bytes: &[u8]) -> &[T] {
    let size = std::mem::size_of::<T>();
    assert_eq!(bytes.len() % size, 0);
    assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, bytes.len() / size) }
}

impl CsrView {
    /// Open and fully verify a `NACS` file, then map it.
    ///
    /// Verification streams the file with a bounded buffer: header
    /// sanity, per-section FNV checksums, `indptr` monotonicity and
    /// terminal value, and `indices`/`perm` bounds. The map itself is
    /// only created after verification succeeds.
    pub fn open(path: &Path) -> Result<CsrView, NacsError> {
        if !cfg!(target_pointer_width = "64") {
            return Err(NacsError::Unsupported("needs a 64-bit host"));
        }
        if !cfg!(target_endian = "little") {
            return Err(NacsError::Unsupported("needs a little-endian host"));
        }
        let mut file = File::open(path)?;
        let flen = file.metadata()?.len();
        if flen < HEADER_LEN as u64 {
            return Err(NacsError::Format("file shorter than header".into()));
        }
        let mut hdr = [0u8; HEADER_LEN];
        file.read_exact(&mut hdr)?;
        let h = parse_header(&hdr)?;

        let present = |s: Section| match s {
            Section::Indptr | Section::Indices => true,
            Section::Weights => h.flags & FLAG_UNIT_WEIGHTS == 0,
            Section::Perm => h.flags & FLAG_HAS_PERM != 0,
        };
        let expected_len = |s: Section| -> Result<u64, NacsError> {
            let (count, width) = match s {
                Section::Indptr => (h.nrows.checked_add(1), 8u64),
                Section::Indices => (Some(h.nnz), 4),
                Section::Weights | Section::Perm => (Some(h.nnz), 8),
            };
            count
                .and_then(|c| c.checked_mul(width))
                .ok_or_else(|| NacsError::Format("shape overflow".into()))
        };

        let mut expected_end = HEADER_LEN as u64;
        for s in [
            Section::Indptr,
            Section::Indices,
            Section::Weights,
            Section::Perm,
        ] {
            let (off, len, _) = h.table[s.index()];
            if !present(s) {
                if off != 0 || len != 0 {
                    return Err(NacsError::Format(format!(
                        "unexpected {} section",
                        s.name()
                    )));
                }
                continue;
            }
            if len != expected_len(s)? {
                return Err(NacsError::Format(format!(
                    "section {} length {} does not match shape",
                    s.name(),
                    len
                )));
            }
            if off % 8 != 0 || off < HEADER_LEN as u64 {
                return Err(NacsError::Format(format!(
                    "section {} misaligned at {}",
                    s.name(),
                    off
                )));
            }
            let end = off
                .checked_add(len)
                .ok_or_else(|| NacsError::Format("section overflow".into()))?;
            if end > flen {
                return Err(NacsError::Format(format!(
                    "section {} extends past end of file",
                    s.name()
                )));
            }
            expected_end = expected_end.max(end);
            verify_section(&mut file, s, off, len, h.table[s.index()].2, &h)?;
        }
        // The writer ends the file exactly at the last section; surplus
        // bytes contradict the section table.
        if flen != expected_end {
            return Err(NacsError::Format(format!(
                "file length {flen} does not match section table end {expected_end}"
            )));
        }

        let file = File::open(path)?;
        let map = Mmap::map(&file)?;
        if map.len() < flen as usize {
            return Err(NacsError::Format("file shrank while opening".into()));
        }
        let mut table = [(0usize, 0usize); 4];
        for i in 0..4 {
            table[i] = (h.table[i].0 as usize, h.table[i].1 as usize);
        }
        Ok(CsrView {
            map: Arc::new(map),
            nrows: h.nrows as usize,
            ncols: h.ncols as usize,
            nnz: h.nnz as usize,
            flags: h.flags,
            table,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// True if the file carries no weights section (all values 1.0).
    pub fn unit_weights(&self) -> bool {
        self.flags & FLAG_UNIT_WEIGHTS != 0
    }

    fn section_bytes(&self, s: Section) -> &[u8] {
        let (off, len) = self.table[s.index()];
        &self.map.as_slice()[off..off + len]
    }

    /// Row pointer array (reinterpreted from on-disk u64).
    pub fn rowptr(&self) -> &[usize] {
        cast_slice::<usize>(self.section_bytes(Section::Indptr))
    }

    /// Column index array.
    pub fn colidx(&self) -> &[VertexId] {
        cast_slice::<VertexId>(self.section_bytes(Section::Indices))
    }

    /// Weights, if stored.
    pub fn vals(&self) -> Option<&[f64]> {
        if self.unit_weights() {
            None
        } else {
            Some(cast_slice::<f64>(self.section_bytes(Section::Weights)))
        }
    }

    /// Transpose permutation, if stored.
    pub fn perm(&self) -> Option<&[usize]> {
        if self.flags & FLAG_HAS_PERM != 0 {
            Some(cast_slice::<usize>(self.section_bytes(Section::Perm)))
        } else {
            None
        }
    }

    /// Entry range of one row.
    pub fn row_range(&self, row: usize) -> std::ops::Range<usize> {
        let p = self.rowptr();
        p[row]..p[row + 1]
    }

    /// Column indices of one row.
    pub fn row_cols(&self, row: usize) -> &[VertexId] {
        &self.colidx()[self.row_range(row)]
    }

    /// Advise the kernel about the access pattern of one section.
    pub fn advise_section(&self, s: Section, advice: Advice) {
        let (off, len) = self.table[s.index()];
        if len > 0 {
            self.map.advise(off..off + len, advice);
        }
    }

    /// Tell the kernel a byte sub-range of a section is not needed soon.
    pub fn release_entries(&self, s: Section, elems: std::ops::Range<usize>) {
        let width = match s {
            Section::Indices => 4,
            _ => 8,
        };
        let (off, len) = self.table[s.index()];
        let start = off + (elems.start * width).min(len);
        let end = off + (elems.end * width).min(len);
        if start < end {
            self.map.advise(start..end, Advice::DontNeed);
        }
    }

    /// Materialize as an in-core [`CsrMatrix`] (tests and small inputs;
    /// unit-weight files get all-1.0 values).
    pub fn to_csr(&self) -> CsrMatrix {
        let rowptr = self.rowptr().to_vec();
        let colidx = self.colidx().to_vec();
        let vals = match self.vals() {
            Some(v) => v.to_vec(),
            None => vec![1.0; self.nnz],
        };
        CsrMatrix::from_raw(self.nrows, self.ncols, rowptr, colidx, vals)
    }
}

impl std::fmt::Debug for CsrView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrView")
            .field("nrows", &self.nrows)
            .field("ncols", &self.ncols)
            .field("nnz", &self.nnz)
            .field("unit_weights", &self.unit_weights())
            .field("has_perm", &(self.flags & FLAG_HAS_PERM != 0))
            .finish()
    }
}

/// Stream one section, folding the checksum and validating structure.
fn verify_section(
    file: &mut File,
    s: Section,
    off: u64,
    len: u64,
    stored_sum: u64,
    h: &Header,
) -> Result<(), NacsError> {
    file.seek(SeekFrom::Start(off))?;
    let mut remaining = len;
    let mut hasher = Fnv64::new();
    let mut buf = vec![0u8; VERIFY_BUF];
    // Structural state carried across buffer chunks.
    let mut prev_ptr = 0u64;
    let mut first = true;
    while remaining > 0 {
        let take = remaining.min(VERIFY_BUF as u64) as usize;
        file.read_exact(&mut buf[..take])
            .map_err(|_| NacsError::Format(format!("section {} truncated", s.name())))?;
        hasher.update(&buf[..take]);
        match s {
            Section::Indptr => {
                for c in buf[..take].chunks_exact(8) {
                    let v = u64::from_le_bytes(c.try_into().unwrap());
                    if first {
                        if v != 0 {
                            return Err(NacsError::Format("indptr does not start at 0".into()));
                        }
                        first = false;
                    } else if v < prev_ptr {
                        return Err(NacsError::Format("indptr not monotone".into()));
                    }
                    if v > h.nnz {
                        return Err(NacsError::Format("indptr exceeds nnz".into()));
                    }
                    prev_ptr = v;
                }
            }
            Section::Indices => {
                for c in buf[..take].chunks_exact(4) {
                    let v = u32::from_le_bytes(c.try_into().unwrap());
                    if (v as u64) >= h.ncols {
                        return Err(NacsError::Format("column index out of range".into()));
                    }
                }
            }
            Section::Perm => {
                for c in buf[..take].chunks_exact(8) {
                    let v = u64::from_le_bytes(c.try_into().unwrap());
                    if v >= h.nnz {
                        return Err(NacsError::Format("perm entry out of range".into()));
                    }
                }
            }
            Section::Weights => {}
        }
        remaining -= take as u64;
    }
    if s == Section::Indptr && prev_ptr != h.nnz {
        return Err(NacsError::Format("indptr does not end at nnz".into()));
    }
    if hasher.finish() != stored_sum {
        return Err(NacsError::Checksum(s.name()));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// CsrMatrix convenience
// ---------------------------------------------------------------------

impl CsrMatrix {
    /// Write this matrix to a `NACS` file. `unit_weights` drops the
    /// value array (callers asserting values are all 1.0 and unread,
    /// like the squares matrix); `perm` optionally stores a transpose
    /// permutation alongside.
    pub fn write_nacs(
        &self,
        path: &Path,
        unit_weights: bool,
        perm: Option<&[usize]>,
    ) -> Result<(), NacsError> {
        if let Some(p) = perm {
            assert_eq!(p.len(), self.nnz(), "perm length must equal nnz");
        }
        let mut w = NacsWriter::create(
            path,
            self.nrows(),
            self.ncols(),
            self.nnz(),
            unit_weights,
            perm.is_some(),
        )?;
        w.begin_section(Section::Indptr)?;
        for chunk in self.rowptr().chunks(VERIFY_BUF / 8) {
            // usize → u64 on-disk width
            let tmp: Vec<u64> = chunk.iter().map(|&v| v as u64).collect();
            w.write_u64s(&tmp)?;
        }
        w.end_section()?;
        w.begin_section(Section::Indices)?;
        w.write_u32s(self.colidx())?;
        w.end_section()?;
        if !unit_weights {
            w.begin_section(Section::Weights)?;
            w.write_f64s(self.vals())?;
            w.end_section()?;
        }
        if let Some(p) = perm {
            w.begin_section(Section::Perm)?;
            for chunk in p.chunks(VERIFY_BUF / 8) {
                let tmp: Vec<u64> = chunk.iter().map(|&v| v as u64).collect();
                w.write_u64s(&tmp)?;
            }
            w.end_section()?;
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("netalign-nacs-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_matrix() -> CsrMatrix {
        // 4x4 structurally symmetric with empty diagonal.
        CsrMatrix::from_triplets(
            4,
            4,
            vec![
                (0, 1, 1.5),
                (1, 0, 1.5),
                (0, 3, 2.0),
                (3, 0, 2.0),
                (1, 2, 0.25),
                (2, 1, 0.25),
            ],
        )
    }

    #[test]
    fn round_trip_with_weights_and_perm() {
        let m = sample_matrix();
        let perm = m.transpose_permutation();
        let path = tmpdir("rt").join("m.nacs");
        m.write_nacs(&path, false, Some(perm.as_slice())).unwrap();
        let v = CsrView::open(&path).unwrap();
        assert_eq!(v.nrows(), 4);
        assert_eq!(v.ncols(), 4);
        assert_eq!(v.nnz(), m.nnz());
        assert_eq!(v.rowptr(), m.rowptr());
        assert_eq!(v.colidx(), m.colidx());
        assert_eq!(v.vals().unwrap(), m.vals());
        assert_eq!(v.perm().unwrap(), perm.as_slice());
        let back = v.to_csr();
        assert_eq!(back.rowptr(), m.rowptr());
        assert_eq!(back.colidx(), m.colidx());
        assert_eq!(back.vals(), m.vals());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unit_weights_omit_section_and_read_as_ones() {
        let m = sample_matrix();
        let path = tmpdir("unit").join("m.nacs");
        m.write_nacs(&path, true, None).unwrap();
        let v = CsrView::open(&path).unwrap();
        assert!(v.unit_weights());
        assert!(v.vals().is_none());
        assert!(v.perm().is_none());
        assert!(v.to_csr().vals().iter().all(|&x| x == 1.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_matrix_round_trips() {
        let m = CsrMatrix::from_triplets(3, 3, Vec::new());
        let path = tmpdir("zero").join("m.nacs");
        m.write_nacs(&path, true, None).unwrap();
        let v = CsrView::open(&path).unwrap();
        assert_eq!(v.nnz(), 0);
        assert_eq!(v.rowptr(), &[0, 0, 0, 0]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let m = sample_matrix();
        let path = tmpdir("flip").join("m.nacs");
        m.write_nacs(&path, false, None).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit somewhere in the weights section (the tail).
        let at = bytes.len() - 5;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match CsrView::open(&path) {
            Err(NacsError::Checksum(_)) | Err(NacsError::Format(_)) => {}
            other => panic!("expected rejection, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_is_rejected_at_every_cut() {
        let m = sample_matrix();
        let path = tmpdir("trunc").join("m.nacs");
        m.write_nacs(&path, false, Some(m.transpose_permutation().as_slice()))
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in (0..bytes.len()).step_by(7) {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                CsrView::open(&path).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let m = sample_matrix();
        let path = tmpdir("magic").join("m.nacs");
        m.write_nacs(&path, true, None).unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(CsrView::open(&path), Err(NacsError::Format(_))));

        let mut bad = good.clone();
        bad[4] = 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(CsrView::open(&path), Err(NacsError::Format(_))));

        // Header field tampering trips the header checksum.
        let mut bad = good.clone();
        bad[32] ^= 0x01; // nnz
        std::fs::write(&path, &bad).unwrap();
        assert!(CsrView::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_enforces_section_order_and_length() {
        let path = tmpdir("order").join("m.nacs");
        let mut w = NacsWriter::create(&path, 1, 1, 1, true, false).unwrap();
        assert!(w.begin_section(Section::Indices).is_err());
        w.begin_section(Section::Indptr).unwrap();
        w.write_u64s(&[0]).unwrap();
        assert!(w.end_section().is_err()); // 1 of 2 entries written
        assert!(!path.exists());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
