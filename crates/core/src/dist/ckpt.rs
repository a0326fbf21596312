//! Per-worker iteration checkpoints (`NADC` files).
//!
//! Every worker writes its damped `y/z/sk` blocks to the shared state
//! directory at the end of each iteration (tmp + rename, so a crash
//! never leaves a half-written file visible), keeping the two newest
//! iterations. After a failure the coordinator scans the directory,
//! picks the newest iteration whose surviving blocks exactly tile the
//! edge range, and re-seeds every worker from that state — respawned
//! replacements and re-partitioned survivors alike.
//!
//! The files need atomicity, not durability. The state directory
//! belongs to one coordinator run, and only that run reads the files
//! back, keeping its resume point in memory. A worker crash leaves the
//! files intact in the page cache; a host crash ends the run, and no
//! later run reads them. So writes are tmp + rename without `fsync`:
//! a sync per superstep on every worker would buy nothing.
//!
//! Layout (little-endian, [`crate::dist::wire`] primitives):
//!
//! ```text
//! "NADC" | version u32 | part u32 | iteration u32
//! e_lo u64 | e_hi u64 | v_lo u64 | v_hi u64
//! y_prev f64s | z_prev f64s | sk_prev f64s
//! fnv1a64(everything above) u64
//! ```

use super::wire::{Dec, Enc};
use netalign_graph::nacs::fnv1a64;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"NADC";
const VERSION: u32 = 1;

/// One decoded checkpoint block.
#[derive(Clone, Debug, PartialEq)]
pub struct CkptBlock {
    pub part: u32,
    pub iteration: u32,
    pub e_lo: u64,
    pub e_hi: u64,
    pub v_lo: u64,
    pub v_hi: u64,
    pub y_prev: Vec<f64>,
    pub z_prev: Vec<f64>,
    pub sk_prev: Vec<f64>,
}

/// File name for `part`'s checkpoint at `iteration`.
pub fn file_name(part: u32, iteration: u32) -> String {
    format!("part{part}-k{iteration}.ckpt")
}

/// Parse a checkpoint file name back into `(part, iteration)`.
fn parse_name(name: &str) -> Option<(u32, u32)> {
    let rest = name.strip_prefix("part")?.strip_suffix(".ckpt")?;
    let (part, iter) = rest.split_once("-k")?;
    Some((part.parse().ok()?, iter.parse().ok()?))
}

/// Atomically write `block` under `dir` (tmp + rename, no `fsync`: see
/// the module docs) and prune this part's files older than the
/// previous iteration.
pub fn write(dir: &Path, block: &CkptBlock) -> io::Result<PathBuf> {
    let mut e = Enc::new();
    e.u8(MAGIC[0]);
    e.u8(MAGIC[1]);
    e.u8(MAGIC[2]);
    e.u8(MAGIC[3]);
    e.u32(VERSION);
    e.u32(block.part);
    e.u32(block.iteration);
    for v in [block.e_lo, block.e_hi, block.v_lo, block.v_hi] {
        e.u64(v);
    }
    e.f64s(&block.y_prev);
    e.f64s(&block.z_prev);
    e.f64s(&block.sk_prev);
    let mut bytes = e.into_bytes();
    let sum = fnv1a64(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());

    fs::create_dir_all(dir)?;
    let path = dir.join(file_name(block.part, block.iteration));
    let tmp = dir.join(format!(".{}.tmp", file_name(block.part, block.iteration)));
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, &path)?;

    // Keep this iteration and the previous one; recovery never reaches
    // further back because the coordinator's resume point trails the
    // newest complete iteration by at most one.
    for (p, k) in list(dir) {
        if p == block.part && k + 1 < block.iteration {
            let _ = fs::remove_file(dir.join(file_name(p, k)));
        }
    }
    Ok(path)
}

/// Read and validate one checkpoint file. Returns `None` for missing,
/// torn, corrupt, or version-mismatched files — recovery just falls
/// back to an older iteration.
pub fn read(path: &Path) -> Option<CkptBlock> {
    let bytes = fs::read(path).ok()?;
    if bytes.len() < 8 {
        return None;
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let sum = u64::from_le_bytes(sum_bytes.try_into().ok()?);
    if fnv1a64(body) != sum {
        return None;
    }
    let mut d = Dec::new(body);
    let magic = [d.u8().ok()?, d.u8().ok()?, d.u8().ok()?, d.u8().ok()?];
    if &magic != MAGIC || d.u32().ok()? != VERSION {
        return None;
    }
    let block = CkptBlock {
        part: d.u32().ok()?,
        iteration: d.u32().ok()?,
        e_lo: d.u64().ok()?,
        e_hi: d.u64().ok()?,
        v_lo: d.u64().ok()?,
        v_hi: d.u64().ok()?,
        y_prev: d.f64s().ok()?,
        z_prev: d.f64s().ok()?,
        sk_prev: d.f64s().ok()?,
    };
    d.finish().ok()?;
    Some(block)
}

/// `(part, iteration)` of every checkpoint-named file under `dir`.
pub fn list(dir: &Path) -> Vec<(u32, u32)> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        if let Some(parsed) = entry.file_name().to_str().and_then(parse_name) {
            out.push(parsed);
        }
    }
    out
}

/// Delete every checkpoint at an iteration beyond `j` — those
/// iterations are about to be re-executed, and stale blocks from an
/// older partition epoch must not pollute a future tiling scan.
pub fn prune_beyond(dir: &Path, j: u32) {
    for (p, k) in list(dir) {
        if k > j {
            let _ = fs::remove_file(dir.join(file_name(p, k)));
        }
    }
}

/// Pick the newest iteration `≤ cap` whose valid blocks exactly tile
/// `[0, m)` edges, and return it with its blocks sorted by `e_lo`.
/// Returns `None` when no complete tiling survives (resume from
/// iteration 0 with zero state).
pub fn newest_tiling(dir: &Path, cap: u32, m: u64) -> Option<(u32, Vec<CkptBlock>)> {
    let mut iters: Vec<u32> = list(dir)
        .into_iter()
        .map(|(_, k)| k)
        .filter(|&k| k <= cap && k > 0)
        .collect();
    iters.sort_unstable();
    iters.dedup();
    for &k in iters.iter().rev() {
        let mut blocks: Vec<CkptBlock> = list(dir)
            .into_iter()
            .filter(|&(_, ik)| ik == k)
            .filter_map(|(p, ik)| read(&dir.join(file_name(p, ik))))
            .collect();
        blocks.sort_by_key(|b| b.e_lo);
        blocks.dedup_by_key(|b| b.e_lo);
        let tiles = !blocks.is_empty()
            && blocks[0].e_lo == 0
            && blocks.last().unwrap().e_hi == m
            && blocks.windows(2).all(|w| w[0].e_hi == w[1].e_lo)
            && blocks
                .iter()
                .all(|b| b.y_prev.len() == (b.e_hi - b.e_lo) as usize);
        if tiles {
            return Some((k, blocks));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(part: u32, k: u32, e_lo: u64, e_hi: u64) -> CkptBlock {
        let ne = (e_hi - e_lo) as usize;
        CkptBlock {
            part,
            iteration: k,
            e_lo,
            e_hi,
            v_lo: e_lo * 3,
            v_hi: e_hi * 3,
            y_prev: vec![0.5; ne],
            z_prev: vec![-0.5; ne],
            sk_prev: vec![0.25; ne * 3],
        }
    }

    #[test]
    fn roundtrip_and_pruning() {
        let dir = std::env::temp_dir().join(format!("nadc-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for k in 1..=4 {
            write(&dir, &block(0, k, 0, 10)).unwrap();
        }
        // Keep-2: only iterations 3 and 4 remain for part 0.
        let mut kept = list(&dir);
        kept.sort_unstable();
        assert_eq!(kept, vec![(0, 3), (0, 4)]);
        let back = read(&dir.join(file_name(0, 4))).expect("valid");
        assert_eq!(back, block(0, 4, 0, 10));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_skipped_and_tiling_falls_back() {
        let dir = std::env::temp_dir().join(format!("nadc-tile-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for k in [3u32, 4] {
            write(&dir, &block(0, k, 0, 6)).unwrap();
            write(&dir, &block(1, k, 6, 10)).unwrap();
        }
        // Corrupt part 1's iteration-4 block: flip one payload byte.
        let victim = dir.join(file_name(1, 4));
        let mut bytes = fs::read(&victim).unwrap();
        bytes[20] ^= 0xff;
        fs::write(&victim, bytes).unwrap();
        assert_eq!(read(&victim), None, "corrupt checkpoint must not parse");
        // Iteration 4 no longer tiles; 3 does.
        let (j, blocks) = newest_tiling(&dir, 10, 10).expect("tiling");
        assert_eq!(j, 3);
        assert_eq!(blocks.len(), 2);
        assert_eq!((blocks[0].e_lo, blocks[1].e_hi), (0, 10));
        // A cap below 3 forces a fresh start.
        assert!(newest_tiling(&dir, 2, 10).is_none());
        prune_beyond(&dir, 3);
        let mut kept = list(&dir);
        kept.sort_unstable();
        assert_eq!(kept, vec![(0, 3), (1, 3)]);
        let _ = fs::remove_dir_all(&dir);
    }
}
