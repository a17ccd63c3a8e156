//! Binary snapshots of the engine's state: the epoch, the full
//! [`TransactionDb`], and the hot lattices the LRU budget was holding.
//!
//! A snapshot bounds WAL replay at boot — recovery loads the newest
//! snapshot, then replays only the records above its epoch — and it is
//! what makes a restart *warm*: the lattices inside it go straight back
//! into the cache, so the first query after `kill -9` answers with zero
//! database scans, exactly like the process that died.
//!
//! Codec (hand-rolled, same dependency policy as [`crate::wal`]):
//!
//! ```text
//! file    := magic "CFQSNAP2" len:u32 crc:u32 payload[len]
//! payload := epoch:u64 db lattice_count:u64 lattice*
//! db      := n_items:u64 n_rows:u64 (row_len:u32 item:u32*)*
//! lattice := ulen:u64 item:u32* min_support:u64 scans_cost:u64
//!            n_levels:u64 (n_sets:u64 (slen:u32 item:u32* support:u64)*)*
//! ```
//!
//! A lattice is written in the cache's stored form
//! ([`StoredLattice`]): its levels from 2 up, `n_levels` counting those.
//! Its level 1 is the database's item-support column. The loader also
//! reads `CFQSNAP1` files, whose lattices start at level 1, and drops
//! that level. A reader of `CFQSNAP1` only refuses a `CFQSNAP2` file at
//! its magic rather than serve its lattices without their singletons.
//!
//! Writes go to a `.tmp` sibling, fsync, then rename — a crash mid-write
//! leaves the previous snapshot intact. Every load is gated by the CRC,
//! by [`TransactionDb::validate`], and by structural checks on each
//! lattice (sorted levels, per-level cardinality) before anything is
//! installed.

use crate::cache::StoredLattice;
use crate::wal::{crc32, decode_db, encode_db, fsync_dir, put_u32, put_u64, Cursor};
use cfq_mining::FrequentSets;
use cfq_types::{CfqError, ItemId, Itemset, Result, TransactionDb};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic header of every snapshot file written.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CFQSNAP2";
/// Magic header of the previous format, whose lattices include level 1;
/// still read.
pub const SNAPSHOT_MAGIC_V1: &[u8; 8] = b"CFQSNAP1";
/// File extension of snapshot files.
pub const SNAPSHOT_EXT: &str = "cfqs";
/// Snapshot generations kept on disk (the newest plus one fallback).
const KEEP_SNAPSHOTS: usize = 2;

/// A borrowed view of one cache entry being snapshotted.
pub struct LatticeView<'a> {
    /// Ascending universe the lattice was mined over.
    pub universe: &'a [ItemId],
    /// Absolute threshold the family is complete down to.
    pub min_support: u64,
    /// Scans the original mining cost (LRU credit on future hits).
    pub scans_cost: u64,
    /// The family itself; only its levels ≥ 2 are written, so the
    /// cache's stored form and a complete family write the same bytes.
    pub lattice: &'a FrequentSets,
}

/// A decoded snapshot, validated and ready to install.
pub struct SnapshotImage {
    /// The epoch the snapshot captured.
    pub epoch: u64,
    /// The full database at that epoch.
    pub db: TransactionDb,
    /// The hot lattices that were cached at that epoch.
    pub lattices: Vec<LatticeImage>,
}

/// One recovered cache entry.
pub struct LatticeImage {
    /// Ascending universe the lattice was mined over.
    pub universe: Vec<ItemId>,
    /// Absolute threshold the family is complete down to.
    pub min_support: u64,
    /// Scans the original mining cost.
    pub scans_cost: u64,
    /// The family itself, levels ≥ 2.
    pub lattice: StoredLattice,
}

/// Path of the snapshot capturing `epoch`.
pub fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snapshot-{epoch:020}.{SNAPSHOT_EXT}"))
}

/// Snapshot files in `dir`, `(epoch, path)`, ascending by epoch.
pub fn snapshot_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let Some(stem) = name
            .strip_prefix("snapshot-")
            .and_then(|s| s.strip_suffix(&format!(".{SNAPSHOT_EXT}")))
        else {
            continue;
        };
        if let Ok(epoch) = stem.parse::<u64>() {
            out.push((epoch, path));
        }
    }
    out.sort_unstable_by_key(|(epoch, _)| *epoch);
    Ok(out)
}

/// Writes a snapshot of `db` and `lattices` at `epoch` into `dir`
/// (tmp-write, fsync, rename), pruning generations beyond
/// `KEEP_SNAPSHOTS`. Returns the final path and the byte size.
pub fn write(
    dir: &Path,
    epoch: u64,
    db: &TransactionDb,
    lattices: &[LatticeView<'_>],
) -> Result<(PathBuf, u64)> {
    let mut payload = Vec::with_capacity(64 + db.total_items() * 4);
    put_u64(&mut payload, epoch);
    encode_db(&mut payload, db);
    put_u64(&mut payload, lattices.len() as u64);
    for l in lattices {
        put_u64(&mut payload, l.universe.len() as u64);
        for item in l.universe {
            put_u32(&mut payload, item.0);
        }
        put_u64(&mut payload, l.min_support);
        put_u64(&mut payload, l.scans_cost);
        put_u64(&mut payload, l.lattice.n_levels().saturating_sub(1) as u64);
        for k in 2..=l.lattice.n_levels() {
            let level = l.lattice.level(k);
            put_u64(&mut payload, level.len() as u64);
            for (set, support) in level {
                put_u32(&mut payload, set.len() as u32);
                for item in set.iter() {
                    put_u32(&mut payload, item.0);
                }
                put_u64(&mut payload, *support);
            }
        }
    }

    let path = snapshot_path(dir, epoch);
    let tmp = path.with_extension(format!("{SNAPSHOT_EXT}.tmp"));
    let mut file = File::create(&tmp)
        .map_err(|e| CfqError::Io(format!("create {}: {e}", tmp.display())))?;
    file.write_all(SNAPSHOT_MAGIC)?;
    file.write_all(&(payload.len() as u32).to_le_bytes())?;
    file.write_all(&crc32(&payload).to_le_bytes())?;
    file.write_all(&payload)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, &path)?;
    fsync_dir(dir);

    // Prune old generations, newest-first survivorship.
    let mut files = snapshot_files(dir)?;
    while files.len() > KEEP_SNAPSHOTS {
        let (_, old) = files.remove(0);
        fs::remove_file(&old)?;
    }

    let bytes = (SNAPSHOT_MAGIC.len() + 8 + payload.len()) as u64;
    Ok((path, bytes))
}

/// Loads and validates the snapshot at `path`, in either format; any
/// other file is refused with [`CfqError::Io`] before its payload is read.
pub fn load(path: &Path) -> Result<SnapshotImage> {
    let bytes =
        fs::read(path).map_err(|e| CfqError::Io(format!("read {}: {e}", path.display())))?;
    let head = SNAPSHOT_MAGIC.len() + 8;
    let known = [SNAPSHOT_MAGIC, SNAPSHOT_MAGIC_V1];
    let Some(&magic) = known.iter().find(|m| bytes.len() >= head && bytes[..8] == m[..]) else {
        return Err(CfqError::Io(format!("{} is not a cfq snapshot", path.display())));
    };
    // Where each lattice's stored levels start.
    let first_level = if magic == SNAPSHOT_MAGIC_V1 { 1 } else { 2 };
    let len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    let crc = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    let payload = &bytes[head..];
    if payload.len() != len {
        return Err(CfqError::Io(format!(
            "{}: truncated snapshot ({} payload bytes, header says {len})",
            path.display(),
            payload.len()
        )));
    }
    if crc32(payload) != crc {
        return Err(CfqError::Io(format!("{}: snapshot checksum mismatch", path.display())));
    }

    let mut c = Cursor::new(payload);
    let epoch = c.u64()?;
    let db = decode_db(&mut c)?;
    let n_lattices = c.u64()? as usize;
    let mut lattices = Vec::with_capacity(n_lattices);
    for _ in 0..n_lattices {
        let ulen = c.u64()? as usize;
        let mut universe = Vec::with_capacity(ulen);
        for _ in 0..ulen {
            universe.push(ItemId(c.u32()?));
        }
        if !universe.windows(2).all(|w| w[0] < w[1]) {
            return Err(CfqError::Io("corrupt snapshot: universe not ascending".into()));
        }
        let min_support = c.u64()?;
        let scans_cost = c.u64()?;
        let n_levels = c.u64()? as usize;
        let mut lattice = FrequentSets::new();
        if first_level == 2 {
            lattice.push_level(Vec::new());
        }
        for level_no in first_level..first_level + n_levels {
            let n_sets = c.u64()? as usize;
            let mut sets: Vec<(Itemset, u64)> = Vec::with_capacity(n_sets);
            for _ in 0..n_sets {
                let slen = c.u32()? as usize;
                if slen != level_no {
                    return Err(CfqError::Io(format!(
                        "corrupt snapshot: a {slen}-set stored at level {level_no}"
                    )));
                }
                let mut items = Vec::with_capacity(slen);
                for _ in 0..slen {
                    items.push(ItemId(c.u32()?));
                }
                if !items.windows(2).all(|w| w[0] < w[1]) {
                    return Err(CfqError::Io(
                        "corrupt snapshot: itemset not ascending".into(),
                    ));
                }
                let support = c.u64()?;
                if support < min_support {
                    return Err(CfqError::Io(format!(
                        "corrupt snapshot: support {support} below the lattice \
                         threshold {min_support}"
                    )));
                }
                sets.push((Itemset::from_sorted_vec(items), support));
            }
            if !sets.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(CfqError::Io("corrupt snapshot: level not sorted".into()));
            }
            lattice.push_level(sets);
        }
        let lattice = StoredLattice::new(lattice);
        lattices.push(LatticeImage { universe, min_support, scans_cost, lattice });
    }
    if !c.done() {
        return Err(CfqError::Io("corrupt snapshot: trailing bytes".into()));
    }
    Ok(SnapshotImage { epoch, db, lattices })
}

/// Loads the newest snapshot in `dir`, or `None` when there is none. A
/// snapshot that fails validation falls back to the previous generation
/// (and an error is returned only when every generation is bad).
pub fn load_latest(dir: &Path) -> Result<Option<SnapshotImage>> {
    let files = snapshot_files(dir)?;
    let mut last_err: Option<CfqError> = None;
    for (_, path) in files.into_iter().rev() {
        match load(&path) {
            Ok(image) => return Ok(Some(image)),
            Err(e) => last_err = Some(e),
        }
    }
    match last_err {
        Some(e) => Err(e),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "cfq_snap_{tag}_{}_{n}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn db() -> TransactionDb {
        TransactionDb::from_u32(4, &[&[0, 1, 2], &[1, 2], &[0, 3]])
    }

    fn lattice() -> FrequentSets {
        let mut fs = FrequentSets::new();
        fs.push_level(vec![
            (Itemset::singleton(ItemId(0)), 2),
            (Itemset::singleton(ItemId(1)), 2),
            (Itemset::singleton(ItemId(2)), 2),
        ]);
        fs.push_level(vec![(
            Itemset::from_sorted_vec(vec![ItemId(1), ItemId(2)]),
            2,
        )]);
        fs
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = tmp_dir("roundtrip");
        let fs1 = lattice();
        let universe: Vec<ItemId> = (0..4u32).map(ItemId).collect();
        let views = vec![LatticeView {
            universe: &universe,
            min_support: 2,
            scans_cost: 3,
            lattice: &fs1,
        }];
        let (path, bytes) = write(&dir, 7, &db(), &views).unwrap();
        assert!(path.to_string_lossy().contains("snapshot-"));
        assert!(bytes > 0);

        let image = load_latest(&dir).unwrap().unwrap();
        assert_eq!(image.epoch, 7);
        assert_eq!(image.db.len(), 3);
        assert_eq!(image.db.transaction(2), &[ItemId(0), ItemId(3)]);
        assert_eq!(image.lattices.len(), 1);
        let l = &image.lattices[0];
        assert_eq!(l.min_support, 2);
        assert_eq!(l.scans_cost, 3);
        assert_eq!(l.lattice.level(2), fs1.level(2));
        let full = l.lattice.complete(&image.db, &l.universe, l.min_support);
        assert_eq!(full.iter().collect::<Vec<_>>(), fs1.iter().collect::<Vec<_>>());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_rejected_and_falls_back() {
        let dir = tmp_dir("corrupt");
        write(&dir, 1, &db(), &[]).unwrap();
        let (path2, _) = write(&dir, 2, &db(), &[]).unwrap();
        // Corrupt the newest generation: loading falls back to epoch 1.
        let mut bytes = fs::read(&path2).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path2, &bytes).unwrap();
        let image = load_latest(&dir).unwrap().unwrap();
        assert_eq!(image.epoch, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_loads_nothing() {
        let dir = tmp_dir("empty");
        assert!(load_latest(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn old_generations_are_pruned() {
        let dir = tmp_dir("prune");
        for epoch in 1..=4u64 {
            write(&dir, epoch, &db(), &[]).unwrap();
        }
        let epochs: Vec<u64> =
            snapshot_files(&dir).unwrap().into_iter().map(|(e, _)| e).collect();
        assert_eq!(epochs, vec![3, 4]);
        fs::remove_dir_all(&dir).ok();
    }
}
