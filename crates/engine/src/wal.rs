//! Write-ahead log of [`Engine`](crate::Engine) appends.
//!
//! Every acknowledged `Engine::append` is first written here — one
//! length-prefixed, checksummed binary record per delta, fsync'd before
//! the new epoch is installed — so a `kill -9` after the acknowledgement
//! can never lose the append. On boot the engine replays the log over the
//! latest snapshot (see [`crate::snapshot`]).
//!
//! The codec is hand-rolled (the workspace is dependency-free, same
//! precedent as the JSON codec in [`crate::json`]):
//!
//! ```text
//! file   := magic "CFQWAL1\n" record*
//! record := len:u32 crc:u32 payload[len]      (crc = CRC-32/IEEE of payload)
//! payload:= epoch:u64 n_items:u64 n_rows:u64 (row_len:u32 item:u32*)*
//! ```
//!
//! Files are named `wal-<start_epoch>.cfqw` (zero-padded so the
//! lexicographic order is the numeric order); the writer rotates to a
//! fresh file at every snapshot and prunes generations the snapshot made
//! redundant. A torn tail — a partial frame or a checksum mismatch at the
//! end of the newest file — is an unacknowledged append mid-write: boot
//! recovery truncates it.

use cfq_types::{CfqError, ItemId, Result, TransactionDb};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic header of every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"CFQWAL1\n";
/// File extension of WAL files.
pub const WAL_EXT: &str = "cfqw";
/// Frame head: payload length (u32) + payload CRC-32 (u32).
const FRAME_HEAD: usize = 8;
/// Upper bound on a single record's payload; larger lengths are treated
/// as corruption rather than attempted as allocations.
const MAX_PAYLOAD: u32 = 1 << 30;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected), table built at compile time.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes` — the per-record checksum of the WAL and
/// snapshot codecs.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Little-endian codec helpers shared with the snapshot module.
// ---------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over a decoded payload.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the head of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            CfqError::Io(format!(
                "truncated record: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            ))
        })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// True when every payload byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Encodes a transaction delta: `n_items, n_rows, (row_len, items...)*`.
pub(crate) fn encode_db(out: &mut Vec<u8>, db: &TransactionDb) {
    put_u64(out, db.n_items() as u64);
    put_u64(out, db.len() as u64);
    for row in db.iter() {
        put_u32(out, row.len() as u32);
        for item in row {
            put_u32(out, item.0);
        }
    }
}

/// Decodes a transaction delta written by [`encode_db`], rebuilding the
/// CSR arena directly.
pub(crate) fn decode_db(c: &mut Cursor<'_>) -> Result<TransactionDb> {
    let n_items = c.u64()? as usize;
    let n_rows = c.u64()? as usize;
    let mut items: Vec<ItemId> = Vec::new();
    let mut offsets: Vec<u32> = Vec::with_capacity(n_rows + 1);
    offsets.push(0);
    for _ in 0..n_rows {
        let len = c.u32()? as usize;
        for _ in 0..len {
            let id = c.u32()?;
            if id as usize >= n_items {
                return Err(CfqError::Io(format!(
                    "corrupt record: item {id} outside universe of {n_items}"
                )));
            }
            items.push(ItemId(id));
        }
        let total = u32::try_from(items.len())
            .map_err(|_| CfqError::Io("corrupt record: item arena overflows u32".into()))?;
        offsets.push(total);
    }
    let db = TransactionDb::from_parts(n_items, items, offsets);
    db.validate()?;
    Ok(db)
}

// ---------------------------------------------------------------------
// Records and files
// ---------------------------------------------------------------------

/// One logged append: the epoch it created and the delta it appended.
pub struct WalRecord {
    /// The epoch this append installed (`old epoch + 1`).
    pub epoch: u64,
    /// The appended transactions.
    pub delta: TransactionDb,
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(24 + self.delta.total_items() * 4);
        put_u64(&mut payload, self.epoch);
        encode_db(&mut payload, &self.delta);
        let mut frame = Vec::with_capacity(FRAME_HEAD + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        frame
    }

    fn decode(payload: &[u8]) -> Result<WalRecord> {
        let mut c = Cursor::new(payload);
        let epoch = c.u64()?;
        let delta = decode_db(&mut c)?;
        if !c.done() {
            return Err(CfqError::Io("corrupt record: trailing bytes in payload".into()));
        }
        Ok(WalRecord { epoch, delta })
    }
}

/// Path of the WAL file whose first record installs `start_epoch`.
pub fn wal_path(dir: &Path, start_epoch: u64) -> PathBuf {
    dir.join(format!("wal-{start_epoch:020}.{WAL_EXT}"))
}

/// WAL files in `dir`, `(start_epoch, path)`, ascending by start epoch.
pub fn wal_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let Some(stem) = name.strip_prefix("wal-").and_then(|s| s.strip_suffix(&format!(".{WAL_EXT}")))
        else {
            continue;
        };
        if let Ok(start) = stem.parse::<u64>() {
            out.push((start, path));
        }
    }
    out.sort_unstable_by_key(|(start, _)| *start);
    Ok(out)
}

/// Best-effort directory fsync so a create/rename is durable; some
/// filesystems refuse to sync a directory handle, which is survivable.
pub(crate) fn fsync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Appends records to the newest WAL file, fsync'ing each one before the
/// caller acknowledges the append.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// Records written by this writer.
    pub records: u64,
    /// Frame bytes written by this writer.
    pub bytes: u64,
    /// fsyncs issued (one per record plus one per file creation).
    pub fsyncs: u64,
}

impl WalWriter {
    /// Creates a fresh `wal-<start_epoch>` file (failing if it exists —
    /// two writers on one directory is operator error).
    pub fn create(dir: &Path, start_epoch: u64) -> Result<WalWriter> {
        let path = wal_path(dir, start_epoch);
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| CfqError::Io(format!("create {}: {e}", path.display())))?;
        file.write_all(WAL_MAGIC)?;
        file.sync_all()?;
        fsync_dir(dir);
        Ok(WalWriter { file, path, records: 0, bytes: 0, fsyncs: 1 })
    }

    /// Reopens `path` for appending at `valid_end` — the end of its last
    /// intact record — truncating any torn tail a crash left behind.
    pub fn reopen(path: &Path, valid_end: u64) -> Result<WalWriter> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| CfqError::Io(format!("open {}: {e}", path.display())))?;
        let len = file.metadata()?.len();
        if len > valid_end {
            file.set_len(valid_end)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(valid_end))?;
        Ok(WalWriter { file, path: path.to_path_buf(), records: 0, bytes: 0, fsyncs: 0 })
    }

    /// Writes and fsyncs one record. Only after this returns may the
    /// caller install (and acknowledge) the new epoch.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64> {
        let frame = record.encode();
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.records += 1;
        self.bytes += frame.len() as u64;
        self.fsyncs += 1;
        Ok(frame.len() as u64)
    }

    /// The file currently being appended to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// One step of a sequential WAL read.
pub enum WalItem {
    /// An intact record.
    Record(WalRecord),
    /// End of file, cleanly on a frame boundary.
    Eof,
    /// A partial or checksum-failing frame starting at `offset`: at the
    /// end of the newest file an append that crashed mid-write (recovery
    /// truncates it), anywhere else corruption.
    Torn {
        /// File offset of the first byte of the torn frame.
        offset: u64,
    },
}

/// Sequential reader over one WAL file.
pub struct WalReader {
    file: File,
    /// Offset of the next unread byte.
    offset: u64,
}

impl WalReader {
    /// Opens `path` and verifies the magic header.
    pub fn open(path: &Path) -> Result<WalReader> {
        let mut file =
            File::open(path).map_err(|e| CfqError::Io(format!("open {}: {e}", path.display())))?;
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)
            .map_err(|e| CfqError::Io(format!("{}: short magic: {e}", path.display())))?;
        if &magic != WAL_MAGIC {
            return Err(CfqError::Io(format!("{} is not a cfq WAL file", path.display())));
        }
        Ok(WalReader { file, offset: WAL_MAGIC.len() as u64 })
    }

    /// The frame boundary the next read starts from.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Reads the next frame. Distinguishes a clean EOF from a torn tail;
    /// a checksum mismatch is reported as [`WalItem::Torn`] (the caller
    /// decides whether that is a crash artifact or corruption).
    pub fn next_item(&mut self) -> Result<WalItem> {
        let start = self.offset;
        let mut head = [0u8; FRAME_HEAD];
        let got = read_up_to(&mut self.file, &mut head)?;
        if got == 0 {
            return Ok(WalItem::Eof);
        }
        if got < FRAME_HEAD {
            return Ok(WalItem::Torn { offset: start });
        }
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
        let crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
        if len > MAX_PAYLOAD {
            return Ok(WalItem::Torn { offset: start });
        }
        let mut payload = vec![0u8; len as usize];
        let got = read_up_to(&mut self.file, &mut payload)?;
        if got < payload.len() || crc32(&payload) != crc {
            return Ok(WalItem::Torn { offset: start });
        }
        self.offset = start + (FRAME_HEAD + payload.len()) as u64;
        // Reposition explicitly: a torn probe above may have read past.
        self.file.seek(SeekFrom::Start(self.offset))?;
        WalRecord::decode(&payload).map(WalItem::Record)
    }
}

/// Reads until `buf` is full or EOF; returns the bytes read.
fn read_up_to(file: &mut File, buf: &mut [u8]) -> Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

// ---------------------------------------------------------------------
// Replay (boot recovery)
// ---------------------------------------------------------------------

/// What a full-directory replay found.
#[derive(Debug)]
pub struct ReplaySummary {
    /// Records applied (epoch strictly above the starting point).
    pub records: u64,
    /// Highest epoch seen (the starting epoch when no record applied).
    pub last_epoch: u64,
    /// The newest WAL file and the end of its last intact record — where
    /// the writer resumes. `None` when the directory has no WAL files.
    pub tail: Option<(PathBuf, u64)>,
    /// Whether the newest file ended in a torn frame (truncated on
    /// writer reopen).
    pub torn_tail: bool,
}

/// Replays every record with epoch above `after_epoch`, in epoch order,
/// through `apply`. Records at or below `after_epoch` (already covered by
/// the snapshot) are skipped; an epoch gap or a torn frame anywhere but
/// the newest file's tail is corruption and fails the replay.
pub fn replay(
    dir: &Path,
    after_epoch: u64,
    mut apply: impl FnMut(WalRecord) -> Result<()>,
) -> Result<ReplaySummary> {
    let files = wal_files(dir)?;
    let mut summary = ReplaySummary {
        records: 0,
        last_epoch: after_epoch,
        tail: None,
        torn_tail: false,
    };
    let mut expected = after_epoch + 1;
    let n_files = files.len();
    for (i, (start, path)) in files.into_iter().enumerate() {
        let last_file = i + 1 == n_files;
        if start > expected {
            return Err(CfqError::Io(format!(
                "WAL gap: {} starts at epoch {start} but epoch {expected} was never logged",
                path.display()
            )));
        }
        let mut reader = WalReader::open(&path)?;
        loop {
            match reader.next_item()? {
                WalItem::Eof => break,
                WalItem::Torn { offset } => {
                    if !last_file {
                        return Err(CfqError::Io(format!(
                            "corrupt WAL record at {}:{offset} (not the newest file)",
                            path.display()
                        )));
                    }
                    summary.torn_tail = true;
                    break;
                }
                WalItem::Record(rec) => {
                    if rec.epoch <= after_epoch {
                        continue; // covered by the snapshot
                    }
                    if rec.epoch != expected {
                        return Err(CfqError::Io(format!(
                            "WAL gap in {}: expected epoch {expected}, found {}",
                            path.display(),
                            rec.epoch
                        )));
                    }
                    apply(rec)?;
                    summary.records += 1;
                    summary.last_epoch = expected;
                    expected += 1;
                }
            }
        }
        if last_file {
            summary.tail = Some((path, reader.offset()));
        }
    }
    Ok(summary)
}

/// Deletes WAL files made redundant by a snapshot at `snapshot_epoch`:
/// every file whose records all land at or below the snapshot, except the
/// newest such file. That one holds the records above the previous
/// snapshot, which recovery replays when the newest snapshot fails its
/// checksum and [`crate::snapshot::load_latest`] falls back to the older
/// generation.
pub fn prune(dir: &Path, snapshot_epoch: u64) -> Result<usize> {
    let files = wal_files(dir)?;
    // A file's records are all <= snapshot_epoch iff the *next* file
    // starts at or below snapshot_epoch + 1.
    let mut redundant: Vec<PathBuf> = Vec::new();
    for w in files.windows(2) {
        let (_, ref path) = w[0];
        let (next_start, _) = w[1];
        if next_start <= snapshot_epoch + 1 {
            redundant.push(path.clone());
        }
    }
    // Keep the newest redundant generation: the older snapshot's fallback
    // replays it.
    redundant.pop();
    let removed = redundant.len();
    for path in redundant {
        fs::remove_file(&path)?;
    }
    if removed > 0 {
        fsync_dir(dir);
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "cfq_wal_{tag}_{}_{n}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn delta(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::from_u32(8, rows)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_through_a_file() {
        let dir = tmp_dir("roundtrip");
        let mut w = WalWriter::create(&dir, 1).unwrap();
        w.append(&WalRecord { epoch: 1, delta: delta(&[&[0, 1], &[2]]) }).unwrap();
        w.append(&WalRecord { epoch: 2, delta: delta(&[&[3, 4, 5]]) }).unwrap();
        assert_eq!(w.records, 2);

        let mut got = Vec::new();
        let summary = replay(&dir, 0, |rec| {
            got.push(rec);
            Ok(())
        })
        .unwrap();
        assert_eq!(summary.records, 2);
        assert_eq!(summary.last_epoch, 2);
        assert!(!summary.torn_tail);
        assert_eq!(got[0].epoch, 1);
        assert_eq!(got[0].delta.transaction(0), &[ItemId(0), ItemId(1)]);
        assert_eq!(got[1].delta.transaction(0), &[ItemId(3), ItemId(4), ItemId(5)]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_on_reopen() {
        let dir = tmp_dir("torn");
        let mut w = WalWriter::create(&dir, 1).unwrap();
        w.append(&WalRecord { epoch: 1, delta: delta(&[&[0, 1]]) }).unwrap();
        let path = w.path().to_path_buf();
        drop(w);
        // Simulate a crash mid-write: garbage half-frame at the tail.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x55; 5]).unwrap();
        drop(f);

        let summary = replay(&dir, 0, |_| Ok(())).unwrap();
        assert_eq!(summary.records, 1);
        assert!(summary.torn_tail);
        let (tail_path, valid_end) = summary.tail.unwrap();

        // Reopen truncates the garbage; the next append lands cleanly.
        let mut w = WalWriter::reopen(&tail_path, valid_end).unwrap();
        w.append(&WalRecord { epoch: 2, delta: delta(&[&[2]]) }).unwrap();
        let summary = replay(&dir, 0, |_| Ok(())).unwrap();
        assert_eq!(summary.records, 2);
        assert!(!summary.torn_tail);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_middle_record_fails_loudly() {
        let dir = tmp_dir("corrupt");
        let mut w = WalWriter::create(&dir, 1).unwrap();
        w.append(&WalRecord { epoch: 1, delta: delta(&[&[0, 1, 2]]) }).unwrap();
        w.append(&WalRecord { epoch: 2, delta: delta(&[&[3]]) }).unwrap();
        let path = w.path().to_path_buf();
        drop(w);
        // Flip a byte inside the first record's payload.
        let mut bytes = fs::read(&path).unwrap();
        bytes[WAL_MAGIC.len() + FRAME_HEAD + 2] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        // The torn frame hides record 2 behind it: replay stops at the
        // corruption (newest file => reported as torn, not an error), so
        // the caller sees fewer records than were acked — which is why a
        // checksum failure mid-file on a *non*-newest file is fatal.
        let summary = replay(&dir, 0, |_| Ok(())).unwrap();
        assert_eq!(summary.records, 0);
        assert!(summary.torn_tail);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_gaps_are_rejected() {
        let dir = tmp_dir("gap");
        let mut w = WalWriter::create(&dir, 1).unwrap();
        w.append(&WalRecord { epoch: 1, delta: delta(&[&[0]]) }).unwrap();
        w.append(&WalRecord { epoch: 3, delta: delta(&[&[1]]) }).unwrap();
        drop(w);
        let err = replay(&dir, 0, |_| Ok(())).unwrap_err();
        assert!(err.to_string().contains("expected epoch 2"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_one_old_generation() {
        let dir = tmp_dir("prune");
        for start in [1u64, 3, 5] {
            let mut w = WalWriter::create(&dir, start).unwrap();
            w.append(&WalRecord { epoch: start, delta: delta(&[&[0]]) }).unwrap();
            w.append(&WalRecord { epoch: start + 1, delta: delta(&[&[1]]) }).unwrap();
        }
        // Snapshot at epoch 4: files starting at 1 and 3 are redundant;
        // the newest redundant one (3) is kept: it holds the records a
        // fallback to the previous snapshot replays.
        let removed = prune(&dir, 4).unwrap();
        assert_eq!(removed, 1);
        let starts: Vec<u64> = wal_files(&dir).unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(starts, vec![3, 5]);
        fs::remove_dir_all(&dir).ok();
    }
}
