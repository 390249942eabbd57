//! The write-ahead log: one append-only `wal.log` per database directory.
//!
//! Every mutation of a persisted database is logged *before* its effect
//! is acknowledged, so `Database::open` can redo the tail of history that
//! never reached the heap files. The log is redo-only (ARIES without
//! undo: appends are the only in-place page mutation, and an uncommitted
//! append surviving replay is harmless — it re-creates a prefix of the
//! in-flight batch).
//!
//! ## Framing
//!
//! The file starts with an 8-byte header (`"TWAL"` magic + the
//! [`crate::FORMAT_VERSION`]), followed by records framed as
//!
//! ```text
//! [len: u32][crc32c: u32][lsn: u64][payload: len bytes]
//! ```
//!
//! where the CRC covers the LSN and payload. LSNs increase monotonically
//! and are never reused, even across checkpoints — a page stamped with
//! LSN `n` proves every record ≤ `n` is already applied to it, which is
//! what makes replay idempotent. The scan on open stops at the first
//! frame that is short, oversized, fails its CRC, or fails to decode,
//! truncates the file there, and warns: a torn tail degrades to losing
//! unacknowledged work, never to refusing to open. A header too short or
//! without the magic starts a fresh log the same way. A header with the
//! magic and another format version is the one case open refuses: the
//! log belongs to another build, and nothing in the directory is read
//! past or rewritten.
//!
//! ## Full-page images
//!
//! The first record touching a heap page since the last checkpoint is a
//! [`WalRecord::HeapPageImage`] (the complete post-modification page);
//! later appends to the same page log the record bytes alone. Replay
//! therefore always restores a torn or partially written page wholesale
//! before logical appends land on it — the same reason PostgreSQL writes
//! full pages after checkpoints. [`Wal::log_heap_change`] decides
//! between the two under the log lock, from the set of imaged pages,
//! cleared at each checkpoint (and per table on create/drop, so a
//! replaced table's fresh pages are re-imaged). A bulk append fills
//! fresh pages in memory and logs each once, as its image; one sync then
//! covers the run of images before any of the pages is written.
//!
//! ## Checkpoints and sync policy
//!
//! A checkpoint is sharp: the caller flushes every heap and saves the
//! manifest *first*, then [`Wal::checkpoint`] atomically
//! replaces the log with a fresh one holding a single
//! [`WalRecord::Checkpoint`] (temp file + fsync + rename). A crash
//! between the flush and the swap merely replays records whose page LSNs
//! already mark them applied. [`SyncMode`] governs when the log is
//! fsynced: `off` never (fast, no crash guarantee), `commit` once per
//! logical operation, `always` after every record. Regardless of mode,
//! the buffer pool syncs the log before writing back a dirty page — the
//! write-*ahead* invariant — except under `off`, which explicitly opts
//! out of torn-page protection.
//!
//! ## Group commit
//!
//! Concurrent committers share fsyncs. Every append records its LSN in
//! `last_lsn`; every successful fsync advances the `synced_lsn`
//! watermark to the highest LSN that was in the file when the sync
//! started. [`Wal::commit`] is therefore "wait until
//! `synced_lsn ≥ my last append"`: the first committer to arrive
//! becomes the *flusher* (elected under a small mutex), issues one
//! `fsync`, advances the watermark, and wakes every waiter on the
//! condvar; committers whose LSN the flush covered return without
//! touching the disk at all. Under `sync_mode=always` the same election
//! runs per record, so even the paranoid mode batches concurrent
//! writers into shared syncs. One fsync can thus retire any number of
//! concurrent commits — `wal.syncs / wal.commits < 1` as soon as two
//! sessions commit at once.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::crc32c::{crc32c, crc32c_append};
use crate::error::{StoreError, StoreResult};
use crate::failpoints::{self, Action};
use crate::metrics::{Counter, MetricsRegistry};
use crate::page::{PageId, PAGE_SIZE};
use crate::FORMAT_VERSION;

/// WAL file name inside a database directory.
pub const WAL_FILE: &str = "wal.log";

const WAL_MAGIC: u32 = 0x5457_414C; // "TWAL"
/// The file header: the magic, then the format version, little-endian.
const HEADER: [u8; 8] = ((FORMAT_VERSION as u64) << 32 | WAL_MAGIC as u64).to_le_bytes();
const FRAME_HEADER: usize = 16; // len + crc + lsn
/// Upper bound on a plausible payload — anything larger in a frame
/// header means the length field itself is garbage.
const MAX_PAYLOAD: u32 = (PAGE_SIZE as u32) * 4;

/// When the log is fsynced. Parsed from the `sync_mode` GUC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SyncMode {
    /// Never fsync the log: fastest, survives process crashes that keep
    /// the OS page cache, but an OS crash or power loss may lose or tear
    /// acknowledged work.
    Off = 0,
    /// Fsync once per logical operation (the default).
    Commit = 1,
    /// Fsync after every record — the paranoid setting that catches
    /// ordering bugs that only matter when syncs are real.
    Always = 2,
}

impl SyncMode {
    /// Parse a GUC spelling; `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<SyncMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "false" | "0" => Some(SyncMode::Off),
            "commit" | "on" | "true" | "1" => Some(SyncMode::Commit),
            "always" => Some(SyncMode::Always),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> SyncMode {
        match v {
            0 => SyncMode::Off,
            2 => SyncMode::Always,
            _ => SyncMode::Commit,
        }
    }
}

impl std::fmt::Display for SyncMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SyncMode::Off => "off",
            SyncMode::Commit => "commit",
            SyncMode::Always => "always",
        })
    }
}

/// One logged mutation. The payload encoding is a tag byte followed by
/// little-endian fields; strings are `u16`-length-prefixed UTF-8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A table was created or replaced: the manifest entry to (re)apply.
    /// Logged after the heap file is in place, so replay skips entries
    /// whose file vanished (the create never completed).
    TableUpsert {
        name: String,
        file: String,
        fingerprint: u64,
        rows: u64,
        schema: String,
    },
    /// A table was dropped: remove the manifest entry and its files.
    TableDrop { name: String },
    /// One record appended to an already-imaged heap page. Carries the
    /// table's schema fingerprint so replay never applies a stale
    /// record to a replaced (re-fingerprinted) heap.
    HeapAppend {
        table: String,
        fingerprint: u64,
        page: PageId,
        record: Vec<u8>,
    },
    /// Full post-modification image of a heap page — the first record
    /// touching the page since the last checkpoint.
    HeapPageImage {
        table: String,
        fingerprint: u64,
        page: PageId,
        image: Box<[u8; PAGE_SIZE]>,
    },
    /// Everything before this record is flushed and synced.
    Checkpoint,
}

const TAG_TABLE_UPSERT: u8 = 1;
const TAG_TABLE_DROP: u8 = 2;
const TAG_HEAP_APPEND: u8 = 3;
const TAG_HEAP_PAGE_IMAGE: u8 = 4;
const TAG_CHECKPOINT: u8 = 5;

fn put_str(out: &mut Vec<u8>, s: &str) -> StoreResult<()> {
    let len = u16::try_from(s.len()).map_err(|_| {
        StoreError::Capacity(format!("WAL string field too long: {} bytes", s.len()))
    })?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> StoreResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(StoreError::Corrupt("WAL record payload truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> StoreResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> StoreResult<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> StoreResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> StoreResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self) -> StoreResult<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt("WAL string field is not UTF-8".into()))
    }

    fn done(&self) -> StoreResult<()> {
        if self.pos != self.buf.len() {
            return Err(StoreError::Corrupt(format!(
                "WAL record has {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// The payload of a [`WalRecord::HeapAppend`], encoded from borrowed parts.
fn put_heap_append(
    out: &mut Vec<u8>,
    table: &str,
    fingerprint: u64,
    page: PageId,
    record: &[u8],
) -> StoreResult<()> {
    out.push(TAG_HEAP_APPEND);
    put_str(out, table)?;
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&page.to_le_bytes());
    out.extend_from_slice(&(record.len() as u32).to_le_bytes());
    out.extend_from_slice(record);
    Ok(())
}

/// The payload of a [`WalRecord::HeapPageImage`], encoded from borrowed
/// parts.
fn put_page_image(
    out: &mut Vec<u8>,
    table: &str,
    fingerprint: u64,
    page: PageId,
    image: &[u8; PAGE_SIZE],
) -> StoreResult<()> {
    out.push(TAG_HEAP_PAGE_IMAGE);
    put_str(out, table)?;
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&page.to_le_bytes());
    out.extend_from_slice(image);
    Ok(())
}

impl WalRecord {
    /// Append the payload encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) -> StoreResult<()> {
        match self {
            WalRecord::TableUpsert {
                name,
                file,
                fingerprint,
                rows,
                schema,
            } => {
                out.push(TAG_TABLE_UPSERT);
                put_str(out, name)?;
                put_str(out, file)?;
                out.extend_from_slice(&fingerprint.to_le_bytes());
                out.extend_from_slice(&rows.to_le_bytes());
                put_str(out, schema)?;
            }
            WalRecord::TableDrop { name } => {
                out.push(TAG_TABLE_DROP);
                put_str(out, name)?;
            }
            WalRecord::HeapAppend {
                table,
                fingerprint,
                page,
                record,
            } => put_heap_append(out, table, *fingerprint, *page, record)?,
            WalRecord::HeapPageImage {
                table,
                fingerprint,
                page,
                image,
            } => put_page_image(out, table, *fingerprint, *page, image)?,
            WalRecord::Checkpoint => out.push(TAG_CHECKPOINT),
        }
        Ok(())
    }

    fn decode(payload: &[u8]) -> StoreResult<WalRecord> {
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
        let rec = match c.u8()? {
            TAG_TABLE_UPSERT => {
                let name = c.str()?;
                let file = c.str()?;
                let fingerprint = c.u64()?;
                let rows = c.u64()?;
                let schema = c.str()?;
                WalRecord::TableUpsert {
                    name,
                    file,
                    fingerprint,
                    rows,
                    schema,
                }
            }
            TAG_TABLE_DROP => WalRecord::TableDrop { name: c.str()? },
            TAG_HEAP_APPEND => {
                let table = c.str()?;
                let fingerprint = c.u64()?;
                let page = c.u32()?;
                let len = c.u32()? as usize;
                let record = c.take(len)?.to_vec();
                WalRecord::HeapAppend {
                    table,
                    fingerprint,
                    page,
                    record,
                }
            }
            TAG_HEAP_PAGE_IMAGE => {
                let table = c.str()?;
                let fingerprint = c.u64()?;
                let page = c.u32()?;
                let mut image = Box::new([0u8; PAGE_SIZE]);
                image.copy_from_slice(c.take(PAGE_SIZE)?);
                WalRecord::HeapPageImage {
                    table,
                    fingerprint,
                    page,
                    image,
                }
            }
            TAG_CHECKPOINT => WalRecord::Checkpoint,
            t => return Err(StoreError::Corrupt(format!("WAL record has bad tag {t}"))),
        };
        c.done()?;
        Ok(rec)
    }
}

/// What [`Wal::open`] found in an existing log.
#[derive(Debug)]
pub struct WalScan {
    /// Records after the last checkpoint, in log order, with their LSNs.
    pub records: Vec<(u64, WalRecord)>,
    /// Whether a torn/corrupt tail was truncated away.
    pub tail_truncated: bool,
}

#[derive(Debug)]
struct WalInner {
    file: File,
    next_lsn: u64,
    bytes_since_checkpoint: u64,
    /// Heap pages already carrying a full-page image this checkpoint
    /// epoch, by table (keyed by `Arc<str>` so a lookup by `&str` does
    /// not allocate).
    imaged: HashMap<Arc<str>, HashSet<PageId>>,
    /// The frame being written, reused so a record allocates nothing:
    /// the header's [`FRAME_HEADER`] bytes, then the payload.
    frame: Vec<u8>,
}

/// The write-ahead log of one database directory. Thread-safe; cheap to
/// share behind an `Arc`.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    mode: AtomicU8,
    /// `wal.commits`: durability points requested via [`Wal::commit`] —
    /// with `wal.syncs` (fsyncs issued on the log) the group-commit
    /// amortization ratio, below 1 when concurrent committers share one.
    commits: Arc<Counter>,
    syncs: Arc<Counter>,
    /// `wal.bytes`: frame bytes appended (headers included) — unlike
    /// the per-epoch `bytes_since_checkpoint`, this never resets.
    bytes: Arc<Counter>,
    /// `wal.checkpoints`: checkpoints taken.
    checkpoints: Arc<Counter>,
    /// Highest LSN handed out by [`Wal::append`].
    last_lsn: AtomicU64,
    /// Group-commit watermark: every record with LSN ≤ this is fsynced.
    synced_lsn: AtomicU64,
    /// Flusher election flag: `true` while one committer is inside the
    /// shared fsync on behalf of the group.
    flushing: Mutex<bool>,
    /// Wakes committers parked behind the elected flusher.
    flushed: Condvar,
    inner: Mutex<WalInner>,
}

impl Wal {
    /// The log path inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(WAL_FILE)
    }

    /// Open (creating if absent) the log of `dir` and scan it. The scan
    /// validates every frame; the first torn or corrupt one truncates the
    /// file there with a warning on stderr — recovery then replays
    /// whatever consistent prefix survived. The log starts in
    /// [`SyncMode::Commit`] and counts into the `wal.*` counters of
    /// `metrics`. A log of another format version is a
    /// [`StoreError::Incompatible`], returned before anything is scanned
    /// or written.
    pub fn open(dir: &Path, metrics: &MetricsRegistry) -> StoreResult<(Wal, WalScan)> {
        std::fs::create_dir_all(dir)?;
        let path = Self::path_in(dir);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.len() >= HEADER.len() && bytes[..4] == HEADER[..4] && bytes[4..8] != HEADER[4..] {
            let found = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
            return Err(StoreError::Incompatible(format!(
                "{} has format version {found}; this build reads only version {FORMAT_VERSION}",
                path.display()
            )));
        }
        if !bytes.starts_with(&HEADER) {
            // A new log, or a mangled header: nothing in the file can be
            // trusted, so start a fresh log rather than refuse to open.
            if !bytes.is_empty() {
                eprintln!(
                    "temporal-store: WAL header of {} is corrupt — starting a fresh log",
                    path.display()
                );
            }
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&HEADER)?;
            // Keep `bytes` mirroring the file so the scan below lands on
            // `valid_end == HEADER.len()` — seeking to 0 here would let the
            // next append overwrite the header we just rewrote.
            bytes = HEADER.to_vec();
        }
        let mut records: Vec<(u64, WalRecord)> = Vec::new();
        let mut max_lsn = 0u64;
        let mut pos = HEADER.len();
        let mut valid_end = pos;
        let mut tail_truncated = false;
        while pos + FRAME_HEADER <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
            let lsn = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().expect("8 bytes"));
            if len > MAX_PAYLOAD || pos + FRAME_HEADER + len as usize > bytes.len() {
                tail_truncated = true;
                break;
            }
            let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len as usize];
            if crc32c_append(crc32c(&lsn.to_le_bytes()), payload) != crc {
                tail_truncated = true;
                break;
            }
            let rec = match WalRecord::decode(payload) {
                Ok(r) => r,
                Err(_) => {
                    tail_truncated = true;
                    break;
                }
            };
            if matches!(rec, WalRecord::Checkpoint) {
                records.clear();
            } else {
                records.push((lsn, rec));
            }
            max_lsn = max_lsn.max(lsn);
            pos += FRAME_HEADER + len as usize;
            valid_end = pos;
        }
        if pos != bytes.len() && pos + FRAME_HEADER > bytes.len() {
            // A dangling partial frame header is a torn tail too.
            tail_truncated = true;
        }
        if tail_truncated {
            eprintln!(
                "temporal-store: WAL tail of {} is torn or corrupt at offset {valid_end} — \
                 truncating ({} intact records kept)",
                path.display(),
                records.len()
            );
            file.set_len(valid_end as u64)?;
        }
        file.seek(SeekFrom::Start(valid_end as u64))?;
        let wal = Wal {
            path,
            mode: AtomicU8::new(SyncMode::Commit as u8),
            commits: metrics.counter("wal.commits"),
            syncs: metrics.counter("wal.syncs"),
            bytes: metrics.counter("wal.bytes"),
            checkpoints: metrics.counter("wal.checkpoints"),
            last_lsn: AtomicU64::new(max_lsn),
            // Everything already in the file is as durable as it will
            // ever be, so open starts with the watermark caught up.
            synced_lsn: AtomicU64::new(max_lsn),
            flushing: Mutex::new(false),
            flushed: Condvar::new(),
            inner: Mutex::new(WalInner {
                file,
                next_lsn: max_lsn + 1,
                bytes_since_checkpoint: (valid_end - HEADER.len()) as u64,
                imaged: HashMap::new(),
                frame: Vec::new(),
            }),
        };
        let scan = WalScan {
            records,
            tail_truncated,
        };
        Ok((wal, scan))
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The current sync policy.
    pub fn mode(&self) -> SyncMode {
        SyncMode::from_u8(self.mode.load(Ordering::Relaxed))
    }

    /// Change the sync policy (the `sync_mode` GUC).
    pub fn set_mode(&self, mode: SyncMode) {
        self.mode.store(mode as u8, Ordering::Relaxed);
    }

    /// Highest LSN handed out so far.
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn.load(Ordering::SeqCst)
    }

    /// The group-commit watermark: every record with LSN ≤ this is
    /// durable on disk (modulo `sync_mode=off`, which never syncs).
    pub fn synced_lsn(&self) -> u64 {
        self.synced_lsn.load(Ordering::SeqCst)
    }

    /// Log bytes written since the last checkpoint — the
    /// `wal_checkpoint_pages` trigger reads this.
    pub fn bytes_since_checkpoint(&self) -> u64 {
        self.lock().bytes_since_checkpoint
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append one record, returning its LSN. Under `always` the record
    /// is fsynced before returning; under `commit` the caller ends the
    /// logical operation with [`Wal::commit`].
    pub fn append(&self, rec: &WalRecord) -> StoreResult<u64> {
        let mut inner = self.lock();
        let lsn = self.write_frame(&mut inner, |out| rec.encode_into(out))?;
        // Creating or dropping a table invalidates any imaged-page
        // bookkeeping for its name: a replacement heap's pages must be
        // re-imaged before logical appends may target them.
        if let WalRecord::TableUpsert { name, .. } | WalRecord::TableDrop { name } = rec {
            inner.imaged.remove(name.as_str());
        }
        self.synced_if_always(inner, lsn)
    }

    /// Log a change to page `page` of heap `table` whose contents are now
    /// `image`, returning the record's LSN. The record is the whole
    /// image when `record` is `None` (a fresh page) or when this is the
    /// page's first change since the last checkpoint, and otherwise
    /// `record` alone — the bytes just inserted. The first-touch decision
    /// and the write happen under one lock; the page counts as imaged
    /// once its image is written.
    pub fn log_heap_change(
        &self,
        table: &str,
        fingerprint: u64,
        page: PageId,
        record: Option<&[u8]>,
        image: &[u8; PAGE_SIZE],
    ) -> StoreResult<u64> {
        let mut inner = self.lock();
        let imaged = inner
            .imaged
            .get(table)
            .is_some_and(|pages| pages.contains(&page));
        let lsn = match record {
            Some(record) if imaged => self.write_frame(&mut inner, |out| {
                put_heap_append(out, table, fingerprint, page, record)
            })?,
            _ => {
                let lsn = self.write_frame(&mut inner, |out| {
                    put_page_image(out, table, fingerprint, page, image)
                })?;
                match inner.imaged.get_mut(table) {
                    Some(pages) => {
                        pages.insert(page);
                    }
                    None => {
                        inner.imaged.insert(table.into(), HashSet::from([page]));
                    }
                }
                lsn
            }
        };
        self.synced_if_always(inner, lsn)
    }

    /// Under `always`, wait until `lsn` is durable — through the group
    /// flusher, so concurrent appenders share one fsync instead of
    /// queueing their own. Releases the log lock first.
    fn synced_if_always(&self, inner: MutexGuard<'_, WalInner>, lsn: u64) -> StoreResult<u64> {
        drop(inner);
        if self.mode() == SyncMode::Always {
            self.commit_upto(lsn)?;
        }
        Ok(lsn)
    }

    /// Frame the payload `encode` writes and append it to the log under
    /// the held lock, honouring the `wal::append` failpoint. Returns the
    /// frame's LSN.
    fn write_frame(
        &self,
        inner: &mut WalInner,
        encode: impl FnOnce(&mut Vec<u8>) -> StoreResult<()>,
    ) -> StoreResult<u64> {
        if failpoints::power_cut() {
            return Err(failpoints::power_cut_error());
        }
        let mut frame = std::mem::take(&mut inner.frame);
        frame.clear();
        frame.resize(FRAME_HEADER, 0);
        let written = encode(&mut frame).and_then(|()| {
            let lsn = inner.next_lsn;
            let len = (frame.len() - FRAME_HEADER) as u32;
            let crc = crc32c_append(crc32c(&lsn.to_le_bytes()), &frame[FRAME_HEADER..]);
            frame[..4].copy_from_slice(&len.to_le_bytes());
            frame[4..8].copy_from_slice(&crc.to_le_bytes());
            frame[8..16].copy_from_slice(&lsn.to_le_bytes());
            match failpoints::hit("wal::append") {
                Some(Action::Crash) => {
                    #[cfg(feature = "failpoints")]
                    failpoints::trip_power_cut();
                    return Err(failpoints::power_cut_error());
                }
                Some(Action::Torn { keep }) => {
                    let keep = keep.min(frame.len());
                    inner.file.write_all(&frame[..keep])?;
                    #[cfg(feature = "failpoints")]
                    failpoints::trip_power_cut();
                    return Err(failpoints::power_cut_error());
                }
                Some(Action::FlipBit { offset }) => {
                    let off = offset % frame.len();
                    frame[off] ^= 1;
                }
                None => {}
            }
            inner.file.write_all(&frame)?;
            Ok(lsn)
        });
        let bytes = frame.len() as u64;
        inner.frame = frame;
        let lsn = written?;
        inner.next_lsn += 1;
        inner.bytes_since_checkpoint += bytes;
        self.last_lsn.store(lsn, Ordering::SeqCst);
        self.bytes.add(bytes);
        Ok(lsn)
    }

    fn sync_locked(&self, inner: &mut WalInner) -> StoreResult<()> {
        if failpoints::power_cut() {
            return Err(failpoints::power_cut_error());
        }
        if let Some(Action::Crash | Action::Torn { .. }) = failpoints::hit("wal::sync") {
            #[cfg(feature = "failpoints")]
            failpoints::trip_power_cut();
            return Err(failpoints::power_cut_error());
        }
        // Every record below `next_lsn` is in the file (writes happen
        // under the same lock we hold), so a successful sync makes the
        // watermark exactly `next_lsn - 1`.
        let durable_upto = inner.next_lsn.saturating_sub(1);
        inner.file.sync_data()?;
        self.syncs.inc();
        self.synced_lsn.fetch_max(durable_upto, Ordering::SeqCst);
        Ok(())
    }

    /// One shared fsync on behalf of the commit group. The inner lock is
    /// held only long enough to duplicate the file handle and read the
    /// covered watermark; the fsync itself runs *outside* it, so
    /// concurrent appenders keep writing records into the log while the
    /// disk works — which is exactly what lets the *next* flush cover
    /// the whole group that formed during this one.
    fn sync_group(&self) -> StoreResult<()> {
        if failpoints::power_cut() {
            return Err(failpoints::power_cut_error());
        }
        if let Some(Action::Crash | Action::Torn { .. }) = failpoints::hit("wal::sync") {
            #[cfg(feature = "failpoints")]
            failpoints::trip_power_cut();
            return Err(failpoints::power_cut_error());
        }
        let (file, durable_upto) = {
            let inner = self.lock();
            (inner.file.try_clone()?, inner.next_lsn.saturating_sub(1))
        };
        file.sync_data()?;
        self.syncs.inc();
        self.synced_lsn.fetch_max(durable_upto, Ordering::SeqCst);
        Ok(())
    }

    fn lock_flushing(&self) -> std::sync::MutexGuard<'_, bool> {
        self.flushing.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Group-commit core: return once every record with LSN ≤ `target`
    /// is fsynced. The first arrival is elected flusher and syncs on
    /// behalf of the group; later arrivals park on the condvar and
    /// usually find the watermark already past their target when they
    /// wake. A flusher error propagates to the flusher itself, while
    /// woken waiters re-run the election and surface their own error.
    fn commit_upto(&self, target: u64) -> StoreResult<()> {
        loop {
            if self.synced_lsn.load(Ordering::SeqCst) >= target {
                return Ok(());
            }
            let mut flushing = self.lock_flushing();
            // Re-check under the election lock: the previous flusher may
            // have covered us between the atomic load and the lock.
            if self.synced_lsn.load(Ordering::SeqCst) >= target {
                return Ok(());
            }
            if !*flushing {
                *flushing = true;
                drop(flushing);
                let result = self.sync_group();
                let mut flushing = self.lock_flushing();
                *flushing = false;
                self.flushed.notify_all();
                drop(flushing);
                result?;
            } else {
                let guard = self
                    .flushed
                    .wait(flushing)
                    .unwrap_or_else(|e| e.into_inner());
                drop(guard);
            }
        }
    }

    /// End-of-operation durability point: fsync under `commit`/`always`
    /// (amortized across concurrent committers by the group flusher),
    /// no-op under `off`.
    pub fn commit(&self) -> StoreResult<()> {
        self.commits.inc();
        if self.mode() == SyncMode::Off {
            return Ok(());
        }
        self.commit_upto(self.last_lsn.load(Ordering::SeqCst))
    }

    /// The write-*ahead* hook: called by the buffer pool before a dirty
    /// heap page reaches disk, so the log records describing that page
    /// are durable first. No-op when everything is already synced or
    /// under `off` (which opts out of torn-page protection).
    pub fn sync_for_write_ahead(&self) -> StoreResult<()> {
        if self.mode() == SyncMode::Off {
            return Ok(());
        }
        // The records that must precede the caller's page were appended
        // before this call, so they are ≤ `last_lsn` as read here; if the
        // watermark already covers it, nothing to do.
        let target = self.last_lsn.load(Ordering::SeqCst);
        if self.synced_lsn.load(Ordering::SeqCst) >= target {
            return Ok(());
        }
        let mut inner = self.lock();
        self.sync_locked(&mut inner)
    }

    /// Atomically replace the log with a fresh one holding a single
    /// checkpoint record. The caller must have flushed and synced every
    /// heap and saved the manifest *before* calling this. LSNs
    /// keep increasing across the swap.
    pub fn checkpoint(&self) -> StoreResult<u64> {
        if failpoints::power_cut() {
            return Err(failpoints::power_cut_error());
        }
        let mut inner = self.lock();
        let lsn = inner.next_lsn;
        let mut payload = Vec::new();
        WalRecord::Checkpoint.encode_into(&mut payload)?;
        let crc = crc32c_append(crc32c(&lsn.to_le_bytes()), &payload);
        let tmp = self.path.with_extension("log.tmp");
        let mut out = File::create(&tmp)?;
        out.write_all(&HEADER)?;
        out.write_all(&(payload.len() as u32).to_le_bytes())?;
        out.write_all(&crc.to_le_bytes())?;
        out.write_all(&lsn.to_le_bytes())?;
        out.write_all(&payload)?;
        out.sync_all()?;
        self.syncs.inc();
        if let Some(Action::Crash | Action::Torn { .. }) = failpoints::hit("wal::checkpoint") {
            #[cfg(feature = "failpoints")]
            failpoints::trip_power_cut();
            return Err(failpoints::power_cut_error());
        }
        std::fs::rename(&tmp, &self.path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        inner.file = file;
        inner.next_lsn = lsn + 1;
        inner.bytes_since_checkpoint = 0;
        inner.imaged.clear();
        self.last_lsn.fetch_max(lsn, Ordering::SeqCst);
        self.synced_lsn.fetch_max(lsn, Ordering::SeqCst);
        self.checkpoints.inc();
        Ok(lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("talign_store_wal_tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn encode(rec: &WalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        rec.encode_into(&mut out).unwrap();
        out
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::TableUpsert {
                name: "r".into(),
                file: "r.heap".into(),
                fingerprint: 0xfeed,
                rows: 3,
                schema: "a:int,ts:int,te:int".into(),
            },
            WalRecord::HeapPageImage {
                table: "r".into(),
                fingerprint: 0xfeed,
                page: 0,
                image: Box::new([0xabu8; PAGE_SIZE]),
            },
            WalRecord::HeapAppend {
                table: "r".into(),
                fingerprint: 0xfeed,
                page: 0,
                record: vec![1, 2, 3, 4],
            },
            WalRecord::HeapAppend {
                table: "r".into(),
                fingerprint: 0xfeed,
                page: 0,
                record: vec![],
            },
            WalRecord::TableDrop { name: "s".into() },
        ]
    }

    #[test]
    fn record_codec_roundtrips() {
        for rec in sample_records().into_iter().chain([WalRecord::Checkpoint]) {
            let mut bytes = encode(&rec);
            assert_eq!(WalRecord::decode(&bytes).unwrap(), rec);
            // A byte the format never wrote is corruption.
            bytes.push(0);
            assert!(
                WalRecord::decode(&bytes).is_err(),
                "{rec:?} + trailing byte"
            );
        }
    }

    #[test]
    fn append_scan_roundtrip_with_monotonic_lsns() {
        let dir = tmpdir("roundtrip");
        let recs = sample_records();
        {
            let (wal, scan) = Wal::open(&dir, &MetricsRegistry::new()).unwrap();
            assert!(scan.records.is_empty());
            assert!(!scan.tail_truncated);
            let mut last = 0;
            for rec in &recs {
                let lsn = wal.append(rec).unwrap();
                assert!(lsn > last);
                last = lsn;
            }
            wal.commit().unwrap();
        }
        let (_, scan) = Wal::open(&dir, &MetricsRegistry::new()).unwrap();
        assert!(!scan.tail_truncated);
        let back: Vec<WalRecord> = scan.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(back, recs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates_to_last_good_record() {
        let dir = tmpdir("torn");
        {
            let (wal, _) = Wal::open(&dir, &MetricsRegistry::new()).unwrap();
            for rec in sample_records() {
                wal.append(&rec).unwrap();
            }
            wal.commit().unwrap();
        }
        let path = Wal::path_in(&dir);
        let full = std::fs::read(&path).unwrap();
        // Chop the file mid-way through the last record: scan keeps the
        // prefix and truncates the file to it.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (_, scan) = Wal::open(&dir, &MetricsRegistry::new()).unwrap();
        assert!(scan.tail_truncated);
        assert_eq!(scan.records.len(), sample_records().len() - 1);
        assert!(std::fs::metadata(&path).unwrap().len() < full.len() as u64 - 3);
        // The truncated log is clean on the next open.
        let (_, scan) = Wal::open(&dir, &MetricsRegistry::new()).unwrap();
        assert!(!scan.tail_truncated);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_any_record_drops_it_and_the_suffix() {
        let dir = tmpdir("bitflip");
        {
            let (wal, _) = Wal::open(&dir, &MetricsRegistry::new()).unwrap();
            for rec in sample_records() {
                wal.append(&rec).unwrap();
            }
            wal.commit().unwrap();
        }
        let path = Wal::path_in(&dir);
        let pristine = std::fs::read(&path).unwrap();
        let mut corrupt = pristine.clone();
        let mid = HEADER.len() + (pristine.len() - HEADER.len()) / 2;
        corrupt[mid] ^= 0x10;
        std::fs::write(&path, &corrupt).unwrap();
        let (_, scan) = Wal::open(&dir, &MetricsRegistry::new()).unwrap();
        assert!(scan.tail_truncated);
        assert!(scan.records.len() < sample_records().len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_resets_log_and_keeps_lsns_monotonic() {
        let dir = tmpdir("checkpoint");
        let (wal, _) = Wal::open(&dir, &MetricsRegistry::new()).unwrap();
        let mut last = 0;
        for rec in sample_records() {
            last = wal.append(&rec).unwrap();
        }
        assert!(wal.bytes_since_checkpoint() > PAGE_SIZE as u64);
        let ck = wal.checkpoint().unwrap();
        assert!(ck > last);
        assert_eq!(wal.bytes_since_checkpoint(), 0);
        let post = wal
            .append(&WalRecord::TableDrop { name: "r".into() })
            .unwrap();
        assert!(post > ck);
        drop(wal);
        // Replay sees only the post-checkpoint record.
        let (_, scan) = Wal::open(&dir, &MetricsRegistry::new()).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].0, post);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_page_is_imaged_on_its_first_change_per_epoch_and_per_table() {
        let dir = tmpdir("first_touch");
        let (wal, _) = Wal::open(&dir, &MetricsRegistry::new()).unwrap();
        let image = [7u8; PAGE_SIZE];
        // Whether logging a change wrote the page's image (and not the
        // record alone), read off the bytes it added.
        let logs_image = |table: &str, page: PageId, record: Option<&[u8]>| {
            let before = wal.bytes_since_checkpoint();
            wal.log_heap_change(table, 1, page, record, &image).unwrap();
            wal.bytes_since_checkpoint() - before > PAGE_SIZE as u64
        };
        assert!(logs_image("r", 0, Some(b"x")));
        assert!(!logs_image("r", 0, Some(b"x")));
        assert!(logs_image("r", 1, Some(b"x")));
        assert!(logs_image("s", 0, Some(b"x")));
        // A fresh page is imaged whatever the epoch has seen.
        assert!(logs_image("s", 0, None));
        // Dropping a table forgets its pages; an unrelated table keeps its.
        wal.append(&WalRecord::TableDrop { name: "r".into() })
            .unwrap();
        assert!(logs_image("r", 0, Some(b"x")));
        assert!(!logs_image("s", 0, Some(b"x")));
        // A checkpoint forgets everything.
        wal.checkpoint().unwrap();
        assert!(logs_image("s", 0, Some(b"x")));
        drop(wal);
        // What was logged reads back as the records the choices named.
        let (_, scan) = Wal::open(&dir, &MetricsRegistry::new()).unwrap();
        assert!(matches!(
            &scan.records[0].1,
            WalRecord::HeapPageImage { table, page: 0, image: img, .. }
                if table == "s" && img[..] == image[..]
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_mode_parses_and_counts_syncs() {
        assert_eq!(SyncMode::parse("off"), Some(SyncMode::Off));
        assert_eq!(SyncMode::parse("COMMIT"), Some(SyncMode::Commit));
        assert_eq!(SyncMode::parse(" always "), Some(SyncMode::Always));
        assert_eq!(SyncMode::parse("fsync-maybe"), None);
        let dir = tmpdir("sync_counts");
        let (wal, _) = Wal::open(&dir, &MetricsRegistry::new()).unwrap();
        wal.set_mode(SyncMode::Off);
        wal.append(&WalRecord::TableDrop { name: "a".into() })
            .unwrap();
        wal.commit().unwrap();
        assert_eq!(wal.syncs.get(), 0);
        wal.set_mode(SyncMode::Always);
        wal.append(&WalRecord::TableDrop { name: "b".into() })
            .unwrap();
        assert_eq!(wal.syncs.get(), 1);
        wal.set_mode(SyncMode::Commit);
        wal.append(&WalRecord::TableDrop { name: "c".into() })
            .unwrap();
        assert_eq!(wal.syncs.get(), 1);
        wal.commit().unwrap();
        assert_eq!(wal.syncs.get(), 2);
        wal.commit().unwrap(); // nothing new to sync
        assert_eq!(wal.syncs.get(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_watermark_tracks_durability() {
        let dir = tmpdir("watermark");
        let (wal, _) = Wal::open(&dir, &MetricsRegistry::new()).unwrap();
        wal.set_mode(SyncMode::Commit);
        let base = wal.synced_lsn();
        let a = wal
            .append(&WalRecord::TableDrop { name: "a".into() })
            .unwrap();
        let b = wal
            .append(&WalRecord::TableDrop { name: "b".into() })
            .unwrap();
        assert_eq!(wal.last_lsn(), b);
        assert_eq!(wal.synced_lsn(), base);
        wal.commit().unwrap();
        assert!(wal.synced_lsn() >= b);
        assert!(wal.synced_lsn() >= a);
        assert_eq!(wal.syncs.get(), 1);
        assert_eq!(wal.commits.get(), 1);
        // A second commit with nothing new is covered by the watermark.
        wal.commit().unwrap();
        assert_eq!(wal.syncs.get(), 1);
        assert_eq!(wal.commits.get(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_commits_share_one_fsync() {
        use std::sync::Barrier;
        let dir = tmpdir("group_commit");
        let (wal, _) = Wal::open(&dir, &MetricsRegistry::new()).unwrap();
        wal.set_mode(SyncMode::Commit);
        let wal = Arc::new(wal);
        let n = 8;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let wal = wal.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    wal.append(&WalRecord::TableDrop {
                        name: format!("t{i}"),
                    })
                    .unwrap();
                    // Every append lands before any commit starts, so the
                    // first elected flusher's fsync covers all eight
                    // committers: exactly one sync for the whole group.
                    barrier.wait();
                    wal.commit().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wal.commits.get(), n as u64);
        assert_eq!(wal.syncs.get(), 1);
        assert_eq!(wal.synced_lsn(), wal.last_lsn());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn always_mode_group_commits_across_appenders() {
        let dir = tmpdir("group_always");
        let (wal, _) = Wal::open(&dir, &MetricsRegistry::new()).unwrap();
        wal.set_mode(SyncMode::Always);
        let wal = Arc::new(wal);
        let n = 4;
        let per = 16;
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let wal = wal.clone();
                std::thread::spawn(move || {
                    for j in 0..per {
                        wal.append(&WalRecord::TableDrop {
                            name: format!("t{i}_{j}"),
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Per-record durability still holds (watermark caught up), but
        // concurrent appenders may share flushes, so the sync count never
        // exceeds the record count.
        assert_eq!(wal.synced_lsn(), wal.last_lsn());
        assert!(wal.syncs.get() <= (n * per) as u64);
        assert!(wal.syncs.get() >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
