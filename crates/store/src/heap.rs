//! Append-only heap files: ordered pages of variable-length records.

use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::buffer::{BufferPool, PoolCounters};
use crate::disk::DiskManager;
use crate::error::{StoreError, StoreResult};
use crate::page::{Page, PageId, SlotId, PAGE_SIZE};
use crate::wal::Wal;

/// Where a logged heap sends its append records.
#[derive(Debug)]
struct WalSink {
    wal: Arc<Wal>,
    table: String,
}

/// A consistent prefix of one heap, captured atomically and readable
/// without taking any heap lock. Because the heap is append-only, the
/// prefix `pages 0 .. pages-1` with the last page capped at
/// `tail_tuples` records can never change after capture: pages before
/// the tail are frozen forever, and the tail page only *grows*. A scan
/// that clamps itself to a snapshot therefore sees exactly the rows
/// that were visible at capture time — snapshot isolation for readers,
/// with writers never blocked and never blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapSnapshot {
    /// Number of visible pages (ids `0 .. pages`).
    pub pages: u32,
    /// Number of visible tuples on the last visible page (`pages - 1`).
    pub tail_tuples: u16,
    /// Total visible rows (a statistic for sizing decisions — exact
    /// between batches, may lag mid-batch by design).
    pub rows: u64,
}

impl HeapSnapshot {
    /// The empty prefix.
    pub const EMPTY: HeapSnapshot = HeapSnapshot {
        pages: 0,
        tail_tuples: 0,
        rows: 0,
    };

    /// The part of slots `slots` of `page` this snapshot exposes: all of
    /// them on a page below the tail (it is frozen), those under the
    /// watermark on the tail page, none on a page past the snapshot.
    pub fn visible_slots(&self, page: PageId, slots: Range<SlotId>) -> Range<SlotId> {
        let end = match (page + 1).cmp(&self.pages) {
            std::cmp::Ordering::Less => slots.end,
            std::cmp::Ordering::Equal => slots.end.min(self.tail_tuples),
            std::cmp::Ordering::Greater => 0,
        };
        slots.start.min(end)..end
    }

    /// How many pages this snapshot exposes a tuple of: `0 ..
    /// visible_pages()`.
    pub fn visible_pages(&self) -> u32 {
        self.pages - u32::from(self.pages > 0 && self.tail_tuples == 0)
    }

    fn pack(pages: u32, tail_tuples: u16) -> u64 {
        ((pages as u64) << 16) | tail_tuples as u64
    }

    fn unpack(word: u64) -> (u32, u16) {
        ((word >> 16) as u32, (word & 0xFFFF) as u16)
    }
}

/// Defers snapshot publication while a multi-row append batch is in
/// flight: concurrent readers keep seeing the pre-batch prefix until the
/// guard drops, so a batch becomes visible atomically (all rows or none)
/// rather than row by row. Nests; the outermost drop publishes.
#[must_use = "the batch is published when this guard drops"]
pub struct AppendBatch<'a> {
    heap: &'a TableHeap,
}

impl Drop for AppendBatch<'_> {
    fn drop(&mut self) {
        if self.heap.batch_depth.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.heap.publish_pending();
        }
    }
}

/// A table's heap file behind a [`BufferPool`]: records append to the last
/// page (spilling into fresh pages) and scans visit pages in order, one
/// pinned page at a time — a pool smaller than the file streams.
///
/// The heap is byte-oriented: records are opaque `&[u8]`. The tuple
/// encoding (and the schema whose fingerprint every page carries) lives
/// one layer up, in the engine's storage glue.
#[derive(Debug)]
pub struct TableHeap {
    pool: BufferPool,
    fingerprint: u64,
    rows: AtomicU64,
    /// Append cursor: the page currently taking inserts.
    tail: Mutex<Option<PageId>>,
    /// When attached, every append is logged here before it is
    /// acknowledged: a full-page image on the page's first touch per
    /// checkpoint epoch (and for every fresh page), a logical record
    /// afterwards.
    wal: OnceLock<WalSink>,
    /// Published prefix watermark, packed `(pages << 16) | tail_tuples`
    /// — what [`TableHeap::snapshot`] reads, lock-free.
    visible: AtomicU64,
    /// Rows in the published prefix.
    visible_rows: AtomicU64,
    /// Latest (possibly unpublished) prefix, updated under the tail lock
    /// on every append; promoted to `visible` outside a batch scope.
    pending: AtomicU64,
    /// Open [`AppendBatch`] scopes; > 0 defers publication.
    batch_depth: AtomicU32,
}

impl TableHeap {
    /// Create a fresh (empty) heap file at `path`, truncating any previous
    /// file, with `pool_pages` buffer frames counting into `counters`.
    pub fn create(
        path: impl AsRef<Path>,
        fingerprint: u64,
        pool_pages: usize,
        counters: &PoolCounters,
    ) -> StoreResult<Self> {
        let path = path.as_ref();
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let disk = DiskManager::open(path, counters)?;
        Ok(TableHeap {
            pool: BufferPool::new(disk, pool_pages, counters),
            fingerprint,
            rows: AtomicU64::new(0),
            tail: Mutex::new(None),
            wal: OnceLock::new(),
            visible: AtomicU64::new(0),
            visible_rows: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            batch_depth: AtomicU32::new(0),
        })
    }

    /// Open an existing heap file, validating every page header against
    /// `fingerprint` and counting rows (pages stream through the pool).
    pub fn open(
        path: impl AsRef<Path>,
        fingerprint: u64,
        pool_pages: usize,
        counters: &PoolCounters,
    ) -> StoreResult<Self> {
        let heap = Self::open_with_count(path, fingerprint, pool_pages, 0, counters)?;
        let mut rows = 0u64;
        for id in 0..heap.page_count() {
            rows += heap.with_page(id, |page| Ok(page.tuple_count() as u64))?;
        }
        heap.rows.store(rows, Ordering::Relaxed);
        heap.refresh_visible()?;
        Ok(heap)
    }

    /// Open an existing heap file **without** scanning it, trusting a
    /// row count cached elsewhere (the database manifest). Pages are
    /// still fingerprint-validated lazily, on every pinned access — this
    /// only skips the eager whole-file pass, keeping `Database::open`
    /// O(manifest) instead of O(data).
    pub fn open_with_count(
        path: impl AsRef<Path>,
        fingerprint: u64,
        pool_pages: usize,
        rows: u64,
        counters: &PoolCounters,
    ) -> StoreResult<Self> {
        let disk = DiskManager::open(path, counters)?;
        let pool = BufferPool::new(disk, pool_pages, counters);
        let pages = pool.disk().page_count();
        // Validate the first page eagerly: catches opening under the
        // wrong schema immediately, without reading the whole heap.
        if pages > 0 {
            pool.fetch(0)?.read().validate(fingerprint)?;
        }
        let heap = TableHeap {
            pool,
            fingerprint,
            rows: AtomicU64::new(rows),
            tail: Mutex::new(pages.checked_sub(1)),
            wal: OnceLock::new(),
            visible: AtomicU64::new(0),
            visible_rows: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            batch_depth: AtomicU32::new(0),
        };
        heap.refresh_visible()?;
        Ok(heap)
    }

    /// Open a heap file for crash recovery: the file length is rounded
    /// down to whole pages (a torn final allocation is discarded), no
    /// page is validated eagerly (torn pages are expected — redo
    /// re-materializes them) and the row count starts at zero (call
    /// [`TableHeap::recount_rows`] once replay settles). Returns whether
    /// a partial trailing page was trimmed.
    pub fn open_for_recovery(
        path: impl AsRef<Path>,
        fingerprint: u64,
        pool_pages: usize,
        counters: &PoolCounters,
    ) -> StoreResult<(Self, bool)> {
        let (disk, trimmed) = DiskManager::open_trimming(path, counters)?;
        let pool = BufferPool::new(disk, pool_pages, counters);
        let pages = pool.disk().page_count();
        Ok((
            TableHeap {
                pool,
                fingerprint,
                rows: AtomicU64::new(0),
                tail: Mutex::new(pages.checked_sub(1)),
                wal: OnceLock::new(),
                visible: AtomicU64::new(0),
                visible_rows: AtomicU64::new(0),
                pending: AtomicU64::new(0),
                batch_depth: AtomicU32::new(0),
            },
            trimmed,
        ))
    }

    /// Route every future append through `wal`, tagged as `table`. Also
    /// hooks the buffer pool so dirty write-backs sync the log first
    /// (the write-ahead invariant). A heap is attached once; a second
    /// call is ignored.
    pub fn attach_wal(&self, wal: Arc<Wal>, table: impl Into<String>) {
        self.pool.attach_wal(Arc::clone(&wal));
        let sink = WalSink {
            wal,
            table: table.into(),
        };
        let attached = self.wal.set(sink).is_ok();
        debug_assert!(attached, "a heap is attached to one WAL");
    }

    /// The schema fingerprint every page of this heap carries.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of pages in the heap file.
    pub fn page_count(&self) -> u32 {
        self.pool.disk().page_count()
    }

    /// Number of records across all pages.
    pub fn row_count(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// The buffer pool (for io accounting and capacity introspection).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Capture the currently published consistent prefix — lock-free, so
    /// a reader opening a snapshot never waits on an in-flight append
    /// (whose tail lock may be held across page I/O).
    pub fn snapshot(&self) -> HeapSnapshot {
        let (pages, tail_tuples) = HeapSnapshot::unpack(self.visible.load(Ordering::Acquire));
        HeapSnapshot {
            pages,
            tail_tuples,
            rows: self.visible_rows.load(Ordering::Acquire),
        }
    }

    /// Open a batch scope: appends made while the guard lives stay
    /// invisible to new snapshots until it drops, making a multi-row
    /// batch visible atomically. (If the batch errors out part-way, the
    /// rows appended so far are published on drop — the same prefix a
    /// crash-recovery replay of the batch would surface.)
    pub fn begin_batch(&self) -> AppendBatch<'_> {
        self.batch_depth.fetch_add(1, Ordering::AcqRel);
        AppendBatch { heap: self }
    }

    /// Promote the latest appended prefix to the published watermark.
    fn publish_pending(&self) {
        self.visible
            .store(self.pending.load(Ordering::Acquire), Ordering::Release);
        self.visible_rows
            .store(self.rows.load(Ordering::Acquire), Ordering::Release);
    }

    /// Record (under the tail lock) that the heap now ends at `pages`
    /// pages with `tail_tuples` records on the last one, and publish it
    /// unless a batch scope is open.
    fn note_append(&self, pages: u32, tail_tuples: u16) {
        self.pending
            .store(HeapSnapshot::pack(pages, tail_tuples), Ordering::Release);
        if self.batch_depth.load(Ordering::Acquire) == 0 {
            self.publish_pending();
        }
    }

    /// Recompute the watermark from the file itself: the whole heap
    /// becomes visible. Used at open and after recovery reshapes pages.
    fn refresh_visible(&self) -> StoreResult<()> {
        let pages = self.page_count();
        let tail_tuples = match pages.checked_sub(1) {
            Some(last) => self.with_page(last, |page| Ok(page.tuple_count()))?,
            None => 0,
        };
        self.pending
            .store(HeapSnapshot::pack(pages, tail_tuples), Ordering::Release);
        self.publish_pending();
        Ok(())
    }

    /// Append one record, spilling into a fresh page when the tail page is
    /// full. Returns the page and slot that took the record — the heap
    /// position an interval index entry points at.
    pub fn append(&self, record: &[u8]) -> StoreResult<(PageId, SlotId)> {
        let mut at = None;
        self.append_batch(
            1,
            |_, buf| buf.extend_from_slice(record),
            |_, page, slot| at = Some((page, slot)),
        )?;
        Ok(at.expect("one record appended"))
    }

    /// Append `n` records in order — the one append path. Record `i` is
    /// encoded by `encode(i, buf)` into an empty buffer, and `placed(i,
    /// page, slot)` hears where it landed once it is in the heap.
    ///
    /// Records that fit the tail page go into it through the pool, each
    /// logged on its own (an image on the page's first touch this epoch,
    /// the record alone afterwards). The rest fill fresh pages in memory
    /// under the same greedy rule — a record goes to the last page if it
    /// fits, else starts a new one — so pages break where one-by-one
    /// appends would break them. Fresh pages go out in runs of at most
    /// the pool's capacity: one image each, logged in ascending page
    /// order, then one WAL sync for the run (the write-ahead point of
    /// all its pages), then each page written once and mapped clean.
    ///
    /// New snapshots see the records once the outermost batch scope
    /// closes (this call opens one). A record that fails ends the batch:
    /// the records before it that reached the heap stay appended, and
    /// the error is returned.
    pub fn append_batch(
        &self,
        n: usize,
        mut encode: impl FnMut(usize, &mut Vec<u8>),
        mut placed: impl FnMut(usize, PageId, SlotId),
    ) -> StoreResult<()> {
        let _batch = self.begin_batch();
        let mut tail = self.tail.lock().unwrap_or_else(|e| e.into_inner());
        let mut buf = Vec::with_capacity(64);
        // Fresh pages not yet written, with the index of each one's first
        // record; the last one takes appends.
        let mut run: Vec<(Page, usize)> = Vec::new();
        let filled = (|| {
            let mut tail_page = match *tail {
                Some(id) if n > 0 => Some((id, self.pool.fetch(id)?)),
                _ => None,
            };
            if let Some((_, guard)) = &tail_page {
                // Validate before trusting the header's free-space
                // pointers: a corrupt tail must surface as an error, not
                // as pointer arithmetic inside `Page::insert`.
                guard.read().validate(self.fingerprint)?;
            }
            for i in 0..n {
                buf.clear();
                encode(i, &mut buf);
                if let Some((id, guard)) = &tail_page {
                    let mut page = guard.write();
                    if let Some(slot) = page.insert(&buf)? {
                        self.log_change(&mut page, *id, Some(&buf))?;
                        let tail_tuples = page.tuple_count();
                        drop(page);
                        self.rows.fetch_add(1, Ordering::Relaxed);
                        self.note_append(id + 1, tail_tuples);
                        placed(i, *id, slot);
                        continue;
                    }
                }
                // The tail is full (or missing): from here on every record
                // goes to a fresh page, and the tail's pin is released so
                // a small pool has a frame for the run.
                tail_page = None;
                if let Some((page, _)) = run.last_mut() {
                    if page.insert(&buf)?.is_some() {
                        continue;
                    }
                }
                if run.len() == self.pool.capacity() {
                    self.write_run(&mut tail, &mut run, &mut placed)?;
                }
                let mut page = Page::init(self.fingerprint);
                if page.insert(&buf)?.is_none() {
                    return Err(StoreError::Capacity(format!(
                        "record of {} bytes does not fit an empty page",
                        buf.len()
                    )));
                }
                run.push((page, i));
            }
            Ok(())
        })();
        // The pages packed before a failure hold records that precede it:
        // they are appended like any other.
        let written = self.write_run(&mut tail, &mut run, &mut placed);
        filled.and(written)
    }

    /// Log, write and publish a run of fresh pages (ascending from the
    /// heap's current page count), emptying `run`. Each page is logged as
    /// its full image, one WAL sync makes all of them durable, and only
    /// then is each page written — once, as a clean frame of the pool.
    fn write_run(
        &self,
        tail: &mut MutexGuard<'_, Option<PageId>>,
        run: &mut Vec<(Page, usize)>,
        placed: &mut impl FnMut(usize, PageId, SlotId),
    ) -> StoreResult<()> {
        // Taken, not borrowed: after a failure the run is gone, never
        // logged or written twice.
        let mut run = std::mem::take(run);
        if run.is_empty() {
            return Ok(());
        }
        let first = self.pool.disk().page_count();
        for ((page, _), id) in run.iter_mut().zip(first..) {
            self.log_change(page, id, None)?;
        }
        if let Some(sink) = self.wal.get() {
            sink.wal.sync_for_write_ahead()?;
        }
        for ((page, first_record), logged_as) in run.into_iter().zip(first..) {
            let tail_tuples = page.tuple_count();
            let (id, _guard) = self.pool.allocate(page)?;
            debug_assert_eq!(id, logged_as, "the tail lock serializes heap allocation");
            **tail = Some(id);
            self.rows
                .fetch_add(u64::from(tail_tuples), Ordering::Relaxed);
            self.note_append(id + 1, tail_tuples);
            for slot in 0..tail_tuples {
                placed(first_record + usize::from(slot), id, slot);
            }
        }
        Ok(())
    }

    /// Log a change to page `id` to the attached WAL (no-op when
    /// detached): `record` was just inserted into it, or, for `None`, the
    /// page is fresh. The returned LSN is stamped onto the in-memory page
    /// so redo can tell whether the on-disk copy already contains this
    /// change.
    fn log_change(&self, page: &mut Page, id: PageId, record: Option<&[u8]>) -> StoreResult<()> {
        let Some(sink) = self.wal.get() else {
            return Ok(());
        };
        let lsn =
            sink.wal
                .log_heap_change(&sink.table, self.fingerprint, id, record, page.as_bytes())?;
        page.set_lsn(lsn);
        Ok(())
    }

    /// Redo one logged full-page image: overwrite (or append) page `id`
    /// unless the resident copy already carries an LSN at or past `lsn`.
    /// A page that fails its checksum is exactly what the image repairs,
    /// so corruption counts as "older". Returns whether it applied.
    pub fn redo_page_image(
        &self,
        id: PageId,
        image: &[u8; PAGE_SIZE],
        lsn: u64,
    ) -> StoreResult<bool> {
        let mut tail = self.tail.lock().unwrap_or_else(|e| e.into_inner());
        let pages = self.page_count();
        if id > pages {
            // A gap means every page in between was lost with the log
            // tail — this image belongs to work that was never
            // acknowledged, so it is safe to skip.
            eprintln!(
                "temporal-store: skipping page image for page {id} past end of heap ({pages} pages)"
            );
            return Ok(false);
        }
        if id < pages {
            match self.pool.fetch(id) {
                Ok(guard) => {
                    if guard.read().lsn() >= lsn {
                        return Ok(false);
                    }
                }
                Err(StoreError::Corrupt(_)) => {}
                Err(e) => return Err(e),
            }
        }
        let mut page = Page::zeroed();
        page.as_bytes_mut().copy_from_slice(image);
        page.set_lsn(lsn);
        self.pool.overwrite(id, page)?;
        let pages = self.page_count();
        *tail = pages.checked_sub(1);
        Ok(true)
    }

    /// Redo one logged record append into page `id`, skipping it when
    /// the page's LSN shows the insert already happened. The page must
    /// exist: the WAL images every page before logging logical appends
    /// against it, so a missing page means the log is inconsistent.
    pub fn redo_append(&self, id: PageId, record: &[u8], lsn: u64) -> StoreResult<bool> {
        let _tail = self.tail.lock().unwrap_or_else(|e| e.into_inner());
        if id >= self.page_count() {
            return Err(StoreError::Corrupt(format!(
                "wal replays a record into page {id} of a {}-page heap (missing page image)",
                self.page_count()
            )));
        }
        let guard = self.pool.fetch(id)?;
        let mut page = guard.write();
        if page.lsn() >= lsn {
            return Ok(false);
        }
        if page.insert(record)?.is_none() {
            return Err(StoreError::Corrupt(format!(
                "wal replays a {}-byte record that does not fit page {id}",
                record.len()
            )));
        }
        page.set_lsn(lsn);
        Ok(true)
    }

    /// Drop trailing pages that fail their checksum or header validation.
    /// After redo, a still-corrupt tail page holds only writes that were
    /// never acknowledged (frozen pages are never rewritten, and every
    /// covered page was just re-materialized from its logged image), so
    /// recovery trims it. Corruption anywhere else is *not* repaired
    /// here — it surfaces as an error from the next full scan. Returns
    /// the number of pages removed.
    pub fn trim_corrupt_tail(&self) -> StoreResult<u32> {
        let mut tail = self.tail.lock().unwrap_or_else(|e| e.into_inner());
        let mut pages = self.page_count();
        let mut trimmed = 0u32;
        while pages > 0 {
            let last = pages - 1;
            let bad = match self.pool.fetch(last) {
                Ok(guard) => guard.read().validate(self.fingerprint).is_err(),
                Err(StoreError::Corrupt(_)) => true,
                Err(e) => return Err(e),
            };
            if !bad {
                break;
            }
            eprintln!(
                "temporal-store: dropping torn page {last} of {} (unacknowledged writes)",
                self.pool.disk().path().display()
            );
            self.pool.discard_from(last);
            self.pool.disk().truncate_pages(last)?;
            trimmed += 1;
            pages = last;
        }
        *tail = pages.checked_sub(1);
        Ok(trimmed)
    }

    /// Recount rows with a full validated scan (recovery may have grown,
    /// repaired or trimmed pages since the cached count was taken).
    pub fn recount_rows(&self) -> StoreResult<u64> {
        let mut rows = 0u64;
        for id in 0..self.page_count() {
            rows += self.with_page(id, |page| Ok(page.tuple_count() as u64))?;
        }
        self.rows.store(rows, Ordering::Relaxed);
        self.refresh_visible()?;
        Ok(rows)
    }

    /// Run `f` over the pinned page `id` (validated). The pin is released
    /// when `f` returns, so a sequential caller streams pages through the
    /// pool rather than accumulating them.
    pub fn with_page<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&Page) -> StoreResult<R>,
    ) -> StoreResult<R> {
        let guard = self.pool.fetch(id)?;
        let page = guard.read();
        page.validate(self.fingerprint)?;
        f(&page)
    }

    /// Write back dirty pages and sync the file.
    pub fn flush(&self) -> StoreResult<()> {
        self.pool.flush_all()
    }

    /// Flush and close the underlying pool, surfacing any I/O error the
    /// silent drop path would swallow.
    pub fn close(&self) -> StoreResult<()> {
        self.pool.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ALL_SLOTS;
    use crate::wal::WalRecord;
    use std::path::PathBuf;

    fn heap_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("talign_store_heap_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn append_spills_across_pages_and_reopens() {
        let path = heap_path("spill.heap");
        let heap = TableHeap::create(&path, 0xfeed, 2, &PoolCounters::default()).unwrap();
        let record = [7u8; 512];
        for _ in 0..40 {
            heap.append(&record).unwrap();
        }
        assert_eq!(heap.row_count(), 40);
        assert!(heap.page_count() > 1, "512-byte records must spill");
        heap.flush().unwrap();
        let pages = heap.page_count();
        drop(heap);

        let heap = TableHeap::open(&path, 0xfeed, 2, &PoolCounters::default()).unwrap();
        assert_eq!(heap.row_count(), 40);
        assert_eq!(heap.page_count(), pages);
        let mut seen = 0;
        for id in 0..heap.page_count() {
            seen += heap
                .with_page(id, |p| {
                    for r in p.records() {
                        assert_eq!(r.unwrap(), &record[..]);
                    }
                    Ok(p.tuple_count() as u64)
                })
                .unwrap();
        }
        assert_eq!(seen, 40);
        // Appends continue on the reopened tail page without a new page
        // until it fills.
        let before = heap.page_count();
        heap.append(&[1u8; 8]).unwrap();
        assert_eq!(heap.page_count(), before);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_fingerprint_refuses_to_open() {
        let path = heap_path("fp.heap");
        let heap = TableHeap::create(&path, 1, 2, &PoolCounters::default()).unwrap();
        heap.append(b"x").unwrap();
        heap.flush().unwrap();
        drop(heap);
        assert!(matches!(
            TableHeap::open(&path, 2, 2, &PoolCounters::default()),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    fn wal_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("talign_store_heap_wal")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn attached_wal_gets_an_image_then_logical_records() {
        let dir = wal_dir("fpi");
        let (wal, _) = Wal::open(&dir, &crate::metrics::MetricsRegistry::new()).unwrap();
        let heap = TableHeap::create(dir.join("t.heap"), 7, 4, &PoolCounters::default()).unwrap();
        heap.attach_wal(Arc::new(wal), "t");
        for i in 0..3u8 {
            heap.append(&[i; 16]).unwrap();
        }
        drop(heap);
        let (_, scan) = Wal::open(&dir, &crate::metrics::MetricsRegistry::new()).unwrap();
        assert!(!scan.tail_truncated);
        let recs: Vec<&WalRecord> = scan.records.iter().map(|(_, r)| r).collect();
        assert_eq!(recs.len(), 3);
        assert!(
            matches!(recs[0], WalRecord::HeapPageImage { table, page: 0, .. } if table == "t"),
            "first touch of a page logs its full image"
        );
        for rec in &recs[1..] {
            assert!(matches!(
                rec,
                WalRecord::HeapAppend { table, page: 0, .. } if table == "t"
            ));
        }
    }

    /// Record `i` of the batch tests: lengths that vary, so pages break
    /// at different slot counts.
    fn varied(i: usize) -> Vec<u8> {
        vec![i as u8; 40 + (i * 37) % 300]
    }

    /// Every page of `heap` as its records.
    fn pages_of(heap: &TableHeap) -> Vec<Vec<Vec<u8>>> {
        (0..heap.page_count())
            .map(|id| {
                heap.with_page(id, |p| p.records().map(|r| Ok(r?.to_vec())).collect())
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn a_batch_lays_out_pages_as_one_by_one_appends_do() {
        for (pool, before, n) in [
            (2, 0, 150),
            (2, 5, 150),
            (4, 3, 1),
            (64, 7, 400),
            (1, 2, 60),
        ] {
            let one = TableHeap::create(heap_path("one.heap"), 5, pool, &PoolCounters::default())
                .unwrap();
            let bulk = TableHeap::create(heap_path("bulk.heap"), 5, pool, &PoolCounters::default())
                .unwrap();
            for i in 0..before {
                one.append(&varied(i)).unwrap();
                bulk.append(&varied(i)).unwrap();
            }
            let mut want = Vec::new();
            for i in before..before + n {
                want.push(one.append(&varied(i)).unwrap());
            }
            let mut got = Vec::new();
            bulk.append_batch(
                n,
                |i, buf| buf.extend_from_slice(&varied(before + i)),
                |i, page, slot| got.push((i, page, slot)),
            )
            .unwrap();
            let case = format!("pool {pool}, {before} rows first, {n} in the batch");
            let got: Vec<(PageId, SlotId)> = got
                .into_iter()
                .enumerate()
                .map(|(k, (i, page, slot))| {
                    assert_eq!(k, i, "{case}: records are placed in order");
                    (page, slot)
                })
                .collect();
            assert_eq!(got, want, "{case}: positions");
            assert_eq!(bulk.page_count(), one.page_count(), "{case}");
            assert_eq!(bulk.row_count(), one.row_count(), "{case}");
            assert_eq!(
                pages_of(&bulk),
                pages_of(&one),
                "{case}: records by (page, slot)"
            );
            assert_eq!(bulk.snapshot(), one.snapshot(), "{case}: published");
        }
    }

    #[test]
    fn a_batch_logs_each_fresh_page_once_and_syncs_once_per_run() {
        let dir = wal_dir("bulk");
        let metrics = crate::metrics::MetricsRegistry::new();
        let (wal, _) = Wal::open(&dir, &metrics).unwrap();
        let wal = Arc::new(wal);
        let counters = PoolCounters::default();
        let path = dir.join("t.heap");
        let heap = TableHeap::create(&path, 9, 4, &counters).unwrap();
        heap.attach_wal(Arc::clone(&wal), "t");
        heap.append(&varied(0)).unwrap();
        let syncs = metrics.counter("wal.syncs");
        let (syncs_before, writes_before) = (syncs.get(), counters.io_writes.get());
        let n = 200;
        heap.append_batch(
            n,
            |i, buf| buf.extend_from_slice(&varied(i + 1)),
            |_, _, _| {},
        )
        .unwrap();
        let fresh = heap.page_count() - 1;
        assert!(
            fresh > 8,
            "the batch spans several runs of 4 pages: {fresh}"
        );
        // One sync per run of at most the pool's 4 frames, one write per
        // fresh page, and one for the old tail page, which the batch
        // filled in the pool and the runs evicted.
        assert_eq!(syncs.get() - syncs_before, u64::from(fresh.div_ceil(4)));
        assert_eq!(
            counters.io_writes.get() - writes_before,
            u64::from(fresh) + 1
        );
        wal.commit().unwrap();
        let expected = pages_of(&heap);
        // Crash: nothing more reaches the heap file.
        std::mem::forget(heap);
        drop(wal);

        let (_, scan) = Wal::open(&dir, &crate::metrics::MetricsRegistry::new()).unwrap();
        // The tail page's records one by one, then each fresh page once,
        // as its image, in ascending order.
        let images: Vec<PageId> = scan
            .records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::HeapPageImage { page, .. } => Some(*page),
                _ => None,
            })
            .collect();
        assert_eq!(images, (0..=fresh).collect::<Vec<_>>());
        // Page 0 was imaged by its first record, so its others are logged
        // alone.
        let appends = scan.records.len() - images.len();
        assert_eq!(appends, expected[0].len() - 1);
        let (heap, _) =
            TableHeap::open_for_recovery(&path, 9, 4, &PoolCounters::default()).unwrap();
        for (lsn, rec) in &scan.records {
            match rec {
                WalRecord::HeapPageImage { page, image, .. } => {
                    heap.redo_page_image(*page, image, *lsn).unwrap();
                }
                WalRecord::HeapAppend { page, record, .. } => {
                    heap.redo_append(*page, record, *lsn).unwrap();
                }
                other => panic!("unexpected record {other:?}"),
            }
        }
        assert_eq!(heap.recount_rows().unwrap(), n as u64 + 1);
        assert_eq!(pages_of(&heap), expected);
        heap.close().unwrap();
    }

    #[test]
    fn redo_rebuilds_unflushed_appends_and_is_idempotent() {
        let dir = wal_dir("redo");
        let (wal, _) = Wal::open(&dir, &crate::metrics::MetricsRegistry::new()).unwrap();
        let wal = Arc::new(wal);
        let path = dir.join("t.heap");
        let heap = TableHeap::create(&path, 9, 4, &PoolCounters::default()).unwrap();
        heap.attach_wal(Arc::clone(&wal), "t");
        let record = [5u8; 900];
        for _ in 0..10 {
            heap.append(&record).unwrap();
        }
        wal.commit().unwrap();
        // Crash: the heap's dirty pages never reach disk.
        std::mem::forget(heap);
        drop(wal);

        let (_, scan) = Wal::open(&dir, &crate::metrics::MetricsRegistry::new()).unwrap();
        let (heap, trimmed) =
            TableHeap::open_for_recovery(&path, 9, 4, &PoolCounters::default()).unwrap();
        assert!(!trimmed);
        for _ in 0..2 {
            // The second pass must be a no-op: LSNs make redo idempotent.
            for (lsn, rec) in &scan.records {
                match rec {
                    WalRecord::HeapPageImage { page, image, .. } => {
                        heap.redo_page_image(*page, image, *lsn).unwrap();
                    }
                    WalRecord::HeapAppend { page, record, .. } => {
                        heap.redo_append(*page, record, *lsn).unwrap();
                    }
                    other => panic!("unexpected record {other:?}"),
                }
            }
            assert_eq!(heap.recount_rows().unwrap(), 10);
        }
        let mut seen = 0usize;
        for id in 0..heap.page_count() {
            heap.with_page(id, |p| {
                for r in p.records() {
                    assert_eq!(r.unwrap(), &record[..]);
                    seen += 1;
                }
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(seen, 10);
        heap.close().unwrap();
    }

    #[test]
    fn trim_corrupt_tail_drops_only_the_torn_last_page() {
        use std::io::{Seek, SeekFrom, Write};
        let path = heap_path("torn.heap");
        let heap = TableHeap::create(&path, 3, 4, &PoolCounters::default()).unwrap();
        let record = [1u8; 900];
        for _ in 0..10 {
            heap.append(&record).unwrap();
        }
        assert!(heap.page_count() >= 2);
        heap.close().unwrap();
        let rows_before_last = {
            let heap = TableHeap::open(&path, 3, 4, &PoolCounters::default()).unwrap();
            let last = heap.page_count() - 1;
            heap.row_count()
                - heap
                    .with_page(last, |p| Ok(p.tuple_count() as u64))
                    .unwrap()
        };
        // Tear the last page: overwrite its second half with garbage.
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let len = f.metadata().unwrap().len();
        f.seek(SeekFrom::Start(len - (PAGE_SIZE as u64) / 2))
            .unwrap();
        f.write_all(&vec![0xAB; PAGE_SIZE / 2]).unwrap();
        drop(f);

        let (heap, trimmed) =
            TableHeap::open_for_recovery(&path, 3, 4, &PoolCounters::default()).unwrap();
        assert!(!trimmed);
        assert_eq!(heap.trim_corrupt_tail().unwrap(), 1);
        assert_eq!(heap.recount_rows().unwrap(), rows_before_last);
        // Appends keep working after the trim.
        heap.append(&record).unwrap();
        assert_eq!(heap.row_count(), rows_before_last + 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshots_expose_a_stable_prefix() {
        let path = heap_path("snap.heap");
        let heap = TableHeap::create(&path, 2, 4, &PoolCounters::default()).unwrap();
        assert_eq!(heap.snapshot(), HeapSnapshot::EMPTY);
        let record = [1u8; 512];
        for _ in 0..10 {
            heap.append(&record).unwrap();
        }
        let snap = heap.snapshot();
        assert_eq!(snap.rows, 10);
        assert_eq!(snap.pages, heap.page_count());
        // The snapshot is immune to later appends.
        for _ in 0..10 {
            heap.append(&record).unwrap();
        }
        assert_eq!(snap.rows, 10);
        let later = heap.snapshot();
        assert_eq!(later.rows, 20);
        assert!(later.pages >= snap.pages);
        // Visible-tuple arithmetic: full pages below the tail, capped on
        // the tail, nothing past it.
        let mut total = 0u64;
        for id in 0..heap.page_count() {
            let on_page = heap.with_page(id, |p| Ok(p.tuple_count())).unwrap();
            total += snap.visible_slots(id, 0..on_page).len() as u64;
        }
        assert_eq!(total, 10, "snapshot caps decoding at its prefix");
        let sees = |snap: &HeapSnapshot, page| !snap.visible_slots(page, ALL_SLOTS).is_empty();
        assert!(sees(&snap, 0));
        assert!(!sees(&snap, heap.page_count()));
        // A range past the watermark of the tail page is empty.
        assert!(snap.visible_slots(snap.pages - 1, 9..12).is_empty());
        for pages in 0..3 {
            for tail_tuples in 0..2 {
                let snap = HeapSnapshot {
                    pages,
                    tail_tuples,
                    rows: 0,
                };
                let seen = (0..pages + 1).filter(|&p| sees(&snap, p)).count();
                assert_eq!(snap.visible_pages() as usize, seen, "{snap:?}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_scope_publishes_atomically() {
        let path = heap_path("batch.heap");
        let heap = TableHeap::create(&path, 2, 4, &PoolCounters::default()).unwrap();
        heap.append(&[0u8; 64]).unwrap();
        let batch = heap.begin_batch();
        for _ in 0..5 {
            heap.append(&[1u8; 64]).unwrap();
        }
        // Mid-batch: new snapshots still see the pre-batch prefix.
        assert_eq!(heap.snapshot().rows, 1);
        drop(batch);
        assert_eq!(heap.snapshot().rows, 6);
        // Nested scopes publish only at the outermost drop.
        let outer = heap.begin_batch();
        {
            let inner = heap.begin_batch();
            heap.append(&[2u8; 64]).unwrap();
            drop(inner);
            assert_eq!(heap.snapshot().rows, 6);
        }
        heap.append(&[3u8; 64]).unwrap();
        drop(outer);
        assert_eq!(heap.snapshot().rows, 8);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_restores_the_watermark() {
        let path = heap_path("snap_reopen.heap");
        let heap = TableHeap::create(&path, 4, 4, &PoolCounters::default()).unwrap();
        for _ in 0..7 {
            heap.append(&[9u8; 128]).unwrap();
        }
        heap.close().unwrap();
        let pages = heap.page_count();
        drop(heap);
        // Fast path (manifest-trusted count) and slow path both publish
        // the full heap.
        let heap = TableHeap::open_with_count(&path, 4, 4, 7, &PoolCounters::default()).unwrap();
        let snap = heap.snapshot();
        assert_eq!((snap.pages, snap.rows), (pages, 7));
        drop(heap);
        let heap = TableHeap::open(&path, 4, 4, &PoolCounters::default()).unwrap();
        let snap = heap.snapshot();
        assert_eq!((snap.pages, snap.rows), (pages, 7));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn readers_race_an_appender_through_a_tiny_pool() {
        // Four readers stream the heap through four frames while an
        // appender extends it and checkpoints: nearly every fetch is a
        // lock-free disk read that verifies its CRC, next to write-backs
        // of the tail page and allocations that move the page count.
        // Record `i` carries `i`, so a scan of a snapshot must see
        // `0, 1, 2, …` without a gap, up to exactly the snapshot's end.
        const ROWS: u64 = 6_000;
        const READERS: usize = 4;
        let path = heap_path("race.heap");
        let counters = PoolCounters::default();
        let heap = TableHeap::create(&path, 11, 4, &counters).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(READERS + 1);
        // Five threads pin through four frames, so "every frame pinned"
        // can outlast the pool's own retries; it is the one error that is
        // expected here, and it leaves the heap untouched.
        fn retry<T>(mut op: impl FnMut() -> StoreResult<T>) -> T {
            loop {
                match op() {
                    Ok(v) => return v,
                    Err(StoreError::Capacity(_)) => std::thread::yield_now(),
                    Err(e) => panic!("{e}"),
                }
            }
        }
        let scan = |heap: &TableHeap| {
            let snap = heap.snapshot();
            let mut next = 0u64;
            for id in 0..snap.pages {
                retry(|| {
                    heap.with_page(id, |page| {
                        // A stale copy of the tail page would be short.
                        assert!(
                            id + 1 < snap.pages || snap.tail_tuples <= page.tuple_count(),
                            "page {id} lost tuples"
                        );
                        for slot in snap.visible_slots(id, 0..page.tuple_count()) {
                            let rec = page.record(slot)?;
                            let seq = u64::from_le_bytes(rec[..8].try_into().unwrap());
                            assert_eq!(seq, next, "page {id} slot {slot}");
                            next += 1;
                        }
                        Ok(())
                    })
                });
            }
            next
        };
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    start.wait();
                    let (mut scans, mut seen) = (0, 0);
                    while !done.load(Ordering::Acquire) || scans < 3 {
                        let rows = scan(&heap);
                        assert!(rows >= seen, "a later snapshot shows fewer rows");
                        seen = rows;
                        scans += 1;
                    }
                });
            }
            scope.spawn(|| {
                // Release the readers even if an append fails, so the
                // failure surfaces instead of hanging the scope.
                struct Finish<'a>(&'a std::sync::atomic::AtomicBool);
                impl Drop for Finish<'_> {
                    fn drop(&mut self) {
                        self.0.store(true, Ordering::Release);
                    }
                }
                let _finish = Finish(&done);
                start.wait();
                let mut record = [0x5au8; 200];
                for i in 0..ROWS {
                    record[..8].copy_from_slice(&i.to_le_bytes());
                    retry(|| heap.append(&record));
                    if i % 500 == 499 {
                        heap.flush().unwrap();
                    }
                }
            });
        });
        assert_eq!(scan(&heap), ROWS);
        assert!(counters.io_reads.get() > heap.page_count() as u64);
        heap.close().unwrap();
        drop(heap);
        // What reached the disk is what was appended.
        let heap = TableHeap::open(&path, 11, 4, &PoolCounters::default()).unwrap();
        assert_eq!(scan(&heap), ROWS);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_truncates_previous_contents() {
        let path = heap_path("trunc.heap");
        let heap = TableHeap::create(&path, 1, 2, &PoolCounters::default()).unwrap();
        heap.append(b"old").unwrap();
        heap.flush().unwrap();
        drop(heap);
        let heap = TableHeap::create(&path, 1, 2, &PoolCounters::default()).unwrap();
        assert_eq!(heap.row_count(), 0);
        assert_eq!(heap.page_count(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
