//! The buffer pool: a fixed set of in-memory frames caching heap pages,
//! with pin/unpin accounting, clock (second-chance) eviction and
//! dirty-page write-back.
//!
//! Scans and appends never address the disk directly — they *pin* a page
//! ([`BufferPool::fetch`]), work on the returned [`PageGuard`], and the
//! pin is released when the guard drops. A pinned page is never evicted;
//! an unpinned page survives in its frame until the clock hand reclaims
//! it, so a pool sized below a table's page count still scans the whole
//! table — it just streams pages through the frames instead of holding
//! the heap in memory.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::disk::DiskManager;
use crate::error::{StoreError, StoreResult};
use crate::metrics::{Counter, MetricsRegistry};
use crate::page::{Page, PageId};
use crate::wal::Wal;

/// Default number of frames in a table's buffer pool (64 × 4 KiB = 256 KiB).
pub const DEFAULT_POOL_PAGES: usize = 64;

/// Yield-and-retry rounds before a fully-pinned pool is reported as
/// exhausted. Concurrent fetches pin frames only for the duration of a
/// guard, so "all frames pinned" is almost always a transient state.
const EXHAUSTED_RETRIES: usize = 10_000;

#[derive(Debug, Default, Clone, Copy)]
struct FrameMeta {
    page: Option<PageId>,
    referenced: bool,
}

#[derive(Debug)]
struct PoolState {
    /// page id → frame index for resident pages.
    table: HashMap<PageId, usize>,
    meta: Vec<FrameMeta>,
    hand: usize,
}

/// The `pool.*` counters of a database's registry, resolved once and
/// handed to every pool and disk manager it opens, so all of them add to
/// the same totals and no name lookup sits on the fetch path.
/// `PoolCounters::default()` is a private set, for a standalone pool.
#[derive(Debug, Clone, Default)]
pub struct PoolCounters {
    /// `pool.fetches`: [`BufferPool::fetch`] calls (hits + misses).
    pub fetches: Arc<Counter>,
    /// `pool.io_reads`: cache misses, i.e. pages read from disk.
    pub io_reads: Arc<Counter>,
    /// `pool.io_writes`: pages written to disk (write-backs and appends).
    pub io_writes: Arc<Counter>,
    /// `pool.io_syncs`: fsyncs issued on heap files.
    pub io_syncs: Arc<Counter>,
    /// `pool.evictions`: resident pages displaced by clock eviction.
    pub evictions: Arc<Counter>,
}

impl PoolCounters {
    /// The `pool.*` counters of `metrics`.
    pub fn new(metrics: &MetricsRegistry) -> PoolCounters {
        PoolCounters {
            fetches: metrics.counter("pool.fetches"),
            io_reads: metrics.counter("pool.io_reads"),
            io_writes: metrics.counter("pool.io_writes"),
            io_syncs: metrics.counter("pool.io_syncs"),
            evictions: metrics.counter("pool.evictions"),
        }
    }
}

/// A pinning page cache in front of one [`DiskManager`].
///
/// Concurrency design: the pool mutex guards only the page table, frame
/// metadata and clock hand — never disk reads. Pin counts are per-frame
/// atomics, so releasing a pin (every `PageGuard` drop, i.e. every page a
/// scan streams past) takes no lock at all. Pinning still happens under
/// the short map-guard — that is what makes the eviction check
/// (`pins == 0` while holding the guard) race-free, since a pin count can
/// only leave zero with the guard held. On a miss the victim frame is
/// *claimed* (pinned, unmapped), mapped to the wanted page and
/// write-latched, all under the guard; the guard is then dropped and the
/// disk read runs outside it under the frame latch. Concurrent fetches of
/// other pages proceed in parallel with the I/O; a concurrent fetch of the
/// *same* page finds the mapping, pins the frame and waits on its latch,
/// so a page is read from disk by one thread at a time and only while no
/// frame holds a loaded copy of it.
/// Dirty bits are per-frame atomics set when a [`PageWriteGuard`] is
/// released (still under the frame latch), so page writes never touch the
/// pool mutex; write-back *clears* the bit before copying the frame out
/// (swap-then-write), so a writer racing the flush leaves the bit set and
/// the next flush rewrites the page — a mutation is never lost. Victim
/// write-back stays under the map-guard: it is atomic with the victim's
/// unmapping, so a concurrent re-fetch of the evicted page can never read
/// the heap file before the write-back lands. Together the two rules are
/// the **read-vs-write-back invariant** the lock-free [`DiskManager`] reads
/// rest on: a page is written only while a loaded frame maps it (under the
/// guard), and read only while none does — the same page is never read and
/// written at once, with no file lock involved.
#[derive(Debug)]
pub struct BufferPool {
    disk: DiskManager,
    frames: Vec<Arc<RwLock<Page>>>,
    /// Per-frame pin counts. Incremented only under the `state` guard;
    /// decremented lock-free on guard drop.
    pins: Vec<AtomicU32>,
    /// Per-frame dirty bits, set lock-free on [`PageWriteGuard`] release.
    dirty: Vec<AtomicBool>,
    state: Mutex<PoolState>,
    /// `pool.fetches`, `pool.io_reads` and `pool.evictions` (clock
    /// victims that held a mapped page); the disk manager counts the
    /// writes and syncs.
    fetches: Arc<Counter>,
    io_reads: Arc<Counter>,
    evictions: Arc<Counter>,
    /// The database WAL, when this pool backs a logged heap: synced
    /// before any dirty page reaches disk (the write-*ahead* invariant,
    /// see [`Wal::sync_for_write_ahead`]).
    wal: Mutex<Option<Arc<Wal>>>,
    /// Set by a successful [`BufferPool::close`]: the drop hook skips its
    /// best-effort flush (everything is already durable).
    closed: AtomicBool,
    /// True while the last flush attempt failed — dirty pages may not be
    /// on disk. A later fully-successful flush clears it (the dirty bits
    /// were kept, so the retry rewrote everything).
    poisoned: AtomicBool,
}

impl BufferPool {
    /// A pool of `capacity` frames over `disk`, counting into `counters`.
    pub fn new(disk: DiskManager, capacity: usize, counters: &PoolCounters) -> BufferPool {
        let capacity = capacity.max(1);
        BufferPool {
            disk,
            frames: (0..capacity)
                .map(|_| Arc::new(RwLock::new(Page::zeroed())))
                .collect(),
            pins: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
            dirty: (0..capacity).map(|_| AtomicBool::new(false)).collect(),
            state: Mutex::new(PoolState {
                table: HashMap::with_capacity(capacity),
                meta: vec![FrameMeta::default(); capacity],
                hand: 0,
            }),
            fetches: Arc::clone(&counters.fetches),
            io_reads: Arc::clone(&counters.io_reads),
            evictions: Arc::clone(&counters.evictions),
            wal: Mutex::new(None),
            closed: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Attach the database WAL: from now on the log is synced before any
    /// dirty page write-back, so a torn data page is always covered by a
    /// durable full-page image.
    pub fn attach_wal(&self, wal: Arc<Wal>) {
        *self.wal.lock().unwrap_or_else(|e| e.into_inner()) = Some(wal);
    }

    /// Enforce write-ahead before a dirty page hits disk.
    fn write_ahead(&self) -> StoreResult<()> {
        let wal = self.wal.lock().unwrap_or_else(|e| e.into_inner()).clone();
        match wal {
            Some(w) => w.sync_for_write_ahead(),
            None => Ok(()),
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// The underlying disk manager.
    pub fn disk(&self) -> &DiskManager {
        &self.disk
    }

    /// Page ids currently resident, sorted — test observability.
    pub fn cached_pages(&self) -> Vec<PageId> {
        let state = self.lock_state();
        let mut ids: Vec<PageId> = state.table.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pin page `id`, reading it from disk on a miss. The returned guard
    /// keeps the page pinned (unevictable) until dropped. Hits touch the
    /// pool mutex only for the table lookup; the miss path performs its
    /// disk read outside the mutex (see the type-level docs).
    pub fn fetch(&self, id: PageId) -> StoreResult<PageGuard<'_>> {
        self.fetches.inc();
        let mut state = self.lock_state();
        let mut attempts = 0;
        let idx = loop {
            if let Some(&idx) = state.table.get(&id) {
                self.pins[idx].fetch_add(1, Ordering::Acquire);
                state.meta[idx].referenced = true;
                return Ok(self.guard(idx));
            }
            // Every frame pinned is usually transient (concurrent fetches
            // mid-flight): yield and retry before giving up, re-checking
            // the table since the page may have landed meanwhile.
            match self.claim_frame(&mut state) {
                Ok(idx) => break idx,
                Err(e @ StoreError::Capacity(_)) => {
                    attempts += 1;
                    if attempts > EXHAUSTED_RETRIES {
                        return Err(e);
                    }
                    drop(state);
                    std::thread::yield_now();
                    state = self.lock_state();
                }
                Err(e) => return Err(e),
            }
        };
        // Map and latch the frame before releasing the map-guard, then read
        // outside the guard: other fetches proceed concurrently with the
        // I/O, and a fetch of this same id blocks on the latch until the
        // contents are in place (as in `allocate`).
        state.meta[idx] = FrameMeta {
            page: Some(id),
            referenced: true,
        };
        state.table.insert(id, idx);
        let mut frame = self.frames[idx].write().unwrap_or_else(|e| e.into_inner());
        drop(state);
        if let Err(e) = self.disk.read_page(id, &mut frame) {
            // Fetches that found the mapping meanwhile hold pins on this
            // frame: leave them a blank page (which fails validation, as
            // their own read would have), then unmap. The latch is dropped
            // before the guard is retaken — `overwrite` takes them in the
            // other order.
            *frame = Page::zeroed();
            drop(frame);
            let mut state = self.lock_state();
            state.table.remove(&id);
            state.meta[idx] = FrameMeta::default();
            drop(state);
            self.unpin(idx);
            return Err(e);
        }
        drop(frame);
        self.io_reads.inc();
        Ok(self.guard(idx))
    }

    /// Append a fresh page to the heap file and pin it, returning its id
    /// and a guard over the (already dirty-free, just-written) frame.
    /// A frame is secured *before* the disk append, so a pool with every
    /// frame pinned fails cleanly without having written phantom bytes.
    /// The append stays under the map-guard — the id must be mapped
    /// atomically with its assignment.
    ///
    /// Write-ahead is the caller's: the page carries an LSN, and letting
    /// it reach disk before the log would let a crash truncate the WAL
    /// below an LSN that is already on a data page (a later image at that
    /// LSN would then be skipped as "applied"). The heap logs a run of
    /// fresh pages and syncs the log once before allocating any of them.
    pub fn allocate(&self, page: Page) -> StoreResult<(PageId, PageGuard<'_>)> {
        let mut state = self.lock_state();
        let mut attempts = 0;
        let idx = loop {
            match self.claim_frame(&mut state) {
                Ok(idx) => break idx,
                Err(e @ StoreError::Capacity(_)) => {
                    attempts += 1;
                    if attempts > EXHAUSTED_RETRIES {
                        return Err(e);
                    }
                    drop(state);
                    std::thread::yield_now();
                    state = self.lock_state();
                }
                Err(e) => return Err(e),
            }
        };
        let id = match self.disk.allocate_page(&page) {
            Ok(id) => id,
            Err(e) => {
                // The claimed frame was never mapped: just drop the claim.
                drop(state);
                self.unpin(idx);
                return Err(e);
            }
        };
        state.meta[idx] = FrameMeta {
            page: Some(id),
            referenced: true,
        };
        state.table.insert(id, idx);
        // Latch before unmapping the guard so a concurrent fetch of `id`
        // blocks on the latch until the contents are in place.
        let mut frame = self.frames[idx].write().unwrap_or_else(|e| e.into_inner());
        drop(state);
        *frame = page;
        drop(frame);
        Ok((id, self.guard(idx)))
    }

    /// Select a victim frame, write its page back if dirty, detach it from
    /// the page table and pin it for the caller. The write-back happens
    /// under the map-guard, atomically with the unmapping: once the guard
    /// drops, any re-fetch of the evicted page reads the written-back
    /// bytes. On error the frame is left cleanly empty and unpinned.
    fn claim_frame(&self, state: &mut PoolState) -> StoreResult<usize> {
        let idx = self.evict_victim(state)?;
        // pins == 0 guarantees no outstanding guard holds the frame latch.
        let old = state.meta[idx];
        if let Some(old_id) = old.page {
            if self.dirty[idx].swap(false, Ordering::Acquire) {
                if let Err(e) = self.write_ahead().and_then(|()| {
                    let frame = self.frames[idx].read().unwrap_or_else(|e| e.into_inner());
                    self.disk.write_page(old_id, &frame)
                }) {
                    // Failed write-back: restore the bit so the page is
                    // retried, and leave the frame mapped and unpinned.
                    self.dirty[idx].store(true, Ordering::Release);
                    return Err(e);
                }
            }
            state.table.remove(&old_id);
            state.meta[idx] = FrameMeta::default();
            self.evictions.inc();
        }
        self.pins[idx].store(1, Ordering::Release);
        Ok(idx)
    }

    /// Clock (second-chance) victim selection over unpinned frames.
    fn evict_victim(&self, state: &mut PoolState) -> StoreResult<usize> {
        let n = self.frames.len();
        for _ in 0..2 * n {
            let idx = state.hand;
            state.hand = (state.hand + 1) % n;
            if self.pins[idx].load(Ordering::Acquire) > 0 {
                continue;
            }
            let meta = &mut state.meta[idx];
            if meta.referenced {
                meta.referenced = false;
                continue;
            }
            return Ok(idx);
        }
        Err(StoreError::Capacity(format!(
            "buffer pool exhausted: all {n} frames pinned"
        )))
    }

    fn guard(&self, idx: usize) -> PageGuard<'_> {
        PageGuard {
            pool: self,
            idx,
            frame: Arc::clone(&self.frames[idx]),
        }
    }

    /// Lock-free: every guard drop is one atomic decrement.
    fn unpin(&self, idx: usize) {
        let prev = self.pins[idx].fetch_sub(1, Ordering::Release);
        debug_assert!(prev > 0, "unpin without pin");
    }

    /// Write every dirty frame back to disk *without* syncing. On error
    /// the failing frame keeps its dirty bit, so a retry rewrites it.
    /// The dirty bit is cleared *before* the frame is copied out
    /// (swap-then-write): a writer racing this flush re-sets the bit on
    /// its guard release, so its mutation is rewritten by the next flush
    /// instead of being lost under a clear-after-write protocol.
    pub fn write_back_all(&self) -> StoreResult<()> {
        let state = self.lock_state();
        let mut wrote_ahead = false;
        for idx in 0..self.frames.len() {
            let meta = state.meta[idx];
            if let Some(id) = meta.page {
                if !self.dirty[idx].swap(false, Ordering::Acquire) {
                    continue;
                }
                if !wrote_ahead {
                    if let Err(e) = self.write_ahead() {
                        self.dirty[idx].store(true, Ordering::Release);
                        return Err(e);
                    }
                    wrote_ahead = true;
                }
                let result = {
                    let frame = self.frames[idx].read().unwrap_or_else(|e| e.into_inner());
                    self.disk.write_page(id, &frame)
                };
                if let Err(e) = result {
                    self.dirty[idx].store(true, Ordering::Release);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Write every dirty frame back to disk and sync the file. Failure
    /// poisons the pool ([`BufferPool::is_poisoned`]); a later successful
    /// flush clears the poison, since dirty bits survive failed writes.
    pub fn flush_all(&self) -> StoreResult<()> {
        let result = self.write_back_all().and_then(|()| self.disk.sync());
        self.poisoned.store(result.is_err(), Ordering::SeqCst);
        result
    }

    /// Did the last flush attempt fail (dirty pages may not be on disk)?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Flush-and-close: the explicit, fallible form of the drop hook.
    /// After a successful close the drop hook does nothing; a failed
    /// close leaves the pool poisoned and reports the error instead of
    /// swallowing it the way `Drop` must.
    pub fn close(&self) -> StoreResult<()> {
        let result = self.flush_all();
        if result.is_ok() {
            self.closed.store(true, Ordering::SeqCst);
        }
        result
    }

    /// Replace page `id` wholesale, writing through to disk and keeping
    /// any resident frame coherent. Recovery uses this to re-materialize
    /// pages from WAL full-page images — the target may be torn (so it
    /// cannot be fetched) or one past the end of the file (extend).
    pub fn overwrite(&self, id: PageId, page: Page) -> StoreResult<()> {
        let state = self.lock_state();
        if let Some(&idx) = state.table.get(&id) {
            let mut frame = self.frames[idx].write().unwrap_or_else(|e| e.into_inner());
            *frame = page.clone();
        }
        // Hold the map-guard across the write so a concurrent fetch of a
        // non-resident `id` cannot read the file mid-overwrite.
        self.disk.write_page(id, &page)
    }

    /// Drop any resident frames for pages `>= first` (after the disk file
    /// was truncated to `first` pages). The caller must ensure they are
    /// unpinned — recovery is single-threaded.
    pub fn discard_from(&self, first: PageId) {
        let mut state = self.lock_state();
        let stale: Vec<(PageId, usize)> = state
            .table
            .iter()
            .filter(|(id, _)| **id >= first)
            .map(|(id, idx)| (*id, *idx))
            .collect();
        for (id, idx) in stale {
            debug_assert_eq!(self.pins[idx].load(Ordering::Acquire), 0);
            state.table.remove(&id);
            state.meta[idx] = FrameMeta::default();
            // A stale dirty bit would write a truncated page back.
            self.dirty[idx].store(false, Ordering::Release);
        }
    }
}

impl Drop for BufferPool {
    /// Best-effort dirty-page write-back on drop. An explicit
    /// [`BufferPool::close`] beforehand makes this a no-op; without one,
    /// a failure here cannot be returned, so it is reported on stderr
    /// and the pool left poisoned rather than silently swallowed.
    fn drop(&mut self) {
        if self.closed.load(Ordering::SeqCst) {
            return;
        }
        if let Err(e) = self.flush_all() {
            eprintln!(
                "temporal-store: buffer pool drop could not flush {}: {e} \
                 (use close() to handle this error)",
                self.disk.path().display()
            );
        }
    }
}

/// A pinned page. Dropping the guard unpins the frame; `write()` access
/// marks the page dirty so the pool writes it back before reuse.
pub struct PageGuard<'a> {
    pool: &'a BufferPool,
    idx: usize,
    frame: Arc<RwLock<Page>>,
}

impl PageGuard<'_> {
    /// Shared read access to the pinned page.
    pub fn read(&self) -> RwLockReadGuard<'_, Page> {
        self.frame.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Exclusive write access. The page is marked dirty when the returned
    /// guard is *released* (while the frame latch is still held), so a
    /// concurrent flush can never clear the dirty bit between the mark
    /// and the mutation — see the pool's swap-then-write protocol.
    pub fn write(&self) -> PageWriteGuard<'_> {
        PageWriteGuard {
            dirty: &self.pool.dirty[self.idx],
            guard: self.frame.write().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

/// Exclusive latched access to a pinned page. Dropping the guard sets the
/// frame's dirty bit *before* the latch is released, which is the ordering
/// the flush protocol relies on (a flusher blocked on the latch always
/// observes the bit the mutation set).
pub struct PageWriteGuard<'a> {
    dirty: &'a AtomicBool,
    guard: RwLockWriteGuard<'a, Page>,
}

impl std::ops::Deref for PageWriteGuard<'_> {
    type Target = Page;

    fn deref(&self) -> &Page {
        &self.guard
    }
}

impl std::ops::DerefMut for PageWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Page {
        &mut self.guard
    }
}

impl Drop for PageWriteGuard<'_> {
    fn drop(&mut self) {
        // Fields drop after this body, so the latch in `guard` is still
        // held when the dirty bit lands.
        self.dirty.store(true, Ordering::Release);
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn pool(name: &str, pages: u32, capacity: usize) -> (BufferPool, PathBuf) {
        counting_pool(name, pages, capacity, &PoolCounters::default())
    }

    /// A pool over `pages` fresh pages, counting into `counters` (the
    /// page writes that set the file up are counted too).
    fn counting_pool(
        name: &str,
        pages: u32,
        capacity: usize,
        counters: &PoolCounters,
    ) -> (BufferPool, PathBuf) {
        let dir = std::env::temp_dir().join("talign_store_buffer_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let disk = DiskManager::open(&path, counters).unwrap();
        for i in 0..pages {
            let mut p = Page::init(0);
            p.insert(format!("page-{i}").as_bytes()).unwrap();
            disk.allocate_page(&p).unwrap();
        }
        (BufferPool::new(disk, capacity, counters), path)
    }

    #[test]
    fn hit_does_not_reread_from_disk() {
        let (pool, path) = pool("hits.heap", 2, 2);
        {
            let g = pool.fetch(0).unwrap();
            assert_eq!(g.read().record(0).unwrap(), b"page-0");
        }
        assert_eq!(pool.io_reads.get(), 1);
        let _ = pool.fetch(0).unwrap();
        assert_eq!(pool.io_reads.get(), 1, "second fetch must hit the cache");
        assert_eq!(pool.fetches.get(), 2);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn clock_evicts_in_order_once_unreferenced() {
        let (pool, path) = pool("clock.heap", 4, 3);
        for i in 0..3 {
            pool.fetch(i).unwrap();
        }
        assert_eq!(pool.cached_pages(), vec![0, 1, 2]);
        // All reference bits set: the hand clears 0,1,2 then takes frame 0.
        pool.fetch(3).unwrap();
        assert_eq!(pool.cached_pages(), vec![1, 2, 3]);
        // Next victim continues from the hand: frame 1 (page 1).
        pool.fetch(0).unwrap();
        assert_eq!(pool.cached_pages(), vec![0, 2, 3]);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let (pool, path) = pool("pins.heap", 3, 2);
        let g0 = pool.fetch(0).unwrap();
        let _g1 = pool.fetch(1).unwrap();
        // Both frames pinned: fetching a third page must fail…
        assert!(matches!(pool.fetch(2), Err(StoreError::Capacity(_))));
        // …until a pin is released.
        drop(g0);
        pool.fetch(2).unwrap();
        let mut cached = pool.cached_pages();
        cached.sort_unstable();
        assert_eq!(cached, vec![1, 2]);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn dirty_pages_written_back_on_eviction_and_flush() {
        let (pool, path) = pool("dirty.heap", 2, 1);
        {
            let g = pool.fetch(0).unwrap();
            g.write().insert(b"extra").unwrap();
        }
        // Evict page 0 by fetching page 1 through the single frame.
        pool.fetch(1).unwrap();
        // Bypass the pool: the write-back must be on disk.
        let mut raw = Page::zeroed();
        pool.disk().read_page(0, &mut raw).unwrap();
        assert_eq!(raw.record(1).unwrap(), b"extra");

        // And flush_all covers the not-yet-evicted case.
        {
            let g = pool.fetch(1).unwrap();
            g.write().insert(b"more").unwrap();
        }
        pool.flush_all().unwrap();
        pool.disk().read_page(1, &mut raw).unwrap();
        assert_eq!(raw.record(1).unwrap(), b"more");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn drop_flushes_dirty_pages() {
        let (pool, path) = pool("dropflush.heap", 1, 1);
        {
            let g = pool.fetch(0).unwrap();
            g.write().insert(b"persisted-on-drop").unwrap();
        }
        drop(pool);
        let disk = DiskManager::open(&path, &PoolCounters::default()).unwrap();
        let mut raw = Page::zeroed();
        disk.read_page(0, &mut raw).unwrap();
        assert_eq!(raw.record(1).unwrap(), b"persisted-on-drop");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn concurrent_fetches_stream_correct_pages() {
        // 8 workers hammer a 3-frame pool over 12 pages (hits, misses,
        // evictions and same-page races all occur); every fetch must
        // observe the right contents, and pins must drain back to zero.
        let (pool, path) = pool("concurrent.heap", 12, 3);
        std::thread::scope(|scope| {
            for w in 0..8u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let id = ((i * 7 + w * 5) % 12) as PageId;
                        let g = pool.fetch(id).unwrap();
                        assert_eq!(
                            g.read().record(0).unwrap(),
                            format!("page-{id}").as_bytes(),
                            "worker {w} iteration {i}"
                        );
                    }
                });
            }
        });
        for (idx, pin) in pool.pins.iter().enumerate() {
            assert_eq!(pin.load(Ordering::Acquire), 0, "frame {idx} still pinned");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn concurrent_writes_survive_eviction_pressure() {
        // Writers dirty distinct pages through a pool with heavy eviction;
        // after a flush, the heap file must hold every write.
        let (pool, path) = pool("concwrite.heap", 8, 2);
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..3u64 {
                        for p in 0..2u64 {
                            let id = (w * 2 + p) as PageId;
                            let g = pool.fetch(id).unwrap();
                            g.write()
                                .insert(format!("w{w}-r{round}-p{p}").as_bytes())
                                .unwrap();
                        }
                    }
                });
            }
        });
        pool.flush_all().unwrap();
        let mut raw = Page::zeroed();
        for w in 0..4u64 {
            for p in 0..2u64 {
                let id = (w * 2 + p) as PageId;
                pool.disk().read_page(id, &mut raw).unwrap();
                // Record 0 is the seed; records 1..=3 are the three rounds.
                assert_eq!(
                    raw.record(3).unwrap(),
                    format!("w{w}-r2-p{p}").as_bytes(),
                    "page {id}"
                );
            }
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn close_flushes_and_disarms_the_drop_hook() {
        let counters = PoolCounters::default();
        let (pool, path) = counting_pool("close.heap", 1, 1, &counters);
        {
            let g = pool.fetch(0).unwrap();
            g.write().insert(b"closed-cleanly").unwrap();
        }
        let (writes_before, syncs_before) = (counters.io_writes.get(), counters.io_syncs.get());
        pool.close().unwrap();
        assert!(!pool.is_poisoned());
        assert_eq!(
            counters.io_writes.get(),
            writes_before + 1,
            "one dirty write-back"
        );
        assert_eq!(counters.io_syncs.get(), syncs_before + 1);
        drop(pool);
        let disk = DiskManager::open(&path, &counters).unwrap();
        let mut raw = Page::zeroed();
        disk.read_page(0, &mut raw).unwrap();
        assert_eq!(raw.record(1).unwrap(), b"closed-cleanly");
        drop(disk);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn overwrite_extends_and_stays_cache_coherent() {
        let (pool, path) = pool("overwrite.heap", 2, 2);
        // Make page 0 resident, then overwrite it: both the cached frame
        // and the disk copy must show the replacement.
        {
            let g = pool.fetch(0).unwrap();
            assert_eq!(g.read().record(0).unwrap(), b"page-0");
        }
        let mut repl = Page::init(0);
        repl.insert(b"replaced").unwrap();
        pool.overwrite(0, repl).unwrap();
        {
            let g = pool.fetch(0).unwrap();
            assert_eq!(g.read().record(0).unwrap(), b"replaced");
        }
        let mut raw = Page::zeroed();
        pool.disk().read_page(0, &mut raw).unwrap();
        assert_eq!(raw.record(0).unwrap(), b"replaced");
        // Overwriting one past the end extends the file.
        let mut fresh = Page::init(0);
        fresh.insert(b"appended").unwrap();
        pool.overwrite(2, fresh).unwrap();
        assert_eq!(pool.disk().page_count(), 3);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn discard_from_forgets_truncated_pages() {
        let (pool, path) = pool("discard.heap", 3, 3);
        for i in 0..3 {
            pool.fetch(i).unwrap();
        }
        pool.disk().truncate_pages(1).unwrap();
        pool.discard_from(1);
        assert_eq!(pool.cached_pages(), vec![0]);
        assert!(pool.fetch(2).is_err());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn pool_smaller_than_file_streams_every_page() {
        let (pool, path) = pool("stream.heap", 8, 2);
        for i in 0..8 {
            let g = pool.fetch(i).unwrap();
            assert_eq!(
                g.read().record(0).unwrap(),
                format!("page-{i}").as_bytes(),
                "page {i}"
            );
        }
        assert_eq!(pool.io_reads.get(), 8);
        assert_eq!(pool.evictions.get(), 6);
        assert_eq!(pool.cached_pages().len(), 2);
        std::fs::remove_file(path).unwrap();
    }
}
