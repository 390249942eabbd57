//! The disk manager: page-granular file I/O for one heap file.
//!
//! Every heap page gets its CRC on the way to disk and is verified on the
//! way back, so a torn or bit-rotted page surfaces as a
//! [`StoreError::Corrupt`] at read time instead of decoding to garbage.
//! A block without the heap-page magic (another format version) has no CRC
//! field and passes through to [`crate::page::Page::validate`], which
//! names its version. Writes and syncs count into the database's
//! `pool.io_writes` / `pool.io_syncs` and pass through the [`crate::failpoints`] sites
//! the crash-matrix tests arm.
//!
//! Reads are positional (`pread`) and take no lock: any number of
//! readers run in parallel with each other and with a writer, and the
//! checksum is verified on the caller's buffer afterwards. What keeps a
//! page from being read while it is written is not this module but the
//! buffer pool in front of it — a page is written back only while it is
//! resident and mapped, under the pool's map-guard, and read only when it
//! is not (see `BufferPool`). Writers still exclude each other, because
//! extending the file and publishing the new page count must be one step.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::buffer::PoolCounters;
use crate::error::{StoreError, StoreResult};
use crate::failpoints::{self, Action};
use crate::metrics::Counter;
use crate::page::{Page, PageId, PAGE_SIZE};

/// Reads and writes whole pages of a single heap file. Thread-safe:
/// reads are lock-free positional reads below the atomic page count;
/// writes, allocations and truncations serialize on `write_lock`.
#[derive(Debug)]
pub struct DiskManager {
    path: PathBuf,
    file: File,
    /// Pages in the file. Stored (`Release`) only after the write that
    /// extends the file has completed, so a reader that observes
    /// (`Acquire`) a count finds every page below it on disk.
    pages: AtomicU32,
    write_lock: Mutex<()>,
    io_writes: Arc<Counter>,
    io_syncs: Arc<Counter>,
}

fn page_offset(id: PageId) -> u64 {
    id as u64 * PAGE_SIZE as u64
}

impl DiskManager {
    /// Open (or create) the heap file at `path`. A file length that is
    /// not a multiple of the page size is rejected as corrupt — recovery
    /// uses [`DiskManager::open_trimming`] to repair such torn tails.
    /// Page writes and syncs count into `counters`.
    pub fn open(path: impl AsRef<Path>, counters: &PoolCounters) -> StoreResult<DiskManager> {
        let (dm, trimmed) = Self::open_inner(path.as_ref(), false, counters)?;
        debug_assert!(!trimmed);
        Ok(dm)
    }

    /// Open the heap file, rounding a torn (non-page-multiple) length
    /// *down* to whole pages. Only recovery does this: the discarded
    /// partial page is re-materialized from the WAL's full-page image.
    /// Returns whether anything was trimmed.
    pub fn open_trimming(
        path: impl AsRef<Path>,
        counters: &PoolCounters,
    ) -> StoreResult<(DiskManager, bool)> {
        Self::open_inner(path.as_ref(), true, counters)
    }

    fn open_inner(
        path: &Path,
        trim: bool,
        counters: &PoolCounters,
    ) -> StoreResult<(DiskManager, bool)> {
        let path = path.to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let len = file.metadata()?.len();
        let mut trimmed = false;
        if len % PAGE_SIZE as u64 != 0 {
            if !trim {
                return Err(StoreError::Corrupt(format!(
                    "heap file {} has length {len}, not a multiple of the page size {PAGE_SIZE}",
                    path.display()
                )));
            }
            let whole = len - len % PAGE_SIZE as u64;
            eprintln!(
                "temporal-store: trimming torn tail of {} ({len} → {whole} bytes)",
                path.display()
            );
            file.set_len(whole)?;
            trimmed = true;
        }
        let len = file.metadata()?.len();
        let pages = (len / PAGE_SIZE as u64) as u32;
        Ok((
            DiskManager {
                path,
                file,
                pages: AtomicU32::new(pages),
                write_lock: Mutex::new(()),
                io_writes: Arc::clone(&counters.io_writes),
                io_syncs: Arc::clone(&counters.io_syncs),
            },
            trimmed,
        ))
    }

    /// The heap file path (for manifest bookkeeping and error messages).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of pages currently in the file.
    pub fn page_count(&self) -> u32 {
        self.pages.load(Ordering::Acquire)
    }

    fn writer(&self) -> MutexGuard<'_, ()> {
        self.write_lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Read page `id` into `page`, verifying the CRC of a heap page. No
    /// lock is held, neither across the read nor across the checksum.
    pub fn read_page(&self, id: PageId, page: &mut Page) -> StoreResult<()> {
        let pages = self.page_count();
        if id >= pages {
            return Err(StoreError::Corrupt(format!(
                "page {id} out of bounds ({pages} pages in {})",
                self.path.display()
            )));
        }
        self.file
            .read_exact_at(page.as_bytes_mut(), page_offset(id))?;
        if !page.crc_ok() {
            return Err(StoreError::Corrupt(format!(
                "page {id} of {} fails its checksum (torn write or bit rot)",
                self.path.display()
            )));
        }
        Ok(())
    }

    /// Write the page's on-disk image (CRC filled in, on a stack copy —
    /// the caller's in-memory page is untouched), honoring any armed
    /// failpoint. The caller holds the write lock.
    fn write_block(&self, id: PageId, page: &Page) -> StoreResult<()> {
        if failpoints::power_cut() {
            return Err(crate::failpoints::power_cut_error());
        }
        let mut block = page.disk_image();
        let offset = page_offset(id);
        match failpoints::hit("disk::write_page") {
            Some(Action::Crash) => {
                #[cfg(feature = "failpoints")]
                failpoints::trip_power_cut();
                return Err(crate::failpoints::power_cut_error());
            }
            Some(Action::Torn { keep }) => {
                let keep = keep.min(PAGE_SIZE);
                self.file.write_all_at(&block[..keep], offset)?;
                #[cfg(feature = "failpoints")]
                failpoints::trip_power_cut();
                return Err(crate::failpoints::power_cut_error());
            }
            Some(Action::FlipBit { offset }) => {
                block[offset % PAGE_SIZE] ^= 1;
            }
            None => {}
        }
        self.file.write_all_at(&block, offset)?;
        self.io_writes.inc();
        Ok(())
    }

    /// Write `page` at page number `id` (must be `<=` the current count;
    /// writing at the count extends the file by one page).
    pub fn write_page(&self, id: PageId, page: &Page) -> StoreResult<()> {
        let _writer = self.writer();
        let pages = self.page_count();
        if id > pages {
            return Err(StoreError::Corrupt(format!(
                "write would leave a hole: page {id}, file has {pages} pages"
            )));
        }
        self.write_block(id, page)?;
        if id == pages {
            self.pages.store(pages + 1, Ordering::Release);
        }
        Ok(())
    }

    /// Append a fresh page, returning its id.
    pub fn allocate_page(&self, page: &Page) -> StoreResult<PageId> {
        let _writer = self.writer();
        let id = self.page_count();
        self.write_block(id, page)?;
        self.pages.store(id + 1, Ordering::Release);
        Ok(id)
    }

    /// Truncate the file to `pages` whole pages. Recovery uses this to
    /// drop a trailing page that is corrupt and covered by no WAL record
    /// (such a page can only hold unacknowledged in-flight appends).
    pub fn truncate_pages(&self, pages: u32) -> StoreResult<()> {
        let _writer = self.writer();
        let current = self.page_count();
        if pages > current {
            return Err(StoreError::Corrupt(format!(
                "cannot truncate {} to {pages} pages: it has {current}",
                self.path.display()
            )));
        }
        self.pages.store(pages, Ordering::Release);
        self.file.set_len(page_offset(pages))?;
        Ok(())
    }

    /// Flush file buffers to the OS (durability point).
    pub fn sync(&self) -> StoreResult<()> {
        if failpoints::power_cut() {
            return Err(crate::failpoints::power_cut_error());
        }
        if let Some(Action::Crash | Action::Torn { .. }) = failpoints::hit("disk::sync") {
            #[cfg(feature = "failpoints")]
            failpoints::trip_power_cut();
            return Err(crate::failpoints::power_cut_error());
        }
        self.file.sync_all()?;
        self.io_syncs.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("talign_store_disk_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn allocate_write_read_roundtrip() {
        let path = tmpfile("roundtrip.heap");
        let _ = std::fs::remove_file(&path);
        let counters = PoolCounters::default();
        let dm = DiskManager::open(&path, &counters).unwrap();
        assert_eq!(dm.page_count(), 0);
        let mut p = Page::init(9);
        p.insert(b"payload").unwrap();
        let id = dm.allocate_page(&p).unwrap();
        assert_eq!(id, 0);
        assert_eq!(dm.page_count(), 1);
        assert_eq!(counters.io_writes.get(), 1);

        let mut back = Page::zeroed();
        dm.read_page(0, &mut back).unwrap();
        back.validate(9).unwrap();
        assert_eq!(back.record(0).unwrap(), b"payload");
        // The on-disk copy was CRC-stamped by the write.
        assert!(back.crc_ok());

        // Reopen sees the same page count.
        drop(dm);
        let dm = DiskManager::open(&path, &PoolCounters::default()).unwrap();
        assert_eq!(dm.page_count(), 1);
        assert!(dm.read_page(1, &mut back).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_torn_files_and_holes() {
        let path = tmpfile("torn.heap");
        std::fs::write(&path, vec![0u8; PAGE_SIZE + 1]).unwrap();
        assert!(DiskManager::open(&path, &PoolCounters::default()).is_err());
        // The trimming open rounds the length down instead.
        let (dm, trimmed) = DiskManager::open_trimming(&path, &PoolCounters::default()).unwrap();
        assert!(trimmed);
        assert_eq!(dm.page_count(), 1);
        drop(dm);
        std::fs::remove_file(&path).unwrap();

        let path = tmpfile("holes.heap");
        let _ = std::fs::remove_file(&path);
        let dm = DiskManager::open(&path, &PoolCounters::default()).unwrap();
        assert!(dm.write_page(3, &Page::init(0)).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_page_fails_its_checksum_on_read() {
        let path = tmpfile("bitrot.heap");
        let _ = std::fs::remove_file(&path);
        let dm = DiskManager::open(&path, &PoolCounters::default()).unwrap();
        let mut p = Page::init(1);
        p.insert(b"precious").unwrap();
        dm.allocate_page(&p).unwrap();
        drop(dm);
        // Flip one bit in the record area.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[PAGE_SIZE - 3] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let dm = DiskManager::open(&path, &PoolCounters::default()).unwrap();
        let mut back = Page::zeroed();
        let err = dm.read_page(0, &mut back).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err}");
        assert!(err.to_string().contains("checksum"));
        drop(dm);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_pages_drops_the_tail() {
        let path = tmpfile("trunc.heap");
        let _ = std::fs::remove_file(&path);
        let dm = DiskManager::open(&path, &PoolCounters::default()).unwrap();
        dm.allocate_page(&Page::init(0)).unwrap();
        dm.allocate_page(&Page::init(0)).unwrap();
        assert_eq!(dm.page_count(), 2);
        dm.truncate_pages(1).unwrap();
        assert_eq!(dm.page_count(), 1);
        assert!(dm.truncate_pages(5).is_err());
        let mut back = Page::zeroed();
        assert!(dm.read_page(1, &mut back).is_err());
        dm.read_page(0, &mut back).unwrap();
        drop(dm);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_is_counted() {
        let path = tmpfile("sync.heap");
        let _ = std::fs::remove_file(&path);
        let counters = PoolCounters::default();
        let dm = DiskManager::open(&path, &counters).unwrap();
        assert_eq!(counters.io_syncs.get(), 0);
        dm.sync().unwrap();
        dm.sync().unwrap();
        assert_eq!(counters.io_syncs.get(), 2);
        drop(dm);
        std::fs::remove_file(&path).unwrap();
    }
}
