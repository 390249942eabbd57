//! # temporal-store
//!
//! Paged on-disk storage for the temporal-alignment workspace: the layer
//! that lets a [`temporal relation`] outlive the process and outgrow RAM.
//!
//! The crate is deliberately **byte-oriented** — it knows nothing about
//! rows, values or schemas. It provides:
//!
//! * [`page::Page`] — fixed-size slotted pages (header with schema
//!   fingerprint, tuple count and free-space pointer; slot array; records
//!   growing downward), whose in-memory form *is* the on-disk form;
//! * [`disk::DiskManager`] — page-granular file I/O for one heap file;
//! * [`buffer::BufferPool`] — a fixed set of frames with pin/unpin
//!   accounting, clock (second-chance) eviction and dirty-page
//!   write-back, so scans over files larger than the pool stream;
//! * [`heap::TableHeap`] — an append-only heap file behind a pool, the
//!   physical shape of one table;
//! * [`index::IntervalIndex`] — what prunes a temporal table's pages and
//!   their slots, in memory only: its interval entries (each with the
//!   slots of the records it summarizes) and, per heap page, a zone map
//!   (min/max of `ts`, `te` and the key) and — for a table with a key
//!   column — a key filter, checked against a scan's [`ZoneBounds`] under
//!   one read lock;
//! * [`manifest::Manifest`] — the `manifest.tsv` catalog-metadata file of
//!   a database directory (table name → heap file, schema fingerprint,
//!   opaque schema string);
//! * [`wal::Wal`] — the write-ahead log (`wal.log`) of one database
//!   directory: CRC-framed, LSN-stamped records with a [`wal::SyncMode`]
//!   policy and sharp checkpoints, the substrate for the engine's
//!   redo-only crash recovery;
//! * [`metrics`] — the registry of named counters, gauges and latency
//!   histograms the pools and the log count into (`pool.*`, `wal.*`),
//!   and the layers above add their own instruments to;
//! * [`failpoints`] — named fault-injection sites (crash / torn write /
//!   bit flip) on every write path, active only under the `failpoints`
//!   cargo feature, driving the crash-matrix recovery suite.
//!
//! The tuple encoding (rows ↔ records, schemas ↔ fingerprints) lives one
//! layer up in `temporal-engine`'s storage glue, which also provides the
//! `StorageScanExec` executor node decoding pages straight into row
//! batches.
//!
//! [`temporal relation`]: https://doi.org/10.1145/2213836.2213886
//!
//! ```
//! use temporal_store::heap::TableHeap;
//! use temporal_store::PoolCounters;
//!
//! let path = std::env::temp_dir().join("talign_store_doc.heap");
//! let counters = PoolCounters::default();
//! let heap = TableHeap::create(&path, 0xabc, 4, &counters).unwrap();
//! heap.append(b"first").unwrap();
//! heap.append(b"second").unwrap();
//! heap.flush().unwrap();
//!
//! let reopened = TableHeap::open(&path, 0xabc, 4, &counters).unwrap();
//! assert_eq!(reopened.row_count(), 2);
//! reopened
//!     .with_page(0, |page| {
//!         assert_eq!(page.record(0).unwrap(), b"first");
//!         Ok(())
//!     })
//!     .unwrap();
//! assert_eq!(counters.io_reads.get(), 1);
//! std::fs::remove_file(&path).unwrap();
//! ```

pub mod buffer;
pub mod crc32c;
pub mod disk;
pub mod error;
pub mod failpoints;
pub mod heap;
pub mod index;
pub mod manifest;
pub mod metrics;
pub mod page;
pub mod wal;

/// The on-disk format version of a database directory. The WAL header
/// carries it, the manifest's first line names it and the heap-page magic
/// ends in it (`"TPG4"`). [`wal::Wal::open`] refuses a log of another
/// version before reading a record of it; nothing in such a directory is
/// read past or rewritten.
pub const FORMAT_VERSION: u32 = 4;

pub use buffer::{BufferPool, PageGuard, PageWriteGuard, PoolCounters, DEFAULT_POOL_PAGES};
pub use disk::DiskManager;
pub use error::{StoreError, StoreResult};
pub use heap::{AppendBatch, HeapSnapshot, TableHeap};
pub use index::{IndexEntry, IndexRows, IntervalIndex, SlotRange, ZoneBounds, ALL_SLOTS};
pub use manifest::{Manifest, TableMeta, MANIFEST_FILE};
pub use metrics::MetricsRegistry;
pub use page::{Page, PageId, SlotId, MAX_RECORD_SIZE, PAGE_SIZE};
pub use wal::{SyncMode, Wal, WalRecord, WalScan, WAL_FILE};
