//! ARIES-style redo-only crash recovery for a database directory.
//!
//! On open, the WAL (`wal.log`) is scanned from its last checkpoint and
//! every surviving record is replayed against the heap files it touched.
//! Replay is **idempotent**: each page carries the LSN of the last record
//! applied to it, so a record whose LSN is not newer than the page's is
//! skipped. Torn data pages are re-materialized from full-page images (the
//! WAL images every page the first time it is touched in a checkpoint
//! epoch, before logging logical appends against it), and a torn WAL tail
//! is truncated with a warning — recovery always reopens to the longest
//! consistent prefix of the committed history, never refuses. The one
//! directory it refuses is one whose log carries another format version
//! (`Wal::open`), and it does so before reading or writing anything else.
//!
//! The interval index — with the zone maps and key filters that prune
//! pages — lives in memory only, so recovery has nothing to do for it: a
//! recovered table builds its index from a heap scan on first use, like
//! any opened table.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use temporal_store::{
    Manifest, MetricsRegistry, PoolCounters, TableHeap, TableMeta, Wal, WalRecord,
};

use crate::error::{EngineError, EngineResult};
use crate::storage;

/// What one recovery pass did — surfaced so callers (and tests) can tell
/// a clean open from an actual replay.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// WAL records whose effects were (re)applied.
    pub replayed: u64,
    /// WAL records skipped as already applied or referring to a table
    /// incarnation that no longer exists.
    pub skipped: u64,
    /// Whether a torn or corrupt WAL tail was truncated away.
    pub wal_tail_truncated: bool,
    /// Torn heap pages dropped because no durable record covered them.
    pub pages_trimmed: u32,
    /// Tables whose heaps were replayed into.
    pub tables_touched: Vec<String>,
}

impl RecoveryReport {
    /// Did this pass change anything on disk?
    pub fn did_work(&self) -> bool {
        self.replayed > 0 || self.pages_trimmed > 0 || self.wal_tail_truncated
    }
}

/// A heap opened for replay, with the manifest entry it was opened under.
struct RecoveringTable {
    heap: TableHeap,
    fingerprint: u64,
    /// The manifest's schema string, carried over as it is.
    schema: String,
    file: String,
}

/// Open (or create) the WAL of `dir`, replay its surviving records over
/// the directory's heap files, settle every touched table (trim torn
/// tails, recount rows) and re-save the manifest. Returns the post-recovery manifest, the live WAL handle and
/// a report of what happened. The log and the replayed heaps count into
/// the `wal.*` and `pool.*` counters of `metrics`.
///
/// Also verifies — after replay, which may legitimately remove entries —
/// that every file the manifest references exists, so a half-copied
/// database directory fails fast with a clear error instead of a
/// confusing mid-query one.
pub fn recover(
    dir: &Path,
    pool_pages: usize,
    metrics: &MetricsRegistry,
) -> EngineResult<(Manifest, Arc<Wal>, RecoveryReport)> {
    // The log first: it is where the format version is checked, so a
    // directory of another version is refused before anything else in it
    // is read.
    let (wal, scan) = Wal::open(dir, metrics).map_err(EngineError::from)?;
    let counters = PoolCounters::new(metrics);
    let mut manifest = Manifest::load(dir).map_err(EngineError::from)?;
    let mut report = RecoveryReport {
        wal_tail_truncated: scan.tail_truncated,
        ..RecoveryReport::default()
    };
    let mut manifest_dirty = false;
    let mut open: BTreeMap<String, RecoveringTable> = BTreeMap::new();

    for (lsn, rec) in &scan.records {
        match rec {
            WalRecord::TableUpsert {
                name,
                file,
                fingerprint,
                rows,
                schema,
            } => {
                // The create/replace logs *after* its files are renamed
                // into place, so a missing heap means the operation never
                // completed — skip, leaving any previous entry intact.
                if dir.join(file).is_file() {
                    manifest.insert(
                        name.clone(),
                        TableMeta {
                            file: file.clone(),
                            fingerprint: *fingerprint,
                            rows: *rows,
                            schema: schema.clone(),
                        },
                    );
                    // Later heap records must target the new incarnation.
                    open.remove(name);
                    manifest_dirty = true;
                    report.replayed += 1;
                } else {
                    report.skipped += 1;
                }
            }
            WalRecord::TableDrop { name } => {
                if manifest.remove(name).is_some() {
                    manifest_dirty = true;
                    report.replayed += 1;
                } else {
                    report.skipped += 1;
                }
                open.remove(name);
                let _ = std::fs::remove_file(storage::heap_path(dir, name));
            }
            WalRecord::HeapAppend {
                table,
                fingerprint,
                page,
                record,
            } => match recovering(
                &mut open,
                &manifest,
                dir,
                table,
                *fingerprint,
                pool_pages,
                &counters,
            )? {
                Some(t) => {
                    if t.heap.redo_append(*page, record, *lsn)? {
                        report.replayed += 1;
                    } else {
                        report.skipped += 1;
                    }
                }
                None => report.skipped += 1,
            },
            WalRecord::HeapPageImage {
                table,
                fingerprint,
                page,
                image,
            } => match recovering(
                &mut open,
                &manifest,
                dir,
                table,
                *fingerprint,
                pool_pages,
                &counters,
            )? {
                Some(t) => {
                    if t.heap.redo_page_image(*page, image, *lsn)? {
                        report.replayed += 1;
                    } else {
                        report.skipped += 1;
                    }
                }
                None => report.skipped += 1,
            },
            // Checkpoints reset the scan inside `Wal::open`; one can only
            // surface here if that ever changes — nothing to replay.
            WalRecord::Checkpoint => report.skipped += 1,
        }
    }

    // Settle every heap the replay touched: drop torn tails the log did
    // not cover and recount rows from the (validated) pages; `close`
    // below flushes and syncs each once.
    for (name, t) in &open {
        report.pages_trimmed += t.heap.trim_corrupt_tail()?;
        let rows = t.heap.recount_rows()?;
        manifest.insert(
            name.clone(),
            TableMeta {
                file: t.file.clone(),
                fingerprint: t.fingerprint,
                rows,
                schema: t.schema.clone(),
            },
        );
        manifest_dirty = true;
        report.tables_touched.push(name.clone());
    }
    for (_, t) in open {
        t.heap.close()?;
    }
    if manifest_dirty {
        manifest.save(dir).map_err(EngineError::from)?;
    }
    manifest.verify_files(dir).map_err(EngineError::from)?;
    Ok((manifest, Arc::new(wal), report))
}

/// The lazily-opened heap a WAL record targets, or `None` when the record
/// is stale: the table is gone from the manifest, its fingerprint changed
/// (the table was replaced), or its heap file vanished.
fn recovering<'a>(
    open: &'a mut BTreeMap<String, RecoveringTable>,
    manifest: &Manifest,
    dir: &Path,
    table: &str,
    fingerprint: u64,
    pool_pages: usize,
    counters: &PoolCounters,
) -> EngineResult<Option<&'a RecoveringTable>> {
    if let Some(t) = open.get(table) {
        // NLL limitation: re-borrow immutably below instead of returning
        // this borrow directly.
        if t.fingerprint != fingerprint {
            return Ok(None);
        }
        return Ok(open.get(table));
    }
    let Some(meta) = manifest.get(table) else {
        return Ok(None);
    };
    if meta.fingerprint != fingerprint {
        return Ok(None);
    }
    let path = dir.join(&meta.file);
    if !path.is_file() {
        return Ok(None);
    }
    let (heap, trimmed) = TableHeap::open_for_recovery(&path, fingerprint, pool_pages, counters)?;
    if trimmed {
        eprintln!(
            "temporal-engine: trimmed a partial trailing page of {} during recovery",
            path.display()
        );
    }
    open.insert(
        table.to_string(),
        RecoveringTable {
            heap,
            fingerprint,
            schema: meta.schema.clone(),
            file: meta.file.clone(),
        },
    );
    Ok(open.get(table))
}
