//! Tuple-level glue over the byte-oriented `temporal-store` pager: the
//! row/schema codec and [`StoredTable`], the heap-file backing of a
//! catalog table.
//!
//! Layering: `temporal-store` moves opaque records between slotted pages,
//! a buffer pool and disk; this module defines what those records *are*
//! (an encoded [`Row`]) and what the page-header fingerprint protects (the
//! serialized [`Schema`]). The executor side lives in
//! [`crate::exec::StorageScanExec`], which decodes pages straight into
//! [`crate::batch::RowBatch`]es without ever materializing the table.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use temporal_store::{HeapSnapshot, IndexRows, Page, PageId, SlotId, TableHeap};

use crate::batch::{BatchBuilder, ColumnBuilder, ColumnData, RowBatch};
use crate::error::{EngineError, EngineResult};
use crate::hashing::mix_bytes;
use crate::relation::Relation;
use crate::schema::{Column, DataType, Schema};
use crate::tuple::Row;
use crate::value::Value;

/// File extension of heap files inside a database directory.
pub const HEAP_EXT: &str = "heap";

pub use temporal_store::{
    IntervalIndex, Manifest, PoolCounters, SlotRange, SyncMode, TableMeta, Wal, WalRecord,
    ZoneBounds, ALL_SLOTS, DEFAULT_POOL_PAGES as DEFAULT_BUFFER_POOL_PAGES, PAGE_SIZE,
};

/// The `(ts, te)` column positions when `schema` has the temporal shape —
/// at least two columns with the trailing pair both `Int` (the workspace
/// convention for valid-time `[ts, te)` attributes).
pub fn temporal_cols(schema: &Schema) -> Option<(usize, usize)> {
    let n = schema.len();
    let cols = schema.cols();
    if n >= 2 && cols[n - 2].dtype == DataType::Int && cols[n - 1].dtype == DataType::Int {
        Some((n - 2, n - 1))
    } else {
        None
    }
}

/// The key column of the pruning summaries: the first column, when it is
/// `Int` and not itself one of the temporal columns.
fn zone_key_col(schema: &Schema) -> Option<usize> {
    let (ts, _) = temporal_cols(schema)?;
    (ts > 0 && schema.cols()[0].dtype == DataType::Int).then_some(0)
}

// ---- schema codec --------------------------------------------------------

/// Serialize a schema as the manifest's `name:type,…` string (qualifiers
/// are dropped: persisted base tables are unqualified).
pub fn schema_to_string(schema: &Schema) -> String {
    schema
        .cols()
        .iter()
        .map(|c| format!("{}:{}", c.name, c.dtype))
        .collect::<Vec<_>>()
        .join(",")
}

/// Parse a manifest schema string back into a [`Schema`].
pub fn schema_from_string(s: &str) -> EngineResult<Schema> {
    if s.is_empty() {
        return Ok(Schema::empty());
    }
    let mut cols = Vec::new();
    for item in s.split(',') {
        let (name, dtype) = item.split_once(':').ok_or_else(|| {
            EngineError::Storage(format!("bad schema entry {item:?} (expected name:type)"))
        })?;
        let dtype = match dtype {
            "bool" => DataType::Bool,
            "int" => DataType::Int,
            "double" => DataType::Double,
            "str" => DataType::Str,
            other => {
                return Err(EngineError::Storage(format!(
                    "unknown data type {other:?} in schema string"
                )))
            }
        };
        cols.push(Column::new(name, dtype));
    }
    Ok(Schema::new(cols))
}

/// The schema fingerprint stamped into every page header of a table's
/// heap file: an FxHash of the serialized (unqualified) schema, so a heap
/// can never be decoded under the wrong column layout.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    mix_bytes(0, schema_to_string(schema).as_bytes())
}

// ---- row codec -----------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_DOUBLE: u8 = 3;
const TAG_STR: u8 = 4;

/// Append the encoding of row `i` of `batch` to `buf` — the one record
/// encoder: a tag byte per value, fixed-width numerics, length-prefixed
/// strings. Typed columns encode without building a [`Value`].
pub fn encode_record(batch: &RowBatch, i: usize, buf: &mut Vec<u8>) {
    for col in batch.columns() {
        if col.is_null(i) {
            buf.push(TAG_NULL);
            continue;
        }
        match col.data() {
            ColumnData::Int(v) => put_int(buf, v[i]),
            ColumnData::Double(v) => put_double(buf, v[i]),
            ColumnData::Bool(v) => put_bool(buf, v[i]),
            ColumnData::Str(v) => put_str(buf, &v[i]),
            ColumnData::Mixed(v) => match &v[i] {
                Value::Null => buf.push(TAG_NULL),
                Value::Int(x) => put_int(buf, *x),
                Value::Double(x) => put_double(buf, *x),
                Value::Bool(x) => put_bool(buf, *x),
                Value::Str(x) => put_str(buf, x),
            },
        }
    }
}

fn put_int(buf: &mut Vec<u8>, x: i64) {
    buf.push(TAG_INT);
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_double(buf: &mut Vec<u8>, x: f64) {
    buf.push(TAG_DOUBLE);
    buf.extend_from_slice(&x.to_bits().to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, x: bool) {
    buf.push(TAG_BOOL);
    buf.push(u8::from(x));
}

fn put_str(buf: &mut Vec<u8>, x: &str) {
    buf.push(TAG_STR);
    buf.extend_from_slice(&(x.len() as u32).to_le_bytes());
    buf.extend_from_slice(x.as_bytes());
}

/// Decode a record produced by [`encode_record`] back into a row of
/// `arity` values.
pub fn decode_row(rec: &[u8], arity: usize) -> EngineResult<Row> {
    let mut values = Vec::with_capacity(arity);
    decode_record(rec, arity, |_, v| values.push(v))?;
    Ok(Row::new(values))
}

/// Decode a record produced by [`encode_record`] straight into one column
/// builder per value — the scan's decode, which builds no row.
pub fn decode_into(rec: &[u8], out: &mut [ColumnBuilder]) -> EngineResult<()> {
    decode_record(rec, out.len(), |c, v| match v {
        Value::Int(x) => out[c].push_int(x),
        v => out[c].push(v),
    })
}

/// Walk the `arity` values of a record, handing each to `sink` with its
/// column position.
fn decode_record(
    mut rec: &[u8],
    arity: usize,
    mut sink: impl FnMut(usize, Value),
) -> EngineResult<()> {
    fn take<'a>(rec: &mut &'a [u8], n: usize) -> EngineResult<&'a [u8]> {
        if rec.len() < n {
            return Err(EngineError::Storage(
                "record truncated while decoding".into(),
            ));
        }
        let (head, tail) = rec.split_at(n);
        *rec = tail;
        Ok(head)
    }
    for c in 0..arity {
        let tag = take(&mut rec, 1)?[0];
        sink(
            c,
            match tag {
                TAG_NULL => Value::Null,
                TAG_BOOL => Value::Bool(take(&mut rec, 1)?[0] != 0),
                TAG_INT => Value::Int(i64::from_le_bytes(
                    take(&mut rec, 8)?.try_into().expect("8 bytes"),
                )),
                TAG_DOUBLE => Value::Double(f64::from_bits(u64::from_le_bytes(
                    take(&mut rec, 8)?.try_into().expect("8 bytes"),
                ))),
                TAG_STR => {
                    let len = u32::from_le_bytes(take(&mut rec, 4)?.try_into().expect("4 bytes"))
                        as usize;
                    let bytes = take(&mut rec, len)?;
                    let s = std::str::from_utf8(bytes)
                        .map_err(|_| EngineError::Storage("non-UTF8 string in record".into()))?;
                    Value::str(s)
                }
                other => {
                    return Err(EngineError::Storage(format!(
                        "unknown value tag {other} in record"
                    )))
                }
            },
        );
    }
    if !rec.is_empty() {
        return Err(EngineError::Storage(format!(
            "{} trailing bytes after decoding {arity} values",
            rec.len()
        )));
    }
    Ok(())
}

// ---- record-level bounds -------------------------------------------------

/// The [`ZoneBounds`] of a pruned scan, compiled against one table's
/// column layout so they can be tested on an *encoded* record: the scan
/// walks the tag bytes to the bounded columns, compares the integers in
/// place, and decodes a [`Row`] only for records that pass.
///
/// Like the page-level zone check this is a conservative pre-filter, never
/// the predicate itself: a record whose bounded column is not an integer
/// (NULL), or whose bytes do not parse, is kept — the `Filter` above the
/// scan decides about the former and [`decode_row`] reports the latter.
#[derive(Debug, Clone)]
pub struct RecordBounds {
    /// `(column, lo, hi)`: an integer in `column` must lie in `lo..=hi`.
    /// Ascending by column, so one forward walk serves every check.
    checks: Vec<(usize, i64, i64)>,
}

impl RecordBounds {
    /// Could the encoded record satisfy the bounds?
    pub fn may_match(&self, rec: &[u8]) -> bool {
        let (mut off, mut col) = (0usize, 0usize);
        for &(want, lo, hi) in &self.checks {
            while col < want {
                let width = match rec.get(off) {
                    Some(&TAG_NULL) => 1,
                    Some(&TAG_BOOL) => 2,
                    Some(&(TAG_INT | TAG_DOUBLE)) => 9,
                    Some(&TAG_STR) => match rec.get(off + 1..off + 5) {
                        Some(len) => {
                            5 + u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize
                        }
                        None => return true,
                    },
                    _ => return true,
                };
                off += width;
                col += 1;
            }
            if rec.get(off) == Some(&TAG_INT) {
                let Some(bytes) = rec.get(off + 1..off + 9) else {
                    return true;
                };
                let v = i64::from_le_bytes(bytes.try_into().expect("8 bytes"));
                if v < lo || v > hi {
                    return false;
                }
            }
        }
        true
    }
}

// ---- stored tables -------------------------------------------------------

/// A catalog table backed by a heap file: schema + [`TableHeap`]. Appends
/// go through the buffer pool; scans decode one pinned page at a time.
#[derive(Debug)]
pub struct StoredTable {
    name: String,
    schema: Schema,
    path: PathBuf,
    heap: TableHeap,
    /// `(ts, te)` positions when the schema has the temporal shape.
    temporal: Option<(usize, usize)>,
    /// First column, when it participates in the key bounds.
    key_col: Option<usize>,
    /// In-memory interval index over `(ts, te)`, with a zone map and a
    /// key filter per page; `Some` exactly when the table is temporal.
    index: Option<IntervalIndex>,
}

impl StoredTable {
    /// Create a fresh heap file for `name` at `path` (truncating any
    /// previous file), its pool counting into `counters`. Column names
    /// must round-trip through the manifest schema string, so names
    /// containing `,`, `:`, tabs or newlines are rejected here — before
    /// anything is written.
    pub fn create(
        path: impl AsRef<Path>,
        name: impl Into<String>,
        schema: Schema,
        pool_pages: usize,
        counters: &PoolCounters,
    ) -> EngineResult<StoredTable> {
        let schema = schema.without_qualifiers();
        for c in schema.cols() {
            if c.name.contains([',', ':', '\t', '\n']) {
                return Err(EngineError::Storage(format!(
                    "column name {:?} cannot be persisted (',', ':', tabs and newlines \
                     do not round-trip through the manifest schema string)",
                    c.name
                )));
            }
        }
        let path = path.as_ref().to_path_buf();
        let heap = TableHeap::create(&path, schema_fingerprint(&schema), pool_pages, counters)?;
        Ok(StoredTable::assemble(name.into(), schema, path, heap))
    }

    fn assemble(name: String, schema: Schema, path: PathBuf, heap: TableHeap) -> StoredTable {
        let temporal = temporal_cols(&schema);
        let key_col = zone_key_col(&schema);
        StoredTable {
            name,
            schema,
            path,
            heap,
            temporal,
            key_col,
            index: temporal.map(|_| IntervalIndex::default()),
        }
    }

    /// Open an existing heap file, validating every page against the
    /// schema fingerprint.
    pub fn open(
        path: impl AsRef<Path>,
        name: impl Into<String>,
        schema: Schema,
        pool_pages: usize,
        counters: &PoolCounters,
    ) -> EngineResult<StoredTable> {
        let schema = schema.without_qualifiers();
        let path = path.as_ref().to_path_buf();
        let heap = TableHeap::open(&path, schema_fingerprint(&schema), pool_pages, counters)?;
        Ok(StoredTable::assemble(name.into(), schema, path, heap))
    }

    /// Open an existing heap file without the eager whole-file validation
    /// pass, trusting `rows` (from the manifest). The first page and —
    /// lazily — every pinned page are still fingerprint-checked, so the
    /// wrong schema cannot decode the heap; this keeps `Database::open`
    /// proportional to the manifest, not the data.
    pub fn open_with_count(
        path: impl AsRef<Path>,
        name: impl Into<String>,
        schema: Schema,
        pool_pages: usize,
        rows: u64,
        counters: &PoolCounters,
    ) -> EngineResult<StoredTable> {
        let schema = schema.without_qualifiers();
        let path = path.as_ref().to_path_buf();
        let heap = TableHeap::open_with_count(
            &path,
            schema_fingerprint(&schema),
            pool_pages,
            rows,
            counters,
        )?;
        Ok(StoredTable::assemble(name.into(), schema, path, heap))
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema (unqualified).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Heap file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rows across all pages.
    pub fn row_count(&self) -> u64 {
        self.heap.row_count()
    }

    /// Pages in the heap file.
    pub fn page_count(&self) -> u32 {
        self.heap.page_count()
    }

    /// Consistent visibility snapshot of the heap: an immutable prefix
    /// `(pages, tail_tuples)` that concurrent appends never rewrite, so a
    /// reader holding the snapshot scans a stable table prefix without
    /// blocking writers (see [`HeapSnapshot`]).
    pub fn snapshot(&self) -> HeapSnapshot {
        self.heap.snapshot()
    }

    /// Buffer pool frame count.
    pub fn pool_pages(&self) -> usize {
        self.heap.pool().capacity()
    }

    /// Append one row (arity-checked); see [`Self::append_rows`].
    pub fn append_row(&self, row: &Row) -> EngineResult<()> {
        if row.len() != self.schema.len() {
            return Err(EngineError::SchemaMismatch(format!(
                "row has {} values, stored table '{}' has {} columns",
                row.len(),
                self.name,
                self.schema.len()
            )));
        }
        self.append_rows(&RowBatch::from_rows(self.schema.clone(), &[row]))
    }

    /// Note in `indexed` what the index learns of the record in slot
    /// `slot` of heap page `page`, whose column `c` holds the integer
    /// `int(c)` (`None`: NULL or not an integer). A NULL temporal
    /// attribute poisons the page's time zone, and the row's index entry
    /// admits every bound on that side, so a bound on the other side
    /// alone still finds it. A NULL key poisons the page's key zone and
    /// filter.
    fn index_row(
        &self,
        int: impl Fn(usize) -> Option<i64>,
        page: PageId,
        slot: SlotId,
        indexed: &mut IndexRows,
    ) {
        let (tsi, tei) = self.temporal.expect("only temporal tables are indexed");
        indexed.add(page, slot, int(tsi), int(tei), self.key_col.and_then(int));
    }

    /// Append the rows of `batch` (its width checked against the table
    /// schema; its values are taken to conform) through the heap's one
    /// append path, maintaining the interval index. New snapshots see the
    /// rows only once the index holds them, and all of them at once. A
    /// row that fails ends the batch: the rows before it stay appended,
    /// indexed and published.
    pub fn append_rows(&self, batch: &RowBatch) -> EngineResult<()> {
        if batch.width() != self.schema.len() {
            return Err(EngineError::SchemaMismatch(format!(
                "batch has {} columns, stored table '{}' has {}",
                batch.width(),
                self.name,
                self.schema.len()
            )));
        }
        // Publication waits for the batch scope, closed after the index
        // update.
        let scope = self.heap.begin_batch();
        let mut indexed = IndexRows::default();
        let appended = self.append_indexed(std::slice::from_ref(batch), &mut indexed);
        if let Some(index) = &self.index {
            index.append(indexed);
        }
        drop(scope);
        appended
    }

    /// Append the rows of `batches`, in order, to the heap as one batch,
    /// collecting into `indexed` what the index learns of each row that
    /// lands.
    fn append_indexed(&self, batches: &[RowBatch], indexed: &mut IndexRows) -> EngineResult<()> {
        // Row `i` of the whole is row `i - starts[b]` of batch `b`.
        let starts: Vec<usize> = batches
            .iter()
            .scan(0, |start, b| {
                let at = *start;
                *start += b.len();
                Some(at)
            })
            .collect();
        let locate = |i: usize| {
            let b = starts.partition_point(|&start| start <= i) - 1;
            (&batches[b], i - starts[b])
        };
        Ok(self.heap.append_batch(
            batches.iter().map(RowBatch::len).sum(),
            |i, buf| {
                let (batch, row) = locate(i);
                encode_record(batch, row, buf)
            },
            |i, page, slot| {
                if self.temporal.is_some() {
                    let (batch, row) = locate(i);
                    self.index_row(|c| batch.column(c).int_at(row), page, slot, indexed);
                }
            },
        )?)
    }

    /// Drop from `slots` — ascending by page — the ranges of every page
    /// on which no record can satisfy `bounds` — the one admission check
    /// of both pruned scans: the page's zone map and, when the bounds pin
    /// the key (`key_ge == key_le`), its key filter (see
    /// [`IntervalIndex::admit`]). A table that is not temporal keeps
    /// every page. Returns how many pages the key filter alone dropped.
    /// The first check on an opened or recovered table builds its index
    /// from a heap scan.
    pub fn admit_pages(
        &self,
        slots: &mut Vec<SlotRange>,
        bounds: &ZoneBounds,
    ) -> EngineResult<u64> {
        match &self.index {
            Some(index) => index.admit(slots, bounds, || self.index_rows()),
            None => Ok(0),
        }
    }

    /// Compile `bounds` for record-level checks against this table's
    /// layout; `None` when no bound applies to a column it has.
    pub fn record_bounds(&self, bounds: &ZoneBounds) -> Option<RecordBounds> {
        let mut checks = Vec::new();
        let mut check = |col: usize, lo: Option<i64>, hi: Option<i64>| {
            if lo.is_some() || hi.is_some() {
                checks.push((col, lo.unwrap_or(i64::MIN), hi.unwrap_or(i64::MAX)));
            }
        };
        if let Some(key) = self.key_col {
            check(key, bounds.key_ge, bounds.key_le);
        }
        if let Some((tsi, tei)) = self.temporal {
            check(tsi, bounds.ts_ge, bounds.ts_le);
            // Strict to inclusive; saturation at the i64 edges only widens
            // the range, which a pre-filter may.
            check(
                tei,
                bounds.te_gt.map(|v| v.saturating_add(1)),
                bounds.te_lt.map(|v| v.saturating_sub(1)),
            );
        }
        (!checks.is_empty()).then_some(RecordBounds { checks })
    }

    /// `(ts, te)` column positions when the schema has the temporal shape.
    pub fn temporal_cols(&self) -> Option<(usize, usize)> {
        self.temporal
    }

    /// The key column position, if one participates in the key bounds.
    pub fn key_col(&self) -> Option<usize> {
        self.key_col
    }

    /// The slot ranges that may hold a record with `ts <= ts_le` and
    /// `te > te_gt`, ascending by page (see [`IntervalIndex::probe`]);
    /// `None` for a table that is not temporal. The first probe of an
    /// opened or recovered table builds its index from a heap scan.
    pub fn probe_index(
        &self,
        ts_le: Option<i64>,
        te_gt: Option<i64>,
    ) -> EngineResult<Option<Vec<SlotRange>>> {
        let Some(index) = &self.index else {
            return Ok(None);
        };
        index.probe(ts_le, te_gt, || self.index_rows()).map(Some)
    }

    /// What the index holds of every heap record — a full scan.
    fn index_rows(&self) -> EngineResult<IndexRows> {
        let arity = self.schema.len();
        let mut indexed = IndexRows::default();
        for page_no in 0..self.page_count() {
            self.heap.with_page(page_no, |page| {
                for (slot, rec) in (0..).zip(page.records()) {
                    let row = decode_row(rec?, arity).map_err(|e| {
                        temporal_store::StoreError::Corrupt(format!("page {page_no}: {e}"))
                    })?;
                    self.index_row(|c| row[c].as_int(), page_no, slot, &mut indexed);
                }
                Ok(())
            })?;
        }
        Ok(indexed)
    }

    /// Decode the slot ranges `slots` of heap page `page_no` — the slots
    /// of them the page holds, range by range — into `out` (one pinned
    /// page; the pin is released before returning) and return how many
    /// tuples were looked at. A whole page is `0..`[`SlotId::MAX`]
    /// ([`ALL_SLOTS`]); a scan clips each range to its [`HeapSnapshot`]
    /// first (see [`HeapSnapshot::visible_slots`]): records appended past
    /// the snapshot's watermark land after the prefix, so truncating the
    /// range is exactly the snapshot's visibility rule. With `bounds`,
    /// records that cannot satisfy them are skipped *before* decoding.
    pub fn decode_page(
        &self,
        page_no: u32,
        slots: impl IntoIterator<Item = Range<SlotId>>,
        bounds: Option<&RecordBounds>,
        out: &mut BatchBuilder,
    ) -> EngineResult<usize> {
        self.heap
            .with_page(page_no, |page: &Page| {
                let mut tuples = 0;
                for slots in slots {
                    let slots = slots.start..slots.end.min(page.tuple_count());
                    tuples += slots.len();
                    for slot in slots {
                        let rec = page.record(slot)?;
                        if bounds.is_some_and(|b| !b.may_match(rec)) {
                            continue;
                        }
                        decode_into(rec, out.columns_mut()).map_err(|e| {
                            temporal_store::StoreError::Corrupt(format!("page {page_no}: {e}"))
                        })?;
                    }
                }
                Ok(tuples)
            })
            .map_err(EngineError::from)
    }

    /// Materialize the table as one [`HeapSnapshot`] sees it (streamed
    /// page by page, each page clipped to the snapshot as a scan clips
    /// it, so a concurrent append batch shows whole or not at all) — the
    /// compatibility path behind [`crate::catalog::Catalog::get`]; query
    /// execution should scan via [`crate::exec::StorageScanExec`] instead.
    pub fn read_all(&self) -> EngineResult<Relation> {
        let snapshot = self.snapshot();
        let mut out = BatchBuilder::new(self.schema.len());
        for page_no in 0..snapshot.visible_pages() {
            let slots = snapshot.visible_slots(page_no, ALL_SLOTS);
            self.decode_page(page_no, [slots], None, &mut out)?;
        }
        Relation::from_batches(self.schema.clone(), vec![out.finish(self.schema.clone())])
    }

    /// Write back dirty pages and sync the heap file.
    pub fn flush(&self) -> EngineResult<()> {
        Ok(self.heap.flush()?)
    }

    /// Route every append through the database WAL: the heap logs each
    /// acknowledged row (a full-page image on a page's first touch per
    /// checkpoint epoch, a logical record afterwards) and its buffer pool
    /// syncs the log before any dirty page write-back. The interval index
    /// and its zone maps are in memory only: a reopened table rebuilds
    /// them on first use.
    pub fn attach_wal(&self, wal: Arc<temporal_store::Wal>) {
        self.heap.attach_wal(wal, self.name.clone());
    }

    /// Flush and close the table's buffer pool, surfacing the I/O errors
    /// the silent drop path would swallow. The table must not be used
    /// afterwards.
    pub fn close(&self) -> EngineResult<()> {
        Ok(self.heap.close()?)
    }

    /// Create a stored table at `dir/<name>.heap` and fill it with the
    /// rows of `rel`, flushed and synced — the "persist a relation" entry
    /// point used by the `Database` front door. **Atomic**: the rows are
    /// written to a temporary file which is renamed over the final path
    /// only once complete, so a failure (or crash) mid-persist leaves any
    /// previous heap file for `name` untouched. Both pools, the one that
    /// writes the file and the table's own, count into `counters`.
    pub fn persist_relation(
        dir: &Path,
        name: &str,
        rel: &Relation,
        pool_pages: usize,
        counters: &PoolCounters,
    ) -> EngineResult<Arc<StoredTable>> {
        validate_table_name(name)?;
        std::fs::create_dir_all(dir)
            .map_err(|e| EngineError::Storage(format!("create {}: {e}", dir.display())))?;
        let path = heap_path(dir, name);
        let tmp = dir.join(format!(".{name}.{HEAP_EXT}.tmp"));
        let indexed = {
            let table =
                StoredTable::create(&tmp, name, rel.schema().clone(), pool_pages, counters)?;
            let mut indexed = IndexRows::default();
            table.append_indexed(rel.batches(), &mut indexed)?;
            // Close, not flush: the pool's drop hook would sync the file
            // a second time.
            table.close()?;
            indexed
        };
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            EngineError::Storage(format!(
                "rename {} → {}: {e}",
                tmp.display(),
                path.display()
            ))
        })?;
        let mut table = StoredTable::open_with_count(
            &path,
            name,
            rel.schema().clone(),
            pool_pages,
            rel.len() as u64,
            counters,
        )?;
        // The rows just written are the whole table: index them now
        // instead of on first use.
        if table.index.is_some() {
            table.index = Some(IntervalIndex::new(indexed));
        }
        Ok(Arc::new(table))
    }
}

/// The heap file path of table `name` inside database directory `dir`.
pub fn heap_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.{HEAP_EXT}"))
}

/// A table name becomes both a file name (`<name>.heap`) and a manifest
/// field, so it must stay inside the database directory and round-trip
/// the manifest format. Checked **before** anything touches the disk.
pub fn validate_table_name(name: &str) -> EngineResult<()> {
    let ok = !name.is_empty()
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '-');
    if ok {
        Ok(())
    } else {
        Err(EngineError::Storage(format!(
            "table name {name:?} cannot be persisted: use alphanumerics, '_' or '-' \
             (the name becomes a file name and a manifest field)"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("n", DataType::Str),
            Column::new("x", DataType::Double),
            Column::new("ok", DataType::Bool),
            Column::new("ts", DataType::Int),
            Column::new("te", DataType::Int),
        ])
    }

    fn row(n: &str, x: f64, ok: bool, ts: i64, te: i64) -> Row {
        Row::new(vec![
            Value::str(n),
            Value::Double(x),
            Value::Bool(ok),
            Value::Int(ts),
            Value::Int(te),
        ])
    }

    /// The record [`encode_record`] writes for `row`.
    fn encoded(row: &Row) -> Vec<u8> {
        let schema = Schema::new(
            (0..row.len())
                .map(|c| Column::new(format!("c{c}"), DataType::Int))
                .collect(),
        );
        let mut buf = Vec::new();
        encode_record(&RowBatch::from_rows(schema, &[row]), 0, &mut buf);
        buf
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("talign_engine_storage_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    /// `table AS OF v` through an index scan under `state`.
    fn index_as_of(
        table: &Arc<StoredTable>,
        v: i64,
        state: &crate::exec::ExecutionState,
    ) -> Relation {
        let scan = crate::plan::PhysicalPlan::IndexScan {
            table: table.clone(),
            label: "t".into(),
            bounds: ZoneBounds::as_of(v),
        };
        scan.collect(state).unwrap()
    }

    /// An opened table builds its index on the first probe, from a heap
    /// scan, while an appender keeps adding rows. Rows reach the heap
    /// before their appender takes the index lock, so a probe must find
    /// every row appended before it began, whichever of the build and the
    /// append takes the lock first — and a row both index, which the
    /// probe then holds twice, must still come back once.
    #[test]
    fn the_first_probe_builds_the_index_without_losing_a_racing_append() {
        use crate::exec::ExecutionState;
        use crate::plan::{PhysicalPlan, PlannerConfig};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let path = tmp("lazy_race.heap");
        // Row `i` is valid at `i` only, so `AS OF i` matches it alone.
        let label = |i: i64| if i < 1_000 { "a" } else { "b" };
        let nth = |i: i64| row(label(i), 0.0, true, i, i + 1);
        for round in 0..8 {
            {
                let t =
                    StoredTable::create(&path, "t", schema(), 8, &PoolCounters::default()).unwrap();
                for i in 0..1_000 {
                    t.append_row(&nth(i)).unwrap();
                }
                t.flush().unwrap();
            }
            let t = Arc::new(
                StoredTable::open(&path, "t", schema(), 8, &PoolCounters::default()).unwrap(),
            );
            let appended = AtomicUsize::new(1_000);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for i in 1_000..1_300 {
                        t.append_row(&nth(i)).unwrap();
                        appended.fetch_add(1, Ordering::Release);
                    }
                });
                loop {
                    let before = appended.load(Ordering::Acquire);
                    let v = before as i64 - 1;
                    let state = ExecutionState::new(PlannerConfig::default());
                    let got = index_as_of(&t, v, &state);
                    assert_eq!(got.rows(), [nth(v)], "round {round}: AS OF {v}");
                    if before == 1_300 {
                        break;
                    }
                }
            });
            // Every row live after -1: each once, in heap order.
            let all = PhysicalPlan::IndexScan {
                table: t.clone(),
                label: "t".into(),
                bounds: ZoneBounds {
                    te_gt: Some(-1),
                    ..ZoneBounds::default()
                },
            };
            let all = all
                .collect(&ExecutionState::new(PlannerConfig::default()))
                .unwrap();
            let want: Vec<Row> = (0..1_300).map(nth).collect();
            assert_eq!(all.rows(), &want[..], "round {round}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A probe that runs after the statement snapshot also names slots
    /// appended since; the scan reads only the slots the snapshot sees,
    /// and a page none of whose named slots it sees counts as skipped.
    #[test]
    fn tail_page_ranges_are_clipped_to_the_snapshot() {
        use crate::exec::ExecutionState;
        use crate::plan::{PhysicalPlan, PlannerConfig};
        use std::sync::atomic::Ordering;

        let path = tmp("tail_clip.heap");
        let t = Arc::new(
            StoredTable::create(&path, "t", schema(), 8, &PoolCounters::default()).unwrap(),
        );
        // Rows valid at 0 and at 5 take turns: AS OF 5 matches the odd
        // slots of every page.
        let nth = |i: i64| row("r", 0.0, true, 5 * (i % 2), 5 * (i % 2) + 1);
        for i in 0..300 {
            t.append_row(&nth(i)).unwrap();
        }
        // The tail page's last visible row is valid at 0; the rows that
        // follow it past the snapshot are valid at 7.
        t.append_row(&nth(0)).unwrap();
        let state = ExecutionState::new(PlannerConfig::default()).with_instrumentation();
        let snap = state.snapshot_for(&t);
        for _ in 0..5 {
            t.append_row(&row("late", 0.0, true, 7, 8)).unwrap();
        }
        assert_eq!(
            t.page_count(),
            snap.pages,
            "the late rows share the tail page"
        );
        let got = index_as_of(&t, 5, &state);
        assert_eq!(got.len(), 150);
        let late = PhysicalPlan::IndexScan {
            table: t.clone(),
            label: "t".into(),
            bounds: ZoneBounds::as_of(7),
        };
        let got = late.collect(&state).unwrap();
        assert!(got.is_empty(), "AS OF 7 sees no late row: {:?}", got.rows());
        let (_, _, op) = &late.operator_stats(&state)[0];
        assert_eq!(op.pages_read.load(Ordering::Relaxed), 0);
        assert_eq!(
            op.pages_skipped.load(Ordering::Relaxed),
            u64::from(snap.visible_pages())
        );
        let fresh = ExecutionState::new(PlannerConfig::default());
        assert_eq!(index_as_of(&t, 7, &fresh).len(), 5);
        std::fs::remove_file(&path).unwrap();
    }

    /// A reader takes a snapshot, then runs a key-pinned IndexScan, while
    /// `append_row` keeps adding rows: every row the snapshot can see must
    /// come back, because a row is published only once the index holds
    /// its interval and its key.
    #[test]
    fn a_key_pinned_index_scan_returns_every_row_its_snapshot_sees() {
        use crate::exec::ExecutionState;
        use crate::plan::{PhysicalPlan, PlannerConfig};

        let keyed = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("ts", DataType::Int),
            Column::new("te", DataType::Int),
        ]);
        // Row `i` has key `i` and is valid at `i` only.
        let row = |i: i64| Row::new(vec![Value::Int(i), Value::Int(i), Value::Int(i + 1)]);
        let path = tmp("key_race.heap");
        for round in 0..4 {
            let t = Arc::new(
                StoredTable::create(&path, "t", keyed.clone(), 8, &PoolCounters::default())
                    .unwrap(),
            );
            t.append_row(&row(0)).unwrap();
            // Two readers on top of the appender: more threads than the
            // cores of a small box, so an appender preempted between its
            // steps widens any window between publishing and indexing.
            let reader = || loop {
                // The newest row the snapshot sees: the last tuple of its
                // tail page.
                let state = ExecutionState::new(PlannerConfig::default());
                let snap = state.snapshot_for(&t);
                let mut tail = BatchBuilder::new(3);
                t.decode_page(
                    snap.pages - 1,
                    std::iter::once(0..snap.tail_tuples),
                    None,
                    &mut tail,
                )
                .unwrap();
                let tail = Relation::from_batches(keyed.clone(), vec![tail.finish(keyed.clone())])
                    .unwrap();
                let Value::Int(v) = tail.rows().last().expect("a visible row")[0] else {
                    unreachable!("keys are integers")
                };
                let scan = PhysicalPlan::IndexScan {
                    table: t.clone(),
                    label: "t".into(),
                    bounds: ZoneBounds {
                        key_ge: Some(v),
                        key_le: Some(v),
                        ..ZoneBounds::as_of(v)
                    },
                };
                let got = scan.collect(&state).unwrap();
                assert_eq!(got.rows(), [row(v)], "round {round}: row {v} is visible");
                if v == 1_999 {
                    break;
                }
            };
            std::thread::scope(|scope| {
                scope.spawn(reader);
                scope.spawn(reader);
                for i in 1..2_000 {
                    t.append_row(&row(i)).unwrap();
                }
            });
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn row_codec_roundtrip_all_types() {
        let rows = vec![
            row("ann", 1.5, true, 0, 8),
            row("", f64::NAN, false, -3, i64::MAX),
            Row::new(vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ]),
            row("ünïcode-ω", -0.0, true, 1, 2),
        ];
        for r in &rows {
            let back = decode_row(&encoded(r), r.len()).unwrap();
            assert_eq!(&back, r);
        }
        // A row encodes alike from a batch of many rows (NULLs in typed
        // columns) and from a column holding values of several types.
        let mut mixed = rows.clone();
        mixed.push(Row::new(vec![
            Value::Int(7),
            Value::str("s"),
            Value::Double(0.5),
            Value::Bool(true),
            Value::Null,
        ]));
        let batch = RowBatch::from_rows(schema(), &mixed);
        assert!(matches!(batch.column(0).data(), ColumnData::Mixed(_)));
        for (i, r) in mixed.iter().enumerate() {
            let mut buf = Vec::new();
            encode_record(&batch, i, &mut buf);
            assert_eq!(buf, encoded(r), "row {i}");
            assert_eq!(&decode_row(&buf, r.len()).unwrap(), r);
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let buf = encoded(&row("x", 1.0, true, 1, 2));
        assert!(decode_row(&buf[..buf.len() - 1], 5).is_err()); // truncated
        assert!(decode_row(&buf, 4).is_err()); // trailing bytes
        let mut bad = buf.clone();
        bad[0] = 99; // unknown tag
        assert!(decode_row(&bad, 5).is_err());
    }

    #[test]
    fn record_bounds_test_encoded_records_in_place() {
        let path = tmp("recbounds.heap");
        // No integer first column: key bounds have nothing to apply to.
        let t = StoredTable::create(&path, "t", schema(), 2, &PoolCounters::default()).unwrap();
        assert!(t
            .record_bounds(&ZoneBounds {
                key_ge: Some(1),
                ..ZoneBounds::default()
            })
            .is_none());
        let as_of_5 = t.record_bounds(&ZoneBounds::as_of(5)).unwrap();
        // Half-open [ts, te): the walk crosses a string, a double and a
        // bool to reach the pair.
        assert!(as_of_5.may_match(&encoded(&row("ann", 1.5, true, 5, 6))));
        assert!(as_of_5.may_match(&encoded(&row("a-much-longer-name", 1.5, true, 0, 9))));
        assert!(!as_of_5.may_match(&encoded(&row("ann", 1.5, true, 6, 9))));
        assert!(!as_of_5.may_match(&encoded(&row("", 1.5, true, 0, 5))));
        // What the bounds cannot judge is kept for the filter (NULLs) or
        // for `decode_row` to report (bytes that do not parse).
        let mut nulls = row("ann", 1.5, true, 9, 5).values().to_vec();
        nulls[1] = Value::Null;
        nulls[3] = Value::Null;
        assert!(!as_of_5.may_match(&encoded(&Row::new(nulls.clone()))));
        nulls[4] = Value::Null;
        assert!(as_of_5.may_match(&encoded(&Row::new(nulls))));
        let whole = encoded(&row("ann", 1.5, true, 6, 9));
        assert!(as_of_5.may_match(&whole[..whole.len() - 12]));
        assert!(as_of_5.may_match(&[99, 1, 2]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn schema_string_roundtrip_and_fingerprint() {
        let s = schema();
        let text = schema_to_string(&s);
        assert_eq!(text, "n:str,x:double,ok:bool,ts:int,te:int");
        let back = schema_from_string(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(schema_fingerprint(&back), schema_fingerprint(&s));
        // Qualifiers do not change the fingerprint…
        assert_eq!(
            schema_fingerprint(&s.with_qualifier("t")),
            schema_fingerprint(&s)
        );
        // …but column renames and type changes do.
        assert_ne!(
            schema_fingerprint(&s.renamed(0, "m")),
            schema_fingerprint(&s)
        );
        assert!(schema_from_string("a:int,b").is_err());
        assert!(schema_from_string("a:timestamp").is_err());
        assert_eq!(schema_from_string("").unwrap().len(), 0);
    }

    #[test]
    fn stored_table_roundtrip_and_reopen() {
        let path = tmp("roundtrip.heap");
        let rows: Vec<Row> = (0..500)
            .map(|i| row(&format!("name-{i}"), i as f64 / 2.0, i % 2 == 0, i, i + 5))
            .collect();
        {
            let t = StoredTable::create(&path, "t", schema(), 4, &PoolCounters::default()).unwrap();
            t.append_rows(&RowBatch::from_rows(schema(), &rows))
                .unwrap();
            t.flush().unwrap();
            assert_eq!(t.row_count(), 500);
            assert!(t.page_count() > 4, "table must exceed its pool");
        }
        let t = StoredTable::open(&path, "t", schema(), 4, &PoolCounters::default()).unwrap();
        let all = t.read_all().unwrap();
        assert_eq!(all.rows(), &rows[..]);
        // The wrong schema cannot open the heap.
        let wrong = Schema::new(vec![Column::new("z", DataType::Int)]);
        assert!(StoredTable::open(&path, "t", wrong, 4, &PoolCounters::default()).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// A relation of several batches is persisted as one heap batch:
    /// each page written once, the rows in order.
    #[test]
    fn persisting_writes_each_page_once() {
        let dir = tmp("persist_once");
        let _ = std::fs::remove_dir_all(&dir);
        let rows: Vec<Row> = (0..5_000)
            .map(|i| row(&format!("r{i}"), 0.5, true, i, i + 1))
            .collect();
        let rel = Relation::new(schema(), rows).unwrap();
        assert!(rel.batches().len() > 1);
        let counters = PoolCounters::default();
        let t = StoredTable::persist_relation(&dir, "t", &rel, 4, &counters).unwrap();
        assert_eq!(counters.io_writes.get(), u64::from(t.page_count()));
        assert_eq!(t.read_all().unwrap().rows(), rel.rows());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_and_column_names_validated_before_disk_io() {
        assert!(validate_table_name("ok_table-1").is_ok());
        for bad in ["", "a/b", "a\tb", "../evil", ".hidden", "a b"] {
            assert!(validate_table_name(bad).is_err(), "{bad:?}");
        }
        // Unpersistable column names are rejected before the heap exists.
        let path = tmp("badcol.heap");
        let bad_schema = Schema::new(vec![Column::new("a,b", DataType::Int)]);
        assert!(StoredTable::create(&path, "t", bad_schema, 2, &PoolCounters::default()).is_err());
        assert!(!path.exists());
    }

    #[test]
    fn append_row_checks_arity() {
        let path = tmp("arity.heap");
        let t = StoredTable::create(&path, "t", schema(), 2, &PoolCounters::default()).unwrap();
        assert!(t.append_row(&Row::new(vec![Value::Int(1)])).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
