//! Sequential scan over a heap-file table, streaming pages through the
//! buffer pool.
//!
//! Unlike [`crate::exec::SeqScanExec`], which walks an already
//! materialized `Arc<Relation>`, this node decodes slotted pages into
//! [`RowBatch`]es *as they are pulled*, each record's values straight
//! into the batch's typed columns: at any moment only the pages the
//! buffer pool holds are in memory, so a table larger than the pool (or
//! than RAM) scans in constant space.
//!
//! Every page is read as slot ranges clipped to the statement snapshot,
//! under one pin: a full scan or a zone sweep reads each page whole
//! ([`ALL_SLOTS`]), an index scan only the ranges its probe named — the
//! slots of the entries that matched, so on a page holding ten matches of
//! a hundred records it walks the few dozen slots around them, not the
//! hundred.
//!
//! A pruned scan also carries the [`ZoneBounds`] that selected its slots
//! and applies them once more per record, on the encoded bytes, before
//! the record is decoded (see [`RecordBounds`]). The bounds only ever
//! over-approximate the `Filter` the planner keeps above the scan, so
//! what the scan drops the filter would have dropped.

use std::sync::Arc;

use temporal_store::{HeapSnapshot, PageId};

use crate::batch::{BatchBuilder, RowBatch, BATCH_SIZE};
use crate::error::EngineResult;
use crate::exec::instrument::OperatorStats;
use crate::exec::{ExecNode, ExecutionState};
use crate::schema::Schema;
use crate::storage::{RecordBounds, SlotRange, StoredTable, ZoneBounds, ALL_SLOTS};

/// Scans a [`StoredTable`] page by page. The page set is either the
/// whole heap or an explicit list of surviving slot ranges handed down by
/// the pruning access paths.
pub struct StorageScanExec {
    table: Arc<StoredTable>,
    /// When `Some`, `next..end` index into this list instead of being
    /// page numbers themselves.
    pages: Option<Arc<Vec<SlotRange>>>,
    next: usize,
    end: usize,
    /// Record-level form of the pruning bounds, when the scan has any.
    bounds: Option<RecordBounds>,
    /// The statement snapshot this scan is clamped to, fixed when the scan
    /// is built: a whole-heap scan ends at its last visible page, pages
    /// past it are skipped and its tail page is decoded as a prefix, so the
    /// scan never observes a concurrent writer's in-flight appends.
    snapshot: HeapSnapshot,
    /// Per-plan-node page ledger (`EXPLAIN ANALYZE`): when attached, page
    /// reads are credited to the originating plan node; a plain run counts
    /// nothing.
    ledger: Option<Arc<OperatorStats>>,
}

impl StorageScanExec {
    /// Scan every page of the heap that `snapshot` (the statement's, from
    /// [`ExecutionState::snapshot_for`]) sees.
    pub fn new(table: Arc<StoredTable>, snapshot: HeapSnapshot) -> Self {
        StorageScanExec {
            end: snapshot.visible_pages() as usize,
            table,
            pages: None,
            next: 0,
            bounds: None,
            snapshot,
            ledger: None,
        }
    }

    /// Scan only the listed slot ranges, in list order — a pruned scan,
    /// where `pages` is what survived a zone-map sweep (whole pages) or
    /// an interval-index probe. The list must be ascending by page, and a
    /// page's ranges disjoint, or a record decodes twice.
    pub fn with_page_list(
        table: Arc<StoredTable>,
        snapshot: HeapSnapshot,
        pages: Arc<Vec<SlotRange>>,
    ) -> Self {
        StorageScanExec {
            end: pages.len(),
            pages: Some(pages),
            ..Self::new(table, snapshot)
        }
    }

    /// Skip, before decoding, records that cannot satisfy `bounds`. The
    /// caller keeps the predicate the bounds were extracted from above
    /// the scan, exactly as for page pruning.
    pub fn with_bounds(mut self, bounds: &ZoneBounds) -> Self {
        self.bounds = self.table.record_bounds(bounds);
        self
    }

    /// Attach a per-plan-node page ledger (see the `ledger` field).
    pub fn with_ledger(mut self, ledger: Arc<OperatorStats>) -> Self {
        self.ledger = Some(ledger);
        self
    }
}

impl ExecNode for StorageScanExec {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    /// Decode pages until the batch holds at least [`BATCH_SIZE`] rows or
    /// the page set is exhausted, so batches are whole pages' worth of
    /// survivors: up to one page past `BATCH_SIZE`, handed over without
    /// another copy. A page's ranges decode under one pin, each clamped
    /// to the statement snapshot (shared by every scan of the table in
    /// the query via [`ExecutionState::snapshot_for`]): on fully-visible
    /// pages as they are, on the snapshot's tail page up to the
    /// watermark, and on pages appended after the snapshot not at all.
    fn next_batch(&mut self, _state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        let snap = self.snapshot;
        let mut out = BatchBuilder::new(self.table.schema().len());
        while out.len() < BATCH_SIZE && self.next < self.end {
            let whole = [(self.next as PageId, ALL_SLOTS)];
            let ranges = match &self.pages {
                Some(list) => {
                    let rest = &list[self.next..self.end];
                    &rest[..rest.partition_point(|(p, _)| *p == rest[0].0)]
                }
                None => &whole[..],
            };
            self.next += ranges.len();
            let page_no = ranges[0].0;
            let visible = |(_, slots): &SlotRange| snap.visible_slots(page_no, slots.clone());
            if ranges
                .iter()
                .map(visible)
                .all(|slots| slots.start == slots.end)
            {
                continue;
            }
            let tuples = self.table.decode_page(
                page_no,
                ranges.iter().map(visible),
                self.bounds.as_ref(),
                &mut out,
            )?;
            if let Some(ledger) = &self.ledger {
                ledger.note_page_read(tuples as u64);
            }
        }
        if out.is_empty() {
            return Ok(None);
        }
        Ok(Some(out.finish(self.table.schema().clone())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, BoxedExec};
    use crate::plan::PhysicalPlan;
    use crate::schema::{Column, DataType};
    use crate::tuple::Row;
    use crate::value::Value;
    use temporal_store::{PoolCounters, SlotId};

    fn stored(name: &str, n: i64, pool: usize) -> Arc<StoredTable> {
        let dir = std::env::temp_dir().join("talign_engine_scan_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("label", DataType::Str),
        ]);
        let t = StoredTable::create(&path, "t", schema, pool, &PoolCounters::default()).unwrap();
        for i in 0..n {
            t.append_row(&Row::new(vec![Value::Int(i), Value::str(format!("r{i}"))]))
                .unwrap();
        }
        t.flush().unwrap();
        Arc::new(t)
    }

    /// A scan of every page `t` holds now.
    fn whole(t: &Arc<StoredTable>) -> StorageScanExec {
        StorageScanExec::new(t.clone(), t.snapshot())
    }

    #[test]
    fn batch_scan_streams_and_preserves_order() {
        let t = stored("order.heap", 5000, 2);
        assert!(t.page_count() > 2);
        let scan: BoxedExec = Box::new(whole(&t));
        let out = collect(scan, &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 5000);
        for (i, r) in out.rows().iter().enumerate() {
            assert_eq!(r[0], Value::Int(i as i64));
        }
    }

    #[test]
    fn empty_table_scans_empty() {
        let t = stored("empty.heap", 0, 2);
        let mut scan = whole(&t);
        let state = ExecutionState::default();
        assert!(scan.next_batch(&state).unwrap().is_none());
        assert!(scan.next_batch(&state).unwrap().is_none());
    }

    #[test]
    fn page_list_scan_reads_only_listed_pages() {
        let t = stored("pagelist.heap", 4000, 4);
        let pages = t.page_count();
        assert!(pages >= 4);
        let list: Arc<Vec<SlotRange>> =
            Arc::new((0..pages).step_by(2).map(|p| (p, ALL_SLOTS)).collect());
        let ledger = Arc::new(OperatorStats::default());
        let out = collect(
            Box::new(
                StorageScanExec::with_page_list(t.clone(), t.snapshot(), list.clone())
                    .with_ledger(ledger.clone()),
            ) as BoxedExec,
            &ExecutionState::default(),
        )
        .unwrap();
        let pages_read = ledger.pages_read.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(pages_read, list.len() as u64);
        let whole = collect(Box::new(whole(&t)) as BoxedExec, &ExecutionState::default()).unwrap();
        assert!(!out.is_empty() && out.len() < whole.len());
        // Rows on even pages only, in page order.
        let ids: Vec<i64> = out
            .rows()
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn a_page_listed_in_several_ranges_is_read_once() {
        let t = stored("ranges.heap", 1000, 4);
        let held = |page| {
            t.decode_page(page, [ALL_SLOTS], None, &mut BatchBuilder::new(2))
                .unwrap() as i64
        };
        let (p0, p1) = (held(0), held(1));
        let list = vec![(0, 0..3), (0, 5..7), (1, 1..2), (1, 4..SlotId::MAX)];
        let ledger = Arc::new(OperatorStats::default());
        let out = collect(
            Box::new(
                StorageScanExec::with_page_list(t.clone(), t.snapshot(), Arc::new(list))
                    .with_ledger(ledger.clone()),
            ) as BoxedExec,
            &ExecutionState::default(),
        )
        .unwrap();
        let ids: Vec<i64> = out
            .rows()
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        let mut want = vec![0, 1, 2, 5, 6, p0 + 1];
        want.extend(p0 + 4..p0 + p1);
        assert_eq!(ids, want);
        let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(load(&ledger.pages_read), 2);
        assert_eq!(load(&ledger.tuples_checked), want.len() as u64);
    }

    #[test]
    fn scan_is_clamped_to_the_statement_snapshot() {
        let t = stored("snapclamp.heap", 1000, 4);
        let state = ExecutionState::default();
        // Pin the statement snapshot, then race in more rows.
        let snap = state.snapshot_for(&t);
        assert_eq!(snap.rows, 1000);
        for i in 1000..2500 {
            t.append_row(&Row::new(vec![Value::Int(i), Value::str(format!("r{i}"))]))
                .unwrap();
        }
        assert_eq!(t.row_count(), 2500);
        // Full scan under the pinned state sees exactly the old prefix.
        let out = collect(
            Box::new(StorageScanExec::new(t.clone(), snap)) as BoxedExec,
            &state,
        )
        .unwrap();
        assert_eq!(out.len(), 1000);
        assert_eq!(out.rows().last().unwrap()[0], Value::Int(999));
        // A fresh state snapshots the current heap and sees everything.
        let fresh = collect(Box::new(whole(&t)) as BoxedExec, &ExecutionState::default()).unwrap();
        assert_eq!(fresh.len(), 2500);
    }

    /// The statement snapshot is fixed when the executor tree is built, not
    /// on the first pull: a batch appended in between that spills onto a
    /// new page shows none of its rows, on the old tail page or the new.
    #[test]
    fn a_scan_sees_the_snapshot_of_its_build_not_of_its_first_pull() {
        let t = stored("snapbuild.heap", 1000, 4);
        let state = ExecutionState::default();
        let plan = PhysicalPlan::StorageScan {
            table: t.clone(),
            label: "t".into(),
            bounds: None,
        };
        let scan = plan.execute(&state).unwrap();
        let pages = t.page_count();
        let mut next = 1000;
        while t.page_count() == pages {
            t.append_row(&Row::new(vec![
                Value::Int(next),
                Value::str(format!("r{next}")),
            ]))
            .unwrap();
            next += 1;
        }
        assert!(next > 1001, "the old tail page had room for some rows");
        let out = collect(scan, &state).unwrap();
        assert_eq!(out.len(), 1000, "rows appended after the build leaked in");
        assert_eq!(out.rows().last().unwrap()[0], Value::Int(999));
    }
}
