//! Per-operator instrumentation: the machinery behind `EXPLAIN ANALYZE`.
//!
//! When an [`ExecutionState`] is built with
//! [`ExecutionState::with_instrumentation`], the plan builder wraps every
//! executor node in an [`InstrumentedExec`] that times each pull and
//! counts rows/batches into a shared [`OperatorStats`], keyed by the
//! *plan node's address* in the [`Instrumentation`] registry.
//!
//! Storage scans additionally carry a per-node page ledger: the plan
//! builder hands the scan its own `OperatorStats`, and every page decode
//! or prune lands there. That is what lets `EXPLAIN ANALYZE` show
//! `pages_read=12 pages_skipped=37` on the exact scan that did the
//! pruning — and the only place pages are counted, so a plain run counts
//! none.
//!
//! When instrumentation is off (the default), no wrapper is inserted
//! anywhere — the executor runs the exact same code it ran before this
//! module existed, so the overhead of *having* the feature is zero.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::batch::RowBatch;
use crate::error::EngineResult;
use crate::exec::{BoxedExec, ExecNode, ExecutionState};
use crate::schema::Schema;

/// Runtime counters of one plan node. All relaxed atomics — diagnostic
/// only.
#[derive(Debug, Default)]
pub struct OperatorStats {
    /// Rows this node emitted.
    pub rows: AtomicU64,
    /// Batches this node emitted.
    pub batches: AtomicU64,
    /// Wall time spent inside this node's pulls, nanoseconds. Inclusive
    /// of children (as in PostgreSQL's `actual time`). A pruning
    /// scan's total also carries the build-time resolution of its page
    /// set (index probe / zone sweep), which its ancestors' totals —
    /// pulls only — do not.
    pub nanos: AtomicU64,
    /// Heap pages this node pinned and decoded (storage scans only).
    pub pages_read: AtomicU64,
    /// Heap pages pruned before decode at this node (storage scans only).
    pub pages_skipped: AtomicU64,
    /// Of `pages_skipped`, the pages only the key filter dropped: their
    /// zone maps admitted a pinned key the filter proves absent.
    pub key_filtered: AtomicU64,
    /// Tuples in the slot ranges read that the scan looked at — `rows`
    /// of them survived its record-level bounds (storage scans only).
    pub tuples_checked: AtomicU64,
    /// Right-side candidates this join's left rows were tested against —
    /// per left row, the length of its (range-narrowed) bucket slice in a
    /// hash join, the whole right side in a nested loop. Against `rows` it
    /// tells how much of the scan θ threw away.
    pub candidates_checked: AtomicU64,
}

impl OperatorStats {
    /// One page read, `tuples` of its tuples looked at.
    pub fn note_page_read(&self, tuples: u64) {
        self.pages_read.fetch_add(1, Ordering::Relaxed);
        self.tuples_checked.fetch_add(tuples, Ordering::Relaxed);
    }

    /// `n` pages pruned, `key_filtered` of them by the key filter alone.
    pub fn note_pages_skipped(&self, n: u64, key_filtered: u64) {
        self.pages_skipped.fetch_add(n, Ordering::Relaxed);
        self.key_filtered.fetch_add(key_filtered, Ordering::Relaxed);
    }

    /// Wall time in milliseconds.
    pub fn millis(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Wall time in whole microseconds (the trace-span unit).
    pub fn micros(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed) / 1_000
    }
}

/// The per-query registry mapping plan node identity (its address, stable
/// for the lifetime of the plan borrow that execution holds) to that
/// node's [`OperatorStats`].
#[derive(Debug, Default)]
pub struct Instrumentation {
    ops: Mutex<HashMap<usize, Arc<OperatorStats>>>,
    /// Per shared spool input (its address), the spool occurrence whose
    /// pull ran it: its time is inside that occurrence's, so `EXPLAIN
    /// ANALYZE` prints the input there.
    spool_fillers: Mutex<HashMap<usize, usize>>,
}

impl Instrumentation {
    /// The stats slot of plan node `key`, created on first use.
    pub fn op(&self, key: usize) -> Arc<OperatorStats> {
        let mut map = self.ops.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(key).or_default().clone()
    }

    /// The stats slot of plan node `key`, if any executor touched it.
    pub fn get(&self, key: usize) -> Option<Arc<OperatorStats>> {
        let map = self.ops.lock().unwrap_or_else(|e| e.into_inner());
        map.get(&key).cloned()
    }

    /// Spool occurrence `node` ran the shared input at `input`.
    pub fn note_spool_filler(&self, input: usize, node: usize) {
        let mut map = self.spool_fillers.lock().unwrap_or_else(|e| e.into_inner());
        map.insert(input, node);
    }

    /// The spool occurrence that ran the shared input at `input`, if one
    /// did.
    pub fn spool_filler(&self, input: usize) -> Option<usize> {
        let map = self.spool_fillers.lock().unwrap_or_else(|e| e.into_inner());
        map.get(&input).copied()
    }
}

/// Transparent [`ExecNode`] wrapper that meters its inner node (see
/// module docs).
pub struct InstrumentedExec {
    inner: BoxedExec,
    stats: Arc<OperatorStats>,
}

impl InstrumentedExec {
    pub fn new(inner: BoxedExec, stats: Arc<OperatorStats>) -> Self {
        InstrumentedExec { inner, stats }
    }
}

impl ExecNode for InstrumentedExec {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        let t0 = Instant::now();
        let out = self.inner.next_batch(state);
        self.stats
            .nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Ok(Some(batch)) = &out {
            self.stats
                .rows
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            self.stats.batches.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::int_rel;
    use crate::exec::{collect, SeqScanExec};
    use std::sync::Arc as StdArc;

    #[test]
    fn wrapper_counts_rows_and_batches_without_changing_output() {
        let rel = int_rel("n", &(0..3000).collect::<Vec<i64>>());
        let ins = Instrumentation::default();
        let stats = ins.op(1);
        let plain = collect(
            Box::new(SeqScanExec::new(StdArc::new(rel.clone()))),
            &ExecutionState::default(),
        )
        .unwrap();
        let wrapped = collect(
            Box::new(InstrumentedExec::new(
                Box::new(SeqScanExec::new(StdArc::new(rel))),
                stats.clone(),
            )),
            &ExecutionState::default(),
        )
        .unwrap();
        assert_eq!(plain.rows(), wrapped.rows());
        assert_eq!(stats.rows.load(Ordering::Relaxed), 3000);
        assert!(stats.batches.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn registry_shares_one_slot_per_key() {
        let ins = Instrumentation::default();
        let a = ins.op(7);
        let b = ins.op(7);
        a.rows.fetch_add(5, Ordering::Relaxed);
        assert_eq!(b.rows.load(Ordering::Relaxed), 5);
        assert!(ins.get(8).is_none());
        assert!(ins.get(7).is_some());
    }
}
