//! Volcano-style pipelined executor.
//!
//! Every physical operator implements [`ExecNode`]: `next()` returns one row
//! at a time until `None`. This mirrors the PostgreSQL executor the paper
//! extends — their `ExecAdjustment` (Fig. 10) "is integrated into the
//! pipelining architecture of PostgreSQL and on each invocation either a
//! single result tuple is returned, or ω". The temporal crate's adjustment
//! node implements this same trait.
//!
//! On top of the row protocol sits a **batch protocol**:
//! [`ExecNode::next_batch`] moves a [`RowBatch`] of ~[`BATCH_SIZE`] rows
//! per virtual call. Every node supports it — the default implementation
//! falls back to pulling rows one at a time — and the hot operators
//! (scan, filter, project, sort, hash join, interval join, the temporal
//! sweeps) override it to do their work over a whole chunk, with
//! expression evaluation vectorized via [`crate::expr::Expr::eval_batch`].
//! The two protocols are row-for-row identical (differentially tested);
//! a node instance must be *driven* through exactly one of them, because
//! operators with native batch implementations keep separate pull state
//! for each protocol.

mod aggregate;
mod distinct;
mod exchange;
mod filter;
mod hash_join;
pub mod instrument;
mod interval_join;
mod limit;
mod merge_join;
mod nl_join;
mod project;
mod scan;
mod setops;
mod sort;
mod state;
mod storage_scan;
mod values;
pub mod workers;

pub use aggregate::{aggregate_rows, HashAggregateExec};
pub use distinct::DistinctExec;
pub use exchange::ExchangeExec;
pub use filter::FilterExec;
pub use hash_join::HashJoinExec;
pub(crate) use hash_join::RangeSpec;
pub use instrument::{Instrumentation, InstrumentedExec, OperatorStats};
pub use interval_join::IntervalJoinExec;
pub use limit::LimitExec;
pub use merge_join::MergeJoinExec;
pub use nl_join::NestedLoopJoinExec;
pub use project::ProjectExec;
pub use scan::SeqScanExec;
pub use setops::HashSetOpExec;
pub use sort::{sort_rows, sort_rows_batched, sort_rows_parallel, SortExec};
pub use state::{ExecStats, ExecutionState};
pub use storage_scan::StorageScanExec;
pub use values::ValuesExec;

use crate::batch::{RowBatch, BATCH_SIZE};
use crate::error::EngineResult;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Row;

/// A pipelined executor node.
///
/// Nodes are `Send` so an exchange operator can hand a partition's subtree
/// to a worker thread; shared read-only inputs (`Arc<Relation>`, stored
/// tables) make that safe. All per-query context arrives through the
/// [`ExecutionState`] passed to every pull — nodes hold no config copies.
pub trait ExecNode: Send {
    /// The output schema.
    fn schema(&self) -> &Schema;

    /// Produce the next output row, or `None` when exhausted.
    fn next(&mut self, state: &ExecutionState) -> EngineResult<Option<Row>>;

    /// Produce the next batch of output rows, or `None` when exhausted.
    /// Batches are never empty; their size is *about* [`BATCH_SIZE`]
    /// (operators may emit fewer or more rows per call).
    ///
    /// The default implementation pulls rows one at a time via
    /// [`ExecNode::next`], so every node supports both protocols; hot
    /// operators override it to work chunk-at-a-time. Callers must drive a
    /// node instance through exactly one of the two protocols — operators
    /// with native batch implementations keep separate pull state per
    /// protocol, and mixing them on one instance may skip or repeat rows.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        let mut batch = RowBatch::with_capacity(self.schema().clone(), BATCH_SIZE);
        while batch.len() < BATCH_SIZE {
            match self.next(state)? {
                Some(row) => batch.push(row),
                None => break,
            }
        }
        Ok((!batch.is_empty()).then_some(batch))
    }
}

/// Owned, type-erased executor node.
pub type BoxedExec = Box<dyn ExecNode>;

/// Drain a node into a materialized [`Relation`], batch-wise. This is the
/// engine's default result collection (used by `PhysicalPlan::collect` and
/// therefore `Planner::run`).
pub fn collect(mut node: BoxedExec, state: &ExecutionState) -> EngineResult<Relation> {
    let mut rel = Relation::empty(node.schema().clone());
    while let Some(batch) = node.next_batch(state)? {
        state.check_cancelled()?;
        state
            .stats
            .rows_emitted
            .fetch_add(batch.len() as u64, std::sync::atomic::Ordering::Relaxed);
        state
            .stats
            .batches_emitted
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        rel.push_batch(batch)?;
    }
    Ok(rel)
}

/// Drain a node into a materialized [`Relation`] one row at a time — the
/// pre-batch Volcano path, kept working so the two protocols can be
/// differentially tested and benchmarked against each other.
pub fn collect_rowwise(mut node: BoxedExec, state: &ExecutionState) -> EngineResult<Relation> {
    let schema = node.schema().clone();
    let mut rows = Vec::new();
    while let Some(row) = node.next(state)? {
        rows.push(row);
    }
    state
        .stats
        .rows_emitted
        .fetch_add(rows.len() as u64, std::sync::atomic::Ordering::Relaxed);
    Relation::new(schema, rows)
}

/// Drain a node into a row vector via the row protocol (schema discarded).
pub fn collect_rows(node: &mut dyn ExecNode, state: &ExecutionState) -> EngineResult<Vec<Row>> {
    let mut rows = Vec::new();
    while let Some(row) = node.next(state)? {
        rows.push(row);
    }
    Ok(rows)
}

/// Drain a node into a row vector via the batch protocol — the
/// materialization step of blocking operators on the batch path.
pub fn collect_rows_batched(
    node: &mut dyn ExecNode,
    state: &ExecutionState,
) -> EngineResult<Vec<Row>> {
    let mut rows = Vec::new();
    while let Some(batch) = node.next_batch(state)? {
        state.check_cancelled()?;
        rows.extend(batch.into_rows());
    }
    Ok(rows)
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    /// Build a one-column Int relation for executor tests.
    pub fn int_rel(name: &str, vals: &[i64]) -> Relation {
        Relation::from_values(
            Schema::new(vec![Column::new(name, DataType::Int)]),
            vals.iter().map(|&v| vec![Value::Int(v)]).collect(),
        )
        .unwrap()
    }

    /// Build a two-column (Int, Int) relation.
    pub fn int2_rel(names: (&str, &str), vals: &[(i64, i64)]) -> Relation {
        Relation::from_values(
            Schema::new(vec![
                Column::new(names.0, DataType::Int),
                Column::new(names.1, DataType::Int),
            ]),
            vals.iter()
                .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
                .collect(),
        )
        .unwrap()
    }

    pub fn rows_of(rel: &Relation) -> Vec<Vec<Value>> {
        rel.rows().iter().map(|r| r.to_vec()).collect()
    }
}
