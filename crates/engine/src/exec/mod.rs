//! Pipelined, batch-at-a-time executor.
//!
//! Every physical operator implements [`ExecNode`]: `next_batch()` returns
//! a [`RowBatch`] of about [`BATCH_SIZE`] rows until `None`. This is the
//! pull protocol of the PostgreSQL executor the paper extends — their
//! `ExecAdjustment` (Fig. 10) "is integrated into the pipelining
//! architecture of PostgreSQL" — with the unit of exchange widened from a
//! tuple to a chunk, so virtual dispatch, cancellation checks and
//! instrumentation timers tick once per batch and expression evaluation
//! runs vectorized via [`crate::expr::Expr::eval_batch`]. The temporal
//! crate's adjustment and absorb nodes implement this same trait.
//!
//! There is exactly one way to run a plan: `next_batch` is the only pull
//! method, so an operator's state machine never depends on who its parent
//! is, and batching and morsel parallelism apply to every plan shape.
//! Correctness is checked against the independent references in
//! `temporal_core::reference` (the snapshot oracle, `align_ref`,
//! `normalize_ref`, `absorb_ref`) and, for every join operator, a
//! brute-force join that concatenates each pair before testing θ.

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
pub use sort::{sort_rows_batched, sort_rows_parallel, SortExec};
pub use state::ExecutionState;
pub use storage_scan::StorageScanExec;
pub use values::ValuesExec;

use crate::batch::{RowBatch, BATCH_SIZE};
use crate::error::EngineResult;
use crate::expr::JoinPred;
use crate::plan::JoinType;
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

    /// Produce the next batch of output rows, or `None` when exhausted.
    /// Batches are never empty; their size is *about* [`BATCH_SIZE`]
    /// (operators may emit fewer or more rows per call).
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>>;
}

/// Owned, type-erased executor node.
pub type BoxedExec = Box<dyn ExecNode>;

/// Drain a node into a materialized [`Relation`]. This is the engine's
/// result collection (used by `PhysicalPlan::collect` and therefore
/// `Planner::run`).
pub fn collect(mut node: BoxedExec, state: &ExecutionState) -> EngineResult<Relation> {
    let mut rel = Relation::empty(node.schema().clone());
    while let Some(batch) = node.next_batch(state)? {
        state.check_cancelled()?;
        rel.push_batch(batch)?;
    }
    Ok(rel)
}

/// Drain a node into a row vector (schema discarded) — the
/// materialization step of blocking operators.
pub fn collect_rows(node: &mut dyn ExecNode, state: &ExecutionState) -> EngineResult<Vec<Row>> {
    let mut rows = Vec::new();
    while let Some(batch) = node.next_batch(state)? {
        state.check_cancelled()?;
        rows.extend(batch.into_rows());
    }
    Ok(rows)
}

/// The emit step of every operator that materializes its result first:
/// the next [`BATCH_SIZE`] rows of `rows` as a batch, `None` once drained.
pub fn next_chunk(rows: &mut impl Iterator<Item = Row>, schema: &Schema) -> Option<RowBatch> {
    let chunk: Vec<Row> = rows.by_ref().take(BATCH_SIZE).collect();
    (!chunk.is_empty()).then(|| RowBatch::new(schema.clone(), chunk))
}

/// What one left row contributes to a join, the match loop of every join
/// operator. Each candidate right row (`(index, row)`, in emit order)
/// whose pair passes `pred` is marked and emitted as `left ++ right` — a
/// row is built only for a pair that is emitted. Semi emits `left` at its
/// first match and Anti stops there, so θ is never tested past it (nor
/// does its error surface). A left row without a match is padded with
/// `right_width` NULLs (Left/Full) or kept (Anti).
pub(crate) fn join_left_row<'r>(
    left: &Row,
    cands: impl IntoIterator<Item = (usize, &'r Row)>,
    pred: &JoinPred,
    join_type: JoinType,
    right_width: usize,
    mut mark: impl FnMut(usize),
    out: &mut Vec<Row>,
) -> EngineResult<()> {
    let mut matched = false;
    for (i, right) in cands {
        if !pred.matches(left.values(), right.values())? {
            continue;
        }
        matched = true;
        mark(i);
        match join_type {
            JoinType::Semi => {
                out.push(left.clone());
                return Ok(());
            }
            JoinType::Anti => return Ok(()),
            _ => out.push(left.concat(right)),
        }
    }
    if !matched {
        match join_type {
            JoinType::Left | JoinType::Full => out.push(left.concat_nulls(right_width)),
            JoinType::Anti => out.push(left.clone()),
            _ => {}
        }
    }
    Ok(())
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

    /// A join by its definition, sharing no code with any join operator:
    /// every pair is concatenated and θ evaluated on the row with
    /// [`crate::expr::Expr::eval_pred`]. Left rows in order, each with its
    /// matches in right order (Semi keeps the left row at its first match
    /// and Anti drops it there, testing no further pair), then the
    /// unmatched right rows — the nested loop's output order.
    pub fn brute_join(
        left: &Relation,
        right: &Relation,
        join_type: JoinType,
        theta: Option<&crate::expr::Expr>,
    ) -> EngineResult<Relation> {
        let (lw, rw) = (left.schema().len(), right.schema().len());
        let mut out = Vec::new();
        let mut right_matched = vec![false; right.len()];
        for l in left.rows() {
            let mut matched = false;
            for (j, r) in right.rows().iter().enumerate() {
                let pair = l.concat(r);
                if !theta.map_or(Ok(true), |t| t.eval_pred(pair.values()))? {
                    continue;
                }
                matched = true;
                right_matched[j] = true;
                match join_type {
                    JoinType::Semi | JoinType::Anti => break,
                    _ => out.push(pair),
                }
            }
            match join_type {
                JoinType::Semi if matched => out.push(l.clone()),
                JoinType::Anti if !matched => out.push(l.clone()),
                JoinType::Left | JoinType::Full if !matched => out.push(l.concat_nulls(rw)),
                _ => {}
            }
        }
        if join_type.emits_right_unmatched() {
            let unmatched = right.rows().iter().zip(&right_matched);
            out.extend(
                unmatched
                    .filter(|(_, &m)| !m)
                    .map(|(r, _)| r.nulls_concat(lw)),
            );
        }
        let schema = if join_type.emits_right() {
            left.schema().concat(right.schema())
        } else {
            left.schema().clone()
        };
        Relation::new(schema, out)
    }
}
