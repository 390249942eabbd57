//! Pipelined, batch-at-a-time executor.
//!
//! Every physical operator implements [`ExecNode`]: `next_batch()` returns
//! a [`RowBatch`] of about [`BATCH_SIZE`] rows — typed columns — until
//! `None`. This is the
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
//! is, and batching applies to every plan shape. Execution is serial: one
//! thread pulls the whole tree, as in the PostgreSQL executor.
//! Correctness is checked against the independent references in
//! `temporal_core::reference` (the snapshot oracle, `align_ref`,
//! `normalize_ref`, `absorb_ref`) and, for every join operator, a
//! brute-force join that concatenates each pair before testing θ.
//!
//! Operators never build a [`crate::tuple::Row`]: joins collect `(left,
//! right)` index pairs (`JoinPairs`) and gather each column once, sort
//! computes a permutation and gathers, filter gathers its survivors, and a
//! projection of a column reference passes the column's `Arc` on.

mod aggregate;
mod distinct;
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

pub use aggregate::{aggregate_rows, HashAggregateExec};
pub use distinct::DistinctExec;
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
pub use sort::{sort_permutation, SortExec};
pub use state::ExecutionState;
pub use storage_scan::StorageScanExec;

use crate::batch::{RowBatch, BATCH_SIZE, NULL_ROW};
use crate::error::{EngineError, EngineResult};
use crate::expr::BoundJoin;
use crate::plan::JoinType;
use crate::relation::Relation;
use crate::schema::Schema;

/// A pipelined executor node.
///
/// A tree is built and pulled by the one thread that runs the statement,
/// so nodes need not be `Send`. All per-query context arrives through the
/// [`ExecutionState`] passed to every pull — nodes hold no config copies.
pub trait ExecNode {
    /// The output schema.
    fn schema(&self) -> &Schema;

    /// Produce the next batch of output rows, or `None` when exhausted.
    /// Batches are never empty; their size is *about* [`BATCH_SIZE`]
    /// (operators may emit fewer or more rows per call).
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>>;
}

/// Owned, type-erased executor node.
pub type BoxedExec = Box<dyn ExecNode>;

/// Drain a node into a materialized [`Relation`] that keeps the batches it
/// received. This is the engine's result collection (used by
/// `PhysicalPlan::collect` and therefore `Planner::run`).
pub fn collect(mut node: BoxedExec, state: &ExecutionState) -> EngineResult<Relation> {
    let schema = node.schema().clone();
    let batches = drain(node.as_mut(), state)?;
    Relation::from_batches(schema, batches)
}

/// Drain a node into its batches.
pub fn drain(node: &mut dyn ExecNode, state: &ExecutionState) -> EngineResult<Vec<RowBatch>> {
    let mut batches = Vec::new();
    for_each_batch(node, state, |batch| {
        batches.push(batch);
        Ok::<_, EngineError>(())
    })?;
    Ok(batches)
}

/// Hand every batch of `node` to `f` as the node yields it, checking for
/// cancellation between batches — the one pull loop behind [`drain`] and
/// a caller that streams a result (the SQL session into its sink). An
/// error of `f` stops the pull.
pub fn for_each_batch<E: From<EngineError>>(
    node: &mut dyn ExecNode,
    state: &ExecutionState,
    mut f: impl FnMut(RowBatch) -> Result<(), E>,
) -> Result<(), E> {
    while let Some(batch) = node.next_batch(state)? {
        state.check_cancelled()?;
        f(batch)?;
    }
    Ok(())
}

/// Drain a node into one batch — the materialization step of blocking
/// operators.
pub fn collect_batch(node: &mut dyn ExecNode, state: &ExecutionState) -> EngineResult<RowBatch> {
    let schema = node.schema().clone();
    Ok(RowBatch::concat(schema, &drain(node, state)?))
}

/// The emit step of every operator that materializes its result first:
/// the next [`BATCH_SIZE`] rows of `all` from `*pos`, `None` once drained.
pub fn next_chunk(all: &RowBatch, pos: &mut usize) -> Option<RowBatch> {
    let start = *pos;
    let end = (start + BATCH_SIZE).min(all.len());
    *pos = end;
    (start < end).then(|| all.slice(start..end))
}

/// A join's output as `(left row, right row)` index pairs ([`NULL_ROW`]:
/// the ω-padded side), gathered into a batch once — every output column
/// is one gather, and no row is built.
#[derive(Debug, Default)]
pub(crate) struct JoinPairs {
    left: Vec<u32>,
    right: Vec<u32>,
}

impl JoinPairs {
    #[inline]
    pub(crate) fn push(&mut self, l: usize, r: usize) {
        self.left.push(l as u32);
        self.right.push(r as u32);
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.left.len()
    }

    /// The pairs `(ω, r)` of the right rows from `*next` on (up to a batch
    /// of them) that `matched` does not flag — the tail of Right/Full.
    pub(crate) fn unmatched_right(
        n: usize,
        next: &mut usize,
        matched: impl Fn(usize) -> bool,
    ) -> Self {
        let mut out = JoinPairs::default();
        while *next < n && out.len() < BATCH_SIZE {
            if !matched(*next) {
                out.push(NULL_ROW as usize, *next);
            }
            *next += 1;
        }
        out
    }

    /// The output batch — `left` and (for joins that emit it) `right`
    /// gathered at the pairs — or `None` for no pairs.
    pub(crate) fn into_batch(
        self,
        schema: &Schema,
        left: &RowBatch,
        right: &RowBatch,
        join_type: JoinType,
    ) -> Option<RowBatch> {
        let right = join_type
            .emits_right()
            .then_some((right, self.right.as_slice()));
        (!self.left.is_empty()).then(|| RowBatch::join(schema.clone(), left, &self.left, right))
    }
}

/// What left row `li` contributes to a join, the match loop of every join
/// operator. Each candidate right row (in emit order) whose pair passes
/// `pred` is marked and emitted as the pair `(li, right)` — nothing is
/// built for a pair that fails. Semi emits `li` at its first match and
/// Anti stops there, so θ is never tested past it (nor does its error
/// surface). A left row without a match is padded with NULLs (Left/Full)
/// or kept (Anti).
pub(crate) fn join_left_row(
    li: usize,
    cands: impl IntoIterator<Item = usize>,
    pred: &mut BoundJoin<'_>,
    join_type: JoinType,
    mut mark: impl FnMut(usize),
    out: &mut JoinPairs,
) -> EngineResult<()> {
    let mut matched = false;
    pred.set_left(li);
    for ri in cands {
        if !pred.matches(ri)? {
            continue;
        }
        matched = true;
        mark(ri);
        match join_type {
            JoinType::Semi => {
                out.push(li, NULL_ROW as usize);
                return Ok(());
            }
            JoinType::Anti => return Ok(()),
            _ => out.push(li, ri),
        }
    }
    if !matched && matches!(join_type, JoinType::Left | JoinType::Full | JoinType::Anti) {
        out.push(li, NULL_ROW as usize);
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
