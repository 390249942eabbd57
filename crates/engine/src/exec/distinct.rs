//! Duplicate elimination (set semantics), streaming.
//!
//! Rows are grouped by the engine's one [`KeyTable`] in group mode — the
//! whole row is the key — and a row is emitted when it starts a group.
//! The table keeps its own copy of the distinct rows seen so far (the
//! first row of each group, gathered per batch), and that copy is also
//! what the batch emits.

use crate::batch::{KeyEq, KeyTable, RowBatch};
use crate::error::EngineResult;
use crate::exec::{BoxedExec, ExecNode, ExecutionState};
use crate::schema::Schema;

/// Emits each distinct row once, in first-occurrence order. Structural row
/// equality: NULL = NULL (SQL `DISTINCT` semantics).
pub struct DistinctExec {
    input: BoxedExec,
    seen: KeyTable,
}

impl DistinctExec {
    pub fn new(input: BoxedExec) -> Self {
        let width = input.schema().len();
        DistinctExec {
            input,
            seen: KeyTable::new(KeyEq::Group, width),
        }
    }
}

impl ExecNode for DistinctExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    /// Loops past batches made up entirely of rows already seen —
    /// `Some` batches are never empty.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        while let Some(batch) = self.input.next_batch(state)? {
            let before = self.seen.len();
            self.seen.group(batch.columns(), batch.len());
            let fresh = before..self.seen.len();
            if !fresh.is_empty() {
                let (n, columns) = (fresh.len(), self.seen.keys(fresh));
                return Ok(Some(RowBatch::new(batch.schema().clone(), n, columns)));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::int2_rel;
    use crate::exec::{collect, ExecutionState, SeqScanExec};
    use crate::relation::Relation;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    #[test]
    fn removes_duplicates_preserving_order() {
        let rel = int2_rel(("a", "b"), &[(1, 1), (2, 2), (1, 1), (2, 2), (3, 3)]).into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let out = collect(
            Box::new(DistinctExec::new(scan)),
            &ExecutionState::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.rows()[2][0], Value::Int(3));
    }

    #[test]
    fn null_rows_are_duplicates_of_each_other() {
        let rel = Relation::from_values(
            Schema::new(vec![Column::new("a", DataType::Int)]),
            vec![vec![Value::Null], vec![Value::Null]],
        )
        .unwrap()
        .into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let out = collect(
            Box::new(DistinctExec::new(scan)),
            &ExecutionState::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
    }
}
