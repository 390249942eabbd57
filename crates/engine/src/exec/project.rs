//! Projection π: compute output expressions per row.
//!
//! Duplicate elimination (set semantics) is a separate node
//! ([`crate::exec::DistinctExec`]), as in standard engines.

use crate::batch::RowBatch;
use crate::error::EngineResult;
use crate::exec::{BoxedExec, ExecNode, ExecutionState};
use crate::expr::Expr;
use crate::schema::Schema;

/// Evaluates a list of expressions against each input batch.
pub struct ProjectExec {
    input: BoxedExec,
    exprs: Vec<Expr>,
    schema: Schema,
}

impl ProjectExec {
    pub fn new(input: BoxedExec, exprs: Vec<Expr>, schema: Schema) -> Self {
        debug_assert_eq!(exprs.len(), schema.len());
        ProjectExec {
            input,
            exprs,
            schema,
        }
    }
}

impl ExecNode for ProjectExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Each item is one vectorized evaluation per batch; a column
    /// reference re-binds the input column (an `Arc` clone, no copy).
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        let Some(batch) = self.input.next_batch(state)? else {
            return Ok(None);
        };
        let columns = self
            .exprs
            .iter()
            .map(|e| e.eval_batch(&batch))
            .collect::<EngineResult<Vec<_>>>()?;
        Ok(Some(RowBatch::new(
            self.schema.clone(),
            batch.len(),
            columns,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::int2_rel;
    use crate::exec::{collect, ExecutionState, SeqScanExec};
    use crate::expr::col;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    #[test]
    fn projects_expressions() {
        let rel = int2_rel(("a", "b"), &[(1, 10), (2, 20)]).into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let schema = Schema::new(vec![
            Column::new("b", DataType::Int),
            Column::new("sum", DataType::Int),
        ]);
        let proj = Box::new(ProjectExec::new(
            scan,
            vec![col(1), col(0).add(col(1))],
            schema,
        ));
        let out = collect(proj, &ExecutionState::default()).unwrap();
        assert_eq!(out.rows()[0].to_vec(), vec![Value::Int(10), Value::Int(11)]);
        assert_eq!(out.rows()[1].to_vec(), vec![Value::Int(20), Value::Int(22)]);
    }
}
