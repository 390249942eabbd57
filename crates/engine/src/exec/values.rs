//! Inline row source (VALUES lists, constant relations).

use crate::batch::RowBatch;
use crate::error::EngineResult;
use crate::exec::{next_chunk, ExecNode, ExecutionState};
use crate::schema::Schema;

/// Emits a fixed set of rows, a chunk at a time.
pub struct ValuesExec {
    all: RowBatch,
    pos: usize,
}

impl ValuesExec {
    pub fn new(all: RowBatch) -> Self {
        ValuesExec { all, pos: 0 }
    }
}

impl ExecNode for ValuesExec {
    fn schema(&self) -> &Schema {
        self.all.schema()
    }

    fn next_batch(&mut self, _state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        Ok(next_chunk(&self.all, &mut self.pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::collect;
    use crate::schema::{Column, DataType};
    use crate::tuple::Row;
    use crate::value::Value;

    #[test]
    fn emits_fixed_rows() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let rows = [Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Int(2)])];
        let node = ValuesExec::new(RowBatch::from_rows(schema, &rows));
        let out = collect(Box::new(node), &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 2);
    }
}
