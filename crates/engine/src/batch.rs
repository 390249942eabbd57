//! Row batches: the unit of execution.
//!
//! Once whole temporal queries compile into a single deep pipeline, moving
//! one row per virtual call makes per-tuple dispatch dominate the hot
//! loops. A [`RowBatch`] amortizes it: operators exchange chunks of
//! ~[`BATCH_SIZE`] rows through [`crate::exec::ExecNode::next_batch`] — the
//! executor's only pull method — and expression evaluation
//! ([`crate::expr::Expr::eval_batch`]) runs over a whole chunk in tight
//! loops. Batches are row-major (`Vec<Row>`: a batch shares its rows with
//! the relation or buffer they came from); column accessors round out the
//! API for consumers that want column-wise views (e.g. extracting endpoint
//! vectors).

use crate::schema::Schema;
use crate::tuple::Row;
use crate::value::Value;

/// Target number of rows per batch. Large enough to amortize per-batch
/// overhead (virtual dispatch, expression-tree walks, schema clones) to
/// noise, small enough that a batch of typical rows stays cache-resident.
/// Operators may emit smaller batches (e.g. a selective filter) or larger
/// ones (e.g. a high-fanout join probe); only *empty* batches are illegal.
pub const BATCH_SIZE: usize = 1024;

/// A schema plus a chunk of rows — what [`crate::exec::ExecNode::next_batch`]
/// produces. Invariant: never empty (exhaustion is signalled by `None`).
#[derive(Debug, Clone)]
pub struct RowBatch {
    schema: Schema,
    rows: Vec<Row>,
}

impl RowBatch {
    pub fn new(schema: Schema, rows: Vec<Row>) -> Self {
        RowBatch { schema, rows }
    }

    pub fn with_capacity(schema: Schema, cap: usize) -> Self {
        RowBatch {
            schema,
            rows: Vec::with_capacity(cap),
        }
    }

    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    #[inline]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    #[inline]
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Consume into the row vector.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Consume into `(schema, rows)`.
    pub fn into_parts(self) -> (Schema, Vec<Row>) {
        (self.schema, self.rows)
    }

    /// Column accessor: the values of column `i`, top to bottom.
    pub fn column(&self, i: usize) -> impl Iterator<Item = &Value> + '_ {
        self.rows.iter().map(move |r| &r[i])
    }

    /// Column accessor for integer columns (interval endpoints): `None`
    /// for NULL or non-integer values.
    pub fn int_column(&self, i: usize) -> Vec<Option<i64>> {
        self.rows.iter().map(|r| r[i].as_int()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};

    fn batch() -> RowBatch {
        RowBatch::new(
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
            vec![
                Row::new(vec![Value::Int(1), Value::Int(10)]),
                Row::new(vec![Value::Null, Value::Int(20)]),
            ],
        )
    }

    #[test]
    fn accessors() {
        let b = batch();
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.schema().len(), 2);
        let col_b: Vec<&Value> = b.column(1).collect();
        assert_eq!(col_b, vec![&Value::Int(10), &Value::Int(20)]);
        assert_eq!(b.int_column(0), vec![Some(1), None]);
        let (schema, rows) = b.into_parts();
        assert_eq!(schema.len(), 2);
        assert_eq!(rows.len(), 2);
    }
}
