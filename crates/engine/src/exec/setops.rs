//! Set operations ∪, ∩, − with set semantics (duplicates eliminated), the
//! semantics the paper assumes for temporal relations (Sec. 3.1).

use crate::batch::{hash_rows, KeyEq, KeyTable, RowBatch};
use crate::error::{EngineError, EngineResult};
use crate::exec::{collect_batch, next_chunk, BoxedExec, ExecNode, ExecutionState};
use crate::plan::SetOpKind;
use crate::schema::Schema;

/// Hash-based UNION / INTERSECT / EXCEPT.
pub struct HashSetOpExec {
    kind: SetOpKind,
    left: BoxedExec,
    right: BoxedExec,
    out: Option<(RowBatch, usize)>,
}

impl HashSetOpExec {
    pub fn new(kind: SetOpKind, left: BoxedExec, right: BoxedExec) -> EngineResult<Self> {
        if !left.schema().union_compatible(right.schema()) {
            return Err(EngineError::SchemaMismatch(format!(
                "set operation arguments are not union compatible: {} vs {}",
                left.schema(),
                right.schema()
            )));
        }
        Ok(HashSetOpExec {
            kind,
            left,
            right,
            out: None,
        })
    }

    /// The surviving rows: the distinct rows of `left ++ right` (UNION) or
    /// of the left rows found (INTERSECT) or not found (EXCEPT) among the
    /// right rows, in first-seen order.
    fn compute(&mut self, state: &ExecutionState) -> EngineResult<RowBatch> {
        let schema = self.left.schema().clone();
        let left = collect_batch(self.left.as_mut(), state)?;
        let right = collect_batch(self.right.as_mut(), state)?;
        let rows = match self.kind {
            SetOpKind::Union => RowBatch::concat(schema.clone(), &[left, right]),
            SetOpKind::Intersect | SetOpKind::Except => {
                let mut right_set = KeyTable::new(KeyEq::Group, schema.len());
                right_set.group(right.columns(), right.len());
                let (cols, hashes) = (left.columns(), hash_rows(left.columns(), left.len()));
                let want = self.kind == SetOpKind::Intersect;
                let found = |i: usize| right_set.matches(cols, i, hashes[i]).next().is_some();
                let keep: Vec<u32> = (0..left.len())
                    .filter(|&i| found(i) == want)
                    .map(|i| i as u32)
                    .collect();
                left.gather(&keep)
            }
        };
        let mut seen = KeyTable::new(KeyEq::Group, schema.len());
        seen.group(rows.columns(), rows.len());
        Ok(RowBatch::new(schema, seen.len(), seen.keys(0..seen.len())))
    }
}

impl ExecNode for HashSetOpExec {
    fn schema(&self) -> &Schema {
        self.left.schema()
    }

    /// Drain both inputs, then emit the (materialized) result a chunk at
    /// a time.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        if self.out.is_none() {
            self.out = Some((self.compute(state)?, 0));
        }
        let (all, pos) = self.out.as_mut().expect("initialized");
        Ok(next_chunk(all, pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::{int_rel, rows_of};
    use crate::exec::{collect, ExecutionState, SeqScanExec};
    use crate::value::Value;

    fn run(kind: SetOpKind, l: &[i64], r: &[i64]) -> Vec<i64> {
        let left = Box::new(SeqScanExec::new(int_rel("a", l).into_shared()));
        let right = Box::new(SeqScanExec::new(int_rel("a", r).into_shared()));
        let node = HashSetOpExec::new(kind, left, right).unwrap();
        let out = collect(Box::new(node), &ExecutionState::default()).unwrap();
        let mut v: Vec<i64> = rows_of(&out)
            .into_iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn union_dedups() {
        assert_eq!(run(SetOpKind::Union, &[1, 2, 2], &[2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn intersect() {
        assert_eq!(
            run(SetOpKind::Intersect, &[1, 2, 2, 3], &[2, 3, 4]),
            vec![2, 3]
        );
        assert_eq!(run(SetOpKind::Intersect, &[1], &[2]), Vec::<i64>::new());
    }

    #[test]
    fn except() {
        assert_eq!(run(SetOpKind::Except, &[1, 2, 2, 3], &[2]), vec![1, 3]);
        assert_eq!(run(SetOpKind::Except, &[], &[1]), Vec::<i64>::new());
    }

    #[test]
    fn union_compatibility_enforced() {
        use crate::exec::test_util::int2_rel;
        let left = Box::new(SeqScanExec::new(int_rel("a", &[1]).into_shared()));
        let right = Box::new(SeqScanExec::new(
            int2_rel(("a", "b"), &[(1, 2)]).into_shared(),
        ));
        assert!(HashSetOpExec::new(SetOpKind::Union, left, right).is_err());
    }

    #[test]
    fn null_rows_compare_equal_in_setops() {
        use crate::relation::Relation;
        use crate::schema::{Column, DataType, Schema};
        let mk = || {
            Box::new(SeqScanExec::new(
                Relation::from_values(
                    Schema::new(vec![Column::new("a", DataType::Int)]),
                    vec![vec![Value::Null]],
                )
                .unwrap()
                .into_shared(),
            ))
        };
        let node = HashSetOpExec::new(SetOpKind::Except, mk(), mk()).unwrap();
        let out = collect(Box::new(node), &ExecutionState::default()).unwrap();
        assert!(out.is_empty());
    }
}
