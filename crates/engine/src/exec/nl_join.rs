//! Nested-loop join: the fallback algorithm for arbitrary θ conditions.
//!
//! Supports all join types, including the semi/anti joins that SQL
//! `EXISTS` / `NOT EXISTS` compile to. On non-equi conditions this is the
//! only applicable algorithm — which is exactly why the paper's `sql`
//! baseline degenerates on the `Ddisj`/`Drand` workloads (Sec. 7.4).

use crate::batch::{RowBatch, BATCH_SIZE};
use crate::error::EngineResult;
use crate::exec::{collect_rows, BoxedExec, ExecNode, ExecutionState};
use crate::expr::Expr;
use crate::plan::JoinType;
use crate::schema::Schema;
use crate::tuple::Row;

enum Phase {
    Probe,
    RightUnmatched(usize),
    Done,
}

/// Nested-loop join; materializes the right (inner) side.
pub struct NestedLoopJoinExec {
    left: BoxedExec,
    right: Option<BoxedExec>,
    right_rows: Vec<Row>,
    right_matched: Vec<bool>,
    right_width: usize,
    join_type: JoinType,
    condition: Option<Expr>,
    schema: Schema,
    /// Rows of the current left batch not yet joined.
    left_rows: std::vec::IntoIter<Row>,
    phase: Phase,
}

impl NestedLoopJoinExec {
    pub fn new(
        left: BoxedExec,
        right: BoxedExec,
        join_type: JoinType,
        condition: Option<Expr>,
    ) -> Self {
        let right_width = right.schema().len();
        let schema = if join_type.emits_right() {
            left.schema().concat(right.schema())
        } else {
            left.schema().clone()
        };
        NestedLoopJoinExec {
            left,
            right: Some(right),
            right_rows: Vec::new(),
            right_matched: Vec::new(),
            right_width,
            join_type,
            condition,
            schema,
            left_rows: Vec::new().into_iter(),
            phase: Phase::Probe,
        }
    }

    fn materialize_right(&mut self, state: &ExecutionState) -> EngineResult<()> {
        if let Some(mut right) = self.right.take() {
            self.right_rows = collect_rows(right.as_mut(), state)?;
            self.right_matched = vec![false; self.right_rows.len()];
        }
        Ok(())
    }

    fn pred(&self, combined: &Row) -> EngineResult<bool> {
        match &self.condition {
            None => Ok(true),
            Some(c) => c.eval_pred(combined.values()),
        }
    }

    /// Everything one left row contributes: its matches in right-row
    /// order (Semi/Anti stop at the first), or its unmatched form.
    fn join_left_row(&mut self, left_row: Row, out: &mut Vec<Row>) -> EngineResult<()> {
        let mut matched = false;
        for i in 0..self.right_rows.len() {
            let combined = left_row.concat(&self.right_rows[i]);
            if !self.pred(&combined)? {
                continue;
            }
            matched = true;
            self.right_matched[i] = true;
            match self.join_type {
                JoinType::Inner | JoinType::Left | JoinType::Right | JoinType::Full => {
                    out.push(combined)
                }
                JoinType::Semi => {
                    out.push(left_row);
                    return Ok(());
                }
                JoinType::Anti => return Ok(()),
            }
        }
        if !matched {
            match self.join_type {
                JoinType::Left | JoinType::Full => {
                    out.push(left_row.concat_nulls(self.right_width))
                }
                JoinType::Anti => out.push(left_row),
                _ => {}
            }
        }
        Ok(())
    }
}

impl ExecNode for NestedLoopJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Joins left rows until the batch holds [`BATCH_SIZE`] rows, always
    /// finishing the left row it is on — so a batch overshoots by at most
    /// one left row's matches, and no cursor into the right side survives
    /// a call.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        self.materialize_right(state)?;
        let mut out: Vec<Row> = Vec::new();
        while out.len() < BATCH_SIZE {
            match self.phase {
                Phase::Done => break,
                Phase::RightUnmatched(ref mut i) => {
                    let left_width = self.schema.len() - self.right_width;
                    while *i < self.right_rows.len() && out.len() < BATCH_SIZE {
                        if !self.right_matched[*i] {
                            out.push(self.right_rows[*i].nulls_concat(left_width));
                        }
                        *i += 1;
                    }
                    if *i == self.right_rows.len() {
                        self.phase = Phase::Done;
                    }
                }
                Phase::Probe => {
                    let Some(left_row) = self.left_rows.next() else {
                        match self.left.next_batch(state)? {
                            Some(batch) => self.left_rows = batch.into_rows().into_iter(),
                            None if self.join_type.emits_right_unmatched() => {
                                self.phase = Phase::RightUnmatched(0)
                            }
                            None => self.phase = Phase::Done,
                        }
                        continue;
                    };
                    self.join_left_row(left_row, &mut out)?;
                }
            }
        }
        Ok((!out.is_empty()).then(|| RowBatch::new(self.schema.clone(), out)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::int2_rel;
    use crate::exec::{collect, ExecutionState, SeqScanExec};
    use crate::expr::col;
    use crate::value::Value;

    fn scan(vals: &[(i64, i64)]) -> BoxedExec {
        Box::new(SeqScanExec::new(int2_rel(("k", "v"), vals).into_shared()))
    }

    fn join(
        l: &[(i64, i64)],
        r: &[(i64, i64)],
        jt: JoinType,
        cond: Option<Expr>,
    ) -> Vec<Vec<Value>> {
        let node = NestedLoopJoinExec::new(scan(l), scan(r), jt, cond);
        collect(Box::new(node), &ExecutionState::default())
            .unwrap()
            .rows()
            .iter()
            .map(|r| r.to_vec())
            .collect()
    }

    // condition: l.k = r.k  (left width 2)
    fn keq() -> Option<Expr> {
        Some(col(0).eq(col(2)))
    }

    #[test]
    fn inner_join() {
        let out = join(
            &[(1, 10), (2, 20)],
            &[(2, 200), (3, 300)],
            JoinType::Inner,
            keq(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::Int(2));
        assert_eq!(out[0][3], Value::Int(200));
    }

    #[test]
    fn cross_product_with_none_condition() {
        let out = join(
            &[(1, 1), (2, 2)],
            &[(3, 3), (4, 4), (5, 5)],
            JoinType::Inner,
            None,
        );
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn left_outer_pads_nulls() {
        let out = join(&[(1, 10), (2, 20)], &[(2, 200)], JoinType::Left, keq());
        assert_eq!(out.len(), 2);
        let unmatched = out.iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert!(unmatched[2].is_null() && unmatched[3].is_null());
    }

    #[test]
    fn right_outer_pads_left() {
        let out = join(&[(2, 20)], &[(2, 200), (3, 300)], JoinType::Right, keq());
        assert_eq!(out.len(), 2);
        let unmatched = out.iter().find(|r| r[3] == Value::Int(300)).unwrap();
        assert!(unmatched[0].is_null() && unmatched[1].is_null());
    }

    #[test]
    fn full_outer_pads_both() {
        let out = join(
            &[(1, 10), (2, 20)],
            &[(2, 200), (3, 300)],
            JoinType::Full,
            keq(),
        );
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn semi_join_emits_left_once() {
        let out = join(
            &[(1, 10), (2, 20)],
            &[(2, 200), (2, 201)],
            JoinType::Semi,
            keq(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], vec![Value::Int(2), Value::Int(20)]);
    }

    #[test]
    fn anti_join_emits_non_matching_left() {
        let out = join(
            &[(1, 10), (2, 20)],
            &[(2, 200), (2, 201)],
            JoinType::Anti,
            keq(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], vec![Value::Int(1), Value::Int(10)]);
    }

    #[test]
    fn anti_join_with_empty_right_emits_all() {
        let out = join(&[(1, 10), (2, 20)], &[], JoinType::Anti, keq());
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn theta_join_non_equi() {
        // l.v < r.v
        let cond = Some(col(1).lt(col(3)));
        let out = join(
            &[(0, 5), (0, 25)],
            &[(0, 10), (0, 20)],
            JoinType::Inner,
            cond,
        );
        assert_eq!(out.len(), 2); // 5<10, 5<20
    }

    #[test]
    fn null_condition_never_matches() {
        // l.k = r.k where right k is NULL
        use crate::relation::Relation;
        use crate::schema::{Column, DataType, Schema};
        let left = scan(&[(1, 10)]);
        let right_rel = Relation::from_values(
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
            ]),
            vec![vec![Value::Null, Value::Int(9)]],
        )
        .unwrap()
        .into_shared();
        let right = Box::new(SeqScanExec::new(right_rel));
        let node = NestedLoopJoinExec::new(left, right, JoinType::Left, keq());
        let out = collect(Box::new(node), &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.rows()[0][2].is_null());
    }

    #[test]
    fn limit_interplay_streams() {
        // Probe must be incremental: the first batch is available without
        // draining the left side, and stops at the left row that fills it.
        let left: Vec<(i64, i64)> = (0..3 * BATCH_SIZE as i64).map(|i| (i, i)).collect();
        let mut node = NestedLoopJoinExec::new(scan(&left), scan(&[(1, 1)]), JoinType::Left, keq());
        let first = node
            .next_batch(&ExecutionState::default())
            .unwrap()
            .unwrap();
        assert_eq!(first.len(), BATCH_SIZE);
        assert_eq!(first.rows()[0][0], Value::Int(0));
    }
}
