//! Nested-loop join: the fallback algorithm for arbitrary θ conditions.
//!
//! Supports all join types, including the semi/anti joins that SQL
//! `EXISTS` / `NOT EXISTS` compile to. On non-equi conditions this is the
//! only applicable algorithm — which is exactly why the paper's `sql`
//! baseline degenerates on the `Ddisj`/`Drand` workloads (Sec. 7.4), and
//! why the paper-faithful plans of Figs. 13(c), 14, 15a and 15c spend
//! nearly all their time here.
//!
//! Every left row is tested against every materialized right row; θ is a
//! [`JoinPred`] built once and tested on the `(left, right)` pair in
//! place, so a pair costs the predicate and nothing else — a row is built
//! only for a pair that is emitted. Under `EXPLAIN ANALYZE` the pairs
//! offered to θ are counted as `candidates=`.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::batch::{RowBatch, BATCH_SIZE};
use crate::error::EngineResult;
use crate::exec::{
    collect_batch, join_left_row, BoxedExec, ExecNode, ExecutionState, JoinPairs, OperatorStats,
};
use crate::expr::{Expr, JoinPred};
use crate::plan::JoinType;
use crate::schema::Schema;

enum Phase {
    Probe,
    RightUnmatched(usize),
    Done,
}

/// Nested-loop join; materializes the right (inner) side.
pub struct NestedLoopJoinExec {
    left: BoxedExec,
    right: Option<BoxedExec>,
    /// The whole right side, one batch.
    right_rows: RowBatch,
    right_matched: Vec<bool>,
    join_type: JoinType,
    pred: JoinPred,
    schema: Schema,
    /// `candidates_checked` ledger of this plan node, when instrumented.
    ledger: Option<Arc<OperatorStats>>,
    /// The current left batch and its next row to join.
    left_rows: RowBatch,
    left_pos: usize,
    phase: Phase,
}

impl NestedLoopJoinExec {
    pub fn new(
        left: BoxedExec,
        right: BoxedExec,
        join_type: JoinType,
        condition: Option<Expr>,
    ) -> Self {
        let schema = if join_type.emits_right() {
            left.schema().concat(right.schema())
        } else {
            left.schema().clone()
        };
        NestedLoopJoinExec {
            right_rows: RowBatch::empty(right.schema().clone()),
            left_rows: RowBatch::empty(left.schema().clone()),
            left,
            right: Some(right),
            right_matched: Vec::new(),
            join_type,
            pred: JoinPred::new(condition),
            schema,
            ledger: None,
            left_pos: 0,
            phase: Phase::Probe,
        }
    }

    /// Count the pairs every left row is offered into `stats`
    /// (`EXPLAIN ANALYZE`'s `candidates=`).
    pub fn with_ledger(mut self, stats: Arc<OperatorStats>) -> Self {
        self.ledger = Some(stats);
        self
    }

    fn materialize_right(&mut self, state: &ExecutionState) -> EngineResult<()> {
        if let Some(mut right) = self.right.take() {
            self.right_rows = collect_batch(right.as_mut(), state)?;
            self.right_matched = vec![false; self.right_rows.len()];
        }
        Ok(())
    }
}

impl ExecNode for NestedLoopJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Joins left rows of the current left batch until the output holds
    /// [`BATCH_SIZE`] rows, always finishing the left row it is on — so a
    /// batch overshoots by at most one left row's matches, and no cursor
    /// into the right side survives a call.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        self.materialize_right(state)?;
        loop {
            let out = match self.phase {
                Phase::Done => return Ok(None),
                Phase::RightUnmatched(ref mut next) => {
                    let matched = &self.right_matched;
                    let out = JoinPairs::unmatched_right(matched.len(), next, |i| matched[i]);
                    if *next >= matched.len() {
                        self.phase = Phase::Done;
                    }
                    out
                }
                Phase::Probe if self.left_pos >= self.left_rows.len() => {
                    match self.left.next_batch(state)? {
                        Some(batch) => (self.left_rows, self.left_pos) = (batch, 0),
                        None if self.join_type.emits_right_unmatched() => {
                            self.phase = Phase::RightUnmatched(0)
                        }
                        None => self.phase = Phase::Done,
                    }
                    continue;
                }
                Phase::Probe => {
                    let mut out = JoinPairs::default();
                    let mut pred = self.pred.bind(&self.left_rows, &self.right_rows);
                    let (start, matched) = (self.left_pos, &mut self.right_matched);
                    let mut mask = Vec::new();
                    while self.left_pos < self.left_rows.len() && out.len() < BATCH_SIZE {
                        let (li, n) = (self.left_pos, self.right_rows.len());
                        pred.set_left(li);
                        pred.mask(n, &mut mask);
                        let cands = (0..n).filter(|&ri| mask[ri]);
                        let mark = |i| matched[i] = true;
                        join_left_row(li, cands, &mut pred, self.join_type, mark, &mut out)?;
                        self.left_pos += 1;
                    }
                    if let Some(stats) = &self.ledger {
                        let pairs = (self.left_pos - start) as u64 * self.right_rows.len() as u64;
                        stats.candidates_checked.fetch_add(pairs, Ordering::Relaxed);
                    }
                    out
                }
            };
            let batch = out.into_batch(
                &self.schema,
                &self.left_rows,
                &self.right_rows,
                self.join_type,
            );
            if batch.is_some() {
                return Ok(batch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::{brute_join, int2_rel, rows_of};
    use crate::exec::{collect, ExecutionState, SeqScanExec};
    use crate::expr::col;
    use crate::relation::Relation;
    use crate::value::Value;

    const ALL_JOIN_TYPES: [JoinType; 6] = [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Right,
        JoinType::Full,
        JoinType::Semi,
        JoinType::Anti,
    ];

    fn scan(vals: &[(i64, i64)]) -> BoxedExec {
        Box::new(SeqScanExec::new(int2_rel(("k", "v"), vals).into_shared()))
    }

    fn run(l: &Relation, r: &Relation, jt: JoinType, cond: Option<Expr>) -> EngineResult<Relation> {
        let scan = |rel: &Relation| Box::new(SeqScanExec::new(rel.clone().into_shared()));
        let node = NestedLoopJoinExec::new(scan(l), scan(r), jt, cond);
        collect(Box::new(node), &ExecutionState::default())
    }

    /// The join's rows — checked row for row, in order, against the
    /// brute-force join.
    fn join(
        l: &[(i64, i64)],
        r: &[(i64, i64)],
        jt: JoinType,
        cond: Option<Expr>,
    ) -> Vec<Vec<Value>> {
        let (l, r) = (int2_rel(("k", "v"), l), int2_rel(("k", "v"), r));
        let out = run(&l, &r, jt, cond.clone()).unwrap();
        let oracle = brute_join(&l, &r, jt, cond.as_ref()).unwrap();
        assert_eq!(out.rows(), oracle.rows(), "{jt:?}");
        rows_of(&out)
    }

    /// Random `(k, ts, te)` rows over Int, Double, Str and NULL.
    fn random_rel(rng: &mut rand::rngs::StdRng, n: usize) -> Relation {
        use crate::schema::{Column, DataType};
        use rand::Rng;
        let value = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..12) {
            0 => Value::Null,
            1 => Value::Double(rng.gen_range(0..20) as f64 / 2.0),
            2 => Value::str("x"),
            _ => Value::Int(rng.gen_range(0..10)),
        };
        let schema = Schema::new(
            ["k", "ts", "te"]
                .map(|c| Column::new(c, DataType::Int))
                .to_vec(),
        );
        let rows = (0..n).map(|_| (0..3).map(|_| value(rng)).collect());
        Relation::from_values(schema, rows.collect()).unwrap()
    }

    #[test]
    fn agrees_with_brute_force_on_random_rows_and_every_theta_shape() {
        use crate::expr::{lit, Func};
        use rand::SeedableRng;
        let dur = |ts, te| Expr::Func(Func::Dur, vec![col(ts), col(te)]);
        // Left (k, ts, te) = 0..3, right = 3..6.
        let thetas = [
            None,
            Some(col(1).lt(col(5)).and(col(4).lt(col(2)))),
            Some(col(0).eq(col(3)).and(col(4).ge(col(1)))),
            Some(dur(1, 2).between(col(3), col(5))),
            Some(col(0).eq(col(3)).or(col(1).is_null()).not()),
            Some(col(1).add(col(4)).lt(lit(9i64))),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (mut oks, mut errs) = (0, 0);
        for _ in 0..20 {
            let (l, r) = (random_rel(&mut rng, 12), random_rel(&mut rng, 9));
            for theta in &thetas {
                for jt in ALL_JOIN_TYPES {
                    let got = run(&l, &r, jt, theta.clone());
                    let want = brute_join(&l, &r, jt, theta.as_ref());
                    let show = |x: &EngineResult<Relation>| {
                        x.as_ref().map(rows_of).map_err(|e| e.to_string())
                    };
                    assert_eq!(show(&got), show(&want), "{jt:?} on {theta:?}");
                    if got.is_ok() {
                        oks += 1;
                    } else {
                        errs += 1;
                    }
                }
            }
        }
        assert!(oks > 100 && errs > 50, "{oks} {errs}");
    }

    #[test]
    fn semi_and_anti_never_test_theta_past_the_first_match() {
        use crate::expr::lit;
        // θ = r.k = 1 OR r.v + 1 > 0: the second right row's `'x' + 1` is
        // a type error, reached only by a join that tests past the first
        // (matching) right row.
        let schema = int2_rel(("k", "v"), &[]).schema().clone();
        let l = int2_rel(("k", "v"), &[(1, 1)]);
        let r = Relation::from_values(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(5)],
                vec![Value::Int(2), Value::str("x")],
            ],
        )
        .unwrap();
        let theta = col(2).eq(lit(1i64)).or(col(3).add(lit(1i64)).gt(lit(0i64)));
        for jt in ALL_JOIN_TYPES {
            let got = run(&l, &r, jt, Some(theta.clone()));
            let want = brute_join(&l, &r, jt, Some(&theta));
            match jt {
                JoinType::Semi | JoinType::Anti => {
                    let (got, want) = (got.unwrap(), want.unwrap());
                    assert_eq!(got.rows(), want.rows(), "{jt:?}");
                    assert_eq!(got.len(), usize::from(jt == JoinType::Semi), "{jt:?}");
                }
                _ => assert!(got.is_err() && want.is_err(), "{jt:?}"),
            }
        }
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
        assert_eq!(first.value(0, 0), Value::Int(0));
    }
}
