//! Sweep-based interval overlap join.
//!
//! Implements the paper's *future work* direction (Sec. 8: "investigate
//! indexing or merge sort techniques to improve the performance of the
//! temporal primitives for cases when conventional join techniques cannot
//! be evaluated efficiently"): when a join condition is an interval
//! overlap `l.ts < r.te ∧ r.ts < l.te` **without** useful equi keys, the
//! generic engine falls back to a quadratic nested loop. This operator
//! sorts both inputs by interval start and sweeps, touching only the
//! overlapping pairs plus bookkeeping — `O(n log n + m log m + matches)`
//! for well-behaved inputs.
//!
//! Disabled for the paper-faithful configuration
//! (`PlannerConfig::paper()`); the default planner auto-considers it when
//! it detects the overlap pattern, and the ablation bench measures the
//! improvement.
//!
//! The sweep is **incremental**: both inputs are materialized and sorted
//! (inherent to a sort-based sweep), but output is produced one left row
//! at a time, so working memory beyond the inputs stays proportional to
//! the active window — never to the (potentially quadratic) output.

use crate::batch::{RowBatch, BATCH_SIZE, NULL_ROW};
use crate::error::EngineResult;
use crate::exec::{collect_batch, join_left_row, BoxedExec, ExecNode, ExecutionState, JoinPairs};
use crate::expr::{BoundJoin, Expr, JoinPred};
use crate::plan::JoinType;
use crate::schema::Schema;

/// One side of the sweep: the materialized rows, their endpoints, and the
/// start-order permutation.
struct SweepSide {
    rows: RowBatch,
    /// `None` for rows with NULL (or non-int) endpoints — they never match.
    pts: Vec<Option<(i64, i64)>>,
    order: Vec<usize>,
}

impl SweepSide {
    fn new(rows: RowBatch, ts: usize, te: usize) -> SweepSide {
        let (ts, te) = (rows.column(ts), rows.column(te));
        let pts: Vec<Option<(i64, i64)>> = (0..rows.len())
            .map(|i| Some((ts.int_at(i)?, te.int_at(i)?)))
            .collect();
        // Sort indices by interval start (NULL-endpoint rows sort first
        // and are handled as never-matching).
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| pts[i].map(|(s, _)| s));
        SweepSide { rows, pts, order }
    }
}

/// Both sides and the sweep's cursor, built on first pull.
struct SweepState {
    l: SweepSide,
    r: SweepSide,
    cursor: Cursor,
}

/// The sweep's mutable cursor state.
#[derive(Default)]
struct Cursor {
    /// Position in `l.order` of the next left row to process.
    next_l: usize,
    /// Position in `r.order` of the next right row to admit.
    next_r: usize,
    /// Active right candidates (their start precedes the current left
    /// end); pruned of intervals that ended before the current left
    /// start — valid because left starts are non-decreasing.
    active: Vec<usize>,
}

/// Interval overlap join (Inner or Left). Column indices address each
/// side's own row; the overlap condition is
/// `left[l_ts] < right[r_te] && right[r_ts] < left[l_te]`, with an
/// optional residual over `left ++ right`, tested on each overlapping pair.
pub struct IntervalJoinExec {
    left: BoxedExec,
    right: BoxedExec,
    l_ts: usize,
    l_te: usize,
    r_ts: usize,
    r_te: usize,
    residual: JoinPred,
    join_type: JoinType,
    schema: Schema,
    state: Option<SweepState>,
}

impl IntervalJoinExec {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        left: BoxedExec,
        right: BoxedExec,
        l_ts: usize,
        l_te: usize,
        r_ts: usize,
        r_te: usize,
        residual: Option<Expr>,
        join_type: JoinType,
    ) -> Self {
        assert!(
            matches!(join_type, JoinType::Inner | JoinType::Left),
            "interval join supports Inner/Left, got {join_type:?}"
        );
        let schema = left.schema().concat(right.schema());
        IntervalJoinExec {
            left,
            right,
            l_ts,
            l_te,
            r_ts,
            r_te,
            residual: JoinPred::new(residual),
            join_type,
            schema,
            state: None,
        }
    }

    /// Materialize and sort both sides (once).
    fn ensure_state(&mut self, state: &ExecutionState) -> EngineResult<()> {
        if self.state.is_some() {
            return Ok(());
        }
        let l_rows = collect_batch(self.left.as_mut(), state)?;
        let r_rows = collect_batch(self.right.as_mut(), state)?;
        self.state = Some(SweepState {
            l: SweepSide::new(l_rows, self.l_ts, self.l_te),
            r: SweepSide::new(r_rows, self.r_ts, self.r_te),
            cursor: Cursor::default(),
        });
        Ok(())
    }
}

impl Cursor {
    /// Advance the sweep over **one** left row, appending its join output
    /// to `out`. Returns `false` when the left side is exhausted.
    fn sweep_one_left(
        &mut self,
        (l, r): (&SweepSide, &SweepSide),
        pred: &mut BoundJoin<'_>,
        join_type: JoinType,
        out: &mut JoinPairs,
    ) -> EngineResult<bool> {
        if self.next_l >= l.order.len() {
            return Ok(false);
        }
        let li = l.order[self.next_l];
        self.next_l += 1;
        let Some((lts, lte)) = l.pts[li] else {
            if join_type == JoinType::Left {
                out.push(li, NULL_ROW as usize);
            }
            return Ok(true);
        };
        // Admit right rows starting before this left interval ends.
        while self.next_r < r.order.len() {
            let j = r.order[self.next_r];
            match r.pts[j] {
                Some((rts, _)) if rts < lte => {
                    self.active.push(j);
                    self.next_r += 1;
                }
                Some(_) => break,
                None => {
                    self.next_r += 1; // NULL endpoints never match
                }
            }
        }
        // Drop candidates that ended at or before this left start —
        // they can never match later lefts either (starts ascend).
        let r_pts = &r.pts;
        self.active.retain(|&j| r_pts[j].expect("admitted").1 > lts);

        // `rte > lts` holds by the retain; re-check the start side because
        // left ends are not monotonic.
        let overlapping = self.active.iter().copied().filter(|&j| {
            let (rts, rte) = r_pts[j].expect("admitted");
            rts < lte && rte > lts
        });
        join_left_row(li, overlapping, pred, join_type, |_| {}, out)?;
        Ok(true)
    }
}

impl ExecNode for IntervalJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Streaming sweep — advance over left rows until a batch worth of
    /// output has accumulated.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        self.ensure_state(state)?;
        let SweepState { l, r, cursor } = self.state.as_mut().expect("state built");
        let mut pred = self.residual.bind(&l.rows, &r.rows);
        let mut out = JoinPairs::default();
        while out.len() < BATCH_SIZE {
            if !cursor.sweep_one_left((l, r), &mut pred, self.join_type, &mut out)? {
                break;
            }
        }
        Ok(out.into_batch(&self.schema, &l.rows, &r.rows, self.join_type))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::brute_join;
    use crate::exec::{collect, ExecutionState, SeqScanExec};
    use crate::expr::col;
    use crate::relation::Relation;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    fn rel(rows: &[(i64, i64, i64)]) -> Relation {
        Relation::from_values(
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("ts", DataType::Int),
                Column::new("te", DataType::Int),
            ]),
            rows.iter()
                .map(|&(k, s, e)| vec![Value::Int(k), Value::Int(s), Value::Int(e)])
                .collect(),
        )
        .unwrap()
    }

    fn scan(r: &Relation) -> BoxedExec {
        Box::new(SeqScanExec::new(r.clone().into_shared()))
    }

    fn run_sweep(l: &Relation, r: &Relation, jt: JoinType, residual: Option<Expr>) -> Relation {
        let node = IntervalJoinExec::new(scan(l), scan(r), 1, 2, 1, 2, residual, jt);
        collect(Box::new(node), &ExecutionState::default()).unwrap()
    }

    /// Same join by definition (overlap ∧ residual), as the oracle.
    fn run_brute(l: &Relation, r: &Relation, jt: JoinType, residual: Option<Expr>) -> Relation {
        let overlap = col(1).lt(col(5)).and(col(4).lt(col(2)));
        let cond = match residual {
            Some(res) => overlap.and(res),
            None => overlap,
        };
        brute_join(l, r, jt, Some(&cond)).unwrap()
    }

    #[test]
    fn agrees_with_brute_force() {
        let l = rel(&[(1, 0, 5), (2, 3, 9), (3, 10, 12), (4, 1, 2)]);
        let r = rel(&[(7, 4, 6), (8, 0, 1), (9, 11, 15), (10, 2, 3)]);
        for jt in [JoinType::Inner, JoinType::Left] {
            let sweep = run_sweep(&l, &r, jt, None);
            let oracle = run_brute(&l, &r, jt, None);
            assert!(sweep.same_bag(&oracle), "{jt:?}:\n{sweep}\nvs\n{oracle}");
        }
    }

    #[test]
    fn agrees_with_brute_force_with_residual() {
        let l = rel(&[(1, 0, 5), (2, 3, 9), (1, 6, 8)]);
        let r = rel(&[(1, 4, 6), (2, 0, 10), (3, 5, 7)]);
        let residual = Some(col(0).eq(col(3))); // k = k
        for jt in [JoinType::Inner, JoinType::Left] {
            let sweep = run_sweep(&l, &r, jt, residual.clone());
            let oracle = run_brute(&l, &r, jt, residual.clone());
            assert!(sweep.same_bag(&oracle), "{jt:?}");
        }
    }

    #[test]
    fn randomized_agreement() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let mk = |rng: &mut StdRng| {
                let rows: Vec<(i64, i64, i64)> = (0..rng.gen_range(0..25))
                    .map(|i| {
                        let s = rng.gen_range(0..30);
                        (i % 4, s, s + rng.gen_range(1..10))
                    })
                    .collect();
                rel(&rows)
            };
            let l = mk(&mut rng);
            let r = mk(&mut rng);
            for jt in [JoinType::Inner, JoinType::Left] {
                // No residual, a compilable one (k = k), and one that is
                // not (k + k < 4: the general evaluator).
                for residual in [
                    None,
                    Some(col(0).eq(col(3))),
                    Some(col(0).add(col(3)).lt(crate::expr::lit(4i64))),
                ] {
                    let sweep = run_sweep(&l, &r, jt, residual.clone());
                    let oracle = run_brute(&l, &r, jt, residual);
                    assert!(sweep.same_bag(&oracle), "{jt:?}:\n{sweep}\nvs\n{oracle}");
                }
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let l = rel(&[(1, 0, 5)]);
        let e = rel(&[]);
        assert_eq!(run_sweep(&l, &e, JoinType::Left, None).len(), 1);
        assert_eq!(run_sweep(&e, &l, JoinType::Left, None).len(), 0);
        assert_eq!(run_sweep(&l, &e, JoinType::Inner, None).len(), 0);
    }

    #[test]
    fn sweep_is_incremental() {
        // 40 × 40 mutually overlapping intervals: 1600 matches. A pull
        // stops at the left row that fills the batch — it overshoots by
        // less than one left row's matches, never producing the whole
        // (here quadratic) output at once.
        let rows: Vec<(i64, i64, i64)> = (0..40).map(|i| (i, 0, 10)).collect();
        let (l, r) = (rel(&rows), rel(&rows));
        let mut node = IntervalJoinExec::new(scan(&l), scan(&r), 1, 2, 1, 2, None, JoinType::Inner);
        let state = ExecutionState::default();
        let first = node.next_batch(&state).unwrap().unwrap().len();
        assert!((BATCH_SIZE..BATCH_SIZE + 40).contains(&first), "{first}");
        let mut total = first;
        while let Some(batch) = node.next_batch(&state).unwrap() {
            total += batch.len();
        }
        assert_eq!(total, 1600);
    }

    #[test]
    fn null_endpoints_never_match_but_pad_in_left() {
        let l = Relation::from_values(
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("ts", DataType::Int),
                Column::new("te", DataType::Int),
            ]),
            vec![vec![Value::Int(1), Value::Null, Value::Int(5)]],
        )
        .unwrap();
        let r = rel(&[(9, 0, 10)]);
        let out = run_sweep(&l, &r, JoinType::Left, None);
        assert_eq!(out.len(), 1);
        assert!(out.rows()[0][3].is_null());
    }
}
