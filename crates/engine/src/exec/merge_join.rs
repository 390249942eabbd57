//! Sort-merge join on equi keys with an optional residual predicate.
//!
//! The planner guarantees both inputs arrive sorted ascending (NULLs first)
//! on the key columns. Supports Inner, Left and Full joins; the planner
//! rewrites Right joins by swapping inputs.

use std::cmp::Ordering;

use crate::batch::{RowBatch, NULL_ROW};
use crate::error::EngineResult;
use crate::exec::{
    collect_batch, join_left_row, next_chunk, BoxedExec, ExecNode, ExecutionState, JoinPairs,
};
use crate::expr::{Expr, JoinPred};
use crate::plan::JoinType;
use crate::schema::Schema;
use crate::value::Value;

/// Merge join over sorted inputs. Output is computed group-by-group as
/// index pairs, gathered once and streamed a chunk at a time.
pub struct MergeJoinExec {
    left: BoxedExec,
    right: BoxedExec,
    /// `(left column, right column)` pairs.
    keys: Vec<(usize, usize)>,
    /// Residual θ over `left ++ right`, tested on each equal-key pair.
    residual: JoinPred,
    join_type: JoinType,
    schema: Schema,
    out: Option<(Option<RowBatch>, usize)>,
}

impl MergeJoinExec {
    pub fn new(
        left: BoxedExec,
        right: BoxedExec,
        keys: Vec<(usize, usize)>,
        residual: Option<Expr>,
        join_type: JoinType,
    ) -> Self {
        assert!(
            matches!(join_type, JoinType::Inner | JoinType::Left | JoinType::Full),
            "merge join supports Inner/Left/Full, got {join_type:?}"
        );
        let schema = left.schema().concat(right.schema());
        MergeJoinExec {
            left,
            right,
            keys,
            residual: JoinPred::new(residual),
            join_type,
            schema,
            out: None,
        }
    }

    fn compute(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        let l = collect_batch(self.left.as_mut(), state)?;
        let r = collect_batch(self.right.as_mut(), state)?;
        let key_of = |b: &RowBatch, i: usize, right: bool| -> Vec<Value> {
            self.keys
                .iter()
                .map(|&(lc, rc)| b.value(if right { rc } else { lc }, i))
                .collect()
        };
        let lkeys: Vec<Vec<Value>> = (0..l.len()).map(|i| key_of(&l, i, false)).collect();
        let rkeys: Vec<Vec<Value>> = (0..r.len()).map(|i| key_of(&r, i, true)).collect();
        let has_null = |k: &[Value]| k.iter().any(Value::is_null);
        let outer_left = matches!(self.join_type, JoinType::Left | JoinType::Full);
        let full = self.join_type == JoinType::Full;

        let mut out = JoinPairs::default();
        const PAD: usize = NULL_ROW as usize;
        // Rows with NULL keys can never match; handle per join type.
        // They sort to the front (NULLs first), but a NULL may appear in a
        // later key column, so partition explicitly.
        let (l_null, l_rows): (Vec<usize>, Vec<usize>) =
            (0..l.len()).partition(|&i| has_null(&lkeys[i]));
        let (r_null, r_rows): (Vec<usize>, Vec<usize>) =
            (0..r.len()).partition(|&i| has_null(&rkeys[i]));
        if outer_left {
            l_null.iter().for_each(|&i| out.push(i, PAD));
        }
        if full {
            r_null.iter().for_each(|&i| out.push(PAD, i));
        }

        let mut pred = self.residual.bind(&l, &r);
        let (mut li, mut ri) = (0usize, 0usize);
        while li < l_rows.len() && ri < r_rows.len() {
            let lk = &lkeys[l_rows[li]];
            let rk = &rkeys[r_rows[ri]];
            match lk.cmp(rk) {
                Ordering::Less => {
                    if outer_left {
                        out.push(l_rows[li], PAD);
                    }
                    li += 1;
                }
                Ordering::Greater => {
                    if full {
                        out.push(PAD, r_rows[ri]);
                    }
                    ri += 1;
                }
                Ordering::Equal => {
                    // Gather the equal-key groups on both sides.
                    let mut lj = li + 1;
                    while lj < l_rows.len() && lkeys[l_rows[lj]] == *lk {
                        lj += 1;
                    }
                    let mut rj = ri + 1;
                    while rj < r_rows.len() && rkeys[r_rows[rj]] == *rk {
                        rj += 1;
                    }
                    let group = &r_rows[ri..rj];
                    let mut r_matched = vec![false; group.len()];
                    for &lrow in &l_rows[li..lj] {
                        join_left_row(
                            lrow,
                            group.iter().copied(),
                            &mut pred,
                            self.join_type,
                            |k| {
                                let pos = group.partition_point(|&g| g < k);
                                r_matched[pos] = true;
                            },
                            &mut out,
                        )?;
                    }
                    if full {
                        for (k, &rrow) in group.iter().enumerate() {
                            if !r_matched[k] {
                                out.push(PAD, rrow);
                            }
                        }
                    }
                    li = lj;
                    ri = rj;
                }
            }
        }
        if outer_left {
            l_rows[li..].iter().for_each(|&i| out.push(i, PAD));
        }
        if full {
            r_rows[ri..].iter().for_each(|&i| out.push(PAD, i));
        }
        Ok(out.into_batch(&self.schema, &l, &r, self.join_type))
    }
}

impl ExecNode for MergeJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        if self.out.is_none() {
            self.out = Some((self.compute(state)?, 0));
        }
        let (all, pos) = self.out.as_mut().expect("initialized");
        Ok(all.as_ref().and_then(|all| next_chunk(all, pos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::{brute_join, int2_rel};
    use crate::exec::{collect, ExecutionState, SeqScanExec, SortExec};
    use crate::expr::{col, SortKey};
    use crate::relation::Relation;

    fn sorted_scan(vals: &[(i64, i64)]) -> BoxedExec {
        let scan = Box::new(SeqScanExec::new(int2_rel(("k", "v"), vals).into_shared()));
        Box::new(SortExec::new(scan, vec![SortKey::asc(col(0))]))
    }

    fn run_merge(
        l: &[(i64, i64)],
        r: &[(i64, i64)],
        jt: JoinType,
        residual: Option<Expr>,
    ) -> Relation {
        let node = MergeJoinExec::new(sorted_scan(l), sorted_scan(r), vec![(0, 0)], residual, jt);
        collect(Box::new(node), &ExecutionState::default()).unwrap()
    }

    /// Same join by definition (key equality ∧ residual), as the oracle.
    fn run_brute(
        l: &[(i64, i64)],
        r: &[(i64, i64)],
        jt: JoinType,
        residual: Option<Expr>,
    ) -> Relation {
        let cond = match residual {
            None => col(0).eq(col(2)),
            Some(res) => col(0).eq(col(2)).and(res),
        };
        let rel = |vals| int2_rel(("k", "v"), vals);
        brute_join(&rel(l), &rel(r), jt, Some(&cond)).unwrap()
    }

    #[test]
    fn agrees_with_brute_force() {
        let l = [(1, 10), (2, 20), (2, 21), (4, 40), (5, 50)];
        let r = [(2, 200), (2, 201), (3, 300), (5, 500)];
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Full] {
            let m = run_merge(&l, &r, jt, None);
            let n = run_brute(&l, &r, jt, None);
            assert!(m.same_bag(&n), "join type {jt:?}: {m} vs {n}");
        }
    }

    #[test]
    fn residual_with_group_duplicates() {
        let l = [(2, 20), (2, 25), (2, 30)];
        let r = [(2, 22), (2, 28)];
        let residual = Some(col(1).lt(col(3)));
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Full] {
            let m = run_merge(&l, &r, jt, residual.clone());
            let n = run_brute(&l, &r, jt, residual.clone());
            assert!(m.same_bag(&n), "join type {jt:?}");
        }
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(run_merge(&[], &[(1, 1)], JoinType::Full, None).len(), 1);
        assert_eq!(run_merge(&[(1, 1)], &[], JoinType::Left, None).len(), 1);
        assert_eq!(run_merge(&[], &[], JoinType::Inner, None).len(), 0);
    }

    #[test]
    fn null_keys_surface_as_unmatched() {
        use crate::schema::{Column, DataType, Schema};
        use crate::value::Value;
        let rel = Relation::from_values(
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
            ]),
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Int(2), Value::Int(2)],
            ],
        )
        .unwrap()
        .into_shared();
        let l = Box::new(SeqScanExec::new(rel));
        let r = sorted_scan(&[(2, 9)]);
        let node = MergeJoinExec::new(l, r, vec![(0, 0)], None, JoinType::Left);
        let out = collect(Box::new(node), &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 2);
        let unmatched = out.rows().iter().find(|r| r[0].is_null()).unwrap();
        assert!(unmatched[2].is_null());
    }
}
