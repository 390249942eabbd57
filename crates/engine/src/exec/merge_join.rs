//! Sort-merge join on equi keys with an optional residual predicate.
//!
//! The planner guarantees both inputs arrive sorted ascending (NULLs first)
//! on the key columns. Supports Inner, Left and Full joins; the planner
//! rewrites Right joins by swapping inputs. Keys match under SQL `=`, as
//! in every join (a NULL never; an `Int` and the `Double` it equals do),
//! compared in place on the key columns.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::batch::{ColumnData, ColumnVec, RowBatch, NULL_ROW};
use crate::error::EngineResult;
use crate::exec::{
    collect_batch, join_left_row, next_chunk, BoxedExec, ExecNode, ExecutionState, JoinPairs,
};
use crate::expr::{Expr, JoinPred};
use crate::plan::JoinType;
use crate::schema::Schema;

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
        let keys = MergeKeys::new(self.keys.iter().map(|&(a, b)| (l.column(a), r.column(b))));
        let (lk, rk) = (&keys.left, &keys.right);
        let has_null = |k: &[&ColumnVec], i: usize| k.iter().any(|c| c.is_null(i));
        let outer_left = matches!(self.join_type, JoinType::Left | JoinType::Full);
        let full = self.join_type == JoinType::Full;

        let mut out = JoinPairs::default();
        const PAD: usize = NULL_ROW as usize;
        // Rows with NULL keys can never match; handle per join type.
        // They sort to the front (NULLs first), but a NULL may appear in a
        // later key column, so partition explicitly.
        let (l_null, l_rows): (Vec<usize>, Vec<usize>) =
            (0..l.len()).partition(|&i| has_null(lk, i));
        let (r_null, r_rows): (Vec<usize>, Vec<usize>) =
            (0..r.len()).partition(|&i| has_null(rk, i));
        if outer_left {
            l_null.iter().for_each(|&i| out.push(i, PAD));
        }
        if full {
            r_null.iter().for_each(|&i| out.push(PAD, i));
        }

        let mut pred = self.residual.bind(&l, &r);
        let (mut li, mut ri) = (0usize, 0usize);
        while li < l_rows.len() && ri < r_rows.len() {
            let (lrow, rrow) = (l_rows[li], r_rows[ri]);
            match keys.cmp(lk, lrow, rk, rrow) {
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
                    while lj < l_rows.len() && keys.cmp(lk, l_rows[lj], lk, lrow).is_eq() {
                        lj += 1;
                    }
                    let mut rj = ri + 1;
                    while rj < r_rows.len() && keys.cmp(rk, r_rows[rj], rk, rrow).is_eq() {
                        rj += 1;
                    }
                    let group = &r_rows[ri..rj];
                    let mut r_matched = vec![false; group.len()];
                    for &lrow in &l_rows[li..lj] {
                        let cands = group.iter().copied();
                        join_left_row(
                            lrow,
                            cands.filter(|&rrow| keys.rest_eq(lrow, rrow)),
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

/// The key columns of both sides and how the merge compares them. The
/// leading `exact` pairs hold one type on both sides, so the structural
/// order decides and its equality is SQL `=`. The next pair compares
/// numbers by value, `Int` and `Double` alike — an order the inputs' sort
/// refines, so its equal keys stay adjacent — and it and every later pair
/// are tested with SQL `=` pair by pair.
struct MergeKeys<'a> {
    left: Vec<&'a ColumnVec>,
    right: Vec<&'a ColumnVec>,
    exact: usize,
}

impl<'a> MergeKeys<'a> {
    fn new(pairs: impl Iterator<Item = (&'a Arc<ColumnVec>, &'a Arc<ColumnVec>)>) -> Self {
        let (left, right): (Vec<&ColumnVec>, Vec<&ColumnVec>) =
            pairs.map(|(a, b)| (a.as_ref(), b.as_ref())).unzip();
        let one_type = |(a, b): &(&&ColumnVec, &&ColumnVec)| {
            std::mem::discriminant(a.data()) == std::mem::discriminant(b.data())
                && !matches!(a.data(), ColumnData::Mixed(_))
        };
        let exact = left.iter().zip(&right).take_while(one_type).count();
        MergeKeys { left, right, exact }
    }

    /// Row `i` of key columns `a` against row `j` of `b` (either side's).
    fn cmp(&self, a: &[&ColumnVec], i: usize, b: &[&ColumnVec], j: usize) -> Ordering {
        let structural = (0..self.exact).map(|k| a[k].cmp_at(i, b[k], j));
        let next = a.get(self.exact).zip(b.get(self.exact));
        let by_value = next.map(|(x, y)| {
            let (x, y) = (x.value(i), y.value(j));
            match (x.as_double(), y.as_double()) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                _ => x.cmp(&y),
            }
        });
        structural
            .chain(by_value)
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Are the keys past the exact ones SQL-equal for the pair `(li, ri)`?
    fn rest_eq(&self, li: usize, ri: usize) -> bool {
        (self.exact..self.left.len()).all(|k| self.left[k].join_eq_at(li, self.right[k], ri))
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
