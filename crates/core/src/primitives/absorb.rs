//! The absorb operator α (Def. 12).
//!
//! Alignment adjusts each argument tuple independently, so the reduced
//! tuple-based operators can emit *temporal duplicates*: result tuples
//! whose interval is a proper subset of a value-equivalent tuple's interval
//! (paper Example 9). α removes them in a post-processing step. Our
//! implementation also removes exact duplicate rows, which the surrounding
//! set semantics requires anyway.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::sync::Arc;

use temporal_engine::batch::{group_rows, group_runs, RowBatch, BATCH_SIZE};
use temporal_engine::exec::{collect_batch, ExecNode, ExecutionState};

use crate::primitives::adjustment::{check_interval, int_in};
use temporal_engine::plan::ExtensionNode;
use temporal_engine::prelude::*;

use crate::error::TemporalResult;
use crate::interval::Interval;
use crate::trel::TemporalRelation;

/// Quadratic reference implementation of Def. 12:
/// `α(r) = { r ∈ r | ¬∃ r' ∈ r (r.A = r'.A ∧ r.T ⊂ r'.T) }` (plus exact
/// de-duplication).
pub fn absorb_ref(r: &TemporalRelation) -> TemporalResult<TemporalRelation> {
    let mut out: Vec<(Vec<Value>, Interval)> = Vec::new();
    for (data, iv) in r.iter() {
        let absorbed = r
            .iter()
            .any(|(d2, iv2)| d2 == data && iv2.properly_contains(&iv));
        let duplicate = out
            .iter()
            .any(|(d2, iv2)| d2.as_slice() == data && *iv2 == iv);
        if !absorbed && !duplicate {
            out.push((data.to_vec(), iv));
        }
    }
    TemporalRelation::from_rows(r.data_schema(), out)
}

/// Logical extension node for α. Self-contained: groups its input itself.
#[derive(Debug)]
pub struct AbsorbNode {
    input: LogicalPlan,
    schema: Schema,
}

impl AbsorbNode {
    /// `input`'s last two columns must be the interval.
    pub fn new(input: LogicalPlan) -> AbsorbNode {
        let schema = input.schema();
        AbsorbNode { input, schema }
    }

    /// Convenience: α as a logical plan.
    pub fn plan(input: LogicalPlan) -> LogicalPlan {
        LogicalPlan::extension(Arc::new(AbsorbNode::new(input)))
    }
}

impl ExtensionNode for AbsorbNode {
    fn name(&self) -> &str {
        "Absorb"
    }

    fn inputs(&self) -> Vec<&LogicalPlan> {
        vec![&self.input]
    }

    fn with_new_inputs(&self, mut inputs: Vec<LogicalPlan>) -> Arc<dyn ExtensionNode> {
        assert_eq!(inputs.len(), 1);
        Arc::new(AbsorbNode::new(inputs.remove(0)))
    }

    fn schema(&self) -> Schema {
        self.schema.clone()
    }

    /// α has no parameters: two absorbs over equal inputs are one.
    fn same_computation(&self, other: &dyn ExtensionNode) -> bool {
        other.as_any().is::<AbsorbNode>()
    }

    fn estimate(
        &self,
        input_stats: &[temporal_engine::plan::PlanStats],
        model: &temporal_engine::plan::CostModel,
    ) -> temporal_engine::plan::PlanStats {
        // One hash-table insert per tuple to group it, then a comparison
        // per tuple within its group.
        let grouped = model.distinct(input_stats[0]);
        model.sweep(grouped, input_stats[0].rows * 0.9, 1.0)
    }

    /// Absorption groups are keyed by *all* data columns, so a selection on
    /// any of them drops whole groups and commutes with α; the interval
    /// columns decide absorption and must stay above.
    fn passthrough_column(&self, out_col: usize) -> Option<(usize, usize)> {
        (out_col + 2 < self.schema.len()).then_some((0, out_col))
    }

    fn build_exec(&self, mut children: Vec<BoxedExec>) -> EngineResult<BoxedExec> {
        Ok(Box::new(AbsorbExec::new(children.remove(0))))
    }

    fn explain(&self) -> String {
        "Absorb (α): drop value-equivalent tuples with properly contained intervals".to_string()
    }
}

/// α over its whole input: the first pull collects the input, groups the
/// rows by all data columns in a hash table (NULL = NULL) and keeps, in
/// each group, the rows whose interval no other row of the group properly
/// contains — and one row of each exact duplicate. The survivors come out
/// in input order, [`BATCH_SIZE`] rows a pull.
pub struct AbsorbExec {
    input: BoxedExec,
    /// The collected input and its surviving rows, once computed.
    out: Option<(RowBatch, Vec<u32>)>,
    pos: usize,
}

impl AbsorbExec {
    pub fn new(input: BoxedExec) -> AbsorbExec {
        AbsorbExec {
            input,
            out: None,
            pos: 0,
        }
    }
}

/// Column `c` of `b` as integers: the typed slice of a non-NULL `Int`
/// column, else row by row (a NULL or non-`Int` value is a `what` error).
fn endpoints<'a>(b: &'a RowBatch, c: usize, what: &str) -> EngineResult<Cow<'a, [i64]>> {
    match b.column(c).ints() {
        Some((v, None)) => Ok(Cow::Borrowed(v)),
        _ => (0..b.len()).map(|i| int_in(b, c, i, what)).collect(),
    }
}

/// The rows of `all` (data columns, then `ts`, `te`) that α keeps,
/// ascending. Within a group of value-equivalent rows in (`ts` ascending,
/// `te` descending) order, a row is kept iff its `te` exceeds every `te`
/// before it: a row whose `te` does not is covered by an earlier one —
/// properly contained, or an exact duplicate.
fn survivors(all: &RowBatch) -> EngineResult<Vec<u32>> {
    let (n, data) = (all.len(), all.width() - 2);
    let ts = endpoints(all, data, "absorb ts")?;
    let te = endpoints(all, data + 1, "absorb te")?;
    for i in 0..n {
        check_interval("absorb", ts[i], te[i])?;
    }
    let (group, groups) = group_rows(&all.columns()[..data], n);
    let (starts, mut order) = group_runs(&group, groups);
    let mut keep = vec![false; n];
    for w in starts.windows(2) {
        let run = &mut order[w[0] as usize..w[1] as usize];
        run.sort_unstable_by_key(|&i| (ts[i as usize], Reverse(te[i as usize])));
        let mut max_te = None;
        for &i in run.iter() {
            let e = te[i as usize];
            if max_te.is_none_or(|m| e > m) {
                keep[i as usize] = true;
                max_te = Some(e);
            }
        }
    }
    Ok((0..n as u32).filter(|&i| keep[i as usize]).collect())
}

impl ExecNode for AbsorbExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        if self.out.is_none() {
            let all = collect_batch(self.input.as_mut(), state)?;
            let keep = survivors(&all)?;
            self.out = Some((all, keep));
        }
        let (all, keep) = self.out.as_ref().expect("computed above");
        let end = (self.pos + BATCH_SIZE).min(keep.len());
        let chunk = &keep[self.pos..end];
        self.pos = end;
        Ok((!chunk.is_empty()).then(|| all.gather(chunk)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::TemporalPlan;

    /// α as a one-operator plan.
    fn absorbed(r: &TemporalRelation) -> TemporalResult<TemporalRelation> {
        TemporalPlan::scan(r).absorb().execute(&Planner::default())
    }

    fn rel(rows: &[(&str, i64, i64)]) -> TemporalRelation {
        TemporalRelation::from_rows(
            Schema::new(vec![Column::new("v", DataType::Str)]),
            rows.iter()
                .map(|&(v, s, e)| (vec![Value::str(v)], Interval::of(s, e)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn removes_properly_contained_value_equivalent_tuples() {
        // Paper Example 9: (a,c,[1,9)) absorbs (a,c,[3,7)).
        let r = rel(&[("ac", 1, 9), ("ac", 3, 7), ("ad", 3, 7)]);
        let expected = rel(&[("ac", 1, 9), ("ad", 3, 7)]);
        let fast = absorbed(&r).unwrap();
        let slow = absorb_ref(&r).unwrap();
        assert!(fast.same_set(&expected), "{fast}");
        assert!(slow.same_set(&expected));
    }

    #[test]
    fn keeps_equal_intervals_and_overlapping_non_contained() {
        // equal intervals: kept once; overlap without containment: both.
        let r = rel(&[("x", 0, 5), ("x", 3, 8)]);
        let out = absorbed(&r).unwrap();
        assert!(out.same_set(&r));
    }

    #[test]
    fn dedups_exact_duplicates() {
        let rel_dup = Relation::from_values(
            crate::trel::temporal_schema(vec![Column::new("v", DataType::Str)]),
            vec![
                vec![Value::str("x"), Value::Int(0), Value::Int(5)],
                vec![Value::str("x"), Value::Int(0), Value::Int(5)],
            ],
        )
        .unwrap();
        let r = TemporalRelation::new(rel_dup).unwrap();
        let out = absorbed(&r).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn same_start_longer_interval_absorbs_shorter() {
        let r = rel(&[("x", 0, 9), ("x", 0, 5)]);
        let out = absorbed(&r).unwrap();
        assert!(out.same_set(&rel(&[("x", 0, 9)])));
    }

    #[test]
    fn same_end_earlier_start_absorbs() {
        let r = rel(&[("x", 0, 9), ("x", 4, 9)]);
        let out = absorbed(&r).unwrap();
        assert!(out.same_set(&rel(&[("x", 0, 9)])));
    }

    #[test]
    fn chains_of_absorption() {
        let r = rel(&[("x", 0, 10), ("x", 1, 9), ("x", 2, 8), ("y", 2, 8)]);
        let out = absorbed(&r).unwrap();
        assert!(out.same_set(&rel(&[("x", 0, 10), ("y", 2, 8)])));
    }

    #[test]
    fn fast_and_reference_agree_on_tricky_inputs() {
        let cases: Vec<Vec<(&str, i64, i64)>> = vec![
            vec![],
            vec![("a", 0, 1)],
            vec![("a", 0, 5), ("a", 5, 9)],
            vec![("a", 0, 5), ("b", 0, 5), ("a", 1, 4), ("b", 1, 6)],
            vec![("a", 0, 8), ("a", 0, 8), ("a", 2, 8), ("a", 0, 3)],
        ];
        for rows in cases {
            let r = rel(&rows);
            let fast = absorbed(&r).unwrap();
            let slow = absorb_ref(&r).unwrap();
            assert!(fast.same_set(&slow), "case {rows:?}: {fast} vs {slow}");
        }
    }

    /// A bag over `(k Int, name Str)` — NULLs in both, few distinct values —
    /// or over no data column, with intervals in `[0, 12)`: value-equivalent
    /// tuples that overlap, nest, share a start or an end, repeat exactly,
    /// and chains of containment, in random order.
    fn random_bag(seed: u64, with_data: bool) -> TemporalRelation {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut pick = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as i64
        };
        let mut rows: Vec<(Vec<Value>, Interval)> = Vec::new();
        for _ in 0..pick(24) {
            let data = match with_data {
                false => vec![],
                true => vec![
                    [Value::Null, Value::Int(1), Value::Int(2)][pick(3) as usize].clone(),
                    [Value::Null, Value::str("a"), Value::str("")][pick(3) as usize].clone(),
                ],
            };
            let s = pick(11);
            let iv = Interval::of(s, s + 1 + pick(12 - s as u64 - 1));
            // Now and then a chain of containment around it, or a copy.
            match pick(5) {
                0 => {
                    for d in 1..=pick(3) {
                        rows.push((data.clone(), Interval::of(iv.start() - d, iv.end() + d)));
                    }
                }
                1 => rows.push((data.clone(), iv)),
                _ => {}
            }
            rows.push((data, iv));
        }
        let cols = match with_data {
            false => vec![],
            true => vec![
                Column::new("k", DataType::Int),
                Column::new("name", DataType::Str),
            ],
        };
        TemporalRelation::from_rows(Schema::new(cols), rows).unwrap()
    }

    /// α against its quadratic reference and the snapshot oracle: the
    /// same rows, each once, and at every time point the same snapshot as
    /// its input (α drops only tuples another one covers).
    #[test]
    fn hashed_absorb_agrees_with_the_reference_and_keeps_every_snapshot() {
        use crate::reference::snapshot_eval;
        use crate::semantics::TemporalOp;
        for seed in 0..400 {
            let r = random_bag(seed, seed % 4 != 0);
            let got = absorbed(&r).unwrap();
            let want = absorb_ref(&r).unwrap();
            assert!(
                got.same_set(&want),
                "seed {seed}: {r}\ngot {got}\nwant {want}"
            );
            assert_eq!(
                got.len(),
                want.len(),
                "seed {seed}: a duplicate survived: {got}"
            );
            let all = TemporalOp::Projection {
                attrs: (0..r.data_width()).collect(),
            };
            for t in r.endpoints() {
                let mut before = snapshot_eval(&all, &[&r], t).unwrap();
                let mut after = snapshot_eval(&all, &[&got], t).unwrap();
                before.sort();
                after.sort();
                assert_eq!(before, after, "seed {seed}, snapshot at {t}: {r}\n{got}");
            }
        }
    }

    #[test]
    fn a_bad_bound_is_an_in_band_error() {
        let schema = crate::trel::temporal_schema(vec![Column::new("v", DataType::Int)]);
        let run = |ts: Value, te: Value| {
            let rows = vec![
                vec![Value::Int(1), Value::Int(0), Value::Int(4)],
                vec![Value::Int(1), ts, te],
            ];
            let rel = Relation::from_values(schema.clone(), rows).unwrap();
            let plan = AbsorbNode::plan(LogicalPlan::inline_scan(rel));
            Planner::default()
                .run(&plan, &temporal_engine::catalog::Catalog::new())
                .unwrap_err()
                .to_string()
        };
        let err = run(Value::Null, Value::Int(3));
        assert!(err.contains("absorb ts: expected int, got null"), "{err}");
        let err = run(Value::Int(2), Value::str("x"));
        assert!(err.contains("absorb te: expected int, got str"), "{err}");
        let err = run(Value::Int(5), Value::Int(5));
        assert!(err.contains("absorb: empty interval [5, 5)"), "{err}");
    }

    #[test]
    fn absorb_ref_ignores_different_values() {
        let r = rel(&[("a", 0, 10), ("b", 2, 4)]);
        let out = absorb_ref(&r).unwrap();
        assert!(out.same_set(&r));
    }
}
