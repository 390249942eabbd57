//! Hash aggregation ϑ: group rows and fold aggregate functions.
//!
//! Output layout: group expressions first, then one column per aggregate.
//! Grouping equality is structural (NULL groups with NULL), matching the
//! paper's set semantics where ω values group together. Group keys are
//! evaluated a batch at a time and grouped by the engine's one
//! [`KeyTable`], which keeps each group's first key row in typed columns:
//! those columns *are* the output's key columns, so no key is ever a
//! `Value` and no output row is built. `COUNT(*)` is a count per group;
//! the other calls fold an [`Acc`] per group.

use std::sync::Arc;

use crate::batch::{ColumnVec, KeyEq, KeyTable, RowBatch};
use crate::error::{EngineError, EngineResult};
use crate::exec::{next_chunk, BoxedExec, ExecNode, ExecutionState};
use crate::expr::{AggCall, AggFunc, Expr};
use crate::schema::{Column, DataType, Schema};
use crate::tuple::Row;
use crate::value::{num_add, Value};

/// The accumulator of a call with an argument, per group.
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    Sum(Option<Value>),
    Avg { sum: f64, count: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::CountStar | AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    /// Fold in `v`; NULLs are skipped.
    fn update(&mut self, v: &Value) -> EngineResult<()> {
        use std::cmp::Ordering::{Greater, Less};
        if v.is_null() {
            return Ok(());
        }
        let beats =
            |cur: &Option<Value>, want| cur.as_ref().is_none_or(|c| v.sql_cmp(c) == Some(want));
        match self {
            Acc::Count(c) => *c += 1,
            Acc::Sum(acc) => {
                *acc = Some(match acc.take() {
                    None => v.clone(),
                    Some(cur) => num_add(&cur, v)?,
                })
            }
            Acc::Avg { sum, count } => {
                *sum += v.as_double().ok_or_else(|| {
                    EngineError::TypeError(format!("avg over non-numeric {}", v.type_name()))
                })?;
                *count += 1;
            }
            Acc::Min(acc) if beats(acc, Less) => *acc = Some(v.clone()),
            Acc::Max(acc) if beats(acc, Greater) => *acc = Some(v.clone()),
            Acc::Min(_) | Acc::Max(_) => {}
        }
        Ok(())
    }

    fn finish(&self) -> Value {
        match self {
            Acc::Count(c) => Value::Int(*c),
            Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
            Acc::Avg { count: 0, .. } => Value::Null,
            Acc::Avg { sum, count } => Value::Double(sum / *count as f64),
        }
    }
}

/// One aggregate call's state, a slot per group.
enum Slots {
    /// `COUNT(*)` (the one call without an argument): a count per group.
    Count(Vec<i64>),
    Acc(Vec<Acc>),
}

/// The one aggregation kernel, behind [`HashAggregateExec`] and
/// [`aggregate_rows`]: a [`KeyTable`] in group mode numbers each input
/// row's group, and every aggregate call keeps a slot per group, fed a
/// column at a time.
struct Grouping<'a> {
    group: &'a [Expr],
    aggs: &'a [AggCall],
    table: KeyTable,
    slots: Vec<Slots>,
}

impl<'a> Grouping<'a> {
    fn new(group: &'a [Expr], aggs: &'a [AggCall]) -> Self {
        let slots = aggs.iter().map(|a| match a.arg {
            None => Slots::Count(Vec::new()),
            Some(_) => Slots::Acc(Vec::new()),
        });
        let (table, slots) = (KeyTable::new(KeyEq::Group, group.len()), slots.collect());
        Grouping {
            group,
            aggs,
            table,
            slots,
        }
    }

    /// Fold one batch in.
    fn add(&mut self, batch: &RowBatch) -> EngineResult<()> {
        let keys = self.group.iter().map(|g| g.eval_batch(batch));
        let ids = self
            .table
            .group(&keys.collect::<EngineResult<Vec<_>>>()?, batch.len());
        let n = self.table.len();
        for (slots, call) in self.slots.iter_mut().zip(self.aggs) {
            match (slots, &call.arg) {
                (Slots::Count(counts), _) => {
                    counts.resize(n, 0);
                    ids.iter().for_each(|&g| counts[g as usize] += 1);
                }
                (Slots::Acc(accs), Some(arg)) => {
                    accs.resize_with(n, || Acc::new(call.func));
                    let arg = arg.eval_batch(batch)?;
                    for (i, &g) in ids.iter().enumerate() {
                        accs[g as usize].update(&arg.value(i))?;
                    }
                }
                (Slots::Acc(_), None) => unreachable!("only COUNT(*) has no argument"),
            }
        }
        Ok(())
    }

    /// The group values then one value per call, a column each, group by
    /// group in first-seen order. A global aggregate (`group` empty) over
    /// zero rows yields one group of identity values.
    fn finish(self) -> (usize, Vec<Arc<ColumnVec>>) {
        let mut columns = self.table.keys(0..self.table.len());
        let n = self.table.len().max(usize::from(self.group.is_empty()));
        columns.extend(self.slots.into_iter().zip(self.aggs).map(|(slots, call)| {
            Arc::new(match slots {
                Slots::Count(mut counts) => {
                    counts.resize(n, 0);
                    ColumnVec::from_ints(counts)
                }
                Slots::Acc(mut accs) => {
                    accs.resize_with(n, || Acc::new(call.func));
                    ColumnVec::from_values(accs.iter().map(Acc::finish))
                }
            })
        }));
        (n, columns)
    }
}

/// Aggregate a row set directly — the reference oracle's entry, running
/// the kernel of [`HashAggregateExec`] over one batch of `rows`, so both
/// use byte-identical aggregate semantics. Output rows are `group values
/// ++ aggregate values`, in first-seen group order. A global aggregate
/// (`group` empty) over zero rows yields one row of identity values.
pub fn aggregate_rows(rows: &[Row], group: &[Expr], aggs: &[AggCall]) -> EngineResult<Vec<Row>> {
    let mut grouping = Grouping::new(group, aggs);
    if let Some(first) = rows.first() {
        // Expressions read columns by position; the names are placeholders.
        let cols = (0..first.len()).map(|i| Column::new(format!("c{i}"), DataType::Int));
        grouping.add(&RowBatch::from_rows(Schema::new(cols.collect()), rows))?;
    }
    let (n, columns) = grouping.finish();
    Ok((0..n)
        .map(|i| columns.iter().map(|c| c.value(i)).collect())
        .collect())
}

/// Hash-based grouped aggregation. Folds its input a batch at a time on
/// first pull and emits groups in first-seen input order (deterministic).
pub struct HashAggregateExec {
    input: BoxedExec,
    group: Vec<Expr>,
    aggs: Vec<AggCall>,
    schema: Schema,
    out: Option<(RowBatch, usize)>,
}

impl HashAggregateExec {
    pub fn new(input: BoxedExec, group: Vec<Expr>, aggs: Vec<AggCall>, schema: Schema) -> Self {
        debug_assert_eq!(schema.len(), group.len() + aggs.len());
        HashAggregateExec {
            input,
            group,
            aggs,
            schema,
            out: None,
        }
    }
}

impl ExecNode for HashAggregateExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Fold the input a batch at a time, then emit the groups a chunk at a
    /// time (group order is first-seen input order).
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        if self.out.is_none() {
            let mut grouping = Grouping::new(&self.group, &self.aggs);
            while let Some(batch) = self.input.next_batch(state)? {
                state.check_cancelled()?;
                grouping.add(&batch)?;
            }
            let (n, columns) = grouping.finish();
            self.out = Some((RowBatch::new(self.schema.clone(), n, columns), 0));
        }
        let (all, pos) = self.out.as_mut().expect("initialized");
        Ok(next_chunk(all, pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::int2_rel;
    use crate::exec::{collect, ExecutionState, SeqScanExec};
    use crate::expr::col;
    use crate::relation::Relation;
    use crate::schema::{Column, DataType};

    fn agg_schema(names: &[(&str, DataType)]) -> Schema {
        Schema::new(names.iter().map(|(n, t)| Column::new(*n, *t)).collect())
    }

    #[test]
    fn grouped_aggregates() {
        let rel = int2_rel(("g", "v"), &[(1, 10), (2, 5), (1, 20), (2, 7)]).into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let agg = Box::new(HashAggregateExec::new(
            scan,
            vec![col(0)],
            vec![
                AggCall::count_star(),
                AggCall::new(AggFunc::Sum, col(1)),
                AggCall::new(AggFunc::Avg, col(1)),
                AggCall::new(AggFunc::Min, col(1)),
                AggCall::new(AggFunc::Max, col(1)),
            ],
            agg_schema(&[
                ("g", DataType::Int),
                ("cnt", DataType::Int),
                ("sum", DataType::Int),
                ("avg", DataType::Double),
                ("min", DataType::Int),
                ("max", DataType::Int),
            ]),
        ));
        let out = collect(agg, &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 2);
        // first-seen order: group 1 then group 2
        assert_eq!(
            out.rows()[0].to_vec(),
            vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(30),
                Value::Double(15.0),
                Value::Int(10),
                Value::Int(20)
            ]
        );
        assert_eq!(out.rows()[1][2], Value::Int(12));
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let rel = Relation::from_values(
            Schema::new(vec![Column::new("v", DataType::Int)]),
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(3)]],
        )
        .unwrap()
        .into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let agg = Box::new(HashAggregateExec::new(
            scan,
            vec![],
            vec![
                AggCall::count_star(),
                AggCall::new(AggFunc::Count, col(0)),
                AggCall::new(AggFunc::Sum, col(0)),
            ],
            agg_schema(&[
                ("cs", DataType::Int),
                ("c", DataType::Int),
                ("s", DataType::Int),
            ]),
        ));
        let out = collect(agg, &ExecutionState::default()).unwrap();
        assert_eq!(
            out.rows()[0].to_vec(),
            vec![Value::Int(3), Value::Int(2), Value::Int(4)]
        );
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let rel = int2_rel(("g", "v"), &[]).into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let agg = Box::new(HashAggregateExec::new(
            scan,
            vec![],
            vec![AggCall::count_star(), AggCall::new(AggFunc::Max, col(1))],
            agg_schema(&[("c", DataType::Int), ("m", DataType::Int)]),
        ));
        let out = collect(agg, &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(0));
        assert!(out.rows()[0][1].is_null());
    }

    #[test]
    fn grouped_aggregate_over_empty_input_is_empty() {
        let rel = int2_rel(("g", "v"), &[]).into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let agg = Box::new(HashAggregateExec::new(
            scan,
            vec![col(0)],
            vec![AggCall::count_star()],
            agg_schema(&[("g", DataType::Int), ("c", DataType::Int)]),
        ));
        let out = collect(agg, &ExecutionState::default()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn null_group_keys_group_together() {
        let rel = Relation::from_values(
            Schema::new(vec![
                Column::new("g", DataType::Int),
                Column::new("v", DataType::Int),
            ]),
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Null, Value::Int(2)],
            ],
        )
        .unwrap()
        .into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let agg = Box::new(HashAggregateExec::new(
            scan,
            vec![col(0)],
            vec![AggCall::new(AggFunc::Sum, col(1))],
            agg_schema(&[("g", DataType::Int), ("s", DataType::Int)]),
        ));
        let out = collect(agg, &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][1], Value::Int(3));
    }
}
