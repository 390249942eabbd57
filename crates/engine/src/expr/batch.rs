//! Vectorized expression evaluation: one expression-tree walk per batch.
//!
//! [`Expr::eval`] re-walks the expression tree for every row; in the hot
//! loops of a pipelined plan that interpretation overhead dominates.
//! [`Expr::eval_batch`] walks the tree **once** and evaluates each node
//! over a whole batch in a tight loop, producing one value column per node.
//!
//! The batch path is row-for-row identical to the row path, including the
//! short-circuit rules: the row evaluator never evaluates the right side
//! of an `AND` whose left side is `false` (so an error lurking there never
//! surfaces), never evaluates `COALESCE` arguments past the first non-NULL,
//! and stops `GREATEST`/`LEAST` at the first NULL argument. The batch
//! evaluator reproduces this with *selection masks*: each sub-expression is
//! evaluated only for the rows where the row evaluator would evaluate it;
//! unselected slots carry a NULL placeholder that no combiner reads. The
//! one permitted divergence is *which* error surfaces when several rows of
//! a batch would fail: the row path reports the first failing row, the
//! batch path the first failing expression node.

use std::sync::Arc;

use crate::batch::{ColumnData, ColumnVec, RowBatch};
use crate::error::{EngineError, EngineResult};
use crate::expr::eval::{bool_pair, eval_cmp, kleene_and, kleene_not, BatchRow, Columns};
use crate::expr::{ArithOp, CmpOp, CompiledPred, Expr, Func, PredOperand};
use crate::value::{int_arith, num_add, num_div, num_mul, num_sub, Value};

#[inline]
fn live(mask: Option<&[bool]>, i: usize) -> bool {
    mask.is_none_or(|m| m[i])
}

fn any_live(mask: Option<&[bool]>, n: usize) -> bool {
    match mask {
        None => n > 0,
        Some(m) => m.iter().any(|&x| x),
    }
}

/// An integer input of a column kernel: an `Int` column, or a literal
/// (`None`: NULL).
enum IntIn {
    Col(Arc<ColumnVec>),
    Lit(Option<i64>),
}

impl IntIn {
    /// `e` over `batch`, when it is an integer column or literal that the
    /// typed path evaluates.
    fn of(e: &Expr, batch: &RowBatch) -> EngineResult<Option<IntIn>> {
        Ok(match e {
            Expr::Lit(Value::Int(x)) => Some(IntIn::Lit(Some(*x))),
            Expr::Lit(Value::Null) => Some(IntIn::Lit(None)),
            Expr::Lit(_) => None,
            _ => e
                .eval_typed(batch)?
                .filter(|c| c.ints().is_some())
                .map(IntIn::Col),
        })
    }

    #[inline]
    fn get(&self, i: usize) -> Option<i64> {
        match self {
            IntIn::Col(c) => c.int_at(i),
            IntIn::Lit(x) => *x,
        }
    }
}

/// Row-wise `f` over integer inputs: NULL wherever an input is NULL.
fn int_kernel<T>(
    n: usize,
    ins: &[IntIn],
    mut f: impl FnMut(&[i64]) -> EngineResult<T>,
) -> EngineResult<(Vec<T>, Vec<bool>)>
where
    T: Default,
{
    let mut out = Vec::with_capacity(n);
    let mut valid = Vec::with_capacity(n);
    let mut args = vec![0i64; ins.len()];
    'rows: for i in 0..n {
        for (a, input) in args.iter_mut().zip(ins) {
            match input.get(i) {
                Some(x) => *a = x,
                None => {
                    out.push(T::default());
                    valid.push(false);
                    continue 'rows;
                }
            }
        }
        out.push(f(&args)?);
        valid.push(true);
    }
    Ok((out, valid))
}

impl Expr {
    /// Evaluate against every row of a batch at once. Returns one column,
    /// row for row exactly what per-row [`Expr::eval`] calls would produce.
    /// A column reference is the input column itself (an `Arc` clone);
    /// integer arithmetic, comparisons, `DUR`, `GREATEST`/`LEAST` and
    /// `COALESCE` over `Int` columns run as `i64` kernels through the
    /// engine's one checked integer arithmetic ([`int_arith`]).
    pub fn eval_batch(&self, batch: &RowBatch) -> EngineResult<Arc<ColumnVec>> {
        if let Some(c) = self.eval_typed(batch)? {
            return Ok(c);
        }
        let vals = self.eval_batch_masked(batch, None)?;
        Ok(Arc::new(ColumnVec::from_values(vals)))
    }

    /// Evaluate as a predicate over a batch: NULL ⇒ `false`, as in SQL
    /// `WHERE`/`ON` clauses (the batch counterpart of [`Expr::eval_pred`]).
    ///
    /// Predicates that are conjunctions of simple comparisons (the shape of
    /// every reduced temporal condition: equi residuals, interval overlaps,
    /// split-point bounds) take the compiled path, bound to the batch's
    /// `i64` columns — no per-node value columns at all.
    pub fn eval_pred_batch(&self, batch: &RowBatch) -> EngineResult<Vec<bool>> {
        if let Some(conjuncts) = CompiledPred::compile(self) {
            let mut bound = conjuncts.bind(batch, None);
            return (0..batch.len())
                .map(|i| {
                    bound.set_left(i);
                    bound.matches(0)
                })
                .collect();
        }
        let col = self.eval_batch(batch)?;
        if let ColumnData::Bool(v) = col.data() {
            return Ok((0..v.len()).map(|i| v[i] && !col.is_null(i)).collect());
        }
        (0..col.len())
            .map(|i| match col.value(i) {
                Value::Bool(b) => Ok(b),
                Value::Null => Ok(false),
                other => Err(EngineError::TypeError(format!(
                    "predicate evaluated to {}, expected bool",
                    other.type_name()
                ))),
            })
            .collect()
    }

    /// The typed column path: `None` when this expression is not one the
    /// kernels cover (or its inputs are not integer columns), and the
    /// caller falls back to the value path. Only shapes that evaluate every
    /// operand on every row are covered, so no short-circuit of the row
    /// path is skipped.
    fn eval_typed(&self, batch: &RowBatch) -> EngineResult<Option<Arc<ColumnVec>>> {
        let n = batch.len();
        let ints2 = |a: &Expr, b: &Expr| -> EngineResult<Option<[IntIn; 2]>> {
            Ok(match IntIn::of(a, batch)? {
                Some(x) => IntIn::of(b, batch)?.map(|y| [x, y]),
                None => None,
            })
        };
        // Only column and literal arguments: no argument can fail, so the
        // row path's stop at the first NULL (GREATEST/LEAST) or non-NULL
        // (COALESCE) argument cannot be observed.
        let int_args = |args: &[Expr]| -> EngineResult<Option<Vec<IntIn>>> {
            if args.is_empty() || args.iter().any(|a| PredOperand::of(a).is_none()) {
                return Ok(None);
            }
            args.iter().map(|a| IntIn::of(a, batch)).collect()
        };
        let arith = |op: char, ins: [IntIn; 2]| -> EngineResult<Option<Arc<ColumnVec>>> {
            let (vals, valid) = int_kernel(n, &ins, |a| int_arith(op, a[0], a[1]))?;
            Ok(Some(Arc::new(ColumnVec::masked(
                ColumnData::Int(vals),
                valid,
            ))))
        };
        match self {
            Expr::Col(i) if *i < batch.width() => Ok(Some(batch.column(*i).clone())),
            Expr::Lit(v) => Ok(Some(Arc::new(ColumnVec::constant(v, n)))),
            Expr::Arith(op, a, b) => match ints2(a, b)? {
                Some(ins) => {
                    let op = match op {
                        ArithOp::Add => '+',
                        ArithOp::Sub => '-',
                        ArithOp::Mul => '*',
                        ArithOp::Div => '/',
                    };
                    arith(op, ins)
                }
                None => Ok(None),
            },
            // DUR(ts, te) = te - ts.
            Expr::Func(Func::Dur, args) if args.len() == 2 => match ints2(&args[1], &args[0])? {
                Some(ins) => arith('-', ins),
                None => Ok(None),
            },
            Expr::Cmp(op, a, b) => match ints2(a, b)? {
                Some(ins) => {
                    let (vals, valid) = int_kernel(n, &ins, |a| {
                        Ok(match op {
                            CmpOp::Eq => a[0] == a[1],
                            CmpOp::Ne => a[0] != a[1],
                            CmpOp::Lt => a[0] < a[1],
                            CmpOp::Le => a[0] <= a[1],
                            CmpOp::Gt => a[0] > a[1],
                            CmpOp::Ge => a[0] >= a[1],
                        })
                    })?;
                    Ok(Some(Arc::new(ColumnVec::masked(
                        ColumnData::Bool(vals),
                        valid,
                    ))))
                }
                None => Ok(None),
            },
            Expr::Func(f @ (Func::Greatest | Func::Least), args) => {
                let Some(ins) = int_args(args)? else {
                    return Ok(None);
                };
                let greatest = *f == Func::Greatest;
                let (vals, valid) = int_kernel(n, &ins, |a| {
                    Ok(if greatest {
                        a.iter().copied().max()
                    } else {
                        a.iter().copied().min()
                    }
                    .expect("non-empty"))
                })?;
                Ok(Some(Arc::new(ColumnVec::masked(
                    ColumnData::Int(vals),
                    valid,
                ))))
            }
            // The first valid argument, else NULL.
            Expr::Func(Func::Coalesce, args) => {
                let Some(ins) = int_args(args)? else {
                    return Ok(None);
                };
                let (vals, valid) = (0..n)
                    .map(|i| match ins.iter().find_map(|a| a.get(i)) {
                        Some(x) => (x, true),
                        None => (0, false),
                    })
                    .unzip();
                Ok(Some(Arc::new(ColumnVec::masked(
                    ColumnData::Int(vals),
                    valid,
                ))))
            }
            _ => Ok(None),
        }
    }

    /// Masked batch evaluation: compute this expression for the rows where
    /// `mask` is true (`None` = all rows). Slots with a false mask hold
    /// `Value::Null` placeholders and are never inspected by callers.
    fn eval_batch_masked(
        &self,
        batch: &RowBatch,
        mask: Option<&[bool]>,
    ) -> EngineResult<Vec<Value>> {
        let n = batch.len();
        // Unmasked fast paths for the projection shapes the temporal
        // reductions produce (comparisons and GREATEST/LEAST over columns
        // and literals): evaluate over value references in one pass, with
        // no per-operand column materialization. Column and literal
        // operands cannot fail, so the row path's argument short-circuits
        // are unobservable here and the results are identical.
        if mask.is_none() {
            match self {
                Expr::Cmp(op, a, b) => {
                    if let (Some(a), Some(b)) = (PredOperand::of(a), PredOperand::of(b)) {
                        let mut out = Vec::with_capacity(n);
                        for r in 0..n {
                            let row = BatchRow(batch, r);
                            let (va, vb) = (a.resolve(&row)?, b.resolve(&row)?);
                            out.push(eval_cmp(*op, &va, &vb));
                        }
                        return Ok(out);
                    }
                }
                Expr::Func(f @ (Func::Greatest | Func::Least), args) if !args.is_empty() => {
                    let operands: Option<Vec<PredOperand>> =
                        args.iter().map(PredOperand::of).collect();
                    if let Some(operands) = operands {
                        let mut out = Vec::with_capacity(n);
                        'rows: for r in 0..n {
                            let row = BatchRow(batch, r);
                            let mut best = operands[0].resolve(&row)?;
                            if best.is_null() {
                                out.push(Value::Null);
                                continue;
                            }
                            for o in &operands[1..] {
                                let v = o.resolve(&row)?;
                                if v.is_null() {
                                    out.push(Value::Null);
                                    continue 'rows;
                                }
                                let keep_new = match v.sql_cmp(&best) {
                                    Some(ord) => {
                                        if *f == Func::Greatest {
                                            ord.is_gt()
                                        } else {
                                            ord.is_lt()
                                        }
                                    }
                                    None => {
                                        return Err(EngineError::TypeError(format!(
                                            "{} arguments are not comparable",
                                            f.name()
                                        )))
                                    }
                                };
                                if keep_new {
                                    best = v;
                                }
                            }
                            out.push(best.into_owned());
                        }
                        return Ok(out);
                    }
                }
                _ => {}
            }
        }
        match self {
            Expr::Col(i) => {
                let mut out = Vec::with_capacity(n);
                for r in 0..n {
                    if live(mask, r) {
                        out.push(BatchRow(batch, r).col(*i)?.into_owned());
                    } else {
                        out.push(Value::Null);
                    }
                }
                Ok(out)
            }
            Expr::Name(nm) => Err(EngineError::Internal(format!(
                "unresolved column name '{nm}' reached the executor — \
                 resolve the expression against the input schema first"
            ))),
            Expr::Lit(v) => Ok(vec![v.clone(); n]),
            Expr::Cmp(op, a, b) => {
                let va = a.eval_batch_masked(batch, mask)?;
                let vb = b.eval_batch_masked(batch, mask)?;
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(if live(mask, i) {
                        eval_cmp(*op, &va[i], &vb[i])
                    } else {
                        Value::Null
                    });
                }
                Ok(out)
            }
            Expr::And(a, b) => {
                // Kleene AND: false dominates NULL; the right side is only
                // evaluated where the left side is not false.
                let va = a.eval_batch_masked(batch, mask)?;
                let bmask: Vec<bool> = (0..n)
                    .map(|i| live(mask, i) && va[i] != Value::Bool(false))
                    .collect();
                let vb = b.eval_batch_masked(batch, Some(&bmask))?;
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    if !live(mask, i) {
                        out.push(Value::Null);
                    } else if va[i] == Value::Bool(false) || vb[i] == Value::Bool(false) {
                        out.push(Value::Bool(false));
                    } else if va[i].is_null() || vb[i].is_null() {
                        out.push(Value::Null);
                    } else {
                        out.push(bool_pair(&va[i], &vb[i], "AND", |x, y| x && y)?);
                    }
                }
                Ok(out)
            }
            Expr::Or(a, b) => {
                // Kleene OR: true dominates NULL; the right side is only
                // evaluated where the left side is not true.
                let va = a.eval_batch_masked(batch, mask)?;
                let bmask: Vec<bool> = (0..n)
                    .map(|i| live(mask, i) && va[i] != Value::Bool(true))
                    .collect();
                let vb = b.eval_batch_masked(batch, Some(&bmask))?;
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    if !live(mask, i) {
                        out.push(Value::Null);
                    } else if va[i] == Value::Bool(true) || vb[i] == Value::Bool(true) {
                        out.push(Value::Bool(true));
                    } else if va[i].is_null() || vb[i].is_null() {
                        out.push(Value::Null);
                    } else {
                        out.push(bool_pair(&va[i], &vb[i], "OR", |x, y| x || y)?);
                    }
                }
                Ok(out)
            }
            Expr::Not(a) => {
                let va = a.eval_batch_masked(batch, mask)?;
                let mut out = Vec::with_capacity(n);
                for (i, v) in va.into_iter().enumerate() {
                    out.push(if !live(mask, i) {
                        Value::Null
                    } else {
                        match v {
                            Value::Null => Value::Null,
                            Value::Bool(b) => Value::Bool(!b),
                            other => {
                                return Err(EngineError::TypeError(format!(
                                    "NOT applied to {}",
                                    other.type_name()
                                )))
                            }
                        }
                    });
                }
                Ok(out)
            }
            Expr::Neg(a) => {
                let va = a.eval_batch_masked(batch, mask)?;
                let mut out = Vec::with_capacity(n);
                for (i, v) in va.into_iter().enumerate() {
                    out.push(if !live(mask, i) {
                        Value::Null
                    } else {
                        match v {
                            Value::Null => Value::Null,
                            Value::Int(x) => Value::Int(x.checked_neg().ok_or_else(|| {
                                EngineError::Evaluation("integer overflow in negation".into())
                            })?),
                            Value::Double(d) => Value::Double(-d),
                            other => {
                                return Err(EngineError::TypeError(format!(
                                    "unary minus applied to {}",
                                    other.type_name()
                                )))
                            }
                        }
                    });
                }
                Ok(out)
            }
            Expr::Arith(op, a, b) => {
                let va = a.eval_batch_masked(batch, mask)?;
                let vb = b.eval_batch_masked(batch, mask)?;
                let f = match op {
                    ArithOp::Add => num_add,
                    ArithOp::Sub => num_sub,
                    ArithOp::Mul => num_mul,
                    ArithOp::Div => num_div,
                };
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(if live(mask, i) {
                        f(&va[i], &vb[i])?
                    } else {
                        Value::Null
                    });
                }
                Ok(out)
            }
            Expr::Func(f, args) => eval_func_batch(*f, args, batch, mask),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval_batch_masked(batch, mask)?;
                let lo = low.eval_batch_masked(batch, mask)?;
                let hi = high.eval_batch_masked(batch, mask)?;
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(if live(mask, i) {
                        let ge_lo = eval_cmp(CmpOp::Ge, &v[i], &lo[i]);
                        let le_hi = eval_cmp(CmpOp::Le, &v[i], &hi[i]);
                        let both = kleene_and(&ge_lo, &le_hi);
                        if *negated {
                            kleene_not(&both)
                        } else {
                            both
                        }
                    } else {
                        Value::Null
                    });
                }
                Ok(out)
            }
            Expr::IsNull { expr, negated } => {
                let v = expr.eval_batch_masked(batch, mask)?;
                let mut out = Vec::with_capacity(n);
                for (i, vi) in v.iter().enumerate() {
                    out.push(if live(mask, i) {
                        Value::Bool(vi.is_null() != *negated)
                    } else {
                        Value::Null
                    });
                }
                Ok(out)
            }
        }
    }
}

fn eval_func_batch(
    f: Func,
    args: &[Expr],
    batch: &RowBatch,
    mask: Option<&[bool]>,
) -> EngineResult<Vec<Value>> {
    let n = batch.len();
    // Arity errors surface only when the row path would actually evaluate
    // the call, i.e. when at least one row is selected.
    if !any_live(mask, n) {
        return Ok(vec![Value::Null; n]);
    }
    let arity = |want: usize| -> EngineResult<()> {
        if args.len() == want {
            Ok(())
        } else {
            Err(EngineError::TypeError(format!(
                "{} expects {want} argument(s), got {}",
                f.name(),
                args.len()
            )))
        }
    };
    match f {
        Func::Dur => {
            arity(2)?;
            let ts = args[0].eval_batch_masked(batch, mask)?;
            let te = args[1].eval_batch_masked(batch, mask)?;
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(if live(mask, i) {
                    num_sub(&te[i], &ts[i])?
                } else {
                    Value::Null
                });
            }
            Ok(out)
        }
        Func::Greatest | Func::Least => {
            if args.is_empty() {
                return Err(EngineError::TypeError(format!(
                    "{} expects at least one argument",
                    f.name()
                )));
            }
            // A row "dies" at its first NULL argument (result NULL, later
            // arguments not evaluated for it), matching the row path.
            let mut alive: Vec<bool> = (0..n).map(|i| live(mask, i)).collect();
            let mut best: Vec<Value> = vec![Value::Null; n];
            for (k, a) in args.iter().enumerate() {
                if !alive.iter().any(|&x| x) {
                    break;
                }
                let vs = a.eval_batch_masked(batch, Some(&alive))?;
                for (i, v) in vs.into_iter().enumerate() {
                    if !alive[i] {
                        continue;
                    }
                    if v.is_null() {
                        best[i] = Value::Null;
                        alive[i] = false;
                    } else if k == 0 {
                        best[i] = v;
                    } else {
                        let keep_new = match v.sql_cmp(&best[i]) {
                            Some(o) => {
                                if f == Func::Greatest {
                                    o.is_gt()
                                } else {
                                    o.is_lt()
                                }
                            }
                            None => {
                                return Err(EngineError::TypeError(format!(
                                    "{} arguments are not comparable",
                                    f.name()
                                )))
                            }
                        };
                        if keep_new {
                            best[i] = v;
                        }
                    }
                }
            }
            Ok(best)
        }
        Func::Coalesce => {
            // A row "dies" at its first non-NULL argument; later arguments
            // are not evaluated for it, matching the row path.
            let mut alive: Vec<bool> = (0..n).map(|i| live(mask, i)).collect();
            let mut out: Vec<Value> = vec![Value::Null; n];
            for a in args {
                if !alive.iter().any(|&x| x) {
                    break;
                }
                let vs = a.eval_batch_masked(batch, Some(&alive))?;
                for (i, v) in vs.into_iter().enumerate() {
                    if alive[i] && !v.is_null() {
                        out[i] = v;
                        alive[i] = false;
                    }
                }
            }
            Ok(out)
        }
        Func::Abs => {
            arity(1)?;
            let vs = args[0].eval_batch_masked(batch, mask)?;
            let mut out = Vec::with_capacity(n);
            for (i, v) in vs.into_iter().enumerate() {
                out.push(if !live(mask, i) {
                    Value::Null
                } else {
                    match v {
                        Value::Null => Value::Null,
                        Value::Int(x) => Value::Int(x.checked_abs().ok_or_else(|| {
                            EngineError::Evaluation("integer overflow in abs".into())
                        })?),
                        Value::Double(d) => Value::Double(d.abs()),
                        other => {
                            return Err(EngineError::TypeError(format!(
                                "abs applied to {}",
                                other.type_name()
                            )))
                        }
                    }
                });
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::schema::{Column, DataType, Schema};
    use crate::tuple::Row;

    fn batch(vals: Vec<Vec<Value>>) -> (RowBatch, Vec<Row>) {
        let width = vals.first().map_or(1, Vec::len);
        let schema = Schema::new(
            (0..width)
                .map(|i| Column::new(format!("c{i}"), DataType::Int))
                .collect(),
        );
        let rows: Vec<Row> = vals.into_iter().map(Row::new).collect();
        (RowBatch::from_rows(schema, &rows), rows)
    }

    /// Batch evaluation must agree value-for-value with per-row evaluation
    /// (errors included, on single-row batches).
    fn assert_matches_rowwise(e: &Expr, b: &RowBatch, rs: &[Row]) {
        let col = e.eval_batch(b).unwrap();
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(col.value(i), e.eval(r.values()).unwrap(), "row {i} of {e}");
        }
    }

    #[test]
    fn scalar_ops_match_rowwise() {
        let (b, rs) = batch(vec![
            vec![Value::Int(1), Value::Int(5)],
            vec![Value::Null, Value::Int(2)],
            vec![Value::Int(-3), Value::Null],
            vec![Value::Int(7), Value::Int(7)],
        ]);
        let (mixed, mixed_rows) = batch(vec![
            vec![Value::Int(1), Value::Double(5.5)],
            vec![Value::Double(2.5), Value::Int(2)],
            vec![Value::Null, Value::Null],
        ]);
        for e in [
            col(0).add(col(1)),
            col(0).sub(col(1)).mul(lit(2i64)),
            col(0).div(lit(2i64)),
            col(0).lt(col(1)),
            col(0).eq(col(1)),
            col(0).is_null(),
            col(1).is_not_null(),
            col(0).between(lit(0i64), col(1)),
            col(0).lt(col(1)).and(col(1).gt(lit(0i64))),
            col(0).lt(col(1)).or(col(1).is_null()),
            col(0).lt(col(1)).not(),
            Expr::Neg(Box::new(col(0))),
            Expr::Func(Func::Dur, vec![col(0), col(1)]),
            Expr::Func(Func::Greatest, vec![col(0), col(1)]),
            Expr::Func(Func::Least, vec![col(0), col(1), lit(3i64)]),
            Expr::Func(Func::Coalesce, vec![col(0), col(1), lit(9i64)]),
            Expr::Func(Func::Abs, vec![col(0)]),
        ] {
            assert_matches_rowwise(&e, &b, &rs);
            assert_matches_rowwise(&e, &mixed, &mixed_rows);
        }
    }

    #[test]
    fn integer_kernels_fail_like_the_row_path() {
        let (b, rs) = batch(vec![vec![Value::Int(i64::MIN), Value::Int(-1)]]);
        for e in [
            col(0).div(col(1)),
            col(0).sub(lit(1i64)),
            col(0).mul(col(1)),
            Expr::Func(Func::Dur, vec![lit(1i64), col(0)]),
            col(1).div(lit(0i64)),
        ] {
            let row = e.eval(rs[0].values()).unwrap_err().to_string();
            assert_eq!(e.eval_batch(&b).unwrap_err().to_string(), row, "{e}");
        }
    }

    #[test]
    fn pred_batch_matches_rowwise() {
        let (b, rs) = batch(vec![
            vec![Value::Int(1)],
            vec![Value::Null],
            vec![Value::Int(5)],
        ]);
        for e in [
            col(0).gt(lit(2i64)),
            col(0).add(lit(1i64)).gt(lit(2i64)),
            col(0).is_null().or(col(0).lt(lit(3i64))),
        ] {
            let got = e.eval_pred_batch(&b).unwrap();
            for (i, r) in rs.iter().enumerate() {
                assert_eq!(got[i], e.eval_pred(r.values()).unwrap(), "{e}");
            }
        }
    }

    #[test]
    fn and_short_circuit_skips_errors_like_the_row_path() {
        // Row 0: left is false, so the erroring right side (`1 + 'x'`) is
        // never evaluated — in either path. Row 1 would error in both.
        let (b, rs) = batch(vec![vec![Value::Int(1), Value::str("x")]]);
        let e = col(0).gt(lit(5i64)).and(col(0).add(col(1)).gt(lit(0i64)));
        assert!(e.eval(rs[0].values()).is_ok());
        assert_eq!(e.eval_batch(&b).unwrap().value(0), Value::Bool(false));
        let e = col(0).gt(lit(0i64)).and(col(0).add(col(1)).gt(lit(0i64)));
        assert!(e.eval(rs[0].values()).is_err());
        assert!(e.eval_batch(&b).is_err());
    }

    #[test]
    fn or_short_circuit_skips_errors_like_the_row_path() {
        let (b, rs) = batch(vec![vec![Value::Int(1), Value::str("x")]]);
        let e = col(0).gt(lit(0i64)).or(col(0).add(col(1)).gt(lit(0i64)));
        assert!(e.eval(rs[0].values()).is_ok());
        assert_eq!(e.eval_batch(&b).unwrap().value(0), Value::Bool(true));
    }

    #[test]
    fn coalesce_stops_at_first_non_null_like_the_row_path() {
        // The second argument would error (Int + Str), but the first is
        // non-NULL, so neither path evaluates it.
        let (b, rs) = batch(vec![vec![Value::Int(1), Value::str("x")]]);
        let e = Expr::Func(Func::Coalesce, vec![col(0), col(0).add(col(1))]);
        assert_eq!(e.eval(rs[0].values()).unwrap(), Value::Int(1));
        assert_eq!(e.eval_batch(&b).unwrap().value(0), Value::Int(1));
    }

    #[test]
    fn coalesce_kernel_matches_rowwise() {
        let coalesce = |args: Vec<Expr>| Expr::Func(Func::Coalesce, args);
        // A NULL in every argument position, and rows NULL throughout.
        let (b, rs) = batch(vec![
            vec![Value::Null, Value::Int(2), Value::Int(3)],
            vec![Value::Int(1), Value::Null, Value::Int(3)],
            vec![Value::Int(1), Value::Int(2), Value::Null],
            vec![Value::Null, Value::Null, Value::Int(3)],
            vec![Value::Null, Value::Null, Value::Null],
        ]);
        let (nulls, null_rows) = batch(vec![vec![Value::Null; 3]; 3]);
        for e in [
            coalesce(vec![col(0), col(1), col(2)]),
            coalesce(vec![col(2), col(1), col(0)]),
            coalesce(vec![lit(7i64), col(0)]),
            coalesce(vec![col(0), col(1), lit(9i64)]),
            coalesce(vec![col(0), lit(Value::Null), col(2)]),
            coalesce(vec![col(1)]),
        ] {
            assert!(e.eval_typed(&b).unwrap().is_some(), "{e} takes the kernel");
            assert_matches_rowwise(&e, &b, &rs);
            assert_matches_rowwise(&e, &nulls, &null_rows);
        }
        // An Int column beside a Double or Str argument: the value path.
        let (mixed, mixed_rows) = batch(vec![
            vec![Value::Null, Value::Double(2.5), Value::str("x")],
            vec![Value::Int(1), Value::Double(0.5), Value::str("y")],
            vec![Value::Null, Value::Null, Value::Null],
        ]);
        for e in [
            coalesce(vec![col(0), col(1)]),
            coalesce(vec![col(0), col(2)]),
            coalesce(vec![col(0), lit(1.5)]),
            coalesce(vec![col(0), lit("z")]),
        ] {
            assert!(
                e.eval_typed(&mixed).unwrap().is_none(),
                "{e} takes the value path"
            );
            assert_matches_rowwise(&e, &mixed, &mixed_rows);
        }
    }

    #[test]
    fn empty_batch_evaluates_to_empty() {
        let (b, _) = batch(vec![]);
        let e = col(0).add(lit(1i64));
        assert!(e.eval_batch(&b).unwrap().is_empty());
        assert!(e.eval_pred_batch(&b).unwrap().is_empty());
    }
}
