//! Expression interpretation with SQL three-valued logic.
//!
//! One evaluator serves every input shape: it is generic over
//! [`Columns`], where column `i` comes from — a row slice, a row of a
//! column batch ([`BatchRow`]), or a join's `(left, right)` pair read as
//! `left ++ right` without building it ([`BatchPair`], [`RowThenBatch`]). All of
//! them answer the same values and the same errors, so a join predicate
//! tested on the pair is indistinguishable from one tested on the
//! concatenated row.

use std::borrow::Cow;

use crate::batch::RowBatch;
use crate::error::{EngineError, EngineResult};
use crate::expr::{ArithOp, CmpOp, Expr, Func};
use crate::value::{num_add, num_div, num_mul, num_sub, Value};

/// Where an expression's input column `i` comes from.
pub(crate) trait Columns {
    /// Column `i`, or the out-of-bounds error of a row that is too narrow.
    fn col(&self, i: usize) -> EngineResult<Cow<'_, Value>>;
}

fn out_of_bounds(i: usize, width: usize) -> EngineError {
    EngineError::Internal(format!(
        "column index {i} out of bounds for row of width {width}"
    ))
}

impl<C: Columns + ?Sized> Columns for &C {
    #[inline]
    fn col(&self, i: usize) -> EngineResult<Cow<'_, Value>> {
        (**self).col(i)
    }
}

impl Columns for [Value] {
    #[inline]
    fn col(&self, i: usize) -> EngineResult<Cow<'_, Value>> {
        self.get(i)
            .map(Cow::Borrowed)
            .ok_or_else(|| out_of_bounds(i, self.len()))
    }
}

/// Row `.1` of the column batch `.0`, read in place.
#[derive(Clone, Copy)]
pub(crate) struct BatchRow<'a>(pub &'a RowBatch, pub usize);

impl Columns for BatchRow<'_> {
    #[inline]
    fn col(&self, i: usize) -> EngineResult<Cow<'_, Value>> {
        let BatchRow(batch, row) = *self;
        match batch.columns().get(i) {
            Some(c) => Ok(Cow::Owned(c.value(row))),
            None => Err(out_of_bounds(i, batch.width())),
        }
    }
}

/// A left row's values followed by row `.2` of batch `.1`, read as one
/// row without building it — a general join θ reads the left row's
/// values once per left row, not once per pair.
#[derive(Clone, Copy)]
pub(crate) struct RowThenBatch<'a>(pub &'a [Value], pub &'a RowBatch, pub usize);

impl Columns for RowThenBatch<'_> {
    #[inline]
    fn col(&self, i: usize) -> EngineResult<Cow<'_, Value>> {
        let RowThenBatch(left, right, ri) = *self;
        if let Some(v) = left.get(i) {
            return Ok(Cow::Borrowed(v));
        }
        match right.columns().get(i - left.len()) {
            Some(c) => Ok(Cow::Owned(c.value(ri))),
            None => Err(out_of_bounds(i, left.len() + right.width())),
        }
    }
}

/// Row `li` of batch `left` followed by row `ri` of batch `right`, read as
/// one row without building it.
#[derive(Clone, Copy)]
pub(crate) struct BatchPair<'a> {
    pub left: &'a RowBatch,
    pub li: usize,
    pub right: &'a RowBatch,
    pub ri: usize,
}

impl Columns for BatchPair<'_> {
    #[inline]
    fn col(&self, i: usize) -> EngineResult<Cow<'_, Value>> {
        let lw = self.left.width();
        if i < lw {
            return Ok(Cow::Owned(self.left.value(i, self.li)));
        }
        match self.right.columns().get(i - lw) {
            Some(c) => Ok(Cow::Owned(c.value(self.ri))),
            None => Err(out_of_bounds(i, lw + self.right.width())),
        }
    }
}

impl Expr {
    /// Evaluate against a row (a slice of values).
    pub fn eval(&self, row: &[Value]) -> EngineResult<Value> {
        self.eval_in(row)
    }

    /// Evaluate against the columns of `row`.
    pub(crate) fn eval_in<C: Columns + ?Sized>(&self, row: &C) -> EngineResult<Value> {
        match self {
            Expr::Col(i) => row.col(*i).map(Cow::into_owned),
            Expr::Name(n) => Err(EngineError::Internal(format!(
                "unresolved column name '{n}' reached the executor — \
                 resolve the expression against the input schema first"
            ))),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Cmp(op, a, b) => {
                let va = a.eval_in(row)?;
                let vb = b.eval_in(row)?;
                Ok(eval_cmp(*op, &va, &vb))
            }
            Expr::And(a, b) => {
                // Kleene AND: false dominates NULL.
                let va = a.eval_in(row)?;
                if va == Value::Bool(false) {
                    return Ok(Value::Bool(false));
                }
                let vb = b.eval_in(row)?;
                if vb == Value::Bool(false) {
                    return Ok(Value::Bool(false));
                }
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Null);
                }
                bool_pair(&va, &vb, "AND", |x, y| x && y)
            }
            Expr::Or(a, b) => {
                // Kleene OR: true dominates NULL.
                let va = a.eval_in(row)?;
                if va == Value::Bool(true) {
                    return Ok(Value::Bool(true));
                }
                let vb = b.eval_in(row)?;
                if vb == Value::Bool(true) {
                    return Ok(Value::Bool(true));
                }
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Null);
                }
                bool_pair(&va, &vb, "OR", |x, y| x || y)
            }
            Expr::Not(a) => match a.eval_in(row)? {
                Value::Null => Ok(Value::Null),
                Value::Bool(b) => Ok(Value::Bool(!b)),
                other => Err(EngineError::TypeError(format!(
                    "NOT applied to {}",
                    other.type_name()
                ))),
            },
            Expr::Neg(a) => match a.eval_in(row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => i
                    .checked_neg()
                    .map(Value::Int)
                    .ok_or_else(|| EngineError::Evaluation("integer overflow in negation".into())),
                Value::Double(d) => Ok(Value::Double(-d)),
                other => Err(EngineError::TypeError(format!(
                    "unary minus applied to {}",
                    other.type_name()
                ))),
            },
            Expr::Arith(op, a, b) => {
                let va = a.eval_in(row)?;
                let vb = b.eval_in(row)?;
                match op {
                    ArithOp::Add => num_add(&va, &vb),
                    ArithOp::Sub => num_sub(&va, &vb),
                    ArithOp::Mul => num_mul(&va, &vb),
                    ArithOp::Div => num_div(&va, &vb),
                }
            }
            Expr::Func(f, args) => eval_func(*f, args, row),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval_in(row)?;
                let lo = low.eval_in(row)?;
                let hi = high.eval_in(row)?;
                let ge_lo = eval_cmp(CmpOp::Ge, &v, &lo);
                let le_hi = eval_cmp(CmpOp::Le, &v, &hi);
                // v BETWEEN lo AND hi ≡ v >= lo AND v <= hi (Kleene).
                let both = kleene_and(&ge_lo, &le_hi);
                Ok(if *negated { kleene_not(&both) } else { both })
            }
            Expr::IsNull { expr, negated } => {
                let v = expr.eval_in(row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
        }
    }

    /// Evaluate as a predicate: NULL (unknown) is treated as `false`, as in
    /// SQL `WHERE`/`ON` clauses.
    pub fn eval_pred(&self, row: &[Value]) -> EngineResult<bool> {
        self.eval_pred_in(row)
    }

    pub(crate) fn eval_pred_in<C: Columns + ?Sized>(&self, row: &C) -> EngineResult<bool> {
        match self.eval_in(row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(EngineError::TypeError(format!(
                "predicate evaluated to {}, expected bool",
                other.type_name()
            ))),
        }
    }
}

pub(crate) fn bool_pair(
    a: &Value,
    b: &Value,
    op: &str,
    f: fn(bool, bool) -> bool,
) -> EngineResult<Value> {
    match (a.as_bool(), b.as_bool()) {
        (Some(x), Some(y)) => Ok(Value::Bool(f(x, y))),
        _ => Err(EngineError::TypeError(format!(
            "{op} applied to {} and {}",
            a.type_name(),
            b.type_name()
        ))),
    }
}

pub(crate) fn kleene_and(a: &Value, b: &Value) -> Value {
    match (a, b) {
        (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
        (Value::Null, _) | (_, Value::Null) => Value::Null,
        (Value::Bool(x), Value::Bool(y)) => Value::Bool(*x && *y),
        _ => Value::Null,
    }
}

pub(crate) fn kleene_not(a: &Value) -> Value {
    match a {
        Value::Bool(b) => Value::Bool(!b),
        _ => Value::Null,
    }
}

pub(crate) fn eval_cmp(op: CmpOp, a: &Value, b: &Value) -> Value {
    if a.is_null() || b.is_null() {
        return Value::Null;
    }
    match (op, a.sql_cmp(b)) {
        (CmpOp::Eq, Some(o)) => Value::Bool(o.is_eq()),
        (CmpOp::Ne, Some(o)) => Value::Bool(o.is_ne()),
        (CmpOp::Lt, Some(o)) => Value::Bool(o.is_lt()),
        (CmpOp::Le, Some(o)) => Value::Bool(o.is_le()),
        (CmpOp::Gt, Some(o)) => Value::Bool(o.is_gt()),
        (CmpOp::Ge, Some(o)) => Value::Bool(o.is_ge()),
        // Incomparable non-null types: equal never, ordered never.
        (CmpOp::Eq, None) => Value::Bool(false),
        (CmpOp::Ne, None) => Value::Bool(true),
        (_, None) => Value::Null,
    }
}

fn eval_func<C: Columns + ?Sized>(f: Func, args: &[Expr], row: &C) -> EngineResult<Value> {
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
            // DUR(ts, te) = te - ts, the duration of [ts, te).
            arity(2)?;
            let ts = args[0].eval_in(row)?;
            let te = args[1].eval_in(row)?;
            num_sub(&te, &ts)
        }
        Func::Greatest | Func::Least => {
            if args.is_empty() {
                return Err(EngineError::TypeError(format!(
                    "{} expects at least one argument",
                    f.name()
                )));
            }
            let mut best: Option<Value> = None;
            for a in args {
                let v = a.eval_in(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match v.sql_cmp(&b) {
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
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.expect("non-empty"))
        }
        Func::Coalesce => {
            for a in args {
                let v = a.eval_in(row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        Func::Abs => {
            arity(1)?;
            match args[0].eval_in(row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => i
                    .checked_abs()
                    .map(Value::Int)
                    .ok_or_else(|| EngineError::Evaluation("integer overflow in abs".into())),
                Value::Double(d) => Ok(Value::Double(d.abs())),
                other => Err(EngineError::TypeError(format!(
                    "abs applied to {}",
                    other.type_name()
                ))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    fn row(vals: Vec<Value>) -> Vec<Value> {
        vals
    }

    #[test]
    fn three_valued_and_or() {
        let r = row(vec![Value::Null, Value::Bool(true), Value::Bool(false)]);
        // NULL AND false = false
        assert_eq!(col(0).and(col(2)).eval(&r).unwrap(), Value::Bool(false));
        // NULL AND true = NULL
        assert_eq!(col(0).and(col(1)).eval(&r).unwrap(), Value::Null);
        // NULL OR true = true
        assert_eq!(col(0).or(col(1)).eval(&r).unwrap(), Value::Bool(true));
        // NULL OR false = NULL
        assert_eq!(col(0).or(col(2)).eval(&r).unwrap(), Value::Null);
        // NOT NULL = NULL
        assert_eq!(col(0).not().eval(&r).unwrap(), Value::Null);
    }

    #[test]
    fn comparisons_propagate_null_and_pred_treats_as_false() {
        let r = row(vec![Value::Null, Value::Int(1)]);
        let e = col(0).eq(col(1));
        assert_eq!(e.eval(&r).unwrap(), Value::Null);
        assert!(!e.eval_pred(&r).unwrap());
    }

    #[test]
    fn between_inclusive() {
        let r = row(vec![Value::Int(5)]);
        assert!(col(0).between(lit(5i64), lit(7i64)).eval_pred(&r).unwrap());
        assert!(col(0).between(lit(1i64), lit(5i64)).eval_pred(&r).unwrap());
        assert!(!col(0).between(lit(6i64), lit(7i64)).eval_pred(&r).unwrap());
    }

    #[test]
    fn dur_is_te_minus_ts() {
        let r = row(vec![Value::Int(3), Value::Int(10)]);
        let e = Expr::Func(Func::Dur, vec![col(0), col(1)]);
        assert_eq!(e.eval(&r).unwrap(), Value::Int(7));
    }

    #[test]
    fn greatest_least_null_propagating() {
        let r = row(vec![Value::Int(3), Value::Int(10), Value::Null]);
        let g = Expr::Func(Func::Greatest, vec![col(0), col(1)]);
        assert_eq!(g.eval(&r).unwrap(), Value::Int(10));
        let l = Expr::Func(Func::Least, vec![col(0), col(1)]);
        assert_eq!(l.eval(&r).unwrap(), Value::Int(3));
        let g = Expr::Func(Func::Greatest, vec![col(0), col(2)]);
        assert_eq!(g.eval(&r).unwrap(), Value::Null);
    }

    #[test]
    fn coalesce_first_non_null() {
        let r = row(vec![Value::Null, Value::Int(7)]);
        let e = Expr::Func(Func::Coalesce, vec![col(0), col(1), lit(9i64)]);
        assert_eq!(e.eval(&r).unwrap(), Value::Int(7));
        let e = Expr::Func(Func::Coalesce, vec![col(0), col(0)]);
        assert_eq!(e.eval(&r).unwrap(), Value::Null);
    }

    #[test]
    fn is_null_checks() {
        let r = row(vec![Value::Null, Value::Int(7)]);
        assert!(col(0).is_null().eval_pred(&r).unwrap());
        assert!(col(1).is_not_null().eval_pred(&r).unwrap());
        assert!(!col(1).is_null().eval_pred(&r).unwrap());
    }

    #[test]
    fn cross_type_equality_is_false_not_error() {
        let r = row(vec![Value::Int(1), Value::str("1")]);
        assert!(!col(0).eq(col(1)).eval_pred(&r).unwrap());
        assert!(col(0).ne(col(1)).eval_pred(&r).unwrap());
    }

    #[test]
    fn arithmetic_errors_surface() {
        let r = row(vec![Value::Int(i64::MAX)]);
        assert!(col(0).add(lit(1i64)).eval(&r).is_err());
        let r = row(vec![Value::str("x")]);
        assert!(col(0).not().eval(&r).is_err());
    }
}
