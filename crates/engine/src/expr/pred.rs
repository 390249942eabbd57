//! Predicates prepared once and tested many times.
//!
//! [`CompiledPred`] is the fast shape: a conjunction of simple comparisons
//! (`Col/Lit op Col/Lit`) — every reduced temporal condition (interval
//! overlaps, split-point bounds, equality leftovers) has it. [`JoinPred`]
//! is a join's θ, built once per operator and tested on each `(left,
//! right)` pair of row indices in place, compiled when it has that shape
//! and through the general evaluator when it does not; either way the pair
//! answers exactly what `θ.eval_pred(left ++ right)` would, errors
//! included.
//!
//! Before testing, a predicate is *bound* to the batches it reads
//! ([`CompiledPred::bind`], [`JoinPred::bind`]): every operand that is an
//! `Int` column becomes an `i64` slice, so an interval-overlap or
//! split-point conjunct is two slice reads and a machine compare. Operands
//! of any other type are read as values, through the same comparison.

use std::borrow::Cow;

use crate::batch::RowBatch;
use crate::error::EngineResult;
use crate::expr::eval::{eval_cmp, BatchPair, BatchRow, Columns, RowThenBatch};
use crate::expr::{CmpOp, Expr};
use crate::value::Value;

/// One operand of a compiled simple comparison.
#[derive(Debug, Clone)]
pub(crate) enum PredOperand {
    Col(usize),
    Lit(Value),
}

impl PredOperand {
    pub(crate) fn of(e: &Expr) -> Option<PredOperand> {
        match e {
            Expr::Col(i) => Some(PredOperand::Col(*i)),
            Expr::Lit(v) => Some(PredOperand::Lit(v.clone())),
            _ => None,
        }
    }

    #[inline]
    pub(crate) fn resolve<'r, C: Columns + ?Sized>(
        &'r self,
        row: &'r C,
    ) -> EngineResult<Cow<'r, Value>> {
        match self {
            PredOperand::Col(i) => row.col(*i),
            PredOperand::Lit(v) => Ok(Cow::Borrowed(v)),
        }
    }
}

/// A conjunction of simple comparisons (`Col/Lit op Col/Lit`), evaluated
/// left to right with the row path's short-circuit order. Comparisons only
/// yield `Bool`/`NULL`, so the Kleene conjunction reduces to "every
/// conjunct is exactly TRUE" — bit-for-bit the row evaluator's
/// `eval_pred`, with no tree walk, no `Box` chasing and no value clones.
#[derive(Debug)]
pub(crate) struct CompiledPred {
    conjuncts: Vec<(CmpOp, PredOperand, PredOperand)>,
}

#[inline]
fn cmp_ints(op: CmpOp, x: i64, y: i64) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

impl CompiledPred {
    /// `None` when the predicate has a shape the fast path cannot prove
    /// equivalent (function calls, arithmetic, OR, …) — callers fall back
    /// to the general evaluator.
    pub(crate) fn compile(expr: &Expr) -> Option<CompiledPred> {
        let mut conjuncts = Vec::new();
        for c in expr.conjuncts() {
            match c {
                Expr::Cmp(op, a, b) => {
                    conjuncts.push((*op, PredOperand::of(a)?, PredOperand::of(b)?));
                }
                _ => return None,
            }
        }
        Some(CompiledPred { conjuncts })
    }

    /// The compiled comparisons, in evaluation order.
    pub(crate) fn conjuncts(&self) -> &[(CmpOp, PredOperand, PredOperand)] {
        &self.conjuncts
    }

    /// One conjunct over resolved values. Integer pairs compare inline;
    /// everything else goes through the general [`eval_cmp`] (identical
    /// results: the inline arm mirrors `sql_cmp`'s `(Int, Int)` case, and
    /// NULL compares to nothing either way).
    #[inline]
    fn cmp_true(op: CmpOp, va: &Value, vb: &Value) -> bool {
        match (va, vb) {
            (Value::Int(x), Value::Int(y)) => cmp_ints(op, *x, *y),
            _ => eval_cmp(op, va, vb) == Value::Bool(true),
        }
    }

    /// Bind to the rows of `left` — followed, for a join, by the rows of
    /// `right` (columns past `left`'s width).
    pub(crate) fn bind<'a>(
        &'a self,
        left: &'a RowBatch,
        right: Option<&'a RowBatch>,
    ) -> BoundPred<'a> {
        let lw = left.width();
        let bind = |o: &'a PredOperand| -> Bound<'a> {
            let (batch, c, right) = match *o {
                PredOperand::Lit(Value::Int(x)) => return Bound::Fixed(Some(x)),
                PredOperand::Col(i) if i < lw => (left, i, false),
                PredOperand::Col(i) => match right {
                    Some(r) if i - lw < r.width() => (r, i - lw, true),
                    _ => return Bound::Other(o),
                },
                PredOperand::Lit(_) => return Bound::Other(o),
            };
            match batch.column(c).ints() {
                Some((vals, valid)) => Bound::Int { vals, valid, right },
                None => Bound::Other(o),
            }
        };
        let conjuncts: Vec<_> = self
            .conjuncts
            .iter()
            .map(|(op, a, b)| (*op, bind(a), bind(b)))
            .collect();
        BoundPred {
            row: conjuncts.clone(),
            conjuncts,
            left,
            li: 0,
            right,
        }
    }
}

/// An operand of a [`BoundPred`].
#[derive(Clone, Copy)]
enum Bound<'a> {
    /// An `Int` column of the left or (`right`) the right row.
    Int {
        vals: &'a [i64],
        valid: Option<&'a [bool]>,
        right: bool,
    },
    /// An integer fixed for the current left row (`None`: NULL): an `Int`
    /// literal, or a left `Int` column read at that row.
    Fixed(Option<i64>),
    /// Anything else, read as a value.
    Other(&'a PredOperand),
}

/// A [`CompiledPred`] bound to the batches it tests. Testing goes left row
/// by left row: [`BoundPred::set_left`] reads the left row's integer
/// operands once, so testing it against each right row reads only the
/// right row's.
pub(crate) struct BoundPred<'a> {
    conjuncts: Vec<(CmpOp, Bound<'a>, Bound<'a>)>,
    /// `conjuncts` with the left operands of row `li` fixed.
    row: Vec<(CmpOp, Bound<'a>, Bound<'a>)>,
    left: &'a RowBatch,
    li: usize,
    right: Option<&'a RowBatch>,
}

impl<'a> BoundPred<'a> {
    /// Test left row `li` next.
    #[inline]
    pub(crate) fn set_left(&mut self, li: usize) {
        let fix = |b: Bound<'a>| match b {
            Bound::Int {
                vals,
                valid,
                right: false,
            } => Bound::Fixed(valid.is_none_or(|m| m[li]).then(|| vals[li])),
            b => b,
        };
        for (row, &(op, a, b)) in self.row.iter_mut().zip(&self.conjuncts) {
            *row = (op, fix(a), fix(b));
        }
        self.li = li;
    }

    /// The predicate on the current left row and right row `ri` (for a
    /// filter: the current row).
    #[inline]
    pub(crate) fn matches(&self, ri: usize) -> EngineResult<bool> {
        for &(op, a, b) in &self.row {
            let pass = match (Self::int(a, ri), Self::int(b, ri)) {
                (Ok(x), Ok(y)) => matches!((x, y), (Some(x), Some(y)) if cmp_ints(op, x, y)),
                _ => {
                    let va = self.value(a, ri)?;
                    let vb = self.value(b, ri)?;
                    CompiledPred::cmp_true(op, &va, &vb)
                }
            };
            if !pass {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The predicate on the current left row and *every* right row, one
    /// tight loop per conjunct: `mask[ri]` as [`BoundPred::matches`]
    /// would answer. `false` (and `mask` unspecified) when an operand is
    /// not an integer — only then could a conjunct fail or depend on the
    /// order it is tested in.
    pub(crate) fn int_mask(&self, n: usize, mask: &mut Vec<bool>) -> bool {
        /// `mask[i] &= f(a[i], b[i])`, each side a column or a constant.
        fn and<F: Fn(i64, i64) -> bool>(mask: &mut [bool], a: Bound, b: Bound, f: F) {
            match (a, b) {
                (Bound::Fixed(Some(x)), Bound::Int { vals, .. }) => {
                    mask.iter_mut().zip(vals).for_each(|(m, &y)| *m &= f(x, y))
                }
                (Bound::Int { vals, .. }, Bound::Fixed(Some(y))) => {
                    mask.iter_mut().zip(vals).for_each(|(m, &x)| *m &= f(x, y))
                }
                (Bound::Int { vals: va, .. }, Bound::Int { vals: vb, .. }) => {
                    let pairs = va.iter().zip(vb);
                    mask.iter_mut()
                        .zip(pairs)
                        .for_each(|(m, (&x, &y))| *m &= f(x, y))
                }
                _ => unreachable!("a constant pair is decided once"),
            }
        }
        if self
            .row
            .iter()
            .any(|(_, a, b)| matches!(a, Bound::Other(_)) || matches!(b, Bound::Other(_)))
        {
            return false;
        }
        mask.clear();
        mask.resize(n, true);
        for &(op, a, b) in &self.row {
            match (a, b) {
                (Bound::Fixed(x), Bound::Fixed(y)) => {
                    if !matches!((x, y), (Some(x), Some(y)) if cmp_ints(op, x, y)) {
                        mask.fill(false);
                    }
                    continue;
                }
                (Bound::Fixed(None), _) | (_, Bound::Fixed(None)) => {
                    mask.fill(false);
                    continue;
                }
                _ => {}
            }
            match op {
                CmpOp::Eq => and(mask, a, b, |x, y| x == y),
                CmpOp::Ne => and(mask, a, b, |x, y| x != y),
                CmpOp::Lt => and(mask, a, b, |x, y| x < y),
                CmpOp::Le => and(mask, a, b, |x, y| x <= y),
                CmpOp::Gt => and(mask, a, b, |x, y| x > y),
                CmpOp::Ge => and(mask, a, b, |x, y| x >= y),
            }
            // NULL compares to nothing.
            for side in [a, b] {
                if let Bound::Int {
                    valid: Some(valid), ..
                } = side
                {
                    mask.iter_mut().zip(valid).for_each(|(m, &v)| *m &= v);
                }
            }
        }
        true
    }

    /// An integer operand (`None`: NULL); `Err(())` for a value operand.
    /// Every `Int` column left in `row` is a right one.
    #[inline]
    fn int(b: Bound<'_>, ri: usize) -> Result<Option<i64>, ()> {
        match b {
            Bound::Int { vals, valid, .. } => Ok(valid.is_none_or(|m| m[ri]).then(|| vals[ri])),
            Bound::Fixed(x) => Ok(x),
            Bound::Other(_) => Err(()),
        }
    }

    fn value(&self, b: Bound<'_>, ri: usize) -> EngineResult<Value> {
        let Bound::Other(o) = b else {
            let x = Self::int(b, ri).expect("an integer operand");
            return Ok(x.map_or(Value::Null, Value::Int));
        };
        let v = match self.right {
            Some(right) => {
                let pair = BatchPair {
                    left: self.left,
                    li: self.li,
                    right,
                    ri,
                };
                o.resolve(&pair)?.into_owned()
            }
            None => o.resolve(&BatchRow(self.left, self.li))?.into_owned(),
        };
        Ok(v)
    }
}

/// A join's θ over `left ++ right`, prepared once per operator.
#[derive(Debug)]
pub(crate) enum JoinPred {
    /// No condition: every pair matches.
    Always,
    Compiled(CompiledPred),
    General(Expr),
}

/// A [`JoinPred`] bound to a left and a right batch, tested left row by
/// left row ([`BoundJoin::set_left`], then [`BoundJoin::matches`] per
/// right row).
pub(crate) enum BoundJoin<'a> {
    Always,
    Compiled(BoundPred<'a>),
    General {
        theta: &'a Expr,
        left: &'a RowBatch,
        /// The current left row's values.
        row: Vec<Value>,
        right: &'a RowBatch,
    },
}

impl BoundJoin<'_> {
    /// Test left row `li` next.
    #[inline]
    pub(crate) fn set_left(&mut self, li: usize) {
        match self {
            BoundJoin::Always => {}
            BoundJoin::Compiled(p) => p.set_left(li),
            BoundJoin::General { left, row, .. } => {
                row.clear();
                row.extend(left.columns().iter().map(|c| c.value(li)));
            }
        }
    }

    /// The right rows `0..n` worth testing against the current left row:
    /// for an all-integer compiled θ exactly its matches
    /// ([`BoundPred::int_mask`], one tight loop per conjunct), else all
    /// of them. Candidates still go through [`BoundJoin::matches`].
    pub(crate) fn mask(&self, n: usize, mask: &mut Vec<bool>) {
        let done = matches!(self, BoundJoin::Compiled(p) if p.int_mask(n, mask));
        if !done {
            mask.clear();
            mask.resize(n, true);
        }
    }

    /// θ on the current left row and right row `ri`, as
    /// `θ.eval_pred(left[li] ++ right[ri])` — same `Ok`, same `Err` —
    /// without building the row.
    #[inline]
    pub(crate) fn matches(&self, ri: usize) -> EngineResult<bool> {
        match *self {
            BoundJoin::Always => Ok(true),
            BoundJoin::Compiled(ref p) => p.matches(ri),
            BoundJoin::General {
                theta,
                ref row,
                right,
                ..
            } => theta.eval_pred_in(&RowThenBatch(row, right, ri)),
        }
    }
}

impl JoinPred {
    pub(crate) fn new(theta: Option<Expr>) -> JoinPred {
        match theta {
            None => JoinPred::Always,
            Some(e) => CompiledPred::compile(&e).map_or(JoinPred::General(e), JoinPred::Compiled),
        }
    }

    /// The compiled form, when θ has the simple-comparison shape.
    pub(crate) fn compiled(&self) -> Option<&CompiledPred> {
        match self {
            JoinPred::Compiled(p) => Some(p),
            _ => None,
        }
    }

    /// Prepare θ for the pairs of `left` × `right`.
    pub(crate) fn bind<'a>(&'a self, left: &'a RowBatch, right: &'a RowBatch) -> BoundJoin<'a> {
        match self {
            JoinPred::Always => BoundJoin::Always,
            JoinPred::Compiled(p) => BoundJoin::Compiled(p.bind(left, Some(right))),
            JoinPred::General(theta) => BoundJoin::General {
                theta,
                left,
                row: Vec::with_capacity(left.width()),
                right,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, Func};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Int (small, and near `i64::MAX` for overflow), Double, Str or NULL.
    fn value(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..10) {
            0 => Value::Null,
            1 => Value::Double(rng.gen_range(-20..20) as f64 / 2.0),
            2 => Value::str(["a", "b", "7"][rng.gen_range(0..3)]),
            3 => Value::Int(i64::MAX - rng.gen_range(0..3)),
            _ => Value::Int(rng.gen_range(-10..10)),
        }
    }

    /// θ over a 3-column left row (0..3) and a 3-column right row (3..6),
    /// with whether it has the compiled shape.
    fn thetas() -> Vec<(Expr, bool)> {
        let dur = |ts, te| Expr::Func(Func::Dur, vec![col(ts), col(te)]);
        vec![
            // Overlap, split-point bounds beside an equality, literals.
            (col(1).lt(col(5)).and(col(4).lt(col(2))), true),
            (
                col(3)
                    .eq(col(0))
                    .and(col(4).gt(col(1)))
                    .and(col(4).lt(col(2))),
                true,
            ),
            (col(0).ne(lit(3i64)).and(lit(2.5f64).le(col(3))), true),
            (col(0).eq(lit("a")), true),
            (col(7).eq(lit(1i64)), true),
            // Fig. 15c: DUR(r.T) BETWEEN s.min AND s.max.
            (dur(1, 2).between(col(3), col(5)), false),
            (col(0).eq(col(3)).or(col(1).gt(col(4))), false),
            (col(0).lt(col(3)).not(), false),
            (col(2).is_null().or(col(5).is_not_null()), false),
            // Overflow near i64::MAX, Int + Str, NOT/AND of a non-bool.
            (col(1).add(col(4)).gt(lit(0i64)), false),
            (col(2).mul(lit(2i64)).lt(col(5)), false),
            (Expr::Neg(Box::new(col(0))).le(col(3)), false),
            (col(0).and(col(3)), false),
            (col(1), false),
            (col(7).add(lit(1i64)).eq(lit(1i64)), false),
        ]
    }

    #[test]
    fn pair_answers_what_the_concatenated_row_answers() {
        use crate::schema::{Column, DataType, Schema};
        use crate::tuple::Row;
        let mut rng = StdRng::seed_from_u64(24);
        let cases: Vec<(Expr, JoinPred)> = thetas()
            .into_iter()
            .map(|(theta, compiled)| {
                let pred = JoinPred::new(Some(theta.clone()));
                assert_eq!(pred.compiled().is_some(), compiled, "{theta}");
                (theta, pred)
            })
            .collect();
        let schema = || {
            Schema::new(
                (0..3)
                    .map(|i| Column::new(format!("c{i}"), DataType::Int))
                    .collect(),
            )
        };
        // Batches of 8 rows a side, so the columns are typed (`Int` with
        // NULLs) or mixed depending on what the rows drew.
        let (mut passed, mut failed, mut errors) = (0, 0, 0);
        for _ in 0..40 {
            let side = |rng: &mut StdRng| -> Vec<Row> {
                (0..8)
                    .map(|_| (0..3).map(|_| value(rng)).collect())
                    .collect()
            };
            let (lrows, rrows) = (side(&mut rng), side(&mut rng));
            let (lb, rb) = (
                RowBatch::from_rows(schema(), &lrows),
                RowBatch::from_rows(schema(), &rrows),
            );
            for (theta, pred) in &cases {
                let mut bound = pred.bind(&lb, &rb);
                let mut mask = Vec::new();
                for (li, l) in lrows.iter().enumerate() {
                    bound.set_left(li);
                    // The whole-right-side mask keeps every pair that
                    // passes (and, for an all-integer θ, only those).
                    bound.mask(rrows.len(), &mut mask);
                    for (ri, &m) in mask.iter().enumerate() {
                        if !m {
                            assert!(matches!(bound.matches(ri), Ok(false)), "{theta}");
                        }
                    }
                    for (ri, r) in rrows.iter().enumerate() {
                        let row: Vec<Value> =
                            l.values().iter().chain(r.values()).cloned().collect();
                        let want = theta.eval_pred(&row);
                        assert_eq!(
                            format!("{:?}", bound.matches(ri)),
                            format!("{want:?}"),
                            "{theta} on {row:?}"
                        );
                        match want {
                            Ok(true) => passed += 1,
                            Ok(false) => failed += 1,
                            Err(_) => errors += 1,
                        }
                    }
                }
            }
        }
        assert!(
            passed > 100 && failed > 100 && errors > 100,
            "{passed} {failed} {errors}"
        );
        let empty = RowBatch::from_rows(schema(), &[Row::new(vec![Value::Null; 3])]);
        assert_eq!(
            format!("{:?}", JoinPred::new(None).bind(&empty, &empty).matches(0)),
            "Ok(true)"
        );
    }
}
