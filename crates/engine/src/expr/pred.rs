//! Predicates prepared once and tested many times.
//!
//! [`CompiledPred`] is the fast shape: a conjunction of simple comparisons
//! (`Col/Lit op Col/Lit`) — every reduced temporal condition (interval
//! overlaps, split-point bounds, equality leftovers) has it. [`JoinPred`]
//! is a join's θ, built once per operator and tested on each `(left,
//! right)` pair in place, compiled when it has that shape and through the
//! general evaluator when it does not; either way the pair answers exactly
//! what `θ.eval_pred(left ++ right)` would, errors included.

use crate::error::EngineResult;
use crate::expr::eval::{eval_cmp, Columns, Pair};
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
    ) -> EngineResult<&'r Value> {
        match self {
            PredOperand::Col(i) => row.col(*i),
            PredOperand::Lit(v) => Ok(v),
        }
    }
}

/// A conjunction of simple comparisons (`Col/Lit op Col/Lit`), evaluated
/// left to right over value references with the row path's short-circuit
/// order. Comparisons only yield `Bool`/`NULL`, so the Kleene conjunction
/// reduces to "every conjunct is exactly TRUE" — bit-for-bit the row
/// evaluator's `eval_pred`, with no tree walk, no `Box` chasing and no
/// value clones.
#[derive(Debug)]
pub(crate) struct CompiledPred {
    conjuncts: Vec<(CmpOp, PredOperand, PredOperand)>,
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

    /// One conjunct over resolved values. Integer pairs — every temporal
    /// overlap/split-point/equality test — compare inline; everything else
    /// goes through the general [`eval_cmp`] (identical results: the inline
    /// arm mirrors `sql_cmp`'s `(Int, Int)` case, and NULL compares to
    /// nothing either way).
    #[inline]
    fn cmp_true(op: CmpOp, va: &Value, vb: &Value) -> bool {
        match (va, vb) {
            (Value::Int(x), Value::Int(y)) => match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            },
            _ => eval_cmp(op, va, vb) == Value::Bool(true),
        }
    }

    /// The predicate over the columns of `row` (`eval_pred`-identical).
    #[inline]
    pub(crate) fn matches<C: Columns + ?Sized>(&self, row: &C) -> EngineResult<bool> {
        for (op, a, b) in &self.conjuncts {
            if !Self::cmp_true(*op, a.resolve(row)?, b.resolve(row)?) {
                return Ok(false);
            }
        }
        Ok(true)
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

    /// θ on the pair, as `θ.eval_pred(left ++ right)` — same `Ok`, same
    /// `Err` — without building the row.
    #[inline]
    pub(crate) fn matches(&self, left: &[Value], right: &[Value]) -> EngineResult<bool> {
        match self {
            JoinPred::Always => Ok(true),
            JoinPred::Compiled(p) => p.matches(&Pair(left, right)),
            JoinPred::General(e) => e.eval_pred_pair(left, right),
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
        let mut rng = StdRng::seed_from_u64(24);
        let cases: Vec<(Expr, JoinPred)> = thetas()
            .into_iter()
            .map(|(theta, compiled)| {
                let pred = JoinPred::new(Some(theta.clone()));
                assert_eq!(pred.compiled().is_some(), compiled, "{theta}");
                (theta, pred)
            })
            .collect();
        let (mut passed, mut failed, mut errors) = (0, 0, 0);
        for _ in 0..500 {
            let l: Vec<Value> = (0..3).map(|_| value(&mut rng)).collect();
            let r: Vec<Value> = (0..3).map(|_| value(&mut rng)).collect();
            let row: Vec<Value> = l.iter().chain(&r).cloned().collect();
            for (theta, pred) in &cases {
                let want = format!("{:?}", theta.eval_pred(&row));
                assert_eq!(
                    format!("{:?}", pred.matches(&l, &r)),
                    want,
                    "{theta} on {row:?}"
                );
                let general = theta.eval_pred_pair(&l, &r);
                assert_eq!(format!("{general:?}"), want, "{theta} on {row:?}");
                match general {
                    Ok(true) => passed += 1,
                    Ok(false) => failed += 1,
                    Err(_) => errors += 1,
                }
            }
        }
        assert!(
            passed > 100 && failed > 100 && errors > 100,
            "{passed} {failed} {errors}"
        );
        assert_eq!(
            format!("{:?}", JoinPred::new(None).matches(&[], &[])),
            "Ok(true)"
        );
    }
}
