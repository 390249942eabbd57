//! Scalar expressions, aggregate calls and sort keys.
//!
//! Expressions reference input columns either *by index* ([`Expr::Col`],
//! the resolved form every executor works on) or *by name*
//! ([`Expr::Name`], e.g. `col("team")` or the qualified `name("r.team")`).
//! Named references are placeholders: an analyzer pass
//! ([`Expr::resolve`]) binds them to positions against a concrete
//! [`Schema`] — with did-you-mean suggestions for unknown columns — before
//! planning. Join predicates are evaluated over the concatenation
//! `left ++ right` of the two input rows, as in the paper's θ conditions —
//! read in place from the pair, never built just to be tested.

mod analysis;
mod batch;
mod eval;
mod fold;
mod pred;
mod resolve;

pub use analysis::{
    detect_overlap_pattern, split_join_condition, JoinConditionParts, OverlapPattern,
};
pub use fold::fold;
pub(crate) use pred::{BoundJoin, CompiledPred, JoinPred, PredOperand};

use std::fmt;

use crate::error::{EngineError, EngineResult};
use crate::schema::{DataType, Schema};
use crate::value::Value;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// The operator with sides swapped (`a op b` ⇔ `b op.swap() a`).
    pub fn swapped(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ArithOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// `DUR(ts, te)` — duration of the period `[ts, te)`, the UDF from the
    /// paper's SQL examples (Sec. 6.2).
    Dur,
    /// `GREATEST(a, b, …)` — NULL if any argument is NULL (used to compute
    /// interval intersections: `greatest(r.ts, s.ts)`).
    Greatest,
    /// `LEAST(a, b, …)` — NULL if any argument is NULL.
    Least,
    /// `COALESCE(a, b, …)` — first non-NULL argument.
    Coalesce,
    /// `ABS(a)`.
    Abs,
}

impl Func {
    pub fn name(&self) -> &'static str {
        match self {
            Func::Dur => "dur",
            Func::Greatest => "greatest",
            Func::Least => "least",
            Func::Coalesce => "coalesce",
            Func::Abs => "abs",
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column by index.
    Col(usize),
    /// Input column by (possibly `alias.`-qualified) name — unresolved
    /// until [`Expr::resolve`] binds it to a position.
    Name(String),
    /// A literal value.
    Lit(Value),
    /// Comparison with three-valued logic.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical AND (Kleene).
    And(Box<Expr>, Box<Expr>),
    /// Logical OR (Kleene).
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT (Kleene).
    Not(Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// Function call.
    Func(Func, Vec<Expr>),
    /// `expr BETWEEN low AND high` (inclusive; three-valued).
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr IS [NOT] NULL` (never NULL itself).
    IsNull { expr: Box<Expr>, negated: bool },
}

/// A column reference accepted by [`col`]: a position (`col(1)`, the
/// resolved form) or a name (`col("team")`, `col("r.team")`).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnRef {
    Index(usize),
    Named(String),
}

impl From<usize> for ColumnRef {
    fn from(i: usize) -> Self {
        ColumnRef::Index(i)
    }
}

impl From<&str> for ColumnRef {
    fn from(n: &str) -> Self {
        ColumnRef::Named(n.to_string())
    }
}

impl From<String> for ColumnRef {
    fn from(n: String) -> Self {
        ColumnRef::Named(n)
    }
}

/// Column reference builder: `col(1)` (positional, resolved) or
/// `col("team")` / `col("r.team")` (named, bound by [`Expr::resolve`]).
pub fn col(c: impl Into<ColumnRef>) -> Expr {
    match c.into() {
        ColumnRef::Index(i) => Expr::Col(i),
        ColumnRef::Named(n) => Expr::Name(n),
    }
}

/// Named column reference builder; `name("r1.team")` is the explicit form
/// of `col("r1.team")` for qualified references.
pub fn name(n: impl Into<String>) -> Expr {
    Expr::Name(n.into())
}

/// Literal builder.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Lit(v.into())
}

impl Expr {
    // ---- fluent builders ------------------------------------------------

    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(rhs))
    }
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(rhs))
    }
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(rhs))
    }
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(rhs))
    }
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(rhs))
    }
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(rhs))
    }
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(rhs))
    }
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(rhs))
    }
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(rhs))
    }
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(self), Box::new(rhs))
    }
    pub fn between(self, low: Expr, high: Expr) -> Expr {
        Expr::Between {
            expr: Box::new(self),
            low: Box::new(low),
            high: Box::new(high),
            negated: false,
        }
    }
    pub fn is_null(self) -> Expr {
        Expr::IsNull {
            expr: Box::new(self),
            negated: false,
        }
    }
    pub fn is_not_null(self) -> Expr {
        Expr::IsNull {
            expr: Box::new(self),
            negated: true,
        }
    }

    /// The conjunction of all expressions, or `None` when empty.
    pub fn and_all(exprs: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        exprs.into_iter().reduce(Expr::and)
    }

    /// Flatten nested ANDs into a list of conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Largest column index referenced, if any.
    pub fn max_col(&self) -> Option<usize> {
        let mut m: Option<usize> = None;
        self.visit_cols(&mut |i| m = Some(m.map_or(i, |x| x.max(i))));
        m
    }

    /// True iff every referenced column satisfies `pred`.
    pub fn cols_all(&self, pred: &dyn Fn(usize) -> bool) -> bool {
        let mut ok = true;
        self.visit_cols(&mut |i| ok &= pred(i));
        ok
    }

    /// Visit each column reference.
    pub fn visit_cols(&self, f: &mut dyn FnMut(usize)) {
        match self {
            Expr::Col(i) => f(*i),
            Expr::Name(_) | Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) | Expr::Arith(_, a, b) => {
                a.visit_cols(f);
                b.visit_cols(f);
            }
            Expr::Not(a) | Expr::Neg(a) => a.visit_cols(f),
            Expr::Func(_, args) => args.iter().for_each(|a| a.visit_cols(f)),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.visit_cols(f);
                low.visit_cols(f);
                high.visit_cols(f);
            }
            Expr::IsNull { expr, .. } => expr.visit_cols(f),
        }
    }

    /// A copy with every column index rewritten by `map`.
    pub fn remap_cols(&self, map: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(map(*i)),
            Expr::Name(n) => Expr::Name(n.clone()),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => Expr::Cmp(
                *op,
                Box::new(a.remap_cols(map)),
                Box::new(b.remap_cols(map)),
            ),
            Expr::And(a, b) => Expr::And(Box::new(a.remap_cols(map)), Box::new(b.remap_cols(map))),
            Expr::Or(a, b) => Expr::Or(Box::new(a.remap_cols(map)), Box::new(b.remap_cols(map))),
            Expr::Not(a) => Expr::Not(Box::new(a.remap_cols(map))),
            Expr::Neg(a) => Expr::Neg(Box::new(a.remap_cols(map))),
            Expr::Arith(op, a, b) => Expr::Arith(
                *op,
                Box::new(a.remap_cols(map)),
                Box::new(b.remap_cols(map)),
            ),
            Expr::Func(func, args) => {
                Expr::Func(*func, args.iter().map(|a| a.remap_cols(map)).collect())
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(expr.remap_cols(map)),
                low: Box::new(low.remap_cols(map)),
                high: Box::new(high.remap_cols(map)),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.remap_cols(map)),
                negated: *negated,
            },
        }
    }

    /// A copy with all column indices shifted by `delta`.
    pub fn shift_cols(&self, delta: usize) -> Expr {
        self.remap_cols(&|i| i + delta)
    }

    /// Best-effort output type inference against `input`.
    pub fn infer_type(&self, input: &Schema) -> EngineResult<DataType> {
        match self {
            Expr::Col(i) => {
                if *i >= input.len() {
                    return Err(EngineError::Internal(format!(
                        "column index {i} out of bounds for schema of width {}",
                        input.len()
                    )));
                }
                Ok(input.col(*i).dtype)
            }
            Expr::Name(n) => {
                let i = input.index_of(n)?;
                Ok(input.col(i).dtype)
            }
            Expr::Lit(v) => Ok(v.dtype().unwrap_or(DataType::Int)),
            Expr::Cmp(..)
            | Expr::And(..)
            | Expr::Or(..)
            | Expr::Not(..)
            | Expr::Between { .. }
            | Expr::IsNull { .. } => Ok(DataType::Bool),
            Expr::Arith(_, a, b) => {
                let ta = a.infer_type(input)?;
                let tb = b.infer_type(input)?;
                if ta == DataType::Double || tb == DataType::Double {
                    Ok(DataType::Double)
                } else {
                    Ok(DataType::Int)
                }
            }
            Expr::Neg(a) => a.infer_type(input),
            Expr::Func(f, args) => match f {
                Func::Dur => Ok(DataType::Int),
                Func::Abs => args
                    .first()
                    .map(|a| a.infer_type(input))
                    .unwrap_or(Ok(DataType::Int)),
                Func::Greatest | Func::Least | Func::Coalesce => args
                    .first()
                    .map(|a| a.infer_type(input))
                    .unwrap_or(Ok(DataType::Int)),
            },
        }
    }

    /// Render against an optional schema (column names instead of indices).
    pub fn display(&self, schema: Option<&Schema>) -> String {
        let col_name = |i: usize| -> String {
            match schema {
                Some(s) if i < s.len() => s.col(i).qualified_name(),
                _ => format!("#{i}"),
            }
        };
        self.render(&col_name)
    }

    fn render(&self, col_name: &dyn Fn(usize) -> String) -> String {
        match self {
            Expr::Col(i) => col_name(*i),
            Expr::Name(n) => n.clone(),
            Expr::Lit(v) => match v {
                Value::Str(s) => format!("'{s}'"),
                Value::Null => "NULL".to_string(),
                other => other.to_string(),
            },
            Expr::Cmp(op, a, b) => format!(
                "{} {} {}",
                a.render(col_name),
                op.symbol(),
                b.render(col_name)
            ),
            Expr::And(a, b) => format!("({} AND {})", a.render(col_name), b.render(col_name)),
            Expr::Or(a, b) => format!("({} OR {})", a.render(col_name), b.render(col_name)),
            Expr::Not(a) => format!("NOT ({})", a.render(col_name)),
            Expr::Neg(a) => format!("-({})", a.render(col_name)),
            Expr::Arith(op, a, b) => format!(
                "({} {} {})",
                a.render(col_name),
                op.symbol(),
                b.render(col_name)
            ),
            Expr::Func(f, args) => format!(
                "{}({})",
                f.name(),
                args.iter()
                    .map(|a| a.render(col_name))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => format!(
                "{} {}BETWEEN {} AND {}",
                expr.render(col_name),
                if *negated { "NOT " } else { "" },
                low.render(col_name),
                high.render(col_name)
            ),
            Expr::IsNull { expr, negated } => format!(
                "{} IS {}NULL",
                expr.render(col_name),
                if *negated { "NOT " } else { "" }
            ),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display(None))
    }
}

/// Aggregate functions supported by [`crate::exec::HashAggregateExec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(expr)` — counts non-NULL values.
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::CountStar => "count(*)",
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    /// Result type given the argument type.
    pub fn result_type(&self, arg: Option<DataType>) -> DataType {
        match self {
            AggFunc::CountStar | AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Double,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => arg.unwrap_or(DataType::Int),
        }
    }
}

/// An aggregate call: function plus optional argument expression.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub func: AggFunc,
    /// `None` only for `CountStar`.
    pub arg: Option<Expr>,
}

impl AggCall {
    pub fn count_star() -> Self {
        AggCall {
            func: AggFunc::CountStar,
            arg: None,
        }
    }

    pub fn new(func: AggFunc, arg: Expr) -> Self {
        AggCall {
            func,
            arg: Some(arg),
        }
    }
}

/// One sort criterion.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    pub expr: Expr,
    pub desc: bool,
    pub nulls_first: bool,
}

impl SortKey {
    /// Ascending, NULLs first (matches `Value`'s total order).
    pub fn asc(expr: Expr) -> Self {
        SortKey {
            expr,
            desc: false,
            nulls_first: true,
        }
    }

    pub fn desc(expr: Expr) -> Self {
        SortKey {
            expr,
            desc: true,
            nulls_first: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_flattening() {
        let e = col(0)
            .eq(lit(1i64))
            .and(col(1).lt(lit(2i64)).and(col(2).gt(lit(3i64))));
        let cs = e.conjuncts();
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn max_col_and_shift() {
        let e = col(1).add(col(4)).eq(lit(0i64));
        assert_eq!(e.max_col(), Some(4));
        let s = e.shift_cols(10);
        assert_eq!(s.max_col(), Some(14));
    }

    #[test]
    fn cols_all_checks_side() {
        let e = col(0).eq(col(3));
        assert!(!e.cols_all(&|i| i < 2));
        assert!(e.cols_all(&|i| i < 4));
    }

    #[test]
    fn display_with_schema() {
        use crate::schema::{Column, DataType, Schema};
        let s = Schema::new(vec![
            Column::qualified("r", "a", DataType::Int),
            Column::qualified("s", "b", DataType::Int),
        ]);
        let e = col(0).eq(col(1)).and(col(0).gt(lit(5i64)));
        assert_eq!(e.display(Some(&s)), "(r.a = s.b AND r.a > 5)");
    }

    #[test]
    fn infer_types() {
        use crate::schema::{Column, DataType, Schema};
        let s = Schema::new(vec![
            Column::new("i", DataType::Int),
            Column::new("d", DataType::Double),
        ]);
        assert_eq!(col(0).add(col(0)).infer_type(&s).unwrap(), DataType::Int);
        assert_eq!(col(0).add(col(1)).infer_type(&s).unwrap(), DataType::Double);
        assert_eq!(col(0).eq(col(1)).infer_type(&s).unwrap(), DataType::Bool);
        assert!(col(7).infer_type(&s).is_err());
    }

    #[test]
    fn swapped_cmp() {
        assert_eq!(CmpOp::Lt.swapped(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.swapped(), CmpOp::Eq);
    }
}
