//! Name resolution: binds [`Expr::Name`] references to column positions.
//!
//! This is the analyzer pass behind the name-based expression API:
//! `col("team")` / `name("r1.team")` stay symbolic until a plan operator
//! knows its input schema, at which point [`Expr::resolve`] rewrites every
//! named reference into the positional [`Expr::Col`] form the planner and
//! executors work on, through [`Schema::index_of`] — the rule the SQL
//! analyzer resolves by too. Unknown names produce a did-you-mean error
//! naming the closest existing column; ambiguous names report the
//! candidate qualifiers so the user can qualify the reference.

use crate::error::EngineResult;
use crate::expr::Expr;
use crate::schema::Schema;

impl Expr {
    /// Does this expression (still) contain named column references?
    pub fn has_names(&self) -> bool {
        fn walk(e: &Expr) -> bool {
            match e {
                Expr::Name(_) => true,
                Expr::Col(_) | Expr::Lit(_) => false,
                Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) | Expr::Arith(_, a, b) => {
                    walk(a) || walk(b)
                }
                Expr::Not(a) | Expr::Neg(a) => walk(a),
                Expr::Func(_, args) => args.iter().any(walk),
                Expr::Between {
                    expr, low, high, ..
                } => walk(expr) || walk(low) || walk(high),
                Expr::IsNull { expr, .. } => walk(expr),
            }
        }
        walk(self)
    }

    /// A copy with every [`Expr::Name`] bound to its position in `schema`
    /// (the resolved [`Expr::Col`] form). Positional references are left
    /// untouched. Unknown names error with a did-you-mean suggestion,
    /// ambiguous ones with the qualified candidates.
    pub fn resolve(&self, schema: &Schema) -> EngineResult<Expr> {
        match self {
            Expr::Name(n) => Ok(Expr::Col(schema.index_of(n)?)),
            Expr::Col(_) | Expr::Lit(_) => Ok(self.clone()),
            Expr::Cmp(op, a, b) => Ok(Expr::Cmp(
                *op,
                Box::new(a.resolve(schema)?),
                Box::new(b.resolve(schema)?),
            )),
            Expr::And(a, b) => Ok(Expr::And(
                Box::new(a.resolve(schema)?),
                Box::new(b.resolve(schema)?),
            )),
            Expr::Or(a, b) => Ok(Expr::Or(
                Box::new(a.resolve(schema)?),
                Box::new(b.resolve(schema)?),
            )),
            Expr::Not(a) => Ok(Expr::Not(Box::new(a.resolve(schema)?))),
            Expr::Neg(a) => Ok(Expr::Neg(Box::new(a.resolve(schema)?))),
            Expr::Arith(op, a, b) => Ok(Expr::Arith(
                *op,
                Box::new(a.resolve(schema)?),
                Box::new(b.resolve(schema)?),
            )),
            Expr::Func(f, args) => Ok(Expr::Func(
                *f,
                args.iter()
                    .map(|a| a.resolve(schema))
                    .collect::<EngineResult<Vec<_>>>()?,
            )),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Ok(Expr::Between {
                expr: Box::new(expr.resolve(schema)?),
                low: Box::new(low.resolve(schema)?),
                high: Box::new(high.resolve(schema)?),
                negated: *negated,
            }),
            Expr::IsNull { expr, negated } => Ok(Expr::IsNull {
                expr: Box::new(expr.resolve(schema)?),
                negated: *negated,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, name};
    use crate::schema::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::qualified("r", "person", DataType::Str),
            Column::qualified("r", "team", DataType::Str),
            Column::qualified("s", "team", DataType::Str),
            Column::new("ts", DataType::Int),
            Column::new("te", DataType::Int),
        ])
    }

    #[test]
    fn resolves_unqualified_unique_names() {
        let e = col("person").eq(lit("ann")).resolve(&schema()).unwrap();
        assert_eq!(e, col(0usize).eq(lit("ann")));
        assert!(!e.has_names());
    }

    #[test]
    fn resolves_qualified_names() {
        let e = name("r.team")
            .eq(name("s.team"))
            .resolve(&schema())
            .unwrap();
        assert_eq!(e, col(1usize).eq(col(2usize)));
    }

    #[test]
    fn positional_references_pass_through() {
        let e = col(0usize).eq(lit(1i64));
        assert_eq!(e.resolve(&schema()).unwrap(), e);
    }
}
