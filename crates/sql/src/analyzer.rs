//! The analyzer: AST → engine logical plan (the "query tree" step of the
//! paper's Fig. 12). Name resolution, wildcard expansion, aggregate
//! extraction, `EXISTS` decorrelation into semi/anti joins, and lowering
//! of `ALIGN` / `NORMALIZE` / `ABSORB` onto the temporal primitives.

use temporal_core::primitives::absorb::AbsorbNode;
use temporal_core::primitives::adjustment::{align_plan, normalize_plan};
use temporal_engine::catalog::Catalog;
use temporal_engine::prelude::*;

use crate::ast::*;
use crate::error::{SqlError, SqlResult};

/// Analyzes statements against a catalog.
pub struct Analyzer<'a> {
    catalog: &'a Catalog,
}

/// CTE scope: ordered name → (plan, schema), later entries shadow earlier
/// ones and catalog tables.
#[derive(Default, Clone)]
struct CteScope {
    entries: Vec<(String, (LogicalPlan, Schema))>,
}

impl CteScope {
    fn get(&self, name: &str) -> Option<&(LogicalPlan, Schema)> {
        self.entries
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    fn insert(&mut self, name: String, value: (LogicalPlan, Schema)) {
        self.entries.push((name, value));
    }
}

impl<'a> Analyzer<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        Analyzer { catalog }
    }

    /// Analyze a SELECT statement into a logical plan.
    pub fn analyze(&self, stmt: &SelectStmt) -> SqlResult<LogicalPlan> {
        let ctes = CteScope::default();
        let (plan, _) = self.select(stmt, &ctes)?;
        Ok(plan)
    }

    fn select(&self, stmt: &SelectStmt, outer_ctes: &CteScope) -> SqlResult<(LogicalPlan, Schema)> {
        let mut ctes = outer_ctes.clone();
        for (name, sub) in &stmt.with {
            let (plan, schema) = self.select(sub, &ctes)?;
            ctes.insert(name.clone(), (plan, schema));
        }
        self.select_body(stmt, &ctes)
    }

    fn select_body(&self, stmt: &SelectStmt, ctes: &CteScope) -> SqlResult<(LogicalPlan, Schema)> {
        // FROM
        let (mut plan, mut schema) = match &stmt.from {
            Some(tr) => self.table_ref(tr, ctes)?,
            None => {
                // SELECT without FROM: a single empty row.
                let rel =
                    Relation::new(Schema::empty(), vec![Row::new(vec![])]).expect("empty schema");
                (LogicalPlan::inline_scan(rel), Schema::empty())
            }
        };

        // WHERE (with EXISTS decorrelation)
        if let Some(w) = &stmt.where_clause {
            let mut plain: Vec<Expr> = Vec::new();
            for conjunct in w.clone().conjuncts() {
                match conjunct {
                    AstExpr::Exists { query, negated } => {
                        // Flush accumulated filters before the join so the
                        // semi/anti join sees the filtered outer side.
                        if let Some(f) = Expr::and_all(plain.drain(..)) {
                            plan = plan.filter(f);
                        }
                        let (p, s) = self.exists_join(plan, &schema, &query, negated, ctes)?;
                        plan = p;
                        schema = s;
                    }
                    other => plain.push(self.scalar(&other, &schema)?),
                }
            }
            if let Some(f) = Expr::and_all(plain) {
                plan = plan.filter(f);
            }
        }

        // Projection / aggregation
        let has_agg = !stmt.group_by.is_empty()
            || stmt.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => contains_aggregate(expr),
                _ => false,
            });
        let (mut plan, mut out_schema) = if has_agg {
            self.aggregate_projection(stmt, plan, &schema)?
        } else {
            self.plain_projection(stmt, plan, &schema)?
        };

        // Quantifier
        match stmt.quantifier {
            Quantifier::All => {}
            Quantifier::Distinct => plan = plan.distinct(),
            Quantifier::Absorb => {
                // Paper Sec. 6.2: ABSORB eliminates temporal duplicates.
                // Convention: the projected output's last two columns are
                // the interval.
                if out_schema.len() < 2
                    || out_schema.col(out_schema.len() - 2).dtype != DataType::Int
                    || out_schema.col(out_schema.len() - 1).dtype != DataType::Int
                {
                    return Err(SqlError::Analyze(
                        "ABSORB requires the last two selected columns to be the \
                         interval (Int ts, te)"
                            .into(),
                    ));
                }
                plan = AbsorbNode::plan(plan);
            }
        }

        // ORDER BY (resolved against the output schema)
        if !stmt.order_by.is_empty() {
            let mut keys = Vec::new();
            for (e, desc) in &stmt.order_by {
                let expr = self.scalar(e, &out_schema)?;
                keys.push(if *desc {
                    SortKey::desc(expr)
                } else {
                    SortKey::asc(expr)
                });
            }
            plan = plan.sort(keys);
        }
        if let Some(n) = stmt.limit {
            plan = plan.limit(n);
        }

        // Set-operation continuation
        if let Some((op, rhs)) = &stmt.set_op {
            let (rhs_plan, rhs_schema) = self.select_body(rhs, ctes)?;
            if !out_schema.union_compatible(&rhs_schema) {
                return Err(SqlError::Analyze(format!(
                    "set operation arguments not union compatible: {out_schema} vs {rhs_schema}"
                )));
            }
            let kind = match op {
                SetOp::Union => SetOpKind::Union,
                SetOp::Except => SetOpKind::Except,
                SetOp::Intersect => SetOpKind::Intersect,
            };
            plan = plan.set_op(kind, rhs_plan);
            out_schema = out_schema.without_qualifiers();
        }

        Ok((plan, out_schema))
    }

    // ---- FROM items ------------------------------------------------------

    /// Lower `AS OF <expr>` to the canonical timeslice predicate
    /// `ts <= v AND te > v` over the table's trailing `(ts, te)` columns —
    /// the range shape the planner's access-path selection serves from
    /// zone maps or the interval index (a Rust plan gets the same path
    /// from a `selection` of this shape).
    fn apply_as_of(
        &self,
        plan: LogicalPlan,
        schema: &Schema,
        as_of: &Option<AstExpr>,
        name: &str,
    ) -> SqlResult<LogicalPlan> {
        let Some(ast) = as_of else {
            return Ok(plan);
        };
        let n = schema.len();
        let temporal = n >= 2
            && schema.cols()[n - 2].dtype == DataType::Int
            && schema.cols()[n - 1].dtype == DataType::Int;
        if !temporal {
            return Err(SqlError::Analyze(format!(
                "AS OF requires a temporal table; '{name}' lacks trailing integer (ts, te) columns"
            )));
        }
        let v = self.scalar(ast, schema)?;
        let predicate = col(n - 2).le(v.clone()).and(col(n - 1).gt(v));
        Ok(plan.filter(predicate))
    }

    fn table_ref(&self, tr: &TableRef, ctes: &CteScope) -> SqlResult<(LogicalPlan, Schema)> {
        match tr {
            TableRef::Named { name, alias, as_of } => {
                let qualifier = alias.clone().unwrap_or_else(|| name.clone());
                if let Some((plan, schema)) = ctes.get(name) {
                    let q = schema.with_qualifier(&qualifier);
                    let plan = self.apply_as_of(requalify(plan.clone(), &q), &q, as_of, name)?;
                    return Ok((plan, q));
                }
                let schema = self
                    .catalog
                    .schema_of(name)
                    .map_err(|e| SqlError::Analyze(e.to_string()))?
                    .with_qualifier(&qualifier);
                let plan = self.apply_as_of(
                    LogicalPlan::table_scan(name.clone(), schema.clone()),
                    &schema,
                    as_of,
                    name,
                )?;
                Ok((plan, schema))
            }
            TableRef::Subquery { query, alias } => {
                let (plan, schema) = self.select(query, ctes)?;
                let q = schema.with_qualifier(alias);
                Ok((requalify(plan, &q), q))
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let (lp, ls) = self.table_ref(left, ctes)?;
                let (rp, rs) = self.table_ref(right, ctes)?;
                let combined = ls.concat(&rs);
                let cond = match on {
                    Some(e) => Some(self.scalar(e, &combined)?),
                    None => None,
                };
                let jt = match kind {
                    JoinKind::Inner => JoinType::Inner,
                    JoinKind::Left => JoinType::Left,
                    JoinKind::Right => JoinType::Right,
                    JoinKind::Full => JoinType::Full,
                    JoinKind::Cross => JoinType::Inner,
                };
                Ok((lp.join(rp, jt, cond), combined))
            }
            TableRef::Align {
                left,
                right,
                on,
                alias,
            } => {
                let (lp, ls) = self.table_ref(left, ctes)?;
                let (rp, rs) = self.table_ref(right, ctes)?;
                check_temporal(&ls, "ALIGN left argument")?;
                check_temporal(&rs, "ALIGN right argument")?;
                let combined = ls.concat(&rs);
                let theta = self.scalar(on, &combined)?;
                let plan = align_plan(lp, rp, Some(theta))?;
                let schema = match alias {
                    Some(a) => ls.with_qualifier(a),
                    None => ls,
                };
                Ok((requalify(plan, &schema), schema))
            }
            TableRef::Normalize {
                left,
                right,
                using,
                alias,
            } => {
                let (lp, ls) = self.table_ref(left, ctes)?;
                let (rp, rs) = self.table_ref(right, ctes)?;
                check_temporal(&ls, "NORMALIZE left argument")?;
                check_temporal(&rs, "NORMALIZE right argument")?;
                let mut b = Vec::with_capacity(using.len());
                for name in using {
                    let li = ls
                        .index_of(name)
                        .map_err(|e| SqlError::Analyze(e.to_string()))?;
                    let ri = rs
                        .index_of(name)
                        .map_err(|e| SqlError::Analyze(e.to_string()))?;
                    if li >= ls.len() - 2 || ri >= rs.len() - 2 {
                        return Err(SqlError::Analyze(format!(
                            "USING column '{name}' must be a nontemporal attribute"
                        )));
                    }
                    b.push((li, ri));
                }
                let plan = normalize_plan(lp, rp, &b)?;
                let schema = match alias {
                    Some(a) => ls.with_qualifier(a),
                    None => ls,
                };
                Ok((requalify(plan, &schema), schema))
            }
        }
    }

    /// `[NOT] EXISTS (SELECT … FROM f WHERE c)` → semi/anti join with the
    /// correlated predicate. Correlated references must be qualified with
    /// the outer alias (ambiguous unqualified names are rejected).
    fn exists_join(
        &self,
        outer: LogicalPlan,
        outer_schema: &Schema,
        sub: &SelectStmt,
        negated: bool,
        ctes: &CteScope,
    ) -> SqlResult<(LogicalPlan, Schema)> {
        if !sub.with.is_empty()
            || !sub.group_by.is_empty()
            || sub.set_op.is_some()
            || !sub.order_by.is_empty()
            || sub.limit.is_some()
        {
            return Err(SqlError::Analyze(
                "EXISTS subqueries support only SELECT … FROM … WHERE …".into(),
            ));
        }
        let from = sub
            .from
            .as_ref()
            .ok_or_else(|| SqlError::Analyze("EXISTS subquery needs a FROM clause".into()))?;
        let (sub_plan, sub_schema) = self.table_ref(from, ctes)?;
        let combined = outer_schema.concat(&sub_schema);
        let cond = match &sub.where_clause {
            Some(w) => {
                if w.clone()
                    .conjuncts()
                    .iter()
                    .any(|c| matches!(c, AstExpr::Exists { .. }))
                {
                    return Err(SqlError::Analyze("nested EXISTS is not supported".into()));
                }
                Some(self.scalar(w, &combined)?)
            }
            None => None,
        };
        let jt = if negated {
            JoinType::Anti
        } else {
            JoinType::Semi
        };
        Ok((outer.join(sub_plan, jt, cond), outer_schema.clone()))
    }

    // ---- projections -----------------------------------------------------

    fn plain_projection(
        &self,
        stmt: &SelectStmt,
        plan: LogicalPlan,
        schema: &Schema,
    ) -> SqlResult<(LogicalPlan, Schema)> {
        let mut exprs: Vec<Expr> = Vec::new();
        let mut cols: Vec<Column> = Vec::new();
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => {
                    for (i, c) in schema.cols().iter().enumerate() {
                        exprs.push(col(i));
                        cols.push(c.clone());
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let mut any = false;
                    for (i, c) in schema.cols().iter().enumerate() {
                        if c.qualifier.as_deref() == Some(q.as_str()) {
                            exprs.push(col(i));
                            cols.push(c.clone());
                            any = true;
                        }
                    }
                    if !any {
                        return Err(SqlError::Analyze(format!(
                            "unknown relation alias '{q}' in {q}.*"
                        )));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let e = self.scalar(expr, schema)?;
                    let dtype = e
                        .infer_type(schema)
                        .map_err(|er| SqlError::Analyze(er.to_string()))?;
                    let name = alias.clone().unwrap_or_else(|| derive_name(expr));
                    // Column references keep their qualifier for
                    // downstream resolution (e.g. ORDER BY r.ts).
                    let column = match (&e, alias) {
                        (Expr::Col(i), None) => schema.col(*i).clone(),
                        _ => Column::new(name, dtype),
                    };
                    exprs.push(e);
                    cols.push(column);
                }
            }
        }
        let out_schema = Schema::new(cols);
        let plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs,
            schema: out_schema.clone(),
        };
        Ok((plan, out_schema))
    }

    fn aggregate_projection(
        &self,
        stmt: &SelectStmt,
        plan: LogicalPlan,
        schema: &Schema,
    ) -> SqlResult<(LogicalPlan, Schema)> {
        // Resolve grouping expressions.
        let mut group_exprs: Vec<Expr> = Vec::new();
        for g in &stmt.group_by {
            group_exprs.push(self.scalar(g, schema)?);
        }
        let _n_group = group_exprs.len();

        // Rewrite select items over (group cols ++ agg cols).
        let mut aggs: Vec<AggCall> = Vec::new();
        let mut out_items: Vec<(Expr, Column)> = Vec::new();
        for item in &stmt.items {
            let (expr, alias) = match item {
                SelectItem::Expr { expr, alias } => (expr, alias),
                _ => {
                    return Err(SqlError::Analyze(
                        "wildcards are not allowed with GROUP BY / aggregates".into(),
                    ))
                }
            };
            let rewritten =
                self.rewrite_agg(expr, schema, &stmt.group_by, &group_exprs, &mut aggs)?;
            let name = alias.clone().unwrap_or_else(|| derive_name(expr));
            // Plain column references keep their qualifier so ORDER BY
            // q.col still resolves; types are fixed up below.
            let column = match (expr, alias) {
                (
                    AstExpr::Column {
                        qualifier: Some(q), ..
                    },
                    None,
                ) => Column::qualified(q.clone(), name, DataType::Int),
                _ => Column::new(name, DataType::Int),
            };
            out_items.push((rewritten, column));
        }

        // Build the Aggregate node.
        let group_named: Vec<(Expr, String)> = group_exprs
            .iter()
            .enumerate()
            .map(|(i, e)| (e.clone(), format!("__g{i}")))
            .collect();
        let aggs_named: Vec<(AggCall, String)> = aggs
            .iter()
            .enumerate()
            .map(|(i, a)| (a.clone(), format!("__a{i}")))
            .collect();
        let agg_plan = plan
            .aggregate_named(group_named, aggs_named)
            .map_err(|e| SqlError::Analyze(e.to_string()))?;
        let agg_schema = agg_plan.schema();

        // Finalize output columns with proper types.
        let mut exprs = Vec::with_capacity(out_items.len());
        let mut cols = Vec::with_capacity(out_items.len());
        for (e, mut c) in out_items {
            c.dtype = e
                .infer_type(&agg_schema)
                .map_err(|er| SqlError::Analyze(er.to_string()))?;
            exprs.push(e);
            cols.push(c);
        }
        let out_schema = Schema::new(cols);
        let plan = LogicalPlan::Project {
            input: Box::new(agg_plan),
            exprs,
            schema: out_schema.clone(),
        };
        Ok((plan, out_schema))
    }

    /// Rewrite a select-item AST over the aggregate output: grouping
    /// expressions map to their group column, aggregate calls are
    /// registered and map to their agg column; anything else recurses.
    fn rewrite_agg(
        &self,
        ast: &AstExpr,
        input: &Schema,
        group_asts: &[AstExpr],
        group_exprs: &[Expr],
        aggs: &mut Vec<AggCall>,
    ) -> SqlResult<Expr> {
        // Syntactic match with a GROUP BY item?
        if let Some(i) = group_asts.iter().position(|g| g == ast) {
            return Ok(col(i));
        }
        // Semantic match (same resolved expression)?
        if let Ok(resolved) = self.scalar(ast, input) {
            if let Some(i) = group_exprs.iter().position(|g| *g == resolved) {
                return Ok(col(i));
            }
        }
        match ast {
            AstExpr::Func { name, args, star } => {
                if let Some(func) = agg_func(name) {
                    let call = if *star {
                        AggCall::count_star()
                    } else {
                        if args.len() != 1 {
                            return Err(SqlError::Analyze(format!(
                                "aggregate {name} expects one argument"
                            )));
                        }
                        AggCall::new(func, self.scalar(&args[0], input)?)
                    };
                    let idx = aggs.len();
                    aggs.push(call);
                    return Ok(col(group_exprs.len() + idx));
                }
                // Scalar function over rewritten arguments.
                let mut rewritten = Vec::with_capacity(args.len());
                for a in args {
                    rewritten.push(self.rewrite_agg(a, input, group_asts, group_exprs, aggs)?);
                }
                Ok(Expr::Func(scalar_func(name)?, rewritten))
            }
            AstExpr::IntLit(v) => Ok(lit(*v)),
            AstExpr::FloatLit(v) => Ok(lit(*v)),
            AstExpr::StringLit(s) => Ok(lit(Value::str(s))),
            AstExpr::BoolLit(b) => Ok(lit(*b)),
            AstExpr::NullLit => Ok(Expr::Lit(Value::Null)),
            AstExpr::Binary { op, left, right } => {
                let l = self.rewrite_agg(left, input, group_asts, group_exprs, aggs)?;
                let r = self.rewrite_agg(right, input, group_asts, group_exprs, aggs)?;
                Ok(binary(*op, l, r))
            }
            AstExpr::Neg(e) => Ok(Expr::Neg(Box::new(self.rewrite_agg(
                e,
                input,
                group_asts,
                group_exprs,
                aggs,
            )?))),
            AstExpr::Column { qualifier, name } => Err(SqlError::Analyze(format!(
                "column '{}{name}' must appear in GROUP BY or inside an aggregate",
                qualifier
                    .as_ref()
                    .map(|q| format!("{q}."))
                    .unwrap_or_default()
            ))),
            other => Err(SqlError::Analyze(format!(
                "unsupported expression in aggregate select list: {other:?}"
            ))),
        }
    }

    // ---- scalar expressions ----------------------------------------------

    fn scalar(&self, ast: &AstExpr, schema: &Schema) -> SqlResult<Expr> {
        Ok(match ast {
            AstExpr::Column { qualifier, name } => {
                let idx = schema
                    .resolve(qualifier.as_deref(), name)
                    .map_err(|e| SqlError::Analyze(e.to_string()))?;
                col(idx)
            }
            AstExpr::IntLit(v) => lit(*v),
            AstExpr::FloatLit(v) => lit(*v),
            AstExpr::StringLit(s) => lit(Value::str(s)),
            AstExpr::BoolLit(b) => lit(*b),
            AstExpr::NullLit => Expr::Lit(Value::Null),
            AstExpr::Binary { op, left, right } => {
                let l = self.scalar(left, schema)?;
                let r = self.scalar(right, schema)?;
                binary(*op, l, r)
            }
            AstExpr::Not(e) => self.scalar(e, schema)?.not(),
            AstExpr::Neg(e) => Expr::Neg(Box::new(self.scalar(e, schema)?)),
            AstExpr::Func { name, args, star } => {
                if *star || agg_func(name).is_some() {
                    return Err(SqlError::Analyze(format!(
                        "aggregate '{name}' is not allowed in this context"
                    )));
                }
                let mut resolved = Vec::with_capacity(args.len());
                for a in args {
                    resolved.push(self.scalar(a, schema)?);
                }
                Expr::Func(scalar_func(name)?, resolved)
            }
            AstExpr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(self.scalar(expr, schema)?),
                low: Box::new(self.scalar(low, schema)?),
                high: Box::new(self.scalar(high, schema)?),
                negated: *negated,
            },
            AstExpr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(self.scalar(expr, schema)?),
                negated: *negated,
            },
            AstExpr::Exists { .. } => {
                return Err(SqlError::Analyze(
                    "EXISTS is only supported as a top-level WHERE conjunct".into(),
                ))
            }
        })
    }
}

fn binary(op: BinOp, l: Expr, r: Expr) -> Expr {
    match op {
        BinOp::And => l.and(r),
        BinOp::Or => l.or(r),
        BinOp::Eq => l.eq(r),
        BinOp::Ne => l.ne(r),
        BinOp::Lt => l.lt(r),
        BinOp::Le => l.le(r),
        BinOp::Gt => l.gt(r),
        BinOp::Ge => l.ge(r),
        BinOp::Add => l.add(r),
        BinOp::Sub => l.sub(r),
        BinOp::Mul => l.mul(r),
        BinOp::Div => l.div(r),
    }
}

fn agg_func(name: &str) -> Option<AggFunc> {
    Some(match name {
        "count" => AggFunc::Count,
        "sum" => AggFunc::Sum,
        "avg" => AggFunc::Avg,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        _ => return None,
    })
}

fn scalar_func(name: &str) -> SqlResult<Func> {
    Ok(match name {
        "dur" => Func::Dur,
        "greatest" => Func::Greatest,
        "least" => Func::Least,
        "coalesce" => Func::Coalesce,
        "abs" => Func::Abs,
        other => return Err(SqlError::Analyze(format!("unknown function '{other}'"))),
    })
}

fn contains_aggregate(e: &AstExpr) -> bool {
    match e {
        AstExpr::Func { name, args, star } => {
            *star || agg_func(name).is_some() || args.iter().any(contains_aggregate)
        }
        AstExpr::Binary { left, right, .. } => {
            contains_aggregate(left) || contains_aggregate(right)
        }
        AstExpr::Not(e) | AstExpr::Neg(e) => contains_aggregate(e),
        AstExpr::Between {
            expr, low, high, ..
        } => contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high),
        AstExpr::IsNull { expr, .. } => contains_aggregate(expr),
        _ => false,
    }
}

fn derive_name(e: &AstExpr) -> String {
    match e {
        AstExpr::Column { name, .. } => name.clone(),
        AstExpr::Func { name, .. } => name.clone(),
        _ => "?column?".to_string(),
    }
}

/// Wrap a plan in an identity projection that re-labels its schema.
fn requalify(plan: LogicalPlan, schema: &Schema) -> LogicalPlan {
    LogicalPlan::Project {
        exprs: (0..schema.len()).map(col).collect(),
        input: Box::new(plan),
        schema: schema.clone(),
    }
}

fn check_temporal(schema: &Schema, what: &str) -> SqlResult<()> {
    if schema.len() < 2
        || schema.col(schema.len() - 2).dtype != DataType::Int
        || schema.col(schema.len() - 1).dtype != DataType::Int
    {
        return Err(SqlError::Analyze(format!(
            "{what} must be a temporal relation (last two columns Int ts/te), found {schema}"
        )));
    }
    Ok(())
}
