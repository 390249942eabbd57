//! Logical plans: the engine's "query tree" (paper Fig. 12b).
//!
//! Downstream crates extend the algebra through [`ExtensionNode`] — the
//! same mechanism by which the paper adds `ALIGN`/`NORMALIZE` nodes to
//! PostgreSQL's query tree without touching the relational core.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use crate::error::{EngineError, EngineResult};
use crate::exec::BoxedExec;
use crate::expr::{AggCall, Expr, SortKey};
use crate::plan::cost::{CostModel, PlanStats};
use crate::plan::{JoinType, SetOpKind};
use crate::relation::Relation;
use crate::schema::{Column, Schema};

/// Any `'static` type as [`Any`], so an [`ExtensionNode`] can recognize
/// another node of its own type ([`ExtensionNode::same_computation`]).
pub trait AsAny {
    fn as_any(&self) -> &dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A user-defined logical operator (e.g. the temporal adjustment primitives).
pub trait ExtensionNode: AsAny + fmt::Debug + Send + Sync {
    /// Short name for EXPLAIN output.
    fn name(&self) -> &str;

    /// Child plans.
    fn inputs(&self) -> Vec<&LogicalPlan>;

    /// Rebuild with new children (same arity as [`ExtensionNode::inputs`]).
    fn with_new_inputs(&self, inputs: Vec<LogicalPlan>) -> Arc<dyn ExtensionNode>;

    /// Output schema.
    fn schema(&self) -> Schema;

    /// Cardinality/cost estimate given child statistics and the planner's
    /// cost model — the hook the paper describes in Sec. 6.2/6.3 ("the
    /// optimizer needs cost estimations for the new operator").
    fn estimate(&self, input_stats: &[PlanStats], model: &CostModel) -> PlanStats;

    /// Build the executor, given already-built children.
    fn build_exec(&self, children: Vec<BoxedExec>) -> EngineResult<BoxedExec>;

    /// Declare that output column `out_col` is a verbatim copy of column
    /// `in_col` of input `input_idx` **and** that a selection on it
    /// commutes with this node: filtering the input rows on that column
    /// before the node must produce exactly the rows that filtering the
    /// output would keep. The optimizer uses this to push non-timestamp
    /// filters *across* extension boundaries (e.g. below a temporal
    /// alignment, whose data columns partition the plane sweep into
    /// independent groups). Returning `None` (the default) keeps filters
    /// above the node.
    fn passthrough_column(&self, out_col: usize) -> Option<(usize, usize)> {
        let _ = out_col;
        None
    }

    /// Does `other` compute what this node computes from equal inputs —
    /// the same operator with the same parameters? The planner evaluates
    /// a subplan that occurs twice in a statement once when every node of
    /// the two occurrences agrees ([`crate::plan::share`]); the caller has
    /// already compared the names, output column types and inputs. The
    /// default, "never", keeps every occurrence of an extension node.
    fn same_computation(&self, other: &dyn ExtensionNode) -> bool {
        let _ = other;
        false
    }

    /// One-line description for EXPLAIN.
    fn explain(&self) -> String {
        self.name().to_string()
    }
}

/// A relational logical plan.
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Scan a named catalog table (schema captured at analysis time).
    TableScan {
        name: String,
        schema: Schema,
    },
    /// Scan an inline (already materialized) relation.
    InlineScan {
        rel: Arc<Relation>,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<Expr>,
        schema: Schema,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group: Vec<Expr>,
        aggs: Vec<AggCall>,
        schema: Schema,
    },
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
    },
    Distinct {
        input: Box<LogicalPlan>,
    },
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        join_type: JoinType,
        condition: Option<Expr>,
    },
    SetOp {
        kind: SetOpKind,
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
    },
    Limit {
        input: Box<LogicalPlan>,
        n: usize,
    },
    Extension {
        node: Arc<dyn ExtensionNode>,
    },
}

impl LogicalPlan {
    // ---- constructors ---------------------------------------------------

    /// Scan an inline relation.
    pub fn inline_scan(rel: Relation) -> LogicalPlan {
        LogicalPlan::InlineScan { rel: Arc::new(rel) }
    }

    /// Scan a shared relation without copying.
    pub fn inline_scan_shared(rel: Arc<Relation>) -> LogicalPlan {
        LogicalPlan::InlineScan { rel }
    }

    /// Scan a named table; `schema` must match what the catalog will serve.
    pub fn table_scan(name: impl Into<String>, schema: Schema) -> LogicalPlan {
        LogicalPlan::TableScan {
            name: name.into(),
            schema,
        }
    }

    /// σ: filter by a predicate.
    pub fn filter(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// π: project expressions with explicit output names (types inferred).
    pub fn project_named(self, items: Vec<(Expr, impl Into<String>)>) -> EngineResult<LogicalPlan> {
        let input_schema = self.schema();
        let mut exprs = Vec::with_capacity(items.len());
        let mut cols = Vec::with_capacity(items.len());
        for (e, name) in items {
            let dtype = e.infer_type(&input_schema)?;
            cols.push(Column::new(name.into(), dtype));
            exprs.push(e);
        }
        Ok(LogicalPlan::Project {
            input: Box::new(self),
            exprs,
            schema: Schema::new(cols),
        })
    }

    /// π with fully explicit output columns (names, qualifiers and types
    /// given by the caller) — used where inferred unqualified names would
    /// lose resolution information, e.g. the temporal join reduction.
    pub fn project_columns(self, items: Vec<(Expr, Column)>) -> LogicalPlan {
        let (exprs, cols): (Vec<Expr>, Vec<Column>) = items.into_iter().unzip();
        LogicalPlan::Project {
            input: Box::new(self),
            exprs,
            schema: Schema::new(cols),
        }
    }

    /// π onto a set of existing columns (names preserved).
    pub fn project_cols(self, idxs: &[usize]) -> LogicalPlan {
        let schema = self.schema().project(idxs);
        LogicalPlan::Project {
            input: Box::new(self),
            exprs: idxs.iter().map(|&i| Expr::Col(i)).collect(),
            schema,
        }
    }

    /// ϑ: grouped aggregation; output = group columns then aggregates.
    pub fn aggregate_named(
        self,
        group: Vec<(Expr, impl Into<String>)>,
        aggs: Vec<(AggCall, impl Into<String>)>,
    ) -> EngineResult<LogicalPlan> {
        let input_schema = self.schema();
        let mut group_exprs = Vec::with_capacity(group.len());
        let mut cols = Vec::with_capacity(group.len() + aggs.len());
        for (e, name) in group {
            let dtype = e.infer_type(&input_schema)?;
            cols.push(Column::new(name.into(), dtype));
            group_exprs.push(e);
        }
        let mut agg_calls = Vec::with_capacity(aggs.len());
        for (a, name) in aggs {
            let arg_t = match &a.arg {
                Some(e) => Some(e.infer_type(&input_schema)?),
                None => None,
            };
            cols.push(Column::new(name.into(), a.func.result_type(arg_t)));
            agg_calls.push(a);
        }
        Ok(LogicalPlan::Aggregate {
            input: Box::new(self),
            group: group_exprs,
            aggs: agg_calls,
            schema: Schema::new(cols),
        })
    }

    /// Sort by keys.
    pub fn sort(self, keys: Vec<SortKey>) -> LogicalPlan {
        LogicalPlan::Sort {
            input: Box::new(self),
            keys,
        }
    }

    /// δ: duplicate elimination.
    pub fn distinct(self) -> LogicalPlan {
        LogicalPlan::Distinct {
            input: Box::new(self),
        }
    }

    /// Join with another plan.
    pub fn join(
        self,
        right: LogicalPlan,
        join_type: JoinType,
        condition: Option<Expr>,
    ) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            join_type,
            condition,
        }
    }

    /// Set operation with another plan.
    pub fn set_op(self, kind: SetOpKind, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::SetOp {
            kind,
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// LIMIT n.
    pub fn limit(self, n: usize) -> LogicalPlan {
        LogicalPlan::Limit {
            input: Box::new(self),
            n,
        }
    }

    /// Wrap an extension node.
    pub fn extension(node: Arc<dyn ExtensionNode>) -> LogicalPlan {
        LogicalPlan::Extension { node }
    }

    // ---- reflection ------------------------------------------------------

    /// The output schema of this plan.
    pub fn schema(&self) -> Schema {
        match self {
            LogicalPlan::TableScan { schema, .. } => schema.clone(),
            LogicalPlan::InlineScan { rel } => rel.schema().clone(),
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Project { schema, .. } => schema.clone(),
            LogicalPlan::Aggregate { schema, .. } => schema.clone(),
            LogicalPlan::Sort { input, .. } => input.schema(),
            LogicalPlan::Distinct { input } => input.schema(),
            LogicalPlan::Join {
                left,
                right,
                join_type,
                ..
            } => {
                if join_type.emits_right() {
                    left.schema().concat(&right.schema())
                } else {
                    left.schema()
                }
            }
            LogicalPlan::SetOp { left, .. } => left.schema(),
            LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::Extension { node } => node.schema(),
        }
    }

    /// Direct children in left-to-right order (empty for leaves).
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::TableScan { .. } | LogicalPlan::InlineScan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                vec![left, right]
            }
            LogicalPlan::Extension { node } => node.inputs(),
        }
    }

    /// Validate structural invariants (arities, union compatibility,
    /// column-reference bounds). Returns `self` for chaining.
    pub fn validated(self) -> EngineResult<LogicalPlan> {
        self.validate()?;
        Ok(self)
    }

    fn validate(&self) -> EngineResult<()> {
        let check_expr = |e: &Expr, schema: &Schema| -> EngineResult<()> {
            if let Some(m) = e.max_col() {
                if m >= schema.len() {
                    return Err(EngineError::Internal(format!(
                        "expression references column {m} but input has {} columns",
                        schema.len()
                    )));
                }
            }
            Ok(())
        };
        match self {
            LogicalPlan::TableScan { .. } | LogicalPlan::InlineScan { .. } => Ok(()),
            LogicalPlan::Filter { input, predicate } => {
                input.validate()?;
                check_expr(predicate, &input.schema())
            }
            LogicalPlan::Project { input, exprs, .. } => {
                input.validate()?;
                let s = input.schema();
                exprs.iter().try_for_each(|e| check_expr(e, &s))
            }
            LogicalPlan::Aggregate {
                input, group, aggs, ..
            } => {
                input.validate()?;
                let s = input.schema();
                group.iter().try_for_each(|e| check_expr(e, &s))?;
                aggs.iter()
                    .filter_map(|a| a.arg.as_ref())
                    .try_for_each(|e| check_expr(e, &s))
            }
            LogicalPlan::Sort { input, keys } => {
                input.validate()?;
                let s = input.schema();
                keys.iter().try_for_each(|k| check_expr(&k.expr, &s))
            }
            LogicalPlan::Distinct { input } | LogicalPlan::Limit { input, .. } => input.validate(),
            LogicalPlan::Join {
                left,
                right,
                condition,
                ..
            } => {
                left.validate()?;
                right.validate()?;
                if let Some(c) = condition {
                    check_expr(c, &left.schema().concat(&right.schema()))?;
                }
                Ok(())
            }
            LogicalPlan::SetOp { left, right, .. } => {
                left.validate()?;
                right.validate()?;
                if !left.schema().union_compatible(&right.schema()) {
                    return Err(EngineError::SchemaMismatch(format!(
                        "set operation arguments not union compatible: {} vs {}",
                        left.schema(),
                        right.schema()
                    )));
                }
                Ok(())
            }
            LogicalPlan::Extension { node } => {
                node.inputs().into_iter().try_for_each(|p| p.validate())
            }
        }
    }

    /// Pretty-printed plan tree.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            LogicalPlan::TableScan { name, .. } => {
                out.push_str(&format!("{pad}TableScan: {name}\n"));
            }
            LogicalPlan::InlineScan { rel } => {
                out.push_str(&format!("{pad}InlineScan: {} rows\n", rel.len()));
            }
            LogicalPlan::Filter { input, predicate } => {
                out.push_str(&format!(
                    "{pad}Filter: {}\n",
                    predicate.display(Some(&input.schema()))
                ));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => {
                let items: Vec<String> = exprs
                    .iter()
                    .zip(schema.cols())
                    .map(|(e, c)| format!("{} AS {}", e.display(Some(&input.schema())), c.name))
                    .collect();
                out.push_str(&format!("{pad}Project: {}\n", items.join(", ")));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Aggregate {
                input, group, aggs, ..
            } => {
                let s = input.schema();
                let g: Vec<String> = group.iter().map(|e| e.display(Some(&s))).collect();
                let a: Vec<String> = aggs
                    .iter()
                    .map(|c| match &c.arg {
                        Some(e) => format!("{}({})", c.func.name(), e.display(Some(&s))),
                        None => c.func.name().to_string(),
                    })
                    .collect();
                out.push_str(&format!(
                    "{pad}Aggregate: group=[{}] aggs=[{}]\n",
                    g.join(", "),
                    a.join(", ")
                ));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Sort { input, keys } => {
                let s = input.schema();
                let k: Vec<String> = keys
                    .iter()
                    .map(|k| {
                        format!(
                            "{}{}",
                            k.expr.display(Some(&s)),
                            if k.desc { " DESC" } else { "" }
                        )
                    })
                    .collect();
                out.push_str(&format!("{pad}Sort: {}\n", k.join(", ")));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Distinct { input } => {
                out.push_str(&format!("{pad}Distinct\n"));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                condition,
            } => {
                let cond = match condition {
                    Some(c) => c.display(Some(&left.schema().concat(&right.schema()))),
                    None => "true".to_string(),
                };
                out.push_str(&format!("{pad}Join[{}]: {}\n", join_type.name(), cond));
                left.explain_into(out, indent + 1);
                right.explain_into(out, indent + 1);
            }
            LogicalPlan::SetOp { kind, left, right } => {
                out.push_str(&format!("{pad}{}\n", kind.name()));
                left.explain_into(out, indent + 1);
                right.explain_into(out, indent + 1);
            }
            LogicalPlan::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit: {n}\n"));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Extension { node } => {
                out.push_str(&format!("{pad}{}\n", node.explain()));
                for i in node.inputs() {
                    i.explain_into(out, indent + 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::schema::DataType;
    use crate::value::Value;

    fn rel() -> Relation {
        Relation::from_values(
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
            vec![vec![Value::Int(1), Value::Int(2)]],
        )
        .unwrap()
    }

    #[test]
    fn schemas_propagate() {
        let p = LogicalPlan::inline_scan(rel())
            .filter(col(0).gt(lit(0i64)))
            .project_named(vec![(col(1), "b2")])
            .unwrap();
        assert_eq!(p.schema().names(), vec!["b2"]);
    }

    #[test]
    fn join_schema_depends_on_type() {
        let l = LogicalPlan::inline_scan(rel());
        let r = LogicalPlan::inline_scan(rel());
        let j = l.clone().join(r.clone(), JoinType::Inner, None);
        assert_eq!(j.schema().len(), 4);
        let j = l.join(r, JoinType::Anti, None);
        assert_eq!(j.schema().len(), 2);
    }

    #[test]
    fn validate_catches_out_of_bounds_columns() {
        let p = LogicalPlan::inline_scan(rel()).filter(col(9).gt(lit(0i64)));
        assert!(p.validated().is_err());
    }

    #[test]
    fn validate_catches_union_incompatibility() {
        let narrow = Relation::from_values(
            Schema::new(vec![Column::new("x", DataType::Int)]),
            vec![vec![Value::Int(1)]],
        )
        .unwrap();
        let p = LogicalPlan::inline_scan(rel())
            .set_op(SetOpKind::Union, LogicalPlan::inline_scan(narrow));
        assert!(p.validated().is_err());
    }

    #[test]
    fn explain_renders_tree() {
        let p = LogicalPlan::inline_scan(rel()).filter(col(0).eq(lit(1i64)));
        let text = p.explain();
        assert!(text.contains("Filter: a = 1"));
        assert!(text.contains("InlineScan"));
    }
}
