//! Plan-first composition of the sequenced temporal algebra.
//!
//! [`TemporalPlan`] is a builder whose operators compose the Table-2
//! reductions into **one** [`LogicalPlan`]: a whole temporal query —
//! e.g. σᵀ ∘ ⋈ᵀ ∘ ϑᵀ — compiles to a single tree that the engine plans,
//! optimizes and executes with a single [`Planner::run`], exactly as the
//! paper integrates alignment into the DBMS kernel (Sec. 6) so "the
//! optimizer sees the whole query". This replaces the eager evaluation
//! style (materialize a [`TemporalRelation`] after every operator and
//! re-wrap it in an inline scan), which put a materialization barrier
//! between every pair of operators and hid the query from cross-operator
//! optimization.
//!
//! Two engine facilities make the composition sound and fast:
//!
//! * the reduction rules are self-referencing (a reduced θ-join aligns
//!   `r` with `s` *and* `s` with `r`; group-based operators normalize
//!   their input against itself), so a composed operand would be
//!   re-executed several times — unless it is a cheap-to-rescan leaf, the
//!   builder wraps it in a [`SpoolNode`] whose clones share one
//!   materialization;
//! * the planner's rewrite pass pushes non-timestamp selections across
//!   the alignment/normalization/absorb extension nodes (via their
//!   pass-through hooks), so a late σᵀ filters base relations early.

use temporal_engine::catalog::Catalog;
use temporal_engine::plan::SpoolNode;
use temporal_engine::prelude::*;

use crate::error::{TemporalError, TemporalResult};
use crate::primitives::absorb::AbsorbNode;
use crate::primitives::adjustment::{align_plan, antijoin_gaps_plan, normalize_plan};

use super::{
    reduce_aggregation, reduce_antijoin, reduce_join, reduce_projection, reduce_selection,
    reduce_setop, self_pairs,
};

/// A composed temporal query: a logical plan whose output is a temporal
/// relation (last two columns `ts`/`te`). Built by chaining the operators
/// of the sequenced temporal algebra; executed by one [`Planner::run`].
#[derive(Debug, Clone)]
pub struct TemporalPlan {
    plan: LogicalPlan,
}

/// Is this subtree cheap to execute more than once? Leaf scans share their
/// relation, and a pipelined filter/projection over them re-evaluates a
/// few expressions per row — cheaper than materializing, and it keeps the
/// subtree transparent to filter pushdown.
fn cheap_to_rescan(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::TableScan { .. } | LogicalPlan::InlineScan { .. } => true,
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            cheap_to_rescan(input)
        }
        _ => false,
    }
}

/// An operand that the reduction rules will reference more than once:
/// cheap subtrees are used as-is, composed subtrees are spooled so every
/// reference shares one materialization.
fn shared_operand(plan: LogicalPlan) -> LogicalPlan {
    if cheap_to_rescan(&plan) {
        plan
    } else {
        SpoolNode::shared(plan)
    }
}

fn check_temporal(schema: &Schema, what: &str) -> TemporalResult<()> {
    let n = schema.len();
    if n < 2 || schema.col(n - 2).dtype != DataType::Int || schema.col(n - 1).dtype != DataType::Int
    {
        return Err(TemporalError::InvalidRelation(format!(
            "{what} must produce a temporal relation (last two columns Int ts/te), found {schema}"
        )));
    }
    Ok(())
}

impl TemporalPlan {
    // ---- sources --------------------------------------------------------

    /// Scan a materialized temporal relation (shares its rows, no copy).
    pub fn scan(r: &crate::trel::TemporalRelation) -> TemporalPlan {
        TemporalPlan {
            plan: LogicalPlan::inline_scan(r.rel().clone()),
        }
    }

    /// Scan a catalog table whose schema is temporal.
    pub fn table(name: impl Into<String>, schema: Schema) -> TemporalResult<TemporalPlan> {
        check_temporal(&schema, "table")?;
        Ok(TemporalPlan {
            plan: LogicalPlan::table_scan(name, schema),
        })
    }

    /// Wrap an arbitrary logical plan with a temporal output schema — the
    /// bridge to the SQL front end and the raw primitives.
    pub fn from_logical(plan: LogicalPlan) -> TemporalResult<TemporalPlan> {
        check_temporal(&plan.schema(), "plan")?;
        Ok(TemporalPlan { plan })
    }

    // ---- tuple-based operators (aligner) --------------------------------

    /// σᵀ_θ(r) = σ_θ(r) — needs no adjustment (Table 2). Named column
    /// references in `predicate` are resolved against the input schema.
    pub fn selection(self, predicate: Expr) -> TemporalResult<TemporalPlan> {
        let schema = self.plan.schema();
        let predicate = if predicate.has_names() {
            predicate.resolve(&schema)?
        } else {
            predicate
        };
        let width = schema.len();
        if let Some(m) = predicate.max_col() {
            if m >= width {
                return Err(TemporalError::Incompatible(format!(
                    "selection predicate references column {m}, relation width is {width}"
                )));
            }
        }
        Ok(TemporalPlan {
            plan: reduce_selection(self.plan, predicate),
        })
    }

    /// ×ᵀ: temporal Cartesian product.
    pub fn cartesian_product(self, other: TemporalPlan) -> TemporalResult<TemporalPlan> {
        self.join(other, None)
    }

    /// ⋈ᵀ_θ: temporal inner join; `theta` is over the concatenation of
    /// full `self` and `other` rows.
    pub fn join(self, other: TemporalPlan, theta: Option<Expr>) -> TemporalResult<TemporalPlan> {
        self.reduced_join(other, JoinType::Inner, theta)
    }

    /// ⟕ᵀ_θ: temporal left outer join.
    pub fn left_outer_join(
        self,
        other: TemporalPlan,
        theta: Option<Expr>,
    ) -> TemporalResult<TemporalPlan> {
        self.reduced_join(other, JoinType::Left, theta)
    }

    /// ⟖ᵀ_θ: temporal right outer join.
    pub fn right_outer_join(
        self,
        other: TemporalPlan,
        theta: Option<Expr>,
    ) -> TemporalResult<TemporalPlan> {
        self.reduced_join(other, JoinType::Right, theta)
    }

    /// ⟗ᵀ_θ: temporal full outer join.
    pub fn full_outer_join(
        self,
        other: TemporalPlan,
        theta: Option<Expr>,
    ) -> TemporalResult<TemporalPlan> {
        self.reduced_join(other, JoinType::Full, theta)
    }

    fn reduced_join(
        self,
        other: TemporalPlan,
        join_type: JoinType,
        theta: Option<Expr>,
    ) -> TemporalResult<TemporalPlan> {
        let theta = self.resolve_theta(&other, theta)?;
        Ok(TemporalPlan {
            plan: reduce_join(
                shared_operand(self.plan),
                shared_operand(other.plan),
                join_type,
                theta,
            )?,
        })
    }

    /// ▷ᵀ_θ: temporal anti join (Table 2 reduction).
    pub fn anti_join(
        self,
        other: TemporalPlan,
        theta: Option<Expr>,
    ) -> TemporalResult<TemporalPlan> {
        let theta = self.resolve_theta(&other, theta)?;
        Ok(TemporalPlan {
            plan: reduce_antijoin(shared_operand(self.plan), shared_operand(other.plan), theta)?,
        })
    }

    /// ▷ᵀ_θ via the customized gaps-only primitive (Sec. 8 future work).
    pub fn anti_join_optimized(
        self,
        other: TemporalPlan,
        theta: Option<Expr>,
    ) -> TemporalResult<TemporalPlan> {
        let theta = self.resolve_theta(&other, theta)?;
        // The gaps-only plan references each operand once.
        Ok(TemporalPlan {
            plan: antijoin_gaps_plan(self.plan, other.plan, theta)?,
        })
    }

    /// Resolve a θ condition (expressed over the concatenation of full
    /// `self` and `other` rows) from named to positional references.
    fn resolve_theta(
        &self,
        other: &TemporalPlan,
        theta: Option<Expr>,
    ) -> TemporalResult<Option<Expr>> {
        match theta {
            Some(t) if t.has_names() => {
                let combined = self.plan.schema().concat(&other.plan.schema());
                Ok(Some(t.resolve(&combined)?))
            }
            other => Ok(other),
        }
    }

    // ---- group-based operators (splitter) -------------------------------

    /// πᵀ_B(r) = π_{B,T}(N_B(r; r)); `b` are data-column indices.
    pub fn projection(self, b: &[usize]) -> TemporalResult<TemporalPlan> {
        Ok(TemporalPlan {
            plan: reduce_projection(shared_operand(self.plan), b)?,
        })
    }

    /// ϑᵀ: temporal aggregation `_Bϑ_F(r) = _{B,T}ϑ_F(N_B(r; r))`.
    /// Output schema: `B…, aggregates…, ts, te`. Named column references
    /// in aggregate arguments are resolved against the input schema.
    pub fn aggregation(
        self,
        b: &[usize],
        aggs: Vec<(AggCall, String)>,
    ) -> TemporalResult<TemporalPlan> {
        let schema = self.plan.schema();
        let aggs = aggs
            .into_iter()
            .map(|(AggCall { func, arg }, alias)| {
                let arg = match arg {
                    Some(e) if e.has_names() => Some(e.resolve(&schema)?),
                    other => other,
                };
                Ok((AggCall { func, arg }, alias))
            })
            .collect::<TemporalResult<Vec<_>>>()?;
        Ok(TemporalPlan {
            plan: reduce_aggregation(shared_operand(self.plan), b, aggs)?,
        })
    }

    /// ∪ᵀ: temporal union `N_A(r; s) ∪ N_A(s; r)`.
    pub fn union(self, other: TemporalPlan) -> TemporalResult<TemporalPlan> {
        self.setop(SetOpKind::Union, other)
    }

    /// −ᵀ: temporal difference `N_A(r; s) − N_A(s; r)`.
    pub fn difference(self, other: TemporalPlan) -> TemporalResult<TemporalPlan> {
        self.setop(SetOpKind::Except, other)
    }

    /// ∩ᵀ: temporal intersection `N_A(r; s) ∩ N_A(s; r)`.
    pub fn intersection(self, other: TemporalPlan) -> TemporalResult<TemporalPlan> {
        self.setop(SetOpKind::Intersect, other)
    }

    fn setop(self, kind: SetOpKind, other: TemporalPlan) -> TemporalResult<TemporalPlan> {
        Ok(TemporalPlan {
            plan: reduce_setop(kind, shared_operand(self.plan), shared_operand(other.plan))?,
        })
    }

    // ---- primitives, exposed for composition ----------------------------

    /// The alignment primitive `r Φ_θ s` itself.
    pub fn align(self, other: TemporalPlan, theta: Option<Expr>) -> TemporalResult<TemporalPlan> {
        let theta = self.resolve_theta(&other, theta)?;
        Ok(TemporalPlan {
            plan: align_plan(self.plan, other.plan, theta)?,
        })
    }

    /// The normalization primitive `N_B(r; s)` itself; `b` pairs
    /// `(self data column, other data column)`.
    pub fn normalize(
        self,
        other: TemporalPlan,
        b: &[(usize, usize)],
    ) -> TemporalResult<TemporalPlan> {
        Ok(TemporalPlan {
            plan: normalize_plan(self.plan, shared_operand(other.plan), b)?,
        })
    }

    /// The absorb operator α.
    pub fn absorb(self) -> TemporalPlan {
        TemporalPlan {
            plan: AbsorbNode::plan(self.plan),
        }
    }

    /// `U(r)`: timestamp propagation (Def. 4) — appends copies of the
    /// interval endpoints as data columns `us`/`ue` before the interval,
    /// enabling θ conditions over the *original* timestamps.
    pub fn extend(self) -> TemporalResult<TemporalPlan> {
        Ok(TemporalPlan {
            plan: crate::primitives::extend::extend_plan(
                self.plan,
                crate::primitives::extend::US,
                crate::primitives::extend::UE,
            )?,
        })
    }

    /// Re-qualify every output column with `alias` (an identity
    /// projection), so self-joins can tell their two sides apart:
    /// `plan.aliased("a")` makes `col("a.k")` resolvable.
    pub fn aliased(self, alias: &str) -> TemporalPlan {
        let schema = self.plan.schema().with_qualifier(alias);
        let exprs: Vec<Expr> = (0..schema.len()).map(Expr::Col).collect();
        TemporalPlan {
            plan: LogicalPlan::Project {
                input: Box::new(self.plan),
                exprs,
                schema,
            },
        }
    }

    /// πᵀ in self-normalizing form on explicit pairs is rarely needed;
    /// grouping pairs `(i, i)` for `N_B(r; r)` come from [`self_pairs`].
    pub fn self_normalize(self, b: &[usize]) -> TemporalResult<TemporalPlan> {
        let pairs = self_pairs(b);
        let shared = shared_operand(self.plan);
        Ok(TemporalPlan {
            plan: normalize_plan(shared.clone(), shared, &pairs)?,
        })
    }

    // ---- reflection and execution ---------------------------------------

    /// The composed logical plan.
    pub fn logical(&self) -> &LogicalPlan {
        &self.plan
    }

    /// Consume into the composed logical plan.
    pub fn into_logical(self) -> LogicalPlan {
        self.plan
    }

    /// Output schema (`data…, ts, te`).
    pub fn schema(&self) -> Schema {
        self.plan.schema()
    }

    /// The optimized physical plan for the whole composed query — one
    /// tree, costed end to end.
    pub fn physical(&self, planner: &Planner, catalog: &Catalog) -> TemporalResult<PhysicalPlan> {
        Ok(planner.plan(&self.plan, catalog)?)
    }

    /// EXPLAIN the whole composed query as one physical tree — the same
    /// rendering SQL `EXPLAIN` produces.
    pub fn explain(&self, planner: &Planner, catalog: &Catalog) -> TemporalResult<String> {
        Ok(self.physical(planner, catalog)?.explain())
    }

    /// Execute the whole composed query with a **single** `Planner::run`.
    pub fn execute(&self, planner: &Planner) -> TemporalResult<crate::trel::TemporalRelation> {
        self.execute_on(planner, &Catalog::new())
    }

    /// Execute against a catalog (for plans over [`TemporalPlan::table`]).
    pub fn execute_on(
        &self,
        planner: &Planner,
        catalog: &Catalog,
    ) -> TemporalResult<crate::trel::TemporalRelation> {
        let out = planner.run(&self.plan, catalog)?;
        crate::trel::TemporalRelation::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::reference::evaluate_oracle;
    use crate::semantics::TemporalOp;
    use crate::trel::TemporalRelation;

    fn rel(rows: &[(i64, i64, i64)]) -> TemporalRelation {
        TemporalRelation::from_rows(
            Schema::new(vec![Column::new("k", DataType::Int)]),
            rows.iter()
                .map(|&(k, s, e)| (vec![Value::Int(k)], Interval::of(s, e)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn chained_plan_matches_the_oracle() {
        // ϑᵀ_count(σᵀ_{k ≥ 1}(r ⋈ᵀ_{r.k = s.k} s)) in one run, against the
        // point-wise oracle applied operator by operator.
        let r = rel(&[(1, 0, 8), (2, 5, 12), (3, 1, 3)]);
        let s = rel(&[(1, 2, 4), (2, 6, 15), (2, 1, 5)]);
        let join = TemporalOp::Join {
            theta: Some(col(0).eq(col(3))),
        };
        let select = TemporalOp::Selection {
            predicate: col(0).ge(lit(1i64)),
        };
        let count = TemporalOp::Aggregation {
            group: vec![0],
            aggs: vec![(AggCall::count_star(), "cnt".to_string())],
        };

        let joined = join
            .plan(vec![TemporalPlan::scan(&r), TemporalPlan::scan(&s)])
            .unwrap();
        let selected = select.plan(vec![joined]).unwrap();
        let composed = count
            .plan(vec![selected])
            .unwrap()
            .execute(&Planner::default())
            .unwrap();

        let joined = evaluate_oracle(&join, &[&r, &s]).unwrap();
        let selected = evaluate_oracle(&select, &[&joined]).unwrap();
        let oracle = evaluate_oracle(&count, &[&selected]).unwrap();

        assert!(
            composed.same_set(&oracle),
            "composed:\n{composed}\noracle:\n{oracle}"
        );
    }

    #[test]
    fn composed_operands_are_spooled_leaves_are_not() {
        let r = rel(&[(1, 0, 5), (2, 3, 9)]);
        // Leaf join: no spool anywhere.
        let plan = TemporalPlan::scan(&r)
            .join(TemporalPlan::scan(&r), None)
            .unwrap();
        let text = plan.explain(&Planner::default(), &Catalog::new()).unwrap();
        assert!(!text.contains("Spool"), "{text}");
        // Group-based operator over a composed input: the join result is
        // referenced three times by the self-normalization and must spool.
        let nested = TemporalPlan::scan(&r)
            .join(TemporalPlan::scan(&r), None)
            .unwrap()
            .projection(&[0])
            .unwrap();
        let text = nested
            .explain(&Planner::default(), &Catalog::new())
            .unwrap();
        assert!(text.contains("Spool"), "{text}");
    }

    #[test]
    fn execute_twice_is_stable() {
        let r = rel(&[(1, 0, 5), (2, 3, 9)]);
        let plan = TemporalPlan::scan(&r)
            .join(TemporalPlan::scan(&r), None)
            .unwrap()
            .projection(&[0])
            .unwrap();
        let planner = Planner::default();
        let a = plan.execute(&planner).unwrap();
        let b = plan.execute(&planner).unwrap();
        assert!(a.same_set(&b));
    }

    #[test]
    fn from_logical_validates_temporal_shape() {
        let nontemporal = Relation::from_values(
            Schema::new(vec![Column::new("a", DataType::Str)]),
            vec![vec![Value::str("x")]],
        )
        .unwrap();
        assert!(TemporalPlan::from_logical(LogicalPlan::inline_scan(nontemporal)).is_err());
        let r = rel(&[(1, 0, 5)]);
        assert!(TemporalPlan::from_logical(LogicalPlan::inline_scan(r.rel().clone())).is_ok());
    }

    #[test]
    fn selection_validates_columns() {
        let r = rel(&[(1, 0, 5)]);
        assert!(TemporalPlan::scan(&r)
            .selection(col(17).gt(lit(0i64)))
            .is_err());
    }

    #[test]
    fn table_sources_execute_against_catalog() {
        let r = rel(&[(1, 0, 5), (2, 2, 8)]);
        let mut catalog = Catalog::new();
        catalog.register("t", r.rel().clone()).unwrap();
        let plan = TemporalPlan::table("t", r.schema().clone())
            .unwrap()
            .selection(col(0).eq(lit(2i64)))
            .unwrap();
        let out = plan.execute_on(&Planner::default(), &catalog).unwrap();
        assert_eq!(out.len(), 1);
    }
}
