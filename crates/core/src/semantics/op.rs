//! A uniform description of the operators of the sequenced temporal
//! algebra, shared by the reduction-rule evaluator, the lineage
//! definitions, the property checkers and the reference oracle.

use temporal_engine::prelude::*;

use crate::algebra::TemporalPlan;
use crate::error::{TemporalError, TemporalResult};
use crate::trel::TemporalRelation;

/// One operator of the temporal algebra (Sec. 3.1). θ conditions are
/// engine expressions over the concatenation of full argument rows
/// (data columns plus ts/te, in argument order); per the paper they must
/// only reference nontemporal attributes — original timestamps are
/// available through propagated columns (the extend operator `U`).
#[derive(Debug, Clone)]
pub enum TemporalOp {
    /// σᵀ_θ.
    Selection { predicate: Expr },
    /// πᵀ_B; `attrs` are data-column indices.
    Projection { attrs: Vec<usize> },
    /// _Bϑᵀ_F; `group` are data-column indices, `aggs` named aggregate calls.
    Aggregation {
        group: Vec<usize>,
        aggs: Vec<(AggCall, String)>,
    },
    /// ∪ᵀ.
    Union,
    /// −ᵀ.
    Difference,
    /// ∩ᵀ.
    Intersection,
    /// ×ᵀ.
    CartesianProduct,
    /// ⋈ᵀ_θ.
    Join { theta: Option<Expr> },
    /// ⟕ᵀ_θ.
    LeftOuterJoin { theta: Option<Expr> },
    /// ⟖ᵀ_θ.
    RightOuterJoin { theta: Option<Expr> },
    /// ⟗ᵀ_θ.
    FullOuterJoin { theta: Option<Expr> },
    /// ▷ᵀ_θ.
    AntiJoin { theta: Option<Expr> },
}

impl TemporalOp {
    /// Number of argument relations.
    pub fn arity(&self) -> usize {
        match self {
            TemporalOp::Selection { .. }
            | TemporalOp::Projection { .. }
            | TemporalOp::Aggregation { .. } => 1,
            _ => 2,
        }
    }

    /// Human-readable operator name.
    pub fn name(&self) -> &'static str {
        match self {
            TemporalOp::Selection { .. } => "selection",
            TemporalOp::Projection { .. } => "projection",
            TemporalOp::Aggregation { .. } => "aggregation",
            TemporalOp::Union => "union",
            TemporalOp::Difference => "difference",
            TemporalOp::Intersection => "intersection",
            TemporalOp::CartesianProduct => "cartesian product",
            TemporalOp::Join { .. } => "inner join",
            TemporalOp::LeftOuterJoin { .. } => "left outer join",
            TemporalOp::RightOuterJoin { .. } => "right outer join",
            TemporalOp::FullOuterJoin { .. } => "full outer join",
            TemporalOp::AntiJoin { .. } => "anti join",
        }
    }

    /// Is this one of the paper's *group-based* operators {π, ϑ, ∪, −, ∩}
    /// (reduced with the splitter) as opposed to a *tuple-based* one
    /// (reduced with the aligner)?
    pub fn is_group_based(&self) -> bool {
        matches!(
            self,
            TemporalOp::Projection { .. }
                | TemporalOp::Aggregation { .. }
                | TemporalOp::Union
                | TemporalOp::Difference
                | TemporalOp::Intersection
        )
    }

    /// The θ condition, if the operator has one.
    pub fn theta(&self) -> Option<&Expr> {
        match self {
            TemporalOp::Join { theta }
            | TemporalOp::LeftOuterJoin { theta }
            | TemporalOp::RightOuterJoin { theta }
            | TemporalOp::FullOuterJoin { theta }
            | TemporalOp::AntiJoin { theta } => theta.as_ref(),
            _ => None,
        }
    }

    /// Compose this operator over `args` (one plan per argument, in order)
    /// through the reduction rules of Table 2 — the one positional dispatch
    /// onto [`TemporalPlan`].
    pub fn plan(&self, args: Vec<TemporalPlan>) -> TemporalResult<TemporalPlan> {
        if args.len() != self.arity() {
            return Err(TemporalError::Incompatible(format!(
                "{} expects {} argument(s), got {}",
                self.name(),
                self.arity(),
                args.len()
            )));
        }
        let mut args = args.into_iter();
        let r = args.next().expect("arity checked");
        let mut s = || args.next().expect("arity checked");
        match self {
            TemporalOp::Selection { predicate } => r.selection(predicate.clone()),
            TemporalOp::Projection { attrs } => r.projection(attrs),
            TemporalOp::Aggregation { group, aggs } => r.aggregation(group, aggs.clone()),
            TemporalOp::Union => r.union(s()),
            TemporalOp::Difference => r.difference(s()),
            TemporalOp::Intersection => r.intersection(s()),
            TemporalOp::CartesianProduct => r.cartesian_product(s()),
            TemporalOp::Join { theta } => r.join(s(), theta.clone()),
            TemporalOp::LeftOuterJoin { theta } => r.left_outer_join(s(), theta.clone()),
            TemporalOp::RightOuterJoin { theta } => r.right_outer_join(s(), theta.clone()),
            TemporalOp::FullOuterJoin { theta } => r.full_outer_join(s(), theta.clone()),
            TemporalOp::AntiJoin { theta } => r.anti_join(s(), theta.clone()),
        }
    }

    /// Evaluate over materialized relations: [`TemporalOp::plan`] over
    /// their scans, executed with `planner`.
    pub fn evaluate(
        &self,
        planner: &Planner,
        args: &[&TemporalRelation],
    ) -> TemporalResult<TemporalRelation> {
        let scans = args.iter().map(|r| TemporalPlan::scan(r)).collect();
        self.plan(scans)?.execute(planner)
    }

    /// The data-column schema of the operator's result (excluding ts/te).
    pub fn result_data_schema(&self, args: &[&TemporalRelation]) -> TemporalResult<Schema> {
        Ok(match self {
            TemporalOp::Selection { .. } => args[0].data_schema(),
            TemporalOp::Projection { attrs } => args[0].data_schema().project(attrs),
            TemporalOp::Aggregation { group, aggs } => {
                let data = args[0].data_schema();
                let full = args[0].schema();
                let mut cols: Vec<Column> = group.iter().map(|&i| data.col(i).clone()).collect();
                for (call, name) in aggs {
                    let arg_t = match &call.arg {
                        Some(e) => Some(e.infer_type(full)?),
                        None => None,
                    };
                    cols.push(Column::new(name.clone(), call.func.result_type(arg_t)));
                }
                Schema::new(cols)
            }
            TemporalOp::Union | TemporalOp::Difference | TemporalOp::Intersection => {
                args[0].data_schema()
            }
            TemporalOp::CartesianProduct
            | TemporalOp::Join { .. }
            | TemporalOp::LeftOuterJoin { .. }
            | TemporalOp::RightOuterJoin { .. }
            | TemporalOp::FullOuterJoin { .. } => {
                args[0].data_schema().concat(&args[1].data_schema())
            }
            TemporalOp::AntiJoin { .. } => args[0].data_schema(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;

    fn rel() -> TemporalRelation {
        TemporalRelation::from_rows(
            Schema::new(vec![Column::new("v", DataType::Str)]),
            vec![(vec![Value::str("a")], Interval::of(0, 5))],
        )
        .unwrap()
    }

    #[test]
    fn arity_and_classification() {
        assert_eq!(TemporalOp::Union.arity(), 2);
        assert_eq!(
            TemporalOp::Selection {
                predicate: lit(true)
            }
            .arity(),
            1
        );
        assert!(TemporalOp::Union.is_group_based());
        assert!(!TemporalOp::CartesianProduct.is_group_based());
    }

    #[test]
    fn plan_checks_arity() {
        let r = rel();
        assert!(TemporalOp::Union
            .evaluate(&Planner::default(), &[&r])
            .is_err());
        let scans = vec![TemporalPlan::scan(&r), TemporalPlan::scan(&r)];
        assert!(TemporalOp::Projection { attrs: vec![0] }
            .plan(scans)
            .is_err());
    }

    #[test]
    fn result_schema_shapes() {
        let r = rel();
        let join = TemporalOp::Join { theta: None };
        let s = join.result_data_schema(&[&r, &r]).unwrap();
        assert_eq!(s.len(), 2);
        let agg = TemporalOp::Aggregation {
            group: vec![0],
            aggs: vec![(AggCall::count_star(), "c".to_string())],
        };
        let s = agg.result_data_schema(&[&r]).unwrap();
        assert_eq!(s.names(), vec!["v", "c"]);
    }
}
