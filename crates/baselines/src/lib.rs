//! # temporal-baselines
//!
//! The two comparison approaches of the paper's evaluation (Sec. 7):
//!
//! * [`sql_outer_join`] — temporal outer joins expressed in **standard
//!   SQL** following Snodgrass: the join part with overlap predicates and
//!   `GREATEST`/`LEAST` intersection arithmetic, and the negative part via
//!   candidate gap endpoints validated with `NOT EXISTS` (compiled, as in
//!   PostgreSQL, to anti joins). On workloads without useful equality
//!   predicates the anti join degenerates to nested loops — the quadratic
//!   behaviour of Figs. 15a/15c.
//! * [`sql_normalize`] — the join part in SQL plus the **normalization
//!   primitive** for the negative part (a temporal difference between the
//!   argument relation and the projected join result), the
//!   `sql+normalize` series of Fig. 16. Normalizing against the
//!   intermediate join result is what makes this approach slow.
//!
//! Both are logical-plan builders (`*_plan`) that produce exactly the same
//! relation as the reduction-rule implementation (`temporal_core::algebra`)
//! — asserted by the `baselines_equivalence` integration tests — so the
//! benchmarks compare pure evaluation strategies. Run one with
//! `TemporalPlan::from_logical(sql_left_outer_join_plan(r, s, θ)?)?.execute(&planner)`.

pub mod sql_normalize;
pub mod sql_outer_join;

pub use sql_normalize::{sqlnorm_full_outer_join_plan, sqlnorm_left_outer_join_plan};
pub use sql_outer_join::{
    sql_full_outer_join_plan, sql_left_outer_join_plan, sql_left_outer_join_text,
};

/// Shared fixtures of the two baselines' unit tests.
#[cfg(test)]
mod test_util {
    use temporal_core::prelude::*;
    use temporal_core::semantics::TemporalOp;
    use temporal_engine::prelude::*;

    /// A baseline's plan builder (`sql_*_plan`, `sqlnorm_*_plan`).
    pub type Build = fn(LogicalPlan, LogicalPlan, Option<Expr>) -> TemporalResult<LogicalPlan>;

    /// A one-column relation qualified `q`, from `(k, ts, te)` triples.
    pub fn rel(q: &str, rows: &[(i64, i64, i64)]) -> TemporalRelation {
        TemporalRelation::from_rows(
            Schema::new(vec![Column::qualified(q, "k", DataType::Int)]),
            rows.iter()
                .map(|&(k, s, e)| (vec![Value::Int(k)], Interval::of(s, e)))
                .collect(),
        )
        .unwrap()
    }

    /// The baseline plan for the outer join `op` over `(r, s)`, executed.
    pub fn run(
        build: Build,
        op: &TemporalOp,
        r: &TemporalRelation,
        s: &TemporalRelation,
    ) -> TemporalRelation {
        let (r, s) = (TemporalPlan::scan(r), TemporalPlan::scan(s));
        let plan = build(r.into_logical(), s.into_logical(), op.theta().cloned()).unwrap();
        let plan = TemporalPlan::from_logical(plan).unwrap();
        plan.execute(&Planner::default()).unwrap()
    }

    /// The baseline agrees with the reduction rules of Table 2 on `op`.
    pub fn assert_matches_reduction(
        build: Build,
        op: &TemporalOp,
        r: &TemporalRelation,
        s: &TemporalRelation,
    ) {
        let reduced = op.evaluate(&Planner::default(), &[r, s]).unwrap();
        let baseline = run(build, op, r, s);
        assert!(
            reduced.same_set(&baseline),
            "{}: reduction:\n{reduced}\nbaseline:\n{baseline}",
            op.name()
        );
    }
}
