//! The three evaluation strategies of Sec. 7 — `align` (reduction rules),
//! `sql` (overlap predicates + NOT EXISTS) and `sql+normalize` — must
//! produce identical relations on valid (duplicate-free) inputs, so the
//! benchmarks compare pure evaluation strategy, not semantics.

mod common;

use common::{random_trel, rel1};
use temporal_alignment::baselines::{
    sql_full_outer_join_plan, sql_left_outer_join_plan, sqlnorm_full_outer_join_plan,
    sqlnorm_left_outer_join_plan,
};
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::datasets::{ddisj, deq, drand, incumben, prefix, IncumbenSpec};
use temporal_alignment::engine::prelude::*;

type Build = fn(LogicalPlan, LogicalPlan, Option<Expr>) -> TemporalResult<LogicalPlan>;

/// `align` (the reduction of `op`) against the `sql` and `sql+normalize`
/// plans of the same outer join.
fn assert_all_equal(
    op: TemporalOp,
    [sql, sqlnorm]: [Build; 2],
    r: &TemporalRelation,
    s: &TemporalRelation,
    label: &str,
) {
    let planner = Planner::default();
    let baseline = |build: Build| {
        let plan = build(
            TemporalPlan::scan(r).into_logical(),
            TemporalPlan::scan(s).into_logical(),
            op.theta().cloned(),
        );
        let plan = TemporalPlan::from_logical(plan.unwrap()).unwrap();
        plan.execute(&planner).unwrap()
    };
    let align = op.evaluate(&planner, &[r, s]).unwrap();
    let sql = baseline(sql);
    let sqlnorm = baseline(sqlnorm);
    assert!(
        align.same_set(&sql),
        "{label}: align vs sql differ.\nalign:\n{align}\nsql:\n{sql}"
    );
    assert!(
        align.same_set(&sqlnorm),
        "{label}: align vs sql+normalize differ.\nalign:\n{align}\nsqlnorm:\n{sqlnorm}"
    );
}

fn assert_all_equal_loj(
    r: &TemporalRelation,
    s: &TemporalRelation,
    theta: Option<Expr>,
    label: &str,
) {
    let baselines = [sql_left_outer_join_plan, sqlnorm_left_outer_join_plan];
    assert_all_equal(TemporalOp::LeftOuterJoin { theta }, baselines, r, s, label);
}

fn assert_all_equal_foj(
    r: &TemporalRelation,
    s: &TemporalRelation,
    theta: Option<Expr>,
    label: &str,
) {
    let baselines = [sql_full_outer_join_plan, sqlnorm_full_outer_join_plan];
    assert_all_equal(TemporalOp::FullOuterJoin { theta }, baselines, r, s, label);
}

#[test]
fn equivalence_on_random_inputs() {
    for seed in 0..10u64 {
        let r = random_trel(seed * 3 + 1, 8, 3, 18);
        let s = random_trel(seed * 3 + 2, 8, 3, 18);
        assert_all_equal_loj(&r, &s, None, &format!("seed {seed} θ=true"));
        assert_all_equal_loj(
            &r,
            &s,
            Some(col(0).eq(col(3))),
            &format!("seed {seed} θ=eq"),
        );
        assert_all_equal_foj(
            &r,
            &s,
            Some(col(0).eq(col(3))),
            &format!("seed {seed} FOJ θ=eq"),
        );
    }
}

#[test]
fn equivalence_on_o1_workloads() {
    // O1 = r ⟕ᵀ_true s on the Fig. 15a/15b datasets (small instances).
    let (r, s) = ddisj(40);
    assert_all_equal_loj(&r, &s, None, "Ddisj");
    let (r, s) = deq(12);
    assert_all_equal_loj(&r, &s, None, "Deq");
}

#[test]
fn equivalence_on_o2_workload() {
    // O2 = r ⟕ᵀ_{Min ≤ DUR(r.T) ≤ Max} s on Drand: θ references r's
    // original timestamp, so r is extended first (us at 1, ue at 2);
    // concat row = (id, us, ue, ts, te, a, min, max, ts, te).
    let (r, s) = drand(60, 11);
    let ur = extend(&r).unwrap();
    let theta = Expr::Func(Func::Dur, vec![col(1), col(2)]).between(col(6), col(7));
    assert_all_equal_loj(&ur, &s, Some(theta), "Drand/O2");
}

#[test]
fn equivalence_on_o3_workload() {
    // O3 = r ⟗ᵀ_{r.pcn = s.pcn} s on an Incumben subset (self join).
    let data = incumben(IncumbenSpec {
        rows: 90,
        employees: 60,
        positions: 8,
        days: 400,
        ..Default::default()
    });
    let r = prefix(&data, 45);
    let s = {
        // second half as a distinct relation
        let rows: Vec<_> = data.rows()[45..].to_vec();
        TemporalRelation::new(Relation::new(data.schema().clone(), rows).unwrap()).unwrap()
    };
    // (ssn, pcn, ts, te) ++ (ssn, pcn, ts, te): pcn = cols 1 and 5.
    let theta = Some(col(1).eq(col(5)));
    assert_all_equal_foj(&r, &s, theta, "Incumben/O3");
}

#[test]
fn sql_baseline_is_quadratic_shaped_on_ddisj() {
    // Not a timing test — a plan-shape test: on Ddisj with θ = true the
    // NOT EXISTS anti join has no usable equi keys, so the planner must
    // fall back to a nested loop (the cause of Fig. 15a's quadratic sql
    // curve).
    let (r, s) = ddisj(20);
    let plan = sql_left_outer_join_plan(
        LogicalPlan::inline_scan(r.rel().clone()),
        LogicalPlan::inline_scan(s.rel().clone()),
        None,
    )
    .unwrap();
    let physical = Planner::default()
        .plan(&plan, &temporal_engine::catalog::Catalog::new())
        .unwrap();
    let text = physical.explain();
    assert!(
        text.contains("NestedLoopJoin[Anti]"),
        "expected NL anti join in:\n{text}"
    );
}

#[test]
fn align_reduction_uses_keyed_join_on_o3() {
    // Conversely, the reduced O3 join carries ts/te (+pcn) equality keys,
    // so hash or merge joins apply (Sec. 7.4's explanation of Fig. 15d).
    use temporal_alignment::core::algebra::reduce_join;
    let data = incumben(IncumbenSpec {
        rows: 40,
        employees: 30,
        positions: 5,
        days: 300,
        ..Default::default()
    });
    let plan = reduce_join(
        LogicalPlan::inline_scan(data.rel().clone()),
        LogicalPlan::inline_scan(data.rel().clone()),
        JoinType::Full,
        Some(col(1).eq(col(5))),
    )
    .unwrap();
    let physical = Planner::default()
        .plan(&plan, &temporal_engine::catalog::Catalog::new())
        .unwrap();
    let text = physical.explain();
    assert!(
        text.contains("HashJoin[Full] on 3 key(s)") || text.contains("MergeJoin[Full] on 3 key(s)"),
        "expected keyed full join in:\n{text}"
    );
}

#[test]
fn fixed_regressions() {
    // Cases that once differed during development.
    let r = rel1("r", &[(1, 0, 8), (2, 5, 12)]);
    let s = rel1("s", &[(7, 2, 4), (8, 6, 15)]);
    assert_all_equal_loj(&r, &s, None, "regression 1");
    // adjacent covers
    let r = rel1("r", &[(1, 0, 10)]);
    let s = rel1("s", &[(1, 2, 4), (1, 4, 6)]);
    assert_all_equal_loj(&r, &s, Some(col(0).eq(col(3))), "regression 2");
}
