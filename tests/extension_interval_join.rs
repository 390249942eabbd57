//! The future-work extension (paper Sec. 8): a sweep-based interval
//! overlap join for the group-construction step of the temporal
//! primitives, when "conventional join techniques cannot be evaluated
//! efficiently" (θ without equality predicates). The default planner
//! auto-detects the overlap pattern (`enable_intervaljoin_auto`) and costs
//! the sweep against the nested loop; `PlannerConfig::paper()` keeps the
//! paper-faithful behaviour. Results must be identical either way.

mod common;

use common::random_trel;
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::prelude::*;

#[test]
fn heuristic_picks_interval_join_paper_config_does_not() {
    let r = random_trel(21, 30, 5, 40);
    let s = random_trel(22, 30, 5, 40);
    // The alignment group-construction join with θ = true is a pure
    // overlap join — no equi keys.
    let plan = align_plan(
        LogicalPlan::inline_scan(r.rel().clone()),
        LogicalPlan::inline_scan(s.rel().clone()),
        None,
    )
    .unwrap();
    let catalog = temporal_engine::catalog::Catalog::new();

    let paper_physical = Planner::new(PlannerConfig::paper())
        .plan(&plan, &catalog)
        .unwrap();
    assert!(
        paper_physical.explain().contains("NestedLoopJoin[Left]"),
        "paper-faithful config must nested-loop:\n{}",
        paper_physical.explain()
    );

    // The default planner auto-detects the overlap pattern and the sweep
    // wins on cost — no manual switch needed.
    let auto_physical = Planner::default().plan(&plan, &catalog).unwrap();
    assert!(
        auto_physical
            .explain()
            .contains("IntervalJoin[Left] (sweep)"),
        "heuristic must pick the sweep join:\n{}",
        auto_physical.explain()
    );
}

#[test]
fn alignment_results_identical_with_and_without_sweep_join() {
    for seed in 0..8u64 {
        let r = random_trel(seed + 400, 12, 3, 24);
        let s = random_trel(seed + 500, 12, 3, 24);
        let paper = Planner::new(PlannerConfig::paper());
        let sweep = Planner::default();

        let align = TemporalPlan::scan(&r)
            .align(TemporalPlan::scan(&s), None)
            .unwrap();
        let a = align.execute(&paper).unwrap();
        let b = align.execute(&sweep).unwrap();
        assert!(a.same_set(&b), "align mismatch at seed {seed}");

        for op in [
            TemporalOp::LeftOuterJoin { theta: None },
            TemporalOp::AntiJoin { theta: None },
        ] {
            let a = op.evaluate(&paper, &[&r, &s]).unwrap();
            let b = op.evaluate(&sweep, &[&r, &s]).unwrap();
            assert!(a.same_set(&b), "{} mismatch at seed {seed}", op.name());
        }
    }
}

#[test]
fn equality_theta_still_uses_hash_join_when_sweep_enabled() {
    // With hashable keys the keyed join should win on cost, sweep or not.
    let r = random_trel(31, 200, 10, 300);
    let plan = align_plan(
        LogicalPlan::inline_scan(r.rel().clone()),
        LogicalPlan::inline_scan(r.rel().clone()),
        Some(col(0).eq(col(3))),
    )
    .unwrap();
    let physical = Planner::default()
        .plan(&plan, &temporal_engine::catalog::Catalog::new())
        .unwrap();
    let text = physical.explain();
    assert!(
        text.contains("HashJoin[Left]") || text.contains("MergeJoin[Left]"),
        "{text}"
    );
}

#[test]
fn sql_set_switch_controls_the_extension() {
    use temporal_alignment::sql::Session;
    let r = random_trel(41, 20, 4, 30);
    let mut session = Session::new();
    session.register("r", &r).unwrap();
    let q = "SELECT * FROM (r r1 ALIGN r r2 ON 1 = 1) x";
    // The heuristic is on by default, so a fresh session sweeps.
    let auto = session.explain(q).unwrap();
    assert!(auto.contains("IntervalJoin"), "{auto}");
    // Switching it off restores the paper's nested loop …
    session
        .execute("SET enable_intervaljoin_auto = off")
        .unwrap();
    let off = session.explain(q).unwrap();
    assert!(!off.contains("IntervalJoin"), "{off}");
    // … and switching it back on restores the sweep join.
    session
        .execute("SET enable_intervaljoin_auto = on")
        .unwrap();
    let on = session.explain(q).unwrap();
    assert!(on.contains("IntervalJoin"), "{on}");
}

#[test]
fn optimized_antijoin_equals_generic_reduction() {
    // Sec. 8 future work: the gaps-only sweep must produce exactly the
    // Table 2 anti join, on fixtures and random inputs.
    let planner = Planner::default();
    for seed in 0..10u64 {
        let r = random_trel(seed + 600, 12, 3, 24);
        let s = random_trel(seed + 700, 12, 3, 24);
        for theta in [None, Some(col(0).eq(col(3))), Some(col(0).lt(col(3)))] {
            let generic = TemporalOp::AntiJoin {
                theta: theta.clone(),
            }
            .evaluate(&planner, &[&r, &s])
            .unwrap();
            let fast = TemporalPlan::scan(&r)
                .anti_join_optimized(TemporalPlan::scan(&s), theta)
                .unwrap()
                .execute(&planner)
                .unwrap();
            assert!(
                fast.same_set(&generic),
                "seed {seed}: generic:\n{generic}\nfast:\n{fast}"
            );
        }
    }
}

#[test]
fn optimized_antijoin_plan_has_no_second_alignment() {
    let r = random_trel(801, 10, 3, 20);
    let plan = temporal_core::primitives::adjustment::antijoin_gaps_plan(
        LogicalPlan::inline_scan(r.rel().clone()),
        LogicalPlan::inline_scan(r.rel().clone()),
        Some(col(0).eq(col(3))),
    )
    .unwrap();
    let physical = Planner::default()
        .plan(&plan, &temporal_engine::catalog::Catalog::new())
        .unwrap();
    let text = physical.explain();
    assert!(text.contains("TemporalAntiAligner"), "{text}");
    // exactly one adjustment node, no nontemporal anti join
    assert_eq!(text.matches("Temporal").count(), 1, "{text}");
    assert!(!text.contains("[Anti]"), "{text}");
}
