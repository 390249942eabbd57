//! Soak test: a broad randomized sweep comparing the reduction-rule
//! implementation against the oracle and the baselines, at larger input
//! sizes and wider value/time domains than the per-module tests. One
//! deterministic pass runs in CI time; the `SOAK_ROUNDS` environment
//! variable scales it up for longer runs.

mod common;

use common::{random_trel, random_trel2};
use temporal_alignment::baselines::{sql_full_outer_join_plan, sqlnorm_full_outer_join_plan};
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::reference::evaluate_oracle;
use temporal_alignment::core::semantics::{
    check_change_preservation, check_snapshot_reducibility, TemporalOp,
};
use temporal_alignment::engine::prelude::*;

fn rounds() -> u64 {
    std::env::var("SOAK_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

#[test]
fn soak_all_operators_against_oracle() {
    let planner = Planner::default();
    for round in 0..rounds() {
        let seed = 10_000 + round * 17;
        let r = random_trel(seed, 24, 5, 40);
        let s = random_trel(seed + 1, 24, 5, 40);
        let theta = Some(col(0).eq(col(3)));
        let ops = vec![
            TemporalOp::Union,
            TemporalOp::Difference,
            TemporalOp::Intersection,
            TemporalOp::Projection { attrs: vec![0] },
            TemporalOp::Aggregation {
                group: vec![0],
                aggs: vec![
                    (AggCall::count_star(), "c".to_string()),
                    (AggCall::new(AggFunc::Min, col(1)), "mn".to_string()),
                    (AggCall::new(AggFunc::Max, col(2)), "mx".to_string()),
                ],
            },
            TemporalOp::Join {
                theta: theta.clone(),
            },
            TemporalOp::LeftOuterJoin {
                theta: theta.clone(),
            },
            TemporalOp::RightOuterJoin {
                theta: theta.clone(),
            },
            TemporalOp::FullOuterJoin {
                theta: theta.clone(),
            },
            TemporalOp::AntiJoin { theta },
        ];
        for op in ops {
            let args: Vec<&TemporalRelation> = if op.arity() == 1 {
                vec![&r]
            } else {
                vec![&r, &s]
            };
            let fast = op.evaluate(&planner, &args).unwrap();
            let slow = evaluate_oracle(&op, &args).unwrap();
            assert!(
                fast.same_set(&slow),
                "round {round} {}: reduction vs oracle mismatch",
                op.name()
            );
            // Full property checks on top of row equality.
            let sr = check_snapshot_reducibility(&op, &args, &fast).unwrap();
            assert!(sr.is_empty(), "round {round} {}: {sr:?}", op.name());
            let cp = check_change_preservation(&op, &args, &fast).unwrap();
            assert!(cp.is_empty(), "round {round} {}: {cp:?}", op.name());
        }
    }
}

#[test]
fn soak_baselines_and_planner_settings() {
    for round in 0..rounds() {
        let seed = 20_000 + round * 13;
        let r = random_trel2(seed, 18, 3, 30);
        let s = random_trel2(seed + 1, 18, 3, 30);
        let theta = Some(col(0).eq(col(4)));
        let op = TemporalOp::FullOuterJoin {
            theta: theta.clone(),
        };
        // Reference result under nestloop-only planning.
        let reference = op
            .evaluate(&Planner::new(PlannerConfig::nestloop_only()), &[&r, &s])
            .unwrap();
        for config in [
            PlannerConfig::all_enabled(),
            PlannerConfig::no_merge(),
            PlannerConfig::default(),
        ] {
            let out = op.evaluate(&Planner::new(config), &[&r, &s]).unwrap();
            assert!(out.same_set(&reference), "round {round}: {config:?}");
        }
        let baseline = |build: fn(_, _, _) -> TemporalResult<LogicalPlan>| {
            let scan = |t: &TemporalRelation| TemporalPlan::scan(t).into_logical();
            let plan = build(scan(&r), scan(&s), theta.clone()).unwrap();
            let plan = TemporalPlan::from_logical(plan).unwrap();
            plan.execute(&Planner::default()).unwrap()
        };
        let sql = baseline(sql_full_outer_join_plan);
        assert!(sql.same_set(&reference), "round {round}: sql baseline");
        let sqlnorm = baseline(sqlnorm_full_outer_join_plan);
        assert!(sqlnorm.same_set(&reference), "round {round}: sql+normalize");
    }
}

#[test]
fn soak_coalesce_snapshot_equivalence() {
    // Coalescing any change-preserving result yields a snapshot-equivalent
    // relation (and absorb never changes snapshots either).
    let planner = Planner::default();
    for round in 0..rounds() {
        let seed = 30_000 + round * 7;
        let r = random_trel(seed, 20, 4, 32);
        let s = random_trel(seed + 1, 20, 4, 32);
        let out = TemporalOp::LeftOuterJoin { theta: None }
            .evaluate(&planner, &[&r, &s])
            .unwrap();
        let merged = coalesce(&out).unwrap();
        for t in out.endpoints() {
            assert!(
                merged.timeslice(t).same_set(&out.timeslice(t)),
                "round {round}: coalesce changed snapshot at {t}"
            );
        }
        assert!(snapshot_equivalent(&out, &merged).unwrap());
    }
}
