//! Theorem 1, executable: for every operator of the temporal algebra, the
//! reduction-rule implementation must produce exactly the same relation as
//! the point-wise oracle (snapshots + lineage stitching), which is
//! snapshot reducible and change preserving **by construction**.

mod common;

use common::{random_trel, random_trel2, rel1};
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::reference::evaluate_oracle;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::prelude::*;

fn unary_ops() -> Vec<TemporalOp> {
    vec![
        TemporalOp::Selection {
            predicate: col(0).ge(lit(1i64)),
        },
        TemporalOp::Projection { attrs: vec![0] },
        TemporalOp::Aggregation {
            group: vec![],
            aggs: vec![
                (AggCall::count_star(), "cnt".to_string()),
                (AggCall::new(AggFunc::Sum, col(0)), "sum".to_string()),
            ],
        },
        TemporalOp::Aggregation {
            group: vec![0],
            aggs: vec![(AggCall::count_star(), "cnt".to_string())],
        },
    ]
}

/// Binary operators with a θ referencing the single data column of each
/// side: concat row = (k, ts, te, k, ts, te) → k columns 0 and 3.
fn binary_ops() -> Vec<TemporalOp> {
    let eq = Some(col(0).eq(col(3)));
    let lt = Some(col(0).lt(col(3)));
    vec![
        TemporalOp::Union,
        TemporalOp::Difference,
        TemporalOp::Intersection,
        TemporalOp::CartesianProduct,
        TemporalOp::Join { theta: eq.clone() },
        TemporalOp::Join { theta: lt.clone() },
        TemporalOp::LeftOuterJoin { theta: eq.clone() },
        TemporalOp::LeftOuterJoin { theta: None },
        TemporalOp::RightOuterJoin { theta: eq.clone() },
        TemporalOp::FullOuterJoin { theta: eq.clone() },
        TemporalOp::FullOuterJoin { theta: lt },
        TemporalOp::AntiJoin { theta: eq },
        TemporalOp::AntiJoin { theta: None },
    ]
}

fn check(op: &TemporalOp, args: &[&TemporalRelation], label: &str) {
    let fast = op
        .evaluate(&Planner::default(), args)
        .unwrap_or_else(|e| panic!("{label}: {} failed: {e}", op.name()));
    let slow = evaluate_oracle(op, args)
        .unwrap_or_else(|e| panic!("{label}: oracle for {} failed: {e}", op.name()));
    assert!(
        fast.same_set(&slow),
        "{label}: {} mismatch.\nreduction:\n{fast}\noracle:\n{slow}",
        op.name()
    );
}

#[test]
fn unary_ops_match_oracle_on_fixtures() {
    let fixtures = [
        rel1("r", &[]),
        rel1("r", &[(1, 0, 5)]),
        rel1("r", &[(1, 0, 5), (1, 5, 9), (2, 3, 7)]),
        rel1("r", &[(0, 0, 3), (1, 1, 4), (2, 2, 5), (3, 3, 6)]),
    ];
    for (i, r) in fixtures.iter().enumerate() {
        for op in unary_ops() {
            check(&op, &[r], &format!("fixture {i}"));
        }
    }
}

#[test]
fn binary_ops_match_oracle_on_fixtures() {
    let cases = [
        (rel1("r", &[]), rel1("s", &[])),
        (rel1("r", &[(1, 0, 5)]), rel1("s", &[])),
        (rel1("r", &[]), rel1("s", &[(1, 0, 5)])),
        (
            rel1("r", &[(1, 0, 8), (2, 5, 12)]),
            rel1("s", &[(1, 2, 4), (2, 6, 15), (3, 1, 3)]),
        ),
        // touching intervals, same values
        (rel1("r", &[(1, 0, 5), (1, 5, 9)]), rel1("s", &[(1, 3, 7)])),
        // identical relations
        (
            rel1("r", &[(1, 0, 5), (2, 2, 8)]),
            rel1("s", &[(1, 0, 5), (2, 2, 8)]),
        ),
    ];
    for (i, (r, s)) in cases.iter().enumerate() {
        for op in binary_ops() {
            check(&op, &[r, s], &format!("case {i}"));
        }
    }
}

#[test]
fn binary_ops_match_oracle_on_random_inputs() {
    for seed in 0..12u64 {
        let r = random_trel(seed * 2 + 1, 9, 3, 16);
        let s = random_trel(seed * 2 + 2, 9, 3, 16);
        for op in binary_ops() {
            check(&op, &[&r, &s], &format!("seed {seed}"));
        }
    }
}

#[test]
fn unary_ops_match_oracle_on_random_inputs() {
    for seed in 100..112u64 {
        let r = random_trel(seed, 10, 3, 16);
        for op in unary_ops() {
            check(&op, &[&r], &format!("seed {seed}"));
        }
    }
}

#[test]
fn two_column_relations_match_oracle() {
    // Wider rows exercise multi-column grouping and projections.
    for seed in 200..206u64 {
        let r = random_trel2(seed, 8, 2, 12);
        let s = random_trel2(seed + 50, 8, 2, 12);
        let ops = vec![
            TemporalOp::Projection { attrs: vec![1] },
            TemporalOp::Projection { attrs: vec![1, 0] },
            TemporalOp::Aggregation {
                group: vec![0],
                aggs: vec![(AggCall::new(AggFunc::Max, col(1)), "m".to_string())],
            },
            TemporalOp::Union,
            TemporalOp::Difference,
            // θ: r.k = s.k ∧ r.w ≤ s.w over (k, w, ts, te, k, w, ts, te)
            TemporalOp::Join {
                theta: Some(col(0).eq(col(4)).and(col(1).le(col(5)))),
            },
            TemporalOp::FullOuterJoin {
                theta: Some(col(0).eq(col(4))),
            },
        ];
        for op in ops {
            if op.arity() == 1 {
                check(&op, &[&r], &format!("2col seed {seed}"));
            } else {
                check(&op, &[&r, &s], &format!("2col seed {seed}"));
            }
        }
    }
}

#[test]
fn join_method_switches_agree_with_oracle() {
    // The same reduced query must be correct under every planner setting.
    let r = random_trel(7, 10, 3, 16);
    let s = random_trel(8, 10, 3, 16);
    let op = TemporalOp::FullOuterJoin {
        theta: Some(col(0).eq(col(3))),
    };
    let slow = evaluate_oracle(&op, &[&r, &s]).unwrap();
    for config in [
        PlannerConfig::all_enabled(),
        PlannerConfig::no_merge(),
        PlannerConfig::nestloop_only(),
    ] {
        let fast = op.evaluate(&Planner::new(config), &[&r, &s]).unwrap();
        assert!(fast.same_set(&slow));
    }
}
