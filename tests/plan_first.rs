//! Plan-first compilation (ISSUE 2): composed `TemporalPlan` pipelines
//! must agree with the old per-operator (eager) evaluation and with the
//! point-wise `reference::oracle`, and a multi-operator temporal query
//! must compile into a *single* physical tree — one `Planner::run`, no
//! intermediate materialization barriers.

mod common;

use proptest::prelude::*;
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::catalog::Catalog;
use temporal_alignment::engine::plan::PhysicalPlan;
use temporal_alignment::engine::prelude::*;
use temporal_datasets::{ddisj, deq, drand};

/// Chains whose first operator is binary over `(r, s)` and whose remaining
/// operators are unary — valid for two one-data-column relations.
fn chains_1col() -> Vec<Vec<TemporalOp>> {
    let count = vec![(AggCall::count_star(), "cnt".to_string())];
    vec![
        vec![
            TemporalOp::Join {
                theta: Some(col(0).eq(col(3))),
            },
            TemporalOp::Selection {
                predicate: col(0).ge(lit(1i64)),
            },
            TemporalOp::Projection { attrs: vec![0] },
        ],
        vec![
            TemporalOp::LeftOuterJoin { theta: None },
            TemporalOp::Selection {
                predicate: col(0).ge(lit(0i64)),
            },
            TemporalOp::Aggregation {
                group: vec![0],
                aggs: count.clone(),
            },
        ],
        vec![
            TemporalOp::Union,
            TemporalOp::Selection {
                predicate: col(0).lt(lit(4i64)),
            },
            TemporalOp::Projection { attrs: vec![0] },
        ],
        vec![
            TemporalOp::Difference,
            TemporalOp::Aggregation {
                group: vec![],
                aggs: count,
            },
        ],
        vec![
            TemporalOp::FullOuterJoin {
                theta: Some(col(0).eq(col(3))),
            },
            TemporalOp::Projection { attrs: vec![0, 1] },
        ],
    ]
}

/// Evaluate a chain three ways and assert all agree.
fn check_chain(chain: &[TemporalOp], r: &TemporalRelation, s: &TemporalRelation, label: &str) {
    let alg = TemporalAlgebra::default();

    // Plan-first: one composed plan, one Planner::run.
    let composed = common::compose_chain(chain, r, s, label)
        .execute(alg.planner())
        .unwrap_or_else(|e| panic!("{label}: execute: {e}"));

    // Eager: one TemporalAlgebra call per operator, materializing between.
    let mut eager = chain[0]
        .evaluate(&alg, &[r, s])
        .unwrap_or_else(|e| panic!("{label}: eager {}: {e}", chain[0].name()));
    for op in &chain[1..] {
        eager = op
            .evaluate(&alg, &[&eager])
            .unwrap_or_else(|e| panic!("{label}: eager {}: {e}", op.name()));
    }

    // Oracle: the point-wise reference evaluator, per operator.
    let oracle = common::oracle_chain(chain, r, s, label);

    assert!(
        composed.same_set(&eager),
        "{label}: plan-first vs eager mismatch.\ncomposed:\n{composed}\neager:\n{eager}"
    );
    assert!(
        composed.same_set(&oracle),
        "{label}: plan-first vs oracle mismatch.\ncomposed:\n{composed}\noracle:\n{oracle}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pipelines over the paper's synthetic datasets: plan-first ≡ eager ≡
    /// oracle on Ddisj and Deq of random sizes.
    #[test]
    fn pipelines_agree_on_ddisj_and_deq(n in 2usize..6) {
        let (r, s) = ddisj(n);
        for (i, chain) in chains_1col().iter().enumerate() {
            check_chain(chain, &r, &s, &format!("ddisj({n}) chain {i}"));
        }
        let (r, s) = deq(n);
        for (i, chain) in chains_1col().iter().enumerate() {
            check_chain(chain, &r, &s, &format!("deq({n}) chain {i}"));
        }
    }

    /// Pipelines on Drand (random intervals, asymmetric schemas): the
    /// tuple-based chain θ-joins r's id against s's category column.
    #[test]
    fn pipelines_agree_on_drand(n in 2usize..6, seed in 0u64..1000) {
        let (r, s) = drand(n, seed);
        // concat row = (id, ts, te, a, min, max, ts, te)
        let chains: Vec<Vec<TemporalOp>> = vec![
            vec![
                TemporalOp::Join { theta: Some(col(0).lt(col(3))) },
                TemporalOp::Projection { attrs: vec![0] },
                TemporalOp::Aggregation {
                    group: vec![],
                    aggs: vec![(AggCall::count_star(), "cnt".to_string())],
                },
            ],
            vec![
                TemporalOp::AntiJoin { theta: Some(col(0).eq(col(3))) },
                TemporalOp::Selection { predicate: col(0).ge(lit(0i64)) },
                TemporalOp::Projection { attrs: vec![0] },
            ],
            vec![
                TemporalOp::LeftOuterJoin { theta: Some(col(0).lt(col(3))) },
                TemporalOp::Selection { predicate: col(1).ge(lit(0i64)) },
                TemporalOp::Projection { attrs: vec![0, 1] },
            ],
        ];
        for (i, chain) in chains.iter().enumerate() {
            check_chain(chain, &r, &s, &format!("drand({n}, {seed}) chain {i}"));
        }
    }
}

/// The acceptance check of ISSUE 2: a temporal query composing three
/// sequenced operators (σᵀ ∘ ⋈ᵀ ∘ σᵀ) compiles into **one** physical tree
/// whose only scans are the base relations — no `InlineScan` barrier of a
/// materialized intermediate anywhere — and executes via a single
/// `Planner::run`.
#[test]
fn three_operator_chain_compiles_to_single_tree() {
    let (r, s) = drand(64, 7);
    let theta = col(0).lt(col(3));
    let plan = TemporalPlan::scan(&r)
        .selection(col(0).ge(lit(5i64)))
        .unwrap()
        .join(TemporalPlan::scan(&s), Some(theta))
        .unwrap()
        .selection(col(0).lt(lit(40i64)))
        .unwrap();

    let planner = Planner::default();
    let physical = plan.physical(&planner, &Catalog::new()).unwrap();
    let text = physical.explain();

    // One tree containing the whole reduction: both alignments and the
    // final absorb, with no spool (all operands are cheap leaf scans).
    assert_eq!(text.matches("TemporalAligner").count(), 2, "{text}");
    assert!(text.contains("Absorb"), "{text}");
    assert!(!text.contains("Spool"), "{text}");

    // Every scan in the single physical tree reads the *base* relations'
    // row storage directly (r twice, s twice — the two alignments), i.e.
    // there is no InlineScan of a materialized intermediate.
    let is_base_scan = |p: &PhysicalPlan| match p {
        PhysicalPlan::SeqScan { rel, .. } => {
            std::ptr::eq(rel.rows().as_ptr(), r.rel().rows().as_ptr())
                || std::ptr::eq(rel.rows().as_ptr(), s.rel().rows().as_ptr())
        }
        _ => false,
    };
    let scans = physical.count_nodes(&|p| matches!(p, PhysicalPlan::SeqScan { .. }));
    let base_scans = physical.count_nodes(&is_base_scan);
    assert_eq!(scans, 4, "{text}");
    assert_eq!(
        base_scans, scans,
        "every scan must read a base relation:\n{text}"
    );

    // The late σᵀ on r's data column crossed the absorb, the reduced join
    // and the alignment: the root of the single tree is the absorb (no
    // residual filter above it).
    assert!(
        text.starts_with("Absorb"),
        "selection should be pushed below the root:\n{text}"
    );

    // And the whole thing — one Planner::run — matches eager evaluation.
    let alg = TemporalAlgebra::default();
    let composed = plan.execute(&planner).unwrap();
    let joined = alg
        .join(
            &alg.selection(&r, col(0).ge(lit(5i64))).unwrap(),
            &s,
            Some(col(0).lt(col(3))),
        )
        .unwrap();
    let eager = alg.selection(&joined, col(0).lt(lit(40i64))).unwrap();
    assert!(composed.same_set(&eager));
}

/// Group-based composition: the composed operand is spooled (shared
/// materialization), still one physical tree and one run.
#[test]
fn group_based_chain_spools_composed_operand() {
    let (r, s) = ddisj(16);
    let plan = TemporalPlan::scan(&r)
        .union(TemporalPlan::scan(&s))
        .unwrap()
        .projection(&[0])
        .unwrap();
    let planner = Planner::default();
    let text = plan.explain(&planner, &Catalog::new()).unwrap();
    assert!(text.contains("Spool"), "{text}");
    let composed = plan.execute(&planner).unwrap();
    let alg = TemporalAlgebra::default();
    let eager = alg.projection(&alg.union(&r, &s).unwrap(), &[0]).unwrap();
    assert!(composed.same_set(&eager));
}
