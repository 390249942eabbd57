//! Plan-first compilation: composed `TemporalPlan` pipelines must agree
//! with the point-wise `reference::oracle` whichever join methods and
//! rewrites the planner is allowed, and a multi-operator temporal query
//! must compile into a *single* physical tree — one `Planner::run`, no
//! intermediate materialization barriers.

mod common;

use proptest::prelude::*;
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::reference::evaluate_oracle;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::catalog::Catalog;
use temporal_alignment::engine::plan::PhysicalPlan;
use temporal_alignment::engine::prelude::*;
use temporal_datasets::{ddisj, deq, drand};

/// Compose each chain into one plan and assert it agrees with the oracle
/// under the default planner, the paper's nested-loop-only setting and
/// with the cross-operator rewrites off.
fn check_chains(
    chains: &[Vec<TemporalOp>],
    r: &TemporalRelation,
    s: &TemporalRelation,
    label: &str,
) {
    let planners = [
        ("default", PlannerConfig::default()),
        ("nestloop only", PlannerConfig::nestloop_only()),
        (
            "no rewrites",
            PlannerConfig {
                enable_rewrites: false,
                ..Default::default()
            },
        ),
    ];
    for (i, chain) in chains.iter().enumerate() {
        let label = format!("{label} chain {i}");
        let plan =
            common::compose_chain(chain, TemporalPlan::scan(r), TemporalPlan::scan(s), &label);
        let oracle = common::oracle_chain(chain, r, s, &label);
        for (how, config) in planners {
            let composed = plan
                .execute(&Planner::new(config))
                .unwrap_or_else(|e| panic!("{label}, {how}: execute: {e}"));
            assert!(
                composed.same_set(&oracle),
                "{label}, {how}: plan-first vs oracle mismatch.\ncomposed:\n{composed}\noracle:\n{oracle}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pipelines over the paper's synthetic datasets: plan-first ≡ oracle
    /// on Ddisj and Deq of random sizes.
    #[test]
    fn pipelines_agree_on_ddisj_and_deq(n in 2usize..6) {
        let chains = common::differential_chains_1col();
        let (r, s) = ddisj(n);
        check_chains(&chains, &r, &s, &format!("ddisj({n})"));
        let (r, s) = deq(n);
        check_chains(&chains, &r, &s, &format!("deq({n})"));
    }

    /// Pipelines on Drand (random intervals, asymmetric schemas).
    #[test]
    fn pipelines_agree_on_drand(n in 2usize..6, seed in 0u64..1000) {
        let (r, s) = drand(n, seed);
        let chains = common::differential_chains_drand();
        check_chains(&chains, &r, &s, &format!("drand({n}, {seed})"));
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

    let physical = Planner::default()
        .plan(plan.logical(), &Catalog::new())
        .unwrap();
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

    // And the whole thing — one Planner::run — matches the oracle.
    let composed = plan.execute(&Planner::default()).unwrap();
    let chain = [
        TemporalOp::Join {
            theta: Some(col(0).lt(col(3))),
        },
        TemporalOp::Selection {
            predicate: col(0).lt(lit(40i64)),
        },
    ];
    let selected = evaluate_oracle(
        &TemporalOp::Selection {
            predicate: col(0).ge(lit(5i64)),
        },
        &[&r],
    )
    .unwrap();
    let oracle = common::oracle_chain(&chain, &selected, &s, "σ ∘ ⋈ ∘ σ");
    assert!(composed.same_set(&oracle));
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
    let text = plan.explain(&Database::new()).unwrap();
    assert!(text.contains("Spool"), "{text}");
    let composed = plan.execute(&Planner::default()).unwrap();
    let chain = [TemporalOp::Union, TemporalOp::Projection { attrs: vec![0] }];
    let oracle = common::oracle_chain(&chain, &r, &s, "πᵀ ∘ ∪ᵀ");
    assert!(composed.same_set(&oracle));
}
