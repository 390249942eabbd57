//! Property-based tests (proptest) of the sequenced-semantics properties:
//! Definitions 1, 7, 8, 10 and Lemma 1, checked on arbitrary inputs.

mod common;

use proptest::prelude::*;
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::semantics::{
    check_change_preservation, check_snapshot_reducibility, TemporalOp,
};
use temporal_alignment::engine::prelude::*;
use temporal_core::primitives::aligner::is_valid_alignment;
use temporal_core::primitives::splitter::is_valid_split;

/// Strategy: a non-empty interval within `[0, dom)`.
fn arb_interval(dom: i64) -> impl Strategy<Value = Interval> {
    (0..dom - 1)
        .prop_flat_map(move |s| (Just(s), s + 1..=dom).prop_map(|(s, e)| Interval::of(s, e)))
}

/// Strategy: a duplicate-free temporal relation with one Int data column.
fn arb_trel(max_rows: usize, val_dom: i64, dom: i64) -> impl Strategy<Value = TemporalRelation> {
    proptest::collection::vec((0..val_dom, arb_interval(dom)), 0..=max_rows).prop_map(|cand| {
        let mut kept: Vec<(i64, Interval)> = Vec::new();
        for (v, iv) in cand {
            if kept
                .iter()
                .all(|(v2, iv2)| *v2 != v || (!iv2.overlaps(&iv) && *iv2 != iv))
            {
                kept.push((v, iv));
            }
        }
        TemporalRelation::from_rows(
            Schema::new(vec![Column::new("k", DataType::Int)]),
            kept.into_iter()
                .map(|(v, iv)| (vec![Value::Int(v)], iv))
                .collect(),
        )
        .expect("duplicate free by construction")
    })
}

/// Strategy: one of the binary operators with assorted θ conditions
/// (concat row = (k, ts, te, k, ts, te)).
fn arb_binary_op() -> impl Strategy<Value = TemporalOp> {
    let eq = || Some(col(0).eq(col(3)));
    prop_oneof![
        Just(TemporalOp::Union),
        Just(TemporalOp::Difference),
        Just(TemporalOp::Intersection),
        Just(TemporalOp::CartesianProduct),
        Just(TemporalOp::Join { theta: eq() }),
        Just(TemporalOp::LeftOuterJoin { theta: eq() }),
        Just(TemporalOp::LeftOuterJoin { theta: None }),
        Just(TemporalOp::RightOuterJoin { theta: eq() }),
        Just(TemporalOp::FullOuterJoin { theta: eq() }),
        Just(TemporalOp::AntiJoin { theta: eq() }),
        Just(TemporalOp::Join {
            theta: Some(col(0).lt(col(3)))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Def. 8: `split` produces a valid temporal splitter result.
    #[test]
    fn splitter_satisfies_def8(
        r in arb_interval(30),
        group in proptest::collection::vec(arb_interval(30), 0..6),
    ) {
        let out = temporal_core::primitives::splitter::split(r, &group);
        prop_assert!(is_valid_split(r, &group, &out));
    }

    /// Def. 10: `align` produces a valid temporal aligner result, within
    /// the Lemma 1 cardinality bound (2m + 1 per tuple).
    #[test]
    fn aligner_satisfies_def10_and_lemma1(
        r in arb_interval(30),
        group in proptest::collection::vec(arb_interval(30), 0..6),
    ) {
        let out = temporal_core::primitives::aligner::align(r, &group);
        prop_assert!(is_valid_alignment(r, &group, &out));
        prop_assert!(out.len() <= 2 * group.len() + 1);
    }

    /// Lemma 1 at the relation level: |r Φ_θ s| ≤ 2nm + n.
    #[test]
    fn alignment_cardinality_lemma1(
        r in arb_trel(6, 3, 20),
        s in arb_trel(6, 3, 20),
    ) {
        let out = TemporalPlan::scan(&r)
            .align(TemporalPlan::scan(&s), None)
            .unwrap()
            .execute(&Planner::default())
            .unwrap();
        let (n, m) = (r.len(), s.len());
        prop_assert!(out.len() <= 2 * n * m + n);
    }

    /// Defs. 1 and 7 for every binary operator: the reduced result is
    /// snapshot reducible and change preserving on arbitrary inputs.
    #[test]
    fn binary_operators_satisfy_sequenced_semantics(
        op in arb_binary_op(),
        r in arb_trel(6, 3, 14),
        s in arb_trel(6, 3, 14),
    ) {
        let result = op.evaluate(&Planner::default(), &[&r, &s]).unwrap();
        let sr = check_snapshot_reducibility(&op, &[&r, &s], &result).unwrap();
        prop_assert!(sr.is_empty(), "snapshot violations at {sr:?} for {}", op.name());
        let cp = check_change_preservation(&op, &[&r, &s], &result).unwrap();
        prop_assert!(cp.is_empty(), "change violations {cp:?} for {}", op.name());
    }

    /// Defs. 1 and 7 for the unary/group-based operators.
    #[test]
    fn unary_operators_satisfy_sequenced_semantics(
        r in arb_trel(7, 3, 14),
        pick in 0..3usize,
    ) {
        let op = match pick {
            0 => TemporalOp::Selection { predicate: col(0).ge(lit(1i64)) },
            1 => TemporalOp::Projection { attrs: vec![0] },
            _ => TemporalOp::Aggregation {
                group: vec![],
                aggs: vec![(AggCall::count_star(), "c".to_string())],
            },
        };
        let result = op.evaluate(&Planner::default(), &[&r]).unwrap();
        let sr = check_snapshot_reducibility(&op, &[&r], &result).unwrap();
        prop_assert!(sr.is_empty(), "snapshot violations at {sr:?} for {}", op.name());
        let cp = check_change_preservation(&op, &[&r], &result).unwrap();
        prop_assert!(cp.is_empty(), "change violations {cp:?} for {}", op.name());
    }

    /// α is idempotent and results are always duplicate-free relations.
    #[test]
    fn absorb_idempotent(r in arb_trel(8, 3, 20)) {
        let absorb = |r: &TemporalRelation| {
            TemporalPlan::scan(r).absorb().execute(&Planner::default()).unwrap()
        };
        let once = absorb(&r);
        let twice = absorb(&once);
        prop_assert!(once.same_set(&twice));
    }

    /// Alignment against an empty relation is the identity (every tuple
    /// keeps its whole timestamp as one uncovered piece).
    #[test]
    fn alignment_with_empty_group_is_identity(r in arb_trel(8, 3, 20)) {
        let empty = TemporalRelation::from_rows(
            Schema::new(vec![Column::new("k", DataType::Int)]),
            vec![],
        ).unwrap();
        let out = TemporalPlan::scan(&r)
            .align(TemporalPlan::scan(&empty), None)
            .unwrap()
            .execute(&Planner::default())
            .unwrap();
        prop_assert!(out.same_set(&r));
    }

    /// Self-normalization on all attributes never changes the snapshots.
    #[test]
    fn normalization_preserves_snapshots(r in arb_trel(8, 3, 16)) {
        let out = TemporalPlan::scan(&r)
            .normalize(TemporalPlan::scan(&r), &[(0, 0)])
            .unwrap()
            .execute(&Planner::default())
            .unwrap();
        for t in r.endpoints() {
            prop_assert!(out.timeslice(t).same_set(&r.timeslice(t)));
        }
    }

    /// The reduced result of a temporal union contains exactly the points
    /// covered by either argument (pointwise containment check).
    #[test]
    fn union_covers_exactly_both_sides(
        r in arb_trel(5, 2, 12),
        s in arb_trel(5, 2, 12),
    ) {
        let out = TemporalOp::Union.evaluate(&Planner::default(), &[&r, &s]).unwrap();
        for t in 0..12 {
            let expected_len = {
                let mut u = r.timeslice(t);
                for row in s.timeslice(t).rows() {
                    u.push(row.clone()).unwrap();
                }
                u.dedup();
                u.len()
            };
            prop_assert_eq!(out.timeslice(t).len(), expected_len);
        }
    }
}
