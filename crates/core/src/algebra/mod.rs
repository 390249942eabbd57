//! The sequenced temporal algebra, implemented exclusively through the
//! reduction rules of Table 2 (Theorem 1).
//!
//! Query processing is the paper's two-step process: (1) propagate and
//! adjust the interval timestamps of argument tuples (alignment /
//! normalization), then (2) apply the corresponding **nontemporal**
//! operator on the adjusted relations, comparing timestamps only by
//! equality, with the absorb operator α as a final post-processing step
//! for tuple-based operators.

mod plan;
mod reduction;

pub use plan::TemporalPlan;
pub use reduction::{
    reduce_aggregation, reduce_antijoin, reduce_join, reduce_projection, reduce_selection,
    reduce_setop, self_pairs,
};

/// The reduction rules of Table 2, one operator at a time, through
/// [`crate::semantics::TemporalOp::evaluate`].
#[cfg(test)]
mod tests {
    use temporal_engine::prelude::*;

    use crate::interval::Interval;
    use crate::semantics::TemporalOp;
    use crate::trel::TemporalRelation;

    fn rel(rows: &[(&str, i64, i64)]) -> TemporalRelation {
        TemporalRelation::from_rows(
            Schema::new(vec![Column::new("v", DataType::Str)]),
            rows.iter()
                .map(|&(v, s, e)| (vec![Value::str(v)], Interval::of(s, e)))
                .collect(),
        )
        .unwrap()
    }

    fn eval(op: TemporalOp, args: &[&TemporalRelation]) -> TemporalRelation {
        op.evaluate(&Planner::default(), args).unwrap()
    }

    fn pairs(out: &TemporalRelation) -> Vec<(String, i64, i64)> {
        let mut v: Vec<(String, i64, i64)> = out
            .iter()
            .map(|(d, iv)| {
                (
                    d.iter()
                        .map(|x| x.to_string())
                        .collect::<Vec<_>>()
                        .join(","),
                    iv.start(),
                    iv.end(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn selection_preserves_timestamps() {
        let r = rel(&[("a", 0, 5), ("b", 2, 9)]);
        let predicate = col(0).eq(lit(Value::str("a")));
        let out = eval(TemporalOp::Selection { predicate }, &[&r]);
        assert_eq!(pairs(&out), vec![("a".into(), 0, 5)]);
    }

    #[test]
    fn inner_join_intersects_timestamps() {
        let r = rel(&[("a", 0, 5)]);
        let s = rel(&[("x", 3, 9)]);
        let out = eval(TemporalOp::Join { theta: None }, &[&r, &s]);
        assert_eq!(pairs(&out), vec![("a,x".into(), 3, 5)]);
    }

    #[test]
    fn left_outer_join_pads_uncovered_parts() {
        let r = rel(&[("a", 0, 8)]);
        let s = rel(&[("x", 2, 4)]);
        let out = eval(TemporalOp::LeftOuterJoin { theta: None }, &[&r, &s]);
        assert_eq!(
            pairs(&out),
            vec![
                ("a,x".into(), 2, 4),
                ("a,ω".into(), 0, 2),
                ("a,ω".into(), 4, 8),
            ]
        );
    }

    #[test]
    fn full_outer_join_pads_both_sides() {
        let r = rel(&[("a", 0, 4)]);
        let s = rel(&[("x", 2, 6)]);
        let out = eval(TemporalOp::FullOuterJoin { theta: None }, &[&r, &s]);
        assert_eq!(
            pairs(&out),
            vec![
                ("a,x".into(), 2, 4),
                ("a,ω".into(), 0, 2),
                ("ω,x".into(), 4, 6),
            ]
        );
    }

    #[test]
    fn anti_join_keeps_uncovered_parts_only() {
        let r = rel(&[("a", 0, 8)]);
        let s = rel(&[("x", 2, 4)]);
        let out = eval(TemporalOp::AntiJoin { theta: None }, &[&r, &s]);
        assert_eq!(pairs(&out), vec![("a".into(), 0, 2), ("a".into(), 4, 8)]);
    }

    #[test]
    fn difference_removes_covered_spans() {
        let r = rel(&[("a", 0, 8), ("b", 0, 3)]);
        let s = rel(&[("a", 2, 5)]);
        let out = eval(TemporalOp::Difference, &[&r, &s]);
        assert_eq!(
            pairs(&out),
            vec![("a".into(), 0, 2), ("a".into(), 5, 8), ("b".into(), 0, 3),]
        );
    }

    #[test]
    fn union_is_change_preserving_not_coalescing() {
        let r = rel(&[("a", 0, 10)]);
        let s = rel(&[("a", 5, 20)]);
        let out = eval(TemporalOp::Union, &[&r, &s]);
        // fragments [0,5), [5,10), [10,20) — lineage changes at 5 and 10.
        assert_eq!(
            pairs(&out),
            vec![
                ("a".into(), 0, 5),
                ("a".into(), 5, 10),
                ("a".into(), 10, 20),
            ]
        );
    }

    #[test]
    fn intersection_keeps_common_spans() {
        let r = rel(&[("a", 0, 10)]);
        let s = rel(&[("a", 5, 20), ("b", 0, 10)]);
        let out = eval(TemporalOp::Intersection, &[&r, &s]);
        assert_eq!(pairs(&out), vec![("a".into(), 5, 10)]);
    }

    #[test]
    fn projection_merges_only_at_change_points() {
        let r = TemporalRelation::from_rows(
            Schema::new(vec![
                Column::new("k", DataType::Str),
                Column::new("w", DataType::Int),
            ]),
            vec![
                (vec![Value::str("a"), Value::Int(1)], Interval::of(0, 5)),
                (vec![Value::str("a"), Value::Int(2)], Interval::of(3, 9)),
            ],
        )
        .unwrap();
        let out = eval(TemporalOp::Projection { attrs: vec![0] }, &[&r]);
        // fragments: [0,3), [3,5) (both tuples), [5,9) — π keeps each once.
        assert_eq!(
            pairs(&out),
            vec![("a".into(), 0, 3), ("a".into(), 3, 5), ("a".into(), 5, 9),]
        );
    }

    #[test]
    fn aggregation_counts_per_fragment() {
        let r = rel(&[("a", 0, 5), ("b", 3, 9)]);
        let op = TemporalOp::Aggregation {
            group: vec![],
            aggs: vec![(AggCall::count_star(), "cnt".to_string())],
        };
        let out = eval(op, &[&r]);
        assert_eq!(
            pairs(&out),
            vec![("1".into(), 0, 3), ("1".into(), 5, 9), ("2".into(), 3, 5),]
        );
        assert_eq!(out.schema().names(), vec!["cnt", "ts", "te"]);
    }

    #[test]
    fn example9_absorb_in_cartesian_product() {
        // Paper Example 9: r = {(a,[1,9)), (b,[3,7))}, s = {(c,[1,9)),
        // (d,[3,7))}; the equality join produces a temporal duplicate
        // (a,c,[3,7)) ⊂ (a,c,[1,9)) which α removes.
        let r = rel(&[("a", 1, 9), ("b", 3, 7)]);
        let s = rel(&[("c", 1, 9), ("d", 3, 7)]);
        let out = eval(TemporalOp::CartesianProduct, &[&r, &s]);
        assert_eq!(
            pairs(&out),
            vec![
                ("a,c".into(), 1, 9),
                ("a,d".into(), 3, 7),
                ("b,c".into(), 3, 7),
                ("b,d".into(), 3, 7),
            ]
        );
    }

    #[test]
    fn setops_require_union_compatibility() {
        let r = rel(&[("a", 0, 5)]);
        let s = TemporalRelation::from_rows(
            Schema::new(vec![
                Column::new("x", DataType::Str),
                Column::new("y", DataType::Int),
            ]),
            vec![(vec![Value::str("a"), Value::Int(1)], Interval::of(0, 5))],
        )
        .unwrap();
        assert!(TemporalOp::Union
            .evaluate(&Planner::default(), &[&r, &s])
            .is_err());
    }
}
