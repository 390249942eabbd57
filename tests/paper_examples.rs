//! The worked examples of the paper as integration fixtures: every figure
//! with a concrete result is asserted tuple-by-tuple.

mod common;

use common::{paper_p, paper_r};
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::prelude::*;
use temporal_core::interval::month::ym;

fn assert_rows(out: &TemporalRelation, expected: &[(Vec<Value>, (i64, i64))]) {
    assert_eq!(out.len(), expected.len(), "cardinality mismatch:\n{out}");
    for (vals, (ts, te)) in expected {
        let iv = Interval::of(*ts, *te);
        assert!(
            out.iter().any(|(d, i)| d == vals.as_slice() && i == iv),
            "missing {vals:?} over {iv} in:\n{out}"
        );
    }
}

/// Fig. 1(b): Q1 = R ⟕ᵀ_{Min ≤ DUR(R.T) ≤ Max} P via extend + reduction.
#[test]
fn fig1b_query_q1() {
    let (r, p) = (paper_r(), paper_p());

    let ur = extend(&r).unwrap();
    // U(R) = (n, us, ue, ts, te), P = (a, min, max, ts, te):
    // DUR(us, ue) BETWEEN min AND max.
    let theta = Expr::Func(Func::Dur, vec![col(1), col(2)]).between(col(6), col(7));
    let q1 = TemporalOp::LeftOuterJoin { theta: Some(theta) }
        .evaluate(&Planner::default(), &[&ur, &p])
        .unwrap()
        .project_data(&[0, 3, 4, 5]) // drop us, ue (Def. 4's π_E)
        .unwrap();

    let z = |n: &str, a: Option<i64>, min: Option<i64>, max: Option<i64>| {
        vec![
            Value::str(n),
            a.map_or(Value::Null, Value::Int),
            min.map_or(Value::Null, Value::Int),
            max.map_or(Value::Null, Value::Int),
        ]
    };
    assert_rows(
        &q1,
        &[
            // z1: Ann at long-term price for the first 5 months
            (
                z("ann", Some(40), Some(3), Some(7)),
                (ym(2012, 1), ym(2012, 6)),
            ),
            // z2: Joe likewise
            (
                z("joe", Some(40), Some(3), Some(7)),
                (ym(2012, 2), ym(2012, 6)),
            ),
            // z3: Ann, negotiated (ω) — from r1
            (z("ann", None, None, None), (ym(2012, 6), ym(2012, 8))),
            // z4: Ann, negotiated (ω) — from r3; NOT coalesced with z3
            (z("ann", None, None, None), (ym(2012, 8), ym(2012, 10))),
            // z5: Ann at long-term price again
            (
                z("ann", Some(40), Some(3), Some(7)),
                (ym(2012, 10), ym(2012, 12)),
            ),
        ],
    );
}

/// Fig. 3: the temporal normalization N_{}(R; R).
#[test]
fn fig3_normalization() {
    let r = paper_r();
    let out = TemporalPlan::scan(&r)
        .normalize(TemporalPlan::scan(&r), &[] as &[(usize, usize)])
        .unwrap()
        .execute(&Planner::default())
        .unwrap();
    assert_rows(
        &out,
        &[
            (vec![Value::str("ann")], (ym(2012, 1), ym(2012, 2))),
            (vec![Value::str("ann")], (ym(2012, 2), ym(2012, 6))),
            (vec![Value::str("ann")], (ym(2012, 6), ym(2012, 8))),
            (vec![Value::str("joe")], (ym(2012, 2), ym(2012, 6))),
            (vec![Value::str("ann")], (ym(2012, 8), ym(2012, 12))),
        ],
    );
}

/// Fig. 4: the alignment of P with respect to U(R) under
/// θ ≡ Min ≤ DUR(U) ≤ Max.
#[test]
fn fig4_alignment_of_prices() {
    let (r, p) = (paper_r(), paper_p());
    let ur = extend(&r).unwrap();
    // P ++ U(R): P = (a, min, max, ts, te), U(R) = (n, us, ue, ts, te).
    let theta = Expr::Func(Func::Dur, vec![col(6), col(7)]).between(col(1), col(2));
    let out = TemporalPlan::scan(&p)
        .align(TemporalPlan::scan(&ur), Some(theta))
        .unwrap()
        .execute(&Planner::default())
        .unwrap();

    let s = |a: i64, min: i64, max: i64| vec![Value::Int(a), Value::Int(min), Value::Int(max)];
    assert_rows(
        &out,
        &[
            // s1 (50,1,2): no reservation of duration 1–2 → whole interval
            (s(50, 1, 2), (ym(2012, 1), ym(2012, 6))),
            // s2 (40,3,7): common intervals with r1 and r2
            (s(40, 3, 7), (ym(2012, 1), ym(2012, 6))),
            (s(40, 3, 7), (ym(2012, 2), ym(2012, 6))),
            // s3 (30,8,12): no 8–12 month reservation → whole year
            (s(30, 8, 12), (ym(2012, 1), ym(2013, 1))),
            // s4 (50,1,2): untouched
            (s(50, 1, 2), (ym(2012, 10), ym(2013, 1))),
            // s5 (40,3,7): common interval with r3, plus the uncovered tail
            (s(40, 3, 7), (ym(2012, 10), ym(2012, 12))),
            (s(40, 3, 7), (ym(2012, 12), ym(2013, 1))),
        ],
    );
}

/// Fig. 7: Q2 = ϑᵀ_{AVG(DUR(R.T))}(R), the reduction of the temporal
/// aggregation with a function over the original timestamps.
#[test]
fn fig7_aggregation_q2() {
    let r = paper_r();
    let ur = extend(&r).unwrap();
    let avg = AggCall::new(AggFunc::Avg, Expr::Func(Func::Dur, vec![col(1), col(2)]));
    let q2 = TemporalOp::Aggregation {
        group: vec![],
        aggs: vec![(avg, "avg_dur".to_string())],
    };
    let out = q2.evaluate(&Planner::default(), &[&ur]).unwrap();
    assert_rows(
        &out,
        &[
            (vec![Value::Double(7.0)], (ym(2012, 1), ym(2012, 2))),
            (vec![Value::Double(5.5)], (ym(2012, 2), ym(2012, 6))),
            (vec![Value::Double(7.0)], (ym(2012, 6), ym(2012, 8))),
            (vec![Value::Double(4.0)], (ym(2012, 8), ym(2012, 12))),
        ],
    );
}

/// Example 2: extended snapshot reducibility at timepoint 2012/1 — the
/// snapshot of Q1 at 2012/1 equals the nontemporal left outer join over
/// the extended snapshot.
#[test]
fn example2_extended_snapshot_at_january() {
    let (r, p) = (paper_r(), paper_p());
    let ur = extend(&r).unwrap();
    let theta = Expr::Func(Func::Dur, vec![col(1), col(2)]).between(col(6), col(7));
    let q1 = TemporalOp::LeftOuterJoin { theta: Some(theta) }
        .evaluate(&Planner::default(), &[&ur, &p])
        .unwrap()
        .project_data(&[0, 3, 4, 5])
        .unwrap();
    let snap = q1.timeslice(ym(2012, 1));
    // {(Ann, 40, 3, 7)} — Example 2 step 4.
    assert_eq!(snap.len(), 1);
    assert_eq!(
        snap.rows()[0].values(),
        &[
            Value::str("ann"),
            Value::Int(40),
            Value::Int(3),
            Value::Int(7)
        ]
    );
}

/// Lemma 1 base case (Fig. 5): n = 1, m = 2 → exactly 5 aligned tuples.
#[test]
fn fig5_lemma1_base_case() {
    let r = common::rel1("r", &[(0, 1, 12)]);
    let s = common::rel1("s", &[(1, 2, 4), (2, 6, 9)]);
    let out = TemporalPlan::scan(&r)
        .align(TemporalPlan::scan(&s), None)
        .unwrap()
        .execute(&Planner::default())
        .unwrap();
    assert_eq!(out.len(), 5);
}

/// Example 9: the absorb operator removes the temporal duplicate produced
/// by the Cartesian product's reduction.
#[test]
fn example9_absorb() {
    let r = TemporalRelation::from_rows(
        Schema::new(vec![Column::new("x", DataType::Str)]),
        vec![
            (vec![Value::str("a")], Interval::of(1, 9)),
            (vec![Value::str("b")], Interval::of(3, 7)),
        ],
    )
    .unwrap();
    let s = TemporalRelation::from_rows(
        Schema::new(vec![Column::new("y", DataType::Str)]),
        vec![
            (vec![Value::str("c")], Interval::of(1, 9)),
            (vec![Value::str("d")], Interval::of(3, 7)),
        ],
    )
    .unwrap();
    let out = TemporalOp::CartesianProduct
        .evaluate(&Planner::default(), &[&r, &s])
        .unwrap();
    // z1, z3, z4, z5 of Example 9 — z2 = (a, c, [3,7)) absorbed.
    assert_eq!(out.len(), 4);
    assert!(!out
        .iter()
        .any(|(d, iv)| { d == [Value::str("a"), Value::str("c")] && iv == Interval::of(3, 7) }));
}
