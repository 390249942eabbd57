//! `normalize_plan` is join → sort → sweep: the sort keys and the plane
//! sweep read the split point from the group-construction join's own row
//! `(r.*, B, P1)`; no projection sits between them. These tests pin that
//! plan shape and check the pipeline against the quadratic reference
//! normalizer on the Sec. 7 datasets, grouped and `N_{}` — and that
//! bag-duplicate `r` tuples still collapse into one group.

use temporal_alignment::core::prelude::*;
use temporal_alignment::engine::prelude::*;
use temporal_datasets::{ddisj, deq, drand, random_like_incumben};

fn check(label: &str, r: &TemporalRelation, s: &TemporalRelation, b: &[(usize, usize)]) {
    let slow = normalize_ref(r, s, b).unwrap();
    let fast = TemporalPlan::scan(r)
        .normalize(TemporalPlan::scan(s), b)
        .unwrap()
        .execute(&Planner::default())
        .unwrap();
    assert!(
        fast.same_set(&slow),
        "{label} on {b:?}:\nfast:\n{fast}\nslow:\n{slow}"
    );
    assert_eq!(fast.len(), slow.len(), "{label}: no extra copies");
}

#[test]
fn matches_the_reference_on_the_synthetic_datasets() {
    for n in [1, 7, 60] {
        let (r, s) = ddisj(n);
        check("Ddisj", &r, &s, &[]);
        check("Ddisj", &r, &s, &[(0, 0)]);
        let (r, s) = deq(n);
        check("Deq", &r, &s, &[]);
        check("Deq", &r, &s, &[(0, 0)]);
        let (r, s) = drand(n, 40 + n as u64);
        check("Drand", &r, &s, &[]);
        check("Drand", &r, &s, &[(0, 0)]);
        check("Drand, self", &r, &r, &[]);
    }
}

#[test]
fn self_normalization_on_a_skewed_key_matches_the_reference() {
    // Few positions, many incumbents each: every hash bucket holds dozens
    // of end points, most of them outside any one tuple's interval — the
    // case the join's range-ordered buckets are for.
    let r = random_like_incumben(400, 6, 3);
    for b in [&[][..], &[1][..], &[0, 1][..]] {
        let slow = self_normalize_ref(&r, b).unwrap();
        let pairs: Vec<(usize, usize)> = b.iter().map(|&i| (i, i)).collect();
        let fast = TemporalPlan::scan(&r)
            .normalize(TemporalPlan::scan(&r), &pairs)
            .unwrap()
            .execute(&Planner::default())
            .unwrap();
        assert!(fast.same_set(&slow), "N_{b:?}");
    }
}

#[test]
fn bag_duplicate_tuples_collapse_into_one_group() {
    let (r, s) = drand(40, 5);
    let doubled = TemporalRelation::new(
        Relation::new(
            r.schema().clone(),
            r.rows().iter().chain(r.rows()).cloned().collect(),
        )
        .unwrap(),
    )
    .unwrap();
    let planner = Planner::default();
    for b in [&[][..], &[(0, 0)][..]] {
        let once = TemporalPlan::scan(&r)
            .normalize(TemporalPlan::scan(&s), b)
            .unwrap()
            .execute(&planner)
            .unwrap();
        let twice = TemporalPlan::scan(&doubled)
            .normalize(TemporalPlan::scan(&s), b)
            .unwrap()
            .execute(&planner)
            .unwrap();
        assert_eq!(
            once.rel().rows(),
            twice.rel().rows(),
            "N_{b:?}: duplicates of an r tuple must add nothing"
        );
        assert!(twice.same_set(&normalize_ref(&doubled, &s, b).unwrap()));
    }
}

#[test]
fn the_sort_reads_the_join_row_directly() {
    let (r, s) = ddisj(8);
    let plan = normalize_plan(
        LogicalPlan::inline_scan(r.rel().clone()),
        LogicalPlan::inline_scan(s.rel().clone()),
        &[(0, 0)],
    )
    .unwrap();
    let explain = Planner::default()
        .plan(&plan, &Catalog::new())
        .unwrap()
        .explain();
    let lines: Vec<&str> = explain.lines().map(str::trim_start).collect();
    assert!(lines[0].starts_with("TemporalNormalizer"), "{explain}");
    assert!(lines[1].starts_with("Sort (4 keys)"), "{explain}");
    assert!(
        lines[2].starts_with("HashJoin[Left] on 1 key(s) range-ordered on __p1"),
        "{explain}"
    );
}
