//! `normalize_plan` is DISTINCT r → join → sweep: the sweep reads the
//! split point from the group-construction join's own row `(r.*, B, P1)`,
//! and no sort and no projection stand between them — every join method
//! emits a left row's matches together, and the sweep orders each group's
//! split points itself. These tests pin that plan shape, check the
//! pipeline against the quadratic reference normalizer on the Sec. 7
//! datasets, grouped and `N_{}`, and check it under every join method on
//! the inputs that need the DISTINCT and the sweep's own ordering:
//! bag-duplicate `r` tuples (which collapse into one group), NULL data,
//! tuples without a split point, `Int = Double` keys and NULL bounds.
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::reference::evaluate_oracle;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::prelude::*;
use temporal_datasets::{ddisj, deq, drand, random_like_incumben};

mod common;

use common::{dbl, int, join_methods, s_descending, table, NULL};

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
fn the_sweep_reads_the_join_row_directly() {
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
    assert!(
        lines[1].starts_with("HashJoin[Left] on 1 key(s) range-ordered on __p1"),
        "{explain}"
    );
    assert!(lines[2].starts_with("Distinct"), "{explain}");
    assert!(!explain.contains("Sort"), "{explain}");
}

// ---- every join method, on the inputs the sweep must get right --------

/// `N_b(r; s)` planned under `config`, after checking that `join` feeds
/// the sweep directly and joins `DISTINCT r`.
fn run_under(
    join: &str,
    config: PlannerConfig,
    r: &Relation,
    s: &Relation,
    b: &[(usize, usize)],
) -> Relation {
    let plan = normalize_plan(
        LogicalPlan::inline_scan(r.clone()),
        LogicalPlan::inline_scan(s.clone()),
        b,
    )
    .unwrap();
    let physical = Planner::new(config).plan(&plan, &Catalog::new()).unwrap();
    let explain = physical.explain();
    let lines: Vec<&str> = explain.lines().map(str::trim_start).collect();
    assert!(lines[0].starts_with("TemporalNormalizer"), "{explain}");
    assert!(lines[1].starts_with(join), "{join}:\n{explain}");
    assert!(explain.contains("Distinct"), "{join}:\n{explain}");
    physical.collect(&ExecutionState::new(config)).unwrap()
}

/// The reference's view of a table: first occurrences only (N(r) is
/// N(DISTINCT r)), a NULL bound replaced by one outside every `r`
/// interval (it splits nothing, as the NULL never passes the join), and
/// an integral `Double` key by the `Int` the engine's `=` equates it with.
fn reference_input(rel: &Relation, dedup: bool) -> TemporalRelation {
    let (ts, te) = (rel.schema().len() - 2, rel.schema().len() - 1);
    let mut rows: Vec<Row> = Vec::new();
    for row in rel.rows() {
        if dedup && rows.contains(row) {
            continue;
        }
        let mut vals = row.to_vec();
        for (i, v) in vals.iter_mut().enumerate() {
            match v {
                Value::Null if i == ts => *v = int(-1_000),
                Value::Null if i == te => *v = int(1_000),
                Value::Double(d) if d.fract() == 0.0 => *v = int(*d as i64),
                _ => {}
            }
        }
        rows.push(Row::new(vals));
    }
    TemporalRelation::new(Relation::new(rel.schema().clone(), rows).unwrap()).unwrap()
}

/// Under every join method, `N_b(r; s)` equals the reference on the
/// distinct `r` tuples — as a bag, so a second copy of a piece fails.
fn check_every_join(label: &str, r: &Relation, s: &Relation, b: &[(usize, usize)]) {
    let want = normalize_ref(&reference_input(r, true), &reference_input(s, false), b)
        .unwrap()
        .into_rel()
        .sorted();
    for (join, config) in join_methods(!b.is_empty()) {
        let got = run_under(join, config, r, s, b).sorted();
        assert_eq!(
            got.rows(),
            want.rows(),
            "{label}, N_{b:?} under {join}:\ngot:\n{got}\nwant:\n{want}"
        );
    }
}

/// Under every join method, the temporal projection `π_B(r)` by its
/// reduction — `DISTINCT π_B(N_B(r; r))` — equals the snapshot oracle's.
fn check_oracle_projection(label: &str, r: &Relation, b: &[usize]) {
    let pairs: Vec<(usize, usize)> = b.iter().map(|&i| (i, i)).collect();
    let temporal = TemporalRelation::new(r.clone()).unwrap();
    let op = TemporalOp::Projection { attrs: b.to_vec() };
    let want = evaluate_oracle(&op, &[&temporal]).unwrap();
    let width = r.schema().len();
    let keep: Vec<usize> = b.iter().copied().chain([width - 2, width - 1]).collect();
    for (join, config) in join_methods(!b.is_empty()) {
        let normalized = run_under(join, config, r, r, &pairs);
        let projected = Relation::new(
            Schema::new(keep.iter().map(|&c| r.schema().col(c).clone()).collect()),
            normalized
                .rows()
                .iter()
                .map(|row| Row::new(keep.iter().map(|&c| row[c].clone()).collect()))
                .collect(),
        )
        .unwrap();
        let got = TemporalRelation::new(projected).unwrap();
        assert!(
            got.same_set(&want),
            "{label}, π_{b:?} under {join}:\ngot:\n{got}\nwant:\n{want}"
        );
    }
}

#[test]
fn bag_duplicates_adjacent_and_far_apart_under_every_join() {
    let r = table(
        "r",
        &["k", "w"],
        vec![
            vec![int(1), int(10), int(0), int(20)],
            vec![int(1), int(10), int(0), int(20)],
            vec![int(2), int(20), int(3), int(25)],
            vec![int(1), int(11), int(1), int(16)],
            vec![int(2), int(21), int(6), int(12)],
            vec![int(2), int(20), int(3), int(25)],
        ],
    );
    check_every_join("duplicates", &r, &s_descending(), &[(0, 0)]);
    check_every_join("duplicates", &r, &s_descending(), &[]);
    check_oracle_projection("duplicates", &r, &[0]);
    check_oracle_projection("duplicates", &r, &[]);
}

#[test]
fn null_data_columns_under_every_join() {
    // NULL = NULL for DISTINCT, so the far copies collapse; a NULL key
    // never joins, so that tuple keeps its whole interval.
    let r = table(
        "r",
        &["k", "w"],
        vec![
            vec![int(1), NULL, int(0), int(20)],
            vec![NULL, int(5), int(0), int(20)],
            vec![int(2), NULL, int(3), int(25)],
            vec![int(1), NULL, int(0), int(20)],
            vec![NULL, int(5), int(0), int(20)],
        ],
    );
    check_every_join("NULL data", &r, &s_descending(), &[(0, 0)]);
    check_every_join("NULL data", &r, &s_descending(), &[]);
    // Not π over a column holding NULL: the oracle groups NULL with NULL,
    // where the normalization join's `=` does not.
    check_oracle_projection("NULL data", &r, &[]);
}

#[test]
fn tuples_without_a_split_point_under_every_join() {
    // ω: key 7 matches no s tuple, and [40, 50) holds no s end point, so
    // each such tuple's one join row carries a NULL split point.
    let r = table(
        "r",
        &["k"],
        vec![
            vec![int(7), int(0), int(20)],
            vec![int(1), int(40), int(50)],
            vec![int(1), int(0), int(20)],
            vec![int(7), int(0), int(20)],
            vec![int(1), int(40), int(50)],
        ],
    );
    check_every_join("ω", &r, &s_descending(), &[(0, 0)]);
    check_every_join("ω", &r, &s_descending(), &[]);
    check_oracle_projection("ω", &r, &[0]);
    check_oracle_projection("ω", &r, &[]);
}

#[test]
fn int_keys_equal_to_double_keys_under_every_join() {
    // `1 = 1.0` joins: the endpoints of the Int and the Double group are
    // both r's split points, each group ascending on its own.
    let s = table(
        "s",
        &["k"],
        vec![
            vec![dbl(1.0), int(14), int(16)],
            vec![int(1), int(11), int(13)],
            vec![dbl(1.0), int(5), int(8)],
            vec![int(1), int(2), int(4)],
            vec![dbl(1.5), int(6), int(9)],
            vec![dbl(2.0), int(7), int(30)],
        ],
    );
    let r = table(
        "r",
        &["k"],
        vec![
            vec![int(1), int(0), int(20)],
            vec![int(2), int(0), int(10)],
            vec![int(1), int(0), int(20)],
            vec![int(3), int(1), int(9)],
            vec![int(2), int(0), int(10)],
        ],
    );
    check_every_join("Int = Double", &r, &s, &[(0, 0)]);
    check_every_join("Int = Double", &r, &s, &[]);
}

#[test]
fn an_s_row_with_a_null_bound_under_every_join() {
    // A NULL bound is no split point; the row's other bound still is, and
    // the NULL leaves the hash join's buckets in build order.
    let s = table(
        "s",
        &["k"],
        vec![
            vec![int(1), int(15), NULL],
            vec![int(1), int(12), int(14)],
            vec![int(1), NULL, int(7)],
            vec![int(1), int(3), int(5)],
            vec![int(2), NULL, NULL],
        ],
    );
    let r = table(
        "r",
        &["k"],
        vec![
            vec![int(1), int(0), int(20)],
            vec![int(2), int(0), int(20)],
            vec![int(1), int(4), int(13)],
            vec![int(1), int(0), int(20)],
        ],
    );
    check_every_join("NULL bound", &r, &s, &[(0, 0)]);
    check_every_join("NULL bound", &r, &s, &[]);
}
