//! `align_plan` and `antijoin_gaps_plan` are DISTINCT r → join →
//! Project(P1, P2) → sweep, with no sort: every join method emits a left
//! row's matches together, and the sweep sorts and deduplicates each
//! group's intersections itself. These tests pin that plan shape and
//! check alignment against `align_ref`, and the gaps-only anti join
//! against Def. 10's gaps and the snapshot oracle, under every join
//! method, on the inputs that need the DISTINCT and the sweep's own
//! ordering: bag-duplicate `r` tuples, value-equivalent overlapping `r`
//! tuples, `s` tuples with the same intersection, tuples without a match
//! (ω), NULL data and `Int = Double` keys.
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::reference::evaluate_oracle;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::prelude::*;
use temporal_datasets::drand;

mod common;

use common::{dbl, int, join_methods, s_descending, table, NULL};

/// θ over `r ++ s`: `r.k = s.k` on the first data columns, or none.
fn theta(keyed: bool, r: &Relation) -> Option<Expr> {
    keyed.then(|| col(0).eq(col(r.schema().len())))
}

/// `r Φ_θ s` (`gaps = false`) or `r ▷ᵀ_θ s` by the gaps-only sweep,
/// planned under `config`, after checking the plan's shape: the sweep over
/// a `Project` over `join` — no `Sort` between them — and `Distinct` under
/// the join (the merge join sorts its own inputs).
fn run_under(
    join: &str,
    config: PlannerConfig,
    r: &Relation,
    s: &Relation,
    keyed: bool,
    gaps: bool,
) -> Relation {
    let (r_plan, s_plan) = (
        LogicalPlan::inline_scan(r.clone()),
        LogicalPlan::inline_scan(s.clone()),
    );
    let (plan, sweep) = if gaps {
        let plan = antijoin_gaps_plan(r_plan, s_plan, theta(keyed, r));
        (plan.unwrap(), "TemporalAntiAligner")
    } else {
        (
            align_plan(r_plan, s_plan, theta(keyed, r)).unwrap(),
            "TemporalAligner",
        )
    };
    let physical = Planner::new(config).plan(&plan, &Catalog::new()).unwrap();
    let explain = physical.explain();
    let lines: Vec<&str> = explain.lines().map(str::trim_start).collect();
    assert!(lines[0].starts_with(sweep), "{explain}");
    assert!(lines[1].starts_with("Project"), "{join}:\n{explain}");
    assert!(lines[2].starts_with(join), "{join}:\n{explain}");
    assert!(explain.contains("Distinct"), "{join}:\n{explain}");
    physical.collect(&ExecutionState::new(config)).unwrap()
}

/// `rel` as a temporal relation with its first occurrences only: the
/// adjustment of `r` is the adjustment of `DISTINCT r`.
fn distinct(rel: &Relation) -> TemporalRelation {
    let mut rows: Vec<Row> = Vec::new();
    for row in rel.rows() {
        if !rows.contains(row) {
            rows.push(row.clone());
        }
    }
    TemporalRelation::new(Relation::new(rel.schema().clone(), rows).unwrap()).unwrap()
}

/// The gaps of Def. 10 alone: each `r` tuple's maximal sub-intervals
/// that no `s` tuple satisfying θ covers.
fn gaps_ref(r: &TemporalRelation, s: &TemporalRelation, theta: &Theta) -> TemporalRelation {
    let mut out = Vec::new();
    for r_row in r.rows() {
        let group: Vec<Interval> = s
            .rows()
            .iter()
            .filter(|s_row| theta.eval(r_row, s_row).unwrap())
            .map(|s_row| s.interval_of(s_row))
            .collect();
        for gap in r.interval_of(r_row).subtract_all(&group) {
            out.push((r.data_of(r_row).to_vec(), gap));
        }
    }
    TemporalRelation::from_rows(r.data_schema(), out).unwrap()
}

/// Under every join method, keyed and not, on the distinct `r` tuples:
/// `r Φ_θ s` equals `align_ref` and the gaps-only sweep equals Def. 10's
/// gaps, both as bags, so a second copy of a piece fails; and the gaps are
/// snapshot equivalent to the oracle's `r ▷ᵀ_θ s` (which is a set at each
/// time point, where value-equivalent `r` tuples each keep their gaps).
fn check_every_join(label: &str, r: &Relation, s: &Relation) {
    let (r_ref, s_ref) = (distinct(r), TemporalRelation::new(s.clone()).unwrap());
    for keyed in [true, false] {
        let theta = theta(keyed, r);
        let ref_theta = Theta::from_option(theta.clone());
        let aligned = align_ref(&r_ref, &s_ref, &ref_theta).unwrap();
        let gaps = gaps_ref(&r_ref, &s_ref, &ref_theta);
        let oracle = evaluate_oracle(&TemporalOp::AntiJoin { theta }, &[&r_ref, &s_ref]).unwrap();
        assert!(
            snapshot_equivalent(&gaps, &oracle).unwrap(),
            "{label}: {gaps}\n{oracle}"
        );
        for (join, config) in join_methods(keyed) {
            for (gaps_only, want) in [(false, &aligned), (true, &gaps)] {
                let got = run_under(join, config, r, s, keyed, gaps_only).sorted();
                let want = want.rel().sorted();
                assert_eq!(
                    got.rows(),
                    want.rows(),
                    "{label}, keyed={keyed}, gaps only={gaps_only}, under {join}:\n\
                     got:\n{got}\nwant:\n{want}"
                );
            }
        }
    }
}

#[test]
fn the_sweep_reads_the_projected_join_rows_unsorted() {
    let (r, s) = drand(30, 7);
    for (plan, sweep) in [
        (
            align_plan(
                LogicalPlan::inline_scan(r.rel().clone()),
                LogicalPlan::inline_scan(s.rel().clone()),
                Some(col(0).eq(col(3))),
            ),
            "TemporalAligner",
        ),
        (
            antijoin_gaps_plan(
                LogicalPlan::inline_scan(r.rel().clone()),
                LogicalPlan::inline_scan(s.rel().clone()),
                Some(col(0).eq(col(3))),
            ),
            "TemporalAntiAligner",
        ),
    ] {
        let explain = Planner::default()
            .plan(&plan.unwrap(), &Catalog::new())
            .unwrap()
            .explain();
        let lines: Vec<&str> = explain.lines().map(str::trim_start).collect();
        assert!(lines[0].starts_with(sweep), "{explain}");
        assert!(lines[1].starts_with("Project"), "{explain}");
        assert!(lines[2].starts_with("HashJoin[Left]"), "{explain}");
        assert!(lines[3].starts_with("Distinct"), "{explain}");
        assert!(!explain.contains("Sort"), "{explain}");
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
    check_every_join("duplicates", &r, &s_descending());
}

#[test]
fn value_equivalent_overlapping_tuples_under_every_join() {
    // Equal data, overlapping intervals: each tuple is aligned on its own,
    // though its intersections repeat the previous tuple's outputs.
    let r = table(
        "r",
        &["k"],
        vec![
            vec![int(1), int(0), int(10)],
            vec![int(1), int(5), int(20)],
            vec![int(1), int(2), int(14)],
            vec![int(2), int(4), int(12)],
            vec![int(2), int(0), int(12)],
        ],
    );
    let s = table(
        "s",
        &["k"],
        vec![
            vec![int(1), int(12), int(20)],
            vec![int(1), int(5), int(10)],
            vec![int(2), int(6), int(8)],
        ],
    );
    check_every_join("value-equivalent", &r, &s);
}

#[test]
fn s_tuples_with_the_same_intersection_under_every_join() {
    // Def. 10's intersections are a set: [5, 15) is each s tuple's
    // intersection with r's first tuple, and is emitted once.
    let r = table(
        "r",
        &["k"],
        vec![vec![int(1), int(5), int(15)], vec![int(1), int(0), int(9)]],
    );
    let s = table(
        "s",
        &["k"],
        vec![
            vec![int(1), int(0), int(30)],
            vec![int(1), int(3), int(15)],
            vec![int(1), int(5), int(40)],
            vec![int(1), int(2), int(4)],
            vec![int(1), int(2), int(4)],
        ],
    );
    check_every_join("same intersection", &r, &s);
}

#[test]
fn tuples_without_a_match_under_every_join() {
    // ω: key 7 matches no s tuple, and [40, 50) overlaps none, so each such
    // tuple's one join row carries NULL intersections.
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
    check_every_join("ω", &r, &s_descending());
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
    check_every_join("NULL data", &r, &s_descending());
}

#[test]
fn int_keys_equal_to_double_keys_under_every_join() {
    // `1 = 1.0` joins: the intersections of the Int and the Double s
    // tuples both adjust r's key-1 tuples.
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
    check_every_join("Int = Double", &r, &s);
}
