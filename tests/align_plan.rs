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
//!
//! The last tests write the paper's reduction of a self outer join out in
//! SQL (the `outer_join` workload's O3): its two alignments are one
//! computation, which the planner evaluates once behind a spool, and
//! each alignment join cuts its range-ordered buckets from both ends.
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::reference::evaluate_oracle;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::prelude::*;
use temporal_alignment::sql::{Session, SqlOutput};
use temporal_datasets::{drand, incumben, IncumbenSpec};

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

/// `inc ⟗ᵀ_{pcn} inc` by its reduction, as the `outer_join` workload
/// writes it: two alignments of `inc` with itself (one computation), a
/// full outer join on equal intervals, and α.
const O3: &str = "SELECT ABSORB x.ssn, x.pcn, y.ssn, y.pcn, coalesce(x.ts, y.ts) ts, \
                  coalesce(x.te, y.te) te \
                  FROM (inc r1 ALIGN inc r2 ON r1.pcn = r2.pcn) x \
                  FULL OUTER JOIN (inc r2 ALIGN inc r1 ON r2.pcn = r1.pcn) y \
                  ON x.pcn = y.pcn AND x.ts = y.ts AND x.te = y.te";

fn inc_session(rows: usize) -> (Session, TemporalRelation) {
    let inc = incumben(IncumbenSpec::scaled(rows));
    let mut session = Session::new();
    session.register("inc", &inc).unwrap();
    (session, inc)
}

fn explain(session: &mut Session, sql: &str) -> String {
    match session.execute(sql).unwrap() {
        SqlOutput::Explain(text) => text,
        other => panic!("{sql}: expected a plan, got {other:?}"),
    }
}

#[test]
fn a_self_outer_join_aligns_once_and_matches_the_oracle_under_every_join() {
    let (mut session, inc) = inc_session(200);
    let theta = Some(col(1).eq(col(5)));
    let want = evaluate_oracle(&TemporalOp::FullOuterJoin { theta }, &[&inc, &inc]).unwrap();
    for (join, config) in join_methods(true) {
        for (name, on) in [
            ("enable_hashjoin", config.enable_hashjoin),
            ("enable_mergejoin", config.enable_mergejoin),
            ("enable_nestloop", config.enable_nestloop),
        ] {
            session.execute(&format!("SET {name} = {on}")).unwrap();
        }
        let got = session.query_temporal(O3).unwrap();
        assert!(got.same_set(&want), "{join}:\ngot:\n{got}\nwant:\n{want}");
        // One spool feeds both sides of the full join: the alignment is
        // planned (and printed) once.
        let plan = explain(&mut session, &format!("EXPLAIN {O3}"));
        let lines: Vec<&str> = plan.lines().map(str::trim_start).collect();
        assert_eq!(
            plan.matches("TemporalAligner").count(),
            1,
            "{join}:\n{plan}"
        );
        let full = lines
            .iter()
            .position(|l| l.contains("[Full]"))
            .unwrap_or_else(|| panic!("{join}: no full join in\n{plan}"));
        assert_eq!(
            plan.matches("Spool (shared materialization)").count(),
            1,
            "{plan}"
        );
        assert_eq!(
            plan.matches("Spool (shared, input printed once)").count(),
            1,
            "{plan}"
        );
        assert!(
            lines[full..]
                .iter()
                .filter(|l| l.starts_with("Spool"))
                .count()
                == 2,
            "{join}: both sides of the full join read the spool:\n{plan}"
        );
    }
}

#[test]
fn subplans_that_differ_are_not_shared() {
    let (mut session, inc) = inc_session(60);
    session.register("inc2", &inc).unwrap();
    let outer = |x: &str, y: &str| {
        format!(
            "EXPLAIN SELECT * FROM {x} x FULL OUTER JOIN {y} y \
             ON x.pcn = y.pcn AND x.ts = y.ts AND x.te = y.te"
        )
    };
    let align = |t: &str, on: &str| format!("({t} a ALIGN {t} b ON {on})");
    let join = |kind: &str| {
        format!(
            "(SELECT a.ssn, a.pcn, a.ts, a.te FROM inc a {kind} JOIN inc b \
             ON a.pcn = b.pcn AND a.ts < b.ts)"
        )
    };
    let same = align("inc", "a.pcn = b.pcn");
    assert!(explain(&mut session, &outer(&same, &same)).contains("Spool"));
    for (what, x, y) in [
        ("two tables", same.clone(), align("inc2", "a.pcn = b.pcn")),
        (
            "θ on pcn, θ on ssn",
            same.clone(),
            align("inc", "a.ssn = b.ssn"),
        ),
        (
            "a differing literal",
            align("inc", "a.pcn = b.pcn AND a.ssn > 3"),
            align("inc", "a.pcn = b.pcn AND a.ssn > 4"),
        ),
        ("a differing join type", join("INNER"), join("LEFT")),
    ] {
        let plan = explain(&mut session, &outer(&x, &y));
        // Both alignments (or joins) run; only a subplan they do repeat —
        // `DISTINCT inc` under two alignments of `inc` — may be shared.
        let (aligners, joins) = (
            plan.matches("TemporalAligner").count(),
            plan.matches("Join[").count(),
        );
        match what {
            "a differing join type" => assert_eq!((aligners, joins), (0, 3), "{what}:\n{plan}"),
            _ => assert_eq!((aligners, joins), (2, 3), "{what}:\n{plan}"),
        }
        if matches!(what, "two tables" | "a differing join type") {
            assert!(!plan.contains("Spool"), "{what}:\n{plan}");
        }
    }
}

#[test]
fn an_o3_alignment_join_tests_few_candidates() {
    // At n = 4 000 each alignment join emits ≈ 18 500 rows; with buckets
    // cut at one end only it tested ≈ 124 000 candidates.
    let (mut session, _) = inc_session(4_000);
    let plan = explain(&mut session, &format!("EXPLAIN ANALYZE {O3}"));
    let lines: Vec<&str> = plan.lines().map(str::trim_start).collect();
    let aligner = lines
        .iter()
        .position(|l| l.starts_with("TemporalAligner"))
        .unwrap_or_else(|| panic!("no aligner in\n{plan}"));
    let join = lines[aligner + 2];
    assert!(join.starts_with("HashJoin[Left]"), "{plan}");
    let candidates: u64 = join
        .split("candidates=")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no candidates in {join}"));
    assert!(candidates <= 40_000, "{candidates} candidates:\n{plan}");
}
