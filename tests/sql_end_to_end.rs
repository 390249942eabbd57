//! End-to-end SQL tests: the SQL pipeline (lex → parse → analyze → plan →
//! execute) must agree with the direct algebra API, and the planner
//! switches must steer the group-construction join (Fig. 13's mechanism).

mod common;

use common::{paper_p, paper_r, random_trel};
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::reference::evaluate_oracle;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::prelude::*;
use temporal_alignment::sql::Session;

#[test]
fn sql_align_agrees_with_algebra_align() {
    let r = random_trel(5, 10, 3, 20);
    let s = random_trel(6, 10, 3, 20);
    let mut session = Session::new();
    session.register("r", &r).unwrap();
    session.register("s", &s).unwrap();

    let sql_out = session
        .query_temporal("SELECT * FROM (r ALIGN s ON r.k = s.k) x")
        .unwrap();
    let api_out = TemporalPlan::scan(&r)
        .align(TemporalPlan::scan(&s), Some(col(0).eq(col(3))))
        .unwrap()
        .execute(&Planner::default())
        .unwrap();
    assert!(
        sql_out.same_set(&api_out),
        "sql:\n{sql_out}\napi:\n{api_out}"
    );
}

#[test]
fn sql_normalize_agrees_with_algebra_normalize() {
    let r = random_trel(7, 10, 3, 20);
    let s = random_trel(8, 10, 3, 20);
    let mut session = Session::new();
    session.register("r", &r).unwrap();
    session.register("s", &s).unwrap();

    let sql_out = session
        .query_temporal("SELECT * FROM (r NORMALIZE s USING(k)) x")
        .unwrap();
    let api_out = TemporalPlan::scan(&r)
        .normalize(TemporalPlan::scan(&s), &[(0, 0)])
        .unwrap()
        .execute(&Planner::default())
        .unwrap();
    assert!(sql_out.same_set(&api_out));
}

#[test]
fn full_reduction_rule_via_sql_matches_algebra_join() {
    // Hand-write the inner-join reduction rule in SQL (Table 2) and
    // compare with the algebra's temporal join.
    let r = random_trel(9, 8, 2, 16);
    let s = random_trel(10, 8, 2, 16);
    let mut session = Session::new();
    session.register("r", &r).unwrap();
    session.register("s", &s).unwrap();

    let sql_out = session
        .query_temporal(
            "SELECT ABSORB x.k, y.k, x.ts, x.te \
             FROM (r ALIGN s ON r.k = s.k) x \
             JOIN (s ALIGN r ON s.k = r.k) y \
             ON x.k = y.k AND x.ts = y.ts AND x.te = y.te",
        )
        .unwrap();
    let api_out = TemporalOp::Join {
        theta: Some(col(0).eq(col(3))),
    }
    .evaluate(&Planner::default(), &[&r, &s])
    .unwrap();
    assert!(
        sql_out.same_set(&api_out),
        "sql:\n{sql_out}\napi:\n{api_out}"
    );
}

#[test]
fn planner_switches_steer_the_group_construction_join() {
    // The paper's Fig. 13 workflow through SQL: normalization's internal
    // left outer join follows the enabled join methods.
    let r = random_trel(11, 40, 6, 60);
    let mut session = Session::new();
    session.register("r", &r).unwrap();

    let q = "SELECT * FROM (r r1 NORMALIZE r r2 USING(k)) x";

    let all = session.explain(q).unwrap();
    assert!(
        all.contains("HashJoin[Left]") || all.contains("MergeJoin[Left]"),
        "all-enabled plan should use a keyed join:\n{all}"
    );

    session.execute("SET enable_hashjoin = off").unwrap();
    session.execute("SET enable_mergejoin = off").unwrap();
    let nl = session.explain(q).unwrap();
    assert!(
        nl.contains("NestedLoopJoin[Left]"),
        "nestloop-only plan:\n{nl}"
    );

    // Results identical either way.
    session.execute("SET enable_hashjoin = on").unwrap();
    session.execute("SET enable_mergejoin = on").unwrap();
    let fast = session.query(q).unwrap();
    session.execute("SET enable_hashjoin = off").unwrap();
    session.execute("SET enable_mergejoin = off").unwrap();
    let slow = session.query(q).unwrap();
    assert!(fast.same_set(&slow));
}

#[test]
fn snodgrass_not_exists_formulation_runs_via_sql() {
    // The core of the `sql` baseline expressed in actual SQL: maximal
    // uncovered candidate gaps validated with NOT EXISTS.
    let r = paper_r();
    let p = paper_p();
    let mut session = Session::new();
    session.register("r", &r).unwrap();
    session.register("p", &p).unwrap();

    // For each reservation: does any price period cover its whole span?
    let out = session
        .query(
            "SELECT n FROM r WHERE NOT EXISTS \
             (SELECT * FROM p WHERE p.ts <= r.ts AND r.te <= p.te)",
        )
        .unwrap();
    // Only s3 spans the whole year, and it covers every reservation.
    assert_eq!(out.len(), 0, "{out}");

    let out = session
        .query(
            "SELECT n FROM r WHERE NOT EXISTS \
             (SELECT * FROM p WHERE p.a = 40 AND p.ts <= r.ts AND r.te <= p.te)",
        )
        .unwrap();
    // The 40-price periods cover [1,6) and [10,13): r1 [1,8), r3 [8,12)
    // are not fully covered; r2 [2,6) is.
    assert_eq!(out.len(), 2, "{out}");
}

#[test]
fn group_by_aggregates_with_arithmetic() {
    let r = random_trel(13, 12, 3, 20);
    let mut session = Session::new();
    session.register("r", &r).unwrap();
    let out = session
        .query(
            "SELECT k, count(*) c, max(te) - min(ts) span \
             FROM r GROUP BY k ORDER BY k",
        )
        .unwrap();
    assert_eq!(out.schema().names(), vec!["k", "c", "span"]);
    // Cross-check one group against the algebra.
    for row in out.rows() {
        let k = row[0].as_int().unwrap();
        let expected = r.iter().filter(|(d, _)| d[0] == Value::Int(k)).count() as i64;
        assert_eq!(row[1], Value::Int(expected));
    }
}

#[test]
fn explain_renders_temporal_nodes() {
    let r = paper_r();
    let mut session = Session::new();
    session.register("r", &r).unwrap();
    let plan = session
        .explain("SELECT * FROM (r r1 ALIGN r r2 ON r1.n = r2.n) x")
        .unwrap();
    assert!(plan.contains("TemporalAligner"), "{plan}");
    let plan = session
        .explain("SELECT * FROM (r r1 NORMALIZE r r2 USING()) x")
        .unwrap();
    assert!(plan.contains("TemporalNormalizer"), "{plan}");
}

#[test]
fn right_and_full_outer_joins_via_sql() {
    let r = random_trel(51, 8, 3, 16);
    let s = random_trel(52, 8, 3, 16);
    let mut session = Session::new();
    session.register("r", &r).unwrap();
    session.register("s", &s).unwrap();

    // Right outer join of aligned relations per Table 2.
    let sql_out = session
        .query_temporal(
            "SELECT ABSORB x.k, y.k, coalesce(x.ts, y.ts) ts, coalesce(x.te, y.te) te \
             FROM (r ALIGN s ON r.k = s.k) x \
             RIGHT OUTER JOIN (s ALIGN r ON s.k = r.k) y \
             ON x.k = y.k AND x.ts = y.ts AND x.te = y.te",
        )
        .unwrap();
    let planner = Planner::default();
    let theta = Some(col(0).eq(col(3)));
    let api_out = TemporalOp::RightOuterJoin {
        theta: theta.clone(),
    }
    .evaluate(&planner, &[&r, &s])
    .unwrap();
    assert!(
        sql_out.same_set(&api_out),
        "sql:\n{sql_out}\napi:\n{api_out}"
    );

    let sql_out = session
        .query_temporal(
            "SELECT ABSORB x.k, y.k, coalesce(x.ts, y.ts) ts, coalesce(x.te, y.te) te \
             FROM (r ALIGN s ON r.k = s.k) x \
             FULL OUTER JOIN (s ALIGN r ON s.k = r.k) y \
             ON x.k = y.k AND x.ts = y.ts AND x.te = y.te",
        )
        .unwrap();
    let api_out = TemporalOp::FullOuterJoin { theta }
        .evaluate(&planner, &[&r, &s])
        .unwrap();
    assert!(
        sql_out.same_set(&api_out),
        "sql:\n{sql_out}\napi:\n{api_out}"
    );
}

/// `r ⟕ᵀ s` by its reduction, where two value-equivalent `r` tuples
/// overlap: at t = 7 both match `s`'s 7, and the second tuple's
/// intersection `[5, 10)` (the first one's, repeated) must not hide its gap
/// `[10, 12)` — once returned as `(1, ω, [5, 12))`.
#[test]
fn left_outer_join_of_value_equivalent_tuples_matches_the_oracle() {
    let r = TemporalRelation::from_rows(
        Schema::new(vec![Column::qualified("r", "k", DataType::Int)]),
        vec![
            (vec![Value::Int(1)], Interval::of(0, 10)),
            (vec![Value::Int(1)], Interval::of(5, 20)),
        ],
    )
    .unwrap();
    let s = TemporalRelation::from_rows(
        Schema::new(vec![Column::qualified("s", "k", DataType::Int)]),
        vec![
            (vec![Value::Int(7)], Interval::of(5, 10)),
            (vec![Value::Int(8)], Interval::of(12, 20)),
        ],
    )
    .unwrap();
    let want = evaluate_oracle(&TemporalOp::LeftOuterJoin { theta: None }, &[&r, &s]).unwrap();
    let mut session = Session::new();
    session.register("r", &r).unwrap();
    session.register("s", &s).unwrap();
    for (hash, nestloop) in [(true, true), (true, false), (false, true)] {
        session
            .execute(&format!("SET enable_hashjoin = {hash}"))
            .unwrap();
        session
            .execute(&format!("SET enable_nestloop = {nestloop}"))
            .unwrap();
        let got = session
            .query_temporal(
                "SELECT ABSORB x.k, y.k, x.ts, x.te \
                 FROM (r ALIGN s ON true) x \
                 LEFT OUTER JOIN (s ALIGN r ON true) y ON x.ts = y.ts AND x.te = y.te",
            )
            .unwrap();
        assert!(
            got.same_set(&want),
            "hash={hash} nestloop={nestloop}:\ngot:\n{got}\nwant:\n{want}"
        );
    }
}

#[test]
fn from_subqueries_and_nested_ctes() {
    let r = random_trel(53, 10, 3, 18);
    let mut session = Session::new();
    session.register("r", &r).unwrap();

    // Subquery in FROM with aggregation on top.
    let out = session
        .query(
            "SELECT q.k, count(*) c FROM \
             (SELECT k, ts, te FROM r WHERE te - ts >= 2) q \
             GROUP BY q.k ORDER BY q.k",
        )
        .unwrap();
    for row in out.rows() {
        let k = row[0].as_int().unwrap();
        let expected = r
            .iter()
            .filter(|(d, iv)| d[0] == Value::Int(k) && iv.duration() >= 2)
            .count() as i64;
        assert_eq!(row[1], Value::Int(expected));
    }

    // A CTE referencing an earlier CTE.
    let out = session
        .query(
            "WITH a AS (SELECT k, ts, te FROM r WHERE k > 0), \
                  b AS (SELECT k, ts, te FROM a WHERE te - ts >= 2) \
             SELECT count(*) c FROM b",
        )
        .unwrap();
    let expected = r
        .iter()
        .filter(|(d, iv)| d[0].as_int().unwrap() > 0 && iv.duration() >= 2)
        .count() as i64;
    assert_eq!(out.rows()[0][0], Value::Int(expected));
}

#[test]
fn sql_normalize_empty_using_matches_fig3_semantics() {
    // N_{}(R; R) through SQL on the paper's reservations.
    let r = paper_r();
    let mut session = Session::new();
    session.register("r", &r).unwrap();
    let out = session
        .query_temporal("SELECT * FROM (r r1 NORMALIZE r r2 USING()) x")
        .unwrap();
    let api = TemporalPlan::scan(&r)
        .normalize(TemporalPlan::scan(&r), &[] as &[(usize, usize)])
        .unwrap()
        .execute(&Planner::default())
        .unwrap();
    assert!(out.same_set(&api));
    assert_eq!(out.len(), 5); // Fig. 3
}

#[test]
fn distinct_and_absorb_quantifiers_differ() {
    // DISTINCT removes exact duplicates only; ABSORB also removes covered
    // value-equivalent tuples.
    let rel = Relation::from_values(
        temporal_core::trel::temporal_schema(vec![Column::new("k", DataType::Int)]),
        vec![
            vec![Value::Int(1), Value::Int(0), Value::Int(9)],
            vec![Value::Int(1), Value::Int(2), Value::Int(5)], // covered
            vec![Value::Int(2), Value::Int(2), Value::Int(5)],
        ],
    )
    .unwrap();
    let mut session = Session::new();
    session.register("t", rel).unwrap();
    let distinct = session.query("SELECT DISTINCT k, ts, te FROM t").unwrap();
    assert_eq!(distinct.len(), 3);
    let absorbed = session.query("SELECT ABSORB k, ts, te FROM t").unwrap();
    assert_eq!(absorbed.len(), 2);
}

#[test]
fn temporal_operators_reject_empty_and_inverted_intervals() {
    // Any table with two trailing Int columns is accepted (INSERT does not
    // validate intervals); the temporal operators do, in-band.
    let mut session = Session::new();
    session
        .execute("CREATE TABLE t (k int, ts int, te int)")
        .unwrap();
    session
        .execute("INSERT INTO t VALUES (1, 0, 5), (2, 9, 3), (3, 4, 4)")
        .unwrap();
    for (q, what) in [
        ("SELECT * FROM (t r1 ALIGN t r2 ON true) x", "adjustment"),
        (
            "SELECT * FROM (t r1 NORMALIZE t r2 USING()) x",
            "adjustment",
        ),
        ("SELECT ABSORB k, ts, te FROM t", "absorb"),
    ] {
        let err = session.query(q).unwrap_err().to_string();
        assert!(
            err.contains(&format!("{what}: empty interval [9, 3)")),
            "{q}: {err}"
        );
    }
    // An empty interval alone is rejected too.
    session
        .execute("CREATE TABLE e (k int, ts int, te int)")
        .unwrap();
    session.execute("INSERT INTO e VALUES (3, 4, 4)").unwrap();
    let err = session
        .query("SELECT * FROM (e r1 NORMALIZE e r2 USING()) x")
        .unwrap_err();
    assert!(err.to_string().contains("empty interval [4, 4)"), "{err}");
}

/// `INSERT` checks each value against its column's type before anything
/// is appended, as `COPY` does: NULL passes, an int widens into a double
/// column, and anything else is an in-band error naming the row and the
/// column that leaves the table unchanged — in memory and persisted.
#[test]
fn insert_checks_value_types_on_both_backings() {
    let dir = std::env::temp_dir().join(format!("talign_insert_types-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).unwrap();
    let mut session = Session::with_database(db.clone());
    for (t, backing) in [("m", ""), ("p", " PERSISTED")] {
        session
            .execute(&format!(
                "CREATE TABLE {t} (x int, y double, ts int, te int){backing}"
            ))
            .unwrap();
        session
            .execute(&format!(
                "INSERT INTO {t} VALUES (1, 2.5, 0, 5), (NULL, 3, 1, 6)"
            ))
            .unwrap();
        for (bad, column, got) in [
            ("('abc', 1.0, 0, 5)", "x", "got str abc"),
            ("(1, 1.0, 'z', 5)", "ts", "got str z"),
            ("(1, true, 0, 5)", "y", "got bool true"),
            ("(1.5, 1.0, 0, 5)", "x", "got double 1.5"),
        ] {
            // A good first row, then the bad one: neither is appended.
            let err = session
                .execute(&format!("INSERT INTO {t} VALUES (7, 7.0, 7, 8), {bad}"))
                .unwrap_err()
                .to_string();
            assert!(
                err.contains(&format!("row 1: column '{column}'")) && err.contains(got),
                "{t} {bad}: {err}"
            );
        }
        let rows: Vec<Vec<Value>> = session
            .query(&format!("SELECT x, y, ts, te FROM {t}"))
            .unwrap()
            .rows()
            .iter()
            .map(|r| r.to_vec())
            .collect();
        assert_eq!(
            rows,
            vec![
                vec![
                    Value::Int(1),
                    Value::Double(2.5),
                    Value::Int(0),
                    Value::Int(5)
                ],
                vec![
                    Value::Null,
                    Value::Double(3.0),
                    Value::Int(1),
                    Value::Int(6)
                ],
            ],
            "{t}"
        );
    }
    drop(session);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn int_double_equi_join_matches_under_every_join_method() {
    // `a.x = b.y` compares an int with a double numerically, so (1, 1.0)
    // joins; and 0 = -0.0 is false, as it is for θ evaluated row by row.
    let mut session = Session::new();
    for stmt in [
        "CREATE TABLE a (x int, ts int, te int)",
        "CREATE TABLE b (y double, ts int, te int)",
        "INSERT INTO a VALUES (1, 0, 5), (2, 0, 5), (0, 3, 4)",
        "INSERT INTO b VALUES (1.0, 0, 5), (-0.0, 1, 2)",
    ] {
        session.execute(stmt).unwrap();
    }
    let q = "SELECT a.x, b.y FROM a JOIN b ON a.x = b.y";
    for (method, on) in [
        ("NestedLoopJoin", "enable_nestloop"),
        ("HashJoin", "enable_hashjoin"),
        ("MergeJoin", "enable_mergejoin"),
    ] {
        for knob in ["enable_nestloop", "enable_hashjoin", "enable_mergejoin"] {
            let value = if knob == on { "on" } else { "off" };
            session.execute(&format!("SET {knob} = {value}")).unwrap();
        }
        let plan = session.explain(q).unwrap();
        assert!(plan.contains(method), "{method} expected:\n{plan}");
        let rows: Vec<Vec<Value>> = session
            .query(q)
            .unwrap()
            .rows()
            .iter()
            .map(|r| r.to_vec())
            .collect();
        assert_eq!(
            rows,
            vec![vec![Value::Int(1), Value::Double(1.0)]],
            "{method}"
        );
    }
}

/// `SET trace = on` is result-transparent on this file's paper queries:
/// a scoped session returns identical rows, in identical order, with
/// tracing on and off, and the tracer records spans only while it is on.
#[test]
fn trace_on_and_off_return_identical_rows() {
    let db = Database::default();
    let mut session = Session::scoped(db.clone());
    session.register("r", &random_trel(5, 10, 3, 20)).unwrap();
    session.register("s", &random_trel(6, 10, 3, 20)).unwrap();
    session.register("res", &paper_r()).unwrap();
    session.register("price", &paper_p()).unwrap();
    let queries = [
        "SELECT * FROM (r ALIGN s ON r.k = s.k) x",
        "SELECT * FROM (r NORMALIZE s USING(k)) x",
        "SELECT ABSORB x.k, y.k, x.ts, x.te \
         FROM (r ALIGN s ON r.k = s.k) x \
         JOIN (s ALIGN r ON s.k = r.k) y \
         ON x.k = y.k AND x.ts = y.ts AND x.te = y.te",
        "SELECT ABSORB x.k, y.k, coalesce(x.ts, y.ts) ts, coalesce(x.te, y.te) te \
         FROM (r ALIGN s ON r.k = s.k) x \
         FULL OUTER JOIN (s ALIGN r ON s.k = r.k) y \
         ON x.k = y.k AND x.ts = y.ts AND x.te = y.te",
        "SELECT k, count(*) c, max(te) - min(ts) span FROM r GROUP BY k ORDER BY k",
        "WITH a AS (SELECT k, ts, te FROM r WHERE k > 0) \
         SELECT count(*) c FROM a WHERE te - ts >= 2",
        "SELECT n FROM res WHERE NOT EXISTS \
         (SELECT * FROM price WHERE price.a = 40 AND price.ts <= res.ts AND res.te <= price.te)",
        "SELECT * FROM (res r1 NORMALIZE res r2 USING()) x",
    ];
    for q in queries {
        session.execute("SET trace = off").unwrap();
        let plain = session.query(q).unwrap();
        assert!(db.tracer().is_empty(), "trace = off recorded spans: {q}");
        session.execute("SET trace = on").unwrap();
        let traced = session.query(q).unwrap();
        assert_eq!(plain.rows(), traced.rows(), "tracing changed the rows: {q}");
        let spans = db.tracer().spans();
        assert!(
            spans.iter().any(|sp| sp.cat == "query"),
            "no query span: {q}"
        );
        assert!(
            spans.iter().any(|sp| sp.cat == "operator"),
            "no operator spans: {q}"
        );
        db.tracer().clear();
    }
    // The overlay is the session's own: the shared planner never traced.
    assert!(!db.config().trace);
}
