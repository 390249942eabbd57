//! The name-based front door: `TemporalPlan`s over a `Database`'s tables
//! must agree with the point-wise `reference::oracle` and the primitives'
//! references; name resolution must fail helpfully (unknown / ambiguous /
//! qualified) at the builder step that names the column; and the Rust and
//! SQL surfaces must share one `Database` — same catalog, same planner,
//! same physical plan for equivalent queries.

mod common;

use common::{rel1, rel2};
use proptest::prelude::*;
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::reference::evaluate_oracle;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::prelude::*;
use temporal_alignment::sql::{DatabaseSqlExt, Session};
use temporal_datasets::{ddisj, deq, drand};

/// Run a chain through `TemporalOp::plan` over the tables `r` and `s` of a
/// database and assert it agrees with the oracle.
fn check_chain(chain: &[TemporalOp], r: &TemporalRelation, s: &TemporalRelation, label: &str) {
    let db = Database::new();
    db.register("r", r).unwrap();
    db.register("s", s).unwrap();
    let table = |name| TemporalPlan::table(&db, name).unwrap();
    let collected = common::compose_chain(chain, table("r"), table("s"), label)
        .run(&db)
        .unwrap_or_else(|e| panic!("{label}: run: {e}"));
    let oracle = common::oracle_chain(chain, r, s, label);
    assert!(
        collected.same_set(&oracle),
        "{label}: plan vs oracle mismatch.\nplan:\n{collected}\noracle:\n{oracle}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pipelines over the paper's synthetic datasets as tables: plan ≡
    /// oracle on Ddisj and Deq of random sizes.
    #[test]
    fn frame_pipelines_agree_on_ddisj_and_deq(n in 2usize..6) {
        for (name, (r, s)) in [("ddisj", ddisj(n)), ("deq", deq(n))] {
            for (i, chain) in common::differential_chains_1col().iter().enumerate() {
                check_chain(chain, &r, &s, &format!("{name}({n}) chain {i}"));
            }
        }
    }

    /// Pipelines on Drand (random intervals, asymmetric schemas).
    #[test]
    fn frame_pipelines_agree_on_drand(n in 2usize..6, seed in 0u64..1000) {
        let (r, s) = drand(n, seed);
        for (i, chain) in common::differential_chains_drand().iter().enumerate() {
            check_chain(chain, &r, &s, &format!("drand({n}, {seed}) chain {i}"));
        }
    }
}

// ---- acceptance: every operator of the algebra by name -----------------

/// Every operator of the sequenced algebra — each `TemporalOp`, the three
/// primitives and the customized anti join — is expressible over tables
/// with *name-based* expressions, and agrees with an independent
/// reference: the oracle for the operators, `align_ref` /
/// `normalize_ref` / `absorb_ref` for the primitives, the generic anti
/// join for the customized one.
#[test]
fn every_algebra_operator_is_expressible_via_frames() {
    let r = rel1("r", &[(1, 0, 8), (2, 5, 12), (3, 1, 3)]);
    let s = rel1("s", &[(1, 2, 4), (2, 6, 15), (2, 1, 5)]);
    let db = Database::new();
    db.register("r", &r).unwrap();
    db.register("s", &s).unwrap();

    let rf = || TemporalPlan::table(&db, "r").unwrap();
    let sf = || TemporalPlan::table(&db, "s").unwrap();
    let theta_named = || col("r.k").eq(col("s.k"));
    let theta = || Some(col(0usize).eq(col(3usize)));
    let count = || vec![(AggCall::count_star(), "cnt".to_string())];
    let oracle = |op: TemporalOp| {
        let args: &[&TemporalRelation] = if op.arity() == 1 { &[&r] } else { &[&r, &s] };
        evaluate_oracle(&op, args).unwrap()
    };

    let cases: Vec<(&str, TemporalResult<TemporalPlan>, TemporalRelation)> = vec![
        (
            "selection",
            rf().selection(col("k").ge(lit(2i64))),
            oracle(TemporalOp::Selection {
                predicate: col(0usize).ge(lit(2i64)),
            }),
        ),
        (
            "cartesian_product",
            rf().cartesian_product(sf()),
            oracle(TemporalOp::CartesianProduct),
        ),
        (
            "join",
            rf().join(sf(), theta_named()),
            oracle(TemporalOp::Join { theta: theta() }),
        ),
        (
            "left_outer_join",
            rf().left_outer_join(sf(), theta_named()),
            oracle(TemporalOp::LeftOuterJoin { theta: theta() }),
        ),
        (
            "right_outer_join",
            rf().right_outer_join(sf(), theta_named()),
            oracle(TemporalOp::RightOuterJoin { theta: theta() }),
        ),
        (
            "full_outer_join",
            rf().full_outer_join(sf(), theta_named()),
            oracle(TemporalOp::FullOuterJoin { theta: theta() }),
        ),
        (
            "anti_join",
            rf().anti_join(sf(), theta_named()),
            oracle(TemporalOp::AntiJoin { theta: theta() }),
        ),
        (
            "anti_join_optimized",
            rf().anti_join_optimized(sf(), theta_named()),
            TemporalOp::AntiJoin { theta: theta() }
                .evaluate(&Planner::default(), &[&r, &s])
                .unwrap(),
        ),
        (
            "projection",
            rf().projection(&["k"]),
            oracle(TemporalOp::Projection { attrs: vec![0] }),
        ),
        (
            "aggregation",
            rf().aggregation(&["k"], count()),
            oracle(TemporalOp::Aggregation {
                group: vec![0],
                aggs: count(),
            }),
        ),
        ("union", rf().union(sf()), oracle(TemporalOp::Union)),
        (
            "difference",
            rf().difference(sf()),
            oracle(TemporalOp::Difference),
        ),
        (
            "intersection",
            rf().intersection(sf()),
            oracle(TemporalOp::Intersection),
        ),
        (
            "align",
            rf().align(sf(), theta_named()),
            align_ref(&r, &s, &Theta::from_option(theta())).unwrap(),
        ),
        (
            "normalize",
            rf().normalize(sf(), &[("k", "k")]),
            normalize_ref(&r, &s, &[(0, 0)]).unwrap(),
        ),
        ("absorb", Ok(rf().absorb()), absorb_ref(&r).unwrap()),
    ];

    for (op, plan, reference) in cases {
        let collected = plan
            .and_then(|p| p.run(&db))
            .unwrap_or_else(|e| panic!("{op}: run: {e}"));
        assert!(
            collected.same_set(&reference),
            "{op}: plan vs reference mismatch.\nplan:\n{collected}\nreference:\n{reference}"
        );
    }
}

// ---- name resolution errors --------------------------------------------

#[test]
fn unknown_column_gets_did_you_mean() {
    let db = Database::new();
    db.register("r", &rel2("r", &[(1, 10, 0, 5)])).unwrap();
    let err = TemporalPlan::table(&db, "r")
        .unwrap()
        .selection(col("v").eq(lit(1i64)))
        .unwrap_err()
        .to_string();
    assert!(err.contains("unknown column: v — did you mean"), "{err}");
}

/// SQL resolves names by the same rule, so it gets the same message.
#[test]
fn sql_unknown_column_gets_the_same_did_you_mean() {
    let db = Database::new();
    db.register("r", &rel2("r", &[(1, 10, 0, 5)])).unwrap();
    let rust = TemporalPlan::table(&db, "r")
        .unwrap()
        .selection(col("v").eq(lit(1i64)))
        .unwrap_err()
        .to_string();
    let sql = Session::with_database(db)
        .query("SELECT v FROM r")
        .unwrap_err()
        .to_string();
    let message = rust.split_once("unknown column: ").unwrap().1;
    assert!(
        sql.ends_with(&format!("unknown column: {message}")),
        "{sql} vs {rust}"
    );
    assert!(sql.contains("did you mean"), "{sql}");
}

#[test]
fn ambiguous_column_lists_qualified_candidates() {
    let db = Database::new();
    db.register("r", &rel1("r", &[(1, 0, 5)])).unwrap();
    db.register("s", &rel1("s", &[(1, 2, 4)])).unwrap();
    let table = |name| TemporalPlan::table(&db, name).unwrap();
    // The registered tables are re-qualified by table name, so the join
    // concat has r.k and s.k: bare `k` in θ is ambiguous…
    let err = table("r")
        .join(table("s"), col("k").eq(lit(1i64)))
        .unwrap_err()
        .to_string();
    assert!(err.contains("ambiguous"), "{err}");
    assert!(err.contains("r.k") && err.contains("s.k"), "{err}");
    // …and the qualified forms resolve.
    let out = table("r")
        .join(table("s"), col("r.k").eq(col("s.k")))
        .unwrap()
        .run(&db)
        .unwrap();
    assert!(!out.is_empty());
}

#[test]
fn qualified_names_resolve_through_joins_and_aliases() {
    let db = Database::new();
    db.register("r", &rel2("r", &[(1, 7, 0, 5), (2, 9, 3, 9)]))
        .unwrap();
    let table = || TemporalPlan::table(&db, "r").unwrap();
    // Qualifiers survive the temporal join reduction: a later selection
    // can still name the side it means.
    let out = table()
        .aliased("a")
        .join(table().aliased("b"), col("a.k").eq(col("b.k")))
        .unwrap()
        .selection(col("a.w").ge(lit(7i64)).and(col("b.w").le(lit(9i64))))
        .unwrap()
        .run(&db)
        .unwrap();
    assert!(!out.is_empty());
    // name("…") is the explicit qualified builder.
    let out2 = table()
        .selection(name("r.w").gt(lit(8i64)))
        .unwrap()
        .run(&db)
        .unwrap();
    assert_eq!(out2.len(), 1);
}

// ---- one Database behind both surfaces ---------------------------------

/// Acceptance: register via one surface, query via the other — Rust
/// plans and `db.sql()` see the same catalog instance.
#[test]
fn rust_and_sql_share_one_catalog() {
    let db = Database::new();

    // Registered via the Rust surface → queried via SQL.
    db.register("r", &rel1("r", &[(1, 0, 5), (2, 3, 9)]))
        .unwrap();
    let via_sql = db.sql_rows("SELECT k FROM r WHERE k = 2").unwrap();
    assert_eq!(via_sql.len(), 1);

    // Registered via the SQL session → queried via a plan.
    let mut session = Session::with_database(db.clone());
    session.register("s", &rel1("s", &[(5, 1, 4)])).unwrap();
    let via_plan = TemporalPlan::table(&db, "s")
        .unwrap()
        .selection(col("k").eq(lit(5i64)))
        .unwrap()
        .run(&db)
        .unwrap();
    assert_eq!(via_plan.len(), 1);

    // Dropping through the Database is visible to SQL too.
    assert!(db.drop_table("s").unwrap());
    assert!(db.sql_rows("SELECT * FROM s").is_err());
    assert_eq!(db.list_tables(), vec!["r".to_string()]);
}

/// A self-join of table `t` on `k`, aliased `a` and `b`.
fn self_join(db: &Database) -> TemporalPlan {
    let t = || TemporalPlan::table(db, "t").unwrap();
    t().aliased("a")
        .join(t().aliased("b"), col("a.k").eq(col("b.k")))
        .unwrap()
}

/// Acceptance: a plan's EXPLAIN is the *same physical plan* the SQL
/// surface produces for the equivalent query — not merely equivalent
/// output, the identical rendered tree.
#[test]
fn frame_explain_matches_sql_explain() {
    let db = Database::new();
    db.register("t", &rel2("t", &[(1, 7, 0, 5), (2, 9, 3, 9), (1, 4, 6, 8)]))
        .unwrap();

    let rust_plan = TemporalPlan::table(&db, "t")
        .unwrap()
        .selection(col("k").eq(lit(1i64)))
        .unwrap()
        .explain(&db)
        .unwrap();
    let sql_plan = db.sql_explain("SELECT * FROM t WHERE k = 1").unwrap();
    assert_eq!(rust_plan, sql_plan, "rust:\n{rust_plan}\nsql:\n{sql_plan}");

    // The shared planner's GUCs steer both surfaces identically.
    db.set("enable_hashjoin", false, None).unwrap();
    db.set("enable_mergejoin", false, None).unwrap();
    let rust_join = self_join(&db).explain(&db).unwrap();
    assert!(rust_join.contains("NestedLoopJoin"), "{rust_join}");
    let sql_probe = db
        .sql_explain("SELECT * FROM t a JOIN t b ON a.k = b.k AND a.ts = b.ts")
        .unwrap();
    assert!(sql_probe.contains("NestedLoopJoin"), "{sql_probe}");
}

/// `SET` through SQL reconfigures the planner Rust plans use (and vice
/// versa): one planner, not two copies to keep in sync.
#[test]
fn set_through_sql_affects_frames() {
    let db = Database::new();
    db.register("t", &rel1("t", &[(1, 0, 5), (2, 3, 9)]))
        .unwrap();
    db.sql("SET enable_hashjoin = off").unwrap();
    db.sql("SET enable_mergejoin = off").unwrap();
    let plan = self_join(&db).explain(&db).unwrap();
    assert!(plan.contains("NestedLoopJoin"), "{plan}");
    assert!(!plan.contains("HashJoin"), "{plan}");
    db.sql("SET enable_hashjoin = on").unwrap();
    let plan = self_join(&db).explain(&db).unwrap();
    assert!(plan.contains("HashJoin"), "{plan}");
}

/// Lazy means lazy: building a plan over a table, then replacing the
/// table before running it, executes against the *current* catalog state.
#[test]
fn frames_are_lazy_until_collect() {
    let db = Database::new();
    db.register("t", &rel1("t", &[(1, 0, 5)])).unwrap();
    let plan = TemporalPlan::table(&db, "t")
        .unwrap()
        .selection(col("k").ge(lit(0i64)))
        .unwrap();
    db.register_or_replace("t", &rel1("t", &[(1, 0, 5), (2, 1, 3), (3, 4, 6)]))
        .unwrap();
    assert_eq!(plan.run(&db).unwrap().len(), 3);
}
