//! The SQL surface of Sec. 6.2/6.3 behind the shared [`Database`]:
//! `ALIGN`, `NORMALIZE … USING()`, `ABSORB`, the `DUR` UDF, planner
//! switches (`SET enable_mergejoin = off`) and `EXPLAIN` — the workflow
//! of the paper's Fig. 13 experiment — plus a Rust [`TemporalPlan`]
//! running against the *same* catalog as `db.sql(...)`.
//!
//! Run with: `cargo run --example sql_interface`

use temporal_alignment::core::interval::month::ym;
use temporal_alignment::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One Database is the front door for both surfaces: tables registered
    // here are visible to SQL statements and Rust plans alike.
    let db = Database::new();

    // The running example's relations.
    let r = TemporalRelation::from_rows(
        Schema::new(vec![Column::new("n", DataType::Str)]),
        vec![
            (
                vec![Value::str("ann")],
                Interval::of(ym(2012, 1), ym(2012, 8)),
            ),
            (
                vec![Value::str("joe")],
                Interval::of(ym(2012, 2), ym(2012, 6)),
            ),
            (
                vec![Value::str("ann")],
                Interval::of(ym(2012, 8), ym(2012, 12)),
            ),
        ],
    )?;
    let p = TemporalRelation::from_rows(
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("min", DataType::Int),
            Column::new("max", DataType::Int),
        ]),
        vec![
            (
                vec![Value::Int(50), Value::Int(1), Value::Int(2)],
                Interval::of(ym(2012, 1), ym(2012, 6)),
            ),
            (
                vec![Value::Int(40), Value::Int(3), Value::Int(7)],
                Interval::of(ym(2012, 1), ym(2012, 6)),
            ),
            (
                vec![Value::Int(30), Value::Int(8), Value::Int(12)],
                Interval::of(ym(2012, 1), ym(2013, 1)),
            ),
            (
                vec![Value::Int(50), Value::Int(1), Value::Int(2)],
                Interval::of(ym(2012, 10), ym(2013, 1)),
            ),
            (
                vec![Value::Int(40), Value::Int(3), Value::Int(7)],
                Interval::of(ym(2012, 10), ym(2013, 1)),
            ),
        ],
    )?;
    db.register("r", &r)?;
    db.register("p", &p)?;

    // ---- Q1 via the paper's SQL (Sec. 6.2) --------------------------------
    let q1 = "WITH r AS (SELECT Ts Us, Te Ue, * FROM r) \
              SELECT ABSORB n, a, min, max, x.Ts, x.Te \
              FROM (r ALIGN p ON DUR(Us,Ue) BETWEEN Min AND Max) x \
              LEFT OUTER JOIN \
              (p ALIGN r ON DUR(Us,Ue) BETWEEN Min AND Max) y \
              ON DUR(Us,Ue) BETWEEN Min AND Max AND x.Ts = y.Ts AND x.Te = y.Te";
    println!("-- Q1 (temporal left outer join with DUR predicate):");
    println!("{}", db.sql_rows(q1)?.sorted().to_table());

    // ---- Q2 via the paper's SQL (Sec. 6.3) --------------------------------
    let q2 = "WITH r AS (SELECT Ts Us, Te Ue, * FROM r) \
              SELECT AVG(DUR(Us,Ue)) avg_dur, Ts, Te \
              FROM (r r1 NORMALIZE r r2 USING()) x \
              GROUP BY Ts, Te";
    println!("-- Q2 (temporal aggregation):");
    println!("{}", db.sql_rows(q2)?.sorted().to_table());

    // ---- The same catalog, from a Rust plan --------------------------------
    // A σᵀ written as a TemporalPlan and as SQL: one catalog, one planner,
    // and EXPLAIN renders the identical physical plan for both.
    let rust_plan = TemporalPlan::table(&db, "r")?
        .selection(col("n").eq(lit("ann")))?
        .explain(&db)?;
    let sql_plan = db.sql_explain("SELECT * FROM r WHERE n = 'ann'")?;
    println!("-- frame EXPLAIN == SQL EXPLAIN:");
    println!("{rust_plan}");
    assert_eq!(rust_plan, sql_plan);

    // ---- EXPLAIN and the join-method switches -----------------------------
    let probe = "SELECT * FROM (r r1 NORMALIZE r r2 USING(n)) x";
    println!("-- EXPLAIN with all join methods enabled:");
    println!("{}", db.sql_explain(probe)?);

    // SET goes through the same shared planner Rust plans use.
    db.sql("SET enable_mergejoin = off")?;
    db.sql("SET enable_hashjoin = off")?;
    println!("-- EXPLAIN with merge and hash joins disabled (nested loop only):");
    println!("{}", db.sql_explain(probe)?);
    db.sql("SET enable_mergejoin = on")?;
    db.sql("SET enable_hashjoin = on")?;

    // ---- NOT EXISTS (the sql baseline's building block) -------------------
    let gaps = "SELECT n, ts, te FROM r \
                WHERE NOT EXISTS (SELECT * FROM p WHERE p.a = 30 AND p.ts < r.te AND r.ts < p.te)";
    println!("-- reservations with no overlapping permanent-price period:");
    println!("{}", db.sql_rows(gaps)?.to_table());

    Ok(())
}
