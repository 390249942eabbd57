//! Quickstart: register two interval-timestamped relations in a
//! [`Database`] and compose name-based temporal queries over them with
//! [`TemporalPlan`] — every pipeline compiles to one plan and runs on
//! `run(&db)`.
//!
//! Run with: `cargo run --example quickstart`

use temporal_alignment::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny project-staffing database: who works on what, and when.
    let staff = TemporalRelation::from_rows(
        Schema::new(vec![
            Column::new("person", DataType::Str),
            Column::new("team", DataType::Str),
        ]),
        vec![
            (
                vec![Value::str("ann"), Value::str("db")],
                Interval::of(0, 8),
            ),
            (
                vec![Value::str("joe"), Value::str("db")],
                Interval::of(2, 6),
            ),
            (
                vec![Value::str("sam"), Value::str("ui")],
                Interval::of(4, 10),
            ),
        ],
    )?;
    let oncall = TemporalRelation::from_rows(
        Schema::new(vec![Column::new("team", DataType::Str)]),
        vec![
            (vec![Value::str("db")], Interval::of(3, 5)),
            (vec![Value::str("ui")], Interval::of(5, 7)),
        ],
    )?;

    println!("staff:\n{staff}");
    println!("oncall windows:\n{oncall}");

    // One Database owns the catalog and planner behind both the Rust
    // plans below and `db.sql(...)`.
    let db = Database::new();
    db.register("staff", &staff)?;
    db.register("oncall", &oncall)?;
    let table = |name| TemporalPlan::table(&db, name);

    // Temporal inner join: who was staffed while their team was on call?
    // θ references columns by (qualified) name.
    let theta = col("staff.team").eq(col("oncall.team"));
    let on_duty = table("staff")?
        .join(table("oncall")?, theta.clone())?
        .run(&db)?;
    println!("on duty (⋈ᵀ):\n{on_duty}");

    // Temporal left outer join: everyone, with ω where no on-call window.
    let coverage = table("staff")?
        .left_outer_join(table("oncall")?, theta.clone())?
        .run(&db)?;
    println!("coverage (⟕ᵀ):\n{coverage}");

    // Temporal anti join: staffed periods with no on-call window at all.
    let idle = table("staff")?
        .anti_join(table("oncall")?, theta.clone())?
        .run(&db)?;
    println!("not on call (▷ᵀ):\n{idle}");

    // Temporal aggregation: headcount over time.
    let no_groups: &[&str] = &[];
    let headcount = table("staff")?
        .aggregation(no_groups, vec![(AggCall::count_star(), "headcount")])?
        .run(&db)?;
    println!("headcount over time (ϑᵀ):\n{headcount}");

    // Plans are lazy: a whole pipeline — filter, join, aggregate — is one
    // physical plan, inspectable before anything runs.
    let pipeline = table("staff")?
        .selection(col("team").eq(lit("db")))?
        .join(table("oncall")?, theta)?
        .aggregation(no_groups, vec![(AggCall::count_star(), "cnt")])?;
    println!(
        "EXPLAIN of the composed pipeline:\n{}",
        pipeline.explain(&db)?
    );
    println!("…and its result:\n{}", pipeline.run(&db)?);

    // Every result is snapshot reducible: check one snapshot by hand.
    let t = 4;
    println!("snapshot of staff at t={t}:\n{}", staff.timeslice(t));
    println!(
        "snapshot of headcount at t={t}:\n{}",
        headcount.timeslice(t)
    );

    Ok(())
}
