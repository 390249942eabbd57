//! The paper's running example (Example 1, Figs. 1–7): a hotel with
//! seasonal price categories and reservations, on name-based
//! `TemporalPlan`s over a `Database`.
//!
//! Reproduces:
//! * query Q1 = R ⟕ᵀ_{Min ≤ DUR(R.T) ≤ Max} P (Fig. 1b) — a temporal left
//!   outer join whose θ references the *original* timestamp of R, i.e.
//!   extended snapshot reducibility via timestamp propagation;
//! * the normalization N_{}(R; R) (Fig. 3);
//! * the alignment of P with respect to U(R) (Fig. 4);
//! * query Q2 = ϑᵀ_{AVG(DUR(R.T))}(R) (Fig. 7) — temporal aggregation.
//!
//! Run with: `cargo run --example hotel_reservations`

use temporal_alignment::core::interval::month::{fmt as mfmt, ym};
use temporal_alignment::prelude::*;

fn reservations() -> TemporalRelation {
    // R: guest name N, valid-time T.
    TemporalRelation::from_rows(
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
    )
    .expect("valid fixture")
}

fn prices() -> TemporalRelation {
    // P: daily price A, Min/Max stay duration for the category, valid T.
    let row = |a: i64, min: i64, max: i64, from: (i64, i64), to: (i64, i64)| {
        (
            vec![Value::Int(a), Value::Int(min), Value::Int(max)],
            Interval::of(ym(from.0, from.1), ym(to.0, to.1)),
        )
    };
    TemporalRelation::from_rows(
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("min", DataType::Int),
            Column::new("max", DataType::Int),
        ]),
        vec![
            row(50, 1, 2, (2012, 1), (2012, 6)),  // s1: short term, winter
            row(40, 3, 7, (2012, 1), (2012, 6)),  // s2: long term, winter
            row(30, 8, 12, (2012, 1), (2013, 1)), // s3: permanent
            row(50, 1, 2, (2012, 10), (2013, 1)), // s4
            row(40, 3, 7, (2012, 10), (2013, 1)), // s5
        ],
    )
    .expect("valid fixture")
}

/// `DUR` over the propagated timestamps, by name.
fn dur_u() -> Expr {
    Expr::Func(Func::Dur, vec![col("us"), col("ue")])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::new();
    db.register("r", &reservations())?;
    db.register("p", &prices())?;
    let table = |name| TemporalPlan::table(&db, name);
    println!(
        "R (reservations):\n{}",
        table("r")?.run(&db)?.to_table_with(mfmt)
    );
    println!("P (prices):\n{}", table("p")?.run(&db)?.to_table_with(mfmt));

    // ---- Q1 (Fig. 1b) ----------------------------------------------------
    // The join predicate references R.T, so we propagate R's timestamp
    // first (extended snapshot reducibility): U(R) gains data columns
    // us/ue that θ can reference by name.
    let ur = table("r")?.extend()?;
    println!(
        "U(R) (timestamps propagated):\n{}",
        ur.run(&db)?.to_table_with(mfmt)
    );

    // θ: Min ≤ DUR(us, ue) ≤ Max — every operand by name.
    let theta = dur_u().between(col("min"), col("max"));

    let q1_with_u = ur.clone().left_outer_join(table("p")?, theta)?.run(&db)?;
    // Drop the propagated timestamps (Def. 4's final projection): keep
    // (n, a, min, max, T).
    let q1 = q1_with_u.project_data(&[0, 3, 4, 5])?;
    println!(
        "Q1 = R ⟕ᵀ(Min ≤ DUR(R.T) ≤ Max) P   (Fig. 1b):\n{}",
        q1.sorted().to_table_with(mfmt)
    );

    // The two ω tuples z3/z4 stay separate (change preservation): the
    // change at 2012/8, where one reservation of Ann ends and another
    // starts, is preserved.
    let omega_rows = q1.iter().filter(|(d, _)| d[1].is_null()).count();
    assert_eq!(omega_rows, 2);

    // ---- Fig. 3: normalization N_{}(R; R) ---------------------------------
    let no_columns: &[(&str, &str)] = &[];
    let n = table("r")?.normalize(table("r")?, no_columns)?.run(&db)?;
    println!(
        "N_{{}}(R; R)   (Fig. 3):\n{}",
        n.sorted().to_table_with(mfmt)
    );

    // ---- Fig. 4: alignment of P with respect to U(R) ----------------------
    // θ ≡ Min ≤ DUR(U) ≤ Max over P ++ U(R) rows — the same names
    // resolve regardless of which side of the alignment carries them.
    let aligned_p = table("p")?
        .align(ur.clone(), dur_u().between(col("min"), col("max")))?
        .run(&db)?;
    println!(
        "P Φ_θ U(R)   (Fig. 4):\n{}",
        aligned_p.sorted().to_table_with(mfmt)
    );

    // ---- Q2 (Fig. 7): temporal aggregation --------------------------------
    // AVG over the duration of the *original* reservation intervals, so it
    // operates on U(R); grouping attributes B = {} (a single group per
    // normalized fragment).
    let group_by: &[&str] = &[];
    let q2 = ur
        .aggregation(
            group_by,
            vec![(AggCall::new(AggFunc::Avg, dur_u()), "avg_dur")],
        )?
        .run(&db)?;
    println!(
        "Q2 = ϑᵀ AVG(DUR(R.T)) (R)   (Fig. 7):\n{}",
        q2.sorted().to_table_with(mfmt)
    );

    Ok(())
}
