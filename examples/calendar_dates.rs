//! Day-granularity temporal data with civil dates, plus the side-car
//! utilities: Allen's interval relations and explicit coalescing — with
//! the sequenced queries going through name-based `TemporalPlan`s.
//!
//! Run with: `cargo run --example calendar_dates`

use temporal_alignment::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Hotel bookings at day granularity, built from civil dates
    // (the granularity of the paper's Incumben dataset).
    let d = |s: &str| Date::parse(s).expect("valid date");
    let bookings = TemporalRelation::from_rows(
        Schema::new(vec![
            Column::new("guest", DataType::Str),
            Column::new("room", DataType::Int),
        ]),
        vec![
            (
                vec![Value::str("ann"), Value::Int(101)],
                date_interval(d("2012-01-05"), d("2012-01-20"))?,
            ),
            (
                vec![Value::str("ann"), Value::Int(101)],
                date_interval(d("2012-01-20"), d("2012-02-03"))?, // extension
            ),
            (
                vec![Value::str("joe"), Value::Int(102)],
                date_interval(d("2012-01-15"), d("2012-01-25"))?,
            ),
        ],
    )?;
    println!("bookings:\n{}", bookings.to_table_with(fmt_day));

    // Allen relations between the stays.
    let iv: Vec<Interval> = bookings.iter().map(|(_, iv)| iv).collect();
    println!(
        "ann's first stay {} ann's extension  → {:?}",
        iv[0],
        relate(&iv[0], &iv[1])
    );
    println!(
        "ann's first stay {} joe's stay       → {:?}",
        iv[0],
        relate(&iv[0], &iv[2])
    );

    let db = Database::new();
    db.register("bookings", &bookings)?;

    // Occupied-rooms count over time (sequenced aggregation)…
    let no_groups: &[&str] = &[];
    let occupancy = TemporalPlan::table(&db, "bookings")?
        .aggregation(no_groups, vec![(AggCall::count_star(), "occupied")])?
        .run(&db)?;
    println!(
        "occupancy (change preserving):\n{}",
        occupancy.sorted().to_table_with(fmt_day)
    );

    // … and ann's presence: change-preserved fragments vs the coalesced
    // view. The filter and projection chain into one plan.
    let ann_rooms = TemporalPlan::table(&db, "bookings")?
        .selection(col("guest").eq(lit("ann")))?
        .projection(&["guest"])?
        .run(&db)?;
    println!(
        "ann (change preserving):\n{}",
        ann_rooms.sorted().to_table_with(fmt_day)
    );
    let merged = coalesce(&ann_rooms)?;
    println!(
        "ann (coalesced for display):\n{}",
        merged.to_table_with(fmt_day)
    );
    assert!(snapshot_equivalent(&ann_rooms, &merged)?);

    Ok(())
}
