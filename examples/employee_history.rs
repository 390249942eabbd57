//! An Incumben-style workload: job assignments of employees over time
//! (the kind of data the paper's evaluation uses).
//!
//! Demonstrates the group-based operators on a generated dataset through
//! name-based `TemporalPlan`s: temporal aggregation (staffing level over
//! time), temporal difference (periods where a position was held by
//! someone else), temporal projection, and the anti join (employment
//! gaps) as an aliased self-join.
//!
//! Run with: `cargo run --example employee_history`

use temporal_alignment::datasets::{incumben, prefix, IncumbenSpec};
use temporal_alignment::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small deterministic slice of the Incumben substitute.
    let spec = IncumbenSpec {
        rows: 600,
        employees: 350,
        positions: 40,
        ..Default::default()
    };
    let data = incumben(spec);
    let sample = prefix(&data, 8);
    println!("incumben sample (ssn, pcn, [ts, te) in days):\n{sample}");

    let db = Database::new();
    db.register("assignments", &data)?;
    let assignments = || TemporalPlan::table(&db, "assignments");

    // 1. Staffing level over time: how many assignments are active?
    let no_groups: &[&str] = &[];
    let staffing = assignments()?
        .aggregation(no_groups, vec![(AggCall::count_star(), "active")])?
        .run(&db)?;
    let peak = staffing
        .iter()
        .map(|(d, _)| d[0].as_int().unwrap())
        .max()
        .unwrap_or(0);
    println!(
        "staffing level: {} change-preserving fragments, peak concurrent assignments = {peak}",
        staffing.len()
    );

    // 2. Per-position occupancy: distinct (pcn, T) spans where the
    //    position is staffed — a temporal projection onto pcn.
    let occupancy = assignments()?.projection(&["pcn"])?.run(&db)?;
    println!(
        "per-position occupancy fragments: {} (from {} assignments)",
        occupancy.len(),
        data.len()
    );

    // 3. Employee 0's assignment history.
    let emp0 = assignments()?
        .selection(col("ssn").eq(lit(0i64)))?
        .run(&db)?;
    println!("employee 0 history:\n{emp0}");

    // 4. Temporal difference: spans where position 0 was staffed but NOT
    //    by employee 0.
    let pos0 = assignments()?
        .selection(col("pcn").eq(lit(0i64)))?
        .projection(&["pcn"])?;
    let pos0_by_emp0 = assignments()?
        .selection(col("pcn").eq(lit(0i64)).and(col("ssn").eq(lit(0i64))))?
        .projection(&["pcn"])?;
    let pos0_by_others = pos0.difference(pos0_by_emp0)?.run(&db)?;
    println!(
        "position 0 staffed-by-others fragments: {}",
        pos0_by_others.len()
    );

    // 5. Anti join: assignments during which the employee's position had
    //    no *other* overlapping assignment (sole incumbency) — an aliased
    //    self-join: same position, different employee.
    let mine = assignments()?.aliased("mine");
    let theirs = assignments()?.aliased("theirs");
    let sole = mine
        .anti_join(
            theirs,
            col("mine.pcn")
                .eq(col("theirs.pcn"))
                .and(col("mine.ssn").ne(col("theirs.ssn"))),
        )?
        .run(&db)?;
    println!(
        "sole-incumbency fragments: {} (from {} assignments)",
        sole.len(),
        data.len()
    );

    // Sanity: every result is a valid duplicate-free temporal relation.
    for (name, rel) in [
        ("staffing", &staffing),
        ("occupancy", &occupancy),
        ("pos0_by_others", &pos0_by_others),
    ] {
        assert!(rel.is_duplicate_free(), "{name} has duplicates");
    }
    println!("all results are duplicate-free temporal relations ✓");

    Ok(())
}
