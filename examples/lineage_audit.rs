//! Change preservation made visible: lineage sets (Def. 6) and the
//! change-preservation checker (Def. 7) on the paper's Examples 3 and 4.
//!
//! Shows *why* the two ω-tuples z3/z4 of Fig. 1(b) must not be coalesced —
//! their lineage differs (z3 derives from reservation r1, z4 from r3) —
//! and demonstrates the checker rejecting a coalesced result. The audited
//! query itself is a name-based `TemporalPlan`; the semantic checkers
//! take the operator description ([`TemporalOp`]) they verify against.
//!
//! Run with: `cargo run --example lineage_audit`

use temporal_alignment::core::interval::month::{fmt as mfmt, ym};
use temporal_alignment::core::semantics::{
    check_change_preservation, check_snapshot_reducibility, lineage, TemporalOp,
};
use temporal_alignment::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The running example's R and P.
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
        Schema::new(vec![Column::new("a", DataType::Int)]),
        vec![
            (vec![Value::Int(50)], Interval::of(ym(2012, 1), ym(2012, 6))),
            (vec![Value::Int(40)], Interval::of(ym(2012, 1), ym(2012, 6))),
            (vec![Value::Int(30)], Interval::of(ym(2012, 1), ym(2013, 1))),
        ],
    )?;

    // The audited query, as a plan over the registered tables: R ⟕ᵀ P.
    let db = Database::new();
    db.register("r", &r)?;
    db.register("p", &p)?;
    let result = TemporalPlan::table(&db, "r")?
        .left_outer_join(TemporalPlan::table(&db, "p")?, None)?
        .run(&db)?;
    println!("R ⟕ᵀ P:\n{}", result.sorted().to_table_with(mfmt));

    // The checkers verify a result against the operator it claims to
    // compute, so they take the operator description.
    let op = TemporalOp::LeftOuterJoin { theta: None };

    // Lineage of the joined tuple (ann, 40) at 2012/2 — Example 3.
    let z1 = vec![Value::str("ann"), Value::Int(40)];
    let lin = lineage(&op, &[&r, &p], &z1, ym(2012, 2))?;
    println!(
        "L[(ann, 40), 2012/2] = ⟨ R{:?}, P{:?} ⟩   (tuple indices)",
        lin[0], lin[1]
    );

    // Lineage of the ω tuple (ann, ω) before and after 2012/8 — Example 4.
    let z_omega = vec![Value::str("ann"), Value::Null];
    let before = lineage(&op, &[&r, &p], &z_omega, ym(2012, 7))?;
    let after = lineage(&op, &[&r, &p], &z_omega, ym(2012, 8))?;
    println!(
        "L[(ann, ω), 2012/7] = ⟨ R{:?}, P(all) ⟩ — derived from r1",
        before[0]
    );
    println!(
        "L[(ann, ω), 2012/8] = ⟨ R{:?}, P(all) ⟩ — derived from r3",
        after[0]
    );
    assert_ne!(before, after);
    println!("→ lineage changes at 2012/8, so the ω tuples stay separate.\n");

    // The produced result passes both checkers …
    let sr = check_snapshot_reducibility(&op, &[&r, &p], &result)?;
    let cp = check_change_preservation(&op, &[&r, &p], &result)?;
    println!("snapshot reducibility violations: {sr:?}");
    println!("change preservation violations:   {cp:?}");
    assert!(sr.is_empty() && cp.is_empty());

    // … while a hand-coalesced variant fails change preservation.
    let mut tampered: Vec<(Vec<Value>, Interval)> = Vec::new();
    for (d, iv) in result.iter() {
        if d[1].is_null() {
            continue; // drop both ω tuples …
        }
        tampered.push((d.to_vec(), iv));
    }
    // … and replace them with one merged tuple [2012/6, 2012/12).
    tampered.push((
        vec![Value::str("ann"), Value::Null],
        Interval::of(ym(2012, 6), ym(2012, 12)),
    ));
    let tampered = TemporalRelation::from_rows(result.data_schema(), tampered)?;
    let violations = check_change_preservation(&op, &[&r, &p], &tampered)?;
    println!(
        "\ncoalescing z3/z4 into one tuple yields {} violation(s):",
        violations.len()
    );
    for v in &violations {
        println!("  - {v}");
    }
    assert!(!violations.is_empty());

    Ok(())
}
