//! The executor is serial: EXPLAIN shows no parallel operators (no
//! `Parallelism` header, no `Exchange` line), and `SET threads` is an
//! unknown setting like any other — rejected in band, leaving the
//! session's plans and results exactly as they were.

mod common;

use common::rel1;
use temporal_alignment::sql::Session;

#[test]
fn set_threads_rejects_nonsense() {
    let rows: Vec<(i64, i64, i64)> = (0..600).map(|i| (i % 7, i, i + 1)).collect();
    let mut session = Session::new();
    session.register("r", &rel1("r", &rows)).unwrap();
    let query = "SELECT * FROM r WHERE k < 3";
    let plan = session.explain(query).unwrap();
    let result = session.query(query).unwrap();
    assert!(
        !plan.contains("Exchange") && !plan.contains("Parallelism"),
        "EXPLAIN must not show parallel operators:\n{plan}"
    );

    for stmt in ["SET threads = 4", "SET nonsense_guc = 4"] {
        assert!(session.execute(stmt).is_err(), "{stmt} must be rejected");
        assert_eq!(
            session.explain(query).unwrap(),
            plan,
            "EXPLAIN after {stmt}"
        );
        assert_eq!(
            session.query(query).unwrap().rows(),
            result.rows(),
            "result after {stmt}"
        );
    }
}
