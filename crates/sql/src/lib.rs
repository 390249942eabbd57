//! # temporal-sql
//!
//! The SQL surface of *Temporal Alignment* (Sec. 6.2/6.3): a lexer,
//! recursive-descent parser, analyzer and session for a SQL dialect
//! extended with the paper's temporal primitives:
//!
//! ```text
//! aligned_table:    table_ref ALIGN table_ref ON a_expr
//! normalized_table: table_ref NORMALIZE table_ref USING ( column_list )
//! ```
//!
//! both usable (parenthesized, with an alias) wherever a table reference
//! may appear, plus `ABSORB` in place of `DISTINCT` to remove temporal
//! duplicates, and `DUR(ts, te)` as the duration UDF of the paper's
//! examples. As in the paper, *"this is just for illustration purposes —
//! the primitives are building blocks that support the implementation of
//! the temporal SQL extensions proposed in the past"*; the reduction rules
//! themselves live in `temporal-core`.
//!
//! `SET enable_nestloop|enable_hashjoin|enable_mergejoin = on|off` switches
//! the planner's join methods (the Fig. 13 experiment), and `EXPLAIN`
//! prints the chosen physical plan.
//!
//! ```
//! use temporal_sql::Session;
//! use temporal_core::prelude::*;
//! use temporal_engine::prelude::*;
//!
//! let mut session = Session::new();
//! let r = TemporalRelation::from_rows(
//!     Schema::new(vec![Column::new("n", DataType::Str)]),
//!     vec![(vec![Value::str("ann")], Interval::of(0, 7))],
//! )
//! .unwrap();
//! session.register("r", &r).unwrap();
//! let out = session
//!     .query("SELECT n, ts, te FROM (r r1 NORMALIZE r r2 USING()) x")
//!     .unwrap();
//! assert_eq!(out.len(), 1);
//! ```

pub mod analyzer;
pub mod ast;
pub mod csv;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod session;
pub mod token;

pub use analyzer::Analyzer;
pub use error::{SqlError, SqlResult};
pub use parser::parse_statement;
pub use session::{DatabaseSqlExt, ResultSink, Session, SqlOutput};

#[cfg(test)]
mod tests {
    use super::*;
    use temporal_core::prelude::*;
    use temporal_engine::prelude::*;

    fn session_with_rp() -> Session {
        // The running example of the paper (Fig. 1), months as integers
        // with 2012/1 ↦ 0.
        use temporal_core::interval::month::ym;
        let mut s = Session::new();
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
        )
        .unwrap();
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
        )
        .unwrap();
        s.register("r", &r).unwrap();
        s.register("p", &p).unwrap();
        s
    }

    #[test]
    fn basic_select_where() {
        let mut s = session_with_rp();
        let out = s.query("SELECT n FROM r WHERE n = 'ann'").unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn paper_q1_via_sql_matches_fig1b() {
        use temporal_core::interval::month::ym;
        // Sec. 6.2's SQL formulation of Q1.
        let mut s = session_with_rp();
        let out = s
            .query(
                "WITH r AS (SELECT Ts Us, Te Ue, * FROM r) \
                 SELECT ABSORB n, a, min, max, x.Ts, x.Te \
                 FROM (r ALIGN p ON DUR(Us,Ue) BETWEEN Min AND Max) x \
                 LEFT OUTER JOIN \
                 (p ALIGN r ON DUR(Us,Ue) BETWEEN Min AND Max) y \
                 ON DUR(Us,Ue) BETWEEN Min AND Max AND \
                    x.Ts = y.Ts AND x.Te = y.Te",
            )
            .unwrap();
        // Fig. 1(b): z1..z5.
        let expected = vec![
            (
                vec![
                    Value::str("ann"),
                    Value::Int(40),
                    Value::Int(3),
                    Value::Int(7),
                ],
                (ym(2012, 1), ym(2012, 6)),
            ),
            (
                vec![
                    Value::str("joe"),
                    Value::Int(40),
                    Value::Int(3),
                    Value::Int(7),
                ],
                (ym(2012, 2), ym(2012, 6)),
            ),
            (
                vec![Value::str("ann"), Value::Null, Value::Null, Value::Null],
                (ym(2012, 6), ym(2012, 8)),
            ),
            (
                vec![Value::str("ann"), Value::Null, Value::Null, Value::Null],
                (ym(2012, 8), ym(2012, 10)),
            ),
            (
                vec![
                    Value::str("ann"),
                    Value::Int(40),
                    Value::Int(3),
                    Value::Int(7),
                ],
                (ym(2012, 10), ym(2012, 12)),
            ),
        ];
        assert_eq!(out.len(), expected.len(), "{out}");
        for (vals, (ts, te)) in expected {
            let mut want = vals.clone();
            want.push(Value::Int(ts));
            want.push(Value::Int(te));
            assert!(
                out.rows().iter().any(|row| row.values() == want.as_slice()),
                "missing {want:?} in\n{out}"
            );
        }
    }

    #[test]
    fn paper_q2_aggregation_via_sql_matches_fig7() {
        use temporal_core::interval::month::ym;
        // Sec. 6.3's temporal aggregation: average reservation duration.
        let mut s = session_with_rp();
        let out = s
            .query(
                "WITH r AS (SELECT Ts Us, Te Ue, * FROM r) \
                 SELECT AVG(DUR(Us,Ue)) avgdur, Ts, Te \
                 FROM (r r1 NORMALIZE r r2 USING()) x \
                 GROUP BY Ts, Te",
            )
            .unwrap();
        // Fig. 7: (7) over [1,2), (5.5) over [2,6), (7) over [6,8),
        //         (4) over [8,12)   (months relative to 2012/1).
        let expected = vec![
            (7.0, ym(2012, 1), ym(2012, 2)),
            (5.5, ym(2012, 2), ym(2012, 6)),
            (7.0, ym(2012, 6), ym(2012, 8)),
            (4.0, ym(2012, 8), ym(2012, 12)),
        ];
        assert_eq!(out.len(), expected.len(), "{out}");
        for (avg, ts, te) in expected {
            assert!(
                out.rows().iter().any(|row| {
                    row[0] == Value::Double(avg)
                        && row[1] == Value::Int(ts)
                        && row[2] == Value::Int(te)
                }),
                "missing ({avg}, {ts}, {te}) in\n{out}"
            );
        }
    }

    #[test]
    fn set_statements_change_planning() {
        let mut s = session_with_rp();
        s.execute("SET enable_mergejoin = off").unwrap();
        s.execute("SET enable_hashjoin = off").unwrap();
        let plan = s
            .explain("SELECT * FROM r a JOIN r b ON a.n = b.n AND a.ts = b.ts AND a.te = b.te")
            .unwrap();
        assert!(plan.contains("NestedLoopJoin"), "{plan}");
        s.execute("SET enable_hashjoin = on").unwrap();
        let plan = s
            .explain("SELECT * FROM r a JOIN r b ON a.n = b.n AND a.ts = b.ts AND a.te = b.te")
            .unwrap();
        assert!(plan.contains("HashJoin"), "{plan}");
        assert!(s.execute("SET enable_time_travel = on").is_err());
    }

    #[test]
    fn not_exists_compiles_to_anti_join() {
        let mut s = session_with_rp();
        let plan = s
            .explain("SELECT * FROM r WHERE NOT EXISTS (SELECT * FROM p WHERE p.ts < r.te AND r.ts < p.te)")
            .unwrap();
        assert!(plan.contains("[Anti]"), "{plan}");
        let out = s
            .query("SELECT * FROM r WHERE NOT EXISTS (SELECT * FROM p WHERE p.ts < r.te AND r.ts < p.te)")
            .unwrap();
        // every reservation overlaps some price period
        assert!(out.is_empty());
    }

    #[test]
    fn exists_compiles_to_semi_join() {
        let mut s = session_with_rp();
        let out = s
            .query(
                "SELECT n FROM r WHERE EXISTS (SELECT * FROM p WHERE p.ts < r.te AND r.ts < p.te)",
            )
            .unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn setop_queries() {
        let mut s = session_with_rp();
        let out = s.query("SELECT n FROM r UNION SELECT n FROM r").unwrap();
        assert_eq!(out.len(), 2); // ann, joe
        let out = s
            .query("SELECT n FROM r EXCEPT SELECT n FROM r WHERE n = 'joe'")
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn order_by_and_limit() {
        let mut s = session_with_rp();
        let out = s
            .query("SELECT n, ts FROM r ORDER BY ts DESC LIMIT 2")
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0][0], Value::str("ann"));
        assert!(out.rows()[0][1].as_int() >= out.rows()[1][1].as_int());
    }

    #[test]
    fn analyzer_errors_are_helpful() {
        let mut s = session_with_rp();
        assert!(s.query("SELECT zzz FROM r").is_err());
        assert!(s.query("SELECT * FROM unknown_table").is_err());
        assert!(s.query("SELECT n, avg(ts) FROM r").is_err()); // n not grouped
        assert!(s
            .query("SELECT ABSORB n FROM r") // last two cols not an interval
            .is_err());
        assert!(s.query("SELECT frobnicate(n) FROM r").is_err());
    }

    #[test]
    fn normalize_using_validates_columns() {
        let mut s = session_with_rp();
        // ts is not a nontemporal attribute
        assert!(s
            .query("SELECT * FROM (r r1 NORMALIZE r r2 USING(ts)) x")
            .is_err());
        assert!(s
            .query("SELECT * FROM (r r1 NORMALIZE r r2 USING(n)) x")
            .is_ok());
    }

    #[test]
    fn select_without_from() {
        let mut s = Session::new();
        let out = s.query("SELECT 1 + 2 x, 'hi' y").unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(3));
        assert_eq!(out.rows()[0][1], Value::str("hi"));
    }

    #[test]
    fn cte_shadows_catalog_table() {
        let mut s = session_with_rp();
        let out = s
            .query("WITH r AS (SELECT n FROM r WHERE n = 'joe') SELECT * FROM r")
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::str("joe"));
    }
}
