//! Every call the benchmark makes into the repository lives in this file,
//! and every import goes through the `temporal_alignment` facade. The
//! `use` list below is the compile-time contract README.md spells out: a
//! refactor either keeps these items re-exported or changes this file in
//! an issue of the benchmark's own.
//!
//! Three groups: the wire client, the in-process layer probes (one span
//! per public call — nothing under `crates/` is instrumented), and the
//! independent evaluations the correctness gate compares against.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use temporal_alignment::core::prelude::{self_normalize_ref, Interval, TemporalRelation};
use temporal_alignment::core::reference::oracle::evaluate_oracle;
use temporal_alignment::core::semantics::op::TemporalOp;
use temporal_alignment::engine::prelude::{
    col, AggCall, Column, DataType, ExecutionState, PhysicalPlan, Planner, Row, Schema, Value,
};
use temporal_alignment::prelude::{Database, Session, SqlOutput};
use temporal_alignment::server::{protocol, Client, Response};
use temporal_alignment::sql::ast::{AstExpr, Statement};
use temporal_alignment::sql::lexer::lex;
use temporal_alignment::sql::{parse_statement, Analyzer};

use crate::gen::{IdRow, IncRow};
use crate::trace::Tracer;

/// One result row as the wire carries it (`None` = SQL NULL).
pub type WireRow = Vec<Option<String>>;

/// A statement's outcome, as a client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    Ok,
    Affected(u64),
    /// The server answered `ERR …`.
    Error(String),
    Rows(Vec<WireRow>),
}

impl From<Response> for Reply {
    fn from(r: Response) -> Reply {
        match r {
            Response::Ok => Reply::Ok,
            Response::Affected(n) => Reply::Affected(n),
            Response::Error(e) => Reply::Error(e),
            Response::Rows { rows, .. } => Reply::Rows(rows),
        }
    }
}

// ---------------------------------------------------------------- wire

/// One closed-loop connection to `tsql --serve`, through the repository's
/// own blocking client.
pub struct Wire(Client);

impl Wire {
    pub fn connect(addr: &str) -> io::Result<Wire> {
        Client::connect(addr).map(Wire)
    }

    /// Send one statement (or a `.stats` server command) and read its
    /// whole framed response.
    pub fn execute(&mut self, sql: &str) -> io::Result<Reply> {
        self.0.execute(sql).map(Reply::from)
    }
}

// ---------------------------------------------------------- in-process

/// Span names in pipeline order (the layer table prints in this order).
pub const SPAN_ORDER: &[&str] = &[
    "stmt",
    "sql.parse",
    "sql.lex",
    "sql.analyze",
    "engine.plan",
    "engine.exec",
    "engine.op.scan",
    "engine.op.filter",
    "engine.op.project",
    "engine.op.sort",
    "engine.op.hash_join",
    "engine.op.merge_join",
    "engine.op.nl_join",
    "engine.op.interval_join",
    "engine.op.aggregate",
    "engine.op.other",
    "core.adjust",
    "core.absorb",
    "core.insert",
    "server.encode",
];

/// The operator classes `engine.exec` is split into, by plan-node label.
const OPERATOR_CLASSES: &[(&str, &str)] = &[
    ("SeqScan", "engine.op.scan"),
    ("StorageScan", "engine.op.scan"),
    ("IndexScan", "engine.op.scan"),
    ("Filter", "engine.op.filter"),
    ("Project", "engine.op.project"),
    ("Sort", "engine.op.sort"),
    ("HashJoin", "engine.op.hash_join"),
    ("MergeJoin", "engine.op.merge_join"),
    ("NestedLoopJoin", "engine.op.nl_join"),
    ("IntervalJoin", "engine.op.interval_join"),
    ("HashAggregate", "engine.op.aggregate"),
    ("TemporalAligner", "core.adjust"),
    ("TemporalNormalizer", "core.adjust"),
    ("TemporalAntiAligner", "core.adjust"),
    ("Absorb", "core.absorb"),
];

fn operator_class(label: &str) -> &'static str {
    OPERATOR_CLASSES
        .iter()
        .find(|(prefix, _)| label.starts_with(prefix))
        .map_or("engine.op.other", |(_, class)| class)
}

/// Self time per node from the executor's inclusive per-node totals
/// (`nodes` in plan pre-order with depths), summed by operator class.
fn operator_self_times(nodes: &[(usize, &'static str, u64)]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (i, &(depth, class, inclusive)) in nodes.iter().enumerate() {
        let children: u64 = nodes[i + 1..]
            .iter()
            .take_while(|(d, _, _)| *d > depth)
            .filter(|(d, _, _)| *d == depth + 1)
            .map(|(_, _, ns)| ns)
            .sum();
        let own = inclusive.saturating_sub(children);
        match totals.iter_mut().find(|(c, _)| *c == class) {
            Some((_, ns)) => *ns += own,
            None => totals.push((class, own)),
        }
    }
    totals
}

/// What one traced statement did, beyond its spans.
#[derive(Debug)]
pub struct Traced {
    pub reply: Reply,
    /// Size of the encoded response.
    pub resp_bytes: usize,
    /// Rows the scans emitted (rows examined) and rows returned.
    pub scan_rows: u64,
    pub result_rows: u64,
    pub pages_read: u64,
    pub pages_skipped: u64,
}

/// The database directory opened in-process, with the session the server
/// would give a connection.
pub struct Local {
    db: Database,
    session: Session,
}

impl Local {
    /// `Database::open` (which replays the WAL a killed server left),
    /// timed.
    pub fn open(dir: &Path) -> Result<(Local, Duration), String> {
        let started = Instant::now();
        let db = Database::open(dir).map_err(|e| e.to_string())?;
        let took = started.elapsed();
        let session = Session::scoped(db.clone());
        Ok((Local { db, session }, took))
    }

    /// The untraced reference: exactly what the server runs per statement.
    pub fn execute_plain(&mut self, sql: &str) -> Result<(), String> {
        black_box(self.session.execute(sql).map_err(|e| e.to_string())?);
        Ok(())
    }

    /// One statement, stage by stage, the way `Session::execute` and the
    /// server's connection loop run it, with a span around each public
    /// call. `sql.parse` is `parse_statement`, lexing included, as the
    /// server runs it; `sql.lex` is an extra, standalone lexer pass after
    /// it (warm, so a lower bound on the lexer's share of `sql.parse`).
    pub fn execute_traced(
        &mut self,
        sql: &str,
        kind: &'static str,
        tracer: &mut Tracer,
    ) -> Result<Traced, String> {
        tracer.begin_stmt(kind);
        let traced = self.traced_inner(sql, tracer);
        // An early error return leaves spans open; close them so the
        // tracer stays usable (the caller counts the statement as failed).
        tracer.end_stmt();
        let (encoded, mut traced) = traced?;
        // Decode the bytes just encoded, outside the spans, so the
        // in-process result is checked in its wire form too.
        traced.reply = protocol::read_response(&mut encoded.as_slice())
            .map_err(|e| e.to_string())?
            .into();
        Ok(traced)
    }

    fn traced_inner(
        &mut self,
        sql: &str,
        tracer: &mut Tracer,
    ) -> Result<(Vec<u8>, Traced), String> {
        let stmt = tracer
            .span("sql.parse", || parse_statement(sql))
            .map_err(|e| e.to_string())?;
        tracer
            .span("sql.lex", || black_box(lex(sql)).map(drop))
            .map_err(|e| e.to_string())?;
        let mut traced = Traced {
            reply: Reply::Ok,
            resp_bytes: 0,
            scan_rows: 0,
            result_rows: 0,
            pages_read: 0,
            pages_skipped: 0,
        };
        let out = match stmt {
            Statement::Select(sel) => {
                let config = self.session.config();
                let physical: PhysicalPlan = self.db.read(|catalog, _| {
                    let plan = tracer
                        .span("sql.analyze", || Analyzer::new(catalog).analyze(&sel))
                        .map_err(|e| e.to_string())?;
                    tracer
                        .span("engine.plan", || Planner::new(config).plan(&plan, catalog))
                        .map_err(|e| e.to_string())
                })?;
                let state = ExecutionState::new(config).with_instrumentation();
                let rel = tracer
                    .span("engine.exec", || physical.collect(&state))
                    .map_err(|e| e.to_string())?;
                let mut nodes = Vec::new();
                for (depth, label, op) in physical.operator_stats(&state) {
                    let class = operator_class(&label);
                    if class == "engine.op.scan" {
                        traced.scan_rows += op.rows.load(Ordering::Relaxed);
                        traced.pages_read += op.pages_read.load(Ordering::Relaxed);
                        traced.pages_skipped += op.pages_skipped.load(Ordering::Relaxed);
                    }
                    nodes.push((depth, class, op.nanos.load(Ordering::Relaxed)));
                }
                tracer.attach_totals(&operator_self_times(&nodes));
                traced.result_rows = rel.len() as u64;
                SqlOutput::Rows(rel)
            }
            Statement::Insert { table, rows } => {
                // The literal check `Session` does for INSERT, under the
                // analyzer's name: it is the front end's share of a write.
                let rows = tracer.span("sql.analyze", || {
                    rows.into_iter()
                        .map(|vals| vals.into_iter().map(literal).collect::<Result<_, _>>())
                        .map(|vals| vals.map(Row::new))
                        .collect::<Result<Vec<Row>, String>>()
                })?;
                let n = tracer
                    .span("core.insert", || self.db.insert_rows(&table, rows))
                    .map_err(|e| e.to_string())?;
                SqlOutput::Affected(n)
            }
            other => return Err(format!("traced run does not cover {other:?}")),
        };
        let mut buf = Vec::new();
        tracer
            .span("server.encode", || protocol::write_output(&mut buf, &out))
            .map_err(|e| e.to_string())?;
        traced.resp_bytes = buf.len();
        Ok((buf, traced))
    }
}

fn literal(e: AstExpr) -> Result<Value, String> {
    Ok(match e {
        AstExpr::IntLit(v) => Value::Int(v),
        AstExpr::FloatLit(v) => Value::Double(v),
        AstExpr::StringLit(s) => Value::str(s),
        AstExpr::BoolLit(b) => Value::Bool(b),
        AstExpr::NullLit => Value::Null,
        other => return Err(format!("INSERT values must be literals, got {other:?}")),
    })
}

// ------------------------------------------- independent evaluations

fn int_schema(names: &[&str]) -> Schema {
    Schema::new(
        names
            .iter()
            .map(|n| Column::new(*n, DataType::Int))
            .collect(),
    )
}

fn incumben_relation(rows: &[IncRow]) -> TemporalRelation {
    TemporalRelation::from_rows(
        int_schema(&["ssn", "pcn"]),
        rows.iter()
            .map(|r| {
                (
                    vec![Value::Int(r[0]), Value::Int(r[1])],
                    Interval::of(r[2], r[3]),
                )
            })
            .collect(),
    )
    .expect("generated intervals are valid")
}

fn id_relation(rows: &[IdRow]) -> TemporalRelation {
    TemporalRelation::from_rows(
        int_schema(&["id"]),
        rows.iter()
            .map(|r| (vec![Value::Int(r[0])], Interval::of(r[1], r[2])))
            .collect(),
    )
    .expect("generated intervals are valid")
}

/// A temporal relation as wire rows (data columns, then ts, te).
fn wire_rows(rel: &TemporalRelation) -> Vec<WireRow> {
    rel.rows()
        .iter()
        .map(|row| {
            row.values()
                .iter()
                .map(|v| protocol::decode_field(&protocol::encode_value(v)))
                .collect()
        })
        .collect()
}

/// `SELECT <col>, ts, te FROM (inc r1 NORMALIZE inc r2 USING(<col>))`
/// by the eager, quadratic reference normalizer (`col`: 0 = ssn, 1 = pcn).
pub fn eager_self_normalize(rows: &[IncRow], col: usize) -> Vec<WireRow> {
    let normalized =
        self_normalize_ref(&incumben_relation(rows), &[col]).expect("reference normalize");
    wire_rows(&normalized)
        .into_iter()
        .map(|r| vec![r[col].clone(), r[2].clone(), r[3].clone()])
        .collect()
}

/// `pcn ϑᵀ count(*)` by the snapshot oracle: `(pcn, c, ts, te)`.
pub fn oracle_count_by_pcn(rows: &[IncRow]) -> Vec<WireRow> {
    let op = TemporalOp::Aggregation {
        group: vec![1],
        aggs: vec![(AggCall::count_star(), "c".to_string())],
    };
    wire_rows(&evaluate_oracle(&op, &[&incumben_relation(rows)]).expect("oracle aggregation"))
}

/// `inc ⟗ᵀ_{r.pcn = s.pcn} inc` by the snapshot oracle:
/// `(ssn, pcn, ssn, pcn, ts, te)`.
pub fn oracle_full_outer_join_on_pcn(rows: &[IncRow]) -> Vec<WireRow> {
    let rel = incumben_relation(rows);
    // θ sees the concatenated argument rows, timestamps included:
    // (ssn, pcn, ts, te, ssn, pcn, ts, te).
    let op = TemporalOp::FullOuterJoin {
        theta: Some(col(1).eq(col(5))),
    };
    wire_rows(&evaluate_oracle(&op, &[&rel, &rel]).expect("oracle full outer join"))
}

/// `r ⟕ᵀ_true s` by the snapshot oracle: `(r.id, s.id, ts, te)`.
pub fn oracle_left_outer_join_true(r: &[IdRow], s: &[IdRow]) -> Vec<WireRow> {
    let op = TemporalOp::LeftOuterJoin { theta: None };
    wire_rows(&evaluate_oracle(&op, &[&id_relation(r), &id_relation(s)]).expect("oracle left join"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_self_time_subtracts_direct_children_only() {
        // Sort(100) → HashJoin(70) → {Scan(20), Scan(30)}
        let nodes = [
            (0, "engine.op.sort", 100),
            (1, "engine.op.hash_join", 70),
            (2, "engine.op.scan", 20),
            (2, "engine.op.scan", 30),
        ];
        assert_eq!(
            operator_self_times(&nodes),
            vec![
                ("engine.op.sort", 30),
                ("engine.op.hash_join", 20),
                ("engine.op.scan", 50)
            ]
        );
    }

    #[test]
    fn plan_labels_map_to_classes() {
        assert_eq!(
            operator_class("StorageScan on t [8 pages]"),
            "engine.op.scan"
        );
        assert_eq!(
            operator_class("HashJoin[Left] on 2 key(s)"),
            "engine.op.hash_join"
        );
        assert_eq!(
            operator_class("TemporalNormalizer (plane sweep)"),
            "core.adjust"
        );
        assert_eq!(operator_class("Absorb (α): drop"), "core.absorb");
        assert_eq!(operator_class("Project"), "engine.op.project");
        assert_eq!(operator_class("Limit 3"), "engine.op.other");
        for (_, class) in OPERATOR_CLASSES {
            assert!(
                SPAN_ORDER.contains(class),
                "{class} missing from SPAN_ORDER"
            );
        }
    }
}
