//! A SQL session over the engine's shared [`Database`].
//!
//! The session owns no catalog or planner of its own: it wraps a
//! [`Database`] handle — the same object Rust `TemporalPlan`s run
//! against — so tables registered through either surface are visible to
//! both, and a `SET` statement reconfigures the one shared planner.
//! [`DatabaseSqlExt`] adds `db.sql("…")` directly on [`Database`], making
//! SQL a method call away from any plan code.

use std::sync::Arc;
use std::time::{Duration, Instant};

use temporal_core::trel::TemporalRelation;
use temporal_engine::exec::for_each_batch;
use temporal_engine::prelude::*;

use crate::analyzer::Analyzer;
use crate::ast::{AstExpr, CopyDirection, SelectStmt, Statement};
use crate::csv::{batch_from_csv, relation_to_csv};
use crate::error::{SqlError, SqlResult};
use crate::parser::parse_statement;

/// Result of executing a statement.
#[derive(Debug, Clone)]
pub enum SqlOutput {
    /// A query result.
    Rows(Relation),
    /// An EXPLAIN plan rendering.
    Explain(String),
    /// A statement with no result (e.g. SET, CREATE TABLE, DROP TABLE).
    Ok,
    /// A statement that affected `n` rows (e.g. COPY).
    Affected(usize),
}

/// Where [`Session::execute_into`] delivers a statement's outcome: a
/// SELECT's schema, then its batches as the executor yields them; any
/// other statement's one [`SqlOutput`]. An error a method returns stops
/// the statement and is the statement's error.
pub trait ResultSink {
    /// A SELECT's result schema, before its first batch.
    fn schema(&mut self, schema: &Schema) -> SqlResult<()>;
    /// The next batch of a SELECT's result (never empty).
    fn batch(&mut self, batch: RowBatch) -> SqlResult<()>;
    /// The outcome of a statement other than a SELECT.
    fn output(&mut self, out: SqlOutput) -> SqlResult<()>;
}

/// The sink behind [`Session::execute`]: a SELECT's batches collected
/// into one [`Relation`], or the statement's [`SqlOutput`].
#[derive(Default)]
struct Collect {
    schema: Option<Schema>,
    batches: Vec<RowBatch>,
    out: Option<SqlOutput>,
}

impl ResultSink for Collect {
    fn schema(&mut self, schema: &Schema) -> SqlResult<()> {
        self.schema = Some(schema.clone());
        Ok(())
    }

    fn batch(&mut self, batch: RowBatch) -> SqlResult<()> {
        self.batches.push(batch);
        Ok(())
    }

    fn output(&mut self, out: SqlOutput) -> SqlResult<()> {
        self.out = Some(out);
        Ok(())
    }
}

impl Collect {
    fn finish(self) -> SqlResult<SqlOutput> {
        match (self.schema, self.out) {
            (Some(schema), _) => Ok(SqlOutput::Rows(Relation::from_batches(
                schema,
                self.batches,
            )?)),
            (None, Some(out)) => Ok(out),
            (None, None) => Err(SqlError::Engine("statement produced no outcome".into())),
        }
    }
}

impl SqlOutput {
    /// Unwrap a row result.
    pub fn rows(self) -> SqlResult<Relation> {
        match self {
            SqlOutput::Rows(r) => Ok(r),
            other => Err(SqlError::Engine(format!(
                "statement did not produce rows: {other:?}"
            ))),
        }
    }
}

/// An interactive session (the paper's psql-with-extensions equivalent).
///
/// The session is a view over one shared [`Database`]: statements are
/// analyzed against its catalog and executed with its planner, and `SET`
/// mutates the shared planner configuration — so plans and other
/// sessions on the same database observe the change. (The [`Analyzer`] is
/// a zero-allocation view over the catalog and is constructed per
/// statement.)
///
/// [`Session::scoped`] builds the *server* flavor instead: planner `SET`s
/// apply to a per-session overlay (other connections are unaffected), and
/// the session registers itself with the database so a concurrent
/// `close()` leaves the buffer pools alone until the last connection
/// leaves. Storage-global settings (`sync_mode`, `wal_checkpoint_pages`)
/// stay shared either way — there is one WAL.
#[derive(Debug, Default, Clone)]
pub struct Session {
    db: Database,
    /// Per-session planner-config overlay: when `Some`, `SET` writes here
    /// and queries plan with it; the shared planner is untouched.
    local: Option<PlannerConfig>,
    /// Open-session registration (scoped sessions only); shared so the
    /// session stays `Clone`.
    _guard: Option<Arc<SessionGuard>>,
}

impl Session {
    /// A session over a fresh, private [`Database`].
    pub fn new() -> Session {
        Session::default()
    }

    /// A session over an existing [`Database`]: tables registered on `db`
    /// are queryable here, and vice versa.
    pub fn with_database(db: Database) -> Session {
        Session {
            db,
            local: None,
            _guard: None,
        }
    }

    /// A connection-scoped session over a shared [`Database`]: planner
    /// `SET` statements apply only to this session (seeded from the
    /// shared config at creation), and the session is counted in
    /// [`Database::open_sessions`] until dropped. This is what the server
    /// hands each client connection.
    pub fn scoped(db: Database) -> Session {
        let local = Some(db.config());
        let guard = Arc::new(db.open_session());
        Session {
            db,
            local,
            _guard: Some(guard),
        }
    }

    /// The shared database handle behind this session.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Register a relation — a plain `Relation`, or `&TemporalRelation`,
    /// whose ts/te columns become ordinary Int columns as in the paper's
    /// PostgreSQL implementation — as a table of the shared catalog. Rows
    /// are shared, not copied.
    pub fn register(&mut self, name: impl Into<String>, rel: impl Into<Relation>) -> SqlResult<()> {
        Ok(self.db.register(name, rel)?)
    }

    /// The planner configuration this session executes under: the local
    /// overlay for a [`Session::scoped`] session, the shared config
    /// otherwise.
    pub fn config(&self) -> PlannerConfig {
        match self.local {
            Some(cfg) => cfg,
            None => self.db.config(),
        }
    }

    /// Execute one statement and return its outcome, a SELECT's batches
    /// collected into one [`Relation`]: [`Session::execute_into`] with a
    /// collecting sink.
    pub fn execute(&mut self, sql: &str) -> SqlResult<SqlOutput> {
        let mut sink = Collect::default();
        self.execute_into(sql, &mut sink)?;
        sink.finish()
    }

    /// Execute one statement into `sink`: a SELECT's batches go to it as
    /// the executor yields them (the server encodes each onto the wire
    /// before the next is computed), any other statement's outcome once.
    /// Every statement's wall-time — a SELECT's including the time its
    /// sink takes — is recorded in the shared `session.statement_us`
    /// latency histogram (what the server's `.stats` reports percentiles
    /// over); the `trace` and `slow_query_ms` GUCs add spans /
    /// slow-statement logs on the query paths.
    pub fn execute_into(&mut self, sql: &str, sink: &mut dyn ResultSink) -> SqlResult<()> {
        let stmt = parse_statement(sql)?;
        let started = Instant::now();
        let out = self.run_statement(sql, stmt, sink);
        let metrics = self.db.metrics();
        metrics.counter("session.statements").inc();
        if out.is_err() {
            metrics.counter("session.errors").inc();
        }
        metrics
            .histogram("session.statement_us")
            .record(started.elapsed().as_micros() as u64);
        out
    }

    /// Post-execution observability for one executed query: emit
    /// query/operator spans while `trace` is on, and log an operator
    /// breakdown to stderr when the statement overran `slow_query_ms`.
    fn observe_query(
        &self,
        sql: &str,
        config: &PlannerConfig,
        elapsed: Duration,
        trace_start_us: Option<u64>,
        physical: &PhysicalPlan,
        state: &ExecutionState,
    ) {
        if config.slow_query_ms > 0 && elapsed.as_millis() >= config.slow_query_ms as u128 {
            eprintln!(
                "slow statement ({:.3} ms, slow_query_ms={}): {sql}\n{}",
                elapsed.as_secs_f64() * 1e3,
                config.slow_query_ms,
                physical.explain_analyze(state)
            );
        }
        let Some(t0) = trace_start_us else { return };
        let tracer = self.db.tracer();
        // Operator spans share the query's start offset (per-pull times
        // interleave; only totals are kept) and sit on depth lanes so
        // they stack under the query span in a trace viewer.
        for (depth, label, op) in physical.operator_stats(state) {
            tracer.record(Span {
                name: label,
                cat: "operator",
                start_us: t0,
                dur_us: op.micros(),
                tid: depth as u64 + 1,
            });
        }
        tracer.record_since(sql, "query", t0, 0);
    }

    /// Analyze and plan a SELECT under the shared lock; the caller
    /// executes after it is dropped (the physical plan captures its scans),
    /// so a long query never blocks concurrent registration or SET. A
    /// scoped session plans with its local config overlay.
    fn plan_select(&self, sel: &SelectStmt) -> SqlResult<PhysicalPlan> {
        let local = self.local;
        self.db.read(|catalog, shared| {
            let planner;
            let planner = match local {
                Some(cfg) => {
                    planner = Planner::new(cfg);
                    &planner
                }
                None => shared,
            };
            let plan = Analyzer::new(catalog).analyze(sel)?;
            planner.plan(&plan, catalog).map_err(SqlError::from)
        })
    }

    /// Plan and run a SELECT, handing `sink` its schema and then each
    /// batch as the executor yields it.
    fn run_select(
        &mut self,
        sql: &str,
        sel: &SelectStmt,
        sink: &mut dyn ResultSink,
    ) -> SqlResult<()> {
        let config = self.config();
        let trace_t0 = config.trace.then(|| self.db.tracer().now_us());
        let plan_t0 = trace_t0.map(|_| self.db.tracer().now_us());
        let physical = self.plan_select(sel)?;
        if let Some(t0) = plan_t0 {
            self.db.tracer().record_since("plan", "plan", t0, 0);
        }
        // `trace` and `slow_query_ms` both need per-operator numbers;
        // plain runs skip instrumentation entirely (the timing wrappers
        // are never built), keeping the hot path untouched.
        let observe = config.trace || config.slow_query_ms > 0;
        let state = if observe {
            ExecutionState::new(config).with_instrumentation()
        } else {
            ExecutionState::new(config)
        };
        let started = Instant::now();
        let mut root = physical.execute(&state)?;
        sink.schema(root.schema())?;
        for_each_batch(root.as_mut(), &state, |batch| sink.batch(batch))?;
        if observe {
            self.observe_query(sql, &config, started.elapsed(), trace_t0, &physical, &state);
        }
        Ok(())
    }

    fn run_statement(
        &mut self,
        sql: &str,
        stmt: Statement,
        sink: &mut dyn ResultSink,
    ) -> SqlResult<()> {
        let out = match stmt {
            Statement::Set { name, value } => {
                self.db
                    .set(&name, value, self.local.as_mut())
                    .map_err(|e| SqlError::Analyze(e.to_string()))?;
                Ok(SqlOutput::Ok)
            }
            Statement::Explain { analyze, query } => match *query {
                Statement::Select(sel) => {
                    let config = self.config();
                    let trace_t0 = (analyze && config.trace).then(|| self.db.tracer().now_us());
                    let physical = self.plan_select(&sel)?;
                    let text = if analyze {
                        // ANALYZE really executes (result discarded) with
                        // per-operator instrumentation — outside the shared
                        // lock, like any SELECT — then annotates the same
                        // tree EXPLAIN prints.
                        let state = ExecutionState::new(config).with_instrumentation();
                        let started = Instant::now();
                        physical.collect(&state).map_err(SqlError::from)?;
                        self.observe_query(
                            sql,
                            &config,
                            started.elapsed(),
                            trace_t0,
                            &physical,
                            &state,
                        );
                        physical.explain_analyze(&state)
                    } else {
                        physical.explain()
                    };
                    Ok(SqlOutput::Explain(text))
                }
                other => Err(SqlError::Analyze(format!(
                    "EXPLAIN supports SELECT statements, got {other:?}"
                ))),
            },
            Statement::Select(sel) => return self.run_select(sql, &sel, sink),
            Statement::CreateTable {
                name,
                columns,
                persisted,
            } => {
                if persisted && !self.db.is_durable() {
                    return Err(SqlError::Engine(
                        "CREATE TABLE ... PERSISTED requires a database opened on a storage \
                         directory (Database::open or tsql <dir> / .open <dir>)"
                            .into(),
                    ));
                }
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|(n, t)| Column::new(n, t))
                        .collect(),
                );
                // On a durable database register already writes the heap
                // file + manifest entry; PERSISTED only asserts that
                // durability is available.
                self.db.register(&name, Relation::empty(schema))?;
                Ok(SqlOutput::Ok)
            }
            Statement::DropTable { name } => {
                let existed = self.db.drop_table(&name)?;
                if !existed {
                    return Err(SqlError::Engine(format!("unknown table: {name}")));
                }
                Ok(SqlOutput::Ok)
            }
            Statement::Copy {
                table,
                path,
                direction,
            } => match direction {
                CopyDirection::From => {
                    let schema = self
                        .db
                        .read(|catalog, _| catalog.schema_of(&table))
                        .map_err(SqlError::from)?;
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| SqlError::Engine(format!("read {path}: {e}")))?;
                    // The whole file is parsed and checked before the
                    // first row is appended.
                    let batch = batch_from_csv(&text, &schema)?;
                    drop(text);
                    let n = self.db.insert_batch(&table, batch)?;
                    Ok(SqlOutput::Affected(n))
                }
                CopyDirection::To => {
                    let rel = self.db.relation(&table)?;
                    let n = rel.len();
                    std::fs::write(&path, relation_to_csv(&rel))
                        .map_err(|e| SqlError::Engine(format!("write {path}: {e}")))?;
                    Ok(SqlOutput::Affected(n))
                }
            },
            Statement::Insert { table, rows } => {
                let rows = rows
                    .into_iter()
                    .map(|vals| {
                        vals.into_iter()
                            .map(literal_value)
                            .collect::<SqlResult<Vec<_>>>()
                            .map(Row::new)
                    })
                    .collect::<SqlResult<Vec<_>>>()?;
                let n = self.db.insert_rows(&table, rows)?;
                Ok(SqlOutput::Affected(n))
            }
        };
        sink.output(out?)
    }

    /// Execute a query and return its rows.
    pub fn query(&mut self, sql: &str) -> SqlResult<Relation> {
        self.execute(sql)?.rows()
    }

    /// Execute a query whose result is a temporal relation (last two
    /// columns ts/te).
    pub fn query_temporal(&mut self, sql: &str) -> SqlResult<TemporalRelation> {
        Ok(TemporalRelation::new(self.query(sql)?)?)
    }

    /// EXPLAIN a query.
    pub fn explain(&mut self, sql: &str) -> SqlResult<String> {
        match self.execute(&format!("EXPLAIN {sql}"))? {
            SqlOutput::Explain(s) => Ok(s),
            _ => unreachable!("EXPLAIN produces Explain output"),
        }
    }

    /// EXPLAIN ANALYZE a query: execute it with per-operator
    /// instrumentation and return the annotated plan.
    pub fn explain_analyze(&mut self, sql: &str) -> SqlResult<String> {
        match self.execute(&format!("EXPLAIN ANALYZE {sql}"))? {
            SqlOutput::Explain(s) => Ok(s),
            _ => unreachable!("EXPLAIN ANALYZE produces Explain output"),
        }
    }
}

/// Evaluate one literal of an INSERT row (the parser only admits
/// literals, so this is total over what it produces).
fn literal_value(e: AstExpr) -> SqlResult<Value> {
    Ok(match e {
        AstExpr::IntLit(v) => Value::Int(v),
        AstExpr::FloatLit(v) => Value::Double(v),
        AstExpr::StringLit(s) => Value::str(s),
        AstExpr::BoolLit(b) => Value::Bool(b),
        AstExpr::NullLit => Value::Null,
        other => {
            return Err(SqlError::Analyze(format!(
                "INSERT values must be literals, got {other:?}"
            )))
        }
    })
}

/// SQL as a method on [`Database`]: Rust plans and `db.sql("…")` execute
/// against the same catalog and planner.
///
/// ```
/// use temporal_core::prelude::*;
/// use temporal_engine::prelude::*;
/// use temporal_sql::DatabaseSqlExt;
///
/// let db = Database::new();
/// let r = TemporalRelation::from_rows(
///     Schema::new(vec![Column::new("n", DataType::Str)]),
///     vec![(vec![Value::str("ann")], Interval::of(0, 7))],
/// )
/// .unwrap();
/// db.register("r", &r).unwrap();
/// // Registered via the Rust surface, queried via SQL:
/// let out = db.sql_rows("SELECT n FROM r WHERE n = 'ann'").unwrap();
/// assert_eq!(out.len(), 1);
/// ```
pub trait DatabaseSqlExt {
    /// Execute one SQL statement against this database.
    fn sql(&self, sql: &str) -> SqlResult<SqlOutput>;

    /// Execute a SQL query and return its rows.
    fn sql_rows(&self, sql: &str) -> SqlResult<Relation> {
        self.sql(sql)?.rows()
    }

    /// Execute a SQL query whose result is a temporal relation.
    fn sql_temporal(&self, sql: &str) -> SqlResult<TemporalRelation> {
        Ok(TemporalRelation::new(self.sql_rows(sql)?)?)
    }

    /// EXPLAIN a SQL query.
    fn sql_explain(&self, sql: &str) -> SqlResult<String> {
        match self.sql(&format!("EXPLAIN {sql}"))? {
            SqlOutput::Explain(s) => Ok(s),
            _ => unreachable!("EXPLAIN produces Explain output"),
        }
    }
}

impl DatabaseSqlExt for Database {
    fn sql(&self, sql: &str) -> SqlResult<SqlOutput> {
        Session::with_database(self.clone()).execute(sql)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temporal_core::interval::Interval;

    fn rel() -> TemporalRelation {
        TemporalRelation::from_rows(
            Schema::new(vec![Column::new("n", DataType::Str)]),
            vec![
                (vec![Value::str("ann")], Interval::of(0, 7)),
                (vec![Value::str("joe")], Interval::of(2, 5)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn sessions_share_one_database() {
        let db = Database::new();
        db.register("r", &rel()).unwrap();
        let mut a = Session::with_database(db.clone());
        let b = Session::with_database(db.clone());
        assert_eq!(a.query("SELECT n FROM r").unwrap().len(), 2);
        // SET through one session is visible through the other (one
        // shared planner).
        a.execute("SET enable_mergejoin = off").unwrap();
        assert!(!b.config().enable_mergejoin);
        db.set("enable_mergejoin", true, None).unwrap();
        assert!(a.config().enable_mergejoin);
    }

    #[test]
    fn insert_values_appends_rows() {
        let mut s = Session::new();
        s.execute("CREATE TABLE t (name str, x double, ts int, te int)")
            .unwrap();
        match s
            .execute("INSERT INTO t VALUES ('ann', 1.5, 0, 8), ('joe', NULL, -2, 6)")
            .unwrap()
        {
            SqlOutput::Affected(2) => {}
            other => panic!("expected INSERT 2, got {other:?}"),
        }
        let out = s.query("SELECT name, ts FROM t WHERE ts < 0").unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::str("joe"));
        // Arity mismatch errors without appending a prefix.
        assert!(s.execute("INSERT INTO t VALUES (1)").is_err());
        assert_eq!(s.query("SELECT * FROM t").unwrap().len(), 2);
        // Only literals are admitted.
        assert!(s.execute("INSERT INTO t VALUES (name, 1, 2, 3)").is_err());
    }

    #[test]
    fn scoped_sessions_keep_set_local_and_count_themselves() {
        let db = Database::new();
        db.register("r", &rel()).unwrap();
        let mut a = Session::scoped(db.clone());
        let b = Session::scoped(db.clone());
        assert_eq!(db.open_sessions(), 2);
        // SET in one scoped session is invisible to the other and to the
        // shared planner.
        a.execute("SET enable_mergejoin = off").unwrap();
        assert!(!a.config().enable_mergejoin);
        assert!(b.config().enable_mergejoin);
        assert!(db.config().enable_mergejoin);
        // Scoped sessions still query the shared catalog.
        assert_eq!(a.query("SELECT n FROM r").unwrap().len(), 2);
        drop(a);
        drop(b);
        assert_eq!(db.open_sessions(), 0);
    }

    #[test]
    fn db_sql_round_trip() {
        let db = Database::new();
        db.register("r", &rel()).unwrap();
        let out = db
            .sql_temporal("SELECT n, ts, te FROM r WHERE n = 'joe'")
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(db.sql("SET enable_hashjoin = off").is_ok());
        assert!(!db.config().enable_hashjoin);
        db.set("enable_hashjoin", true, None).unwrap();
    }

    #[test]
    fn create_copy_drop_round_trip() {
        let dir = std::env::temp_dir().join("talign_sql_session_tests_ddl");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = Session::new();
        s.execute("CREATE TABLE m (name str, x double, ts int, te int)")
            .unwrap();
        // Duplicate names error; unknown drops error.
        assert!(s.execute("CREATE TABLE m (y int)").is_err());
        assert!(s.execute("DROP TABLE nope").is_err());

        let csv = dir.join("m.csv");
        std::fs::write(&csv, "ann,1.5,0,8\njoe,,2,6\n").unwrap();
        match s
            .execute(&format!("COPY m FROM '{}'", csv.display()))
            .unwrap()
        {
            SqlOutput::Affected(2) => {}
            other => panic!("expected COPY 2, got {other:?}"),
        }
        let out = s.query("SELECT name FROM m WHERE x IS NULL").unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::str("joe"));

        // Export, reload into a second table, compare.
        let out_csv = dir.join("out.csv");
        s.execute(&format!("COPY m TO '{}'", out_csv.display()))
            .unwrap();
        s.execute("CREATE TABLE m2 (name str, x double, ts int, te int)")
            .unwrap();
        s.execute(&format!("COPY m2 FROM '{}'", out_csv.display()))
            .unwrap();
        let a = s.query("SELECT * FROM m").unwrap().sorted();
        let b = s.query("SELECT * FROM m2").unwrap().sorted();
        assert_eq!(a, b);

        s.execute("DROP TABLE m").unwrap();
        assert!(s.query("SELECT * FROM m").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_persisted_requires_and_uses_storage() {
        let dir = std::env::temp_dir().join("talign_sql_session_tests_persisted");
        let _ = std::fs::remove_dir_all(&dir);
        // In-memory database: PERSISTED refuses with a helpful error.
        let mut mem = Session::new();
        let err = mem
            .execute("CREATE TABLE t (a int) PERSISTED")
            .unwrap_err()
            .to_string();
        assert!(err.contains("storage directory"), "{err}");

        // Durable database: the heap file appears and survives reopen.
        let db = Database::open(&dir).unwrap();
        let mut s = Session::with_database(db);
        s.execute("CREATE TABLE t (name str, ts int, te int) PERSISTED")
            .unwrap();
        assert!(dir.join("t.heap").exists());
        let csv = dir.join("t.csv");
        std::fs::write(&csv, "ann,0,8\njoe,2,6\n").unwrap();
        s.execute(&format!("COPY t FROM '{}'", csv.display()))
            .unwrap();
        drop(s);

        let db = Database::open(&dir).unwrap();
        let mut s = Session::with_database(db);
        assert_eq!(s.query("SELECT * FROM t").unwrap().len(), 2);
        // The planner scans persisted tables as streaming page scans.
        let plan = s.explain("SELECT * FROM t").unwrap();
        assert!(plan.contains("StorageScan on t"), "{plan}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn register_takes_plain_and_temporal_relations() {
        let db = Database::new();
        let mut s = Session::with_database(db.clone());
        s.register("r", &rel()).unwrap();
        s.register("plain", rel().into_rel()).unwrap();
        assert_eq!(db.list_tables(), vec!["plain".to_string(), "r".to_string()]);
        let err = s.register("r", &rel()).unwrap_err().to_string();
        assert_eq!(err, "execution error: duplicate table: r");
    }
}
