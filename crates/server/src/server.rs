//! The serving loop: one shared [`Database`], one [`Session`] per
//! connection.
//!
//! The server binds either a TCP address (`host:port`) or — when the
//! address contains a `/` — a Unix-domain socket path. Each accepted
//! connection gets its own OS thread and its own [`Session::scoped`]:
//! planner `SET`s are connection-local, the session counts itself in
//! [`Database::open_sessions`] (so a concurrent `close()` or `Drop`
//! never tears the buffer pools out from under a live connection), and
//! all statements execute against the one shared catalog, buffer pool
//! and WAL.
//!
//! Concurrency comes from the layers below, not from the server:
//! readers run against statement-level heap snapshots and never take the
//! writer lock; writers serialize on the database writer mutex and batch
//! their WAL fsyncs through the group-commit flusher. The server itself
//! holds no locks across statements.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use temporal_engine::prelude::{Column, DataType, Database, Relation, Row, Schema, Value};
use temporal_sql::{Session, SqlOutput};

use crate::protocol;

/// Does `addr` name a Unix-domain socket (any address containing `/`)?
pub fn is_unix_addr(addr: &str) -> bool {
    addr.contains('/')
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// A bound, not-yet-running server. Call [`Server::serve`] to accept
/// connections (blocking), or [`Server::spawn`] to run it on a
/// background thread and keep a [`ServerHandle`] for shutdown.
pub struct Server {
    listener: Listener,
    db: Database,
    addr: String,
    stop: Arc<AtomicBool>,
}

/// Shutdown handle for a spawned server: [`ServerHandle::stop`] makes
/// the accept loop exit after at most one more connection.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: String,
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The concrete address the server listens on (the resolved port for
    /// `host:0` TCP binds, the path for Unix sockets).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Ask the accept loop to exit. Existing connections finish their
    /// current statement stream; the listener stops taking new ones.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Poke the listener so a blocked `accept` returns.
        if is_unix_addr(&self.addr) {
            let _ = UnixStream::connect(&self.addr);
        } else {
            let _ = TcpStream::connect(&self.addr);
        }
    }
}

impl Server {
    /// Bind `addr` (TCP `host:port`, or a Unix socket path if it
    /// contains `/`) over the shared database. A stale socket file from
    /// a previous run is removed before binding.
    pub fn bind(db: Database, addr: &str) -> std::io::Result<Server> {
        if is_unix_addr(addr) {
            let path = PathBuf::from(addr);
            // Best-effort cleanup of a leftover socket file; bind reports
            // the real error if the path is genuinely busy.
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)?;
            Ok(Server {
                listener: Listener::Unix(listener, path.clone()),
                db,
                addr: path.display().to_string(),
                stop: Arc::new(AtomicBool::new(false)),
            })
        } else {
            let listener = TcpListener::bind(addr)?;
            let addr = listener.local_addr()?.to_string();
            Ok(Server {
                listener: Listener::Tcp(listener),
                db,
                addr,
                stop: Arc::new(AtomicBool::new(false)),
            })
        }
    }

    /// The concrete bound address (see [`ServerHandle::addr`]).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A shutdown handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr.clone(),
            stop: Arc::clone(&self.stop),
        }
    }

    /// Accept connections until [`ServerHandle::stop`] is called,
    /// spawning one session thread per connection.
    pub fn serve(self) -> io::Result<()> {
        match self.listener {
            // TCP_NODELAY: a response is one write (or a few 64 KiB
            // ones), so Nagle has nothing to coalesce and can only hold a
            // reply back behind the peer's delayed ACK. A connection that
            // refuses the option still works, slower.
            Listener::Tcp(listener) => {
                accept_loop(&self.db, &self.stop, listener.incoming(), |s| {
                    let _ = s.set_nodelay(true);
                })
            }
            Listener::Unix(listener, path) => {
                accept_loop(&self.db, &self.stop, listener.incoming(), |_| {});
                let _ = std::fs::remove_file(&path);
            }
        }
        Ok(())
    }

    /// Run the accept loop on a background thread; returns the shutdown
    /// handle. Used by tests and by `tsql --serve` under the hood.
    pub fn spawn(self) -> ServerHandle {
        let handle = self.handle();
        thread::spawn(move || {
            let _ = self.serve();
        });
        handle
    }
}

/// The accept loop of either transport: one thread and one
/// [`Session::scoped`] per connection, reading and writing through the
/// same socket handle (`&TcpStream` and `&UnixStream` are both `Read` and
/// `Write`).
fn accept_loop<S>(
    db: &Database,
    stop: &AtomicBool,
    incoming: impl Iterator<Item = io::Result<S>>,
    configure: fn(&S),
) where
    S: Send + 'static,
    for<'a> &'a S: Read + Write,
{
    for stream in incoming {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        configure(&stream);
        let db = db.clone();
        thread::spawn(move || {
            let _ = serve_connection(
                Session::scoped(db),
                BufReader::new(&stream),
                BufWriter::with_capacity(RESPONSE_BUFFER_BYTES, &stream),
            );
        });
    }
}

/// Build the server's `.stats` result: one `(name, value)` row per
/// metric. Counters and gauges come from one [`Database::metrics_snapshot`]
/// — the registry the buffer pools and the WAL count `pool.*` / `wal.*`
/// into, beside the session's and the server's own instruments; the
/// ratios derived from that snapshot's counters — group-commit
/// fsyncs-per-commit and buffer-pool hit rate — and the
/// statement-latency percentiles (`session.statement_us.p50` …) are
/// appended after it.
pub fn stats_relation(db: &Database) -> Relation {
    let snap = db.metrics_snapshot();
    let mut pairs: Vec<(String, String)> = Vec::new();
    pairs.push(("active_sessions".into(), db.open_sessions().to_string()));
    for (k, v) in &snap.counters {
        pairs.push((k.clone(), v.to_string()));
    }
    for (k, v) in &snap.gauges {
        pairs.push((k.clone(), v.to_string()));
    }
    let counter = |name: &str| snap.counters.get(name).copied();
    if let (Some(commits), Some(syncs)) = (counter("wal.commits"), counter("wal.syncs")) {
        // Fsyncs per commit; 0 before the first commit.
        let ratio = if commits == 0 {
            0.0
        } else {
            syncs as f64 / commits as f64
        };
        pairs.push(("wal.group_commit_ratio".into(), format!("{ratio:.3}")));
    }
    if let (Some(fetches), Some(reads)) = (counter("pool.fetches"), counter("pool.io_reads")) {
        // Fetches served without a disk read; 1 before the first fetch.
        let hit_rate = if fetches == 0 {
            1.0
        } else {
            1.0 - reads.min(fetches) as f64 / fetches as f64
        };
        pairs.push(("pool.hit_rate".into(), format!("{hit_rate:.3}")));
    }
    let pct = |p: Option<u64>| p.map_or("-".to_string(), |v| v.to_string());
    for (k, h) in &snap.histograms {
        pairs.push((format!("{k}.count"), h.count.to_string()));
        pairs.push((format!("{k}.p50"), pct(h.p50)));
        pairs.push((format!("{k}.p95"), pct(h.p95)));
        pairs.push((format!("{k}.p99"), pct(h.p99)));
    }
    let schema = Schema::new(vec![
        Column::new("name", DataType::Str),
        Column::new("value", DataType::Str),
    ]);
    let rows = pairs
        .into_iter()
        .map(|(n, v)| Row::new(vec![Value::str(n), Value::str(v)]))
        .collect();
    Relation::new(schema, rows).expect("stats relation is well-formed")
}

/// Capacity of a connection's response buffer: a reply up to this size
/// leaves in one `write`, a larger one in pieces of this size, so a
/// connection never holds more than this of an encoded result.
const RESPONSE_BUFFER_BYTES: usize = 64 * 1024;

/// Drive one connection: read a statement per line, execute it on the
/// connection's session, write one framed response while it executes.
/// Lines starting with `.` are server commands (currently `.stats`);
/// everything else is SQL. Errors are reported in-band as `ERR …`; only
/// I/O failures (a client gone mid-reply among them) end the loop early.
/// `writer` must buffer: the response goes into it field by field and is
/// flushed once per statement.
fn serve_connection<R: BufRead, W: Write>(
    mut session: Session,
    reader: R,
    mut writer: W,
) -> io::Result<()> {
    session
        .database()
        .metrics()
        .counter("server.connections")
        .inc();
    let statements = session.database().metrics().counter("server.statements");
    for line in reader.lines() {
        let line = line?;
        let stmt = line.trim();
        if stmt.is_empty() {
            continue;
        }
        if stmt == "\\q" {
            break;
        }
        if let Some(cmd) = stmt.strip_prefix('.') {
            match cmd.split_whitespace().next() {
                Some("stats") => {
                    let rel = stats_relation(session.database());
                    protocol::write_output(&mut writer, &SqlOutput::Rows(rel))?;
                }
                _ => protocol::write_error(
                    &mut writer,
                    &format!("unknown server command .{cmd} (supported: .stats)"),
                )?,
            }
            writer.flush()?;
            continue;
        }
        let stmt = stmt.trim_end_matches(';').trim();
        statements.inc();
        // Each batch is encoded as the executor yields it; the buffer
        // writes itself out whenever it fills and is flushed once at the
        // statement's end, so a small reply is still one write.
        let mut reply = protocol::ReplyWriter::new(&mut writer);
        let result = session.execute_into(stmt, &mut reply);
        reply.finish(result)?;
        writer.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::Response;

    #[test]
    fn tcp_server_round_trip() {
        let db = Database::default();
        let server = Server::bind(db, "127.0.0.1:0").expect("bind");
        let addr = server.addr().to_string();
        let handle = server.spawn();

        let mut c = Client::connect(&addr).expect("connect");
        assert_eq!(
            c.execute("CREATE TABLE t (name str, ts int, te int)")
                .unwrap(),
            Response::Ok
        );
        assert_eq!(
            c.execute("INSERT INTO t VALUES ('ann', 0, 7), ('joe', 1, 5);")
                .unwrap(),
            Response::Affected(2)
        );
        match c.execute("SELECT name FROM t ORDER BY name").unwrap() {
            Response::Rows { columns, rows } => {
                assert_eq!(columns, vec!["name"]);
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0].as_deref(), Some("ann"));
            }
            other => panic!("expected rows, got {other:?}"),
        }
        match c.execute("SELECT nope FROM t").unwrap() {
            Response::Error(msg) => assert!(!msg.is_empty(), "error should carry a message"),
            other => panic!("expected error, got {other:?}"),
        }
        handle.stop();
    }

    /// `i64::MIN / -1` overflows: the statement fails in-band (it is
    /// folded while planning) and the same connection answers the next
    /// statement. So does a `SET` of a setting that does not exist.
    #[test]
    fn integer_overflow_is_an_error_reply_not_a_dropped_connection() {
        let handle = Server::bind(Database::default(), "127.0.0.1:0")
            .expect("bind")
            .spawn();
        let mut c = Client::connect(handle.addr()).expect("connect");
        c.execute("CREATE TABLE t (x int, ts int, te int)").unwrap();
        c.execute("INSERT INTO t VALUES (1, 0, 2)").unwrap();
        for q in [
            "SELECT (0 - 9223372036854775807 - 1) / -1 FROM t",
            "SELECT (x - 9223372036854775807 - 2) / -1 FROM t",
        ] {
            match c.execute(q).unwrap() {
                Response::Error(msg) => assert!(msg.contains("integer overflow"), "{q}: {msg}"),
                other => panic!("{q}: expected an error, got {other:?}"),
            }
        }
        match c.execute("SET threads = 4").unwrap() {
            Response::Error(msg) => assert!(
                msg.contains("unknown integer planner setting 'threads'"),
                "{msg}"
            ),
            other => panic!("expected an error, got {other:?}"),
        }
        match c.execute("SELECT x FROM t").unwrap() {
            Response::Rows { rows, .. } => assert_eq!(rows, vec![vec![Some("1".to_string())]]),
            other => panic!("expected rows, got {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn a_mistyped_insert_is_an_error_reply_and_the_session_goes_on() {
        let handle = Server::bind(Database::default(), "127.0.0.1:0")
            .expect("bind")
            .spawn();
        let mut c = Client::connect(handle.addr()).expect("connect");
        c.execute("CREATE TABLE t (x int, ts int, te int)").unwrap();
        for q in [
            "INSERT INTO t VALUES ('abc', 0, 5)",
            "INSERT INTO t VALUES (1, 'z', 5)",
        ] {
            match c.execute(q).unwrap() {
                Response::Error(msg) => assert!(msg.contains("row 0: column"), "{q}: {msg}"),
                other => panic!("{q}: expected an error, got {other:?}"),
            }
        }
        c.execute("INSERT INTO t VALUES (1, 0, 2)").unwrap();
        match c.execute("SELECT x FROM t").unwrap() {
            Response::Rows { rows, .. } => assert_eq!(rows, vec![vec![Some("1".to_string())]]),
            other => panic!("expected rows, got {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn unix_socket_server_round_trip() {
        let dir = std::env::temp_dir().join(format!("tsql-sock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("db.sock");
        let addr = sock.display().to_string();
        assert!(is_unix_addr(&addr));

        let db = Database::default();
        let handle = Server::bind(db, &addr).expect("bind unix").spawn();
        let mut c = Client::connect(&addr).expect("connect unix");
        assert_eq!(
            c.execute("CREATE TABLE u (x int, ts int, te int)").unwrap(),
            Response::Ok
        );
        assert_eq!(
            c.execute("INSERT INTO u VALUES (1, 0, 2)").unwrap(),
            Response::Affected(1)
        );
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// 200 request/response round trips must not each wait out a kernel
    /// timer: with the request split over two writes and Nagle on, every
    /// statement stalls ~44 ms behind the peer's delayed ACK (≈ 8.8 s here).
    fn assert_200_statements_are_quick(addr: &str) {
        let mut c = Client::connect(addr).expect("connect");
        assert_eq!(
            c.execute("CREATE TABLE q (x int, ts int, te int)").unwrap(),
            Response::Ok
        );
        assert_eq!(
            c.execute("INSERT INTO q VALUES (1, 0, 2)").unwrap(),
            Response::Affected(1)
        );
        let started = std::time::Instant::now();
        for _ in 0..200 {
            match c.execute("SELECT x FROM q").unwrap() {
                Response::Rows { rows, .. } => assert_eq!(rows.len(), 1),
                other => panic!("expected rows, got {other:?}"),
            }
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "200 trivial statements took {elapsed:?}"
        );
        c.quit().unwrap();
    }

    #[test]
    fn two_hundred_statements_do_not_stall_on_the_wire() {
        let tcp = Server::bind(Database::default(), "127.0.0.1:0")
            .expect("bind")
            .spawn();
        assert_200_statements_are_quick(tcp.addr());
        tcp.stop();

        let dir = std::env::temp_dir().join(format!("tsql-quick-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr = dir.join("db.sock").display().to_string();
        let unix = Server::bind(Database::default(), &addr)
            .expect("bind unix")
            .spawn();
        assert_200_statements_are_quick(&addr);
        unix.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A reply several response buffers long arrives whole and equal to
    /// what the same statement returns in-process, and the connection
    /// keeps serving afterwards.
    #[test]
    fn large_reply_round_trips_equal_to_the_in_process_relation() {
        let db = Database::default();
        let mut local = Session::with_database(db.clone());
        local
            .execute("CREATE TABLE big (name str, n int, ts int, te int)")
            .unwrap();
        for chunk in 0..10 {
            let values: Vec<String> = (chunk * 500..(chunk + 1) * 500)
                .map(|i| format!("('row\t{i} of the large reply', {i}, {i}, {})", i + 3))
                .collect();
            local
                .execute(&format!("INSERT INTO big VALUES {}", values.join(", ")))
                .unwrap();
        }
        let query = "SELECT name, n, ts, te FROM big ORDER BY n";
        let SqlOutput::Rows(expected) = local.execute(query).unwrap() else {
            panic!("expected rows in-process");
        };
        let expected: Vec<Vec<Option<String>>> = expected
            .iter()
            .map(|row| {
                row.values()
                    .iter()
                    .map(|v| protocol::decode_field(&protocol::encode_value(v)))
                    .collect()
            })
            .collect();
        let bytes: usize = expected.iter().flatten().flatten().map(String::len).sum();
        assert!(bytes >= 100 * 1024, "reply carries only {bytes} bytes");

        let handle = Server::bind(db, "127.0.0.1:0").expect("bind").spawn();
        let mut c = Client::connect(handle.addr()).expect("connect");
        for _ in 0..2 {
            match c.execute(query).unwrap() {
                Response::Rows { columns, rows } => {
                    assert_eq!(columns, vec!["name", "n", "ts", "te"]);
                    assert_eq!(rows, expected);
                }
                other => panic!("expected rows, got {other:?}"),
            }
            match c.execute("SELECT n FROM big WHERE n = 7").unwrap() {
                Response::Rows { rows, .. } => assert_eq!(rows, vec![vec![Some("7".into())]]),
                other => panic!("expected rows, got {other:?}"),
            }
        }
        handle.stop();
    }

    /// `big(name, n, ts, te)`: `rows` rows of ≈ 50 bytes on the wire each,
    /// `n` = the row's position, except the last row's `n`, which is
    /// `last_n`.
    fn big_table(db: &Database, rows: i64, last_n: i64) {
        let schema = Schema::new(vec![
            Column::new("name", DataType::Str),
            Column::new("n", DataType::Int),
            Column::new("ts", DataType::Int),
            Column::new("te", DataType::Int),
        ]);
        let rows = (0..rows)
            .map(|i| {
                let n = if i + 1 == rows { last_n } else { i };
                Row::new(vec![
                    Value::str(format!("row {i} of a reply several buffers long")),
                    Value::Int(n),
                    Value::Int(i),
                    Value::Int(i + 3),
                ])
            })
            .collect();
        db.register("big", Relation::new(schema, rows).unwrap())
            .unwrap();
    }

    /// Everything the server answers to `stmt` on a fresh connection
    /// that quits after it.
    fn raw_reply(addr: &str, stmt: &str) -> Vec<u8> {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(format!("{stmt}\n\\q\n").as_bytes()).unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        out
    }

    /// A statement whose last batch overflows fails after more than a
    /// response buffer of its rows went out: the client reports the
    /// error, not the partial rows, and the connection goes on.
    #[test]
    fn a_statement_failing_after_its_first_rows_is_an_error_reply() {
        let db = Database::default();
        big_table(&db, 5_000, i64::MAX / 2 + 1);
        let handle = Server::bind(db, "127.0.0.1:0").expect("bind").spawn();
        let query = "SELECT name, n * 2 FROM big";

        let raw = raw_reply(handle.addr(), query);
        let text = String::from_utf8(raw).unwrap();
        let (rows, trailer) = text.split_once("\n\\.\n").expect("an end-of-rows line");
        assert!(rows.starts_with("ROWS 2\nname\t"), "{}", &rows[..40]);
        assert!(rows.len() > RESPONSE_BUFFER_BYTES, "{} bytes", rows.len());
        assert!(
            trailer.starts_with("ERR ") && trailer.contains("integer overflow"),
            "{trailer}"
        );

        let mut c = Client::connect(handle.addr()).expect("connect");
        match c.execute(query).unwrap() {
            Response::Error(msg) => assert!(msg.contains("integer overflow"), "{msg}"),
            other => panic!("expected an error, got {other:?}"),
        }
        match c.execute("SELECT n FROM big WHERE n = 7").unwrap() {
            Response::Rows { rows, .. } => assert_eq!(rows, vec![vec![Some("7".into())]]),
            other => panic!("expected rows, got {other:?}"),
        }
        handle.stop();
    }

    /// A statement that fails before its first row answers one plain
    /// `ERR` line, exactly the statement's error escaped.
    #[test]
    fn a_statement_failing_before_its_first_row_is_a_plain_err_line() {
        let db = Database::default();
        big_table(&db, 3, i64::MAX);
        let query = "SELECT n + 1 FROM big WHERE n > 5";
        let err = Session::with_database(db.clone())
            .execute(query)
            .unwrap_err();
        let mut want = Vec::new();
        protocol::write_error(&mut want, &err.to_string()).unwrap();
        let line = String::from_utf8(want.clone()).unwrap();
        assert!(line.starts_with("ERR execution error: "), "{line}");
        assert!(line.contains("integer overflow"), "{line}");

        let handle = Server::bind(db, "127.0.0.1:0").expect("bind").spawn();
        assert_eq!(raw_reply(handle.addr(), query), want);
        handle.stop();
    }

    /// Values that look like the framing's own lines travel as data.
    #[test]
    fn framing_words_round_trip_as_values() {
        let values = [
            Value::str("END"),
            Value::str("\\."),
            Value::str("ERR x"),
            Value::str("\\N"),
            Value::Null,
            Value::str(""),
            Value::str("END 6"),
        ];
        let db = Database::default();
        let schema = Schema::new(vec![Column::new("v", DataType::Str)]);
        let rows = values.iter().map(|v| Row::new(vec![v.clone()])).collect();
        db.register("w", Relation::new(schema, rows).unwrap())
            .unwrap();
        let handle = Server::bind(db, "127.0.0.1:0").expect("bind").spawn();
        let mut c = Client::connect(handle.addr()).expect("connect");
        let want: Vec<Vec<Option<String>>> = values
            .iter()
            .map(|v| match v {
                Value::Str(s) => vec![Some(s.to_string())],
                _ => vec![None],
            })
            .collect();
        for _ in 0..2 {
            match c.execute("SELECT v FROM w").unwrap() {
                Response::Rows { columns, rows } => {
                    assert_eq!(columns, vec!["v"]);
                    assert_eq!(rows, want);
                }
                other => panic!("expected rows, got {other:?}"),
            }
        }
        handle.stop();
    }

    /// A client that leaves in the middle of a reply ends its own
    /// connection — its session closes — and no other.
    #[test]
    fn a_client_leaving_mid_reply_ends_only_its_connection() {
        let db = Database::default();
        big_table(&db, 8_000, 7_999);
        let handle = Server::bind(db.clone(), "127.0.0.1:0")
            .expect("bind")
            .spawn();
        let mut stays = Client::connect(handle.addr()).expect("connect");
        assert_eq!(
            stays.execute("SET enable_mergejoin = off").unwrap(),
            Response::Ok
        );
        for _ in 0..3 {
            let mut leaves = TcpStream::connect(handle.addr()).expect("connect");
            leaves
                .write_all(b"SELECT name, n, ts, te FROM big\n")
                .unwrap();
            let mut first = [0u8; 7];
            leaves.read_exact(&mut first).unwrap();
            assert_eq!(&first, b"ROWS 4\n");
            drop(leaves);
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while db.open_sessions() > 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "{} sessions still open",
                db.open_sessions()
            );
            thread::sleep(std::time::Duration::from_millis(5));
        }
        match stays.execute("SELECT count(*) FROM big").unwrap() {
            Response::Rows { rows, .. } => assert_eq!(rows, vec![vec![Some("8000".into())]]),
            other => panic!("expected rows, got {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn sessions_do_not_share_planner_sets() {
        let db = Database::default();
        let handle = Server::bind(db, "127.0.0.1:0").expect("bind").spawn();
        let addr = handle.addr().to_string();

        let mut a = Client::connect(&addr).unwrap();
        let mut b = Client::connect(&addr).unwrap();
        assert_eq!(
            a.execute("SET enable_mergejoin = off").unwrap(),
            Response::Ok
        );
        // A planner SET on a scoped session lands in the per-connection
        // overlay, so b keeps the shared default and both keep working.
        assert_eq!(
            b.execute("SET enable_mergejoin = on").unwrap(),
            Response::Ok
        );
        match a.execute("SET not_a_guc = on").unwrap() {
            Response::Error(msg) => assert!(msg.contains("not_a_guc")),
            other => panic!("expected error, got {other:?}"),
        }
        handle.stop();
    }
}
