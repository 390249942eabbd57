//! `tsql` — an interactive shell for the temporal SQL dialect, plus the
//! server and client modes for concurrent multi-client serving.
//!
//! ```text
//! cargo run -p temporal-server --bin tsql [--demo] [DIR]
//! cargo run -p temporal-server --bin tsql -- --serve DIR [--listen ADDR]
//! cargo run -p temporal-server --bin tsql -- --connect ADDR
//! ```
//!
//! With `--demo`, the paper's running example (relations `r` and `p`,
//! Fig. 1a, months numbered from 2012/1 = 0) and a small `incumben`-style
//! table are preloaded. With a `DIR` argument the shell opens (or
//! creates) the **persisted database** rooted at that directory: its
//! manifest's tables attach as heap-file-backed catalog entries and DDL
//! writes through to disk.
//!
//! `--serve DIR` opens the persisted database and accepts concurrent
//! clients on `ADDR` (default `127.0.0.1:5433`; an address containing
//! `/` binds a Unix socket). Each connection gets its own session:
//! planner `SET`s stay per-connection, readers run on heap snapshots,
//! and concurrent commits share WAL fsyncs (group commit). `--connect
//! ADDR` is the matching line-mode client.
//!
//! Statements end with `;`. Meta commands (local shell only):
//!
//! * `.tables` (or `\d`) — list tables,
//! * `.schema <t>` — show a table's columns,
//! * `.open <dir>` — attach the persisted database in `<dir>`,
//! * `.checkpoint` — flush everything and truncate the WAL,
//! * `.stats` — dump the metrics registry (also works over `--connect`:
//!   the server answers it with a name/value result),
//! * `.timer on|off` — print wall-time plus pool/WAL deltas after each
//!   statement,
//! * `.trace <file>` — dump recorded spans (`SET trace = on` records
//!   them) as chrome-trace JSON,
//! * `\q` — quit.
//!
//! Example session:
//!
//! ```text
//! tsql> .open /tmp/mydb
//! tsql> CREATE TABLE m (name str, ts int, te int) PERSISTED;
//! tsql> COPY m FROM 'rows.csv';
//! tsql> SELECT * FROM (m r1 NORMALIZE m r2 USING()) x;
//! ```

use std::io::{BufRead, Write};

use std::time::Instant;
use temporal_core::prelude::*;
use temporal_engine::prelude::*;

use temporal_server::{stats_relation, Client, Server};
use temporal_sql::{Session, SqlOutput};

/// Default TCP listen address for `--serve`.
const DEFAULT_LISTEN: &str = "127.0.0.1:5433";

fn demo_session() -> Session {
    use temporal_core::interval::month::ym;
    let mut session = Session::new();
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
    .expect("demo fixture");
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
    .expect("demo fixture");
    session.register("r", &r).expect("register r");
    session.register("p", &p).expect("register p");
    session
}

/// Handle a `.`/`\` meta command; returns `false` for `\q`.
fn meta_command(session: &mut Session, timer: &mut bool, line: &str) -> bool {
    let mut parts = line.split_whitespace();
    let cmd = parts.next().unwrap_or("");
    match cmd {
        "\\q" | ".quit" | ".exit" => return false,
        ".stats" => {
            println!("{}", stats_relation(session.database()).to_table());
        }
        ".timer" => match parts.next() {
            Some("on") => {
                *timer = true;
                println!("timer on");
            }
            Some("off") => {
                *timer = false;
                println!("timer off");
            }
            _ => println!("usage: .timer on|off"),
        },
        ".trace" => match parts.next() {
            None => println!("usage: .trace <file>  (spans record while `SET trace = on`)"),
            Some(path) => {
                let db = session.database();
                let spans = db.tracer().len();
                let dropped = db.tracer().dropped();
                match std::fs::write(path, db.tracer().chrome_trace_json()) {
                    Ok(()) => println!(
                        "wrote {spans} spans to {path} ({dropped} dropped); load it in a \
                         chrome-trace viewer"
                    ),
                    Err(e) => println!("error: write {path}: {e}"),
                }
            }
        },
        ".tables" | "\\d" => {
            let tables = session.database().list_tables();
            if tables.is_empty() {
                println!("(no tables — CREATE TABLE, .open <dir>, or start with --demo)");
            } else {
                for t in tables {
                    println!("{t}");
                }
            }
        }
        ".schema" => match parts.next() {
            None => println!("usage: .schema <table>"),
            Some(name) => {
                match session
                    .database()
                    .read(|catalog, _| catalog.schema_of(name))
                {
                    Ok(schema) => println!("{name} {schema}"),
                    Err(e) => println!("error: {e}"),
                }
            }
        },
        ".open" => match parts.next() {
            None => println!("usage: .open <dir>"),
            Some(dir) => match Database::open(dir) {
                Ok(db) => {
                    let n = db.list_tables().len();
                    *session = Session::with_database(db);
                    println!("opened {dir} ({n} tables)");
                }
                Err(e) => println!("error: {e}"),
            },
        },
        ".checkpoint" => match session.database().checkpoint() {
            Ok(()) => println!("checkpointed"),
            Err(e) => println!("error: {e}"),
        },
        other => println!("unknown meta command: {other}"),
    }
    true
}

/// `tsql --serve DIR [--listen ADDR]`: open the persisted database and
/// accept connections until killed.
fn serve(dir: &str, listen: &str) -> ! {
    let db = match Database::open(dir) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("error opening {dir}: {e}");
            std::process::exit(1);
        }
    };
    let tables = db.list_tables().len();
    let server = match Server::bind(db, listen) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error binding {listen}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "serving {dir} ({tables} tables) on {}; one session per connection",
        server.addr()
    );
    if let Err(e) = server.serve() {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// `tsql --connect ADDR`: line-mode remote REPL.
fn connect(addr: &str) -> ! {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error connecting to {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("connected to {addr}; statements end with ';', \\q quits");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    eprint!("tsql> ");
    std::io::stderr().flush().ok();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if buffer.is_empty() {
            if trimmed.is_empty() {
                eprint!("tsql> ");
                std::io::stderr().flush().ok();
                continue;
            }
            if trimmed == "\\q" {
                let _ = client.quit();
                break;
            }
            // Dot commands (`.stats`, …) go to the server as-is, no `;`.
            if trimmed.starts_with('.') {
                match client.execute(trimmed) {
                    Ok(resp) => println!("{}", resp.render()),
                    Err(e) => {
                        eprintln!("connection error: {e}");
                        std::process::exit(1);
                    }
                }
                eprint!("tsql> ");
                std::io::stderr().flush().ok();
                continue;
            }
        }
        // Multi-line entry folds onto one wire line (space-joined).
        if !buffer.is_empty() {
            buffer.push(' ');
        }
        buffer.push_str(trimmed);
        if !trimmed.ends_with(';') {
            eprint!("  ... ");
            std::io::stderr().flush().ok();
            continue;
        }
        let stmt = std::mem::take(&mut buffer);
        match client.execute(stmt.trim_end_matches(';')) {
            Ok(resp) => println!("{}", resp.render()),
            Err(e) => {
                eprintln!("connection error: {e}");
                std::process::exit(1);
            }
        }
        eprint!("tsql> ");
        std::io::stderr().flush().ok();
    }
    std::process::exit(0);
}

fn usage() -> ! {
    eprintln!(
        "usage: tsql [--demo] [DIR]\n       tsql --serve DIR [--listen ADDR]\n       tsql --connect ADDR"
    );
    std::process::exit(2);
}

fn main() {
    let mut demo = false;
    let mut dir: Option<String> = None;
    let mut serve_dir: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut connect_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--demo" => demo = true,
            "--serve" => match args.next() {
                Some(d) => serve_dir = Some(d),
                None => usage(),
            },
            "--listen" => match args.next() {
                Some(a) => listen = Some(a),
                None => usage(),
            },
            "--connect" => match args.next() {
                Some(a) => connect_addr = Some(a),
                None => usage(),
            },
            other if !other.starts_with('-') => dir = Some(other.to_string()),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    if let Some(addr) = connect_addr {
        connect(&addr);
    }
    if let Some(dir) = serve_dir {
        serve(&dir, listen.as_deref().unwrap_or(DEFAULT_LISTEN));
    }

    let mut session = if let Some(dir) = dir {
        match Database::open(&dir) {
            Ok(db) => {
                eprintln!(
                    "opened persisted database {dir} ({} tables)",
                    db.list_tables().len()
                );
                Session::with_database(db)
            }
            Err(e) => {
                eprintln!("error opening {dir}: {e}");
                std::process::exit(1);
            }
        }
    } else if demo {
        eprintln!("loaded demo tables: r (reservations), p (prices) — paper Fig. 1a");
        demo_session()
    } else {
        Session::new()
    };

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    let mut timer = false;
    eprint!("tsql> ");
    std::io::stderr().flush().ok();

    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if buffer.is_empty() {
            if trimmed.is_empty() {
                eprint!("tsql> ");
                std::io::stderr().flush().ok();
                continue;
            }
            if trimmed.starts_with('.') || trimmed.starts_with('\\') {
                if !meta_command(&mut session, &mut timer, trimmed) {
                    break;
                }
                eprint!("tsql> ");
                std::io::stderr().flush().ok();
                continue;
            }
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if !trimmed.ends_with(';') {
            eprint!("  ... ");
            std::io::stderr().flush().ok();
            continue;
        }
        let stmt = std::mem::take(&mut buffer);
        let before = timer.then(|| (Instant::now(), session.database().metrics_snapshot()));
        match session.execute(stmt.trim().trim_end_matches(';')) {
            Ok(SqlOutput::Rows(rel)) => println!("{}", rel.to_table()),
            Ok(SqlOutput::Explain(plan)) => println!("{plan}"),
            Ok(SqlOutput::Ok) => println!("OK"),
            Ok(SqlOutput::Affected(n)) => println!("AFFECTED {n}"),
            Err(e) => println!("error: {e}"),
        }
        if let Some((t0, snap0)) = before {
            let delta = session.database().metrics_snapshot().diff(&snap0);
            let counter = |name: &str| delta.counters.get(name).copied();
            let mut report = format!("Time: {:.3} ms", t0.elapsed().as_secs_f64() * 1e3);
            if let (Some(fetches), Some(reads)) =
                (counter("pool.fetches"), counter("pool.io_reads"))
            {
                report.push_str(&format!("  pool: +{fetches} fetches +{reads} reads"));
            }
            if let (Some(commits), Some(syncs)) = (counter("wal.commits"), counter("wal.syncs")) {
                report.push_str(&format!("  wal: +{commits} commits +{syncs} syncs"));
            }
            eprintln!("{report}");
        }
        eprint!("tsql> ");
        std::io::stderr().flush().ok();
    }
}
