//! Concurrent multi-client serving end to end (ISSUE 9): an in-process
//! `tsql --serve`-equivalent server is hammered by ≥ 8 concurrent
//! clients mixing `COPY`/`INSERT` appends with plain and alignment
//! (`NORMALIZE`) queries. Readers must observe a **consistent prefix**
//! of every writer's batches — never a torn batch — because each
//! statement pins a heap snapshot; the final state must equal the
//! serial oracle (the multiset a serial execution of the same batches
//! would produce) and survive a reopen. A proptest drives the same
//! snapshot-isolation property directly on [`Database`]: concurrent
//! readers against one appender only ever see whole batches.
//!
//! The hammer runs once per durability policy, `sync_mode = commit` and
//! `always` — under `always` the group-commit flusher batches the
//! per-record fsyncs too.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use proptest::prelude::*;
use temporal_alignment::prelude::*;
use temporal_alignment::server::{Client, Response, Server};

const WRITERS: usize = 4;
const READERS: usize = 4;
/// Appended batches per writer; half via INSERT, half via COPY.
const BATCHES: usize = 12;
/// Rows per batch — the unit readers must see atomically.
const BATCH: usize = 5;

/// A unique scratch directory for one test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("talign_server_tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The deterministic row for writer `w`, batch `s`, position `i` —
/// both the writers and the serial oracle derive rows from this.
fn row_for(w: usize, s: usize, i: usize) -> (i64, i64, i64, i64) {
    let ts = (s * BATCH + i) as i64;
    let te = ts + 1 + ((w + i) % 7) as i64;
    (w as i64, s as i64, ts, te)
}

/// Execute with a retry loop on writer-lock contention (`busy: …`),
/// which is a legitimate, retryable outcome for concurrent writers.
fn exec_retry(c: &mut Client, sql: &str) -> Response {
    loop {
        match c.execute(sql).expect("protocol I/O") {
            Response::Error(e) if e.contains("busy") => {
                thread::sleep(Duration::from_millis(5));
            }
            other => return other,
        }
    }
}

/// Assert the `(w, seq)` pairs of one observed scan form a consistent
/// prefix: per writer, whole batches only (multiples of [`BATCH`]) and
/// batch sequence numbers contiguous from 0.
fn assert_consistent_prefix(pairs: &[(i64, i64)], ctx: &str) {
    let mut per: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for &(w, s) in pairs {
        per.entry(w).or_default().push(s);
    }
    for (w, seqs) in per {
        assert_eq!(
            seqs.len() % BATCH,
            0,
            "{ctx}: torn batch for writer {w}: {} rows",
            seqs.len()
        );
        let k = (seqs.len() / BATCH) as i64;
        let mut counts = vec![0usize; k as usize];
        for s in seqs {
            assert!(
                (0..k).contains(&s),
                "{ctx}: writer {w} shows batch {s} but only {k} whole batches"
            );
            counts[s as usize] += 1;
        }
        for (s, n) in counts.iter().enumerate() {
            assert_eq!(
                *n, BATCH,
                "{ctx}: writer {w} batch {s} is partially visible"
            );
        }
    }
}

/// Parse a `(w, seq)` projection out of a `ROWS` response.
fn pairs_of(resp: Response, ctx: &str) -> Vec<(i64, i64)> {
    match resp {
        Response::Rows { rows, .. } => rows
            .iter()
            .map(|r| {
                let w = r[0].as_deref().unwrap().parse::<i64>().unwrap();
                let s = r[1].as_deref().unwrap().parse::<i64>().unwrap();
                (w, s)
            })
            .collect(),
        other => panic!("{ctx}: expected rows, got {other:?}"),
    }
}

/// ≥ 8 concurrent clients — 4 writers (INSERT and COPY), 4 readers
/// (plain scans + NORMALIZE alignment) — against one served database:
/// every read is a consistent prefix, the final state matches the
/// serial oracle, and the data survives a reopen. Once with a commit-time
/// fsync, once with every WAL record synced.
#[test]
fn eight_clients_hammer_one_server_against_the_serial_oracle() {
    for sync_mode in ["commit", "always"] {
        hammer(sync_mode);
    }
}

/// One hammer run with the shared database's WAL in `sync_mode`.
fn hammer(sync_mode: &str) {
    let dir = scratch(&format!("hammer-{sync_mode}"));
    let db = Database::open(&dir).expect("open db");
    db.sql(&format!("SET sync_mode = {sync_mode}"))
        .expect("set sync_mode");
    assert_eq!(
        db.sync_mode().map(|m| m.to_string()).as_deref(),
        Some(sync_mode)
    );
    db.sql("CREATE TABLE ev (w int, seq int, ts int, te int)")
        .expect("create");
    let server = Server::bind(db.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();
    let handle = server.spawn();
    let done = Arc::new(AtomicBool::new(false));

    let mut writers = Vec::new();
    for w in 0..WRITERS {
        let addr = addr.clone();
        let dir = dir.clone();
        writers.push(thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("writer connect");
            for s in 0..BATCHES {
                let affected = if s % 2 == 0 {
                    let vals: Vec<String> = (0..BATCH)
                        .map(|i| {
                            let (w, s, ts, te) = row_for(w, s, i);
                            format!("({w}, {s}, {ts}, {te})")
                        })
                        .collect();
                    exec_retry(
                        &mut c,
                        &format!("INSERT INTO ev VALUES {}", vals.join(", ")),
                    )
                } else {
                    let path = dir.join(format!("w{w}-s{s}.csv"));
                    let mut text = String::new();
                    for i in 0..BATCH {
                        let (w, s, ts, te) = row_for(w, s, i);
                        text.push_str(&format!("{w},{s},{ts},{te}\n"));
                    }
                    std::fs::write(&path, text).expect("write csv");
                    exec_retry(&mut c, &format!("COPY ev FROM '{}'", path.display()))
                };
                assert_eq!(
                    affected,
                    Response::Affected(BATCH as u64),
                    "writer {w} batch {s}"
                );
            }
            let _ = c.quit();
        }));
    }

    let mut readers = Vec::new();
    for r in 0..READERS {
        let addr = addr.clone();
        let done = Arc::clone(&done);
        readers.push(thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("reader connect");
            let mut sweeps = 0u32;
            while !done.load(Ordering::Acquire) || sweeps < 3 {
                sweeps += 1;
                // Plain scan: the statement's heap snapshot must be a
                // consistent prefix of every writer's batches.
                let pairs = pairs_of(
                    exec_retry(&mut c, "SELECT w, seq FROM ev"),
                    &format!("reader {r} scan"),
                );
                assert_consistent_prefix(&pairs, &format!("reader {r} scan {sweeps}"));
                // Alignment query: NORMALIZE self-join — both sides run
                // on the *same* statement snapshot, so the adjusted
                // output's (w, seq) lineage is still a consistent
                // prefix even while appends land mid-query.
                let aligned = pairs_of(
                    exec_retry(
                        &mut c,
                        "SELECT w, seq FROM (ev r1 NORMALIZE ev r2 USING(w)) x",
                    ),
                    &format!("reader {r} normalize"),
                );
                let mut distinct: BTreeMap<i64, std::collections::BTreeSet<i64>> = BTreeMap::new();
                for (w, s) in aligned {
                    distinct.entry(w).or_default().insert(s);
                }
                for (w, seqs) in distinct {
                    let k = seqs.len() as i64;
                    assert!(
                        seqs.iter().copied().eq(0..k),
                        "reader {r}: normalize saw non-prefix batches {seqs:?} for writer {w}"
                    );
                }
            }
            let _ = c.quit();
        }));
    }

    for t in writers {
        t.join().expect("writer thread");
    }
    done.store(true, Ordering::Release);
    for t in readers {
        t.join().expect("reader thread");
    }

    // Serial oracle: the final multiset must be exactly the rows a
    // serial execution of the same batches would have appended.
    let mut expect: BTreeMap<(i64, i64, i64, i64), usize> = BTreeMap::new();
    for w in 0..WRITERS {
        for s in 0..BATCHES {
            for i in 0..BATCH {
                *expect.entry(row_for(w, s, i)).or_default() += 1;
            }
        }
    }
    let mut c = Client::connect(&addr).expect("oracle connect");
    let got = match exec_retry(&mut c, "SELECT w, seq, ts, te FROM ev") {
        Response::Rows { rows, .. } => rows,
        other => panic!("oracle scan: {other:?}"),
    };
    assert_eq!(got.len(), WRITERS * BATCHES * BATCH, "final row count");
    let mut actual: BTreeMap<(i64, i64, i64, i64), usize> = BTreeMap::new();
    for row in got {
        let f = |i: usize| row[i].as_deref().unwrap().parse::<i64>().unwrap();
        *actual.entry((f(0), f(1), f(2), f(3))).or_default() += 1;
    }
    assert_eq!(
        actual, expect,
        "final state diverges from the serial oracle"
    );
    let _ = c.quit();
    handle.stop();

    // Durability: close and reopen the directory; the oracle holds.
    db.close().expect("close");
    drop(db);
    let db = Database::open(&dir).expect("reopen");
    let n = TemporalPlan::table(&db, "ev")
        .expect("table")
        .run(&db)
        .expect("run")
        .len();
    assert_eq!(n, WRITERS * BATCHES * BATCH, "rows after reopen");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scoped sessions keep the pools open for each other: closing the
/// database from one session while another is mid-stream must not break
/// the survivor (satellite: checkpoint-on-Drop only at last close).
#[test]
fn close_from_one_client_leaves_the_other_serving() {
    let dir = scratch("last-close");
    let db = Database::open(&dir).expect("open db");
    db.sql("CREATE TABLE t (x int, ts int, te int)")
        .expect("create");
    db.sql("INSERT INTO t VALUES (1, 0, 5), (2, 3, 9)")
        .expect("seed");
    let server = Server::bind(db.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();
    let handle = server.spawn();

    let mut a = Client::connect(&addr).expect("a");
    let mut b = Client::connect(&addr).expect("b");
    assert!(matches!(
        a.execute("SELECT x FROM t").unwrap(),
        Response::Rows { .. }
    ));
    // `close()` with live sessions checkpoints but leaves pools open.
    db.close().expect("close with live sessions");
    assert!(matches!(
        b.execute("SELECT x FROM t").unwrap(),
        Response::Rows { .. }
    ));
    assert_eq!(
        b.execute("INSERT INTO t VALUES (3, 1, 2)").unwrap(),
        Response::Affected(1)
    );
    let _ = a.quit();
    let _ = b.quit();
    handle.stop();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Snapshot isolation on [`Database`] directly: one appender commits
    /// whole batches while concurrent readers scan — every reader result
    /// is a batch-aligned prefix (length divisible by the batch size,
    /// values exactly `0..len` in append order).
    #[test]
    fn concurrent_readers_see_only_whole_batches(
        batch in 1usize..7,
        batches in 4usize..16,
        readers in 2usize..5,
    ) {
        let dir = scratch("proptest-snapshot");
        let db = Database::open(&dir).expect("open db");
        db.sql("CREATE TABLE t (x int, ts int, te int)").expect("create");
        let done = Arc::new(AtomicBool::new(false));

        let mut threads = Vec::new();
        for _ in 0..readers {
            let db = db.clone();
            let done = Arc::clone(&done);
            threads.push(thread::spawn(move || {
                let mut sweeps = 0u32;
                while !done.load(Ordering::Acquire) || sweeps < 2 {
                    sweeps += 1;
                    let rel = TemporalPlan::table(&db, "t")
                        .expect("table")
                        .run(&db)
                        .expect("run")
                        .into_rel();
                    assert_eq!(
                        rel.len() % batch,
                        0,
                        "reader saw a torn batch: {} rows, batch {batch}",
                        rel.len()
                    );
                    for (j, row) in rel.iter().enumerate() {
                        assert_eq!(
                            row.get(0),
                            &Value::Int(j as i64),
                            "reader prefix out of order at {j}"
                        );
                    }
                }
            }));
        }

        for b in 0..batches {
            let rows: Vec<Row> = (0..batch)
                .map(|i| {
                    let j = (b * batch + i) as i64;
                    Row::new(vec![Value::Int(j), Value::Int(j), Value::Int(j + 1)])
                })
                .collect();
            db.insert_rows("t", rows).expect("append batch");
        }
        done.store(true, Ordering::Release);
        for t in threads {
            t.join().expect("reader thread");
        }
        let rel = db.relation("t").unwrap();
        prop_assert_eq!(rel.len(), batch * batches);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
