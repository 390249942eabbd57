//! WAL-backed crash recovery end to end (ISSUE 8): committed work
//! survives a crash (simulated by leaking the `Database` so nothing is
//! flushed or checkpointed); a torn WAL tail — truncated at *every*
//! byte offset of the final records — recovers a prefix-consistent
//! state and never refuses to open; bit flips are detected and
//! truncated with a warning; missing storage files are a clear error;
//! `sync_mode` / `wal_checkpoint_pages` are settable through both
//! surfaces; the interval index (built in memory on the first probe) and
//! the zone maps answer `AS OF` timeslices and key lookups identically to
//! a brute-force oracle after recovery; and a directory whose log carries
//! another format version is refused at open and left byte-identical.

mod common;

use common::{as_of, physical};
use proptest::prelude::*;
use temporal_alignment::core::prelude::*;
use temporal_alignment::engine::prelude::*;
use temporal_alignment::engine::storage::SyncMode;
use temporal_alignment::sql::Session;
use temporal_datasets::{ddisj, deq, drand};

/// A unique scratch directory for one test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("talign_recovery_tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Rows of a plan over `table`, as plain vectors.
fn collect_rows(db: &Database, table: &str) -> Vec<Row> {
    TemporalPlan::table(db, table)
        .unwrap()
        .run(db)
        .unwrap()
        .rel()
        .rows()
        .to_vec()
}

/// An `(id, ts, te)` row matching the synthetic datasets' `r` schema.
fn row(id: i64, ts: i64, te: i64) -> Row {
    vec![Value::Int(id), Value::Int(ts), Value::Int(te)].into()
}

/// Crash the process image: leak the handle so neither the buffer pool
/// flush nor the `Drop` checkpoint runs — only what already reached the
/// heap files and the WAL survives, exactly like a `kill -9`.
fn crash(db: Database) {
    std::mem::forget(db);
}

/// Brute-force timeslice over the raw rows (trailing `ts`, `te`).
fn oracle_as_of(rows: &[Row], v: i64) -> Vec<Row> {
    rows.iter()
        .filter(|r| {
            let n = r.len();
            matches!((&r[n - 2], &r[n - 1]),
                (Value::Int(ts), Value::Int(te)) if *ts <= v && *te > v)
        })
        .cloned()
        .collect()
}

/// Execute `table AS OF v` and return the rows.
fn run_as_of(db: &Database, table: &str, v: i64) -> Vec<Row> {
    engine_rows(db, as_of(TemporalPlan::table(db, table).unwrap(), v))
}

/// Execute `plan` in the engine and return the rows — unlike
/// `TemporalPlan::run`, rows with NULL bounds come back too.
fn engine_rows(db: &Database, plan: TemporalPlan) -> Vec<Row> {
    let state = ExecutionState::new(db.config());
    physical(db, &plan).collect(&state).unwrap().rows().to_vec()
}

/// After recovery the pruned access paths (zone maps, interval index)
/// must answer timeslices identically to both the brute-force oracle
/// and the unpruned scan — i.e. the index built from the recovered heap
/// is consistent.
fn assert_pruning_consistent(db: &Database, table: &str, rows: &[Row], instants: &[i64]) {
    for &v in instants {
        let expected = oracle_as_of(rows, v);
        for (zm, ix) in [(true, true), (true, false), (false, true), (false, false)] {
            db.set("enable_zonemaps", zm, None).unwrap();
            db.set("enable_interval_index", ix, None).unwrap();
            let got = run_as_of(db, table, v);
            assert_eq!(
                got, expected,
                "{table} AS OF {v} drifted after recovery (zonemaps={zm}, index={ix})"
            );
        }
    }
    db.set("enable_zonemaps", true, None).unwrap();
    db.set("enable_interval_index", true, None).unwrap();
}

/// Committed inserts survive a crash: nothing was flushed or
/// checkpointed, so every row after the base registration exists only
/// in the WAL — reopen must replay them, and the index must see them.
/// Rows with a NULL key or a NULL start come back too, and `id = c`,
/// alone and `AS OF`, answers like the oracle under every pruning setting.
#[test]
fn committed_inserts_survive_a_crash() {
    let dir = scratch("crash-basic");
    let (base, _) = ddisj(50);
    let mut expected = base.rows().to_vec();

    let db = Database::open(&dir).unwrap();
    db.register("r", &base).unwrap();
    for i in 0..40 {
        let id = if i % 10 == 3 {
            Value::Null
        } else {
            Value::Int(1000 + i)
        };
        let ts = if i % 10 == 6 {
            Value::Null
        } else {
            Value::Int(7 * i)
        };
        let r: Row = vec![id, ts, Value::Int(7 * i + 5)].into();
        db.insert_rows("r", vec![r.clone()]).unwrap();
        expected.push(r);
    }
    crash(db);

    let db = Database::open(&dir).unwrap();
    assert_eq!(
        engine_rows(&db, TemporalPlan::table(&db, "r").unwrap()),
        expected,
        "recovery lost or reordered committed rows"
    );
    assert_pruning_consistent(&db, "r", &expected, &[0, 35, 140, 999, 100_000]);
    for c in [7, 1010, 1013, 1016, 5000] {
        for slice in [None, Some(70)] {
            let want: Vec<Row> = match slice {
                Some(v) => oracle_as_of(&expected, v),
                None => expected.clone(),
            }
            .into_iter()
            .filter(|r| r[0] == Value::Int(c))
            .collect();
            for (zm, ix) in [(true, true), (true, false), (false, true), (false, false)] {
                db.set("enable_zonemaps", zm, None).unwrap();
                db.set("enable_interval_index", ix, None).unwrap();
                let plan = TemporalPlan::table(&db, "r").unwrap();
                let plan = match slice {
                    Some(v) => as_of(plan, v),
                    None => plan,
                };
                let got = engine_rows(&db, plan.selection(col("id").eq(lit(c))).unwrap());
                assert_eq!(
                    got, want,
                    "id = {c}, AS OF {slice:?} (zonemaps={zm}, index={ix})"
                );
            }
        }
    }

    // A second crash-free reopen sees the checkpointed state unchanged
    // (recovery that did work checkpoints, so the WAL does not regrow).
    db.close().unwrap();
    let db = Database::open(&dir).unwrap();
    assert_eq!(
        engine_rows(&db, TemporalPlan::table(&db, "r").unwrap()),
        expected
    );
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recovery syncs each heap it replayed into once, when it closes it;
/// `Database::open`'s checkpoint then syncs each table once more. A
/// table the log does not touch is synced by the checkpoint alone.
#[test]
fn recovery_syncs_each_replayed_heap_once() {
    let dir = scratch("crash-syncs");
    let (base, _) = ddisj(20);
    let db = Database::open(&dir).unwrap();
    for name in ["a", "b", "untouched"] {
        db.register(name, &base).unwrap();
    }
    db.checkpoint().unwrap();
    for name in ["a", "b"] {
        db.insert_rows(name, vec![row(1_000, 0, 5)]).unwrap();
    }
    crash(db);

    let db = Database::open(&dir).unwrap();
    let syncs = db.metrics_snapshot().counters["pool.io_syncs"];
    // Two replayed heaps closed by recovery, three tables checkpointed.
    assert_eq!(
        syncs,
        2 + 3,
        "pool.io_syncs after replaying two of three tables"
    );
    assert_eq!(collect_rows(&db, "a").len(), 21);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Parse the WAL's frame boundaries: byte offsets where each record
/// starts, after the 8-byte file header. Frame = `[len u32][crc u32]
/// [lsn u64][payload]`.
fn frame_starts(wal: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut pos = 8;
    while pos + 16 <= wal.len() {
        starts.push(pos);
        let len = u32::from_le_bytes(wal[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 16 + len;
    }
    assert_eq!(pos, wal.len(), "seed WAL must end on a frame boundary");
    starts
}

/// Copy a database directory byte for byte.
fn copy_dir(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// The acceptance matrix for torn writes: a database whose WAL holds a
/// committed insert sequence, with the log truncated at **every** byte
/// offset spanning the last two records. Every truncation point must
/// (a) open without error and (b) recover the base table plus a prefix
/// of the insert sequence, with the prefix length non-decreasing in
/// the number of surviving bytes.
#[test]
fn torn_wal_tail_recovers_a_consistent_prefix_at_every_offset() {
    let seed_dir = scratch("torn-tail-seed");
    let (base, _) = ddisj(10);
    let base_rows = base.rows().to_vec();
    const INSERTS: i64 = 6;

    let db = Database::open(&seed_dir).unwrap();
    db.register("r", &base).unwrap();
    let mut inserted = Vec::new();
    for i in 0..INSERTS {
        let r = row(500 + i, 3 * i, 3 * i + 2);
        db.insert_rows("r", vec![r.clone()]).unwrap();
        inserted.push(r);
    }
    crash(db);

    let wal_path = seed_dir.join("wal.log");
    let wal = std::fs::read(&wal_path).unwrap();
    let starts = frame_starts(&wal);
    assert!(
        starts.len() >= 3,
        "expected TableUpsert + image + appends, got {} frames",
        starts.len()
    );
    // Cut everywhere inside the last two frames, plus the clean end.
    let first_cut = starts[starts.len() - 2];
    let mut last_prefix = 0usize;
    for cut in first_cut..=wal.len() {
        let case = scratch(&format!("torn-tail-{cut}"));
        copy_dir(&seed_dir, &case);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(case.join("wal.log"))
            .unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);

        // "Never refuse to open": a torn tail is truncated with a
        // warning, not reported as an error.
        let db = Database::open(&case)
            .unwrap_or_else(|e| panic!("cut at byte {cut} refused to open: {e}"));
        let rows = collect_rows(&db, "r");
        assert!(
            rows.len() >= base_rows.len(),
            "cut at {cut} lost base rows: {} < {}",
            rows.len(),
            base_rows.len()
        );
        let prefix = rows.len() - base_rows.len();
        assert!(
            prefix <= inserted.len(),
            "cut at {cut} invented rows: {prefix} > {}",
            inserted.len()
        );
        let mut expected = base_rows.clone();
        expected.extend_from_slice(&inserted[..prefix]);
        assert_eq!(
            rows, expected,
            "cut at {cut} is not a prefix of the committed sequence"
        );
        assert!(
            prefix >= last_prefix,
            "recovery went backwards at cut {cut}: {prefix} < {last_prefix}"
        );
        last_prefix = prefix;
        drop(db);
        std::fs::remove_dir_all(&case).unwrap();
    }
    assert_eq!(
        last_prefix,
        inserted.len(),
        "an untorn log must recover every committed insert"
    );
    std::fs::remove_dir_all(&seed_dir).unwrap();
}

/// A flipped bit mid-log fails the frame CRC: recovery truncates there
/// (keeping everything before) instead of refusing to open or replaying
/// garbage. A mangled file header starts a fresh log — the manifest
/// still opens the base table.
#[test]
fn corrupt_wal_is_truncated_never_fatal() {
    let seed_dir = scratch("flip-seed");
    let (base, _) = ddisj(10);
    let base_rows = base.rows().to_vec();

    let db = Database::open(&seed_dir).unwrap();
    db.register("r", &base).unwrap();
    for i in 0..4 {
        db.insert_rows("r", vec![row(900 + i, i, i + 1)]).unwrap();
    }
    crash(db);

    let wal_path = seed_dir.join("wal.log");
    let wal = std::fs::read(&wal_path).unwrap();
    let starts = frame_starts(&wal);

    // Flip a payload bit in the last frame: only that insert is lost.
    let flip_dir = scratch("flip-payload");
    copy_dir(&seed_dir, &flip_dir);
    let mut bytes = wal.clone();
    let off = starts[starts.len() - 1] + 16; // first payload byte
    bytes[off] ^= 0x40;
    std::fs::write(flip_dir.join("wal.log"), &bytes).unwrap();
    let db = Database::open(&flip_dir).unwrap();
    let rows = collect_rows(&db, "r");
    assert_eq!(
        rows.len(),
        base_rows.len() + 3,
        "a corrupt last record must truncate exactly there"
    );
    drop(db);
    std::fs::remove_dir_all(&flip_dir).unwrap();

    // Mangle the 8-byte header: nothing in the log can be trusted, so a
    // fresh log is started — but the manifest-registered table opens.
    let hdr_dir = scratch("flip-header");
    copy_dir(&seed_dir, &hdr_dir);
    let mut bytes = wal.clone();
    bytes[1] ^= 0xFF;
    std::fs::write(hdr_dir.join("wal.log"), &bytes).unwrap();
    let db = Database::open(&hdr_dir).unwrap();
    assert_eq!(
        collect_rows(&db, "r"),
        base_rows,
        "a mangled header must fall back to the persisted base state"
    );
    drop(db);
    std::fs::remove_dir_all(&hdr_dir).unwrap();
    std::fs::remove_dir_all(&seed_dir).unwrap();
}

/// A database directory missing a heap file the manifest references is
/// rejected with a clear error naming the file — not a panic, not a
/// silently empty table.
#[test]
fn missing_storage_files_are_a_clear_error() {
    let dir = scratch("missing-files");
    {
        let db = Database::open(&dir).unwrap();
        let (r, _) = ddisj(200);
        db.register("r", &r).unwrap();
        db.close().unwrap();
    }

    std::fs::remove_file(dir.join("r.heap")).unwrap();
    let err = Database::open(&dir).expect_err("open must reject a missing heap");
    let msg = err.to_string();
    assert!(
        msg.contains("missing storage file") && msg.contains("r.heap"),
        "unhelpful error: {msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The bytes of every file in `dir`, by name.
fn dir_bytes(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// A directory whose log carries another format version — an older
/// one or a newer one — is refused at open with an error naming both
/// versions, and every file in it is left as it was: its acknowledged,
/// un-checkpointed records are neither replayed nor discarded. With the
/// version restored, the same directory opens with every row.
#[test]
fn another_format_version_is_refused_and_left_untouched() {
    let seed_dir = scratch("version-seed");
    let (base, _) = ddisj(20);
    let mut expected = base.rows().to_vec();
    let db = Database::open(&seed_dir).unwrap();
    db.register("r", &base).unwrap();
    for i in 0..5 {
        let r = row(700 + i, 4 * i, 4 * i + 3);
        db.insert_rows("r", vec![r.clone()]).unwrap();
        expected.push(r);
    }
    crash(db);

    let current = temporal_store::FORMAT_VERSION;
    for version in [1, current + 1] {
        let dir = scratch(&format!("version-{version}"));
        copy_dir(&seed_dir, &dir);
        let wal = dir.join("wal.log");
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&wal, &bytes).unwrap();
        let before = dir_bytes(&dir);
        let msg = Database::open(&dir)
            .expect_err("another format version must be refused")
            .to_string();
        assert!(
            msg.contains(&format!("format version {version}"))
                && msg.contains(&format!("reads only version {current}")),
            "the error must name both versions: {msg}"
        );
        assert!(
            dir_bytes(&dir) == before,
            "a refused open changed the directory (version {version})"
        );
        bytes[4..8].copy_from_slice(&current.to_le_bytes());
        std::fs::write(&wal, &bytes).unwrap();
        let db = Database::open(&dir).unwrap();
        assert_eq!(collect_rows(&db, "r"), expected, "version {version}");
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&seed_dir).unwrap();
}

/// `SET sync_mode` round-trips through the SQL surface (including the
/// `off` spelling, which lexes as a boolean) and the frame surface, and
/// rejects junk — and unknown settings — with a helpful message.
#[test]
fn sync_mode_is_settable_through_both_surfaces() {
    let dir = scratch("sync-mode");
    let db = Database::open(&dir).unwrap();
    assert!(db.is_durable());
    assert!(db.sync_mode().is_some());

    let mut session = Session::with_database(db.clone());
    for (stmt, want) in [
        ("SET sync_mode = always", SyncMode::Always),
        ("SET sync_mode = commit", SyncMode::Commit),
        ("SET sync_mode = off", SyncMode::Off),
    ] {
        session.execute(stmt).unwrap();
        assert_eq!(db.sync_mode(), Some(want), "{stmt}");
    }
    db.set("sync_mode", "always", None).unwrap();
    assert_eq!(db.sync_mode(), Some(SyncMode::Always));

    let err = session.execute("SET sync_mode = bananas").unwrap_err();
    assert!(
        err.to_string().contains("off, commit or always"),
        "unhelpful error: {err}"
    );
    let err = db.set("no_such_setting", "x", None).unwrap_err();
    assert!(err.to_string().contains("no_such_setting"));
    // Integer settings the planner does not know (`threads` and
    // `parallel_min_rows` among them) are rejected in-band, and the session
    // keeps answering.
    session
        .execute("CREATE TABLE t (k int, ts int, te int)")
        .unwrap();
    session.execute("INSERT INTO t VALUES (1, 0, 5)").unwrap();
    for stmt in [
        "SET threads = 4",
        "SET parallel_min_rows = 1",
        "SET nonsense_guc = 4",
    ] {
        let err = session.execute(stmt).unwrap_err().to_string();
        assert!(
            err.contains("unknown integer planner setting"),
            "{stmt}: {err}"
        );
        assert_eq!(session.query("SELECT k FROM t").unwrap().len(), 1);
    }

    // In-memory databases accept the setting as an inert no-op and
    // report no mode at all.
    let mem = Database::new();
    assert_eq!(mem.sync_mode(), None);
    mem.set("sync_mode", "always", None).unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpoints bound the log: with `wal_checkpoint_pages = 1` a long
/// insert stream keeps `wal.log` small, and an explicit checkpoint
/// truncates it to a single record.
#[test]
fn checkpoints_bound_the_wal() {
    let dir = scratch("checkpoint-bound");
    let db = Database::open(&dir).unwrap();
    let (base, _) = ddisj(10);
    db.register("r", &base).unwrap();
    db.set("wal_checkpoint_pages", 1, None).unwrap();

    let wal_path = dir.join("wal.log");
    let mut peak = 0u64;
    for i in 0..600 {
        db.insert_rows("r", vec![row(i, i, i + 1)]).unwrap();
        peak = peak.max(std::fs::metadata(&wal_path).unwrap().len());
    }
    // 600 single-row inserts write well over two pages of log traffic;
    // the auto-checkpoint must have recycled it long before that.
    assert!(
        peak < 4 * 8192,
        "wal.log grew to {peak} bytes despite wal_checkpoint_pages = 1"
    );

    db.checkpoint().unwrap();
    let after = std::fs::metadata(&wal_path).unwrap().len();
    assert!(
        after < 64,
        "an explicit checkpoint must leave a near-empty log, got {after} bytes"
    );

    // And the checkpointed state is complete on reopen.
    let rows = collect_rows(&db, "r");
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(collect_rows(&db, "r"), rows);

    let err = db.set("wal_checkpoint_pages", 0, None).unwrap_err();
    assert!(err.to_string().contains("positive"), "{err}");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// DDL is redo-logged too: a table created (or dropped) right before a
/// crash exists (or stays gone) after reopen — a plain (non-temporal)
/// table with the rows its `INSERT`s logged.
#[test]
fn ddl_survives_a_crash() {
    let dir = scratch("ddl-crash");
    let (r, s) = ddisj(30);

    let db = Database::open(&dir).unwrap();
    db.register("keep", &r).unwrap();
    db.register("goner", &s).unwrap();
    assert!(db.drop_table("goner").unwrap());
    Session::with_database(db.clone())
        .execute("CREATE TABLE p (name str, n int) PERSISTED")
        .unwrap();
    let p: Vec<Row> = (0..60i64)
        .map(|i| vec![Value::str(format!("n{i}")), Value::Int(i * i)].into())
        .collect();
    for chunk in p.chunks(10) {
        db.insert_rows("p", chunk.to_vec()).unwrap();
    }
    crash(db);

    let db = Database::open(&dir).unwrap();
    assert_eq!(db.list_tables(), vec!["keep".to_string(), "p".to_string()]);
    assert_eq!(collect_rows(&db, "keep"), r.rows().to_vec());
    let mut session = Session::with_database(db.clone());
    assert_eq!(session.query("SELECT * FROM p").unwrap().rows().to_vec(), p);
    drop(session);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Crash recovery on the paper's synthetic datasets: register a
    /// base relation, append committed rows, crash, reopen — the
    /// recovered table equals base + inserts exactly, and the
    /// interval index / zone maps answer timeslices like the oracle.
    #[test]
    fn crash_recovery_round_trip_on_synthetic_datasets(
        n in 2usize..60,
        k in 1usize..30,
        seed in 0u64..1000,
    ) {
        for (name, rel) in [
            ("ddisj", ddisj(n).0),
            ("deq", deq(n).0),
            ("drand", drand(n, seed).0),
        ] {
            let dir = scratch(&format!("proptest-{name}"));
            let mut expected = rel.rows().to_vec();
            let db = Database::open(&dir).unwrap();
            db.register("t", &rel).unwrap();
            for i in 0..k as i64 {
                let r = row(10_000 + i, 11 * i, 11 * i + seed as i64 % 7 + 1);
                db.insert_rows("t", vec![r.clone()]).unwrap();
                expected.push(r);
            }
            crash(db);

            let db = Database::open(&dir).unwrap();
            prop_assert_eq!(
                collect_rows(&db, "t"), expected.clone(),
                "{} (n={}, k={}, seed={}) lost committed rows", name, n, k, seed
            );
            let probe = (seed % (25 * n as u64)) as i64;
            assert_pruning_consistent(&db, "t", &expected, &[0, probe, 50, 11 * k as i64]);
            drop(db);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
