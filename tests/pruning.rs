//! Page pruning end to end (ISSUE 7): per-page zone maps and the
//! in-memory interval index must (a) never change results — on, off, and
//! in-memory execution agree row-for-row on the paper's synthetic
//! datasets, (b) demonstrably skip pages on selective `AS OF` timeslices
//! (asserted through the `pages_read` / `pages_skipped` counters), and
//! (c) survive a drop/reopen through the manifest, with the Rust plan and
//! SQL surfaces choosing the same access path.

mod common;

use std::sync::atomic::Ordering;
use std::sync::Arc;

use common::{as_of, physical};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temporal_alignment::core::prelude::*;
use temporal_alignment::engine::batch::BatchBuilder;
use temporal_alignment::engine::prelude::*;
use temporal_alignment::engine::storage::{PoolCounters, ZoneBounds, ALL_SLOTS};
use temporal_alignment::sql::{DatabaseSqlExt, Session};
use temporal_datasets::{ddisj, deq, drand};

/// A unique scratch directory for one test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("talign_pruning_tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Flip both pruning GUCs on the shared planner.
fn set_pruning(db: &Database, zonemaps: bool, index: bool) {
    db.set("enable_zonemaps", zonemaps, None).unwrap();
    db.set("enable_interval_index", index, None).unwrap();
}

/// Execute `table AS OF v` instrumented: returns the result rows plus the
/// `(pages_read, pages_skipped)` the plan's scans credited to their
/// operator stats in that single execution.
fn run_as_of(db: &Database, table: &str, v: i64) -> (Vec<Row>, (u64, u64)) {
    let physical = physical(db, &as_of(TemporalPlan::table(db, table).unwrap(), v));
    let state = ExecutionState::new(db.config()).with_instrumentation();
    let rel = physical.collect(&state).unwrap();
    (rel.rows().to_vec(), pages_touched(&physical, &state))
}

/// The `(pages_read, pages_skipped)` the scans of `physical` credited to
/// their operator stats in the execution under `state`.
fn pages_touched(physical: &PhysicalPlan, state: &ExecutionState) -> (u64, u64) {
    physical
        .operator_stats(state)
        .iter()
        .fold((0, 0), |(read, skipped), (_, _, op)| {
            (
                read + op.pages_read.load(Ordering::Relaxed),
                skipped + op.pages_skipped.load(Ordering::Relaxed),
            )
        })
}

/// Brute-force timeslice over the raw rows (trailing `ts`, `te`).
fn oracle_as_of(rel: &TemporalRelation, v: i64) -> Vec<Row> {
    let n = rel.schema().len();
    rel.rows()
        .iter()
        .filter(|r| {
            matches!((&r[n - 2], &r[n - 1]),
                (Value::Int(ts), Value::Int(te)) if *ts <= v && *te > v)
        })
        .cloned()
        .collect()
}

/// Load `rows` into a fresh persisted table of `columns` (default `id
/// int, ts int, te int`) the way a client does: `CREATE TABLE …
/// PERSISTED` + `COPY`. The table is never registered whole, so its
/// interval index holds what `insert_rows` appended to it, not a build
/// from the whole relation.
fn copy_load(db: &Database, dir: &std::path::Path, name: &str, rows: &[Row]) {
    copy_load_columns(db, dir, name, "id int, ts int, te int", rows);
}

fn copy_load_columns(
    db: &Database,
    dir: &std::path::Path,
    name: &str,
    columns: &str,
    rows: &[Row],
) {
    let csv = dir.join(format!("{name}.csv"));
    let lines: String = rows
        .iter()
        .map(|r| {
            let fields: Vec<String> = r.values().iter().map(Value::to_string).collect();
            fields.join(",") + "\n"
        })
        .collect();
    std::fs::write(&csv, lines).unwrap();
    let mut session = Session::with_database(db.clone());
    session
        .execute(&format!("CREATE TABLE {name} ({columns}) PERSISTED"))
        .unwrap();
    session
        .execute(&format!("COPY {name} FROM '{}'", csv.display()))
        .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Differential: timeslices over persisted tables agree with the
    /// brute-force oracle under every pruning-GUC combination — zone maps
    /// and the interval index may only skip pages, never rows.
    #[test]
    fn pruning_matches_oracle_on_synthetic_datasets(
        n in 50usize..400,
        seed in 0u64..1000,
        pick in 0u64..10_000,
    ) {
        let dir = scratch("proptest-differential");
        let db = Database::open(&dir).unwrap();
        let (dd_r, _) = ddisj(n);
        let (de_r, _) = deq(n);
        let (dr_r, _) = drand(n, seed);
        db.register("dd", &dd_r).unwrap();
        db.register("de", &de_r).unwrap();
        db.register("dr", &dr_r).unwrap();
        // The same data again, COPY-loaded: appended to the index row by
        // row instead of bulk-built (dd in ts order, dr out of order).
        copy_load(&db, &dir, "dd_copy", dd_r.rows());
        copy_load(&db, &dir, "de_copy", de_r.rows());
        copy_load(&db, &dir, "dr_copy", dr_r.rows());
        for (name, rel) in [
            ("dd", &dd_r),
            ("de", &de_r),
            ("dr", &dr_r),
            ("dd_copy", &dd_r),
            ("de_copy", &de_r),
            ("dr_copy", &dr_r),
        ] {
            // Instants across (and beyond) each dataset's timeline.
            for v in [0, 1, (pick % (20 * n as u64)) as i64, 100, -5] {
                let expected = oracle_as_of(rel, v);
                for (zm, ix) in [(true, true), (true, false), (false, true), (false, false)] {
                    set_pruning(&db, zm, ix);
                    let (rows, (read, skipped)) = run_as_of(&db, name, v);
                    prop_assert_eq!(
                        &rows, &expected,
                        "{} AS OF {} drifted (zonemaps={}, index={})", name, v, zm, ix
                    );
                    if !zm && !ix {
                        prop_assert_eq!(skipped, 0, "pruning off must not skip pages");
                    }
                    prop_assert!(read + skipped > 0, "scan touched no pages at all");
                }
            }
        }
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The bounds of row `i` of a table whose time spans `0..span` with four
/// rows a tick: mostly rising starts and short durations; one row in 100
/// starts anywhere instead, a quarter of those with a NULL `ts`, `te` or
/// both; one in 500 lasts long. A NULL-bound row may match a probe on its
/// other side, and a long one many probes, so both stay few enough that
/// a timeslice still skips pages.
fn clustered_interval(rng: &mut StdRng, i: i64, span: i64) -> (Value, Value) {
    let displaced = rng.gen_bool(0.01);
    let ts = if displaced {
        rng.gen_range(-5..span + 5)
    } else {
        i / 4
    };
    let te = ts
        + if rng.gen_bool(0.002) {
            rng.gen_range(1..span)
        } else {
            rng.gen_range(1..8)
        };
    match (displaced, rng.gen_range(0..12)) {
        (true, 0) => (Value::Null, Value::Int(te)),
        (true, 1) => (Value::Int(ts), Value::Null),
        (true, 2) => (Value::Null, Value::Null),
        _ => (Value::Int(ts), Value::Int(te)),
    }
}

/// A random value for a column of type `dtype`, NULL one time in eight.
fn random_value(rng: &mut StdRng, dtype: DataType) -> Value {
    if rng.gen_bool(0.125) {
        return Value::Null;
    }
    match dtype {
        DataType::Int => Value::Int(rng.gen_range(-5i64..40)),
        DataType::Double => Value::Double(rng.gen_range(-8i64..8) as f64 / 4.0),
        DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
        DataType::Str => Value::str("x".repeat(rng.gen_range(0usize..40))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Record-level bounds and the pruning in front of them may only
    /// drop what the filter above the scan drops: over random layouts
    /// (variable-width and NULL columns ahead of the temporal pair,
    /// integer and non-integer first columns), time-clustered rows — so
    /// pages and their slot ranges are really cut — with displaced rows
    /// and NULL `ts`/`te` among them, random bounds and a snapshot that
    /// ends inside the tail page, `scan(bounds) + filter` and `scan +
    /// filter` return the same bag.
    #[test]
    fn record_bounds_never_change_a_filtered_scan(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let types = [DataType::Int, DataType::Str, DataType::Double, DataType::Bool];
        let mut cols: Vec<Column> = (0..rng.gen_range(0usize..4))
            .map(|i| Column::new(format!("c{i}"), types[rng.gen_range(0usize..4)]))
            .collect();
        cols.push(Column::new("ts", DataType::Int));
        cols.push(Column::new("te", DataType::Int));
        let schema = Schema::new(cols);
        let (tsi, tei) = (schema.len() - 2, schema.len() - 1);
        let n = rng.gen_range(3_000usize..5_000);
        // Four rows a tick, so time spans `0..span`.
        let span = n as i64 / 4;
        let mut next = 0;
        let mut clustered_row = |rng: &mut StdRng| -> Row {
            let mut values: Vec<Value> =
                schema.cols().iter().map(|c| random_value(rng, c.dtype)).collect();
            let (ts, te) = clustered_interval(rng, next, span);
            next += 1;
            values[tsi] = ts;
            values[tei] = te;
            values.into()
        };

        let dir = scratch("record-bounds");
        std::fs::create_dir_all(&dir).unwrap();
        let table = Arc::new(StoredTable::create(dir.join("t.heap"), "t", schema.clone(), 4, &PoolCounters::default()).unwrap());
        for _ in 0..n {
            table.append_row(&clustered_row(&mut rng)).unwrap();
        }

        // Random bounds, and the predicate they over-approximate. Key
        // bounds are set either way; the predicate can only name the first
        // column when the table treats it as the (integer) zone key.
        let mut pick = |p: f64, hi: i64| rng.gen_bool(p).then(|| rng.gen_range(-8..hi));
        let bounds = ZoneBounds {
            ts_le: pick(0.6, span + 8),
            ts_ge: pick(0.3, span + 8),
            te_gt: pick(0.6, span + 8),
            te_lt: pick(0.3, span + 8),
            key_le: pick(0.4, 45),
            key_ge: pick(0.4, 45),
        };
        let mut conjuncts = vec![lit(true)];
        conjuncts.extend(bounds.ts_le.map(|v| col(tsi).le(lit(v))));
        conjuncts.extend(bounds.ts_ge.map(|v| col(tsi).ge(lit(v))));
        conjuncts.extend(bounds.te_gt.map(|v| col(tei).gt(lit(v))));
        conjuncts.extend(bounds.te_lt.map(|v| col(tei).lt(lit(v))));
        if let Some(key) = table.key_col() {
            conjuncts.extend(bounds.key_le.map(|v| col(key).le(lit(v))));
            conjuncts.extend(bounds.key_ge.map(|v| col(key).ge(lit(v))));
        }
        let predicate = conjuncts.into_iter().reduce(Expr::and).unwrap();
        // The unpruned scan and the two pruned ones over `table`, each
        // under the filter.
        let plans = |table: &Arc<StoredTable>| {
            let filtered = |input: PhysicalPlan| PhysicalPlan::Filter {
                input: Box::new(input),
                predicate: predicate.clone(),
            };
            let scan = |bounds| PhysicalPlan::StorageScan {
                table: table.clone(),
                label: "t".into(),
                bounds,
            };
            let index = PhysicalPlan::IndexScan { table: table.clone(), label: "t".into(), bounds };
            (filtered(scan(None)), [filtered(scan(Some(bounds))), filtered(index)])
        };
        let (plain, bounded) = plans(&table);

        let config = PlannerConfig {
            enable_zonemaps: true,
            ..PlannerConfig::default()
        };
        // Pin the statement snapshot, then grow the tail page past it:
        // the scans below must stop inside that page.
        let state = ExecutionState::new(config).with_instrumentation();
        let snap = state.snapshot_for(&table);
        for _ in 0..rng.gen_range(1usize..12) {
            table.append_row(&clustered_row(&mut rng)).unwrap();
        }
        let expected = plain.collect(&state).unwrap();
        prop_assert!(expected.len() as u64 <= snap.rows);
        for plan in &bounded {
            let got = plan.collect(&state).unwrap();
            prop_assert!(
                got.same_bag(&expected),
                "seed {}: {} rows with {:?}, {} without\n{}",
                seed, got.len(), bounds, expected.len(), plan.explain()
            );
        }
        // The data cut pages and slot ranges: a timeslice in the middle
        // skips pages, and checks fewer tuples than the snapshot holds.
        let as_of = PhysicalPlan::IndexScan {
            table: table.clone(),
            label: "t".into(),
            bounds: ZoneBounds::as_of(span / 2),
        };
        as_of.collect(&state).unwrap();
        let (_, _, op) = &as_of.operator_stats(&state)[0];
        let (skipped, checked) = (
            op.pages_skipped.load(Ordering::Relaxed),
            op.tuples_checked.load(Ordering::Relaxed),
        );
        prop_assert!(skipped > 0, "seed {}: AS OF {} skipped no page", seed, span / 2);
        prop_assert!(
            checked < snap.rows,
            "seed {}: AS OF {} checked {} of {} tuples", seed, span / 2, checked, snap.rows
        );

        // The same table closed and reopened: its index, zone maps and key
        // filters come from the first-use heap scan, not from appends.
        table.close().unwrap();
        let reopened = Arc::new(StoredTable::open(dir.join("t.heap"), "t", schema.clone(), 4, &PoolCounters::default()).unwrap());
        let (plain, bounded) = plans(&reopened);
        let state = ExecutionState::new(config);
        let expected = plain.collect(&state).unwrap();
        for plan in &bounded {
            let got = plan.collect(&state).unwrap();
            prop_assert!(
                got.same_bag(&expected),
                "seed {} reopened: {} rows with {:?}, {} without\n{}",
                seed, got.len(), bounds, expected.len(), plan.explain()
            );
        }
        drop((table, reopened));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A selective `AS OF` on a persisted, time-clustered table must read
/// only the overlapping pages: `pages_skipped` dominates, and turning
/// pruning off reads every page of the heap.
#[test]
fn selective_as_of_skips_pages() {
    let dir = scratch("skips-pages");
    let db = Database::open(&dir).unwrap();
    // Ddisj tiles the timeline in registration order, so heap pages are
    // perfectly time-clustered — the worst case for a full scan, the best
    // case for pruning.
    let (r, _) = ddisj(3000);
    db.register("r", &r).unwrap();
    let total = db.read(|catalog, _| match catalog.source("r").unwrap() {
        TableSource::Stored(t) => t.page_count() as u64,
        TableSource::Mem(_) => panic!("r must be stored"),
    });
    assert!(total > 4, "need a multi-page heap, got {total} pages");

    // AS OF mid-timeline hits exactly one row → at most a page or two.
    let v = 20 * 1500 + 2;
    let (rows, (read, skipped)) = run_as_of(&db, "r", v);
    assert_eq!(rows.len(), 1, "ddisj AS OF mid-slot hits exactly one row");
    assert!(
        skipped > 0 && skipped >= total - 2,
        "expected nearly all of {total} pages skipped, got {skipped} (read {read})"
    );
    assert_eq!(
        read + skipped,
        total,
        "every page is either read or skipped"
    );

    // Zone maps alone (no index) must prune just as hard on clustered data.
    set_pruning(&db, true, false);
    let (rows, (read_zm, skipped_zm)) = run_as_of(&db, "r", v);
    assert_eq!(rows.len(), 1);
    assert!(
        skipped_zm >= total - 2,
        "zone maps alone pruned {skipped_zm}"
    );
    assert!(read_zm <= 2);

    // Pruning off: the scan reads the whole heap and skips nothing.
    set_pruning(&db, false, false);
    let (rows, (read_off, skipped_off)) = run_as_of(&db, "r", v);
    assert_eq!(rows.len(), 1);
    assert_eq!((read_off, skipped_off), (total, 0));
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every page the statement snapshot sees is either read or skipped, on
/// every access path — as a full scan reads them all. Pages appended after
/// the snapshot are neither: pruning did not skip them, the snapshot never
/// saw them.
#[test]
fn skipped_pages_count_against_the_statement_snapshot() {
    let dir = scratch("skips-snapshot");
    let db = Database::open(&dir).unwrap();
    let (r, _) = ddisj(3000);
    db.register("r", &r).unwrap();
    let table = db.read(|catalog, _| match catalog.source("r").unwrap() {
        TableSource::Stored(t) => t,
        TableSource::Mem(_) => panic!("r must be stored"),
    });
    let v = 20 * 1500 + 2;
    let plan = as_of(TemporalPlan::table(&db, "r").unwrap(), v);
    let mut next = 1_000_000i64;
    for (zm, ix, path) in [
        (true, true, "IndexScan"),
        (true, false, "using zonemap"),
        (false, true, "IndexScan"),
        (false, false, "StorageScan on r ["),
    ] {
        set_pruning(&db, zm, ix);
        let physical = physical(&db, &plan);
        assert!(physical.explain().contains(path), "{}", physical.explain());
        let state = ExecutionState::new(db.config()).with_instrumentation();
        let snap = state.snapshot_for(&table);
        // Two pages of rows past the snapshot, none of them valid at `v`.
        let pages = table.page_count();
        while table.page_count() < pages + 2 {
            let rows: Vec<Row> = (0..50)
                .map(|i| {
                    vec![
                        Value::Int(next + i),
                        Value::Int(next + i),
                        Value::Int(next + i + 1),
                    ]
                    .into()
                })
                .collect();
            db.insert_rows("r", rows).unwrap();
            next += 50;
        }
        let rows = physical.collect(&state).unwrap();
        assert_eq!(rows.len(), 1, "ddisj AS OF mid-slot hits exactly one row");
        let (read, skipped) = pages_touched(&physical, &state);
        assert_eq!(
            read + skipped,
            u64::from(snap.pages),
            "{path}: read {read} + skipped {skipped} pages of a {}-page snapshot",
            snap.pages
        );
    }
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Half-open boundary semantics survive pruning bit-for-bit: `ts == v`
/// is included, `te == v` is excluded, under every GUC combination.
#[test]
fn boundary_intervals_never_drift() {
    let dir = scratch("boundaries");
    let db = Database::open(&dir).unwrap();
    let rel = TemporalRelation::from_rows(
        Schema::new(vec![Column::new("id", DataType::Int)]),
        vec![
            (vec![Value::Int(1)], Interval::of(5, 10)), // te == v: out
            (vec![Value::Int(2)], Interval::of(10, 15)), // ts == v: in
            (vec![Value::Int(3)], Interval::of(9, 11)), // straddles: in
            (vec![Value::Int(4)], Interval::of(11, 12)), // later: out
        ],
    )
    .unwrap();
    db.register("b", &rel).unwrap();
    for (zm, ix) in [(true, true), (true, false), (false, true), (false, false)] {
        set_pruning(&db, zm, ix);
        let (rows, _) = run_as_of(&db, "b", 10);
        let ids: Vec<_> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(
            ids,
            vec![Value::Int(2), Value::Int(3)],
            "boundary drift at v=10 (zonemaps={zm}, index={ix})"
        );
    }
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A persisted table survives a drop/reopen through the manifest: the
/// reopened database still plans an IndexScan — its index is built in
/// memory by the first probe — answers identically, and keeps the index
/// current across appends. No index file is ever written.
#[test]
fn interval_index_reopens_through_manifest() {
    let dir = scratch("index-reopen");
    let db = Database::open(&dir).unwrap();
    let (r, _) = drand(3000, 42);
    db.register("r", &r).unwrap();

    let v = 5000;
    let explain = as_of(TemporalPlan::table(&db, "r").unwrap(), v)
        .explain(&db)
        .unwrap();
    assert!(
        explain.contains("IndexScan on r using interval index"),
        "expected an IndexScan access path, got:\n{explain}"
    );
    let (before, _) = run_as_of(&db, "r", v);
    assert_eq!(before, oracle_as_of(&r, v));
    drop(db);

    let db = Database::open(&dir).unwrap();
    let explain = as_of(TemporalPlan::table(&db, "r").unwrap(), v)
        .explain(&db)
        .unwrap();
    assert!(
        explain.contains("IndexScan on r using interval index"),
        "reopened database lost the index path:\n{explain}"
    );
    let (after, (read, skipped)) = run_as_of(&db, "r", v);
    assert_eq!(before, after, "reopen changed the timeslice");
    assert!(read + skipped > 0);

    // Appends maintain the built index.
    let extra: Row = vec![Value::Int(9999), Value::Int(v), Value::Int(v + 1)].into();
    db.insert_rows("r", vec![extra.clone()]).unwrap();
    let (appended, _) = run_as_of(&db, "r", v);
    assert_eq!(appended.len(), after.len() + 1);
    assert!(appended.contains(&extra));
    assert_no_index_files(&dir);

    assert!(db.drop_table("r").unwrap());
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The directory holds no `*.tidx` file and every manifest line has the
/// five fields of a table without an index file.
fn assert_no_index_files(dir: &std::path::Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        assert_ne!(
            path.extension().and_then(|e| e.to_str()),
            Some("tidx"),
            "an index file was written: {}",
            path.display()
        );
    }
    let manifest = std::fs::read_to_string(dir.join("manifest.tsv")).unwrap();
    for line in manifest.lines().filter(|l| !l.starts_with('#')) {
        assert_eq!(line.split('\t').count(), 5, "manifest line {line:?}");
    }
}

/// Heap pages of `table` holding a row `keep` accepts.
fn pages_with_a_match(db: &Database, table: &str, keep: impl Fn(&Row) -> bool) -> u64 {
    db.read(|catalog, _| match catalog.source(table).unwrap() {
        TableSource::Stored(t) => (0..t.page_count())
            .filter(|&page| {
                let mut out = BatchBuilder::new(t.schema().len());
                t.decode_page(page, [ALL_SLOTS], None, &mut out).unwrap();
                let rows = Relation::from_batches(
                    t.schema().clone(),
                    vec![out.finish(t.schema().clone())],
                )
                .unwrap();
                rows.rows().iter().any(&keep)
            })
            .count() as u64,
        TableSource::Mem(_) => panic!("{table} must be stored"),
    })
}

/// A heap whose order is independent of time is the case zone maps cannot
/// prune, and what the interval index is for. COPY-load one shuffled, add
/// single out-of-order INSERTs and rows with a NULL bound, reopen it
/// cleanly, then after a crash (the handle leaked, so only the WAL holds
/// the last inserts). After every step each timeslice plans an
/// IndexScan, answers like the oracle and reads only pages that hold a
/// matching row, and a bound on one side alone — which a row with a NULL
/// on the other side can satisfy — answers like the oracle too. After
/// the reopen and the crash the index, and its slot ranges, come from
/// the first-use heap scan.
#[test]
fn shuffled_heap_is_served_by_the_index_across_inserts_and_reopens() {
    let dir = scratch("shuffled");
    let db = Database::open(&dir).unwrap();
    let mut rows = ddisj(3000).0.rows().to_vec();
    let mut rng = StdRng::seed_from_u64(5);
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.gen_range(0..=i));
    }
    copy_load(&db, &dir, "s", &rows);
    let check = |db: &Database, rows: &[Row], step: &str| {
        for v in [0, 7, 2_500, 17_777, 29_995, 40_000] {
            let explain = as_of(TemporalPlan::table(db, "s").unwrap(), v)
                .explain(db)
                .unwrap();
            assert!(
                explain.contains("IndexScan on s using interval index"),
                "{step}: AS OF {v} did not probe the index:\n{explain}"
            );
            let (mut got, (read, _)) = run_as_of(db, "s", v);
            let mut expected: Vec<Row> = rows
                .iter()
                .filter(|r| {
                    matches!((&r[1], &r[2]),
                    (Value::Int(ts), Value::Int(te)) if *ts <= v && *te > v)
                })
                .cloned()
                .collect();
            got.sort();
            expected.sort();
            assert_eq!(got, expected, "{step}: AS OF {v}");
            // A NULL bound admits every bound on its side, so a row with
            // one may bring its page in when its other bound matches.
            let matching = pages_with_a_match(db, "s", |r| {
                let int = |v: &Value, null| if let Value::Int(x) = v { *x } else { null };
                int(&r[1], i64::MIN) <= v && int(&r[2], i64::MAX) > v
            });
            assert!(
                read <= matching,
                "{step}: AS OF {v} read {read} pages, {matching} hold a row that may match"
            );
            let mut session = Session::with_database(db.clone());
            for (column, op) in [(1, "<="), (2, ">")] {
                let name = ["id", "ts", "te"][column];
                let sql = format!("SELECT * FROM s WHERE {name} {op} {v}");
                let mut got = session.query(&sql).unwrap().rows().to_vec();
                let mut expected: Vec<Row> = rows
                    .iter()
                    .filter(|r| match r[column] {
                        Value::Int(x) if op == "<=" => x <= v,
                        Value::Int(x) => x > v,
                        _ => false,
                    })
                    .cloned()
                    .collect();
                got.sort();
                expected.sort();
                assert_eq!(got, expected, "{step}: {sql}");
            }
        }
        assert_no_index_files(&dir);
    };
    check(&db, &rows, "COPY");
    let mut insert = |db: &Database, rows: &mut Vec<Row>, n: i64| {
        for i in 0..n {
            let ts = rng.gen_range(0..30_000i64);
            let r: Row = vec![Value::Int(10_000 + i), Value::Int(ts), Value::Int(ts + 3)].into();
            db.insert_rows("s", vec![r.clone()]).unwrap();
            rows.push(r);
        }
    };
    insert(&db, &mut rows, 20);
    let mut session = Session::with_database(db.clone());
    for i in 0..10i64 {
        let ts = 2_999 * i + 7;
        for (id, ts, te) in [
            (20_000 + i, Some(ts), None),
            (21_000 + i, None, Some(ts + 3)),
        ] {
            let sql = |b: Option<i64>| b.map_or("NULL".into(), |b| b.to_string());
            session
                .execute(&format!(
                    "INSERT INTO s VALUES ({id}, {}, {})",
                    sql(ts),
                    sql(te)
                ))
                .unwrap();
            let value = |b: Option<i64>| b.map_or(Value::Null, Value::Int);
            rows.push(vec![Value::Int(id), value(ts), value(te)].into());
        }
    }
    drop(session);
    check(&db, &rows, "INSERT");

    db.close().unwrap();
    drop(db);
    let db = Database::open(&dir).unwrap();
    // Opening reads the first and the tail page of the heap, whatever its
    // size; the index is built by the first probe.
    let fetched = |db: &Database| db.metrics_snapshot().counters["pool.fetches"];
    assert!(fetched(&db) <= 2, "open fetched {} pages", fetched(&db));
    check(&db, &rows, "clean reopen");
    let pages = db.read(|catalog, _| match catalog.source("s").unwrap() {
        TableSource::Stored(t) => u64::from(t.page_count()),
        TableSource::Mem(_) => unreachable!(),
    });
    assert!(fetched(&db) >= pages, "the first probe scans the heap");

    insert(&db, &mut rows, 20);
    std::mem::forget(db);
    let db = Database::open(&dir).unwrap();
    check(&db, &rows, "crash");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The number after `key=` on the scan line of an `EXPLAIN ANALYZE`.
fn scan_counter(rendered: &str, key: &str) -> u64 {
    let line = rendered
        .lines()
        .find(|l| l.contains("Scan on "))
        .unwrap_or_else(|| panic!("no scan line in:\n{rendered}"));
    line.split(&format!("{key}=")).nth(1).map_or(0, |tail| {
        tail.split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    })
}

/// Key lookups on a heap whose order is independent of the key — the
/// case the zone maps' key min/max cannot prune, and what the per-page
/// key filters are for: a shuffled COPY with duplicate keys, NULL keys
/// and keys at the `i64` edges, then out-of-order INSERTs, a clean reopen
/// and a crash. After every step `k = c`, `k BETWEEN c AND c` and `AS OF
/// t WHERE k = c` answer like the oracle with zone maps on and off, and
/// with them on read at most the pages holding `c` plus 3 % of the heap.
/// A table whose first column is a string has no key column: its
/// lookups answer like the oracle.
#[test]
fn key_lookups_read_only_the_pages_holding_the_key() {
    let dir = scratch("key-lookups");
    let db = Database::open(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    // Four integers a row, like the `timeslice` history: ~100 rows a page.
    let row = |rng: &mut StdRng, k: i64| -> Row {
        let ts = rng.gen_range(0..10_000i64);
        let te = ts + rng.gen_range(1..200);
        vec![
            Value::Int(k),
            Value::Int(rng.gen_range(0..1_000i64)),
            Value::Int(ts),
            Value::Int(te),
        ]
        .into()
    };
    // 30 000 rows over 10 000 keys, three of each, shuffled.
    let mut rows: Vec<Row> = (0..30_000).map(|i| row(&mut rng, i % 10_000)).collect();
    for k in [i64::MIN, i64::MAX, i64::MAX] {
        rows.push(row(&mut rng, k));
    }
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.gen_range(0..=i));
    }
    copy_load_columns(&db, &dir, "k", "id int, v int, ts int, te int", &rows);
    let nulls: Vec<Row> = (0..3)
        .map(|i| {
            vec![
                Value::Null,
                Value::Int(i),
                Value::Int(40 * i),
                Value::Int(40 * i + 9),
            ]
            .into()
        })
        .collect();
    db.insert_rows("k", nulls.clone()).unwrap();
    rows.extend(nulls);
    db.sql("CREATE TABLE s (name str, ts int, te int) PERSISTED")
        .unwrap();
    let named: Vec<Row> = (0..500i64)
        .map(|i| {
            vec![
                Value::str(format!("n{}", i % 50)),
                Value::Int(i),
                Value::Int(i + 5),
            ]
            .into()
        })
        .collect();
    db.insert_rows("s", named.clone()).unwrap();

    let check = |db: &Database, rows: &[Row], step: &str| {
        let heap_pages = db.read(|catalog, _| match catalog.source("k").unwrap() {
            TableSource::Stored(t) => t.page_count() as f64,
            TableSource::Mem(_) => unreachable!(),
        });
        for c in [0, 17, 4_321, 9_999, 10_000, 20_000, i64::MIN, i64::MAX] {
            let has_key = |r: &Row| r[0] == Value::Int(c);
            let holding = pages_with_a_match(db, "k", has_key);
            // A day some row with key `c` is valid on, else any day.
            let t = rows.iter().find(|r| has_key(r)).map_or(77, |r| match r[2] {
                Value::Int(ts) => ts,
                _ => unreachable!(),
            });
            let valid = |r: &Row| {
                matches!((&r[2], &r[3]),
                (Value::Int(ts), Value::Int(te)) if *ts <= t && *te > t)
            };
            let k = || TemporalPlan::table(db, "k").unwrap();
            let lookups = [
                ("k = c", k().selection(col("id").eq(lit(c))), false),
                (
                    "k BETWEEN c AND c",
                    k().selection(col("id").between(lit(c), lit(c))),
                    false,
                ),
                (
                    "AS OF t WHERE k = c",
                    as_of(k(), t).selection(col("id").eq(lit(c))),
                    true,
                ),
            ];
            for (shape, plan, timeslice) in lookups {
                let plan = plan.unwrap();
                let mut want: Vec<Row> = rows
                    .iter()
                    .filter(|r| has_key(r) && (!timeslice || valid(r)))
                    .cloned()
                    .collect();
                want.sort();
                for zonemaps in [true, false] {
                    set_pruning(db, zonemaps, true);
                    let mut got = plan.run(db).unwrap().rows().to_vec();
                    got.sort();
                    assert_eq!(got, want, "{step}: {shape}, c = {c}, zonemaps {zonemaps}");
                }
                set_pruning(db, true, true);
                let analyzed = plan.explain_analyze(db).unwrap();
                let read = scan_counter(&analyzed, "pages_read");
                assert!(
                    read as f64 <= holding as f64 + 0.03 * heap_pages,
                    "{step}: {shape}, c = {c}: read {read} of {heap_pages} pages, \
                     {holding} hold the key:\n{analyzed}"
                );
                if c == 4_321 {
                    // Mid-domain, every page's key range admits `c`: the
                    // key filter did the narrowing, and says so.
                    let filtered = scan_counter(&analyzed, "key_filtered");
                    assert!(filtered > 0, "{step}: {shape}:\n{analyzed}");
                }
            }
        }
        for name in ["n7", "n70"] {
            let plan = TemporalPlan::table(db, "s")
                .unwrap()
                .selection(col("name").eq(lit(name)))
                .unwrap();
            let mut got = plan.run(db).unwrap().rows().to_vec();
            let mut want: Vec<Row> = named
                .iter()
                .filter(|r| r[0] == Value::str(name))
                .cloned()
                .collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{step}: name = {name}");
            let analyzed = plan.explain_analyze(db).unwrap();
            assert!(!analyzed.contains("key_filtered"), "{analyzed}");
        }
    };
    check(&db, &rows, "COPY");
    let mut insert = |db: &Database, rows: &mut Vec<Row>| {
        for i in 0..30 {
            let r = row(&mut rng, if i % 3 == 0 { i64::MAX } else { 20_000 + i % 2 });
            db.insert_rows("k", vec![r.clone()]).unwrap();
            rows.push(r);
        }
    };
    insert(&db, &mut rows);
    check(&db, &rows, "INSERT");
    db.close().unwrap();
    drop(db);
    let db = Database::open(&dir).unwrap();
    check(&db, &rows, "clean reopen");
    insert(&db, &mut rows);
    std::mem::forget(db);
    let db = Database::open(&dir).unwrap();
    check(&db, &rows, "crash");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The Rust plan and SQL surfaces print the same chosen access path for the
/// same timeslice — `AS OF` lowers to one canonical predicate.
#[test]
fn explain_access_path_identical_on_both_surfaces() {
    let dir = scratch("explain-parity");
    let db = Database::open(&dir).unwrap();
    let (r, _) = drand(3000, 7);
    db.register("r", &r).unwrap();
    let v = 4000;

    let rust_explain = as_of(TemporalPlan::table(&db, "r").unwrap(), v)
        .explain(&db)
        .unwrap();
    let mut session = Session::with_database(db.clone());
    let sql_explain = session
        .explain(&format!("SELECT * FROM r AS OF {v}"))
        .unwrap();

    let scan_line = |s: &str| {
        s.lines()
            .find(|l| l.contains("Scan on "))
            .map(str::trim)
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no scan line in:\n{s}"))
    };
    let (f, s) = (scan_line(&rust_explain), scan_line(&sql_explain));
    assert_eq!(
        f, s,
        "access paths diverge:\n{rust_explain}\nvs\n{sql_explain}"
    );
    assert!(
        f.contains("using interval index") || f.contains("using zonemap"),
        "timeslice did not choose a pruned access path: {f}"
    );

    // SQL SET reaches the same GUCs: forcing pruning off falls back to a
    // plain storage scan on both surfaces.
    db.sql("SET enable_zonemaps = false").unwrap();
    db.sql("SET enable_interval_index = false").unwrap();
    let off = as_of(TemporalPlan::table(&db, "r").unwrap(), v)
        .explain(&db)
        .unwrap();
    let off_line = scan_line(&off);
    assert!(
        off_line.starts_with("StorageScan on r ["),
        "pruning off must plan a plain scan: {off_line}"
    );
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
