//! The paged storage layer end to end (ISSUE 5): registering on a
//! `Database::open`ed directory writes heap files; reopening the
//! directory restores the same tables and rows; and queries over
//! persisted tables — including temporal joins and the alignment
//! primitives — produce byte-identical results before and after a
//! drop/reopen, with the buffer pool capped *below* the table's page
//! count (so scans demonstrably stream pages instead of materializing
//! the heap).

use proptest::prelude::*;
use temporal_alignment::core::prelude::*;
use temporal_alignment::engine::prelude::*;
use temporal_alignment::sql::{DatabaseSqlExt, Session};
use temporal_datasets::{ddisj, deq, drand};

/// A unique scratch directory for one test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("talign_persistence_tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Rows of a plan over `table`, as plain vectors (schema qualifiers aside).
fn collect_rows(db: &Database, table: &str) -> Vec<Row> {
    TemporalPlan::table(db, table)
        .unwrap()
        .run(db)
        .unwrap()
        .rel()
        .rows()
        .to_vec()
}

/// Register `rel` on a durable database, drop it, reopen, and require the
/// scan to return identical rows in identical order.
fn assert_reopen_identical(name: &str, dir: &std::path::Path, rel: &TemporalRelation) {
    let db = Database::open(dir).unwrap();
    db.register_or_replace(name, rel).unwrap();
    let before = collect_rows(&db, name);
    assert_eq!(
        before,
        rel.rows().to_vec(),
        "{name}: persisted scan differs"
    );
    drop(db);

    let db = Database::open(dir).unwrap();
    let after = collect_rows(&db, name);
    assert_eq!(before, after, "{name}: reopen changed the rows");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// register → collect → reopen → collect is row-identical on the
    /// paper's synthetic datasets (Ddisj, Deq, Drand cover disjoint,
    /// fully-overlapping and random intervals plus NULL-free multi-column
    /// schemas).
    #[test]
    fn reopen_round_trip_on_synthetic_datasets(n in 2usize..40, seed in 0u64..1000) {
        let dir = scratch("proptest-roundtrip");
        let (r, s) = ddisj(n);
        assert_reopen_identical("ddisj_r", &dir, &r);
        assert_reopen_identical("ddisj_s", &dir, &s);
        let (r, s) = deq(n);
        assert_reopen_identical("deq_r", &dir, &r);
        assert_reopen_identical("deq_s", &dir, &s);
        let (r, s) = drand(n, seed);
        assert_reopen_identical("drand_r", &dir, &r);
        assert_reopen_identical("drand_s", &dir, &s);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The page count and pool capacity of a stored table.
fn stored_stats(db: &Database, name: &str) -> (u32, usize) {
    db.read(|catalog, _| match catalog.source(name).unwrap() {
        TableSource::Stored(t) => (t.page_count(), t.pool_pages()),
        TableSource::Mem(_) => panic!("table {name} is not stored"),
    })
}

/// ISSUE 5 acceptance: a temporal join + alignment query over a
/// persisted table is byte-identical before and after dropping and
/// reopening the `Database`, with the buffer pool capped below the
/// table's page count.
#[test]
fn acceptance_join_and_alignment_survive_reopen_with_tiny_pool() {
    let dir = scratch("acceptance");
    const POOL: usize = 2;

    // Big enough that each table's heap clearly exceeds a 2-page pool.
    let (r, s) = drand(3000, 42);
    let run = |db: &Database| {
        // ⋈ᵀ (reduced through the alignment primitives) + an explicit
        // alignment (Φ) + temporal aggregation — the full vertical slice.
        let table = |name| TemporalPlan::table(db, name).unwrap();
        let theta = col("r.id").eq(col("s.a"));
        let join = table("r").join(table("s"), theta).unwrap().run(db).unwrap();
        let align = table("r")
            .align(table("s"), col("r.id").le(col("s.a")))
            .unwrap()
            .run(db)
            .unwrap();
        let agg = table("r")
            .aggregation(&["id"], vec![(AggCall::count_star(), "cnt")])
            .unwrap()
            .run(db)
            .unwrap();
        (
            join.rel().to_table(),
            align.rel().to_table(),
            agg.rel().to_table(),
        )
    };

    let db = Database::open_with_pool(&dir, POOL).unwrap();
    db.register("r", &r).unwrap();
    db.register("s", &s).unwrap();
    let (pages, pool) = stored_stats(&db, "r");
    let (s_pages, _) = stored_stats(&db, "s");
    assert_eq!(pool, POOL);
    assert!(
        pages as usize > POOL,
        "table must not fit its pool: {pages} pages vs {POOL} frames"
    );
    let io_before = db.metrics_snapshot();
    let before = run(&db);
    let reads = db.metrics_snapshot().diff(&io_before).counters["pool.io_reads"];
    // The join scans both tables whole; neither fits its pool.
    assert!(
        reads >= (pages + s_pages) as u64,
        "scans must stream pages from disk through the pool \
         ({reads} reads for {pages} + {s_pages} pages)"
    );
    drop(db);

    // A fresh process image: nothing of the tables survives but the files.
    let db = Database::open_with_pool(&dir, POOL).unwrap();
    assert_eq!(db.list_tables(), vec!["r".to_string(), "s".to_string()]);
    let after = run(&db);
    assert_eq!(before.0, after.0, "temporal join changed across reopen");
    assert_eq!(before.1, after.1, "alignment changed across reopen");
    assert_eq!(before.2, after.2, "aggregation changed across reopen");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same acceptance shape through the SQL surface: a `PERSISTED`
/// table queried with ALIGN before and after reopen.
#[test]
fn sql_align_over_persisted_table_survives_reopen() {
    let dir = scratch("sql-align");
    let (r, s) = ddisj(200);
    {
        let db = Database::open_with_pool(&dir, 2).unwrap();
        db.register("r", &r).unwrap();
        db.register("s", &s).unwrap();
    }
    let query = "SELECT * FROM (r ALIGN s ON r.id = s.id) x ORDER BY ts, te, id";
    let run = |db: &Database| db.sql_rows(query).unwrap().to_table();

    let db = Database::open_with_pool(&dir, 2).unwrap();
    let plan = db.sql_explain("SELECT * FROM r").unwrap();
    assert!(plan.contains("StorageScan on r"), "{plan}");
    let before = run(&db);
    drop(db);

    let db = Database::open_with_pool(&dir, 2).unwrap();
    assert_eq!(before, run(&db), "SQL ALIGN output changed across reopen");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Tables persisted through one surface are visible through the other
/// after reopen, and SQL DDL round-trips through the manifest.
#[test]
fn surfaces_share_persisted_tables_across_reopen() {
    let dir = scratch("two-surfaces");
    {
        let db = Database::open(&dir).unwrap();
        let mut session = Session::with_database(db.clone());
        session
            .execute("CREATE TABLE m (name str, ts int, te int) PERSISTED")
            .unwrap();
        let csv = dir.join("m.csv");
        std::fs::write(&csv, "ann,0,8\njoe,2,6\nann,8,12\n").unwrap();
        session
            .execute(&format!("COPY m FROM '{}'", csv.display()))
            .unwrap();
    }
    let db = Database::open(&dir).unwrap();
    // Rust plan surface over the SQL-created table:
    let out = TemporalPlan::table(&db, "m")
        .unwrap()
        .selection(col("name").eq(lit("ann")))
        .unwrap()
        .run(&db)
        .unwrap();
    assert_eq!(out.len(), 2);
    // And the stored backing is real (not a rehydrated memory table).
    let (pages, _) = stored_stats(&db, "m");
    assert!(pages >= 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// register_or_replace on a persisted database must not leak heap files:
/// replacing and dropping both remove the old file.
#[test]
fn replace_does_not_leak_heap_files() {
    let dir = scratch("no-leak");
    let (r, s) = ddisj(2000);
    let db = Database::open(&dir).unwrap();
    db.register("t", &r).unwrap();
    let heap = dir.join("t.heap");
    assert!(heap.exists());
    let size_before = std::fs::metadata(&heap).unwrap().len();

    // Replace with a much smaller relation: the file must be rewritten,
    // not appended to or left dangling beside a new file.
    let (small, _) = ddisj(1);
    db.register_or_replace("t", &small).unwrap();
    let size_after = std::fs::metadata(&heap).unwrap().len();
    assert!(
        size_after < size_before,
        "stale heap bytes leaked: {size_after} >= {size_before}"
    );
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|f| f.ends_with(".heap"))
        .collect();
    assert_eq!(files, vec!["t.heap".to_string()]);

    // Replacing through SQL-visible surfaces behaves the same.
    db.register_or_replace("t", &s).unwrap();
    assert!(db.drop_table("t").unwrap());
    assert!(!heap.exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every heap page of stored table `name`, as the rows in its slots.
fn pages_of(db: &Database, name: &str) -> Vec<Vec<Row>> {
    use temporal_alignment::engine::batch::BatchBuilder;
    use temporal_alignment::engine::storage::ALL_SLOTS;
    let TableSource::Stored(table) = db.read(|catalog, _| catalog.source(name)).unwrap() else {
        panic!("table {name} is not stored");
    };
    (0..table.page_count())
        .map(|page| {
            let mut out = BatchBuilder::new(table.schema().len());
            table
                .decode_page(page, [ALL_SLOTS], None, &mut out)
                .unwrap();
            out.finish(table.schema().clone()).to_rows()
        })
        .collect()
}

/// Row `i` of the bulk-load tests and its CSV line: names of varied
/// length, some quoted (a comma inside), some NULL, some the empty string.
fn bulk_row(i: i64) -> (Row, String) {
    let (name, field) = match i % 17 {
        0 => (Value::Null, String::new()),
        1 => (Value::str(""), "\"\"".to_string()),
        2 => (Value::str(format!("a,{i}")), format!("\"a,{i}\"")),
        _ => {
            let text = format!("n{i}{}", "x".repeat((i % 40) as usize));
            (Value::str(&text), text)
        }
    };
    let te = i + 1 + i % 5;
    let row = Row::new(vec![name, Value::Int(i), Value::Int(i), Value::Int(te)]);
    (row, format!("{field},{i},{i},{te}\n"))
}

const BULK_COLUMNS: &str = "name str, k int, ts int, te int";

/// A `COPY` lays its rows out as one `INSERT` per row would: the same page
/// count and the same row in every `(page, slot)`. A `kill -9` right
/// after it (no checkpoint) reopens to the same pages — also when no page
/// write reached the heap file, so recovery rebuilds every fresh page from
/// its logged image.
#[test]
fn a_copy_lays_out_pages_as_single_inserts_do() {
    const ROWS: i64 = 3_000;
    const POOL: usize = 4;
    let dir = scratch("copy-layout");
    let (rows, lines): (Vec<Row>, Vec<String>) = (0..ROWS).map(bulk_row).unzip();
    // The COPY follows five single inserts, under a header line.
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("t.csv");
    std::fs::write(&csv_path, format!("name,k,ts,te\n{}", lines[5..].concat())).unwrap();

    let one_by_one = {
        let db = Database::open_with_pool(dir.join("single"), POOL).unwrap();
        db.set("sync_mode", "off", None).unwrap();
        db.sql(&format!("CREATE TABLE t ({BULK_COLUMNS}) PERSISTED"))
            .unwrap();
        for row in &rows {
            db.insert_rows("t", vec![row.clone()]).unwrap();
        }
        pages_of(&db, "t")
    };
    assert!(one_by_one.len() > 3 * POOL, "several runs of fresh pages");

    for lose_page_writes in [false, true] {
        let data = dir.join(format!("copy-{lose_page_writes}"));
        let db = Database::open_with_pool(&data, POOL).unwrap();
        db.sql(&format!("CREATE TABLE t ({BULK_COLUMNS}) PERSISTED"))
            .unwrap();
        // A few rows first, so the COPY starts on a tail page that has room.
        db.insert_rows("t", rows[..5].to_vec()).unwrap();
        db.checkpoint().unwrap();
        let heap = data.join("t.heap");
        let checkpointed = std::fs::metadata(&heap).unwrap().len();
        db.sql(&format!("COPY t FROM '{}'", csv_path.display()))
            .unwrap();
        assert_eq!(pages_of(&db, "t"), one_by_one, "COPY layout");
        std::mem::forget(db);
        if lose_page_writes {
            // Only the checkpointed prefix of the heap file survives.
            let file = std::fs::OpenOptions::new().write(true).open(&heap).unwrap();
            file.set_len(checkpointed).unwrap();
        }
        let db = Database::open_with_pool(&data, POOL).unwrap();
        assert_eq!(
            pages_of(&db, "t"),
            one_by_one,
            "after a kill -9 (page writes lost: {lose_page_writes})"
        );
        assert_eq!(collect_rows(&db, "t"), rows);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `COPY` whose line 9 000 of 10 000 holds a bad `int` fails with the
/// parser's message and appends nothing: the persisted table keeps its
/// row and page counts, also across a reopen.
#[test]
fn a_copy_with_one_bad_line_appends_nothing() {
    let dir = scratch("copy-atomic");
    let db = Database::open(&dir).unwrap();
    db.sql(&format!("CREATE TABLE t ({BULK_COLUMNS}) PERSISTED"))
        .unwrap();
    let (first, _): (Vec<Row>, Vec<String>) = (0..500).map(bulk_row).unzip();
    db.insert_rows("t", first).unwrap();
    let counts = |db: &Database| {
        db.read(|catalog, _| match catalog.source("t").unwrap() {
            TableSource::Stored(t) => (t.row_count(), t.page_count()),
            TableSource::Mem(_) => panic!("t is not stored"),
        })
    };
    let before = counts(&db);
    let csv: String = (0..10_000)
        .map(|i| match i {
            8_999 => "bad,x9000,1,2\n".to_string(),
            i => bulk_row(i).1,
        })
        .collect();
    let csv_path = dir.join("bad.csv");
    std::fs::write(&csv_path, csv).unwrap();
    let err = db
        .sql(&format!("COPY t FROM '{}'", csv_path.display()))
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "parse error: CSV line 9000, column k: cannot parse \"x9000\" as int"
    );
    assert_eq!(counts(&db), before);
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(counts(&db), before);
    assert_eq!(collect_rows(&db, "t").len(), 500);
    std::fs::remove_dir_all(&dir).unwrap();
}
