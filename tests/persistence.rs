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
