//! The fault-injection crash matrix (ISSUE 8 acceptance). Requires the
//! `failpoints` feature:
//!
//! ```text
//! cargo test --features failpoints --test crash_matrix
//! ```
//!
//! For every injection site in [`temporal_store::failpoints::SITES`] ×
//! crash / torn-write / bit-flip actions × hit-skip counts × sync
//! modes, a scripted workload (register a base table, append one
//! committed batch that spans many fresh pages, insert rows one
//! committed batch at a time, checkpoint mid-stream) runs with the
//! failpoint armed. The low hit counts of the WAL and page-write sites
//! land inside the bulk batch — on its fresh pages' images, their one
//! sync per run and their page writes — which the matrix checks. Crash-style actions trip the store-wide power-cut
//! switch, so nothing after the injected failure can reach disk — just
//! like pulling the plug. The directory is then reopened and the
//! recovered state must be a **prefix of the committed history**:
//!
//! * never a partial row, never reordered, never invented data;
//! * for crash/torn faults every *acknowledged* operation survives
//!   (the WAL was synced before the ack) and the database always
//!   reopens;
//! * bit flips model silent media corruption: the checksums must
//!   *detect* them — recovery either repairs from a full-page image,
//!   truncates the corrupt WAL tail, or surfaces a corruption error,
//!   but never serves garbage;
//! * the recovered table plans its `AS OF` timeslices on the interval
//!   index (built in memory by the first probe), and the index and the
//!   zone maps answer them identically to a brute-force oracle over the
//!   recovered rows;
//! * the recovered database is writable and survives a further clean
//!   close/reopen.
//!
//! Everything runs in a single `#[test]` because failpoints are
//! process-global.

mod common;

use common::{as_of, physical};
use temporal_alignment::core::prelude::*;
use temporal_alignment::engine::prelude::*;
use temporal_datasets::ddisj;
use temporal_store::failpoints::{self, Action};

/// A unique scratch directory for one matrix case.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("talign_crash_matrix")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn collect_rows(db: &Database, table: &str) -> Vec<Row> {
    TemporalPlan::table(db, table)
        .unwrap()
        .run(db)
        .unwrap()
        .rel()
        .rows()
        .to_vec()
}

fn row(id: i64, ts: i64, te: i64) -> Row {
    vec![Value::Int(id), Value::Int(ts), Value::Int(te)].into()
}

/// Leak the handle: no flush, no `Drop` checkpoint — a `kill -9`.
fn crash(db: Database) {
    std::mem::forget(db);
}

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

fn run_as_of(db: &Database, table: &str, v: i64) -> Vec<Row> {
    let plan = as_of(TemporalPlan::table(db, table).unwrap(), v);
    let state = ExecutionState::new(db.config());
    physical(db, &plan).collect(&state).unwrap().rows().to_vec()
}

const INSERTS: i64 = 20;
/// The base table nearly fills its one page (131 rows of three integers
/// fit), so the bulk batch spills into fresh pages after three rows.
const BASE_N: usize = 128;
/// Rows of the bulk batch: about 23 fresh pages, in runs of two.
const BULK: i64 = 3_000;
const POOL: usize = 2; // force pool spills so disk::* sites are hit

/// One cell of the matrix (`case` tags its failure messages). Returns
/// whether the armed fault fired inside the bulk batch.
fn run_case(site: &str, action: Action, skip: usize, mode: &str, case: &str) -> bool {
    failpoints::reset();
    let dir = scratch(case);
    let (base, _) = ddisj(BASE_N);
    let base_rows = base.rows().to_vec();

    let db = Database::open_with_pool(&dir, POOL).unwrap();
    db.set("sync_mode", mode, None).unwrap();
    failpoints::arm_nth(site, action, skip);

    // Scripted workload; `acked` counts rows acknowledged with Ok
    // *before* any failure. Crash-style faults trip the power cut, so
    // every later write fails too — the acked set is a strict prefix.
    let registered = db.register("r", &base).is_ok();
    let mut attempted = Vec::new();
    let mut acked = 0usize;
    let mut failed = !registered;
    let mut fired_in_bulk = false;
    if registered {
        let bulk: Vec<Row> = (0..BULK)
            .map(|j| row(200_000 + j, 7 * j, 7 * j + 3))
            .collect();
        attempted.extend(bulk.iter().cloned());
        let armed = failpoints::is_armed();
        let result = db.insert_rows("r", bulk);
        fired_in_bulk = armed && !failpoints::is_armed();
        match result {
            Ok(n) if !failed => acked += n,
            Ok(_) => {}
            Err(_) => failed = true,
        }
        for i in 0..INSERTS {
            if i == INSERTS / 2 {
                // A mid-stream fuzzy checkpoint exercises wal::checkpoint,
                // disk::sync and manifest::save under load.
                if db.checkpoint().is_err() {
                    failed = true;
                }
            }
            let r = row(100_000 + i, 13 * i, 13 * i + 9);
            attempted.push(r.clone());
            match db.insert_rows("r", vec![r]) {
                Ok(_) if !failed => acked += 1,
                Ok(_) => {}
                Err(_) => failed = true,
            }
        }
    }
    crash(db);
    failpoints::reset();

    // Reopen. Crash/torn faults must never refuse; a bit flip may be
    // *detected* as corruption (that is the contract of the checksums),
    // but must not open into garbage.
    let flip = matches!(action, Action::FlipBit { .. });
    let db = match Database::open_with_pool(&dir, POOL) {
        Ok(db) => db,
        Err(e) if flip => {
            let msg = e.to_string().to_lowercase();
            assert!(
                msg.contains("corrupt") || msg.contains("checksum") || msg.contains("missing"),
                "[{case}] bit flip surfaced an unrelated error: {e}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
            return fired_in_bulk;
        }
        Err(e) => panic!("[{case}] refused to reopen after the fault: {e}"),
    };

    if db.list_tables().is_empty() {
        // The table may be absent only if its creation was never
        // acknowledged (the fault hit register itself).
        assert!(
            !registered,
            "[{case}] an acknowledged CREATE vanished across recovery"
        );
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
        return fired_in_bulk;
    }

    // Prefix consistency: the recovered rows are exactly the base
    // registration plus a prefix of the attempted inserts.
    let rows = collect_rows(&db, "r");
    let mut full = base_rows.clone();
    full.extend_from_slice(&attempted);
    assert!(
        rows.len() <= full.len(),
        "[{case}] recovery invented rows: {} > {}",
        rows.len(),
        full.len()
    );
    assert_eq!(
        rows,
        full[..rows.len()],
        "[{case}] recovered state is not a prefix of the committed history"
    );
    if !flip {
        // Acknowledged = synced to the log before the ack: it survives.
        assert!(
            rows.len() >= base_rows.len() + acked,
            "[{case}] lost acknowledged work: recovered {} rows, base {} + acked {acked}",
            rows.len(),
            base_rows.len(),
        );
    }

    // The interval index and zone maps answer like the oracle.
    let explain = as_of(TemporalPlan::table(&db, "r").unwrap(), 0)
        .explain(&db)
        .unwrap();
    assert!(
        explain.contains("IndexScan on r using interval index"),
        "[{case}] the recovered table lost the index path:\n{explain}"
    );
    for v in [0i64, 13 * INSERTS / 2] {
        let expected = oracle_as_of(&rows, v);
        for (zm, ix) in [(true, true), (false, false)] {
            db.set("enable_zonemaps", zm, None).unwrap();
            db.set("enable_interval_index", ix, None).unwrap();
            assert_eq!(
                run_as_of(&db, "r", v),
                expected,
                "[{case}] AS OF {v} drifted after recovery (zonemaps={zm}, index={ix})"
            );
        }
    }

    // The recovered database is writable and survives a clean cycle.
    let sentinel = row(999_999, 1, 2);
    db.insert_rows("r", vec![sentinel.clone()]).unwrap();
    db.close().unwrap();
    drop(db);
    let db = Database::open_with_pool(&dir, POOL).unwrap();
    let after = collect_rows(&db, "r");
    assert_eq!(
        after.last(),
        Some(&sentinel),
        "[{case}] post-recovery insert lost on clean reopen"
    );
    assert_eq!(after.len(), rows.len() + 1, "[{case}] clean reopen drifted");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
    fired_in_bulk
}

/// The full matrix, serialized in one test because the failpoint
/// registry is process-global.
#[test]
fn every_site_offset_and_mode_recovers_prefix_consistent() {
    // Torn keeps step across a frame header (16 bytes) into the payload;
    // flips target the header CRC region and payload bytes alike.
    let actions = [
        Action::Crash,
        Action::Torn { keep: 0 },
        Action::Torn { keep: 5 },
        Action::Torn { keep: 17 },
        Action::FlipBit { offset: 2 },
        Action::FlipBit { offset: 21 },
    ];
    let mut cases = 0usize;
    // (mode, site, action) triples whose fault fired inside the bulk batch.
    let mut in_bulk = std::collections::HashSet::new();
    for mode in ["off", "commit", "always"] {
        for site in failpoints::SITES {
            for (ai, action) in actions.iter().enumerate() {
                for skip in [0usize, 1, 3, 7, 25] {
                    let case = format!("{}-{mode}-a{ai}-s{skip}", site.replace("::", "_"));
                    if run_case(site, *action, skip, mode, &case) {
                        in_bulk.insert((mode, *site, ai));
                    }
                    cases += 1;
                }
            }
        }
    }
    // 3 modes × 6 sites × 6 actions × 5 skips.
    assert_eq!(cases, 540);
    // Every action of the log and page-write sites strikes a bulk append
    // in every mode that reaches the site (`off` never syncs the log).
    for mode in ["off", "commit", "always"] {
        for site in ["wal::append", "wal::sync", "disk::write_page"] {
            if (mode, site) == ("off", "wal::sync") {
                continue;
            }
            for ai in 0..actions.len() {
                assert!(
                    in_bulk.contains(&(mode, site, ai)),
                    "{site} action {ai} never fired inside the bulk batch under {mode}"
                );
            }
        }
    }
    failpoints::reset();
}
