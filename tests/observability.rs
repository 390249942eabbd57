//! Observability end to end (ISSUE 10): `EXPLAIN ANALYZE` on the SQL and
//! Rust plan surfaces, the metrics registry behind the server's `.stats`
//! command, span tracing under `SET trace = on`, and the guarantee that
//! instrumentation never changes results.
//!
//! The `EXPLAIN ANALYZE` rendering over a persisted NORMALIZE query is
//! pinned by a golden file (`tests/golden/explain_analyze.txt`) with the
//! non-deterministic `time=…ms` tokens normalized; refresh it with
//! `UPDATE_GOLDENS=1 cargo test --test observability`.

mod common;

use temporal_alignment::core::prelude::*;
use temporal_alignment::core::reference::evaluate_oracle;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::catalog::Catalog;
use temporal_alignment::engine::prelude::*;
use temporal_alignment::prelude::Session;
use temporal_alignment::server::{Client, Response, Server};
use temporal_datasets::{ddisj, deq, drand};

/// A unique scratch directory for one test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("talign_observability_tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Replace every `time=…ms` token with `time=Xms` so wall-clock noise
/// never reaches the golden file. Everything else in the rendering
/// (estimated rows, actual rows, batches, pages) is deterministic.
fn normalize_times(rendered: &str) -> String {
    let mut out = String::with_capacity(rendered.len());
    let mut rest = rendered;
    while let Some(i) = rest.find("time=") {
        let (head, tail) = rest.split_at(i + "time=".len());
        out.push_str(head);
        let end = tail.find("ms").expect("time= token ends in ms");
        out.push_str("Xms");
        rest = &tail[end + 2..];
    }
    out.push_str(rest);
    out
}

/// Strip per-node annotations, keeping only the indented operator labels:
/// the "tree shape" both EXPLAIN ANALYZE surfaces must agree on.
fn tree_shape(rendered: &str) -> Vec<String> {
    rendered
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| match l.find("  (") {
            Some(i) => l[..i].trim_end().to_string(),
            None => l.trim_end().to_string(),
        })
        .collect()
}

#[test]
fn explain_analyze_over_persisted_normalize_matches_golden() {
    let dir = scratch("golden");
    let db = Database::open(&dir).unwrap();
    let (r, s) = ddisj(24);
    db.register_or_replace("r", &r).unwrap();
    db.register_or_replace("s", &s).unwrap();

    let mut session = Session::scoped(db.clone());
    let query = "SELECT * FROM (r NORMALIZE s USING(id)) x";
    let analyzed = session.explain_analyze(query).unwrap();

    // The analyzed plan must carry real execution counters on every node.
    assert!(
        analyzed.contains("actual rows="),
        "EXPLAIN ANALYZE must report actual rows:\n{analyzed}"
    );
    assert!(
        analyzed.contains("time="),
        "EXPLAIN ANALYZE must report per-operator time:\n{analyzed}"
    );
    assert!(
        analyzed.contains("pages_read="),
        "EXPLAIN ANALYZE over persisted tables must report pages:\n{analyzed}"
    );
    assert!(
        !analyzed.contains("never executed"),
        "every operator in the tree must have run:\n{analyzed}"
    );

    // A Rust plan of the same logical query renders the same physical
    // tree with its own (independently collected) counters. The SQL side
    // carries one extra root Project (the `SELECT *` wrapper); below it
    // the trees must be identical.
    let from_plan = TemporalPlan::table(&db, "r")
        .unwrap()
        .normalize(TemporalPlan::table(&db, "s").unwrap(), &[("id", "id")])
        .unwrap()
        .explain_analyze(&db)
        .unwrap();
    let mut sql_shape = tree_shape(&analyzed);
    assert_eq!(sql_shape.first().map(String::as_str), Some("Project"));
    sql_shape.remove(0);
    for line in &mut sql_shape {
        *line = line
            .strip_prefix("  ")
            .expect("children of the root Project are indented")
            .to_string();
    }
    assert_eq!(
        sql_shape,
        tree_shape(&from_plan),
        "SQL and Rust EXPLAIN ANALYZE must print identical operator trees:\
         \n-- sql --\n{analyzed}\n-- rust --\n{from_plan}"
    );
    assert!(from_plan.contains("actual rows="));

    // Pin the full rendering (minus wall-clock) against the golden file.
    let rendered = format!("-- EXPLAIN ANALYZE {query}\n{}", normalize_times(&analyzed));
    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("explain_analyze.txt");
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::write(&golden_path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDENS=1 cargo test --test observability",
            golden_path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "EXPLAIN ANALYZE output drifted from the golden file; \
         run UPDATE_GOLDENS=1 cargo test --test observability if intentional"
    );
}

/// The number after `key=` on the first line of `rendered` naming a scan.
fn scan_counter(rendered: &str, key: &str) -> u64 {
    let line = rendered
        .lines()
        .find(|l| l.contains("Scan on "))
        .unwrap_or_else(|| panic!("no scan line in:\n{rendered}"));
    let tail = line
        .split(&format!("{key}="))
        .nth(1)
        .unwrap_or_else(|| panic!("no {key}= on the scan line: {line}"));
    tail.split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

/// A pruned scan filters records before it decodes them, so its `actual
/// rows` says nothing about how much it looked at: `tuples_checked` does.
#[test]
fn explain_analyze_reports_tuples_checked_beside_actual_rows() {
    let dir = scratch("tuples-checked");
    let db = Database::open(&dir).unwrap();
    let (r, _) = ddisj(3000);
    db.register("r", &r).unwrap();
    let mut session = Session::scoped(db.clone());
    let query = "SELECT * FROM r AS OF 30002";

    session.execute("SET enable_zonemaps = true").unwrap();
    session.execute("SET enable_interval_index = true").unwrap();
    let pruned = session.explain_analyze(query).unwrap();
    let (rows, checked) = (
        scan_counter(&pruned, "actual rows"),
        scan_counter(&pruned, "tuples_checked"),
    );
    // Ddisj's intervals never touch, so no index entry folds: the probe
    // names the one slot that matches.
    assert_eq!(rows, 1, "the scan itself emits only the match:\n{pruned}");
    assert_eq!(checked, 1, "only the slot the index names:\n{pruned}");
    assert!(scan_counter(&pruned, "pages_skipped") > 0, "{pruned}");

    // Row `i` holds [i, i + 3): each overlaps the next, so a page's
    // entries fold into one whose slot range is the whole page, and the
    // scan checks the page's tuples for the three that match.
    session
        .execute("CREATE TABLE f (id int, ts int, te int) PERSISTED")
        .unwrap();
    let values: Vec<String> = (0..3000)
        .map(|i| format!("({i}, {i}, {})", i + 3))
        .collect();
    session
        .execute(&format!("INSERT INTO f VALUES {}", values.join(", ")))
        .unwrap();
    let folded = session
        .explain_analyze("SELECT * FROM f AS OF 1500")
        .unwrap();
    let (rows, checked) = (
        scan_counter(&folded, "actual rows"),
        scan_counter(&folded, "tuples_checked"),
    );
    assert_eq!(rows, 3, "{folded}");
    assert!(
        checked > rows && checked < 3000,
        "the slots of the folded entries were checked, and only those:\n{folded}"
    );

    // With pruning off the scan carries no bounds and emits what it reads.
    session.execute("SET enable_zonemaps = false").unwrap();
    session
        .execute("SET enable_interval_index = false")
        .unwrap();
    let full = session.explain_analyze(query).unwrap();
    assert_eq!(scan_counter(&full, "actual rows"), 3000, "{full}");
    assert_eq!(scan_counter(&full, "tuples_checked"), 3000, "{full}");
    drop(session);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The number after `key=` on the first `HashJoin` line of `rendered`.
fn join_counter(rendered: &str, key: &str) -> u64 {
    node_counter(rendered, "HashJoin[", key)
}

/// The number after `key=` on the first line of `rendered` naming `node`.
fn node_counter(rendered: &str, node: &str, key: &str) -> u64 {
    let line = rendered
        .lines()
        .find(|l| l.contains(node))
        .unwrap_or_else(|| panic!("no {node} line in:\n{rendered}"));
    let tail = line
        .split(&format!("{key}="))
        .nth(1)
        .unwrap_or_else(|| panic!("no {key}= on the {node} line: {line}"));
    tail.split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

/// A hash join's `actual rows` hides how many build rows its residual was
/// run on; `candidates=` shows it, and `range-ordered on` says the buckets
/// are laid out so that a probe row only visits the ones inside its bounds.
#[test]
fn explain_analyze_reports_join_candidates_and_range_order() {
    // 6 positions × ~100 incumbents: a `pcn` bucket of the normalizer's
    // group-construction join holds ~200 end points, a handful of which
    // lie strictly inside any one tuple's interval.
    let r = temporal_datasets::random_like_incumben(600, 6, 9);
    let db = Database::default();
    db.register("inc", &r).unwrap();
    let mut session = Session::scoped(db.clone());
    let query = "SELECT pcn, ts, te FROM (inc r1 NORMALIZE inc r2 USING(pcn)) x";

    let plan = session.explain(query).unwrap();
    assert!(
        plan.contains("HashJoin[Left] on 1 key(s) range-ordered on __p1"),
        "EXPLAIN names the range column:\n{plan}"
    );
    let analyzed = session.explain_analyze(query).unwrap();
    let (rows, candidates) = (
        join_counter(&analyzed, "actual rows"),
        join_counter(&analyzed, "candidates"),
    );
    // Every candidate inside the bounds matches (the residual *is* the
    // bounds); the join's other rows are its unmatched probe rows.
    assert!(candidates > 0 && candidates <= rows, "{analyzed}");
    assert!(
        candidates * 10 < 600 * 200,
        "candidates must be the matches, not the buckets:\n{analyzed}"
    );

    // An equi join without a range residual: unordered, whole buckets.
    let plain = "SELECT a.ssn FROM inc a JOIN inc b ON a.pcn = b.pcn AND a.ssn <> b.ssn";
    assert!(!session.explain(plain).unwrap().contains("range-ordered"));
    let analyzed = session.explain_analyze(plain).unwrap();
    assert!(
        join_counter(&analyzed, "candidates") > join_counter(&analyzed, "actual rows"),
        "{analyzed}"
    );
}

/// The nested loop tests θ on every pair: EXPLAIN prints θ, and EXPLAIN
/// ANALYZE counts the pairs as `candidates=` — |r|·|s| for the
/// group-construction join of an ALIGN under the paper-faithful planner.
#[test]
fn explain_analyze_counts_the_nested_loop_pairs() {
    let r = common::random_trel2(5, 70, 4, 40);
    let s = common::random_trel2(6, 50, 4, 40);
    let plan = TemporalPlan::scan(&r)
        .align(TemporalPlan::scan(&s), None)
        .unwrap();
    let (out, analyzed) = run_analyzed(&plan, PlannerConfig::paper());
    assert!(out.same_set(&align_ref(&r, &s, &Theta::True).unwrap()));
    assert!(
        analyzed.contains("NestedLoopJoin[Left]: ("),
        "the nested loop prints its θ:\n{analyzed}"
    );
    assert_eq!(
        node_counter(&analyzed, "NestedLoopJoin[", "candidates"),
        (r.len() * s.len()) as u64,
        "{analyzed}"
    );
}

#[test]
fn instrumentation_never_changes_results() {
    // The same query with tracing + instrumentation on and off must
    // return identical rows in identical order, across all three
    // synthetic workloads of Sec. 7.
    let workloads = [
        ("ddisj", ddisj(64)),
        ("deq", deq(48)),
        ("drand", {
            let (r, _) = drand(64, 7);
            let (_, s) = drand(64, 11);
            (r, s)
        }),
    ];
    for (name, (r, s)) in workloads {
        let mut session = Session::new();
        session.register("r", &r).unwrap();
        session.register("s", &s).unwrap();
        let query = "SELECT * FROM (r r1 NORMALIZE r r2 USING()) x";

        session.execute("SET trace = off").unwrap();
        let plain = session.query(query).unwrap();
        session.execute("SET trace = on").unwrap();
        session.execute("SET slow_query_ms = 10000").unwrap();
        let observed = session.query(query).unwrap();
        assert_eq!(
            plain.rows(),
            observed.rows(),
            "{name}: instrumentation changed the result"
        );
        // And EXPLAIN ANALYZE's own execution agrees on the row count.
        let analyzed = session.explain_analyze(query).unwrap();
        let first = analyzed.lines().next().unwrap_or_default();
        assert!(
            first.contains(&format!("actual rows={}", plain.rows().len())),
            "{name}: EXPLAIN ANALYZE root row count must match the query \
             result ({} rows):\n{analyzed}",
            plain.rows().len()
        );
    }
}

/// Every node of an analyzed plan ran, and ran batch-wise: no line says
/// `never executed` and none reports `batches=0`. (The inputs below make
/// every node emit at least one row.)
fn assert_every_node_batched(analyzed: &str, expect_node: &str, label: &str) {
    assert!(
        analyzed.contains(expect_node),
        "{label}: expected a {expect_node} node:\n{analyzed}"
    );
    for line in analyzed.lines() {
        assert!(
            line.contains("batches=") && !line.contains("batches=0 "),
            "{label}: a node did not run through next_batch:\n{analyzed}"
        );
    }
}

/// Plan, run instrumented, and return `(result, EXPLAIN ANALYZE text)`.
fn run_analyzed(plan: &TemporalPlan, config: PlannerConfig) -> (TemporalRelation, String) {
    let physical = Planner::new(config)
        .plan(plan.logical(), &Catalog::new())
        .unwrap();
    let state = ExecutionState::new(config).with_instrumentation();
    let out = TemporalRelation::new(physical.collect(&state).unwrap()).unwrap();
    (out, physical.explain_analyze(&state))
}

/// `Distinct`, `Limit`, the nested-loop join and the merge join used to
/// implement only the row protocol, so they pulled their whole subtree
/// row-at-a-time (every node beneath them reported `batches=0`) and
/// serially. With one protocol, every node of every plan shape emits
/// batches — and the results still equal the references.
#[test]
fn no_plan_shape_falls_back_to_row_at_a_time() {
    let r = common::random_trel2(3, 60, 4, 40);
    let s = common::random_trel2(4, 60, 4, 40);

    // πᵀ (Table 2: π_{B,T}(N_B(r; r)) ends in a Distinct).
    let op = TemporalOp::Projection { attrs: vec![0] };
    let plan = TemporalPlan::scan(&r).projection(&[0]).unwrap();
    let (out, analyzed) = run_analyzed(&plan, PlannerConfig::default());
    assert_every_node_batched(&analyzed, "Distinct", "πᵀ");
    assert!(out.same_set(&evaluate_oracle(&op, &[&r]).unwrap()), "πᵀ");

    // ALIGN with no equi key under the paper-faithful planner: the group
    // construction is a nested-loop join.
    let plan = TemporalPlan::scan(&r)
        .align(TemporalPlan::scan(&s), None)
        .unwrap();
    let (out, analyzed) = run_analyzed(&plan, PlannerConfig::paper());
    assert_every_node_batched(&analyzed, "NestedLoopJoin", "NL-joined ALIGN");
    assert!(out.same_set(&align_ref(&r, &s, &Theta::True).unwrap()));

    // A temporal equi join with hash joins off: merge joins.
    let theta = col(0).eq(col(4));
    let op = TemporalOp::Join {
        theta: Some(theta.clone()),
    };
    let plan = TemporalPlan::scan(&r)
        .join(TemporalPlan::scan(&s), Some(theta))
        .unwrap();
    let config = PlannerConfig {
        enable_hashjoin: false,
        ..PlannerConfig::paper()
    };
    let (out, analyzed) = run_analyzed(&plan, config);
    assert_every_node_batched(&analyzed, "MergeJoin", "merge join");
    assert!(out.same_set(&evaluate_oracle(&op, &[&r, &s]).unwrap()));

    // SQL DISTINCT and LIMIT.
    let mut session = Session::new();
    session.register("r", &r).unwrap();
    let mut distinct: Vec<i64> = r.iter().map(|(d, _)| d[0].as_int().unwrap()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let query = "SELECT DISTINCT k FROM r ORDER BY k";
    let analyzed = session.explain_analyze(query).unwrap();
    assert_every_node_batched(&analyzed, "Distinct", query);
    let got = session.query(query).unwrap();
    let got: Vec<i64> = got.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(got, distinct);

    let query = "SELECT k, w, ts, te FROM r ORDER BY ts, te, k, w LIMIT 7";
    let analyzed = session.explain_analyze(query).unwrap();
    assert_every_node_batched(&analyzed, "Limit 7", query);
    let mut expected: Vec<Vec<i64>> = r
        .iter()
        .map(|(d, iv)| {
            vec![
                d[0].as_int().unwrap(),
                d[1].as_int().unwrap(),
                iv.start(),
                iv.end(),
            ]
        })
        .collect();
    expected.sort_by_key(|v| (v[2], v[3], v[0], v[1]));
    expected.truncate(7);
    let got: Vec<Vec<i64>> = session
        .query(query)
        .unwrap()
        .rows()
        .iter()
        .map(|r| r.values().iter().map(|v| v.as_int().unwrap()).collect())
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn set_trace_records_spans_and_dumps_chrome_trace() {
    let (r, s) = ddisj(32);
    let db = Database::default();
    db.register("r", &r).unwrap();
    db.register("s", &s).unwrap();
    let mut session = Session::scoped(db.clone());

    // No spans while tracing is off, the default.
    session.query("SELECT * FROM r").unwrap();
    assert!(db.tracer().is_empty(), "trace = off must record nothing");

    session.execute("SET trace = on").unwrap();
    session
        .query("SELECT * FROM (r NORMALIZE s USING(id)) x")
        .unwrap();
    assert!(
        !db.tracer().is_empty(),
        "SET trace = on must record spans for executed queries"
    );
    let spans = db.tracer().spans();
    assert!(
        spans.iter().any(|sp| sp.cat == "query"),
        "trace must contain the query-level span"
    );
    assert!(
        spans.iter().any(|sp| sp.cat == "operator"),
        "trace must contain per-operator spans"
    );

    // The dump is chrome://tracing's JSON array format.
    let json = db.tracer().chrome_trace_json();
    assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    assert!(json.contains("\"ph\":\"X\""), "complete events expected");
    assert!(json.contains("\"cat\":\"operator\""));

    db.tracer().clear();
    assert!(db.tracer().is_empty());
}

#[test]
fn server_stats_reports_ratios_and_latency_percentiles() {
    // A live connection to a *persisted* database: after a handful of
    // statements, `.stats` must report the WAL group-commit ratio, the
    // buffer-pool hit rate, and statement-latency percentiles.
    let dir = scratch("server-stats");
    let db = Database::open(&dir).unwrap();
    let handle = Server::bind(db, "127.0.0.1:0").expect("bind").spawn();
    let mut c = Client::connect(handle.addr()).expect("connect");

    assert_eq!(
        c.execute("CREATE TABLE t (name str, ts int, te int)")
            .unwrap(),
        Response::Ok
    );
    for i in 0..4 {
        assert_eq!(
            c.execute(&format!("INSERT INTO t VALUES ('row{i}', {i}, {})", i + 2))
                .unwrap(),
            Response::Affected(1)
        );
    }
    match c.execute("SELECT name FROM t ORDER BY name").unwrap() {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 4),
        other => panic!("expected rows, got {other:?}"),
    }

    let stats = match c.execute(".stats").unwrap() {
        Response::Rows { columns, rows } => {
            assert_eq!(columns, vec!["name", "value"]);
            rows.into_iter()
                .map(|r| {
                    (
                        r[0].clone().unwrap_or_default(),
                        r[1].clone().unwrap_or_default(),
                    )
                })
                .collect::<std::collections::BTreeMap<_, _>>()
        }
        other => panic!("expected stats rows, got {other:?}"),
    };

    let get = |k: &str| {
        stats
            .get(k)
            .unwrap_or_else(|| panic!("missing .stats row {k:?} in {stats:#?}"))
    };
    assert_eq!(get("active_sessions"), "1");
    assert!(get("server.connections").parse::<u64>().unwrap() >= 1);
    assert!(get("server.statements").parse::<u64>().unwrap() >= 6);
    assert!(get("session.statements").parse::<u64>().unwrap() >= 6);
    // Persisted database ⇒ WAL and buffer-pool figures are present.
    // fsyncs per commit: > 0 once commits have happened; can exceed 1
    // when DDL or log-header syncs outnumber commits, so only the lower
    // bound is pinned.
    let ratio: f64 = get("wal.group_commit_ratio").parse().unwrap();
    assert!(
        ratio.is_finite() && ratio > 0.0,
        "commits have happened, so syncs/commits > 0 (got {ratio})"
    );
    let hit_rate: f64 = get("pool.hit_rate").parse().unwrap();
    assert!((0.0..=1.0).contains(&hit_rate));
    assert!(get("wal.commits").parse::<u64>().unwrap() >= 5);
    // Statement latencies have been recorded and the percentiles are
    // real bucket bounds (microseconds), ordered.
    assert!(get("session.statement_us.count").parse::<u64>().unwrap() >= 6);
    let p50: u64 = get("session.statement_us.p50").parse().unwrap();
    let p99: u64 = get("session.statement_us.p99").parse().unwrap();
    assert!(
        p50 <= p99,
        "percentiles must be monotone: p50={p50} p99={p99}"
    );

    // Unknown dot-commands fail in-band without killing the connection.
    match c.execute(".nope").unwrap() {
        Response::Error(msg) => assert!(msg.contains("unknown server command")),
        other => panic!("expected error, got {other:?}"),
    }
    assert!(matches!(
        c.execute("SELECT name FROM t").unwrap(),
        Response::Rows { .. }
    ));
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_snapshot_diff_isolates_an_interval() {
    let (r, s) = ddisj(16);
    let db = Database::default();
    db.register("r", &r).unwrap();
    db.register("s", &s).unwrap();
    let mut session = Session::scoped(db.clone());
    session.query("SELECT * FROM r").unwrap();

    let before = db.metrics_snapshot();
    for _ in 0..5 {
        session
            .query("SELECT * FROM (r NORMALIZE s USING(id)) x")
            .unwrap();
    }
    let after = db.metrics_snapshot();
    let delta = after.diff(&before);

    assert_eq!(delta.counters.get("session.statements"), Some(&5));
    let hist = &delta.histograms["session.statement_us"];
    assert_eq!(hist.count, 5, "diff histogram counts only the interval");
    assert!(hist.p50.is_some() && hist.p99.is_some());
    // The rendering is one `name value` line per metric.
    let rendered = delta.render();
    assert!(rendered.contains("session.statements 5"), "{rendered}");
    assert!(
        rendered.contains("session.statement_us count=5"),
        "{rendered}"
    );

    // The store's counters diff the same way: on a persisted table the
    // interval view holds only the window's buffer-pool and WAL traffic,
    // not the lifetime totals.
    let dir = scratch("metrics-diff");
    let db = Database::open(&dir).unwrap();
    let mut session = Session::scoped(db.clone());
    session
        .execute("CREATE TABLE t (k int, ts int, te int)")
        .unwrap();
    session
        .execute("INSERT INTO t VALUES (1, 0, 5), (2, 3, 9)")
        .unwrap();
    session.query("SELECT * FROM t").unwrap();

    let before = db.metrics_snapshot();
    for k in 0..3 {
        session
            .execute(&format!("INSERT INTO t VALUES ({k}, 0, 5)"))
            .unwrap();
    }
    session.query("SELECT * FROM t").unwrap();
    let after = db.metrics_snapshot();
    let delta = after.diff(&before);

    assert!(before.counters["wal.commits"] > 0, "setup committed");
    assert_eq!(delta.counters.get("wal.commits"), Some(&3));
    let fetches = delta.counters["pool.fetches"];
    assert!(
        fetches > 0 && fetches < after.counters["pool.fetches"],
        "interval fetches {fetches} of {} in total",
        after.counters["pool.fetches"]
    );
    drop((session, db));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Fails when a `pool.*` or `wal.*` counter of `later` is below its value
/// in `earlier`.
fn assert_store_counters_never_fall(
    earlier: &MetricsSnapshot,
    later: &MetricsSnapshot,
    what: &str,
) {
    for (name, &was) in &earlier.counters {
        if name.starts_with("pool.") || name.starts_with("wal.") {
            let now = later.counters[name];
            assert!(now >= was, "{what} took {name} from {was} down to {now}");
        }
    }
}

/// The store counts into the registry where the work happens, so its
/// counters are cumulative: dropping a table keeps that table's pool work
/// counted, a window that contains a `DROP TABLE` reports exactly the
/// work the other tables did in it, and re-creating the table resets
/// nothing.
#[test]
fn store_counters_survive_drop_and_recreate() {
    let dir = scratch("counters-drop");
    let db = Database::open_with_pool(&dir, 2).unwrap();
    let (a, b) = ddisj(400);
    db.register("a", &a).unwrap();
    db.register("b", &b).unwrap();
    let mut session = Session::scoped(db.clone());
    // `b` has pool traffic before the window.
    for _ in 0..3 {
        assert_eq!(session.query("SELECT * FROM b").unwrap().len(), 400);
    }
    let before = db.metrics_snapshot();
    session.query("SELECT * FROM a").unwrap();
    let scan_a = db.metrics_snapshot().diff(&before).counters["pool.fetches"];
    assert!(
        scan_a > 2,
        "a scan of `a` streams its pages: {scan_a} fetches"
    );

    let before = db.metrics_snapshot();
    session.query("SELECT * FROM a").unwrap();
    session.execute("DROP TABLE b").unwrap();
    let after = db.metrics_snapshot();
    assert_eq!(
        after.diff(&before).counters["pool.fetches"],
        scan_a,
        "the window holds the scan of `a`, whatever became of `b`"
    );
    assert_store_counters_never_fall(&before, &after, "DROP TABLE b");

    session
        .execute("CREATE TABLE b (id int, ts int, te int)")
        .unwrap();
    assert_store_counters_never_fall(&after, &db.metrics_snapshot(), "CREATE TABLE b");
    drop((session, db));
    std::fs::remove_dir_all(&dir).unwrap();
}
