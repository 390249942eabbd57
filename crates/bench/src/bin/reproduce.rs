//! Regenerate the paper's evaluation (Sec. 7) from the experiment table,
//! [`temporal_bench::experiments`].
//!
//! ```text
//! cargo run --release -p temporal-bench --bin reproduce [-- [id …] [--full] [--out FILE]]
//! ```
//!
//! Each `id` picks a row (`table1`, `fig13` … `timeslice`; an unknown id
//! lists them); none runs them all. Sizes are scaled to finish in tens of
//! minutes; `--full` uses the paper's (the quadratic `sql` baselines then
//! run for a long time, as in the paper). Absolute times differ from the
//! paper's; the shapes — who wins, by what factor, where curves cross —
//! are the reproduction target.
//!
//! Each point is planned once and executed with a plain `ExecutionState`,
//! best of [`REPS`] runs (fewer once a run passes [`SLOW_SECS`]). At the
//! largest point of each series an instrumented run follows every plain
//! one, and the fastest one's per-operator self times are recorded. The
//! results go to one JSON file (default `bench_results/reproduce.json`),
//! rewritten after every row, and print as tables.
//!
//! Checked on every point — the run exits 1 after writing the file if any
//! check failed: series of one query agree on `output_rows`; the
//! instrumented run returns the plain run's rows and, on best-of-[`REPS`]
//! points, costs < 5 % or < 500 µs more; a persisted table exceeds its
//! buffer pool.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Instant;

use temporal_bench::{
    disagreement, experiments, render_table, Data, Experiment, Json, Point, Series, POOL,
};
use temporal_core::semantics::properties::render_table1;
use temporal_engine::prelude::*;

/// Executions per point.
const REPS: usize = 5;
/// A run longer than this is not repeated.
const SLOW_SECS: f64 = 1.0;

/// The instrumented runs at the largest point of a series.
struct Breakdown {
    n: usize,
    seconds: f64,
    /// Instrumented over plain best time, minus one.
    overhead: f64,
    /// `(depth, operator, rows, self ms)` in plan pre-order.
    ops: Vec<(usize, String, u64, f64)>,
}

/// A series' measured points.
struct Curve<'a> {
    series: &'a Series,
    points: Vec<Point>,
    breakdown: Option<Breakdown>,
}

fn execute(
    plan: &PhysicalPlan,
    config: PlannerConfig,
    instrument: bool,
) -> (f64, usize, ExecutionState) {
    let state = ExecutionState::new(config);
    let state = if instrument {
        state.with_instrumentation()
    } else {
        state
    };
    let t0 = Instant::now();
    let rows = plan.collect(&state).expect("point executes").len();
    (t0.elapsed().as_secs_f64(), rows, state)
}

/// Each operator's inclusive time minus its children's.
fn self_times(plan: &PhysicalPlan, state: &ExecutionState) -> Vec<(usize, String, u64, f64)> {
    let nodes = plan.operator_stats(state);
    let nanos = |op: &OperatorStats| op.nanos.load(Ordering::Relaxed);
    nodes
        .iter()
        .enumerate()
        .map(|(i, (depth, label, op))| {
            let children: u64 = nodes[i + 1..]
                .iter()
                .take_while(|c| c.0 > *depth)
                .filter(|c| c.0 == depth + 1)
                .map(|c| nanos(&c.2))
                .sum();
            let own = nanos(op).saturating_sub(children) as f64 / 1e6;
            (*depth, label.clone(), op.rows.load(Ordering::Relaxed), own)
        })
        .collect()
}

fn measure(curve: &mut Curve, data: &Data, n: usize, largest: bool, failures: &mut Vec<String>) {
    let s = curve.series;
    let plan = data.plan(s);
    let (mut best, mut rows, mut runs) = (f64::MAX, 0, 0);
    let mut instrumented: Option<(f64, ExecutionState)> = None;
    while runs < REPS {
        let (secs, out, _) = execute(&plan, s.config, false);
        (best, rows, runs) = (best.min(secs), out, runs + 1);
        if largest {
            let (on, out, state) = execute(&plan, s.config, true);
            if out != rows {
                failures.push(format!(
                    "{} @ n={n}: instrumented run returned {out} rows, plain {rows}",
                    s.label
                ));
            }
            if instrumented.as_ref().is_none_or(|(b, _)| on < *b) {
                instrumented = Some((on, state));
            }
        }
        if secs > SLOW_SECS {
            break;
        }
    }
    if let Some((on, state)) = instrumented {
        let overhead = on / best - 1.0;
        if runs == REPS && overhead >= 0.05 && on - best >= 500e-6 {
            failures.push(format!(
                "{} @ n={n}: instrumentation costs {:+.1}% ({best:.6} s plain, {on:.6} s instrumented)",
                s.label,
                overhead * 100.0
            ));
        }
        let ops = self_times(&plan, &state);
        curve.breakdown = Some(Breakdown {
            n,
            seconds: on,
            overhead,
            ops,
        });
    }
    eprintln!(
        "  n={n} {}: {best:.6} s (best of {runs}), {rows} rows",
        s.label
    );
    curve.points.push(Point {
        series: s.label.clone(),
        n,
        seconds: best,
        runs,
        output_rows: rows,
        joins: joins(&plan),
    });
}

/// The plan's join nodes by algorithm, e.g. `hash×1 nestloop×2`.
fn joins(plan: &PhysicalPlan) -> String {
    let count = |a: &str| plan.count_nodes(&|p| p.root_join_algorithm() == Some(a));
    let found: Vec<String> = ["nestloop", "hash", "merge", "interval"]
        .into_iter()
        .map(|a| (a, count(a)))
        .filter(|&(_, k)| k > 0)
        .map(|(a, k)| format!("{a}×{k}"))
        .collect();
    found.join(" ")
}

fn run<'a>(exp: &'a Experiment, full: bool, failures: &mut Vec<String>) -> Vec<Curve<'a>> {
    let sizes = if full { exp.full } else { exp.quick };
    let mut curves: Vec<Curve> = exp
        .series
        .iter()
        .map(|series| Curve {
            series,
            points: Vec::new(),
            breakdown: None,
        })
        .collect();
    for &n in sizes {
        let data = (exp.data)(n);
        if data.pages().is_some_and(|p| p as usize <= POOL) {
            failures.push(format!(
                "{} @ n={n}: table fits the {POOL}-frame pool",
                exp.id
            ));
        }
        let largest = sizes.last() == Some(&n);
        for curve in curves.iter_mut() {
            measure(curve, &data, n, largest, failures);
        }
        let at_n: Vec<(&str, &str, usize)> = curves
            .iter()
            .map(|c| {
                let rows = c.points.last().map_or(0, |p| p.output_rows);
                (c.series.query, c.series.label.as_str(), rows)
            })
            .collect();
        if let Some(d) = disagreement(&at_n) {
            failures.push(format!("{} @ n={n}: {d}", exp.id));
        }
    }
    curves
}

fn print(exp: &Experiment, curves: &[Curve]) {
    let points: Vec<Point> = curves.iter().flat_map(|c| c.points.clone()).collect();
    println!("\n=== {}", exp.title);
    let ms = |p: &Point| format!("{:.3}", p.seconds * 1e3);
    println!("runtime [ms]:\n{}", render_table(&points, ms));
    let rows = |p: &Point| p.output_rows.to_string();
    println!("output tuples:\n{}", render_table(&points, rows));
    if points.iter().any(|p| !p.joins.is_empty()) {
        println!("joins:\n{}", render_table(&points, |p| p.joins.clone()));
    }
    // The operator kind (label up to its first non-alphanumeric character)
    // with the most self time at the largest point of each series.
    for c in curves {
        let Some(b) = &c.breakdown else { continue };
        let mut kinds: Vec<(&str, f64)> = Vec::new();
        for (_, label, _, ms) in &b.ops {
            let kind = label
                .split(|c: char| !c.is_alphanumeric())
                .next()
                .unwrap_or("");
            match kinds.iter_mut().find(|k| k.0 == kind) {
                Some(k) => k.1 += ms,
                None => kinds.push((kind, *ms)),
            }
        }
        let total: f64 = kinds.iter().map(|k| k.1).sum();
        if let Some(top) = kinds.iter().max_by(|x, y| x.1.total_cmp(&y.1)) {
            println!(
                "{} @ n={}: {} is {:.0}% of {total:.1} ms operator self time (instrumented {:+.1}%)",
                c.series.label,
                b.n,
                top.0,
                100.0 * top.1 / total.max(1e-9),
                b.overhead * 100.0
            );
        }
    }
}

fn int(x: impl TryInto<u64>) -> Json {
    Json::Num(x.try_into().map_or(f64::NAN, |x| x as f64))
}

fn round(x: f64, decimals: i32) -> Json {
    let f = 10f64.powi(decimals);
    Json::Num((x * f).round() / f)
}

fn config_json(c: &PlannerConfig) -> Json {
    let flags = [
        ("trace", c.trace),
        ("enable_zonemaps", c.enable_zonemaps),
        ("enable_interval_index", c.enable_interval_index),
        ("enable_nestloop", c.enable_nestloop),
        ("enable_hashjoin", c.enable_hashjoin),
        ("enable_mergejoin", c.enable_mergejoin),
        ("enable_intervaljoin_auto", c.enable_intervaljoin_auto),
        ("enable_rewrites", c.enable_rewrites),
    ];
    Json::Obj(flags.map(|(k, v)| (k, Json::Bool(v))).into())
}

fn curve_json(c: &Curve) -> Json {
    let points = c.points.iter().map(|p| {
        Json::Obj(vec![
            ("n", int(p.n)),
            ("seconds", round(p.seconds, 7)),
            ("runs", int(p.runs)),
            ("output_rows", int(p.output_rows)),
            ("joins", Json::Str(p.joins.clone())),
        ])
    });
    let breakdown = c.breakdown.as_ref().map_or(Json::Null, |b| {
        let ops = b.ops.iter().map(|(depth, op, rows, ms)| {
            Json::Obj(vec![
                ("depth", int(*depth)),
                ("op", Json::Str(op.clone())),
                ("rows", int(*rows)),
                ("self_ms", round(*ms, 3)),
            ])
        });
        Json::Obj(vec![
            ("n", int(b.n)),
            ("seconds", round(b.seconds, 7)),
            ("overhead_pct", round(b.overhead * 100.0, 2)),
            ("operators", Json::Arr(ops.collect())),
        ])
    });
    Json::Obj(vec![
        ("label", Json::Str(c.series.label.clone())),
        ("query", Json::Str(c.series.query.into())),
        ("config", config_json(&c.series.config)),
        ("points", Json::Arr(points.collect())),
        ("breakdown", breakdown),
    ])
}

/// `git describe --always --dirty` of the working directory, if any.
fn commit() -> Json {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Json::Null, |o| {
            Json::Str(String::from_utf8_lossy(&o.stdout).trim().into())
        })
}

fn usage(table: &[Experiment], why: &str) -> ! {
    let ids: Vec<&str> = table.iter().map(|e| e.id).collect();
    eprintln!(
        "{why}\nusage: reproduce [id …] [--full] [--out FILE]; ids: table1 {}",
        ids.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let table = experiments();
    let (mut ids, mut full) = (Vec::new(), false);
    let mut out = PathBuf::from("bench_results/reproduce.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--out" => match args.next() {
                Some(file) => out = file.into(),
                None => usage(&table, "--out needs a file"),
            },
            id if id == "table1" || table.iter().any(|e| e.id == id) => ids.push(arg),
            other => usage(&table, &format!("unknown experiment '{other}'")),
        }
    }
    let wanted = |id: &str| ids.is_empty() || ids.iter().any(|i| i == id);
    let mode = if full { "full" } else { "quick" };
    println!("Temporal Alignment (SIGMOD 2012) — evaluation reproduction ({mode} mode)");

    let table1 = wanted("table1").then(render_table1);
    if let Some(t) = &table1 {
        println!("\n=== Table 1 (verified executably in semantics::properties)\n{t}");
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let save = |done: &[Json]| {
        let report = Json::Obj(vec![
            ("mode", Json::Str(mode.into())),
            ("commit", commit()),
            ("cores", int(cores)),
            ("table1", table1.clone().map_or(Json::Null, Json::Str)),
            ("experiments", Json::Arr(done.to_vec())),
        ]);
        if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create the output directory");
        }
        std::fs::write(&out, format!("{report}\n")).expect("write the results");
    };
    let (mut done, mut failures) = (Vec::new(), Vec::new());
    for exp in table.iter().filter(|e| wanted(e.id)) {
        let curves = run(exp, full, &mut failures);
        print(exp, &curves);
        done.push(Json::Obj(vec![
            ("id", Json::Str(exp.id.into())),
            ("title", Json::Str(exp.title.into())),
            ("series", Json::Arr(curves.iter().map(curve_json).collect())),
        ]));
        save(&done);
    }
    save(&done);
    println!("\n→ {}", out.display());
    if !failures.is_empty() {
        eprintln!(
            "{} check(s) failed:\n  {}",
            failures.len(),
            failures.join("\n  ")
        );
        std::process::exit(1);
    }
}
