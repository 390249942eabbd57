//! One benchmark run of one workload: correctness gate, set-up, warm-up,
//! the measured closed-loop window over the wire, and either the
//! end-to-end metrics (tracing off) or the per-layer metrics (a traced,
//! in-process replay on the directory the server leaves behind).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::child::{self, Server};
use crate::layers::{Local, Reply, Wire};
use crate::stats::{self, Digest};
use crate::trace::{self, LayerTable, Tracer};
use crate::workloads::{Expect, PoolFit, Scale, Shared, Source, Stmt, Table, Workload};

/// `(name, unit)` of every metric printed with tracing off; `BENCHMARK.json`
/// carries the same list with each metric's regression bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("stmt_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every metric of the traced run. Times are per
/// statement in which the layer ran; a layer that some workload never
/// enters is reported as a share (`_pct`), which is 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.wire_us", "us"),
    ("server.encode_us", "us"),
    ("server.resp_bytes", "B"),
    ("sql.parse_us", "us"),
    ("sql.lex_us", "us"),
    ("sql.analyze_us", "us"),
    ("engine.plan_us", "us"),
    ("engine.exec_us", "us"),
    ("engine.op.scan_pct", "%"),
    ("engine.op.filter_pct", "%"),
    ("engine.op.project_pct", "%"),
    ("engine.op.sort_pct", "%"),
    ("engine.op.hash_join_pct", "%"),
    ("engine.op.merge_join_pct", "%"),
    ("engine.op.nl_join_pct", "%"),
    ("engine.op.interval_join_pct", "%"),
    ("engine.op.aggregate_pct", "%"),
    ("engine.op.other_pct", "%"),
    ("core.adjust_pct", "%"),
    ("core.absorb_pct", "%"),
    ("core.insert_pct", "%"),
    ("engine.rows_examined_per_result", "ratio"),
    ("store.pages_read_per_stmt", "count"),
    ("store.pages_skipped_pct", "%"),
    ("store.pool_hit_pct", "%"),
    ("store.pool_evictions_per_stmt", "count"),
    ("store.io_reads_per_stmt", "count"),
    ("store.wal_bytes_per_user_byte", "ratio"),
    ("store.fsyncs_per_commit", "ratio"),
    ("store.checkpoints", "count"),
    ("store.bytes_per_user_byte", "ratio"),
    ("store.copy_ms", "ms"),
    ("store.recover_ms", "ms"),
    ("trace.covered_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Heap page size of the storage layer (for the page counts in the header).
const PAGE_BYTES: u64 = 4096;
/// Unmeasured closed-loop traffic before the window, so pools, the
/// allocator and the connections are in steady state.
const WARM_UP: Duration = Duration::from_secs(2);
/// Set-up is repeated and its median reported: at least this often, and
/// until this much time went into it (cheap set-ups repeat more).
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_millis(2500);

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `tsql` binary to serve with.
    pub tsql: PathBuf,
    /// A directory of this run's own, inside the checkout.
    pub scratch: PathBuf,
    /// Where `trace.<workload>.json` goes.
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `(kind, result_digest)`: equal across runs of one seed.
    pub digests: Vec<(&'static str, String)>,
}

impl Outcome {
    /// The one-line JSON object the driver reads.
    pub fn json(&self) -> String {
        format!("{{{}}}", self.json_fields())
    }

    /// That object's members, for embedding in a result-file entry.
    pub fn json_fields(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Statements attempted and failed, with the first few failures kept for
/// the report. A statement fails on `ERR`, an I/O error or a wrong result.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    examples: Vec<String>,
}

impl Tally {
    fn record(&mut self, sql: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        if let Err(why) = &outcome {
            self.failed += 1;
            if self.examples.len() < 5 {
                let head: String = sql.chars().take(80).collect();
                self.examples.push(format!("{why} <- {head}"));
            }
        }
        outcome.is_ok()
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.examples {
            if self.examples.len() < 5 {
                self.examples.push(e);
            }
        }
    }
}

/// Reference digest per statement kind, fixed by the first pass.
type Refs = Vec<Option<Digest>>;

/// Does `reply` meet `stmt.expect`? Returns the result's digest.
fn verify(reply: &Reply, stmt: &Stmt, refs: &Refs) -> Result<Option<Digest>, String> {
    match (reply, &stmt.expect) {
        (Reply::Error(e), _) => Err(format!("ERR {e}")),
        (Reply::Affected(n), Expect::Affected(want)) if n == want => Ok(None),
        (Reply::Rows(rows), Expect::Digest(want)) => {
            let got = Digest::of_rows(rows);
            if got == *want {
                Ok(Some(got))
            } else {
                Err(format!("wrong result: got {got}, expected {want}"))
            }
        }
        (Reply::Rows(rows), Expect::Reference) => {
            let got = Digest::of_rows(rows);
            match refs[stmt.kind] {
                Some(want) if want != got => {
                    Err(format!("result changed: got {got}, first was {want}"))
                }
                _ => Ok(Some(got)),
            }
        }
        (other, want) => Err(format!("unexpected reply {other:?} for {want:?}")),
    }
}

/// Run one statement over the wire and check the reply. Returns the wire
/// latency in milliseconds and the result digest; `None` if it failed.
fn wire_stmt(
    wire: &mut Wire,
    stmt: &Stmt,
    refs: &Refs,
    tally: &mut Tally,
) -> Result<Option<(f64, Option<Digest>)>, std::io::Error> {
    let started = Instant::now();
    let reply = wire.execute(&stmt.sql);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let reply = match reply {
        Ok(r) => r,
        Err(e) => {
            tally.record(&stmt.sql, Err(format!("I/O error: {e}")));
            return Err(e);
        }
    };
    let checked = verify(&reply, stmt, refs);
    let digest = checked.as_ref().ok().copied().flatten();
    Ok(tally
        .record(&stmt.sql, checked.map(drop))
        .then_some((ms, digest)))
}

/// A connection with the workload's session setting applied.
fn open_session(w: &Workload, addr: &str) -> Result<Wire, String> {
    let mut wire = Wire::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    if let Some(setting) = w.spec.session {
        match wire
            .execute(setting)
            .map_err(|e| format!("{setting}: {e}"))?
        {
            Reply::Ok => {}
            other => return Err(format!("{setting}: {other:?}")),
        }
    }
    Ok(wire)
}

/// A served, loaded database, ready for traffic.
struct Loaded {
    server: Server,
    control: Wire,
    refs: Refs,
    setup_s: f64,
    copy_ms: f64,
}

/// Spawn a server on the fresh directory `dir`, create and `COPY`-load the
/// workload's tables, and run one statement of each kind. Everything from
/// the spawn to the last reply is the set-up time.
fn setup(opts: &Options, w: &Workload, dir: &Path, tally: &mut Tally) -> Result<Loaded, String> {
    let started = Instant::now();
    let server = Server::spawn(&opts.tsql, dir, w.spec.transport)?;
    let mut control = open_session(w, &server.addr)?;
    let mut copy_ms = 0.0;
    for table in w.tables() {
        let create = format!("CREATE TABLE {} ({}) PERSISTED", table.name, table.columns);
        let copy = format!(
            "COPY {} FROM '{}'",
            table.name,
            csv_path(opts, w, table).display()
        );
        let copy_started = Instant::now();
        for (sql, want) in [
            (create, Reply::Ok),
            (copy, Reply::Affected(table.rows as u64)),
        ] {
            let got = control.execute(&sql).map_err(|e| format!("{sql}: {e}"))?;
            if got != want {
                return Err(format!("{sql}: {got:?}"));
            }
        }
        copy_ms += copy_started.elapsed().as_secs_f64() * 1e3;
    }
    let mut refs: Refs = vec![None; w.spec.kinds.len()];
    for stmt in w.first_pass() {
        let ran = wire_stmt(&mut control, &stmt, &refs, tally).map_err(|e| e.to_string())?;
        let (_, digest) = ran.ok_or_else(|| {
            format!(
                "first {} failed: {:?}",
                w.spec.kinds[stmt.kind], tally.examples
            )
        })?;
        if refs[stmt.kind].is_none() {
            refs[stmt.kind] = digest;
        }
    }
    Ok(Loaded {
        server,
        control,
        refs,
        setup_s: started.elapsed().as_secs_f64(),
        copy_ms,
    })
}

fn csv_path(opts: &Options, w: &Workload, table: &Table) -> PathBuf {
    opts.scratch
        .join(format!("{}.{}.csv", w.spec.name, table.name))
}

fn write_csvs(opts: &Options, w: &Workload) -> Result<(), String> {
    for table in w.tables() {
        let path = csv_path(opts, w, table);
        std::fs::write(&path, &table.csv).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The correctness gate: every statement kind at check scale, over the
/// wire, against an evaluation that shares no code path with the server's
/// executor (reference normalizer, snapshot oracle, or a plain filter over
/// the generated rows).
fn gate(opts: &Options, tally: &mut Tally) -> Result<(), String> {
    let w = Workload::new(&opts.workload, opts.seed, Scale::Check)?;
    write_csvs(opts, &w)?;
    let mut loaded = setup(opts, &w, &opts.scratch.join("gate"), tally)?;
    for stmt in w.gate() {
        wire_stmt(&mut loaded.control, stmt, &loaded.refs, tally).map_err(|e| e.to_string())?;
    }
    Ok(())
}

struct Sample {
    kind: usize,
    /// Wire latency, milliseconds.
    ms: f64,
    /// When the reply was in, seconds from the phase's start.
    done_at: f64,
}

/// What one connection did in one phase.
#[derive(Default)]
struct ConnLog {
    /// Every statement that succeeded.
    samples: Vec<Sample>,
    tally: Tally,
    user_bytes: u64,
}

/// Closed loop: the next statement goes out when the previous reply is in.
fn drive(wire: &mut Wire, source: &mut Source<'_>, refs: &Refs, until: Instant) -> ConnLog {
    let mut log = ConnLog::default();
    let started = Instant::now();
    while Instant::now() < until {
        let stmt = source.next();
        match wire_stmt(wire, &stmt, refs, &mut log.tally) {
            Ok(Some((ms, _))) => {
                source.acknowledged(&stmt);
                log.samples.push(Sample {
                    kind: stmt.kind,
                    ms,
                    done_at: started.elapsed().as_secs_f64(),
                });
                log.user_bytes += stmt.user_bytes as u64;
            }
            Ok(None) => {}
            // The connection is gone; what was lost is already tallied.
            Err(_) => break,
        }
    }
    log
}

/// The client side of one served workload: its connections, each with
/// its statement source.
struct Traffic<'w> {
    wires: Vec<Wire>,
    sources: Vec<Source<'w>>,
    shared: Arc<Shared>,
}

impl<'w> Traffic<'w> {
    fn connect(w: &'w Workload, addr: &str) -> Result<Traffic<'w>, String> {
        let shared = w.shared();
        let mut traffic = Traffic {
            wires: Vec::new(),
            sources: Vec::new(),
            shared: Arc::clone(&shared),
        };
        for conn in 0..w.spec.connections {
            traffic.wires.push(open_session(w, addr)?);
            traffic.sources.push(w.source(conn, &shared));
        }
        Ok(traffic)
    }

    /// Run every connection for `length`, all starting together. Returns
    /// the logs and the time from the common start to the last reply.
    fn phase(&mut self, refs: &Refs, length: Duration) -> (Vec<ConnLog>, f64) {
        let barrier = Barrier::new(self.wires.len() + 1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .wires
                .iter_mut()
                .zip(self.sources.iter_mut())
                .map(|(wire, source)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        drive(wire, source, refs, Instant::now() + length)
                    })
                })
                .collect();
            barrier.wait();
            let started = Instant::now();
            let logs = handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect();
            (logs, started.elapsed().as_secs_f64())
        })
    }
}

/// The server's `.stats`, as numbers.
fn server_stats(control: &mut Wire) -> Result<BTreeMap<String, f64>, String> {
    match control.execute(".stats").map_err(|e| e.to_string())? {
        Reply::Rows(rows) => Ok(rows
            .into_iter()
            .filter_map(|r| {
                let mut fields = r.into_iter().flatten();
                let name = fields.next()?;
                Some((name, fields.next()?.parse().ok()?))
            })
            .collect()),
        other => Err(format!(".stats: {other:?}")),
    }
}

/// Counter movement over the measured window.
struct StatsDelta {
    before: BTreeMap<String, f64>,
    after: BTreeMap<String, f64>,
}

impl StatsDelta {
    fn of(&self, name: &str) -> f64 {
        let get = |m: &BTreeMap<String, f64>| m.get(name).copied().unwrap_or(0.0);
        get(&self.after) - get(&self.before)
    }
}

/// Attach each metric's unit, checking the list against the declared one.
fn with_units(
    declared: &'static [(&'static str, &'static str)],
    values: Vec<(&'static str, f64)>,
) -> Vec<(&'static str, f64, &'static str)> {
    assert!(
        values.iter().map(|v| v.0).eq(declared.iter().map(|d| d.0)),
        "metric list out of step with its declaration"
    );
    values
        .into_iter()
        .zip(declared)
        .map(|((name, value), (_, unit))| (name, value, *unit))
        .collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Latencies of one statement class, ascending.
fn sorted_ms(logs: &[ConnLog], keep: impl Fn(usize) -> bool) -> Vec<f64> {
    let mut v: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| keep(s.kind))
        .map(|s| s.ms)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Statements per second at the median pace: on each connection, the
/// statements of one rotation through its kinds divided by the median time
/// a rotation took; summed over the connections. Unlike statements ÷
/// window it does not move with the few seconds-long slow spells a shared
/// 2-core box has in most windows (those are `tail_ms`' to show).
fn median_pace(logs: &[ConnLog]) -> f64 {
    logs.iter()
        .map(|log| {
            let mut kinds: Vec<usize> = log.samples.iter().map(|s| s.kind).collect();
            kinds.sort_unstable();
            kinds.dedup();
            let per_rotation = kinds.len().max(1);
            let marks: Vec<f64> = log
                .samples
                .iter()
                .step_by(per_rotation)
                .map(|s| s.done_at)
                .collect();
            let mut rotations: Vec<f64> = marks.windows(2).map(|w| w[1] - w[0]).collect();
            if rotations.is_empty() {
                return 0.0;
            }
            per_rotation as f64 / stats::median(&mut rotations)
        })
        .sum()
}

fn print_header(opts: &Options, w: &Workload, loaded: &mut Loaded) -> Result<(), String> {
    let capture = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let stats = server_stats(&mut loaded.control)?;
    let pool_pages = stats.get("pool.capacity").copied().unwrap_or(0.0) / w.tables().len() as f64;
    println!(
        "# workload={} seed={} seconds={} trace={} connections={} (closed loop) nproc={}",
        w.spec.name,
        opts.seed,
        opts.seconds,
        opts.trace,
        w.spec.connections,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("# why: {}", w.spec.why);
    println!(
        "# commit={} rustc={:?}",
        capture("git", &["rev-parse", "--short", "HEAD"]),
        capture("rustc", &["-V"]),
    );
    println!(
        "# server: tsql --serve over {:?}, shipped defaults (threads=1, sync_mode=commit), \
         TEMPORAL_* unset, pool_pages_per_table={pool_pages}",
        w.spec.transport
    );
    for table in w.tables() {
        let heap = loaded.server.dir.join(format!("{}.heap", table.name));
        let pages = std::fs::metadata(&heap).map_or(0, |m| m.len() / PAGE_BYTES);
        println!(
            "# table {}: {} rows, {} pages",
            table.name, table.rows, pages
        );
        let ok = match table.pool {
            PoolFit::Exceeds => pages as f64 > pool_pages,
            PoolFit::Fits => (pages as f64) < pool_pages,
            PoolFit::Any => true,
        };
        if !ok {
            return Err(format!(
                "table {} has {pages} pages against a {pool_pages}-page pool: the workload's \
                 sizing assumption does not hold",
                table.name
            ));
        }
    }
    Ok(())
}

fn kind_digests(w: &Workload, refs: &Refs) -> Vec<(&'static str, String)> {
    w.spec
        .kinds
        .iter()
        .zip(refs)
        .filter_map(|(kind, digest)| Some((*kind, digest.as_ref()?.to_string())))
        .collect()
}

/// Per-kind latency detail and the kind's result digest.
fn print_kinds(w: &Workload, logs: &[ConnLog], refs: &Refs) {
    for (kind, name) in w.spec.kinds.iter().enumerate() {
        let ms = sorted_ms(logs, |k| k == kind);
        if ms.is_empty() {
            println!("kind {name}: no samples");
            continue;
        }
        let tail = stats::highest_supported_tail(ms.len());
        println!(
            "kind {name}: n={} p50_ms={:.4} {} result_digest={}",
            ms.len(),
            stats::percentile(&ms, 50.0),
            tail.map_or("tail=unsupported".to_string(), |p| format!(
                "p{p}_ms={:.4}",
                stats::percentile(&ms, p)
            )),
            refs[kind].map_or("-".to_string(), |d| d.to_string()),
        );
    }
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.scratch).map_err(|e| format!("create scratch dir: {e}"))?;
    let result = if opts.trace {
        run_traced(opts)
    } else {
        run_end_to_end(opts)
    };
    // Best effort: the directory is git-ignored either way.
    let _ = std::fs::remove_dir_all(&opts.scratch);
    result
}

/// Every acknowledged row must be there after a crash: serve the directory
/// the SIGKILLed server left and count. A lost row is a failed statement.
fn check_durability(
    opts: &Options,
    w: &Workload,
    data_dir: &Path,
    acked: i64,
    tally: &mut Tally,
) -> Result<(), String> {
    let started = Instant::now();
    let server = Server::spawn(&opts.tsql, data_dir, w.spec.transport)?;
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut control = Wire::connect(&server.addr).map_err(|e| format!("reconnect: {e}"))?;
    let sql = format!("SELECT count(*) c FROM ev WHERE v <= {acked}");
    let present = match control.execute(&sql).map_err(|e| e.to_string())? {
        Reply::Rows(rows) => rows
            .first()
            .and_then(|r| r.first()?.as_ref()?.parse::<i64>().ok()),
        _ => None,
    }
    .ok_or_else(|| format!("{sql}: unreadable count"))?;
    let acked_rows_lost = acked + 1 - present;
    println!(
        "durability: SIGKILL + reopen in {recover_ms:.1} ms, acked_rows={} \
         acked_rows_lost={acked_rows_lost} (process kill keeps the OS cache; power loss is \
         tests/crash_matrix.rs' job)",
        acked + 1
    );
    tally.record(
        &sql,
        if acked_rows_lost == 0 {
            Ok(())
        } else {
            Err(format!("{acked_rows_lost} acknowledged rows lost"))
        },
    );
    Ok(())
}

fn run_end_to_end(opts: &Options) -> Result<Outcome, String> {
    let run_started = Instant::now();
    let mut tally = Tally::default();
    gate(opts, &mut tally)?;
    println!(
        "gate: {} statements at check scale against independent evaluation, {} failed ({:.1} s)",
        tally.attempted,
        tally.failed,
        run_started.elapsed().as_secs_f64()
    );

    let w = Workload::new(&opts.workload, opts.seed, Scale::Full)?;
    write_csvs(opts, &w)?;

    // Set up several times; serve the window from the last.
    let mut setups: Vec<f64> = Vec::new();
    let setup_started = Instant::now();
    let mut loaded = loop {
        let dir = opts.scratch.join(format!("db-{}", setups.len()));
        let loaded = setup(opts, &w, &dir, &mut tally)?;
        setups.push(loaded.setup_s);
        let enough = setups.len() >= MIN_SETUPS && setup_started.elapsed() >= SETUP_BUDGET;
        if enough || setups.len() == MAX_SETUPS {
            break loaded;
        }
        let dir = loaded.server.kill();
        let _ = std::fs::remove_dir_all(dir);
    };
    print_header(opts, &w, &mut loaded)?;

    let mut traffic = Traffic::connect(&w, &loaded.server.addr)?;
    let (warm, _) = traffic.phase(&loaded.refs, WARM_UP);
    let before = server_stats(&mut loaded.control)?;
    let (logs, elapsed) = traffic.phase(&loaded.refs, Duration::from_secs_f64(opts.seconds));
    let delta = StatsDelta {
        before,
        after: server_stats(&mut loaded.control)?,
    };
    let peak_rss_mb = loaded.server.peak_rss_mb()?;
    let acked = traffic.shared.acked.load(Ordering::Acquire);
    drop(traffic);

    let data_dir = loaded.server.kill();
    if w.spec.writes() {
        check_durability(opts, &w, &data_dir, acked, &mut tally)?;
    }

    for log in warm {
        tally.absorb(log.tally);
    }
    let all = sorted_ms(&logs, |_| true);
    // The median of each read kind, kinds weighted equally: the median of
    // the pooled samples would sit on the boundary between two kinds'
    // distributions and jump with their sample counts.
    let read_p50s: Vec<f64> = (0..w.spec.kinds.len())
        .filter(|&k| !w.spec.is_write(k))
        .map(|k| sorted_ms(&logs, |kind| kind == k))
        .filter(|ms| !ms.is_empty())
        .map(|ms| stats::percentile(&ms, 50.0))
        .collect();
    let statements = all.len();
    let slices: Vec<usize> = (0..5)
        .map(|i| {
            let (from, to) = (
                opts.seconds * i as f64 / 5.0,
                opts.seconds * (i + 1) as f64 / 5.0,
            );
            logs.iter()
                .flat_map(|l| &l.samples)
                .filter(|s| from <= s.done_at && s.done_at < to)
                .count()
        })
        .collect();
    let user_bytes: u64 = logs.iter().map(|l| l.user_bytes).sum();
    let pace = median_pace(&logs);
    print_kinds(&w, &logs, &loaded.refs);
    for log in logs {
        tally.absorb(log.tally);
    }
    let beyond = stats::samples_beyond(statements.max(1), w.spec.tail_pct);
    let tail_supported = statements > 0 && beyond >= stats::MIN_BEYOND;
    if !tail_supported {
        println!(
            "INVALID: {statements} samples leave {beyond} beyond p{}, fewer than {}",
            w.spec.tail_pct,
            stats::MIN_BEYOND
        );
    }
    if read_p50s.is_empty() {
        return Err(format!("no statement succeeded: {:?}", tally.examples));
    }
    println!("statements per fifth of the window: {slices:?}");
    println!(
        "window: {elapsed:.3} s, {statements} statements ({:.3}/s overall), tail=p{} with {beyond} \
         samples beyond",
        statements as f64 / elapsed,
        w.spec.tail_pct
    );
    println!(
        "counts over the window: pool_hit_pct={:.2} pool_evictions={} io_reads={} wal_bytes={} \
         user_bytes={user_bytes} wal_commits={} wal_syncs={} checkpoints={}",
        100.0 * (1.0 - ratio(delta.of("pool.io_reads"), delta.of("pool.fetches"))),
        delta.of("pool.evictions"),
        delta.of("pool.io_reads"),
        delta.of("wal.bytes"),
        delta.of("wal.commits"),
        delta.of("wal.syncs"),
        delta.of("wal.checkpoints"),
    );
    println!(
        "setup_s samples: {setups:?}; whole run {:.1} s",
        run_started.elapsed().as_secs_f64()
    );
    for e in &tally.examples {
        println!("FAILED: {e}");
    }
    println!(
        "failed_share={} ({} of {})",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );

    let metrics = with_units(
        END_TO_END,
        vec![
            ("stmt_per_s", pace),
            (
                "p50_ms",
                read_p50s.iter().sum::<f64>() / read_p50s.len() as f64,
            ),
            ("tail_ms", stats::percentile(&all, w.spec.tail_pct)),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", stats::median(&mut setups)),
        ],
    );
    Ok(Outcome {
        workload: w.spec.name.to_string(),
        seed: opts.seed,
        correct: tally.failed == 0 && tail_supported,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        digests: kind_digests(&w, &loaded.refs),
    })
}

fn run_traced(opts: &Options) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let w = Workload::new(&opts.workload, opts.seed, Scale::Full)?;
    write_csvs(opts, &w)?;
    let mut loaded = setup(opts, &w, &opts.scratch.join("db"), &mut tally)?;
    print_header(opts, &w, &mut loaded)?;

    // The wire half: per-kind wire latency and the server's own counters.
    let mut traffic = Traffic::connect(&w, &loaded.server.addr)?;
    let (warm, _) = traffic.phase(&loaded.refs, WARM_UP / 2);
    let before = server_stats(&mut loaded.control)?;
    let (logs, _) = traffic.phase(&loaded.refs, Duration::from_secs_f64(opts.seconds / 2.0));
    let delta = StatsDelta {
        before,
        after: server_stats(&mut loaded.control)?,
    };
    let acked = traffic.shared.acked.load(Ordering::Acquire);
    drop(traffic);
    let data_dir = loaded.server.kill();
    let window_statements = logs.iter().map(|l| l.samples.len()).sum::<usize>() as f64;
    let window_user_bytes: u64 = logs.iter().map(|l| l.user_bytes).sum();
    let inserted_bytes: u64 = warm.iter().chain(&logs).map(|l| l.user_bytes).sum();
    let stored_bytes = child::dir_bytes(&data_dir);

    // The in-process half, on the directory the killed server left.
    let (mut local, recover) = Local::open(&data_dir)?;
    if let Some(setting) = w.spec.session {
        local.execute_plain(setting)?;
    }
    let replay = w.replay(acked);
    let mut tracer = Tracer::default();
    let mut plain_ms: Vec<Vec<f64>> = vec![Vec::new(); w.spec.kinds.len()];
    let mut traced_ms: Vec<Vec<f64>> = vec![Vec::new(); w.spec.kinds.len()];
    let (mut resp_bytes, mut scan_rows, mut result_rows) = (0u64, 0u64, 0u64);
    let (mut pages_read, mut pages_skipped, mut traced_reads) = (0u64, 0u64, 0u64);
    for kind in 0..w.spec.kinds.len() {
        let stmts: Vec<&Stmt> = replay.iter().filter(|s| s.kind == kind).collect();
        // Reads replay as they are; writes cannot (a second INSERT of the
        // same event is a different database), so the plain pass takes the
        // first half of the kind's statements and the traced pass the rest.
        let (plain, traced) = if w.spec.is_write(kind) {
            stmts.split_at(stmts.len() / 2)
        } else {
            (&stmts[..], &stmts[..])
        };
        for stmt in plain {
            let started = Instant::now();
            local.execute_plain(&stmt.sql)?;
            plain_ms[kind].push(started.elapsed().as_secs_f64() * 1e3);
        }
        for stmt in traced {
            let started = Instant::now();
            let ran = local.execute_traced(&stmt.sql, w.spec.kinds[kind], &mut tracer);
            traced_ms[kind].push(started.elapsed().as_secs_f64() * 1e3);
            let checked = ran.and_then(|t| {
                verify(&t.reply, stmt, &loaded.refs)?;
                Ok(t)
            });
            if let Ok(t) = &checked {
                resp_bytes += t.resp_bytes as u64;
                scan_rows += t.scan_rows;
                result_rows += t.result_rows;
                pages_read += t.pages_read;
                pages_skipped += t.pages_skipped;
                traced_reads += u64::from(!w.spec.is_write(kind));
            }
            tally.record(&stmt.sql, checked.map(drop));
        }
    }
    drop(local);

    let spans = tracer.spans();
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let trace_path = opts.out_dir.join(format!("trace.{}.json", w.spec.name));
    std::fs::write(&trace_path, trace::chrome_json(spans))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let table = LayerTable::of(spans);
    print_layer_table(&table);

    // Wire minus in-process, per kind; and what the spans cost.
    let mut wire_us = Vec::new();
    let (mut plain_sum, mut traced_sum) = (0.0, 0.0);
    for (kind, name) in w.spec.kinds.iter().enumerate() {
        let wire = sorted_ms(&logs, |k| k == kind);
        if wire.is_empty() || plain_ms[kind].is_empty() {
            return Err(format!("kind {name} has no samples in the traced run"));
        }
        let wire_p50 = stats::percentile(&wire, 50.0);
        let plain_p50 = stats::median(&mut plain_ms[kind].clone());
        let traced_p50 = stats::median(&mut traced_ms[kind].clone());
        println!(
            "kind {name}: wire n={} p50_ms={wire_p50:.4} | in-process plain p50_ms={plain_p50:.4} \
             traced p50_ms={traced_p50:.4} | server.wire_us={:.1}",
            wire.len(),
            (wire_p50 - plain_p50) * 1e3
        );
        wire_us.push((wire_p50 - plain_p50) * 1e3);
        plain_sum += plain_p50;
        traced_sum += traced_p50;
    }
    for log in warm.into_iter().chain(logs) {
        tally.absorb(log.tally);
    }
    for e in &tally.examples {
        println!("FAILED: {e}");
    }
    println!("trace: {} spans -> {}", spans.len(), trace_path.display());

    // Mean self time per statement in which the layer ran, microseconds.
    let per_stmt_us = |name: &str| {
        let cell = table.total(name);
        ratio(cell.self_ns as f64 / 1e3, cell.count as f64)
    };
    let stmt = table.total("stmt");
    let exec = table.total("engine.exec");
    let of_exec =
        |name: &str| 100.0 * ratio(table.total(name).self_ns as f64, exec.inclusive_ns as f64);
    let stmts = stmt.count as f64;
    let metrics = with_units(
        PER_LAYER,
        vec![
            (
                "server.wire_us",
                wire_us.iter().sum::<f64>() / wire_us.len() as f64,
            ),
            ("server.encode_us", per_stmt_us("server.encode")),
            ("server.resp_bytes", ratio(resp_bytes as f64, stmts)),
            ("sql.parse_us", per_stmt_us("sql.parse")),
            ("sql.lex_us", per_stmt_us("sql.lex")),
            ("sql.analyze_us", per_stmt_us("sql.analyze")),
            ("engine.plan_us", per_stmt_us("engine.plan")),
            (
                "engine.exec_us",
                ratio(exec.inclusive_ns as f64 / 1e3, exec.count as f64),
            ),
            ("engine.op.scan_pct", of_exec("engine.op.scan")),
            ("engine.op.filter_pct", of_exec("engine.op.filter")),
            ("engine.op.project_pct", of_exec("engine.op.project")),
            ("engine.op.sort_pct", of_exec("engine.op.sort")),
            ("engine.op.hash_join_pct", of_exec("engine.op.hash_join")),
            ("engine.op.merge_join_pct", of_exec("engine.op.merge_join")),
            ("engine.op.nl_join_pct", of_exec("engine.op.nl_join")),
            (
                "engine.op.interval_join_pct",
                of_exec("engine.op.interval_join"),
            ),
            ("engine.op.aggregate_pct", of_exec("engine.op.aggregate")),
            ("engine.op.other_pct", of_exec("engine.op.other")),
            ("core.adjust_pct", of_exec("core.adjust")),
            ("core.absorb_pct", of_exec("core.absorb")),
            (
                "core.insert_pct",
                100.0
                    * ratio(
                        table.total("core.insert").self_ns as f64,
                        stmt.inclusive_ns as f64,
                    ),
            ),
            (
                "engine.rows_examined_per_result",
                ratio(scan_rows as f64, result_rows.max(1) as f64),
            ),
            (
                "store.pages_read_per_stmt",
                ratio(pages_read as f64, traced_reads as f64),
            ),
            (
                "store.pages_skipped_pct",
                100.0 * ratio(pages_skipped as f64, (pages_read + pages_skipped) as f64),
            ),
            (
                "store.pool_hit_pct",
                100.0 * (1.0 - ratio(delta.of("pool.io_reads"), delta.of("pool.fetches"))),
            ),
            (
                "store.pool_evictions_per_stmt",
                ratio(delta.of("pool.evictions"), window_statements),
            ),
            (
                "store.io_reads_per_stmt",
                ratio(delta.of("pool.io_reads"), window_statements),
            ),
            (
                "store.wal_bytes_per_user_byte",
                ratio(delta.of("wal.bytes"), window_user_bytes as f64),
            ),
            (
                "store.fsyncs_per_commit",
                ratio(delta.of("wal.syncs"), delta.of("wal.commits")),
            ),
            ("store.checkpoints", delta.of("wal.checkpoints")),
            (
                "store.bytes_per_user_byte",
                ratio(
                    stored_bytes as f64,
                    (w.loaded_bytes() as u64 + inserted_bytes) as f64,
                ),
            ),
            ("store.copy_ms", loaded.copy_ms),
            ("store.recover_ms", recover.as_secs_f64() * 1e3),
            (
                "trace.covered_pct",
                100.0 * (1.0 - ratio(stmt.self_ns as f64, stmt.inclusive_ns as f64)),
            ),
            (
                "trace.overhead_pct",
                100.0 * (ratio(traced_sum, plain_sum) - 1.0),
            ),
        ],
    );
    Ok(Outcome {
        workload: w.spec.name.to_string(),
        seed: opts.seed,
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        digests: kind_digests(&w, &loaded.refs),
    })
}

/// Mean self time per statement, microseconds: one row per span name, one
/// column per statement kind, plus each kind's share of its `stmt` span.
fn print_layer_table(table: &LayerTable) {
    let kinds = table.kinds();
    print!("{:<26}", "layer self time (us/stmt)");
    for kind in &kinds {
        print!(" {kind:>12} {:>6}", "%");
    }
    println!();
    for name in table.names() {
        print!("{name:<26}");
        for kind in &kinds {
            let statements = table.cells[&(*kind, "stmt")];
            let cell = table.cells.get(&(*kind, name)).copied().unwrap_or_default();
            print!(
                " {:>12.1} {:>6.1}",
                ratio(cell.self_ns as f64 / 1e3, statements.count as f64),
                100.0 * ratio(cell.self_ns as f64, statements.inclusive_ns as f64),
            );
        }
        println!();
    }
}
