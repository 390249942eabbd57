//! The four workloads: what is loaded, which statements run on which
//! connection, and what every statement must return.
//!
//! Each workload is chosen to put a different layer on the blocking path
//! (see `why`, and README.md for the layer → metric table); the sizes are
//! what the 2-core box can run often enough, in the window the driver
//! allows, for the workload's tail percentile to have ten samples beyond
//! it.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use crate::gen::{self, IncRow, Rng};
use crate::layers;
use crate::stats::Digest;

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Closed-loop client connections (≤ the box's 2 cores).
    pub connections: usize,
    /// The workload's fixed tail percentile (see `stats::MIN_BEYOND`).
    pub tail_pct: f64,
    pub kinds: &'static [&'static str],
    /// Statements per kind in the traced, in-process run: a fixed count,
    /// so the counts it reports repeat exactly for a seed.
    pub traced_per_kind: usize,
    /// A setting every session of the workload starts with (untimed).
    pub session: Option<&'static str>,
    pub transport: Transport,
}

impl Spec {
    pub fn is_write(&self, kind: usize) -> bool {
        self.kinds[kind] == "insert"
    }

    pub fn writes(&self) -> bool {
        (0..self.kinds.len()).any(|kind| self.is_write(kind))
    }
}

/// What `tsql --serve` listens on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `127.0.0.1` with an OS-assigned port: what `tsql --serve` does by
    /// default, Nagle and delayed ACKs included.
    Tcp,
    /// A Unix-domain socket in the run's scratch directory. At HEAD the
    /// client's two-write requests stall ~44 ms on TCP whenever the reply
    /// comes within the kernel's delayed-ACK horizon (~40 ms), and not
    /// otherwise; statements of 20–60 ms flip between the two from run to
    /// run. The operator workloads use this transport so that they
    /// measure operators; the TCP stall is `timeslice`'s and `oltp_mix`'s
    /// to show.
    Unix,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "normalize",
        why: "Figs. 13/14: sort, group-construction join and the adjustment sweep do the work; \
              N_pcn vs agg_pcn differ by the result size, isolating result encoding",
        connections: 1,
        tail_pct: 90.0,
        kinds: &["N_ssn", "N_pcn", "agg_pcn"],
        traced_per_kind: 8,
        session: None,
        transport: Transport::Unix,
    },
    Spec {
        name: "outer_join",
        why: "Figs. 15/16: alignment with theta, nested-loop/hash join and absorb dominate; \
              an operator fix here must leave normalize flat, and the reverse",
        connections: 1,
        tail_pct: 90.0,
        kinds: &["O3", "O1_paper"],
        traced_per_kind: 8,
        // The paper-faithful planner of the repository's Fig. 15 benches:
        // PostgreSQL's join methods only, no auto-selected sweep interval
        // join. O3 plans the same either way; O1 becomes the Fig. 15a path.
        session: Some("SET enable_intervaljoin_auto = off"),
        transport: Transport::Unix,
    },
    Spec {
        name: "timeslice",
        why: "working set 16x the buffer pool: index/zone-map pruning, pool hits and evictions, \
              scan decode and result transfer dominate, operators do little",
        connections: 2,
        tail_pct: 90.0,
        kinds: &["asof", "asof_key", "history"],
        traced_per_kind: 32,
        session: None,
        transport: Transport::Tcp,
    },
    Spec {
        name: "oltp_mix",
        why: "sub-millisecond reads beside single-row commits on one heap tail: front end, wire \
              round trip, WAL append, fsync and checkpoints are most of the latency",
        connections: 2,
        tail_pct: 90.0,
        kinds: &["read", "insert"],
        traced_per_kind: 400,
        session: None,
        transport: Transport::Tcp,
    },
];

/// Full scale is what is timed; check scale (n ≈ 200) is small enough for
/// the quadratic reference evaluations of the correctness gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Check,
    Full,
}

/// What a statement must return.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// The same bag as the first statement of this kind returned (the
    /// kind's `result_digest`; the statement text is constant).
    Reference,
    /// Exactly this bag, worked out independently of the system.
    Digest(Digest),
    Affected(u64),
}

#[derive(Debug, Clone)]
pub struct Stmt {
    /// Index into `Spec::kinds`.
    pub kind: usize,
    pub sql: String,
    pub expect: Expect,
    /// Bytes of user data this statement stores, as CSV.
    pub user_bytes: usize,
}

impl Stmt {
    fn read(kind: usize, sql: String, expect: Expect) -> Stmt {
        Stmt {
            kind,
            sql,
            expect,
            user_bytes: 0,
        }
    }
}

pub struct Table {
    pub name: &'static str,
    pub columns: &'static str,
    pub csv: String,
    pub rows: usize,
    /// The sizing the workload's reason rests on, checked on every run.
    pub pool: PoolFit,
}

/// How a loaded table must relate to the server's per-table buffer pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolFit {
    Any,
    /// More pages than the pool holds: scans stream and evict.
    Exceeds,
    /// Fewer pages than the pool holds.
    Fits,
}

const INC_COLUMNS: &str = "ssn int, pcn int, ts int, te int";
const ID_COLUMNS: &str = "id int, ts int, te int";
const EVENT_COLUMNS: &str = "k int, v int, ts int, te int";

const N_SSN: &str = "SELECT ssn, ts, te FROM (inc r1 NORMALIZE inc r2 USING(ssn)) x";
const N_PCN: &str = "SELECT pcn, ts, te FROM (inc r1 NORMALIZE inc r2 USING(pcn)) x";
/// The ϑᵀ reduction: normalize on the grouping attribute, then group by
/// it and the adjusted interval.
const AGG_PCN: &str = "SELECT pcn, count(*) c, ts, te FROM (inc r1 NORMALIZE inc r2 USING(pcn)) x \
                       GROUP BY pcn, ts, te";
/// `inc ⟗ᵀ_{pcn} inc` by the Table 2 rule: align both ways, outer join on
/// θ and equal intervals, absorb.
const O3: &str = "SELECT ABSORB x.ssn, x.pcn, y.ssn, y.pcn, coalesce(x.ts, y.ts) ts, \
                  coalesce(x.te, y.te) te \
                  FROM (inc r1 ALIGN inc r2 ON r1.pcn = r2.pcn) x \
                  FULL OUTER JOIN (inc r2 ALIGN inc r1 ON r2.pcn = r1.pcn) y \
                  ON x.pcn = y.pcn AND x.ts = y.ts AND x.te = y.te";
/// `r ⟕ᵀ_true s` on Ddisj (Fig. 15a).
const O1: &str = "SELECT ABSORB x.id, y.id, x.ts, x.te FROM (r ALIGN s ON true) x \
                  LEFT OUTER JOIN (s ALIGN r ON true) y ON x.ts = y.ts AND x.te = y.te";

/// Distinct parameter sets per `timeslice` kind; the statements cycle
/// through them, each with its result worked out from the generated rows.
const TIMESLICE_PARAMS: usize = 32;
/// The `oltp_mix` reader looks this many events back at most, so recent
/// keys are favoured.
const READ_BACK: u64 = 16;

pub struct Workload {
    pub spec: &'static Spec,
    seed: u64,
    tables: Vec<Table>,
    /// The statements connections cycle through (all but `oltp_mix`), one
    /// of each kind first.
    cycle: Vec<Stmt>,
    /// What the correctness gate runs, in order, on one connection.
    gate: Vec<Stmt>,
    /// `oltp_mix`: rows loaded before the first INSERT.
    initial_events: i64,
}

impl Workload {
    pub fn new(name: &str, seed: u64, scale: Scale) -> Result<Workload, String> {
        let spec = SPECS
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        let full = scale == Scale::Full;
        let mut w = Workload {
            spec,
            seed,
            tables: Vec::new(),
            cycle: Vec::new(),
            gate: Vec::new(),
            initial_events: 0,
        };
        match name {
            "normalize" => {
                let inc = gen::incumben(if full { 12_000 } else { 200 }, seed);
                w.tables.push(inc_table("inc", &inc));
                for (kind, sql) in [N_SSN, N_PCN, AGG_PCN].into_iter().enumerate() {
                    w.cycle
                        .push(Stmt::read(kind, sql.to_string(), Expect::Reference));
                }
                if !full {
                    let expected = [
                        layers::eager_self_normalize(&inc, 0),
                        layers::eager_self_normalize(&inc, 1),
                        layers::oracle_count_by_pcn(&inc),
                    ];
                    w.gate = gate_from(&w.cycle, &expected);
                }
            }
            "outer_join" => {
                let inc = gen::incumben(if full { 4_000 } else { 200 }, seed);
                let (r, s) = gen::ddisj(if full { 500 } else { 60 }, seed);
                w.tables.push(inc_table("inc", &inc));
                w.tables.push(id_table("r", &r));
                w.tables.push(id_table("s", &s));
                w.cycle
                    .push(Stmt::read(0, O3.to_string(), Expect::Reference));
                w.cycle
                    .push(Stmt::read(1, O1.to_string(), Expect::Reference));
                if !full {
                    let expected = [
                        layers::oracle_full_outer_join_on_pcn(&inc),
                        layers::oracle_left_outer_join_true(&r, &s),
                    ];
                    w.gate = gate_from(&w.cycle, &expected);
                }
            }
            "timeslice" => {
                let hist = gen::history(if full { 100_000 } else { 600 }, seed);
                w.tables.push(Table {
                    pool: PoolFit::Exceeds,
                    ..inc_table("hist", &hist)
                });
                w.cycle = timeslice_cycle(&hist, seed);
                w.gate = w.cycle[..3 * 4].to_vec();
            }
            "oltp_mix" => {
                w.initial_events = if full { 2_000 } else { 100 };
                let events: Vec<[i64; 4]> =
                    (0..w.initial_events).map(|i| gen::event(seed, i)).collect();
                w.tables.push(Table {
                    name: "ev",
                    columns: EVENT_COLUMNS,
                    csv: gen::csv(&events),
                    rows: events.len(),
                    pool: PoolFit::Fits,
                });
                // Gate: a burst of commits (after the one the first pass
                // makes), then reads behind them.
                let n = w.initial_events;
                w.gate = (n + 1..=n + 40).map(|i| insert_event(seed, i)).collect();
                let mut rng = Rng::new(seed ^ 0x5EED_0004);
                w.gate
                    .extend((0..40).map(|_| read_event(seed, n + 40, &mut rng)));
            }
            _ => unreachable!("SPECS names are handled above"),
        }
        Ok(w)
    }

    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    pub fn gate(&self) -> &[Stmt] {
        &self.gate
    }

    /// Bytes of user data loaded by `COPY`.
    pub fn loaded_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.csv.len()).sum()
    }

    /// One statement of each kind, run once at the end of set-up: it
    /// finishes lazy initialisation and fixes each kind's reference result.
    pub fn first_pass(&self) -> Vec<Stmt> {
        if self.spec.name == "oltp_mix" {
            let n = self.initial_events;
            let mut rng = Rng::new(self.seed ^ 0x5EED_0005);
            return vec![
                insert_event(self.seed, n),
                read_event(self.seed, n, &mut rng),
            ];
        }
        self.cycle[..self.spec.kinds.len()].to_vec()
    }

    /// The statements of the in-process replay, given the last event the
    /// wire run committed: `traced_per_kind` of each kind, in kind order
    /// (reads before writes).
    pub fn replay(&self, acked: i64) -> Vec<Stmt> {
        let shared = self.shared();
        shared.acked.store(acked, Ordering::Release);
        let mut out = Vec::new();
        for kind in 0..self.spec.kinds.len() {
            // `oltp_mix` reads come from connection 1; everything else
            // from where connection 0 starts.
            let reader = self.spec.writes() && !self.spec.is_write(kind);
            let mut source = self.source(usize::from(reader), &shared);
            let mut taken = 0;
            while taken < self.spec.traced_per_kind {
                let stmt = source.next();
                if stmt.kind == kind {
                    source.acknowledged(&stmt);
                    out.push(stmt);
                    taken += 1;
                }
            }
        }
        out
    }

    /// State the connections of one server share.
    pub fn shared(&self) -> Arc<Shared> {
        Arc::new(Shared {
            // `first_pass` has committed event `initial_events`.
            acked: AtomicI64::new(self.initial_events),
        })
    }

    /// The statement source of connection `conn`.
    pub fn source(&self, conn: usize, shared: &Arc<Shared>) -> Source<'_> {
        if self.spec.name == "oltp_mix" {
            return if conn == 0 {
                Source::Writer {
                    seed: self.seed,
                    shared: Arc::clone(shared),
                }
            } else {
                Source::Reader {
                    seed: self.seed,
                    rng: Rng::new(self.seed ^ 0x5EED_0006),
                    shared: Arc::clone(shared),
                }
            };
        }
        // Connections start half a cycle apart so they do not run in
        // lockstep on the same pages.
        Source::Cycle {
            stmts: &self.cycle,
            next: conn * self.cycle.len() / self.spec.connections,
        }
    }
}

pub struct Shared {
    /// The last event whose INSERT was acknowledged.
    pub acked: AtomicI64,
}

pub enum Source<'a> {
    Cycle {
        stmts: &'a [Stmt],
        next: usize,
    },
    /// Single-row INSERTs in timestamp order.
    Writer {
        seed: u64,
        shared: Arc<Shared>,
    },
    /// Point reads just behind the last acknowledged commit.
    Reader {
        seed: u64,
        rng: Rng,
        shared: Arc<Shared>,
    },
}

impl Source<'_> {
    pub fn next(&mut self) -> Stmt {
        match self {
            Source::Cycle { stmts, next } => {
                let stmt = stmts[*next % stmts.len()].clone();
                *next += 1;
                stmt
            }
            Source::Writer { seed, shared } => {
                insert_event(*seed, shared.acked.load(Ordering::Acquire) + 1)
            }
            Source::Reader { seed, rng, shared } => {
                read_event(*seed, shared.acked.load(Ordering::Acquire), rng)
            }
        }
    }

    /// The statement succeeded.
    pub fn acknowledged(&mut self, _stmt: &Stmt) {
        if let Source::Writer { shared, .. } = self {
            shared.acked.fetch_add(1, Ordering::AcqRel);
        }
    }
}

fn inc_table(name: &'static str, rows: &[IncRow]) -> Table {
    Table {
        name,
        columns: INC_COLUMNS,
        csv: gen::csv(rows),
        rows: rows.len(),
        pool: PoolFit::Any,
    }
}

fn id_table(name: &'static str, rows: &[gen::IdRow]) -> Table {
    Table {
        name,
        columns: ID_COLUMNS,
        csv: gen::csv(rows),
        rows: rows.len(),
        pool: PoolFit::Any,
    }
}

/// The cycle's statements with their independently evaluated results.
fn gate_from(cycle: &[Stmt], expected: &[Vec<layers::WireRow>]) -> Vec<Stmt> {
    cycle
        .iter()
        .zip(expected)
        .map(|(stmt, rows)| Stmt {
            expect: Expect::Digest(Digest::of_rows(rows)),
            ..stmt.clone()
        })
        .collect()
}

/// `asof`, `asof_key`, `history` in rotation over `TIMESLICE_PARAMS`
/// parameter sets, each result computed by filtering the generated rows.
fn timeslice_cycle(hist: &[IncRow], seed: u64) -> Vec<Stmt> {
    let mut rng = Rng::new(seed ^ 0x5EED_0003);
    let mut cycle = Vec::with_capacity(3 * TIMESLICE_PARAMS);
    let expect = |keep: &dyn Fn(&IncRow) -> bool, cols: &[usize]| {
        let mut d = Digest::default();
        for row in hist.iter().filter(|r| keep(r)) {
            d.add_ints(&cols.iter().map(|&c| row[c]).collect::<Vec<_>>());
        }
        Expect::Digest(d)
    };
    for p in 0..TIMESLICE_PARAMS {
        let v = 365 + rng.below((gen::DAYS - 730) as u64) as i64;
        cycle.push(Stmt::read(
            0,
            format!("SELECT ssn, pcn FROM hist AS OF {v}"),
            expect(&|r| r[2] <= v && v < r[3], &[0, 1]),
        ));
        // Every other point lookup hits a live assignment; the rest ask
        // for an employee at a random day (mostly no row).
        let some = hist[rng.below(hist.len() as u64) as usize];
        let (k, at) = if p % 2 == 0 {
            (some[0], some[2] + (some[3] - some[2]) / 2)
        } else {
            (some[0], v)
        };
        cycle.push(Stmt::read(
            1,
            format!("SELECT ssn, pcn FROM hist AS OF {at} WHERE ssn = {k}"),
            expect(&|r| r[0] == k && r[2] <= at && at < r[3], &[0, 1]),
        ));
        let k = hist[rng.below(hist.len() as u64) as usize][0];
        cycle.push(Stmt::read(
            2,
            format!("SELECT ssn, pcn, ts, te FROM hist WHERE ssn = {k}"),
            expect(&|r| r[0] == k, &[0, 1, 2, 3]),
        ));
    }
    cycle
}

fn insert_event(seed: u64, i: i64) -> Stmt {
    let [k, v, ts, te] = gen::event(seed, i);
    Stmt {
        kind: 1,
        sql: format!("INSERT INTO ev VALUES ({k}, {v}, {ts}, {te})"),
        expect: Expect::Affected(1),
        user_bytes: gen::csv(&[[k, v, ts, te]]).len(),
    }
}

/// A read one tick behind event `acked`, for the key of one of the last
/// `READ_BACK` events before that. Events start in sequence order, so no
/// commit still in flight can be valid at that tick: the result is fixed
/// by the events up to `acked` alone.
fn read_event(seed: u64, acked: i64, rng: &mut Rng) -> Stmt {
    let t = acked - 1;
    let key = gen::event(seed, t - rng.below(READ_BACK.min(t as u64 + 1)) as i64)[0];
    let mut d = Digest::default();
    for i in (t - gen::EVENT_LIFETIME + 1).max(0)..=t {
        let [k, v, ts, te] = gen::event(seed, i);
        if k == key {
            d.add_ints(&[v, ts, te]);
        }
    }
    Stmt::read(
        0,
        format!("SELECT v, ts, te FROM ev AS OF {t} WHERE k = {key}"),
        Expect::Digest(d),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_a_function_of_the_seed() {
        for spec in &SPECS {
            let a = Workload::new(spec.name, 5, Scale::Check).unwrap();
            let b = Workload::new(spec.name, 5, Scale::Check).unwrap();
            let c = Workload::new(spec.name, 6, Scale::Check).unwrap();
            let csv = |w: &Workload| w.tables().iter().map(|t| t.csv.clone()).collect::<Vec<_>>();
            assert_eq!(csv(&a), csv(&b), "{}", spec.name);
            assert_ne!(csv(&a), csv(&c), "{}", spec.name);
            let sql = |w: &Workload| w.gate().iter().map(|s| s.sql.clone()).collect::<Vec<_>>();
            assert_eq!(sql(&a), sql(&b), "{}", spec.name);
            assert!(!a.gate().is_empty(), "{} has no gate", spec.name);
            assert!(spec.connections <= 2 && spec.why.len() <= 200);
        }
    }

    #[test]
    fn every_kind_is_in_the_first_pass_and_the_gate() {
        for spec in &SPECS {
            let w = Workload::new(spec.name, 1, Scale::Check).unwrap();
            for kind in 0..spec.kinds.len() {
                assert!(w.first_pass().iter().any(|s| s.kind == kind));
                assert!(w.gate().iter().any(|s| s.kind == kind));
            }
        }
    }

    #[test]
    fn no_event_is_inserted_twice() {
        let w = Workload::new("oltp_mix", 3, Scale::Check).unwrap();
        let mut inserts: Vec<String> = w
            .first_pass()
            .iter()
            .chain(w.gate())
            .filter(|s| s.expect == Expect::Affected(1))
            .map(|s| s.sql.clone())
            .collect();
        let n = inserts.len();
        inserts.sort();
        inserts.dedup();
        assert_eq!(inserts.len(), n);
        assert_eq!(n, 41);
    }

    #[test]
    fn reads_expect_exactly_the_live_events_of_the_key() {
        let mut rng = Rng::new(1);
        let stmt = read_event(9, 500, &mut rng);
        let Expect::Digest(d) = stmt.expect else {
            panic!("reads carry a digest")
        };
        // The key comes from an event still valid at the read tick.
        assert!(d.rows >= 1 && d.rows <= gen::EVENT_LIFETIME as u64);
        assert!(stmt.sql.contains("AS OF 499"));
        // The writer's next event is the one after the last acknowledged.
        let shared = Arc::new(Shared {
            acked: AtomicI64::new(500),
        });
        let mut writer = Source::Writer { seed: 9, shared };
        let first = writer.next();
        assert!(first.sql.contains(", 501, 501, 551)"), "{}", first.sql);
        writer.acknowledged(&first);
        assert!(writer.next().sql.contains(", 502, 502, 552)"));
    }
}
