//! # temporal-alignment
//!
//! A full reproduction of **“Temporal Alignment”** (Anton Dignös, Michael
//! H. Böhlen, Johann Gamper — SIGMOD 2012, DOI 10.1145/2213836.2213886) as
//! a Rust workspace:
//!
//! * [`engine`] — a from-scratch relational query engine standing in for
//!   the PostgreSQL kernel (pull executor, nested-loop/hash/merge joins,
//!   cost-based planner with `enable_*` switches, extension plan nodes),
//!   and the kernel's database object: catalog, storage, WAL, sessions;
//! * [`core`] — the paper's contribution: interval-timestamped relations,
//!   the **temporal splitter** (normalization `N_B(r; s)`) and **temporal
//!   aligner** (`r Φ_θ s`) primitives, the **absorb** operator α,
//!   timestamp propagation (extend `U`), the Table 2 **reduction rules**
//!   for the whole sequenced temporal algebra, plus the formal layer
//!   (timeslice, snapshot reducibility, lineage, change preservation) used
//!   to verify Theorem 1 executable-y;
//! * [`datasets`] — seeded generators for the evaluation workloads
//!   (an `Incumben` substitute and the `Ddisj`/`Deq`/`Drand`/random
//!   synthetic datasets of Sec. 7);
//! * [`baselines`] — the `sql` and `sql+normalize` comparison approaches
//!   from Sec. 7.4/7.5;
//! * [`sql`] — the SQL front end with the paper's `ALIGN` / `NORMALIZE` /
//!   `ABSORB` surface syntax (Sec. 6.2/6.3);
//! * [`server`] — concurrent multi-client serving: the `tsql` shell plus
//!   `tsql --serve` (session-per-connection line protocol over TCP or a
//!   Unix socket) and `tsql --connect`, with snapshot reads and group
//!   commit underneath.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

pub use temporal_baselines as baselines;
pub use temporal_core as core;
pub use temporal_datasets as datasets;
pub use temporal_engine as engine;
pub use temporal_server as server;
pub use temporal_sql as sql;

/// One-stop imports for applications: the [`core`] and [`engine`]
/// preludes (types, `col`/`lit`/`name` builders, [`core::prelude::TemporalPlan`],
/// and the engine's [`engine::prelude::Database`] every plan and session
/// runs against) plus the SQL session and the [`sql::DatabaseSqlExt`]
/// trait that puts `db.sql("…")` on that `Database`.
pub mod prelude {
    pub use temporal_core::prelude::*;
    pub use temporal_engine::prelude::*;
    pub use temporal_sql::{DatabaseSqlExt, Session, SqlOutput};
}
