//! The database object: one [`Catalog`] + [`Planner`] behind every query
//! surface, optionally rooted on a storage directory with its manifest,
//! write-ahead log and buffer pools.
//!
//! This is the kernel's side of the paper's architecture (Sec. 6): the
//! DBMS owns the catalog, storage, WAL and sessions, and the temporal
//! operators arrive as plan nodes. Rust plans (`TemporalPlan::run`) and
//! the SQL session (`temporal_sql::Session`) both plan under
//! [`Database::read`], so a table registered through one surface is
//! queryable through the other and a `SET enable_*` applies to both.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::{Duration, Instant};

use crate::batch::{ColumnData, ColumnVec, RowBatch, BATCH_SIZE};
use crate::catalog::{Catalog, TableSource};
use crate::error::{EngineError, EngineResult};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::plan::{Planner, PlannerConfig, SettingValue};
use crate::recovery;
use crate::relation::Relation;
use crate::schema::{DataType, Schema};
use crate::storage::{
    self, heap_path, Manifest, PoolCounters, StoredTable, SyncMode, TableMeta, Wal,
    DEFAULT_BUFFER_POOL_PAGES, PAGE_SIZE,
};
use crate::trace::Tracer;
use crate::tuple::Row;
use crate::value::Value;

/// Default `wal_checkpoint_pages`: checkpoint once the WAL holds about
/// this many pages' worth of bytes since the last one.
const DEFAULT_WAL_CHECKPOINT_PAGES: u64 = 256;

/// How long a mutating call waits for the writer lock before giving up
/// with [`EngineError::Busy`] — long enough that writers queueing behind a
/// checkpoint succeed, short enough that a wedged writer surfaces as an
/// error instead of a hang.
const WRITER_WAIT: Duration = Duration::from_secs(10);

/// The on-disk side of an opened database: the directory, its manifest,
/// the write-ahead log, and the per-table buffer pool size used when
/// (re)opening heap files.
#[derive(Debug)]
struct StorageRoot {
    dir: PathBuf,
    manifest: Manifest,
    pool_pages: usize,
    /// The `pool.*` counters of the database's registry, which every
    /// buffer pool opened under this directory counts into.
    counters: PoolCounters,
    /// The directory's write-ahead log: every mutation is logged (and,
    /// under `sync_mode` `commit`/`always`, synced) before it is
    /// acknowledged, so `Database::open` can redo it after a crash.
    wal: Arc<Wal>,
    /// Checkpoint threshold (`wal_checkpoint_pages`): once the log grows
    /// past this many pages' worth of bytes, the next mutation flushes
    /// everything and truncates it.
    checkpoint_pages: u64,
}

/// Shared database state: one catalog, one planner, optionally one
/// storage directory (when opened via [`Database::open`]).
#[derive(Debug, Default)]
struct DbState {
    catalog: Catalog,
    planner: Planner,
    storage: Option<StorageRoot>,
}

impl DbState {
    /// Flush every stored table, refresh the manifest's row counts, stamp
    /// the database epoch into it, save it, and truncate the WAL.
    /// Everything logged so far is now on the data pages, so recovery no
    /// longer needs the log prefix.
    fn checkpoint(&mut self, epoch: u64) -> EngineResult<()> {
        let Some(root) = &mut self.storage else {
            return Ok(());
        };
        let mut refreshed = Vec::new();
        for name in self.catalog.list_tables() {
            if let Ok(TableSource::Stored(table)) = self.catalog.source(&name) {
                table.flush()?;
                refreshed.push((name, table.row_count()));
            }
        }
        for (name, rows) in refreshed {
            if let Some(meta) = root.manifest.get(&name) {
                if meta.rows != rows {
                    let mut meta = meta.clone();
                    meta.rows = rows;
                    root.manifest.insert(name, meta);
                }
            }
        }
        root.manifest.set_epoch(epoch);
        root.manifest.save(&root.dir)?;
        root.wal.checkpoint()?;
        Ok(())
    }

    /// Checkpoint if the WAL has outgrown the configured threshold.
    fn maybe_checkpoint(&mut self, epoch: u64) -> EngineResult<()> {
        let due = self.storage.as_ref().is_some_and(|root| {
            root.wal.bytes_since_checkpoint() > root.checkpoint_pages * PAGE_SIZE as u64
        });
        if due {
            self.checkpoint(epoch)?;
        }
        Ok(())
    }
}

/// The shared body behind every [`Database`] handle: the catalog state, the
/// writer lock, the open-session refcount and the change epoch.
///
/// Lock hierarchy (outer → inner): `writer` → `state` → heap tail lock →
/// interval-index lock → buffer-frame latch → WAL inner. Every mutating
/// entry point follows this order, so two sessions can never deadlock
/// against each other. (The index lock is held over frame latches only
/// while the first probe or zone check builds the index from a heap
/// scan.)
#[derive(Debug, Default)]
struct DbShared {
    /// Catalog + planner + storage metadata. Readers (planning, catalog
    /// lookups) take it shared; mutators take it exclusive only for short
    /// metadata sections — bulk append I/O and the commit fsync run
    /// outside it, so snapshot scans never wait on a writer's disk.
    state: RwLock<DbState>,
    /// Serializes every mutating entry point (registration, insert, drop,
    /// checkpoint). Acquisition is bounded: a writer that cannot get the
    /// lock within [`WRITER_WAIT`] fails with [`EngineError::Busy`]
    /// instead of hanging — concurrent writers are *serialized*, never
    /// interleaved, which is what keeps the append/WAL/manifest triple
    /// free of lost updates.
    writer: Mutex<()>,
    /// Open session registrations (see [`Database::open_session`]).
    /// [`Database::close`] shuts buffer pools only when this is zero, so
    /// one connection closing cannot yank pages from under another.
    sessions: AtomicUsize,
    /// Monotonic change counter: every committed mutation bumps it, and a
    /// checkpoint persists it into the manifest. Readers use it to detect
    /// cheaply whether anything changed between statements.
    epoch: AtomicU64,
    /// Unified observability registry: named counters, gauges and latency
    /// histograms from every layer accumulate here. The buffer pools,
    /// their disk managers and the WAL take their `pool.*` / `wal.*`
    /// counters from it when they are opened and bump them where the work
    /// happens; the SQL session and the server add statement counts and
    /// latencies. Counters are cumulative from [`Database::open`]: a
    /// dropped or replaced table's pool work stays counted.
    metrics: MetricsRegistry,
    /// Ring-buffer span tracer behind the `trace` GUC: statement, plan
    /// and operator spans land here and dump as chrome-trace JSON
    /// (tsql `.trace <file>`).
    tracer: Tracer,
}

impl Drop for DbShared {
    /// Best-effort checkpoint when the last handle goes away: flushes the
    /// pools and truncates the WAL so the next open replays nothing.
    /// Errors are swallowed (there is nowhere to report them from a
    /// destructor) — that is fine, because the WAL already holds
    /// everything a reopen needs; use [`Database::close`] to observe
    /// flush failures. This runs only when the last `Arc` drops, so no
    /// other session can still be using the pools.
    fn drop(&mut self) {
        let epoch = *self.epoch.get_mut();
        let state = self.state.get_mut().unwrap_or_else(|e| e.into_inner());
        let _ = state.checkpoint(epoch);
    }
}

/// The front door: a shared [`Catalog`] + [`Planner`] behind the Rust
/// plan API and the SQL session.
///
/// `Database` is a cheap handle (`Clone` shares the underlying state), so
/// plans, sessions and threads can all point at the same tables and
/// planner configuration.
///
/// ```
/// use temporal_engine::prelude::*;
///
/// let db = Database::new();
/// let staff = Relation::from_values(
///     Schema::new(vec![
///         Column::new("person", DataType::Str),
///         Column::new("ts", DataType::Int),
///         Column::new("te", DataType::Int),
///     ]),
///     vec![vec![Value::str("ann"), Value::Int(0), Value::Int(8)]],
/// )
/// .unwrap();
/// db.register("staff", staff).unwrap();
/// assert_eq!(db.list_tables(), vec!["staff".to_string()]);
/// assert_eq!(db.relation("staff").unwrap().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Database {
    inner: Arc<DbShared>,
}

/// RAII registration of one open session over a shared [`Database`] — a
/// server connection, an interactive shell, a worker thread. While any
/// guard is alive, [`Database::close`] checkpoints but leaves the buffer
/// pools open; pools shut only at the last close. Dropping the guard
/// deregisters the session.
#[derive(Debug)]
pub struct SessionGuard {
    shared: Arc<DbShared>,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.shared.sessions.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Database {
    /// A fresh in-memory database with the default planner configuration.
    pub fn new() -> Database {
        Database::default()
    }

    /// Open (or create) a **persisted** database rooted at directory
    /// `dir`: tables in the directory's manifest are attached as
    /// heap-file-backed catalog entries (scans stream their pages through
    /// a buffer pool), and every subsequent [`Database::register`] /
    /// [`Database::register_or_replace`] writes through to disk — so a
    /// later `open` of the same directory sees the same tables and rows.
    ///
    /// ```
    /// use temporal_engine::prelude::*;
    ///
    /// let dir = std::env::temp_dir().join("talign_db_open_doc");
    /// let _ = std::fs::remove_dir_all(&dir);
    /// let rel = Relation::from_values(
    ///     Schema::new(vec![Column::new("n", DataType::Str)]),
    ///     vec![vec![Value::str("ann")]],
    /// )
    /// .unwrap();
    ///
    /// let db = Database::open(&dir).unwrap();
    /// db.register("r", rel).unwrap();
    /// drop(db);
    ///
    /// // A fresh process sees the same table.
    /// let db = Database::open(&dir).unwrap();
    /// assert_eq!(db.list_tables(), vec!["r".to_string()]);
    /// assert_eq!(db.relation("r").unwrap().len(), 1);
    /// std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn open(dir: impl AsRef<Path>) -> EngineResult<Database> {
        Database::open_with_pool(dir, DEFAULT_BUFFER_POOL_PAGES)
    }

    /// [`Database::open`] with an explicit per-table buffer pool size (in
    /// pages). A pool smaller than a table's page count still scans the
    /// whole table — pages stream through the pool instead of residing in
    /// memory.
    pub fn open_with_pool(dir: impl AsRef<Path>, pool_pages: usize) -> EngineResult<Database> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| EngineError::Storage(format!("create {}: {e}", dir.display())))?;
        // Crash recovery first: replay whatever consistent prefix survives
        // in the WAL over the heap files and get back the settled manifest
        // plus the live log handle.
        let db = Database::new();
        let (manifest, wal, report) = recovery::recover(&dir, pool_pages, db.metrics())?;
        let counters = PoolCounters::new(db.metrics());
        let epoch = manifest.epoch();
        db.inner.epoch.store(epoch, Ordering::Release);
        {
            let mut state = db.state_mut();
            for (name, meta) in manifest.iter() {
                let schema = storage::schema_from_string(&meta.schema)?;
                // Trust the manifest's cached row count: pages validate
                // lazily on every pinned access, and the interval index
                // builds on first use, so open stays O(manifest),
                // not O(data). (Recovery already recounted any table it
                // replayed into.)
                let table = StoredTable::open_with_count(
                    dir.join(&meta.file),
                    name.clone(),
                    schema,
                    pool_pages,
                    meta.rows,
                    &counters,
                )?;
                table.attach_wal(Arc::clone(&wal));
                state.catalog.register(name.clone(), Arc::new(table))?;
            }
            state.storage = Some(StorageRoot {
                dir,
                manifest,
                pool_pages,
                counters,
                wal,
                checkpoint_pages: DEFAULT_WAL_CHECKPOINT_PAGES,
            });
            if report.did_work() {
                // Fold the replayed state into the data files and truncate
                // the log, so the next open starts clean.
                state.checkpoint(epoch)?;
            }
        }
        Ok(db)
    }

    fn state(&self) -> RwLockReadGuard<'_, DbState> {
        self.inner.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn state_mut(&self) -> RwLockWriteGuard<'_, DbState> {
        self.inner.state.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire the writer lock with a bounded wait (see `DbShared::writer`
    /// and [`WRITER_WAIT`]). All mutating entry points funnel through this
    /// before touching catalog, heap files, WAL or manifest.
    fn writer_lock(&self) -> EngineResult<MutexGuard<'_, ()>> {
        self.writer_lock_within(WRITER_WAIT)
    }

    /// [`Database::writer_lock`], giving up after `wait`.
    fn writer_lock_within(&self, wait: Duration) -> EngineResult<MutexGuard<'_, ()>> {
        let deadline = Instant::now() + wait;
        loop {
            match self.inner.writer.try_lock() {
                Ok(guard) => return Ok(guard),
                Err(TryLockError::Poisoned(p)) => return Ok(p.into_inner()),
                Err(TryLockError::WouldBlock) => {
                    if Instant::now() >= deadline {
                        return Err(EngineError::Busy(
                            "another session is writing; retry the statement".into(),
                        ));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    // ---- sessions & epoch ------------------------------------------------

    /// Register one open session (a server connection, a shell) over this
    /// database. [`Database::close`] leaves buffer pools open while any
    /// guard is alive; drop the guard to deregister.
    pub fn open_session(&self) -> SessionGuard {
        self.inner.sessions.fetch_add(1, Ordering::AcqRel);
        SessionGuard {
            shared: Arc::clone(&self.inner),
        }
    }

    /// How many [`SessionGuard`]s are currently alive.
    pub fn open_sessions(&self) -> usize {
        self.inner.sessions.load(Ordering::Acquire)
    }

    /// The database's change epoch: bumped by every committed mutation,
    /// persisted into the manifest at checkpoint, restored on open. Two
    /// equal epochs from the same handle mean no table changed in between.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Bump and return the new change epoch (callers hold the writer lock).
    fn bump_epoch(&self) -> u64 {
        self.inner.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    // ---- catalog ---------------------------------------------------------

    /// Register a relation as a table; errors if the name is taken. Rows
    /// are shared, not copied — except on a database opened via
    /// [`Database::open`], where registration is **durable**: the rows
    /// are written to a heap file and the table is backed by it.
    pub fn register(&self, name: impl Into<String>, rel: impl Into<Relation>) -> EngineResult<()> {
        let name = name.into();
        let rel = rel.into();
        let _writer = self.writer_lock()?;
        let epoch = self.bump_epoch();
        let mut state = self.state_mut();
        let DbState {
            catalog, storage, ..
        } = &mut *state;
        if catalog.contains(&name) {
            return Err(EngineError::DuplicateTable(name));
        }
        match storage {
            Some(root) => persist_into(root, catalog, &name, &rel, epoch),
            None => catalog.register(name, rel),
        }
    }

    /// Register or replace a relation as a table. On a durable database
    /// the replacement is atomic per table: the new rows are written to a
    /// temp file renamed over `<name>.heap` and the manifest entry is
    /// replaced in place — the old durable copy stays intact if persisting
    /// fails, and no dangling heap files are left behind.
    pub fn register_or_replace(
        &self,
        name: impl Into<String>,
        rel: impl Into<Relation>,
    ) -> EngineResult<()> {
        let name = name.into();
        let rel = rel.into();
        let _writer = self.writer_lock()?;
        let epoch = self.bump_epoch();
        let mut state = self.state_mut();
        let DbState {
            catalog, storage, ..
        } = &mut *state;
        match storage {
            // persist_into swaps the heap file atomically and replaces
            // both the manifest entry and the catalog entry.
            Some(root) => persist_into(root, catalog, &name, &rel, epoch),
            None => {
                catalog.register_or_replace(name, rel);
                Ok(())
            }
        }
    }

    /// Drop a table; returns whether it existed. On a persisted database
    /// this also deletes the table's heap file and manifest entry —
    /// errors if that cleanup fails (the table would otherwise resurrect
    /// on reopen).
    pub fn drop_table(&self, name: &str) -> EngineResult<bool> {
        let _writer = self.writer_lock()?;
        let epoch = self.bump_epoch();
        let mut state = self.state_mut();
        let existed = state.catalog.drop_table(name).is_some();
        if let Some(root) = &mut state.storage {
            remove_persisted(root, name, epoch)?;
        }
        Ok(existed)
    }

    /// Names of all registered tables, sorted.
    pub fn list_tables(&self) -> Vec<String> {
        self.state().catalog.list_tables()
    }

    /// Fetch a registered relation (shared, no copy; a stored table is
    /// read off disk in full).
    pub fn relation(&self, name: &str) -> EngineResult<Arc<Relation>> {
        self.state().catalog.get(name)
    }

    // ---- persistence -----------------------------------------------------

    /// Does this database write registrations through to disk?
    pub fn is_durable(&self) -> bool {
        self.state().storage.is_some()
    }

    /// Checkpoint a persisted database: flush every stored table, refresh
    /// and save the manifest, and truncate the WAL (everything logged so
    /// far is now on the data pages). A no-op on an in-memory database.
    /// Checkpoints also fire automatically once the log outgrows the
    /// `wal_checkpoint_pages` threshold (see [`Database::set`]).
    pub fn checkpoint(&self) -> EngineResult<()> {
        let _writer = self.writer_lock()?;
        let epoch = self.epoch();
        self.state_mut().checkpoint(epoch)
    }

    /// Checkpoint, then — when no registered session is still open —
    /// close every stored table's buffer pools, surfacing the I/O errors
    /// the silent drop path can only print. While other
    /// [`SessionGuard`]s are alive the pools stay open (their scans may
    /// hold pages), so per-connection teardown is always safe to call.
    pub fn close(&self) -> EngineResult<()> {
        let _writer = self.writer_lock()?;
        let epoch = self.epoch();
        let mut state = self.state_mut();
        state.checkpoint(epoch)?;
        if self.inner.sessions.load(Ordering::Acquire) > 0 {
            return Ok(());
        }
        for name in state.catalog.list_tables() {
            if let Ok(TableSource::Stored(table)) = state.catalog.source(&name) {
                table.close()?;
            }
        }
        Ok(())
    }

    /// The WAL durability policy of a persisted database (`None` when
    /// in-memory). Starts as [`SyncMode::Commit`]; `SET sync_mode`
    /// changes it ([`Database::set`]).
    pub fn sync_mode(&self) -> Option<SyncMode> {
        self.state().storage.as_ref().map(|r| r.wal.mode())
    }

    /// Append rows to table `name` (arity-checked): transposed into one
    /// batch for [`Database::insert_batch`]. Returns the number of
    /// appended rows.
    pub fn insert_rows(&self, name: &str, rows: Vec<Row>) -> EngineResult<usize> {
        let schema = self.state().catalog.schema_of(name)?;
        if let Some((i, row)) = rows
            .iter()
            .enumerate()
            .find(|(_, r)| r.len() != schema.len())
        {
            return Err(EngineError::SchemaMismatch(format!(
                "row {i} has {} values, table '{name}' has {} columns",
                row.len(),
                schema.len()
            )));
        }
        let batch = RowBatch::from_rows(schema, &rows);
        drop(rows);
        self.insert_batch(name, batch)
    }

    /// Append the rows of `batch` to table `name` — the one append path
    /// of every surface (`INSERT`, `COPY … FROM`, [`Database::insert_rows`]).
    /// The whole batch is checked against the table's schema first, so a
    /// bad value cannot leave a prefix appended. In-memory tables get a
    /// copy-on-write append of the batch; persisted tables append through
    /// the heap's bulk path and the manifest row count is refreshed.
    /// Returns the number of appended rows.
    ///
    /// Concurrency: writers serialize on the writer lock (bounded wait,
    /// then [`EngineError::Busy`]), but the append itself and the
    /// commit-time fsync run *outside* the shared state lock — snapshot
    /// readers keep scanning, and the fsync happens after the writer lock
    /// is released, so concurrent committers batch through the WAL's
    /// group-commit flusher instead of paying one fsync each.
    pub fn insert_batch(&self, name: &str, batch: RowBatch) -> EngineResult<usize> {
        let writer = self.writer_lock()?;
        let source = self.state().catalog.source(name)?;
        let batch = conform_batch(name, source.schema(), batch)?;
        let n = batch.len();
        match source {
            TableSource::Stored(table) => {
                // Appends publish to new snapshots atomically: readers see
                // the whole batch or none of it.
                table.append_rows(&batch)?;
                let epoch = self.bump_epoch();
                let wal = {
                    // Short exclusive section: manifest row count +
                    // threshold checkpoint. No data-page flush or manifest
                    // save for the append itself — recovery replays the
                    // log; the row count lands at the next checkpoint.
                    let mut state = self.state_mut();
                    let wal = state.storage.as_ref().map(|root| Arc::clone(&root.wal));
                    if let Some(root) = &mut state.storage {
                        if let Some(meta) = root.manifest.get(name) {
                            let mut meta = meta.clone();
                            meta.rows = table.row_count();
                            root.manifest.insert(name, meta);
                        }
                    }
                    state.maybe_checkpoint(epoch)?;
                    wal
                };
                // Release the writer lock *before* the commit fsync: the
                // rows are in the WAL (appends log through the heap's
                // sink), so all that remains is making them durable — and
                // concurrent committers doing the same share one fsync.
                drop(writer);
                if let Some(wal) = wal {
                    wal.commit()?;
                }
            }
            TableSource::Mem(rel) => {
                // The batch joins the stored ones; a short last batch
                // absorbs it, so row-at-a-time inserts still scan in
                // full batches.
                let schema = rel.schema().clone();
                let mut batches = rel.batches().to_vec();
                match batches.last_mut() {
                    _ if batch.is_empty() => {}
                    Some(last) if last.len() < BATCH_SIZE => {
                        *last = RowBatch::concat(schema.clone(), &[last.clone(), batch]);
                    }
                    _ => batches.push(batch),
                }
                let new_rel = Relation::from_batches(schema, batches)?;
                self.bump_epoch();
                self.state_mut().catalog.register_or_replace(name, new_rel);
            }
        }
        Ok(n)
    }

    // ---- observability ---------------------------------------------------

    /// The database-wide metrics registry. The buffer pools and the WAL
    /// count into it (`pool.*`, `wal.*`), and any layer holding a handle
    /// can register counters/gauges/histograms by name
    /// (`server.statements`, `session.statement_us`, …); they all land in
    /// one [`Database::metrics_snapshot`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The database-wide span tracer. Populated while the `trace` GUC is
    /// on (`SET trace = on`); dump with tsql `.trace <file>` as
    /// chrome-trace JSON.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// One snapshot of every metric: the registry's instruments, plus
    /// three instantaneous readings as gauges — `pool.capacity` (the
    /// frames of the open tables' pools, on a persisted database),
    /// `db.epoch` and `db.sessions`. Two snapshots
    /// [`MetricsSnapshot::diff`] into an interval view — the `pool.*` /
    /// `wal.*` traffic of just that window, with percentiles recomputed
    /// over it.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.inner.metrics.snapshot();
        {
            let state = self.state();
            if state.storage.is_some() {
                let catalog = &state.catalog;
                let frames = catalog
                    .list_tables()
                    .iter()
                    .filter_map(|name| match catalog.source(name) {
                        Ok(TableSource::Stored(table)) => Some(table.pool_pages() as u64),
                        _ => None,
                    })
                    .sum();
                snap.gauges.insert("pool.capacity".into(), frames);
            }
        }
        snap.gauges.insert("db.epoch".into(), self.epoch());
        snap.gauges
            .insert("db.sessions".into(), self.open_sessions() as u64);
        snap
    }

    // ---- configuration ---------------------------------------------------

    /// Set a setting by its GUC name. The storage-global settings live
    /// here, since there is one WAL per database:
    /// - `sync_mode`: when the WAL fsyncs — `off` (never: fastest, a crash
    ///   can lose recent commits), `commit` (once per acknowledged batch;
    ///   the default) or `always` (on every record);
    /// - `wal_checkpoint_pages`: how many pages' worth of WAL accumulate
    ///   before an automatic checkpoint.
    ///
    /// Both are accepted but inert on an in-memory database, so scripts
    /// run against either backing. Every other name is a planner setting
    /// ([`PlannerConfig::set`]): it lands in `local` when given — a scoped
    /// session's overlay, so other connections keep their settings — and
    /// otherwise in the shared planner every plan and SQL session on this
    /// database plans with.
    pub fn set(
        &self,
        name: &str,
        value: impl Into<SettingValue>,
        local: Option<&mut PlannerConfig>,
    ) -> EngineResult<()> {
        match (name.to_ascii_lowercase().as_str(), value.into()) {
            // `on`/`off` lex as booleans; they are spellings of sync modes.
            ("sync_mode", SettingValue::Bool(on)) => {
                self.set(name, if on { "on" } else { "off" }, local)
            }
            ("sync_mode", SettingValue::Str(word)) => {
                let mode = SyncMode::parse(&word).ok_or_else(|| {
                    EngineError::Unsupported(format!(
                        "sync_mode accepts off, commit or always (got {word:?})"
                    ))
                })?;
                if let Some(root) = &self.state().storage {
                    root.wal.set_mode(mode);
                }
                Ok(())
            }
            ("wal_checkpoint_pages", SettingValue::Int(pages)) => {
                if pages <= 0 {
                    return Err(EngineError::Unsupported(
                        "wal_checkpoint_pages must be positive".into(),
                    ));
                }
                if let Some(root) = &mut self.state_mut().storage {
                    root.checkpoint_pages = pages as u64;
                }
                Ok(())
            }
            (_, SettingValue::Str(_)) => Err(EngineError::Unsupported(format!(
                "unknown string setting {name:?} (expected sync_mode)"
            ))),
            (_, value) => match local {
                Some(config) => config.set(name, value),
                None => self.state_mut().planner.config.set(name, value),
            },
        }
    }

    /// A copy of the current planner configuration.
    pub fn config(&self) -> PlannerConfig {
        self.state().planner.config
    }

    /// Run `f` with shared access to the catalog and planner — the hook
    /// every query surface plans through. Plan inside `f` and execute
    /// after it returns: the physical plan captures its scans, so a long
    /// query never blocks concurrent registration or `SET`.
    pub fn read<R>(&self, f: impl FnOnce(&Catalog, &Planner) -> R) -> R {
        let state = self.state();
        f(&state.catalog, &state.planner)
    }
}

/// Write `rel` as the heap file of `name` under `root`, update the
/// manifest and switch the catalog entry to the stored backing.
fn persist_into(
    root: &mut StorageRoot,
    catalog: &mut Catalog,
    name: &str,
    rel: &Relation,
    epoch: u64,
) -> EngineResult<()> {
    let table =
        StoredTable::persist_relation(&root.dir, name, rel, root.pool_pages, &root.counters)?;
    let meta = TableMeta {
        file: format!("{name}.{}", storage::HEAP_EXT),
        fingerprint: storage::schema_fingerprint(table.schema()),
        rows: table.row_count(),
        schema: storage::schema_to_string(table.schema()),
    };
    // Log the (re)creation *after* its files are in place and *before*
    // the manifest write: a crash in between replays the upsert from
    // the log, and replay skips it when the heap file never landed.
    root.wal
        .append(&storage::WalRecord::TableUpsert {
            name: name.to_string(),
            file: meta.file.clone(),
            fingerprint: meta.fingerprint,
            rows: meta.rows,
            schema: meta.schema.clone(),
        })
        .and_then(|_| root.wal.commit())?;
    root.manifest.insert(name, meta);
    root.manifest.set_epoch(epoch);
    root.manifest.save(&root.dir)?;
    table.attach_wal(Arc::clone(&root.wal));
    catalog.register_or_replace(name, table);
    Ok(())
}

/// Remove `name`'s manifest entry and heap file under `root`, if any.
fn remove_persisted(root: &mut StorageRoot, name: &str, epoch: u64) -> EngineResult<()> {
    if root.manifest.remove(name).is_some() {
        // Log the drop before touching the manifest or files, so a
        // crash mid-removal finishes the job on replay instead of
        // resurrecting the table.
        root.wal
            .append(&storage::WalRecord::TableDrop {
                name: name.to_string(),
            })
            .and_then(|_| root.wal.commit())?;
        root.manifest.set_epoch(epoch);
        root.manifest.save(&root.dir)?;
    }
    let path = heap_path(&root.dir, name);
    match std::fs::remove_file(&path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(EngineError::Storage(format!(
            "remove {}: {e}",
            path.display()
        ))),
    }
}

/// Check a batch bound for a table of `schema` before anything is
/// appended: its width, and each value's type against its column's. NULL
/// fits any column and an `Int` bound for a `double` column is widened;
/// any other mismatch names the first offending row and its column. A
/// batch whose columns are all stored as their table columns' types
/// passes through untouched.
fn conform_batch(name: &str, schema: &Schema, batch: RowBatch) -> EngineResult<RowBatch> {
    if batch.width() != schema.len() {
        return Err(EngineError::SchemaMismatch(format!(
            "batch has {} columns, table '{name}' has {} columns",
            batch.width(),
            schema.len()
        )));
    }
    let mut rebuilt = Vec::new();
    // The first offending (row, column), in row order.
    let mut bad: Option<(usize, usize)> = None;
    for (c, (column, col)) in batch.columns().iter().zip(schema.cols()).enumerate() {
        match conform_column(column, col.dtype) {
            Ok(None) => {}
            Ok(Some(column)) => rebuilt.push((c, column)),
            Err(i) => {
                if bad.is_none_or(|(row, _)| i < row) {
                    bad = Some((i, c));
                }
            }
        }
    }
    if let Some((i, c)) = bad {
        let v = batch.value(c, i);
        let col = &schema.cols()[c];
        return Err(EngineError::SchemaMismatch(format!(
            "row {i}: column '{}' of table '{name}' is {}, got {} {v}",
            col.name,
            col.dtype,
            v.dtype().expect("NULL fits any column")
        )));
    }
    if rebuilt.is_empty() {
        return Ok(batch);
    }
    let mut columns = batch.columns().to_vec();
    for (c, column) in rebuilt {
        columns[c] = Arc::new(column);
    }
    Ok(RowBatch::new(batch.schema().clone(), batch.len(), columns))
}

/// `column` rebuilt as a column of `dtype` value by value (NULLs kept,
/// `Int`s widened for a `double` column), or `None` when it is stored as
/// one already. `Err` names the first row whose value does not fit.
fn conform_column(column: &ColumnVec, dtype: DataType) -> Result<Option<ColumnVec>, usize> {
    let stored_as = match column.data() {
        ColumnData::Int(_) => Some(DataType::Int),
        ColumnData::Double(_) => Some(DataType::Double),
        ColumnData::Bool(_) => Some(DataType::Bool),
        ColumnData::Str(_) => Some(DataType::Str),
        ColumnData::Mixed(_) => None,
    };
    if stored_as == Some(dtype) {
        return Ok(None);
    }
    let values = (0..column.len())
        .map(|i| match (column.value(i), dtype) {
            (Value::Int(x), DataType::Double) => Ok(Value::Double(x as f64)),
            (v, _) if v.dtype().is_none_or(|t| t == dtype) => Ok(v),
            _ => Err(i),
        })
        .collect::<Result<Vec<Value>, usize>>()?;
    Ok(Some(ColumnVec::from_values(values)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecutionState;
    use crate::plan::LogicalPlan;
    use crate::schema::Column;

    fn row(person: &str, team: &str, ts: i64, te: i64) -> Row {
        Row::new(vec![
            Value::str(person),
            Value::str(team),
            Value::Int(ts),
            Value::Int(te),
        ])
    }

    fn staff() -> Relation {
        let schema = Schema::new(vec![
            Column::new("person", DataType::Str),
            Column::new("team", DataType::Str),
            Column::new("ts", DataType::Int),
            Column::new("te", DataType::Int),
        ]);
        let rows = vec![
            row("ann", "db", 0, 8),
            row("joe", "db", 2, 6),
            row("sam", "ui", 4, 10),
        ];
        Relation::new(schema, rows).unwrap()
    }

    fn oncall() -> Relation {
        let schema = Schema::new(vec![
            Column::new("team", DataType::Str),
            Column::new("ts", DataType::Int),
            Column::new("te", DataType::Int),
        ]);
        let rows = vec![
            Row::new(vec![Value::str("db"), Value::Int(3), Value::Int(5)]),
            Row::new(vec![Value::str("ui"), Value::Int(5), Value::Int(7)]),
        ];
        Relation::new(schema, rows).unwrap()
    }

    /// Rows a query statement sees: a planned scan pins one heap snapshot.
    fn rows_of(db: &Database, name: &str) -> usize {
        let physical = db
            .read(|catalog, planner| {
                let scan = LogicalPlan::table_scan(name, catalog.schema_of(name)?);
                planner.plan(&scan, catalog)
            })
            .unwrap();
        physical
            .collect(&ExecutionState::new(db.config()))
            .unwrap()
            .len()
    }

    fn storage_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("talign_db_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn drop_and_list_tables() {
        let db = Database::new();
        db.register("staff", staff()).unwrap();
        db.register("oncall", oncall()).unwrap();
        assert_eq!(
            db.list_tables(),
            vec!["oncall".to_string(), "staff".to_string()]
        );
        let err = db.register("staff", oncall()).unwrap_err();
        assert_eq!(err.to_string(), "duplicate table: staff");
        assert!(db.drop_table("oncall").unwrap());
        assert!(!db.drop_table("oncall").unwrap());
        assert!(db.relation("oncall").is_err());
    }

    #[test]
    fn set_routes_planner_and_storage_settings() {
        let db = Database::new();
        db.set("enable_hashjoin", false, None).unwrap();
        assert!(!db.config().enable_hashjoin);
        // A scoped overlay takes the planner setting; the shared one stays.
        let mut local = db.config();
        db.set("enable_mergejoin", false, Some(&mut local)).unwrap();
        assert!(!local.enable_mergejoin && db.config().enable_mergejoin);
        assert!(db.set("enable_time_travel", true, None).is_err());
        let err = db.set("sync_mode", "bananas", None).unwrap_err();
        assert!(err.to_string().starts_with("unsupported: "), "{err}");
        assert!(err.to_string().contains("off, commit or always"), "{err}");
        // Storage settings are inert, not refused, in memory.
        db.set("sync_mode", "always", None).unwrap();
        assert_eq!(db.sync_mode(), None);
    }

    #[test]
    fn open_register_reopen_round_trip() {
        let dir = storage_dir("roundtrip");
        {
            let db = Database::open(&dir).unwrap();
            assert!(db.is_durable());
            db.register("staff", staff()).unwrap();
            // Durable registration backs the table with a heap file.
            assert!(db.read(|c, _| c.source("staff").unwrap().is_stored()));
        }
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.list_tables(), vec!["staff".to_string()]);
        assert_eq!(db.relation("staff").unwrap().sorted(), staff().sorted());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replace_and_drop_clean_up_heap_files() {
        let dir = storage_dir("replace");
        let db = Database::open(&dir).unwrap();
        db.register("staff", staff()).unwrap();
        let heap = dir.join("staff.heap");
        assert!(heap.exists());

        // Replacing rewrites the file (no dangling bytes from the old
        // heap) and keeps the table queryable.
        db.register_or_replace("staff", oncall()).unwrap();
        assert!(heap.exists());
        assert_eq!(db.relation("staff").unwrap().sorted(), oncall().sorted());

        // Dropping removes file + manifest entry.
        assert!(db.drop_table("staff").unwrap());
        assert!(!heap.exists());
        drop(db);
        let db = Database::open(&dir).unwrap();
        assert!(db.list_tables().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn insert_rows_appends_to_both_backings() {
        let dir = storage_dir("insert");
        let db = Database::open(&dir).unwrap();
        db.register("staff", staff()).unwrap();
        let extra = row("zoe", "ml", 1, 4);
        assert_eq!(db.insert_rows("staff", vec![extra.clone()]).unwrap(), 1);
        drop(db);
        // The append is durable.
        let db = Database::open(&dir).unwrap();
        assert_eq!(rows_of(&db, "staff"), 4);

        // And the in-memory path works the same (minus durability).
        let mem = Database::new();
        mem.register("staff", staff()).unwrap();
        mem.insert_rows("staff", vec![extra]).unwrap();
        assert_eq!(rows_of(&mem, "staff"), 4);
        let err = mem.insert_rows("nope", vec![]).unwrap_err();
        assert_eq!(err.to_string(), "unknown table: nope");
        // A wrong type is refused before anything is appended.
        let bad = Row::new(vec![
            Value::Int(1),
            Value::str("ml"),
            Value::Int(1),
            Value::Int(4),
        ]);
        assert!(mem.insert_rows("staff", vec![bad]).is_err());
        assert_eq!(rows_of(&mem, "staff"), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_batch_is_checked_whole_before_anything_is_appended() {
        let schema = Schema::new(vec![
            Column::new("x", DataType::Double),
            Column::new("n", DataType::Str),
            Column::new("ts", DataType::Int),
            Column::new("te", DataType::Int),
        ]);
        let db = Database::new();
        db.register("t", Relation::empty(schema)).unwrap();
        // An `Int` for a `double` column widens; NULL fits any column.
        let (int, dbl, null) = (Value::Int, Value::Double, Value::Null);
        let row = |v: [Value; 4]| Row::new(v.to_vec());
        let widened = vec![
            row([int(1), null.clone(), int(0), int(1)]),
            row([dbl(0.5), Value::str("a"), null.clone(), int(2)]),
        ];
        db.insert_rows("t", widened).unwrap();
        let rel = db.relation("t").unwrap();
        assert_eq!(rel.rows()[0][0], Value::Double(1.0));
        assert_eq!(rel.rows()[1][2], Value::Null);
        // The first bad value in row order is named (row 0's `te` before
        // row 1's `n`), and no row of the batch is appended.
        let bad = vec![
            row([dbl(1.0), Value::str("ok"), int(0), Value::str("x")]),
            row([dbl(1.0), int(7), int(0), int(1)]),
        ];
        let err = db.insert_rows("t", bad).unwrap_err().to_string();
        let want = "row 0: column 'te' of table 't' is int";
        assert!(err.contains(want), "{err}");
        assert_eq!(db.relation("t").unwrap().len(), 2);
    }

    #[test]
    fn epoch_bumps_on_writes_and_survives_reopen() {
        let dir = storage_dir("epoch");
        let epoch_after;
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(db.epoch(), 0);
            db.register("staff", staff()).unwrap();
            assert!(db.epoch() > 0);
            let before = db.epoch();
            db.insert_rows("staff", vec![row("zoe", "ml", 1, 4)])
                .unwrap();
            assert!(db.epoch() > before);
            epoch_after = db.epoch();
            db.checkpoint().unwrap();
        }
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.epoch(), epoch_after);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn busy_writer_lock_errors_instead_of_hanging() {
        let dir = storage_dir("busy");
        let db = Database::open(&dir).unwrap();
        db.register("staff", staff()).unwrap();
        // Hold the writer lock directly (the test module sees through the
        // handle) and verify a competing writer gives up with Busy.
        let _held = db.inner.writer.lock().unwrap();
        let db2 = db.clone();
        let err = std::thread::spawn(move || {
            db2.writer_lock_within(Duration::from_millis(50))
                .map(|_| ())
                .unwrap_err()
        })
        .join()
        .unwrap();
        assert!(err.to_string().contains("busy"), "{err}");
        // Readers are unaffected by a held writer lock.
        assert_eq!(rows_of(&db, "staff"), 3);
    }

    #[test]
    fn close_keeps_pools_open_while_sessions_live() {
        let dir = storage_dir("sessions");
        let db = Database::open(&dir).unwrap();
        db.register("staff", staff()).unwrap();
        let guard = db.open_session();
        assert_eq!(db.open_sessions(), 1);
        // close() with a live session checkpoints but must not shut the
        // pools: the table stays queryable.
        db.close().unwrap();
        assert_eq!(rows_of(&db, "staff"), 3);
        drop(guard);
        assert_eq!(db.open_sessions(), 0);
        db.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn readers_see_whole_batches_while_a_writer_appends() {
        let dir = storage_dir("snapshot_batches");
        let db = Database::open(&dir).unwrap();
        db.register("staff", staff()).unwrap();
        let writer = {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..40i64 {
                    let batch: Vec<Row> = (0..5)
                        .map(|j| row(&format!("w{i}_{j}"), "ops", i, i + 1))
                        .collect();
                    db.insert_rows("staff", batch).unwrap();
                }
            })
        };
        // Each read pins one snapshot — a planned scan and the catalog's
        // whole-table read alike; batches of 5 publish atomically, so
        // every observed count is the 3 seed rows plus a multiple of 5.
        for _ in 0..50 {
            let n = db.relation("staff").unwrap().len();
            assert_eq!((n - 3) % 5, 0, "torn batch visible: {n} rows");
            let n = rows_of(&db, "staff");
            assert_eq!((n - 3) % 5, 0, "torn batch visible: {n} rows");
        }
        writer.join().unwrap();
        assert_eq!(rows_of(&db, "staff"), 203);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
