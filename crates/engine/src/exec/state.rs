//! Shared per-query execution state.
//!
//! One [`ExecutionState`] is created per plan execution and threaded by
//! reference through every [`crate::exec::ExecNode`] call: a node that
//! needs a planner setting reads the state's GUC snapshot, a node that
//! shares a materialized intermediate (a spool) registers it in the
//! state's cache, every scan of a table reads the one heap snapshot the
//! statement pinned, and every node observes the same cancellation flag.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use temporal_store::HeapSnapshot;

use crate::error::{EngineError, EngineResult};
use crate::exec::instrument::Instrumentation;
use crate::plan::PlannerConfig;
use crate::relation::Relation;
use crate::storage::StoredTable;

/// One spool slot: the shared materialized intermediate, locked
/// independently of the registry map so fills don't serialize lookups.
type SpoolSlot = Arc<Mutex<Option<Arc<Relation>>>>;

/// Shared state for one plan execution (see module docs).
#[derive(Debug)]
pub struct ExecutionState {
    /// GUC snapshot taken at execution start. Immutable for the lifetime
    /// of the query, so every operator sees the same settings.
    config: PlannerConfig,
    /// Cooperative cancellation: checked at batch boundaries by the
    /// collect loops.
    cancelled: AtomicBool,
    /// Spool registry: shared materialized intermediates, keyed by the
    /// plan node's address. The outer map guard is held only to look up or
    /// insert a slot; materialization happens under the slot's own lock,
    /// so a spool that fills from a subtree reading another spool cannot
    /// deadlock the registry.
    spools: Mutex<HashMap<usize, SpoolSlot>>,
    /// Heap snapshots pinned by this query, keyed by table identity
    /// (`Arc` pointer). The first scan of a table captures its snapshot;
    /// every later scan — other plan nodes, the pruning page resolver —
    /// reuses it, so one statement sees one consistent
    /// prefix of each table no matter how writers race it.
    snapshots: Mutex<HashMap<usize, HeapSnapshot>>,
    /// Per-operator instrumentation registry (`EXPLAIN ANALYZE`, tracing,
    /// `slow_query_ms`). `None` — the default — means the plan builder
    /// inserts no metering wrappers at all.
    instrument: Option<Instrumentation>,
}

impl ExecutionState {
    /// State for one execution under the given GUC snapshot.
    pub fn new(config: PlannerConfig) -> ExecutionState {
        ExecutionState {
            config,
            cancelled: AtomicBool::new(false),
            spools: Mutex::new(HashMap::new()),
            snapshots: Mutex::new(HashMap::new()),
            instrument: None,
        }
    }

    /// Enable per-operator instrumentation for this execution: the plan
    /// builder will wrap every executor node in a metering shim and
    /// attach page ledgers to storage scans (see
    /// [`crate::exec::instrument`]).
    pub fn with_instrumentation(mut self) -> ExecutionState {
        self.instrument = Some(Instrumentation::default());
        self
    }

    /// The instrumentation registry, when enabled.
    pub fn instrumentation(&self) -> Option<&Instrumentation> {
        self.instrument.as_ref()
    }

    /// The statement-level [`HeapSnapshot`] of `table`, captured on first
    /// use and memoized for the rest of the execution (see the `snapshots`
    /// field). Identity is the `Arc` pointer: a re-registered table is a
    /// different allocation and gets its own snapshot.
    pub fn snapshot_for(&self, table: &Arc<StoredTable>) -> HeapSnapshot {
        let key = Arc::as_ptr(table) as usize;
        let mut map = self.snapshots.lock().expect("snapshot registry poisoned");
        *map.entry(key).or_insert_with(|| table.snapshot())
    }

    /// The GUC snapshot this query runs under.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Request cooperative cancellation of this execution.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Error out if the query has been cancelled.
    pub fn check_cancelled(&self) -> EngineResult<()> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(EngineError::Cancelled);
        }
        Ok(())
    }

    /// Fetch the spool keyed by `key`, materializing it with `fill` on
    /// first access. Concurrent accessors of the same key block until the
    /// first one has filled it; distinct keys do not contend.
    pub fn spool_get_or_fill(
        &self,
        key: usize,
        fill: impl FnOnce() -> EngineResult<Relation>,
    ) -> EngineResult<Arc<Relation>> {
        let slot = {
            let mut map = self.spools.lock().expect("spool registry poisoned");
            map.entry(key).or_default().clone()
        };
        let mut guard = slot.lock().expect("spool slot poisoned");
        if let Some(rel) = guard.as_ref() {
            return Ok(rel.clone());
        }
        let rel = Arc::new(fill()?);
        *guard = Some(rel.clone());
        Ok(rel)
    }
}

impl Default for ExecutionState {
    /// State with the default GUC snapshot — the entry point used by code
    /// that runs an executor tree outside a planned query (tests, direct
    /// executor construction).
    fn default() -> Self {
        ExecutionState::new(PlannerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::schema::Schema;

    #[test]
    fn spool_fills_once() {
        let state = ExecutionState::default();
        let mut calls = 0;
        for _ in 0..3 {
            let rel = state
                .spool_get_or_fill(7, || {
                    calls += 1;
                    Ok(Relation::empty(Schema::new(vec![])))
                })
                .unwrap();
            assert_eq!(rel.len(), 0);
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn cancellation_trips_the_check() {
        let state = ExecutionState::default();
        assert!(state.check_cancelled().is_ok());
        state.cancel();
        assert!(state.check_cancelled().is_err());
    }
}
