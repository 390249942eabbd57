//! A named-table catalog, the engine's equivalent of a database schema.
//!
//! Since the storage layer landed, a table is backed by one of two
//! [`TableSource`]s: an in-memory [`Relation`] (the original behavior) or
//! an on-disk [`StoredTable`] heap file scanned through a buffer pool.
//! The planner resolves `TableScan` nodes via [`Catalog::source`] so
//! stored tables execute as streaming page scans; [`Catalog::get`]
//! remains as the materializing compatibility accessor.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{EngineError, EngineResult};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::storage::StoredTable;

/// The physical backing of a catalog table.
#[derive(Debug, Clone)]
pub enum TableSource {
    /// Materialized in memory; scans are `Arc` bumps.
    Mem(Arc<Relation>),
    /// Heap file behind a buffer pool; scans stream pages.
    Stored(Arc<StoredTable>),
}

impl TableSource {
    /// The table schema (unqualified).
    pub fn schema(&self) -> &Schema {
        match self {
            TableSource::Mem(rel) => rel.schema(),
            TableSource::Stored(t) => t.schema(),
        }
    }

    /// Current row count.
    pub fn row_count(&self) -> usize {
        match self {
            TableSource::Mem(rel) => rel.len(),
            TableSource::Stored(t) => t.row_count() as usize,
        }
    }

    /// Is this table backed by a heap file?
    pub fn is_stored(&self) -> bool {
        matches!(self, TableSource::Stored(_))
    }
}

impl From<Relation> for TableSource {
    fn from(rel: Relation) -> Self {
        TableSource::Mem(Arc::new(rel))
    }
}

impl From<Arc<Relation>> for TableSource {
    fn from(rel: Arc<Relation>) -> Self {
        TableSource::Mem(rel)
    }
}

impl From<Arc<StoredTable>> for TableSource {
    fn from(table: Arc<StoredTable>) -> Self {
        TableSource::Stored(table)
    }
}

/// Maps table names to their sources.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableSource>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table — a [`Relation`], an already-shared
    /// `Arc<Relation>` (no copy) or an `Arc<StoredTable>`; errors if the
    /// name is taken.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        source: impl Into<TableSource>,
    ) -> EngineResult<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(EngineError::DuplicateTable(name));
        }
        self.tables.insert(name, source.into());
        Ok(())
    }

    /// Register a table, replacing any table of that name.
    pub fn register_or_replace(&mut self, name: impl Into<String>, source: impl Into<TableSource>) {
        self.tables.insert(name.into(), source.into());
    }

    /// Look up a table as a materialized relation. In-memory tables are
    /// shared (`Arc` bump); stored tables are **read off disk in full** —
    /// execution paths should use [`Catalog::source`] and stream instead.
    pub fn get(&self, name: &str) -> EngineResult<Arc<Relation>> {
        match self.source(name)? {
            TableSource::Mem(rel) => Ok(rel),
            TableSource::Stored(t) => Ok(Arc::new(t.read_all()?)),
        }
    }

    /// Look up a table's backing source (cheap: `Arc` clone).
    pub fn source(&self, name: &str) -> EngineResult<TableSource> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// A table's schema without materializing anything.
    pub fn schema_of(&self, name: &str) -> EngineResult<Schema> {
        Ok(self.source(name)?.schema().clone())
    }

    /// Remove a table, returning its source if present.
    pub fn drop_table(&mut self, name: &str) -> Option<TableSource> {
        self.tables.remove(name)
    }

    /// Owned list of all registered table names, sorted.
    pub fn list_tables(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Is a table with this name registered?
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};
    use crate::storage::PoolCounters;
    use crate::tuple::Row;
    use crate::value::Value;

    fn rel() -> Relation {
        Relation::empty(Schema::new(vec![Column::new("a", DataType::Int)]))
    }

    #[test]
    fn register_and_get() {
        let mut c = Catalog::new();
        c.register("t", rel()).unwrap();
        assert!(c.get("t").is_ok());
        assert!(c.get("u").is_err());
        assert_eq!(c.list_tables(), vec!["t"]);
        assert_eq!(c.schema_of("t").unwrap().names(), vec!["a"]);
    }

    #[test]
    fn duplicate_registration_errors() {
        let mut c = Catalog::new();
        c.register("t", rel()).unwrap();
        assert!(c.register("t", rel()).is_err());
        c.register_or_replace("t", rel());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn drop_removes() {
        let mut c = Catalog::new();
        c.register("t", rel()).unwrap();
        assert!(c.drop_table("t").is_some());
        assert!(c.get("t").is_err());
        assert!(c.is_empty());
    }

    #[test]
    fn stored_tables_register_and_materialize() {
        let dir = std::env::temp_dir().join("talign_engine_catalog_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cat.heap");
        let _ = std::fs::remove_file(&path);
        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        let t = StoredTable::create(&path, "t", schema, 2, &PoolCounters::default()).unwrap();
        t.append_row(&Row::new(vec![Value::Int(41)])).unwrap();
        t.flush().unwrap();

        let mut c = Catalog::new();
        c.register("t", Arc::new(t)).unwrap();
        assert!(c.source("t").unwrap().is_stored());
        assert_eq!(c.source("t").unwrap().row_count(), 1);
        assert_eq!(c.schema_of("t").unwrap().names(), vec!["a"]);
        // Compatibility accessor materializes.
        let rel = c.get("t").unwrap();
        assert_eq!(rel.rows()[0][0], Value::Int(41));
        assert!(c.register("t", c.source("t").unwrap()).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
