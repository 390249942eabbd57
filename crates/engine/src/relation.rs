//! In-memory relations: a schema plus its rows.
//!
//! The paper assumes *set-based semantics with duplicate-free temporal
//! relations* (Sec. 3.1); [`Relation::dedup`] and [`Relation::same_set`]
//! support that discipline, while row storage itself is a plain sequence so
//! executor nodes control when deduplication happens.
//!
//! A relation holds its rows in one of two shapes, and builds the other
//! lazily, once, on first use: the column batches the executor produced
//! ([`Relation::from_batches`] — how every query result arrives, and what a
//! scan of it and the wire encoder read back without building a row), or
//! `Arc` rows ([`Relation::new`] — how the API and tests construct
//! relations, and what [`Relation::rows`] hands out).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::batch::{RowBatch, BATCH_SIZE};
use crate::error::{EngineError, EngineResult};
use crate::schema::Schema;
use crate::tuple::Row;
use crate::value::Value;

/// The shared storage of a relation: at least one shape is present.
#[derive(Debug, Default)]
struct RelData {
    len: usize,
    batches: OnceLock<Vec<RowBatch>>,
    rows: OnceLock<Vec<Row>>,
}

impl RelData {
    fn of_rows(rows: Vec<Row>) -> RelData {
        RelData {
            len: rows.len(),
            batches: OnceLock::new(),
            rows: OnceLock::from(rows),
        }
    }
}

/// A materialized relation.
///
/// The storage is behind an `Arc`, so cloning a relation — and schema
/// re-attachment via [`Relation::with_schema`] — shares it instead of
/// copying it; mutation goes through copy-on-write.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    data: Arc<RelData>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows() == other.rows()
    }
}

impl Relation {
    /// Build a relation, validating row arity against the schema.
    pub fn new(schema: Schema, rows: Vec<Row>) -> EngineResult<Self> {
        for (i, r) in rows.iter().enumerate() {
            if r.len() != schema.len() {
                return Err(EngineError::SchemaMismatch(format!(
                    "row {i} has {} values, schema has {} columns",
                    r.len(),
                    schema.len()
                )));
            }
        }
        Ok(Relation {
            schema,
            data: Arc::new(RelData::of_rows(rows)),
        })
    }

    /// Build from plain value vectors.
    pub fn from_values(schema: Schema, rows: Vec<Vec<Value>>) -> EngineResult<Self> {
        Relation::new(schema, rows.into_iter().map(Row::new).collect())
    }

    /// Keep the batches an executor produced (arity-checked). No row is
    /// built until [`Relation::rows`] asks for one.
    pub fn from_batches(schema: Schema, batches: Vec<RowBatch>) -> EngineResult<Self> {
        if let Some(b) = batches.iter().find(|b| b.width() != schema.len()) {
            return Err(EngineError::SchemaMismatch(format!(
                "batch has {} columns, schema has {}",
                b.width(),
                schema.len()
            )));
        }
        Ok(Relation {
            schema,
            data: Arc::new(RelData {
                len: batches.iter().map(RowBatch::len).sum(),
                batches: OnceLock::from(batches),
                rows: OnceLock::new(),
            }),
        })
    }

    /// The empty relation over `schema`.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            data: Arc::new(RelData::of_rows(Vec::new())),
        }
    }

    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows, built from the batches on first use.
    pub fn rows(&self) -> &[Row] {
        self.data.rows.get_or_init(|| {
            let batches = self.data.batches.get().expect("one shape is present");
            batches.iter().flat_map(RowBatch::to_rows).collect()
        })
    }

    /// The rows as column batches, built from the rows on first use. The
    /// batches carry the schema they were built under; readers re-attach
    /// [`Relation::schema`].
    pub fn batches(&self) -> &[RowBatch] {
        self.data.batches.get_or_init(|| {
            let rows = self.data.rows.get().expect("one shape is present");
            rows.chunks(BATCH_SIZE)
                .map(|chunk| RowBatch::from_rows(self.schema.clone(), chunk))
                .collect()
        })
    }

    /// Column `c` as integers (`None`: NULL or not an integer), read from
    /// whichever shape is present.
    pub fn ints(&self, c: usize) -> Vec<Option<i64>> {
        match self.data.rows.get() {
            Some(rows) => rows.iter().map(|r| r[c].as_int()).collect(),
            None => self
                .batches()
                .iter()
                .flat_map(|b| (0..b.len()).map(move |i| b.column(c).int_at(i)))
                .collect(),
        }
    }

    /// Up to [`BATCH_SIZE`] rows starting at row `pos`, never crossing a
    /// stored batch (so a scan of collected batches hands them on without
    /// a copy), under `schema`; `None` at the end.
    pub fn batch_at(&self, pos: usize, schema: &Schema) -> Option<RowBatch> {
        let end = self.len();
        if pos >= end {
            return None;
        }
        let mut start = 0;
        for b in self.batches() {
            if pos < start + b.len() {
                let from = pos - start;
                let to = (end - start).min(b.len()).min(from + BATCH_SIZE);
                return Some(b.slice(from..to).with_schema(schema.clone()));
            }
            start += b.len();
        }
        None
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.len == 0
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows().iter()
    }

    /// Mutate the rows, copying them first when the storage is shared or
    /// holds batches (which the mutation would leave stale).
    fn with_rows_mut<R>(&mut self, f: impl FnOnce(&mut Vec<Row>) -> R) -> R {
        let owned = Arc::get_mut(&mut self.data)
            .is_some_and(|d| d.batches.get().is_none() && d.rows.get().is_some());
        if !owned {
            self.data = Arc::new(RelData::of_rows(self.rows().to_vec()));
        }
        let data = Arc::get_mut(&mut self.data).expect("unshared after the copy");
        let rows = data.rows.get_mut().expect("rows present");
        let out = f(rows);
        data.len = rows.len();
        out
    }

    /// Append a row (arity-checked). Copy-on-write when the rows are shared.
    pub fn push(&mut self, row: Row) -> EngineResult<()> {
        if row.len() != self.schema.len() {
            return Err(EngineError::SchemaMismatch(format!(
                "row has {} values, schema has {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        self.with_rows_mut(|rows| rows.push(row));
        Ok(())
    }

    /// Consume and return the rows (copies only if still shared).
    pub fn into_rows(self) -> Vec<Row> {
        match Arc::try_unwrap(self.data) {
            Ok(mut data) if data.rows.get().is_some() => data.rows.take().expect("present"),
            Ok(data) => Relation {
                schema: self.schema,
                data: Arc::new(data),
            }
            .rows()
            .to_vec(),
            Err(shared) => Relation {
                schema: self.schema,
                data: shared,
            }
            .rows()
            .to_vec(),
        }
    }

    /// Replace the schema (e.g. to attach qualifiers). Arity must match.
    /// The storage is shared with `self`, not copied.
    pub fn with_schema(&self, schema: Schema) -> EngineResult<Relation> {
        if schema.len() != self.schema.len() {
            return Err(EngineError::SchemaMismatch(format!(
                "cannot re-schema {} columns as {}",
                self.schema.len(),
                schema.len()
            )));
        }
        Ok(Relation {
            schema,
            data: Arc::clone(&self.data),
        })
    }

    /// Remove duplicate rows (set semantics), preserving first occurrence.
    pub fn dedup(&mut self) {
        let mut seen: HashSet<Row> = HashSet::with_capacity(self.len());
        self.with_rows_mut(|rows| rows.retain(|r| seen.insert(r.clone())));
    }

    /// True iff the relation contains no duplicate rows.
    pub fn is_set(&self) -> bool {
        let mut seen: HashSet<&Row> = HashSet::with_capacity(self.len());
        self.rows().iter().all(|r| seen.insert(r))
    }

    /// A copy with rows in canonical (sorted) order — for comparisons and
    /// deterministic display. Prefer [`Relation::into_sorted`] on an owned
    /// relation, which sorts in place when the rows are not shared.
    pub fn sorted(&self) -> Relation {
        self.clone().into_sorted()
    }

    /// Sort the rows in canonical order, consuming the relation. Only
    /// copies the row vector if it is still shared with another relation.
    pub fn into_sorted(mut self) -> Relation {
        self.with_rows_mut(|rows| rows.sort());
        self
    }

    /// Set equality: same rows regardless of order or multiplicity.
    pub fn same_set(&self, other: &Relation) -> bool {
        let a: HashSet<&Row> = self.rows().iter().collect();
        let b: HashSet<&Row> = other.rows().iter().collect();
        a == b
    }

    /// Bag equality: same rows with the same multiplicities. Counts row
    /// occurrences instead of cloning and sorting both row vectors.
    pub fn same_bag(&self, other: &Relation) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut counts: HashMap<&Row, i64> = HashMap::with_capacity(self.len());
        for r in self.rows() {
            *counts.entry(r).or_insert(0) += 1;
        }
        for r in other.rows() {
            match counts.get_mut(r) {
                Some(c) => *c -= 1,
                None => return false,
            }
        }
        counts.values().all(|&c| c == 0)
    }

    /// Share the relation (scans clone the `Arc`, not the rows).
    pub fn into_shared(self) -> Arc<Relation> {
        Arc::new(self)
    }

    /// Render as an aligned text table (for examples and docs).
    pub fn to_table(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .cols()
            .iter()
            .map(|c| c.qualified_name())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows()
            .iter()
            .map(|r| {
                r.values()
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = v.to_string();
                        widths[i] = widths[i].max(s.chars().count());
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        let sep = |out: &mut String, widths: &[usize]| {
            out.push('+');
            for w in widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out, &widths);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:<w$} |"));
        }
        out.push('\n');
        sep(&mut out, &widths);
        for row in &rendered {
            out.push('|');
            for (v, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {v:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out, &widths);
        out.push_str(&format!("({} rows)\n", self.len()));
        out
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};

    fn sample() -> Relation {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Str),
        ]);
        Relation::from_values(
            schema,
            vec![
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Int(2), Value::str("y")],
                vec![Value::Int(1), Value::str("x")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn arity_checked() {
        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        assert!(Relation::from_values(schema, vec![vec![Value::Int(1), Value::Int(2)]]).is_err());
    }

    #[test]
    fn dedup_and_set_check() {
        let mut r = sample();
        assert!(!r.is_set());
        r.dedup();
        assert!(r.is_set());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn set_and_bag_equality() {
        let r = sample();
        let mut d = sample();
        d.dedup();
        assert!(r.same_set(&d));
        assert!(!r.same_bag(&d));
        assert!(r.same_bag(&r.sorted()));
    }

    #[test]
    fn table_rendering_contains_headers_and_counts() {
        let t = sample().to_table();
        assert!(t.contains("| a | b |"));
        assert!(t.contains("(3 rows)"));
    }

    #[test]
    fn with_schema_shares_rows_copy_on_write() {
        let r = sample();
        let schema = Schema::new(vec![
            Column::new("x", DataType::Int),
            Column::new("y", DataType::Str),
        ]);
        let mut renamed = r.with_schema(schema).unwrap();
        // Shared storage: both relations point at the same row vector.
        assert!(std::ptr::eq(r.rows().as_ptr(), renamed.rows().as_ptr()));
        // Copy-on-write: mutating the copy leaves the original untouched.
        renamed
            .push(Row::new(vec![Value::Int(9), Value::str("z")]))
            .unwrap();
        assert_eq!(renamed.len(), 4);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn batch_backed_relation_builds_rows_once_and_scans_without_copying() {
        let rows = sample().into_rows();
        let schema = sample().schema().clone();
        let batches = vec![
            RowBatch::from_rows(schema.clone(), &rows[..2]),
            RowBatch::from_rows(schema.clone(), &rows[2..]),
        ];
        let mut rel = Relation::from_batches(schema.clone(), batches).unwrap();
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.ints(0), vec![Some(1), Some(2), Some(1)]);
        // A chunk never crosses a stored batch, and a whole one is the
        // stored columns themselves.
        let first = rel.batch_at(0, &schema).unwrap();
        assert_eq!(first.len(), 2);
        assert!(Arc::ptr_eq(first.column(0), rel.batches()[0].column(0)));
        assert_eq!(rel.batch_at(1, &schema).unwrap().to_rows(), rows[1..2]);
        assert!(rel.batch_at(3, &schema).is_none());
        assert_eq!(rel.rows(), rows.as_slice());
        // Mutation drops the batches it would leave stale.
        rel.push(Row::new(vec![Value::Int(5), Value::str("w")]))
            .unwrap();
        assert_eq!(rel.len(), 4);
        assert_eq!(rel.batches().iter().map(RowBatch::len).sum::<usize>(), 4);
        assert_eq!(rel.batch_at(3, &schema).unwrap().value(0, 0), Value::Int(5));
    }

    #[test]
    fn into_sorted_matches_sorted() {
        let r = sample();
        assert_eq!(r.sorted(), r.clone().into_sorted());
    }

    #[test]
    fn push_checks_arity() {
        let mut r = sample();
        assert!(r.push(Row::new(vec![Value::Int(1)])).is_err());
        assert!(r
            .push(Row::new(vec![Value::Int(3), Value::str("z")]))
            .is_ok());
        assert_eq!(r.len(), 4);
    }
}
