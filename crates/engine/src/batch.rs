//! Column batches: the unit of execution.
//!
//! Once whole temporal queries compile into a single deep pipeline, moving
//! one row per virtual call makes per-tuple dispatch dominate the hot
//! loops. A [`RowBatch`] amortizes it: operators exchange chunks of
//! ~[`BATCH_SIZE`] rows through [`crate::exec::ExecNode::next_batch`] — the
//! executor's only pull method.
//!
//! A batch is **columnar**: one [`ColumnVec`] per schema column, shared
//! through an `Arc`, so passing a column on (a projection of a column
//! reference, a scan of a collected relation) costs a reference count and
//! no copy. `Int`/`Double`/`Bool` columns are flat `Vec<i64>`/`Vec<f64>`/
//! `Vec<bool>` and `Str` columns `Vec<Arc<str>>`, each with an optional
//! validity mask for NULLs; the interval endpoints and group keys the
//! temporal primitives sweep over are therefore contiguous `i64` slices. A
//! column whose non-NULL values are not all of one type (a UNION of an
//! `Int` and a `Double` column) stays a column of [`Value`]s, which keeps
//! `Value`'s structural equality and total order exact. The type of a
//! column is the type of the values it holds, not the schema's declared
//! type, so no value ever changes representation on its way through.
//!
//! Operators that reorder, filter or join rows compute row *indices* and
//! [`gather`](RowBatch::gather) every column once; [`NULL_ROW`] in a gather
//! index produces the ω padding of outer joins. Rows ([`Row`]) are built
//! only at the API edge ([`RowBatch::row`], [`crate::relation::Relation::rows`]).

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::hashing::{FxHashMap, FxHasher};
use crate::schema::Schema;
use crate::tuple::Row;
use crate::value::Value;

/// Target number of rows per batch. Large enough to amortize per-batch
/// overhead (virtual dispatch, expression-tree walks, schema clones) to
/// noise, small enough that a batch of typical rows stays cache-resident.
/// Operators may emit smaller batches (e.g. a selective filter) or larger
/// ones (e.g. a high-fanout join probe); only *empty* batches are illegal.
pub const BATCH_SIZE: usize = 1024;

/// Gather index of a row that is NULL in every column (the ω padding of an
/// outer join's unmatched side).
pub const NULL_ROW: u32 = u32::MAX;

/// The values of one column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    Int(Vec<i64>),
    Double(Vec<f64>),
    Bool(Vec<bool>),
    Str(Vec<Arc<str>>),
    /// Non-NULL values of more than one type; NULLs are inline.
    Mixed(Vec<Value>),
}

/// The shared placeholder behind a NULL slot of a `Str` column.
fn empty_str() -> Arc<str> {
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from("")).clone()
}

/// One typed column: the values plus, for typed columns, a validity mask
/// (`false` = NULL; `None` = no NULLs). NULL slots of a typed column hold
/// a placeholder no reader inspects.
#[derive(Debug, Clone)]
pub struct ColumnVec {
    data: ColumnData,
    valid: Option<Vec<bool>>,
}

impl ColumnVec {
    /// A column of non-NULL integers.
    pub fn from_ints(vals: Vec<i64>) -> ColumnVec {
        ColumnVec {
            data: ColumnData::Int(vals),
            valid: None,
        }
    }

    /// Typed values with a validity mask (`false` = NULL).
    pub fn masked(data: ColumnData, valid: Vec<bool>) -> ColumnVec {
        debug_assert!(!matches!(data, ColumnData::Mixed(_)));
        let valid = (!valid.iter().all(|&v| v)).then_some(valid);
        ColumnVec { data, valid }
    }

    /// The column of `values`, typed by the values it holds.
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> ColumnVec {
        let mut b = ColumnBuilder::default();
        for v in values {
            b.push(v);
        }
        b.finish()
    }

    /// `n` NULLs.
    pub fn nulls(n: usize) -> ColumnVec {
        ColumnVec {
            data: ColumnData::Int(vec![0; n]),
            valid: Some(vec![false; n]),
        }
    }

    /// `v`, `n` times.
    pub fn constant(v: &Value, n: usize) -> ColumnVec {
        let data = match v {
            Value::Null => return ColumnVec::nulls(n),
            Value::Int(x) => ColumnData::Int(vec![*x; n]),
            Value::Double(x) => ColumnData::Double(vec![*x; n]),
            Value::Bool(x) => ColumnData::Bool(vec![*x; n]),
            Value::Str(s) => ColumnData::Str(vec![s.clone(); n]),
        };
        ColumnVec { data, valid: None }
    }

    #[inline]
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The values and validity of an `Int` column.
    #[inline]
    pub fn ints(&self) -> Option<(&[i64], Option<&[bool]>)> {
        match &self.data {
            ColumnData::Int(v) => Some((v, self.valid.as_deref())),
            _ => None,
        }
    }

    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match &self.data {
            ColumnData::Mixed(m) => m[i].is_null(),
            _ => self.valid.as_ref().is_some_and(|m| !m[i]),
        }
    }

    /// The value at row `i`.
    pub fn value(&self, i: usize) -> Value {
        if self.valid.as_ref().is_some_and(|m| !m[i]) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Double(v) => Value::Double(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// The integer at row `i`; `None` for NULL or a non-integer value
    /// (what [`Value::as_int`] answers).
    #[inline]
    pub fn int_at(&self, i: usize) -> Option<i64> {
        match &self.data {
            ColumnData::Int(v) => match &self.valid {
                Some(m) if !m[i] => None,
                _ => Some(v[i]),
            },
            ColumnData::Mixed(v) => v[i].as_int(),
            _ => None,
        }
    }

    /// Does any row hold a non-NULL value?
    fn any_valid(&self) -> bool {
        match (&self.data, &self.valid) {
            (ColumnData::Mixed(m), _) => m.iter().any(|v| !v.is_null()),
            (_, Some(valid)) => valid.iter().any(|&v| v),
            (_, None) => !self.is_empty(),
        }
    }

    /// Structural equality of row `i` with row `j` of `other` — exactly
    /// `self.value(i) == other.value(j)`.
    #[inline]
    pub fn eq_at(&self, i: usize, other: &ColumnVec, j: usize) -> bool {
        let (na, nb) = (self.is_null(i), other.is_null(j));
        if na || nb {
            return na && nb;
        }
        match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i] == b[j],
            (ColumnData::Double(a), ColumnData::Double(b)) => a[i].total_cmp(&b[j]).is_eq(),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i] == b[j],
            (ColumnData::Str(a), ColumnData::Str(b)) => a[i] == b[j],
            _ => self.value(i) == other.value(j),
        }
    }

    /// Total order of row `i` against row `j` of `other` — exactly
    /// `self.value(i).cmp(&other.value(j))` (NULL first).
    #[inline]
    pub fn cmp_at(&self, i: usize, other: &ColumnVec, j: usize) -> Ordering {
        match (self.is_null(i), other.is_null(j)) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {}
        }
        match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i].cmp(&b[j]),
            (ColumnData::Double(a), ColumnData::Double(b)) => a[i].total_cmp(&b[j]),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i].cmp(&b[j]),
            (ColumnData::Str(a), ColumnData::Str(b)) => a[i].as_ref().cmp(b[j].as_ref()),
            _ => self.value(i).cmp(&other.value(j)),
        }
    }

    /// Feed row `i` to `h`, consistently with [`ColumnVec::eq_at`] between
    /// rows of one column.
    #[inline]
    pub fn hash_at<H: Hasher>(&self, i: usize, h: &mut H) {
        if self.is_null(i) {
            return h.write_u8(0);
        }
        match &self.data {
            ColumnData::Int(v) => h.write_i64(v[i]),
            ColumnData::Double(v) => h.write_u64(v[i].to_bits()),
            ColumnData::Bool(v) => h.write_u8(2 + u8::from(v[i])),
            ColumnData::Str(v) => v[i].hash(h),
            ColumnData::Mixed(v) => v[i].hash(h),
        }
    }

    /// The rows at `idx`, in that order; [`NULL_ROW`] yields NULL.
    pub fn gather(&self, idx: &[u32]) -> ColumnVec {
        fn take<T: Clone>(v: &[T], idx: &[u32], pad: T) -> Vec<T> {
            idx.iter()
                .map(|&i| match v.get(i as usize) {
                    Some(x) => x.clone(),
                    None => pad.clone(),
                })
                .collect()
        }
        let padded = idx.contains(&NULL_ROW);
        let data = match &self.data {
            ColumnData::Int(v) if !padded => {
                ColumnData::Int(idx.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Int(v) => ColumnData::Int(take(v, idx, 0)),
            ColumnData::Double(v) => ColumnData::Double(take(v, idx, 0.0)),
            ColumnData::Bool(v) => ColumnData::Bool(take(v, idx, false)),
            ColumnData::Str(v) => ColumnData::Str(take(v, idx, empty_str())),
            ColumnData::Mixed(v) => {
                return ColumnVec {
                    data: ColumnData::Mixed(take(v, idx, Value::Null)),
                    valid: None,
                }
            }
        };
        let valid = match &self.valid {
            Some(m) => Some(
                idx.iter()
                    .map(|&i| i != NULL_ROW && m[i as usize])
                    .collect(),
            ),
            None if padded => Some(idx.iter().map(|&i| i != NULL_ROW).collect()),
            None => None,
        };
        ColumnVec { data, valid }
    }

    /// The rows in `range`.
    pub fn slice(&self, range: Range<usize>) -> ColumnVec {
        let r = range.clone();
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(v[r].to_vec()),
            ColumnData::Double(v) => ColumnData::Double(v[r].to_vec()),
            ColumnData::Bool(v) => ColumnData::Bool(v[r].to_vec()),
            ColumnData::Str(v) => ColumnData::Str(v[r].to_vec()),
            ColumnData::Mixed(v) => ColumnData::Mixed(v[r].to_vec()),
        };
        ColumnVec {
            data,
            valid: self.valid.as_ref().map(|m| m[range].to_vec()),
        }
    }

    /// The parts one after another. Parts of one type concatenate in place;
    /// an all-NULL part takes any type; parts whose values differ in type
    /// become a `Mixed` column.
    pub fn concat(parts: &[&ColumnVec]) -> ColumnVec {
        if let [one] = parts {
            return (*one).clone();
        }
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let typed_parts: Vec<&&ColumnVec> = parts.iter().filter(|p| p.any_valid()).collect();
        let same_type = typed_parts
            .windows(2)
            .all(|w| std::mem::discriminant(&w[0].data) == std::mem::discriminant(&w[1].data));
        let Some(first) = typed_parts
            .first()
            .filter(|f| same_type && !matches!(f.data, ColumnData::Mixed(_)))
        else {
            if typed_parts.is_empty() {
                return ColumnVec::nulls(total);
            }
            return ColumnVec::from_values(
                parts.iter().flat_map(|p| (0..p.len()).map(|i| p.value(i))),
            );
        };
        let any_null = parts.iter().any(|p| p.valid.is_some() || !p.any_valid());
        let valid = any_null.then(|| {
            let mut m = Vec::with_capacity(total);
            for p in parts {
                match &p.valid {
                    Some(v) => m.extend_from_slice(v),
                    None => m.resize(m.len() + p.len(), p.any_valid()),
                }
            }
            m
        });
        macro_rules! cat {
            ($variant:ident, $pad:expr) => {{
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    match &p.data {
                        ColumnData::$variant(v) => out.extend_from_slice(v),
                        _ => out.resize(out.len() + p.len(), $pad),
                    }
                }
                ColumnData::$variant(out)
            }};
        }
        let data = match first.data {
            ColumnData::Int(_) => cat!(Int, 0),
            ColumnData::Double(_) => cat!(Double, 0.0),
            ColumnData::Bool(_) => cat!(Bool, false),
            ColumnData::Str(_) => cat!(Str, empty_str()),
            ColumnData::Mixed(_) => unreachable!("excluded above"),
        };
        ColumnVec { data, valid }
    }
}

/// Builds a [`ColumnVec`] value by value, typing it by what it receives:
/// the first non-NULL value fixes the type, and a value of another type
/// turns the column into a `Mixed` one.
#[derive(Debug, Default)]
pub struct ColumnBuilder {
    /// `None` until the first non-NULL value.
    data: Option<ColumnData>,
    valid: Vec<bool>,
    has_null: bool,
}

impl ColumnBuilder {
    /// Append an integer (the storage decoder's hot path).
    #[inline]
    pub fn push_int(&mut self, x: i64) {
        match &mut self.data {
            Some(ColumnData::Int(v)) => {
                v.push(x);
                self.valid.push(true);
            }
            _ => self.push(Value::Int(x)),
        }
    }

    pub fn push(&mut self, value: Value) {
        if value.is_null() {
            self.has_null = true;
            match &mut self.data {
                None => {}
                Some(ColumnData::Int(v)) => v.push(0),
                Some(ColumnData::Double(v)) => v.push(0.0),
                Some(ColumnData::Bool(v)) => v.push(false),
                Some(ColumnData::Str(v)) => v.push(empty_str()),
                Some(ColumnData::Mixed(v)) => v.push(Value::Null),
            }
            self.valid.push(false);
            return;
        }
        let n = self.valid.len();
        match (&mut self.data, value) {
            (Some(ColumnData::Int(v)), Value::Int(x)) => v.push(x),
            (Some(ColumnData::Double(v)), Value::Double(x)) => v.push(x),
            (Some(ColumnData::Bool(v)), Value::Bool(x)) => v.push(x),
            (Some(ColumnData::Str(v)), Value::Str(x)) => v.push(x),
            (Some(ColumnData::Mixed(v)), x) => v.push(x),
            (None, x) => {
                let mut data = match &x {
                    Value::Int(_) => ColumnData::Int(vec![0; n]),
                    Value::Double(_) => ColumnData::Double(vec![0.0; n]),
                    Value::Bool(_) => ColumnData::Bool(vec![false; n]),
                    Value::Str(_) => ColumnData::Str(vec![empty_str(); n]),
                    Value::Null => unreachable!("handled above"),
                };
                match (&mut data, x) {
                    (ColumnData::Int(v), Value::Int(x)) => v.push(x),
                    (ColumnData::Double(v), Value::Double(x)) => v.push(x),
                    (ColumnData::Bool(v), Value::Bool(x)) => v.push(x),
                    (ColumnData::Str(v), Value::Str(x)) => v.push(x),
                    _ => unreachable!("typed by the value"),
                }
                self.data = Some(data);
            }
            (Some(other), x) => {
                // A second type: fall back to a column of values.
                let old = ColumnVec {
                    data: std::mem::replace(other, ColumnData::Mixed(Vec::new())),
                    valid: Some(std::mem::take(&mut self.valid)),
                };
                let mut vals: Vec<Value> = (0..n).map(|i| old.value(i)).collect();
                vals.push(x);
                self.valid = vec![true; n];
                *other = ColumnData::Mixed(vals);
            }
        }
        self.valid.push(true);
    }

    pub fn len(&self) -> usize {
        self.valid.len()
    }

    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    pub fn finish(self) -> ColumnVec {
        match self.data {
            None => ColumnVec::nulls(self.valid.len()),
            Some(ColumnData::Mixed(v)) => ColumnVec {
                data: ColumnData::Mixed(v),
                valid: None,
            },
            Some(data) => ColumnVec {
                data,
                valid: self.has_null.then_some(self.valid),
            },
        }
    }
}

/// Builds a batch record by record, each value straight into its typed
/// column — the storage decoder's target.
#[derive(Debug)]
pub struct BatchBuilder {
    columns: Vec<ColumnBuilder>,
}

impl BatchBuilder {
    pub fn new(width: usize) -> Self {
        let columns = (0..width).map(|_| ColumnBuilder::default());
        BatchBuilder {
            columns: columns.collect(),
        }
    }

    pub fn columns_mut(&mut self) -> &mut [ColumnBuilder] {
        &mut self.columns
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, ColumnBuilder::len)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn finish(self, schema: Schema) -> RowBatch {
        let len = self.len();
        let columns = self.columns.into_iter().map(|b| Arc::new(b.finish()));
        RowBatch::new(schema, len, columns.collect())
    }
}

/// A schema plus one column per schema column, all of one length — what
/// [`crate::exec::ExecNode::next_batch`] produces. Invariant for emitted
/// batches: never empty (exhaustion is signalled by `None`).
#[derive(Debug, Clone)]
pub struct RowBatch {
    schema: Schema,
    len: usize,
    columns: Vec<Arc<ColumnVec>>,
}

impl RowBatch {
    /// A batch of `len` rows over `columns` (one per schema column).
    pub fn new(schema: Schema, len: usize, columns: Vec<Arc<ColumnVec>>) -> Self {
        debug_assert_eq!(schema.len(), columns.len(), "one column per schema column");
        debug_assert!(columns.iter().all(|c| c.len() == len), "ragged batch");
        RowBatch {
            schema,
            len,
            columns,
        }
    }

    /// A batch with no rows.
    pub fn empty(schema: Schema) -> Self {
        let columns = (0..schema.len())
            .map(|_| Arc::new(ColumnVec::nulls(0)))
            .collect();
        RowBatch::new(schema, 0, columns)
    }

    /// Transpose rows into columns.
    pub fn from_rows<R: AsRef<[Value]>>(schema: Schema, rows: &[R]) -> Self {
        let columns = (0..schema.len())
            .map(|c| {
                let vals = rows.iter().map(|r| r.as_ref()[c].clone());
                Arc::new(ColumnVec::from_values(vals))
            })
            .collect();
        RowBatch::new(schema, rows.len(), columns)
    }

    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    #[inline]
    pub fn column(&self, i: usize) -> &Arc<ColumnVec> {
        &self.columns[i]
    }

    #[inline]
    pub fn columns(&self) -> &[Arc<ColumnVec>] {
        &self.columns
    }

    /// The same columns under another schema of the same width.
    pub fn with_schema(mut self, schema: Schema) -> Self {
        debug_assert_eq!(schema.len(), self.columns.len());
        self.schema = schema;
        self
    }

    /// The value at column `c`, row `i`.
    #[inline]
    pub fn value(&self, c: usize, i: usize) -> Value {
        self.columns[c].value(i)
    }

    /// Row `i`, built (API edge and tests).
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Every row, built (API edge and tests).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// The rows at `idx` ([`NULL_ROW`]: all NULL), every column gathered
    /// once.
    pub fn gather(&self, idx: &[u32]) -> RowBatch {
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.gather(idx)))
            .collect();
        RowBatch::new(self.schema.clone(), idx.len(), columns)
    }

    /// The rows whose `keep` flag is set (all of them: no copy).
    pub fn filter(&self, keep: &[bool]) -> RowBatch {
        if keep.iter().all(|&k| k) {
            return self.clone();
        }
        let idx: Vec<u32> = keep
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| k.then_some(i as u32))
            .collect();
        self.gather(&idx)
    }

    /// The rows in `range` (the whole batch: no copy).
    pub fn slice(&self, range: Range<usize>) -> RowBatch {
        if range.start == 0 && range.end == self.len {
            return self.clone();
        }
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.slice(range.clone())))
            .collect();
        RowBatch::new(self.schema.clone(), range.len(), columns)
    }

    /// The batches one after another, as one batch over `schema`.
    pub fn concat(schema: Schema, batches: &[RowBatch]) -> RowBatch {
        match batches {
            [] => RowBatch::empty(schema),
            [one] => one.clone().with_schema(schema),
            _ => {
                let len = batches.iter().map(RowBatch::len).sum();
                let columns = (0..schema.len())
                    .map(|c| {
                        let parts: Vec<&ColumnVec> =
                            batches.iter().map(|b| b.columns[c].as_ref()).collect();
                        Arc::new(ColumnVec::concat(&parts))
                    })
                    .collect();
                RowBatch::new(schema, len, columns)
            }
        }
    }

    /// A join's output: `left` gathered at `li` beside `right` gathered at
    /// `ri` (either index may be [`NULL_ROW`]), or only the left columns
    /// when `right` is `None` (semi and anti joins).
    pub fn join(
        schema: Schema,
        left: &RowBatch,
        li: &[u32],
        right: Option<(&RowBatch, &[u32])>,
    ) -> RowBatch {
        let mut columns: Vec<Arc<ColumnVec>> = left
            .columns
            .iter()
            .map(|c| Arc::new(c.gather(li)))
            .collect();
        if let Some((right, ri)) = right {
            debug_assert_eq!(li.len(), ri.len());
            columns.extend(right.columns.iter().map(|c| Arc::new(c.gather(ri))));
        }
        RowBatch::new(schema, li.len(), columns)
    }

    /// Are columns `cols` of row `i` structurally equal to those of row `j`
    /// of `other`?
    #[inline]
    pub fn rows_eq(&self, i: usize, other: &RowBatch, j: usize, cols: Range<usize>) -> bool {
        cols.into_iter()
            .all(|c| self.columns[c].eq_at(i, &other.columns[c], j))
    }

    /// The total order of rows `i` and `j` — exactly `row(i).cmp(&row(j))`.
    #[inline]
    pub fn cmp_rows(&self, i: usize, j: usize) -> Ordering {
        for c in &self.columns {
            let o = c.cmp_at(i, c, j);
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }
}

/// A set of rows of one batch under structural row equality, holding row
/// indices: a row hash maps to the newest member with it, and members with
/// the same hash are chained — nothing is allocated per row.
pub struct RowSet<'a> {
    batch: &'a RowBatch,
    heads: FxHashMap<u64, u32>,
    chain: Vec<u32>,
}

impl<'a> RowSet<'a> {
    pub fn new(batch: &'a RowBatch) -> Self {
        RowSet {
            batch,
            heads: FxHashMap::default(),
            chain: vec![NULL_ROW; batch.len()],
        }
    }

    fn hash(&self, i: usize) -> u64 {
        let mut h = FxHasher::default();
        for c in self.batch.columns() {
            c.hash_at(i, &mut h);
        }
        h.finish()
    }

    /// Is a member equal to row `i`? Walks the chain from member `j`.
    fn find(&self, mut j: u32, i: usize) -> bool {
        let width = self.batch.width();
        while j != NULL_ROW {
            if self.batch.rows_eq(j as usize, self.batch, i, 0..width) {
                return true;
            }
            j = self.chain[j as usize];
        }
        false
    }

    /// Is a row equal to row `i` a member?
    pub fn contains(&self, i: usize) -> bool {
        self.heads
            .get(&self.hash(i))
            .is_some_and(|&j| self.find(j, i))
    }

    /// Add row `i`; `false` when an equal row is already a member.
    pub fn insert(&mut self, i: usize) -> bool {
        let h = self.hash(i);
        let head = self.heads.get(&h).copied().unwrap_or(NULL_ROW);
        if self.find(head, i) {
            return false;
        }
        self.chain[i] = head;
        self.heads.insert(h, i as u32);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn schema(n: usize) -> Schema {
        Schema::new(
            (0..n)
                .map(|i| Column::new(format!("c{i}"), DataType::Int))
                .collect(),
        )
    }

    fn batch() -> RowBatch {
        RowBatch::from_rows(
            schema(2),
            &[
                Row::new(vec![Value::Int(1), Value::Int(10)]),
                Row::new(vec![Value::Null, Value::Int(20)]),
            ],
        )
    }

    #[test]
    fn accessors() {
        let b = batch();
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.schema().len(), 2);
        assert_eq!(b.value(1, 1), Value::Int(20));
        assert_eq!(b.column(0).int_at(0), Some(1));
        assert_eq!(b.column(0).int_at(1), None);
        assert!(b.column(0).ints().is_some(), "typed despite the NULL");
        assert_eq!(b.row(1), Row::new(vec![Value::Null, Value::Int(20)]));
    }

    /// Int, Double (NaN, −0.0), Bool, Str, NULL — or, for the mixed
    /// column, a mix of Int and Double.
    fn value(rng: &mut StdRng, kind: usize) -> Value {
        if rng.gen_range(0..5) == 0 {
            return Value::Null;
        }
        match kind {
            0 => Value::Int(rng.gen_range(-3..3)),
            1 => [
                Value::Double(f64::NAN),
                Value::Double(-0.0),
                Value::Double(0.0),
            ][rng.gen_range(0..3)]
            .clone(),
            2 => Value::Bool(rng.gen_range(0..2) == 0),
            3 => Value::str(["", "a", "b\tc"][rng.gen_range(0..3)]),
            _ => match rng.gen_range(0..2) {
                0 => Value::Int(rng.gen_range(-3..3)),
                _ => Value::Double(rng.gen_range(-3..3) as f64),
            },
        }
    }

    fn random_rows(rng: &mut StdRng, n: usize) -> Vec<Row> {
        (0..n)
            .map(|_| (0..6).map(|k| value(rng, k.min(4))).collect())
            .collect()
    }

    #[test]
    fn rows_to_batch_to_rows_is_the_identity() {
        let mut rng = StdRng::seed_from_u64(27);
        for n in [0, 1, 2, 7, 40] {
            for _ in 0..20 {
                let rows = random_rows(&mut rng, n);
                let b = RowBatch::from_rows(schema(6), &rows);
                assert_eq!(b.to_rows(), rows);
                // Gather, slice and concat agree with the same operations
                // on rows, including the structural order and equality.
                let idx: Vec<u32> = (0..n as u32).rev().chain([NULL_ROW]).collect();
                let g = b.gather(&idx);
                for (k, &i) in idx.iter().enumerate() {
                    let want = match i {
                        NULL_ROW => Row::nulls(6),
                        i => rows[i as usize].clone(),
                    };
                    assert_eq!(g.row(k), want);
                }
                let halves = [b.slice(0..n / 2), b.slice(n / 2..n)];
                assert_eq!(RowBatch::concat(schema(6), &halves).to_rows(), rows);
                for i in 0..n {
                    for j in 0..n {
                        assert_eq!(b.cmp_rows(i, j), rows[i].cmp(&rows[j]));
                        assert_eq!(b.rows_eq(i, &b, j, 0..6), rows[i] == rows[j]);
                    }
                }
            }
        }
    }

    #[test]
    fn column_types_follow_the_values() {
        let ints = ColumnVec::from_values([Value::Null, Value::Int(1)]);
        assert!(matches!(ints.data(), ColumnData::Int(_)));
        let mixed = ColumnVec::from_values([Value::Int(1), Value::Null, Value::Double(1.0)]);
        assert!(matches!(mixed.data(), ColumnData::Mixed(_)));
        assert_eq!(mixed.value(2), Value::Double(1.0));
        // An all-NULL part takes the other parts' type; two types mix.
        let strs = ColumnVec::from_values([Value::str("x")]);
        let cat = ColumnVec::concat(&[&ColumnVec::nulls(2), &strs]);
        assert!(matches!(cat.data(), ColumnData::Str(_)));
        assert_eq!(cat.value(0), Value::Null);
        let cat = ColumnVec::concat(&[&ints, &strs]);
        assert!(matches!(cat.data(), ColumnData::Mixed(_)));
        assert_eq!(cat.value(2), Value::str("x"));
    }
}
