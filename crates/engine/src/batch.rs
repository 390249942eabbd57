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
//!
//! Every hash operator groups rows through one `KeyTable`, which hashes key
//! columns in place (`hash_rows`) and compares them with
//! [`ColumnVec::eq_at`] or `ColumnVec::join_eq_at`.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::hashing::{mix, mix_bytes, FxHashMap};
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

/// What an `Int` adds to a row hash: the integer, rounded as SQL rounds
/// it to compare with a `Double` (exact up to 2⁵³).
#[inline]
fn int_word(x: i64) -> u64 {
    (x as f64) as i64 as u64
}

/// `v` folded into the running row hash `h` — a function of the value
/// alone, and the same for an `Int` and the `Double` SQL calls equal (an
/// integral double adds its integer, any other double its bits).
fn value_hash(h: u64, v: &Value) -> u64 {
    match v {
        Value::Null => mix(h, 0x9e37_79b9_7f4a_7c15),
        Value::Bool(b) => mix(h, 0x2545_f491_4f6c_dd1d ^ *b as u64),
        Value::Int(x) => mix(h, int_word(*x)),
        Value::Double(x) if (*x as i64) as f64 == *x => mix(h, *x as i64 as u64),
        Value::Double(x) => mix(h, x.to_bits()),
        Value::Str(s) => mix(mix_bytes(h, s.as_bytes()), 0xff),
    }
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

    /// SQL `=` of row `i` and row `j` of `other` is TRUE — exactly
    /// `self.value(i).sql_eq(&other.value(j)) == Some(true)`: never for a
    /// NULL, and `Int` against `Double` numerically.
    #[inline]
    pub(crate) fn join_eq_at(&self, i: usize, other: &ColumnVec, j: usize) -> bool {
        use ColumnData::{Double, Int, Mixed};
        match (&self.data, &other.data) {
            (Mixed(_), _) | (_, Mixed(_)) | (Int(_), Double(_)) | (Double(_), Int(_)) => {
                self.value(i).sql_eq(&other.value(j)) == Some(true)
            }
            // One type, or two that never compare equal: structural.
            _ => !self.is_null(i) && self.eq_at(i, other, j),
        }
    }

    /// Fold every row's value into its running hash `hashes[i]` by
    /// `value_hash`, which does not depend on the column's representation;
    /// so [`ColumnVec::eq_at`] and [`ColumnVec::join_eq_at`] both imply
    /// equal hashes, across columns and batches.
    pub(crate) fn hash_into(&self, hashes: &mut [u64]) {
        debug_assert_eq!(hashes.len(), self.len());
        match (&self.data, &self.valid) {
            (ColumnData::Int(v), None) => {
                for (h, &x) in hashes.iter_mut().zip(v) {
                    *h = mix(*h, int_word(x));
                }
            }
            _ => {
                for (i, h) in hashes.iter_mut().enumerate() {
                    *h = value_hash(*h, &self.value(i));
                }
            }
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
    /// Values pushed so far.
    len: usize,
    /// The validity mask (`false` = NULL), kept from the first NULL on;
    /// until then every value is valid and no mask is written.
    valid: Option<Vec<bool>>,
}

impl ColumnBuilder {
    /// Append an integer (the storage decoder's hot path).
    #[inline]
    pub fn push_int(&mut self, x: i64) {
        match &mut self.data {
            Some(ColumnData::Int(v)) => {
                v.push(x);
                if let Some(valid) = &mut self.valid {
                    valid.push(true);
                }
                self.len += 1;
            }
            _ => self.push(Value::Int(x)),
        }
    }

    pub fn push(&mut self, value: Value) {
        let n = self.len;
        self.len += 1;
        if value.is_null() {
            match &mut self.data {
                None => {}
                Some(ColumnData::Int(v)) => v.push(0),
                Some(ColumnData::Double(v)) => v.push(0.0),
                Some(ColumnData::Bool(v)) => v.push(false),
                Some(ColumnData::Str(v)) => v.push(empty_str()),
                Some(ColumnData::Mixed(v)) => v.push(Value::Null),
            }
            self.valid.get_or_insert_with(|| vec![true; n]).push(false);
            return;
        }
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
                // A second type: fall back to a column of values, which
                // holds its NULLs inline.
                let old = ColumnVec {
                    data: std::mem::replace(other, ColumnData::Mixed(Vec::new())),
                    valid: self.valid.take(),
                };
                let mut vals: Vec<Value> = (0..n).map(|i| old.value(i)).collect();
                vals.push(x);
                *other = ColumnData::Mixed(vals);
                return;
            }
        }
        if let Some(valid) = &mut self.valid {
            valid.push(true);
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn finish(self) -> ColumnVec {
        match self.data {
            None => ColumnVec::nulls(self.len),
            Some(ColumnData::Mixed(v)) => ColumnVec {
                data: ColumnData::Mixed(v),
                valid: None,
            },
            Some(data) => ColumnVec {
                data,
                valid: self.valid,
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

/// The row hashes of key columns `keys` over `n` rows, column at a time.
pub(crate) fn hash_rows(keys: &[Arc<ColumnVec>], n: usize) -> Vec<u64> {
    let mut hashes = vec![0u64; n];
    keys.iter().for_each(|c| c.hash_into(&mut hashes));
    // The multiply mixes upwards; hash tables index by the low bits.
    hashes.iter_mut().for_each(|h| *h = h.rotate_left(26));
    hashes
}

/// Number rows `0..n` of key columns `keys` by group of structurally equal
/// keys (NULL = NULL, as GROUP BY), groups in first-seen order: each row's
/// group and the number of groups. The engine's one hash table in group
/// mode, for operators outside the engine (α groups value-equivalent
/// tuples by it).
pub fn group_rows(keys: &[Arc<ColumnVec>], n: usize) -> (Vec<u32>, usize) {
    let mut table = KeyTable::new(KeyEq::Group, keys.len());
    let ids = table.insert(keys, &hash_rows(keys, n), 0..n);
    (ids, table.len())
}

/// Counting-sort rows into one run per group: `ids[i]` is row `i`'s group
/// among `groups` ([`NULL_ROW`]: none). Returns `bounds` and `order`, group
/// `g`'s rows being `order[bounds[g]..bounds[g + 1]]`, ascending.
pub fn group_runs(ids: &[u32], groups: usize) -> (Vec<u32>, Vec<u32>) {
    let mut bounds = vec![0u32; groups + 1];
    for &g in ids.iter().filter(|&&g| g != NULL_ROW) {
        bounds[g as usize + 1] += 1;
    }
    for g in 0..groups {
        bounds[g + 1] += bounds[g];
    }
    let mut fill = bounds.clone();
    let mut order = vec![0u32; bounds[groups] as usize];
    for (i, &g) in ids.iter().enumerate().filter(|&(_, &g)| g != NULL_ROW) {
        order[fill[g as usize] as usize] = i as u32;
        fill[g as usize] += 1;
    }
    (bounds, order)
}

/// How a [`KeyTable`] compares keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyEq {
    /// Structural equality ([`ColumnVec::eq_at`], NULL = NULL): GROUP BY,
    /// DISTINCT and the set operations.
    Group,
    /// SQL `=` ([`ColumnVec::join_eq_at`]): a key holding a NULL is never
    /// added and matches nothing — a join's equi-keys.
    Join,
}

/// The engine's one hash table — behind the hash join, HashAggregate,
/// DISTINCT and the set operations. It splits rows of `width` key columns
/// into *groups* of equal keys, numbered in first-seen order: a row hash
/// ([`hash_rows`]) maps to the newest group with it, groups sharing a hash
/// are chained, and a group's key is its first row, read in place from the
/// key columns it came in. Groups are structurally distinct; lookups
/// compare under the table's [`KeyEq`].
#[derive(Debug)]
pub(crate) struct KeyTable {
    mode: KeyEq,
    width: usize,
    heads: FxHashMap<u64, u32>,
    /// Per group, the next older group with its hash ([`NULL_ROW`]: none).
    next: Vec<u32>,
    /// Per group, its first row: `(chunk, row)` of `chunks`.
    first: Vec<(u32, u32)>,
    chunks: Vec<Vec<Arc<ColumnVec>>>,
}

impl KeyTable {
    pub fn new(mode: KeyEq, width: usize) -> Self {
        let (heads, next, first, chunks) = Default::default();
        KeyTable {
            mode,
            width,
            heads,
            next,
            first,
            chunks,
        }
    }

    /// The number of groups.
    pub fn len(&self) -> usize {
        self.first.len()
    }

    /// The groups on the chain of `hash` whose key equals row `i` of
    /// `keys` — as SQL `=` when `join`, else structurally — newest first.
    fn chain<'a>(
        &'a self,
        keys: &'a [Arc<ColumnVec>],
        i: usize,
        hash: u64,
        join: bool,
    ) -> impl Iterator<Item = u32> + 'a {
        let mut g = self.heads.get(&hash).copied().unwrap_or(NULL_ROW);
        std::iter::from_fn(move || {
            while g != NULL_ROW {
                let ((c, r), here) = (self.first[g as usize], g);
                g = self.next[g as usize];
                let mut cols = keys.iter().zip(&self.chunks[c as usize]);
                if cols.all(|(k, m)| match join {
                    true => k.join_eq_at(i, m, r as usize),
                    false => k.eq_at(i, m, r as usize),
                }) {
                    return Some(here);
                }
            }
            None
        })
    }

    /// The groups equal to row `i` of `keys` (hashed `hash`) under the
    /// table's equality, newest first: at most one in group mode; in join
    /// mode every SQL-equal group — more than one only when a key column
    /// mixes `Int` and `Double`.
    pub fn matches<'a>(
        &'a self,
        keys: &'a [Arc<ColumnVec>],
        i: usize,
        hash: u64,
    ) -> impl Iterator<Item = u32> + 'a {
        self.chain(keys, i, hash, self.mode == KeyEq::Join)
    }

    /// Add rows `rows` of `keys` (hashed by [`hash_rows`]), in that order:
    /// each joins the group of its key or starts the next one. Returns each
    /// row's group ([`NULL_ROW`]: a join-mode key holding a NULL). The
    /// table keeps `keys` (`Arc` clones) while they hold a group's key.
    pub fn insert(
        &mut self,
        keys: &[Arc<ColumnVec>],
        hashes: &[u64],
        rows: impl IntoIterator<Item = usize>,
    ) -> Vec<u32> {
        debug_assert_eq!(keys.len(), self.width);
        let (before, chunk) = (self.len(), self.chunks.len() as u32);
        self.chunks.push(keys.to_vec());
        let skip_nulls = self.mode == KeyEq::Join;
        let ids = rows.into_iter().map(|i| {
            if skip_nulls && keys.iter().any(|c| c.is_null(i)) {
                return NULL_ROW;
            }
            if let Some(g) = self.chain(keys, i, hashes[i], false).next() {
                return g;
            }
            let g = self.len() as u32;
            self.next
                .push(self.heads.insert(hashes[i], g).unwrap_or(NULL_ROW));
            self.first.push((chunk, i as u32));
            g
        });
        let ids = ids.collect();
        if self.len() == before {
            self.chunks.pop();
        }
        ids
    }

    /// [`KeyTable::insert`] all `n` rows of one batch of key columns, then
    /// keep only the new groups' keys, gathered into columns of the table's
    /// own (the batch is not retained). Returns each row's group; the new
    /// groups' keys are `self.keys(before..self.len())`.
    pub fn group(&mut self, keys: &[Arc<ColumnVec>], n: usize) -> Vec<u32> {
        let before = self.len();
        let ids = self.insert(keys, &hash_rows(keys, n), 0..n);
        let fresh = &mut self.first[before..];
        // Every row new: the batch is its own new keys.
        if !fresh.is_empty() && fresh.len() < n {
            let rows: Vec<u32> = fresh.iter().map(|&(_, r)| r).collect();
            fresh.iter_mut().zip(0..).for_each(|(f, k)| f.1 = k);
            let gathered = keys.iter().map(|c| Arc::new(c.gather(&rows)));
            *self.chunks.last_mut().expect("new groups") = gathered.collect();
        }
        ids
    }

    /// The keys of groups `groups`, in group order, one column per key
    /// column — `groups` spanning whole [`KeyTable::group`] calls.
    pub fn keys(&self, groups: Range<usize>) -> Vec<Arc<ColumnVec>> {
        let chunk = |g: usize| self.first[g].0 as usize;
        let chunks = match groups.is_empty() {
            true => &[],
            false => &self.chunks[chunk(groups.start)..=chunk(groups.end - 1)],
        };
        let column = |c: usize| match chunks {
            [] => Arc::new(ColumnVec::nulls(0)),
            [one] => one[c].clone(),
            _ => Arc::new(ColumnVec::concat(
                &chunks.iter().map(|k| k[c].as_ref()).collect::<Vec<_>>(),
            )),
        };
        (0..self.width).map(column).collect()
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

    /// `vals` as a typed column where its values allow one, else `Mixed`;
    /// and always as a `Mixed` column.
    fn both_reprs(vals: &[Value]) -> [Arc<ColumnVec>; 2] {
        let mixed = ColumnVec {
            data: ColumnData::Mixed(vals.to_vec()),
            valid: None,
        };
        [
            Arc::new(ColumnVec::from_values(vals.iter().cloned())),
            Arc::new(mixed),
        ]
    }

    #[test]
    fn equal_values_hash_alike_in_every_representation() {
        let mut rng = StdRng::seed_from_u64(28);
        let big = 1i64 << 53;
        for kind in 0..5 {
            for _ in 0..20 {
                let mut a: Vec<Value> = (0..12).map(|_| value(&mut rng, kind)).collect();
                let b: Vec<Value> = (0..12)
                    .map(|_| {
                        let kind = rng.gen_range(0..5);
                        value(&mut rng, kind)
                    })
                    .collect();
                // Integers past 2⁵³, beside the double they round to.
                a.extend([
                    Value::Int(big + 1),
                    Value::Double(big as f64),
                    Value::Int(i64::MAX),
                ]);
                a.push(Value::Double(i64::MAX as f64));
                for ca in both_reprs(&a) {
                    for cb in both_reprs(&b).into_iter().chain(both_reprs(&a)) {
                        let ha = hash_rows(std::slice::from_ref(&ca), ca.len());
                        let hb = hash_rows(std::slice::from_ref(&cb), cb.len());
                        for (i, hi) in ha.iter().enumerate() {
                            for (j, hj) in hb.iter().enumerate() {
                                let (x, y) = (ca.value(i), cb.value(j));
                                assert_eq!(ca.eq_at(i, &cb, j), x == y, "{x:?} {y:?}");
                                let sql = x.sql_eq(&y) == Some(true);
                                assert_eq!(ca.join_eq_at(i, &cb, j), sql, "{x:?} = {y:?}");
                                if x == y || sql {
                                    assert_eq!(hi, hj, "{x:?} and {y:?} hash apart");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn key_table_groups_like_a_map_of_value_keys() {
        use std::collections::HashMap;
        let mut rng = StdRng::seed_from_u64(29);
        for mode in [KeyEq::Group, KeyEq::Join] {
            let mut table = KeyTable::new(mode, 2);
            let mut reference: HashMap<Vec<Value>, u32> = HashMap::new();
            let mut kept: Vec<Vec<Value>> = Vec::new();
            for n in [0, 5, 40, 1, 40] {
                // Two key columns; the second mixes Int and Double.
                let rows: Vec<Row> = (0..n)
                    .map(|_| Row::new(vec![value(&mut rng, 0), value(&mut rng, 4)]))
                    .collect();
                let batch = RowBatch::from_rows(schema(2), &rows);
                let before = table.len();
                let ids = match mode {
                    KeyEq::Group => table.group(batch.columns(), n),
                    KeyEq::Join => {
                        table.insert(batch.columns(), &hash_rows(batch.columns(), n), 0..n)
                    }
                };
                for (row, &id) in rows.iter().zip(&ids) {
                    if mode == KeyEq::Join && row.values().iter().any(Value::is_null) {
                        assert_eq!(id, NULL_ROW);
                        continue;
                    }
                    let next = reference.len() as u32;
                    assert_eq!(id, *reference.entry(row.to_vec()).or_insert(next));
                    if id == next {
                        kept.push(row.to_vec());
                    }
                }
                if mode == KeyEq::Group {
                    let keys = table.keys(before..table.len());
                    for (g, want) in kept[before..].iter().enumerate() {
                        let got: Vec<Value> = keys.iter().map(|c| c.value(g)).collect();
                        assert_eq!(&got, want);
                    }
                }
                // Every group SQL-equal to a probe row, and no other.
                let hashes = hash_rows(batch.columns(), n);
                for (i, row) in rows.iter().enumerate() {
                    let got: Vec<u32> = table.matches(batch.columns(), i, hashes[i]).collect();
                    let mut want: Vec<u32> = (0..table.len() as u32)
                        .filter(|&g| {
                            let k = &kept[g as usize];
                            match mode {
                                KeyEq::Group => k.as_slice() == row.values(),
                                KeyEq::Join => k
                                    .iter()
                                    .zip(row.values())
                                    .all(|(a, b)| a.sql_eq(b) == Some(true)),
                            }
                        })
                        .collect();
                    want.reverse();
                    assert_eq!(got, want, "{mode:?} {row:?}");
                }
            }
            assert_eq!(table.len(), kept.len());
        }
    }

    #[test]
    fn column_types_follow_the_values() {
        let ints = ColumnVec::from_values([Value::Null, Value::Int(1)]);
        assert!(matches!(ints.data(), ColumnData::Int(_)));
        // A mask is kept only from the first NULL, wherever it comes.
        assert_eq!(ints.ints(), Some((&[0, 1][..], Some(&[false, true][..]))));
        let mut b = ColumnBuilder::default();
        for x in [3, 4] {
            b.push_int(x);
        }
        b.push(Value::Null);
        b.push_int(5);
        let late = b.finish();
        assert_eq!(
            late.ints().and_then(|(_, m)| m),
            Some(&[true, true, false, true][..])
        );
        let dense = ColumnVec::from_values([Value::Int(1), Value::Int(2)]);
        assert_eq!(dense.ints(), Some((&[1, 2][..], None)));
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
