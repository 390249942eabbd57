//! Interval-timestamped (temporal) relations.
//!
//! A temporal relation schema is `R = (A1, …, Am, T)` (paper Sec. 3.1). As
//! in the paper's PostgreSQL implementation, the timestamp is stored as two
//! plain integer columns; by convention they are **the last two columns**
//! (`ts` inclusive start, `te` exclusive end). Everything before them are
//! the *nontemporal* (data) columns — which may include propagated
//! timestamps added by the extend operator `U`.

use std::collections::HashMap;
use std::fmt;

use temporal_engine::prelude::*;

use crate::error::{TemporalError, TemporalResult};
use crate::interval::{Interval, TimePoint};

/// Default name of the interval start column.
pub const TS: &str = "ts";
/// Default name of the interval end column.
pub const TE: &str = "te";

/// A relation whose last two columns are a valid-time interval `[ts, te)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalRelation {
    rel: Relation,
}

impl TemporalRelation {
    /// Wrap an engine relation. The last two columns must be Int-typed and
    /// every row must carry a non-NULL, non-empty interval.
    pub fn new(rel: Relation) -> TemporalResult<TemporalRelation> {
        if rel.schema().len() < 2 {
            return Err(TemporalError::InvalidRelation(
                "temporal relation needs at least the two timestamp columns".into(),
            ));
        }
        let n = rel.schema().len();
        for i in [n - 2, n - 1] {
            let c = rel.schema().col(i);
            if c.dtype != DataType::Int {
                return Err(TemporalError::InvalidRelation(format!(
                    "timestamp column '{}' must be Int, found {}",
                    c.name, c.dtype
                )));
            }
        }
        let out = TemporalRelation { rel };
        out.validate_intervals()?;
        Ok(out)
    }

    /// Build from a nontemporal schema plus `(values, interval)` rows; the
    /// `ts`/`te` columns are appended.
    pub fn from_rows(
        data_schema: Schema,
        rows: Vec<(Vec<Value>, Interval)>,
    ) -> TemporalResult<TemporalRelation> {
        let mut cols = data_schema.cols().to_vec();
        cols.push(Column::new(TS, DataType::Int));
        cols.push(Column::new(TE, DataType::Int));
        let schema = Schema::new(cols);
        let mut full_rows = Vec::with_capacity(rows.len());
        for (mut vals, iv) in rows {
            vals.push(Value::Int(iv.start()));
            vals.push(Value::Int(iv.end()));
            full_rows.push(Row::new(vals));
        }
        let rel = Relation::new(schema, full_rows).map_err(TemporalError::from)?;
        TemporalRelation::new(rel)
    }

    /// The underlying relation (data columns followed by ts, te).
    #[inline]
    pub fn rel(&self) -> &Relation {
        &self.rel
    }

    /// Consume into the underlying relation.
    pub fn into_rel(self) -> Relation {
        self.rel
    }

    /// Full schema including ts/te.
    #[inline]
    pub fn schema(&self) -> &Schema {
        self.rel.schema()
    }

    /// Number of nontemporal (data) columns.
    #[inline]
    pub fn data_width(&self) -> usize {
        self.rel.schema().len() - 2
    }

    /// Index of the `ts` column.
    #[inline]
    pub fn ts_idx(&self) -> usize {
        self.rel.schema().len() - 2
    }

    /// Index of the `te` column.
    #[inline]
    pub fn te_idx(&self) -> usize {
        self.rel.schema().len() - 1
    }

    /// The data-column part of the schema.
    pub fn data_schema(&self) -> Schema {
        let idxs: Vec<usize> = (0..self.data_width()).collect();
        self.rel.schema().project(&idxs)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    pub fn rows(&self) -> &[Row] {
        self.rel.rows()
    }

    /// The interval of a row of this relation.
    pub fn interval_of(&self, row: &Row) -> Interval {
        let ts = row[self.ts_idx()].as_int().expect("validated ts");
        let te = row[self.te_idx()].as_int().expect("validated te");
        Interval::of(ts, te)
    }

    /// The data values of a row (everything except ts/te).
    pub fn data_of<'r>(&self, row: &'r Row) -> &'r [Value] {
        &row.values()[..self.data_width()]
    }

    /// Iterate `(data, interval)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], Interval)> + '_ {
        self.rel
            .rows()
            .iter()
            .map(move |r| (self.data_of(r), self.interval_of(r)))
    }

    fn validate_intervals(&self) -> TemporalResult<()> {
        let (ts, te) = (self.rel.ints(self.ts_idx()), self.rel.ints(self.te_idx()));
        for (i, (s, e)) in ts.into_iter().zip(te).enumerate() {
            let s = s.ok_or_else(|| {
                TemporalError::InvalidRelation(format!("row {i}: ts is not a non-NULL Int"))
            })?;
            let e = e.ok_or_else(|| {
                TemporalError::InvalidRelation(format!("row {i}: te is not a non-NULL Int"))
            })?;
            if s >= e {
                return Err(TemporalError::InvalidRelation(format!(
                    "row {i}: empty interval [{s}, {e})"
                )));
            }
        }
        Ok(())
    }

    /// Sec. 3.1 duplicate-freeness: no two distinct tuples are
    /// value-equivalent over common time points.
    pub fn is_duplicate_free(&self) -> bool {
        let mut by_data: HashMap<&[Value], Vec<Interval>> = HashMap::new();
        for row in self.rel.rows() {
            by_data
                .entry(self.data_of(row))
                .or_default()
                .push(self.interval_of(row));
        }
        for ivs in by_data.values_mut() {
            ivs.sort();
            for w in ivs.windows(2) {
                if w[0] == w[1] || w[0].overlaps(&w[1]) {
                    return false;
                }
            }
        }
        true
    }

    /// The timeslice operator τ_t (Sec. 3.1): the nontemporal snapshot at
    /// time `t`, with duplicates removed (set semantics).
    pub fn timeslice(&self, t: TimePoint) -> Relation {
        let data_idxs: Vec<usize> = (0..self.data_width()).collect();
        let mut out = Relation::empty(self.data_schema());
        for row in self.rel.rows() {
            if self.interval_of(row).contains_point(t) {
                out.push(row.project(&data_idxs)).expect("schema matches");
            }
        }
        out.dedup();
        out
    }

    /// All distinct interval endpoints, sorted ascending. Snapshots (and
    /// lineage sets) are constant between consecutive endpoints, so these
    /// are the *critical points* for checking sequenced-semantics
    /// properties.
    pub fn endpoints(&self) -> Vec<TimePoint> {
        let mut pts: Vec<TimePoint> = self
            .rel
            .rows()
            .iter()
            .flat_map(|r| {
                let iv = self.interval_of(r);
                [iv.start(), iv.end()]
            })
            .collect();
        pts.sort_unstable();
        pts.dedup();
        pts
    }

    /// Set equality on rows.
    pub fn same_set(&self, other: &TemporalRelation) -> bool {
        self.rel.same_set(&other.rel)
    }

    /// Canonically sorted copy (for display and comparison).
    pub fn sorted(&self) -> TemporalRelation {
        TemporalRelation {
            rel: self.rel.sorted(),
        }
    }

    /// Drop data columns, keeping `keep` (indices into the data columns)
    /// plus the interval; removes exact duplicates (set semantics). This is
    /// the plain (nontemporal) projection used to discard propagated
    /// timestamps after an extended-snapshot-reducible query (Def. 4's
    /// final `π_E`) — deliberately *without* re-normalization, so change
    /// preservation is untouched.
    pub fn project_data(&self, keep: &[usize]) -> TemporalResult<TemporalRelation> {
        for &i in keep {
            if i >= self.data_width() {
                return Err(TemporalError::Incompatible(format!(
                    "projection index {i} out of bounds ({} data columns)",
                    self.data_width()
                )));
            }
        }
        let mut idxs: Vec<usize> = keep.to_vec();
        idxs.push(self.ts_idx());
        idxs.push(self.te_idx());
        let schema = self.rel.schema().project(&idxs);
        let mut rel = Relation::new(
            schema,
            self.rel.rows().iter().map(|r| r.project(&idxs)).collect(),
        )?;
        rel.dedup();
        TemporalRelation::new(rel)
    }

    /// Render with intervals formatted via `fmt_point` (e.g.
    /// [`crate::interval::month::fmt`] for the paper's examples).
    pub fn to_table_with(&self, fmt_point: impl Fn(TimePoint) -> String) -> String {
        let mut cols = self.data_schema().cols().to_vec();
        cols.push(Column::new("T", DataType::Str));
        let schema = Schema::new(cols);
        let rows: Vec<Vec<Value>> = self
            .rel
            .rows()
            .iter()
            .map(|r| {
                let iv = self.interval_of(r);
                let mut vals = self.data_of(r).to_vec();
                vals.push(Value::str(format!(
                    "[{}, {})",
                    fmt_point(iv.start()),
                    fmt_point(iv.end())
                )));
                vals
            })
            .collect();
        Relation::from_values(schema, rows)
            .expect("consistent arity")
            .to_table()
    }
}

impl fmt::Display for TemporalRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table_with(|t| t.to_string()))
    }
}

/// The underlying relation, sharing the rows — what a catalog registers
/// (`db.register("r", &rel)`).
impl From<&TemporalRelation> for Relation {
    fn from(r: &TemporalRelation) -> Relation {
        r.rel.clone()
    }
}

/// Build the schema of a temporal relation from data columns.
pub fn temporal_schema(data_cols: Vec<Column>) -> Schema {
    let mut cols = data_cols;
    cols.push(Column::new(TS, DataType::Int));
    cols.push(Column::new(TE, DataType::Int));
    Schema::new(cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TemporalRelation {
        TemporalRelation::from_rows(
            Schema::new(vec![Column::new("n", DataType::Str)]),
            vec![
                (vec![Value::str("ann")], Interval::of(0, 7)),
                (vec![Value::str("joe")], Interval::of(1, 5)),
                (vec![Value::str("ann")], Interval::of(7, 11)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let r = sample();
        assert_eq!(r.data_width(), 1);
        assert_eq!(r.ts_idx(), 1);
        assert_eq!(r.te_idx(), 2);
        assert_eq!(r.len(), 3);
        let (data, iv) = r.iter().next().unwrap();
        assert_eq!(data, &[Value::str("ann")]);
        assert_eq!(iv, Interval::of(0, 7));
    }

    #[test]
    fn rejects_invalid_intervals() {
        let schema = Schema::new(vec![Column::new("n", DataType::Str)]);
        let bad = Relation::from_values(
            temporal_schema(schema.cols().to_vec()),
            vec![vec![Value::str("x"), Value::Int(5), Value::Int(5)]],
        )
        .unwrap();
        assert!(TemporalRelation::new(bad).is_err());

        let null_ts = Relation::from_values(
            temporal_schema(schema.cols().to_vec()),
            vec![vec![Value::str("x"), Value::Null, Value::Int(5)]],
        )
        .unwrap();
        assert!(TemporalRelation::new(null_ts).is_err());
    }

    #[test]
    fn rejects_non_int_timestamp_columns() {
        let rel = Relation::from_values(
            Schema::new(vec![
                Column::new("n", DataType::Str),
                Column::new(TS, DataType::Str),
                Column::new(TE, DataType::Int),
            ]),
            vec![],
        )
        .unwrap();
        assert!(TemporalRelation::new(rel).is_err());
    }

    #[test]
    fn duplicate_freeness() {
        let r = sample();
        assert!(r.is_duplicate_free()); // ann's intervals meet but don't overlap
        let dup = TemporalRelation::from_rows(
            Schema::new(vec![Column::new("n", DataType::Str)]),
            vec![
                (vec![Value::str("ann")], Interval::of(0, 7)),
                (vec![Value::str("ann")], Interval::of(5, 9)),
            ],
        )
        .unwrap();
        assert!(!dup.is_duplicate_free());
    }

    #[test]
    fn timeslice_is_a_set() {
        let r = sample();
        let s = r.timeslice(3);
        assert_eq!(s.len(), 2); // ann, joe
        let s = r.timeslice(7);
        assert_eq!(s.len(), 1); // second ann tuple starts at 7
        assert_eq!(s.rows()[0][0], Value::str("ann"));
        let s = r.timeslice(11);
        assert!(s.is_empty());
    }

    #[test]
    fn endpoints_sorted_unique() {
        let r = sample();
        assert_eq!(r.endpoints(), vec![0, 1, 5, 7, 11]);
    }

    #[test]
    fn project_data_dedups() {
        let r = TemporalRelation::from_rows(
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
            vec![
                (vec![Value::Int(1), Value::Int(10)], Interval::of(0, 5)),
                (vec![Value::Int(1), Value::Int(20)], Interval::of(0, 5)),
            ],
        )
        .unwrap();
        let p = r.project_data(&[0]).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.data_width(), 1);
        assert!(r.project_data(&[5]).is_err());
    }

    #[test]
    fn display_formats_intervals() {
        use crate::interval::month::{fmt as mfmt, ym};
        let r = TemporalRelation::from_rows(
            Schema::new(vec![Column::new("n", DataType::Str)]),
            vec![(
                vec![Value::str("ann")],
                Interval::of(ym(2012, 1), ym(2012, 8)),
            )],
        )
        .unwrap();
        let t = r.to_table_with(mfmt);
        assert!(t.contains("[2012/1, 2012/8)"), "{t}");
    }
}
