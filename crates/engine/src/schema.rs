//! Relation schemas: column names, optional qualifiers and data types.

use std::fmt;

use crate::error::{EngineError, EngineResult};

/// The engine's data types. NULL is typeless and allowed in any column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Double,
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "bool"),
            DataType::Int => write!(f, "int"),
            DataType::Double => write!(f, "double"),
            DataType::Str => write!(f, "str"),
        }
    }
}

/// A named, typed column, optionally qualified by a relation alias
/// (e.g. `r.pcn`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub dtype: DataType,
    pub qualifier: Option<String>,
}

impl Column {
    /// Unqualified column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
            qualifier: None,
        }
    }

    /// Qualified column (`qualifier.name`).
    pub fn qualified(
        qualifier: impl Into<String>,
        name: impl Into<String>,
        dtype: DataType,
    ) -> Self {
        Column {
            name: name.into(),
            dtype,
            qualifier: Some(qualifier.into()),
        }
    }

    /// `qualifier.name` if qualified, else `name`.
    pub fn qualified_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    cols: Vec<Column>,
}

impl Schema {
    pub fn new(cols: Vec<Column>) -> Self {
        Schema { cols }
    }

    pub fn empty() -> Self {
        Schema { cols: Vec::new() }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    #[inline]
    pub fn col(&self, i: usize) -> &Column {
        &self.cols[i]
    }

    pub fn cols(&self) -> &[Column] {
        &self.cols
    }

    /// All column names (unqualified).
    pub fn names(&self) -> Vec<&str> {
        self.cols.iter().map(|c| c.name.as_str()).collect()
    }

    /// Resolve `name`, which may be `"col"` or `"alias.col"`; see
    /// [`Schema::resolve`].
    pub fn index_of(&self, name: &str) -> EngineResult<usize> {
        match name.split_once('.') {
            Some((q, n)) => self.resolve(Some(q), n),
            None => self.resolve(None, name),
        }
    }

    /// `index_of` without the error.
    pub fn try_index_of(&self, name: &str) -> Option<usize> {
        self.index_of(name).ok()
    }

    /// Resolve a possibly-qualified column reference — the one name
    /// rule of the SQL analyzer and the Rust plan builder. An unknown name
    /// errors with the closest existing column as a did-you-mean, an
    /// ambiguous one with its qualified candidates.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> EngineResult<usize> {
        let mut matches = self.cols.iter().enumerate().filter(|(_, c)| {
            c.name == name && qualifier.is_none_or(|q| c.qualifier.as_deref() == Some(q))
        });
        let reference = || match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.to_string(),
        };
        let Some((i, first)) = matches.next() else {
            let reference = reference();
            return Err(EngineError::UnknownColumn(
                match self.closest_column(&reference) {
                    Some(best) => format!("{reference} — did you mean '{best}'?"),
                    None => reference,
                },
            ));
        };
        let Some((_, second)) = matches.next() else {
            return Ok(i);
        };
        let candidates: Vec<String> = [first, second]
            .into_iter()
            .chain(matches.map(|(_, c)| c))
            .map(Column::qualified_name)
            .collect();
        Err(EngineError::UnknownColumn(format!(
            "{} is ambiguous — qualify it as one of: {}",
            reference(),
            candidates.join(", ")
        )))
    }

    /// The closest existing column name (qualified or bare) by edit
    /// distance, if any is close enough to plausibly be a typo.
    fn closest_column(&self, reference: &str) -> Option<String> {
        let lower = reference.to_ascii_lowercase();
        let mut best: Option<(usize, String)> = None;
        for c in &self.cols {
            for cand in [c.qualified_name(), c.name.clone()] {
                let d = levenshtein(&lower, &cand.to_ascii_lowercase());
                if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
                    best = Some((d, cand));
                }
            }
        }
        // A suggestion further than half the reference away is noise.
        best.filter(|(d, _)| *d <= (reference.len() / 2).max(2))
            .map(|(_, n)| n)
    }

    /// Concatenate two schemas (as a join output does).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Schema { cols }
    }

    /// Keep the columns at `idxs`, in that order.
    pub fn project(&self, idxs: &[usize]) -> Schema {
        Schema {
            cols: idxs.iter().map(|&i| self.cols[i].clone()).collect(),
        }
    }

    /// Return a copy where every column carries `qualifier`.
    pub fn with_qualifier(&self, qualifier: &str) -> Schema {
        Schema {
            cols: self
                .cols
                .iter()
                .map(|c| Column {
                    name: c.name.clone(),
                    dtype: c.dtype,
                    qualifier: Some(qualifier.to_string()),
                })
                .collect(),
        }
    }

    /// Return a copy with all qualifiers removed.
    pub fn without_qualifiers(&self) -> Schema {
        Schema {
            cols: self
                .cols
                .iter()
                .map(|c| Column::new(c.name.clone(), c.dtype))
                .collect(),
        }
    }

    /// Two schemas are union compatible when their arities and column types
    /// match positionally (names may differ), per Sec. 3.1 of the paper.
    pub fn union_compatible(&self, other: &Schema) -> bool {
        self.len() == other.len()
            && self
                .cols
                .iter()
                .zip(other.cols.iter())
                .all(|(a, b)| a.dtype == b.dtype)
    }

    /// Rename column `i`.
    pub fn renamed(&self, i: usize, name: impl Into<String>) -> Schema {
        let mut s = self.clone();
        s.cols[i].name = name.into();
        s
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.cols.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", c.qualified_name(), c.dtype)?;
        }
        write!(f, ")")
    }
}

/// Classic two-row Levenshtein distance.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::qualified("r", "a", DataType::Int),
            Column::qualified("r", "ts", DataType::Int),
            Column::qualified("s", "a", DataType::Int),
        ])
    }

    #[test]
    fn resolve_unqualified_unique() {
        let s = sample();
        assert_eq!(s.index_of("ts").unwrap(), 1);
    }

    #[test]
    fn resolve_qualified() {
        let s = sample();
        assert_eq!(s.index_of("r.a").unwrap(), 0);
        assert_eq!(s.index_of("s.a").unwrap(), 2);
    }

    #[test]
    fn ambiguous_name_lists_qualified_candidates() {
        let err = sample().index_of("a").unwrap_err().to_string();
        assert_eq!(
            err,
            "unknown column: a is ambiguous — qualify it as one of: r.a, s.a"
        );
    }

    #[test]
    fn unknown_name_suggests_the_closest_column() {
        let s = sample();
        let err = s.index_of("tz").unwrap_err().to_string();
        assert_eq!(err, "unknown column: tz — did you mean 'ts'?");
        let err = s.resolve(Some("r"), "tss").unwrap_err().to_string();
        assert!(err.contains("did you mean 'r.ts'"), "{err}");
        // A hopeless name gets no suggestion.
        let err = s.index_of("zzzzzzzzzz").unwrap_err().to_string();
        assert_eq!(err, "unknown column: zzzzzzzzzz");
        assert!(s.index_of("q.a").is_err());
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("team", "team"), 0);
    }

    #[test]
    fn concat_and_project() {
        let a = Schema::new(vec![Column::new("x", DataType::Int)]);
        let b = Schema::new(vec![Column::new("y", DataType::Str)]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 2);
        let p = c.project(&[1]);
        assert_eq!(p.col(0).name, "y");
    }

    #[test]
    fn union_compatibility_positional() {
        let a = Schema::new(vec![
            Column::new("x", DataType::Int),
            Column::new("y", DataType::Str),
        ]);
        let b = Schema::new(vec![
            Column::new("u", DataType::Int),
            Column::new("v", DataType::Str),
        ]);
        let c = Schema::new(vec![Column::new("u", DataType::Int)]);
        assert!(a.union_compatible(&b));
        assert!(!a.union_compatible(&c));
    }

    #[test]
    fn qualifier_rewrites() {
        let s = sample().without_qualifiers();
        assert!(s.index_of("a").is_err()); // now ambiguous without qualifiers
        let s2 = Schema::new(vec![Column::new("a", DataType::Int)]).with_qualifier("t");
        assert_eq!(s2.index_of("t.a").unwrap(), 0);
    }
}
