//! Rows (tuples). Cheap to clone: backed by `Arc<[Value]>`, so hash tables,
//! sort buffers and join outputs share storage.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use crate::value::Value;

/// An immutable row of values.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Row(Arc<[Value]>);

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row(Arc::from(values))
    }

    /// A row of `n` NULLs (ω-padding for outer joins).
    pub fn nulls(n: usize) -> Self {
        Row(Arc::from(vec![Value::Null; n]))
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.len() + other.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Row(Arc::from(v))
    }

    /// `self` followed by `n` NULLs.
    pub fn concat_nulls(&self, n: usize) -> Row {
        let mut v = Vec::with_capacity(self.len() + n);
        v.extend_from_slice(&self.0);
        v.extend(std::iter::repeat_n(Value::Null, n));
        Row(Arc::from(v))
    }

    /// `n` NULLs followed by `self`.
    pub fn nulls_concat(&self, n: usize) -> Row {
        let mut v = Vec::with_capacity(self.len() + n);
        v.extend(std::iter::repeat_n(Value::Null, n));
        v.extend_from_slice(&self.0);
        Row(Arc::from(v))
    }

    /// Keep the values at `idxs`, in that order.
    pub fn project(&self, idxs: &[usize]) -> Row {
        Row(idxs.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// The contiguous sub-row `[from, to)`.
    pub fn slice(&self, from: usize, to: usize) -> Row {
        Row(Arc::from(&self.0[from..to]))
    }

    /// Copy into a mutable `Vec` for ad-hoc construction.
    pub fn to_vec(&self) -> Vec<Value> {
        self.0.to_vec()
    }
}

impl AsRef<[Value]> for Row {
    fn as_ref(&self) -> &[Value] {
        &self.0
    }
}

impl Index<usize> for Row {
    type Output = Value;
    #[inline]
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Self {
        Row::new(v)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row(iter.into_iter().collect())
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(vals: &[i64]) -> Row {
        Row::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn concat_projects_slices() {
        let a = r(&[1, 2]);
        let b = r(&[3]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        assert_eq!(c[2], Value::Int(3));
        assert_eq!(c.project(&[2, 0]).values(), r(&[3, 1]).values());
        assert_eq!(c.slice(1, 3), r(&[2, 3]));
    }

    #[test]
    fn null_padding() {
        let a = r(&[7]);
        let padded = a.concat_nulls(2);
        assert_eq!(padded.len(), 3);
        assert!(padded[1].is_null() && padded[2].is_null());
        let padded = a.nulls_concat(1);
        assert!(padded[0].is_null());
        assert_eq!(padded[1], Value::Int(7));
    }

    #[test]
    fn rows_order_lexicographically() {
        let mut v = vec![r(&[2, 1]), r(&[1, 9]), r(&[1, 2])];
        v.sort();
        assert_eq!(v, vec![r(&[1, 2]), r(&[1, 9]), r(&[2, 1])]);
    }

    #[test]
    fn display_row() {
        assert_eq!(r(&[1, 2]).to_string(), "(1, 2)");
    }
}
