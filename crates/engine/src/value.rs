//! Dynamically typed values.
//!
//! `Value::Null` doubles as the paper's ω: the padding value produced by
//! outer joins and the "unknown" of three-valued predicate logic. Equality,
//! ordering and hashing are *structural and total* (`Null == Null`,
//! `Int(1) != Double(1.0)`), which is what grouping, set operations and
//! sorting need; SQL-style comparisons with numeric coercion and
//! null-propagation live in [`Value::sql_cmp`] and the expression evaluator.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{EngineError, EngineResult};
use crate::schema::DataType;

/// A single dynamically-typed value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL; also the ω padding value of outer joins (paper Sec. 1).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer. Time points of the discrete time domain Ω^T
    /// are represented as `Int` (day / month number), as in the PostgreSQL
    /// implementation which stores Ts/Te as plain columns.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// Interned string.
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True iff this is `Null` (ω).
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The runtime type name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Double(_) => "double",
            Value::Str(_) => "str",
        }
    }

    /// The data type of a non-null value.
    pub fn dtype(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Integer accessor (no coercion).
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric accessor with Int → Double coercion.
    #[inline]
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// Boolean accessor.
    #[inline]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Expect an integer, with a descriptive error otherwise. Used by
    /// executor nodes that require interval endpoints.
    pub fn expect_int(&self, what: &str) -> EngineResult<i64> {
        self.as_int().ok_or_else(|| {
            EngineError::TypeError(format!("{what}: expected int, got {}", self.type_name()))
        })
    }

    /// SQL comparison: `None` if either side is NULL or the types are not
    /// comparable; numeric cross-type comparison coerces Int ↔ Double.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Double(a), Double(b)) => Some(a.total_cmp(b)),
            (Int(a), Double(b)) => Some((*a as f64).total_cmp(b)),
            (Double(a), Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Str(a), Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            _ => None,
        }
    }

    /// SQL equality as a three-valued predicate: `None` when either side is
    /// NULL, `Some(bool)` otherwise (incomparable types are simply unequal).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match self.sql_cmp(other) {
            Some(o) => Some(o == Ordering::Equal),
            None => Some(false),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Double(_) => 3,
            Value::Str(_) => 4,
        }
    }
}

/// Structural, total equality: `Null == Null`, `Int(1) != Double(1.0)`,
/// doubles compared by `total_cmp` (so `NaN == NaN`, `-0.0 != 0.0`).
/// Consistent with `Hash` and `Ord`.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Double(a), Double(b)) => a.total_cmp(b) == Ordering::Equal,
            (Str(a), Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Double(d) => d.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

/// Total order used by `Sort` and canonical relation ordering:
/// NULL first, then bools, then numerics (Int/Double interleaved by numeric
/// value, ties broken by type rank so `Eq` stays structural), then strings.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Int(a), Double(b)) => (*a as f64)
                .total_cmp(b)
                .then(self.rank().cmp(&other.rank())),
            (Double(a), Int(b)) => a
                .total_cmp(&(*b as f64))
                .then(self.rank().cmp(&other.rank())),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "ω"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

/// Checked SQL addition with numeric coercion; NULL-propagating.
pub fn num_add(a: &Value, b: &Value) -> EngineResult<Value> {
    num_binop(a, b, '+', |x, y| x + y)
}

/// Checked SQL subtraction with numeric coercion; NULL-propagating.
pub fn num_sub(a: &Value, b: &Value) -> EngineResult<Value> {
    num_binop(a, b, '-', |x, y| x - y)
}

/// Checked SQL multiplication with numeric coercion; NULL-propagating.
pub fn num_mul(a: &Value, b: &Value) -> EngineResult<Value> {
    num_binop(a, b, '*', |x, y| x * y)
}

/// SQL division. Integer division by zero is an error; `Int/Int` is integer
/// division as in PostgreSQL.
pub fn num_div(a: &Value, b: &Value) -> EngineResult<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => int_div(*x, *y).map(Value::Int),
        _ => {
            let (x, y) = coerce_doubles(a, b, "/")?;
            Ok(Value::Double(x / y))
        }
    }
}

/// Checked integer `x op y` for `op` one of `+ - * /`: the one integer
/// arithmetic of the engine, shared by the row evaluator and the column
/// kernels so both fail alike (`i64::MIN / -1` overflows, `/ 0` is an
/// error).
pub fn int_arith(op: char, x: i64, y: i64) -> EngineResult<i64> {
    let r = match op {
        '+' => x.checked_add(y),
        '-' => x.checked_sub(y),
        '*' => x.checked_mul(y),
        _ => return int_div(x, y),
    };
    r.ok_or_else(|| overflow(x, op, y))
}

fn int_div(x: i64, y: i64) -> EngineResult<i64> {
    if y == 0 {
        return Err(EngineError::Evaluation("division by zero".into()));
    }
    x.checked_div(y).ok_or_else(|| overflow(x, '/', y))
}

fn overflow(x: i64, op: char, y: i64) -> EngineError {
    EngineError::Evaluation(format!("integer overflow in {x} {op} {y}"))
}

fn num_binop(a: &Value, b: &Value, op: char, dbl_op: fn(f64, f64) -> f64) -> EngineResult<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => int_arith(op, *x, *y).map(Value::Int),
        _ => {
            let (x, y) = coerce_doubles(a, b, &op.to_string())?;
            Ok(Value::Double(dbl_op(x, y)))
        }
    }
}

fn coerce_doubles(a: &Value, b: &Value, op: &str) -> EngineResult<(f64, f64)> {
    match (a.as_double(), b.as_double()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(EngineError::TypeError(format!(
            "cannot apply {op} to {} and {}",
            a.type_name(),
            b.type_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn structural_equality_is_total() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Int(1), Value::Double(1.0));
        assert_eq!(Value::Double(f64::NAN), Value::Double(f64::NAN));
        assert_ne!(Value::Double(-0.0), Value::Double(0.0));
        assert_eq!(Value::str("a"), Value::str("a"));
    }

    #[test]
    fn hash_consistent_with_eq() {
        assert_eq!(h(&Value::Null), h(&Value::Null));
        assert_eq!(h(&Value::str("x")), h(&Value::str("x")));
        assert_eq!(h(&Value::Double(f64::NAN)), h(&Value::Double(f64::NAN)));
        // Not required by the Hash contract:
        assert_ne!(h(&Value::Int(1)), h(&Value::Double(1.0)));
    }

    #[test]
    fn total_order_nulls_first() {
        let mut v = [
            Value::str("b"),
            Value::Int(3),
            Value::Null,
            Value::Double(2.5),
            Value::Bool(true),
        ];
        v.sort();
        assert_eq!(v[0], Value::Null);
        assert_eq!(v[1], Value::Bool(true));
        assert_eq!(v[2], Value::Double(2.5));
        assert_eq!(v[3], Value::Int(3));
        assert_eq!(v[4], Value::str("b"));
    }

    #[test]
    fn mixed_numeric_order_is_numeric() {
        assert_eq!(Value::Int(1).cmp(&Value::Double(1.5)), Ordering::Less);
        assert_eq!(Value::Double(2.5).cmp(&Value::Int(2)), Ordering::Greater);
        // Numerically equal values are ordered by type rank, not equal:
        assert_eq!(Value::Int(1).cmp(&Value::Double(1.0)), Ordering::Less);
    }

    #[test]
    fn sql_cmp_propagates_null() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Double(1.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::Int(1).sql_eq(&Value::str("1")), Some(false));
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn arithmetic_with_coercion() {
        assert_eq!(
            num_add(&Value::Int(2), &Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            num_add(&Value::Int(2), &Value::Double(0.5)).unwrap(),
            Value::Double(2.5)
        );
        assert_eq!(num_sub(&Value::Null, &Value::Int(1)).unwrap(), Value::Null);
        assert!(num_add(&Value::Int(i64::MAX), &Value::Int(1)).is_err());
        assert!(num_div(&Value::Int(1), &Value::Int(0)).is_err());
        assert_eq!(
            num_div(&Value::Int(7), &Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert!(num_add(&Value::Int(1), &Value::str("x")).is_err());
    }

    #[test]
    fn integer_division_overflow_is_an_error_not_a_panic() {
        let err = num_div(&Value::Int(i64::MIN), &Value::Int(-1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            EngineError::Evaluation(format!("integer overflow in {} / -1", i64::MIN)).to_string()
        );
        assert_eq!(
            int_arith('/', i64::MIN, -1).unwrap_err().to_string(),
            err.to_string()
        );
        assert_eq!(
            num_div(&Value::Int(i64::MIN), &Value::Int(1)).unwrap(),
            Value::Int(i64::MIN)
        );
        assert!(int_arith('/', 1, 0).is_err());
        assert_eq!(int_arith('-', 3, 5).unwrap(), -2);
    }

    #[test]
    fn display_uses_omega_for_null() {
        assert_eq!(Value::Null.to_string(), "ω");
        assert_eq!(Value::Int(42).to_string(), "42");
    }
}
