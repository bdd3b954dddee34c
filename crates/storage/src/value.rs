//! Runtime values and column data types.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Column data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    Bytes,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A runtime value.
///
/// Ordering is total: NULL sorts first, then by type rank, then by value
/// (floats via `total_cmp`). Cross-type Int/Float comparisons compare
/// numerically so that index keys built from either work intuitively.
///
/// `Bytes` is a boxed slice, not a `Vec`: two wide payloads would leave the
/// enum no niche for its tag and cost every value in every stored row a
/// fourth word.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Bytes(Box<[u8]>),
}

// A stored row is one `Value` per column: resident memory scales with this.
const _: () = assert!(std::mem::size_of::<Value>() == 24);

impl Value {
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bytes(_) => Some(DataType::Bytes),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Type rank for cross-type ordering. Numeric types share a rank so they
    /// compare by value.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Bytes(_) => 4,
        }
    }

    /// Check the value can be stored in a column of `ty` (NULL always passes
    /// here; nullability is enforced by the schema).
    pub fn conforms_to(&self, ty: DataType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Bool(_), DataType::Bool) => true,
            (Value::Int(_), DataType::Int) => true,
            (Value::Float(_), DataType::Float) => true,
            // Allow Int literals in Float columns; coerce at insert.
            (Value::Int(_), DataType::Float) => true,
            (Value::Str(_), DataType::Str) => true,
            (Value::Bytes(_), DataType::Bytes) => true,
            _ => false,
        }
    }

    /// Coerce into the column's storage representation (Int→Float only).
    pub fn coerce(self, ty: DataType) -> Value {
        match (self, ty) {
            (Value::Int(i), DataType::Float) => Value::Float(i as f64),
            (v, _) => v,
        }
    }

    /// The value to look up in an index over a column of type `ty` in place
    /// of this one: the value of that type that compares with every value
    /// of that type exactly as this one does. `None` when there is none
    /// (`2.5` or `'x'` against an `Int` column; a float too large to name
    /// one integer; `-0.0`, which sorts below `0`), and then no index over
    /// that column can stand in for comparing row by row.
    pub fn into_key(self, ty: DataType) -> Option<Value> {
        match (self, ty) {
            (Value::Int(i), DataType::Float) => Some(Value::Float(i as f64)),
            (Value::Float(f), DataType::Int) => {
                let i = f as i64;
                let one_integer = i.unsigned_abs() < 1 << 53 && (i as f64).to_bits() == f.to_bits();
                one_integer.then_some(Value::Int(i))
            }
            (v, _) if v.data_type().is_none_or(|own| own == ty) => Some(v),
            _ => None,
        }
    }

    /// Whether the two are the same bits: unlike `==`, `-0.0` and `0.0`
    /// differ. A log restores the committed bytes, not an equal number.
    pub(crate) fn same(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }
}

impl Eq for Value {}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bytes(a), Value::Bytes(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                // Hash floats by bits of the canonical form so Int(x) and
                // Float(x.0) hash identically when x is exactly representable.
                if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                    (*f as i64).hash(state);
                } else {
                    f.to_bits().hash(state);
                }
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Bytes(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => write!(f, "x'{}'", b.iter().map(|x| format!("{x:02x}")).collect::<String>()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// A row as a caller builds or modifies it: one value per column, owned.
pub type Row = Vec<Value>;

/// A row as it is stored and read: immutable, and shared by everything that
/// only looks at it — the table's slot, a transaction's undo and redo
/// images, the executor's tuples, a `SELECT *` result. A writer replaces the
/// `Arc`, never the values behind it, so a reader keeps the row it was
/// given. The slice sits beside the reference counts in one allocation: the
/// same two hops (slot → values → string bytes) as a `Vec<Value>`.
pub type SharedRow = Arc<[Value]>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert!(Value::Float(1.5) < Value::Float(2.5));
        assert!(Value::Bool(false) < Value::Bool(true));
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Str(String::new()));
    }

    #[test]
    fn numeric_cross_type() {
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.0)), Ordering::Equal);
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn conformance() {
        assert!(Value::Int(1).conforms_to(DataType::Int));
        assert!(Value::Int(1).conforms_to(DataType::Float));
        assert!(!Value::Float(1.0).conforms_to(DataType::Int));
        assert!(Value::Null.conforms_to(DataType::Str));
        assert!(!Value::Str("x".into()).conforms_to(DataType::Int));
    }

    #[test]
    fn coercion() {
        assert_eq!(Value::Int(3).coerce(DataType::Float), Value::Float(3.0));
        assert_eq!(Value::Int(3).coerce(DataType::Int), Value::Int(3));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::Str("hi".into()).to_string(), "'hi'");
        assert_eq!(Value::Bytes([0xab, 0x01].into()).to_string(), "x'ab01'");
    }

    #[test]
    fn hash_int_float_consistent() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(42)), h(&Value::Float(42.0)));
    }
}
