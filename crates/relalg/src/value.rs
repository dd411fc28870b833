//! Dynamically typed scalar values stored in tuples.

use crate::intern::Symbol;
use std::cmp::Ordering;
use std::fmt;

/// A scalar value in a relation.
///
/// Values are intentionally minimal: the request relations of the scheduler
/// (see Table 2 of the paper — `ID`, `TA`, `INTRATA`, `Operation`, `Object`)
/// need integers and short strings; SLA metadata adds floats and booleans.
/// `Null` is SQL's absent value; comparisons with it are unknown, so a
/// predicate over it rejects the row and a NULL join key matches nothing.
///
/// Every variant is `Copy`: strings are carried as interned [`Symbol`]s
/// (see [`crate::intern`]), so copying a value — and therefore a whole row —
/// never touches the heap or an atomic reference count.
#[derive(Debug, Clone, Copy, Default)]
pub enum Value {
    /// SQL NULL / absent value.
    #[default]
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (used for SLA weights, deadlines expressed in seconds).
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Interned string (operation codes and client classes).
    Str(Symbol),
}

impl Value {
    /// Construct a string value from anything string-like, interning it.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Symbol::intern(s.as_ref()))
    }

    /// Construct a string value from an already interned symbol (free —
    /// no map lookup).
    pub fn symbol(s: Symbol) -> Self {
        Value::Str(s)
    }

    /// Returns `true` if this value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret the value as an integer if possible.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Interpret the value as a boolean if possible.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(i) => Some(*i != 0),
            _ => None,
        }
    }

    /// Interpret the value as a string slice if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The interned symbol if this is a string value.
    pub fn as_symbol(&self) -> Option<Symbol> {
        match self {
            Value::Str(s) => Some(*s),
            _ => None,
        }
    }

    /// The name of the value's runtime type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Str(_) => "str",
        }
    }

    /// SQL-style three-valued comparison: comparing anything with NULL yields
    /// `None`; numeric types compare across Int/Float.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            // Symbol equality is id equality; only unequal symbols resolve.
            (Str(a), Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering used by `ORDER BY` and `DISTINCT`: NULLs sort first,
    /// then by type, then by value.  Unlike [`Value::sql_cmp`] this never
    /// fails, which makes sorting and grouping deterministic.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 3,
                Value::Str(_) => 4,
            }
        }
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// SQL equality (`=`): NULL never equals anything, numerics compare
    /// across Int/Float.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal && self.is_null() == other.is_null()
    }
}

impl Eq for Value {}

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
            // Floats hash by their bit pattern; the engine only groups/joins
            // on floats produced by identical computations, so this is safe.
            Value::Float(f) => {
                3u8.hash(state);
                f.to_bits().hash(state);
            }
            // The interner deduplicates, so symbol-id equality is string
            // equality and hashing the 4-byte id is consistent with `Eq`.
            Value::Str(s) => {
                4u8.hash(state);
                s.id().hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
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
        Value::str(&v)
    }
}

impl From<Symbol> for Value {
    fn from(v: Symbol) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_incomparable_in_sql_semantics() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Int(3).sql_eq(&Value::Float(3.0)), Some(true));
    }

    #[test]
    fn total_ordering_sorts_nulls_first_and_is_total() {
        let mut vals = [
            Value::str("b"),
            Value::Int(10),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
            Value::str("a"),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        // Strings last under the type rank order.
        assert_eq!(vals.last().unwrap().as_str(), Some("b"));
    }

    #[test]
    fn string_ordering_is_lexicographic_despite_interning() {
        // Intern out of order so symbol ids disagree with string order.
        let z = Value::str("value-ord-zz");
        let a = Value::str("value-ord-aa");
        assert_eq!(a.sql_cmp(&z), Some(Ordering::Less));
        assert_eq!(z.total_cmp(&a), Ordering::Greater);
    }

    #[test]
    fn display_round_trips_human_readably() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("w").to_string(), "w");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from(7i32), Value::Int(7));
        assert_eq!(Value::from(7usize), Value::Int(7));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(2.0f64), Value::Float(2.0));
    }

    #[test]
    fn as_accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Bool(true).as_int(), Some(1));
        assert_eq!(Value::str("abc").as_str(), Some("abc"));
        assert_eq!(Value::str("abc").as_int(), None);
        assert_eq!(Value::Int(0).as_bool(), Some(false));
    }

    #[test]
    fn hash_consistent_with_eq_for_ints_and_strings() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(1));
        set.insert(Value::Int(1));
        set.insert(Value::str("a"));
        set.insert(Value::str("a"));
        assert_eq!(set.len(), 2);
    }
}
