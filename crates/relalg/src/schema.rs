//! Relation schemas: ordered, named, typed columns.

use crate::error::{RelError, RelResult};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Logical data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit floating point.
    Float,
    /// Boolean.
    Bool,
    /// UTF-8 string.
    Str,
    /// Column whose type is not constrained (used for computed columns).
    Any,
}

impl DataType {
    /// Whether a concrete runtime [`Value`] is admissible for this type.
    /// NULL is admissible for every type (all columns are nullable, as in
    /// SQL).
    pub fn admits(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (DataType::Any, _)
                | (DataType::Int, Value::Int(_))
                | (DataType::Float, Value::Float(_))
                | (DataType::Float, Value::Int(_))
                | (DataType::Bool, Value::Bool(_))
                | (DataType::Str, Value::Str(_))
        )
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Bool => "BOOL",
            DataType::Str => "STR",
            DataType::Any => "ANY",
        };
        f.write_str(s)
    }
}

/// A single named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (case-sensitive).
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// Create a new field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }

    /// Create a field typed [`DataType::Int`].
    pub fn int(name: impl Into<String>) -> Self {
        Field::new(name, DataType::Int)
    }

    /// Create a field typed [`DataType::Str`].
    pub fn str(name: impl Into<String>) -> Self {
        Field::new(name, DataType::Str)
    }

    /// Create a field typed [`DataType::Float`].
    pub fn float(name: impl Into<String>) -> Self {
        Field::new(name, DataType::Float)
    }

    /// Create a field typed [`DataType::Bool`].
    pub fn bool(name: impl Into<String>) -> Self {
        Field::new(name, DataType::Bool)
    }
}

/// An ordered collection of [`Field`]s describing a relation.
///
/// Schemas are reference-counted internally because every tuple batch and
/// every plan node shares the same schema object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Arc<Vec<Field>>,
}

impl Schema {
    /// Create a schema from fields.  Column names must be unique.
    pub fn new(fields: Vec<Field>) -> Self {
        debug_assert!(
            {
                let mut names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                names.sort_unstable();
                names.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate column names in schema"
        );
        Schema {
            fields: Arc::new(fields),
        }
    }

    /// An empty schema (zero columns).
    pub fn empty() -> Self {
        Schema::new(Vec::new())
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// All fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Look up a column index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Look up a column index by name, returning an error naming the column
    /// when it is missing (the common case when authoring scheduling rules).
    pub fn try_index_of(&self, name: &str) -> RelResult<usize> {
        self.index_of(name).ok_or_else(|| RelError::UnknownColumn {
            column: name.to_string(),
            available: self.fields.iter().map(|f| f.name.clone()).collect(),
        })
    }

    /// Field at position `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Concatenate two schemas (used by joins).  When both sides define the
    /// same column name, the right-hand copy is prefixed with `prefix.`.
    pub fn join(&self, other: &Schema, right_prefix: &str) -> Schema {
        let mut fields: Vec<Field> = self.fields.as_ref().clone();
        for f in other.fields() {
            if self.index_of(&f.name).is_some() {
                fields.push(Field::new(
                    format!("{right_prefix}.{}", f.name),
                    f.data_type,
                ));
            } else {
                fields.push(f.clone());
            }
        }
        Schema::new(fields)
    }

    /// Check that two schemas are union-compatible (same arity and types,
    /// names may differ — as in SQL's `UNION`/`EXCEPT`).
    pub fn union_compatible(&self, other: &Schema) -> bool {
        self.len() == other.len()
            && self.fields.iter().zip(other.fields.iter()).all(|(a, b)| {
                a.data_type == b.data_type
                    || a.data_type == DataType::Any
                    || b.data_type == DataType::Any
            })
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", field.name, field.data_type)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req_schema() -> Schema {
        Schema::new(vec![
            Field::int("id"),
            Field::int("ta"),
            Field::int("intrata"),
            Field::str("operation"),
            Field::int("object"),
        ])
    }

    #[test]
    fn index_lookup_and_error() {
        let s = req_schema();
        assert_eq!(s.index_of("ta"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        let err = s.try_index_of("missing").unwrap_err();
        match err {
            RelError::UnknownColumn { column, available } => {
                assert_eq!(column, "missing");
                assert_eq!(available.len(), 5);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn join_prefixes_duplicate_columns() {
        let s = req_schema();
        let joined = s.join(&req_schema(), "h");
        assert_eq!(joined.len(), 10);
        assert_eq!(joined.field(5).name, "h.id");
        assert_eq!(joined.field(9).name, "h.object");
        // Left columns keep their plain names.
        assert_eq!(joined.index_of("ta"), Some(1));
    }

    #[test]
    fn union_compatibility_checks_types_not_names() {
        let a = Schema::new(vec![Field::int("x"), Field::str("y")]);
        let b = Schema::new(vec![Field::int("p"), Field::str("q")]);
        let c = Schema::new(vec![Field::str("p"), Field::str("q")]);
        assert!(a.union_compatible(&b));
        assert!(!a.union_compatible(&c));
        assert!(!a.union_compatible(&Schema::empty()));
    }

    #[test]
    fn datatype_admits_nulls_and_numeric_widening() {
        assert!(DataType::Int.admits(&Value::Null));
        assert!(DataType::Float.admits(&Value::Int(3)));
        assert!(!DataType::Int.admits(&Value::str("x")));
        assert!(DataType::Any.admits(&Value::Bool(true)));
    }

    #[test]
    fn display_formats() {
        let s = Schema::new(vec![Field::int("a"), Field::str("b")]);
        assert_eq!(s.to_string(), "(a INT, b STR)");
        assert_eq!(DataType::Float.to_string(), "FLOAT");
    }
}
