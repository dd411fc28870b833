//! Error type shared across the relational engine.

use std::fmt;

/// Result alias used throughout `relalg`.
pub type RelResult<T> = Result<T, RelError>;

/// Errors produced while building or evaluating relational plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// A column name was not found in the input schema.
    UnknownColumn {
        /// The column that was requested.
        column: String,
        /// The columns that actually exist, to make rule authoring errors
        /// easy to diagnose.
        available: Vec<String>,
    },
    /// A relation name was not found in the catalog.
    UnknownRelation {
        /// The relation that was requested.
        relation: String,
    },
    /// A tuple's arity or a value's type does not match the schema.
    SchemaMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// An expression was applied to operands of the wrong type.
    TypeError {
        /// Human-readable description.
        detail: String,
    },
    /// Set operations require union-compatible inputs.
    NotUnionCompatible {
        /// Left schema rendered as text.
        left: String,
        /// Right schema rendered as text.
        right: String,
    },
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::UnknownColumn { column, available } => write!(
                f,
                "unknown column `{column}` (available: {})",
                available.join(", ")
            ),
            RelError::UnknownRelation { relation } => {
                write!(f, "unknown relation `{relation}`")
            }
            RelError::SchemaMismatch { detail } => write!(f, "schema mismatch: {detail}"),
            RelError::TypeError { detail } => write!(f, "type error: {detail}"),
            RelError::NotUnionCompatible { left, right } => {
                write!(f, "inputs are not union-compatible: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for RelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_actionable_messages() {
        let e = RelError::UnknownColumn {
            column: "oid".into(),
            available: vec!["id".into(), "object".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("oid"));
        assert!(msg.contains("object"));

        let e = RelError::UnknownRelation {
            relation: "pending".into(),
        };
        assert!(e.to_string().contains("pending"));

        let e = RelError::NotUnionCompatible {
            left: "(a INT)".into(),
            right: "(a STR)".into(),
        };
        assert!(e.to_string().contains("union-compatible"));
    }
}
