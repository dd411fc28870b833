//! Heap tables: a schema plus copy-on-write row storage.

use crate::error::{RelError, RelResult};
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::fmt;
use std::sync::Arc;

/// A named, in-memory relation: a schema plus a vector of tuples.
///
/// The paper's three scheduling relations (its Table 2) are tables of this
/// kind: `requests` (pending), `history` (already executed) and `rte`
/// (ready-to-execute, the output of a scheduling round).
///
/// Row storage is reference-counted with copy-on-write semantics: `Table::clone` is O(1), which is what lets the scheduler
/// snapshot its long-lived relations (`sla`, auxiliary tables) into a
/// rule-evaluation catalog without copying a single row.  A clone only pays
/// for the rows if it (or the original) is mutated while the other snapshot
/// is still alive.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Arc<Vec<Tuple>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: Arc::new(Vec::new()),
        }
    }

    /// Create a table pre-populated with rows (rows are validated).  The
    /// vector becomes the row storage as is.
    pub fn with_rows(name: impl Into<String>, schema: Schema, rows: Vec<Tuple>) -> RelResult<Self> {
        let mut t = Table::new(name, schema);
        for r in &rows {
            t.validate(r)?;
        }
        t.rows = Arc::new(rows);
        Ok(t)
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Whether this table shares its row storage with another snapshot
    /// (diagnostic; used by tests to prove snapshots are zero-copy).
    pub fn shares_rows_with(&self, other: &Table) -> bool {
        Arc::ptr_eq(&self.rows, &other.rows)
    }

    /// Validate a tuple against the schema (arity and types).
    fn validate(&self, tuple: &Tuple) -> RelResult<()> {
        if tuple.arity() != self.schema.len() {
            return Err(RelError::SchemaMismatch {
                detail: format!(
                    "table `{}` expects {} columns, tuple has {}",
                    self.name,
                    self.schema.len(),
                    tuple.arity()
                ),
            });
        }
        for (i, v) in tuple.values().iter().enumerate() {
            let field = self.schema.field(i);
            if !field.data_type.admits(v) {
                return Err(RelError::SchemaMismatch {
                    detail: format!(
                        "column `{}` of table `{}` has type {} but value `{}` has type {}",
                        field.name,
                        self.name,
                        field.data_type,
                        v,
                        v.type_name()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Append a tuple.
    pub fn push(&mut self, tuple: Tuple) -> RelResult<()> {
        self.validate(&tuple)?;
        Arc::make_mut(&mut self.rows).push(tuple);
        Ok(())
    }

    /// Append many tuples.
    pub fn extend(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> RelResult<()> {
        for t in tuples {
            self.push(t)?;
        }
        Ok(())
    }

    /// Remove all rows.
    pub fn clear(&mut self) {
        Arc::make_mut(&mut self.rows).clear();
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{} rows]",
            self.name,
            self.schema,
            self.rows.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::tuple;

    fn req_table() -> Table {
        let schema = Schema::new(vec![
            Field::int("id"),
            Field::int("ta"),
            Field::str("operation"),
            Field::int("object"),
        ]);
        let mut t = Table::new("requests", schema);
        t.push(tuple![1, 10, "r", 100]).unwrap();
        t.push(tuple![2, 10, "w", 101]).unwrap();
        t.push(tuple![3, 11, "w", 100]).unwrap();
        t
    }

    #[test]
    fn push_validates_arity_and_type() {
        let mut t = req_table();
        assert!(t.push(tuple![4, 12, "r"]).is_err());
        assert!(t.push(tuple![4, "x", "r", 5]).is_err());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn clear_empties_rows_and_indexes() {
        let mut t = req_table();
        let snapshot = t.clone();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(snapshot.len(), 3, "clearing must not touch a snapshot");
        t.push(tuple![4, 12, "r", 100]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clone_is_a_zero_copy_snapshot_with_cow_divergence() {
        let mut t = req_table();
        let snapshot = t.clone();
        assert!(snapshot.shares_rows_with(&t), "clone must not copy rows");

        // Mutating the original diverges it without disturbing the snapshot.
        t.push(tuple![4, 12, "r", 100]).unwrap();
        assert!(!snapshot.shares_rows_with(&t));
        assert_eq!(t.len(), 4);
        assert_eq!(snapshot.len(), 3);
        assert_eq!(t.rows()[..3], snapshot.rows()[..]);
        assert_eq!(t.rows()[3], tuple![4, 12, "r", 100]);

        // Once the snapshot is dropped, further mutation is in-place again.
        drop(snapshot);
        let rows_before = std::sync::Arc::as_ptr(&t.rows);
        t.push(tuple![5, 13, "w", 7]).unwrap();
        assert_eq!(std::sync::Arc::as_ptr(&t.rows), rows_before);
    }

    #[test]
    fn with_rows_builds_or_rejects() {
        let schema = Schema::new(vec![Field::int("a")]);
        assert!(Table::with_rows("t", schema.clone(), vec![tuple![1], tuple![2]]).is_ok());
        assert!(Table::with_rows("t", schema, vec![tuple!["x"]]).is_err());
    }
}
