//! Heap tables with optional hash indexes.

use crate::error::{RelError, RelResult};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A named, in-memory relation: a schema plus a vector of tuples.
///
/// The paper's three scheduling relations (its Table 2) are tables of this
/// kind: `requests` (pending), `history` (already executed) and `rte`
/// (ready-to-execute, the output of a scheduling round).  Tables support
/// equality hash indexes on single columns because the SS2PL rule joins on
/// `object` and `ta` constantly.
///
/// Row storage and indexes are reference-counted with copy-on-write
/// semantics: `Table::clone` is O(1), which is what lets the scheduler
/// snapshot its long-lived relations (`sla`, auxiliary tables) into a
/// rule-evaluation catalog without copying a single row.  A clone only pays
/// for the rows if it (or the original) is mutated while the other snapshot
/// is still alive.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Arc<Vec<Tuple>>,
    /// column index -> (value -> row positions)
    indexes: Arc<HashMap<usize, HashMap<Value, Vec<usize>>>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: Arc::new(Vec::new()),
            indexes: Arc::new(HashMap::new()),
        }
    }

    /// Create a table pre-populated with rows (rows are validated).  The
    /// vector becomes the row storage as is: a fresh table has no index to
    /// maintain.
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

    /// Consume the table, returning its rows (copying only if a snapshot of
    /// this table is still alive elsewhere).
    pub fn into_rows(self) -> Vec<Tuple> {
        Arc::try_unwrap(self.rows).unwrap_or_else(|shared| (*shared).clone())
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

    /// Append a tuple, maintaining any indexes.
    pub fn push(&mut self, tuple: Tuple) -> RelResult<()> {
        self.validate(&tuple)?;
        let pos = self.rows.len();
        if !self.indexes.is_empty() {
            for (&col, index) in Arc::make_mut(&mut self.indexes).iter_mut() {
                index.entry(*tuple.get(col)).or_default().push(pos);
            }
        }
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

    /// Remove all rows (indexes are cleared too).
    pub fn clear(&mut self) {
        Arc::make_mut(&mut self.rows).clear();
        for index in Arc::make_mut(&mut self.indexes).values_mut() {
            index.clear();
        }
    }

    /// Build (or rebuild) a hash index on the named column.
    pub fn create_index(&mut self, column: &str) -> RelResult<()> {
        let col = self.schema.try_index_of(column)?;
        let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
        for (pos, row) in self.rows.iter().enumerate() {
            index.entry(*row.get(col)).or_default().push(pos);
        }
        Arc::make_mut(&mut self.indexes).insert(col, index);
        Ok(())
    }

    /// Whether an index exists on the named column.
    pub fn has_index(&self, column: &str) -> bool {
        self.schema
            .index_of(column)
            .map(|c| self.indexes.contains_key(&c))
            .unwrap_or(false)
    }

    /// Look up rows whose `column` equals `value` using the index if present,
    /// falling back to a scan otherwise.
    pub fn lookup(&self, column: &str, value: &Value) -> RelResult<Vec<&Tuple>> {
        let col = self.schema.try_index_of(column)?;
        if let Some(index) = self.indexes.get(&col) {
            Ok(index
                .get(value)
                .map(|positions| positions.iter().map(|&p| &self.rows[p]).collect())
                .unwrap_or_default())
        } else {
            Ok(self
                .rows
                .iter()
                .filter(|r| r.get(col).sql_eq(value) == Some(true))
                .collect())
        }
    }

    /// Delete every row matching the predicate, returning how many were
    /// removed.  Indexes are rebuilt afterwards (deletion is rare and
    /// batch-oriented in the scheduler: qualified requests are removed from
    /// the pending table once per scheduling round).
    pub fn delete_where<F>(&mut self, mut pred: F) -> usize
    where
        F: FnMut(&Tuple) -> bool,
    {
        let before = self.rows.len();
        Arc::make_mut(&mut self.rows).retain(|t| !pred(t));
        let removed = before - self.rows.len();
        if removed > 0 {
            let columns: Vec<usize> = self.indexes.keys().copied().collect();
            for col in columns {
                let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
                for (pos, row) in self.rows.iter().enumerate() {
                    index.entry(*row.get(col)).or_default().push(pos);
                }
                Arc::make_mut(&mut self.indexes).insert(col, index);
            }
        }
        removed
    }

    /// Render the table as an ASCII grid, useful in examples and for
    /// debugging scheduling rules.
    pub fn to_ascii(&self) -> String {
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let header: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(i, n)| format!("{:width$}", n, width = widths[i]))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
        }
        out
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
    fn indexed_and_scanned_lookup_agree() {
        let mut t = req_table();
        let scanned: Vec<i64> = t
            .lookup("object", &Value::Int(100))
            .unwrap()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        t.create_index("object").unwrap();
        assert!(t.has_index("object"));
        let indexed: Vec<i64> = t
            .lookup("object", &Value::Int(100))
            .unwrap()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        assert_eq!(scanned, indexed);
        assert_eq!(indexed, vec![1, 3]);
    }

    #[test]
    fn index_maintained_across_push_and_delete() {
        let mut t = req_table();
        t.create_index("ta").unwrap();
        t.push(tuple![4, 11, "r", 102]).unwrap();
        assert_eq!(t.lookup("ta", &Value::Int(11)).unwrap().len(), 2);
        let removed = t.delete_where(|r| r.get(1).as_int() == Some(11));
        assert_eq!(removed, 2);
        assert!(t.lookup("ta", &Value::Int(11)).unwrap().is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lookup_on_missing_value_and_column() {
        let t = req_table();
        assert!(t.lookup("object", &Value::Int(999)).unwrap().is_empty());
        assert!(t.lookup("nope", &Value::Int(1)).is_err());
    }

    #[test]
    fn clear_empties_rows_and_indexes() {
        let mut t = req_table();
        t.create_index("object").unwrap();
        t.clear();
        assert!(t.is_empty());
        assert!(t.lookup("object", &Value::Int(100)).unwrap().is_empty());
    }

    #[test]
    fn ascii_rendering_contains_all_cells() {
        let t = req_table();
        let grid = t.to_ascii();
        assert!(grid.contains("operation"));
        assert!(grid.contains("101"));
        assert_eq!(grid.lines().count(), 2 + t.len());
    }

    #[test]
    fn clone_is_a_zero_copy_snapshot_with_cow_divergence() {
        let mut t = req_table();
        t.create_index("object").unwrap();
        let snapshot = t.clone();
        assert!(snapshot.shares_rows_with(&t), "clone must not copy rows");

        // Mutating the original diverges it without disturbing the snapshot.
        t.push(tuple![4, 12, "r", 100]).unwrap();
        assert!(!snapshot.shares_rows_with(&t));
        assert_eq!(t.len(), 4);
        assert_eq!(snapshot.len(), 3);
        assert_eq!(t.lookup("object", &Value::Int(100)).unwrap().len(), 3);
        assert_eq!(
            snapshot.lookup("object", &Value::Int(100)).unwrap().len(),
            2
        );

        // Once the snapshot is dropped, further mutation is in-place again.
        drop(snapshot);
        let rows_before = std::sync::Arc::as_ptr(&t.rows);
        t.push(tuple![5, 13, "w", 7]).unwrap();
        assert_eq!(std::sync::Arc::as_ptr(&t.rows), rows_before);
    }

    #[test]
    fn into_rows_of_a_shared_table_copies_once() {
        let t = req_table();
        let snapshot = t.clone();
        let rows = snapshot.into_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn with_rows_builds_or_rejects() {
        let schema = Schema::new(vec![Field::int("a")]);
        assert!(Table::with_rows("t", schema.clone(), vec![tuple![1], tuple![2]]).is_ok());
        assert!(Table::with_rows("t", schema, vec![tuple!["x"]]).is_err());
    }
}
