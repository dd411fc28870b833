//! A catalog of named relations against which plans are evaluated.

use crate::error::{RelError, RelResult};
use crate::table::Table;
use std::collections::HashMap;

/// A set of named [`Table`]s.
///
/// The declarative scheduler registers its `requests`, `history` and
/// (optionally) auxiliary relations (SLA classes, object placement, ...) in a
/// catalog, then executes protocol plans against it every scheduling round.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Table>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table under its own name.
    ///
    /// # Panics
    /// Panics if a relation of that name is already registered; use
    /// [`Catalog::replace`] to overwrite one.
    pub fn register(&mut self, table: Table) -> &mut Self {
        let name = table.name().to_string();
        assert!(
            !self.tables.contains_key(&name),
            "relation `{name}` is already registered; use replace()"
        );
        self.tables.insert(name, table);
        self
    }

    /// Insert or replace a table under its own name.
    pub fn replace(&mut self, table: Table) {
        self.tables.insert(table.name().to_string(), table);
    }

    /// Look up a table by name.
    pub fn get(&self, name: &str) -> RelResult<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| RelError::UnknownRelation {
                relation: name.to_string(),
            })
    }

    /// Whether a relation with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all registered relations (unsorted).
    pub fn relation_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::tuple;

    fn table(name: &str) -> Table {
        let schema = Schema::new(vec![Field::int("x")]);
        let mut t = Table::new(name, schema);
        t.push(tuple![1]).unwrap();
        t
    }

    #[test]
    fn register_lookup_remove() {
        let mut c = Catalog::new();
        c.register(table("requests"));
        c.register(table("history"));
        assert_eq!(c.len(), 2);
        assert!(c.contains("requests"));
        assert_eq!(c.get("requests").unwrap().len(), 1);
        assert!(c.get("missing").is_err());
        assert!(!c.contains("missing"));
        let mut names = c.relation_names();
        names.sort_unstable();
        assert_eq!(names, vec!["history", "requests"]);
    }

    #[test]
    fn replace_overwrites() {
        let mut c = Catalog::new();
        c.register(table("requests"));
        let schema = Schema::new(vec![Field::int("x")]);
        c.replace(Table::new("requests", schema));
        assert_eq!(c.get("requests").unwrap().len(), 0);
    }
}
