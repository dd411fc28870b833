//! Logical relational algebra plans.

use crate::expr::Expr;

/// Kind of join to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner equi/theta join: output concatenated matching pairs.
    Inner,
    /// Left semi join: left tuples with at least one match, left columns only.
    Semi,
    /// Left anti join: left tuples with no match, left columns only.  This is
    /// the workhorse of the paper's SS2PL rule (`NOT EXISTS` / `EXCEPT`).
    Anti,
}

/// A projection item: expression plus optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectItem {
    /// The projected expression.
    pub expr: Expr,
    /// Optional output column name; defaults to the expression's display name.
    pub alias: Option<String>,
}

impl ProjectItem {
    /// Projection without alias.
    pub fn expr(expr: Expr) -> Self {
        ProjectItem { expr, alias: None }
    }

    /// Projection with alias.
    pub fn aliased(expr: Expr, alias: impl Into<String>) -> Self {
        ProjectItem {
            expr,
            alias: Some(alias.into()),
        }
    }

    /// The output column name.
    pub fn name(&self) -> String {
        self.alias
            .clone()
            .unwrap_or_else(|| self.expr.display_name())
    }
}

/// A logical relational algebra plan.
///
/// Plans are trees whose leaves are [`Plan::Scan`]s of catalog relations.
/// The executor ([`crate::exec::execute`]) materialises every node, which is
/// appropriate for the scheduler's small per-round relations.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a named relation from the catalog.
    Scan {
        /// Relation name.
        relation: String,
    },
    /// Filter rows by a predicate.
    Select {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate (SQL WHERE semantics: NULL rejects).
        predicate: Expr,
    },
    /// Compute output columns from input rows.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Projection list.
        items: Vec<ProjectItem>,
    },
    /// Join two inputs on a predicate evaluated over the concatenated tuple.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join kind.
        kind: JoinKind,
        /// Join predicate; `None` means cross join (for Inner) or
        /// "matches everything" (for Semi/Anti).
        on: Option<Expr>,
    },
    /// Bag union of two union-compatible inputs (UNION ALL).
    UnionAll {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Set difference of two union-compatible inputs (EXCEPT, set semantics,
    /// as used by the paper's `QualifiedSS2PLOps` CTE).
    Except {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Remove duplicate rows.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Rename the output columns of the input (arity must match).
    Rename {
        /// Input plan.
        input: Box<Plan>,
        /// New column names.
        columns: Vec<String>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_key_and_project_item_helpers() {
        let item = ProjectItem::aliased(Expr::col("ta"), "next_ta");
        assert_eq!(item.name(), "next_ta");
        let item = ProjectItem::expr(Expr::col("ta"));
        assert_eq!(item.name(), "ta");
        let item = ProjectItem::expr(Expr::col("ta").eq(Expr::lit(1)));
        assert_eq!(item.name(), "(ta = 1)");
    }
}
