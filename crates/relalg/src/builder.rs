//! A fluent builder for relational plans.
//!
//! Scheduling protocols in the core crate are authored through this builder,
//! which keeps them readable algebra rather than deeply nested enum
//! constructors.

use crate::expr::Expr;
use crate::plan::{JoinKind, Plan, ProjectItem};

/// Fluent plan builder.  Every method consumes and returns the builder so
/// pipelines read top-down like SQL `FROM ... WHERE ... SELECT`.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    plan: Plan,
}

impl PlanBuilder {
    /// Start from a catalog relation.
    pub fn scan(relation: impl Into<String>) -> Self {
        PlanBuilder {
            plan: Plan::Scan {
                relation: relation.into(),
            },
        }
    }

    /// Filter rows (`WHERE`).
    pub fn filter(self, predicate: Expr) -> Self {
        PlanBuilder {
            plan: Plan::Select {
                input: Box::new(self.plan),
                predicate,
            },
        }
    }

    /// Project expressions without aliases (`SELECT e1, e2, ...`).
    pub fn project(self, exprs: Vec<Expr>) -> Self {
        PlanBuilder {
            plan: Plan::Project {
                input: Box::new(self.plan),
                items: exprs.into_iter().map(ProjectItem::expr).collect(),
            },
        }
    }

    /// Project expressions with aliases (`SELECT e1 AS a, e2 AS b`).
    pub fn project_as(self, items: Vec<(Expr, &str)>) -> Self {
        PlanBuilder {
            plan: Plan::Project {
                input: Box::new(self.plan),
                items: items
                    .into_iter()
                    .map(|(e, a)| ProjectItem::aliased(e, a))
                    .collect(),
            },
        }
    }

    /// Join with another plan.
    pub fn join(self, right: PlanBuilder, kind: JoinKind, on: Option<Expr>) -> Self {
        PlanBuilder {
            plan: Plan::Join {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
                kind,
                on,
            },
        }
    }

    /// Inner equi-join convenience: `on` pairs are (left column, right column).
    pub fn equi_join(self, right: PlanBuilder, pairs: &[(&str, &str)]) -> Self {
        let mut pred: Option<Expr> = None;
        for (l, r) in pairs {
            let p = Expr::col(*l).eq(Expr::col(*r));
            pred = Some(match pred {
                Some(prev) => prev.and(p),
                None => p,
            });
        }
        self.join(right, JoinKind::Inner, pred)
    }

    /// Bag union (`UNION ALL`).
    pub fn union_all(self, right: PlanBuilder) -> Self {
        PlanBuilder {
            plan: Plan::UnionAll {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
            },
        }
    }

    /// Set difference (`EXCEPT`).
    pub fn except(self, right: PlanBuilder) -> Self {
        PlanBuilder {
            plan: Plan::Except {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
            },
        }
    }

    /// Remove duplicates (`DISTINCT`).
    pub fn distinct(self) -> Self {
        PlanBuilder {
            plan: Plan::Distinct {
                input: Box::new(self.plan),
            },
        }
    }

    /// Rename all output columns (arity must match at execution time).
    pub fn rename(self, columns: Vec<&str>) -> Self {
        PlanBuilder {
            plan: Plan::Rename {
                input: Box::new(self.plan),
                columns: columns.into_iter().map(String::from).collect(),
            },
        }
    }

    /// Finish and return the plan.
    pub fn build(self) -> Plan {
        self.plan
    }
}

impl From<PlanBuilder> for Plan {
    fn from(b: PlanBuilder) -> Plan {
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_tree_shape() {
        let plan = PlanBuilder::scan("requests")
            .filter(Expr::col("operation").eq(Expr::lit("w")))
            .project(vec![Expr::col("ta")])
            .distinct()
            .build();
        let scan = Plan::Scan {
            relation: "requests".into(),
        };
        let select = Plan::Select {
            input: Box::new(scan),
            predicate: Expr::col("operation").eq(Expr::lit("w")),
        };
        let project = Plan::Project {
            input: Box::new(select),
            items: vec![ProjectItem::expr(Expr::col("ta"))],
        };
        let expected = Plan::Distinct {
            input: Box::new(project),
        };
        assert_eq!(plan, expected);
    }

    #[test]
    fn equi_join_builds_conjunction() {
        let plan = PlanBuilder::scan("a")
            .equi_join(PlanBuilder::scan("b"), &[("x", "bx"), ("y", "by")])
            .build();
        match plan {
            Plan::Join {
                on: Some(pred),
                kind: JoinKind::Inner,
                ..
            } => {
                let s = pred.to_string();
                assert!(s.contains("(x = bx)"));
                assert!(s.contains("(y = by)"));
                assert!(s.contains("AND"));
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn aggregate_and_rename_builders() {
        let plan = PlanBuilder::scan("requests")
            .project(vec![Expr::col("ta"), Expr::col("id")])
            .rename(vec!["ta", "count"])
            .build();
        assert!(matches!(
            plan,
            Plan::Rename { ref columns, .. } if columns == &["ta", "count"]
        ));
    }
}
