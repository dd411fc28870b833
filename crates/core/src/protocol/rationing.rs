//! Consistency rationing: per-object consistency classes.
//!
//! Following Kraska et al.'s Consistency Rationing (cited by the paper as
//! related work the declarative approach generalises), database objects are
//! classified into an **A** category (critical data — e.g. account balances,
//! stock counters) that keeps full SS2PL treatment and a **C** category
//! (relaxed data — e.g. product descriptions, preferences) whose requests
//! always qualify.  The classification lives in an auxiliary relation
//! `object_class(object, class)` that the rule joins against — changing
//! which data is critical is a data change, not a code change.

use super::ss2pl::blocked_keys_plan;
use relalg::{DataType, Expr, Field, JoinKind, Plan, PlanBuilder, Schema, Table, Value};

/// Consistency category of an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectClass {
    /// Category A: serialisability required (SS2PL rules apply).
    Critical,
    /// Category C: relaxed consistency is acceptable (always qualifies).
    Relaxed,
}

impl ObjectClass {
    /// The class code stored in the `object_class` relation.
    pub fn code(self) -> &'static str {
        match self {
            ObjectClass::Critical => "a",
            ObjectClass::Relaxed => "c",
        }
    }
}

/// Schema of the auxiliary `object_class` relation.
pub fn object_class_schema() -> Schema {
    Schema::new(vec![
        Field::new("obj", DataType::Int),
        Field::new("class", DataType::Str),
    ])
}

/// Build the `object_class` relation from an explicit classification.
/// Objects not listed are treated as critical by the scheduler's catalog
/// preparation (missing rows never join, and the rule falls back to the
/// SS2PL branch via the anti-join).
pub fn object_class_table(classes: &[(i64, ObjectClass)]) -> Table {
    let mut table = Table::new("object_class", object_class_schema());
    for (object, class) in classes {
        table
            .push(relalg::Tuple::new(vec![
                Value::Int(*object),
                Value::str(class.code()),
            ]))
            .expect("object_class rows always match their schema");
    }
    table
}

/// The consistency-rationing qualification plan.
pub fn rationing_algebra_plan() -> Plan {
    // Requests on relaxed (category C) objects always qualify.
    let relaxed_objects = PlanBuilder::scan("object_class")
        .filter(Expr::col("class").eq(Expr::lit("c")))
        .project(vec![Expr::col("obj")])
        .rename(vec!["relaxed_obj"]);
    let on_relaxed = PlanBuilder::scan("requests")
        .join(
            relaxed_objects.clone(),
            JoinKind::Semi,
            Some(Expr::col("object").eq(Expr::col("relaxed_obj"))),
        )
        .project(vec![Expr::col("ta"), Expr::col("intrata")]);

    // Everything else (critical objects and terminators) follows SS2PL.
    let on_critical = PlanBuilder::scan("requests")
        .join(
            relaxed_objects,
            JoinKind::Anti,
            Some(Expr::col("object").eq(Expr::col("relaxed_obj"))),
        )
        .project(vec![Expr::col("ta"), Expr::col("intrata")])
        .except(blocked_keys_plan());

    on_relaxed.union_all(on_critical).distinct().build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_class_table_builds() {
        let t = object_class_table(&[(1, ObjectClass::Critical), (2, ObjectClass::Relaxed)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(), "object_class");
        assert_eq!(ObjectClass::Critical.code(), "a");
    }
}
