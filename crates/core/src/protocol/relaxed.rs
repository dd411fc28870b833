//! Relaxed reads: a read-committed-style application-specific consistency
//! protocol.
//!
//! Reads (and transaction terminators) always qualify — they never wait for
//! locks — while writes still follow the SS2PL write-write rules.  This is
//! the kind of "application specific consistency protocol" the paper wants
//! to make declarable: for a hotel-reservation or web-shop read path, stale
//! reads are acceptable, but lost updates are not.

use super::ss2pl::wlocked_objects_plan;
use relalg::{Expr, JoinKind, Plan, PlanBuilder, Value};

/// The relaxed-reads qualification plan.
pub fn relaxed_algebra_plan() -> Plan {
    // Reads, commits and aborts always qualify.
    let non_writes = PlanBuilder::scan("requests")
        .filter(Expr::col("operation").in_list(vec![
            Value::str("r"),
            Value::str("c"),
            Value::str("a"),
        ]))
        .project(vec![Expr::col("ta"), Expr::col("intrata")]);

    // Writes blocked by a write lock held by another transaction …
    let writes_on_wlocked = PlanBuilder::scan("requests")
        .filter(Expr::col("operation").eq(Expr::lit("w")))
        .join(
            wlocked_objects_plan().rename(vec!["lock_object", "lock_ta"]),
            JoinKind::Inner,
            Some(
                Expr::col("object")
                    .eq(Expr::col("lock_object"))
                    .and(Expr::col("ta").neq(Expr::col("lock_ta"))),
            ),
        )
        .project(vec![Expr::col("ta"), Expr::col("intrata")]);

    // … or by an earlier pending write on the same object.
    let prior_writes = PlanBuilder::scan("requests").rename(vec![
        "p_id",
        "p_ta",
        "p_intrata",
        "p_operation",
        "p_object",
    ]);
    let writes_on_prior = PlanBuilder::scan("requests")
        .filter(Expr::col("operation").eq(Expr::lit("w")))
        .join(
            prior_writes,
            JoinKind::Inner,
            Some(
                Expr::col("object")
                    .eq(Expr::col("p_object"))
                    .and(Expr::col("ta").gt(Expr::col("p_ta")))
                    .and(Expr::col("p_operation").eq(Expr::lit("w"))),
            ),
        )
        .project(vec![Expr::col("ta"), Expr::col("intrata")]);

    let free_writes = PlanBuilder::scan("requests")
        .filter(Expr::col("operation").eq(Expr::lit("w")))
        .project(vec![Expr::col("ta"), Expr::col("intrata")])
        .except(writes_on_wlocked.union_all(writes_on_prior));

    non_writes.union_all(free_writes).distinct().build()
}

#[cfg(test)]
mod tests {
    use super::super::tests::catalog;
    use super::super::{Protocol, ProtocolKind};
    use crate::request::Request;
    use std::collections::BTreeSet;

    #[test]
    fn relaxed_admits_a_superset_of_ss2pl() {
        let history = [Request::write(1, 30, 0, 7), Request::read(2, 31, 0, 8)];
        let pending = [
            Request::read(3, 32, 0, 7),
            Request::write(4, 33, 0, 8),
            Request::write(5, 34, 0, 9),
        ];
        let c = catalog(&pending, &history);
        let qualify = |kind| -> BTreeSet<_> {
            let keys = Protocol::algebra(kind).rules.qualify(&c).unwrap();
            keys.into_iter().collect()
        };
        let relaxed = qualify(ProtocolKind::RelaxedReads);
        let strict = qualify(ProtocolKind::Ss2pl);
        assert!(strict.is_subset(&relaxed));
        assert!(relaxed.len() > strict.len());
    }
}
