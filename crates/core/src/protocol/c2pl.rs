//! Conservative two-phase locking, declaratively.
//!
//! Under conservative (static) 2PL a transaction only proceeds when *all* of
//! its pending requests are conflict-free — it never blocks mid-transaction,
//! which rules out deadlocks at the cost of admitting fewer requests per
//! round.  Declaratively this is a one-line change over SS2PL: instead of
//! excluding blocked *requests*, exclude every request of a *transaction*
//! that has at least one blocked request.  The ease of this change is
//! precisely the flexibility argument of the paper.

use super::ss2pl::blocked_keys_plan;
use relalg::{Expr, JoinKind, Plan, PlanBuilder};

/// The conservative-2PL qualification plan: pending `(ta, intrata)` pairs of
/// transactions none of whose requests is blocked.
pub fn c2pl_algebra_plan() -> Plan {
    let blocked_tas = blocked_keys_plan()
        .project(vec![Expr::col("ta")])
        .distinct()
        .rename(vec!["blocked_ta"]);
    PlanBuilder::scan("requests")
        .join(
            blocked_tas,
            JoinKind::Anti,
            Some(Expr::col("ta").eq(Expr::col("blocked_ta"))),
        )
        .project(vec![Expr::col("ta"), Expr::col("intrata")])
        .build()
}

#[cfg(test)]
mod tests {
    use super::super::tests::catalog;
    use super::super::{Protocol, ProtocolKind};
    use crate::request::Request;
    use std::collections::BTreeSet;

    #[test]
    fn c2pl_admits_a_subset_of_ss2pl() {
        let history = [Request::write(1, 30, 0, 9)];
        let pending = [
            Request::read(2, 31, 0, 9),
            Request::read(3, 31, 1, 10),
            Request::write(4, 32, 0, 11),
        ];
        let c = catalog(&pending, &history);
        let qualify = |kind| -> BTreeSet<_> {
            let keys = Protocol::algebra(kind).rules.qualify(&c).unwrap();
            keys.into_iter().collect()
        };
        let c2pl = qualify(ProtocolKind::Conservative2pl);
        let ss2pl = qualify(ProtocolKind::Ss2pl);
        assert!(c2pl.is_subset(&ss2pl));
        assert!(c2pl.len() < ss2pl.len());
    }
}
