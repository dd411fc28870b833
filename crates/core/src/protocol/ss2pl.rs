//! Strong strict two-phase locking (SS2PL), formulated declaratively.
//!
//! This is the paper's running example (Section 4, Listing 1).  The SQL of
//! Listing 1 maps onto the relational-algebra plan built by
//! [`ss2pl_algebra_plan`] CTE by CTE:
//!
//! | Listing 1 CTE | here |
//! |---|---|
//! | `RLockedObjects` | [`rlocked_objects_plan`] |
//! | `WLockedObjects` | [`wlocked_objects_plan`] |
//! | `OperationsOnWLockedObjects` | first branch of [`blocked_keys_plan`] |
//! | `OperationsOnRLockedObjects` | second branch of [`blocked_keys_plan`] |
//! | `OpsOnSameObjAsPriorSelectOps` | third branch of [`blocked_keys_plan`] |
//! | `QualifiedSS2PLOps` | the final `EXCEPT` in [`ss2pl_algebra_plan`] |
//!
//! The declared rule is the SchedLang text `schedlang::stdlib::SS2PL`,
//! which derives the same relations as predicates; the text, this plan and
//! the hot path of [`crate::qualify`] must qualify exactly the same requests
//! (checked by the integration and property tests).
//!
//! Like the paper, the rule assumes each transaction accesses an object at
//! most once per pending batch ("we assume that each transaction accesses an
//! object only once").

use relalg::{Expr, JoinKind, Plan, PlanBuilder, Value};

/// Column names of the history relation after renaming for joins.
pub(crate) const H_COLS: [&str; 5] = ["h_id", "h_ta", "h_intrata", "h_operation", "h_object"];

/// A scan of the `history` relation with its columns renamed so joins with
/// `requests` stay unambiguous.
pub(crate) fn history_renamed() -> PlanBuilder {
    PlanBuilder::scan("history").rename(H_COLS.to_vec())
}

/// `WLockedObjects`: objects write-locked by transactions that have neither
/// committed nor aborted.  Output columns: `(h_object, h_ta)`.
pub(crate) fn wlocked_objects_plan() -> PlanBuilder {
    let finished = PlanBuilder::scan("history")
        .filter(Expr::col("operation").in_list(vec![Value::str("a"), Value::str("c")]))
        .project(vec![Expr::col("ta")])
        .rename(vec!["f_ta"]);
    history_renamed()
        .filter(Expr::col("h_operation").eq(Expr::lit("w")))
        .join(
            finished,
            JoinKind::Anti,
            Some(Expr::col("h_ta").eq(Expr::col("f_ta"))),
        )
        .project(vec![Expr::col("h_object"), Expr::col("h_ta")])
        .distinct()
}

/// `RLockedObjects`: objects read-locked by transactions that have not
/// finished and have not also written the same object.  Output columns:
/// `(h_object, h_ta)`.
///
/// Listing 1 expresses this with a single `NOT EXISTS` whose predicate is a
/// disjunction; here the disjunction is split into two separate anti-joins
/// (one per disjunct), which is semantically identical but lets the executor
/// use hash joins instead of a nested loop — the kind of rewrite the paper
/// expects the query optimiser to perform on the scheduler's behalf.
pub(crate) fn rlocked_objects_plan() -> PlanBuilder {
    let finished = PlanBuilder::scan("history")
        .filter(Expr::col("operation").in_list(vec![Value::str("a"), Value::str("c")]))
        .project(vec![Expr::col("ta")])
        .rename(vec!["f_ta"]);
    let writes = PlanBuilder::scan("history")
        .filter(Expr::col("operation").eq(Expr::lit("w")))
        .project(vec![Expr::col("ta"), Expr::col("object")])
        .rename(vec!["w_ta", "w_object"]);
    history_renamed()
        .filter(Expr::col("h_operation").eq(Expr::lit("r")))
        .join(
            finished,
            JoinKind::Anti,
            Some(Expr::col("h_ta").eq(Expr::col("f_ta"))),
        )
        .join(
            writes,
            JoinKind::Anti,
            Some(
                Expr::col("h_ta")
                    .eq(Expr::col("w_ta"))
                    .and(Expr::col("h_object").eq(Expr::col("w_object"))),
            ),
        )
        .project(vec![Expr::col("h_object"), Expr::col("h_ta")])
        .distinct()
}

/// The union of the three exclusion sets of Listing 1, projected to
/// `(ta, intrata)` of the pending requests that may **not** run yet.
pub(crate) fn blocked_keys_plan() -> PlanBuilder {
    // Pending requests touching an object write-locked by another txn.
    let on_wlocked = PlanBuilder::scan("requests")
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

    // Pending *write* requests touching an object read-locked by another txn.
    let on_rlocked = PlanBuilder::scan("requests")
        .filter(Expr::col("operation").eq(Expr::lit("w")))
        .join(
            rlocked_objects_plan().rename(vec!["lock_object", "lock_ta"]),
            JoinKind::Inner,
            Some(
                Expr::col("object")
                    .eq(Expr::col("lock_object"))
                    .and(Expr::col("ta").neq(Expr::col("lock_ta"))),
            ),
        )
        .project(vec![Expr::col("ta"), Expr::col("intrata")]);

    // Conflicts inside the pending batch itself: a request loses against an
    // earlier (lower TA) pending request on the same object when either of
    // the two is a write.
    let prior = PlanBuilder::scan("requests").rename(vec![
        "p_id",
        "p_ta",
        "p_intrata",
        "p_operation",
        "p_object",
    ]);
    let on_prior = PlanBuilder::scan("requests")
        .join(
            prior,
            JoinKind::Inner,
            Some(
                Expr::col("object")
                    .eq(Expr::col("p_object"))
                    .and(Expr::col("ta").gt(Expr::col("p_ta")))
                    .and(
                        Expr::col("p_operation")
                            .eq(Expr::lit("w"))
                            .or(Expr::col("operation").eq(Expr::lit("w"))),
                    ),
            ),
        )
        .project(vec![Expr::col("ta"), Expr::col("intrata")]);

    on_wlocked.union_all(on_rlocked).union_all(on_prior)
}

/// The full SS2PL qualification plan: all pending `(ta, intrata)` pairs
/// except the blocked ones (Listing 1's `QualifiedSS2PLOps`).
pub fn ss2pl_algebra_plan() -> Plan {
    PlanBuilder::scan("requests")
        .project(vec![Expr::col("ta"), Expr::col("intrata")])
        .except(blocked_keys_plan())
        .build()
}

#[cfg(test)]
mod tests {
    use super::super::tests::catalog;
    use super::super::{Protocol, ProtocolKind};
    use crate::request::Request;

    #[test]
    fn qualified_count_is_roughly_half_under_pairwise_conflicts() {
        // Mirror the paper's observation that the rule returns roughly half
        // of the pending requests when every object is contended by two
        // transactions.
        let mut pending = Vec::new();
        for i in 0..50u64 {
            // Two transactions per object; the lower TA wins.
            pending.push(Request::write(2 * i, 100 + 2 * i, 0, i as i64));
            pending.push(Request::write(2 * i + 1, 100 + 2 * i + 1, 0, i as i64));
        }
        let qualified = Protocol::algebra(ProtocolKind::Ss2pl)
            .rules
            .qualify(&catalog(&pending, &[]))
            .unwrap();
        assert_eq!(qualified.len(), 50);
    }

    #[test]
    fn datalog_source_is_printable_and_compact() {
        // The declarative definition the paper argues for: a handful of rules.
        let def = schedlang::parse(schedlang::stdlib::SS2PL).expect("SS2PL text parses");
        let program = schedlang::compile_datalog(&def).expect("SS2PL text compiles");
        assert!(
            program.rules.len() <= 12,
            "SS2PL should stay compact, got {} rules",
            program.rules.len()
        );
        // And its Datalog form prints, one rule a line.
        let source = program.to_string();
        assert_eq!(source.lines().count(), program.rules.len());
        assert!(source.lines().all(|rule| rule.contains(":-")), "{source}");
    }
}
