//! First-come-first-served: every pending request qualifies.
//!
//! This protocol performs no consistency checking at all — it is the
//! declarative equivalent of the non-scheduling passthrough mode and the
//! lower bound of rule-evaluation cost among the protocols.  It is also
//! the building block the relaxed-consistency protocols start from: "for
//! most parts of modern highly scalable web applications … relaxed
//! consistency is sufficient."

use relalg::{Expr, Plan, PlanBuilder};

/// The FCFS qualification plan: all pending `(ta, intrata)` pairs.
pub fn fcfs_algebra_plan() -> Plan {
    PlanBuilder::scan("requests")
        .project(vec![Expr::col("ta"), Expr::col("intrata")])
        .build()
}
