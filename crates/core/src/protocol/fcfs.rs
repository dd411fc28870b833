//! First-come-first-served: every pending request qualifies.
//!
//! This protocol performs no consistency checking at all — it is the
//! declarative equivalent of the non-scheduling passthrough mode and the
//! lower bound of rule-evaluation cost among the protocols.  It is also
//! the building block the relaxed-consistency protocols start from: "for
//! most parts of modern highly scalable web applications … relaxed
//! consistency is sufficient."

use super::{Backend, Protocol, ProtocolFeatures, ProtocolKind};
use crate::rules::{OrderingSpec, RuleBackend, RuleSet};
use relalg::{Expr, Plan, PlanBuilder};

/// The FCFS qualification plan: all pending `(ta, intrata)` pairs.
pub fn fcfs_algebra_plan() -> Plan {
    PlanBuilder::scan("requests")
        .project(vec![Expr::col("ta"), Expr::col("intrata")])
        .build()
}

/// The Datalog source of the FCFS protocol — a single rule.
pub const FCFS_DATALOG_SOURCE: &str = "qualified(T, I) :- requests(Id, T, I, Op, O).\n";

/// Build the FCFS protocol on the requested back-end.
pub(crate) fn build(backend: Backend) -> Protocol {
    let rule_backend = match backend {
        Backend::Algebra => RuleBackend::Algebra {
            plan: fcfs_algebra_plan(),
        },
        Backend::Datalog => RuleBackend::Datalog {
            program: datalog::parse_program(FCFS_DATALOG_SOURCE)
                .expect("embedded FCFS program parses"),
            output: "qualified".to_string(),
        },
    };
    Protocol {
        kind: ProtocolKind::Fcfs,
        rules: RuleSet::new(
            ProtocolKind::Fcfs.name(),
            rule_backend,
            OrderingSpec::FifoById,
        ),
        features: ProtocolFeatures {
            performance: true,
            qos: false,
            declarative: true,
            flexible: true,
            high_scalability: true,
        },
        description: "First-come-first-served: no consistency checks, arrival-order dispatch",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use relalg::{Catalog, Table};

    #[test]
    fn everything_qualifies_on_both_backends() {
        let mut c = Catalog::new();
        let mut requests = Table::new("requests", Request::schema());
        let pending = [
            Request::write(1, 1, 0, 5),
            Request::write(2, 2, 0, 5), // conflicting object — FCFS does not care
            Request::commit(3, 3, 0),
        ];
        for r in &pending {
            requests.push(r.to_tuple()).unwrap();
        }
        c.register(requests);
        c.register(Table::new("history", Request::schema()));

        for backend in [Backend::Algebra, Backend::Datalog] {
            let qualified = build(backend).rules.qualify(&c).unwrap();
            assert_eq!(qualified.len(), 3);
        }
    }
}
