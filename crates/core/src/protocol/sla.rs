//! SLA-aware protocols: priority dispatch and earliest-deadline-first.
//!
//! The paper's second constraint class is service-level agreements —
//! "e.g. for premium vs. free customers in Web applications".  Both SLA
//! protocols keep SS2PL as their correctness rule and change only the
//! dispatch *ordering* — priority for class-based SLAs, deadline for
//! response-time SLAs — which demonstrates the separation the declarative
//! design gives between correctness rules and QoS policy.
//!
//! The SLA metadata is carried on the requests themselves (see
//! [`crate::request::SlaMeta`]) and also exposed to rules as the auxiliary
//! `sla(ta, class, priority, arrival_ms, deadline_ms)` relation so future
//! protocols can make *qualification* decisions on it too (e.g. admit only
//! premium traffic, as `schedlang::stdlib::PREMIUM_ONLY` does).
//!
//! Neither protocol has a plan of its own: [`super::Protocol::algebra`]
//! pairs SS2PL's plan with the ordering, and their SchedLang texts are
//! SS2PL's under `order by priority` / `order by deadline`.

#[cfg(test)]
mod tests {
    use super::super::tests::catalog;
    use super::super::{Protocol, ProtocolKind};
    use crate::request::{Request, SlaMeta};

    fn sla(priority: i64, deadline: u64) -> SlaMeta {
        SlaMeta {
            priority,
            class: if priority >= 3 { "premium" } else { "free" },
            arrival_ms: 0,
            deadline_ms: deadline,
        }
    }

    #[test]
    fn qualification_is_ss2pl_but_ordering_differs() {
        let premium = Request::read(10, 2, 0, 101).with_sla(sla(3, 500));
        let free = Request::read(5, 1, 0, 100).with_sla(sla(1, 100));
        let catalog = catalog(&[free, premium], &[]);

        let prio = Protocol::algebra(ProtocolKind::SlaPriority);
        let edf = Protocol::algebra(ProtocolKind::EarliestDeadline);
        // Both qualify the same set (no conflicts here).
        assert_eq!(
            prio.rules.qualify(&catalog).unwrap(),
            edf.rules.qualify(&catalog).unwrap()
        );

        // Priority ordering puts the premium request first even though its
        // id is larger …
        let mut batch = vec![free, premium];
        prio.rules.ordering.sort(&mut batch);
        assert_eq!(batch[0].id, 10);
        // … while EDF puts the tighter deadline (the free request) first.
        let mut batch = vec![premium, free];
        edf.rules.ordering.sort(&mut batch);
        assert_eq!(batch[0].id, 5);
    }

    #[test]
    fn both_protocols_advertise_qos() {
        let prio = Protocol::algebra(ProtocolKind::SlaPriority);
        let edf = Protocol::algebra(ProtocolKind::EarliestDeadline);
        assert!(prio.features.qos && edf.features.qos);
        assert_eq!(prio.name(), "sla-priority");
        assert_eq!(edf.name(), "edf");
    }
}
