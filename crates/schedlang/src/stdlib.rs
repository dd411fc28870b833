//! The built-in protocols, written in SchedLang.
//!
//! Each text here is the declared rule of one `declsched` built-in: its
//! Datalog form is the compiled text, [`protocol`] wraps it as that
//! built-in, and `declsched`'s relational-algebra plans and hot-path
//! qualifier are checked against it.  The texts are also the conciseness
//! evidence the paper's evaluation plan calls for: compare their line counts
//! with an imperative lock manager.

use crate::compile::compile;
use crate::parser::parse;
use declsched::{Protocol, ProtocolKind};

/// Strong strict 2PL, as a SchedLang program (the paper's Listing 1 in the
/// specialised language).
pub const SS2PL: &str = r#"
protocol ss2pl {
    order by arrival;

    define finished(T)   when history(_, T, _, "c", _);
    define finished(T)   when history(_, T, _, "a", _);
    define wrote(T, O)   when history(_, T, _, "w", O);
    define wlocked(O, T) when history(_, T, _, "w", O), not finished(T);
    define rlocked(O, T) when history(_, T, _, "r", O), not finished(T), not wrote(T, O);

    # A request must wait if its object is locked by another transaction …
    block when wlocked(obj, T2), T2 != ta;
    block when op = "w", rlocked(obj, T2), T2 != ta;
    # … or if an earlier pending request conflicts with it.
    block when requests(_, T1, _, "w", obj), T1 < ta;
    block when op = "w", requests(_, T1, _, _Op1, obj), T1 < ta;

    admit otherwise;
}
"#;

/// Conservative 2PL: one request that would wait under SS2PL holds back
/// every request of its transaction, so a transaction never blocks midway.
pub const C2PL: &str = r#"
protocol c2pl {
    order by transaction;

    define finished(T)   when history(_, T, _, "c", _);
    define finished(T)   when history(_, T, _, "a", _);
    define wrote(T, O)   when history(_, T, _, "w", O);
    define wlocked(O, T) when history(_, T, _, "w", O), not finished(T);
    define rlocked(O, T) when history(_, T, _, "r", O), not finished(T), not wrote(T, O);

    # A transaction waits if any of its requests would wait under SS2PL …
    define waits(T) when requests(_, T, _, _, O), wlocked(O, T2), T2 != T;
    define waits(T) when requests(_, T, _, "w", O), rlocked(O, T2), T2 != T;
    define waits(T) when requests(_, T, _, _, O), requests(_, T1, _, "w", O), T1 < T;
    define waits(T) when requests(_, T, _, "w", O), requests(_, T1, _, _, O), T1 < T;
    # … and then none of them runs.
    block when waits(ta);

    admit otherwise;
}
"#;

/// First-come-first-served: no consistency checks, arrival order.
pub const FCFS: &str = r#"
protocol fcfs {
    order by arrival;
    admit otherwise;
}
"#;

/// SS2PL correctness, premium-before-free dispatch (class-based SLA).
pub const SLA_PRIORITY: &str = r#"
protocol sla_priority {
    order by priority;

    define finished(T)   when history(_, T, _, "c", _);
    define finished(T)   when history(_, T, _, "a", _);
    define wrote(T, O)   when history(_, T, _, "w", O);
    define wlocked(O, T) when history(_, T, _, "w", O), not finished(T);
    define rlocked(O, T) when history(_, T, _, "r", O), not finished(T), not wrote(T, O);

    block when wlocked(obj, T2), T2 != ta;
    block when op = "w", rlocked(obj, T2), T2 != ta;
    block when requests(_, T1, _, "w", obj), T1 < ta;
    block when op = "w", requests(_, T1, _, _Op1, obj), T1 < ta;

    admit otherwise;
}
"#;

/// SS2PL correctness, earliest-deadline-first dispatch (response-time SLA).
pub const EDF: &str = r#"
protocol edf {
    order by deadline;

    define finished(T)   when history(_, T, _, "c", _);
    define finished(T)   when history(_, T, _, "a", _);
    define wrote(T, O)   when history(_, T, _, "w", O);
    define wlocked(O, T) when history(_, T, _, "w", O), not finished(T);
    define rlocked(O, T) when history(_, T, _, "r", O), not finished(T), not wrote(T, O);

    block when wlocked(obj, T2), T2 != ta;
    block when op = "w", rlocked(obj, T2), T2 != ta;
    block when requests(_, T1, _, "w", obj), T1 < ta;
    block when op = "w", requests(_, T1, _, _Op1, obj), T1 < ta;

    admit otherwise;
}
"#;

/// Relaxed reads (read-committed-style) in SchedLang.
pub const RELAXED_READS: &str = r#"
protocol relaxed_reads {
    order by arrival;

    define finished(T)   when history(_, T, _, "c", _);
    define finished(T)   when history(_, T, _, "a", _);
    define wlocked(O, T) when history(_, T, _, "w", O), not finished(T);

    admit when op = "r";
    admit when op = "c";
    admit when op = "a";

    block when op = "w", wlocked(obj, T2), T2 != ta;
    block when op = "w", requests(_, T1, _, "w", obj), T1 < ta;

    admit otherwise;
}
"#;

/// Consistency rationing: requests on category-C objects (the auxiliary
/// `object_class(obj, class)` relation) never wait; everything else keeps
/// SS2PL.
pub const RATIONING: &str = r#"
protocol rationing {
    order by arrival;

    define finished(T)   when history(_, T, _, "c", _);
    define finished(T)   when history(_, T, _, "a", _);
    define wrote(T, O)   when history(_, T, _, "w", O);
    define wlocked(O, T) when history(_, T, _, "w", O), not finished(T);
    define rlocked(O, T) when history(_, T, _, "r", O), not finished(T), not wrote(T, O);

    # Category C objects never wait …
    admit when object_class(obj, "c");
    # … everything else follows SS2PL.
    block when wlocked(obj, T2), T2 != ta;
    block when op = "w", rlocked(obj, T2), T2 != ta;
    block when requests(_, T1, _, "w", obj), T1 < ta;
    block when op = "w", requests(_, T1, _, _Op1, obj), T1 < ta;

    admit otherwise;
}
"#;

/// Premium-only admission: only transactions whose `sla` row has class
/// `premium` qualify, dispatched earliest deadline first.  Not a built-in;
/// an example of a rule that qualifies on the `sla` relation.
pub const PREMIUM_ONLY: &str = r#"
protocol premium_only {
    order by deadline;
    admit when sla(ta, "premium", _P, _A, _D);
}
"#;

/// The SchedLang text of built-in protocol `kind`.
///
/// # Panics
/// Panics if `kind` is [`ProtocolKind::Custom`], which has no text.
pub fn source(kind: ProtocolKind) -> &'static str {
    match kind {
        ProtocolKind::Ss2pl => SS2PL,
        ProtocolKind::Conservative2pl => C2PL,
        ProtocolKind::Fcfs => FCFS,
        ProtocolKind::SlaPriority => SLA_PRIORITY,
        ProtocolKind::EarliestDeadline => EDF,
        ProtocolKind::RelaxedReads => RELAXED_READS,
        ProtocolKind::ConsistencyRationing => RATIONING,
        ProtocolKind::Custom => panic!("custom protocols have no standard-library text"),
    }
}

/// Built-in protocol `kind` on its declared rule: [`source`]`(kind)`
/// compiled to Datalog and wrapped by [`Protocol::builtin`], so it has
/// `kind`'s name, features and description.  A scheduler answers it on
/// the hot path, exactly like [`Protocol::algebra`]`(kind)`.
///
/// # Panics
/// Panics if `kind` is [`ProtocolKind::Custom`].
pub fn protocol(kind: ProtocolKind) -> Protocol {
    let def = parse(source(kind)).expect("standard-library text parses");
    let rules = compile(&def).expect("standard-library text compiles");
    Protocol::builtin(kind, rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_protocol;

    #[test]
    fn every_stdlib_protocol_compiles() {
        for &kind in ProtocolKind::all() {
            let p = compile_protocol(source(kind))
                .unwrap_or_else(|e| panic!("stdlib text of {kind:?} failed to compile: {e}"));
            assert_eq!(p.name(), kind.name().replace('-', "_"));
        }
        let p = compile_protocol(PREMIUM_ONLY).expect("premium_only compiles");
        assert_eq!(p.name(), "premium_only");
    }

    #[test]
    fn stdlib_protocols_are_succinct() {
        // The conciseness claim: each protocol fits in a couple of dozen
        // non-empty, non-comment lines.
        let texts = ProtocolKind::all().iter().map(|&kind| source(kind));
        for src in texts.chain([PREMIUM_ONLY]) {
            let lines = src
                .lines()
                .filter(|l| !l.trim().is_empty() && !l.trim().starts_with('#'))
                .count();
            assert!(lines <= 25, "protocol unexpectedly long: {lines} lines");
        }
    }

    #[test]
    fn each_text_is_its_builtin() {
        for &kind in ProtocolKind::all() {
            let text = protocol(kind);
            let plan = Protocol::algebra(kind);
            assert_eq!(text.kind, kind);
            assert_eq!(text.name(), kind.name());
            assert_eq!(text.rules.ordering, plan.rules.ordering, "{kind:?}");
            assert_eq!(text.features, plan.features, "{kind:?}");
            assert_eq!(text.description, plan.description, "{kind:?}");
            assert_eq!(text.rules.backend.label(), "datalog");
            // Declarativity and flexibility are the point of the system:
            // every built-in carries them.
            assert!(text.features.declarative && text.features.flexible);
            assert!(!text.description.is_empty());
        }
    }
}
