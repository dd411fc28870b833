//! Scheduling protocols, each defined declaratively as a [`RuleSet`].
//!
//! The paper's goal is a scheduler that can express (a) traditional
//! consistency protocols such as variants of 2PL, (b) service-level
//! agreements, and (c) new application-specific consistency protocols — all
//! as declarative rules instead of hand-written scheduler code.  Every
//! protocol below is therefore *data*: a qualification rule plus an ordering
//! specification.  A built-in protocol's declared rule is its SchedLang text
//! (`schedlang::stdlib`, compiled to Datalog); this module keeps the
//! relational-algebra plan of each (the paper's SQL formulation, Listing 1
//! for SS2PL), and [`Protocol::builtin`] wraps either rule as the built-in
//! it states.  The only imperative code involved is the generic rule
//! evaluator and the hot path in [`crate::qualify`], which both forms are
//! checked against.

mod c2pl;
mod fcfs;
mod rationing;
mod relaxed;
mod sla;
mod ss2pl;

pub use rationing::{object_class_table, ObjectClass};

use crate::rules::{OrderingSpec, RuleBackend, RuleSet};
use std::fmt;

/// The protocols shipped with the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Strong strict two-phase locking — the paper's running example
    /// (Listing 1); guarantees serialisability.
    Ss2pl,
    /// Conservative 2PL: a transaction's requests qualify only when none of
    /// them conflicts, avoiding mid-transaction blocking.
    Conservative2pl,
    /// First-come-first-served without consistency checks (the relaxed
    /// baseline / passthrough-equivalent protocol).
    Fcfs,
    /// SS2PL qualification with SLA-priority dispatch ordering
    /// (premium before free customers).
    SlaPriority,
    /// SS2PL qualification with earliest-deadline-first dispatch ordering.
    EarliestDeadline,
    /// Reads always qualify (read-committed-style relaxation); writes follow
    /// the SS2PL write rules.
    RelaxedReads,
    /// Consistency rationing: objects classified `A` (critical) keep SS2PL,
    /// objects classified `C` (relaxed) always qualify.
    ConsistencyRationing,
    /// A user-defined protocol, e.g. one compiled from a SchedLang program
    /// or assembled directly from a [`RuleSet`].
    Custom,
}

impl ProtocolKind {
    /// Canonical protocol name used in output and configuration.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Ss2pl => "ss2pl",
            ProtocolKind::Conservative2pl => "c2pl",
            ProtocolKind::Fcfs => "fcfs",
            ProtocolKind::SlaPriority => "sla-priority",
            ProtocolKind::EarliestDeadline => "edf",
            ProtocolKind::RelaxedReads => "relaxed-reads",
            ProtocolKind::ConsistencyRationing => "rationing",
            ProtocolKind::Custom => "custom",
        }
    }

    /// All shipped protocol kinds.
    pub fn all() -> &'static [ProtocolKind] {
        &[
            ProtocolKind::Ss2pl,
            ProtocolKind::Conservative2pl,
            ProtocolKind::Fcfs,
            ProtocolKind::SlaPriority,
            ProtocolKind::EarliestDeadline,
            ProtocolKind::RelaxedReads,
            ProtocolKind::ConsistencyRationing,
        ]
    }
}

/// The qualitative feature axes of the paper's Table 1:
/// performance, quality of service, declarativity, flexibility,
/// high scalability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolFeatures {
    /// Improves/ensures performance (P).
    pub performance: bool,
    /// Supports quality-of-service differentiation (QoS).
    pub qos: bool,
    /// Protocol is defined declaratively (D).
    pub declarative: bool,
    /// Protocol can be exchanged without reimplementation (F).
    pub flexible: bool,
    /// Targets high user scalability (HS).
    pub high_scalability: bool,
}

impl ProtocolFeatures {
    /// Render as the `+`/`-` row format of the paper's Table 1.
    pub fn as_row(&self) -> String {
        let sym = |b: bool| if b { "+" } else { "-" };
        format!(
            "{} {} {} {} {}",
            sym(self.performance),
            sym(self.qos),
            sym(self.declarative),
            sym(self.flexible),
            sym(self.high_scalability)
        )
    }
}

/// A complete protocol: its identity, its declarative rule set and its
/// qualitative features.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// Which protocol this is.
    pub kind: ProtocolKind,
    /// The declarative definition.
    pub rules: RuleSet,
    /// Feature axes for the Table 1 reproduction.
    pub features: ProtocolFeatures,
    /// One-line human description.
    pub description: &'static str,
}

impl Protocol {
    /// Wrap `rules` as the built-in protocol `kind`: the rule set is renamed
    /// to `kind`'s canonical name and keeps its own ordering; the features
    /// and the description are `kind`'s.  [`Protocol::algebra`] passes the
    /// kind's relational-algebra plan, `schedlang::stdlib::protocol` its
    /// compiled SchedLang text.  A scheduler answers either on the hot path
    /// of [`crate::qualify`] when incremental qualification is on.
    ///
    /// # Panics
    /// Panics if `kind` is [`ProtocolKind::Custom`] — custom protocols are
    /// built with [`Protocol::custom`] instead.
    pub fn builtin(kind: ProtocolKind, mut rules: RuleSet) -> Protocol {
        let (qos, description) = match kind {
            ProtocolKind::Ss2pl => (
                false,
                "Strong strict 2PL: serialisable schedules via declarative lock rules (paper Listing 1)",
            ),
            ProtocolKind::Conservative2pl => (
                false,
                "Conservative 2PL: a transaction is admitted only when all of its pending requests are conflict-free",
            ),
            ProtocolKind::Fcfs => (
                false,
                "First-come-first-served: no consistency checks, arrival-order dispatch",
            ),
            ProtocolKind::SlaPriority => (
                true,
                "SS2PL correctness with premium-before-free dispatch ordering (class-based SLA)",
            ),
            ProtocolKind::EarliestDeadline => (
                true,
                "SS2PL correctness with earliest-deadline-first dispatch ordering (response-time SLA)",
            ),
            ProtocolKind::RelaxedReads => (
                false,
                "Relaxed reads: reads never wait, writes keep write-write exclusion (read-committed-style)",
            ),
            ProtocolKind::ConsistencyRationing => (
                true,
                "Consistency rationing: SS2PL for category-A objects, relaxed admission for category-C objects",
            ),
            ProtocolKind::Custom => {
                panic!("custom protocols are built with Protocol::custom(rule_set)")
            }
        };
        rules.name = kind.name().to_string();
        Protocol {
            kind,
            rules,
            features: ProtocolFeatures {
                performance: true,
                qos,
                declarative: true,
                flexible: true,
                high_scalability: true,
            },
            description,
        }
    }

    /// Wrap a user-defined rule set (e.g. compiled from SchedLang) as a
    /// protocol.  Custom protocols advertise the full feature set of the
    /// declarative approach: they are by construction declarative and
    /// exchangeable.
    pub fn custom(rules: RuleSet, description: &'static str) -> Protocol {
        Protocol {
            kind: ProtocolKind::Custom,
            rules,
            features: ProtocolFeatures {
                performance: true,
                qos: true,
                declarative: true,
                flexible: true,
                high_scalability: true,
            },
            description,
        }
    }

    /// The built-in protocol `kind` on its relational-algebra plan.
    ///
    /// # Panics
    /// Panics if `kind` is [`ProtocolKind::Custom`].
    pub fn algebra(kind: ProtocolKind) -> Protocol {
        let (plan, ordering) = match kind {
            ProtocolKind::Ss2pl => (ss2pl::ss2pl_algebra_plan(), OrderingSpec::FifoById),
            ProtocolKind::Conservative2pl => {
                (c2pl::c2pl_algebra_plan(), OrderingSpec::ByTransaction)
            }
            ProtocolKind::Fcfs => (fcfs::fcfs_algebra_plan(), OrderingSpec::FifoById),
            ProtocolKind::SlaPriority => {
                (ss2pl::ss2pl_algebra_plan(), OrderingSpec::PriorityThenId)
            }
            ProtocolKind::EarliestDeadline => {
                (ss2pl::ss2pl_algebra_plan(), OrderingSpec::DeadlineThenId)
            }
            ProtocolKind::RelaxedReads => (relaxed::relaxed_algebra_plan(), OrderingSpec::FifoById),
            ProtocolKind::ConsistencyRationing => {
                (rationing::rationing_algebra_plan(), OrderingSpec::FifoById)
            }
            ProtocolKind::Custom => {
                panic!("custom protocols are built with Protocol::custom(rule_set)")
            }
        };
        let rules = RuleSet::new(kind.name(), RuleBackend::Algebra { plan }, ordering);
        Protocol::builtin(kind, rules)
    }

    /// The protocol's name: the rule set's name, which for built-in
    /// protocols equals the kind's canonical name.
    pub fn name(&self) -> &str {
        &self.rules.name
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name(), self.rules.backend.label())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::request::Request;
    use relalg::{Catalog, Table};

    /// A catalog holding `pending` as `requests` and `history` as
    /// `history`.
    pub(crate) fn catalog(pending: &[Request], history: &[Request]) -> Catalog {
        let mut c = Catalog::new();
        for (name, rows) in [("requests", pending), ("history", history)] {
            let mut table = Table::new(name, Request::schema());
            for r in rows {
                table.push(r.to_tuple()).unwrap();
            }
            c.register(table);
        }
        c
    }

    #[test]
    fn feature_rows_render_like_table_1() {
        let p = Protocol::algebra(ProtocolKind::Ss2pl);
        let row = p.features.as_row();
        assert_eq!(row.split_whitespace().count(), 5);
        assert!(row.contains('+'));
        let qos = Protocol::algebra(ProtocolKind::SlaPriority);
        assert!(qos.features.qos);
        assert!(!Protocol::algebra(ProtocolKind::Fcfs).features.qos);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ProtocolKind::all().iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ProtocolKind::all().len());
    }

    #[test]
    fn display_mentions_backend() {
        let p = Protocol::algebra(ProtocolKind::Ss2pl);
        assert_eq!(p.to_string(), "ss2pl (algebra)");
        let program = datalog::parse_program(r#"qualified(T, I) :- requests(Id, T, I, "w", O)."#)
            .expect("program parses");
        let rules = RuleSet::new(
            "writes",
            RuleBackend::Datalog {
                program,
                output: "qualified".into(),
            },
            OrderingSpec::FifoById,
        );
        let p = Protocol::custom(rules, "admits writes only");
        assert_eq!(p.to_string(), "writes (datalog)");
    }
}
