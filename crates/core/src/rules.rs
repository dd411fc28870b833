//! Declarative rule sets: the heart of the paper's proposal.
//!
//! A scheduling protocol is not code — it is a [`RuleSet`]: a declarative
//! qualification rule (which pending requests may execute now, given the
//! history) plus an [`OrderingSpec`] (in which order the qualified requests
//! are dispatched).  Two rule back-ends are supported, answering the paper's
//! first research question ("to what extent can existing query languages be
//! used"):
//!
//! * [`RuleBackend::Algebra`] — a `relalg` plan, the direct analogue of the
//!   paper's SQL formulation (Listing 1),
//! * [`RuleBackend::Datalog`] — a stratified Datalog program whose designated
//!   output predicate lists the qualified `(ta, intrata)` pairs.
//!
//! Each built-in protocol exists in both: its plan
//! ([`crate::Protocol::algebra`]) and its declared SchedLang text compiled
//! to Datalog (`schedlang::stdlib::protocol`).  The two, and the hot path of
//! [`crate::qualify`], must produce the same qualified sets for the same
//! input — an invariant the integration tests check protocol by protocol.

use crate::error::{SchedError, SchedResult};
use crate::request::{Request, RequestKey};
use datalog::{Database, Program};
use relalg::{Catalog, Plan};
use std::fmt;

/// How qualified requests are ordered before dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingSpec {
    /// By ascending request id — arrival order (FIFO), the paper's default.
    FifoById,
    /// By transaction id, then intra-transaction position (groups a
    /// transaction's requests together, preserving their internal order).
    ByTransaction,
    /// By descending SLA priority, then request id; requests without SLA
    /// metadata sort last.
    PriorityThenId,
    /// By ascending SLA deadline (earliest deadline first), then request id;
    /// requests without SLA metadata sort last.
    DeadlineThenId,
}

impl OrderingSpec {
    /// Sort the given requests in place according to this spec.
    pub fn sort(&self, requests: &mut [Request]) {
        match self {
            OrderingSpec::FifoById => requests.sort_by_key(|r| r.id),
            OrderingSpec::ByTransaction => requests.sort_by_key(|r| (r.ta, r.intra, r.id)),
            OrderingSpec::PriorityThenId => requests.sort_by_key(|r| {
                (
                    std::cmp::Reverse(r.sla.map(|s| s.priority).unwrap_or(i64::MIN)),
                    r.id,
                )
            }),
            OrderingSpec::DeadlineThenId => {
                requests.sort_by_key(|r| (r.sla.map(|s| s.deadline_ms).unwrap_or(u64::MAX), r.id))
            }
        }
    }

    /// Label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            OrderingSpec::FifoById => "fifo",
            OrderingSpec::ByTransaction => "by-transaction",
            OrderingSpec::PriorityThenId => "priority",
            OrderingSpec::DeadlineThenId => "edf",
        }
    }
}

/// The declarative qualification rule of a protocol.
#[derive(Debug, Clone)]
pub enum RuleBackend {
    /// A relational-algebra plan over the scheduler catalog (`requests`,
    /// `history`, plus auxiliary relations).  Its output must contain
    /// columns named `ta` and `intrata`.
    Algebra {
        /// The plan.
        plan: Plan,
    },
    /// A Datalog program over the same relations (as predicates of the same
    /// names).  The `output` predicate must have `(ta, intrata)` as its
    /// first two arguments.
    Datalog {
        /// The program.
        program: Program,
        /// Name of the output predicate listing qualified requests.
        output: String,
    },
}

impl RuleBackend {
    /// Short label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            RuleBackend::Algebra { .. } => "algebra",
            RuleBackend::Datalog { .. } => "datalog",
        }
    }

    /// Evaluate the rule against the scheduler catalog, returning the keys of
    /// qualified pending requests.  Errors name the back-end; evaluate
    /// through [`RuleSet::qualify`] to have them name the protocol.
    pub fn evaluate(&self, catalog: &Catalog) -> SchedResult<Vec<RequestKey>> {
        let placeholder = match self {
            RuleBackend::Algebra { .. } => "<algebra>",
            RuleBackend::Datalog { .. } => "<datalog>",
        };
        self.evaluate_as(placeholder, catalog)
    }

    fn evaluate_as(&self, protocol: &str, catalog: &Catalog) -> SchedResult<Vec<RequestKey>> {
        match self {
            RuleBackend::Algebra { plan } => {
                let result = relalg::execute(plan, catalog)?;
                let ta_idx = result.schema().index_of("ta").ok_or_else(|| {
                    SchedError::MalformedRuleOutput {
                        protocol: protocol.into(),
                        detail: "output has no `ta` column".into(),
                    }
                })?;
                let intra_idx = result.schema().index_of("intrata").ok_or_else(|| {
                    SchedError::MalformedRuleOutput {
                        protocol: protocol.into(),
                        detail: "output has no `intrata` column".into(),
                    }
                })?;
                let mut keys = result
                    .rows()
                    .iter()
                    .map(|row| output_key(row.get(ta_idx), row.get(intra_idx), protocol))
                    .collect::<SchedResult<Vec<_>>>()?;
                keys.sort_unstable();
                keys.dedup();
                Ok(keys)
            }
            RuleBackend::Datalog { program, output } => {
                let mut db = Database::new();
                for name in catalog.relation_names() {
                    db.load_table(name, catalog.get(name)?)?;
                }
                let out_db = datalog::evaluate(program, db)?;
                let mut keys = Vec::new();
                datalog_output_keys(out_db.relation(output), output, protocol, &mut keys)?;
                Ok(keys)
            }
        }
    }
}

/// Append the qualified `(ta, intrata)` keys of a Datalog output relation to
/// `keys` and leave `keys` sorted and deduplicated — shared by the one-shot
/// backend above and the scheduler's persistent-evaluation path for custom
/// Datalog protocols.  A program that never mentions the output predicate
/// qualifies nothing.  `protocol` names the rule in the error a malformed
/// output raises.
pub(crate) fn datalog_output_keys(
    relation: Option<&datalog::Relation>,
    output: &str,
    protocol: &str,
    keys: &mut Vec<RequestKey>,
) -> SchedResult<()> {
    let Some(relation) = relation else {
        return Ok(());
    };
    if relation.arity().is_some_and(|arity| arity < 2) {
        return Err(SchedError::MalformedRuleOutput {
            protocol: protocol.into(),
            detail: format!(
                "output predicate `{output}` has arity {} (need at least 2)",
                relation.arity().unwrap_or(0)
            ),
        });
    }
    keys.reserve(relation.len());
    for row in relation.rows() {
        keys.push(output_key(row.get(0), row.get(1), protocol)?);
    }
    keys.sort_unstable();
    keys.dedup();
    Ok(())
}

/// The request key named by a rule's output row, given its `ta` and
/// `intrata` values — the one decoder of both back-ends.  A value that is
/// not an integer, or does not fit the key's type, is malformed output of
/// `protocol` rather than a key that matches no request.
pub(crate) fn output_key(
    ta: &relalg::Value,
    intra: &relalg::Value,
    protocol: &str,
) -> SchedResult<RequestKey> {
    fn decode<T: TryFrom<i64>>(
        value: &relalg::Value,
        column: &str,
        protocol: &str,
    ) -> SchedResult<T> {
        let malformed = |kind: &str| SchedError::MalformedRuleOutput {
            protocol: protocol.into(),
            detail: format!("{kind} {column} value `{value}`"),
        };
        // Only an integer names a key: `Value::as_int` would also read a
        // boolean as 0 or 1.
        let relalg::Value::Int(int) = *value else {
            return Err(malformed("non-integer"));
        };
        T::try_from(int).map_err(|_| malformed("out-of-range"))
    }
    Ok(RequestKey {
        ta: decode(ta, "ta", protocol)?,
        intra: decode(intra, "intrata", protocol)?,
    })
}

/// A complete declarative protocol definition: its name, its qualification
/// rule and its dispatch ordering.
#[derive(Debug, Clone)]
pub struct RuleSet {
    /// Protocol name (e.g. `ss2pl`).
    pub name: String,
    /// The qualification rule.
    pub backend: RuleBackend,
    /// The dispatch ordering.
    pub ordering: OrderingSpec,
}

impl RuleSet {
    /// Construct a rule set.
    pub fn new(name: impl Into<String>, backend: RuleBackend, ordering: OrderingSpec) -> Self {
        RuleSet {
            name: name.into(),
            backend,
            ordering,
        }
    }

    /// Evaluate the qualification rule.
    pub fn qualify(&self, catalog: &Catalog) -> SchedResult<Vec<RequestKey>> {
        self.backend
            .evaluate_as(&self.name, catalog)
            .map_err(|e| match e {
                SchedError::RuleEvaluation { message, .. } => SchedError::RuleEvaluation {
                    protocol: self.name.clone(),
                    message,
                },
                other => other,
            })
    }
}

impl fmt::Display for RuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} backend, {} ordering]",
            self.name,
            self.backend.label(),
            self.ordering.label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SlaMeta;
    use relalg::{Expr, PlanBuilder, Value};

    fn catalog_with_requests() -> Catalog {
        let mut catalog = Catalog::new();
        let mut table = relalg::Table::new("requests", Request::schema());
        for r in [
            Request::read(1, 10, 0, 5),
            Request::write(2, 11, 0, 6),
            Request::write(3, 11, 1, 7),
        ] {
            table.push(r.to_tuple()).unwrap();
        }
        catalog.register(table);
        catalog.register(relalg::Table::new("history", Request::schema()));
        catalog
    }

    #[test]
    fn algebra_backend_extracts_keys() {
        let plan = PlanBuilder::scan("requests")
            .filter(Expr::col("operation").eq(Expr::lit("w")))
            .project(vec![Expr::col("ta"), Expr::col("intrata")])
            .build();
        let backend = RuleBackend::Algebra { plan };
        let keys = backend.evaluate(&catalog_with_requests()).unwrap();
        assert_eq!(
            keys,
            vec![
                RequestKey { ta: 11, intra: 0 },
                RequestKey { ta: 11, intra: 1 }
            ]
        );
        assert_eq!(backend.label(), "algebra");
    }

    /// Output values that are not integers, or do not fit a request key,
    /// are malformed output, not keys that silently match some other
    /// request or none.
    #[test]
    fn algebra_backend_rejects_out_of_range_keys() {
        for (ta, intra, detail) in [
            (Value::Int(-1), Value::Int(0), "out-of-range ta value `-1`"),
            (
                Value::Int(11),
                Value::Int(1 << 32),
                "out-of-range intrata value `4294967296`",
            ),
            (
                Value::Bool(true),
                Value::Int(0),
                "non-integer ta value `true`",
            ),
        ] {
            let plan = PlanBuilder::scan("requests")
                .project_as(vec![(Expr::lit(ta), "ta"), (Expr::lit(intra), "intrata")])
                .build();
            let backend = RuleBackend::Algebra { plan };
            match backend.evaluate(&catalog_with_requests()).unwrap_err() {
                SchedError::MalformedRuleOutput {
                    protocol,
                    detail: text,
                } => {
                    assert_eq!(protocol, "<algebra>");
                    assert!(text.contains(detail), "{text}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn algebra_backend_requires_ta_and_intrata_columns() {
        let plan = PlanBuilder::scan("requests")
            .project(vec![Expr::col("ta")])
            .build();
        let backend = RuleBackend::Algebra { plan };
        let err = backend.evaluate(&catalog_with_requests()).unwrap_err();
        assert!(matches!(err, SchedError::MalformedRuleOutput { .. }));
    }

    #[test]
    fn datalog_backend_extracts_keys() {
        let program = datalog::parse_program(
            r#"
            qualified(T, I) :- requests(Id, T, I, "w", O).
            "#,
        )
        .unwrap();
        let backend = RuleBackend::Datalog {
            program,
            output: "qualified".into(),
        };
        let keys = backend.evaluate(&catalog_with_requests()).unwrap();
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0].ta, 11);
        assert_eq!(backend.label(), "datalog");
    }

    #[test]
    fn datalog_missing_output_predicate_is_empty_not_error() {
        let program = datalog::parse_program("other(T, I) :- requests(Id, T, I, Op, O).").unwrap();
        let backend = RuleBackend::Datalog {
            program,
            output: "qualified".into(),
        };
        assert!(backend
            .evaluate(&catalog_with_requests())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn a_malformed_datalog_output_names_the_protocol_that_produced_it() {
        for (source, detail) in [
            // The operation column where `ta` belongs.
            (
                "qualified(Op, I) :- requests(Id, T, I, Op, O).",
                "non-integer ta value",
            ),
            (
                "qualified(T, Op) :- requests(Id, T, I, Op, O).",
                "non-integer intrata value",
            ),
            ("qualified(T) :- requests(Id, T, I, Op, O).", "has arity 1"),
            // An integer no request key can carry.
            (
                "qualified(-1, I) :- requests(Id, T, I, Op, O).",
                "out-of-range ta value `-1`",
            ),
        ] {
            let backend = RuleBackend::Datalog {
                program: datalog::parse_program(source).unwrap(),
                output: "qualified".into(),
            };
            let named = |protocol: &str, err: SchedError| match err {
                SchedError::MalformedRuleOutput {
                    protocol: got,
                    detail: text,
                } => {
                    assert_eq!(got, protocol, "{source}");
                    assert!(text.contains(detail), "{source}: {text}");
                }
                other => panic!("{source}: unexpected {other:?}"),
            };
            let catalog = catalog_with_requests();
            named("<datalog>", backend.evaluate(&catalog).unwrap_err());
            let rules = RuleSet::new("bad-rule", backend, OrderingSpec::FifoById);
            named("bad-rule", rules.qualify(&catalog).unwrap_err());
        }
    }

    #[test]
    fn ordering_specs() {
        let sla = |p: i64, d: u64| SlaMeta {
            priority: p,
            class: "premium",
            arrival_ms: 0,
            deadline_ms: d,
        };
        let mut requests = vec![
            Request::read(3, 1, 0, 5).with_sla(sla(1, 300)),
            Request::read(1, 2, 0, 6).with_sla(sla(3, 100)),
            Request::read(2, 3, 0, 7),
        ];
        OrderingSpec::FifoById.sort(&mut requests);
        assert_eq!(
            requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        OrderingSpec::PriorityThenId.sort(&mut requests);
        assert_eq!(requests[0].id, 1); // priority 3 first
        assert_eq!(requests[2].id, 2); // no SLA last
        OrderingSpec::DeadlineThenId.sort(&mut requests);
        assert_eq!(requests[0].id, 1); // deadline 100
        assert_eq!(requests[2].id, 2); // no SLA last
        OrderingSpec::ByTransaction.sort(&mut requests);
        assert_eq!(
            requests.iter().map(|r| r.ta).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(OrderingSpec::DeadlineThenId.label(), "edf");
    }

    #[test]
    fn rule_set_wraps_errors_with_protocol_name() {
        let plan = PlanBuilder::scan("missing_relation").build();
        let rs = RuleSet::new(
            "broken",
            RuleBackend::Algebra { plan },
            OrderingSpec::FifoById,
        );
        let err = rs.qualify(&catalog_with_requests()).unwrap_err();
        match err {
            SchedError::RuleEvaluation { protocol, .. } => assert_eq!(protocol, "broken"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(rs.to_string().contains("broken"));
    }
}
