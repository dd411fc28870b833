//! Compilation of SchedLang protocols to the Datalog rule back-end.

use crate::ast::{BodyAtom, BodyTerm, Clause, CmpOp, OrderBy, ProtocolDef};
use crate::error::{LangError, LangResult};
use crate::parser::parse;
use datalog::{Atom, BodyItem, CompareOp, Program, Rule, Term};
use declsched::{OrderingSpec, Protocol, RuleBackend, RuleSet};
use relalg::Value;

/// Name of the derived predicate collecting blocked requests.
const BLOCKED: &str = "schedlang_blocked";
/// Name of the output predicate.
const QUALIFIED: &str = "qualified";
/// Prefix of the compiler's fresh variables (one per wildcard `_` and per
/// request-binding id).  The lexer reads no `#` in a name, so a user's
/// variable can never be one of them.
const FRESH: &str = "_#";

/// Compile a parsed protocol definition into a [`RuleSet`] on the Datalog
/// back-end.
pub fn compile(def: &ProtocolDef) -> LangResult<RuleSet> {
    Ok(RuleSet::new(
        def.name.clone(),
        RuleBackend::Datalog {
            program: compile_datalog(def)?,
            output: QUALIFIED.to_string(),
        },
        ordering_spec(def.ordering()),
    ))
}

/// Compile a parsed protocol definition into its Datalog program, whose
/// `qualified` predicate holds the admitted `(ta, intrata)` pairs.  The
/// program is checked for safety and stratification.
pub fn compile_datalog(def: &ProtocolDef) -> LangResult<Program> {
    let mut ctx = Compiler {
        protocol: def.name.clone(),
        fresh: 0,
    };
    let mut rules = Vec::new();
    let mut saw_order = false;

    for clause in &def.clauses {
        match clause {
            Clause::Order(_) => {
                if saw_order {
                    return Err(LangError::Semantic {
                        protocol: def.name.clone(),
                        message: "more than one `order by` clause".into(),
                    });
                }
                saw_order = true;
            }
            Clause::Define { name, args, body } => {
                if name == QUALIFIED || name == BLOCKED || name == "requests" || name == "history" {
                    return Err(LangError::Semantic {
                        protocol: def.name.clone(),
                        message: format!("`define {name}` would shadow a reserved predicate"),
                    });
                }
                let head_terms = args.iter().map(|t| ctx.plain_term(t)).collect();
                let head = Atom::new(name.clone(), head_terms);
                let body = ctx.compile_body(body, false)?;
                rules.push(Rule::new(head, body));
            }
            Clause::Block { body } => {
                let (head, mut full_body) = ctx.request_rule(BLOCKED);
                full_body.extend(ctx.compile_body(body, true)?);
                rules.push(Rule::new(head, full_body));
            }
            Clause::Admit { body } => {
                let (head, mut full_body) = ctx.request_rule(QUALIFIED);
                full_body.extend(ctx.compile_body(body, true)?);
                rules.push(Rule::new(head, full_body));
            }
            Clause::AdmitOtherwise => {}
        }
    }

    // The default admission rule: everything not blocked qualifies.  Added
    // when the protocol says `admit otherwise;` or has no explicit admit
    // clauses at all.
    if def.has_default_admission() {
        let (head, mut body) = ctx.request_rule(QUALIFIED);
        let has_block = def
            .clauses
            .iter()
            .any(|c| matches!(c, Clause::Block { .. }));
        if has_block {
            body.push(BodyItem::Negative(Atom::new(
                BLOCKED,
                vec![Term::var("Ta"), Term::var("Intra")],
            )));
        }
        rules.push(Rule::new(head, body));
    }

    let program = Program::new(rules);
    // Validate now (safety + stratification) so authors get errors at
    // compile time rather than on the first scheduling round.
    for rule in &program.rules {
        if !rule.is_safe() {
            return Err(LangError::Generated {
                protocol: def.name.clone(),
                message: format!("unsafe rule generated: {rule}"),
            });
        }
    }
    datalog::evaluate(&program, datalog::Database::new()).map_err(|e| LangError::Generated {
        protocol: def.name.clone(),
        message: e.to_string(),
    })?;
    Ok(program)
}

/// Parse and compile a protocol, wrapping it as a [`Protocol`] ready to hand
/// to a [`declsched::DeclarativeScheduler`].
pub fn compile_protocol(src: &str) -> LangResult<Protocol> {
    let def = parse(src)?;
    let rules = compile(&def)?;
    Ok(Protocol::custom(
        rules,
        "user-defined protocol compiled from SchedLang",
    ))
}

fn ordering_spec(order: OrderBy) -> OrderingSpec {
    match order {
        OrderBy::Arrival => OrderingSpec::FifoById,
        OrderBy::Transaction => OrderingSpec::ByTransaction,
        OrderBy::Priority => OrderingSpec::PriorityThenId,
        OrderBy::Deadline => OrderingSpec::DeadlineThenId,
    }
}

struct Compiler {
    protocol: String,
    fresh: usize,
}

impl Compiler {
    /// The standard head + request-binding atom used by admit/block rules:
    /// `head(Ta, Intra) :- requests(Id, Ta, Intra, Op, Obj), …`.
    fn request_rule(&mut self, head_name: &str) -> (Atom, Vec<BodyItem>) {
        let head = Atom::new(head_name, vec![Term::var("Ta"), Term::var("Intra")]);
        let binding = BodyItem::Positive(Atom::new(
            "requests",
            vec![
                Term::var(self.fresh_var()),
                Term::var("Ta"),
                Term::var("Intra"),
                Term::var("Op"),
                Term::var("Obj"),
            ],
        ));
        (head, vec![binding])
    }

    fn fresh_var(&mut self) -> String {
        self.fresh += 1;
        format!("{FRESH}{}", self.fresh)
    }

    /// Translate a term appearing in a `define` clause (no request-field
    /// keywords there: a define is an ordinary rule).
    fn plain_term(&mut self, term: &BodyTerm) -> Term {
        match term {
            BodyTerm::Variable(v) if v == "_" => Term::var(self.fresh_var()),
            BodyTerm::Variable(v) => Term::var(v.clone()),
            BodyTerm::Number(n) => Term::Const(Value::Int(*n)),
            BodyTerm::Str(s) => Term::Const(Value::str(s.clone())),
            BodyTerm::Ident(name) => Term::Const(Value::str(name.clone())),
        }
    }

    /// Translate a term in an admit/block body, where the lowercase keywords
    /// `ta`, `intra`, `op` and `obj` refer to the current pending request.
    fn request_term(&mut self, term: &BodyTerm) -> Term {
        match term {
            BodyTerm::Ident(name) => match name.as_str() {
                "ta" => Term::var("Ta"),
                "intra" => Term::var("Intra"),
                "op" => Term::var("Op"),
                "obj" => Term::var("Obj"),
                other => Term::Const(Value::str(other)),
            },
            other => self.plain_term(other),
        }
    }

    fn compile_body(
        &mut self,
        body: &[BodyAtom],
        request_context: bool,
    ) -> LangResult<Vec<BodyItem>> {
        let term = |ctx: &mut Self, t: &BodyTerm| {
            if request_context {
                ctx.request_term(t)
            } else {
                ctx.plain_term(t)
            }
        };
        let mut out = Vec::with_capacity(body.len());
        for atom in body {
            match atom {
                BodyAtom::Positive { predicate, terms } => {
                    let terms = terms.iter().map(|t| term(self, t)).collect();
                    out.push(BodyItem::Positive(Atom::new(predicate.clone(), terms)));
                }
                BodyAtom::Negative { predicate, terms } => {
                    let terms: Vec<Term> = terms.iter().map(|t| term(self, t)).collect();
                    if terms
                        .iter()
                        .any(|t| matches!(t, Term::Var(v) if v.starts_with(FRESH)))
                    {
                        return Err(LangError::Semantic {
                            protocol: self.protocol.clone(),
                            message: format!(
                                "wildcard `_` is not allowed inside a negated atom (`not {predicate}(…)`)"
                            ),
                        });
                    }
                    out.push(BodyItem::Negative(Atom::new(predicate.clone(), terms)));
                }
                BodyAtom::Compare { op, left, right } => {
                    out.push(BodyItem::Compare {
                        op: match op {
                            CmpOp::Eq => CompareOp::Eq,
                            CmpOp::Neq => CompareOp::Neq,
                            CmpOp::Lt => CompareOp::Lt,
                            CmpOp::Le => CompareOp::Le,
                            CmpOp::Gt => CompareOp::Gt,
                            CmpOp::Ge => CompareOp::Ge,
                        },
                        left: term(self, left),
                        right: term(self, right),
                    });
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use declsched::{Request, RequestKey};
    use relalg::{Catalog, Table};

    fn catalog(pending: &[Request], history: &[Request]) -> Catalog {
        let mut c = Catalog::new();
        let mut requests = Table::new("requests", Request::schema());
        for r in pending {
            requests.push(r.to_tuple()).unwrap();
        }
        let mut hist = Table::new("history", Request::schema());
        for r in history {
            hist.push(r.to_tuple()).unwrap();
        }
        c.register(requests);
        c.register(hist);
        c
    }

    #[test]
    fn admit_otherwise_alone_admits_everything() {
        let p = compile_protocol("protocol all { order by arrival; admit otherwise; }").unwrap();
        let c = catalog(
            &[Request::read(1, 1, 0, 5), Request::write(2, 2, 0, 5)],
            &[],
        );
        assert_eq!(p.rules.qualify(&c).unwrap().len(), 2);
        assert_eq!(p.name(), "all");
    }

    #[test]
    fn block_clauses_generate_default_admission() {
        // Block everything touching object 5; no explicit admit clauses.
        let p = compile_protocol(r#"protocol no5 { block when obj = 5; }"#).unwrap();
        let c = catalog(&[Request::read(1, 1, 0, 5), Request::read(2, 2, 0, 6)], &[]);
        let keys = p.rules.qualify(&c).unwrap();
        assert_eq!(keys, vec![RequestKey { ta: 2, intra: 0 }]);
    }

    #[test]
    fn explicit_admit_without_otherwise_is_exhaustive() {
        let p = compile_protocol(r#"protocol reads_only { admit when op = "r"; }"#).unwrap();
        let c = catalog(
            &[Request::read(1, 1, 0, 5), Request::write(2, 2, 0, 6)],
            &[],
        );
        let keys = p.rules.qualify(&c).unwrap();
        assert_eq!(keys, vec![RequestKey { ta: 1, intra: 0 }]);
    }

    #[test]
    fn a_user_variable_cannot_capture_a_wildcard() {
        // `_G1` was the name of the request-binding atom's fresh id: the
        // clause then compared each request with itself and never blocked.
        let c = catalog(
            &[Request::write(1, 1, 0, 5), Request::write(2, 2, 0, 5)],
            &[],
        );
        let qualify = |var: &str| {
            let src = format!(
                r#"protocol p {{ block when requests({var}, T1, _, "w", obj), T1 < ta; }}"#
            );
            compile_protocol(&src).unwrap().rules.qualify(&c).unwrap()
        };
        assert_eq!(qualify("_X1"), vec![RequestKey { ta: 1, intra: 0 }]);
        assert_eq!(qualify("_G1"), qualify("_X1"));
        // A named variable is not a wildcard, even under a negation.
        let named = r#"protocol p { block when requests(_G1, T1, _, "w", obj), not seen(_G1); }"#;
        assert!(!matches!(
            compile_protocol(named),
            Err(LangError::Semantic { .. })
        ));
    }

    #[test]
    fn deadline_ordering_is_carried_over() {
        let p = compile_protocol("protocol edf { order by deadline; admit otherwise; }").unwrap();
        assert_eq!(p.rules.ordering, OrderingSpec::DeadlineThenId);
        let p = compile_protocol("protocol pri { order by priority; admit otherwise; }").unwrap();
        assert_eq!(p.rules.ordering, OrderingSpec::PriorityThenId);
    }

    #[test]
    fn semantic_errors_are_reported() {
        // Duplicate order clause.
        assert!(matches!(
            compile_protocol(
                "protocol p { order by arrival; order by deadline; admit otherwise; }"
            ),
            Err(LangError::Semantic { .. })
        ));
        // Shadowing a reserved predicate.
        assert!(matches!(
            compile_protocol(r#"protocol p { define requests(X) when history(_, X, _, "c", _); }"#),
            Err(LangError::Semantic { .. })
        ));
        // Wildcard inside a negated atom.
        assert!(matches!(
            compile_protocol("protocol p { block when not locked(_); }"),
            Err(LangError::Semantic { .. })
        ));
        // Unsafe define (unbound head variable).
        assert!(matches!(
            compile_protocol(r#"protocol p { define odd(X) when history(_, Y, _, "c", _); }"#),
            Err(LangError::Generated { .. })
        ));
    }
}
