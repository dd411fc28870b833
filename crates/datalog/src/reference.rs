//! Test-only reference evaluator: the nested-loop interpreter the compiled
//! executor replaced, kept as the oracle it is checked against.
//!
//! It shares nothing with [`crate::plan`] / [`crate::eval`] beyond the AST
//! and [`crate::stratify`]: relations are plain row vectors with a `HashSet`
//! for membership, variables are looked up by name in a binding stack, every
//! atom scans its whole relation, and each stratum is iterated naively until
//! nothing new appears.  Its only concession to body order is the crudest
//! one: all positive atoms run before all negations and comparisons.

use crate::ast::{Atom, BodyItem, Program, Rule, Term};
use crate::stratify::stratify;
use relalg::Value;
use std::collections::{HashMap, HashSet};

/// Rows per predicate.
pub(crate) type Facts = HashMap<String, HashSet<Vec<Value>>>;

type Bindings<'r> = Vec<(&'r str, Value)>;

fn lookup(bindings: &Bindings<'_>, name: &str) -> Option<Value> {
    bindings
        .iter()
        .rev()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
}

/// The perfect model of `program` over `facts`: the input facts, the facts
/// in the program text and everything derivable.  The program must be safe
/// and stratifiable.
pub(crate) fn evaluate(program: &Program, mut facts: Facts) -> Facts {
    let stratification = stratify(program).expect("reference programs are stratifiable");
    for rule in program.rules.iter().filter(|r| r.is_fact()) {
        facts
            .entry(rule.head.predicate.clone())
            .or_default()
            .insert(ground(&rule.head, &Vec::new()));
    }
    let binders_first = |rule: &Rule| {
        let (binders, filters): (Vec<BodyItem>, Vec<BodyItem>) = rule
            .body
            .iter()
            .cloned()
            .partition(|item| matches!(item, BodyItem::Positive(_)));
        Rule::new(rule.head.clone(), [binders, filters].concat())
    };
    for group in &stratification.rule_groups {
        let rules: Vec<Rule> = group
            .iter()
            .map(|&i| &program.rules[i])
            .filter(|rule| !rule.is_fact())
            .map(binders_first)
            .collect();
        loop {
            let mut grew = false;
            for rule in &rules {
                let mut derived = Vec::new();
                join_body(rule, 0, &mut Vec::new(), &facts, &mut derived);
                let head = facts.entry(rule.head.predicate.clone()).or_default();
                for row in derived {
                    grew |= head.insert(row);
                }
            }
            if !grew {
                break;
            }
        }
    }
    facts
}

fn ground(atom: &Atom, bindings: &Bindings<'_>) -> Vec<Value> {
    atom.terms
        .iter()
        .map(|t| match t {
            Term::Const(v) => *v,
            Term::Var(name) => lookup(bindings, name).expect("safe rules bind this variable"),
        })
        .collect()
}

fn join_body<'r>(
    rule: &'r Rule,
    idx: usize,
    bindings: &mut Bindings<'r>,
    facts: &Facts,
    results: &mut Vec<Vec<Value>>,
) {
    if idx == rule.body.len() {
        results.push(ground(&rule.head, bindings));
        return;
    }
    match &rule.body[idx] {
        BodyItem::Positive(atom) => {
            for row in facts.get(&atom.predicate).into_iter().flatten() {
                let mark = bindings.len();
                if unify(atom, row, bindings) {
                    join_body(rule, idx + 1, bindings, facts, results);
                }
                bindings.truncate(mark);
            }
        }
        BodyItem::Negative(atom) => {
            let probe = ground(atom, bindings);
            if !facts
                .get(&atom.predicate)
                .is_some_and(|rows| rows.contains(&probe))
            {
                join_body(rule, idx + 1, bindings, facts, results);
            }
        }
        BodyItem::Compare { op, left, right } => {
            let resolve = |t: &Term| match t {
                Term::Const(v) => *v,
                Term::Var(name) => lookup(bindings, name).expect("safe rules bind this variable"),
            };
            if op.apply(&resolve(left), &resolve(right)) {
                join_body(rule, idx + 1, bindings, facts, results);
            }
        }
    }
}

/// Try to extend `bindings` so that `atom` matches `row`.  On mismatch,
/// partially pushed bindings remain — the caller truncates either way.
fn unify<'r>(atom: &'r Atom, row: &[Value], bindings: &mut Bindings<'r>) -> bool {
    assert_eq!(
        atom.arity(),
        row.len(),
        "reference facts have the atom's arity"
    );
    for (term, value) in atom.terms.iter().zip(row.iter()) {
        match term {
            Term::Const(c) => {
                if c.sql_eq(value) != Some(true) {
                    return false;
                }
            }
            Term::Var(name) => match lookup(bindings, name) {
                Some(existing) => {
                    if existing.sql_eq(value) != Some(true) {
                        return false;
                    }
                }
                None => bindings.push((name.as_str(), *value)),
            },
        }
    }
    true
}
