//! Compilation of a [`Program`] into slot-addressed, index-probing plans.
//!
//! Everything that can be decided from the program text is decided here,
//! once, so that evaluation ([`crate::eval`]) touches no string:
//!
//! * predicates become dense relation ids of the [`Database`] the program is
//!   compiled against, and each predicate's arity is pinned on its relation
//!   (facts of another arity are rejected where they enter);
//! * every variable of a rule becomes a slot in a fixed-size frame;
//! * each positive atom becomes a [`Scan`]: *probe relation R on the columns
//!   already bound (constants count as bound) → compare them → bind the
//!   remaining columns to their slots*.  The column set probed is registered
//!   as a hash index on the relation, so a join is an index probe;
//! * comparisons and negated atoms are placed at the first point all their
//!   variables are bound, and positive atoms after the first are ordered by
//!   how many of their columns are bound at that point;
//! * per rule there is one plan per positive atom that starts from that
//!   atom's *delta* (the rows added since the last pass) — the semi-naive
//!   variants — beside the plan over the full relations;
//! * rules are grouped per stratum, split further into strongly connected
//!   components of head predicates, in evaluation order.

use crate::ast::{Atom, BodyItem, CompareOp, Program, Rule, Term};
use crate::engine::Database;
use crate::error::{DatalogError, DatalogResult};
use crate::stratify::stratify;
use relalg::{Tuple, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A value known when a step runs: a frame slot bound by an earlier scan,
/// or a constant from the program text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Operand {
    /// Frame slot.
    Slot(usize),
    /// Constant.
    Const(Value),
}

/// One positive atom, lowered.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Scan {
    /// Relation to read.
    pub rel: usize,
    /// Read only the relation's delta range instead of the whole relation
    /// (always the first step of a semi-naive variant; scanned, not probed).
    pub delta: bool,
    /// Index (position in the relation's index list) over exactly the
    /// `bound` columns; `None` scans all rows.
    pub index: Option<usize>,
    /// Columns whose value is known, ascending, with that value: the probe
    /// key, and the comparison every candidate row must pass.
    pub bound: Vec<(usize, Operand)>,
    /// `(col, earlier col)`: a variable first seen in this atom appears
    /// again in it, so the two columns must be equal.
    pub same: Vec<(usize, usize)>,
    /// `(col, slot)`: columns that bind a fresh variable.
    pub binds: Vec<(usize, usize)>,
    /// Every head variable is bound before this scan, so the rest of the
    /// body only decides *whether* the head tuple is derived: the scan stops
    /// at the first row that gets it derived.
    pub once: bool,
}

/// One step of a rule body, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Step {
    /// Positive atom.
    Scan(Scan),
    /// Negated atom: one membership probe with a ground tuple.
    Negate {
        /// Relation probed.
        rel: usize,
        /// The ground tuple's terms.
        terms: Vec<Operand>,
    },
    /// Built-in comparison.
    Compare {
        /// Operator.
        op: CompareOp,
        /// Left operand.
        left: Operand,
        /// Right operand.
        right: Operand,
    },
}

/// A rule, lowered.
#[derive(Debug, Clone)]
pub(crate) struct RulePlan {
    /// Head relation.
    pub head: usize,
    /// Head tuple, built from the frame when the body is satisfied.
    pub head_terms: Vec<Operand>,
    /// Frame size.
    pub slots: usize,
    /// Body over the full relations.
    pub full: Vec<Step>,
    /// Semi-naive variants: `(relation, body starting from its delta)`, one
    /// per positive atom.
    pub deltas: Vec<(usize, Vec<Step>)>,
}

/// One evaluation unit: the rules of one strongly connected component of
/// head predicates within a stratum.
#[derive(Debug, Clone)]
pub(crate) struct Group {
    /// Indexes into [`CompiledProgram::rules`].
    pub rules: Vec<usize>,
    /// Distinct head relations.
    pub heads: Vec<usize>,
    /// Distinct relations read by positive atoms.
    pub positive: Vec<usize>,
    /// Distinct relations read by negated atoms.
    pub negative: Vec<usize>,
}

/// A program compiled against one [`Database`].
#[derive(Debug, Clone)]
pub(crate) struct CompiledProgram {
    /// Lowered non-fact rules.
    pub rules: Vec<RulePlan>,
    /// Evaluation units, in order.
    pub groups: Vec<Group>,
    /// Ground facts from the program text.
    facts: Vec<(usize, Tuple)>,
    /// `is_idb[rel]`: the relation is the head of a non-fact rule (relations
    /// the database gained after compilation are extensional).
    pub is_idb: Vec<bool>,
}

impl CompiledProgram {
    /// Validate `program` (safety, arities, stratification) and lower it
    /// against `db`: every predicate gets a relation there, with its arity
    /// pinned and the indexes its plans probe registered.  Facts already in
    /// `db` under another arity are reported as [`DatalogError::FactArity`].
    pub(crate) fn compile(program: &Program, db: &mut Database) -> DatalogResult<Self> {
        for rule in &program.rules {
            if !rule.is_safe() {
                return Err(DatalogError::UnsafeRule {
                    rule: rule.to_string(),
                });
            }
        }
        let stratification = stratify(program)?;

        let mut atoms: Vec<&Atom> = Vec::new();
        for rule in &program.rules {
            atoms.push(&rule.head);
            atoms.extend(rule.body.iter().filter_map(|item| match item {
                BodyItem::Positive(a) | BodyItem::Negative(a) => Some(a),
                BodyItem::Compare { .. } => None,
            }));
        }
        for atom in atoms {
            let id = db.intern(&atom.predicate);
            db.pin_arity(id, atom.arity())?;
        }

        // Rule index in the program -> index among the lowered rules.
        let mut lowered: HashMap<usize, usize> = HashMap::new();
        let mut rules = Vec::new();
        let mut facts = Vec::new();
        let mut is_idb = vec![false; db.relation_count()];
        for (i, rule) in program.rules.iter().enumerate() {
            let head = db.intern(&rule.head.predicate);
            if rule.is_fact() {
                let row: Vec<Value> = rule
                    .head
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(v) => *v,
                        Term::Var(_) => unreachable!("a fact with variables is unsafe"),
                    })
                    .collect();
                facts.push((head, Tuple::from_slice(&row)));
            } else {
                is_idb[head] = true;
                lowered.insert(i, rules.len());
                rules.push(lower_rule(rule, db));
            }
        }

        let groups = refine_groups(program, &stratification.rule_groups)
            .into_iter()
            .filter_map(|unit| {
                let members: Vec<usize> = unit
                    .iter()
                    .filter_map(|i| lowered.get(i).copied())
                    .collect();
                if members.is_empty() {
                    return None;
                }
                let mut heads = BTreeSet::new();
                let mut positive = BTreeSet::new();
                let mut negative = BTreeSet::new();
                for &m in &members {
                    heads.insert(rules[m].head);
                    for step in &rules[m].full {
                        match step {
                            Step::Scan(scan) => positive.insert(scan.rel),
                            Step::Negate { rel, .. } => negative.insert(*rel),
                            Step::Compare { .. } => false,
                        };
                    }
                }
                Some(Group {
                    rules: members,
                    heads: heads.into_iter().collect(),
                    positive: positive.into_iter().collect(),
                    negative: negative.into_iter().collect(),
                })
            })
            .collect();

        Ok(CompiledProgram {
            rules,
            groups,
            facts,
            is_idb,
        })
    }

    /// Insert the program text's ground facts — all of them, or only those
    /// of the relations in `only`.
    pub(crate) fn load_facts(&self, db: &mut Database, only: Option<&[usize]>) {
        for (rel, row) in &self.facts {
            if only.is_none_or(|rels| rels.contains(rel)) {
                db.rel_mut(*rel).insert(row.values());
            }
        }
    }

    /// Whether relation `id` is derived by rules (and so not an input).
    pub(crate) fn derives(&self, id: usize) -> bool {
        self.is_idb.get(id).copied().unwrap_or(false)
    }
}

fn operand(term: &Term, slots: &HashMap<&str, usize>) -> Operand {
    match term {
        Term::Const(v) => Operand::Const(*v),
        Term::Var(name) => Operand::Slot(slots[name.as_str()]),
    }
}

fn lower_rule(rule: &Rule, db: &mut Database) -> RulePlan {
    let mut slots: HashMap<&str, usize> = HashMap::new();
    for item in &rule.body {
        if let BodyItem::Positive(atom) = item {
            for name in atom.terms.iter().filter_map(Term::var_name) {
                let next = slots.len();
                slots.entry(name).or_insert(next);
            }
        }
    }
    let positives: Vec<usize> = (0..rule.body.len())
        .filter(|&i| matches!(rule.body[i], BodyItem::Positive(_)))
        .collect();
    let deltas = positives
        .iter()
        .map(|&at| {
            let BodyItem::Positive(atom) = &rule.body[at] else {
                unreachable!("filtered to positive atoms above")
            };
            let rel = db.intern(&atom.predicate);
            (rel, order_body(rule, Some(at), &slots, db))
        })
        .collect();
    RulePlan {
        head: db.intern(&rule.head.predicate),
        head_terms: rule.head.terms.iter().map(|t| operand(t, &slots)).collect(),
        slots: slots.len(),
        full: order_body(rule, None, &slots, db),
        deltas,
    }
}

/// Order one rule body.  The first positive atom is `delta_at` (read from
/// its delta) when given, the first in source order otherwise; each later
/// one is the remaining atom with the most bound columns (ties: source
/// order).  After every atom, the comparisons and negations whose variables
/// are now all bound follow, in source order.
fn order_body(
    rule: &Rule,
    delta_at: Option<usize>,
    slots: &HashMap<&str, usize>,
    db: &mut Database,
) -> Vec<Step> {
    let mut bound = vec![false; slots.len()];
    let mut placed = vec![false; rule.body.len()];
    let mut steps = Vec::with_capacity(rule.body.len());
    let is_bound = |term: &Term, bound: &[bool]| match term {
        Term::Const(_) => true,
        Term::Var(name) => bound[slots[name.as_str()]],
    };
    let operand = |term: &Term| operand(term, slots);

    loop {
        // Filters that have become evaluable.
        for (i, item) in rule.body.iter().enumerate() {
            if placed[i] {
                continue;
            }
            match item {
                BodyItem::Negative(atom) if atom.terms.iter().all(|t| is_bound(t, &bound)) => {
                    steps.push(Step::Negate {
                        rel: db.intern(&atom.predicate),
                        terms: atom.terms.iter().map(operand).collect(),
                    });
                    placed[i] = true;
                }
                BodyItem::Compare { op, left, right }
                    if is_bound(left, &bound) && is_bound(right, &bound) =>
                {
                    steps.push(Step::Compare {
                        op: *op,
                        left: operand(left),
                        right: operand(right),
                    });
                    placed[i] = true;
                }
                _ => {}
            }
        }

        // The next positive atom.
        let mut candidates = rule
            .body
            .iter()
            .enumerate()
            .filter_map(|(i, item)| match item {
                BodyItem::Positive(atom) if !placed[i] => Some((i, atom)),
                _ => None,
            });
        let first = steps.iter().all(|s| !matches!(s, Step::Scan(_)));
        let next = match delta_at {
            Some(at) if first => candidates.find(|&(i, _)| i == at),
            _ if first => candidates.next(),
            _ => candidates.max_by_key(|&(i, atom)| {
                let known = atom.terms.iter().filter(|t| is_bound(t, &bound)).count();
                (known, std::cmp::Reverse(i))
            }),
        };
        let Some((at, atom)) = next else {
            break;
        };
        placed[at] = true;

        let rel = db.intern(&atom.predicate);
        let delta = first && delta_at.is_some();
        let mut scan = Scan {
            rel,
            delta,
            index: None,
            bound: Vec::new(),
            same: Vec::new(),
            binds: Vec::new(),
            once: rule.head.terms.iter().all(|t| is_bound(t, &bound)),
        };
        for (col, term) in atom.terms.iter().enumerate() {
            if is_bound(term, &bound) {
                scan.bound.push((col, operand(term)));
                continue;
            }
            let Operand::Slot(slot) = operand(term) else {
                unreachable!("constants are always bound")
            };
            match scan.binds.iter().find(|&&(_, s)| s == slot) {
                Some(&(earlier, _)) => scan.same.push((col, earlier)),
                None => scan.binds.push((col, slot)),
            }
        }
        for &(_, slot) in &scan.binds {
            bound[slot] = true;
        }
        if !delta && !scan.bound.is_empty() {
            let cols: Vec<usize> = scan.bound.iter().map(|&(col, _)| col).collect();
            scan.index = Some(db.rel_mut(rel).ensure_index(&cols));
        }
        steps.push(Step::Scan(scan));
    }
    debug_assert!(placed.iter().all(|&p| p), "safe rules place every item");
    steps
}

/// Split each stratum group into sub-groups of mutually recursive head
/// predicates, in dependency order.  Stratification only guarantees
/// head ≥ body (positive) and head > body (negative), so independent
/// predicates often share a stratum number; evaluating them as one unit
/// would force a change in either to recompute both.  Within one stratum
/// all in-group edges are positive (negative edges strictly raise the
/// stratum), so any topological order of the positive-dependency SCCs is a
/// valid evaluation order.
fn refine_groups(program: &Program, rule_groups: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut refined = Vec::new();
    for group in rule_groups {
        // head predicate -> rule indexes in this group.
        let mut rules_of: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for &index in group {
            rules_of
                .entry(program.rules[index].head.predicate.as_str())
                .or_default()
                .push(index);
        }
        if rules_of.len() <= 1 {
            refined.push(group.clone());
            continue;
        }
        // In-group positive dependencies: edge head -> dep (dep must come
        // first).  The graphs are tiny (a handful of predicates), so the
        // O(n²) reachability closure is fine.
        let heads: Vec<&str> = rules_of.keys().copied().collect();
        let reaches = |from: &str, to: &str| -> bool {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            let mut stack = vec![from];
            while let Some(p) = stack.pop() {
                if !seen.insert(p) {
                    continue;
                }
                if p == to {
                    return true;
                }
                for &index in rules_of.get(p).into_iter().flatten() {
                    for dep in program.rules[index].positive_deps() {
                        if rules_of.contains_key(dep) {
                            stack.push(dep);
                        }
                    }
                }
            }
            false
        };
        // Peel predicates whose remaining in-group dependencies are all
        // emitted; when stuck, emit a whole mutually-recursive component.
        let mut remaining: BTreeSet<&str> = heads.iter().copied().collect();
        while !remaining.is_empty() {
            let free: Vec<&str> = remaining
                .iter()
                .copied()
                .filter(|head| {
                    rules_of[head].iter().all(|&index| {
                        program.rules[index]
                            .positive_deps()
                            .iter()
                            .all(|dep| dep == head || !remaining.contains(dep))
                    })
                })
                .collect();
            if !free.is_empty() {
                for head in free {
                    remaining.remove(head);
                    refined.push(rules_of[head].clone());
                }
                continue;
            }
            // A cycle: emit a strongly connected component whose external
            // dependencies are all emitted already.
            let component = remaining
                .iter()
                .copied()
                .map(|seed| {
                    remaining
                        .iter()
                        .copied()
                        .filter(|&p| p == seed || (reaches(seed, p) && reaches(p, seed)))
                        .collect::<Vec<&str>>()
                })
                .find(|component| {
                    component.iter().all(|head| {
                        rules_of[head].iter().all(|&index| {
                            program.rules[index]
                                .positive_deps()
                                .iter()
                                .all(|dep| component.contains(dep) || !remaining.contains(dep))
                        })
                    })
                })
                .expect("a dependency-minimal component always exists in a finite graph");
            let mut unit = Vec::new();
            for head in component {
                remaining.remove(head);
                unit.extend(rules_of[head].iter().copied());
            }
            unit.sort_unstable();
            refined.push(unit);
        }
    }
    refined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn compile(source: &str) -> (CompiledProgram, Database) {
        let mut db = Database::new();
        let compiled = CompiledProgram::compile(&parse_program(source).unwrap(), &mut db).unwrap();
        (compiled, db)
    }

    /// Walk a body in execution order and check that every slot a step
    /// reads was bound by an earlier scan.
    fn assert_reads_follow_binds(steps: &[Step], slots: usize) {
        let mut bound = vec![false; slots];
        let check = |operand: &Operand, bound: &[bool], step: &Step| {
            if let Operand::Slot(slot) = operand {
                assert!(bound[*slot], "{step:?} reads unbound slot {slot}");
            }
        };
        for step in steps {
            match step {
                Step::Scan(scan) => {
                    for (_, operand) in &scan.bound {
                        check(operand, &bound, step);
                    }
                    for &(col, earlier) in &scan.same {
                        assert!(earlier < col);
                        assert!(scan.binds.iter().any(|&(c, _)| c == earlier));
                    }
                    for &(_, slot) in &scan.binds {
                        assert!(!bound[slot], "slot {slot} bound twice");
                        bound[slot] = true;
                    }
                }
                Step::Negate { terms, .. } => {
                    terms.iter().for_each(|t| check(t, &bound, step));
                }
                Step::Compare { left, right, .. } => {
                    check(left, &bound, step);
                    check(right, &bound, step);
                }
            }
        }
        assert!(bound.iter().all(|&b| b), "every slot is bound by some scan");
    }

    const CORPUS: &[&str] = &[
        "reach(X, Y) :- edge(X, Y). reach(X, Z) :- reach(X, Y), edge(Y, Z).",
        // Filters written *before* the atoms that bind their variables.
        r#"out(A, C) :- A < C, !skip(B), p(A, B), C != 3, q(B, C), !gone(A, C)."#,
        r#"late(X) :- X > Y, big(Y, Z), !bad(Z), src(X)."#,
        r#"
        finished(T) :- history(T, O, "c").
        locked(O, T) :- history(T, O, "w"), !finished(T).
        blocked(Id) :- pending(Id, T, O), locked(O, T2), T != T2.
        blocked(Id) :- pending(Id, T, O), pending(Id2, T1, O), T1 < T.
        qualified(Id) :- pending(Id, T, O), !blocked(Id).
        "#,
        "twice(X) :- edge(X, X), node(X).",
    ];

    #[test]
    fn no_filter_runs_before_the_variables_it_needs() {
        for source in CORPUS {
            let (compiled, _) = compile(source);
            for rule in &compiled.rules {
                assert_reads_follow_binds(&rule.full, rule.slots);
                for (_, variant) in &rule.deltas {
                    assert_reads_follow_binds(variant, rule.slots);
                }
            }
        }
    }

    #[test]
    fn filters_run_at_the_first_point_their_variables_are_bound() {
        // `A < C` needs both p and q; `!skip(B)` only p; `C != 3` only q.
        let (compiled, db) = compile(CORPUS[1]);
        let shape: Vec<String> = compiled.rules[0]
            .full
            .iter()
            .map(|step| match step {
                Step::Scan(scan) => format!("scan {}", db.name_of(scan.rel)),
                Step::Negate { rel, .. } => format!("not {}", db.name_of(*rel)),
                Step::Compare { op, .. } => format!("cmp {op}"),
            })
            .collect();
        assert_eq!(
            shape,
            ["scan p", "not skip", "scan q", "cmp <", "cmp !=", "not gone"]
        );
    }

    #[test]
    fn later_atoms_are_ordered_by_bound_columns_and_probe_an_index() {
        // After `a(X)`, `c(X, Y)` has one bound column and `b(Z, W)` none:
        // c runs first although b is written first.
        let (compiled, db) = compile("out(X, W) :- a(X), b(Z, W), c(X, Y), d(Y, Z).");
        let order: Vec<&str> = compiled.rules[0]
            .full
            .iter()
            .map(|step| match step {
                Step::Scan(scan) => db.name_of(scan.rel),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, ["a", "c", "d", "b"]);
        let Step::Scan(c) = &compiled.rules[0].full[1] else {
            unreachable!()
        };
        assert_eq!(c.bound.len(), 1);
        let probed = c.index.expect("a scan with a bound column probes");
        assert_eq!(db.relation("c").unwrap().index_columns()[probed], [0]);
        // `a` is the full plan's first atom and has nothing bound there.
        let Step::Scan(a) = &compiled.rules[0].full[0] else {
            unreachable!()
        };
        assert!(a.index.is_none() && a.bound.is_empty());
    }

    #[test]
    fn relations_carry_exactly_the_indexes_the_plans_probe() {
        for source in CORPUS {
            let (compiled, db) = compile(source);
            let mut probed: BTreeMap<usize, BTreeSet<Vec<usize>>> = BTreeMap::new();
            let bodies = compiled.rules.iter().flat_map(|rule| {
                std::iter::once(&rule.full).chain(rule.deltas.iter().map(|d| &d.1))
            });
            for step in bodies.flatten() {
                let Step::Scan(scan) = step else { continue };
                let cols: Vec<usize> = scan.bound.iter().map(|&(col, _)| col).collect();
                match scan.index {
                    Some(index) => {
                        assert_eq!(db.rel(scan.rel).index_columns()[index], cols);
                        probed.entry(scan.rel).or_default().insert(cols);
                    }
                    None => assert!(scan.delta || cols.is_empty(), "{scan:?} should probe"),
                }
            }
            for rel in 0..db.relation_count() {
                let registered: BTreeSet<Vec<usize>> =
                    db.rel(rel).index_columns().into_iter().collect();
                assert_eq!(
                    registered,
                    probed.remove(&rel).unwrap_or_default(),
                    "indexes of `{}`",
                    db.name_of(rel)
                );
            }
        }
    }

    #[test]
    fn constants_count_as_bound_and_repeated_variables_compare_columns() {
        let (compiled, db) = compile(r#"w(T) :- op(T, O, "w"). self(X) :- edge(X, X)."#);
        let Step::Scan(op) = &compiled.rules[0].full[0] else {
            unreachable!()
        };
        assert_eq!(op.bound, vec![(2, Operand::Const(Value::str("w")))]);
        assert_eq!(db.relation("op").unwrap().index_columns(), vec![vec![2]]);
        let Step::Scan(edge) = &compiled.rules[1].full[0] else {
            unreachable!()
        };
        assert_eq!(edge.same, vec![(1, 0)]);
        assert_eq!(edge.binds.len(), 1);
    }

    #[test]
    fn every_positive_atom_gets_a_delta_first_variant() {
        let (compiled, db) = compile(CORPUS[0]);
        let recursive = &compiled.rules[1];
        let firsts: Vec<(&str, bool)> = recursive
            .deltas
            .iter()
            .map(|(rel, steps)| {
                let Step::Scan(first) = &steps[0] else {
                    unreachable!()
                };
                assert_eq!(first.rel, *rel);
                assert!(first.index.is_none(), "a delta is scanned, not probed");
                (db.name_of(*rel), first.delta)
            })
            .collect();
        assert_eq!(firsts, [("reach", true), ("edge", true)]);
    }

    #[test]
    fn groups_split_a_stratum_into_dependency_ordered_components() {
        let (compiled, db) = compile(CORPUS[3]);
        let heads: Vec<Vec<&str>> = compiled
            .groups
            .iter()
            .map(|g| g.heads.iter().map(|&h| db.name_of(h)).collect())
            .collect();
        assert_eq!(
            heads,
            [
                vec!["finished"],
                vec!["locked"],
                vec!["blocked"],
                vec!["qualified"]
            ]
        );
        let blocked = &compiled.groups[2];
        assert_eq!(blocked.rules.len(), 2);
        assert!(blocked.negative.is_empty());
        assert_eq!(
            compiled.groups[3].negative,
            vec![db.id_of("blocked").unwrap()]
        );
    }

    #[test]
    fn facts_already_stored_under_another_arity_fail_compilation() {
        let mut db = Database::new();
        db.add_fact("edge", &[1.into()]).unwrap();
        let err =
            CompiledProgram::compile(&parse_program(CORPUS[0]).unwrap(), &mut db).unwrap_err();
        assert_eq!(
            err,
            DatalogError::FactArity {
                predicate: "edge".into(),
                expected: 2,
                got: 1
            }
        );
    }
}
