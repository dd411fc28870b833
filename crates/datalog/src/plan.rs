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
//!   atom's *delta* (the rows added since the last pass, or retracted since
//!   the last evaluation) — the semi-naive variants — beside the plan over
//!   the full relations;
//! * rules are grouped per stratum, split further into strongly connected
//!   components of head predicates, in evaluation order;
//! * rules of one component that share their head atom and their first
//!   positive atom (up to variable names; every `schedlang` admit/block rule
//!   starts `requests(Id, Ta, Intra, Op, Obj)`) are lowered as one *family*:
//!   a plan that starts at the shared atom scans it once and then tries the
//!   rules' remaining bodies in turn ([`Step::Branch`]), stopping at the
//!   first that derives the head tuple;
//! * a rule whose head does not read itself is *maintained* across
//!   evaluations (see [`crate::incremental`]) and gets two more kinds of
//!   plan: one per **negated** atom that starts from that atom's delta, to
//!   find the head tuples a change under the negation can reach, and one
//!   that starts from a given **head tuple** and only decides whether the
//!   rule still derives it.

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
    /// Frame slot preset from the head tuple a decide plan starts from.  It
    /// appears only on the scan column where the rule would have *bound*
    /// the variable, so a row matches by identity (NULL included), not by
    /// SQL equality.
    Pinned(usize),
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
    /// In a delta-first body, the atom stands after the delta atom in the
    /// rule: a run that looks for derivations the *previous* state had also
    /// visits the rows the relation lost.  (Atoms before the delta atom read
    /// the current state only — a derivation that lost several rows is found
    /// from the first of them, once.)
    pub old: bool,
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
    /// Every head variable is bound from here on (delta-first bodies of
    /// maintained rules, exactly once): the run goes on only if the head
    /// tuple's membership in the head relation is the one it is looking for
    /// — a tuple already derived gains nothing from one more derivation, a
    /// tuple that is not derived has none to lose.
    Head,
    /// The last step of a family's body: the remaining bodies of its rules.
    /// Every head variable is bound by now, so the first body that gets the
    /// head tuple derived ends the step.
    Branch(Vec<Vec<Step>>),
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

/// A rule — or a family of rules that share head and first positive atom —
/// lowered.
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
    /// The same per negated atom, the atom itself read as a scan of its
    /// relation's delta and its `Negate` step left out.  What such a body
    /// emits are *candidate* head tuples.  Maintained rules only.
    pub negated: Vec<(usize, Vec<Step>)>,
    /// Body with every head variable preset ([`Operand::Pinned`]): it runs
    /// to its first match and so decides one head tuple.  Maintained rules
    /// only.
    pub decide: Vec<Step>,
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
    /// Some rule reads a head of the group: the fixpoint needs iteration,
    /// and a lost row forces a recompute.  Every other group has one head
    /// and is maintained by deltas.
    pub recursive: bool,
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
    /// `maintain`: the program will be evaluated more than once, so the
    /// rules that do not recurse also get the plans that patch their heads
    /// from deltas (a one-shot evaluation would only pay for their indexes).
    pub(crate) fn compile(
        program: &Program,
        db: &mut Database,
        maintain: bool,
    ) -> DatalogResult<Self> {
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

        // Evaluation units, and which of them read their own heads.
        let units: Vec<(Vec<usize>, bool)> = refine_groups(program, &stratification.rule_groups)
            .into_iter()
            .map(|unit| {
                let heads: BTreeSet<&str> = unit
                    .iter()
                    .map(|&i| program.rules[i].head.predicate.as_str())
                    .collect();
                let recursive = unit.iter().any(|&i| {
                    program.rules[i]
                        .positive_deps()
                        .iter()
                        .any(|dep| heads.contains(dep))
                });
                (unit, recursive)
            })
            .collect();

        // Rule index in the program -> index among the lowered plans.
        let mut lowered: HashMap<usize, usize> = HashMap::new();
        let mut rules = Vec::new();
        let mut facts = Vec::new();
        let mut is_idb = vec![false; db.relation_count()];
        for rule in &program.rules {
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
            }
        }
        // Lowered in program order of their first members.
        let mut all_families: Vec<(Family, bool)> = units
            .iter()
            .flat_map(|(unit, recursive)| {
                // A one-shot evaluation runs each body once: sharing a scan
                // would not repay working out which rules are alike.
                let of_unit = families(program, unit, *recursive || !maintain);
                of_unit.into_iter().map(|family| (family, *recursive))
            })
            .collect();
        all_families.sort_by_key(|(family, _)| family[0].0);
        for (family, recursive) in all_families {
            for (i, _) in &family {
                lowered.insert(*i, rules.len());
            }
            let members: Vec<Rule> = family.into_iter().map(|(_, rule)| rule).collect();
            rules.push(lower_family(&members, maintain && !recursive, db));
        }

        let groups = units
            .into_iter()
            .filter_map(|(unit, recursive)| {
                let mut members: Vec<usize> = unit
                    .iter()
                    .filter_map(|i| lowered.get(i).copied())
                    .collect();
                members.sort_unstable();
                members.dedup();
                if members.is_empty() {
                    return None;
                }
                let mut heads = BTreeSet::new();
                let mut positive = BTreeSet::new();
                let mut negative = BTreeSet::new();
                for &m in &members {
                    heads.insert(rules[m].head);
                    reads(&rules[m].full, &mut positive, &mut negative);
                }
                Some(Group {
                    rules: members,
                    heads: heads.into_iter().collect(),
                    positive: positive.into_iter().collect(),
                    negative: negative.into_iter().collect(),
                    recursive,
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

    /// Whether the program text states `row` as a ground fact of `rel`.
    pub(crate) fn states_fact(&self, rel: usize, row: &[Value]) -> bool {
        self.facts
            .iter()
            .any(|(r, fact)| *r == rel && fact.values() == row)
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

/// Where a body starts.
#[derive(Clone, Copy)]
enum Start {
    /// At the first positive atom in source order, over the full relations.
    Full,
    /// At the atom that is body item `.0` — positive or negated — read from
    /// its relation's delta.
    Delta(usize),
    /// At a given head tuple: every head variable is preset.
    Head,
    /// Nowhere: the body is the rest of a family member's, entered with the
    /// shared atom's variables bound.  `old`: the shared atom was read from
    /// its delta, so every atom here stands after the delta atom.
    Rest {
        /// See [`Scan::old`].
        old: bool,
    },
}

/// The relations a body reads, positively and under negation.
fn reads(steps: &[Step], positive: &mut BTreeSet<usize>, negative: &mut BTreeSet<usize>) {
    for step in steps {
        match step {
            Step::Scan(scan) => {
                positive.insert(scan.rel);
            }
            Step::Negate { rel, .. } => {
                negative.insert(*rel);
            }
            Step::Branch(bodies) => {
                for body in bodies {
                    reads(body, positive, negative);
                }
            }
            Step::Compare { .. } | Step::Head => {}
        }
    }
}

/// Rules lowered together, renamed alike, each with its program index.
type Family = Vec<(usize, Rule)>;

/// Partition the non-fact rules of one evaluation unit into families, in
/// order of their first member.  Two rules are of one family when, with the
/// variables of the first positive atom named after their column, the heads
/// and those atoms read the same and the head uses no other variable — so a
/// row of that atom fixes the head tuple for all of them.  Members come back
/// renamed that way (their other variables tagged with the rule's index, so
/// no two members share one by accident), keyed by their program index.
/// With `apart`, every rule is a family of its own.
fn families(program: &Program, unit: &[usize], apart: bool) -> Vec<Family> {
    fn first_atom(rule: &Rule) -> Option<&Atom> {
        first_positive(rule).map(|at| atom_of(&rule.body[at]))
    }
    // Only rules that agree on both predicates can be alike; the others
    // are spared the renaming.
    let predicates = |rule: &Rule| {
        let first = first_atom(rule)?;
        Some((
            rule.head.predicate.clone(),
            rule.head.arity(),
            first.predicate.clone(),
            first.arity(),
        ))
    };
    let mut families: Vec<(Option<String>, Family)> = Vec::new();
    for &index in unit {
        let rule = &program.rules[index];
        if rule.is_fact() {
            continue;
        }
        let first = first_atom(rule);
        let lone = apart
            || predicates(rule).is_none()
            || !unit.iter().any(|&other| {
                other != index && predicates(&program.rules[other]) == predicates(rule)
            });
        if lone {
            families.push((None, vec![(index, rule.clone())]));
            continue;
        }
        let rename = |term: &Term| match term {
            Term::Const(_) => term.clone(),
            Term::Var(name) => {
                let column = first.and_then(|atom| {
                    atom.terms
                        .iter()
                        .position(|t| t.var_name() == Some(name.as_str()))
                });
                match column {
                    Some(column) => Term::var(format!("#{column}")),
                    None => Term::var(format!("{name}#{index}")),
                }
            }
        };
        let atom = |atom: &Atom| {
            Atom::new(
                atom.predicate.clone(),
                atom.terms.iter().map(rename).collect(),
            )
        };
        let renamed = Rule::new(
            atom(&rule.head),
            rule.body
                .iter()
                .map(|item| match item {
                    BodyItem::Positive(a) => BodyItem::Positive(atom(a)),
                    BodyItem::Negative(a) => BodyItem::Negative(atom(a)),
                    BodyItem::Compare { op, left, right } => BodyItem::Compare {
                        op: *op,
                        left: rename(left),
                        right: rename(right),
                    },
                })
                .collect(),
        );
        let fixed_by_first = renamed
            .head
            .terms
            .iter()
            .filter_map(Term::var_name)
            .all(|name| name.starts_with('#'));
        let key = first
            .filter(|_| fixed_by_first)
            .map(|first| format!("{} :- {}", renamed.head, atom(first)));
        match families
            .iter_mut()
            .find(|(k, _)| key.is_some() && *k == key)
        {
            Some((_, members)) => members.push((index, renamed)),
            None => families.push((key, vec![(index, renamed)])),
        }
    }
    families.into_iter().map(|(_, members)| members).collect()
}

/// The atom of a body item that is one.
fn atom_of(item: &BodyItem) -> &Atom {
    match item {
        BodyItem::Positive(atom) | BodyItem::Negative(atom) => atom,
        BodyItem::Compare { .. } => unreachable!("only atoms are scanned"),
    }
}

/// Index of a rule's first positive atom among its body items.
fn first_positive(rule: &Rule) -> Option<usize> {
    rule.body
        .iter()
        .position(|item| matches!(item, BodyItem::Positive(_)))
}

/// Lower one family (see [`families`]; its members are renamed alike).
/// Bodies that start at the shared atom — the full one, the one from that
/// atom's delta, the decide plan — scan it once and branch into the members'
/// remaining items; bodies that start at another atom belong to one member
/// and are lowered as that rule's alone.
fn lower_family(members: &[Rule], maintained: bool, db: &mut Database) -> RulePlan {
    let mut slots: HashMap<&str, usize> = HashMap::new();
    for item in members.iter().flat_map(|rule| &rule.body) {
        if let BodyItem::Positive(atom) = item {
            for name in atom.terms.iter().filter_map(Term::var_name) {
                let next = slots.len();
                slots.entry(name).or_insert(next);
            }
        }
    }
    let lead = &members[0];
    let shared = first_positive(lead);
    // A body from `start` at the shared atom: alone for a single rule,
    // branching for several.
    let from_shared = |start: Start, db: &mut Database| {
        let mut steps = match (members, shared) {
            ([only], _) => order_body(only, start, &[], &slots, db),
            (_, Some(shared)) => {
                let stem = Rule::new(lead.head.clone(), vec![lead.body[shared].clone()]);
                let stem_start = match start {
                    Start::Delta(_) => Start::Delta(0),
                    other => other,
                };
                let mut steps = order_body(&stem, stem_start, &[], &slots, db);
                let bound: Vec<usize> = atom_of(&stem.body[0])
                    .terms
                    .iter()
                    .filter_map(Term::var_name)
                    .map(|name| slots[name])
                    .collect();
                let old = matches!(start, Start::Delta(_));
                let bodies = members
                    .iter()
                    .map(|rule| {
                        let mut rest = rule.clone();
                        rest.body
                            .remove(first_positive(rule).expect("alike members"));
                        order_body(&rest, Start::Rest { old }, &bound, &slots, db)
                    })
                    .collect();
                steps.push(Step::Branch(bodies));
                steps
            }
            (_, None) => unreachable!("a family of several shares a positive atom"),
        };
        if maintained && matches!(start, Start::Delta(_)) {
            mark_head_known(&mut steps);
        }
        steps
    };

    let mut deltas = Vec::new();
    let mut negated = Vec::new();
    if let Some(shared) = shared {
        let rel = db.intern(&atom_of(&lead.body[shared]).predicate);
        deltas.push((rel, from_shared(Start::Delta(shared), db)));
    }
    for rule in members {
        for (at, item) in rule.body.iter().enumerate() {
            let (atom, variants) = match item {
                BodyItem::Positive(atom) if Some(at) != first_positive(rule) => (atom, &mut deltas),
                BodyItem::Negative(atom) if maintained => (atom, &mut negated),
                _ => continue,
            };
            let rel = db.intern(&atom.predicate);
            let mut steps = order_body(rule, Start::Delta(at), &[], &slots, db);
            if maintained {
                mark_head_known(&mut steps);
            }
            variants.push((rel, steps));
        }
    }
    RulePlan {
        head: db.intern(&lead.head.predicate),
        head_terms: lead.head.terms.iter().map(|t| operand(t, &slots)).collect(),
        slots: slots.len(),
        full: from_shared(Start::Full, db),
        deltas,
        negated,
        decide: if maintained {
            from_shared(Start::Head, db)
        } else {
            Vec::new()
        },
    }
}

/// Insert [`Step::Head`] before the first step that only checks — a `once`
/// scan or a branch — or at the end, if the last scan still binds a head
/// variable.
fn mark_head_known(steps: &mut Vec<Step>) {
    let at = steps
        .iter()
        .position(|step| matches!(step, Step::Scan(Scan { once: true, .. }) | Step::Branch(_)))
        .unwrap_or(steps.len());
    steps.insert(at, Step::Head);
}

/// Order one rule body.  The first atom is the one `start` names; each
/// later one is the remaining positive atom with the most bound columns
/// (ties: source order).  After every atom, the comparisons and negations
/// whose variables are now all bound follow, in source order.
fn order_body(
    rule: &Rule,
    start: Start,
    prebound: &[usize],
    slots: &HashMap<&str, usize>,
    db: &mut Database,
) -> Vec<Step> {
    let mut bound = vec![false; slots.len()];
    for &slot in prebound {
        bound[slot] = true;
    }
    // Head variables of a decide plan, until the atom that would have bound
    // them is placed.
    let mut pinned = vec![false; slots.len()];
    let mut placed = vec![false; rule.body.len()];
    let mut steps = Vec::with_capacity(rule.body.len());
    if let Start::Head = start {
        for name in rule.head.terms.iter().filter_map(Term::var_name) {
            bound[slots[name]] = true;
            pinned[slots[name]] = true;
        }
    }
    let is_bound = |term: &Term, bound: &[bool]| match term {
        Term::Const(_) => true,
        Term::Var(name) => bound[slots[name.as_str()]],
    };
    let operand = |term: &Term| operand(term, slots);

    loop {
        let first = steps.iter().all(|s| !matches!(s, Step::Scan(_)));
        // The next atom: the delta atom first, then by bound columns.
        let next = match start {
            Start::Delta(at) if first => Some(at),
            _ => {
                let mut candidates = (0..rule.body.len())
                    .filter(|&i| !placed[i] && matches!(rule.body[i], BodyItem::Positive(_)));
                match start {
                    Start::Full if first => candidates.next(),
                    _ => candidates.max_by_key(|&i| {
                        let BodyItem::Positive(atom) = &rule.body[i] else {
                            unreachable!("filtered to positive atoms above")
                        };
                        let known = atom.terms.iter().filter(|t| is_bound(t, &bound)).count();
                        (known, std::cmp::Reverse(i))
                    }),
                }
            }
        };
        if let Some(at) = next {
            placed[at] = true;
        }

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

        let Some(at) = next else {
            break;
        };
        let atom = atom_of(&rule.body[at]);
        let rel = db.intern(&atom.predicate);
        let delta = first && matches!(start, Start::Delta(_));
        let mut scan = Scan {
            rel,
            delta,
            index: None,
            bound: Vec::new(),
            same: Vec::new(),
            binds: Vec::new(),
            once: rule.head.terms.iter().all(|t| is_bound(t, &bound)),
            old: match start {
                Start::Delta(seed) => at > seed,
                Start::Rest { old } => old,
                Start::Full | Start::Head => false,
            },
        };
        for (col, term) in atom.terms.iter().enumerate() {
            if is_bound(term, &bound) {
                let known = match operand(term) {
                    Operand::Slot(slot) if std::mem::take(&mut pinned[slot]) => {
                        Operand::Pinned(slot)
                    }
                    known => known,
                };
                scan.bound.push((col, known));
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
        let compiled =
            CompiledProgram::compile(&parse_program(source).unwrap(), &mut db, true).unwrap();
        (compiled, db)
    }

    /// Walk a body in execution order — every branch of it — and check that
    /// every slot a step reads was bound by an earlier scan (or is one of
    /// the `preset` head slots of a decide plan, each of which must be
    /// pinned exactly once).  A plain rule's body also binds every slot.
    fn assert_reads_follow_binds(steps: &[Step], slots: usize, preset: &[usize], plain: bool) {
        fn walk(steps: &[Step], bound: &mut [bool], preset: &[usize], pinned: &mut Vec<usize>) {
            let mut check = |operand: &Operand, bound: &[bool], step: &Step| match operand {
                Operand::Slot(slot) => assert!(bound[*slot], "{step:?} reads unbound slot {slot}"),
                Operand::Pinned(slot) => {
                    assert!(preset.contains(slot), "{step:?} pins a body slot");
                    assert!(matches!(step, Step::Scan(_)), "only scans pin");
                    pinned.push(*slot);
                }
                Operand::Const(_) => {}
            };
            for step in steps {
                match step {
                    Step::Scan(scan) => {
                        for (_, operand) in &scan.bound {
                            check(operand, bound, step);
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
                        terms.iter().for_each(|t| check(t, bound, step));
                    }
                    Step::Compare { left, right, .. } => {
                        check(left, bound, step);
                        check(right, bound, step);
                    }
                    Step::Head => {}
                    Step::Branch(bodies) => {
                        assert!(
                            std::ptr::eq(step, steps.last().unwrap()),
                            "a branch ends a body"
                        );
                        for body in bodies {
                            let mut pinned_here = Vec::new();
                            walk(body, &mut bound.to_vec(), preset, &mut pinned_here);
                            assert!(pinned_here.is_empty(), "the shared atom pins the head");
                        }
                    }
                }
            }
        }
        let mut bound = vec![false; slots];
        for &slot in preset {
            bound[slot] = true;
        }
        let mut pinned = Vec::new();
        walk(steps, &mut bound, preset, &mut pinned);
        if plain {
            assert!(bound.iter().all(|&b| b), "every slot is bound by some scan");
        }
        pinned.sort_unstable();
        let mut preset = preset.to_vec();
        preset.sort_unstable();
        assert_eq!(pinned, preset, "every head slot is pinned exactly once");
    }

    /// Every body of a rule other than `full`.
    fn variants(rule: &RulePlan) -> impl Iterator<Item = &Vec<Step>> {
        let seeded = rule.deltas.iter().chain(&rule.negated).map(|v| &v.1);
        seeded.chain((!rule.decide.is_empty()).then_some(&rule.decide))
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
                let plain = !matches!(rule.full.last(), Some(Step::Branch(_)));
                assert_reads_follow_binds(&rule.full, rule.slots, &[], plain);
                for (_, variant) in rule.deltas.iter().chain(&rule.negated) {
                    assert_reads_follow_binds(variant, rule.slots, &[], plain);
                }
                if !rule.decide.is_empty() {
                    let mut head: Vec<usize> = rule
                        .head_terms
                        .iter()
                        .filter_map(|t| match t {
                            Operand::Slot(slot) => Some(*slot),
                            _ => None,
                        })
                        .collect();
                    head.sort_unstable();
                    head.dedup();
                    assert_reads_follow_binds(&rule.decide, rule.slots, &head, plain);
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
                Step::Head | Step::Branch(_) => unreachable!("a plain rule's full body"),
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
            let bodies = compiled
                .rules
                .iter()
                .flat_map(|rule| std::iter::once(&rule.full).chain(variants(rule)));
            let mut steps: Vec<&Step> = bodies.flatten().collect();
            while let Some(step) = steps.pop() {
                let scan = match step {
                    Step::Scan(scan) => scan,
                    Step::Branch(bodies) => {
                        steps.extend(bodies.iter().flatten());
                        continue;
                    }
                    _ => continue,
                };
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
        // The second index serves the decide plan: `T` given, `"w"` constant.
        assert_eq!(
            db.relation("op").unwrap().index_columns(),
            vec![vec![2], vec![0, 2]]
        );
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
        // Both `blocked` rules start `pending(Id, T, O)` and their head is
        // fixed by it: one family, one plan that branches.
        let blocked = &compiled.groups[2];
        assert_eq!(blocked.rules.len(), 1);
        assert!(blocked.negative.is_empty());
        let family = &compiled.rules[blocked.rules[0]];
        for body in [&family.full, &family.decide, &family.deltas[0].1] {
            let Some(Step::Branch(bodies)) = body.last() else {
                panic!("{body:?} should end in a branch");
            };
            assert_eq!(bodies.len(), 2);
        }
        // From another atom's delta a body is one member's alone.
        let from: Vec<&str> = family.deltas.iter().map(|d| db.name_of(d.0)).collect();
        assert_eq!(from, ["pending", "locked", "pending"]);
        for (_, body) in &family.deltas[1..] {
            assert!(!body.iter().any(|step| matches!(step, Step::Branch(_))));
        }
        assert_eq!(
            compiled.groups[3].negative,
            vec![db.id_of("blocked").unwrap()]
        );
    }

    /// One word per step: `delta r` / `scan r[probed cols]` (`*` marks a
    /// pinned column, `+old` a scan that also reads retracted rows).
    fn shape(steps: &[Step], db: &Database) -> Vec<String> {
        steps
            .iter()
            .map(|step| match step {
                Step::Scan(scan) if scan.delta => format!("delta {}", db.name_of(scan.rel)),
                Step::Scan(scan) => {
                    let cols: Vec<String> = scan
                        .bound
                        .iter()
                        .map(|(col, operand)| match operand {
                            Operand::Pinned(_) => format!("{col}*"),
                            _ => col.to_string(),
                        })
                        .collect();
                    let old = if scan.old { "+old" } else { "" };
                    format!("scan {}[{}]{old}", db.name_of(scan.rel), cols.join(","))
                }
                Step::Negate { rel, .. } => format!("not {}", db.name_of(*rel)),
                Step::Compare { op, .. } => format!("cmp {op}"),
                Step::Head => "head".into(),
                Step::Branch(bodies) => {
                    let bodies: Vec<String> =
                        bodies.iter().map(|b| shape(b, db).join(" ")).collect();
                    format!("branch({})", bodies.join(" | "))
                }
            })
            .collect()
    }

    #[test]
    fn a_maintained_rule_is_entered_from_negated_atoms_and_from_its_head() {
        let (compiled, db) = compile(CORPUS[3]);
        let locked = &compiled.rules[1];
        assert_eq!(
            shape(&locked.full, &db),
            ["scan history[2]", "not finished"]
        );
        // From the atom's own delta: the head is known at once, the check
        // comes after the filters that cost nothing.
        assert_eq!(
            shape(&locked.deltas[0].1, &db),
            ["delta history", "not finished", "head"]
        );
        // From the negated atom's delta: the atom is read as a scan and its
        // own negation is gone; `history` stands before it in the rule and
        // so reads the current state only.
        assert_eq!(db.name_of(locked.negated[0].0), "finished");
        assert_eq!(
            shape(&locked.negated[0].1, &db),
            ["delta finished", "scan history[0,2]", "head"]
        );
        // From a head tuple: both head variables pinned where `history`
        // would have bound them, the filter on them alone first.
        assert_eq!(
            shape(&locked.decide, &db),
            ["not finished", "scan history[0*,1*,2]"]
        );

        // The `blocked` family: from the shared atom every member's rest
        // may have to read what was retracted; from a later atom, the atoms
        // before it read the current state only.
        let blocked = &compiled.rules[2];
        assert_eq!(
            shape(&blocked.deltas[0].1, &db),
            [
                "delta pending",
                "head",
                "branch(scan locked[0]+old cmp != | scan pending[2]+old cmp <)"
            ]
        );
        assert_eq!(
            shape(&blocked.deltas[1].1, &db),
            ["delta locked", "scan pending[2]", "cmp !=", "head"]
        );
        assert_eq!(
            shape(&blocked.decide, &db),
            [
                "scan pending[0*]",
                "branch(scan locked[0] cmp != | scan pending[2] cmp <)"
            ]
        );

        // A recursive rule is resumed or recomputed, never entered so.
        let (compiled, _) = compile(CORPUS[0]);
        for rule in &compiled.rules {
            assert!(rule.negated.is_empty() && rule.decide.is_empty());
            let bodies = rule.deltas.iter().map(|d| &d.1).chain([&rule.full]);
            assert!(bodies
                .flatten()
                .all(|s| !matches!(s, Step::Head | Step::Branch(_))));
        }
    }

    #[test]
    fn interleaved_families_are_each_one_member_of_their_group() {
        // Rules 1 and 3 start `req(Id, T, Op, O)`, rules 2 and 4
        // `req(Id, T, "w", O)`: two families, written interleaved.
        let (compiled, _) = compile(
            r#"
            blocked(T) :- req(Id, T, Op, O), lock(O, T2), T != T2.
            blocked(T) :- req(Id, T, "w", O), rlock(O, T2), T != T2.
            blocked(T2) :- req(Id2, T2, Op2, O), req(Id1, T1, "w", O), T2 > T1.
            blocked(T2) :- req(Id2, T2, "w", O), req(Id1, T1, Op1, O), T2 > T1.
            "#,
        );
        assert_eq!(compiled.rules.len(), 2);
        assert_eq!(compiled.groups.len(), 1);
        assert_eq!(compiled.groups[0].rules, [0, 1], "each family runs once");
    }

    #[test]
    fn facts_already_stored_under_another_arity_fail_compilation() {
        let mut db = Database::new();
        db.add_fact("edge", &[1.into()]).unwrap();
        let err = CompiledProgram::compile(&parse_program(CORPUS[0]).unwrap(), &mut db, true)
            .unwrap_err();
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
