//! Execution of compiled rule plans: one executor, semi-naive per stratum,
//! and the signed-delta maintenance of the strata that do not recurse.
//!
//! The `plan` module has already resolved predicates to relation ids, variables
//! to frame slots and joins to index probes; what is left is to walk a body's
//! steps, binding slots as scans match rows, and to build the head tuple when
//! the last step passes.  Within one fixpoint a rule's *delta* is never
//! copied: derived rows are appended to their relation, so "the rows added in
//! the previous pass" is a range of the relation's own row vector.  Across
//! evaluations a relation's change is an explicit `Delta` — rows in, rows
//! out — because a retraction moves rows around.

use crate::ast::Program;
use crate::engine::{identical, join_hash, Database, Delta, Probe, Relation};
use crate::error::DatalogResult;
use crate::plan::{CompiledProgram, Group, Operand, RulePlan, Scan, Step};
use relalg::{Tuple, Value};

/// Reusable evaluation state: the binding frame, the buffer of head tuples a
/// rule derived, per relation id the delta range `lo..hi` of the current
/// semi-naive pass, and what a maintenance pass has still to decide —
/// `doubted`, the head rows that may have lost their last derivation (row
/// ids; a row is listed once, `stamps[id] == epoch` marks it), and per head
/// relation id `hoped`, the set of tuples that may have gained their first.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    frame: Vec<Value>,
    derived: Vec<Tuple>,
    lo: Vec<usize>,
    hi: Vec<usize>,
    /// Per head relation id, its length when the group was last resumed.
    resumed_at: Vec<usize>,
    doubted: Vec<u32>,
    stamps: Vec<u32>,
    epoch: u32,
    hoped: Vec<Relation>,
}

/// Evaluate a program against a database of facts, returning a database that
/// contains both the original facts and all derived relations.
///
/// The program is compiled once (the `plan` module) against `db` — facts stored
/// there under an arity the program does not use are rejected with
/// [`crate::DatalogError::FactArity`] — and then evaluated stratum by
/// stratum.  Within a stratum the rules run with semi-naive (delta)
/// iteration: in every pass only bindings that use at least one tuple derived
/// in the previous pass are recomputed, which turns the classic
/// transitive-closure blow-up into linear work per new fact.
pub fn evaluate(program: &Program, mut db: Database) -> DatalogResult<Database> {
    let compiled = CompiledProgram::compile(program, &mut db, false)?;
    compiled.load_facts(&mut db, None);
    let mut scratch = Scratch::default();
    for group in &compiled.groups {
        recompute_group(&compiled, group, &mut db, &mut scratch);
    }
    Ok(db)
}

/// Fixpoint of one group over the current contents of the relations it
/// reads: every rule runs once over the full relations, then semi-naive
/// passes follow what that derived.  Rows already in the head relations
/// (program facts) stay.
pub(crate) fn recompute_group(
    program: &CompiledProgram,
    group: &Group,
    db: &mut Database,
    scratch: &mut Scratch,
) {
    scratch.fit(db);
    for &head in &group.heads {
        scratch.lo[head] = db.rel(head).len();
    }
    for &rule in &group.rules {
        let rule = &program.rules[rule];
        fire(rule, &rule.full, db, scratch, Seed::Rows(&[]));
    }
    drain(program, group, db, scratch, &[]);
}

/// Resume a recursive group's semi-naive iteration: `db` holds a fixpoint
/// of its rules over the previous facts, and `deltas[rel].plus` are the rows
/// the relations it reads gained since (none lost any).  Because semi-naive
/// iteration is insensitive to *when* a delta arrives (every rule is
/// re-derived with each positive atom restricted to the delta in turn),
/// continuing from the persisted fixpoint yields exactly the fixpoint over
/// the enlarged fact set, in time proportional to the new derivations.  What
/// the heads gain is recorded in their own deltas.
pub(crate) fn resume_group(
    program: &CompiledProgram,
    group: &Group,
    db: &mut Database,
    scratch: &mut Scratch,
    deltas: &mut [Delta],
) {
    scratch.fit(db);
    for &head in &group.heads {
        scratch.lo[head] = db.rel(head).len();
        scratch.resumed_at[head] = scratch.lo[head];
    }
    drain(program, group, db, scratch, deltas);
    for &head in &group.heads {
        let gained = &db.rel(head).rows()[scratch.resumed_at[head]..];
        deltas[head].plus.extend_from_slice(gained);
    }
}

/// Semi-naive passes until nothing new is derived.  On entry `lo[head]`
/// marks where each head's delta starts; a pass reads `lo..hi` with `hi` the
/// length at its start, and the rows it appends are the next pass's delta.
/// The relations the group reads but does not derive contribute `inputs`
/// (their gained rows, possibly none) to the first pass only.
fn drain(
    program: &CompiledProgram,
    group: &Group,
    db: &mut Database,
    scratch: &mut Scratch,
    mut inputs: &[Delta],
) {
    loop {
        for &head in &group.heads {
            scratch.hi[head] = db.rel(head).len();
        }
        let mut grew = false;
        for &rule in &group.rules {
            let rule = &program.rules[rule];
            for (rel, steps) in &rule.deltas {
                if group.heads.contains(rel) {
                    let (lo, hi) = (scratch.lo[*rel], scratch.hi[*rel]);
                    if lo < hi {
                        grew |= fire(rule, steps, db, scratch, Seed::Range(*rel, lo, hi));
                    }
                } else if inputs.get(*rel).is_some_and(|d| !d.plus.is_empty()) {
                    grew |= fire(rule, steps, db, scratch, Seed::Rows(&inputs[*rel].plus));
                }
            }
        }
        inputs = &[];
        if !grew {
            return;
        }
        for &head in &group.heads {
            scratch.lo[head] = scratch.hi[head];
        }
    }
}

/// The rows a body's `delta` scan reads.
#[derive(Clone, Copy)]
enum Seed<'a> {
    /// `rows()[lo..hi]` of a relation: a pass's delta inside one fixpoint.
    Range(usize, usize, usize),
    /// An explicit buffer: a relation's change between evaluations.
    Rows(&'a [Tuple]),
}

/// Run one body of `rule` over the relations as they are and leave the head
/// tuples it derives in `scratch.derived`.
fn derive(rule: &RulePlan, steps: &[Step], db: &Database, scratch: &mut Scratch, seed: Seed) {
    let seed = match seed {
        Seed::Range(rel, lo, hi) => &db.rel(rel).rows()[lo..hi],
        Seed::Rows(rows) => rows,
    };
    scratch.blank_frame(rule);
    Exec::<_, false> {
        db,
        seed,
        deltas: &[],
        frame: &mut scratch.frame,
        head: &rule.head_terms,
        head_rel: rule.head,
        out: &mut scratch.derived,
    }
    .run(steps);
}

/// Run one body of `rule` and insert the head tuples it derives; returns
/// whether any of them was new.
fn fire(
    rule: &RulePlan,
    steps: &[Step],
    db: &mut Database,
    scratch: &mut Scratch,
    seed: Seed,
) -> bool {
    derive(rule, steps, db, scratch, seed);
    let head = db.rel_mut(rule.head);
    let mut grew = false;
    for row in scratch.derived.drain(..) {
        grew |= head.insert(row.values());
    }
    grew
}

/// Bring the head of a non-recursive group from its value over the previous
/// state of the relations it reads to its value over their current state,
/// given their signed `deltas`, and record the head's own delta there.
/// Returns the number of head rows inserted or retracted.
///
/// A head tuple changes only if some derivation of it uses a changed row,
/// so the affected tuples are found by running each rule from each changed
/// atom's delta:
///
/// * a positive atom that **gained** rows can only add derivations, and what
///   the delta-first body derives over the current state holds: it is
///   inserted as is (the semi-naive step);
/// * a positive atom that **lost** rows, or a negated atom that gained some,
///   can only remove derivations.  The delta-first body then runs over a
///   superset of the previous state (current rows plus the retracted ones,
///   negations not applied, NULL matching NULL) and yields *candidates*;
///   each candidate that is in the head is decided by the head-bound
///   existence probe over the current state and retracted if no rule
///   derives it any more;
/// * a negated atom that lost rows can only add derivations: candidates the
///   same way, each one not in the head decided and inserted if derivable.
///
/// Losses are settled before gains, so a tuple that trades one derivation
/// for another is decided once, against the final state, and stays.
pub(crate) fn maintain_group(
    program: &CompiledProgram,
    group: &Group,
    db: &mut Database,
    scratch: &mut Scratch,
    deltas: &mut [Delta],
) -> usize {
    scratch.fit(db);
    let head = group.heads[0];
    let mut changed = std::mem::take(&mut deltas[head]);
    let rules = || group.rules.iter().map(|&rule| &program.rules[rule]);

    // Losses.  The head stands still while its rows are doubted (row ids
    // hold) and while they are decided (no rule of the group reads it).
    scratch.epoch = scratch.epoch.wrapping_add(1);
    if scratch.epoch == 0 {
        scratch.stamps.fill(0);
        scratch.epoch = 1;
    }
    if scratch.stamps.len() < db.rel(head).len() {
        scratch.stamps.resize(db.rel(head).len(), 0);
    }
    let mut doubted = Doubted {
        rows: std::mem::take(&mut scratch.doubted),
        stamps: std::mem::take(&mut scratch.stamps),
        epoch: scratch.epoch,
        at: 0,
    };
    for rule in rules() {
        for (rel, steps) in &rule.deltas {
            collect(
                rule,
                steps,
                db,
                scratch,
                deltas,
                &deltas[*rel].minus,
                &mut doubted,
            );
        }
        for (rel, steps) in &rule.negated {
            collect(
                rule,
                steps,
                db,
                scratch,
                deltas,
                &deltas[*rel].plus,
                &mut doubted,
            );
        }
    }
    for id in doubted.rows.drain(..) {
        let row = &db.rel(head).rows()[id as usize];
        if !derivable(program, group, db, scratch, row.values()) {
            changed.minus.push(row.clone());
        }
    }
    scratch.doubted = doubted.rows;
    scratch.stamps = doubted.stamps;
    for row in &changed.minus {
        db.rel_mut(head).retract(row.values());
    }

    // Gains.
    for rule in rules() {
        for (rel, steps) in &rule.deltas {
            if !deltas[*rel].plus.is_empty() {
                derive(rule, steps, db, scratch, Seed::Rows(&deltas[*rel].plus));
                for row in scratch.derived.drain(..) {
                    if db.rel_mut(head).insert(row.values()) {
                        changed.plus.push(row);
                    }
                }
            }
        }
    }
    let mut hoped = std::mem::take(&mut scratch.hoped[head]);
    if hoped.arity().is_none() {
        let arity = db.rel(head).arity();
        let arity = arity.expect("compilation pinned every arity");
        hoped.pin_arity(arity).expect("pinned once, here");
    }
    for rule in rules() {
        for (rel, steps) in &rule.negated {
            collect(
                rule,
                steps,
                db,
                scratch,
                deltas,
                &deltas[*rel].minus,
                &mut hoped,
            );
        }
    }
    for row in hoped.rows() {
        if derivable(program, group, db, scratch, row.values()) {
            db.rel_mut(head).insert(row.values());
            changed.plus.push(row.clone());
        }
    }
    hoped.clear();
    scratch.hoped[head] = hoped;

    let rows = changed.plus.len() + changed.minus.len();
    deltas[head] = changed;
    rows
}

/// Run a delta-first body of `rule` from `seed` over a superset of the
/// previous and the current state, and hand the head tuples it reaches to
/// `candidates`.
fn collect(
    rule: &RulePlan,
    steps: &[Step],
    db: &Database,
    scratch: &mut Scratch,
    deltas: &[Delta],
    seed: &[Tuple],
    candidates: &mut impl Sink,
) {
    if seed.is_empty() {
        return;
    }
    scratch.blank_frame(rule);
    Exec::<_, true> {
        db,
        seed,
        deltas,
        frame: &mut scratch.frame,
        head: &rule.head_terms,
        head_rel: rule.head,
        out: candidates,
    }
    .run(steps);
}

/// Whether some rule of the group (or a fact of the program text) derives
/// the head tuple `row` over the current state.
fn derivable(
    program: &CompiledProgram,
    group: &Group,
    db: &Database,
    scratch: &mut Scratch,
    row: &[Value],
) -> bool {
    let by_rule = group.rules.iter().any(|&rule| {
        let rule = &program.rules[rule];
        scratch.blank_frame(rule);
        // Preset the head variables; a constant or a repeated variable in
        // the head decides some tuples without running the body.
        for (col, term) in rule.head_terms.iter().enumerate() {
            let fits = match term {
                Operand::Const(value) => *value == row[col],
                Operand::Slot(slot) => {
                    match rule.head_terms[..col].iter().position(|t| t == term) {
                        Some(earlier) => row[earlier] == row[col],
                        None => {
                            scratch.frame[*slot] = row[col];
                            true
                        }
                    }
                }
                Operand::Pinned(_) => unreachable!("head terms are slots and constants"),
            };
            if !fits {
                return false;
            }
        }
        Exec::<_, false> {
            db,
            seed: &[],
            deltas: &[],
            frame: &mut scratch.frame,
            head: &rule.head_terms,
            head_rel: rule.head,
            out: &mut Found,
        }
        .run(&rule.decide)
    });
    by_rule || program.states_fact(group.heads[0], row)
}

impl Scratch {
    fn blank_frame(&mut self, rule: &RulePlan) {
        self.frame.clear();
        self.frame.resize(rule.slots, Value::Null);
    }

    fn fit(&mut self, db: &Database) {
        if self.lo.len() < db.relation_count() {
            self.lo.resize(db.relation_count(), 0);
            self.hi.resize(db.relation_count(), 0);
            self.resumed_at.resize(db.relation_count(), 0);
            self.hoped.resize_with(db.relation_count(), Relation::new);
        }
    }
}

/// The rows a scan visits: a slice of rows, or one index chain.
enum Candidates<'a> {
    Rows(std::slice::Iter<'a, Tuple>),
    Chain(Probe<'a>),
}

impl<'a> Iterator for Candidates<'a> {
    type Item = &'a Tuple;

    #[inline]
    fn next(&mut self) -> Option<&'a Tuple> {
        match self {
            Candidates::Rows(rows) => rows.next(),
            Candidates::Chain(chain) => chain.next(),
        }
    }
}

/// One run of one rule body.  `LOOSE` runs it over a superset of the
/// previous and the current state, to find the head tuples a retraction may
/// have cost a derivation: every scan also visits the rows its relation lost
/// since the last evaluation, negations pass, and columns compare by
/// identity-or-equality (NULL matches NULL, as it does where a variable is
/// bound rather than compared).
struct Exec<'a, S: Sink, const LOOSE: bool> {
    db: &'a Database,
    /// What a `delta` scan reads.
    seed: &'a [Tuple],
    /// Per relation id, its change since the last evaluation (`LOOSE` only:
    /// the rows a scan marked `old` visits besides the current ones).
    deltas: &'a [Delta],
    frame: &'a mut [Value],
    head: &'a [Operand],
    head_rel: usize,
    out: &'a mut S,
}

/// What a body run is looking for: which head tuples are worth the rest of
/// the body once they are known ([`Step::Head`]), and where the ones it
/// reaches go.
trait Sink {
    /// Whether `row`, given `head` as it stands, is still of interest.
    fn admits(&mut self, head: &Relation, row: &[Value]) -> bool;
    /// `row` was reached (after `admits(row)`, where the body has a
    /// [`Step::Head`]).
    fn emit(&mut self, row: &[Value]);
}

/// Derived tuples, for the caller to insert: one already in the head gains
/// nothing from one more derivation.
impl Sink for Vec<Tuple> {
    fn admits(&mut self, head: &Relation, row: &[Value]) -> bool {
        !head.contains(row)
    }
    fn emit(&mut self, row: &[Value]) {
        self.push(Tuple::from_slice(row));
    }
}

/// Tuples that may have gained a first derivation: a set (a relation of its
/// own, so duplicates fall away) of tuples not in the head.
impl Sink for Relation {
    fn admits(&mut self, head: &Relation, row: &[Value]) -> bool {
        !head.contains(row)
    }
    fn emit(&mut self, row: &[Value]) {
        self.insert(row);
    }
}

/// Head rows that may have lost their last derivation, by row id, each
/// listed once.  A tuple that is not in the head has none to lose.
struct Doubted {
    rows: Vec<u32>,
    stamps: Vec<u32>,
    epoch: u32,
    /// The row `admits` last let through — the one `emit` lists.
    at: u32,
}

impl Sink for Doubted {
    fn admits(&mut self, head: &Relation, row: &[Value]) -> bool {
        match head.position(row) {
            Some(at) if self.stamps[at as usize] != self.epoch => {
                self.at = at;
                true
            }
            _ => false,
        }
    }
    fn emit(&mut self, _: &[Value]) {
        self.stamps[self.at as usize] = self.epoch;
        self.rows.push(self.at);
    }
}

/// Only whether anything was reached matters (decide plans).
struct Found;

impl Sink for Found {
    fn admits(&mut self, _: &Relation, _: &[Value]) -> bool {
        true
    }
    fn emit(&mut self, _: &[Value]) {}
}

/// Build the ground tuple `terms` denote under `frame` and hand it to `f` —
/// on the stack for every arity a [`Tuple`] stores inline.
#[inline]
fn with_row<R>(frame: &[Value], terms: &[Operand], f: impl FnOnce(&[Value]) -> R) -> R {
    let value = |term: &Operand| match term {
        Operand::Slot(slot) | Operand::Pinned(slot) => frame[*slot],
        Operand::Const(value) => *value,
    };
    if terms.len() <= Tuple::INLINE {
        let mut row = [Value::Null; Tuple::INLINE];
        for (cell, term) in row.iter_mut().zip(terms) {
            *cell = value(term);
        }
        f(&row[..terms.len()])
    } else {
        let row: Vec<Value> = terms.iter().map(value).collect();
        f(&row)
    }
}

/// SQL equality, the join condition: integers and interned strings — nearly
/// every comparison — without the detour through an ordering.
#[inline]
fn joins(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Str(a), Value::Str(b)) => a == b,
        _ => a.sql_eq(b) == Some(true),
    }
}

impl<S: Sink, const LOOSE: bool> Exec<'_, S, LOOSE> {
    #[inline]
    fn value<'v>(&'v self, operand: &'v Operand) -> &'v Value {
        match operand {
            Operand::Slot(slot) | Operand::Pinned(slot) => &self.frame[*slot],
            Operand::Const(value) => value,
        }
    }

    /// Execute `steps` under the current bindings; returns whether a head
    /// tuple was emitted.
    fn run(&mut self, steps: &[Step]) -> bool {
        let Some((step, rest)) = steps.split_first() else {
            with_row(self.frame, self.head, |row| self.out.emit(row));
            return true;
        };
        match step {
            Step::Compare { op, left, right } => {
                op.apply(self.value(left), self.value(right)) && self.run(rest)
            }
            Step::Branch(bodies) => bodies.iter().any(|body| self.run(body)),
            Step::Head => {
                let relation = self.db.rel(self.head_rel);
                with_row(self.frame, self.head, |row| self.out.admits(relation, row))
                    && self.run(rest)
            }
            Step::Negate { rel, terms } => {
                let relation = self.db.rel(*rel);
                (LOOSE || !with_row(self.frame, terms, |row| relation.contains(row)))
                    && self.run(rest)
            }
            Step::Scan(scan) => {
                let relation = self.db.rel(scan.rel);
                let candidates = if scan.delta {
                    Candidates::Rows(self.seed.iter())
                } else if let Some(index) = scan.index {
                    let key = scan.bound.iter().map(|(_, operand)| self.value(operand));
                    Candidates::Chain(relation.probe(index, join_hash(key)))
                } else {
                    Candidates::Rows(relation.rows().iter())
                };
                let gone: &[Tuple] = match self.deltas.get(scan.rel) {
                    Some(delta) if LOOSE && scan.old => &delta.minus,
                    _ => &[],
                };
                let mut emitted = false;
                for row in candidates.chain(gone) {
                    emitted |= self.visit(scan, row, rest);
                    if emitted && scan.once {
                        break;
                    }
                }
                emitted
            }
        }
    }

    /// Match one candidate row against a scan and, if it fits, continue with
    /// the rest of the body.
    #[inline]
    fn visit(&mut self, scan: &Scan, row: &Tuple, rest: &[Step]) -> bool {
        let values = row.values();
        for (col, operand) in &scan.bound {
            let known = self.value(operand);
            let fits = if LOOSE || matches!(operand, Operand::Pinned(_)) {
                identical(&values[*col], known)
            } else {
                joins(&values[*col], known)
            };
            if !fits {
                return false;
            }
        }
        for &(col, earlier) in &scan.same {
            let fits = if LOOSE {
                identical(&values[col], &values[earlier])
            } else {
                joins(&values[col], &values[earlier])
            };
            if !fits {
                return false;
            }
        }
        for &(col, slot) in &scan.binds {
            self.frame[slot] = values[col];
        }
        self.run(rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Relation;
    use crate::error::DatalogError;
    use crate::parser::parse_program;

    fn ints(rel: &Relation) -> Vec<Vec<i64>> {
        let mut rows: Vec<Vec<i64>> = rel
            .rows()
            .iter()
            .map(|r| r.values().iter().map(|v| v.as_int().unwrap()).collect())
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn transitive_closure() {
        let program = parse_program(
            r#"
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- reach(X, Y), edge(Y, Z).
            "#,
        )
        .unwrap();
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db.add_fact("edge", &[a.into(), b.into()]).unwrap();
        }
        let out = evaluate(&program, db).unwrap();
        let reach = ints(out.relation("reach").unwrap());
        assert_eq!(
            reach,
            vec![
                vec![1, 2],
                vec![1, 3],
                vec![1, 4],
                vec![2, 3],
                vec![2, 4],
                vec![3, 4]
            ]
        );
    }

    #[test]
    fn facts_in_program_text_are_loaded() {
        let program = parse_program(
            r#"
            edge(1, 2).
            edge(2, 3).
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- reach(X, Y), edge(Y, Z).
            "#,
        )
        .unwrap();
        let out = evaluate(&program, Database::new()).unwrap();
        assert_eq!(out.relation("reach").unwrap().len(), 3);
    }

    #[test]
    fn stratified_negation_computes_complement() {
        let program = parse_program(
            r#"
            locked(O) :- history(T, O, "w").
            free(O) :- object(O), !locked(O).
            "#,
        )
        .unwrap();
        let mut db = Database::new();
        for o in 1..=4 {
            db.add_fact("object", &[o.into()]).unwrap();
        }
        db.add_fact("history", &[10.into(), 2.into(), "w".into()])
            .unwrap();
        db.add_fact("history", &[11.into(), 3.into(), "r".into()])
            .unwrap();
        let out = evaluate(&program, db).unwrap();
        let free = ints(out.relation("free").unwrap());
        assert_eq!(free, vec![vec![1], vec![3], vec![4]]);
    }

    #[test]
    fn comparisons_filter_bindings() {
        let program = parse_program(
            r#"
            conflict(T1, T2) :- op(T1, O), op(T2, O), T1 < T2.
            "#,
        )
        .unwrap();
        let mut db = Database::new();
        db.add_fact("op", &[1.into(), 7.into()]).unwrap();
        db.add_fact("op", &[2.into(), 7.into()]).unwrap();
        db.add_fact("op", &[3.into(), 8.into()]).unwrap();
        let out = evaluate(&program, db).unwrap();
        assert_eq!(ints(out.relation("conflict").unwrap()), vec![vec![1, 2]]);
    }

    #[test]
    fn constants_in_atoms_select_rows() {
        let program = parse_program(
            r#"
            writes(T) :- op(T, O, "w").
            "#,
        )
        .unwrap();
        let mut db = Database::new();
        db.add_fact("op", &[1.into(), 5.into(), "r".into()])
            .unwrap();
        db.add_fact("op", &[2.into(), 5.into(), "w".into()])
            .unwrap();
        let out = evaluate(&program, db).unwrap();
        assert_eq!(ints(out.relation("writes").unwrap()), vec![vec![2]]);
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let program = parse_program(
            r#"
            self(X) :- edge(X, X).
            "#,
        )
        .unwrap();
        let mut db = Database::new();
        db.add_fact("edge", &[1.into(), 1.into()]).unwrap();
        db.add_fact("edge", &[1.into(), 2.into()]).unwrap();
        let out = evaluate(&program, db).unwrap();
        assert_eq!(ints(out.relation("self").unwrap()), vec![vec![1]]);
    }

    #[test]
    fn a_scan_that_only_checks_stops_at_its_first_match() {
        // `hit` needs one witness per X, however many there are; the head
        // relation is the same either way.
        let program = parse_program("hit(X) :- src(X), edge(X, Y), Y > 0.").unwrap();
        let mut db = Database::new();
        db.add_fact("src", &[1.into()]).unwrap();
        db.add_fact("src", &[2.into()]).unwrap();
        for y in [0, 5, 6, 7] {
            db.add_fact("edge", &[1.into(), y.into()]).unwrap();
        }
        db.add_fact("edge", &[2.into(), 0.into()]).unwrap();
        let out = evaluate(&program, db).unwrap();
        assert_eq!(ints(out.relation("hit").unwrap()), vec![vec![1]]);
    }

    #[test]
    fn empty_edb_relations_yield_empty_idb() {
        let program = parse_program("q(X) :- p(X).").unwrap();
        let out = evaluate(&program, Database::new()).unwrap();
        assert!(out.relation("q").unwrap().is_empty());
    }

    #[test]
    fn unstratifiable_program_rejected_at_eval() {
        let program = parse_program("win(X) :- move(X, Y), !win(Y).").unwrap();
        let err = evaluate(&program, Database::new()).unwrap_err();
        assert!(matches!(err, DatalogError::NotStratifiable { .. }));
    }

    #[test]
    fn wrong_arity_facts_are_rejected_before_any_rule_runs() {
        // No rule ever scans `aux` in a way that matches; the old
        // evaluator found the arity error only when a rule visited a row.
        let program = parse_program("q(X) :- p(X), aux(X, Y).").unwrap();
        let mut db = Database::new();
        db.add_fact("aux", &[1.into()]).unwrap();
        let err = evaluate(&program, db).unwrap_err();
        assert_eq!(
            err,
            DatalogError::FactArity {
                predicate: "aux".into(),
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn multi_stratum_pipeline_matches_manual_computation() {
        // A miniature SS2PL shape: derive write-locked objects, then
        // qualified requests are pending requests on objects that are not
        // write-locked by *another* transaction.
        let program = parse_program(
            r#"
            wlocked(O, T) :- history(T, O, "w"), !finished(T).
            finished(T) :- history(T, O, "c").
            blocked(Id) :- pending(Id, T, O), wlocked(O, T2), T != T2.
            qualified(Id) :- pending(Id, T, O), !blocked(Id).
            "#,
        )
        .unwrap();
        let mut db = Database::new();
        // txn 1 wrote object 5 and committed; txn 2 wrote object 6, still active.
        db.add_facts(
            "history",
            [
                [1.into(), 5.into(), "w".into()],
                [1.into(), 5.into(), "c".into()],
                [2.into(), 6.into(), "w".into()],
            ],
        )
        .unwrap();
        db.add_facts(
            "pending",
            [
                [100.into(), 3.into(), 5.into()], // object 5 free (txn1 finished)
                [101.into(), 3.into(), 6.into()], // object 6 locked by txn2
                [102.into(), 2.into(), 6.into()], // txn2's own request on 6: allowed
            ],
        )
        .unwrap();
        let out = evaluate(&program, db).unwrap();
        assert_eq!(
            ints(out.relation("qualified").unwrap()),
            vec![vec![100], vec![102]]
        );
        assert_eq!(ints(out.relation("blocked").unwrap()), vec![vec![101]]);
    }

    #[test]
    fn larger_chain_uses_semi_naive_efficiently() {
        // A 200-node chain: naive evaluation would be quadratic in rounds;
        // this completes quickly and exactly.
        let program = parse_program(
            r#"
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- reach(X, Y), edge(Y, Z).
            "#,
        )
        .unwrap();
        let mut db = Database::new();
        let n = 200i64;
        for i in 0..n {
            db.add_fact("edge", &[i.into(), (i + 1).into()]).unwrap();
        }
        let out = evaluate(&program, db).unwrap();
        let expected = (n * (n + 1) / 2) as usize;
        assert_eq!(out.relation("reach").unwrap().len(), expected);
    }
}
