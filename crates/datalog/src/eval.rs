//! Execution of compiled rule plans: one executor, semi-naive per stratum.
//!
//! The `plan` module has already resolved predicates to relation ids, variables
//! to frame slots and joins to index probes; what is left is to walk a body's
//! steps, binding slots as scans match rows, and to build the head tuple when
//! the last step passes.  A rule's *delta* is never copied: derived rows are
//! appended to their relation, so "the rows added in the previous pass" is a
//! range of the relation's own row vector.

use crate::ast::Program;
use crate::engine::{join_hash, Database, Probe};
use crate::error::DatalogResult;
use crate::plan::{CompiledProgram, Group, Operand, RulePlan, Scan, Step};
use relalg::{Tuple, Value};

/// Reusable evaluation state: the binding frame, the buffer of head tuples a
/// rule derived, and per relation id the delta range `lo..hi` of the current
/// semi-naive pass.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    frame: Vec<Value>,
    derived: Vec<Tuple>,
    lo: Vec<usize>,
    hi: Vec<usize>,
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
    let compiled = CompiledProgram::compile(program, &mut db)?;
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
    for &rel in &group.positive {
        scratch.lo[rel] = db.rel(rel).len();
    }
    for &rule in &group.rules {
        let rule = &program.rules[rule];
        fire(rule, &rule.full, db, scratch);
    }
    drain(program, group, db, scratch);
}

/// Resume a group's semi-naive iteration: `db` holds a fixpoint of its rules
/// over the previous facts, and for every relation `rel` the rows from
/// `delta_start[rel]` on were added since.  Because semi-naive iteration is
/// insensitive to *when* a delta arrives (every rule is re-derived with each
/// positive atom restricted to the delta in turn), continuing from the
/// persisted fixpoint yields exactly the fixpoint over the enlarged fact set,
/// in time proportional to the new derivations.
pub(crate) fn resume_group(
    program: &CompiledProgram,
    group: &Group,
    db: &mut Database,
    scratch: &mut Scratch,
    delta_start: &[usize],
) {
    scratch.fit(db);
    for &rel in &group.positive {
        scratch.lo[rel] = delta_start[rel];
    }
    drain(program, group, db, scratch);
}

/// Semi-naive passes until nothing new is derived.  On entry `lo[rel]` marks
/// where each scanned relation's delta starts; a pass reads `lo..hi` with
/// `hi` the length at its start, and the rows it appends are the next pass's
/// delta.
fn drain(program: &CompiledProgram, group: &Group, db: &mut Database, scratch: &mut Scratch) {
    loop {
        for &rel in &group.positive {
            scratch.hi[rel] = db.rel(rel).len();
        }
        let mut grew = false;
        for &rule in &group.rules {
            let rule = &program.rules[rule];
            for (rel, steps) in &rule.deltas {
                if scratch.lo[*rel] < scratch.hi[*rel] {
                    grew |= fire(rule, steps, db, scratch);
                }
            }
        }
        if !grew {
            return;
        }
        for &rel in &group.positive {
            scratch.lo[rel] = scratch.hi[rel];
        }
    }
}

/// Run one body of `rule` and insert the head tuples it derives; returns
/// whether any of them was new.
fn fire(rule: &RulePlan, steps: &[Step], db: &mut Database, scratch: &mut Scratch) -> bool {
    scratch.frame.clear();
    scratch.frame.resize(rule.slots, Value::Null);
    Exec {
        db,
        lo: &scratch.lo,
        hi: &scratch.hi,
        frame: &mut scratch.frame,
        head: &rule.head_terms,
        out: &mut scratch.derived,
    }
    .run(steps);
    let head = db.rel_mut(rule.head);
    let mut grew = false;
    for row in scratch.derived.drain(..) {
        grew |= head.insert(row.values());
    }
    grew
}

impl Scratch {
    fn fit(&mut self, db: &Database) {
        if self.lo.len() < db.relation_count() {
            self.lo.resize(db.relation_count(), 0);
            self.hi.resize(db.relation_count(), 0);
        }
    }
}

/// The rows a scan visits: a slice of the relation, or one index chain.
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

/// One run of one rule body.
struct Exec<'a> {
    db: &'a Database,
    lo: &'a [usize],
    hi: &'a [usize],
    frame: &'a mut [Value],
    head: &'a [Operand],
    out: &'a mut Vec<Tuple>,
}

impl Exec<'_> {
    #[inline]
    fn value<'v>(&'v self, operand: &'v Operand) -> &'v Value {
        match operand {
            Operand::Slot(slot) => &self.frame[*slot],
            Operand::Const(value) => value,
        }
    }

    /// Build the ground tuple `terms` denote and hand it to `f` — on the
    /// stack for every arity a [`Tuple`] stores inline.
    #[inline]
    fn with_row<R>(&self, terms: &[Operand], f: impl FnOnce(&[Value]) -> R) -> R {
        if terms.len() <= Tuple::INLINE {
            let mut row = [Value::Null; Tuple::INLINE];
            for (cell, term) in row.iter_mut().zip(terms) {
                *cell = *self.value(term);
            }
            f(&row[..terms.len()])
        } else {
            let row: Vec<Value> = terms.iter().map(|t| *self.value(t)).collect();
            f(&row)
        }
    }

    /// Execute `steps` under the current bindings; returns whether a head
    /// tuple was emitted.
    fn run(&mut self, steps: &[Step]) -> bool {
        let Some((step, rest)) = steps.split_first() else {
            let row = self.with_row(self.head, Tuple::from_slice);
            self.out.push(row);
            return true;
        };
        match step {
            Step::Compare { op, left, right } => {
                op.apply(self.value(left), self.value(right)) && self.run(rest)
            }
            Step::Negate { rel, terms } => {
                let relation = self.db.rel(*rel);
                !self.with_row(terms, |row| relation.contains(row)) && self.run(rest)
            }
            Step::Scan(scan) => {
                let relation = self.db.rel(scan.rel);
                let candidates = if scan.delta {
                    Candidates::Rows(relation.rows()[self.lo[scan.rel]..self.hi[scan.rel]].iter())
                } else if let Some(index) = scan.index {
                    let key = scan.bound.iter().map(|(_, operand)| self.value(operand));
                    Candidates::Chain(relation.probe(index, join_hash(key)))
                } else {
                    Candidates::Rows(relation.rows().iter())
                };
                let mut emitted = false;
                for row in candidates {
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
            if values[*col].sql_eq(self.value(operand)) != Some(true) {
                return false;
            }
        }
        for &(col, earlier) in &scan.same {
            if values[col].sql_eq(&values[earlier]) != Some(true) {
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
