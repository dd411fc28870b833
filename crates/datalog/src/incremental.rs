//! Cross-evaluation persistence: keep the fixpoint, re-derive only what a
//! change can reach.
//!
//! [`crate::evaluate`] is a one-shot API: every call compiles the program,
//! reloads every fact and computes every stratum.  A scheduler evaluating the
//! same program round after round over a state that changes by a handful of
//! rows pays the full O(facts) price each time.  [`IncrementalEvaluation`]
//! amortises all three costs:
//!
//! * the program is validated, stratified and compiled to plans **once**, at
//!   construction;
//! * the extensional facts, their indexes and the derived fixpoint
//!   **persist** between [`IncrementalEvaluation::evaluate`] calls;
//! * between calls the caller feeds the *changes* of the inputs —
//!   [`extend_input`] for rows that arrived, [`retract_input`] for rows that
//!   left, [`replace_input`] for a relation that is small or changes
//!   wholesale — and `evaluate` recomputes **per stratum**:
//!
//!   | stratum's relationship to the change | work done |
//!   |---|---|
//!   | unreachable from any changed predicate | **skipped** (cached fixpoint stands) |
//!   | reachable only positively, by insert-only deltas | **semi-naive resume**: iteration continues from the persisted fixpoint, reading just the appended rows |
//!   | depends on an input that lost rows, or *negates* a changed predicate | **full recompute** of that stratum, by index probes (a retraction, or an insertion under negation, can invalidate prior derivations) |
//!
//! Dirtiness propagates downstream: a recomputed stratum counts as having
//! lost rows for the strata above it, a resumed one passes along only the
//! facts it newly derived.
//!
//! An insert-only delta is not a copy: new rows are appended to their
//! relation, so the delta of a relation is the tail of its row vector past
//! its length at the previous evaluation.
//!
//! [`extend_input`]: IncrementalEvaluation::extend_input
//! [`retract_input`]: IncrementalEvaluation::retract_input
//! [`replace_input`]: IncrementalEvaluation::replace_input

use crate::ast::Program;
use crate::engine::Database;
use crate::error::{DatalogError, DatalogResult};
use crate::eval::{recompute_group, resume_group, Scratch};
use crate::plan::CompiledProgram;
use relalg::Value;

/// How much work the last [`IncrementalEvaluation::evaluate`] call did, per
/// stratum — the observability hook the scheduler's benches read.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvaluationStats {
    /// Strata skipped because no changed predicate reaches them.
    pub skipped: usize,
    /// Strata resumed semi-naively from insert-only deltas.
    pub resumed: usize,
    /// Strata recomputed from scratch (retracted or negated inputs).
    pub recomputed: usize,
}

/// A compiled Datalog program plus its persisted extensional facts and
/// derived fixpoint, evaluated incrementally as the inputs change.
#[derive(Debug)]
pub struct IncrementalEvaluation {
    /// The plans; their evaluation units are stratum groups refined to one
    /// strongly connected component of head predicates each (mutually
    /// recursive predicates stay together; merely stratum-equal ones split
    /// apart), so an unchanged predicate skips even when its stratum-mate
    /// recomputes.
    program: CompiledProgram,
    db: Database,
    /// Per relation id: rows may have left since the last evaluation (a
    /// retraction or replacement of an input, a recomputed stratum).
    shrunk: Vec<bool>,
    /// Per relation id: its length at the end of the last evaluation.  While
    /// the relation has not shrunk, the rows from there on are its delta.
    seen: Vec<usize>,
    evaluated_once: bool,
    stats: EvaluationStats,
    scratch: Scratch,
}

impl IncrementalEvaluation {
    /// Validate, stratify and compile the program once; facts in the program
    /// text are loaded immediately.
    pub fn new(program: &Program) -> DatalogResult<Self> {
        let mut db = Database::new();
        let program = CompiledProgram::compile(program, &mut db)?;
        program.load_facts(&mut db, None);
        Ok(IncrementalEvaluation {
            program,
            db,
            shrunk: Vec::new(),
            seen: Vec::new(),
            evaluated_once: false,
            stats: EvaluationStats::default(),
            scratch: Scratch::default(),
        })
    }

    /// Replace an extensional relation wholesale: every stratum reachable
    /// from it recomputes on the next evaluation.  A row of the wrong arity
    /// is an error; the rows before it stay fed.
    pub fn replace_input<R: AsRef<[Value]>>(
        &mut self,
        predicate: &str,
        rows: impl IntoIterator<Item = R>,
    ) -> DatalogResult<()> {
        let id = self.input(predicate)?;
        self.db.rel_mut(id).clear();
        self.shrunk[id] = true;
        for row in rows {
            self.db.insert(id, row.as_ref())?;
        }
        Ok(())
    }

    /// Append facts to an extensional relation.  Only genuinely new facts
    /// enter the delta; strata reached only positively resume semi-naively
    /// from them.  A row of the wrong arity is an error; the rows before it
    /// stay fed.
    pub fn extend_input<R: AsRef<[Value]>>(
        &mut self,
        predicate: &str,
        rows: impl IntoIterator<Item = R>,
    ) -> DatalogResult<()> {
        let id = self.input(predicate)?;
        for row in rows {
            self.db.insert(id, row.as_ref())?;
        }
        Ok(())
    }

    /// Remove facts from an extensional relation (absent ones are ignored).
    /// Every stratum reachable from a relation that lost a row recomputes
    /// on the next evaluation.  A row of the wrong arity is an error; the
    /// rows before it stay retracted.
    pub fn retract_input<R: AsRef<[Value]>>(
        &mut self,
        predicate: &str,
        rows: impl IntoIterator<Item = R>,
    ) -> DatalogResult<()> {
        let id = self.input(predicate)?;
        for row in rows {
            if self.db.retract(id, row.as_ref())? {
                self.shrunk[id] = true;
            }
        }
        Ok(())
    }

    /// Resolve an input predicate to its relation id, refusing predicates
    /// the rules derive.
    fn input(&mut self, predicate: &str) -> DatalogResult<usize> {
        let id = self.db.intern(predicate);
        if self.program.derives(id) {
            return Err(DatalogError::UnsafeRule {
                rule: format!("`{predicate}` is derived by rules and cannot be used as an input"),
            });
        }
        self.track_relations();
        Ok(id)
    }

    /// Size the per-relation bookkeeping to the database (inputs no rule
    /// mentions get their relation when first fed).
    fn track_relations(&mut self) {
        self.shrunk.resize(self.db.relation_count(), false);
        self.seen.resize(self.db.relation_count(), 0);
    }

    /// The persisted database: extensional facts plus, after the first
    /// [`Self::evaluate`], every derived relation.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Per-stratum work counters of the last [`Self::evaluate`] call.
    pub fn last_stats(&self) -> EvaluationStats {
        self.stats
    }

    /// Bring every derived relation up to date with the inputs, doing only
    /// the per-stratum work the accumulated changes require, and return the
    /// database holding the fixpoint.
    pub fn evaluate(&mut self) -> &Database {
        self.track_relations();
        self.stats = EvaluationStats::default();
        let first = !self.evaluated_once;
        let IncrementalEvaluation {
            program,
            db,
            shrunk,
            seen,
            scratch,
            stats,
            ..
        } = self;
        for group in &program.groups {
            let grown = |rel: &usize| !shrunk[*rel] && seen[*rel] < db.rel(*rel).len();
            // A dependency that lost rows may have retracted derivations;
            // new facts under a negation may too.  Either forces this
            // stratum to recompute from scratch.
            let must_recompute = first
                || group
                    .positive
                    .iter()
                    .chain(&group.negative)
                    .any(|&rel| shrunk[rel])
                || group.negative.iter().any(grown);
            let can_resume = group.positive.iter().any(grown);
            if must_recompute {
                for &head in &group.heads {
                    db.rel_mut(head).clear();
                    // Downstream strata must treat this head as shrunk.
                    shrunk[head] = true;
                }
                program.load_facts(db, Some(&group.heads));
                recompute_group(program, group, db, scratch);
                stats.recomputed += 1;
            } else if can_resume {
                // Positive-only reachability: resume semi-naive iteration
                // from the persisted fixpoint over just the appended rows.
                // What it derives is appended to the heads, past `seen`,
                // and so is the delta the strata above resume from.
                resume_group(program, group, db, scratch, seen);
                stats.resumed += 1;
            } else {
                stats.skipped += 1;
            }
        }
        for (rel, seen) in seen.iter_mut().enumerate() {
            *seen = db.rel(rel).len();
        }
        shrunk.fill(false);
        self.evaluated_once = true;
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Relation;
    use crate::parser::parse_program;
    use crate::reference;
    use std::collections::HashSet;

    fn ints(rel: &Relation) -> Vec<Vec<i64>> {
        let mut rows: Vec<Vec<i64>> = rel
            .rows()
            .iter()
            .map(|r| r.values().iter().map(|v| v.as_int().unwrap()).collect())
            .collect();
        rows.sort();
        rows
    }

    fn derived(inc: &IncrementalEvaluation, predicate: &str) -> Vec<Vec<i64>> {
        ints(inc.database().relation(predicate).unwrap())
    }

    /// The reference evaluation of the same program over the same facts —
    /// the oracle every incremental result must match.
    fn oracle(source: &str, facts: &[(&str, Vec<Vec<Value>>)], out: &str) -> Vec<Vec<i64>> {
        let program = parse_program(source).unwrap();
        let facts = facts
            .iter()
            .map(|(pred, rows)| (pred.to_string(), rows.iter().cloned().collect()))
            .collect();
        let mut rows: Vec<Vec<i64>> = reference::evaluate(&program, facts)
            .remove(out)
            .unwrap_or_default()
            .into_iter()
            .map(|row| row.iter().map(|v| v.as_int().unwrap()).collect())
            .collect();
        rows.sort();
        rows
    }

    fn incremental(source: &str) -> IncrementalEvaluation {
        IncrementalEvaluation::new(&parse_program(source).unwrap()).unwrap()
    }

    const REACH: &str = r#"
        reach(X, Y) :- edge(X, Y).
        reach(X, Z) :- reach(X, Y), edge(Y, Z).
    "#;

    fn pairs(list: &[(i64, i64)]) -> Vec<Vec<Value>> {
        list.iter()
            .map(|&(a, b)| vec![a.into(), b.into()])
            .collect()
    }

    #[test]
    fn monotone_program_resumes_from_the_persisted_fixpoint() {
        let mut inc = incremental(REACH);
        let mut edges = vec![(1, 2), (2, 3)];
        inc.extend_input("edge", pairs(&edges)).unwrap();
        inc.evaluate();
        assert_eq!(
            derived(&inc, "reach"),
            oracle(REACH, &[("edge", pairs(&edges))], "reach")
        );

        // Append one edge: the stratum resumes, it does not recompute.
        edges.push((3, 4));
        inc.extend_input("edge", pairs(&[(3, 4)])).unwrap();
        inc.evaluate();
        assert_eq!(inc.last_stats().resumed, 1);
        assert_eq!(inc.last_stats().recomputed, 0);
        assert_eq!(
            derived(&inc, "reach"),
            oracle(REACH, &[("edge", pairs(&edges))], "reach")
        );

        // No change at all: everything is skipped.
        inc.evaluate();
        assert_eq!(inc.last_stats().skipped, 1);
        assert_eq!(inc.last_stats().resumed + inc.last_stats().recomputed, 0);
    }

    #[test]
    fn replacement_forces_recomputation_and_drops_retracted_facts() {
        let mut inc = incremental(REACH);
        inc.extend_input("edge", pairs(&[(1, 2), (2, 3)])).unwrap();
        inc.evaluate();
        assert_eq!(derived(&inc, "reach").len(), 3);

        // Remove the (2,3) edge by replacement: reach(1,3) must disappear.
        inc.replace_input("edge", pairs(&[(1, 2)])).unwrap();
        inc.evaluate();
        assert_eq!(inc.last_stats().recomputed, 1);
        assert_eq!(derived(&inc, "reach"), vec![vec![1, 2]]);
    }

    #[test]
    fn retraction_forces_recomputation_only_when_a_row_really_left() {
        let mut inc = incremental(REACH);
        inc.extend_input("edge", pairs(&[(1, 2), (2, 3)])).unwrap();
        inc.evaluate();

        // Retracting an absent row changes nothing: the stratum is skipped.
        inc.retract_input("edge", pairs(&[(7, 8)])).unwrap();
        inc.evaluate();
        assert_eq!(inc.last_stats().skipped, 1);

        // Retracting a present one recomputes, and appending in the same
        // step is folded into the recomputation.
        inc.retract_input("edge", pairs(&[(2, 3)])).unwrap();
        inc.extend_input("edge", pairs(&[(2, 4)])).unwrap();
        inc.evaluate();
        assert_eq!(inc.last_stats().recomputed, 1);
        assert_eq!(
            derived(&inc, "reach"),
            oracle(REACH, &[("edge", pairs(&[(1, 2), (2, 4)]))], "reach")
        );
    }

    const LOCKS: &str = r#"
        finished(T) :- history(T, O, "c").
        locked(O, T) :- history(T, O, "w"), !finished(T).
        blocked(Id) :- pending(Id, T, O), locked(O, T2), T != T2.
        qualified(Id) :- pending(Id, T, O), !blocked(Id).
    "#;

    #[test]
    fn negation_under_growth_recomputes_only_affected_strata() {
        let mut inc = incremental(LOCKS);
        inc.extend_input("history", [[1.into(), 5.into(), "w".into()]])
            .unwrap();
        inc.replace_input(
            "pending",
            [
                [100.into(), 2.into(), 5.into()],
                [101.into(), 2.into(), 6.into()],
            ],
        )
        .unwrap();
        inc.evaluate();
        assert_eq!(derived(&inc, "qualified"), vec![vec![101]]);

        // Txn 1 commits: `finished` grows, which reaches `locked` through a
        // negation — that stratum and everything above recomputes, and the
        // previously blocked request qualifies.
        inc.extend_input("history", [[1.into(), 5.into(), "c".into()]])
            .unwrap();
        inc.evaluate();
        assert!(inc.last_stats().recomputed >= 1);
        assert_eq!(derived(&inc, "qualified"), vec![vec![100], vec![101]]);
    }

    #[test]
    fn unchanged_lock_strata_are_skipped_when_only_pending_changes() {
        let mut inc = incremental(LOCKS);
        inc.extend_input(
            "history",
            [
                [1.into(), 5.into(), "w".into()],
                [3.into(), 7.into(), "w".into()],
            ],
        )
        .unwrap();
        inc.replace_input("pending", [[100.into(), 2.into(), 5.into()]])
            .unwrap();
        inc.evaluate();
        assert!(derived(&inc, "qualified").is_empty());

        // Only the pending relation changes between rounds: the history-
        // derived lock strata must be skipped, not rescanned.
        inc.retract_input("pending", [[100.into(), 2.into(), 5.into()]])
            .unwrap();
        inc.extend_input("pending", [[102.into(), 2.into(), 8.into()]])
            .unwrap();
        inc.evaluate();
        let stats = inc.last_stats();
        assert!(
            stats.skipped >= 2,
            "finished/locked strata must be reused: {stats:?}"
        );
        assert_eq!(derived(&inc, "qualified"), vec![vec![102]]);
    }

    #[test]
    fn program_facts_survive_stratum_recomputation() {
        let source = r#"
            edge(1, 2).
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- reach(X, Y), edge(Y, Z).
            reach(9, 9).
        "#;
        let mut inc = incremental(source);
        inc.evaluate();
        assert_eq!(derived(&inc, "reach").len(), 2);
        inc.extend_input("edge", pairs(&[(2, 3)])).unwrap();
        inc.evaluate();
        assert_eq!(derived(&inc, "reach").len(), 4);
        inc.retract_input("edge", pairs(&[(2, 3)])).unwrap();
        inc.evaluate();
        assert_eq!(derived(&inc, "reach"), vec![vec![1, 2], vec![9, 9]]);
    }

    #[test]
    fn inputs_must_be_extensional() {
        let mut inc = incremental(REACH);
        assert!(inc.replace_input("reach", pairs(&[])).is_err());
        assert!(inc.extend_input("reach", pairs(&[])).is_err());
        assert!(inc.retract_input("reach", pairs(&[])).is_err());
    }

    #[test]
    fn a_wrong_arity_fact_is_rejected_where_it_is_fed() {
        let mut inc = incremental(LOCKS);
        inc.extend_input("history", [[1.into(), 5.into(), "w".into()]])
            .unwrap();
        inc.extend_input("pending", [[100.into(), 2.into(), 5.into()]])
            .unwrap();
        inc.evaluate();
        let before: Vec<(String, Vec<relalg::Tuple>)> = inc
            .database()
            .predicates()
            .into_iter()
            .map(|p| {
                (
                    p.to_string(),
                    inc.database().relation(p).unwrap().rows().to_vec(),
                )
            })
            .collect();

        let wrong: [[Value; 2]; 1] = [[1.into(), 2.into()]];
        for (what, result) in [
            ("extend", inc.extend_input("history", wrong)),
            ("retract", inc.retract_input("history", wrong)),
            ("replace", inc.replace_input("pending", wrong)),
        ] {
            assert_eq!(
                result,
                Err(DatalogError::FactArity {
                    predicate: if what == "replace" {
                        "pending"
                    } else {
                        "history"
                    }
                    .into(),
                    expected: 3,
                    got: 2,
                }),
                "{what}"
            );
        }
        // The derived fixpoint and the other input are exactly as they were;
        // the replaced input was emptied before the bad row was seen.
        for (predicate, rows) in before {
            let now = inc.database().relation(&predicate).unwrap().rows();
            if predicate == "pending" {
                assert!(now.is_empty());
            } else {
                assert_eq!(now, rows, "{predicate}");
            }
        }
        // A predicate no rule mentions takes its arity from its first fact.
        inc.extend_input("aux", [[1.into()]]).unwrap();
        assert!(matches!(
            inc.extend_input("aux", [[1.into(), 2.into()]]),
            Err(DatalogError::FactArity {
                expected: 1,
                got: 2,
                ..
            })
        ));
    }

    /// The programs the randomized comparison runs: recursion, negation,
    /// repeated variables, constants in atoms, comparisons, filters written
    /// ahead of their binders, and an SS2PL-shaped program with a self-join.
    /// Every input predicate is binary over small integers (`"w"`/`"r"`
    /// constants are spelled as the integers 1 and 0) so one generator
    /// serves them all.
    const CORPUS: &[(&str, &[&str])] = &[
        (REACH, &["edge"]),
        (
            r#"
            finished(T) :- history(T, 2).
            locked(O, T) :- history(T, O), !finished(T), O != 2.
            blocked(Id) :- pending(Id, O), locked(O, T2), Id != T2.
            qualified(Id) :- pending(Id, O), !blocked(Id).
            "#,
            &["history", "pending"],
        ),
        (
            r#"
            loop(X) :- edge(X, X).
            twin(X, Y) :- edge(X, Y), edge(Y, X), X < Y.
            from_one(Y) :- edge(1, Y).
            picky(X, Z) :- X <= Z, !loop(X), edge(X, Y), Z != 3, edge(Y, Z).
            "#,
            &["edge"],
        ),
        (
            // requests(Ta, Obj) with writes on even objects, history(Ta, Obj).
            r#"
            mode(0, 0). mode(2, 1). mode(4, 1). mode(1, 0). mode(3, 0). mode(5, 1).
            finished(T) :- history(T, 5).
            wlocked(O, T) :- history(T, O), mode(O, 1), !finished(T).
            rlocked(O, T) :- history(T, O), mode(O, 0), !finished(T), !wlocked(O, T).
            blocked(Ta, Obj) :- requests(Ta, Obj), wlocked(Obj, T2), T2 != Ta.
            blocked(Ta, Obj) :- requests(Ta, Obj), mode(Obj, 1), rlocked(Obj, T2), T2 != Ta.
            blocked(Ta, Obj) :- requests(Ta, Obj), requests(T1, Obj), mode(Obj, 1), T1 < Ta.
            qualified(Ta, Obj) :- requests(Ta, Obj), !blocked(Ta, Obj).
            "#,
            &["requests", "history"],
        ),
    ];

    /// A small deterministic generator (no external crates in this one).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }
        fn row(&mut self) -> Vec<Value> {
            // A few NULLs and floats: NULL joins nothing but is a member
            // like any value.  (No float equals an integer here — rows that
            // are sql-equal yet distinct would make the reference's
            // `HashSet` membership depend on hash luck.)
            let cell = |n: u64| match n {
                6 => Value::Null,
                7 => Value::Float(2.5),
                n => Value::Int(n as i64),
            };
            vec![cell(self.below(8)), cell(self.below(8))]
        }
    }

    #[test]
    fn compiled_incremental_matches_the_reference_after_every_step() {
        for (case, (source, inputs)) in CORPUS.iter().enumerate() {
            let program = parse_program(source).unwrap();
            for seed in 0..12u64 {
                let mut rng = Lcg(0x243F_6A88 ^ (seed << 20) ^ case as u64);
                let mut inc = IncrementalEvaluation::new(&program).unwrap();
                // The mirror of what has been fed, per input predicate.
                let mut fed: Vec<HashSet<Vec<Value>>> = vec![HashSet::new(); inputs.len()];
                for step in 0..60 {
                    let which = rng.below(inputs.len() as u64) as usize;
                    let predicate = inputs[which];
                    match rng.below(10) {
                        0..=4 => {
                            let rows: Vec<_> = (0..1 + rng.below(3)).map(|_| rng.row()).collect();
                            inc.extend_input(predicate, &rows).unwrap();
                            fed[which].extend(rows);
                        }
                        5..=7 => {
                            // Mostly rows that are there, sometimes not.
                            let mut rows: Vec<Vec<Value>> =
                                fed[which].iter().take(2).cloned().collect();
                            rows.push(rng.row());
                            inc.retract_input(predicate, &rows).unwrap();
                            for row in &rows {
                                fed[which].remove(row);
                            }
                        }
                        8 => {
                            let rows: Vec<_> = (0..rng.below(5)).map(|_| rng.row()).collect();
                            inc.replace_input(predicate, &rows).unwrap();
                            fed[which] = rows.into_iter().collect();
                        }
                        _ => {
                            // Retract to empty: the indexes must survive it.
                            let rows: Vec<Vec<Value>> = fed[which].drain().collect();
                            inc.retract_input(predicate, &rows).unwrap();
                        }
                    }
                    // Evaluate on most steps, so changes also accumulate.
                    if rng.below(4) == 0 {
                        continue;
                    }
                    inc.evaluate();
                    let facts: reference::Facts = inputs
                        .iter()
                        .zip(&fed)
                        .map(|(p, rows)| (p.to_string(), rows.clone()))
                        .collect();
                    let expected = reference::evaluate(&program, facts);
                    for predicate in inc.database().predicates() {
                        let got: HashSet<Vec<Value>> = inc
                            .database()
                            .relation(predicate)
                            .unwrap()
                            .iter()
                            .map(|row| row.values().to_vec())
                            .collect();
                        let want = expected.get(predicate).cloned().unwrap_or_default();
                        assert_eq!(
                            got, want,
                            "program {case}, seed {seed}, step {step}: `{predicate}` diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn one_shot_evaluation_matches_the_reference_too() {
        for (source, inputs) in CORPUS {
            let program = parse_program(source).unwrap();
            let mut rng = Lcg(0x1357_9BDF);
            let mut db = Database::new();
            let mut facts = reference::Facts::new();
            for predicate in *inputs {
                let rows: Vec<_> = (0..12).map(|_| rng.row()).collect();
                db.add_facts(predicate, &rows).unwrap();
                facts.insert(predicate.to_string(), rows.into_iter().collect());
            }
            let out = crate::evaluate(&program, db).unwrap();
            let expected = reference::evaluate(&program, facts);
            for predicate in out.predicates() {
                let got: HashSet<Vec<Value>> = out
                    .relation(predicate)
                    .unwrap()
                    .iter()
                    .map(|row| row.values().to_vec())
                    .collect();
                assert_eq!(
                    got,
                    expected.get(predicate).cloned().unwrap_or_default(),
                    "`{predicate}`"
                );
            }
        }
    }
}
