//! Cross-evaluation persistence: keep the fixpoint, push only the change
//! through it.
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
//!   wholesale — which are recorded as signed row deltas, and `evaluate`
//!   pushes them up **stratum by stratum**, each stratum handing its head's
//!   own signed delta to the strata above:
//!
//!   | stratum | its inputs | work done |
//!   |---|---|---|
//!   | any | none changed | **skipped** (cached fixpoint stands) |
//!   | not recursive (one head that does not read itself) | gained or lost rows, under negation or not | **maintained**: delta-first plans find the affected head tuples, a head-bound existence probe decides each, the head is patched in place — O(affected), no clear |
//!   | recursive | gained rows, read positively only | **semi-naive resume** from the persisted fixpoint over just those rows |
//!   | recursive | lost rows, or changed under a negation | **full recompute** of that stratum (a retraction may have cut a derivation that only iteration rediscovers) |
//!   | any | one was replaced, or recomputed below (and on the first evaluation) | **full recompute**: there is no delta to push |
//!
//! A recomputed stratum has no delta to offer, so the strata above it
//! recompute too; a maintained or resumed one passes on exactly the rows its
//! head gained and lost.
//!
//! [`extend_input`]: IncrementalEvaluation::extend_input
//! [`retract_input`]: IncrementalEvaluation::retract_input
//! [`replace_input`]: IncrementalEvaluation::replace_input

use crate::ast::Program;
use crate::engine::{join_hash, Database, Delta};
use crate::error::{DatalogError, DatalogResult};
use crate::eval::{maintain_group, recompute_group, resume_group, Scratch};
use crate::plan::CompiledProgram;
use relalg::{Tuple, Value};

/// How much work the last [`IncrementalEvaluation::evaluate`] call did — the
/// observability hook the scheduler's metrics and benches read.
///
/// | field | counts |
/// |---|---|
/// | `skipped`, `maintained`, `resumed`, `recomputed` | strata, by the row of the module table that applied |
/// | `delta_rows_in` | input rows the call consumed: fed and still present, retracted and still absent, or — for a replaced input — all of them |
/// | `delta_rows_out` | rows maintenance inserted into or retracted from derived relations |
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvaluationStats {
    /// Strata skipped because no changed predicate reaches them.
    pub skipped: usize,
    /// Non-recursive strata patched in place from their inputs' deltas.
    pub maintained: usize,
    /// Recursive strata resumed semi-naively from insert-only deltas.
    pub resumed: usize,
    /// Strata cleared and recomputed from scratch.
    pub recomputed: usize,
    /// Changed input rows consumed.
    pub delta_rows_in: usize,
    /// Derived rows inserted or retracted by maintenance.
    pub delta_rows_out: usize,
}

/// A compiled Datalog program plus its persisted extensional facts and
/// derived fixpoint, evaluated incrementally as the inputs change.
#[derive(Debug)]
pub struct IncrementalEvaluation {
    /// The plans; their evaluation units are stratum groups refined to one
    /// strongly connected component of head predicates each (mutually
    /// recursive predicates stay together; merely stratum-equal ones split
    /// apart), so an unchanged predicate skips even when its stratum-mate
    /// changes.
    program: CompiledProgram,
    db: Database,
    /// Per relation id: how it changed.  An input's delta accumulates from
    /// one evaluation to the next and is consumed there; a derived
    /// relation's delta is written by an evaluation and stays readable
    /// ([`Self::derived_delta`]) until the next one.
    deltas: Vec<Delta>,
    evaluated_once: bool,
    stats: EvaluationStats,
    scratch: Scratch,
    /// The rows a [`Self::retract_matching`] call found (reused).
    gone: Vec<Tuple>,
}

impl IncrementalEvaluation {
    /// Validate, stratify and compile the program once; facts in the program
    /// text are loaded immediately.
    pub fn new(program: &Program) -> DatalogResult<Self> {
        let mut db = Database::new();
        let program = CompiledProgram::compile(program, &mut db, true)?;
        program.load_facts(&mut db, None);
        Ok(IncrementalEvaluation {
            program,
            db,
            deltas: Vec::new(),
            evaluated_once: false,
            stats: EvaluationStats::default(),
            scratch: Scratch::default(),
            gone: Vec::new(),
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
        self.deltas[id].clear();
        self.deltas[id].whole = true;
        for row in rows {
            self.db.insert(id, row.as_ref())?;
        }
        Ok(())
    }

    /// Add facts to an extensional relation.  Only genuinely new facts enter
    /// its delta.  A row of the wrong arity is an error; the rows before it
    /// stay fed.
    pub fn extend_input<R: AsRef<[Value]>>(
        &mut self,
        predicate: &str,
        rows: impl IntoIterator<Item = R>,
    ) -> DatalogResult<()> {
        let id = self.input(predicate)?;
        for row in rows {
            let row = row.as_ref();
            if self.db.insert(id, row)? && !self.deltas[id].whole {
                self.deltas[id].plus.push(Tuple::from_slice(row));
            }
        }
        Ok(())
    }

    /// Remove facts from an extensional relation (absent ones are ignored).
    /// A row of the wrong arity is an error; the rows before it stay
    /// retracted.
    pub fn retract_input<R: AsRef<[Value]>>(
        &mut self,
        predicate: &str,
        rows: impl IntoIterator<Item = R>,
    ) -> DatalogResult<()> {
        let id = self.input(predicate)?;
        for row in rows {
            let row = row.as_ref();
            if self.db.retract(id, row)? {
                self.deltas[id].retracted(row);
            }
        }
        Ok(())
    }

    /// Remove every fact of an extensional relation whose `column` equals
    /// `value` (an index probe; the index is built on first use) and return
    /// how many there were.  A column the relation does not have matches
    /// nothing.
    pub fn retract_matching(
        &mut self,
        predicate: &str,
        column: usize,
        value: &Value,
    ) -> DatalogResult<usize> {
        let id = self.input(predicate)?;
        let relation = self.db.rel_mut(id);
        if relation.arity().is_none_or(|arity| column >= arity) {
            return Ok(0);
        }
        let index = relation.ensure_index(&[column]);
        let matching = relation
            .probe(index, join_hash(std::iter::once(value)))
            .filter(|row| row.get(column).sql_eq(value) == Some(true));
        self.gone.clear();
        self.gone.extend(matching.cloned());
        for row in &self.gone {
            relation.retract(row.values());
            self.deltas[id].retracted(row.values());
        }
        Ok(self.gone.len())
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
        self.deltas
            .resize_with(self.db.relation_count(), Delta::default);
    }

    /// The persisted database: extensional facts plus, after the first
    /// [`Self::evaluate`], every derived relation.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Work counters of the last [`Self::evaluate`] call.
    pub fn last_stats(&self) -> EvaluationStats {
        self.stats
    }

    /// The rows the last [`Self::evaluate`] call inserted into and retracted
    /// from a derived relation, as `(inserted, retracted)` — or `None` if
    /// the call recomputed it (or nothing derives `predicate`), in which
    /// case the relation has to be read whole.
    pub fn derived_delta(&self, predicate: &str) -> Option<(&[Tuple], &[Tuple])> {
        let id = self.db.id_of(predicate)?;
        let delta = self.deltas.get(id)?;
        (self.program.derives(id) && !delta.whole)
            .then_some((delta.plus.as_slice(), delta.minus.as_slice()))
    }

    /// Bring every derived relation up to date with the inputs, doing only
    /// the per-stratum work the accumulated changes require, and return the
    /// database holding the fixpoint.
    pub fn evaluate(&mut self) -> &Database {
        self.track_relations();
        let IncrementalEvaluation {
            program,
            db,
            deltas,
            scratch,
            stats,
            evaluated_once,
            ..
        } = self;
        *stats = EvaluationStats::default();
        for (rel, delta) in deltas.iter_mut().enumerate() {
            let relation = db.rel(rel);
            if program.derives(rel) {
                delta.clear();
            } else if delta.whole {
                stats.delta_rows_in += relation.len();
            } else {
                // What a gained row derives is inserted unchecked, so a row
                // fed and retracted again must not pass for gained.  The
                // reverse is harmless: a row retracted and fed again counts
                // as lost *and* gained, which over-states the change and
                // costs some probes, no more.
                if delta.unsettled {
                    delta.plus.retain(|row| relation.contains(row.values()));
                    delta.unsettled = false;
                }
                stats.delta_rows_in += delta.plus.len() + delta.minus.len();
            }
        }
        for group in &program.groups {
            let mut inputs = group.positive.iter().chain(&group.negative);
            let lost = |rel: &usize| !deltas[*rel].minus.is_empty();
            let gained = |rel: &usize| !deltas[*rel].plus.is_empty();
            let must_recompute = !*evaluated_once
                || inputs.clone().any(|&rel| deltas[rel].whole)
                // Iteration cannot take a derivation back.
                || group.recursive
                    && (inputs.clone().any(lost) || group.negative.iter().any(gained));
            if must_recompute {
                for &head in &group.heads {
                    db.rel_mut(head).clear();
                    // The strata above have no delta to go by.
                    deltas[head].whole = true;
                }
                program.load_facts(db, Some(&group.heads));
                recompute_group(program, group, db, scratch);
                stats.recomputed += 1;
            } else if inputs.all(|&rel| deltas[rel].is_empty()) {
                stats.skipped += 1;
            } else if group.recursive {
                resume_group(program, group, db, scratch, deltas);
                stats.resumed += 1;
            } else {
                stats.delta_rows_out += maintain_group(program, group, db, scratch, deltas);
                stats.maintained += 1;
            }
        }
        for (rel, delta) in deltas.iter_mut().enumerate() {
            if !program.derives(rel) {
                delta.clear();
            }
        }
        *evaluated_once = true;
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
    fn a_commit_reaches_the_lock_through_the_negation_without_a_recompute() {
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

        // Txn 1 commits: `finished` gains a row, which reaches `locked`
        // through a negation, `blocked` through the lost lock and
        // `qualified` through a second negation — four strata patched, none
        // cleared, and the previously blocked request qualifies.
        inc.extend_input("history", [[1.into(), 5.into(), "c".into()]])
            .unwrap();
        inc.evaluate();
        assert_eq!(
            inc.last_stats(),
            EvaluationStats {
                maintained: 4,
                delta_rows_in: 1,
                // +finished(1), -locked(5,1), -blocked(100), +qualified(100).
                delta_rows_out: 4,
                ..EvaluationStats::default()
            }
        );
        assert_eq!(derived(&inc, "qualified"), vec![vec![100], vec![101]]);
        let (inserted, retracted) = inc.derived_delta("qualified").unwrap();
        assert_eq!(inserted, [Tuple::from_slice(&[100.into()])]);
        assert!(retracted.is_empty());
        assert!(inc.derived_delta("history").is_none(), "an input");
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

    const JOIN: &str = "j(X, Z) :- a(X, Y), b(Y, Z).";

    fn maintained_only(stats: EvaluationStats, strata: usize, rows_out: usize) {
        assert_eq!(
            (stats.maintained, stats.recomputed, stats.resumed),
            (strata, 0, 0),
            "{stats:?}"
        );
        assert_eq!(stats.delta_rows_out, rows_out, "{stats:?}");
    }

    #[test]
    fn both_rows_of_one_derivation_retracted_in_one_step() {
        // Neither `Δ⁻a ⋈ b_new` nor `a_new ⋈ Δ⁻b` sees the derivation
        // a(1,2), b(2,3): the candidate scan has to read b as it *was*.
        let mut inc = incremental(JOIN);
        inc.extend_input("a", pairs(&[(1, 2), (5, 6)])).unwrap();
        inc.extend_input("b", pairs(&[(2, 3), (6, 7)])).unwrap();
        inc.evaluate();
        assert_eq!(derived(&inc, "j"), vec![vec![1, 3], vec![5, 7]]);
        inc.retract_input("a", pairs(&[(1, 2)])).unwrap();
        inc.retract_input("b", pairs(&[(2, 3)])).unwrap();
        inc.evaluate();
        maintained_only(inc.last_stats(), 1, 1);
        assert_eq!(derived(&inc, "j"), vec![vec![5, 7]]);
    }

    #[test]
    fn a_row_retracted_and_fed_again_between_evaluations_changes_nothing() {
        let mut inc = incremental(JOIN);
        inc.extend_input("a", pairs(&[(1, 2)])).unwrap();
        inc.extend_input("b", pairs(&[(2, 3)])).unwrap();
        inc.evaluate();
        inc.retract_input("a", pairs(&[(1, 2)])).unwrap();
        inc.extend_input("a", pairs(&[(1, 2)])).unwrap();
        // And the reverse: fed and retracted again.
        inc.extend_input("b", pairs(&[(2, 9)])).unwrap();
        inc.retract_input("b", pairs(&[(2, 9)])).unwrap();
        inc.evaluate();
        maintained_only(inc.last_stats(), 1, 0);
        assert_eq!(derived(&inc, "j"), vec![vec![1, 3]]);
    }

    #[test]
    fn a_head_with_two_derivations_survives_losing_one() {
        let mut inc = incremental(JOIN);
        inc.extend_input("a", pairs(&[(1, 2), (1, 4)])).unwrap();
        inc.extend_input("b", pairs(&[(2, 3), (4, 3)])).unwrap();
        inc.evaluate();
        assert_eq!(derived(&inc, "j"), vec![vec![1, 3]]);
        inc.retract_input("a", pairs(&[(1, 2)])).unwrap();
        inc.evaluate();
        maintained_only(inc.last_stats(), 1, 0);
        assert_eq!(derived(&inc, "j"), vec![vec![1, 3]]);
        inc.retract_input("b", pairs(&[(4, 3)])).unwrap();
        inc.evaluate();
        maintained_only(inc.last_stats(), 1, 1);
        assert!(derived(&inc, "j").is_empty());
    }

    #[test]
    fn insert_and_retract_under_one_negation_in_the_same_step() {
        let mut inc = incremental("free(X) :- node(X, X), !busy(X).");
        inc.extend_input("node", pairs(&[(1, 1), (2, 2), (3, 4)]))
            .unwrap();
        inc.extend_input("busy", [[Value::Int(1)]]).unwrap();
        inc.evaluate();
        assert_eq!(derived(&inc, "free"), vec![vec![2]]);
        inc.extend_input("busy", [[Value::Int(2)]]).unwrap();
        inc.retract_input("busy", [[Value::Int(1)]]).unwrap();
        inc.evaluate();
        maintained_only(inc.last_stats(), 1, 2);
        assert_eq!(derived(&inc, "free"), vec![vec![1]]);
        let (inserted, retracted) = inc.derived_delta("free").unwrap();
        assert_eq!(inserted, [Tuple::from_slice(&[1.into()])]);
        assert_eq!(retracted, [Tuple::from_slice(&[2.into()])]);
    }

    #[test]
    fn a_recursive_stratum_recomputes_under_retraction_and_so_does_what_reads_it() {
        let source = r#"
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- reach(X, Y), edge(Y, Z).
            far(X) :- edge(X, Y), !reach(1, X).
            tip(X) :- edge(Y, X), !edge(X, X).
        "#;
        let mut inc = incremental(source);
        inc.extend_input("edge", pairs(&[(1, 2), (2, 3), (3, 4)]))
            .unwrap();
        inc.evaluate();
        assert_eq!(derived(&inc, "far"), vec![vec![1]]);
        // Iteration cannot take reach(1,3), reach(1,4) back: `reach` is
        // cleared and recomputed, `far` above it has no delta to go by —
        // while `tip`, which reads only the input, is patched.
        inc.retract_input("edge", pairs(&[(1, 2)])).unwrap();
        inc.evaluate();
        let stats = inc.last_stats();
        assert_eq!((stats.recomputed, stats.maintained), (2, 1), "{stats:?}");
        assert!(inc.derived_delta("reach").is_none());
        assert!(inc.derived_delta("tip").is_some());
        assert_eq!(derived(&inc, "reach").len(), 3);
        assert_eq!(derived(&inc, "far"), vec![vec![2], vec![3]]);
        // Growth resumes `reach` and hands `far` exactly what it gained.
        inc.extend_input("edge", pairs(&[(1, 3)])).unwrap();
        inc.evaluate();
        let stats = inc.last_stats();
        assert_eq!(
            (stats.resumed, stats.maintained, stats.recomputed),
            (1, 2, 0),
            "{stats:?}"
        );
        assert_eq!(derived(&inc, "far"), vec![vec![1], vec![2]]);
    }

    #[test]
    fn a_fact_in_the_program_text_keeps_a_maintained_head_tuple() {
        let mut inc = incremental("q(9). q(X) :- p(X).");
        inc.extend_input("p", [[Value::Int(9)], [Value::Int(8)]])
            .unwrap();
        inc.evaluate();
        inc.retract_input("p", [[Value::Int(9)], [Value::Int(8)]])
            .unwrap();
        inc.evaluate();
        maintained_only(inc.last_stats(), 1, 1);
        assert_eq!(derived(&inc, "q"), vec![vec![9]]);
    }

    #[test]
    fn retract_matching_removes_by_one_column_and_records_the_delta() {
        let mut inc = incremental(JOIN);
        inc.extend_input("a", pairs(&[(1, 2), (1, 4), (5, 2)]))
            .unwrap();
        inc.extend_input("b", pairs(&[(2, 3), (4, 3)])).unwrap();
        inc.evaluate();
        assert_eq!(derived(&inc, "j"), vec![vec![1, 3], vec![5, 3]]);
        assert_eq!(inc.retract_matching("a", 0, &Value::Int(1)).unwrap(), 2);
        assert_eq!(inc.retract_matching("a", 0, &Value::Int(1)).unwrap(), 0);
        assert_eq!(inc.retract_matching("a", 7, &Value::Int(1)).unwrap(), 0);
        assert!(inc.retract_matching("j", 0, &Value::Int(1)).is_err());
        inc.evaluate();
        maintained_only(inc.last_stats(), 1, 1);
        assert_eq!(inc.last_stats().delta_rows_in, 2);
        assert_eq!(derived(&inc, "j"), vec![vec![5, 3]]);
    }

    /// What the input rows of a corpus program look like.
    #[derive(Clone, Copy)]
    enum Rows {
        /// Binary, over small integers.
        Pairs,
        /// The scheduler's `(id, ta, intrata, operation, object)`.
        Requests,
    }

    /// The programs the randomized comparison runs — source, input
    /// predicates, input row shape, whether a stratum recurses: recursion,
    /// negation, repeated variables, constants in atoms, comparisons,
    /// filters written ahead of their binders, an SS2PL-shaped program with
    /// a self-join over binary inputs (`"w"`/`"r"` spelled as the integers
    /// 1 and 0), and the program `schedlang` compiles its standard-library
    /// SS2PL to, verbatim.
    const CORPUS: &[(&str, &[&str], Rows, bool)] = &[
        (REACH, &["edge"], Rows::Pairs, true),
        (
            r#"
            finished(T) :- history(T, 2).
            locked(O, T) :- history(T, O), !finished(T), O != 2.
            blocked(Id) :- pending(Id, O), locked(O, T2), Id != T2.
            qualified(Id) :- pending(Id, O), !blocked(Id).
            "#,
            &["history", "pending"],
            Rows::Pairs,
            false,
        ),
        (
            r#"
            loop(X) :- edge(X, X).
            twin(X, Y) :- edge(X, Y), edge(Y, X), X < Y.
            from_one(Y) :- edge(1, Y).
            picky(X, Z) :- X <= Z, !loop(X), edge(X, Y), Z != 3, edge(Y, Z).
            "#,
            &["edge"],
            Rows::Pairs,
            false,
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
            Rows::Pairs,
            false,
        ),
        (
            r#"
            finished(T) :- history(_G1, T, _G2, "c", _G3).
            finished(T) :- history(_G4, T, _G5, "a", _G6).
            wrote(T, O) :- history(_G7, T, _G8, "w", O).
            wlocked(O, T) :- history(_G9, T, _G10, "w", O), !finished(T).
            rlocked(O, T) :- history(_G11, T, _G12, "r", O), !finished(T), !wrote(T, O).
            schedlang_blocked(Ta, Intra) :- requests(_G13, Ta, Intra, Op, Obj), wlocked(Obj, T2), T2 != Ta.
            schedlang_blocked(Ta, Intra) :- requests(_G14, Ta, Intra, Op, Obj), Op = "w", rlocked(Obj, T2), T2 != Ta.
            schedlang_blocked(Ta, Intra) :- requests(_G15, Ta, Intra, Op, Obj), requests(_G16, T1, _G17, "w", Obj), T1 < Ta.
            schedlang_blocked(Ta, Intra) :- requests(_G18, Ta, Intra, Op, Obj), Op = "w", requests(_G19, T1, _G20, _Op1, Obj), T1 < Ta.
            qualified(Ta, Intra) :- requests(_G21, Ta, Intra, Op, Obj), !schedlang_blocked(Ta, Intra).
            "#,
            &["requests", "history"],
            Rows::Requests,
            false,
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
        fn row(&mut self, rows: Rows) -> Vec<Value> {
            // A few NULLs and floats: NULL joins nothing but is a member
            // like any value.  (No float equals an integer here — rows that
            // are sql-equal yet distinct would make the reference's
            // `HashSet` membership depend on hash luck.)
            let cell = |n: u64| match n {
                6 => Value::Null,
                7 => Value::Float(2.5),
                n => Value::Int(n as i64),
            };
            match rows {
                Rows::Pairs => vec![cell(self.below(8)), cell(self.below(8))],
                Rows::Requests => vec![
                    cell(self.below(2)),
                    cell(self.below(7)),
                    cell(self.below(2)),
                    ["r", "w", "r", "w", "c", "a"][self.below(6) as usize].into(),
                    cell(self.below(5) + 2),
                ],
            }
        }
    }

    /// Drive every corpus program through `seeds` random feeds of `steps`
    /// steps each and compare every relation with the reference evaluator's
    /// after every evaluation.
    fn compare_with_the_reference(seeds: u64, steps: usize) {
        for (case, (source, inputs, shape, recursive)) in CORPUS.iter().enumerate() {
            let program = parse_program(source).unwrap();
            for seed in 0..seeds {
                let mut rng = Lcg(0x243F_6A88 ^ (seed << 20) ^ case as u64);
                let mut inc = IncrementalEvaluation::new(&program).unwrap();
                // The mirror of what has been fed, per input predicate.
                let mut fed: Vec<HashSet<Vec<Value>>> = vec![HashSet::new(); inputs.len()];
                // No delta describes the state yet, or a replacement.
                let mut whole = true;
                for step in 0..steps {
                    let which = rng.below(inputs.len() as u64) as usize;
                    let predicate = inputs[which];
                    match rng.below(10) {
                        0..=4 => {
                            let rows: Vec<_> =
                                (0..1 + rng.below(3)).map(|_| rng.row(*shape)).collect();
                            inc.extend_input(predicate, &rows).unwrap();
                            fed[which].extend(rows);
                        }
                        5..=7 => {
                            // Mostly rows that are there, sometimes not.
                            let mut rows: Vec<Vec<Value>> =
                                fed[which].iter().take(2).cloned().collect();
                            rows.push(rng.row(*shape));
                            inc.retract_input(predicate, &rows).unwrap();
                            for row in &rows {
                                fed[which].remove(row);
                            }
                        }
                        8 => {
                            let rows: Vec<_> = (0..rng.below(5)).map(|_| rng.row(*shape)).collect();
                            inc.replace_input(predicate, &rows).unwrap();
                            fed[which] = rows.into_iter().collect();
                            whole = true;
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
                    let at = format!("program {case}, seed {seed}, step {step}");
                    if !whole && !recursive {
                        assert_eq!(inc.last_stats().recomputed, 0, "{at}: fed by deltas");
                    }
                    whole = false;
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
                        assert_eq!(got, want, "{at}: `{predicate}` diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_incremental_matches_the_reference_after_every_step() {
        compare_with_the_reference(12, 60);
    }

    /// The long form CI runs in release mode as its own step: a maintenance
    /// bug that needs a rare interleaving of retractions and insertions
    /// shows up here rather than in a benchmark trial.
    #[test]
    #[ignore = "long: 500 seeds of 200 steps per corpus program; CI runs it in release mode"]
    fn compiled_incremental_matches_the_reference_soak() {
        compare_with_the_reference(500, 200);
    }

    #[test]
    fn one_shot_evaluation_matches_the_reference_too() {
        for (source, inputs, shape, _) in CORPUS {
            let program = parse_program(source).unwrap();
            let mut rng = Lcg(0x1357_9BDF);
            let mut db = Database::new();
            let mut facts = reference::Facts::new();
            for predicate in *inputs {
                let rows: Vec<_> = (0..12).map(|_| rng.row(*shape)).collect();
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
