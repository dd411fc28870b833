//! Incremental qualification: the declarative rules of the built-in
//! protocols, maintained as a materialized view across scheduling rounds.
//!
//! The from-scratch path re-evaluates a protocol's rule over the *entire*
//! `requests` ∪ `history` state every round — O(pending + history) per
//! round, which the paper accepts and its Section 4.3.2 experiment
//! (`examples/paper_experiments.rs`) shows growing with the history.  The key
//! observation making an O(delta) path possible is that for every shipped
//! protocol the blocked/qualified status of a pending request depends
//! **only on per-object state**: the lock sets of its object (the
//! [`crate::history::LockIndex`], maintained incrementally by the history
//! store) and the other pending requests on the same object.  Nothing a
//! round changes on object A can affect a decision about object B.
//!
//! [`IncrementalQualifier`] therefore keeps, per object, the cached set of
//! blocked pending keys, re-derives it only for objects whose pending rows
//! or lock state changed since the last round (the *dirty set*), and
//! assembles the qualified set from the caches.  These per-kind arms are a
//! hand-written third encoding of each protocol; equivalence with its
//! declared rule — the `schedlang::stdlib` text, evaluated by `datalog` —
//! and with its relational-algebra plan, both from scratch, is enforced per
//! protocol by the property suite in `tests/tests/incremental.rs`.
//!
//! Custom protocols carry arbitrary rules and are not supported here; the
//! scheduler falls back to from-scratch evaluation (or, for custom Datalog
//! rules, to the engine-level [`datalog::IncrementalEvaluation`]).

use crate::history::HistoryStore;
use crate::pending::PendingStore;
use crate::protocol::ProtocolKind;
use crate::request::{Operation, Request, RequestKey};
use obs::{FastIdMap, FastIdSet};
use relalg::Table;

/// Cross-round incremental evaluation of one built-in protocol's
/// qualification rule.
#[derive(Debug)]
pub struct IncrementalQualifier {
    /// The protocol whose rule the caches hold, fixed at construction.
    kind: ProtocolKind,
    /// Objects whose pending rows or lock state changed since the last
    /// `qualify` call.
    dirty: FastIdSet<i64>,
    /// Recompute every object on the next call (aux relation change, first
    /// round).
    all_dirty: bool,
    /// Blocked pending keys, per object, under `kind`'s per-request rules
    /// (kept for Conservative 2PL's transaction-level assembly).
    blocked_by_object: FastIdMap<i64, Vec<RequestKey>>,
    /// Qualified (unblocked) pending keys, per object.  The round's result
    /// is assembled by flattening these cached lists, so assembly costs
    /// O(qualified + objects) instead of a membership probe per pending key.
    /// Both lists are rebuilt together from the store's current per-object
    /// rows whenever an object is dirty, so a duplicate-key submission that
    /// moved a request between objects cannot leave a stale verdict behind.
    qualified_by_object: FastIdMap<i64, Vec<RequestKey>>,
    /// Category-C objects of the consistency-rationing protocol (from the
    /// auxiliary `object_class` relation).
    relaxed_objects: FastIdSet<i64>,
    relaxed_built: bool,
    /// Pending requests re-examined by the last `qualify` call.
    last_delta_rows: u64,
    /// Reused dirty-object drain buffer (cleared each round, never freed).
    objects_scratch: Vec<i64>,
    /// Pool of key lists recycled through `blocked_by_object`, so objects
    /// oscillating between blocked and free don't allocate a list per
    /// transition.
    key_list_pool: Vec<Vec<RequestKey>>,
    /// Reused blocked-transaction set (Conservative 2PL assembly).
    blocked_tas_scratch: FastIdSet<u64>,
    /// Reused per-object row buffer of [`Self::slice_admitted`].
    slice_rows_scratch: Vec<(RequestKey, Operation)>,
}

impl IncrementalQualifier {
    /// A fresh qualifier for `kind`'s rule (everything dirty).  A
    /// [`ProtocolKind::Custom`] qualifier is inert: callers check
    /// [`Self::supports`] before asking it anything.
    pub fn new(kind: ProtocolKind) -> Self {
        IncrementalQualifier {
            kind,
            dirty: FastIdSet::default(),
            all_dirty: true,
            blocked_by_object: FastIdMap::default(),
            qualified_by_object: FastIdMap::default(),
            relaxed_objects: FastIdSet::default(),
            relaxed_built: false,
            last_delta_rows: 0,
            objects_scratch: Vec::new(),
            key_list_pool: Vec::new(),
            blocked_tas_scratch: FastIdSet::default(),
            slice_rows_scratch: Vec::new(),
        }
    }

    /// Whether the protocol kind has an incremental formulation here.
    pub fn supports(kind: ProtocolKind) -> bool {
        kind != ProtocolKind::Custom
    }

    /// Note objects whose pending rows changed in a queue drain — the
    /// return value of [`PendingStore::insert_batch`], which includes the
    /// *superseded* request's object when a duplicate key replaced an
    /// earlier request on a different object (both objects' cached
    /// verdicts are stale in that case).
    pub fn note_pending_changed(&mut self, objects: &[i64]) {
        self.dirty.extend(objects.iter().copied());
    }

    /// Note pending requests removed because they were scheduled.
    pub fn note_taken(&mut self, requests: &[Request]) {
        for r in requests {
            self.dirty.insert(r.object);
        }
    }

    /// Note objects whose history lock state changed (the return value of
    /// [`HistoryStore::insert_batch`]).
    pub fn note_history_changed(&mut self, objects: &[i64]) {
        self.dirty.extend(objects.iter().copied());
    }

    /// Note a change to the auxiliary relations (e.g. a new `object_class`
    /// classification): every cached decision may be stale.
    pub fn note_aux_changed(&mut self) {
        self.all_dirty = true;
        self.relaxed_built = false;
    }

    /// Pending requests re-examined by the last `qualify` call — the
    /// incremental engine's unit of work, exported as
    /// [`crate::metrics::SchedulerMetrics::delta_rows`].
    pub fn last_delta_rows(&self) -> u64 {
        self.last_delta_rows
    }

    /// Evaluate the protocol's qualification rule over the current state,
    /// re-deriving only dirty objects.  Returns the qualified keys sorted
    /// and deduplicated, exactly as the declarative back-ends do.
    ///
    /// # Panics
    /// Debug-asserts that the kind is supported; release builds fall back
    /// to treating it as SS2PL, so callers must check [`Self::supports`].
    pub fn qualify(
        &mut self,
        pending: &PendingStore,
        history: &HistoryStore,
        aux: &[Table],
    ) -> Vec<RequestKey> {
        let mut qualified = Vec::new();
        self.qualify_into(pending, history, aux, &mut qualified);
        qualified
    }

    /// [`IncrementalQualifier::qualify`] into a caller-owned buffer (which
    /// is cleared first) — the round loop's variant, reusing one qualified
    /// buffer across rounds.
    pub fn qualify_into(
        &mut self,
        pending: &PendingStore,
        history: &HistoryStore,
        aux: &[Table],
        qualified: &mut Vec<RequestKey>,
    ) {
        debug_assert!(
            Self::supports(self.kind),
            "custom rules have no incremental form"
        );
        self.ensure_relaxed_objects(aux);

        self.last_delta_rows = 0;
        let mut objects = std::mem::take(&mut self.objects_scratch);
        objects.clear();
        if self.all_dirty {
            for list in self.blocked_by_object.values_mut() {
                list.clear();
                self.key_list_pool.push(std::mem::take(list));
            }
            self.blocked_by_object.clear();
            for list in self.qualified_by_object.values_mut() {
                list.clear();
                self.key_list_pool.push(std::mem::take(list));
            }
            self.qualified_by_object.clear();
            objects.extend(pending.objects());
            self.all_dirty = false;
            self.dirty.clear();
        } else {
            objects.extend(self.dirty.drain());
        }
        for &object in &objects {
            self.recompute_object(object, pending, history);
        }
        objects.clear();
        self.objects_scratch = objects;

        // Assemble the qualified set from the per-object caches.
        qualified.clear();
        match self.kind {
            ProtocolKind::Conservative2pl => {
                // One blocked request blocks its whole transaction.
                self.blocked_tas_scratch.clear();
                self.blocked_tas_scratch
                    .extend(self.blocked_by_object.values().flatten().map(|key| key.ta));
                qualified.extend(
                    self.qualified_by_object
                        .values()
                        .flatten()
                        .filter(|key| !self.blocked_tas_scratch.contains(&key.ta))
                        .copied(),
                );
            }
            _ => qualified.extend(self.qualified_by_object.values().flatten().copied()),
        }
        qualified.sort_unstable();
    }

    /// Whether *every* request of an escalated transaction's local `slice`
    /// (data requests only) qualifies under the protocol against the live
    /// `history` — the shard's vote in the cross-shard handshake.  The slice
    /// is judged as if it were the only pending work, by the same
    /// per-object rule a round applies (`judge_object`), out of reusable
    /// scratch: no temporary pending relation is built and none of the
    /// cross-round caches is touched.
    pub fn slice_admitted(
        &mut self,
        slice: &[Request],
        history: &HistoryStore,
        aux: &[Table],
    ) -> bool {
        debug_assert!(
            Self::supports(self.kind),
            "custom rules have no incremental form"
        );
        self.ensure_relaxed_objects(aux);
        let mut rows = std::mem::take(&mut self.slice_rows_scratch);
        let mut admitted = true;
        for (i, first) in slice.iter().enumerate() {
            // Slices are a handful of requests: a quadratic "first row of
            // its object" scan beats building a grouping map.
            if slice[..i].iter().any(|r| r.object == first.object) {
                continue;
            }
            rows.clear();
            rows.extend(
                slice[i..]
                    .iter()
                    .filter(|r| r.object == first.object)
                    .map(|r| (r.key(), r.op)),
            );
            judge_object(
                self.kind,
                first.object,
                &rows,
                history,
                &self.relaxed_objects,
                |_, blocked| admitted &= !blocked,
            );
        }
        rows.clear();
        self.slice_rows_scratch = rows;
        admitted
    }

    /// Derive the rationing protocol's category-C object set from `aux` on
    /// first use (and again after [`Self::note_aux_changed`]).
    fn ensure_relaxed_objects(&mut self, aux: &[Table]) {
        if self.kind == ProtocolKind::ConsistencyRationing && !self.relaxed_built {
            self.relaxed_objects = relaxed_objects(aux);
            self.relaxed_built = true;
        }
    }

    /// Re-derive the blocked/qualified split of the pending requests on one
    /// object, rebuilding both cached lists from the store's current rows.
    fn recompute_object(&mut self, object: i64, pending: &PendingStore, history: &HistoryStore) {
        // Drop the stale lists for this object.  Both lists are derived
        // from `rows_on_object` alone, so a request that moved to another
        // dirty object (duplicate-key replacement) simply reappears in the
        // other object's rebuild, whichever order the dirty set drains in.
        if let Some(mut old) = self.blocked_by_object.remove(&object) {
            old.clear();
            self.key_list_pool.push(old);
        }
        if let Some(mut old) = self.qualified_by_object.remove(&object) {
            old.clear();
            self.key_list_pool.push(old);
        }
        let rows = pending.rows_on_object(object);
        if rows.is_empty() {
            return;
        }
        self.last_delta_rows += rows.len() as u64;

        let mut qualified_here = self.key_list_pool.pop().unwrap_or_default();
        let mut blocked_here = self.key_list_pool.pop().unwrap_or_default();
        judge_object(
            self.kind,
            object,
            rows,
            history,
            &self.relaxed_objects,
            |key, blocked| {
                if blocked {
                    blocked_here.push(key);
                } else {
                    qualified_here.push(key);
                }
            },
        );
        if blocked_here.is_empty() {
            self.key_list_pool.push(blocked_here);
        } else {
            self.blocked_by_object.insert(object, blocked_here);
        }
        if qualified_here.is_empty() {
            self.key_list_pool.push(qualified_here);
        } else {
            self.qualified_by_object.insert(object, qualified_here);
        }
    }
}

/// The per-object rule every built-in protocol reduces to: report, for each
/// pending `(key, op)` row on `object`, whether `kind` blocks it given the
/// other rows on the object and the object's lock state in `history`.
fn judge_object(
    kind: ProtocolKind,
    object: i64,
    rows: &[(RequestKey, Operation)],
    history: &HistoryStore,
    relaxed_objects: &FastIdSet<i64>,
    mut verdict: impl FnMut(RequestKey, bool),
) {
    // FCFS blocks nothing; rationing admits category-C objects outright.
    if kind == ProtocolKind::Fcfs
        || (kind == ProtocolKind::ConsistencyRationing && relaxed_objects.contains(&object))
    {
        for &(key, _) in rows {
            verdict(key, false);
        }
        return;
    }

    // The batch-conflict minima of the paper's
    // `OpsOnSameObjAsPriorSelectOps` rules: the smallest pending
    // transaction id on the object, and the smallest with a write.
    let locks = history.lock_index();
    let mut min_any_ta = u64::MAX;
    let mut min_write_ta = u64::MAX;
    for &(key, op) in rows {
        min_any_ta = min_any_ta.min(key.ta);
        if op == Operation::Write {
            min_write_ta = min_write_ta.min(key.ta);
        }
    }

    let relaxed_writes_only = kind == ProtocolKind::RelaxedReads;
    for &(key, op) in rows {
        let is_write = op == Operation::Write;
        if relaxed_writes_only && !is_write {
            // Reads and terminators never wait under relaxed reads.
            verdict(key, false);
            continue;
        }
        // The integer comparisons against the batch minima decide most
        // deferred requests outright, so they run before the lock-index
        // hash probes (a pure disjunction — order only affects cost).
        let blocked = if relaxed_writes_only {
            // Writes keep SS2PL's write-write exclusion only.
            min_write_ta < key.ta || locks.write_locked_by_other(object, key.ta)
        } else {
            // Full SS2PL blocking (also C2PL's per-request core, and the
            // category-A branch of consistency rationing):
            //  1. an earlier pending write on the same object;
            //  2. a write with any earlier pending request on the object;
            //  3. the object is write-locked by another transaction;
            //  4. a write on an object read-locked by another transaction.
            min_write_ta < key.ta
                || (is_write && min_any_ta < key.ta)
                || locks.write_locked_by_other(object, key.ta)
                || (is_write && locks.read_locked_by_other(object, key.ta))
        };
        verdict(key, blocked);
    }
}

/// One-shot qualification through the incremental engine: build a fresh
/// qualifier, mark everything dirty and evaluate once — same admission
/// decisions as the declarative rule, one linear pass instead of a
/// multi-join plan.
pub fn qualify_once(
    kind: ProtocolKind,
    pending: &PendingStore,
    history: &HistoryStore,
    aux: &[Table],
) -> Vec<RequestKey> {
    IncrementalQualifier::new(kind).qualify(pending, history, aux)
}

/// Category-C ("relaxed") objects from the auxiliary `object_class`
/// relation, as the rationing rule's `relaxed_obj` predicate derives them.
fn relaxed_objects(aux: &[Table]) -> FastIdSet<i64> {
    let mut relaxed = FastIdSet::default();
    for table in aux {
        if table.name() != "object_class" {
            continue;
        }
        let Some(obj_col) = table.schema().index_of("obj") else {
            continue;
        };
        let Some(class_col) = table.schema().index_of("class") else {
            continue;
        };
        for row in table.rows() {
            if row.get(class_col).as_str() == Some("c") {
                if let Some(object) = row.get(obj_col).as_int() {
                    relaxed.insert(object);
                }
            }
        }
    }
    relaxed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{object_class_table, ObjectClass, Protocol};
    use relalg::Catalog;

    /// Evaluate `kind`'s declarative rule from scratch over the same state —
    /// the oracle the incremental path must match.
    fn scratch(
        kind: ProtocolKind,
        pending: &PendingStore,
        history: &HistoryStore,
        aux: &[Table],
    ) -> Vec<RequestKey> {
        let mut catalog = Catalog::new();
        catalog.register(pending.table());
        catalog.register(history.table());
        catalog.register(Table::new("sla", Request::sla_schema()));
        for t in aux {
            catalog.replace(t.clone());
        }
        Protocol::algebra(kind).rules.qualify(&catalog).unwrap()
    }

    fn check_all_kinds(pending: &PendingStore, history: &HistoryStore, aux: &[Table]) {
        // The rationing rule scans `object_class`; a deployment without
        // classifications registers it empty, so the oracle needs it too.
        let mut aux = aux.to_vec();
        if !aux.iter().any(|t| t.name() == "object_class") {
            aux.push(crate::protocol::object_class_table(&[]));
        }
        for &kind in ProtocolKind::all() {
            let incremental = qualify_once(kind, pending, history, &aux);
            let oracle = scratch(kind, pending, history, &aux);
            assert_eq!(
                incremental, oracle,
                "incremental {kind:?} disagrees with the declarative rule"
            );
        }
    }

    #[test]
    fn matches_the_rules_on_a_contended_state() {
        let mut history = HistoryStore::new();
        history.insert(&Request::write(1, 10, 0, 5)); // T10 wlocks 5
        history.insert(&Request::read(2, 11, 0, 6)); // T11 rlocks 6
        history.insert(&Request::write(3, 12, 0, 7));
        history.insert(&Request::commit(4, 12, 1)); // T12 done: 7 free

        let mut pending = PendingStore::new();
        pending.insert_batch(vec![
            Request::read(5, 20, 0, 5),  // blocked: wlock by T10
            Request::write(6, 21, 0, 6), // blocked: rlock by T11
            Request::read(7, 22, 0, 6),  // shares the rlock, but loses
            // the batch conflict against T21's earlier pending write
            Request::write(8, 23, 0, 7),  // lock released: qualifies
            Request::write(9, 24, 0, 8),  // free object, but see T25 below
            Request::read(10, 25, 0, 8),  // loses batch conflict vs T24
            Request::commit(11, 26, 0),   // terminals qualify
            Request::write(12, 10, 1, 5), // T10's own lock: qualifies
        ]);

        check_all_kinds(&pending, &history, &[]);
    }

    /// `slice_admitted` must say exactly what the handshake used to derive
    /// from a temporary pending store: "every slice key qualified".
    #[test]
    fn slice_admitted_matches_qualifying_the_slice_as_the_only_pending_work() {
        let aux = [object_class_table(&[(6, ObjectClass::Relaxed)])];
        let mut history = HistoryStore::new();
        history.insert(&Request::write(1, 10, 0, 5)); // T10 wlocks 5
        history.insert(&Request::read(2, 11, 0, 6)); // T11 rlocks 6
        history.insert(&Request::write(3, 12, 0, 7));
        history.insert(&Request::commit(4, 12, 1)); // 7 is free again
        let slices: Vec<Vec<Request>> = vec![
            vec![],
            vec![Request::write(0, 20, 0, 7), Request::read(0, 20, 1, 8)],
            vec![Request::read(0, 20, 0, 5)],
            vec![Request::read(0, 20, 0, 6), Request::write(0, 20, 1, 7)],
            vec![Request::write(0, 20, 0, 6)],
            vec![Request::read(0, 20, 0, 6), Request::write(0, 20, 1, 6)],
            vec![Request::write(0, 10, 1, 5), Request::read(0, 10, 2, 5)],
            // Not a shape the router produces (one slice, two transactions),
            // but the per-object minima must still agree.
            vec![Request::write(0, 21, 0, 8), Request::read(0, 20, 0, 8)],
        ];
        for &kind in ProtocolKind::all() {
            let mut q = IncrementalQualifier::new(kind);
            for slice in &slices {
                let mut pending = PendingStore::new();
                let numbered: Vec<Request> = slice
                    .iter()
                    .enumerate()
                    .map(|(i, r)| Request {
                        id: i as u64 + 1,
                        ..*r
                    })
                    .collect();
                pending.insert_batch(numbered);
                let qualified = qualify_once(kind, &pending, &history, &aux);
                let expected = slice.iter().all(|r| qualified.contains(&r.key()));
                assert_eq!(
                    q.slice_admitted(slice, &history, &aux),
                    expected,
                    "{kind:?} on {slice:?}"
                );
            }
        }
    }

    #[test]
    fn rationing_consults_the_object_class_relation() {
        let aux = [object_class_table(&[
            (5, ObjectClass::Relaxed),
            (6, ObjectClass::Critical),
        ])];
        let mut history = HistoryStore::new();
        history.insert(&Request::write(1, 10, 0, 5));
        history.insert(&Request::write(2, 10, 1, 6));
        let mut pending = PendingStore::new();
        pending.insert_batch(vec![
            Request::write(3, 11, 0, 5), // relaxed object: qualifies
            Request::write(4, 12, 0, 6), // critical object: blocked
        ]);
        check_all_kinds(&pending, &history, &aux);
    }

    #[test]
    fn incremental_rounds_track_mutations() {
        let mut q = IncrementalQualifier::new(ProtocolKind::Ss2pl);
        let mut pending = PendingStore::new();
        let mut history = HistoryStore::new();

        // Round 1: a write on a free object qualifies.
        let r1 = Request::write(1, 1, 0, 9);
        let arrived = pending.insert_batch(vec![r1]);
        q.note_pending_changed(&arrived);
        let k1 = q.qualify(&pending, &history, &[]);
        assert_eq!(k1, vec![RequestKey { ta: 1, intra: 0 }]);

        // It is scheduled: taken from pending, inserted into history.
        let taken = pending.take(&k1);
        q.note_taken(&taken);
        let changed = history.insert_batch(taken.iter());
        q.note_history_changed(&changed);

        // Round 2: a conflicting read is blocked; an unrelated one is not.
        let r2 = Request::read(2, 2, 0, 9);
        let r3 = Request::read(3, 3, 0, 10);
        let arrived = pending.insert_batch(vec![r2, r3]);
        q.note_pending_changed(&arrived);
        let k2 = q.qualify(&pending, &history, &[]);
        assert_eq!(k2, vec![RequestKey { ta: 3, intra: 0 }]);
        // Only the two dirty objects' requests were examined.
        assert_eq!(q.last_delta_rows(), 2);

        // Round 3: nothing changed on object 10's side after T3 leaves, and
        // T1 commits — releasing object 9 and unblocking T2.
        let taken = pending.take(&k2);
        q.note_taken(&taken);
        let changed = history.insert_batch(taken.iter());
        q.note_history_changed(&changed);
        let commit = Request::commit(4, 1, 1);
        let arrived = pending.insert_batch(vec![commit]);
        q.note_pending_changed(&arrived);
        let k3 = q.qualify(&pending, &history, &[]);
        assert_eq!(
            k3,
            vec![RequestKey { ta: 1, intra: 1 }],
            "commit qualifies; T2 still blocked until the commit lands"
        );
        let taken = pending.take(&k3);
        q.note_taken(&taken);
        let changed = history.insert_batch(taken.iter());
        assert_eq!(changed, vec![9], "the commit released object 9");
        q.note_history_changed(&changed);
        let k4 = q.qualify(&pending, &history, &[]);
        assert_eq!(k4, vec![RequestKey { ta: 2, intra: 0 }]);
    }

    #[test]
    fn duplicate_key_replacement_across_objects_stays_equivalent() {
        let kind = ProtocolKind::Ss2pl;
        let mut q = IncrementalQualifier::new(kind);
        let mut pending = PendingStore::new();
        let mut history = HistoryStore::new();
        // T1 write-locks object 5, T3 write-locks object 6.
        let changed = history.insert(&Request::write(1, 1, 0, 5));
        q.note_history_changed(&changed);
        let changed = history.insert(&Request::write(2, 3, 0, 6));
        q.note_history_changed(&changed);
        // T2's write on object 5 is blocked; the verdict caches under 5.
        let arrived = pending.insert_batch(vec![Request::write(3, 2, 0, 5)]);
        q.note_pending_changed(&arrived);
        assert!(q.qualify(&pending, &history, &[]).is_empty());

        // The same (ta, intra) key resubmits on object 6: the replacement
        // dirties *both* objects, and the verdict moves to object 6.
        let arrived = pending.insert_batch(vec![Request::write(4, 2, 0, 6)]);
        assert_eq!(arrived, vec![5, 6]);
        q.note_pending_changed(&arrived);
        let keys = q.qualify(&pending, &history, &[]);
        assert_eq!(keys, scratch(kind, &pending, &history, &[]));
        assert!(keys.is_empty(), "still blocked, now by T3's lock on 6");

        // T1 commits, releasing object 5.  The stale cache under object 5
        // must not free T2 — it is legitimately blocked on object 6.
        let changed = history.insert(&Request::commit(5, 1, 1));
        q.note_history_changed(&changed);
        let keys = q.qualify(&pending, &history, &[]);
        assert_eq!(keys, scratch(kind, &pending, &history, &[]));
        assert!(keys.is_empty(), "T3 still write-locks object 6");

        // Mirror case: replacing onto a free object must unblock.
        let arrived = pending.insert_batch(vec![Request::write(6, 2, 0, 7)]);
        q.note_pending_changed(&arrived);
        let keys = q.qualify(&pending, &history, &[]);
        assert_eq!(keys, scratch(kind, &pending, &history, &[]));
        assert_eq!(keys, vec![RequestKey { ta: 2, intra: 0 }]);
    }
}
