//! The history database (Figure 1: "Already executed requests").
//!
//! The paper: "the scheduler accesses a second database, called history
//! database, in which all relevant prior executed requests are stored.  From
//! this history database, all necessary information about the current
//! database state etc. can be obtained."
//!
//! The store keeps the scheduled requests themselves, in insertion order,
//! plus what a round reads of them: the set of finished transactions and a
//! **per-object conflict index** ([`LockIndex`]) maintained on every
//! insert — for each object, the set of unfinished transactions holding a
//! write lock and the set holding a (non-upgraded) read lock, exactly the
//! `WLockedObjects` / `RLockedObjects` CTEs of the paper's Listing 1.  The
//! incremental qualification engine ([`crate::qualify`]) decides admission
//! from that index in O(changed objects) per round.  The paper's `history`
//! relation is *built* from the rows by [`HistoryStore::table`] when a
//! consumer asks for it (the from-scratch rule catalog, a custom rule's
//! whole-input feed, a custom rule's escalation snapshot); a built-in round
//! never does.

use crate::request::{Operation, Request};
use obs::{FastIdMap, FastIdSet};
use relalg::Table;

/// Per-object lock state derived incrementally from the history.
///
/// Invariant (matching Listing 1's CTEs over the current history rows):
/// `writers[o]` = transactions with a `w` row on `o` and no terminal row;
/// `readers[o]` = transactions with an `r` row on `o`, no terminal row and
/// no `w` row on `o` (a write *upgrades* the read lock).
#[derive(Debug, Default)]
pub struct LockIndex {
    /// object -> write-holding unfinished transactions.
    writers: FastIdMap<i64, FastIdSet<u64>>,
    /// object -> read-holding unfinished transactions (that did not also
    /// write the object).
    readers: FastIdMap<i64, FastIdSet<u64>>,
    /// transaction -> objects it holds any lock on (for O(held) release).
    held: FastIdMap<u64, FastIdSet<i64>>,
}

impl LockIndex {
    /// Transactions (other than `ta`) holding a write lock on `object`.
    pub fn write_locked_by_other(&self, object: i64, ta: u64) -> bool {
        self.writers
            .get(&object)
            .is_some_and(|set| set.len() > 1 || (set.len() == 1 && !set.contains(&ta)))
    }

    /// Transactions (other than `ta`) holding a read lock on `object`.
    pub fn read_locked_by_other(&self, object: i64, ta: u64) -> bool {
        self.readers
            .get(&object)
            .is_some_and(|set| set.len() > 1 || (set.len() == 1 && !set.contains(&ta)))
    }

    /// Whether `ta` holds a write lock on `object`.
    pub fn holds_write(&self, object: i64, ta: u64) -> bool {
        self.writers
            .get(&object)
            .is_some_and(|set| set.contains(&ta))
    }

    /// Objects on which `ta` currently holds any lock.
    pub fn held_objects(&self, ta: u64) -> impl Iterator<Item = i64> + '_ {
        self.held.get(&ta).into_iter().flatten().copied()
    }

    /// Total number of (object, transaction) lock entries.
    pub fn len(&self) -> usize {
        self.writers.values().map(|set| set.len()).sum::<usize>()
            + self.readers.values().map(|set| set.len()).sum::<usize>()
    }

    /// Whether no locks are held.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    fn add_write(&mut self, object: i64, ta: u64) {
        self.writers.entry(object).or_default().insert(ta);
        // A write upgrades any read lock the same transaction held.
        if let Some(readers) = self.readers.get_mut(&object) {
            readers.remove(&ta);
            if readers.is_empty() {
                self.readers.remove(&object);
            }
        }
        self.held.entry(ta).or_default().insert(object);
    }

    fn add_read(&mut self, object: i64, ta: u64) {
        if self.holds_write(object, ta) {
            return; // already write-locked: the read does not demote it
        }
        self.readers.entry(object).or_default().insert(ta);
        self.held.entry(ta).or_default().insert(object);
    }

    /// Drop every lock `ta` holds, appending the released objects to `out`
    /// (the appended range is sorted in place).
    fn release_into(&mut self, ta: u64, out: &mut Vec<i64>) {
        let Some(objects) = self.held.remove(&ta) else {
            return;
        };
        let start = out.len();
        out.extend(objects.iter().copied());
        for &object in &out[start..] {
            if let Some(set) = self.writers.get_mut(&object) {
                set.remove(&ta);
                if set.is_empty() {
                    self.writers.remove(&object);
                }
            }
            if let Some(set) = self.readers.get_mut(&object) {
                set.remove(&ta);
                if set.is_empty() {
                    self.readers.remove(&object);
                }
            }
        }
        out[start..].sort_unstable();
    }
}

/// Stores requests that have been scheduled (and sent to the server), so that
/// protocol rules can reason about held locks, finished transactions and
/// prior conflicting operations.
#[derive(Debug, Default)]
pub struct HistoryStore {
    /// The retained history, in insertion order.
    rows: Vec<Request>,
    finished: FastIdSet<u64>,
    total_inserted: u64,
    locks: LockIndex,
    generation: u64,
}

impl HistoryStore {
    /// Create an empty history.
    pub fn new() -> Self {
        HistoryStore::default()
    }

    /// Record a scheduled request, returning the objects whose lock state
    /// changed: the request's own object for data operations, or every
    /// object whose locks a terminal released.
    pub fn insert(&mut self, request: &Request) -> Vec<i64> {
        let mut changed = Vec::new();
        self.insert_into(request, &mut changed);
        changed
    }

    /// [`HistoryStore::insert`] appending the changed objects to a
    /// caller-owned buffer — the round loop's variant, reusing one buffer
    /// across rounds instead of allocating a `Vec` per recorded request.
    pub fn insert_into(&mut self, request: &Request, changed: &mut Vec<i64>) {
        self.rows.push(*request);
        self.total_inserted += 1;
        self.generation += 1;
        match request.op {
            Operation::Commit | Operation::Abort => {
                self.finished.insert(request.ta);
                self.locks.release_into(request.ta, changed);
            }
            Operation::Write => {
                if !self.finished.contains(&request.ta) {
                    self.locks.add_write(request.object, request.ta);
                    changed.push(request.object);
                }
            }
            Operation::Read => {
                if !self.finished.contains(&request.ta) {
                    self.locks.add_read(request.object, request.ta);
                    changed.push(request.object);
                }
            }
        }
    }

    /// Record a batch of scheduled requests, returning all changed objects
    /// (deduplicated, sorted).
    pub fn insert_batch<'a>(
        &mut self,
        requests: impl IntoIterator<Item = &'a Request>,
    ) -> Vec<i64> {
        let mut changed = Vec::new();
        self.insert_batch_into(requests, &mut changed);
        changed
    }

    /// [`HistoryStore::insert_batch`] appending into a caller-owned buffer
    /// (deduplicated and sorted over the whole buffer).
    pub fn insert_batch_into<'a>(
        &mut self,
        requests: impl IntoIterator<Item = &'a Request>,
        changed: &mut Vec<i64>,
    ) {
        for r in requests {
            self.insert_into(r, changed);
        }
        changed.sort_unstable();
        changed.dedup();
    }

    /// Number of history rows currently retained.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total rows ever inserted (monotonic, unaffected by pruning).
    pub fn total_inserted(&self) -> u64 {
        self.total_inserted
    }

    /// Monotonic counter bumped on every mutation (insert or prune).  The
    /// scheduler compares generations across rounds to skip re-evaluating
    /// an unchanged state.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Build the relational view — the `history` relation of the paper's
    /// Listing 1 — with one row per retained request in insertion order.
    /// O(history): only the cold consumers call it.
    pub fn table(&self) -> Table {
        Request::relation("history", &self.rows)
    }

    /// The incrementally maintained per-object conflict index.
    pub fn lock_index(&self) -> &LockIndex {
        &self.locks
    }

    /// Whether a transaction has a commit or abort record in the history.
    pub fn is_finished(&self, ta: u64) -> bool {
        self.finished.contains(&ta)
    }

    /// Transactions with a terminal record.
    pub fn finished_transactions(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.finished.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Drop the rows of finished transactions — the "relevant prior executed
    /// requests" the paper keeps are exactly those of transactions that still
    /// hold locks.  Under SS2PL a finished transaction's history rows can no
    /// longer influence any scheduling decision, so pruning them bounds the
    /// history size (and therefore rule-evaluation time) by the number of
    /// *active* transactions.  Returns the number of pruned rows.
    ///
    /// Pruning never changes the lock index: finished transactions hold no
    /// locks by definition.
    pub fn prune_finished(&mut self) -> usize {
        if self.finished.is_empty() {
            return 0;
        }
        let before = self.rows.len();
        let finished = &self.finished;
        self.rows.retain(|r| !finished.contains(&r.ta));
        let removed = before - self.rows.len();
        // Once its rows are gone a finished transaction is forgotten; with
        // nothing matched the set is kept.
        if removed > 0 {
            self.finished.clear();
            self.generation += 1;
        }
        removed
    }

    /// Objects write-locked by unfinished transactions, with the owning
    /// transaction — the declarative `WLockedObjects` CTE of Listing 1,
    /// answered from the incrementally maintained [`LockIndex`] instead of a
    /// full history scan.
    pub fn write_locked_objects(&self) -> Vec<(i64, u64)> {
        let mut out: Vec<(i64, u64)> = self
            .locks
            .writers
            .iter()
            .flat_map(|(&object, tas)| tas.iter().map(move |&ta| (object, ta)))
            .collect();
        out.sort_unstable();
        out
    }

    /// Objects read-locked (and not yet released) by unfinished transactions
    /// that have not also written them — the `RLockedObjects` CTE, answered
    /// from the [`LockIndex`].
    pub fn read_locked_objects(&self) -> Vec<(i64, u64)> {
        let mut out: Vec<(i64, u64)> = self
            .locks
            .readers
            .iter()
            .flat_map(|(&object, tas)| tas.iter().map(move |&ta| (object, ta)))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pending::PendingStore;

    #[test]
    fn insert_and_finished_tracking() {
        let mut h = HistoryStore::new();
        h.insert(&Request::write(1, 10, 0, 100));
        h.insert(&Request::read(2, 11, 0, 101));
        h.insert(&Request::commit(3, 10, 1));
        assert_eq!(h.len(), 3);
        assert!(h.is_finished(10));
        assert!(!h.is_finished(11));
        assert_eq!(h.finished_transactions(), vec![10]);
        assert_eq!(h.total_inserted(), 3);
        assert!(h.generation() >= 3);
    }

    #[test]
    fn lock_oracles_match_listing_1_semantics() {
        let mut h = HistoryStore::new();
        // T10 wrote object 100 and is still active -> write lock.
        h.insert(&Request::write(1, 10, 0, 100));
        // T11 read object 101 and is still active -> read lock.
        h.insert(&Request::read(2, 11, 0, 101));
        // T12 wrote object 102 but committed -> no lock.
        h.insert(&Request::write(3, 12, 0, 102));
        h.insert(&Request::commit(4, 12, 1));
        // T13 read and then wrote object 103 -> write lock, not read lock.
        h.insert(&Request::read(5, 13, 0, 103));
        h.insert(&Request::write(6, 13, 1, 103));

        assert_eq!(h.write_locked_objects(), vec![(100, 10), (103, 13)]);
        assert_eq!(h.read_locked_objects(), vec![(101, 11)]);
    }

    #[test]
    fn insert_reports_changed_objects_and_releases() {
        let mut h = HistoryStore::new();
        assert_eq!(h.insert(&Request::write(1, 10, 0, 100)), vec![100]);
        assert_eq!(h.insert(&Request::read(2, 10, 1, 101)), vec![101]);
        // The terminal releases both locks.
        let mut released = h.insert(&Request::commit(3, 10, 2));
        released.sort_unstable();
        assert_eq!(released, vec![100, 101]);
        assert!(h.lock_index().is_empty());
        // Inserts for an already-finished transaction change no locks.
        assert!(h.insert(&Request::write(4, 10, 3, 102)).is_empty());
    }

    #[test]
    fn read_after_own_write_does_not_create_a_read_lock() {
        let mut h = HistoryStore::new();
        h.insert(&Request::write(1, 20, 0, 5));
        h.insert(&Request::read(2, 20, 1, 5));
        assert_eq!(h.write_locked_objects(), vec![(5, 20)]);
        assert!(h.read_locked_objects().is_empty());
    }

    #[test]
    fn prune_drops_only_finished_transactions() {
        let mut h = HistoryStore::new();
        h.insert(&Request::write(1, 10, 0, 100));
        h.insert(&Request::commit(2, 10, 1));
        h.insert(&Request::write(3, 11, 0, 101));
        let generation = h.generation();
        let removed = h.prune_finished();
        assert_eq!(removed, 2);
        assert_eq!(h.len(), 1);
        assert_eq!(h.generation(), generation + 1);
        // The surviving active transaction keeps its lock.
        assert_eq!(h.write_locked_objects(), vec![(101, 11)]);
        // Pruning twice is a no-op.
        assert_eq!(h.prune_finished(), 0);
        assert_eq!(h.generation(), generation + 1);
        // The monotone counter keeps the full count.
        assert_eq!(h.total_inserted(), 3);
    }

    #[test]
    fn batch_insert() {
        let mut h = HistoryStore::new();
        let batch = [Request::read(1, 1, 0, 5), Request::commit(2, 1, 1)];
        let changed = h.insert_batch(batch.iter());
        assert_eq!(changed, vec![5]);
        assert_eq!(h.len(), 2);
        assert!(h.is_finished(1));
    }

    #[test]
    fn lock_index_other_holder_queries() {
        let mut h = HistoryStore::new();
        h.insert(&Request::write(1, 10, 0, 7));
        h.insert(&Request::read(2, 11, 0, 8));
        let locks = h.lock_index();
        assert!(locks.write_locked_by_other(7, 99));
        assert!(!locks.write_locked_by_other(7, 10));
        assert!(locks.read_locked_by_other(8, 99));
        assert!(!locks.read_locked_by_other(8, 11));
        assert!(!locks.write_locked_by_other(12345, 1));
        assert_eq!(locks.len(), 2);
        assert_eq!(locks.held_objects(10).collect::<Vec<_>>(), vec![7]);
    }

    /// The stores once kept a `relalg::Table` copy of their rows, updated
    /// in step with every insert, take and prune.  The relations they build
    /// on request now must equal that mirror row for row and in order,
    /// whatever sequence of operations led there.  The reference below is
    /// the mirror's old maintenance code, restated over `Vec<Request>`.
    #[test]
    fn built_relations_match_the_row_mirror_under_random_operations() {
        for seed in 0..200u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |bound: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % bound
            };
            let prune = seed % 2 == 0;
            let (mut pending, mut history) = (PendingStore::new(), HistoryStore::new());
            let (mut pending_mirror, mut history_mirror) = (Vec::<Request>::new(), Vec::new());
            let mut finished_mirror = std::collections::BTreeSet::new();
            let mut next_id = 0u64;
            for _ in 0..60 {
                match next(4) {
                    // A drain: a few arrivals, some reusing a pending key on
                    // another object (a supersede), some terminals.
                    0 | 1 => {
                        let mut batch = Vec::new();
                        for _ in 0..=next(4) {
                            next_id += 1;
                            let (ta, intra) = match pending_mirror.get(next(8) as usize) {
                                Some(old) if next(3) == 0 => (old.ta, old.intra),
                                _ => (1 + next(12), next(4) as u32),
                            };
                            let request = match next(4) {
                                0 => Request::commit(next_id, ta, intra),
                                1 => Request::write(next_id, ta, intra, next(6) as i64),
                                _ => Request::read(next_id, ta, intra, next(6) as i64),
                            };
                            batch.push(request);
                        }
                        for request in &batch {
                            pending_mirror.retain(|r| r.key() != request.key());
                            pending_mirror.push(*request);
                        }
                        pending.insert_batch(batch);
                    }
                    // A round's take and history insert, then maybe a prune.
                    _ => {
                        let keys: Vec<_> = pending_mirror
                            .iter()
                            .filter(|_| next(2) == 0)
                            .map(Request::key)
                            .collect();
                        let taken = pending.take(&keys);
                        pending_mirror.retain(|r| !keys.contains(&r.key()));
                        history.insert_batch(taken.iter());
                        for request in &taken {
                            history_mirror.push(*request);
                            if request.op.is_terminal() {
                                finished_mirror.insert(request.ta);
                            }
                        }
                        if prune {
                            let removed = history.prune_finished();
                            let before = history_mirror.len();
                            history_mirror.retain(|r| !finished_mirror.contains(&r.ta));
                            assert_eq!(removed, before - history_mirror.len());
                            if removed > 0 {
                                finished_mirror.clear();
                            }
                        }
                    }
                }
                assert_eq!(
                    pending.table().rows(),
                    Request::relation("requests", &pending_mirror).rows(),
                    "seed {seed}: pending relation"
                );
                assert_eq!(
                    history.table().rows(),
                    Request::relation("history", &history_mirror).rows(),
                    "seed {seed}: history relation"
                );
            }
        }
    }
}
