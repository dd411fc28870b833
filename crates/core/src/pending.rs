//! The pending-request database (Figure 1: "Pending request").
//!
//! The store keeps requests, not rows: a key → request map plus the two
//! indexes a round reads — pending rows per object (for the incremental
//! qualifier) and pending intra positions per transaction (for the
//! intra-order filter).  The paper's `requests` relation is *built* from
//! the map by [`PendingStore::table`] when a consumer asks for it — the
//! from-scratch rule catalog, a custom rule's whole-input feed — and a
//! built-in round never does.

use crate::request::{Operation, Request, RequestKey};
use obs::FastIdMap;
use relalg::Table;

/// Stores requests that have been drained from the incoming queue but not yet
/// scheduled: full request objects (write payloads and SLA metadata
/// included) by key, plus a per-object and a per-transaction index so the
/// incremental qualification engine and the intra-order filter touch only
/// what changed.
#[derive(Debug, Default)]
pub struct PendingStore {
    by_key: FastIdMap<RequestKey, Request>,
    /// object -> `(key, op)` of pending requests on it (terminals live under
    /// their sentinel object `-1`, exactly as they do in the relation).  The
    /// operation rides along so the per-object qualification pass never has
    /// to chase each key back through `by_key`.
    by_object: FastIdMap<i64, Vec<(RequestKey, Operation)>>,
    /// ta -> pending intra positions of that transaction.  Lets the
    /// intra-order filter ask "earliest pending step of ta?" in O(steps of
    /// one ta) instead of scanning the whole pending set every round.
    by_ta: FastIdMap<u64, Vec<u32>>,
    generation: u64,
}

impl PendingStore {
    /// Create an empty store.
    pub fn new() -> Self {
        PendingStore::default()
    }

    /// Insert a batch of requests (one incoming-queue drain), returning the
    /// objects whose pending rows changed — each request's own object plus,
    /// for a duplicate `(ta, intra)` key, the *superseded* request's object
    /// (it loses a row, which can change decisions there too).  A duplicate
    /// key replaces the earlier request.
    pub fn insert_batch(&mut self, requests: Vec<Request>) -> Vec<i64> {
        let mut changed = Vec::with_capacity(requests.len());
        self.insert_batch_into(&requests, &mut changed);
        changed
    }

    /// [`PendingStore::insert_batch`] appending the changed objects to a
    /// caller-owned buffer — the round loop's variant, reusing one buffer
    /// across rounds.  Requests are `Copy`, so the slice is not consumed.
    pub fn insert_batch_into(&mut self, requests: &[Request], changed: &mut Vec<i64>) {
        if requests.is_empty() {
            return;
        }
        self.generation += 1;
        for &r in requests {
            let key = r.key();
            changed.push(r.object);
            if let Some(old) = self.by_key.insert(key, r) {
                // Duplicate key: drop the superseded index entry.  The
                // `(ta, intra)` pair is unchanged, so `by_ta` already holds
                // this intra exactly once — don't push it again.
                if let Some(rows) = self.by_object.get_mut(&old.object) {
                    rows.retain(|(k, _)| *k != key);
                }
                changed.push(old.object);
            } else {
                self.by_ta.entry(key.ta).or_default().push(key.intra);
            }
            self.by_object
                .entry(r.object)
                .or_default()
                .push((key, r.op));
        }
        changed.sort_unstable();
        changed.dedup();
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether there are no pending requests.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Monotonic counter bumped on every mutation.  The scheduler compares
    /// generations across rounds to skip re-evaluating an unchanged state.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Build the relational view — the `requests` relation of the paper's
    /// Listing 1 — with one row per pending request in id order.  The
    /// scheduler numbers requests as they are submitted, so that is arrival
    /// order (a superseding request is a new arrival).  O(pending): only
    /// the cold consumers call it.
    pub fn table(&self) -> Table {
        let mut requests: Vec<&Request> = self.by_key.values().collect();
        requests.sort_unstable_by_key(|r| (r.id, r.key()));
        Request::relation("requests", requests)
    }

    /// Look up the full request for a key.
    pub fn get(&self, key: RequestKey) -> Option<&Request> {
        self.by_key.get(&key)
    }

    /// All pending keys, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = RequestKey> + '_ {
        self.by_key.keys().copied()
    }

    /// Pending `(key, op)` rows on the given object — the per-object delta
    /// the incremental qualifier re-evaluates, with the operation inline so
    /// the pass needs no per-key map lookups.
    pub fn rows_on_object(&self, object: i64) -> &[(RequestKey, Operation)] {
        self.by_object
            .get(&object)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Earliest pending intra-transaction position of `ta`, or `None` if the
    /// transaction has nothing pending.  O(pending steps of one transaction),
    /// which is what makes the intra-order filter O(qualified) per round.
    pub fn min_pending_intra(&self, ta: u64) -> Option<u32> {
        self.by_ta
            .get(&ta)
            .and_then(|intras| intras.iter().copied().min())
    }

    /// Objects with at least one pending request (terminals appear under
    /// their sentinel object `-1`).
    pub fn objects(&self) -> impl Iterator<Item = i64> + '_ {
        self.by_object.keys().copied()
    }

    /// Remove the requests with the given keys (they qualified and move to
    /// the history), returning the full request objects in the order given.
    pub fn take(&mut self, keys: &[RequestKey]) -> Vec<Request> {
        let mut taken = Vec::with_capacity(keys.len());
        self.take_into(keys, &mut taken);
        taken
    }

    /// [`PendingStore::take`] appending into a caller-owned buffer — the
    /// round loop's variant, reusing one batch buffer across rounds.
    pub fn take_into(&mut self, keys: &[RequestKey], taken: &mut Vec<Request>) {
        let before = taken.len();
        for key in keys {
            if let Some(r) = self.by_key.remove(key) {
                if let Some(object_rows) = self.by_object.get_mut(&r.object) {
                    object_rows.retain(|(k, _)| k != key);
                    if object_rows.is_empty() {
                        self.by_object.remove(&r.object);
                    }
                }
                if let Some(intras) = self.by_ta.get_mut(&key.ta) {
                    if let Some(pos) = intras.iter().position(|&i| i == key.intra) {
                        intras.swap_remove(pos);
                    }
                    if intras.is_empty() {
                        self.by_ta.remove(&key.ta);
                    }
                }
                taken.push(r);
            }
        }
        if taken.len() > before {
            self.generation += 1;
        }
    }

    /// Distinct transactions with at least one pending request.
    pub fn pending_transactions(&self) -> Vec<u64> {
        let mut tas: Vec<u64> = self.by_ta.keys().copied().collect();
        tas.sort_unstable();
        tas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Operation;

    fn reqs() -> Vec<Request> {
        vec![
            Request::read(1, 10, 0, 100),
            Request::write(2, 10, 1, 101),
            Request::write(3, 11, 0, 100),
            Request::commit(4, 12, 0),
        ]
    }

    #[test]
    fn insert_query_take_cycle() {
        let mut p = PendingStore::new();
        p.insert_batch(reqs());
        assert_eq!(p.len(), 4);
        assert_eq!(p.table().len(), 4);
        assert_eq!(p.pending_transactions(), vec![10, 11, 12]);

        let taken = p.take(&[
            RequestKey { ta: 10, intra: 0 },
            RequestKey { ta: 12, intra: 0 },
        ]);
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].op, Operation::Read);
        assert_eq!(taken[1].op, Operation::Commit);
        assert_eq!(p.len(), 2);
        assert_eq!(p.table().len(), 2);
        assert!(p.get(RequestKey { ta: 10, intra: 0 }).is_none());
        assert!(p.get(RequestKey { ta: 10, intra: 1 }).is_some());
    }

    #[test]
    fn take_of_unknown_keys_is_silent() {
        let mut p = PendingStore::new();
        p.insert_batch(reqs());
        let generation = p.generation();
        let taken = p.take(&[RequestKey { ta: 99, intra: 0 }]);
        assert!(taken.is_empty());
        assert_eq!(p.len(), 4);
        assert_eq!(p.generation(), generation, "no-op take must not dirty");
    }

    #[test]
    fn requests_preserve_payloads() {
        let mut p = PendingStore::new();
        let mut r = Request::write(1, 5, 0, 7);
        r.write_value = Some(relalg::Value::Int(999));
        p.insert_batch(vec![r]);
        let got = p.get(RequestKey { ta: 5, intra: 0 }).unwrap();
        assert_eq!(got.write_value, Some(relalg::Value::Int(999)));
    }

    #[test]
    fn object_index_tracks_inserts_and_takes() {
        let mut p = PendingStore::new();
        p.insert_batch(reqs());
        assert_eq!(p.rows_on_object(100).len(), 2);
        assert_eq!(p.rows_on_object(101).len(), 1);
        // The operation rides along with the key.
        assert_eq!(p.rows_on_object(101)[0].1, Operation::Write);
        // Terminals index under the sentinel object.
        assert_eq!(p.rows_on_object(-1).len(), 1);
        p.take(&[RequestKey { ta: 10, intra: 0 }]);
        assert_eq!(p.rows_on_object(100).len(), 1);
        assert_eq!(p.keys().count(), 3);
    }

    #[test]
    fn min_pending_intra_tracks_per_transaction_steps() {
        let mut p = PendingStore::new();
        p.insert_batch(reqs());
        assert_eq!(p.min_pending_intra(10), Some(0));
        assert_eq!(p.min_pending_intra(11), Some(0));
        assert_eq!(p.min_pending_intra(99), None);
        p.take(&[RequestKey { ta: 10, intra: 0 }]);
        assert_eq!(p.min_pending_intra(10), Some(1));
        p.take(&[RequestKey { ta: 10, intra: 1 }]);
        assert_eq!(p.min_pending_intra(10), None);
    }

    #[test]
    fn duplicate_key_replaces_the_earlier_request() {
        let mut p = PendingStore::new();
        p.insert_batch(vec![Request::read(1, 5, 0, 7)]);
        p.insert_batch(vec![Request::write(2, 5, 0, 8)]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.table().len(), 1);
        assert!(p.rows_on_object(7).is_empty());
        assert_eq!(p.rows_on_object(8).len(), 1);
        // The replacement did not double-count the transaction's step.
        assert_eq!(p.pending_transactions(), vec![5]);
        assert_eq!(p.min_pending_intra(5), Some(0));
        assert_eq!(
            p.get(RequestKey { ta: 5, intra: 0 }).unwrap().op,
            Operation::Write
        );
    }

    #[test]
    fn generation_bumps_on_mutation() {
        let mut p = PendingStore::new();
        let g0 = p.generation();
        p.insert_batch(vec![Request::read(1, 1, 0, 2)]);
        let g1 = p.generation();
        assert!(g1 > g0);
        p.take(&[RequestKey { ta: 1, intra: 0 }]);
        assert!(p.generation() > g1);
        // Empty insert is a no-op.
        let g2 = p.generation();
        p.insert_batch(Vec::new());
        assert_eq!(p.generation(), g2);
    }
}
