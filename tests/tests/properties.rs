//! Property-based tests on the core invariants of the declarative scheduler
//! and its substrates.

use declsched::prelude::*;
use proptest::prelude::*;
use relalg::{Catalog, Table};
use std::collections::{HashMap, HashSet};

/// Generate an arbitrary scheduling scenario: a history of operations by
/// "old" transactions (some finished) and a batch of pending requests by
/// "new" transactions over a small object space, so conflicts are frequent.
fn scenario() -> impl Strategy<Value = (Vec<Request>, Vec<Request>)> {
    let history_op = (0u64..6, 0u32..4, 0i64..8, 0..3u8).prop_map(|(ta, intra, obj, kind)| {
        let ta = 100 + ta;
        match kind {
            0 => Request::read(0, ta, intra, obj),
            1 => Request::write(0, ta, intra, obj),
            _ => Request::commit(0, ta, 10 + intra),
        }
    });
    let pending_op = (0u64..8, 0i64..8, 0..3u8).prop_map(|(ta, obj, kind)| {
        let ta = 200 + ta;
        match kind {
            0 => Request::read(0, ta, 0, obj),
            1 => Request::write(0, ta, 0, obj),
            _ => Request::commit(0, ta, 0),
        }
    });
    (
        proptest::collection::vec(history_op, 0..20),
        proptest::collection::vec(pending_op, 1..12),
    )
        .prop_map(|(history, mut pending)| {
            // One pending request per transaction (the paper's model) and
            // consecutive ids.
            let mut seen = HashSet::new();
            pending.retain(|r| seen.insert(r.ta));
            for (i, r) in pending.iter_mut().enumerate() {
                r.id = i as u64 + 1;
            }
            (history, pending)
        })
}

fn catalog(pending: &[Request], history: &[Request]) -> Catalog {
    let mut c = Catalog::new();
    let mut requests = Table::new("requests", Request::schema());
    for r in pending {
        requests.push(r.to_tuple()).unwrap();
    }
    let mut hist = Table::new("history", Request::schema());
    for r in history {
        hist.push(r.to_tuple()).unwrap();
    }
    c.register(requests);
    c.register(hist);
    c
}

/// Imperative oracle for SS2PL qualification, written independently of both
/// rule back-ends.
fn ss2pl_oracle(pending: &[Request], history: &[Request]) -> HashSet<RequestKey> {
    let finished: HashSet<u64> = history
        .iter()
        .filter(|r| r.op.is_terminal())
        .map(|r| r.ta)
        .collect();
    let mut wlocked: HashMap<i64, HashSet<u64>> = HashMap::new();
    let mut rlocked: HashMap<i64, HashSet<u64>> = HashMap::new();
    let wrote: HashSet<(u64, i64)> = history
        .iter()
        .filter(|r| r.op == Operation::Write)
        .map(|r| (r.ta, r.object))
        .collect();
    for r in history {
        if finished.contains(&r.ta) {
            continue;
        }
        match r.op {
            Operation::Write => {
                wlocked.entry(r.object).or_default().insert(r.ta);
            }
            Operation::Read if !wrote.contains(&(r.ta, r.object)) => {
                rlocked.entry(r.object).or_default().insert(r.ta);
            }
            _ => {}
        }
    }
    pending
        .iter()
        .filter(|r| {
            // Conflicts with history locks.
            if r.op.is_data() {
                if let Some(holders) = wlocked.get(&r.object) {
                    if holders.iter().any(|&h| h != r.ta) {
                        return false;
                    }
                }
                if r.op == Operation::Write {
                    if let Some(holders) = rlocked.get(&r.object) {
                        if holders.iter().any(|&h| h != r.ta) {
                            return false;
                        }
                    }
                }
            }
            // Conflicts with earlier pending requests on the same object.
            !pending.iter().any(|other| {
                other.ta < r.ta
                    && other.object == r.object
                    && r.op.is_data()
                    && other.op.is_data()
                    && (other.op == Operation::Write || r.op == Operation::Write)
            })
        })
        .map(|r| r.key())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The algebra plan and the declared SchedLang text of SS2PL are
    /// equivalent, and both match an independently written imperative
    /// oracle.
    #[test]
    fn ss2pl_backends_agree_and_match_oracle((history, pending) in scenario()) {
        let c = catalog(&pending, &history);
        let algebra: HashSet<RequestKey> = Protocol::algebra(ProtocolKind::Ss2pl)
            .rules.qualify(&c).unwrap().into_iter().collect();
        let datalog: HashSet<RequestKey> = schedlang::stdlib::protocol(ProtocolKind::Ss2pl)
            .rules.qualify(&c).unwrap().into_iter().collect();
        let oracle = ss2pl_oracle(&pending, &history);
        prop_assert_eq!(&algebra, &datalog);
        prop_assert_eq!(&algebra, &oracle);
    }

    /// No two qualified data requests of different transactions conflict
    /// (same object, at least one write) — the safety property that makes it
    /// legal to run the batch on a server with locking disabled.
    #[test]
    fn qualified_batches_are_conflict_free((history, pending) in scenario()) {
        let c = catalog(&pending, &history);
        let forms = [
            Protocol::algebra(ProtocolKind::Ss2pl),
            schedlang::stdlib::protocol(ProtocolKind::Ss2pl),
        ];
        for protocol in forms {
            let qualified: Vec<Request> = protocol
                .rules.qualify(&c).unwrap()
                .into_iter()
                .filter_map(|k| pending.iter().find(|r| r.key() == k).cloned())
                .collect();
            for a in &qualified {
                for b in &qualified {
                    if a.ta != b.ta && a.op.is_data() && b.op.is_data() && a.object == b.object {
                        prop_assert!(
                            a.op != Operation::Write && b.op != Operation::Write,
                            "conflicting requests both qualified: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    /// Relaxed reads admit a superset of SS2PL and FCFS admits everything.
    #[test]
    fn protocol_admission_ordering((history, pending) in scenario()) {
        let c = catalog(&pending, &history);
        let strict: HashSet<RequestKey> = Protocol::algebra(ProtocolKind::Ss2pl)
            .rules.qualify(&c).unwrap().into_iter().collect();
        let relaxed: HashSet<RequestKey> = Protocol::algebra(ProtocolKind::RelaxedReads)
            .rules.qualify(&c).unwrap().into_iter().collect();
        let fcfs: HashSet<RequestKey> = Protocol::algebra(ProtocolKind::Fcfs)
            .rules.qualify(&c).unwrap().into_iter().collect();
        let c2pl: HashSet<RequestKey> = Protocol::algebra(ProtocolKind::Conservative2pl)
            .rules.qualify(&c).unwrap().into_iter().collect();
        prop_assert!(strict.is_subset(&relaxed));
        prop_assert!(relaxed.is_subset(&fcfs));
        prop_assert!(c2pl.is_subset(&strict));
        prop_assert_eq!(fcfs.len(), pending.len());
    }

    /// Scheduling is exhaustive and non-duplicating: across repeated rounds
    /// (interleaving commits so locks drain), every submitted request is
    /// scheduled exactly once.
    #[test]
    fn every_request_is_scheduled_exactly_once((history, pending) in scenario()) {
        let mut scheduler = DeclarativeScheduler::new(
            Protocol::algebra(ProtocolKind::Ss2pl),
            SchedulerConfig { trigger: TriggerPolicy::Always, ..SchedulerConfig::default() },
        );
        scheduler.preload_history(&history).unwrap();
        for r in &pending {
            scheduler.submit(*r, 0);
        }
        // Transactions that may be holding declarative locks and have not
        // been committed yet (history writers plus scheduled pending ones).
        let mut active: HashSet<u64> = history
            .iter()
            .filter(|r| !r.op.is_terminal())
            .map(|r| r.ta)
            .collect();
        let finished: HashSet<u64> = history
            .iter()
            .filter(|r| r.op.is_terminal())
            .map(|r| r.ta)
            .collect();
        active.retain(|ta| !finished.contains(ta));
        let mut committed: HashSet<u64> = finished.clone();
        let mut scheduled: Vec<RequestKey> = Vec::new();
        let mut now = 1;
        let mut next_intra = 90u32;
        while scheduler.pending() > 0 || scheduler.queued() > 0 {
            let batch = scheduler.run_round(now).unwrap();
            for r in &batch.requests {
                if r.op.is_data() {
                    active.insert(r.ta);
                }
                if r.op.is_terminal() {
                    active.remove(&r.ta);
                }
            }
            if batch.is_empty() {
                // Blocked on locks held by not-yet-committed transactions:
                // play the part of their clients and commit them.
                let to_commit: Vec<u64> = active
                    .iter()
                    .copied()
                    .filter(|ta| !committed.contains(ta))
                    .collect();
                prop_assert!(
                    !to_commit.is_empty(),
                    "scheduler stalled with {} pending and nothing left to commit",
                    scheduler.pending()
                );
                for ta in to_commit {
                    next_intra += 1;
                    scheduler.submit(Request::commit(0, ta, next_intra), now);
                    committed.insert(ta);
                }
            }
            scheduled.extend(batch.requests.iter().map(|r| r.key()));
            now += 1;
            prop_assert!(now < 200, "scheduler did not converge");
        }
        let original: HashSet<RequestKey> = pending.iter().map(|r| r.key()).collect();
        let scheduled_set: HashSet<RequestKey> = scheduled.iter().copied().collect();
        prop_assert_eq!(scheduled.len(), scheduled_set.len(), "a request was scheduled twice");
        prop_assert!(original.is_subset(&scheduled_set), "some submitted request was never scheduled");
    }
}
