//! The built-in protocols on fixed scenarios.
//!
//! Each row names a protocol, the pending requests, the history, the
//! `object_class` rows and the keys that must qualify.  A row runs on both
//! forms of its protocol, each evaluated from scratch: the relational-algebra
//! plan (`Protocol::algebra`) and the declared SchedLang text compiled to
//! Datalog (`schedlang::stdlib::protocol`).

use declsched::protocol::ObjectClass::{Critical, Relaxed};
use declsched::protocol::{object_class_table, ObjectClass};
use declsched::Request as R;
use declsched::{Protocol, ProtocolKind, Request, RequestKey};
use relalg::{Catalog, Table};

/// The scheduler catalog of one scenario.
fn catalog(pending: &[Request], history: &[Request], classes: &[(i64, ObjectClass)]) -> Catalog {
    let mut c = Catalog::new();
    for (name, rows) in [("requests", pending), ("history", history)] {
        let mut table = Table::new(name, Request::schema());
        for r in rows {
            table.push(r.to_tuple()).unwrap();
        }
        c.register(table);
    }
    c.register(object_class_table(classes));
    c
}

fn check(
    kind: ProtocolKind,
    pending: &[Request],
    history: &[Request],
    classes: &[(i64, ObjectClass)],
    expected: &[(u64, u32)],
) {
    let c = catalog(pending, history, classes);
    let expected: Vec<RequestKey> = expected
        .iter()
        .map(|&(ta, intra)| RequestKey { ta, intra })
        .collect();
    for protocol in [Protocol::algebra(kind), schedlang::stdlib::protocol(kind)] {
        assert_eq!(
            protocol.rules.qualify(&c).unwrap(),
            expected,
            "{protocol}\npending: {pending:?}\nhistory: {history:?}"
        );
    }
}

/// One `#[test]` per row: `name: Kind, pending, history, classes => keys;`.
macro_rules! scenarios {
    ($($name:ident: $kind:ident, $pending:expr, $history:expr, $classes:expr => $keys:expr;)*) => {
        $(
            #[test]
            fn $name() {
                check(ProtocolKind::$kind, &$pending, &$history, &$classes, &$keys);
            }
        )*
    };
}

scenarios! {
    // SS2PL (the paper's Listing 1).
    empty_history_qualifies_non_conflicting_requests: Ss2pl,
        [R::read(1, 10, 0, 100), R::write(2, 11, 0, 101)], [], [] => [(10, 0), (11, 0)];
    // T20 holds a write lock on object 7: T21's read waits, the free
    // object and T20's own request do not.
    write_lock_in_history_blocks_other_transactions: Ss2pl,
        [R::read(2, 21, 0, 7), R::write(3, 22, 0, 8), R::read(4, 20, 1, 7)],
        [R::write(1, 20, 0, 7)], [] => [(20, 1), (22, 0)];
    committed_write_lock_is_released: Ss2pl,
        [R::read(3, 21, 0, 7)], [R::write(1, 20, 0, 7), R::commit(2, 20, 1)], [] => [(21, 0)];
    // T30's read lock on object 9 is shared with T31's read; T32's write
    // waits for it.
    read_lock_blocks_writers_but_not_readers: Ss2pl,
        [R::read(2, 31, 0, 9), R::write(3, 32, 0, 9)], [R::read(1, 30, 0, 9)], [] => [(31, 0)];
    // T40 read, then wrote object 5: a write lock, and no read lock besides.
    read_write_by_same_transaction_counts_as_write_lock: Ss2pl,
        [R::read(3, 41, 0, 5), R::write(4, 40, 2, 5)],
        [R::read(1, 40, 0, 5), R::write(2, 40, 1, 5)], [] => [(40, 2)];
    conflicts_within_the_pending_batch_prefer_lower_ta: Ss2pl,
        [R::write(1, 50, 0, 3), R::write(2, 51, 0, 3), R::read(3, 52, 0, 3)], [], [] => [(50, 0)];
    reads_in_batch_do_not_conflict_with_each_other: Ss2pl,
        [R::read(1, 60, 0, 4), R::read(2, 61, 0, 4), R::read(3, 62, 0, 4)], [], []
        => [(60, 0), (61, 0), (62, 0)];
    commit_requests_always_qualify: Ss2pl,
        [R::commit(2, 70, 1), R::commit(3, 71, 0)], [R::write(1, 70, 0, 2)], [] => [(70, 1), (71, 0)];
    // History locks (write by T10, read by T11, T12 committed) and a batch
    // conflict (T24 loses to T23).
    schedlang_ss2pl_matches_the_builtin_protocol: Ss2pl,
        [
            R::read(5, 20, 0, 5),
            R::write(6, 21, 0, 6),
            R::read(7, 22, 0, 7),
            R::write(8, 23, 0, 8),
            R::write(9, 24, 0, 8),
            R::commit(10, 25, 0)
        ],
        [R::write(1, 10, 0, 5), R::read(2, 11, 0, 6), R::write(3, 12, 0, 7), R::commit(4, 12, 1)],
        [] => [(22, 0), (23, 0), (25, 0)];

    // Conservative 2PL: T11's read of the write-locked object 5 holds back
    // its read of the free object 6.
    one_blocked_request_excludes_the_whole_transaction: Conservative2pl,
        [R::read(2, 11, 0, 5), R::read(3, 11, 1, 6), R::read(4, 12, 0, 7)],
        [R::write(1, 10, 0, 5)], [] => [(12, 0)];
    conflict_free_transactions_are_admitted_whole: Conservative2pl,
        [R::read(1, 20, 0, 1), R::write(2, 20, 1, 2), R::read(3, 21, 0, 3)], [], []
        => [(20, 0), (20, 1), (21, 0)];

    // FCFS: conflicting writes on one object both qualify.
    everything_qualifies_on_both_backends: Fcfs,
        [R::write(1, 1, 0, 5), R::write(2, 2, 0, 5), R::commit(3, 3, 0)], [], []
        => [(1, 0), (2, 0), (3, 0)];

    // The SLA protocols qualify as SS2PL does; only their ordering differs.
    sla_priority_qualifies_as_ss2pl: SlaPriority,
        [R::read(2, 21, 0, 7), R::write(3, 22, 0, 8), R::write(4, 23, 0, 8)],
        [R::write(1, 20, 0, 7)], [] => [(22, 0)];
    edf_qualifies_as_ss2pl: EarliestDeadline,
        [R::read(2, 21, 0, 7), R::write(3, 22, 0, 8), R::write(4, 23, 0, 8)],
        [R::write(1, 20, 0, 7)], [] => [(22, 0)];

    // Relaxed reads: reads and terminators ignore write locks, writes do not.
    reads_ignore_write_locks: RelaxedReads,
        [R::read(2, 11, 0, 5), R::write(3, 12, 0, 5), R::commit(4, 13, 0)],
        [R::write(1, 10, 0, 5)], [] => [(11, 0), (13, 0)];
    writes_still_exclude_each_other_within_a_batch: RelaxedReads,
        [R::write(1, 20, 0, 9), R::write(2, 21, 0, 9), R::read(3, 22, 0, 9)], [], []
        => [(20, 0), (22, 0)];

    // Consistency rationing: T10 write-locks the critical object 1 and the
    // relaxed object 2.
    relaxed_objects_bypass_locks_critical_objects_do_not: ConsistencyRationing,
        [R::write(3, 11, 0, 1), R::write(4, 12, 0, 2)],
        [R::write(1, 10, 0, 1), R::write(2, 10, 1, 2)],
        [(1, Critical), (2, Relaxed)] => [(12, 0)];
    unclassified_objects_default_to_critical: ConsistencyRationing,
        [R::read(2, 11, 0, 7)], [R::write(1, 10, 0, 7)], [] => [];
    batch_conflicts_ignored_for_relaxed_objects: ConsistencyRationing,
        [R::write(1, 20, 0, 5), R::write(2, 21, 0, 5)], [], [(5, Relaxed)] => [(20, 0), (21, 0)];
}
