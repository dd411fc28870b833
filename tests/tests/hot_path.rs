//! Property tests for the allocation-free hot path: interner stability and
//! thread-safety, and exact equivalence between the pooled (incremental,
//! arena-backed) round loop and a from-scratch allocating round loop.

use declsched::prelude::*;
use proptest::prelude::*;
use relalg::Symbol;
use std::collections::HashSet;

/// Distinct-looking strings from a small id space, so cases both collide
/// (same string interned repeatedly) and diverge (different strings).
fn names() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        (0u32..24, 0u32..4).prop_map(|(id, style)| match style {
            0 => format!("client-{id}"),
            1 => format!("op/{id}"),
            2 => format!("{id}"),
            _ => format!("λ-{id}"), // non-ASCII survives the round trip
        }),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interning is stable: symbol equality if and only if string equality,
    /// and every symbol resolves back to exactly the string it interned.
    #[test]
    fn interner_symbol_equality_iff_string_equality(names in names()) {
        let symbols: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        for (name, symbol) in names.iter().zip(&symbols) {
            prop_assert_eq!(symbol.as_str(), name.as_str());
            // Re-interning is idempotent.
            prop_assert_eq!(*symbol, Symbol::intern(name));
        }
        for (a_name, a_sym) in names.iter().zip(&symbols) {
            for (b_name, b_sym) in names.iter().zip(&symbols) {
                prop_assert_eq!(a_sym == b_sym, a_name == b_name);
            }
        }
    }

    /// Concurrent interning of an overlapping working set from many threads
    /// yields one symbol per distinct string, on every thread.
    #[test]
    fn interner_is_thread_safe_under_concurrent_interning(names in names()) {
        let threads = 4;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mut names = names.clone();
                // Each thread interns the same working set in a different
                // order, maximising first-intern races on fresh strings.
                let pivot = t % names.len().max(1);
                names.rotate_left(pivot);
                std::thread::spawn(move || {
                    names
                        .iter()
                        .map(|n| (n.clone(), Symbol::intern(n)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut canonical: std::collections::HashMap<String, Symbol> =
            std::collections::HashMap::new();
        for handle in handles {
            for (name, symbol) in handle.join().expect("interning thread panicked") {
                prop_assert_eq!(symbol.as_str(), name.as_str());
                let first = *canonical.entry(name).or_insert(symbol);
                prop_assert_eq!(first, symbol, "two threads got different symbols");
            }
        }
    }
}

/// An arbitrary scheduling scenario: history rows by "old" transactions and
/// a batch of pending requests by "new" ones over a small object space
/// (mirrors `properties.rs`, kept local so the two files evolve freely).
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
            let mut seen = HashSet::new();
            pending.retain(|r| seen.insert(r.ta));
            for (i, r) in pending.iter_mut().enumerate() {
                r.id = i as u64 + 1;
            }
            (history, pending)
        })
}

fn build(protocol: Protocol, incremental: bool) -> DeclarativeScheduler {
    DeclarativeScheduler::new(
        protocol,
        SchedulerConfig {
            trigger: TriggerPolicy::Always,
            prune_history: false,
            incremental,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pooled/arena incremental round loop is *observably identical* to
    /// a from-scratch allocating round loop driven in lock-step: the same
    /// admission order every round, the same commit set, and byte-identical
    /// final history rows.  This is the end-to-end guarantee that the
    /// allocation work is a pure mechanical optimisation.
    #[test]
    fn pooled_rounds_match_allocating_rounds_exactly(
        ((history, pending), backend_pick) in (scenario(), 0..2u8)
    ) {
        let protocol = || if backend_pick == 0 {
            Protocol::algebra(ProtocolKind::Ss2pl)
        } else {
            schedlang::stdlib::protocol(ProtocolKind::Ss2pl)
        };
        let mut pooled = build(protocol(), true);
        let mut scratch = build(protocol(), false);
        pooled.preload_history(&history).unwrap();
        scratch.preload_history(&history).unwrap();
        for r in &pending {
            pooled.submit(*r, 0);
            scratch.submit(*r, 0);
        }

        // Transactions that may hold declarative locks: history writers
        // that never finished, plus whatever gets admitted along the way.
        let finished: HashSet<u64> = history
            .iter()
            .filter(|r| r.op.is_terminal())
            .map(|r| r.ta)
            .collect();
        let mut active: HashSet<u64> = history
            .iter()
            .filter(|r| !r.op.is_terminal() && !finished.contains(&r.ta))
            .map(|r| r.ta)
            .collect();
        let mut pooled_commits: HashSet<u64> = HashSet::new();
        let mut scratch_commits: HashSet<u64> = HashSet::new();
        let mut next_intra = 90u32;
        let mut now = 1u64;
        while pooled.pending() > 0 || pooled.queued() > 0 {
            let pooled_batch = pooled.run_round(now).unwrap();
            let scratch_batch = scratch.run_round(now).unwrap();
            // Admission order: identical ordered keys, round by round.
            let pooled_keys: Vec<RequestKey> =
                pooled_batch.requests.iter().map(|r| r.key()).collect();
            let scratch_keys: Vec<RequestKey> =
                scratch_batch.requests.iter().map(|r| r.key()).collect();
            prop_assert_eq!(&pooled_keys, &scratch_keys, "admission order diverged");
            for r in &pooled_batch.requests {
                if r.op.is_data() {
                    active.insert(r.ta);
                }
                if r.op.is_terminal() {
                    active.remove(&r.ta);
                    pooled_commits.insert(r.ta);
                }
            }
            for r in &scratch_batch.requests {
                if r.op.is_terminal() {
                    scratch_commits.insert(r.ta);
                }
            }
            if pooled_batch.is_empty() {
                // Deadlocked on declarative locks: commit the holders in
                // both schedulers, identically.
                let mut to_commit: Vec<u64> = active.iter().copied().collect();
                to_commit.sort_unstable();
                prop_assert!(!to_commit.is_empty(), "both schedulers stalled");
                for ta in to_commit {
                    next_intra += 1;
                    pooled.submit(Request::commit(0, ta, next_intra), now);
                    scratch.submit(Request::commit(0, ta, next_intra), now);
                    active.remove(&ta);
                }
            }
            now += 1;
            prop_assert!(now < 200, "schedulers did not converge");
        }
        // The scratch scheduler must be drained too (same rounds, same
        // admissions), and the surviving history relations must agree row
        // for row.
        prop_assert_eq!(scratch.pending(), 0);
        prop_assert_eq!(scratch.queued(), 0);
        prop_assert_eq!(pooled.history_len(), scratch.history_len());
        prop_assert_eq!(
            pooled.history_table().rows(),
            scratch.history_table().rows(),
            "final history rows diverged"
        );
        prop_assert_eq!(&pooled_commits, &scratch_commits, "commit sets diverged");
        // Sanity: the equivalence exercised real work.
        prop_assert!(pooled.history_len() >= pending.len());
    }
}
