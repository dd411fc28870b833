//! The incremental-qualification equivalence suite.
//!
//! The incremental engine (`declsched::qualify` + the history store's
//! conflict index, and `datalog::IncrementalEvaluation` for custom Datalog
//! rules) must be **observationally indistinguishable** from re-evaluating
//! the declarative rule from scratch: same qualified sets, same batches in
//! the same dispatch order, same pending/history evolution — for every
//! protocol, on both of its rule forms, under random interleavings of
//! submissions, rounds and pruning.  These properties drive two schedulers
//! (incremental on / off) through identical event sequences and compare
//! them round by round.

use declsched::protocol::{object_class_table, ObjectClass};
use declsched::{
    DeclarativeScheduler, Protocol, ProtocolKind, Request, RuleBackend, RuleSet, SchedulerConfig,
    SlaMeta, TriggerPolicy,
};
use proptest::prelude::*;

const SLOTS: u64 = 6;
const OBJECTS: i64 = 6;

/// One step of a scheduler's life: a request submission or a scheduling
/// round.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Submit a request for transaction slot `slot` on `object`;
    /// `kind` 0 = read, 1 = write, 2 = commit, 3 = abort.  With
    /// `duplicate`, the slot's *previous* `(ta, intra)` key is reused —
    /// the pending store replaces the earlier request (possibly moving it
    /// to a different object), a path the dirty tracking must mirror.
    Submit {
        slot: u64,
        object: i64,
        kind: u8,
        duplicate: bool,
    },
    /// Run one scheduling round.
    Round,
}

fn events() -> impl Strategy<Value = Vec<Event>> {
    // Three submissions to one round on average (the shim has no
    // `prop_oneof`; selector columns do the same job).  Roughly one in
    // eight submissions reuses its slot's previous key.
    proptest::collection::vec((0u8..4, 0u64..SLOTS, 0i64..OBJECTS, 0u8..4, 0u8..8), 1..48).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(selector, slot, object, kind, dup)| {
                    if selector == 3 {
                        Event::Round
                    } else {
                        Event::Submit {
                            slot,
                            object,
                            kind,
                            duplicate: dup == 0,
                        }
                    }
                })
                .collect()
        },
    )
}

/// Per-round observations: the applied protocol and the scheduled keys in
/// dispatch order.
type RoundLog = Vec<(String, Vec<(u64, u32)>)>;

/// Replay `events` on one scheduler, returning the per-round batches as
/// `(protocol, keys-in-dispatch-order)` plus the final (pending, history)
/// sizes.
fn replay(scheduler: &mut DeclarativeScheduler, events: &[Event]) -> (RoundLog, usize, usize) {
    let mut intras = [0u32; SLOTS as usize];
    let mut rounds = Vec::new();
    let mut now = 0u64;
    let mut run = |scheduler: &mut DeclarativeScheduler, now: u64| {
        let batch = scheduler.run_round(now).expect("built-in rules evaluate");
        rounds.push((
            scheduler.protocol().name().to_string(),
            batch.requests.iter().map(|r| (r.ta, r.intra)).collect(),
        ));
    };
    for &event in events {
        match event {
            Event::Submit {
                slot,
                object,
                kind,
                duplicate,
            } => {
                let ta = 1 + slot;
                let intra = if duplicate && intras[slot as usize] > 0 {
                    intras[slot as usize] - 1
                } else {
                    let next = intras[slot as usize];
                    intras[slot as usize] += 1;
                    next
                };
                let mut request = match kind {
                    0 => Request::read(0, ta, intra, object),
                    1 => Request::write(0, ta, intra, object),
                    2 => Request::commit(0, ta, intra),
                    _ => Request::abort(0, ta, intra),
                };
                // Some reads carry SLA metadata, exercising the cached
                // `sla` relation on both paths.
                if kind == 0 && object % 2 == 0 {
                    request = request.with_sla(SlaMeta {
                        priority: object,
                        class: "premium",
                        arrival_ms: now,
                        deadline_ms: now + 50,
                    });
                }
                scheduler.submit(request, now);
            }
            Event::Round => {
                now += 1;
                run(scheduler, now);
            }
        }
    }
    // Settle: a few extra rounds so deferred tails are compared too.
    for _ in 0..6 {
        now += 1;
        run(scheduler, now);
    }
    (rounds, scheduler.pending(), scheduler.history_len())
}

fn scheduler_for(
    protocol: Protocol,
    incremental: bool,
    prune_history: bool,
) -> DeclarativeScheduler {
    let mut scheduler = DeclarativeScheduler::new(
        protocol,
        SchedulerConfig {
            trigger: TriggerPolicy::Always,
            prune_history,
            incremental,
        },
    );
    // Rationing consults `object_class`; register the identical
    // classification everywhere (other protocols ignore it).
    scheduler
        .register_aux_relation(object_class_table(&[
            (0, ObjectClass::Relaxed),
            (1, ObjectClass::Critical),
            (3, ObjectClass::Relaxed),
        ]))
        .expect("`object_class` is not a reserved name");
    scheduler
}

fn assert_equivalent(protocol_of: impl Fn() -> Protocol, events: &[Event], prune: bool) {
    let label = protocol_of().to_string();
    let mut incremental = scheduler_for(protocol_of(), true, prune);
    let mut scratch = scheduler_for(protocol_of(), false, prune);
    let (rounds_a, pending_a, history_a) = replay(&mut incremental, events);
    let (rounds_b, pending_b, history_b) = replay(&mut scratch, events);
    assert_eq!(
        rounds_a, rounds_b,
        "{label} (prune={prune}): incremental and from-scratch rounds diverged\nevents: {events:?}"
    );
    assert_eq!(pending_a, pending_b, "{label}: final pending diverged");
    assert_eq!(history_a, history_b, "{label}: final history diverged");
    // The incremental scheduler must actually have used the fast path.
    assert_eq!(
        incremental.metrics().incremental_rounds,
        incremental.metrics().rounds,
        "{label}: every round must be answered incrementally"
    );
    assert_eq!(scratch.metrics().incremental_rounds, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every built-in protocol, on its algebra plan and on its declared
    /// SchedLang text, with and without history pruning: the incremental
    /// engine reproduces the declarative rule exactly, round by round.
    #[test]
    fn incremental_matches_from_scratch_for_every_protocol(
        (events, prune_selector) in (events(), 0u8..2)
    ) {
        let prune = prune_selector == 1;
        for &kind in ProtocolKind::all() {
            assert_equivalent(|| Protocol::algebra(kind), &events, prune);
            assert_equivalent(|| schedlang::stdlib::protocol(kind), &events, prune);
        }
    }

    /// A custom Datalog protocol (here the C2PL text, compiled as a user
    /// rule) has no conflict-index shortcut; it runs on the engine-level
    /// persistent evaluation (`IncrementalEvaluation`), which must also
    /// match one-shot evaluation exactly.
    #[test]
    fn custom_datalog_persistent_evaluation_matches_one_shot(
        (events, prune_selector) in (events(), 0u8..2)
    ) {
        let prune = prune_selector == 1;
        let custom = || {
            schedlang::compile_protocol(schedlang::stdlib::C2PL).expect("stdlib text compiles")
        };
        let label = "c2pl";
        let mut persistent = scheduler_for(custom(), true, prune);
        let mut one_shot = scheduler_for(custom(), false, prune);
        let (rounds_a, pending_a, history_a) = replay(&mut persistent, &events);
        let (rounds_b, pending_b, history_b) = replay(&mut one_shot, &events);
        prop_assert_eq!(rounds_a, rounds_b, "{} rounds diverged", label);
        prop_assert_eq!(pending_a, pending_b);
        prop_assert_eq!(history_a, history_b);
        // Custom Datalog still counts as incremental (the persistent path).
        prop_assert_eq!(
            persistent.metrics().incremental_rounds,
            persistent.metrics().rounds
        );
    }

    /// The C2PL text as a custom protocol also matches the *built-in* C2PL
    /// (same rule, different evaluation stack end to end) — pinning the
    /// persistent Datalog path against the conflict-index path.
    #[test]
    fn custom_datalog_matches_the_builtin_conflict_index(events in events()) {
        let custom = || {
            schedlang::compile_protocol(schedlang::stdlib::C2PL).expect("stdlib text compiles")
        };
        let mut via_engine = scheduler_for(custom(), true, true);
        let mut via_index =
            scheduler_for(Protocol::algebra(ProtocolKind::Conservative2pl), true, true);
        let (rounds_a, pending_a, history_a) = replay(&mut via_engine, &events);
        let (rounds_b, pending_b, history_b) = replay(&mut via_index, &events);
        // Protocol names differ; compare the scheduled keys only.
        let keys = |rounds: &RoundLog| -> Vec<Vec<(u64, u32)>> {
            rounds.iter().map(|(_, k)| k.clone()).collect()
        };
        prop_assert_eq!(keys(&rounds_a), keys(&rounds_b));
        prop_assert_eq!(pending_a, pending_b);
        prop_assert_eq!(history_a, history_b);
    }
}

/// Replay `events` on a custom-rule scheduler and on an oracle that shares
/// no code with `datalog`, and require the same batches in the same order
/// every round (protocol names differ, so only the keys are compared).
fn assert_matches_oracle(
    label: &str,
    custom: Protocol,
    oracle: Protocol,
    oracle_incremental: bool,
    events: &[Event],
    prune: bool,
) {
    let mut via_datalog = scheduler_for(custom, true, prune);
    let mut via_oracle = scheduler_for(oracle, oracle_incremental, prune);
    let (rounds_a, pending_a, history_a) = replay(&mut via_datalog, events);
    let (rounds_b, pending_b, history_b) = replay(&mut via_oracle, events);
    let keys = |rounds: &RoundLog| -> Vec<Vec<(u64, u32)>> {
        rounds.iter().map(|(_, k)| k.clone()).collect()
    };
    assert_eq!(
        keys(&rounds_a),
        keys(&rounds_b),
        "{label} (prune={prune}): the compiled rule and its oracle diverged\nevents: {events:?}"
    );
    assert_eq!(pending_a, pending_b, "{label}: final pending diverged");
    assert_eq!(history_a, history_b, "{label}: final history diverged");
    let metrics = via_datalog.metrics();
    assert_eq!(
        metrics.incremental_rounds, metrics.rounds,
        "{label}: every round must run on the persistent evaluation"
    );
    assert_eq!(metrics.catalog_build_micros, 0, "{label}: no catalog");
}

/// `premium_only` has no built-in twin; this is the same rule as a
/// relational-algebra plan, evaluated from scratch by `relalg`.
fn premium_only_algebra() -> Protocol {
    use relalg::{Expr, PlanBuilder};
    let premium = PlanBuilder::scan("sla")
        .filter(Expr::col("class").eq(Expr::lit("premium")))
        .project_as(vec![(Expr::col("ta"), "premium_ta")])
        .distinct();
    let plan = PlanBuilder::scan("requests")
        .equi_join(premium, &[("ta", "premium_ta")])
        .project(vec![Expr::col("ta"), Expr::col("intrata")])
        .build();
    Protocol::custom(
        RuleSet::new(
            "premium-only-algebra",
            RuleBackend::Algebra { plan },
            declsched::OrderingSpec::DeadlineThenId,
        ),
        "premium-only admission as an algebra plan",
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every built-in's SchedLang text, compiled as a *custom* rule so that
    /// it runs on the compiled, delta-fed `datalog::IncrementalEvaluation`,
    /// against an oracle that shares nothing with it: the kind's
    /// hand-written hot qualifier.  `premium_only` has no built-in twin; its
    /// oracle is the same rule as an algebra plan.
    #[test]
    fn schedlang_stdlib_matches_hand_written_oracles(
        (events, prune_selector) in (events(), 0u8..2)
    ) {
        let prune = prune_selector == 1;
        for &kind in ProtocolKind::all() {
            assert_matches_oracle(
                &format!("schedlang {}", kind.name()),
                compiled(schedlang::stdlib::source(kind)),
                Protocol::algebra(kind),
                true,
                &events,
                prune,
            );
        }
        assert_matches_oracle(
            "schedlang premium_only",
            compiled(schedlang::stdlib::PREMIUM_ONLY),
            premium_only_algebra(),
            false,
            &events,
            prune,
        );
    }

    /// The Datalog program embedded in each built-in (its compiled
    /// SchedLang text), forced onto the persistent evaluation by wrapping it
    /// as a custom protocol, against its relational-algebra twin evaluated
    /// from scratch by `relalg`.
    #[test]
    fn embedded_datalog_programs_match_their_algebra_twins(
        (events, prune_selector) in (events(), 0u8..2)
    ) {
        let prune = prune_selector == 1;
        for &kind in ProtocolKind::all() {
            assert_matches_oracle(
                &format!("custom {}", kind.name()),
                compiled(schedlang::stdlib::source(kind)),
                Protocol::algebra(kind),
                false,
                &events,
                prune,
            );
        }
    }
}

/// A `schedlang` source compiled as a custom protocol.
fn compiled(source: &str) -> Protocol {
    schedlang::compile_protocol(source).expect("stdlib protocol compiles")
}

/// A seeded closed loop over a few hot objects: `depth` transactions in
/// flight, each two reads, two writes and a commit submitted whole; a
/// transaction's successor arrives the round after its commit is scheduled.
/// `compiled` (a `schedlang` source) runs on the maintained Datalog
/// evaluation, `oracle` on the hand-written qualifier, in lock-step; every
/// round's batch must agree.  With `supersede_at`, that round first
/// re-submits a pending request's key on another object — a change no delta
/// describes.  Returns the custom scheduler's `strata_recomputed` after the
/// first round and at the end, and its `strata_maintained` at the end.
fn contended_stream(
    compiled: &str,
    oracle: ProtocolKind,
    prune: bool,
    supersede_at: Option<usize>,
) -> (u64, u64, u64) {
    const TRANSACTIONS: u64 = 400; // × 5 = 2 000 requests
    const DEPTH: usize = 12;
    const HOT_OBJECTS: u64 = 8;
    let config = || SchedulerConfig {
        trigger: TriggerPolicy::Always,
        prune_history: prune,
        ..SchedulerConfig::default()
    };
    let custom = schedlang::compile_protocol(compiled).expect("stdlib protocol compiles");
    let mut via_datalog = DeclarativeScheduler::new(custom, config());
    let mut via_oracle = DeclarativeScheduler::new(Protocol::algebra(oracle), config());

    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut object = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Skewed: the product of two draws favours the low objects.
        (((state >> 33) % HOT_OBJECTS) * ((state >> 43) % HOT_OBJECTS) / HOT_OBJECTS) as i64
    };
    let (mut next_ta, mut in_flight, mut committed) = (1u64, 0usize, 0u64);
    let mut after_first_round = None;
    let mut round = 0usize;
    while committed < TRANSACTIONS {
        while in_flight < DEPTH && next_ta <= TRANSACTIONS {
            for intra in 0..5u32 {
                let request = match intra {
                    0 | 1 => Request::read(0, next_ta, intra, object()),
                    2 | 3 => Request::write(0, next_ta, intra, object()),
                    _ => Request::commit(0, next_ta, intra),
                };
                via_datalog.submit(request, round as u64);
                via_oracle.submit(request, round as u64);
            }
            next_ta += 1;
            in_flight += 1;
        }
        if supersede_at == Some(round) {
            // Move the oldest data request still pending from an earlier
            // round to a cold object.
            let victim = via_datalog
                .pending_table()
                .rows()
                .iter()
                .filter_map(Request::from_tuple)
                .find(|request| request.op.is_data())
                .expect("contention leaves requests pending");
            let moved = Request::new(0, victim.ta, victim.intra, victim.op, 1_000);
            via_datalog.submit(moved, round as u64);
            via_oracle.submit(moved, round as u64);
        }
        let got = via_datalog.run_round(round as u64).expect("rule evaluates");
        let want = via_oracle.run_round(round as u64).expect("rule evaluates");
        let keys = |batch: &declsched::ScheduleBatch| -> Vec<(u64, u32)> {
            batch.requests.iter().map(|r| (r.ta, r.intra)).collect()
        };
        assert_eq!(
            keys(&got),
            keys(&want),
            "{oracle:?} (prune={prune}): round {round} diverged"
        );
        for request in &got.requests {
            if request.op.is_terminal() {
                in_flight -= 1;
                committed += 1;
            }
        }
        after_first_round.get_or_insert(via_datalog.metrics().strata_recomputed);
        round += 1;
        assert!(round < 20_000, "the stream must drain");
    }
    let metrics = via_datalog.metrics();
    assert_eq!(metrics.requests_scheduled, TRANSACTIONS * 5);
    assert_eq!(metrics.incremental_rounds, metrics.rounds);
    (
        after_first_round.expect("at least one round ran"),
        metrics.strata_recomputed,
        metrics.strata_maintained,
    )
}

/// Steady state recomputes nothing: after the round that first evaluates
/// the rule, every stratum of the declared SS2PL and RELAXED_READS is
/// patched from row deltas — scheduling, arrivals, commits and pruning
/// included — and the schedule is the hand-written qualifier's.
#[test]
fn custom_rule_strata_are_maintained_not_recomputed_in_steady_state() {
    for (source, oracle) in [
        (schedlang::stdlib::SS2PL, ProtocolKind::Ss2pl),
        (schedlang::stdlib::RELAXED_READS, ProtocolKind::RelaxedReads),
    ] {
        for prune in [true, false] {
            let (first, last, maintained) = contended_stream(source, oracle, prune, None);
            assert!(first > 0, "the first round has no delta to go by");
            assert_eq!(
                last, first,
                "{oracle:?} (prune={prune}): a stratum was recomputed after the first round"
            );
            assert!(
                maintained > 1_000,
                "{oracle:?} (prune={prune}): {maintained}"
            );
        }
    }
}

/// A superseded duplicate key changes `requests` in a way the round's
/// deltas do not describe: the input is fed whole once, the strata that
/// read it recompute once, and the schedule still is the oracle's.
#[test]
fn custom_rule_falls_back_to_a_whole_refeed_and_still_matches_the_oracle() {
    for prune in [true, false] {
        let (first, last, maintained) = contended_stream(
            schedlang::stdlib::SS2PL,
            ProtocolKind::Ss2pl,
            prune,
            Some(40),
        );
        assert!(
            last > first,
            "the refeed must have recomputed (prune={prune})"
        );
        // Only the strata downstream of `requests` (blocked, qualified),
        // and only that once.
        assert_eq!(last - first, 2, "prune={prune}");
        assert!(maintained > 1_000);
    }
}

/// The sharded deployment runs every shard's scheduler incrementally and
/// the escalation lane qualifies cross-shard transactions through the
/// same per-object rule, one vote per touched shard.  A workload rich in spanning
/// footprints must still commit everything and agree with the unsharded
/// deployment on the final database state.
#[test]
fn sharded_escalation_union_path_matches_unsharded() {
    use session::{Scheduler, Txn};
    const ROWS: usize = 256;

    let transactions: Vec<Txn> = (1..=60u64)
        .map(|ta| {
            // Two writes far apart (usually on different shards → the
            // escalation lane) plus a read and a commit.
            let a = (ta as i64 * 7) % ROWS as i64;
            let b = (ta as i64 * 31 + 97) % ROWS as i64;
            Txn::new(ta)
                .write(a, a)
                .write(b, b)
                .read((ta as i64) % ROWS as i64)
                .commit()
        })
        .collect();

    let run = |configure: fn(session::SchedulerBuilder) -> session::SchedulerBuilder| {
        let scheduler = configure(Scheduler::builder().table("bench", ROWS))
            .build()
            .expect("deployment starts");
        let mut session = scheduler.connect();
        let tickets: Vec<_> = transactions
            .iter()
            .map(|txn| session.submit(txn.clone()).expect("submission succeeds"))
            .collect();
        for ticket in tickets {
            ticket.wait().expect("scheduled backends never abort");
        }
        scheduler.shutdown()
    };

    let unsharded = run(|b| b.unsharded());
    let sharded = run(|b| b.shards(3));

    assert_eq!(unsharded.transactions, sharded.transactions);
    assert_eq!(
        unsharded.final_rows, sharded.final_rows,
        "final database state must agree across deployments"
    );
    let detail = sharded.sharded.as_ref().expect("sharded detail present");
    assert!(
        detail.escalation.escalations > 0,
        "the workload must actually exercise the escalation union path"
    );
    // The shard fleet's merged metrics must show the incremental engine at
    // work (every shard-local round uses it).
    assert!(sharded.scheduler.incremental_rounds > 0);
    assert_eq!(
        sharded.scheduler.incremental_rounds,
        sharded.scheduler.rounds
    );
}

/// A scheduler running the standard library's SS2PL text as a custom rule,
/// i.e. on the persistent, delta-fed Datalog evaluation.
fn custom_ss2pl(prune_history: bool) -> DeclarativeScheduler {
    DeclarativeScheduler::new(
        schedlang::compile_protocol(schedlang::stdlib::SS2PL).expect("stdlib text compiles"),
        SchedulerConfig {
            trigger: TriggerPolicy::Always,
            prune_history,
            ..SchedulerConfig::default()
        },
    )
}

#[test]
fn custom_rule_rounds_feed_deltas_and_count_them() {
    let mut s = custom_ss2pl(true);
    let fed = |s: &DeclarativeScheduler, before: u64| s.metrics().delta_rows - before;

    // Round 1: T1 and T2 write objects 5 and 6 — two arrivals.
    s.submit(Request::write(0, 1, 0, 5), 0);
    s.submit(Request::write(0, 2, 0, 6), 0);
    assert_eq!(s.run_round(0).unwrap().len(), 2);
    assert_eq!(fed(&s, 0), 2);
    let recomputed_by_round_one = s.metrics().strata_recomputed;
    assert!(recomputed_by_round_one > 0);
    assert_eq!(s.metrics().strata_maintained, 0);

    // Round 2: both leave `requests` and enter `history` (2 + 2), T3's
    // read of object 5 arrives (1) and is blocked.
    let mark = s.metrics().delta_rows;
    s.submit(Request::read(0, 3, 0, 5), 1);
    assert!(s.run_round(1).unwrap().is_empty());
    assert_eq!(fed(&s, mark), 5);

    // Round 3: nothing was scheduled; T1's commit arrives (1).
    let mark = s.metrics().delta_rows;
    s.submit(Request::commit(0, 1, 1), 2);
    assert_eq!(s.run_round(2).unwrap().len(), 1);
    assert_eq!(fed(&s, mark), 1);

    // Round 4: the commit leaves `requests` (1) and T1's write is pruned
    // from `history` (1); the commit itself was pruned before it was
    // ever fed.  T3 now qualifies.
    let mark = s.metrics().delta_rows;
    let batch = s.run_round(3).unwrap();
    assert_eq!(batch.requests[0].ta, 3);
    assert_eq!(fed(&s, mark), 2);
    assert_eq!(s.metrics().incremental_rounds, 4);
    assert_eq!(s.metrics().catalog_build_micros, 0);
    // Only the first round had no delta to go by.
    assert_eq!(s.metrics().strata_recomputed, recomputed_by_round_one);
    assert!(s.metrics().strata_maintained > 0);
}

#[test]
fn custom_rule_inputs_are_fed_whole_after_an_undescribed_change() {
    let mut s = custom_ss2pl(true);
    s.submit(Request::write(0, 1, 0, 5), 0);
    s.run_round(0).unwrap();
    s.submit(Request::read(0, 2, 0, 5), 1);
    s.submit(Request::read(0, 3, 0, 6), 1);
    s.submit(Request::read(0, 3, 1, 5), 1);
    // T3's first read is scheduled, its second is blocked like T2's.
    assert_eq!(s.run_round(1).unwrap().len(), 1);
    // A purge is not a round: the evaluator still holds both blocked
    // reads when the next round starts, and must drop them.
    assert_eq!(s.purge_unscheduled(2), 2);
    s.submit(Request::write(0, 4, 0, 5), 3);
    let mark = s.metrics().delta_rows;
    assert!(s.run_round(3).unwrap().is_empty(), "T1 still holds 5");
    // `requests` was replaced by its single row; `history` took T3's
    // scheduled read as a delta.
    assert_eq!(s.metrics().delta_rows - mark, 1 + 1);
    assert_eq!(s.pending(), 1);
    s.submit(Request::commit(0, 1, 1), 4);
    s.run_round(4).unwrap();
    assert_eq!(s.run_round(5).unwrap().requests[0].ta, 4);
}

#[test]
fn custom_rule_drops_a_superseded_duplicate_from_its_inputs() {
    let mut s = custom_ss2pl(true);
    s.submit(Request::write(0, 1, 0, 5), 0);
    s.run_round(0).unwrap();
    // T2's read of object 5 waits behind T1 …
    s.submit(Request::read(0, 2, 0, 5), 1);
    assert!(s.run_round(1).unwrap().is_empty());
    // … and is then superseded (same key) by a read of the free object
    // 6.  The generations move as in any round; only the row counts
    // tell the evaluator that a row left without being scheduled.
    s.submit(Request::read(0, 2, 0, 6), 2);
    let batch = s.run_round(2).unwrap();
    assert_eq!(batch.requests[0].object, 6);
    // Were the old row still fed, T3's write would wait behind T2's
    // phantom read of object 5 even after T1 commits.
    s.submit(Request::commit(0, 1, 1), 3);
    s.submit(Request::write(0, 3, 0, 5), 3);
    s.run_round(3).unwrap();
    let batch = s.run_round(4).unwrap();
    assert_eq!(batch.requests.len(), 1, "T3 takes the released object");
    assert_eq!(batch.requests[0].ta, 3);
}
