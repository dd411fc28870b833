//! Integration and property tests for the sharded scheduling subsystem.
//!
//! The load-bearing property: for workloads with `cross_shard_fraction = 0`
//! an N-shard run commits exactly the same request set as the single-shard
//! scheduler, with no per-object order inversions.  Each object has exactly
//! one home shard, routing preserves per-shard arrival order, and the SS2PL
//! rule breaks per-object ties deterministically (lowest transaction id
//! first), so the per-object execution sequence must be bit-identical
//! regardless of how many shards the relations are partitioned over.

use chaos::{Fault, FaultInjector, FaultPlan, Hook};
use declsched::{
    shard_of, Operation, Protocol, ProtocolKind, Request, RequestKey, SchedulerConfig,
    TriggerPolicy,
};
use proptest::prelude::*;
use session::{Scheduler, Txn};
use shard::{ShardConfig, ShardRouter, ShardedReport};
use std::collections::{BTreeMap, BTreeSet};
use workload::{ShardedSpec, TransactionSpec};

const TABLE_ROWS: usize = 512;

fn to_requests(txn: &TransactionSpec) -> Vec<Request> {
    txn.statements
        .iter()
        .map(|stmt| Request::from_statement(0, stmt))
        .collect()
}

/// The objects of `shard` under hash placement on `shards` shards.
fn objects_on(shard: usize, shards: usize) -> Vec<i64> {
    (0..TABLE_ROWS as i64)
        .filter(|&o| shard_of(o, shards) == shard)
        .collect()
}

/// A fleet configuration under `policy` with the suite's trigger and table.
fn fleet_config(shards: usize, policy: Protocol) -> ShardConfig {
    ShardConfig::new(shards, policy)
        .with_scheduler(SchedulerConfig {
            trigger: TriggerPolicy::Hybrid {
                interval_ms: 1,
                threshold: 8,
            },
            ..SchedulerConfig::default()
        })
        .with_table("bench", TABLE_ROWS)
}

/// A fleet under `policy` with the suite's trigger and table.
fn start_router(shards: usize, policy: Protocol) -> ShardRouter {
    ShardRouter::start(fleet_config(shards, policy)).expect("router starts")
}

fn run_with_shards(transactions: &[TransactionSpec], shards: usize) -> ShardedReport {
    let router = start_router(shards, Protocol::algebra(ProtocolKind::Ss2pl));
    let tickets: Vec<_> = transactions
        .iter()
        .map(|txn| {
            router
                .submit_transaction(to_requests(txn))
                .expect("submission succeeds")
        })
        .collect();
    for ticket in tickets {
        ticket.wait().expect("every workload transaction commits");
    }
    router.shutdown()
}

/// Run `body` under a watchdog: a handshake that never completes must fail
/// the test, not hang the suite.
fn within<T: Send>(seconds: u64, what: &str, body: impl FnOnce() -> T + Send) -> T {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let _ = done_tx.send(body());
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(seconds)) {
            Ok(value) => value,
            // `body` panicked: the scope re-raises that once it has joined.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                panic!("the watched body panicked")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                // The stuck thread can never be joined: stop the process.
                eprintln!("watchdog: {what}");
                std::process::abort()
            }
        }
    })
}

/// Per-object execution sequence of data operations, over all shards.
/// An object lives on exactly one shard, so its shard-local log order *is*
/// its total execution order.
fn per_object_orders(report: &ShardedReport) -> BTreeMap<i64, Vec<(u64, u32, Operation)>> {
    let mut orders: BTreeMap<i64, Vec<(u64, u32, Operation)>> = BTreeMap::new();
    for shard in &report.shards {
        for request in &shard.executed_log {
            if request.op.is_data() {
                orders.entry(request.object).or_default().push((
                    request.ta,
                    request.intra,
                    request.op,
                ));
            }
        }
    }
    orders
}

/// All executed request keys (the "committed request set").
fn executed_keys(report: &ShardedReport) -> BTreeSet<RequestKey> {
    report
        .shards
        .iter()
        .flat_map(|shard| shard.executed_log.iter())
        .filter(|r| r.op.is_data())
        .map(|r| r.key())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// With `cross_shard_fraction = 0`, an N-shard run commits the same
    /// request set as the single-shard scheduler with no per-object order
    /// inversions.
    #[test]
    fn shard_counts_are_equivalent_without_cross_shard_traffic(
        (shards, transactions, statements, seed) in (2usize..5, 4usize..32, 1usize..4, 0u64..1_000)
    ) {
        let spec = ShardedSpec {
            shards,
            cross_shard_fraction: 0.0,
            transactions,
            statements_per_txn: statements,
            update_fraction: 0.6,
            table_rows: TABLE_ROWS,
            table: "bench".to_string(),
            seed,
        };
        let generated = spec.generate(|object| shard_of(object, shards));

        let single = run_with_shards(&generated, 1);
        let sharded = run_with_shards(&generated, shards);

        // Nothing escalated (the whole point of fraction 0) …
        prop_assert_eq!(sharded.metrics.cross_shard_transactions, 0);
        prop_assert_eq!(sharded.metrics.escalation.escalations, 0);
        // … the same request set executed and committed …
        prop_assert_eq!(executed_keys(&single), executed_keys(&sharded));
        prop_assert_eq!(
            single.metrics.dispatch.commits,
            sharded.metrics.dispatch.commits
        );
        prop_assert_eq!(single.metrics.dispatch.commits, transactions as u64);
        // … and per-object execution order is identical.
        prop_assert_eq!(per_object_orders(&single), per_object_orders(&sharded));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Escalations with disjoint shard sets run concurrently, each driven by
    /// its own participants; serialized execution is the oracle.  For any
    /// workload of spanning transactions over two disjoint shard pairs and
    /// any client interleaving (pipelined in order, pipelined reversed,
    /// concurrent submitters), the outcome must be indistinguishable from
    /// submit-wait-one-at-a-time: same commit set, same per-shard
    /// admission order for the ordered run, same final rows.
    #[test]
    fn disjoint_escalations_match_serialized_execution(
        (transactions, seed) in (2usize..10, 0u64..500)
    ) {
        let shards = 4usize;
        // Unique objects per transaction (two per ta, one on each shard of
        // its pair), so the final database state is interleaving-
        // independent and any divergence is a scheduling bug, not an
        // expected write-order difference.
        let pair_of = |ta: u64| -> [usize; 2] {
            if (ta + seed).is_multiple_of(2) {
                [0, 1]
            } else {
                [2, 3]
            }
        };
        let object_on = |shard: usize, ta: u64| -> i64 {
            (0..TABLE_ROWS as i64)
                .filter(|&o| shard_of(o, shards) == shard)
                .nth(ta as usize)
                .expect("enough objects per shard")
        };
        let txns: Vec<Vec<Request>> = (1..=transactions as u64)
            .map(|ta| {
                let [s1, s2] = pair_of(ta);
                vec![
                    Request::write(0, ta, 0, object_on(s1, ta)),
                    Request::write(0, ta, 1, object_on(s2, ta)),
                    Request::commit(0, ta, 2),
                ]
            })
            .collect();

        let start = || start_router(shards, Protocol::algebra(ProtocolKind::Ss2pl));

        // Oracle: strictly serialized — submit one, wait for it, then the
        // next.  At most one escalation is ever in flight.
        let serialized = {
            let router = start();
            for txn in &txns {
                router
                    .submit_transaction(txn.clone())
                    .expect("submission succeeds")
                    .wait()
                    .expect("escalated transaction commits");
            }
            router.shutdown()
        };

        // Pipelined in ta order: all tickets outstanding at once, so
        // disjoint-pair escalations overlap in the lane.
        let pipelined = {
            let router = start();
            let tickets: Vec<_> = txns
                .iter()
                .map(|txn| router.submit_transaction(txn.clone()).expect("submission succeeds"))
                .collect();
            for ticket in tickets {
                ticket.wait().expect("escalated transaction commits");
            }
            router.shutdown()
        };

        // Concurrent submitters: the two pair-groups race each other from
        // separate threads (a different arrival interleaving every run).
        let concurrent = {
            let router = start();
            std::thread::scope(|scope| {
                for group in [[0usize, 1], [2, 3]] {
                    let router = &router;
                    let txns = &txns;
                    scope.spawn(move || {
                        let tickets: Vec<_> = (1..=transactions as u64)
                            .filter(|&ta| pair_of(ta) == group)
                            .map(|ta| {
                                router
                                    .submit_transaction(txns[ta as usize - 1].clone())
                                    .expect("submission succeeds")
                            })
                            .collect();
                        for ticket in tickets {
                            ticket.wait().expect("escalated transaction commits");
                        }
                    });
                }
            });
            router.shutdown()
        };

        for report in [&serialized, &pipelined, &concurrent] {
            prop_assert_eq!(report.metrics.escalation.escalations, transactions as u64);
            prop_assert_eq!(report.metrics.escalation.failed, 0);
            prop_assert_eq!(report.metrics.unreclaimed_homes, 0);
            // Spanning transactions commit on both touched engines.
            prop_assert_eq!(report.metrics.dispatch.commits, 2 * transactions as u64);
        }
        // Same commit set and same final rows under every interleaving.
        // No rehoming happens here, so comparing rows shard-by-shard is
        // comparing the merged database state.
        let final_rows = |report: &ShardedReport| -> Vec<Vec<i64>> {
            report.shards.iter().map(|s| s.final_rows.clone()).collect()
        };
        prop_assert_eq!(executed_keys(&serialized), executed_keys(&pipelined));
        prop_assert_eq!(executed_keys(&serialized), executed_keys(&concurrent));
        prop_assert_eq!(final_rows(&serialized), final_rows(&pipelined));
        prop_assert_eq!(final_rows(&serialized), final_rows(&concurrent));

        // Admission order: the lane admits in arrival order with no
        // overtaking, so the ordered pipelined run must execute each
        // shard's escalated slices in ascending ta order.
        for shard in &pipelined.shards {
            let escalated_tas: Vec<u64> = shard
                .executed_log
                .iter()
                .filter(|r| r.op == Operation::Write)
                .map(|r| r.ta)
                .collect();
            let mut sorted = escalated_tas.clone();
            sorted.sort_unstable();
            prop_assert_eq!(
                escalated_tas, sorted,
                "escalation admission overtook on shard {}", shard.shard
            );
        }
    }
}

/// The escalation path end to end: a workload with a nonzero cross-shard
/// fraction routes its spanning transactions through the handshake lane,
/// commits them on every touched engine, and preserves per-object write
/// order against concurrent single-shard traffic.
#[test]
fn cross_shard_workload_escalates_and_commits_everything() {
    let shards = 4usize;
    let spec = ShardedSpec {
        shards,
        cross_shard_fraction: 0.3,
        transactions: 40,
        statements_per_txn: 2,
        update_fraction: 1.0,
        table_rows: TABLE_ROWS,
        table: "bench".to_string(),
        seed: 99,
    };
    let generated = spec.generate(|object| shard_of(object, shards));
    let cross_expected = spec.cross_shard_transactions() as u64;
    assert!(
        cross_expected > 0,
        "the spec must produce escalation traffic"
    );

    let report = run_with_shards(&generated, shards);
    let metrics = &report.metrics;

    assert_eq!(metrics.transactions, 40);
    assert_eq!(metrics.cross_shard_transactions, cross_expected);
    assert_eq!(metrics.escalation.escalations, cross_expected);
    assert_eq!(metrics.escalation.failed, 0);
    // Every data statement executed exactly once …
    let data_statements: u64 = generated.iter().map(|t| t.data_statements() as u64).sum();
    assert_eq!(metrics.dispatch.executed, data_statements);
    // … and every transaction committed on each engine it touched: one
    // commit for local transactions, two for spanning ones.
    assert_eq!(
        metrics.dispatch.commits,
        (40 - cross_expected) + 2 * cross_expected
    );
    assert!(metrics.cross_shard_rate() > 0.0);
    // Every data request ran on its hash home, escalated sub-batches
    // included: a handshake splits by the same `shard_of` the router uses.
    for (index, shard) in report.shards.iter().enumerate() {
        for request in shard.executed_log.iter().filter(|r| r.op.is_data()) {
            assert_eq!(
                shard_of(request.object, shards),
                index,
                "T{}[{}] on object {} ran on shard {index}",
                request.ta,
                request.intra,
                request.object
            );
        }
    }

    // Ordering guarantee: on objects only local transactions touch, write
    // order follows transaction-id arrival order (the SS2PL tie-break).  On
    // objects an escalated transaction shares with concurrent local ones,
    // the relative order is a scheduler choice (the lane serializes against
    // *held locks*, not against still-pending local work), so those objects
    // are exempt — what must hold there is covered by the exactly-once
    // dispatch accounting above.
    let escalated_objects: BTreeSet<i64> = generated
        .iter()
        .filter(|t| {
            let homes: BTreeSet<usize> = t
                .statements
                .iter()
                .filter_map(|s| s.object())
                .map(|o| shard_of(o.0, shards))
                .collect();
            homes.len() > 1
        })
        .flat_map(|t| t.statements.iter().filter_map(|s| s.object()).map(|o| o.0))
        .collect();
    for (object, order) in per_object_orders(&report) {
        if escalated_objects.contains(&object) {
            continue;
        }
        let writer_tas: Vec<u64> = order
            .iter()
            .filter(|(_, _, op)| *op == Operation::Write)
            .map(|(ta, _, _)| *ta)
            .collect();
        let mut sorted = writer_tas.clone();
        sorted.sort_unstable();
        assert_eq!(
            writer_tas, sorted,
            "write order inversion on local-only object {object}"
        );
    }
}

/// The sharded deployment under concurrent clients mixing local and
/// spanning transactions, each driving its own `Session`.
#[test]
fn sharded_middleware_with_concurrent_cross_shard_clients() {
    let shards = 2usize;
    let scheduler = session::Scheduler::builder()
        .policy(Protocol::algebra(ProtocolKind::Ss2pl))
        .scheduler_config(SchedulerConfig {
            trigger: TriggerPolicy::Hybrid {
                interval_ms: 1,
                threshold: 4,
            },
            ..SchedulerConfig::default()
        })
        .table("bench", TABLE_ROWS)
        .shards(shards)
        .build()
        .unwrap();

    let object_on = |shard: usize| -> i64 {
        (0..TABLE_ROWS as i64)
            .find(|&o| shard_of(o, shards) == shard)
            .expect("both shards own objects")
    };
    let (a, b) = (object_on(0), object_on(1));

    let mut joins = Vec::new();
    for ta in 1..=6u64 {
        let mut client = scheduler.connect();
        joins.push(std::thread::spawn(move || {
            let objects: Vec<i64> = if ta % 3 == 0 {
                vec![a, b] // spanning
            } else if ta % 2 == 0 {
                vec![a]
            } else {
                vec![b]
            };
            let mut txn = session::Txn::new(ta);
            for &object in &objects {
                txn = txn.write(object, ta as i64);
            }
            client.execute(txn.commit()).unwrap();
        }));
    }
    for join in joins {
        join.join().unwrap();
    }
    let report = scheduler.shutdown();
    let detail = report.sharded.as_ref().expect("sharded detail");
    assert_eq!(report.transactions, 6);
    assert_eq!(detail.cross_shard_transactions, 2);
    assert_eq!(detail.escalation.failed, 0);
    assert_eq!(report.dispatch.writes, 4 + 2 * 2);
}

/// Overlapping-footprint stress: eight submitters push transactions over
/// every shard pair and every three-shard span of a four-shard fleet, so
/// admission constantly has overlapping jobs waiting behind running ones
/// while four workers decide, commit, retire and admit concurrently — no
/// thread serializes the handshakes.  Every object belongs to one
/// submitter and no two in-flight transactions of a submitter share one,
/// so per-object order is fixed by submission order and must equal a
/// single-shard replay of the same streams.
#[test]
fn overlapping_footprints_from_many_submitters_neither_deadlock_nor_reorder() {
    const SHARDS: usize = 4;
    const SUBMITTERS: usize = 8;
    const PER_SUBMITTER: usize = 640;
    const WINDOW: usize = 4;
    const SPANS: [&[usize]; 10] = [
        &[0, 1],
        &[2, 3],
        &[0, 2],
        &[1, 3],
        &[0, 3],
        &[1, 2],
        &[0, 1, 2],
        &[1, 2, 3],
        &[0, 2, 3],
        &[0, 1, 3],
    ];

    // Submitter `t` owns every `SUBMITTERS`-th object of each shard and
    // cycles through them with a period far above the window.
    let pools: Vec<Vec<i64>> = (0..SHARDS).map(|s| objects_on(s, SHARDS)).collect();
    let streams: Vec<Vec<Vec<Request>>> = (0..SUBMITTERS)
        .map(|t| {
            (0..PER_SUBMITTER)
                .map(|i| {
                    let ta = (t * 1_000_000 + i + 1) as u64;
                    let span = SPANS[(i + t) % SPANS.len()];
                    let mut requests: Vec<Request> = span
                        .iter()
                        .enumerate()
                        .map(|(intra, &shard)| {
                            let owned = pools[shard].len() / SUBMITTERS;
                            let object = pools[shard][t + SUBMITTERS * (i % owned)];
                            Request::write(0, ta, intra as u32, object)
                        })
                        .collect();
                    requests.push(Request::commit(0, ta, span.len() as u32));
                    requests
                })
                .collect()
        })
        .collect();
    assert!(pools.iter().all(|p| p.len() / SUBMITTERS > WINDOW));

    let drive = |shards: usize| -> ShardedReport {
        let router = start_router(shards, Protocol::algebra(ProtocolKind::Ss2pl));
        std::thread::scope(|scope| {
            for stream in &streams {
                let router = &router;
                scope.spawn(move || {
                    let mut inflight = std::collections::VecDeque::with_capacity(WINDOW);
                    for requests in stream {
                        if inflight.len() == WINDOW {
                            let ticket: shard::TxnTicket =
                                inflight.pop_front().expect("window is full");
                            ticket.wait().expect("escalated transaction commits");
                        }
                        inflight.push_back(
                            router
                                .submit_transaction(requests.clone())
                                .expect("submission succeeds"),
                        );
                    }
                    for ticket in inflight {
                        ticket.wait().expect("escalated transaction commits");
                    }
                });
            }
        });
        router.shutdown()
    };

    let (sharded, replay) = within(
        120,
        "the fleet deadlocked under overlapping escalations",
        || (drive(SHARDS), drive(1)),
    );

    let total = (SUBMITTERS * PER_SUBMITTER) as u64;
    let metrics = &sharded.metrics;
    assert_eq!(metrics.transactions, total);
    assert_eq!(metrics.escalation.escalations, total);
    assert_eq!(metrics.escalation.failed, 0);
    assert_eq!(metrics.unreclaimed_homes, 0);
    assert!(metrics.escalations_concurrent_peak >= 1);
    assert_eq!(replay.metrics.escalation.escalations, 0);
    assert_eq!(executed_keys(&sharded), executed_keys(&replay));
    assert_eq!(per_object_orders(&sharded), per_object_orders(&replay));
}

/// A participant with nothing to execute is released, not committed.  That
/// release must be on its mailbox before any `Commit` goes out: the working
/// sibling that finishes last retires the job, and the next overlapping
/// job's prepare would otherwise find the idle participant still held.
/// T grows shard by shard without a terminal (its third statement touches
/// {0,2,3} and works on shard 0 only) while spanning transactions over
/// {1,2} and {1,3} commit alongside.
#[test]
fn idle_participants_are_released_before_the_commit_can_retire_the_job() {
    const SHARDS: usize = 4;
    const ROUNDS: u64 = 3000;
    let pools: Vec<Vec<i64>> = (0..SHARDS).map(|s| objects_on(s, SHARDS)).collect();
    let router = start_router(SHARDS, Protocol::algebra(ProtocolKind::Ss2pl));
    let exec = |requests: Vec<Request>| {
        router
            .submit_transaction(requests)
            .expect("submission succeeds")
            .wait()
            .expect("no handshake meets a stale hold")
    };
    within(120, "an incremental escalation hung", || {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for ta in 1..=ROUNDS {
                    exec(vec![Request::write(0, ta, 0, pools[2][0])]);
                    exec(vec![Request::write(0, ta, 1, pools[3][0])]);
                    exec(vec![Request::write(0, ta, 2, pools[0][0])]);
                    exec(vec![Request::commit(0, ta, 3)]);
                }
            });
            for other in [2usize, 3] {
                let (exec, pools) = (&exec, &pools);
                scope.spawn(move || {
                    for i in 1..=ROUNDS {
                        let ta = other as u64 * 1_000_000 + i;
                        exec(vec![
                            Request::write(0, ta, 0, pools[1][other]),
                            Request::write(0, ta, 1, pools[other][other]),
                            Request::commit(0, ta, 2),
                        ]);
                    }
                });
            }
        });
    });
    let report = router.shutdown();
    assert_eq!(report.metrics.escalation.failed, 0);
    assert_eq!(report.metrics.escalation.escalations, 5 * ROUNDS);
    assert_eq!(report.metrics.unreclaimed_homes, 0);
}

/// A sub-batch whose second request fails on the engine leaves its first
/// request executed — and holding its engine lock.  The executed prefix
/// must reach the shard's history so the rule keeps later writers of that
/// object pending until the transaction terminates, instead of dispatching
/// them into an engine lock it cannot see.
#[test]
fn failed_escalated_sub_batch_records_its_executed_prefix_in_history() {
    let router = start_router(2, Protocol::algebra(ProtocolKind::Ss2pl));
    let (a, b) = (objects_on(0, 2)[0], objects_on(1, 2)[0]);
    let exec = |requests: Vec<Request>| router.submit_transaction(requests).unwrap().wait();
    // Reads outside the table fail on the engine; this one is homed on
    // shard 0, behind the write to `a` in that shard's sub-batch.
    let missing = (1_000..2_000i64)
        .find(|&o| shard_of(o, 2) == 0)
        .expect("some out-of-table key hashes to shard 0");
    let err = exec(vec![
        Request::write(0, 1, 0, a),
        Request::read(0, 1, 1, missing),
        Request::write(0, 1, 2, b),
    ])
    .unwrap_err();
    assert!(err.to_string().contains("does not exist"), "{err}");

    // T2 wants `a`: the rule must see T1's write lock and defer it.
    let follower = router
        .submit_transaction(vec![Request::write(0, 2, 0, a), Request::commit(0, 2, 1)])
        .unwrap();
    // T1 aborts on both homes through the lane; only then may T2 run.
    exec(vec![Request::abort(0, 1, 3)]).unwrap();
    follower.wait().unwrap();

    let report = router.shutdown();
    assert_eq!(report.metrics.escalation.failed, 1);
    assert_eq!(report.metrics.unreclaimed_homes, 0);
    let on_a: Vec<(u64, Operation)> = report.shards[0]
        .executed_log
        .iter()
        .filter(|r| r.ta == 1 || r.object == a)
        .map(|r| (r.ta, r.op))
        .collect();
    let expected = [(1, Operation::Write), (1, Operation::Abort)];
    assert_eq!(on_a[..2], expected, "T2's write must wait for T1's abort");
    assert_eq!(on_a[2], (2, Operation::Write));
}

/// Event-driven retry: T1, submitted incrementally, holds a write lock on
/// shard 0; the spanning T2 is denied there and parked; T1's commit is the
/// round that re-arms it.  Exactly one re-arm — the releasing round — not a
/// poll count, and T1's write stays strictly ahead of T2's.
#[test]
fn denied_escalation_is_rearmed_once_by_the_releasing_round() {
    let router = start_router(2, Protocol::algebra(ProtocolKind::Ss2pl));
    let (a, b) = (objects_on(0, 2)[0], objects_on(1, 2)[0]);
    router
        .submit_transaction(vec![Request::write(0, 1, 0, a)])
        .unwrap()
        .wait()
        .expect("T1 takes its lock");
    // The prepare reaches shard 0's mailbox ahead of the commit below, so
    // the first vote there is a denial by construction.
    let spanning = router
        .submit_transaction(vec![
            Request::write(0, 2, 0, a),
            Request::write(0, 2, 1, b),
            Request::commit(0, 2, 2),
        ])
        .unwrap();
    router
        .submit_transaction(vec![Request::commit(0, 1, 1)])
        .unwrap()
        .wait()
        .expect("T1 commits");
    spanning.wait().expect("T2 commits once T1 released");

    let report = router.shutdown();
    assert_eq!(report.metrics.escalation.escalations, 1);
    assert_eq!(report.metrics.escalation.failed, 0);
    assert_eq!(
        report.metrics.escalation.retries, 1,
        "one denial, one re-arm by the round that executed T1's commit"
    );
    let writers: Vec<u64> = report.shards[0]
        .executed_log
        .iter()
        .filter(|r| r.op == Operation::Write && r.object == a)
        .map(|r| r.ta)
        .collect();
    assert_eq!(writers, vec![1, 2]);
}

/// SS2PL declared in `schedlang` votes with history snapshots and is
/// decided over their union; the built-in SS2PL votes shard-locally.  On
/// the same cross-shard run — serialized spanning transactions plus one
/// denied-then-re-armed escalation — the two must agree key for key.
#[test]
fn custom_ss2pl_escalations_equal_the_builtin_run() {
    let shards = 3usize;
    let pools: Vec<Vec<i64>> = (0..shards).map(|s| objects_on(s, shards)).collect();
    let run = |policy: Protocol| -> ShardedReport {
        let router = start_router(shards, policy);
        let exec = |requests: Vec<Request>| {
            router
                .submit_transaction(requests)
                .expect("submission succeeds")
                .wait()
                .expect("transaction executes")
        };
        for ta in 1..=12u64 {
            let (s1, s2) = (ta as usize % shards, (ta as usize + 1) % shards);
            exec(vec![
                Request::write(0, ta, 0, pools[s1][ta as usize % 5]),
                Request::read(0, ta, 1, pools[s2][ta as usize % 7]),
                Request::write(0, ta, 2, pools[s2][ta as usize % 3]),
                Request::commit(0, ta, 3),
            ]);
        }
        // A lock held across submissions denies the next escalation until
        // its holder commits.
        exec(vec![Request::write(0, 100, 0, pools[0][1])]);
        let blocked = router
            .submit_transaction(vec![
                Request::write(0, 101, 0, pools[0][1]),
                Request::write(0, 101, 1, pools[2][1]),
                Request::commit(0, 101, 2),
            ])
            .expect("submission succeeds");
        exec(vec![Request::commit(0, 100, 1)]);
        blocked.wait().expect("the denied escalation completes");
        router.shutdown()
    };

    let builtin = run(Protocol::algebra(ProtocolKind::Ss2pl));
    let custom = run(schedlang::compile_protocol(schedlang::stdlib::SS2PL).expect("compiles"));
    assert_eq!(custom.metrics.escalation, builtin.metrics.escalation);
    assert_eq!(custom.metrics.escalation.escalations, 13);
    assert_eq!(custom.metrics.escalation.failed, 0);
    assert_eq!(custom.metrics.escalation.retries, 1);
    assert_eq!(executed_keys(&custom), executed_keys(&builtin));
    assert_eq!(per_object_orders(&custom), per_object_orders(&builtin));
    for (c, b) in custom.shards.iter().zip(&builtin.shards) {
        assert_eq!(c.final_rows, b.final_rows, "shard {}", c.shard);
    }
}

/// A parked escalation holds nothing, so it must not keep its shards from
/// the jobs behind it: the lock holder's own commit may be one of them.  T1
/// holds a@0; T2 spans {0,1}, is denied on shard 0 and parks; T1 then
/// finishes with a write on shard 1 — a job over the same two shards — whose
/// commit on shard 0 is the release that re-arms T2.
#[test]
fn lock_holders_commit_passes_the_escalation_parked_on_its_lock() {
    let router = start_router(2, Protocol::algebra(ProtocolKind::Ss2pl));
    let (a, b) = (objects_on(0, 2)[0], objects_on(1, 2)[0]);
    let submit = |requests: Vec<Request>| router.submit_transaction(requests).unwrap();
    submit(vec![Request::write(0, 1, 0, a)])
        .wait()
        .expect("T1 takes its lock");
    let spanning = submit(vec![
        Request::write(0, 2, 0, a),
        Request::write(0, 2, 1, b),
        Request::commit(0, 2, 2),
    ]);
    let holder = submit(vec![Request::write(0, 1, 1, b), Request::commit(0, 1, 2)]);
    within(60, "T1's commit deadlocked behind the parked T2", || {
        holder.wait().expect("T1 commits past the parked T2");
        spanning.wait().expect("T2 commits once T1 released");
    });

    let report = router.shutdown();
    assert_eq!(report.metrics.escalation.escalations, 2);
    assert_eq!(report.metrics.escalation.failed, 0);
    assert_eq!(report.metrics.escalation.retries, 1);
    assert_eq!(report.metrics.unreclaimed_homes, 0);
    let orders = per_object_orders(&report);
    let writers = |object: i64| -> Vec<u64> { orders[&object].iter().map(|w| w.0).collect() };
    assert_eq!((writers(a), writers(b)), (vec![1, 2], vec![1, 2]));
}

/// Shutdown terminates with a handshake parked on an abandoned lock — the
/// parking shard gives it its final attempt once it has nothing left to run
/// — yet a commit submitted before the shutdown still gets to release one.
#[test]
fn shutdown_fails_what_an_abandoned_holder_parked_and_completes_the_rest() {
    let router = start_router(2, Protocol::algebra(ProtocolKind::Ss2pl));
    let (pool0, pool1) = (objects_on(0, 2), objects_on(1, 2));
    let submit = |requests: Vec<Request>| router.submit_transaction(requests).unwrap();
    let spanning = |ta: u64, slot: usize| {
        vec![
            Request::write(0, ta, 0, pool0[slot]),
            Request::write(0, ta, 1, pool1[slot]),
            Request::commit(0, ta, 2),
        ]
    };
    // T1 never terminates; T3's commit is in flight when the fleet stops.
    for (ta, slot) in [(1, 0), (3, 1)] {
        submit(vec![Request::write(0, ta, 0, pool0[slot])])
            .wait()
            .expect("the holder takes its lock");
    }
    let stranded = submit(spanning(2, 0));
    let released = submit(spanning(4, 1));
    let commit = submit(vec![Request::commit(0, 3, 1)]);
    let report = within(60, "shutdown hung on a parked escalation", || {
        router.shutdown()
    });

    commit
        .wait()
        .expect("T3's commit was admitted before shutdown");
    released.wait().expect("T4 is re-armed by T3's commit");
    let error = stranded.wait().expect_err("T1 never released a@0");
    assert!(error.to_string().contains("escalation starved"), "{error}");
    assert_eq!(report.metrics.escalation.escalations, 2);
    assert_eq!(report.metrics.escalation.failed, 1);
    // Every terminal on shard 0 re-arms all that is parked there, T2 too.
    assert!(report.metrics.escalation.retries >= 1);
}

/// A statement posted without waiting runs on its shard before its own
/// transaction's escalation does: the client holds the transaction's homes
/// stripe across route-and-post, so the statement is on shard 0's FIFO
/// mailbox ahead of the handshake's prepare, and shard 0 denies the
/// prepare (`own_pending`) until the statement has executed.  Otherwise the
/// replicated commit would finish the transaction there first and the
/// engine would refuse the statement.
#[test]
fn a_pipelined_statement_runs_before_its_own_transactions_escalation() {
    const TRANSACTIONS: u64 = 300;
    let router = start_router(2, Protocol::algebra(ProtocolKind::Ss2pl));
    let (a, b) = (objects_on(0, 2)[0], objects_on(1, 2)[0]);
    within(60, "a pipelined escalation hung", || {
        for ta in 1..=TRANSACTIONS {
            let first = router
                .submit_transaction(vec![Request::write(0, ta, 0, a)])
                .expect("submission succeeds");
            let second = router
                .submit_transaction(vec![Request::write(0, ta, 1, b), Request::commit(0, ta, 2)])
                .expect("submission succeeds");
            first.wait().expect("the statement executes");
            second.wait().expect("the escalation commits");
        }
    });

    let report = router.shutdown();
    assert_eq!(report.metrics.escalation.escalations, TRANSACTIONS);
    assert_eq!(report.metrics.escalation.failed, 0);
    assert_eq!(report.metrics.unreclaimed_homes, 0);
    let shard0: Vec<(u64, u32)> = report.shards[0]
        .executed_log
        .iter()
        .map(|r| (r.ta, r.intra))
        .collect();
    let expected: Vec<(u64, u32)> = (1..=TRANSACTIONS)
        .flat_map(|ta| [(ta, 0), (ta, 2)])
        .collect();
    assert_eq!(shard0, expected);
}

/// The backlog the session layer's shedding samples counts transactions,
/// not messages: with shard 0 stalled on its first step, 49 transactions
/// submitted behind it all show up in `max_queue_depth`.
#[test]
fn a_stalled_shards_backlog_counts_every_waiting_transaction() {
    let plan = FaultPlan::new().inject(
        Hook::WorkerRound { shard: 0 },
        0,
        Fault::Stall { millis: 400 },
    );
    let config = fleet_config(2, Protocol::algebra(ProtocolKind::Fcfs))
        .with_chaos(std::sync::Arc::new(FaultInjector::new(&plan)));
    let router = ShardRouter::start(config).expect("router starts");
    let a = objects_on(0, 2)[0];
    let txn = |ta: u64| vec![Request::write(0, ta, 0, a), Request::commit(0, ta, 1)];
    let submit = |ta: u64| {
        router
            .submit_transaction(txn(ta))
            .expect("submission succeeds")
    };
    let first = submit(1);
    // Let shard 0 take T1 and enter its stall.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let rest: Vec<_> = (2..=50).map(submit).collect();
    let backlog = router.handle().max_queue_depth();
    assert!(
        backlog >= 49,
        "backlog {backlog} misses waiting transactions"
    );

    first.wait().expect("T1 commits after the stall");
    for ticket in rest {
        ticket.wait().expect("every waiting transaction commits");
    }
    router.shutdown();
}

/// A `.shards(n)` deployment behind the session façade, with the suite's
/// trigger and table.
fn sharded_scheduler(shards: usize) -> Scheduler {
    Scheduler::builder()
        .table("bench", TABLE_ROWS)
        .scheduler_config(SchedulerConfig {
            trigger: TriggerPolicy::Hybrid {
                interval_ms: 1,
                threshold: 4,
            },
            ..SchedulerConfig::default()
        })
        .policy(Protocol::algebra(ProtocolKind::Ss2pl))
        .shards(shards)
        .build()
        .expect("fleet starts")
}

/// One planned transaction of the homes-map property: how it is submitted
/// and whether it ever terminates.
#[derive(Debug, Clone, Copy)]
enum TxnPlan {
    /// One submission carrying the terminal.
    Completed,
    /// Split into `parts` data submissions plus a final terminal
    /// submission.
    Multi { parts: u8 },
    /// `parts` data submissions, never terminated: the client walks away.
    Abandoned { parts: u8 },
}

fn plans() -> impl Strategy<Value = Vec<(TxnPlan, bool)>> {
    let plan = (0..3u8, 1..3u8, 0..2u8).prop_map(|(kind, parts, wait)| {
        let plan = match kind {
            0 => TxnPlan::Completed,
            1 => TxnPlan::Multi { parts },
            _ => TxnPlan::Abandoned { parts },
        };
        (plan, wait == 1)
    });
    proptest::collection::vec(plan, 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After an arbitrary interleaving of completed, multi-submission and
    /// abandoned transactions drains — the abandoning session dropped —
    /// the router's homes map is empty: completed transactions are
    /// reclaimed when their terminal routes, abandoned ones when their
    /// session drops, and the shutdown report's leak witness reads zero.
    #[test]
    fn homes_map_is_empty_after_arbitrary_interleavings(plans in plans()) {
        let scheduler = sharded_scheduler(3);
        let mut session = scheduler.connect();
        let mut tickets = Vec::new();
        let mut abandoned = 0usize;
        for (index, &(plan, wait)) in plans.iter().enumerate() {
            let ta = index as u64 + 1;
            // Distinct objects per transaction: an abandoned transaction
            // holds its lock forever, so a shared object would deadlock a
            // later transaction's wait.
            let object = index as i64;
            match plan {
                TxnPlan::Completed => {
                    let ticket = session
                        .submit(Txn::new(ta).write(object, 1).commit())
                        .expect("submission succeeds");
                    if wait {
                        ticket.wait().expect("completed txns commit");
                    } else {
                        tickets.push(ticket);
                    }
                }
                TxnPlan::Multi { parts } => {
                    for part in 0..parts {
                        let txn = Txn::resume(ta, u32::from(part)).write(object, 1);
                        tickets.push(session.submit(txn).expect("submission succeeds"));
                    }
                    let terminal = Txn::resume(ta, u32::from(parts)).commit();
                    let ticket = session.submit(terminal).expect("submission succeeds");
                    if wait {
                        ticket.wait().expect("multi-submission txns commit");
                    } else {
                        tickets.push(ticket);
                    }
                }
                TxnPlan::Abandoned { parts } => {
                    abandoned += 1;
                    for part in 0..parts {
                        let txn = Txn::resume(ta, u32::from(part)).write(object, 1);
                        tickets.push(session.submit(txn).expect("submission succeeds"));
                    }
                }
            }
        }
        for ticket in tickets {
            // Abandoned parts still execute (their writes admit fine);
            // every ticket resolves.
            let _ = ticket.wait();
        }
        prop_assert_eq!(session.open_transactions(), abandoned);
        // Dropping the session abandons the unterminated transactions,
        // reclaiming their homes entries before the fleet stops.
        drop(session);
        let report = scheduler.shutdown();
        let detail = report.sharded.expect("sharded detail");
        prop_assert_eq!(detail.unreclaimed_homes, 0);
    }
}

/// The homes entry of a transaction that dies on a ticket error path is
/// reclaimed by the worker that failed it — here a permanently blocked
/// transaction the shutdown drain fails — while an executed-but-open
/// transaction's entry legitimately survives until its session drops.
#[test]
fn worker_failed_transactions_reclaim_their_homes_entries() {
    let scheduler = sharded_scheduler(2);
    let mut session = scheduler.connect();
    // T1 executes a write and keeps its lock (open, no terminal).
    session
        .submit(Txn::new(1).write(7, 7))
        .expect("submission succeeds")
        .wait()
        .expect("the write executes");
    // T2 writes the same object without a terminal: permanently blocked
    // behind T1's lock — it can only ever resolve through an error path.
    let blocked = session
        .submit(Txn::new(2).write(7, 9))
        .expect("submission succeeds");
    assert_eq!(session.open_transactions(), 2);

    // Keep the session alive across shutdown so no reclaim can come from
    // `Session::drop`: the drain fails T2 and the worker reclaims its
    // entry; T1 executed, so its entry is still legitimately live.
    let report = scheduler.shutdown();
    let err = blocked.wait().expect_err("the blocked txn is failed");
    assert!(!err.is_shed());
    let detail = report.sharded.expect("sharded detail");
    assert_eq!(detail.unreclaimed_homes, 1, "exactly T1's entry remains");
}

/// Routed-transaction counters must match the submissions that actually
/// reached the fleet across a mid-run shutdown: submissions whose channel
/// send fails are not counted (they inflated `transactions` before).
///
/// Construction: shard 1 is loaded with a long drain backlog while shard 0
/// is left idle, so during shutdown shard 0's worker exits (closing its
/// channel) long before shard 1 finishes draining — submissions aimed at
/// shard 0 then fail *before* the counters are aggregated, exactly the
/// window in which the old pre-send increment inflated the metric.
#[test]
fn routed_transaction_counters_match_successful_submissions_across_shutdown() {
    let router = start_router(2, Protocol::algebra(ProtocolKind::Ss2pl));
    let handle = router.handle();

    let shard0_object = objects_on(0, 2)[0];
    let shard1_objects = objects_on(1, 2);

    // Load shard 1 with a drain backlog (tickets dropped — they still
    // count as routed and still execute during the drain).
    let mut ok = 0u64;
    for ta in 1..=2_000u64 {
        let object = shard1_objects[(ta as usize) % shard1_objects.len()];
        let requests = vec![Request::write(0, ta, 0, object), Request::commit(0, ta, 1)];
        if handle.submit_transaction(requests).is_ok() {
            ok += 1;
        }
    }

    // Shut down concurrently: the call blocks until shard 1 drains.
    let shutdown = std::thread::spawn(move || router.shutdown());

    // Meanwhile, trickle submissions at shard 0.  Pacing leaves the worker
    // empty instants in which it can exit; once it does, these sends fail
    // while shard 1 is still draining — pre-aggregation failures.
    let mut failures = 0u32;
    for ta in 10_000..20_000u64 {
        let requests = vec![
            Request::write(0, ta, 0, shard0_object),
            Request::commit(0, ta, 1),
        ];
        match handle.submit_transaction(requests) {
            Ok(_) => ok += 1,
            Err(_) => {
                failures += 1;
                if failures >= 30 {
                    break;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }

    let report = shutdown.join().expect("shutdown never panics");
    assert!(
        failures > 0,
        "the shutdown race must have produced failed submissions"
    );
    assert_eq!(
        report.metrics.transactions, ok,
        "routed-transaction counter must match submissions that reached the fleet"
    );
}
