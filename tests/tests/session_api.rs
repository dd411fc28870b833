//! Integration tests for the unified Session API: one scenario definition
//! driven unmodified against every backend, pipelined submission, the SLA
//! end-to-end path, and SLA-aware overload shedding.

use declsched::{
    shard_of, Protocol, ProtocolKind, RequestKey, SchedulerConfig, SlaMeta, TriggerPolicy,
};
use session::{BackendKind, Report, Scheduler, SchedulerBuilder, ShedPolicy, Ticket, Txn};
use std::collections::{BTreeMap, BTreeSet};
use workload::ShardedSpec;

const TABLE_ROWS: usize = 512;

fn builder() -> SchedulerBuilder {
    Scheduler::builder()
        .policy(Protocol::algebra(ProtocolKind::Ss2pl))
        .scheduler_config(SchedulerConfig {
            trigger: TriggerPolicy::Hybrid {
                interval_ms: 1,
                threshold: 8,
            },
            ..SchedulerConfig::default()
        })
        .table("bench", TABLE_ROWS)
}

/// The scenario of the equivalence test: a uniform OLTP workload at
/// transaction granularity, identical for every backend.
fn scenario(shards: usize) -> Vec<workload::TransactionSpec> {
    let spec = ShardedSpec {
        shards,
        cross_shard_fraction: 0.0,
        transactions: 32,
        statements_per_txn: 2,
        update_fraction: 1.0,
        table_rows: TABLE_ROWS,
        table: "bench".to_string(),
        seed: 7,
    };
    spec.generate(|object| shard_of(object, shards))
}

/// Drive the scenario through one pipelined session and return the report.
fn drive(scheduler: Scheduler, transactions: &[workload::TransactionSpec]) -> Report {
    let mut session = scheduler.connect();
    let tickets: Vec<Ticket> = transactions
        .iter()
        .map(|txn| {
            session
                .submit(Txn::from_statements(&txn.statements))
                .expect("submission succeeds")
        })
        .collect();
    for ticket in tickets {
        ticket.wait().expect("every workload transaction commits");
    }
    scheduler.shutdown()
}

fn executed_data_keys(report: &Report) -> BTreeSet<RequestKey> {
    report
        .executed_log
        .iter()
        .filter(|r| r.op.is_data())
        .map(|r| r.key())
        .collect()
}

/// Per-object write order `(object -> [ta...])` — the admission-order
/// invariant every backend must agree on for a submission-ordered uniform
/// workload.
fn per_object_write_order(report: &Report) -> BTreeMap<i64, Vec<u64>> {
    let mut orders: BTreeMap<i64, Vec<u64>> = BTreeMap::new();
    for request in &report.executed_log {
        if request.op == declsched::Operation::Write {
            orders.entry(request.object).or_default().push(request.ta);
        }
    }
    orders
}

/// Satellite: the same OLTP scenario driven through `Session` against
/// passthrough, unsharded, and N-shard backends yields consistent commit
/// counts, identical executed request sets, identical per-object admission
/// order and identical final database state.
#[test]
fn backends_are_equivalent_on_the_same_scenario() {
    let shards = 3usize;
    let transactions = scenario(shards);

    let passthrough = drive(builder().passthrough().build().unwrap(), &transactions);
    let unsharded = drive(builder().build().unwrap(), &transactions);
    let sharded = drive(builder().shards(shards).build().unwrap(), &transactions);

    assert_eq!(passthrough.backend, BackendKind::Passthrough);
    assert_eq!(unsharded.backend, BackendKind::Unsharded);
    assert_eq!(sharded.backend, BackendKind::Sharded);

    // Consistent commit counts: every transaction commits exactly once on
    // every backend (no cross-shard traffic, so the sharded fleet commits
    // once per transaction too).
    for report in [&passthrough, &unsharded, &sharded] {
        assert_eq!(report.transactions, 32, "{}", report.backend);
        assert_eq!(report.dispatch.commits, 32, "{}", report.backend);
    }
    assert_eq!(
        sharded.sharded.as_ref().unwrap().cross_shard_transactions,
        0
    );

    // The same request set executed …
    let keys = executed_data_keys(&unsharded);
    assert_eq!(keys, executed_data_keys(&passthrough));
    assert_eq!(keys, executed_data_keys(&sharded));
    assert_eq!(
        unsharded.dispatch.executed, passthrough.dispatch.executed,
        "data statement counts must agree"
    );
    assert_eq!(unsharded.dispatch.executed, sharded.dispatch.executed);

    // … in the same per-object admission order …
    let order = per_object_write_order(&unsharded);
    assert_eq!(order, per_object_write_order(&passthrough));
    assert_eq!(order, per_object_write_order(&sharded));
    // (submission order is transaction-id order under the SS2PL tie-break)
    for tas in order.values() {
        let mut sorted = tas.clone();
        sorted.sort_unstable();
        assert_eq!(tas, &sorted, "write-order inversion");
    }

    // … leaving identical final database state.
    assert_eq!(unsharded.final_rows, passthrough.final_rows);
    assert_eq!(unsharded.final_rows, sharded.final_rows);
}

/// `.unsharded()` is the worker fleet `.shards(1)` starts, under another
/// label: on a contended stream — 64 read/write transactions over eight
/// rows, every third one premium — both execute the identical request
/// sequence and leave the identical rows, under a lock protocol and under
/// a priority-ordering one.  The trigger never fires, so every round runs
/// in the shutdown drain over the same queue and the comparison is exact.
#[test]
fn unsharded_and_a_fleet_of_one_are_the_same_code_path() {
    let contended = ShardedSpec {
        shards: 1,
        cross_shard_fraction: 0.0,
        transactions: 64,
        statements_per_txn: 3,
        update_fraction: 0.5,
        table_rows: 8,
        table: "bench".to_string(),
        seed: 19,
    }
    .generate(|_| 0);
    for kind in [ProtocolKind::Ss2pl, ProtocolKind::SlaPriority] {
        let run = |builder: SchedulerBuilder| {
            let scheduler = builder
                .policy(Protocol::algebra(kind))
                .scheduler_config(SchedulerConfig {
                    trigger: TriggerPolicy::FillLevel {
                        threshold: 1_000_000,
                    },
                    ..SchedulerConfig::default()
                })
                .build()
                .unwrap();
            let mut session = scheduler.connect();
            let tickets: Vec<Ticket> = contended
                .iter()
                .enumerate()
                .map(|(index, spec)| {
                    let premium = index % 3 == 0;
                    let txn = Txn::from_statements(&spec.statements).with_sla(SlaMeta {
                        priority: if premium { 3 } else { 1 },
                        class: if premium { "premium" } else { "free" },
                        arrival_ms: 0,
                        deadline_ms: 1_000,
                    });
                    session.submit(txn).unwrap()
                })
                .collect();
            let report = scheduler.shutdown();
            for ticket in tickets {
                ticket.wait().unwrap();
            }
            report
        };
        let unsharded = run(builder().unsharded());
        let fleet_of_one = run(builder().shards(1));
        assert_eq!(unsharded.backend, BackendKind::Unsharded);
        assert_eq!(fleet_of_one.backend, BackendKind::Sharded);
        assert_eq!(unsharded.dispatch.commits, 64, "{kind:?}");
        let sequence = |report: &Report| -> Vec<RequestKey> {
            report.executed_log.iter().map(|r| r.key()).collect()
        };
        assert_eq!(sequence(&unsharded), sequence(&fleet_of_one), "{kind:?}");
        assert_eq!(unsharded.final_rows, fleet_of_one.final_rows, "{kind:?}");
        assert_eq!(unsharded.rounds, fleet_of_one.rounds, "{kind:?}");
    }
}

/// What an unsharded run looks like from outside: it is worker 0 of a
/// fleet (`shard.0.*` instruments), and nothing was routed — no request
/// carries a `Routed` event.
#[test]
fn unsharded_runs_one_worker_with_nothing_to_route() {
    let scheduler = builder()
        .unsharded()
        .trace(obs::TraceConfig::full(4_096))
        .build()
        .unwrap();
    let registry = scheduler.registry();
    let report = drive(scheduler, &scenario(1));
    assert_eq!(report.backend, BackendKind::Unsharded);
    assert!(report.sharded.is_none());
    let snapshot = registry.snapshot();
    assert!(snapshot.counter("shard.0.rounds") > 0);
    assert_eq!(snapshot.counter("shard.0.rounds"), report.rounds);
    assert_eq!(snapshot.counter("shard.0.requests_executed"), 32 * 3);
    // (observations, sum): one per round, every executed request in one.
    let batches = snapshot.histograms["shard.0.batch_size"];
    assert_eq!(batches, (report.rounds, 32 * 3));
    assert_eq!(report.trace.dropped(), 0);
    let routed = |kind: &obs::EventKind| matches!(kind, obs::EventKind::Routed { .. });
    assert!(!report.trace.events().iter().any(|e| routed(&e.kind)));
    assert!(report
        .trace
        .events()
        .iter()
        .any(|e| e.kind == obs::EventKind::Executed));
}

/// Satellite: one session with K in-flight tickets completes all
/// transactions — against the unsharded middleware and the sharded fleet.
#[test]
fn one_session_sustains_many_in_flight_transactions() {
    for scheduler in [
        builder().build().unwrap(),
        builder().shards(2).build().unwrap(),
    ] {
        let kind = scheduler.backend_kind();
        let mut session = scheduler.connect();
        const K: usize = 24;
        let tickets: Vec<Ticket> = (1..=K as u64)
            .map(|ta| {
                session
                    .submit(Txn::new(ta).write(ta as i64, ta as i64).commit())
                    .unwrap()
            })
            .collect();
        assert_eq!(session.in_flight(), K, "{kind}");
        for ticket in tickets {
            let receipt = ticket.wait().unwrap();
            assert_eq!(receipt.statements, 2, "{kind}");
        }
        let report = scheduler.shutdown();
        assert_eq!(report.dispatch.commits, K as u64, "{kind}");
    }
}

/// Satellite: out-of-order `wait()` is safe, including on transactions
/// that conflict (a later-submitted ticket awaited first).
#[test]
fn out_of_order_wait_is_safe() {
    let scheduler = builder().build().unwrap();
    let mut session = scheduler.connect();
    // All transactions contend on object 3, so completion order is forced
    // to submission order — the opposite of our wait order.
    let tickets: Vec<Ticket> = (1..=8u64)
        .map(|ta| {
            session
                .submit(Txn::new(ta).write(3, ta as i64).commit())
                .unwrap()
        })
        .collect();
    for ticket in tickets.into_iter().rev() {
        ticket.wait().unwrap();
    }
    let report = scheduler.shutdown();
    assert_eq!(report.dispatch.commits, 8);
    let order: Vec<u64> = report.object_order(3).iter().map(|o| o.0).collect();
    assert_eq!(order, (1..=8).collect::<Vec<_>>());
}

/// Satellite: dropping a `Ticket` without waiting neither loses the
/// transaction nor wedges the scheduler thread; `drain` still settles and
/// shutdown completes.
#[test]
fn dropped_tickets_do_not_wedge_the_scheduler() {
    for scheduler in [
        builder().build().unwrap(),
        builder().shards(2).build().unwrap(),
        builder().passthrough().build().unwrap(),
    ] {
        let kind = scheduler.backend_kind();
        let mut session = scheduler.connect();
        for ta in 1..=16u64 {
            // Ticket dropped on the spot.
            drop(
                session
                    .submit(Txn::new(ta).write(ta as i64, 1).commit())
                    .unwrap(),
            );
        }
        session.drain().unwrap();
        let report = scheduler.shutdown();
        assert_eq!(report.dispatch.commits, 16, "{kind}");
    }
}

/// Once a burst has drained, an idle deployment's queue depth reads 0 with
/// no further traffic.  Nothing wakes an idle worker, so the gauge must be
/// written after the round that emptied it, not only before: a stale
/// pre-round backlog would keep shedding low tiers forever.
#[test]
fn queue_depth_reads_zero_once_a_burst_has_drained() {
    for scheduler in [
        builder().unsharded().build().unwrap(),
        builder().shards(4).build().unwrap(),
    ] {
        let kind = scheduler.backend_kind();
        let mut session = scheduler.connect();
        // Four hot objects, so the burst queues behind its own locks.
        let tickets: Vec<Ticket> = (1..=64u64)
            .map(|ta| {
                let txn = Txn::new(ta).write((ta % 4) as i64, 1).commit();
                session.submit(txn).unwrap()
            })
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        assert_eq!(scheduler.queue_depth(), 0, "{kind}");
        drop(session);
        scheduler.shutdown();
    }
}

/// Satellite (SLA regression): the old `execute_transaction` entry point
/// silently dropped SLA metadata.  Through the unified API the metadata
/// reaches the scheduling rounds: under the SLA-priority protocol a
/// premium transaction submitted *after* a free one is dispatched first —
/// impossible unless the rule's `sla` relation saw it.
#[test]
fn sla_metadata_reaches_the_protocol_end_to_end() {
    let scheduler = Scheduler::builder()
        .policy(Protocol::algebra(ProtocolKind::SlaPriority))
        .scheduler_config(SchedulerConfig {
            // A wide window batches both submissions into one round that
            // has to arbitrate between the classes.
            trigger: TriggerPolicy::Hybrid {
                interval_ms: 40,
                threshold: 64,
            },
            ..SchedulerConfig::default()
        })
        .table("bench", TABLE_ROWS)
        .build()
        .unwrap();
    let mut session = scheduler.connect();
    let free = session
        .submit(Txn::new(1).read(1).with_sla(SlaMeta {
            priority: 1,
            class: "free",
            arrival_ms: 0,
            deadline_ms: 1_000,
        }))
        .unwrap();
    let premium = session
        .submit(Txn::new(2).read(2).with_sla(SlaMeta {
            priority: 3,
            class: "premium",
            arrival_ms: 0,
            deadline_ms: 50,
        }))
        .unwrap();
    free.wait().unwrap();
    premium.wait().unwrap();
    let report = scheduler.shutdown();
    let order: Vec<u64> = report.executed_log.iter().map(|r| r.ta).collect();
    assert_eq!(
        order,
        vec![2, 1],
        "premium (T2) must be dispatched before free (T1)"
    );
    // The metadata survives the round trip into the log.
    assert_eq!(report.executed_log[0].sla.unwrap().class, "premium");
}

/// A statement submitted after its transaction committed is refused, and
/// with history pruning on (the default) the refusal leaves no lock behind:
/// the next writer of the object commits exactly as with pruning off.
#[test]
fn a_late_statement_after_commit_does_not_wedge_its_object() {
    for prune_history in [false, true] {
        let scheduler = Scheduler::builder()
            .policy(Protocol::algebra(ProtocolKind::Ss2pl))
            .scheduler_config(SchedulerConfig {
                trigger: TriggerPolicy::Always,
                prune_history,
                ..SchedulerConfig::default()
            })
            .table("bench", TABLE_ROWS)
            .unsharded()
            .build()
            .unwrap();
        let mut session = scheduler.connect();
        session.execute(Txn::new(1).write(5, 1).commit()).unwrap();
        let late = session
            .submit_requests(vec![declsched::Request::write(0, 1, 2, 5)])
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(
            late.to_string().contains("not active"),
            "prune={prune_history}: {late}"
        );
        let next = session.submit(Txn::new(2).write(5, 2).commit()).unwrap();
        let report = scheduler.shutdown();
        assert!(next.wait().is_ok(), "prune={prune_history}: T2 wedged");
        assert_eq!(report.dispatch.commits, 2, "prune={prune_history}");
    }
}

/// The façade refuses work after shutdown instead of hanging.
#[test]
fn submissions_after_shutdown_fail_fast() {
    let scheduler = builder().build().unwrap();
    let mut session = scheduler.connect();
    let _ = scheduler.shutdown();
    let err = session
        .submit(Txn::new(1).write(1, 1).commit())
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, declsched::SchedError::ChannelClosed { .. }));
}

/// The session layer's SLA-aware shedding: below-priority *opening*
/// submissions past the watermark resolve with the typed `Shed` outcome,
/// continuations and protected tiers always pass, and the per-tier report
/// accounts for all of it.
#[test]
fn shedding_rejects_low_tiers_with_a_typed_outcome() {
    let scheduler = Scheduler::builder()
        .table("bench", 256)
        .scheduler_config(SchedulerConfig {
            trigger: TriggerPolicy::Hybrid {
                interval_ms: 1,
                threshold: 4,
            },
            ..SchedulerConfig::default()
        })
        .shards(2)
        // Watermark 0: the deployment is permanently "overloaded", so the
        // shed decision is deterministic.
        .shed_policy(ShedPolicy::new(0, 3))
        .build()
        .expect("fleet starts");
    let mut session = scheduler.connect();
    let free = SlaMeta {
        priority: 1,
        class: "free",
        arrival_ms: 0,
        deadline_ms: 1_000,
    };
    let premium = SlaMeta {
        priority: 3,
        class: "premium",
        arrival_ms: 0,
        deadline_ms: 50,
    };

    // Opening a low-tier transaction is shed with the typed outcome.
    let err = session
        .submit(Txn::new(1).write(5, 5).commit().with_sla(free))
        .expect("submit returns a ticket")
        .wait()
        .expect_err("the free tier is shed");
    assert!(err.is_shed(), "unexpected error: {err}");

    // Unclassified and protected-tier transactions always pass.
    session
        .submit(Txn::new(2).write(6, 6).commit())
        .expect("submit")
        .wait()
        .expect("unclassified traffic is never shed");
    session
        .submit(Txn::new(3).write(7, 7).commit().with_sla(premium))
        .expect("submit")
        .wait()
        .expect("premium is never shed");

    // A continuation of an admitted transaction passes even below the
    // protected priority — shedding it would strand held locks.
    session
        .submit(Txn::new(4).write(8, 8))
        .expect("submit")
        .wait()
        .expect("the opening (unclassified) submission is admitted");
    session
        .submit(Txn::resume(4, 1).commit().with_sla(free))
        .expect("submit")
        .wait()
        .expect("continuations are never shed");

    let report = scheduler.shutdown();
    assert_eq!(report.dispatch.commits, 3);
    let free_tier = report
        .tiers
        .iter()
        .find(|t| t.class == "free")
        .expect("free tier accounted");
    assert_eq!(free_tier.shed, 1);
    assert_eq!(
        free_tier.submitted, 2,
        "shed opening + admitted continuation"
    );
    let premium_tier = report
        .tiers
        .iter()
        .find(|t| t.class == "premium")
        .expect("premium tier accounted");
    assert_eq!(premium_tier.shed, 0);
    assert_eq!(premium_tier.completed, 1);
    assert!(premium_tier.max_latency_us > 0);
}

/// Overload control must see a backlog that is cross-shard only: escalations
/// parked behind a held lock sit in the lane's admission state — on no
/// worker's queue — and still have to push low-tier openings over the
/// watermark.
#[test]
fn shedding_triggers_on_a_cross_shard_only_backlog() {
    let scheduler = Scheduler::builder()
        .table("bench", 256)
        .scheduler_config(SchedulerConfig {
            trigger: TriggerPolicy::Hybrid {
                interval_ms: 1,
                threshold: 4,
            },
            ..SchedulerConfig::default()
        })
        .shards(2)
        .shed_policy(ShedPolicy::new(3, 3))
        .build()
        .expect("fleet starts");
    let mut session = scheduler.connect();
    let free = SlaMeta {
        priority: 1,
        class: "free",
        arrival_ms: 0,
        deadline_ms: 1_000,
    };
    let object_on = |shard: usize, nth: usize| -> i64 {
        (0..256i64)
            .filter(|&o| shard_of(o, 2) == shard)
            .nth(nth)
            .expect("enough objects per shard")
    };
    let (a, b) = (object_on(0, 0), object_on(1, 0));

    // An idle fleet admits the free tier.
    session
        .submit(
            Txn::new(1)
                .write(object_on(0, 1), 1)
                .commit()
                .with_sla(free),
        )
        .expect("submit")
        .wait()
        .expect("below the watermark nothing is shed");

    // T2 holds `a`; three spanning transactions are denied on it (one
    // parked, two waiting behind it): a backlog of three, all in the lane.
    session
        .submit(Txn::new(2).write(a, 2))
        .expect("submit")
        .wait()
        .expect("T2 takes its lock");
    let spanning: Vec<_> = (3..6u64)
        .map(|ta| {
            session
                .submit(
                    Txn::new(ta)
                        .write(a, ta as i64)
                        .write(b, ta as i64)
                        .commit(),
                )
                .expect("cross-shard submission routes")
        })
        .collect();
    let err = session
        .submit(
            Txn::new(6)
                .write(object_on(1, 1), 6)
                .commit()
                .with_sla(free),
        )
        .expect("submit returns a ticket")
        .wait()
        .expect_err("the lane's backlog reaches the watermark");
    assert!(err.is_shed(), "unexpected error: {err}");

    // Releasing the lock drains the lane.
    session
        .submit(Txn::resume(2, 1).commit())
        .expect("submit")
        .wait()
        .expect("T2 commits");
    for ticket in spanning {
        ticket.wait().expect("the parked escalations complete");
    }

    let report = scheduler.shutdown();
    let detail = report.sharded.as_ref().expect("sharded detail");
    assert_eq!(detail.escalation.escalations, 3);
    assert_eq!(detail.escalation.failed, 0);
    let free_tier = report
        .tiers
        .iter()
        .find(|t| t.class == "free")
        .expect("free tier accounted");
    assert_eq!(free_tier.shed, 1);
    assert_eq!(free_tier.completed, 1);
}

/// An auxiliary relation named like one of the scheduler's own relations is
/// refused before any worker starts, instead of shadowing the real relation
/// on the from-scratch and union-vote paths.
#[test]
fn an_aux_relation_cannot_shadow_the_history() {
    let history = relalg::Table::new("history", declsched::Request::schema());
    let err = builder()
        .shards(2)
        .aux_relation(history)
        .build()
        .err()
        .expect("a reserved auxiliary name must fail the build");
    assert_eq!(
        err,
        declsched::SchedError::ReservedRelation {
            relation: "history".into()
        }
    );
}
