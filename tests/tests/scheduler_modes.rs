//! Integration tests for the operating modes the paper distinguishes:
//! declaratively scheduled vs non-scheduling passthrough, the threaded
//! middleware, trigger behaviour and history pruning.

use declsched::prelude::*;
use txnstore::{Engine, ExecOutcome};

/// In declaratively scheduled mode the server never blocks or deadlocks —
/// the middleware's rule already serialised the conflicting requests — while
/// the same submission order in passthrough mode makes the server's native
/// scheduler block.  This is the contrast the paper's "non-scheduling mode"
/// exists to measure.
#[test]
fn scheduled_mode_keeps_the_server_free_of_lock_activity() {
    // Conflicting pattern: three transactions all updating row 1.
    let requests = [
        Request::write(0, 1, 0, 1),
        Request::write(0, 2, 0, 1),
        Request::write(0, 3, 0, 1),
    ];

    // (a) Declaratively scheduled.
    let mut scheduler = DeclarativeScheduler::new(
        Protocol::algebra(ProtocolKind::Ss2pl),
        SchedulerConfig {
            trigger: TriggerPolicy::Always,
            ..SchedulerConfig::default()
        },
    );
    let mut dispatcher = Dispatcher::new("bench", 10).unwrap();
    for r in &requests {
        scheduler.submit(*r, 0);
    }
    let mut now = 0;
    let mut committed = std::collections::HashSet::new();
    while scheduler.pending() > 0 || scheduler.queued() > 0 {
        let batch = scheduler.run_round(now).unwrap();
        for r in &batch.requests {
            if r.op == Operation::Write && committed.insert(r.ta) {
                // The "client" commits right after its write is executed.
                scheduler.submit(Request::commit(0, r.ta, 1), now + 1);
            }
        }
        dispatcher.execute_batch(&batch).unwrap();
        now += 1;
        assert!(now < 100, "scheduled mode did not converge");
    }
    let server = dispatcher.engine().metrics();
    assert_eq!(
        server.lock_waits, 0,
        "scheduled mode must never block on the server"
    );
    assert_eq!(server.deadlock_aborts, 0);
    assert_eq!(server.commits, 3);

    // (b) Passthrough: the server's own scheduler has to cope.
    let mut passthrough = Engine::new();
    passthrough.setup_benchmark_table("bench", 10).unwrap();
    let mut blocked = 0;
    for r in &requests {
        let outcome = passthrough.execute(&r.to_statement("bench")).unwrap();
        if matches!(outcome, ExecOutcome::Blocked { .. }) {
            blocked += 1;
        }
    }
    assert_eq!(
        blocked, 2,
        "the native scheduler must block the two later writers"
    );
    assert_eq!(passthrough.metrics().lock_waits, 2);
}

/// The threaded middleware delivers SLA metadata through to the scheduling
/// rounds: premium requests overtake earlier free-tier requests.  Each
/// client drives its own `Session` against the same deployment.
#[test]
fn middleware_orders_premium_traffic_first() {
    let scheduler = session::Scheduler::builder()
        .policy(Protocol::algebra(ProtocolKind::SlaPriority))
        .scheduler_config(SchedulerConfig {
            // Large fill threshold + short interval: both requests of the
            // test are normally batched into the same round.
            trigger: TriggerPolicy::Hybrid {
                interval_ms: 5,
                threshold: 64,
            },
            ..SchedulerConfig::default()
        })
        .table("bench", 100)
        .build()
        .unwrap();

    let mut free = scheduler.connect();
    let mut premium = scheduler.connect();
    let free_thread = std::thread::spawn(move || {
        free.execute(session::Txn::new(1).read(1).with_sla(SlaMeta {
            priority: 1,
            class: "free",
            arrival_ms: 0,
            deadline_ms: 1_000,
        }))
    });
    let premium_thread = std::thread::spawn(move || {
        premium.execute(session::Txn::new(2).read(2).with_sla(SlaMeta {
            priority: 3,
            class: "premium",
            arrival_ms: 0,
            deadline_ms: 50,
        }))
    });
    free_thread.join().unwrap().unwrap();
    premium_thread.join().unwrap().unwrap();
    let report = scheduler.shutdown();
    assert_eq!(report.dispatch.executed, 2);
    assert!(report.rounds >= 1);
}

/// Time-based triggers batch request bursts: many requests arriving within
/// one interval are scheduled in far fewer rounds than requests trickling in.
#[test]
fn time_trigger_batches_bursts() {
    let run = |arrival_gap_ms: u64| {
        let mut scheduler = DeclarativeScheduler::new(
            Protocol::algebra(ProtocolKind::Fcfs),
            SchedulerConfig {
                trigger: TriggerPolicy::TimeElapsed { interval_ms: 10 },
                ..SchedulerConfig::default()
            },
        );
        let mut rounds = 0;
        let mut now = 0;
        for i in 0..50u64 {
            scheduler.submit(Request::read(0, i + 1, 0, i as i64), now);
            if scheduler.tick(now).unwrap().is_some() {
                rounds += 1;
            }
            now += arrival_gap_ms;
        }
        while scheduler.queued() > 0 || scheduler.pending() > 0 {
            scheduler.run_round(now).unwrap();
            rounds += 1;
            now += 1;
        }
        rounds
    };
    let bursty = run(0); // all 50 requests arrive at once
    let trickle = run(20); // one request every 20 ms (> the 10 ms interval)
    assert!(
        bursty <= 2,
        "burst should be handled in one or two rounds, took {bursty}"
    );
    assert!(
        trickle > bursty * 5,
        "trickling arrivals should need many more rounds ({trickle} vs {bursty})"
    );
}

/// History pruning keeps the history relation bounded by the set of active
/// transactions, so rule-evaluation input does not grow with the age of the
/// scheduler.
#[test]
fn history_pruning_bounds_rule_input() {
    let mut pruned = DeclarativeScheduler::new(
        Protocol::algebra(ProtocolKind::Ss2pl),
        SchedulerConfig {
            trigger: TriggerPolicy::Always,
            prune_history: true,
            ..SchedulerConfig::default()
        },
    );
    let mut unpruned = DeclarativeScheduler::new(
        Protocol::algebra(ProtocolKind::Ss2pl),
        SchedulerConfig {
            trigger: TriggerPolicy::Always,
            prune_history: false,
            ..SchedulerConfig::default()
        },
    );
    // 40 short transactions, each: write then commit.
    for ta in 1..=40u64 {
        for s in [&mut pruned, &mut unpruned] {
            s.submit(Request::write(0, ta, 0, ta as i64), ta);
            s.submit(Request::commit(0, ta, 1), ta);
            s.run_round(ta).unwrap();
            // A second round flushes the commit if intra-ordering deferred it.
            if s.pending() > 0 {
                s.run_round(ta).unwrap();
            }
        }
    }
    assert_eq!(pruned.pending(), 0);
    assert_eq!(unpruned.pending(), 0);
    assert_eq!(
        pruned.history_len(),
        0,
        "all transactions finished, nothing to keep"
    );
    assert_eq!(
        unpruned.history_len(),
        80,
        "unpruned history keeps every request"
    );
    // Both variants scheduled everything exactly once.
    assert_eq!(pruned.metrics().requests_scheduled, 80);
    assert_eq!(unpruned.metrics().requests_scheduled, 80);
}
