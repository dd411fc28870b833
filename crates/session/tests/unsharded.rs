//! The unsharded deployment — the paper's Section 3.3 middleware, run as a
//! worker fleet of one — through the public `session` surface.

use declsched::{
    Protocol, ProtocolKind, Request, SchedError, SchedResult, SchedulerConfig, SlaMeta,
    TriggerPolicy,
};
use session::{Scheduler, SchedulerBuilder, Session, Ticket, Txn};

fn unsharded(kind: ProtocolKind, trigger: TriggerPolicy, rows: usize) -> SchedulerBuilder {
    Scheduler::builder()
        .policy(Protocol::algebra(kind))
        .scheduler_config(SchedulerConfig {
            trigger,
            ..SchedulerConfig::default()
        })
        .table("bench", rows)
        .unsharded()
}

fn ss2pl(rows: usize) -> Scheduler {
    let trigger = TriggerPolicy::Hybrid {
        interval_ms: 1,
        threshold: 4,
    };
    unsharded(ProtocolKind::Ss2pl, trigger, rows)
        .build()
        .unwrap()
}

#[test]
fn single_client_round_trip() {
    let scheduler = ss2pl(100);
    let mut session = scheduler.connect();
    session.execute(Txn::new(1).read(5)).unwrap();
    session.execute(Txn::resume(1, 1).write(5, 42)).unwrap();
    session.execute(Txn::resume(1, 2).commit()).unwrap();
    let report = scheduler.shutdown();
    assert_eq!(report.transactions, 3);
    assert_eq!(report.dispatch.executed, 2);
    assert_eq!(report.dispatch.commits, 1);
    assert!(report.scheduler.rounds >= 1);
    assert_eq!(report.scheduler.requests_scheduled, 3);
    assert_eq!(report.executed_log.len(), 3);
    assert_eq!(report.final_rows.len(), 100);
    assert_eq!(report.final_rows[5], 42);
}

#[test]
fn concurrent_clients_on_conflicting_rows_all_complete() {
    let scheduler = ss2pl(10);
    std::thread::scope(|scope| {
        for ta in 1..=4u64 {
            let mut session = scheduler.connect();
            // Every client touches the same row 3, forcing the declarative
            // rule to serialise them.
            scope.spawn(move || session.execute(Txn::new(ta).write(3, 1).commit()).unwrap());
        }
    });
    let report = scheduler.shutdown();
    assert_eq!(report.dispatch.executed, 4);
    assert_eq!(report.dispatch.commits, 4);
}

#[test]
fn pipelined_submission_keeps_many_transactions_in_flight() {
    let scheduler = ss2pl(100);
    let mut session = scheduler.connect();
    // 32 transactions in flight from one thread before any wait.
    let tickets: Vec<Ticket> = (1..=32u64)
        .map(|ta| {
            session
                .submit(Txn::new(ta).write(ta as i64, 1).commit())
                .unwrap()
        })
        .collect();
    assert_eq!(session.in_flight(), 32);
    // Wait out of submission order: reverse.
    for ticket in tickets.into_iter().rev() {
        ticket.wait().unwrap();
    }
    let report = scheduler.shutdown();
    assert_eq!(report.dispatch.commits, 32);
    assert_eq!(report.dispatch.executed, 32);
}

#[test]
fn sla_metadata_travels_with_transaction_submissions() {
    // With the SLA-priority protocol, a premium transaction submitted
    // *after* a free one must be dispatched first when both land in the
    // same round — which can only happen if the scheduler's `sla` relation
    // actually saw the metadata.
    let window = TriggerPolicy::Hybrid {
        interval_ms: 40,
        threshold: 64,
    };
    let scheduler = unsharded(ProtocolKind::SlaPriority, window, 100)
        .build()
        .unwrap();
    let mut session = scheduler.connect();
    let sla = |priority, class, deadline_ms| SlaMeta {
        priority,
        class,
        arrival_ms: 0,
        deadline_ms,
    };
    let free = Txn::new(1).read(1).with_sla(sla(1, "free", 1_000));
    let premium = Txn::new(2).read(2).with_sla(sla(3, "premium", 50));
    let free = session.submit(free).unwrap();
    let premium = session.submit(premium).unwrap();
    free.wait().unwrap();
    premium.wait().unwrap();
    let report = scheduler.shutdown();
    let order: Vec<u64> = report.executed_log.iter().map(|r| r.ta).collect();
    assert_eq!(
        order,
        vec![2, 1],
        "premium (T2) must be dispatched before free (T1)"
    );
}

#[test]
fn duplicate_request_keys_are_rejected() {
    // A trigger that never fires keeps submissions queued, so the check
    // against an in-flight ticket is deterministic.
    let never = TriggerPolicy::FillLevel { threshold: 1_000 };
    let scheduler = unsharded(ProtocolKind::Ss2pl, never, 100).build().unwrap();
    let mut session = scheduler.connect();
    let rejected = |session: &mut Session, requests: Vec<Request>| {
        let error = session.submit_requests(requests).unwrap().wait();
        error.unwrap_err().to_string()
    };
    // Within one batch.
    let twice = vec![Request::write(0, 1, 0, 3), Request::write(0, 1, 0, 3)];
    assert!(rejected(&mut session, twice).contains("duplicate request key"));
    // Against an in-flight (still queued) ticket.
    let held = session.submit(Txn::new(2).write(4, 1).commit()).unwrap();
    let again = vec![Request::write(0, 2, 0, 4)];
    assert!(rejected(&mut session, again).contains("duplicate request key"));
    // The shutdown drain executes what was held.
    let report = scheduler.shutdown();
    held.wait().unwrap();
    assert_eq!(report.dispatch.commits, 1);
}

#[test]
fn dropping_tickets_does_not_wedge_the_scheduler() {
    let scheduler = ss2pl(100);
    let mut session = scheduler.connect();
    for ta in 1..=8u64 {
        // Submit and immediately drop the ticket …
        let _: SchedResult<Ticket> = session.submit(Txn::new(ta).write(ta as i64, 1).commit());
    }
    // … and the session's own claim on the completions with it.
    drop(session);
    let report = scheduler.shutdown();
    assert_eq!(report.dispatch.commits, 8);
}

/// A fleet of one sends straight to its worker, and that send still
/// visits the `RouterSend` chaos hook: a scripted `SendFail` fails exactly
/// that transaction, typed, and nothing else.
#[test]
fn a_scripted_send_failure_refuses_one_transaction() {
    let hook = chaos::Hook::RouterSend { shard: 0 };
    let plan = chaos::FaultPlan::new().inject(hook, 1, chaos::Fault::SendFail);
    let trigger = TriggerPolicy::Always;
    let scheduler = unsharded(ProtocolKind::Ss2pl, trigger, 100)
        .chaos(plan)
        .build()
        .unwrap();
    let mut session = scheduler.connect();
    let outcomes: Vec<SchedResult<_>> = (1..=3u64)
        .map(|ta| session.execute(Txn::new(ta).write(ta as i64, 1).commit()))
        .collect();
    assert!(outcomes[0].is_ok() && outcomes[2].is_ok());
    assert!(
        matches!(outcomes[1], Err(SchedError::ChannelClosed { .. })),
        "{:?}",
        outcomes[1]
    );
    let fired = scheduler.chaos_injector().fired();
    assert_eq!(fired.len(), 1);
    assert_eq!((fired[0].hook, fired[0].at_visit), (hook, 1));
    assert_eq!(scheduler.shutdown().dispatch.commits, 2);
}

#[test]
fn shutdown_with_no_clients_is_clean() {
    let scheduler = Scheduler::builder()
        .policy(Protocol::algebra(ProtocolKind::Fcfs))
        .table("bench", 10)
        .unsharded()
        .build()
        .unwrap();
    let report = scheduler.shutdown();
    assert_eq!(report.dispatch.executed, 0);
    assert_eq!(report.rounds, 0);
    assert!(report.executed_log.is_empty());
}
