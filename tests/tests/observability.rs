//! Flight-recorder invariants, end to end: every committed request's
//! event sequence is well-formed across all three deployment flavours
//! (property test), a cross-shard escalated transaction's complete
//! timeline is reconstructable from `Report::trace`, and the live metrics
//! registry is queryable mid-run.

use declsched::{shard_of, Protocol, ProtocolKind};
use obs::{Event, EventKind, ReqId};
use proptest::prelude::*;
use session::{Report, Scheduler, Ticket, Txn};
use std::collections::{BTreeMap, BTreeSet};
use workload::{ShardedSpec, TransactionSpec};

const TABLE_ROWS: usize = 64;
/// Large enough that no test run ever wraps a ring — the invariants below
/// assume a complete event log.
const CAPACITY: usize = 65_536;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Deployment {
    Unsharded,
    Sharded(usize),
    Passthrough,
}

/// Run `specs` through a fully traced deployment; returns the shutdown
/// report and the session-assigned transaction id of each spec.
fn run_traced(deployment: Deployment, specs: &[TransactionSpec]) -> (Report, Vec<u64>) {
    let builder = Scheduler::builder()
        .policy(Protocol::algebra(ProtocolKind::Ss2pl))
        .table("bench", TABLE_ROWS)
        .trace(obs::TraceConfig::full(CAPACITY));
    let builder = match deployment {
        Deployment::Unsharded => builder.unsharded(),
        Deployment::Sharded(n) => builder.shards(n),
        Deployment::Passthrough => builder.passthrough(),
    };
    let scheduler = builder.build().expect("deployment starts");
    let mut client = scheduler.connect();
    let mut tas = Vec::with_capacity(specs.len());
    let mut tickets: Vec<Ticket> = Vec::with_capacity(specs.len());
    for spec in specs {
        let txn = Txn::from_statements(&spec.statements);
        tas.push(txn.ta());
        tickets.push(client.submit(txn).expect("submission succeeds"));
    }
    for ticket in tickets {
        ticket.wait().expect("workload transactions commit");
    }
    (scheduler.shutdown(), tas)
}

/// The single timestamp of the one `kind`-matching event, if any.
fn stamp_of(events: &[&Event], matches: impl Fn(&EventKind) -> bool) -> Option<u64> {
    events.iter().find(|e| matches(&e.kind)).map(|e| e.at_us)
}

fn count_of(events: &[&Event], matches: impl Fn(&EventKind) -> bool) -> usize {
    events.iter().filter(|e| matches(&e.kind)).count()
}

/// The well-formedness invariant on one committed transaction's trace:
/// every request has exactly one `Submitted` opening the timeline and
/// exactly one terminal (`Committed`) closing it, lifecycle stamps are
/// monotone, and the deployment-specific middle section is present —
/// nothing for passthrough; `Qualified → Dispatched → Executed` for the
/// unsharded scheduler; additionally a `Routed` whose shard matches the
/// workload's own placement for single-shard sharded transactions, or an
/// `Escalated` over exactly the touched shards (with per-shard replicated
/// execution allowed) for spanning ones.
fn assert_well_formed(
    report: &Report,
    tas: &[u64],
    specs: &[TransactionSpec],
    deployment: Deployment,
) {
    let trace = &report.trace;
    assert_eq!(trace.dropped(), 0, "capacity must cover the whole run");
    for (spec, &ta) in specs.iter().zip(tas) {
        let events = trace.transaction(ta);
        assert!(!events.is_empty(), "T{ta} missing from the trace");
        let mut per_req: BTreeMap<ReqId, Vec<&Event>> = BTreeMap::new();
        for event in &events {
            per_req.entry(event.req).or_default().push(event);
        }
        assert_eq!(
            per_req.len(),
            spec.statements.len(),
            "T{ta}: every request must appear in the trace"
        );
        let touched: BTreeSet<usize> = match deployment {
            Deployment::Sharded(n) => spec
                .statements
                .iter()
                .filter_map(|s| s.object())
                .map(|object| shard_of(object.0, n))
                .collect(),
            _ => BTreeSet::new(),
        };

        for (req, events) in &per_req {
            // Bracketing: one Submitted first, one terminal (Committed) last.
            assert_eq!(events[0].kind, EventKind::Submitted, "{req}");
            assert_eq!(count_of(events, |k| *k == EventKind::Submitted), 1, "{req}");
            assert_eq!(count_of(events, EventKind::is_terminal), 1, "{req}");
            assert_eq!(
                events.last().expect("non-empty").kind,
                EventKind::Committed,
                "{req}: committed transactions end in Committed"
            );

            let submitted = stamp_of(events, |k| *k == EventKind::Submitted).expect("checked");
            let terminal = stamp_of(events, EventKind::is_terminal).expect("checked");
            assert!(submitted <= terminal, "{req}");

            let qualified = stamp_of(events, |k| *k == EventKind::Qualified);
            let dispatched = stamp_of(events, |k| *k == EventKind::Dispatched);
            let executed = events
                .iter()
                .filter(|e| e.kind == EventKind::Executed)
                .map(|e| e.at_us)
                .max();

            match deployment {
                Deployment::Passthrough => {
                    // Native locks: the session brackets are the whole story.
                    assert_eq!(events.len(), 2, "{req}");
                }
                Deployment::Unsharded => {
                    assert_eq!(
                        count_of(events, |k| matches!(k, EventKind::Routed { .. })),
                        0
                    );
                    assert_eq!(
                        count_of(events, |k| matches!(k, EventKind::Escalated { .. })),
                        0
                    );
                    assert_eq!(count_of(events, |k| *k == EventKind::Qualified), 1, "{req}");
                    assert_eq!(
                        count_of(events, |k| *k == EventKind::Dispatched),
                        1,
                        "{req}"
                    );
                    assert_eq!(count_of(events, |k| *k == EventKind::Executed), 1, "{req}");
                }
                Deployment::Sharded(_) if touched.len() <= 1 => {
                    let routed: Vec<usize> = events
                        .iter()
                        .filter_map(|e| match e.kind {
                            EventKind::Routed { shard } => Some(shard),
                            _ => None,
                        })
                        .collect();
                    assert_eq!(routed.len(), 1, "{req}: single-shard requests route once");
                    if let Some(&home) = touched.first() {
                        assert_eq!(
                            routed[0], home,
                            "{req}: the routed shard must be the executing shard"
                        );
                    }
                    assert_eq!(count_of(events, |k| *k == EventKind::Qualified), 1, "{req}");
                    assert_eq!(
                        count_of(events, |k| *k == EventKind::Dispatched),
                        1,
                        "{req}"
                    );
                    assert_eq!(count_of(events, |k| *k == EventKind::Executed), 1, "{req}");
                }
                Deployment::Sharded(_) => {
                    let escalated: Vec<&Vec<usize>> = events
                        .iter()
                        .filter_map(|e| match &e.kind {
                            EventKind::Escalated { shards } => Some(shards),
                            _ => None,
                        })
                        .collect();
                    assert_eq!(escalated.len(), 1, "{req}: spanning requests escalate once");
                    let expected: Vec<usize> = touched.iter().copied().collect();
                    assert_eq!(
                        escalated[0], &expected,
                        "{req}: escalation freezes the touched shards"
                    );
                    assert_eq!(count_of(events, |k| *k == EventKind::Qualified), 1, "{req}");
                    // Escalated terminals are replicated to every frozen
                    // shard, so Dispatched/Executed may repeat — but in
                    // matched pairs, at least once, at most once per shard.
                    let dispatches = count_of(events, |k| *k == EventKind::Dispatched);
                    let executions = count_of(events, |k| *k == EventKind::Executed);
                    assert_eq!(dispatches, executions, "{req}");
                    assert!((1..=touched.len()).contains(&executions), "{req}");
                }
            }

            // Monotone lifecycle stamps wherever the middle section exists.
            if let Some(q) = qualified {
                assert!(submitted <= q, "{req}: Submitted after Qualified");
                assert!(q <= terminal, "{req}");
            }
            if let (Some(q), Some(d)) = (qualified, dispatched) {
                assert!(q <= d, "{req}: Qualified after Dispatched");
            }
            if let (Some(d), Some(x)) = (dispatched, executed) {
                assert!(d <= x, "{req}: Dispatched after Executed");
                assert!(x <= terminal, "{req}: Executed after the terminal");
            }
        }
    }
}

fn spec(
    transactions: usize,
    statements: usize,
    cross_fraction: f64,
    seed: u64,
) -> Vec<TransactionSpec> {
    ShardedSpec {
        shards: 4,
        cross_shard_fraction: cross_fraction,
        transactions,
        statements_per_txn: statements,
        update_fraction: 0.6,
        table_rows: TABLE_ROWS,
        table: "bench".to_string(),
        seed,
    }
    .generate(|object| shard_of(object, 4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Committed requests' event sequences are well-formed on every
    /// deployment flavour, for arbitrary (optionally cross-shard)
    /// workloads under full tracing.
    #[test]
    fn committed_event_sequences_are_well_formed(
        (transactions, statements, cross, seed) in (4usize..20, 1usize..4, 0u8..3, 0u64..1_000)
    ) {
        let cross_fraction = f64::from(cross) * 0.25;
        let generated = spec(transactions, statements, cross_fraction, seed);
        for deployment in [
            Deployment::Unsharded,
            Deployment::Sharded(4),
            Deployment::Passthrough,
        ] {
            let (report, tas) = run_traced(deployment, &generated);
            assert_well_formed(&report, &tas, &generated, deployment);
        }
    }
}

/// The acceptance scenario: a transaction spanning two shards takes the
/// escalation lane, and `Report::trace` reconstructs its complete
/// per-request timeline — `Submitted → Escalated{2 shards} → Qualified →
/// Dispatched → Executed → Committed`, with the terminal request executed
/// on every frozen shard.
#[test]
fn escalated_transaction_timeline_is_reconstructable() {
    let shards = 2usize;
    let on_shard = |want: usize| {
        (0..TABLE_ROWS as i64)
            .find(|&object| shard_of(object, shards) == want)
            .expect("both shards own objects")
    };
    let (left, right) = (on_shard(0), on_shard(1));

    let scheduler = Scheduler::builder()
        .policy(Protocol::algebra(ProtocolKind::Ss2pl))
        .table("bench", TABLE_ROWS)
        .trace(obs::TraceConfig::full(CAPACITY))
        .shards(shards)
        .build()
        .expect("fleet starts");
    let mut client = scheduler.connect();
    let txn = Txn::new(10).write(left, 1).write(right, 2).commit();
    let ta = txn.ta();
    client
        .submit(txn)
        .expect("submission succeeds")
        .wait()
        .expect("the spanning transaction commits");
    let report = scheduler.shutdown();

    let detail = report.sharded.as_ref().expect("sharded deployment detail");
    assert_eq!(detail.cross_shard_transactions, 1);

    // Each data request ran exactly once, on its owning shard's engine.
    for intra in [0u32, 1u32] {
        let timeline = report.trace.timeline(ReqId::new(ta, intra));
        let labels: Vec<&str> = timeline.iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            labels,
            vec![
                "submitted",
                "escalated",
                "qualified",
                "dispatched",
                "executed",
                "committed"
            ],
            "T{ta}#{intra}"
        );
        assert!(
            timeline.windows(2).all(|w| w[0].at_us <= w[1].at_us),
            "T{ta}#{intra}: timeline stamps must be monotone"
        );
        let EventKind::Escalated { ref shards } = timeline[1].kind else {
            panic!("second event must be the escalation");
        };
        assert_eq!(shards, &vec![0, 1], "escalation freezes both shards");
    }

    // The terminal request is replicated: every frozen shard finishes the
    // transaction on its own engine, so Dispatched/Executed appear per
    // shard, and exactly one Committed closes the timeline.
    let commit_timeline = report.trace.timeline(ReqId::new(ta, 2));
    let count = |kind: EventKind| commit_timeline.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count(EventKind::Dispatched), 2);
    assert_eq!(count(EventKind::Executed), 2);
    assert_eq!(count(EventKind::Committed), 1);
    assert_eq!(
        commit_timeline.last().expect("non-empty").kind,
        EventKind::Committed
    );

    // The phase histograms cover all three requests end to end.
    let phases = report.trace.phase_histograms();
    assert_eq!(phases.end_to_end.count, 3);
    assert_eq!(phases.execute.count, 3);
    assert!(
        report.anomalies.is_empty(),
        "a clean commit freezes nothing"
    );
}

/// The live metrics registry is snapshot-able mid-run — before shutdown —
/// and every instrumented layer has registered by then.
#[test]
fn registry_snapshot_is_queryable_mid_run() {
    let generated = spec(12, 2, 0.25, 7);
    let scheduler = Scheduler::builder()
        .policy(Protocol::algebra(ProtocolKind::Ss2pl))
        .table("bench", TABLE_ROWS)
        .shards(4)
        .build()
        .expect("fleet starts");
    let mut client = scheduler.connect();
    let tickets: Vec<Ticket> = generated
        .iter()
        .map(|spec| {
            client
                .submit(Txn::from_statements(&spec.statements))
                .expect("submission succeeds")
        })
        .collect();
    for ticket in tickets {
        ticket.wait().expect("workload transactions commit");
    }

    // Mid-run: the deployment is still up when we snapshot.
    let registry = scheduler.registry();
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("session.submitted"), 12);
    assert_eq!(snapshot.counter("session.committed"), 12);
    let executed: u64 = (0..4)
        .map(|shard| snapshot.counter(&format!("shard.{shard}.requests_executed")))
        .sum();
    assert!(
        executed > 0,
        "shard workers must register execution counters"
    );
    assert!(
        snapshot.counter("router.transactions") >= 12,
        "the router must adopt its transaction counter"
    );
    assert!(
        snapshot.counter("lane.escalations") > 0,
        "cross-shard traffic escalates"
    );

    let text = registry.render_text();
    assert!(text.contains("# TYPE declsched_session_submitted_total counter"));
    assert!(text.contains("declsched_session_committed_total 12"));

    // Built without `.trace(..)`: the flight recorder is off and records
    // nothing, while the registry above still counted everything.
    assert!(scheduler.shutdown().trace.is_empty());
}
