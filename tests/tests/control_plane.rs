//! Integration tests for the adaptive control plane and the router bugfix
//! sweep: homes-map reclaim across completed / multi-submission / abandoned
//! transactions, routed-transaction counter accuracy across a mid-run
//! shutdown, SLA-aware shedding through the session façade, and manual
//! placement migration end to end.

use declsched::{
    shard_of, Protocol, ProtocolKind, Request, SchedulerConfig, SlaMeta, TriggerPolicy,
};
use proptest::prelude::*;
use session::{Scheduler, ShedPolicy, Txn};
use shard::{RehomeOutcome, ShardConfig, ShardRouter};

fn sharded_scheduler(shards: usize) -> Scheduler {
    Scheduler::builder()
        .table("bench", 512)
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
        let control = scheduler.sharded_control().expect("sharded deployment");
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
        // reclaiming their homes entries.
        drop(session);
        prop_assert_eq!(control.open_transactions(), 0);
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
    let control = scheduler.sharded_control().expect("sharded deployment");
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
    assert_eq!(control.open_transactions(), 2);

    // Keep the session alive across shutdown so no reclaim can come from
    // `Session::drop`: the drain fails T2 and the worker reclaims its
    // entry; T1 executed, so its entry is still legitimately live.
    let report = scheduler.shutdown();
    let err = blocked.wait().expect_err("the blocked txn is failed");
    assert!(!err.is_shed());
    let detail = report.sharded.expect("sharded detail");
    assert_eq!(detail.unreclaimed_homes, 1, "exactly T1's entry remains");
    // Dropping the session abandons T1 and reclaims the last entry.
    drop(session);
    assert_eq!(control.open_transactions(), 0);
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
    let config = ShardConfig::new(2, Protocol::algebra(ProtocolKind::Ss2pl))
        .with_scheduler(SchedulerConfig {
            trigger: TriggerPolicy::Hybrid {
                interval_ms: 1,
                threshold: 4,
            },
            ..SchedulerConfig::default()
        })
        .with_table("bench", 512);
    let router = ShardRouter::start(config).expect("fleet starts");
    let handle = router.control();

    let shard0_object = (0..512i64).find(|&o| shard_of(o, 2) == 0).expect("exists");
    let shard1_objects: Vec<i64> = (0..512i64).filter(|&o| shard_of(o, 2) == 1).collect();

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

/// Manual placement migration end to end: the row value moves with the
/// object, later writes land on the new home, a locked object reports
/// `Busy`, and the final report merges rows by the live placement.
#[test]
fn rehoming_moves_the_row_and_routes_later_traffic_to_the_new_home() {
    let scheduler = sharded_scheduler(2);
    let control = scheduler.sharded_control().expect("sharded deployment");
    let mut session = scheduler.connect();

    let object: i64 = (0..512)
        .find(|&o| shard_of(o, 2) == 0)
        .expect("shard 0 object");
    session
        .submit(Txn::new(1).write(object, 11).commit())
        .expect("submit")
        .wait()
        .expect("first write commits");

    // A held lock makes the object busy.
    session
        .submit(Txn::new(2).write(object, 22))
        .expect("submit")
        .wait()
        .expect("lock holder executes");
    assert_eq!(
        control.rehome(object, 1).expect("rehome call succeeds"),
        RehomeOutcome::Busy
    );
    session
        .submit(Txn::resume(2, 1).commit())
        .expect("submit")
        .wait()
        .expect("lock holder commits");

    // Idle now: the migration lands and bumps the epoch.
    assert_eq!(
        control.rehome(object, 1).expect("rehome call succeeds"),
        RehomeOutcome::Done
    );
    assert_eq!(control.shard_of(object), 1);
    assert_eq!(
        control.rehome(object, 1).expect("rehome call succeeds"),
        RehomeOutcome::NoOp
    );
    assert!(control.placement_epoch() >= 1);

    // Later traffic routes to the new home.
    session
        .submit(Txn::new(3).write(object, 33).commit())
        .expect("submit")
        .wait()
        .expect("post-migration write commits");

    drop(session);
    let report = scheduler.shutdown();
    let detail = report.sharded.as_ref().expect("sharded detail");
    assert_eq!(detail.placement, vec![(object, 1)]);
    assert_eq!(report.final_rows[object as usize], 33);
    // The post-migration write executed on shard 1's engine.
    let on_new_home = detail.reports[1]
        .executed_log
        .iter()
        .any(|r| r.ta == 3 && r.object == object);
    assert!(
        on_new_home,
        "post-migration traffic must land on the new home"
    );
}
