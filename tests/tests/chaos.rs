//! Chaos-engine integration tests: scripted fault plans driven through the
//! session façade.
//!
//! Covers the paths the happy shutdown tests in `session_api.rs` never
//! reach: `Ticket` drop-safety and `Session::drain` against a worker the
//! chaos engine killed mid-run, genuine native lock-upgrade deadlocks on
//! the passthrough backend (which complete-batch workloads can never
//! produce), and overload-shedding invariants under random `ShedFlip`
//! schedules.
//!
//! Seeded tests print their seed on failure; re-run any of them with
//! `CHAOS_SEED=<n>` to replay the exact schedule.

use chaos::{Fault, FaultPlan, Hook};
use declsched::{
    shard_of, Protocol, ProtocolKind, SchedError, SchedulerConfig, SlaMeta, TriggerPolicy,
};
use proptest::prelude::*;
use session::{Scheduler, SchedulerBuilder, Txn};
use std::time::Duration;

const TABLE_ROWS: usize = 512;

fn builder() -> SchedulerBuilder {
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
}

fn sla(priority: i64, class: &'static str) -> SlaMeta {
    SlaMeta {
        priority,
        class,
        arrival_ms: 0,
        deadline_ms: 1_000,
    }
}

// ---------------------------------------------------------------------------
// Satellite: Ticket drop-safety and Session::drain against a dead worker
// ---------------------------------------------------------------------------

/// A `Kill` fault lands on the unsharded scheduler worker before any
/// submission is processed.  Every ticket — dropped without waiting,
/// waited explicitly, or settled through `Session::drain` — resolves with
/// the typed dispatch error instead of hanging, later submissions are
/// refused rather than queued forever, and shutdown still returns a
/// report with nothing executed.
#[test]
fn killed_scheduler_worker_fails_dropped_waited_and_drained_tickets() {
    let scheduler = builder()
        .unsharded()
        .chaos(FaultPlan::new().inject(Hook::WorkerRound { shard: 0 }, 0, Fault::Kill))
        .build()
        .expect("deployment starts");
    let mut session = scheduler.connect();

    let dropped = session
        .submit(Txn::new(1).write(3, 1).commit())
        .expect("submission is accepted even by a doomed worker");
    let waited = session
        .submit(Txn::new(2).write(4, 1).commit())
        .expect("submission is accepted");
    let _drained = session
        .submit(Txn::new(3).write(5, 1).commit())
        .expect("submission is accepted");

    // Drop-safety: discarding a ticket must not hang or panic anything —
    // the session's drain still observes the failure below.
    drop(dropped);

    let err = waited.wait().expect_err("the killed worker fails the txn");
    match &err {
        SchedError::Dispatch { message } => {
            assert!(message.contains("killed"), "unexpected message: {message}")
        }
        other => panic!("expected a dispatch error, got {other:?}"),
    }

    // Drain settles the remaining in-flight tickets (including the dropped
    // one's cell) and reports the first failure instead of swallowing it.
    let drain_err = session.drain().expect_err("drain surfaces the failure");
    assert!(!drain_err.is_shed());
    assert_eq!(session.in_flight(), 0);

    // A dead worker refuses later submissions instead of hanging them.
    let late = session
        .submit(Txn::new(4).write(6, 1).commit())
        .expect("the mailbox is still open");
    assert!(late.wait().is_err());

    let report = scheduler.shutdown();
    assert!(
        report.final_rows.iter().all(|&v| v == 0),
        "a worker killed before scheduling anything must execute nothing"
    );
}

/// Killing one worker of a two-shard fleet leaves the other shard fully
/// serviceable: transactions homed on the live shard commit, transactions
/// homed on the dead shard fail with the typed refusal, and — because the
/// router reclaims a complete transaction's homes entry at routing time —
/// the shutdown report shows zero leaked homes.
#[test]
fn killed_shard_worker_spares_the_live_shard_and_leaks_no_homes() {
    let scheduler = builder()
        .shards(2)
        .chaos(FaultPlan::new().inject(Hook::WorkerRound { shard: 1 }, 0, Fault::Kill))
        .build()
        .expect("fleet starts");
    let mut session = scheduler.connect();

    let live: Vec<i64> = (0..TABLE_ROWS as i64)
        .filter(|&o| shard_of(o, 2) == 0)
        .take(8)
        .collect();
    let dead: Vec<i64> = (0..TABLE_ROWS as i64)
        .filter(|&o| shard_of(o, 2) == 1)
        .take(8)
        .collect();

    let mut ta = 0u64;
    let mut live_tickets = Vec::new();
    let mut dead_tickets = Vec::new();
    for (&l, &d) in live.iter().zip(&dead) {
        ta += 1;
        live_tickets.push(
            session
                .submit(Txn::new(ta).write(l, 1).commit())
                .expect("live-shard submission routes"),
        );
        ta += 1;
        dead_tickets.push(
            session
                .submit(Txn::new(ta).write(d, 1).commit())
                .expect("dead-shard submission routes"),
        );
    }

    for ticket in live_tickets {
        ticket
            .wait()
            .expect("the live shard keeps committing after its sibling dies");
    }
    for ticket in dead_tickets {
        let err = ticket.wait().expect_err("the dead shard refuses");
        match &err {
            SchedError::Dispatch { message } => {
                assert!(message.contains("killed"), "unexpected message: {message}")
            }
            other => panic!("expected a dispatch error, got {other:?}"),
        }
    }

    // Drain re-reports the dead shard's failures (already observed above)
    // rather than pretending the session finished clean.
    assert!(session.drain().is_err());
    assert_eq!(session.in_flight(), 0);
    let report = scheduler.shutdown();
    let detail = report.sharded.expect("sharded detail");
    assert_eq!(
        detail.unreclaimed_homes, 0,
        "refused transactions must not leak routing state"
    );
    // The live shard's writes landed; the dead shard's never executed.
    for &o in &live {
        assert_eq!(report.final_rows[o as usize], 1);
    }
    for &o in &dead {
        assert_eq!(report.final_rows[o as usize], 0);
    }
}

/// Killing a two-phase participant mid-handshake: a `Kill` at the
/// `LanePrepare` hook takes down shard 1 right as its prepare lands,
/// while shard 0 grants (or has granted) its hold.  The escalation must
/// fail with the typed "killed" dispatch error, the decider must back
/// out of the shards that hold for it (later shard-0
/// writers to the very object the dead escalation touched still commit),
/// and shutdown must show zero leaked homes entries.
#[test]
fn killed_prepare_participant_fails_typed_and_releases_the_initiator() {
    let scheduler = builder()
        .shards(2)
        .chaos(FaultPlan::new().inject(Hook::LanePrepare { shard: 1 }, 0, Fault::Kill))
        .build()
        .expect("fleet starts");
    let mut session = scheduler.connect();

    let object_on = |shard: usize| -> i64 {
        (0..TABLE_ROWS as i64)
            .find(|&o| shard_of(o, 2) == shard)
            .expect("both shards own objects")
    };
    let (a, b) = (object_on(0), object_on(1));

    // Warm both shards with committed local traffic first, so the kill
    // provably lands mid-handshake rather than at startup.
    session
        .submit(Txn::new(1).write(a, 1).commit())
        .expect("shard-0 warmup submits")
        .wait()
        .expect("shard-0 warmup commits");
    session
        .submit(Txn::new(2).write(b, 1).commit())
        .expect("shard-1 warmup submits")
        .wait()
        .expect("shard-1 warmup commits");

    // The spanning transaction escalates.  Shard 0 grants and holds;
    // shard 1 fires the hook on its prepare, dies and votes the typed
    // error; whichever of the two votes last must release shard 0.
    let spanning = session
        .submit(Txn::new(3).write(a, 99).write(b, 99).commit())
        .expect("cross-shard submission routes");
    let err = spanning
        .wait()
        .expect_err("a dead participant fails the escalation");
    match &err {
        SchedError::Dispatch { message } => {
            assert!(message.contains("killed"), "unexpected message: {message}")
        }
        other => panic!("expected a dispatch error, got {other:?}"),
    }

    // Release proof: the surviving shard keeps committing — on the *same*
    // object the failed escalation prepared — so neither the 2pc hold nor
    // any qualification lock survived the back-out.
    for ta in 10..14u64 {
        session
            .submit(Txn::new(ta).write(a, ta as i64).commit())
            .expect("post-failure shard-0 submission routes")
            .wait()
            .expect("shard 0 commits after the initiator backed out");
    }

    // Drain re-reports the escalation failure already observed above.
    assert!(session.drain().is_err());
    assert_eq!(session.in_flight(), 0);

    let report = scheduler.shutdown();
    let detail = report.sharded.expect("sharded detail");
    assert_eq!(detail.escalation.escalations, 1);
    assert_eq!(
        detail.escalation.failed, 1,
        "the kill fails exactly one escalation"
    );
    assert_eq!(
        detail.unreclaimed_homes, 0,
        "a failed escalation must not leak routing state"
    );
    // Shard 0's post-failure writers landed; the dead escalation's write
    // never executed anywhere.
    assert_eq!(report.final_rows[a as usize], 13);
    assert_eq!(report.final_rows[b as usize], 1);
}

/// Killing a participant between its granted vote and its commit: a `Kill`
/// at `LaneCommit` takes the victim down as it is about to execute its
/// sub-batch.  A `Stall` on shard 1's prepare makes shard 1 the last voter
/// — the decider — so victim 0 dies as the decider's *sibling* (on the
/// `Commit` message) and victim 1 as the decider itself.  Either way the
/// escalation fails typed, the survivor keeps the slice it executed, every
/// hold is released (the survivor goes on committing on the very object
/// the escalation wrote) and no homes entry leaks.
#[test]
fn killed_commit_participant_fails_typed_and_releases_every_hold() {
    for victim in 0..2usize {
        let scheduler = builder()
            .shards(2)
            .chaos(
                FaultPlan::new()
                    .inject(
                        Hook::LanePrepare { shard: 1 },
                        0,
                        Fault::Stall { millis: 30 },
                    )
                    .inject(Hook::LaneCommit { shard: victim }, 0, Fault::Kill),
            )
            .build()
            .expect("fleet starts");
        let mut session = scheduler.connect();
        let object_on = |shard: usize| -> i64 {
            (0..TABLE_ROWS as i64)
                .find(|&o| shard_of(o, 2) == shard)
                .expect("both shards own objects")
        };
        let objects = [object_on(0), object_on(1)];
        let survivor = 1 - victim;

        let err = session
            .submit(
                Txn::new(1)
                    .write(objects[0], 99)
                    .write(objects[1], 99)
                    .commit(),
            )
            .expect("cross-shard submission routes")
            .wait()
            .expect_err("a participant dying before its commit fails the escalation");
        match &err {
            SchedError::Dispatch { message } => {
                assert!(message.contains("killed"), "unexpected message: {message}")
            }
            other => panic!("expected a dispatch error, got {other:?}"),
        }

        for ta in 10..14u64 {
            session
                .submit(Txn::new(ta).write(objects[survivor], ta as i64).commit())
                .expect("post-failure submission routes")
                .wait()
                .expect("the survivor commits after the handshake backed out");
        }
        assert!(session.drain().is_err());

        let report = scheduler.shutdown();
        let detail = report.sharded.expect("sharded detail");
        assert_eq!(detail.escalation.escalations, 1);
        assert_eq!(detail.escalation.failed, 1, "victim {victim}");
        assert_eq!(detail.unreclaimed_homes, 0, "victim {victim}");
        // The victim never executed its slice; the survivor's landed before
        // its later local writers.
        assert_eq!(report.final_rows[objects[victim] as usize], 0);
        assert_eq!(report.final_rows[objects[survivor] as usize], 13);
    }
}

/// The passthrough forward thread honours `Kill` the same way: queued and
/// later transactions fail with the typed error, nothing hangs, and the
/// worker still answers shutdown.
#[test]
fn killed_passthrough_worker_refuses_cleanly() {
    let scheduler = builder()
        .passthrough()
        .chaos(FaultPlan::new().inject(Hook::WorkerRound { shard: 0 }, 0, Fault::Kill))
        .build()
        .expect("deployment starts");
    let mut session = scheduler.connect();

    let ticket = session
        .submit(Txn::new(1).write(2, 1).commit())
        .expect("submission is accepted");
    assert!(ticket.wait().is_err());
    // Drain re-reports the cached failure — an already-waited error ticket
    // is never silently forgotten.
    assert!(session.drain().is_err());

    let report = scheduler.shutdown();
    assert!(report.final_rows.iter().all(|&v| v == 0));
}

// ---------------------------------------------------------------------------
// Genuine native deadlock on the passthrough backend
// ---------------------------------------------------------------------------

/// Two transactions that both hold a shared lock on the same row and then
/// both request the exclusive upgrade deadlock *natively* — no scheduler
/// rule is in the way on the passthrough backend.  This needs interleaved
/// partial submissions: complete-batch workloads execute whole
/// transactions in arrival order and can never reach this state (which is
/// why the deadlock-storm matrix cell shows zero passthrough aborts).
/// Exactly one victim is aborted with the typed error; the survivor
/// commits.
#[test]
fn interleaved_lock_upgrades_deadlock_natively_on_passthrough() {
    let scheduler = builder().passthrough().build().expect("deployment starts");
    let mut session = scheduler.connect();
    let key = 7i64;

    // Both transactions take their shared lock first (partial batches,
    // no terminal yet).
    session
        .submit(Txn::new(1).read(key))
        .expect("T1 submits")
        .wait()
        .expect("T1's read executes");
    session
        .submit(Txn::new(2).read(key))
        .expect("T2 submits")
        .wait()
        .expect("T2's read executes");

    // Now both request the upgrade: a native lock cycle the server must
    // break by aborting a victim.
    let t1 = session
        .submit(Txn::resume(1, 1).write(key, 1).commit())
        .expect("T1's upgrade submits");
    let t2 = session
        .submit(Txn::resume(2, 1).write(key, 2).commit())
        .expect("T2's upgrade submits");

    let outcomes = [t1.wait(), t2.wait()];
    let aborted: Vec<&SchedError> = outcomes.iter().filter_map(|o| o.as_ref().err()).collect();
    assert_eq!(
        aborted.len(),
        1,
        "exactly one upgrade is the deadlock victim: {outcomes:?}"
    );
    match aborted[0] {
        SchedError::Dispatch { message } => assert!(
            message.contains("native deadlock victim"),
            "unexpected abort message: {message}"
        ),
        other => panic!("expected a dispatch abort, got {other:?}"),
    }

    // Drain re-reports the victim's abort (already observed above).
    assert!(session.drain().is_err());
    let report = scheduler.shutdown();
    // The survivor's write is the row's final state.
    let survivor = report.final_rows[key as usize];
    assert!(
        survivor == 1 || survivor == 2,
        "the surviving upgrade committed its write, got {survivor}"
    );
    assert_eq!(report.dispatch.aborts, 1);
}

// ---------------------------------------------------------------------------
// Satellite: shed-policy invariants
// ---------------------------------------------------------------------------

/// Deterministic companion to the property below: with a backlog past the
/// watermark, a free-tier opening is shed (born resolved, not in flight,
/// counted once in the tier report), while a premium opening and a
/// continuation of an admitted transaction both pass.
#[test]
fn shed_tickets_are_born_resolved_and_resolve_exactly_once() {
    let scheduler = builder().unsharded().build().expect("deployment starts");
    let mut session = scheduler.connect();

    // A held lock (no terminal) turns later writers into a backlog.
    let blocker = 1u64;
    session
        .submit(Txn::new(blocker).write(0, 9))
        .expect("lock holder submits")
        .wait()
        .expect("lock holder executes");
    // An admitted low-tier transaction whose continuation must never shed.
    let open_free = 2u64;
    session
        .submit(Txn::new(open_free).write(1, 1).with_sla(sla(1, "free")))
        .expect("low-tier opening submits")
        .wait()
        .expect("it executes before any policy engages");

    let mut pending = Vec::new();
    for ta in 10..18u64 {
        pending.push(
            session
                .submit(Txn::new(ta).write(0, 1).commit())
                .expect("blocked traffic submits"),
        );
    }
    // Let the worker fold the backlog into its depth gauge.
    std::thread::sleep(Duration::from_millis(10));
    assert!(scheduler.queue_depth() >= 2);

    scheduler.set_shed_policy(Some(session::ShedPolicy::new(2, 3)));

    // A free-tier opening past the watermark: shed, born resolved, never
    // registered in flight.
    let in_flight_before = session.in_flight();
    let shed = session
        .submit(Txn::new(30).write(0, 1).commit().with_sla(sla(1, "free")))
        .expect("the shed path still returns a ticket");
    assert_eq!(session.in_flight(), in_flight_before);
    match shed.wait() {
        Err(SchedError::Shed { class }) => assert_eq!(class, "free"),
        other => panic!("expected the typed shed outcome, got {other:?}"),
    }

    // A premium opening is protected and admitted despite the backlog.
    let premium = session
        .submit(
            Txn::new(31)
                .write(0, 1)
                .commit()
                .with_sla(sla(3, "premium")),
        )
        .expect("premium submits");
    // A continuation of the admitted free transaction always passes.
    let continuation = session
        .submit(Txn::resume(open_free, 1).commit().with_sla(sla(1, "free")))
        .expect("continuation submits");

    // Release the blocker; everything admitted drains.
    session
        .submit(Txn::resume(blocker, 1).commit())
        .expect("lock holder commits")
        .wait()
        .expect("commit executes");
    for ticket in pending {
        ticket.wait().expect("blocked traffic drains");
    }
    premium.wait().expect("premium commits under shedding");
    continuation.wait().expect("continuations are never shed");
    session.drain().expect("session drains clean");

    let report = scheduler.shutdown();
    let free = report
        .tiers
        .iter()
        .find(|t| t.class == "free")
        .expect("free tier tracked");
    assert_eq!(
        free.shed, 1,
        "the shed resolved (and was counted) exactly once"
    );
    let premium_tier = report
        .tiers
        .iter()
        .find(|t| t.class == "premium")
        .expect("premium tier tracked");
    assert_eq!(premium_tier.shed, 0);
}

/// One planned client submission of the shed property.
#[derive(Debug, Clone, Copy)]
enum ClientOp {
    /// Complete single-batch transaction of the given tier.
    Open { tier: u8 },
    /// Open a free-tier transaction without a terminal, then commit it via
    /// a separate continuation submission later in the stream.
    SplitFree,
}

fn ops() -> impl Strategy<Value = Vec<ClientOp>> {
    let op = (0..4u8).prop_map(|kind| match kind {
        0 => ClientOp::Open { tier: 3 },
        1 => ClientOp::Open { tier: 2 },
        2 => ClientOp::Open { tier: 1 },
        _ => ClientOp::SplitFree,
    });
    proptest::collection::vec(op, 4..24)
}

fn flips() -> impl Strategy<Value = Vec<(u64, bool, usize, i64)>> {
    // protect_priority is capped at the premium tier (3), mirroring every
    // policy the product installs: the invariant under test is that *no
    // such policy* can shed a premium opening or a continuation.
    proptest::collection::vec(
        (0..24u64, 0..2u8, 0..4usize, 1..4i64)
            .prop_map(|(at, enable, watermark, protect)| (at, enable == 1, watermark, protect)),
        0..4,
    )
}

fn tier_meta(tier: u8) -> SlaMeta {
    match tier {
        3 => sla(3, "premium"),
        2 => sla(2, "standard"),
        _ => sla(1, "free"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under an arbitrary schedule of mid-run `ShedFlip` faults and an
    /// arbitrary interleaving of tiered openings and split free-tier
    /// transactions — all fighting over one locked row so the queue depth
    /// really crosses watermarks — the shed policy never sheds a premium
    /// opening, never sheds a continuation of an admitted transaction,
    /// and every `Shed` ticket resolves exactly once (tier accounting
    /// matches the observed outcomes; nothing is left in flight).
    #[test]
    fn random_fault_schedules_never_shed_continuations_or_premium_openings(
        (ops, flips, stall) in (ops(), flips(), 0..3u64)
    ) {
        let mut plan = FaultPlan::new();
        for &(at_visit, enable, queue_watermark, protect_priority) in &flips {
            plan = plan.inject(
                Hook::SessionSubmit,
                at_visit,
                Fault::ShedFlip { enable, queue_watermark, protect_priority },
            );
        }
        if stall > 0 {
            plan = plan.inject(Hook::WorkerRound { shard: 0 }, 2, Fault::Stall { millis: stall });
        }
        let scheduler = builder().unsharded().chaos(plan).build().expect("deployment starts");
        let mut session = scheduler.connect();

        // The contended row: a held lock turns every later writer into
        // backlog, so watermark crossings actually happen.
        let blocker = 1u64;
        session
            .submit(Txn::new(blocker).write(0, 9))
            .expect("lock holder submits")
            .wait()
            .expect("lock holder executes");

        let mut ta = 100u64;
        // (ticket, was premium opening, was continuation)
        let mut tracked = Vec::new();
        let mut splits: Vec<u64> = Vec::new();
        for &op in &ops {
            ta += 1;
            match op {
                ClientOp::Open { tier } => {
                    let ticket = session
                        .submit(Txn::new(ta).write(0, 1).commit().with_sla(tier_meta(tier)))
                        .expect("openings submit");
                    tracked.push((ticket, tier == 3, false));
                }
                ClientOp::SplitFree => {
                    let open_before = session.open_transactions();
                    let ticket = session
                        .submit(Txn::new(ta).write(0, 1).with_sla(tier_meta(1)))
                        .expect("split opening submits");
                    // Only an *admitted* opening makes the later terminal a
                    // continuation; a shed opening never opened the txn.
                    if session.open_transactions() > open_before {
                        splits.push(ta);
                    }
                    tracked.push((ticket, false, false));
                }
            }
        }
        for &split in &splits {
            let ticket = session
                .submit(Txn::resume(split, 1).commit().with_sla(tier_meta(1)))
                .expect("continuations submit");
            tracked.push((ticket, false, true));
        }

        // Release the blocker so everything admitted can drain.
        session
            .submit(Txn::resume(blocker, 1).commit())
            .expect("lock holder commits")
            .wait()
            .expect("commit executes");

        let mut observed_shed = 0u64;
        for (ticket, premium_opening, continuation) in tracked {
            match ticket.wait() {
                Err(SchedError::Shed { .. }) => {
                    observed_shed += 1;
                    prop_assert!(!premium_opening, "a premium opening was shed");
                    prop_assert!(!continuation, "a continuation was shed");
                }
                Err(other) => prop_assert!(false, "unexpected failure: {other:?}"),
                Ok(_) => {}
            }
        }
        session.drain().expect("session drains clean");
        prop_assert_eq!(session.in_flight(), 0);

        let report = scheduler.shutdown();
        let tier_shed: u64 = report.tiers.iter().map(|t| t.shed).sum();
        // Exactly-once resolution: every shed the registry counted was
        // observed by exactly one ticket wait, and vice versa.
        prop_assert_eq!(tier_shed, observed_shed);
        let premium_shed: u64 = report
            .tiers
            .iter()
            .filter(|t| t.class == "premium")
            .map(|t| t.shed)
            .sum();
        prop_assert_eq!(premium_shed, 0);
    }
}
