//! # shard — the sharded scheduling subsystem
//!
//! The paper's scheduler evaluates one declarative rule over a single global
//! pending-request relation each round.  That is elegant and correct, but
//! the rule's cost grows with the size of the relations, and one scheduler
//! thread is a hard ceiling.  This crate partitions the problem the way
//! cluster schedulers partition hosts: by **object**.
//!
//! ```text
//!                         ┌─ shard 0 ─────────────────────────────────┐
//!                  ┌────► │ batch → requests₀/history₀ → rule → exec  │
//!   clients ──► ShardRouter (hash of object footprint, per-shard      │
//!                  │        submission buffers + completion hub)      │
//!                  ├────► │ shard 1: …                                │
//!                  ├────► │ shard N-1: …                              │
//!                  └────► │ escalation lane (two-phase, concurrent):  │
//!                         │   PREPARE touched shards (each qualifies  │
//!                         │   its local slice, votes, holds) →        │
//!                         │   COMMIT on every voter | RELEASE         │
//!                         └───────────────────────────────────────────┘
//! ```
//!
//! * [`ShardRouter`] hash-partitions incoming transactions by their object
//!   footprint (`declsched::footprint` / `declsched::shard_of`).  A
//!   transaction whose footprint maps to one shard goes into that shard's
//!   **submission buffer**; buffers are flushed as one channel message per
//!   shard on a configurable latency bound
//!   (`SchedulerConfig::batch_flush_micros`), so a pipelined client costs
//!   one synchronization per batch, not per transaction.  Completions flow
//!   back the same way, through a shared completion hub the workers publish
//!   into once per round.
//! * Each shard worker owns a full private copy of the paper's Figure-1
//!   pipeline: incoming queue, `requests` (pending) relation, `history`
//!   relation, the declarative rule, and a dispatcher with its own engine.
//!   Per-object serialization is preserved because an object has exactly one
//!   home shard.
//! * Transactions whose footprint **spans** shards take a **two-phase
//!   handshake** that involves only the touched shards and that they drive
//!   themselves — there is no lane thread: the submitting client posts each
//!   one a *prepare*, the shard qualifies its slice of the footprint against
//!   its local `history` (locks are per-object and each object has exactly
//!   one home, so the conjunction of per-shard slice admissions is exactly
//!   the union-relation admission the unsharded scheduler would compute),
//!   votes, and holds its round loop; the last voter *commits* on every
//!   voter on unanimous grant, otherwise it *releases* them and the denying
//!   shard's next lock release re-arms the handshake; the last finisher
//!   resolves the ticket.  Untouched shards never stop, and escalations
//!   over **disjoint shard sets execute concurrently** (FIFO admission
//!   without overtaking keeps the outcome equal to serialized execution).
//!   Custom datalog protocols — whose rules may not decompose by object —
//!   still evaluate over the union of the touched shards' history
//!   snapshots, collected in the same prepare round-trip.
//! * [`ShardedMetrics`] merges per-shard `SchedulerMetrics` and dispatch
//!   totals with routing counters (throughput, fleet-wide in-flight peak,
//!   cross-shard escalation rate, concurrent-escalation peak).
//! * A fleet of **one** shard is the paper's single global scheduler: it
//!   has nothing to route, so the router posts each transaction straight
//!   onto the worker's mailbox and starts no flusher.  The `session`
//!   façade's `.unsharded()` deployment is exactly this.
//!
//! The benchmark package (`benchmark/`) measures both paths on four shards:
//! `sharded4_local_d32` sends single-key transactions that never leave
//! their home shard, and `sharded4_cross20_d32` makes 20 % of its two-key
//! transactions span two shards, so each of those costs one two-phase
//! handshake over the touched shards.
//!
//! Direct use of the fleet (client code normally goes through the
//! `session` façade with `.shards(n)` instead):
//!
//! ```
//! use declsched::{Protocol, ProtocolKind, Request, SchedulerConfig, TriggerPolicy};
//! use shard::{ShardConfig, ShardRouter};
//!
//! let config = ShardConfig::new(2, Protocol::algebra(ProtocolKind::Ss2pl))
//!     .with_scheduler(SchedulerConfig {
//!         trigger: TriggerPolicy::Hybrid { interval_ms: 1, threshold: 4 },
//!         ..SchedulerConfig::default()
//!     })
//!     .with_table("bench", 1_000);
//! let router = ShardRouter::start(config).unwrap();
//!
//! // One cloneable handle per client worker.
//! let client = router.control();
//! client
//!     .submit_transaction(vec![Request::write(0, 1, 0, 7), Request::commit(0, 1, 1)])
//!     .unwrap()
//!     .wait()
//!     .unwrap();
//!
//! let report = router.shutdown();
//! assert_eq!(report.metrics.dispatch.commits, 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod config;
mod escalation;
mod hub;
mod metrics;
mod router;
mod worker;

pub use config::ShardConfig;
pub use metrics::{EscalationStats, RouterSnapshot, ShardReport, ShardedMetrics};
pub use router::{ControlHandle, RehomeOutcome, ShardRouter, ShardedReport, TxnTicket};

#[cfg(test)]
mod tests {
    use super::*;
    use declsched::{shard_of, Protocol, ProtocolKind, Request, SchedulerConfig, TriggerPolicy};

    fn config(shards: usize) -> ShardConfig {
        ShardConfig::new(shards, Protocol::algebra(ProtocolKind::Ss2pl))
            .with_scheduler(SchedulerConfig {
                trigger: TriggerPolicy::Hybrid {
                    interval_ms: 1,
                    threshold: 4,
                },
                ..SchedulerConfig::default()
            })
            .with_table("bench", 1_000)
    }

    /// Pick one object per shard so tests can aim transactions precisely.
    fn object_on_shard(shard: usize, shards: usize) -> i64 {
        (0..1_000i64)
            .find(|&o| shard_of(o, shards) == shard)
            .expect("every shard owns some object")
    }

    fn exec(router: &ShardRouter, requests: Vec<Request>) -> declsched::SchedResult<()> {
        router.submit_transaction(requests)?.wait()
    }

    fn txn(ta: u64, objects: &[i64], commit: bool) -> Vec<Request> {
        let mut requests: Vec<Request> = objects
            .iter()
            .enumerate()
            .map(|(i, &object)| Request::write(0, ta, i as u32, object))
            .collect();
        if commit {
            requests.push(Request::commit(0, ta, objects.len() as u32));
        }
        requests
    }

    #[test]
    fn single_shard_transactions_route_and_execute() {
        let router = ShardRouter::start(config(4)).unwrap();
        let shards = router.shards();
        for ta in 0..8u64 {
            let object = object_on_shard((ta % 4) as usize, shards);
            exec(&router, txn(ta + 1, &[object], true)).unwrap();
        }
        let report = router.shutdown();
        assert_eq!(report.metrics.transactions, 8);
        assert_eq!(report.metrics.cross_shard_transactions, 0);
        assert_eq!(report.metrics.dispatch.writes, 8);
        assert_eq!(report.metrics.dispatch.commits, 8);
        // Every shard executed its two transactions locally.
        for shard in &report.shards {
            assert_eq!(shard.dispatch.writes, 2, "shard {}", shard.shard);
        }
    }

    #[test]
    fn cross_shard_transaction_escalates_and_commits_on_every_touched_shard() {
        let router = ShardRouter::start(config(4)).unwrap();
        let shards = router.shards();
        let a = object_on_shard(0, shards);
        let b = object_on_shard(1, shards);
        exec(&router, txn(7, &[a, b], true)).unwrap();
        let report = router.shutdown();
        assert_eq!(report.metrics.cross_shard_transactions, 1);
        assert_eq!(report.metrics.escalation.escalations, 1);
        assert_eq!(report.metrics.escalation.failed, 0);
        assert_eq!(report.metrics.escalation.escalated_requests, 3);
        assert_eq!(report.metrics.dispatch.writes, 2);
        // One commit per touched engine.
        assert_eq!(report.metrics.dispatch.commits, 2);
        assert_eq!(report.shards[0].dispatch.writes, 1);
        assert_eq!(report.shards[1].dispatch.writes, 1);
        assert!((report.metrics.cross_shard_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn incremental_cross_shard_growth_is_escalated_with_prior_homes_frozen() {
        let router = ShardRouter::start(config(2)).unwrap();
        let shards = router.shards();
        let a = object_on_shard(0, shards);
        let b = object_on_shard(1, shards);
        // T1 starts on shard 0 …
        exec(&router, txn(1, &[a], false)).unwrap();
        // … then grows a footprint on shard 1: the router must escalate and
        // freeze shard 0 too (T1's own lock there must not block it).
        exec(&router, vec![Request::write(0, 1, 5, b)]).unwrap();
        // Terminal-only submission for a multi-home transaction commits on
        // every touched engine through the lane.
        exec(&router, vec![Request::commit(0, 1, 9)]).unwrap();
        let report = router.shutdown();
        assert_eq!(report.metrics.cross_shard_transactions, 2);
        assert_eq!(report.metrics.escalation.failed, 0);
        assert_eq!(report.metrics.dispatch.writes, 2);
        assert_eq!(report.metrics.dispatch.commits, 2);
    }

    #[test]
    fn pipelined_same_transaction_escalation_waits_for_earlier_submission() {
        let router = ShardRouter::start(config(2)).unwrap();
        let shards = router.shards();
        let a = object_on_shard(0, shards);
        let b = object_on_shard(1, shards);
        // Submit T1's first statement and, *without waiting*, a spanning
        // continuation carrying the terminal.  The lane must not replicate
        // the commit to shard 0 while write(a) still sits in its queue.
        let first = router
            .submit_transaction(vec![Request::write(0, 1, 0, a)])
            .unwrap();
        let second = router
            .submit_transaction(vec![Request::write(0, 1, 1, b), Request::commit(0, 1, 2)])
            .unwrap();
        first.wait().unwrap();
        second.wait().unwrap();
        let report = router.shutdown();
        assert_eq!(report.metrics.escalation.failed, 0);
        assert_eq!(report.metrics.dispatch.writes, 2);
        // Intra-transaction order on shard 0: the write strictly before the
        // escalated commit finished the transaction there.
        let shard0_intras: Vec<u32> = report.shards[0]
            .executed_log
            .iter()
            .filter(|r| r.ta == 1)
            .map(|r| r.intra)
            .collect();
        let mut sorted = shard0_intras.clone();
        sorted.sort_unstable();
        assert_eq!(shard0_intras, sorted, "intra order violated on shard 0");
    }

    #[test]
    fn duplicate_request_keys_are_rejected_without_poisoning_the_worker() {
        // A trigger that never fires keeps submissions queued, so the
        // in-flight duplicate check below is deterministic (nothing executes
        // until the shutdown drain).
        let cfg = ShardConfig::new(2, Protocol::algebra(ProtocolKind::Ss2pl))
            .with_scheduler(SchedulerConfig {
                trigger: TriggerPolicy::FillLevel { threshold: 1_000 },
                ..SchedulerConfig::default()
            })
            .with_table("bench", 1_000);
        let router = ShardRouter::start(cfg).unwrap();
        let shards = router.shards();
        let a = object_on_shard(0, shards);
        let b = object_on_shard(1, shards);
        // Duplicate (ta, intra) within one batch.
        let err = exec(
            &router,
            vec![
                Request::write(0, 1, 0, a),
                Request::write(0, 1, 0, a),
                Request::commit(0, 1, 1),
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate request key"));
        // Duplicate against an in-flight (still queued) ticket.
        let held = router
            .submit_transaction(vec![Request::write(0, 2, 0, a), Request::commit(0, 2, 1)])
            .unwrap();
        let err = exec(&router, vec![Request::write(0, 2, 0, a)]).unwrap_err();
        assert!(err.to_string().contains("duplicate request key"));
        // The worker is still healthy: another transaction is accepted and
        // the shutdown drain executes both (a poisoned ticket table would
        // panic the worker and fail the join).
        let ok = router.submit_transaction(txn(3, &[b], true)).unwrap();
        let report = router.shutdown();
        held.wait().unwrap();
        ok.wait().unwrap();
        assert_eq!(report.metrics.dispatch.writes, 2);
        assert_eq!(report.metrics.dispatch.commits, 2);
    }

    #[test]
    fn cloned_handles_serve_concurrent_clients() {
        let router = ShardRouter::start(config(4)).unwrap();
        let mut joins = Vec::new();
        for ta in 1..=8u64 {
            let client = router.control();
            joins.push(std::thread::spawn(move || {
                let object = object_on_shard((ta % 4) as usize, 4);
                client
                    .submit_transaction(vec![
                        Request::write(0, ta, 0, object),
                        Request::commit(0, ta, 1),
                    ])
                    .unwrap()
                    .wait()
                    .unwrap();
            }));
        }
        for join in joins {
            join.join().unwrap();
        }
        let report = router.shutdown();
        assert_eq!(report.metrics.dispatch.writes, 8);
        assert_eq!(report.metrics.dispatch.commits, 8);
        assert_eq!(report.metrics.transactions, 8);
        assert!(report.metrics.merged.rounds >= 1);
    }

    /// A statement arriving after its transaction committed is refused by
    /// the engine.  With pruning on, the history has forgotten the commit by
    /// then, so the rule grants the statement a lock; the refusal must not
    /// leave that lock behind, or the next writer of the object waits
    /// forever (here: until the shutdown drain fails it).  Prune on must
    /// behave exactly like prune off.
    #[test]
    fn a_late_statement_of_a_committed_transaction_leaves_no_lock_behind() {
        for prune_history in [false, true] {
            let cfg = ShardConfig::new(1, Protocol::algebra(ProtocolKind::Ss2pl))
                .with_scheduler(SchedulerConfig {
                    trigger: TriggerPolicy::Always,
                    prune_history,
                    ..SchedulerConfig::default()
                })
                .with_table("bench", 1_000);
            let router = ShardRouter::start(cfg).unwrap();
            exec(&router, txn(1, &[5], true)).unwrap();
            let late = exec(&router, vec![Request::write(0, 1, 2, 5)]).unwrap_err();
            assert!(
                late.to_string().contains("not active"),
                "prune={prune_history}: {late}"
            );
            let next = router.submit_transaction(txn(2, &[5], true)).unwrap();
            let report = router.shutdown();
            assert_eq!(next.wait(), Ok(()), "prune={prune_history}");
            assert_eq!(report.metrics.dispatch.commits, 2, "prune={prune_history}");
        }
    }

    #[test]
    fn one_shard_degenerates_to_the_global_scheduler() {
        let router = ShardRouter::start(config(1)).unwrap();
        exec(&router, txn(1, &[3, 900, 42], true)).unwrap();
        let report = router.shutdown();
        // Everything is one shard, so nothing can cross shards.
        assert_eq!(report.metrics.cross_shard_transactions, 0);
        assert_eq!(report.metrics.escalation.escalations, 0);
        assert_eq!(report.metrics.dispatch.writes, 3);
    }
}
