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
//!                  ┌────► │ mail → requests₀/history₀ → rule → exec   │
//!   clients ──► ShardRouter (hash of object footprint, one post per   │
//!                  │        transaction + completion hub)             │
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
//!   transaction whose footprint maps to one shard is posted straight onto
//!   that shard's **mailbox** by the submitting thread; the worker takes its
//!   whole mailbox before each step, so batching happens on the receiving
//!   side and nothing waits on a timer.  Completions flow back through a
//!   shared completion hub the workers publish into once per step.
//! * Each shard worker owns a full private copy of the paper's Figure-1
//!   pipeline: incoming queue, `requests` (pending) relation, `history`
//!   relation, the declarative rule, and a dispatcher with its own engine.
//!   Per-object serialization is preserved because an object has exactly one
//!   home shard.  The pipeline and the escalation lane are I/O-free
//!   handlers.  The fleet's n shard cores share m = min(n, available
//!   cores) driver threads, shard i on driver i mod m: a driver blocks
//!   until mail arrives or its cores' earliest trigger deadline passes,
//!   a post between two cores of one driver is a push onto its local
//!   queue, and nothing polls.  A chaos `Stall` on one core pauses every
//!   core of its driver.
//! * Transactions whose footprint **spans** shards take a **two-phase
//!   handshake** over only the touched shards, which drive it themselves
//!   (the `escalation` module): each qualifies its slice against its local
//!   `history` under the fleet's one protocol ([`ShardConfig::protocol`],
//!   the rule its own rounds apply) and votes, the last voter commits or
//!   releases them all, and the last finisher resolves the ticket.  Untouched shards never stop,
//!   and escalations over **disjoint shard sets execute concurrently**.
//! * [`ShardedMetrics`] merges per-shard `SchedulerMetrics` and dispatch
//!   totals with routing counters (throughput, fleet-wide in-flight peak,
//!   cross-shard escalation rate, concurrent-escalation peak).
//! * A fleet of **one** shard is the paper's single global scheduler: it
//!   has nothing to route, so the router posts each transaction onto the
//!   worker's mailbox without computing a footprint.  The `session`
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
//! let client = router.handle();
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
mod driver;
mod escalation;
mod hub;
mod metrics;
mod router;
#[cfg(test)]
mod testkit;
mod worker;

pub use config::ShardConfig;
pub use metrics::{EscalationStats, RouterSnapshot, ShardReport, ShardedMetrics};
pub use router::{FleetHandle, ShardRouter, ShardedReport, TxnTicket};

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::RecvTimeoutError;
    use declsched::{shard_of, Protocol, ProtocolKind, Request, SchedulerConfig, TriggerPolicy};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

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
            let client = router.handle();
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

    /// Run `body` on its own thread and abort the process if it does not
    /// finish within `seconds`: a hung fleet would never be joined.
    pub(crate) fn within<T: Send>(seconds: u64, what: &str, body: impl FnOnce() -> T + Send) -> T {
        let (done_tx, done_rx) = crossbeam::channel::bounded(1);
        std::thread::scope(|scope| {
            scope.spawn(move || done_tx.send(body()));
            let deadline = Instant::now() + Duration::from_secs(seconds);
            match done_rx.recv_deadline(deadline) {
                Ok(value) => value,
                Err(RecvTimeoutError::Disconnected) => panic!("the watched body panicked"),
                Err(RecvTimeoutError::Timeout) => {
                    eprintln!("watchdog: {what}");
                    std::process::abort()
                }
            }
        })
    }

    /// A fleet on `drivers` driver threads, and the registry its counters
    /// register into.
    fn start_on(config: ShardConfig, drivers: usize) -> (ShardRouter, Arc<obs::Registry>) {
        let registry = Arc::new(obs::Registry::new());
        let sink = obs::TraceSink::disabled();
        let router = ShardRouter::start_on(config, drivers, sink, Arc::clone(&registry));
        (router.unwrap(), registry)
    }

    /// Passes run by client threads and by driver threads.
    fn passes(registry: &obs::Registry) -> (u64, u64) {
        let snapshot = registry.snapshot();
        (
            snapshot.counter("shard.caller_passes"),
            snapshot.counter("shard.driver_passes"),
        )
    }

    pub(crate) fn always(config: ShardConfig) -> ShardConfig {
        config.with_scheduler(SchedulerConfig {
            trigger: TriggerPolicy::Always,
            ..SchedulerConfig::default()
        })
    }

    /// A `.shards(4)` fleet starts one driver thread per core of the host,
    /// never more than there are shards.
    #[test]
    fn a_fleet_starts_one_driver_per_core_at_most_one_per_shard() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let router = ShardRouter::start(config(4)).unwrap();
        assert_eq!(router.driver_threads(), 4.min(cores));
        router.shutdown();
        let router = ShardRouter::start(config(1)).unwrap();
        assert_eq!(router.driver_threads(), 1);
        router.shutdown();
    }

    /// Four shard cores on one driver, then on two: the FIFO fleet test's
    /// contended stream (1 000 transactions, a fifth spanning two shards)
    /// on real threads, submitted by a client that keeps 32 in flight under
    /// the paper's `Hybrid` trigger, and again by a client that waits on
    /// each ticket before the next under `Always`, so that on one driver it
    /// runs the driver's passes itself.  On two drivers, shards 0 and 2
    /// share one and 1 and 3 the other, so the stream's two-shard pairs are
    /// co-resident and cross-driver both.  Every ticket resolves once and
    /// `Ok`, every commit lands once on each touched shard, strict 2PL
    /// holds on each shard, and no homes entry or hub residue is left.  A
    /// client runs passes only under `Always` on one driver.
    ///
    /// One client, because SS2PL orders conflicting pending requests by
    /// transaction id: clients whose ids reach a shard out of order can
    /// deadlock it (see `CHANGES.md`).
    #[test]
    fn shard_cores_sharing_drivers_commit_a_contended_stream_under_strict_2pl() {
        const DEPTH: usize = 32;
        let stream = testkit::stream();
        let pairs: Vec<(usize, usize)> = stream
            .iter()
            .filter_map(|requests| {
                let homes: Vec<usize> = requests[..2]
                    .iter()
                    .map(|r| shard_of(r.object, testkit::SHARDS))
                    .collect();
                (homes[0] != homes[1]).then_some((homes[0], homes[1]))
            })
            .collect();
        let co_resident = pairs.iter().filter(|(a, b)| a % 2 == b % 2).count();
        assert!(co_resident > 0 && co_resident < pairs.len(), "{pairs:?}");

        let runs = [(testkit::config(), DEPTH), (always(testkit::config()), 1)];
        for ((config, depth), drivers) in runs.iter().flat_map(|run| [(run, 1), (run, 2)]) {
            let caller_runs = config.scheduler.trigger == TriggerPolicy::Always && drivers == 1;
            let (router, registry) = start_on(config.clone(), drivers);
            assert_eq!(router.driver_threads(), drivers);
            within(120, "a fleet on shared drivers hung", || {
                let mut tickets = std::collections::VecDeque::new();
                for requests in &stream {
                    tickets.push_back(router.submit_transaction(requests.clone()).unwrap());
                    if tickets.len() == *depth {
                        let ticket = tickets.pop_front().unwrap();
                        assert_eq!(ticket.wait(), Ok(()), "{drivers} driver(s)");
                    }
                }
                for ticket in tickets {
                    assert_eq!(ticket.wait(), Ok(()), "{drivers} driver(s)");
                }
            });
            let hub = router.hub();
            let report = router.shutdown();
            assert_eq!(hub.residue(), 0, "{drivers} driver(s)");
            let metrics = &report.metrics;
            assert_eq!(metrics.transactions, testkit::TRANSACTIONS);
            assert_eq!(metrics.escalation.escalations, pairs.len() as u64);
            assert_eq!(metrics.escalation.failed, 0, "{drivers} driver(s)");
            assert_eq!(metrics.unreclaimed_homes, 0, "{drivers} driver(s)");
            let logs: Vec<&[Request]> = report.shards.iter().map(|s| &s.executed_log[..]).collect();
            testkit::check_logs(&stream, &logs);
            let (caller, _) = passes(&registry);
            assert_eq!(caller > 0, caller_runs, "{drivers} driver(s): {caller}");
        }
    }

    /// Caller passes lose no letter: four client threads race for the
    /// desks of a fleet of one shard on one driver, of four shards on one
    /// driver and of four shards on two, trigger `Always`.  Two clients
    /// wait on each ticket before the next and two keep three in flight;
    /// on one driver each runs passes whenever it finds the driver idle,
    /// and no submit takes two seconds: a client's turn at the desk is
    /// bounded, so it does not serve the others' traffic for as long as
    /// they send.  On two drivers no client runs a pass.  SS2PL, each client
    /// on its own rows: clients that share rows can reach a shard out of
    /// id order and deadlock SS2PL (see `CHANGES.md`).  Every ticket
    /// resolves once and `Ok`, every statement and commit executes once,
    /// strict 2PL holds on each shard, and no homes entry or hub residue is
    /// left.
    #[test]
    fn caller_passes_under_concurrent_clients_lose_no_letter() {
        const CLIENTS: u64 = 4;
        const PER_CLIENT: u64 = 400;
        const ROWS: i64 = 64;
        // Client c's transactions: ids c·PER_CLIENT + 1, … in order, two
        // statements on rows ≡ c (mod CLIENTS) and a commit.
        let transactions = |client: u64| -> Vec<Vec<Request>> {
            let mut state = 0x9e37_79b9_7f4a_7c15_u64 ^ client;
            let mut next = move |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            (1..=PER_CLIENT)
                .map(|i| {
                    let ta = client * PER_CLIENT + i;
                    let mut requests: Vec<Request> = (0..2)
                        .map(|intra| {
                            let row = (next(ROWS as u64 / CLIENTS) * CLIENTS + client) as i64;
                            if next(2) == 0 {
                                Request::read(0, ta, intra, row)
                            } else {
                                Request::write(0, ta, intra, row)
                            }
                        })
                        .collect();
                    requests.push(Request::commit(0, ta, 2));
                    requests
                })
                .collect()
        };
        let streams: Vec<Vec<Vec<Request>>> = (0..CLIENTS).map(transactions).collect();
        for (shards, drivers) in [(1, 1), (4, 1), (4, 2)] {
            let config = ShardConfig::new(shards, Protocol::algebra(ProtocolKind::Ss2pl))
                .with_table("bench", ROWS as usize);
            let (router, registry) = start_on(always(config), drivers);
            within(10, "a client or driver lost a letter", || {
                std::thread::scope(|scope| {
                    for (client, stream) in streams.iter().enumerate() {
                        let handle = router.handle();
                        let depth = if client < 2 { 1 } else { 3 };
                        scope.spawn(move || {
                            let mut tickets = std::collections::VecDeque::new();
                            for requests in stream {
                                let submitted = Instant::now();
                                let ticket = handle.submit_transaction(requests.clone());
                                let took = submitted.elapsed();
                                assert!(took < Duration::from_secs(2), "a submit took {took:?}");
                                tickets.push_back(ticket.unwrap());
                                if tickets.len() == depth {
                                    assert_eq!(tickets.pop_front().unwrap().wait(), Ok(()));
                                }
                            }
                            for ticket in tickets {
                                assert_eq!(ticket.wait(), Ok(()));
                            }
                        });
                    }
                });
            });
            let hub = router.hub();
            let report = router.shutdown();
            let fleet = format!("{shards} shard(s) on {drivers} driver(s)");
            assert_eq!(hub.residue(), 0, "{fleet}");
            let metrics = &report.metrics;
            assert_eq!(metrics.unreclaimed_homes, 0, "{fleet}");
            assert_eq!(metrics.escalation.failed, 0, "{fleet}");
            let all = || streams.iter().flatten();
            let touched = |requests: &Vec<Request>| {
                let data = requests.iter().filter(|r| r.op.is_data());
                let homes: std::collections::BTreeSet<usize> =
                    data.map(|r| shard_of(r.object, shards)).collect();
                homes.len() as u64
            };
            assert_eq!(
                metrics.dispatch.commits,
                all().map(touched).sum(),
                "{fleet}"
            );
            let statements = (all().count() * 2) as u64;
            assert_eq!(
                metrics.dispatch.reads + metrics.dispatch.writes,
                statements,
                "{fleet}"
            );
            for shard in &report.shards {
                let violations = testkit::strict_2pl_violations(&shard.executed_log);
                assert!(violations.is_empty(), "{fleet}: {violations:?}");
            }
            let (caller, _) = passes(&registry);
            assert_eq!(caller > 0, drivers == 1, "{fleet}: {caller} caller passes");
        }
    }

    /// A client that waits on each ticket before the next, alone on an
    /// unsharded fleet, runs at least 90 % of the passes itself: its
    /// driver's thread stays parked.
    #[test]
    fn a_depth_one_client_runs_its_own_passes() {
        let config =
            ShardConfig::new(1, Protocol::algebra(ProtocolKind::Ss2pl)).with_table("bench", 1_000);
        let (router, registry) = start_on(always(config), 1);
        for ta in 1..=2_000u64 {
            exec(&router, txn(ta, &[(ta % 1_000) as i64], true)).unwrap();
        }
        let (caller, driver) = passes(&registry);
        router.shutdown();
        assert!(
            caller * 10 >= (caller + driver) * 9,
            "{caller} caller passes, {driver} driver passes"
        );
    }

    /// The backlog the session layer's shedding reads stays per shard when
    /// cores share a driver: with shards 0 and 1 on one driver, stalled on
    /// shard 0's first step, 49 transactions waiting for shard 1 and 20 for
    /// shard 0 read as 49, not as the 69 letters the driver's channel holds.
    #[test]
    fn a_stalled_drivers_backlog_counts_each_waiting_transaction_on_its_own_shard() {
        let plan = chaos::FaultPlan::new().inject(
            chaos::Hook::WorkerRound { shard: 0 },
            0,
            chaos::Fault::Stall { millis: 400 },
        );
        let injector = Arc::new(chaos::FaultInjector::new(&plan));
        let config = ShardConfig::new(2, Protocol::algebra(ProtocolKind::Fcfs))
            .with_table("bench", 1_000)
            .with_chaos(Arc::clone(&injector));
        let (router, _) = start_on(config, 1);
        let submit = |ta: u64, shard: usize| {
            let object = object_on_shard(shard, 2);
            router.submit_transaction(txn(ta, &[object], true)).unwrap()
        };
        let first = submit(1, 0);
        // Once the stall has fired, the driver waits it out at the end of
        // this step: everything submitted from here on waits in its channel.
        within(10, "the planned stall never fired", || {
            while injector.unfired() > 0 {
                std::thread::yield_now();
            }
        });
        let mut tickets: Vec<_> = (2..=50).map(|ta| submit(ta, 1)).collect();
        tickets.extend((51..=70).map(|ta| submit(ta, 0)));
        assert_eq!(router.handle().max_queue_depth(), 49);

        first.wait().unwrap();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        router.shutdown();
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
