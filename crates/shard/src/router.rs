//! The shard router: partitions client transactions by object footprint and
//! owns the shard worker fleet plus the escalation lane's shared state.
//!
//! An object's home is always `declsched::shard_of(object, shards)`: the
//! hash is fixed for the fleet's lifetime, so resolving a home takes no
//! lock and every holder of a request agrees on where it executes.
//!
//! A transaction whose footprint lives on one shard is posted straight onto
//! that shard's mailbox as one [`ShardMessage::Submit`], from the client's
//! own thread.  The router buffers nothing and runs no thread of its own:
//! the shard's driver empties its whole mailbox before each step, so the
//! receiving side batches whatever piled up meanwhile.  Under the `Always`
//! trigger, on a fleet of one driver, a client that finds the driver idle
//! runs the driver's pass itself (see [`crate::driver`]).  Completions come
//! back through the shared [`CompletionHub`], one hub synchronization per
//! worker step.
//!
//! A fleet of **one** shard — which is also what the unsharded deployment
//! runs — has nothing to route: [`RouterCore::submit`] posts the
//! transaction without computing a footprint or recording a home.

use crate::config::ShardConfig;
use crate::driver::{self, run_driver, Clock, PostOffice, Wire};
use crate::escalation::{closed, Lane};
use crate::hub::{CompletionHub, HubReply};
use crate::metrics::{RouterSnapshot, ShardReport, ShardedMetrics};
use crate::worker::{Context, ShardMessage, Submission, WorkerCore};
use declsched::{shard_of, Request, SchedError, SchedResult};
use obs::FastIdMap;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// A pending completion for one submitted transaction, waited on through
/// the fleet's shared completion hub.
///
/// Dropping a ticket without waiting is safe and leaves nothing behind: the
/// transaction still executes, and the hub discards its completion.
pub struct TxnTicket {
    hub: Arc<CompletionHub>,
    token: u64,
    waited: bool,
}

impl TxnTicket {
    /// Block until the transaction has fully executed.
    pub fn wait(mut self) -> SchedResult<()> {
        self.waited = true;
        self.hub.wait(self.token)
    }
}

impl Drop for TxnTicket {
    fn drop(&mut self) {
        if !self.waited {
            self.hub.abandon(self.token);
        }
    }
}

/// Routing counters, `Arc`-backed so the metrics registry can adopt the
/// very atomics the router updates (live snapshots, no double counting).
struct Counters {
    transactions: Arc<AtomicU64>,
    cross_shard: Arc<AtomicU64>,
}

/// The per-transaction homes map — `ta` → shards currently holding state
/// for that transaction — shared between the router (which records homes as
/// it routes), the shard workers (which reclaim entries when they fail a
/// transaction), and the session façade
/// (which reclaims when a client abandons a transaction mid-flight).
///
/// Every reclaim path goes through [`TxnHomes::remove`] so entries cannot
/// outlive their transaction: the router removes on terminal routing and
/// on failed sends, workers
/// remove every transaction they fail, and `Session::drop` removes
/// transactions abandoned without a terminal.
///
/// The map is striped by `ta` so the lock doubles as the *per-transaction*
/// submission lock without serializing unrelated transactions: `submit`
/// holds its transaction's stripe across the whole route-and-post (that
/// is what keeps one transaction's incremental submissions ordered), while
/// concurrent submitters on other stripes route in parallel.
pub(crate) struct TxnHomes {
    stripes: Vec<Mutex<FastIdMap<u64, BTreeSet<usize>>>>,
}

/// Stripe count for [`TxnHomes`]; a power of two so the stripe index is a
/// mask of the transaction id.
const HOME_STRIPES: usize = 32;

impl TxnHomes {
    pub(crate) fn new() -> Self {
        TxnHomes {
            stripes: (0..HOME_STRIPES)
                .map(|_| Mutex::new(FastIdMap::default()))
                .collect(),
        }
    }

    fn stripe(&self, ta: u64) -> &Mutex<FastIdMap<u64, BTreeSet<usize>>> {
        &self.stripes[(ta as usize) & (HOME_STRIPES - 1)]
    }

    /// Lock the stripe owning `ta` (transactions without an id share
    /// stripe 0; they carry no homes entry, the guard only orders the
    /// route).
    fn lock(&self, ta: u64) -> SchedResult<MutexGuard<'_, FastIdMap<u64, BTreeSet<usize>>>> {
        self.stripe(ta).lock().map_err(|_| SchedError::Poisoned {
            what: "router homes map",
        })
    }

    /// Drop the entry for `ta` (no-op if absent).  Poison-tolerant: reclaim
    /// must never panic a failure path.
    pub(crate) fn remove(&self, ta: u64) {
        let mut map = match self.stripe(ta).lock() {
            Ok(map) => map,
            Err(poisoned) => poisoned.into_inner(),
        };
        map.remove(&ta);
    }

    fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|stripe| match stripe.lock() {
                Ok(map) => map.len(),
                Err(poisoned) => poisoned.into_inner().len(),
            })
            .sum()
    }
}

/// Routing state shared between the router and its client handles.
///
/// Routing is a pure function of the object footprint plus the `homes` map
/// (which shards already hold locks for a transaction submitted
/// incrementally), so client handles route directly without a central
/// router thread hop.
pub(crate) struct RouterCore {
    /// The fleet's mailboxes and drivers, with its completion hub and clock.
    post_office: Arc<PostOffice>,
    /// The cross-shard handshake's shared state: admission and counters.
    lane: Arc<Lane>,
    shards: usize,
    counters: Counters,
    /// Per-transaction homes (also the per-transaction submission lock:
    /// holding it across the route-and-post keeps per-transaction
    /// ordering stable).
    homes: Arc<TxnHomes>,
    /// Live per-shard queue depth (incoming + pending), written by each
    /// worker around every round.
    depths: Vec<Arc<AtomicU64>>,
    /// Requests currently in flight fleet-wide (submitted, not resolved) —
    /// decremented by the hub replies.
    inflight: Arc<AtomicU64>,
    /// High-water mark of `inflight`: the fleet-wide concurrent occupancy
    /// peak reported as `ShardedMetrics::peak_pending`.
    peak_inflight: Arc<AtomicU64>,
    /// Completion-hub token allocator.
    next_token: AtomicU64,
    /// Set at the start of shutdown: submissions are refused from then on.
    /// A core's mailbox stays open until the core stops, so a post that
    /// lands behind the workers' `Shutdown` would be accepted and never
    /// run; refusing it here gives a typed error at submit instead of one
    /// at `wait`.
    closed: AtomicBool,
    /// Flight recorder for routing decisions (`Routed`/`Escalated` events).
    recorder: obs::SharedRecorder,
    /// Chaos fault injector: the router fires `RouterSend` before every
    /// fast-path submission (disabled outside chaos runs).
    injector: Arc<chaos::FaultInjector>,
}

impl RouterCore {
    /// Allocate a hub token for a transaction of `weight` requests and
    /// count it in flight: the fleet-side reply and the client-side ticket.
    fn open_ticket(&self, weight: u64) -> (HubReply, TxnTicket) {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let before = self.inflight.fetch_add(weight, Ordering::Relaxed);
        self.peak_inflight
            .fetch_max(before + weight, Ordering::Relaxed);
        let hub = &self.post_office.hub;
        let reply = HubReply::new(Arc::clone(hub), token, weight, Arc::clone(&self.inflight));
        let ticket = TxnTicket {
            hub: Arc::clone(hub),
            token,
            waited: false,
        };
        (reply, ticket)
    }

    /// Chaos hook, visited before every fast-path post: whether a scripted
    /// `SendFail` refuses this one as if the worker's mailbox were gone.
    fn chaos_refuses_send(&self, shard: usize) -> bool {
        matches!(
            self.injector.fire(chaos::Hook::RouterSend { shard }),
            Some(chaos::Fault::SendFail)
        )
    }

    /// Route one transaction: a single-shard footprint is posted onto its
    /// shard's mailbox, a spanning one goes to the escalation lane.  A fleet
    /// of one has no routing decision to make and posts the transaction
    /// straight onto its only worker's mailbox.  A single-shard post that
    /// takes an idle driver's desk runs the driver's passes on this thread
    /// before returning, once no homes stripe is held.
    pub(crate) fn submit(&self, requests: Vec<Request>) -> SchedResult<TxnTicket> {
        if self.closed.load(Ordering::Acquire) {
            return Err(SchedError::ChannelClosed {
                endpoint: "shard router (shutting down)",
            });
        }
        let weight = requests.len().max(1) as u64;
        if self.shards == 1 {
            // Nothing below applies: every object lives on shard 0, so
            // there is no footprint to compute and no home to remember.  (A
            // failed send drops the reply and the ticket, which settle each
            // other in the hub.)
            let (reply, ticket) = self.open_ticket(weight);
            if self.chaos_refuses_send(0) {
                reply.resolve_now(Err(closed("shard worker (chaos send failure)")));
                return Ok(ticket);
            }
            let turn = self
                .post_office
                .client_post(0, ShardMessage::Submit(Submission { requests, reply }))
                .map_err(|_| closed("shard worker"))?;
            self.counters.transactions.fetch_add(1, Ordering::Relaxed);
            if let Some(turn) = turn {
                turn.run();
            }
            return Ok(ticket);
        }
        let mut touched: BTreeSet<usize> = requests
            .iter()
            .filter(|r| r.op.is_data())
            .map(|r| shard_of(r.object, self.shards))
            .collect();
        let ta = requests.first().map(|r| r.ta);
        let has_terminal = requests.iter().any(|r| r.op.is_terminal());

        let (reply, ticket) = self.open_ticket(weight);

        let mut homes = self.homes.lock(ta.unwrap_or(0))?;
        // Union with the shards already touched by earlier submissions of
        // the same transaction: a lock acquired there must be part of any
        // handshake this submission takes.
        if let Some(ta) = ta {
            if let Some(previous) = homes.get(&ta) {
                touched.extend(previous.iter().copied());
            }
        }

        let cross_shard = touched.len() > 1;
        // Capture the routing decision for sampled transactions before the
        // requests move into the message.
        let sampled: Option<Vec<u32>> = ta
            .filter(|&ta| self.recorder.samples(ta))
            .map(|_| requests.iter().map(|r| r.intra).collect());
        let target = touched.first().copied().unwrap_or(0);
        let sent = if !cross_shard {
            // The ticket of a refused send resolves with the error (the
            // client sees a failed transaction, not a hung one) and the
            // homes entry is dropped — exactly the failed-send contract.
            if self.chaos_refuses_send(target) {
                reply.resolve_now(Err(closed("shard worker (chaos send failure)")));
                if let Some(ta) = ta {
                    homes.remove(&ta);
                }
                return Ok(ticket);
            }
            // Fast path: the whole transaction lives on one shard
            // (terminal-only transactions with no recorded home default to
            // shard 0).  The stripe is held, so a busy desk is not waited
            // for (`client_post` only tries its lock).
            self.post_office
                .client_post(target, ShardMessage::Submit(Submission { requests, reply }))
                .map_err(|_| closed("shard worker"))
        } else {
            // Every earlier submission of this transaction was posted under
            // the stripe this thread holds, so it is already on the touched
            // workers' FIFO mailboxes, ahead of the handshake's prepare.
            // Chaos hook: a `Stall` here delays this job's admission (and,
            // as this thread holds its transaction's homes stripe, later
            // submissions on that stripe).
            if let Some(chaos::Fault::Stall { millis }) = self.injector.fire(chaos::Hook::LaneJob) {
                driver::stall(millis);
            }
            let touched = touched.iter().copied().collect();
            let now_us = self.post_office.clock.now_us();
            self.lane
                .submit(requests, touched, reply, now_us, &mut self.wire())
                .map(|()| None)
        };

        match sent {
            Ok(turn) => {
                // Count and record homes only once the submission is
                // actually in flight: a failed send must neither inflate
                // the routed-transaction counters nor leak a homes entry.
                self.counters.transactions.fetch_add(1, Ordering::Relaxed);
                if cross_shard {
                    self.counters.cross_shard.fetch_add(1, Ordering::Relaxed);
                }
                if let (Some(ta), Some(intras)) = (ta, &sampled) {
                    if cross_shard {
                        let shards: Vec<usize> = touched.iter().copied().collect();
                        for &intra in intras {
                            self.recorder.emit(
                                ta,
                                intra,
                                obs::EventKind::Escalated {
                                    shards: shards.clone(),
                                },
                            );
                        }
                    } else {
                        for &intra in intras {
                            self.recorder
                                .emit(ta, intra, obs::EventKind::Routed { shard: target });
                        }
                    }
                }
                if let Some(ta) = ta {
                    if has_terminal {
                        homes.remove(&ta);
                    } else if !touched.is_empty() {
                        homes.insert(ta, touched);
                    }
                }
                // A pass may reclaim homes entries: the stripe goes first.
                drop(homes);
                if let Some(turn) = turn {
                    turn.run();
                }
                Ok(ticket)
            }
            Err(e) => {
                // A dead channel means the fleet is shutting down; the
                // transaction cannot make progress, so reclaim any homes
                // entry its earlier submissions recorded.
                if let Some(ta) = ta {
                    homes.remove(&ta);
                }
                Err(e)
            }
        }
    }

    /// The threaded context a client thread drives the lane through.
    fn wire(&self) -> Wire<'_> {
        Wire::client(&self.post_office)
    }

    /// The deepest backlog anywhere in the fleet: the worst shard queue or
    /// the escalation lane's waiting + running jobs, whichever is larger —
    /// cross-shard overload piles up in the lane's admission state, not on
    /// any worker.  A shard's queue is its worker's gauge (incoming +
    /// pending, written around every round) plus the messages posted to it
    /// and not yet handled, which keeps the signal fresh while a worker is
    /// inside a long round.  Every client transaction is its own message,
    /// so that count includes each transaction the worker has not taken
    /// yet — and only this shard's: its driver's channel also carries the
    /// mail of the cores that share the driver.
    fn max_queue_depth(&self) -> usize {
        let depth = |(shard, gauge): (usize, &Arc<AtomicU64>)| {
            gauge.load(Ordering::Relaxed) as usize + self.post_office.queued(shard)
        };
        self.depths
            .iter()
            .enumerate()
            .map(depth)
            .max()
            .unwrap_or(0)
            .max(self.lane.backlog())
    }
}

/// A client handle onto a running fleet that outlives borrowing the
/// [`ShardRouter`]: submission, abandonment and the backlog the session
/// layer's shedding reads.  Cheap to clone — one per client worker — and
/// usable from any thread while the fleet is up.
#[derive(Clone)]
pub struct FleetHandle {
    core: Arc<RouterCore>,
}

impl FleetHandle {
    /// Submit a whole transaction — pre-built requests in intra order —
    /// without blocking.  The returned ticket resolves once every request
    /// has executed on its home shard (or through the escalation lane when
    /// the footprint spans shards), so a client can pipeline many
    /// transactions before waiting on any of them.
    pub fn submit_transaction(&self, requests: Vec<Request>) -> SchedResult<TxnTicket> {
        self.core.submit(requests)
    }

    /// Reclaim the router's homes entry for `ta` — a transaction its client
    /// abandoned mid-flight (no terminal will ever be submitted).  Without
    /// this, the entry would live until shutdown.  The session façade calls
    /// it from `Session::drop`.
    pub fn abandon_transaction(&self, ta: u64) {
        self.core.homes.remove(ta);
    }

    /// The deepest backlog anywhere in the fleet — the watermark the
    /// session layer's overload-shedding policy samples.  A shard's backlog
    /// is the requests its worker has queued or pending plus one per
    /// transaction still in its mailbox, so traffic the worker has not
    /// taken yet counts in full.
    pub fn max_queue_depth(&self) -> usize {
        self.core.max_queue_depth()
    }

    /// Transactions with a recorded home and no terminal routed yet — the
    /// homes-map population (diagnostic; also what the leak regression
    /// tests assert on).
    pub fn open_transactions(&self) -> usize {
        self.core.homes.len()
    }
}

/// Summary of a whole sharded run, returned by [`ShardRouter::shutdown`].
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Per-shard reports (index = shard id), including execution logs.
    pub shards: Vec<ShardReport>,
    /// The aggregated fleet-wide metrics.
    pub metrics: ShardedMetrics,
}

/// The sharded scheduling subsystem: N shard workers, each running the
/// paper's declarative scheduling loop over its slice of the object space,
/// behind a hash router with a two-phase escalation lane for spanning
/// transactions.
pub struct ShardRouter {
    core: Arc<RouterCore>,
    drivers: Vec<JoinHandle<Vec<ShardReport>>>,
}

impl ShardRouter {
    /// Start the fleet: one shard core per shard, each with a private
    /// scheduler and dispatcher, on min(shards, available cores) driver
    /// threads (`declsched-driver-{i}`); shard i runs on driver i mod that
    /// count.
    pub fn start(config: ShardConfig) -> SchedResult<Self> {
        Self::start_observed(
            config,
            obs::TraceSink::disabled(),
            Arc::new(obs::Registry::new()),
        )
    }

    /// Like [`ShardRouter::start`], threading an observability sink and
    /// metrics registry through the fleet: every worker records request
    /// lifecycle events into `sink`, the router emits `Routed`/`Escalated`
    /// events, and the `shard.*`/`router.*`/`lane.*` counters, gauges and
    /// histograms register into `registry` (the per-shard queue-depth
    /// gauges and the router's routing counters are adopted live — the
    /// registry reads the very atomics the fleet updates).
    pub fn start_observed(
        config: ShardConfig,
        sink: obs::TraceSink,
        registry: Arc<obs::Registry>,
    ) -> SchedResult<Self> {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        Self::start_on(config, cores, sink, registry)
    }

    /// Like [`ShardRouter::start_observed`], on `drivers` driver threads
    /// (at least one, at most one per shard) — the co-resident fleets a
    /// test needs whatever the host's core count.
    pub(crate) fn start_on(
        config: ShardConfig,
        drivers: usize,
        sink: obs::TraceSink,
        registry: Arc<obs::Registry>,
    ) -> SchedResult<Self> {
        let shards = config.shards.max(1);
        let drivers = drivers.clamp(1, shards);
        let homes = Arc::new(TxnHomes::new());
        let lane = Lane::new(&config, &sink, &registry);
        // Every core is built before any thread starts, so a failed build
        // leaves no worker behind.
        let cores = (0..shards)
            .map(|shard| WorkerCore::new(shard, &config, &lane, &homes, &sink, &registry))
            .collect::<SchedResult<Vec<_>>>()?;
        let depths = cores.iter().map(WorkerCore::depth_gauge).collect();
        let post_office = Arc::new(PostOffice::new(
            cores,
            drivers,
            &config.scheduler.trigger,
            CompletionHub::new(),
            Clock::start(),
            &registry,
        ));
        let driver_handles = (0..drivers)
            .map(|driver| {
                let post_office = Arc::clone(&post_office);
                std::thread::Builder::new()
                    .name(format!("declsched-driver-{driver}"))
                    .spawn(move || run_driver(&post_office, driver))
                    .expect("spawning a shard driver cannot fail")
            })
            .collect();

        let transactions = Arc::new(AtomicU64::new(0));
        let cross_shard = Arc::new(AtomicU64::new(0));
        registry.adopt_counter("router.transactions", Arc::clone(&transactions));
        registry.adopt_counter("router.cross_shard", Arc::clone(&cross_shard));
        let inflight = Arc::new(AtomicU64::new(0));
        let peak_inflight = Arc::new(AtomicU64::new(0));
        registry.adopt_gauge("router.inflight", Arc::clone(&inflight));
        registry.adopt_gauge("router.peak_inflight", Arc::clone(&peak_inflight));

        let core = Arc::new(RouterCore {
            post_office,
            lane,
            shards,
            counters: Counters {
                transactions,
                cross_shard,
            },
            homes,
            depths,
            closed: AtomicBool::new(false),
            inflight,
            peak_inflight,
            next_token: AtomicU64::new(0),
            recorder: sink.shared_recorder(),
            injector: Arc::clone(&config.injector),
        });

        Ok(ShardRouter {
            core,
            drivers: driver_handles,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.core.shards
    }

    /// A cloneable client handle onto this fleet.
    pub fn handle(&self) -> FleetHandle {
        FleetHandle {
            core: Arc::clone(&self.core),
        }
    }

    /// Submit a transaction asynchronously; the ticket resolves when every
    /// request has executed.
    pub fn submit_transaction(&self, requests: Vec<Request>) -> SchedResult<TxnTicket> {
        self.core.submit(requests)
    }

    /// Shut down: finish admitted escalations, drain every shard, join all
    /// threads and return the merged report.  Transactions submitted through
    /// still-alive handles after this call are not executed.
    pub fn shutdown(self) -> ShardedReport {
        // Refuse new submissions first: anything accepted after this point
        // could land behind the workers' `Shutdown` and never run.
        self.core.closed.store(true, Ordering::Release);

        // Quiesce the escalation lane next so no handshake can outlive a
        // worker: every job admitted before this point resolves its ticket,
        // then the lane reports (it refuses anything later).
        let escalation = self.core.lane.shutdown(&mut self.core.wire());

        for shard in 0..self.core.shards {
            let _ = self.core.wire().post(shard, ShardMessage::Shutdown);
        }
        let mut reports: Vec<ShardReport> = self
            .drivers
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .expect("shard drivers never panic during an orderly shutdown")
            })
            .collect();
        reports.sort_by_key(|r| r.shard);

        // Every worker has drained and published its completions; close
        // the hub so any ticket whose completion never arrived (e.g. a
        // submission raced the shutdown) fails instead of blocking.
        self.core.post_office.hub.close();

        let router = RouterSnapshot {
            transactions: self.core.counters.transactions.load(Ordering::Relaxed),
            cross_shard_transactions: self.core.counters.cross_shard.load(Ordering::Relaxed),
            unreclaimed_homes: self.core.homes.len() as u64,
            peak_inflight: self.core.peak_inflight.load(Ordering::Relaxed),
        };
        let elapsed = Duration::from_micros(self.core.post_office.clock.now_us());
        let metrics = ShardedMetrics::aggregate(&reports, router, escalation, elapsed);
        ShardedReport {
            shards: reports,
            metrics,
        }
    }
}

#[cfg(test)]
impl ShardRouter {
    /// The driver threads this fleet started.
    pub(crate) fn driver_threads(&self) -> usize {
        self.drivers.len()
    }

    /// The completion hub the fleet's tickets wait on.
    pub(crate) fn hub(&self) -> Arc<CompletionHub> {
        Arc::clone(&self.core.post_office.hub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use declsched::{Protocol, ProtocolKind};

    /// A ticket dropped without `wait()` must leave nothing in the hub —
    /// whether its completion was already published (the drop reclaims it)
    /// or not yet (the publisher discards it).  Covers the one-shard path
    /// every unsharded deployment takes and the routed multi-shard path.
    #[test]
    fn dropped_tickets_leave_no_residue_in_the_hub() {
        for shards in [1, 2] {
            let config = ShardConfig::new(shards, Protocol::algebra(ProtocolKind::Ss2pl))
                .with_table("bench", 1_000);
            let router = ShardRouter::start(config).unwrap();
            let hub = router.hub();
            for ta in 1..=10_000u64 {
                let object = (ta % 1_000) as i64;
                let ticket = router
                    .submit_transaction(vec![
                        Request::write(0, ta, 0, object),
                        Request::commit(0, ta, 1),
                    ])
                    .unwrap();
                drop(ticket);
            }
            let report = router.shutdown();
            assert_eq!(report.metrics.dispatch.commits, 10_000, "{shards} shard(s)");
            assert_eq!(hub.residue(), 0, "{shards} shard(s)");
        }
    }
}
