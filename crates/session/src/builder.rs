//! The deployment entry point: [`Scheduler::builder`].

use crate::backend::{Backend, BackendKind};
use crate::observe::SessionObs;
use crate::passthrough::PassthroughBackend;
use crate::report::Report;
use crate::sess::Session;
use crate::sharded::ShardedBackend;
use crate::tier::TierRegistry;
use declsched::{Protocol, ProtocolKind, SchedResult, SchedulerConfig};
use relalg::Table;
use shard::{ShardConfig, ShardRouter};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The session layer's SLA-aware overload-shedding policy.
///
/// While the backend's live queue depth ([`crate::Backend::queue_depth`])
/// is at or past `queue_watermark`, *opening* submissions whose SLA
/// priority is below `protect_priority` are rejected up front: their
/// [`crate::Ticket`] resolves immediately with the typed
/// [`declsched::SchedError::Shed`] outcome and nothing reaches the
/// scheduler.  Transactions at or above the protected priority — and
/// continuations of transactions already admitted — always pass, which is
/// what keeps the premium tier's tail latency bounded while the deployment
/// is driven past capacity.
///
/// Submissions without SLA metadata are never shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedPolicy {
    /// Queue depth at which shedding engages (sustained backlog, not a
    /// transient round's worth of requests).
    pub queue_watermark: usize,
    /// Minimum SLA priority that is never shed.
    pub protect_priority: i64,
}

impl ShedPolicy {
    /// A policy shedding everything below `protect_priority` once the
    /// backlog reaches `queue_watermark`.
    pub fn new(queue_watermark: usize, protect_priority: i64) -> Self {
        ShedPolicy {
            queue_watermark,
            protect_priority,
        }
    }
}

/// The live shed policy, shared by the scheduler handle and every
/// connected session so the policy can be swapped mid-run — by
/// [`Scheduler::set_shed_policy`] or by a chaos `ShedFlip` fault —
/// without reconnecting anything.
#[derive(Debug, Default)]
pub(crate) struct ShedState {
    engaged: AtomicBool,
    watermark: AtomicUsize,
    protect: AtomicI64,
}

impl ShedState {
    pub(crate) fn new(initial: Option<ShedPolicy>) -> Self {
        let state = ShedState::default();
        state.set(initial);
        state
    }

    /// Swap the live policy (`None` disengages shedding).
    pub(crate) fn set(&self, policy: Option<ShedPolicy>) {
        match policy {
            Some(policy) => {
                // Parameters land before the engage flag so a concurrent
                // reader never observes the flag with stale parameters.
                self.watermark
                    .store(policy.queue_watermark, Ordering::Relaxed);
                self.protect
                    .store(policy.protect_priority, Ordering::Relaxed);
                self.engaged.store(true, Ordering::Release);
            }
            None => self.engaged.store(false, Ordering::Release),
        }
    }

    /// The currently engaged policy, if any.
    pub(crate) fn get(&self) -> Option<ShedPolicy> {
        self.engaged.load(Ordering::Acquire).then(|| ShedPolicy {
            queue_watermark: self.watermark.load(Ordering::Relaxed),
            protect_priority: self.protect.load(Ordering::Relaxed),
        })
    }
}

/// Which deployment the builder will start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Topology {
    /// A fleet of shard workers and the label it reports under: the
    /// unsharded deployment is the fleet of one.
    Fleet(BackendKind, usize),
    Passthrough,
}

/// Configures and starts a scheduler deployment.
///
/// Defaults: the paper's SS2PL protocol on the relational-algebra back-end,
/// default [`SchedulerConfig`], a 10 000-row `bench` table, unsharded.
pub struct SchedulerBuilder {
    protocol: Protocol,
    config: SchedulerConfig,
    table: String,
    rows: usize,
    topology: Topology,
    aux_relations: Vec<Table>,
    shed: Option<ShedPolicy>,
    trace: obs::TraceConfig,
    chaos: Option<chaos::FaultPlan>,
}

impl SchedulerBuilder {
    fn new() -> Self {
        SchedulerBuilder {
            protocol: Protocol::algebra(ProtocolKind::Ss2pl),
            config: SchedulerConfig::default(),
            table: "bench".to_string(),
            rows: 10_000,
            topology: Topology::Fleet(BackendKind::Unsharded, 1),
            aux_relations: Vec::new(),
            shed: None,
            trace: obs::TraceConfig::off(),
            chaos: None,
        }
    }

    /// The declarative protocol every scheduler of the deployment applies,
    /// every round, for the deployment's whole life.  Ignored in passthrough
    /// mode, where the server's native scheduler decides.
    pub fn policy(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// The scheduler configuration (trigger, history pruning, intra-order
    /// enforcement), applied to every scheduler the deployment runs.
    pub fn scheduler_config(mut self, config: SchedulerConfig) -> Self {
        self.config = config;
        self
    }

    /// Name and size of the benchmark table the server(s) serve.
    pub fn table(mut self, table: impl Into<String>, rows: usize) -> Self {
        self.table = table.into();
        self.rows = rows;
        self
    }

    /// Deploy the paper's single-scheduler middleware (the default): one
    /// driver thread with one shard core, nothing to route.
    pub fn unsharded(mut self) -> Self {
        self.topology = Topology::Fleet(BackendKind::Unsharded, 1);
        self
    }

    /// Deploy the shard router fleet with `shards` worker shards.
    pub fn shards(mut self, shards: usize) -> Self {
        self.topology = Topology::Fleet(BackendKind::Sharded, shards.max(1));
        self
    }

    /// Deploy the non-scheduling passthrough (native server locking) — the
    /// paper's overhead baseline.
    pub fn passthrough(mut self) -> Self {
        self.topology = Topology::Passthrough;
        self
    }

    /// Register an auxiliary relation (e.g. `object_class` for consistency
    /// rationing) with every scheduler of the deployment.  A table named
    /// `requests`, `history` or `sla` makes [`SchedulerBuilder::build`] fail
    /// with [`declsched::SchedError::ReservedRelation`].
    pub fn aux_relation(mut self, table: Table) -> Self {
        self.aux_relations.push(table);
        self
    }

    /// Enable SLA-aware overload shedding (off by default; see
    /// [`ShedPolicy`]).
    pub fn shed_policy(mut self, policy: ShedPolicy) -> Self {
        self.shed = Some(policy);
        self
    }

    /// Enable the request flight recorder (off by default; see
    /// [`obs::TraceConfig`]).  With tracing on, every sampled transaction's
    /// lifecycle events land in per-worker ring buffers and come back
    /// merged as [`Report::trace`] at shutdown.  Metrics
    /// ([`Scheduler::registry`]) are always on — this knob only governs
    /// event recording.
    pub fn trace(mut self, config: obs::TraceConfig) -> Self {
        self.trace = config;
        self
    }

    /// Thread a deterministic chaos [`chaos::FaultPlan`] through the
    /// deployment (off by default).  Every layer fires its named hook
    /// points against the plan's injector: the scheduler/worker loops
    /// (`WorkerRound`, `WorkerCommit`), the shard router's fast-path sends
    /// (`RouterSend`), the escalation lane (`LaneJob`) and the session
    /// submission path (`SessionSubmit`, where a `ShedFlip` swaps the live
    /// [`ShedPolicy`] mid-run).  Inspect what actually fired through
    /// [`Scheduler::chaos_injector`].
    pub fn chaos(mut self, plan: chaos::FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Start the deployment.
    pub fn build(self) -> SchedResult<Scheduler> {
        let sink = obs::TraceSink::new(self.trace);
        let registry = Arc::new(obs::Registry::new());
        let injector = Arc::new(match &self.chaos {
            Some(plan) => chaos::FaultInjector::new(plan),
            None => chaos::FaultInjector::disabled(),
        });
        let backend: Arc<dyn Backend> = match self.topology {
            Topology::Fleet(kind, shards) => {
                let mut config = ShardConfig::new(shards, self.protocol)
                    .with_scheduler(self.config)
                    .with_table(self.table, self.rows)
                    .with_chaos(Arc::clone(&injector));
                for aux in self.aux_relations {
                    config = config.with_aux_relation(aux);
                }
                let router =
                    ShardRouter::start_observed(config, sink.clone(), Arc::clone(&registry))?;
                Arc::new(ShardedBackend::new(kind, router))
            }
            Topology::Passthrough => Arc::new(PassthroughBackend::start_chaos(
                self.table,
                self.rows,
                Arc::clone(&injector),
            )?),
        };
        let observe = Arc::new(SessionObs::new(&sink, &registry));
        Ok(Scheduler {
            backend,
            tiers: Arc::new(TierRegistry::default()),
            shed: Arc::new(ShedState::new(self.shed)),
            sink,
            registry,
            observe,
            injector,
        })
    }
}

/// A running scheduler deployment — the unified control instance clients
/// connect to, whatever topology sits behind it.
pub struct Scheduler {
    backend: Arc<dyn Backend>,
    /// Per-SLA-tier admission/latency counters shared by every session.
    tiers: Arc<TierRegistry>,
    /// Live shed policy shared with every connected session.
    shed: Arc<ShedState>,
    /// Flight-recorder sink every layer of the deployment records into.
    sink: obs::TraceSink,
    /// Live metrics registry every layer of the deployment registers into.
    registry: Arc<obs::Registry>,
    /// Session-side counters/events, shared by every connected session.
    observe: Arc<SessionObs>,
    /// Chaos fault injector (disabled unless built with
    /// [`SchedulerBuilder::chaos`]).
    injector: Arc<chaos::FaultInjector>,
}

impl Scheduler {
    /// Start configuring a deployment.
    pub fn builder() -> SchedulerBuilder {
        SchedulerBuilder::new()
    }

    /// Wrap a custom [`Backend`] (the three shipped deployments come from
    /// [`Scheduler::builder`]).  Custom backends are not threaded into the
    /// flight recorder: the trace stays empty and only session-level
    /// metrics are recorded.
    pub fn from_backend(backend: Arc<dyn Backend>) -> Self {
        let sink = obs::TraceSink::disabled();
        let registry = Arc::new(obs::Registry::new());
        let observe = Arc::new(SessionObs::new(&sink, &registry));
        Scheduler {
            backend,
            tiers: Arc::new(TierRegistry::default()),
            shed: Arc::new(ShedState::new(None)),
            sink,
            registry,
            observe,
            injector: Arc::new(chaos::FaultInjector::disabled()),
        }
    }

    /// Which deployment this is.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Connect a new client session (the control instance "creates a
    /// separate client worker for each connected client").
    pub fn connect(&self) -> Session {
        Session::new(
            Arc::clone(&self.backend),
            Arc::clone(&self.tiers),
            Arc::clone(&self.shed),
            Arc::clone(&self.observe),
            Arc::clone(&self.injector),
        )
    }

    /// Swap the live overload-shedding policy for every connected (and
    /// future) session; `None` disengages shedding.  Safe mid-run — this
    /// is also the lever a chaos `ShedFlip` fault pulls.
    pub fn set_shed_policy(&self, policy: Option<ShedPolicy>) {
        self.shed.set(policy);
    }

    /// The currently engaged overload-shedding policy, if any.
    pub fn shed_policy(&self) -> Option<ShedPolicy> {
        self.shed.get()
    }

    /// The deployment's chaos fault injector — inspect
    /// [`chaos::FaultInjector::fired`] after a run to see which scripted
    /// faults actually landed.  Disabled (never fires) unless the
    /// deployment was built with [`SchedulerBuilder::chaos`].
    pub fn chaos_injector(&self) -> Arc<chaos::FaultInjector> {
        Arc::clone(&self.injector)
    }

    /// The deployment's live metrics registry — snapshot it mid-run
    /// ([`obs::Registry::snapshot`]) or dump it in Prometheus text
    /// exposition format ([`obs::Registry::render_text`]).  Every layer
    /// (scheduler core, shard workers, router, escalation lane, session
    /// shedding) publishes here.
    pub fn registry(&self) -> Arc<obs::Registry> {
        Arc::clone(&self.registry)
    }

    /// The deployment's live scheduling backlog (see
    /// [`Backend::queue_depth`]).
    pub fn queue_depth(&self) -> usize {
        self.backend.queue_depth()
    }

    /// Drain outstanding work, stop the deployment and return the unified
    /// [`Report`].  Transactions submitted through still-alive sessions
    /// after this call fail with a channel error.
    ///
    /// # Panics
    ///
    /// Panics if the backend was already shut down — only reachable when
    /// the same backend `Arc` was wrapped into several schedulers via
    /// [`Scheduler::from_backend`]; use [`Scheduler::try_shutdown`] there.
    pub fn shutdown(self) -> Report {
        self.try_shutdown()
            .expect("backend already shut down through another handle — use try_shutdown when sharing a backend")
    }

    /// Like [`Scheduler::shutdown`], but surfaces
    /// [`declsched::SchedError::BackendShutdown`] instead of panicking when
    /// another handle over the same backend shut it down first.
    pub fn try_shutdown(self) -> SchedResult<Report> {
        // Backend shutdown joins every worker thread, so by the time it
        // returns all thread-owned recorders have flushed into the sink
        // and the merged trace is complete.
        let mut report = self.backend.shutdown()?;
        report.tiers = self.tiers.snapshot();
        report.trace = self.sink.merged_trace();
        report.anomalies = self.sink.take_anomalies();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Txn;
    use declsched::{SchedError, TriggerPolicy};

    fn builder() -> SchedulerBuilder {
        Scheduler::builder()
            .table("bench", 256)
            .scheduler_config(SchedulerConfig {
                trigger: TriggerPolicy::Hybrid {
                    interval_ms: 1,
                    threshold: 8,
                },
                ..SchedulerConfig::default()
            })
    }

    fn drive(scheduler: Scheduler) -> Report {
        let mut session = scheduler.connect();
        let tickets: Vec<_> = (1..=6u64)
            .map(|ta| {
                session
                    .submit(Txn::new(ta).write(ta as i64, ta as i64 * 10).commit())
                    .unwrap()
            })
            .collect();
        // Out-of-order wait on half; drain settles the rest.
        for ticket in tickets.into_iter().rev().take(3) {
            let receipt = ticket.wait().unwrap();
            assert_eq!(receipt.statements, 2);
        }
        assert!(session.in_flight() <= 3);
        session.drain().unwrap();
        assert_eq!(session.in_flight(), 0);
        scheduler.shutdown()
    }

    #[test]
    fn unsharded_backend_round_trips() {
        let report = drive(builder().build().unwrap());
        assert_eq!(report.backend, BackendKind::Unsharded);
        assert_eq!(report.transactions, 6);
        assert_eq!(report.dispatch.commits, 6);
        assert_eq!(report.dispatch.writes, 6);
        assert!(report.rounds >= 1);
        assert_eq!(report.final_rows[3], 30);
        assert!(report.sharded.is_none() && report.server.is_none());
    }

    #[test]
    fn sharded_backend_round_trips() {
        let report = drive(builder().shards(3).build().unwrap());
        assert_eq!(report.backend, BackendKind::Sharded);
        assert_eq!(report.transactions, 6);
        assert_eq!(report.dispatch.commits, 6);
        let detail = report.sharded.as_ref().expect("sharded detail");
        assert_eq!(detail.shards, 3);
        assert_eq!(detail.cross_shard_transactions, 0);
        assert_eq!(report.final_rows[3], 30);
    }

    #[test]
    fn passthrough_backend_round_trips() {
        let report = drive(builder().passthrough().build().unwrap());
        assert_eq!(report.backend, BackendKind::Passthrough);
        assert_eq!(report.transactions, 6);
        assert_eq!(report.dispatch.commits, 6);
        assert_eq!(report.rounds, 0, "passthrough never runs a rule round");
        let server = report.server.expect("native engine metrics");
        assert_eq!(server.commits, 6);
        assert_eq!(report.final_rows[3], 30);
    }

    #[test]
    fn passthrough_blocks_and_retries_conflicting_pipelined_transactions() {
        // T1 takes a native write lock and commits only via a later
        // submission; T2 (pipelined behind it) must block on the server and
        // still complete once T1's terminal arrives.
        let scheduler = builder().passthrough().build().unwrap();
        let mut session = scheduler.connect();
        let hold = session.submit(Txn::new(1).write(7, 1)).unwrap();
        let blocked = session.submit(Txn::new(2).write(7, 2).commit()).unwrap();
        hold.wait().unwrap();
        let commit = session.submit(Txn::resume(1, 1).commit()).unwrap();
        commit.wait().unwrap();
        blocked.wait().unwrap();
        let report = scheduler.shutdown();
        assert_eq!(report.dispatch.commits, 2);
        let server = report.server.expect("native engine metrics");
        assert!(server.lock_waits >= 1, "the server must have blocked T2");
        assert_eq!(report.final_rows[7], 2);
        // Admission order on the contested object: T1's write before T2's.
        let order: Vec<u64> = report.object_order(7).iter().map(|o| o.0).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn double_shutdown_is_rejected_at_the_backend() {
        let scheduler = builder().build().unwrap();
        let backend = Arc::clone(&scheduler.backend);
        let _ = scheduler.shutdown();
        let err = backend.shutdown().unwrap_err();
        assert!(matches!(err, SchedError::BackendShutdown { .. }));
        // Submissions after shutdown fail instead of hanging.
        let err = backend.submit(vec![]).map(|_| ()).unwrap_err();
        assert!(matches!(err, SchedError::ChannelClosed { .. }));
    }
}
