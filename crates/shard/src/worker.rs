//! The shard worker's scheduling logic: one complete Figure-1 pipeline
//! (incoming queue → pending relation → declarative rule → history relation
//! → dispatcher) for the slice of the object space that hashes to it.
//!
//! This is the repository's only scheduling engine — the paper's Section
//! 3.3 loop (client workers fill an incoming queue, a trigger starts a
//! round, the rule qualifies, the dispatcher executes, clients are
//! answered).  The unsharded deployment is a fleet of one of these.
//!
//! [`WorkerCore`] is I/O-free: a message handler ([`WorkerCore::handle`])
//! and a round step ([`WorkerCore::tick`]) that mutate its state and reach
//! the outside world only through a [`Context`] — posting to a shard's
//! mailbox, publishing resolved tickets, and a chaos stall.  The step says
//! when it wants to run again ([`Wake`]); the thread that blocks until then
//! is [`crate::driver`], and a test can drive a whole fleet through FIFO
//! queues on one thread instead.
//!
//! Client traffic arrives as one [`ShardMessage::Submit`] per transaction,
//! posted by the submitting client's thread; the driver hands the worker
//! everything in its mailbox before each step, so a step sees every
//! transaction that arrived since the last one.  Completions are buffered
//! over a step and published in one call.
//!
//! Besides client transactions, the worker drives its part of the two-phase
//! escalation handshake (see [`crate::escalation`]): on `Prepare` it
//! qualifies the escalated transaction's *local slice* against its own live
//! history (the same per-object rule local rounds use) and votes; a granted
//! vote holds the shard — it keeps accepting and buffering traffic but
//! schedules no rounds — until `Commit` (execute the sub-batch here) or
//! `Release2pc` (a sibling shard voted no; resume immediately).  The worker
//! whose vote is the last one decides for all, and the worker whose
//! sub-batch finishes last resolves the client's ticket.  Prepare only ever
//! lands at a message boundary, so a shard is never interrupted mid-rule,
//! and shards outside the transaction's footprint never stop.

use crate::escalation::{Handshake, Lane, Own, Parked, Vote};
use crate::hub::HubReply;
use crate::metrics::ShardReport;
use crate::router::TxnHomes;
use crate::ShardConfig;
use declsched::{
    DeclarativeScheduler, Dispatcher, ProtocolKind, Request, RequestKey, SchedError, SchedResult,
    ScheduleBatch,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One client transaction, as the router posts it.
pub(crate) struct Submission {
    /// The transaction's requests, in intra order.
    pub requests: Vec<Request>,
    /// Resolved once every request has executed (or on failure).
    pub reply: HubReply,
}

/// Messages understood by a shard worker.
pub(crate) enum ShardMessage {
    /// One client transaction whose footprint lives on this shard.
    Submit(Submission),
    /// Escalation handshake, phase 1: qualify this shard's slice of the
    /// record and vote.  A granted vote holds the shard (no rounds) until
    /// the matching `Commit` or `Release2pc`.
    Prepare(Arc<Handshake>),
    /// Escalation handshake, phase 2 (only valid while held by the record's
    /// job): execute this shard's sub-batch on its engine, record it in its
    /// history, and release the hold.  Sent by the deciding sibling.
    Commit(Arc<Handshake>),
    /// Escalation handshake: the decider is backing out (a sibling denied
    /// or failed) or this shard has nothing to execute; drop the hold for
    /// `job_id` and resume.
    Release2pc {
        /// The escalation being released.
        job_id: u64,
    },
    /// Escalation handshake: an attempt was denied here (or, for a custom
    /// rule, somewhere); keep the record until a round of this shard
    /// releases a lock, then re-arm it.
    Park(Parked),
    /// The lane is shutting down with only parked handshakes left: those
    /// parked here get their final attempt once nothing local can release a
    /// lock any more.
    LastCall,
    /// Orderly shutdown: drain what is pending, then stop.
    Shutdown,
}

/// A resolved ticket on its way to the completion hub.
pub(crate) type Completion = (u64, SchedResult<()>);

/// Everything a handler does outside its own state.  The threaded driver
/// implements it with the fleet's mailboxes and the completion hub; a test
/// implements it with FIFO queues.
pub(crate) trait Context {
    /// Deliver `message` to `shard`'s mailbox now — not after the step: a
    /// handshake's release must be in the mailbox before the next job's
    /// prepare can be.  A shard that is gone hands the message back.
    fn post(&mut self, shard: usize, message: ShardMessage) -> Result<(), ShardMessage>;
    /// Publish resolved tickets, taking them out of `completions`.
    fn publish(&mut self, completions: &mut Vec<Completion>);
    /// A chaos `Stall`: pause this worker for `millis` after the step,
    /// before its completions are published.
    fn stall(&mut self, millis: u64);
}

/// When [`WorkerCore::tick`] wants to run next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wake {
    /// At once: a round executed something and left work pending, or a
    /// shutdown or last-call drain is not finished.
    Now,
    /// When mail arrives or the fleet clock reaches this millisecond (the
    /// trigger's deadline), whichever comes first.
    At(u64),
    /// Only when mail arrives.
    Mail,
    /// Never: the shutdown drain is complete.
    Stop,
}

/// A client transaction waiting for its requests to execute.
struct Ticket {
    /// Request keys of this transaction still registered in `waiting`.
    remaining: usize,
    /// Taken by the first terminal outcome (all-executed or first failure).
    reply: Option<HubReply>,
}

/// One shard's scheduling state and its two entry points.
pub(crate) struct WorkerCore {
    shard: usize,
    scheduler: DeclarativeScheduler,
    dispatcher: Dispatcher,
    rows: usize,
    /// The fleet clock at the current step, in µs.
    now_us: u64,
    /// Ticket slots; vacated entries are recycled through `free_tickets`,
    /// so memory stays bounded by in-flight transactions rather than
    /// growing with the worker's lifetime.
    tickets: Vec<Option<Ticket>>,
    free_tickets: Vec<usize>,
    waiting: obs::FastIdMap<RequestKey, usize>,
    executed_log: Vec<Request>,
    disconnected: bool,
    /// Chaos `Kill` landed: everything in flight was failed, the
    /// un-admitted state purged, and every later message is refused.
    killed: bool,
    /// A granted escalation hold: the job id whose `Prepare` this shard
    /// granted and whose `Commit`/`Release2pc` it is waiting for.  While
    /// held the worker keeps taking mail (and buffering client traffic) but
    /// schedules no rounds, so the history the vote was based on cannot
    /// shift under the handshake.
    held: Option<u64>,
    /// The escalation lane this worker's handshakes run through.
    lane: Arc<Lane>,
    /// Denied handshakes waiting here for the round that unblocks them.
    parked: Vec<Parked>,
    /// Rounds of this shard that executed a terminal — the only thing that
    /// frees a lock, so the epoch a parked handshake's denial is dated by.
    releases: u64,
    /// `LastCall` has arrived.
    last_call: bool,
    /// Reusable buffer for a handshake's local slice / sub-batch.
    escalated_scratch: Vec<Request>,
    /// Live queue-depth gauge (incoming + pending), read by the session
    /// layer's overload shedding and by the metrics registry.
    depth: Arc<AtomicU64>,
    /// The router's homes map, for reclaiming entries of transactions this
    /// worker fails.
    homes: Arc<TxnHomes>,
    /// Completions resolved since the last publish.
    completions: Vec<Completion>,
    /// Reusable scratch for `submit_transaction`'s duplicate-key check, so
    /// admission does not allocate a fresh set per transaction.
    batch_keys: obs::FastIdSet<RequestKey>,
    /// Thread-owned flight recorder (flushes into the run's trace sink
    /// when the worker is dropped).
    recorder: obs::Recorder,
    /// For sampled transactions: the round number at submission, so
    /// qualification can report how many rounds the request sat pending.
    /// On the emission hot path twice per sampled request — hence the
    /// cheap id hasher.
    submit_round: obs::FastIdMap<RequestKey, u64>,
    /// Scheduling rounds this worker has produced.
    round_no: u64,
    rounds_ctr: obs::Counter,
    executed_ctr: obs::Counter,
    rule_failures_ctr: obs::Counter,
    batch_hist: Arc<obs::MetricHistogram>,
    /// Live counter of requests this shard executed through the
    /// escalation lane.
    escalated_ctr: obs::Counter,
    /// Chaos fault injector (disabled outside chaos runs).
    injector: Arc<chaos::FaultInjector>,
}

impl WorkerCore {
    /// Shard `shard` of a fleet configured by `config`, with a private
    /// scheduler and dispatcher, its `shard.{shard}.*` metrics registered.
    pub(crate) fn new(
        shard: usize,
        config: &ShardConfig,
        lane: &Arc<Lane>,
        homes: &Arc<TxnHomes>,
        sink: &obs::TraceSink,
        registry: &obs::Registry,
    ) -> SchedResult<Self> {
        let mut scheduler =
            DeclarativeScheduler::new(config.protocol.clone(), config.scheduler.clone());
        for aux in &config.aux_relations {
            scheduler.register_aux_relation(aux.clone())?;
        }
        let depth = Arc::new(AtomicU64::new(0));
        registry.adopt_gauge(&format!("shard.{shard}.queue_depth"), Arc::clone(&depth));
        let metric = |name: &str| format!("shard.{shard}.{name}");
        Ok(WorkerCore {
            shard,
            scheduler,
            dispatcher: Dispatcher::new(config.table.clone(), config.rows)?,
            rows: config.rows,
            now_us: 0,
            tickets: Vec::new(),
            free_tickets: Vec::new(),
            waiting: obs::FastIdMap::default(),
            executed_log: Vec::new(),
            disconnected: false,
            killed: false,
            held: None,
            lane: Arc::clone(lane),
            parked: Vec::new(),
            releases: 0,
            last_call: false,
            escalated_scratch: Vec::new(),
            depth,
            homes: Arc::clone(homes),
            completions: Vec::new(),
            batch_keys: obs::FastIdSet::default(),
            recorder: sink.recorder(),
            submit_round: obs::FastIdMap::default(),
            round_no: 0,
            rounds_ctr: registry.counter(&metric("rounds")),
            executed_ctr: registry.counter(&metric("requests_executed")),
            rule_failures_ctr: registry.counter(&metric("rule_failures")),
            batch_hist: registry.histogram(&metric("batch_size")),
            escalated_ctr: registry.counter(&metric("escalated_requests")),
            injector: Arc::clone(&config.injector),
        })
    }

    /// The live queue-depth gauge this worker writes.
    pub(crate) fn depth_gauge(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.depth)
    }

    fn now_ms(&self) -> u64 {
        self.now_us / 1_000
    }

    /// Enqueue a client transaction into the local scheduler (queues only —
    /// safe while held, because rounds are what a hold suspends).
    fn submit_transaction(&mut self, requests: Vec<Request>, reply: HubReply) {
        if self.killed {
            reply.resolve_now(Err(self.dead("transaction refused")));
            return;
        }
        if requests.is_empty() {
            reply.resolve_now(Ok(()));
            return;
        }
        // Validate the whole batch before touching any state: a duplicate
        // (ta, intra) — within the batch or against an in-flight ticket —
        // would make both submissions unaccountable, so fail the new
        // transaction outright and leave the scheduler untouched.
        self.batch_keys.clear();
        for request in &requests {
            let key = request.key();
            if self.waiting.contains_key(&key) || !self.batch_keys.insert(key) {
                reply.resolve_now(Err(SchedError::Dispatch {
                    message: format!(
                        "duplicate request key T{}[{}] submitted to shard {}",
                        key.ta, key.intra, self.shard
                    ),
                }));
                return;
            }
        }
        let ticket = Ticket {
            remaining: requests.len(),
            reply: Some(reply),
        };
        let ticket_index = match self.free_tickets.pop() {
            Some(index) => {
                self.tickets[index] = Some(ticket);
                index
            }
            None => {
                self.tickets.push(Some(ticket));
                self.tickets.len() - 1
            }
        };
        let now_ms = self.now_ms();
        for request in requests {
            let key = request.key();
            if self.recorder.samples(key.ta) {
                self.submit_round.insert(key, self.round_no);
            }
            self.scheduler.submit(request, now_ms);
            self.waiting.insert(key, ticket_index);
        }
    }

    /// Resolve one executed (or failed) request against its ticket.  The
    /// slot is vacated only once *every* key of the transaction has
    /// resolved, so later keys of an already-failed transaction can never
    /// hit a recycled slot.  Completions are buffered, not published — the
    /// step's publish does that in one call.
    fn resolve(&mut self, key: RequestKey, result: SchedResult<()>) {
        let Some(index) = self.waiting.remove(&key) else {
            return;
        };
        let Some(ticket) = self.tickets[index].as_mut() else {
            return;
        };
        ticket.remaining -= 1;
        let outcome = match result {
            Ok(()) => {
                if ticket.remaining == 0 {
                    ticket.reply.take().map(|reply| (reply, Ok(())))
                } else {
                    None
                }
            }
            Err(e) => ticket.reply.take().map(|reply| (reply, Err(e))),
        };
        if ticket.remaining == 0 {
            self.tickets[index] = None;
            self.free_tickets.push(index);
        }
        if let Some((reply, result)) = outcome {
            reply.resolve_into(result, &mut self.completions);
        }
    }

    /// Fail every transaction still waiting (shutdown fixpoint, rule
    /// failure or a chaos kill).  With `reclaim` the failed transactions
    /// are treated as dead — no later submission of theirs can route
    /// anywhere — so their router homes entries are reclaimed here, which
    /// is what keeps the homes map from leaking entries for transactions
    /// that error out mid-flight (the shutdown drain and a worker kill
    /// both pass `true`).  On a mid-run rule failure the entries are
    /// *kept* (`reclaim = false`): the transaction may still hold locks
    /// from earlier submissions on other shards, and the entry is what
    /// routes its follow-up abort there (reclaim then happens when the
    /// client terminates or abandons it).
    fn fail_all_waiting(&mut self, reclaim: bool, err: impl Fn(RequestKey) -> SchedError) {
        let waiting: Vec<(RequestKey, usize)> = self.waiting.drain().collect();
        if reclaim {
            let mut dead: Vec<u64> = waiting.iter().map(|(key, _)| key.ta).collect();
            dead.sort_unstable();
            dead.dedup();
            dead.into_iter().for_each(|ta| self.homes.remove(ta));
        }
        for (key, index) in waiting {
            if let Some(ticket) = self.tickets[index].as_mut() {
                if let Some(reply) = ticket.reply.take() {
                    reply.resolve_now(Err(err(key)));
                }
            }
        }
        // Nothing is waiting any more: every slot is vacant.
        self.tickets.clear();
        self.free_tickets.clear();
        self.submit_round.clear();
    }

    /// Vote on an escalation's `Prepare`: qualify the transaction's local
    /// slice against this shard's live history and, if admitted, hold the
    /// shard for the decision.  The vote applies the scheduler's own
    /// protocol, the one every round here applies — the same per-object
    /// rule, over the shard's own relations, incrementally maintained, with
    /// no union snapshot — which is sound because locks live per object and
    /// every object has exactly one home shard.
    fn prepare(&mut self, handshake: &Handshake) -> Vote {
        if self.killed {
            return Vote::Error(self.dead("prepare refused"));
        }
        if self.held.is_some() {
            // Admission only runs shard-disjoint jobs concurrently, so a
            // second prepare while held means a lane bug — fail loudly
            // rather than park on a release that is not coming.
            return Vote::Error(SchedError::Dispatch {
                message: format!("escalation prepare on held shard {}", self.shard),
            });
        }
        if let Some(ta) = handshake.ta() {
            // An earlier submission of this very transaction still waiting
            // here must execute before the escalated batch — replicating
            // the terminal now would finish the transaction on this engine
            // with the earlier statement unexecuted.
            if self.scheduler.transaction_pending(ta) {
                return Vote::Denied { own_pending: true };
            }
        }
        if self.scheduler.protocol().kind == ProtocolKind::Custom {
            // Custom protocols: the decider evaluates the declarative rule
            // over the union of the participants' snapshots; this shard
            // just holds and hands over its history.
            self.held = Some(handshake.job_id);
            return Vote::Granted {
                snapshot: Some(self.scheduler.history_table()),
            };
        }
        let mut slice = std::mem::take(&mut self.escalated_scratch);
        slice.clear();
        slice.extend(handshake.slice(self.shard));
        let admitted = self.scheduler.escalated_slice_admitted(&slice);
        self.escalated_scratch = slice;
        if admitted {
            self.held = Some(handshake.job_id);
            Vote::Granted { snapshot: None }
        } else {
            Vote::Denied { own_pending: false }
        }
    }

    fn release(&mut self, job_id: u64) {
        if self.held == Some(job_id) {
            self.held = None;
        }
    }

    /// Fire a chaos hook: a `Stall` goes to the context (the driver pauses
    /// after the step), a `Kill` is this worker dying — at a handshake step
    /// (the hooks are fired by the participant itself right before it takes
    /// the step) it then votes, or refuses the commit, with the typed error
    /// and the decider backs out, releasing every granted sibling.
    fn fire_hook(&mut self, hook: chaos::Hook, cx: &mut dyn Context) {
        match self.injector.fire(hook) {
            Some(chaos::Fault::Stall { millis }) => cx.stall(millis),
            Some(chaos::Fault::Kill) if !self.killed => self.kill(cx),
            _ => {}
        }
    }

    /// Commit phase on this shard — reached by the decider directly and by
    /// its siblings through `Commit`: execute the sub-batch, drop the hold,
    /// and, as the last finisher, queue the ticket's resolution for this
    /// step's publish.
    fn commit_escalated(&mut self, handshake: &Arc<Handshake>, cx: &mut dyn Context) {
        // The worst mid-handshake moment for a participant to die: between
        // its granted vote and its commit.  Siblings that already executed
        // keep their (locally recorded) slices, the client gets the error.
        self.fire_hook(chaos::Hook::LaneCommit { shard: self.shard }, cx);
        let result = if self.killed {
            Err(self.dead("escalated execute refused"))
        } else if self.held == Some(handshake.job_id) {
            self.held = None;
            self.execute_escalated(handshake)
        } else {
            Err(SchedError::Dispatch {
                message: "escalated commit outside a prepared handshake".to_string(),
            })
        };
        let executed = result.is_ok();
        if let Some((reply, outcome)) = self.lane.finish(handshake, result, self.now_us, cx) {
            reply.resolve_into(outcome, &mut self.completions);
        }
        // An escalated terminal frees this shard's locks like a local one.
        if executed && handshake.requests.iter().any(|r| r.op.is_terminal()) {
            self.releases += 1;
            self.wake_parked(true, cx);
        }
    }

    /// Execute an escalated sub-batch: run it on the engine and record it in
    /// the local history so the shard's own rule sees any locks it leaves
    /// behind (an escalated transaction submitted without its terminal
    /// keeps its write locks until the client commits it, exactly like a
    /// local one).  On an engine error the requests executed before it are
    /// recorded all the same: they hold engine locks the rule must see.
    fn execute_escalated(&mut self, handshake: &Handshake) -> SchedResult<()> {
        let mut batch = std::mem::take(&mut self.escalated_scratch);
        batch.clear();
        batch.extend(handshake.sub_batch(self.shard));
        self.escalated_ctr.add(batch.len() as u64);
        let mut executed = 0;
        let mut outcome = Ok(());
        for request in &batch {
            let key = request.key();
            let sampled = self.recorder.samples(key.ta);
            if sampled {
                self.recorder
                    .emit(key.ta, key.intra, obs::EventKind::Dispatched);
            }
            if let Err(e) = self.dispatcher.execute_request(request) {
                outcome = Err(e);
                break;
            }
            if sampled {
                self.recorder
                    .emit(key.ta, key.intra, obs::EventKind::Executed);
            }
            self.executed_log.push(*request);
            executed += 1;
        }
        let recorded = self.scheduler.preload_history(&batch[..executed]);
        self.escalated_scratch = batch;
        outcome.and(recorded)
    }

    /// Keep a denied handshake until a round here unblocks it — unless that
    /// already happened between this shard's vote and now.
    fn park(&mut self, parked: Parked, cx: &mut dyn Context) {
        let already = if parked.own_pending {
            self.own_submission_done(&parked.handshake)
        } else {
            self.releases != parked.releases
        };
        // (A killed worker hands the record straight back: its next
        // prepare is refused here, failing the handshake typed.)
        if already || self.killed {
            self.lane.rearm(&parked, false, self.now_us, cx);
        } else {
            self.parked.push(parked);
        }
    }

    fn own_submission_done(&self, handshake: &Handshake) -> bool {
        handshake
            .ta()
            .is_none_or(|ta| !self.scheduler.transaction_pending(ta))
    }

    /// After a round that executed something: re-arm the parked handshakes
    /// it may have unblocked — all of them if it `released` a lock, else
    /// those whose earlier own submission has now left the queue.
    fn wake_parked(&mut self, released: bool, cx: &mut dyn Context) {
        let mut index = 0;
        while index < self.parked.len() {
            let parked = &self.parked[index];
            if released || (parked.own_pending && self.own_submission_done(&parked.handshake)) {
                let parked = self.parked.swap_remove(index);
                self.lane.rearm(&parked, false, self.now_us, cx);
            } else {
                index += 1;
            }
        }
    }

    /// Chaos `Kill`: fail everything in flight (reclaiming the dead
    /// transactions' homes entries so nothing leaks), purge the
    /// un-admitted scheduler state, drop any escalation hold (the decider
    /// backing out of the handshake will see the typed refusal), hand parked
    /// handshakes back (their next prepare is refused here, failing them
    /// typed instead of waiting on a round that never comes), and flip into
    /// refuse-everything mode.  History — and therefore the locks of
    /// already-admitted transactions — is kept for post-mortem inspection;
    /// the worker never schedules again, so they can no longer block
    /// anything here.
    fn kill(&mut self, cx: &mut dyn Context) {
        self.killed = true;
        self.held = None;
        self.recorder
            .freeze_anomaly(&format!("chaos: shard {} worker killed", self.shard));
        let shard = self.shard;
        self.fail_all_waiting(true, move |_| SchedError::Dispatch {
            message: format!("chaos: shard {shard} worker killed"),
        });
        self.scheduler.purge_unscheduled(self.now_ms());
        for parked in std::mem::take(&mut self.parked) {
            self.lane.rearm(&parked, false, self.now_us, cx);
        }
    }

    fn dead(&self, what: &str) -> SchedError {
        SchedError::Dispatch {
            message: format!("chaos: shard worker killed ({what})"),
        }
    }

    /// Handle one message at `now_us` on the fleet clock.  Never waits: a
    /// granted `Prepare` records the hold and returns — the worker keeps
    /// taking mail (buffering client traffic) until the decider's
    /// `Commit`/`Release2pc` lands.  A killed worker answers every message
    /// with a typed error (or a refusal) instead of hanging its sender;
    /// each handler below starts with that guard.
    pub(crate) fn handle(&mut self, message: ShardMessage, now_us: u64, cx: &mut dyn Context) {
        self.now_us = now_us;
        match message {
            ShardMessage::Submit(submission) => {
                self.submit_transaction(submission.requests, submission.reply);
            }
            ShardMessage::Prepare(handshake) => {
                // Chaos hook: a participant dying right before its prepare
                // lands — the mid-handshake fault the two-phase protocol
                // must survive.
                self.fire_hook(chaos::Hook::LanePrepare { shard: self.shard }, cx);
                let vote = self.prepare(&handshake);
                let (shard, releases) = (self.shard, self.releases);
                match self
                    .lane
                    .cast_vote(&handshake, shard, releases, vote, now_us, cx)
                {
                    Some(Own::Execute) => self.commit_escalated(&handshake, cx),
                    Some(Own::Release) => self.release(handshake.job_id),
                    None => {}
                }
            }
            ShardMessage::Commit(handshake) => self.commit_escalated(&handshake, cx),
            ShardMessage::Release2pc { job_id } => self.release(job_id),
            ShardMessage::Park(parked) => self.park(parked, cx),
            ShardMessage::LastCall => self.last_call = true,
            ShardMessage::Shutdown => self.disconnected = true,
        }
    }

    /// The round step at `now_us` on the fleet clock: fire the loop's
    /// chaos hook, run a round if the trigger — or a shutdown or last-call
    /// drain — calls for one, re-arm the handshakes it unblocked, and
    /// publish everything resolved since the last step.
    pub(crate) fn tick(&mut self, now_us: u64, cx: &mut dyn Context) -> Wake {
        self.now_us = now_us;
        // Chaos hook: once per step, after the mail it follows.
        self.fire_hook(chaos::Hook::WorkerRound { shard: self.shard }, cx);
        if self.disconnected {
            // The lane is idle before the workers are told to stop, so a
            // hold surviving to this point belongs to a handshake that died
            // mid-flight; dropping it is what lets the drain below finish.
            self.held = None;
        }
        self.publish_depth();

        let now_ms = self.now_ms();
        // When shutting down, keep scheduling until everything drained.  A
        // held worker schedules nothing: the history its granted vote was
        // qualified against must not shift until the decision lands.
        // The lane's last call drains the same way while anything is parked
        // here: whatever could still release a lock runs now, trigger or not.
        let draining = self.disconnected || (self.last_call && !self.parked.is_empty());
        let has_work = self.scheduler.queued() + self.scheduler.pending() > 0;
        let batch = if self.killed || self.held.is_some() {
            None
        } else if draining && has_work {
            Some(self.scheduler.run_round(now_ms))
        } else {
            self.scheduler.tick(now_ms).transpose()
        };

        let mut stop = false;
        let mut made_progress = false;
        match batch {
            Some(Ok(batch))
                if self.disconnected && batch.is_empty() && self.scheduler.queued() == 0 =>
            {
                // Shutdown fixpoint: no new requests can arrive and the
                // rule admits nothing more (e.g. a client went away without
                // committing).  Fail the stragglers instead of spinning.
                self.fail_all_waiting(true, |key| SchedError::TransactionFinished { ta: key.ta });
                stop = true;
            }
            Some(Ok(batch)) => made_progress = self.execute_round(batch, cx),
            Some(Err(e)) => {
                // A rule failure fails every waiting client rather than
                // hanging them.  The recorder freezes its window so the
                // events leading up to the failure survive post-mortem.
                self.rule_failures_ctr.inc();
                self.recorder
                    .freeze_anomaly(&format!("shard {}: rule failure: {e}", self.shard));
                let reclaim = self.disconnected;
                self.fail_all_waiting(reclaim, |_| e.clone());
                // A shard whose rule fails releases nothing: hand parked
                // handshakes back, so their attempt bound (or the same
                // rule error) settles them instead of a wedged shard.
                self.wake_parked(true, cx);
                // The drain cannot make progress if the rule keeps erroring
                // (run_round never empties the pending relation).
                stop = self.disconnected;
            }
            None => {}
        }

        // Last call, local fixpoint: no release is coming for what is still
        // parked here, so its next attempt is the final one.
        if self.last_call && !made_progress && self.held.is_none() {
            for parked in std::mem::take(&mut self.parked) {
                self.lane.rearm(&parked, true, now_us, cx);
            }
        }
        // Written after the round too: with no further wake, an idle worker
        // would otherwise keep showing its pre-round backlog.
        self.publish_depth();
        cx.publish(&mut self.completions);

        let idle = self.scheduler.queued() + self.scheduler.pending() == 0;
        if stop || (self.disconnected && (self.killed || idle)) {
            Wake::Stop
        } else if self.disconnected
            || (made_progress && (!idle || (self.last_call && !self.parked.is_empty())))
        {
            // A productive round can release locks that unblock what is
            // still pending, so the next round runs at once.
            Wake::Now
        } else if self.killed || self.held.is_some() {
            Wake::Mail
        } else {
            // Nothing left that time alone can advance, but the trigger.
            self.scheduler
                .trigger_deadline_ms(now_ms)
                .map_or(Wake::Mail, Wake::At)
        }
    }

    /// Dispatch a qualified batch in order; whether it executed anything.
    fn execute_round(&mut self, batch: ScheduleBatch, cx: &mut dyn Context) -> bool {
        let shard = self.shard;
        self.rounds_ctr.inc();
        self.batch_hist.observe(batch.requests.len() as u64);
        let qualified_at = if self.recorder.enabled() && !batch.is_empty() {
            self.recorder.now_us()
        } else {
            0
        };
        // Batch execution is sequential, so a request's `Executed` stamp is
        // exactly the next request's `Dispatched` moment — chaining
        // `last_us` halves the hot-path clock reads.  The stamp goes stale
        // only when an unsampled request executes in between (sampled
        // tracing), in which case the next dispatch re-reads.
        let mut last_us = qualified_at;
        let mut last_fresh = true;
        let mut released = false;
        for request in &batch.requests {
            let key = request.key();
            let sampled = self.recorder.samples(key.ta);
            if sampled {
                let waited = self
                    .round_no
                    .saturating_sub(self.submit_round.remove(&key).unwrap_or(self.round_no));
                if waited > 0 {
                    self.recorder.emit_at(
                        key.ta,
                        key.intra,
                        qualified_at,
                        obs::EventKind::RoundDeferred { rounds: waited },
                    );
                }
                self.recorder
                    .emit_at(key.ta, key.intra, qualified_at, obs::EventKind::Qualified);
                if !last_fresh {
                    last_us = self.recorder.now_us();
                }
                self.recorder
                    .emit_at(key.ta, key.intra, last_us, obs::EventKind::Dispatched);
            }
            // Chaos hook: a `Stall` right before a terminal executes holds
            // back this step's completions and the shard's next round — and
            // with them every lock the transaction holds.
            if request.op.is_terminal() {
                released = true;
                if let Some(chaos::Fault::Stall { millis }) =
                    self.injector.fire(chaos::Hook::WorkerCommit { shard })
                {
                    cx.stall(millis);
                }
            }
            let result = match self.dispatcher.execute_request(request) {
                // A late statement of a transaction the engine already
                // finished.  A pruned history has forgotten the terminal and
                // granted the statement a lock; record one again so the
                // refusal leaves no lock behind.
                Err(refused)
                    if request.op.is_data() && self.dispatcher.transaction_finished(request.ta) =>
                {
                    released = true;
                    let terminal = Request::abort(0, request.ta, request.intra);
                    self.scheduler
                        .preload_history(&[terminal])
                        .and(Err(refused))
                }
                result => result,
            };
            self.executed_ctr.inc();
            if sampled {
                last_us = self.recorder.now_us();
                self.recorder
                    .emit_at(key.ta, key.intra, last_us, obs::EventKind::Executed);
            }
            last_fresh = sampled;
            self.executed_log.push(*request);
            self.resolve(key, result);
        }
        self.round_no += 1;
        // A terminal frees locks, an executed statement may be the earlier
        // submission a handshake waits for: either way this round is the
        // event parked handshakes are re-armed by.
        self.releases += u64::from(released);
        let made_progress = !batch.is_empty();
        if made_progress && !self.parked.is_empty() {
            self.wake_parked(released, cx);
        }
        made_progress
    }

    /// Write the live queue-depth gauge.
    fn publish_depth(&self) {
        let depth = self.scheduler.queued() + self.scheduler.pending();
        self.depth.store(depth as u64, Ordering::Relaxed);
    }

    /// The shard's final report, with `busy_us` as measured by its driver.
    pub(crate) fn into_report(self, busy_us: u64) -> ShardReport {
        ShardReport {
            shard: self.shard,
            scheduler: self.scheduler.metrics(),
            dispatch: self.dispatcher.totals(),
            busy_us,
            final_rows: self.dispatcher.final_rows(self.rows),
            executed_log: self.executed_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::CompletionHub;
    use crate::testkit::{self, SHARDS, TRANSACTIONS};
    use declsched::shard_of;
    use std::collections::{BTreeSet, VecDeque};
    use std::hash::{DefaultHasher, Hash, Hasher};

    /// The test's [`Context`]: one FIFO mailbox per shard, every publish in
    /// order.
    struct Fifo {
        mailboxes: Vec<VecDeque<ShardMessage>>,
        published: Vec<Completion>,
    }

    impl Context for Fifo {
        fn post(&mut self, shard: usize, message: ShardMessage) -> Result<(), ShardMessage> {
            self.mailboxes[shard].push_back(message);
            Ok(())
        }

        fn publish(&mut self, completions: &mut Vec<Completion>) {
            self.published.append(completions);
        }

        fn stall(&mut self, _millis: u64) {
            unreachable!("no chaos plan in this fleet");
        }
    }

    /// A fleet of [`WorkerCore`]s and one [`Lane`] on one thread, under a
    /// virtual clock.
    struct Fleet {
        cores: Vec<WorkerCore>,
        wakes: Vec<Wake>,
        lane: Arc<Lane>,
        hub: Arc<CompletionHub>,
        inflight: Arc<AtomicU64>,
        cx: Fifo,
        now_us: u64,
    }

    impl Fleet {
        fn new() -> Self {
            let config = testkit::config();
            let (sink, registry) = (obs::TraceSink::disabled(), obs::Registry::new());
            let lane = Lane::new(&config, &sink, &registry);
            let (homes, hub) = (Arc::new(TxnHomes::new()), CompletionHub::new());
            let cores = (0..SHARDS)
                .map(|shard| WorkerCore::new(shard, &config, &lane, &homes, &sink, &registry))
                .collect::<SchedResult<_>>()
                .unwrap();
            Fleet {
                cores,
                wakes: vec![Wake::Mail; SHARDS],
                lane,
                hub,
                inflight: Arc::new(AtomicU64::new(0)),
                cx: Fifo {
                    mailboxes: (0..SHARDS).map(|_| VecDeque::new()).collect(),
                    published: Vec::new(),
                },
                now_us: 0,
            }
        }

        /// Route one transaction the way the router does: a one-shard
        /// footprint straight to its mailbox, a spanning one to the lane.
        fn submit(&mut self, token: u64, requests: Vec<Request>) {
            let weight = requests.len() as u64;
            self.inflight.fetch_add(weight, Ordering::Relaxed);
            let reply = HubReply::new(
                Arc::clone(&self.hub),
                token,
                weight,
                Arc::clone(&self.inflight),
            );
            let touched: BTreeSet<usize> = requests
                .iter()
                .filter(|r| r.op.is_data())
                .map(|r| shard_of(r.object, SHARDS))
                .collect();
            if let [shard] = touched.iter().copied().collect::<Vec<_>>()[..] {
                let submission = Submission { requests, reply };
                self.cx.mailboxes[shard].push_back(ShardMessage::Submit(submission));
            } else {
                let touched = touched.into_iter().collect();
                let now_us = self.now_us;
                self.lane
                    .submit(requests, touched, reply, now_us, &mut self.cx)
                    .unwrap();
            }
        }

        /// Each shard in turn takes its whole mailbox and steps, if it has
        /// mail or its wake is due; then 10 µs pass.  Whether any shard ran.
        fn step(&mut self) -> bool {
            let mut ran = false;
            for shard in 0..SHARDS {
                let due = match self.wakes[shard] {
                    Wake::Now => true,
                    Wake::At(ms) => ms * 1_000 <= self.now_us,
                    Wake::Mail | Wake::Stop => false,
                };
                if !due && self.cx.mailboxes[shard].is_empty() {
                    continue;
                }
                ran = true;
                while let Some(message) = self.cx.mailboxes[shard].pop_front() {
                    self.cores[shard].handle(message, self.now_us, &mut self.cx);
                }
                self.wakes[shard] = self.cores[shard].tick(self.now_us, &mut self.cx);
            }
            self.now_us += 10;
            ran
        }

        /// Step until every shard waits on mail alone, jumping the clock to
        /// the earliest trigger deadline whenever nothing else is due.
        fn settle(&mut self) {
            loop {
                if self.step() {
                    continue;
                }
                let deadline = self.wakes.iter().filter_map(|wake| match wake {
                    Wake::At(ms) => Some(ms * 1_000),
                    _ => None,
                });
                match deadline.min() {
                    Some(at) => self.now_us = self.now_us.max(at),
                    None => return,
                }
            }
        }
    }

    /// Run the stream through a fresh fleet, check it, and return the hash
    /// of every shard's ordered executed log.
    fn run_and_check() -> u64 {
        let stream = testkit::stream();
        let mut fleet = Fleet::new();
        // Ten new transactions, then three delivery steps, at a time: the
        // fleet sees arrivals between rounds and handshakes in flight.
        for (wave, chunk) in stream.chunks(10).enumerate() {
            for (offset, requests) in chunk.iter().enumerate() {
                fleet.submit((wave * 10 + offset) as u64, requests.clone());
            }
            for _ in 0..3 {
                fleet.step();
            }
        }
        fleet.settle();

        // Every ticket resolved exactly once, and every transaction committed.
        let mut tokens: Vec<u64> = fleet.cx.published.iter().map(|(t, _)| *t).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..TRANSACTIONS).collect::<Vec<_>>());
        for (token, result) in &fleet.cx.published {
            assert_eq!(result, &Ok(()), "ticket {token}");
        }
        assert_eq!(fleet.inflight.load(Ordering::Relaxed), 0);
        let lane = fleet.lane.shutdown(&mut fleet.cx);
        assert_eq!((lane.escalations, lane.failed), (TRANSACTIONS / 5, 0));
        assert!(lane.retries > 0, "some handshake was denied and re-armed");

        let logs: Vec<&[Request]> = fleet.cores.iter().map(|c| &c.executed_log[..]).collect();
        testkit::check_logs(&stream, &logs);
        let mut hasher = DefaultHasher::new();
        for (shard, log) in logs.iter().enumerate() {
            for request in log.iter() {
                (shard, request.ta, request.intra, request.op, request.object).hash(&mut hasher);
            }
        }
        hasher.finish()
    }

    /// The whole fleet — four worker cores and the escalation lane — runs
    /// on one thread through FIFO queues: 1 000 transactions, a fifth of
    /// them two-shard handshakes, all commit under strict 2PL, and the
    /// interleaving is a function of the input alone.
    #[test]
    fn a_fifo_fleet_on_one_thread_commits_everything_deterministically() {
        assert_eq!(run_and_check(), run_and_check());
    }
}
