//! The shard worker: one thread owning a complete Figure-1 pipeline
//! (incoming queue → pending relation → declarative rule → history relation
//! → dispatcher) for the slice of the object space that hashes to it.
//!
//! This is the repository's only threaded scheduling engine — the paper's
//! Section 3.3 loop (client workers fill an incoming queue, a trigger
//! starts a round, the rule qualifies, the dispatcher executes, clients are
//! answered).  The unsharded deployment is a fleet of one of these.
//!
//! Client traffic arrives in [`ShardMessage::Batch`]es — the router
//! accumulates submissions per shard and the worker drains a whole batch
//! per channel synchronization — or, in a fleet of one, as single
//! [`ShardMessage::Submit`]s.  Completions flow back the same way:
//! resolved tickets are buffered over a scheduling round and published to
//! the shared [`crate::hub::CompletionHub`] in one call.
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
use crate::hub::{CompletionHub, HubReply};
use crate::metrics::ShardReport;
use crate::router::TxnHomes;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use declsched::{
    DeclarativeScheduler, Dispatcher, ProtocolKind, Request, RequestKey, SchedError, SchedResult,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One client transaction inside a router batch.
pub(crate) struct Submission {
    /// The transaction's requests, in intra order.
    pub requests: Vec<Request>,
    /// Resolved once every request has executed (or on failure).
    pub reply: HubReply,
}

/// Messages understood by a shard worker.
pub(crate) enum ShardMessage {
    /// A batch of client transactions accumulated by the router — one
    /// channel hop for the whole batch.
    Batch(Vec<Submission>),
    /// One client transaction, posted directly by a fleet of one (which
    /// has no router buffer to batch in).
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

/// A client transaction waiting for its requests to execute.
struct Ticket {
    /// Request keys of this transaction still registered in `waiting`.
    remaining: usize,
    /// Taken by the first terminal outcome (all-executed or first failure).
    reply: Option<HubReply>,
}

struct WorkerState {
    shard: usize,
    scheduler: DeclarativeScheduler,
    dispatcher: Dispatcher,
    started: Instant,
    /// Ticket slots; vacated entries are recycled through `free_tickets`,
    /// so memory stays bounded by in-flight transactions rather than
    /// growing with the worker's lifetime.
    tickets: Vec<Option<Ticket>>,
    free_tickets: Vec<usize>,
    waiting: obs::FastIdMap<RequestKey, usize>,
    executed_log: Vec<Request>,
    peak_pending: usize,
    disconnected: bool,
    /// Chaos `Kill` landed: everything in flight was failed, the
    /// un-admitted state purged, and every later message is refused.
    killed: bool,
    /// A granted escalation hold: the job id whose `Prepare` this shard
    /// granted and whose `Commit`/`Release2pc` it is waiting for.  While
    /// held the worker keeps draining its mailbox (and buffering client
    /// traffic) but schedules no rounds, so the history the vote was based
    /// on cannot shift under the handshake.
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
    /// The shared completion hub client tickets wait on.
    hub: Arc<CompletionHub>,
    /// Completions buffered over the current loop iteration, published to
    /// the hub in one batch.
    completions: Vec<(u64, SchedResult<()>)>,
    /// Reusable scratch for `submit_transaction`'s duplicate-key check, so
    /// admission does not allocate a fresh set per transaction.
    batch_keys: obs::FastIdSet<RequestKey>,
    /// Thread-owned flight recorder (flushes into the run's trace sink
    /// when the worker joins).
    recorder: obs::Recorder,
    /// For sampled transactions: the round number at submission, so
    /// qualification can report how many rounds the request sat pending.
    /// On the emission hot path twice per sampled request — hence the
    /// cheap id hasher.
    submit_round: obs::FastIdMap<RequestKey, u64>,
    /// Scheduling rounds this worker has produced.
    round_no: u64,
    /// Live counter of requests this shard executed through the
    /// escalation lane.
    escalated_ctr: obs::Counter,
    /// Chaos fault injector (disabled outside chaos runs).
    injector: Arc<chaos::FaultInjector>,
}

impl WorkerState {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Publish buffered completions to the hub in one call.
    fn flush_completions(&mut self) {
        if !self.completions.is_empty() {
            self.hub.resolve_many(self.completions.drain(..));
        }
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
    /// round's flush does that in one hub call.
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
            self.homes.remove_many(dead);
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
    /// shard for the decision.  Qualification runs the same per-object rule
    /// local rounds use — over the shard's own relations, incrementally
    /// maintained, with no union snapshot — which is sound because locks
    /// live per object and every object has exactly one home shard.
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
        let kind = self.lane.protocol(handshake).kind;
        if kind == ProtocolKind::Custom {
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
        let admitted = self.scheduler.escalated_slice_admitted(kind, &slice);
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

    /// Fire a chaos hook on this worker's own thread: `Stall` sleeps here,
    /// `Kill` is this worker dying — at a handshake step (the hooks are
    /// fired by the participant itself right before it takes the step) it
    /// then votes, or refuses the commit, with the typed error and the
    /// decider backs out, releasing every granted sibling.
    fn fire_hook(&mut self, hook: chaos::Hook) {
        match self.injector.fire(hook) {
            Some(chaos::Fault::Stall { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
            }
            Some(chaos::Fault::Kill) if !self.killed => self.kill(),
            _ => {}
        }
    }

    /// Commit phase on this shard — reached by the decider directly and by
    /// its siblings through `Commit`: execute the sub-batch, drop the hold,
    /// and, as the last finisher, queue the ticket's resolution for this
    /// iteration's hub flush.
    fn commit_escalated(&mut self, handshake: &Arc<Handshake>) {
        // The worst mid-handshake moment for a participant to die: between
        // its granted vote and its commit.  Siblings that already executed
        // keep their (locally recorded) slices, the client gets the error.
        self.fire_hook(chaos::Hook::LaneCommit { shard: self.shard });
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
        if let Some((reply, outcome)) = self.lane.finish(handshake, result) {
            reply.resolve_into(outcome, &mut self.completions);
        }
        // An escalated terminal frees this shard's locks like a local one.
        if executed && handshake.requests.iter().any(|r| r.op.is_terminal()) {
            self.releases += 1;
            self.wake_parked(true);
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
    fn park(&mut self, parked: Parked) {
        let already = if parked.own_pending {
            self.own_submission_done(&parked.handshake)
        } else {
            self.releases != parked.releases
        };
        // (A killed worker hands the record straight back: its next
        // prepare is refused here, failing the handshake typed.)
        if already || self.killed {
            self.lane.rearm(&parked, false);
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
    fn wake_parked(&mut self, released: bool) {
        let mut index = 0;
        while index < self.parked.len() {
            let parked = &self.parked[index];
            if released || (parked.own_pending && self.own_submission_done(&parked.handshake)) {
                let parked = self.parked.swap_remove(index);
                self.lane.rearm(&parked, false);
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
    fn kill(&mut self) {
        self.killed = true;
        self.held = None;
        self.recorder
            .freeze_anomaly(&format!("chaos: shard {} worker killed", self.shard));
        let shard = self.shard;
        self.fail_all_waiting(true, move |_| SchedError::Dispatch {
            message: format!("chaos: shard {shard} worker killed"),
        });
        let now_ms = self.now_ms();
        self.scheduler.purge_unscheduled(now_ms);
        for parked in std::mem::take(&mut self.parked) {
            self.lane.rearm(&parked, false);
        }
    }

    fn dead(&self, what: &str) -> SchedError {
        SchedError::Dispatch {
            message: format!("chaos: shard worker killed ({what})"),
        }
    }

    /// Handle one message.  Never blocks: a granted `Prepare` records the
    /// hold and returns — the worker keeps draining its mailbox (buffering
    /// client traffic) until the decider's `Commit`/`Release2pc` lands.  A
    /// killed worker answers every message with a typed error (or a
    /// refusal) instead of hanging its sender; each handler below starts
    /// with that guard.
    fn handle(&mut self, message: ShardMessage) {
        match message {
            ShardMessage::Batch(mut submissions) => {
                for submission in submissions.drain(..) {
                    self.submit_transaction(submission.requests, submission.reply);
                }
                // Hand the emptied buffer back so the router's next flush
                // reuses it instead of allocating.
                self.hub.recycle_batch_buffer(submissions);
            }
            ShardMessage::Submit(submission) => {
                self.submit_transaction(submission.requests, submission.reply);
            }
            ShardMessage::Prepare(handshake) => {
                // Chaos hook: a participant dying right before its prepare
                // lands — the mid-handshake fault the two-phase protocol
                // must survive.
                self.fire_hook(chaos::Hook::LanePrepare { shard: self.shard });
                let vote = self.prepare(&handshake);
                match self
                    .lane
                    .cast_vote(&handshake, self.shard, self.releases, vote)
                {
                    Some(Own::Execute) => self.commit_escalated(&handshake),
                    Some(Own::Release) => self.release(handshake.job_id),
                    None => {}
                }
            }
            ShardMessage::Commit(handshake) => self.commit_escalated(&handshake),
            ShardMessage::Release2pc { job_id } => self.release(job_id),
            ShardMessage::Park(parked) => self.park(parked),
            ShardMessage::LastCall => self.last_call = true,
            ShardMessage::Shutdown => self.disconnected = true,
        }
    }
}

/// Everything a shard worker thread is born with.
pub(crate) struct WorkerSetup {
    pub shard: usize,
    pub scheduler: DeclarativeScheduler,
    pub dispatcher: Dispatcher,
    pub rows: usize,
    pub receiver: Receiver<ShardMessage>,
    pub depth: Arc<AtomicU64>,
    pub homes: Arc<TxnHomes>,
    pub hub: Arc<CompletionHub>,
    pub lane: Arc<Lane>,
    pub sink: obs::TraceSink,
    pub registry: Arc<obs::Registry>,
    pub injector: Arc<chaos::FaultInjector>,
}

/// Microseconds this thread has spent on-CPU, from the kernel's scheduler
/// statistics.  Unlike wall-clock spans, this excludes both blocking waits
/// *and* involuntary preemption — on a box with fewer cores than shards,
/// a wall-clock "busy" span silently absorbs the time other threads spent
/// running, inflating every shard's busy time toward the whole run's
/// elapsed time.  `None` when unavailable (non-Linux, or scheduler stats
/// compiled out), in which case the caller falls back to wall spans.
fn thread_on_cpu_us() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let on_cpu_ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(on_cpu_ns / 1_000)
}

/// The shard worker thread body.
pub(crate) fn run_worker(setup: WorkerSetup) -> ShardReport {
    let cpu_at_start = thread_on_cpu_us();
    let WorkerSetup {
        shard,
        scheduler,
        dispatcher,
        rows,
        receiver,
        depth,
        homes,
        hub,
        lane,
        sink,
        registry,
        injector,
    } = setup;
    let rounds_ctr = registry.counter(&format!("shard.{shard}.rounds"));
    let executed_ctr = registry.counter(&format!("shard.{shard}.requests_executed"));
    let rule_failures_ctr = registry.counter(&format!("shard.{shard}.rule_failures"));
    let batch_hist = registry.histogram(&format!("shard.{shard}.batch_size"));
    let mut state = WorkerState {
        shard,
        scheduler,
        dispatcher,
        started: Instant::now(),
        tickets: Vec::new(),
        free_tickets: Vec::new(),
        waiting: obs::FastIdMap::default(),
        executed_log: Vec::new(),
        peak_pending: 0,
        disconnected: false,
        killed: false,
        held: None,
        lane,
        parked: Vec::new(),
        releases: 0,
        last_call: false,
        escalated_scratch: Vec::new(),
        depth,
        homes,
        hub,
        completions: Vec::new(),
        batch_keys: obs::FastIdSet::default(),
        recorder: sink.recorder(),
        submit_round: obs::FastIdMap::default(),
        round_no: 0,
        escalated_ctr: registry.counter(&format!("shard.{shard}.escalated_requests")),
        injector,
    };

    // Whether the previous round executed anything.  A productive round
    // can release locks that unblock still-pending requests, so the next
    // round must run immediately — blocking on the channel first would put
    // a hard 1 ms stall into every lock handoff on a lightly loaded shard.
    let mut made_progress = false;
    // Processing time, excluding the blocking waits for traffic — the
    // shard's contribution to the fleet's critical path.  Idle wakeups add
    // only their (near-free) no-op tick to the total.
    let mut busy_us = 0u64;
    loop {
        // Collect what has arrived; block briefly so an idle shard does not
        // spin (an unproductive round cannot unblock anything by itself, so
        // waiting for traffic is safe then).  A held shard also waits here:
        // the decision arrives as a message.
        let timeout = if made_progress {
            Duration::ZERO
        } else {
            Duration::from_millis(1)
        };
        let received = receiver.recv_timeout(timeout);
        let iteration_started = Instant::now();
        match received {
            Ok(first) => {
                state.handle(first);
                while let Ok(message) = receiver.try_recv() {
                    state.handle(message);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => state.disconnected = true,
        }
        made_progress = false;

        // Chaos hook: once per loop iteration, after the mailbox drain.
        state.fire_hook(chaos::Hook::WorkerRound { shard });

        if state.disconnected {
            // The lane is idle before the workers are told to stop, so a
            // hold surviving to this point belongs to a handshake that died
            // mid-flight; dropping it is what lets the drain below finish.
            state.held = None;
        }

        let queue_depth = state.scheduler.queued() + state.scheduler.pending();
        state.peak_pending = state.peak_pending.max(queue_depth);
        state.depth.store(queue_depth as u64, Ordering::Relaxed);

        let now_ms = state.now_ms();
        // When shutting down, keep scheduling until everything drained.  A
        // held worker schedules nothing: the history its granted vote was
        // qualified against must not shift until the decision lands.
        // The lane's last call drains the same way while anything is parked
        // here: whatever could still release a lock runs now, trigger or not.
        let draining = state.disconnected || (state.last_call && !state.parked.is_empty());
        let batch = if state.killed || state.held.is_some() {
            None
        } else if draining && (state.scheduler.queued() > 0 || state.scheduler.pending() > 0) {
            Some(state.scheduler.run_round(now_ms))
        } else {
            match state.scheduler.tick(now_ms) {
                Ok(Some(b)) => Some(Ok(b)),
                Ok(None) => None,
                Err(e) => Some(Err(e)),
            }
        };

        let mut stop = false;
        if let Some(batch) = batch {
            match batch {
                Ok(batch) => {
                    if state.disconnected && batch.is_empty() && state.scheduler.queued() == 0 {
                        // Shutdown fixpoint: no new requests can arrive and
                        // the rule admits nothing more (e.g. a client went
                        // away without committing).  Fail the stragglers
                        // instead of spinning forever.
                        state.fail_all_waiting(true, |key| SchedError::TransactionFinished {
                            ta: key.ta,
                        });
                        stop = true;
                    } else {
                        made_progress = !batch.is_empty();
                        rounds_ctr.inc();
                        batch_hist.observe(batch.requests.len() as u64);
                        let qualified_at = if state.recorder.enabled() && !batch.is_empty() {
                            state.recorder.now_us()
                        } else {
                            0
                        };
                        // Batch execution is sequential, so a request's
                        // `Executed` stamp is exactly the next request's
                        // `Dispatched` moment — chaining `last_us` halves the
                        // hot-path clock reads.  The stamp goes stale only
                        // when an unsampled request executes in between
                        // (sampled tracing), in which case the next dispatch
                        // re-reads.
                        let mut last_us = qualified_at;
                        let mut last_fresh = true;
                        let mut released = false;
                        for request in &batch.requests {
                            let key = request.key();
                            let sampled = state.recorder.samples(key.ta);
                            if sampled {
                                let waited = state.round_no.saturating_sub(
                                    state.submit_round.remove(&key).unwrap_or(state.round_no),
                                );
                                if waited > 0 {
                                    state.recorder.emit_at(
                                        key.ta,
                                        key.intra,
                                        qualified_at,
                                        obs::EventKind::RoundDeferred { rounds: waited },
                                    );
                                }
                                state.recorder.emit_at(
                                    key.ta,
                                    key.intra,
                                    qualified_at,
                                    obs::EventKind::Qualified,
                                );
                                if !last_fresh {
                                    last_us = state.recorder.now_us();
                                }
                                state.recorder.emit_at(
                                    key.ta,
                                    key.intra,
                                    last_us,
                                    obs::EventKind::Dispatched,
                                );
                            }
                            // Chaos hook: a `Stall` right before a terminal
                            // executes extends every lock the transaction
                            // holds.
                            if request.op.is_terminal() {
                                released = true;
                                if let Some(chaos::Fault::Stall { millis }) =
                                    state.injector.fire(chaos::Hook::WorkerCommit { shard })
                                {
                                    std::thread::sleep(Duration::from_millis(millis));
                                }
                            }
                            let result = match state.dispatcher.execute_request(request) {
                                // A late statement of a transaction the
                                // engine already finished.  A pruned history
                                // has forgotten the terminal and granted the
                                // statement a lock; record one again so the
                                // refusal leaves no lock behind.
                                Err(refused)
                                    if request.op.is_data()
                                        && state.dispatcher.transaction_finished(request.ta) =>
                                {
                                    released = true;
                                    let terminal = Request::abort(0, request.ta, request.intra);
                                    state
                                        .scheduler
                                        .preload_history(&[terminal])
                                        .and(Err(refused))
                                }
                                result => result,
                            };
                            executed_ctr.inc();
                            if sampled {
                                last_us = state.recorder.now_us();
                                state.recorder.emit_at(
                                    key.ta,
                                    key.intra,
                                    last_us,
                                    obs::EventKind::Executed,
                                );
                            }
                            last_fresh = sampled;
                            state.executed_log.push(*request);
                            state.resolve(key, result);
                        }
                        state.round_no += 1;
                        // A terminal frees locks, an executed statement may
                        // be the earlier submission a handshake waits for:
                        // either way this round is the event parked
                        // handshakes are re-armed by.
                        state.releases += u64::from(released);
                        if made_progress && !state.parked.is_empty() {
                            state.wake_parked(released);
                        }
                    }
                }
                Err(e) => {
                    // A rule failure fails every waiting client rather than
                    // hanging them.  The recorder freezes its window so the
                    // events leading up to the failure survive post-mortem.
                    rule_failures_ctr.inc();
                    state
                        .recorder
                        .freeze_anomaly(&format!("shard {}: rule failure: {e}", state.shard));
                    let err = e.clone();
                    let reclaim = state.disconnected;
                    state.fail_all_waiting(reclaim, |_| err.clone());
                    // A shard whose rule fails releases nothing: hand parked
                    // handshakes back, so their attempt bound (or the same
                    // rule error) settles them instead of a wedged shard.
                    state.wake_parked(true);
                    if state.disconnected {
                        // The drain loop cannot make progress if the rule
                        // keeps erroring (run_round never empties the
                        // pending relation), so stop instead of spinning.
                        stop = true;
                    }
                }
            }
        }

        // Last call, local fixpoint: no release is coming for what is still
        // parked here, so its next attempt is the final one.
        if state.last_call && !made_progress && state.held.is_none() {
            for parked in std::mem::take(&mut state.parked) {
                state.lane.rearm(&parked, true);
            }
        }

        // One hub synchronization for everything the round resolved.
        state.flush_completions();

        busy_us += iteration_started.elapsed().as_micros() as u64;
        if stop {
            break;
        }
        if state.disconnected && state.scheduler.queued() == 0 && state.scheduler.pending() == 0 {
            break;
        }
    }
    state.flush_completions();

    // Publish the true final depth (0 on a clean drain; the stranded
    // backlog if the drain bailed on a rule failure) — the loop's last
    // sample predates the final round.
    state.depth.store(
        (state.scheduler.queued() + state.scheduler.pending()) as u64,
        Ordering::Relaxed,
    );

    // Prefer the kernel's on-CPU accounting; the accumulated wall spans
    // are the portable fallback (exact on an unloaded box, inflated by
    // preemption on an oversubscribed one).
    let busy_us = match (cpu_at_start, thread_on_cpu_us()) {
        (Some(start), Some(end)) => end.saturating_sub(start),
        _ => busy_us,
    };

    ShardReport {
        shard: state.shard,
        scheduler: state.scheduler.metrics(),
        dispatch: state.dispatcher.totals(),
        peak_pending: state.peak_pending,
        busy_us,
        final_rows: state.dispatcher.final_rows(rows),
        executed_log: state.executed_log,
    }
}
