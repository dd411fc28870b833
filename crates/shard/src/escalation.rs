//! The cross-shard escalation lane: a two-phase prepare/commit handshake the
//! participants drive themselves.
//!
//! A transaction whose object footprint spans shards cannot be admitted by
//! any single shard's rule — each shard only sees its own slice of the
//! `history` relation.  The lane restores whole-transaction admission with
//! a handshake over exactly the touched shards.  There is no lane thread:
//! the router builds one shared [`Handshake`] record per transaction and
//! every step is taken by the thread that finished the previous one.
//!
//! 1. **Admission** (the submitting client's thread): jobs start in arrival
//!    order; shard-disjoint jobs run concurrently and a job never overtakes
//!    an earlier one it overlaps — unless that one is parked on a denial and
//!    holds nothing — which keeps per-object execution order, and therefore
//!    the cross-backend invariant oracle, deterministic.  Starting a job
//!    posts `Prepare` onto every touched worker's mailbox.
//! 2. **Prepare** (each touched worker): the shard qualifies the
//!    transaction's *local slice* against its own live history — the rule
//!    local rounds use, no union snapshot — and votes by decrementing the
//!    record's vote count.  A granted vote holds the shard (it buffers
//!    traffic but runs no rounds).  Per-shard votes are sound because locks
//!    are per object and every object has exactly one home shard: their
//!    conjunction is the unsharded rule's whole-footprint decision.
//!    (Custom protocols, whose rules the conflict index cannot mirror, park
//!    a history snapshot in the record instead and the decider evaluates
//!    the declarative rule over the participants' union.)
//! 3. **Decision** (the *last voter*): unanimous grant → it posts `Commit`
//!    to its siblings and executes its own sub-batch at once; a denial → it
//!    releases the siblings, steps the job aside (the jobs behind it go
//!    ahead: the lock holder's own commit may be one of them) and parks the
//!    record on the denying shard, where the next terminal to execute (the
//!    only thing that frees a lock) re-arms the handshake into its arrival
//!    position; an error → it releases the siblings and fails the ticket.
//! 4. **Commit** (each touched worker): execute the sub-batch (terminals
//!    replicate to all participants), drop the hold.  The *last finisher*
//!    resolves the ticket through its round's batched hub publish and
//!    retires the job, which admits whatever the freed shards unblock.
//!
//! Shards outside the footprint never stop, and a two-shard escalation
//! costs four cross-thread hand-offs: two prepares, one commit, one ticket
//! wake-up.
//!
//! Ordering caveat: the lane serializes against *held locks* (the history
//! relations), not against local transactions still sitting in shard
//! pending queues.  An escalated transaction may therefore execute before a
//! concurrently pending local transaction with a smaller id on a shared
//! object — a legal serialization, exactly as two concurrent transactions
//! may commit in either order on the unsharded scheduler.  Locks are never
//! violated: anything already executed-but-uncommitted denies the prepare.
//! The one pending-queue check the lane does make is for its *own*
//! transaction: an earlier submission of the same transaction still waiting
//! on a touched shard denies the vote, so intra-transaction order always
//! holds.

use crate::hub::HubReply;
use crate::metrics::EscalationStats;
use crate::worker::{Context, ShardMessage};
use declsched::{shard_of, Protocol, Request, SchedError, SchedResult};
use relalg::{Catalog, Table};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Upper bound on one escalation's prepare attempts — the first plus every
/// re-arm by a shard round that released a conflicting lock — before the
/// transaction is failed as starved.
const MAX_ATTEMPTS: u32 = 100_000;

/// A shard's answer to a `Prepare`.
pub(crate) enum Vote {
    /// The shard admitted its local slice and now holds rounds until the
    /// matching `Commit`/`Release2pc`.  Custom protocols carry the shard's
    /// `history` relation at the vote point instead of a local verdict.
    Granted { snapshot: Option<Table> },
    /// A conflicting local lock — or, with `own_pending`, an earlier
    /// submission of the same transaction still queued here.
    Denied { own_pending: bool },
    /// The shard could not vote at all (a chaos kill, a lane bug).
    Error(SchedError),
}

/// What the thread that concluded a vote round must do on its own shard
/// (every other participant is told by message).
pub(crate) enum Own {
    /// Unanimous grant: execute this shard's sub-batch now.
    Execute,
    /// Drop this shard's hold, if it has one.
    Release,
}

/// A denied attempt, as the shard it waits on keeps it until a round there
/// unblocks it.
pub(crate) struct Parked {
    pub handshake: Arc<Handshake>,
    /// The denied attempt: a record parked on several shards (or re-armed
    /// already) is re-armed by exactly one of them.
    attempt: u32,
    /// The shard's release epoch when it voted: a later epoch when the
    /// record arrives to park means the release already happened.
    pub releases: u64,
    /// The denial was an earlier own submission still queued, so the
    /// wake-up is that submission executing, not a lock release.
    pub own_pending: bool,
}

/// The mutex-guarded part of a [`Handshake`]: what only denials, custom
/// snapshots, errors and the final resolution touch.
struct Ballot {
    /// This attempt's denying voters: shard, release epoch at the vote,
    /// `own_pending`.
    denials: Vec<(usize, u64, bool)>,
    /// Custom protocols: every granting voter's shard, release epoch and
    /// `history` relation at the vote.
    snapshots: Vec<(usize, u64, Table)>,
    /// First error of the current phase (a vote, or a sub-batch).
    error: Option<SchedError>,
    reply: Option<HubReply>,
}

/// The shared record of one cross-shard transaction's handshake.
pub(crate) struct Handshake {
    /// Holds are keyed by this id.
    pub job_id: u64,
    /// The transaction's requests, in intra order.
    pub requests: Vec<Request>,
    /// The fleet's shard count: a data request's home is
    /// `shard_of(object, shards)`.
    shards: usize,
    /// Touched shard ids, ascending and distinct (includes shards holding
    /// locks from the transaction's earlier submissions).
    touched: Vec<usize>,
    /// Votes still outstanding in the current attempt; whoever takes it to
    /// zero decides.
    votes_left: AtomicUsize,
    /// Sub-batches still outstanding after a unanimous grant; whoever takes
    /// it to zero resolves the ticket and retires the job.
    finishers_left: AtomicUsize,
    /// Attempts concluded with a denial so far.  Written under the
    /// admission lock by the re-arm, read by the attempt it starts.
    attempt: AtomicU32,
    /// Lane-clock stamp (µs) of admission, then of the granting decision.
    stamp_us: AtomicU64,
    ballot: Mutex<Ballot>,
}

impl Handshake {
    /// The escalated transaction, for the own-submission-pending check.
    pub(crate) fn ta(&self) -> Option<u64> {
        self.requests.first().map(|r| r.ta)
    }

    /// The data requests homed on `shard` — what its vote qualifies.
    pub(crate) fn slice(&self, shard: usize) -> impl Iterator<Item = &Request> {
        self.sub_batch(shard).filter(|r| r.op.is_data())
    }

    /// What `shard` executes on commit: its slice plus the terminals, which
    /// replicate to every participant so each engine finishes the
    /// transaction.
    pub(crate) fn sub_batch(&self, shard: usize) -> impl Iterator<Item = &Request> {
        self.requests
            .iter()
            .filter(move |r| !r.op.is_data() || shard_of(r.object, self.shards) == shard)
    }

    fn overlaps(&self, other: &Handshake) -> bool {
        self.touched.iter().any(|s| other.touched.contains(s))
    }
}

/// Every update under the lane's mutexes is a single push, take or flag
/// write, so the data is valid at every step and a panicking holder must
/// not take the rest of the fleet down with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn closed(endpoint: &'static str) -> SchedError {
    SchedError::ChannelClosed { endpoint }
}

/// The admission state: which jobs wait, which run, which stepped aside.
#[derive(Default)]
struct Admission {
    /// The last job id handed out: ids follow arrival order.
    next_job_id: u64,
    /// In arrival order.
    waiting: VecDeque<Arc<Handshake>>,
    active: Vec<Arc<Handshake>>,
    /// Denied jobs waiting for a lock release.  They hold nothing, so they
    /// block nobody; a re-arm puts them back into `waiting`.
    parked: Vec<Arc<Handshake>>,
    /// Set by [`Lane::shutdown`]: later jobs are refused.
    shutting_down: bool,
}

impl Admission {
    /// Jobs waiting for or inside a vote round or a commit.
    fn running(&self) -> usize {
        self.waiting.len() + self.active.len()
    }

    fn backlog(&self) -> usize {
        self.running() + self.parked.len()
    }

    /// Take `parked`'s record out of the parked set — unless another shard
    /// it was parked on got there first.
    fn unpark(&mut self, parked: &Parked) -> bool {
        let current = |job: &Arc<Handshake>| {
            Arc::ptr_eq(job, &parked.handshake)
                && job.attempt.load(Ordering::Relaxed) == parked.attempt
        };
        let found = self.parked.iter().position(current);
        found.map(|index| self.parked.swap_remove(index)).is_some()
    }
}

/// Everything the handshake's participants share.  Every method that
/// posts to a worker takes the caller's [`Context`], and every method that
/// stamps a phase takes the fleet clock's `now_us`: the lane owns no
/// mailbox and reads no clock.
pub(crate) struct Lane {
    /// The fleet's protocol: every handshake votes under the rule every
    /// shard's own rounds apply.
    protocol: Protocol,
    shards: usize,
    aux_relations: Vec<Table>,
    recorder: obs::SharedRecorder,
    admission: Mutex<Admission>,
    /// Signalled, once shutting down, whenever no job is left running.
    idle: Condvar,
    // The `lane.*` registry cells; [`EscalationStats`] is their snapshot.
    escalations: obs::Counter,
    retries: obs::Counter,
    failed: obs::Counter,
    escalated_requests: obs::Counter,
    concurrent_peak: Arc<AtomicU64>,
    prepare_hist: Arc<obs::MetricHistogram>,
    commit_hist: Arc<obs::MetricHistogram>,
}

impl Lane {
    pub(crate) fn new(
        config: &crate::ShardConfig,
        sink: &obs::TraceSink,
        registry: &obs::Registry,
    ) -> Arc<Self> {
        let concurrent_peak = Arc::new(AtomicU64::new(0));
        registry.adopt_gauge("lane.concurrent_peak", Arc::clone(&concurrent_peak));
        Arc::new(Lane {
            protocol: config.protocol.clone(),
            shards: config.shards.max(1),
            aux_relations: config.aux_relations.clone(),
            recorder: sink.shared_recorder(),
            admission: Mutex::default(),
            idle: Condvar::new(),
            escalations: registry.counter("lane.escalations"),
            retries: registry.counter("lane.retries"),
            failed: registry.counter("lane.failed"),
            escalated_requests: registry.counter("lane.escalated_requests"),
            concurrent_peak,
            prepare_hist: registry.histogram("lane.prepare_us"),
            commit_hist: registry.histogram("lane.commit_us"),
        })
    }

    /// Jobs waiting for, inside or parked by a handshake — the cross-shard
    /// backlog the session layer's overload shedding reads.
    pub(crate) fn backlog(&self) -> usize {
        lock(&self.admission).backlog()
    }

    /// Take in one cross-shard transaction on the caller's thread and start
    /// whatever the admission rule allows (usually the job itself).
    /// `touched` is described on [`Handshake`]; `reply` is resolved once
    /// with the outcome.
    pub(crate) fn submit(
        &self,
        requests: Vec<Request>,
        touched: Vec<usize>,
        reply: HubReply,
        now_us: u64,
        cx: &mut dyn Context,
    ) -> SchedResult<()> {
        let mut admission = lock(&self.admission);
        if admission.shutting_down {
            // Dropping `reply` resolves the ticket with the same typed
            // closed-channel error.
            return Err(closed("escalation lane (shutting down)"));
        }
        self.escalations.inc();
        admission.next_job_id += 1;
        let job_id = admission.next_job_id;
        admission.waiting.push_back(Arc::new(Handshake {
            job_id,
            requests,
            shards: self.shards,
            touched,
            votes_left: AtomicUsize::new(0),
            finishers_left: AtomicUsize::new(0),
            attempt: AtomicU32::new(0),
            stamp_us: AtomicU64::new(0),
            ballot: Mutex::new(Ballot {
                denials: Vec::new(),
                snapshots: Vec::new(),
                error: None,
                reply: Some(reply),
            }),
        }));
        self.admit(admission, now_us, cx);
        Ok(())
    }

    /// Start every waiting job whose shard set is disjoint from all running
    /// jobs *and* from every earlier waiter — arrival order is never
    /// reordered between overlapping jobs, which is the deterministic
    /// ordering rule that keeps per-object execution order identical to
    /// serialized execution.  (Parked jobs are in neither set: they hold
    /// nothing.)  The first prepares go out after the lock is
    /// dropped: jobs started together are shard-disjoint, so they cannot
    /// race each other onto one mailbox.
    fn admit(&self, mut admission: MutexGuard<'_, Admission>, now_us: u64, cx: &mut dyn Context) {
        let mut started = Vec::new();
        let mut index = 0;
        while index < admission.waiting.len() {
            let job = &admission.waiting[index];
            let earlier = admission.waiting.iter().take(index);
            if admission
                .active
                .iter()
                .chain(earlier)
                .any(|e| e.overlaps(job))
            {
                index += 1;
            } else {
                let job = admission.waiting.remove(index).expect("index in bounds");
                admission.active.push(Arc::clone(&job));
                started.push(job);
            }
        }
        if admission.shutting_down && admission.running() == 0 {
            self.idle.notify_all();
        }
        self.concurrent_peak
            .fetch_max(admission.active.len() as u64, Ordering::Relaxed);
        drop(admission);
        for handshake in started {
            handshake.stamp_us.store(now_us, Ordering::Relaxed);
            // Release: the stores above and of the previous attempt's
            // conclusion are visible to whoever takes the count to zero.
            handshake
                .votes_left
                .store(handshake.touched.len(), Ordering::Release);
            for &shard in &handshake.touched {
                let prepare = ShardMessage::Prepare(Arc::clone(&handshake));
                if cx.post(shard, prepare).is_err() {
                    // The shard's core has stopped: vote the typed error in
                    // its place so the handshake backs out, not hangs.
                    let gone = Vote::Error(closed("shard worker (prepare)"));
                    self.cast_vote(&handshake, shard, 0, gone, now_us, cx);
                }
            }
        }
    }

    /// Record `shard`'s vote (`releases` is its release epoch).  The last
    /// voter decides and is told what to do on its own shard; everyone else
    /// gets `None` and waits for the decider's message.
    pub(crate) fn cast_vote(
        &self,
        handshake: &Arc<Handshake>,
        shard: usize,
        releases: u64,
        vote: Vote,
        now_us: u64,
        cx: &mut dyn Context,
    ) -> Option<Own> {
        match vote {
            // The common case touches nothing but the count below.
            Vote::Granted { snapshot: None } => {}
            Vote::Granted {
                snapshot: Some(snapshot),
            } => lock(&handshake.ballot)
                .snapshots
                .push((shard, releases, snapshot)),
            Vote::Denied { own_pending } => {
                lock(&handshake.ballot)
                    .denials
                    .push((shard, releases, own_pending))
            }
            Vote::Error(e) => {
                lock(&handshake.ballot).error.get_or_insert(e);
            }
        }
        // AcqRel: the decider observes every earlier voter's writes.
        if handshake.votes_left.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        Some(self.decide(handshake, shard, now_us, cx))
    }

    /// Conclude a vote round on the last voter's thread.
    fn decide(
        &self,
        handshake: &Arc<Handshake>,
        me: usize,
        now_us: u64,
        cx: &mut dyn Context,
    ) -> Own {
        let (error, snapshots, mut denials) = {
            let mut ballot = lock(&handshake.ballot);
            (
                ballot.error.take(),
                std::mem::take(&mut ballot.snapshots),
                std::mem::take(&mut ballot.denials),
            )
        };
        let attempt = handshake.attempt.load(Ordering::Relaxed);
        let verdict = if let Some(e) = error {
            Err(e)
        } else if !denials.is_empty() {
            Ok(false)
        } else if snapshots.is_empty() {
            Ok(true)
        } else {
            // Custom protocols: evaluate the declarative rule over the
            // union of the participants' snapshots.  A denial may stem from
            // any of them, so it parks on all.
            denials.extend(snapshots.iter().map(|(shard, at, _)| (*shard, *at, false)));
            self.qualify_union(handshake, &snapshots)
        };
        let error = match verdict {
            Ok(true) => return self.commit(handshake, me, now_us, cx),
            Ok(false) if attempt + 1 < MAX_ATTEMPTS => {
                // Every release is posted before admission can start the
                // next job on these shards, and before the parking requests.
                self.release(handshake, |shard| shard != me, cx);
                let mut admission = lock(&self.admission);
                admission.active.retain(|job| !Arc::ptr_eq(job, handshake));
                admission.parked.push(Arc::clone(handshake));
                self.admit(admission, now_us, cx);
                for (shard, releases, own_pending) in denials {
                    let parked = Parked {
                        handshake: Arc::clone(handshake),
                        attempt,
                        releases,
                        own_pending,
                    };
                    if let Err(ShardMessage::Park(parked)) =
                        cx.post(shard, ShardMessage::Park(parked))
                    {
                        self.rearm(&parked, false, now_us, cx);
                    }
                }
                return Own::Release;
            }
            Ok(false) => SchedError::Dispatch {
                message: format!(
                    "escalation starved: a touched shard did not drain its conflicting locks \
                     within {MAX_ATTEMPTS} attempts or by shutdown"
                ),
            },
            Err(e) => e,
        };
        // Back out: every granted sibling is released, the client gets the
        // typed error, untouched shards never noticed.
        self.release(handshake, |shard| shard != me, cx);
        if let Some((reply, outcome)) = self.settle(handshake, Some(error), now_us, cx) {
            reply.resolve_now(outcome);
        }
        Own::Release
    }

    /// Unanimous grant: tell the siblings, stamp the decision.
    fn commit(
        &self,
        handshake: &Arc<Handshake>,
        me: usize,
        now_us: u64,
        cx: &mut dyn Context,
    ) -> Own {
        let admitted = handshake.stamp_us.swap(now_us, Ordering::Relaxed);
        self.prepare_hist.observe(now_us.saturating_sub(admitted));
        // Every vote granted: this is the lane's qualification point.
        // (Dispatched/Executed are recorded by the owning shards as they
        // run the sub-batches.)
        if let Some(ta) = handshake.ta().filter(|&ta| self.recorder.samples(ta)) {
            let intras: Vec<u32> = handshake.requests.iter().map(|r| r.intra).collect();
            self.recorder.emit_group_at(
                ta,
                &intras,
                self.recorder.now_us(),
                obs::EventKind::Qualified,
            );
        }
        let has_work = |shard: usize| handshake.sub_batch(shard).next().is_some();
        // The count is in place before the first sibling can finish.
        let working = handshake.touched.iter().filter(|&&s| has_work(s)).count();
        handshake.finishers_left.store(working, Ordering::Release);
        // A shard with nothing to execute is released instead — before the
        // first `Commit` goes out: the last finisher retires the job, and
        // the next job's prepare must find no hold of this one left.
        self.release(handshake, |shard| shard != me && !has_work(shard), cx);
        for &shard in handshake.touched.iter().filter(|&&s| s != me) {
            let commit = ShardMessage::Commit(Arc::clone(handshake));
            if has_work(shard) && cx.post(shard, commit).is_err() {
                let gone = closed("shard worker (commit)");
                if let Some((reply, outcome)) = self.finish(handshake, Err(gone), now_us, cx) {
                    reply.resolve_now(outcome);
                }
            }
        }
        if has_work(me) {
            Own::Execute
        } else {
            Own::Release
        }
    }

    /// Drop the hold of every touched shard `which` selects (a no-op on
    /// shards that never granted).
    fn release(&self, handshake: &Handshake, which: impl Fn(usize) -> bool, cx: &mut dyn Context) {
        for &shard in handshake.touched.iter().filter(|&&s| which(s)) {
            let job_id = handshake.job_id;
            let _ = cx.post(shard, ShardMessage::Release2pc { job_id });
        }
    }

    /// Start the next attempt of a denied handshake — called by the parking
    /// shard that released a lock (or found the release already happened).
    /// The job re-enters admission at its arrival position: it waits only
    /// for what started on its shards while it stood aside.  On shutdown's
    /// `last_call` no release is coming, so the attempt is the final one.
    pub(crate) fn rearm(
        &self,
        parked: &Parked,
        last_call: bool,
        now_us: u64,
        cx: &mut dyn Context,
    ) {
        let handshake = &parked.handshake;
        let mut admission = lock(&self.admission);
        if !admission.unpark(parked) {
            return;
        }
        let next = if last_call {
            MAX_ATTEMPTS - 1
        } else {
            parked.attempt + 1
        };
        handshake.attempt.store(next, Ordering::Relaxed);
        self.retries.inc();
        let at = admission
            .waiting
            .partition_point(|job| job.job_id < handshake.job_id);
        admission.waiting.insert(at, Arc::clone(handshake));
        self.admit(admission, now_us, cx);
    }

    /// Record one participant's commit outcome.  The last finisher gets the
    /// ticket's reply and the handshake's result to publish — a worker does
    /// so through its round's batched hub flush.
    pub(crate) fn finish(
        &self,
        handshake: &Arc<Handshake>,
        result: SchedResult<()>,
        now_us: u64,
        cx: &mut dyn Context,
    ) -> Option<(HubReply, SchedResult<()>)> {
        if let Err(e) = result {
            lock(&handshake.ballot).error.get_or_insert(e);
        }
        // AcqRel: the last finisher observes every earlier finisher's error.
        if handshake.finishers_left.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        let decided = handshake.stamp_us.load(Ordering::Relaxed);
        self.commit_hist.observe(now_us.saturating_sub(decided));
        // Siblings of a failed participant keep the (locally recorded)
        // slices they executed, exactly like a worker dying mid-execute.
        let error = lock(&handshake.ballot).error.take();
        self.settle(handshake, error, now_us, cx)
    }

    /// Count the outcome, retire the job — which admits whatever its shards
    /// were blocking — and hand back the reply to resolve.  A failed
    /// transaction may still hold locks from earlier submissions on its
    /// recorded home shards: the router's homes entry survives so a
    /// follow-up abort routes there.
    fn settle(
        &self,
        handshake: &Arc<Handshake>,
        error: Option<SchedError>,
        now_us: u64,
        cx: &mut dyn Context,
    ) -> Option<(HubReply, SchedResult<()>)> {
        let outcome = match error {
            Some(e) => {
                self.failed.inc();
                Err(e)
            }
            None => {
                self.escalated_requests.add(handshake.requests.len() as u64);
                Ok(())
            }
        };
        let mut admission = lock(&self.admission);
        admission.active.retain(|job| !Arc::ptr_eq(job, handshake));
        self.admit(admission, now_us, cx);
        let reply = lock(&handshake.ballot).reply.take();
        reply.map(|reply| (reply, outcome))
    }

    /// Evaluate a custom protocol's declarative rule over the handshake's
    /// requests ∪ the merged history snapshots of the prepared shards
    /// (∪ empty `sla`): are all its data requests admitted?  Built-in
    /// protocols never reach this: their admission decomposes into the
    /// per-shard votes.
    fn qualify_union(
        &self,
        handshake: &Handshake,
        snapshots: &[(usize, u64, Table)],
    ) -> SchedResult<bool> {
        let mut pending = Table::new("requests", Request::schema());
        for (i, request) in handshake.requests.iter().enumerate() {
            let mut row = *request;
            row.id = i as u64 + 1;
            pending.push(row.to_tuple()).map_err(SchedError::from)?;
        }
        let mut history = Table::new("history", Request::schema());
        for (_, _, snapshot) in snapshots {
            history
                .extend(snapshot.rows().iter().cloned())
                .map_err(SchedError::from)?;
        }
        let mut catalog = Catalog::new();
        catalog.register(pending);
        catalog.register(history);
        catalog.register(Table::new("sla", Request::sla_schema()));
        for aux in &self.aux_relations {
            catalog.replace(aux.clone());
        }
        let qualified = self.protocol.rules.qualify(&catalog)?;
        Ok(handshake
            .requests
            .iter()
            .filter(|r| r.op.is_data())
            .all(|r| qualified.contains(&r.key())))
    }

    /// Refuse later jobs, wait for the lane-idle event — every job admitted
    /// before this call has then resolved its ticket — and report.  Jobs
    /// still parked once nothing else runs get a last call: each parking
    /// shard gives them a final attempt as soon as it has drained whatever
    /// could still release a lock (an abandoned holder never does).
    pub(crate) fn shutdown(&self, cx: &mut dyn Context) -> EscalationStats {
        let mut admission = lock(&self.admission);
        admission.shutting_down = true;
        let mut called = false;
        while admission.backlog() > 0 {
            if admission.running() == 0 && !std::mem::replace(&mut called, true) {
                for shard in 0..self.shards {
                    let _ = cx.post(shard, ShardMessage::LastCall);
                }
            } else {
                admission = self
                    .idle
                    .wait(admission)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        drop(admission);
        EscalationStats {
            escalations: self.escalations.get(),
            failed: self.failed.get(),
            retries: self.retries.get(),
            escalated_requests: self.escalated_requests.get(),
            concurrent_peak: self.concurrent_peak.load(Ordering::Relaxed),
        }
    }
}
