//! The per-client session: pipelined transaction submission.

use crate::backend::Backend;
use crate::builder::{ShedPolicy, ShedState};
use crate::observe::SessionObs;
use crate::ticket::{Ticket, TicketCell, TierTrack, TxnReceipt};
use crate::tier::TierRegistry;
use crate::txn::Txn;
use declsched::{Request, SchedError, SchedResult};
use std::sync::Arc;
use std::time::Instant;

/// One connected client's view of a scheduler deployment.
///
/// Sessions are cheap; connect one per client thread.  Submission is
/// nonblocking — [`Session::submit`] returns a [`Ticket`] immediately, so
/// a single session can keep dozens of transactions in flight and await
/// them in any order (or not at all: [`Session::drain`] settles whatever
/// is still outstanding).
///
/// A session tracks which of its transactions are still **open** (routed
/// but no terminal submitted).  Dropping the session abandons them: the
/// backend releases any per-transaction routing state (the shard router's
/// homes entries), so a client that walks away mid-transaction cannot leak
/// routing entries for the lifetime of the deployment.
pub struct Session {
    backend: Arc<dyn Backend>,
    tiers: Arc<TierRegistry>,
    /// Live shed policy, shared with the owning scheduler handle and
    /// every sibling session (so mid-run policy swaps apply everywhere).
    shed: Arc<ShedState>,
    observe: Arc<SessionObs>,
    /// Chaos fault injector; `SessionSubmit` fires once per submission.
    injector: Arc<chaos::FaultInjector>,
    inflight: Vec<Arc<TicketCell>>,
    /// `inflight` length at which `submit_raw` next drops the resolved
    /// cells: twice what the last trim left, so trimming costs amortised
    /// O(1) per submission and the vector stays within twice the
    /// unresolved count (plus [`MIN_TRIM`]).
    trim_at: usize,
    /// Transactions this session routed without a terminal yet (probed on
    /// every submission, hence the id hasher).
    open: obs::FastIdSet<u64>,
}

/// Below this many tracked cells a trim is not worth its pass.
const MIN_TRIM: usize = 64;

impl Session {
    pub(crate) fn new(
        backend: Arc<dyn Backend>,
        tiers: Arc<TierRegistry>,
        shed: Arc<ShedState>,
        observe: Arc<SessionObs>,
        injector: Arc<chaos::FaultInjector>,
    ) -> Self {
        Session {
            backend,
            tiers,
            shed,
            observe,
            injector,
            inflight: Vec::new(),
            trim_at: MIN_TRIM,
            open: obs::FastIdSet::default(),
        }
    }

    /// Submit a transaction without waiting for it to execute.
    pub fn submit(&mut self, txn: Txn) -> SchedResult<Ticket> {
        let ta = txn.ta();
        self.submit_raw(ta, txn.into_requests())
    }

    /// Submit pre-built requests (one transaction, intra order) without
    /// waiting — the escape hatch for generated workloads that already
    /// carry request rows.
    pub fn submit_requests(&mut self, requests: Vec<Request>) -> SchedResult<Ticket> {
        let ta = requests.first().map(|r| r.ta).unwrap_or(0);
        self.submit_raw(ta, requests)
    }

    fn submit_raw(&mut self, ta: u64, requests: Vec<Request>) -> SchedResult<Ticket> {
        let statements = requests.len();
        let sla = requests.first().and_then(|r| r.sla);
        let has_terminal = requests.iter().any(|r| r.op.is_terminal());
        let opening = !requests.is_empty() && !self.open.contains(&ta);
        // Chaos hook: a scripted `ShedFlip` swaps the live policy *before*
        // this submission's shed check, so the flip applies from exactly
        // the scripted submission onwards.
        if let Some(chaos::Fault::ShedFlip {
            enable,
            queue_watermark,
            protect_priority,
        }) = self.injector.fire(chaos::Hook::SessionSubmit)
        {
            self.shed
                .set(enable.then(|| ShedPolicy::new(queue_watermark, protect_priority)));
        }
        // Flight recorder: capture the sampled requests' intra ids before
        // the request vector moves into the backend.
        let sampled_intras: Option<Vec<u32>> = (!requests.is_empty()
            && self.observe.recorder.samples(ta))
        .then(|| requests.iter().map(|r| r.intra).collect());

        // Overload protection: while the backend is past its queue-depth
        // watermark, *opening* submissions below the protected priority are
        // rejected up front with the typed `Shed` outcome — they never
        // reach the scheduler, take no locks and execute nothing.
        // Continuations of already-admitted transactions always pass, so a
        // shed can never strand held locks.
        if let (Some(policy), Some(sla)) = (self.shed.get(), sla) {
            if opening
                && sla.priority < policy.protect_priority
                && self.backend.queue_depth() >= policy.queue_watermark
            {
                self.tiers.record_shed(sla.class);
                self.observe.record_shed(ta, sampled_intras.as_deref());
                // Born resolved; not registered in-flight (there is nothing
                // to drain and `drain` reports failures, not rejections).
                return Ok(Ticket::new(TicketCell::resolved_with(
                    ta,
                    statements,
                    Err(SchedError::Shed { class: sla.class }),
                )));
            }
        }

        // Recorded before the backend sees the requests so the `Submitted`
        // timestamp precedes the router's `Routed`/`Escalated` one.
        self.observe.record_submitted(ta, sampled_intras.as_deref());
        // Tier latency is stamped before the hand-over too: the
        // transaction may complete before `submit` returns.
        let stamped = sla.map(|s| (s, Instant::now()));
        let rx = self.backend.submit(requests)?;
        let tier = stamped.map(|(s, submitted)| {
            self.tiers.record_submitted(s.class);
            TierTrack {
                registry: Arc::clone(&self.tiers),
                class: s.class,
                submitted,
            }
        });
        let cell = TicketCell::new(
            ta,
            statements,
            rx,
            tier,
            Arc::clone(&self.observe),
            sampled_intras,
        );
        self.inflight.push(Arc::clone(&cell));
        if self.inflight.len() >= self.trim_at {
            self.inflight.retain(|cell| !cell.resolved());
            self.trim_at = (2 * self.inflight.len()).max(MIN_TRIM);
        }
        if statements > 0 {
            if has_terminal {
                self.open.remove(&ta);
            } else {
                self.open.insert(ta);
            }
        }
        Ok(Ticket::new(cell))
    }

    /// Submit a transaction and block until it has fully executed — the
    /// one-at-a-time convenience path.
    pub fn execute(&mut self, txn: Txn) -> SchedResult<TxnReceipt> {
        self.submit(txn)?.wait()
    }

    /// Block until every transaction this session still has in flight has
    /// executed.  Returns the first failure (after settling the rest), so
    /// a dropped [`Ticket`] can never hide an error.
    pub fn drain(&mut self) -> SchedResult<()> {
        let mut first_error = None;
        for cell in self.inflight.drain(..) {
            if let Err(e) = cell.wait() {
                first_error.get_or_insert(e);
            }
        }
        match first_error {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Number of transactions submitted through this session whose result
    /// has not been observed yet (by [`Ticket::wait`] or
    /// [`Session::drain`]).
    pub fn in_flight(&mut self) -> usize {
        self.inflight.retain(|cell| !cell.resolved());
        self.inflight.len()
    }

    /// Transactions this session routed without submitting a terminal yet.
    pub fn open_transactions(&self) -> usize {
        self.open.len()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Abandon what was never terminated: the backend reclaims any
        // per-transaction routing state (the shard router's homes map
        // entries would otherwise live until shutdown).
        for &ta in &self.open {
            self.backend.abandon(ta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, Completion};
    use crate::{Report, Scheduler};
    use crossbeam::channel::{bounded, Sender};
    use std::sync::Mutex;
    use std::time::Duration;

    /// Answers every transaction at once, or — with `hold` — only when the
    /// test releases the kept reply senders.
    #[derive(Default)]
    struct Stub {
        hold: bool,
        held: Mutex<Vec<Sender<SchedResult<()>>>>,
    }

    impl Backend for Stub {
        fn kind(&self) -> BackendKind {
            BackendKind::Passthrough
        }

        fn submit(&self, _requests: Vec<Request>) -> SchedResult<Completion> {
            let (reply, completion) = bounded(1);
            if self.hold {
                self.held.lock().unwrap().push(reply);
            } else {
                reply.send(Ok(())).expect("receiver in scope");
            }
            Ok(Completion::Channel(completion))
        }

        fn shutdown(&self) -> SchedResult<Report> {
            unreachable!("the tests never shut the stub down")
        }
    }

    fn txn(ta: u64) -> Txn {
        Txn::new(ta).write(7, 1).commit()
    }

    /// `execute` in a loop never calls `in_flight()` or `drain()`, so the
    /// session itself must drop the cells whose result was observed.
    #[test]
    fn observed_results_do_not_accumulate_in_the_session() {
        let scheduler = Scheduler::from_backend(Arc::new(Stub::default()));
        let mut session = scheduler.connect();
        for ta in 1..=100_000u64 {
            session.execute(txn(ta)).unwrap();
            assert!(session.inflight.len() <= MIN_TRIM, "at T{ta}");
        }
    }

    /// A waiter keeps its cell locked across the wait (the open loop's
    /// collector thread does exactly that), so the trim inside `submit`
    /// must step over that cell instead of queueing behind it.
    #[test]
    fn submitting_never_waits_behind_a_ticket_being_awaited() {
        let backend = Arc::new(Stub {
            hold: true,
            ..Stub::default()
        });
        let scheduler = Scheduler::from_backend(Arc::clone(&backend) as Arc<dyn Backend>);
        let mut session = scheduler.connect();
        let first = session.submit(txn(1)).unwrap();
        let waiter = std::thread::spawn(move || first.wait());
        let (done, submitted) = bounded(1);
        let submitter = std::thread::spawn(move || {
            for ta in 2..=4 * MIN_TRIM as u64 {
                session.submit(txn(ta)).unwrap();
            }
            done.send(()).unwrap();
        });
        let unblocked = submitted.recv_deadline(Instant::now() + Duration::from_secs(10));
        // Release everything either way, so a failure reports, not hangs.
        for reply in backend.held.lock().unwrap().drain(..) {
            let _ = reply.send(Ok(()));
        }
        waiter.join().unwrap().unwrap();
        submitter.join().unwrap();
        assert!(unblocked.is_ok(), "submit blocked behind an awaited ticket");
    }
}
