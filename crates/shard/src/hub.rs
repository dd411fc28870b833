//! The completion hub: batched acknowledgement traffic from the shard
//! fleet back to the session layer.
//!
//! Before batching, every submitted transaction allocated its own
//! `bounded(1)` reply channel and every completion was a separate
//! lock-and-notify on it.  The hub replaces that with a shared map:
//! workers buffer `(token, result)` pairs over a scheduling round and
//! publish them with one lock acquisition per *stripe*
//! ([`CompletionHub::resolve_many`]), and a [`crate::TxnTicket`] waits on
//! its token under its stripe's lock.  One synchronization per batch of
//! completions, not per transaction.
//!
//! The map is split into [`STRIPES`] independent `Mutex` + `Condvar`
//! stripes keyed by token.  A single global lock would serialize every
//! worker's publish against every client's wait — and a single condvar
//! would wake all waiters on every publish (a thundering herd that grows
//! with pipelining depth).  Striping bounds both: publishes on different
//! stripes never contend, and a publish wakes only the ~1/[`STRIPES`]
//! of waiters sharing its stripe.  Each stripe also counts the tickets
//! parked on it, and a publish notifies only a stripe that has one: a
//! condvar notify is a wake-up syscall even when nobody waits.

use declsched::{SchedError, SchedResult};
use obs::{FastIdMap, FastIdSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Number of independent hub stripes; a power of two so the stripe index
/// is a mask of the token counter, which also spreads consecutive tokens
/// round-robin across stripes.
const STRIPES: usize = 32;

/// Spare scatter-bucket arrays kept in the hub's pool.  Steady state needs
/// one per concurrently-publishing worker; beyond a small surplus the
/// extras are just parked capacity, so anything over the cap is dropped.
const POOL_CAP: usize = 32;

/// The per-stripe scatter buffer [`CompletionHub::resolve_many`] sorts a
/// completion batch into before taking any stripe lock.
type BucketArray = Vec<Vec<(u64, SchedResult<()>)>>;

/// Shared completion state for a whole fleet.
///
/// A ticket dropped without waiting leaves nothing behind: its drop
/// reclaims an already-published completion, or marks the token abandoned
/// so the publisher discards the completion instead of storing it
/// ([`CompletionHub::abandon`]).
pub(crate) struct CompletionHub {
    stripes: Vec<Stripe>,
    /// Spare scatter-bucket arrays for `resolve_many`.
    bucket_pool: Mutex<Vec<BucketArray>>,
}

struct Stripe {
    inner: Mutex<HubInner>,
    cond: Condvar,
}

struct HubInner {
    results: FastIdMap<u64, SchedResult<()>>,
    /// Tokens whose ticket was dropped before the completion arrived.
    abandoned: FastIdSet<u64>,
    closed: bool,
    /// Tickets parked in [`CompletionHub::wait`] on this stripe.
    waiters: usize,
}

impl HubInner {
    /// Store a completion for its waiter — unless the ticket is gone.  The
    /// first result for a token wins.  (The set is almost always empty, and
    /// asking it that is cheaper than hashing the token to find out.)
    fn publish(&mut self, token: u64, result: SchedResult<()>) {
        if self.abandoned.is_empty() || !self.abandoned.remove(&token) {
            self.results.entry(token).or_insert(result);
        }
    }
}

impl Stripe {
    /// Release the stripe's lock and wake its parked tickets, if any.
    fn wake(&self, inner: MutexGuard<'_, HubInner>) {
        let parked = inner.waiters > 0;
        drop(inner);
        if parked {
            self.cond.notify_all();
        }
    }
}

impl CompletionHub {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(CompletionHub {
            stripes: (0..STRIPES)
                .map(|_| Stripe {
                    inner: Mutex::new(HubInner {
                        results: FastIdMap::default(),
                        abandoned: FastIdSet::default(),
                        closed: false,
                        waiters: 0,
                    }),
                    cond: Condvar::new(),
                })
                .collect(),
            bucket_pool: Mutex::new(Vec::new()),
        })
    }

    fn stripe(&self, token: u64) -> &Stripe {
        &self.stripes[(token as usize) & (STRIPES - 1)]
    }

    fn lock(stripe: &Stripe) -> MutexGuard<'_, HubInner> {
        stripe
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Publish one completion (the first result for a token wins; a
    /// later duplicate — e.g. a drop guard racing a real outcome — is
    /// discarded rather than overwriting it).
    pub(crate) fn resolve_one(&self, token: u64, result: SchedResult<()>) {
        let stripe = self.stripe(token);
        let mut inner = Self::lock(stripe);
        inner.publish(token, result);
        stripe.wake(inner);
    }

    /// Publish a batch of completions with one lock acquisition per
    /// stripe touched.  The stripe scatter buckets are drawn from (and
    /// returned to) the hub's pool, so a worker's per-round flush
    /// allocates nothing once the fleet has warmed up.
    pub(crate) fn resolve_many(&self, batch: impl IntoIterator<Item = (u64, SchedResult<()>)>) {
        let mut buckets: BucketArray = {
            let mut pool = self
                .bucket_pool
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            pool.pop().unwrap_or_default()
        };
        buckets.resize_with(STRIPES, Vec::new);
        for (token, result) in batch {
            buckets[(token as usize) & (STRIPES - 1)].push((token, result));
        }
        for (index, bucket) in buckets.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let stripe = &self.stripes[index];
            let mut inner = Self::lock(stripe);
            // `drain` (not `into_iter`) keeps each bucket's capacity for
            // the next flush through the pool.
            for (token, result) in bucket.drain(..) {
                inner.publish(token, result);
            }
            stripe.wake(inner);
        }
        let mut pool = self
            .bucket_pool
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if pool.len() < POOL_CAP {
            pool.push(buckets);
        }
    }

    /// Mark the fleet as stopped: waiters whose completion never arrived
    /// fail with a closed-channel error instead of blocking forever.
    /// Completions already published stay readable (a client may wait a
    /// ticket after shutdown).
    pub(crate) fn close(&self) {
        for stripe in &self.stripes {
            let mut inner = Self::lock(stripe);
            inner.closed = true;
            drop(inner);
            stripe.cond.notify_all();
        }
    }

    /// The ticket for `token` was dropped unwaited: take its completion out
    /// if it is already published, else have the publisher discard it.  (A
    /// closed hub publishes nothing more, so there is nothing to mark.)
    pub(crate) fn abandon(&self, token: u64) {
        let mut inner = Self::lock(self.stripe(token));
        if inner.results.remove(&token).is_none() && !inner.closed {
            inner.abandoned.insert(token);
        }
    }

    /// Block until `token`'s completion is published (removing it), or
    /// until the hub closes without one.
    pub(crate) fn wait(&self, token: u64) -> SchedResult<()> {
        let stripe = self.stripe(token);
        let mut inner = Self::lock(stripe);
        loop {
            if let Some(result) = inner.results.remove(&token) {
                return result;
            }
            if inner.closed {
                return Err(SchedError::ChannelClosed {
                    endpoint: "shard worker",
                });
            }
            inner.waiters += 1;
            inner = stripe
                .cond
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            inner.waiters -= 1;
        }
    }
}

/// The fleet-side half of a ticket: whoever ends up owning the reply
/// (a shard worker, the escalation lane, or the router's own failure
/// paths) resolves it exactly once.  Dropping it unresolved — a message
/// lost in a dying channel, a job discarded at shutdown — publishes a
/// closed-channel error, replicating the sender-drop semantics of the
/// per-transaction reply channels the hub replaced.  Either way the
/// fleet-wide in-flight request gauge is decremented by the
/// transaction's weight, which is what makes `peak_pending` a true
/// concurrent-occupancy peak.
pub(crate) struct HubReply {
    hub: Arc<CompletionHub>,
    token: u64,
    weight: u64,
    inflight: Arc<AtomicU64>,
    resolved: bool,
}

impl HubReply {
    pub(crate) fn new(
        hub: Arc<CompletionHub>,
        token: u64,
        weight: u64,
        inflight: Arc<AtomicU64>,
    ) -> Self {
        HubReply {
            hub,
            token,
            weight,
            inflight,
            resolved: false,
        }
    }

    fn settle(&mut self) {
        self.resolved = true;
        self.inflight.fetch_sub(self.weight, Ordering::Relaxed);
    }

    /// Resolve immediately (failure paths, where completions are rare
    /// enough that batching buys nothing).
    pub(crate) fn resolve_now(mut self, result: SchedResult<()>) {
        self.settle();
        self.hub.resolve_one(self.token, result);
    }

    /// Resolve into a worker-local buffer, published later in one
    /// [`CompletionHub::resolve_many`] call.
    pub(crate) fn resolve_into(
        mut self,
        result: SchedResult<()>,
        out: &mut Vec<(u64, SchedResult<()>)>,
    ) {
        self.settle();
        out.push((self.token, result));
    }
}

impl Drop for HubReply {
    fn drop(&mut self) {
        if !self.resolved {
            self.settle();
            self.hub.resolve_one(
                self.token,
                Err(SchedError::ChannelClosed {
                    endpoint: "shard worker",
                }),
            );
        }
    }
}

#[cfg(test)]
impl CompletionHub {
    /// Completions and abandonment marks currently stored, over all stripes.
    pub(crate) fn residue(&self) -> usize {
        self.stripes
            .iter()
            .map(|stripe| {
                let inner = Self::lock(stripe);
                inner.results.len() + inner.abandoned.len()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Park a ticket on `token`, wait until its stripe counts it (for at
    /// most 200 ms, so a count that is never raised still gets it parked),
    /// run `wake`, and require the ticket back within a watchdog deadline.
    fn parked_ticket_is_woken(token: u64, wake: impl FnOnce(&CompletionHub)) -> SchedResult<()> {
        let hub = CompletionHub::new();
        let (done_tx, done_rx) = crossbeam::channel::bounded(1);
        let waiter = Arc::clone(&hub);
        let waiting = std::thread::spawn(move || done_tx.send(waiter.wait(token)));
        let patience = Instant::now() + Duration::from_millis(200);
        while CompletionHub::lock(hub.stripe(token)).waiters != 1 && Instant::now() < patience {
            std::thread::yield_now();
        }
        wake(&hub);
        let woken = done_rx
            .recv_deadline(Instant::now() + Duration::from_secs(10))
            .expect("the parked ticket was never woken");
        waiting.join().unwrap().unwrap();
        woken
    }

    #[test]
    fn a_publish_wakes_a_parked_ticket() {
        let one = parked_ticket_is_woken(3, |hub| hub.resolve_one(3, Ok(())));
        assert_eq!(one, Ok(()));
        let many = parked_ticket_is_woken(5, |hub| {
            hub.resolve_many([(4, Ok(())), (5, Ok(())), (6, Ok(()))]);
        });
        assert_eq!(many, Ok(()));
    }

    #[test]
    fn closing_the_hub_wakes_a_parked_ticket() {
        let closed = parked_ticket_is_woken(7, CompletionHub::close);
        assert!(matches!(closed, Err(SchedError::ChannelClosed { .. })));
    }
}
