//! The fleet's driver threads — the one place in the scheduling path that
//! blocks, reads the clock or sleeps.  [`WorkerCore`] and the escalation
//! lane are I/O-free handlers; [`Wire`] is their threaded [`Context`].
//!
//! A fleet of n shard cores runs on m = min(n, available cores) drivers:
//! shard i lives on driver i mod m, and a driver owns its cores and one
//! channel of `(shard, message)` letters.  The shape is an event loop that
//! serves several hosts: one wait, then each core that has mail or a due
//! deadline is handled and stepped.
//!
//! * A post to a core on another driver, or from a client's thread, is one
//!   channel send, as it was when every shard had its own thread.
//! * A post from a driver to one of its own cores (a *co-resident* post,
//!   e.g. a decider's `Release2pc` to a sibling on the same driver) is a
//!   push onto that driver's local queue: no channel and no wake-up.
//! * **Causality.**  The local queue is the driver's mail in arrival order.
//!   A co-resident post first moves whatever the channel holds onto the
//!   local queue, so it lands behind every letter sent before it (a
//!   client's earlier statement stays ahead of the prepare a co-resident
//!   admission posts for its transaction's escalation).  And the driver
//!   empties its local queue before it takes the next letter from the
//!   channel, so a letter sent after it (another thread's `Prepare` for
//!   the next job, admitted once this release let it start) lands behind
//!   it.
//! * A core is stepped only when it got mail in this pass, its last step
//!   asked for `Wake::Now`, or its `Wake::At` deadline has passed; an idle
//!   sibling is not stepped, so a chaos `WorkerRound { shard }` visit is
//!   still one step of that core.
//! * A chaos `Stall` is slept off by the driver, so it pauses every core
//!   that shares the stalled core's driver, not only the stalled one.
//! * A post to a core that has stopped is handed back, as a post to an
//!   exited worker thread was: each shard's [`Mailbox`] has a closed flag.

use crate::hub::CompletionHub;
use crate::metrics::ShardReport;
use crate::worker::{Completion, Context, ShardMessage, Wake, WorkerCore};
use crossbeam::channel::{unbounded, Receiver, SendError, Sender};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The fleet clock: one epoch for every thread of a fleet, so the lane can
/// time a phase from a stamp another thread took.
#[derive(Clone, Copy)]
pub(crate) struct Clock(Instant);

impl Clock {
    pub(crate) fn start() -> Self {
        Clock(Instant::now())
    }

    pub(crate) fn now_us(self) -> u64 {
        self.0.elapsed().as_micros() as u64
    }

    fn now_ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Sleep off a chaos `Stall`.
pub(crate) fn stall(millis: u64) {
    std::thread::sleep(Duration::from_millis(millis));
}

/// A message on its way to a shard core.
type Letter = (usize, ShardMessage);

/// One shard's mailbox.  Aligned so that two shards' counters, written by
/// different threads, never share a cache line.
#[repr(align(64))]
struct Mailbox {
    driver: usize,
    /// Letters posted to this shard and not yet handled, counted where the
    /// driver has other cores: its channel also holds their mail, so this
    /// count is what keeps a shard's backlog its own.  A driver of one
    /// core has its channel's length instead, and its posts skip the count.
    queued: Option<AtomicUsize>,
    /// The core has stopped: later posts are handed back.
    closed: AtomicBool,
}

impl Mailbox {
    /// Count a letter posted, where letters are counted.
    fn posted(&self) {
        if let Some(queued) = &self.queued {
            queued.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count a letter taken (or handed back), where letters are counted.
    fn taken(&self) {
        if let Some(queued) = &self.queued {
            queued.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Every mailbox of a fleet: one channel per driver, one [`Mailbox`] per
/// shard.  The fleet keeps every channel's sender, so a driver's channel
/// never disconnects while the fleet is up: shutdown is a message.
pub(crate) struct PostOffice {
    channels: Vec<Sender<Letter>>,
    mailboxes: Vec<Mailbox>,
}

impl PostOffice {
    /// Mailboxes for `shards` cores on `drivers` drivers, and each driver's
    /// receiving end.
    pub(crate) fn new(shards: usize, drivers: usize) -> (Self, Vec<Receiver<Letter>>) {
        let (channels, receivers) = (0..drivers).map(|_| unbounded()).unzip();
        let mailboxes = (0..shards)
            .map(|shard| Mailbox {
                driver: shard % drivers,
                queued: (shard % drivers + drivers < shards).then(|| AtomicUsize::new(0)),
                closed: AtomicBool::new(false),
            })
            .collect();
        (
            PostOffice {
                channels,
                mailboxes,
            },
            receivers,
        )
    }

    /// Letters posted to `shard` that its core has not handled yet.
    pub(crate) fn queued(&self, shard: usize) -> usize {
        let mailbox = &self.mailboxes[shard];
        match &mailbox.queued {
            Some(queued) => queued.load(Ordering::Relaxed),
            None => self.channels[mailbox.driver].len(),
        }
    }

    fn drivers(&self) -> usize {
        self.channels.len()
    }
}

/// The threaded [`Context`]: a post leaves at once (a channel send, or a
/// push onto the posting driver's local queue); a step's stall is slept
/// off when the step publishes, before its completions reach the hub.
pub(crate) struct Wire<'a> {
    post_office: &'a PostOffice,
    hub: &'a CompletionHub,
    stall_ms: u64,
    /// On a driver's thread: the driver and its channel.
    own: Option<(usize, &'a Receiver<Letter>)>,
    /// The driver's co-resident mail, in arrival order.
    local: VecDeque<Letter>,
}

impl<'a> Wire<'a> {
    /// The context a client's thread posts through: every post is a send.
    pub(crate) fn client(post_office: &'a PostOffice, hub: &'a CompletionHub) -> Self {
        Wire {
            post_office,
            hub,
            stall_ms: 0,
            own: None,
            local: VecDeque::new(),
        }
    }

    /// The driver's next letter: the local queue's oldest, else the
    /// channel's.  (The causality rule: a letter sent after a co-resident
    /// post is handled after it.)
    fn next_letter(&mut self) -> Option<Letter> {
        let channel = self.own.map(|(_, receiver)| receiver);
        self.local
            .pop_front()
            .or_else(|| channel.and_then(|receiver| receiver.try_recv().ok()))
    }
}

impl Context for Wire<'_> {
    fn post(&mut self, shard: usize, message: ShardMessage) -> Result<(), ShardMessage> {
        let mailbox = &self.post_office.mailboxes[shard];
        if mailbox.closed.load(Ordering::Acquire) {
            return Err(message);
        }
        mailbox.posted();
        match self.own {
            Some((driver, receiver)) if driver == mailbox.driver => {
                // What the channel holds was sent before this post.
                while let Ok(letter) = receiver.try_recv() {
                    self.local.push_back(letter);
                }
                self.local.push_back((shard, message));
                Ok(())
            }
            _ => {
                let sent = self.post_office.channels[mailbox.driver].send((shard, message));
                sent.map_err(|SendError((_, message))| {
                    mailbox.taken();
                    message
                })
            }
        }
    }

    fn publish(&mut self, completions: &mut Vec<Completion>) {
        if self.stall_ms > 0 {
            stall(std::mem::take(&mut self.stall_ms));
        }
        if !completions.is_empty() {
            self.hub.resolve_many(completions.drain(..));
        }
    }

    fn stall(&mut self, millis: u64) {
        self.stall_ms += millis;
    }
}

/// One core on its driver, with what the driver knows about it.
struct Seat {
    core: WorkerCore,
    /// What the core's last step asked for.
    wake: Wake,
    /// The core got mail in this pass.
    mailed: bool,
    /// Wall time of this core's own `handle` and `tick` calls.
    busy_ns: u64,
}

impl Seat {
    /// Whether the core is due for a step at `now_us`.
    fn due(&self, now_us: u64) -> bool {
        self.mailed
            || match self.wake {
                Wake::Now => true,
                Wake::At(ms) => ms.saturating_mul(1_000) <= now_us,
                Wake::Mail | Wake::Stop => false,
            }
    }

    /// Charge the core with the time since `mark`, and move `mark` to now.
    fn charge(&mut self, mark: &mut u64, clock: Clock) {
        let now = clock.now_ns();
        self.busy_ns += now - *mark;
        *mark = now;
    }
}

/// A driver thread's body: block until mail or the earliest deadline of
/// its cores, hand the mail to its cores (the local queue before each next
/// channel letter), then step every core that is due.  `cores` are the
/// shards `driver`, `driver + m`, `driver + 2m`, … of a fleet on m drivers.
/// Returns once every core has stopped.
pub(crate) fn run_driver(
    driver: usize,
    cores: Vec<WorkerCore>,
    receiver: Receiver<Letter>,
    post_office: &PostOffice,
    hub: &CompletionHub,
    clock: Clock,
) -> Vec<ShardReport> {
    let cpu_at_start = thread_on_cpu_us();
    let drivers = post_office.drivers();
    let mut wire = Wire {
        own: Some((driver, &receiver)),
        ..Wire::client(post_office, hub)
    };
    let mut seats: Vec<Seat> = cores
        .into_iter()
        .map(|core| Seat {
            core,
            wake: Wake::Mail,
            mailed: false,
            busy_ns: 0,
        })
        .collect();
    let mut live = seats.len();
    while live > 0 {
        let due_now = !wire.local.is_empty() || seats.iter().any(|s| s.wake == Wake::Now);
        let first = if due_now {
            receiver.try_recv().ok()
        } else {
            let earliest = seats.iter().filter_map(|seat| match seat.wake {
                Wake::At(ms) => Some(ms),
                _ => None,
            });
            // (A deadline beyond `Instant`'s range is no deadline.)
            let deadline = earliest
                .min()
                .and_then(|ms| clock.0.checked_add(Duration::from_millis(ms)));
            match deadline {
                Some(deadline) => receiver.recv_deadline(deadline).ok(),
                None => receiver.recv().ok(),
            }
        };
        wire.local.extend(first);
        // Each span from `mark` to the next clock read is one core's call.
        let mut mark = clock.now_ns();
        while let Some((shard, message)) = wire.next_letter() {
            post_office.mailboxes[shard].taken();
            let seat = &mut seats[shard / drivers];
            if seat.wake == Wake::Stop {
                // Raced the core's stop: dropped, its reply resolves closed.
                continue;
            }
            seat.core.handle(message, mark / 1_000, &mut wire);
            seat.mailed = true;
            seat.charge(&mut mark, clock);
        }
        for (index, seat) in seats.iter_mut().enumerate() {
            if !seat.due(mark / 1_000) {
                continue;
            }
            seat.mailed = false;
            seat.wake = seat.core.tick(mark / 1_000, &mut wire);
            seat.charge(&mut mark, clock);
            if seat.wake == Wake::Stop {
                let shard = driver + index * drivers;
                post_office.mailboxes[shard]
                    .closed
                    .store(true, Ordering::Release);
                live -= 1;
            }
        }
    }
    // A driver of one core can report the kernel's on-CPU time, which wall
    // spans overstate on an oversubscribed box; several cores cannot split
    // it.
    let on_cpu_us = match (seats.len(), cpu_at_start, thread_on_cpu_us()) {
        (1, Some(start), Some(end)) => Some(end.saturating_sub(start)),
        _ => None,
    };
    seats
        .into_iter()
        .map(|seat| {
            let busy_us = on_cpu_us.unwrap_or(seat.busy_ns / 1_000);
            seat.core.into_report(busy_us)
        })
        .collect()
}

/// Microseconds this thread has spent on-CPU, from the kernel's scheduler
/// statistics; `None` where unavailable.
fn thread_on_cpu_us() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let on_cpu_ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(on_cpu_ns / 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(letter: Option<Letter>) -> Option<(usize, u64)> {
        match letter? {
            (shard, ShardMessage::Release2pc { job_id }) => Some((shard, job_id)),
            _ => unreachable!("only releases are posted here"),
        }
    }

    /// Two cores on one driver: a co-resident post lands behind every
    /// letter sent before it and ahead of every letter sent after it.
    #[test]
    fn a_co_resident_post_keeps_its_place_among_channel_letters() {
        let (post_office, mut receivers) = PostOffice::new(2, 1);
        let receiver = receivers.pop().unwrap();
        let hub = CompletionHub::new();
        let release = |job_id| ShardMessage::Release2pc { job_id };
        let mut client = Wire::client(&post_office, &hub);
        let mut driver = Wire {
            own: Some((0, &receiver)),
            ..Wire::client(&post_office, &hub)
        };
        assert!(client.post(1, release(1)).is_ok());
        assert!(driver.post(1, release(2)).is_ok());
        assert!(client.post(0, release(3)).is_ok());
        assert_eq!(post_office.queued(1), 2);
        let order: Vec<_> = std::iter::from_fn(|| job(driver.next_letter())).collect();
        assert_eq!(order, [(1, 1), (1, 2), (0, 3)]);
    }

    /// A post to a core that has stopped is handed back.
    #[test]
    fn a_post_to_a_stopped_core_is_handed_back() {
        let (post_office, _receivers) = PostOffice::new(2, 1);
        let hub = CompletionHub::new();
        post_office.mailboxes[1]
            .closed
            .store(true, Ordering::Release);
        let mut client = Wire::client(&post_office, &hub);
        assert!(client.post(0, ShardMessage::LastCall).is_ok());
        assert!(client.post(1, ShardMessage::LastCall).is_err());
        assert_eq!((post_office.queued(0), post_office.queued(1)), (1, 0));
    }
}
