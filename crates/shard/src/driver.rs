//! The shard worker's thread — the one place in the scheduling path that
//! blocks, reads the clock or sleeps.  [`WorkerCore`] and the escalation
//! lane are I/O-free handlers; [`Wire`] is their threaded [`Context`].

use crate::hub::CompletionHub;
use crate::metrics::ShardReport;
use crate::worker::{Completion, Context, ShardMessage, Wake, WorkerCore};
use crossbeam::channel::{Receiver, SendError, Sender};
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
}

/// Sleep off a chaos `Stall`.
pub(crate) fn stall(millis: u64) {
    std::thread::sleep(Duration::from_millis(millis));
}

/// The threaded [`Context`]: a post is a channel send that leaves at once;
/// a step's stall is slept off when the step publishes, before its
/// completions reach the hub.
pub(crate) struct Wire<'a> {
    pub(crate) mailboxes: &'a [Sender<ShardMessage>],
    pub(crate) hub: &'a CompletionHub,
    pub(crate) stall_ms: u64,
}

impl Context for Wire<'_> {
    fn post(&mut self, shard: usize, message: ShardMessage) -> Result<(), ShardMessage> {
        let sent = self.mailboxes[shard].send(message);
        sent.map_err(|SendError(message)| message)
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

/// The shard worker thread body: block until mail or the trigger's
/// deadline, hand the mail to the core, then step it.  `mailboxes` holds
/// every mailbox of the fleet, this worker's own included, so its channel
/// never disconnects: shutdown is a message.
pub(crate) fn run_worker(
    mut core: WorkerCore,
    receiver: Receiver<ShardMessage>,
    mailboxes: &[Sender<ShardMessage>],
    hub: &CompletionHub,
    clock: Clock,
) -> ShardReport {
    let cpu_at_start = thread_on_cpu_us();
    let mut wire = Wire {
        mailboxes,
        hub,
        stall_ms: 0,
    };
    // Processing time, excluding the waits for mail: the fallback busy time.
    let mut busy_us = 0u64;
    let mut wake = Wake::Mail;
    while wake != Wake::Stop {
        let mut mail = match wake {
            Wake::Now => receiver.try_recv().ok(),
            // (A deadline beyond `Instant`'s range is no deadline.)
            Wake::At(ms) => match clock.0.checked_add(Duration::from_millis(ms)) {
                Some(deadline) => receiver.recv_deadline(deadline).ok(),
                None => receiver.recv().ok(),
            },
            Wake::Mail | Wake::Stop => receiver.recv().ok(),
        };
        let started = Instant::now();
        while let Some(message) = mail {
            core.handle(message, clock.now_us(), &mut wire);
            mail = receiver.try_recv().ok();
        }
        wake = core.tick(clock.now_us(), &mut wire);
        busy_us += started.elapsed().as_micros() as u64;
    }
    // Prefer the kernel's on-CPU time: wall spans absorb preemption on an
    // oversubscribed box.
    let busy_us = match (cpu_at_start, thread_on_cpu_us()) {
        (Some(start), Some(end)) => end.saturating_sub(start),
        _ => busy_us,
    };
    core.into_report(busy_us)
}

/// Microseconds this thread has spent on-CPU, from the kernel's scheduler
/// statistics; `None` where unavailable.
fn thread_on_cpu_us() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let on_cpu_ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(on_cpu_ns / 1_000)
}
