//! The fleet's drivers — the one place in the scheduling path that blocks,
//! reads the clock or sleeps.  [`WorkerCore`] and the escalation lane are
//! I/O-free handlers; [`Wire`] is their threaded [`Context`].
//!
//! A fleet of n shard cores runs on m = min(n, available cores) drivers:
//! shard i lives on driver i mod m.  A driver is a *desk* (its cores and
//! its local queue of co-resident mail) behind one mutex, plus one channel
//! of `(shard, message)` letters.  Its work is a *pass* over the desk: hand
//! the mail to its cores, then step every core that is due.  There is one
//! pass, and two kinds of thread run it:
//!
//! * the driver's own thread (`declsched-driver-{i}`), which waits for
//!   mail, a wake or its cores' earliest deadline, then takes the desk and
//!   runs passes until no core is due;
//! * a client thread (*caller-runs*), on a fleet whose trigger is
//!   `Always`.  A single-shard `Submit` to an idle driver (its thread is
//!   waiting for mail, not going for the desk) tries the desk's lock.  If
//!   the driver is busy, or the lock is, the submit is a channel send.  If
//!   the client gets the lock, it moves what the channel holds onto the
//!   local queue, puts its own letter behind that, and runs passes until
//!   no core of the driver is due, at most [`CALLER_PASSES`] of them: at
//!   depth 1 it handles, executes and resolves its own transaction with no
//!   send, no wake and no park.
//!
//! Which clients run passes:
//!
//! * Only under `Always`.  Under `TimeElapsed`, `FillLevel` and `Hybrid` no
//!   client runs a pass: those triggers batch on purpose, and an open-loop
//!   pacer must never run a round.
//! * Only on a fleet of one driver.  Several drivers run their passes
//!   beside the client and beside each other; a client that ran them would
//!   run them one after another.
//! * Cross-shard submissions and every other message are channel sends.
//!
//! The rules both kinds keep:
//!
//! * **Order.**  A letter leaves the channel only while its desk is held:
//!   the driver thread waits for mail without taking any.  (A driver that
//!   held a dequeued letter while a client ran a pass would reorder that
//!   shard's arrivals, and SS2PL can deadlock on reordered ids.)
//! * **Causality.**  The local queue is the desk's mail in arrival order.
//!   A post to a core of the held desk — a co-resident post such as a
//!   decider's `Release2pc` to a sibling, or a caller's own letter — first
//!   moves whatever the channel holds onto the local queue, so it lands
//!   behind every letter sent before it.  And a pass empties the local
//!   queue before it takes the next letter from the channel, so a letter
//!   sent after it lands behind it.
//! * **No lost letter, no lost deadline.**  A send to a parked driver wakes
//!   it.  A client wakes the driver (a wake is kept until the driver's next
//!   wait sees it) if it leaves a core still due — its turn is bounded, so
//!   that under several clients' load no submit serves the others' traffic
//!   for as long as they keep sending — or if its passes stopped a core or
//!   left a deadline earlier than the one the driver sleeps on.
//! * **Lock order.**  Only a driver's own thread blocks on its desk, and
//!   it holds no other lock then.  A client takes a desk by `try_lock` —
//!   the sharded fast path does so while it holds its transaction's homes
//!   stripe — and runs the passes only once it holds no other lock.  So a
//!   pass may take homes, hub and lane locks without closing a cycle.
//! * A core is stepped only when it got mail in this pass, its last step
//!   asked for `Wake::Now`, or its `Wake::At` deadline has passed; an idle
//!   sibling is not stepped, so a chaos `WorkerRound { shard }` visit is
//!   still one step of that core.
//! * A chaos `Stall` is slept off by the thread that runs the pass, holding
//!   the desk: on a driver's thread it pauses every core of that driver; in
//!   a client's pass it stalls that client too.
//! * Each core is charged the wall time of its own `handle` and `tick`
//!   calls, whichever thread runs them (its report's `busy_us`).
//! * A post to a core that has stopped is handed back, as a post to an
//!   exited worker thread was: each shard's [`Mailbox`] has a closed flag.
//! * **A pass that panics stops its driver**, as a panicking driver thread
//!   did: its cores, its local queue and its channel's letters are dropped,
//!   so every reply they hold resolves `ChannelClosed`; its channel is
//!   closed and its mailboxes are marked closed, so later posts are handed
//!   back.  The panic then goes on: out of the submit of a client whose
//!   pass it was, and the driver thread, which wakes on the closed channel,
//!   panics too.

use crate::hub::CompletionHub;
use crate::metrics::ShardReport;
use crate::worker::{Completion, Context, ShardMessage, Wake, WorkerCore};
use crossbeam::channel::{unbounded, Receiver, SendError, Sender};
use declsched::TriggerPolicy;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
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

/// No deadline: a desk whose cores wait only for mail.
const NEVER: u64 = u64::MAX;

/// The most passes a client runs in one turn at the desk.  A depth-1
/// transaction without conflicts needs one; a client that leaves a core
/// still due wakes the driver for the rest.
const CALLER_PASSES: usize = 8;

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

/// One core on its driver's desk, with what the desk knows about it.
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

/// What a driver's lock guards: the state every pass reads and writes.
struct Desk {
    /// The driver's cores: shards `driver`, `driver + m`, `driver + 2m`, …
    seats: Vec<Seat>,
    /// Co-resident mail, in arrival order.
    local: VecDeque<Letter>,
    /// Cores that have not stopped.
    live: usize,
    /// The fleet-clock millisecond the driver thread sleeps until
    /// ([`NEVER`]: until mail or a wake).
    sleeps_until: u64,
}

impl Desk {
    /// One pass: hand every letter to its core (the local queue before each
    /// next channel letter), then step every core that is due.  Returns
    /// the fleet clock at its end, in µs.
    fn pass(&mut self, driver: usize, office: &PostOffice) -> u64 {
        let drivers = office.drivers.len();
        let clock = office.clock;
        let Desk {
            seats, local, live, ..
        } = self;
        let mut wire = Wire {
            own: Some((driver, local)),
            ..Wire::client(office)
        };
        // Each span from `mark` to the next clock read is one core's call.
        let mut mark = clock.now_ns();
        while let Some((shard, message)) = wire.next_letter() {
            office.mailboxes[shard].taken();
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
                office.mailboxes[shard]
                    .closed
                    .store(true, Ordering::Release);
                *live -= 1;
            }
        }
        mark / 1_000
    }

    /// Run passes until no core is due, or for at most `limit` passes,
    /// counting each in `passes`.  Returns whether a core is still due.  A
    /// pass that panics condemns the desk before the panic goes on.
    fn serve(
        &mut self,
        driver: usize,
        office: &PostOffice,
        passes: &obs::Counter,
        limit: usize,
    ) -> bool {
        let served = panic::catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..limit {
                let now_us = self.pass(driver, office);
                passes.inc();
                let due = !self.local.is_empty() || self.seats.iter().any(|s| s.due(now_us));
                if self.live == 0 || !due {
                    return false;
                }
            }
            true
        }));
        served.unwrap_or_else(|panic| {
            office.condemn(driver, self);
            panic::resume_unwind(panic)
        })
    }

    /// The earliest `Wake::At` of the cores, in fleet milliseconds.
    fn earliest(&self) -> u64 {
        let at = self.seats.iter().filter_map(|seat| match seat.wake {
            Wake::At(ms) => Some(ms),
            _ => None,
        });
        at.min().unwrap_or(NEVER)
    }
}

/// One driver: its desk and its channel's receiving end.  Aligned so that
/// two drivers' desks, each written by its own thread, never share a cache
/// line.
#[repr(align(64))]
struct Driver {
    /// A letter leaves it only while `desk` is held (the order rule).
    receiver: Receiver<Letter>,
    desk: Mutex<Desk>,
    /// The driver's thread is done serving the desk until its next wake:
    /// cleared as it goes for the desk, set again before it lets go.  A
    /// client takes the desk only while this is set, so it does not race an
    /// awake driver for it.
    idle: AtomicBool,
}

/// Every mailbox and driver of a fleet: one channel and one desk per
/// driver, one [`Mailbox`] per shard.  The fleet keeps every channel's
/// sender, so a driver's channel never disconnects while the fleet is up:
/// shutdown is a message.
pub(crate) struct PostOffice {
    channels: Vec<Sender<Letter>>,
    mailboxes: Vec<Mailbox>,
    drivers: Vec<Driver>,
    /// Clients run passes: the fleet's trigger is `Always` and it has one
    /// driver.
    caller_runs: bool,
    /// Where every pass publishes its resolved tickets.
    pub(crate) hub: Arc<CompletionHub>,
    pub(crate) clock: Clock,
    /// Passes run by a client thread (`shard.caller_passes`).
    caller_passes: obs::Counter,
    /// Passes run by a driver's own thread (`shard.driver_passes`).
    driver_passes: obs::Counter,
}

impl PostOffice {
    /// Seat `cores` (shard i's at index i) on `drivers` desks, shard i on
    /// desk i mod `drivers`, and register the pass counters.  Clients run
    /// passes only under the `Always` trigger on a fleet of one driver.
    pub(crate) fn new(
        cores: Vec<WorkerCore>,
        drivers: usize,
        trigger: &TriggerPolicy,
        hub: Arc<CompletionHub>,
        clock: Clock,
        registry: &obs::Registry,
    ) -> Self {
        let shards = cores.len();
        let (channels, receivers): (Vec<_>, Vec<_>) = (0..drivers).map(|_| unbounded()).unzip();
        let mailboxes = (0..shards)
            .map(|shard| Mailbox {
                driver: shard % drivers,
                queued: (shard % drivers + drivers < shards).then(|| AtomicUsize::new(0)),
                closed: AtomicBool::new(false),
            })
            .collect();
        let mut seated: Vec<Vec<Seat>> = (0..drivers).map(|_| Vec::new()).collect();
        for (shard, core) in cores.into_iter().enumerate() {
            seated[shard % drivers].push(Seat {
                core,
                wake: Wake::Mail,
                mailed: false,
                busy_ns: 0,
            });
        }
        let caller_runs = *trigger == TriggerPolicy::Always && drivers == 1;
        let drivers = seated
            .into_iter()
            .zip(receivers)
            .map(|(seats, receiver)| Driver {
                receiver,
                idle: AtomicBool::new(true),
                desk: Mutex::new(Desk {
                    live: seats.len(),
                    seats,
                    local: VecDeque::new(),
                    sleeps_until: NEVER,
                }),
            })
            .collect();
        PostOffice {
            channels,
            mailboxes,
            drivers,
            caller_runs,
            hub,
            clock,
            caller_passes: registry.counter("shard.caller_passes"),
            driver_passes: registry.counter("shard.driver_passes"),
        }
    }

    /// Letters posted to `shard` that its core has not handled yet.
    pub(crate) fn queued(&self, shard: usize) -> usize {
        let mailbox = &self.mailboxes[shard];
        match &mailbox.queued {
            Some(queued) => queued.load(Ordering::Relaxed),
            None => self.channels[mailbox.driver].len(),
        }
    }

    /// The desk of `driver`, for its own thread.  A pass that panicked
    /// leaves it poisoned (and condemned), and the driver panics with it.
    fn desk(&self, driver: usize) -> MutexGuard<'_, Desk> {
        self.drivers[driver].desk.lock().unwrap_or_else(|poisoned| {
            self.condemn(driver, &mut poisoned.into_inner());
            panic!("a pass panicked on this driver")
        })
    }

    /// Stop every core of `driver` after a panic: drop its cores, its
    /// local queue and its channel's letters, so every reply they hold
    /// resolves `ChannelClosed`; close its channel and its mailboxes, so
    /// later posts are handed back and its thread wakes.  Idempotent.
    fn condemn(&self, driver: usize, desk: &mut Desk) {
        let mailboxes = self.mailboxes.iter().filter(|m| m.driver == driver);
        for mailbox in mailboxes {
            mailbox.closed.store(true, Ordering::Release);
        }
        drop(self.drivers[driver].receiver.close());
        desk.local.clear();
        desk.seats.clear();
        desk.live = 0;
    }

    /// Post a client's letter to `shard`.  On a caller-runs fleet whose
    /// driver is idle (its thread waits for mail and its desk is free),
    /// the caller takes the desk: the channel's letters move onto the
    /// local queue, this one goes behind them, and the taken desk comes
    /// back for [`CallerTurn::run`], which the caller calls once it holds
    /// no other lock.  Otherwise the letter is a channel send.  A stopped
    /// core hands the letter back.
    pub(crate) fn client_post(
        &self,
        shard: usize,
        message: ShardMessage,
    ) -> Result<Option<CallerTurn<'_>>, ShardMessage> {
        let driver = self.mailboxes[shard].driver;
        if self.caller_runs && self.drivers[driver].idle.load(Ordering::Acquire) {
            match self.drivers[driver].desk.try_lock() {
                Ok(mut desk) => {
                    let mut wire = Wire {
                        own: Some((driver, &mut desk.local)),
                        ..Wire::client(self)
                    };
                    wire.post(shard, message)?;
                    return Ok(Some(CallerTurn {
                        office: self,
                        driver,
                        desk,
                    }));
                }
                // Condemned already, unless the panic was outside a pass:
                // the post below is handed back.
                Err(TryLockError::Poisoned(poisoned)) => {
                    self.condemn(driver, &mut poisoned.into_inner());
                }
                Err(TryLockError::WouldBlock) => {}
            }
        }
        Wire::client(self).post(shard, message).map(|()| None)
    }

    /// The driver thread's wait: until its channel has mail, a client wakes
    /// it, or the fleet clock reaches `sleeps_until`.  Takes no letter.
    fn wait_for_mail(&self, driver: usize, sleeps_until: u64) {
        // (A deadline beyond `Instant`'s range is no deadline.)
        let deadline = match sleeps_until {
            NEVER => None,
            ms => self.clock.0.checked_add(Duration::from_millis(ms)),
        };
        self.drivers[driver].receiver.wait_ready(deadline);
    }

    /// The driver thread's turn: take the desk and serve it.  Continues with
    /// the millisecond to sleep until, or breaks with the cores' reports
    /// once every core has stopped.
    fn driver_turn(&self, driver: usize) -> ControlFlow<Vec<ShardReport>, u64> {
        let idle = &self.drivers[driver].idle;
        idle.store(false, Ordering::Release);
        let mut desk = self.desk(driver);
        if desk.live > 0 {
            desk.serve(driver, self, &self.driver_passes, usize::MAX);
        }
        if desk.live == 0 {
            let seats = std::mem::take(&mut desk.seats);
            let reports = seats.into_iter().map(|seat| {
                let busy_us = seat.busy_ns / 1_000;
                seat.core.into_report(busy_us)
            });
            return ControlFlow::Break(reports.collect());
        }
        desk.sleeps_until = desk.earliest();
        idle.store(true, Ordering::Release);
        ControlFlow::Continue(desk.sleeps_until)
    }
}

/// A driver's desk, taken by a client thread with its letter posted.
pub(crate) struct CallerTurn<'a> {
    office: &'a PostOffice,
    driver: usize,
    desk: MutexGuard<'a, Desk>,
}

impl CallerTurn<'_> {
    /// Run passes until no core of the driver is due, at most
    /// [`CALLER_PASSES`], then wake the driver if a core is still due, or
    /// if these passes stopped a core or left a deadline earlier than the
    /// one it sleeps on.
    pub(crate) fn run(mut self) {
        let (office, driver) = (self.office, self.driver);
        let due = self
            .desk
            .serve(driver, office, &office.caller_passes, CALLER_PASSES);
        // A core still due is a deadline of now.
        let earliest = if due { 0 } else { self.desk.earliest() };
        if self.desk.live == 0 || earliest < self.desk.sleeps_until {
            self.desk.sleeps_until = earliest;
            office.channels[driver].wake();
        }
    }
}

/// The threaded [`Context`]: a post leaves at once (a channel send, or a
/// push onto the held desk's local queue); a step's stall is slept off when
/// the step publishes, before its completions reach the hub.
pub(crate) struct Wire<'a> {
    office: &'a PostOffice,
    stall_ms: u64,
    /// Inside a pass or a caller's post: the driver whose desk this thread
    /// holds, and the desk's local queue.
    own: Option<(usize, &'a mut VecDeque<Letter>)>,
}

impl<'a> Wire<'a> {
    /// The context a thread that holds no desk posts through: every post is
    /// a send.
    pub(crate) fn client(office: &'a PostOffice) -> Self {
        Wire {
            office,
            stall_ms: 0,
            own: None,
        }
    }

    /// The held desk's next letter: the local queue's oldest; once the
    /// local queue is empty, what the channel holds moves onto it first.
    /// (The causality rule: a letter sent after a co-resident post is
    /// handled after it.)
    fn next_letter(&mut self) -> Option<Letter> {
        let (driver, local) = self.own.as_mut()?;
        if local.is_empty() {
            self.office.drivers[*driver].receiver.drain_into(local);
        }
        local.pop_front()
    }
}

impl Context for Wire<'_> {
    fn post(&mut self, shard: usize, message: ShardMessage) -> Result<(), ShardMessage> {
        let mailbox = &self.office.mailboxes[shard];
        if mailbox.closed.load(Ordering::Acquire) {
            return Err(message);
        }
        mailbox.posted();
        match &mut self.own {
            Some((driver, local)) if *driver == mailbox.driver => {
                // What the channel holds was sent before this post.
                self.office.drivers[*driver].receiver.drain_into(local);
                local.push_back((shard, message));
                Ok(())
            }
            _ => {
                let sent = self.office.channels[mailbox.driver].send((shard, message));
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
            self.office.hub.resolve_many(completions.drain(..));
        }
    }

    fn stall(&mut self, millis: u64) {
        self.stall_ms += millis;
    }
}

/// A driver thread's body: wait for mail, a wake or the earliest deadline
/// of its cores (taking no letter), then take the desk and run passes
/// until no core is due.  Returns the cores' reports once every core has
/// stopped.
pub(crate) fn run_driver(office: &PostOffice, driver: usize) -> Vec<ShardReport> {
    let mut sleeps_until = NEVER;
    loop {
        office.wait_for_mail(driver, sleeps_until);
        match office.driver_turn(driver) {
            ControlFlow::Continue(next) => sleeps_until = next,
            ControlFlow::Break(reports) => return reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::escalation::Lane;
    use crate::hub::HubReply;
    use crate::router::TxnHomes;
    use crate::tests::{always, within};
    use crate::worker::Submission;
    use crate::ShardConfig;
    use declsched::{Protocol, ProtocolKind, Request, SchedError};
    use std::sync::atomic::AtomicU64;

    /// The mailboxes and desks of a fleet configured by `config`, on
    /// `drivers` drivers, with no driver thread: the test runs every turn.
    fn office(config: &ShardConfig, drivers: usize) -> PostOffice {
        let (sink, registry) = (obs::TraceSink::disabled(), obs::Registry::new());
        let lane = Lane::new(config, &sink, &registry);
        let homes = Arc::new(TxnHomes::new());
        let cores = (0..config.shards)
            .map(|shard| WorkerCore::new(shard, config, &lane, &homes, &sink, &registry).unwrap())
            .collect();
        let trigger = &config.scheduler.trigger;
        PostOffice::new(
            cores,
            drivers,
            trigger,
            CompletionHub::new(),
            Clock::start(),
            &registry,
        )
    }

    fn fcfs(shards: usize) -> ShardConfig {
        ShardConfig::new(shards, Protocol::algebra(ProtocolKind::Fcfs)).with_table("bench", 16)
    }

    fn ss2pl() -> ShardConfig {
        ShardConfig::new(1, Protocol::algebra(ProtocolKind::Ss2pl)).with_table("bench", 16)
    }

    /// A `Submit` letter of `requests` whose reply resolves token `ta` on
    /// the office's hub.
    fn submit(office: &PostOffice, ta: u64, requests: Vec<Request>) -> ShardMessage {
        let weight = requests.len() as u64;
        let hub = Arc::clone(&office.hub);
        let reply = HubReply::new(hub, ta, weight, Arc::new(AtomicU64::new(weight)));
        ShardMessage::Submit(Submission { requests, reply })
    }

    /// Transaction `ta`: a write of `row`, and a commit unless `open`.
    fn write(ta: u64, row: i64, open: bool) -> Vec<Request> {
        let mut requests = vec![Request::write(0, ta, 0, row)];
        if !open {
            requests.push(Request::commit(0, ta, 1));
        }
        requests
    }

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
        let post_office = office(&fcfs(2), 1);
        let release = |job_id| ShardMessage::Release2pc { job_id };
        let mut client = Wire::client(&post_office);
        assert!(client.post(1, release(1)).is_ok());
        let mut desk = post_office.desk(0);
        let mut driver = Wire {
            own: Some((0, &mut desk.local)),
            ..Wire::client(&post_office)
        };
        assert!(driver.post(1, release(2)).is_ok());
        assert!(client.post(0, release(3)).is_ok());
        assert_eq!(post_office.queued(1), 2);
        let order: Vec<_> = std::iter::from_fn(|| job(driver.next_letter())).collect();
        assert_eq!(order, [(1, 1), (1, 2), (0, 3)]);
    }

    /// A post to a core that has stopped is handed back.
    #[test]
    fn a_post_to_a_stopped_core_is_handed_back() {
        let post_office = office(&fcfs(2), 1);
        post_office.mailboxes[1]
            .closed
            .store(true, Ordering::Release);
        let mut client = Wire::client(&post_office);
        assert!(client.post(0, ShardMessage::LastCall).is_ok());
        assert!(client.post(1, ShardMessage::LastCall).is_err());
        assert_eq!((post_office.queued(0), post_office.queued(1)), (1, 0));
    }

    /// Caller-runs order, step by step on one thread.  Another client's
    /// letter, sent while the desk was busy, is handled before the `Submit`
    /// of the client that takes the desk next; and the driver thread, woken
    /// by that letter before the client took the desk, finds nothing left
    /// to handle.  Both transactions write one row under FCFS, so the
    /// executed log is arrival order; each statement runs once and each
    /// ticket resolves once.
    #[test]
    fn a_callers_pass_handles_earlier_letters_first_and_a_woken_driver_none_twice() {
        let post_office = office(&always(fcfs(1)), 1);
        let hub = Arc::clone(&post_office.hub);
        let submit = |ta: u64| submit(&post_office, ta, write(ta, 5, false));

        // T1's client finds the desk busy: its letter is a channel send.
        let busy = post_office.desk(0);
        assert!(matches!(post_office.client_post(0, submit(1)), Ok(None)));
        drop(busy);
        // The driver wakes on that mail and takes no letter; it is still
        // idle until it goes for the desk.
        post_office.wait_for_mail(0, NEVER);
        // T2's client finds the desk free and serves it before the driver
        // gets there.
        let Ok(Some(turn)) = post_office.client_post(0, submit(2)) else {
            panic!("the desk is free");
        };
        turn.run();
        assert_eq!(post_office.caller_passes.get(), 1);
        assert_eq!(post_office.queued(0), 0);
        // The driver's turn: nothing is left for it.
        assert!(matches!(
            post_office.driver_turn(0),
            ControlFlow::Continue(NEVER)
        ));
        assert_eq!(post_office.driver_passes.get(), 1);
        assert_eq!((hub.wait(1), hub.wait(2)), (Ok(()), Ok(())));

        assert!(Wire::client(&post_office)
            .post(0, ShardMessage::Shutdown)
            .is_ok());
        let ControlFlow::Break(reports) = post_office.driver_turn(0) else {
            panic!("the core did not stop on shutdown");
        };
        let log: Vec<(u64, u32)> = reports[0]
            .executed_log
            .iter()
            .map(|r| (r.ta, r.intra))
            .collect();
        assert_eq!(log, [(1, 0), (1, 1), (2, 0), (2, 1)]);
        assert_eq!(hub.residue(), 0);
    }

    /// A client's turn at the desk is bounded.  With more conflicting
    /// transactions queued than its passes can run (SS2PL runs one of them
    /// per round), the client runs `CALLER_PASSES` passes and wakes the
    /// driver, whose turn runs the rest.
    #[test]
    fn a_callers_turn_is_bounded_and_wakes_the_driver_for_the_rest() {
        let post_office = office(&always(ss2pl()), 1);
        let last = 3 * CALLER_PASSES as u64;
        for ta in 1..last {
            let letter = submit(&post_office, ta, write(ta, 0, false));
            assert!(Wire::client(&post_office).post(0, letter).is_ok());
        }
        let own = submit(&post_office, last, write(last, 0, false));
        let Ok(Some(turn)) = post_office.client_post(0, own) else {
            panic!("the desk is free");
        };
        turn.run();
        assert_eq!(post_office.caller_passes.get(), CALLER_PASSES as u64);
        // The driver's wait ends at once, on the client's wake.
        let waited = Instant::now();
        let later_ms = post_office.clock.now_us() / 1_000 + 10_000;
        post_office.wait_for_mail(0, later_ms);
        assert!(waited.elapsed() < Duration::from_secs(5), "no wake");
        assert!(matches!(
            post_office.driver_turn(0),
            ControlFlow::Continue(NEVER)
        ));
        for ta in 1..=last {
            assert_eq!(post_office.hub.wait(ta), Ok(()), "T{ta}");
        }
    }

    /// A pass that panics stops its driver, as a panicking driver thread
    /// did.  Here a client's pass meets a letter for a shard the fleet does
    /// not have.  Every reply the driver held resolves `ChannelClosed`: T2
    /// waiting in its core behind T1's lock, T3 sent while the desk was
    /// busy, T4 sent behind the bad letter, and the client's own T5.  A
    /// later post is handed back, and the driver thread, parked on its
    /// channel, wakes and panics too.
    #[test]
    fn a_pass_that_panics_fails_the_tickets_it_held_and_refuses_later_ones() {
        let post_office = office(&always(ss2pl()), 1);
        let hub = Arc::clone(&post_office.hub);
        let caller_runs = |letter| {
            let Ok(Some(turn)) = post_office.client_post(0, letter) else {
                panic!("the desk is free");
            };
            turn.run();
        };
        caller_runs(submit(&post_office, 1, write(1, 0, true)));
        assert_eq!(hub.wait(1), Ok(()));
        caller_runs(submit(&post_office, 2, write(2, 0, false)));
        let busy = post_office.desk(0);
        let letter = submit(&post_office, 3, write(3, 1, false));
        assert!(matches!(post_office.client_post(0, letter), Ok(None)));
        drop(busy);
        assert!(post_office.channels[0]
            .send((1, ShardMessage::LastCall))
            .is_ok());
        let letter = submit(&post_office, 4, write(4, 2, false));
        assert!(Wire::client(&post_office).post(0, letter).is_ok());

        let own = submit(&post_office, 5, write(5, 3, false));
        let pass = panic::catch_unwind(AssertUnwindSafe(|| caller_runs(own)));
        assert!(pass.is_err(), "the bad letter did not panic the pass");
        within(10, "a ticket of the panicked driver hung", || {
            for ta in 2..=5 {
                let result = hub.wait(ta);
                let closed = matches!(result, Err(SchedError::ChannelClosed { .. }));
                assert!(closed, "T{ta}: {result:?}");
            }
            let later = submit(&post_office, 6, write(6, 4, false));
            assert!(post_office.client_post(0, later).is_err());
            let result = hub.wait(6);
            assert!(matches!(result, Err(SchedError::ChannelClosed { .. })));
            post_office.wait_for_mail(0, NEVER);
        });
        let turn = panic::catch_unwind(AssertUnwindSafe(|| post_office.driver_turn(0)));
        assert!(turn.is_err(), "the driver thread went on");
        assert_eq!(hub.residue(), 0);
    }
}
