//! Minimal, dependency-free stand-in for the `crossbeam` crate.
//!
//! The workspace builds offline, so this local shim provides the
//! `crossbeam::channel` API subset the middleware and shard crates use:
//! `bounded` / `unbounded` MPSC channels with `send`, `recv`, `try_recv`,
//! `recv_deadline` and `recv_timeout`, plus disconnect detection on both
//! ends.  Built on `std::sync::{Mutex, Condvar}`.
//!
//! Four additions are not crossbeam API: [`channel::Receiver::wait_ready`]
//! blocks until the channel has a message *without taking it*,
//! [`channel::Sender::wake`] ends such a wait with nothing sent,
//! [`channel::Receiver::drain_into`] takes every buffered message under one
//! lock, and [`channel::Receiver::close`] disconnects a receiver that stays
//! shared.  The shard drivers need them: whoever holds a driver may take
//! its letters, so the driver thread only waits for them, and a driver
//! whose pass panicked refuses its later letters.
//!
//! A condvar notify costs a futex wake-up syscall even when nobody waits,
//! which is an order of magnitude more than the lock around it.  So each
//! channel counts its parked receivers and senders under its lock, and a
//! `send` or a `recv` notifies only when the other side is parked: a
//! receiver that is busy, or a sender on an unbounded channel, costs
//! nothing to the other end.  Disconnects still notify unconditionally.

/// Multi-producer channels with timeouts and disconnect detection.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        cap: Option<usize>,
        /// Receivers parked in `recv` / `recv_deadline`: a send notifies
        /// `not_empty` only while one is.
        parked_receivers: usize,
        /// Senders parked on a full bounded channel: a receive notifies
        /// `not_full` only while one is.
        parked_senders: usize,
        /// A [`Sender::wake`] that no [`Receiver::wait_ready`] has seen yet.
        woken: bool,
        /// [`Receiver::close`] was called: sends fail as if every receiver
        /// were gone.
        closed: bool,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Inner<T> {
        /// A message left the buffer: wake a sender parked on the freed slot,
        /// if there is one.
        fn taken(&self, state: &State<T>) {
            if state.parked_senders > 0 {
                self.not_full.notify_one();
            }
        }
    }

    /// Error returned by [`Sender::send`] when every receiver is gone; carries
    /// the unsent message.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message is currently buffered.
        Empty,
        /// Every sender is gone and the buffer is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`] and
    /// [`Receiver::recv_deadline`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with no message.
        Timeout,
        /// Every sender is gone and the buffer is drained.
        Disconnected,
    }

    /// The sending half of a channel; cheap to clone.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Create a channel with unlimited buffering.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// Create a channel buffering at most `cap` messages (a zero capacity is
    /// rounded up to one; true rendezvous channels are not supported).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap.max(1)))
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                cap,
                parked_receivers: 0,
                parked_senders: 0,
                woken: false,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Number of messages currently buffered in the channel.
        pub fn len(&self) -> usize {
            self.inner
                .state
                .lock()
                .expect("channel lock poisoned")
                .queue
                .len()
        }

        /// Whether the channel buffer is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Send a message, blocking while a bounded channel is full.  Fails
        /// (returning the message) once every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.inner.state.lock().expect("channel lock poisoned");
            loop {
                if state.receivers == 0 || state.closed {
                    return Err(SendError(value));
                }
                let full = state.cap.is_some_and(|c| state.queue.len() >= c);
                if !full {
                    state.queue.push_back(value);
                    if state.parked_receivers > 0 {
                        self.inner.not_empty.notify_one();
                    }
                    return Ok(());
                }
                state.parked_senders += 1;
                state = self
                    .inner
                    .not_full
                    .wait(state)
                    .expect("channel lock poisoned");
                state.parked_senders -= 1;
            }
        }
    }

    impl<T> Sender<T> {
        /// End the receiver's current or next [`Receiver::wait_ready`]
        /// without sending anything.  The wake is kept until a wait sees
        /// it, so one sent before the receiver parks is not lost.
        pub fn wake(&self) {
            let mut state = self.inner.state.lock().expect("channel lock poisoned");
            state.woken = true;
            if state.parked_receivers > 0 {
                self.inner.not_empty.notify_one();
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner
                .state
                .lock()
                .expect("channel lock poisoned")
                .senders += 1;
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.inner.state.lock().expect("channel lock poisoned");
            state.senders -= 1;
            if state.senders == 0 {
                self.inner.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receive, blocking until a message arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.inner.state.lock().expect("channel lock poisoned");
            loop {
                if let Some(value) = state.queue.pop_front() {
                    self.inner.taken(&state);
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state.parked_receivers += 1;
                state = self
                    .inner
                    .not_empty
                    .wait(state)
                    .expect("channel lock poisoned");
                state.parked_receivers -= 1;
            }
        }

        /// Receive without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.inner.state.lock().expect("channel lock poisoned");
            if let Some(value) = state.queue.pop_front() {
                self.inner.taken(&state);
                return Ok(value);
            }
            if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Block until a message is buffered, a [`Sender::wake`] arrives,
        /// every sender is gone or `deadline` (if any) passes — without
        /// taking a message.  Consumes the pending wake, if any.
        pub fn wait_ready(&self, deadline: Option<Instant>) {
            let mut state = self.inner.state.lock().expect("channel lock poisoned");
            loop {
                if !state.queue.is_empty() || state.woken || state.senders == 0 || state.closed {
                    state.woken = false;
                    return;
                }
                let timeout = match deadline {
                    Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                        Some(left) if !left.is_zero() => Some(left),
                        _ => return,
                    },
                    None => None,
                };
                state.parked_receivers += 1;
                state = match timeout {
                    Some(left) => {
                        self.inner
                            .not_empty
                            .wait_timeout(state, left)
                            .expect("channel lock poisoned")
                            .0
                    }
                    None => self
                        .inner
                        .not_empty
                        .wait(state)
                        .expect("channel lock poisoned"),
                };
                state.parked_receivers -= 1;
            }
        }

        /// Move every buffered message, in order, onto the back of `into`
        /// under one lock; returns how many moved.
        pub fn drain_into(&self, into: &mut VecDeque<T>) -> usize {
            let mut state = self.inner.state.lock().expect("channel lock poisoned");
            let moved = state.queue.len();
            into.extend(state.queue.drain(..));
            // Every freed slot may have a parked sender waiting for it.
            if moved > 0 && state.parked_senders > 0 {
                self.inner.not_full.notify_all();
            }
            moved
        }

        /// Disconnect the channel as dropping every receiver would, while
        /// this one stays shared: every later send fails and hands its
        /// message back, and every [`Receiver::wait_ready`] ends at once.
        /// Returns what was buffered, in order.
        pub fn close(&self) -> VecDeque<T> {
            let mut state = self.inner.state.lock().expect("channel lock poisoned");
            state.closed = true;
            self.inner.not_empty.notify_all();
            self.inner.not_full.notify_all();
            std::mem::take(&mut state.queue)
        }

        /// Receive, blocking for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_deadline(Instant::now() + timeout)
        }

        /// Receive, blocking until `deadline` at the latest (a deadline in
        /// the past only takes what is already buffered).
        pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
            let mut state = self.inner.state.lock().expect("channel lock poisoned");
            loop {
                if let Some(value) = state.queue.pop_front() {
                    self.inner.taken(&state);
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                state.parked_receivers += 1;
                let (next, timed_out) = self
                    .inner
                    .not_empty
                    .wait_timeout(state, deadline - now)
                    .expect("channel lock poisoned");
                state = next;
                state.parked_receivers -= 1;
                if timed_out.timed_out() && state.queue.is_empty() {
                    return if state.senders == 0 {
                        Err(RecvTimeoutError::Disconnected)
                    } else {
                        Err(RecvTimeoutError::Timeout)
                    };
                }
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.inner.state.lock().expect("channel lock poisoned");
            state.receivers -= 1;
            if state.receivers == 0 {
                self.inner.not_full.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::{Duration, Instant};

        #[test]
        fn round_trip_and_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_is_observed_on_both_ends() {
            let (tx, rx) = unbounded::<i32>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            let (tx, rx) = unbounded::<i32>();
            drop(rx);
            assert!(tx.send(5).is_err());
        }

        #[test]
        fn timeout_fires_and_messages_cross_threads() {
            let (tx, rx) = bounded(1);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            let t = std::thread::spawn(move || tx.send(42).unwrap());
            assert_eq!(rx.recv_timeout(Duration::from_millis(500)), Ok(42));
            t.join().unwrap();
        }

        #[test]
        fn deadline_in_the_past_takes_only_what_is_buffered() {
            let (tx, rx) = unbounded();
            let past = Instant::now();
            assert_eq!(rx.recv_deadline(past), Err(RecvTimeoutError::Timeout));
            tx.send(3).unwrap();
            assert_eq!(rx.recv_deadline(past), Ok(3));
        }

        /// Wait until `parked` reads one (at most 200 ms, so a count that is
        /// never raised still gets its waiter parked), run `wake`, and
        /// require the waiter to finish within a watchdog deadline.
        fn parked_waiter_is_woken<T: Send + 'static>(
            waiter: impl FnOnce() -> T + Send + 'static,
            parked: impl Fn() -> usize,
            wake: impl FnOnce(),
        ) -> T {
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let waiting = std::thread::spawn(move || done_tx.send(waiter()));
            let patience = Instant::now() + Duration::from_millis(200);
            while parked() != 1 && Instant::now() < patience {
                std::thread::sleep(Duration::from_millis(1));
            }
            wake();
            let woken = done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the parked waiter was never woken");
            waiting.join().unwrap().unwrap();
            woken
        }

        fn parked_receivers<T>(tx: &Sender<T>) -> usize {
            tx.inner.state.lock().unwrap().parked_receivers
        }

        fn parked_senders<T>(rx: &Receiver<T>) -> usize {
            rx.inner.state.lock().unwrap().parked_senders
        }

        #[test]
        fn a_send_wakes_a_receiver_parked_in_recv() {
            let (tx, rx) = unbounded();
            let got = parked_waiter_is_woken(
                move || rx.recv(),
                || parked_receivers(&tx),
                || tx.send(1).unwrap(),
            );
            assert_eq!(got, Ok(1));
        }

        #[test]
        fn a_send_wakes_a_receiver_parked_in_recv_deadline() {
            let (tx, rx) = unbounded();
            let far = Instant::now() + Duration::from_secs(600);
            let got = parked_waiter_is_woken(
                move || rx.recv_deadline(far),
                || parked_receivers(&tx),
                || tx.send(2).unwrap(),
            );
            assert_eq!(got, Ok(2));
        }

        #[test]
        fn a_receive_wakes_a_sender_parked_on_a_full_channel() {
            for try_recv in [false, true] {
                let (tx, rx) = bounded(1);
                tx.send(0).unwrap();
                let rx = std::sync::Arc::new(rx);
                let (probe, taker) = (std::sync::Arc::clone(&rx), std::sync::Arc::clone(&rx));
                let sent = parked_waiter_is_woken(
                    move || tx.send(1).is_ok(),
                    move || parked_senders(&probe),
                    move || {
                        let taken = if try_recv {
                            taker.try_recv().ok()
                        } else {
                            taker.recv().ok()
                        };
                        assert_eq!(taken, Some(0));
                    },
                );
                assert!(sent, "try_recv: {try_recv}");
                assert_eq!(rx.recv(), Ok(1));
            }
        }

        #[test]
        fn wait_ready_takes_nothing_and_ends_on_mail_a_wake_or_its_deadline() {
            let (tx, rx) = unbounded();
            let soon = Instant::now() + Duration::from_millis(5);
            rx.wait_ready(Some(soon));
            tx.send(4).unwrap();
            tx.send(5).unwrap();
            rx.wait_ready(None);
            let mut drained = VecDeque::from([3]);
            assert_eq!(rx.drain_into(&mut drained), 2);
            assert_eq!(drained, [3, 4, 5]);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            // A wake sent before the wait is kept for it, and seen once.
            tx.wake();
            rx.wait_ready(None);
            let rx = std::sync::Arc::new(rx);
            let waiter = std::sync::Arc::clone(&rx);
            let probe = tx.clone();
            parked_waiter_is_woken(
                move || waiter.wait_ready(None),
                move || parked_receivers(&probe),
                move || tx.wake(),
            );
        }

        #[test]
        fn close_hands_back_later_sends_and_ends_waits() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            assert_eq!(rx.close(), [1]);
            assert!(matches!(tx.send(2), Err(SendError(2))));
            rx.wait_ready(None);
            // A receiver parked before the close is woken by it.
            let (tx, rx) = unbounded::<i32>();
            let rx = std::sync::Arc::new(rx);
            let waiter = std::sync::Arc::clone(&rx);
            parked_waiter_is_woken(
                move || waiter.wait_ready(None),
                || parked_receivers(&tx),
                || assert!(rx.close().is_empty()),
            );
        }

        #[test]
        fn cloned_senders_keep_channel_alive() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            drop(tx);
            tx2.send(7).unwrap();
            drop(tx2);
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Err(RecvError));
        }
    }
}
