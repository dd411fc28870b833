//! Scheduler trigger policies.
//!
//! The paper (Section 3.3): "Periodically, the scheduler gets triggered …
//! The trigger condition can be configured (dynamically).  The best condition
//! has to be evaluated experimentally.  Possible conditions are, e.g. a lapse
//! of time, a certain fill level of the incoming queue or a hybrid version."
//! All three are implemented here; `examples/paper_experiments.rs` runs
//! them side by side.

use crate::queue::IncomingQueue;

/// When should a scheduling round start?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerPolicy {
    /// Fire when at least `interval_ms` virtual milliseconds have passed
    /// since the last drain.
    TimeElapsed {
        /// Interval between rounds.
        interval_ms: u64,
    },
    /// Fire when the incoming queue holds at least `threshold` requests.
    FillLevel {
        /// Queue length threshold.
        threshold: usize,
    },
    /// Fire when either condition holds (the paper's "hybrid version") —
    /// bounded latency *and* bounded batch size.
    Hybrid {
        /// Interval between rounds.
        interval_ms: u64,
        /// Queue length threshold.
        threshold: usize,
    },
    /// Fire on every tick (schedule each request as it arrives); the
    /// degenerate case, useful as a no-batching baseline.
    Always,
}

impl TriggerPolicy {
    /// Decide whether a scheduling round should run at `now_ms` given the
    /// current queue state.  An empty queue never fires.
    pub fn should_fire(&self, queue: &IncomingQueue, now_ms: u64) -> bool {
        if queue.is_empty() {
            return false;
        }
        match *self {
            TriggerPolicy::TimeElapsed { interval_ms } => {
                now_ms.saturating_sub(queue.last_drain_ms()) >= interval_ms
            }
            TriggerPolicy::FillLevel { threshold } => queue.len() >= threshold,
            TriggerPolicy::Hybrid {
                interval_ms,
                threshold,
            } => {
                queue.len() >= threshold
                    || now_ms.saturating_sub(queue.last_drain_ms()) >= interval_ms
            }
            TriggerPolicy::Always => true,
        }
    }

    /// The earliest time at which [`TriggerPolicy::should_fire`] holds with
    /// no further arrival: the time-based policies' next interval end, now
    /// for `Always`, and `None` for a pure fill level or an empty queue —
    /// only an arrival can make those fire.
    pub fn deadline_ms(&self, queue: &IncomingQueue, now_ms: u64) -> Option<u64> {
        if queue.is_empty() {
            return None;
        }
        match *self {
            TriggerPolicy::TimeElapsed { interval_ms }
            | TriggerPolicy::Hybrid { interval_ms, .. } => {
                Some(queue.last_drain_ms().saturating_add(interval_ms))
            }
            TriggerPolicy::FillLevel { .. } => None,
            TriggerPolicy::Always => Some(now_ms),
        }
    }

    /// Short label used in experiment output.
    pub fn label(&self) -> String {
        match *self {
            TriggerPolicy::TimeElapsed { interval_ms } => format!("time({interval_ms}ms)"),
            TriggerPolicy::FillLevel { threshold } => format!("fill({threshold})"),
            TriggerPolicy::Hybrid {
                interval_ms,
                threshold,
            } => format!("hybrid({interval_ms}ms,{threshold})"),
            TriggerPolicy::Always => "always".to_string(),
        }
    }
}

impl Default for TriggerPolicy {
    /// The hybrid policy with conservative defaults; the paper expects the
    /// best setting to be found experimentally.
    fn default() -> Self {
        TriggerPolicy::Hybrid {
            interval_ms: 10,
            threshold: 256,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;

    fn queue_with(n: usize, arrival_ms: u64) -> IncomingQueue {
        let mut q = IncomingQueue::new();
        for i in 0..n {
            q.push(Request::read(i as u64, 1, i as u32, i as i64), arrival_ms);
        }
        q
    }

    #[test]
    fn empty_queue_never_fires() {
        let q = IncomingQueue::new();
        for policy in [
            TriggerPolicy::Always,
            TriggerPolicy::TimeElapsed { interval_ms: 0 },
            TriggerPolicy::FillLevel { threshold: 0 },
            TriggerPolicy::default(),
        ] {
            assert!(!policy.should_fire(&q, 1_000));
        }
    }

    #[test]
    fn time_trigger_waits_for_interval() {
        let mut q = queue_with(1, 0);
        q.drain(0);
        q.push(Request::read(9, 1, 0, 1), 1);
        let policy = TriggerPolicy::TimeElapsed { interval_ms: 10 };
        assert!(!policy.should_fire(&q, 5));
        assert!(policy.should_fire(&q, 10));
    }

    #[test]
    fn fill_trigger_fires_on_threshold() {
        let q = queue_with(7, 0);
        assert!(!TriggerPolicy::FillLevel { threshold: 8 }.should_fire(&q, 0));
        assert!(TriggerPolicy::FillLevel { threshold: 7 }.should_fire(&q, 0));
    }

    #[test]
    fn hybrid_fires_on_either_condition() {
        let policy = TriggerPolicy::Hybrid {
            interval_ms: 100,
            threshold: 5,
        };
        let q = queue_with(5, 0);
        assert!(policy.should_fire(&q, 1)); // fill level reached
        let q = queue_with(1, 0);
        assert!(!policy.should_fire(&q, 50));
        assert!(policy.should_fire(&q, 100)); // time reached
    }

    #[test]
    fn always_fires_whenever_nonempty() {
        let q = queue_with(1, 0);
        assert!(TriggerPolicy::Always.should_fire(&q, 0));
    }

    /// The deadline is exact: one millisecond earlier the trigger holds
    /// back, at the deadline it fires.  Without a queue there is none.
    #[test]
    fn deadline_is_the_first_instant_the_trigger_fires() {
        let mut q = queue_with(1, 0);
        q.drain(7);
        q.push(Request::read(9, 1, 0, 1), 8);
        let timed = [
            TriggerPolicy::TimeElapsed { interval_ms: 10 },
            TriggerPolicy::Hybrid {
                interval_ms: 10,
                threshold: 5,
            },
            TriggerPolicy::default(),
        ];
        for policy in timed {
            let deadline = policy.deadline_ms(&q, 8).expect("a timed policy");
            assert!(!policy.should_fire(&q, deadline - 1), "{}", policy.label());
            assert!(policy.should_fire(&q, deadline), "{}", policy.label());
        }
        // `Always` fires at every instant, so its deadline is the present.
        assert_eq!(TriggerPolicy::Always.deadline_ms(&q, 8), Some(8));
        assert!(TriggerPolicy::Always.should_fire(&q, 8));
        // A fill level below its threshold waits for arrivals, not time.
        let fill = TriggerPolicy::FillLevel { threshold: 2 };
        assert_eq!(fill.deadline_ms(&q, 8), None);
        assert!(!fill.should_fire(&q, u64::MAX));
        let empty = IncomingQueue::new();
        for policy in timed.into_iter().chain([TriggerPolicy::Always, fill]) {
            assert_eq!(policy.deadline_ms(&empty, 8), None, "{}", policy.label());
        }
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(TriggerPolicy::Always.label(), "always");
        assert!(TriggerPolicy::default().label().starts_with("hybrid"));
        assert_eq!(
            TriggerPolicy::TimeElapsed { interval_ms: 5 }.label(),
            "time(5ms)"
        );
        assert_eq!(TriggerPolicy::FillLevel { threshold: 3 }.label(), "fill(3)");
    }
}
