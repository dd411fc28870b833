//! Scheduler-side metrics: what the declarative scheduling overhead
//! experiment (paper Section 4.3) measures.

/// Counters and timings accumulated by a [`crate::scheduler::DeclarativeScheduler`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SchedulerMetrics {
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// Requests submitted to the incoming queue.
    pub requests_submitted: u64,
    /// Requests qualified and dispatched across all rounds.
    pub requests_scheduled: u64,
    /// Distinct requests that stayed pending at least one round because the
    /// rule did not qualify them on first evaluation.  Each request counts
    /// **once**, however many rounds it waited; the cumulative
    /// request-rounds of waiting are in [`deferred_request_rounds`].
    ///
    /// [`deferred_request_rounds`]: SchedulerMetrics::deferred_request_rounds
    pub requests_deferred: u64,
    /// Sum over rounds of the pending count left after the round — i.e. one
    /// request waiting N rounds contributes N.  This is what
    /// `requests_deferred` used to (mis)report.
    pub deferred_request_rounds: u64,
    /// Total wall-clock microseconds spent evaluating the declarative rule
    /// (for a custom Datalog rule: feeding its inputs, at the round's start
    /// and end, included).
    pub rule_eval_micros: u64,
    /// Total wall-clock microseconds spent per round end to end (drain,
    /// insert, rule, delete, history insert) — the quantity the paper's
    /// Section 4.3.2 reports per scheduler run.
    pub round_micros: u64,
    /// Total wall-clock microseconds spent assembling the rule-evaluation
    /// catalog (snapshotting `requests`/`history`, deriving `sla`, cloning
    /// aux relations).  Zero-copy snapshots keep this near zero; before
    /// them it was the dominant non-engine cost.
    pub catalog_build_micros: u64,
    /// Rounds answered by the incremental qualification engine instead of a
    /// from-scratch rule evaluation.
    pub incremental_rounds: u64,
    /// Pending requests re-examined by the incremental engine across all
    /// rounds (its unit of work: requests on objects whose pending or lock
    /// state changed since the previous round).
    pub delta_rows: u64,
    /// Strata of a custom Datalog rule patched in place from their inputs'
    /// row deltas, across all rounds (`datalog::EvaluationStats::maintained`).
    pub strata_maintained: u64,
    /// Strata of a custom Datalog rule cleared and recomputed, across all
    /// rounds: every stratum on the rule's first round, afterwards only
    /// those above an input that was fed whole (or inside a recursion that
    /// lost a row).  A steady state leaves this where the first round put
    /// it.
    pub strata_recomputed: u64,
    /// `tick` calls short-circuited because nothing changed since the last
    /// round (no arrival, no history change, no aux update) — the rule
    /// would provably re-derive the same result, so no round runs.
    pub rounds_skipped: u64,
    /// Largest batch produced by a single round.
    pub max_batch: u64,
    /// Where the rounds' wall-clock time went, phase by phase.
    pub phases: RoundPhases,
}

/// Wall-clock nanoseconds spent in each phase of a scheduling round, summed
/// over rounds.  Consecutive phases share their boundary clock read, so
/// together they account for the whole of [`SchedulerMetrics::round_micros`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RoundPhases {
    /// Draining the incoming queue into the pending store.
    pub drain_insert_nanos: u64,
    /// Qualifying: the built-in qualifier, a custom rule's round-start feed
    /// and evaluation, or catalog assembly plus a from-scratch evaluation.
    pub qualify_nanos: u64,
    /// The intra-transaction order filter on the qualified keys.
    pub intra_filter_nanos: u64,
    /// Taking the qualified requests out of the pending store and ordering
    /// the batch.
    pub take_sort_nanos: u64,
    /// Recording the batch in the history store (lock index included).
    pub history_insert_nanos: u64,
    /// Pruning finished transactions from the history.
    pub prune_nanos: u64,
    /// Feeding a custom rule its round's outcome (zero for built-ins).
    pub custom_feed_nanos: u64,
}

impl RoundPhases {
    /// Add another run's (or round's) phase times to this one.
    pub fn merge(&mut self, other: &RoundPhases) {
        self.drain_insert_nanos += other.drain_insert_nanos;
        self.qualify_nanos += other.qualify_nanos;
        self.intra_filter_nanos += other.intra_filter_nanos;
        self.take_sort_nanos += other.take_sort_nanos;
        self.history_insert_nanos += other.history_insert_nanos;
        self.prune_nanos += other.prune_nanos;
        self.custom_feed_nanos += other.custom_feed_nanos;
    }
}

impl SchedulerMetrics {
    /// Create zeroed metrics.
    pub fn new() -> Self {
        SchedulerMetrics::default()
    }

    /// Average number of requests scheduled per round.
    pub fn avg_batch_size(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.requests_scheduled as f64 / self.rounds as f64
        }
    }

    /// Average rule evaluation time per round in microseconds.
    pub fn avg_rule_eval_micros(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.rule_eval_micros as f64 / self.rounds as f64
        }
    }

    /// Average end-to-end round time in microseconds (the paper's
    /// "total execution time" per scheduler run).
    pub fn avg_round_micros(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.round_micros as f64 / self.rounds as f64
        }
    }

    /// Average microseconds per round spent in each phase, named and in
    /// round order (see [`RoundPhases`]).
    pub fn phase_micros_per_round(&self) -> [(&'static str, f64); 7] {
        let p = &self.phases;
        [
            ("drain + pending insert", p.drain_insert_nanos),
            ("qualify", p.qualify_nanos),
            ("intra-order filter", p.intra_filter_nanos),
            ("take + sort", p.take_sort_nanos),
            ("history insert", p.history_insert_nanos),
            ("prune", p.prune_nanos),
            ("custom feed", p.custom_feed_nanos),
        ]
        .map(|(name, nanos)| (name, nanos as f64 / 1e3 / self.rounds.max(1) as f64))
    }

    /// Fold another scheduler's metrics into this one.  Counters and timings
    /// add; `max_batch` takes the maximum.  This is how the sharded
    /// aggregator (`shard::ShardedMetrics`) merges per-shard metrics into a
    /// fleet-wide view.
    pub fn merge(&mut self, other: &SchedulerMetrics) {
        self.rounds += other.rounds;
        self.requests_submitted += other.requests_submitted;
        self.requests_scheduled += other.requests_scheduled;
        self.requests_deferred += other.requests_deferred;
        self.deferred_request_rounds += other.deferred_request_rounds;
        self.rule_eval_micros += other.rule_eval_micros;
        self.round_micros += other.round_micros;
        self.catalog_build_micros += other.catalog_build_micros;
        self.incremental_rounds += other.incremental_rounds;
        self.delta_rows += other.delta_rows;
        self.strata_maintained += other.strata_maintained;
        self.strata_recomputed += other.strata_recomputed;
        self.rounds_skipped += other.rounds_skipped;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.phases.merge(&other.phases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_guard_against_zero_rounds() {
        let m = SchedulerMetrics::new();
        assert_eq!(m.avg_batch_size(), 0.0);
        assert_eq!(m.avg_rule_eval_micros(), 0.0);
        assert_eq!(m.avg_round_micros(), 0.0);
        assert!(m.phase_micros_per_round().iter().all(|&(_, us)| us == 0.0));
    }

    #[test]
    fn merge_adds_counters_and_maxes_batches() {
        let mut a = SchedulerMetrics {
            rounds: 2,
            requests_scheduled: 10,
            rule_eval_micros: 100,
            round_micros: 200,
            max_batch: 6,
            ..SchedulerMetrics::default()
        };
        let b = SchedulerMetrics {
            rounds: 3,
            requests_scheduled: 5,
            requests_deferred: 2,
            deferred_request_rounds: 7,
            rule_eval_micros: 50,
            round_micros: 80,
            catalog_build_micros: 5,
            incremental_rounds: 2,
            delta_rows: 11,
            strata_maintained: 6,
            strata_recomputed: 3,
            rounds_skipped: 4,
            max_batch: 9,
            phases: RoundPhases {
                qualify_nanos: 700,
                prune_nanos: 30,
                ..RoundPhases::default()
            },
            ..SchedulerMetrics::default()
        };
        a.phases.qualify_nanos = 300;
        a.merge(&b);
        assert_eq!(a.phases.qualify_nanos, 1_000);
        assert_eq!(a.phases.prune_nanos, 30);
        assert_eq!(a.phase_micros_per_round()[1], ("qualify", 0.2));
        assert_eq!(a.rounds, 5);
        assert_eq!(a.requests_scheduled, 15);
        assert_eq!(a.requests_deferred, 2);
        assert_eq!(a.deferred_request_rounds, 7);
        assert_eq!(a.rule_eval_micros, 150);
        assert_eq!(a.round_micros, 280);
        assert_eq!(a.catalog_build_micros, 5);
        assert_eq!(a.incremental_rounds, 2);
        assert_eq!(a.delta_rows, 11);
        assert_eq!(a.strata_maintained, 6);
        assert_eq!(a.strata_recomputed, 3);
        assert_eq!(a.rounds_skipped, 4);
        assert_eq!(a.max_batch, 9);
    }

    #[test]
    fn averages_compute() {
        let m = SchedulerMetrics {
            rounds: 4,
            requests_scheduled: 100,
            rule_eval_micros: 2_000,
            round_micros: 4_000,
            ..SchedulerMetrics::default()
        };
        assert_eq!(m.avg_batch_size(), 25.0);
        assert_eq!(m.avg_rule_eval_micros(), 500.0);
        assert_eq!(m.avg_round_micros(), 1_000.0);
    }
}
