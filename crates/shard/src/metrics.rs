//! Fleet-wide metrics: merging per-shard scheduler metrics with routing and
//! escalation counters.

use declsched::{DispatchReport, Request, SchedulerMetrics};
use std::time::Duration;

/// What one shard worker reports when it shuts down.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// The shard scheduler's accumulated metrics.
    pub scheduler: SchedulerMetrics,
    /// The shard dispatcher's totals (reads/writes/commits executed on this
    /// shard's engine, including escalated requests executed here).
    pub dispatch: DispatchReport,
    /// Microseconds this worker spent *processing* — draining its mailbox,
    /// running rounds, executing batches and handshake slices — excluding
    /// time blocked waiting for traffic: the wall time of the core's own
    /// `handle` and `tick` calls, on whichever thread ran them (its
    /// driver's, or a client's that ran the pass).  The fleet's critical
    /// path (the busiest shard's `busy_us`) is what the shard-scaling bench
    /// reports as wall time: on a one-core CI box the elapsed time of N
    /// timeshared workers measures the machine, not the deployment, while
    /// the maximum per-shard busy time projects what an N-core deployment
    /// achieves.
    pub busy_us: u64,
    /// Final value of every benchmark-table row on this shard's engine
    /// (index = row key).  Only rows whose home shard is this one were ever
    /// written here; the unified `Report` merges per-shard snapshots by home
    /// shard.
    pub final_rows: Vec<i64>,
    /// Every request this shard executed, in execution order.  Because each
    /// object has exactly one home shard, concatenating nothing — just
    /// filtering this log per object — yields the total per-object execution
    /// order, which the equivalence tests compare across shard counts.
    pub executed_log: Vec<Request>,
}

/// Counters kept by the escalation lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EscalationStats {
    /// Cross-shard transactions escalated to the lane.
    pub escalations: u64,
    /// Escalations that failed (rule error, starvation bound hit, or a
    /// touched shard gone).
    pub failed: u64,
    /// Prepare rounds beyond the first, summed over all escalations: each
    /// is one re-arm of a denied handshake by a terminal executing on the
    /// shard it was parked on.
    pub retries: u64,
    /// Requests executed through the lane.
    pub escalated_requests: u64,
    /// Most escalations executing concurrently at any instant.  Disjoint
    /// shard sets run in parallel, so this exceeds 1 whenever independent
    /// cross-shard transactions overlapped in time.
    pub concurrent_peak: u64,
}

/// What the router itself contributes to the aggregated metrics at
/// shutdown: routing counters plus the live queue gauges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterSnapshot {
    /// Transactions routed (fast path + escalated).  Counted only after a
    /// submission actually reached a worker or the escalation lane, so
    /// shutdown races cannot inflate it.
    pub transactions: u64,
    /// Transactions that took the escalation lane.
    pub cross_shard_transactions: u64,
    /// Homes-map entries still live at shutdown: transactions that were
    /// routed but neither terminated nor reclaimed (a leak witness — 0 on a
    /// clean run).
    pub unreclaimed_homes: u64,
    /// High-water mark of requests in flight fleet-wide (submitted and not
    /// yet resolved) — a true concurrent-occupancy peak, incremented at
    /// submission and decremented at completion.
    pub peak_inflight: u64,
}

/// Aggregated view over a whole sharded run, built by
/// [`ShardedMetrics::aggregate`] from per-shard reports plus router and
/// escalation counters.
#[derive(Debug, Clone)]
pub struct ShardedMetrics {
    /// Number of shards.
    pub shards: usize,
    /// All per-shard scheduler metrics merged ([`SchedulerMetrics::merge`]).
    pub merged: SchedulerMetrics,
    /// All per-shard dispatch totals merged.
    pub dispatch: DispatchReport,
    /// High-water mark of requests concurrently in flight fleet-wide:
    /// submitted (in a mailbox, queued, or pending on a shard) and not yet
    /// resolved.  This is a true occupancy peak — a request counts only
    /// between its submission and its completion, so a serial client that
    /// submits 1 280 transactions one at a time reports its real pipeline
    /// depth, not 1 280.
    pub peak_pending: usize,
    /// Transactions routed (fast path + escalated).
    pub transactions: u64,
    /// Transactions that took the escalation lane.
    pub cross_shard_transactions: u64,
    /// Homes-map entries still live at shutdown (0 on a clean run).
    pub unreclaimed_homes: u64,
    /// Most escalations executing concurrently at any instant (disjoint
    /// shard sets run in parallel through the lane).
    pub escalations_concurrent_peak: u64,
    /// Escalation-lane counters.
    pub escalation: EscalationStats,
    /// Wall-clock duration of the run (start to shutdown).
    pub wall: Duration,
}

impl ShardedMetrics {
    /// Merge shard reports and router counters into the fleet-wide view.
    pub fn aggregate(
        reports: &[ShardReport],
        router: RouterSnapshot,
        escalation: EscalationStats,
        wall: Duration,
    ) -> Self {
        let mut merged = SchedulerMetrics::new();
        let mut dispatch = DispatchReport::default();
        for report in reports {
            merged.merge(&report.scheduler);
            dispatch.merge(&report.dispatch);
        }
        ShardedMetrics {
            shards: reports.len(),
            merged,
            dispatch,
            peak_pending: router.peak_inflight as usize,
            transactions: router.transactions,
            cross_shard_transactions: router.cross_shard_transactions,
            unreclaimed_homes: router.unreclaimed_homes,
            escalations_concurrent_peak: escalation.concurrent_peak,
            escalation,
            wall,
        }
    }

    /// Fraction of routed transactions that crossed shards.
    pub fn cross_shard_rate(&self) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            self.cross_shard_transactions as f64 / self.transactions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(shard: usize, rounds: u64, scheduled: u64) -> ShardReport {
        ShardReport {
            shard,
            scheduler: SchedulerMetrics {
                rounds,
                requests_scheduled: scheduled,
                max_batch: scheduled,
                ..SchedulerMetrics::default()
            },
            dispatch: DispatchReport {
                executed: scheduled,
                commits: 1,
                ..DispatchReport::default()
            },
            busy_us: 1_000 * rounds,
            final_rows: Vec::new(),
            executed_log: Vec::new(),
        }
    }

    #[test]
    fn aggregate_merges_shards_and_rates() {
        let reports = vec![report(0, 3, 30), report(1, 5, 10)];
        let m = ShardedMetrics::aggregate(
            &reports,
            RouterSnapshot {
                transactions: 20,
                cross_shard_transactions: 5,
                unreclaimed_homes: 0,
                peak_inflight: 17,
            },
            EscalationStats {
                escalations: 5,
                escalated_requests: 15,
                retries: 2,
                failed: 0,
                concurrent_peak: 3,
            },
            Duration::from_secs(2),
        );
        assert_eq!(m.shards, 2);
        assert_eq!(m.merged.rounds, 8);
        assert_eq!(m.merged.requests_scheduled, 40);
        assert_eq!(m.merged.max_batch, 30);
        assert_eq!(m.dispatch.executed, 40);
        assert_eq!(m.dispatch.commits, 2);
        assert_eq!(m.peak_pending, 17);
        assert_eq!(m.escalations_concurrent_peak, 3);
        assert_eq!(m.unreclaimed_homes, 0);
        assert_eq!(m.escalation.retries, 2);
        assert_eq!(m.cross_shard_rate(), 0.25);
    }

    #[test]
    fn empty_run_has_zero_rates() {
        let m = ShardedMetrics::aggregate(
            &[],
            RouterSnapshot::default(),
            EscalationStats::default(),
            Duration::ZERO,
        );
        assert_eq!(m.cross_shard_rate(), 0.0);
    }
}
