//! The unified run report: one shape at the client surface, whatever
//! deployment produced it.

use crate::backend::BackendKind;
use crate::tier::TierReport;
use declsched::{shard_of, DispatchReport, Request, SchedulerMetrics};
use shard::{EscalationStats, ShardReport, ShardedReport};
use std::time::Duration;
use txnstore::EngineMetrics;

/// Sharded-deployment detail embedded in a [`Report`].
#[derive(Debug, Clone)]
pub struct ShardedDetail {
    /// Number of shards.
    pub shards: usize,
    /// Transactions that spanned shards and took the two-phase handshake.
    pub cross_shard_transactions: u64,
    /// Escalation-lane counters.
    pub escalation: EscalationStats,
    /// Peak pending-relation size over all shards.
    pub peak_pending: usize,
    /// Homes-map entries still live at shutdown (0 on a clean run — the
    /// leak witness the router regression tests assert on).
    pub unreclaimed_homes: u64,
    /// The raw per-shard reports (index = shard id).
    pub reports: Vec<ShardReport>,
}

/// Summary of a whole run, identical in shape for every backend so
/// deployments can be compared apples-to-apples from one scenario
/// definition.
#[derive(Debug, Clone)]
pub struct Report {
    /// Which deployment produced this report.
    pub backend: BackendKind,
    /// Transactions submitted through sessions.
    pub transactions: u64,
    /// Scheduling rounds executed (0 in passthrough mode).
    pub rounds: u64,
    /// Merged scheduler-side metrics (zeroed in passthrough mode).
    pub scheduler: SchedulerMetrics,
    /// Server-side execution totals.  Note that a sharded deployment
    /// commits a spanning transaction once on *every* touched engine.
    pub dispatch: DispatchReport,
    /// Every request executed, in execution order (per shard concatenated
    /// for sharded runs — an object lives on exactly one shard, so
    /// per-object order is total).
    pub executed_log: Vec<Request>,
    /// Final value of every benchmark-table row (index = row key; merged
    /// by home shard for sharded runs).
    pub final_rows: Vec<i64>,
    /// Sharded-deployment detail, when the backend is sharded.
    pub sharded: Option<ShardedDetail>,
    /// The server's native scheduler metrics (lock waits, deadlocks), when
    /// the backend is passthrough.
    pub server: Option<EngineMetrics>,
    /// Per-SLA-tier admission/latency counters (empty when no transaction
    /// carried SLA metadata), accumulated by the session layer.
    pub tiers: Vec<TierReport>,
    /// The merged flight-recorder trace (empty unless the deployment was
    /// built with [`crate::SchedulerBuilder::trace`]): every sampled
    /// request's lifecycle events, time-ordered across all workers.  Query
    /// with [`obs::Trace::timeline`] / [`obs::Trace::phase_histograms`].
    pub trace: obs::Trace,
    /// Frozen anomaly windows (rule failures, deadlock victims, shed
    /// bursts): the events that led up to each incident.
    pub anomalies: Vec<obs::AnomalyWindow>,
    /// Wall-clock duration from backend start to shutdown.
    pub wall: Duration,
}

impl Report {
    /// Committed transactions per wall-clock second.
    pub fn commits_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.dispatch.commits as f64 / secs
        }
    }

    /// Executed requests (data statements + terminals) per wall-clock
    /// second.
    pub fn requests_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.executed_log.len() as f64 / secs
        }
    }

    /// The per-object execution order of data operations:
    /// `(ta, intra, is_write)` triples for `object`, in execution order.
    /// This is the admission-order view cross-backend equivalence tests
    /// compare.
    pub fn object_order(&self, object: i64) -> Vec<(u64, u32, bool)> {
        self.executed_log
            .iter()
            .filter(|r| r.op.is_data() && r.object == object)
            .map(|r| (r.ta, r.intra, r.op == declsched::Operation::Write))
            .collect()
    }

    /// The report of a worker fleet running under the label `kind`: a
    /// `.shards(n)` deployment carries the per-shard detail, the fleet of
    /// one behind `.unsharded()` has none to carry.
    pub(crate) fn from_fleet(kind: BackendKind, mut report: ShardedReport) -> Self {
        let metrics = &report.metrics;
        let shards = metrics.shards.max(1);
        // Merge final rows by home shard: an object is only ever written
        // through its home shard's engine, so that copy is authoritative.
        let rows = report
            .shards
            .iter()
            .map(|s| s.final_rows.len())
            .max()
            .unwrap_or(0);
        let final_rows: Vec<i64> = (0..rows)
            .map(|row| {
                report
                    .shards
                    .get(shard_of(row as i64, shards))
                    .and_then(|s| s.final_rows.get(row).copied())
                    .unwrap_or(0)
            })
            .collect();
        let detailed = kind == BackendKind::Sharded;
        // The per-shard logs stay in the detail; a fleet of one keeps none,
        // so its only worker's log moves out instead of being copied.
        let executed_log: Vec<Request> = if detailed {
            let logs = report.shards.iter();
            logs.flat_map(|s| s.executed_log.iter().copied()).collect()
        } else {
            let only = report.shards.first_mut();
            only.map(|s| std::mem::take(&mut s.executed_log))
                .unwrap_or_default()
        };
        Report {
            backend: kind,
            transactions: metrics.transactions,
            rounds: metrics.merged.rounds,
            scheduler: metrics.merged,
            dispatch: metrics.dispatch,
            executed_log,
            final_rows,
            sharded: detailed.then_some(ShardedDetail {
                shards,
                cross_shard_transactions: metrics.cross_shard_transactions,
                escalation: metrics.escalation,
                peak_pending: metrics.peak_pending,
                unreclaimed_homes: metrics.unreclaimed_homes,
                reports: report.shards,
            }),
            server: None,
            tiers: Vec::new(),
            trace: obs::Trace::default(),
            anomalies: Vec::new(),
            wall: metrics.wall,
        }
    }
}
