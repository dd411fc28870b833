//! The [`Backend`] trait: what a deployment must provide to serve
//! [`crate::Session`]s.

use crate::report::Report;
use crossbeam::channel::Receiver;
use declsched::{Request, SchedError, SchedResult};
use std::fmt;

/// The pending completion of one submitted transaction, returned by
/// [`Backend::submit`].  Resolves exactly once, when every request has
/// executed (or failed).
///
/// Channel-based backends (passthrough, custom) wrap a single-shot reply
/// channel; the worker fleet — sharded or the unsharded fleet of one —
/// hands back its hub-backed ticket directly, so a pipelined session costs
/// one hub synchronization per completion *batch* rather than one channel
/// pair per transaction.
pub enum Completion {
    /// A single-shot reply channel; the sender dropping without replying
    /// reads as a closed backend.
    Channel(Receiver<SchedResult<()>>),
    /// A worker-fleet ticket waiting on the fleet's completion hub.
    Sharded(shard::TxnTicket),
}

impl Completion {
    /// Block until the transaction's result is known.
    pub fn wait(self) -> SchedResult<()> {
        match self {
            Completion::Channel(rx) => match rx.recv() {
                Ok(result) => result,
                Err(_) => Err(SchedError::ChannelClosed {
                    endpoint: "backend",
                }),
            },
            Completion::Sharded(ticket) => ticket.wait(),
        }
    }
}

/// Which deployment a [`crate::Scheduler`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The paper's single-scheduler middleware (one declarative rule over
    /// one global pending/history relation pair): a worker fleet of one.
    Unsharded,
    /// The shard router fleet: N schedulers over hash-partitioned
    /// relations; a spanning transaction takes a two-phase handshake over
    /// the shards it touches.
    Sharded,
    /// Non-scheduling passthrough: requests forwarded to a server with its
    /// native lock-based scheduler enabled (the paper's overhead baseline).
    Passthrough,
}

impl BackendKind {
    /// Stable label used in reports and benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Unsharded => "unsharded",
            BackendKind::Sharded => "sharded",
            BackendKind::Passthrough => "passthrough",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A running scheduler deployment that [`crate::Session`]s submit to.
///
/// The shipped deployments (the worker fleet behind `.unsharded()` and
/// `.shards(n)`, and passthrough) implement this; custom backends only
/// need the same two operations.  `submit` must not block on transaction
/// *execution* — it returns a `Completion` that resolves exactly once,
/// which is what makes pipelined submission possible.
pub trait Backend: Send + Sync {
    /// Which deployment this is.
    fn kind(&self) -> BackendKind;

    /// Accept one whole transaction (requests in intra order, SLA metadata
    /// intact) and return its pending completion, which resolves exactly
    /// once when every request has executed (or failed).
    fn submit(&self, requests: Vec<Request>) -> SchedResult<Completion>;

    /// Drain outstanding work, stop the deployment and return the unified
    /// report.  The first call wins; later calls (and later submissions)
    /// fail with [`declsched::SchedError::BackendShutdown`].
    fn shutdown(&self) -> SchedResult<Report>;

    /// The deployment's live scheduling backlog — for sharded deployments
    /// the *deepest* shard queue, for the unsharded middleware its
    /// incoming-plus-pending count.  The session layer's overload-shedding
    /// policy compares this against its watermark before admitting
    /// low-tier submissions.  Backends with no observable backlog report 0
    /// (and are therefore never shed against).
    fn queue_depth(&self) -> usize {
        0
    }

    /// Release any routing state recorded for transaction `ta` — called
    /// when a client abandons a transaction mid-flight (its `Session` is
    /// dropped before a terminal was submitted), so per-transaction routing
    /// entries cannot leak.  Default: nothing to release.
    fn abandon(&self, _ta: u64) {}
}
