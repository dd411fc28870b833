//! In-flight transaction handles.

use crate::backend::Completion;
use crate::observe::SessionObs;
use crate::tier::TierRegistry;
use declsched::{SchedError, SchedResult};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Instant;

/// What [`Ticket::wait`] returns once a transaction has fully executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnReceipt {
    /// The transaction id.
    pub ta: u64,
    /// Number of statements the transaction carried.
    pub statements: usize,
}

/// Per-tier accounting attached to a ticket of an SLA-tagged transaction:
/// its completion (and submit-to-completion latency) is recorded against
/// its service class when the result is first observed.
pub(crate) struct TierTrack {
    pub(crate) registry: Arc<TierRegistry>,
    pub(crate) class: &'static str,
    pub(crate) submitted: Instant,
}

/// Shared completion state of one submitted transaction.
///
/// Both the [`Ticket`] handed to the caller and the owning
/// [`crate::Session`] (for [`crate::Session::drain`]) point at the same
/// cell, so the result can be observed from either side exactly once and
/// re-read thereafter.
pub(crate) struct TicketCell {
    pub(crate) ta: u64,
    pub(crate) statements: usize,
    tier: Option<TierTrack>,
    /// Outcome accounting and terminal lifecycle events, recorded when the
    /// result is first observed.  `None` for born-resolved (shed) cells,
    /// whose outcome was already recorded at submission.
    observe: Option<(Arc<SessionObs>, Option<Vec<u32>>)>,
    state: Mutex<CellState>,
}

struct CellState {
    rx: Option<Completion>,
    done: Option<SchedResult<()>>,
}

impl TicketCell {
    pub(crate) fn new(
        ta: u64,
        statements: usize,
        rx: Completion,
        tier: Option<TierTrack>,
        observe: Arc<SessionObs>,
        sampled_intras: Option<Vec<u32>>,
    ) -> Arc<Self> {
        Arc::new(TicketCell {
            ta,
            statements,
            tier,
            observe: Some((observe, sampled_intras)),
            state: Mutex::new(CellState {
                rx: Some(rx),
                done: None,
            }),
        })
    }

    /// A cell born resolved — the shedding path: the transaction was never
    /// admitted and its result is already known.
    pub(crate) fn resolved_with(ta: u64, statements: usize, result: SchedResult<()>) -> Arc<Self> {
        Arc::new(TicketCell {
            ta,
            statements,
            tier: None,
            observe: None,
            state: Mutex::new(CellState {
                rx: None,
                done: Some(result),
            }),
        })
    }

    /// Block until the transaction's result is known and return it.  Safe
    /// to call from several holders: the first caller consumes the
    /// completion (any concurrent caller blocks on the cell lock meanwhile),
    /// later callers get the cached result.
    pub(crate) fn wait(&self) -> SchedResult<()> {
        let mut state = self.state.lock().map_err(|_| SchedError::Poisoned {
            what: "ticket cell",
        })?;
        if let Some(result) = &state.done {
            return result.clone();
        }
        let rx = state
            .rx
            .take()
            .expect("completion present until first wait");
        let result = rx.wait();
        if let Some(tier) = &self.tier {
            tier.registry.record_outcome(
                tier.class,
                tier.submitted.elapsed().as_micros() as u64,
                result.is_ok(),
            );
        }
        // Still under the cell lock, so the terminal lifecycle event is
        // emitted exactly once however many holders race to wait.
        if let Some((observe, sampled_intras)) = &self.observe {
            observe.record_outcome(self.ta, sampled_intras.as_deref(), &result);
        }
        state.done = Some(result.clone());
        result
    }

    /// Whether the result has already been observed.  Never blocks: a cell
    /// another holder is waiting on right now (it keeps the lock across the
    /// wait) is not resolved yet.  A poisoned cell counts as resolved: its
    /// panicked observer already consumed the result.
    pub(crate) fn resolved(&self) -> bool {
        match self.state.try_lock() {
            Ok(state) => state.done.is_some(),
            Err(TryLockError::WouldBlock) => false,
            Err(TryLockError::Poisoned(_)) => true,
        }
    }
}

/// A claim on one in-flight transaction, returned by
/// [`crate::Session::submit`].
///
/// Tickets may be awaited in any order.  Dropping a ticket without waiting
/// is safe: the transaction still executes, and the owning session's
/// [`crate::Session::drain`] can still observe its completion.
///
/// Under an overload-shedding policy ([`crate::ShedPolicy`]) a low-tier
/// submission past the watermark resolves immediately with the typed
/// [`declsched::SchedError::Shed`] outcome — check
/// [`declsched::SchedError::is_shed`] to distinguish a deliberate rejection
/// from a failure.
pub struct Ticket {
    cell: Arc<TicketCell>,
}

impl Ticket {
    pub(crate) fn new(cell: Arc<TicketCell>) -> Self {
        Ticket { cell }
    }

    /// The transaction id this ticket tracks.
    pub fn ta(&self) -> u64 {
        self.cell.ta
    }

    /// Block until the transaction has fully executed (every statement
    /// scheduled and run on the server) and return its receipt.
    pub fn wait(self) -> SchedResult<TxnReceipt> {
        self.cell.wait().map(|()| TxnReceipt {
            ta: self.cell.ta,
            statements: self.cell.statements,
        })
    }
}
