//! # declsched — the declarative middleware scheduler
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Declarative Scheduling in Highly Scalable Systems*, EDBT 2010 workshops):
//! a scheduler component that sits between clients and a server and is
//! **programmed with declarative rules** instead of hand-coded scheduling
//! algorithms.
//!
//! The architecture follows the paper's Figure 1:
//!
//! ```text
//!  clients ──► incoming queue ──► pending-request DB ──┐
//!                   ▲                                  │ declarative rule
//!                   │ trigger (time / fill level)      ▼ (SQL-style plan or Datalog)
//!                   └──────────────────  history DB ◄── qualified, ordered batch ──► server
//! ```
//!
//! * Requests are **data**: [`request::Request`] mirrors the paper's Table 2
//!   (`ID`, `TA`, `INTRATA`, `Operation`, `Object`) plus optional SLA
//!   metadata.
//! * Scheduling protocols are **declarative rules** ([`rules::RuleSet`])
//!   evaluated over the `requests` (pending) and `history` relations each
//!   round, through either the relational-algebra back-end (`relalg`, the
//!   paper's SQL formulation of Listing 1) or the Datalog back-end.
//! * The [`scheduler::DeclarativeScheduler`] implements the paper's loop:
//!   drain the incoming queue, insert into the pending DB, evaluate the rule,
//!   move qualified requests to the history DB and hand the ordered batch to
//!   the [`dispatch::Dispatcher`], which executes it on the `txnstore` server
//!   with the server's own locking disabled.
//! * This crate spawns no thread and polls no mailbox: the client-worker /
//!   control-instance threading of the paper's Section 3.3 is the `shard`
//!   crate's worker, which every scheduling deployment runs (an unsharded
//!   deployment is a fleet of one).
//!
//! ## Sharded topology
//!
//! The paper evaluates one declarative rule over a single global
//! pending-request relation per round — a hard ceiling once the pending set
//! grows.  The `shard` crate lifts that ceiling by partitioning Figure 1
//! horizontally: the `requests` and `history` relations are hash-partitioned
//! by object ([`request::shard_of`]) into N shards, and each shard owns a
//! full private copy of the Figure 1 pipeline (incoming queue → pending DB →
//! rule → history DB → dispatcher) on its own worker thread:
//!
//! ```text
//!             ┌── shard 0: queue → pending₀/history₀ → rule → dispatcher₀
//!  clients ─► router (hash of object footprint)
//!             ├── shard 1: queue → pending₁/history₁ → rule → dispatcher₁
//!             ├── …
//!             └── spanning transaction: the touched shards' own workers run
//!                 PREPARE (qualify the local slice, vote) → COMMIT | RELEASE
//! ```
//!
//! Transactions whose [`request::footprint`] maps to one shard never
//! synchronize with any other shard.  A spanning transaction takes a
//! two-phase handshake that the touched shards' workers drive themselves (no
//! coordinator thread; untouched shards never pause): each qualifies its
//! slice against its local `history` and votes, and the last voter commits
//! every slice on a unanimous grant or releases them.  Locks are per object
//! and each object has one home shard, so SS2PL/C2PL semantics survive the
//! partitioning.  This crate contributes the building blocks the shard layer
//! composes: [`request::footprint`] / [`request::shard_of`] extraction and
//! [`SchedulerMetrics::merge`] for fleet-wide aggregation.
//!
//! Protocols shipped (all expressed declaratively, see [`protocol`]):
//! SS2PL (the paper's example), conservative 2PL, FCFS, SLA priority,
//! earliest-deadline-first, relaxed reads and consistency rationing.  A
//! scheduler applies the one protocol it was built with, every round.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod dispatch;
pub mod error;
pub mod history;
pub mod metrics;
pub mod pending;
pub mod protocol;
pub mod qualify;
pub mod queue;
pub mod request;
pub mod rules;
pub mod scheduler;
pub mod trigger;

pub use dispatch::{DispatchReport, Dispatcher};
pub use error::{SchedError, SchedResult};
// Re-exported so layers above the scheduler (workload generation, session
// façade) can pre-intern their string literals at construction time without
// depending on `relalg` directly.
pub use history::HistoryStore;
pub use metrics::{RoundPhases, SchedulerMetrics};
pub use pending::PendingStore;
pub use protocol::{Protocol, ProtocolFeatures, ProtocolKind};
pub use qualify::{qualify_once, IncrementalQualifier};
pub use queue::IncomingQueue;
pub use relalg::Symbol;
pub use request::{footprint, shard_of, Operation, Request, RequestKey, SlaMeta};
pub use rules::{OrderingSpec, RuleBackend, RuleSet};
pub use scheduler::{DeclarativeScheduler, ScheduleBatch, SchedulerConfig};
pub use trigger::TriggerPolicy;

/// Convenient glob import.
pub mod prelude {
    pub use crate::dispatch::{DispatchReport, Dispatcher};
    pub use crate::error::{SchedError, SchedResult};
    pub use crate::history::HistoryStore;
    pub use crate::metrics::{RoundPhases, SchedulerMetrics};
    pub use crate::pending::PendingStore;
    pub use crate::protocol::{Protocol, ProtocolFeatures, ProtocolKind};
    pub use crate::queue::IncomingQueue;
    pub use crate::request::{footprint, shard_of, Operation, Request, RequestKey, SlaMeta};
    pub use crate::rules::{OrderingSpec, RuleBackend, RuleSet};
    pub use crate::scheduler::{DeclarativeScheduler, ScheduleBatch, SchedulerConfig};
    pub use crate::trigger::TriggerPolicy;
}
