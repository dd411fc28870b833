//! # session — the unified client API of the declarative scheduler
//!
//! The paper's middleware exposes **one** control-instance / client-worker
//! surface to clients, no matter what sits behind it.  This crate is that
//! surface for the whole reproduction: a single entry point over the
//! unsharded middleware, the sharded router fleet and the non-scheduling
//! passthrough mode, so every workload, benchmark and example runs
//! unmodified against any deployment.
//!
//! ```text
//!   Scheduler::builder()                 Session::submit(txn) -> Ticket
//!     .policy(protocol)       ┌──────────────────────────────────────────┐
//!     .table("bench", rows)   │  Backend (trait)                         │
//!     .shards(4)         ──►  │   ├─ unsharded middleware (1 scheduler)  │
//!     .build()?               │   ├─ shard router fleet   (N schedulers) │
//!                             │   └─ passthrough          (native locks) │
//!   Scheduler::connect()      └──────────────────────────────────────────┘
//!     -> Session              Scheduler::shutdown() -> Report (unified)
//! ```
//!
//! ## Quick start
//!
//! ```
//! use session::{Scheduler, Txn};
//!
//! let scheduler = Scheduler::builder()
//!     .table("accounts", 100)
//!     .build()
//!     .expect("scheduler starts");
//! let mut session = scheduler.connect();
//!
//! // Pipelined: both transactions are in flight before either is awaited.
//! let t1 = session.submit(Txn::new(1).write(42, 7).commit()).unwrap();
//! let t2 = session.submit(Txn::new(2).write(42, 9).commit()).unwrap();
//! t2.wait().unwrap();
//! t1.wait().unwrap();
//!
//! let report = scheduler.shutdown();
//! assert_eq!(report.dispatch.commits, 2);
//! ```
//!
//! Swapping `.shards(4)` or `.passthrough()` into the builder changes the
//! deployment — nothing else in the driver code changes.
//!
//! ## Pipelined submission
//!
//! [`Session::submit`] never blocks: it hands the transaction to the
//! backend and returns a [`Ticket`] immediately, so one client thread can
//! keep dozens of transactions in flight.  [`Ticket::wait`] blocks until
//! that transaction has fully executed; tickets may be awaited in any
//! order, and dropping one without waiting neither loses the transaction
//! nor wedges the backend.  [`Session::drain`] awaits everything the
//! session still has in flight.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod backend;
mod builder;
mod observe;
mod passthrough;
mod report;
mod sess;
mod sharded;
mod ticket;
mod tier;
mod txn;

/// The observability crate, re-exported so deployments can name its types
/// ([`obs::TraceConfig`], [`obs::Registry`], [`obs::Trace`]) without a
/// direct dependency.
pub use obs;

pub use backend::{Backend, BackendKind};
pub use builder::{Scheduler, SchedulerBuilder, ShedPolicy};
pub use report::{Report, ShardedDetail};
pub use sess::Session;
pub use ticket::{Ticket, TxnReceipt};
pub use tier::TierReport;
pub use txn::Txn;
