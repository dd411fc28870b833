//! # workload — workload generation for the scheduling experiments
//!
//! The paper's evaluation workload (Section 4.2.1) is: *N* concurrently
//! active clients, each running OLTP-style transactions of 20 SELECT and 20
//! UPDATE statements against a single table of 100 000 rows, every statement
//! touching exactly one uniformly random row.  This crate generates that
//! workload deterministically (seeded), plus the variants used by the
//! examples, the tests and the benchmark:
//!
//! * [`oltp::OltpSpec`] — the paper's workload, with configurable statement
//!   counts, table size and key distribution ([`dist::KeyDistribution`]
//!   uniform or Zipfian),
//! * [`sla::SlaSpec`] — premium/free client classes with per-class deadlines,
//!   the SLA scenario the paper motivates ("premium vs. free customers in
//!   Web applications"),
//! * [`trace::Trace`] — recording of executed statement sequences so the
//!   multi-user schedule can be replayed in single-user mode, exactly as the
//!   paper's lower-bound measurement does,
//! * [`scenario`] — the **scenario library**: a [`scenario::Scenario`] trait
//!   plus a [`scenario::registry`] of named traffic shapes (Zipfian hotspot,
//!   read-mostly, TPC-C-lite order pipeline, bursty open-loop arrivals,
//!   mixed SLA tiers) that every benchmark and test iterates over.
//!
//! Scenario generation is deterministic — the same seed always yields the
//! identical transaction stream, whatever backend it is replayed against:
//!
//! ```
//! use workload::scenario::{registry, ScenarioParams};
//!
//! let params = ScenarioParams::small();
//! for scenario in registry() {
//!     let a = scenario.generate(&params);
//!     let b = scenario.generate(&params);
//!     assert_eq!(a.len(), params.transactions);
//!     let render = |stream: &[workload::scenario::ScenarioTxn]| -> Vec<String> {
//!         stream.iter().flat_map(|t| &t.statements).map(|s| s.to_string()).collect()
//!     };
//!     assert_eq!(render(&a), render(&b), "{} must be deterministic", scenario.name());
//! }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod dist;
pub mod oltp;
pub mod scenario;
pub mod sharded;
pub mod sla;
pub mod trace;

pub use dist::KeyDistribution;
pub use oltp::{ClientWorkload, OltpSpec, TransactionSpec};
pub use scenario::{ArrivalSpec, Scenario, ScenarioParams, ScenarioTxn};
pub use sharded::ShardedSpec;
pub use sla::{ClientClass, SlaRequestMeta, SlaSpec};
pub use trace::Trace;

/// Convenient glob import.
pub mod prelude {
    pub use crate::dist::KeyDistribution;
    pub use crate::oltp::{ClientWorkload, OltpSpec, TransactionSpec};
    pub use crate::scenario::{ArrivalSpec, Scenario, ScenarioParams, ScenarioTxn};
    pub use crate::sharded::ShardedSpec;
    pub use crate::sla::{ClientClass, SlaRequestMeta, SlaSpec};
    pub use crate::trace::Trace;
}
