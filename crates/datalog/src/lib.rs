//! # datalog — a stratified, semi-naive Datalog engine
//!
//! The EDBT 2010 paper asks "to what extent can existing query languages be
//! used to capture typical constraints on request schedules?" and names
//! Datalog as a candidate alongside SQL.  This crate is the Datalog answer:
//! scheduling protocols (SS2PL, SLA ordering, relaxed consistency) are
//! expressed as rule programs over the `pending` and `history` relations and
//! evaluated every scheduling round.
//!
//! Features:
//!
//! * rules compiled once into slot-addressed plans that probe hash indexes
//!   (the crate-private `plan` module), run by one executor ([`eval`]),
//! * positive rules with semi-naive (delta) evaluation,
//! * stratified negation (`!atom(...)` in rule bodies),
//! * built-in comparison constraints (`X < Y`, `X != Y`, ...),
//! * a plain-text [`parser`] so protocols can live in configuration files,
//! * constants shared with [`relalg::Value`], so facts can be loaded straight
//!   from relational tables and results pushed back.
//!
//! ```
//! use datalog::prelude::*;
//!
//! let program = parse_program(
//!     r#"
//!     reach(X, Y) :- edge(X, Y).
//!     reach(X, Z) :- reach(X, Y), edge(Y, Z).
//!     "#,
//! ).unwrap();
//!
//! let mut db = Database::new();
//! db.add_fact("edge", &[1.into(), 2.into()]).unwrap();
//! db.add_fact("edge", &[2.into(), 3.into()]).unwrap();
//!
//! let out = evaluate(&program, db).unwrap();
//! assert_eq!(out.relation("reach").unwrap().len(), 3);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ast;
pub mod engine;
pub mod error;
pub mod eval;
pub mod incremental;
pub mod parser;
mod plan;
#[cfg(test)]
mod reference;
pub mod stratify;

pub use ast::{Atom, BodyItem, CompareOp, Program, Rule, Term};
pub use engine::{Database, Relation};
pub use error::{DatalogError, DatalogResult};
pub use eval::evaluate;
pub use incremental::{EvaluationStats, IncrementalEvaluation};
pub use parser::parse_program;

/// Convenient glob import.
pub mod prelude {
    pub use crate::ast::{Atom, BodyItem, CompareOp, Program, Rule, Term};
    pub use crate::engine::{Database, Relation};
    pub use crate::error::{DatalogError, DatalogResult};
    pub use crate::eval::evaluate;
    pub use crate::parser::parse_program;
    pub use relalg::Value;
}
