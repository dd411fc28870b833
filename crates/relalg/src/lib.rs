//! # relalg — a small in-memory relational algebra engine
//!
//! `relalg` is the relational substrate of the declarative scheduling
//! reproduction ("Declarative Scheduling in Highly Scalable Systems",
//! EDBT 2010).  The paper stores pending and historical requests in a DBMS
//! and evaluates an SQL query (its Listing 1) over those relations to find
//! requests that may be executed under a scheduling protocol such as SS2PL.
//!
//! This crate provides exactly the machinery that query needs — and nothing
//! that it does not:
//!
//! * a dynamically typed [`Value`]/[`Tuple`] data model with named
//!   [`Schema`]s,
//! * heap [`Table`]s whose clones are copy-on-write snapshots,
//! * scalar [`expr::Expr`]essions and predicates (comparisons, `AND`, `OR`,
//!   `NOT`, `IN`),
//! * a logical [`plan::Plan`] algebra (scan, select, project, rename, inner,
//!   semi and anti joins, union all, except, distinct),
//! * a straightforward materialising [`exec`]utor with a hash-join path,
//! * a [`Catalog`] for registering named relations, and
//! * a fluent [`builder`] API so scheduling protocols can be written as
//!   readable algebra instead of strings.
//!
//! The engine is deliberately single-threaded and in-memory: the paper's
//! scheduler evaluates its rule over small relations (pending requests of the
//! current batch plus the relevant history), so simplicity and predictable
//! performance matter more than parallelism.
//!
//! ```
//! use relalg::prelude::*;
//!
//! // A tiny relation of requests: (ta, object, op).
//! let schema = Schema::new(vec![
//!     Field::new("ta", DataType::Int),
//!     Field::new("object", DataType::Int),
//!     Field::new("op", DataType::Str),
//! ]);
//! let mut table = Table::new("requests", schema);
//! table.push(Tuple::new(vec![Value::Int(1), Value::Int(7), Value::str("r")])).unwrap();
//! table.push(Tuple::new(vec![Value::Int(2), Value::Int(7), Value::str("w")])).unwrap();
//!
//! let mut catalog = Catalog::new();
//! catalog.register(table);
//!
//! // SELECT ta FROM requests WHERE op = 'w'
//! let plan = PlanBuilder::scan("requests")
//!     .filter(Expr::col("op").eq(Expr::lit("w")))
//!     .project(vec![Expr::col("ta")])
//!     .build();
//! let out = execute(&plan, &catalog).unwrap();
//! assert_eq!(out.len(), 1);
//! assert_eq!(out.rows()[0].get(0), &Value::Int(2));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod builder;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod expr;
pub mod intern;
pub mod plan;
pub mod schema;
pub mod table;
pub mod tuple;
pub mod value;

pub use builder::PlanBuilder;
pub use catalog::Catalog;
pub use error::{RelError, RelResult};
pub use exec::execute;
pub use expr::Expr;
pub use intern::Symbol;
pub use plan::{JoinKind, Plan};
pub use schema::{DataType, Field, Schema};
pub use table::Table;
pub use tuple::Tuple;
pub use value::Value;

/// Convenient glob import for users of the crate.
pub mod prelude {
    pub use crate::builder::PlanBuilder;
    pub use crate::catalog::Catalog;
    pub use crate::error::{RelError, RelResult};
    pub use crate::exec::execute;
    pub use crate::expr::{BinOp, Expr};
    pub use crate::intern::Symbol;
    pub use crate::plan::{JoinKind, Plan};
    pub use crate::schema::{DataType, Field, Schema};
    pub use crate::table::Table;
    pub use crate::tuple::Tuple;
    pub use crate::value::Value;
}
