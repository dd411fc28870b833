//! # schedlang — a specialised language for declarative scheduler programming
//!
//! The paper's fourth research objective is to "design a specialized language
//! and system based on the experiences gained" with SQL and other general
//! query languages, and its future work asks for "a suitable declarative
//! scheduler language which is more succinct than SQL".  SchedLang is that
//! language: a small, scheduling-specific surface syntax that compiles to the
//! Datalog rule back-end of the `declsched` crate.  Every built-in protocol
//! is declared here, once: [`stdlib`] holds its text, and
//! [`stdlib::protocol`] compiles it into that built-in.
//!
//! A protocol reads like the policy it states:
//!
//! ```text
//! protocol relaxed_reads {
//!     order by arrival;
//!
//!     define finished(T)   when history(_, T, _, "c", _);
//!     define finished(T)   when history(_, T, _, "a", _);
//!     define wlocked(O, T) when history(_, T, _, "w", O), not finished(T);
//!
//!     admit when op = "r";
//!     admit when op = "c";
//!     admit when op = "a";
//!
//!     block when wlocked(obj, T2), T2 != ta;
//!     block when requests(_, T1, _, "w", obj), T1 < ta;
//!
//!     admit otherwise;
//! }
//! ```
//!
//! Inside `admit when` / `block when` bodies the lower-case keywords `ta`,
//! `intra`, `op` and `obj` refer to the fields of the pending request under
//! consideration; everything else is ordinary Datalog (predicates over the
//! `requests`, `history`, `sla` and auxiliary relations, negation with `not`,
//! comparisons).  `admit otherwise` admits every request not matched by a
//! `block` clause; protocols with only `block` clauses get that rule
//! implicitly.
//!
//! Compilation produces a [`declsched::Protocol`] that plugs straight into
//! the [`declsched::DeclarativeScheduler`]:
//!
//! ```
//! use schedlang::compile_protocol;
//!
//! let protocol = compile_protocol(
//!     r#"protocol everything { order by arrival; admit otherwise; }"#,
//! ).unwrap();
//! assert_eq!(protocol.name(), "everything");
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ast;
pub mod compile;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod stdlib;

pub use ast::{BodyTerm, Clause, OrderBy, ProtocolDef};
pub use compile::{compile, compile_datalog, compile_protocol};
pub use error::{LangError, LangResult};
pub use lexer::{tokenize, Token, TokenKind};
pub use parser::parse;
