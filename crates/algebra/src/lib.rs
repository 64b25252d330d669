#![warn(missing_docs)]

//! # xqy-algebra — Relational XQuery substrate
//!
//! This crate plays the role that MonetDB/XQuery and its Pathfinder compiler
//! play in the reproduced paper (Section 4, *"Distributivity and Relational
//! XQuery"*): recursion bodies are compiled into DAG-shaped plans over a
//! small relational algebra dialect (Table 1 of the paper), and
//!
//! 1. the **algebraic distributivity check** decides whether a `∪` placed at
//!    the plan's recursion input can be pushed up through every operator to
//!    the plan root (Figures 7 and 8) — if so, the Delta-based fixpoint
//!    operator `µ∆` may replace the Naïve operator `µ`;
//! 2. an **executor** evaluates plans over relational encodings of the XML
//!    documents held in a [`NodeStore`](xqy_xdm::NodeStore), which it only
//!    reads, and drives the Naïve (`µ`) and Delta (`µ∆`) fixpoints of a
//!    body plan with the row-feed statistics that Table 2 of the paper
//!    reports.
//!
//! ## Relationship to the paper's dialect
//!
//! The operator set is the part of Table 1 the compiler emits: the
//! selection of an `[@a = 'lit']` predicate, union, difference, the `count`
//! of a condition, the XPath step join, the `id()` lookup and the
//! conditional, over the recursion input, the empty relation and document
//! roots.  A row of Table 1 that no compile rule emits (projection, join,
//! product, duplicate elimination, the generic operator, row tagging and
//! numbering, node construction, a nested `µ`) is not an operator here;
//! the compiler test `every_operator_is_emitted` keeps it so.  Two
//! simplifications:
//!
//! * plans operate on *sets* of rows (the paper notes that duplicate and
//!   order bookkeeping may be omitted for distributivity assessment; our
//!   executor applies the same simplification to evaluation, which does not
//!   affect fixpoint results because the IFP semantics is set-based);
//! * the compiler supports the expression subset needed by the paper's
//!   examples and benchmark workloads and reports anything else as a
//!   [`AlgebraError::Unsupported`] compile error instead of guessing.

pub mod compile;
pub mod error;
pub mod exec;
mod ledger_shim;
pub mod plan;
pub mod pushup;

pub use compile::{compile_count, compile_recursion_body, CompiledBody};
pub use error::AlgebraError;
pub use exec::{BatchSharing, ExecStats, Executor, Relation};
#[doc(hidden)]
pub use ledger_shim::MuStrategy;
pub use plan::{Operator, Plan, PlanNode, PlanNodeId};
pub use pushup::{check_distributivity, PushupOutcome};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, AlgebraError>;
