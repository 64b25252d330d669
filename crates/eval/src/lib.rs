#![warn(missing_docs)]

//! # xqy-eval — XQuery interpreter and IFP runtime
//!
//! A tree-walking interpreter for the XQuery subset produced by
//! [`xqy-parser`](xqy_parser), playing the role the Saxon processor plays in
//! the reproduced paper: a "source-level" engine that evaluates recursive
//! user-defined functions and the `with … seeded by … recurse` form directly
//! over the [`xqy-xdm`](xqy_xdm) data model.
//!
//! The crate contributes three things to the reproduction:
//!
//! 1. a faithful implementation of the **dynamic semantics** of the subset
//!    (sequences, node identity, document order, effective boolean values,
//!    general vs. value comparisons, node construction with fresh
//!    identities, and the built-in function library the paper's queries
//!    use);
//! 2. the **inflationary fixed point runtime** ([`fixpoint`]) implementing
//!    both the *Naïve* and the *Delta* algorithm of Figure 3, with the
//!    statistics (iterations, nodes fed back into the recursion body) that
//!    Table 2 of the paper reports; and
//! 3. the **distributivity judgement** of Figure 5 ([`distributivity`]),
//!    next to the semantics it must follow: read over a recursion variable
//!    it licenses Delta and batch sharing (the `xqy_ifp` crate reads it
//!    so), read over the context item it licenses evaluating a path step
//!    once per focus set instead of once per focus node.
//!
//! The evaluator is built to be *driven by a prepared query*: external
//! variables are supplied up front with [`Evaluator::bind_global`], the
//! fixpoint algorithm can be chosen **per IFP occurrence** with
//! [`Evaluator::set_fixpoint_strategy_for`], and a
//! [`FixpointInterceptor`] may take over occurrences entirely (the
//! `xqy_ifp` crate uses this to drive pre-compiled algebraic plans).  A
//! parsed module is evaluated with [`Evaluator::eval_module`], so the
//! parse happens once however many times the module runs.
//!
//! ```
//! use xqy_xdm::NodeStore;
//! use xqy_eval::{Evaluator, FixpointStrategy};
//! use xqy_parser::parse_query;
//!
//! let mut store = NodeStore::new();
//! store
//!     .parse_document_with_uri(
//!         "curriculum.xml",
//!         r#"<curriculum>
//!              <course code="c1"><prerequisites><pre_code>c2</pre_code></prerequisites></course>
//!              <course code="c2"><prerequisites/></course>
//!            </curriculum>"#,
//!     )
//!     .unwrap();
//! store.register_id_attribute(store.doc("curriculum.xml").unwrap(), "code");
//!
//! // Parse once …
//! let module = parse_query(
//!     "with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)",
//! ).unwrap();
//!
//! // … evaluate with `$seed` bound externally.
//! let mut eval = Evaluator::new(&mut store);
//! eval.set_fixpoint_strategy(FixpointStrategy::Delta);
//! let seed = eval
//!     .eval_query_str("doc('curriculum.xml')/curriculum/course[@code='c1']")
//!     .unwrap();
//! eval.bind_global("seed", seed);
//! let result = eval.eval_module(&module).unwrap();
//! assert_eq!(result.len(), 1); // course c2
//! ```

pub mod builtins;
pub mod compare;
pub mod construct;
pub mod context;
pub mod distributivity;
pub mod error;
pub mod evaluator;
pub mod fixpoint;

pub use context::{Environment, Focus};
pub use error::EvalError;
pub use evaluator::{EvalOptions, Evaluator};
pub use fixpoint::{FixpointBackendTag, FixpointInterceptor, FixpointStats, FixpointStrategy};

/// Result alias for evaluation.
pub type Result<T> = std::result::Result<T, EvalError>;
