#![warn(missing_docs)]

//! # xqy-ifp — An Inflationary Fixed Point Operator in XQuery
//!
//! This crate is the reproduction's public face: it packages the paper's
//! contribution — the `with $x seeded by e recurse e` form, the Naïve and
//! Delta evaluation algorithms, and the two safe approximations of the
//! distributivity property that decide when Delta may be used — behind one
//! [`Engine`] API.
//!
//! * [`syntactic`] re-exports the `ds_$x(·)` inference rules of Figure 5
//!   (the purely syntactic distributivity approximation) together with the
//!   "distributivity hint" rewrite of Section 3.2.  The rules themselves
//!   live in [`xqy_eval::distributivity`], where the interpreter reads them
//!   over the context item too.
//! * The algebraic approximation of Section 4 (the `∪` push-up over
//!   Pathfinder-style plans) is re-exported from [`xqy_algebra`].
//! * [`rewrite`] performs the source-level Naïve→Delta transformation the
//!   paper applied for Saxon: an IFP form is rewritten into the recursive
//!   user-defined functions `fix(·)` (Figure 2) or `delta(·,·)` (Figure 4).
//! * [`closure`] provides Regular XPath's transitive closure `e+` as a
//!   library function on top of the IFP form.
//! * [`engine`] and [`prepared`] tie everything together behind the
//!   prepared-query API: [`Engine::prepare`] parses a query, analyses the
//!   distributivity of every IFP occurrence, picks a strategy per
//!   occurrence, and pre-compiles the recursion bodies that lie inside the
//!   algebraic subset — **once** — and [`PreparedQuery::execute`] runs the
//!   artifact any number of times with externally bound variables
//!   ([`Bindings`]) against whichever documents the engine currently holds.
//!   The [`Backend`] knob selects who drives the fixpoints: the
//!   source-level interpreter, the relational executor, or per-occurrence
//!   `Auto`.  [`Engine::run`] remains as a thin prepare-then-execute
//!   convenience.
//!
//! ```
//! use xqy_ifp::{Bindings, Engine, Strategy};
//!
//! let mut engine = Engine::new();
//! engine
//!     .load_document_with_ids(
//!         "curriculum.xml",
//!         r#"<curriculum>
//!              <course code="c1"><prerequisites><pre_code>c2</pre_code></prerequisites></course>
//!              <course code="c2"><prerequisites/></course>
//!            </curriculum>"#,
//!         &["code"],
//!     )
//!     .unwrap();
//! engine.set_strategy(Strategy::Auto);
//!
//! // Parse + analyse + compile once …
//! let prepared = engine
//!     .prepare("with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)")
//!     .unwrap();
//! assert_eq!(prepared.external_variables(), ["seed"]);
//! assert!(prepared.distributivity().iter().all(|d| d.syntactic));
//!
//! // … execute many times, binding a different seed each time.
//! let seed = engine
//!     .run("doc('curriculum.xml')/curriculum/course[@code='c1']")
//!     .unwrap()
//!     .result;
//! let outcome = prepared
//!     .execute(&mut engine, &Bindings::new().with("seed", seed))
//!     .unwrap();
//! assert_eq!(outcome.result.len(), 1);
//! ```

pub mod closure;
pub mod cost;
pub mod engine;
pub mod prepared;
pub mod rewrite;
pub mod syntactic;

pub use cost::{CostDecision, DecisionSource, FeedbackCell, OccurrenceFeatures, PlanAlternative};
pub use engine::{DistributivityReport, Engine, Parallelism, QueryOutcome, Strategy};
pub use prepared::{
    Backend, BatchedOutcome, Bindings, ExecOptions, OccurrencePlan, PreparedOccurrence,
    PreparedQuery, ResourceLimits,
};
pub use rewrite::{rewrite_fixpoints_to_functions, RewriteStyle};
pub use syntactic::{distributivity_hint, is_distributivity_safe, DsJudgement};

// Re-export the building blocks so downstream users need only one crate.
pub use xqy_algebra as algebra;
pub use xqy_eval as eval;
pub use xqy_parser as parser;
pub use xqy_xdm as xdm;

/// Crate-level error: unifies parser, evaluation and algebra errors.
#[derive(Debug, Clone, PartialEq)]
pub enum IfpError {
    /// Query text failed to parse.
    Parse(String),
    /// Dynamic evaluation failed.
    Eval(xqy_eval::EvalError),
    /// The algebraic back-end failed.
    Algebra(xqy_algebra::AlgebraError),
    /// Document loading failed.
    Document(String),
    /// A prepared query was executed without a [`Bindings`] entry for one of
    /// its external variables.
    UnboundVariable(String),
}

impl std::fmt::Display for IfpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IfpError::Parse(msg) => write!(f, "parse error: {msg}"),
            IfpError::Eval(err) => write!(f, "evaluation error: {err}"),
            IfpError::Algebra(err) => write!(f, "algebra error: {err}"),
            IfpError::Document(msg) => write!(f, "document error: {msg}"),
            IfpError::UnboundVariable(name) => {
                write!(
                    f,
                    "external variable ${name} is not bound (supply it via Bindings)"
                )
            }
        }
    }
}

impl std::error::Error for IfpError {}

impl From<xqy_parser::ParseError> for IfpError {
    fn from(value: xqy_parser::ParseError) -> Self {
        IfpError::Parse(value.to_string())
    }
}

impl From<xqy_eval::EvalError> for IfpError {
    fn from(value: xqy_eval::EvalError) -> Self {
        IfpError::Eval(value)
    }
}

impl From<xqy_algebra::AlgebraError> for IfpError {
    fn from(value: xqy_algebra::AlgebraError) -> Self {
        IfpError::Algebra(value)
    }
}

impl From<xqy_xdm::XdmError> for IfpError {
    fn from(value: xqy_xdm::XdmError) -> Self {
        IfpError::Document(value.to_string())
    }
}

/// Result alias for the crate.
pub type Result<T> = std::result::Result<T, IfpError>;
