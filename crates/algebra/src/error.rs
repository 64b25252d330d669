//! Errors of the relational substrate.

use std::fmt;

use xqy_xdm::fixpoint::LimitError;

/// Errors raised by plan construction, compilation or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraError {
    /// The compiler met an expression outside the supported subset.
    Unsupported(String),
    /// A plan referenced a node id that does not exist.
    InvalidPlan(String),
    /// Execution failed (missing document, schema mismatch, …).
    Execution(String),
    /// The fixpoint iteration barrier stopped a run: it did not converge
    /// within the engine-wide guards, or the deadline or a per-query budget
    /// of [`Executor::limits`](crate::Executor::limits) ran out.  Checked
    /// between iterations, so the run never aborts mid-mutation.
    Limit(LimitError),
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::Unsupported(msg) => {
                write!(
                    f,
                    "expression not supported by the algebraic compiler: {msg}"
                )
            }
            AlgebraError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            AlgebraError::Execution(msg) => write!(f, "plan execution error: {msg}"),
            AlgebraError::Limit(limit) => write!(f, "fixpoint stopped: {limit}"),
        }
    }
}

impl std::error::Error for AlgebraError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_cause() {
        assert!(AlgebraError::Unsupported("order by".into())
            .to_string()
            .contains("order by"));
        let no_fixpoint = LimitError::NoFixpoint {
            iterations: 7,
            limit: "iteration",
        };
        assert!(AlgebraError::Limit(no_fixpoint).to_string().contains('7'));
    }
}
