//! Typed errors of the query service front-end.

use std::fmt;
use std::time::Duration;

use xqy_ifp::IfpError;

/// Errors a [`QueryService`](crate::QueryService) call can return.
///
/// Admission, deadline, budget and containment failures are **typed** (not
/// stringly wrapped) so load-shedding clients can distinguish "retry later"
/// ([`ServiceError::Saturated`], which carries a `retry_after` hint) from
/// "this query is too
/// expensive for its budget" ([`ServiceError::DeadlineExceeded`],
/// [`ServiceError::ResourceExhausted`]) from a genuine query failure
/// ([`ServiceError::Query`]) from a contained engine panic
/// ([`ServiceError::Internal`]).  None of them poison the service: every
/// error path releases its admission permit and leaves the published
/// snapshot, the plan cache and the writer store untouched.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The admission queue was full: `max_concurrent` queries were
    /// executing and `max_queue` more were already waiting.  The query was
    /// rejected without queueing — retry after the hinted delay or shed
    /// load.
    Saturated {
        /// Queries executing when the request was rejected.
        active: usize,
        /// Queries queued when the request was rejected.
        queued: usize,
        /// Suggested wait before retrying, derived from the queue depth
        /// and the observed average execution time.  A best-effort hint,
        /// not a guarantee that a retry after it will be admitted.
        retry_after: Duration,
    },
    /// The per-query deadline passed — while waiting for admission, or at
    /// a fixpoint iteration barrier during execution.  The service remains
    /// fully operational; only this query was aborted.
    DeadlineExceeded {
        /// The timeout budget the query ran under.
        timeout: Duration,
        /// The recursion variable of the fixpoint that was iterating when
        /// the deadline fired (`None` when it fired during admission or
        /// outside a fixpoint).
        occurrence: Option<String>,
        /// Fixpoint iterations completed when the deadline fired.
        iterations: Option<u64>,
    },
    /// A [`ResourceLimits`](xqy_ifp::ResourceLimits) budget was exhausted
    /// at a fixpoint iteration barrier, after one round of graceful
    /// degradation (memo/cache release, sequential fallback) for the
    /// memory budget.  The service remains fully operational.
    ResourceExhausted {
        /// Which budget tripped: `"memory"`, `"iterations"` or
        /// `"result-nodes"`.
        budget: String,
        /// Approximate usage when the check failed.
        used: u64,
        /// The configured limit.
        limit: u64,
        /// The recursion variable of the fixpoint that tripped the budget
        /// (`None` when unknown).
        occurrence: Option<String>,
        /// Fixpoint iterations completed when the budget tripped.
        iterations: Option<u64>,
    },
    /// Query preparation or execution failed (parse error, unbound
    /// variable, missing document, diverging fixpoint, …).
    Query(IfpError),
    /// A panic inside the engine was caught at the service boundary and
    /// contained: the admission permit was released, the runtime the
    /// execution had checked out of its plan — executors possibly
    /// half-applied — was dropped by the unwind instead of returning to the
    /// plan's pool, and the cached plan and the published snapshot, which
    /// an execution cannot write to, are untouched.  Subsequent queries are
    /// unaffected.
    Internal {
        /// The panic payload (or injected-fault description).
        message: String,
        /// Where the failure was contained (`"query execution"`,
        /// `"publish"`, …).
        context: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Saturated {
                active,
                queued,
                retry_after,
            } => write!(
                f,
                "service saturated: {active} queries executing, {queued} queued \
                 (retry after {retry_after:?})"
            ),
            ServiceError::DeadlineExceeded {
                timeout,
                occurrence,
                iterations,
            } => {
                write!(f, "query deadline exceeded (timeout {timeout:?})")?;
                if let Some(var) = occurrence {
                    write!(f, " in fixpoint of ${var}")?;
                }
                if let Some(n) = iterations {
                    write!(f, " after {n} iterations")?;
                }
                Ok(())
            }
            ServiceError::ResourceExhausted {
                budget,
                used,
                limit,
                occurrence,
                iterations,
            } => {
                write!(f, "{budget} budget exhausted ({used} used, limit {limit})")?;
                if let Some(var) = occurrence {
                    write!(f, " in fixpoint of ${var}")?;
                }
                if let Some(n) = iterations {
                    write!(f, " after {n} iterations")?;
                }
                Ok(())
            }
            ServiceError::Query(err) => write!(f, "query failed: {err}"),
            ServiceError::Internal { message, context } => {
                write!(f, "internal error (contained during {context}): {message}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<IfpError> for ServiceError {
    fn from(err: IfpError) -> Self {
        ServiceError::Query(err)
    }
}

/// Result alias for the service crate.
pub type Result<T> = std::result::Result<T, ServiceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let err = ServiceError::Saturated {
            active: 8,
            queued: 16,
            retry_after: Duration::from_millis(40),
        };
        assert!(err.to_string().contains('8'));
        assert!(err.to_string().contains("16"));
        assert!(err.to_string().contains("retry"));
        let err = ServiceError::DeadlineExceeded {
            timeout: Duration::from_millis(250),
            occurrence: None,
            iterations: None,
        };
        assert!(err.to_string().contains("deadline"));
    }

    /// Budget/deadline errors that reach the service carry the fixpoint
    /// occurrence and iteration count in their display output.
    #[test]
    fn display_carries_occurrence_context() {
        let err = ServiceError::DeadlineExceeded {
            timeout: Duration::from_millis(5),
            occurrence: Some("x".into()),
            iterations: Some(17),
        };
        let shown = err.to_string();
        assert!(shown.contains("$x"), "got: {shown}");
        assert!(shown.contains("17 iterations"), "got: {shown}");

        let err = ServiceError::ResourceExhausted {
            budget: "memory".into(),
            used: 2048,
            limit: 1024,
            occurrence: Some("x".into()),
            iterations: Some(3),
        };
        let shown = err.to_string();
        assert!(shown.contains("memory budget"), "got: {shown}");
        assert!(shown.contains("2048"), "got: {shown}");
        assert!(shown.contains("1024"), "got: {shown}");
        assert!(shown.contains("$x"), "got: {shown}");
        assert!(shown.contains("3 iterations"), "got: {shown}");
    }

    #[test]
    fn internal_display_names_context_and_payload() {
        let err = ServiceError::Internal {
            message: "injected fault at shard.worker (hit 1)".into(),
            context: "query execution".into(),
        };
        let shown = err.to_string();
        assert!(shown.contains("contained"), "got: {shown}");
        assert!(shown.contains("shard.worker"), "got: {shown}");
    }
}
