//! The surface the perf ledger's adapter (`benchmark/src/api.rs`) still
//! names and the engine no longer has: the cost model's `decide`, its
//! feedback cell and the occurrence features it priced, and the thread
//! policy of batched fixpoints.  The crate re-exports this module as
//! `cost`, the path the adapter imports, and [`Parallelism`] at its root.
//! Nothing in the engine or its tests uses it (CI fails when anything
//! outside it names what it holds); it goes when the adapter times
//! [`PreparedOccurrence::plan`] directly and stops choosing a thread count.

use xqy_xdm::StoreStatistics;

pub use crate::prepared::PlanAlternative;
use crate::prepared::{Backend, PreparedOccurrence, PreparedQuery};
use crate::{Engine, Result, Strategy};

/// The thread policy the adapter names.  Every fixpoint runs on the caller
/// thread whatever it says.
#[derive(Debug, Clone, Copy)]
pub enum Parallelism {
    /// The caller thread.
    Sequential,
    /// Also the caller thread.
    Fixed(usize),
}

impl Engine {
    /// Does nothing: every fixpoint runs on the caller thread.
    #[doc(hidden)]
    pub fn set_parallelism(&mut self, _parallelism: Parallelism) {}
}

impl PreparedQuery {
    /// [`PreparedQuery::new`]; the policy is not read.
    #[doc(hidden)]
    pub fn prepare(
        query: &str,
        strategy: Strategy,
        backend: Backend,
        _parallelism: Parallelism,
    ) -> Result<Self> {
        PreparedQuery::new(query, strategy, backend)
    }
}

/// What the adapter hands [`decide`] for an occurrence: the occurrence.
pub type OccurrenceFeatures = PreparedOccurrence;

impl PreparedOccurrence {
    /// The occurrence, under the name the adapter reads it by.
    #[doc(hidden)]
    pub fn features(&self) -> &OccurrenceFeatures {
        self
    }
}

/// A cell with nothing in it: plans are decided by rule.
#[derive(Debug, Default)]
pub struct FeedbackCell;

impl FeedbackCell {
    /// The empty cell.
    pub fn new() -> Self {
        FeedbackCell
    }
}

/// The plan rule under `Backend::Auto` for `occurrence`, batched when any
/// of `candidates` is.  The store statistics, the cell and the seed count
/// are not read.
pub fn decide(
    candidates: &[PlanAlternative],
    occurrence: &OccurrenceFeatures,
    _stats: &StoreStatistics,
    _feedback: &FeedbackCell,
    _seeds: usize,
) -> PlanAlternative {
    occurrence
        .plan(Backend::Auto, candidates.iter().any(|c| c.batched))
        .expect("the rule refuses no body under Backend::Auto")
}
