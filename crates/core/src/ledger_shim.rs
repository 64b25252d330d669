//! The surface the perf ledger's adapter (`benchmark/src/api.rs`) still
//! names and the engine no longer has: the cost model's `decide`, its
//! feedback cell and the occurrence features it priced.  The crate
//! re-exports this module as `cost`, the path the adapter imports.  Nothing
//! in the engine or its tests uses it (CI fails when anything outside it
//! names what it holds); it goes when the adapter times
//! [`PreparedOccurrence::plan`] directly.

use xqy_xdm::StoreStatistics;

pub use crate::prepared::PlanAlternative;
use crate::prepared::{Backend, PreparedOccurrence};

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
