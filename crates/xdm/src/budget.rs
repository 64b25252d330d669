//! Approximate memory accounting for per-query resource budgets.
//!
//! A [`QueryBudget`] is a shared counter of *approximate bytes allocated on
//! behalf of one query*.  Growth points in the engine charge it as they
//! materialise data — new text payloads interned into the
//! [`TextPool`](crate::intern::TextPool), bulk
//! [`Sequence`](crate::Sequence) construction, node creation in the store
//! arena, and column allocation in the relational executor — and the
//! fixpoint drivers *check* it at their existing per-iteration barriers, so
//! a query that blows its budget aborts between iterations, never
//! mid-mutation.
//!
//! The accounting is deliberately approximate: it exists to stop runaway
//! accumulators (Koch's complexity results make unbounded intermediate
//! results inherent to the workload), not to audit the allocator.  Charges
//! flow through a thread-local handle installed for the duration of a query
//! ([`install`]); when no budget is installed every charge is a no-op.
//!
//! Before failing, a budget grants one round of **relief**
//! ([`QueryBudget::try_relieve`]): the checking driver drops recomputable
//! caches (string-value memos, static plan-result tables), credits the
//! freed estimate back, and retries the check — graceful degradation ahead
//! of a typed `BudgetExceeded` error.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Shared byte-accounting cell for a single query run.
#[derive(Debug)]
pub struct QueryBudget {
    limit: u64,
    charged: AtomicU64,
    relieved: AtomicBool,
}

impl QueryBudget {
    /// A budget allowing approximately `limit` bytes of materialised data.
    pub fn new(limit: u64) -> Arc<Self> {
        Arc::new(QueryBudget {
            limit,
            charged: AtomicU64::new(0),
            relieved: AtomicBool::new(false),
        })
    }

    /// Record `bytes` of growth.
    #[inline]
    pub fn charge(&self, bytes: u64) {
        self.charged.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Return `bytes` to the budget (saturating at zero), used when relief
    /// frees a cache whose contents had been charged.
    pub fn credit(&self, bytes: u64) {
        let mut cur = self.charged.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.charged.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Approximate bytes charged so far.
    pub fn used(&self) -> u64 {
        self.charged.load(Ordering::Relaxed)
    }

    /// The configured limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// `Some(used)` when the budget is currently exceeded.
    pub fn over_limit(&self) -> Option<u64> {
        let used = self.used();
        (used > self.limit).then_some(used)
    }

    /// Claim the single relief round.  The first caller gets `true` and
    /// should degrade (drop memos/caches, credit the freed bytes) before
    /// re-checking; later callers get `false` and should fail with
    /// `BudgetExceeded`.
    pub fn try_relieve(&self) -> bool {
        !self.relieved.swap(true, Ordering::Relaxed)
    }

    /// Whether relief has been claimed (degradation happened).
    pub fn relieved(&self) -> bool {
        self.relieved.load(Ordering::Relaxed)
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<QueryBudget>>> = const { RefCell::new(None) };
}

/// RAII guard restoring the previously installed budget (if any) on drop.
#[derive(Debug)]
pub struct BudgetScope {
    prev: Option<Arc<QueryBudget>>,
}

impl Drop for BudgetScope {
    fn drop(&mut self) {
        ACTIVE.with(|a| *a.borrow_mut() = self.prev.take());
    }
}

/// Install `budget` as this thread's active accounting cell for the
/// lifetime of the returned scope.
pub fn install(budget: Arc<QueryBudget>) -> BudgetScope {
    ACTIVE.with(|a| BudgetScope {
        prev: a.borrow_mut().replace(budget),
    })
}

/// The budget installed on this thread, if any.
pub fn current() -> Option<Arc<QueryBudget>> {
    ACTIVE.with(|a| a.borrow().clone())
}

/// Charge `bytes` against the installed budget; free when none is.
#[inline]
pub fn charge(bytes: u64) {
    ACTIVE.with(|a| {
        if let Some(b) = a.borrow().as_ref() {
            b.charge(bytes);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_credit_and_limits() {
        let b = QueryBudget::new(100);
        b.charge(60);
        assert_eq!(b.used(), 60);
        assert_eq!(b.over_limit(), None);
        b.charge(60);
        assert_eq!(b.over_limit(), Some(120));
        b.credit(200); // saturates
        assert_eq!(b.used(), 0);
        assert!(b.try_relieve());
        assert!(!b.try_relieve(), "relief is single-shot");
        assert!(b.relieved());
    }

    #[test]
    fn thread_local_install_is_scoped() {
        assert!(current().is_none());
        charge(10); // no-op without an installed budget
        let b = QueryBudget::new(1000);
        {
            let _scope = install(Arc::clone(&b));
            charge(25);
            charge(17);
            {
                // Nested install shadows and restores.
                let inner = QueryBudget::new(10);
                let _scope2 = install(Arc::clone(&inner));
                charge(5);
                assert_eq!(inner.used(), 5);
            }
            charge(1);
        }
        assert_eq!(b.used(), 43);
        assert!(current().is_none());
        charge(99); // dropped on the floor again
        assert_eq!(b.used(), 43);
    }

    #[test]
    fn budget_crosses_threads_via_arc() {
        let b = QueryBudget::new(u64::MAX);
        let b2 = Arc::clone(&b);
        std::thread::spawn(move || {
            let _scope = install(b2);
            charge(7);
        })
        .join()
        .unwrap();
        assert_eq!(b.used(), 7);
    }
}
