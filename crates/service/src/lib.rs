#![warn(missing_docs)]

//! # xqy-service — a concurrent in-process query service
//!
//! [`xqy_ifp::Engine`] is a single-session affair: it owns its store
//! exclusively and executes one query at a time.  This crate layers a
//! **thread-safe service** on top of the same prepared-query machinery so
//! many sessions execute concurrently against one logical database:
//!
//! * **Shared snapshots** — writers load documents into a private master
//!   store and [`publish`](QueryService::publish) atomically; queries pin
//!   the published `Arc` for their whole run, so a republish never moves
//!   data under an executing query and no query ever observes a
//!   half-published store.  Construction bodies (`<a/>` inside a recurse)
//!   diverge onto a per-session copy-on-write store
//!   ([`xqy_ifp::xdm::CowStore`]) instead of blocking readers.
//! * **A cross-session plan cache** — preparation (parse, distributivity
//!   analysis, algebraic compilation) happens once per distinct query
//!   text; every session executes the one shared, immutable
//!   [`xqy_ifp::PreparedQuery`] directly and concurrently, each execution
//!   on an executor of its own.  A plain LRU map with
//!   hit/miss/eviction counters: a plan never read the store, so no
//!   publication invalidates it.
//! * **Admission, deadlines and budgets** — a bounded semaphore caps
//!   concurrent executions (typed [`ServiceError::Saturated`], carrying a
//!   `retry_after` hint consumed by
//!   [`execute_with_retry`](QueryService::execute_with_retry)) and
//!   per-query [`ResourceLimits`] (deadline, memory, iterations, result
//!   nodes) propagate down to every fixpoint iteration barrier (typed
//!   [`ServiceError::DeadlineExceeded`] /
//!   [`ServiceError::ResourceExhausted`]), so one runaway recursion
//!   cannot take the service down.
//! * **Failure-domain isolation** — each query is its own failure
//!   domain: an engine panic is caught at the service boundary and
//!   surfaced as the typed [`ServiceError::Internal`]; the executor that
//!   was in flight, possibly half-applied, is dropped by the unwind, the
//!   admission slot is released, and every other session continues
//!   undisturbed.
//!
//! ```
//! use std::sync::Arc;
//! use std::thread;
//! use xqy_service::QueryService;
//!
//! let service = Arc::new(QueryService::default());
//! service
//!     .load_document_with_ids(
//!         "curriculum.xml",
//!         r#"<curriculum>
//!              <course code="c1"><prerequisites><pre_code>c2</pre_code></prerequisites></course>
//!              <course code="c2"><prerequisites/></course>
//!            </curriculum>"#,
//!         &["code"],
//!     )
//!     .unwrap();
//! service.publish().unwrap();
//!
//! let query = "with $x seeded by doc('curriculum.xml')/curriculum/course[@code='c1'] \
//!              recurse $x/id(./prerequisites/pre_code)";
//! // The first run prepares the plan and seeds the cross-session cache;
//! // without it the four threads below could all miss concurrently.
//! assert_eq!(service.execute(query).unwrap().outcome.result.len(), 1);
//! let workers: Vec<_> = (0..4)
//!     .map(|_| {
//!         let service = Arc::clone(&service);
//!         thread::spawn(move || service.execute(query).unwrap().outcome.result.len())
//!     })
//!     .collect();
//! for worker in workers {
//!     assert_eq!(worker.join().unwrap(), 1); // the closure {c2}, in every session
//! }
//! assert_eq!(service.counters().cache.hits, 4); // prepared once, shared
//! ```

mod admission;
mod cache;
mod error;
mod service;

pub use cache::{CacheCounters, CacheOutcome};
pub use error::{Result, ServiceError};
pub use service::{
    PublishedSnapshot, QueryService, RetryPolicy, ServiceConfig, ServiceCounters, ServiceOutcome,
    ServiceStats,
};

// Convenience re-exports so service users need only this crate.
pub use xqy_ifp::{Backend, Bindings, ResourceLimits, Strategy};

// The whole point of the crate: the service (and its outcomes) cross
// threads freely.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<QueryService>();
    assert_send::<ServiceOutcome>();
    assert_send_sync::<ServiceError>();
};
