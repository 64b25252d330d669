//! The concurrent query service itself.
//!
//! # Snapshot publication
//!
//! The service owns two stores-worth of state:
//!
//! * a **writer master** (`Mutex<NodeStore>`) that [`load_document`]
//!   (QueryService::load_document) and friends mutate, and
//! * the **published snapshot** (`RwLock<Arc<PublishedSnapshot>>`): an
//!   immutable clone of the master that queries read.
//!
//! Documents are immutable shared values (see [`xqy_ifp::xdm::store`]), so
//! a clone of the master is one pointer per document: the snapshot shares
//! every document, and everything derived from it, with the master and
//! with the snapshots before it.  [`publish`](QueryService::publish)
//! clones the master under the writer lock, builds the derived state of
//! the documents that do not have it yet ([`NodeStore::refresh_all`] —
//! those loaded or changed since the last publication) and atomically
//! swaps the `Arc` in; its cost follows what changed, not what is stored.
//! A query pins the `Arc` current at its start and keeps it for its whole
//! execution — a concurrent republish never changes data under a running
//! query, and dropping the last pin frees what only the superseded
//! snapshot held.  Because the swap replaces a whole
//! `Arc<PublishedSnapshot>` (store + revision built before the swap), no
//! reader can observe a half-published store.  Publication is
//! also **all-or-nothing under failure**: the fresh snapshot is built
//! fully before the published slot is touched, so a panic or injected
//! fault mid-clone or mid-refresh leaves the previous snapshot
//! installed.  The plan cache takes no part in publication: a cached
//! plan never read the store, so no snapshot can make it stale (see
//! [`crate::cache`]).
//!
//! Queries whose bodies *construct* nodes never write to the shared
//! snapshot: each execution wraps its pinned `Arc<NodeStore>` in a
//! [`CowStore`], so the first construction switches the session to a store
//! of its own — sharing every published document, adding its fragments —
//! and all other sessions keep reading the snapshot unblocked.
//!
//! # Failure domains
//!
//! Each query execution is a failure domain of its own.  A panic inside
//! the engine — an evaluator bug or an injected fault — is
//! caught at the service boundary (`catch_unwind`), converted to the
//! typed [`ServiceError::Internal`], and contained: the admission permit
//! is released by RAII, the executor the execution made — possibly
//! half-applied — is dropped by the unwind (see [`xqy_ifp::prepared`]),
//! and the cached plan, the published snapshot and the writer master, none of which the
//! execution could write to, are untouched.  Subsequent queries observe
//! nothing.
//!
//! # Plan cache, deadlines and budgets
//!
//! See [`crate::cache`] for the cross-session prepared-plan cache and
//! [`crate::admission`] for the bounded admission front-end.  Per-query
//! resource budgets ([`ResourceLimits`]: deadline, memory, iterations,
//! result nodes) are enforced cooperatively: they are handed down as
//! [`ExecOptions::limits`] and checked by both fixpoint drivers at every
//! iteration barrier, so an over-budget query aborts between iterations
//! with a typed error and the service keeps serving.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use xqy_ifp::algebra::AlgebraError;
use xqy_ifp::eval::EvalError;
use xqy_ifp::xdm::{fail, CowStore, NodeStore};
use xqy_ifp::{
    Backend, Bindings, ExecOptions, IfpError, PreparedQuery, QueryOutcome, ResourceLimits, Strategy,
};

use crate::admission::Admission;
use crate::cache::{CacheCounters, CacheOutcome, Key, PlanCache};
use crate::error::{Result, ServiceError};

/// Construction-time knobs of a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Queries allowed to execute simultaneously (≥ 1).
    pub max_concurrent: usize,
    /// Additional queries allowed to wait for a slot before new arrivals
    /// are rejected with [`ServiceError::Saturated`].
    pub max_queue: usize,
    /// Prepared-plan cache capacity (entries, ≥ 1).
    pub plan_cache_capacity: usize,
    /// Default per-query timeout; `None` means queries never time out
    /// unless [`execute_with`](QueryService::execute_with) passes one.
    pub default_timeout: Option<Duration>,
    /// Default per-query resource budgets (memory, iterations, result
    /// nodes).  The per-call deadline derived from the timeout is merged
    /// in on top; [`ResourceLimits::default`] leaves everything unlimited.
    pub limits: ResourceLimits,
    /// Fixpoint strategy queries are prepared under.
    pub strategy: Strategy,
    /// Back-end queries are prepared under.
    pub backend: Backend,
    /// Start IFP accumulations from the seed itself.
    pub seed_in_result: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_concurrent: 8,
            max_queue: 32,
            plan_cache_capacity: 64,
            default_timeout: None,
            limits: ResourceLimits::default(),
            strategy: Strategy::Auto,
            backend: Backend::Auto,
            seed_in_result: false,
        }
    }
}

/// Bounded exponential backoff for
/// [`execute_with_retry`](QueryService::execute_with_retry).  Only
/// [`ServiceError::Saturated`] is retried — every other error (including
/// deadline and budget rejections) is definitive for the query as
/// submitted.  The wait before retry *n* is the larger of the service's
/// [`retry_after`](ServiceError::Saturated::retry_after) hint and
/// `base · 2ⁿ` (capped at `cap`), scaled by a deterministic jitter in
/// [0.5, 1.0) derived from `jitter_seed` so colliding clients spread out
/// reproducibly.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single wait.
    pub cap: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(5),
            cap: Duration::from_secs(1),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// One published store version: the frozen snapshot queries execute
/// against, plus the `revision` that names it.
#[derive(Debug, Clone)]
pub struct PublishedSnapshot {
    /// The frozen store.  Shared — executions that construct nodes get a
    /// private copy-on-write divergence instead of mutating this.
    pub store: Arc<NodeStore>,
    /// [`NodeStore::revision`] at publication.
    pub revision: u64,
}

/// Per-query execution statistics.
#[derive(Debug, Clone, Copy)]
pub struct ServiceStats {
    /// Time spent waiting for an admission slot.
    pub queue_wait: Duration,
    /// Time spent executing the plan over the pinned snapshot.  The clock
    /// starts once the plan is in hand: admission wait is
    /// [`queue_wait`](Self::queue_wait), and neither the cache lookup nor a
    /// miss's preparation is counted.
    pub execute_time: Duration,
    /// `revision` of the snapshot the query ran against.
    pub snapshot_revision: u64,
    /// Whether the plan came from the cross-session cache.
    pub cache: CacheOutcome,
}

/// A successful query execution: the engine outcome, the service-level
/// stats, and the store the result's nodes live in.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// The engine-level outcome (result sequence, distributivity reports,
    /// per-occurrence decisions, fixpoint statistics).
    pub outcome: QueryOutcome,
    /// Service-level statistics for this query.
    pub stats: ServiceStats,
    /// The store the result nodes reference: the pinned published snapshot,
    /// or this execution's private copy-on-write divergence if the query
    /// constructed nodes.
    pub store: Arc<NodeStore>,
}

impl ServiceOutcome {
    /// Serialize the result sequence against [`ServiceOutcome::store`].
    pub fn display(&self) -> String {
        self.outcome.result.display(&self.store)
    }
}

/// Cumulative service counters (all monotone over the service lifetime,
/// except the instantaneous `active`/`queued` pair).
#[derive(Debug, Clone, Copy)]
pub struct ServiceCounters {
    /// Queries that completed successfully.
    pub succeeded: u64,
    /// Queries rejected or aborted by their deadline.
    pub deadline_exceeded: u64,
    /// Queries aborted because a resource budget was exhausted.
    pub resource_exhausted: u64,
    /// Queries rejected because the service was saturated.
    pub saturated: u64,
    /// Queries that failed with a query error.
    pub failed: u64,
    /// Engine panics caught and contained at the service boundary.
    pub contained_panics: u64,
    /// Plan-cache counters.
    pub cache: CacheCounters,
    /// Queries executing right now.
    pub active: usize,
    /// Queries queued for admission right now.
    pub queued: usize,
}

/// A thread-safe, in-process query service: many sessions execute
/// concurrently against one published snapshot, sharing prepared plans
/// through a cross-session cache, under bounded admission, per-query
/// deadlines and resource budgets, with engine panics contained per
/// query.  See the crate docs for the architecture.
#[derive(Debug)]
pub struct QueryService {
    config: ServiceConfig,
    /// The mutable master copy: loads apply here, invisible to queries
    /// until [`publish`](QueryService::publish).
    writer: Mutex<NodeStore>,
    published: RwLock<Arc<PublishedSnapshot>>,
    cache: PlanCache,
    admission: Admission,
    succeeded: AtomicU64,
    deadline_exceeded: AtomicU64,
    resource_exhausted: AtomicU64,
    saturated: AtomicU64,
    failed: AtomicU64,
    contained_panics: AtomicU64,
    /// Exponential moving average of execution times (µs), feeding the
    /// [`retry_after`](ServiceError::Saturated::retry_after) hint.
    avg_execute_micros: AtomicU64,
}

impl Default for QueryService {
    fn default() -> Self {
        QueryService::new(ServiceConfig::default())
    }
}

impl QueryService {
    /// Create a service with an empty store (already published).
    pub fn new(config: ServiceConfig) -> Self {
        let master = NodeStore::new();
        let published = publish_clone(&master);
        QueryService {
            admission: Admission::new(config.max_concurrent, config.max_queue),
            cache: PlanCache::new(config.plan_cache_capacity),
            writer: Mutex::new(master),
            published: RwLock::new(Arc::new(published)),
            config,
            succeeded: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            resource_exhausted: AtomicU64::new(0),
            saturated: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            contained_panics: AtomicU64::new(0),
            avg_execute_micros: AtomicU64::new(0),
        }
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Parse `xml` into the writer master under `uri`.  Invisible to
    /// queries until the next [`publish`](QueryService::publish).
    pub fn load_document(&self, uri: &str, xml: &str) -> Result<()> {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        writer
            .parse_document_with_uri(uri, xml)
            .map(|_| ())
            .map_err(|e| ServiceError::Query(IfpError::Document(e.to_string())))
    }

    /// Like [`load_document`](QueryService::load_document), and declare the
    /// attributes named in `id_attributes` ID-typed (so `id(...)` lookups
    /// work, mirroring a DTD `#ID` declaration).
    pub fn load_document_with_ids(
        &self,
        uri: &str,
        xml: &str,
        id_attributes: &[&str],
    ) -> Result<()> {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let doc = writer
            .parse_document_with_uri(uri, xml)
            .map_err(|e| ServiceError::Query(IfpError::Document(e.to_string())))?;
        for attr in id_attributes {
            writer.register_id_attribute(doc, attr);
        }
        Ok(())
    }

    /// Atomically publish the writer master's current state: clone it,
    /// build whatever derived state is missing, and swap it in as the
    /// snapshot new queries pin.  In-flight queries keep the snapshot they
    /// pinned.
    ///
    /// The clone copies no node: the snapshot shares every document with
    /// the master, and so with the previous snapshot every document that
    /// did not change in between, derived state included.  `refresh_all`
    /// therefore builds order ranks, ID index and statistics only for
    /// documents loaded (or given a new ID declaration) since they were
    /// last built, and the store statistics are a sum over per-document
    /// summaries.  The one O(document) copy left is on the
    /// writer's side: declaring an ID attribute on a document a snapshot
    /// still shares copies that document.
    ///
    /// The plan cache is not touched, whatever changed: a prepared plan
    /// never read the store, so a plan cached under the old snapshot is as
    /// right on the new one — `doc(...)` resolves at run time, and a warm
    /// executor keeps no table from one run to the next.  Every execution
    /// decides its plan by rule from the plan alone, never from the store.
    ///
    /// Publication is all-or-nothing under failure: the fresh snapshot is
    /// built *fully* before the published slot is touched, so a panic (or
    /// an injected `publish.clone` / `publish.refresh` fault) surfaces as
    /// a typed error with the previous snapshot still installed.
    ///
    /// Returns the published snapshot.
    pub fn publish(&self) -> Result<PublishedSnapshot> {
        let writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let built = catch_unwind(AssertUnwindSafe(|| -> Result<PublishedSnapshot> {
            fail::point("publish.clone").map_err(|e| fault_internal(e, "publish (clone)"))?;
            let clone = writer.clone();
            fail::point("publish.refresh").map_err(|e| fault_internal(e, "publish (refresh)"))?;
            clone.refresh_all();
            Ok(PublishedSnapshot {
                revision: clone.revision(),
                store: Arc::new(clone),
            })
        }));
        // The unwind was caught before the writer guard dropped, so the
        // lock is not poisoned, and cloning only *read* the master (derived
        // state built on the way is the documents' own and stays valid).
        // Only a fully built snapshot reaches the swap below.
        let fresh = match built {
            Ok(result) => result?,
            Err(payload) => {
                return Err(ServiceError::Internal {
                    message: panic_message(payload),
                    context: "publish".into(),
                })
            }
        };
        *self
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Arc::new(fresh.clone());
        drop(writer);
        Ok(fresh)
    }

    /// The snapshot new queries currently pin.
    pub fn published(&self) -> PublishedSnapshot {
        let slot = self
            .published
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        (**slot).clone()
    }

    /// Execute `query` with no external bindings and the default timeout.
    pub fn execute(&self, query: &str) -> Result<ServiceOutcome> {
        self.execute_with(query, &Bindings::new(), None)
    }

    /// Execute `query` with `bindings`; `timeout` overrides
    /// [`ServiceConfig::default_timeout`] when `Some`.
    ///
    /// The full flow: admission (bounded, deadline-aware) → pin the
    /// published snapshot → fetch or prepare the plan through the shared
    /// cache → execute over a copy-on-write view of the pinned store with
    /// the deadline and resource budgets propagated to every fixpoint
    /// iteration barrier.  An engine panic is contained here and returned
    /// as [`ServiceError::Internal`]; the service stays fully operational.
    pub fn execute_with(
        &self,
        query: &str,
        bindings: &Bindings,
        timeout: Option<Duration>,
    ) -> Result<ServiceOutcome> {
        let submitted = Instant::now();
        let timeout = timeout.or(self.config.default_timeout);
        let deadline = timeout.map(|t| submitted + t);
        // Outer containment: anything that unwinds outside the inner
        // execution boundary (e.g. an injected panic during plan-cache
        // insertion) is still converted to a typed error.  RAII cleans up
        // on the unwind path: the admission permit releases its slot.
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.execute_admitted(query, bindings, submitted, timeout, deadline)
        }))
        .unwrap_or_else(|payload| {
            Err(ServiceError::Internal {
                message: panic_message(payload),
                context: "query dispatch".into(),
            })
        });
        match &result {
            Ok(_) => self.succeeded.fetch_add(1, Ordering::Relaxed),
            Err(ServiceError::DeadlineExceeded { .. }) => {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed)
            }
            Err(ServiceError::ResourceExhausted { .. }) => {
                self.resource_exhausted.fetch_add(1, Ordering::Relaxed)
            }
            Err(ServiceError::Saturated { .. }) => self.saturated.fetch_add(1, Ordering::Relaxed),
            Err(ServiceError::Query(_)) => self.failed.fetch_add(1, Ordering::Relaxed),
            Err(ServiceError::Internal { .. }) => {
                self.contained_panics.fetch_add(1, Ordering::Relaxed)
            }
        };
        result
    }

    /// Like [`execute_with`](QueryService::execute_with), retrying
    /// [`ServiceError::Saturated`] rejections under `policy`'s bounded
    /// exponential backoff.  Every other outcome — success, query error,
    /// deadline, budget, contained panic — is returned as-is on the
    /// attempt that produced it.
    pub fn execute_with_retry(
        &self,
        query: &str,
        bindings: &Bindings,
        timeout: Option<Duration>,
        policy: &RetryPolicy,
    ) -> Result<ServiceOutcome> {
        let max_attempts = policy.max_attempts.max(1);
        let mut jitter = policy.jitter_seed;
        let mut attempt = 0;
        loop {
            match self.execute_with(query, bindings, timeout) {
                Err(ServiceError::Saturated { retry_after, .. }) if attempt + 1 < max_attempts => {
                    let backoff = policy
                        .base
                        .saturating_mul(1u32 << attempt.min(16))
                        .min(policy.cap);
                    let delay = backoff.max(retry_after).min(policy.cap);
                    std::thread::sleep(jittered(delay, &mut jitter));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    fn execute_admitted(
        &self,
        query: &str,
        bindings: &Bindings,
        submitted: Instant,
        timeout: Option<Duration>,
        deadline: Option<Instant>,
    ) -> Result<ServiceOutcome> {
        // RAII permit: released on every exit path below — including an
        // unwind — so a failed, timed-out or panicking query never leaks
        // its slot.
        let _permit =
            self.admission
                .acquire(deadline, timeout.unwrap_or_default(), self.retry_hint())?;
        let queue_wait = submitted.elapsed();

        // Pin the snapshot current *now*; a concurrent publish after this
        // point has no effect on this query.
        let pinned = self.published();

        let (plan, cache_outcome) = self.prepared_plan(query)?;

        // Copy-on-write view: reads are served by the shared snapshot; a
        // construction body gets a store of its own (one pointer per
        // published document) instead of blocking anyone.
        let started = Instant::now();
        let mut cow = CowStore::new(Arc::clone(&pinned.store));
        let mut limits = self.config.limits;
        limits.deadline = match (limits.deadline, deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => b.or(a),
        };
        let opts = ExecOptions {
            seed_in_result: self.config.seed_in_result,
            limits,
        };
        // Containment boundary.  `AssertUnwindSafe` is justified by what
        // happens to each captured value when the closure panics:
        //   * `cow` is private to this query and never used again — the
        //     shared snapshot behind it is only read;
        //   * the plan is immutable; the executor the execution made may
        //     hold half-applied state and was dropped by the unwind itself;
        //   * the budget scope is thread-local and unwound by RAII.
        let executed = catch_unwind(AssertUnwindSafe(|| {
            plan.execute_on(&mut cow, bindings, &opts)
        }));
        let outcome = match executed {
            Ok(result) => result.map_err(|err| map_engine_error(err, timeout))?,
            Err(payload) => {
                return Err(ServiceError::Internal {
                    message: panic_message(payload),
                    context: "query execution".into(),
                });
            }
        };
        let execute_time = started.elapsed();
        self.observe_execute(execute_time);

        Ok(ServiceOutcome {
            outcome,
            stats: ServiceStats {
                queue_wait,
                execute_time,
                snapshot_revision: pinned.revision,
                cache: cache_outcome,
            },
            store: cow.into_arc(),
        })
    }

    /// `query`'s prepared plan from the cache, or prepare it (outside the
    /// cache lock) and insert it for the next session.
    fn prepared_plan(&self, query: &str) -> Result<(Arc<PreparedQuery>, CacheOutcome)> {
        let key = Key {
            query: query.to_owned(),
            backend: self.config.backend,
            strategy: self.config.strategy,
        };
        if let Some(plan) = self.cache.get(&key) {
            return Ok((plan, CacheOutcome::Hit));
        }
        let prepared = Arc::new(
            PreparedQuery::new(query, key.strategy, key.backend).map_err(ServiceError::Query)?,
        );
        fail::point("cache.insert").map_err(|e| fault_internal(e, "plan-cache insert"))?;
        Ok((self.cache.insert(key, prepared), CacheOutcome::Miss))
    }

    /// Fold one observed execution time into the moving average behind
    /// the [`retry_after`](ServiceError::Saturated::retry_after) hint.
    fn observe_execute(&self, took: Duration) {
        let sample = took.as_micros().min(u128::from(u64::MAX)) as u64;
        let old = self.avg_execute_micros.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            // EWMA with α = 1/8; a racing store loses an update, which is
            // acceptable for a hint.
            old - old / 8 + sample / 8
        };
        self.avg_execute_micros.store(new, Ordering::Relaxed);
    }

    /// How long a rejected client should wait before retrying: roughly
    /// the time for the current queue to drain through the execution
    /// slots at the observed average execution time, clamped to
    /// [1 ms, 5 s].
    fn retry_hint(&self) -> Duration {
        let avg = match self.avg_execute_micros.load(Ordering::Relaxed) {
            0 => 10_000, // no observations yet: assume 10 ms
            observed => observed,
        };
        let (_, queued) = self.admission.load();
        let slots = self.config.max_concurrent.max(1) as u64;
        let micros = avg.saturating_mul(queued as u64 + 1) / slots;
        Duration::from_micros(micros.clamp(1_000, 5_000_000))
    }

    /// Cumulative counters plus the instantaneous admission load.
    pub fn counters(&self) -> ServiceCounters {
        let (active, queued) = self.admission.load();
        ServiceCounters {
            succeeded: self.succeeded.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            resource_exhausted: self.resource_exhausted.load(Ordering::Relaxed),
            saturated: self.saturated.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            contained_panics: self.contained_panics.load(Ordering::Relaxed),
            cache: self.cache.counters(),
            active,
            queued,
        }
    }
}

/// Map an engine error to its service-level form, enriching deadline and
/// budget aborts with the fixpoint occurrence and iteration count they
/// carry.
fn map_engine_error(err: IfpError, timeout: Option<Duration>) -> ServiceError {
    match err {
        IfpError::Eval(EvalError::DeadlineExceeded {
            occurrence,
            iterations,
        }) => ServiceError::DeadlineExceeded {
            timeout: timeout.unwrap_or_default(),
            occurrence: (!occurrence.is_empty()).then_some(occurrence),
            iterations: Some(iterations as u64),
        },
        IfpError::Eval(EvalError::BudgetExceeded {
            budget,
            used,
            limit,
            occurrence,
            iterations,
        }) => ServiceError::ResourceExhausted {
            budget,
            used,
            limit,
            occurrence: (!occurrence.is_empty()).then_some(occurrence),
            iterations: Some(iterations as u64),
        },
        // Algebra aborts outside an interceptor reach us unmapped (the
        // interceptor converts them to the eval variants above, adding the
        // occurrence); carry what they know.
        IfpError::Algebra(AlgebraError::Limit(limit)) => map_engine_error(
            IfpError::Eval(xqy_ifp::eval::fixpoint::limit_error("", limit)),
            timeout,
        ),
        other => ServiceError::Query(other),
    }
}

/// An `Error`-action failpoint surfaced outside the engine: report it as
/// the contained internal failure it simulates.
fn fault_internal(err: fail::FaultError, context: &str) -> ServiceError {
    ServiceError::Internal {
        message: err.to_string(),
        context: context.to_string(),
    }
}

/// Render a caught panic payload (`&str` and `String` payloads verbatim).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deterministic jitter: scale `delay` by [0.5, 1.0) drawn from a
/// splitmix64 stream over `state`.
fn jittered(delay: Duration, state: &mut u64) -> Duration {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    delay.mul_f64(0.5 + (z % 1024) as f64 / 2048.0)
}

/// Clone `master` into a fresh published snapshot with all derived state
/// built.
fn publish_clone(master: &NodeStore) -> PublishedSnapshot {
    let clone = master.clone();
    clone.refresh_all();
    PublishedSnapshot {
        revision: clone.revision(),
        store: Arc::new(clone),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CURRICULUM: &str = r#"<curriculum>
        <course code="c1"><prerequisites><pre_code>c2</pre_code></prerequisites></course>
        <course code="c2"><prerequisites><pre_code>c3</pre_code></prerequisites></course>
        <course code="c3"><prerequisites/></course>
    </curriculum>"#;

    const CLOSURE_QUERY: &str = "with $x seeded by \
        doc('curriculum.xml')/curriculum/course[@code='c1'] \
        recurse $x/id(./prerequisites/pre_code)";

    fn service_with_curriculum() -> QueryService {
        let service = QueryService::default();
        service
            .load_document_with_ids("curriculum.xml", CURRICULUM, &["code"])
            .unwrap();
        service.publish().unwrap();
        service
    }

    #[test]
    fn loads_are_invisible_until_publish() {
        let service = QueryService::default();
        service
            .load_document_with_ids("curriculum.xml", CURRICULUM, &["code"])
            .unwrap();
        // Not yet published: doc() fails against the (empty) snapshot.
        assert!(matches!(
            service.execute(CLOSURE_QUERY),
            Err(ServiceError::Query(_))
        ));
        service.publish().unwrap();
        let outcome = service.execute(CLOSURE_QUERY).unwrap();
        assert_eq!(outcome.outcome.result.len(), 2); // c2, c3
    }

    /// A stack overflow is an abort `catch_unwind` cannot contain, so a
    /// hostile nesting depth has to come back as a typed error — on a
    /// client's default-stack thread — and leave the service answering.
    #[test]
    fn hostile_nesting_is_an_error_and_the_service_answers_on() {
        let service = Arc::new(service_with_curriculum());
        let client = Arc::clone(&service);
        let refused = std::thread::spawn(move || {
            [
                format!("{}1{}", "(".repeat(10_000), ")".repeat(10_000)),
                // No nesting for the parser to count, 5 000 levels of tree.
                format!("1{}", "+1".repeat(4_999)),
            ]
            .map(|hostile| client.execute(&hostile))
        });
        for refusal in refused.join().expect("client thread") {
            assert!(matches!(
                refusal,
                Err(ServiceError::Query(xqy_ifp::IfpError::Parse(_)))
            ));
        }
        let deep = format!("{}{}", "<e>".repeat(10_000), "</e>".repeat(10_000));
        assert!(matches!(
            service.load_document("deep.xml", &deep),
            Err(ServiceError::Query(xqy_ifp::IfpError::Document(_)))
        ));
        let outcome = service.execute(CLOSURE_QUERY).unwrap();
        assert_eq!(outcome.outcome.result.len(), 2);
    }

    /// A load that fails to parse must not reach the next publication: the
    /// master keeps its document count and statistics, and the URI stays
    /// free for a well-formed document.
    #[test]
    fn a_malformed_load_ships_nothing_with_the_next_publish() {
        let service = service_with_curriculum();
        let before = service.published();
        let shape = |s: &PublishedSnapshot| {
            let stats = s.store.statistics();
            (
                s.store.document_count(),
                stats.totals,
                stats.per_document.clone(),
            )
        };
        for _ in 0..3 {
            assert!(matches!(
                service.load_document_with_ids("late.xml", "<late><half id=\"h\">", &["code"]),
                Err(ServiceError::Query(xqy_ifp::IfpError::Document(_)))
            ));
        }
        service.publish().unwrap();
        let after = service.published();
        assert_eq!(shape(&after), shape(&before));
        assert_eq!(after.store.doc("late.xml"), None);

        service
            .load_document_with_ids("late.xml", "<late><whole id=\"h\"/></late>", &[])
            .unwrap();
        service.publish().unwrap();
        let whole = service.execute("doc('late.xml')/late/id('h')").unwrap();
        assert_eq!(whole.outcome.result.len(), 1);
        assert_eq!(service.published().store.document_count(), 2);
        assert_eq!(
            service.execute(CLOSURE_QUERY).unwrap().outcome.result.len(),
            2
        );
    }

    #[test]
    fn cross_session_cache_hit_and_stats() {
        let service = service_with_curriculum();
        let first = service.execute(CLOSURE_QUERY).unwrap();
        assert_eq!(first.stats.cache, CacheOutcome::Miss);
        let second = service.execute(CLOSURE_QUERY).unwrap();
        assert_eq!(second.stats.cache, CacheOutcome::Hit);
        assert_eq!(
            first.stats.snapshot_revision,
            second.stats.snapshot_revision
        );
        let counters = service.counters();
        assert_eq!(counters.succeeded, 2);
        assert!(counters.cache.hits >= 1);
    }

    #[test]
    fn published_snapshots_share_the_text_pool() {
        let service = service_with_curriculum();
        let first = service.published();
        // Publishing an unchanged master copies no text: the clone shares
        // the writer's payload table, so consecutive snapshots point at
        // one storage.
        let second = service.publish().unwrap();
        assert!(first.store.shares_text_pool(&second.store));
        // Loading a document grows the writer's pool; because the storage
        // was shared with live snapshots, the writer deep-copies — the old
        // snapshots keep theirs untouched.
        service.load_document("p.xml", "<r>payload</r>").unwrap();
        let third = service.publish().unwrap();
        assert!(!first.store.shares_text_pool(&third.store));
        assert!(first.store.shares_text_pool(&second.store));
        // And the diverged snapshots still resolve their own payloads.
        assert_eq!(
            third
                .store
                .resolve_text(third.store.text_pool_get("payload").unwrap()),
            "payload"
        );
    }

    #[test]
    fn construction_diverges_privately() {
        let service = service_with_curriculum();
        let before = service.published();
        let outcome = service
            .execute("with $x seeded by <a/> recurse $x")
            .unwrap();
        // The construction ran on a private copy …
        assert!(outcome.store.revision() > before.revision);
        // … and the published snapshot is untouched.
        assert_eq!(service.published().revision, before.revision);
        assert_eq!(outcome.outcome.result.len(), 1);
    }

    #[test]
    fn deadline_exceeded_is_typed_and_does_not_poison() {
        let service = service_with_curriculum();
        // A diverging fixpoint: the constructor is rec-*dependent* (ranges
        // over $x), so every iteration mints fresh nodes — the accumulation
        // never stabilises (until the iteration/node caps, far beyond this
        // budget) and the deadline is what stops it.  A bare `recurse <b/>`
        // would NOT diverge: the rec-independent constructor is hoisted and
        // evaluated once, so the same node comes back every iteration.
        let diverging = "with $x seeded by <a/> recurse (for $y in $x return <b/>)";
        let err = service
            .execute_with(diverging, &Bindings::new(), Some(Duration::from_millis(5)))
            .expect_err("diverging query must hit its deadline");
        assert!(matches!(err, ServiceError::DeadlineExceeded { .. }));
        // PR 10: a deadline that fires at a fixpoint barrier carries the
        // occurrence and iteration count into the service-level error.
        if let ServiceError::DeadlineExceeded {
            occurrence,
            iterations,
            ..
        } = &err
        {
            assert_eq!(occurrence.as_deref(), Some("x"));
            assert!(iterations.is_some());
        }
        // The service keeps serving normal queries afterwards.
        let outcome = service.execute(CLOSURE_QUERY).unwrap();
        assert_eq!(outcome.outcome.result.len(), 2);
        let counters = service.counters();
        assert_eq!(counters.deadline_exceeded, 1);
        assert_eq!(counters.active, 0);
    }

    /// PR 10: an iteration budget aborts a diverging fixpoint with a
    /// typed, occurrence-carrying error, without needing a deadline.
    #[test]
    fn iteration_budget_is_typed_resource_exhaustion() {
        let config = ServiceConfig {
            limits: ResourceLimits {
                max_iterations: Some(3),
                ..ResourceLimits::default()
            },
            ..ServiceConfig::default()
        };
        let service = QueryService::new(config);
        service
            .load_document_with_ids("curriculum.xml", CURRICULUM, &["code"])
            .unwrap();
        service.publish().unwrap();
        let diverging = "with $x seeded by <a/> recurse (for $y in $x return <b/>)";
        let err = service
            .execute(diverging)
            .expect_err("3-iteration budget must trip");
        match &err {
            ServiceError::ResourceExhausted {
                budget, iterations, ..
            } => {
                assert_eq!(budget, "iterations");
                assert!(iterations.is_some());
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        // Within-budget queries still run, and the counter moved.
        assert_eq!(
            service.execute(CLOSURE_QUERY).unwrap().outcome.result.len(),
            2
        );
        assert_eq!(service.counters().resource_exhausted, 1);
    }

    #[test]
    fn display_serializes_against_the_outcome_store() {
        let service = service_with_curriculum();
        let outcome = service
            .execute("doc('curriculum.xml')/curriculum/course[@code='c3']")
            .unwrap();
        let shown = outcome.display();
        assert!(shown.contains("c3"), "got: {shown}");
    }
}
