//! Cross-session prepared-plan cache.
//!
//! Preparation (parse → distributivity analysis → algebraic compilation)
//! is the expensive, *store-independent* half of query processing, and a
//! [`PreparedQuery`] is an immutable value: it captures the analysed module
//! and its compiled plans, pins no documents and is never written to by an
//! execution (the executors that run it are checked out of the query's own
//! runtime pool, one per execution in flight — see [`xqy_ifp::prepared`]).
//! So the cache is a plain map from [`Key`] — the query *text* plus the
//! knobs that change the prepared artifact (backend, strategy, parallelism)
//! — to one `Arc<PreparedQuery>` that every session executes directly and
//! concurrently, on any snapshot.
//!
//! Nothing invalidates an entry.  A plan never read the store, so a
//! publication cannot make it wrong: `doc(...)` resolves at run time, a
//! warm executor keeps symbols but no table from one run to the next (and
//! restarts the symbols when a snapshot brings another text pool), and
//! every execution takes its cost-based decisions from the
//! statistics of the snapshot it runs on (the plan's feedback cells drop
//! their observations themselves when the data changes *materially*).  An
//! execution that still holds a plan when its entry is evicted simply
//! finishes on it.
//!
//! Eviction is least-recently-used via a monotone tick stamped on every
//! hit; capacity is fixed at construction.  All counters
//! ([`CacheCounters`]) are cumulative over the service lifetime.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use xqy_ifp::{Backend, Parallelism, PreparedQuery, Strategy};

/// How the cache answered a single query's lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The prepared plan was found in the cache (no parse/analyse work).
    Hit,
    /// The query was prepared from scratch and inserted.
    Miss,
}

/// Cumulative cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a fresh preparation.
    pub misses: u64,
    /// Entries displaced by capacity pressure (LRU).
    pub evictions: u64,
    /// Runtimes minted beyond a plan's first — because every pooled one was
    /// in flight (or the one in flight was lost to a panic) — summed over
    /// the resident plans and, as of their eviction, the retired ones.
    pub forks: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// Cache key: the query text plus every knob that changes the prepared
/// artifact.  Nothing about the store is in it — loading a document never
/// costs a re-parse and re-compile of a query text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Key {
    pub(crate) query: String,
    pub(crate) backend: Backend,
    pub(crate) strategy: Strategy,
    pub(crate) parallelism: Parallelism,
}

#[derive(Debug)]
struct Entry {
    plan: Arc<PreparedQuery>,
    last_used: u64,
}

/// The runtimes `plan` minted beyond its first.
fn forks(plan: &PreparedQuery) -> u64 {
    plan.runtimes_minted().saturating_sub(1)
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<Key, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// [`forks`] of the evicted plans, as of their eviction.
    retired_forks: u64,
}

impl Inner {
    /// The resident plan under `key`, its recency refreshed.
    fn touch(&mut self, key: &Key) -> Option<Arc<PreparedQuery>> {
        self.tick += 1;
        let entry = self.entries.get_mut(key)?;
        entry.last_used = self.tick;
        Some(Arc::clone(&entry.plan))
    }
}

/// Thread-safe LRU cache of [`PreparedQuery`] artifacts shared by all
/// sessions of one [`QueryService`](crate::QueryService).
#[derive(Debug)]
pub(crate) struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl PlanCache {
    pub(crate) fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look `key`'s plan up; records a hit (refreshing recency) or a miss.
    /// On a miss the caller prepares *outside* the cache lock and calls
    /// [`PlanCache::insert`].
    pub(crate) fn get(&self, key: &Key) -> Option<Arc<PreparedQuery>> {
        let mut inner = self.lock();
        let plan = inner.touch(key);
        match plan {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        plan
    }

    /// Insert a freshly prepared plan (after a [`get`](PlanCache::get)
    /// miss), evicting the least-recently-used entry if the cache is full,
    /// and return the plan to execute.  If another session raced us and
    /// inserted the same key first, its plan wins and is returned instead,
    /// so all sessions share one preparation.
    pub(crate) fn insert(&self, key: Key, prepared: Arc<PreparedQuery>) -> Arc<PreparedQuery> {
        let mut inner = self.lock();
        if let Some(resident) = inner.touch(&key) {
            return resident;
        }
        if inner.entries.len() >= self.capacity {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone());
            if let Some(retired) = victim.and_then(|key| inner.entries.remove(&key)) {
                inner.evictions += 1;
                inner.retired_forks += forks(&retired.plan);
            }
        }
        let last_used = inner.tick;
        let plan = Arc::clone(&prepared);
        inner.entries.insert(key, Entry { plan, last_used });
        prepared
    }

    /// Cumulative counters plus current occupancy.
    pub(crate) fn counters(&self) -> CacheCounters {
        let inner = self.lock();
        let resident_forks: u64 = inner.entries.values().map(|e| forks(&e.plan)).sum();
        CacheCounters {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            forks: inner.retired_forks + resident_forks,
            entries: inner.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use xqy_ifp::xdm::{Item, NodeStore, Sequence};
    use xqy_ifp::{Bindings, ExecOptions};

    fn prepared(query: &str) -> Arc<PreparedQuery> {
        Arc::new(
            PreparedQuery::prepare(
                query,
                Strategy::Auto,
                Backend::SourceLevel,
                Parallelism::Sequential,
            )
            .expect("test query prepares"),
        )
    }

    const Q1: &str = "1 + 1";
    const Q2: &str = "2 + 2";
    const Q3: &str = "3 + 3";

    fn key(query: &str) -> Key {
        Key {
            query: query.to_owned(),
            backend: Backend::Auto,
            strategy: Strategy::Auto,
            parallelism: Parallelism::Sequential,
        }
    }

    fn get(cache: &PlanCache, q: &str) -> Option<Arc<PreparedQuery>> {
        cache.get(&key(q))
    }

    fn put(cache: &PlanCache, q: &str) -> Arc<PreparedQuery> {
        cache.insert(key(q), prepared(q))
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let cache = PlanCache::new(2);
        assert!(get(&cache, Q1).is_none());
        put(&cache, Q1);
        put(&cache, Q2);
        assert!(get(&cache, Q1).is_some()); // refreshes Q1's recency
        put(&cache, Q3); // evicts Q2 (least recently used)
        assert!(get(&cache, Q1).is_some());
        assert!(get(&cache, Q2).is_none());
        assert!(get(&cache, Q3).is_some());
        let counters = cache.counters();
        assert_eq!(counters.evictions, 1);
        assert_eq!(counters.entries, 2);
        assert_eq!(counters.hits, 3);
        assert_eq!(counters.misses, 2);
    }

    #[test]
    fn key_includes_backend_and_strategy() {
        let cache = PlanCache::new(8);
        let naive_source = Key {
            backend: Backend::SourceLevel,
            strategy: Strategy::Naive,
            ..key(Q1)
        };
        cache.insert(naive_source.clone(), prepared(Q1));
        let other_backend = Key {
            backend: Backend::Auto,
            ..naive_source.clone()
        };
        let other_strategy = Key {
            strategy: Strategy::Delta,
            ..naive_source.clone()
        };
        assert!(cache.get(&other_backend).is_none());
        assert!(cache.get(&other_strategy).is_none());
        assert!(cache.get(&naive_source).is_some());
    }

    #[test]
    fn racing_insert_shares_the_first_entry() {
        let cache = PlanCache::new(8);
        let first = put(&cache, Q1);
        // A racing second insert does not replace the entry: both callers
        // execute the *same* plan.
        let second = put(&cache, Q1);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.counters().entries, 1);
        assert_eq!(cache.counters().forks, 0);
    }

    const CURRICULUM: &str = r#"<curriculum>
        <course code="c1"><prerequisites><pre_code>c2</pre_code></prerequisites></course>
        <course code="c2"><prerequisites><pre_code>c3</pre_code></prerequisites></course>
        <course code="c3"><prerequisites/></course>
    </curriculum>"#;

    /// A closure on the relational executor (so it needs a runtime), then a
    /// loop of `$n` steps that keeps the runtime checked out for a while.
    const SLOW_CLOSURE: &str = "(count(with $x seeded by \
        doc('curriculum.xml')/curriculum/course[@code='c1'] \
        recurse $x/id(./prerequisites/pre_code)), \
        count(for $i in (1 to $n) return $i))";

    fn run_slow_closure(plan: &PreparedQuery, store: &NodeStore, n: i64) -> String {
        let mut store = store.clone();
        let bindings = Bindings::new().with("n", Sequence::singleton(Item::integer(n)));
        let outcome = plan
            .execute_on(&mut store, &bindings, &ExecOptions::default())
            .expect("closure executes");
        outcome.result.display(&store)
    }

    /// An execution needs only the `Arc` it was handed: it finishes
    /// correctly on a plan whose entry was evicted meanwhile, and the
    /// runtimes the plan minted stay in `forks` after the entry is gone.
    #[test]
    fn a_plan_held_across_its_eviction_still_executes_and_its_forks_stay_counted() {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document_with_uri("curriculum.xml", CURRICULUM)
            .unwrap();
        store.register_id_attribute(doc, "code");
        let algebraic = PreparedQuery::prepare(
            SLOW_CLOSURE,
            Strategy::Auto,
            Backend::Algebraic,
            Parallelism::Sequential,
        )
        .unwrap();
        let cache = PlanCache::new(1);
        let plan = cache.insert(key(SLOW_CLOSURE), Arc::new(algebraic));

        // Two executions of the one plan, started together, overlap — the
        // later one finds the pool empty and mints a second runtime — unless
        // the scheduler happens to run them back to back; retry until it
        // does not.
        for _ in 0..50 {
            let start = Barrier::new(2);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        start.wait();
                        assert_eq!(run_slow_closure(&plan, &store, 100_000), "2 100000");
                    });
                }
            });
            if plan.runtimes_minted() >= 2 {
                break;
            }
        }
        let minted = cache.counters().forks;
        assert!(minted >= 1, "two overlapping executions share one runtime");

        // An execution is in flight on the plan when another query takes
        // the cache's only slot.
        let started = Barrier::new(2);
        std::thread::scope(|scope| {
            let in_flight = scope.spawn(|| {
                started.wait();
                run_slow_closure(&plan, &store, 100_000)
            });
            started.wait();
            put(&cache, Q1); // evicts the closure's entry
            assert_eq!(in_flight.join().unwrap(), "2 100000");
        });
        assert!(cache.get(&key(SLOW_CLOSURE)).is_none());
        assert_eq!(run_slow_closure(&plan, &store, 0), "2 0");
        let counters = cache.counters();
        assert_eq!((counters.entries, counters.evictions), (1, 1));
        assert_eq!(
            counters.forks, minted,
            "a retired plan's mints stay counted"
        );
    }
}
