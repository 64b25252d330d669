//! Chaos suite: the PR 10 failure-domain acceptance tests.
//!
//! Everything here drives the *real* service through the deterministic
//! failpoint registry (`xqy_ifp::xdm::fail`):
//!
//! * **Panic containment** — an injected mid-query panic surfaces as the
//!   typed [`ServiceError::Internal`], after which 100 mixed queries are
//!   bit-identical to a fresh service and the counters return to idle.
//! * **Atomic publication** — a fault mid-clone or mid-refresh leaves the
//!   previous snapshot installed and the plan cache as it was.
//! * **Memory budgets** — `max_memory_bytes` stops a runaway accumulator
//!   with [`ServiceError::ResourceExhausted`]; the same query unbudgeted
//!   succeeds.
//! * **Chaos stress** — the 8-reader/writer mix from `stress.rs` under a
//!   seeded fault matrix (`XQY_CHAOS_SEED`): no deadlock, no poisoned
//!   service, bit-identical results for every query that succeeded, and
//!   ≥ 5 distinct failpoint sites demonstrably firing.  Set
//!   `XQY_FAULT_REPORT=<path>` to get the per-site hit/fired coverage
//!   report (CI uploads it as an artifact).
//!
//! The failpoint registry is process-global, so every test serializes on
//! [`FAULT_LOCK`] and disarms with `fail::reset()` before returning.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, Once};
use std::thread;
use std::time::Duration;

use xqy_datagen::curriculum::{self, CurriculumConfig};
use xqy_datagen::Scale;
use xqy_ifp::xdm::{budget, fail, CowStore, QueryBudget};
use xqy_ifp::{Backend, Bindings, ExecOptions, PreparedQuery, Strategy};
use xqy_service::{
    QueryService, ResourceLimits, RetryPolicy, ServiceConfig, ServiceError, ServiceOutcome,
};

/// Serializes tests that arm the process-global failpoint registry.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_guard() -> MutexGuard<'static, ()> {
    // A failed test leaves the lock poisoned; the registry is reset on
    // entry anyway, so recover rather than cascade failures.
    let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fail::reset();
    guard
}

/// Keep expected injected panics out of the test output; everything else
/// still reaches the default hook.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            if message.is_some_and(|m| m.contains("injected fault at")) {
                return;
            }
            default(info);
        }));
    });
}

const CURRICULUM_QUERIES: &[&str] = &[
    "with $x seeded by doc('curriculum.xml')/curriculum/course[@code='c99'] \
     recurse $x/id(./prerequisites/pre_code)",
    "with $x seeded by doc('curriculum.xml')/curriculum/course[@code='c50'] \
     recurse $x/id(./prerequisites/pre_code)",
    "with $x seeded by doc('curriculum.xml')/curriculum/course \
     recurse $x/id(./prerequisites/pre_code)",
    "doc('curriculum.xml')/curriculum/course[@code='c42']/prerequisites/pre_code",
    "with $x seeded by <a/> recurse $x",
];

fn service_with_generated_curriculum(config: ServiceConfig) -> QueryService {
    let service = QueryService::new(config);
    let xml = curriculum::generate(&CurriculumConfig::for_scale(Scale::Small));
    service
        .load_document_with_ids("curriculum.xml", &xml, &["code"])
        .unwrap();
    service.publish().unwrap();
    service
}

/// Acceptance: an injected mid-query panic is contained as a typed
/// `Internal` error, and the next 100 mixed queries produce results
/// bit-identical to a fresh, never-panicked service, with the admission
/// counters back at idle.
#[test]
fn contained_panic_leaves_service_bit_identical_to_fresh() {
    quiet_injected_panics();
    let _guard = fault_guard();

    let chaos = service_with_generated_curriculum(ServiceConfig::default());
    let fresh = service_with_generated_curriculum(ServiceConfig::default());

    // Warm the plan, so the panic hits a cached plan that must serve on
    // unchanged afterwards.
    chaos.execute(CURRICULUM_QUERIES[0]).unwrap();

    fail::configure(
        "fixpoint.barrier",
        fail::FaultAction::Panic,
        fail::FaultTrigger::OnNthHit(1),
    );
    let err = chaos
        .execute(CURRICULUM_QUERIES[0])
        .expect_err("injected panic must fail the query");
    match &err {
        ServiceError::Internal { message, context } => {
            assert!(
                message.contains("injected fault at fixpoint.barrier"),
                "panic payload lost: {message}"
            );
            assert!(
                context.contains("query"),
                "panic context should name the boundary: {context}"
            );
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    fail::reset();

    // 100 mixed queries, interleaved on both services, must agree bitwise.
    for i in 0..100 {
        let query = CURRICULUM_QUERIES[i % CURRICULUM_QUERIES.len()];
        let after = chaos.execute(query).unwrap_or_else(|e| {
            panic!("query {i} failed on the panicked-then-recovered service: {e}")
        });
        let reference = fresh.execute(query).unwrap();
        assert_eq!(
            after.outcome.result.len(),
            reference.outcome.result.len(),
            "query {i} length diverged after the contained panic"
        );
        assert_eq!(
            after.display(),
            reference.display(),
            "query {i} serialization diverged after the contained panic"
        );
    }

    let counters = chaos.counters();
    assert_eq!(counters.contained_panics, 1);
    assert_eq!(counters.succeeded, 101);
    assert_eq!(counters.active, 0, "admission slot leaked by the panic");
    assert_eq!(counters.queued, 0);
    // The published snapshot never moved: the panic was contained inside
    // one query's private failure domain.
    assert_eq!(chaos.published().revision, fresh.published().revision);
}

/// Satellite (a): publication is all-or-nothing.  A fault mid-clone or
/// mid-refresh must leave the previous snapshot installed and the plan
/// cache as it was — including when the failure is a panic.
#[test]
fn failed_publish_leaves_previous_snapshot_and_cache_intact() {
    quiet_injected_panics();
    let _guard = fault_guard();

    let service = service_with_generated_curriculum(ServiceConfig::default());
    service.execute(CURRICULUM_QUERIES[0]).unwrap(); // seed the plan cache
    let before = service.published();
    let cached_before = service.counters().cache.entries;
    assert!(cached_before >= 1);

    // The writer moves the master on; were the failed publish not atomic,
    // a half-built snapshot would be installed.
    service.load_document("late.xml", "<late/>").unwrap();

    for (site, action) in [
        ("publish.clone", fail::FaultAction::Error),
        ("publish.refresh", fail::FaultAction::Error),
        ("publish.clone", fail::FaultAction::Panic),
        ("publish.refresh", fail::FaultAction::Panic),
    ] {
        fail::reset();
        fail::configure(site, action, fail::FaultTrigger::OnNthHit(1));
        let err = service
            .publish()
            .expect_err("injected publish fault must surface");
        assert!(
            matches!(err, ServiceError::Internal { .. }),
            "expected Internal from {site}, got {err:?}"
        );
        let now = service.published();
        assert_eq!(now.revision, before.revision, "{site}: snapshot replaced");
        assert_eq!(
            service.counters().cache.entries,
            cached_before,
            "{site}: cache changed by a publish that never happened"
        );
        // Queries keep executing against the intact old snapshot, from the
        // intact cache.
        let outcome = service.execute(CURRICULUM_QUERIES[0]).unwrap();
        assert_eq!(outcome.stats.snapshot_revision, before.revision);
    }
    fail::reset();

    // With faults cleared the pending load finally publishes.  The
    // revision moves; the cached plans, which never read the store, stay.
    let published = service.publish().unwrap();
    assert!(published.revision > before.revision);
    assert_eq!(service.counters().cache.entries, cached_before);
}

/// Acceptance: `max_memory_bytes` stops a runaway accumulator with a
/// typed `ResourceExhausted`, while the same query unbudgeted succeeds.
/// The limit is calibrated from the query's actual (accounted) footprint
/// so the test tracks the accounting, not magic constants.
#[test]
fn memory_budget_stops_runaway_accumulator() {
    let _guard = fault_guard();

    // A 300-course linear chain: the closure from every course visits the
    // whole suffix, so the accumulators materialize ~N² node entries.
    let mut xml = String::from("<curriculum>");
    for i in 0..300 {
        xml.push_str(&format!(
            "<course code=\"k{i}\"><prerequisites><pre_code>k{}</pre_code></prerequisites></course>",
            i + 1
        ));
    }
    xml.push_str("<course code=\"k300\"><prerequisites/></course></curriculum>");
    let accumulator = "with $x seeded by doc('chain.xml')/curriculum/course \
                       recurse $x/id(./prerequisites/pre_code)";

    let build = |limits: ResourceLimits| {
        let service = QueryService::new(ServiceConfig {
            limits,
            ..ServiceConfig::default()
        });
        service
            .load_document_with_ids("chain.xml", &xml, &["code"])
            .unwrap();
        service.publish().unwrap();
        service
    };

    // Calibrate: run unbudgeted with a measuring cell installed — the
    // barriers see a limit of u64::MAX, so nothing trips, but every
    // charge lands in `meter`.
    let unbudgeted = build(ResourceLimits::default());
    let meter = QueryBudget::new(u64::MAX);
    let (expected_len, footprint) = {
        let _scope = budget::install(Arc::clone(&meter));
        let outcome = unbudgeted.execute(accumulator).unwrap();
        (outcome.outcome.result.len(), meter.used())
    };
    assert!(expected_len >= 300, "the chain closure must be large");
    assert!(
        footprint > 0,
        "the accumulator must charge the memory budget"
    );

    // An eighth of the real footprint: far below what even one round of
    // graceful degradation (memo release + sequential fallback) can claw
    // back for this workload.
    let budgeted = build(ResourceLimits {
        max_memory_bytes: Some((footprint / 8).max(1)),
        ..ResourceLimits::default()
    });
    let err = budgeted
        .execute(accumulator)
        .expect_err("an eighth of the footprint must trip the budget");
    match &err {
        ServiceError::ResourceExhausted {
            budget,
            used,
            limit,
            ..
        } => {
            assert_eq!(budget, "memory");
            assert!(used > limit, "reported usage must exceed the limit");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    assert_eq!(budgeted.counters().resource_exhausted, 1);

    // The budgeted service is undamaged and still serves within-budget
    // queries; the unbudgeted service still produces the full closure.
    budgeted
        .execute("doc('chain.xml')/curriculum/course[@code='k0']")
        .unwrap();
    let again = unbudgeted.execute(accumulator).unwrap();
    assert_eq!(again.outcome.result.len(), expected_len);
}

/// `execute_with_retry` rides out transient saturation using the
/// `retry_after` hint: a burst against a 1-slot, 0-queue service mostly
/// rejects without retry, and succeeds with it.
#[test]
fn retry_with_backoff_rides_out_saturation() {
    let _guard = fault_guard();
    let service = Arc::new(service_with_generated_curriculum(ServiceConfig {
        max_concurrent: 1,
        max_queue: 0,
        ..ServiceConfig::default()
    }));
    service.execute(CURRICULUM_QUERIES[0]).unwrap(); // warm the plan

    // Hold the only slot with a slow diverging query (stopped by its
    // deadline) while another session retries its way in.
    let holder = {
        let service = Arc::clone(&service);
        thread::spawn(move || {
            let _ = service.execute_with(
                "with $x seeded by <a/> recurse (for $y in $x return <b/>)",
                &Bindings::new(),
                Some(Duration::from_millis(80)),
            );
        })
    };
    thread::sleep(Duration::from_millis(10));

    let policy = RetryPolicy {
        max_attempts: 30,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(50),
        jitter_seed: 7,
    };
    let outcome = service
        .execute_with_retry(CURRICULUM_QUERIES[0], &Bindings::new(), None, &policy)
        .expect("bounded retries must outlast an 80 ms holder");
    drop(outcome);
    holder.join().unwrap();

    // The hint itself is sane: reject once more while saturated and check
    // the bounds.
    let holder = {
        let service = Arc::clone(&service);
        thread::spawn(move || {
            let _ = service.execute_with(
                "with $x seeded by <a/> recurse (for $y in $x return <b/>)",
                &Bindings::new(),
                Some(Duration::from_millis(60)),
            );
        })
    };
    thread::sleep(Duration::from_millis(10));
    match service.execute(CURRICULUM_QUERIES[0]) {
        Err(ServiceError::Saturated { retry_after, .. }) => {
            assert!(retry_after >= Duration::from_millis(1));
            assert!(retry_after <= Duration::from_secs(5));
        }
        Ok(_) => {} // holder finished first — nothing to assert
        Err(other) => panic!("expected Saturated, got {other:?}"),
    }
    holder.join().unwrap();
}

/// The seeded fault matrix the chaos stress runs under: per-site action
/// and probability derived from `XQY_CHAOS_SEED` (default 0xC0FFEE).
fn arm_fault_matrix(seed: u64) {
    // (site, base probability): hot engine sites fire rarely per hit,
    // cold administrative sites fire often per attempt.
    const SITES: &[(&str, f64)] = &[
        ("fixpoint.barrier", 0.04),
        ("alloc.sequence", 0.01),
        ("alloc.table", 0.01),
        ("cache.insert", 0.25),
        ("publish.clone", 0.30),
        ("publish.refresh", 0.30),
    ];
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for (site, p) in SITES {
        let action = if next() % 2 == 0 {
            fail::FaultAction::Panic
        } else {
            fail::FaultAction::Error
        };
        // Scale the base probability by [0.75, 1.25) so runs with
        // different seeds explore different densities.
        let p = p * (0.75 + (next() % 1024) as f64 / 2048.0);
        fail::configure(
            site,
            action,
            fail::FaultTrigger::Probability { p, seed: next() },
        );
    }
}

/// Chaos stress: the stress.rs reader/writer mix under the armed fault
/// matrix.  The service must neither deadlock nor corrupt state: every
/// query that *succeeded* under chaos must be bit-identical to a
/// sequential re-execution on the snapshot it pinned, the counters must
/// balance, and the service must serve cleanly once faults are cleared.
#[test]
fn chaos_matrix_neither_deadlocks_nor_corrupts() {
    quiet_injected_panics();
    let _guard = fault_guard();

    const READERS: usize = 8;
    const ITERATIONS: usize = 24;
    let seed = std::env::var("XQY_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xC0FFEE);

    let service = Arc::new(service_with_generated_curriculum(ServiceConfig {
        max_concurrent: READERS,
        max_queue: READERS,
        ..ServiceConfig::default()
    }));

    let snapshots = Arc::new(Mutex::new(BTreeMap::new()));
    let initial = service.published();
    snapshots.lock().unwrap().insert(initial.revision, initial);

    arm_fault_matrix(seed);

    // Writer: loads and republishes under fire.  Failed publishes are the
    // point — they must be atomic no-ops; only actually-published
    // snapshots are retained for the re-check.
    let writer = {
        let service = Arc::clone(&service);
        let snapshots = Arc::clone(&snapshots);
        thread::spawn(move || {
            let mut failures = 0u32;
            for i in 0..6 {
                thread::sleep(Duration::from_millis(3));
                service
                    .load_document(&format!("extra_{i}.xml"), &format!("<extra n=\"{i}\"/>"))
                    .unwrap();
                match service.publish() {
                    Ok(published) => {
                        snapshots
                            .lock()
                            .unwrap()
                            .insert(published.revision, published);
                    }
                    Err(ServiceError::Internal { .. }) => failures += 1,
                    Err(other) => panic!("publish under chaos: unexpected {other:?}"),
                }
            }
            failures
        })
    };

    struct Observation {
        query: usize,
        revision: u64,
        len: usize,
        display: String,
    }

    let readers: Vec<_> = (0..READERS)
        .map(|reader| {
            let service = Arc::clone(&service);
            thread::spawn(move || {
                let mut successes = Vec::new();
                let mut failures = 0u32;
                for i in 0..ITERATIONS {
                    let query = (reader + i) % CURRICULUM_QUERIES.len();
                    match service.execute(CURRICULUM_QUERIES[query]) {
                        Ok(outcome) => successes.push(Observation {
                            query,
                            revision: outcome.stats.snapshot_revision,
                            len: outcome.outcome.result.len(),
                            display: outcome.display(),
                        }),
                        // Injected faults surface as Internal (panic
                        // path) or Query (typed-error path); both leave
                        // the service serving.
                        Err(ServiceError::Internal { .. }) | Err(ServiceError::Query(_)) => {
                            failures += 1
                        }
                        Err(other) => panic!("reader {reader}: unexpected {other:?}"),
                    }
                }
                (successes, failures)
            })
        })
        .collect();

    let mut observations = Vec::new();
    let mut failed_queries = 0u32;
    for reader in readers {
        let (successes, failures) = reader.join().unwrap();
        observations.extend(successes);
        failed_queries += failures;
    }
    let failed_publishes = writer.join().unwrap();

    // Coverage: the matrix must demonstrably exercise the failure paths.
    let report = fail::report();
    let fired = fail::fired_sites();
    assert!(
        fired.len() >= 5,
        "expected ≥ 5 distinct failpoint sites to fire, got {fired:?} (seed {seed})"
    );
    let mut text =
        format!("# fault-site coverage: service matrix (seed {seed})\nsite,hits,fired\n");
    for site in &report {
        text.push_str(&format!("{},{},{}\n", site.site, site.hits, site.fired));
    }
    text.push_str(&format!(
        "# queries: {} ok, {} failed; publishes: {} failed\n",
        observations.len(),
        failed_queries,
        failed_publishes
    ));
    append_fault_report(&text);
    fail::reset();

    // No torn snapshots: every success pinned an actually-published
    // revision.
    let snapshots = Arc::try_unwrap(snapshots).unwrap().into_inner().unwrap();
    for obs in &observations {
        assert!(
            snapshots.contains_key(&obs.revision),
            "query {} observed unpublished revision {}",
            obs.query,
            obs.revision
        );
    }

    // Bit-identity for every success, re-checked sequentially with the
    // faults disarmed.
    let mut canonical: BTreeMap<(usize, u64), (usize, String)> = BTreeMap::new();
    for obs in &observations {
        let (len, display) = canonical
            .entry((obs.query, obs.revision))
            .or_insert_with(|| {
                let snapshot = &snapshots[&obs.revision];
                let prepared = PreparedQuery::new(
                    CURRICULUM_QUERIES[obs.query],
                    Strategy::Auto,
                    Backend::Auto,
                )
                .unwrap();
                let mut cow = CowStore::new(Arc::clone(&snapshot.store));
                let outcome = prepared
                    .execute_on(&mut cow, &Bindings::new(), &ExecOptions::default())
                    .unwrap();
                let store = cow.into_arc();
                (outcome.result.len(), outcome.result.display(&store))
            });
        assert_eq!(
            (obs.len, &obs.display),
            (*len, &*display),
            "query {} at revision {} diverged under chaos",
            obs.query,
            obs.revision
        );
    }

    // Not poisoned, not leaking: idle admission, balanced counters, and a
    // clean run of every query now that the faults are gone.
    let counters = service.counters();
    assert_eq!(counters.active, 0, "admission slot leaked under chaos");
    assert_eq!(counters.queued, 0);
    assert_eq!(counters.succeeded, observations.len() as u64);
    // Publish failures surface to the caller but are not query counters;
    // only the readers' failures are tallied.
    let _ = failed_publishes;
    assert_eq!(
        counters.failed + counters.contained_panics,
        failed_queries as u64
    );
    for (i, query) in CURRICULUM_QUERIES.iter().enumerate() {
        let outcome: ServiceOutcome = service
            .execute(query)
            .unwrap_or_else(|e| panic!("query {i} failed after faults were cleared: {e}"));
        assert_eq!(service.counters().active, 0);
        drop(outcome);
    }
}

/// Append a section to the `XQY_FAULT_REPORT` coverage file (no-op when
/// the variable is unset).  Sections append rather than truncate; CI
/// starts from a fresh file each run.
fn append_fault_report(text: &str) {
    use std::io::Write;
    if let Ok(path) = std::env::var("XQY_FAULT_REPORT") {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("fault report path must be writable");
        file.write_all(text.as_bytes())
            .expect("fault report path must be writable");
    }
}
