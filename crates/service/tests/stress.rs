//! Concurrency stress test: ≥ 8 reader sessions execute mixed queries
//! against one [`QueryService`] while a writer keeps loading documents and
//! republishing snapshots.  Afterwards every recorded execution is
//! re-checked **sequentially** against the retained snapshot of the same
//! revision — results must be bit-identical, which both proves
//! determinism under concurrency and that no query ever observed a
//! half-published store (a torn read could not reproduce sequentially).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use xqy_datagen::curriculum::{self, CurriculumConfig};
use xqy_datagen::Scale;
use xqy_ifp::xdm::CowStore;
use xqy_ifp::{Backend, Bindings, ExecOptions, PreparedQuery, Strategy};
use xqy_service::{QueryService, ServiceConfig, ServiceError};

const READERS: usize = 8;
const ITERATIONS: usize = 24;

/// Mixed workload: deep and shallow IFP closures, a plain path, and a
/// construction body.  All self-contained (no external bindings) so every
/// session reuses the same cached plans.
const QUERIES: &[&str] = &[
    "with $x seeded by doc('curriculum.xml')/curriculum/course[@code='c99'] \
     recurse $x/id(./prerequisites/pre_code)",
    "with $x seeded by doc('curriculum.xml')/curriculum/course[@code='c50'] \
     recurse $x/id(./prerequisites/pre_code)",
    "with $x seeded by doc('curriculum.xml')/curriculum/course \
     recurse $x/id(./prerequisites/pre_code)",
    "doc('curriculum.xml')/curriculum/course[@code='c42']/prerequisites/pre_code",
    "with $x seeded by <a/> recurse $x",
];

/// One observation: which query ran, against which snapshot revision, and
/// what it produced (length + serialized form — the bit-identity witness).
struct Observation {
    query: usize,
    revision: u64,
    len: usize,
    display: String,
}

#[test]
fn concurrent_sessions_match_sequential_execution_per_revision() {
    let service = Arc::new(QueryService::new(ServiceConfig {
        max_concurrent: READERS,
        max_queue: READERS,
        ..ServiceConfig::default()
    }));
    let xml = curriculum::generate(&CurriculumConfig::for_scale(Scale::Small));
    service
        .load_document_with_ids("curriculum.xml", &xml, &["code"])
        .unwrap();

    // Retain every published snapshot, keyed by revision, for the
    // sequential re-check.
    let snapshots = Arc::new(Mutex::new(BTreeMap::new()));
    let initial = service.publish().unwrap();
    snapshots
        .lock()
        .unwrap()
        .insert(initial.revision, initial.clone());

    // Writer: keeps loading fresh documents and republishing while the
    // readers run.  Every publish installs a new revision, so cached plans
    // keep meeting stores they have not seen.
    let writer = {
        let service = Arc::clone(&service);
        let snapshots = Arc::clone(&snapshots);
        thread::spawn(move || {
            for i in 0..6 {
                thread::sleep(Duration::from_millis(3));
                service
                    .load_document(&format!("extra_{i}.xml"), &format!("<extra n=\"{i}\"/>"))
                    .unwrap();
                let published = service.publish().unwrap();
                snapshots
                    .lock()
                    .unwrap()
                    .insert(published.revision, published);
            }
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|reader| {
            let service = Arc::clone(&service);
            thread::spawn(move || {
                let mut observations = Vec::with_capacity(ITERATIONS);
                for i in 0..ITERATIONS {
                    // Mid-run, every reader fires one over-budget query: a
                    // rec-dependent constructor diverges until its 5 ms
                    // deadline.  The typed rejection must not disturb the
                    // session's other queries.
                    if i == ITERATIONS / 2 {
                        let err = service
                            .execute_with(
                                "with $x seeded by <a/> recurse (for $y in $x return <b/>)",
                                &Bindings::new(),
                                Some(Duration::from_millis(5)),
                            )
                            .expect_err("diverging query must hit its deadline");
                        assert!(
                            matches!(err, ServiceError::DeadlineExceeded { .. }),
                            "expected DeadlineExceeded, got {err:?}"
                        );
                    }
                    let query = (reader + i) % QUERIES.len();
                    let outcome = service
                        .execute(QUERIES[query])
                        .unwrap_or_else(|e| panic!("reader {reader} query {query}: {e}"));
                    observations.push(Observation {
                        query,
                        revision: outcome.stats.snapshot_revision,
                        len: outcome.outcome.result.len(),
                        display: outcome.display(),
                    });
                }
                observations
            })
        })
        .collect();

    let mut observations = Vec::new();
    for reader in readers {
        observations.extend(reader.join().unwrap());
    }
    writer.join().unwrap();

    // Every execution pinned an actually-published snapshot — a query that
    // had observed a half-published store would carry a revision no
    // publication ever produced.
    let snapshots = Arc::try_unwrap(snapshots).unwrap().into_inner().unwrap();
    for obs in &observations {
        assert!(
            snapshots.contains_key(&obs.revision),
            "query {} observed unpublished revision {}",
            obs.query,
            obs.revision
        );
    }

    // Bit-identity: re-execute each distinct (query, revision) pair
    // sequentially on the retained snapshot and demand the identical
    // serialized result from every concurrent observation of that pair.
    let mut canonical: BTreeMap<(usize, u64), (usize, String)> = BTreeMap::new();
    for obs in &observations {
        let (len, display) = canonical
            .entry((obs.query, obs.revision))
            .or_insert_with(|| {
                let snapshot = &snapshots[&obs.revision];
                let prepared =
                    PreparedQuery::new(QUERIES[obs.query], Strategy::Auto, Backend::Auto).unwrap();
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
            "query {} at revision {} diverged from sequential execution",
            obs.query,
            obs.revision
        );
    }

    let counters = service.counters();
    assert_eq!(counters.succeeded, (READERS * ITERATIONS) as u64);
    assert_eq!(counters.deadline_exceeded, READERS as u64);
    assert_eq!(counters.saturated, 0);
    assert_eq!(counters.failed, 0);
    assert_eq!(counters.active, 0);
    // With 8 sessions sharing 5 query texts, preparation happened once per
    // text and everyone else hit the shared cache.
    assert!(
        counters.cache.hits >= 1,
        "expected cross-session plan-cache hits, got {:?}",
        counters.cache
    );
}
