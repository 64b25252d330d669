//! Published snapshots share documents; sharing must never show.
//!
//! `publish()` clones the writer master one pointer per document, and a
//! constructing session clones its pinned snapshot the same way.  These
//! tests hold the service to what that sharing must not change: a pinned
//! reader's answers, a snapshot's statistics, other sessions' answers —
//! and to what it must achieve: documents nobody changed are not copied.

use std::sync::Arc;

use xqy_ifp::xdm::{CowStore, DocId, DocumentStatistics, NodeId, NodeStore};
use xqy_ifp::{Backend, Bindings, ExecOptions, PreparedQuery, Strategy};
use xqy_service::{CacheOutcome, PublishedSnapshot, QueryService, ServiceConfig};

const GRAPH: &str = r#"<g><n key="a" to="b">A<i/>a</n><n key="b" to="c">B</n><n key="c">C</n></g>"#;

const QUERIES: &[&str] = &[
    "with $x seeded by doc('g.xml')/g/n[@key='a'] recurse $x/id(./@to)",
    "doc('g.xml')/g/n[. = 'Aa']",
    "doc('g.xml')/g/n/@to | doc('other.xml')/o/p",
    "with $x seeded by <a/> recurse $x",
];

/// Whether `a` and `b` hold `doc` as one shared value.  Node data is handed
/// out by reference into the document, so one address means one document.
fn shares_document(a: &NodeStore, b: &NodeStore, doc: DocId) -> bool {
    let node = NodeId::new(doc.0, 0);
    std::ptr::eq(a.kind(node), b.kind(node))
}

/// The shape statistics of `store`: the totals and each document's.
fn shape(store: &NodeStore) -> (DocumentStatistics, Vec<DocumentStatistics>) {
    let stats = store.statistics();
    (stats.totals, stats.per_document.clone())
}

/// What a reader holding `snapshot` gets for each of [`QUERIES`].
fn answers(snapshot: &PublishedSnapshot) -> Vec<String> {
    let run = |query: &&str| {
        let prepared = PreparedQuery::new(query, Strategy::Auto, Backend::Auto).unwrap();
        let mut cow = CowStore::new(Arc::clone(&snapshot.store));
        let outcome = prepared
            .execute_on(&mut cow, &Bindings::new(), &ExecOptions::default())
            .unwrap();
        outcome.result.display(&cow.into_arc())
    };
    QUERIES.iter().map(run).collect()
}

fn service_with_graph() -> QueryService {
    let service = QueryService::default();
    service.load_document("g.xml", GRAPH).unwrap();
    service
        .load_document("other.xml", "<o><p>1</p><p>2</p></o>")
        .unwrap();
    service.publish().unwrap();
    service
}

#[test]
fn pinned_reader_is_untouched_by_an_id_declaration_published_later() {
    let service = service_with_graph();
    let pinned = service.published();
    let (g, other) = (
        pinned.store.doc("g.xml").unwrap(),
        pinned.store.doc("other.xml").unwrap(),
    );
    let before = answers(&pinned);
    let statistics = shape(&pinned.store);
    assert_eq!(before[0], "", "no ID declared yet: the closure is empty");
    assert_eq!(pinned.store.lookup_id(g, "b"), None);

    // The writer declares `key` ID-typed on the *published* document — the
    // one mutation that has to copy a shared document — and publishes.
    service
        .load_document_with_ids("g.xml", GRAPH, &["key"])
        .unwrap();
    let next = service.publish().unwrap();
    assert_ne!(next.revision, pinned.revision);
    assert!(!shares_document(&pinned.store, &next.store, g));
    assert!(shares_document(&pinned.store, &next.store, other));

    // The new snapshot resolves the IDs …
    assert!(next.store.lookup_id(g, "b").is_some());
    let after = answers(&next);
    assert_ne!(after[0], before[0]);
    assert_eq!(after[1..3], before[1..3]);
    assert_eq!(service.execute(QUERIES[0]).unwrap().display(), after[0]);
    // … and the pinned reader sees exactly what it saw before.
    assert_eq!(answers(&pinned), before);
    assert_eq!(pinned.store.lookup_id(g, "b"), None);
    assert_eq!(shape(&pinned.store), statistics);
}

#[test]
fn a_constructing_query_changes_nothing_anyone_else_reads() {
    let service = service_with_graph();
    let published = service.published();
    let statistics = shape(&published.store);
    let before = answers(&published);

    for _ in 0..20 {
        let outcome = service.execute(QUERIES[3]).unwrap();
        // The session's store adds its fragment to the published
        // documents, which it still shares.
        assert!(outcome.store.document_count() > published.store.document_count());
        assert!(!Arc::ptr_eq(&outcome.store, &published.store));
        for doc in 0..published.store.document_count() as u32 {
            assert!(shares_document(
                &outcome.store,
                &published.store,
                DocId(doc)
            ));
        }
    }

    let now = service.published();
    assert!(Arc::ptr_eq(&now.store, &published.store));
    assert_eq!(now.store.document_count(), 2);
    assert_eq!(shape(&now.store), statistics);
    assert_eq!(answers(&now), before);
    for (query, expected) in QUERIES.iter().zip(&before).take(3) {
        assert_eq!(&service.execute(query).unwrap().display(), expected);
    }
}

#[test]
fn publishing_one_small_document_shares_every_older_one() {
    let service = service_with_graph();
    for i in 0..6 {
        let xml = format!("<bulk n=\"{i}\"><row>{i}</row><row>mixed<b/>{i}</row></bulk>");
        service
            .load_document(&format!("bulk{i}.xml"), &xml)
            .unwrap();
    }
    let previous = service.publish().unwrap();
    let older = previous.store.document_count() as u32;

    service.load_document("small.xml", "<s/>").unwrap();
    let next = service.publish().unwrap();
    assert_eq!(next.store.document_count() as u32, older + 1);
    for doc in 0..older {
        assert!(
            shares_document(&previous.store, &next.store, DocId(doc)),
            "document {doc} was copied by publish()"
        );
    }
    // Shared means shared with the writer too: a third publication after
    // no change at all copies nothing either.
    let again = service.publish().unwrap();
    for doc in 0..=older {
        assert!(shares_document(&next.store, &again.store, DocId(doc)));
    }
    assert_eq!(shape(&again.store), shape(&next.store));
}

/// A cached plan never read the store, so nothing a publication does can
/// make it wrong — `publish()` leaves the plan cache alone.  One plan
/// serves the snapshots on both sides of a publication that changed what
/// `id()` resolves: each execution makes its own executor, which resolves
/// `id()` per run, and that alone has to keep every answer equal to a
/// fresh service's on the same data.
#[test]
fn one_cached_plan_serves_snapshots_on_both_sides_of_a_publication() {
    let closure = QUERIES[0];
    let algebraic = || {
        QueryService::new(ServiceConfig {
            backend: Backend::Algebraic,
            ..ServiceConfig::default()
        })
    };
    // What a service that never saw an earlier snapshot answers.
    let fresh = |declare_key: bool, late: bool| {
        let service = algebraic();
        let ids: &[&str] = if declare_key { &["key"] } else { &[] };
        service.load_document_with_ids("g.xml", GRAPH, ids).unwrap();
        if late {
            service.load_document("late.xml", "<late/>").unwrap();
        }
        service.publish().unwrap();
        service.execute(closure).unwrap().display()
    };

    let service = algebraic();
    service.load_document("g.xml", GRAPH).unwrap();
    let pinned = service.publish().unwrap();
    let first = service.execute(closure).unwrap();
    assert_eq!(first.stats.cache, CacheOutcome::Miss);
    assert_eq!(first.display(), fresh(false, false));
    assert_eq!(first.display(), "", "no ID declared on g.xml yet");
    assert_eq!(service.counters().cache.entries, 1);

    // The writer declares an ID attribute on a published document: the
    // closure's answer changes.
    service
        .load_document_with_ids("g.xml", GRAPH, &["key"])
        .unwrap();
    let next = service.publish().unwrap();
    assert_ne!(next.revision, pinned.revision);
    assert_eq!(service.counters().cache.entries, 1, "publish() dropped it");
    for _ in 0..3 {
        let after = service.execute(closure).unwrap();
        assert_eq!(after.stats.cache, CacheOutcome::Hit);
        assert_eq!(after.stats.snapshot_revision, next.revision);
        assert_eq!(after.display(), fresh(true, false));
        assert_ne!(after.display(), "");
    }

    // Readers still pinned to the old snapshot share plans with readers of
    // the new one: one plan, back and forth across the revisions.
    let plan = PreparedQuery::new(closure, Strategy::Auto, Backend::Algebraic).unwrap();
    for snapshot in [&pinned, &next, &pinned, &next] {
        let mut cow = CowStore::new(Arc::clone(&snapshot.store));
        let outcome = plan
            .execute_on(&mut cow, &Bindings::new(), &ExecOptions::default())
            .unwrap();
        let declared = snapshot.revision == next.revision;
        assert_eq!(outcome.result.display(cow.read()), fresh(declared, false));
    }

    // The writer loads a document as well: the statistics move with the
    // document count, and the same entry serves on.
    service.load_document("late.xml", "<late/>").unwrap();
    let last = service.publish().unwrap();
    assert_ne!(last.revision, next.revision);
    assert_ne!(shape(&last.store), shape(&next.store));
    let served = service.execute(closure).unwrap();
    assert_eq!(served.stats.cache, CacheOutcome::Hit);
    assert_eq!(served.display(), fresh(true, true));
    assert_eq!(service.counters().cache.entries, 1);
}
