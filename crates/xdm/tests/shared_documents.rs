//! Model-based property: documents shared between stores never leak state.
//!
//! A writer store and its clones (what `publish()` and a session's
//! copy-on-write divergence make) share documents and everything derived
//! from them.  Random interleavings of loads, ID declarations, fragment
//! construction, in-document construction, clones, memo releases and reads
//! run over a set of live stores; each store carries the log of operations
//! that produced it.  Replaying a store's log on a fresh `NodeStore` — no
//! sharing, derived state built once, after the last mutation — yields the
//! same `NodeId`s, so every read on the live store must equal the same
//! read on the replay.

use proptest::prelude::*;
use xqy_xdm::{DocId, NodeId, NodeKind, NodeStore, QName};

const DOCUMENTS: &[&str] = &[
    "<r><a id=\"a1\" code=\"k1\">x<i/>y</a><b id=\"b1\" ref=\"a1 k1\"><c>z</c></b></r>",
    "<list><e code=\"k1\" ref=\"k2\"/><e code=\"k2\" ref=\" a1  k1 \">m<!--c-->n</e><t>k1</t></list>",
    "<p id=\"p1\">one <q id=\"q1\">two</q> three<s>k2 b1</s></p>",
    "<empty/>",
];
const ID_ATTRIBUTES: &[&str] = &["code", "ref"];
const ID_VALUES: &[&str] = &["a1", "b1", "k1", "k2", "p1", "q1", "n1", "n2", "zz"];

/// One mutation of a store, replayable on a fresh one.
#[derive(Debug, Clone)]
enum Step {
    Load(usize),
    RegisterId(usize, usize),
    /// A fragment `<f id=..>text<g/>text</f>`; with `children_first` the
    /// children are created before their parent, so arena order is not
    /// document order.
    Construct {
        id: usize,
        children_first: bool,
    },
    /// A new `<n id=..>` with mixed content under the first node of `doc`
    /// that accepts children.
    AppendInto {
        doc: usize,
        id: usize,
    },
}

fn apply(store: &mut NodeStore, step: &Step) {
    match *step {
        Step::Load(which) => {
            store.parse_document(DOCUMENTS[which]).unwrap();
        }
        Step::RegisterId(doc, name) => {
            store.register_id_attribute(DocId(doc as u32), ID_ATTRIBUTES[name]);
        }
        Step::Construct { id, children_first } => {
            let frag = store.new_fragment();
            let build_parent = |store: &mut NodeStore| {
                let f = store.create_element(frag, QName::local("f"));
                store
                    .add_attribute(f, QName::local("id"), ID_VALUES[id])
                    .unwrap();
                f
            };
            let build_children = |store: &mut NodeStore| {
                vec![
                    store.create_text(frag, "k1 "),
                    store.create_element(frag, QName::local("g")),
                    store.create_text(frag, ID_VALUES[id]),
                ]
            };
            let (f, children) = if children_first {
                let children = build_children(store);
                (build_parent(store), children)
            } else {
                let f = build_parent(store);
                (f, build_children(store))
            };
            for child in children {
                store.append_child(f, child).unwrap();
            }
        }
        Step::AppendInto { doc, id } => {
            let doc = DocId(doc as u32);
            let Some(parent) = nodes_of(store, doc)
                .into_iter()
                .find(|&n| matches!(store.kind(n), NodeKind::Element(_) | NodeKind::Document))
            else {
                return;
            };
            let n = store.create_element(doc, QName::local("n"));
            store
                .add_attribute(n, QName::local("id"), ID_VALUES[id])
                .unwrap();
            let text = store.create_text(doc, "a1");
            let inner = store.create_element(doc, QName::local("i"));
            let tail = store.create_text(doc, " q1");
            for child in [text, inner, tail] {
                store.append_child(n, child).unwrap();
            }
            store.append_child(parent, n).unwrap();
        }
    }
}

fn nodes_of(store: &NodeStore, doc: DocId) -> Vec<NodeId> {
    (0..)
        .map(|i| NodeId::new(doc.0, i))
        .take_while(|&n| store.contains(n))
        .collect()
}

/// A live store and the steps that, replayed, must reproduce it.
struct Live {
    store: NodeStore,
    log: Vec<Step>,
}

impl Live {
    fn step(&mut self, step: Step) {
        apply(&mut self.store, &step);
        self.log.push(step);
    }

    /// Every read the store offers over derived state, against a replay.
    fn check(&self, salt: usize) {
        let live = &self.store;
        let mut fresh = NodeStore::new();
        self.log.iter().for_each(|step| apply(&mut fresh, step));
        assert_eq!(live.document_count(), fresh.document_count());

        let docs: Vec<DocId> = (0..live.document_count() as u32).map(DocId).collect();
        let mut all = Vec::new();
        for &doc in &docs {
            let nodes = nodes_of(live, doc);
            assert_eq!(nodes, nodes_of(&fresh, doc));
            for value in ID_VALUES {
                assert_eq!(live.lookup_id(doc, value), fresh.lookup_id(doc, value));
            }
            for &n in &nodes {
                assert_eq!(live.string_value(n), fresh.string_value(n), "{n:?}");
            }
            assert_eq!(
                live.index_order_is_document_order(doc),
                fresh.index_order_is_document_order(doc)
            );
            all.extend(nodes);
        }
        // `fn:id` over every node of the store as argument, per anchor.
        let id_nodes = |store: &NodeStore, doc| {
            let mut out = Vec::new();
            store.lookup_id_nodes(doc, &all, &mut out);
            store.sort_distinct(&mut out);
            out
        };
        for &doc in &docs {
            assert_eq!(id_nodes(live, doc), id_nodes(&fresh, doc));
        }
        // Document order across documents and fragments, from a
        // deterministic scramble with duplicates.
        let mut scrambled = all.clone();
        if !scrambled.is_empty() {
            scrambled.rotate_left(salt % all.len());
            scrambled.reverse();
            scrambled.extend(all.iter().step_by(2));
        }
        let mut expected = scrambled.clone();
        live.sort_distinct(&mut scrambled);
        fresh.sort_distinct(&mut expected);
        assert_eq!(scrambled, expected);
        assert_eq!(scrambled.len(), all.len());

        let (stats, expected) = (live.statistics(), fresh.statistics());
        assert_eq!(stats.per_document, expected.per_document);
        assert_eq!(stats.totals, expected.totals);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_clone_reads_like_a_store_rebuilt_from_scratch(
        ops in proptest::collection::vec((0usize..10, 0usize..64, 0usize..64, 0usize..64), 1..48)
    ) {
        let mut stores = vec![Live { store: NodeStore::new(), log: Vec::new() }];
        for (op, who, x, y) in ops {
            let who = who % stores.len();
            let docs = stores[who].store.document_count();
            match op {
                0 => stores[who].step(Step::Load(x % DOCUMENTS.len())),
                1 if docs > 0 => {
                    stores[who].step(Step::RegisterId(x % docs, y % ID_ATTRIBUTES.len()))
                }
                2 => stores[who].step(Step::Construct {
                    id: x % ID_VALUES.len(),
                    children_first: y % 2 == 0,
                }),
                3 if docs > 0 => stores[who].step(Step::AppendInto {
                    doc: x % docs,
                    id: y % ID_VALUES.len(),
                }),
                // Clone (= publish, or a session diverging); the oldest
                // clone retires once six stores are live.
                4 | 5 => {
                    let clone = Live {
                        store: stores[who].store.clone(),
                        log: stores[who].log.clone(),
                    };
                    if stores.len() == 6 {
                        stores.remove(1);
                    }
                    stores.push(clone);
                }
                6 => {
                    stores[who].store.release_memory();
                }
                // One read that builds the derived state of one document
                // only, so later steps meet warm and cold documents mixed.
                7 if docs > 0 => {
                    let doc = DocId((x % docs) as u32);
                    let store = &stores[who].store;
                    if let Some(&n) = nodes_of(store, doc).get(y) {
                        let _ = store.string_value(n);
                    } else {
                        let _ = store.lookup_id(doc, ID_VALUES[y % ID_VALUES.len()]);
                    }
                }
                8 => stores[who].store.refresh_all(),
                _ => stores[who].check(x),
            }
        }
        // Nothing any store did disturbed any other.
        for live in &stores {
            live.check(0);
        }
    }
}
