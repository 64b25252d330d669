//! Differential property: `fn:id` over argument nodes
//! (`NodeStore::lookup_id_nodes`, answered from each document's ID
//! adjacency) against its definition — the node's string value, split at
//! whitespace, each token looked up by string (`NodeStore::lookup_id`).
//!
//! Random documents carry IDREFS-style values with several tokens,
//! leading, trailing and repeated inner whitespace, tokens no ID carries,
//! one ID value on several elements (the first wins), `id`, `xml:id` and a
//! declared ID name (`code`), and elements that are empty, hold one text
//! child or mixed content.  Every node of every document — elements,
//! attributes, text, comments, PIs, the document node, a constructed
//! fragment's nodes — is an argument, and every document the anchor, before
//! and after `register_id_attribute` drops a document's derived state.  An
//! argument is tokenised at probe time (`tokenised_count`) exactly when its
//! value is a concatenation or it comes from another document than the
//! anchor.

use proptest::prelude::*;
use xqy_xdm::{tokenised_count, Axis, DocId, NodeId, NodeKind, NodeStore, NodeTest, QName};

const TOKENS: &[&str] = &["a", "b", "c", "zz"];
const SPACES: &[&str] = &[" ", "  ", "\t", "\n", " \n "];
const ATTRIBUTES: &[&str] = &["id", "xml:id", "code", "ref", "refs"];

/// A small deterministic generator, so one drawn `u64` is one document.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }

    /// Zero to three tokens, with whitespace before, between and after.
    fn value(&mut self) -> String {
        let mut out = String::new();
        if self.below(3) == 0 {
            out.push_str(self.pick(SPACES));
        }
        for i in 0..self.below(4) {
            if i > 0 {
                out.push_str(self.pick(SPACES));
            }
            out.push_str(self.pick(TOKENS));
        }
        if self.below(3) == 0 {
            out.push_str(self.pick(SPACES));
        }
        out
    }

    fn element(&mut self, depth: usize, xml: &mut String) {
        let name = self.pick(&["e", "f"]);
        xml.push('<');
        xml.push_str(name);
        for attr in ATTRIBUTES {
            if self.below(3) == 0 {
                xml.push_str(&format!(" {attr}=\"{}\"", self.value()));
            }
        }
        let children = if depth == 0 { 0 } else { self.below(4) };
        if children == 0 && self.below(2) == 0 {
            xml.push_str("/>");
            return;
        }
        xml.push('>');
        for _ in 0..children {
            match self.below(5) {
                0 | 1 => xml.push_str(&self.value()),
                2 => xml.push_str(&format!("<!--{}-->", self.value())),
                3 => xml.push_str(&format!("<?pi {}?>", self.value())),
                _ => self.element(depth - 1, xml),
            }
        }
        xml.push_str(&format!("</{name}>"));
    }

    fn document(&mut self) -> String {
        let mut xml = String::new();
        self.element(4, &mut xml);
        xml
    }
}

/// A constructed fragment: an element with an ID, an IDREFS attribute, one
/// text child, and a mixed-content child.
fn fragment(store: &mut NodeStore, rng: &mut Rng) -> (DocId, NodeId) {
    let doc = store.new_fragment();
    let top = store.create_element(doc, QName::local("g"));
    store.add_attribute(top, QName::local("id"), "a").unwrap();
    store
        .add_attribute(top, QName::local("ref"), rng.value())
        .unwrap();
    let single = store.create_element(doc, QName::local("s"));
    let text = store.create_text(doc, rng.value());
    store.append_child(single, text).unwrap();
    let mixed = store.create_element(doc, QName::local("m"));
    for _ in 0..2 {
        let text = store.create_text(doc, rng.value());
        store.append_child(mixed, text).unwrap();
    }
    store.append_child(top, single).unwrap();
    store.append_child(top, mixed).unwrap();
    (doc, top)
}

/// Every node under `root`, attributes included.
fn nodes_under(store: &NodeStore, root: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    for node in store.axis_nodes(root, Axis::DescendantOrSelf, &NodeTest::AnyNode) {
        out.push(node);
        out.extend(store.attributes(node));
    }
    out
}

/// `fn:id` by definition: tokens of the string value, each by string.
fn by_string(store: &NodeStore, anchor: DocId, arg: NodeId) -> Vec<NodeId> {
    let value = store.string_value(arg);
    value
        .split_whitespace()
        .filter_map(|token| store.lookup_id(anchor, token))
        .collect()
}

/// The value is at most one text payload: what the adjacency holds.
fn leaf_shaped(store: &NodeStore, node: NodeId) -> bool {
    match store.kind(node) {
        NodeKind::Element(_) | NodeKind::Document => match store.children(node)[..] {
            [] => true,
            [only] => matches!(store.kind(only), NodeKind::Text(_)),
            _ => false,
        },
        _ => true,
    }
}

/// Every argument against every anchor, one node at a time and all at once.
fn check(store: &NodeStore, anchors: &[DocId], args: &[NodeId]) {
    for &anchor in anchors {
        let mut whole = Vec::new();
        for &arg in args {
            let mut got = Vec::new();
            let before = tokenised_count();
            store.lookup_id_nodes(anchor, &[arg], &mut got);
            let tokenised = tokenised_count() - before;
            let want = by_string(store, anchor, arg);
            assert_eq!(got, want, "{arg:?} anchored at {anchor:?}");
            if store.document_count() > anchor.0 as usize {
                let adjacent = arg.doc == anchor.0 && leaf_shaped(store, arg);
                assert_eq!(tokenised, u64::from(!adjacent), "{arg:?} at {anchor:?}");
            }
            whole.extend(want);
        }
        let mut got = Vec::new();
        store.lookup_id_nodes(anchor, args, &mut got);
        assert_eq!(got, whole, "all arguments anchored at {anchor:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn id_over_nodes_equals_tokens_of_the_string_value(seed in 0..u64::MAX) {
        let mut rng = Rng(seed);
        let mut store = NodeStore::new();
        let a = store.parse_document(&rng.document()).unwrap();
        let b = store.parse_document(&rng.document()).unwrap();
        store.register_id_attribute(b, "code");
        let (f, top) = fragment(&mut store, &mut rng);
        let mut args = Vec::new();
        for doc in [a, b] {
            args.extend(nodes_under(&store, store.document_node(doc).unwrap()));
        }
        args.extend(nodes_under(&store, top));
        let anchors = [a, b, f, DocId(99)];
        check(&store, &anchors, &args);

        // A declaration drops `a`'s derived state, adjacency included; a
        // clone taken before keeps reading the old declarations.
        let before = store.clone();
        store.register_id_attribute(a, "code");
        check(&store, &anchors, &args);
        check(&before, &anchors, &args);
    }
}
