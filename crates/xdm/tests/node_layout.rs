//! Model-based property: the linked 32-byte node arena against a plain tree.
//!
//! Random interleavings of parses, `create_*`, `append_child`,
//! `add_attribute`, `deep_copy` across documents, `register_id_attribute`
//! and store clones run over a [`NodeStore`] and, step by step, over a
//! reference model that keeps what the store no longer does: an owned name
//! per node and a `Vec` of children and of attributes.  Every read the
//! store offers — kinds and names, `parent` / `children` / `attributes`,
//! every axis under every node test (prefixed names included), document
//! order, string values, `lookup_id`, statistics and a serialize → parse
//! round trip — must agree with the model's own, differently formulated
//! answer, and a store cloned along the way must still read like the model
//! did when it was cloned.

use proptest::prelude::*;
use xqy_xdm::serialize::serialize_node;
use xqy_xdm::{Axis, DocId, NodeId, NodeKind, NodeStore, NodeTest, QName};

const ELEMENT_NAMES: &[&str] = &["a", "b", "p:a", "q:b", "id", "r"];
const ATTRIBUTE_NAMES: &[&str] = &["id", "xml:id", "code", "p:code", "ref", "x"];
const VALUES: &[&str] = &["v1", "v2", "a1", "k 1", "<&\">'", "é"];
const TEXTS: &[&str] = &["t", "a1", "v1 v2", "<&>", "é", "]]>"];
/// Names the tests ask for: carried ones, prefixed twins, unknown ones.
const TEST_NAMES: &[&str] = &[
    "a", "p:a", "z:a", "b", "id", "xml:id", "code", "p:code", "never", "p:never",
];
const AXES: [Axis; 12] = [
    Axis::Child,
    Axis::Descendant,
    Axis::DescendantOrSelf,
    Axis::Parent,
    Axis::Ancestor,
    Axis::AncestorOrSelf,
    Axis::FollowingSibling,
    Axis::PrecedingSibling,
    Axis::Following,
    Axis::Preceding,
    Axis::Attribute,
    Axis::SelfAxis,
];

fn node_tests() -> Vec<NodeTest> {
    let mut tests = vec![
        NodeTest::AnyNode,
        NodeTest::AnyElement,
        NodeTest::Text,
        NodeTest::Comment,
        NodeTest::ProcessingInstruction,
        NodeTest::Document,
        NodeTest::Element(None),
        NodeTest::Attribute(None),
    ];
    for name in TEST_NAMES {
        tests.push(NodeTest::Name(name.to_string()));
        tests.push(NodeTest::Element(Some(name.to_string())));
        tests.push(NodeTest::Attribute(Some(name.to_string())));
    }
    tests
}

fn local(lexical: &str) -> &str {
    lexical.split_once(':').map_or(lexical, |(_, l)| l)
}

// ---------------------------------------------------------------------
// The reference model
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Kind {
    Document,
    Element(String),
    Attribute(String, String),
    Text(String),
    Comment(String),
    Pi(String, String),
}

#[derive(Debug, Clone)]
struct ModelNode {
    kind: Kind,
    parent: Option<usize>,
    children: Vec<usize>,
    attributes: Vec<usize>,
}

/// One document: nodes in creation order, like the store's arena.
#[derive(Debug, Clone, Default)]
struct ModelDoc {
    nodes: Vec<ModelNode>,
    id_names: Vec<String>,
}

impl ModelDoc {
    fn push(&mut self, kind: Kind) -> usize {
        self.nodes.push(ModelNode {
            kind,
            parent: None,
            children: Vec::new(),
            attributes: Vec::new(),
        });
        self.nodes.len() - 1
    }

    fn append(&mut self, parent: usize, child: usize) {
        self.nodes[child].parent = Some(parent);
        self.nodes[parent].children.push(child);
    }

    fn add_attribute(&mut self, element: usize, name: &str, value: &str) -> usize {
        let attr = self.push(Kind::Attribute(name.into(), value.into()));
        self.nodes[attr].parent = Some(element);
        self.nodes[element].attributes.push(attr);
        attr
    }

    fn root_of(&self, mut node: usize) -> usize {
        while let Some(p) = self.nodes[node].parent {
            node = p;
        }
        node
    }

    /// `node`, its attributes, then its children's subtrees: document order.
    fn subtree(&self, node: usize, out: &mut Vec<usize>) {
        out.push(node);
        out.extend(&self.nodes[node].attributes);
        for &c in &self.nodes[node].children {
            self.subtree(c, out);
        }
    }

    /// All nodes in document order: trees by the arena index of their root.
    fn order(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for root in 0..self.nodes.len() {
            if self.nodes[root].parent.is_none() {
                self.subtree(root, &mut out);
            }
        }
        out
    }

    fn is_attribute(&self, node: usize) -> bool {
        matches!(self.nodes[node].kind, Kind::Attribute(..))
    }

    fn ancestors(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.nodes[node].parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.nodes[p].parent;
        }
        out
    }

    fn descendants(&self, node: usize) -> Vec<usize> {
        let mut all = Vec::new();
        self.subtree(node, &mut all);
        all.retain(|&n| n != node && !self.is_attribute(n));
        all
    }

    /// The XPath definition of each axis, read off document order.
    fn axis(&self, node: usize, axis: Axis) -> Vec<usize> {
        let me = &self.nodes[node];
        let siblings = || match me.parent {
            Some(p) if !self.is_attribute(node) => self.nodes[p].children.clone(),
            _ => vec![node],
        };
        let tree = || {
            let mut all = Vec::new();
            self.subtree(self.root_of(node), &mut all);
            all
        };
        let with_self = |mut rest: Vec<usize>| {
            rest.insert(0, node);
            rest
        };
        match axis {
            Axis::Child => me.children.clone(),
            Axis::Attribute => me.attributes.clone(),
            Axis::SelfAxis => vec![node],
            Axis::Parent => me.parent.into_iter().collect(),
            Axis::Ancestor => self.ancestors(node),
            Axis::AncestorOrSelf => with_self(self.ancestors(node)),
            Axis::Descendant => self.descendants(node),
            Axis::DescendantOrSelf => with_self(self.descendants(node)),
            Axis::FollowingSibling => {
                let all = siblings();
                let at = all.iter().position(|&s| s == node).unwrap();
                all[at + 1..].to_vec()
            }
            Axis::PrecedingSibling => {
                let all = siblings();
                let at = all.iter().position(|&s| s == node).unwrap();
                all[..at].iter().rev().copied().collect()
            }
            Axis::Following => {
                let all = tree();
                let at = all.iter().position(|&n| n == node).unwrap();
                let below = self.descendants(node);
                let after = all[at + 1..].iter().copied();
                after
                    .filter(|n| !self.is_attribute(*n) && !below.contains(n))
                    .collect()
            }
            Axis::Preceding => {
                let all = tree();
                let at = all.iter().position(|&n| n == node).unwrap();
                let above = self.ancestors(node);
                let before = all[..at].iter().rev().copied();
                before
                    .filter(|n| !self.is_attribute(*n) && !above.contains(n))
                    .collect()
            }
        }
    }

    fn matches(&self, test: &NodeTest, axis: Axis, node: usize) -> bool {
        let kind = &self.nodes[node].kind;
        let named = |want: &Option<String>, have: &str| {
            want.as_deref().is_none_or(|w| local(w) == local(have))
        };
        match (test, kind) {
            (NodeTest::AnyNode, _) => true,
            (NodeTest::Text, Kind::Text(_)) => true,
            (NodeTest::Comment, Kind::Comment(_)) => true,
            (NodeTest::ProcessingInstruction, Kind::Pi(..)) => true,
            (NodeTest::Document, Kind::Document) => true,
            (NodeTest::AnyElement, Kind::Element(_)) => axis != Axis::Attribute,
            (NodeTest::AnyElement, Kind::Attribute(..)) => axis == Axis::Attribute,
            (NodeTest::Name(want), Kind::Element(have)) => {
                axis != Axis::Attribute && local(want) == local(have)
            }
            (NodeTest::Name(want), Kind::Attribute(have, _)) => {
                axis == Axis::Attribute && local(want) == local(have)
            }
            (NodeTest::Element(want), Kind::Element(have)) => named(want, have),
            (NodeTest::Attribute(want), Kind::Attribute(have, _)) => named(want, have),
            _ => false,
        }
    }

    fn string_value(&self, node: usize) -> String {
        match &self.nodes[node].kind {
            Kind::Attribute(_, v) | Kind::Text(v) | Kind::Comment(v) | Kind::Pi(_, v) => v.clone(),
            Kind::Document | Kind::Element(_) => {
                let texts = self.descendants(node).into_iter();
                let texts = texts.filter_map(|n| match &self.nodes[n].kind {
                    Kind::Text(t) => Some(t.as_str()),
                    _ => None,
                });
                texts.collect()
            }
        }
    }

    fn lookup_id(&self, value: &str) -> Option<usize> {
        let is_id = |name: &str| {
            local(name) == "id" || self.id_names.iter().any(|n| local(n) == local(name))
        };
        (0..self.nodes.len()).find(|&n| {
            let attrs = self.nodes[n].attributes.iter();
            attrs
                .filter_map(|&a| match &self.nodes[a].kind {
                    Kind::Attribute(name, v) => Some((name, v)),
                    _ => None,
                })
                .any(|(name, v)| is_id(name) && v == value)
        })
    }

    fn serialize(&self, node: usize, out: &mut String) {
        let text = |t: &str| {
            t.replace('&', "&amp;")
                .replace('<', "&lt;")
                .replace('>', "&gt;")
        };
        let attribute = |name: &str, v: &str| {
            let v = v.replace('&', "&amp;").replace('<', "&lt;");
            format!("{name}=\"{}\"", v.replace('"', "&quot;"))
        };
        match &self.nodes[node].kind {
            Kind::Document => {
                for &c in &self.nodes[node].children {
                    self.serialize(c, out);
                }
            }
            Kind::Element(name) => {
                out.push_str(&format!("<{name}"));
                for &a in &self.nodes[node].attributes {
                    out.push(' ');
                    self.serialize(a, out);
                }
                if self.nodes[node].children.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for &c in &self.nodes[node].children {
                        self.serialize(c, out);
                    }
                    out.push_str(&format!("</{name}>"));
                }
            }
            Kind::Attribute(name, v) => out.push_str(&attribute(name, v)),
            Kind::Text(t) => out.push_str(&text(t)),
            Kind::Comment(c) => out.push_str(&format!("<!--{c}-->")),
            Kind::Pi(target, content) if content.is_empty() => {
                out.push_str(&format!("<?{target}?>"))
            }
            Kind::Pi(target, content) => out.push_str(&format!("<?{target} {content}?>")),
        }
    }

    /// The store's [`DocumentStatistics`](xqy_xdm::DocumentStatistics), from
    /// the owned lists: (elements, attributes, text nodes, parents, child
    /// links, widest fanout, deepest path).
    fn shape(&self) -> [u64; 7] {
        let count = |f: fn(&Kind) -> bool| self.nodes.iter().filter(|n| f(&n.kind)).count() as u64;
        let fanouts = self.nodes.iter().map(|n| n.children.len() as u64);
        let depth_of = |n: usize| self.ancestors(n).len() as u64;
        let deepest = (0..self.nodes.len()).filter(|&n| !self.is_attribute(n));
        [
            count(|k| matches!(k, Kind::Element(_))),
            count(|k| matches!(k, Kind::Attribute(..))),
            count(|k| matches!(k, Kind::Text(_))),
            fanouts.clone().filter(|&f| f > 0).count() as u64,
            fanouts.clone().sum(),
            fanouts.max().unwrap_or(0),
            deepest.map(depth_of).max().unwrap_or(0),
        ]
    }
}

// ---------------------------------------------------------------------
// Store and model, moved in lockstep
// ---------------------------------------------------------------------

/// A small deterministic generator for the shape of parsed documents.
struct Dice(u64);

impl Dice {
    fn roll(&mut self, sides: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as usize % sides
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.roll(from.len())]
    }
}

#[derive(Clone, Default)]
struct Pair {
    store: NodeStore,
    model: Vec<ModelDoc>,
}

impl Pair {
    fn nodes(&self) -> usize {
        self.model.iter().map(|d| d.nodes.len()).sum()
    }

    /// Grow a random element under `parent` in the model — in the order the
    /// parser creates nodes: the element, its attributes, its content.
    fn grow(doc: &mut ModelDoc, parent: usize, dice: &mut Dice, depth: usize) {
        let element = doc.push(Kind::Element(dice.pick(ELEMENT_NAMES).into()));
        doc.append(parent, element);
        for _ in 0..dice.roll(4) {
            doc.add_attribute(element, dice.pick(ATTRIBUTE_NAMES), dice.pick(VALUES));
        }
        let mut after_text = false;
        for _ in 0..dice.roll(4) {
            let roll = dice.roll(if depth < 3 { 7 } else { 3 });
            // Adjacent text nodes would come back from the parser as one.
            if roll == 0 && after_text {
                continue;
            }
            after_text = roll == 0;
            let leaf = match roll {
                0 => Kind::Text(dice.pick(TEXTS).into()),
                1 => Kind::Comment(dice.pick(&["c", " c - d ", ""]).into()),
                2 => Kind::Pi(
                    dice.pick(&["pi", "t"]).into(),
                    dice.pick(&["", "x y"]).into(),
                ),
                _ => {
                    Self::grow(doc, element, dice, depth + 1);
                    continue;
                }
            };
            let leaf = doc.push(leaf);
            doc.append(element, leaf);
        }
    }

    /// Parse a document the model generated and wrote out.
    fn parse(&mut self, seed: u64) {
        let mut doc = ModelDoc::default();
        let root = doc.push(Kind::Document);
        Self::grow(&mut doc, root, &mut Dice(seed), 0);
        let mut xml = String::from("<?xml version=\"1.0\"?>\n<!-- prolog -->");
        doc.serialize(root, &mut xml);
        let id = self
            .store
            .parse_document(&xml)
            .expect("generated XML is well-formed");
        assert_eq!(id, DocId(self.model.len() as u32));
        self.model.push(doc);
    }

    fn id(doc: usize, node: usize) -> NodeId {
        NodeId::new(doc as u32, node as u32)
    }

    fn create(&mut self, doc: usize, kind: Kind) {
        let d = DocId(doc as u32);
        let made = match &kind {
            Kind::Element(name) => self.store.create_element(d, QName::parse(name)),
            Kind::Text(t) => self.store.create_text(d, t),
            Kind::Comment(c) => self.store.create_comment(d, c),
            Kind::Pi(t, c) => self.store.create_pi(d, t, c),
            Kind::Document | Kind::Attribute(..) => unreachable!("not created unattached"),
        };
        assert_eq!(made, Self::id(doc, self.model[doc].push(kind)));
    }

    fn append_child(&mut self, doc: usize, parent: usize, child: usize) {
        let m = &self.model[doc];
        let never_a_child = matches!(m.nodes[child].kind, Kind::Document | Kind::Attribute(..));
        if m.root_of(parent) == child || never_a_child {
            // Would tie a cycle, or put a document node or a (copied,
            // ownerless) attribute into a child list: no caller of the
            // store does either.
            return;
        }
        let accepted = m.nodes[child].parent.is_none()
            && matches!(m.nodes[parent].kind, Kind::Element(_) | Kind::Document);
        let result = self
            .store
            .append_child(Self::id(doc, parent), Self::id(doc, child));
        assert_eq!(result.is_ok(), accepted);
        if accepted {
            self.model[doc].append(parent, child);
        }
    }

    fn add_attribute(&mut self, doc: usize, element: usize, name: &str, value: &str) {
        let result = self
            .store
            .add_attribute(Self::id(doc, element), QName::parse(name), value);
        if matches!(self.model[doc].nodes[element].kind, Kind::Element(_)) {
            let attr = self.model[doc].add_attribute(element, name, value);
            assert_eq!(result.unwrap(), Self::id(doc, attr));
        } else {
            assert!(result.is_err());
        }
    }

    fn deep_copy(&mut self, doc: usize, node: usize, target: usize) {
        fn copy(model: &mut [ModelDoc], from: (usize, usize), target: usize) -> usize {
            let source = model[from.0].nodes[from.1].clone();
            let made = model[target].push(source.kind);
            for attr in source.attributes {
                if let Kind::Attribute(name, value) = model[from.0].nodes[attr].kind.clone() {
                    model[target].add_attribute(made, &name, &value);
                }
            }
            for child in source.children {
                let child = copy(model, (from.0, child), target);
                model[target].append(made, child);
            }
            made
        }
        let made = self
            .store
            .deep_copy(Self::id(doc, node), DocId(target as u32));
        assert_eq!(
            made,
            Self::id(target, copy(&mut self.model, (doc, node), target))
        );
    }

    /// Every read of the store against the model's answer.
    fn check(&self, tests: &[NodeTest]) {
        let store = &self.store;
        assert_eq!(store.document_count(), self.model.len());
        let mut everything = Vec::new();
        for (d, model) in self.model.iter().enumerate() {
            let ids = |nodes: &[usize]| -> Vec<NodeId> {
                nodes.iter().map(|&n| Self::id(d, n)).collect()
            };
            assert!(!store.contains(Self::id(d, model.nodes.len())));
            for (n, node) in model.nodes.iter().enumerate() {
                let id = Self::id(d, n);
                assert!(store.contains(id));
                let name = store.name(id).map(|q| q.to_string());
                let payload = |sym| store.resolve_text(sym).to_string();
                let kind = match *store.kind(id) {
                    NodeKind::Document => Kind::Document,
                    NodeKind::Element(q) => Kind::Element(store.resolve_name(q).to_string()),
                    NodeKind::Attribute(_, v) => Kind::Attribute(name.clone().unwrap(), payload(v)),
                    NodeKind::Text(t) => Kind::Text(payload(t)),
                    NodeKind::Comment(c) => Kind::Comment(payload(c)),
                    NodeKind::ProcessingInstruction(t, c) => Kind::Pi(payload(t), payload(c)),
                };
                assert_eq!(kind, node.kind, "{id}");
                assert_eq!(
                    name.is_some(),
                    matches!(kind, Kind::Element(_) | Kind::Attribute(..))
                );
                assert_eq!(store.parent(id), node.parent.map(|p| Self::id(d, p)));
                assert_eq!(store.children(id), ids(&node.children));
                assert_eq!(store.attributes(id), ids(&node.attributes));
                assert_eq!(store.tree_root(id), Self::id(d, model.root_of(n)));
                assert_eq!(store.string_value(id), model.string_value(n), "{id}");
                assert_eq!(store.untyped_value(id).as_str(), model.string_value(n));
                for name in ATTRIBUTE_NAMES.iter().chain(TEST_NAMES) {
                    let expected =
                        node.attributes
                            .iter()
                            .find_map(|&a| match &model.nodes[a].kind {
                                Kind::Attribute(have, v) if local(have) == local(name) => {
                                    Some(v.as_str())
                                }
                                _ => None,
                            });
                    assert_eq!(store.attribute_value(id, name), expected, "{id}/@{name}");
                }
                for axis in AXES {
                    let reached = model.axis(n, axis);
                    for test in tests {
                        let keep = |&n: &usize| model.matches(test, axis, n);
                        let expected: Vec<usize> = reached.iter().copied().filter(keep).collect();
                        let got = store.axis_nodes(id, axis, test);
                        assert_eq!(got, ids(&expected), "{id}/{axis}::{test}");
                    }
                }
            }
            for value in VALUES.iter().chain(TEXTS) {
                let expected = model.lookup_id(value).map(|n| Self::id(d, n));
                assert_eq!(
                    store.lookup_id(DocId(d as u32), value),
                    expected,
                    "id({value})"
                );
            }
            let order = ids(&model.order());
            let in_arena_order = order.windows(2).all(|w| w[0].node < w[1].node);
            assert_eq!(
                store.index_order_is_document_order(DocId(d as u32)),
                in_arena_order
            );
            let stats = store.statistics().per_document[d];
            assert_eq!(stats.nodes, model.nodes.len() as u64);
            let shape = [
                stats.elements,
                stats.attributes,
                stats.text_nodes,
                stats.parents,
                stats.child_links,
                stats.max_fanout,
                stats.max_depth,
            ];
            assert_eq!(shape, model.shape(), "statistics of document {d}");
            everything.extend(order);

            // Serialize → parse → serialize is the identity on every tree
            // an element roots, and the store writes what the model writes.
            for root in (0..model.nodes.len()).filter(|&n| model.nodes[n].parent.is_none()) {
                let mut expected = String::new();
                model.serialize(root, &mut expected);
                let written = serialize_node(store, Self::id(d, root));
                assert_eq!(written, expected);
                if matches!(model.nodes[root].kind, Kind::Element(_)) {
                    let mut fresh = NodeStore::new();
                    let back = fresh.parse_document(&written).expect("own output parses");
                    let element = fresh.document_element(back).unwrap();
                    assert_eq!(serialize_node(&fresh, element), written);
                    assert_eq!(fresh.string_value(element), model.string_value(root));
                }
            }
        }
        // One document order over all documents, from a scramble with
        // duplicates.
        let mut scrambled: Vec<NodeId> = everything.iter().rev().copied().collect();
        scrambled.extend(everything.iter().step_by(3));
        store.sort_distinct(&mut scrambled);
        assert_eq!(scrambled, everything);
        for pair in everything.windows(2) {
            assert_eq!(store.doc_order(pair[0], pair[1]), std::cmp::Ordering::Less);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_linked_arena_reads_like_a_tree_of_owned_lists(
        ops in proptest::collection::vec((0usize..12, 0usize..1000, 0usize..1000, 0usize..1000), 1..40)
    ) {
        let tests = node_tests();
        let mut live = Pair::default();
        // Clones taken along the way: the stores documents get shared with.
        let mut shared: Vec<Pair> = Vec::new();
        for (op, a, b, c) in ops {
            let docs = live.model.len();
            if live.nodes() > 160 && op < 9 {
                continue;
            }
            // A node of a non-empty document, for the ops that need one.
            let pick = |live: &Pair, doc: usize, at: usize| {
                let len = live.model[doc % docs].nodes.len();
                (len > 0).then(|| (doc % docs, at % len))
            };
            match op {
                0 => live.parse((a * 1_000_003 + b * 1009 + c) as u64),
                1 => {
                    let made = if a % 2 == 0 {
                        live.model.push(ModelDoc::default());
                        live.store.new_fragment()
                    } else {
                        let mut doc = ModelDoc::default();
                        doc.push(Kind::Document);
                        live.model.push(doc);
                        live.store.new_document()
                    };
                    assert_eq!(made, DocId(docs as u32));
                }
                2 if docs > 0 => {
                    let name = ELEMENT_NAMES[b % ELEMENT_NAMES.len()];
                    live.create(a % docs, Kind::Element(name.into()));
                }
                3 if docs > 0 => {
                    let text = TEXTS[b % TEXTS.len()].to_string();
                    let kind = match c % 4 {
                        0 => Kind::Comment("made".into()),
                        1 => Kind::Pi("pi".into(), text),
                        _ => Kind::Text(text),
                    };
                    live.create(a % docs, kind);
                }
                4 | 5 if docs > 0 => {
                    if let (Some((doc, parent)), Some((_, child))) =
                        (pick(&live, a, b), pick(&live, a, c))
                    {
                        live.append_child(doc, parent, child);
                    }
                }
                6 if docs > 0 => {
                    if let Some((doc, element)) = pick(&live, a, b) {
                        let name = ATTRIBUTE_NAMES[c % ATTRIBUTE_NAMES.len()];
                        live.add_attribute(doc, element, name, VALUES[(b + c) % VALUES.len()]);
                    }
                }
                7 if docs > 0 => {
                    // (Constructors copy a document node's children, never
                    // the node itself.)
                    match pick(&live, a, b) {
                        Some((doc, node)) if live.model[doc].nodes[node].kind != Kind::Document => {
                            live.deep_copy(doc, node, c % docs)
                        }
                        _ => {}
                    }
                }
                8 if docs > 0 => {
                    let name = ATTRIBUTE_NAMES[b % ATTRIBUTE_NAMES.len()];
                    live.store.register_id_attribute(DocId((a % docs) as u32), name);
                    let names = &mut live.model[a % docs].id_names;
                    if !names.iter().any(|n| n == name) {
                        names.push(name.to_string());
                    }
                }
                9 => {
                    if shared.len() == 3 {
                        shared.remove(0);
                    }
                    shared.push(live.clone());
                }
                10 => live.store.refresh_all(),
                _ => live.check(&tests),
            }
        }
        live.check(&tests);
        // What the writer did since has not reached any store it shared
        // documents with.
        for clone in &shared {
            clone.check(&tests);
        }
    }
}
