//! Node handles, node kinds, axes and node tests.

use std::cell::Cell;
use std::fmt;

use crate::intern::{NameId, NameTable, StrId};

/// A (possibly prefixed) XML name.
///
/// Namespace support in this engine is intentionally minimal — the queries of
/// the reproduced paper operate on un-namespaced documents — but prefixes are
/// preserved so that serialization round-trips.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QName {
    /// Optional prefix (the part before `:`).
    pub prefix: Option<String>,
    /// Local part of the name.
    pub local: String,
}

impl QName {
    /// Create a name without a prefix.
    pub fn local(name: impl Into<String>) -> Self {
        QName {
            prefix: None,
            local: name.into(),
        }
    }

    /// Parse a lexical QName of the form `local` or `prefix:local`.
    pub fn parse(lexical: &str) -> Self {
        let (prefix, local) = QName::parse_parts(lexical);
        QName {
            prefix: prefix.map(String::from),
            local: local.to_string(),
        }
    }

    /// The prefix (if any) and the local part of a lexical QName.
    pub fn parse_parts(lexical: &str) -> (Option<&str>, &str) {
        match lexical.split_once(':') {
            Some((prefix, local)) => (Some(prefix), local),
            None => (None, lexical),
        }
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.prefix {
            Some(p) => write!(f, "{}:{}", p, self.local),
            None => write!(f, "{}", self.local),
        }
    }
}

/// Identifier of a node inside a [`NodeStore`](crate::NodeStore).
///
/// A `NodeId` is a pair of the owning document's index and the node's index
/// inside that document's arena.  It is `Copy`, `Ord` and `Hash`, and the
/// derived ordering **is not** document order — use
/// [`NodeStore::doc_order`](crate::NodeStore::doc_order) for that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// Index of the owning document in the store.
    pub doc: u32,
    /// Index of the node within the document arena.
    pub node: u32,
}

impl NodeId {
    /// Construct a node id from raw parts.
    pub fn new(doc: u32, node: u32) -> Self {
        NodeId { doc, node }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.doc, self.node)
    }
}

/// The kind of a node, together with kind-specific payload: twelve bytes,
/// `Copy`, no pointer.
///
/// Text-shaped payloads (attribute values, text/comment content, PI targets
/// and content) are interned into the owning store's text pool at creation
/// time and carried here as [`StrId`] symbols — resolve them through
/// [`NodeStore::resolve_text`](crate::NodeStore::resolve_text) (or the
/// higher-level `string_value_ref` / `attribute_value` accessors).  This is
/// what makes `string_value` of leaf nodes a borrow instead of a clone.
/// Element and attribute names are [`NameId`] symbols of the store's name
/// table — [`NodeStore::name`](crate::NodeStore::name) and
/// [`NodeStore::resolve_name`](crate::NodeStore::resolve_name) give the
/// [`QName`] back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The document node (root of a parsed document).
    Document,
    /// An element node with its interned name.
    Element(NameId),
    /// An attribute node with interned name and interned string value.
    Attribute(NameId, StrId),
    /// A text node (interned content).
    Text(StrId),
    /// A comment node (interned content).
    Comment(StrId),
    /// A processing instruction with interned target and content.
    ProcessingInstruction(StrId, StrId),
}

impl NodeKind {
    /// Short name of the kind (used in error messages and `node-kind()`).
    pub fn kind_name(&self) -> &'static str {
        match self {
            NodeKind::Document => "document",
            NodeKind::Element(_) => "element",
            NodeKind::Attribute(_, _) => "attribute",
            NodeKind::Text(_) => "text",
            NodeKind::Comment(_) => "comment",
            NodeKind::ProcessingInstruction(_, _) => "processing-instruction",
        }
    }

    /// The symbol of the node's name, if it has one.
    pub fn name_id(&self) -> Option<NameId> {
        match self {
            NodeKind::Element(n) | NodeKind::Attribute(n, _) => Some(*n),
            _ => None,
        }
    }

    /// `true` for element nodes.
    pub fn is_element(&self) -> bool {
        matches!(self, NodeKind::Element(_))
    }

    /// `true` for attribute nodes.
    pub fn is_attribute(&self) -> bool {
        matches!(self, NodeKind::Attribute(_, _))
    }

    /// `true` for text nodes.
    pub fn is_text(&self) -> bool {
        matches!(self, NodeKind::Text(_))
    }
}

/// XPath axes supported by the engine.
///
/// These cover everything the paper's queries and the Regular XPath fragment
/// need: the vertical axes (`child`, `descendant`, `parent`, `ancestor`,
/// plus their `-or-self` variants), the horizontal sibling axes, the global
/// `following` / `preceding` axes, and `attribute` / `self`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// The children of the context node, in document order.
    Child,
    /// All descendants (children, their children, ...).
    Descendant,
    /// The context node followed by its descendants.
    DescendantOrSelf,
    /// The parent node, if any.
    Parent,
    /// All ancestors up to and including the document node.
    Ancestor,
    /// The context node followed by its ancestors.
    AncestorOrSelf,
    /// Siblings after the context node, in document order.
    FollowingSibling,
    /// Siblings before the context node, in reverse document order.
    PrecedingSibling,
    /// All nodes after the context node in document order (excluding
    /// descendants and attributes).
    Following,
    /// All nodes before the context node in document order (excluding
    /// ancestors and attributes).
    Preceding,
    /// The attributes of the context node.
    Attribute,
    /// The context node itself.
    SelfAxis,
}

impl Axis {
    /// `true` if the axis yields nodes in reverse document order.
    pub fn is_reverse(&self) -> bool {
        matches!(
            self,
            Axis::Parent
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::PrecedingSibling
                | Axis::Preceding
        )
    }

    /// The axis name as written in XPath.
    pub fn name(&self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
            Axis::Attribute => "attribute",
            Axis::SelfAxis => "self",
        }
    }

    /// Parse an axis name (`child`, `descendant-or-self`, ...).
    pub fn from_name(name: &str) -> Option<Axis> {
        Some(match name {
            "child" => Axis::Child,
            "descendant" => Axis::Descendant,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "parent" => Axis::Parent,
            "ancestor" => Axis::Ancestor,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            "following" => Axis::Following,
            "preceding" => Axis::Preceding,
            "attribute" => Axis::Attribute,
            "self" => Axis::SelfAxis,
            _ => return None,
        })
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A node test, filtering the nodes produced by an axis step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTest {
    /// `*` — any element (or any attribute on the attribute axis).
    AnyElement,
    /// A name test, e.g. `person` or `@id`.
    Name(String),
    /// `node()` — any node.
    AnyNode,
    /// `text()` — text nodes only.
    Text,
    /// `comment()` — comment nodes only.
    Comment,
    /// `processing-instruction()` — PI nodes only.
    ProcessingInstruction,
    /// `document-node()` — the document node.
    Document,
    /// `element(name)` — element with the given name (or any element when
    /// `None`).
    Element(Option<String>),
    /// `attribute(name)` — attribute with the given name (or any attribute
    /// when `None`).
    Attribute(Option<String>),
}

impl NodeTest {
    /// Start checking nodes reached via `axis` against this test, with
    /// `names` the table the nodes' name symbols come from.  Make one
    /// [`Matcher`] per step and run every candidate through it.
    ///
    /// The *principal node kind* rule of XPath is applied here: on the
    /// `attribute` axis, name tests and `*` select attribute nodes; on
    /// every other axis they select element nodes.
    pub fn matcher<'a>(&'a self, axis: Axis, names: &'a NameTable) -> Matcher<'a> {
        let principal = match axis {
            Axis::Attribute => KindTest::Attribute,
            _ => KindTest::Element,
        };
        let (kind, name) = match self {
            NodeTest::AnyNode => (KindTest::AnyNode, None),
            NodeTest::Text => (KindTest::Text, None),
            NodeTest::Comment => (KindTest::Comment, None),
            NodeTest::ProcessingInstruction => (KindTest::ProcessingInstruction, None),
            NodeTest::Document => (KindTest::Document, None),
            NodeTest::AnyElement => (principal, None),
            NodeTest::Name(name) => (principal, Some(name.as_str())),
            NodeTest::Element(name) => (KindTest::Element, name.as_deref()),
            NodeTest::Attribute(name) => (KindTest::Attribute, name.as_deref()),
        };
        Matcher::new(kind, name, names)
    }
}

/// The node kind a [`Matcher`] lets through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KindTest {
    AnyNode,
    Text,
    Comment,
    ProcessingInstruction,
    Document,
    Element,
    Attribute,
}

/// A [`NodeTest`] at work on one store's nodes.
///
/// Names match *ignoring prefixes*, on both sides: the test `p:a`, like
/// `a`, selects `a` and `q:a` alike.  A node carries its name as a
/// [`NameId`], whose local class ([`NameTable::local_of`]) is one integer
/// per distinct local part, so the wanted name has to meet the table only
/// once: the first candidate of each class is compared by its spelling,
/// and from the first hit on every candidate is decided by comparing two
/// integers — no lookup per step, no string per candidate.
#[derive(Debug)]
pub struct Matcher<'a> {
    names: &'a NameTable,
    kind: KindTest,
    /// The local part the name must have, if the test names one.
    local: Option<&'a str>,
    /// The wanted name's local class, once a candidate has shown it.
    class: Cell<Option<u32>>,
    /// Until then: the class last seen *not* to be it.
    other: Cell<Option<u32>>,
}

impl<'a> Matcher<'a> {
    /// The one place a test's spelling is taken apart: its prefix, if it
    /// has one, is not significant.
    fn new(kind: KindTest, name: Option<&'a str>, names: &'a NameTable) -> Self {
        Matcher {
            names,
            kind,
            local: name.map(|n| QName::parse_parts(n).1),
            class: Cell::new(None),
            other: Cell::new(None),
        }
    }

    /// Attributes called `name`.
    pub(crate) fn attribute(name: &'a str, names: &'a NameTable) -> Self {
        Matcher::new(KindTest::Attribute, Some(name), names)
    }

    /// Does a node of `kind` satisfy the test?
    #[inline]
    pub fn matches(&self, kind: &NodeKind) -> bool {
        let name = match (self.kind, kind) {
            (KindTest::AnyNode, _)
            | (KindTest::Text, NodeKind::Text(_))
            | (KindTest::Comment, NodeKind::Comment(_))
            | (KindTest::ProcessingInstruction, NodeKind::ProcessingInstruction(..))
            | (KindTest::Document, NodeKind::Document) => return true,
            (KindTest::Element, NodeKind::Element(name))
            | (KindTest::Attribute, NodeKind::Attribute(name, _)) => *name,
            _ => return false,
        };
        let Some(local) = self.local else {
            return true;
        };
        let class = self.names.local_of(name);
        if let Some(wanted) = self.class.get() {
            return class == wanted;
        }
        if self.other.get() == Some(class) {
            return false;
        }
        let hit = self.names.resolve(NameId(class)).local == local;
        let seen = if hit { &self.class } else { &self.other };
        seen.set(Some(class));
        hit
    }
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::AnyElement => write!(f, "*"),
            NodeTest::Name(n) => write!(f, "{n}"),
            NodeTest::AnyNode => write!(f, "node()"),
            NodeTest::Text => write!(f, "text()"),
            NodeTest::Comment => write!(f, "comment()"),
            NodeTest::ProcessingInstruction => write!(f, "processing-instruction()"),
            NodeTest::Document => write!(f, "document-node()"),
            NodeTest::Element(Some(n)) => write!(f, "element({n})"),
            NodeTest::Element(None) => write!(f, "element()"),
            NodeTest::Attribute(Some(n)) => write!(f, "attribute({n})"),
            NodeTest::Attribute(None) => write!(f, "attribute()"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qname_parse_and_display() {
        let plain = QName::parse("course");
        assert_eq!(plain.prefix, None);
        assert_eq!(plain.local, "course");
        assert_eq!(plain.to_string(), "course");

        let prefixed = QName::parse("xs:integer");
        assert_eq!(prefixed.prefix.as_deref(), Some("xs"));
        assert_eq!(prefixed.local, "integer");
        assert_eq!(prefixed.to_string(), "xs:integer");
    }

    #[test]
    fn axis_roundtrip_names() {
        for axis in [
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
        ] {
            assert_eq!(Axis::from_name(axis.name()), Some(axis));
        }
        assert_eq!(Axis::from_name("no-such-axis"), None);
    }

    #[test]
    fn reverse_axes_are_flagged() {
        assert!(Axis::Ancestor.is_reverse());
        assert!(Axis::PrecedingSibling.is_reverse());
        assert!(!Axis::Child.is_reverse());
        assert!(!Axis::Descendant.is_reverse());
    }

    /// A table knowing `id`, `a`, `b`, `x` and `p:a`, in that order.
    fn table() -> (NameTable, [NameId; 5]) {
        let mut names = NameTable::default();
        let ids = ["id", "a", "b", "x", "p:a"].map(|n| names.intern_lexical(n));
        (names, ids)
    }

    fn matches(test: &NodeTest, axis: Axis, kind: &NodeKind, names: &NameTable) -> bool {
        test.matcher(axis, names).matches(kind)
    }

    #[test]
    fn name_test_respects_principal_node_kind() {
        let (names, [id, ..]) = table();
        let elem = NodeKind::Element(id);
        let attr = NodeKind::Attribute(id, StrId(0));
        let test = NodeTest::Name("id".into());
        assert!(matches(&test, Axis::Child, &elem, &names));
        assert!(!matches(&test, Axis::Child, &attr, &names));
        assert!(matches(&test, Axis::Attribute, &attr, &names));
        assert!(!matches(&test, Axis::Attribute, &elem, &names));
    }

    #[test]
    fn name_tests_ignore_prefixes_on_both_sides() {
        let (names, [id, a, b, _, pa]) = table();
        for test in ["a", "p:a", "q:a"] {
            let test = NodeTest::Name(test.into());
            assert!(matches(&test, Axis::Child, &NodeKind::Element(a), &names));
            assert!(matches(&test, Axis::Child, &NodeKind::Element(pa), &names));
            assert!(!matches(&test, Axis::Child, &NodeKind::Element(b), &names));
            // One matcher over a run of candidates: whichever class it
            // meets first, misses and hits alike stay right afterwards.
            let matcher = test.matcher(Axis::Child, &names);
            let run = [b, id, b, pa, a, id, b, a, pa];
            let hits: Vec<bool> = run
                .iter()
                .map(|&n| matcher.matches(&NodeKind::Element(n)))
                .collect();
            assert_eq!(hits, run.map(|n| n == a || n == pa));
        }
        let never = NodeTest::Element(Some("p:never".into()));
        assert!(!matches(&never, Axis::Child, &NodeKind::Element(a), &names));
    }

    #[test]
    fn wildcard_matches_elements_only_on_child_axis() {
        let (names, [_, a, ..]) = table();
        let elem = NodeKind::Element(a);
        let text = NodeKind::Text(StrId(0));
        assert!(matches(&NodeTest::AnyElement, Axis::Child, &elem, &names));
        assert!(!matches(&NodeTest::AnyElement, Axis::Child, &text, &names));
        assert!(matches(&NodeTest::AnyNode, Axis::Child, &text, &names));
    }

    #[test]
    fn kind_tests_match_their_kinds() {
        let (names, [_, a, b, x, _]) = table();
        let m = |test: NodeTest, axis, kind| matches(&test, axis, &kind, &names);
        assert!(m(NodeTest::Text, Axis::Child, NodeKind::Text(StrId(0))));
        assert!(m(
            NodeTest::Comment,
            Axis::Child,
            NodeKind::Comment(StrId(0))
        ));
        assert!(m(NodeTest::Document, Axis::SelfAxis, NodeKind::Document));
        let element_a = || NodeTest::Element(Some("a".into()));
        assert!(m(element_a(), Axis::Child, NodeKind::Element(a)));
        assert!(!m(element_a(), Axis::Child, NodeKind::Element(b)));
        assert!(m(
            NodeTest::Attribute(None),
            Axis::Attribute,
            NodeKind::Attribute(x, StrId(0))
        ));
    }

    #[test]
    fn node_kind_is_a_twelve_byte_copy_value() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<NodeKind>();
        assert_eq!(std::mem::size_of::<NodeKind>(), 12);
    }
}
