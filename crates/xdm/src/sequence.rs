//! Item sequences — the universal value type of XQuery.
//!
//! Every XQuery expression evaluates to a (possibly empty, possibly
//! single-item) ordered sequence of items.  [`Sequence`] offers the helpers
//! the evaluator and the fixed point runtime need: node extraction,
//! emptiness tests, concatenation, and the *set-equality* relation `=ₛ` of
//! the paper (equality up to duplicates and order, over the node portion of
//! the sequences).
//!
//! # Representation
//!
//! The interpreter's hot paths — the Figure-3 fixpoint loops, axis steps,
//! `union`/`except`, `id()` chains — deal almost exclusively in **all-node
//! sequences**.  Carrying those as `Vec<Item>` means every variable
//! reference clones a vector of 32-byte enums and every set operation first
//! filters the node ids back out.  `Sequence` therefore has two internal
//! representations:
//!
//! * **`Items`** — the general `Vec<Item>` form, used whenever atomic
//!   values are present;
//! * **`Nodes`** — an `Arc<Vec<NodeId>>` order buffer for all-node
//!   sequences.  Cloning (the `$x` variable-reference path, environment
//!   pushes, per-seed result replication) is a reference-count bump;
//!   [`Sequence::all_nodes`] is O(1); [`Sequence::node_ids`] exposes the id
//!   slice without copying.  The `Item` view ([`Sequence::items`],
//!   [`Sequence::iter`]) is materialized lazily, at most once per sequence
//!   value, and only when a consumer actually asks for items.
//!
//! Construction via [`Sequence::from_nodes`] and concatenation of node
//! sequences stay in the `Nodes` form; pushing an atomic item degrades the
//! sequence to the general form transparently.  The two representations are
//! observationally identical — equality, iteration order and the public API
//! do not depend on which one backs a given value.

use std::sync::{Arc, OnceLock};

use crate::node::NodeId;
use crate::nodeset::NodeSet;
use crate::store::NodeStore;
use crate::value::{AtomicValue, Item};

/// An ordered sequence of XDM items.
#[derive(Debug, Clone, Default)]
pub struct Sequence {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// The general form: any mix of nodes and atomic values.
    Items(Vec<Item>),
    /// The all-nodes fast path: ids in sequence order, shared by handle.
    Nodes(NodeSeq),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Items(Vec::new())
    }
}

/// The node-backed representation: a shared order buffer plus a lazily
/// materialized `Item` view for consumers of the general API.
#[derive(Debug, Default)]
/// Thread-safety (a sequence may be shared across threads): the lazy
/// `items` view is a [`OnceLock`], so concurrent `items()` calls on a
/// *shared* `NodeSeq` race benignly inside `get_or_init` — one
/// initializer wins, every caller observes the same fully-written vector,
/// and the loser's duplicate is dropped.  Both inputs to the initializer
/// (`ids`, an immutable `Arc` buffer) are frozen for the value's
/// lifetime, so every racer computes identical contents.  Clones share
/// `ids` but reset the cell, so a clone handed to another thread
/// re-materializes independently rather than aliasing the view.
struct NodeSeq {
    ids: Arc<Vec<NodeId>>,
    /// Filled on first call to [`Sequence::items`]; never cloned (clones
    /// share `ids` and re-materialize on demand).
    items: OnceLock<Vec<Item>>,
}

impl Clone for NodeSeq {
    fn clone(&self) -> Self {
        NodeSeq {
            ids: self.ids.clone(),
            items: OnceLock::new(),
        }
    }
}

impl NodeSeq {
    fn from_vec(ids: Vec<NodeId>) -> Self {
        NodeSeq {
            ids: Arc::new(ids),
            items: OnceLock::new(),
        }
    }

    fn items(&self) -> &[Item] {
        self.items
            .get_or_init(|| self.ids.iter().map(|&n| Item::Node(n)).collect())
    }

    /// Mutable access to the id buffer (copy-on-write when shared), resetting
    /// the materialized item view.
    fn ids_mut(&mut self) -> &mut Vec<NodeId> {
        self.items = OnceLock::new();
        Arc::make_mut(&mut self.ids)
    }
}

impl Sequence {
    /// The empty sequence `()`.
    pub fn empty() -> Self {
        Sequence::default()
    }

    /// A singleton sequence.
    pub fn singleton(item: Item) -> Self {
        match item {
            Item::Node(n) => Sequence::from_nodes([n]),
            other => Sequence {
                repr: Repr::Items(vec![other]),
            },
        }
    }

    /// Build a sequence from items.
    pub fn from_items(items: Vec<Item>) -> Self {
        crate::budget::charge((items.len() * std::mem::size_of::<Item>()) as u64);
        Sequence {
            repr: Repr::Items(items),
        }
    }

    /// Build a sequence of node items (kept in the node-backed fast-path
    /// representation; no `Item` is materialized until a consumer asks).
    pub fn from_nodes(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let ids: Vec<NodeId> = nodes.into_iter().collect();
        crate::budget::charge((ids.len() * std::mem::size_of::<NodeId>()) as u64);
        Sequence {
            repr: Repr::Nodes(NodeSeq::from_vec(ids)),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Items(items) => items.len(),
            Repr::Nodes(ns) => ns.ids.len(),
        }
    }

    /// `true` for the empty sequence.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the items.  On a node-backed sequence this materializes the
    /// `Item` view (once per sequence value); prefer [`Sequence::node_ids`]
    /// where only node identities are needed.
    pub fn items(&self) -> &[Item] {
        match &self.repr {
            Repr::Items(items) => items,
            Repr::Nodes(ns) => ns.items(),
        }
    }

    /// Consume the sequence, yielding its items.
    pub fn into_items(self) -> Vec<Item> {
        match self.repr {
            Repr::Items(items) => items,
            Repr::Nodes(ns) => match Arc::try_unwrap(ns.ids) {
                Ok(ids) => ids.into_iter().map(Item::Node).collect(),
                Err(shared) => shared.iter().map(|&n| Item::Node(n)).collect(),
            },
        }
    }

    /// Iterate over the items.
    pub fn iter(&self) -> std::slice::Iter<'_, Item> {
        self.items().iter()
    }

    /// Append a single item.  Node pushes keep (or establish) the
    /// node-backed representation; atomic pushes degrade to the general form.
    pub fn push(&mut self, item: Item) {
        match (&mut self.repr, item) {
            (Repr::Nodes(ns), Item::Node(n)) => ns.ids_mut().push(n),
            (Repr::Items(items), Item::Node(n)) if items.is_empty() => {
                self.repr = Repr::Nodes(NodeSeq::from_vec(vec![n]));
            }
            (Repr::Items(items), item) => items.push(item),
            (Repr::Nodes(_), item) => {
                self.degrade_to_items().push(item);
            }
        }
    }

    /// Append all items of `other` (sequence concatenation, the `,` operator).
    pub fn extend(&mut self, other: Sequence) {
        if other.is_empty() {
            return;
        }
        // Budget note: accumulation (`out.extend(step)`) copies `other`'s
        // elements into `self`'s buffer — a real allocation on top of the
        // charge `other` already paid at construction, mirroring the 2×
        // peak such loops actually reach.  The empty-`self` adoption below
        // moves a handle instead, so it charges nothing new.
        if self.is_empty() {
            // Adopt the other representation wholesale — the common shape of
            // accumulation loops (`out` starts empty, first step fills it)
            // becomes a handle move.
            *self = other;
            return;
        }
        crate::budget::charge((other.len() * std::mem::size_of::<Item>()) as u64);
        match (&mut self.repr, other.repr) {
            (Repr::Nodes(ns), Repr::Nodes(o)) => ns.ids_mut().extend(o.ids.iter().copied()),
            (Repr::Nodes(_), Repr::Items(o)) => {
                self.degrade_to_items().extend(o);
            }
            (Repr::Items(items), Repr::Items(o)) => items.extend(o),
            (Repr::Items(items), Repr::Nodes(o)) => {
                items.extend(o.ids.iter().map(|&n| Item::Node(n)))
            }
        }
    }

    /// Switch to the general representation, returning its item vector.
    fn degrade_to_items(&mut self) -> &mut Vec<Item> {
        if let Repr::Nodes(ns) = &self.repr {
            let items: Vec<Item> = ns.ids.iter().map(|&n| Item::Node(n)).collect();
            self.repr = Repr::Items(items);
        }
        match &mut self.repr {
            Repr::Items(items) => items,
            Repr::Nodes(_) => unreachable!("just degraded"),
        }
    }

    /// Concatenate two sequences.
    pub fn concat(mut self, other: Sequence) -> Sequence {
        self.extend(other);
        self
    }

    /// The node ids of all node items, in sequence order (atomics skipped).
    pub fn nodes(&self) -> Vec<NodeId> {
        match &self.repr {
            Repr::Items(items) => items.iter().filter_map(Item::as_node).collect(),
            Repr::Nodes(ns) => ns.ids.as_ref().clone(),
        }
    }

    /// The node ids as a borrowed slice, when this sequence is in the
    /// node-backed representation (`None` for the general form — including
    /// all-node sequences that were built item by item).  The zero-copy
    /// companion of [`Sequence::nodes`] for hot paths.
    pub fn node_ids(&self) -> Option<&[NodeId]> {
        match &self.repr {
            Repr::Nodes(ns) => Some(&ns.ids),
            Repr::Items(_) => None,
        }
    }

    /// The node id of the first item, if the first item is a node (O(1) in
    /// both representations — never materializes items).
    pub fn first_node(&self) -> Option<NodeId> {
        match &self.repr {
            Repr::Items(items) => items.first().and_then(Item::as_node),
            Repr::Nodes(ns) => ns.ids.first().copied(),
        }
    }

    /// The node items as a [`NodeSet`] (duplicates collapse, order drops).
    pub fn node_set(&self) -> NodeSet {
        match &self.repr {
            Repr::Items(items) => items.iter().filter_map(Item::as_node).collect(),
            Repr::Nodes(ns) => NodeSet::from_nodes(ns.ids.iter().copied()),
        }
    }

    /// `true` if every item is a node (O(1) on the node-backed
    /// representation).
    pub fn all_nodes(&self) -> bool {
        match &self.repr {
            Repr::Items(items) => items.iter().all(Item::is_node),
            Repr::Nodes(_) => true,
        }
    }

    /// `true` if the sequence contains `node`.
    pub fn contains_node(&self, node: NodeId) -> bool {
        match &self.repr {
            Repr::Items(items) => items.iter().any(|i| i.as_node() == Some(node)),
            Repr::Nodes(ns) => ns.ids.contains(&node),
        }
    }

    /// The first item, if any.
    pub fn first(&self) -> Option<&Item> {
        self.items().first()
    }

    /// Set-equality `=ₛ` from the paper: equal as *sets* of items,
    /// disregarding duplicates and order.  For node sequences this is the
    /// `fs:ddo(X1) = fs:ddo(X2)` test of Section 2 — compared as identity
    /// bitsets ([`NodeSet`]), which needs neither sorting nor the store;
    /// atomic items are compared by value equality.
    pub fn set_equal(&self, other: &Sequence) -> bool {
        if self.node_set() != other.node_set() {
            return false;
        }
        if let (Repr::Nodes(_), Repr::Nodes(_)) = (&self.repr, &other.repr) {
            // Pure node sequences: the bitset comparison was the whole test.
            return true;
        }
        // Atomic portions compared as multiset-free value sets.
        let a_atoms: Vec<&AtomicValue> = self.iter().filter_map(Item::as_atomic).collect();
        let b_atoms: Vec<&AtomicValue> = other.iter().filter_map(Item::as_atomic).collect();
        a_atoms.iter().all(|x| b_atoms.iter().any(|y| x == y))
            && b_atoms.iter().all(|y| a_atoms.iter().any(|x| x == y))
    }

    /// Serialize the sequence the way a query result is usually displayed:
    /// nodes as XML, atomics as their string values, separated by spaces.
    pub fn display(&self, store: &NodeStore) -> String {
        let parts: Vec<String> = self
            .iter()
            .map(|item| match item {
                Item::Node(n) => crate::serialize::serialize_node(store, *n),
                Item::Atomic(a) => a.string_value(),
            })
            .collect();
        parts.join(" ")
    }
}

impl PartialEq for Sequence {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Nodes(a), Repr::Nodes(b)) => a.ids == b.ids,
            _ => self.items() == other.items(),
        }
    }
}

impl From<Vec<Item>> for Sequence {
    fn from(items: Vec<Item>) -> Self {
        Sequence::from_items(items)
    }
}

impl FromIterator<Item> for Sequence {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        Sequence::from_items(iter.into_iter().collect())
    }
}

impl IntoIterator for Sequence {
    type Item = Item;
    type IntoIter = std::vec::IntoIter<Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_items().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::QName;

    #[test]
    fn construction_and_concat() {
        let a = Sequence::from_items(vec![Item::integer(1), Item::string("a")]);
        let b = Sequence::singleton(Item::boolean(true));
        let c = a.concat(b);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(Sequence::empty().is_empty());
    }

    #[test]
    fn set_equality_ignores_order_and_duplicates() {
        // Mirrors the paper's example: (1,"a") =ₛ ("a",1,1).
        let a = Sequence::from_items(vec![Item::integer(1), Item::string("a")]);
        let b = Sequence::from_items(vec![Item::string("a"), Item::integer(1), Item::integer(1)]);
        assert!(a.set_equal(&b));
        let c = Sequence::from_items(vec![Item::string("a")]);
        assert!(!a.set_equal(&c));
    }

    #[test]
    fn set_equality_on_nodes_uses_identity() {
        let mut store = NodeStore::new();
        let doc = store.parse_document("<r><a/><b/></r>").unwrap();
        let root = store.document_element(doc).unwrap();
        let kids = store.children(root);
        let ab = Sequence::from_nodes(kids.clone());
        let ba = Sequence::from_nodes(vec![kids[1], kids[0], kids[0]]);
        assert!(ab.set_equal(&ba));

        let frag = store.new_fragment();
        let other = store.create_element(frag, QName::local("a"));
        let with_other = Sequence::from_nodes(vec![kids[0], other]);
        assert!(!ab.set_equal(&with_other));
    }

    #[test]
    fn nodes_and_contains() {
        let mut store = NodeStore::new();
        let doc = store.parse_document("<r><a/></r>").unwrap();
        let root = store.document_element(doc).unwrap();
        let a = store.children(root)[0];
        let seq = Sequence::from_items(vec![Item::Node(a), Item::integer(1)]);
        assert_eq!(seq.nodes(), vec![a]);
        assert!(!seq.all_nodes());
        assert!(seq.contains_node(a));
        assert!(!seq.contains_node(root));
    }

    #[test]
    fn node_backed_representation_is_observationally_identical() {
        let mut store = NodeStore::new();
        let doc = store.parse_document("<r><a/><b/><c/></r>").unwrap();
        let root = store.document_element(doc).unwrap();
        let kids = store.children(root);

        // Same content, two representations: from_nodes vs item-by-item.
        let fast = Sequence::from_nodes(kids.clone());
        let general = Sequence::from_items(kids.iter().map(|&n| Item::Node(n)).collect());
        assert_eq!(fast, general);
        assert_eq!(fast.items(), general.items());
        assert_eq!(fast.nodes(), general.nodes());
        assert!(fast.all_nodes() && general.all_nodes());
        assert_eq!(fast.first(), general.first());
        assert_eq!(fast.first_node(), Some(kids[0]));

        // The fast path exposes the id slice; the general form does not.
        assert_eq!(fast.node_ids(), Some(kids.as_slice()));
        assert!(general.node_ids().is_none());

        // Clones share the id buffer (no per-item work).
        let clone = fast.clone();
        assert_eq!(clone.node_ids(), fast.node_ids());
    }

    #[test]
    fn node_sequence_degrades_on_atomic_push() {
        let mut store = NodeStore::new();
        let doc = store.parse_document("<r><a/></r>").unwrap();
        let root = store.document_element(doc).unwrap();
        let a = store.children(root)[0];

        let mut seq = Sequence::from_nodes(vec![a]);
        assert!(seq.node_ids().is_some());
        seq.push(Item::integer(7));
        assert!(seq.node_ids().is_none());
        assert!(!seq.all_nodes());
        assert_eq!(seq.len(), 2);
        assert_eq!(seq.nodes(), vec![a]);

        // Node pushes onto an empty sequence establish the fast path.
        let mut out = Sequence::empty();
        out.push(Item::Node(a));
        out.push(Item::Node(root));
        assert_eq!(out.node_ids(), Some([a, root].as_slice()));
    }

    #[test]
    fn extend_keeps_node_representation_and_adopts_on_empty() {
        let mut store = NodeStore::new();
        let doc = store.parse_document("<r><a/><b/></r>").unwrap();
        let root = store.document_element(doc).unwrap();
        let kids = store.children(root);

        let mut out = Sequence::empty();
        out.extend(Sequence::from_nodes(vec![kids[0]]));
        assert!(
            out.node_ids().is_some(),
            "empty extend adopts the fast path"
        );
        out.extend(Sequence::from_nodes(vec![kids[1]]));
        assert_eq!(out.node_ids(), Some(kids.as_slice()));

        out.extend(Sequence::singleton(Item::integer(1)));
        assert!(out.node_ids().is_none());
        assert_eq!(out.len(), 3);
    }
}
