//! An order-indexed, bitset-backed node-set kernel.
//!
//! [`NodeSet`] is the data structure behind the node-set operations that
//! dominate the cost of the paper's Delta algorithm (Figure 3(b)): each
//! iteration computes `e_rec(∆) except res` and `∆ union res`, and the
//! termination test is a set-equality check.  Representing node sets as
//! per-document `u64` bitmaps over arena indices makes
//!
//! * `union` / `except` / `intersect` word-parallel (64 nodes per
//!   instruction),
//! * set-equality a word-for-word comparison (no sorting, no hashing),
//! * membership an O(1) bit probe,
//!
//! and — because arena indices within a parsed document coincide with
//! pre-order document positions, and documents are ordered by creation —
//! iteration yields document order *for free* on parsed documents.  For
//! constructed fragments whose arena order diverged from document order
//! (out-of-order `append_child`), [`NodeSet::to_vec`] falls back to a
//! rank-based sort for just those documents; the bit-level set algebra is
//! order-independent and never needs ranks.
//!
//! Invariants maintained by every operation (and relied on by `PartialEq`):
//! the per-document bitmaps contain no trailing zero words, and no document
//! entry is empty.  Two `NodeSet`s are therefore equal as Rust values
//! exactly when they denote the same set of node identities.

use std::collections::BTreeMap;

use crate::node::NodeId;
use crate::store::{DocId, NodeStore};

const WORD_BITS: usize = 64;

/// A set of node identities, stored as per-document `u64` bitmaps.
///
/// Documents are keyed in creation order (which is their document-order
/// rank across documents); bits within a document are keyed by arena index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    docs: BTreeMap<u32, Vec<u64>>,
    len: usize,
}

impl NodeSet {
    /// The empty set.
    pub fn new() -> Self {
        NodeSet::default()
    }

    /// Build a set from node ids (duplicates collapse).
    pub fn from_nodes(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut set = NodeSet::new();
        for node in nodes {
            set.insert(node);
        }
        set
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no node is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when `node` is in the set.
    pub fn contains(&self, node: NodeId) -> bool {
        let idx = node.node as usize;
        self.docs
            .get(&node.doc)
            .and_then(|words| words.get(idx / WORD_BITS))
            .is_some_and(|&word| word & (1u64 << (idx % WORD_BITS)) != 0)
    }

    /// Add `node`; returns `true` if it was not already present.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let idx = node.node as usize;
        let words = self.docs.entry(node.doc).or_default();
        let word_idx = idx / WORD_BITS;
        if words.len() <= word_idx {
            words.resize(word_idx + 1, 0);
        }
        let mask = 1u64 << (idx % WORD_BITS);
        let fresh = words[word_idx] & mask == 0;
        if fresh {
            words[word_idx] |= mask;
            self.len += 1;
        }
        fresh
    }

    /// Remove `node`; returns `true` if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let idx = node.node as usize;
        let Some(words) = self.docs.get_mut(&node.doc) else {
            return false;
        };
        let word_idx = idx / WORD_BITS;
        let mask = 1u64 << (idx % WORD_BITS);
        let Some(word) = words.get_mut(word_idx) else {
            return false;
        };
        if *word & mask == 0 {
            return false;
        }
        *word &= !mask;
        self.len -= 1;
        Self::trim(words);
        if words.is_empty() {
            self.docs.remove(&node.doc);
        }
        true
    }

    /// Add every node of `other` (word-parallel `self ∪= other`).
    pub fn union_in_place(&mut self, other: &NodeSet) {
        for (&doc, other_words) in &other.docs {
            let words = self.docs.entry(doc).or_default();
            if words.len() < other_words.len() {
                words.resize(other_words.len(), 0);
            }
            for (word, &incoming) in words.iter_mut().zip(other_words) {
                let added = incoming & !*word;
                *word |= incoming;
                self.len += added.count_ones() as usize;
            }
        }
    }

    /// Remove every node of `other` (word-parallel `self ∖= other`).
    pub fn except_in_place(&mut self, other: &NodeSet) {
        let mut emptied = Vec::new();
        for (&doc, words) in self.docs.iter_mut() {
            let Some(other_words) = other.docs.get(&doc) else {
                continue;
            };
            for (word, &mask) in words.iter_mut().zip(other_words) {
                let removed = *word & mask;
                *word &= !mask;
                self.len -= removed.count_ones() as usize;
            }
            Self::trim(words);
            if words.is_empty() {
                emptied.push(doc);
            }
        }
        for doc in emptied {
            self.docs.remove(&doc);
        }
    }

    /// Keep only nodes present in `other` (word-parallel `self ∩= other`).
    pub fn intersect_in_place(&mut self, other: &NodeSet) {
        let mut emptied = Vec::new();
        for (&doc, words) in self.docs.iter_mut() {
            match other.docs.get(&doc) {
                None => {
                    for word in words.iter_mut() {
                        self.len -= word.count_ones() as usize;
                        *word = 0;
                    }
                }
                Some(other_words) => {
                    for (i, word) in words.iter_mut().enumerate() {
                        let mask = other_words.get(i).copied().unwrap_or(0);
                        let removed = *word & !mask;
                        *word &= mask;
                        self.len -= removed.count_ones() as usize;
                    }
                }
            }
            Self::trim(words);
            if words.is_empty() {
                emptied.push(doc);
            }
        }
        for doc in emptied {
            self.docs.remove(&doc);
        }
    }

    /// `self ∪ other` as a new set.
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        let (mut big, small) = if self.len >= other.len {
            (self.clone(), other)
        } else {
            (other.clone(), self)
        };
        big.union_in_place(small);
        big
    }

    /// `self ∖ other` as a new set.
    pub fn except(&self, other: &NodeSet) -> NodeSet {
        let mut out = self.clone();
        out.except_in_place(other);
        out
    }

    /// `self ∩ other` as a new set.
    pub fn intersect(&self, other: &NodeSet) -> NodeSet {
        let mut out = self.clone();
        out.intersect_in_place(other);
        out
    }

    /// `true` when every node of `self` is in `other`.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        if self.len > other.len {
            return false;
        }
        self.docs.iter().all(|(doc, words)| {
            let Some(other_words) = other.docs.get(doc) else {
                return words.iter().all(|&w| w == 0);
            };
            words
                .iter()
                .enumerate()
                .all(|(i, &word)| word & !other_words.get(i).copied().unwrap_or(0) == 0)
        })
    }

    /// `true` when the sets share no node.
    pub fn is_disjoint(&self, other: &NodeSet) -> bool {
        self.docs.iter().all(|(doc, words)| {
            let Some(other_words) = other.docs.get(doc) else {
                return true;
            };
            words.iter().zip(other_words).all(|(&a, &b)| a & b == 0)
        })
    }

    /// Iterate node ids in (document, arena-index) order.
    ///
    /// For parsed documents this **is** document order; constructed
    /// fragments may need [`NodeSet::to_vec`] instead.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.docs.iter().flat_map(|(&doc, words)| {
            words.iter().enumerate().flat_map(move |(word_idx, &word)| {
                BitIter(word).map(move |bit| NodeId::new(doc, (word_idx * WORD_BITS + bit) as u32))
            })
        })
    }

    /// Materialize the set as a `Vec<NodeId>` in document order.
    ///
    /// Documents whose arena order coincides with document order (all
    /// parsed documents, and constructed fragments built in pre-order) are
    /// emitted straight from the bitmap; only documents whose order
    /// diverged pay for a rank sort.
    ///
    /// Materialization is a pure read: it works through `&NodeStore`, so
    /// set results can be rendered from shared references.
    pub fn to_vec(&self, store: &NodeStore) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len);
        for (&doc, words) in &self.docs {
            let start = out.len();
            for (word_idx, &word) in words.iter().enumerate() {
                for bit in BitIter(word) {
                    out.push(NodeId::new(doc, (word_idx * WORD_BITS + bit) as u32));
                }
            }
            if !store.index_order_is_document_order(DocId(doc)) {
                let mut tail: Vec<NodeId> = out.split_off(start);
                store.sort_distinct(&mut tail);
                out.extend(tail);
            }
        }
        out
    }

    fn trim(words: &mut Vec<u64>) {
        while words.last() == Some(&0) {
            words.pop();
        }
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<T: IntoIterator<Item = NodeId>>(&mut self, iter: T) {
        for node in iter {
            self.insert(node);
        }
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        NodeSet::from_nodes(iter)
    }
}

impl<'a> FromIterator<&'a NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = &'a NodeId>>(iter: T) -> Self {
        NodeSet::from_nodes(iter.into_iter().copied())
    }
}

/// Iterator over the set bit positions of one word.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Axis, NodeTest, QName};

    fn fixture(store: &mut NodeStore) -> Vec<NodeId> {
        let doc = store
            .parse_document("<r><a/><b/><c/><d/><e/><f/></r>")
            .unwrap();
        let root = store.document_element(doc).unwrap();
        store.axis_nodes(root, Axis::Child, &NodeTest::AnyElement)
    }

    #[test]
    fn insert_contains_remove_and_len() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let mut set = NodeSet::new();
        assert!(set.is_empty());
        assert!(set.insert(kids[0]));
        assert!(!set.insert(kids[0]), "duplicate insert reports absent");
        assert!(set.insert(kids[3]));
        assert_eq!(set.len(), 2);
        assert!(set.contains(kids[0]));
        assert!(!set.contains(kids[1]));
        assert!(set.remove(kids[0]));
        assert!(!set.remove(kids[0]));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn equality_is_set_equality_regardless_of_build_order() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let a = NodeSet::from_nodes([kids[2], kids[0], kids[2], kids[4]]);
        let b = NodeSet::from_nodes([kids[4], kids[2], kids[0]]);
        assert_eq!(a, b);
        let c = NodeSet::from_nodes([kids[4], kids[2]]);
        assert_ne!(a, c);
    }

    #[test]
    fn equality_after_removal_normalizes_trailing_words() {
        // A node with arena index >= 64 forces a second bitmap word; removing
        // it must trim the word so equality with a one-word set holds.
        let mut store = NodeStore::new();
        let mut xml = String::from("<r>");
        for _ in 0..70 {
            xml.push_str("<c/>");
        }
        xml.push_str("</r>");
        let doc = store.parse_document(&xml).unwrap();
        let root = store.document_element(doc).unwrap();
        let kids = store.axis_nodes(root, Axis::Child, &NodeTest::AnyElement);
        let far = kids[69]; // arena index > 64
        let mut a = NodeSet::from_nodes([kids[0], far]);
        a.remove(far);
        assert_eq!(a, NodeSet::from_nodes([kids[0]]));
        let mut b = NodeSet::from_nodes([kids[0], far]);
        b.except_in_place(&NodeSet::from_nodes([far]));
        assert_eq!(b, NodeSet::from_nodes([kids[0]]));
    }

    #[test]
    fn word_parallel_algebra() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let a = NodeSet::from_nodes([kids[0], kids[1], kids[2]]);
        let b = NodeSet::from_nodes([kids[2], kids[3]]);
        assert_eq!(
            a.union(&b),
            NodeSet::from_nodes([kids[0], kids[1], kids[2], kids[3]])
        );
        assert_eq!(a.except(&b), NodeSet::from_nodes([kids[0], kids[1]]));
        assert_eq!(a.intersect(&b), NodeSet::from_nodes([kids[2]]));
        assert!(NodeSet::from_nodes([kids[0]]).is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.except(&b).is_disjoint(&b));
        assert_eq!(a.union(&b).len(), 4);
    }

    #[test]
    fn cross_document_sets() {
        let mut store = NodeStore::new();
        let k1 = fixture(&mut store);
        let k2 = fixture(&mut store);
        assert_ne!(k1[0].doc, k2[0].doc);
        let mut set = NodeSet::from_nodes([k2[1], k1[0]]);
        set.insert(k1[3]);
        assert_eq!(set.len(), 3);
        // Iteration is ordered by (doc, index): all of doc 1 before doc 2.
        let ids: Vec<NodeId> = set.iter().collect();
        assert_eq!(ids, vec![k1[0], k1[3], k2[1]]);
        // Except only touches the matching document.
        set.except_in_place(&NodeSet::from_nodes([k2[1], k2[3]]));
        assert_eq!(set, NodeSet::from_nodes([k1[0], k1[3]]));
    }

    #[test]
    fn to_vec_yields_document_order_on_parsed_documents() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let set = NodeSet::from_nodes([kids[5], kids[1], kids[3], kids[1]]);
        assert_eq!(set.to_vec(&store), vec![kids[1], kids[3], kids[5]]);
    }

    #[test]
    fn to_vec_sorts_constructed_fragments_built_out_of_order() {
        // Build a fragment whose arena order differs from document order:
        // create child before parent, then attach.
        let mut store = NodeStore::new();
        let frag = store.new_fragment();
        let child = store.create_element(frag, QName::local("child"));
        let parent = store.create_element(frag, QName::local("parent"));
        store.append_child(parent, child).unwrap();
        // Arena order: child(0), parent(1); document order: parent, child.
        let set = NodeSet::from_nodes([child, parent]);
        assert_eq!(set.to_vec(&store), vec![parent, child]);
        // Bit iteration remains arena-ordered; only to_vec re-sorts.
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![child, parent]);
    }

    #[test]
    fn empty_operand_edge_cases() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let empty = NodeSet::new();
        let a = NodeSet::from_nodes([kids[0]]);
        assert_eq!(a.union(&empty), a);
        assert_eq!(empty.union(&a), a);
        assert_eq!(a.except(&empty), a);
        assert_eq!(empty.except(&a), empty);
        assert_eq!(a.intersect(&empty), empty);
        assert!(empty.is_subset(&a));
        assert!(empty.is_subset(&empty));
        assert!(empty.to_vec(&store).is_empty());
        assert_eq!(empty, NodeSet::new());
    }
}
