//! Node-set operations: `fs:ddo`, `union`, `except`, `intersect`,
//! set-equality and subset tests.
//!
//! These are the primitives the inflationary fixed point semantics of the
//! paper is written in (Definition 2.1 uses `union` and set-equality, the
//! Delta algorithm of Figure 3(b) additionally needs `except`).
//!
//! Large operands run on the bitset-backed [`NodeSet`] kernel: building the
//! sets is O(n) bit inserts, the set algebra itself is word-parallel, and
//! materializing back to a document-ordered `Vec<NodeId>` is a linear
//! bitmap scan on parsed documents (see [`NodeSet::to_vec`]).  The bitmap
//! for a document is sized by the highest arena index present, so for
//! *small* operands inside a large document the dense path would allocate
//! and scan far more than the operands warrant — those calls take a sparse
//! path instead (sort / nested scans over at most [`SPARSE_LIMIT`] ids).
//!
//! The fixpoint driver ([`crate::fixpoint`]) bypasses the slice round-trip
//! entirely: a per-seed run keeps each accumulator as a `NodeSet`, and a
//! shared-frontier batch as a bitmap over the run's own node ids.  The
//! slice API here serves the general evaluator (`union` / `intersect` /
//! `except` expressions, `fs:ddo`).
//!
//! The pre-`NodeSet` implementations (sort-based `ddo`, `HashSet` filters)
//! live on in the test module `baseline`, as the reference the unit tests
//! hold the kernels against.

use crate::node::NodeId;
use crate::nodeset::NodeSet;
use crate::store::NodeStore;

/// Operand-size threshold below which the slice operations use sparse
/// sort/scan algorithms instead of the dense bitmaps (whose cost scales
/// with the highest arena index present, not with the operand size).
pub const SPARSE_LIMIT: usize = 64;

/// `fs:distinct-doc-order` — sort into document order, drop duplicates.
pub fn ddo(store: &NodeStore, nodes: &[NodeId]) -> Vec<NodeId> {
    if nodes.len() <= SPARSE_LIMIT {
        return ddo_vec(store, nodes.to_vec());
    }
    NodeSet::from_nodes(nodes.iter().copied()).to_vec(store)
}

/// [`ddo`] of a buffer the caller owns: small inputs — zero, one, or the
/// few nodes a path step yields per frontier — are ordered in place.
pub fn ddo_vec(store: &NodeStore, mut nodes: Vec<NodeId>) -> Vec<NodeId> {
    if nodes.len() <= SPARSE_LIMIT {
        store.sort_distinct(&mut nodes);
        return nodes;
    }
    NodeSet::from_nodes(nodes).to_vec(store)
}

/// Node-set union (`union` / `|`): all nodes of either operand, in document
/// order, without duplicates.
pub fn node_union(store: &NodeStore, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    if a.len() + b.len() <= SPARSE_LIMIT {
        let mut out: Vec<NodeId> = Vec::with_capacity(a.len() + b.len());
        out.extend_from_slice(a);
        out.extend_from_slice(b);
        store.sort_distinct(&mut out);
        return out;
    }
    let mut set = NodeSet::from_nodes(a.iter().copied());
    set.extend(b.iter().copied());
    set.to_vec(store)
}

/// Node-set difference (`except`): nodes of `a` not in `b`, in document order.
pub fn node_except(store: &NodeStore, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    if a.len() + b.len() <= SPARSE_LIMIT {
        let filtered: Vec<NodeId> = a.iter().copied().filter(|n| !b.contains(n)).collect();
        return ddo(store, &filtered);
    }
    let mut set = NodeSet::from_nodes(a.iter().copied());
    set.except_in_place(&NodeSet::from_nodes(b.iter().copied()));
    set.to_vec(store)
}

/// Node-set intersection (`intersect`): nodes in both operands, in document
/// order.
pub fn intersect(store: &NodeStore, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    if a.len() + b.len() <= SPARSE_LIMIT {
        let filtered: Vec<NodeId> = a.iter().copied().filter(|n| b.contains(n)).collect();
        return ddo(store, &filtered);
    }
    let mut set = NodeSet::from_nodes(a.iter().copied());
    set.intersect_in_place(&NodeSet::from_nodes(b.iter().copied()));
    set.to_vec(store)
}

/// Set-equality of two node sequences: equal as sets of node identities
/// (the paper's `fs:ddo(X1) = fs:ddo(X2)` — but identity sets need no
/// document order, so no store access and no sorting is required).
pub fn set_equal(a: &[NodeId], b: &[NodeId]) -> bool {
    if a.len() + b.len() <= SPARSE_LIMIT {
        // Mutual subset inclusion is set equality, duplicates and all.
        return a.iter().all(|n| b.contains(n)) && b.iter().all(|n| a.contains(n));
    }
    NodeSet::from_nodes(a.iter().copied()) == NodeSet::from_nodes(b.iter().copied())
}

/// `true` when every node of `a` also occurs in `b`.
pub fn is_subset(a: &[NodeId], b: &[NodeId]) -> bool {
    if a.len() + b.len() <= SPARSE_LIMIT {
        return a.iter().all(|n| b.contains(n));
    }
    let bset = NodeSet::from_nodes(b.iter().copied());
    a.iter().all(|&n| bset.contains(n))
}

#[cfg(test)]
mod baseline {
    //! The pre-`NodeSet` implementations, kept verbatim as the reference
    //! the tests below compare the kernels with.

    use std::collections::HashSet;

    use crate::node::NodeId;
    use crate::store::NodeStore;

    /// Sort-based `fs:distinct-doc-order`.
    pub fn ddo(store: &NodeStore, nodes: &[NodeId]) -> Vec<NodeId> {
        let mut out = nodes.to_vec();
        store.sort_distinct(&mut out);
        out
    }

    /// Concatenate-then-re-sort union.
    pub fn node_union(store: &NodeStore, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::with_capacity(a.len() + b.len());
        out.extend_from_slice(a);
        out.extend_from_slice(b);
        store.sort_distinct(&mut out);
        out
    }

    /// `HashSet`-filter difference with a `ddo` re-sort.
    pub fn node_except(store: &NodeStore, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        let bset: HashSet<NodeId> = b.iter().copied().collect();
        let filtered: Vec<NodeId> = a.iter().copied().filter(|n| !bset.contains(n)).collect();
        ddo(store, &filtered)
    }

    /// Double-`ddo` set-equality.
    pub fn set_equal(store: &NodeStore, a: &[NodeId], b: &[NodeId]) -> bool {
        ddo(store, a) == ddo(store, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Axis, NodeTest, QName};

    fn fixture(store: &mut NodeStore) -> Vec<NodeId> {
        let doc = store.parse_document("<r><a/><b/><c/><d/></r>").unwrap();
        let root = store.document_element(doc).unwrap();
        store.axis_nodes(root, Axis::Child, &NodeTest::AnyElement)
    }

    #[test]
    fn union_orders_and_dedups() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let left = vec![kids[2], kids[0]];
        let right = vec![kids[1], kids[0]];
        assert_eq!(
            node_union(&store, &left, &right),
            vec![kids[0], kids[1], kids[2]]
        );
    }

    #[test]
    fn union_with_duplicate_heavy_inputs_is_stable() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let left = vec![kids[3], kids[3], kids[1], kids[3], kids[1]];
        let right = vec![kids[1], kids[1], kids[1]];
        assert_eq!(node_union(&store, &left, &right), vec![kids[1], kids[3]]);
    }

    #[test]
    fn union_and_except_with_empty_operands() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let some = vec![kids[2], kids[0]];
        assert_eq!(node_union(&store, &some, &[]), vec![kids[0], kids[2]]);
        assert_eq!(node_union(&store, &[], &some), vec![kids[0], kids[2]]);
        assert!(node_union(&store, &[], &[]).is_empty());
        assert_eq!(node_except(&store, &some, &[]), vec![kids[0], kids[2]]);
        assert!(node_except(&store, &[], &some).is_empty());
        assert!(intersect(&store, &some, &[]).is_empty());
        assert!(set_equal(&[], &[]));
        assert!(!set_equal(&some, &[]));
    }

    #[test]
    fn except_removes_and_orders() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let all = kids.clone();
        let some = vec![kids[1], kids[3]];
        assert_eq!(node_except(&store, &all, &some), vec![kids[0], kids[2]]);
        assert!(node_except(&store, &some, &all).is_empty());
    }

    #[test]
    fn intersect_keeps_common_nodes() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let left = vec![kids[3], kids[0], kids[1]];
        let right = vec![kids[1], kids[3]];
        assert_eq!(intersect(&store, &left, &right), vec![kids[1], kids[3]]);
    }

    #[test]
    fn set_equality_and_subset() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let a = vec![kids[0], kids[1], kids[1]];
        let b = vec![kids[1], kids[0]];
        assert!(set_equal(&a, &b));
        assert!(!set_equal(&a, &kids));
        assert!(is_subset(&b, &kids));
        assert!(!is_subset(&kids, &b));
        assert!(is_subset(&[], &b));
    }

    #[test]
    fn ddo_is_idempotent() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let mixed = vec![kids[3], kids[1], kids[3], kids[0]];
        let once = ddo(&store, &mixed);
        let twice = ddo(&store, &once);
        assert_eq!(once, twice);
        assert_eq!(once, vec![kids[0], kids[1], kids[3]]);
    }

    #[test]
    fn cross_document_operands_order_by_document_creation() {
        let mut store = NodeStore::new();
        let k1 = fixture(&mut store);
        let k2 = fixture(&mut store);
        let mixed = vec![k2[1], k1[2], k2[0], k1[0]];
        assert_eq!(ddo(&store, &mixed), vec![k1[0], k1[2], k2[0], k2[1]]);
        assert_eq!(node_union(&store, &[k2[0]], &[k1[3]]), vec![k1[3], k2[0]]);
        assert_eq!(node_except(&store, &mixed, &k2), vec![k1[0], k1[2]]);
        assert!(!set_equal(&[k1[0]], &[k2[0]]));
    }

    #[test]
    fn document_order_stability_after_union_and_except_chains() {
        // Repeatedly applying union/except must keep results in document
        // order — the invariant the Delta loop's materializations rely on.
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let mut acc: Vec<NodeId> = Vec::new();
        for &k in kids.iter().rev() {
            acc = node_union(&store, &acc, &[k, k]);
            let ordered = ddo(&store, &acc);
            assert_eq!(acc, ordered, "union result left document order");
        }
        let removed = node_except(&store, &acc, &[kids[1]]);
        assert_eq!(removed, vec![kids[0], kids[2], kids[3]]);
        let ordered = ddo(&store, &removed);
        assert_eq!(removed, ordered, "except result left document order");
    }

    #[test]
    fn operations_on_constructed_fragments_still_order_correctly() {
        // Fragment built child-first: arena order != document order; the
        // slice API must still return document order.
        let mut store = NodeStore::new();
        let frag = store.new_fragment();
        let child = store.create_element(frag, QName::local("child"));
        let parent = store.create_element(frag, QName::local("parent"));
        store.append_child(parent, child).unwrap();
        assert_eq!(node_union(&store, &[child], &[parent]), vec![parent, child]);
        assert_eq!(ddo(&store, &[child, parent]), vec![parent, child]);
    }

    #[test]
    fn sparse_and_dense_paths_agree_across_the_threshold() {
        // Operand sizes straddling SPARSE_LIMIT must produce identical
        // results from the sparse and dense implementations.
        let mut store = NodeStore::new();
        let mut xml = String::from("<r>");
        for _ in 0..300 {
            xml.push_str("<c/>");
        }
        xml.push_str("</r>");
        let doc = store.parse_document(&xml).unwrap();
        let root = store.document_element(doc).unwrap();
        let all = store.children(root);
        for size in [2, SPARSE_LIMIT / 2, SPARSE_LIMIT, SPARSE_LIMIT + 1, 200] {
            // Overlapping picks, reversed so ordering work is exercised.
            let a: Vec<NodeId> = all.iter().rev().step_by(2).take(size).copied().collect();
            let b: Vec<NodeId> = all.iter().skip(size / 2).take(size).copied().collect();
            assert_eq!(
                node_union(&store, &a, &b),
                baseline::node_union(&store, &a, &b),
                "union at size {size}"
            );
            assert_eq!(
                node_except(&store, &a, &b),
                baseline::node_except(&store, &a, &b),
                "except at size {size}"
            );
            assert_eq!(
                set_equal(&a, &b),
                baseline::set_equal(&store, &a, &b),
                "set_equal at size {size}"
            );
            assert_eq!(ddo(&store, &a), baseline::ddo(&store, &a));
        }
        // The motivating case: tiny operands at the far end of a large
        // document stay on the sparse path and in document order.
        let (x, y) = (all[298], all[299]);
        assert_eq!(node_union(&store, &[y], &[x]), vec![x, y]);
    }

    #[test]
    fn baseline_and_nodeset_implementations_agree() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let a = vec![kids[3], kids[0], kids[3], kids[2]];
        let b = vec![kids[2], kids[1]];
        assert_eq!(
            node_union(&store, &a, &b),
            baseline::node_union(&store, &a, &b)
        );
        assert_eq!(
            node_except(&store, &a, &b),
            baseline::node_except(&store, &a, &b)
        );
        assert_eq!(ddo(&store, &a), baseline::ddo(&store, &a));
        assert_eq!(set_equal(&a, &b), baseline::set_equal(&store, &a, &b));
        assert_eq!(
            set_equal(&a, &[kids[0], kids[2], kids[3]]),
            baseline::set_equal(&store, &a, &[kids[0], kids[2], kids[3]])
        );
    }
}
