//! Store statistics.
//!
//! Every document is summarized once — with the rest of its derived state,
//! shared by every store holding it — into a [`DocumentStatistics`]: node
//! counts per kind, child-axis fanout, tree depth, `id()` index size.
//! [`crate::NodeStore::statistics`] adds those up, with the text-pool size,
//! into a [`StoreStatistics`].  No plan decision reads them: they describe
//! a store to its callers (sizes, budgets, the perf ledger).

/// Shape summary of a single document (or constructed fragment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DocumentStatistics {
    /// Total nodes in the document arena (all kinds, attributes included).
    pub nodes: u64,
    /// Element nodes.
    pub elements: u64,
    /// Attribute nodes.
    pub attributes: u64,
    /// Text nodes.
    pub text_nodes: u64,
    /// Nodes with at least one child.
    pub parents: u64,
    /// Sum of per-node child counts (edges of the child axis).
    pub child_links: u64,
    /// Largest single child list in the document.
    pub max_fanout: u64,
    /// Longest root-to-leaf path, in edges (0 for a lone root).
    pub max_depth: u64,
    /// Entries in the document's `id()` index.
    pub id_entries: u64,
}

impl DocumentStatistics {
    pub(crate) fn absorb(&mut self, other: &DocumentStatistics) {
        self.nodes += other.nodes;
        self.elements += other.elements;
        self.attributes += other.attributes;
        self.text_nodes += other.text_nodes;
        self.parents += other.parents;
        self.child_links += other.child_links;
        self.max_fanout = self.max_fanout.max(other.max_fanout);
        self.max_depth = self.max_depth.max(other.max_depth);
        self.id_entries += other.id_entries;
    }
}

/// Shape summary of a whole [`crate::NodeStore`]: the sum of its documents'
/// summaries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreStatistics {
    /// The [`crate::NodeStore::revision`] these statistics were assembled at.
    pub revision: u64,
    /// Number of documents (parsed or constructed fragments).
    pub documents: u64,
    /// Per-document detail, indexed by `DocId`.
    pub per_document: Vec<DocumentStatistics>,
    /// Aggregate over every document.
    pub totals: DocumentStatistics,
    /// Distinct strings interned in the store's text pool.
    pub text_pool_strings: u64,
}
