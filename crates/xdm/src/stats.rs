//! Store statistics for cost-based plan selection.
//!
//! Every document is summarized once — with the rest of its derived state,
//! shared by every store holding it — into a [`DocumentStatistics`]: node
//! counts per kind, child-axis fanout, tree depth, `id()` index size.
//! [`crate::NodeStore::statistics`] adds those up, with the text-pool size,
//! into a [`StoreStatistics`].  The cost model in `xqy_core::cost` feeds
//! these numbers into its per-alternative formulas, and the service layer
//! folds [`StoreStatistics::fingerprint`] into plan-cache keys so a
//! republish with materially different data re-costs instead of reusing a
//! stale decision.

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

impl StoreStatistics {
    /// Mean child-axis fanout over nodes that have children at all
    /// (1.0 for an empty or childless store, so depth estimates stay
    /// finite).
    pub fn avg_fanout(&self) -> f64 {
        if self.totals.parents == 0 {
            1.0
        } else {
            self.totals.child_links as f64 / self.totals.parents as f64
        }
    }

    /// A bucketed digest of the statistics: stable across immaterial
    /// mutations (a handful of constructed nodes), different whenever the
    /// data changed *materially* — any power-of-two bucket of the node /
    /// element / id-entry counts moving, the depth or fanout profile
    /// shifting, or the document count changing.  The service layer stamps
    /// this into plan-cache keys.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the log2 buckets; no dependency on the hash RandomState
        // so the value is stable across processes and can be persisted.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            h ^= v.wrapping_add(1);
            h = h.wrapping_mul(PRIME);
        };
        mix(self.documents);
        mix(log2_bucket(self.totals.nodes));
        mix(log2_bucket(self.totals.elements));
        mix(log2_bucket(self.totals.id_entries));
        mix(log2_bucket(self.totals.max_depth));
        mix(log2_bucket(self.totals.max_fanout));
        mix(log2_bucket(self.avg_fanout().round() as u64));
        mix(log2_bucket(self.text_pool_strings));
        h
    }
}

/// `floor(log2(v)) + 1`, with 0 reserved for `v == 0`: the bucket moves only
/// when a quantity roughly doubles or halves.
fn log2_bucket(v: u64) -> u64 {
    if v == 0 {
        0
    } else {
        64 - u64::from(v.leading_zeros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_move_on_doubling() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1023), 10);
        assert_eq!(log2_bucket(1024), 11);
    }

    #[test]
    fn fingerprint_ignores_immaterial_growth() {
        let mut a = StoreStatistics {
            documents: 1,
            totals: DocumentStatistics {
                nodes: 1000,
                elements: 600,
                parents: 300,
                child_links: 900,
                max_fanout: 10,
                max_depth: 6,
                id_entries: 100,
                ..Default::default()
            },
            text_pool_strings: 400,
            ..Default::default()
        };
        let fp = a.fingerprint();
        // A few more nodes in the same buckets: same fingerprint.
        a.totals.nodes = 1010;
        a.revision = 99;
        assert_eq!(a.fingerprint(), fp);
        // Doubling the node count moves a bucket: new fingerprint.
        a.totals.nodes = 2100;
        assert_ne!(a.fingerprint(), fp);
    }
}
