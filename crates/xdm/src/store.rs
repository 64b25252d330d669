//! The node store: an arena of documents and their nodes.
//!
//! Every XML tree a query run touches — parsed documents as well as trees
//! created by node constructors — lives inside a single [`NodeStore`].  This
//! gives the engine:
//!
//! * **stable node identity**: a [`NodeId`] never changes or gets reused;
//! * a **total document order** across all documents (documents are ordered
//!   by creation, nodes within a document by pre-order position, with
//!   attribute nodes ordered after their owner element and before its
//!   children, as prescribed by the XDM);
//! * cheap, index-based navigation for all XPath axes.
//!
//! Trees are mutable while they are being built (constructors append children
//! one by one); document-order ranks and the ID index are recomputed lazily
//! whenever a document has been mutated since the last query.
//!
//! # Sharing a store across threads
//!
//! Node data itself (`NodeData`, parent/child links, attribute payloads) is
//! only ever mutated through `&mut NodeStore`, so shared references never
//! race on it.  The *derived* per-document state — document-order ranks and
//! the ID index, which are rebuilt lazily on first access after a mutation —
//! lives behind a per-document `RwLock`: readers of an up-to-date document
//! share the read lock, and the first reader after a mutation rebuilds under
//! the write lock.  Every read-only operation (document order,
//! `sort_distinct`, `fn:id` probes) therefore works through `&NodeStore`,
//! and an `id()` probe is one read guard plus one probe of that index —
//! there is no memo in front of it and no store-wide lock on the way.  The
//! two memos that remain (string-value concatenations, statistics) sit
//! behind a `Mutex` each; the string-value memo is skipped, not queued on,
//! under contention.
//! `NodeStore` is therefore [`Sync`] and a frozen [`StoreSnapshot`] can be
//! handed to a scoped thread pool; see [`NodeStore::pin`] /
//! [`NodeStore::snapshot`] for the freeze protocol.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};

use crate::error::XdmError;
use crate::hash::IdMap;
use crate::intern::{StrId, TextPool};
use crate::node::{Axis, NodeId, NodeKind, NodeTest, QName};
use crate::value::UText;
use crate::Result;

/// Identifier of a document inside a [`NodeStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

/// Per-node data held in the document arena.
#[derive(Debug, Clone)]
struct NodeData {
    kind: NodeKind,
    parent: Option<u32>,
    /// Child nodes (elements, text, comments, PIs) in document order.
    children: Vec<u32>,
    /// Attribute nodes of an element.
    attributes: Vec<u32>,
}

/// Lazily rebuilt per-document state: document-order ranks and the ID
/// index.  Kept behind a `RwLock` so the rebuild can happen through a
/// shared `&NodeStore` reference (readers of an up-to-date document take
/// the read lock only).
#[derive(Debug, Clone)]
struct Derived {
    /// `order[i]` is the document-order rank of node `i`.
    order: Vec<u32>,
    /// Map from ID value (as its text-pool symbol) to the first element
    /// carrying it.  Keying on [`StrId`] makes the rebuild allocation-free
    /// and lets `fn:id` probe with an argument node's payload symbol as is.
    id_index: IdMap<StrId, u32>,
    /// Set when the document has been mutated since the last rebuild.
    dirty: bool,
    /// `true` when arena index order coincides with document order (always
    /// the case for parsed documents; constructed fragments may diverge).
    /// Lets [`crate::NodeSet`] emit document order straight from its bitmaps.
    index_is_order: bool,
    /// Bumped every time a rebuild actually happens.  Caches of
    /// per-document derived state (the string-value memo) compare this to
    /// detect that a rebuild happened — regardless of *which* store
    /// operation triggered it.
    version: u64,
}

impl Derived {
    fn new() -> Self {
        Derived {
            order: Vec::new(),
            id_index: IdMap::default(),
            dirty: true,
            index_is_order: true,
            version: 0,
        }
    }
}

/// Take a lock even if a previous holder panicked: the guarded data is
/// rebuilt-from-scratch derived state (or a memo), so a half-finished
/// update is repaired by the `dirty` / version protocol, not poisoned.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn mutex_lock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// A single document (or constructed tree fragment) in the store.
#[derive(Debug)]
struct Document {
    nodes: Vec<NodeData>,
    /// Attribute names treated as ID-typed (in addition to `xml:id`/`id`).
    id_attr_names: Vec<String>,
    /// Optional URI this document was loaded under (used by `fn:doc`).
    /// Shares one allocation with the store's `by_uri` key.
    uri: Option<Arc<str>>,
    /// Lazily recomputed order ranks / ID index; see [`Derived`].
    derived: RwLock<Derived>,
}

impl Clone for Document {
    fn clone(&self) -> Self {
        Document {
            nodes: self.nodes.clone(),
            id_attr_names: self.id_attr_names.clone(),
            uri: self.uri.clone(),
            derived: RwLock::new(read_lock(&self.derived).clone()),
        }
    }
}

impl Document {
    fn new() -> Self {
        Document {
            nodes: Vec::new(),
            id_attr_names: Vec::new(),
            uri: None,
            derived: RwLock::new(Derived::new()),
        }
    }

    fn push(&mut self, data: NodeData) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(data);
        self.mark_dirty();
        idx
    }

    /// Flag the derived state as stale.  Only callable with exclusive
    /// access, so this never contends with concurrent readers.
    fn mark_dirty(&mut self) {
        self.derived
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .dirty = true;
    }

    /// The up-to-date derived state, rebuilding it first if the document
    /// was mutated since the last rebuild.  Works through `&self`: readers
    /// of a clean document share a read lock; the first reader after a
    /// mutation takes the write lock and rebuilds.  (std's `RwLock` cannot
    /// downgrade a write guard, hence the re-acquire loop; a racing second
    /// rebuild attempt sees `dirty == false` and skips.)
    fn derived(&self) -> RwLockReadGuard<'_, Derived> {
        loop {
            let guard = read_lock(&self.derived);
            if !guard.dirty {
                return guard;
            }
            drop(guard);
            let mut guard = self.derived.write().unwrap_or_else(|e| e.into_inner());
            if guard.dirty {
                rebuild_derived(&self.nodes, &self.id_attr_names, &mut guard);
            }
        }
    }
}

/// Rebuild `derived` from the node arena (order ranks, `index_is_order`,
/// ID index), bumping its version tag.
fn rebuild_derived(nodes: &[NodeData], id_attr_names: &[String], derived: &mut Derived) {
    derived.version += 1;
    derived.order = vec![0; nodes.len()];
    derived.id_index.clear();
    if !nodes.is_empty() {
        let mut rank = 0u32;
        // Every node that has no parent is a root of its own fragment;
        // fragments are ordered by arena index of their roots.
        for root in 0..nodes.len() as u32 {
            if nodes[root as usize].parent.is_none() {
                assign_order(nodes, &mut derived.order, root, &mut rank);
            }
        }
    }
    derived.index_is_order = derived.order.windows(2).all(|w| w[0] < w[1]);
    rebuild_id_index(nodes, id_attr_names, &mut derived.id_index);
    derived.dirty = false;
}

fn assign_order(nodes: &[NodeData], order: &mut [u32], node: u32, rank: &mut u32) {
    order[node as usize] = *rank;
    *rank += 1;
    for &a in &nodes[node as usize].attributes {
        order[a as usize] = *rank;
        *rank += 1;
    }
    for &c in &nodes[node as usize].children {
        assign_order(nodes, order, c, rank);
    }
}

fn rebuild_id_index(
    nodes: &[NodeData],
    id_attr_names: &[String],
    id_index: &mut IdMap<StrId, u32>,
) {
    for (idx, node) in nodes.iter().enumerate() {
        if !node.kind.is_element() {
            continue;
        }
        for &attr in &node.attributes {
            if let NodeKind::Attribute(name, value) = &nodes[attr as usize].kind {
                // `id` matches both the unprefixed and the `xml:id`
                // spelling (prefixes are not significant here).
                let is_id = name.local == "id" || id_attr_names.iter().any(|n| n == &name.local);
                if is_id {
                    id_index.entry(*value).or_insert(idx as u32);
                }
            }
        }
    }
}

/// Memo of element/document `string_value` concatenations, one map per
/// document, each tagged with the `Derived::version` it was built against:
/// entries survive exactly as long as the document's derived state,
/// whichever store operation triggered the rebuild.
#[derive(Debug, Default, Clone)]
struct TextMemoCache {
    per_doc: IdMap<u32, (u64, IdMap<u32, Arc<str>>)>,
}

/// A node's string value without a forced render: borrowed straight from
/// the store's text pool (leaf payloads, single-text-child elements), or a
/// shared handle on a memoized element/document concatenation.
///
/// Derefs to `str`; call [`into_string`](StrView::into_string) when an
/// owned `String` is genuinely required.
#[derive(Debug, Clone)]
pub enum StrView<'s> {
    /// Borrowed from the store (text pool entry, or the static `""`).
    Borrowed(&'s str),
    /// A shared handle on a memoized concatenation.
    Shared(Arc<str>),
}

impl StrView<'_> {
    /// The text as a borrowed slice.
    pub fn as_str(&self) -> &str {
        match self {
            StrView::Borrowed(s) => s,
            StrView::Shared(s) => s,
        }
    }

    /// Render to an owned `String` (the one place a copy happens).
    pub fn into_string(self) -> String {
        match self {
            StrView::Borrowed(s) => s.to_string(),
            StrView::Shared(s) => s.as_ref().to_string(),
        }
    }
}

impl std::ops::Deref for StrView<'_> {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for StrView<'_> {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl std::fmt::Display for StrView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Internal classification of an element/document string value; the public
/// views ([`StrView`], [`UText`]) are cut from this.
enum ContainerText {
    /// No text descendants at all.
    Empty,
    /// Exactly one text child — its pool symbol, no concatenation needed.
    Sym(StrId),
    /// A genuine concatenation (usually from the per-document memo).
    Concat(Arc<str>),
}

/// The arena owning every document and node of a query run.
///
/// See the [module documentation](self) for the design rationale.
#[derive(Debug, Default)]
pub struct NodeStore {
    docs: Vec<Document>,
    /// URI → document index, for `fn:doc` stability (same URI, same nodes).
    /// Keys share their allocation with `Document::uri`.
    by_uri: HashMap<Arc<str>, u32>,
    /// The store-owned text payload pool: every text-shaped payload
    /// (attribute values, text/comment content, PI targets and content) is
    /// interned here at creation time and carried in [`NodeKind`] as a
    /// [`StrId`].  `Arc`-shared, so cloning the store (the service layer's
    /// `publish()`) shares the table instead of copying every string.
    text: TextPool,
    /// Count of nodes ever created, across all documents.
    nodes_created: u64,
    /// Set to a *globally unique* value (process-wide counter) whenever the
    /// set of addressable documents changes — a parse, or an ID-attribute
    /// registration that alters `id()` resolution.  Caches derived from
    /// document contents (e.g. the algebraic executor's rec-independent
    /// static cache) compare this to decide staleness.
    load_epoch: u64,
    /// Bumped by **every** mutating method (node construction, attachment,
    /// parses, ID registrations).  Unlike `load_epoch` (which deliberately
    /// ignores construction) and the per-document `Derived::version` (which
    /// can move during a read-triggered lazy rebuild), this counter moves
    /// exactly when the store's node data could have changed — it is the
    /// staleness boundary the [`SnapshotPin`] / [`StoreSnapshot`] freeze
    /// protocol validates against.
    revision: u64,
    /// Lifetime count of `fn:id` probes answered by a document's ID index
    /// ([`NodeStore::id_probe_hits`]).  Monotonic telemetry that publishes
    /// no other data, so `Relaxed` ordering suffices.
    id_probe_hits: AtomicU64,
    /// Memo of element/document `string_value` concatenations — atomizing
    /// the same element across fixpoint iterations re-renders nothing.
    /// Invalidated per document by the `Derived::version` tag (see
    /// [`TextMemoCache`]); behind a `Mutex` so shared (snapshot) read paths
    /// can fill it.
    text_memo: Mutex<TextMemoCache>,
    /// Memo of [`NodeStore::statistics`], keyed on the revision it was
    /// computed at (`StoreStatistics::revision`).  Behind a `Mutex` so the
    /// cost model can pull statistics through shared (snapshot) reads.
    stats_memo: Mutex<Option<Arc<crate::stats::StoreStatistics>>>,
}

impl Clone for NodeStore {
    fn clone(&self) -> Self {
        NodeStore {
            docs: self.docs.clone(),
            by_uri: self.by_uri.clone(),
            // O(1): the clone shares the payload table until either side
            // interns a new string (see [`TextPool`]).
            text: self.text.clone(),
            nodes_created: self.nodes_created,
            load_epoch: self.load_epoch,
            revision: self.revision,
            id_probe_hits: AtomicU64::new(self.id_probe_hits.load(Relaxed)),
            text_memo: Mutex::new(mutex_lock(&self.text_memo).clone()),
            stats_memo: Mutex::new(mutex_lock(&self.stats_memo).clone()),
        }
    }
}

/// Process-wide source of [`NodeStore::load_epoch`] values.  Epochs being
/// globally unique — not per-store counters — means equal epochs imply the
/// same document set: a cache keyed on an epoch can never be fooled by a
/// *different* store that happens to have performed the same number of
/// loads.  (Epoch 0 is shared by stores that never loaded anything, which
/// all agree on the empty document set.)
///
/// Memory ordering: `Relaxed` is deliberate and load-bearing.  The counter
/// provides *uniqueness only* — no thread ever reads another thread's epoch
/// value through this atomic to synchronize with other memory.  An epoch
/// becomes visible to other threads only as a plain field of a store (or a
/// snapshot pinned from it), and whatever mechanism hands that store across
/// threads (scoped-thread spawn, mutex, channel) supplies the
/// happens-before edge.  Stronger orderings here would buy nothing.
static NEXT_LOAD_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_load_epoch() -> u64 {
    NEXT_LOAD_EPOCH.fetch_add(1, Relaxed)
}

impl NodeStore {
    /// Create an empty store.
    pub fn new() -> Self {
        NodeStore::default()
    }

    /// Total number of nodes ever created in this store (parsed plus
    /// constructed).  Useful for detecting runaway node construction in
    /// fixed point computations.
    pub fn nodes_created(&self) -> u64 {
        self.nodes_created
    }

    /// The store's document-load epoch: changes whenever a new document is
    /// parsed into the store or an ID-typed attribute is registered.
    ///
    /// Long-lived consumers that cache tables derived from document contents
    /// (notably the algebraic executor's rec-independent static cache)
    /// snapshot this value and invalidate when it moves — this is what makes
    /// it safe to keep one executor alive across many `execute()` calls while
    /// still seeing documents loaded after prepare.  Node *construction*
    /// (fragments built by element constructors) deliberately does not bump
    /// the epoch: constructed fragments are unreachable through `doc(…)`, and
    /// bumping per construction would defeat the cache for bodies that build
    /// nodes every iteration.
    pub fn load_epoch(&self) -> u64 {
        self.load_epoch
    }

    /// The store's mutation revision: bumped by every mutating method.
    /// This is the staleness boundary of the snapshot freeze protocol —
    /// see [`NodeStore::pin`].
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Number of documents (parsed or constructed fragments) in the store.
    pub fn document_count(&self) -> usize {
        self.docs.len()
    }

    // ------------------------------------------------------------------
    // Document management
    // ------------------------------------------------------------------

    /// Create a fresh, empty document with a document node as its root.
    pub fn new_document(&mut self) -> DocId {
        let mut doc = Document::new();
        doc.push(NodeData {
            kind: NodeKind::Document,
            parent: None,
            children: Vec::new(),
            attributes: Vec::new(),
        });
        self.nodes_created += 1;
        self.revision += 1;
        self.docs.push(doc);
        DocId(self.docs.len() as u32 - 1)
    }

    /// Create a fresh document *without* a document node; used for trees
    /// built by element constructors, whose roots are parentless elements.
    pub fn new_fragment(&mut self) -> DocId {
        self.docs.push(Document::new());
        self.revision += 1;
        DocId(self.docs.len() as u32 - 1)
    }

    /// Parse `text` as an XML document and add it to the store.
    pub fn parse_document(&mut self, text: &str) -> Result<DocId> {
        let doc = crate::parse::parse_into(self, text)?;
        self.load_epoch = fresh_load_epoch();
        self.revision += 1;
        Ok(doc)
    }

    /// Parse `text` and register it under `uri` so that subsequent
    /// [`NodeStore::doc`] calls with the same URI return the same nodes.
    pub fn parse_document_with_uri(&mut self, uri: &str, text: &str) -> Result<DocId> {
        if let Some(&idx) = self.by_uri.get(uri) {
            return Ok(DocId(idx));
        }
        let doc = crate::parse::parse_into(self, text)?;
        // One allocation, shared by the document record and the URI index.
        let uri: Arc<str> = Arc::from(uri);
        self.docs[doc.0 as usize].uri = Some(uri.clone());
        self.by_uri.insert(uri, doc.0);
        self.load_epoch = fresh_load_epoch();
        self.revision += 1;
        Ok(doc)
    }

    /// Look up a document previously registered under `uri`.
    pub fn doc(&self, uri: &str) -> Option<DocId> {
        self.by_uri.get(uri).map(|&idx| DocId(idx))
    }

    /// The URI a document was registered under, if any.
    pub fn document_uri(&self, doc: DocId) -> Option<&str> {
        self.docs.get(doc.0 as usize).and_then(|d| d.uri.as_deref())
    }

    /// The document node (node 0) of `doc`, if the document has one.
    pub fn document_node(&self, doc: DocId) -> Option<NodeId> {
        let d = self.docs.get(doc.0 as usize)?;
        match d.nodes.first() {
            Some(n) if matches!(n.kind, NodeKind::Document) => Some(NodeId::new(doc.0, 0)),
            _ => None,
        }
    }

    /// The root element of `doc` (the single element child of the document
    /// node), if any.
    pub fn document_element(&self, doc: DocId) -> Option<NodeId> {
        let root = self.document_node(doc)?;
        self.children(root)
            .into_iter()
            .find(|&c| self.kind(c).is_element())
    }

    /// Declare that attributes named `name` are ID-typed in `doc` (mirrors a
    /// DTD `#ID` declaration, e.g. `code` in the paper's curriculum data).
    pub fn register_id_attribute(&mut self, doc: DocId, name: &str) {
        if let Some(d) = self.docs.get_mut(doc.0 as usize) {
            if !d.id_attr_names.iter().any(|n| n == name) {
                d.id_attr_names.push(name.to_string());
                d.mark_dirty();
                self.load_epoch = fresh_load_epoch();
                self.revision += 1;
            }
        }
    }

    /// Find the element in `doc` whose ID-typed attribute equals `value`.
    ///
    /// One probe of the document's ID index under its read guard (the index
    /// is rebuilt first if the document was mutated since the last rebuild,
    /// so a probe never sees a stale index).  Works from shared references,
    /// including snapshot reads from several threads: readers of a clean
    /// document share the guard and nothing else is locked.  The index is
    /// keyed by text-pool symbol, so a value the pool has never seen cannot
    /// match and is answered without touching it.
    ///
    /// `fn:id` over argument *nodes* goes through
    /// [`lookup_id_nodes`](NodeStore::lookup_id_nodes), which skips the
    /// string altogether.
    pub fn lookup_id(&self, doc: DocId, value: &str) -> Option<NodeId> {
        let d = self.docs.get(doc.0 as usize)?;
        let sym = self.text.get(value)?;
        self.id_probe_hits.fetch_add(1, Relaxed);
        let found = d.derived().id_index.get(&sym).copied();
        found.map(|n| NodeId::new(doc.0, n))
    }

    /// `fn:id(args)` anchored at `doc`: append to `out`, for every node of
    /// `args`, the elements of `doc` whose ID equals a whitespace-separated
    /// token of the node's string value (in argument order, duplicates
    /// kept — callers order and deduplicate).
    ///
    /// Attribute and text payloads already *are* text-pool symbols and the
    /// ID index is keyed by symbol, so a whitespace-free payload probes the
    /// index as is — no string is hashed, no value handle cloned — and the
    /// whole call takes the document's read guard once.  IDREFS-style
    /// payloads are tokenised first; an element whose value is a genuine
    /// concatenation takes the string route of
    /// [`lookup_id`](NodeStore::lookup_id) token by token.
    pub fn lookup_id_nodes(&self, doc: DocId, args: &[NodeId], out: &mut Vec<NodeId>) {
        let Some(d) = self.docs.get(doc.0 as usize) else {
            return;
        };
        // Rendering a concatenation consults the argument document's derived
        // state; that must not happen under the guard held below (a second
        // read of one `RwLock` on one thread can deadlock behind a waiting
        // writer), so those arguments wait until it is released.
        let mut concatenated = Vec::new();
        {
            let derived = d.derived();
            let mut probes = 0u64;
            let mut probe = |sym: StrId| {
                probes += 1;
                if let Some(&n) = derived.id_index.get(&sym) {
                    out.push(NodeId::new(doc.0, n));
                }
            };
            for &arg in args {
                let sym = match self.string_value_sym(arg) {
                    Some(sym) => sym,
                    None => match self.container_text_direct(arg) {
                        Some(ContainerText::Sym(sym)) => sym,
                        Some(_) => continue,
                        None => {
                            concatenated.push(arg);
                            continue;
                        }
                    },
                };
                let text = self.text.resolve(sym);
                let mut tokens = text.split_whitespace();
                match tokens.next() {
                    None => {}
                    Some(first) if first.len() == text.len() => probe(sym),
                    Some(first) => std::iter::once(first)
                        .chain(tokens)
                        .filter_map(|token| self.text.get(token))
                        .for_each(&mut probe),
                }
            }
            self.id_probe_hits.fetch_add(probes, Relaxed);
        }
        for arg in concatenated {
            let text = self.string_value_ref(arg);
            out.extend(
                text.split_whitespace()
                    .filter_map(|token| self.lookup_id(doc, token)),
            );
        }
    }

    /// Lifetime count of `fn:id` probes a document's ID index answered —
    /// found or not; a value the text pool has never seen is refused before
    /// it reaches an index and is not counted.  The name dates from a probe
    /// memo that no longer exists; it is kept for the benchmark adapter and
    /// retires with it (ROADMAP 1a).
    pub fn id_probe_hits(&self) -> u64 {
        self.id_probe_hits.load(Relaxed)
    }

    /// Drop the store's recomputable memo (string-value concatenations),
    /// returning an estimate of the bytes freed.
    ///
    /// This is the store's contribution to budget *relief* (see
    /// [`crate::budget`]): under memory pressure a driver trades this
    /// cache — repopulated lazily, at recompute cost — for headroom before
    /// failing the query.  Works through `&self`; concurrent readers simply
    /// see a cold memo afterwards.
    pub fn release_memory(&self) -> u64 {
        let mut freed = 0u64;
        let mut memo = mutex_lock(&self.text_memo);
        for (_, (_, map)) in memo.per_doc.iter() {
            for arc in map.values() {
                freed += arc.len() as u64 + 64;
            }
        }
        memo.per_doc.clear();
        freed
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// Shape statistics over every document in the store: node counts per
    /// kind, child-axis fanout, tree depth, `id()` index density and
    /// text-pool size.  Computed once per [`NodeStore::revision`] and
    /// memoized (the walk is `O(nodes)`), so the cost model can call this
    /// on every execution.  Works through `&self` — snapshot readers share
    /// the memo.
    pub fn statistics(&self) -> Arc<crate::stats::StoreStatistics> {
        {
            let memo = mutex_lock(&self.stats_memo);
            if let Some(stats) = memo.as_ref() {
                if stats.revision == self.revision {
                    return Arc::clone(stats);
                }
            }
        }
        let stats = Arc::new(self.compute_statistics());
        *mutex_lock(&self.stats_memo) = Some(Arc::clone(&stats));
        stats
    }

    fn compute_statistics(&self) -> crate::stats::StoreStatistics {
        use crate::stats::{DocumentStatistics, StoreStatistics};
        let mut out = StoreStatistics {
            revision: self.revision,
            documents: self.docs.len() as u64,
            per_document: Vec::with_capacity(self.docs.len()),
            totals: DocumentStatistics::default(),
            text_pool_strings: self.text.len() as u64,
        };
        for doc in &self.docs {
            let mut d = DocumentStatistics {
                nodes: doc.nodes.len() as u64,
                id_entries: doc.derived().id_index.len() as u64,
                ..Default::default()
            };
            for node in &doc.nodes {
                match node.kind {
                    NodeKind::Element(_) => d.elements += 1,
                    NodeKind::Attribute(..) => d.attributes += 1,
                    NodeKind::Text(_) => d.text_nodes += 1,
                    _ => {}
                }
                let fanout = node.children.len() as u64;
                if fanout > 0 {
                    d.parents += 1;
                    d.child_links += fanout;
                    d.max_fanout = d.max_fanout.max(fanout);
                }
            }
            // Depth via DFS along child links from each parentless root;
            // attributes count as nodes but not as depth.
            let mut stack: Vec<(u32, u64)> = (0..doc.nodes.len() as u32)
                .filter(|&i| doc.nodes[i as usize].parent.is_none())
                .map(|i| (i, 0))
                .collect();
            while let Some((idx, depth)) = stack.pop() {
                d.max_depth = d.max_depth.max(depth);
                for &c in &doc.nodes[idx as usize].children {
                    stack.push((c, depth + 1));
                }
            }
            out.totals.absorb(&d);
            out.per_document.push(d);
        }
        out
    }

    // ------------------------------------------------------------------
    // Node construction
    // ------------------------------------------------------------------

    fn push_node(&mut self, doc: DocId, data: NodeData) -> NodeId {
        // Node construction is the arena growth point: charge the per-node
        // footprint (arena slot + parent-children backlink) against any
        // installed per-query budget.
        crate::budget::charge(std::mem::size_of::<NodeData>() as u64 + 8);
        let d = &mut self.docs[doc.0 as usize];
        let idx = d.push(data);
        self.nodes_created += 1;
        self.revision += 1;
        NodeId::new(doc.0, idx)
    }

    /// Create an unattached element node in `doc`.
    pub fn create_element(&mut self, doc: DocId, name: QName) -> NodeId {
        self.push_node(
            doc,
            NodeData {
                kind: NodeKind::Element(name),
                parent: None,
                children: Vec::new(),
                attributes: Vec::new(),
            },
        )
    }

    /// Create an unattached text node in `doc` (the content is interned
    /// into the store's text pool).
    pub fn create_text(&mut self, doc: DocId, text: impl AsRef<str>) -> NodeId {
        let sym = self.text.intern(text.as_ref());
        self.push_node(
            doc,
            NodeData {
                kind: NodeKind::Text(sym),
                parent: None,
                children: Vec::new(),
                attributes: Vec::new(),
            },
        )
    }

    /// Create an unattached comment node in `doc`.
    pub fn create_comment(&mut self, doc: DocId, text: impl AsRef<str>) -> NodeId {
        let sym = self.text.intern(text.as_ref());
        self.push_node(
            doc,
            NodeData {
                kind: NodeKind::Comment(sym),
                parent: None,
                children: Vec::new(),
                attributes: Vec::new(),
            },
        )
    }

    /// Create an unattached processing-instruction node in `doc`.
    pub fn create_pi(
        &mut self,
        doc: DocId,
        target: impl AsRef<str>,
        content: impl AsRef<str>,
    ) -> NodeId {
        let target = self.text.intern(target.as_ref());
        let content = self.text.intern(content.as_ref());
        self.push_node(
            doc,
            NodeData {
                kind: NodeKind::ProcessingInstruction(target, content),
                parent: None,
                children: Vec::new(),
                attributes: Vec::new(),
            },
        )
    }

    /// Attach `child` as the last child of `parent`.  Both must belong to the
    /// same document and `child` must not already have a parent.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> Result<()> {
        if parent.doc != child.doc {
            return Err(XdmError::WrongNodeKind(
                "append_child: parent and child belong to different documents".into(),
            ));
        }
        let d = &mut self.docs[parent.doc as usize];
        if d.nodes[child.node as usize].parent.is_some() {
            return Err(XdmError::WrongNodeKind(
                "append_child: child already has a parent".into(),
            ));
        }
        match d.nodes[parent.node as usize].kind {
            NodeKind::Element(_) | NodeKind::Document => {}
            _ => {
                return Err(XdmError::WrongNodeKind(format!(
                    "append_child: cannot add children to a {} node",
                    d.nodes[parent.node as usize].kind.kind_name()
                )))
            }
        }
        d.nodes[child.node as usize].parent = Some(parent.node);
        d.nodes[parent.node as usize].children.push(child.node);
        d.mark_dirty();
        self.revision += 1;
        Ok(())
    }

    /// Add an attribute `name="value"` to element `element` (the value is
    /// interned into the store's text pool).
    pub fn add_attribute(
        &mut self,
        element: NodeId,
        name: QName,
        value: impl AsRef<str>,
    ) -> Result<NodeId> {
        let sym = self.text.intern(value.as_ref());
        self.add_attribute_interned(element, name, sym)
    }

    /// Add an attribute whose value is already a symbol of this store's
    /// text pool — the allocation-free path `deep_copy` and constructor
    /// re-attachment take.
    pub fn add_attribute_interned(
        &mut self,
        element: NodeId,
        name: QName,
        value: StrId,
    ) -> Result<NodeId> {
        {
            let d = &self.docs[element.doc as usize];
            if !d.nodes[element.node as usize].kind.is_element() {
                return Err(XdmError::WrongNodeKind(
                    "add_attribute: target is not an element".into(),
                ));
            }
        }
        let attr = self.push_node(
            DocId(element.doc),
            NodeData {
                kind: NodeKind::Attribute(name, value),
                parent: Some(element.node),
                children: Vec::new(),
                attributes: Vec::new(),
            },
        );
        let d = &mut self.docs[element.doc as usize];
        d.nodes[element.node as usize].attributes.push(attr.node);
        d.mark_dirty();
        self.revision += 1;
        Ok(attr)
    }

    /// Deep-copy the subtree rooted at `node` into document `target`,
    /// returning the id of the copy's root.  Used by element constructors,
    /// which copy their content (new node identities!).
    pub fn deep_copy(&mut self, node: NodeId, target: DocId) -> NodeId {
        let kind = self.kind(node).clone();
        let copy = self.push_node(
            target,
            NodeData {
                kind,
                parent: None,
                children: Vec::new(),
                attributes: Vec::new(),
            },
        );
        for attr in self.attributes(node) {
            if let NodeKind::Attribute(name, value) = self.kind(attr).clone() {
                // The copy's root is always an element here; ignore errors on
                // non-element kinds (they have no attributes to begin with).
                // The payload symbol belongs to this store's pool already —
                // no re-interning, no allocation.
                let _ = self.add_attribute_interned(copy, name, value);
            }
        }
        for child in self.children(node) {
            let child_copy = self.deep_copy(child, target);
            let _ = self.append_child(copy, child_copy);
        }
        copy
    }

    // ------------------------------------------------------------------
    // Node inspection
    // ------------------------------------------------------------------

    fn data(&self, node: NodeId) -> &NodeData {
        &self.docs[node.doc as usize].nodes[node.node as usize]
    }

    /// `true` if `node` refers to an existing node of this store.
    pub fn contains(&self, node: NodeId) -> bool {
        self.docs
            .get(node.doc as usize)
            .map(|d| (node.node as usize) < d.nodes.len())
            .unwrap_or(false)
    }

    /// The node's kind and payload.
    pub fn kind(&self, node: NodeId) -> &NodeKind {
        &self.data(node).kind
    }

    /// The node's name, if it has one (elements and attributes).
    pub fn name(&self, node: NodeId) -> Option<&QName> {
        self.data(node).kind.name()
    }

    /// The node's parent, if any.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.data(node).parent.map(|p| NodeId::new(node.doc, p))
    }

    /// The node's children (no attributes), in document order.
    pub fn children(&self, node: NodeId) -> Vec<NodeId> {
        self.data(node)
            .children
            .iter()
            .map(|&c| NodeId::new(node.doc, c))
            .collect()
    }

    /// The node's attribute nodes.
    pub fn attributes(&self, node: NodeId) -> Vec<NodeId> {
        self.data(node)
            .attributes
            .iter()
            .map(|&a| NodeId::new(node.doc, a))
            .collect()
    }

    /// The value of attribute `name` on element `node`, if present.
    pub fn attribute_value(&self, node: NodeId, name: &str) -> Option<&str> {
        self.attribute_value_sym(node, name)
            .map(|sym| self.text.resolve(sym))
    }

    /// The text-pool symbol of attribute `name` on element `node`, if
    /// present.  The allocation-free form consumers with their own
    /// per-pool caches (the algebraic executor) build on.
    pub fn attribute_value_sym(&self, node: NodeId, name: &str) -> Option<StrId> {
        for &a in &self.data(node).attributes {
            if let NodeKind::Attribute(qname, value) =
                &self.docs[node.doc as usize].nodes[a as usize].kind
            {
                if qname.matches_local(name) {
                    return Some(*value);
                }
            }
        }
        None
    }

    /// The root of the tree containing `node` (the node with no parent).
    pub fn tree_root(&self, node: NodeId) -> NodeId {
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            cur = p;
        }
        cur
    }

    /// The string behind a text-pool symbol carried by this store's nodes.
    ///
    /// # Panics
    /// Panics if `id` did not come from this store's pool.
    pub fn resolve_text(&self, id: StrId) -> &str {
        self.text.resolve(id)
    }

    /// The text-pool symbol of `s`, if any node payload has interned it
    /// (never allocates).  Useful as a cheap membership prefilter: a string
    /// the pool has never seen cannot be any node's payload.
    pub fn text_pool_get(&self, s: &str) -> Option<StrId> {
        self.text.get(s)
    }

    /// The globally unique identity of this store's text pool — the key
    /// external per-pool symbol caches compare to detect divergence (see
    /// [`TextPool::pool_id`](crate::intern::TextPool::pool_id)).
    pub fn text_pool_id(&self) -> u64 {
        self.text.pool_id()
    }

    /// `true` when `self` and `other` still share one text-pool storage —
    /// i.e. one is a clone of the other and neither has interned a new
    /// string since.  What makes the service layer's publish-clone cheap.
    pub fn shares_text_pool(&self, other: &NodeStore) -> bool {
        self.text.shares_storage_with(&other.text)
    }

    /// The text-pool symbol of a *leaf-shaped* node's string value
    /// (attributes, text, comments, PIs); `None` for elements and
    /// documents, whose value is a concatenation.
    pub fn string_value_sym(&self, node: NodeId) -> Option<StrId> {
        match self.kind(node) {
            NodeKind::Attribute(_, v) => Some(*v),
            NodeKind::Text(t) => Some(*t),
            NodeKind::Comment(c) => Some(*c),
            NodeKind::ProcessingInstruction(_, c) => Some(*c),
            NodeKind::Element(_) | NodeKind::Document => None,
        }
    }

    /// The typed/string value of a node: for elements and documents the
    /// concatenation of all descendant text nodes, for attributes and text
    /// nodes their content, for comments and PIs their text.
    pub fn string_value(&self, node: NodeId) -> String {
        self.string_value_ref(node).into_string()
    }

    /// The string value of a node without rendering a fresh `String`:
    /// leaf-shaped nodes borrow straight from the text pool; element and
    /// document concatenations come from the per-document memo as a shared
    /// `Arc<str>` (rendered at most once per document revision).
    pub fn string_value_ref(&self, node: NodeId) -> StrView<'_> {
        match self.kind(node) {
            NodeKind::Attribute(_, v) => StrView::Borrowed(self.text.resolve(*v)),
            NodeKind::Text(t) => StrView::Borrowed(self.text.resolve(*t)),
            NodeKind::Comment(c) => StrView::Borrowed(self.text.resolve(*c)),
            NodeKind::ProcessingInstruction(_, c) => StrView::Borrowed(self.text.resolve(*c)),
            NodeKind::Element(_) | NodeKind::Document => match self.container_text(node) {
                ContainerText::Empty => StrView::Borrowed(""),
                ContainerText::Sym(sym) => StrView::Borrowed(self.text.resolve(sym)),
                ContainerText::Concat(arc) => StrView::Shared(arc),
            },
        }
    }

    /// The string value of a node as an atomization payload: a shared
    /// `Arc<str>` handle wherever one exists (leaf payloads, memoized
    /// concatenations), an owned `String` only when the memo could not be
    /// consulted.  This is what `Evaluator::atomize` hands out.
    pub fn untyped_value(&self, node: NodeId) -> UText {
        match self.kind(node) {
            NodeKind::Attribute(_, v)
            | NodeKind::Text(v)
            | NodeKind::Comment(v)
            | NodeKind::ProcessingInstruction(_, v) => {
                UText::shared(self.text.resolve_arc(*v).clone())
            }
            NodeKind::Element(_) | NodeKind::Document => match self.container_text(node) {
                ContainerText::Empty => UText::from(String::new()),
                ContainerText::Sym(sym) => UText::shared(self.text.resolve_arc(sym).clone()),
                ContainerText::Concat(arc) => UText::shared(arc),
            },
        }
    }

    /// The text of an element/document node where no concatenation is
    /// needed — childless nodes and single-text-child elements, the dominant
    /// shapes in data-oriented documents.  Takes no lock.
    fn container_text_direct(&self, node: NodeId) -> Option<ContainerText> {
        match self.data(node).children.as_slice() {
            [] => Some(ContainerText::Empty),
            &[only] => match &self.docs[node.doc as usize].nodes[only as usize].kind {
                NodeKind::Text(t) => Some(ContainerText::Sym(*t)),
                _ => None,
            },
            _ => None,
        }
    }

    /// The concatenated text of an element/document node, memoized per
    /// document behind the derived-state version tag
    /// ([`container_text_direct`](Self::container_text_direct) shapes skip
    /// the memo).
    fn container_text(&self, node: NodeId) -> ContainerText {
        if let Some(direct) = self.container_text_direct(node) {
            return direct;
        }
        // Force the derived state current *before* consulting the memo: a
        // mutation only marks the document dirty — the version tag the memo
        // is validated against moves on rebuild.
        let version = self.docs[node.doc as usize].derived().version;
        let mut memo = match self.text_memo.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                // Contended (concurrent snapshot readers): render without
                // memoizing rather than serializing every reader here.
                let mut out = String::new();
                self.collect_text(node, &mut out);
                return ContainerText::Concat(Arc::from(out));
            }
        };
        let (tag, map) = memo
            .per_doc
            .entry(node.doc)
            .or_insert_with(|| (version, IdMap::default()));
        if *tag != version {
            *tag = version;
            map.clear();
        }
        if let Some(arc) = map.get(&node.node) {
            return ContainerText::Concat(arc.clone());
        }
        drop(memo);
        // Render outside the lock; `version` cannot move while we hold
        // `&self` (mutation needs `&mut self`, and our `derived()` call
        // above already cleared `dirty`).
        let mut out = String::new();
        self.collect_text(node, &mut out);
        let arc: Arc<str> = Arc::from(out);
        let mut memo = mutex_lock(&self.text_memo);
        let (tag, map) = memo
            .per_doc
            .entry(node.doc)
            .or_insert_with(|| (version, IdMap::default()));
        if *tag == version {
            map.insert(node.node, arc.clone());
        }
        ContainerText::Concat(arc)
    }

    fn collect_text(&self, node: NodeId, out: &mut String) {
        match self.kind(node) {
            NodeKind::Text(t) => out.push_str(self.text.resolve(*t)),
            NodeKind::Element(_) | NodeKind::Document => {
                for &c in &self.data(node).children {
                    self.collect_text(NodeId::new(node.doc, c), out);
                }
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Document order
    // ------------------------------------------------------------------

    fn order_rank(&self, node: NodeId) -> (u32, u32) {
        let d = &self.docs[node.doc as usize];
        let derived = d.derived();
        (node.doc, derived.order[node.node as usize])
    }

    /// Compare two nodes in document order.  Nodes of different documents are
    /// ordered by document creation order, which yields the stable total
    /// order the XDM requires.
    pub fn doc_order(&self, a: NodeId, b: NodeId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let ka = self.order_rank(a);
        let kb = self.order_rank(b);
        ka.cmp(&kb)
    }

    /// `true` when arena index order within `doc` coincides with document
    /// order.  Parsed documents always satisfy this (the parser appends
    /// nodes in pre-order); constructed fragments may not, if children were
    /// created before their parents.  [`crate::NodeSet::to_vec`] uses this
    /// to skip rank sorting on the fast path.
    pub fn index_order_is_document_order(&self, doc: DocId) -> bool {
        match self.docs.get(doc.0 as usize) {
            Some(d) => d.derived().index_is_order,
            None => true,
        }
    }

    /// Sort `nodes` into document order and remove duplicates — the
    /// `fs:distinct-doc-order` operation of the XQuery Formal Semantics.
    pub fn sort_distinct(&self, nodes: &mut Vec<NodeId>) {
        if nodes.len() <= 1 {
            return;
        }
        let doc = nodes[0].doc;
        if nodes.iter().all(|n| n.doc == doc) {
            // One document (every path step of a query over one document):
            // one guard, sorted and deduplicated in place — by arena index
            // where that is document order, by rank otherwise.
            let derived = self.docs[doc as usize].derived();
            if derived.index_is_order {
                nodes.sort_unstable_by_key(|n| n.node);
            } else {
                nodes.sort_unstable_by_key(|n| derived.order[n.node as usize]);
            }
            nodes.dedup();
            return;
        }
        // Refresh every involved document once (one read guard per doc),
        // then sort by the cached ranks.
        let mut guards: IdMap<u32, RwLockReadGuard<'_, Derived>> = IdMap::default();
        for &n in nodes.iter() {
            guards
                .entry(n.doc)
                .or_insert_with(|| self.docs[n.doc as usize].derived());
        }
        let mut keyed: Vec<((u32, u32), NodeId)> = nodes
            .iter()
            .map(|&n| ((n.doc, guards[&n.doc].order[n.node as usize]), n))
            .collect();
        keyed.sort_by_key(|a| a.0);
        keyed.dedup_by(|a, b| a.1 == b.1);
        nodes.clear();
        nodes.extend(keyed.into_iter().map(|(_, n)| n));
    }

    // ------------------------------------------------------------------
    // Axes
    // ------------------------------------------------------------------

    /// All nodes reachable from `node` along `axis` that satisfy `test`,
    /// in the axis's natural order (document order for forward axes,
    /// reverse document order for reverse axes).
    pub fn axis_nodes(&self, node: NodeId, axis: Axis, test: &NodeTest) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.axis_nodes_into(node, axis, test, &mut out);
        out
    }

    /// [`axis_nodes`](NodeStore::axis_nodes) appending into a caller-owned
    /// buffer — the fused form path evaluation uses to run a whole
    /// focus sequence through one step without a `Vec` per focus item.
    pub fn axis_nodes_into(
        &self,
        node: NodeId,
        axis: Axis,
        test: &NodeTest,
        out: &mut Vec<NodeId>,
    ) {
        match axis {
            Axis::Child => {
                // Iterate the arena's child list directly — no intermediate
                // `children()` vector on the hottest axis.
                for &c in &self.data(node).children {
                    self.push_if(NodeId::new(node.doc, c), axis, test, out);
                }
            }
            Axis::Descendant => self.collect_descendants(node, axis, test, out),
            Axis::DescendantOrSelf => {
                self.push_if(node, axis, test, out);
                self.collect_descendants(node, axis, test, out);
            }
            Axis::Parent => {
                if let Some(p) = self.parent(node) {
                    self.push_if(p, axis, test, out);
                }
            }
            Axis::Ancestor => {
                let mut cur = self.parent(node);
                while let Some(p) = cur {
                    self.push_if(p, axis, test, out);
                    cur = self.parent(p);
                }
            }
            Axis::AncestorOrSelf => {
                self.push_if(node, axis, test, out);
                let mut cur = self.parent(node);
                while let Some(p) = cur {
                    self.push_if(p, axis, test, out);
                    cur = self.parent(p);
                }
            }
            Axis::FollowingSibling => {
                if let Some(parent) = self.parent(node) {
                    let siblings = self.children(parent);
                    let mut seen_self = false;
                    for s in siblings {
                        if s == node {
                            seen_self = true;
                        } else if seen_self {
                            self.push_if(s, axis, test, out);
                        }
                    }
                }
            }
            Axis::PrecedingSibling => {
                if let Some(parent) = self.parent(node) {
                    let siblings = self.children(parent);
                    let mut before = Vec::new();
                    for s in siblings {
                        if s == node {
                            break;
                        }
                        before.push(s);
                    }
                    for s in before.into_iter().rev() {
                        self.push_if(s, axis, test, out);
                    }
                }
            }
            Axis::Following => {
                // Following siblings of self and of every ancestor, each with
                // their whole subtrees, in document order.
                let mut anchors = vec![node];
                let mut cur = self.parent(node);
                while let Some(p) = cur {
                    anchors.push(p);
                    cur = self.parent(p);
                }
                // Process outermost ancestors last so results stay in
                // document order relative to each anchor group.
                let mut groups: Vec<Vec<NodeId>> = Vec::new();
                for anchor in anchors {
                    let mut group = Vec::new();
                    for sib in self.axis_nodes(anchor, Axis::FollowingSibling, &NodeTest::AnyNode) {
                        self.push_if(sib, axis, test, &mut group);
                        self.collect_descendants(sib, axis, test, &mut group);
                    }
                    groups.push(group);
                }
                for group in groups {
                    out.extend(group);
                }
            }
            Axis::Preceding => {
                let mut anchors = vec![node];
                let mut cur = self.parent(node);
                while let Some(p) = cur {
                    anchors.push(p);
                    cur = self.parent(p);
                }
                for anchor in anchors {
                    for sib in self.axis_nodes(anchor, Axis::PrecedingSibling, &NodeTest::AnyNode) {
                        // Subtree of the preceding sibling, in reverse
                        // document order (deepest/last first).
                        let mut subtree = Vec::new();
                        self.push_if(sib, axis, test, &mut subtree);
                        self.collect_descendants(sib, axis, test, &mut subtree);
                        out.extend(subtree.into_iter().rev());
                    }
                }
            }
            Axis::Attribute => {
                for &a in &self.data(node).attributes {
                    self.push_if(NodeId::new(node.doc, a), axis, test, out);
                }
            }
            Axis::SelfAxis => {
                self.push_if(node, axis, test, out);
            }
        }
    }

    fn push_if(&self, node: NodeId, axis: Axis, test: &NodeTest, out: &mut Vec<NodeId>) {
        if test.matches(axis, self.kind(node)) {
            out.push(node);
        }
    }

    fn collect_descendants(
        &self,
        node: NodeId,
        axis: Axis,
        test: &NodeTest,
        out: &mut Vec<NodeId>,
    ) {
        for &c in &self.data(node).children {
            let child = NodeId::new(node.doc, c);
            self.push_if(child, axis, test, out);
            self.collect_descendants(child, axis, test, out);
        }
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Eagerly rebuild every document's derived state (order ranks, ID
    /// indexes).  After this, read paths through a shared reference take
    /// uncontended read locks only — no thread pays the rebuild inside a
    /// parallel section.
    pub fn refresh_all(&self) {
        for d in &self.docs {
            drop(d.derived());
        }
    }

    /// Record the store's current mutation state (and eagerly refresh all
    /// derived state) so a [`StoreSnapshot`] can later be frozen with
    /// [`SnapshotPin::freeze`] — which fails if the store was mutated in
    /// between, rather than silently reading moved data.
    pub fn pin(&self) -> SnapshotPin {
        self.refresh_all();
        SnapshotPin {
            epoch: self.load_epoch,
            revision: self.revision,
        }
    }

    /// Pin and freeze in one step.  Infallible: holding the returned
    /// snapshot borrows the store shared, so no mutation can intervene.
    pub fn snapshot(&self) -> StoreSnapshot<'_> {
        let pin = self.pin();
        StoreSnapshot {
            store: self,
            epoch: pin.epoch,
            revision: pin.revision,
        }
    }
}

/// A recorded freeze point of a [`NodeStore`]: the `(load_epoch, revision)`
/// pair at [`NodeStore::pin`] time.  Owning no borrow, a pin can outlive
/// intervening code that mutates the store — [`SnapshotPin::freeze`] then
/// *detects* the mutation and refuses to produce a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotPin {
    epoch: u64,
    revision: u64,
}

impl SnapshotPin {
    /// The [`NodeStore::load_epoch`] recorded when the pin was taken.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The [`NodeStore::revision`] recorded when the pin was taken.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// How many mutations `store` has seen since this pin was taken
    /// (`0` means [`freeze`](SnapshotPin::freeze) would still succeed,
    /// provided the load epoch also matches).  Saturates at zero if the
    /// pin belongs to a different (younger) store.
    pub fn age(&self, store: &NodeStore) -> u64 {
        store.revision.saturating_sub(self.revision)
    }

    /// `true` iff `store` has not been mutated since this pin was taken —
    /// i.e. both the load epoch and the mutation revision still match, and
    /// [`freeze`](SnapshotPin::freeze) would succeed.
    pub fn is_current(&self, store: &NodeStore) -> bool {
        store.load_epoch == self.epoch && store.revision == self.revision
    }

    /// Freeze `store` into a read-only snapshot, verifying it has not been
    /// mutated since this pin was taken.  Returns
    /// [`XdmError::StaleSnapshot`] if the load epoch or mutation revision
    /// moved — a stale snapshot is rejected, never silently read.
    pub fn freeze<'s>(&self, store: &'s NodeStore) -> Result<StoreSnapshot<'s>> {
        if store.load_epoch != self.epoch || store.revision != self.revision {
            return Err(XdmError::StaleSnapshot(format!(
                "store moved since pin: epoch {} -> {}, revision {} -> {}",
                self.epoch, store.load_epoch, self.revision, store.revision
            )));
        }
        Ok(StoreSnapshot {
            store,
            epoch: self.epoch,
            revision: self.revision,
        })
    }
}

/// A read-only, epoch-pinned view of a [`NodeStore`].
///
/// A snapshot `Deref`s to the store, exposing every `&self` read path
/// (axes, document order, `sort_distinct`, `lookup_id`, …) while the borrow
/// checker guarantees no mutation can happen for the snapshot's lifetime.
/// `NodeStore` keeps all lazily-derived state behind internal locks, so a
/// snapshot is [`Sync`]: the parallel fixpoint drivers hand one `&`
/// reference to every shard of a scoped thread pool.
#[derive(Debug, Clone, Copy)]
pub struct StoreSnapshot<'s> {
    store: &'s NodeStore,
    epoch: u64,
    revision: u64,
}

impl<'s> StoreSnapshot<'s> {
    /// The underlying store reference (with the snapshot's full lifetime).
    pub fn store(&self) -> &'s NodeStore {
        self.store
    }

    /// The [`NodeStore::load_epoch`] this snapshot was frozen at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The [`NodeStore::revision`] this snapshot was frozen at.
    pub fn revision(&self) -> u64 {
        self.revision
    }
}

impl std::ops::Deref for StoreSnapshot<'_> {
    type Target = NodeStore;

    fn deref(&self) -> &NodeStore {
        self.store
    }
}

// `NodeStore` read paths must stay shareable across the scoped thread pool;
// this fails to compile if a non-`Sync` field sneaks in.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<NodeStore>();
    assert_sync::<StoreSnapshot<'_>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(store: &mut NodeStore) -> DocId {
        store
            .parse_document("<r><a id=\"a1\"><b/><c>hi</c></a><d><e/>tail</d></r>")
            .unwrap()
    }

    #[test]
    fn document_element_and_children() {
        let mut store = NodeStore::new();
        let doc = sample(&mut store);
        let root = store.document_element(doc).unwrap();
        assert_eq!(store.name(root).unwrap().local, "r");
        let kids = store.axis_nodes(root, Axis::Child, &NodeTest::AnyElement);
        assert_eq!(kids.len(), 2);
        assert_eq!(store.name(kids[0]).unwrap().local, "a");
        assert_eq!(store.name(kids[1]).unwrap().local, "d");
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let mut store = NodeStore::new();
        let doc = sample(&mut store);
        let root = store.document_element(doc).unwrap();
        assert_eq!(store.string_value(root), "hitail");
    }

    #[test]
    fn attribute_lookup() {
        let mut store = NodeStore::new();
        let doc = sample(&mut store);
        let root = store.document_element(doc).unwrap();
        let a = store.axis_nodes(root, Axis::Child, &NodeTest::Name("a".into()))[0];
        assert_eq!(store.attribute_value(a, "id"), Some("a1"));
        assert_eq!(store.attribute_value(a, "missing"), None);
    }

    #[test]
    fn id_index_finds_elements() {
        let mut store = NodeStore::new();
        let doc = sample(&mut store);
        let found = store.lookup_id(doc, "a1").unwrap();
        assert_eq!(store.name(found).unwrap().local, "a");
        assert_eq!(store.lookup_id(doc, "nope"), None);
    }

    #[test]
    fn registered_id_attribute_participates_in_index() {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document("<curriculum><course code=\"c1\"/><course code=\"c2\"/></curriculum>")
            .unwrap();
        assert_eq!(store.lookup_id(doc, "c1"), None);
        store.register_id_attribute(doc, "code");
        let c1 = store.lookup_id(doc, "c1").unwrap();
        assert_eq!(store.attribute_value(c1, "code"), Some("c1"));
    }

    /// `fn:id` over argument nodes, ordered and deduplicated.
    fn id_nodes(store: &NodeStore, doc: DocId, args: &[NodeId]) -> Vec<NodeId> {
        let mut out = Vec::new();
        store.lookup_id_nodes(doc, args, &mut out);
        store.sort_distinct(&mut out);
        out
    }

    #[test]
    fn id_probe_cache_answers_repeats_and_invalidates_on_epoch_bump() {
        // Named for the probe memo it once pinned; what it holds now is
        // that neither probe route ever answers from a stale ID index.
        let mut store = NodeStore::new();
        let doc = store
            .parse_document(
                "<curriculum><course code=\"c1\" next=\"c2\"/><course code=\"c2\" title=\"t\"/></curriculum>",
            )
            .unwrap();
        let root = store.document_element(doc).unwrap();
        let c1_elem = store.axis_nodes(root, Axis::Child, &NodeTest::AnyElement)[0];
        let next = store.axis_nodes(c1_elem, Axis::Attribute, &NodeTest::Name("next".into()));
        assert_eq!(store.lookup_id(doc, "c1"), None);
        assert_eq!(store.lookup_id(doc, "c1"), None);
        assert_eq!(id_nodes(&store, doc, &next), vec![]);

        // Registering an ID attribute bumps the load epoch: the earlier
        // misses must NOT survive — both routes now find the elements.
        store.register_id_attribute(doc, "code");
        let c1 = store.lookup_id(doc, "c1").expect("index was rebuilt");
        assert_eq!(store.attribute_value(c1, "code"), Some("c1"));
        let c2 = store.lookup_id(doc, "c2").expect("index was rebuilt");
        assert_eq!(id_nodes(&store, doc, &next), vec![c2]);

        // Every probe the index answers is counted, found or not; a value
        // the text pool has never seen does not reach it.
        let hits = store.id_probe_hits();
        assert_eq!(store.lookup_id(doc, "c1"), Some(c1));
        assert_eq!(store.lookup_id(doc, "t"), None);
        assert_eq!(store.lookup_id(doc, "never-interned"), None);
        assert_eq!(id_nodes(&store, doc, &next), vec![c2]);
        assert_eq!(store.id_probe_hits(), hits + 3);

        // Loading a new document bumps the epoch too; probes against the
        // old document still resolve correctly afterwards.
        let _ = store.parse_document("<x/>").unwrap();
        assert_eq!(store.lookup_id(doc, "c1"), Some(c1));
        assert_eq!(id_nodes(&store, doc, &next), vec![c2]);
    }

    #[test]
    fn id_probe_cache_sees_same_epoch_document_mutation() {
        // Mutating a document (construction) marks it dirty without moving
        // the load epoch; the next probe — by string or by symbol — must
        // see the post-mutation index.
        let mut store = NodeStore::new();
        let doc = store
            .parse_document("<r><a id=\"n1\" to=\"n2\" then=\"n3\"/></r>")
            .unwrap();
        let n1 = store.lookup_id(doc, "n1").unwrap();
        let to = store.axis_nodes(n1, Axis::Attribute, &NodeTest::Name("to".into()));
        let then = store.axis_nodes(n1, Axis::Attribute, &NodeTest::Name("then".into()));
        assert_eq!(store.lookup_id(doc, "n2"), None);
        assert_eq!(id_nodes(&store, doc, &to), vec![]);
        let root = store.document_element(doc).unwrap();
        let fresh = store.create_element(doc, QName::local("b"));
        store
            .add_attribute(fresh, QName::local("id"), "n2")
            .unwrap();
        store.append_child(root, fresh).unwrap();
        assert_eq!(id_nodes(&store, doc, &to), vec![fresh], "miss not stale");
        assert_eq!(store.lookup_id(doc, "n2"), Some(fresh), "miss not stale");
        assert_eq!(store.lookup_id(doc, "n1"), Some(n1));

        // The treacherous interleaving: mutate, then let a *different*
        // store operation (a doc-order comparison, as the fixpoint drivers
        // issue between iterations) trigger the refresh, then probe.
        assert_eq!(store.lookup_id(doc, "n3"), None);
        assert_eq!(id_nodes(&store, doc, &then), vec![]);
        let later = store.create_element(doc, QName::local("c"));
        store
            .add_attribute(later, QName::local("id"), "n3")
            .unwrap();
        store.append_child(root, later).unwrap();
        let _ = store.doc_order(root, fresh); // refreshes, clears dirty
        assert_eq!(
            store.lookup_id(doc, "n3"),
            Some(later),
            "an externally triggered refresh must show in the next probe"
        );
        assert_eq!(id_nodes(&store, doc, &then), vec![later]);
    }

    #[test]
    fn id_over_argument_nodes_tokenises_like_the_string_route() {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document(
                "<r><e id=\"a\"/><e id=\"b\"/><e id=\"a b\"/>\
                 <q refs=\" b  a zz\" one=\"a\" both=\"a b\" none=\"\"/>\
                 <t>b</t><m>a<i/> b</m><n><i>a</i></n><o/></r>",
            )
            .unwrap();
        let other = store.parse_document("<r><e id=\"a\"/></r>").unwrap();
        let root = store.document_element(doc).unwrap();
        let kids = store.axis_nodes(root, Axis::Child, &NodeTest::AnyElement);
        let (a, b, q) = (kids[0], kids[1], kids[3]);
        let attr = |name: &str| store.axis_nodes(q, Axis::Attribute, &NodeTest::Name(name.into()));
        // Whole payload as one symbol, IDREFS list, unknown token, empty.
        assert_eq!(id_nodes(&store, doc, &attr("one")), vec![a]);
        assert_eq!(id_nodes(&store, doc, &attr("refs")), vec![a, b]);
        assert_eq!(id_nodes(&store, doc, &attr("none")), vec![]);
        // "a b" is two tokens, never the ID spelled "a b".
        assert_eq!(id_nodes(&store, doc, &attr("both")), vec![a, b]);
        // Element arguments: single text child, genuine concatenations
        // (mixed content, nested element), no text at all.
        assert_eq!(id_nodes(&store, doc, &kids[4..5]), vec![b]);
        assert_eq!(id_nodes(&store, doc, &kids[5..6]), vec![a, b]);
        assert_eq!(id_nodes(&store, doc, &kids[6..7]), vec![a]);
        assert_eq!(id_nodes(&store, doc, &kids[7..8]), vec![]);
        // The anchor document decides where ids resolve, not the argument's.
        let other_a = store.lookup_id(other, "a").unwrap();
        assert_eq!(id_nodes(&store, other, &kids[4..7]), vec![other_a]);
        assert_eq!(id_nodes(&store, DocId(99), &kids[4..7]), vec![]);
        // Agreement with the string route on every argument at once.
        let args: Vec<NodeId> = kids[3..].iter().copied().chain(attr("refs")).collect();
        let mut by_string: Vec<NodeId> = args
            .iter()
            .flat_map(|&n| {
                let value = store.string_value(n);
                let tokens: Vec<String> = value.split_whitespace().map(String::from).collect();
                tokens
            })
            .filter_map(|token| store.lookup_id(doc, &token))
            .collect();
        store.sort_distinct(&mut by_string);
        assert_eq!(id_nodes(&store, doc, &args), by_string);
    }

    #[test]
    fn doc_order_is_preorder_with_attributes_before_children() {
        let mut store = NodeStore::new();
        let doc = sample(&mut store);
        let root = store.document_element(doc).unwrap();
        let a = store.axis_nodes(root, Axis::Child, &NodeTest::Name("a".into()))[0];
        let attr = store.axis_nodes(a, Axis::Attribute, &NodeTest::AnyElement)[0];
        let b = store.axis_nodes(a, Axis::Child, &NodeTest::Name("b".into()))[0];
        assert_eq!(store.doc_order(root, a), Ordering::Less);
        assert_eq!(store.doc_order(a, attr), Ordering::Less);
        assert_eq!(store.doc_order(attr, b), Ordering::Less);
        assert_eq!(store.doc_order(b, b), Ordering::Equal);
    }

    #[test]
    fn doc_order_across_documents_follows_creation_order() {
        let mut store = NodeStore::new();
        let d1 = store.parse_document("<x/>").unwrap();
        let d2 = store.parse_document("<y/>").unwrap();
        let x = store.document_element(d1).unwrap();
        let y = store.document_element(d2).unwrap();
        assert_eq!(store.doc_order(x, y), Ordering::Less);
        assert_eq!(store.doc_order(y, x), Ordering::Greater);
    }

    #[test]
    fn sort_distinct_removes_duplicates_and_orders() {
        let mut store = NodeStore::new();
        let doc = sample(&mut store);
        let root = store.document_element(doc).unwrap();
        let all = store.axis_nodes(root, Axis::Descendant, &NodeTest::AnyElement);
        let mut shuffled: Vec<NodeId> = all.iter().rev().cloned().collect();
        shuffled.extend(all.iter().cloned());
        store.sort_distinct(&mut shuffled);
        assert_eq!(shuffled, all);
    }

    #[test]
    fn sort_distinct_ranks_a_fragment_whose_index_order_is_not_document_order() {
        let mut store = NodeStore::new();
        let doc = sample(&mut store);
        // Children created before their parent: arena order c1, c2, p but
        // document order p, c1, c2.
        let frag = store.new_fragment();
        let c1 = store.create_element(frag, QName::local("c1"));
        let c2 = store.create_element(frag, QName::local("c2"));
        let p = store.create_element(frag, QName::local("p"));
        store.append_child(p, c1).unwrap();
        store.append_child(p, c2).unwrap();
        assert!(!store.index_order_is_document_order(frag));
        let mut nodes = vec![c2, p, c1, c2, p];
        store.sort_distinct(&mut nodes);
        assert_eq!(nodes, vec![p, c1, c2]);

        // Mixed-document input: documents by creation order, ranks within.
        let root = store.document_element(doc).unwrap();
        let kids = store.axis_nodes(root, Axis::Child, &NodeTest::AnyElement);
        let mut mixed = vec![c2, kids[1], p, kids[0], c2, root, kids[1]];
        store.sort_distinct(&mut mixed);
        assert_eq!(mixed, vec![root, kids[0], kids[1], p, c2]);
    }

    #[test]
    fn descendant_and_ancestor_axes() {
        let mut store = NodeStore::new();
        let doc = sample(&mut store);
        let root = store.document_element(doc).unwrap();
        let descendants = store.axis_nodes(root, Axis::Descendant, &NodeTest::AnyElement);
        let names: Vec<_> = descendants
            .iter()
            .map(|&n| store.name(n).unwrap().local.clone())
            .collect();
        assert_eq!(names, vec!["a", "b", "c", "d", "e"]);

        let e = descendants[4];
        let ancestors = store.axis_nodes(e, Axis::Ancestor, &NodeTest::AnyNode);
        let anames: Vec<_> = ancestors
            .iter()
            .map(|&n| store.kind(n).kind_name().to_string())
            .collect();
        // d, r, document — innermost first.
        assert_eq!(anames, vec!["element", "element", "document"]);
    }

    #[test]
    fn sibling_axes() {
        let mut store = NodeStore::new();
        let doc = sample(&mut store);
        let root = store.document_element(doc).unwrap();
        let kids = store.axis_nodes(root, Axis::Child, &NodeTest::AnyElement);
        let (a, d) = (kids[0], kids[1]);
        assert_eq!(
            store.axis_nodes(a, Axis::FollowingSibling, &NodeTest::AnyElement),
            vec![d]
        );
        assert_eq!(
            store.axis_nodes(d, Axis::PrecedingSibling, &NodeTest::AnyElement),
            vec![a]
        );
        assert!(store
            .axis_nodes(a, Axis::PrecedingSibling, &NodeTest::AnyElement)
            .is_empty());
    }

    #[test]
    fn following_and_preceding_axes() {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document("<r><a><b/></a><c><d/></c></r>")
            .unwrap();
        let root = store.document_element(doc).unwrap();
        let a = store.axis_nodes(root, Axis::Child, &NodeTest::Name("a".into()))[0];
        let b = store.axis_nodes(a, Axis::Child, &NodeTest::Name("b".into()))[0];
        let following = store.axis_nodes(b, Axis::Following, &NodeTest::AnyElement);
        let names: Vec<_> = following
            .iter()
            .map(|&n| store.name(n).unwrap().local.clone())
            .collect();
        assert_eq!(names, vec!["c", "d"]);

        let d = following[1];
        let preceding = store.axis_nodes(d, Axis::Preceding, &NodeTest::AnyElement);
        let pnames: Vec<_> = preceding
            .iter()
            .map(|&n| store.name(n).unwrap().local.clone())
            .collect();
        // Reverse document order: b then a.
        assert_eq!(pnames, vec!["b", "a"]);
    }

    #[test]
    fn constructed_nodes_get_fresh_identity() {
        let mut store = NodeStore::new();
        let frag = store.new_fragment();
        let e1 = store.create_element(frag, QName::local("p"));
        let frag2 = store.new_fragment();
        let e2 = store.create_element(frag2, QName::local("p"));
        assert_ne!(e1, e2);
        assert_eq!(store.doc_order(e1, e2), Ordering::Less);
    }

    #[test]
    fn deep_copy_creates_new_identities_with_same_content() {
        let mut store = NodeStore::new();
        let doc = sample(&mut store);
        let root = store.document_element(doc).unwrap();
        let a = store.axis_nodes(root, Axis::Child, &NodeTest::Name("a".into()))[0];
        let frag = store.new_fragment();
        let copy = store.deep_copy(a, frag);
        assert_ne!(copy, a);
        assert_eq!(store.string_value(copy), store.string_value(a));
        assert_eq!(store.attribute_value(copy, "id"), Some("a1"));
        let copy_children = store.axis_nodes(copy, Axis::Child, &NodeTest::AnyElement);
        assert_eq!(copy_children.len(), 2);
    }

    #[test]
    fn append_child_rejects_cross_document_and_reparenting() {
        let mut store = NodeStore::new();
        let f1 = store.new_fragment();
        let f2 = store.new_fragment();
        let p = store.create_element(f1, QName::local("p"));
        let q = store.create_element(f2, QName::local("q"));
        assert!(store.append_child(p, q).is_err());

        let r = store.create_element(f1, QName::local("r"));
        store.append_child(p, r).unwrap();
        let p2 = store.create_element(f1, QName::local("p2"));
        assert!(store.append_child(p2, r).is_err());
    }

    #[test]
    fn snapshot_freeze_rejects_interleaved_mutation() {
        let mut store = NodeStore::new();
        let doc = sample(&mut store);
        let root = store.document_element(doc).unwrap();

        // Clean pin → freeze succeeds and reads work.
        let pin = store.pin();
        {
            let snap = pin.freeze(&store).expect("unmutated store freezes");
            assert_eq!(snap.epoch(), store.load_epoch());
            assert_eq!(snap.revision(), store.revision());
            assert_eq!(snap.document_element(doc), Some(root));
        }

        // Structural mutation without node creation (append_child) must
        // still invalidate the pin.
        let pin = store.pin();
        let fresh = store.create_element(doc, QName::local("z"));
        store.append_child(root, fresh).unwrap();
        let err = pin.freeze(&store).unwrap_err();
        assert!(matches!(err, XdmError::StaleSnapshot(_)), "{err}");

        // A parse (epoch move) invalidates too.
        let pin = store.pin();
        store.parse_document("<x/>").unwrap();
        assert!(matches!(
            pin.freeze(&store),
            Err(XdmError::StaleSnapshot(_))
        ));

        // Re-pinning after the mutations freezes fine again.
        let pin = store.pin();
        assert!(pin.freeze(&store).is_ok());
    }

    #[test]
    fn snapshot_reads_are_shareable_across_threads() {
        let mut store = NodeStore::new();
        let doc = sample(&mut store);
        // Leave the derived state dirty on one fragment so the lazy
        // rebuild happens under contention at least sometimes.
        let frag = store.new_fragment();
        let child = store.create_element(frag, QName::local("child"));
        let parent = store.create_element(frag, QName::local("parent"));
        store.append_child(parent, child).unwrap();

        let snap = store.snapshot();
        let root = snap.document_element(doc).unwrap();
        let expected: Vec<NodeId> = snap.axis_nodes(root, Axis::Descendant, &NodeTest::AnyElement);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let mut shuffled: Vec<NodeId> = expected.iter().rev().copied().collect();
                        snap.sort_distinct(&mut shuffled);
                        assert_eq!(shuffled, expected);
                        assert_eq!(snap.lookup_id(doc, "a1"), Some(expected[0]));
                        assert_eq!(snap.doc_order(parent, child), Ordering::Less);
                        assert!(!snap.index_order_is_document_order(frag));
                    }
                });
            }
        });
    }
}
