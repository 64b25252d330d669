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
//! one by one); document-order ranks, the ID index and the shape statistics
//! are computed on first use after a mutation.
//!
//! # The arena
//!
//! A document is one `Vec` of 32-byte `Copy` records and nothing else: a
//! node's kind with its payload symbols, and five links (parent, first and
//! last child, next sibling, first attribute) that are indexes into the same
//! `Vec`.  Names and text payloads are symbols of the two store-owned,
//! `Arc`-shared tables ([`NameTable`], [`TextPool`]), so a node owns no heap
//! block, copying a document is a `memcpy`, a name test compares integers,
//! and every tree walk — axes, string values, deep copies, the derived
//! state's build — follows links without a stack or a scratch vector.
//!
//! # Sharing a store across threads
//!
//! A document is an immutable shared value.  The store holds its documents
//! as `Arc<Document>`, so cloning a store (a session's copy-on-write
//! divergence, the service's `publish()`) copies one pointer per document
//! and no node.  Every mutation goes through one private function,
//! `doc_mut`: it takes the document exclusively ([`Arc::make_mut`] — a
//! document some other store still holds is copied first, and only that
//! document) and drops its derived state.
//!
//! Everything derived from a document's nodes and ID declarations — order
//! ranks, the ID index, whether arena order is document order, its
//! [`DocumentStatistics`], and the memo of its string-value concatenations
//! — lives in one `OnceLock` inside the document.  It is built by whichever
//! reader needs it first, through `&NodeStore`, and every store, snapshot
//! and session holding that document then reads the same copy.  "Is this
//! derived state stale?" is answered by ownership, not by a tag: a shared
//! document cannot change, and a mutated one has had its derived state
//! taken away.  An `id()` probe is therefore one atomic load plus one probe
//! of that index; the only lock on a read path is the per-document `Mutex`
//! around the string-value memo, held for a lookup or an insert and never
//! while a concatenation is rendered.  `NodeStore` is [`Sync`]: the parallel
//! fixpoint drivers hand one `&NodeStore` to every shard of a scoped thread
//! pool.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::error::XdmError;
use crate::hash::IdMap;
use crate::intern::{NameId, NameTable, StrId, TextPool};
use crate::node::{Axis, Matcher, NodeId, NodeKind, NodeTest, QName};
use crate::stats::{DocumentStatistics, StoreStatistics};
use crate::value::UText;
use crate::Result;

/// Identifier of a document inside a [`NodeStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

/// "No node": the value of a link that leads nowhere.  Arena indexes stay
/// below it ([`Document::push`]).
const NIL: u32 = u32::MAX;

/// One node of a document arena: 32 bytes, `Copy`, no heap block of its
/// own.  The tree is the links — arena indexes into the same document, or
/// [`NIL`]:
///
/// * `parent` — the owner element for an attribute;
/// * `first_child` / `last_child` — ends of the child list (elements, text,
///   comments, PIs; never attributes);
/// * `next_sibling` — the next child of the same parent, or, on an
///   attribute, the owner's next attribute;
/// * `first_attr` — head of an element's attribute list.
///
/// Attributes have no children, so the *head* attribute's `last_child`
/// holds the tail of the attribute list: appending an attribute is O(1)
/// however many the element has.
#[derive(Debug, Clone, Copy)]
struct NodeData {
    kind: NodeKind,
    parent: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
    first_attr: u32,
}

impl NodeData {
    fn new(kind: NodeKind) -> Self {
        NodeData {
            kind,
            parent: NIL,
            first_child: NIL,
            last_child: NIL,
            next_sibling: NIL,
            first_attr: NIL,
        }
    }
}

/// The node a link leads to, if any.
fn link(to: u32) -> Option<u32> {
    (to != NIL).then_some(to)
}

/// `first` and everything reachable from it over `next_sibling`: a child
/// list from `first_child`, an attribute list from `first_attr`.
fn chain(nodes: &[NodeData], first: u32) -> impl Iterator<Item = u32> + '_ {
    std::iter::successors(link(first), move |&n| link(nodes[n as usize].next_sibling))
}

/// The descendants of `root` in document order (attributes excluded), found
/// over the links alone: no stack, so a deep tree costs what a flat one
/// does.  After `next()` returned a node, `depth` is that node's distance
/// from `root`.
struct Descendants<'a> {
    nodes: &'a [NodeData],
    root: u32,
    cur: u32,
    depth: u64,
}

fn descendants(nodes: &[NodeData], root: u32) -> Descendants<'_> {
    Descendants {
        nodes,
        root,
        cur: root,
        depth: 0,
    }
}

impl Iterator for Descendants<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let down = self.nodes[self.cur as usize].first_child;
        if down != NIL {
            self.cur = down;
            self.depth += 1;
            return Some(down);
        }
        while self.cur != self.root {
            let n = &self.nodes[self.cur as usize];
            if n.next_sibling != NIL {
                self.cur = n.next_sibling;
                return Some(self.cur);
            }
            self.cur = n.parent;
            self.depth -= 1;
        }
        None
    }
}

/// Everything computed from a document's nodes and ID declarations, built
/// once per document value and shared by every store holding it.
#[derive(Debug)]
struct Derived {
    /// `order[i]` is the document-order rank of node `i`.
    order: Vec<u32>,
    /// Map from ID value (as its text-pool symbol) to the first element
    /// carrying it.  Keying on [`StrId`] makes the build allocation-free
    /// and lets `fn:id` probe with an argument node's payload symbol as is.
    id_index: IdMap<StrId, u32>,
    /// `true` when arena index order coincides with document order (always
    /// the case for parsed documents; constructed fragments may diverge).
    /// Lets [`crate::NodeSet`] emit document order straight from its bitmaps.
    index_is_order: bool,
    /// The document's share of [`NodeStore::statistics`].
    stats: DocumentStatistics,
    /// Memo of element/document `string_value` concatenations by arena
    /// index — atomizing the same element across fixpoint iterations
    /// re-renders nothing.  Filled through shared references, hence the
    /// `Mutex`; it only ever holds values that are true of this document.
    text_memo: Mutex<IdMap<u32, Arc<str>>>,
}

impl Derived {
    /// `names` is the name table of whichever store asks first; any store
    /// holding this document resolves the ids its nodes carry alike (see
    /// [`NameTable`]).
    fn build(nodes: &[NodeData], id_attr_names: &[String], names: &NameTable) -> Self {
        let mut order = vec![0; nodes.len()];
        let mut max_depth = 0;
        let mut rank = 0u32;
        let mut assign = |node: u32| {
            for n in std::iter::once(node).chain(chain(nodes, nodes[node as usize].first_attr)) {
                order[n as usize] = rank;
                rank += 1;
            }
        };
        // Every node that has no parent is a root of its own fragment;
        // fragments are ordered by arena index of their roots.
        for root in (0..nodes.len() as u32).filter(|&n| nodes[n as usize].parent == NIL) {
            assign(root);
            let mut below = descendants(nodes, root);
            while let Some(node) = below.next() {
                assign(node);
                // Attributes count as nodes but not as depth.
                max_depth = max_depth.max(below.depth);
            }
        }
        let id_index = build_id_index(nodes, id_attr_names, names);
        Derived {
            index_is_order: order.windows(2).all(|w| w[0] < w[1]),
            order,
            stats: document_statistics(nodes, max_depth, id_index.len() as u64),
            id_index,
            text_memo: Mutex::default(),
        }
    }
}

fn build_id_index(
    nodes: &[NodeData],
    id_attr_names: &[String],
    names: &NameTable,
) -> IdMap<StrId, u32> {
    // `id` covers the `xml:id` spelling too (prefixes are not significant
    // here).
    let id_typed: Vec<Matcher<'_>> = std::iter::once("id")
        .chain(id_attr_names.iter().map(String::as_str))
        .map(|name| Matcher::attribute(name, names))
        .collect();
    let mut id_index = IdMap::default();
    for (idx, node) in nodes.iter().enumerate() {
        for attr in chain(nodes, node.first_attr) {
            let kind = &nodes[attr as usize].kind;
            if let NodeKind::Attribute(_, value) = kind {
                if id_typed.iter().any(|m| m.matches(kind)) {
                    id_index.entry(*value).or_insert(idx as u32);
                }
            }
        }
    }
    id_index
}

fn document_statistics(nodes: &[NodeData], max_depth: u64, id_entries: u64) -> DocumentStatistics {
    let mut d = DocumentStatistics {
        nodes: nodes.len() as u64,
        max_depth,
        id_entries,
        ..Default::default()
    };
    for node in nodes {
        match node.kind {
            NodeKind::Element(_) => d.elements += 1,
            NodeKind::Attribute(..) => d.attributes += 1,
            NodeKind::Text(_) => d.text_nodes += 1,
            _ => {}
        }
        let fanout = chain(nodes, node.first_child).count() as u64;
        if fanout > 0 {
            d.parents += 1;
            d.child_links += fanout;
            d.max_fanout = d.max_fanout.max(fanout);
        }
    }
    d
}

/// Take the memo lock even if a previous holder panicked: every update is
/// one whole-entry insert, so the map is valid at every step.
fn mutex_lock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// What one memoized concatenation is accounted at against a
/// [`QueryBudget`](crate::QueryBudget): charged on insert, credited by
/// [`NodeStore::release_memory`].
fn memo_cost(text: &str) -> u64 {
    text.len() as u64 + 64
}

/// A single document (or constructed tree fragment) in the store.
#[derive(Debug, Default)]
struct Document {
    nodes: Vec<NodeData>,
    /// Attribute names treated as ID-typed (in addition to `xml:id`/`id`).
    id_attr_names: Vec<String>,
    /// Optional URI this document was loaded under (used by `fn:doc`).
    /// Shares one allocation with the store's `by_uri` key.
    uri: Option<Arc<str>>,
    /// Built on first use, dropped by `NodeStore::doc_mut`; see [`Derived`].
    derived: OnceLock<Derived>,
}

/// The copy `NodeStore::doc_mut` makes of a document another store still
/// holds — one `memcpy` of the arena.  It is about to be mutated, so its
/// derived state starts unbuilt.
impl Clone for Document {
    fn clone(&self) -> Self {
        Document {
            nodes: self.nodes.clone(),
            id_attr_names: self.id_attr_names.clone(),
            uri: self.uri.clone(),
            derived: OnceLock::new(),
        }
    }
}

impl Document {
    fn derived(&self, names: &NameTable) -> &Derived {
        self.derived
            .get_or_init(|| Derived::build(&self.nodes, &self.id_attr_names, names))
    }

    /// Add an unattached node.  Arena growth is charged, byte for byte, to
    /// any installed per-query budget.
    fn push(&mut self, kind: NodeKind) -> u32 {
        let idx = self.nodes.len();
        assert!(idx < NIL as usize, "document arena is full");
        let held = self.nodes.capacity();
        self.nodes.push(NodeData::new(kind));
        let grown = self.nodes.capacity() - held;
        if grown > 0 {
            crate::budget::charge((grown * std::mem::size_of::<NodeData>()) as u64);
        }
        idx as u32
    }

    /// Make the parentless `child` the last child of `parent`.
    fn link_child(&mut self, parent: u32, child: u32) {
        let last = std::mem::replace(&mut self.nodes[parent as usize].last_child, child);
        match last {
            NIL => self.nodes[parent as usize].first_child = child,
            last => self.nodes[last as usize].next_sibling = child,
        }
        self.nodes[child as usize].parent = parent;
    }

    /// Make `attr` the last attribute of `element`.
    fn link_attribute(&mut self, element: u32, attr: u32) {
        let head = match self.nodes[element as usize].first_attr {
            NIL => {
                self.nodes[element as usize].first_attr = attr;
                attr
            }
            head => {
                let tail = self.nodes[head as usize].last_child;
                self.nodes[tail as usize].next_sibling = attr;
                head
            }
        };
        // The head attribute remembers the tail (see [`NodeData`]).
        self.nodes[head as usize].last_child = attr;
        self.nodes[attr as usize].parent = element;
    }
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
    /// A genuine concatenation, from the document's memo.
    Concat(Arc<str>),
}

/// The arena owning every document and node of a query run.
///
/// See the [module documentation](self) for the design rationale.
#[derive(Debug, Default)]
pub struct NodeStore {
    /// Shared, immutable document values; mutated only through
    /// [`doc_mut`](NodeStore::doc_mut).
    docs: Vec<Arc<Document>>,
    /// URI → document index, for `fn:doc` stability (same URI, same nodes).
    /// Keys share their allocation with `Document::uri`.
    by_uri: HashMap<Arc<str>, u32>,
    /// The store-owned text payload pool: every text-shaped payload
    /// (attribute values, text/comment content, PI targets and content) is
    /// interned here at creation time and carried in [`NodeKind`] as a
    /// [`StrId`].  `Arc`-shared, so cloning the store (the service layer's
    /// `publish()`) shares the table instead of copying every string.
    text: TextPool,
    /// The store-owned table of element and attribute names, carried in
    /// [`NodeKind`] as [`NameId`]s; shared and diverged like `text`.
    names: NameTable,
    /// Count of nodes ever created, across all documents.
    nodes_created: u64,
    /// Bumped by **every** mutating method (node construction, attachment,
    /// parses, ID registrations): this counter moves exactly when the
    /// store's node data could have changed; the service layer names a
    /// published snapshot by it.
    revision: u64,
    /// Lifetime count of `fn:id` probes answered by a document's ID index
    /// ([`NodeStore::id_probe_hits`]).  Monotonic telemetry that publishes
    /// no other data, so `Relaxed` ordering suffices.
    id_probe_hits: AtomicU64,
    /// [`NodeStore::statistics`] as last assembled; emptied by every
    /// mutation ([`touch`](NodeStore::touch)).
    stats: OnceLock<Arc<StoreStatistics>>,
}

/// O(documents): one pointer per document, no node.  The clone shares every
/// document — derived state included, built or not — the text pool and the
/// name table with `self` until either side mutates.
impl Clone for NodeStore {
    fn clone(&self) -> Self {
        NodeStore {
            docs: self.docs.clone(),
            by_uri: self.by_uri.clone(),
            text: self.text.clone(),
            names: self.names.clone(),
            nodes_created: self.nodes_created,
            revision: self.revision,
            id_probe_hits: AtomicU64::new(self.id_probe_hits.load(Relaxed)),
            stats: self.stats.clone(),
        }
    }
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

    /// The store's mutation revision: bumped by every mutating method.
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

    /// Record that the store is about to change: moves the revision and
    /// drops the statistics assembled for the previous one.
    fn touch(&mut self) {
        self.revision += 1;
        self.stats.take();
    }

    /// Exclusive access to one document — the only way a document is ever
    /// mutated.  A document another store still holds is copied first (that
    /// document, no other); its derived state is dropped either way, so a
    /// reader can never meet derived state older than the nodes.
    fn doc_mut(&mut self, doc: u32) -> &mut Document {
        self.touch();
        let d = Arc::make_mut(&mut self.docs[doc as usize]);
        d.derived.take();
        d
    }

    fn push_document(&mut self, doc: Document) -> DocId {
        self.touch();
        // The record and its `Arc` counters, plus the slot in `docs`.
        crate::budget::charge(std::mem::size_of::<Document>() as u64 + 24);
        self.docs.push(Arc::new(doc));
        DocId(self.docs.len() as u32 - 1)
    }

    /// Create a fresh, empty document with a document node as its root.
    pub fn new_document(&mut self) -> DocId {
        let mut doc = Document::default();
        doc.push(NodeKind::Document);
        self.nodes_created += 1;
        self.push_document(doc)
    }

    /// Create a fresh document *without* a document node; used for trees
    /// built by element constructors, whose roots are parentless elements.
    pub fn new_fragment(&mut self) -> DocId {
        self.push_document(Document::default())
    }

    /// Parse `text` as an XML document and add it to the store.  Text that
    /// is not well-formed leaves the store as it was: no document, no node
    /// counted, no name or payload interned.
    pub fn parse_document(&mut self, text: &str) -> Result<DocId> {
        let (docs, nodes) = (self.docs.len(), self.nodes_created);
        let (payloads, names) = (self.text.len(), self.names.len());
        match crate::parse::parse_into(self, text) {
            Ok(doc) => {
                // A loaded document is read, not grown: give back the slack
                // the arena's last doubling left.
                self.doc_mut(doc.0).nodes.shrink_to_fit();
                Ok(doc)
            }
            Err(e) => {
                self.touch();
                self.docs.truncate(docs);
                self.nodes_created = nodes;
                self.text.truncate(payloads);
                self.names.truncate(names);
                Err(e)
            }
        }
    }

    /// Parse `text` and register it under `uri` so that subsequent
    /// [`NodeStore::doc`] calls with the same URI return the same nodes.
    pub fn parse_document_with_uri(&mut self, uri: &str, text: &str) -> Result<DocId> {
        if let Some(&idx) = self.by_uri.get(uri) {
            return Ok(DocId(idx));
        }
        let doc = self.parse_document(text)?;
        // One allocation, shared by the document record and the URI index.
        let uri: Arc<str> = Arc::from(uri);
        self.doc_mut(doc.0).uri = Some(uri.clone());
        self.by_uri.insert(uri, doc.0);
        Ok(doc)
    }

    /// Look up a document previously registered under `uri`.
    pub fn doc(&self, uri: &str) -> Option<DocId> {
        self.by_uri.get(uri).map(|&idx| DocId(idx))
    }

    /// The document node (node 0) of `doc`, if the document has one.
    pub fn document_node(&self, doc: DocId) -> Option<NodeId> {
        let d = self.docs.get(doc.0 as usize)?;
        let first = d.nodes.first()?;
        matches!(first.kind, NodeKind::Document).then_some(NodeId::new(doc.0, 0))
    }

    /// The root element of `doc` (the single element child of the document
    /// node), if any.
    pub fn document_element(&self, doc: DocId) -> Option<NodeId> {
        let root = self.document_node(doc)?;
        self.child_ids(root).find(|&c| self.kind(c).is_element())
    }

    /// Declare that attributes named `name` are ID-typed in `doc` (mirrors a
    /// DTD `#ID` declaration, e.g. `code` in the paper's curriculum data).
    /// On a document other stores share this is the one O(document) copy a
    /// writer pays: the ID index is part of the shared derived state.
    pub fn register_id_attribute(&mut self, doc: DocId, name: &str) {
        let declared = |d: &Arc<Document>| d.id_attr_names.iter().any(|n| n == name);
        if self.docs.get(doc.0 as usize).is_some_and(|d| !declared(d)) {
            self.doc_mut(doc.0).id_attr_names.push(name.to_string());
        }
    }

    /// Find the element in `doc` whose ID-typed attribute equals `value`.
    ///
    /// One probe of the document's ID index (built first if this is the
    /// first read since the document was mutated, so a probe never sees a
    /// stale index).  Works from shared references, including reads of one
    /// snapshot from several threads, and takes no lock.  The index is
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
        let found = d.derived(&self.names).id_index.get(&sym).copied();
        found.map(|n| NodeId::new(doc.0, n))
    }

    /// `fn:id(args)` anchored at `doc`: append to `out`, for every node of
    /// `args`, the elements of `doc` whose ID equals a whitespace-separated
    /// token of the node's string value (duplicates kept — callers order
    /// and deduplicate).
    ///
    /// Attribute and text payloads already *are* text-pool symbols and the
    /// ID index is keyed by symbol, so a whitespace-free payload probes the
    /// index as is — no string is hashed, no value handle cloned.
    /// IDREFS-style payloads and genuine element concatenations are
    /// tokenised first.
    pub fn lookup_id_nodes(&self, doc: DocId, args: &[NodeId], out: &mut Vec<NodeId>) {
        let Some(d) = self.docs.get(doc.0 as usize) else {
            return;
        };
        let id_index = &d.derived(&self.names).id_index;
        let mut probes = 0u64;
        let mut probe = |sym: StrId| {
            probes += 1;
            if let Some(&n) = id_index.get(&sym) {
                out.push(NodeId::new(doc.0, n));
            }
        };
        let mut probe_tokens = |text: &str, whole: Option<StrId>| {
            let mut tokens = text.split_whitespace();
            match (tokens.next(), whole) {
                (None, _) => {}
                (Some(first), Some(sym)) if first.len() == text.len() => probe(sym),
                (Some(first), _) => std::iter::once(first)
                    .chain(tokens)
                    .filter_map(|token| self.text.get(token))
                    .for_each(&mut probe),
            }
        };
        for &arg in args {
            let sym = match self.string_value_sym(arg) {
                Some(sym) => sym,
                None => match self.container_text(arg) {
                    ContainerText::Empty => continue,
                    ContainerText::Sym(sym) => sym,
                    ContainerText::Concat(text) => {
                        probe_tokens(&text, None);
                        continue;
                    }
                },
            };
            probe_tokens(self.text.resolve(sym), Some(sym));
        }
        self.id_probe_hits.fetch_add(probes, Relaxed);
    }

    /// Lifetime count of `fn:id` probes a document's ID index answered —
    /// found or not; a value the text pool has never seen is refused before
    /// it reaches an index and is not counted.  The name dates from a probe
    /// memo that no longer exists; it is kept for the benchmark adapter and
    /// retires with it (ROADMAP 1a).
    pub fn id_probe_hits(&self) -> u64 {
        self.id_probe_hits.load(Relaxed)
    }

    /// Drop the recomputable string-value memos of every document this
    /// store holds, returning an estimate of the bytes freed — what filling
    /// them charged.
    ///
    /// This is the store's contribution to budget *relief* (see
    /// [`crate::budget`]): under memory pressure a driver trades this
    /// cache — repopulated lazily, at recompute cost — for headroom before
    /// failing the query.  Works through `&self`; other holders of the
    /// same documents simply see a cold memo afterwards.
    pub fn release_memory(&self) -> u64 {
        let mut freed = 0u64;
        for derived in self.docs.iter().filter_map(|d| d.derived.get()) {
            let memo = std::mem::take(&mut *mutex_lock(&derived.text_memo));
            freed += memo.values().map(|text| memo_cost(text)).sum::<u64>();
        }
        freed
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// Shape statistics over every document in the store: node counts per
    /// kind, child-axis fanout, tree depth, `id()` index density and
    /// text-pool size.  Each document is walked once, when its derived
    /// state is built; this call adds the per-document summaries up —
    /// `O(documents)` — and keeps the sum until the next mutation, so the
    /// cost model can call it on every execution.  Works through `&self`.
    pub fn statistics(&self) -> Arc<StoreStatistics> {
        Arc::clone(self.stats.get_or_init(|| {
            let derived = self.docs.iter().map(|d| d.derived(&self.names));
            let per_document: Vec<_> = derived.map(|d| d.stats).collect();
            let mut totals = DocumentStatistics::default();
            per_document.iter().for_each(|d| totals.absorb(d));
            Arc::new(StoreStatistics {
                revision: self.revision,
                documents: self.docs.len() as u64,
                per_document,
                totals,
                text_pool_strings: self.text.len() as u64,
            })
        }))
    }

    // ------------------------------------------------------------------
    // Node construction
    // ------------------------------------------------------------------

    fn push_node(&mut self, doc: DocId, kind: NodeKind) -> NodeId {
        let idx = self.doc_mut(doc.0).push(kind);
        self.nodes_created += 1;
        NodeId::new(doc.0, idx)
    }

    /// Create an unattached element node in `doc`.
    pub fn create_element(&mut self, doc: DocId, name: QName) -> NodeId {
        let name = self.names.intern(name.prefix.as_deref(), &name.local);
        self.push_node(doc, NodeKind::Element(name))
    }

    /// [`create_element`](NodeStore::create_element) from the lexical name
    /// `local` or `prefix:local`, no `QName` built in between: the XML
    /// parser's path, allocation-free for a name seen before.
    pub(crate) fn create_element_lexical(&mut self, doc: DocId, name: &str) -> NodeId {
        let name = self.names.intern_lexical(name);
        self.push_node(doc, NodeKind::Element(name))
    }

    /// Create an unattached text node in `doc` (the content is interned
    /// into the store's text pool).
    pub fn create_text(&mut self, doc: DocId, text: impl AsRef<str>) -> NodeId {
        let sym = self.text.intern(text.as_ref());
        self.push_node(doc, NodeKind::Text(sym))
    }

    /// Create an unattached comment node in `doc`.
    pub fn create_comment(&mut self, doc: DocId, text: impl AsRef<str>) -> NodeId {
        let sym = self.text.intern(text.as_ref());
        self.push_node(doc, NodeKind::Comment(sym))
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
        self.push_node(doc, NodeKind::ProcessingInstruction(target, content))
    }

    /// Attach `child` as the last child of `parent`.  Both must belong to the
    /// same document and `child` must not already have a parent.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> Result<()> {
        if parent.doc != child.doc {
            return Err(XdmError::WrongNodeKind(
                "append_child: parent and child belong to different documents".into(),
            ));
        }
        if self.data(child).parent != NIL {
            return Err(XdmError::WrongNodeKind(
                "append_child: child already has a parent".into(),
            ));
        }
        match self.kind(parent) {
            NodeKind::Element(_) | NodeKind::Document => {}
            other => {
                return Err(XdmError::WrongNodeKind(format!(
                    "append_child: cannot add children to a {} node",
                    other.kind_name()
                )))
            }
        }
        self.doc_mut(parent.doc).link_child(parent.node, child.node);
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
        let name = self.names.intern(name.prefix.as_deref(), &name.local);
        let sym = self.text.intern(value.as_ref());
        self.add_attribute_interned(element, name, sym)
    }

    /// [`add_attribute`](NodeStore::add_attribute) from the lexical name;
    /// see [`create_element_lexical`](NodeStore::create_element_lexical).
    pub(crate) fn add_attribute_lexical(
        &mut self,
        element: NodeId,
        name: &str,
        value: &str,
    ) -> Result<NodeId> {
        let name = self.names.intern_lexical(name);
        let sym = self.text.intern(value);
        self.add_attribute_interned(element, name, sym)
    }

    /// Add an attribute whose name and value are already symbols of this
    /// store's name table and text pool — the allocation-free path
    /// constructor re-attachment takes.
    pub fn add_attribute_interned(
        &mut self,
        element: NodeId,
        name: NameId,
        value: StrId,
    ) -> Result<NodeId> {
        if !self.kind(element).is_element() {
            return Err(XdmError::WrongNodeKind(
                "add_attribute: target is not an element".into(),
            ));
        }
        let attr = self.push_node(DocId(element.doc), NodeKind::Attribute(name, value));
        self.doc_mut(element.doc)
            .link_attribute(element.node, attr.node);
        Ok(attr)
    }

    /// Deep-copy the subtree rooted at `node` into document `target`,
    /// returning the id of the copy's root.  Used by element constructors,
    /// which copy their content (new node identities!).  Copies are created
    /// in document order, each element's attributes right behind it.
    pub fn deep_copy(&mut self, node: NodeId, target: DocId) -> NodeId {
        let root = self.copy_node(node, target);
        // `src` is the node copied last and `dst` its copy; the walk needs
        // no stack because both trees carry parent links.
        let (mut src, mut dst) = (node, root);
        loop {
            // The next node of the subtree in document order, and the copy
            // it goes under.
            let mut next = self.data(src).first_child;
            let mut under = dst;
            while next == NIL {
                if src == node {
                    return root;
                }
                next = self.data(src).next_sibling;
                src.node = self.data(src).parent;
                under.node = self.data(under).parent;
            }
            src.node = next;
            dst = self.copy_node(src, target);
            self.doc_mut(target.0).link_child(under.node, dst.node);
        }
    }

    /// Copy `node` alone — kind, payload and attributes — into `target`.
    /// Names and payloads are symbols of this store already: nothing is
    /// re-interned, nothing allocated beyond the arena.
    fn copy_node(&mut self, node: NodeId, target: DocId) -> NodeId {
        let copy = self.push_node(target, *self.kind(node));
        let mut next = self.data(node).first_attr;
        while next != NIL {
            let attr = self.docs[node.doc as usize].nodes[next as usize];
            let attr_copy = self.push_node(target, attr.kind);
            self.doc_mut(target.0)
                .link_attribute(copy.node, attr_copy.node);
            next = attr.next_sibling;
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
        self.kind(node).name_id().map(|id| self.names.resolve(id))
    }

    /// The name behind a symbol carried by this store's nodes.
    ///
    /// # Panics
    /// Panics if `id` did not come from this store's name table.
    pub fn resolve_name(&self, id: NameId) -> &QName {
        self.names.resolve(id)
    }

    /// The node's parent, if any.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        link(self.data(node).parent).map(|p| NodeId::new(node.doc, p))
    }

    /// `first` and its `next_sibling` chain in `doc`, as node ids.
    fn chain_ids(&self, doc: u32, first: u32) -> impl Iterator<Item = NodeId> + '_ {
        let nodes = &self.docs[doc as usize].nodes;
        chain(nodes, first).map(move |n| NodeId::new(doc, n))
    }

    fn child_ids(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.chain_ids(node.doc, self.data(node).first_child)
    }

    /// The node's children (no attributes), in document order.
    pub fn children(&self, node: NodeId) -> Vec<NodeId> {
        self.child_ids(node).collect()
    }

    /// The node's attribute nodes.
    pub fn attributes(&self, node: NodeId) -> Vec<NodeId> {
        self.chain_ids(node.doc, self.data(node).first_attr)
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
        let wanted = Matcher::attribute(name, &self.names);
        let nodes = &self.docs[node.doc as usize].nodes;
        chain(nodes, self.data(node).first_attr).find_map(|a| match &nodes[a as usize].kind {
            kind @ NodeKind::Attribute(_, value) if wanted.matches(kind) => Some(*value),
            _ => None,
        })
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
    /// document concatenations come from the document's memo as a shared
    /// `Arc<str>`.
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
    /// concatenations).  This is what `Evaluator::atomize` hands out.
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

    /// The text of an element/document node.  Childless nodes and
    /// single-text-child elements — the dominant shapes in data-oriented
    /// documents — need no concatenation and touch nothing shared; a genuine
    /// concatenation is rendered once per document value and kept in the
    /// document's memo, charged to the budget of the query that rendered it.
    fn container_text(&self, node: NodeId) -> ContainerText {
        let d = &self.docs[node.doc as usize];
        let data = &d.nodes[node.node as usize];
        if data.first_child == NIL {
            return ContainerText::Empty;
        }
        if data.first_child == data.last_child {
            if let NodeKind::Text(t) = d.nodes[data.first_child as usize].kind {
                return ContainerText::Sym(t);
            }
        }
        let memo = &d.derived(&self.names).text_memo;
        if let Some(text) = mutex_lock(memo).get(&node.node) {
            return ContainerText::Concat(text.clone());
        }
        // Render outside the lock; a reader racing on the same node renders
        // the same text and the first insert wins.
        let mut out = String::new();
        self.collect_text(node, &mut out);
        let text: Arc<str> = Arc::from(out);
        match mutex_lock(memo).entry(node.node) {
            Entry::Occupied(first) => ContainerText::Concat(first.get().clone()),
            Entry::Vacant(slot) => {
                crate::budget::charge(memo_cost(&text));
                slot.insert(text.clone());
                ContainerText::Concat(text)
            }
        }
    }

    /// Append the text nodes below `node`, in document order.
    fn collect_text(&self, node: NodeId, out: &mut String) {
        let nodes = &self.docs[node.doc as usize].nodes;
        for n in descendants(nodes, node.node) {
            if let NodeKind::Text(t) = nodes[n as usize].kind {
                out.push_str(self.text.resolve(t));
            }
        }
    }

    // ------------------------------------------------------------------
    // Document order
    // ------------------------------------------------------------------

    fn order_rank(&self, node: NodeId) -> (u32, u32) {
        let derived = self.docs[node.doc as usize].derived(&self.names);
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
            Some(d) => d.derived(&self.names).index_is_order,
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
            // sorted and deduplicated in place — by arena index where that
            // is document order, by rank otherwise.
            let derived = self.docs[doc as usize].derived(&self.names);
            if derived.index_is_order {
                nodes.sort_unstable_by_key(|n| n.node);
            } else {
                nodes.sort_unstable_by_key(|n| derived.order[n.node as usize]);
            }
        } else {
            nodes.sort_by_cached_key(|&n| self.order_rank(n));
        }
        nodes.dedup();
    }

    // ------------------------------------------------------------------
    // Axes
    // ------------------------------------------------------------------

    /// The step `axis::test` over this store's nodes; see [`Step`].
    pub fn step<'s>(&'s self, axis: Axis, test: &'s NodeTest) -> Step<'s> {
        Step {
            store: self,
            axis,
            test: test.matcher(axis, &self.names),
        }
    }

    /// All nodes reachable from `node` along `axis` that satisfy `test`,
    /// in the axis's natural order (document order for forward axes,
    /// reverse document order for reverse axes).
    pub fn axis_nodes(&self, node: NodeId, axis: Axis, test: &NodeTest) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.step(axis, test).nodes_into(node, &mut out);
        out
    }

    // ------------------------------------------------------------------
    // Derived state
    // ------------------------------------------------------------------

    /// Build the derived state (order ranks, ID index, statistics) of every
    /// document that does not have it yet — `O(documents)` when all do.
    /// After this no reader pays a build inside a parallel section.
    pub fn refresh_all(&self) {
        for d in &self.docs {
            d.derived(&self.names);
        }
    }
}

/// One `axis::test` step over a store's nodes.  Its [`Matcher`] meets the
/// wanted name once and from then on checks every candidate of every
/// [`nodes_into`](Step::nodes_into) call by comparing integers: evaluate a
/// step over a whole focus set through one `Step`.
#[derive(Debug)]
pub struct Step<'s> {
    store: &'s NodeStore,
    axis: Axis,
    test: Matcher<'s>,
}

/// `first` and its ancestors, innermost first.
fn ancestors_or_self(nodes: &[NodeData], first: u32) -> impl Iterator<Item = u32> + '_ {
    std::iter::successors(link(first), move |&n| link(nodes[n as usize].parent))
}

/// The siblings after `node`, in document order (an attribute has none:
/// its `next_sibling` is the next attribute).
fn following_siblings(nodes: &[NodeData], node: u32) -> impl Iterator<Item = u32> + '_ {
    let data = &nodes[node as usize];
    let first = match data.kind {
        NodeKind::Attribute(..) => NIL,
        _ => data.next_sibling,
    };
    chain(nodes, first)
}

/// The siblings before `node`, in document order (none for an attribute).
fn preceding_siblings(nodes: &[NodeData], node: u32) -> impl Iterator<Item = u32> + '_ {
    let data = &nodes[node as usize];
    let first = match data.kind {
        NodeKind::Attribute(..) => NIL,
        _ if data.parent == NIL => NIL,
        _ => nodes[data.parent as usize].first_child,
    };
    chain(nodes, first).take_while(move |&sibling| sibling != node)
}

impl Step<'_> {
    /// Append the nodes the step selects from `node`, in the axis's natural
    /// order (document order for forward axes, reverse document order for
    /// reverse axes).
    pub fn nodes_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        let nodes = self.store.docs[node.doc as usize].nodes.as_slice();
        let emit = |n: u32, out: &mut Vec<NodeId>| {
            if self.test.matches(&nodes[n as usize].kind) {
                out.push(NodeId::new(node.doc, n));
            }
        };
        let subtree = |n: u32, out: &mut Vec<NodeId>| {
            emit(n, out);
            descendants(nodes, n).for_each(|d| emit(d, out));
        };
        let here = &nodes[node.node as usize];
        match self.axis {
            Axis::Child => chain(nodes, here.first_child).for_each(|c| emit(c, out)),
            Axis::Descendant => descendants(nodes, node.node).for_each(|d| emit(d, out)),
            Axis::DescendantOrSelf => subtree(node.node, out),
            Axis::Parent => link(here.parent).into_iter().for_each(|p| emit(p, out)),
            Axis::Ancestor => ancestors_or_self(nodes, here.parent).for_each(|p| emit(p, out)),
            Axis::AncestorOrSelf => ancestors_or_self(nodes, node.node).for_each(|p| emit(p, out)),
            Axis::FollowingSibling => {
                following_siblings(nodes, node.node).for_each(|s| emit(s, out))
            }
            Axis::PrecedingSibling => {
                let start = out.len();
                preceding_siblings(nodes, node.node).for_each(|s| emit(s, out));
                out[start..].reverse();
            }
            Axis::Following => {
                // Following siblings of self and of every ancestor, each
                // with their whole subtrees: innermost first is document
                // order.
                if here.kind.is_attribute() && here.parent != NIL {
                    // What follows an attribute first is its owner's content.
                    chain(nodes, nodes[here.parent as usize].first_child)
                        .for_each(|c| subtree(c, out));
                }
                for anchor in ancestors_or_self(nodes, node.node) {
                    following_siblings(nodes, anchor).for_each(|s| subtree(s, out));
                }
            }
            Axis::Preceding => {
                // Per anchor, the preceding siblings' subtrees in document
                // order, then reversed as a whole: nearest sibling first,
                // deepest/last node of each subtree first.
                for anchor in ancestors_or_self(nodes, node.node) {
                    let start = out.len();
                    preceding_siblings(nodes, anchor).for_each(|s| subtree(s, out));
                    out[start..].reverse();
                }
            }
            Axis::Attribute => chain(nodes, here.first_attr).for_each(|a| emit(a, out)),
            Axis::SelfAxis => emit(node.node, out),
        }
    }
}

// `NodeStore` read paths must stay shareable across the scoped thread pool;
// this fails to compile if a non-`Sync` field sneaks in.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<NodeStore>();
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
    fn a_node_is_one_32_byte_copy_record() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<NodeData>();
        assert!(std::mem::size_of::<NodeData>() <= 32);
    }

    #[test]
    fn prefixed_name_tests_select_what_their_unprefixed_twins_do() {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document("<r xml:id=\"r1\" id=\"r2\"><p:a/><a/><b/></r>")
            .unwrap();
        let r = store.document_element(doc).unwrap();
        let name = |n: &str| NodeTest::Name(n.into());
        let both = store.axis_nodes(r, Axis::Child, &name("a"));
        assert_eq!(both.len(), 2);
        assert_eq!(store.axis_nodes(r, Axis::Child, &name("p:a")), both);
        assert_eq!(store.axis_nodes(r, Axis::Child, &name("q:a")), both);
        let ids = store.axis_nodes(r, Axis::Attribute, &name("id"));
        assert_eq!(ids.len(), 2);
        assert_eq!(store.axis_nodes(r, Axis::Attribute, &name("xml:id")), ids);
        let attribute_id = NodeTest::Attribute(Some("xml:id".into()));
        assert_eq!(store.axis_nodes(r, Axis::Attribute, &attribute_id), ids);
        assert_eq!(store.attribute_value(r, "id"), Some("r1"));
        assert_eq!(store.attribute_value(r, "xml:id"), Some("r1"));
        // The prefix survives for serialization and `name()`.
        assert_eq!(store.name(both[0]).unwrap().to_string(), "p:a");
        assert_eq!(store.name(both[1]).unwrap().to_string(), "a");
        // A name no node carries: nothing, on any axis.
        assert!(store
            .axis_nodes(r, Axis::DescendantOrSelf, &name("p:zzz"))
            .is_empty());
        assert_eq!(store.attribute_value(r, "p:zzz"), None);
    }

    #[test]
    fn a_failed_parse_leaves_the_store_as_it_was() {
        let mut store = NodeStore::new();
        let doc = sample(&mut store);
        store.refresh_all();
        let before = (
            store.document_count(),
            store.nodes_created(),
            store.statistics(),
        );
        let (payloads, names) = (store.text.len(), store.names.len());
        for broken in [
            "<x fresh=\"payload\"><y>more</y>",
            "<x><unclosed></x>",
            "<x/><second/>",
            "<x>&nope;</x>",
        ] {
            assert!(store.parse_document(broken).is_err(), "{broken}");
            assert!(store.parse_document_with_uri("u.xml", broken).is_err());
        }
        assert_eq!(store.document_count(), before.0);
        assert_eq!(store.nodes_created(), before.1);
        let after = store.statistics();
        assert_eq!(
            (after.totals, after.fingerprint()),
            (before.2.totals, before.2.fingerprint())
        );
        assert_eq!((store.text.len(), store.names.len()), (payloads, names));
        assert_eq!(store.text_pool_get("payload"), None);
        assert_eq!(store.doc("u.xml"), None);
        // The store still works, and the URI is free for a good document.
        assert_eq!(store.lookup_id(doc, "a1").map(|n| n.node), Some(2));
        let good = store
            .parse_document_with_uri("u.xml", "<x fresh=\"payload\"/>")
            .unwrap();
        assert_eq!(good, DocId(before.0 as u32));
        assert_eq!(store.doc("u.xml"), Some(good));
        let x = store.document_element(good).unwrap();
        assert_eq!(store.attribute_value(x, "fresh"), Some("payload"));
    }

    #[test]
    fn attributes_have_no_siblings() {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document("<r><a x=\"1\" y=\"2\" z=\"3\"><b/><c/></a><d/></r>")
            .unwrap();
        let r = store.document_element(doc).unwrap();
        let a = store.children(r)[0];
        let attrs = store.attributes(a);
        assert_eq!(attrs.len(), 3);
        for &attr in &attrs {
            for axis in [Axis::FollowingSibling, Axis::PrecedingSibling] {
                assert!(store.axis_nodes(attr, axis, &NodeTest::AnyNode).is_empty());
            }
            assert_eq!(store.parent(attr), Some(a));
            assert!(store.children(attr).is_empty());
            assert!(store
                .axis_nodes(attr, Axis::Descendant, &NodeTest::AnyNode)
                .is_empty());
        }
        // Many attributes: the list keeps creation order.
        let e = store.create_element(doc, QName::local("e"));
        for i in 0..100 {
            store
                .add_attribute(e, QName::local(format!("a{i}")), i.to_string())
                .unwrap();
        }
        let values: Vec<String> = store
            .attributes(e)
            .into_iter()
            .map(|a| store.string_value(a))
            .collect();
        assert_eq!(values, (0..100).map(|i| i.to_string()).collect::<Vec<_>>());
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

        // Registering an ID attribute drops the document's derived state:
        // the earlier misses must NOT survive — both routes now find the elements.
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

        // Loading a new document leaves the old one alone; probes against
        // it still resolve correctly afterwards.
        let _ = store.parse_document("<x/>").unwrap();
        assert_eq!(store.lookup_id(doc, "c1"), Some(c1));
        assert_eq!(id_nodes(&store, doc, &next), vec![c2]);
    }

    #[test]
    fn id_probe_cache_sees_same_epoch_document_mutation() {
        // Mutating a document (construction) drops its derived state; the
        // next probe — by string or by symbol — must see the post-mutation
        // index.
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
        let _ = store.doc_order(root, fresh); // builds the derived state
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

    /// Which of `b`'s documents are the very allocation `a` holds.
    fn shared_docs(a: &NodeStore, b: &NodeStore) -> Vec<bool> {
        let pairs = a.docs.iter().zip(&b.docs);
        pairs.map(|(x, y)| Arc::ptr_eq(x, y)).collect()
    }

    #[test]
    fn clone_shares_every_document_and_its_derived_state() {
        let mut store = NodeStore::new();
        let doc = sample(&mut store);
        let cold = store.parse_document("<m>a<i/>b</m>").unwrap();
        store.refresh_all();
        store.docs[cold.0 as usize] = Arc::new((*store.docs[cold.0 as usize]).clone());
        assert!(store.docs[cold.0 as usize].derived.get().is_none());

        let clone = store.clone();
        assert_eq!(shared_docs(&store, &clone), vec![true, true]);
        assert!(clone.shares_text_pool(&store));
        // Built before the clone: the clone reads the writer's copy.
        assert!(std::ptr::eq(
            store.docs[doc.0 as usize].derived(&store.names),
            clone.docs[doc.0 as usize].derived(&clone.names)
        ));
        // Built through one holder after the clone: visible through the other.
        let m = clone.document_element(cold).unwrap();
        assert_eq!(clone.string_value(m), "ab");
        let built = store.docs[cold.0 as usize].derived.get().expect("shared");
        assert_eq!(mutex_lock(&built.text_memo).len(), 1);
        assert_eq!(store.statistics(), clone.statistics());
    }

    #[test]
    fn mutation_copies_only_the_mutated_document() {
        let mut store = NodeStore::new();
        let a = sample(&mut store);
        let b = store.parse_document("<x code=\"k\"/>").unwrap();
        store.refresh_all();
        let published = store.clone();
        let before = published.statistics();

        // The writer declares an ID attribute on a shared document: that
        // document is copied and loses its derived state, the other stays.
        store.register_id_attribute(b, "code");
        assert_eq!(shared_docs(&store, &published), vec![true, false]);
        assert!(store.docs[a.0 as usize].derived.get().is_some());
        assert!(store.docs[b.0 as usize].derived.get().is_none());
        assert!(published.docs[b.0 as usize].derived.get().is_some());
        assert!(store.lookup_id(b, "k").is_some());
        assert_eq!(published.lookup_id(b, "k"), None);

        // A session constructs on its clone: only fresh fragments differ.
        let mut session = published.clone();
        let frag = session.new_fragment();
        session.create_element(frag, QName::local("e"));
        assert_eq!(shared_docs(&session, &published), vec![true, true]);
        assert_eq!(published.document_count(), 2);
        assert_eq!(published.statistics(), before);
        assert_eq!(session.statistics().documents, 3);

        // A second mutation of a document the writer already owns copies
        // nothing: same allocation, derived state dropped again.
        store.refresh_all();
        let owned = Arc::as_ptr(&store.docs[b.0 as usize]);
        let x = store.document_element(b).unwrap();
        store.add_attribute(x, QName::local("id"), "z").unwrap();
        assert_eq!(Arc::as_ptr(&store.docs[b.0 as usize]), owned);
        assert!(store.docs[b.0 as usize].derived.get().is_none());
        assert_eq!(store.lookup_id(b, "z"), Some(x));
    }

    #[test]
    fn first_touch_of_a_cold_shared_document_races_to_one_answer() {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document("<r><m id=\"a\">x<i/>y</m><n id=\"b\"/></r>")
            .unwrap();
        let clones: Vec<NodeStore> = (0..8).map(|_| store.clone()).collect();
        let barrier = std::sync::Barrier::new(clones.len());
        let answers: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = clones
                .iter()
                .map(|clone| {
                    s.spawn(|| {
                        barrier.wait();
                        let m = clone.lookup_id(doc, "a").unwrap();
                        let derived: *const Derived =
                            clone.docs[doc.0 as usize].derived(&clone.names);
                        let stats = clone.statistics().fingerprint();
                        (m, clone.string_value(m), stats, derived as usize)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(answers[0].1, "xy");
        assert!(answers.iter().all(|a| *a == answers[0]), "{answers:?}");
    }

    #[test]
    fn string_value_memo_is_charged_when_filled_and_credited_when_released() {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document("<r><m>ab<i/>cd</m><s>one</s></r>")
            .unwrap();
        let root = store.document_element(doc).unwrap();
        let kids = store.children(root);
        let budget = crate::QueryBudget::new(u64::MAX);
        let _scope = crate::budget::install(budget.clone());
        budget.charge(1000);

        // A single-text-child element is not memoized and costs nothing.
        assert_eq!(store.string_value_ref(kids[1]).as_str(), "one");
        assert_eq!(budget.used(), 1000);
        // Two concatenations enter the memo; re-reading them is free.
        assert_eq!(store.string_value_ref(kids[0]).as_str(), "abcd");
        assert_eq!(store.string_value_ref(root).as_str(), "abcdone");
        let filled = budget.used();
        assert_eq!(filled, 1000 + (4 + 64) + (7 + 64));
        assert_eq!(store.string_value_ref(root).as_str(), "abcdone");
        assert_eq!(budget.used(), filled);

        // Releasing credits exactly what filling charged.
        budget.credit(store.release_memory());
        assert_eq!(budget.used(), 1000);
        assert_eq!(store.release_memory(), 0);
    }

    #[test]
    fn store_reads_are_shareable_across_threads() {
        let mut store = NodeStore::new();
        let doc = sample(&mut store);
        // Leave the derived state unbuilt on one fragment so its first
        // build happens under contention at least sometimes.
        let frag = store.new_fragment();
        let child = store.create_element(frag, QName::local("child"));
        let parent = store.create_element(frag, QName::local("parent"));
        store.append_child(parent, child).unwrap();

        let snap = &store;
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
