//! The path-join kernel: a chain of location steps and `id()` probes run
//! over a whole node *set* in one pass.
//!
//! Every Table-2 recursion body has one shape, `$x/P/id(./Q)…`: name
//! steps, then an ID-index probe, then document order.  Both back-ends run
//! such a chain through one [`PathJoin`]:
//!
//! * the interpreter, for the maximal run of predicate-free steps, `.` and
//!   one-argument `id()` at the top of a path spine (`$x/s₁/…/sₙ`), and for
//!   such a step under its set route;
//! * the relational executor, for every maximal single-consumer chain of
//!   `Step`/`IdLookup` plan nodes.
//!
//! Each hop maps the current node set to the next one, as the paper's
//! MonetDB/XQuery back-end runs a location step as one physical operator
//! over a node set (staircase join, Grust et al., VLDB 2003).  A step runs
//! its prebuilt [`Step`] (matcher included) over every node of the set;
//! an `id()` hop makes one [`NodeStore::lookup_id_nodes`] call per run of
//! same-document nodes, which copies each node's slice of that document's
//! ID adjacency: each argument node resolves in its own document, as
//! `fn:id` over a relative path does.
//!
//! **No hop sorts.**  Every hop after the first is a function of its input
//! *set* — a predicate-free step and `id()` read nothing of a node but the
//! node — so between hops only duplicates matter.  They are removed with a
//! bitmap over arena indexes that is reused across hops and calls and
//! cleared by the nodes it kept ([`JoinScratch`]) — except after a child,
//! attribute or self step over a set already free of them, which cannot
//! make any: such a node has one parent (owner), so distinct inputs select
//! distinct nodes.  The result comes out
//! in no particular order: the caller makes document order once, at the
//! end — or not at all, where it folds the result as a set, as the
//! fixpoint driver does.
//!
//! The kernel keeps no state past its scratch, which lives as long as its
//! owner keeps it — one fixpoint run in the executor, one execution in the
//! interpreter.  The one thing built per document is the store's: the ID
//! adjacency an `id()` hop reads, kept in the document's derived state.

use crate::node::{Axis, NodeId, NodeTest};
use crate::store::{DocId, NodeStore, Step};

/// One hop of a [`PathJoin`].
#[derive(Debug, Clone, Copy)]
pub enum Hop<'t> {
    /// The predicate-free location step `axis::test`.
    Step(Axis, &'t NodeTest),
    /// One-argument `fn:id` over the current set: the elements whose ID is
    /// a whitespace-separated token of a node's string value, each node
    /// resolved in its own document.
    Id,
}

/// A hop with its step prebuilt.
#[derive(Debug)]
enum Op<'s> {
    Step(Axis, Step<'s>),
    Id,
}

/// A compiled chain of [`Hop`]s over one store; see the [module
/// docs](self).  Build it once and run it over as many node sets as
/// needed: the steps' matchers learn their names on the first call.  A
/// caller that runs a chain once feeds its hops to a [`JoinRun`] instead.
#[derive(Debug)]
pub struct PathJoin<'s> {
    store: &'s NodeStore,
    ops: Vec<Op<'s>>,
}

impl<'s> PathJoin<'s> {
    /// Compile `hops`, applied left to right, over `store`.
    pub fn new(store: &'s NodeStore, hops: impl IntoIterator<Item = Hop<'s>>) -> Self {
        let ops = hops.into_iter().map(|hop| Op::of(store, hop)).collect();
        PathJoin { store, ops }
    }

    /// Append to `out` the distinct nodes the chain selects from the nodes
    /// of `focus` — in any order, with any repetition — in no particular
    /// order.
    pub fn select_into(&self, focus: &[NodeId], scratch: &mut JoinScratch, out: &mut Vec<NodeId>) {
        let mut run = scratch.run(self.store, focus);
        for op in &self.ops {
            run.apply(op);
        }
        run.finish_into(out);
    }
}

impl<'s> Op<'s> {
    fn of(store: &'s NodeStore, hop: Hop<'s>) -> Self {
        match hop {
            Hop::Step(axis, test) => Op::Step(axis, store.step(axis, test)),
            Hop::Id => Op::Id,
        }
    }
}

/// The reusable buffers of path joins: two hop buffers and the duplicate
/// bitmap.  Starts empty, grows to the largest set and arena index it
/// meets, and is clean between runs.
#[derive(Debug, Default)]
pub struct JoinScratch {
    seen: Seen,
    cur: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl JoinScratch {
    /// Start a chain over `focus`; its hops follow one by one
    /// ([`JoinRun::hop`]).
    pub fn run<'a>(&'a mut self, store: &'a NodeStore, focus: &[NodeId]) -> JoinRun<'a> {
        self.cur.clear();
        self.cur.extend_from_slice(focus);
        JoinRun {
            store,
            distinct: focus.len() < 2,
            scratch: self,
        }
    }

    /// Drop every repeated node of `nodes`, keeping first occurrences in
    /// place — no sort, no hashing.
    pub fn dedupe(&mut self, nodes: &mut Vec<NodeId>) {
        self.seen.dedupe(nodes);
    }
}

/// One chain in progress: the current node set, which each [`hop`]
/// replaces with the distinct nodes it selects from it.  Nothing is
/// allocated past the scratch's own buffers.
///
/// [`hop`]: JoinRun::hop
#[derive(Debug)]
pub struct JoinRun<'a> {
    store: &'a NodeStore,
    scratch: &'a mut JoinScratch,
    /// The current set is known to hold no node twice.
    distinct: bool,
}

impl JoinRun<'_> {
    /// Apply one hop to the current set.
    pub fn hop(&mut self, hop: Hop<'_>) {
        self.apply(&Op::of(self.store, hop));
    }

    fn apply(&mut self, op: &Op<'_>) {
        let JoinScratch { seen, cur, next } = &mut *self.scratch;
        next.clear();
        match op {
            Op::Step(_, step) => {
                for &node in cur.iter() {
                    step.nodes_into(node, next);
                }
            }
            Op::Id => {
                for run in cur.chunk_by(|a, b| a.doc == b.doc) {
                    self.store.lookup_id_nodes(DocId(run[0].doc), run, next);
                }
            }
        }
        let one_parent = matches!(
            op,
            Op::Step(Axis::Child | Axis::Attribute | Axis::SelfAxis, _)
        );
        if !(self.distinct && one_parent) {
            seen.dedupe(next);
        }
        std::mem::swap(cur, next);
        self.distinct = true;
    }

    /// Append the current set to `out`, in no particular order.
    pub fn finish_into(self, out: &mut Vec<NodeId>) {
        if !self.distinct {
            self.scratch.seen.dedupe(&mut self.scratch.cur);
        }
        out.extend_from_slice(&self.scratch.cur);
    }
}

/// One bitmap over arena indexes per document met; all zero between calls.
#[derive(Debug, Default)]
struct Seen {
    docs: Vec<(u32, Vec<u64>)>,
}

impl Seen {
    /// The slot of `doc`'s bitmap, made on first use.
    fn slot(&mut self, doc: u32) -> usize {
        match self.docs.iter().position(|&(d, _)| d == doc) {
            Some(slot) => slot,
            None => {
                self.docs.push((doc, Vec::new()));
                self.docs.len() - 1
            }
        }
    }

    fn dedupe(&mut self, nodes: &mut Vec<NodeId>) {
        if nodes.len() < 2 {
            return;
        }
        let mut at = (u32::MAX, 0);
        nodes.retain(|node| {
            if node.doc != at.0 {
                at = (node.doc, self.slot(node.doc));
            }
            let words = &mut self.docs[at.1].1;
            let (word, bit) = (node.node as usize / 64, 1u64 << (node.node % 64));
            if word >= words.len() {
                words.resize(word + 1, 0);
            }
            let fresh = words[word] & bit == 0;
            words[word] |= bit;
            fresh
        });
        // Only kept nodes set bits: clearing their words cleans the map.
        let mut at = (u32::MAX, 0);
        for node in nodes.iter() {
            if node.doc != at.0 {
                at = (node.doc, self.slot(node.doc));
            }
            self.docs[at.1].1[node.node as usize / 64] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ddo_vec;

    /// `ddo(⋃ₙ n/hops)`, hop by hop and node by node: the reading the
    /// kernel must equal.
    fn per_node(store: &NodeStore, focus: &[NodeId], hops: &[Hop<'_>]) -> Vec<NodeId> {
        let mut set: Vec<NodeId> = focus.to_vec();
        for hop in hops {
            let mut next = Vec::new();
            for &node in &set {
                match hop {
                    Hop::Step(axis, test) => next.extend(store.axis_nodes(node, *axis, test)),
                    Hop::Id => store.lookup_id_nodes(DocId(node.doc), &[node], &mut next),
                }
            }
            set = next;
        }
        ddo_vec(store, set)
    }

    #[test]
    fn a_chain_of_steps_and_id_hops_equals_its_per_node_reading() {
        let mut store = NodeStore::new();
        let a = store
            .parse_document(
                "<site><people><person id=\"p1\"><sells ref=\"a1  a2\"/></person>\
                 <person id=\"p2\"><sells ref=\"a2 zz\"/></person></people>\
                 <auctions><auction id=\"a1\"><bidder person=\"p2\"/></auction>\
                 <auction id=\"a2\"><bidder person=\"p1\"/><bidder person=\"p2\"/></auction>\
                 </auctions></site>",
            )
            .unwrap();
        let b = store
            .parse_document(
                "<site><person id=\"p1\"><sells ref=\"a1\"/></person><auction id=\"a1\"/></site>",
            )
            .unwrap();
        let named = |n: &str| NodeTest::Name(n.into());
        let (sells, refs, bidder, person) = (
            named("sells"),
            named("ref"),
            named("bidder"),
            named("person"),
        );
        let hops = [
            Hop::Step(Axis::Child, &sells),
            Hop::Step(Axis::Attribute, &refs),
            Hop::Id,
            Hop::Step(Axis::Child, &bidder),
            Hop::Step(Axis::Attribute, &person),
            Hop::Id,
        ];
        let mut persons = Vec::new();
        for doc in [b, a] {
            let root = store.document_node(doc).unwrap();
            persons.extend(store.axis_nodes(root, Axis::Descendant, &person));
        }
        // Unordered, repeated, across two documents.
        let focus = [persons[2], persons[0], persons[1], persons[2]];
        // Distinct nodes, put in document order here.
        let select = |join: &PathJoin<'_>, focus: &[NodeId], scratch: &mut JoinScratch| {
            let mut out = Vec::new();
            join.select_into(focus, scratch, &mut out);
            let set = ddo_vec(&store, out.clone());
            assert_eq!(set.len(), out.len(), "{out:?}");
            set
        };
        let join = PathJoin::new(&store, hops);
        let mut scratch = JoinScratch::default();
        for _ in 0..2 {
            for take in 0..=focus.len() {
                let got = select(&join, &focus[..take], &mut scratch);
                assert_eq!(got, per_node(&store, &focus[..take], &hops), "{take}");
            }
        }
        // Empty chain: the focus as a set.
        let none = PathJoin::new(&store, []);
        let got = select(&none, &focus, &mut scratch);
        assert_eq!(got, ddo_vec(&store, focus.to_vec()));
    }

    #[test]
    fn dedupe_keeps_first_occurrences_and_leaves_the_bitmap_clean() {
        let n = |doc, node| NodeId::new(doc, node);
        let mut scratch = JoinScratch::default();
        let mut nodes = vec![n(1, 700), n(0, 3), n(1, 700), n(0, 64), n(0, 3), n(1, 2)];
        scratch.dedupe(&mut nodes);
        assert_eq!(nodes, [n(1, 700), n(0, 3), n(0, 64), n(1, 2)]);
        assert!(scratch
            .seen
            .docs
            .iter()
            .all(|(_, w)| w.iter().all(|&w| w == 0)));
        let mut again = vec![n(0, 3), n(0, 3)];
        scratch.dedupe(&mut again);
        assert_eq!(again, [n(0, 3)]);
    }
}
