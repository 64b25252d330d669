#![warn(missing_docs)]

//! # xqy-xdm — XQuery Data Model substrate
//!
//! This crate implements the data model layer that the rest of the
//! `xquery-ifp` workspace builds on: ordered, unranked trees of XML nodes
//! with stable node identities and a total document order, plus the item /
//! sequence value model of the XQuery Data Model (XDM).
//!
//! The design follows the needs of the paper *"An Inflationary Fixed Point
//! Operator in XQuery"* (Afanasiev et al., ICDE 2008):
//!
//! * node **identity** and **document order** must be stable so that the
//!   node-set operations `union` / `except` / `intersect`, the
//!   `fs:distinct-doc-order` function (`ddo`) and the *set-equality* relation
//!   `=ₛ` of the paper are well defined;
//! * node **construction** must create fresh identities on every invocation
//!   (this is what makes node constructors non-distributive);
//! * an **ID index** is needed for the `fn:id(·)` lookups used by the
//!   curriculum queries of the paper.
//!
//! The central type is [`NodeStore`], an arena that owns every document
//! (parsed or constructed) that a query run touches.  Nodes are addressed by
//! lightweight copyable [`NodeId`] handles.
//!
//! ```
//! use xqy_xdm::{NodeStore, Axis, NodeTest};
//!
//! let mut store = NodeStore::new();
//! let doc = store.parse_document("<a><b/><c>text</c></a>").unwrap();
//! let root = store.document_element(doc).unwrap();
//! let kids = store.axis_nodes(root, Axis::Child, &NodeTest::AnyElement);
//! assert_eq!(kids.len(), 2);
//! assert_eq!(store.string_value(kids[1]), "text");
//! ```

pub mod budget;
pub mod cow;
pub mod error;
pub mod fail;
pub mod fixpoint;
pub mod hash;
pub mod intern;
pub mod node;
pub mod nodeset;
pub mod ops;
mod parse;
pub mod pathjoin;
pub mod sequence;
pub mod serialize;
pub mod stats;
pub mod store;
pub mod value;

pub use budget::QueryBudget;
pub use cow::{CowStore, StoreMut};
pub use error::XdmError;
pub use fail::{FaultAction, FaultError, FaultTrigger};
pub use hash::{IdMap, IdSet};
pub use intern::{Interner, NameId, NameTable, StrId, TextPool};
pub use node::{Axis, Matcher, NodeId, NodeKind, NodeTest, QName};
pub use nodeset::NodeSet;
pub use ops::{ddo, ddo_vec, intersect, is_subset, node_except, node_union, set_equal};
pub use pathjoin::{Hop, JoinScratch, PathJoin};
pub use sequence::Sequence;
pub use stats::{DocumentStatistics, StoreStatistics};
pub use store::{sorted_count, tokenised_count, DocId, NodeStore, Step, StrView};
pub use value::{AtomicValue, Item, UText};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, XdmError>;
