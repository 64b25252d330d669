//! The surface the perf ledger's adapter (`benchmark/src/api.rs`) still
//! names and the engine no longer has: `MuStrategy`, the table reads of a
//! fixpoint result and the executor's shard count.  Nothing in the engine
//! or its tests uses this module (CI fails when anything outside it names
//! what it holds); it goes when the adapter moves to [`FixpointStrategy`]
//! and [`Relation::items`] and stops setting a shard count.

use xqy_xdm::fixpoint::FixpointStrategy;
use xqy_xdm::NodeId;

use crate::exec::{Executor, Relation};

/// Strategy of the fixpoint driver, spelled after the µ / µ∆ operator pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuStrategy {
    /// The Naïve operator µ.
    Mu,
    /// The Delta operator µ∆.
    MuDelta,
}

impl MuStrategy {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            MuStrategy::Mu => "mu",
            MuStrategy::MuDelta => "mu-delta",
        }
    }
}

impl From<FixpointStrategy> for MuStrategy {
    fn from(strategy: FixpointStrategy) -> Self {
        match strategy {
            FixpointStrategy::Naive => MuStrategy::Mu,
            FixpointStrategy::Delta => MuStrategy::MuDelta,
        }
    }
}

impl From<MuStrategy> for FixpointStrategy {
    fn from(strategy: MuStrategy) -> Self {
        match strategy {
            MuStrategy::Mu => FixpointStrategy::Naive,
            MuStrategy::MuDelta => FixpointStrategy::Delta,
        }
    }
}

impl Relation {
    /// The `item` column, copied.
    #[doc(hidden)]
    pub fn item_nodes(&self) -> Vec<NodeId> {
        self.items().to_vec()
    }

    /// Column 1 of a batched result read as a `(seed, item)` table: the
    /// `item` column.
    ///
    /// # Panics
    /// Panics for any other column.
    #[doc(hidden)]
    pub fn col(&self, column: usize) -> ShimColumn<'_> {
        assert_eq!(column, 1, "the shim reads the item column only");
        ShimColumn(self.items())
    }
}

impl Executor {
    /// Does nothing: every fixpoint runs on the caller thread.
    #[doc(hidden)]
    pub fn set_threads(&mut self, _threads: usize) {}
}

/// The `item` column as the adapter reads it.
#[derive(Debug)]
pub struct ShimColumn<'a>(&'a [NodeId]);

impl<'a> ShimColumn<'a> {
    /// The column's cells.
    pub fn iter(&self) -> impl Iterator<Item = ShimCell> + 'a {
        self.0.iter().map(|&node| ShimCell(node))
    }
}

/// One cell of a [`ShimColumn`]: always a node.
#[derive(Debug, Clone, Copy)]
pub struct ShimCell(NodeId);

impl ShimCell {
    /// The node.
    pub fn as_node(&self) -> Option<NodeId> {
        Some(self.0)
    }
}
