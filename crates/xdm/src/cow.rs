//! Copy-on-write store handles for concurrent query execution.
//!
//! The serving layer executes many queries at once against one published
//! [`NodeStore`] behind an [`Arc`].  Reads need no coordination — the store
//! is `Sync` — but XQuery node *constructors* mutate the store, and a
//! construction performed by one session must never be visible to (or block)
//! another.  [`CowStore`] resolves this per session: it starts as a cheap
//! shared handle on the published store and transparently switches to a
//! private store on the first write ([`Arc::make_mut`]).  That private
//! store is a [`NodeStore::clone`]: one pointer per document, every
//! document and its derived state still shared with the published store.
//! What the session then constructs goes into fresh fragments of its own,
//! so a constructing query pays for the nodes it builds and not for the
//! documents it reads.
//!
//! [`StoreMut`] is the uniform handle the evaluator threads through its
//! call stack (the plan executor constructs nothing and takes a plain
//! `&NodeStore`): either classic exclusive access
//! (`&mut NodeStore`, the single-query engine path) or a copy-on-write
//! session store.  It `Deref`s to [`NodeStore`] so read paths are untouched;
//! `DerefMut` routes through [`CowStore::write`], which is where the
//! one-time switch happens.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::store::NodeStore;

/// A session-private copy-on-write view of a shared [`NodeStore`].
///
/// Cloning the handle's `Arc` is O(1); the backing store is cloned at most
/// once — O(documents), no node copied — on the first
/// [`write`](CowStore::write) while the `Arc` is still shared.  The clone
/// preserves every [`NodeId`](crate::NodeId) and continues the
/// [revision](NodeStore::revision) count, so node handles and
/// document-order state remain valid across the switch.
#[derive(Debug, Clone)]
pub struct CowStore {
    inner: Arc<NodeStore>,
    diverged: bool,
}

impl CowStore {
    /// Wrap a shared store.  No copy happens until the first
    /// [`write`](CowStore::write).
    pub fn new(inner: Arc<NodeStore>) -> Self {
        CowStore {
            inner,
            diverged: false,
        }
    }

    /// Read access to the (possibly still shared) store.
    pub fn read(&self) -> &NodeStore {
        &self.inner
    }

    /// Write access.  If the store is still shared this clones it first
    /// ([`Arc::make_mut`]; the clone shares every document) — from then on
    /// the handle owns a private store and later writes are free.
    pub fn write(&mut self) -> &mut NodeStore {
        self.diverged = true;
        Arc::make_mut(&mut self.inner)
    }

    /// `true` once [`write`](CowStore::write) has been taken at least once —
    /// i.e. the session potentially no longer reads the exact store object
    /// it was created over (node construction ran).
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// The backing `Arc`: the original shared store if the session never
    /// wrote, the session-private copy otherwise.  Result nodes of a query
    /// executed over this handle resolve against exactly this store.
    pub fn into_arc(self) -> Arc<NodeStore> {
        self.inner
    }

    /// Borrow the backing `Arc` without consuming the handle.
    pub fn arc(&self) -> &Arc<NodeStore> {
        &self.inner
    }
}

/// Exclusive-or-copy-on-write store access, threaded through the
/// evaluator.
///
/// `Deref`/`DerefMut` make the handle a drop-in replacement for
/// `&mut NodeStore` at method-call sites: `&self` store methods (all read
/// paths) never trigger a copy, while `&mut self` methods (construction)
/// route through [`CowStore::write`] on the copy-on-write variant.
#[derive(Debug)]
pub enum StoreMut<'s> {
    /// Classic exclusive access — the single-query engine path.
    Exclusive(&'s mut NodeStore),
    /// A session's copy-on-write store — the concurrent service path.
    Cow(&'s mut CowStore),
}

impl<'s> StoreMut<'s> {
    /// Read access (never copies).
    pub fn read(&self) -> &NodeStore {
        match self {
            StoreMut::Exclusive(store) => store,
            StoreMut::Cow(cow) => cow.read(),
        }
    }

    /// Write access (a copy-on-write handle clones on first use).
    pub fn write(&mut self) -> &mut NodeStore {
        match self {
            StoreMut::Exclusive(store) => store,
            StoreMut::Cow(cow) => cow.write(),
        }
    }

    /// Reborrow the handle with a shorter lifetime — the store-access
    /// analogue of `&mut *x`, for passing the handle down a call stack
    /// without giving it away.
    pub fn reborrow(&mut self) -> StoreMut<'_> {
        match self {
            StoreMut::Exclusive(store) => StoreMut::Exclusive(store),
            StoreMut::Cow(cow) => StoreMut::Cow(cow),
        }
    }
}

impl<'s> From<&'s mut NodeStore> for StoreMut<'s> {
    fn from(store: &'s mut NodeStore) -> Self {
        StoreMut::Exclusive(store)
    }
}

impl<'s> From<&'s mut CowStore> for StoreMut<'s> {
    fn from(cow: &'s mut CowStore) -> Self {
        StoreMut::Cow(cow)
    }
}

impl Deref for StoreMut<'_> {
    type Target = NodeStore;

    fn deref(&self) -> &NodeStore {
        self.read()
    }
}

impl DerefMut for StoreMut<'_> {
    fn deref_mut(&mut self) -> &mut NodeStore {
        self.write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_never_copy_writes_copy_once() {
        let mut base = NodeStore::new();
        base.parse_document_with_uri("d.xml", "<r><a/></r>")
            .unwrap();
        let shared = Arc::new(base);
        let mut cow = CowStore::new(shared.clone());

        // Reading leaves the Arc shared.
        assert_eq!(cow.read().document_count(), 1);
        assert!(!cow.diverged());
        assert_eq!(Arc::strong_count(&shared), 2);

        // First write clones; the original is untouched.
        let revision_before = shared.revision();
        let frag = cow.write().new_fragment();
        cow.write().create_text(frag, "hello");
        assert!(cow.diverged());
        assert_eq!(Arc::strong_count(&shared), 1);
        assert_eq!(shared.revision(), revision_before);
        assert_eq!(shared.document_count(), 1);
        assert_eq!(cow.read().document_count(), 2);
        // The private copy continues the shared store's revision count.
        assert!(cow.read().revision() > shared.revision());
    }

    #[test]
    fn store_mut_routes_reads_and_writes() {
        let mut store = NodeStore::new();
        store.parse_document_with_uri("d.xml", "<r/>").unwrap();
        let mut handle = StoreMut::from(&mut store);
        assert_eq!(handle.read().document_count(), 1);
        // Deref gives method-call access without naming read()/write().
        assert_eq!(handle.document_count(), 1);
        let frag = handle.new_fragment();
        handle.create_text(frag, "t");
        assert_eq!(handle.read().document_count(), 2);

        let shared = Arc::new(NodeStore::new());
        let mut cow = CowStore::new(shared.clone());
        {
            let mut handle = StoreMut::from(&mut cow);
            let reborrowed = handle.reborrow();
            assert_eq!(reborrowed.read().document_count(), 0);
            handle.new_fragment();
        }
        assert!(cow.diverged());
        assert_eq!(Arc::strong_count(&shared), 1);
    }
}
