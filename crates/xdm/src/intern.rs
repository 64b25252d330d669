//! String interning: map strings to dense, `Copy` integer symbols.
//!
//! An [`Interner`] assigns each distinct string a stable [`StrId`] once;
//! afterwards equality is an integer compare and a symbol is a `Copy` word.
//! The evaluator names its variables this way, a store its node text
//! payloads ([`TextPool`]) and its element and attribute names
//! ([`NameTable`]).
//!
//! A pool only ever grows, so a symbol stays valid for the pool's whole
//! lifetime.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::node::QName;

/// A symbol: the dense id of an interned string.
///
/// Only meaningful together with the [`Interner`] (or [`TextPool`]) that
/// produced it; two `StrId`s from the same pool are equal iff their strings
/// are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrId(pub u32);

/// A grow-only, `Arc`-shared string pool for node text payloads.
///
/// This is the store-owned variant of [`Interner`]: cloning a `TextPool` is
/// O(1) (the clone shares the backing storage), which is what makes cloning
/// a whole [`NodeStore`](crate::NodeStore) — the service layer's
/// `publish()` — cheap even when documents carry megabytes of text.  The
/// first `intern` *after* a shared clone deep-copies the storage once
/// (`Arc::make_mut`), so diverging copies pay for their own growth and only
/// they do.
#[derive(Debug, Clone)]
pub struct TextPool {
    /// Lookup map; shares the `Arc<str>` storage with `strings`.
    map: Arc<HashMap<Arc<str>, u32>>,
    /// `strings[id]` is the string of `StrId(id)`.
    strings: Arc<Vec<Arc<str>>>,
}

impl Default for TextPool {
    fn default() -> Self {
        TextPool::new()
    }
}

impl TextPool {
    /// An empty pool.
    pub fn new() -> Self {
        TextPool {
            map: Arc::new(HashMap::new()),
            strings: Arc::new(Vec::new()),
        }
    }

    /// `true` when `self` and `other` share the same backing storage
    /// (i.e. one is an O(1) clone of the other and neither has grown).
    pub fn shares_storage_with(&self, other: &TextPool) -> bool {
        Arc::ptr_eq(&self.strings, &other.strings)
    }

    /// Intern `s`, returning its symbol (allocating only on first sight).
    ///
    /// Growing a pool whose storage is still shared with clones first
    /// deep-copies the storage; the clones keep theirs.
    pub fn intern(&mut self, s: &str) -> StrId {
        if let Some(&id) = self.map.get(s) {
            return StrId(id);
        }
        let strings = Arc::make_mut(&mut self.strings);
        let map = Arc::make_mut(&mut self.map);
        let id = strings.len() as u32;
        // First sight of this payload: charge the bytes plus the map/vec
        // entry overhead against any installed per-query budget.
        crate::budget::charge(s.len() as u64 + 48);
        let owned: Arc<str> = Arc::from(s);
        strings.push(owned.clone());
        map.insert(owned, id);
        StrId(id)
    }

    /// The symbol of `s`, if it has been interned (never allocates).
    pub fn get(&self, s: &str) -> Option<StrId> {
        self.map.get(s).map(|&id| StrId(id))
    }

    /// The string behind `id`.
    ///
    /// # Panics
    /// Panics if `id` did not come from this pool (or a clone of it).
    pub fn resolve(&self, id: StrId) -> &str {
        &self.strings[id.0 as usize]
    }

    /// The shared `Arc<str>` behind `id` — the zero-copy handle atomized
    /// values carry.
    ///
    /// # Panics
    /// Panics if `id` did not come from this pool (or a clone of it).
    pub fn resolve_arc(&self, id: StrId) -> &Arc<str> {
        &self.strings[id.0 as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Forget every string interned after the pool held `len` of them —
    /// how a failed parse takes its payloads back.  Only the caller that
    /// grew the pool may shrink it, before anyone else has seen the
    /// symbols it drops.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len < self.strings.len() {
            let map = Arc::make_mut(&mut self.map);
            for dropped in Arc::make_mut(&mut self.strings).drain(len..) {
                map.remove(&dropped);
            }
        }
    }
}

/// A symbol: the dense id of an interned element or attribute name.
///
/// Only meaningful together with the [`NameTable`] that produced it (or a
/// clone of it); two `NameId`s from one table are equal iff prefix and
/// local part both are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

/// The grow-only, `Arc`-shared table of the distinct [`QName`]s a store's
/// elements and attributes carry — the [`TextPool`]'s sibling for names,
/// owned, cloned (O(1)) and diverged (copied by the first new name interned
/// while shared) exactly like it.  A node holds a [`NameId`]; the table
/// turns it back into the `QName`.
///
/// Names match *ignoring prefixes* throughout the engine, so besides its
/// own id every name has a **local class** ([`local_of`](NameTable::local_of)):
/// the id of the first name interned with the same local part.  Two names
/// have the same local part iff their classes are equal, which is what lets
/// a [`Matcher`](crate::Matcher) decide a candidate by comparing integers.
///
/// The table only grows, and a store's clones extend it independently, so
/// every id a shared document carries resolves to the same name in every
/// store holding that document.
#[derive(Debug, Clone, Default)]
pub struct NameTable(Arc<Names>);

#[derive(Debug, Clone, Default)]
struct Names {
    /// `names[id]` is the name of `NameId(id)`.
    names: Vec<QName>,
    /// `local_of[id]` is the local class of `NameId(id)`.
    local_of: Vec<u32>,
    /// Local part → ids of the names carrying it, in interning order (the
    /// first one is the class); read by `intern` alone.  Ordered, not
    /// hashed: a store has a handful of names, which a B-tree finds in a
    /// few short comparisons where keyed hashing the probe costs more, and
    /// names come from outside, so an unkeyed hash is not an option.
    by_local: BTreeMap<Box<str>, Vec<u32>>,
}

impl NameTable {
    /// Intern the name `prefix:local` (allocating only on first sight).
    pub fn intern(&mut self, prefix: Option<&str>, local: &str) -> NameId {
        let known = self.0.by_local.get(local).and_then(|ids| {
            let same_prefix = |&&id: &&u32| self.0.names[id as usize].prefix.as_deref() == prefix;
            ids.iter().find(same_prefix)
        });
        if let Some(&id) = known {
            return NameId(id);
        }
        let table = Arc::make_mut(&mut self.0);
        let id = table.names.len() as u32;
        // Two copies of the local part, the prefix, and the three entries.
        crate::budget::charge(2 * local.len() as u64 + prefix.map_or(0, str::len) as u64 + 96);
        let ids = table.by_local.entry(local.into()).or_default();
        ids.push(id);
        table.local_of.push(ids[0]);
        table.names.push(QName {
            prefix: prefix.map(String::from),
            local: local.to_string(),
        });
        NameId(id)
    }

    /// Intern a lexical `local` or `prefix:local` name.
    pub fn intern_lexical(&mut self, lexical: &str) -> NameId {
        let (prefix, local) = QName::parse_parts(lexical);
        self.intern(prefix, local)
    }

    /// The name behind `id`.
    ///
    /// # Panics
    /// Panics if `id` did not come from this table (or a clone of it).
    pub fn resolve(&self, id: NameId) -> &QName {
        &self.0.names[id.0 as usize]
    }

    /// The local class of `id`: equal for two names iff their local parts
    /// are, and itself the id of a name with that local part.
    #[inline]
    pub fn local_of(&self, id: NameId) -> u32 {
        self.0.local_of[id.0 as usize]
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.0.names.len()
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.0.names.is_empty()
    }

    /// [`TextPool::truncate`] for names.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        let table = Arc::make_mut(&mut self.0);
        table.local_of.truncate(len);
        for dropped in table.names.drain(len..) {
            let ids = table
                .by_local
                .get_mut(dropped.local.as_str())
                .expect("every interned name is listed under its local part");
            ids.retain(|&id| (id as usize) < len);
            if ids.is_empty() {
                table.by_local.remove(dropped.local.as_str());
            }
        }
    }
}

/// A grow-only string pool assigning each distinct string one [`StrId`].
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Lookup map; shares the `Arc<str>` storage with `strings`.
    map: HashMap<Arc<str>, u32>,
    /// `strings[id]` is the string of `StrId(id)`.
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern `s`, returning its symbol (allocating only on first sight).
    pub fn intern(&mut self, s: &str) -> StrId {
        if let Some(&id) = self.map.get(s) {
            return StrId(id);
        }
        let id = self.strings.len() as u32;
        let owned: Arc<str> = Arc::from(s);
        self.strings.push(owned.clone());
        self.map.insert(owned, id);
        StrId(id)
    }

    /// The symbol of `s`, if it has been interned (never allocates).
    pub fn get(&self, s: &str) -> Option<StrId> {
        self.map.get(s).map(|&id| StrId(id))
    }

    /// The string behind `id`.
    ///
    /// # Panics
    /// Panics if `id` did not come from this interner.
    pub fn resolve(&self, id: StrId) -> &str {
        &self.strings[id.0 as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut pool = Interner::new();
        let a = pool.intern("alpha");
        let b = pool.intern("beta");
        assert_ne!(a, b);
        assert_eq!(pool.intern("alpha"), a);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.resolve(a), "alpha");
        assert_eq!(pool.resolve(b), "beta");
    }

    #[test]
    fn get_never_interns() {
        let mut pool = Interner::new();
        assert!(pool.get("x").is_none());
        let x = pool.intern("x");
        assert_eq!(pool.get("x"), Some(x));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn empty_and_distinct_strings() {
        let mut pool = Interner::new();
        assert!(pool.is_empty());
        let empty = pool.intern("");
        assert_eq!(pool.resolve(empty), "");
        assert!(!pool.is_empty());
    }

    #[test]
    fn text_pool_clone_is_shared_until_growth() {
        let mut pool = TextPool::new();
        let a = pool.intern("alpha");
        assert_eq!(pool.intern("alpha"), a);

        let clone = pool.clone();
        assert!(clone.shares_storage_with(&pool));
        assert_eq!(clone.resolve(a), "alpha");

        // Re-interning an existing string never diverges.
        let mut clone2 = clone.clone();
        assert_eq!(clone2.intern("alpha"), a);
        assert!(clone2.shares_storage_with(&pool));

        // Growing while shared deep-copies; the original keeps its storage
        // and symbols.
        let b = clone2.intern("beta");
        assert!(!clone2.shares_storage_with(&pool));
        assert!(clone.shares_storage_with(&pool));
        assert_eq!(pool.get("beta"), None);
        assert_eq!(clone2.resolve(a), "alpha");
        assert_eq!(clone2.resolve(b), "beta");
    }

    #[test]
    fn resolve_arc_is_the_shared_payload() {
        let mut pool = TextPool::new();
        let a = pool.intern("payload");
        let arc1 = pool.resolve_arc(a).clone();
        let arc2 = pool.resolve_arc(a).clone();
        assert!(Arc::ptr_eq(&arc1, &arc2));
        assert_eq!(&*arc1, "payload");
    }
}
