//! One hasher for maps keyed by identifiers the system assigns itself.
//!
//! [`StrId`](crate::StrId) symbols, [`NodeId`](crate::NodeId)s, document
//! and arena indexes and the executor's plan-node ids and cell keys are
//! small dense integers that no outside party chooses, so the collision
//! resistance SipHash buys for them is never used.  [`IdHasher`] is a
//! multiply-rotate hash (the Fx construction): one multiplication per
//! integer written.
//!
//! Maps keyed by **strings** — the text pool, the interners, the URI index
//! — keep the standard hasher: their keys come from XML and query text.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by system-assigned ids; see the [module docs](self).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of system-assigned ids; see the [module docs](self).
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Multiply-rotate hasher for integer-shaped keys.  Not collision
/// resistant: never key it on data from outside the program.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    /// The product's entropy sits in its high bits while the table takes
    /// its bucket from the low ones, so bring the high half down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, StrId};

    #[test]
    fn dense_ids_spread_over_the_low_bits() {
        // 4096 consecutive symbols into 4096 buckets: a usable hash leaves
        // no bucket with more than a handful of keys.
        let mut buckets = [0u8; 4096];
        for id in 0..4096u32 {
            let mut h = IdHasher::default();
            std::hash::Hash::hash(&StrId(id), &mut h);
            buckets[(h.finish() & 4095) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| n <= 8), "clustered low bits");
    }

    #[test]
    fn maps_and_sets_behave_like_the_standard_ones() {
        let mut map: IdMap<NodeId, u32> = IdMap::default();
        let mut set: IdSet<(u32, i64)> = IdSet::default();
        for doc in 0..3u32 {
            for node in 0..500u32 {
                map.insert(NodeId::new(doc, node), doc * 1000 + node);
                set.insert((node, -i64::from(doc)));
            }
        }
        assert_eq!(map.len(), 1500);
        assert_eq!(set.len(), 1500);
        assert_eq!(map[&NodeId::new(2, 499)], 2499);
        assert!(set.contains(&(7, -1)) && !set.contains(&(7, 1)));
    }
}
