//! Small non-cryptographic hashers for simulator-internal tables.
//!
//! The standard library's default `SipHash` is keyed against collision
//! attacks, which the simulator does not need for tables it alone writes
//! (event-cancellation sets keyed by monotonically issued [`crate::event::EventId`]s).
//! FNV-1a is a few instructions per word, and — unlike the default
//! `RandomState` — produces the same table layout on every run, which is
//! one less source of incidental nondeterminism in debugging sessions.
//!
//! Do **not** use these aliases for any map whose iteration order reaches
//! a serialized artifact; golden outputs must come from ordered containers
//! or fixed orders (see `metrics::Counters`, whose slots are in name
//! order for that reason).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, with a word-at-a-time shortcut for the integer-key case that
/// dominates simulator usage.
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0 ^ i).wrapping_mul(FNV_PRIME);
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`Fnv1a`] (zero-sized, deterministic).
pub type FnvBuildHasher = BuildHasherDefault<Fnv1a>;

/// A `HashSet` using [`Fnv1a`].
pub type FnvHashSet<T> = HashSet<T, FnvBuildHasher>;

/// A `HashMap` using [`Fnv1a`].
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_map_behave_like_std() {
        let mut set: FnvHashSet<u64> = FnvHashSet::default();
        for i in 0..1000u64 {
            assert!(set.insert(i * 7919));
        }
        for i in 0..1000u64 {
            assert!(set.remove(&(i * 7919)));
        }
        assert!(set.is_empty());

        let mut map: FnvHashMap<&str, u32> = FnvHashMap::default();
        map.insert("alpha", 1);
        map.insert("beta", 2);
        assert_eq!(map.get("alpha"), Some(&1));
        assert_eq!(map.remove("beta"), Some(2));
    }

    #[test]
    fn byte_and_word_paths_are_deterministic() {
        let mut a = Fnv1a::default();
        a.write(b"abc");
        let mut b = Fnv1a::default();
        b.write(b"abc");
        assert_eq!(a.finish(), b.finish());

        let mut w1 = Fnv1a::default();
        w1.write_u64(42);
        let mut w2 = Fnv1a::default();
        w2.write_u64(42);
        assert_eq!(w1.finish(), w2.finish());
        assert_ne!(a.finish(), w1.finish());
    }
}
