//! A deterministic, word-at-a-time multiplicative hasher (the FxHash
//! scheme) for maps keyed by simulation state.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 with a per-process random
//! key: resistant to collision flooding, but several times the cost of one
//! multiply per word on the keys the engine probes (node ids, spatial-grid
//! cells, the bytes of a round's payloads). Those keys come from the
//! simulation, never from the network, so flooding is not a threat there.
//!
//! The rule: maps keyed by simulation state use [`FxHashMap`] /
//! [`FxHashSet`]; maps keyed by network input (the job server) keep
//! `RandomState`. A map on either side must never let its iteration order
//! reach an output — `RandomState` already randomises that order per
//! process, so any code that depended on it was already nondeterministic.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-mixed high bits (the 64-bit FxHash constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state: each word is folded in as
/// `hash = (hash.rotate_left(5) ^ word) * SEED`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold the tail length in so "a" and "a\0" hash apart.
            self.add_word(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]: every map starts from the same state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hashes_are_fixed_across_processes() {
        // Pinned values: the hasher has no per-process key.
        assert_eq!(fx(&0u64), 0);
        assert_eq!(fx(&1u64), SEED);
        assert_eq!(
            fx(&(1u64, 2u64)),
            (SEED.rotate_left(5) ^ 2).wrapping_mul(SEED)
        );
    }

    #[test]
    fn byte_tails_of_different_lengths_hash_apart() {
        let mut a = FxHasher::default();
        a.write(b"a");
        let mut b = FxHasher::default();
        b.write(b"a\0");
        assert_ne!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"01234567");
        let mut d = FxHasher::default();
        d.write(b"01234567\0");
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut map: FxHashMap<(u64, u64), u64> = FxHashMap::default();
        for i in 0..10_000u64 {
            *map.entry((i % 97, i % 89)).or_insert(0) += 1;
        }
        assert_eq!(map.len(), 97 * 89);
        assert_eq!(map.values().sum::<u64>(), 10_000);
        let set: FxHashSet<usize> = (0..1000).collect();
        assert!((0..1000).all(|i| set.contains(&i)));
        assert!(!set.contains(&1000));
    }
}
