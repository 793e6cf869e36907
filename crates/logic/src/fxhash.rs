//! A fast, non-cryptographic hasher for the tables keyed on interned terms.
//!
//! The hash-consing arena, the solver's per-query memos and the query cache
//! hash [`TermId`](crate::TermId)s, [`Node`](crate::intern::Node)s and keys
//! built from them millions of times per search. std's SipHash defends
//! against adversarial keys at several times the cost; these keys are
//! mostly small integers, so the tables use this Fx-style multiply–rotate
//! hash (the one rustc uses for its own interners) instead. No caller may
//! depend on the iteration order of such a table, exactly as with std's
//! per-process randomized `RandomState`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx hasher: one rotate, xor and multiply per machine word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        if !rest.is_empty() {
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; stateless, so every table hashes alike.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_alike_and_small_differences_separate() {
        assert_eq!(hash_of("len"), hash_of(String::from("len")));
        assert_ne!(hash_of("len"), hash_of("lem"));
        // Trailing bytes and their count both reach the hash.
        assert_ne!(hash_of([0u8; 3].as_slice()), hash_of([0u8; 4].as_slice()));
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
        let ids: FxHashSet<u64> = (0..1000u32).map(hash_of).collect();
        assert_eq!(ids.len(), 1000);
    }
}
