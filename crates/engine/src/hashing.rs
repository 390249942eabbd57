//! Fast non-cryptographic hashing for the executor's internal tables.
//!
//! Join builds, set operations, duplicate elimination and aggregation all
//! group rows through the one `batch::KeyTable`, which hashes key columns
//! in place with `mix` and `mix_bytes`; the standard library's default
//! SipHash is DoS-resistant but costs a large constant per small key. The
//! executor's tables are process-internal and never keyed by untrusted
//! input schemas, so an FxHash-style multiply-rotate hasher (the rustc
//! approach) is the right trade-off. Unlike `RandomState`, it is also
//! deterministic per process, which keeps repeated executions of one plan
//! byte-for-byte reproducible.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One multiply-rotate step (the `rustc-hash` construction): `word`
/// folded into the running `hash`.
#[inline]
pub(crate) fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// `bytes` folded into the running `hash`, eight at a time.
#[inline]
pub(crate) fn mix_bytes(hash: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut h = hash;
    for c in chunks.by_ref() {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        h = mix(h, u64::from_le_bytes(buf));
    }
    h
}

/// `mix` as a [`Hasher`].
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.hash = mix_bytes(self.hash, bytes);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = mix(self.hash, v);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_and_spreading() {
        let bh = FxBuildHasher::default();
        let h = |v: &Vec<crate::value::Value>| -> u64 { bh.hash_one(v) };
        let a = vec![crate::value::Value::Int(1), crate::value::Value::Int(2)];
        let b = vec![crate::value::Value::Int(2), crate::value::Value::Int(1)];
        assert_eq!(h(&a), h(&a), "deterministic");
        assert_ne!(h(&a), h(&b), "order-sensitive");
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<Vec<i64>, usize> = FxHashMap::default();
        m.insert(vec![1, 2], 7);
        assert_eq!(m.get(&vec![1, 2]), Some(&7));
        // A hash fed in one piece or in words is the same hash.
        let mut h = FxHasher::default();
        h.write_u64(7);
        assert_eq!(h.finish(), mix_bytes(0, &7u64.to_le_bytes()));
    }
}
