//! The hasher behind the memo's and the search's tables.
//!
//! Their keys — an operator with its child groups, a `(group, interned
//! property id)` goal — are made by this program, a few words long, and
//! hashed once per rule check, so `std`'s keyed SipHash buys nothing and
//! costs most of a lookup. This is the multiply-rotate "Fx" function
//! (Firefox, rustc): one rotate, one xor and one multiply per word.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[derive(Clone, Copy, Default)]
pub(crate) struct FxHasher(u64);

/// `BuildHasher` for `HashMap<_, _, FxBuild>`.
pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for &word in words {
            self.add(u64::from_le_bytes(word));
        }
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // The length keeps "ab" + "" apart from "a" + "b".
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn h<T: Hash>(v: T) -> u64 {
        FxBuild::default().hash_one(v)
    }

    #[test]
    fn distinguishes_order_length_and_split() {
        assert_ne!(h((1u32, 2u32)), h((2u32, 1u32)));
        assert_ne!(h([1u32].as_slice()), h([1u32, 0].as_slice()));
        assert_ne!(h(("ab", "")), h(("a", "b")));
        assert_eq!(h((7u32, "x")), h((7u32, "x")));
    }
}
