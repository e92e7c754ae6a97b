//! The hasher behind the id-keyed maps the optimizer reads on every rule
//! check and estimate.
//!
//! Their keys — a `TypeId` or `FieldId`, a predicate of a few operands —
//! are small, and are hashed once per lookup on the search's hot path, so
//! `std`'s keyed SipHash buys nothing and costs most of a lookup. This is
//! the multiply-rotate "Fx" function (Firefox, rustc): one rotate, one xor
//! and one multiply per word, the same function the search's memo uses.
//!
//! It is not keyed, so a caller that hashes keys an adversary picks can
//! be made to collide; use it only where a collision costs time, never
//! correctness, and where the key count is bounded by the input's size.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The multiply-rotate hasher.
#[derive(Clone, Copy, Default)]
pub struct FxHasher(u64);

/// `BuildHasher` for `HashMap<_, _, FxBuild>`.
pub type FxBuild = BuildHasherDefault<FxHasher>;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            // Little-endian, as `u64::from_le_bytes` would read a full word.
            let word = chunk.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b));
            if chunk.len() == 8 {
                self.add(word);
            } else {
                // The length keeps "ab" + "" apart from "a" + "b".
                self.add(word ^ (chunk.len() as u64) << 56);
            }
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

    #[test]
    fn bytes_read_as_little_endian_words() {
        let mut whole = FxHasher::default();
        whole.write(&0x0807_0605_0403_0201u64.to_le_bytes());
        let mut word = FxHasher::default();
        word.write_u64(0x0807_0605_0403_0201);
        assert_eq!(whole.finish(), word.finish());

        let mut tail = FxHasher::default();
        tail.write(&[1, 2, 3]);
        let mut padded = FxHasher::default();
        padded.write_u64(0x03_0201 ^ 3 << 56);
        assert_eq!(tail.finish(), padded.finish());
    }
}
