//! FNV-1a, 64-bit: the workspace's one stable byte hash.
//!
//! Unlike `std`'s `DefaultHasher` it is the same in every process and
//! build, so what it hashes can be pinned in golden files and compared
//! across runs: query fingerprints, the catalog's index-set hash, store
//! digests.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a hash. Feeding it several byte strings gives the hash
/// of their concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET_BASIS)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    #[inline]
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// The hash of everything eaten so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a over one byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.eat(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a test vectors, and one hash over pieces equal
    /// to one over their concatenation.
    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::default();
        h.eat(b"foo");
        h.eat(b"");
        h.eat(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }
}
