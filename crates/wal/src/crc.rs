//! CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-16.
//!
//! Dependency-free (no `crc32fast`): sixteen 256-entry const tables give
//! the same checksums (`cksum`-compatible bit order as used by zlib/PNG)
//! sixteen bytes per step. A checkpoint checksums the whole store, so the
//! checksum is not hidden behind I/O. Measured on a 2-vCPU x86-64 box over
//! 1.67 MB, the size of a `mixed_refresh` checkpoint: a byte-at-a-time
//! table loop read 304 MB/s (5.5 ms, half of the checkpoint's time), this
//! one 1.6 GB/s (1.05 ms).

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, so sixteen lookups fold sixteen
/// input bytes at once.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 of `bytes` (zlib/PNG convention: init and final XOR with
/// `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(16);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-serial definition, one byte at a time: what every table
    /// entry is derived from.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Every length around the 16-byte step, at every alignment of the
    /// slice, reads what the bytewise reference reads.
    #[test]
    fn slicing_matches_the_bytewise_reference() {
        let data: Vec<u8> = (0..116u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for offset in 0..16 {
            for len in 0..=100 {
                let bytes = &data[offset..offset + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn sensitive_to_every_bit() {
        let base = crc32(b"open oodb wal");
        for i in 0..13 * 8 {
            let mut flipped = b"open oodb wal".to_vec();
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&flipped), base, "bit {i} went undetected");
        }
    }
}
