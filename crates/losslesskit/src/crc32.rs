//! CRC-32 (IEEE 802.3) integrity checksums.
//!
//! Lossy-compressed archives live for years on parallel file systems and
//! tape; silent bit rot in a Huffman stream decodes into plausible-looking
//! garbage rather than an error. GZIP guards against this with a CRC-32
//! trailer; our containers do the same (the SZ-like container appends one,
//! verified on decompression).

/// Precomputed slice-by-8 tables for the reflected IEEE polynomial
/// 0xEDB88320: `tables[0]` is the classic byte-at-a-time table, and
/// `tables[k][b]` is the CRC of byte `b` followed by `k` zero bytes, which
/// lets the update loop fold eight input bytes per iteration.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for i in 0..256usize {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            t[0][i] = c;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

#[inline]
fn update_state(t: &[[u32; 256]; 8], mut c: u32, data: &[u8]) -> u32 {
    // Slice-by-8: XOR the CRC into the first word's low half, then look up
    // all eight bytes in independent tables — no serial 8-bit steps.
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = u32::from_le_bytes(w[..4].try_into().expect("4 bytes")) ^ c;
        let hi = u32::from_le_bytes(w[4..].try_into().expect("4 bytes"));
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 of a byte slice (IEEE, reflected, init/xorout `0xFFFFFFFF` — the
/// same parameterisation as gzip/zlib/PNG).
pub fn crc32(data: &[u8]) -> u32 {
    update_state(tables(), 0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming CRC-32 accumulator (same parameters as [`crc32`]).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed more bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update_state(tables(), self.state, data);
    }

    /// Final checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_test_vectors() {
        // The classic check value for this CRC parameterisation.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut acc = Crc32::new();
        for chunk in data.chunks(997) {
            acc.update(chunk);
        }
        assert_eq!(acc.finish(), crc32(&data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0u8; 256];
        let base = crc32(&data);
        for byte in 0..256 {
            data[byte] ^= 1;
            assert_ne!(crc32(&data), base, "flip at byte {byte} undetected");
            data[byte] ^= 1;
        }
    }
}
