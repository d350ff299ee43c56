//! Symbol histograms and entropy estimates.
//!
//! The Huffman coder consumes frequency tables built here; the experiment
//! harness also uses the Shannon entropy as a lower bound when reporting
//! how close the entropy stage gets to optimal.
//!
//! The multi-table counting paths are part of the dispatch-gated hot-loop
//! layer: at `FPSNR_SIMD=off` ([`crate::simd::active`] <
//! [`crate::simd::SimdLevel::Sse2`]) the single-table reference loops run
//! instead. Counts are exact on either path, so the choice is invisible
//! downstream.

use crate::simd::{self, SimdLevel};

/// Alphabets up to this size take the 4-table counting path. The split
/// tables cost `4 × alphabet × 4` bytes of scratch; past the quantizer's
/// largest real alphabet (2^16 bins + escape ⇒ 1 MiB scratch) the cache
/// pressure outweighs the dependency-breaking win, so bigger alphabets
/// fall back to the single-table loop.
const MULTI_TABLE_MAX_ALPHABET: usize = (1 << 16) + 1;

/// Inputs shorter than this skip the multi-table setup (its `4 × alphabet`
/// zero-fill dominates on tiny slices).
const MULTI_TABLE_MIN_LEN: usize = 4096;

/// Count occurrences of each `u32` symbol in `symbols`, returning a dense
/// table of length `alphabet` (symbols ≥ `alphabet` panic — the caller fixed
/// the alphabet when it configured the quantizer).
///
/// Long inputs over quantizer-sized alphabets are counted into four
/// interleaved sub-tables merged at the end. Repeated symbols (the common
/// case: quantization codes cluster hard around the zero-error bin) then
/// hit four independent counter slots instead of one, breaking the
/// store-to-load dependency chain that serializes the naive loop. Counts
/// are exact either way — addition is associative over a partition of the
/// input — so the result is identical to the single-table loop.
pub fn count_dense(symbols: &[u32], alphabet: usize) -> Vec<u64> {
    if simd::active() >= SimdLevel::Sse2
        && symbols.len() >= MULTI_TABLE_MIN_LEN
        && alphabet <= MULTI_TABLE_MAX_ALPHABET
        && symbols.len() <= u32::MAX as usize
    {
        // u32 sub-counters: the length gate above makes overflow impossible.
        let mut t = vec![0u32; alphabet * 4];
        let (t0, rest) = t.split_at_mut(alphabet);
        let (t1, rest) = rest.split_at_mut(alphabet);
        let (t2, t3) = rest.split_at_mut(alphabet);
        let mut quads = symbols.chunks_exact(4);
        for q in &mut quads {
            t0[q[0] as usize] += 1;
            t1[q[1] as usize] += 1;
            t2[q[2] as usize] += 1;
            t3[q[3] as usize] += 1;
        }
        for &s in quads.remainder() {
            t0[s as usize] += 1;
        }
        return (0..alphabet)
            .map(|i| t0[i] as u64 + t1[i] as u64 + t2[i] as u64 + t3[i] as u64)
            .collect();
    }
    let mut counts = vec![0u64; alphabet];
    for &s in symbols {
        counts[s as usize] += 1;
    }
    counts
}

/// Count occurrences of each byte value.
///
/// Counts through [`count_bytes_lanes`]' four split tables (the scratch
/// is 8 KiB, always cache-resident) for the same dependency-breaking
/// reason as [`count_dense`]; the single-table loop is the
/// `FPSNR_SIMD=off` reference path.
pub fn count_bytes(bytes: &[u8]) -> [u64; 256] {
    if simd::active() < SimdLevel::Sse2 {
        let mut counts = [0u64; 256];
        for &b in bytes {
            counts[b as usize] += 1;
        }
        return counts;
    }
    merge_lanes(&count_bytes_lanes(bytes))
}

/// Byte counts split by position modulo 4: `lanes[k][b]` counts the
/// positions `i ≡ k (mod 4)` holding byte `b`. These are the symbol
/// counts of the four round-robin streams of a [`crate::mshuf`] blob
/// with [`crate::mshuf::HUFF_STREAMS`] streams, which is what sizes a
/// Huffman-coded chunk exactly before encoding it.
pub fn count_bytes_lanes(bytes: &[u8]) -> [[u64; 256]; 4] {
    let mut t = [[0u64; 256]; 4];
    let mut quads = bytes.chunks_exact(4);
    for q in &mut quads {
        t[0][q[0] as usize] += 1;
        t[1][q[1] as usize] += 1;
        t[2][q[2] as usize] += 1;
        t[3][q[3] as usize] += 1;
    }
    for (k, &b) in quads.remainder().iter().enumerate() {
        t[k][b as usize] += 1;
    }
    t
}

/// Whole-input byte counts from [`count_bytes_lanes`]' per-lane counts.
pub fn merge_lanes(lanes: &[[u64; 256]; 4]) -> [u64; 256] {
    std::array::from_fn(|b| lanes[0][b] + lanes[1][b] + lanes[2][b] + lanes[3][b])
}

/// Shannon entropy in bits/symbol of a frequency table.
///
/// Returns 0.0 for empty input or a single distinct symbol.
pub fn shannon_entropy(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total_f = total as f64;
    let mut h = 0.0f64;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / total_f;
            h -= p * p.log2();
        }
    }
    h
}

/// Theoretical minimum size in bytes of entropy-coding `n` symbols with the
/// given frequency table (entropy × n / 8, rounded up).
pub fn entropy_bound_bytes(counts: &[u64]) -> usize {
    let n: u64 = counts.iter().sum();
    let bits = shannon_entropy(counts) * n as f64;
    (bits / 8.0).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_counts() {
        let counts = count_dense(&[0, 1, 1, 3, 3, 3], 4);
        assert_eq!(counts, vec![1, 2, 0, 3]);
    }

    #[test]
    #[should_panic]
    fn dense_counts_panics_out_of_alphabet() {
        count_dense(&[5], 4);
    }

    #[test]
    fn multi_table_matches_single_table() {
        // Long enough to take the 4-table path; compare against a local
        // single-counter loop over the same pseudo-random symbols.
        let mut state = 0x9e3779b97f4a7c15u64;
        let symbols: Vec<u32> = (0..MULTI_TABLE_MIN_LEN + 37)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 97) as u32
            })
            .collect();
        let alphabet = 97;
        let mut naive = vec![0u64; alphabet];
        for &s in &symbols {
            naive[s as usize] += 1;
        }
        assert_eq!(count_dense(&symbols, alphabet), naive);
    }

    #[test]
    #[should_panic]
    fn multi_table_still_panics_out_of_alphabet() {
        let mut symbols = vec![1u32; MULTI_TABLE_MIN_LEN];
        symbols.push(4);
        count_dense(&symbols, 4);
    }

    #[test]
    fn byte_counts() {
        let counts = count_bytes(&[0, 255, 255, 7]);
        assert_eq!(counts[0], 1);
        assert_eq!(counts[255], 2);
        assert_eq!(counts[7], 1);
        assert_eq!(counts[1], 0);
    }

    #[test]
    fn byte_lanes_split_by_position_mod_4() {
        let bytes: Vec<u8> = (0..11u8).collect();
        let lanes = count_bytes_lanes(&bytes);
        for (i, &b) in bytes.iter().enumerate() {
            assert_eq!(lanes[i % 4][b as usize], 1, "byte {i}");
        }
        assert_eq!(merge_lanes(&lanes), count_bytes(&bytes));
    }

    #[test]
    fn entropy_uniform_two_symbols_is_one_bit() {
        assert!((shannon_entropy(&[10, 10]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_single_symbol_is_zero() {
        assert_eq!(shannon_entropy(&[42]), 0.0);
        assert_eq!(shannon_entropy(&[]), 0.0);
    }

    #[test]
    fn entropy_uniform_256_is_eight_bits() {
        let counts = [1u64; 256];
        assert!((shannon_entropy(&counts) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_bound_scales_with_n() {
        // 1 bit/symbol over 80 symbols = 10 bytes.
        assert_eq!(entropy_bound_bytes(&[40, 40]), 10);
    }
}
