//! Canonical Huffman coding over dense `u32` alphabets.
//!
//! This is the "customized Huffman coding" of SZ step (2): the alphabet is
//! the set of quantization codes (commonly 2^16 bins plus an escape symbol),
//! far larger than a byte, so a byte-oriented entropy coder cannot be used.
//!
//! Codes are *canonical*: only the code lengths are serialized (run-length
//! compressed), and both sides rebuild identical codes from the lengths
//! using the DEFLATE `bl_count`/`next_code` construction. Codes are written
//! LSB-first (bit-reversed) to match [`crate::bitio`]'s DEFLATE-style
//! convention.
//!
//! Degenerate inputs are handled explicitly: an empty stream encodes to
//! nothing, and a single distinct symbol is assigned a 1-bit code so the
//! bitstream stays self-delimiting.
//!
//! ```
//! use losslesskit::{BitReader, BitWriter, HuffmanCodec};
//!
//! // Build from a dense frequency table; skewed counts get short codes.
//! let symbols = [0u32, 0, 0, 0, 1, 1, 2, 0, 0, 1];
//! let codec = HuffmanCodec::from_counts(&losslesskit::freq::count_dense(&symbols, 3));
//!
//! let mut w = BitWriter::new();
//! codec.encode(&symbols, &mut w);
//! let bytes = w.finish();
//!
//! // Only code *lengths* go on the wire; the decoder rebuilds the same
//! // canonical codes from them.
//! let mut table = Vec::new();
//! codec.write_table(&mut table);
//! let mut pos = 0;
//! let decoder = HuffmanCodec::read_table(&table, &mut pos).unwrap();
//!
//! let mut out = Vec::new();
//! decoder.decode(&mut BitReader::new(&bytes), symbols.len(), &mut out).unwrap();
//! assert_eq!(out, symbols);
//! ```

use crate::bitio::{BitReader, BitWriter};
use crate::varint;
use crate::CodecError;
use std::sync::OnceLock;

/// Longest permitted code. Frequencies are rescaled and the tree rebuilt if
/// the unconstrained Huffman tree exceeds this (only reachable with > 2^24
/// symbols and pathologically skewed counts).
const MAX_CODE_LEN: u32 = 28;

/// Width of the single-level fast decode table: 2^12 entries (32 KiB)
/// fits L1 while covering ≥ 90% of symbols at SZ-typical quantization-code
/// distributions (at 11 bits, ~20% of GRF-corpus symbols fell through to
/// the sub-table's dependent second load).
const FAST_BITS: u32 = 12;

/// Largest alphabet [`HuffmanCodec::read_table`] accepts. The SZ pipeline
/// caps quantization bins at 2^24 (alphabet = bins + escape) and the
/// DEFLATE tables are tiny, so anything bigger is hostile input.
const MAX_TABLE_ALPHABET: usize = (1 << 24) + 1;

/// Cap on total second-level decode-table entries accepted from a
/// serialized table. Kraft-legal but adversarial length sets (thousands of
/// distinct deep prefixes, all at `MAX_CODE_LEN`) can demand up to 2^28
/// entries (~2 GiB); real tables from the encoder stay orders of magnitude
/// below this cap.
const MAX_SUB_TABLE_ENTRIES: usize = 1 << 22;

/// A canonical Huffman encoder/decoder for symbols `0..alphabet`.
///
/// Encoding reads one packed entry per symbol ([`HuffmanCodec::entries`]).
/// Decoding is fully table-driven (no bit-at-a-time tree walk): a primary
/// table over `FAST_BITS` (12) peeked bits resolves every code of length
/// ≤ `FAST_BITS` in one lookup, and each longer-code prefix points at a
/// second-level subtable indexed by the remaining bits — the classic
/// zlib/zstd two-level layout, bounded at two lookups per symbol. The
/// decode tables are built on the first decode, so a codec that only
/// encodes never pays for them.
#[derive(Debug, Clone)]
pub struct HuffmanCodec {
    /// Code length per symbol; 0 = symbol unused.
    lens: Vec<u8>,
    /// Encoder entry per symbol: the canonical (MSB-first) code
    /// pre-reversed to its LSB-first wire form in the low 32 bits and the
    /// code length above them (`wire | len << 32`), so one load yields
    /// what [`BitWriter::write_bits`] takes. The MSB-first code is
    /// recoverable as `reverse_bits(wire, len)`.
    entries: Vec<u64>,
    /// max code length actually used (0 for an empty alphabet).
    max_len: u32,
    /// Two-level decode tables, built on first use.
    dec: OnceLock<DecodeTables>,
}

/// The two-level decode tables of a [`HuffmanCodec`].
#[derive(Debug, Clone)]
pub(crate) struct DecodeTables {
    /// max code length (0 for an empty alphabet).
    max_len: u32,
    /// fast[peeked FAST_BITS, LSB-first] = (payload, len).
    /// len > 0          ⇒ direct hit: payload is the symbol.
    /// len = 0, payload = `INVALID` ⇒ no code has this prefix (corrupt).
    /// len = 0 otherwise ⇒ payload = (subtable offset << 5) | sub_bits.
    fast: Vec<(u32, u8)>,
    /// Second-level entries (symbol, total code length); length 0 ⇒ the
    /// extended bit pattern matches no code.
    sub: Vec<(u32, u8)>,
}

/// Primary-table payload marking a prefix no code starts with.
const INVALID: u32 = u32::MAX;

impl HuffmanCodec {
    /// Build a codec from a dense frequency table (`counts[s]` = number of
    /// occurrences of symbol `s`).
    pub fn from_counts(counts: &[u64]) -> Self {
        let (mut lens, mut max) = build_code_lengths(counts);
        let mut scaled = Vec::new();
        while max > MAX_CODE_LEN {
            // Halve (floor, keep nonzero alive) and retry — flattens the
            // distribution, which strictly reduces the maximum depth.
            if scaled.is_empty() {
                scaled = counts.to_vec();
            }
            for c in scaled.iter_mut() {
                if *c > 0 {
                    *c = (*c >> 1).max(1);
                }
            }
            (lens, max) = build_code_lengths(&scaled);
        }
        Self::from_lens(lens)
    }

    /// Rebuild a codec from code lengths, all ≤ [`MAX_CODE_LEN`] (the
    /// canonical-code construction — shared by the builder and the table
    /// deserializer).
    fn from_lens(lens: Vec<u8>) -> Self {
        let bl_count = length_histogram(&lens);
        let max_len = bl_count.iter().rposition(|&c| c > 0).unwrap_or(0) as u32;
        // DEFLATE-style canonical code assignment.
        let mut next_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut code = 0u32;
        for len in 1..=max_len as usize {
            code = (code + bl_count[len - 1]) << 1;
            next_code[len] = code;
        }
        let entries = lens
            .iter()
            .map(|&l| {
                if l == 0 {
                    return 0;
                }
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                u64::from(reverse_bits(c, l as u32)) | u64::from(l) << 32
            })
            .collect();
        HuffmanCodec {
            lens,
            entries,
            max_len,
            dec: OnceLock::new(),
        }
    }

    /// Packed encoder entries, one per symbol: `wire | len << 32`, where
    /// `wire` is the code in LSB-first wire order and `len` its length
    /// (0 for a symbol absent from the counts).
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// The decode tables, built on first use.
    #[inline]
    pub(crate) fn tables(&self) -> &DecodeTables {
        self.dec
            .get_or_init(|| DecodeTables::build(&self.entries, self.max_len))
    }

    /// Alphabet size this codec was built for.
    pub fn alphabet(&self) -> usize {
        self.lens.len()
    }

    /// Code length in bits assigned to `sym` (0 if unused).
    pub fn code_len(&self, sym: u32) -> u8 {
        self.lens[sym as usize]
    }

    /// Exact size in bits of encoding the given frequency-table contents.
    pub fn encoded_bits(&self, counts: &[u64]) -> u64 {
        counts
            .iter()
            .zip(&self.lens)
            .map(|(&c, &l)| c * u64::from(l))
            .sum()
    }

    /// Exact size in bits of each of the four round-robin streams whose
    /// symbol counts are `lanes` (see [`crate::freq::count_dense_lanes`]).
    pub fn encoded_lane_bits(&self, lanes: &[[u32; 4]]) -> [u64; 4] {
        let mut bits = [0u64; 4];
        for (lane, &l) in lanes.iter().zip(&self.lens) {
            for k in 0..4 {
                bits[k] += u64::from(lane[k]) * u64::from(l);
            }
        }
        bits
    }

    /// Append the code for one symbol.
    ///
    /// # Panics
    /// Panics if `sym` is outside the alphabet; encoding a symbol that was
    /// absent from the frequency table (length 0) is a logic error.
    #[inline]
    pub fn encode_one(&self, sym: u32, w: &mut BitWriter) {
        let e = self.entries[sym as usize];
        debug_assert!(e >> 32 > 0, "encoding symbol {sym} with no code");
        w.write_bits(e & u64::from(u32::MAX), (e >> 32) as u32);
    }

    /// Encode a slice of symbols. Two codes go out per
    /// [`BitWriter::write_bits`] call (2 × `MAX_CODE_LEN` = 56 bits fits
    /// its per-call limit); the bitstream is identical to
    /// symbol-at-a-time encoding.
    pub fn encode(&self, symbols: &[u32], w: &mut BitWriter) {
        let mut pairs = symbols.chunks_exact(2);
        for pair in &mut pairs {
            let (w0, l0) = unpack(self.entries[pair[0] as usize]);
            let (w1, l1) = unpack(self.entries[pair[1] as usize]);
            debug_assert!(l0 > 0 && l1 > 0, "encoding symbol with no code");
            w.write_bits(u64::from(w0) | u64::from(w1) << l0, l0 + l1);
        }
        for &s in pairs.remainder() {
            self.encode_one(s, w);
        }
    }

    /// Decode one symbol.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] when the stream ends mid-code;
    /// [`CodecError::Corrupt`] when the bits match no code.
    #[inline]
    pub fn decode_one(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        self.tables().decode_one(r)
    }

    /// Decode exactly `n` symbols into `out`.
    ///
    /// # Errors
    /// Propagates [`HuffmanCodec::decode_one`] failures.
    pub fn decode(
        &self,
        r: &mut BitReader<'_>,
        n: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), CodecError> {
        let t = self.tables();
        out.reserve(n);
        for _ in 0..n {
            out.push(t.decode_one(r)?);
        }
        Ok(())
    }

    /// Serialize the code-length table (alphabet varint, then
    /// `(length, run)` pairs covering the alphabet).
    pub fn write_table(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.lens.len() as u64);
        let mut rest = &self.lens[..];
        while let Some(&l) = rest.first() {
            let run = rest.iter().position(|&x| x != l).unwrap_or(rest.len());
            out.push(l);
            varint::write_u64(out, run as u64);
            rest = &rest[run..];
        }
    }

    /// Deserialize a table written by [`HuffmanCodec::write_table`].
    ///
    /// # Errors
    /// [`CodecError::Corrupt`] on malformed runs or lengths exceeding
    /// the maximum; [`CodecError::UnexpectedEof`] on truncation.
    pub fn read_table(src: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        let alphabet = varint::read_u64(src, pos)? as usize;
        if alphabet > MAX_TABLE_ALPHABET {
            return Err(CodecError::LimitExceeded {
                what: "Huffman alphabet",
                requested: alphabet as u64,
                limit: MAX_TABLE_ALPHABET as u64,
            });
        }
        let mut lens = Vec::with_capacity(alphabet);
        while lens.len() < alphabet {
            let l = *src.get(*pos).ok_or(CodecError::UnexpectedEof)?;
            *pos += 1;
            if l as u32 > MAX_CODE_LEN {
                return Err(CodecError::Corrupt("code length exceeds maximum"));
            }
            let run = varint::read_u64(src, pos)? as usize;
            if run == 0 || run > alphabet - lens.len() {
                return Err(CodecError::Corrupt("bad code-length run"));
            }
            lens.resize(lens.len() + run, l);
        }
        // Kraft inequality check: rejects tables no prefix code satisfies.
        let bl_count = length_histogram(&lens);
        let used: u64 = bl_count.iter().map(|&c| u64::from(c)).sum();
        let kraft: u64 = (1..=MAX_CODE_LEN)
            .map(|l| u64::from(bl_count[l as usize]) << (MAX_CODE_LEN - l))
            .sum();
        let full = 1u64 << MAX_CODE_LEN;
        if used > 1 && kraft > full {
            return Err(CodecError::Corrupt("code lengths violate Kraft inequality"));
        }
        let codec = Self::from_lens(lens);
        // Size the two-level decode table before it is ever built:
        // Kraft-legal adversarial length sets can demand gigabytes of
        // subtables.
        let sub_entries = DecodeTables::sub_entries(&codec.entries, codec.max_len);
        if sub_entries > MAX_SUB_TABLE_ENTRIES {
            return Err(CodecError::LimitExceeded {
                what: "Huffman decode-table entries",
                requested: sub_entries as u64,
                limit: MAX_SUB_TABLE_ENTRIES as u64,
            });
        }
        Ok(codec)
    }
}

impl DecodeTables {
    /// The primary and second-level tables for a codec's entries.
    fn build(entries: &[u64], max_len: u32) -> Self {
        let fast_len = 1usize << FAST_BITS;
        let mut fast = vec![(INVALID, 0u8); fast_len];
        for (sym, &e) in entries.iter().enumerate() {
            let (wire, l) = unpack(e);
            if l == 0 || l > FAST_BITS {
                continue;
            }
            // Every extension of the wire form below FAST_BITS maps to
            // this symbol.
            let step = 1usize << l;
            let mut idx = wire as usize;
            while idx < fast_len {
                fast[idx] = (sym as u32, l as u8);
                idx += step;
            }
        }
        // Second level: group codes longer than FAST_BITS by their low
        // FAST_BITS wire prefix; each group gets a subtable indexed by the
        // next `longest-in-group − FAST_BITS` bits.
        let mut sub: Vec<(u32, u8)> = Vec::new();
        if max_len > FAST_BITS {
            for (prefix, &gmax) in Self::group_max(entries).iter().enumerate() {
                if gmax == 0 {
                    continue;
                }
                let sub_bits = gmax - FAST_BITS;
                debug_assert!(fast[prefix].1 == 0, "short code shadows long prefix");
                fast[prefix] = (((sub.len() as u32) << 5) | sub_bits, 0);
                sub.resize(sub.len() + (1usize << sub_bits), (0, 0));
            }
            for (sym, &e) in entries.iter().enumerate() {
                let (wire, l) = unpack(e);
                if l <= FAST_BITS {
                    continue;
                }
                let prefix = (wire & (fast_len as u32 - 1)) as usize;
                let (payload, _) = fast[prefix];
                let sub_bits = payload & 0x1f;
                let base = (payload >> 5) as usize;
                // Every extension of the remainder bits maps to this symbol.
                let step = 1usize << (l - FAST_BITS);
                let mut idx = (wire >> FAST_BITS) as usize;
                while idx < (1usize << sub_bits) {
                    sub[base + idx] = (sym as u32, l as u8);
                    idx += step;
                }
            }
        }
        DecodeTables { max_len, fast, sub }
    }

    /// Longest code per low-`FAST_BITS` wire prefix, over the codes
    /// longer than `FAST_BITS` (0 where no long code has that prefix).
    fn group_max(entries: &[u64]) -> Vec<u32> {
        let fast_len = 1usize << FAST_BITS;
        let mut group_max = vec![0u32; fast_len];
        for &e in entries {
            let (wire, l) = unpack(e);
            if l > FAST_BITS {
                let prefix = (wire & (fast_len as u32 - 1)) as usize;
                group_max[prefix] = group_max[prefix].max(l);
            }
        }
        group_max
    }

    /// Second-level entry count [`DecodeTables::build`] allocates for
    /// these entries (one subtable per deep low-`FAST_BITS` wire prefix,
    /// sized by the group's longest code).
    fn sub_entries(entries: &[u64], max_len: u32) -> usize {
        if max_len <= FAST_BITS {
            return 0;
        }
        Self::group_max(entries)
            .iter()
            .filter(|&&g| g > 0)
            .map(|&g| 1usize << (g - FAST_BITS))
            .sum()
    }

    /// Decode one symbol (see [`HuffmanCodec::decode_one`]).
    #[inline]
    pub(crate) fn decode_one(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        if self.max_len == 0 {
            return Err(CodecError::Corrupt("decode from empty codec"));
        }
        let peek = r.peek_bits(FAST_BITS) as usize;
        let (payload, len) = self.fast[peek];
        if len > 0 {
            if r.bits_remaining() < len as usize {
                return Err(CodecError::UnexpectedEof);
            }
            r.consume(len as u32);
            return Ok(payload);
        }
        if payload == INVALID {
            // Peeks past the end read as zeros, so a truncated stream can
            // land here; report EOF rather than corruption in that case.
            if r.bits_remaining() < FAST_BITS as usize {
                return Err(CodecError::UnexpectedEof);
            }
            return Err(CodecError::Corrupt("bit pattern matches no Huffman code"));
        }
        // Long code: one more lookup in the prefix's subtable.
        let sub_bits = payload & 0x1f;
        let base = (payload >> 5) as usize;
        let ext = r.peek_bits(FAST_BITS + sub_bits) as usize;
        let (sym, total) = self.sub[base + (ext >> FAST_BITS)];
        if total == 0 {
            if r.bits_remaining() < (FAST_BITS + sub_bits) as usize {
                return Err(CodecError::UnexpectedEof);
            }
            return Err(CodecError::Corrupt("bit pattern matches no Huffman code"));
        }
        if r.bits_remaining() < total as usize {
            return Err(CodecError::UnexpectedEof);
        }
        r.consume(total as u32);
        Ok(sym)
    }

    /// [`DecodeTables::decode_one`] on a raw `(acc, nbits)` accumulator,
    /// without per-symbol EOF accounting. The SoA quad fast path in
    /// [`crate::mshuf`] mirrors four readers into flat arrays so their
    /// refills can be vectorized; this is the per-lane table walk it runs
    /// between refills. Precondition: ≥ [`MAX_CODE_LEN`] bits buffered
    /// (the caller checked ≥ 8 unread bytes per lane and refilled), so a table
    /// miss is corruption, never truncation.
    #[inline]
    pub(crate) fn decode_one_raw(&self, acc: &mut u64, nbits: &mut u32) -> Result<u32, CodecError> {
        let peek = (*acc & ((1u64 << FAST_BITS) - 1)) as usize;
        let (payload, len) = self.fast[peek];
        if len > 0 {
            debug_assert!(*nbits >= len as u32, "decode_one_raw past fill");
            *acc >>= len as u32;
            *nbits -= len as u32;
            return Ok(payload);
        }
        if payload == INVALID {
            return Err(CodecError::Corrupt("bit pattern matches no Huffman code"));
        }
        let sub_bits = payload & 0x1f;
        let base = (payload >> 5) as usize;
        let ext = (*acc & ((1u64 << (FAST_BITS + sub_bits)) - 1)) as usize;
        let (sym, total) = self.sub[base + (ext >> FAST_BITS)];
        if total == 0 {
            return Err(CodecError::Corrupt("bit pattern matches no Huffman code"));
        }
        debug_assert!(*nbits >= total as u32, "decode_one_raw past fill");
        *acc >>= total as u32;
        *nbits -= total as u32;
        Ok(sym)
    }
}

/// Split a packed encoder entry into `(wire, len)`.
#[inline]
fn unpack(e: u64) -> (u32, u32) {
    (e as u32, (e >> 32) as u32)
}

/// Number of symbols per code length (`[0]` is always 0: unused symbols
/// are not counted). Lengths must be ≤ [`MAX_CODE_LEN`].
fn length_histogram(lens: &[u8]) -> [u32; MAX_CODE_LEN as usize + 1] {
    let mut bl_count = [0u32; MAX_CODE_LEN as usize + 1];
    for &l in lens {
        bl_count[l as usize] += 1;
    }
    bl_count[0] = 0;
    bl_count
}

/// Reverse the low `n` bits of `v` (MSB-first canonical code → LSB-first
/// wire form).
#[inline]
fn reverse_bits(v: u32, n: u32) -> u32 {
    v.reverse_bits() >> (32 - n)
}

/// Compute Huffman code lengths from frequencies, and the longest one.
///
/// Two-queue construction: the live symbols sorted by `(count, symbol)`
/// are merged with a FIFO of internal nodes, a leaf winning a weight tie.
/// Internal weights come out nondecreasing, so the FIFO front is always
/// the lightest internal node, and every merge takes the same two nodes a
/// min-heap keyed on `(weight, tiebreak)` would — with a leaf's tiebreak
/// its symbol and the k-th internal node's `counts.len() + k`, larger
/// than every symbol. The tree, and so every length, is that heap's
/// (deterministic across runs, and checked against it in the tests).
fn build_code_lengths(counts: &[u64]) -> (Vec<u8>, u32) {
    let mut leaves: Vec<(u64, u32)> = counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(s, &c)| (c, s as u32))
        .collect();
    let mut lens = vec![0u8; counts.len()];
    match leaves.len() {
        0 => return (lens, 0),
        1 => {
            // A lone symbol still needs one bit so the stream is decodable.
            lens[leaves[0].1 as usize] = 1;
            return (lens, 1);
        }
        _ => {}
    }
    leaves.sort_unstable();

    // Nodes 0..n are the sorted leaves; internal node k is node n + k.
    let n = leaves.len();
    let mut parent = vec![0u32; 2 * n - 1];
    let mut weight = Vec::with_capacity(n - 1);
    let (mut leaf, mut queued) = (0usize, 0usize);
    for k in 0..n - 1 {
        let node = n + k;
        let mut sum = 0u64;
        for _ in 0..2 {
            let take_leaf = leaf < n && (queued == k || leaves[leaf].0 <= weight[queued]);
            let child = if take_leaf {
                sum += leaves[leaf].0;
                leaf += 1;
                leaf - 1
            } else {
                sum += weight[queued];
                queued += 1;
                n + queued - 1
            };
            parent[child] = node as u32;
        }
        weight.push(sum);
    }
    // Depth of each node = number of parent hops to the root. Parents
    // have larger indices than their children, so walk down from the
    // root (the last node).
    let mut depth = vec![0u8; 2 * n - 1];
    for node in (0..2 * n - 2).rev() {
        depth[node] = depth[parent[node] as usize] + 1;
    }
    let mut max = 0u32;
    for (&(_, sym), &d) in leaves.iter().zip(&depth) {
        lens[sym as usize] = d;
        max = max.max(u32::from(d));
    }
    (lens, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::count_dense;

    fn roundtrip(symbols: &[u32], alphabet: usize) {
        let counts = count_dense(symbols, alphabet);
        let codec = HuffmanCodec::from_counts(&counts);
        let mut w = BitWriter::new();
        codec.encode(symbols, &mut w);
        let bytes = w.finish();
        // Serialize + rebuild the table, decode with the rebuilt codec.
        let mut table = Vec::new();
        codec.write_table(&mut table);
        let mut pos = 0;
        let codec2 = HuffmanCodec::read_table(&table, &mut pos).unwrap();
        assert_eq!(pos, table.len());
        let mut r = BitReader::new(&bytes);
        let mut out = Vec::new();
        codec2.decode(&mut r, symbols.len(), &mut out).unwrap();
        assert_eq!(out, symbols);
    }

    #[test]
    fn two_symbol_roundtrip() {
        roundtrip(&[0, 1, 0, 0, 1, 0, 0, 0], 2);
    }

    #[test]
    fn skewed_roundtrip() {
        let mut syms = vec![5u32; 1000];
        syms.extend([0, 1, 2, 3, 4, 6, 7].repeat(3));
        roundtrip(&syms, 8);
    }

    #[test]
    fn single_symbol_stream() {
        roundtrip(&[3; 257], 10);
    }

    #[test]
    fn empty_stream() {
        let counts = vec![0u64; 16];
        let codec = HuffmanCodec::from_counts(&counts);
        let mut w = BitWriter::new();
        codec.encode(&[], &mut w);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn large_alphabet_quantization_codes() {
        // Emulates SZ: 65536 bins, codes clustered around the center.
        let alphabet = 65536usize;
        let center = 32768u32;
        let mut syms = Vec::new();
        for i in 0..20000u32 {
            let spread = (i % 37) as i32 - 18;
            syms.push((center as i32 + spread) as u32);
        }
        roundtrip(&syms, alphabet);
    }

    #[test]
    fn optimality_against_entropy() {
        // Huffman is within 1 bit/symbol of the entropy bound.
        let mut syms = Vec::new();
        for (sym, reps) in [(0u32, 50usize), (1, 25), (2, 13), (3, 12)] {
            syms.extend(std::iter::repeat(sym).take(reps));
        }
        let counts = count_dense(&syms, 4);
        let codec = HuffmanCodec::from_counts(&counts);
        let bits = codec.encoded_bits(&counts) as f64 / syms.len() as f64;
        let h = crate::freq::shannon_entropy(&counts);
        assert!(bits >= h - 1e-9, "below entropy: {bits} < {h}");
        assert!(bits < h + 1.0, "more than 1 bit over entropy");
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let counts = vec![5u64, 9, 12, 13, 16, 45];
        let codec = HuffmanCodec::from_counts(&counts);
        for a in 0..counts.len() as u32 {
            for b in 0..counts.len() as u32 {
                if a == b {
                    continue;
                }
                let (la, lb) = (codec.lens[a as usize], codec.lens[b as usize]);
                let ca = reverse_bits(codec.entries[a as usize] as u32, la as u32);
                let cb = reverse_bits(codec.entries[b as usize] as u32, lb as u32);
                if la <= lb {
                    assert_ne!(
                        ca,
                        cb >> (lb - la),
                        "code of {a} is a prefix of code of {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn classic_frequency_set_gets_optimal_lengths() {
        // Textbook example: frequencies 45,13,12,16,9,5 → code lengths
        // 1,3,3,3,4,4 (up to permutation within equal frequencies).
        let counts = vec![45u64, 13, 12, 16, 9, 5];
        let codec = HuffmanCodec::from_counts(&counts);
        assert_eq!(codec.code_len(0), 1);
        let mut rest: Vec<u8> = (1..6).map(|s| codec.code_len(s)).collect();
        rest.sort_unstable();
        assert_eq!(rest, vec![3, 3, 3, 4, 4]);
    }

    #[test]
    fn two_level_table_handles_deep_codes() {
        // Fibonacci-ish weights force a maximally skewed tree, driving code
        // lengths well past FAST_BITS into the second-level subtables.
        let mut counts = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for c in counts.iter_mut() {
            *c = a;
            let next = a + b;
            a = b;
            b = next;
        }
        let codec = HuffmanCodec::from_counts(&counts);
        assert!(codec.max_len > FAST_BITS + 5, "want deep subtables");
        let syms: Vec<u32> = (0..40u32).chain((0..40u32).rev()).collect();
        let mut w = BitWriter::new();
        codec.encode(&syms, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut out = Vec::new();
        codec.decode(&mut r, syms.len(), &mut out).unwrap();
        assert_eq!(out, syms);
        // Truncating mid-deep-code must error, not mis-decode.
        let mut r = BitReader::new(&bytes[..2]);
        let mut out = Vec::new();
        assert!(codec.decode(&mut r, syms.len(), &mut out).is_err());
    }

    #[test]
    fn paired_encode_matches_symbol_at_a_time() {
        // Deep codes (near MAX_CODE_LEN) plus odd/even stream lengths
        // exercise the packed pair path and its remainder handling.
        let mut counts = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for c in counts.iter_mut() {
            *c = a;
            let next = a + b;
            a = b;
            b = next;
        }
        let codec = HuffmanCodec::from_counts(&counts);
        for n in [0usize, 1, 2, 3, 80, 81] {
            let syms: Vec<u32> = (0..n as u32).map(|i| i % 40).collect();
            let mut batched = BitWriter::new();
            codec.encode(&syms, &mut batched);
            let mut single = BitWriter::new();
            for &s in &syms {
                codec.encode_one(s, &mut single);
            }
            assert_eq!(batched.finish(), single.finish(), "n={n}");
        }
    }

    #[test]
    fn truncated_stream_is_eof() {
        let counts = vec![1u64, 1, 1, 1];
        let codec = HuffmanCodec::from_counts(&counts);
        let mut w = BitWriter::new();
        codec.encode(&[0, 1, 2, 3, 0, 1, 2, 3], &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes[..bytes.len() - 1]);
        let mut out = Vec::new();
        assert!(codec.decode(&mut r, 8, &mut out).is_err());
    }

    #[test]
    fn corrupt_table_rejected() {
        // Kraft violation: three symbols all with length 1.
        let mut table = Vec::new();
        varint::write_u64(&mut table, 3);
        table.push(1u8);
        varint::write_u64(&mut table, 3);
        let mut pos = 0;
        assert!(matches!(
            HuffmanCodec::read_table(&table, &mut pos),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn table_roundtrip_preserves_lengths() {
        let counts: Vec<u64> = (0..300).map(|i| (i % 17) as u64).collect();
        let codec = HuffmanCodec::from_counts(&counts);
        let mut table = Vec::new();
        codec.write_table(&mut table);
        let mut pos = 0;
        let codec2 = HuffmanCodec::read_table(&table, &mut pos).unwrap();
        assert_eq!(codec.lens, codec2.lens);
        assert_eq!(codec.entries, codec2.entries);
    }

    #[test]
    fn fast_and_slow_paths_agree() {
        // Force some codes past FAST_BITS by using a geometric distribution
        // over a moderately large alphabet.
        let alphabet = 4000usize;
        let counts: Vec<u64> = (0..alphabet)
            .map(|i| 1u64 << (20usize.saturating_sub(i / 200)))
            .collect();
        let codec = HuffmanCodec::from_counts(&counts);
        assert!(
            codec.max_len > FAST_BITS,
            "test needs codes longer than the fast table"
        );
        let syms: Vec<u32> = (0..alphabet as u32).collect();
        let mut w = BitWriter::new();
        codec.encode(&syms, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut out = Vec::new();
        codec.decode(&mut r, syms.len(), &mut out).unwrap();
        assert_eq!(out, syms);
    }
}
