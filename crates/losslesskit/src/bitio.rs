//! LSB-first bit-level I/O.
//!
//! Both the Huffman coder and the DEFLATE-like container pack variable-width
//! codes; this module provides the shared writer/reader. Bits are packed
//! least-significant-bit first within each byte (DEFLATE's convention), so a
//! code written as `write_bits(0b101, 3)` occupies bit 0..3 of the current
//! byte with bit 0 first.
//!
//! Both sides work **word-at-a-time**: the writer drains its 64-bit
//! accumulator in one little-endian multi-byte copy per call, and the
//! reader refills by loading 8 input bytes at once. The per-call width cap
//! of 57 bits is what makes this sound — after any `write_bits`/`read_bits`
//! the accumulator holds at most 7 residual bits, so a whole byte-aligned
//! word always fits.
//!
//! ```
//! use losslesskit::{BitReader, BitWriter};
//!
//! let mut w = BitWriter::new();
//! w.write_bits(0b101, 3);
//! w.write_bits(0x3FF, 10);
//! let bytes = w.finish(); // final partial byte zero-padded
//! assert_eq!(bytes.len(), 2); // 13 bits -> 2 bytes
//!
//! let mut r = BitReader::new(&bytes);
//! assert_eq!(r.read_bits(3).unwrap(), 0b101);
//! assert_eq!(r.peek_bits(10), 0x3FF); // peek never consumes
//! r.consume(10);
//! assert_eq!(r.bits_remaining(), 3); // the zero padding
//! assert!(r.read_bits(4).is_err()); // reading past it is EOF, not a panic
//! ```

use crate::simd::{self, SimdLevel};
use crate::CodecError;

/// Accumulates bits into a byte buffer, LSB-first.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    acc: u64,
    nbits: u32,
    /// Dispatch-level sample (≥ SSE2) taken at construction: drain with a
    /// fixed-width 8-byte store instead of a variable-length copy. The
    /// bytes appended are identical either way — the wide store's excess
    /// bytes are truncated off before they are ever observable.
    wide_drain: bool,
}

impl BitWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A fresh writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        BitWriter {
            buf: Vec::with_capacity(cap),
            acc: 0,
            nbits: 0,
            wide_drain: simd::active() >= SimdLevel::Sse2,
        }
    }

    /// Append the low `n` bits of `bits` (`n ≤ 57` per call so the 64-bit
    /// accumulator never overflows before draining).
    #[inline]
    pub fn write_bits(&mut self, bits: u64, n: u32) {
        debug_assert!(n <= 57, "write_bits called with n={n} > 57");
        debug_assert!(n == 64 || bits < (1u64 << n), "value wider than bit count");
        self.acc |= bits << self.nbits;
        self.nbits += n;
        // Drain every whole byte in one word-level copy instead of a
        // byte-at-a-time push loop (the accumulator is little-endian by
        // construction, so its LE byte image is exactly the wire form).
        let nbytes = (self.nbits / 8) as usize;
        if nbytes > 0 {
            if self.wide_drain {
                // Store the full accumulator word unconditionally, then
                // chop the `8 − nbytes` over-stored bytes: one fixed-size
                // copy and a length adjustment instead of a 1–8 byte
                // variable-length copy per drain.
                self.buf.extend_from_slice(&self.acc.to_le_bytes());
                self.buf.truncate(self.buf.len() - (8 - nbytes));
            } else {
                self.buf
                    .extend_from_slice(&self.acc.to_le_bytes()[..nbytes]);
            }
            self.acc = if nbytes == 8 {
                0
            } else {
                self.acc >> (nbytes * 8)
            };
            self.nbits -= (nbytes * 8) as u32;
        }
    }

    /// Append a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Number of whole bytes flushed so far (excludes the partial byte).
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Pad the final partial byte with zero bits and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.buf.push((self.acc & 0xff) as u8);
        }
        self.buf
    }
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Start reading from the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    #[inline]
    pub(crate) fn refill(&mut self) {
        // Word-level fast path: load 8 bytes at once and splice in as many
        // as fit. Falls back to byte-at-a-time only within the final 7
        // bytes of the stream.
        if self.nbits <= 56 && self.data.len() - self.pos >= 8 {
            let word = u64::from_le_bytes(
                self.data[self.pos..self.pos + 8]
                    .try_into()
                    .expect("slice is 8 bytes"),
            );
            let take = ((64 - self.nbits) / 8) as usize;
            let mask = if take == 8 {
                u64::MAX
            } else {
                (1u64 << (take * 8)) - 1
            };
            self.acc |= (word & mask) << self.nbits;
            self.pos += take;
            self.nbits += (take * 8) as u32;
            return;
        }
        while self.nbits <= 56 && self.pos < self.data.len() {
            self.acc |= (self.data[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Read `n ≤ 57` bits; fails with [`CodecError::UnexpectedEof`] when the
    /// stream has fewer bits left (padding bits at the very end count as
    /// available zeros, matching [`BitWriter::finish`]).
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        debug_assert!(n <= 57);
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(CodecError::UnexpectedEof);
            }
        }
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let out = self.acc & mask;
        self.acc >>= n;
        self.nbits -= n;
        Ok(out)
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Peek up to `n ≤ 57` bits without consuming them. Bits beyond the end
    /// of the stream read as zero (needed by table-driven Huffman decoders
    /// that peek a fixed width near the end of input).
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 57);
        if self.nbits < n {
            self.refill();
        }
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        self.acc & mask
    }

    /// Consume `n` bits previously examined via [`BitReader::peek_bits`].
    ///
    /// # Panics
    /// Debug-panics if fewer than `n` bits are buffered.
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(self.nbits >= n, "consume past peek window");
        self.acc >>= n;
        self.nbits -= n;
    }

    /// Bits still available (buffered plus unread bytes).
    pub fn bits_remaining(&self) -> usize {
        self.nbits as usize + (self.data.len() - self.pos) * 8
    }

    /// The underlying input slice (for [`crate::mshuf`]'s SoA fast path,
    /// which mirrors four readers' state into flat arrays).
    pub(crate) fn data(&self) -> &'a [u8] {
        self.data
    }

    /// Raw `(pos, acc, nbits)` decode state, paired with
    /// [`BitReader::set_raw_state`].
    pub(crate) fn raw_state(&self) -> (usize, u64, u32) {
        (self.pos, self.acc, self.nbits)
    }

    /// Restore state captured (and possibly advanced) externally. The SoA
    /// fast path performs exactly the [`BitReader::refill`] /
    /// [`BitReader::consume`] transitions on its mirror, so any state
    /// written back here is one this reader could have reached itself.
    pub(crate) fn set_raw_state(&mut self, pos: usize, acc: u64, nbits: u32) {
        debug_assert!(pos <= self.data.len());
        debug_assert!(nbits <= 64);
        self.pos = pos;
        self.acc = acc;
        self.nbits = nbits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_width_roundtrip() {
        let mut w = BitWriter::new();
        let items: &[(u64, u32)] = &[
            (0b1, 1),
            (0b1011, 4),
            (0x3fff, 14),
            (0, 3),
            (0x1f_ffff_ffff, 37),
            (0b10, 2),
        ];
        for &(v, n) in items {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in items {
            assert_eq!(r.read_bits(n).unwrap(), v, "width {n}");
        }
    }

    #[test]
    fn lsb_first_layout_matches_deflate_convention() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1); // bit 0 of byte 0
        w.write_bits(0b11, 2); // bits 1-2
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_0111]);
    }

    #[test]
    fn eof_detected() {
        let mut r = BitReader::new(&[0xff]);
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bits(1), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut w = BitWriter::new();
        w.write_bits(0b1010_1100, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(4), 0b1100);
        assert_eq!(r.peek_bits(4), 0b1100);
        r.consume(4);
        assert_eq!(r.read_bits(4).unwrap(), 0b1010);
    }

    #[test]
    fn peek_past_end_reads_zeros() {
        let mut r = BitReader::new(&[0b1]);
        assert_eq!(r.peek_bits(16), 1);
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0, 13);
        assert_eq!(w.bit_len(), 13);
        assert_eq!(w.byte_len(), 1);
        assert_eq!(w.finish().len(), 2);
    }

    #[test]
    fn bits_remaining_counts_down() {
        let mut r = BitReader::new(&[0, 0, 0]);
        assert_eq!(r.bits_remaining(), 24);
        r.read_bits(5).unwrap();
        assert_eq!(r.bits_remaining(), 19);
    }
}
