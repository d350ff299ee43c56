//! Multi-stream interleaved Huffman coding.
//!
//! A single Huffman bitstream decodes serially: every symbol's bit length
//! must be resolved before the next symbol's position in the stream is
//! known, so the decoder is one long dependency chain of table lookups.
//! This module breaks that chain the way csz/fpzip-style coders do: the
//! symbol sequence is split round-robin across `n` **independent** bit
//! streams (symbol `i` goes to stream `i mod n`), and the decoder drains
//! all `n` streams together — `n` table lookups per loop iteration with no
//! dependency between them, which the CPU can overlap.
//!
//! All streams share one [`HuffmanCodec`] (one table on the wire); only
//! the bit positions are interleaved, so the total payload is within
//! `n − 1` padding bytes plus stream-length varints of the single-stream
//! encoding.
//!
//! # Wire format
//!
//! ```text
//! u8       n_streams        1..=MAX_STREAMS
//! varint   byte_len[n]      per-stream bitstream length in bytes
//! bytes    stream[0] ‖ stream[1] ‖ … ‖ stream[n−1]
//! ```
//!
//! Each stream is an independent LSB-first bitstream padded to a byte
//! boundary ([`crate::bitio::BitWriter::finish`] semantics). The symbol
//! count is *not* stored — the caller knows it from its own framing, as
//! everywhere else in this crate.
//!
//! ```
//! use losslesskit::huffman::HuffmanCodec;
//! use losslesskit::mshuf;
//!
//! let symbols: Vec<u32> = (0..1000u32).map(|i| i % 7).collect();
//! let codec = HuffmanCodec::from_counts(&losslesskit::freq::count_dense(&symbols, 7));
//! let blob = mshuf::encode(&symbols, &codec, 4);
//! let back = mshuf::decode_all(&blob, &codec, symbols.len()).unwrap();
//! assert_eq!(back, symbols);
//! ```

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::HuffmanCodec;
use crate::simd::{self, SimdLevel};
use crate::varint;
use crate::CodecError;

/// Largest stream count the wire format accepts. Four streams saturate the
/// lookup-port parallelism of current cores; the cap leaves headroom
/// without letting hostile headers demand absurd reader state.
pub const MAX_STREAMS: usize = 8;

/// Stream count every encoder in the workspace writes (the SZ code
/// streams and the bake-off's Huffman chunks). Four independent streams
/// give the decoder four parallel bit-level dependency chains, which is
/// what lets it sustain more than one symbol per refill.
pub const HUFF_STREAMS: usize = 4;

/// Encode `symbols` round-robin into `n_streams` interleaved bitstreams
/// sharing `codec`. The codec's table is *not* serialized here — callers
/// frame it separately (see [`HuffmanCodec::write_table`]).
///
/// # Panics
/// Panics if `n_streams` is 0 or exceeds [`MAX_STREAMS`], or if a symbol
/// has no code (absent from the frequency table the codec was built from).
pub fn encode(symbols: &[u32], codec: &HuffmanCodec, n_streams: usize) -> Vec<u8> {
    assert!(
        (1..=MAX_STREAMS).contains(&n_streams),
        "n_streams {n_streams} out of 1..={MAX_STREAMS}"
    );
    let mut writers: Vec<BitWriter> = (0..n_streams)
        .map(|_| BitWriter::with_capacity(symbols.len() / (2 * n_streams) + 8))
        .collect();
    // Two "rows" of the round-robin at a time: symbols i and i + n go to
    // the same stream, so each writer takes a two-code packed write per
    // iteration (2 × 28 bits max fits one `write_bits` call) — the same
    // bookkeeping-halving trick as `HuffmanCodec::encode`.
    let mut chunks = symbols.chunks_exact(2 * n_streams);
    for chunk in &mut chunks {
        for (k, w) in writers.iter_mut().enumerate() {
            codec.encode_pair(chunk[k], chunk[k + n_streams], w);
        }
    }
    for (i, &s) in chunks.remainder().iter().enumerate() {
        codec.encode_one(s, &mut writers[i % n_streams]);
    }
    let streams: Vec<Vec<u8>> = writers.into_iter().map(BitWriter::finish).collect();
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total + n_streams * 5 + 1);
    out.push(n_streams as u8);
    for s in &streams {
        varint::write_u64(&mut out, s.len() as u64);
    }
    for s in &streams {
        out.extend_from_slice(s);
    }
    out
}

/// Streaming decoder over an interleaved blob: construct once, then pull
/// symbols in any chunk sizes — the round-robin position carries over
/// between calls, so chunked callers (e.g. a fused decode loop) see the
/// exact symbol sequence the encoder consumed.
#[derive(Debug)]
pub struct InterleavedReader<'a> {
    readers: Vec<BitReader<'a>>,
    /// Stream index the next symbol comes from.
    next: usize,
}

impl<'a> InterleavedReader<'a> {
    /// Parse the blob header and split `src` into per-stream readers.
    ///
    /// # Errors
    /// [`CodecError::Corrupt`] on a bad stream count or stream lengths
    /// that disagree with the blob length; [`CodecError::UnexpectedEof`]
    /// on truncation.
    pub fn new(src: &'a [u8]) -> Result<Self, CodecError> {
        let &n_streams = src.first().ok_or(CodecError::UnexpectedEof)?;
        let n_streams = n_streams as usize;
        if !(1..=MAX_STREAMS).contains(&n_streams) {
            return Err(CodecError::Corrupt("bad interleaved stream count"));
        }
        let mut pos = 1usize;
        let mut lens = [0usize; MAX_STREAMS];
        let mut total = 0usize;
        for len in lens.iter_mut().take(n_streams) {
            let l = varint::read_u64(src, &mut pos)? as usize;
            *len = l;
            total = total
                .checked_add(l)
                .ok_or(CodecError::Corrupt("interleaved stream lengths overflow"))?;
        }
        if total != src.len() - pos {
            return Err(if total > src.len() - pos {
                CodecError::UnexpectedEof
            } else {
                CodecError::Corrupt("interleaved blob has trailing bytes")
            });
        }
        let mut readers = Vec::with_capacity(n_streams);
        for &l in lens.iter().take(n_streams) {
            readers.push(BitReader::new(&src[pos..pos + l]));
            pos += l;
        }
        Ok(InterleavedReader { readers, next: 0 })
    }

    /// Number of interleaved streams in the blob.
    pub fn n_streams(&self) -> usize {
        self.readers.len()
    }

    /// Decode the next `n` symbols into `out`.
    ///
    /// # Errors
    /// Propagates [`HuffmanCodec::decode_one`] failures
    /// ([`CodecError::UnexpectedEof`] on a stream running dry,
    /// [`CodecError::Corrupt`] on bits matching no code).
    pub fn decode(
        &mut self,
        codec: &HuffmanCodec,
        n: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), CodecError> {
        out.reserve(n);
        let ns = self.readers.len();
        let mut remaining = n;
        // Realign to stream 0 so the unrolled loops below start clean.
        while remaining > 0 && self.next != 0 {
            let sym = codec.decode_one(&mut self.readers[self.next])?;
            out.push(sym);
            self.next = (self.next + 1) % ns;
            remaining -= 1;
        }
        // Whole rounds: the per-stream decodes inside one round are
        // independent dependency chains — this is the entire point.
        match &mut self.readers[..] {
            [r0] => {
                for _ in 0..remaining {
                    out.push(codec.decode_one(r0)?);
                }
                remaining = 0;
            }
            [r0, r1] => {
                while remaining >= 2 {
                    let s0 = codec.decode_one(r0);
                    let s1 = codec.decode_one(r1);
                    out.push(s0?);
                    out.push(s1?);
                    remaining -= 2;
                }
            }
            [r0, r1, r2, r3] => {
                // Fast rounds: while every stream still has ≥ 8 unread
                // bytes, one refill per stream buffers ≥ 56 bits — two
                // max-length codes — so the eight decodes below skip all
                // per-symbol EOF accounting and refill branches. Stream
                // tails fall through to the careful loop.
                //
                // The four readers' hot state lives in a SoA mirror for
                // the duration of the fast rounds. Every transition on
                // the mirror is exactly a reader refill/consume, so the
                // bytes consumed and symbols produced are identical to
                // driving the readers directly. `FPSNR_SIMD=off` keeps
                // the per-symbol reference loop below as the only path.
                if simd::active() >= SimdLevel::Sse2 {
                    let mut q = QuadState::capture(r0, r1, r2, r3);
                    let mut buf = [0u32; 8];
                    while remaining >= 8 && q.fast_ready() {
                        q.refill();
                        if let Err(e) = q.decode_round(codec, &mut buf) {
                            q.restore(r0, r1, r2, r3);
                            return Err(e);
                        }
                        out.extend_from_slice(&buf);
                        remaining -= 8;
                    }
                    q.restore(r0, r1, r2, r3);
                }
                while remaining >= 4 {
                    let s0 = codec.decode_one(r0);
                    let s1 = codec.decode_one(r1);
                    let s2 = codec.decode_one(r2);
                    let s3 = codec.decode_one(r3);
                    out.push(s0?);
                    out.push(s1?);
                    out.push(s2?);
                    out.push(s3?);
                    remaining -= 4;
                }
            }
            readers => {
                while remaining >= ns {
                    for r in readers.iter_mut() {
                        out.push(codec.decode_one(r)?);
                    }
                    remaining -= ns;
                }
            }
        }
        // Tail shorter than one round.
        while remaining > 0 {
            let sym = codec.decode_one(&mut self.readers[self.next])?;
            out.push(sym);
            self.next = (self.next + 1) % ns;
            remaining -= 1;
        }
        Ok(())
    }
}

/// Structure-of-arrays mirror of four [`BitReader`]s' hot state, alive
/// only for the duration of the no-EOF-check decode rounds.
///
/// The per-lane transitions are *exactly* [`BitReader::refill`]'s
/// word-level fast path — same `take`, same mask, same splice — so
/// consumed byte positions and decoded symbols are identical to driving
/// the readers directly. The refill is deliberately scalar: an AVX2
/// variant (vpsllvq mask/splice over the `acc`/`nbits` arrays) was
/// measured consistently *slower* — the loadu/storeu round-trip through
/// the arrays sits between decode rounds that are already serial per
/// lane, so the vector step adds latency without adding parallelism
/// (see DESIGN.md §17).
struct QuadState<'b> {
    data: [&'b [u8]; 4],
    pos: [usize; 4],
    acc: [u64; 4],
    nbits: [u32; 4],
}

impl<'b> QuadState<'b> {
    fn capture(
        r0: &BitReader<'b>,
        r1: &BitReader<'b>,
        r2: &BitReader<'b>,
        r3: &BitReader<'b>,
    ) -> Self {
        let mut q = QuadState {
            data: [r0.data(), r1.data(), r2.data(), r3.data()],
            pos: [0; 4],
            acc: [0; 4],
            nbits: [0; 4],
        };
        for (k, r) in [r0, r1, r2, r3].into_iter().enumerate() {
            let (pos, acc, nbits) = r.raw_state();
            q.pos[k] = pos;
            q.acc[k] = acc;
            q.nbits[k] = nbits;
        }
        q
    }

    /// Write the mirrored state back into the readers.
    fn restore(
        &self,
        r0: &mut BitReader<'b>,
        r1: &mut BitReader<'b>,
        r2: &mut BitReader<'b>,
        r3: &mut BitReader<'b>,
    ) {
        r0.set_raw_state(self.pos[0], self.acc[0], self.nbits[0]);
        r1.set_raw_state(self.pos[1], self.acc[1], self.nbits[1]);
        r2.set_raw_state(self.pos[2], self.acc[2], self.nbits[2]);
        r3.set_raw_state(self.pos[3], self.acc[3], self.nbits[3]);
    }

    /// All four lanes have ≥ 8 unread bytes, so a refill leaves every
    /// lane with ≥ 56 buffered bits.
    #[inline]
    fn fast_ready(&self) -> bool {
        (0..4).all(|k| self.data[k].len() - self.pos[k] >= 8)
    }

    /// Top every lane up to ≥ 56 buffered bits: per lane,
    /// [`BitReader::refill`]'s word-level path verbatim (the
    /// `fast_ready` gate guarantees 8 loadable bytes, so the
    /// byte-at-a-time fallback is unreachable). Caller checked
    /// [`QuadState::fast_ready`].
    #[inline]
    fn refill(&mut self) {
        for k in 0..4 {
            let word = u64::from_le_bytes(
                self.data[k][self.pos[k]..self.pos[k] + 8]
                    .try_into()
                    .expect("slice is 8 bytes"),
            );
            let take = ((64 - self.nbits[k]) / 8) as usize;
            let mask = if take == 8 {
                u64::MAX
            } else {
                (1u64 << (take * 8)) - 1
            };
            self.acc[k] |= (word & mask) << self.nbits[k];
            self.pos[k] += take;
            self.nbits[k] += (take * 8) as u32;
        }
    }

    /// Decode two symbols per lane in stream order (the eight decodes of
    /// one fast round). On error the lanes keep their partial progress so
    /// [`QuadState::restore`] reflects exactly what was consumed.
    #[inline]
    fn decode_round(&mut self, codec: &HuffmanCodec, buf: &mut [u32; 8]) -> Result<(), CodecError> {
        buf[0] = codec.decode_one_raw(&mut self.acc[0], &mut self.nbits[0])?;
        buf[1] = codec.decode_one_raw(&mut self.acc[1], &mut self.nbits[1])?;
        buf[2] = codec.decode_one_raw(&mut self.acc[2], &mut self.nbits[2])?;
        buf[3] = codec.decode_one_raw(&mut self.acc[3], &mut self.nbits[3])?;
        buf[4] = codec.decode_one_raw(&mut self.acc[0], &mut self.nbits[0])?;
        buf[5] = codec.decode_one_raw(&mut self.acc[1], &mut self.nbits[1])?;
        buf[6] = codec.decode_one_raw(&mut self.acc[2], &mut self.nbits[2])?;
        buf[7] = codec.decode_one_raw(&mut self.acc[3], &mut self.nbits[3])?;
        Ok(())
    }
}

/// One-shot convenience: decode exactly `n` symbols from an interleaved
/// blob produced by [`encode`].
///
/// # Errors
/// Propagates [`InterleavedReader::new`] and [`InterleavedReader::decode`]
/// failures.
pub fn decode_all(src: &[u8], codec: &HuffmanCodec, n: usize) -> Result<Vec<u32>, CodecError> {
    let mut reader = InterleavedReader::new(src)?;
    let mut out = Vec::with_capacity(n);
    reader.decode(codec, n, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq;

    fn codec_for(symbols: &[u32], alphabet: usize) -> HuffmanCodec {
        HuffmanCodec::from_counts(&freq::count_dense(symbols, alphabet))
    }

    fn mixed_symbols(n: usize) -> Vec<u32> {
        // Skewed distribution with a long tail, like quantization codes.
        (0..n as u32)
            .map(|i| {
                let x = i.wrapping_mul(2654435761) >> 16;
                if x % 10 < 7 {
                    x % 3
                } else {
                    x % 500
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip_all_stream_counts() {
        let symbols = mixed_symbols(4093); // deliberately not a round multiple
        let codec = codec_for(&symbols, 500);
        for ns in 1..=MAX_STREAMS {
            let blob = encode(&symbols, &codec, ns);
            let back = decode_all(&blob, &codec, symbols.len()).unwrap();
            assert_eq!(back, symbols, "{ns} streams");
        }
    }

    #[test]
    fn chunked_decode_matches_one_shot() {
        let symbols = mixed_symbols(10_000);
        let codec = codec_for(&symbols, 500);
        let blob = encode(&symbols, &codec, 4);
        let mut reader = InterleavedReader::new(&blob).unwrap();
        let mut out = Vec::new();
        // Chunk sizes deliberately misaligned with the stream count.
        for chunk in [1usize, 3, 7, 100, 1000, 8889] {
            reader.decode(&codec, chunk, &mut out).unwrap();
        }
        assert_eq!(out, symbols);
    }

    #[test]
    fn empty_input_roundtrips() {
        let symbols: Vec<u32> = vec![];
        let codec = codec_for(&[0], 1);
        let blob = encode(&symbols, &codec, 4);
        assert_eq!(decode_all(&blob, &codec, 0).unwrap(), symbols);
    }

    #[test]
    fn single_symbol_alphabet_roundtrips() {
        let symbols = vec![0u32; 999];
        let codec = codec_for(&symbols, 1);
        for ns in [1, 2, 4] {
            let blob = encode(&symbols, &codec, ns);
            assert_eq!(decode_all(&blob, &codec, 999).unwrap(), symbols);
        }
    }

    #[test]
    fn overhead_vs_single_stream_is_bounded() {
        let symbols = mixed_symbols(100_000);
        let codec = codec_for(&symbols, 500);
        let one = encode(&symbols, &codec, 1);
        let four = encode(&symbols, &codec, 4);
        // 3 extra padded stream tails + 3 extra length varints, bounded.
        assert!(four.len() <= one.len() + 3 * 4 + 3);
    }

    #[test]
    fn decode_identical_across_simd_levels() {
        // Covers the SoA quad fast path: enough symbols for many fast
        // rounds, long-tail codes, a non-round count for the careful
        // tail. The output must be identical at every dispatch level
        // (levels above the CPU clamp down, so this is portable).
        let symbols = mixed_symbols(40_003);
        let codec = codec_for(&symbols, 500);
        let blob = encode(&symbols, &codec, 4);
        for level in SimdLevel::ALL {
            simd::force(Some(level));
            let back = decode_all(&blob, &codec, symbols.len()).unwrap();
            assert_eq!(back, symbols, "decode diverged at {level:?}");
        }
        simd::force(None);
    }

    #[test]
    fn truncated_blob_fails_cleanly() {
        let symbols = mixed_symbols(2000);
        let codec = codec_for(&symbols, 500);
        let blob = encode(&symbols, &codec, 4);
        for cut in 0..blob.len() {
            let res = match InterleavedReader::new(&blob[..cut]) {
                Ok(mut r) => {
                    let mut out = Vec::new();
                    r.decode(&codec, symbols.len(), &mut out)
                }
                Err(e) => Err(e),
            };
            assert!(res.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn bad_stream_count_rejected() {
        assert_eq!(
            InterleavedReader::new(&[0u8]).unwrap_err(),
            CodecError::Corrupt("bad interleaved stream count")
        );
        assert_eq!(
            InterleavedReader::new(&[9u8, 0, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap_err(),
            CodecError::Corrupt("bad interleaved stream count")
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let symbols = mixed_symbols(100);
        let codec = codec_for(&symbols, 500);
        let mut blob = encode(&symbols, &codec, 2);
        blob.push(0xAA);
        assert_eq!(
            InterleavedReader::new(&blob).unwrap_err(),
            CodecError::Corrupt("interleaved blob has trailing bytes")
        );
    }

    #[test]
    fn decode_past_stream_end_is_eof() {
        let symbols = mixed_symbols(64);
        let codec = codec_for(&symbols, 500);
        let blob = encode(&symbols, &codec, 4);
        let err = decode_all(&blob, &codec, symbols.len() + 64).unwrap_err();
        assert_eq!(err, CodecError::UnexpectedEof);
    }
}

