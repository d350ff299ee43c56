//! # losslesskit — lossless coding toolkit
//!
//! SZ's pipeline (the substrate of the paper's fixed-PSNR mode) ends with
//! two lossless stages: (2) a customized Huffman coder over the quantization
//! codes and (3) GZIP over the encoded bytes. Neither stage affects
//! distortion — they are bit-exact — but both are required for the
//! compression *ratios* the evaluation reports.
//!
//! This crate implements the full lossless layer from scratch:
//!
//! - [`bitio`] — LSB-first bit readers/writers,
//! - [`varint`] — LEB128 varints and ZigZag signed mapping,
//! - [`freq`] — symbol histograms and Shannon entropy,
//! - [`huffman`] — canonical Huffman coding over arbitrary `u32` alphabets
//!   (SZ quantization codes routinely use 2^16 bins),
//! - [`mshuf`] — multi-stream interleaved Huffman: round-robin independent
//!   bitstreams that break the decoder's serial dependency chain,
//! - [`lz77`] — hash-chain LZ77 matcher with lazy one-step deferral,
//! - [`deflate_like`] — an LZ77 + dual-Huffman container standing in for
//!   GZIP/DEFLATE (documented substitution: GZIP is not in the allowed
//!   dependency set, and any LZ+entropy backend preserves all distortion
//!   behaviour because the stage is lossless),
//! - [`bakeoff`] — per-chunk lossless backend selection (stored / DEFLATE
//!   / multi-stream Huffman / range) from measured chunk statistics,
//! - [`range`]/[`fenwick`] — an adaptive range coder (fractional-bit
//!   entropy stage) used by the entropy-coder ablation,
//! - [`crc32`] — IEEE CRC-32 integrity trailers (bit rot in archived lossy
//!   streams must fail loudly, not decode into plausible garbage),
//! - [`simd`] — the runtime SIMD dispatch level (`off`/`sse2`/`avx2`)
//!   shared by every vectorized hot loop in the workspace; all levels
//!   produce byte-identical output, so the level is purely a speed knob.
//!
//! # The never-panic decode guarantee
//!
//! Every decoder in this crate is **total** on arbitrary input bytes: any
//! byte slice — truncated, bit-flipped, adversarially constructed —
//! produces either a successful decode or a [`CodecError`], never a panic
//! and never an allocation proportional to a declared-but-unchecked size.
//! The `*_bounded` entry points take explicit caller limits that are
//! enforced *before* any size-proportional allocation. Integration tests
//! exercise this with exhaustive truncation scans and fuzz-style corpora.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bakeoff;
pub mod bitio;
pub mod crc32;
pub mod deflate_like;
pub mod fenwick;
pub mod freq;
pub mod huffman;
pub mod lz77;
pub mod mshuf;
pub mod range;
pub mod simd;
pub mod varint;

pub use bitio::{BitReader, BitWriter};
pub use deflate_like::{lz_compress, lz_decompress};
pub use huffman::HuffmanCodec;

/// Errors shared by the decoders in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the decoder finished.
    UnexpectedEof,
    /// The input violates the container format.
    Corrupt(&'static str),
    /// A declared size exceeds the caller-supplied decoding limit. Raised
    /// before any allocation of that size happens, so hostile headers can
    /// declare arbitrary lengths without exhausting memory.
    LimitExceeded {
        /// Which declared quantity hit the cap.
        what: &'static str,
        /// The size the stream asked for.
        requested: u64,
        /// The enforced cap.
        limit: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of compressed input"),
            CodecError::Corrupt(what) => write!(f, "corrupt compressed stream: {what}"),
            CodecError::LimitExceeded {
                what,
                requested,
                limit,
            } => write!(f, "declared {what} {requested} exceeds cap {limit}"),
        }
    }
}

impl std::error::Error for CodecError {}
