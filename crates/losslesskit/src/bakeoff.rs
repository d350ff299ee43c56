//! Per-chunk lossless backend bake-off.
//!
//! The DEFLATE-like stage is a poor fit for much of what a lossy
//! scientific compressor hands it: already-entropy-coded Huffman payloads are close
//! to incompressible (LZ walks its hash chains for nothing), while escape
//! payloads and sparse tables compress well under cheaper coders. Instead
//! of one backend for the whole body, this module splits the input into
//! fixed-size chunks and, per chunk, *measures* which backend to use with
//! cheap order-0 statistics plus a bounded LZ match probe — the
//! ratio-quality-modeling insight (cheap statistics predict coding
//! outcomes well) applied to the lossless tail.
//!
//! Backends (the per-chunk wire tag):
//!
//! | tag | backend   | decode cost | wins when |
//! |-----|-----------|-------------|-----------|
//! | 0   | Stored    | memcpy      | chunk is incompressible |
//! | 1   | Deflate   | LZ + Huffman| repeated byte strings exist |
//! | 2   | Huffman   | 4-stream interleaved table lookups | skewed bytes, no repeats |
//! | 3   | Range     | adaptive arithmetic | heavily peaked bytes |
//!
//! # Wire format
//!
//! ```text
//! varint  raw_len
//! varint  chunk_size          1 ..= 2^30
//! varint  n_chunks            must equal ceil(raw_len / chunk_size)
//! repeat n_chunks times:
//!   u8      tag               0..=3, see table above
//!   varint  comp_len
//!   bytes   payload[comp_len]
//! ```
//!
//! Chunk `i` covers raw bytes `[i*chunk_size, min((i+1)*chunk_size, raw_len))`
//! and every chunk must decode to exactly that length. Per-backend payloads:
//! tag 0 is the raw bytes verbatim; tag 1 is a [`crate::deflate_like`]
//! stream; tag 2 is a Huffman code-length table
//! ([`HuffmanCodec::write_table`]) followed by a [`crate::mshuf`] blob of
//! the chunk's bytes as symbols; tag 3 is a [`crate::range`] stream of the
//! chunk's bytes as symbols.
//!
//! ```
//! use losslesskit::bakeoff;
//! use losslesskit::lz77::Effort;
//!
//! let data: Vec<u8> = (0..10_000u32).map(|i| (i % 7) as u8).collect();
//! let packed = bakeoff::compress(&data, Effort::Default);
//! assert!(packed.len() < data.len());
//! let back = bakeoff::decompress_bounded(&packed, data.len()).unwrap();
//! assert_eq!(back.as_ref(), &data[..]);
//! ```

use std::borrow::Cow;

use crate::deflate_like::{lz_compress_with, lz_decompress_bounded};
use crate::freq;
use crate::huffman::HuffmanCodec;
use crate::lz77::{self, Effort};
use crate::mshuf;
use crate::range;
use crate::varint;
use crate::CodecError;

/// Default chunk granularity: large enough that per-chunk overhead
/// (tag + length + possible table) is noise, small enough that mixed
/// bodies (entropy-coded stream followed by escape floats) split cleanly.
pub const CHUNK_SIZE: usize = 256 * 1024;

/// Hard cap on the wire `chunk_size` field.
pub const MAX_CHUNK_SIZE: usize = 1 << 30;

/// Bytes of the chunk head fed to the LZ match probe.
const PROBE_LEN: usize = 16 * 1024;

/// Order-0 entropy (bits/byte) above which neither Huffman nor DEFLATE's
/// literal coding can gain 1%: at h ≥ 7.93 the entropy bound caps the
/// order-0 gain below (8 − 7.93)/8 ≈ 0.9%, under the bake-off's
/// regression gate, before table overhead.
const ENTROPY_SKIP: f64 = 7.93;

/// Entropy below which the adaptive range coder is worth its decode cost.
const ENTROPY_RANGE: f64 = 2.5;

/// Predicted fractional saving from LZ matches above which DEFLATE is
/// worth encoding. Matches are DEFLATE's only edge over the interleaved
/// Huffman backend (both entropy-code literals to the same order-0
/// bound), so the probe estimates the match gain alone: each match of
/// length `L` replaces `L` literals (≈ `L·h/8` coded bytes) with one
/// token (≈ [`MATCH_TOKEN_COST`] bytes). Random data's accidental
/// 3..5-byte matches net out near zero under this model, while bulk
/// short matches (e.g. f64 streams sharing leading bytes) and long
/// repeats both clear the bar.
const DEFLATE_MIN_GAIN: f64 = 0.02;

/// Estimated wire cost of one DEFLATE match token (length code +
/// distance code + extra bits ≈ 15..20 bits).
const MATCH_TOKEN_COST: f64 = 2.3;

/// Cap on the probe bound's repeat bitmap: 2²⁰ bits (128 KiB), i.e. 64
/// bits per byte of a full [`PROBE_LEN`] probe.
const REPEAT_BITMAP_MAX_BITS: u32 = 20;

/// Relative slack on the probe bound's prune test. The full probe's gain
/// is a float sum of at most `len/3` terms, each below 2⁹, so it can
/// exceed its exact value by no more than about `len·2⁻⁴⁰`. Pruning only
/// when the bound undercuts the bar by a relative 2⁻²⁰ (≥ 7·10⁻⁵ B on the
/// smallest probed chunk) keeps every pruned chunk one the full probe
/// would have rejected too.
const PRUNE_SLACK: f64 = 1.0 / (1u64 << 20) as f64;

/// On chunks above [`SMALL_CHUNK`], a coded backend must undercut stored
/// by more than `chunk_len >> MARGIN_SHIFT` (≈1.6%) to displace it:
/// decoding a quarter-megabyte chunk is never free, and sub-percent wins
/// there are noise against the decode cost they buy. Small chunks keep
/// the strict-min rule — their decode cost is microseconds, so every
/// byte saved is worth keeping.
const MARGIN_SHIFT: u32 = 6;

/// Chunks at or below this size just try every backend — the statistics
/// are too noisy and the encode cost too small to bother predicting.
const SMALL_CHUNK: usize = 4096;

/// Lossless backend identifier — the per-chunk wire tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Raw bytes, no coding.
    Stored = 0,
    /// DEFLATE-like LZ77 + Huffman ([`crate::deflate_like`]).
    Deflate = 1,
    /// Multi-stream interleaved Huffman over bytes ([`crate::mshuf`]).
    Huffman = 2,
    /// Adaptive range coder over bytes ([`crate::range`]).
    Range = 3,
}

impl Backend {
    /// Parse a wire tag.
    ///
    /// # Errors
    /// [`CodecError::Corrupt`] on an unknown tag.
    pub fn from_u8(v: u8) -> Result<Self, CodecError> {
        match v {
            0 => Ok(Backend::Stored),
            1 => Ok(Backend::Deflate),
            2 => Ok(Backend::Huffman),
            3 => Ok(Backend::Range),
            _ => Err(CodecError::Corrupt("unknown bake-off backend tag")),
        }
    }

    /// Human-readable backend name (CLI `inspect`, bench tables).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Stored => "stored",
            Backend::Deflate => "deflate",
            Backend::Huffman => "huffman",
            Backend::Range => "range",
        }
    }

    /// All backends, in wire-tag order.
    pub const ALL: [Backend; 4] = [
        Backend::Stored,
        Backend::Deflate,
        Backend::Huffman,
        Backend::Range,
    ];
}

/// Per-backend byte accounting from one [`compress_with_stats`] call,
/// indexed by wire tag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BakeoffStats {
    /// Chunks that chose each backend.
    pub chunks: [u64; 4],
    /// Raw bytes covered by each backend.
    pub raw_bytes: [u64; 4],
    /// Compressed payload bytes produced by each backend.
    pub comp_bytes: [u64; 4],
    /// LZ probes the repeat bound settled without parsing.
    pub probes_pruned: u64,
    /// LZ probes that ran the full [`lz77::fast_match_gain`] parse.
    pub probes_scanned: u64,
    /// Huffman candidates not encoded because their exact size could not
    /// beat the incumbent.
    pub huffman_skipped: u64,
}

/// One chunk's directory entry, as reported by [`inspect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Backend the bake-off chose for this chunk.
    pub backend: Backend,
    /// Raw bytes the chunk covers.
    pub raw_len: usize,
    /// Compressed payload bytes.
    pub comp_len: usize,
}

fn encode_chunk_as(chunk: &[u8], backend: Backend, effort: Effort) -> Cow<'_, [u8]> {
    match backend {
        Backend::Stored => Cow::Borrowed(chunk),
        Backend::Deflate => Cow::Owned(lz_compress_with(chunk, effort)),
        Backend::Huffman => {
            Cow::Owned(HuffmanTrial::new(&freq::count_bytes_lanes(chunk)).encode(chunk))
        }
        Backend::Range => {
            let symbols: Vec<u32> = chunk.iter().map(|&b| b as u32).collect();
            Cow::Owned(range::range_encode(&symbols, 256))
        }
    }
}

// `HuffmanTrial` sizes exactly one stream per `count_bytes_lanes` lane.
const _: () = assert!(mshuf::HUFF_STREAMS == 4);

/// The Huffman backend's trial for one chunk: codec and serialized table
/// built once, and the exact payload length known before a bit is coded.
struct HuffmanTrial {
    codec: HuffmanCodec,
    table: Vec<u8>,
    /// Exact length of [`HuffmanTrial::encode`]'s output.
    len: usize,
}

impl HuffmanTrial {
    /// Size the chunk with per-lane byte counts `lanes`
    /// ([`freq::count_bytes_lanes`]): the table, the stream-count byte,
    /// then per round-robin stream one length varint and ⌈bits/8⌉ bytes.
    fn new(lanes: &[[u64; 256]; 4]) -> Self {
        let codec = HuffmanCodec::from_counts(&freq::merge_lanes(lanes));
        let mut table = Vec::new();
        codec.write_table(&mut table);
        let mut len = table.len() + 1;
        for lane in lanes {
            let bytes = codec.encoded_bits(lane).div_ceil(8);
            len += varint::len_u64(bytes) + bytes as usize;
        }
        HuffmanTrial { codec, table, len }
    }

    /// Table ‖ [`mshuf`] blob of the chunk's bytes as symbols.
    fn encode(self, chunk: &[u8]) -> Vec<u8> {
        let symbols: Vec<u32> = chunk.iter().map(|&b| b as u32).collect();
        let mut out = self.table;
        out.reserve_exact(self.len - out.len());
        out.extend_from_slice(&mshuf::encode(&symbols, &self.codec, mshuf::HUFF_STREAMS));
        debug_assert_eq!(out.len(), self.len);
        out
    }
}

/// Candidate backends worth actually encoding for a chunk with byte
/// histogram `counts`, from cheap statistics. `Stored` is always the
/// implicit baseline and not listed.
fn candidates(chunk: &[u8], counts: &[u64; 256], stats: &mut BakeoffStats) -> Vec<Backend> {
    if chunk.len() <= SMALL_CHUNK {
        return vec![Backend::Deflate, Backend::Huffman, Backend::Range];
    }
    let h = freq::shannon_entropy(counts);
    let mut out = Vec::with_capacity(3);
    // DEFLATE is tried exactly when the bounded match probe predicts a
    // real match gain: without one it can only tie the Huffman backend's
    // order-0 coding while paying a serial-bitstream decode. The probe
    // window sits mid-chunk: heads carry framing and code tables whose
    // dense self-similarity says nothing about the bulk behind them.
    let probe_at = (chunk.len() - PROBE_LEN.min(chunk.len())) / 2;
    let probe = &chunk[probe_at..probe_at + PROBE_LEN.min(chunk.len())];
    let lit_cost = (h / 8.0).min(1.0);
    if probe_predicts_gain(probe, lit_cost, stats) {
        out.push(Backend::Deflate);
    }
    if h < ENTROPY_SKIP {
        out.push(Backend::Huffman);
    }
    if h < ENTROPY_RANGE {
        out.push(Backend::Range);
    }
    out
}

/// Whether the greedy [`Effort::Fast`] parse of `probe` gains more than
/// [`DEFLATE_MIN_GAIN`] of its length under the match-gain model.
///
/// A match of length `L` gains `(L·lit_cost − MATCH_TOKEN_COST)⁺ ≤
/// (L − 2)·lit_cost` (as `lit_cost ≤ 1`), and each of the `L − 2`
/// positions it covers starts a 3-gram that also starts at an earlier
/// position. So the gain is at most `lit_cost · R`, with `R` the number
/// of positions whose 3-gram (hashed; collisions only raise `R`) was
/// seen before. When that bound already misses the bar, the parse is
/// skipped: on incompressible chunks it almost always does.
fn probe_predicts_gain(probe: &[u8], lit_cost: f64, stats: &mut BakeoffStats) -> bool {
    let bar = DEFLATE_MIN_GAIN * probe.len() as f64;
    if lit_cost * repeated_trigrams(probe) as f64 <= bar * (1.0 - PRUNE_SLACK) {
        stats.probes_pruned += 1;
        return false;
    }
    stats.probes_scanned += 1;
    lz77::fast_match_gain(probe, lit_cost, MATCH_TOKEN_COST) > bar
}

/// Positions of `data` whose 3-gram hashes to a bitmap bit an earlier
/// position already set: an upper bound on the positions whose 3-gram
/// occurs earlier. The bitmap holds about 64 bits per byte, so random
/// data collides on ~1 position in 64 at most.
fn repeated_trigrams(data: &[u8]) -> usize {
    let bits = (data.len() * 64)
        .next_power_of_two()
        .trailing_zeros()
        .clamp(6, REPEAT_BITMAP_MAX_BITS);
    let mut seen = vec![0u64; 1 << (bits - 6)];
    let mut repeats = 0usize;
    for w in data.windows(3) {
        let v = u32::from(w[0]) | u32::from(w[1]) << 8 | u32::from(w[2]) << 16;
        let k = (v.wrapping_mul(0x9E37_79B1) >> (32 - bits)) as usize;
        let (word, bit) = (k >> 6, 1u64 << (k & 63));
        repeats += usize::from(seen[word] & bit != 0);
        seen[word] |= bit;
    }
    repeats
}

/// The bake-off for one chunk. Candidates are tried in decode-speed
/// order: a coded backend must beat stored by the decode-cost margin,
/// and a slower candidate must strictly beat the faster incumbent.
/// Stored is the chunk itself, borrowed rather than copied.
fn choose_backend<'a>(
    chunk: &'a [u8],
    effort: Effort,
    stats: &mut BakeoffStats,
) -> (Backend, Cow<'a, [u8]>) {
    let margin = if chunk.len() > SMALL_CHUNK {
        chunk.len() >> MARGIN_SHIFT
    } else {
        0
    };
    let lanes = freq::count_bytes_lanes(chunk);
    let counts = freq::merge_lanes(&lanes);
    let mut best = (Backend::Stored, Cow::Borrowed(chunk));
    for cand in candidates(chunk, &counts, stats) {
        let bar = if best.0 == Backend::Stored {
            chunk.len().saturating_sub(margin)
        } else {
            best.1.len()
        };
        let enc = if cand == Backend::Huffman {
            // Sized exactly first: a trial that cannot clear the bar is
            // never encoded.
            let trial = HuffmanTrial::new(&lanes);
            if trial.len >= bar {
                stats.huffman_skipped += 1;
                continue;
            }
            Cow::Owned(trial.encode(chunk))
        } else {
            encode_chunk_as(chunk, cand, effort)
        };
        if enc.len() < bar {
            best = (cand, enc);
        }
    }
    best
}

/// Compress `data` with per-chunk backend selection at the default
/// [`CHUNK_SIZE`]. The output always decodes via [`decompress_bounded`]
/// and is never larger than `data.len()` plus the chunk directory
/// (worst case every chunk stores).
pub fn compress(data: &[u8], effort: Effort) -> Vec<u8> {
    compress_with_stats(data, effort).0
}

/// [`compress`] that also reports per-backend byte accounting.
pub fn compress_with_stats(data: &[u8], effort: Effort) -> (Vec<u8>, BakeoffStats) {
    let (out, stats) = compress_inner(data, effort, CHUNK_SIZE, None, false);
    (out.expect("stored chunks are written"), stats)
}

/// [`compress_with_stats`], except that no container is built when every
/// chunk stores (`None`): it would be `data` plus its directory, larger
/// than `data` itself, so a caller that keeps the smaller of the two
/// would only drop it.
pub fn compress_unless_stored(data: &[u8], effort: Effort) -> (Option<Vec<u8>>, BakeoffStats) {
    compress_inner(data, effort, CHUNK_SIZE, None, true)
}

/// Test/bench entry: force every chunk through one backend (no bake-off).
pub fn compress_forced(data: &[u8], effort: Effort, backend: Backend) -> Vec<u8> {
    let (out, _) = compress_inner(data, effort, CHUNK_SIZE, Some(backend), false);
    out.expect("stored chunks are written")
}

/// Test entry: [`compress_with_stats`] at a caller-chosen chunk size, so
/// multi-chunk behaviour is exercisable without megabyte inputs.
///
/// # Panics
/// Panics if `chunk_size` is 0 or exceeds [`MAX_CHUNK_SIZE`].
pub fn compress_chunked(
    data: &[u8],
    effort: Effort,
    chunk_size: usize,
) -> (Vec<u8>, BakeoffStats) {
    let (out, stats) = compress_inner(data, effort, chunk_size, None, false);
    (out.expect("stored chunks are written"), stats)
}

/// The bake-off over `data` in `chunk_size` chunks. With `elide_stored`,
/// the container is only started at the first chunk that does not store
/// (writing the stored chunks before it then), so an all-stored input
/// builds nothing and returns `None`; otherwise the result is `Some`.
fn compress_inner(
    data: &[u8],
    effort: Effort,
    chunk_size: usize,
    forced: Option<Backend>,
    elide_stored: bool,
) -> (Option<Vec<u8>>, BakeoffStats) {
    assert!(
        chunk_size >= 1 && chunk_size <= MAX_CHUNK_SIZE,
        "chunk_size {chunk_size} out of 1..={MAX_CHUNK_SIZE}"
    );
    let n_chunks = data.len().div_ceil(chunk_size);
    let start = || {
        let mut out = Vec::with_capacity(data.len() / 2 + 32);
        varint::write_u64(&mut out, data.len() as u64);
        varint::write_u64(&mut out, chunk_size as u64);
        varint::write_u64(&mut out, n_chunks as u64);
        out
    };
    let entry = |out: &mut Vec<u8>, backend: Backend, payload: &[u8]| {
        out.push(backend as u8);
        varint::write_u64(out, payload.len() as u64);
        out.extend_from_slice(payload);
    };
    let mut out = (!elide_stored).then(start);
    let mut stats = BakeoffStats::default();
    for (i, chunk) in data.chunks(chunk_size).enumerate() {
        let (backend, payload) = match forced {
            Some(b) => (b, encode_chunk_as(chunk, b, effort)),
            None => choose_backend(chunk, effort, &mut stats),
        };
        let idx = backend as usize;
        stats.chunks[idx] += 1;
        stats.raw_bytes[idx] += chunk.len() as u64;
        stats.comp_bytes[idx] += payload.len() as u64;
        if out.is_none() && backend != Backend::Stored {
            let mut started = start();
            for stored in data.chunks(chunk_size).take(i) {
                entry(&mut started, Backend::Stored, stored);
            }
            out = Some(started);
        }
        if let Some(out) = out.as_mut() {
            entry(out, backend, &payload);
        }
    }
    (out, stats)
}

/// Shared directory walk for [`decompress_bounded`] and [`inspect`]:
/// parses and validates the header, then yields each chunk's
/// `(backend, expected_raw_len, payload)` to `visit`.
fn walk_chunks<'a>(
    src: &'a [u8],
    max_raw: usize,
    mut visit: impl FnMut(Backend, usize, &'a [u8]) -> Result<(), CodecError>,
) -> Result<usize, CodecError> {
    let mut pos = 0usize;
    let raw_len = varint::read_u64(src, &mut pos)? as usize;
    if raw_len > max_raw {
        return Err(CodecError::LimitExceeded {
            what: "bake-off raw length",
            requested: raw_len as u64,
            limit: max_raw as u64,
        });
    }
    let chunk_size = varint::read_u64(src, &mut pos)? as usize;
    if chunk_size == 0 || chunk_size > MAX_CHUNK_SIZE {
        return Err(CodecError::Corrupt("bad bake-off chunk size"));
    }
    let n_chunks = varint::read_u64(src, &mut pos)? as usize;
    if n_chunks != raw_len.div_ceil(chunk_size) {
        return Err(CodecError::Corrupt("bake-off chunk count mismatch"));
    }
    let mut remaining = raw_len;
    for _ in 0..n_chunks {
        let &tag = src.get(pos).ok_or(CodecError::UnexpectedEof)?;
        pos += 1;
        let backend = Backend::from_u8(tag)?;
        let comp_len = varint::read_u64(src, &mut pos)? as usize;
        let payload = src
            .get(pos..pos + comp_len)
            .ok_or(CodecError::UnexpectedEof)?;
        pos += comp_len;
        let expect = remaining.min(chunk_size);
        visit(backend, expect, payload)?;
        remaining -= expect;
    }
    if pos != src.len() {
        return Err(CodecError::Corrupt("bake-off container has trailing bytes"));
    }
    Ok(raw_len)
}

fn decode_chunk_into(
    backend: Backend,
    expect: usize,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    match backend {
        Backend::Stored => {
            if payload.len() != expect {
                return Err(CodecError::Corrupt("stored chunk length mismatch"));
            }
            out.extend_from_slice(payload);
        }
        Backend::Deflate => {
            let raw = lz_decompress_bounded(payload, expect)?;
            if raw.len() != expect {
                return Err(CodecError::Corrupt("deflate chunk length mismatch"));
            }
            out.extend_from_slice(&raw);
        }
        Backend::Huffman => {
            let mut pos = 0usize;
            let codec = HuffmanCodec::read_table(payload, &mut pos)?;
            let symbols = mshuf::decode_all(&payload[pos..], &codec, expect)?;
            out.reserve(expect);
            for s in symbols {
                if s > 0xff {
                    return Err(CodecError::Corrupt("huffman chunk symbol out of range"));
                }
                out.push(s as u8);
            }
        }
        Backend::Range => {
            let symbols = range::range_decode_bounded(payload, expect)?;
            if symbols.len() != expect {
                return Err(CodecError::Corrupt("range chunk length mismatch"));
            }
            out.reserve(expect);
            for s in symbols {
                if s > 0xff {
                    return Err(CodecError::Corrupt("range chunk symbol out of range"));
                }
                out.push(s as u8);
            }
        }
    }
    Ok(())
}

/// Decompress a bake-off container, allocating at most `max_raw` bytes of
/// output (checked before any allocation). A container whose chunks are
/// all stored borrows the input when it is a single contiguous run —
/// i.e. one chunk — making the store-everything case zero-copy.
///
/// # Errors
/// [`CodecError::LimitExceeded`] when the declared raw length exceeds
/// `max_raw`; [`CodecError::Corrupt`] / [`CodecError::UnexpectedEof`] on
/// any malformed or truncated structure (never panics).
pub fn decompress_bounded(src: &[u8], max_raw: usize) -> Result<Cow<'_, [u8]>, CodecError> {
    // Zero-copy fast path: exactly one stored chunk.
    if let Some(borrowed) = try_borrow_single_stored(src, max_raw)? {
        return Ok(Cow::Borrowed(borrowed));
    }
    let mut out = Vec::new();
    let raw_len = walk_chunks(src, max_raw, |backend, expect, payload| {
        decode_chunk_into(backend, expect, payload, &mut out)
    })?;
    if out.len() != raw_len {
        return Err(CodecError::Corrupt("bake-off output length mismatch"));
    }
    Ok(Cow::Owned(out))
}

/// `Some(slice)` when the container is exactly one stored chunk (shares
/// full validation with [`walk_chunks`]), `None` when it needs decoding,
/// `Err` only for the header errors `walk_chunks` would also raise.
fn try_borrow_single_stored(
    src: &[u8],
    max_raw: usize,
) -> Result<Option<&[u8]>, CodecError> {
    let mut pos = 0usize;
    let raw_len = varint::read_u64(src, &mut pos)? as usize;
    if raw_len > max_raw {
        return Err(CodecError::LimitExceeded {
            what: "bake-off raw length",
            requested: raw_len as u64,
            limit: max_raw as u64,
        });
    }
    let chunk_size = varint::read_u64(src, &mut pos)? as usize;
    if chunk_size == 0 || chunk_size > MAX_CHUNK_SIZE {
        return Err(CodecError::Corrupt("bad bake-off chunk size"));
    }
    let n_chunks = varint::read_u64(src, &mut pos)? as usize;
    if n_chunks != 1 {
        return Ok(None);
    }
    if n_chunks != raw_len.div_ceil(chunk_size) {
        return Err(CodecError::Corrupt("bake-off chunk count mismatch"));
    }
    let &tag = src.get(pos).ok_or(CodecError::UnexpectedEof)?;
    if Backend::from_u8(tag)? != Backend::Stored {
        return Ok(None);
    }
    pos += 1;
    let comp_len = varint::read_u64(src, &mut pos)? as usize;
    let payload = src
        .get(pos..pos + comp_len)
        .ok_or(CodecError::UnexpectedEof)?;
    if payload.len() != raw_len {
        return Err(CodecError::Corrupt("stored chunk length mismatch"));
    }
    if pos + comp_len != src.len() {
        return Err(CodecError::Corrupt("bake-off container has trailing bytes"));
    }
    Ok(Some(payload))
}

/// Read the chunk directory without decoding payloads: returns the total
/// raw length and one [`ChunkInfo`] per chunk (CLI `inspect`, bench
/// tables, obs counters).
///
/// # Errors
/// Same structural errors as [`decompress_bounded`], except payload
/// contents are not validated.
pub fn inspect(src: &[u8]) -> Result<(usize, Vec<ChunkInfo>), CodecError> {
    let mut infos = Vec::new();
    let raw_len = walk_chunks(src, usize::MAX, |backend, expect, payload| {
        infos.push(ChunkInfo {
            backend,
            raw_len: expect,
            comp_len: payload.len(),
        });
        Ok(())
    })?;
    Ok((raw_len, infos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bake-off's candidate rule as first written: a full token-vector
    /// parse of the probe on every large chunk.
    fn candidates_oracle(chunk: &[u8]) -> Vec<Backend> {
        if chunk.len() <= SMALL_CHUNK {
            return vec![Backend::Deflate, Backend::Huffman, Backend::Range];
        }
        let counts = freq::count_bytes(chunk);
        let h = freq::shannon_entropy(&counts);
        let mut out = Vec::with_capacity(3);
        let probe = oracle_probe(chunk);
        if oracle_gain(probe, (h / 8.0).min(1.0)) > DEFLATE_MIN_GAIN * probe.len() as f64 {
            out.push(Backend::Deflate);
        }
        if h < ENTROPY_SKIP {
            out.push(Backend::Huffman);
        }
        if h < ENTROPY_RANGE {
            out.push(Backend::Range);
        }
        out
    }

    fn oracle_probe(chunk: &[u8]) -> &[u8] {
        let probe_at = (chunk.len() - PROBE_LEN.min(chunk.len())) / 2;
        &chunk[probe_at..probe_at + PROBE_LEN.min(chunk.len())]
    }

    fn oracle_gain(probe: &[u8], lit_cost: f64) -> f64 {
        let mut gain = 0.0f64;
        for t in lz77::tokenize(probe, Effort::Fast) {
            if let lz77::Token::Match { len, .. } = t {
                gain += (len as f64 * lit_cost - MATCH_TOKEN_COST).max(0.0);
            }
        }
        gain
    }

    /// The bake-off as first written: every oracle candidate encoded,
    /// stored copied as the incumbent.
    fn compress_oracle(data: &[u8], effort: Effort, chunk_size: usize) -> (Vec<u8>, [u64; 4]) {
        let mut out = Vec::new();
        varint::write_u64(&mut out, data.len() as u64);
        varint::write_u64(&mut out, chunk_size as u64);
        varint::write_u64(&mut out, data.len().div_ceil(chunk_size) as u64);
        let mut chunks = [0u64; 4];
        for chunk in data.chunks(chunk_size) {
            let margin = if chunk.len() > SMALL_CHUNK {
                chunk.len() >> MARGIN_SHIFT
            } else {
                0
            };
            let mut best = (Backend::Stored, chunk.to_vec());
            for cand in candidates_oracle(chunk) {
                let enc = encode_chunk_as(chunk, cand, effort).into_owned();
                let bar = if best.0 == Backend::Stored {
                    best.1.len().saturating_sub(margin)
                } else {
                    best.1.len()
                };
                if enc.len() < bar {
                    best = (cand, enc);
                }
            }
            chunks[best.0 as usize] += 1;
            out.push(best.0 as u8);
            varint::write_u64(&mut out, best.1.len() as u64);
            out.extend_from_slice(&best.1);
        }
        (out, chunks)
    }

    /// One of six byte-stream families the bake-off meets: noise, skewed
    /// bytes, a short period, constant runs, an f64 ramp, and noise with
    /// sparse back-copies, whose match gain straddles the DEFLATE bar.
    fn family(kind: u8, len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        match kind {
            0 => (0..len).map(|_| next() as u8).collect(),
            1 => (0..len)
                .map(|_| {
                    let x = next();
                    if x % 8 < 7 {
                        (x >> 8) as u8 % 6
                    } else {
                        (x >> 8) as u8
                    }
                })
                .collect(),
            2 => {
                let period: Vec<u8> = (0..1 + next() % 200).map(|_| next() as u8).collect();
                period.iter().copied().cycle().take(len).collect()
            }
            3 => {
                let mut out = Vec::with_capacity(len);
                while out.len() < len {
                    let run = 1 + (next() % 300) as usize;
                    let b = next() as u8;
                    out.extend(std::iter::repeat_n(b, run.min(len - out.len())));
                }
                out
            }
            4 => {
                let (a, d) = ((next() % 1000) as f64, 1e-3 * (1 + next() % 100) as f64);
                let mut out: Vec<u8> = (0..len.div_ceil(8))
                    .flat_map(|i| (a + d * i as f64).to_le_bytes())
                    .collect();
                out.truncate(len);
                out
            }
            _ => {
                // One copy of 3..=12 bytes per ~1/p positions, p < 1%.
                let per_10k = next() % 100;
                let mut out = Vec::with_capacity(len);
                while out.len() < len {
                    if out.len() > 16 && next() % 10_000 < per_10k {
                        let from = out.len() - 1 - (next() as usize % out.len().min(4096));
                        let n = (3 + next() as usize % 10).min(len - out.len());
                        for k in 0..n {
                            out.push(out[from + k]);
                        }
                    } else {
                        out.push(next() as u8);
                    }
                }
                out
            }
        }
    }

    proptest! {
        /// The bound and the token-free probe change nothing: same
        /// candidates, same bytes, same chunk counts, same probe gain.
        #[test]
        fn bakeoff_matches_the_tokenizing_oracle(
            kind in 0u8..6,
            len_class in 0u8..3,
            len_seed in any::<u64>(),
            seed in any::<u64>(),
            small_chunks in proptest::bool::ANY,
        ) {
            let len = match len_class {
                0 => (len_seed % 4097) as usize,
                1 => 4097 + (len_seed % (16 * 1024 - 4096)) as usize,
                _ => 16 * 1024 + 1 + (len_seed % (70_000 - 16 * 1024)) as usize,
            };
            let data = family(kind, len, seed);
            let counts = freq::count_bytes(&data);
            let mut stats = BakeoffStats::default();
            prop_assert_eq!(candidates(&data, &counts, &mut stats), candidates_oracle(&data));
            let probe = oracle_probe(&data);
            let h = freq::shannon_entropy(&counts);
            let lit_cost = (h / 8.0).min(1.0);
            prop_assert_eq!(
                lz77::fast_match_gain(probe, lit_cost, MATCH_TOKEN_COST).to_bits(),
                oracle_gain(probe, lit_cost).to_bits()
            );
            let chunk_size = if small_chunks { 5 * 1024 } else { CHUNK_SIZE };
            let (packed, stats) = compress_chunked(&data, Effort::Default, chunk_size);
            let (want, want_chunks) = compress_oracle(&data, Effort::Default, chunk_size);
            prop_assert!(packed == want, "bytes differ: kind {} len {}", kind, len);
            prop_assert_eq!(stats.chunks, want_chunks);
            // Eliding an all-stored container changes nothing else.
            let (elided, elided_stats) =
                compress_inner(&data, Effort::Default, chunk_size, None, true);
            prop_assert_eq!(elided_stats, stats);
            let all_stored = stats.chunks[Backend::Stored as usize] == data.len().div_ceil(chunk_size) as u64;
            prop_assert_eq!(elided.is_none(), all_stored);
            prop_assert!(elided.is_none_or(|e| e == packed), "elided bytes differ");
        }
    }

    #[test]
    fn huffman_trial_size_is_exact() {
        let mut all_values: Vec<u8> = (0..=255u8).collect();
        all_values.extend((0..=255u8).rev());
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![42],
            vec![7; 1000],
            vec![7; 1001],
            all_values,
            family(1, 4099, 5),
            family(4, 10_003, 9),
            family(0, 6, 3),
        ];
        for chunk in &cases {
            let trial = HuffmanTrial::new(&freq::count_bytes_lanes(chunk));
            let encoded = encode_chunk_as(chunk, Backend::Huffman, Effort::Default);
            assert_eq!(trial.len, encoded.len(), "len {}", chunk.len());
            let mut pos = 0;
            let codec = HuffmanCodec::read_table(&encoded, &mut pos).unwrap();
            let back = mshuf::decode_all(&encoded[pos..], &codec, chunk.len()).unwrap();
            assert!(back.iter().map(|&s| s as u8).eq(chunk.iter().copied()));
        }
    }

    #[test]
    fn probe_and_trial_counts_are_exact() {
        // Eight 5 KiB noise chunks: the repeat bound settles every probe,
        // entropy rules Huffman out, and everything stores.
        let (_, stats) = compress_chunked(&noisy(8 * 5120), Effort::Default, 5120);
        assert_eq!((stats.probes_pruned, stats.probes_scanned), (8, 0));
        assert_eq!(stats.huffman_skipped, 0);
        assert_eq!(stats.chunks[Backend::Stored as usize], 8);
        // A short-period chunk: the bound cannot decide, the parse finds the
        // repeats, DEFLATE wins, and the Huffman trial is sized and dropped.
        let periodic = family(2, 20_000, 1);
        let (packed, stats) = compress_chunked(&periodic, Effort::Default, CHUNK_SIZE);
        assert_eq!((stats.probes_pruned, stats.probes_scanned), (0, 1));
        assert_eq!(stats.chunks[Backend::Deflate as usize], 1);
        assert_eq!(stats.huffman_skipped, 1);
        let back = decompress_bounded(&packed, periodic.len()).unwrap();
        assert_eq!(back.as_ref(), &periodic[..]);
    }

    fn skewed(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761) >> 24;
                if x < 200 {
                    (x % 4) as u8
                } else {
                    x as u8
                }
            })
            .collect()
    }

    fn noisy(n: usize) -> Vec<u8> {
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn roundtrip_each_forced_backend() {
        let data = skewed(50_000);
        for backend in Backend::ALL {
            let packed = compress_forced(&data, Effort::Default, backend);
            let back = decompress_bounded(&packed, data.len()).unwrap();
            assert_eq!(back.as_ref(), &data[..], "{}", backend.name());
            let (_, infos) = inspect(&packed).unwrap();
            assert!(infos.iter().all(|c| c.backend == backend));
        }
    }

    #[test]
    fn bakeoff_roundtrips_mixed_content() {
        // Low-entropy head, noisy middle, repetitive tail — multiple
        // chunks at a small chunk size should pick different backends.
        let mut data = vec![3u8; 40_000];
        data.extend(noisy(40_000));
        data.extend(std::iter::repeat_n(b"abcdefgh".as_slice(), 5_000).flatten());
        let (packed, stats) = compress_chunked(&data, Effort::Default, 8 * 1024);
        let back = decompress_bounded(&packed, data.len()).unwrap();
        assert_eq!(back.as_ref(), &data[..]);
        assert_eq!(stats.raw_bytes.iter().sum::<u64>(), data.len() as u64);
        // The noisy middle must not be entropy-coded.
        assert!(stats.chunks[Backend::Stored as usize] > 0, "{stats:?}");
        // At least one region must actually compress.
        let comp: u64 = stats.comp_bytes.iter().sum();
        assert!(comp < data.len() as u64 / 2, "{stats:?}");
    }

    #[test]
    fn incompressible_data_is_stored_with_bounded_overhead() {
        let data = noisy(600_000);
        let (packed, stats) = compress_with_stats(&data, Effort::Default);
        assert_eq!(stats.chunks[Backend::Stored as usize], 3);
        // Header + 3 chunk headers only.
        assert!(packed.len() <= data.len() + 64);
        let back = decompress_bounded(&packed, data.len()).unwrap();
        assert_eq!(back.as_ref(), &data[..]);
    }

    #[test]
    fn all_stored_input_builds_no_container() {
        for data in [noisy(20_000), Vec::new()] {
            let (elided, stats) = compress_inner(&data, Effort::Default, 5 * 1024, None, true);
            assert!(elided.is_none());
            assert_eq!(stats, compress_chunked(&data, Effort::Default, 5 * 1024).1);
        }
        // Stored chunks before the first coded one are written when it
        // comes; stored chunks after it as they come.
        let mut data = noisy(12_000);
        data.extend(skewed(6_000));
        data.extend(noisy(5_000));
        let (packed, stats) = compress_chunked(&data, Effort::Default, 5 * 1024);
        assert!(stats.chunks[Backend::Stored as usize] >= 3, "{stats:?}");
        let (elided, elided_stats) = compress_inner(&data, Effort::Default, 5 * 1024, None, true);
        assert_eq!(elided_stats, stats);
        assert_eq!(elided, Some(packed));
    }

    #[test]
    fn single_stored_chunk_decodes_zero_copy() {
        let data = noisy(10_000);
        let packed = compress_forced(&data, Effort::Default, Backend::Stored);
        let back = decompress_bounded(&packed, data.len()).unwrap();
        assert!(matches!(back, Cow::Borrowed(_)));
        assert_eq!(back.as_ref(), &data[..]);
    }

    #[test]
    fn empty_input_roundtrips() {
        let packed = compress(&[], Effort::Default);
        let back = decompress_bounded(&packed, 0).unwrap();
        assert!(back.is_empty());
        let (raw, infos) = inspect(&packed).unwrap();
        assert_eq!((raw, infos.len()), (0, 0));
    }

    #[test]
    fn max_raw_enforced_before_allocation() {
        let data = skewed(10_000);
        let packed = compress(&data, Effort::Default);
        let err = decompress_bounded(&packed, data.len() - 1).unwrap_err();
        assert!(matches!(err, CodecError::LimitExceeded { .. }), "{err:?}");
    }

    #[test]
    fn every_truncation_point_fails_cleanly() {
        let mut data = skewed(6_000);
        data.extend(noisy(6_000));
        let (packed, _) = compress_chunked(&data, Effort::Default, 2048);
        for cut in 0..packed.len() {
            assert!(
                decompress_bounded(&packed[..cut], data.len()).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let data = skewed(1000);
        let mut packed = compress(&data, Effort::Default);
        packed.push(0);
        assert_eq!(
            decompress_bounded(&packed, data.len()).unwrap_err(),
            CodecError::Corrupt("bake-off container has trailing bytes")
        );
    }

    #[test]
    fn bad_tag_and_bad_counts_rejected() {
        let data = skewed(1000);
        let packed = compress(&data, Effort::Default);
        // Find the first chunk tag: it follows three varints.
        let mut pos = 0;
        varint::read_u64(&packed, &mut pos).unwrap();
        varint::read_u64(&packed, &mut pos).unwrap();
        varint::read_u64(&packed, &mut pos).unwrap();
        let mut bad = packed.clone();
        bad[pos] = 9;
        assert_eq!(
            decompress_bounded(&bad, data.len()).unwrap_err(),
            CodecError::Corrupt("unknown bake-off backend tag")
        );
        // Declared chunk count that disagrees with raw_len/chunk_size.
        let mut forged = Vec::new();
        varint::write_u64(&mut forged, 1000);
        varint::write_u64(&mut forged, CHUNK_SIZE as u64);
        varint::write_u64(&mut forged, 5);
        assert_eq!(
            decompress_bounded(&forged, 1000).unwrap_err(),
            CodecError::Corrupt("bake-off chunk count mismatch")
        );
    }

    #[test]
    fn inspect_reports_directory() {
        let mut data = vec![7u8; 5000];
        data.extend(noisy(5000));
        let (packed, stats) = compress_chunked(&data, Effort::Default, 5000);
        let (raw, infos) = inspect(&packed).unwrap();
        assert_eq!(raw, data.len());
        assert_eq!(infos.len(), 2);
        assert_eq!(infos.iter().map(|c| c.raw_len).sum::<usize>(), raw);
        for (i, info) in infos.iter().enumerate() {
            assert_eq!(
                stats.comp_bytes[info.backend as usize] > 0,
                true,
                "chunk {i} stats missing"
            );
        }
    }
}
