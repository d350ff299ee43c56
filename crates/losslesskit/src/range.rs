//! Adaptive range coding over `u32` alphabets.
//!
//! An alternative entropy stage to the canonical Huffman coder: a
//! Subbotin-style byte-oriented range coder with an adaptive order-0
//! frequency model kept in a [`crate::fenwick::Fenwick`] tree. Compared
//! with Huffman it needs no serialized table (the model adapts identically
//! on both sides) and codes fractional bits, which pays off on the heavily
//! peaked quantization-code distributions SZ produces; it is slower, which
//! is exactly the trade-off the `ablation` bench quantifies.
//!
//! The stream is self-framing (symbol count and alphabet are in its
//! header); decoding is total on arbitrary bytes — use the `_bounded`
//! variant to cap the declared symbol count before allocation:
//!
//! ```
//! use losslesskit::range::{range_encode, range_decode_bounded};
//!
//! let symbols: Vec<u32> = (0..500).map(|i| i % 3).collect();
//! let packed = range_encode(&symbols, 3);
//! let back = range_decode_bounded(&packed, symbols.len()).unwrap();
//! assert_eq!(back, symbols);
//! // A hostile header declaring more symbols than expected fails before
//! // any proportional allocation.
//! assert!(range_decode_bounded(&packed, 10).is_err());
//! ```

use crate::fenwick::Fenwick;
use crate::varint;
use crate::CodecError;

const TOP: u64 = 1 << 48;
const BOTTOM: u64 = 1 << 40;
/// Frequency increment per coded symbol.
const INCREMENT: u32 = 32;

struct Model {
    freq: Fenwick,
    /// Rescale when total mass reaches this. Must sit well above the
    /// alphabet's initial mass (1 per symbol) or aging would fire on every
    /// update — quadratic in alphabet size — while staying small enough
    /// that the coder's `range / total` division keeps precision.
    max_total: u32,
}

impl Model {
    fn new(alphabet: usize) -> Self {
        Model {
            freq: Fenwick::with_uniform(alphabet, 1),
            max_total: ((alphabet as u32).saturating_mul(4)).max(1 << 16),
        }
    }

    fn update(&mut self, sym: usize) {
        self.freq.add(sym, INCREMENT);
        if self.freq.total() >= self.max_total {
            self.freq.halve();
        }
    }
}

/// Encode `symbols` (all `< alphabet`) into a self-contained buffer.
///
/// # Panics
/// Panics when a symbol is outside the alphabet or `alphabet == 0`.
pub fn range_encode(symbols: &[u32], alphabet: usize) -> Vec<u8> {
    assert!(alphabet > 0, "empty alphabet");
    let mut out = Vec::with_capacity(symbols.len() / 2 + 16);
    varint::write_u64(&mut out, symbols.len() as u64);
    varint::write_u64(&mut out, alphabet as u64);
    if symbols.is_empty() {
        return out; // header only; the decoder returns early on n = 0
    }

    let mut model = Model::new(alphabet);
    let mut low = 0u64;
    let mut range = u64::MAX >> 8; // 56-bit working range
    for &s in symbols {
        let s = s as usize;
        assert!(s < alphabet, "symbol {s} outside alphabet {alphabet}");
        let total = model.freq.total() as u64;
        let cum = model.freq.prefix(s) as u64;
        let f = model.freq.get(s) as u64;
        range /= total;
        low = low.wrapping_add(cum * range);
        range *= f;
        // Renormalise: flush top bytes when settled or range underflows.
        loop {
            if low ^ low.wrapping_add(range) < TOP {
                // top byte settled
            } else if range < BOTTOM {
                range = low.wrapping_neg() & (BOTTOM - 1);
            } else {
                break;
            }
            out.push((low >> 48) as u8);
            low <<= 8;
            range <<= 8;
        }
        model.update(s);
    }
    // Flush enough bytes to disambiguate the final interval.
    for _ in 0..7 {
        out.push((low >> 48) as u8);
        low <<= 8;
    }
    out
}

/// Decode a buffer produced by [`range_encode`].
///
/// # Errors
/// [`CodecError`] on truncation or malformed headers.
pub fn range_decode(src: &[u8]) -> Result<Vec<u32>, CodecError> {
    range_decode_bounded(src, usize::MAX)
}

/// [`range_decode`] with a hard cap on the declared symbol count, checked
/// before any symbol-proportional allocation. Callers that know how many
/// symbols they expect should pass that as `max_symbols` so hostile
/// headers cannot force huge decode loops.
///
/// # Errors
/// [`CodecError::LimitExceeded`] when the stream declares more than
/// `max_symbols` symbols; otherwise as [`range_decode`].
pub fn range_decode_bounded(src: &[u8], max_symbols: usize) -> Result<Vec<u32>, CodecError> {
    let mut pos = 0usize;
    let n = varint::read_u64(src, &mut pos)? as usize;
    if n > max_symbols {
        return Err(CodecError::LimitExceeded {
            what: "symbol count",
            requested: n as u64,
            limit: max_symbols as u64,
        });
    }
    let alphabet = varint::read_u64(src, &mut pos)? as usize;
    if alphabet == 0 || alphabet > (1 << 24) {
        return Err(CodecError::Corrupt("bad range-coder alphabet"));
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut model = Model::new(alphabet);
    let mut low = 0u64;
    let mut range = u64::MAX >> 8;
    let mut code = 0u64;
    let next_byte = |pos: &mut usize| -> u8 {
        // Bytes past the end decode as zero (mirrors encoder flush).
        let b = src.get(*pos).copied().unwrap_or(0);
        *pos += 1;
        b
    };
    // Need at least one real payload byte for a non-empty stream.
    if pos >= src.len() {
        return Err(CodecError::UnexpectedEof);
    }
    for _ in 0..7 {
        code = (code << 8) | next_byte(&mut pos) as u64;
    }
    // Pre-allocation clamp: `n` is untrusted on the unbounded path.
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let total = model.freq.total() as u64;
        range /= total;
        let target = ((code.wrapping_sub(low)) / range).min(total - 1);
        let sym = model.freq.find(target as u32);
        let cum = model.freq.prefix(sym) as u64;
        let f = model.freq.get(sym) as u64;
        low = low.wrapping_add(cum * range);
        range *= f;
        loop {
            if low ^ low.wrapping_add(range) < TOP {
            } else if range < BOTTOM {
                range = low.wrapping_neg() & (BOTTOM - 1);
            } else {
                break;
            }
            code = (code << 8) | next_byte(&mut pos) as u64;
            low <<= 8;
            range <<= 8;
        }
        model.update(sym);
        out.push(sym as u32);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq;

    fn roundtrip(symbols: &[u32], alphabet: usize) -> usize {
        let enc = range_encode(symbols, alphabet);
        let dec = range_decode(&enc).unwrap();
        assert_eq!(dec, symbols);
        enc.len()
    }

    #[test]
    fn empty_stream() {
        assert!(roundtrip(&[], 10) < 8);
    }

    #[test]
    fn single_symbol() {
        roundtrip(&[3], 8);
    }

    #[test]
    fn constant_stream_compresses_hard() {
        let symbols = vec![5u32; 10_000];
        let size = roundtrip(&symbols, 16);
        assert!(size < 200, "constant stream coded to {size} bytes");
    }

    #[test]
    fn uniform_stream_near_log2_alphabet() {
        let alphabet = 64usize;
        let symbols: Vec<u32> = (0..20_000u32)
            .map(|i| (i.wrapping_mul(2654435761)) % 64)
            .collect();
        let size = roundtrip(&symbols, alphabet);
        // Ideal is 6 bits/symbol; the adaptive model pays a learning and
        // fluctuation overhead of a few percent on uniform data.
        let ideal = 20_000.0 * 6.0 / 8.0;
        assert!(
            (size as f64) < ideal * 1.15 + 128.0,
            "uniform stream {size} vs ideal {ideal}"
        );
    }

    #[test]
    fn peaked_stream_beats_huffman_granularity() {
        // A 99%-single-symbol stream: Huffman pays >= 1 bit/symbol, range
        // coding pays the entropy (~0.08 bits).
        let mut symbols = vec![100u32; 50_000];
        for i in 0..500 {
            symbols[i * 100] = (i % 7) as u32;
        }
        let alphabet = 128;
        let size = roundtrip(&symbols, alphabet);
        let counts = freq::count_dense(&symbols, alphabet);
        let entropy_bytes = freq::entropy_bound_bytes(&counts);
        // Within 40% of the entropy bound (the adaptive model must learn
        // the distribution first), far below 1 bit/symbol.
        assert!(
            size < 50_000 / 8 + 200,
            "range coder not sub-bit on peaked data: {size}"
        );
        assert!(
            (size as f64) < entropy_bytes as f64 * 1.6 + 64.0,
            "size {size} vs entropy bound {entropy_bytes}"
        );
    }

    #[test]
    fn large_alphabet_quantization_codes() {
        let alphabet = 65536usize;
        let center = 32768i64;
        let symbols: Vec<u32> = (0..30_000)
            .map(|i: i64| (center + (i * 37 % 41) - 20) as u32)
            .collect();
        roundtrip(&symbols, alphabet);
    }

    #[test]
    fn adversarial_alternation_roundtrips() {
        let symbols: Vec<u32> = (0..10_000u32).map(|i| i % 2).collect();
        roundtrip(&symbols, 2);
    }

    #[test]
    fn truncated_header_fails() {
        let enc = range_encode(&[1, 2, 3], 8);
        assert!(range_decode(&enc[..1]).is_err());
    }

    #[test]
    fn model_rescaling_path_is_exercised() {
        // Enough symbols to trigger several halve() rescales (total grows
        // by 32 per symbol, cap 65536 ⇒ rescale every ~2k symbols).
        let symbols: Vec<u32> = (0..50_000u32).map(|i| (i / 1000) % 50).collect();
        roundtrip(&symbols, 50);
    }
}
