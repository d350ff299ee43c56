//! Greedy hash-chain LZ77 matching.
//!
//! Produces the token stream consumed by [`crate::deflate_like`]. The
//! matcher mirrors zlib's design: a rolling 3-byte hash indexes chains of
//! previous positions inside a 32 KiB window; match length is capped at 258
//! so the container can reuse DEFLATE's length alphabet.
//!
//! Match extension (`common_prefix`) dispatches on
//! [`crate::simd::active`]: SSE2/AVX2 variants compare 16/32 bytes per
//! step via `pcmpeqb` + `movemask`. Equality comparison is exact at any
//! width, so every level returns the same prefix length and the token
//! stream — and therefore the compressed bytes — are identical across
//! levels. [`MatchStats::probe_bytes`] counts *matched bytes*, not loads,
//! so the work counters are level-independent too.

use crate::simd::{self, SimdLevel};

/// Maximum look-back distance (DEFLATE window).
pub const MAX_DIST: usize = 32 * 1024;
/// Minimum match length worth emitting.
pub const MIN_MATCH: usize = 3;
/// Maximum match length (DEFLATE cap).
pub const MAX_MATCH: usize = 258;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single uncompressed byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes starting `dist` bytes back.
    Match {
        /// Copy length, `MIN_MATCH..=MAX_MATCH`.
        len: u32,
        /// Back-reference distance, `1..=MAX_DIST`.
        dist: u32,
    },
}

/// Effort knob: how many hash-chain candidates to examine per position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Examine few candidates — fastest, slightly worse ratio.
    Fast,
    /// zlib-default-like chain depth.
    Default,
    /// Deep chains — best ratio, slowest.
    Best,
}

impl Effort {
    fn max_chain(self) -> usize {
        match self {
            Effort::Fast => 8,
            Effort::Default => 32,
            Effort::Best => 256,
        }
    }
}

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Matches shorter than this trigger the lazy one-step probe (zlib's
/// `max_lazy` idea): short greedy matches are the ones a one-position
/// deferral most often beats, while long matches are kept immediately.
const LAZY_MAX: usize = 32;

/// Byte-probe budget per match search: `max_chain` candidates, each
/// costing at most four fast-reject bytes (the wide `u32` reject) plus a
/// `common_prefix` walk of at most `MAX_MATCH` bytes and one mismatch
/// byte. The cap therefore never alters the token stream — it exists as a
/// hard worst-case guarantee (and a regression tripwire) against the
/// matcher degenerating to quadratic work on adversarial input, e.g. long
/// constant runs feeding one hash chain.
#[inline]
fn probe_budget(max_chain: usize) -> u64 {
    (max_chain * (MAX_MATCH + 5)) as u64
}

/// Work counters for one [`tokenize_with_stats`] call. Counts are exact and
/// deterministic (no timers), so tests can bound matcher effort without
/// timing flakiness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Positions at which a match search ran (tokens emitted ≤ this).
    pub positions: u64,
    /// Hash-chain candidates examined across all positions.
    pub chain_steps: u64,
    /// Bytes compared across all probes (fast-reject byte + prefix walk).
    pub probe_bytes: u64,
}

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    // Multiplicative hash of 3 bytes; constants from FxHash.
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// Tokenize `data` greedily.
///
/// Every byte of `data` is covered exactly once by the token stream
/// (the invariant the property tests assert).
pub fn tokenize(data: &[u8], effort: Effort) -> Vec<Token> {
    tokenize_with_stats(data, effort).0
}

/// One chain walk at position `i` (caller guarantees `i + MIN_MATCH <=
/// data.len()`). Returns `(best_len, best_dist, hash_of_i)`; `best_len`
/// is 0 when nothing in the window matches.
///
/// Both reject paths are *necessary* conditions for a candidate to beat
/// `best_len` — a candidate differing anywhere in the bytes they compare
/// has a common prefix no longer than the current best — so rejects never
/// change the outcome, only skip doomed `common_prefix` walks.
#[inline]
fn chain_search(
    data: &[u8],
    head: &[u32],
    prev: &[u32],
    i: usize,
    max_chain: usize,
    budget: u64,
    level: SimdLevel,
    stats: &mut MatchStats,
) -> (usize, usize, usize) {
    let n = data.len();
    stats.positions += 1;
    let h = hash3(data, i);
    let mut best_len = 0usize;
    let mut best_dist = 0usize;
    let mut cand = head[h];
    let mut chain = 0usize;
    let mut pos_probes = 0u64;
    let limit = i.saturating_sub(MAX_DIST);
    while cand != u32::MAX && cand as usize >= limit && chain < max_chain {
        let c = cand as usize;
        stats.chain_steps += 1;
        let viable = if best_len >= 4 && i + best_len < n {
            // Wide fast reject: to beat `best_len`, the candidate must
            // agree on the four bytes ending at offset `best_len`
            // (`c < i` keeps `c + best_len` in bounds).
            pos_probes += 4;
            let a: [u8; 4] = data[c + best_len - 3..=c + best_len].try_into().expect("4 bytes");
            let b: [u8; 4] = data[i + best_len - 3..=i + best_len].try_into().expect("4 bytes");
            u32::from_le_bytes(a) == u32::from_le_bytes(b)
        } else {
            pos_probes += 1; // fast-reject byte
            best_len == 0 || data.get(c + best_len) == data.get(i + best_len)
        };
        if viable {
            let len = common_prefix_at(data, c, i, level);
            pos_probes += len as u64 + 1; // matched bytes + mismatch
            if len > best_len {
                best_len = len;
                best_dist = i - c;
                if len >= MAX_MATCH {
                    break;
                }
            }
        }
        if pos_probes >= budget {
            break;
        }
        cand = prev[c];
        chain += 1;
    }
    stats.probe_bytes += pos_probes;
    (best_len, best_dist, h)
}

/// Push position `j` onto its hash chain (caller guarantees
/// `j + MIN_MATCH <= data.len()` and that `j` is not already inserted —
/// a double insert would make the chain self-referential).
#[inline]
fn chain_insert(data: &[u8], head: &mut [u32], prev: &mut [u32], j: usize) {
    let hj = hash3(data, j);
    prev[j] = head[hj];
    head[hj] = j as u32;
}

/// Tokenize `data`, returning exact work counters alongside the token
/// stream. The tokens are identical to [`tokenize`]'s.
///
/// [`Effort::Fast`] matches greedily; the other efforts add zlib-style
/// lazy one-step deferral — when the greedy match at `i` is shorter than
/// `LAZY_MAX`, the matcher also searches `i + 1` and, if that match is
/// strictly longer, emits `data[i]` as a literal and takes the later
/// match instead. Each deferral runs at most one extra bounded chain
/// search, so total work stays linear (the property the adversarial test
/// asserts via [`MatchStats`]).
pub fn tokenize_with_stats(data: &[u8], effort: Effort) -> (Vec<Token>, MatchStats) {
    let mut tokens = Vec::with_capacity(data.len() / 4 + 16);
    let stats = parse(data, effort, |t| tokens.push(t));
    (tokens, stats)
}

/// Sum of the modelled match gain `(len·lit_cost − token_cost)⁺` over the
/// matches of the greedy [`Effort::Fast`] parse of `data`.
///
/// This is the bake-off's LZ probe. It runs the same parse as
/// [`tokenize`] and adds the terms in token order, so the result is
/// bit-equal to summing over `tokenize(data, Effort::Fast)`, but no token
/// vector is built.
pub fn fast_match_gain(data: &[u8], lit_cost: f64, token_cost: f64) -> f64 {
    let mut gain = 0.0f64;
    parse(data, Effort::Fast, |t| {
        if let Token::Match { len, .. } = t {
            gain += (len as f64 * lit_cost - token_cost).max(0.0);
        }
    });
    gain
}

/// The matcher behind [`tokenize_with_stats`] and [`fast_match_gain`]:
/// hands every token to `emit` in stream order and returns the work
/// counters.
fn parse(data: &[u8], effort: Effort, mut emit: impl FnMut(Token)) -> MatchStats {
    let n = data.len();
    let mut stats = MatchStats::default();
    if n < MIN_MATCH + 1 {
        data.iter().for_each(|&b| emit(Token::Literal(b)));
        return stats;
    }
    let max_chain = effort.max_chain();
    let budget = probe_budget(max_chain);
    // Dispatch level sampled once per call: the variants are equivalent,
    // so a concurrent override mid-call could only mix equally-correct
    // compare widths.
    let level = simd::active();
    let lazy = !matches!(effort, Effort::Fast);
    // u32 chain tables: half the memory traffic of `usize` tables, and the
    // chains are where the matcher spends its cache budget. `u32::MAX` is
    // the chain terminator; on inputs of 4 GiB or more, stored positions
    // wrap, but every candidate still passes the 32 KiB window check on the
    // value actually used to form the distance and every match is verified
    // byte-for-byte by `common_prefix`, so the failure mode is a missed
    // match, never a corrupt token.
    let mut head = vec![u32::MAX; HASH_SIZE];
    let mut prev = vec![u32::MAX; n];
    let mut i = 0usize;
    while i < n {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        // Hash of the 3 bytes at `i`; valid whenever a search ran, and
        // reused by the literal path's chain insert below.
        let mut h = 0usize;
        if i + MIN_MATCH <= n {
            (best_len, best_dist, h) =
                chain_search(data, &head, &prev, i, max_chain, budget, level, &mut stats);
        }
        if best_len >= MIN_MATCH {
            // First covered position not yet on its hash chain.
            let mut insert_from = i;
            if lazy && best_len < LAZY_MAX && i + 1 + MIN_MATCH <= n {
                chain_insert(data, &mut head, &mut prev, i);
                insert_from = i + 1;
                let (len1, dist1, _) =
                    chain_search(data, &head, &prev, i + 1, max_chain, budget, level, &mut stats);
                if len1 > best_len {
                    emit(Token::Literal(data[i]));
                    i += 1;
                    best_len = len1;
                    best_dist = dist1;
                }
            }
            emit(Token::Match {
                len: best_len as u32,
                dist: best_dist as u32,
            });
            // Insert every covered position into the hash chains so later
            // matches can reference inside this span.
            let end = (i + best_len).min(n - MIN_MATCH + 1);
            let mut j = insert_from.max(i);
            while j < end {
                chain_insert(data, &mut head, &mut prev, j);
                j += 1;
            }
            i += best_len;
        } else {
            emit(Token::Literal(data[i]));
            if i + MIN_MATCH <= n {
                prev[i] = head[h];
                head[h] = i as u32;
            }
            i += 1;
        }
    }
    stats
}

/// Length of the common prefix of `data[a..]` and `data[b..]` (`a < b`),
/// capped at [`MAX_MATCH`] and at the end of the buffer.
#[inline]
fn common_prefix(data: &[u8], a: usize, b: usize) -> usize {
    let max = MAX_MATCH.min(data.len() - b);
    prefix_scalar_from(data, a, b, 0, max)
}

/// [`common_prefix`] continued from offset `l`: the shared scalar tail
/// every wide variant finishes with, and the whole walk at level `Off`.
#[inline]
fn prefix_scalar_from(data: &[u8], a: usize, b: usize, mut l: usize, max: usize) -> usize {
    // 8-byte-at-a-time comparison (perf-book: avoid per-byte loops).
    while l + 8 <= max {
        let x = u64::from_le_bytes(data[a + l..a + l + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(data[b + l..b + l + 8].try_into().expect("8 bytes"));
        let diff = x ^ y;
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// [`common_prefix`] at the given dispatch level. Every variant returns
/// the exact prefix length — equality compares are width-agnostic — so
/// the choice never changes the token stream.
#[inline]
fn common_prefix_at(data: &[u8], a: usize, b: usize, level: SimdLevel) -> usize {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 presence was established by `simd::active()`'s
        // clamp to `simd::detect()`.
        SimdLevel::Avx2 => unsafe { common_prefix_avx2(data, a, b) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => common_prefix_sse2(data, a, b),
        _ => common_prefix(data, a, b),
    }
}

/// 16-byte match extension via SSE2 `pcmpeqb` + `movemask`. SSE2 is part
/// of the x86_64 baseline, so no runtime gate is needed.
#[cfg(target_arch = "x86_64")]
#[inline]
fn common_prefix_sse2(data: &[u8], a: usize, b: usize) -> usize {
    use std::arch::x86_64::{_mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8};
    let max = MAX_MATCH.min(data.len() - b);
    let mut l = 0usize;
    while l + 16 <= max {
        // SAFETY: `a < b` and `b + l + 16 <= data.len()` (loop guard), so
        // both 16-byte unaligned loads are in bounds.
        let mask = unsafe {
            let x = _mm_loadu_si128(data.as_ptr().add(a + l).cast());
            let y = _mm_loadu_si128(data.as_ptr().add(b + l).cast());
            _mm_movemask_epi8(_mm_cmpeq_epi8(x, y)) as u32
        };
        if mask != 0xFFFF {
            // First zero bit = first differing byte; < 16, so within max.
            return l + (!mask).trailing_zeros() as usize;
        }
        l += 16;
    }
    prefix_scalar_from(data, a, b, l, max)
}

/// 32-byte match extension via AVX2 `vpcmpeqb` + `vpmovmskb`.
///
/// # Safety
/// Caller must have verified AVX2 support (the dispatch in
/// [`common_prefix_at`] only reaches this arm after detection).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn common_prefix_avx2(data: &[u8], a: usize, b: usize) -> usize {
    use std::arch::x86_64::{_mm256_cmpeq_epi8, _mm256_loadu_si256, _mm256_movemask_epi8};
    let max = MAX_MATCH.min(data.len() - b);
    let mut l = 0usize;
    while l + 32 <= max {
        // SAFETY: `a < b` and `b + l + 32 <= data.len()` (loop guard), so
        // both 32-byte unaligned loads are in bounds.
        let mask = unsafe {
            let x = _mm256_loadu_si256(data.as_ptr().add(a + l).cast());
            let y = _mm256_loadu_si256(data.as_ptr().add(b + l).cast());
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, y)) as u32
        };
        if mask != u32::MAX {
            // First zero bit = first differing byte; < 32, so within max.
            return l + (!mask).trailing_zeros() as usize;
        }
        l += 32;
    }
    prefix_scalar_from(data, a, b, l, max)
}

/// Expand a token stream back into bytes. `expected_len` preallocates and is
/// validated by the caller.
pub fn detokenize(tokens: &[Token], expected_len: usize) -> Vec<u8> {
    let mut out: Vec<u8> = Vec::with_capacity(expected_len);
    for &t in tokens {
        match t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                let start = out.len() - dist;
                // Overlapping copies are the point (dist < len repeats).
                for k in 0..len as usize {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], effort: Effort) {
        let tokens = tokenize(data, effort);
        let back = detokenize(&tokens, data.len());
        assert_eq!(back, data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for data in [&b""[..], b"a", b"ab", b"abc"] {
            roundtrip(data, Effort::Default);
        }
    }

    #[test]
    fn repetitive_input_compresses_to_matches() {
        let data = b"abcabcabcabcabcabcabcabc".to_vec();
        let tokens = tokenize(&data, Effort::Default);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "repetitive data produced no matches: {tokens:?}"
        );
        roundtrip(&data, Effort::Default);
    }

    #[test]
    fn overlapping_match_run() {
        // "aaaa..." forces dist=1 len>1 overlapping copies.
        let data = vec![b'a'; 500];
        let tokens = tokenize(&data, Effort::Default);
        assert!(tokens.len() < 10, "run should collapse: {}", tokens.len());
        roundtrip(&data, Effort::Default);
    }

    #[test]
    fn incompressible_input_roundtrips() {
        // Linear-congruential noise: few matches, all literals.
        let mut x = 12345u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        for effort in [Effort::Fast, Effort::Default, Effort::Best] {
            roundtrip(&data, effort);
        }
    }

    #[test]
    fn long_range_match_within_window() {
        let mut data = vec![0u8; 0];
        let phrase = b"the quick brown fox jumps over the lazy dog";
        data.extend_from_slice(phrase);
        data.extend(std::iter::repeat(b'.').take(10_000));
        data.extend_from_slice(phrase);
        let tokens = tokenize(&data, Effort::Best);
        roundtrip(&data, Effort::Best);
        let has_long_dist = tokens.iter().any(
            |t| matches!(t, Token::Match { dist, .. } if *dist as usize > 9_000),
        );
        assert!(has_long_dist, "expected a long-distance match");
    }

    #[test]
    fn match_len_capped_at_max() {
        let data = vec![7u8; 4096];
        for t in tokenize(&data, Effort::Default) {
            if let Token::Match { len, dist } = t {
                assert!(len as usize <= MAX_MATCH);
                assert!(dist as usize <= MAX_DIST);
                assert!(len as usize >= MIN_MATCH);
            }
        }
    }

    #[test]
    fn stats_variant_emits_identical_tokens() {
        let data: Vec<u8> = (0..6000u32).map(|i| (i * 7 % 253) as u8).collect();
        for effort in [Effort::Fast, Effort::Default, Effort::Best] {
            let plain = tokenize(&data, effort);
            let (with_stats, stats) = tokenize_with_stats(&data, effort);
            assert_eq!(plain, with_stats);
            assert!(stats.positions > 0 && stats.probe_bytes > 0);
        }
    }

    #[test]
    fn adversarial_input_probe_work_is_linear() {
        // Worst cases for a hash-chain matcher: a constant run (every
        // position lands in one chain) and a short period (dense chains,
        // long matches). The per-position probe budget bounds total byte
        // comparisons to budget × positions — linear in input size — and,
        // because the budget provably exceeds what an unbounded search can
        // spend per position, the token stream is unchanged.
        let constant = vec![0xABu8; 64 * 1024];
        let periodic: Vec<u8> = (0..64 * 1024usize).map(|i| (i % 5) as u8).collect();
        for data in [&constant, &periodic] {
            for effort in [Effort::Fast, Effort::Default, Effort::Best] {
                let budget = probe_budget(effort.max_chain());
                let (tokens, stats) = tokenize_with_stats(data, effort);
                assert!(
                    stats.probe_bytes <= stats.positions * budget,
                    "probe bytes {} exceed budget {} × {} positions",
                    stats.probe_bytes,
                    budget,
                    stats.positions
                );
                assert!(stats.chain_steps <= stats.positions * effort.max_chain() as u64);
                assert_eq!(tokens, tokenize(data, effort));
                assert_eq!(&detokenize(&tokens, data.len()), data);
            }
        }
    }

    #[test]
    fn tokens_identical_across_simd_levels() {
        // Mixed structure: long runs (deep prefixes), a periodic region
        // (mid-length matches hitting the wide-compare tails at every
        // width), and noise (rejects). Tokens and stats must be identical
        // at every dispatch level; levels above the CPU clamp to the best
        // supported one, which keeps this portable.
        let mut data = vec![0x5Au8; 700];
        data.extend((0..4096usize).map(|i| (i % 23) as u8));
        let mut x = 99991u32;
        data.extend((0..2048).map(|_| {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            (x >> 24) as u8
        }));
        data.extend_from_slice(&data.clone()[100..400]);
        let _g = simd::test_guard();
        let baseline = {
            simd::force(Some(SimdLevel::Off));
            tokenize_with_stats(&data, Effort::Default)
        };
        for level in SimdLevel::ALL {
            simd::force(Some(level));
            for effort in [Effort::Fast, Effort::Default, Effort::Best] {
                let (tokens, stats) = tokenize_with_stats(&data, effort);
                assert_eq!(&detokenize(&tokens, data.len()), &data, "{level:?}");
                if matches!(effort, Effort::Default) {
                    assert_eq!(tokens, baseline.0, "tokens diverged at {level:?}");
                    assert_eq!(stats, baseline.1, "stats diverged at {level:?}");
                }
            }
        }
        simd::force(None);
    }

    #[test]
    fn wide_prefix_variants_match_scalar_exactly() {
        // Every mismatch offset 0..=40 across both 16- and 32-byte step
        // boundaries, plus the no-mismatch cap case.
        for mism in 0..=40usize {
            let mut data = vec![7u8; 600];
            let b = 300usize;
            if mism < 300 {
                data[b + mism] = 8; // diverge copies at offset `mism`
            }
            let want = common_prefix(&data, 0, b);
            for level in SimdLevel::ALL {
                assert_eq!(
                    common_prefix_at(&data, 0, b, level.min(simd::detect())),
                    want,
                    "mism={mism} level={level:?}"
                );
            }
        }
    }

    #[test]
    fn fast_match_gain_is_the_token_sum() {
        let mut data: Vec<u8> = (0..3000u32).map(|i| (i % 37) as u8).collect();
        let mut x = 7u32;
        data.extend((0..3000).map(|_| {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            (x >> 24) as u8
        }));
        for (lit, tok) in [(1.0, 2.3), (0.37, 2.3), (0.99, 0.0)] {
            for len in [0, 3, 4, 100, data.len()] {
                let probe = &data[..len];
                let mut want = 0.0f64;
                for t in tokenize(probe, Effort::Fast) {
                    if let Token::Match { len, .. } = t {
                        want += (len as f64 * lit - tok).max(0.0);
                    }
                }
                let got = fast_match_gain(probe, lit, tok);
                assert_eq!(got.to_bits(), want.to_bits(), "len={len} lit={lit}");
            }
        }
    }

    #[test]
    fn tokens_cover_input_exactly() {
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        let tokens = tokenize(&data, Effort::Default);
        let covered: usize = tokens
            .iter()
            .map(|t| match t {
                Token::Literal(_) => 1,
                Token::Match { len, .. } => *len as usize,
            })
            .sum();
        assert_eq!(covered, data.len());
    }
}
