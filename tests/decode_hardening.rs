//! Decode-hardening suite: the untrusted-bytes contract.
//!
//! Every entry point that accepts container bytes must return a structured
//! [`szlike::DecodeError`] — never panic, never allocate past the declared
//! limits — for *any* input: arbitrary garbage, truncations at every prefix
//! length, and single-bit flips of valid containers. On v2 blocked
//! containers, [`szlike::decompress_partial`] must additionally recover
//! every intact block bit-exactly and report the damaged ones.
//!
//! Case counts follow the in-repo proptest default (64) and can be raised
//! via `PROPTEST_CASES` (the CI `decode-fuzz-smoke` job does exactly that).

mod common;

use common::{golden_set, grain_field, grid_golden_set, mixed_golden_set, Golden, GoldenField};
use losslesskit::crc32::crc32;
use ndfield::{Scalar, Shape};
use proptest::prelude::*;
use szlike::format::{self, Mode};
use szlike::{
    decompress, decompress_partial, decompress_with_limits, DamageReport, DecodeError,
    DecodeLimits, SzError, SzStore,
};

/// Seal `body` into a container-shaped byte string by appending the CRC-32
/// trailer, exactly like the encoder does. This lets fuzz inputs get *past*
/// the outer integrity check and into the body parsers.
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Flip one bit in a copy of `bytes`.
fn flip_bit(bytes: &[u8], byte_idx: usize, bit: u8) -> Vec<u8> {
    let mut v = bytes.to_vec();
    v[byte_idx] ^= 1 << (bit & 7);
    v
}

/// Strict decode dispatched on the fixture's scalar type; returns whether
/// it succeeded (the decoded values are irrelevant here).
fn strict_decode_ok(g: &Golden, bytes: &[u8]) -> bool {
    match g.field {
        GoldenField::F32(_) => decompress::<f32>(bytes).is_ok(),
        GoldenField::F64(_) => decompress::<f64>(bytes).is_ok(),
    }
}

/// Whether [`SzStore::open`] accepts the bytes, dispatched on the
/// fixture's scalar type.
fn store_open_ok(g: &Golden, bytes: &[u8]) -> bool {
    match g.field {
        GoldenField::F32(_) => SzStore::<f32>::open(bytes).is_ok(),
        GoldenField::F64(_) => SzStore::<f64>::open(bytes).is_ok(),
    }
}

/// The random-access store as one more reader of possibly damaged bytes.
/// When [`SzStore::open`] accepts them, `store.block(b)` must fail for
/// exactly the blocks the forgiving decode reports damaged and return the
/// forgiving decode's samples bit for bit for every other block. When it
/// refuses them, the strict decode must refuse them too.
fn store_agrees_with_partial<T: Scalar>(bytes: &[u8]) -> Result<(), String> {
    let Ok(store) = SzStore::<T>::open(bytes) else {
        return match decompress::<T>(bytes) {
            Ok(_) => Err("store refused bytes the strict decode accepts".to_string()),
            Err(_) => Ok(()),
        };
    };
    let (field, rep) = decompress_partial::<T>(bytes)
        .map_err(|e| format!("store opened but the forgiving decode failed: {e}"))?;
    let grid = store.grid();
    let mut want = Vec::new();
    for b in 0..grid.n_blocks() {
        let damaged = rep.damaged.iter().any(|d| d.index == b);
        match store.block(b) {
            Err(_) if damaged => {}
            Err(e) => return Err(format!("store failed on recovered block {b}: {e}")),
            Ok(_) if damaged => return Err(format!("store decoded damaged block {b}")),
            Ok(got) => {
                grid.gather(field.as_slice(), b, &mut want);
                let same = got.len() == want.len()
                    && got
                        .iter()
                        .zip(&want)
                        .all(|(a, w)| a.to_bits_u64() == w.to_bits_u64());
                if !same {
                    return Err(format!("store block {b} differs from the forgiving decode"));
                }
            }
        }
    }
    Ok(())
}

/// Partial decode dispatched on the fixture's scalar type; returns only the
/// report (drops the field) so callers can reason about damage uniformly.
fn partial_report(g: &Golden, bytes: &[u8]) -> Result<DamageReport, SzError> {
    match g.field {
        GoldenField::F32(_) => decompress_partial::<f32>(bytes).map(|(_, r)| r),
        GoldenField::F64(_) => decompress_partial::<f64>(bytes).map(|(_, r)| r),
    }
}

// ---------------------------------------------------------------------------
// Truncations: every prefix of every golden container.
// ---------------------------------------------------------------------------

/// Chopping a valid container at *any* byte boundary must yield a clean
/// error from the strict path, and the forgiving path must never report a
/// truncated container as pristine.
#[test]
fn truncations_at_every_prefix_fail_cleanly() {
    for g in golden_set() {
        let bytes = g.compress();
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            assert!(
                !strict_decode_ok(&g, prefix),
                "{}: strict decode accepted a {cut}-byte prefix of {} bytes",
                g.name,
                bytes.len()
            );
            // The forgiving path may salvage something, but a truncated
            // container can never present as fully intact.
            if let Ok(rep) = partial_report(&g, prefix) {
                assert!(
                    !rep.is_clean(),
                    "{}: partial decode reported a {cut}-byte prefix as clean",
                    g.name
                );
            }
            assert!(
                !store_open_ok(&g, prefix),
                "{}: store opened a {cut}-byte prefix",
                g.name
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Single-bit flips of valid containers.
// ---------------------------------------------------------------------------

proptest! {
    /// CRC-32 detects every single-bit error, so a strict decode of a
    /// one-bit-flipped container must always be rejected — and the
    /// forgiving decode must never present the flip as a pristine
    /// container.
    #[test]
    fn single_bit_flips_are_always_detected(
        fixture in 0usize..11,
        pos01 in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let set = golden_set();
        let g = &set[fixture % set.len()];
        let bytes = g.compress();
        let idx = ((pos01 * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let flipped = flip_bit(&bytes, idx, bit);
        prop_assert!(
            !strict_decode_ok(g, &flipped),
            "{}: strict decode accepted a bit flip at byte {idx} bit {bit}",
            g.name
        );
        if let Ok(rep) = partial_report(g, &flipped) {
            prop_assert!(
                !rep.is_clean(),
                "{}: partial decode reported bit flip at byte {idx} as clean",
                g.name
            );
        }
    }

    /// On a v2 blocked container, whenever the forgiving decode succeeds
    /// after a bit flip, every sample outside the reported damage must be
    /// bit-identical to the pristine decode (per-block CRCs guarantee it).
    #[test]
    fn flipped_blocked_containers_keep_intact_blocks_exact(
        pos01 in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        // blocked_f32_2d: 64×48, block_rows 16 → 4 blocks.
        let set = golden_set();
        let g = set.iter().find(|g| g.name == "blocked_f32_2d").unwrap();
        let bytes = g.compress();
        let (pristine, rep0) = decompress_partial::<f32>(&bytes).unwrap();
        prop_assert!(rep0.is_clean());
        let idx = ((pos01 * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let flipped = flip_bit(&bytes, idx, bit);
        if let Ok((field, rep)) = decompress_partial::<f32>(&flipped) {
            // The header, params and block directory are sealed by the
            // meta CRC, so a successful decode implies the pristine shape.
            prop_assert_eq!(field.shape(), pristine.shape());
            let damaged = |i: usize| rep.damaged.iter().any(|d| d.sample_range.contains(&i));
            for (i, (&a, &b)) in pristine
                .as_slice()
                .iter()
                .zip(field.as_slice())
                .enumerate()
            {
                if damaged(i) {
                    prop_assert!(b.is_nan(), "damaged sample {i} not NaN-filled");
                } else {
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "undamaged sample {i} differs after flip at byte {idx} bit {bit}"
                    );
                }
            }
        }
    }
}

proptest! {
    /// A resealed single-bit flip of a v3 slab, v4 grid or v5 mixed
    /// container: the random-access store must agree with the forgiving
    /// decode block for block (see [`store_agrees_with_partial`]).
    #[test]
    fn store_agrees_with_partial_decode_after_bit_flips(
        fixture in 0usize..3,
        pos01 in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let set: Vec<Golden> = golden_set()
            .into_iter()
            .filter(|g| g.name == "blocked_f32_2d")
            .chain(grid_golden_set().into_iter().filter(|g| g.name == "grid_f64_2d"))
            .chain(mixed_golden_set().into_iter().filter(|g| g.name == "mixed_auto_f32_2d"))
            .collect();
        prop_assert_eq!(set.len(), 3);
        let g = &set[fixture];
        let bytes = g.compress();
        // Flip anywhere but the outer CRC trailer, then reseal it so the
        // flip reaches the directory and block parsers.
        let idx = ((pos01 * (bytes.len() - 4) as f64) as usize).min(bytes.len() - 5);
        let mut flipped = flip_bit(&bytes, idx, bit);
        fix_outer_crc(&mut flipped);
        let agreed = match g.field {
            GoldenField::F32(_) => store_agrees_with_partial::<f32>(&flipped),
            GoldenField::F64(_) => store_agrees_with_partial::<f64>(&flipped),
        };
        prop_assert!(
            agreed.is_ok(),
            "{}: flip at byte {idx} bit {bit}: {:?}",
            g.name,
            agreed
        );
    }
}

// ---------------------------------------------------------------------------
// Arbitrary bytes: raw garbage, and garbage sealed behind a valid header.
// ---------------------------------------------------------------------------

proptest! {
    /// Totally arbitrary bytes must produce a structured error (or, in the
    /// astronomically unlikely case of a valid container, a decode) —
    /// never a panic — on both strict and forgiving paths.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let _ = decompress::<f32>(&bytes);
        let _ = decompress::<f64>(&bytes);
        let _ = decompress_partial::<f32>(&bytes);
        let _ = decompress_partial::<f64>(&bytes);
    }

    /// Garbage bodies behind a *valid* header and CRC trailer drive the
    /// per-mode body parsers directly (the outer CRC no longer rejects the
    /// input first). Every mode must fail structurally, never panic.
    #[test]
    fn sealed_garbage_bodies_never_panic(
        mode_idx in 0usize..5,
        rows in 1usize..48,
        cols in 1usize..48,
        body in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mode = [
            Mode::Quantized,
            Mode::Constant,
            Mode::Raw,
            Mode::LogPointwiseRel,
            Mode::Blocked,
        ][mode_idx];
        let mut container = Vec::new();
        format::write_header(&mut container, "f32", mode, Shape::D2(rows, cols)).unwrap();
        container.extend_from_slice(&body);
        let sealed = seal(container);
        let _ = decompress::<f32>(&sealed);
        let _ = decompress_partial::<f32>(&sealed);
        // A tight output budget must also be honoured without panicking.
        let limits = DecodeLimits { max_output_bytes: 1 << 12 };
        let _ = decompress_with_limits::<f32>(&sealed, 1, &limits);
    }

    /// The lossless-stage decoders sit directly on untrusted container
    /// sections; arbitrary bytes must never panic or overshoot the caps.
    #[test]
    fn lossless_decoders_never_panic_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        if let Ok(raw) = losslesskit::deflate_like::lz_decompress_bounded(&bytes, 1 << 16) {
            prop_assert!(raw.len() <= 1 << 16);
        }
        if let Ok(syms) = losslesskit::range::range_decode_bounded(&bytes, 4096) {
            prop_assert!(syms.len() <= 4096);
        }
        let mut pos = 0usize;
        let _ = losslesskit::HuffmanCodec::read_table(&bytes, &mut pos);
    }
}

// ---------------------------------------------------------------------------
// Resource limits: giant declared headers must be rejected up front.
// ---------------------------------------------------------------------------

/// A header declaring more output than [`DecodeLimits`] allows must be
/// rejected *before* any body parsing or allocation — including the default
/// 1-GiB budget against a terabyte-scale declared shape.
#[test]
fn giant_declared_headers_hit_limits_before_allocation() {
    // 2^20 × 2^20 f32 samples = 4 TiB declared output: within the format's
    // element-count cap, far past the default decode budget.
    let mut container = Vec::new();
    format::write_header(
        &mut container,
        "f32",
        Mode::Quantized,
        Shape::D2(1 << 20, 1 << 20),
    )
    .unwrap();
    let sealed = seal(container);
    match decompress::<f32>(&sealed) {
        Err(SzError::Decode(DecodeError::LimitExceeded { stage, what, .. })) => {
            assert_eq!(stage, "header");
            assert_eq!(what, "output bytes");
        }
        other => panic!("expected LimitExceeded, got {other:?}"),
    }

    // The same guard honours a caller-supplied budget: 1000 f32 samples
    // (4000 bytes) against a 1-KiB cap.
    let mut small = Vec::new();
    format::write_header(&mut small, "f32", Mode::Quantized, Shape::D1(1000)).unwrap();
    let sealed = seal(small);
    let limits = DecodeLimits {
        max_output_bytes: 1 << 10,
    };
    match decompress_with_limits::<f32>(&sealed, 1, &limits) {
        Err(SzError::Decode(DecodeError::LimitExceeded {
            what,
            requested,
            limit,
            ..
        })) => {
            assert_eq!(what, "output bytes");
            assert_eq!(requested, 4000);
            assert_eq!(limit, 1 << 10);
        }
        other => panic!("expected LimitExceeded, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Acceptance: single-block corruption on a v2 blocked container.
// ---------------------------------------------------------------------------

/// Corrupting exactly one block payload of a v2 blocked container must
/// recover every other block bit-exactly, NaN-fill the damaged range, and
/// report the damaged block's index.
#[test]
fn one_corrupt_block_recovers_all_others() {
    let set = golden_set();
    let g = set.iter().find(|g| g.name == "blocked_f64_3d").unwrap();
    let bytes = g.compress();
    let (pristine, rep0) = decompress_partial::<f64>(&bytes).unwrap();
    assert!(rep0.is_clean());
    assert!(rep0.n_blocks > 1, "fixture must be multi-block");

    // Walk forward from 60% of the container (deep in the payload region)
    // until a flip lands inside exactly one block payload.
    let mut checked = None;
    for idx in (bytes.len() * 6 / 10)..bytes.len().saturating_sub(4) {
        let flipped = flip_bit(&bytes, idx, 3);
        if let Ok((field, rep)) = decompress_partial::<f64>(&flipped) {
            if rep.damaged.len() == 1 {
                checked = Some((field, rep, idx));
                break;
            }
        }
    }
    let (field, rep, idx) = checked.expect("no flip offset landed in a single block payload");

    let d = &rep.damaged[0];
    assert!(d.index < rep.n_blocks, "damaged index out of range");
    assert!(!d.sample_range.is_empty());
    assert_eq!(
        rep.recovered_samples,
        pristine.shape().len() - d.sample_range.len(),
        "recovered-sample count inconsistent with the damage range"
    );
    assert!(!rep.is_clean());

    for (i, (&a, &b)) in pristine.as_slice().iter().zip(field.as_slice()).enumerate() {
        if d.sample_range.contains(&i) {
            assert!(b.is_nan(), "damaged sample {i} not NaN-filled");
        } else {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "intact sample {i} not recovered bit-exactly (flip at byte {idx})"
            );
        }
    }

    // The strict path must refuse the damaged container outright.
    assert!(decompress::<f64>(&flip_bit(&bytes, idx, 3)).is_err());
}

// ---------------------------------------------------------------------------
// v5 mixed-predictor containers: the predictor prefix is untrusted too.
// ---------------------------------------------------------------------------

/// Patch the outer container CRC trailer so tampered bytes get past the
/// whole-container integrity check and into the per-block machinery.
fn fix_outer_crc(bytes: &mut [u8]) {
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&crc);
}

/// The grain field compressed as a v5 container with stored (no-lossless)
/// payloads, so per-block predictor prefixes sit at known offsets.
fn grain_v5_stored() -> Vec<u8> {
    let cfg = szlike::SzConfig::new(szlike::ErrorBound::Abs(1e-3))
        .with_block_rows(16)
        .with_lossless(szlike::LosslessBackend::None)
        .with_predictor(szlike::PredictorKind::Auto);
    szlike::compress(&grain_field(), &cfg).expect("grain compresses")
}

/// Byte offset where the payload region starts (table payload first, then
/// block payloads in directory order), plus each section's offset/length,
/// derived from the structural inspector rather than private parsers.
fn section_offsets(bytes: &[u8]) -> Vec<(String, usize, usize)> {
    let info = szlike::inspect_sections(bytes).expect("sections parse");
    let total: usize = info.sections.iter().map(|s| s.comp_len).sum();
    let mut off = bytes.len() - 4 - total;
    let mut out = Vec::new();
    for s in &info.sections {
        out.push((s.name.clone(), off, s.comp_len));
        off += s.comp_len;
    }
    out
}

/// Bit-flipping the regression-coefficient bytes of one v5 block payload
/// must NaN-fill exactly that block and recover every other block
/// bit-exactly — the coefficient prefix lives inside the per-block CRC,
/// so hostile coefficients read as block damage, never as a panic or as
/// silently wrong samples elsewhere.
#[test]
fn v5_flipped_regression_coefficients_nan_fill_one_block() {
    let bytes = grain_v5_stored();
    let (pristine, rep0) = decompress_partial::<f32>(&bytes).unwrap();
    assert!(rep0.is_clean());
    let names = szlike::inspect_block_predictors(&bytes)
        .unwrap()
        .expect("v5 container");
    let reg_block = names
        .iter()
        .position(|n| n == "regression")
        .expect("grain fixture has a regression block");
    let sections = section_offsets(&bytes);
    let (_, off, len) = sections
        .iter()
        .filter(|(name, _, _)| name.starts_with("block"))
        .nth(reg_block)
        .expect("regression block section");
    assert!(*len > 17, "stored payload holds tag + 16 coefficient bytes");
    // Flip a bit inside the coefficient bytes (offsets 1..17 of the body).
    for coeff_byte in [1usize, 8, 16] {
        let mut dam = bytes.clone();
        dam[off + coeff_byte] ^= 0x40;
        fix_outer_crc(&mut dam);
        assert!(decompress::<f32>(&dam).is_err(), "strict decode accepted");
        let (field, rep) = decompress_partial::<f32>(&dam).expect("partial decode");
        assert_eq!(rep.damaged.len(), 1, "expected exactly one damaged block");
        let d = &rep.damaged[0];
        assert_eq!(d.index, reg_block);
        for (i, (&a, &b)) in pristine.as_slice().iter().zip(field.as_slice()).enumerate() {
            if d.sample_range.contains(&i) {
                assert!(b.is_nan(), "damaged sample {i} not NaN-filled");
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "intact sample {i} diverged");
            }
        }
    }
}

/// A hostile per-block predictor tag that is *CRC-consistent* (the
/// attacker recomputed the per-block CRC, the meta CRC, and the outer
/// trailer) must still read as block damage: the tag parser rejects
/// unknown tags and the decoder NaN-fills that block without panicking.
#[test]
fn v5_hostile_predictor_tags_read_as_block_damage() {
    let bytes = grain_v5_stored();
    let (pristine, _) = decompress_partial::<f32>(&bytes).unwrap();
    let sections = section_offsets(&bytes);
    let blocks: Vec<&(String, usize, usize)> = sections
        .iter()
        .filter(|(name, _, _)| name.starts_with("block"))
        .collect();
    let total: usize = sections.iter().map(|(_, _, l)| l).sum();
    let payload_start = bytes.len() - 4 - total;
    let meta_crc_at = payload_start - 4;
    // Tags outside every PredictorModel: 0 (Auto is never stored), 7, 0xEE.
    for hostile in [0u8, 7, 0xEE] {
        let (_, off, len) = blocks[blocks.len() - 1];
        let mut dam = bytes.clone();
        let old_crc = crc32(&bytes[*off..off + len]).to_le_bytes();
        dam[*off] = hostile;
        let new_crc = crc32(&dam[*off..off + len]).to_le_bytes();
        // Rewrite the block's directory descriptor CRC (it is the only
        // occurrence of the old payload CRC in the meta region).
        let meta = &dam[..meta_crc_at];
        let hits: Vec<usize> = (0..meta.len().saturating_sub(3))
            .filter(|&i| dam[i..i + 4] == old_crc)
            .collect();
        assert_eq!(hits.len(), 1, "payload CRC not unique in directory");
        dam[hits[0]..hits[0] + 4].copy_from_slice(&new_crc);
        let meta_crc = crc32(&dam[..meta_crc_at]).to_le_bytes();
        dam[meta_crc_at..payload_start].copy_from_slice(&meta_crc);
        fix_outer_crc(&mut dam);
        // Fully CRC-consistent container with a hostile tag: the strict
        // path must refuse it, the forgiving path must NaN-fill the block.
        assert!(
            decompress::<f32>(&dam).is_err(),
            "strict decode accepted hostile tag {hostile}"
        );
        let (field, rep) = decompress_partial::<f32>(&dam).expect("partial decode");
        assert_eq!(
            rep.damaged.len(),
            1,
            "tag {hostile}: expected one damaged block"
        );
        let d = &rep.damaged[0];
        assert_eq!(d.index, blocks.len() - 1);
        for (i, (&a, &b)) in pristine.as_slice().iter().zip(field.as_slice()).enumerate() {
            if d.sample_range.contains(&i) {
                assert!(
                    b.is_nan(),
                    "tag {hostile}: damaged sample {i} not NaN-filled"
                );
            } else {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "tag {hostile}: sample {i} diverged"
                );
            }
        }
        // The predictor-map inspector must also survive the hostile tag,
        // labelling it rather than erroring (the payload CRC matches).
        let names = szlike::inspect_block_predictors(&dam)
            .expect("inspector must not error on hostile tags")
            .expect("still a v5 container");
        assert_eq!(
            names.last().map(String::as_str),
            Some(format!("unknown({hostile})").as_str())
        );
    }
}

/// Truncations of the mixed-predictor (v5) fixtures fail cleanly at every
/// prefix, exactly like the legacy fixtures: the per-block predictor
/// prefix adds parse states but no panics.
#[test]
fn v5_truncations_at_every_prefix_fail_cleanly() {
    for g in mixed_golden_set() {
        let bytes = g.compress();
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            assert!(
                !strict_decode_ok(&g, prefix),
                "{}: strict decode accepted a {cut}-byte prefix",
                g.name
            );
            if let Ok(rep) = partial_report(&g, prefix) {
                assert!(
                    !rep.is_clean(),
                    "{}: partial decode reported a {cut}-byte prefix as clean",
                    g.name
                );
            }
            assert!(
                !store_open_ok(&g, prefix),
                "{}: store opened a {cut}-byte prefix",
                g.name
            );
        }
    }
}

proptest! {
    /// Single-bit flips of v5 mixed-predictor containers are always
    /// detected, like the legacy golden set.
    #[test]
    fn v5_single_bit_flips_are_always_detected(
        fixture in 0usize..5,
        pos01 in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let set = mixed_golden_set();
        let g = &set[fixture % set.len()];
        let bytes = g.compress();
        let idx = ((pos01 * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let flipped = flip_bit(&bytes, idx, bit);
        prop_assert!(
            !strict_decode_ok(g, &flipped),
            "{}: strict decode accepted a bit flip at byte {idx} bit {bit}",
            g.name
        );
        if let Ok(rep) = partial_report(g, &flipped) {
            prop_assert!(
                !rep.is_clean(),
                "{}: partial decode reported bit flip at byte {idx} as clean",
                g.name
            );
        }
    }
}

/// A flip confined to the outer CRC trailer loses no data: every block
/// decodes bit-exactly, and only `container_crc_ok` records the damage.
#[test]
fn trailer_flip_loses_no_data() {
    let set = golden_set();
    let g = set.iter().find(|g| g.name == "blocked_f32_2d").unwrap();
    let bytes = g.compress();
    let (pristine, _) = decompress_partial::<f32>(&bytes).unwrap();
    let flipped = flip_bit(&bytes, bytes.len() - 1, 0);
    let (field, rep) = decompress_partial::<f32>(&flipped).unwrap();
    assert!(!rep.container_crc_ok);
    assert!(rep.damaged.is_empty());
    assert!(!rep.is_clean());
    assert_eq!(rep.recovered_samples, pristine.shape().len());
    for (&a, &b) in pristine.as_slice().iter().zip(field.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
