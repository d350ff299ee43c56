//! Container-format integration tests: cross-mode decode dispatch, header
//! integrity, failure behaviour on malformed inputs, and checked-in golden
//! container fixtures proving byte stability and v1/v2→v3 backward compat.

mod common;

use common::{
    current_dir, golden_set, grid_golden_set, mixed_golden_set, selection_golden_set, v1_dir,
    v2_dir, Golden, GoldenField,
};
use fixed_psnr::prelude::*;
use fixed_psnr::sz::{self, format, LosslessBackend};

fn sample_field() -> Field<f32> {
    Field::from_fn_2d(24, 30, |i, j| ((i * 30 + j) as f32 * 0.05).sin() * 4.0)
}

#[test]
fn header_reflects_what_was_compressed() {
    let field = sample_field();
    let bytes = sz::compress(&field, &SzConfig::new(ErrorBound::Abs(1e-3))).unwrap();
    let mut pos = 0;
    let header = format::read_header(&bytes, &mut pos).unwrap();
    assert_eq!(header.scalar_tag, "f32");
    assert_eq!(header.shape, field.shape());
    assert_eq!(header.mode, format::Mode::Quantized);
}

#[test]
fn mode_dispatch_covers_all_container_kinds() {
    // Quantized
    let q = sz::compress(&sample_field(), &SzConfig::new(ErrorBound::Abs(1e-3))).unwrap();
    // Constant
    let c = sz::compress(
        &Field::from_vec(Shape::D1(50), vec![2.5f32; 50]),
        &SzConfig::new(ErrorBound::Abs(1e-3)),
    )
    .unwrap();
    // Raw (lossless fallback via Abs(0))
    let r = sz::compress(&sample_field(), &SzConfig::new(ErrorBound::Abs(0.0))).unwrap();
    // LogPointwiseRel
    let l = sz::compress(
        &sample_field().map(|v| v + 10.0),
        &SzConfig::new(ErrorBound::PointwiseRel(1e-3)),
    )
    .unwrap();
    for (bytes, expect) in [
        (&q, format::Mode::Quantized),
        (&c, format::Mode::Constant),
        (&r, format::Mode::Raw),
        (&l, format::Mode::LogPointwiseRel),
    ] {
        let mut pos = 0;
        let header = format::read_header(bytes, &mut pos).unwrap();
        assert_eq!(header.mode, expect);
        let back: Field<f32> = sz::decompress(bytes).unwrap();
        assert!(!back.is_empty());
    }
}

#[test]
fn f64_containers_refuse_f32_decoding_and_vice_versa() {
    let f32_field = sample_field();
    let f64_field = Field::from_fn_2d(8, 8, |i, j| (i + j) as f64);
    let b32 = sz::compress(&f32_field, &SzConfig::new(ErrorBound::Abs(1e-3))).unwrap();
    let b64 = sz::compress(&f64_field, &SzConfig::new(ErrorBound::Abs(1e-3))).unwrap();
    assert!(sz::decompress::<f64>(&b32).is_err());
    assert!(sz::decompress::<f32>(&b64).is_err());
    assert!(sz::decompress::<f32>(&b32).is_ok());
    assert!(sz::decompress::<f64>(&b64).is_ok());
}

#[test]
fn every_truncation_point_fails_cleanly() {
    let field = sample_field();
    let bytes = sz::compress(&field, &SzConfig::new(ErrorBound::Abs(1e-4))).unwrap();
    // Exhaustive prefix scan: no prefix may decode successfully or panic.
    for cut in 0..bytes.len() {
        let res = sz::decompress::<f32>(&bytes[..cut]);
        assert!(res.is_err(), "prefix of {cut} bytes decoded");
    }
}

#[test]
fn lossless_backend_choice_does_not_change_reconstruction() {
    let field = sample_field();
    let with_lz = SzConfig::new(ErrorBound::Abs(1e-4));
    let without = SzConfig::new(ErrorBound::Abs(1e-4)).with_lossless(LosslessBackend::None);
    let a: Field<f32> = sz::decompress(&sz::compress(&field, &with_lz).unwrap()).unwrap();
    let b: Field<f32> = sz::decompress(&sz::compress(&field, &without).unwrap()).unwrap();
    assert_eq!(a.as_slice(), b.as_slice(), "backend changed the data");
}

#[test]
fn compression_is_deterministic() {
    let field = sample_field();
    let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-3)).with_auto_intervals(true);
    let a = sz::compress(&field, &cfg).unwrap();
    let b = sz::compress(&field, &cfg).unwrap();
    assert_eq!(a, b, "same input + config must produce identical bytes");
}

#[test]
fn raw_file_io_interoperates_with_codec() {
    use fixed_psnr::field::io;
    let dir = std::env::temp_dir().join("fpsnr_format_test");
    std::fs::create_dir_all(&dir).unwrap();
    let raw_path = dir.join("f.raw");
    let field = sample_field();
    io::write_raw(&field, &raw_path).unwrap();
    let loaded: Field<f32> = io::read_raw(field.shape(), &raw_path).unwrap();
    let bytes = sz::compress(&loaded, &SzConfig::new(ErrorBound::Abs(1e-3))).unwrap();
    let back: Field<f32> = sz::decompress(&bytes).unwrap();
    let pw = PointwiseError::between(&field, &back);
    assert!(pw.respects_abs_bound(1e-3));
    std::fs::remove_file(raw_path).ok();
}

// ---------------------------------------------------------------------------
// Golden container fixtures
// ---------------------------------------------------------------------------

fn assert_decodes_within_tol(name: &str, bytes: &[u8], g: &Golden) {
    match &g.field {
        GoldenField::F32(f) => {
            let back: Field<f32> = sz::decompress(bytes)
                .unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
            assert_eq!(back.shape(), f.shape(), "{name}: shape mismatch");
            for (idx, (a, b)) in f.as_slice().iter().zip(back.as_slice()).enumerate() {
                let err = (a - b).abs() as f64;
                assert!(
                    err <= g.max_abs_err,
                    "{name}: sample {idx} error {err} > {}",
                    g.max_abs_err
                );
            }
        }
        GoldenField::F64(f) => {
            let back: Field<f64> = sz::decompress(bytes)
                .unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
            assert_eq!(back.shape(), f.shape(), "{name}: shape mismatch");
            for (idx, (a, b)) in f.as_slice().iter().zip(back.as_slice()).enumerate() {
                let err = (a - b).abs();
                assert!(
                    err <= g.max_abs_err,
                    "{name}: sample {idx} error {err} > {}",
                    g.max_abs_err
                );
            }
        }
    }
}

/// Decode to raw bit patterns so cross-version comparisons are bit-exact.
fn decode_bits(bytes: &[u8], g: &Golden) -> Vec<u64> {
    match &g.field {
        GoldenField::F32(_) => sz::decompress::<f32>(bytes)
            .expect("fixture decodes")
            .as_slice()
            .iter()
            .map(|v| v.to_bits() as u64)
            .collect(),
        GoldenField::F64(_) => sz::decompress::<f64>(bytes)
            .expect("fixture decodes")
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
    }
}

/// Env-gated fixture writer: set `FPSNR_REGEN_FIXTURES=<dir>` to (re)write
/// the golden containers with the current encoder. A no-op otherwise.
#[test]
fn regenerate_golden_fixtures() {
    let Some(dir) = std::env::var_os("FPSNR_REGEN_FIXTURES") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir).unwrap();
    for g in golden_set()
        .iter()
        .chain(grid_golden_set().iter())
        .chain(mixed_golden_set().iter())
        .chain(selection_golden_set().iter())
    {
        let path = dir.join(format!("{}.szr", g.name));
        std::fs::write(&path, g.compress()).unwrap();
        eprintln!("wrote {}", path.display());
    }
}

/// The current encoder must reproduce every checked-in `current/` fixture
/// byte for byte: any drift is a silent format change.
#[test]
fn current_fixtures_are_byte_stable() {
    for g in golden_set() {
        let path = current_dir().join(format!("{}.szr", g.name));
        let frozen = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        let fresh = g.compress();
        assert_eq!(
            fresh, frozen,
            "{}: encoder output drifted from checked-in fixture; if the \
             format change is intentional, regenerate via \
             FPSNR_REGEN_FIXTURES=tests/fixtures/current",
            g.name
        );
        assert_decodes_within_tol(g.name, &frozen, &g);
    }
}

/// Every checked-in fixture regenerates byte-for-byte with SIMD forced
/// off AND at the autodetected level: the dispatch layer's byte-identity
/// contract (DESIGN.md §17) holds over the full frozen corpus, so the
/// fixtures double as the dispatch oracle.
#[test]
fn fixtures_are_byte_stable_at_every_simd_level() {
    use losslesskit::simd::{self, SimdLevel};
    for g in golden_set()
        .iter()
        .chain(grid_golden_set().iter())
        .chain(mixed_golden_set().iter())
        .chain(selection_golden_set().iter())
    {
        let path = current_dir().join(format!("{}.szr", g.name));
        let frozen = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        for forced in [Some(SimdLevel::Off), None] {
            simd::force(forced);
            let fresh = g.compress();
            simd::force(None);
            assert_eq!(
                fresh, frozen,
                "{}: encoder output at FPSNR_SIMD={} drifted from checked-in \
                 fixture — the dispatch levels no longer agree byte-for-byte",
                g.name,
                forced.map_or("auto", SimdLevel::name),
            );
        }
    }
}

/// The selection fixtures pin both selection stages at scale: strided
/// interval sampling (each picks more than 32 bins), the monolithic
/// bake-off whose production walk continues mid-field from the winning
/// slab walk, and per-block bake-offs on a v5 container. Byte stability
/// at every dispatch level is checked with the other goldens above; here
/// each fixture must still be large enough to pin selection, decode
/// within its bound and, for the blocked one, reproduce at every thread
/// count.
#[test]
fn selection_fixtures_are_byte_stable() {
    for g in selection_golden_set() {
        let path = current_dir().join(format!("{}.szr", g.name));
        let frozen = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        let GoldenField::F32(field) = &g.field else {
            panic!("{}: selection fixtures are f32", g.name);
        };
        let (fresh, detail) = sz::compress_with_detail(field, &g.cfg).unwrap();
        assert_eq!(fresh, frozen, "{}: encoder output drifted", g.name);
        assert!(
            field.len() > 131_072 && detail.quant_bins_used > 32,
            "{}: {} samples, {} bins no longer pin strided interval selection",
            g.name,
            field.len(),
            detail.quant_bins_used
        );
        assert_decodes_within_tol(g.name, &frozen, &g);
        if g.cfg.threads > 1 {
            for t in [2, 3, 8] {
                let fresh = sz::compress(field, &g.cfg.with_threads(t)).unwrap();
                assert_eq!(fresh, frozen, "{}: output at {t} threads drifted", g.name);
            }
        }
    }
}

/// The chunk-grid (v4) fixtures must also be byte-stable: the grid layout
/// is part of the documented format, and its directory order (row-major
/// grid coordinates) and per-axis chunk varints must never drift.
#[test]
fn grid_fixtures_are_byte_stable() {
    for g in grid_golden_set() {
        let path = current_dir().join(format!("{}.szr", g.name));
        let frozen = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        let fresh = g.compress();
        assert_eq!(
            fresh, frozen,
            "{}: grid encoder output drifted from checked-in fixture; if the \
             format change is intentional, regenerate via \
             FPSNR_REGEN_FIXTURES=tests/fixtures/current",
            g.name
        );
        assert_decodes_within_tol(g.name, &frozen, &g);
    }
}

/// A grid (v4) container must decode to exactly the same samples as a slab
/// container of the same field: the partition changes walk boundaries, not
/// the per-block lossy math, and both layouts replay Theorem 1 per block.
#[test]
fn grid_and_slab_layouts_decode_identically_per_block_math() {
    for g in grid_golden_set() {
        let frozen = std::fs::read(current_dir().join(format!("{}.szr", g.name)))
            .expect("grid fixture");
        let mut pos = 0;
        let header = format::read_header(&frozen, &mut pos).unwrap();
        assert_eq!(header.mode, format::Mode::Blocked, "{}", g.name);
        let fresh = g.compress();
        assert_eq!(
            decode_bits(&frozen, &g),
            decode_bits(&fresh, &g),
            "{}: frozen and fresh grid containers decode differently",
            g.name
        );
    }
}

/// The mixed-predictor (v5) fixtures must be byte-stable: the per-block
/// predictor tag + coefficient prefix, the `0xFF` per-block sentinel, and
/// the cost bake-off's deterministic argmin order are all part of the
/// documented format and must never drift.
#[test]
fn mixed_predictor_fixtures_are_byte_stable() {
    for g in mixed_golden_set() {
        let path = current_dir().join(format!("{}.szr", g.name));
        let frozen = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        let fresh = g.compress();
        assert_eq!(
            fresh, frozen,
            "{}: mixed-predictor encoder output drifted from checked-in fixture; \
             if the format change is intentional, regenerate via \
             FPSNR_REGEN_FIXTURES=tests/fixtures/current",
            g.name
        );
        assert_decodes_within_tol(g.name, &frozen, &g);
    }
}

/// A v5 container must decode bit-identically through the strict decoder,
/// the forgiving partial decoder, and a whole-domain `SzStore` region
/// read: all three replay the same per-block predictor choices.
#[test]
fn mixed_predictor_fixtures_decode_identically_on_every_path() {
    for g in mixed_golden_set() {
        let path = current_dir().join(format!("{}.szr", g.name));
        let frozen = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        let mut pos = 0;
        let header = format::read_header(&frozen, &mut pos).unwrap();
        let strict = decode_bits(&frozen, &g);
        match &g.field {
            GoldenField::F32(_) => {
                let (partial, report) =
                    sz::decompress_partial::<f32>(&frozen).expect("partial decode");
                assert!(report.is_clean(), "{}: fixture reported damage", g.name);
                let partial_bits: Vec<u64> = partial
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits() as u64)
                    .collect();
                assert_eq!(strict, partial_bits, "{}: partial path diverged", g.name);
                if header.mode == format::Mode::Blocked {
                    let store = szlike::SzStore::<f32>::open(&frozen).expect("store");
                    let whole: Vec<std::ops::Range<usize>> =
                        header.shape.dims().iter().map(|&d| 0..d).collect();
                    let region = szlike::Region::new(&whole).unwrap();
                    let got = store.read_region(&region).expect("region read");
                    let got_bits: Vec<u64> =
                        got.as_slice().iter().map(|v| v.to_bits() as u64).collect();
                    assert_eq!(strict, got_bits, "{}: region path diverged", g.name);
                }
            }
            GoldenField::F64(_) => {
                let (partial, report) =
                    sz::decompress_partial::<f64>(&frozen).expect("partial decode");
                assert!(report.is_clean(), "{}: fixture reported damage", g.name);
                let partial_bits: Vec<u64> =
                    partial.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(strict, partial_bits, "{}: partial path diverged", g.name);
                if header.mode == format::Mode::Blocked {
                    let store = szlike::SzStore::<f64>::open(&frozen).expect("store");
                    let whole: Vec<std::ops::Range<usize>> =
                        header.shape.dims().iter().map(|&d| 0..d).collect();
                    let region = szlike::Region::new(&whole).unwrap();
                    let got = store.read_region(&region).expect("region read");
                    let got_bits: Vec<u64> =
                        got.as_slice().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(strict, got_bits, "{}: region path diverged", g.name);
                }
            }
        }
    }
}

/// The two-texture grain fixture must keep carrying genuinely mixed
/// per-block predictor tags: if the cost bake-off collapses to a single
/// choice on it, per-block selection has silently stopped doing its job.
#[test]
fn grain_fixture_carries_mixed_predictor_tags() {
    let frozen = std::fs::read(current_dir().join("mixed_grain_f32_2d.szr"))
        .expect("grain fixture");
    let names = szlike::inspect_block_predictors(&frozen)
        .expect("predictor map parses")
        .expect("grain fixture is a v5 container");
    let mut distinct: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(
        distinct.len() >= 2,
        "grain fixture selected only {distinct:?} across {} blocks",
        names.len()
    );
}

/// Frozen v1-era containers must keep decoding (backward compatibility),
/// and must decode to exactly the same samples as a fresh current-version
/// compression of the same field — the lossy math is version-invariant.
#[test]
fn v1_fixtures_decode_backward_compatibly() {
    for g in golden_set() {
        let path = v1_dir().join(format!("{}.szr", g.name));
        let frozen = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        assert_decodes_within_tol(g.name, &frozen, &g);
        let fresh = g.compress();
        assert_eq!(
            decode_bits(&frozen, &g),
            decode_bits(&fresh, &g),
            "{}: v1 container and current container decode to different samples",
            g.name
        );
    }
}

/// Frozen v2-era containers (per-section CRC directory, single-stream
/// Huffman stage 0, whole-body DEFLATE flag 1) must keep decoding, and
/// must decode bit-exactly to what the current v3 encoder produces on the
/// same field — the entropy/lossless rework never touches the lossy math.
#[test]
fn v2_fixtures_decode_backward_compatibly() {
    for g in golden_set() {
        let path = v2_dir().join(format!("{}.szr", g.name));
        let frozen = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        assert_decodes_within_tol(g.name, &frozen, &g);
        let fresh = g.compress();
        assert_eq!(
            decode_bits(&frozen, &g),
            decode_bits(&fresh, &g),
            "{}: v2 container and current container decode to different samples",
            g.name
        );
    }
}
