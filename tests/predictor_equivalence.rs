//! Adversarial predictor-equivalence suite: every predictor, every rank,
//! every decode path.
//!
//! The per-block predictor framework (v5 containers) moves the choice of
//! prediction stage into a per-block cost bake-off. These properties pin
//! the invariants that must survive that flexibility:
//!
//! 1. The hard error bound `|x − x̃| ≤ eb` holds for every finite sample
//!    under *every* predictor at every rank — Theorem 1 is per block and
//!    predictor-agnostic.
//! 2. An `auto` container decodes bit-identically through the strict
//!    decoder, the forgiving partial decoder, and `SzStore::read_region`:
//!    all three must replay the exact predictor the encoder chose.
//! 3. Forcing each predictor on mixed-texture corpora round-trips.
//! 4. Container bytes never depend on the thread count, even when blocks
//!    pick different predictors (selection runs inside the per-block task
//!    from the block's own samples — deterministic by construction).
//! 5. Every block of every container decodes to the walk oracle
//!    (`szlike::kernels::walk_reference`) run on that block's samples with
//!    the predictor `select::model` picks for them, and the fused walk of
//!    each block equals the oracle's codes, escapes and reconstruction.

mod common;
#[path = "../crates/szlike/tests/oracle/mod.rs"]
mod oracle;

use fixed_psnr::prelude::*;
use fixed_psnr::sz;
use proptest::prelude::*;
use szlike::{PredictorKind, Region, SzStore};

/// Every selectable predictor, including the cost-driven bake-off.
const KINDS: [PredictorKind; 5] = [
    PredictorKind::Lorenzo1,
    PredictorKind::Lorenzo2,
    PredictorKind::Regression,
    PredictorKind::Spline,
    PredictorKind::Auto,
];

fn hash01(x: u64) -> f64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z >> 44) as f64) * (1.0 / (1u64 << 20) as f64)
}

/// Deterministic mixed-texture sample: a plane, a quadratic, and hashed
/// noise, with weights drawn from the seed so different cases exercise
/// different winning predictors.
fn textured_sample(lin: usize, dims: &[usize], seed: u64) -> f32 {
    let mut rest = lin;
    let mut plane = 0.0;
    let mut quad = 0.0;
    for (axis, &d) in dims.iter().enumerate().rev() {
        let c = (rest % d) as f64;
        rest /= d;
        plane += c * (0.5 / (axis + 1) as f64);
        if axis == dims.len() - 1 {
            quad = c * c * (1.0 / 64.0);
        }
    }
    let w_noise = hash01(seed);
    let w_quad = hash01(seed ^ 0xA5A5);
    (plane + w_quad * quad + w_noise * hash01(seed ^ lin as u64) * 2.0) as f32
}

fn textured_field(shape: Shape, seed: u64) -> Field<f32> {
    let dims = shape.dims();
    Field::from_fn_linear(shape, |lin| textured_sample(lin, &dims, seed))
}

fn shape_for(rank: usize, n: usize) -> Shape {
    match rank {
        1 => Shape::D1(n * n * 8),
        2 => Shape::D2(n * 2, n * 4),
        _ => Shape::D3(n, n, n * 2),
    }
}

fn bits_of(field: &Field<f32>) -> Vec<u32> {
    field.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    // Default 64 cases; the CI predictor-smoke job raises PROPTEST_CASES.

    /// (1) + (3): the absolute bound is a hard guarantee for every
    /// predictor — forced or auto-selected — at every rank, on mixed
    /// textures, through the monolithic path.
    #[test]
    fn every_predictor_honors_bound_at_every_rank(
        kind_idx in 0usize..5,
        rank in 1usize..=3,
        n in 4usize..9,
        seed in any::<u64>(),
        eb_exp in -4i32..-1,
    ) {
        let kind = KINDS[kind_idx];
        let eb = 10.0f64.powi(eb_exp);
        let field = textured_field(shape_for(rank, n), seed);
        let cfg = SzConfig::new(ErrorBound::Abs(eb)).with_predictor(kind);
        let bytes = sz::compress(&field, &cfg).unwrap();
        let back: Field<f32> = sz::decompress(&bytes).unwrap();
        for (idx, (&x, &y)) in field.as_slice().iter().zip(back.as_slice()).enumerate() {
            prop_assert!(
                ((x - y).abs() as f64) <= eb * (1.0 + 1e-12),
                "{kind:?} rank {rank}: sample {idx} x={x} y={y} eb={eb}"
            );
        }
    }

    /// (1) + (3) on the blocked path: forced predictors and auto both
    /// honor the bound when the field is split into per-block walks.
    #[test]
    fn blocked_path_honors_bound_for_every_predictor(
        kind_idx in 0usize..5,
        seed in any::<u64>(),
        block_rows in 3usize..17,
    ) {
        let kind = KINDS[kind_idx];
        let field = textured_field(Shape::D2(48, 40), seed);
        let cfg = SzConfig::new(ErrorBound::Abs(1e-3))
            .with_threads(2)
            .with_block_rows(block_rows)
            .with_predictor(kind);
        let bytes = sz::compress(&field, &cfg).unwrap();
        let back: Field<f32> = sz::decompress(&bytes).unwrap();
        let pw = PointwiseError::between(&field, &back);
        prop_assert!(pw.respects_abs_bound(1e-3 * (1.0 + 1e-12)), "{kind:?}");
    }

    /// (2): an auto-selected blocked container decodes to the same bits
    /// through strict decompress, the forgiving partial decoder, and a
    /// whole-domain `SzStore` region read.
    #[test]
    fn auto_containers_decode_identically_on_every_path(
        seed in any::<u64>(),
        grid in proptest::bool::ANY,
    ) {
        let field = textured_field(Shape::D2(40, 36), seed);
        let cfg = if grid {
            SzConfig::new(ErrorBound::Abs(1e-3))
                .with_chunk_dims([16, 12, 0])
                .with_predictor(PredictorKind::Auto)
        } else {
            SzConfig::new(ErrorBound::Abs(1e-3))
                .with_threads(2)
                .with_block_rows(10)
                .with_predictor(PredictorKind::Auto)
        };
        let bytes = sz::compress(&field, &cfg).unwrap();
        let strict: Field<f32> = sz::decompress(&bytes).unwrap();
        let (partial, report) = sz::decompress_partial::<f32>(&bytes).unwrap();
        prop_assert!(report.is_clean());
        prop_assert_eq!(bits_of(&strict), bits_of(&partial));
        let store = SzStore::<f32>::open(&bytes).unwrap();
        let region = Region::new(&[0..40, 0..36]).unwrap();
        let from_store = store.read_region(&region).unwrap();
        prop_assert_eq!(bits_of(&strict), bits_of(&from_store));
    }

    /// (2) narrowed: sub-regions of a mixed-predictor grid decode to the
    /// same samples the full strict decode produced at those coordinates —
    /// `read_region` must replay each intersecting block's own predictor.
    #[test]
    fn region_reads_match_strict_decode_on_mixed_grids(
        seed in any::<u64>(),
        r0 in 0usize..24, rl in 1usize..16,
        c0 in 0usize..20, cl in 1usize..16,
    ) {
        let field = textured_field(Shape::D2(40, 36), seed);
        let cfg = SzConfig::new(ErrorBound::Abs(1e-3))
            .with_chunk_dims([8, 12, 0])
            .with_predictor(PredictorKind::Auto);
        let bytes = sz::compress(&field, &cfg).unwrap();
        let strict: Field<f32> = sz::decompress(&bytes).unwrap();
        let (r1, c1) = ((r0 + rl).min(40), (c0 + cl).min(36));
        let region = Region::new(&[r0..r1, c0..c1]).unwrap();
        let store = SzStore::<f32>::open(&bytes).unwrap();
        let got = store.read_region(&region).unwrap();
        let mut k = 0;
        for i in r0..r1 {
            for j in c0..c1 {
                let want = strict.as_slice()[i * 36 + j];
                prop_assert_eq!(want.to_bits(), got.as_slice()[k].to_bits());
                k += 1;
            }
        }
    }

    /// (4): container bytes never depend on the thread count, even with
    /// mixed per-block predictor selection.
    #[test]
    fn thread_count_never_changes_mixed_predictor_bytes(
        kind_idx in 0usize..5,
        seed in any::<u64>(),
    ) {
        let kind = KINDS[kind_idx];
        let field = textured_field(Shape::D2(48, 32), seed);
        let base = SzConfig::new(ErrorBound::Abs(1e-3))
            .with_block_rows(8)
            .with_predictor(kind);
        let two = sz::compress(&field, &base.with_threads(2)).unwrap();
        let four = sz::compress(&field, &base.with_threads(4)).unwrap();
        prop_assert_eq!(two, four);
    }

    /// (5): for every predictor, monolithic and blocked, each block of the
    /// container decodes to the oracle walk of its samples, and the fused
    /// walk of each block is the oracle walk bit for bit.
    #[test]
    fn fused_containers_decode_to_the_walk_oracle(
        kind_idx in 0usize..5,
        seed in any::<u64>(),
        blocked in proptest::bool::ANY,
    ) {
        let kind = KINDS[kind_idx];
        let field = textured_field(Shape::D2(32, 28), seed);
        let mut cfg = SzConfig::new(ErrorBound::Abs(1e-3)).with_predictor(kind);
        if blocked {
            cfg = cfg.with_threads(2).with_block_rows(8);
        }
        if let Err(msg) = oracle::container_matches_oracle(&field, &cfg, &format!("{kind:?}")) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// (6): containers and decoded bits are identical at every
    /// `FPSNR_SIMD` dispatch level, for every predictor, monolithic and
    /// blocked — the byte-identity contract of the SIMD layer.
    #[test]
    fn simd_levels_produce_identical_containers_for_every_predictor(
        kind_idx in 0usize..5,
        seed in any::<u64>(),
        rank in 1usize..4,
        n in 8usize..14,
        blocked in proptest::bool::ANY,
    ) {
        use losslesskit::simd::{self, SimdLevel};
        let kind = KINDS[kind_idx];
        let field = textured_field(shape_for(rank, n), seed);
        let mut cfg = SzConfig::new(ErrorBound::Abs(1e-3)).with_predictor(kind);
        if blocked {
            cfg = cfg.with_block_rows(8);
        }
        simd::force(Some(SimdLevel::Off));
        let baseline = sz::compress(&field, &cfg).unwrap();
        let base_dec: Field<f32> = sz::decompress(&baseline).unwrap();
        for &level in SimdLevel::ALL.iter().filter(|&&l| l <= simd::detect()) {
            simd::force(Some(level));
            let bytes = sz::compress(&field, &cfg).unwrap();
            let dec: Field<f32> = sz::decompress(&bytes).unwrap();
            simd::force(None);
            prop_assert!(bytes == baseline, "{:?} container bytes differ at {:?}", kind, level);
            prop_assert!(
                bits_of(&dec) == bits_of(&base_dec),
                "{:?} decoded bits differ at {:?}",
                kind,
                level
            );
        }
        simd::force(None);
    }
}

/// Forcing each predictor on the two-texture grain field round-trips
/// within the bound, and `auto` never produces a larger container than
/// the *worst* forced predictor (it is an argmin over per-block costs;
/// per-block estimation noise keeps it from always beating the best).
#[test]
fn forced_predictors_roundtrip_grain_and_auto_is_not_worst() {
    let field = textured_field(Shape::D2(64, 48), 7);
    let mut sizes = Vec::new();
    for kind in KINDS {
        let cfg = SzConfig::new(ErrorBound::Abs(1e-3))
            .with_threads(2)
            .with_block_rows(16)
            .with_predictor(kind);
        let bytes = sz::compress(&field, &cfg).unwrap();
        let back: Field<f32> = sz::decompress(&bytes).unwrap();
        let pw = PointwiseError::between(&field, &back);
        assert!(pw.respects_abs_bound(1e-3 * (1.0 + 1e-12)), "{kind:?}");
        sizes.push((kind, bytes.len()));
    }
    let auto = sizes
        .iter()
        .find(|(k, _)| *k == PredictorKind::Auto)
        .unwrap()
        .1;
    let worst_forced = sizes
        .iter()
        .filter(|(k, _)| *k != PredictorKind::Auto)
        .map(|&(_, s)| s)
        .max()
        .unwrap();
    assert!(
        auto <= worst_forced,
        "auto ({auto} bytes) lost to the worst forced predictor ({worst_forced} bytes): {sizes:?}"
    );
}

/// Rank sweep with forced predictors through the blocked path: 1-D, 2-D
/// and 3-D all round-trip (the spline stencil falls back to Lorenzo for
/// in-row indices < 3, regression fits per-block hyperplanes per rank).
#[test]
fn forced_predictors_roundtrip_every_rank_blocked() {
    for rank in 1..=3 {
        let field = textured_field(shape_for(rank, 6), 99 + rank as u64);
        for kind in KINDS {
            let cfg = SzConfig::new(ErrorBound::Abs(1e-3))
                .with_threads(2)
                .with_block_rows(4)
                .with_predictor(kind);
            let bytes = sz::compress(&field, &cfg).unwrap();
            let back: Field<f32> = sz::decompress(&bytes).unwrap();
            let pw = PointwiseError::between(&field, &back);
            assert!(
                pw.respects_abs_bound(1e-3 * (1.0 + 1e-12)),
                "{kind:?} rank {rank}"
            );
        }
    }
}

/// f64 fields go through the same per-block machinery.
#[test]
fn f64_auto_roundtrips_and_paths_agree() {
    let dims = [24usize, 20, 16];
    let field = Field::from_fn_linear(Shape::D3(24, 20, 16), |lin| {
        textured_sample(lin, &dims, 4242) as f64
    });
    let cfg = SzConfig::new(ErrorBound::Abs(1e-6))
        .with_chunk_dims([8, 8, 8])
        .with_predictor(PredictorKind::Auto);
    let bytes = sz::compress(&field, &cfg).unwrap();
    let strict: Field<f64> = sz::decompress(&bytes).unwrap();
    let pw = PointwiseError::between(&field, &strict);
    assert!(pw.respects_abs_bound(1e-6 * (1.0 + 1e-12)));
    let (partial, report) = sz::decompress_partial::<f64>(&bytes).unwrap();
    assert!(report.is_clean());
    assert_eq!(
        strict
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        partial
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
    );
    let store = SzStore::<f64>::open(&bytes).unwrap();
    let region = Region::new(&[0..24, 0..20, 0..16]).unwrap();
    let got = store.read_region(&region).unwrap();
    assert_eq!(
        strict
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        got.as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
    );
}
