//! Differential property tests: the fused kernels and the reference
//! per-element walk must produce *byte-identical containers* for every
//! shape, predictor, and partition — bit-identity is the contract that
//! keeps the fused hot loops out of the format-stability blast radius.
//!
//! The unit tests inside `szlike::kernels` compare codes/unpredictables/
//! reconstructions on hand-picked shapes; this suite drives the public
//! `compress` entry point across randomized shapes (including degenerate
//! dims of 1 and 2, where interior regions vanish) so the whole
//! encode path — walk, entropy stage, container framing — is compared.

use losslesskit::simd::{self, SimdLevel};
use ndfield::{Field, Shape};
use proptest::prelude::*;
use szlike::{compress, decompress, ErrorBound, KernelMode, PredictorKind, SzConfig};

/// Deterministic field mixing a smooth carrier with xorshift noise so both
/// the quantized core and the escape path are exercised.
fn field_from_seed(dims: &[usize], seed: u64) -> Field<f32> {
    let n: usize = dims.iter().product();
    let mut s = seed | 1;
    let mut vals = Vec::with_capacity(n);
    for i in 0..n {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let noise = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let smooth = ((i as f64) * 0.37).sin() * 2.0;
        vals.push((smooth + noise * 0.2) as f32);
    }
    Field::from_vec(Shape::from_dims(dims), vals)
}

const EB: f64 = 1e-3;
/// Every predictor kind, `Auto` included: its bake-off walks each
/// candidate fused, and the production walk continues the winner's walk.
const PREDICTORS: [PredictorKind; 5] = [
    PredictorKind::Lorenzo1,
    PredictorKind::Lorenzo2,
    PredictorKind::Regression,
    PredictorKind::Spline,
    PredictorKind::Auto,
];

/// Compress with both kernel modes and assert the containers match byte
/// for byte, then round-trip and assert the decoded samples are bit-equal
/// and within the absolute error bound `eb`. Finally sweep every available
/// `FPSNR_SIMD` dispatch level and assert each one reproduces the same
/// container bytes and the same decoded bits — the byte-identity
/// contract of the SIMD layer (DESIGN.md §17).
fn assert_kernels_agree(
    field: &Field<f32>,
    base: SzConfig,
    eb: f64,
    label: &str,
) -> Result<(), String> {
    let fused = compress(field, &base.with_kernel(KernelMode::Fused))
        .map_err(|e| format!("{label}: fused compress failed: {e}"))?;
    let reference = compress(field, &base.with_kernel(KernelMode::Reference))
        .map_err(|e| format!("{label}: reference compress failed: {e}"))?;
    if fused != reference {
        return Err(format!(
            "{label}: container bytes differ (fused {} B vs reference {} B)",
            fused.len(),
            reference.len()
        ));
    }
    let back: Field<f32> =
        decompress(&fused).map_err(|e| format!("{label}: decompress failed: {e}"))?;
    if back.shape() != field.shape() {
        return Err(format!("{label}: shape changed through round-trip"));
    }
    for (i, (a, b)) in field.as_slice().iter().zip(back.as_slice()).enumerate() {
        let err = (*a as f64 - *b as f64).abs();
        if err > eb {
            return Err(format!("{label}: sample {i}: |{a} - {b}| = {err} > {eb}"));
        }
    }
    let result = simd_levels_agree(field, &base, label, &fused, &back);
    simd::force(None);
    result
}

/// Sweep every dispatch level the host supports: container bytes and
/// decoded sample bits must match the ambient-level baseline exactly.
fn simd_levels_agree(
    field: &Field<f32>,
    base: &SzConfig,
    label: &str,
    baseline: &[u8],
    back: &Field<f32>,
) -> Result<(), String> {
    for &level in SimdLevel::ALL.iter().filter(|&&l| l <= simd::detect()) {
        simd::force(Some(level));
        let bytes = compress(field, &base.with_kernel(KernelMode::Fused))
            .map_err(|e| format!("{label}: compress at {level:?} failed: {e}"))?;
        if bytes != baseline {
            return Err(format!(
                "{label}: container bytes differ at FPSNR_SIMD={}",
                level.name()
            ));
        }
        let dec: Field<f32> =
            decompress(&bytes).map_err(|e| format!("{label}: decompress at {level:?} failed: {e}"))?;
        for (i, (a, b)) in back.as_slice().iter().zip(dec.as_slice()).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "{label}: decode bit {i} differs at FPSNR_SIMD={}: {a} vs {b}",
                    level.name()
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    // Default config: 64 cases, raised through PROPTEST_CASES in CI.
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn fused_matches_reference_1d(
        n in 1usize..600,
        seed in any::<u64>(),
        p in 0usize..PREDICTORS.len(),
    ) {
        let field = field_from_seed(&[n], seed);
        let cfg = SzConfig::new(ErrorBound::Abs(EB)).with_predictor(PREDICTORS[p]);
        if let Err(msg) = assert_kernels_agree(&field, cfg, EB, &format!("1D n={n} pred={p}")) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn fused_matches_reference_2d(
        rows in 1usize..40,
        cols in 1usize..40,
        seed in any::<u64>(),
        p in 0usize..PREDICTORS.len(),
    ) {
        let field = field_from_seed(&[rows, cols], seed);
        let cfg = SzConfig::new(ErrorBound::Abs(EB)).with_predictor(PREDICTORS[p]);
        let label = format!("2D {rows}x{cols} pred={p}");
        if let Err(msg) = assert_kernels_agree(&field, cfg, EB, &label) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn fused_matches_reference_3d(
        d0 in 1usize..12,
        d1 in 1usize..12,
        d2 in 1usize..12,
        seed in any::<u64>(),
        p in 0usize..PREDICTORS.len(),
    ) {
        let field = field_from_seed(&[d0, d1, d2], seed);
        let cfg = SzConfig::new(ErrorBound::Abs(EB)).with_predictor(PREDICTORS[p]);
        let label = format!("3D {d0}x{d1}x{d2} pred={p}");
        if let Err(msg) = assert_kernels_agree(&field, cfg, EB, &label) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn fused_matches_reference_blocked(
        rows in 1usize..30,
        cols in 1usize..30,
        seed in any::<u64>(),
        block_rows in 1usize..7,
        p in 0usize..PREDICTORS.len(),
    ) {
        // block_rows >= 1 forces the blocked container, so every block's
        // walk and the per-block decode mirror are compared.
        let field = field_from_seed(&[rows, cols], seed);
        let cfg = SzConfig::new(ErrorBound::Abs(EB))
            .with_predictor(PREDICTORS[p])
            .with_block_rows(block_rows);
        let label = format!("blocked {rows}x{cols} block_rows={block_rows} pred={p}");
        if let Err(msg) = assert_kernels_agree(&field, cfg, EB, &label) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn fused_matches_reference_degenerate_shapes(
        seed in any::<u64>(),
        p in 0usize..PREDICTORS.len(),
        long in 3usize..60,
    ) {
        // Shapes where one or more dims are 1 or 2: the interior regions
        // collapse and every element takes the boundary path, the exact
        // cases a region-decomposition bug would miss.
        let shapes: [&[usize]; 8] = [
            &[1], &[2], &[1, long], &[long, 1], &[2, 2],
            &[1, 1, long], &[long, 1, 1], &[2, 2, 2],
        ];
        for dims in shapes {
            let field = field_from_seed(dims, seed);
            let cfg = SzConfig::new(ErrorBound::Abs(EB)).with_predictor(PREDICTORS[p]);
            let label = format!("degenerate {dims:?} pred={p}");
            if let Err(msg) = assert_kernels_agree(&field, cfg, EB, &label) {
                prop_assert!(false, "{}", msg);
            }
        }
    }
}

/// Fields larger than one bake-off slab (65 536 samples), so `Auto`'s
/// production walk continues the winner's slab walk mid-field, with
/// non-finite samples scattered past the slab. `Truncated` escapes never
/// resume and must agree too.
#[test]
fn fused_matches_reference_past_the_bakeoff_slab() {
    use szlike::EscapeCoding;
    let shapes: [&[usize]; 4] = [&[70_001], &[280, 250], &[20, 60, 60], &[70_001, 1]];
    for (s, dims) in shapes.into_iter().enumerate() {
        let mut field = field_from_seed(dims, 0x5EED + s as u64);
        let n = field.len();
        for (t, lin) in [n - 1, n - 700, n - 1_403, 66_001].into_iter().enumerate() {
            field.as_mut_slice()[lin] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30][t];
        }
        for p in PREDICTORS {
            for escape in [EscapeCoding::Exact, EscapeCoding::Truncated] {
                let cfg = SzConfig::new(ErrorBound::Abs(EB))
                    .with_predictor(p)
                    .with_escape(escape);
                let label = format!("{dims:?} {p:?} {escape:?}");
                if let Err(msg) = assert_kernels_agree(&field, cfg, EB, &label) {
                    panic!("{msg}");
                }
            }
        }
    }
}

/// The corpora the SIMD tripwire bench times — a 3-D GRF of 32³, a 2-D
/// GRF of 128² and the drift series — at a value-range-relative bound
/// with auto intervals: realistic smooth-plus-detail data, where the
/// property fields above are synthetic.
#[test]
fn fused_matches_reference_on_bench_corpora() {
    use datagen::grf::{grf_2d, grf_3d};
    use datagen::timeseries::DriftField;
    const DIM: usize = 32;
    let narrow = |v: Vec<f64>| v.into_iter().map(|x| x as f32).collect::<Vec<_>>();
    let grf3 = Field::from_vec(
        Shape::D3(DIM, DIM, DIM),
        narrow(grf_3d(DIM, DIM, DIM, 3.0, 20180713)),
    );
    let side = 4 * DIM;
    let grf2 = Field::from_vec(
        Shape::D2(side, side),
        narrow(grf_2d(side, side, 3.0, 20180713)),
    );
    let drift = DriftField {
        rows: DIM,
        cols: 4 * DIM,
        ..DriftField::default()
    }
    .at(0.0);
    let series = Field::from_vec(Shape::D1(drift.len()), drift.as_slice().to_vec());
    let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-4)).with_auto_intervals(true);
    for (name, field) in [("grf3d", grf3), ("grf2d", grf2), ("timeseries1d", series)] {
        let eb = 1e-4 * field.value_range();
        if let Err(msg) = assert_kernels_agree(&field, cfg, eb, name) {
            panic!("{msg}");
        }
    }
}
