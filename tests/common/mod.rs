//! Shared test substrate: golden-fixture definitions for the
//! format-stability and decode-hardening suites, plus the deterministic
//! evaluation corpora ([`corpora`]) the accuracy harnesses sweep.
//!
//! Every fixture is a deterministic field (integer-hash noise over dyadic
//! ramps — no trig, so the bytes are reproducible across platforms) plus
//! the exact `SzConfig` it was compressed with. The checked-in container
//! bytes live under `tests/fixtures/`:
//!
//! - `v1/`      — frozen containers produced by the PR-2 era code
//!   (blocked layout version 1). Never regenerated; they prove the current
//!   decoder stays backward-compatible.
//! - `v2/`      — frozen containers produced by the PR-5 era code (blocked
//!   layout version 2: per-section lossless + CRC directory, single-stream
//!   Huffman, whole-body DEFLATE). Never regenerated.
//! - `current/` — containers produced by the current encoder (blocked
//!   layout version 3: interleaved Huffman, per-chunk bake-off).
//!   Regenerated on purposeful format changes via
//!   `FPSNR_REGEN_FIXTURES=tests/fixtures/current cargo test -q --test
//!   format_stability regenerate`.

#![allow(dead_code)]

pub mod corpora;

use ndfield::{Field, Shape};
use szlike::{ErrorBound, PredictorKind, SzConfig};

/// SplitMix64-style hash → dyadic rational in `[0, 1)` (exact in f64, so
/// every fixture sample is bit-deterministic on any platform).
fn hash01(x: usize) -> f64 {
    let mut z = (x as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z >> 44) as f64) * (1.0 / (1u64 << 20) as f64)
}

/// Smooth-ish deterministic sample: dyadic ramp plus hashed noise.
fn sample(lin: usize, dims: &[usize]) -> f64 {
    let mut rest = lin;
    let mut ramp = 0.0;
    for (axis, &d) in dims.iter().enumerate().rev() {
        let coord = rest % d;
        rest /= d;
        ramp += coord as f64 * (0.25 / (axis + 1) as f64);
    }
    ramp + hash01(lin) * 0.5
}

fn field_f32(shape: Shape) -> Field<f32> {
    let dims = shape.dims();
    Field::from_fn_linear(shape, |lin| sample(lin, &dims) as f32)
}

fn field_f64(shape: Shape) -> Field<f64> {
    let dims = shape.dims();
    Field::from_fn_linear(shape, |lin| sample(lin, &dims))
}

/// The scalar-typed payload of one golden fixture.
pub enum GoldenField {
    F32(Field<f32>),
    F64(Field<f64>),
}

/// One golden fixture: a deterministic field plus its exact compression
/// configuration and the absolute error tolerance its decode must meet
/// (`0.0` = bit-exact).
pub struct Golden {
    pub name: &'static str,
    pub field: GoldenField,
    pub cfg: SzConfig,
    pub max_abs_err: f64,
}

impl Golden {
    fn f32(name: &'static str, field: Field<f32>, cfg: SzConfig, tol: f64) -> Self {
        Golden {
            name,
            field: GoldenField::F32(field),
            cfg,
            max_abs_err: tol,
        }
    }

    fn f64(name: &'static str, field: Field<f64>, cfg: SzConfig, tol: f64) -> Self {
        Golden {
            name,
            field: GoldenField::F64(field),
            cfg,
            max_abs_err: tol,
        }
    }

    /// Compress this fixture's field with its config (current encoder).
    pub fn compress(&self) -> Vec<u8> {
        match &self.field {
            GoldenField::F32(f) => szlike::compress(f, &self.cfg).expect("fixture compresses"),
            GoldenField::F64(f) => szlike::compress(f, &self.cfg).expect("fixture compresses"),
        }
    }
}

/// The full golden set: monolithic + blocked containers over f32/f64 and
/// ranks 1..=3, plus the constant / raw / log-pointwise-relative modes.
pub fn golden_set() -> Vec<Golden> {
    let mut v = Vec::new();
    // Monolithic quantized, all ranks, both scalars.
    v.push(Golden::f32(
        "mono_f32_1d",
        field_f32(Shape::D1(500)),
        SzConfig::new(ErrorBound::Abs(1e-3)),
        1e-3,
    ));
    v.push(Golden::f64(
        "mono_f64_2d",
        field_f64(Shape::D2(40, 50)),
        SzConfig::new(ErrorBound::Abs(1e-6)),
        1e-6,
    ));
    v.push(Golden::f32(
        "mono_f32_3d",
        field_f32(Shape::D3(12, 13, 14)),
        SzConfig::new(ErrorBound::Abs(1e-3)),
        1e-3,
    ));
    // Raw (lossless) and constant modes.
    v.push(Golden::f64(
        "mono_f64_1d_raw",
        field_f64(Shape::D1(100)),
        SzConfig::new(ErrorBound::Abs(0.0)),
        0.0,
    ));
    v.push(Golden::f32(
        "mono_f32_2d_const",
        Field::from_vec(Shape::D2(10, 10), vec![4.25f32; 100]),
        SzConfig::new(ErrorBound::Abs(1e-3)),
        0.0,
    ));
    // Log pointwise-relative mode (signs, zeros, noise).
    let logrel = Field::from_fn_2d(32, 32, |i, j| {
        let lin = i * 32 + j;
        let mag = (0.5 + hash01(lin)) as f32;
        if lin == 100 {
            0.0
        } else if (i + j) % 5 == 0 {
            -mag
        } else {
            mag
        }
    });
    // Pointwise bound 1e-3: |x| ≤ 1.5 so worst-case absolute error ~1.5e-3.
    v.push(Golden::f32(
        "mono_f32_2d_logrel",
        logrel,
        SzConfig::new(ErrorBound::PointwiseRel(1e-3)),
        1.6e-3,
    ));
    // Blocked containers, all ranks, both scalars.
    v.push(Golden::f32(
        "blocked_f32_1d",
        field_f32(Shape::D1(2000)),
        SzConfig::new(ErrorBound::Abs(1e-3))
            .with_threads(2)
            .with_block_rows(300),
        1e-3,
    ));
    v.push(Golden::f32(
        "blocked_f32_2d",
        field_f32(Shape::D2(64, 48)),
        SzConfig::new(ErrorBound::Abs(1e-3))
            .with_threads(2)
            .with_block_rows(16),
        1e-3,
    ));
    v.push(Golden::f64(
        "blocked_f64_2d",
        field_f64(Shape::D2(30, 40)),
        SzConfig::new(ErrorBound::Abs(1e-6))
            .with_threads(2)
            .with_block_rows(7),
        1e-6,
    ));
    v.push(Golden::f32(
        "blocked_f32_3d",
        field_f32(Shape::D3(16, 10, 10)),
        SzConfig::new(ErrorBound::Abs(1e-3))
            .with_threads(2)
            .with_block_rows(3),
        1e-3,
    ));
    v.push(Golden::f64(
        "blocked_f64_3d",
        field_f64(Shape::D3(20, 16, 12)),
        SzConfig::new(ErrorBound::Abs(1e-6))
            .with_threads(3)
            .with_block_rows(5),
        1e-6,
    ));
    v
}

/// Golden fixtures for the chunk-grid (v4) blocked layout, kept separate
/// from [`golden_set`]: the frozen `v1/` and `v2/` directories predate the
/// grid layout, so the backward-compat sweeps must not expect these names.
/// The `current/` bytes are regenerated together with the main set via
/// `FPSNR_REGEN_FIXTURES`.
pub fn grid_golden_set() -> Vec<Golden> {
    vec![
        Golden::f32(
            "grid_f32_3d",
            field_f32(Shape::D3(24, 20, 16)),
            SzConfig::new(ErrorBound::Abs(1e-3)).with_chunk_dims([8, 8, 8]),
            1e-3,
        ),
        Golden::f64(
            "grid_f64_2d",
            field_f64(Shape::D2(45, 40)),
            SzConfig::new(ErrorBound::Abs(1e-6)).with_chunk_dims([16, 12, 0]),
            1e-6,
        ),
        Golden::f32(
            "grid_f32_1d",
            field_f32(Shape::D1(3000)),
            SzConfig::new(ErrorBound::Abs(1e-3)).with_chunk_dims([512, 0, 0]),
            1e-3,
        ),
    ]
}

/// Golden fixtures for the mixed-predictor (v5) blocked layout and the
/// monolithic predictor-tagged layout, kept separate from [`golden_set`]
/// like [`grid_golden_set`]: the frozen `v1/` and `v2/` directories
/// predate the predictor framework. The `current/` bytes regenerate
/// together with the main set via `FPSNR_REGEN_FIXTURES`.
pub fn mixed_golden_set() -> Vec<Golden> {
    vec![
        // Cost-driven auto selection over a slab-partitioned 2-D field:
        // the per-block bake-off may pick different predictors per block.
        Golden::f32(
            "mixed_auto_f32_2d",
            field_f32(Shape::D2(64, 48)),
            SzConfig::new(ErrorBound::Abs(1e-3))
                .with_threads(2)
                .with_block_rows(16)
                .with_predictor(PredictorKind::Auto),
            1e-3,
        ),
        // Forced regression over a 3-D chunk grid: every block carries a
        // quantized coefficient payload (tag 3 + 16 bytes).
        Golden::f64(
            "mixed_regression_f64_3d",
            field_f64(Shape::D3(24, 20, 16)),
            SzConfig::new(ErrorBound::Abs(1e-6))
                .with_chunk_dims([8, 8, 8])
                .with_predictor(PredictorKind::Regression),
            1e-6,
        ),
        // Forced spline on a 1-D series (stencil + Lorenzo fallback rows).
        Golden::f32(
            "mixed_spline_f32_1d",
            field_f32(Shape::D1(2000)),
            SzConfig::new(ErrorBound::Abs(1e-3))
                .with_threads(2)
                .with_block_rows(300)
                .with_predictor(PredictorKind::Spline),
            1e-3,
        ),
        // Monolithic auto: the predictor tag + optional coefficients live
        // in the Quantized (non-blocked) layout.
        Golden::f32(
            "mixed_auto_f32_mono_2d",
            field_f32(Shape::D2(40, 50)),
            SzConfig::new(ErrorBound::Abs(1e-3)).with_predictor(PredictorKind::Auto),
            1e-3,
        ),
        // Two-texture field whose halves favour different predictors, so
        // the frozen container carries genuinely mixed per-block tags.
        Golden::f32(
            "mixed_grain_f32_2d",
            grain_field(),
            SzConfig::new(ErrorBound::Abs(1e-3))
                .with_threads(2)
                .with_block_rows(16)
                .with_predictor(PredictorKind::Auto),
            1e-3,
        ),
    ]
}

/// Golden fixtures that pin the two selection stages at scale, kept
/// separate like [`grid_golden_set`]. Every one turns on adaptive interval
/// selection and holds more than 131 072 samples, so interval selection
/// samples on a stride (the sample target is 65 536). The monolithic
/// `Auto` field is larger than one bake-off slab, so its production walk
/// continues mid-field from the winning slab walk. The blocked `Auto`
/// field's blocks each fit one slab. The `current/` bytes regenerate
/// together with the main set via `FPSNR_REGEN_FIXTURES`.
pub fn selection_golden_set() -> Vec<Golden> {
    vec![
        Golden::f32(
            "select_auto_f32_mono_2d",
            spiky_field(Shape::D2(320, 450)),
            SzConfig::new(ErrorBound::Abs(0.25))
                .with_auto_intervals(true)
                .with_predictor(PredictorKind::Auto),
            0.25,
        ),
        Golden::f32(
            "select_auto_f32_3d",
            spiky_field(Shape::D3(40, 60, 60)),
            SzConfig::new(ErrorBound::Abs(0.25))
                .with_auto_intervals(true)
                .with_threads(2)
                .with_predictor(PredictorKind::Auto),
            0.25,
        ),
        Golden::f32(
            "select_lorenzo_f32_3d",
            spiky_field(Shape::D3(36, 64, 60)),
            SzConfig::new(ErrorBound::Abs(0.25)).with_auto_intervals(true),
            0.25,
        ),
    ]
}

/// A two-texture field with sparse large spikes (about one sample in 64).
/// The leading half along the slowest axis is a per-axis quadratic (the
/// neighbour stencils' territory), the trailing half a plane (regression's),
/// both under small hashed noise. The spikes give the prediction errors a
/// heavy tail, so adaptive interval selection lands above its 32-bin floor.
fn spiky_field(shape: Shape) -> Field<f32> {
    let dims = shape.dims();
    let per_lead = shape.len() / dims[0];
    Field::from_fn_linear(shape, |lin| {
        let quadratic = lin / per_lead < dims[0] / 2;
        let mut rest = lin;
        let mut ramp = 0.0;
        for (axis, &d) in dims.iter().enumerate().rev() {
            let c = (rest % d) as f64;
            rest /= d;
            ramp += if quadratic && axis > 0 {
                c * c * (4.0 / d as f64)
            } else {
                c * (2.0 / (axis + 1) as f64)
            };
        }
        let spike = if hash01(lin + (1 << 40)) < 1.0 / 64.0 {
            (hash01(lin + (1 << 41)) - 0.5) * 64.0
        } else {
            0.0
        };
        (ramp + hash01(lin) * 0.125 + spike) as f32
    })
}

/// Deterministic two-texture field (dyadic arithmetic only): the top half
/// is a plane plus hashed noise (per-block linear regression's natural
/// territory — the noise defeats neighbour-based predictors), the bottom
/// half scales a per-row quadratic by a row-dependent factor (the spline
/// stencil is exact on per-row quadratics while the multiplicative rows
/// defeat Lorenzo²'s separable exactness).
pub fn grain_field() -> Field<f32> {
    Field::from_fn_2d(64, 48, |i, j| {
        if i < 32 {
            (i as f64 * 0.125 + j as f64 * 0.1875 + hash01(i * 48 + j) * 0.5) as f32
        } else {
            ((1.0 + 0.5 * hash01(i)) * (j * j) as f64 * (1.0 / 128.0)) as f32
        }
    })
}

/// Directory of the frozen v1 fixtures.
pub fn v1_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1")
}

/// Directory of the frozen v2 fixtures.
pub fn v2_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2")
}

/// Directory of the current-version fixtures.
pub fn current_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/current")
}
