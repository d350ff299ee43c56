//! The fixed-PSNR driver (paper §IV, the released tool).
//!
//! # From distortion model to one-shot bound (Eq. 3 → Eq. 6 → Eq. 8)
//!
//! Theorem 1 reduces the distortion of the reconstructed data to the
//! distortion the quantizer put on the *prediction errors*, so everything
//! hinges on modelling quantization error alone.
//!
//! **Eq. 3 — general bins.** Quantizing to bin midpoints, a value landing
//! in a bin of width `δᵢ` incurs squared error `e²` for offset `e ∈
//! [−δᵢ/2, δᵢ/2]` from the midpoint. With the error pdf `P` roughly flat
//! across each (narrow) bin,
//!
//! ```text
//! MSE ≈ Σᵢ P(mᵢ) ∫_{−δᵢ/2}^{δᵢ/2} e² de = (1/12) Σᵢ δᵢ³ P(mᵢ)   (Eq. 3)
//! ```
//!
//! **Eq. 6 — uniform bins.** SZ's linear-scaling quantization uses one
//! bin width `δ`. Pulling `δ²` out of the sum leaves `Σᵢ δ P(mᵢ) ≈ ∫P =
//! 1`, so the data distribution drops out entirely:
//!
//! ```text
//! MSE = δ²/12   ⇒   PSNR = 20·log₁₀(vr/δ) + 10·log₁₀ 12      (Eq. 6)
//! ```
//!
//! with `vr` the value range. This is the classical distribution-free
//! uniform-quantization noise model — and why the paper's mode needs no
//! per-data-set training.
//!
//! **Eq. 8 — inversion.** SZ's bound `eb_abs` gives bins of width `δ =
//! 2·eb_abs`, i.e. `PSNR = 20·log₁₀(vr/eb_abs) + 10·log₁₀ 3` (Eq. 7).
//! Solving for the *value-range-relative* bound `eb_rel = eb_abs/vr`:
//!
//! ```text
//! eb_rel = √3 · 10^(−PSNR/20)                                  (Eq. 8)
//! ```
//!
//! One `powf`, then the *unmodified* SZ pipeline runs with that bound.
//! The integration test `fixed_psnr_is_plain_sz_at_the_eq8_bound` pins
//! this exactly: the driver writes the bytes plain SZ writes at the Eq. 8
//! bound with the same knobs, and the only work inside `fpsnr.compress`
//! besides `sz.compress` is the `fpsnr.derive` obs span.
//!
//! # Examples
//!
//! The Eq. 7 ↔ Eq. 8 closed forms invert each other exactly:
//!
//! ```
//! use fpsnr_core::bound::{ebrel_for_psnr, psnr_for_ebrel};
//!
//! for target in [20.0, 40.0, 60.0, 80.0, 100.0, 120.0] {
//!     let round_trip = psnr_for_ebrel(ebrel_for_psnr(target));
//!     assert!((round_trip - target).abs() < 1e-9);
//! }
//! // Spot-check Eq. 8 itself: √3·10^(−80/20) = √3·1e-4.
//! assert!((ebrel_for_psnr(80.0) - 3f64.sqrt() * 1e-4).abs() < 1e-18);
//! ```
//!
//! And the driver hits the target in a single pass:
//!
//! ```
//! use fpsnr_core::fixed_psnr::{compress_fixed_psnr, FixedPsnrOptions};
//! use ndfield::Field;
//!
//! let field = Field::from_fn_2d(64, 64, |i, j| {
//!     (i as f32 * 0.2).sin() + (j as f32 * 0.3).cos()
//! });
//! let run = compress_fixed_psnr(&field, 60.0, &FixedPsnrOptions::default())?;
//! assert!((run.outcome.achieved_psnr - 60.0).abs() < 6.0); // paper: 0.1–5 dB
//! # Ok::<(), szlike::SzError>(())
//! ```
//!
//! [`compress_fixed_psnr`] additionally decompresses and measures the
//! achieved PSNR, returning the [`fpsnr_metrics::summary::FieldOutcome`]
//! the evaluation aggregates; [`compress_fixed_psnr_only`] is the
//! production path (compress, don't verify). Both wrap the run in
//! `fpsnr-obs` spans (`fpsnr.compress`, `fpsnr.derive`, `fpsnr.verify`)
//! when instrumentation is armed.

use crate::bound::{ebrel_for_psnr, psnr_for_ebrel};
use fpsnr_metrics::summary::FieldOutcome;
use fpsnr_metrics::{Distortion, RateStats};
use fpsnr_transform::{transform_compress, transform_decompress, TransformConfig};
use ndfield::{Field, Scalar};
use szlike::{decompress, ErrorBound, LosslessBackend, PredictorKind, SzConfig, SzError};

/// Knobs forwarded to the underlying compressor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPsnrOptions {
    /// Quantization-bin cap (`2n`), SZ default 65536.
    pub quant_bins: usize,
    /// SZ 1.4's adaptive interval selection (default on — the paper builds
    /// on stock SZ 1.4, whose `predThreshold`-driven selection is enabled
    /// by default).
    pub auto_intervals: bool,
    /// Lossless backend for the final stage.
    pub lossless: LosslessBackend,
    /// Worker threads for the block-parallel SZ path (0 = auto, 1 =
    /// monolithic; forwarded to [`SzConfig::threads`]). The container bytes
    /// never depend on this value.
    pub threads: usize,
    /// Block size in slowest-dimension rows for the blocked path (0 = auto;
    /// forwarded to [`SzConfig::block_rows`]).
    pub block_rows: usize,
    /// Multi-dimensional chunk extents for the grid-blocked (v4) container
    /// layout (all-zero = slab layout; forwarded to
    /// [`SzConfig::chunk_dims`]; mutually exclusive with `block_rows`).
    pub chunk_dims: [usize; 3],
    /// Predictor selection (forwarded to [`SzConfig::predictor`]).
    /// `Lorenzo1` (the default) keeps the legacy container versions;
    /// `Auto` enables the per-block cost-driven bake-off (v5 layout).
    pub predictor: PredictorKind,
}

impl Default for FixedPsnrOptions {
    fn default() -> Self {
        FixedPsnrOptions {
            quant_bins: 65536,
            auto_intervals: true,
            lossless: LosslessBackend::Lz,
            threads: 1,
            block_rows: 0,
            chunk_dims: [0; 3],
            predictor: PredictorKind::Lorenzo1,
        }
    }
}

impl FixedPsnrOptions {
    /// The SZ configuration these knobs describe at error bound `bound` —
    /// the one place every mode (fixed-PSNR, fixed-ratio, allocation, the
    /// byte budget) turns its knobs into an [`SzConfig`]. Escape and
    /// entropy coding stay at [`SzConfig::new`]'s defaults.
    pub fn sz_config(&self, bound: ErrorBound) -> SzConfig {
        SzConfig::new(bound)
            .with_quant_bins(self.quant_bins)
            .with_auto_intervals(self.auto_intervals)
            .with_lossless(self.lossless)
            .with_threads(self.threads)
            .with_block_rows(self.block_rows)
            .with_chunk_dims(self.chunk_dims)
            .with_predictor(self.predictor)
    }

    /// The knobs of `cfg`, the inverse of [`FixedPsnrOptions::sz_config`]:
    /// every field but the bound, the escape coding and the entropy coder.
    pub fn from_sz_config(cfg: &SzConfig) -> Self {
        FixedPsnrOptions {
            quant_bins: cfg.quant_bins,
            auto_intervals: cfg.auto_intervals,
            lossless: cfg.lossless,
            threads: cfg.threads,
            block_rows: cfg.block_rows,
            chunk_dims: cfg.chunk_dims,
            predictor: cfg.predictor,
        }
    }
}

/// Everything a verified fixed-PSNR run produced.
#[derive(Debug, Clone)]
pub struct FixedPsnrRun {
    /// The compressed container.
    pub bytes: Vec<u8>,
    /// The bound Eq. 8 derived from the target.
    pub derived_ebrel: f64,
    /// PSNR the model predicts for that bound (Eq. 7) — equals the target
    /// by construction, kept for report symmetry.
    pub predicted_psnr: f64,
    /// Measured outcome (achieved PSNR, ratio).
    pub outcome: FieldOutcome,
    /// Size accounting.
    pub rate: RateStats,
}

/// Fixed-PSNR compression *without* verification — the paper's production
/// path (steps 1–3 only; the single-pass promise).
///
/// # Errors
/// [`SzError`] propagated from the SZ pipeline (degenerate bounds etc.).
pub fn compress_fixed_psnr_only<T: Scalar>(
    field: &Field<T>,
    target_psnr: f64,
    opts: &FixedPsnrOptions,
) -> Result<Vec<u8>, SzError> {
    validate_target(target_psnr)?;
    let _total = fpsnr_obs::span("fpsnr.compress");
    if fpsnr_obs::is_enabled() {
        fpsnr_obs::add("fpsnr.invocations", 1);
    }
    // The entire fixed-PSNR overhead versus plain SZ lives inside this
    // span: evaluating Eq. 8 once.
    let derive_span = fpsnr_obs::span("fpsnr.derive");
    let cfg = opts.sz_config(ErrorBound::ValueRangeRel(ebrel_for_psnr(target_psnr)));
    drop(derive_span);
    szlike::compress(field, &cfg)
}

/// Fixed-PSNR compression followed by decompression and PSNR measurement —
/// what the paper's evaluation does for every field.
///
/// # Errors
/// [`SzError`] propagated from the SZ pipeline.
pub fn compress_fixed_psnr<T: Scalar>(
    field: &Field<T>,
    target_psnr: f64,
    opts: &FixedPsnrOptions,
) -> Result<FixedPsnrRun, SzError> {
    let bytes = compress_fixed_psnr_only(field, target_psnr, opts)?;
    let _verify = fpsnr_obs::span("fpsnr.verify");
    let back: Field<T> = decompress(&bytes)?;
    Ok(verified_run(field, &back, bytes, target_psnr))
}

/// Fixed-PSNR through the *orthogonal-transform* codec (Theorem 2 / 3):
/// identical Eq. 8 derivation, but the bound feeds the blockwise DCT
/// codec's coefficient quantizer.
///
/// # Errors
/// [`SzError`] propagated from the transform codec.
pub fn compress_fixed_psnr_transform<T: Scalar>(
    field: &Field<T>,
    target_psnr: f64,
) -> Result<FixedPsnrRun, SzError> {
    validate_target(target_psnr)?;
    let ebrel = ebrel_for_psnr(target_psnr);
    let cfg = TransformConfig::new(ErrorBound::ValueRangeRel(ebrel));
    let bytes = transform_compress(field, &cfg)?;
    let back: Field<T> = transform_decompress(&bytes)?;
    Ok(verified_run(field, &back, bytes, target_psnr))
}

/// The measured tail both verified drivers share: distortion of `back`
/// against `field`, size accounting, and the Eq. 8 bound of the target.
fn verified_run<T: Scalar>(
    field: &Field<T>,
    back: &Field<T>,
    bytes: Vec<u8>,
    target_psnr: f64,
) -> FixedPsnrRun {
    let ebrel = ebrel_for_psnr(target_psnr);
    let rate = RateStats::new(field.len(), T::BYTES, bytes.len());
    let outcome = FieldOutcome {
        field: String::new(),
        target_psnr,
        achieved_psnr: Distortion::between(field, back).psnr(),
        ratio: rate.ratio(),
        failure: None,
    };
    FixedPsnrRun {
        bytes,
        derived_ebrel: ebrel,
        predicted_psnr: psnr_for_ebrel(ebrel),
        outcome,
        rate,
    }
}

fn validate_target(target_psnr: f64) -> Result<(), SzError> {
    if !(target_psnr.is_finite() && target_psnr > 0.0) {
        return Err(SzError::BadBound(format!(
            "target PSNR must be finite and positive, got {target_psnr}"
        )));
    }
    // Eq. 8 with PSNR < ~9.5 dB yields eb_rel > 1/√3·... beyond the value
    // range itself; SZ degenerates. The paper evaluates ≥ 20 dB.
    if target_psnr < 5.0 {
        return Err(SzError::BadBound(format!(
            "target PSNR {target_psnr} dB is below the usable regime"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn climate_like(rows: usize, cols: usize) -> Field<f32> {
        Field::from_fn_2d(rows, cols, |i, j| {
            let x = i as f32 * 0.11;
            let y = j as f32 * 0.13;
            20.0 * (x.sin() + (y * 0.7).cos()) + 3.0 * ((x * 3.7).sin() * (y * 2.9).cos())
        })
    }

    #[test]
    fn sz_config_conversion_round_trips() {
        let opts = FixedPsnrOptions {
            quant_bins: 4096,
            auto_intervals: false,
            lossless: LosslessBackend::None,
            threads: 3,
            block_rows: 0,
            chunk_dims: [8, 16, 4],
            predictor: PredictorKind::Auto,
        };
        let bound = ErrorBound::Abs(0.5);
        let cfg = opts.sz_config(bound);
        assert_eq!(cfg.bound, bound);
        assert_eq!(FixedPsnrOptions::from_sz_config(&cfg), opts);
        let cfg = SzConfig::new(bound)
            .with_quant_bins(1024)
            .with_threads(2)
            .with_block_rows(7)
            .with_predictor(PredictorKind::Regression);
        assert_eq!(FixedPsnrOptions::from_sz_config(&cfg).sz_config(bound), cfg);
    }

    #[test]
    fn achieves_target_within_paper_tolerance() {
        let field = climate_like(120, 140);
        for target in [40.0, 60.0, 80.0] {
            let run = compress_fixed_psnr(&field, target, &FixedPsnrOptions::default()).unwrap();
            let dev = run.outcome.achieved_psnr - target;
            // Paper: deviation within 0.1–5.0 dB on average; a single
            // smooth field lands well inside ±5 dB.
            assert!(
                (-1.0..=6.0).contains(&dev),
                "target {target}: achieved {} (dev {dev})",
                run.outcome.achieved_psnr
            );
        }
    }

    #[test]
    fn accuracy_improves_with_target() {
        // Paper observation: the higher the demanded PSNR, the smaller the
        // deviation (finer bins ⇒ better midpoint model).
        let field = climate_like(150, 150);
        let dev = |t: f64| {
            let run = compress_fixed_psnr(&field, t, &FixedPsnrOptions::default()).unwrap();
            (run.outcome.achieved_psnr - t).abs()
        };
        let low = dev(30.0);
        let high = dev(100.0);
        assert!(
            high <= low + 0.5,
            "deviation did not shrink: 30 dB → {low}, 100 dB → {high}"
        );
    }

    #[test]
    fn derived_bound_matches_eq8() {
        let field = climate_like(40, 40);
        let run = compress_fixed_psnr(&field, 70.0, &FixedPsnrOptions::default()).unwrap();
        assert!((run.derived_ebrel - ebrel_for_psnr(70.0)).abs() < 1e-15);
        assert!((run.predicted_psnr - 70.0).abs() < 1e-9);
    }

    #[test]
    fn production_path_equals_verified_path_bytes() {
        let field = climate_like(64, 64);
        let opts = FixedPsnrOptions::default();
        let a = compress_fixed_psnr_only(&field, 80.0, &opts).unwrap();
        let b = compress_fixed_psnr(&field, 80.0, &opts).unwrap();
        assert_eq!(a, b.bytes);
    }

    #[test]
    fn transform_variant_achieves_target() {
        let field = climate_like(96, 96);
        let run = compress_fixed_psnr_transform(&field, 60.0).unwrap();
        let dev = run.outcome.achieved_psnr - 60.0;
        assert!(
            (-2.0..=8.0).contains(&dev),
            "transform achieved {} (dev {dev})",
            run.outcome.achieved_psnr
        );
    }

    #[test]
    fn bad_targets_rejected() {
        let field = climate_like(8, 8);
        let opts = FixedPsnrOptions::default();
        for bad in [f64::NAN, -10.0, 0.0, 3.0] {
            assert!(
                compress_fixed_psnr_only(&field, bad, &opts).is_err(),
                "target {bad} accepted"
            );
        }
    }

    #[test]
    fn higher_target_means_larger_output() {
        let field = climate_like(100, 100);
        let opts = FixedPsnrOptions::default();
        let lo = compress_fixed_psnr_only(&field, 40.0, &opts).unwrap();
        let hi = compress_fixed_psnr_only(&field, 110.0, &opts).unwrap();
        assert!(
            hi.len() > lo.len(),
            "110 dB ({}) not larger than 40 dB ({})",
            hi.len(),
            lo.len()
        );
    }

    #[test]
    fn constant_field_meets_any_target_exactly() {
        let field = Field::from_vec(ndfield::Shape::D2(16, 16), vec![3.0f32; 256]);
        let run = compress_fixed_psnr(&field, 80.0, &FixedPsnrOptions::default()).unwrap();
        assert_eq!(run.outcome.achieved_psnr, f64::INFINITY);
    }
}
