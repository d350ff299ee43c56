//! One front door for every error-control mode.
//!
//! §II-B of the paper surveys the mode landscape (ISABELA's pointwise
//! relative, ZFP's fixed-accuracy/rate/precision, SZ's three bounds) and
//! §IV adds fixed-PSNR to it. This module exposes that whole landscape as
//! a single enum + dispatcher, so callers (the CLI, batch drivers,
//! downstream users) pick a *goal* instead of a pipeline:
//!
//! - the pointwise modes and fixed-PSNR resolve analytically and cost one
//!   compression;
//! - [`CompressionMode::ByteBudget`] — "make it fit in N bytes" — has no
//!   closed form for a prediction-based codec, so it bisects the bound on
//!   *compressed size* (compression-only probes, no decompression), the
//!   cheapest correct strategy.

use crate::bound::ebrel_for_psnr;
use crate::fixed_psnr::FixedPsnrOptions;
use crate::fixed_ratio::{compress_fixed_ratio, FixedRatioOptions};
use ndfield::{Field, Scalar};
use szlike::{compress, ErrorBound, SzConfig, SzError};

/// A user-level compression goal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompressionMode {
    /// `|x − x̃| ≤ eb` per sample.
    Abs(f64),
    /// `|x − x̃| ≤ eb · (max − min)` per sample.
    ValueRangeRel(f64),
    /// `|x − x̃| ≤ eb · |x|` per sample (log-transform pipeline).
    PointwiseRel(f64),
    /// Overall PSNR ≥ (approximately) the target — the paper's mode.
    FixedPsnr(f64),
    /// Compression ratio ≈ the target (±10%), via ratio–quality modeling:
    /// one pilot walk predicts the bound, at most two secant refinements
    /// close the residual. See [`crate::fixed_ratio`].
    FixedRatio(f64),
    /// Compressed size ≤ the budget, with the best quality that fits.
    ByteBudget(usize),
}

/// What a [`compress_with_mode`] call resolved to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeReport {
    /// The value-range-relative bound the run effectively used (NaN for
    /// pointwise-relative, which does not reduce to one).
    pub effective_ebrel: f64,
    /// Compressor invocations spent (1 for analytic modes).
    pub invocations: usize,
}

/// Compress under any [`CompressionMode`].
///
/// # Errors
/// [`SzError`] from the pipeline; [`SzError::BadBound`] when a byte budget
/// is unreachable even at the loosest sensible bound;
/// [`SzError::BadConfig`] when a fixed-ratio `base` sets `chunk_dims`,
/// `escape` or `entropy`, which the fixed-ratio driver cannot carry.
pub fn compress_with_mode<T: Scalar>(
    field: &Field<T>,
    mode: CompressionMode,
    base: &SzConfig,
) -> Result<(Vec<u8>, ModeReport), SzError> {
    let with_bound = |b: ErrorBound| SzConfig { bound: b, ..*base };
    match mode {
        CompressionMode::Abs(eb) => {
            let bytes = compress(field, &with_bound(ErrorBound::Abs(eb)))?;
            let vr = field.value_range();
            Ok((
                bytes,
                ModeReport {
                    effective_ebrel: if vr > 0.0 { eb / vr } else { f64::NAN },
                    invocations: 1,
                },
            ))
        }
        CompressionMode::ValueRangeRel(eb) => {
            let bytes = compress(field, &with_bound(ErrorBound::ValueRangeRel(eb)))?;
            Ok((
                bytes,
                ModeReport {
                    effective_ebrel: eb,
                    invocations: 1,
                },
            ))
        }
        CompressionMode::PointwiseRel(eb) => {
            let bytes = compress(field, &with_bound(ErrorBound::PointwiseRel(eb)))?;
            Ok((
                bytes,
                ModeReport {
                    effective_ebrel: f64::NAN,
                    invocations: 1,
                },
            ))
        }
        CompressionMode::FixedPsnr(target) => {
            let ebrel = ebrel_for_psnr(target);
            let bytes = compress(field, &with_bound(ErrorBound::ValueRangeRel(ebrel)))?;
            Ok((
                bytes,
                ModeReport {
                    effective_ebrel: ebrel,
                    invocations: 1,
                },
            ))
        }
        CompressionMode::FixedRatio(target) => {
            let defaults = SzConfig::new(base.bound);
            if (base.escape, base.entropy) != (defaults.escape, defaults.entropy) {
                return Err(SzError::BadConfig(
                    "fixed-ratio mode does not support escape or entropy".into(),
                ));
            }
            let opts = FixedRatioOptions {
                compress: FixedPsnrOptions {
                    quant_bins: base.quant_bins,
                    auto_intervals: base.auto_intervals,
                    lossless: base.lossless,
                    threads: base.threads,
                    block_rows: base.block_rows,
                    chunk_dims: base.chunk_dims,
                    predictor: base.predictor,
                },
                ..FixedRatioOptions::new(target)
            };
            let run = compress_fixed_ratio(field, &opts)?;
            Ok((
                run.bytes,
                ModeReport {
                    effective_ebrel: run.eb_rel,
                    invocations: run.passes,
                },
            ))
        }
        CompressionMode::ByteBudget(budget) => byte_budget(field, budget, base),
    }
}

/// Bisection on `log10(eb_rel)` against compressed size. Size is monotone
/// non-increasing in the bound, so bisection converges; probes never
/// decompress.
fn byte_budget<T: Scalar>(
    field: &Field<T>,
    budget: usize,
    base: &SzConfig,
) -> Result<(Vec<u8>, ModeReport), SzError> {
    const MAX_PROBES: usize = 14;
    let probe = |log_eb: f64| -> Result<Vec<u8>, SzError> {
        let cfg = SzConfig {
            bound: ErrorBound::ValueRangeRel(10.0f64.powf(log_eb)),
            ..*base
        };
        compress(field, &cfg)
    };
    let mut invocations = 0usize;
    // Loosest sensible bound first: if even that misses, the budget is
    // unreachable for this field.
    let mut lo = -9.0f64; // tight
    let mut hi = -0.3f64; // loose
    invocations += 1;
    let loose = probe(hi)?;
    if loose.len() > budget {
        return Err(SzError::BadBound(format!(
            "byte budget {budget} unreachable: loosest bound still needs {} bytes",
            loose.len()
        )));
    }
    let mut best = (hi, loose);
    while invocations < MAX_PROBES {
        let mid = (lo + hi) / 2.0;
        invocations += 1;
        let bytes = probe(mid)?;
        if bytes.len() <= budget {
            // Fits: try a tighter bound (better quality).
            if mid < best.0 {
                best = (mid, bytes);
            }
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let (log_eb, bytes) = best;
    Ok((
        bytes,
        ModeReport {
            effective_ebrel: 10.0f64.powf(log_eb),
            invocations,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsnr_metrics::Distortion;
    use szlike::{decompress, PredictorKind};

    fn field() -> Field<f32> {
        // The product term matters: a separable sum f(i)+g(j) is predicted
        // *exactly* by Lorenzo-2D, leaving only round-off noise — a
        // degenerate rate curve nothing rate-targeted can invert.
        Field::from_fn_2d(90, 90, |i, j| {
            ((i as f32 * 0.11).sin() + (j as f32 * 0.07).cos()) * 12.0
                + ((i as f32 * 0.31).sin() * (j as f32 * 0.23).cos()) * 1.5
        })
    }

    #[test]
    fn analytic_modes_cost_one_invocation() {
        let f = field();
        let base = SzConfig::new(ErrorBound::Abs(1.0));
        for mode in [
            CompressionMode::Abs(1e-3),
            CompressionMode::ValueRangeRel(1e-4),
            CompressionMode::PointwiseRel(1e-3),
            CompressionMode::FixedPsnr(70.0),
        ] {
            let (bytes, report) = compress_with_mode(&f, mode, &base).unwrap();
            assert_eq!(report.invocations, 1, "{mode:?}");
            let back: Field<f32> = decompress(&bytes).unwrap();
            assert_eq!(back.shape(), f.shape());
        }
    }

    #[test]
    fn fixed_psnr_mode_matches_direct_driver() {
        let f = field();
        let base = SzConfig::new(ErrorBound::Abs(1.0));
        let (bytes, report) =
            compress_with_mode(&f, CompressionMode::FixedPsnr(80.0), &base).unwrap();
        assert!((report.effective_ebrel - ebrel_for_psnr(80.0)).abs() < 1e-15);
        let back: Field<f32> = decompress(&bytes).unwrap();
        let psnr = Distortion::between(&f, &back).psnr();
        assert!((psnr - 80.0).abs() < 4.0, "psnr {psnr}");
    }

    #[test]
    fn fixed_ratio_mode_lands_in_band() {
        let f = field();
        let base = SzConfig::new(ErrorBound::Abs(1.0));
        let (bytes, report) =
            compress_with_mode(&f, CompressionMode::FixedRatio(10.0), &base).unwrap();
        let achieved = (f.len() * 4) as f64 / bytes.len() as f64;
        assert!(
            (achieved / 10.0 - 1.0).abs() <= 0.1,
            "achieved {achieved:.2}x, wanted 10x +/-10%"
        );
        assert!(report.invocations <= 3, "{} passes", report.invocations);
        let back: Field<f32> = decompress(&bytes).unwrap();
        assert_eq!(back.shape(), f.shape());
    }

    #[test]
    fn fixed_ratio_mode_forwards_predictor_and_rejects_unsupported_knobs() {
        let f = Field::from_fn_2d(128, 160, |i, j| {
            let (x, y) = (i as f32 * 0.11, j as f32 * 0.13);
            20.0 * (x.sin() + (y * 0.7).cos()) + 3.0 * ((x * 3.7).sin() * (y * 2.9).cos())
        });
        for kind in [
            PredictorKind::Regression,
            PredictorKind::Spline,
            PredictorKind::Auto,
        ] {
            let base = SzConfig::new(ErrorBound::Abs(1.0))
                .with_auto_intervals(true)
                .with_predictor(kind);
            let (bytes, _) =
                compress_with_mode(&f, CompressionMode::FixedRatio(8.0), &base).unwrap();
            let direct = FixedRatioOptions {
                compress: FixedPsnrOptions {
                    predictor: kind,
                    ..FixedPsnrOptions::default()
                },
                ..FixedRatioOptions::new(8.0)
            };
            let direct = compress_fixed_ratio(&f, &direct).unwrap().bytes;
            assert!(
                bytes == direct,
                "{kind:?}: {} B through the mode, {} B direct",
                bytes.len(),
                direct.len()
            );
        }
        let chunked = SzConfig::new(ErrorBound::Abs(1.0)).with_chunk_dims([32, 32, 0]);
        let res = compress_with_mode(&f, CompressionMode::FixedRatio(8.0), &chunked);
        assert!(matches!(res, Err(SzError::BadConfig(_))), "{res:?}");
    }

    #[test]
    fn byte_budget_fits_and_maximises_quality() {
        let f = field();
        let base = SzConfig::new(ErrorBound::Abs(1.0));
        let budget = f.len(); // 1/4 of raw size (4 B/sample)
        let (bytes, report) =
            compress_with_mode(&f, CompressionMode::ByteBudget(budget), &base).unwrap();
        assert!(bytes.len() <= budget, "{} > {budget}", bytes.len());
        assert!(report.invocations > 2, "bisection suspiciously cheap");
        // A clearly looser bound must not beat the found quality by much:
        // the search's bound should be within ~2x of the tightest that fits.
        let back: Field<f32> = decompress(&bytes).unwrap();
        let psnr = Distortion::between(&f, &back).psnr();
        assert!(psnr > 40.0, "budgeted quality only {psnr} dB");
    }

    #[test]
    fn impossible_budget_errors() {
        let f = field();
        let base = SzConfig::new(ErrorBound::Abs(1.0));
        let res = compress_with_mode(&f, CompressionMode::ByteBudget(8), &base);
        assert!(matches!(res, Err(SzError::BadBound(_))));
    }
}
