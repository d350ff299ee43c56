//! The fixed-ratio driver: "give me N× compression" as a first-class
//! mode, answered by ratio–quality modeling instead of blind reruns.
//!
//! The paper's fixed-PSNR mode (Eq. 8) inverts a *distortion* target in
//! closed form; a *ratio* target has no closed form because the output
//! size depends on the whole prediction-error distribution. This driver
//! makes the rate side nearly as cheap as the distortion side:
//!
//! 1. **Pilot** — [`szlike::RateModel::pilot`] runs one quantized walk
//!    (no entropy/LZ stages) and keeps the code-magnitude histogram; for
//!    blocked configurations it merges per-block histograms exactly like
//!    the blocked container's shared frequency table.
//! 2. **Invert** — the model's bits/value curve is bisected (pure
//!    histogram arithmetic) for the bound matching the target ratio, and
//!    the first real compression runs there.
//! 3. **Refine** — if the measured ratio misses the tolerance band, the
//!    model's LZ-gain correction is refitted from the observation and the
//!    curve re-inverted; any further pass uses a bounded secant on
//!    `(ln eb, ln ratio)` kept inside the measured bracket. At most
//!    three compressions run in total (`MAX_PASSES`: one model-driven pass
//!    and K = 2 refinements).
//!
//! Every pass records `fpsnr-obs` counters (`fratio.compress_passes`,
//! per-pass predicted/achieved bits-per-value in milli-units, first-pass
//! model residual) so the accuracy harness can assert the pass budget and
//! EXPERIMENTS.md can report one-shot hit rates.

use ndfield::{Field, Scalar};
use szlike::ratemodel::RateModel;
use szlike::{compress, ErrorBound, LosslessBackend, PredictorKind, SzConfig, SzError};

/// Maximum *total* compression passes (the pilot walk is not one — it
/// never entropy-codes): one model-driven pass plus at most two secant
/// refinements.
const MAX_PASSES: usize = 3;

/// A fixed-ratio request plus the knobs forwarded to the compressor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedRatioOptions {
    /// Requested compression ratio (raw bytes / compressed bytes), > 1.
    pub target_ratio: f64,
    /// Relative tolerance band: the run stops as soon as the measured
    /// ratio is within `target · (1 ± tolerance)`. Default 0.1.
    pub tolerance: f64,
    /// Quantization-bin cap, as [`crate::fixed_psnr::FixedPsnrOptions`].
    pub quant_bins: usize,
    /// SZ 1.4 adaptive interval selection (default on, stock-SZ fidelity).
    pub auto_intervals: bool,
    /// Lossless backend for the final stage.
    pub lossless: LosslessBackend,
    /// Worker threads (0 = auto, 1 = monolithic); container bytes never
    /// depend on this value.
    pub threads: usize,
    /// Rows per block for the blocked path (0 = auto).
    pub block_rows: usize,
    /// Predictor selection (forwarded to [`SzConfig::predictor`]); the
    /// pilot's rate model runs under the same predictor so its bits/value
    /// curve matches what the real passes compress with.
    pub predictor: PredictorKind,
}

impl FixedRatioOptions {
    /// Defaults around a target ratio: ±10% tolerance, ≤ 3 passes, SZ
    /// defaults everywhere else.
    pub fn new(target_ratio: f64) -> Self {
        FixedRatioOptions {
            target_ratio,
            tolerance: 0.1,
            quant_bins: 65536,
            auto_intervals: true,
            lossless: LosslessBackend::Lz,
            threads: 1,
            block_rows: 0,
            predictor: PredictorKind::Lorenzo1,
        }
    }

    fn sz_config(&self, ebrel: f64) -> SzConfig {
        SzConfig::new(ErrorBound::ValueRangeRel(ebrel))
            .with_quant_bins(self.quant_bins)
            .with_auto_intervals(self.auto_intervals)
            .with_lossless(self.lossless)
            .with_threads(self.threads)
            .with_block_rows(self.block_rows)
            .with_predictor(self.predictor)
    }

    fn validate(&self) -> Result<(), SzError> {
        if !(self.target_ratio.is_finite() && self.target_ratio > 1.0) {
            return Err(SzError::BadBound(format!(
                "target ratio must be finite and > 1, got {}",
                self.target_ratio
            )));
        }
        if !(self.tolerance.is_finite() && self.tolerance > 0.0) {
            return Err(SzError::BadBound(format!(
                "ratio tolerance must be finite and positive, got {}",
                self.tolerance
            )));
        }
        Ok(())
    }
}

/// Everything a fixed-ratio run produced.
#[derive(Debug, Clone)]
pub struct FixedRatioRun {
    /// The compressed container (the pass closest to the target).
    pub bytes: Vec<u8>,
    /// Value-range-relative bound of that pass (NaN for constant fields,
    /// which compress the same way under any bound).
    pub eb_rel: f64,
    /// The requested ratio.
    pub target_ratio: f64,
    /// The measured ratio of the returned container.
    pub achieved_ratio: f64,
    /// Compression passes spent (pilot excluded).
    pub passes: usize,
    /// Model-predicted bits/value for the first pass's bound.
    pub predicted_bpv: f64,
    /// Measured bits/value of the returned container.
    pub achieved_bpv: f64,
    /// First-pass relative model residual,
    /// `|predicted − achieved| / achieved` in bits/value.
    pub model_residual: f64,
    /// Whether the returned container is inside the tolerance band.
    pub within_tolerance: bool,
}

fn milli(x: f64) -> u64 {
    if x.is_finite() && x > 0.0 {
        (x * 1000.0).round() as u64
    } else {
        0
    }
}

/// Largest refinement step in `ln eb`. The model's error grows with
/// distance from the pass it was just anchored on, so one refit is never
/// allowed to fling the bound across the whole curve — a wild global
/// correction (e.g. an LZ gain fitted on the collapse cliff applied to
/// the signal-dominated region) burns a pass at a useless bound.
const MAX_LN_STEP: f64 = 2.5;

/// How far past the regula-falsi point a bracketed refinement pushes
/// toward the bracket's high end (see the convexity note at the use
/// site). 0 = pure regula falsi, 1 = jump to the known-high bound.
const CONVEXITY_PUSH: f64 = 0.15;

/// The shallowest `d ln ratio / d ln eb` slope the one-sided stall
/// guard assumes: measured rate curves across the evaluation corpora
/// stay above ~0.2 outside their plateaus, so a residual of `r` in
/// `ln ratio` needs at most `r / 0.3` of travel in `ln eb`.
const MIN_LN_SLOPE: f64 = 0.3;

/// The innermost measured points on either side of the target:
/// `(ln eb, ln ratio)` with the largest bound still under the target and
/// the smallest bound already over it (ratio is monotone increasing in
/// the bound, so these bracket the answer when both exist).
fn innermost_bracket(
    pts: &[(f64, f64)],
    ln_target: f64,
) -> (Option<(f64, f64)>, Option<(f64, f64)>) {
    let lo = pts
        .iter()
        .filter(|p| p.1 < ln_target)
        .copied()
        .fold(None, |acc: Option<(f64, f64)>, p| match acc {
            Some(a) if a.0 >= p.0 => Some(a),
            _ => Some(p),
        });
    let hi = pts
        .iter()
        .filter(|p| p.1 >= ln_target)
        .copied()
        .fold(None, |acc: Option<(f64, f64)>, p| match acc {
            Some(a) if a.0 <= p.0 => Some(a),
            _ => Some(p),
        });
    (lo, hi)
}

/// Compress to a target ratio.
///
/// # Errors
/// [`SzError::BadBound`] for invalid options; [`SzError`] propagated from
/// the pipeline.
pub fn compress_fixed_ratio<T: Scalar>(
    field: &Field<T>,
    opts: &FixedRatioOptions,
) -> Result<FixedRatioRun, SzError> {
    opts.validate()?;
    let total = fpsnr_obs::span("fratio.compress");
    let sample_bits = (T::BYTES * 8) as f64;
    let raw_bytes = (field.len() * T::BYTES) as f64;
    let ratio_of = |len: usize| raw_bytes / len.max(1) as f64;
    let vr = field.value_range();
    if !vr.is_finite() || vr <= 0.0 {
        // Constant (or non-finite-range) field: the container size does
        // not depend on the bound, so one pass is the complete answer.
        let bytes = compress(field, &opts.sz_config(1e-3))?;
        if fpsnr_obs::is_enabled() {
            fpsnr_obs::add("fratio.compress_passes", 1);
        }
        let achieved = ratio_of(bytes.len());
        let achieved_bpv = sample_bits / achieved;
        return Ok(FixedRatioRun {
            bytes,
            eb_rel: f64::NAN,
            target_ratio: opts.target_ratio,
            achieved_ratio: achieved,
            passes: 1,
            predicted_bpv: f64::NAN,
            achieved_bpv,
            model_residual: f64::NAN,
            within_tolerance: achieved >= opts.target_ratio * (1.0 - opts.tolerance),
        });
    }
    let pilot_span = fpsnr_obs::span("fratio.pilot");
    let model = RateModel::pilot(field, &opts.sz_config(1e-3))?;
    drop(pilot_span);
    if fpsnr_obs::is_enabled() {
        fpsnr_obs::add("fratio.pilot_passes", 1);
    }
    let ln_target = opts.target_ratio.ln();
    let eb_lo_cap = vr * 1e-12;
    let eb_hi_cap = vr * 2.0;
    let mut gain = 1.0f64;
    let mut eb_abs = model.invert_for_ratio(opts.target_ratio, gain);
    let mut pts: Vec<(f64, f64)> = Vec::new();
    // (score, bytes, eb_rel, ratio) of the pass closest to the target.
    let mut best: Option<(f64, Vec<u8>, f64, f64)> = None;
    let mut first_pred = f64::NAN;
    let mut first_resid = f64::NAN;
    let mut passes = 0usize;
    while passes < MAX_PASSES {
        eb_abs = eb_abs.clamp(eb_lo_cap, eb_hi_cap);
        let predicted = model.predict_bits_per_value(eb_abs, gain);
        passes += 1;
        let ebrel = eb_abs / vr;
        let bytes = compress(field, &opts.sz_config(ebrel))?;
        let achieved = ratio_of(bytes.len());
        let achieved_bpv = sample_bits / achieved;
        if fpsnr_obs::is_enabled() {
            fpsnr_obs::add("fratio.compress_passes", 1);
            fpsnr_obs::add_labeled(passes, "fratio.pass", "predicted_bpv_milli", milli(predicted));
            fpsnr_obs::add_labeled(
                passes,
                "fratio.pass",
                "achieved_bpv_milli",
                milli(achieved_bpv),
            );
        }
        if passes == 1 {
            first_pred = predicted;
            first_resid = (predicted - achieved_bpv).abs() / achieved_bpv.max(1e-9);
            if fpsnr_obs::is_enabled() {
                fpsnr_obs::add("fratio.model_residual_milli", milli(first_resid));
            }
        }
        if std::env::var_os("FPSNR_FRATIO_DEBUG").is_some() {
            eprintln!(
                "fratio pass {passes}: eb_rel {:.4e} predicted {predicted:.3} bpv achieved {achieved_bpv:.3} bpv ratio {achieved:.3} (target {}) gain {gain:.3}",
                eb_abs / vr, opts.target_ratio
            );
        }
        let score = (achieved.ln() - ln_target).abs();
        if best.as_ref().map_or(true, |b| score < b.0) {
            best = Some((score, bytes, ebrel, achieved));
        }
        if (achieved / opts.target_ratio - 1.0).abs() <= opts.tolerance {
            break;
        }
        pts.push((eb_abs.ln(), achieved.ln()));
        if passes >= MAX_PASSES {
            break;
        }
        eb_abs = match innermost_bracket(&pts, ln_target) {
            (Some((xl, yl)), Some((xh, yh))) => {
                // Measured points on both sides: interpolate inside the
                // bracket. The curve is convex in (ln eb, ln ratio) —
                // ratio growth accelerates toward the collapse cliff —
                // so the true crossing always sits *above* the log-log
                // chord; push the regula-falsi point part-way toward the
                // high end to compensate (the same one-sided-convergence
                // fix the Illinois variant makes).
                let x_rf = if yh - yl > 1e-9 {
                    xl + (ln_target - yl) * (xh - xl) / (yh - yl)
                } else {
                    0.5 * (xl + xh)
                };
                (x_rf + CONVEXITY_PUSH * (xh - x_rf)).exp()
            }
            _ => {
                // All misses on one side: re-anchor the model on the
                // observation just made (refit the LZ-gain correction so
                // the curve passes through the measured point) and
                // re-invert for the target. Anchored re-inversion beats
                // a plain secant here because consecutive passes often
                // land on the curve's flat noise-feedback shoulder,
                // where a two-point slope is mostly measurement noise
                // while the model still knows the shape of the cliff
                // beyond it.
                let model_payload = model.predict_bits_per_value(eb_abs, 1.0);
                gain = (achieved_bpv / model_payload.max(1e-9)).clamp(0.25, 4.0);
                let refit = model.invert_for_ratio(opts.target_ratio, gain);
                // The refit must move the bound in the direction the
                // miss calls for; a damped geometric step otherwise.
                let need_larger = achieved < opts.target_ratio;
                let candidate =
                    if (need_larger && refit > eb_abs) || (!need_larger && refit < eb_abs) {
                        refit
                    } else if need_larger {
                        eb_abs * 4.0
                    } else {
                        eb_abs / 4.0
                    };
                let x2 = eb_abs.ln();
                // Anchored refit can converge to a fixed point short of
                // the target when the model's local slope is steeper
                // than the real curve's (each re-inversion then proposes
                // a vanishing step). Detect the stall — the last pass
                // closed less than half the gap it faced — and only then
                // force a step proportional to the residual, assuming
                // the curve moves no faster than MIN_LN_SLOPE per ln-eb.
                // A fresh refit (one point, or one that is converging)
                // is left alone: forcing it overshoots.
                let residual = ln_target - achieved.ln();
                let stalled = pts.len() >= 2 && {
                    let y_prev = pts[pts.len() - 2].1;
                    let y_now = pts[pts.len() - 1].1;
                    (y_now - y_prev).abs() < 0.5 * (ln_target - y_prev).abs()
                };
                let min_step = if stalled {
                    (residual / MIN_LN_SLOPE).abs().min(MAX_LN_STEP)
                } else {
                    0.0
                };
                let step = (candidate.ln() - x2).clamp(-MAX_LN_STEP, MAX_LN_STEP);
                let step = if step.abs() < min_step {
                    min_step * residual.signum()
                } else {
                    step
                };
                (x2 + step).exp()
            }
        };
    }
    drop(total);
    let (_, bytes, eb_rel, achieved) = best.expect("at least one pass ran");
    let achieved_bpv = sample_bits / achieved;
    if fpsnr_obs::is_enabled() {
        fpsnr_obs::add("fratio.predicted_bpv_milli", milli(first_pred));
        fpsnr_obs::add("fratio.achieved_bpv_milli", milli(achieved_bpv));
    }
    Ok(FixedRatioRun {
        bytes,
        eb_rel,
        target_ratio: opts.target_ratio,
        achieved_ratio: achieved,
        passes,
        predicted_bpv: first_pred,
        achieved_bpv,
        model_residual: first_resid,
        within_tolerance: (achieved / opts.target_ratio - 1.0).abs() <= opts.tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsnr_metrics::Distortion;
    use ndfield::Shape;
    use szlike::decompress;

    fn textured(rows: usize, cols: usize) -> Field<f32> {
        Field::from_fn_2d(rows, cols, |i, j| {
            let x = i as f32 * 0.11;
            let y = j as f32 * 0.13;
            20.0 * (x.sin() + (y * 0.7).cos()) + 3.0 * ((x * 3.7).sin() * (y * 2.9).cos())
        })
    }

    #[test]
    fn hits_targets_within_tolerance_and_pass_budget() {
        let field = textured(128, 160);
        for target in [4.0, 8.0, 16.0, 32.0] {
            let run =
                compress_fixed_ratio(&field, &FixedRatioOptions::new(target)).unwrap();
            assert!(
                run.within_tolerance,
                "target {target}x: achieved {:.2}x in {} passes",
                run.achieved_ratio, run.passes
            );
            assert!(run.passes <= 3, "target {target}x took {} passes", run.passes);
            let back: Field<f32> = decompress(&run.bytes).unwrap();
            assert_eq!(back.shape(), field.shape());
        }
    }

    #[test]
    fn returned_bound_matches_returned_bytes() {
        let field = textured(96, 96);
        let run = compress_fixed_ratio(&field, &FixedRatioOptions::new(10.0)).unwrap();
        let direct = compress(
            &field,
            &FixedRatioOptions::new(10.0).sz_config(run.eb_rel),
        )
        .unwrap();
        assert_eq!(direct, run.bytes);
    }

    #[test]
    fn blocked_and_monolithic_both_hit_and_threads_leave_bytes_alone() {
        let field = textured(120, 100);
        let blocked = FixedRatioOptions {
            threads: 2,
            block_rows: 30,
            ..FixedRatioOptions::new(12.0)
        };
        let run_b = compress_fixed_ratio(&field, &blocked).unwrap();
        assert!(run_b.within_tolerance, "blocked achieved {:.2}x", run_b.achieved_ratio);
        let more_threads = FixedRatioOptions {
            threads: 4,
            ..blocked
        };
        let run_t = compress_fixed_ratio(&field, &more_threads).unwrap();
        assert_eq!(
            run_b.bytes, run_t.bytes,
            "container bytes depend on the thread count"
        );
    }

    #[test]
    fn tighter_target_means_better_quality() {
        let field = textured(128, 128);
        let psnr_at = |ratio: f64| {
            let run = compress_fixed_ratio(&field, &FixedRatioOptions::new(ratio)).unwrap();
            let back: Field<f32> = decompress(&run.bytes).unwrap();
            Distortion::between(&field, &back).psnr()
        };
        assert!(psnr_at(4.0) > psnr_at(32.0));
    }

    #[test]
    fn constant_field_compresses_in_one_pass() {
        let field = Field::from_vec(Shape::D2(32, 32), vec![7.5f32; 1024]);
        let run = compress_fixed_ratio(&field, &FixedRatioOptions::new(8.0)).unwrap();
        assert_eq!(run.passes, 1);
        assert!(run.achieved_ratio > 8.0);
        assert!(run.within_tolerance);
    }

    #[test]
    fn bad_options_rejected() {
        let field = textured(16, 16);
        for bad in [
            FixedRatioOptions::new(f64::NAN),
            FixedRatioOptions::new(0.5),
            FixedRatioOptions {
                tolerance: 0.0,
                ..FixedRatioOptions::new(8.0)
            },
        ] {
            assert!(compress_fixed_ratio(&field, &bad).is_err(), "{bad:?} accepted");
        }
    }
}
