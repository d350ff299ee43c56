//! Ratio–quality modeling: predict compressed bits/value as a function of
//! the error bound from **one cheap pilot pass**, then invert the curve to
//! pick the bound that hits a target compression ratio.
//!
//! The paper's fixed-PSNR mode inverts a *distortion* target analytically
//! (Eq. 8); the dual contract — "give me N× compression" — has no closed
//! form because the compressed size depends on the whole prediction-error
//! *distribution*, not just the bin width. FRaZ-style tooling answers it
//! with black-box reruns; ratio–quality modeling (Jin et al.,
//! arXiv:2111.09815) shows the size is predictable from quantization-bin
//! statistics. This module implements that idea for our SZ pipeline:
//!
//! 1. **Pilot pass** — one quantized walk (prediction + quantization only;
//!    no entropy coding, no LZ) at a fine *reference* bound
//!    `eb_ref = vr·1e-6` collects the signed code-magnitude histogram. For
//!    blocked configurations the pilot runs the same per-block walks the
//!    blocked compressor does and merges the per-block histograms — the
//!    exact shared-frequency-table structure of the blocked container.
//! 2. **Curve** — for any coarser bound `eb = s·eb_ref`, the histogram
//!    rebins by `m ↦ round(m/s)` (bin widths scale linearly with the
//!    bound, Eq. 6's `δ = 2·eb`). Predicted bits/value is the Shannon
//!    entropy of the rebinned symbol stream (the Huffman+LZ pipeline
//!    estimate) plus escape-payload bits, a precision-ramp term for bounds
//!    near the scalar's ulp, and serialized-container overhead — all
//!    multiplied by an LZ-gain correction the caller fits online after the
//!    first real pass.
//! 3. **Inversion** — bits/value is monotone non-increasing in the bound,
//!    so a bisection on `ln eb` (pure histogram arithmetic, no
//!    compression) returns the bound whose predicted rate meets the
//!    target.
//!
//! The model is intentionally approximate (adaptive interval selection,
//! LZ window effects and table compression are folded into one fitted
//! gain); the fixed-ratio driver in `fpsnr-core` closes the residual with
//! at most two bounded secant refinements on *measured* ratios.

use std::collections::HashMap;

use ndfield::{Field, Scalar};

use crate::blocked::{block_range, resolve_block_rows, use_blocked};
use crate::config::{LosslessBackend, SzConfig};
use crate::error::SzError;
use crate::kernels::walk_fused;

/// Value-range-relative reference bound of the pilot walk. Fine enough
/// that every practically requested bound is a *coarsening* (`s ≥ 1`)
/// while staying well above f32's representable resolution.
const EB_REF_REL: f64 = 1e-6;
/// Quantizer grid of the pilot walk. Radius `2²¹` covers prediction
/// errors up to twice the value range at `eb_ref`, so pilot escapes are
/// (almost) only non-finite samples.
const PILOT_BINS: usize = 1 << 22;
/// Serialized fixed overhead estimate: header, mode/bound fields, varint
/// lengths, CRC trailer.
const HEADER_BYTES: f64 = 48.0;
/// Estimated serialized bytes per distinct Huffman symbol (canonical
/// table entry: symbol varint + code length).
const TABLE_BYTES_PER_SYMBOL: f64 = 3.0;
/// Estimated per-block framing bytes in the v2 blocked layout (directory
/// entry: lossless flag, length varint, CRC).
const BLOCK_FRAME_BYTES: f64 = 14.0;
/// Quantization-noise-feedback entropy floor, in bits per octave of
/// dynamic range per bin (see [`RateModel::predict_bits_per_value`]).
const NOISE_FLOOR_BITS_PER_OCTAVE: f64 = 0.28;
/// Saturation of the noise-feedback floor: reconstruction noise has a
/// standard deviation of roughly half a bin, and a discrete distribution
/// that wide carries ≈ 1.4 bits however coarse the bound gets.
const NOISE_FLOOR_CAP_BITS: f64 = 1.4;

/// The ratio–quality curve built from one pilot pass over one field.
///
/// Immutable once built: every prediction/inversion is pure histogram
/// arithmetic, so probing the curve costs microseconds, not compressions.
#[derive(Debug, Clone)]
pub struct RateModel {
    /// Signed pilot code magnitudes (`code − radius`) with their counts,
    /// sorted by magnitude; escapes excluded.
    mags: Vec<(i64, u64)>,
    /// `log2 |x|` buckets of the data values (zeros and non-finite
    /// excluded) — drives the precision-escape ramp.
    absmag: Vec<(i32, u64)>,
    /// Total samples.
    n: u64,
    /// Pilot samples with a *nonzero* code — the mass that participates in
    /// quantization-noise feedback. Constant runs predict exactly and stay
    /// silent at every bound, so they are exempt from the noise floor.
    pilot_live: u64,
    /// Samples that escaped even at the reference bound (non-finite
    /// values, pathological round-off).
    pilot_escapes: u64,
    /// Absolute reference bound the pilot walked with.
    eb_ref: f64,
    /// Value range of the field.
    value_range: f64,
    /// Bits per raw sample (32 or 64).
    sample_bits: f64,
    /// Relative round-off scale of the scalar type (≈ its ulp at 1.0).
    scalar_eps: f64,
    /// Quantization-bin cap of the target pipeline.
    quant_bins: usize,
    /// Lossless backend of the target pipeline.
    lossless: LosslessBackend,
    /// Blocks the pilot (and the target container) partitions into.
    n_blocks: usize,
}

impl RateModel {
    /// Run the pilot pass: one quantized walk at the reference bound (per
    /// block when `cfg` routes to the blocked container, mirroring its
    /// merged frequency tables), plus a value-magnitude scan.
    ///
    /// `cfg.bound` is ignored — the pilot picks its own reference bound;
    /// every other knob (bins, predictor, escape coding, lossless,
    /// threads/block_rows) describes the pipeline being modeled.
    ///
    /// # Errors
    /// [`SzError::BadBound`] for constant or non-finite-range fields (the
    /// ratio–quality curve is undefined there: the container size no
    /// longer depends on the bound), or an invalid `cfg`.
    pub fn pilot<T: Scalar>(field: &Field<T>, cfg: &SzConfig) -> Result<RateModel, SzError> {
        cfg.validate()?;
        let _span = fpsnr_obs::span("sz.ratemodel.pilot");
        let vr = field.value_range();
        if !vr.is_finite() || vr <= 0.0 {
            return Err(SzError::BadBound(format!(
                "ratio–quality pilot needs a finite nonzero value range, got {vr}"
            )));
        }
        let eb_ref = vr * EB_REF_REL;
        let shape = field.shape();
        let data = field.as_slice();
        let model = crate::select::model(data, shape, cfg.predictor, eb_ref, PILOT_BINS).model;
        let radius = (PILOT_BINS / 2) as i64;
        let mut mag_counts: HashMap<i64, u64> = HashMap::new();
        let mut escapes = 0u64;
        let mut recon = Vec::new();
        let mut tally = |codes: &[u32]| {
            for &code in codes {
                if code == 0 {
                    escapes += 1;
                } else {
                    *mag_counts.entry(code as i64 - radius).or_insert(0) += 1;
                }
            }
        };
        let n_blocks = if use_blocked(cfg) {
            let block_rows = resolve_block_rows(shape, cfg.block_rows);
            let blocks = shape.dims()[0].div_ceil(block_rows);
            for b in 0..blocks {
                let (range, bshape) = block_range(shape, block_rows, b);
                let walk = walk_fused(
                    &data[range],
                    bshape,
                    eb_ref,
                    PILOT_BINS,
                    model,
                    cfg.escape,
                    &mut recon,
                );
                tally(&walk.codes);
            }
            blocks
        } else {
            let walk = walk_fused(data, shape, eb_ref, PILOT_BINS, model, cfg.escape, &mut recon);
            tally(&walk.codes);
            1
        };
        let mut absmag_counts: HashMap<i32, u64> = HashMap::new();
        for v in data {
            let a = v.to_f64().abs();
            if a.is_finite() && a > 0.0 {
                *absmag_counts.entry(a.log2().floor() as i32).or_insert(0) += 1;
            }
        }
        let mut mags: Vec<(i64, u64)> = mag_counts.into_iter().collect();
        mags.sort_unstable();
        let pilot_live: u64 = mags.iter().filter(|&&(m, _)| m != 0).map(|&(_, c)| c).sum();
        let mut absmag: Vec<(i32, u64)> = absmag_counts.into_iter().collect();
        absmag.sort_unstable();
        Ok(RateModel {
            mags,
            absmag,
            n: data.len() as u64,
            pilot_live,
            pilot_escapes: escapes,
            eb_ref,
            value_range: vr,
            sample_bits: (T::BYTES * 8) as f64,
            scalar_eps: if T::BYTES == 4 {
                2.0f64.powi(-23)
            } else {
                2.0f64.powi(-52)
            },
            quant_bins: cfg.quant_bins,
            lossless: cfg.lossless,
            n_blocks,
        })
    }

    /// Value range of the piloted field (the `eb_rel ↔ eb_abs` conversion
    /// factor).
    pub fn value_range(&self) -> f64 {
        self.value_range
    }

    /// Predicted compressed bits per value at absolute bound `eb_abs`.
    ///
    /// `lz_gain` is the online-fitted correction for everything the
    /// entropy estimate cannot see (LZ window effects, table compression,
    /// adaptive interval selection); pass `1.0` before the first real
    /// compression and the driver's fitted value afterwards.
    pub fn predict_bits_per_value(&self, eb_abs: f64, lz_gain: f64) -> f64 {
        let n = self.n as f64;
        if n == 0.0 {
            return 0.0;
        }
        let s = eb_abs / self.eb_ref;
        let radius = (self.quant_bins / 2) as i64;
        // Rebin the sorted pilot magnitudes: m ↦ round(m/s) is monotone in
        // m, so equal targets form runs and one linear merge suffices.
        let mut merged: Vec<u64> = Vec::with_capacity(self.mags.len());
        let mut rebin_escapes = self.pilot_escapes;
        let mut prev: Option<i64> = None;
        for &(m, c) in &self.mags {
            let m2f = (m as f64 / s).round();
            if m2f.abs() >= (radius - 1) as f64 {
                rebin_escapes += c;
                continue;
            }
            let m2 = m2f as i64;
            match prev {
                Some(p) if p == m2 => *merged.last_mut().expect("run open") += c,
                _ => {
                    merged.push(c);
                    prev = Some(m2);
                }
            }
        }
        // Precision ramp: a sample whose own round-off exceeds the bound
        // cannot be reconstructed within it and escapes, whatever the
        // predictor does. This is what makes very fine bounds on f32 data
        // blow up to raw size instead of compressing further.
        let mut precision_escapes = 0u64;
        for &(bucket, c) in &self.absmag {
            if 2.0f64.powi(bucket) * self.scalar_eps > eb_abs {
                precision_escapes += c;
            }
        }
        let esc_frac =
            (((rebin_escapes + precision_escapes) as f64) / n).min(1.0);
        // Mixture entropy: escape symbol with mass e, code j with mass
        // (1−e)·qⱼ ⇒ H = −e·log e − (1−e)·log(1−e) + (1−e)·H(q).
        let hist_total: u64 = merged.iter().sum();
        let mut h = 0.0;
        if esc_frac > 0.0 && esc_frac < 1.0 {
            h -= esc_frac * esc_frac.log2()
                + (1.0 - esc_frac) * (1.0 - esc_frac).log2();
        }
        if hist_total > 0 && esc_frac < 1.0 {
            let total = hist_total as f64;
            let mut hq = 0.0;
            for &c in &merged {
                let p = c as f64 / total;
                hq -= p * p.log2();
            }
            if s < 1.0 {
                // Bounds finer than the pilot's reference split bins the
                // histogram cannot resolve; under the flat-within-bin
                // assumption each halving of the bound adds one bit.
                hq = (hq + (1.0 / s).log2()).min((self.quant_bins as f64).log2());
            }
            // Quantization-noise feedback floor. Rebinning alone predicts
            // H → 0 once the bound dwarfs the pilot prediction errors, but
            // the real pipeline predicts from *reconstructed* neighbours:
            // each carries O(eb) rounding noise, which keeps codes jittering
            // over a few bins. Measured code entropy on live fields tracks
            // min(0.28·t, 1.4) where t = log₂(vr / 2eb) is the octaves of
            // dynamic range per bin — the feedback dies (t → 0) exactly when
            // one bin swallows the whole range and reconstruction snaps
            // flat. Constant-predicting mass is exempt (no rounding, no
            // noise), hence the live-fraction scaling.
            let live_frac = self.pilot_live as f64 / n;
            let range_octaves = (self.value_range / (2.0 * eb_abs)).log2().max(0.0);
            let floor = (NOISE_FLOOR_BITS_PER_OCTAVE * range_octaves)
                .min(NOISE_FLOOR_CAP_BITS)
                * live_frac;
            h += (1.0 - esc_frac) * hq.max(floor);
        }
        let mut payload = h + esc_frac * self.sample_bits;
        if self.lossless == LosslessBackend::None {
            // Without the LZ stage the canonical-Huffman 1-bit/symbol
            // floor is real output, not squashable redundancy.
            payload = payload.max(1.0 + esc_frac * self.sample_bits);
        }
        let distinct = merged.len() as f64 + 1.0;
        let overhead_bytes = HEADER_BYTES
            + TABLE_BYTES_PER_SYMBOL * distinct
            + BLOCK_FRAME_BYTES * self.n_blocks as f64;
        payload * lz_gain + overhead_bytes * 8.0 / n
    }

    /// Predicted total container bytes at absolute bound `eb_abs` — the
    /// [`Self::predict_bits_per_value`] rate times the sample count.
    pub fn predict_bytes(&self, eb_abs: f64, lz_gain: f64) -> f64 {
        self.predict_bits_per_value(eb_abs, lz_gain) * self.n as f64 / 8.0
    }

    /// Sample the whole predicted bytes-vs-PSNR curve on a uniform PSNR
    /// grid (`psnr_lo + i·step` for `i in 0..points`), mapping each grid
    /// PSNR to its Eq. 8 bound (`eb_abs = √3·10^(−PSNR/20)·vr`) and
    /// evaluating the rate model there.
    ///
    /// This is the snapshot-allocation interface: the fixed-ratio driver
    /// needs one inversion ([`Self::invert_for_ratio`]), but a global
    /// bit-allocation solver probes *many* (PSNR, bytes) points per field
    /// while water-filling a shared budget, so it wants the whole curve
    /// materialized once — every later probe is an array lookup, not a
    /// histogram rebin. Bytes are forced monotone non-decreasing in PSNR
    /// (the model is monotone up to floating-point noise; solvers rely on
    /// it exactly).
    ///
    /// # Panics
    /// Panics when `points == 0` or `step` is not finite and positive.
    pub fn curve(&self, psnr_lo: f64, step: f64, points: usize, lz_gain: f64) -> RateCurve {
        let _span = fpsnr_obs::span("sz.ratemodel.curve");
        assert!(points > 0, "curve needs at least one grid point");
        assert!(
            step.is_finite() && step > 0.0,
            "curve step must be finite and positive"
        );
        let mut bytes = Vec::with_capacity(points);
        let mut prev = 0.0f64;
        for i in 0..points {
            let psnr = psnr_lo + step * i as f64;
            let eb_abs = 3f64.sqrt() * 10f64.powf(-psnr / 20.0) * self.value_range;
            let b = self.predict_bytes(eb_abs, lz_gain).max(prev);
            bytes.push(b);
            prev = b;
        }
        RateCurve {
            psnr_lo,
            step,
            bytes,
            value_range: self.value_range,
            n_samples: self.n,
        }
    }

    /// Invert the curve: the absolute bound whose predicted rate meets
    /// `target_ratio`, found by bisection on `ln eb` (the rate is monotone
    /// non-increasing in the bound). Clamped to `[vr·1e-12, 2·vr]` when
    /// the target is outside the reachable range — the driver detects the
    /// resulting miss from the measured ratio.
    pub fn invert_for_ratio(&self, target_ratio: f64, lz_gain: f64) -> f64 {
        let target_bpv = self.sample_bits / target_ratio;
        let eb_min = self.value_range * 1e-12;
        let eb_max = self.value_range * 2.0;
        if self.predict_bits_per_value(eb_min, lz_gain) <= target_bpv {
            return eb_min;
        }
        if self.predict_bits_per_value(eb_max, lz_gain) >= target_bpv {
            return eb_max;
        }
        let (mut lo, mut hi) = (eb_min.ln(), eb_max.ln());
        for _ in 0..44 {
            let mid = 0.5 * (lo + hi);
            if self.predict_bits_per_value(mid.exp(), lz_gain) > target_bpv {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (0.5 * (lo + hi)).exp()
    }
}

/// One field's predicted bytes-vs-PSNR curve, sampled by
/// [`RateModel::curve`] on a uniform PSNR grid.
///
/// The curve is immutable and cheap to probe (array lookups), which is
/// what lets a snapshot-level allocator sum and scan curves for dozens of
/// fields per solver iteration. Grid PSNRs map to bounds via Eq. 8, so
/// compressing a field at grid point `i` means running fixed-PSNR mode at
/// `psnr_at(i)`.
#[derive(Debug, Clone)]
pub struct RateCurve {
    /// PSNR of grid index 0, in dB.
    psnr_lo: f64,
    /// Grid spacing in dB.
    step: f64,
    /// Predicted container bytes per grid point, non-decreasing.
    bytes: Vec<f64>,
    /// Value range of the piloted field.
    value_range: f64,
    /// Samples in the piloted field.
    n_samples: u64,
}

impl RateCurve {
    /// Number of grid points.
    pub fn points(&self) -> usize {
        self.bytes.len()
    }

    /// PSNR of grid index `i` (dB).
    pub fn psnr_at(&self, i: usize) -> f64 {
        self.psnr_lo + self.step * i as f64
    }

    /// Predicted container bytes at grid index `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn bytes_at(&self, i: usize) -> f64 {
        self.bytes[i]
    }

    /// Largest grid index whose predicted bytes fit within `budget`, or
    /// `None` when even index 0 exceeds it. Binary search over the
    /// monotone byte array.
    pub fn max_index_within(&self, budget: f64) -> Option<usize> {
        if self.bytes[0] > budget {
            return None;
        }
        let (mut lo, mut hi) = (0usize, self.bytes.len() - 1);
        while lo < hi {
            let mid = (lo + hi + 1) / 2;
            if self.bytes[mid] <= budget {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Some(lo)
    }

    /// A copy of the curve with every predicted byte count multiplied by
    /// `gain` — the allocation driver's feedback correction: after one
    /// real compression pass, `gain = achieved / predicted` re-anchors the
    /// curve so it passes through the measured point while keeping the
    /// pilot-derived shape.
    pub fn scaled(&self, gain: f64) -> RateCurve {
        RateCurve {
            psnr_lo: self.psnr_lo,
            step: self.step,
            bytes: self.bytes.iter().map(|b| b * gain).collect(),
            value_range: self.value_range,
            n_samples: self.n_samples,
        }
    }

    /// Value range of the piloted field.
    pub fn value_range(&self) -> f64 {
        self.value_range
    }

    /// Samples in the piloted field.
    pub fn n_samples(&self) -> u64 {
        self.n_samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ErrorBound;
    use crate::{compress, SzConfig};
    use ndfield::Shape;

    fn textured(rows: usize, cols: usize) -> Field<f32> {
        Field::from_fn_2d(rows, cols, |i, j| {
            let x = i as f32 * 0.13;
            let y = j as f32 * 0.17;
            10.0 * (x.sin() + y.cos()) + 2.0 * ((x * 5.1).sin() * (y * 4.3).cos())
        })
    }

    fn cfg() -> SzConfig {
        SzConfig::new(ErrorBound::Abs(1.0))
    }

    #[test]
    fn rate_curve_is_monotone_in_the_bound() {
        let f = textured(96, 96);
        let model = RateModel::pilot(&f, &cfg()).unwrap();
        let vr = model.value_range();
        let mut prev = f64::INFINITY;
        for rel in [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1] {
            let bpv = model.predict_bits_per_value(rel * vr, 1.0);
            assert!(
                bpv <= prev + 1e-6,
                "rate increased with a looser bound at eb_rel {rel}: {bpv} > {prev}"
            );
            prev = bpv;
        }
    }

    #[test]
    fn prediction_tracks_measured_size_within_a_factor() {
        // The pilot model must land in the right ballpark (the driver's
        // secant refinements absorb the residual, but only if the first
        // guess is sane).
        let f = textured(128, 128);
        let model = RateModel::pilot(&f, &cfg()).unwrap();
        let vr = model.value_range();
        for rel in [1e-4, 1e-3, 1e-2] {
            let predicted = model.predict_bits_per_value(rel * vr, 1.0);
            let bytes =
                compress(&f, &SzConfig::new(ErrorBound::ValueRangeRel(rel))).unwrap();
            let actual = bytes.len() as f64 * 8.0 / f.len() as f64;
            let err = predicted / actual;
            assert!(
                (0.4..=2.5).contains(&err),
                "eb_rel {rel}: predicted {predicted:.3} bpv vs actual {actual:.3} bpv"
            );
        }
    }

    #[test]
    fn inversion_crosses_the_target_rate() {
        let f = textured(96, 128);
        let model = RateModel::pilot(&f, &cfg()).unwrap();
        for ratio in [4.0, 8.0, 16.0] {
            let eb = model.invert_for_ratio(ratio, 1.0);
            let bpv = model.predict_bits_per_value(eb, 1.0);
            let target_bpv = 32.0 / ratio;
            assert!(
                (bpv - target_bpv).abs() / target_bpv < 0.1,
                "ratio {ratio}: inverted bound predicts {bpv:.3} bpv, want {target_bpv:.3}"
            );
        }
    }

    #[test]
    fn blocked_pilot_merges_per_block_histograms() {
        let f = textured(64, 96);
        let mono = RateModel::pilot(&f, &cfg()).unwrap();
        let blocked = RateModel::pilot(
            &f,
            &cfg().with_threads(2).with_block_rows(16),
        )
        .unwrap();
        assert_eq!(blocked.n_blocks, 4);
        assert_eq!(mono.n, blocked.n);
        // Same data, same reference bound: the merged histogram mass must
        // match the monolithic one (block boundaries only perturb a few
        // first-row predictions).
        let mono_mass: u64 = mono.mags.iter().map(|&(_, c)| c).sum();
        let blk_mass: u64 = blocked.mags.iter().map(|&(_, c)| c).sum();
        assert_eq!(mono_mass + mono.pilot_escapes, blk_mass + blocked.pilot_escapes);
    }

    #[test]
    fn curve_is_monotone_and_matches_pointwise_prediction() {
        let f = textured(96, 96);
        let model = RateModel::pilot(&f, &cfg()).unwrap();
        let curve = model.curve(20.0, 0.25, 481, 1.0);
        assert_eq!(curve.points(), 481);
        assert!((curve.psnr_at(0) - 20.0).abs() < 1e-12);
        assert!((curve.psnr_at(480) - 140.0).abs() < 1e-9);
        let mut prev = 0.0;
        for i in 0..curve.points() {
            assert!(curve.bytes_at(i) >= prev, "bytes dipped at index {i}");
            prev = curve.bytes_at(i);
        }
        // Away from the monotonicity clamp, the grid must agree with a
        // direct model evaluation at the same Eq. 8 bound.
        let psnr = curve.psnr_at(200);
        let eb = 3f64.sqrt() * 10f64.powf(-psnr / 20.0) * model.value_range();
        let direct = model.predict_bytes(eb, 1.0);
        assert!(
            (curve.bytes_at(200) - direct).abs() <= direct * 1e-9 + 1e-6,
            "grid {} vs direct {direct}",
            curve.bytes_at(200)
        );
    }

    #[test]
    fn curve_inverse_lookup_brackets_the_budget() {
        let f = textured(64, 96);
        let model = RateModel::pilot(&f, &cfg()).unwrap();
        let curve = model.curve(20.0, 0.5, 241, 1.0);
        // A budget below the cheapest point is infeasible.
        assert!(curve.max_index_within(curve.bytes_at(0) - 1.0).is_none());
        // Any point's own byte count maps back to at least that index.
        for i in [0, 17, 120, 240] {
            let j = curve.max_index_within(curve.bytes_at(i)).unwrap();
            assert!(j >= i, "index {i} inverted to {j}");
            if j + 1 < curve.points() {
                assert!(curve.bytes_at(j + 1) > curve.bytes_at(i));
            }
        }
    }

    #[test]
    fn scaled_curve_multiplies_bytes() {
        let f = textured(48, 48);
        let model = RateModel::pilot(&f, &cfg()).unwrap();
        let curve = model.curve(30.0, 1.0, 50, 1.0);
        let scaled = curve.scaled(1.5);
        for i in 0..curve.points() {
            assert!((scaled.bytes_at(i) - curve.bytes_at(i) * 1.5).abs() < 1e-6);
        }
        assert_eq!(scaled.points(), curve.points());
        assert_eq!(scaled.n_samples(), curve.n_samples());
    }

    #[test]
    fn constant_field_rejected() {
        let f = Field::from_vec(Shape::D2(8, 8), vec![2.5f32; 64]);
        assert!(RateModel::pilot(&f, &cfg()).is_err());
    }

    #[test]
    fn precision_ramp_caps_fine_bounds() {
        // At bounds below f32 round-off the model must predict ~raw size,
        // not an ever-growing entropy: the inversion then never chases
        // unreachable ratios into the ulp regime.
        let f = textured(64, 64);
        let model = RateModel::pilot(&f, &cfg()).unwrap();
        let vr = model.value_range();
        let bpv = model.predict_bits_per_value(vr * 1e-12, 1.0);
        assert!(bpv > 30.0, "ulp-regime prediction only {bpv:.2} bpv");
    }
}
