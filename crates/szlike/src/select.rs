//! The two selection stages that run before the quantized walk.
//!
//! - [`intervals`] is SZ 1.4's `optimize_intervals` (Tao et al. 2017): the
//!   quantizer's bin count, from prediction errors sampled on a stride.
//! - [`model`] resolves the requested [`PredictorKind`] into the
//!   [`PredictorModel`] the walk replays; for `Auto` it runs the SZ3-style
//!   bake-off, one real walk per candidate over the leading slab.
//!
//! Both are exact: the compressors call them and nothing else to choose,
//! so replaying them reproduces the container's choices. The bake-off
//! winner's slab walk is the leading part of the production walk, which
//! the compressors continue instead of redoing it.

use crate::config::EscapeCoding;
use crate::kernels::{walk_fused_resume, WalkState, ROUND_MAGIC};
use crate::predictor::{fit_regression, PredictorKind, PredictorModel, REGRESSION_COEFF_BYTES};
use ndfield::{Field, Scalar, Shape};

/// Share of sampled prediction errors the chosen bin grid must cover (SZ's
/// `predThreshold`; 0.97, the value SZ's shipped `sz.config` uses).
pub(crate) const PRED_THRESHOLD: f64 = 0.97;

/// Prediction errors [`intervals`] samples per field (about; the stride
/// is `n / INTERVAL_SAMPLES` rounded down, at least 1).
pub(crate) const INTERVAL_SAMPLES: usize = 65_536;

/// Largest sample count the `Auto` bake-off walks per candidate. Above
/// this, scoring runs on the leading whole-row slab that fits the cap —
/// prediction only ever looks backward, so the slab's codes are exactly
/// the codes the real walk would emit for those samples.
pub(crate) const SCORE_CAP: usize = 65_536;

/// Handicap (bits/value) a challenger must clear before it unseats
/// Lorenzo¹ in the `Auto` bake-off. The cost model scores the entropy of
/// the code stream in isolation, but the container's LZ tail typically
/// recovers several tenths of a bit/value more from Lorenzo's spatially
/// correlated codes than from coefficient-predictor codes — without the
/// handicap, sub-half-bit "wins" on the entropy score turned into
/// 5–16% *larger* containers on smooth GRF textures. Calibrated against
/// the shared evaluation corpora (see `tests/fixed_psnr_accuracy.rs`).
pub(crate) const LZ_SLACK_BITS: f64 = 0.5;

/// SZ 1.4's `optimize_intervals`: the smallest power-of-two bin count from
/// 32 up whose grid covers at least 97% (`PRED_THRESHOLD`) of the sampled
/// prediction errors, or `cap` when none below it does. Points the chosen
/// grid cannot represent become bit-exact escapes during the real pass.
///
/// Every `stride`-th sample (`stride = max(1, n / 65 536)`) is
/// predicted with first-order Lorenzo from its *original* neighbours —
/// cheap, and accurate enough for selection — and its error quantized to
/// `qmag = round(|err| / 2eb)` (non-finite errors count as uncovered).
/// A grid of `bins = 2^(k+1)` covers `qmag ≤ 2^k − 1`, that is a bit
/// length of at most `k`, so one pass counts the magnitudes by bit length
/// and the coverage of every candidate grid is a prefix sum. With `eb` =
/// 0 no sample counts as covered (0/0 is NaN), so the result is `cap`.
pub fn intervals<T: Scalar>(field: &Field<T>, eb: f64, cap: usize) -> usize {
    let _span = fpsnr_obs::span("sz.select.intervals");
    let n = field.len();
    let data = field.as_slice();
    let stride = (n / INTERVAL_SAMPLES).max(1);
    let at = |lin: usize| data[lin].to_f64();
    let scale = 2.0 * eb;
    // by_bits[b]: sampled magnitudes of bit length b (64 for non-finite).
    let mut by_bits = [0u64; 65];
    let mut tally = |x: f64, pred: f64| {
        let err = x - pred;
        let q = err.abs() / scale;
        let qmag = if err.is_finite() && !q.is_nan() {
            // `round` for non-NaN input, bit for bit; the cast saturates
            // like the old `min(u64::MAX)` clamp.
            (q + ROUND_MAGIC) as u64
        } else {
            u64::MAX
        };
        by_bits[(u64::BITS - qmag.leading_zeros()) as usize] += 1;
    };
    match field.shape() {
        _ if n == 0 => {}
        Shape::D1(_) => {
            for lin in (0..n).step_by(stride) {
                tally(at(lin), if lin == 0 { 0.0 } else { at(lin - 1) });
            }
        }
        Shape::D2(_, cols) => {
            let (si, sj) = (stride / cols, stride % cols);
            let (mut i, mut j) = (0, 0);
            for lin in (0..n).step_by(stride) {
                let pred = match (i > 0, j > 0) {
                    (false, false) => 0.0,
                    (false, true) => at(lin - 1),
                    (true, false) => at(lin - cols),
                    (true, true) => at(lin - 1) + at(lin - cols) - at(lin - cols - 1),
                };
                tally(at(lin), pred);
                j += sj;
                i += si;
                if j >= cols {
                    j -= cols;
                    i += 1;
                }
            }
        }
        Shape::D3(_, d1, d2) => {
            let p = d1 * d2;
            let (si, sj, sk) = (stride / p, stride % p / d2, stride % d2);
            let (mut i, mut j, mut k) = (0, 0, 0);
            for lin in (0..n).step_by(stride) {
                let g = |c: bool, off: usize| if c { at(lin - off) } else { 0.0 };
                let pred = g(k > 0, 1) + g(j > 0, d2) + g(i > 0, p)
                    - g(j > 0 && k > 0, d2 + 1)
                    - g(i > 0 && k > 0, p + 1)
                    - g(i > 0 && j > 0, p + d2)
                    + g(i > 0 && j > 0 && k > 0, p + d2 + 1);
                tally(at(lin), pred);
                k += sk;
                j += sj;
                i += si;
                if k >= d2 {
                    k -= d2;
                    j += 1;
                }
                if j >= d1 {
                    j -= d1;
                    i += 1;
                }
            }
        }
    }
    let sampled: u64 = by_bits.iter().sum();
    let need = ((sampled as f64) * PRED_THRESHOLD).ceil() as u64;
    let mut bins = 32usize;
    let mut covered: u64 = by_bits[..4].iter().sum();
    while bins < cap {
        // bins = 2^(k+1) covers bit lengths 0..=k.
        covered += by_bits[bins.trailing_zeros() as usize - 1];
        if covered >= need {
            return bins;
        }
        bins *= 2;
    }
    cap
}

/// The leading whole-row slab of `shape` holding at most `cap` samples
/// (never less than one row/plane), with its sample count.
fn score_slab(shape: Shape, cap: usize) -> (Shape, usize) {
    match shape {
        Shape::D1(n) => {
            let n = n.min(cap).max(1);
            (Shape::D1(n), n)
        }
        Shape::D2(r, c) => {
            let r = (cap / c.max(1)).clamp(1, r);
            (Shape::D2(r, c), r * c)
        }
        Shape::D3(a, b, c) => {
            let per = (b * c).max(1);
            let a = (cap / per).clamp(1, a);
            (Shape::D3(a, b, c), a * per)
        }
    }
}

/// A resolved predictor, plus the bake-off winner's walk when one ran.
pub struct Selection<T: Scalar> {
    /// The model the production walk replays.
    pub model: PredictorModel,
    /// `Auto` only: the winner's [`EscapeCoding::Exact`] fused walk over
    /// the leading slab of at most 65 536 samples (the whole input
    /// when it fits). It is exactly the start of the production walk when
    /// that walk also codes escapes exactly, so the compressors continue
    /// it instead of walking those samples again.
    pub walk: Option<WalkState<T>>,
}

/// Resolve a requested `PredictorKind` into the concrete [`PredictorModel`]
/// the walk will replay. Forced kinds map directly (Regression fits its
/// hyperplane here); `Auto` runs a cost-driven bake-off.
///
/// `Auto` runs the *real* fused prediction–quantization walk
/// (reconstruction feedback included, escapes coded exactly) once per
/// candidate over the leading whole-row slab of at most 65 536
/// samples, prices each candidate's code magnitudes with the
/// entropy-of-quantized-magnitudes model below, and picks the cheapest.
/// Walking for real instead of sampling residuals against the original
/// data matters at coarse bounds: there the quantization noise a
/// neighbour stencil feeds back is the *same* noise it just removed
/// (piecewise-constant reconstructions predict themselves exactly), which
/// an additive analytic penalty systematically overcharges — coarse-bound
/// Lorenzo looked ~½ bit/value worse than it is and lost bake-offs it
/// should have won.
///
/// Challengers pay `LZ_SLACK_BITS` (0.5); Regression additionally pays its
/// coefficient payload up front: `8·REGRESSION_COEFF_BYTES / n` extra
/// bits/value.
///
/// Ties break deterministically toward the earlier candidate in the fixed
/// order Lorenzo¹, Lorenzo², Regression, Spline, so containers are
/// byte-reproducible across runs and thread counts. Only the best walk so
/// far is kept: each candidate walks into a spare buffer set, and the two
/// swap when it wins.
pub fn model<T: Scalar>(
    data: &[T],
    shape: Shape,
    kind: PredictorKind,
    eb: f64,
    bins: usize,
) -> Selection<T> {
    let _span = fpsnr_obs::span("sz.select.model");
    let forced = |model| Selection { model, walk: None };
    match kind {
        PredictorKind::Lorenzo1 => return forced(PredictorModel::Lorenzo1),
        PredictorKind::Lorenzo2 => return forced(PredictorModel::Lorenzo2),
        PredictorKind::Spline => return forced(PredictorModel::Spline),
        PredictorKind::Regression => {
            return forced(PredictorModel::Regression(fit_regression(data, shape)))
        }
        PredictorKind::Auto => {}
    }
    let n = data.len();
    if n == 0 || eb <= 0.0 {
        return forced(PredictorModel::Lorenzo1);
    }
    let (slab_shape, slab_len) = score_slab(shape, SCORE_CAP);
    let slab = &data[..slab_len.min(n)];
    let regression = PredictorModel::Regression(fit_regression(data, shape));
    let candidates: [(PredictorModel, f64); 4] = [
        (PredictorModel::Lorenzo1, 0.0),
        (PredictorModel::Lorenzo2, LZ_SLACK_BITS),
        (
            regression,
            LZ_SLACK_BITS + (REGRESSION_COEFF_BYTES * 8) as f64 / n as f64,
        ),
        (PredictorModel::Spline, LZ_SLACK_BITS),
    ];
    let sample_bits = (T::BYTES * 8) as f64;
    let mut best = forced(PredictorModel::Lorenzo1);
    let mut best_cost = f64::INFINITY;
    let mut spare = WalkState::default();
    for (model, extra_bits) in candidates {
        spare.codes.clear();
        spare.unpred.clear();
        spare = walk_fused_resume(
            slab,
            slab_shape,
            eb,
            bins,
            model,
            EscapeCoding::Exact,
            spare,
        );
        let cost = candidate_bits_per_value(&spare.codes, bins, sample_bits, extra_bits);
        if cost < best_cost {
            best_cost = cost;
            best.model = model;
            spare = best.walk.replace(spare).unwrap_or_default();
        }
    }
    best
}

/// Estimate coded bits/value for one bake-off candidate from its walk's
/// quantization `codes` over a grid of `bins` bins (`0` = escape).
///
/// Magnitudes are priced like an exponent/mantissa code (the JPEG-DC /
/// Elias-γ shape a canonical Huffman code converges to on long-tailed
/// alphabets): Shannon entropy over the exponent classes — zero,
/// `[2^(k−1), 2^k)` for each `k`, escapes as one more class — plus `k−1`
/// mantissa bits and one sign bit per nonzero in-range magnitude, plus
/// `sample_bits` per escape, plus `extra_bits` of per-value side-channel
/// overhead (regression spends `8·REGRESSION_COEFF_BYTES / n` here).
/// Pricing the within-class spread explicitly matters for wide residual
/// distributions: flat buckets made a predictor whose magnitudes span
/// thousands of bins look several bits/value cheaper than its real
/// Huffman stream.
fn candidate_bits_per_value(codes: &[u32], bins: usize, sample_bits: f64, extra_bits: f64) -> f64 {
    if codes.is_empty() {
        return extra_bits;
    }
    let radius = (bins as u64 / 2).saturating_sub(1).max(1);
    let code_radius = (bins / 2) as i64;
    // Class 0 holds zeros; class k (1..=64) holds magnitudes with k bits.
    let mut hist = [0u64; 65];
    let mut escapes = 0u64;
    let mut nonzero_live = 0u64;
    let mut mantissa_bits = 0u64;
    for &code in codes {
        let q = if code == 0 {
            u64::MAX
        } else {
            (code as i64 - code_radius).unsigned_abs()
        };
        if q > radius {
            escapes += 1;
        } else if q == 0 {
            hist[0] += 1;
        } else {
            let k = 64 - q.leading_zeros() as usize;
            hist[k] += 1;
            mantissa_bits += (k - 1) as u64;
            nonzero_live += 1;
        }
    }
    let n = codes.len() as f64;
    let mut h = 0.0;
    for &c in hist.iter().chain(std::iter::once(&escapes)) {
        if c > 0 {
            let p = c as f64 / n;
            h -= p * p.log2();
        }
    }
    let esc_frac = escapes as f64 / n;
    h + (mantissa_bits + nonzero_live) as f64 / n + esc_frac * sample_bits + extra_bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::walk_fused;
    use losslesskit::simd::{self, SimdLevel};

    /// The sort-based `optimize_intervals` that [`intervals`] replaced:
    /// collect every sampled magnitude, sort, and binary-search each grid.
    fn intervals_oracle<T: Scalar>(field: &Field<T>, eb: f64, cap: usize) -> usize {
        let n = field.len();
        let data = field.as_slice();
        let shape = field.shape();
        let stride = (n / INTERVAL_SAMPLES).max(1);
        let at = |lin: usize| data[lin].to_f64();
        let mut qmags: Vec<u64> = Vec::new();
        let mut lin = 0usize;
        while lin < n {
            let pred = match shape {
                Shape::D1(_) => {
                    if lin == 0 {
                        0.0
                    } else {
                        at(lin - 1)
                    }
                }
                Shape::D2(_, cols) => {
                    let (i, j) = (lin / cols, lin % cols);
                    match (i > 0, j > 0) {
                        (false, false) => 0.0,
                        (false, true) => at(lin - 1),
                        (true, false) => at(lin - cols),
                        (true, true) => at(lin - 1) + at(lin - cols) - at(lin - cols - 1),
                    }
                }
                Shape::D3(_, d1, d2) => {
                    let k = lin % d2;
                    let j = (lin / d2) % d1;
                    let i = lin / (d1 * d2);
                    let g = |c: bool, off: usize| if c { at(lin - off) } else { 0.0 };
                    g(k > 0, 1) + g(j > 0, d2) + g(i > 0, d1 * d2)
                        - g(j > 0 && k > 0, d2 + 1)
                        - g(i > 0 && k > 0, d1 * d2 + 1)
                        - g(i > 0 && j > 0, d1 * d2 + d2)
                        + g(i > 0 && j > 0 && k > 0, d1 * d2 + d2 + 1)
                }
            };
            let err = at(lin) - pred;
            qmags.push(if err.is_finite() {
                (err.abs() / (2.0 * eb)).round().min(u64::MAX as f64) as u64
            } else {
                u64::MAX
            });
            lin += stride;
        }
        qmags.sort_unstable();
        let need = ((qmags.len() as f64) * PRED_THRESHOLD).ceil() as usize;
        let mut bins = 32usize;
        while bins < cap {
            let radius = (bins / 2 - 1) as u64;
            if qmags.partition_point(|&q| q <= radius) >= need {
                return bins;
            }
            bins *= 2;
        }
        cap
    }

    /// Xorshift noise at a seed-dependent scale over a ramp, with NaN and
    /// ±∞ sprinkled in (about one sample in 98 non-finite).
    fn noisy(shape: Shape, seed: u64) -> Field<f64> {
        let mut s = seed | 1;
        let scale = [1e-3, 0.05, 0.3, 2.0, 40.0, 1e3, 1e6][(seed % 7) as usize];
        Field::from_fn_linear(shape, |lin| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match s % 293 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => lin as f64 * 0.01 + ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * scale,
            }
        })
    }

    #[test]
    fn counting_intervals_match_the_sorting_oracle() {
        let mut cases = vec![
            Shape::D1(0),
            Shape::D2(0, 5),
            Shape::D3(3, 0, 2),
            Shape::D1(1),
        ];
        for stride in 1..=4 {
            let n = stride * INTERVAL_SAMPLES + 777 * stride;
            cases.extend([
                Shape::D1(n),
                Shape::D2(1, n),
                Shape::D2(n, 1),
                Shape::D3(n, 1, 1),
                Shape::D2(n / 331, 331),
                Shape::D3(n / 1147, 37, 31),
            ]);
        }
        cases.extend([Shape::D2(97, 113), Shape::D3(11, 3, 1000)]);
        for (c, shape) in cases.into_iter().enumerate() {
            let field = noisy(shape, c as u64 + 11);
            for eb in [0.25, 1e-3, 1e-310, f64::from_bits(1), 0.0] {
                for cap in [16, 100, 1024, 65_536] {
                    assert_eq!(
                        intervals(&field, eb, cap),
                        intervals_oracle(&field, eb, cap),
                        "{shape:?} eb {eb:e} cap {cap}"
                    );
                }
            }
        }
        // Runs of equal values give exact-zero errors, which eb = 0 turns
        // into 0/0: uncovered, like every other error at that bound.
        for shape in [Shape::D1(5000), Shape::D2(50, 80), Shape::D3(10, 12, 14)] {
            let field = Field::from_fn_linear(shape, |lin| (lin / 7) as f64);
            for eb in [0.0, 0.25] {
                for cap in [16, 1024] {
                    assert_eq!(
                        intervals(&field, eb, cap),
                        intervals_oracle(&field, eb, cap),
                        "{shape:?} eb {eb:e} cap {cap}"
                    );
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The leading `rows` outer slices of `shape`.
    fn leading(shape: Shape, rows: usize) -> Shape {
        match shape {
            Shape::D1(_) => Shape::D1(rows),
            Shape::D2(_, c) => Shape::D2(rows, c),
            Shape::D3(_, b, c) => Shape::D3(rows, b, c),
        }
    }

    #[test]
    fn slab_walk_then_resume_equals_one_full_walk() {
        let models = [
            PredictorModel::Lorenzo1,
            PredictorModel::Lorenzo2,
            PredictorModel::Regression([0.25, 0.01, -0.02, 0.005]),
            PredictorModel::Spline,
        ];
        for shape in [
            Shape::D1(301),
            Shape::D2(23, 29),
            Shape::D3(9, 7, 11),
            Shape::D2(17, 4),
        ] {
            let mut data = noisy(shape, 3).into_vec();
            let (rows, per_row) = (shape.dims()[0], shape.len() / shape.dims()[0]);
            // Non-finite samples in eight consecutive innermost rows past
            // the middle, so whatever the quad grouping, every lagging lane
            // routes escapes through the resumed walk.
            let row_len = *shape.dims().last().unwrap();
            let mid = shape.len() / row_len / 2;
            for t in 0..8 {
                let lin = ((mid + t) * row_len + 1 + t % 3).min(shape.len() - 1 - t);
                data[lin] = if t % 2 == 0 { f64::NAN } else { f64::INFINITY };
            }
            for model in models {
                for eb in [1e-3, 1e-7] {
                    for level in [SimdLevel::Off, SimdLevel::Avx2] {
                        simd::force(Some(level));
                        let mut recon = Vec::new();
                        let full = walk_fused(
                            &data,
                            shape,
                            eb,
                            512,
                            model,
                            EscapeCoding::Exact,
                            &mut recon,
                        );
                        for slab_rows in [0, 1, 2, 5, rows - 1, rows] {
                            let slab_len = slab_rows * per_row;
                            let mut prefix = WalkState::default();
                            let part = walk_fused(
                                &data[..slab_len],
                                leading(shape, slab_rows),
                                eb,
                                512,
                                model,
                                EscapeCoding::Exact,
                                &mut prefix.recon,
                            );
                            prefix.codes = part.codes;
                            prefix.unpred = part.unpred;
                            let st = walk_fused_resume(
                                &data,
                                shape,
                                eb,
                                512,
                                model,
                                EscapeCoding::Exact,
                                prefix,
                            );
                            let label = format!("{shape:?} {model:?} {eb} {level:?} {slab_rows}");
                            assert_eq!(st.codes, full.codes, "{label} codes");
                            assert_eq!(bits(&st.unpred), bits(&full.unpred), "{label} escapes");
                            assert_eq!(bits(&st.recon), bits(&recon), "{label} recon");
                        }
                        simd::force(None);
                    }
                }
            }
        }
    }

    #[test]
    fn bakeoff_walk_is_the_production_prefix() {
        // A 2-D field of 300 rows × 250 columns: the slab is the leading
        // 262 rows, so the production walk resumes mid-field; the 1-D and
        // 3-D fields fit one slab, so the winner's walk is the whole walk.
        for shape in [Shape::D2(300, 250), Shape::D1(5_000), Shape::D3(6, 20, 30)] {
            for seed in 0..4 {
                let data = noisy(shape, seed).into_vec();
                for eb in [1e-2, 1.0] {
                    let sel = model(&data, shape, PredictorKind::Auto, eb, 1024);
                    let slab = sel.walk.expect("Auto walks a slab");
                    let (_, slab_len) = score_slab(shape, SCORE_CAP);
                    assert_eq!(slab.codes.len(), slab_len.min(shape.len()));
                    let st = walk_fused_resume(
                        &data,
                        shape,
                        eb,
                        1024,
                        sel.model,
                        EscapeCoding::Exact,
                        slab,
                    );
                    let mut recon = Vec::new();
                    let full = walk_fused(
                        &data,
                        shape,
                        eb,
                        1024,
                        sel.model,
                        EscapeCoding::Exact,
                        &mut recon,
                    );
                    assert_eq!(st.codes, full.codes, "{shape:?} {seed} {eb}");
                    assert_eq!(bits(&st.unpred), bits(&full.unpred));
                    assert_eq!(bits(&st.recon), bits(&recon));
                }
            }
        }
        // Forced kinds never walk.
        let data = noisy(Shape::D1(100), 1).into_vec();
        for kind in [
            PredictorKind::Lorenzo1,
            PredictorKind::Regression,
            PredictorKind::Spline,
        ] {
            assert!(model(&data, Shape::D1(100), kind, 1e-3, 64).walk.is_none());
        }
    }
}
