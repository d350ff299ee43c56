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
use losslesskit::freq;
use losslesskit::simd::{self, SimdLevel};
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
///
/// The pass runs innermost row by innermost row, so the stencil's
/// boundary cases are settled once per row: the rows of the first
/// line and plane and each row's first column are peeled off, and the
/// rest of a row is one plain loop that writes each sample's bit length
/// as a byte into a block on the stack, which [`freq::count_bytes`]
/// counts. No prediction reads the reconstruction, so samples are
/// independent and that loop runs several lanes at once; it is compiled
/// once plainly and once for AVX2 (chosen by [`simd::active`]), with
/// every sample's float operations unchanged, so the result is the same
/// at every level.
pub fn intervals<T: Scalar>(field: &Field<T>, eb: f64, cap: usize) -> usize {
    let _span = fpsnr_obs::span("sz.select.intervals");
    // by_bits[b]: sampled magnitudes of bit length b (64 for non-finite).
    let mut by_bits = [0u64; 65];
    sampled_classes(field, eb, |classes| {
        for (b, c) in by_bits.iter_mut().zip(freq::count_bytes(classes)) {
            *b += c;
        }
    });
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

/// Hands the bit length of each sampled magnitude, in scan order, to
/// `sink` in blocks of at most [`CLASS_BLOCK`] bytes.
fn sampled_classes<T: Scalar>(field: &Field<T>, eb: f64, sink: impl FnMut(&[u8])) {
    let stride = (field.len() / INTERVAL_SAMPLES).max(1);
    let (data, shape, scale) = (field.as_slice(), field.shape(), 2.0 * eb);
    match simd::active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd::active()` reports AVX2 only when `simd::detect()`
        // found it on this CPU.
        SimdLevel::Avx2 => unsafe { sample_classes_avx2(data, shape, stride, scale, sink) },
        _ => sample_classes(data, shape, stride, scale, sink),
    }
}

/// The bit length of `x as u64` for `x ≥ 0`, read from the exponent.
///
/// The cast truncates and saturates, so it has bit length `e + 1` when
/// `x ∈ [2^e, 2^(e+1))`, 0 below 1 and 64 from 2⁶⁴ on: the biased
/// exponent minus 1022, clamped to 0..=64. ∞ and NaN (of either sign)
/// carry the top exponent and give 64; so does any negative `x`.
#[inline(always)]
fn bit_length(x: f64) -> u8 {
    ((x.to_bits() >> 52) as i32 - 1022).clamp(0, 64) as u8
}

/// The bit length of `round(|err| / scale)`, 64 when it is not finite.
///
/// `round` is the walk's saturating `(q + ROUND_MAGIC) as u64`, so non-
/// finite errors land on 64 like the uncovered magnitudes they are. A
/// negative `y` (only from a negative `eb`) casts to 0, so a finite error
/// gets bit length 0 there.
#[inline(always)]
fn bit_length_class(err: f64, scale: f64) -> u8 {
    let y = err.abs() / scale + ROUND_MAGIC;
    if y < 0.0 && err.is_finite() {
        0
    } else {
        bit_length(y)
    }
}

/// [`sample_classes`] compiled with AVX2 enabled.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sample_classes_avx2<T: Scalar>(
    data: &[T],
    shape: Shape,
    stride: usize,
    scale: f64,
    sink: impl FnMut(&[u8]),
) {
    sample_classes(data, shape, stride, scale, sink);
}

/// Hands [`bit_length_class`] of the first-order Lorenzo error of every
/// sample at a multiple of `stride`, in scan order, to `sink` (one byte
/// each, `n.div_ceil(stride)` in all), through one block on the stack:
/// the bytes stay in cache and the pass allocates nothing.
///
/// Every shape runs as `planes × rows × cols`. A row's neighbours are the
/// row before it in its plane (`n`), the same row one plane down (`u`)
/// and the row before that (`un`). The terms of neighbours off the grid
/// drop out of the seven-term stencil, whose reference form adds them as
/// `0.0`: adding a zero changes at most the sign of a zero result, and no
/// later operation (nor the final `abs`) turns a signed zero into a
/// different magnitude, so both forms give the same error magnitude.
#[inline(always)]
fn sample_classes<T: Scalar>(
    data: &[T],
    shape: Shape,
    stride: usize,
    scale: f64,
    mut sink: impl FnMut(&[u8]),
) {
    let (planes, rows, cols) = match shape {
        Shape::D1(n) => (1, 1, n),
        Shape::D2(r, c) => (1, r, c),
        Shape::D3(a, b, c) => (a, b, c),
    };
    let plane = rows * cols;
    let mut block = [0u8; CLASS_BLOCK];
    let mut fill = 0;
    for i in 0..planes {
        for j in 0..rows {
            let lin0 = i * plane + j * cols;
            // The first sampled column of this row, and how many it samples.
            let mut first = (stride - lin0 % stride) % stride;
            if first >= cols {
                continue;
            }
            let mut left = (cols - 1 - first) / stride + 1;
            let at = |lin: usize| &data[lin..lin + cols];
            let x = at(lin0);
            let stencil = match (i > 0, j > 0) {
                (false, false) => Stencil::Line,
                (false, true) => Stencil::Plane(at(lin0 - cols)),
                (true, false) => Stencil::Plane(at(lin0 - plane)),
                (true, true) => {
                    Stencil::Volume(at(lin0 - cols), at(lin0 - plane), at(lin0 - plane - cols))
                }
            };
            while left > 0 {
                if fill == CLASS_BLOCK {
                    sink(&block);
                    fill = 0;
                }
                let take = left.min(CLASS_BLOCK - fill);
                let out = &mut block[fill..fill + take];
                // A literal stride of 1 lets the compiler see contiguous
                // lanes.
                if stride == 1 {
                    row_classes(x, stencil, first, 1, scale, out);
                } else {
                    row_classes(x, stencil, first, stride, scale, out);
                }
                fill += take;
                first += take * stride;
                left -= take;
            }
        }
    }
    sink(&block[..fill]);
}

/// The neighbour rows of one innermost row (see [`sample_classes`]).
#[derive(Clone, Copy)]
enum Stencil<'a, T> {
    /// No earlier row: predict from the left neighbour.
    Line,
    /// One earlier row `r`: `x[k−1] + r[k] − r[k−1]`.
    Plane(&'a [T]),
    /// Rows `n`, `u`, `un`: the seven-term 3-D stencil.
    Volume(&'a [T], &'a [T], &'a [T]),
}

/// Classes of the `out.len()` samples `first, first + stride, …` of row
/// `x` into `out`.
#[inline(always)]
fn row_classes<'a, T: Scalar>(
    x: &'a [T],
    stencil: Stencil<'a, T>,
    first: usize,
    stride: usize,
    scale: f64,
    out: &mut [u8],
) {
    let f = |v: &[T], k: usize| v[k].to_f64();
    // Column 0 has no left neighbour: its terms drop out.
    let (lo, out) = if first == 0 {
        let pred = match stencil {
            Stencil::Line => 0.0,
            Stencil::Plane(r) => f(r, 0),
            Stencil::Volume(n, u, un) => f(n, 0) + f(u, 0) - f(un, 0),
        };
        out[0] = bit_length_class(f(x, 0) - pred, scale);
        (stride, &mut out[1..])
    } else {
        (first, out)
    };
    let Some(span) = out.len().checked_sub(1).map(|t| t * stride + 1) else {
        return;
    };
    // Each view starts at the first interior sample (`here`) or its left
    // neighbour (`west`) and covers the sampled columns `t · stride`.
    let here = |v: &'a [T]| -> &'a [T] { &v[lo..lo + span] };
    let west = |v: &'a [T]| -> &'a [T] { &v[lo - 1..lo - 1 + span] };
    let (xs, w) = (here(x), west(x));
    match stencil {
        Stencil::Line => {
            for (t, c) in out.iter_mut().enumerate() {
                let k = t * stride;
                *c = bit_length_class(f(xs, k) - f(w, k), scale);
            }
        }
        Stencil::Plane(r) => {
            let (r, rw) = (here(r), west(r));
            for (t, c) in out.iter_mut().enumerate() {
                let k = t * stride;
                let pred = f(w, k) + f(r, k) - f(rw, k);
                *c = bit_length_class(f(xs, k) - pred, scale);
            }
        }
        Stencil::Volume(n, u, un) => {
            let (n, nw, u, uw, un, unw) = (here(n), west(n), here(u), west(u), here(un), west(un));
            for (t, c) in out.iter_mut().enumerate() {
                let k = t * stride;
                let pred = f(w, k) + f(n, k) + f(u, k) - f(nw, k) - f(uw, k) - f(un, k) + f(unw, k);
                *c = bit_length_class(f(xs, k) - pred, scale);
            }
        }
    }
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
/// samples, prices each candidate's code magnitudes with an
/// entropy-of-quantized-magnitudes model (exponent classes plus mantissa
/// bits), and picks the cheapest. Walking for real instead of sampling
/// residuals against the original data matters at coarse bounds: there
/// the quantization noise a neighbour stencil feeds back is the *same*
/// noise it just removed (piecewise-constant reconstructions predict
/// themselves exactly), which an additive analytic penalty systematically
/// overcharges — coarse-bound Lorenzo looked ~½ bit/value worse than it
/// is and lost bake-offs it should have won.
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
///
/// Lorenzo¹ walks the whole slab. Each challenger walks it in steps of
/// about 4 096 samples and stops as soon as a lower bound on its final
/// price proves it cannot price below the incumbent, so the result is the
/// one a full walk of every candidate reaches (DESIGN §15.4). The bound is
/// checked before the first step too, where it is the challenger's
/// handicap alone; Regression is fitted only if it survives that check.
pub fn model<T: Scalar>(
    data: &[T],
    shape: Shape,
    kind: PredictorKind,
    eb: f64,
    bins: usize,
) -> Selection<T> {
    let _span = fpsnr_obs::span("sz.select.model");
    match kind {
        PredictorKind::Auto => {
            let (sel, work) = bake_off(data, shape, eb, bins);
            if work.walked > 0 {
                fpsnr_obs::add("sz.select.walked_samples", work.walked);
                fpsnr_obs::add("sz.select.pruned", work.pruned);
                fpsnr_obs::add("sz.select.skipped", work.skipped);
            }
            sel
        }
        kind => Selection {
            model: forced(kind, data, shape),
            walk: None,
        },
    }
}

/// The model of a forced (non-`Auto`) kind; Regression fits its
/// hyperplane to the whole input.
fn forced<T: Scalar>(kind: PredictorKind, data: &[T], shape: Shape) -> PredictorModel {
    match kind {
        PredictorKind::Auto => unreachable!("Auto is resolved by the bake-off"),
        PredictorKind::Lorenzo1 => PredictorModel::Lorenzo1,
        PredictorKind::Lorenzo2 => PredictorModel::Lorenzo2,
        PredictorKind::Spline => PredictorModel::Spline,
        PredictorKind::Regression => PredictorModel::Regression(fit_regression(data, shape)),
    }
}

/// Samples a challenger walks between two lower-bound checks, rounded to
/// whole outer slices (at least one). Each check costs O(66); a walk step
/// of this size costs tens of microseconds.
const CHECKPOINT: usize = 4096;

/// Relative slack of the pruning test. Challenger prices and bounds are at
/// least `LZ_SLACK_BITS` (0.5) and are sums of a few dozen rounded terms
/// of magnitude ≤ 70, so each is within ~1e-12 of its exact value, far
/// inside `0.5 · 1e-9`.
const PRUNE_MARGIN: f64 = 1e-9;

/// Exponent classes the price sorts codes into: zero, `k`-bit magnitudes
/// for `k` in 1..=64, and escapes.
const CLASSES: usize = 66;
const ESCAPE_CLASS: usize = CLASSES - 1;

/// What one `Auto` bake-off walked.
#[derive(Debug, Default, PartialEq, Eq)]
struct BakeoffWork {
    /// Slab samples walked, summed over the candidates.
    walked: u64,
    /// Challengers stopped part way through the slab.
    pruned: u64,
    /// Challengers ruled out before their first step: their handicap
    /// alone prices above the incumbent. Regression is not fitted then.
    skipped: u64,
}

/// The `Auto` bake-off behind [`model`], with what it walked.
fn bake_off<T: Scalar>(
    data: &[T],
    shape: Shape,
    eb: f64,
    bins: usize,
) -> (Selection<T>, BakeoffWork) {
    let mut best = Selection {
        model: PredictorModel::Lorenzo1,
        walk: None,
    };
    let mut work = BakeoffWork::default();
    let n = data.len();
    if n == 0 || eb <= 0.0 {
        return (best, work);
    }
    let (slab_shape, slab_len) = score_slab(shape, SCORE_CAP);
    let slab = &data[..slab_len];
    // Samples per outer slice: walk steps end on whole slices.
    let slice = slab_len / slab_shape.dims()[0];
    let step = (CHECKPOINT / slice).max(1) * slice;
    let candidates: [(PredictorKind, f64); 4] = [
        (PredictorKind::Lorenzo1, 0.0),
        (PredictorKind::Lorenzo2, LZ_SLACK_BITS),
        (
            PredictorKind::Regression,
            LZ_SLACK_BITS + (REGRESSION_COEFF_BYTES * 8) as f64 / n as f64,
        ),
        (PredictorKind::Spline, LZ_SLACK_BITS),
    ];
    let sample_bits = (T::BYTES * 8) as f64;
    let mut best_cost = f64::INFINITY;
    let mut spare = WalkState::default();
    for (kind, extra_bits) in candidates {
        let mut counts = ClassCounts::default();
        // With nothing walked the bound is `extra_bits` (up to rounding),
        // which every price includes; Lorenzo¹ has no incumbent to lose to.
        if counts.cannot_beat(best_cost, slab_len, sample_bits, extra_bits) {
            work.skipped += 1;
            continue;
        }
        let model = forced(kind, data, shape);
        spare.codes.clear();
        spare.unpred.clear();
        spare.recon.clear();
        spare.codes.reserve_exact(slab_len);
        spare.recon.reserve_exact(slab_len);
        // Lorenzo¹ walks the slab in one step.
        let step = if best_cost.is_finite() {
            step
        } else {
            slab_len
        };
        let mut walked = 0;
        while walked < slab_len {
            let end = (walked + step).min(slab_len);
            spare = walk_fused_resume(
                &slab[..end],
                with_outer(slab_shape, end / slice),
                eb,
                bins,
                model,
                EscapeCoding::Exact,
                spare,
            );
            counts.add(&spare.codes[walked..end], bins);
            walked = end;
            if walked < slab_len && counts.cannot_beat(best_cost, slab_len, sample_bits, extra_bits)
            {
                work.pruned += 1;
                break;
            }
        }
        work.walked += walked as u64;
        if walked < slab_len {
            continue;
        }
        let cost = counts.price(sample_bits, extra_bits);
        if cost < best_cost {
            best_cost = cost;
            best.model = model;
            spare = best.walk.replace(spare).unwrap_or_default();
        }
    }
    (best, work)
}

/// `shape` with its outer extent set to `rows`.
fn with_outer(shape: Shape, rows: usize) -> Shape {
    match shape {
        Shape::D1(_) => Shape::D1(rows),
        Shape::D2(_, c) => Shape::D2(rows, c),
        Shape::D3(_, b, c) => Shape::D3(rows, b, c),
    }
}

/// A bake-off candidate's quantization codes, sorted into the exponent
/// classes its price is made of.
struct ClassCounts {
    /// Codes per class: zero, `k`-bit magnitudes, escapes
    /// (`ESCAPE_CLASS`).
    hist: [u64; CLASSES],
}

impl Default for ClassCounts {
    fn default() -> Self {
        ClassCounts { hist: [0; CLASSES] }
    }
}

/// Class bytes per [`freq::count_bytes`] call, in a block on the stack.
const CLASS_BLOCK: usize = 16_384;

/// Writes each code's price class to `out`: [`ESCAPE_CLASS`] for code 0
/// and magnitudes `q = |code − bins/2|` above the grid's radius, else the
/// bit length of `q`. The bit length is read from the exponent of `q`'s
/// f64 ([`bit_length`]), which is exact for every i32, so the loop runs in
/// i32 lanes: codes are below `bins` ≤ 2²⁴ (`SzConfig::validate`).
#[inline(always)]
fn code_classes(codes: &[u32], bins: usize, out: &mut [u8]) {
    let radius = (bins / 2).saturating_sub(1).max(1) as i32;
    let centre = (bins / 2) as i32;
    for (class, &code) in out.iter_mut().zip(codes) {
        let q = (code as i32 - centre).abs();
        *class = if code == 0 || q > radius {
            ESCAPE_CLASS as u8
        } else {
            bit_length(q as f64)
        };
    }
}

/// [`code_classes`] compiled with AVX2 enabled.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn code_classes_avx2(codes: &[u32], bins: usize, out: &mut [u8]) {
    code_classes(codes, bins, out);
}

impl ClassCounts {
    /// Count `codes` from a grid of `bins` bins (`0` = escape).
    fn add(&mut self, codes: &[u32], bins: usize) {
        assert!(bins <= 1 << 30, "bins {bins} exceed the i32 code lanes");
        let mut block = [0u8; CLASS_BLOCK];
        let level = simd::active();
        for codes in codes.chunks(CLASS_BLOCK) {
            let classes = &mut block[..codes.len()];
            match level {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `simd::active()` reports AVX2 only when
                // `simd::detect()` found it on this CPU.
                SimdLevel::Avx2 => unsafe { code_classes_avx2(codes, bins, classes) },
                _ => code_classes(codes, bins, classes),
            }
            let counts = freq::count_bytes(classes);
            for (h, c) in self.hist.iter_mut().zip(counts) {
                *h += c;
            }
        }
    }

    /// Mantissa plus sign bits: `k` per in-range `k`-bit magnitude.
    fn live_bits(&self) -> u64 {
        (0..ESCAPE_CLASS).map(|k| k as u64 * self.hist[k]).sum()
    }

    /// Estimated coded bits/value of the counted codes.
    ///
    /// Magnitudes are priced like an exponent/mantissa code (the JPEG-DC /
    /// Elias-γ shape a canonical Huffman code converges to on long-tailed
    /// alphabets): Shannon entropy over the exponent classes — zero,
    /// `[2^(k−1), 2^k)` for each `k`, escapes as one more class — plus
    /// `k−1` mantissa bits and one sign bit per nonzero in-range
    /// magnitude, plus `sample_bits` per escape, plus `extra_bits` of
    /// per-value side-channel overhead (regression spends
    /// `8·REGRESSION_COEFF_BYTES / n` here). Pricing the within-class
    /// spread explicitly matters for wide residual distributions: flat
    /// buckets made a predictor whose magnitudes span thousands of bins
    /// look several bits/value cheaper than its real Huffman stream.
    fn price(&self, sample_bits: f64, extra_bits: f64) -> f64 {
        let total: u64 = self.hist.iter().sum();
        if total == 0 {
            return extra_bits;
        }
        let n = total as f64;
        let mut h = 0.0;
        for &c in &self.hist {
            if c > 0 {
                let p = c as f64 / n;
                h -= p * p.log2();
            }
        }
        let esc_frac = self.hist[ESCAPE_CLASS] as f64 / n;
        h + self.live_bits() as f64 / n + esc_frac * sample_bits + extra_bits
    }

    /// Whether no completion of the counted codes to `len` codes can
    /// price below `best_cost`: [`lower_bound`](Self::lower_bound) exceeds
    /// it by more than the float slack `PRUNE_MARGIN`.
    fn cannot_beat(&self, best_cost: f64, len: usize, sample_bits: f64, extra_bits: f64) -> bool {
        self.lower_bound(len, sample_bits, extra_bits) > best_cost * (1.0 + PRUNE_MARGIN)
    }

    /// A lower bound on [`price`](Self::price) once the counted codes
    /// are completed to `len` codes in any way.
    ///
    /// With `f(x) = x·log2 x`, the price of final counts `h'` is
    /// `log2 len − Σ f(h'ᵢ)/len + (live' + sample_bits·esc')/len + extra`:
    /// concave in the `r = len − m` codes still to come, since `f` is
    /// convex and the rest is linear. Its minimum over every completion
    /// is therefore at a vertex, all `r` codes in one class `c`, which
    /// costs O(66) to search.
    fn lower_bound(&self, len: usize, sample_bits: f64, extra_bits: f64) -> f64 {
        let f = |x: u64| {
            let x = x as f64;
            if x > 0.0 {
                x * x.log2()
            } else {
                0.0
            }
        };
        let m: u64 = self.hist.iter().sum();
        let r = len as u64 - m;
        let n = len as f64;
        let s: f64 = self.hist.iter().map(|&c| f(c)).sum();
        let linear = self.live_bits() as f64 + sample_bits * self.hist[ESCAPE_CLASS] as f64;
        let mut least = f64::INFINITY;
        for (class, &c) in self.hist.iter().enumerate() {
            let per_code = match class {
                ESCAPE_CLASS => sample_bits,
                k => k as f64,
            };
            let entropy = n.log2() - (s - f(c) + f(c + r)) / n;
            least = least.min(entropy + (linear + r as f64 * per_code) / n);
        }
        least + extra_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::walk_fused;
    use losslesskit::simd::{self, SimdLevel};

    /// The sort-based `optimize_intervals` that [`intervals`] replaced:
    /// collect every sampled magnitude, sort, and binary-search each grid.
    fn intervals_oracle<T: Scalar>(field: &Field<T>, eb: f64, cap: usize) -> usize {
        let mut qmags = sampled_qmags(field, eb);
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

    /// The oracle's sampled magnitudes, in scan order.
    fn sampled_qmags<T: Scalar>(field: &Field<T>, eb: f64) -> Vec<u64> {
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
        qmags
    }

    /// [`intervals`] and each sample's class at every dispatch level
    /// against [`intervals_oracle`] and its magnitudes.
    fn every_level_matches_oracle<T: Scalar>(
        field: &Field<T>,
        eb: f64,
        cap: usize,
    ) -> Result<(), String> {
        let want = intervals_oracle(field, eb, cap);
        let want_classes: Vec<u8> = sampled_qmags(field, eb)
            .iter()
            .map(|q| (u64::BITS - q.leading_zeros()) as u8)
            .collect();
        for level in SimdLevel::ALL {
            simd::force(Some(level));
            let mut classes = Vec::new();
            sampled_classes(field, eb, |block| classes.extend_from_slice(block));
            let got = intervals(field, eb, cap);
            simd::force(None);
            if got != want {
                return Err(format!("{level:?}: {got} vs {want}"));
            }
            if classes != want_classes {
                let i = (0..)
                    .find(|&i| classes.get(i) != want_classes.get(i))
                    .unwrap_or(0);
                return Err(format!(
                    "{level:?}: sample {i} class {:?} vs {:?}",
                    classes.get(i),
                    want_classes.get(i)
                ));
            }
        }
        Ok(())
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

    /// The code-scanning price [`ClassCounts::price`] replaced.
    fn candidate_bits_per_value(
        codes: &[u32],
        bins: usize,
        sample_bits: f64,
        extra_bits: f64,
    ) -> f64 {
        if codes.is_empty() {
            return extra_bits;
        }
        let radius = (bins as u64 / 2).saturating_sub(1).max(1);
        let code_radius = (bins / 2) as i64;
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

    /// The `Auto` bake-off before pruning: every candidate walks the whole
    /// slab and is priced by scanning its codes.
    fn model_oracle<T: Scalar>(data: &[T], shape: Shape, eb: f64, bins: usize) -> Selection<T> {
        let n = data.len();
        let mut best = Selection {
            model: PredictorModel::Lorenzo1,
            walk: None,
        };
        if n == 0 || eb <= 0.0 {
            return best;
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
        let mut best_cost = f64::INFINITY;
        for (model, extra_bits) in candidates {
            let st = walk_fused_resume(
                slab,
                slab_shape,
                eb,
                bins,
                model,
                EscapeCoding::Exact,
                WalkState::default(),
            );
            let cost = candidate_bits_per_value(&st.codes, bins, sample_bits, extra_bits);
            if cost < best_cost {
                best_cost = cost;
                best = Selection {
                    model,
                    walk: Some(st),
                };
            }
        }
        best
    }

    /// Xorshift step.
    fn next(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// A shape of `rank` in one of four size classes: shorter than one
    /// checkpoint, up to a slab, larger than a slab, and one or two outer
    /// slices, each at least one checkpoint long (every step one slice).
    fn shape_in_class(rank: usize, class: usize, s: &mut u64) -> Shape {
        let mut pick = |lo: usize, hi: usize| lo + next(s) as usize % (hi - lo);
        match (rank, class) {
            (1, 0) => Shape::D1(pick(1, CHECKPOINT)),
            (1, 1) => Shape::D1(pick(CHECKPOINT, SCORE_CAP)),
            (1, _) => Shape::D1(pick(SCORE_CAP + 1, SCORE_CAP + 9_000)),
            (2, 0) => Shape::D2(pick(1, 40), pick(1, 100)),
            (2, 1) => Shape::D2(pick(20, 200), pick(30, 320)),
            (2, 2) => Shape::D2(pick(240, 300), pick(250, 300)),
            (2, _) => Shape::D2(pick(1, 3), pick(CHECKPOINT, SCORE_CAP + 4_000)),
            (_, 0) => Shape::D3(pick(1, 8), pick(1, 20), pick(1, 25)),
            (_, 1) => Shape::D3(pick(4, 40), pick(8, 40), pick(8, 40)),
            (_, 2) => Shape::D3(pick(60, 80), pick(30, 36), pick(30, 36)),
            (_, _) => Shape::D3(pick(1, 3), pick(60, 80), pick(60, 300)),
        }
    }

    /// A smooth carrier (a ramp, a slow sine, or a quadratic in scan
    /// order) plus xorshift noise at a seed-chosen scale, with non-finite
    /// samples at a seed-chosen rate (none, ~1 in 300, ~1 in 8).
    fn carrier(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        let noise = [0.0, 1e-5, 1e-2, 0.3][(seed % 4) as usize];
        let bad = [0, 300, 8][(seed / 4 % 3) as usize];
        let shape = (seed / 12) % 3;
        (0..n)
            .map(|lin| {
                let r = next(&mut s);
                if bad > 0 && r.is_multiple_of(bad) {
                    return [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(r >> 9) as usize % 3];
                }
                let t = lin as f64 / n as f64;
                let smooth = match shape {
                    0 => 3.0 * t - 1.0,
                    1 => (t * 40.0).sin(),
                    _ => 5.0 * t * t - t,
                };
                smooth + noise * ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
            })
            .collect()
    }

    /// Run the pruned and the oracle bake-off and compare everything the
    /// compressors read.
    fn pruned_equals_oracle<T: Scalar>(
        data: &[T],
        shape: Shape,
        eb: f64,
        bins: usize,
    ) -> Result<(), String> {
        let got = model(data, shape, PredictorKind::Auto, eb, bins);
        let want = model_oracle(data, shape, eb, bins);
        let label = format!("{shape:?} eb {eb:e} bins {bins}");
        if got.model != want.model {
            return Err(format!("{label}: {:?} vs {:?}", got.model, want.model));
        }
        let (Some(g), Some(w)) = (got.walk, want.walk) else {
            return Err(format!("{label}: missing walk"));
        };
        let raw = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        if g.codes != w.codes
            || raw(&g.unpred) != raw(&w.unpred)
            || bits(&g.recon) != bits(&w.recon)
        {
            return Err(format!("{label}: walks differ"));
        }
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn pruned_selection_matches_the_full_walk_oracle(
            rank in 1usize..4,
            class in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
            eb_exp in 1.0f64..7.0,
            bins_log in 5u32..17,
            wide in proptest::bool::ANY,
        ) {
            let mut s = seed | 1;
            let shape = shape_in_class(rank, class, &mut s);
            let data = carrier(shape.len(), seed);
            let (lo, hi) = data
                .iter()
                .filter(|x| x.is_finite())
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let range = if hi > lo { hi - lo } else { 1.0 };
            let eb = range * 10f64.powf(-eb_exp);
            let bins = 1usize << bins_log;
            let res = if wide {
                pruned_equals_oracle(&data, shape, eb, bins)
            } else {
                let narrow: Vec<f32> = data.iter().map(|&x| x as f32).collect();
                pruned_equals_oracle(&narrow, shape, eb, bins)
            };
            proptest::prop_assert!(res.is_ok(), "{}", res.unwrap_err());
        }

        #[test]
        fn intervals_match_the_sorting_oracle_at_every_level(
            stride in 1usize..6,
            form in 0usize..6,
            seed in proptest::prelude::any::<u64>(),
            eb_pick in 0usize..7,
            cap_pick in 0usize..4,
            wide in proptest::bool::ANY,
        ) {
            let mut s = seed | 1;
            let mut pick = |lo: usize, hi: usize| lo + next(&mut s) as usize % (hi - lo);
            // About `stride · 65 536` samples, so the sampling stride is
            // `stride` (stride 1 also draws small fields); rows of random
            // width, mostly not a multiple of the stride.
            let n = if stride == 1 {
                pick(1, 2 * INTERVAL_SAMPLES)
            } else {
                pick(stride * INTERVAL_SAMPLES, (stride + 1) * INTERVAL_SAMPLES)
            };
            let (c, b) = (pick(1, 700), pick(1, 40));
            let shape = match form {
                0 => Shape::D1(n),
                1 => Shape::D2(1, n),
                2 => Shape::D2(n, 1),
                3 => Shape::D3(n, 1, 1),
                4 => Shape::D2(n.div_ceil(c), c),
                _ => Shape::D3(n.div_ceil(b * c), b, c),
            };
            // Non-finite samples at none, ~1 in 300 or ~1 in 8 (by seed).
            let data = carrier(shape.len(), seed);
            // The carriers span a few units.
            let range = 4.0;
            let eb = [
                0.0,
                f64::from_bits(1),
                1e-310,
                range * 1e-3,
                range * 1e-6,
                range * 10.0,
                -range * 1e-3,
            ][eb_pick];
            let cap = [16, 100, 1024, 65_536][cap_pick];
            let res = if wide {
                every_level_matches_oracle(&Field::from_vec(shape, data), eb, cap)
            } else {
                let narrow = data.iter().map(|&x| x as f32).collect();
                every_level_matches_oracle(&Field::from_vec(shape, narrow), eb, cap)
            };
            proptest::prop_assert!(res.is_ok(), "{:?} eb {:e} cap {}: {}", shape, eb, cap, res.unwrap_err());
        }

        #[test]
        fn class_count_price_is_the_code_scan_price(
            len in 0usize..40_000,
            bins_log in 1u32..17,
            seed in proptest::prelude::any::<u64>(),
            cut in 0usize..40_000,
            wide in proptest::bool::ANY,
        ) {
            let mut s = seed | 1;
            let codes = random_codes(len, 1 << bins_log, &mut s);
            let bins = 1usize << bins_log;
            let sample_bits = if wide { 64.0 } else { 32.0 };
            let extra = [0.0, LZ_SLACK_BITS, LZ_SLACK_BITS + 128.0 / (len + 1) as f64][(seed % 3) as usize];
            let cut = cut.min(len);
            let want = candidate_bits_per_value(&codes, bins, sample_bits, extra).to_bits();
            for level in SimdLevel::ALL {
                simd::force(Some(level));
                let mut counts = ClassCounts::default();
                counts.add(&codes[..cut], bins);
                counts.add(&codes[cut..], bins);
                simd::force(None);
                let got = counts.price(sample_bits, extra).to_bits();
                proptest::prop_assert!(got == want, "{:?}: {got:x} vs {want:x}", level);
            }
        }

        #[test]
        fn lower_bound_never_exceeds_a_completed_price(
            len in 1usize..5_000,
            walked in 0usize..5_000,
            bins_log in 1u32..17,
            seed in proptest::prelude::any::<u64>(),
            completion in 0usize..3,
            wide in proptest::bool::ANY,
        ) {
            let mut s = seed | 1;
            let bins = 1usize << bins_log;
            let walked = walked.min(len);
            let mut codes = random_codes(len, bins, &mut s);
            // Random tails, one-class tails (the vertex the bound is
            // tight at) and two-class tails.
            match completion {
                0 => {}
                1 => {
                    let last = codes[len - 1];
                    codes[walked..].fill(last);
                }
                _ => {
                    let (a, b) = (codes[len - 1], codes[0]);
                    for (i, c) in codes[walked..].iter_mut().enumerate() {
                        *c = if i % 3 == 0 { a } else { b };
                    }
                }
            }
            let sample_bits = if wide { 64.0 } else { 32.0 };
            let extra = LZ_SLACK_BITS + [0.0, 128.0 / len as f64][(seed % 2) as usize];
            let mut prefix = ClassCounts::default();
            prefix.add(&codes[..walked], bins);
            let mut counts = ClassCounts::default();
            counts.add(&codes, bins);
            let price = counts.price(sample_bits, extra);
            // An incumbent this completion beats, however narrowly, is
            // never ruled out.
            proptest::prop_assert!(
                !prefix.cannot_beat(price.next_up(), len, sample_bits, extra),
                "bound {} rules out {price} ({walked}/{len})",
                prefix.lower_bound(len, sample_bits, extra)
            );
            if walked == len {
                let bound = prefix.lower_bound(len, sample_bits, extra);
                proptest::prop_assert!(bound >= price * (1.0 - PRUNE_MARGIN));
            }
        }
    }

    /// Codes over a grid of `bins` bins: mostly small magnitudes around
    /// the centre, with escapes (code 0) and a long tail.
    fn random_codes(len: usize, bins: usize, s: &mut u64) -> Vec<u32> {
        let centre = (bins / 2) as i64;
        let spread = 1 + next(s) % 12;
        (0..len)
            .map(|_| {
                let r = next(s);
                if r.is_multiple_of(53) {
                    return 0;
                }
                let mag = (r >> 8) % (1u64 << ((r >> 40) % spread));
                let q = if r & 1 == 0 {
                    mag as i64
                } else {
                    -(mag as i64)
                };
                (centre + q).clamp(0, bins as i64 - 1) as u32
            })
            .collect()
    }

    #[test]
    fn challengers_stop_on_a_plane_and_counters_say_so() {
        // A 200 × 300 plane: Lorenzo¹ codes it nearly all zeros, so each
        // challenger's 0.5-bit handicap alone exceeds that price, and no
        // challenger walks (nor is Regression fitted).
        let shape = Shape::D2(200, 300);
        let data: Vec<f32> = (0..shape.len())
            .map(|lin| 0.25 * (lin / 300) as f32 - 0.125 * (lin % 300) as f32)
            .collect();
        let (sel, work) = bake_off(&data, shape, 1e-3, 1024);
        assert_eq!(sel.model, PredictorModel::Lorenzo1);
        assert_eq!(
            work,
            BakeoffWork {
                walked: shape.len() as u64,
                pruned: 0,
                skipped: 3,
            }
        );
        // On noise at a coarse bound every challenger walks, and all three
        // stop at a checkpoint (13 rows, 3 900 samples) part way through.
        let noise = noisy(shape, 0).into_vec();
        let (sel, pruned) = bake_off(&noise, shape, 1e-2, 1024);
        assert_eq!(sel.model, PredictorModel::Lorenzo1);
        let step = (CHECKPOINT / 300) * 300;
        let challenged = pruned.walked - shape.len() as u64;
        assert_eq!((pruned.pruned, pruned.skipped), (3, 0));
        assert!(
            challenged > 0
                && challenged.is_multiple_of(step as u64)
                && challenged < 3 * shape.len() as u64
        );
        fpsnr_obs::reset();
        fpsnr_obs::enable();
        let armed = fpsnr_obs::is_enabled(); // false when built with fpsnr-obs/off
        model(&data, shape, PredictorKind::Auto, 1e-3, 1024);
        model(&noise, shape, PredictorKind::Auto, 1e-2, 1024);
        fpsnr_obs::disable();
        if armed {
            // Other tests may select while the registry is armed, so the
            // counters are lower bounds here.
            let report = fpsnr_obs::snapshot();
            assert!(report.counter("sz.select.skipped").unwrap_or(0) >= work.skipped);
            assert!(report.counter("sz.select.pruned").unwrap_or(0) >= pruned.pruned);
            assert!(
                report.counter("sz.select.walked_samples").unwrap_or(0)
                    >= work.walked + pruned.walked
            );
        }
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
                                with_outer(shape, slab_rows),
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
