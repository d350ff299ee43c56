//! The composable prediction stage (SZ step 1).
//!
//! Prediction is a pluggable stage: the pipeline walks carry a
//! [`PredictorModel`] — a concrete predictor *instance*, coefficients
//! included — and every model obeys the [`Predictor`] contract: the
//! encoder's predict half and the decoder's replay half are the same
//! function of the reconstructed prefix, so both sides compute
//! bit-identical predictions. That symmetry is the premise of the paper's
//! Theorem 1 (`Xpred = X̃pred`, hence `X − X̃ = Xpe − X̃pe`), and it holds
//! per predictor, per block.
//!
//! Four model families are implemented:
//!
//! - **Lorenzo** ([`lorenzo_1d`]/[`lorenzo_2d`]/[`lorenzo_3d`]): each
//!   sample predicted from its preceding row-major neighbours. With
//!   out-of-grid neighbours treated as zero, the d-dimensional stencil
//!   automatically degrades to the (d−1)-dimensional one along boundary
//!   faces.
//! - **Lorenzo²** ([`lorenzo2_1d`] and friends): the two-layer stencil,
//!   exact on per-axis quadratics.
//! - **Regression** ([`fit_regression`]): a per-block least-squares
//!   hyperplane over the block-local grid coordinates (Tao'17's
//!   multidimensional regression, restricted to first order). Predictions
//!   depend only on the coordinates and the stored coefficients — never on
//!   the reconstruction — so quantization noise cannot feed back.
//! - **Spline** ([`spline_predict`]): cubic-stencil extrapolation along
//!   the fastest-varying axis (`3·r[k−1] − 3·r[k−2] + r[k−3]`, the
//!   three-point tail of the binomial `(1−B)³` filter — exact on per-row
//!   quadratics), falling back to first-order Lorenzo where fewer than
//!   three in-row predecessors exist.

use ndfield::Shape;

/// Predict sample `idx` of a 1-D series from the reconstructed prefix
/// `recon[..idx]`.
#[inline]
pub fn lorenzo_1d(recon: &[f64], idx: usize) -> f64 {
    if idx == 0 {
        0.0
    } else {
        recon[idx - 1]
    }
}

/// Predict sample `(i, j)` of a 2-D grid (`cols` fastest-varying) from the
/// reconstructed prefix. Three-point stencil
/// `r[i,j−1] + r[i−1,j] − r[i−1,j−1]`.
#[inline]
pub fn lorenzo_2d(recon: &[f64], cols: usize, i: usize, j: usize) -> f64 {
    let at = |ii: usize, jj: usize| recon[ii * cols + jj];
    match (i > 0, j > 0) {
        (false, false) => 0.0,
        (false, true) => at(0, j - 1),
        (true, false) => at(i - 1, 0),
        (true, true) => {
            // Interior: one window slice ending at the predicted sample
            // covers all three neighbours (up-left at 0, up at 1, left at
            // cols), replacing three independently bounds-checked indexed
            // loads. Term order matches the indexed form bit for bit.
            let base = i * cols + j;
            let w = &recon[base - cols - 1..base];
            w[cols] + w[1] - w[0]
        }
    }
}

/// Predict sample `(i, j, k)` of a 3-D grid from the reconstructed prefix.
/// Seven-point Lorenzo stencil (inclusion–exclusion over the preceding
/// corner of the unit cube).
#[inline]
pub fn lorenzo_3d(recon: &[f64], d1: usize, d2: usize, i: usize, j: usize, k: usize) -> f64 {
    if i > 0 && j > 0 && k > 0 {
        // Interior: the seven stencil taps all live in a window of
        // `d1·d2 + d2 + 2` samples ending at the predicted one, so a single
        // slice bounds check replaces seven guarded indexed loads. The
        // summation order is the guarded expression's, term for term, so
        // the result is bit-identical.
        let p = d1 * d2;
        let base = (i * d1 + j) * d2 + k;
        let w = &recon[base - p - d2 - 1..base];
        return w[p + d2] + w[p + 1] + w[d2 + 1] - w[p] - w[d2] - w[1] + w[0];
    }
    // Out-of-grid neighbours contribute 0; guard before indexing.
    let at = |cond: bool, ii: usize, jj: usize, kk: usize| {
        if cond {
            recon[(ii * d1 + jj) * d2 + kk]
        } else {
            0.0
        }
    };
    at(k > 0, i, j, k.wrapping_sub(1))
        + at(j > 0, i, j.wrapping_sub(1), k)
        + at(i > 0, i.wrapping_sub(1), j, k)
        - at(j > 0 && k > 0, i, j.wrapping_sub(1), k.wrapping_sub(1))
        - at(i > 0 && k > 0, i.wrapping_sub(1), j, k.wrapping_sub(1))
        - at(i > 0 && j > 0, i.wrapping_sub(1), j.wrapping_sub(1), k)
        + at(
            i > 0 && j > 0 && k > 0,
            i.wrapping_sub(1),
            j.wrapping_sub(1),
            k.wrapping_sub(1),
        )
}

/// Predict the sample at linear offset `lin` for any supported shape,
/// dispatching to the rank-specific stencil.
#[inline]
pub fn predict(recon: &[f64], shape: Shape, lin: usize) -> f64 {
    match shape {
        Shape::D1(_) => lorenzo_1d(recon, lin),
        Shape::D2(_, cols) => lorenzo_2d(recon, cols, lin / cols, lin % cols),
        Shape::D3(_, d1, d2) => {
            let k = lin % d2;
            let rest = lin / d2;
            lorenzo_3d(recon, d1, d2, rest / d1, rest % d1, k)
        }
    }
}

/// Which prediction family the pipeline uses.
///
/// SZ's early versions select the best-fit predictor per field among
/// several curve-fitting orders; SZ3 generalizes that into a composable
/// per-block stage. This enum names the design space: first-order Lorenzo
/// (SZ 1.4's default), second-order Lorenzo (exact for per-axis
/// quadratics), a per-block least-squares regression plane (Tao'17), a
/// cubic-spline extrapolator, or cost-driven automatic selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// One-layer Lorenzo stencil (SZ 1.4 default).
    Lorenzo1,
    /// Two-layer (second-order) Lorenzo stencil.
    Lorenzo2,
    /// Per-block least-squares hyperplane over the grid coordinates;
    /// coefficients are fit at encode time and stored in the container.
    Regression,
    /// Cubic extrapolation along the fastest-varying axis.
    Spline,
    /// Estimate coded bits/value per candidate from sampled prediction
    /// errors and keep the cheapest (per block on the blocked path).
    Auto,
}

impl PredictorKind {
    /// Stable byte tag stored in the container (`Auto` never reaches the
    /// container — selection happens at compression time).
    pub fn tag(self) -> u8 {
        match self {
            PredictorKind::Lorenzo1 => 1,
            PredictorKind::Lorenzo2 => 2,
            PredictorKind::Regression => 3,
            PredictorKind::Spline => 4,
            PredictorKind::Auto => 0,
        }
    }

    /// Inverse of [`PredictorKind::tag`] for concrete predictors.
    pub fn from_tag(tag: u8) -> Option<PredictorKind> {
        match tag {
            1 => Some(PredictorKind::Lorenzo1),
            2 => Some(PredictorKind::Lorenzo2),
            3 => Some(PredictorKind::Regression),
            4 => Some(PredictorKind::Spline),
            _ => None,
        }
    }

    /// Human-readable name (CLI/inspect output).
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::Lorenzo1 => "lorenzo",
            PredictorKind::Lorenzo2 => "lorenzo2",
            PredictorKind::Regression => "regression",
            PredictorKind::Spline => "spline",
            PredictorKind::Auto => "auto",
        }
    }

    /// Parse a CLI spelling (`lorenzo` means first-order Lorenzo).
    pub fn parse(s: &str) -> Option<PredictorKind> {
        match s {
            "lorenzo" | "lorenzo1" | "l1" => Some(PredictorKind::Lorenzo1),
            "lorenzo2" | "l2" => Some(PredictorKind::Lorenzo2),
            "regression" | "reg" => Some(PredictorKind::Regression),
            "spline" => Some(PredictorKind::Spline),
            "auto" => Some(PredictorKind::Auto),
            _ => None,
        }
    }
}

/// Serialized size of a regression coefficient payload: four `f32`
/// little-endian words. Coefficients are fit in `f64` and *quantized to
/// `f32`* before storage; the model predicts with the quantized values, so
/// encoder and decoder replay the identical plane.
pub const REGRESSION_COEFF_BYTES: usize = 16;

/// The contract every prediction stage obeys.
///
/// A predictor has two halves that must be the *same function*:
///
/// - the **predict half**, run by the encoder during the quantization walk,
///   maps the reconstructed prefix `recon[..lin]` (plus any fitted
///   coefficients the model carries) to a prediction for sample `lin`;
/// - the **replay half**, run by the decoder while reconstructing, must
///   return the bit-identical prediction from the bit-identical prefix.
///
/// Because both halves read only reconstructed values (never the original
/// data) and any fitted coefficients travel in the container verbatim, the
/// decoder replays the exact walk the encoder ran — which is what keeps
/// the paper's Theorem 1 intact for every predictor, per block.
///
/// ```
/// use szlike::predictor::{Predictor, PredictorModel};
/// use ndfield::Shape;
///
/// let model = PredictorModel::Regression([1.0, 0.5, -0.25, 0.0]);
/// let shape = Shape::D2(4, 4);
/// // The encoder's predict half and the decoder's replay half agree
/// // bit for bit on every sample — regardless of the prefix contents.
/// let recon = vec![0.0; 16];
/// for lin in 0..16 {
///     let p = model.predict(&recon, shape, lin);
///     let r = model.replay(&recon, shape, lin);
///     assert_eq!(p.to_bits(), r.to_bits());
/// }
/// // Coefficient-carrying models round-trip through their payload.
/// let bytes = model.coeff_bytes();
/// let back = PredictorModel::from_tag_and_coeffs(model.tag(), &bytes).unwrap();
/// assert_eq!(back, model);
/// ```
pub trait Predictor {
    /// Predict sample `lin` from the reconstructed prefix `recon[..lin]`.
    fn predict(&self, recon: &[f64], shape: Shape, lin: usize) -> f64;

    /// The decoder-side replay half. Must equal [`Predictor::predict`]
    /// bit for bit; the default implementation guarantees it.
    #[inline]
    fn replay(&self, recon: &[f64], shape: Shape, lin: usize) -> f64 {
        self.predict(recon, shape, lin)
    }

    /// Stable container tag for this predictor family.
    fn tag(&self) -> u8;

    /// Serialized coefficient payload (empty for coefficient-free
    /// predictors). Stored verbatim so the decoder replays the exact fit.
    fn coeff_bytes(&self) -> Vec<u8>;
}

/// A concrete predictor instance: the family plus any fitted coefficients.
///
/// This is what the walks actually dispatch on — `Copy`, self-contained,
/// and serializable to (tag, coefficient payload) for the container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorModel {
    /// One-layer Lorenzo stencil.
    Lorenzo1,
    /// Two-layer Lorenzo stencil.
    Lorenzo2,
    /// Least-squares hyperplane `β₀ + β₁·i + β₂·j + β₃·k` over the
    /// block-local grid coordinates (unused trailing coordinates have zero
    /// coefficients). Every `βᵢ` is `f32`-exact — see
    /// [`REGRESSION_COEFF_BYTES`].
    Regression([f64; 4]),
    /// Cubic extrapolation along the fastest-varying axis.
    Spline,
}

impl PredictorModel {
    /// The family this model belongs to.
    pub fn kind(&self) -> PredictorKind {
        match self {
            PredictorModel::Lorenzo1 => PredictorKind::Lorenzo1,
            PredictorModel::Lorenzo2 => PredictorKind::Lorenzo2,
            PredictorModel::Regression(_) => PredictorKind::Regression,
            PredictorModel::Spline => PredictorKind::Spline,
        }
    }

    /// Reconstruct a model from its container tag and coefficient payload.
    /// Returns `None` on an unknown tag or a short payload.
    pub fn from_tag_and_coeffs(tag: u8, coeffs: &[u8]) -> Option<PredictorModel> {
        match PredictorKind::from_tag(tag)? {
            PredictorKind::Lorenzo1 => Some(PredictorModel::Lorenzo1),
            PredictorKind::Lorenzo2 => Some(PredictorModel::Lorenzo2),
            PredictorKind::Spline => Some(PredictorModel::Spline),
            PredictorKind::Regression => {
                if coeffs.len() < REGRESSION_COEFF_BYTES {
                    return None;
                }
                let mut c = [0.0f64; 4];
                for (a, slot) in c.iter_mut().enumerate() {
                    let mut w = [0u8; 4];
                    w.copy_from_slice(&coeffs[a * 4..a * 4 + 4]);
                    let v = f32::from_le_bytes(w);
                    if !v.is_finite() {
                        return None;
                    }
                    *slot = v as f64;
                }
                Some(PredictorModel::Regression(c))
            }
            PredictorKind::Auto => None,
        }
    }
}

impl Predictor for PredictorModel {
    #[inline(always)]
    fn predict(&self, recon: &[f64], shape: Shape, lin: usize) -> f64 {
        match self {
            PredictorModel::Lorenzo1 => predict(recon, shape, lin),
            PredictorModel::Lorenzo2 => match shape {
                Shape::D1(_) => lorenzo2_1d(recon, lin),
                Shape::D2(_, cols) => lorenzo2_2d(recon, cols, lin / cols, lin % cols),
                Shape::D3(_, d1, d2) => {
                    let k = lin % d2;
                    let rest = lin / d2;
                    lorenzo2_3d(recon, d1, d2, rest / d1, rest % d1, k)
                }
            },
            PredictorModel::Regression(c) => regression_predict(c, shape, lin),
            PredictorModel::Spline => spline_predict(recon, shape, lin),
        }
    }

    fn tag(&self) -> u8 {
        self.kind().tag()
    }

    fn coeff_bytes(&self) -> Vec<u8> {
        match self {
            PredictorModel::Regression(c) => {
                let mut out = Vec::with_capacity(REGRESSION_COEFF_BYTES);
                for &v in c {
                    out.extend_from_slice(&(v as f32).to_le_bytes());
                }
                out
            }
            _ => Vec::new(),
        }
    }
}

/// Evaluate a regression plane at linear offset `lin`. The prediction is a
/// pure function of the coordinates and the stored coefficients — the
/// reconstruction buffer is never read, so the replay is trivially exact.
#[inline(always)]
pub fn regression_predict(c: &[f64; 4], shape: Shape, lin: usize) -> f64 {
    match shape {
        Shape::D1(_) => c[0] + c[1] * lin as f64,
        Shape::D2(_, cols) => c[0] + c[1] * (lin / cols) as f64 + c[2] * (lin % cols) as f64,
        Shape::D3(_, d1, d2) => {
            let k = lin % d2;
            let rest = lin / d2;
            c[0] + c[1] * (rest / d1) as f64 + c[2] * (rest % d1) as f64 + c[3] * k as f64
        }
    }
}

/// Cubic-stencil extrapolation along the fastest-varying axis:
/// `3·r[k−1] − 3·r[k−2] + r[k−3]` (setting the third backward difference
/// to zero, which reproduces per-row polynomials up to degree 2 exactly),
/// degrading to the first-order Lorenzo stencil where fewer than three
/// same-row predecessors exist.
#[inline(always)]
pub fn spline_predict(recon: &[f64], shape: Shape, lin: usize) -> f64 {
    let k = match shape {
        Shape::D1(_) => lin,
        Shape::D2(_, cols) => lin % cols,
        Shape::D3(_, _, d2) => lin % d2,
    };
    if k >= 3 {
        3.0 * recon[lin - 1] - 3.0 * recon[lin - 2] + recon[lin - 3]
    } else {
        predict(recon, shape, lin)
    }
}

/// Fit the least-squares hyperplane `β₀ + β₁·i + β₂·j + β₃·k` over a block
/// (or whole field) of original samples, then quantize each coefficient
/// through `f32` so the stored [`REGRESSION_COEFF_BYTES`] payload
/// reproduces the model exactly.
///
/// On a complete grid the coordinate covariance matrix is diagonal
/// (axes are independent and uniform), so the normal equations decouple:
/// `βₐ = Σ x·(cₐ − c̄ₐ) / Σ (cₐ − c̄ₐ)²` per axis and
/// `β₀ = x̄ − Σ βₐ·c̄ₐ`. Non-finite samples are skipped (the fit is a
/// prediction model, not a correctness dependency); a fit with no finite
/// samples, or any non-finite coefficient, degrades to the zero plane.
pub fn fit_regression<T: ndfield::Scalar>(data: &[T], shape: Shape) -> [f64; 4] {
    debug_assert_eq!(data.len(), shape.len());
    let _span = fpsnr_obs::span("sz.select.regression_fit");
    let dims = shape.dims();
    // Axis means over the full grid: (d−1)/2.
    let mut cbar = [0.0f64; 3];
    for (a, &d) in dims.iter().enumerate() {
        cbar[a] = (d as f64 - 1.0) / 2.0;
    }
    plane_sums(data, shape, &cbar).plane(dims.len(), &cbar)
}

/// Running sums of the least-squares plane fit over the finite samples:
/// their count, `Σ x`, and per axis `Σ uₐ`, `Σ x·uₐ` and `Σ uₐ²` against
/// grid-centred coordinates.
#[derive(Clone, Copy, Default)]
struct PlaneSums {
    n: f64,
    sx: f64,
    su: [f64; 3],
    sxu: [f64; 3],
    suu: [f64; 3],
}

/// [`PlaneSums`] of `data` shaped `shape`, against coordinates centred on
/// the grid means `cbar`.
///
/// Accumulating against grid-centred coordinates `u = c − c̄_grid` keeps
/// magnitudes small; [`PlaneSums::plane`] then corrects for the mean of
/// the *included* points: when non-finite samples are skipped the
/// included-coordinate mean shifts away from the grid mean, and using the
/// raw sums would bias the slope. On a complete grid Σu is exactly 0 and
/// the correction terms vanish bit for bit.
///
/// Row by row: the outer coordinates are fixed along a row, so their `u`
/// and `u²` are computed once per row. Every sum still adds the same
/// terms in scan order, so the sums are those of a per-sample loop bit
/// for bit.
fn plane_sums<T: ndfield::Scalar>(data: &[T], shape: Shape, cbar: &[f64; 3]) -> PlaneSums {
    let mut acc = PlaneSums::default();
    let inner = *shape.dims().last().expect("a shape has at least one axis");
    if inner == 0 {
        return acc;
    }
    match shape {
        Shape::D1(_) => acc.add_row(data, [], cbar[0]),
        Shape::D2(..) => {
            for (i, row) in data.chunks_exact(inner).enumerate() {
                acc.add_row(row, [i as f64 - cbar[0]], cbar[1]);
            }
        }
        Shape::D3(_, d1, _) => {
            for (i, plane) in data.chunks_exact(d1 * inner).enumerate() {
                let ui = i as f64 - cbar[0];
                for (j, row) in plane.chunks_exact(inner).enumerate() {
                    acc.add_row(row, [ui, j as f64 - cbar[1]], cbar[2]);
                }
            }
        }
    }
    acc
}

impl PlaneSums {
    /// Add one innermost row whose outer axes sit at the centred
    /// coordinates `outer`; the inner axis is centred on `cbar_inner`.
    #[inline]
    fn add_row<T: ndfield::Scalar, const OUTER: usize>(
        &mut self,
        row: &[T],
        outer: [f64; OUTER],
        cbar_inner: f64,
    ) {
        let outer_sq = outer.map(|u| u * u);
        for (j, v) in row.iter().enumerate() {
            let x = v.to_f64();
            if !x.is_finite() {
                continue;
            }
            self.n += 1.0;
            self.sx += x;
            for a in 0..OUTER {
                self.su[a] += outer[a];
                self.sxu[a] += x * outer[a];
                self.suu[a] += outer_sq[a];
            }
            let u = j as f64 - cbar_inner;
            self.su[OUTER] += u;
            self.sxu[OUTER] += x * u;
            self.suu[OUTER] += u * u;
        }
    }

    /// Solve the decoupled normal equations of a `rank`-axis grid with
    /// axis means `cbar` for the `f32`-quantized plane coefficients.
    fn plane(&self, rank: usize, cbar: &[f64; 3]) -> [f64; 4] {
        let PlaneSums {
            n,
            sx,
            su,
            sxu,
            suu,
        } = *self;
        if n == 0.0 {
            return [0.0; 4];
        }
        let xbar = sx / n;
        let mut beta = [0.0f64; 4];
        let mut ubar = [0.0f64; 3];
        for a in 0..rank {
            ubar[a] = su[a] / n;
            let var = suu[a] - n * ubar[a] * ubar[a];
            if var > 0.0 {
                beta[a + 1] = (sxu[a] - sx * ubar[a]) / var;
            }
        }
        // Quantize the slopes through f32 (the stored precision) and
        // re-derive the intercept against the quantized slopes so the
        // plane stays centred on the included points.
        for b in beta.iter_mut().skip(1) {
            *b = *b as f32 as f64;
        }
        beta[0] = (xbar
            - (0..rank)
                .map(|a| beta[a + 1] * (ubar[a] + cbar[a]))
                .sum::<f64>()) as f32 as f64;
        if beta.iter().any(|b| !b.is_finite()) {
            return [0.0; 4];
        }
        beta
    }
}

/// Binomial coefficient `C(2, i)` for the two-layer stencil weights.
#[inline]
fn c2(i: usize) -> f64 {
    match i {
        0 => 1.0,
        1 => 2.0,
        _ => 1.0,
    }
}

/// Second-order Lorenzo in 1-D: `2·r[i−1] − r[i−2]` (exact on quadratics),
/// degrading to first-order then zero at the boundary.
#[inline]
pub fn lorenzo2_1d(recon: &[f64], idx: usize) -> f64 {
    match idx {
        0 => 0.0,
        1 => recon[0],
        _ => 2.0 * recon[idx - 1] - recon[idx - 2],
    }
}

/// Second-order Lorenzo in 2-D: the 8-point two-layer stencil
/// `Σ_{(a,b)≠(0,0)} −(−1)^{a+b} C(2,a) C(2,b) · r[i−a, j−b]`,
/// with out-of-grid neighbours treated as contributing their first-order
/// degradation (boundaries fall back to [`lorenzo2_1d`]-style handling by
/// zero-padding the stencil).
#[inline]
pub fn lorenzo2_2d(recon: &[f64], cols: usize, i: usize, j: usize) -> f64 {
    if i < 2 || j < 2 {
        // Near the boundary the two-layer stencil is not fully available;
        // degrade to the first-order stencil (still exactly mirrored by
        // the decompressor, which is all correctness needs).
        return lorenzo_2d(recon, cols, i, j);
    }
    // weight(a,b) = −(−1)^(a+b) · C(2,a) · C(2,b), origin excluded; the
    // residual equals Δ₁²Δ₂²f, which vanishes for per-axis quadratics.
    //
    // Unrolled over the three stencil rows, each loaded through one window
    // slice (one bounds check per row instead of one per tap). The signed
    // weights are the loop's `sign · C(2,a) · C(2,b)` products — exact
    // small-integer constants, so folding them keeps every partial sum
    // bit-identical to the loop form, accumulated in the same (a,b) order.
    let r0 = &recon[i * cols + j - 2..i * cols + j];
    let r1 = &recon[(i - 1) * cols + j - 2..(i - 1) * cols + j + 1];
    let r2 = &recon[(i - 2) * cols + j - 2..(i - 2) * cols + j + 1];
    let mut pred = 0.0;
    pred += 2.0 * r0[1]; // (a,b) = (0,1)
    pred -= r0[0]; // (0,2)
    pred += 2.0 * r1[2]; // (1,0)
    pred -= 4.0 * r1[1]; // (1,1)
    pred += 2.0 * r1[0]; // (1,2)
    pred -= r2[2]; // (2,0)
    pred += 2.0 * r2[1]; // (2,1)
    pred -= r2[0]; // (2,2)
    pred
}

/// Second-order Lorenzo in 3-D, with first-order fallback near boundaries.
#[inline]
pub fn lorenzo2_3d(recon: &[f64], d1: usize, d2: usize, i: usize, j: usize, k: usize) -> f64 {
    if i < 2 || j < 2 || k < 2 {
        return lorenzo_3d(recon, d1, d2, i, j, k);
    }
    let at = |a: usize, b: usize, c: usize| recon[((i - a) * d1 + (j - b)) * d2 + (k - c)];
    let mut pred = 0.0;
    for a in 0..=2usize {
        for b in 0..=2usize {
            for c in 0..=2usize {
                if a == 0 && b == 0 && c == 0 {
                    continue;
                }
                let sign = if (a + b + c) % 2 == 0 { -1.0 } else { 1.0 };
                pred += sign * c2(a) * c2(b) * c2(c) * at(a, b, c);
            }
        }
    }
    pred
}

/// Predict with an explicit concrete predictor.
#[inline]
pub fn predict_with(kind: PredictorKind, recon: &[f64], shape: Shape, lin: usize) -> f64 {
    match kind {
        PredictorKind::Lorenzo1 => predict(recon, shape, lin),
        PredictorKind::Lorenzo2 => match shape {
            Shape::D1(_) => lorenzo2_1d(recon, lin),
            Shape::D2(_, cols) => lorenzo2_2d(recon, cols, lin / cols, lin % cols),
            Shape::D3(_, d1, d2) => {
                let k = lin % d2;
                let rest = lin / d2;
                lorenzo2_3d(recon, d1, d2, rest / d1, rest % d1, k)
            }
        },
        PredictorKind::Spline => spline_predict(recon, shape, lin),
        PredictorKind::Regression => {
            unreachable!("Regression predicts through its fitted PredictorModel")
        }
        PredictorKind::Auto => unreachable!("Auto resolves before prediction"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d1_first_sample_predicts_zero() {
        assert_eq!(lorenzo_1d(&[], 0), 0.0);
        assert_eq!(lorenzo_1d(&[5.0, 7.0], 2), 7.0);
    }

    #[test]
    fn d2_boundary_degrades_to_1d() {
        // recon laid out 2x3: [[1,2,3],[4,_,_]]
        let recon = vec![1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
        assert_eq!(lorenzo_2d(&recon, 3, 0, 0), 0.0);
        assert_eq!(lorenzo_2d(&recon, 3, 0, 2), 2.0); // left neighbour
        assert_eq!(lorenzo_2d(&recon, 3, 1, 0), 1.0); // above neighbour
    }

    #[test]
    fn d2_interior_is_planar_exact() {
        // For data on a plane a + b·i + c·j the Lorenzo prediction is exact.
        let cols = 8;
        let plane = |i: usize, j: usize| 2.0 + 0.5 * i as f64 - 1.25 * j as f64;
        let mut recon = vec![0.0; 64];
        for i in 0..8 {
            for j in 0..cols {
                recon[i * cols + j] = plane(i, j);
            }
        }
        for i in 1..8 {
            for j in 1..cols {
                let p = lorenzo_2d(&recon, cols, i, j);
                assert!((p - plane(i, j)).abs() < 1e-12, "({i},{j}): {p}");
            }
        }
    }

    #[test]
    fn d3_interior_is_trilinear_plane_exact() {
        // Lorenzo 3D reproduces any function of the form
        // a + b·i + c·j + d·k + e·ij + f·ik + g·jk exactly (degree-1 per axis
        // cross terms cancel in the inclusion-exclusion).
        let (d1, d2) = (5, 6);
        let f = |i: usize, j: usize, k: usize| {
            1.0 + 0.3 * i as f64 - 0.7 * j as f64 + 0.1 * k as f64 + 0.05 * (i * j) as f64
                - 0.02 * (i * k) as f64
                + 0.04 * (j * k) as f64
        };
        let mut recon = vec![0.0; 4 * d1 * d2];
        for i in 0..4 {
            for j in 0..d1 {
                for k in 0..d2 {
                    recon[(i * d1 + j) * d2 + k] = f(i, j, k);
                }
            }
        }
        for i in 1..4 {
            for j in 1..d1 {
                for k in 1..d2 {
                    let p = lorenzo_3d(&recon, d1, d2, i, j, k);
                    assert!((p - f(i, j, k)).abs() < 1e-9, "({i},{j},{k})");
                }
            }
        }
    }

    #[test]
    fn d3_boundary_faces_degrade() {
        let (d1, d2) = (3, 3);
        let mut recon = vec![0.0; 27];
        for (n, v) in recon.iter_mut().enumerate() {
            *v = n as f64;
        }
        // Origin predicts 0.
        assert_eq!(lorenzo_3d(&recon, d1, d2, 0, 0, 0), 0.0);
        // k-axis edge (i=j=0): 1D along k.
        assert_eq!(lorenzo_3d(&recon, d1, d2, 0, 0, 2), recon[1]);
        // Face i=0: 2D Lorenzo in (j,k); at (j=2,k=2) that is
        // r[0,2,1] + r[0,1,2] − r[0,1,1].
        let at = |i: usize, j: usize, k: usize| recon[(i * d1 + j) * d2 + k];
        let expect_face = at(0, 2, 1) + at(0, 1, 2) - at(0, 1, 1);
        assert_eq!(lorenzo_3d(&recon, d1, d2, 0, 2, 2), expect_face);
    }

    #[test]
    fn lorenzo2_1d_exact_on_linear_and_const_residual_on_quadratic() {
        // 2·r[i−1] − r[i−2] annihilates linear trends exactly...
        let lin: Vec<f64> = (0..20).map(|i| 3.0 + 0.5 * i as f64).collect();
        for idx in 2..20 {
            assert!(
                (lorenzo2_1d(&lin, idx) - lin[idx]).abs() < 1e-12,
                "idx {idx}"
            );
        }
        // ...and leaves the constant second difference on quadratics
        // (where the first-order stencil leaves a *growing* error).
        let quad: Vec<f64> = (0..20).map(|i| 0.25 * (i * i) as f64).collect();
        for idx in 2..20 {
            let resid2 = quad[idx] - lorenzo2_1d(&quad, idx);
            assert!((resid2 - 0.5).abs() < 1e-12, "idx {idx}: {resid2}");
            let resid1 = quad[idx] - lorenzo_1d(&quad, idx);
            assert!(resid1.abs() > resid2.abs(), "order-2 not better at {idx}");
        }
        // Boundary degradations.
        assert_eq!(lorenzo2_1d(&lin, 0), 0.0);
        assert_eq!(lorenzo2_1d(&lin, 1), lin[0]);
    }

    #[test]
    fn lorenzo2_2d_exact_on_per_axis_quadratics() {
        let cols = 10;
        let f = |i: usize, j: usize| {
            1.0 + 0.3 * i as f64 + 0.7 * (i * i) as f64 - 0.2 * j as f64
                + 0.05 * (j * j) as f64
                + 0.01 * (i * j) as f64
                + 0.002 * (i * i * j) as f64
        };
        let mut recon = vec![0.0; 8 * cols];
        for i in 0..8 {
            for j in 0..cols {
                recon[i * cols + j] = f(i, j);
            }
        }
        for i in 2..8 {
            for j in 2..cols {
                let p = lorenzo2_2d(&recon, cols, i, j);
                assert!((p - f(i, j)).abs() < 1e-8, "({i},{j}): {p} vs {}", f(i, j));
            }
        }
    }

    #[test]
    fn lorenzo2_2d_boundary_degrades_to_first_order() {
        let recon: Vec<f64> = (0..30).map(|v| v as f64).collect();
        assert_eq!(lorenzo2_2d(&recon, 6, 1, 3), lorenzo_2d(&recon, 6, 1, 3));
        assert_eq!(lorenzo2_2d(&recon, 6, 3, 1), lorenzo_2d(&recon, 6, 3, 1));
    }

    #[test]
    fn lorenzo2_3d_exact_on_per_axis_quadratics() {
        let (d1, d2) = (6, 7);
        let f = |i: usize, j: usize, k: usize| {
            2.0 + 0.1 * (i * i) as f64 - 0.2 * (j * j) as f64
                + 0.3 * (k * k) as f64
                + 0.01 * (i * j * k) as f64
        };
        let mut recon = vec![0.0; 6 * d1 * d2];
        for i in 0..6 {
            for j in 0..d1 {
                for k in 0..d2 {
                    recon[(i * d1 + j) * d2 + k] = f(i, j, k);
                }
            }
        }
        for i in 2..6 {
            for j in 2..d1 {
                for k in 2..d2 {
                    let p = lorenzo2_3d(&recon, d1, d2, i, j, k);
                    assert!((p - f(i, j, k)).abs() < 1e-8, "({i},{j},{k})");
                }
            }
        }
    }

    #[test]
    fn window_fast_paths_match_naive_formulas_bitwise() {
        // The interior window-slice arms must reproduce the guarded
        // indexed formulas *bit for bit* (container stability depends on
        // it), so compare via to_bits on awkward values, including a
        // negative zero and denormal-scale samples.
        let (rows, cols) = (7usize, 9usize);
        let mut recon: Vec<f64> = (0..rows * cols)
            .map(|n| ((n as f64) * 0.7371).sin() * 1e3 + (n % 5) as f64 * 1e-310)
            .collect();
        recon[3 * cols + 4] = -0.0;
        for i in 1..rows {
            for j in 1..cols {
                let naive = recon[i * cols + j - 1] + recon[(i - 1) * cols + j]
                    - recon[(i - 1) * cols + j - 1];
                assert_eq!(lorenzo_2d(&recon, cols, i, j).to_bits(), naive.to_bits());
            }
        }
        for i in 2..rows {
            for j in 2..cols {
                let at = |a: usize, b: usize| recon[(i - a) * cols + (j - b)];
                let mut naive = 0.0;
                for a in 0..=2usize {
                    for b in 0..=2usize {
                        if a == 0 && b == 0 {
                            continue;
                        }
                        let sign = if (a + b) % 2 == 0 { -1.0 } else { 1.0 };
                        naive += sign * c2(a) * c2(b) * at(a, b);
                    }
                }
                assert_eq!(lorenzo2_2d(&recon, cols, i, j).to_bits(), naive.to_bits());
            }
        }
        let (d0, d1, d2) = (4usize, 5usize, 6usize);
        let recon3: Vec<f64> = (0..d0 * d1 * d2)
            .map(|n| ((n as f64) * 1.618).cos() / 3.0)
            .collect();
        for i in 1..d0 {
            for j in 1..d1 {
                for k in 1..d2 {
                    let at = |a: usize, b: usize, c: usize| {
                        recon3[((i - a) * d1 + (j - b)) * d2 + (k - c)]
                    };
                    let naive = at(0, 0, 1) + at(0, 1, 0) + at(1, 0, 0)
                        - at(0, 1, 1)
                        - at(1, 0, 1)
                        - at(1, 1, 0)
                        + at(1, 1, 1);
                    assert_eq!(
                        lorenzo_3d(&recon3, d1, d2, i, j, k).to_bits(),
                        naive.to_bits(),
                        "({i},{j},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn predictor_kind_tags_roundtrip() {
        assert_eq!(
            PredictorKind::from_tag(PredictorKind::Lorenzo1.tag()),
            Some(PredictorKind::Lorenzo1)
        );
        assert_eq!(
            PredictorKind::from_tag(PredictorKind::Lorenzo2.tag()),
            Some(PredictorKind::Lorenzo2)
        );
        assert_eq!(
            PredictorKind::from_tag(PredictorKind::Regression.tag()),
            Some(PredictorKind::Regression)
        );
        assert_eq!(
            PredictorKind::from_tag(PredictorKind::Spline.tag()),
            Some(PredictorKind::Spline)
        );
        assert_eq!(PredictorKind::from_tag(0), None);
        assert_eq!(PredictorKind::from_tag(99), None);
    }

    #[test]
    fn regression_fit_is_exact_on_planes_and_f32_stable() {
        // An exact plane (f32-representable coefficients) fits exactly:
        // residuals vanish and the stored payload reproduces the model.
        let cols = 9usize;
        let plane = |i: usize, j: usize| 2.5 + 0.5 * i as f64 - 0.25 * j as f64;
        let data: Vec<f64> = (0..7 * cols)
            .map(|lin| plane(lin / cols, lin % cols))
            .collect();
        let shape = Shape::D2(7, cols);
        let c = fit_regression(&data, shape);
        let model = PredictorModel::Regression(c);
        for (lin, &x) in data.iter().enumerate() {
            let p = model.predict(&[], shape, lin); // prefix unused
            assert!((p - x).abs() < 1e-9, "lin {lin}: {p} vs {x}");
        }
        let back = PredictorModel::from_tag_and_coeffs(model.tag(), &model.coeff_bytes()).unwrap();
        assert_eq!(back, model);
    }

    #[test]
    fn regression_fit_skips_non_finite_and_survives_empty() {
        let shape = Shape::D1(8);
        let mut data = vec![1.0f64; 8];
        data[3] = f64::NAN;
        let c = fit_regression(&data, shape);
        assert!(c.iter().all(|b| b.is_finite()));
        assert!((c[0] - 1.0).abs() < 1e-6);
        let all_nan = vec![f64::NAN; 8];
        assert_eq!(fit_regression(&all_nan, shape), [0.0; 4]);
    }

    /// The odometer form of [`plane_sums`] it replaced: one pass over the
    /// samples, coordinates advanced like an odometer, every axis's sums
    /// updated per sample.
    fn plane_sums_odometer<T: ndfield::Scalar>(
        data: &[T],
        shape: Shape,
        cbar: &[f64; 3],
    ) -> PlaneSums {
        let dims = shape.dims();
        let rank = dims.len();
        let mut acc = PlaneSums::default();
        let mut next = [0usize; 3];
        for v in data {
            let coords = next;
            for a in (0..rank).rev() {
                next[a] += 1;
                if a == 0 || next[a] < dims[a] {
                    break;
                }
                next[a] = 0;
            }
            let x = v.to_f64();
            if !x.is_finite() {
                continue;
            }
            acc.n += 1.0;
            acc.sx += x;
            for a in 0..rank {
                let u = coords[a] as f64 - cbar[a];
                acc.su[a] += u;
                acc.sxu[a] += x * u;
                acc.suu[a] += u * u;
            }
        }
        acc
    }

    /// The bits of every running sum.
    fn sum_bits(s: &PlaneSums) -> Vec<u64> {
        [s.n, s.sx]
            .iter()
            .chain(&s.su)
            .chain(&s.sxu)
            .chain(&s.suu)
            .map(|x| x.to_bits())
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn row_fit_is_the_odometer_fit_bit_for_bit(
            rank in 1usize..4,
            d0 in 0usize..40,
            d1 in 1usize..30,
            d2 in 1usize..30,
            seed in proptest::prelude::any::<u64>(),
            non_finite in 0usize..3,
        ) {
            let shape = match rank {
                1 => Shape::D1(d0 * d1 * d2),
                2 => Shape::D2(d0, d1 * d2),
                _ => Shape::D3(d0, d1, d2),
            };
            let mut s = seed | 1;
            let scale = [1e-6, 1.0, 3e4][(seed % 3) as usize];
            let data: Vec<f64> = (0..shape.len())
                .map(|lin| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    // non_finite = 0: none; 1: about one in 37; 2: about half.
                    let bad = match non_finite {
                        0 => false,
                        1 => s.is_multiple_of(37),
                        _ => s.is_multiple_of(2),
                    };
                    if bad {
                        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(s >> 8) as usize % 3]
                    } else {
                        (lin as f64 * 0.37).sin() * scale + (s >> 11) as f64 / (1u64 << 53) as f64
                    }
                })
                .collect();
            // The f32 rounding of the slopes hides most summation-order
            // changes, so the sums themselves are compared too.
            let dims = shape.dims();
            let mut cbar = [0.0f64; 3];
            for (a, &d) in dims.iter().enumerate() {
                cbar[a] = (d as f64 - 1.0) / 2.0;
            }
            let bits = |c: [f64; 4]| c.map(f64::to_bits);
            let narrow: Vec<f32> = data.iter().map(|&x| x as f32).collect();
            let (rows, rows32) = (plane_sums(&data, shape, &cbar), plane_sums(&narrow, shape, &cbar));
            let (odo, odo32) = (
                plane_sums_odometer(&data, shape, &cbar),
                plane_sums_odometer(&narrow, shape, &cbar),
            );
            proptest::prop_assert_eq!(sum_bits(&rows), sum_bits(&odo));
            proptest::prop_assert_eq!(sum_bits(&rows32), sum_bits(&odo32));
            proptest::prop_assert_eq!(
                bits(fit_regression(&data, shape)),
                bits(odo.plane(dims.len(), &cbar))
            );
            proptest::prop_assert_eq!(
                bits(fit_regression(&narrow, shape)),
                bits(odo32.plane(dims.len(), &cbar))
            );
        }
    }

    #[test]
    fn spline_exact_on_row_quadratics_with_lorenzo_fallback() {
        // Zeroing the third backward difference reproduces degree ≤ 2
        // polynomials exactly (a cubic term would leave a constant 6·a₃
        // residual per step).
        let cols = 12usize;
        let f = |j: usize| 1.0 - 0.5 * j as f64 + 0.125 * (j * j) as f64;
        let mut recon = vec![0.0; 3 * cols];
        for i in 0..3 {
            for j in 0..cols {
                recon[i * cols + j] = f(j) + i as f64;
            }
        }
        let shape = Shape::D2(3, cols);
        for i in 0..3 {
            for j in 3..cols {
                let lin = i * cols + j;
                let p = spline_predict(&recon, shape, lin);
                assert!((p - recon[lin]).abs() < 1e-9, "({i},{j}): {p}");
            }
            for j in 0..3 {
                let lin = i * cols + j;
                assert_eq!(
                    spline_predict(&recon, shape, lin).to_bits(),
                    predict(&recon, shape, lin).to_bits()
                );
            }
        }
    }

    #[test]
    fn predictor_model_replay_equals_predict_bitwise() {
        let recon: Vec<f64> = (0..60).map(|v| ((v as f64) * 0.613).sin() * 40.0).collect();
        let models = [
            PredictorModel::Lorenzo1,
            PredictorModel::Lorenzo2,
            PredictorModel::Regression([0.5, -0.1, 0.2, 0.0]),
            PredictorModel::Spline,
        ];
        for shape in [Shape::D1(60), Shape::D2(6, 10), Shape::D3(3, 4, 5)] {
            for m in models {
                for lin in 0..shape.len() {
                    assert_eq!(
                        m.predict(&recon, shape, lin).to_bits(),
                        m.replay(&recon, shape, lin).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn predict_with_dispatches() {
        let recon: Vec<f64> = (0..24).map(|v| (v * v) as f64).collect();
        assert_eq!(
            predict_with(PredictorKind::Lorenzo1, &recon, Shape::D1(24), 5),
            lorenzo_1d(&recon, 5)
        );
        assert_eq!(
            predict_with(PredictorKind::Lorenzo2, &recon, Shape::D1(24), 5),
            lorenzo2_1d(&recon, 5)
        );
    }

    #[test]
    fn generic_predict_matches_specific() {
        let recon: Vec<f64> = (0..24).map(|v| (v as f64).sqrt()).collect();
        // 1D
        for lin in 0..24 {
            assert_eq!(predict(&recon, Shape::D1(24), lin), lorenzo_1d(&recon, lin));
        }
        // 2D 4x6
        for lin in 0..24 {
            assert_eq!(
                predict(&recon, Shape::D2(4, 6), lin),
                lorenzo_2d(&recon, 6, lin / 6, lin % 6)
            );
        }
        // 3D 2x3x4
        for lin in 0..24 {
            let k = lin % 4;
            let j = (lin / 4) % 3;
            let i = lin / 12;
            assert_eq!(
                predict(&recon, Shape::D3(2, 3, 4), lin),
                lorenzo_3d(&recon, 3, 4, i, j, k)
            );
        }
    }
}
