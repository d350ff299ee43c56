//! Fused predict–quantize–encode kernels: the single-thread hot path.
//!
//! The reference walk ([`walk_reference`], the codec's spec) dispatches a
//! generic stencil per element (`predict_with`), pays boundary `if`s on
//! every sample, and routes quantization through an `Option`. These kernels
//! restructure the walk into **regions**: each row/plane is split into its
//! boundary (first row/column/plane, where the stencil degrades) and its
//! interior (where the full stencil applies unconditionally). Boundary
//! elements go through the reference stencil; interior elements run in
//! branch-free, dimensionality-specialized loops that fuse prediction,
//! quantization by multiply-with-inverse-bin-width, reconstruction
//! write-back, and code emission into a preallocated `u32` buffer. Entropy
//! coding happens in a second tight pass over that buffer (see
//! `HuffmanCodec::encode`'s word-at-a-time pair emission).
//!
//! # Bit-identity is a hard invariant
//!
//! Containers produced through these kernels must be **byte-identical** to
//! the reference walk's: the format-stability goldens pin the bytes, and
//! the paper's Theorem 1 (compressor and decompressor see the same
//! reconstruction) only survives if every float op happens in the same
//! order with the same operands. Three rules keep that true:
//!
//! 1. The quantizer step multiplies by `LinearQuantizer::inv_bin_width`
//!    — the *same* precomputed factor the reference `quantize` uses — and
//!    replicates its rounding, range test, and midpoint reconstruction
//!    operation for operation. Rounding uses the branch-free
//!    `ROUND_MAGIC` form, proven bit-equal to `f64::round` on every
//!    finite input; ∞ saturates the integer cast outside the code range
//!    and NaN fails the bound re-check, so both escape exactly like the
//!    reference's `is_finite` + range gate.
//! 2. Interior loops spell out the stencil with the reference's exact
//!    left-associated operand order (e.g. the 3-D chain
//!    `t1 + t2 + t3 − t4 − t5 − t6 + t7`), and the Lorenzo² accumulation
//!    uses the same `pred += c · r` sequence with the constant-folded
//!    weights the reference's multiply chain produces exactly.
//! 3. Boundary elements — where the reference inserts literal `0.0`
//!    terms whose additions canonicalize `-0.0` to `+0.0` — are never
//!    re-derived; they call the reference stencil itself.
//!
//! Compression and decompression share one region-decomposition driver
//! (`drive_range`) parameterized over an element sink, so the decode
//! mirror cannot drift from the walk by construction.
//!
//! # Wavefront row pairing (both directions)
//!
//! The walk's throughput ceiling is the loop-carried reconstruction
//! chain: each prediction reads the value the previous emit just wrote,
//! so one row is one long serial floating-point dependency. Both walks
//! therefore schedule two adjacent interior rows together, the second
//! lagging the first by one column (`l1_pair` and friends). The
//! anti-diagonal independence of the Lorenzo stencils means every input
//! an element reads is finalized before it runs, so per-element values
//! are bit-identical to the sequential order. The only order-sensitive
//! state is the escape stream, handled per direction:
//!
//! - **compress** buffers the lagging row's escape values and appends
//!   them at pair end (`flush_pair`), so the stream stays in scan order;
//! - **decode** cannot buffer — it *consumes* the stream — but it holds
//!   the pair's quantization codes before reconstructing, so `begin_pair`
//!   counts the `ESCAPE` codes in the leading row and places a second
//!   cursor exactly where the lagging row's escapes start. `flush_pair`
//!   folds that cursor back into the main one.
//!
//! Either way the schedule is invisible in the bytes and in the samples.
//!
//! # Wavefront row quads and SIMD dispatch
//!
//! At dispatch levels ≥ SSE2 (`losslesskit::simd::active()`), interior
//! Lorenzo¹ rows run four at a time, lane *t* trailing the leader by *t*
//! columns — the pair argument generalized: every input a lane reads was
//! finalized in an earlier step, so values are bit-identical to the
//! sequential order, and the escape stream routes through three deferred
//! buffers (compress) or three precomputed lagging cursors (decode). The
//! quad body is scalar at every level ≥ SSE2: four independent stencil
//! chains of plain `f64` adds in the sequential operand order, so the same
//! bits again (a 4-lane AVX2 body measured slower and was removed, DESIGN
//! §17.3). `FPSNR_SIMD=off` (or non-x86-64) skips the Lorenzo quads
//! entirely and keeps the pair schedule with no `unsafe` reachable.
//! Spline rows get a quad too, at every level: past their three fallback
//! columns a spline row reads only itself, so its four lanes step in
//! lockstep with no lag, and the quad is safe code. Containers are
//! byte-identical at every level; only the wall clock changes.
//!
//! # Coefficient and spline rows
//!
//! Regression and spline models run their own row drivers
//! (`drive_regression`, `drive_spline`): the loops carry the coordinates
//! and the spline's three predecessors, and evaluate the very expressions
//! of `regression_predict`/`spline_predict` — no fused multiply-add, no
//! reordering — so they match the reference walk bit for bit.
//!
//! # Resuming a walk
//!
//! No predictor reads the outer extent of the shape, so the walk over the
//! leading whole-row slab of a field is exactly the prefix of the walk
//! over the field. `walk_fused_resume` continues such a slab walk (the
//! `Auto` bake-off winner's, see [`crate::select`]) over the rest.

use crate::config::EscapeCoding;
use crate::error::SzError;
use crate::predictor::{predict, predict_with, Predictor, PredictorKind, PredictorModel};
use crate::quantizer::{LinearQuantizer, ESCAPE};
use crate::unpredictable;
use losslesskit::simd::{self, SimdLevel};
use ndfield::{Scalar, Shape};

/// Output of a fused prediction + quantization walk.
pub struct WalkResult<T: Scalar> {
    /// One quantization code per sample, scan order; `ESCAPE` marks
    /// unpredictable samples.
    pub codes: Vec<u32>,
    /// Escaped samples, in scan order.
    pub unpred: Vec<T>,
}

/// Per-element processing shared by the walk and its decode mirror: given
/// the element's linear index and its prediction, produce the value the
/// reconstruction buffer must see.
trait ElementSink {
    fn emit(&mut self, lin: usize, pred: f64) -> Result<f64, SzError>;

    /// [`Self::emit`] for an element of the *lagging* row of a wavefront
    /// row pair: identical arithmetic, but order-sensitive side effects
    /// (the escape payload) must be routed through pair-aware state —
    /// the walk sink defers its escape values until [`Self::flush_pair`],
    /// the decode sink pops from the lagging cursor primed by
    /// [`Self::begin_pair`]. The default forwards to `emit`, which is
    /// only correct for sinks with no order-sensitive state.
    #[inline(always)]
    fn emit_lagged(&mut self, lin: usize, pred: f64) -> Result<f64, SzError> {
        self.emit(lin, pred)
    }

    /// Called at the start of a wavefront pair — before any element of
    /// either row is emitted — with the *leading* row's linear range.
    /// Sinks that consume an ordered stream (the decode sink's escape
    /// cursor) use it to position their lagging-row state; producers
    /// ignore it.
    #[inline]
    fn begin_pair(&mut self, _a_start: usize, _a_end: usize) {}

    /// Called once both rows of a wavefront pair have completed; folds
    /// any buffered or forked lagging-row state back into scan order.
    #[inline]
    fn flush_pair(&mut self) {}

    /// [`Self::emit`] for an element of lagging lane `lane ∈ 1..=3` of a
    /// wavefront row *quad*. Generalizes [`Self::emit_lagged`] (which is
    /// lane 1 of a pair): identical arithmetic, but order-sensitive side
    /// effects route through per-lane state so the escape stream stays in
    /// scan order. The default forwards to `emit`, which is only correct
    /// for sinks with no order-sensitive state.
    #[inline(always)]
    fn emit_lane(&mut self, _lane: usize, lin: usize, pred: f64) -> Result<f64, SzError> {
        self.emit(lin, pred)
    }

    /// Called at the start of a wavefront quad — before any element of
    /// any of the four rows is emitted — with the linear index of the
    /// leading row's first element and the row stride. Rows `t ∈ 0..4`
    /// occupy `a_start + t·row_len .. a_start + (t+1)·row_len`. Sinks
    /// that consume an ordered stream use the three leading rows' codes
    /// to place their per-lane cursors; producers ignore it.
    #[inline]
    fn begin_quad(&mut self, _a_start: usize, _row_len: usize) {}

    /// Called once all four rows of a wavefront quad have completed;
    /// folds per-lane state back into scan order (lane 1, then 2, then 3).
    #[inline]
    fn flush_quad(&mut self) {}
}

/// Largest `f64` strictly below one half (`0.5 − 2⁻⁵⁴`). Adding it with
/// the operand's sign and then truncating toward zero rounds
/// half-away-from-zero: the result equals `f64::round` **bit for bit**
/// for every finite input (this is the magic-constant expansion LLVM
/// itself emits for `llvm.round.f64` on targets with native truncation).
/// The walk spells it out because the SSE2 baseline lowers `f64::round`
/// to an out-of-line soft-float call sitting on the hot loop's serial
/// dependency chain; the fused form is a native add + `cvttsd2si`.
pub(crate) const ROUND_MAGIC: f64 = 0.499_999_999_999_999_94;

/// Sink for the compression walk: quantize the prediction error, emit the
/// code, stash escapes.
struct WalkSink<'a, T: Scalar> {
    data: &'a [T],
    codes: &'a mut [u32],
    unpred: &'a mut Vec<T>,
    /// Escapes from the lagging rows of the wavefront pair or quad in
    /// flight, one buffer per lagging lane, appended to `unpred` in lane
    /// order at [`ElementSink::flush_pair`]/[`ElementSink::flush_quad`]
    /// so the escape stream stays in scan order.
    deferred: [Vec<T>; 3],
    eb: f64,
    inv_bin: f64,
    /// Largest representable |q|: `radius − 1`.
    qmax: u64,
    radius: i64,
    escape: EscapeCoding,
}

impl<T: Scalar> WalkSink<'_, T> {
    #[cold]
    fn emit_escape(&mut self, lin: usize, xv: T, x: f64, lane: usize) -> f64 {
        self.codes[lin] = ESCAPE;
        if lane == 0 {
            self.unpred.push(xv);
        } else {
            self.deferred[lane - 1].push(xv);
        }
        // The walk must see the value the decoder will reconstruct: the
        // exact bits, or the bound-respecting truncation.
        match self.escape {
            EscapeCoding::Exact => x,
            EscapeCoding::Truncated => unpredictable::truncate_to_bound(xv, self.eb)
                .unwrap_or(xv)
                .to_f64(),
        }
    }

    #[inline(always)]
    fn quantize_emit(&mut self, lin: usize, pred: f64, lane: usize) -> f64 {
        let xv = self.data[lin];
        let x = xv.to_f64();
        let err = x - pred;
        let scaled = err * self.inv_bin;
        // Branch-free round-half-away-from-zero (see [`ROUND_MAGIC`]):
        // bit-equal to the reference's `scaled.round()` for every finite
        // input, while the saturating cast sends ±∞ and |scaled| ≥ 2⁶³
        // far outside `qmax`. A NaN `scaled` casts to 0 and slips this
        // gate, but then fails the bound check below (NaN comparisons are
        // false) and escapes exactly like the reference's finiteness gate.
        let q = (scaled + ROUND_MAGIC.copysign(scaled)) as i64;
        if q.unsigned_abs() <= self.qmax {
            let rerr = (q as f64) * 2.0 * self.eb;
            // Round through the target precision: the decompressor emits
            // T, so the bound must hold after that cast, and the walk
            // must see the exact emitted value.
            let xr = T::from_f64(pred + rerr);
            let xrf = xr.to_f64();
            if (x - xrf).abs() <= self.eb {
                self.codes[lin] = (self.radius + q) as u32;
                return xrf;
            }
        }
        self.emit_escape(lin, xv, x, lane)
    }
}

impl<T: Scalar> ElementSink for WalkSink<'_, T> {
    #[inline(always)]
    fn emit(&mut self, lin: usize, pred: f64) -> Result<f64, SzError> {
        Ok(self.quantize_emit(lin, pred, 0))
    }

    #[inline(always)]
    fn emit_lagged(&mut self, lin: usize, pred: f64) -> Result<f64, SzError> {
        Ok(self.quantize_emit(lin, pred, 1))
    }

    #[inline(always)]
    fn emit_lane(&mut self, lane: usize, lin: usize, pred: f64) -> Result<f64, SzError> {
        Ok(self.quantize_emit(lin, pred, lane))
    }

    #[inline]
    fn flush_pair(&mut self) {
        self.unpred.append(&mut self.deferred[0]);
    }

    #[inline]
    fn flush_quad(&mut self) {
        for lane in &mut self.deferred {
            self.unpred.append(lane);
        }
    }
}

/// Sink for the decode mirror: map codes back to reconstructions,
/// consuming the escape stream in scan order.
struct DecodeSink<'a, T: Scalar> {
    /// Codes for the linear range being decoded (chunk-relative).
    codes: &'a [u32],
    /// Linear index of `codes[0]`.
    base: usize,
    out: &'a mut [T],
    unpred: &'a [T],
    next_unpred: &'a mut usize,
    /// Escape cursors for the lagging rows of the wavefront pair or quad
    /// in flight (lane `t` uses `lag_unpred[t − 1]`).
    /// [`ElementSink::begin_pair`]/[`ElementSink::begin_quad`] place each
    /// past the preceding rows' escapes (counted from the codes, which
    /// the decoder holds before reconstructing);
    /// [`ElementSink::flush_pair`]/[`ElementSink::flush_quad`] fold the
    /// last back into `next_unpred`.
    lag_unpred: [usize; 3],
    eb: f64,
    radius: i64,
    alphabet: u32,
}

impl<T: Scalar> DecodeSink<'_, T> {
    #[cold]
    fn emit_escape(&mut self, lin: usize, lane: usize) -> Result<f64, SzError> {
        let cursor = if lane == 0 {
            *self.next_unpred
        } else {
            self.lag_unpred[lane - 1]
        };
        if cursor >= self.unpred.len() {
            return Err(SzError::Format("more escapes than stored values"));
        }
        let v = self.unpred[cursor];
        if lane == 0 {
            *self.next_unpred = cursor + 1;
        } else {
            self.lag_unpred[lane - 1] = cursor + 1;
        }
        self.out[lin] = v;
        Ok(v.to_f64())
    }

    #[inline(always)]
    fn emit_at(&mut self, lin: usize, pred: f64, lane: usize) -> Result<f64, SzError> {
        let code = self.codes[lin - self.base];
        if code != ESCAPE {
            if code >= self.alphabet {
                return Err(SzError::Format("quantization code out of range"));
            }
            let v = T::from_f64(pred + (code as i64 - self.radius) as f64 * 2.0 * self.eb);
            self.out[lin] = v;
            Ok(v.to_f64())
        } else {
            self.emit_escape(lin, lane)
        }
    }

    /// Escape count of the code span `start..start + len` (linear indices).
    fn span_escapes(&self, start: usize, len: usize) -> usize {
        self.codes[start - self.base..start - self.base + len]
            .iter()
            .filter(|&&c| c == ESCAPE)
            .count()
    }
}

impl<T: Scalar> ElementSink for DecodeSink<'_, T> {
    #[inline(always)]
    fn emit(&mut self, lin: usize, pred: f64) -> Result<f64, SzError> {
        self.emit_at(lin, pred, 0)
    }

    #[inline(always)]
    fn emit_lagged(&mut self, lin: usize, pred: f64) -> Result<f64, SzError> {
        self.emit_at(lin, pred, 1)
    }

    #[inline(always)]
    fn emit_lane(&mut self, lane: usize, lin: usize, pred: f64) -> Result<f64, SzError> {
        self.emit_at(lin, pred, lane)
    }

    #[inline]
    fn begin_pair(&mut self, a_start: usize, a_end: usize) {
        // Every escape the leading row will consume is already visible in
        // its codes, so the lagging row's first escape index is computable
        // up front — this is what makes decode-side pairing sound.
        let lead_escapes = self.span_escapes(a_start, a_end - a_start);
        self.lag_unpred[0] = *self.next_unpred + lead_escapes;
    }

    #[inline]
    fn flush_pair(&mut self) {
        *self.next_unpred = self.lag_unpred[0];
    }

    #[inline]
    fn begin_quad(&mut self, a_start: usize, row_len: usize) {
        // Same reasoning as `begin_pair`, one row deeper each lane: lane
        // t's escapes start after every escape of rows 0..t, all of which
        // are visible in the codes before reconstruction begins.
        let mut cursor = *self.next_unpred;
        for t in 0..3 {
            cursor += self.span_escapes(a_start + t * row_len, row_len);
            self.lag_unpred[t] = cursor;
        }
    }

    #[inline]
    fn flush_quad(&mut self) {
        *self.next_unpred = self.lag_unpred[2];
    }
}

/// Run the region-decomposed walk over the linear range `start..end`,
/// which must cover whole outer-dimension slices. `recon[..start]` must
/// already hold the reconstructions of every earlier sample. Interior
/// rows run in wavefront pairs (pairs never straddle the range ends, so
/// chunked decodes only lose pairing at chunk seams, never correctness).
fn drive_range<S: ElementSink>(
    shape: Shape,
    model: PredictorModel,
    start: usize,
    end: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    if start >= end {
        return Ok(());
    }
    // One dispatch-level sample per range: the Lorenzo quad wavefronts
    // (scalar four-chain bodies at every level) engage at SSE2 and above;
    // `Off` keeps the pair/row schedules, which are the mandatory
    // no-`unsafe` fallback. Every level produces byte-identical containers
    // (see the module docs), so the sample point is a pure performance
    // choice.
    let level = simd::active();
    let kind = match model {
        PredictorModel::Lorenzo1 => PredictorKind::Lorenzo1,
        PredictorModel::Lorenzo2 => PredictorKind::Lorenzo2,
        PredictorModel::Regression(c) => {
            return drive_regression(shape, &c, start, end, recon, sink)
        }
        PredictorModel::Spline => return drive_spline(shape, start, end, recon, sink),
    };
    match shape {
        Shape::D1(_) => drive_1d(shape, kind, start, end, recon, sink),
        Shape::D2(_, cols) => walk_2d(kind, cols, start, end, recon, sink, level),
        Shape::D3(_, d1, d2) => walk_3d(shape, kind, d1, d2, start, end, recon, sink, level),
    }
}

/// Regression rows: the plane is evaluated with
/// [`crate::predictor::regression_predict`]'s exact left-associated
/// expression `c₀ + c₁·i + c₂·j + c₃·k`, but the loops carry the
/// coordinates instead of dividing them out of every linear index. The
/// prediction never reads `recon`, so rows need no wavefront schedule.
fn drive_regression<S: ElementSink>(
    shape: Shape,
    c: &[f64; 4],
    start: usize,
    end: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    match shape {
        Shape::D1(_) => {
            for (slot, lin) in recon[start..end].iter_mut().zip(start..end) {
                *slot = sink.emit(lin, c[0] + c[1] * lin as f64)?;
            }
        }
        Shape::D2(_, cols) => {
            for i in start / cols..end / cols {
                let row = i * cols;
                let base = c[0] + c[1] * i as f64;
                for j in 0..cols {
                    let pred = base + c[2] * j as f64;
                    recon[row + j] = sink.emit(row + j, pred)?;
                }
            }
        }
        Shape::D3(_, d1, d2) => {
            for r in start / d2..end / d2 {
                let row = r * d2;
                let base = c[0] + c[1] * (r / d1) as f64 + c[2] * (r % d1) as f64;
                for k in 0..d2 {
                    let pred = base + c[3] * k as f64;
                    recon[row + k] = sink.emit(row + k, pred)?;
                }
            }
        }
    }
    Ok(())
}

/// Spline rows along the fastest axis. The first three columns of a row
/// take [`crate::predictor::spline_predict`]'s first-order Lorenzo
/// fallback through the reference stencil; the rest evaluate its cubic
/// `3·r[k−1] − 3·r[k−2] + r[k−3]` on the three values the loop carries.
/// Rows run four at a time ([`spline_quad`]); the row loop takes the
/// fewer than four that remain.
fn drive_spline<S: ElementSink>(
    shape: Shape,
    start: usize,
    end: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    let row_len = match shape {
        Shape::D1(_) => {
            for lin in start..end.min(3) {
                recon[lin] = sink.emit(lin, predict(recon, shape, lin))?;
            }
            return spline_run(start.max(3), end, recon, sink);
        }
        Shape::D2(_, cols) => cols,
        Shape::D3(_, _, d2) => d2,
    };
    let (mut r, r1) = (start / row_len, end / row_len);
    if row_len >= 4 {
        while r + 3 < r1 {
            spline_quad(shape, row_len, r * row_len, recon, sink)?;
            r += 4;
        }
    }
    while r < r1 {
        let row = r * row_len;
        for lin in row..row + row_len.min(3) {
            recon[lin] = sink.emit(lin, predict(recon, shape, lin))?;
        }
        spline_run(row + 3, row + row_len, recon, sink)?;
        r += 1;
    }
    Ok(())
}

/// The spline's cubic over `start..end`, all of whose elements have three
/// same-row predecessors (an empty range when `start ≥ end`).
fn spline_run<S: ElementSink>(
    start: usize,
    end: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    if start >= end {
        return Ok(());
    }
    let (mut p1, mut p2, mut p3) = (recon[start - 1], recon[start - 2], recon[start - 3]);
    for (slot, lin) in recon[start..end].iter_mut().zip(start..end) {
        let r = sink.emit(lin, 3.0 * p1 - 3.0 * p2 + p3)?;
        *slot = r;
        p3 = p2;
        p2 = p1;
        p1 = r;
    }
    Ok(())
}

/// Spline rows `rowa/row_len` through `+3` as a quad (`row_len ≥ 4`). The
/// three fallback columns of each row read the row above, so they run
/// first, row by row in scan order; from column 3 on a row reads only
/// itself, so the four rows step their cubics in lockstep — four
/// independent chains, each lane carrying its own three predecessors.
/// Escapes route through the lane hooks exactly as in [`l1_quad`].
fn spline_quad<S: ElementSink>(
    shape: Shape,
    row_len: usize,
    rowa: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    sink.begin_quad(rowa, row_len);
    for lane in 0..4 {
        let row = rowa + lane * row_len;
        for lin in row..row + 3 {
            recon[lin] = sink.emit_lane(lane, lin, predict(recon, shape, lin))?;
        }
    }
    let (a, rest) = recon[rowa..rowa + 4 * row_len].split_at_mut(row_len);
    let (b, rest) = rest.split_at_mut(row_len);
    let (c, d) = rest.split_at_mut(row_len);
    let (mut a1, mut a2, mut a3) = (a[2], a[1], a[0]);
    let (mut b1, mut b2, mut b3) = (b[2], b[1], b[0]);
    let (mut c1, mut c2, mut c3) = (c[2], c[1], c[0]);
    let (mut d1, mut d2, mut d3) = (d[2], d[1], d[0]);
    let (rowb, rowc, rowd) = (rowa + row_len, rowa + 2 * row_len, rowa + 3 * row_len);
    for k in 3..row_len {
        let ra = sink.emit(rowa + k, 3.0 * a1 - 3.0 * a2 + a3)?;
        a[k] = ra;
        (a3, a2, a1) = (a2, a1, ra);
        let rb = sink.emit_lane(1, rowb + k, 3.0 * b1 - 3.0 * b2 + b3)?;
        b[k] = rb;
        (b3, b2, b1) = (b2, b1, rb);
        let rc = sink.emit_lane(2, rowc + k, 3.0 * c1 - 3.0 * c2 + c3)?;
        c[k] = rc;
        (c3, c2, c1) = (c2, c1, rc);
        let rd = sink.emit_lane(3, rowd + k, 3.0 * d1 - 3.0 * d2 + d3)?;
        d[k] = rd;
        (d3, d2, d1) = (d2, d1, rd);
    }
    sink.flush_quad();
    Ok(())
}

/// Boundary element: reference stencil on the full reconstruction prefix.
#[inline]
fn boundary<S: ElementSink>(
    shape: Shape,
    kind: PredictorKind,
    lin: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    let pred = predict_with(kind, recon, shape, lin);
    recon[lin] = sink.emit(lin, pred)?;
    Ok(())
}

/// [`boundary`] for an element of the lagging row of a wavefront pair.
#[inline]
fn boundary_lagged<S: ElementSink>(
    shape: Shape,
    kind: PredictorKind,
    lin: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    let pred = predict_with(kind, recon, shape, lin);
    recon[lin] = sink.emit_lagged(lin, pred)?;
    Ok(())
}

fn drive_1d<S: ElementSink>(
    shape: Shape,
    kind: PredictorKind,
    start: usize,
    end: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    let mut lin = start;
    match kind {
        PredictorKind::Lorenzo1 => {
            if lin == 0 {
                let r = sink.emit(0, 0.0)?;
                recon[0] = r;
                lin = 1;
            }
            if lin < end {
                let mut prev = recon[lin - 1];
                for (slot, l) in recon[lin..end].iter_mut().zip(lin..end) {
                    let r = sink.emit(l, prev)?;
                    *slot = r;
                    prev = r;
                }
            }
        }
        PredictorKind::Lorenzo2 => {
            while lin < end && lin < 2 {
                boundary(shape, kind, lin, recon, sink)?;
                lin += 1;
            }
            if lin < end {
                let mut p1 = recon[lin - 1];
                let mut p2 = recon[lin - 2];
                for (slot, l) in recon[lin..end].iter_mut().zip(lin..end) {
                    let pred = 2.0 * p1 - p2;
                    let r = sink.emit(l, pred)?;
                    *slot = r;
                    p2 = p1;
                    p1 = r;
                }
            }
        }
        _ => unreachable!("only Lorenzo kinds reach the specialized loops"),
    }
    Ok(())
}

/// First grid row: degenerate 1-D Lorenzo (left neighbour only) for both
/// stencils — Lorenzo² with `i < 2` falls back to the first-order form.
fn first_row<S: ElementSink>(
    cols: usize,
    end_col: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    let r = sink.emit(0, 0.0)?;
    recon[0] = r;
    let mut left = r;
    for j in 1..end_col.min(cols) {
        let r = sink.emit(j, left)?;
        recon[j] = r;
        left = r;
    }
    Ok(())
}

/// A row `i ≥ 1` through the first-order three-point stencil
/// `r[i,j−1] + r[i−1,j] − r[i−1,j−1]` (also the Lorenzo² fallback row).
fn l1_row<S: ElementSink>(
    cols: usize,
    row: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    let (head, tail) = recon.split_at_mut(row);
    let up = &head[row - cols..];
    let cur = &mut tail[..cols];
    // j = 0: stencil degrades to the above neighbour.
    let r = sink.emit(row, up[0])?;
    cur[0] = r;
    let mut left = r;
    for j in 1..cols {
        let pred = left + up[j] - up[j - 1];
        let r = sink.emit(row + j, pred)?;
        cur[j] = r;
        left = r;
    }
    Ok(())
}

/// The constant-folded two-layer 8-point 2-D Lorenzo² stencil, with
/// `up1`/`up2` the linear offsets of rows `i−1` and `i−2`. The
/// `pred += c·r` sequence mirrors the reference accumulation with its
/// weights constant-folded (the sign·C(2,a)·C(2,b) products are exact
/// small integers); both the sequential row and the wavefront pair call
/// this one helper so their arithmetic cannot drift apart.
#[inline(always)]
fn l2_stencil_2d(recon: &[f64], l1: f64, l2: f64, up1: usize, up2: usize, j: usize) -> f64 {
    let mut pred = 0.0;
    pred += 2.0 * l1; //                       (a,b) = (0,1)
    pred += -1.0 * l2; //                              (0,2)
    pred += 2.0 * recon[up1 + j]; //                   (1,0)
    pred += -4.0 * recon[up1 + j - 1]; //              (1,1)
    pred += 2.0 * recon[up1 + j - 2]; //               (1,2)
    pred += -1.0 * recon[up2 + j]; //                  (2,0)
    pred += 2.0 * recon[up2 + j - 1]; //               (2,1)
    pred += -1.0 * recon[up2 + j - 2]; //              (2,2)
    pred
}

/// A row `i ≥ 2` through the two-layer stencil (`j < 2` falls back to the
/// first-order form, exactly like the reference predictor).
fn l2_row<S: ElementSink>(
    cols: usize,
    row: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    let up1 = row - cols;
    let up2 = row - 2 * cols;
    let r = sink.emit(row, recon[up1])?;
    recon[row] = r;
    let mut l1 = r;
    if cols >= 2 {
        let pred = l1 + recon[up1 + 1] - recon[up1];
        let r = sink.emit(row + 1, pred)?;
        recon[row + 1] = r;
        let mut l2 = l1;
        l1 = r;
        for j in 2..cols {
            let pred = l2_stencil_2d(recon, l1, l2, up1, up2, j);
            let r = sink.emit(row + j, pred)?;
            recon[row + j] = r;
            l2 = l1;
            l1 = r;
        }
    }
    Ok(())
}


/// The first-order 3-D seven-point stencil: the reference's
/// inclusion–exclusion chain `t1+t2+t3−t4−t5−t6+t7`, left-associated.
/// `rjm1`/`pj`/`pjm1` are the linear offsets of rows (i, j−1, ·),
/// (i−1, j, ·) and (i−1, j−1, ·). Shared by the sequential row and the
/// wavefront pair so their arithmetic cannot drift apart.
#[inline(always)]
fn l1_stencil_3d(recon: &[f64], left: f64, rjm1: usize, pj: usize, pjm1: usize, k: usize) -> f64 {
    left + recon[rjm1 + k] + recon[pj + k]
        - recon[rjm1 + k - 1]
        - recon[pj + k - 1]
        - recon[pjm1 + k]
        + recon[pjm1 + k - 1]
}

/// [`l1_stencil_3d`] with unchecked loads — operand order and
/// associativity identical, so the result bits are identical.
///
/// # Safety
/// `off + k` and `off + k − 1` must be in bounds for all three row
/// offsets. The quad drivers establish this with one hoisted assertion
/// (`last_row + row_len ≤ recon.len()`) at quad entry; every stencil
/// read sits below that bound.
#[inline(always)]
unsafe fn l1_stencil_3d_unchecked(
    recon: &[f64],
    left: f64,
    rjm1: usize,
    pj: usize,
    pjm1: usize,
    k: usize,
) -> f64 {
    unsafe {
        left + *recon.get_unchecked(rjm1 + k) + *recon.get_unchecked(pj + k)
            - *recon.get_unchecked(rjm1 + k - 1)
            - *recon.get_unchecked(pj + k - 1)
            - *recon.get_unchecked(pjm1 + k)
            + *recon.get_unchecked(pjm1 + k - 1)
    }
}

/// The 26-point two-layer 3-D Lorenzo² stencil, weights constant-folded,
/// accumulation order identical to the reference's (a, b, c) loop nest.
/// `r{a}{b}` are the linear offsets of rows (i−a, j−b, ·).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn l2_stencil_3d(
    recon: &[f64],
    l1: f64,
    l2: f64,
    r01: usize,
    r02: usize,
    r10: usize,
    r11: usize,
    r12: usize,
    r20: usize,
    r21: usize,
    r22: usize,
    k: usize,
) -> f64 {
    let mut pred = 0.0;
    pred += 2.0 * l1; //                    (a,b,c) = (0,0,1)
    pred += -1.0 * l2; //                             (0,0,2)
    pred += 2.0 * recon[r01 + k]; //                  (0,1,0)
    pred += -4.0 * recon[r01 + k - 1]; //             (0,1,1)
    pred += 2.0 * recon[r01 + k - 2]; //              (0,1,2)
    pred += -1.0 * recon[r02 + k]; //                 (0,2,0)
    pred += 2.0 * recon[r02 + k - 1]; //              (0,2,1)
    pred += -1.0 * recon[r02 + k - 2]; //             (0,2,2)
    pred += 2.0 * recon[r10 + k]; //                  (1,0,0)
    pred += -4.0 * recon[r10 + k - 1]; //             (1,0,1)
    pred += 2.0 * recon[r10 + k - 2]; //              (1,0,2)
    pred += -4.0 * recon[r11 + k]; //                 (1,1,0)
    pred += 8.0 * recon[r11 + k - 1]; //              (1,1,1)
    pred += -4.0 * recon[r11 + k - 2]; //             (1,1,2)
    pred += 2.0 * recon[r12 + k]; //                  (1,2,0)
    pred += -4.0 * recon[r12 + k - 1]; //             (1,2,1)
    pred += 2.0 * recon[r12 + k - 2]; //              (1,2,2)
    pred += -1.0 * recon[r20 + k]; //                 (2,0,0)
    pred += 2.0 * recon[r20 + k - 1]; //              (2,0,1)
    pred += -1.0 * recon[r20 + k - 2]; //             (2,0,2)
    pred += 2.0 * recon[r21 + k]; //                  (2,1,0)
    pred += -4.0 * recon[r21 + k - 1]; //             (2,1,1)
    pred += 2.0 * recon[r21 + k - 2]; //              (2,1,2)
    pred += -1.0 * recon[r22 + k]; //                 (2,2,0)
    pred += 2.0 * recon[r22 + k - 1]; //              (2,2,1)
    pred += -1.0 * recon[r22 + k - 2]; //             (2,2,2)
    pred
}

/// Plane-interior row `j ≥ 1` of a plane `i ≥ 1` through the first-order
/// stencil; `k = 0` is a boundary element (left neighbours vanish).
fn l1_3d_row<S: ElementSink>(
    shape: Shape,
    kind: PredictorKind,
    d2: usize,
    p: usize,
    row: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    boundary(shape, kind, row, recon, sink)?;
    let rjm1 = row - d2; //       (i, j−1, ·)
    let pj = row - p; //          (i−1, j, ·)
    let pjm1 = row - p - d2; //   (i−1, j−1, ·)
    let mut left = recon[row];
    for k in 1..d2 {
        let pred = l1_stencil_3d(recon, left, rjm1, pj, pjm1, k);
        let r = sink.emit(row + k, pred)?;
        recon[row + k] = r;
        left = r;
    }
    Ok(())
}

/// Plane-interior row `j ≥ 2` of a plane `i ≥ 2` through the two-layer
/// stencil; `k < 2` falls back to the reference per element.
fn l2_3d_row<S: ElementSink>(
    shape: Shape,
    kind: PredictorKind,
    d2: usize,
    p: usize,
    row: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    for lin in row..row + d2.min(2) {
        boundary(shape, kind, lin, recon, sink)?;
    }
    if d2 < 3 {
        return Ok(());
    }
    let (r01, r02) = (row - d2, row - 2 * d2);
    let (r10, r11, r12) = (row - p, row - p - d2, row - p - 2 * d2);
    let (r20, r21, r22) = (row - 2 * p, row - 2 * p - d2, row - 2 * p - 2 * d2);
    let mut l1 = recon[row + 1];
    let mut l2 = recon[row];
    for k in 2..d2 {
        let pred = l2_stencil_3d(recon, l1, l2, r01, r02, r10, r11, r12, r20, r21, r22, k);
        let r = sink.emit(row + k, pred)?;
        recon[row + k] = r;
        l2 = l1;
        l1 = r;
    }
    Ok(())
}


// ---------------------------------------------------------------------
// Wavefront row pairs (both walks).
//
// The reconstruction chain `r → pred → r` is serial within a row, so the
// straight walk is bound by one long floating-point dependency chain. A
// row `i+1` element only needs row `i` up to the same column, so two
// adjacent rows can advance together with the second trailing by one
// column: two independent chains fill the pipeline and nearly double
// throughput. Every element still sees the exact same stencil expression
// (the shared `*_stencil_*` helpers) and the same finalized `recon`
// inputs, so per-element results are bit-identical to the sequential
// schedule. The only order-sensitive state — the escape stream — is
// handled through the sink's pair hooks: each pair opens with
// `begin_pair` over the leading row's range (the decode sink counts the
// ESCAPE codes there to place its lagging cursor) and closes with
// `flush_pair` (the walk sink appends its deferred escape values, the
// decode sink folds the lagging cursor forward). See the module docs.
// ---------------------------------------------------------------------

/// First-order rows `a = rowa/cols ≥ 1` and `a+1` as a wavefront pair.
/// Requires `cols ≥ 2`.
fn l1_pair<S: ElementSink>(
    cols: usize,
    rowa: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    let rowb = rowa + cols;
    let a_up = rowa - cols;
    // The lagging row's "row above" is the leading row itself.
    let b_up = rowa;
    sink.begin_pair(rowa, rowb);
    // A col 0 (above neighbour only), A col 1, then B col 0.
    let r = sink.emit(rowa, recon[a_up])?;
    recon[rowa] = r;
    let mut la = r;
    let pred = la + recon[a_up + 1] - recon[a_up];
    let r = sink.emit(rowa + 1, pred)?;
    recon[rowa + 1] = r;
    la = r;
    let rb = sink.emit_lagged(rowb, recon[b_up])?;
    recon[rowb] = rb;
    let mut lb = rb;
    for j in 2..cols {
        let pa = la + recon[a_up + j] - recon[a_up + j - 1];
        let ra = sink.emit(rowa + j, pa)?;
        recon[rowa + j] = ra;
        la = ra;
        let pb = lb + recon[b_up + j - 1] - recon[b_up + j - 2];
        let rb = sink.emit_lagged(rowb + j - 1, pb)?;
        recon[rowb + j - 1] = rb;
        lb = rb;
    }
    let pb = lb + recon[b_up + cols - 1] - recon[b_up + cols - 2];
    let rb = sink.emit_lagged(rowb + cols - 1, pb)?;
    recon[rowb + cols - 1] = rb;
    sink.flush_pair();
    Ok(())
}

/// Two-layer rows `a = rowa/cols ≥ 2` and `a+1` as a wavefront pair.
/// Requires `cols ≥ 3`.
fn l2_pair<S: ElementSink>(
    cols: usize,
    rowa: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    let rowb = rowa + cols;
    let (a_up1, a_up2) = (rowa - cols, rowa - 2 * cols);
    let (b_up1, b_up2) = (rowa, rowa - cols);
    sink.begin_pair(rowa, rowb);
    // A cols 0–1: first-order fallback, exactly as in `l2_row`.
    let r = sink.emit(rowa, recon[a_up1])?;
    recon[rowa] = r;
    let mut la1 = r;
    let pred = la1 + recon[a_up1 + 1] - recon[a_up1];
    let r = sink.emit(rowa + 1, pred)?;
    recon[rowa + 1] = r;
    let mut la2 = la1;
    la1 = r;
    // B col 0.
    let rb = sink.emit_lagged(rowb, recon[b_up1])?;
    recon[rowb] = rb;
    let mut lb1 = rb;
    // A col 2 (first full stencil), then B col 1 (first-order fallback).
    let pa = l2_stencil_2d(recon, la1, la2, a_up1, a_up2, 2);
    let ra = sink.emit(rowa + 2, pa)?;
    recon[rowa + 2] = ra;
    la2 = la1;
    la1 = ra;
    let pb = lb1 + recon[b_up1 + 1] - recon[b_up1];
    let rb = sink.emit_lagged(rowb + 1, pb)?;
    recon[rowb + 1] = rb;
    let mut lb2 = lb1;
    lb1 = rb;
    for j in 3..cols {
        let pa = l2_stencil_2d(recon, la1, la2, a_up1, a_up2, j);
        let ra = sink.emit(rowa + j, pa)?;
        recon[rowa + j] = ra;
        la2 = la1;
        la1 = ra;
        let pb = l2_stencil_2d(recon, lb1, lb2, b_up1, b_up2, j - 1);
        let rb = sink.emit_lagged(rowb + j - 1, pb)?;
        recon[rowb + j - 1] = rb;
        lb2 = lb1;
        lb1 = rb;
    }
    let pb = l2_stencil_2d(recon, lb1, lb2, b_up1, b_up2, cols - 1);
    let rb = sink.emit_lagged(rowb + cols - 1, pb)?;
    recon[rowb + cols - 1] = rb;
    sink.flush_pair();
    Ok(())
}

/// First-order plane rows `j ≥ 1` and `j+1` (plane `i ≥ 1`) as a
/// wavefront pair. Requires `d2 ≥ 2`.
fn l1_3d_pair<S: ElementSink>(
    shape: Shape,
    kind: PredictorKind,
    d2: usize,
    p: usize,
    rowa: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    let rowb = rowa + d2;
    let (a_rjm1, a_pj, a_pjm1) = (rowa - d2, rowa - p, rowa - p - d2);
    // The lagging row's (i, j−1, ·) row is the leading row itself.
    let (b_rjm1, b_pj, b_pjm1) = (rowa, rowb - p, rowa - p);
    sink.begin_pair(rowa, rowb);
    boundary(shape, kind, rowa, recon, sink)?;
    let mut la = recon[rowa];
    let pred = l1_stencil_3d(recon, la, a_rjm1, a_pj, a_pjm1, 1);
    let r = sink.emit(rowa + 1, pred)?;
    recon[rowa + 1] = r;
    la = r;
    boundary_lagged(shape, kind, rowb, recon, sink)?;
    let mut lb = recon[rowb];
    for k in 2..d2 {
        let pa = l1_stencil_3d(recon, la, a_rjm1, a_pj, a_pjm1, k);
        let ra = sink.emit(rowa + k, pa)?;
        recon[rowa + k] = ra;
        la = ra;
        let pb = l1_stencil_3d(recon, lb, b_rjm1, b_pj, b_pjm1, k - 1);
        let rb = sink.emit_lagged(rowb + k - 1, pb)?;
        recon[rowb + k - 1] = rb;
        lb = rb;
    }
    let pb = l1_stencil_3d(recon, lb, b_rjm1, b_pj, b_pjm1, d2 - 1);
    let rb = sink.emit_lagged(rowb + d2 - 1, pb)?;
    recon[rowb + d2 - 1] = rb;
    sink.flush_pair();
    Ok(())
}

/// Two-layer plane rows `j ≥ 2` and `j+1` (plane `i ≥ 2`) as a wavefront
/// pair. Requires `d2 ≥ 3`.
fn l2_3d_pair<S: ElementSink>(
    shape: Shape,
    kind: PredictorKind,
    d2: usize,
    p: usize,
    rowa: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    let rowb = rowa + d2;
    let (a01, a02) = (rowa - d2, rowa - 2 * d2);
    let (a10, a11, a12) = (rowa - p, rowa - p - d2, rowa - p - 2 * d2);
    let (a20, a21, a22) = (rowa - 2 * p, rowa - 2 * p - d2, rowa - 2 * p - 2 * d2);
    // Lagging row: its (i, j−1, ·)/(i, j−2, ·) rows are the leading row
    // and the one before it.
    let (b01, b02) = (rowa, rowa - d2);
    let (b10, b11, b12) = (rowb - p, rowa - p, rowa - p - d2);
    let (b20, b21, b22) = (rowb - 2 * p, rowa - 2 * p, rowa - 2 * p - d2);
    sink.begin_pair(rowa, rowb);
    // A cols 0–1: reference fallback, then A col 2 (first full stencil).
    boundary(shape, kind, rowa, recon, sink)?;
    boundary(shape, kind, rowa + 1, recon, sink)?;
    let mut la1 = recon[rowa + 1];
    let mut la2 = recon[rowa];
    let pa = l2_stencil_3d(recon, la1, la2, a01, a02, a10, a11, a12, a20, a21, a22, 2);
    let ra = sink.emit(rowa + 2, pa)?;
    recon[rowa + 2] = ra;
    la2 = la1;
    la1 = ra;
    // B cols 0–1: reference fallback.
    boundary_lagged(shape, kind, rowb, recon, sink)?;
    boundary_lagged(shape, kind, rowb + 1, recon, sink)?;
    let mut lb1 = recon[rowb + 1];
    let mut lb2 = recon[rowb];
    for k in 3..d2 {
        let pa = l2_stencil_3d(recon, la1, la2, a01, a02, a10, a11, a12, a20, a21, a22, k);
        let ra = sink.emit(rowa + k, pa)?;
        recon[rowa + k] = ra;
        la2 = la1;
        la1 = ra;
        let pb = l2_stencil_3d(recon, lb1, lb2, b01, b02, b10, b11, b12, b20, b21, b22, k - 1);
        let rb = sink.emit_lagged(rowb + k - 1, pb)?;
        recon[rowb + k - 1] = rb;
        lb2 = lb1;
        lb1 = rb;
    }
    let pb = l2_stencil_3d(recon, lb1, lb2, b01, b02, b10, b11, b12, b20, b21, b22, d2 - 1);
    let rb = sink.emit_lagged(rowb + d2 - 1, pb)?;
    recon[rowb + d2 - 1] = rb;
    sink.flush_pair();
    Ok(())
}

// ---------------------------------------------------------------------
// Wavefront row quads (SIMD dispatch levels ≥ SSE2).
//
// The pair schedule leaves the pipeline half-empty on wide rows: two
// serial reconstruction chains cover only part of the FP latency. The
// quad generalizes it to four adjacent rows, lane t trailing the leader
// by t columns — the same anti-diagonal independence argument applies,
// so per-element values stay bit-identical to the sequential order, and
// escape routing generalizes from one deferred buffer / lagging cursor
// to three (`emit_lane`, `begin_quad`, `flush_quad`). In the steady
// state the four lane predictions are mutually independent (lane t at
// column k−t never reads anything emitted this step), so the four
// scalar stencil chains hide each other's FP latency. The quad body is
// scalar at every level ≥ SSE2: `Sse2` and `Avx2` run the same
// four-chain code the x86-64 SSE2 baseline compiles to (a 4-lane
// `__m256d` body measured slower and was removed, DESIGN §17.3). At
// `Off` the quad is skipped entirely and rows fall through to the
// pair/row loops — the mandatory no-`unsafe` fallback. Only the
// first-order stencils (and the spline rows, `spline_quad`) get quads:
// the 26-point Lorenzo² gather
// dominates its own chain, so the pair is already port-bound there.
// ---------------------------------------------------------------------

/// [`boundary`] for lane `lane` of a wavefront quad (lane 0 = leading).
#[inline]
fn boundary_lane<S: ElementSink>(
    shape: Shape,
    kind: PredictorKind,
    lane: usize,
    lin: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    let pred = predict_with(kind, recon, shape, lin);
    recon[lin] = sink.emit_lane(lane, lin, pred)?;
    Ok(())
}

/// First-order rows `a = rowa/cols ≥ 1` through `a+3` as a wavefront
/// quad. Requires `cols ≥ 4`. The spine is deliberately spelled out in
/// per-lane scalars (`la`/`lb`/`lc`/`ld`), exactly like [`l1_pair`]: an
/// earlier array-of-lanes formulation forced the loop-carried left
/// values through the stack, inserting a store-to-load forward into
/// every lane's serial FP chain and erasing the schedule's gain.
fn l1_quad<S: ElementSink>(
    cols: usize,
    rowa: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    let (rowb, rowc, rowd) = (rowa + cols, rowa + 2 * cols, rowa + 3 * cols);
    // Lane t's "row above" is lane t−1's row (the leader's is finalized).
    let a_up = rowa - cols;
    let (b_up, c_up, d_up) = (rowa, rowb, rowc);
    // Hoisted bounds check for the unchecked steady loop: every index it
    // touches — writes ≤ rowd + cols − 4, reads on rows at lower offsets
    // — is < rowd + cols. One test here replaces three per-element
    // bounds checks per lane. (This path is only reachable at dispatch
    // levels ≥ SSE2; the scalar fallback stays fully checked.)
    assert!(rowd + cols <= recon.len());
    sink.begin_quad(rowa, cols);
    // Lane preambles: lane t runs columns 0..4−t ahead of the steady
    // state (column 0 degrades to the above neighbour, as in `l1_row`).
    let r = sink.emit(rowa, recon[a_up])?;
    recon[rowa] = r;
    let mut la = r;
    for j in 1..4 {
        let pred = la + recon[a_up + j] - recon[a_up + j - 1];
        let r = sink.emit(rowa + j, pred)?;
        recon[rowa + j] = r;
        la = r;
    }
    let r = sink.emit_lane(1, rowb, recon[b_up])?;
    recon[rowb] = r;
    let mut lb = r;
    for j in 1..3 {
        let pred = lb + recon[b_up + j] - recon[b_up + j - 1];
        let r = sink.emit_lane(1, rowb + j, pred)?;
        recon[rowb + j] = r;
        lb = r;
    }
    let r = sink.emit_lane(2, rowc, recon[c_up])?;
    recon[rowc] = r;
    let mut lc = r;
    let pred = lc + recon[c_up + 1] - recon[c_up];
    let r = sink.emit_lane(2, rowc + 1, pred)?;
    recon[rowc + 1] = r;
    lc = r;
    let r = sink.emit_lane(3, rowd, recon[d_up])?;
    recon[rowd] = r;
    let mut ld = r;
    // Steady state: columns k, k−1, k−2, k−3 of rows A–D each step —
    // four independent reconstruction chains in flight.
    for k in 4..cols {
        // SAFETY: k < cols and every row offset here is ≤ rowd, so all
        // indices are < rowd + cols ≤ recon.len() (entry assertion).
        unsafe {
            let pa = la + *recon.get_unchecked(a_up + k) - *recon.get_unchecked(a_up + k - 1);
            let ra = sink.emit(rowa + k, pa)?;
            *recon.get_unchecked_mut(rowa + k) = ra;
            la = ra;
            let pb = lb + *recon.get_unchecked(b_up + k - 1) - *recon.get_unchecked(b_up + k - 2);
            let rb = sink.emit_lane(1, rowb + k - 1, pb)?;
            *recon.get_unchecked_mut(rowb + k - 1) = rb;
            lb = rb;
            let pc = lc + *recon.get_unchecked(c_up + k - 2) - *recon.get_unchecked(c_up + k - 3);
            let rc = sink.emit_lane(2, rowc + k - 2, pc)?;
            *recon.get_unchecked_mut(rowc + k - 2) = rc;
            lc = rc;
            let pd = ld + *recon.get_unchecked(d_up + k - 3) - *recon.get_unchecked(d_up + k - 4);
            let rd = sink.emit_lane(3, rowd + k - 3, pd)?;
            *recon.get_unchecked_mut(rowd + k - 3) = rd;
            ld = rd;
        }
    }
    // Lane tails: lane t still owes columns cols−t..cols; every input is
    // final by now, so ascending-lane order only serves escape routing.
    let pb = lb + recon[b_up + cols - 1] - recon[b_up + cols - 2];
    let rb = sink.emit_lane(1, rowb + cols - 1, pb)?;
    recon[rowb + cols - 1] = rb;
    for j in cols - 2..cols {
        let pred = lc + recon[c_up + j] - recon[c_up + j - 1];
        let r = sink.emit_lane(2, rowc + j, pred)?;
        recon[rowc + j] = r;
        lc = r;
    }
    for j in cols - 3..cols {
        let pred = ld + recon[d_up + j] - recon[d_up + j - 1];
        let r = sink.emit_lane(3, rowd + j, pred)?;
        recon[rowd + j] = r;
        ld = r;
    }
    sink.flush_quad();
    Ok(())
}

/// First-order plane rows `j ≥ 1` through `j+3` (plane `i ≥ 1`) as a
/// wavefront quad. Requires `d2 ≥ 4`. Spelled out in per-lane scalars
/// for the same store-forward reason as [`l1_quad`].
fn l1_3d_quad<S: ElementSink>(
    shape: Shape,
    kind: PredictorKind,
    d2: usize,
    p: usize,
    rowa: usize,
    recon: &mut [f64],
    sink: &mut S,
) -> Result<(), SzError> {
    let (rowb, rowc, rowd) = (rowa + d2, rowa + 2 * d2, rowa + 3 * d2);
    // Lane t's (i, j−1, ·) row is lane t−1's row; the plane-above rows
    // all sit in plane i−1, finalized long before the quad.
    let (a_rjm1, a_pj, a_pjm1) = (rowa - d2, rowa - p, rowa - p - d2);
    let (b_rjm1, b_pj, b_pjm1) = (rowa, rowb - p, rowa - p);
    let (c_rjm1, c_pj, c_pjm1) = (rowb, rowc - p, rowb - p);
    let (d_rjm1, d_pj, d_pjm1) = (rowc, rowd - p, rowc - p);
    // Hoisted bounds check for the unchecked steady loop: writes reach
    // at most rowd + d2 − 4, and every stencil read sits on a row offset
    // ≤ rowc (p ≥ d2 makes rowd − p ≤ rowc), so all indices are
    // < rowd + d2. One test here replaces seven per-element bounds
    // checks per lane. (Only reachable at dispatch levels ≥ SSE2; the
    // scalar fallback stays fully checked.)
    assert!(rowd + d2 <= recon.len());
    sink.begin_quad(rowa, d2);
    // Lane preambles: lane t runs columns 0..4−t ahead of the steady
    // state (column 0 is a boundary element on every row).
    boundary(shape, kind, rowa, recon, sink)?;
    let mut la = recon[rowa];
    for kt in 1..4 {
        let pred = l1_stencil_3d(recon, la, a_rjm1, a_pj, a_pjm1, kt);
        let r = sink.emit(rowa + kt, pred)?;
        recon[rowa + kt] = r;
        la = r;
    }
    boundary_lane(shape, kind, 1, rowb, recon, sink)?;
    let mut lb = recon[rowb];
    for kt in 1..3 {
        let pred = l1_stencil_3d(recon, lb, b_rjm1, b_pj, b_pjm1, kt);
        let r = sink.emit_lane(1, rowb + kt, pred)?;
        recon[rowb + kt] = r;
        lb = r;
    }
    boundary_lane(shape, kind, 2, rowc, recon, sink)?;
    let mut lc = recon[rowc];
    let pred = l1_stencil_3d(recon, lc, c_rjm1, c_pj, c_pjm1, 1);
    let r = sink.emit_lane(2, rowc + 1, pred)?;
    recon[rowc + 1] = r;
    lc = r;
    boundary_lane(shape, kind, 3, rowd, recon, sink)?;
    let mut ld = recon[rowd];
    // Steady state: columns k, k−1, k−2, k−3 of rows A–D each step.
    for k in 4..d2 {
        // SAFETY: k < d2 and every index is < rowd + d2 ≤ recon.len()
        // (entry assertion; see the bounds note above).
        unsafe {
            let pa = l1_stencil_3d_unchecked(recon, la, a_rjm1, a_pj, a_pjm1, k);
            let ra = sink.emit(rowa + k, pa)?;
            *recon.get_unchecked_mut(rowa + k) = ra;
            la = ra;
            let pb = l1_stencil_3d_unchecked(recon, lb, b_rjm1, b_pj, b_pjm1, k - 1);
            let rb = sink.emit_lane(1, rowb + k - 1, pb)?;
            *recon.get_unchecked_mut(rowb + k - 1) = rb;
            lb = rb;
            let pc = l1_stencil_3d_unchecked(recon, lc, c_rjm1, c_pj, c_pjm1, k - 2);
            let rc = sink.emit_lane(2, rowc + k - 2, pc)?;
            *recon.get_unchecked_mut(rowc + k - 2) = rc;
            lc = rc;
            let pd = l1_stencil_3d_unchecked(recon, ld, d_rjm1, d_pj, d_pjm1, k - 3);
            let rd = sink.emit_lane(3, rowd + k - 3, pd)?;
            *recon.get_unchecked_mut(rowd + k - 3) = rd;
            ld = rd;
        }
    }
    // Lane tails: lane t still owes columns d2−t..d2.
    let pb = l1_stencil_3d(recon, lb, b_rjm1, b_pj, b_pjm1, d2 - 1);
    let rb = sink.emit_lane(1, rowb + d2 - 1, pb)?;
    recon[rowb + d2 - 1] = rb;
    for kt in d2 - 2..d2 {
        let pred = l1_stencil_3d(recon, lc, c_rjm1, c_pj, c_pjm1, kt);
        let r = sink.emit_lane(2, rowc + kt, pred)?;
        recon[rowc + kt] = r;
        lc = r;
    }
    for kt in d2 - 3..d2 {
        let pred = l1_stencil_3d(recon, ld, d_rjm1, d_pj, d_pjm1, kt);
        let r = sink.emit_lane(3, rowd + kt, pred)?;
        recon[rowd + kt] = r;
        ld = r;
    }
    sink.flush_quad();
    Ok(())
}

/// 2-D rows `start/cols .. end/cols`, interior rows in wavefront quads
/// (dispatch level permitting) then pairs.
fn walk_2d<S: ElementSink>(
    kind: PredictorKind,
    cols: usize,
    start: usize,
    end: usize,
    recon: &mut [f64],
    sink: &mut S,
    level: SimdLevel,
) -> Result<(), SzError> {
    let (r0, r1) = (start / cols, end / cols);
    let mut i = r0;
    match kind {
        PredictorKind::Lorenzo1 => {
            if i == 0 && i < r1 {
                first_row(cols, cols, recon, sink)?;
                i = 1;
            }
            if cols >= 4 && level >= SimdLevel::Sse2 {
                while i + 3 < r1 {
                    l1_quad(cols, i * cols, recon, sink)?;
                    i += 4;
                }
            }
            if cols >= 2 {
                while i + 1 < r1 {
                    l1_pair(cols, i * cols, recon, sink)?;
                    i += 2;
                }
            }
            while i < r1 {
                l1_row(cols, i * cols, recon, sink)?;
                i += 1;
            }
        }
        PredictorKind::Lorenzo2 => {
            if i == 0 && i < r1 {
                first_row(cols, cols, recon, sink)?;
                i = 1;
            }
            if i == 1 && i < r1 {
                l1_row(cols, cols, recon, sink)?;
                i = 2;
            }
            if cols >= 3 {
                while i + 1 < r1 {
                    l2_pair(cols, i * cols, recon, sink)?;
                    i += 2;
                }
            }
            while i < r1 {
                l2_row(cols, i * cols, recon, sink)?;
                i += 1;
            }
        }
        _ => unreachable!("only Lorenzo kinds reach the specialized loops"),
    }
    Ok(())
}

/// 3-D planes `start/(d1·d2) .. end/(d1·d2)`, plane-interior rows in
/// wavefront quads (dispatch level permitting) then pairs (neither ever
/// crosses a plane, so any whole-plane range is safe).
fn walk_3d<S: ElementSink>(
    shape: Shape,
    kind: PredictorKind,
    d1: usize,
    d2: usize,
    start: usize,
    end: usize,
    recon: &mut [f64],
    sink: &mut S,
    level: SimdLevel,
) -> Result<(), SzError> {
    let p = d1 * d2;
    let (p0, p1) = (start / p, end / p);
    for i in p0..p1 {
        let base = i * p;
        let boundary_plane = match kind {
            PredictorKind::Lorenzo1 => i < 1,
            PredictorKind::Lorenzo2 => i < 2,
            _ => unreachable!("only Lorenzo kinds reach the specialized loops"),
        };
        if boundary_plane {
            for lin in base..base + p {
                boundary(shape, kind, lin, recon, sink)?;
            }
            continue;
        }
        match kind {
            PredictorKind::Lorenzo1 => {
                for lin in base..base + d2 {
                    boundary(shape, kind, lin, recon, sink)?;
                }
                let mut j = 1;
                if d2 >= 4 && level >= SimdLevel::Sse2 {
                    while j + 3 < d1 {
                        l1_3d_quad(shape, kind, d2, p, base + j * d2, recon, sink)?;
                        j += 4;
                    }
                }
                if d2 >= 2 {
                    while j + 1 < d1 {
                        l1_3d_pair(shape, kind, d2, p, base + j * d2, recon, sink)?;
                        j += 2;
                    }
                }
                while j < d1 {
                    l1_3d_row(shape, kind, d2, p, base + j * d2, recon, sink)?;
                    j += 1;
                }
            }
            PredictorKind::Lorenzo2 => {
                for lin in base..base + (2 * d2).min(p) {
                    boundary(shape, kind, lin, recon, sink)?;
                }
                let mut j = 2;
                if d2 >= 3 {
                    while j + 1 < d1 {
                        l2_3d_pair(shape, kind, d2, p, base + j * d2, recon, sink)?;
                        j += 2;
                    }
                }
                while j < d1 {
                    l2_3d_row(shape, kind, d2, p, base + j * d2, recon, sink)?;
                    j += 1;
                }
            }
            _ => unreachable!("only Lorenzo kinds reach the specialized loops"),
        }
    }
    Ok(())
}

/// Obs span name for a fused walk, by predictor and rank.
fn walk_span(model: PredictorModel, shape: Shape) -> &'static str {
    match (model, shape) {
        (PredictorModel::Lorenzo1, Shape::D1(_)) => "sz.kernel.walk.l1.1d",
        (PredictorModel::Lorenzo1, Shape::D2(..)) => "sz.kernel.walk.l1.2d",
        (PredictorModel::Lorenzo1, Shape::D3(..)) => "sz.kernel.walk.l1.3d",
        (PredictorModel::Lorenzo2, Shape::D1(_)) => "sz.kernel.walk.l2.1d",
        (PredictorModel::Lorenzo2, Shape::D2(..)) => "sz.kernel.walk.l2.2d",
        (PredictorModel::Lorenzo2, Shape::D3(..)) => "sz.kernel.walk.l2.3d",
        (PredictorModel::Regression(_), _) => "sz.kernel.walk.reg",
        (PredictorModel::Spline, _) => "sz.kernel.walk.spline",
    }
}

/// Everything a fused walk leaves behind over a leading run of samples:
/// the codes and escapes of the first `codes.len()` samples and their
/// reconstruction. A walk over a leading whole-row slab is exactly the
/// prefix of the walk over the whole field (no predictor reads the outer
/// extent), so the walk can be continued from it to the end.
#[derive(Default)]
pub struct WalkState<T: Scalar> {
    /// One quantization code per walked sample, scan order.
    pub codes: Vec<u32>,
    /// Escaped samples among them, in scan order.
    pub unpred: Vec<T>,
    /// Reconstruction of every walked sample (`codes.len()` of them).
    pub recon: Vec<f64>,
}

/// Fused prediction + quantization walk over a whole field or block.
///
/// Bit-for-bit equivalent to the per-element reference walk
/// [`walk_reference`]; `recon` is caller-owned scratch (resized to
/// `data.len()`) holding the reconstruction the decoder will reproduce.
///
/// # Panics
/// Debug-asserts that `data` matches `shape`.
#[allow(clippy::too_many_arguments)]
pub fn walk_fused<T: Scalar>(
    data: &[T],
    shape: Shape,
    eb: f64,
    bins: usize,
    pred: PredictorModel,
    escape: EscapeCoding,
    recon: &mut Vec<f64>,
) -> WalkResult<T> {
    recon.clear();
    let start = WalkState {
        codes: Vec::new(),
        unpred: Vec::with_capacity(data.len() / 64 + 4),
        recon: std::mem::take(recon),
    };
    let st = walk_fused_resume(data, shape, eb, bins, pred, escape, start);
    *recon = st.recon;
    WalkResult {
        codes: st.codes,
        unpred: st.unpred,
    }
}

/// Continue a fused walk over the rest of `data`: `st` holds the walk,
/// with the same `eb`, `bins`, `pred` and `escape`, of
/// `data[..st.codes.len()]` shaped as the leading whole outer-dimension
/// slices of `shape` (any prefix in 1-D; empty to walk from the start).
/// The result equals [`walk_fused`] over all of `data` bit for bit —
/// codes, escapes and reconstruction.
///
/// # Panics
/// Debug-asserts that `data` matches `shape` and that `st` is a prefix.
pub(crate) fn walk_fused_resume<T: Scalar>(
    data: &[T],
    shape: Shape,
    eb: f64,
    bins: usize,
    pred: PredictorModel,
    escape: EscapeCoding,
    mut st: WalkState<T>,
) -> WalkState<T> {
    debug_assert_eq!(data.len(), shape.len());
    let _span = fpsnr_obs::span(walk_span(pred, shape));
    let (start, n) = (st.codes.len(), data.len());
    debug_assert!(start <= n && st.recon.len() >= start);
    let quant = LinearQuantizer::new(eb, bins);
    // Exact growth: a resumed slab walk must not double its capacity.
    st.recon.truncate(start);
    st.recon.reserve_exact(n - start);
    st.recon.resize(n, 0.0);
    st.codes.reserve_exact(n - start);
    st.codes.resize(n, ESCAPE);
    let mut sink = WalkSink {
        data,
        codes: &mut st.codes,
        unpred: &mut st.unpred,
        eb,
        inv_bin: quant.inv_bin_width(),
        qmax: (quant.center() - 1) as u64,
        radius: quant.center() as i64,
        escape,
        deferred: [Vec::new(), Vec::new(), Vec::new()],
    };
    drive_range(shape, pred, start, n, &mut st.recon, &mut sink).expect("walk sink is infallible");
    debug_assert!(
        sink.deferred.iter().all(Vec::is_empty),
        "every wavefront pair/quad must flush its deferred escapes"
    );
    st
}

/// The per-element reference walk: the codec's spec, and the oracle the
/// fused walks and decoders are tested against. Each sample is predicted
/// from the reconstructed prefix, its error quantized on the uniform grid,
/// and the result kept only if the value the decoder will emit (rounded
/// through `T`) honours `eb`; otherwise the sample escapes, and the walk
/// continues from the value the decoder will see (the exact bits, or the
/// bound-respecting truncation).
///
/// Returns the walk's codes, escapes and reconstruction, and each
/// sample's prediction. [`walk_fused`] produces the same codes, escapes
/// and reconstruction bit for bit.
///
/// # Panics
/// Debug-asserts that `data` matches `shape`.
pub fn walk_reference<T: Scalar>(
    data: &[T],
    shape: Shape,
    eb: f64,
    bins: usize,
    pred: PredictorModel,
    escape: EscapeCoding,
) -> (WalkState<T>, Vec<f64>) {
    debug_assert_eq!(data.len(), shape.len());
    let n = data.len();
    let quant = LinearQuantizer::new(eb, bins);
    let mut st = WalkState {
        codes: Vec::with_capacity(n),
        unpred: Vec::with_capacity(n / 64 + 4),
        recon: vec![0.0; n],
    };
    let mut preds = Vec::with_capacity(n);
    for (lin, &sample) in data.iter().enumerate() {
        let x = sample.to_f64();
        let p = pred.predict(&st.recon, shape, lin);
        preds.push(p);
        let quantized = quant.quantize(x - p).and_then(|(code, rerr)| {
            // Round through the target precision: the decoder emits T, so
            // the bound must hold after that cast, and the walk must see
            // the exact emitted value.
            let xr = T::from_f64(p + rerr).to_f64();
            ((x - xr).abs() <= eb).then_some((code, xr))
        });
        let (code, value) = quantized.unwrap_or_else(|| {
            st.unpred.push(sample);
            let stored = match escape {
                EscapeCoding::Exact => x,
                EscapeCoding::Truncated => unpredictable::truncate_to_bound(sample, eb)
                    .unwrap_or(sample)
                    .to_f64(),
            };
            (ESCAPE, stored)
        });
        st.codes.push(code);
        st.recon[lin] = value;
    }
    (st, preds)
}

/// Streaming fused decode mirror: feed quantization codes in scan order
/// (whole outer-dimension slices at a time) and recover the samples.
///
/// Decoupling the reconstruction from entropy decoding lets the caller
/// interleave LUT Huffman decoding with reconstruction plane by plane,
/// instead of materializing the full code array first.
pub struct FusedDecoder<T: Scalar> {
    shape: Shape,
    model: PredictorModel,
    eb: f64,
    radius: i64,
    alphabet: u32,
    unpred: Vec<T>,
    next_unpred: usize,
    recon: Vec<f64>,
    out: Vec<T>,
    filled: usize,
}

impl<T: Scalar> FusedDecoder<T> {
    /// Start a decode for `shape` with the container's stored parameters
    /// and escape payload.
    ///
    /// # Panics
    /// Panics when `eb`/`bins` are invalid — decoders validate stored
    /// parameters before construction.
    pub fn new(shape: Shape, eb: f64, bins: usize, model: PredictorModel, unpred: Vec<T>) -> Self {
        let quant = LinearQuantizer::new(eb, bins);
        let n = shape.len();
        FusedDecoder {
            shape,
            model,
            eb,
            radius: quant.center() as i64,
            alphabet: quant.alphabet() as u32,
            unpred,
            next_unpred: 0,
            recon: vec![0.0; n],
            out: vec![T::default(); n],
            filled: 0,
        }
    }

    /// Samples per outer-dimension slice: chunks passed to
    /// [`FusedDecoder::push`] must hold a whole number of these.
    pub fn slice_len(&self) -> usize {
        match self.shape {
            Shape::D1(_) => 1,
            Shape::D2(_, cols) => cols,
            Shape::D3(_, d1, d2) => d1 * d2,
        }
    }

    /// Samples not yet decoded.
    pub fn remaining(&self) -> usize {
        self.shape.len() - self.filled
    }

    /// Decode the next chunk of quantization codes.
    ///
    /// # Errors
    /// [`SzError::Format`] on out-of-range codes, escape underrun, or a
    /// chunk that is not slice-aligned.
    pub fn push(&mut self, codes: &[u32]) -> Result<(), SzError> {
        let slice = self.slice_len();
        if codes.len() > self.remaining() || (slice > 0 && codes.len() % slice != 0) {
            return Err(SzError::Format("misaligned code chunk"));
        }
        let start = self.filled;
        let end = start + codes.len();
        let mut sink = DecodeSink {
            codes,
            base: start,
            out: &mut self.out,
            unpred: &self.unpred,
            next_unpred: &mut self.next_unpred,
            lag_unpred: [0; 3],
            eb: self.eb,
            radius: self.radius,
            alphabet: self.alphabet,
        };
        drive_range(self.shape, self.model, start, end, &mut self.recon, &mut sink)?;
        self.filled = end;
        Ok(())
    }

    /// Finish the decode, validating that every sample and every stored
    /// escape value was consumed.
    ///
    /// # Errors
    /// [`SzError::Format`] when samples are missing or escape values were
    /// left over.
    pub fn finish(self) -> Result<Vec<T>, SzError> {
        if self.filled != self.shape.len() {
            return Err(SzError::Format("decode ended before all samples"));
        }
        if self.next_unpred != self.unpred.len() {
            return Err(SzError::Format("unused escape values"));
        }
        Ok(self.out)
    }
}

/// One-shot fused reconstruction from a full code array.
///
/// # Errors
/// Same failure modes as [`FusedDecoder::push`]/[`FusedDecoder::finish`].
pub fn reconstruct_fused<T: Scalar>(
    codes: &[u32],
    unpred: Vec<T>,
    shape: Shape,
    eb: f64,
    bins: usize,
    model: PredictorModel,
) -> Result<Vec<T>, SzError> {
    if codes.len() != shape.len() {
        return Err(SzError::Format("code count does not match shape"));
    }
    let mut dec = FusedDecoder::new(shape, eb, bins, model, unpred);
    dec.push(codes)?;
    dec.finish()
}

/// The per-element reference decode mirror (oracle for [`FusedDecoder`]):
/// the exact loop the decompressor historically ran.
///
/// # Errors
/// [`SzError::Format`] on out-of-range codes or escape-count mismatches.
#[cfg(test)]
pub(crate) fn reconstruct_reference<T: Scalar>(
    codes: &[u32],
    unpred: &[T],
    shape: Shape,
    eb: f64,
    bins: usize,
    model: PredictorModel,
) -> Result<Vec<T>, SzError> {
    let n = shape.len();
    if codes.len() != n {
        return Err(SzError::Format("code count does not match shape"));
    }
    let quant = LinearQuantizer::new(eb, bins);
    let alphabet = quant.alphabet() as u32;
    let mut recon = vec![0.0f64; n];
    let mut out = vec![T::default(); n];
    let mut next_unpred = 0usize;
    for lin in 0..n {
        let code = codes[lin];
        if code == ESCAPE {
            if next_unpred >= unpred.len() {
                return Err(SzError::Format("more escapes than stored values"));
            }
            let v = unpred[next_unpred];
            next_unpred += 1;
            out[lin] = v;
            recon[lin] = v.to_f64();
        } else {
            if code >= alphabet {
                return Err(SzError::Format("quantization code out of range"));
            }
            let pred = model.predict(&recon, shape, lin);
            let v = T::from_f64(pred + quant.reconstruct(code));
            out[lin] = v;
            recon[lin] = v.to_f64();
        }
    }
    if next_unpred != unpred.len() {
        return Err(SzError::Format("unused escape values"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() * 5.0 + 0.01 * i as f64)
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn check_equivalence(shape: Shape, model: PredictorModel, eb: f64) {
        let data = ramp(shape.len());
        let mut ra = Vec::new();
        let fused = walk_fused(&data, shape, eb, 512, model, EscapeCoding::Exact, &mut ra);
        let (refw, _) = walk_reference(&data, shape, eb, 512, model, EscapeCoding::Exact);
        assert_eq!(fused.codes, refw.codes, "{shape:?} {model:?} codes");
        assert_eq!(
            bits(&fused.unpred),
            bits(&refw.unpred),
            "{shape:?} {model:?} unpred"
        );
        assert_eq!(bits(&ra), bits(&refw.recon), "{shape:?} {model:?} recon");
        let dec_f =
            reconstruct_fused(&fused.codes, fused.unpred, shape, eb, 512, model).unwrap();
        let dec_r =
            reconstruct_reference(&refw.codes, &refw.unpred, shape, eb, 512, model).unwrap();
        assert_eq!(dec_f, dec_r, "{shape:?} {model:?} decode");
        for (a, b) in dec_f.iter().zip(&data) {
            assert!((a - b).abs() <= eb, "{shape:?} {model:?} bound");
        }
    }

    #[test]
    fn fused_matches_reference_across_shapes() {
        for kind in [
            PredictorModel::Lorenzo1,
            PredictorModel::Lorenzo2,
            PredictorModel::Spline,
            PredictorModel::Regression([0.5, 0.01, -0.02, 0.005]),
        ] {
            for shape in [
                Shape::D1(257),
                Shape::D2(17, 23),
                Shape::D3(7, 9, 11),
                Shape::D1(1),
                Shape::D2(1, 40),
                Shape::D2(40, 1),
                Shape::D3(1, 1, 64),
                Shape::D3(2, 2, 2),
                Shape::D3(64, 1, 1),
                Shape::D3(1, 8, 8),
                Shape::D3(8, 8, 1),
                Shape::D3(8, 1, 8),
            ] {
                check_equivalence(shape, kind, 1e-3);
                check_equivalence(shape, kind, 1e-9);
            }
        }
    }

    #[test]
    fn magic_round_matches_f64_round() {
        // The identity the walk relies on: trunc(x + copysign(MAGIC, x))
        // == x.round() for every finite x, compared here through the same
        // saturating i64 cast the kernel performs.
        let magic_round = |x: f64| (x + ROUND_MAGIC.copysign(x)) as i64;
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.499_999_999_999_999_94,  // largest f64 below 0.5
            0.500_000_000_000_000_1,   // smallest f64 above 0.5
            1.499_999_999_999_999_8,   // largest f64 below 1.5
            f64::MIN_POSITIVE,
            1e-310,                    // subnormal scale
            4_503_599_627_370_495.5,   // 2^52 − 0.5: last half-integer
            2_251_799_813_685_248.5,   // 2^51 + 0.5
        ];
        // Dense sweep around every half-integer and integer in ±64.
        for i in -128i64..=128 {
            let h = i as f64 * 0.5;
            for ulps in -2i64..=2 {
                let v = f64::from_bits((h.to_bits() as i64 + ulps * h.signum() as i64) as u64);
                cases.push(v);
            }
        }
        // Deterministic pseudo-random magnitudes across the useful range.
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let mag = ((s >> 60) as i32) - 8; // 10^-8 ..= 10^7
            let frac = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            cases.push(frac * 10f64.powi(mag));
        }
        for &v in &cases {
            for x in [v, -v] {
                assert_eq!(
                    magic_round(x),
                    x.round() as i64,
                    "magic round diverged at {x:e} ({:#x})",
                    x.to_bits()
                );
            }
        }
        // Non-finite inputs saturate (∞) or zero (NaN); the walk's later
        // gates turn both into escapes.
        assert_eq!(magic_round(f64::INFINITY), i64::MAX);
        assert_eq!(magic_round(f64::NEG_INFINITY), i64::MIN);
        assert_eq!(magic_round(f64::NAN), 0);
    }

    #[test]
    fn quad_levels_bit_identical() {
        // Sweep every dispatch level over shapes that exercise the quad
        // steady state, its preamble/tail, and the pair/row remainders —
        // with non-finite samples scattered across quad lanes so the
        // per-lane deferred-escape routing is exercised too. `Off` is the
        // baseline; every other level must reproduce its exact bytes.
        let shapes = [
            Shape::D2(11, 37),
            Shape::D2(9, 4),
            Shape::D3(3, 9, 23),
            Shape::D3(5, 6, 4),
            Shape::D3(2, 4, 5),
        ];
        for shape in shapes {
            let mut data = ramp(shape.len());
            let n = data.len();
            data[n / 3] = f64::NAN;
            data[n / 2] = f64::INFINITY;
            data[2 * n / 3] = f64::NEG_INFINITY;
            for eb in [1e-3, 1e-7] {
                let mut scratch = Vec::new();
                simd::force(Some(SimdLevel::Off));
                let base = walk_fused(
                    &data,
                    shape,
                    eb,
                    512,
                    PredictorModel::Lorenzo1,
                    EscapeCoding::Exact,
                    &mut scratch,
                );
                let base_recon = bits(&scratch);
                let base_dec = reconstruct_fused(
                    &base.codes,
                    base.unpred.clone(),
                    shape,
                    eb,
                    512,
                    PredictorModel::Lorenzo1,
                )
                .unwrap();
                for level in SimdLevel::ALL {
                    simd::force(Some(level));
                    let w = walk_fused(
                        &data,
                        shape,
                        eb,
                        512,
                        PredictorModel::Lorenzo1,
                        EscapeCoding::Exact,
                        &mut scratch,
                    );
                    assert_eq!(w.codes, base.codes, "{shape:?} {level:?} codes");
                    assert_eq!(
                        bits(&w.unpred),
                        bits(&base.unpred),
                        "{shape:?} {level:?} unpred"
                    );
                    assert_eq!(bits(&scratch), base_recon, "{shape:?} {level:?} recon");
                    let dec = reconstruct_fused(
                        &w.codes,
                        w.unpred,
                        shape,
                        eb,
                        512,
                        PredictorModel::Lorenzo1,
                    )
                    .unwrap();
                    assert_eq!(bits(&dec), bits(&base_dec), "{shape:?} {level:?} decode");
                }
                simd::force(None);
            }
        }
    }

    #[test]
    fn chunked_decode_regroups_quads_identically() {
        // A chunked 2-D decode regroups rows into different quads/pairs
        // than the one-shot decode (grouping restarts at each chunk), so
        // this pins that the escape-cursor bookkeeping is schedule-free.
        let shape = Shape::D2(13, 29);
        let mut data = ramp(shape.len());
        data[40] = f64::NAN;
        data[200] = f64::INFINITY;
        let mut scratch = Vec::new();
        let w = walk_fused(
            &data,
            shape,
            1e-6,
            256,
            PredictorModel::Lorenzo1,
            EscapeCoding::Exact,
            &mut scratch,
        );
        let whole = reconstruct_fused(
            &w.codes,
            w.unpred.clone(),
            shape,
            1e-6,
            256,
            PredictorModel::Lorenzo1,
        )
        .unwrap();
        for rows_per_push in [1usize, 2, 3, 5] {
            let mut dec =
                FusedDecoder::new(shape, 1e-6, 256, PredictorModel::Lorenzo1, w.unpred.clone());
            for chunk in w.codes.chunks(rows_per_push * 29) {
                dec.push(chunk).unwrap();
            }
            // Bit compare: the stored NaN must round-trip, and NaN != NaN
            // would fail a value compare even on identical outputs.
            assert_eq!(
                bits(&dec.finish().unwrap()),
                bits(&whole),
                "{rows_per_push} rows/push"
            );
        }
    }

    #[test]
    fn chunked_decode_matches_one_shot() {
        let shape = Shape::D3(12, 5, 7);
        let data = ramp(shape.len());
        let mut scratch = Vec::new();
        let w = walk_fused(
            &data,
            shape,
            1e-4,
            1024,
            PredictorModel::Lorenzo1,
            EscapeCoding::Exact,
            &mut scratch,
        );
        let whole = reconstruct_fused(
            &w.codes,
            w.unpred.clone(),
            shape,
            1e-4,
            1024,
            PredictorModel::Lorenzo1,
        )
        .unwrap();
        let mut dec = FusedDecoder::new(shape, 1e-4, 1024, PredictorModel::Lorenzo1, w.unpred);
        let slice = dec.slice_len();
        for chunk in w.codes.chunks(3 * slice) {
            dec.push(chunk).unwrap();
        }
        assert_eq!(dec.finish().unwrap(), whole);
    }

    #[test]
    fn misaligned_chunk_rejected() {
        let shape = Shape::D2(4, 6);
        let mut dec: FusedDecoder<f32> =
            FusedDecoder::new(shape, 0.1, 64, PredictorModel::Lorenzo1, Vec::new());
        assert!(dec.push(&[32u32; 5]).is_err());
    }

    #[test]
    fn escape_underrun_and_leftover_detected() {
        let shape = Shape::D1(4);
        // An ESCAPE code with no stored value.
        let err = reconstruct_fused::<f32>(&[ESCAPE; 4], Vec::new(), shape, 0.1, 64, PredictorModel::Lorenzo1);
        assert!(err.is_err());
        // A stored value no code consumes.
        let codes = [32u32; 4];
        let err = reconstruct_fused(&codes, vec![1.0f32], shape, 0.1, 64, PredictorModel::Lorenzo1);
        assert!(err.is_err());
    }

    #[test]
    fn nan_and_inf_escape_identically() {
        let shape = Shape::D2(6, 6);
        let mut data = ramp(36);
        data[7] = f64::NAN;
        data[20] = f64::INFINITY;
        data[31] = f64::NEG_INFINITY;
        let mut ra = Vec::new();
        let f = walk_fused(
            &data,
            shape,
            1e-3,
            256,
            PredictorModel::Lorenzo1,
            EscapeCoding::Exact,
            &mut ra,
        );
        let (r, _) = walk_reference(
            &data,
            shape,
            1e-3,
            256,
            PredictorModel::Lorenzo1,
            EscapeCoding::Exact,
        );
        assert_eq!(f.codes, r.codes);
        assert_eq!(bits(&ra), bits(&r.recon));
        // Non-finite samples escape (and poison neighbouring stencils into
        // escaping too) — identically on both paths.
        assert_eq!(bits(&f.unpred), bits(&r.unpred));
        assert!(f.unpred.iter().any(|v| v.is_nan()));
        assert!(f.unpred.contains(&f64::INFINITY));
    }
}
