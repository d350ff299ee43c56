//! Blockwise transform codec: partition → orthonormal DCT → uniform
//! quantization → entropy coding.

use crate::basis::{Basis, BasisKind};
use losslesskit::bitio::{BitReader, BitWriter};
use losslesskit::huffman::HuffmanCodec;
use losslesskit::{deflate_like, freq, varint};
use ndfield::{Field, Scalar, Shape};
use szlike::quantizer::{LinearQuantizer, ESCAPE};
use szlike::{DecodeError, ErrorBound, LosslessBackend, SzError};

/// Container magic for transform-coded fields.
const MAGIC: [u8; 4] = *b"XFM1";

/// Hard cap on decoded output size: arbitrary header bytes must never be
/// able to demand an unbounded allocation.
const MAX_OUTPUT_BYTES: u64 = 1 << 30;

/// Cap on the inflated entropy-coded body (codes + escapes for a field
/// within [`MAX_OUTPUT_BYTES`] stay far below this).
const MAX_BODY_BYTES: usize = 1 << 30;

/// Configuration for the transform codec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformConfig {
    /// Error-bound mode resolving to the coefficient quantizer's `eb`
    /// (bin width `δ = 2·eb`). [`ErrorBound::PointwiseRel`] is rejected —
    /// a transform codec cannot bound pointwise relative error.
    pub bound: ErrorBound,
    /// Block edge length (4 or 8).
    pub block: usize,
    /// Quantization bins `2n`.
    pub quant_bins: usize,
    /// Orthonormal basis for the block transform.
    pub basis: BasisKind,
    /// Lossless backend over the entropy-coded body.
    pub lossless: LosslessBackend,
}

impl TransformConfig {
    /// Defaults matching the szlike pipeline: 4-wide blocks (ZFP's choice),
    /// 65536 bins, LZ backend.
    pub fn new(bound: ErrorBound) -> Self {
        TransformConfig {
            bound,
            block: 4,
            quant_bins: 65536,
            basis: BasisKind::Dct2,
            lossless: LosslessBackend::Lz,
        }
    }

    /// Override the block size.
    pub fn with_block(mut self, block: usize) -> Self {
        self.block = block;
        self
    }

    /// Override the orthonormal basis.
    pub fn with_basis(mut self, basis: BasisKind) -> Self {
        self.basis = basis;
        self
    }

    fn validate(&self) -> Result<(), SzError> {
        if self.block != 4 && self.block != 8 {
            return Err(SzError::BadConfig(format!(
                "block must be 4 or 8, got {}",
                self.block
            )));
        }
        if self.quant_bins < 4 || self.quant_bins % 2 != 0 || self.quant_bins > (1 << 24) {
            return Err(SzError::BadConfig(format!(
                "bad quant_bins {}",
                self.quant_bins
            )));
        }
        if matches!(self.bound, ErrorBound::PointwiseRel(_)) {
            return Err(SzError::BadConfig(
                "transform codec does not support pointwise-relative bounds".to_string(),
            ));
        }
        Ok(())
    }
}

/// Per-axis block counts (ceil division).
fn block_grid(shape: Shape, b: usize) -> Vec<usize> {
    shape.dims().iter().map(|&d| d.div_ceil(b)).collect()
}

/// Gather one (edge-replicated) block into `buf` as f64.
pub(crate) fn gather_block<T: Scalar>(
    field: &Field<T>,
    origin: &[usize],
    b: usize,
    buf: &mut [f64],
) {
    match field.shape() {
        Shape::D1(n) => {
            for x in 0..b {
                let i = (origin[0] * b + x).min(n - 1);
                buf[x] = field.as_slice()[i].to_f64();
            }
        }
        Shape::D2(..) => {
            let mut tmp = vec![T::default(); b * b];
            field.copy_block_2d(origin[0] * b, origin[1] * b, b, b, &mut tmp);
            for (o, v) in buf.iter_mut().zip(&tmp) {
                *o = v.to_f64();
            }
        }
        Shape::D3(..) => {
            let mut tmp = vec![T::default(); b * b * b];
            field.copy_block_3d(
                origin[0] * b,
                origin[1] * b,
                origin[2] * b,
                b,
                b,
                b,
                &mut tmp,
            );
            for (o, v) in buf.iter_mut().zip(&tmp) {
                *o = v.to_f64();
            }
        }
    }
}

/// Scatter a decoded block back into the field, clipping the padding.
pub(crate) fn scatter_block<T: Scalar>(
    field: &mut Field<T>,
    origin: &[usize],
    b: usize,
    buf: &[f64],
) {
    match field.shape() {
        Shape::D1(n) => {
            for x in 0..b {
                let i = origin[0] * b + x;
                if i < n {
                    field.as_mut_slice()[i] = T::from_f64(buf[x]);
                }
            }
        }
        Shape::D2(rows, cols) => {
            for x in 0..b {
                let i = origin[0] * b + x;
                if i >= rows {
                    break;
                }
                for y in 0..b {
                    let j = origin[1] * b + y;
                    if j < cols {
                        field.as_mut_slice()[i * cols + j] = T::from_f64(buf[x * b + y]);
                    }
                }
            }
        }
        Shape::D3(d0, d1, d2) => {
            for x in 0..b {
                let i = origin[0] * b + x;
                if i >= d0 {
                    break;
                }
                for y in 0..b {
                    let j = origin[1] * b + y;
                    if j >= d1 {
                        continue;
                    }
                    for z in 0..b {
                        let k = origin[2] * b + z;
                        if k < d2 {
                            field.as_mut_slice()[(i * d1 + j) * d2 + k] =
                                T::from_f64(buf[(x * b + y) * b + z]);
                        }
                    }
                }
            }
        }
    }
}

/// Separable forward transform of a `b^rank` block in place.
pub(crate) fn forward_block(basis: &Basis, buf: &mut [f64], rank: usize) {
    let b = basis.size();
    match rank {
        1 => basis.forward_strided(buf, 0, 1),
        2 => {
            for r in 0..b {
                basis.forward_strided(buf, r * b, 1);
            }
            for c in 0..b {
                basis.forward_strided(buf, c, b);
            }
        }
        3 => {
            for i in 0..b {
                for j in 0..b {
                    basis.forward_strided(buf, (i * b + j) * b, 1);
                }
            }
            for i in 0..b {
                for k in 0..b {
                    basis.forward_strided(buf, i * b * b + k, b);
                }
            }
            for j in 0..b {
                for k in 0..b {
                    basis.forward_strided(buf, j * b + k, b * b);
                }
            }
        }
        _ => unreachable!(),
    }
}

/// Separable inverse transform of a `b^rank` block in place.
pub(crate) fn inverse_block(basis: &Basis, buf: &mut [f64], rank: usize) {
    let b = basis.size();
    match rank {
        1 => basis.inverse_strided(buf, 0, 1),
        2 => {
            for c in 0..b {
                basis.inverse_strided(buf, c, b);
            }
            for r in 0..b {
                basis.inverse_strided(buf, r * b, 1);
            }
        }
        3 => {
            for j in 0..b {
                for k in 0..b {
                    basis.inverse_strided(buf, j * b + k, b * b);
                }
            }
            for i in 0..b {
                for k in 0..b {
                    basis.inverse_strided(buf, i * b * b + k, b);
                }
            }
            for i in 0..b {
                for j in 0..b {
                    basis.inverse_strided(buf, (i * b + j) * b, 1);
                }
            }
        }
        _ => unreachable!(),
    }
}

/// Iterate block origins in row-major order.
pub(crate) fn for_each_block(grid: &[usize], mut f: impl FnMut(&[usize])) {
    match grid.len() {
        1 => {
            for i in 0..grid[0] {
                f(&[i]);
            }
        }
        2 => {
            for i in 0..grid[0] {
                for j in 0..grid[1] {
                    f(&[i, j]);
                }
            }
        }
        3 => {
            for i in 0..grid[0] {
                for j in 0..grid[1] {
                    for k in 0..grid[2] {
                        f(&[i, j, k]);
                    }
                }
            }
        }
        _ => unreachable!(),
    }
}

/// Compress a field with the transform codec.
///
/// # Errors
/// [`SzError`] on invalid configuration, unresolvable bounds, or constant
/// fields compressed with a relative bound (resolves to `eb = 0`).
pub fn transform_compress<T: Scalar>(
    field: &Field<T>,
    cfg: &TransformConfig,
) -> Result<Vec<u8>, SzError> {
    let _total = fpsnr_obs::span("xfm.compress");
    cfg.validate()?;
    let vr = field.value_range();
    let eb = cfg.bound.absolute(vr)?;

    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.push(match T::TAG {
        "f32" => 0u8,
        _ => 1u8,
    });
    let dims = field.shape().dims();

    if vr == 0.0 && field.as_slice().iter().all(|v| v.is_finite_val()) {
        // Constant mode.
        out.push(1u8);
        out.push(dims.len() as u8);
        for d in dims {
            varint::write_u64(&mut out, d as u64);
        }
        field.as_slice()[0].write_le(&mut out);
        return Ok(out);
    }
    if eb <= 0.0 {
        return Err(SzError::BadBound("transform codec needs eb > 0".into()));
    }
    out.push(0u8);
    out.push(dims.len() as u8);
    for &d in &dims {
        varint::write_u64(&mut out, d as u64);
    }
    out.push(cfg.block as u8);
    out.push(cfg.basis.tag());
    out.extend_from_slice(&eb.to_le_bytes());
    varint::write_u64(&mut out, cfg.quant_bins as u64);

    let rank = field.shape().rank();
    let basis = cfg.basis.build(cfg.block);
    let quant = LinearQuantizer::new(eb, cfg.quant_bins);
    let grid = block_grid(field.shape(), cfg.block);
    let block_len = cfg.block.pow(rank as u32);
    let n_blocks: usize = grid.iter().product();
    let mut codes = Vec::with_capacity(n_blocks * block_len);
    let mut escapes: Vec<f64> = Vec::new();
    let mut buf = vec![0.0f64; block_len];
    // Stage 1 (xfm.transform): blockwise forward transform + coefficient
    // quantization (the transform codec's analogue of predict+quantize).
    let transform_span = fpsnr_obs::span("xfm.transform");
    for_each_block(&grid, |origin| {
        gather_block(field, origin, cfg.block, &mut buf);
        forward_block(&basis, &mut buf, rank);
        for &c in buf.iter() {
            match quant.quantize(c) {
                Some((code, _)) => codes.push(code),
                None => {
                    codes.push(ESCAPE);
                    escapes.push(c);
                }
            }
        }
    });
    drop(transform_span);

    // Stage 2 (xfm.encode): Huffman over the coefficient codes.
    let encode_span = fpsnr_obs::span("xfm.encode");
    let counts = freq::count_dense(&codes, cfg.quant_bins);
    let codec = HuffmanCodec::from_counts(&counts);
    let mut body = Vec::new();
    let mut table = Vec::new();
    codec.write_table(&mut table);
    varint::write_u64(&mut body, table.len() as u64);
    body.extend_from_slice(&table);
    let mut bw = BitWriter::with_capacity(codes.len() / 2);
    codec.encode(&codes, &mut bw);
    let stream = bw.finish();
    varint::write_u64(&mut body, stream.len() as u64);
    body.extend_from_slice(&stream);
    varint::write_u64(&mut body, escapes.len() as u64);
    for &e in &escapes {
        body.extend_from_slice(&e.to_le_bytes());
    }
    drop(encode_span);

    // Stage 3 (xfm.lossless): LZ pass over the serialized body.
    let _lossless_span = fpsnr_obs::span("xfm.lossless");
    let (flag, payload) = match cfg.lossless {
        LosslessBackend::None => (0u8, body),
        LosslessBackend::Lz => {
            let lz = deflate_like::lz_compress(&body);
            if lz.len() < body.len() {
                (1, lz)
            } else {
                (0, body)
            }
        }
    };
    out.push(flag);
    varint::write_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Decompress a container produced by [`transform_compress`].
///
/// # Errors
/// [`SzError`] on malformed input or scalar-type mismatch.
pub fn transform_decompress<T: Scalar>(src: &[u8]) -> Result<Field<T>, SzError> {
    let _total = fpsnr_obs::span("xfm.decompress");
    let mut pos = 0usize;
    if src.len() < 7 || src[..4] != MAGIC {
        return Err(SzError::Format("bad transform magic"));
    }
    pos += 4;
    let tag = match src[pos] {
        0 => "f32",
        1 => "f64",
        _ => return Err(SzError::Format("unknown scalar tag")),
    };
    if tag != T::TAG {
        return Err(SzError::TypeMismatch {
            found: tag.to_string(),
            expected: T::TAG,
        });
    }
    let mode = src[pos + 1];
    let rank = src[pos + 2] as usize;
    pos += 3;
    if !(1..=3).contains(&rank) {
        return Err(SzError::Format("bad rank"));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        let d = varint::read_u64(src, &mut pos)? as usize;
        if d == 0 || d > (1 << 40) {
            return Err(SzError::Format("implausible dimension"));
        }
        dims.push(d);
    }
    // Guard the total output size before ANY sample-proportional
    // allocation: each dim alone is plausible, the product may not be.
    let total: u128 = dims.iter().map(|&d| d as u128).product();
    if total.saturating_mul(T::BYTES as u128) > MAX_OUTPUT_BYTES as u128 {
        return Err(SzError::Decode(DecodeError::LimitExceeded {
            stage: "transform header",
            what: "output bytes",
            requested: total.saturating_mul(T::BYTES as u128).min(u64::MAX as u128) as u64,
            limit: MAX_OUTPUT_BYTES,
        }));
    }
    let shape = Shape::from_dims(&dims);

    if mode == 1 {
        if src.len().saturating_sub(pos) < T::BYTES {
            return Err(SzError::Format("constant payload truncated"));
        }
        let v = T::read_le(&src[pos..]);
        return Ok(Field::from_vec(shape, vec![v; shape.len()]));
    }
    if mode != 0 {
        return Err(SzError::Format("unknown transform mode"));
    }
    if src.len() < pos + 2 + 8 {
        return Err(SzError::Format("transform header truncated"));
    }
    let block = src[pos] as usize;
    pos += 1;
    if block != 4 && block != 8 {
        return Err(SzError::Format("bad block size"));
    }
    let basis_kind = BasisKind::from_tag(src[pos]).ok_or(SzError::Format("unknown basis tag"))?;
    pos += 1;
    let eb = f64::from_le_bytes(src[pos..pos + 8].try_into().expect("8 bytes"));
    pos += 8;
    if !(eb.is_finite() && eb > 0.0) {
        return Err(SzError::Format("bad stored bound"));
    }
    let bins = varint::read_u64(src, &mut pos)? as usize;
    if bins < 4 || bins % 2 != 0 || bins > (1 << 24) {
        return Err(SzError::Format("bad stored bin count"));
    }
    if src.len() < pos + 1 {
        return Err(SzError::Format("missing lossless flag"));
    }
    let flag = src[pos];
    pos += 1;
    let len = varint::read_u64(src, &mut pos)? as usize;
    if len > src.len().saturating_sub(pos) {
        return Err(SzError::Format("payload truncated"));
    }
    let body = match flag {
        0 => src[pos..pos + len].to_vec(),
        1 => deflate_like::lz_decompress_bounded(&src[pos..pos + len], MAX_BODY_BYTES)?,
        _ => return Err(SzError::Format("unknown lossless flag")),
    };

    let mut bpos = 0usize;
    let table_len = varint::read_u64(&body, &mut bpos)? as usize;
    let table_end = bpos
        .checked_add(table_len)
        .filter(|&e| e <= body.len())
        .ok_or(SzError::Format("table overruns body"))?;
    let codec = HuffmanCodec::read_table(&body[..table_end], &mut bpos)?;
    if bpos != table_end {
        return Err(SzError::Format("table length mismatch"));
    }
    let stream_len = varint::read_u64(&body, &mut bpos)? as usize;
    if stream_len > body.len().saturating_sub(bpos) {
        return Err(SzError::Format("stream overruns body"));
    }
    let stream = &body[bpos..bpos + stream_len];
    bpos += stream_len;

    let grid = block_grid(shape, block);
    let block_len = block.pow(rank as u32);
    // Padded code count: bounded via u128 (the per-axis round-up can
    // multiply the already-guarded element count by up to block^rank).
    let n_codes128 = grid
        .iter()
        .fold(block_len as u128, |acc, &g| acc.saturating_mul(g as u128));
    if n_codes128.saturating_mul(4) > MAX_BODY_BYTES as u128 {
        return Err(SzError::Decode(DecodeError::LimitExceeded {
            stage: "transform body",
            what: "padded code count",
            requested: n_codes128.min(u64::MAX as u128) as u64,
            limit: (MAX_BODY_BYTES / 4) as u64,
        }));
    }
    let n_codes = n_codes128 as usize;
    let mut codes = Vec::with_capacity(n_codes);
    let mut br = BitReader::new(stream);
    codec.decode(&mut br, n_codes, &mut codes)?;
    let n_escapes = varint::read_u64(&body, &mut bpos)? as usize;
    if n_escapes > n_codes {
        return Err(SzError::Format("more escapes than codes"));
    }
    if n_escapes
        .checked_mul(8)
        .map_or(true, |b| b > body.len().saturating_sub(bpos))
    {
        return Err(SzError::Format("escape payload overruns body"));
    }
    let escapes: Vec<f64> = (0..n_escapes)
        .map(|i| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&body[bpos + i * 8..bpos + i * 8 + 8]);
            f64::from_le_bytes(b)
        })
        .collect();

    let quant = LinearQuantizer::new(eb, bins);
    let alphabet = quant.alphabet() as u32;
    let basis = basis_kind.build(block);
    let mut out = Field::<T>::zeros(shape);
    let mut buf = vec![0.0f64; block_len];
    let mut code_idx = 0usize;
    let mut esc_idx = 0usize;
    let mut failure: Option<&'static str> = None;
    for_each_block(&grid, |origin| {
        if failure.is_some() {
            return;
        }
        for slot in buf.iter_mut() {
            let code = codes[code_idx];
            code_idx += 1;
            *slot = if code == ESCAPE {
                if esc_idx >= escapes.len() {
                    failure = Some("more escapes than stored");
                    return;
                }
                let v = escapes[esc_idx];
                esc_idx += 1;
                v
            } else {
                if code >= alphabet {
                    failure = Some("code out of range");
                    return;
                }
                quant.reconstruct(code)
            };
        }
        inverse_block(&basis, &mut buf, rank);
        scatter_block(&mut out, origin, block, &buf);
    });
    if let Some(what) = failure {
        return Err(SzError::Format(what));
    }
    if esc_idx != escapes.len() {
        return Err(SzError::Format("unused escape values"));
    }
    Ok(out)
}

/// Theorem-2 probe: returns `(coefficient_mse, data_mse, n_padded)` for one
/// compression — the MSE the quantizer introduced in the transformed
/// domain, and the MSE measured on the (edge-padded) reconstructed domain.
/// For block-aligned fields the two agree to floating-point precision.
///
/// # Errors
/// Same failure modes as [`transform_compress`].
pub fn theorem2_probe<T: Scalar>(
    field: &Field<T>,
    cfg: &TransformConfig,
) -> Result<(f64, f64, usize), SzError> {
    cfg.validate()?;
    let vr = field.value_range();
    let eb = cfg.bound.absolute(vr)?;
    if eb <= 0.0 {
        return Err(SzError::BadBound("probe needs eb > 0".into()));
    }
    let rank = field.shape().rank();
    let basis = cfg.basis.build(cfg.block);
    let quant = LinearQuantizer::new(eb, cfg.quant_bins);
    let grid = block_grid(field.shape(), cfg.block);
    let block_len = cfg.block.pow(rank as u32);
    let mut buf = vec![0.0f64; block_len];
    let mut qbuf = vec![0.0f64; block_len];
    let mut coeff_sq = 0.0f64;
    let mut data_sq = 0.0f64;
    let mut n = 0usize;
    for_each_block(&grid, |origin| {
        gather_block(field, origin, cfg.block, &mut buf);
        let orig = buf.clone();
        forward_block(&basis, &mut buf, rank);
        for (slot, q) in buf.iter().zip(qbuf.iter_mut()) {
            *q = match quant.quantize(*slot) {
                Some((_, recon)) => recon,
                None => *slot, // escape: exact
            };
            let d = *slot - *q;
            coeff_sq += d * d;
        }
        inverse_block(&basis, &mut qbuf, rank);
        for (a, b) in orig.iter().zip(&qbuf) {
            let d = a - b;
            data_sq += d * d;
        }
        n += block_len;
    });
    Ok((coeff_sq / n as f64, data_sq / n as f64, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(rows: usize, cols: usize) -> Field<f32> {
        Field::from_fn_2d(rows, cols, |i, j| {
            ((i as f32 * 0.21).sin() + (j as f32 * 0.17).cos()) * 4.0
                + ((i * j) as f32 * 0.01).sin()
        })
    }

    #[test]
    fn roundtrip_2d_within_l2_budget() {
        let field = textured(64, 64);
        let eb = 1e-3;
        let cfg = TransformConfig::new(ErrorBound::Abs(eb));
        let bytes = transform_compress(&field, &cfg).unwrap();
        let back: Field<f32> = transform_decompress(&bytes).unwrap();
        // l2 budget: coefficient errors ≤ eb each ⇒ RMSE ≤ eb.
        let mse: f64 = field
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| ((a - b) as f64).powi(2))
            .sum::<f64>()
            / field.len() as f64;
        assert!(mse.sqrt() <= eb, "rmse {} > eb {eb}", mse.sqrt());
    }

    #[test]
    fn roundtrip_1d_and_3d() {
        let f1 = Field::from_fn_linear(Shape::D1(100), |i| (i as f32 * 0.1).sin());
        let f3 = Field::from_fn_3d(8, 8, 8, |i, j, k| ((i + j + k) as f32 * 0.2).cos());
        for (field, name) in [(f1, "1d"), (f3.clone(), "3d")] {
            let cfg = TransformConfig::new(ErrorBound::Abs(1e-4));
            let bytes = transform_compress(&field, &cfg).unwrap();
            let back: Field<f32> = transform_decompress(&bytes).unwrap();
            let mse: f64 = field
                .as_slice()
                .iter()
                .zip(back.as_slice())
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum::<f64>()
                / field.len() as f64;
            assert!(mse.sqrt() <= 1e-4, "{name} rmse {}", mse.sqrt());
        }
        // non-aligned 3D shape exercises padding
        let f3b = Field::from_fn_3d(5, 7, 9, |i, j, k| (i * 63 + j * 9 + k) as f32 * 0.01);
        let cfg = TransformConfig::new(ErrorBound::Abs(1e-3));
        let back: Field<f32> =
            transform_decompress(&transform_compress(&f3b, &cfg).unwrap()).unwrap();
        assert_eq!(back.shape(), f3b.shape());
    }

    #[test]
    fn theorem2_identity_on_aligned_field() {
        let field = textured(64, 64); // 64 = 16 blocks of 4, aligned
        let cfg = TransformConfig::new(ErrorBound::ValueRangeRel(1e-3));
        let (coeff_mse, data_mse, n) = theorem2_probe(&field, &cfg).unwrap();
        assert_eq!(n, field.len());
        assert!(
            (coeff_mse - data_mse).abs() <= 1e-12 * coeff_mse.max(1e-30),
            "coeff {coeff_mse} vs data {data_mse}"
        );
    }

    #[test]
    fn mse_close_to_uniform_model() {
        // Textured field ⇒ coefficients spread across bins ⇒ MSE ≈ δ²/12.
        let field = textured(128, 128);
        let vr = field.value_range();
        let eb = 1e-3 * vr;
        let cfg = TransformConfig::new(ErrorBound::Abs(eb));
        let (coeff_mse, _, _) = theorem2_probe(&field, &cfg).unwrap();
        let model = (2.0 * eb) * (2.0 * eb) / 12.0;
        let ratio = coeff_mse / model;
        assert!(
            (0.5..=1.5).contains(&ratio),
            "measured/model = {ratio} (mse {coeff_mse}, model {model})"
        );
    }

    #[test]
    fn block8_roundtrips() {
        let field = textured(40, 40);
        let cfg = TransformConfig::new(ErrorBound::Abs(1e-3)).with_block(8);
        let back: Field<f32> =
            transform_decompress(&transform_compress(&field, &cfg).unwrap()).unwrap();
        assert_eq!(back.shape(), field.shape());
    }

    #[test]
    fn constant_field_compact() {
        let field = Field::from_vec(Shape::D2(20, 20), vec![7.5f32; 400]);
        let cfg = TransformConfig::new(ErrorBound::ValueRangeRel(1e-3));
        let bytes = transform_compress(&field, &cfg).unwrap();
        assert!(bytes.len() < 32);
        let back: Field<f32> = transform_decompress(&bytes).unwrap();
        assert_eq!(back.as_slice(), field.as_slice());
    }

    #[test]
    fn pointwise_rel_rejected() {
        let field = textured(8, 8);
        let cfg = TransformConfig::new(ErrorBound::PointwiseRel(0.01));
        assert!(matches!(
            transform_compress(&field, &cfg),
            Err(SzError::BadConfig(_))
        ));
    }

    #[test]
    fn bad_block_size_rejected() {
        let field = textured(8, 8);
        let cfg = TransformConfig::new(ErrorBound::Abs(1e-3)).with_block(5);
        assert!(transform_compress(&field, &cfg).is_err());
    }

    #[test]
    fn type_mismatch_detected() {
        let field = textured(8, 8);
        let bytes =
            transform_compress(&field, &TransformConfig::new(ErrorBound::Abs(1e-3))).unwrap();
        let res: Result<Field<f64>, _> = transform_decompress(&bytes);
        assert!(matches!(res, Err(SzError::TypeMismatch { .. })));
    }

    #[test]
    fn truncation_detected() {
        let field = textured(32, 32);
        let bytes =
            transform_compress(&field, &TransformConfig::new(ErrorBound::Abs(1e-3))).unwrap();
        for cut in [6, bytes.len() / 2, bytes.len() - 1] {
            let res: Result<Field<f32>, _> = transform_decompress(&bytes[..cut]);
            assert!(res.is_err(), "cut {cut}");
        }
    }

    #[test]
    fn f64_roundtrip() {
        let field = Field::from_fn_2d(16, 16, |i, j| ((i * 16 + j) as f64).sqrt());
        let cfg = TransformConfig::new(ErrorBound::Abs(1e-6));
        let back: Field<f64> =
            transform_decompress(&transform_compress(&field, &cfg).unwrap()).unwrap();
        let mse: f64 = field
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / field.len() as f64;
        assert!(mse.sqrt() <= 1e-6);
    }

    #[test]
    fn haar_basis_roundtrips_within_l2_budget() {
        let field = textured(64, 64);
        let eb = 1e-3;
        let cfg = TransformConfig::new(ErrorBound::Abs(eb)).with_basis(BasisKind::Haar);
        let bytes = transform_compress(&field, &cfg).unwrap();
        let back: Field<f32> = transform_decompress(&bytes).unwrap();
        let mse: f64 = field
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| ((a - b) as f64).powi(2))
            .sum::<f64>()
            / field.len() as f64;
        assert!(mse.sqrt() <= eb, "haar rmse {}", mse.sqrt());
    }

    #[test]
    fn theorem2_holds_for_haar_too() {
        // Theorem 2's premise is orthonormality, not any particular basis.
        let field = textured(64, 64);
        let cfg = TransformConfig::new(ErrorBound::ValueRangeRel(1e-3)).with_basis(BasisKind::Haar);
        let (coeff_mse, data_mse, _) = theorem2_probe(&field, &cfg).unwrap();
        assert!(
            (coeff_mse - data_mse).abs() <= 1e-11 * coeff_mse.max(1e-30),
            "haar: coeff {coeff_mse} vs data {data_mse}"
        );
    }

    #[test]
    fn basis_choice_is_encoded_in_container() {
        let field = textured(20, 20);
        let dct = transform_compress(&field, &TransformConfig::new(ErrorBound::Abs(1e-3))).unwrap();
        let haar = transform_compress(
            &field,
            &TransformConfig::new(ErrorBound::Abs(1e-3)).with_basis(BasisKind::Haar),
        )
        .unwrap();
        assert_ne!(dct, haar, "different bases must produce different streams");
        // Each decodes through the tag in its own header.
        let a: Field<f32> = transform_decompress(&dct).unwrap();
        let b: Field<f32> = transform_decompress(&haar).unwrap();
        assert_eq!(a.shape(), b.shape());
    }
}
