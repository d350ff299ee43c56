//! Embedded (bit-plane) coding of transform coefficients — the "EC"
//! alternative to quantization the paper's §III covers, and the mechanism
//! behind ZFP's *fixed-rate* and *fixed-precision* modes (§II-B).
//!
//! Each transformed block is coded most-significant-bit-plane first with
//! significance-ordered sign coding, so the stream can be cut at *any* bit
//! and still decode to the best available approximation:
//!
//! - **fixed-rate** — every block gets exactly `bits_per_value · block_len`
//!   bits (padded), so the compressed size is exact and blocks are
//!   independently addressable (ZFP's headline property);
//! - **fixed-precision** — every block keeps its top `planes` bit planes,
//!   bounding the *relative-to-block-maximum* error.
//!
//! The contrast with the paper's contribution is the point: embedded coding
//! fixes the *rate* and lets PSNR float; uniform quantization (Eq. 6) fixes
//! the *PSNR* and lets the rate float. The `mode_space` experiment binary
//! shows both sides.

use crate::basis::BasisKind;
use crate::codec::{for_each_block, forward_block, gather_block, inverse_block, scatter_block};
use losslesskit::bitio::{BitReader, BitWriter};
use losslesskit::varint;
use ndfield::{Field, Scalar, Shape};
use szlike::SzError;

/// Container magic for embedded-coded fields.
const MAGIC: [u8; 4] = *b"XEC1";
/// Magnitude bits per coefficient before plane truncation.
const MAG_BITS: u32 = 48;
/// Biased-exponent width for the per-block maximum exponent.
const EMAX_BITS: u32 = 12;
const EMAX_BIAS: i64 = 2047;

/// Rate/precision policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EcMode {
    /// Exactly `bits_per_value` bits per sample (ZFP fixed-rate).
    FixedRate {
        /// Bit budget per sample (0.5 .. 50 are sensible).
        bits_per_value: f64,
    },
    /// Keep the top `planes` bit planes of every block (ZFP
    /// fixed-precision).
    FixedPrecision {
        /// Number of bit planes, `1..=MAG_BITS`.
        planes: u32,
    },
}

/// Configuration for the embedded codec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmbeddedConfig {
    /// Block edge (4 or 8).
    pub block: usize,
    /// Orthonormal basis.
    pub basis: BasisKind,
    /// Rate/precision policy.
    pub mode: EcMode,
}

impl EmbeddedConfig {
    /// Fixed-rate configuration with 4-wide DCT blocks.
    pub fn fixed_rate(bits_per_value: f64) -> Self {
        EmbeddedConfig {
            block: 4,
            basis: BasisKind::Dct2,
            mode: EcMode::FixedRate { bits_per_value },
        }
    }

    /// Fixed-precision configuration with 4-wide DCT blocks.
    pub fn fixed_precision(planes: u32) -> Self {
        EmbeddedConfig {
            block: 4,
            basis: BasisKind::Dct2,
            mode: EcMode::FixedPrecision { planes },
        }
    }

    fn validate(&self) -> Result<(), SzError> {
        if self.block != 4 && self.block != 8 {
            return Err(SzError::BadConfig(format!("block {} not 4/8", self.block)));
        }
        match self.mode {
            EcMode::FixedRate { bits_per_value } => {
                if !(bits_per_value.is_finite() && bits_per_value > 0.0 && bits_per_value <= 64.0) {
                    return Err(SzError::BadConfig(format!(
                        "bits_per_value {bits_per_value} out of (0, 64]"
                    )));
                }
            }
            EcMode::FixedPrecision { planes } => {
                if planes == 0 || planes > MAG_BITS {
                    return Err(SzError::BadConfig(format!(
                        "planes {planes} out of 1..={MAG_BITS}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Per-block bit budget under a mode (`u32::MAX` = unbounded planes cap).
fn block_budget(mode: EcMode, block_len: usize) -> (usize, u32) {
    match mode {
        EcMode::FixedRate { bits_per_value } => (
            (bits_per_value * block_len as f64).ceil() as usize,
            MAG_BITS,
        ),
        EcMode::FixedPrecision { planes } => (usize::MAX, planes),
    }
}

/// Encode one block of coefficients into exactly-budgeted bits.
///
/// Layout: `EMAX_BITS` biased max-exponent (0 ⇒ all-zero block, nothing
/// follows unless fixed-rate padding), then bit planes MSB→LSB; within a
/// plane, one magnitude bit per coefficient, with the sign bit emitted
/// immediately after a coefficient's first set bit. The writer counts bits
/// and stops exactly at the budget; the decoder replays the same count.
fn encode_block(coeffs: &[f64], mode: EcMode, w: &mut BitWriter) {
    let n = coeffs.len();
    let (budget, max_planes) = block_budget(mode, n);
    let mut used = 0usize;
    let emit = |w: &mut BitWriter, bit: bool, used: &mut usize| -> bool {
        if *used >= budget {
            return false;
        }
        w.write_bit(bit);
        *used += 1;
        true
    };

    let amax = coeffs.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
    let emax = if amax == 0.0 || !amax.is_finite() {
        None
    } else {
        Some(amax.log2().floor() as i64)
    };
    // Header (always fits: budgets below EMAX_BITS are rejected upstream).
    match emax {
        None => {
            for _ in 0..EMAX_BITS {
                emit(w, false, &mut used);
            }
        }
        Some(e) => {
            let field = (e + EMAX_BIAS).clamp(1, (1 << EMAX_BITS) - 1) as u64;
            for b in 0..EMAX_BITS {
                emit(w, (field >> (EMAX_BITS - 1 - b)) & 1 == 1, &mut used);
            }
            // Scale to MAG_BITS-bit integers: |c| < 2^(e+1) ⇒ m < 2^MAG_BITS.
            let scale = 2.0f64.powi((MAG_BITS as i64 - 1 - e) as i32);
            let mags: Vec<u64> = coeffs
                .iter()
                .map(|&c| ((c.abs() * scale) as u64).min((1 << MAG_BITS) - 1))
                .collect();
            let mut significant = vec![false; n];
            'outer: for plane in (0..max_planes.min(MAG_BITS)).rev() {
                let shift = plane + MAG_BITS - max_planes.min(MAG_BITS);
                for (i, &m) in mags.iter().enumerate() {
                    let bit = (m >> shift) & 1 == 1;
                    if !emit(w, bit, &mut used) {
                        break 'outer;
                    }
                    if bit && !significant[i] {
                        significant[i] = true;
                        if !emit(w, coeffs[i] < 0.0, &mut used) {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    // Fixed-rate: pad to the exact budget so every block is addressable.
    if budget != usize::MAX {
        while used < budget {
            emit(w, false, &mut used);
        }
    }
}

/// Decode one block (mirror of [`encode_block`]).
fn decode_block(n: usize, mode: EcMode, r: &mut BitReader<'_>) -> Result<Vec<f64>, SzError> {
    let (budget, max_planes) = block_budget(mode, n);
    let mut used = 0usize;
    let take = |r: &mut BitReader<'_>, used: &mut usize| -> Result<Option<bool>, SzError> {
        if *used >= budget {
            return Ok(None);
        }
        let b = r.read_bit().map_err(SzError::from)?;
        *used += 1;
        Ok(Some(b))
    };

    let mut field = 0u64;
    for _ in 0..EMAX_BITS {
        let b = take(r, &mut used)?.ok_or(SzError::Format("EC header truncated"))?;
        field = (field << 1) | b as u64;
    }
    let mut out = vec![0.0f64; n];
    if field != 0 {
        let e = field as i64 - EMAX_BIAS;
        let planes = max_planes.min(MAG_BITS);
        let mut mags = vec![0u64; n];
        let mut signs = vec![false; n];
        let mut significant = vec![false; n];
        let mut last_shift = MAG_BITS; // lowest plane fully/partially seen
        'outer: for plane in (0..planes).rev() {
            let shift = plane + MAG_BITS - planes;
            for i in 0..n {
                match take(r, &mut used)? {
                    None => break 'outer,
                    Some(bit) => {
                        last_shift = shift;
                        if bit {
                            mags[i] |= 1u64 << shift;
                            if !significant[i] {
                                significant[i] = true;
                                match take(r, &mut used)? {
                                    None => break 'outer,
                                    Some(sgn) => signs[i] = sgn,
                                }
                            }
                        }
                    }
                }
            }
        }
        let descale = 2.0f64.powi((e - (MAG_BITS as i64 - 1)) as i32);
        for i in 0..n {
            if significant[i] {
                // Midpoint correction: half of the last decoded plane.
                let mid = if last_shift > 0 {
                    1u64 << (last_shift - 1)
                } else {
                    0
                };
                let mag = (mags[i] + mid) as f64 * descale;
                out[i] = if signs[i] { -mag } else { mag };
            }
        }
    }
    // Fixed-rate: consume the padding so the next block aligns.
    if budget != usize::MAX {
        while used < budget {
            take(r, &mut used)?.ok_or(SzError::Format("EC padding truncated"))?;
        }
    }
    Ok(out)
}

/// Compress a field with the embedded codec.
///
/// # Errors
/// [`SzError::BadConfig`] on invalid parameters.
pub fn embedded_compress<T: Scalar>(
    field: &Field<T>,
    cfg: &EmbeddedConfig,
) -> Result<Vec<u8>, SzError> {
    cfg.validate()?;
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.push(if T::TAG == "f32" { 0 } else { 1 });
    let dims = field.shape().dims();
    out.push(dims.len() as u8);
    for &d in &dims {
        varint::write_u64(&mut out, d as u64);
    }
    out.push(cfg.block as u8);
    out.push(cfg.basis.tag());
    match cfg.mode {
        EcMode::FixedRate { bits_per_value } => {
            out.push(0u8);
            out.extend_from_slice(&bits_per_value.to_le_bytes());
        }
        EcMode::FixedPrecision { planes } => {
            out.push(1u8);
            out.push(planes as u8);
        }
    }

    let rank = field.shape().rank();
    let basis = cfg.basis.build(cfg.block);
    let block_len = cfg.block.pow(rank as u32);
    if let EcMode::FixedRate { bits_per_value } = cfg.mode {
        let budget = (bits_per_value * block_len as f64).ceil() as usize;
        if budget <= EMAX_BITS as usize {
            return Err(SzError::BadConfig(format!(
                "rate {bits_per_value} bits/value gives a {budget}-bit block budget,                  below the {EMAX_BITS}-bit block header"
            )));
        }
    }
    let grid: Vec<usize> = dims.iter().map(|&d| d.div_ceil(cfg.block)).collect();
    let mut buf = vec![0.0f64; block_len];
    let mut w = BitWriter::new();
    for_each_block(&grid, |origin| {
        gather_block(field, origin, cfg.block, &mut buf);
        forward_block(&basis, &mut buf, rank);
        encode_block(&buf, cfg.mode, &mut w);
    });
    let bits = w.finish();
    varint::write_u64(&mut out, bits.len() as u64);
    out.extend_from_slice(&bits);
    Ok(out)
}

/// Decompress an embedded-coded container.
///
/// # Errors
/// [`SzError`] on malformed input or type mismatch.
pub fn embedded_decompress<T: Scalar>(src: &[u8]) -> Result<Field<T>, SzError> {
    if src.len() < 8 || src[..4] != MAGIC {
        return Err(SzError::Format("bad EC magic"));
    }
    let mut pos = 4usize;
    let tag = if src[pos] == 0 { "f32" } else { "f64" };
    if tag != T::TAG {
        return Err(SzError::TypeMismatch {
            found: tag.to_string(),
            expected: T::TAG,
        });
    }
    let rank = src[pos + 1] as usize;
    pos += 2;
    if !(1..=3).contains(&rank) {
        return Err(SzError::Format("bad rank"));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        let d = varint::read_u64(src, &mut pos)? as usize;
        if d == 0 || d > (1 << 40) {
            return Err(SzError::Format("bad dim"));
        }
        dims.push(d);
    }
    if src.len() < pos + 3 {
        return Err(SzError::Format("EC header truncated"));
    }
    let block = src[pos] as usize;
    let basis_kind =
        BasisKind::from_tag(src[pos + 1]).ok_or(SzError::Format("unknown basis tag"))?;
    let mode_tag = src[pos + 2];
    pos += 3;
    let mode = match mode_tag {
        0 => {
            if src.len() < pos + 8 {
                return Err(SzError::Format("EC rate truncated"));
            }
            let bits = f64::from_le_bytes(src[pos..pos + 8].try_into().expect("8 bytes"));
            pos += 8;
            if !(bits.is_finite() && bits > 0.0 && bits <= 64.0) {
                return Err(SzError::Format("bad stored rate"));
            }
            EcMode::FixedRate {
                bits_per_value: bits,
            }
        }
        1 => {
            let planes = *src.get(pos).ok_or(SzError::Format("EC planes truncated"))? as u32;
            pos += 1;
            if planes == 0 || planes > MAG_BITS {
                return Err(SzError::Format("bad stored planes"));
            }
            EcMode::FixedPrecision { planes }
        }
        _ => return Err(SzError::Format("unknown EC mode")),
    };
    if block != 4 && block != 8 {
        return Err(SzError::Format("bad block"));
    }
    let bits_len = varint::read_u64(src, &mut pos)? as usize;
    if src.len() < pos + bits_len {
        return Err(SzError::Format("EC payload truncated"));
    }
    let shape = Shape::from_dims(&dims);
    let basis = basis_kind.build(block);
    let block_len = block.pow(rank as u32);
    let grid: Vec<usize> = dims.iter().map(|&d| d.div_ceil(block)).collect();
    let mut r = BitReader::new(&src[pos..pos + bits_len]);
    let mut out = Field::<T>::zeros(shape);
    let mut failure: Option<SzError> = None;
    for_each_block(&grid, |origin| {
        if failure.is_some() {
            return;
        }
        match decode_block(block_len, mode, &mut r) {
            Ok(mut coeffs) => {
                inverse_block(&basis, &mut coeffs, rank);
                scatter_block(&mut out, origin, block, &coeffs);
            }
            Err(e) => failure = Some(e),
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(rows: usize, cols: usize) -> Field<f32> {
        Field::from_fn_2d(rows, cols, |i, j| {
            ((i as f32 * 0.19).sin() + (j as f32 * 0.23).cos()) * 6.0
        })
    }

    #[test]
    fn fixed_rate_sizes_are_exact() {
        let field = textured(64, 64);
        for bpv in [1.0f64, 2.0, 4.0, 8.0] {
            let cfg = EmbeddedConfig::fixed_rate(bpv);
            let bytes = embedded_compress(&field, &cfg).unwrap();
            // 256 blocks × ceil(bpv·16) bits, plus ~40 B header.
            let blocks = (64usize / 4) * (64 / 4);
            let payload_bits = blocks * (bpv * 16.0).ceil() as usize;
            let expect = payload_bits.div_ceil(8);
            let header = bytes.len() - expect;
            assert!(
                (0..64).contains(&header),
                "bpv {bpv}: total {} vs payload {expect}",
                bytes.len()
            );
        }
    }

    #[test]
    fn higher_rate_means_higher_quality() {
        let field = textured(64, 64);
        let mut last_mse = f64::INFINITY;
        for bpv in [1.0f64, 2.0, 4.0, 8.0, 16.0] {
            let cfg = EmbeddedConfig::fixed_rate(bpv);
            let back: Field<f32> =
                embedded_decompress(&embedded_compress(&field, &cfg).unwrap()).unwrap();
            let mse: f64 = field
                .as_slice()
                .iter()
                .zip(back.as_slice())
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum::<f64>()
                / field.len() as f64;
            assert!(
                mse < last_mse || mse == 0.0,
                "rate {bpv}: mse {mse} not below {last_mse}"
            );
            last_mse = mse;
        }
        // 16 bits/value on a smooth field must be quite accurate.
        assert!(last_mse.sqrt() < 1e-2, "rmse {}", last_mse.sqrt());
    }

    #[test]
    fn fixed_precision_bounds_block_relative_error() {
        let field = textured(32, 32);
        let cfg = EmbeddedConfig::fixed_precision(20);
        let back: Field<f32> =
            embedded_decompress(&embedded_compress(&field, &cfg).unwrap()).unwrap();
        let amax = field.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs())) as f64;
        for (&x, &y) in field.as_slice().iter().zip(back.as_slice()) {
            // 20 planes of a 48-bit magnitude: error ≤ 2^(emax-20+1); with
            // block emax ≤ global max exponent, bound via amax.
            let tol = amax * 2.0f64.powi(-17);
            assert!(((x - y).abs() as f64) <= tol, "x={x} y={y} tol={tol}");
        }
    }

    #[test]
    fn constant_zero_field_codes_compactly_and_exactly() {
        let field = Field::from_vec(Shape::D2(16, 16), vec![0.0f32; 256]);
        let cfg = EmbeddedConfig::fixed_precision(10);
        let bytes = embedded_compress(&field, &cfg).unwrap();
        let back: Field<f32> = embedded_decompress(&bytes).unwrap();
        assert_eq!(back.as_slice(), field.as_slice());
        assert!(bytes.len() < 96, "all-zero field coded to {}", bytes.len());
    }

    #[test]
    fn roundtrip_1d_and_3d() {
        let f1 = Field::from_fn_linear(Shape::D1(100), |i| (i as f32 * 0.2).sin());
        let f3 = Field::from_fn_3d(8, 9, 10, |i, j, k| ((i + j + k) as f32 * 0.3).cos());
        for (field, name) in [(f1, "1d"), (f3, "3d")] {
            let cfg = EmbeddedConfig::fixed_rate(12.0);
            let back: Field<f32> =
                embedded_decompress(&embedded_compress(&field, &cfg).unwrap()).unwrap();
            assert_eq!(back.shape(), field.shape(), "{name}");
            let rmse: f64 = (field
                .as_slice()
                .iter()
                .zip(back.as_slice())
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum::<f64>()
                / field.len() as f64)
                .sqrt();
            assert!(rmse < 1e-2, "{name}: rmse {rmse}");
        }
    }

    #[test]
    fn haar_basis_works_with_ec() {
        let field = textured(32, 32);
        let cfg = EmbeddedConfig {
            basis: BasisKind::Haar,
            ..EmbeddedConfig::fixed_rate(8.0)
        };
        let back: Field<f32> =
            embedded_decompress(&embedded_compress(&field, &cfg).unwrap()).unwrap();
        assert_eq!(back.shape(), field.shape());
    }

    #[test]
    fn type_mismatch_and_truncation_fail_cleanly() {
        let field = textured(16, 16);
        let bytes = embedded_compress(&field, &EmbeddedConfig::fixed_rate(4.0)).unwrap();
        assert!(embedded_decompress::<f64>(&bytes).is_err());
        for cut in [4usize, 10, bytes.len() - 1] {
            assert!(
                embedded_decompress::<f32>(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let field = textured(8, 8);
        assert!(embedded_compress(&field, &EmbeddedConfig::fixed_rate(0.0)).is_err());
        assert!(embedded_compress(&field, &EmbeddedConfig::fixed_rate(100.0)).is_err());
        assert!(embedded_compress(&field, &EmbeddedConfig::fixed_precision(0)).is_err());
        let bad_block = EmbeddedConfig {
            block: 5,
            ..EmbeddedConfig::fixed_rate(4.0)
        };
        assert!(embedded_compress(&field, &bad_block).is_err());
    }
}
