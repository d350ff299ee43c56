//! The compression/decompression pipelines.
//!
//! The quantized path is the faithful SZ 1.4 reproduction: a single
//! row-major walk predicts each sample from the reconstructed prefix
//! (Lorenzo), quantizes the prediction error on the uniform grid, and falls
//! back to a bit-exact escape when the grid cannot honour the bound. The
//! decompressor replays the identical walk, which is what Theorem 1 of the
//! paper formalises.
//!
//! Besides the quantized path the container supports a `Constant` mode
//! (zero value range), a `Raw` lossless mode (`eb = 0` or degenerate
//! inputs), and a `LogPointwiseRel` mode implementing pointwise-relative
//! bounds through a log transform (the SZ 2.x scheme) — included because
//! §II-B of the paper surveys exactly these error-control strategies.

use crate::config::{EntropyCoder, ErrorBound, EscapeCoding, LosslessBackend, SzConfig};
use crate::error::{DecodeError, SzError};
use crate::format::{self, Header, Mode};
use crate::kernels::{self, WalkResult};
use crate::predictor::{Predictor, PredictorModel, REGRESSION_COEFF_BYTES};
use crate::select;
use crate::unpredictable;
use losslesskit::bitio::{BitReader, BitWriter};
use losslesskit::crc32::crc32;
use losslesskit::huffman::HuffmanCodec;
use losslesskit::lz77::Effort;
use losslesskit::{bakeoff, deflate_like, freq, mshuf, range, varint};
use ndfield::{io as fio, Field, Scalar, Shape};
use std::borrow::Cow;

/// Per-run accounting returned by [`compress_with_detail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionDetail {
    /// Total samples in the field.
    pub n_samples: usize,
    /// Samples stored bit-exactly through the escape path.
    pub n_unpredictable: usize,
    /// Absolute bound the quantizer ran with (0 for constant/raw modes).
    pub eb_abs: f64,
    /// Value range of the original field.
    pub value_range: f64,
    /// Serialized Huffman table size.
    pub huffman_table_bytes: usize,
    /// Huffman-coded quantization-code stream size.
    pub code_stream_bytes: usize,
    /// Escape payload size (raw sample bytes).
    pub escape_payload_bytes: usize,
    /// Quantization bins actually used (differs from the configured cap
    /// when adaptive interval selection is on).
    pub quant_bins_used: usize,
    /// Container size before the final lossless stage.
    pub body_bytes: usize,
    /// Final container size.
    pub compressed_bytes: usize,
}

impl CompressionDetail {
    /// Compression ratio (original bytes / compressed bytes).
    pub fn ratio<T: Scalar>(&self) -> f64 {
        (self.n_samples * T::BYTES) as f64 / self.compressed_bytes.max(1) as f64
    }

    /// Bit rate in bits per sample.
    pub fn bit_rate(&self) -> f64 {
        self.compressed_bytes as f64 * 8.0 / self.n_samples.max(1) as f64
    }
}

/// The production walk over a whole field or block: continues the `Auto`
/// bake-off winner's slab walk when it is a prefix of this walk (the
/// escape coding is the scorer's `Exact`) and walks from the start
/// otherwise. Either way the output is the same. `recon` receives the
/// reconstruction.
pub(crate) fn production_walk<T: Scalar>(
    data: &[T],
    shape: Shape,
    eb: f64,
    bins: usize,
    sel: select::Selection<T>,
    escape: EscapeCoding,
    recon: &mut Vec<f64>,
) -> WalkResult<T> {
    match sel.walk {
        Some(slab) if escape == EscapeCoding::Exact => {
            fpsnr_obs::add("sz.select.resumed_samples", slab.codes.len() as u64);
            let st = kernels::walk_fused_resume(data, shape, eb, bins, sel.model, escape, slab);
            *recon = st.recon;
            WalkResult {
                codes: st.codes,
                unpred: st.unpred,
            }
        }
        _ => kernels::walk_fused(data, shape, eb, bins, sel.model, escape, recon),
    }
}

/// The bin count the quantized walk runs at: SZ 1.4's adaptive interval
/// selection over the whole field when [`SzConfig::auto_intervals`] is on,
/// the configured count otherwise.
pub(crate) fn resolve_bins<T: Scalar>(field: &Field<T>, eb_abs: f64, cfg: &SzConfig) -> usize {
    if cfg.auto_intervals {
        select::intervals(field, eb_abs, cfg.quant_bins)
    } else {
        cfg.quant_bins
    }
}

/// Compress a field.
///
/// # Errors
/// [`SzError`] on invalid configuration or bounds.
pub fn compress<T: Scalar>(field: &Field<T>, cfg: &SzConfig) -> Result<Vec<u8>, SzError> {
    compress_with_detail(field, cfg).map(|(bytes, _)| bytes)
}

/// Compress a field and report per-stage accounting.
///
/// # Errors
/// [`SzError`] on invalid configuration or bounds.
pub fn compress_with_detail<T: Scalar>(
    field: &Field<T>,
    cfg: &SzConfig,
) -> Result<(Vec<u8>, CompressionDetail), SzError> {
    let _total = fpsnr_obs::span("sz.compress");
    cfg.validate()?;
    let (mut bytes, mut detail) = if let ErrorBound::PointwiseRel(eb) = cfg.bound {
        compress_log_rel(field, eb, cfg)?
    } else {
        let stats = field.stats();
        let vr = stats.range();
        let eb_abs = cfg.bound.absolute(vr)?;
        if vr == 0.0 && stats.non_finite == 0 && field.len() > 0 {
            compress_constant(field)?
        } else if eb_abs <= 0.0 {
            // `Abs(0)` or a zero-range field with NaNs: lossless fallback.
            compress_raw(field, cfg)?
        } else if crate::blocked::use_blocked(cfg) {
            crate::blocked::compress_blocked(field, eb_abs, vr, cfg)?
        } else {
            compress_quantized(field, eb_abs, vr, cfg)?
        }
    };
    // Integrity trailer: bit rot in archived streams must fail loudly.
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    detail.compressed_bytes = bytes.len();
    if fpsnr_obs::is_enabled() {
        fpsnr_obs::add("sz.fields", 1);
        fpsnr_obs::add("sz.bytes_in", (field.len() * T::BYTES) as u64);
        fpsnr_obs::add("sz.bytes_out", bytes.len() as u64);
        // Telemetry only: the dispatch tier never reaches container bytes
        // (byte-identity contract, DESIGN.md §17), but perf traces are
        // meaningless without knowing which kernel tier produced them.
        let tier = losslesskit::simd::active().name();
        fpsnr_obs::add(&format!("sz.simd.{tier}"), 1);
    }
    Ok((bytes, detail))
}

fn compress_constant<T: Scalar>(field: &Field<T>) -> Result<(Vec<u8>, CompressionDetail), SzError> {
    let mut out = Vec::new();
    format::write_header(&mut out, T::TAG, Mode::Constant, field.shape())?;
    field.as_slice()[0].write_le(&mut out);
    let detail = CompressionDetail {
        n_samples: field.len(),
        n_unpredictable: 0,
        eb_abs: 0.0,
        value_range: 0.0,
        huffman_table_bytes: 0,
        code_stream_bytes: 0,
        escape_payload_bytes: 0,
        quant_bins_used: 0,
        body_bytes: T::BYTES,
        compressed_bytes: out.len(),
    };
    Ok((out, detail))
}

fn compress_raw<T: Scalar>(
    field: &Field<T>,
    cfg: &SzConfig,
) -> Result<(Vec<u8>, CompressionDetail), SzError> {
    let mut out = Vec::with_capacity(field.len() * T::BYTES + 32);
    format::write_header(&mut out, T::TAG, Mode::Raw, field.shape())?;
    let raw = fio::to_le_bytes(field);
    let body_bytes = raw.len();
    let (flag, payload) = apply_lossless(raw, cfg);
    out.push(flag);
    varint::write_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    let detail = CompressionDetail {
        n_samples: field.len(),
        n_unpredictable: field.len(),
        eb_abs: 0.0,
        value_range: field.value_range(),
        huffman_table_bytes: 0,
        code_stream_bytes: 0,
        escape_payload_bytes: body_bytes,
        quant_bins_used: 0,
        body_bytes,
        compressed_bytes: out.len(),
    };
    Ok((out, detail))
}

/// Run the configured lossless backend; returns `(flag, bytes)` keeping the
/// smaller of compressed/uncompressed so the backend can never inflate.
/// When stored as-is (flag 0) the body comes back untouched, never copied,
/// and when every chunk stores no bake-off container is built at all.
///
/// The `Lz` backend runs the per-chunk bake-off (flag 2): each 256 KiB
/// chunk independently picks stored/DEFLATE/Huffman/range by measured
/// entropy and probe cost. Flag 1 (whole-body DEFLATE) remains decodable
/// for containers written before v3.
pub(crate) fn apply_lossless(body: Vec<u8>, cfg: &SzConfig) -> (u8, Vec<u8>) {
    if cfg.lossless == LosslessBackend::Lz {
        let (baked, stats) = bakeoff::compress_unless_stored(&body, Effort::Default);
        if fpsnr_obs::is_enabled() {
            for (i, backend) in bakeoff::Backend::ALL.iter().enumerate() {
                if stats.chunks[i] > 0 {
                    let name = backend.name();
                    fpsnr_obs::add(&format!("sz.lossless.chunks.{name}"), stats.chunks[i]);
                    fpsnr_obs::add(&format!("sz.lossless.bytes.{name}"), stats.comp_bytes[i]);
                }
            }
            for (name, n) in [
                ("sz.lossless.probe.pruned", stats.probes_pruned),
                ("sz.lossless.probe.scanned", stats.probes_scanned),
                ("sz.lossless.trial.huffman_skipped", stats.huffman_skipped),
            ] {
                if n > 0 {
                    fpsnr_obs::add(name, n);
                }
            }
        }
        if let Some(baked) = baked.filter(|baked| baked.len() < body.len()) {
            return (2, baked);
        }
    }
    (0, body)
}

/// Inverse of [`apply_lossless`] with a hard cap on the inflated size, so a
/// hostile LZ header cannot demand an unbounded allocation. The
/// stored-as-is case borrows the payload instead of copying it.
pub(crate) fn undo_lossless_bounded(
    flag: u8,
    payload: &[u8],
    max_raw: usize,
) -> Result<Cow<'_, [u8]>, SzError> {
    match flag {
        0 => Ok(Cow::Borrowed(payload)),
        1 => deflate_like::lz_decompress_bounded(payload, max_raw)
            .map(Cow::Owned)
            .map_err(SzError::from),
        2 => bakeoff::decompress_bounded(payload, max_raw).map_err(SzError::from),
        _ => Err(SzError::Format("unknown lossless flag")),
    }
}

fn compress_quantized<T: Scalar>(
    field: &Field<T>,
    eb_abs: f64,
    vr: f64,
    cfg: &SzConfig,
) -> Result<(Vec<u8>, CompressionDetail), SzError> {
    // Stage 1 (sz.predict): per-field selection — adaptive interval
    // sizing, then the predictor (the `Auto` bake-off walks a leading slab).
    let predict_span = fpsnr_obs::span("sz.predict");
    let bins = resolve_bins(field, eb_abs, cfg);
    let sel = select::model(field.as_slice(), field.shape(), cfg.predictor, eb_abs, bins);
    let model = sel.model;
    drop(predict_span);

    // Stage 2 (sz.quantize): the prediction + linear-scaling quantization
    // walk over every sample, replaying whichever predictor was selected
    // and continuing the bake-off winner's slab walk where it can.
    let quantize_span = fpsnr_obs::span("sz.quantize");
    let mut recon = Vec::new();
    let walk = production_walk(
        field.as_slice(),
        field.shape(),
        eb_abs,
        bins,
        sel,
        cfg.escape,
        &mut recon,
    );
    drop(recon);
    drop(quantize_span);

    // Stage 3 (sz.encode): entropy stage over the code alphabet
    // (0 = escape): multi-stream interleaved Huffman (stage 2, the
    // default since container v3) or the adaptive range coder (stage 1).
    // Monolithic single-stream Huffman (stage 0) is decode-only legacy.
    let encode_span = fpsnr_obs::span("sz.encode");
    let escapes_cap = walk.unpred.len() * T::BYTES + 16;
    let (mut body, table_len, stream_len) = match cfg.entropy {
        EntropyCoder::Huffman => {
            // Counted by lane: lane k holds the symbols of stream k.
            let count_span = fpsnr_obs::span("sz.encode.count");
            let lanes = freq::count_dense_lanes(&walk.codes, bins);
            drop(count_span);
            let table_span = fpsnr_obs::span("sz.encode.table");
            let codec = HuffmanCodec::from_counts(&freq::merge_dense_lanes(&lanes));
            let mut table = Vec::new();
            codec.write_table(&mut table);
            drop(table_span);
            // The lanes size the code stream exactly; it is then coded
            // straight into the body behind the table.
            let _stream_span = fpsnr_obs::span("sz.encode.stream");
            let bits = codec.encoded_lane_bits(&lanes);
            let stream_len = mshuf::encoded_len(&bits);
            let mut body = Vec::with_capacity(table.len() + stream_len + escapes_cap + 21);
            body.push(2u8);
            varint::write_u64(&mut body, table.len() as u64);
            body.extend_from_slice(&table);
            varint::write_u64(&mut body, stream_len as u64);
            mshuf::encode_sized(&walk.codes, &codec, &bits, &mut body);
            (body, table.len(), stream_len)
        }
        EntropyCoder::Range => {
            let stream = range::range_encode(&walk.codes, bins);
            let mut body = Vec::with_capacity(stream.len() + escapes_cap + 11);
            body.push(1u8);
            varint::write_u64(&mut body, stream.len() as u64);
            body.extend_from_slice(&stream);
            (body, 0, stream.len())
        }
    };
    varint::write_u64(&mut body, walk.unpred.len() as u64);
    body.push(cfg.escape.tag());
    write_escapes(&mut body, &walk.unpred, cfg.escape, eb_abs);
    let body_bytes = body.len();
    drop(encode_span);

    let mut out = Vec::new();
    format::write_header(&mut out, T::TAG, Mode::Quantized, field.shape())?;
    out.extend_from_slice(&eb_abs.to_le_bytes());
    varint::write_u64(&mut out, bins as u64);
    out.push(model.tag());
    // Regression carries its fitted coefficients inline, right after the
    // predictor tag: the decoder needs them before it can replay the walk.
    out.extend_from_slice(&model.coeff_bytes());
    // Stage 4 (sz.lossless): LZ pass over the serialized body.
    let lossless_span = fpsnr_obs::span("sz.lossless");
    // The body moves in: freed before the container grows to its full
    // size when it compresses, handed back as the payload when stored.
    let (flag, payload) = apply_lossless(body, cfg);
    drop(lossless_span);
    out.push(flag);
    varint::write_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);

    let detail = CompressionDetail {
        n_samples: field.len(),
        n_unpredictable: walk.unpred.len(),
        eb_abs,
        value_range: vr,
        huffman_table_bytes: table_len,
        code_stream_bytes: stream_len,
        escape_payload_bytes: walk.unpred.len() * T::BYTES,
        quant_bins_used: bins,
        body_bytes,
        compressed_bytes: out.len(),
    };
    Ok((out, detail))
}

/// The paper's pointwise-relative extension: compress `ln|x|` with the
/// equivalent absolute bound `ln(1+eb)`; signs/zeros/non-finites travel in
/// a 2-bit class plane.
fn compress_log_rel<T: Scalar>(
    field: &Field<T>,
    eb: f64,
    cfg: &SzConfig,
) -> Result<(Vec<u8>, CompressionDetail), SzError> {
    if !(eb.is_finite() && eb > 0.0) {
        return Err(SzError::BadBound(format!(
            "pointwise relative bound must be finite and positive, got {eb}"
        )));
    }
    let n = field.len();
    let data = field.as_slice();
    let mut classes = vec![0u8; n];
    let mut y = vec![T::default(); n];
    let mut nonfinite: Vec<T> = Vec::with_capacity(field.stats().non_finite);
    for (i, &x) in data.iter().enumerate() {
        let xf = x.to_f64();
        if !xf.is_finite() {
            classes[i] = 3;
            nonfinite.push(x);
        } else if xf == 0.0 {
            classes[i] = 2;
        } else {
            classes[i] = if xf < 0.0 { 1 } else { 0 };
            y[i] = T::from_f64(xf.abs().ln());
        }
    }
    // Pack the class plane 4 samples per byte.
    let mut packed = vec![0u8; n.div_ceil(4)];
    for (i, &c) in classes.iter().enumerate() {
        packed[i / 4] |= c << ((i % 4) * 2);
    }
    // Nested container over the log field with the derived absolute bound.
    let inner_cfg = SzConfig {
        bound: ErrorBound::Abs((1.0 + eb).ln()),
        ..*cfg
    };
    let y_field = Field::from_vec(field.shape(), y);
    let (inner, inner_detail) = compress_with_detail(&y_field, &inner_cfg)?;

    let mut out = Vec::with_capacity(inner.len() + packed.len() + nonfinite.len() * T::BYTES + 64);
    format::write_header(&mut out, T::TAG, Mode::LogPointwiseRel, field.shape())?;
    out.extend_from_slice(&eb.to_le_bytes());
    let (flag, class_payload) = apply_lossless(packed, cfg);
    out.push(flag);
    varint::write_u64(&mut out, class_payload.len() as u64);
    out.extend_from_slice(&class_payload);
    varint::write_u64(&mut out, nonfinite.len() as u64);
    for &v in &nonfinite {
        v.write_le(&mut out);
    }
    varint::write_u64(&mut out, inner.len() as u64);
    out.extend_from_slice(&inner);

    let detail = CompressionDetail {
        n_samples: n,
        n_unpredictable: inner_detail.n_unpredictable + nonfinite.len(),
        eb_abs: (1.0 + eb).ln(),
        value_range: field.value_range(),
        huffman_table_bytes: inner_detail.huffman_table_bytes,
        code_stream_bytes: inner_detail.code_stream_bytes,
        escape_payload_bytes: inner_detail.escape_payload_bytes,
        quant_bins_used: inner_detail.quant_bins_used,
        body_bytes: inner_detail.body_bytes,
        compressed_bytes: out.len(),
    };
    Ok((out, detail))
}

/// Decompress a container produced by [`compress`].
///
/// Blocked containers decode their blocks in parallel on the machine's
/// default thread count; use [`decompress_with_threads`] to control it.
/// The decoded samples never depend on the thread count.
///
/// # Errors
/// [`SzError::TypeMismatch`] when `T` differs from the compressed type, and
/// [`SzError::Format`]/[`SzError::Codec`] on malformed input.
pub fn decompress<T: Scalar>(src: &[u8]) -> Result<Field<T>, SzError> {
    decompress_with_threads(src, 0)
}

/// [`decompress`] with an explicit worker-thread count for blocked
/// containers (0 = auto-detect, 1 = fully sequential).
///
/// # Errors
/// Same failure modes as [`decompress`].
pub fn decompress_with_threads<T: Scalar>(src: &[u8], threads: usize) -> Result<Field<T>, SzError> {
    decompress_with_limits(src, threads, &DecodeLimits::default())
}

/// Hard resource caps enforced while decoding untrusted bytes.
///
/// Every size a container *declares* (output element count, inflated body
/// length, symbol counts) is checked against these caps before any
/// proportional allocation happens, so arbitrary input can make decoding
/// fail but never make it exhaust memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeLimits {
    /// Cap on the decoded field size in bytes (default 1 GiB).
    pub max_output_bytes: u64,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        DecodeLimits {
            max_output_bytes: 1 << 30,
        }
    }
}

impl DecodeLimits {
    /// Cap for intermediate (pre-output) buffers. Escape-heavy bodies can
    /// legitimately run a few times the output size, so allow 4x plus a
    /// floor for tiny outputs.
    pub(crate) fn max_body_bytes(&self) -> usize {
        let cap = self.max_output_bytes.saturating_mul(4).max(1 << 20);
        cap.min(usize::MAX as u64) as usize
    }
}

/// [`decompress_with_threads`] with explicit [`DecodeLimits`].
///
/// # Errors
/// Adds [`crate::DecodeError::LimitExceeded`] (wrapped in
/// [`SzError::Decode`]) when a declared size exceeds a cap; otherwise as
/// [`decompress`].
pub fn decompress_with_limits<T: Scalar>(
    src: &[u8],
    threads: usize,
    limits: &DecodeLimits,
) -> Result<Field<T>, SzError> {
    decode(src, threads, limits, true).map(|(field, _)| field)
}

/// The one decode dispatcher behind [`decompress_with_limits`] (strict:
/// any damage is an error) and [`decompress_partial_with_threads`]
/// (forgiving: a stale outer CRC and damaged v2+ blocks are reported, not
/// fatal).
fn decode<T: Scalar>(
    src: &[u8],
    threads: usize,
    limits: &DecodeLimits,
    strict: bool,
) -> Result<(Field<T>, DamageReport), SzError> {
    let _total = fpsnr_obs::span(if strict {
        "sz.decompress"
    } else {
        "sz.decompress_partial"
    });
    let (src, crc_ok) = split_and_check_crc(src, strict)?;
    let mut pos = 0usize;
    let header = format::read_header(src, &mut pos)?;
    check_type_and_limits::<T>(&header, limits)?;
    let field = match header.mode {
        Mode::Constant => decompress_constant(src, pos, &header),
        Mode::Raw => decompress_raw(src, pos, &header, limits),
        Mode::Quantized => decompress_quantized(src, pos, &header, limits),
        Mode::LogPointwiseRel => decompress_log_rel(src, pos, &header, limits),
        Mode::Blocked => {
            return crate::blocked::decompress_blocked(
                src, pos, &header, threads, limits, strict, crc_ok,
            )
        }
    }?;
    let n = field.len();
    Ok((
        field,
        DamageReport {
            n_blocks: 1,
            damaged: Vec::new(),
            recovered_samples: n,
            container_crc_ok: crc_ok,
        },
    ))
}

/// Split the 4-byte CRC-32 trailer off a container and verify it.
///
/// In strict mode a mismatch is an error; the forgiving (partial) path
/// passes `strict = false` and gets the verdict back so it can keep going
/// and report it instead.
pub(crate) fn split_and_check_crc(src: &[u8], strict: bool) -> Result<(&[u8], bool), SzError> {
    if src.len() < 4 {
        return Err(DecodeError::Truncated {
            stage: "crc trailer",
            offset: 0,
            needed: 4,
            available: src.len() as u64,
        }
        .into());
    }
    let (body, trailer) = src.split_at(src.len() - 4);
    let mut stored = [0u8; 4];
    stored.copy_from_slice(trailer);
    let ok = crc32(body) == u32::from_le_bytes(stored);
    if strict && !ok {
        return Err(DecodeError::CrcMismatch {
            stage: "container",
            offset: body.len(),
        }
        .into());
    }
    Ok((body, ok))
}

pub(crate) fn check_type_and_limits<T: Scalar>(
    header: &Header,
    limits: &DecodeLimits,
) -> Result<(), SzError> {
    if header.scalar_tag != T::TAG {
        return Err(SzError::TypeMismatch {
            found: header.scalar_tag.to_string(),
            expected: T::TAG,
        });
    }
    let out_bytes = (header.shape.len() as u64).saturating_mul(T::BYTES as u64);
    if out_bytes > limits.max_output_bytes {
        return Err(DecodeError::LimitExceeded {
            stage: "header",
            what: "output bytes",
            requested: out_bytes,
            limit: limits.max_output_bytes,
        }
        .into());
    }
    Ok(())
}

/// Damage record for one independently-recoverable unit of a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDamage {
    /// Index of the damaged block (0 for monolithic containers).
    pub index: usize,
    /// Row-major linear sample range the damaged block covers. For slab
    /// blocks (v1–v3 containers) this is exactly the block's samples; for
    /// v4 grid blocks it is the smallest contiguous interval covering the
    /// block's strided footprint.
    pub sample_range: std::ops::Range<usize>,
    /// What failed — CRC mismatch, truncation, malformed payload.
    pub reason: String,
}

/// Outcome of a forgiving decode pass ([`decompress_partial`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DamageReport {
    /// Independently-recoverable units in the container. Monolithic modes
    /// have exactly one; v2 blocked containers have one per block.
    pub n_blocks: usize,
    /// Damaged units in ascending index order.
    pub damaged: Vec<BlockDamage>,
    /// Samples recovered bit-exactly.
    pub recovered_samples: usize,
    /// Whether the whole-container CRC-32 trailer matched.
    pub container_crc_ok: bool,
}

impl DamageReport {
    /// True when every unit decoded and the container CRC matched.
    pub fn is_clean(&self) -> bool {
        self.container_crc_ok && self.damaged.is_empty()
    }
}

/// Forgiving decode: recover as much of a damaged container as possible.
///
/// For v2 blocked containers each block carries its own CRC, so a damaged
/// slab is skipped (its samples become NaN) while every intact block is
/// recovered bit-exactly and reported. Monolithic containers have no
/// per-block framing, so recovery is all-or-nothing — but unlike
/// [`decompress`], a container whose only damage is a stale outer CRC
/// trailer still decodes, with `container_crc_ok = false` in the report.
///
/// # Errors
/// Same failure modes as [`decompress`] when nothing is recoverable.
pub fn decompress_partial<T: Scalar>(src: &[u8]) -> Result<(Field<T>, DamageReport), SzError> {
    decompress_partial_with_threads(src, 0)
}

/// [`decompress_partial`] with an explicit worker-thread count.
///
/// # Errors
/// Same failure modes as [`decompress_partial`].
pub fn decompress_partial_with_threads<T: Scalar>(
    src: &[u8],
    threads: usize,
) -> Result<(Field<T>, DamageReport), SzError> {
    decode(src, threads, &DecodeLimits::default(), false)
}

pub(crate) fn take<'a>(src: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], SzError> {
    let available = src.len().saturating_sub(*pos);
    if available < n {
        return Err(DecodeError::Truncated {
            stage: "body",
            offset: *pos,
            needed: n as u64,
            available: available as u64,
        }
        .into());
    }
    let out = &src[*pos..*pos + n];
    *pos += n;
    Ok(out)
}

/// Read a little-endian `f64` at `pos`.
pub(crate) fn read_f64(src: &[u8], pos: &mut usize) -> Result<f64, SzError> {
    let bytes = take(src, pos, 8)?;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(bytes);
    Ok(f64::from_le_bytes(buf))
}

/// Read and validate the quantizer parameters every quantized container
/// stores: the absolute error bound (`f64`), then the bin count (varint).
pub(crate) fn read_eb_bins(src: &[u8], pos: &mut usize) -> Result<(f64, usize), SzError> {
    let eb = read_f64(src, pos)?;
    if !(eb.is_finite() && eb > 0.0) {
        return Err(SzError::Format("bad stored error bound"));
    }
    let bins = varint::read_u64(src, pos)? as usize;
    if bins < 4 || bins % 2 != 0 || bins > (1 << 24) {
        return Err(SzError::Format("bad stored bin count"));
    }
    Ok((eb, bins))
}

fn decompress_constant<T: Scalar>(
    src: &[u8],
    mut pos: usize,
    header: &Header,
) -> Result<Field<T>, SzError> {
    let v = T::read_le(take(src, &mut pos, T::BYTES)?);
    Ok(Field::from_vec(header.shape, vec![v; header.shape.len()]))
}

fn decompress_raw<T: Scalar>(
    src: &[u8],
    mut pos: usize,
    header: &Header,
    _limits: &DecodeLimits,
) -> Result<Field<T>, SzError> {
    let flag = take(src, &mut pos, 1)?[0];
    let len = varint::read_u64(src, &mut pos)? as usize;
    let payload = take(src, &mut pos, len)?;
    // Raw bodies inflate to exactly the output size, which the caller has
    // already checked against the output cap.
    let raw = undo_lossless_bounded(flag, payload, header.shape.len() * T::BYTES)?;
    fio::from_le_bytes(header.shape, &raw).map_err(|_| SzError::Format("raw payload size"))
}

fn decompress_quantized<T: Scalar>(
    src: &[u8],
    mut pos: usize,
    header: &Header,
    limits: &DecodeLimits,
) -> Result<Field<T>, SzError> {
    let (eb, bins) = read_eb_bins(src, &mut pos)?;
    let pred_tag = take(src, &mut pos, 1)?[0];
    // Tag 3 (regression) is followed by its fitted-coefficient payload; the
    // other predictors are stateless and carry no coefficients.
    let coeffs: &[u8] = if pred_tag == 3 {
        take(src, &mut pos, REGRESSION_COEFF_BYTES)?
    } else {
        &[]
    };
    let model = PredictorModel::from_tag_and_coeffs(pred_tag, coeffs)
        .ok_or(SzError::Format("unknown predictor tag"))?;
    let flag = take(src, &mut pos, 1)?[0];
    let len = varint::read_u64(src, &mut pos)? as usize;
    let payload = take(src, &mut pos, len)?;
    let body = undo_lossless_bounded(flag, payload, limits.max_body_bytes())?;

    // Parse body sections. The code stream is *located* here but not yet
    // decoded: the escape payload behind it parses first, so the fused
    // mirror below can interleave LUT Huffman decoding with
    // reconstruction slice by slice instead of materializing all codes.
    let mut bpos = 0usize;
    let n = header.shape.len();
    let stage = *body.first().ok_or(SzError::Format("empty body"))?;
    bpos += 1;
    let (codec, stream) = match stage {
        0 | 2 => {
            let table_len = varint::read_u64(&body, &mut bpos)? as usize;
            let table_end = bpos
                .checked_add(table_len)
                .filter(|&e| e <= body.len())
                .ok_or(SzError::Format("table section overruns body"))?;
            let codec = HuffmanCodec::read_table(&body[..table_end], &mut bpos)?;
            if bpos != table_end {
                return Err(SzError::Format("table length mismatch"));
            }
            let stream_len = varint::read_u64(&body, &mut bpos)? as usize;
            if stream_len > body.len().saturating_sub(bpos) {
                return Err(SzError::Format("code stream overruns body"));
            }
            let stream = &body[bpos..bpos + stream_len];
            bpos += stream_len;
            (Some(codec), stream)
        }
        1 => {
            let stream_len = varint::read_u64(&body, &mut bpos)? as usize;
            if stream_len > body.len().saturating_sub(bpos) {
                return Err(SzError::Format("code stream overruns body"));
            }
            let stream = &body[bpos..bpos + stream_len];
            bpos += stream_len;
            (None, stream)
        }
        _ => return Err(SzError::Format("unknown entropy stage")),
    };
    let n_unpred = varint::read_u64(&body, &mut bpos)? as usize;
    if n_unpred > n {
        return Err(SzError::Format("more escapes than samples"));
    }
    let escape_tag = *body
        .get(bpos)
        .ok_or(SzError::Format("missing escape tag"))?;
    bpos += 1;
    let unpred_values: Vec<T> = read_escape_values(&body, &mut bpos, n_unpred, escape_tag, eb)?;

    // Fused mirror of the compression walk (Theorem 1): decode the code
    // stream in outer-slice chunks and reconstruct each chunk immediately.
    let _mirror = fpsnr_obs::span("sz.kernel.decode");
    let samples = replay_walk(
        stream,
        codec.as_ref(),
        stage,
        header.shape,
        eb,
        bins,
        model,
        unpred_values,
    )?;
    Ok(Field::from_vec(header.shape, samples))
}

/// Append the escape payload of `unpred` in the given coding: raw IEEE
/// bits, or the truncated binary representation behind a varint length.
/// The tag and value count are the caller's framing.
///
/// This is the single escape writer shared by the monolithic body and
/// every blocked-container block; [`read_escape_values`] is its inverse.
pub(crate) fn write_escapes<T: Scalar>(
    out: &mut Vec<u8>,
    unpred: &[T],
    escape: EscapeCoding,
    eb: f64,
) {
    match escape {
        EscapeCoding::Exact => {
            for &u in unpred {
                u.write_le(out);
            }
        }
        EscapeCoding::Truncated => {
            let mut bw = BitWriter::new();
            unpredictable::encode(unpred, eb, &mut bw);
            let bits = bw.finish();
            varint::write_u64(out, bits.len() as u64);
            out.extend_from_slice(&bits);
        }
    }
}

/// Parse an escape payload (tag 0: raw IEEE bits, tag 1: truncated binary
/// representation) starting at `bpos`, advancing it past the payload.
///
/// This is the single escape parser shared by the monolithic body, every
/// blocked-container block, and the random-access store.
pub(crate) fn read_escape_values<T: Scalar>(
    body: &[u8],
    bpos: &mut usize,
    n_unpred: usize,
    escape_tag: u8,
    eb: f64,
) -> Result<Vec<T>, SzError> {
    match escape_tag {
        0 => {
            // The caller has bounded `n_unpred` by the sample count, so the
            // multiply cannot overflow for any shape that passed the header
            // limits.
            if n_unpred * T::BYTES > body.len().saturating_sub(*bpos) {
                return Err(SzError::Format("escape payload overruns body"));
            }
            let vals = (0..n_unpred)
                .map(|i| T::read_le(&body[*bpos + i * T::BYTES..]))
                .collect();
            *bpos += n_unpred * T::BYTES;
            Ok(vals)
        }
        1 => {
            let bits_len = varint::read_u64(body, bpos)? as usize;
            if bits_len > body.len().saturating_sub(*bpos) {
                return Err(SzError::Format("escape bitstream overruns body"));
            }
            let mut br = BitReader::new(&body[*bpos..*bpos + bits_len]);
            let vals = unpredictable::decode::<T>(&mut br, n_unpred, eb)?;
            *bpos += bits_len;
            Ok(vals)
        }
        _ => Err(SzError::Format("unknown escape coding tag")),
    }
}

/// Entropy-decode a code stream and replay the prediction–quantization walk
/// over `shape` (the Theorem-1 mirror), interleaving decode and
/// reconstruction in outer-slice chunks.
///
/// The single walk-replay routine shared by the monolithic body, every
/// blocked-container block, and the random-access store.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay_walk<T: Scalar>(
    stream: &[u8],
    codec: Option<&HuffmanCodec>,
    stage: u8,
    shape: Shape,
    eb: f64,
    bins: usize,
    model: PredictorModel,
    unpred: Vec<T>,
) -> Result<Vec<T>, SzError> {
    let n = shape.len();
    let mut dec = kernels::FusedDecoder::new(shape, eb, bins, model, unpred);
    match (stage, codec) {
        (0, Some(codec)) => {
            let mut br = BitReader::new(stream);
            let slice = dec.slice_len().max(1);
            let chunk = (DECODE_CHUNK_CODES / slice).max(1) * slice;
            let mut codes = Vec::with_capacity(chunk.min(n));
            while dec.remaining() > 0 {
                let now = chunk.min(dec.remaining());
                codes.clear();
                codec.decode(&mut br, now, &mut codes)?;
                dec.push(&codes)?;
            }
        }
        (2, Some(codec)) => {
            let mut reader = mshuf::InterleavedReader::new(stream)?;
            let slice = dec.slice_len().max(1);
            let chunk = (DECODE_CHUNK_CODES / slice).max(1) * slice;
            let mut codes = Vec::with_capacity(chunk.min(n));
            while dec.remaining() > 0 {
                let now = chunk.min(dec.remaining());
                codes.clear();
                reader.decode(codec, now, &mut codes)?;
                dec.push(&codes)?;
            }
        }
        _ => {
            let codes = range::range_decode_bounded(stream, n)?;
            if codes.len() != n {
                return Err(SzError::Format("range stream decoded wrong count"));
            }
            dec.push(&codes)?;
        }
    }
    dec.finish()
}

/// Target Huffman-decode granularity for the fused mirror, in codes; the
/// actual chunk is the nearest whole number of outer-dimension slices.
const DECODE_CHUNK_CODES: usize = 16 * 1024;

fn decompress_log_rel<T: Scalar>(
    src: &[u8],
    mut pos: usize,
    header: &Header,
    limits: &DecodeLimits,
) -> Result<Field<T>, SzError> {
    let _eb = read_f64(src, &mut pos)?;
    let flag = take(src, &mut pos, 1)?[0];
    let class_len = varint::read_u64(src, &mut pos)? as usize;
    let class_payload = take(src, &mut pos, class_len)?;
    let n = header.shape.len();
    let packed = undo_lossless_bounded(flag, class_payload, n.div_ceil(4))?;
    if packed.len() != n.div_ceil(4) {
        return Err(SzError::Format("class plane size mismatch"));
    }
    let n_nonfinite = varint::read_u64(src, &mut pos)? as usize;
    if n_nonfinite > n {
        return Err(SzError::Format("more non-finites than samples"));
    }
    let nf_bytes = take(src, &mut pos, n_nonfinite * T::BYTES)?;
    let inner_len = varint::read_u64(src, &mut pos)? as usize;
    let inner = take(src, &mut pos, inner_len)?;
    // The encoder only ever nests a non-log-rel container here; a hostile
    // stream could otherwise chain log-rel containers into unbounded
    // recursion. Reject before recursing.
    if inner.len() >= format::MAGIC.len() + 2 + 4 {
        let mode_byte = inner[format::MAGIC.len() + 1];
        if mode_byte == Mode::LogPointwiseRel as u8 {
            return Err(DecodeError::Corrupt {
                stage: "log-rel body",
                offset: pos - inner.len(),
                what: "nested log-rel container",
            }
            .into());
        }
    }
    let y: Field<T> = decompress_with_limits(inner, 1, limits)?;
    if y.shape() != header.shape {
        return Err(SzError::Format("inner shape mismatch"));
    }
    let mut out = vec![T::default(); n];
    let mut nf_idx = 0usize;
    for lin in 0..n {
        let class = (packed[lin / 4] >> ((lin % 4) * 2)) & 0b11;
        out[lin] = match class {
            0 => T::from_f64(y.as_slice()[lin].to_f64().exp()),
            1 => T::from_f64(-y.as_slice()[lin].to_f64().exp()),
            2 => T::from_f64(0.0),
            _ => {
                if nf_idx >= n_nonfinite {
                    return Err(SzError::Format("more non-finites than stored"));
                }
                let v = T::read_le(&nf_bytes[nf_idx * T::BYTES..]);
                nf_idx += 1;
                v
            }
        };
    }
    if nf_idx != n_nonfinite {
        return Err(SzError::Format("unused non-finite values"));
    }
    Ok(Field::from_vec(header.shape, out))
}

/// Theorem-1 probe: runs the one-block compression walk — what
/// [`compress`] runs at `threads = 1` with no `block_rows` or
/// `chunk_dims`, at the same bin count and predictor — through the
/// reference walk [`kernels::walk_reference`], and returns, per sample,
/// the prediction error `Xpe` and its reconstruction `X̃pe` (the
/// quantizer's midpoint, or the stored value on the escape path), with the
/// absolute bound the walk used. `Xpe` alone is the prediction-error
/// distribution of the paper's Fig. 1. Theorem 1 states
/// `X − X̃ = Xpe − X̃pe`; the `theorem_check` experiment verifies that the
/// distortion measured on these pairs equals the distortion measured on
/// the actual decompressed output.
///
/// The probe covers the walks that run on the samples themselves.
/// [`ErrorBound::PointwiseRel`] compresses `ln|x|` through the log
/// transform instead, so the probe has no pairs to return for it.
///
/// # Errors
/// Same failure modes as [`compress`], and [`SzError::BadBound`] when the
/// bound resolves to zero or is [`ErrorBound::PointwiseRel`].
pub fn quantization_probe<T: Scalar>(
    field: &Field<T>,
    cfg: &SzConfig,
) -> Result<(Vec<f64>, Vec<f64>, f64), SzError> {
    cfg.validate()?;
    if let ErrorBound::PointwiseRel(_) = cfg.bound {
        return Err(SzError::BadBound(
            "quantization probe does not cover the pointwise-relative log transform".to_string(),
        ));
    }
    let vr = field.value_range();
    let eb_abs = cfg.bound.absolute(vr)?;
    if eb_abs <= 0.0 {
        return Err(SzError::BadBound(
            "quantization probe needs a positive bound".to_string(),
        ));
    }
    let (data, shape) = (field.as_slice(), field.shape());
    let bins = resolve_bins(field, eb_abs, cfg);
    let model = select::model(data, shape, cfg.predictor, eb_abs, bins).model;
    let (walk, preds) = kernels::walk_reference(data, shape, eb_abs, bins, model, cfg.escape);
    let pe = data
        .iter()
        .zip(&preds)
        .map(|(x, p)| x.to_f64() - p)
        .collect();
    // X̃pe as the decompressor sees it: X̃ − pred.
    let pe_recon = walk.recon.iter().zip(&preds).map(|(r, p)| r - p).collect();
    Ok((pe, pe_recon, eb_abs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndfield::Shape;

    fn wavy_2d(rows: usize, cols: usize) -> Field<f32> {
        Field::from_fn_2d(rows, cols, |i, j| {
            let x = i as f32 * 0.07;
            let y = j as f32 * 0.05;
            (x.sin() * y.cos() * 10.0) + 0.3 * (x * 3.1).cos()
        })
    }

    fn max_abs_err(a: &Field<f32>, b: &Field<f32>) -> f64 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs() as f64)
            .fold(0.0, f64::max)
    }

    #[test]
    fn stored_bodies_come_back_uncopied_with_probe_counters() {
        // 300 KiB of noise: two bake-off chunks, both settled by the probe
        // bound and stored, so the body itself is the payload.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let body: Vec<u8> = (0..300 * 1024)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let (want, at) = (body.clone(), body.as_ptr());
        let cfg = SzConfig::new(ErrorBound::Abs(1e-3));
        fpsnr_obs::reset();
        fpsnr_obs::enable();
        let armed = fpsnr_obs::is_enabled(); // false when built with fpsnr-obs/off
        let (flag, payload) = apply_lossless(body, &cfg);
        fpsnr_obs::disable();
        assert_eq!((flag, payload.as_ptr()), (0, at));
        assert_eq!(payload, want);
        if armed {
            // Other tests may compress while the registry is armed, so
            // the counters are lower bounds here.
            let report = fpsnr_obs::snapshot();
            assert!(report.counter("sz.lossless.probe.pruned").unwrap_or(0) >= 2);
            assert!(report.counter("sz.lossless.chunks.stored").unwrap_or(0) >= 2);
        }
    }

    #[test]
    fn abs_bound_respected_2d() {
        let field = wavy_2d(50, 60);
        for eb in [1e-1, 1e-3, 1e-5] {
            let cfg = SzConfig::new(ErrorBound::Abs(eb));
            let bytes = compress(&field, &cfg).unwrap();
            let back: Field<f32> = decompress(&bytes).unwrap();
            assert!(
                max_abs_err(&field, &back) <= eb,
                "bound {eb} violated: {}",
                max_abs_err(&field, &back)
            );
        }
    }

    #[test]
    fn rel_bound_respected() {
        let field = wavy_2d(40, 40);
        let vr = field.value_range();
        let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-4));
        let bytes = compress(&field, &cfg).unwrap();
        let back: Field<f32> = decompress(&bytes).unwrap();
        assert!(max_abs_err(&field, &back) <= 1e-4 * vr);
    }

    #[test]
    fn bound_respected_1d_and_3d() {
        let f1 = Field::from_fn_linear(Shape::D1(500), |i| ((i as f32) * 0.01).sin());
        let f3 = Field::from_fn_3d(12, 13, 14, |i, j, k| {
            ((i + 2 * j + 3 * k) as f32 * 0.02).sin() * 5.0
        });
        let cfg = SzConfig::new(ErrorBound::Abs(1e-3));
        let b1: Field<f32> = decompress(&compress(&f1, &cfg).unwrap()).unwrap();
        let b3: Field<f32> = decompress(&compress(&f3, &cfg).unwrap()).unwrap();
        assert!(max_abs_err(&f1, &b1) <= 1e-3);
        assert!(max_abs_err(&f3, &b3) <= 1e-3);
    }

    #[test]
    fn smooth_field_compresses_well() {
        let field = wavy_2d(128, 128);
        let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-3));
        let (bytes, detail) = compress_with_detail(&field, &cfg).unwrap();
        assert_eq!(bytes.len(), detail.compressed_bytes);
        assert!(
            detail.ratio::<f32>() > 4.0,
            "ratio only {:.2}",
            detail.ratio::<f32>()
        );
        assert!(detail.n_unpredictable < field.len() / 100);
    }

    #[test]
    fn constant_field_uses_constant_mode() {
        let field = Field::from_vec(Shape::D2(30, 30), vec![4.25f32; 900]);
        let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-3));
        let bytes = compress(&field, &cfg).unwrap();
        assert!(
            bytes.len() < 32,
            "constant container is {} bytes",
            bytes.len()
        );
        let back: Field<f32> = decompress(&bytes).unwrap();
        assert_eq!(back.as_slice(), field.as_slice());
    }

    #[test]
    fn abs_zero_bound_is_lossless_raw() {
        let field = wavy_2d(20, 20);
        let cfg = SzConfig::new(ErrorBound::Abs(0.0));
        let bytes = compress(&field, &cfg).unwrap();
        let back: Field<f32> = decompress(&bytes).unwrap();
        assert_eq!(back.as_slice(), field.as_slice());
    }

    #[test]
    fn nan_samples_survive_exactly() {
        let mut field = wavy_2d(16, 16);
        field.as_mut_slice()[37] = f32::NAN;
        field.as_mut_slice()[100] = f32::INFINITY;
        let cfg = SzConfig::new(ErrorBound::Abs(1e-2));
        let bytes = compress(&field, &cfg).unwrap();
        let back: Field<f32> = decompress(&bytes).unwrap();
        assert!(back.as_slice()[37].is_nan());
        assert_eq!(back.as_slice()[100], f32::INFINITY);
        for (lin, (&x, &y)) in field.as_slice().iter().zip(back.as_slice()).enumerate() {
            if x.is_finite() {
                assert!((x - y).abs() <= 1e-2, "sample {lin}");
            }
        }
    }

    #[test]
    fn f64_roundtrip() {
        let field = Field::from_fn_2d(40, 40, |i, j| ((i * j) as f64).sqrt());
        let cfg = SzConfig::new(ErrorBound::Abs(1e-9));
        let back: Field<f64> = decompress(&compress(&field, &cfg).unwrap()).unwrap();
        for (x, y) in field.as_slice().iter().zip(back.as_slice()) {
            assert!((x - y).abs() <= 1e-9);
        }
    }

    #[test]
    fn type_mismatch_detected() {
        let field = wavy_2d(10, 10);
        let bytes = compress(&field, &SzConfig::new(ErrorBound::Abs(1e-3))).unwrap();
        let res: Result<Field<f64>, _> = decompress(&bytes);
        assert!(matches!(res, Err(SzError::TypeMismatch { .. })));
    }

    #[test]
    fn truncated_container_fails_cleanly() {
        let field = wavy_2d(30, 30);
        let bytes = compress(&field, &SzConfig::new(ErrorBound::Abs(1e-3))).unwrap();
        for cut in [8, bytes.len() / 2, bytes.len() - 1] {
            let res: Result<Field<f32>, _> = decompress(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn lossless_none_backend_roundtrips() {
        let field = wavy_2d(30, 30);
        let cfg = SzConfig::new(ErrorBound::Abs(1e-3)).with_lossless(LosslessBackend::None);
        let back: Field<f32> = decompress(&compress(&field, &cfg).unwrap()).unwrap();
        assert!(max_abs_err(&field, &back) <= 1e-3);
    }

    #[test]
    fn small_bin_count_forces_escapes_but_respects_bound() {
        // With only 8 bins, most prediction errors overflow the grid.
        let field = Field::from_fn_2d(32, 32, |i, j| ((i * 31 + j * 17) % 97) as f32);
        let cfg = SzConfig::new(ErrorBound::Abs(1e-4)).with_quant_bins(8);
        let (bytes, detail) = compress_with_detail(&field, &cfg).unwrap();
        assert!(detail.n_unpredictable > 0);
        let back: Field<f32> = decompress(&bytes).unwrap();
        assert!(max_abs_err(&field, &back) <= 1e-4);
    }

    #[test]
    fn pointwise_rel_bound_respected() {
        let field = Field::from_fn_2d(40, 40, |i, j| {
            let v = ((i + 1) * (j + 1)) as f32;
            if (i + j) % 3 == 0 {
                -v
            } else {
                v * 1e-3
            }
        });
        let eb = 1e-3;
        let cfg = SzConfig::new(ErrorBound::PointwiseRel(eb));
        let bytes = compress(&field, &cfg).unwrap();
        let back: Field<f32> = decompress(&bytes).unwrap();
        for (&x, &y) in field.as_slice().iter().zip(back.as_slice()) {
            let tol = eb * x.abs() as f64 * (1.0 + 1e-5) + 1e-30;
            assert!(
                ((x - y).abs() as f64) <= tol,
                "x={x} y={y} rel={}",
                ((x - y) / x).abs()
            );
        }
    }

    #[test]
    fn pointwise_rel_preserves_zeros_and_signs() {
        let mut field = Field::from_fn_linear(Shape::D1(100), |i| (i as f32 - 50.0) * 0.5);
        field.as_mut_slice()[10] = 0.0;
        field.as_mut_slice()[20] = f32::NAN;
        let cfg = SzConfig::new(ErrorBound::PointwiseRel(1e-2));
        let back: Field<f32> = decompress(&compress(&field, &cfg).unwrap()).unwrap();
        assert_eq!(back.as_slice()[10], 0.0);
        assert!(back.as_slice()[20].is_nan());
        for (&x, &y) in field.as_slice().iter().zip(back.as_slice()) {
            if x.is_finite() {
                assert_eq!(x.signum(), y.signum(), "sign flipped at x={x}");
            }
        }
    }

    #[test]
    fn prediction_errors_probe_matches_walk() {
        let field = wavy_2d(30, 30);
        let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-3));
        let (errs, _, eb) = quantization_probe(&field, &cfg).unwrap();
        assert_eq!(errs.len(), field.len());
        assert!(eb > 0.0);
        // First sample is predicted as 0 ⇒ its error is the sample itself.
        assert_eq!(errs[0], field.as_slice()[0] as f64);
        // Smooth field ⇒ overwhelmingly small errors.
        let small = errs.iter().filter(|e| e.abs() < 0.5).count();
        assert!(small * 10 > errs.len() * 9);
    }

    #[test]
    fn detail_accounting_is_consistent() {
        let field = wavy_2d(64, 64);
        let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-4));
        let (bytes, d) = compress_with_detail(&field, &cfg).unwrap();
        assert_eq!(d.n_samples, 64 * 64);
        assert_eq!(d.compressed_bytes, bytes.len());
        assert!(d.body_bytes >= d.huffman_table_bytes + d.code_stream_bytes);
        assert!(d.bit_rate() > 0.0);
    }

    #[test]
    fn auto_intervals_roundtrips_and_respects_bound() {
        let field = wavy_2d(80, 80);
        let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-3)).with_auto_intervals(true);
        let (bytes, detail) = compress_with_detail(&field, &cfg).unwrap();
        assert!(detail.quant_bins_used >= 32);
        assert!(detail.quant_bins_used <= 65536);
        let back: Field<f32> = decompress(&bytes).unwrap();
        let eb = 1e-3 * field.value_range() as f64;
        assert!(max_abs_err(&field, &back) <= eb);
    }

    #[test]
    fn auto_intervals_picks_small_alphabet_on_smooth_data() {
        // A very smooth field has tiny prediction errors: the selector
        // should settle far below the 65536 cap, shrinking the alphabet.
        let field = Field::from_fn_2d(100, 100, |i, j| {
            (i as f32 * 0.01).sin() + (j as f32 * 0.008).cos()
        });
        let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-4)).with_auto_intervals(true);
        let (_, detail) = compress_with_detail(&field, &cfg).unwrap();
        assert!(
            detail.quant_bins_used < 65536,
            "selector kept the cap: {}",
            detail.quant_bins_used
        );
    }

    #[test]
    fn auto_intervals_creates_escapes_on_heavy_tails() {
        // Mostly smooth with occasional large jumps: the 99% selection
        // leaves the jump tail outside the grid as bit-exact escapes.
        let field = Field::from_fn_2d(64, 64, |i, j| {
            let smooth = (i as f32 * 0.05).sin() * 0.1;
            if (i * 64 + j) % 97 == 0 {
                smooth + 50.0
            } else {
                smooth
            }
        });
        let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-5)).with_auto_intervals(true);
        let (bytes, detail) = compress_with_detail(&field, &cfg).unwrap();
        assert!(detail.n_unpredictable > 0, "expected escape tail");
        let back: Field<f32> = decompress(&bytes).unwrap();
        let eb = 1e-5 * field.value_range() as f64;
        assert!(max_abs_err(&field, &back) <= eb);
    }

    #[test]
    fn single_element_field_roundtrips() {
        let field = Field::from_vec(Shape::D1(1), vec![42.0f32]);
        let cfg = SzConfig::new(ErrorBound::Abs(1e-3));
        let back: Field<f32> = decompress(&compress(&field, &cfg).unwrap()).unwrap();
        assert_eq!(back.as_slice()[0], 42.0);
    }

    #[test]
    fn range_entropy_stage_roundtrips() {
        use crate::config::EntropyCoder;
        let field = wavy_2d(60, 60);
        let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-3))
            .with_entropy(EntropyCoder::Range)
            .with_auto_intervals(true);
        let (bytes, _) = compress_with_detail(&field, &cfg).unwrap();
        let back: Field<f32> = decompress(&bytes).unwrap();
        let eb = 1e-3 * field.value_range() as f64;
        assert!(max_abs_err(&field, &back) <= eb);
    }

    #[test]
    fn range_stage_competitive_with_huffman_on_peaked_codes() {
        use crate::config::EntropyCoder;
        // Very smooth field + adaptive intervals (the realistic pairing:
        // a small alphabet lets the order-0 model adapt within the field):
        // codes collapse onto the central bin, where fractional-bit coding
        // beats Huffman's 1-bit floor.
        let field = Field::from_fn_2d(150, 150, |i, j| {
            (i as f32 * 0.005).sin() + (j as f32 * 0.004).cos()
        });
        // Compare the entropy stages in isolation (no LZ backend): the LZ
        // pass can squeeze Huffman's redundant 1-bit-per-symbol stream, so
        // the fractional-bit advantage shows at the stage boundary.
        let base = SzConfig::new(ErrorBound::ValueRangeRel(1e-2))
            .with_auto_intervals(true)
            .with_lossless(LosslessBackend::None);
        let h = compress(&field, &base).unwrap();
        let r = compress(&field, &base.with_entropy(EntropyCoder::Range)).unwrap();
        assert!(
            (r.len() as f64) < h.len() as f64 * 1.05,
            "range {} vs huffman {}",
            r.len(),
            h.len()
        );
    }

    #[test]
    fn lorenzo2_predictor_roundtrips_on_ramps() {
        use crate::predictor::PredictorKind;
        let field = Field::from_fn_2d(100, 100, |i, j| {
            (i as f32) * 2.0 - (j as f32) * 1.5 + ((i + j) as f32 * 0.05).sin() * 0.01
        });
        let eb = 1e-4 * field.value_range() as f64;
        let base = SzConfig::new(ErrorBound::Abs(eb));
        let b1 = compress(&field, &base).unwrap();
        let b2 = compress(&field, &base.with_predictor(PredictorKind::Lorenzo2)).unwrap();
        for bytes in [&b1, &b2] {
            let back: Field<f32> = decompress(bytes).unwrap();
            assert!(max_abs_err(&field, &back) <= eb);
        }
    }

    #[test]
    fn auto_predictor_selection_roundtrips() {
        use crate::predictor::PredictorKind;
        let field = wavy_2d(64, 64);
        let cfg =
            SzConfig::new(ErrorBound::ValueRangeRel(1e-3)).with_predictor(PredictorKind::Auto);
        let bytes = compress(&field, &cfg).unwrap();
        let back: Field<f32> = decompress(&bytes).unwrap();
        let eb = 1e-3 * field.value_range() as f64;
        assert!(max_abs_err(&field, &back) <= eb);
    }

    /// A field engineered to escape often: smooth background with frequent
    /// huge spikes and a tiny bin count.
    fn spiky() -> (Field<f32>, SzConfig) {
        let field = Field::from_fn_2d(48, 48, |i, j| {
            let smooth = (i as f32 * 0.05).sin() * 0.1;
            if (i * 48 + j) % 11 == 0 {
                smooth + 1000.0 + (i * j) as f32
            } else {
                smooth
            }
        });
        let cfg = SzConfig::new(ErrorBound::Abs(1e-4)).with_quant_bins(16);
        (field, cfg)
    }

    #[test]
    fn truncated_escapes_respect_bound() {
        use crate::config::EscapeCoding;
        let (field, cfg) = spiky();
        let cfg = cfg.with_escape(EscapeCoding::Truncated);
        let (bytes, detail) = compress_with_detail(&field, &cfg).unwrap();
        assert!(detail.n_unpredictable > 100, "test needs many escapes");
        let back: Field<f32> = decompress(&bytes).unwrap();
        assert!(max_abs_err(&field, &back) <= 1e-4 * (1.0 + 1e-12));
    }

    #[test]
    fn truncated_escapes_shrink_the_stream_at_loose_bounds() {
        use crate::config::EscapeCoding;
        // Loose bound relative to the escape magnitudes: the truncation
        // keeps ~10 mantissa bits instead of 32 raw ones. (At bounds near
        // full f32 precision the encoder falls back to raw automatically —
        // covered by truncated_escapes_respect_bound.)
        let field = Field::from_fn_2d(48, 48, |i, j| {
            let smooth = (i as f32 * 0.05).sin() * 0.1;
            if (i * 48 + j) % 7 == 0 {
                smooth + 1000.0 + (i * j) as f32
            } else {
                smooth
            }
        });
        let cfg = SzConfig::new(ErrorBound::Abs(0.5)).with_quant_bins(16);
        let exact = compress(&field, &cfg).unwrap();
        let trunc = compress(&field, &cfg.with_escape(EscapeCoding::Truncated)).unwrap();
        assert!(
            trunc.len() < exact.len(),
            "truncated {} not smaller than exact {}",
            trunc.len(),
            exact.len()
        );
    }

    #[test]
    fn truncated_escape_probe_matches_data_mse() {
        // Theorem 1 must keep holding with truncated escapes: the probe's
        // quantizer-side MSE equals the end-to-end data MSE.
        use crate::config::EscapeCoding;
        let (field, cfg) = spiky();
        let cfg = cfg.with_escape(EscapeCoding::Truncated);
        let (pe, pe_recon, _) = quantization_probe(&field, &cfg).unwrap();
        let quant_mse: f64 = pe
            .iter()
            .zip(&pe_recon)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / pe.len() as f64;
        let back: Field<f32> = decompress(&compress(&field, &cfg).unwrap()).unwrap();
        let data_mse: f64 = field
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(x, y)| ((x - y) as f64).powi(2))
            .sum::<f64>()
            / field.len() as f64;
        let rel = if quant_mse > 0.0 {
            (quant_mse - data_mse).abs() / quant_mse
        } else {
            data_mse
        };
        assert!(rel < 1e-6, "quant {quant_mse:e} vs data {data_mse:e}");
    }
}
