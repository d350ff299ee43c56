//! Compressor configuration: error-bound modes, bin counts, backends.

use crate::error::SzError;
use crate::predictor::PredictorKind;

/// Pointwise error-control mode (SZ §II-B of the paper).
///
/// The fixed-PSNR mode of the paper is *not* listed here on purpose: it
/// lives one layer up in `fpsnr-core`, which derives a
/// [`ErrorBound::ValueRangeRel`] bound from the PSNR target (Eq. 8) and then
/// invokes this compressor — exactly how the paper implements it on top of
/// unmodified SZ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound: `|x − x̃| ≤ eb` for every sample.
    Abs(f64),
    /// Value-range-relative bound: `|x − x̃| ≤ eb_rel · (max − min)`.
    ValueRangeRel(f64),
    /// Pointwise relative bound `|x − x̃| ≤ eb·|x|`, implemented by
    /// compressing `ln|x|` with an absolute bound (the SZ 2.x
    /// log-transform scheme). Signs and zeros are stored exactly.
    PointwiseRel(f64),
}

impl ErrorBound {
    /// Resolve the mode to the absolute bound used by the quantizer, given
    /// the field's value range.
    ///
    /// # Errors
    /// Rejects non-finite or negative bounds, and zero bounds (SZ treats
    /// `eb = 0` as an error; use a lossless compressor instead).
    pub fn absolute(&self, value_range: f64) -> Result<f64, SzError> {
        let raw = match *self {
            ErrorBound::Abs(eb) => eb,
            ErrorBound::ValueRangeRel(rel) => rel * value_range,
            ErrorBound::PointwiseRel(eb) => {
                // In log space the absolute bound is ln(1 + eb) (a value
                // reconstructed within that log-distance is within a factor
                // 1±eb of the original).
                if !(eb.is_finite() && eb > 0.0) {
                    return Err(SzError::BadBound(format!(
                        "pointwise relative bound must be finite and positive, got {eb}"
                    )));
                }
                (1.0 + eb).ln()
            }
        };
        if !raw.is_finite() || raw < 0.0 {
            return Err(SzError::BadBound(format!(
                "resolved absolute bound is {raw}"
            )));
        }
        Ok(raw)
    }
}

/// Which entropy coder encodes the quantization-code stream (SZ step 2's
/// "customized Huffman"; the adaptive range coder is the ablation
/// alternative — better ratio on heavily peaked code distributions, slower).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntropyCoder {
    /// Canonical Huffman with a serialized table (SZ's choice).
    Huffman,
    /// Adaptive range coder (no table; fractional-bit codes).
    Range,
}

/// How escaped (unpredictable) samples are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscapeCoding {
    /// Full IEEE bits — zero error on escapes (this library's default:
    /// strictly better quality at a small ratio cost on the escape tail).
    Exact,
    /// SZ 1.4's binary-representation truncation: keep only the mantissa
    /// bits the error bound requires (escape error ≤ eb, smaller streams).
    Truncated,
}

impl EscapeCoding {
    /// Wire tag of the escape payload (0 = exact IEEE bits, 1 = truncated),
    /// as parsed by the decoder's escape reader.
    pub(crate) fn tag(self) -> u8 {
        match self {
            EscapeCoding::Exact => 0,
            EscapeCoding::Truncated => 1,
        }
    }
}

/// Which lossless backend runs over the entropy-coded payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LosslessBackend {
    /// Store the Huffman bytes as-is (fastest; ratio left on the table).
    None,
    /// Per-chunk entropy bake-off ([`losslesskit::bakeoff`]): each 256 KiB
    /// chunk of the serialized body independently picks stored, DEFLATE-like
    /// LZ77+Huffman, order-0 Huffman or adaptive range coding, whichever
    /// measures smallest (default).
    Lz,
}

/// Full compressor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SzConfig {
    /// Pointwise error-control mode.
    pub bound: ErrorBound,
    /// Total quantization bins `2n` (paper's notation) — the *cap* when
    /// [`SzConfig::auto_intervals`] is on. SZ's default is 65536; must be
    /// an even value ≥ 4.
    pub quant_bins: usize,
    /// SZ 1.4's adaptive interval selection: sample the prediction errors
    /// and pick the smallest power-of-two bin count covering at least 97%
    /// of them (SZ's `predThreshold`; points outside become bit-exact
    /// escapes). Smaller alphabets entropy-code better, and the
    /// ~1% of near-exact escapes is part of why real SZ lands slightly
    /// *above* the Eq. 7 PSNR estimate.
    pub auto_intervals: bool,
    /// Prediction stencil (SZ 1.4 default: first-order Lorenzo). `Auto`
    /// scores four candidates (first- and second-order Lorenzo, regression,
    /// spline) by walking a leading slab of each field or block, and keeps
    /// the cheapest, echoing early SZ's best-fit predictor selection.
    pub predictor: PredictorKind,
    /// Entropy coder for the quantization codes.
    pub entropy: EntropyCoder,
    /// Storage scheme for escaped samples.
    pub escape: EscapeCoding,
    /// Lossless backend for stage 3.
    pub lossless: LosslessBackend,
    /// Worker threads for the block-parallel path (0 = auto-detect, 1 =
    /// monolithic single pass). The container bytes never depend on this —
    /// only on [`SzConfig::block_rows`] — so any thread count decodes any
    /// blocked stream and re-encoding with more threads is byte-identical.
    pub threads: usize,
    /// Rows (slowest-varying-dimension slices) per block in the blocked
    /// path; 0 = derive from the shape. The blocked container is used when
    /// `threads != 1`, `block_rows > 0`, or `chunk_dims` is set.
    pub block_rows: usize,
    /// Per-axis chunk extents for the multi-dimensional chunk-grid layout
    /// (container v4). All-zero (the default) keeps the slab layout; a
    /// non-zero entry cuts that axis into chunks of that extent, and a
    /// zero entry inside a non-zero request means "full extent on this
    /// axis". Trailing entries beyond the field's rank must be zero. Chunk
    /// grids make random-access region reads cheap along every axis
    /// (see `szlike::store`) at a small ratio cost from the extra
    /// per-block framing.
    pub chunk_dims: [usize; 3],
}

impl SzConfig {
    /// Configuration with SZ defaults (65536-bin cap, fixed intervals, LZ
    /// backend).
    pub fn new(bound: ErrorBound) -> Self {
        SzConfig {
            bound,
            quant_bins: 65536,
            auto_intervals: false,
            predictor: PredictorKind::Lorenzo1,
            entropy: EntropyCoder::Huffman,
            escape: EscapeCoding::Exact,
            lossless: LosslessBackend::Lz,
            threads: 1,
            block_rows: 0,
            chunk_dims: [0; 3],
        }
    }

    /// Enable SZ 1.4-style adaptive interval selection.
    pub fn with_auto_intervals(mut self, on: bool) -> Self {
        self.auto_intervals = on;
        self
    }

    /// Override the prediction stencil.
    pub fn with_predictor(mut self, kind: PredictorKind) -> Self {
        self.predictor = kind;
        self
    }

    /// Override the entropy coder.
    pub fn with_entropy(mut self, coder: EntropyCoder) -> Self {
        self.entropy = coder;
        self
    }

    /// Override the escape storage scheme.
    pub fn with_escape(mut self, escape: EscapeCoding) -> Self {
        self.escape = escape;
        self
    }

    /// Override the quantization bin count.
    pub fn with_quant_bins(mut self, bins: usize) -> Self {
        self.quant_bins = bins;
        self
    }

    /// Override the lossless backend.
    pub fn with_lossless(mut self, backend: LosslessBackend) -> Self {
        self.lossless = backend;
        self
    }

    /// Set the worker-thread count for the blocked path (0 = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the block size in slowest-dimension rows (0 = auto).
    pub fn with_block_rows(mut self, rows: usize) -> Self {
        self.block_rows = rows;
        self
    }

    /// Request the multi-dimensional chunk-grid layout (container v4) with
    /// the given per-axis chunk extents. Entries beyond the field's rank
    /// must be zero; a zero entry means "full extent on this axis".
    pub fn with_chunk_dims(mut self, chunk_dims: [usize; 3]) -> Self {
        self.chunk_dims = chunk_dims;
        self
    }

    /// Validate structural parameters (bin count parity and range).
    ///
    /// # Errors
    /// [`SzError::BadConfig`] when the bin count is odd, too small, or too
    /// large for the `u32` code space.
    pub fn validate(&self) -> Result<(), SzError> {
        if self.quant_bins < 4 || self.quant_bins % 2 != 0 {
            return Err(SzError::BadConfig(format!(
                "quant_bins must be an even value >= 4, got {}",
                self.quant_bins
            )));
        }
        if self.quant_bins > (1 << 24) {
            return Err(SzError::BadConfig(format!(
                "quant_bins {} exceeds the 2^24 code-space cap",
                self.quant_bins
            )));
        }
        if self.threads > 4096 {
            return Err(SzError::BadConfig(format!(
                "threads {} exceeds the 4096 sanity cap",
                self.threads
            )));
        }
        if self.chunk_dims != [0; 3] && self.block_rows > 0 {
            return Err(SzError::BadConfig(
                "block_rows and chunk_dims are mutually exclusive: the chunk \
                 grid already fixes the axis-0 extent"
                    .to_string(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_mode_passes_through() {
        assert_eq!(ErrorBound::Abs(0.5).absolute(100.0).unwrap(), 0.5);
    }

    #[test]
    fn rel_mode_scales_with_range() {
        assert_eq!(
            ErrorBound::ValueRangeRel(1e-3).absolute(200.0).unwrap(),
            0.2
        );
    }

    #[test]
    fn pointwise_rel_uses_log_bound() {
        let eb = ErrorBound::PointwiseRel(0.01).absolute(1.0).unwrap();
        assert!((eb - 1.01f64.ln()).abs() < 1e-15);
    }

    #[test]
    fn nan_bound_rejected() {
        assert!(ErrorBound::Abs(f64::NAN).absolute(1.0).is_err());
        assert!(ErrorBound::ValueRangeRel(f64::INFINITY).absolute(1.0).is_err());
        assert!(ErrorBound::PointwiseRel(-0.5).absolute(1.0).is_err());
    }

    #[test]
    fn negative_bound_rejected() {
        assert!(ErrorBound::Abs(-1.0).absolute(1.0).is_err());
    }

    #[test]
    fn zero_range_rel_bound_resolves_to_zero() {
        // Constant field: eb_abs = 0; the compressor special-cases it.
        assert_eq!(ErrorBound::ValueRangeRel(1e-3).absolute(0.0).unwrap(), 0.0);
    }

    #[test]
    fn config_validation() {
        assert!(SzConfig::new(ErrorBound::Abs(1.0)).validate().is_ok());
        assert!(SzConfig::new(ErrorBound::Abs(1.0))
            .with_quant_bins(5)
            .validate()
            .is_err());
        assert!(SzConfig::new(ErrorBound::Abs(1.0))
            .with_quant_bins(2)
            .validate()
            .is_err());
        assert!(SzConfig::new(ErrorBound::Abs(1.0))
            .with_quant_bins(1 << 25)
            .validate()
            .is_err());
    }

    #[test]
    fn builder_overrides() {
        let cfg = SzConfig::new(ErrorBound::Abs(1.0))
            .with_quant_bins(1024)
            .with_lossless(LosslessBackend::None);
        assert_eq!(cfg.quant_bins, 1024);
        assert_eq!(cfg.lossless, LosslessBackend::None);
    }
}
