//! # szlike — SZ-style prediction-based error-bounded lossy compression
//!
//! A from-scratch reimplementation of the SZ 1.4 pipeline the paper builds
//! its fixed-PSNR mode on:
//!
//! 1. **Prediction** — the Lorenzo predictor approximates each sample from
//!    its already-reconstructed preceding neighbours in 1/2/3-D
//!    ([`predictor`]). Compression and decompression run the *identical*
//!    procedure on the *reconstructed* values, which is what makes the
//!    paper's Theorem 1 (`X − X̃ = Xpe − X̃pe`) hold exactly.
//! 2. **Error-controlled quantization** — prediction errors are mapped to
//!    integer codes on a uniform grid of bin size `2·eb_abs`; values the
//!    grid cannot represent within the bound become *unpredictable* escapes
//!    stored bit-exactly ([`quantizer`]).
//! 3. **Entropy + lossless stages** — the code stream is Huffman-coded and
//!    the result (plus the escape payload) passed through the DEFLATE-like
//!    backend, standing in for SZ's customized-Huffman + GZIP stages.
//!
//! The hard guarantee `|x − x̃| ≤ eb_abs` holds for every finite sample: the
//! compressor verifies each reconstruction and demotes any violation to an
//! escape (the same safety net SZ uses against floating-point round-off).
//!
//! ```
//! use ndfield::{Field, Shape};
//! use szlike::{compress, decompress, ErrorBound, SzConfig};
//!
//! let field = Field::from_fn_2d(64, 64, |i, j| ((i + j) as f32 * 0.1).sin());
//! let cfg = SzConfig::new(ErrorBound::Abs(1e-3));
//! let bytes = compress(&field, &cfg).unwrap();
//! let back: Field<f32> = decompress(&bytes).unwrap();
//! for (a, b) in field.as_slice().iter().zip(back.as_slice()) {
//!     assert!((a - b).abs() <= 1e-3);
//! }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod blocked;
pub mod compressor;
pub mod config;
pub mod error;
pub mod format;
pub mod grid;
pub mod inspect;
pub mod kernels;
pub mod predictor;
pub mod quantizer;
pub mod ratemodel;
pub mod select;
pub mod store;
pub mod unpredictable;

pub use compressor::{
    compress, compress_with_detail, decompress, decompress_partial,
    decompress_partial_with_threads, decompress_with_limits, decompress_with_threads,
    quantization_probe, BlockDamage, CompressionDetail, DamageReport, DecodeLimits,
};
pub use config::{EntropyCoder, ErrorBound, EscapeCoding, LosslessBackend, SzConfig};
pub use error::{DecodeError, SzError};
pub use grid::{ChunkGrid, Region};
pub use inspect::{inspect_block_predictors, inspect_sections, ContainerInfo, SectionInfo};
pub use predictor::{Predictor, PredictorKind, PredictorModel};
pub use quantizer::LinearQuantizer;
pub use ratemodel::{RateCurve, RateModel};
pub use store::{StoreOptions, StoreStats, SzStore};
