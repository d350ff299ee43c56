//! # fixed-psnr — Fixed-PSNR lossy compression for scientific data
//!
//! A production-quality Rust reproduction of *Tao, Di, Liang, Chen,
//! Cappello — "Fixed-PSNR Lossy Compression for Scientific Data", IEEE
//! CLUSTER 2018* (arXiv:1805.07384), including every substrate the paper
//! builds on:
//!
//! | layer | module | contents |
//! |-------|--------|----------|
//! | contribution | [`core`] | Eq. 2–8 distortion estimation, PSNR→bound inversion, the fixed-PSNR driver, the iterative-search baseline, parallel batch runner |
//! | compressor | [`sz`] | SZ-1.4-style pipeline: Lorenzo prediction, error-controlled uniform quantization, Huffman, LZ |
//! | transform codec | [`transform`] | blockwise orthonormal DCT codec (Theorem 2 witness) |
//! | lossless | [`lossless`] | bit I/O, canonical Huffman, LZ77, DEFLATE-like container |
//! | metrics | [`metrics`] | MSE/NRMSE/PSNR with the paper's definitions, histograms, ratios |
//! | fields | [`field`] | n-dimensional grids, statistics, raw I/O |
//! | data | [`data`] | synthetic ATM/Hurricane/NYX-like data sets |
//! | runtime | [`parallel`] | `std::thread` scoped, order-preserving parallel map |
//!
//! ## Quickstart
//!
//! ```
//! use fixed_psnr::prelude::*;
//! use fixed_psnr::sz;
//!
//! // A smooth 2-D field standing in for one climate variable.
//! let field = Field::from_fn_2d(128, 128, |i, j| {
//!     ((i as f32 * 0.05).sin() + (j as f32 * 0.04).cos()) * 12.0
//! });
//!
//! // Ask for 80 dB — one pass, no trial-and-error.
//! let run = compress_fixed_psnr(&field, 80.0, &FixedPsnrOptions::default()).unwrap();
//! assert!(run.outcome.achieved_psnr >= 79.0);
//!
//! // The container decompresses with the plain SZ decoder.
//! let back: Field<f32> = sz::decompress(&run.bytes).unwrap();
//! assert_eq!(back.shape(), field.shape());
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

/// The paper's contribution: fixed-PSNR estimation, derivation, drivers.
pub use fpsnr_core as core;
/// Synthetic data sets analogous to the paper's evaluation corpus.
pub use datagen as data;
/// n-dimensional field substrate.
pub use ndfield as field;
/// Rate–distortion metrics (paper definitions).
pub use fpsnr_metrics as metrics;
/// Pipeline observability (stage spans, counters, reports).
pub use fpsnr_obs as obs;
/// Parallel runtime.
pub use fpsnr_parallel as parallel;
/// Lossless coding toolkit.
pub use losslesskit as lossless;
/// SZ-style prediction-based compressor.
pub use szlike as sz;
/// Orthogonal-transform codec.
pub use fpsnr_transform as transform;

/// One-stop imports for typical use.
pub mod prelude {
    pub use fpsnr_core::alloc::{
        allocate_snapshot, solve_min_psnr, solve_weighted_mse, AllocFieldRun, AllocObjective,
        AllocOptions, AnyField, SnapshotAllocation, SnapshotField,
    };
    pub use fpsnr_core::batch::{run_batch, run_batch_full, run_batch_summary, FieldRun};
    pub use fpsnr_core::fixed_psnr::{
        compress_fixed_psnr, compress_fixed_psnr_only, compress_fixed_psnr_transform,
        FixedPsnrOptions, FixedPsnrRun,
    };
    pub use fpsnr_core::fixed_ratio::{compress_fixed_ratio, FixedRatioOptions, FixedRatioRun};
    pub use fpsnr_core::mode::{compress_with_mode, CompressionMode, ModeReport};
    pub use fpsnr_core::{ebabs_for_psnr, ebrel_for_psnr, psnr_for_ebrel};
    pub use fpsnr_metrics::summary::{AllocFieldStat, FieldFailure, FieldOutcome, SnapshotSummary};
    pub use fpsnr_metrics::{Distortion, PointwiseError, RateStats};
    pub use ndfield::{Field, Scalar, Shape};
    pub use szlike::{ErrorBound, PredictorKind, SzConfig};
}
