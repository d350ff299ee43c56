//! # fpsnr-core — fixed-PSNR lossy compression
//!
//! The primary contribution of *Tao, Di, Liang, Chen, Cappello — Fixed-PSNR
//! Lossy Compression for Scientific Data (CLUSTER 2018)*: let users request
//! a target **PSNR** instead of a pointwise error bound, and hit it in a
//! single compression pass.
//!
//! The chain of reasoning, mapped to modules:
//!
//! 1. For prediction-based (Theorem 1) and orthogonal-transform (Theorem 2)
//!    compressors, the l2 distortion of the reconstructed data equals the
//!    distortion the quantizer introduced — verified end-to-end by the
//!    `theorem_check` experiment binary against both `szlike` and
//!    `fpsnr-transform`.
//! 2. [`distortion`] — quantizer distortion estimates: the general-bin
//!    Eq. 3 (`MSE ≈ Σ δᵢ³·P(mᵢ)/12` per bin) and the distribution-free
//!    uniform special case Eq. 6 (`PSNR = 20·log₁₀(vr/δ) + 10·log₁₀ 12`).
//! 3. [`bound`] — the SZ inversion (Eq. 7–8):
//!    `eb_rel = √3 · 10^(−PSNR/20)`.
//! 4. [`fixed_psnr`] — the three-step fixed-PSNR driver the paper ships:
//!    get the target PSNR, derive `eb_rel`, run unmodified SZ. A
//!    transform-codec variant demonstrates Theorem 3's generality.
//! 5. [`fixed_ratio`] — the dual contract ("give me N× compression"),
//!    answered by ratio–quality modeling: one pilot walk builds a
//!    bits/value curve that is inverted for the bound, with at most two
//!    bounded secant refinements on measured ratios.
//! 6. [`search`] — the pre-paper baseline (rerun the compressor, bisecting
//!    the bound until PSNR lands), kept for the motivation experiment.
//! 7. [`batch`] — parallel multi-field runner (the CESM "100+ fields"
//!    scenario) and per-data-set aggregation.
//! 8. Within-field parallelism for one huge field needs no module of its
//!    own: [`FixedPsnrOptions::block_rows`] with [`FixedPsnrOptions::threads`]
//!    writes szlike's blocked container, whose slabs along axis 0 share one
//!    bound from the global value range (Eq. 8) and compress in parallel.
//! 9. [`alloc`] — snapshot-level global bit allocation: one byte budget
//!    across all fields, solved on per-field predicted rate curves
//!    (max-min PSNR water-filling or weighted-MSE Lagrangian), with one
//!    bounded feedback correction — ≤ 2 compression passes per field.
//!
//! ```
//! use fpsnr_core::fixed_psnr::{compress_fixed_psnr, FixedPsnrOptions};
//! use ndfield::Field;
//!
//! let field = Field::from_fn_2d(64, 64, |i, j| ((i + j) as f32 * 0.1).sin());
//! let run = compress_fixed_psnr(&field, 80.0, &FixedPsnrOptions::default()).unwrap();
//! assert!((run.outcome.achieved_psnr - 80.0).abs() < 3.0);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod batch;
pub mod bound;
pub mod distortion;
pub mod fixed_psnr;
pub mod fixed_ratio;
pub mod mode;
pub mod report;
pub mod search;

pub use alloc::{
    allocate_snapshot, AllocFieldRun, AllocObjective, AllocOptions, AnyField, SnapshotAllocation,
    SnapshotField,
};
pub use bound::{ebabs_for_psnr, ebrel_for_psnr, psnr_for_ebrel};
pub use distortion::{mse_uniform, psnr_sz_estimate, psnr_uniform_estimate};
pub use fixed_psnr::{compress_fixed_psnr, FixedPsnrOptions, FixedPsnrRun};
pub use fixed_ratio::{compress_fixed_ratio, FixedRatioOptions, FixedRatioRun};
pub use mode::{compress_with_mode, CompressionMode, ModeReport};
