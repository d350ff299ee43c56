//! # fpsnr-transform — orthogonal-transform lossy codec
//!
//! The paper's Theorem 2 extends the fixed-PSNR analysis from
//! prediction-based compressors to *orthogonal-transform* compressors
//! (ZFP, SSEM): an orthonormal transform preserves l2 norms, so the MSE
//! introduced by uniformly quantizing the transformed coefficients equals
//! the MSE of the reconstructed data — and Eq. 6
//! (`PSNR = 20·log10(vr/δ) + 10·log10 12`) applies unchanged.
//!
//! This crate is the concrete witness: a blockwise codec that
//!
//! 1. partitions the field into `B^d` blocks (`B` = 4 or 8, edge blocks
//!    sample-replicated like ZFP),
//! 2. applies a separable *orthonormal* DCT-II along each axis
//!    ([`basis`]),
//! 3. quantizes every coefficient with SZ's uniform quantizer (bin width
//!    `δ = 2·eb`) with bit-exact escapes,
//! 4. entropy-codes with the shared Huffman/LZ backend.
//!
//! Unlike SZ the *pointwise* error is not bounded by `eb` (a coefficient
//! error spreads over the block); what is preserved — and what the tests
//! assert — is the l2 identity of Theorem 2.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod basis;
pub mod codec;
pub mod embedded;

pub use basis::BasisKind;
pub use codec::{transform_compress, transform_decompress, TransformConfig};
pub use embedded::{embedded_compress, embedded_decompress, EcMode, EmbeddedConfig};
