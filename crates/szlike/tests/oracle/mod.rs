//! The walk oracle as a test harness, shared by the kernel-equivalence
//! suite (this crate) and the predictor-equivalence suite (workspace
//! root, which includes this file by path).
//!
//! [`walk_reference`] is the codec's spec: the per-element
//! predict–quantize walk Theorem 1 rests on. Two checks hold the
//! production code to it:
//!
//! - [`walk_matches_oracle`]: `walk_fused` yields the oracle's codes,
//!   escapes and reconstruction bit for bit, at every `FPSNR_SIMD`
//!   dispatch level the host supports (the row, pair and quad schedules);
//! - [`container_matches_oracle`]: compress and decode, then check each
//!   block of the container against the oracle run on that block's
//!   samples with the predictor [`select::model`] picks for them. This
//!   covers selection, the resumed bake-off walk, the entropy stage,
//!   framing and the decode mirror against one spec.

#![allow(dead_code)]

use losslesskit::simd::{self, SimdLevel};
use ndfield::{Field, Scalar, Shape};
use szlike::format::{self, Mode};
use szlike::kernels::{walk_fused, walk_reference, WalkState};
use szlike::{compress, decompress, inspect_sections, select};
use szlike::{ChunkGrid, EscapeCoding, PredictorModel, SzConfig};

fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits_u64()).collect()
}

/// First index where two code or bit vectors differ, for error messages.
fn first_diff<U: PartialEq + std::fmt::LowerHex>(a: &[U], b: &[U]) -> String {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => format!("first at {i}: {:#x} vs {:#x}", a[i], b[i]),
        None => format!("lengths {} vs {}", a.len(), b.len()),
    }
}

/// Run `f` at every dispatch level the host supports, then restore the
/// ambient level. The override is process-global; a concurrent test
/// switching it only changes which schedule runs, never the bits.
fn at_every_level(mut f: impl FnMut(SimdLevel) -> Result<(), String>) -> Result<(), String> {
    let result = SimdLevel::ALL
        .into_iter()
        .filter(|&l| l <= simd::detect())
        .try_for_each(|level| {
            simd::force(Some(level));
            f(level)
        });
    simd::force(None);
    result
}

/// `walk_fused` against an oracle walk of the same input.
#[allow(clippy::too_many_arguments)]
fn fused_matches(
    data: &[impl Scalar],
    shape: Shape,
    eb: f64,
    bins: usize,
    model: PredictorModel,
    escape: EscapeCoding,
    oracle: &WalkState<impl Scalar>,
    label: &str,
) -> Result<(), String> {
    let mut recon = Vec::new();
    at_every_level(|level| {
        let w = walk_fused(data, shape, eb, bins, model, escape, &mut recon);
        let at = level.name();
        if w.codes != oracle.codes {
            let diff = first_diff(&w.codes, &oracle.codes);
            return Err(format!("{label} at {at}: codes differ, {diff}"));
        }
        let (got, want) = (bits(&w.unpred), bits(&oracle.unpred));
        if got != want {
            return Err(format!(
                "{label} at {at}: escapes differ, {}",
                first_diff(&got, &want)
            ));
        }
        let (got, want) = (bits(&recon), bits(&oracle.recon));
        if got != want {
            return Err(format!(
                "{label} at {at}: recon differs, {}",
                first_diff(&got, &want)
            ));
        }
        Ok(())
    })
}

/// Walk-level check: the fused walk of `data` equals the oracle's codes,
/// escapes and reconstruction bit for bit at every dispatch level.
pub fn walk_matches_oracle<T: Scalar>(
    data: &[T],
    shape: Shape,
    eb: f64,
    bins: usize,
    model: PredictorModel,
    escape: EscapeCoding,
    label: &str,
) -> Result<(), String> {
    let (oracle, _) = walk_reference(data, shape, eb, bins, model, escape);
    fused_matches(data, shape, eb, bins, model, escape, &oracle, label)
}

/// Container-level check. Compresses `field` with `cfg` and decodes it;
/// then, for a quantized container, takes the block partition from the
/// container's framing and requires, for every block, that the oracle
/// walk of the block's samples (predictor from [`select::model`], bins
/// and bound resolved as the compressor does) reconstructs the decoded
/// block bit for bit, and that the fused walk of the block passes
/// [`walk_matches_oracle`]. Also checks the bound on every finite sample
/// and that every dispatch level writes the same bytes and decodes the
/// same bits.
pub fn container_matches_oracle<T: Scalar>(
    field: &Field<T>,
    cfg: &SzConfig,
    label: &str,
) -> Result<(), String> {
    let fail = |what: &str, e: szlike::SzError| format!("{label}: {what} failed: {e}");
    let bytes = compress(field, cfg).map_err(|e| fail("compress", e))?;
    let back: Field<T> = decompress(&bytes).map_err(|e| fail("decompress", e))?;
    if back.shape() != field.shape() {
        return Err(format!("{label}: shape changed through round-trip"));
    }
    let eb = cfg
        .bound
        .absolute(field.value_range())
        .map_err(|e| fail("bound", e))?;
    let mode = format::read_header(&bytes, &mut 0)
        .map_err(|e| fail("header", e))?
        .mode;
    if matches!(mode, Mode::Quantized | Mode::Blocked) {
        let bins = if cfg.auto_intervals {
            select::intervals(field, eb, cfg.quant_bins)
        } else {
            cfg.quant_bins
        };
        let chunk_dims = inspect_sections(&bytes)
            .map_err(|e| fail("inspect", e))?
            .chunk_dims
            .unwrap_or_default();
        let grid =
            ChunkGrid::from_chunk_dims(field.shape(), &chunk_dims).map_err(|e| fail("grid", e))?;
        let (mut src, mut dec) = (Vec::new(), Vec::new());
        for b in 0..grid.n_blocks() {
            grid.gather(field.as_slice(), b, &mut src);
            grid.gather(back.as_slice(), b, &mut dec);
            let shape = grid.block_shape(b);
            let model = select::model(&src, shape, cfg.predictor, eb, bins).model;
            let (oracle, _) = walk_reference(&src, shape, eb, bins, model, cfg.escape);
            let want: Vec<T> = oracle.recon.iter().map(|&r| T::from_f64(r)).collect();
            let (got, want) = (bits(&dec), bits(&want));
            if got != want {
                return Err(format!(
                    "{label}: block {b} ({model:?}) decodes off the oracle, {}",
                    first_diff(&got, &want)
                ));
            }
            let block = format!("{label} block {b} ({model:?})");
            fused_matches(&src, shape, eb, bins, model, cfg.escape, &oracle, &block)?;
        }
    }
    for (i, (x, y)) in field.as_slice().iter().zip(back.as_slice()).enumerate() {
        let err = (x.to_f64() - y.to_f64()).abs();
        if err > eb {
            return Err(format!("{label}: sample {i}: |{x} - {y}| = {err} > {eb}"));
        }
    }
    let decoded = bits(back.as_slice());
    at_every_level(|level| {
        let at = level.name();
        let again = compress(field, cfg).map_err(|e| fail("compress", e))?;
        if again != bytes {
            return Err(format!(
                "{label}: container bytes differ at FPSNR_SIMD={at}"
            ));
        }
        let dec: Field<T> = decompress(&again).map_err(|e| fail("decompress", e))?;
        let got = bits(dec.as_slice());
        if got != decoded {
            return Err(format!(
                "{label}: decode differs at FPSNR_SIMD={at}, {}",
                first_diff(&got, &decoded)
            ));
        }
        Ok(())
    })
}
