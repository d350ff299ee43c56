//! Property-based tests over the block-parallel pipeline: the invariants
//! the blocked container promises must hold for *every* shape, partition,
//! and thread count — not just the hand-picked unit-test cases.
//!
//! The two load-bearing properties:
//! 1. the absolute error bound holds per sample through a blocked
//!    round-trip (Theorem 1 applies per block: each block replays its own
//!    prediction walk, so block boundaries cannot leak error), and
//! 2. the container bytes and the decoded samples depend only on the
//!    configuration and the shape-derived partition, never on how many
//!    worker threads happened to run.

use ndfield::{Field, Shape};
use proptest::prelude::*;
use szlike::{
    compress, decompress, decompress_with_threads, EntropyCoder, ErrorBound, EscapeCoding,
    PredictorKind, SzConfig,
};

/// Deterministic pseudo-random field: smooth carrier + xorshift noise, so
/// both the predictable core and the escape path get exercised.
fn field_from_seed(dims: &[usize], seed: u64) -> Field<f32> {
    let n: usize = dims.iter().product();
    let mut s = seed | 1;
    let mut vals = Vec::with_capacity(n);
    for i in 0..n {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let noise = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let smooth = ((i as f64) * 0.37).sin() * 2.0;
        vals.push((smooth + noise * 0.2) as f32);
    }
    Field::from_vec(Shape::from_dims(dims), vals)
}

const THREAD_CHOICES: [usize; 3] = [1, 2, 8];
const EB: f64 = 1e-3;

fn assert_bound(field: &Field<f32>, back: &Field<f32>) -> Result<(), String> {
    for (i, (a, b)) in field.as_slice().iter().zip(back.as_slice()).enumerate() {
        let err = (*a as f64 - *b as f64).abs();
        if err > EB {
            return Err(format!("sample {i}: |{a} - {b}| = {err} > {EB}"));
        }
    }
    Ok(())
}

proptest! {
    // Default config: 64 cases, raised through PROPTEST_CASES in CI.
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn blocked_roundtrip_bound_holds_1d(
        n in 1usize..500,
        seed in any::<u64>(),
        block_rows in 0usize..9,
        t in 0usize..3,
    ) {
        let field = field_from_seed(&[n], seed);
        let cfg = SzConfig::new(ErrorBound::Abs(EB))
            .with_threads(THREAD_CHOICES[t])
            .with_block_rows(block_rows);
        let back: Field<f32> = decompress(&compress(&field, &cfg).unwrap()).unwrap();
        prop_assert_eq!(back.shape(), field.shape());
        if let Err(msg) = assert_bound(&field, &back) {
            prop_assert!(false, "1D n={} block_rows={} threads={}: {}",
                n, block_rows, THREAD_CHOICES[t], msg);
        }
    }

    #[test]
    fn blocked_roundtrip_bound_holds_2d(
        rows in 1usize..40,
        cols in 1usize..40,
        seed in any::<u64>(),
        block_rows in 0usize..7,
        t in 0usize..3,
    ) {
        let field = field_from_seed(&[rows, cols], seed);
        let cfg = SzConfig::new(ErrorBound::Abs(EB))
            .with_threads(THREAD_CHOICES[t])
            .with_block_rows(block_rows);
        let back: Field<f32> = decompress(&compress(&field, &cfg).unwrap()).unwrap();
        if let Err(msg) = assert_bound(&field, &back) {
            prop_assert!(false, "2D {}x{} block_rows={} threads={}: {}",
                rows, cols, block_rows, THREAD_CHOICES[t], msg);
        }
    }

    #[test]
    fn blocked_roundtrip_bound_holds_3d(
        d0 in 1usize..14,
        d1 in 1usize..14,
        d2 in 1usize..14,
        seed in any::<u64>(),
        block_rows in 0usize..5,
        t in 0usize..3,
    ) {
        let field = field_from_seed(&[d0, d1, d2], seed);
        let cfg = SzConfig::new(ErrorBound::Abs(EB))
            .with_threads(THREAD_CHOICES[t])
            .with_block_rows(block_rows);
        let back: Field<f32> = decompress(&compress(&field, &cfg).unwrap()).unwrap();
        if let Err(msg) = assert_bound(&field, &back) {
            prop_assert!(false, "3D {}x{}x{} block_rows={} threads={}: {}",
                d0, d1, d2, block_rows, THREAD_CHOICES[t], msg);
        }
    }

    #[test]
    fn container_bytes_never_depend_on_thread_count(
        rows in 1usize..30,
        cols in 1usize..30,
        depth in 0usize..8,
        seed in any::<u64>(),
        block_rows in 1usize..7,
        grid in proptest::bool::ANY,
        chunk in 2usize..10,
        auto in proptest::bool::ANY,
        range in proptest::bool::ANY,
        truncated in proptest::bool::ANY,
        few_bins in proptest::bool::ANY,
    ) {
        // depth 0 draws a 2-D field. Without `grid` the slab partition
        // with block_rows >= 1 is used; with it a chunk_dims grid (the
        // gather path) cuts every axis into chunks of `chunk`. Either way
        // the blocked container is written at every thread count,
        // including threads == 1. Auto writes the v5 per-block predictor
        // layout; few bins make escapes common.
        let dims: Vec<usize> = if depth == 0 {
            vec![rows, cols]
        } else {
            vec![rows, cols, depth]
        };
        let field = field_from_seed(&dims, seed);
        let mut base = SzConfig::new(ErrorBound::Abs(EB));
        if grid {
            let mut chunk_dims = [0; 3];
            chunk_dims[..dims.len()].fill(chunk);
            base = base.with_chunk_dims(chunk_dims);
        } else {
            base = base.with_block_rows(block_rows);
        }
        if auto {
            base = base.with_predictor(PredictorKind::Auto);
        }
        if range {
            base = base.with_entropy(EntropyCoder::Range);
        }
        if truncated {
            base = base.with_escape(EscapeCoding::Truncated);
        }
        if few_bins {
            base = base.with_quant_bins(16);
        }
        let reference = compress(&field, &base.with_threads(1)).unwrap();
        for threads in [2usize, 3, 8] {
            let bytes = compress(&field, &base.with_threads(threads)).unwrap();
            prop_assert!(
                bytes == reference,
                "threads={} produced different bytes ({:?}, {:?})",
                threads, dims, base
            );
        }
    }

    #[test]
    fn decoded_samples_never_depend_on_decode_threads(
        d0 in 1usize..12,
        d1 in 1usize..12,
        d2 in 1usize..12,
        seed in any::<u64>(),
    ) {
        let field = field_from_seed(&[d0, d1, d2], seed);
        let cfg = SzConfig::new(ErrorBound::Abs(EB)).with_threads(4).with_block_rows(2);
        let bytes = compress(&field, &cfg).unwrap();
        let reference: Field<f32> = decompress_with_threads(&bytes, 1).unwrap();
        for threads in [2usize, 3, 8] {
            let back: Field<f32> = decompress_with_threads(&bytes, threads).unwrap();
            // Bit-exact, not merely within-bound: decode replays a fixed
            // integer walk, so parallelism must not change a single bit.
            let same = reference
                .as_slice()
                .iter()
                .zip(back.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            prop_assert!(same, "decode threads={} changed samples", threads);
        }
    }
}
