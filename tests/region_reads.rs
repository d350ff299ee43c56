//! Random-access region reads: `SzStore` must serve any sub-region of any
//! blocked container bit-identically to slicing a full decompress, across
//! layouts (v2/v3 slabs, v4 grids), scalar types, cache pressure, and
//! concurrent readers — and its hit/miss accounting must reconcile exactly.

mod common;

use common::{current_dir, golden_set, grid_golden_set, v2_dir, GoldenField};
use fixed_psnr::prelude::*;
use fixed_psnr::sz::{self, Region, StoreOptions, SzStore};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// Slice `axes` out of a row-major full field the straightforward way —
/// the oracle every store read is compared against.
fn slice_region<T: Copy>(full: &[T], dims: &[usize], axes: &[Range<usize>]) -> Vec<T> {
    let mut d = [1usize; 3];
    d[..dims.len()].copy_from_slice(dims);
    let mut a: Vec<Range<usize>> = axes.to_vec();
    while a.len() < 3 {
        a.push(0..1);
    }
    let mut out = Vec::new();
    for i in a[0].clone() {
        for j in a[1].clone() {
            for k in a[2].clone() {
                out.push(full[(i * d[1] + j) * d[2] + k]);
            }
        }
    }
    out
}

/// Derive a non-empty sub-range of `0..dim` from two hash words.
fn sub_range(dim: usize, h0: u64, h1: u64) -> Range<usize> {
    let start = (h0 % dim as u64) as usize;
    let len = 1 + (h1 % (dim - start) as u64) as usize;
    start..start + len
}

/// Chunk-grid blocks a region intersects: per axis, the chunks from the
/// one holding `start` through the one holding `end - 1`.
fn blocks_touched(axes: &[Range<usize>], chunks: &[usize]) -> u64 {
    axes.iter()
        .zip(chunks)
        .map(|(r, &c)| (r.end.div_ceil(c) - r.start / c) as u64)
        .product()
}

/// xorshift64 step, returning the new state.
fn xorshift(h: &mut u64) -> u64 {
    *h ^= *h << 13;
    *h ^= *h >> 7;
    *h ^= *h << 17;
    *h
}

proptest! {
    /// f32, rank 1–3, random grid: store reads == full-decode slices.
    #[test]
    fn region_reads_match_full_decode_f32(
        rank in 1usize..=3,
        d0 in 4usize..24, d1 in 3usize..16, d2 in 3usize..12,
        c0 in 0usize..10, c1 in 0usize..8, c2 in 0usize..6,
        h0 in any::<u64>(), h1 in any::<u64>(), h2 in any::<u64>(),
        h3 in any::<u64>(), h4 in any::<u64>(), h5 in any::<u64>(),
        seed in 0u64..1000,
    ) {
        let h = [h0, h1, h2, h3, h4, h5];
        let dims = [d0, d1, d2][..rank].to_vec();
        let shape = Shape::from_dims(&dims);
        let field = Field::from_fn_linear(shape, |lin| {
            let mut z = seed ^ (lin as u64).wrapping_mul(0x9E3779B97F4A7C15);
            z ^= z >> 29;
            (z % 4096) as f32 * 0.01 - 20.0
        });
        let mut chunks = [0usize; 3];
        chunks[..rank].copy_from_slice(&[c0, c1, c2][..rank]);
        // All-zero chunk dims select the monolithic (non-blocked) path.
        prop_assume!(chunks != [0; 3]);
        let cfg = SzConfig::new(ErrorBound::Abs(1e-3)).with_chunk_dims(chunks);
        let bytes = sz::compress(&field, &cfg).unwrap();
        let full: Field<f32> = sz::decompress(&bytes).unwrap();
        let store: SzStore<f32> = SzStore::open(&bytes).unwrap();
        let axes: Vec<Range<usize>> = (0..rank)
            .map(|a| sub_range(dims[a], h[2 * a], h[2 * a + 1]))
            .collect();
        let got = store.read_region(&Region::new(&axes).unwrap()).unwrap();
        let want = slice_region(full.as_slice(), &dims, &axes);
        prop_assert_eq!(got.as_slice().len(), want.len());
        for (a, b) in got.as_slice().iter().zip(&want) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // The fast path really skipped work: a cold read decodes exactly
        // the blocks the region intersects (a chunk extent of 0 means the
        // full axis), each once.
        let extents: Vec<usize> = (0..rank)
            .map(|a| if chunks[a] == 0 { dims[a] } else { chunks[a].min(dims[a]) })
            .collect();
        let s = store.stats();
        prop_assert_eq!(s.blocks_decoded, blocks_touched(&axes, &extents));
        prop_assert_eq!(s.block_requests(), s.hits + s.misses);
        prop_assert_eq!(s.blocks_decoded, s.misses);
    }

    /// Same oracle for f64 slab containers (block_rows path, v3 layout).
    #[test]
    fn region_reads_match_full_decode_f64_slab(
        d0 in 6usize..24, d1 in 3usize..14,
        block_rows in 1usize..8,
        h0 in any::<u64>(), h1 in any::<u64>(),
        h2 in any::<u64>(), h3 in any::<u64>(),
        seed in 0u64..1000,
    ) {
        let h = [h0, h1, h2, h3];
        let field = Field::from_fn_2d(d0, d1, |i, j| {
            let mut z = seed ^ ((i * d1 + j) as u64).wrapping_mul(0xBF58476D1CE4E5B9);
            z ^= z >> 31;
            (z % 65536) as f64 * 1e-3
        });
        let cfg = SzConfig::new(ErrorBound::Abs(1e-6))
            .with_threads(2)
            .with_block_rows(block_rows);
        let bytes = sz::compress(&field, &cfg).unwrap();
        let full: Field<f64> = sz::decompress(&bytes).unwrap();
        let store: SzStore<f64> = SzStore::open(&bytes).unwrap();
        let axes = [sub_range(d0, h[0], h[1]), sub_range(d1, h[2], h[3])];
        let got = store.read_region(&Region::new(&axes).unwrap()).unwrap();
        let want = slice_region(full.as_slice(), &[d0, d1], &axes);
        for (a, b) in got.as_slice().iter().zip(&want) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// Concurrent readers under cache pressure: the budget is far below the
/// working set, so the store evicts constantly while 8 threads hammer
/// random regions — every read must stay bit-exact and the counters must
/// reconcile exactly afterwards (plus mirror into the fpsnr-obs registry).
#[test]
fn concurrent_readers_under_cache_pressure_reconcile() {
    let dims = [32usize, 24, 20];
    let field = Field::from_fn_3d(dims[0], dims[1], dims[2], |i, j, k| {
        let mut z = ((i * 24 + j) * 20 + k) as u64;
        z = z.wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 27;
        (z % 8192) as f32 * 0.02
    });
    let cfg = SzConfig::new(ErrorBound::Abs(1e-3)).with_chunk_dims([8, 8, 8]);
    let bytes = sz::compress(&field, &cfg).unwrap();
    let full = Arc::new(sz::decompress::<f32>(&bytes).unwrap());
    // Working set: 4*3*3 = 36 blocks × 8³ f32 = ~72 KiB; budget 16 KiB.
    fpsnr_obs::reset();
    fpsnr_obs::enable();
    let obs_on = fpsnr_obs::is_enabled(); // false when built with fpsnr-obs/off
    let store = Arc::new(
        SzStore::<f32>::open_with(
            bytes,
            StoreOptions {
                cache_budget: 16 * 1024,
                ..StoreOptions::default()
            },
        )
        .unwrap(),
    );
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let store = Arc::clone(&store);
        let full = Arc::clone(&full);
        handles.push(std::thread::spawn(move || {
            let mut h = t.wrapping_mul(0x2545F4914F6CDD1D) + 1;
            let mut next = move || xorshift(&mut h);
            for _ in 0..12 {
                let axes: Vec<Range<usize>> = (0..3)
                    .map(|a| sub_range([32, 24, 20][a], next(), next()))
                    .collect();
                let got = store.read_region(&Region::new(&axes).unwrap()).unwrap();
                let want = slice_region(full.as_slice(), &[32, 24, 20], &axes);
                assert_eq!(got.as_slice().len(), want.len());
                for (a, b) in got.as_slice().iter().zip(&want) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    fpsnr_obs::disable();
    let s = store.stats();
    // Exact reconciliation: every block request is a hit, a miss (the
    // requester decoded), or a wait (piggybacked on an in-flight decode).
    assert_eq!(s.block_requests(), s.hits + s.misses + s.waits);
    assert_eq!(s.blocks_decoded, s.misses, "a miss is exactly one decode");
    assert_eq!(s.regions, 8 * 12);
    assert!(s.misses >= 36, "each of 36 blocks cold-misses at least once");
    assert!(s.evictions > 0, "16 KiB budget over a 72 KiB working set");
    assert!(s.cached_bytes as usize <= 16 * 1024 + 36 * 2048);
    // The obs registry mirrors the same events 1:1 (≥ because the global
    // registry may also see other stores from parallel tests). With
    // fpsnr-obs/off the probes compile to nothing, so skip the mirror.
    if !obs_on {
        return;
    }
    let report = fpsnr_obs::snapshot();
    for (counter, local) in [
        ("store.cache.hit", s.hits),
        ("store.cache.miss", s.misses),
        ("store.cache.wait", s.waits),
        ("store.cache.evict", s.evictions),
        ("store.decode.blocks", s.blocks_decoded),
        ("store.decode.bytes", s.bytes_decoded),
        ("store.read.regions", s.regions),
        ("store.read.bytes_served", s.bytes_served),
    ] {
        let seen = report.counter(counter).unwrap_or(0);
        assert!(seen >= local, "obs {counter} = {seen} < store's {local}");
    }
}

/// A 1/64-volume read decodes under 1/16 of the directory: a 32³ GRF in
/// 4³ chunks (512 blocks), 16 xorshift-placed 8³ regions, each read on a
/// fresh store so it starts cold. Aligned or not, an 8³ region touches at
/// most 3³ = 27 blocks.
#[test]
fn small_region_reads_decode_under_a_sixteenth_of_the_blocks() {
    use fixed_psnr::data::grf::grf_3d;
    const DIM: usize = 32;
    const EDGE: usize = DIM / 4;
    const CHUNK: usize = DIM / 8;
    let data = grf_3d(DIM, DIM, DIM, 3.0, 20180713)
        .into_iter()
        .map(|v| v as f32)
        .collect();
    let field = Field::from_vec(Shape::D3(DIM, DIM, DIM), data);
    let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-4))
        .with_auto_intervals(true)
        .with_chunk_dims([CHUNK; 3]);
    let bytes = sz::compress(&field, &cfg).unwrap();
    let n_blocks = SzStore::<f32>::open(&bytes).unwrap().grid().n_blocks() as u64;
    assert_eq!(n_blocks, 512);
    let mut h = 0x2545F4914F6CDD1Du64;
    for _ in 0..16 {
        let axes: [Range<usize>; 3] = std::array::from_fn(|_| {
            let start = (xorshift(&mut h) % (DIM - EDGE + 1) as u64) as usize;
            start..start + EDGE
        });
        let store = SzStore::<f32>::open(&bytes).unwrap();
        store.read_region(&Region::new(&axes).unwrap()).unwrap();
        let decoded = store.stats().blocks_decoded;
        assert_eq!(
            decoded,
            blocks_touched(&axes, &[CHUNK; 3]),
            "region {axes:?}"
        );
        assert!(
            decoded < n_blocks / 16,
            "region {axes:?} decoded {decoded} of {n_blocks} blocks (gate < {})",
            n_blocks / 16
        );
    }
}

/// Warm-cache repeats of the same region decode nothing at all.
#[test]
fn warm_cache_repeats_decode_zero_blocks() {
    for g in grid_golden_set() {
        let bytes = g.compress();
        match &g.field {
            GoldenField::F32(f) => assert_warm_zero::<f32>(&bytes, f.shape(), g.name),
            GoldenField::F64(f) => assert_warm_zero::<f64>(&bytes, f.shape(), g.name),
        }
    }
}

fn assert_warm_zero<T: ndfield::Scalar>(bytes: &[u8], shape: Shape, name: &str) {
    let store: SzStore<T> = SzStore::open(bytes).unwrap();
    let dims = shape.dims();
    let axes: Vec<Range<usize>> = dims.iter().map(|&d| d / 4..(3 * d / 4).max(d / 4 + 1)).collect();
    let region = Region::new(&axes).unwrap();
    let first = store.read_region(&region).unwrap();
    let cold = store.stats().blocks_decoded;
    assert!(cold > 0, "{name}: cold read decoded nothing");
    for _ in 0..3 {
        let again = store.read_region(&region).unwrap();
        assert_eq!(first.as_slice(), again.as_slice(), "{name}");
    }
    let s = store.stats();
    assert_eq!(s.blocks_decoded, cold, "{name}: warm repeats decoded blocks");
    assert_eq!(s.misses, cold, "{name}");
    assert!(s.hits >= 3 * cold, "{name}: warm requests were not hits");
}

/// Satellite 6 — cross-version: frozen v2-era and current v3 slab
/// containers (and the checked-in v4 grid fixtures) all round-trip through
/// `SzStore`, bit-identical to their full decode.
#[test]
fn frozen_fixtures_serve_region_reads_across_versions() {
    let blocked: Vec<_> = golden_set()
        .into_iter()
        .filter(|g| g.name.starts_with("blocked_"))
        .collect();
    assert!(!blocked.is_empty());
    for (dir, expect_version) in [(v2_dir(), 2u8), (current_dir(), 3u8)] {
        for g in &blocked {
            let path = dir.join(format!("{}.szr", g.name));
            let bytes = std::fs::read(&path)
                .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
            match &g.field {
                GoldenField::F32(_) => assert_store_matches::<f32>(&bytes, expect_version, g.name),
                GoldenField::F64(_) => assert_store_matches::<f64>(&bytes, expect_version, g.name),
            }
        }
    }
    for g in grid_golden_set() {
        let path = current_dir().join(format!("{}.szr", g.name));
        let bytes = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        match &g.field {
            GoldenField::F32(_) => assert_store_matches::<f32>(&bytes, 4, g.name),
            GoldenField::F64(_) => assert_store_matches::<f64>(&bytes, 4, g.name),
        }
    }
}

fn assert_store_matches<T: ndfield::Scalar>(bytes: &[u8], expect_version: u8, name: &str) {
    let full: Field<T> = sz::decompress(bytes).unwrap();
    let store: SzStore<T> = SzStore::open(bytes).unwrap();
    assert_eq!(store.version(), expect_version, "{name}");
    let dims = full.shape().dims();
    // The whole field through the store equals the full decode...
    let whole = store
        .read_region(&Region::new(&dims.iter().map(|&d| 0..d).collect::<Vec<_>>()).unwrap())
        .unwrap();
    for (i, (a, b)) in whole.as_slice().iter().zip(full.as_slice()).enumerate() {
        assert_eq!(a.to_bits_u64(), b.to_bits_u64(), "{name}: sample {i}");
    }
    // ...and so do a few deterministic sub-regions.
    for (h0, h1) in [(3u64, 11u64), (17, 5), (29, 31)] {
        let axes: Vec<Range<usize>> = dims
            .iter()
            .map(|&d| sub_range(d, h0.wrapping_mul(d as u64 + 1), h1))
            .collect();
        let got = store.read_region(&Region::new(&axes).unwrap()).unwrap();
        let want = slice_region(full.as_slice(), &dims, &axes);
        for (a, b) in got.as_slice().iter().zip(&want) {
            assert_eq!(a.to_bits_u64(), b.to_bits_u64(), "{name}: region {axes:?}");
        }
    }
}

/// Containers without a per-block directory are rejected with a clear
/// error, not mis-served: monolithic modes and the v1 blocked layout.
#[test]
fn stores_reject_containers_without_directories() {
    let field = Field::from_fn_2d(16, 16, |i, j| (i + j) as f32 * 0.5);
    let mono = sz::compress(&field, &SzConfig::new(ErrorBound::Abs(1e-3))).unwrap();
    let err = SzStore::<f32>::open(&mono).map(|_| ()).unwrap_err().to_string();
    assert!(err.contains("blocked"), "{err}");
    // Frozen v1-era container: parses as blocked but has no directory.
    let v1 = std::fs::read(common::v1_dir().join("blocked_f32_2d.szr")).unwrap();
    let err = SzStore::<f32>::open(&v1).map(|_| ()).unwrap_err().to_string();
    assert!(err.contains("re-encode"), "{err}");
}
