//! Property-based integration tests (proptest) over the whole stack.

use fixed_psnr::lossless::bakeoff::{self, Backend};
use fixed_psnr::lossless::lz77::Effort;
use fixed_psnr::lossless::{freq, mshuf, varint, BitReader, BitWriter};
use fixed_psnr::lossless::{huffman::HuffmanCodec, lz_compress, lz_decompress};
use fixed_psnr::prelude::*;
use fixed_psnr::sz;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Longest code `HuffmanCodec::from_counts` emits.
const MAX_CODE_LEN: u8 = 28;

/// Oracle for `HuffmanCodec::from_counts`' code lengths: the binary-heap
/// Huffman construction the two-queue build replaced (a node's tiebreak
/// is its symbol for a leaf and `counts.len() + k` for the k-th internal
/// node), rerun on halved counts until no code exceeds `MAX_CODE_LEN`.
fn heap_code_lengths(counts: &[u64]) -> Vec<u8> {
    let mut scaled = counts.to_vec();
    loop {
        let lens = heap_build(&scaled);
        if lens.iter().all(|&l| l <= MAX_CODE_LEN) {
            return lens;
        }
        for c in scaled.iter_mut().filter(|c| **c > 0) {
            *c = (*c >> 1).max(1);
        }
    }
}

fn heap_build(counts: &[u64]) -> Vec<u8> {
    let used: Vec<usize> = (0..counts.len()).filter(|&s| counts[s] > 0).collect();
    let mut lens = vec![0u8; counts.len()];
    if used.len() == 1 {
        lens[used[0]] = 1;
    }
    if used.len() < 2 {
        return lens;
    }
    // Min-heap of (weight, tiebreak, node); leaves are nodes 0..used.len().
    let mut heap: BinaryHeap<_> = used
        .iter()
        .enumerate()
        .map(|(node, &s)| Reverse((counts[s], s, node)))
        .collect();
    let mut parent = vec![usize::MAX; used.len()];
    let mut tiebreak = counts.len();
    while heap.len() > 1 {
        let Reverse((wa, _, a)) = heap.pop().unwrap();
        let Reverse((wb, _, b)) = heap.pop().unwrap();
        let p = parent.len();
        parent.push(usize::MAX);
        parent[a] = p;
        parent[b] = p;
        heap.push(Reverse((wa + wb, tiebreak, p)));
        tiebreak += 1;
    }
    // Parents come after their children, so fill depths from the root.
    let mut depth = vec![0u8; parent.len()];
    for node in (0..parent.len() - 1).rev() {
        depth[node] = depth[parent[node]] + 1;
    }
    for (node, &s) in used.iter().enumerate() {
        lens[s] = depth[node];
    }
    lens
}

/// Oracle for `mshuf::encode`: one `BitWriter` per stream, symbol `i`
/// written to stream `i mod n`, then the header and the streams.
fn bitwriter_encode(symbols: &[u32], codec: &HuffmanCodec, n_streams: usize) -> Vec<u8> {
    let mut writers: Vec<BitWriter> = (0..n_streams).map(|_| BitWriter::new()).collect();
    for (i, &s) in symbols.iter().enumerate() {
        codec.encode_one(s, &mut writers[i % n_streams]);
    }
    let streams: Vec<Vec<u8>> = writers.into_iter().map(BitWriter::finish).collect();
    let mut out = vec![n_streams as u8];
    for s in &streams {
        varint::write_u64(&mut out, s.len() as u64);
    }
    for s in &streams {
        out.extend_from_slice(s);
    }
    out
}

/// A seeded count vector of one of five shapes: sparse with many zeros
/// and ties, one live symbol, a Fibonacci skew deep enough to force the
/// code-length halving, an SZ-like peak around the centre, or all equal.
fn shaped_counts(shape: usize, alphabet: usize, seed: u64) -> Vec<u64> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    match shape {
        0 => (0..alphabet).map(|_| next() % 4).collect(),
        1 => {
            let mut c = vec![0u64; alphabet];
            c[(next() % alphabet as u64) as usize] = 1 + next() % 1000;
            c
        }
        2 => {
            // 45 Fibonacci weights: the unconstrained tree is 44 deep.
            let mut c = vec![0u64; alphabet];
            let (mut a, mut b) = (1u64, 1u64);
            let start = (next() % (alphabet as u64 - 44)) as usize;
            for x in &mut c[start..start + 45] {
                *x = a;
                (a, b) = (b, a + b);
            }
            c
        }
        3 => {
            let centre = alphabet / 2;
            (0..alphabet)
                .map(|i| {
                    let d = i.abs_diff(centre) as u32;
                    (1u64 << 20 >> d.min(20)) * u64::from(d == 0 || next() % 2 == 1)
                })
                .collect()
        }
        _ => vec![1 + seed % 7; alphabet],
    }
}

proptest! {
    // Default config: 64 cases, overridable via PROPTEST_CASES (the CI
    // decode-fuzz-smoke job raises it).

    /// The error bound is a hard guarantee for arbitrary finite data.
    #[test]
    fn sz_abs_bound_holds_for_arbitrary_1d_data(
        data in proptest::collection::vec(-1.0e6f32..1.0e6, 2..400),
        eb_exp in -6i32..2,
    ) {
        let eb = 10.0f64.powi(eb_exp);
        let field = Field::from_vec(Shape::D1(data.len()), data);
        let cfg = SzConfig::new(ErrorBound::Abs(eb));
        let bytes = sz::compress(&field, &cfg).unwrap();
        let back: Field<f32> = sz::decompress(&bytes).unwrap();
        for (&x, &y) in field.as_slice().iter().zip(back.as_slice()) {
            prop_assert!(((x - y).abs() as f64) <= eb * (1.0 + 1e-12),
                "x={x} y={y} eb={eb}");
        }
    }

    /// Same for 2-D grids with auto-interval selection.
    #[test]
    fn sz_rel_bound_holds_for_arbitrary_2d_data(
        rows in 2usize..20,
        cols in 2usize..20,
        seed in 0u64..1000,
        auto in proptest::bool::ANY,
    ) {
        let field = Field::from_fn_2d(rows, cols, |i, j| {
            let mut h = seed ^ ((i * 31 + j) as u64).wrapping_mul(0x9E3779B97F4A7C15);
            h ^= h >> 29;
            (h % 10_000) as f32 / 100.0 - 50.0
        });
        let vr = field.value_range();
        prop_assume!(vr > 0.0);
        let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-3)).with_auto_intervals(auto);
        let bytes = sz::compress(&field, &cfg).unwrap();
        let back: Field<f32> = sz::decompress(&bytes).unwrap();
        let pw = PointwiseError::between(&field, &back);
        prop_assert!(pw.respects_abs_bound(1e-3 * vr));
    }

    /// Eq. 7 ↔ Eq. 8 are exact inverses over the whole usable range.
    #[test]
    fn bound_inversion_roundtrips(target in 5.0f64..180.0) {
        let back = psnr_for_ebrel(ebrel_for_psnr(target));
        prop_assert!((back - target).abs() < 1e-8);
    }

    /// The LZ container is identity-preserving on arbitrary bytes.
    #[test]
    fn lz_roundtrip_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4000)) {
        let comp = lz_compress(&data);
        prop_assert_eq!(lz_decompress(&comp).unwrap(), data);
    }

    /// Huffman over arbitrary symbol streams from arbitrary alphabets.
    #[test]
    fn huffman_roundtrip_arbitrary_symbols(
        alphabet in 2usize..300,
        raw in proptest::collection::vec(any::<u32>(), 1..2000),
    ) {
        let symbols: Vec<u32> = raw.into_iter().map(|s| s % alphabet as u32).collect();
        let counts = freq::count_dense(&symbols, alphabet);
        let codec = HuffmanCodec::from_counts(&counts);
        let mut w = BitWriter::new();
        codec.encode(&symbols, &mut w);
        let bytes = w.finish();
        // Through table serialization, like the real container.
        let mut table = Vec::new();
        codec.write_table(&mut table);
        let mut pos = 0;
        let codec2 = HuffmanCodec::read_table(&table, &mut pos).unwrap();
        let mut r = BitReader::new(&bytes);
        let mut out = Vec::new();
        codec2.decode(&mut r, symbols.len(), &mut out).unwrap();
        prop_assert_eq!(out, symbols);
    }

    /// Every bake-off backend, forced individually, round-trips arbitrary
    /// bytes.
    #[test]
    fn bakeoff_each_backend_roundtrips(
        data in proptest::collection::vec(any::<u8>(), 0..6000),
        backend_idx in 0usize..4,
    ) {
        let backend = Backend::ALL[backend_idx];
        let comp = bakeoff::compress_forced(&data, Effort::Default, backend);
        let back = bakeoff::decompress_bounded(&comp, data.len()).unwrap();
        prop_assert_eq!(back.as_ref(), data.as_slice());
    }

    /// The bake-off's own per-chunk choice round-trips arbitrary bytes —
    /// including inputs that mix compressible and incompressible chunks,
    /// so adjacent chunks genuinely pick different backends.
    #[test]
    fn bakeoff_mixed_backends_roundtrip(
        n_runs in 1usize..12,
        seed in any::<u64>(),
    ) {
        // Alternate low-entropy runs with seeded noise: the chunked input
        // exercises stored, Huffman and DEFLATE picks side by side.
        let mut data = Vec::new();
        let mut s = seed | 1;
        let mut next = || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; (s >> 32) as u8 };
        for _ in 0..n_runs {
            let byte = next();
            let len = 1 + (next() as usize) * 2;
            let noisy = next() & 1 == 0;
            for _ in 0..len {
                let b = if noisy { next() } else { byte };
                data.push(b);
            }
        }
        let comp = bakeoff::compress(&data, Effort::Default);
        let back = bakeoff::decompress_bounded(&comp, data.len()).unwrap();
        prop_assert_eq!(back.as_ref(), data.as_slice());
        // The pick may never beat the stored baseline by losing to it.
        prop_assert!(comp.len() <= data.len() + 32, "inflated past framing");
    }

    /// Interleaved multi-stream Huffman round-trips any symbol stream at
    /// every supported stream count, through table serialization.
    #[test]
    fn mshuf_roundtrip_arbitrary_symbols(
        alphabet in 2usize..300,
        raw in proptest::collection::vec(any::<u32>(), 1..2000),
        n_streams in 1usize..=8,
    ) {
        let symbols: Vec<u32> = raw.into_iter().map(|s| s % alphabet as u32).collect();
        let counts = freq::count_dense(&symbols, alphabet);
        let codec = HuffmanCodec::from_counts(&counts);
        let blob = mshuf::encode(&symbols, &codec, n_streams);
        let mut table = Vec::new();
        codec.write_table(&mut table);
        let mut pos = 0;
        let codec2 = HuffmanCodec::read_table(&table, &mut pos).unwrap();
        let out = mshuf::decode_all(&blob, &codec2, symbols.len()).unwrap();
        prop_assert_eq!(out, symbols);
    }

    /// The two-queue code-length build equals the heap oracle; the
    /// interleaved encoder equals the per-stream `BitWriter` oracle byte for
    /// byte, over `u32` and `u8` symbols, sized by the length-sum pass or
    /// (four streams) by lane counts; and the blob round-trips through
    /// `InterleavedReader` decoded in two pieces.
    #[test]
    fn entropy_stage_matches_its_oracles(
        shape in 0usize..5,
        width in 0usize..4,
        seed in any::<u64>(),
        n_streams in 1usize..=8,
        n in 0usize..3000,
        split in 0usize..3000,
        bytes in proptest::bool::ANY,
    ) {
        let alphabet = if bytes {
            256
        } else {
            [50 + (seed % 250) as usize, 1000 + (seed % 4000) as usize, (1 << 16) + 1, 45][width]
        };
        let counts = shaped_counts(shape, alphabet, seed);
        let codec = HuffmanCodec::from_counts(&counts);
        let lens: Vec<u8> = (0..alphabet as u32).map(|s| codec.code_len(s)).collect();
        prop_assert_eq!(&lens, &heap_code_lengths(&counts));
        if shape == 2 {
            prop_assert!(heap_build(&counts).iter().any(|&l| l > MAX_CODE_LEN));
        }

        let live: Vec<u32> = (0..alphabet as u32).filter(|&s| counts[s as usize] > 0).collect();
        let mut x = seed;
        let symbols: Vec<u32> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                live[(x >> 33) as usize % live.len()]
            })
            .collect();
        let want = bitwriter_encode(&symbols, &codec, n_streams);
        let blob = if bytes {
            let narrow: Vec<u8> = symbols.iter().map(|&s| s as u8).collect();
            mshuf::encode(&narrow, &codec, n_streams)
        } else {
            mshuf::encode(&symbols, &codec, n_streams)
        };
        prop_assert_eq!(&blob, &want);
        if n_streams == mshuf::HUFF_STREAMS {
            let bits = codec.encoded_lane_bits(&freq::count_dense_lanes(&symbols, alphabet));
            prop_assert_eq!(bits.to_vec(), mshuf::stream_bits(&symbols, &codec, n_streams));
            let mut sized = vec![7u8];
            mshuf::encode_sized(&symbols, &codec, &bits, &mut sized);
            prop_assert_eq!(&sized[1..], &want[..]);
        }

        let mut table = Vec::new();
        codec.write_table(&mut table);
        let codec2 = HuffmanCodec::read_table(&table, &mut 0).unwrap();
        let mut reader = mshuf::InterleavedReader::new(&blob).unwrap();
        let head = split.min(n);
        let mut out = Vec::new();
        reader.decode(&codec2, head, &mut out).unwrap();
        reader.decode(&codec2, n - head, &mut out).unwrap();
        prop_assert_eq!(out, symbols);
    }

    /// Decompression never panics on corrupted containers — it returns Err
    /// or (for benign flips in stored values) a well-formed field.
    #[test]
    fn corrupted_containers_fail_cleanly(
        flip_at in 0usize..400,
        flip_bits in 1u8..=255,
    ) {
        let field = Field::from_fn_2d(16, 16, |i, j| (i * 16 + j) as f32);
        let cfg = SzConfig::new(ErrorBound::Abs(1e-2));
        let mut bytes = sz::compress(&field, &cfg).unwrap();
        prop_assume!(flip_at < bytes.len());
        bytes[flip_at] ^= flip_bits;
        // Must not panic; Err or Ok both acceptable.
        let _ = sz::decompress::<f32>(&bytes);
    }

    /// Fixed-PSNR single-pass: achieved PSNR is finite and the container
    /// always decodes, for arbitrary smooth-ish inputs and targets.
    #[test]
    fn fixed_psnr_always_decodable(
        scale in 0.01f32..100.0,
        target in 20.0f64..120.0,
        rows in 4usize..24,
    ) {
        let field = Field::from_fn_2d(rows, rows + 3, |i, j| {
            scale * ((i as f32 * 0.3).sin() + (j as f32 * 0.2).cos())
        });
        let run = compress_fixed_psnr(&field, target, &FixedPsnrOptions::default()).unwrap();
        prop_assert!(run.outcome.achieved_psnr > 0.0);
        let back: Field<f32> = sz::decompress(&run.bytes).unwrap();
        prop_assert_eq!(back.shape(), field.shape());
    }
}
