//! Entropy-backend bake-off bench and ratio-regression gate.
//!
//! ```text
//! cargo run --release -p fpsnr-bench --bin bakeoff
//! FPSNR_GRF_DIM=32 cargo run --release -p fpsnr-bench --bin bakeoff   # CI smoke
//! ```
//!
//! Feeds the per-chunk bake-off ([`losslesskit::bakeoff`]) a deterministic
//! corpus spanning the byte distributions the lossless tail actually sees —
//! a serialized quantized-container body, raw float samples, a
//! low-entropy plane, and incompressible noise — and measures, per corpus,
//! the chosen-backend size and encode/decode throughput against forced
//! always-DEFLATE. Writes `BENCH_bakeoff.json` (override with `FPSNR_OUT`).
//!
//! The gate: on every corpus the bake-off's pick must stay within 1% (plus
//! a small absolute slack for tiny inputs) of the always-DEFLATE size.
//! Exit is nonzero on any violation, so CI catches a cost-model regression
//! that starts picking worse backends.

use datagen::grf::grf_3d;
use losslesskit::bakeoff::{self, Backend};
use losslesskit::lz77::Effort;
use ndfield::{Field, Shape};
use std::fmt::Write as _;
use std::time::Instant;
use szlike::{ErrorBound, LosslessBackend, SzConfig};

/// Best-of-N wall-clock for one closure, in seconds.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.unwrap())
}

struct CorpusResult {
    name: &'static str,
    raw_bytes: usize,
    baked_bytes: usize,
    deflate_bytes: usize,
    encode_s: f64,
    decode_s: f64,
    /// Chunk counts per backend, indexed like [`Backend::ALL`].
    chunks: [u64; 4],
    gate_ok: bool,
}

/// Permitted inflation of the bake-off pick over always-DEFLATE: 1%
/// relative plus 64 bytes absolute (per-chunk tag overhead on tiny inputs).
fn gate(baked: usize, deflate: usize) -> bool {
    baked as f64 <= deflate as f64 * 1.01 + 64.0
}

fn run_corpus(name: &'static str, data: &[u8], reps: usize) -> CorpusResult {
    let effort = Effort::Default;
    let (encode_s, (baked, stats)) = time_best(reps, || bakeoff::compress_with_stats(data, effort));
    let deflate = bakeoff::compress_forced(data, effort, Backend::Deflate);
    let (decode_s, back) = time_best(reps, || {
        bakeoff::decompress_bounded(&baked, data.len()).unwrap()
    });
    assert_eq!(back.as_ref(), data, "{name}: bake-off round-trip mismatch");
    let deflate_back = bakeoff::decompress_bounded(&deflate, data.len()).unwrap();
    assert_eq!(
        deflate_back.as_ref(),
        data,
        "{name}: forced-DEFLATE round-trip mismatch"
    );
    CorpusResult {
        name,
        raw_bytes: data.len(),
        baked_bytes: baked.len(),
        deflate_bytes: deflate.len(),
        encode_s,
        decode_s,
        chunks: stats.chunks,
        gate_ok: gate(baked.len(), deflate.len()),
    }
}

fn main() {
    let dim: usize = std::env::var("FPSNR_GRF_DIM")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let reps: usize = std::env::var("FPSNR_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let out_path = std::env::var("FPSNR_OUT").unwrap_or_else(|_| "BENCH_bakeoff.json".to_string());

    let grf: Vec<f32> = grf_3d(dim, dim, dim, 3.0, 20180713)
        .into_iter()
        .map(|v| v as f32)
        .collect();
    let field = Field::from_vec(Shape::D3(dim, dim, dim), grf);

    // The realistic input: a quantized container body with the lossless
    // stage off, i.e. exactly the bytes apply_lossless sees in production.
    let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-4))
        .with_auto_intervals(true)
        .with_lossless(LosslessBackend::None);
    let sz_body = szlike::compress(&field, &cfg).expect("compress grf");

    // Raw little-endian float samples: structured, byte-planes of mixed
    // entropy.
    let raw_floats: Vec<u8> = field
        .as_slice()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();

    // Low-entropy plane: long runs with a slow ramp (stored/Huffman bait).
    let low_entropy: Vec<u8> = (0..1 << 20).map(|i| ((i >> 12) & 0x0f) as u8).collect();

    // Incompressible noise from a fixed xorshift64 stream: every backend
    // should lose to stored here.
    let mut s = 0x9e3779b97f4a7c15u64;
    let noise: Vec<u8> = (0..1 << 20)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 32) as u8
        })
        .collect();

    let corpora: [(&'static str, &[u8]); 4] = [
        ("sz_body", &sz_body),
        ("raw_floats", &raw_floats),
        ("low_entropy", &low_entropy),
        ("noise", &noise),
    ];

    let mut results = Vec::new();
    for (name, data) in corpora {
        results.push(run_corpus(name, data, reps));
    }

    let mib = |bytes: usize, sec: f64| bytes as f64 / (1024.0 * 1024.0) / sec;
    println!("entropy-backend bake-off vs always-DEFLATE, best of {reps}, single thread");
    for r in &results {
        let picks: Vec<String> = Backend::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| r.chunks[*i] > 0)
            .map(|(i, b)| format!("{}x{}", r.chunks[i], b.name()))
            .collect();
        println!(
            "{}: {} raw -> {} baked vs {} deflate ({:+.2}%), encode {:.1} MiB/s, decode {:.1} MiB/s, picks [{}]{}",
            r.name,
            r.raw_bytes,
            r.baked_bytes,
            r.deflate_bytes,
            (r.baked_bytes as f64 / r.deflate_bytes as f64 - 1.0) * 100.0,
            mib(r.raw_bytes, r.encode_s),
            mib(r.raw_bytes, r.decode_s),
            picks.join(", "),
            if r.gate_ok { "" } else { "  GATE FAIL" },
        );
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"bakeoff\",\n  \"grf_dim\": {dim},\n  \"reps\": {reps},\n  \"corpora\": ["
    );
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    {{\"name\": \"{}\", \"raw_bytes\": {}, \"baked_bytes\": {}, \
             \"deflate_bytes\": {},\n     \"encode_s\": {:.6}, \"decode_s\": {:.6}, \
             \"encode_mib_s\": {:.2}, \"decode_mib_s\": {:.2},\n     \
             \"chunks\": {{\"stored\": {}, \"deflate\": {}, \"huffman\": {}, \"range\": {}}}, \
             \"gate_ok\": {}}}",
            if i == 0 { "" } else { "," },
            r.name,
            r.raw_bytes,
            r.baked_bytes,
            r.deflate_bytes,
            r.encode_s,
            r.decode_s,
            mib(r.raw_bytes, r.encode_s),
            mib(r.raw_bytes, r.decode_s),
            r.chunks[0],
            r.chunks[1],
            r.chunks[2],
            r.chunks[3],
            r.gate_ok,
        );
    }
    let all_ok = results.iter().all(|r| r.gate_ok);
    let _ = write!(json, "\n  ],\n  \"gate_ok\": {all_ok}\n}}\n");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");

    if !all_ok {
        eprintln!("FAIL: bake-off pick regressed >1% vs always-DEFLATE on some corpus");
        std::process::exit(1);
    }
}
