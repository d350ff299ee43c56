//! SIMD-tier tripwire: single-thread compress and decompress throughput
//! at every available dispatch level, on a 3-D GRF, a 2-D GRF and a 1-D
//! drift series.
//!
//! ```text
//! cargo run --release -p fpsnr-bench --bin hotloop
//! FPSNR_GRF_DIM=64 FPSNR_REPS=5 cargo run --release -p fpsnr-bench --bin hotloop   # CI tripwire
//! ```
//!
//! Levels are forced in-process (`losslesskit::simd::force`) and the
//! repetitions interleave level sweeps, so every level sees the same
//! thermal/steal conditions — on a shared host, back-to-back
//! whole-process runs disagree by far more than the effects measured here.
//!
//! Writes `BENCH_hotloop.json` (override with `FPSNR_OUT`) recording, per
//! corpus: best-of compress / decompress wall time per dispatch level, the
//! SIMD-over-forced-scalar speedups, and whether every level produced the
//! same container bytes and decoded bits. Exits nonzero if any level
//! differs. The fused walk's bit identity with the walk oracle
//! (`szlike::kernels::walk_reference`) is a test
//! (`szlike/tests/kernel_equivalence.rs`), and the walk and reconstruct
//! layer throughputs are the benchmark's `kernels.*` metrics.

use datagen::grf::{grf_2d, grf_3d};
use datagen::timeseries::DriftField;
use losslesskit::simd::{self, SimdLevel};
use ndfield::{Field, Shape};
use std::time::Instant;
use szlike::{ErrorBound, SzConfig};

const EB_REL: f64 = 1e-4;

struct CorpusResult {
    name: &'static str,
    shape: String,
    raw_bytes: usize,
    /// Best-of `(compress_s, decompress_s)`, one entry per swept level.
    per_level: Vec<(f64, f64)>,
    compressed_bytes: usize,
    containers_identical: bool,
}

fn run_corpus(
    name: &'static str,
    field: &Field<f32>,
    levels: &[SimdLevel],
    reps: usize,
) -> CorpusResult {
    let cfg = SzConfig::new(ErrorBound::ValueRangeRel(EB_REL)).with_auto_intervals(true);
    let mut per_level = vec![(f64::INFINITY, f64::INFINITY); levels.len()];
    let mut baseline: Option<(Vec<u8>, Field<f32>)> = None;
    let mut identical = true;
    // Each repetition sweeps every level once, so all columns share drift.
    // The level order rotates per repetition: on a busy host, frequency
    // drift within one repetition otherwise biases whichever level is
    // always measured last.
    for rep in 0..reps {
        for idx in 0..levels.len() {
            let li = (idx + rep) % levels.len();
            simd::force(Some(levels[li]));
            let t0 = Instant::now();
            let bytes = szlike::compress(field, &cfg).unwrap();
            let compress_s = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let back = szlike::decompress::<f32>(&bytes).unwrap();
            let decompress_s = t0.elapsed().as_secs_f64();
            let best = &mut per_level[li];
            best.0 = best.0.min(compress_s);
            best.1 = best.1.min(decompress_s);
            match &baseline {
                Some((bytes0, back0)) => identical &= bytes == *bytes0 && back == *back0,
                None => baseline = Some((bytes, back)),
            }
        }
    }
    simd::force(None);

    CorpusResult {
        name,
        shape: format!("{:?}", field.shape()),
        raw_bytes: field.len() * 4,
        per_level,
        compressed_bytes: baseline.map_or(0, |(bytes, _)| bytes.len()),
        containers_identical: identical,
    }
}

fn main() {
    let knob = |name: &str, default: usize| {
        std::env::var(name)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    let dim = knob("FPSNR_GRF_DIM", 64);
    let reps = knob("FPSNR_REPS", 3).max(1);
    let out_path = std::env::var("FPSNR_OUT").unwrap_or_else(|_| "BENCH_hotloop.json".to_string());

    let detected = simd::detect();
    let levels: Vec<SimdLevel> = SimdLevel::ALL
        .iter()
        .copied()
        .filter(|&l| l <= detected)
        .collect();

    let narrow = |v: Vec<f64>| v.into_iter().map(|x| x as f32).collect();
    let grf3 = Field::from_vec(
        Shape::D3(dim, dim, dim),
        narrow(grf_3d(dim, dim, dim, 3.0, 20180713)),
    );
    let side = 4 * dim;
    let grf2 = Field::from_vec(
        Shape::D2(side, side),
        narrow(grf_2d(side, side, 3.0, 20180713)),
    );
    // 1-D corpus: a drifting snapshot flattened to a series, so the walk
    // sees realistic smooth-plus-detail structure rather than pure noise.
    let drift = DriftField {
        rows: dim,
        cols: 4 * dim,
        ..DriftField::default()
    }
    .at(0.0);
    let series = Field::from_vec(Shape::D1(drift.len()), drift.as_slice().to_vec());

    let results: Vec<CorpusResult> = [
        ("grf3d", &grf3),
        ("grf2d", &grf2),
        ("timeseries1d", &series),
    ]
    .into_iter()
    .map(|(name, field)| run_corpus(name, field, &levels, reps))
    .collect();

    let mib = |bytes: usize, s: f64| bytes as f64 / (1024.0 * 1024.0) / s;
    // Forced-scalar over the highest level, (compress, decompress).
    let speedup = |r: &CorpusResult| {
        let (off, top) = (r.per_level[0], r.per_level[r.per_level.len() - 1]);
        (off.0 / top.0, off.1 / top.1)
    };
    println!(
        "compress/decompress, eb_rel {EB_REL}, best of {reps}, single thread, \
         simd detected: {}",
        detected.name()
    );
    let mut corpora_json = Vec::new();
    for r in &results {
        println!(
            "{}: {} ({:.1} MiB), {} bytes, containers identical: {}",
            r.name,
            r.shape,
            r.raw_bytes as f64 / (1024.0 * 1024.0),
            r.compressed_bytes,
            r.containers_identical,
        );
        let mut levels_json = Vec::new();
        for (&(c, d), level) in r.per_level.iter().zip(&levels) {
            let (c_mib, d_mib) = (mib(r.raw_bytes, c), mib(r.raw_bytes, d));
            println!(
                "  {:<5} compress {c_mib:7.1} MiB/s  decompress {d_mib:7.1} MiB/s",
                level.name()
            );
            levels_json.push(format!(
                "\n       \"{}\": {{\"compress_s\": {c:.6}, \"decompress_s\": {d:.6}, \
                 \"compress_mib_s\": {c_mib:.2}, \"decompress_mib_s\": {d_mib:.2}}}",
                level.name()
            ));
        }
        let (c, d) = speedup(r);
        println!("  simd vs scalar: compress {c:.2}x  decompress {d:.2}x");
        corpora_json.push(format!(
            "\n    {{\"name\": \"{}\", \"shape\": \"{}\", \"raw_bytes\": {},\n     \
             \"levels\": {{{}\n     }},\n     \
             \"simd_speedup\": {{\"compress\": {c:.4}, \"decompress\": {d:.4}}},\n     \
             \"compressed_bytes\": {}, \"containers_identical\": {}}}",
            r.name,
            r.shape,
            r.raw_bytes,
            levels_json.join(","),
            r.compressed_bytes,
            r.containers_identical,
        ));
    }

    let all_identical = results.iter().all(|r| r.containers_identical);
    let level_names: Vec<String> = levels.iter().map(|l| format!("\"{}\"", l.name())).collect();
    let json = format!(
        "{{\n  \"bench\": \"hotloop\",\n  \"grf_dim\": {dim},\n  \"reps\": {reps},\n  \
         \"eb_rel\": {EB_REL},\n  \"simd_detected\": \"{}\",\n  \"levels\": [{}],\n  \
         \"corpora\": [{}\n  ],\n  \"all_containers_identical\": {all_identical}\n}}\n",
        detected.name(),
        level_names.join(", "),
        corpora_json.join(","),
    );
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");

    if !all_identical {
        eprintln!("FAIL: containers differed across SIMD dispatch levels");
        std::process::exit(1);
    }
}
