//! `fpsnr` — command-line fixed-PSNR lossy compression.
//!
//! Mirrors what the SZ distribution ships as an executable, extended with
//! the paper's fixed-PSNR mode and the synthetic data generators:
//!
//! ```text
//! fpsnr compress   -i in.raw -o out.szr --type f32 --dims 100x500x500 --mode psnr:80
//! fpsnr decompress -i out.szr -o back.raw
//! fpsnr analyze    -i in.raw -r back.raw --type f32 --dims 1800x3600
//! fpsnr gen        --dataset atm --res small --out-dir /tmp/atm
//! fpsnr eval       --dataset hurricane --psnr 80 --res small
//! ```

mod args;
mod manifest;
mod serve;

use args::Args;
use datagen::{DatasetId, DatasetSpec, Resolution};
use fpsnr_core::batch::run_batch_summary;
use fpsnr_core::fixed_psnr::FixedPsnrOptions;
use fpsnr_core::{
    allocate_snapshot, ebrel_for_psnr, psnr_sz_estimate, AllocObjective, AllocOptions,
    FixedRatioOptions, SnapshotField,
};
use fpsnr_metrics::{Distortion, PointwiseError, RateStats};
use fpsnr_transform::{transform_compress, transform_decompress, TransformConfig};
use ndfield::{io as fio, Field, Scalar, Shape};
use szlike::{format, ErrorBound, LosslessBackend, PredictorKind, SzConfig};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(msg) = run(&argv) {
        eprintln!("fpsnr: {msg}");
        std::process::exit(1);
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        print!("{}", HELP);
        return Ok(());
    }
    let args = Args::parse(argv)?;
    let profile = parse_profile(&args)?;
    if profile.is_some() {
        fpsnr_obs::enable();
    }
    let result = match args.command.as_str() {
        "compress" => cmd_compress(&args),
        "decompress" => cmd_decompress(&args),
        "analyze" => cmd_analyze(&args),
        "inspect" => cmd_inspect(&args),
        "verify" => cmd_verify(&args),
        "gen" => cmd_gen(&args),
        "eval" => cmd_eval(&args),
        "snapshot" => cmd_snapshot(&args),
        "serve" => cmd_serve(&args),
        "read" => cmd_read(&args),
        other => Err(format!("unknown command {other} (try `fpsnr help`)")),
    };
    if result.is_ok() {
        if let Some(kind) = profile {
            fpsnr_obs::disable();
            let report = fpsnr_obs::snapshot();
            match kind {
                ProfileKind::Json => println!("{}", report.to_json()),
                ProfileKind::Pretty => print!("{}", report.render_pretty()),
            }
        }
    }
    result
}

/// `--profile json|pretty`: arm the `fpsnr-obs` registry for the whole
/// command and report per-stage timings and counters on success.
#[derive(Clone, Copy)]
enum ProfileKind {
    Json,
    Pretty,
}

fn parse_profile(args: &Args) -> Result<Option<ProfileKind>, String> {
    match args.get("--profile") {
        None => Ok(None),
        Some("json") => Ok(Some(ProfileKind::Json)),
        Some("pretty") => Ok(Some(ProfileKind::Pretty)),
        Some(other) => Err(format!("bad --profile {other} (want json or pretty)")),
    }
}

const HELP: &str = "\
fpsnr — fixed-PSNR lossy compression for scientific data

COMMANDS
  compress    -i RAW -o OUT --type f32|f64 --dims DxDxD --mode MODE
              MODE: psnr:<dB> | abs:<eb> | rel:<eb> | pwrel:<eb> | budget:<bytes>
              [--ratio N]       target compression ratio instead of --mode
                                (ratio-quality model + <=2 refinements)
              [--ratio-tol T]   relative tolerance band (default 0.1)
              [--bins N] [--no-lz] [--verify] [--transform]
              [--predictor auto|lorenzo|lorenzo2|regression|spline]
                                prediction stage (default lorenzo); auto
                                runs the per-block cost bake-off (v5)
              [--threads N]     block-parallel pipeline (0 = auto, 1 = off)
              [--block-size R]  rows per block (0 = derive from shape)
              [--chunks AxBxC]  multi-dimensional chunk grid (v4 layout) for
                                random-access region reads; 0 = full axis
  decompress  -i OUT -o RAW [--threads N]
  read        -i OUT -o RAW --region S:ExS:ExS:E
                             decode one region (only intersecting blocks)
  serve       -i OUT [--addr HOST:PORT] [--cache-mb N]
                             region-read server (length-prefixed TCP);
                             prints cache/latency report on shutdown
  analyze     -i RAW -r RAW --type f32|f64 --dims DxDxD
  inspect     -i OUT         print container layout and a damage report
                             (always exits 0 if the header parses)
  verify      -i OUT [--threads N]
                             integrity check; damaged blocks are listed and
                             the exit status is nonzero on any damage
  gen         --dataset nyx|atm|hurricane --res small|default|paper
              --out-dir DIR [--seed N]
  eval        --dataset nyx|atm|hurricane --psnr dB
              [--res small|default] [--seed N] [--threads N]
  snapshot    --budget BYTES (accepts KiB/MiB/GiB/KB/MB/GB suffixes)
              (--manifest fields.json | --dataset nyx|atm|hurricane
               [--res small|default] [--seed N])
              [--objective min-psnr|weighted] [--threads N]
              [--out-dir DIR]   write one .szr container per field
                                allocate one byte budget across all fields
                                of a snapshot (max-min PSNR water-filling
                                or weighted-MSE, <=2 passes per field)

GLOBAL
  --profile json|pretty   arm fpsnr-obs instrumentation and print
                          per-stage timings/counters after the command
";

enum CliMode {
    Psnr(f64),
    Bound(ErrorBound),
    Budget(usize),
    /// `--ratio N [--ratio-tol T]`: target compression ratio ± tolerance.
    Ratio(f64, f64),
}

fn parse_mode(raw: &str) -> Result<CliMode, String> {
    let (kind, val) = raw
        .split_once(':')
        .ok_or_else(|| format!("bad --mode {raw} (want kind:value)"))?;
    if kind == "budget" {
        let bytes: usize = val.parse().map_err(|e| format!("bad --mode budget: {e}"))?;
        return Ok(CliMode::Budget(bytes));
    }
    let v: f64 = val.parse().map_err(|e| format!("bad --mode value: {e}"))?;
    match kind {
        "psnr" => Ok(CliMode::Psnr(v)),
        "abs" => Ok(CliMode::Bound(ErrorBound::Abs(v))),
        "rel" => Ok(CliMode::Bound(ErrorBound::ValueRangeRel(v))),
        "pwrel" => Ok(CliMode::Bound(ErrorBound::PointwiseRel(v))),
        other => Err(format!("unknown mode kind {other}")),
    }
}

fn read_field_arg<T: Scalar>(args: &Args, flag: &str) -> Result<(Field<T>, Shape), String> {
    let dims = args.dims()?;
    let shape = Shape::from_dims(&dims);
    let path = args.require(flag)?;
    let field = fio::read_raw::<T>(shape, path).map_err(|e| format!("reading {path}: {e}"))?;
    Ok((field, shape))
}

/// Dispatch a command body over the `--type` flag (`f32` default).
fn cmd_compress(args: &Args) -> Result<(), String> {
    match args.get("--type").unwrap_or("f32") {
        "f32" => compress_typed::<f32>(args),
        "f64" => compress_typed::<f64>(args),
        other => Err(format!("unknown --type {other} (want f32 or f64)")),
    }
}

fn compress_typed<T: Scalar>(args: &Args) -> Result<(), String> {
    let (field, shape) = read_field_arg::<T>(args, "--input")?;
    let mode = match args.get("--ratio") {
        Some(raw) => {
            if args.get("--mode").is_some() {
                return Err("--ratio replaces --mode; give one or the other".into());
            }
            let target: f64 = raw.parse().map_err(|e| format!("bad --ratio: {e}"))?;
            let tol: f64 = args
                .get("--ratio-tol")
                .map(|s| s.parse().map_err(|e| format!("bad --ratio-tol: {e}")))
                .transpose()?
                .unwrap_or(0.1);
            CliMode::Ratio(target, tol)
        }
        None => {
            if args.get("--ratio-tol").is_some() {
                return Err("--ratio-tol needs --ratio".into());
            }
            parse_mode(args.require("--mode")?)?
        }
    };
    let bins: usize = args
        .get("--bins")
        .map(|s| s.parse().map_err(|e| format!("bad --bins: {e}")))
        .transpose()?
        .unwrap_or(65536);
    let lossless = if args.has("--no-lz") {
        LosslessBackend::None
    } else {
        LosslessBackend::Lz
    };
    let threads = parse_threads(args)?.unwrap_or(1);
    let block_rows: usize = args
        .get("--block-size")
        .map(|s| s.parse().map_err(|e| format!("bad --block-size: {e}")))
        .transpose()?
        .unwrap_or(0);
    let chunk_dims = parse_chunks(args)?;
    if chunk_dims != [0; 3] && block_rows != 0 {
        return Err("--chunks and --block-size are mutually exclusive".into());
    }
    let predictor = parse_predictor(args)?;
    let use_transform = args.has("--transform");
    if use_transform && (threads != 1 || block_rows != 0 || chunk_dims != [0; 3]) {
        return Err("--transform does not support --threads/--block-size/--chunks".into());
    }
    if use_transform && predictor != PredictorKind::Lorenzo1 {
        return Err("--transform does not support --predictor".into());
    }
    // The compressor knobs the fixed-PSNR and fixed-ratio modes share.
    let psnr_opts = FixedPsnrOptions {
        quant_bins: bins,
        lossless,
        threads,
        block_rows,
        chunk_dims,
        predictor,
        ..FixedPsnrOptions::default()
    };
    let bytes = match mode {
        CliMode::Budget(budget) => {
            if use_transform {
                return Err("--transform does not support budget mode".into());
            }
            if chunk_dims != [0; 3] {
                return Err("budget mode does not support --chunks".into());
            }
            let base = SzConfig::new(ErrorBound::Abs(1.0))
                .with_quant_bins(bins)
                .with_lossless(lossless)
                .with_auto_intervals(true)
                .with_threads(threads)
                .with_block_rows(block_rows)
                .with_predictor(predictor);
            let (bytes, report) = fpsnr_core::mode::compress_with_mode(
                &field,
                fpsnr_core::mode::CompressionMode::ByteBudget(budget),
                &base,
            )
            .map_err(|e| e.to_string())?;
            if !args.has("--quiet") {
                println!(
                    "byte budget {budget}: settled on eb_rel {:.4e} after {} probes",
                    report.effective_ebrel, report.invocations
                );
            }
            bytes
        }
        CliMode::Ratio(target, tol) => {
            if use_transform {
                return Err("--transform does not support fixed-ratio mode".into());
            }
            let opts = FixedRatioOptions {
                tolerance: tol,
                compress: psnr_opts,
                ..FixedRatioOptions::new(target)
            };
            let run = fpsnr_core::compress_fixed_ratio(&field, &opts).map_err(|e| e.to_string())?;
            if !args.has("--quiet") {
                println!(
                    "fixed-ratio: target {target}x -> eb_rel {:.4e}, achieved {:.2}x in {} pass(es){}",
                    run.eb_rel,
                    run.achieved_ratio,
                    run.passes,
                    if run.within_tolerance { "" } else { " (outside tolerance)" }
                );
            }
            run.bytes
        }
        CliMode::Psnr(target) => {
            let derived = ebrel_for_psnr(target);
            if !args.has("--quiet") {
                println!("fixed-PSNR: target {target} dB -> eb_rel {derived:.6e} (Eq. 8)");
            }
            if use_transform {
                let cfg = TransformConfig::new(ErrorBound::ValueRangeRel(derived));
                transform_compress(&field, &cfg).map_err(|e| e.to_string())?
            } else {
                fpsnr_core::fixed_psnr::compress_fixed_psnr_only(&field, target, &psnr_opts)
                    .map_err(|e| e.to_string())?
            }
        }
        CliMode::Bound(b) => {
            if use_transform {
                let cfg = TransformConfig::new(b);
                transform_compress(&field, &cfg).map_err(|e| e.to_string())?
            } else {
                let cfg = SzConfig::new(b)
                    .with_quant_bins(bins)
                    .with_lossless(lossless)
                    .with_threads(threads)
                    .with_block_rows(block_rows)
                    .with_chunk_dims(chunk_dims)
                    .with_predictor(predictor);
                szlike::compress(&field, &cfg).map_err(|e| e.to_string())?
            }
        }
    };
    let out = args.require("--output")?;
    std::fs::write(out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    let rate = RateStats::new(field.len(), T::BYTES, bytes.len());
    println!(
        "compressed {} ({} samples) -> {} bytes, ratio {:.2}, {:.3} bits/sample",
        shape,
        field.len(),
        bytes.len(),
        rate.ratio(),
        rate.bit_rate()
    );
    if args.has("--verify") {
        let back: Field<T> = decode_any(&bytes, threads)?;
        let d = Distortion::between(&field, &back);
        println!("verified: PSNR {:.2} dB, NRMSE {:.3e}", d.psnr(), d.nrmse());
    }
    Ok(())
}

/// Parse `--predictor` (default Lorenzo — the legacy container layout).
fn parse_predictor(args: &Args) -> Result<PredictorKind, String> {
    match args.get("--predictor") {
        None => Ok(PredictorKind::Lorenzo1),
        Some(raw) => PredictorKind::parse(raw).ok_or_else(|| {
            format!("bad --predictor {raw} (want auto, lorenzo, lorenzo2, regression, or spline)")
        }),
    }
}

/// Parse `--threads` (None when absent).
fn parse_threads(args: &Args) -> Result<Option<usize>, String> {
    args.get("--threads")
        .map(|s| s.parse().map_err(|e| format!("bad --threads: {e}")))
        .transpose()
}

/// Parse `--chunks 64x64x64` into chunk extents ([0; 3] when absent — the
/// slab layout). A 0 extent means "full axis".
fn parse_chunks(args: &Args) -> Result<[usize; 3], String> {
    let Some(raw) = args.get("--chunks") else {
        return Ok([0; 3]);
    };
    let parts: Result<Vec<usize>, _> = raw.split('x').map(|p| p.parse::<usize>()).collect();
    let parts = parts.map_err(|e| format!("bad --chunks {raw}: {e}"))?;
    if parts.is_empty() || parts.len() > 3 {
        return Err(format!("--chunks wants 1-3 extents, got {raw}"));
    }
    let mut dims = [0usize; 3];
    dims[..parts.len()].copy_from_slice(&parts);
    if dims == [0; 3] {
        return Err("--chunks of all zeros selects no grid; omit the flag instead".into());
    }
    Ok(dims)
}

/// Parse `--region 5:14x0:24x7:9` into per-axis half-open ranges.
fn parse_region(raw: &str) -> Result<szlike::Region, String> {
    let mut axes = Vec::new();
    for part in raw.split('x') {
        let (s, e) = part
            .split_once(':')
            .ok_or_else(|| format!("bad --region axis {part} (want start:end)"))?;
        let s: usize = s.parse().map_err(|e| format!("bad --region start: {e}"))?;
        let e: usize = e.parse().map_err(|e| format!("bad --region end: {e}"))?;
        axes.push(s..e);
    }
    szlike::Region::new(&axes).map_err(|e| e.to_string())
}

/// Decode any container this toolchain produces, dispatching on the magic.
/// `threads` feeds the block-parallel decoders (0 = auto).
fn decode_any<T: ndfield::Scalar>(bytes: &[u8], threads: usize) -> Result<Field<T>, String> {
    match bytes.get(..4) {
        Some(b"SZR1") => szlike::decompress_with_threads(bytes, threads).map_err(|e| e.to_string()),
        Some(b"XFM1") => transform_decompress(bytes).map_err(|e| e.to_string()),
        Some(b"XEC1") => fpsnr_transform::embedded_decompress(bytes).map_err(|e| e.to_string()),
        _ => Err("unrecognised container magic".to_string()),
    }
}

fn cmd_decompress(args: &Args) -> Result<(), String> {
    let input = args.require("--input")?;
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let out = args.require("--output")?;
    let threads = parse_threads(args)?.unwrap_or(0);
    // SZ containers carry the scalar tag in the header; for the other
    // container kinds, try f32 first (the dominant type in HPC dumps).
    let is_f64 = if bytes.get(..4) == Some(b"SZR1".as_slice()) {
        let mut pos = 0usize;
        let header = format::read_header(&bytes, &mut pos).map_err(|e| e.to_string())?;
        header.scalar_tag == "f64"
    } else {
        decode_any::<f32>(&bytes, threads).is_err()
    };
    if is_f64 {
        let field: Field<f64> = decode_any(&bytes, threads)?;
        fio::write_raw(&field, out).map_err(|e| format!("writing {out}: {e}"))?;
        println!(
            "decompressed {} f64 samples ({})",
            field.len(),
            field.shape()
        );
    } else {
        let field: Field<f32> = decode_any(&bytes, threads)?;
        fio::write_raw(&field, out).map_err(|e| format!("writing {out}: {e}"))?;
        println!(
            "decompressed {} f32 samples ({})",
            field.len(),
            field.shape()
        );
    }
    Ok(())
}

/// Run the forgiving decoder on an SZ container, dispatching on the scalar
/// tag stored in its header, and return the damage report.
fn partial_report(bytes: &[u8], threads: usize) -> Result<szlike::DamageReport, String> {
    let mut pos = 0usize;
    let header = format::read_header(bytes, &mut pos).map_err(|e| e.to_string())?;
    let report = if header.scalar_tag == "f64" {
        szlike::decompress_partial_with_threads::<f64>(bytes, threads)
            .map(|(_, r)| r)
            .map_err(|e| e.to_string())?
    } else {
        szlike::decompress_partial_with_threads::<f32>(bytes, threads)
            .map(|(_, r)| r)
            .map_err(|e| e.to_string())?
    };
    Ok(report)
}

fn print_report(report: &szlike::DamageReport) {
    println!(
        "container CRC     {}",
        if report.container_crc_ok {
            "ok"
        } else {
            "MISMATCH"
        }
    );
    println!("blocks            {}", report.n_blocks);
    println!("recovered samples {}", report.recovered_samples);
    if report.damaged.is_empty() {
        println!("damaged blocks    none");
    } else {
        println!("damaged blocks    {}", report.damaged.len());
        for d in &report.damaged {
            println!(
                "  block {:>4}  samples {}..{}  {}",
                d.index, d.sample_range.start, d.sample_range.end, d.reason
            );
        }
    }
}

/// Print the structural section report: one line per lossless section with
/// its flag and compressed/raw byte counts, then one line per bake-off
/// chunk with the backend the per-chunk bake-off chose.
fn print_sections(info: &szlike::ContainerInfo) {
    if let Some(v) = info.blocked_version {
        println!("blocked version   {v}");
    }
    let fmt_dims = |d: &[usize]| {
        d.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join("x")
    };
    if let Some(chunk) = &info.chunk_dims {
        println!("chunk dims        {}", fmt_dims(chunk));
    }
    if let Some(grid) = &info.grid_dims {
        println!(
            "chunk grid        {} ({} blocks)",
            fmt_dims(grid),
            grid.iter().product::<usize>()
        );
    }
    if let Some(pred) = &info.predictor {
        println!("predictor         {pred}");
    }
    if let Some(stage) = info.entropy_stage {
        let name = match stage {
            0 => "huffman (single-stream, legacy)",
            1 => "range",
            2 => "huffman (interleaved)",
            _ => "unknown",
        };
        println!("entropy stage     {stage} = {name}");
    }
    println!("sections          {}", info.sections.len());
    for s in &info.sections {
        let flag_name = match s.flag {
            0 => "stored",
            1 => "deflate (legacy)",
            2 => "bakeoff",
            _ => "unknown",
        };
        let raw = s
            .raw_len
            .map(|r| format!("{r}"))
            .unwrap_or_else(|| "?".into());
        println!(
            "  {:<14} flag {} ({flag_name})  comp {:>9}  raw {:>9}",
            s.name, s.flag, s.comp_len, raw
        );
        for (i, c) in s.chunks.iter().enumerate() {
            println!(
                "    chunk {:<4} {:<8} raw {:>9} -> comp {:>9}",
                i,
                c.backend.name(),
                c.raw_len,
                c.comp_len
            );
        }
    }
}

/// Print the per-block predictor map of a v5 container: one line per
/// block plus a histogram so mixed selections are visible at a glance.
fn print_block_predictors(names: &[String]) {
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for n in names {
        match counts.iter_mut().find(|(k, _)| k == n) {
            Some((_, c)) => *c += 1,
            None => counts.push((n.as_str(), 1)),
        }
    }
    let summary = counts
        .iter()
        .map(|(k, c)| format!("{k} x{c}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!("block predictors  {summary}");
    for (i, n) in names.iter().enumerate() {
        println!("  block {i:>4}  {n}");
    }
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let input = args.require("--input")?;
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let magic = bytes.get(..4).map(String::from_utf8_lossy);
    println!("file              {input}");
    println!("container bytes   {}", bytes.len());
    match bytes.get(..4) {
        Some(b"SZR1") => {
            let mut pos = 0usize;
            let header = format::read_header(&bytes, &mut pos).map_err(|e| e.to_string())?;
            println!("magic             SZR1");
            println!("scalar type       {}", header.scalar_tag);
            println!("mode              {:?}", header.mode);
            println!("shape             {}", header.shape);
            println!("samples           {}", header.shape.len());
            // Structural walk: per-section lossless flags, compressed vs
            // raw byte counts, and per-chunk bake-off backend choices.
            match szlike::inspect_sections(&bytes) {
                Ok(info) => print_sections(&info),
                Err(e) => println!("sections          unreadable: {e}"),
            }
            // v5 mixed-predictor containers: show which predictor the
            // cost bake-off picked for every block, in directory order.
            match szlike::inspect_block_predictors(&bytes) {
                Ok(Some(names)) => print_block_predictors(&names),
                Ok(None) => {}
                Err(e) => println!("block predictors  unreadable: {e}"),
            }
            // Damage is informational for inspect: report it, exit 0.
            match partial_report(&bytes, 0) {
                Ok(report) => print_report(&report),
                Err(e) => println!("unrecoverable     {e}"),
            }
            Ok(())
        }
        Some(_) => {
            println!("magic             {}", magic.unwrap_or_default());
            println!("(only SZR1 containers carry a block directory to inspect)");
            Ok(())
        }
        None => Err("file shorter than a container magic".to_string()),
    }
}

fn cmd_verify(args: &Args) -> Result<(), String> {
    let input = args.require("--input")?;
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let threads = parse_threads(args)?.unwrap_or(0);
    match bytes.get(..4) {
        Some(b"SZR1") => {
            let report = partial_report(&bytes, threads)?;
            print_report(&report);
            if report.is_clean() {
                println!("verify: OK");
                Ok(())
            } else if report.damaged.is_empty() {
                Err("container CRC mismatch (all blocks individually intact)".to_string())
            } else {
                Err(format!(
                    "container is damaged: {} of {} blocks lost",
                    report.damaged.len(),
                    report.n_blocks
                ))
            }
        }
        Some(_) => {
            // Other container kinds have no partial-recovery framing: a
            // strict decode is the integrity check.
            decode_any::<f32>(&bytes, threads)
                .map(|_| ())
                .or_else(|_| decode_any::<f64>(&bytes, threads).map(|_| ()))
                .map_err(|e| format!("strict decode failed: {e}"))?;
            println!("verify: OK (strict decode)");
            Ok(())
        }
        None => Err("file shorter than a container magic".to_string()),
    }
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    match args.get("--type").unwrap_or("f32") {
        "f32" => analyze_typed::<f32>(args),
        "f64" => analyze_typed::<f64>(args),
        other => Err(format!("unknown --type {other} (want f32 or f64)")),
    }
}

fn analyze_typed<T: Scalar>(args: &Args) -> Result<(), String> {
    let (orig, shape) = read_field_arg::<T>(args, "--input")?;
    let recon_path = args.require("--recon")?;
    let recon =
        fio::read_raw::<T>(shape, recon_path).map_err(|e| format!("reading {recon_path}: {e}"))?;
    let d = Distortion::between(&orig, &recon);
    let p = PointwiseError::between(&orig, &recon);
    println!("shape            {shape}");
    println!("value range      {:.6e}", d.value_range);
    println!("MSE              {:.6e}", d.mse);
    println!("NRMSE            {:.6e}", d.nrmse());
    println!("PSNR             {:.3} dB", d.psnr());
    println!("max abs error    {:.6e}", p.max_abs);
    println!("max rel error    {:.6e}", p.max_rel);
    println!("max range-rel    {:.6e}", p.max_range_rel);
    Ok(())
}

fn parse_dataset(args: &Args) -> Result<DatasetId, String> {
    let name = args.require("--dataset")?;
    DatasetId::parse(name).ok_or_else(|| format!("unknown dataset {name}"))
}

fn parse_res(args: &Args) -> Result<Resolution, String> {
    match args.get("--res").unwrap_or("default") {
        "small" => Ok(Resolution::Small),
        "default" => Ok(Resolution::Default),
        "paper" => Ok(Resolution::Paper),
        other => Err(format!("unknown resolution {other}")),
    }
}

fn parse_seed(args: &Args) -> Result<u64, String> {
    args.get("--seed")
        .map(|s| s.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()
        .map(|o| o.unwrap_or(20180713)) // paper's arXiv v3 date
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let id = parse_dataset(args)?;
    let res = parse_res(args)?;
    let seed = parse_seed(args)?;
    let dir = args.require("--out-dir")?;
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let fields = datagen::generate(id, res, seed);
    let spec = DatasetSpec::of(id);
    let shape = spec.shape(res);
    let mut manifest = format!("# dataset {} shape {} seed {}\n", id.name(), shape, seed);
    for nf in &fields {
        let path = std::path::Path::new(dir).join(format!("{}.f32", nf.name));
        fio::write_raw(&nf.data, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        manifest.push_str(&format!("{}.f32 {}\n", nf.name, shape));
    }
    std::fs::write(std::path::Path::new(dir).join("MANIFEST"), manifest)
        .map_err(|e| format!("writing manifest: {e}"))?;
    println!(
        "wrote {} fields of {} ({}) to {dir}",
        fields.len(),
        id.name(),
        shape
    );
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let id = parse_dataset(args)?;
    let res = parse_res(args)?;
    let seed = parse_seed(args)?;
    let target: f64 = args
        .require("--psnr")?
        .parse()
        .map_err(|e| format!("bad --psnr: {e}"))?;
    let threads: usize = args
        .get("--threads")
        .map(|s| s.parse().map_err(|e| format!("bad --threads: {e}")))
        .transpose()?
        .unwrap_or_else(fpsnr_parallel::default_threads);
    let fields: Vec<(String, Field<f32>)> = datagen::generate(id, res, seed)
        .into_iter()
        .map(|nf| (nf.name, nf.data))
        .collect();
    let (outcomes, summary) = run_batch_summary(
        id.name(),
        &fields,
        target,
        &FixedPsnrOptions::default(),
        threads,
    );
    println!(
        "# {} @ {target} dB (Eq. 7 predicts PSNR = target by construction)",
        id.name()
    );
    println!(
        "# estimate check: eb_rel {:.4e} -> predicted {:.2} dB",
        ebrel_for_psnr(target),
        psnr_sz_estimate(1.0, ebrel_for_psnr(target))
    );
    if !args.has("--quiet") {
        println!("{}", fpsnr_core::report::outcomes_csv(&outcomes));
    }
    println!(
        "AVG {:.2} dB | STDEV {:.3} | meet-rate {:.1}% | fields {}",
        summary.avg,
        summary.stdev,
        summary.meet_rate * 100.0,
        summary.n_fields
    );
    Ok(())
}

/// Parse a byte-budget string: a plain count, optionally scaled by a
/// KiB/MiB/GiB (binary) or KB/MB/GB (decimal) suffix; fractional counts
/// like `1.5GiB` are fine.
fn parse_budget(raw: &str) -> Result<u64, String> {
    let trimmed = raw.trim();
    let (num, scale) = match trimmed.len().checked_sub(3).map(|i| trimmed.split_at(i)) {
        Some((head, tail)) if tail.eq_ignore_ascii_case("kib") => (head, 1u64 << 10),
        Some((head, tail)) if tail.eq_ignore_ascii_case("mib") => (head, 1u64 << 20),
        Some((head, tail)) if tail.eq_ignore_ascii_case("gib") => (head, 1u64 << 30),
        _ => match trimmed.len().checked_sub(2).map(|i| trimmed.split_at(i)) {
            Some((head, tail)) if tail.eq_ignore_ascii_case("kb") => (head, 1000u64),
            Some((head, tail)) if tail.eq_ignore_ascii_case("mb") => (head, 1_000_000),
            Some((head, tail)) if tail.eq_ignore_ascii_case("gb") => (head, 1_000_000_000),
            _ => (trimmed.strip_suffix(['b', 'B']).unwrap_or(trimmed), 1),
        },
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|e| format!("bad --budget {raw}: {e}"))?;
    if !(v.is_finite() && v > 0.0) {
        return Err(format!("--budget must be positive, got {raw}"));
    }
    Ok((v * scale as f64).round() as u64)
}

/// `fpsnr snapshot`: allocate one byte budget across every field of a
/// snapshot (from a manifest of raw files or a generated dataset) and
/// compress each at its assigned PSNR.
fn cmd_snapshot(args: &Args) -> Result<(), String> {
    let budget = parse_budget(args.require("--budget")?)?;
    let objective = match args.get("--objective").unwrap_or("min-psnr") {
        "min-psnr" => AllocObjective::MinPsnr,
        "weighted" => AllocObjective::WeightedMse,
        other => {
            return Err(format!(
                "bad --objective {other} (want min-psnr or weighted)"
            ))
        }
    };
    let threads = parse_threads(args)?.unwrap_or(0);
    let fields: Vec<SnapshotField> = match args.get("--manifest") {
        Some(path) => {
            if args.get("--dataset").is_some() {
                return Err("--manifest replaces --dataset; give one or the other".into());
            }
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let base = std::path::Path::new(path)
                .parent()
                .map(|p| p.to_path_buf())
                .unwrap_or_default();
            manifest::parse_manifest(&text)?
                .into_iter()
                .map(|mf| {
                    let shape = Shape::from_dims(&mf.dims);
                    let data_path = base.join(&mf.path);
                    let field = if mf.dtype == "f64" {
                        let f = fio::read_raw::<f64>(shape, &data_path)
                            .map_err(|e| format!("reading {}: {e}", data_path.display()))?;
                        SnapshotField::f64(mf.name, f)
                    } else {
                        let f = fio::read_raw::<f32>(shape, &data_path)
                            .map_err(|e| format!("reading {}: {e}", data_path.display()))?;
                        SnapshotField::f32(mf.name, f)
                    };
                    Ok(field.with_weight(mf.weight))
                })
                .collect::<Result<_, String>>()?
        }
        None => {
            let id = parse_dataset(args)?;
            let res = parse_res(args)?;
            let seed = parse_seed(args)?;
            datagen::generate(id, res, seed)
                .into_iter()
                .map(|nf| SnapshotField::f32(nf.name, nf.data))
                .collect()
        }
    };
    let opts = AllocOptions {
        objective,
        threads,
        ..AllocOptions::new(budget)
    };
    let run = allocate_snapshot(&fields, &opts).map_err(|e| e.to_string())?;
    if !args.has("--quiet") {
        println!("field,assigned_psnr,achieved_psnr,bytes,ratio,passes,status");
        for r in &run.fields {
            let s = &r.stat;
            let status = match (&r.failure, s.quarantined) {
                (Some(f), _) => f.to_string().replace(',', ";"),
                (None, true) => "quarantined".to_string(),
                (None, false) => "ok".to_string(),
            };
            println!(
                "{},{:.2},{:.2},{},{:.2},{},{status}",
                s.field,
                s.assigned_psnr,
                s.achieved_psnr,
                s.achieved_bytes,
                s.raw_bytes as f64 / s.achieved_bytes.max(1) as f64,
                s.passes
            );
        }
    }
    if let Some(dir) = args.get("--out-dir") {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        let mut written = 0usize;
        for r in &run.fields {
            if let Some(bytes) = &r.bytes {
                let path = std::path::Path::new(dir).join(format!("{}.szr", r.stat.field));
                std::fs::write(&path, bytes)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                written += 1;
            }
        }
        println!("wrote {written} containers to {dir}");
    }
    let s = &run.summary;
    println!(
        "allocated {} fields ({} quarantined): {} / {} bytes (utilization {:.1}%), \
         min PSNR assigned {:.2} achieved {:.2} dB, aggregate ratio {:.2}, \
         passes max {} total {}, re-solves {}",
        s.n_fields,
        s.n_quarantined,
        s.total_bytes,
        s.budget_bytes,
        s.utilization * 100.0,
        s.min_assigned_psnr,
        s.min_achieved_psnr,
        s.aggregate_ratio,
        s.max_passes,
        s.total_passes,
        run.resolves
    );
    let failed = run.fields.iter().filter(|r| r.failure.is_some()).count();
    if failed > 0 {
        return Err(format!("{failed} field(s) failed (see table)"));
    }
    Ok(())
}

/// Parse `--cache-mb` into store options (default 64 MiB).
fn parse_store_options(args: &Args) -> Result<szlike::StoreOptions, String> {
    let cache_mb: usize = args
        .get("--cache-mb")
        .map(|s| s.parse().map_err(|e| format!("bad --cache-mb: {e}")))
        .transpose()?
        .unwrap_or(64);
    Ok(szlike::StoreOptions {
        cache_budget: cache_mb << 20,
        ..szlike::StoreOptions::default()
    })
}

/// `fpsnr serve`: answer region reads over TCP until a SHUTDOWN request,
/// then print the cache / latency report.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let input = args.require("--input")?;
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let store = serve::AnyStore::open(bytes, parse_store_options(args)?)?;
    let dims = store.dims();
    let addr = args.get("--addr").unwrap_or("127.0.0.1:0");
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!(
        "serving {input} ({}) on {local}",
        dims.iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("x")
    );
    let report = serve::run_server(listener, store)?;
    println!("{}", report.render());
    Ok(())
}

/// `fpsnr read`: decode one region of a blocked container to a raw file,
/// touching only the blocks that intersect it.
fn cmd_read(args: &Args) -> Result<(), String> {
    let input = args.require("--input")?;
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let region = parse_region(args.require("--region")?)?;
    let out = args.require("--output")?;
    let mut pos = 0usize;
    let header = format::read_header(&bytes, &mut pos).map_err(|e| e.to_string())?;
    let opts = parse_store_options(args)?;
    let (n_samples, n_blocks, stats) = if header.scalar_tag == "f64" {
        let store = szlike::SzStore::<f64>::open_with(bytes, opts).map_err(|e| e.to_string())?;
        let field = store.read_region(&region).map_err(|e| e.to_string())?;
        fio::write_raw(&field, out).map_err(|e| format!("writing {out}: {e}"))?;
        (field.len(), store.grid().n_blocks(), store.stats())
    } else {
        let store = szlike::SzStore::<f32>::open_with(bytes, opts).map_err(|e| e.to_string())?;
        let field = store.read_region(&region).map_err(|e| e.to_string())?;
        fio::write_raw(&field, out).map_err(|e| format!("writing {out}: {e}"))?;
        (field.len(), store.grid().n_blocks(), store.stats())
    };
    println!(
        "read {n_samples} samples by decoding {} of {n_blocks} blocks ({} bytes decoded for {} served)",
        stats.blocks_decoded, stats.bytes_decoded, stats.bytes_served,
    );
    Ok(())
}
