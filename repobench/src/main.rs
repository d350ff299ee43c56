//! Repository benchmark for the fixed-PSNR codec workspace.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload nyx-psnr100 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs set-up, the output checks and a timed window over the
//! workload's user-facing calls, and reports the end-to-end metrics.
//! `--trace 1` replays each layer's public functions on the same inputs
//! under an in-memory span recorder and reports the per-layer metrics;
//! its spans are written to `repobench/spans/`. The last stdout line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The process exits nonzero when any check or operation failed.
//! `NOTES.md` describes the workloads, the metrics and the noise study.

mod checks;
mod corpus;
mod replay;
mod report;
mod stats;
mod timed;
mod trace;

use corpus::Workload;
use report::Tally;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "repobench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("host {}", report::host_stamp(args.seed));
    let mut tally = Tally::default();
    // Timings are taken with the program's own telemetry disarmed.
    tally.check(!fpsnr_obs::is_enabled(), || "fpsnr-obs is armed".into());

    // Corpus generation is not part of set-up.
    let fields = corpus::fields(w, args.seed);

    let metrics: Vec<(&'static str, f64)> = if args.trace {
        match replay::run(w, &fields, args.seed, args.seconds, &mut tally) {
            Ok(m) => m,
            Err(e) => {
                tally.check(false, || e);
                Vec::new()
            }
        }
    } else {
        match timed::run(w, &fields, args.seed, args.seconds, &mut tally) {
            Ok(e2e) => {
                let m = e2e.metrics(report::peak_rss_mib());
                print_e2e(w, &e2e, &m);
                m
            }
            Err(e) => {
                tally.check(false, || e);
                Vec::new()
            }
        }
    };
    for (name, value) in &metrics {
        tally.check(value.is_finite(), || format!("metric {name} is {value}"));
    }
    for m in tally.messages() {
        eprintln!("repobench: FAILED: {m}");
    }
    if !args.trace {
        println!(
            "fail_rate {} ({} of {} operations)",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            tally.failed,
            tally.attempted
        );
    }
    println!("{}", report::result_line(&tally, &metrics));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Human-readable lines, naming each end-to-end metric by the operation it
/// measures on this workload.
fn print_e2e(w: Workload, e: &timed::E2e, metrics: &[(&'static str, f64)]) {
    let (write, read) = match w {
        Workload::Nyx | Workload::AtmAuto => ("compress_mib_s", "decompress_mib_s"),
        Workload::Grf => ("grid_write_mib_s", "region_read_mib_s"),
    };
    for (name, value) in metrics {
        let alias = match *name {
            "write_mib_s" => write,
            "read_mib_s" => read,
            _ => name,
        };
        println!(
            "{name:<14} {value:>14.4} {:<6} ({alias})",
            report::unit_of(name)
        );
    }
    println!(
        "{:<14} {:>14.4} {:<6} (worst |achieved - target| PSNR; reported per layer as fpsnr.psnr_err_db)",
        "psnr_err_db", e.psnr_err_db, "dB"
    );
    for (q, name) in [(0.5, "read_p50_us"), (0.99, "read_p99_us")] {
        match e.read_percentile_us(q) {
            Some(v) => println!(
                "{name:<14} {v:>14.4} {:<6} (over the reads' quiet latencies)",
                "us"
            ),
            None => println!("{name:<14} {:>14} {:<6} (too few read units)", "-", "us"),
        }
    }
    if w == Workload::Grf {
        println!(
            "store hit rate {:.4}, decode amplification {:.4} per pass of the read sequence",
            e.store_hit_rate, e.store_decode_amp
        );
    }
    println!(
        "timed passes {}; read units {}, each repeated at least {} times; write units {}, at least {}; set-up units {}, at least {}",
        e.passes,
        e.read.units(),
        e.read.min_reps(),
        e.write.units(),
        e.write.min_reps(),
        e.setup.units(),
        e.setup.min_reps(),
    );
}
