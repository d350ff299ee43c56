//! The motivation experiment (§I): fixed-PSNR one-shot compression versus
//! the pre-paper baseline of re-running the compressor with bisected error
//! bounds until the PSNR lands.
//!
//! Reports, per data set and target: compressor invocations and wall time
//! for both strategies, and the PSNR each delivered. The run is armed with
//! `fpsnr-obs`, so after the comparison table it prints the instrumented
//! per-stage breakdown of where each strategy spent its time (the Eq. 8
//! derivation span versus the repeated `search.probe` cycles).
//!
//! ```text
//! cargo run --release -p fpsnr-bench --bin search_vs_fixed
//! FPSNR_PROFILE=json cargo run --release -p fpsnr-bench --bin search_vs_fixed
//! ```

use datagen::DatasetId;
use fpsnr_bench::{dataset_fields, resolution_from_env, seed_from_env};
use fpsnr_core::fixed_psnr::{compress_fixed_psnr, FixedPsnrOptions};
use fpsnr_core::search::search_to_target_psnr;
use std::time::Instant;

fn main() {
    let res = resolution_from_env();
    let seed = seed_from_env();
    let tolerance_db = 3.0;
    fpsnr_obs::enable();
    println!("SEARCH vs FIXED-PSNR ({res:?}, tolerance +{tolerance_db} dB, 2 fields per data set)");
    println!();
    println!(
        "{:<10} {:<20} {:>6} | {:>8} {:>8} {:>9} | {:>8} {:>8} {:>9} | {:>7}",
        "dataset",
        "field",
        "target",
        "fix PSNR",
        "fix inv",
        "fix ms",
        "srch PSNR",
        "srch inv",
        "srch ms",
        "speedup"
    );
    println!("{}", "-".repeat(118));

    let mut total_fixed_inv = 0usize;
    let mut total_search_inv = 0usize;
    for id in DatasetId::ALL {
        let fields = dataset_fields(id, res, seed);
        for (name, field) in fields.iter().take(2) {
            for target in [40.0, 80.0] {
                let t0 = Instant::now();
                let Ok(fixed) = compress_fixed_psnr(field, target, &FixedPsnrOptions::default())
                else {
                    continue;
                };
                let fixed_ms = t0.elapsed().as_secs_f64() * 1e3;

                let t1 = Instant::now();
                let search =
                    search_to_target_psnr(field, target, tolerance_db, 30).expect("search");
                let search_ms = t1.elapsed().as_secs_f64() * 1e3;

                total_fixed_inv += 1;
                total_search_inv += search.invocations;
                println!(
                    "{:<10} {:<20} {:>6.0} | {:>8.2} {:>8} {:>9.1} | {:>8.2} {:>8} {:>9.1} | {:>6.1}x",
                    id.name(),
                    name,
                    target,
                    fixed.outcome.achieved_psnr,
                    1,
                    fixed_ms,
                    search.achieved_psnr,
                    search.invocations,
                    search_ms,
                    search_ms / fixed_ms.max(1e-9)
                );
            }
        }
    }
    println!();
    println!(
        "totals: fixed-PSNR used {total_fixed_inv} compressor invocations; the search\n\
         baseline used {total_search_inv} ({:.1}x more) — the cost Eq. 8 removes,\n\
         multiplied across the 100+ fields of a production snapshot (paper §I).",
        total_search_inv as f64 / total_fixed_inv.max(1) as f64
    );

    fpsnr_obs::disable();
    let report = fpsnr_obs::snapshot();
    println!();
    println!("instrumented overhead (fpsnr-obs spans across the whole run):");
    let total_of = |path: &str| report.span(path).map_or(0, |s| s.total_ns);
    let fixed_ns = total_of("fpsnr.compress");
    let derive_ns = total_of("fpsnr.compress/fpsnr.derive");
    let search_ns = total_of("search.run");
    let probe = report.span("search.run/search.probe");
    println!(
        "  fixed-PSNR   : {:>10.1} ms total, of which Eq. 8 derivation {:>8.3} ms ({:.4}%)",
        fixed_ns as f64 / 1e6,
        derive_ns as f64 / 1e6,
        100.0 * derive_ns as f64 / fixed_ns.max(1) as f64
    );
    match probe {
        Some(p) => println!(
            "  search       : {:>10.1} ms total across {} probes (each a full \
             compress+decompress+measure cycle, mean {:.1} ms)",
            search_ns as f64 / 1e6,
            p.count,
            p.total_ns as f64 / 1e6 / p.count.max(1) as f64
        ),
        None => println!("  search       : {:>10.1} ms total", search_ns as f64 / 1e6),
    }
    println!(
        "  invocations  : fixed {} vs search {} (counters fpsnr.invocations / search.invocations)",
        report.counter("fpsnr.invocations").unwrap_or(0),
        report.counter("search.invocations").unwrap_or(0)
    );
    if std::env::var("FPSNR_PROFILE").as_deref() == Ok("json") {
        println!();
        println!("{}", report.to_json());
    }
}
