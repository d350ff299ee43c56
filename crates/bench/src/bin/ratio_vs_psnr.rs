//! Rate–distortion context: compression ratio and bit rate as functions of
//! the user-set PSNR, per data set — the trade-off a user of the
//! fixed-PSNR mode is navigating.
//!
//! ```text
//! cargo run --release -p fpsnr-bench --bin ratio_vs_psnr
//! ```

use datagen::DatasetId;
use fpsnr_bench::{
    dataset_fields, resolution_from_env, seed_from_env, threads_from_env, TABLE2_TARGETS,
};
use fpsnr_core::batch::run_batch;
use fpsnr_core::fixed_psnr::FixedPsnrOptions;

fn main() {
    let res = resolution_from_env();
    let seed = seed_from_env();
    let threads = threads_from_env();
    println!("RATE vs TARGET PSNR ({res:?}, seed {seed})");
    println!();
    println!(
        "{:>8} | {:>10} {:>9} | {:>10} {:>9} | {:>10} {:>9}",
        "target", "NYX ratio", "bits/val", "ATM ratio", "bits/val", "Hur ratio", "bits/val"
    );
    println!("{}", "-".repeat(72));

    let datasets: Vec<_> = DatasetId::ALL
        .iter()
        .map(|&id| (id, dataset_fields(id, res, seed)))
        .collect();
    let mut prev: Option<Vec<f64>> = None;
    let mut monotone = true;
    for &target in &TABLE2_TARGETS {
        let mut row = Vec::new();
        print!("{target:>8.0}");
        for (_, fields) in &datasets {
            let outcomes = run_batch(fields, target, &FixedPsnrOptions::default(), threads);
            // Aggregate ratio over the snapshot: harmonic-style combine via
            // total bytes would need sizes; mean of per-field ratios is the
            // headline number papers quote.
            let mean_ratio: f64 =
                outcomes.iter().map(|o| o.ratio).sum::<f64>() / outcomes.len().max(1) as f64;
            let bits = 32.0 / mean_ratio;
            row.push(mean_ratio);
            print!(" | {mean_ratio:>10.2} {bits:>9.3}");
        }
        println!();
        if let Some(p) = &prev {
            if row.iter().zip(p).any(|(now, before)| now > before) {
                monotone = false;
            }
        }
        prev = Some(row);
    }
    println!();
    println!(
        "shape check: ratio decreases monotonically as the PSNR demand grows -> {}",
        if monotone { "HOLDS" } else { "VIOLATED" }
    );
}
