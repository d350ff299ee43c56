//! Regenerates **Table II** — AVG/STDEV of achieved PSNR on the NYX, ATM
//! and Hurricane data sets for user-set PSNRs 20…120 dB — side by side with
//! the paper's reported values.
//!
//! ```text
//! cargo run --release -p fpsnr-bench --bin table2
//! FPSNR_RES=small cargo run -p fpsnr-bench --bin table2   # quick pass
//! ```

use datagen::DatasetId;
use fpsnr_bench::{
    dataset_fields, resolution_from_env, seed_from_env, threads_from_env, PAPER_TABLE2,
    TABLE2_TARGETS,
};
use fpsnr_core::batch::run_batch_summary;
use fpsnr_core::fixed_psnr::FixedPsnrOptions;
use fpsnr_metrics::summary::DatasetSummary;

fn main() {
    let res = resolution_from_env();
    let seed = seed_from_env();
    let threads = threads_from_env();
    let opts = FixedPsnrOptions::default();

    println!("TABLE II: fixed-PSNR accuracy on NYX / ATM / Hurricane ({res:?}, seed {seed})");
    println!();
    let datasets: Vec<(DatasetId, Vec<(String, ndfield::Field<f32>)>)> = DatasetId::ALL
        .iter()
        .map(|&id| (id, dataset_fields(id, res, seed)))
        .collect();

    println!(
        "{:>8} | {:^21} | {:^21} | {:^21}",
        "User-set", "NYX", "ATM", "Hurricane"
    );
    println!(
        "{:>8} | {:>6} {:>6} {:>7} | {:>6} {:>6} {:>7} | {:>6} {:>6} {:>7}",
        "PSNR", "AVG", "STDEV", "meet%", "AVG", "STDEV", "meet%", "AVG", "STDEV", "meet%"
    );
    println!("{}", "-".repeat(84));

    let mut all_rows: Vec<(f64, Vec<DatasetSummary>)> = Vec::new();
    for &target in &TABLE2_TARGETS {
        let mut row: Vec<DatasetSummary> = Vec::new();
        for (id, fields) in &datasets {
            let (_, summary) = run_batch_summary(id.name(), fields, target, &opts, threads);
            row.push(summary);
        }
        print!("{target:>8.0}");
        for s in &row {
            print!(
                " | {:>6.1} {:>6.2} {:>6.1}%",
                s.avg,
                s.stdev,
                s.meet_rate * 100.0
            );
        }
        println!();
        all_rows.push((target, row));
    }

    println!();
    println!("Paper-reported Table II for reference:");
    println!(
        "{:>8} | {:>6} {:>6} | {:>6} {:>6} | {:>6} {:>6}",
        "PSNR", "NYX", "", "ATM", "", "Hurr", ""
    );
    for (target, cols) in PAPER_TABLE2 {
        print!("{target:>8.0}");
        for (avg, stdev) in cols {
            print!(" | {avg:>6.1} {stdev:>6.2}");
        }
        println!();
    }

    println!();
    println!("Shape checks (paper §V):");
    let dev_at = |rows: &[(f64, Vec<DatasetSummary>)], t: f64| -> f64 {
        rows.iter()
            .find(|(target, _)| *target == t)
            .map(|(_, row)| row.iter().map(|s| (s.avg - t).abs()).sum::<f64>() / row.len() as f64)
            .unwrap_or(f64::NAN)
    };
    let low = dev_at(&all_rows, 20.0);
    let high = dev_at(&all_rows, 120.0);
    println!(
        "  1. average |deviation| at 20 dB = {low:.2} dB vs at 120 dB = {high:.2} dB \
         (paper: deviation shrinks as the target grows) -> {}",
        if high < low { "HOLDS" } else { "VIOLATED" }
    );
    let within = all_rows
        .iter()
        .filter(|(t, _)| *t >= 40.0)
        .all(|(t, row)| row.iter().all(|s| (s.avg - t).abs() <= 6.0));
    println!(
        "  2. every AVG within the paper's 0.1-5.0 dB band at 40+ dB targets \
         (6 dB slack) -> {}",
        if within { "HOLDS" } else { "VIOLATED" }
    );
    if let Some((_, row20)) = all_rows.iter().find(|(t, _)| *t == 20.0) {
        let devs: Vec<String> = row20
            .iter()
            .map(|s| format!("{:+.1}", s.avg - 20.0))
            .collect();
        println!(
            "     (20 dB row overshoots by {devs:?} dB — same direction as the paper's \
             +4.3/+1.9/+5.0, amplified by the scaled grids; see EXPERIMENTS.md)"
        );
    }
    // The paper's >90% claim is specifically about the ATM fields at the
    // Fig. 2 targets (40/80/120 dB), not all data sets at all targets.
    let atm_meets = all_rows
        .iter()
        .filter(|(t, _)| [40.0, 80.0, 120.0].contains(t))
        .filter_map(|(_, row)| row.iter().find(|s| s.dataset == "ATM"))
        .map(|s| s.meet_rate)
        .collect::<Vec<_>>();
    let ok = atm_meets.iter().all(|&m| m >= 0.9);
    println!(
        "  3. >=90% of ATM fields meet the demand at 40/80/120 dB (Fig. 2 claim): {:?} -> {}",
        atm_meets
            .iter()
            .map(|m| format!("{:.0}%", m * 100.0))
            .collect::<Vec<_>>(),
        if ok { "HOLDS" } else { "VIOLATED" }
    );
}
