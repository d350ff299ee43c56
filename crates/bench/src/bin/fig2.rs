//! Regenerates **Figure 2** — achieved PSNR for *all 79 ATM fields* at
//! user-set PSNRs of 40, 80 and 120 dB, plus the "more than 90+% of fields
//! meet the demand" claim.
//!
//! ```text
//! cargo run -p fpsnr-bench --bin fig2            # default resolution
//! FPSNR_RES=small cargo run -p fpsnr-bench --bin fig2
//! ```

use datagen::DatasetId;
use fpsnr_bench::{dataset_fields, resolution_from_env, seed_from_env, threads_from_env};
use fpsnr_core::batch::run_batch_summary;
use fpsnr_core::fixed_psnr::FixedPsnrOptions;

fn main() {
    let res = resolution_from_env();
    let seed = seed_from_env();
    let threads = threads_from_env();
    let fields = dataset_fields(DatasetId::Atm, res, seed);
    println!(
        "FIGURE 2: fixed-PSNR on all {} ATM fields ({:?}, seed {seed}, {threads} threads)",
        fields.len(),
        res
    );

    for (panel, target) in [("(a)", 40.0), ("(b)", 80.0), ("(c)", 120.0)] {
        let (outcomes, summary) = run_batch_summary(
            "ATM",
            &fields,
            target,
            &FixedPsnrOptions::default(),
            threads,
        );
        println!();
        println!("--- panel {panel}: user-set PSNR = {target} dB (red dash line of the paper) ---");
        // The paper plots a per-field series; print it four fields per row.
        for chunk in outcomes.chunks(4) {
            let row: Vec<String> = chunk
                .iter()
                .map(|o| format!("{:<10} {:>7.2}", o.field, o.achieved_psnr))
                .collect();
            println!("  {}", row.join(" | "));
        }
        let met = outcomes.iter().filter(|o| o.meets_target()).count();
        println!(
            "  meet-rate (achieved >= target): {met}/{} = {:.1}%   AVG {:.2}  STDEV {:.2}",
            outcomes.len(),
            summary.meet_rate * 100.0,
            summary.avg,
            summary.stdev
        );
        println!("  paper claim at this panel: fields cluster on the target line; >90% meet it");
    }
}
