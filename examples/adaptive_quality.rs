//! Rate–distortion navigation: sweep fixed-PSNR targets on one field to
//! pick the cheapest quality that still satisfies an analysis criterion,
//! and compare against the pre-paper bisection baseline.
//!
//! ```text
//! cargo run --release --example adaptive_quality
//! ```

use fixed_psnr::core::search::search_to_target_psnr;
use fixed_psnr::data::atm;
use fixed_psnr::data::Resolution;
use fixed_psnr::prelude::*;

fn main() {
    let field = atm::field_by_name("TS", Resolution::Small, 99)
        .expect("TS exists")
        .data;

    // One-pass sweep: with fixed-PSNR each rung costs exactly one
    // compression, so scanning the rate-distortion curve is cheap.
    println!("fixed-PSNR sweep over targets (one compression per rung):");
    println!(
        "{:>8} {:>10} {:>8} {:>12}",
        "target", "achieved", "ratio", "bits/sample"
    );
    let mut chosen: Option<(f64, f64)> = None;
    for target in [30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0] {
        let run =
            compress_fixed_psnr(&field, target, &FixedPsnrOptions::default()).expect("compress");
        println!(
            "{target:>8.0} {:>10.2} {:>8.1} {:>12.3}",
            run.outcome.achieved_psnr,
            run.rate.ratio(),
            run.rate.bit_rate()
        );
        // Analysis criterion: first rung whose achieved PSNR clears 75 dB.
        if chosen.is_none() && run.outcome.achieved_psnr >= 75.0 {
            chosen = Some((target, run.rate.ratio()));
        }
    }
    let (target, ratio) = chosen.expect("some rung clears 75 dB");
    println!("\ncheapest rung clearing 75 dB: target {target} dB at ratio {ratio:.1}");

    // The pre-paper alternative for ONE quality point: bisection with a
    // full compress+decompress+measure per probe.
    let t0 = std::time::Instant::now();
    let search = search_to_target_psnr(&field, 75.0, 2.0, 30).expect("search");
    println!(
        "\nbaseline bisection to 75 dB: {} compressor invocations, {:.1} ms, \
         achieved {:.2} dB",
        search.invocations,
        t0.elapsed().as_secs_f64() * 1e3,
        search.achieved_psnr
    );
    println!(
        "fixed-PSNR needed exactly 1 invocation for that point — the {}x saving\n\
         the paper's introduction argues for, per field, per snapshot.",
        search.invocations
    );
}
