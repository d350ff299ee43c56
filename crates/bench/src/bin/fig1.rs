//! Regenerates **Figure 1** — the distribution of SZ prediction errors on
//! one ATM field, with the uniform quantization bins overlaid.
//!
//! The paper plots the probability of each prediction-error magnitude and
//! marks the uniform bins `p1, p2, …` of width `δ = 2·eb`. This binary
//! prints the same series: an ASCII rendering for eyeballing plus the raw
//! `(midpoint, fraction)` rows, with the quantization-bin edges marked.
//!
//! ```text
//! cargo run -p fpsnr-bench --bin fig1
//! ```

use datagen::atm;
use fpsnr_bench::{resolution_from_env, seed_from_env};
use fpsnr_metrics::Histogram;
use szlike::{quantization_probe, ErrorBound, SzConfig};

fn main() {
    let res = resolution_from_env();
    let seed = seed_from_env();
    // The paper uses "one ATM data field"; CLDHGH is its example variable.
    let nf = atm::field_by_name("CLDHGH", res, seed).expect("CLDHGH exists");
    // Same setting as the paper's illustration: a value-range-relative
    // bound typical of medium quality.
    let ebrel = 1e-3;
    let cfg = SzConfig::new(ErrorBound::ValueRangeRel(ebrel));
    let (errors, _, eb_abs) = quantization_probe(&nf.data, &cfg).expect("probe");
    let delta = 2.0 * eb_abs;

    // Window the histogram on ±8 quantization bins around zero, like the
    // paper's x-axis.
    let span = 8.0 * delta;
    let hist = Histogram::new(errors.iter().copied(), -span, span, 64);

    println!("FIGURE 1: prediction-error distribution with uniform quantization");
    println!("field CLDHGH ({}), eb_rel {ebrel}, eb_abs {eb_abs:.4e}, bin size 2eb = {delta:.4e}", nf.data.shape());
    println!(
        "samples {} | in-window {} | outside window {}",
        errors.len(),
        hist.total(),
        hist.clipped()
    );
    println!();

    let max_frac = (0..hist.bins()).map(|i| hist.fraction(i)).fold(0.0, f64::max);
    println!("{:>12}  {:>9}  distribution (quantization-bin edges marked '|')", "err/delta", "fraction");
    for i in 0..hist.bins() {
        let mid = hist.midpoint(i);
        let frac = hist.fraction(i);
        let bar_len = if max_frac > 0.0 {
            (frac / max_frac * 56.0).round() as usize
        } else {
            0
        };
        // Mark histogram rows that straddle a quantization bin edge.
        let lo = mid - hist.bin_width() / 2.0;
        let hi = mid + hist.bin_width() / 2.0;
        let crosses_edge = ((lo / delta - 0.5).ceil() - (hi / delta - 0.5).ceil()).abs() > 0.0;
        let marker = if crosses_edge { '|' } else { ' ' };
        println!(
            "{:>12.3} {marker} {:>8.4}  {}",
            mid / delta,
            frac,
            "#".repeat(bar_len)
        );
    }

    // The paper's point: the distribution is peaked and symmetric. Report
    // the two summary statistics that justify the Eq. 6 simplification.
    let n = errors.len() as f64;
    let mean = errors.iter().sum::<f64>() / n;
    let in_center = errors.iter().filter(|e| e.abs() <= delta / 2.0).count();
    println!();
    println!("symmetry check: mean prediction error {mean:.3e} (≈0 for symmetric P)");
    println!(
        "peakedness: {:.1}% of errors fall in the central bin p1 (|e| <= delta/2)",
        100.0 * in_center as f64 / n
    );
    println!(
        "Eq. 6 consequence: with uniform bins the PSNR estimate depends only on\n\
         delta and the value range, not on this distribution's exact shape."
    );
}
