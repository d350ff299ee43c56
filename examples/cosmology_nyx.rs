//! Cosmology scenario: NYX-like fields span ten orders of magnitude
//! (log-normal densities), which is where the *pointwise-relative* mode
//! complements fixed-PSNR. Compares three error-control strategies on the
//! baryon-density field:
//!
//! 1. fixed-PSNR (the paper's contribution) — controls aggregate quality,
//! 2. value-range-relative — what fixed-PSNR derives internally,
//! 3. pointwise-relative (log transform) — preserves *every* sample to a
//!    multiplicative factor, which a density field needs for halo finding.
//!
//! ```text
//! cargo run --release --example cosmology_nyx
//! ```

use fixed_psnr::data::{DatasetId, Resolution};
use fixed_psnr::prelude::*;
use fixed_psnr::sz;

fn main() {
    let snapshot = fixed_psnr::data::generate(DatasetId::Nyx, Resolution::Small, 42);
    let density = &snapshot
        .iter()
        .find(|nf| nf.name == "baryon_density")
        .expect("baryon_density exists")
        .data;
    let stats = density.stats();
    println!(
        "baryon density: {} samples, dynamic range {:.1e}x",
        density.len(),
        stats.max / stats.min
    );

    // Strategy 1: fixed-PSNR at 80 dB.
    let run = compress_fixed_psnr(density, 80.0, &FixedPsnrOptions::default()).expect("compress");
    println!(
        "\n[fixed-PSNR 80 dB]    achieved {:.2} dB, ratio {:.1}",
        run.outcome.achieved_psnr,
        run.rate.ratio()
    );
    let back: Field<f32> = sz::decompress(&run.bytes).expect("decompress");
    let pw = PointwiseError::between(density, &back);
    println!(
        "                      but max pointwise-relative error is {:.1}% — \
         voids are distorted",
        pw.max_rel * 100.0
    );

    // Strategy 2: the equivalent value-range-relative bound, spelled out.
    let ebrel = ebrel_for_psnr(80.0);
    let cfg = SzConfig::new(ErrorBound::ValueRangeRel(ebrel));
    let bytes = sz::compress(density, &cfg).expect("compress");
    println!(
        "[rel {ebrel:.2e}]     identical pipeline fixed-PSNR drives: {} bytes",
        bytes.len()
    );

    // Strategy 3: pointwise-relative via the log transform.
    let cfg = SzConfig::new(ErrorBound::PointwiseRel(1e-2));
    let bytes = sz::compress(density, &cfg).expect("compress");
    let back: Field<f32> = sz::decompress(&bytes).expect("decompress");
    let pw = PointwiseError::between(density, &back);
    let d = Distortion::between(density, &back);
    println!(
        "[pointwise-rel 1%]    max pointwise-relative error {:.3}% on every sample \
         (PSNR {:.1} dB, ratio {:.1})",
        pw.max_rel * 100.0,
        d.psnr(),
        density.len() as f64 * 4.0 / bytes.len() as f64
    );
    assert!(pw.max_rel <= 0.0101, "pointwise bound violated");

    println!(
        "\ntakeaway: fixed-PSNR controls the aggregate (visual/statistical) quality in\n\
         one pass; for multiplicative per-sample guarantees on log-normal data, use\n\
         the pointwise-relative mode instead — both ship in this library."
    );
}
