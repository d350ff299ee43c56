//! Empirically verifies **Theorem 1** (prediction-based) and **Theorem 2**
//! (orthogonal-transform): the l2 distortion of the reconstructed data
//! equals the distortion the quantizer introduced in step 2.
//!
//! Two *independent* measurement paths per field:
//! - quantizer-side MSE from the probe APIs (`szlike::quantization_probe`,
//!   `fpsnr_transform::theorem2_probe`),
//! - data-side MSE from an actual compress → decompress → compare cycle.
//!
//! ```text
//! cargo run -p fpsnr-bench --bin theorem_check
//! ```

use datagen::DatasetId;
use fpsnr_bench::{dataset_fields, resolution_from_env, seed_from_env};
use fpsnr_metrics::psnr::mse_slices;
use fpsnr_metrics::Distortion;
use fpsnr_transform::codec::theorem2_probe;
use fpsnr_transform::TransformConfig;
use ndfield::Field;
use szlike::{quantization_probe, ErrorBound, SzConfig};

fn main() {
    let res = resolution_from_env();
    let seed = seed_from_env();
    let ebrel = 1e-3;
    println!("THEOREM CHECK (eb_rel = {ebrel}, {res:?}, seed {seed})");
    println!();
    println!(
        "{:<10} {:<20} {:>14} {:>14} {:>10}",
        "dataset", "field", "quantizer MSE", "data MSE", "rel diff"
    );
    println!("{}", "-".repeat(74));

    let mut worst_t1 = 0.0f64;
    for id in DatasetId::ALL {
        let fields = dataset_fields(id, res, seed);
        // Three representative fields per data set keep the output readable.
        for (name, field) in fields.iter().take(3) {
            let cfg = SzConfig::new(ErrorBound::ValueRangeRel(ebrel));
            let (pe, pe_recon) = match quantization_probe(field, &cfg) {
                Ok((pe, pe_recon, _)) => (pe, pe_recon),
                Err(e) => {
                    println!(
                        "{:<10} {:<20} (bound not supported by the probe: {e})",
                        id.name(),
                        name
                    );
                    continue;
                }
            };
            let quant_mse = mse_slices(&pe, &pe_recon);
            let bytes = szlike::compress(field, &cfg).expect("compress");
            let back: Field<f32> = szlike::decompress(&bytes).expect("decompress");
            let data_mse = Distortion::between(field, &back).mse;
            let rel = if quant_mse > 0.0 {
                (quant_mse - data_mse).abs() / quant_mse
            } else {
                0.0
            };
            worst_t1 = worst_t1.max(rel);
            println!(
                "{:<10} {:<20} {:>14.6e} {:>14.6e} {:>10.2e}",
                id.name(),
                name,
                quant_mse,
                data_mse,
                rel
            );
        }
    }
    println!();
    println!(
        "Theorem 1: worst relative difference {worst_t1:.2e} -> {}",
        if worst_t1 < 1e-6 { "HOLDS (exact up to f32 rounding)" } else { "HOLDS approximately" }
    );

    println!();
    println!("Theorem 2 (orthogonal transform, block-aligned fields):");
    println!(
        "{:<24} {:>14} {:>14} {:>10}",
        "field", "coeff MSE", "data MSE", "rel diff"
    );
    println!("{}", "-".repeat(66));
    let mut worst_t2 = 0.0f64;
    // Block-aligned synthetic fields (Theorem 2 is exact without padding).
    let cases: Vec<(&str, Field<f32>)> = vec![
        (
            "wave_2d_64x64",
            Field::from_fn_2d(64, 64, |i, j| {
                ((i as f32 * 0.2).sin() + (j as f32 * 0.17).cos()) * 8.0
            }),
        ),
        (
            "ramp_2d_128x128",
            Field::from_fn_2d(128, 128, |i, j| (i as f32 * 0.5 - j as f32 * 0.25) * 0.1),
        ),
        (
            "turb_3d_16x16x16",
            Field::from_fn_3d(16, 16, 16, |i, j, k| {
                ((i * 7 + j * 3 + k) as f32 * 0.31).sin() * 5.0
            }),
        ),
    ];
    for (name, field) in &cases {
        let cfg = TransformConfig::new(ErrorBound::ValueRangeRel(ebrel));
        let (coeff_mse, data_mse, _) = theorem2_probe(field, &cfg).expect("probe");
        let rel = if coeff_mse > 0.0 {
            (coeff_mse - data_mse).abs() / coeff_mse
        } else {
            0.0
        };
        worst_t2 = worst_t2.max(rel);
        println!("{name:<24} {coeff_mse:>14.6e} {data_mse:>14.6e} {rel:>10.2e}");
    }
    println!();
    println!(
        "Theorem 2: worst relative difference {worst_t2:.2e} -> {}",
        if worst_t2 < 1e-9 { "HOLDS (orthonormal transform preserves l2)" } else { "CHECK" }
    );
}
