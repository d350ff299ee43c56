//! The error-control design space of §II-B, measured: what each "fixed-X"
//! mode actually pins down and what it lets float.
//!
//! - **fixed-accuracy** (SZ abs / ZFP accuracy): pointwise error exact,
//!   rate and PSNR float;
//! - **fixed-rate** (ZFP, embedded coding): compressed size exact, PSNR
//!   and pointwise error float;
//! - **fixed-precision** (ZFP): kept bit planes exact, everything else
//!   floats;
//! - **fixed-PSNR** (the paper): PSNR exact (±model error), rate floats.
//!
//! ```text
//! cargo run --release -p fpsnr-bench --bin mode_space
//! ```

use datagen::{DatasetId, Resolution};
use fpsnr_bench::{dataset_fields, seed_from_env};
use fpsnr_core::fixed_psnr::{compress_fixed_psnr, FixedPsnrOptions};
use fpsnr_metrics::{Distortion, PointwiseError};
use fpsnr_transform::{embedded_compress, embedded_decompress, EmbeddedConfig};
use ndfield::Field;
use szlike::{ErrorBound, SzConfig};

fn measure(field: &Field<f32>, back: &Field<f32>, bytes: usize) -> (f64, f64, f64) {
    let d = Distortion::between(field, back);
    let p = PointwiseError::between(field, back);
    (
        field.len() as f64 * 4.0 / bytes as f64,
        d.psnr(),
        p.max_range_rel,
    )
}

fn main() {
    let seed = seed_from_env();
    let atm = dataset_fields(DatasetId::Atm, Resolution::Default, seed);
    let field = &atm.iter().find(|f| f.0 == "TS").unwrap().1;
    println!("MODE SPACE on ATM/TS ({}):", field.shape());
    println!(
        "{:<34} {:>8} {:>9} {:>12}",
        "mode", "ratio", "PSNR dB", "max rel err"
    );
    println!("{}", "-".repeat(68));

    // fixed-accuracy sweep: error bound pinned, rate/PSNR float.
    for ebrel in [1e-2, 1e-3, 1e-4] {
        let cfg = SzConfig::new(ErrorBound::ValueRangeRel(ebrel)).with_auto_intervals(true);
        let bytes = szlike::compress(field, &cfg).expect("compress");
        let back: Field<f32> = szlike::decompress(&bytes).expect("decompress");
        let (ratio, psnr, maxrel) = measure(field, &back, bytes.len());
        println!(
            "{:<34} {ratio:>8.2} {psnr:>9.2} {maxrel:>12.3e}  <- bound pinned",
            format!("fixed-accuracy eb_rel={ebrel:.0e}")
        );
    }

    // fixed-rate sweep: size pinned exactly, PSNR floats.
    for bpv in [2.0f64, 4.0, 8.0] {
        let cfg = EmbeddedConfig::fixed_rate(bpv);
        let bytes = embedded_compress(field, &cfg).expect("compress");
        let back: Field<f32> = embedded_decompress(&bytes).expect("decompress");
        let (ratio, psnr, maxrel) = measure(field, &back, bytes.len());
        println!(
            "{:<34} {ratio:>8.2} {psnr:>9.2} {maxrel:>12.3e}  <- size pinned ({:.2} bits/val)",
            format!("fixed-rate {bpv} bits/value"),
            bytes.len() as f64 * 8.0 / field.len() as f64
        );
    }

    // fixed-precision sweep.
    for planes in [8u32, 16, 24] {
        let cfg = EmbeddedConfig::fixed_precision(planes);
        let bytes = embedded_compress(field, &cfg).expect("compress");
        let back: Field<f32> = embedded_decompress(&bytes).expect("decompress");
        let (ratio, psnr, maxrel) = measure(field, &back, bytes.len());
        println!(
            "{:<34} {ratio:>8.2} {psnr:>9.2} {maxrel:>12.3e}  <- planes pinned",
            format!("fixed-precision {planes} planes")
        );
    }

    // fixed-PSNR sweep: PSNR pinned, rate floats.
    for target in [40.0f64, 60.0, 80.0] {
        let run =
            compress_fixed_psnr(field, target, &FixedPsnrOptions::default()).expect("compress");
        let back: Field<f32> = szlike::decompress(&run.bytes).expect("decompress");
        let (ratio, psnr, maxrel) = measure(field, &back, run.bytes.len());
        println!(
            "{:<34} {ratio:>8.2} {psnr:>9.2} {maxrel:>12.3e}  <- PSNR pinned (target {target})",
            format!("fixed-PSNR {target} dB (paper)")
        );
    }
    println!(
        "\nthe paper's claim in one table: before fixed-PSNR, pinning the column users\n\
         actually care about (PSNR) required iterating the fixed-accuracy rows."
    );
}
