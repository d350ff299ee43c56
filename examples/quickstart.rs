//! Quickstart: compress one field to a target PSNR in a single pass.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fixed_psnr::prelude::*;
use fixed_psnr::sz;

fn main() {
    // A smooth 2-D field standing in for one simulation variable.
    let field = Field::from_fn_2d(256, 256, |i, j| {
        let x = i as f32 * 0.04;
        let y = j as f32 * 0.03;
        15.0 * (x.sin() * y.cos()) + 2.0 * (3.0 * x).cos()
    });

    // The paper's three steps: target PSNR -> Eq. 8 bound -> plain SZ.
    let target = 80.0;
    println!(
        "derived eb_rel for {target} dB: {:.6e} (Eq. 8)",
        ebrel_for_psnr(target)
    );

    let run = compress_fixed_psnr(&field, target, &FixedPsnrOptions::default())
        .expect("compression succeeds on finite data");

    println!(
        "compressed {} samples -> {} bytes (ratio {:.1}, {:.2} bits/sample)",
        field.len(),
        run.bytes.len(),
        run.rate.ratio(),
        run.rate.bit_rate()
    );
    println!(
        "target {target} dB -> achieved {:.2} dB (deviation {:+.2} dB)",
        run.outcome.achieved_psnr,
        run.outcome.achieved_psnr - target
    );

    // The container is a regular SZ container; decompress it anywhere.
    let back: Field<f32> = sz::decompress(&run.bytes).expect("valid container");
    let worst = field
        .as_slice()
        .iter()
        .zip(back.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("worst pointwise error: {worst:.3e} (bounded by eb_abs = eb_rel * value range)");

    assert!(run.outcome.achieved_psnr >= target - 1.0);
    println!("OK");
}
