//! Storage budgeting: compress to a target *ratio* instead of a target
//! quality, and see what quality the budget buys.
//!
//! ```text
//! cargo run --release --example storage_budget
//! ```

use fixed_psnr::prelude::*;
use fixed_psnr::sz;

fn main() {
    // A textured field standing in for one archive variable. (The small
    // product term matters: a separable sum is predicted exactly by the
    // Lorenzo stage and leaves nothing for a rate target to trade.)
    let field = Field::from_fn_2d(256, 320, |i, j| {
        let x = i as f32 * 0.05;
        let y = j as f32 * 0.04;
        18.0 * (x.sin() + y.cos()) + 2.5 * ((3.1 * x).sin() * (2.3 * y).cos())
    });
    let raw_bytes = field.len() * 4;
    println!("raw field: {} samples, {} bytes", field.len(), raw_bytes);
    println!();

    // "The archive must shrink 10x." One pilot walk models the
    // ratio-quality curve, the curve is inverted for the bound, and at
    // most two refinement passes close the residual.
    let run = compress_fixed_ratio(&field, &FixedRatioOptions::new(10.0))
        .expect("finite data compresses");
    println!(
        "target 10x -> achieved {:.2}x in {} pass(es) (eb_rel {:.3e}{})",
        run.achieved_ratio,
        run.passes,
        run.eb_rel,
        if run.within_tolerance {
            ""
        } else {
            ", outside tolerance"
        },
    );

    // What did the budget buy? Decode and measure.
    let back: Field<f32> = sz::decompress(&run.bytes).expect("valid container");
    let quality = Distortion::between(&field, &back).psnr();
    println!("quality bought by the 10x budget: {quality:.2} dB PSNR");
    println!();

    // The same request through the mode front door, tighter budget:
    // every error-control goal is one enum away.
    let (bytes, report) = compress_with_mode(
        &field,
        CompressionMode::FixedRatio(25.0),
        &SzConfig::new(ErrorBound::Abs(1.0)),
    )
    .expect("mode dispatch");
    let back: Field<f32> = sz::decompress(&bytes).expect("valid container");
    println!(
        "target 25x -> {:.2}x ({} compressor invocations), {:.2} dB",
        raw_bytes as f64 / bytes.len() as f64,
        report.invocations,
        Distortion::between(&field, &back).psnr(),
    );
}
