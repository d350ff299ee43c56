//! Hurricane post-analysis scenario: different variables need different
//! fidelity. Velocity fields feed a vorticity analysis (high PSNR);
//! hydrometeors feed visualization (lower PSNR is fine). Shows mixing
//! fixed-PSNR targets per variable group and validating a derived quantity
//! (vertical vorticity) after decompression.
//!
//! ```text
//! cargo run --release --example hurricane_analysis
//! ```

use fixed_psnr::data::{DatasetId, Resolution};
use fixed_psnr::prelude::*;
use fixed_psnr::sz;

/// Mean absolute vertical vorticity dv/dx − du/dy at the surface level.
fn surface_vorticity(u: &Field<f32>, v: &Field<f32>) -> f64 {
    let Shape::D3(_, d1, d2) = u.shape() else {
        panic!("expected 3-D wind fields")
    };
    let mut acc = 0.0f64;
    let mut n = 0usize;
    for j in 1..d1 {
        for k in 1..d2 {
            let dvdx = (v.get(&[0, j, k]) - v.get(&[0, j, k - 1])) as f64;
            let dudy = (u.get(&[0, j, k]) - u.get(&[0, j - 1, k])) as f64;
            acc += (dvdx - dudy).abs();
            n += 1;
        }
    }
    acc / n as f64
}

fn main() {
    let snapshot = fixed_psnr::data::generate(DatasetId::Hurricane, Resolution::Small, 7);
    let by_name = |name: &str| -> Field<f32> {
        snapshot
            .iter()
            .find(|nf| nf.name == name)
            .expect("field exists")
            .data
            .clone()
    };
    let u = by_name("U");
    let v = by_name("V");

    // Per-group targets: dynamics at 100 dB, moisture at 60 dB.
    let groups: [(&str, f64, &[&str]); 2] = [
        ("dynamics", 100.0, &["U", "V", "W", "P", "TC"]),
        (
            "moisture",
            60.0,
            &[
                "QVAPOR", "QCLOUD", "QRAIN", "QICE", "QSNOW", "QGRAUP", "CLOUD", "PRECIP",
            ],
        ),
    ];

    let mut total_in = 0usize;
    let mut total_out = 0usize;
    for (group, target, names) in groups {
        println!("group '{group}' at {target} dB:");
        for name in names {
            let field = by_name(name);
            let run = compress_fixed_psnr(&field, target, &FixedPsnrOptions::default())
                .expect("finite field");
            total_in += field.len() * 4;
            total_out += run.bytes.len();
            println!(
                "  {:<8} achieved {:>7.2} dB, ratio {:>6.1}",
                name,
                run.outcome.achieved_psnr,
                run.rate.ratio()
            );
        }
    }
    println!(
        "\nmixed-fidelity snapshot: {:.1} MiB -> {:.2} MiB (overall ratio {:.1})",
        total_in as f64 / (1024.0 * 1024.0),
        total_out as f64 / (1024.0 * 1024.0),
        total_in as f64 / total_out as f64
    );

    // Validate the derived quantity survives 100 dB compression.
    let ru: Field<f32> = sz::decompress(
        &compress_fixed_psnr(&u, 100.0, &FixedPsnrOptions::default())
            .expect("compress U")
            .bytes,
    )
    .expect("decompress U");
    let rv: Field<f32> = sz::decompress(
        &compress_fixed_psnr(&v, 100.0, &FixedPsnrOptions::default())
            .expect("compress V")
            .bytes,
    )
    .expect("decompress V");
    let before = surface_vorticity(&u, &v);
    let after = surface_vorticity(&ru, &rv);
    let rel = ((after - before) / before).abs();
    println!(
        "\nsurface |vorticity|: original {before:.5}, after 100 dB compression {after:.5} \
         (relative change {:.3e})",
        rel
    );
    assert!(rel < 0.01, "vorticity drifted by {rel}");
    println!("OK — derived analysis preserved at the chosen fidelity");
}
