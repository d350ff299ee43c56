//! Theorem 1 and Theorem 2 as integration tests: two independent
//! measurement paths must agree on the distortion.

use fixed_psnr::data::{generate, DatasetId, Resolution};
use fixed_psnr::metrics::psnr::mse_slices;
use fixed_psnr::prelude::*;
use fixed_psnr::sz;
use fixed_psnr::transform::codec::theorem2_probe;
use fixed_psnr::transform::TransformConfig;

#[test]
fn theorem1_quantizer_distortion_equals_data_distortion() {
    // MSE(Xpe, X̃pe) measured inside the compressor must equal
    // MSE(X, X̃) measured on the decompressed output.
    for id in DatasetId::ALL {
        for nf in generate(id, Resolution::Small, 31).into_iter().step_by(5) {
            if nf.data.value_range() == 0.0 {
                continue;
            }
            let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-3));
            let (pe, pe_recon, _) = sz::quantization_probe(&nf.data, &cfg).expect("probe");
            let quant_mse = mse_slices(&pe, &pe_recon);
            let bytes = sz::compress(&nf.data, &cfg).expect("compress");
            let back: Field<f32> = sz::decompress(&bytes).expect("decompress");
            let data_mse = Distortion::between(&nf.data, &back).mse;
            let rel = if quant_mse > 0.0 {
                (quant_mse - data_mse).abs() / quant_mse
            } else {
                data_mse
            };
            assert!(
                rel < 1e-6,
                "{}/{}: quantizer MSE {quant_mse:e} vs data MSE {data_mse:e}",
                id.name(),
                nf.name
            );
        }
    }
}

#[test]
fn theorem1_identity_is_pointwise() {
    // Stronger than the MSE statement: X − X̃ = Xpe − X̃pe sample by sample,
    // also when the walk runs at the adaptively selected bin count.
    let nf = &generate(DatasetId::Atm, Resolution::Small, 32)[0]; // CLDHGH
    let base = SzConfig::new(ErrorBound::ValueRangeRel(1e-3));
    for cfg in [base, base.with_auto_intervals(true)] {
        let (pe, pe_recon, _) = sz::quantization_probe(&nf.data, &cfg).expect("probe");
        let bytes = sz::compress(&nf.data, &cfg).expect("compress");
        let back: Field<f32> = sz::decompress(&bytes).expect("decompress");
        for (lin, ((&x, &xt), (e, et))) in nf
            .data
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .zip(pe.iter().zip(&pe_recon))
            .enumerate()
        {
            let lhs = x as f64 - xt as f64;
            let rhs = e - et;
            assert!(
                (lhs - rhs).abs() <= 1e-9 * (1.0 + lhs.abs()),
                "auto_intervals {}: sample {lin}: X−X̃ = {lhs} but Xpe−X̃pe = {rhs}",
                cfg.auto_intervals
            );
        }
    }
}

#[test]
fn probe_refuses_the_pointwise_relative_bound() {
    // `compress` runs that bound on ln|x| through the log transform, so a
    // probe of the raw samples would pair errors the container never made.
    let nf = &generate(DatasetId::Atm, Resolution::Small, 32)[0]; // CLDHGH
    let cfg = SzConfig::new(ErrorBound::PointwiseRel(1e-2));
    assert!(sz::compress(&nf.data, &cfg).is_ok());
    assert!(matches!(
        sz::quantization_probe(&nf.data, &cfg),
        Err(sz::SzError::BadBound(_))
    ));
}

#[test]
fn theorem1_holds_per_block_through_the_blocked_container() {
    // The blocked container runs an independent predictor walk per row
    // slab (sharing only the lossless-stage frequency table, which is
    // exact), so Theorem 1 must hold *block by block*: the quantizer
    // distortion of each slab, probed standalone, must equal the data
    // distortion of that slab's samples in the blocked round trip. An
    // absolute bound keeps every block's δ identical to the probe's —
    // a range-relative bound would resolve against the slab's own range.
    let nf = &generate(DatasetId::Atm, Resolution::Small, 34)[2];
    let field = &nf.data;
    let (rows, cols) = match field.shape() {
        Shape::D2(r, c) => (r, c),
        other => panic!("ATM field expected 2-D, got {other:?}"),
    };
    let eb = 1e-3 * field.value_range();
    let block_rows = 16;
    let cfg = SzConfig::new(ErrorBound::Abs(eb))
        .with_threads(2)
        .with_block_rows(block_rows);
    let bytes = sz::compress(field, &cfg).expect("blocked compress");
    let back: Field<f32> = sz::decompress(&bytes).expect("blocked decompress");
    let probe_cfg = SzConfig::new(ErrorBound::Abs(eb));
    let mut blocks = 0;
    for r0 in (0..rows).step_by(block_rows) {
        let nr = block_rows.min(rows - r0);
        let span = r0 * cols..(r0 + nr) * cols;
        let slab = Field::from_vec(Shape::D2(nr, cols), field.as_slice()[span.clone()].to_vec());
        let (pe, pe_recon, _) = sz::quantization_probe(&slab, &probe_cfg).expect("probe");
        let quant_mse = mse_slices(&pe, &pe_recon);
        let data_mse = slab
            .as_slice()
            .iter()
            .zip(&back.as_slice()[span])
            .map(|(&x, &y)| {
                let d = x as f64 - y as f64;
                d * d
            })
            .sum::<f64>()
            / slab.len() as f64;
        let rel = if quant_mse > 0.0 {
            (quant_mse - data_mse).abs() / quant_mse
        } else {
            data_mse
        };
        assert!(
            rel < 1e-6,
            "{} block at row {r0}: quantizer MSE {quant_mse:e} vs data MSE {data_mse:e}",
            nf.name
        );
        blocks += 1;
    }
    assert!(blocks > 1, "partition degenerated to one block");
}

#[test]
fn theorem2_coefficient_mse_equals_data_mse_on_aligned_grids() {
    // 16x16x16 NYX-like grids are 4-aligned, so no padding asymmetry.
    for nf in generate(DatasetId::Nyx, Resolution::Small, 33) {
        if nf.data.value_range() == 0.0 {
            continue;
        }
        let cfg = TransformConfig::new(ErrorBound::ValueRangeRel(1e-3));
        let (coeff_mse, data_mse, n) = theorem2_probe(&nf.data, &cfg).expect("probe");
        assert_eq!(n, nf.data.len(), "padding crept in");
        let rel = if coeff_mse > 0.0 {
            (coeff_mse - data_mse).abs() / coeff_mse
        } else {
            data_mse
        };
        assert!(
            rel < 1e-9,
            "{}: coeff {coeff_mse:e} vs data {data_mse:e}",
            nf.name
        );
    }
}

#[test]
fn eq6_model_tracks_measured_mse_for_wide_error_distributions() {
    // On a textured field whose prediction errors span many bins, the
    // distribution-free model MSE = δ²/12 should match within ~20%.
    let field = Field::from_fn_2d(200, 200, |i, j| {
        ((i as f32 * 0.9).sin() * 7.0 + (j as f32 * 1.1).cos() * 5.0)
            + ((i * j) as f32 * 0.013).sin() * 3.0
    });
    let vr = field.value_range();
    let eb = 1e-3 * vr;
    let cfg = SzConfig::new(ErrorBound::Abs(eb));
    let bytes = fixed_psnr::sz::compress(&field, &cfg).expect("compress");
    let back: Field<f32> = fixed_psnr::sz::decompress(&bytes).expect("decompress");
    let measured = Distortion::between(&field, &back).mse;
    let model = fixed_psnr::core::mse_uniform(2.0 * eb);
    let ratio = measured / model;
    assert!(
        (0.75..=1.25).contains(&ratio),
        "measured/model = {ratio} (measured {measured:e}, model {model:e})"
    );
}

#[test]
fn eq7_predicts_psnr_for_wide_error_distributions() {
    let field = Field::from_fn_3d(20, 24, 28, |i, j, k| {
        ((i * 13 + j * 7 + k * 3) as f32 * 0.37).sin() * 10.0
    });
    let vr = field.value_range();
    let ebrel = 1e-4;
    let cfg = SzConfig::new(ErrorBound::ValueRangeRel(ebrel));
    let bytes = fixed_psnr::sz::compress(&field, &cfg).expect("compress");
    let back: Field<f32> = fixed_psnr::sz::decompress(&bytes).expect("decompress");
    let measured = Distortion::between(&field, &back).psnr();
    let predicted = fixed_psnr::core::psnr_sz_estimate(vr, ebrel * vr);
    assert!(
        (measured - predicted).abs() < 1.5,
        "measured {measured} vs Eq.7 {predicted}"
    );
}
