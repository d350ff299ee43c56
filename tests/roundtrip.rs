//! Cross-crate roundtrip integration: every field of every synthetic data
//! set, through every error-control mode, honours its contract.

use fixed_psnr::data::{generate, DatasetId, Resolution};
use fixed_psnr::prelude::*;
use fixed_psnr::sz;

fn roundtrip_bound(field: &Field<f32>, cfg: &SzConfig, eb_abs: f64) {
    let bytes = sz::compress(field, cfg).expect("compress");
    let back: Field<f32> = sz::decompress(&bytes).expect("decompress");
    assert_eq!(back.shape(), field.shape());
    let pw = PointwiseError::between(field, &back);
    assert!(
        pw.respects_abs_bound(eb_abs),
        "max abs err {} > bound {eb_abs}",
        pw.max_abs
    );
}

#[test]
fn every_dataset_field_roundtrips_under_abs_bound() {
    for id in DatasetId::ALL {
        for nf in generate(id, Resolution::Small, 11) {
            let vr = nf.data.value_range();
            if vr == 0.0 {
                continue;
            }
            let eb = vr * 1e-4;
            let cfg = SzConfig::new(ErrorBound::Abs(eb));
            roundtrip_bound(&nf.data, &cfg, eb);
        }
    }
}

#[test]
fn every_dataset_field_roundtrips_under_rel_bound() {
    for id in DatasetId::ALL {
        for nf in generate(id, Resolution::Small, 12) {
            let vr = nf.data.value_range();
            if vr == 0.0 {
                continue;
            }
            let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-3));
            roundtrip_bound(&nf.data, &cfg, 1e-3 * vr);
        }
    }
}

#[test]
fn auto_intervals_also_respects_bounds_on_all_datasets() {
    for id in DatasetId::ALL {
        for nf in generate(id, Resolution::Small, 13).into_iter().step_by(3) {
            let vr = nf.data.value_range();
            if vr == 0.0 {
                continue;
            }
            let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-3)).with_auto_intervals(true);
            roundtrip_bound(&nf.data, &cfg, 1e-3 * vr);
        }
    }
}

#[test]
fn transform_codec_roundtrips_all_datasets_within_l2_budget() {
    use fixed_psnr::transform::{transform_compress, transform_decompress, TransformConfig};
    for id in DatasetId::ALL {
        for nf in generate(id, Resolution::Small, 14).into_iter().step_by(4) {
            let vr = nf.data.value_range();
            if vr == 0.0 {
                continue;
            }
            let eb = vr * 1e-3;
            let cfg = TransformConfig::new(ErrorBound::Abs(eb));
            let bytes = transform_compress(&nf.data, &cfg).expect("compress");
            let back: Field<f32> = transform_decompress(&bytes).expect("decompress");
            let d = Distortion::between(&nf.data, &back);
            // Coefficient errors are <= eb each, so RMSE <= eb.
            assert!(
                d.rmse() <= eb * (1.0 + 1e-9),
                "{}/{}: rmse {} > eb {eb}",
                id.name(),
                nf.name,
                d.rmse()
            );
        }
    }
}

#[test]
fn pointwise_rel_mode_bounds_every_sample_on_nyx() {
    // The log-transform mode matters most for log-normal density fields.
    for nf in generate(DatasetId::Nyx, Resolution::Small, 15) {
        let cfg = SzConfig::new(ErrorBound::PointwiseRel(1e-2));
        let bytes = sz::compress(&nf.data, &cfg).expect("compress");
        let back: Field<f32> = sz::decompress(&bytes).expect("decompress");
        for (&x, &y) in nf.data.as_slice().iter().zip(back.as_slice()) {
            let tol = 1e-2 * x.abs() as f64 * (1.0 + 1e-5) + 1e-30;
            assert!(((x - y).abs() as f64) <= tol, "{}: x={x} y={y}", nf.name);
        }
    }
}

#[test]
fn compressed_sizes_are_sane() {
    // Smooth scientific data at 1e-3 should compress well below raw size.
    let fields = generate(DatasetId::Atm, Resolution::Small, 16);
    let mut raw = 0usize;
    let mut compressed = 0usize;
    for nf in &fields {
        let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-3)).with_auto_intervals(true);
        let bytes = sz::compress(&nf.data, &cfg).expect("compress");
        raw += nf.data.len() * 4;
        compressed += bytes.len();
    }
    let ratio = raw as f64 / compressed as f64;
    assert!(ratio > 5.0, "snapshot ratio only {ratio:.2}");
}
