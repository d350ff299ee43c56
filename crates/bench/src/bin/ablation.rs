//! Ablation study over the design choices DESIGN.md calls out: for a fixed
//! distortion target, how do quantization-bin policy, entropy coder,
//! predictor order, lossless backend, transform basis and block size move
//! the compression ratio (and the achieved PSNR, which must stay pinned —
//! all of these knobs are distortion-neutral except the quantizer itself)?
//!
//! ```text
//! cargo run --release -p fpsnr-bench --bin ablation
//! ```

use datagen::{DatasetId, Resolution};
use fpsnr_bench::{dataset_fields, seed_from_env};
use fpsnr_metrics::Distortion;
use fpsnr_transform::{transform_compress, transform_decompress, BasisKind, TransformConfig};
use ndfield::Field;
use szlike::{EntropyCoder, ErrorBound, EscapeCoding, LosslessBackend, PredictorKind, SzConfig};

struct Row {
    name: &'static str,
    bytes: usize,
    psnr: f64,
}

fn run_sz(field: &Field<f32>, name: &'static str, cfg: &SzConfig) -> Row {
    let bytes = szlike::compress(field, cfg).expect("compress");
    let back: Field<f32> = szlike::decompress(&bytes).expect("decompress");
    Row {
        name,
        bytes: bytes.len(),
        psnr: Distortion::between(field, &back).psnr(),
    }
}

fn run_xfm(field: &Field<f32>, name: &'static str, cfg: &TransformConfig) -> Row {
    let bytes = transform_compress(field, cfg).expect("compress");
    let back: Field<f32> = transform_decompress(&bytes).expect("decompress");
    Row {
        name,
        bytes: bytes.len(),
        psnr: Distortion::between(field, &back).psnr(),
    }
}

fn print_rows(field: &Field<f32>, rows: &[Row]) {
    let raw = field.len() * 4;
    for r in rows {
        println!(
            "  {:<34} {:>9} B  ratio {:>6.2}  PSNR {:>7.2} dB",
            r.name,
            r.bytes,
            raw as f64 / r.bytes as f64,
            r.psnr
        );
    }
}

fn main() {
    let seed = seed_from_env();
    // One representative smooth and one spiky field.
    let atm = dataset_fields(DatasetId::Atm, Resolution::Default, seed);
    let cases: Vec<(&str, &Field<f32>)> = vec![
        (
            "TS (smooth 2-D)",
            &atm.iter().find(|f| f.0 == "TS").unwrap().1,
        ),
        (
            "PRECT (sparse 2-D)",
            &atm.iter().find(|f| f.0 == "PRECT").unwrap().1,
        ),
    ];
    let ebrel = 1e-3;

    for (label, field) in cases {
        println!("=== {label}, eb_rel {ebrel} ===");
        let base = SzConfig::new(ErrorBound::ValueRangeRel(ebrel));

        println!("quantization-bin policy:");
        print_rows(
            field,
            &[
                run_sz(field, "fixed 65536 bins (cap)", &base),
                run_sz(field, "fixed 256 bins", &base.with_quant_bins(256)),
                run_sz(
                    field,
                    "adaptive (predThreshold 0.97)",
                    &base.with_auto_intervals(true),
                ),
            ],
        );

        println!("entropy coder:");
        print_rows(
            field,
            &[
                run_sz(field, "canonical Huffman", &base.with_auto_intervals(true)),
                run_sz(
                    field,
                    "adaptive range coder",
                    &base
                        .with_auto_intervals(true)
                        .with_entropy(EntropyCoder::Range),
                ),
            ],
        );

        println!("predictor:");
        print_rows(
            field,
            &[
                run_sz(field, "Lorenzo order 1 (SZ 1.4)", &base),
                run_sz(
                    field,
                    "Lorenzo order 2",
                    &base.with_predictor(PredictorKind::Lorenzo2),
                ),
                run_sz(
                    field,
                    "auto-selected",
                    &base.with_predictor(PredictorKind::Auto),
                ),
            ],
        );

        println!("escape coding (forced-escape setting: 16 bins):");
        let tiny = base.with_quant_bins(16);
        print_rows(
            field,
            &[
                run_sz(field, "exact IEEE escapes", &tiny),
                run_sz(
                    field,
                    "SZ 1.4 truncated escapes",
                    &tiny.with_escape(EscapeCoding::Truncated),
                ),
            ],
        );

        println!("lossless backend:");
        print_rows(
            field,
            &[
                run_sz(field, "LZ77+Huffman (gzip stand-in)", &base),
                run_sz(field, "none", &base.with_lossless(LosslessBackend::None)),
            ],
        );

        println!("transform codec (same bound):");
        let xbase = TransformConfig::new(ErrorBound::ValueRangeRel(ebrel));
        print_rows(
            field,
            &[
                run_xfm(field, "DCT-II, 4-blocks", &xbase),
                run_xfm(field, "DCT-II, 8-blocks", &xbase.with_block(8)),
                run_xfm(field, "Haar, 4-blocks", &xbase.with_basis(BasisKind::Haar)),
            ],
        );
        println!();
    }
    println!(
        "reading guide: the PSNR column must stay (approximately) pinned across all\n\
         rows of a group except the quantizer's own bin-policy group — every other\n\
         stage is lossless, so it may only move the ratio (Theorem 1 in action)."
    );
}
