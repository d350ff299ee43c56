//! Shared plumbing for the experiment binaries (one per paper table or
//! figure, plus the `hotloop` and `bakeoff` gate bins). Speed numbers come
//! from the repository benchmark (`repobench/`), not from this crate.
//!
//! The paper-reproduction binaries honour three environment knobs so the
//! whole evaluation can be re-run at different scales without recompiling:
//!
//! - `FPSNR_RES` — `small` | `default` | `paper` (default: `default`);
//!   grid tier of the synthetic data sets,
//! - `FPSNR_SEED` — master seed (default: 20180713, the paper's arXiv v3
//!   date),
//! - `FPSNR_THREADS` — worker threads for batch runs (default: machine
//!   parallelism).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use datagen::{DatasetId, Resolution};
use ndfield::Field;

/// Resolution tier selected by `FPSNR_RES`.
pub fn resolution_from_env() -> Resolution {
    match std::env::var("FPSNR_RES").as_deref() {
        Ok("small") => Resolution::Small,
        Ok("paper") => Resolution::Paper,
        _ => Resolution::Default,
    }
}

/// Master seed selected by `FPSNR_SEED`.
pub fn seed_from_env() -> u64 {
    std::env::var("FPSNR_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20180713)
}

/// Thread count selected by `FPSNR_THREADS`.
pub fn threads_from_env() -> usize {
    std::env::var("FPSNR_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(fpsnr_parallel::default_threads)
}

/// Generate a data set as `(name, field)` pairs ready for the batch runner.
pub fn dataset_fields(id: DatasetId, res: Resolution, seed: u64) -> Vec<(String, Field<f32>)> {
    datagen::generate(id, res, seed)
        .into_iter()
        .map(|nf| (nf.name, nf.data))
        .collect()
}

/// The paper's Table II reference values: `(user_psnr, [(AVG, STDEV); NYX,
/// ATM, Hurricane])` — printed next to our measurements so the shape
/// comparison is immediate.
pub const PAPER_TABLE2: [(f64, [(f64, f64); 3]); 6] = [
    (20.0, [(24.3, 1.82), (21.9, 3.34), (25.0, 6.52)]),
    (40.0, [(41.9, 2.32), (40.9, 1.80), (42.0, 3.97)]),
    (60.0, [(60.7, 0.74), (60.2, 0.62), (60.5, 0.74)]),
    (80.0, [(80.1, 0.05), (80.1, 0.35), (80.1, 0.32)]),
    (100.0, [(100.1, 0.07), (100.2, 0.17), (100.1, 0.39)]),
    (120.0, [(120.1, 0.01), (120.2, 0.19), (120.3, 0.63)]),
];

/// The user-set PSNR sweep of Table II.
pub const TABLE2_TARGETS: [f64; 6] = [20.0, 40.0, 60.0, 80.0, 100.0, 120.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Without the env vars set the defaults apply (test processes do
        // not set them).
        if std::env::var("FPSNR_SEED").is_err() {
            assert_eq!(seed_from_env(), 20180713);
        }
        assert!(threads_from_env() >= 1);
    }

    #[test]
    fn dataset_fields_named() {
        let fields = dataset_fields(DatasetId::Nyx, Resolution::Small, 1);
        assert_eq!(fields.len(), 6);
        assert_eq!(fields[0].0, "baryon_density");
    }

    #[test]
    fn reference_table_is_monotone_in_target() {
        for w in PAPER_TABLE2.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }
}
