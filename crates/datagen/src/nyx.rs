//! NYX-like 3-D cosmology fields (6 per snapshot).
//!
//! NYX dumps baryon/dark-matter density, temperature and the three velocity
//! components on a uniform grid. Densities in ΛCDM simulations are well
//! approximated by log-normal transforms of Gaussian random fields with
//! power-law spectra — enormous dynamic range concentrated in filaments —
//! while velocities stay near-Gaussian and smooth. That mix is what gives
//! NYX its Table II behaviour (tight at high PSNR targets, a couple of dB
//! of overshoot at 20 dB).

use crate::grf::grf_3d;
use crate::registry::{DatasetId, DatasetSpec, Resolution};
use crate::{field_seed, NamedField};
use ndfield::{Field, Shape};

/// The six NYX field names.
pub const NAMES: [&str; 6] = [
    "baryon_density",
    "dark_matter_density",
    "temperature",
    "velocity_x",
    "velocity_y",
    "velocity_z",
];

/// Generate the 6 NYX-like fields at a resolution.
///
/// # Panics
/// Panics at `Resolution::Paper` on machines without ~200 GB of RAM — the
/// 2048³ grid is provided for fidelity, the harness uses `Default`.
pub fn fields(res: Resolution, master_seed: u64) -> Vec<NamedField> {
    let Shape::D3(d0, d1, d2) = DatasetSpec::of(DatasetId::Nyx).shape(res) else {
        unreachable!("NYX is 3-D")
    };
    // One matter GRF drives both densities and (loosely) the temperature,
    // mirroring the physical correlation between the real fields.
    let delta = grf_3d(d0, d1, d2, 3.2, field_seed(master_seed, "matter"));
    let delta2 = grf_3d(d0, d1, d2, 3.2, field_seed(master_seed, "matter2"));
    let make = |f: &dyn Fn(usize) -> f64| -> Field<f32> {
        Field::from_fn_linear(Shape::D3(d0, d1, d2), |lin| f(lin) as f32)
    };
    let mean_density = 2.0e-31; // g/cm³-scale like NYX's baryon density
    NAMES
        .iter()
        .map(|&name| {
            let data = match name {
                // Log-normal densities: exp(b·δ), filamentary, huge range.
                "baryon_density" => make(&|lin| mean_density * (1.4 * delta[lin]).exp()),
                "dark_matter_density" => make(&|lin| {
                    5.0 * mean_density * (1.6 * (0.8 * delta[lin] + 0.6 * delta2[lin])).exp()
                }),
                // Temperature: adiabatic coupling T ∝ ρ^{2/3} around 1e4 K.
                "temperature" => make(&|lin| {
                    1.0e4 * ((2.0 / 3.0) * 1.4 * delta[lin]).exp() * (0.3 * delta2[lin]).exp()
                }),
                // Peculiar velocities: smooth GRFs, ~100 km/s in cm/s units.
                "velocity_x" | "velocity_y" | "velocity_z" => {
                    let v = grf_3d(d0, d1, d2, 5.0, field_seed(master_seed, name));
                    Field::from_fn_linear(Shape::D3(d0, d1, d2), |lin| (1.0e7 * v[lin]) as f32)
                }
                other => unreachable!("unknown NYX field {other}"),
            };
            NamedField {
                name: name.to_string(),
                data,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_name(name: &str) -> NamedField {
        fields(Resolution::Small, 17)
            .into_iter()
            .find(|f| f.name == name)
            .unwrap()
    }

    #[test]
    fn six_fields_with_nyx_names() {
        let fs = fields(Resolution::Small, 1);
        assert_eq!(fs.len(), 6);
        for (f, n) in fs.iter().zip(NAMES) {
            assert_eq!(f.name, n);
        }
    }

    #[test]
    fn densities_positive_with_large_dynamic_range() {
        for name in ["baryon_density", "dark_matter_density"] {
            let f = by_name(name);
            let stats = f.data.stats();
            assert!(stats.min > 0.0, "{name} has non-positive density");
            assert!(
                stats.max / stats.min > 20.0,
                "{name} dynamic range too small: {}",
                stats.max / stats.min
            );
        }
    }

    #[test]
    fn temperature_positive_and_correlated_with_density() {
        let t = by_name("temperature");
        let d = by_name("baryon_density");
        assert!(t.data.as_slice().iter().all(|&v| v > 0.0));
        // Pearson correlation of log-values should be clearly positive.
        let lt: Vec<f64> = t.data.as_slice().iter().map(|&v| (v as f64).ln()).collect();
        let ld: Vec<f64> = d.data.as_slice().iter().map(|&v| (v as f64).ln()).collect();
        let n = lt.len() as f64;
        let (mt, md) = (lt.iter().sum::<f64>() / n, ld.iter().sum::<f64>() / n);
        let mut cov = 0.0;
        let mut vt = 0.0;
        let mut vd = 0.0;
        for (a, b) in lt.iter().zip(&ld) {
            cov += (a - mt) * (b - md);
            vt += (a - mt) * (a - mt);
            vd += (b - md) * (b - md);
        }
        let corr = cov / (vt.sqrt() * vd.sqrt());
        assert!(corr > 0.5, "log T / log rho correlation {corr}");
    }

    #[test]
    fn velocities_are_signed_and_distinct() {
        let vx = by_name("velocity_x");
        let vy = by_name("velocity_y");
        let sx = vx.data.stats();
        assert!(sx.min < 0.0 && sx.max > 0.0);
        assert_ne!(vx.data.as_slice(), vy.data.as_slice());
    }

    #[test]
    fn velocity_magnitudes_are_nyx_scale() {
        let v = by_name("velocity_x");
        let stats = v.data.stats();
        // cm/s units: typical |v| between 1e5 and 1e9.
        assert!(stats.max.abs() > 1e5 && stats.max.abs() < 1e9, "{stats:?}");
    }

    #[test]
    fn all_samples_finite() {
        for f in fields(Resolution::Small, 4) {
            assert!(
                f.data.as_slice().iter().all(|v| v.is_finite()),
                "{} non-finite",
                f.name
            );
        }
    }
}
