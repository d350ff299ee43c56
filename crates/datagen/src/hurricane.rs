//! Hurricane-Isabel-like 3-D storm fields (13 per snapshot).
//!
//! Field names follow the real Isabel dump (QCLOUD … W). The synthetic
//! storm is a Rankine-style vortex: tangential winds peak on an eyewall
//! radius and decay outward and with altitude; a warm-core temperature
//! anomaly and a central pressure depression sit on top of smooth ambient
//! profiles; hydrometeor fields (QICE, QRAIN, …) are sparse, non-negative
//! and concentrated in the eyewall annulus — the heavy-tailed structure
//! that makes Hurricane the noisiest column of the paper's Table II.

use crate::noise::{fbm_3d, max_octaves};
use crate::registry::{DatasetId, DatasetSpec, Resolution};
use crate::{field_seed, NamedField};
use ndfield::{Field, Shape};

/// The 13 Isabel field names.
pub const NAMES: [&str; 13] = [
    "QCLOUD", "QGRAUP", "QICE", "QRAIN", "QSNOW", "QVAPOR", "CLOUD", "PRECIP", "P", "TC", "U", "V",
    "W",
];

/// Normalised storm geometry at a grid point.
struct Geometry {
    /// Radial distance from the storm centre in eyewall-radius units.
    r: f64,
    /// Azimuthal unit vector (x component).
    tx: f64,
    /// Azimuthal unit vector (y component).
    ty: f64,
    /// Normalised altitude in `[0, 1]`.
    h: f64,
}

fn geometry(i: usize, j: usize, k: usize, d0: usize, d1: usize, d2: usize) -> Geometry {
    // Storm centre offset from the domain centre so edge effects differ by
    // quadrant, like a real track snapshot.
    let cy = 0.55 * d1 as f64;
    let cx = 0.45 * d2 as f64;
    let dy = j as f64 - cy;
    let dx = k as f64 - cx;
    let dist = (dx * dx + dy * dy).sqrt();
    let eyewall = 0.12 * d1.min(d2) as f64;
    let r = dist / eyewall;
    let (tx, ty) = if dist > 1e-9 {
        (-dy / dist, dx / dist) // cyclonic rotation
    } else {
        (0.0, 0.0)
    };
    Geometry {
        r,
        tx,
        ty,
        h: i as f64 / (d0 - 1).max(1) as f64,
    }
}

/// Rankine-like tangential wind profile, peaking at `r = 1`.
#[inline]
fn vortex_speed(r: f64) -> f64 {
    if r <= 0.0 {
        0.0
    } else {
        r * (1.0 - r).exp()
    }
}

fn sample(name: &str, g: &Geometry, u: f64, v: f64, w: f64, du: f64, seed: u64) -> f64 {
    // Octave-capped turbulence: production storm fields are smooth at the
    // sample scale, so the finest texture wavelength spans >= 4 cells.
    let turb = |scale: f64, oct: u32| {
        let oct = oct.min(max_octaves(du * scale, 4.0));
        fbm_3d(u * scale, v * scale, w * scale, seed, oct, 0.55)
    };
    // Eyewall annulus mask for hydrometeors (peaks near r=1, zero far out).
    let annulus = (-((g.r - 1.0) * (g.r - 1.0)) / 0.35).exp();
    let hydrometeor = |altitude_band: f64, width: f64, magnitude: f64| {
        let band = (-(g.h - altitude_band) * (g.h - altitude_band) / width).exp();
        let cells = (turb(3.0, 5) - 0.15).max(0.0);
        magnitude * annulus * band * cells * cells
    };
    match name {
        // Winds: tangential vortex + shear + turbulence, decaying aloft.
        "U" => {
            60.0 * vortex_speed(g.r) * g.tx * (1.0 - 0.6 * g.h)
                + 8.0 * turb(2.0, 5)
                + 10.0 * (g.h - 0.3)
        }
        "V" => 60.0 * vortex_speed(g.r) * g.ty * (1.0 - 0.6 * g.h) + 8.0 * turb(2.1, 5),
        "W" => {
            // Updraft in the eyewall, weak subsidence in the eye.
            8.0 * annulus * (1.0 - g.h) - 1.5 * (-g.r * g.r).exp() + 1.2 * turb(2.5, 5)
        }
        // Pressure: hydrostatic decrease with altitude + central depression.
        "P" => {
            let ambient = 100_000.0 * (-1.1 * g.h).exp();
            let depression = 6_000.0 * (-g.r * g.r / 2.0).exp() * (1.0 - 0.7 * g.h);
            ambient - depression + 120.0 * turb(1.5, 4)
        }
        // Temperature (°C like Isabel's TC): lapse rate + warm core.
        "TC" => {
            let lapse = 28.0 - 75.0 * g.h;
            let warm_core =
                9.0 * (-g.r * g.r / 1.5).exp() * (-(g.h - 0.45) * (g.h - 0.45) / 0.1).exp();
            lapse + warm_core + 1.5 * turb(2.0, 5)
        }
        // Vapour: moist boundary layer, drying aloft, moister in the storm.
        "QVAPOR" => {
            let column = 0.022 * (-2.6 * g.h).exp();
            column * (1.0 + 0.5 * (-g.r * g.r / 4.0).exp()) * (0.9 * turb(2.0, 4)).exp()
        }
        // Cloud fraction in [0, 1].
        "CLOUD" => {
            let base = 2.2 * annulus + 1.4 * turb(2.5, 5) - 0.8;
            1.0 / (1.0 + (-3.0 * base).exp())
        }
        // Surface-accumulated precipitation: sparse, strongest low down.
        "PRECIP" => hydrometeor(0.05, 0.08, 0.015),
        // Hydrometeor species segregated by altitude band.
        "QCLOUD" => hydrometeor(0.25, 0.05, 0.0021),
        "QRAIN" => hydrometeor(0.12, 0.05, 0.0033),
        "QICE" => hydrometeor(0.75, 0.06, 0.0009),
        "QSNOW" => hydrometeor(0.6, 0.06, 0.0013),
        "QGRAUP" => hydrometeor(0.45, 0.07, 0.0017),
        other => unreachable!("unknown Hurricane field {other}"),
    }
}

/// Generate the 13 Hurricane-like fields at a resolution.
pub fn fields(res: Resolution, master_seed: u64) -> Vec<NamedField> {
    let Shape::D3(d0, d1, d2) = DatasetSpec::of(DatasetId::Hurricane).shape(res) else {
        unreachable!("Hurricane is 3-D")
    };
    NAMES
        .iter()
        .map(|&name| {
            let seed = field_seed(master_seed, name);
            // Resolution-independent texture wavelength (~8 features/axis).
            let s0 = 4.0 / d0 as f64;
            let s1 = 8.0 / d1 as f64;
            let s2 = 8.0 / d2 as f64;
            let du = s0.max(s1).max(s2);
            let data = Field::from_fn_3d(d0, d1, d2, |i, j, k| {
                let g = geometry(i, j, k, d0, d1, d2);
                sample(
                    name,
                    &g,
                    i as f64 * s0,
                    j as f64 * s1,
                    k as f64 * s2,
                    du,
                    seed,
                ) as f32
            });
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
        fields(Resolution::Small, 11)
            .into_iter()
            .find(|f| f.name == name)
            .unwrap()
    }

    #[test]
    fn thirteen_fields_match_isabel_names() {
        let fs = fields(Resolution::Small, 1);
        assert_eq!(fs.len(), 13);
        for (f, n) in fs.iter().zip(NAMES) {
            assert_eq!(f.name, n);
        }
    }

    #[test]
    fn winds_rotate_cyclonically() {
        // Sum of tangential momentum around the eyewall must be strongly
        // positive (the vortex dominates turbulence).
        let u = by_name("U");
        let v = by_name("V");
        let Shape::D3(d0, d1, d2) = u.data.shape() else {
            panic!()
        };
        let mut tangential = 0.0f64;
        let i = 0usize; // strongest at the surface
        for j in 0..d1 {
            for k in 0..d2 {
                let g = geometry(i, j, k, d0, d1, d2);
                if (0.5..2.0).contains(&g.r) {
                    tangential +=
                        u.data.get(&[i, j, k]) as f64 * g.tx + v.data.get(&[i, j, k]) as f64 * g.ty;
                }
            }
        }
        assert!(tangential > 0.0, "no cyclonic rotation: {tangential}");
    }

    #[test]
    fn pressure_decreases_with_altitude() {
        let p = by_name("P");
        let Shape::D3(d0, d1, d2) = p.data.shape() else {
            panic!()
        };
        let mean_level = |i: usize| {
            let mut s = 0.0f64;
            for j in 0..d1 {
                for k in 0..d2 {
                    s += p.data.get(&[i, j, k]) as f64;
                }
            }
            s / (d1 * d2) as f64
        };
        assert!(mean_level(0) > mean_level(d0 - 1) + 10_000.0);
    }

    #[test]
    fn pressure_has_central_depression() {
        let p = by_name("P");
        let Shape::D3(d0, d1, d2) = p.data.shape() else {
            panic!()
        };
        // Minimum surface pressure should sit near the storm centre (r < 1).
        let mut min_v = f64::INFINITY;
        let mut min_r = 0.0;
        for j in 0..d1 {
            for k in 0..d2 {
                let v = p.data.get(&[0, j, k]) as f64;
                if v < min_v {
                    min_v = v;
                    min_r = geometry(0, j, k, d0, d1, d2).r;
                }
            }
        }
        assert!(min_r < 1.0, "pressure minimum at r={min_r}");
    }

    #[test]
    fn hydrometeors_sparse_nonnegative() {
        for name in ["QICE", "QRAIN", "QSNOW", "QGRAUP", "QCLOUD", "PRECIP"] {
            let f = by_name(name);
            assert!(
                f.data.as_slice().iter().all(|&v| v >= 0.0),
                "{name} negative"
            );
            let zeros = f.data.as_slice().iter().filter(|&&v| v == 0.0).count();
            assert!(
                zeros * 3 > f.data.len(),
                "{name} not sparse: {zeros}/{}",
                f.data.len()
            );
        }
    }

    #[test]
    fn cloud_fraction_bounded() {
        let f = by_name("CLOUD");
        assert!(f.data.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn all_samples_finite() {
        for f in fields(Resolution::Small, 2) {
            assert!(
                f.data.as_slice().iter().all(|v| v.is_finite()),
                "{} non-finite",
                f.name
            );
        }
    }
}
