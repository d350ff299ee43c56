//! CESM-ATM-like 2-D climate fields (79 per snapshot).
//!
//! The real ATM dumps hold 79 single-precision 2-D lat×lon fields with very
//! different characters — bounded cloud fractions, smooth temperature and
//! pressure fields, signed winds, spiky precipitation, trace-gas fields
//! with tiny magnitudes. Two properties of production climate fields matter
//! for fixed-PSNR fidelity, and both are reproduced deliberately:
//!
//! 1. **Smoothness at the sample scale** — octave counts are capped so the
//!    finest texture wavelength spans several grid cells
//!    ([`crate::noise::max_octaves`]); production 1800×3600 fields are far
//!    smoother per sample than naive noise.
//! 2. **Exactly-constant regions** — land/ocean masks, fill values,
//!    saturated cloud fractions and dry zones make a large share of samples
//!    *exactly* predictable (zero prediction error). Those samples
//!    contribute zero distortion instead of the uniform model's `δ²/12`,
//!    which is precisely why real SZ lands slightly *above* the Eq. 7
//!    estimate (the paper's "meet the demand" behaviour in Fig. 2).
//!
//! All 79 fields share one planet: a common land mask and polar geometry
//! derived from the master seed, with per-field texture seeds on top.

use crate::noise::{fbm_2d, max_octaves};
use crate::registry::{DatasetId, DatasetSpec, Resolution};
use crate::{field_seed, NamedField};
use ndfield::{Field, Shape};

/// Generator archetypes for the 79 ATM-like fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Cloud fraction in `[0, 1]` with saturated (exact 0/1) regions.
    CloudFraction,
    /// Temperature-like: ~200–310 K with a strong meridional gradient.
    Temperature,
    /// Sea-surface temperature: ocean only, constant fill over land.
    SeaSurface,
    /// Pressure-like: ~5e4–1.05e5 Pa, very smooth.
    Pressure,
    /// Surface geopotential: exactly 0 over ocean, terrain over land.
    Terrain,
    /// Radiative-flux-like: non-negative, up to ~500 W/m².
    Flux,
    /// Top-of-atmosphere insolation: purely zonal (function of latitude
    /// only) — exactly Lorenzo-predictable away from the first column.
    Zonal,
    /// Wind-like: signed, ±40 m/s.
    Wind,
    /// Humidity-like: non-negative, decaying away from the "equator".
    Humidity,
    /// Precipitation-like: sparse, heavy-tailed, mostly exactly zero.
    Precip,
    /// Snow/ice depth: exactly zero outside high latitudes.
    Snow,
    /// Land fraction: saturated mask (mostly exact 0/1).
    LandMask,
    /// Ocean fraction: complement of the land mask.
    OceanMask,
    /// Sea-ice fraction: polar caps, exact zero elsewhere.
    IceMask,
    /// Trace-species-like: tiny magnitudes around 1e-9..1e-6.
    Trace,
}

/// The 79 field descriptors. Names follow CESM-ATM conventions; kinds give
/// each a distinct, plausible statistical character.
const FIELDS: [(&str, Kind); 79] = [
    ("CLDHGH", Kind::CloudFraction),
    ("CLDLOW", Kind::CloudFraction),
    ("CLDMED", Kind::CloudFraction),
    ("CLDTOT", Kind::CloudFraction),
    ("CLOUD", Kind::CloudFraction),
    ("CONCLD", Kind::CloudFraction),
    ("FREQZM", Kind::CloudFraction),
    ("FICE", Kind::CloudFraction),
    ("TS", Kind::Temperature),
    ("TSMN", Kind::Temperature),
    ("TSMX", Kind::Temperature),
    ("TREFHT", Kind::Temperature),
    ("TREFHTMN", Kind::Temperature),
    ("TREFHTMX", Kind::Temperature),
    ("T850", Kind::Temperature),
    ("T500", Kind::Temperature),
    ("T200", Kind::Temperature),
    ("SST", Kind::SeaSurface),
    ("PS", Kind::Pressure),
    ("PSL", Kind::Pressure),
    ("PHIS", Kind::Terrain),
    ("P850", Kind::Pressure),
    ("P500", Kind::Pressure),
    ("FLDS", Kind::Flux),
    ("FLNS", Kind::Flux),
    ("FLNSC", Kind::Flux),
    ("FLNT", Kind::Flux),
    ("FLNTC", Kind::Flux),
    ("FLUT", Kind::Flux),
    ("FLUTC", Kind::Flux),
    ("FSDS", Kind::Flux),
    ("FSDSC", Kind::Flux),
    ("FSNS", Kind::Flux),
    ("FSNSC", Kind::Flux),
    ("FSNT", Kind::Flux),
    ("FSNTC", Kind::Flux),
    ("FSNTOA", Kind::Flux),
    ("FSNTOAC", Kind::Flux),
    ("LHFLX", Kind::Flux),
    ("SHFLX", Kind::Flux),
    ("QRL", Kind::Flux),
    ("QRS", Kind::Flux),
    ("SOLIN", Kind::Zonal),
    ("SRFRAD", Kind::Flux),
    ("U10", Kind::Wind),
    ("UBOT", Kind::Wind),
    ("VBOT", Kind::Wind),
    ("U850", Kind::Wind),
    ("V850", Kind::Wind),
    ("U500", Kind::Wind),
    ("V500", Kind::Wind),
    ("U200", Kind::Wind),
    ("V200", Kind::Wind),
    ("TAUX", Kind::Wind),
    ("TAUY", Kind::Wind),
    ("USTAR", Kind::Wind),
    ("QREFHT", Kind::Humidity),
    ("QBOT", Kind::Humidity),
    ("Q850", Kind::Humidity),
    ("Q500", Kind::Humidity),
    ("Q200", Kind::Humidity),
    ("RELHUM", Kind::Humidity),
    ("RHREFHT", Kind::Humidity),
    ("TMQ", Kind::Humidity),
    ("PRECC", Kind::Precip),
    ("PRECL", Kind::Precip),
    ("PRECSC", Kind::Precip),
    ("PRECSL", Kind::Precip),
    ("PRECT", Kind::Precip),
    ("PRECTMX", Kind::Precip),
    ("SNOWHLND", Kind::Snow),
    ("SNOWHICE", Kind::Snow),
    ("ICEFRAC", Kind::IceMask),
    ("LANDFRAC", Kind::LandMask),
    ("OCNFRAC", Kind::OceanMask),
    ("AEROD_v", Kind::Trace),
    ("BURDEN1", Kind::Trace),
    ("BURDEN2", Kind::Trace),
    ("BURDEN3", Kind::Trace),
];

/// Per-sample evaluation context shared by all kinds.
struct Ctx {
    /// Latitude coordinate in `[-1, 1]` (pole to pole).
    lat: f64,
    /// Noise-space coordinates (resolution-independent feature size).
    u: f64,
    v: f64,
    /// Noise units advanced per grid sample (for octave capping).
    du: f64,
    /// Per-field texture seed.
    seed: u64,
    /// Shared-planet land value in `[0, 1]`: saturated mask, mostly exact
    /// 0 (ocean) or exact 1 (land).
    land: f64,
}

impl Ctx {
    /// Octave-capped fBm texture at a frequency multiple of the base scale.
    fn tex(&self, scale: f64, want_octaves: u32, gain: f64) -> f64 {
        let oct = want_octaves.min(max_octaves(self.du * scale, 6.0));
        fbm_2d(self.u * scale, self.v * scale, self.seed, oct, gain)
    }
}

/// Saturating ramp: exact 0 below `lo`, exact 1 above `hi`, smoothstep
/// between — the shape of fraction/mask fields in production dumps.
#[inline]
fn saturate(x: f64, lo: f64, hi: f64) -> f64 {
    if x <= lo {
        0.0
    } else if x >= hi {
        1.0
    } else {
        let t = (x - lo) / (hi - lo);
        t * t * (3.0 - 2.0 * t)
    }
}

/// Shared-planet land value (same continents in every field of a snapshot).
fn land_value(u: f64, v: f64, du: f64, lat: f64, master: u64) -> f64 {
    let seed = field_seed(master, "__planet_land__");
    let oct = 4u32.min(max_octaves(du * 1.3, 6.0));
    let continents = fbm_2d(u * 1.3, v * 1.3, seed, oct, 0.5);
    // Slight poleward land bias; saturate into a nearly binary mask.
    saturate(continents + 0.15 * lat * lat, 0.02, 0.14)
}

fn sample(kind: Kind, ctx: &Ctx) -> f64 {
    let lat = ctx.lat;
    match kind {
        Kind::CloudFraction => {
            let bands = (lat * std::f64::consts::PI * 3.0).cos() * 0.35;
            let tex = ctx.tex(2.0, 4, 0.55);
            // Saturated: clear-sky holes are exact 0, overcast decks exact 1.
            saturate(0.5 + bands + 1.1 * tex, 0.18, 0.82)
        }
        Kind::Temperature => {
            let meridional = 302.0 - 74.0 * lat * lat;
            meridional + 6.0 * ctx.tex(1.0, 3, 0.5) - 12.0 * ctx.land * (0.3 + lat * lat)
        }
        Kind::SeaSurface => {
            if ctx.land >= 1.0 {
                // Fill value over land, bit-exact across the region.
                271.35
            } else {
                let open = 300.0 - 28.0 * lat * lat + 2.5 * ctx.tex(1.5, 3, 0.5);
                // Blend only in the narrow coastal transition band.
                271.35 * ctx.land + open * (1.0 - ctx.land)
            }
        }
        Kind::Pressure => 101_325.0 - 3_000.0 * lat * lat + 700.0 * ctx.tex(0.7, 3, 0.5),
        Kind::Terrain => {
            if ctx.land <= 0.0 {
                0.0 // geopotential is exactly zero over ocean
            } else {
                let relief = (ctx.tex(2.5, 4, 0.6) + 0.6).max(0.0);
                ctx.land * 9.8 * 1200.0 * relief * relief
            }
        }
        Kind::Flux => {
            let insolation = (1.0 - 0.72 * lat * lat).max(0.05);
            let tex = 0.7 + 0.3 * ctx.tex(1.0, 3, 0.45);
            430.0 * insolation * tex
        }
        Kind::Zonal => {
            // Purely meridional: every row is constant, so the 2-D Lorenzo
            // stencil predicts it exactly (zero error away from column 0).
            1361.0 * (1.0 - 0.75 * lat * lat).max(0.0)
        }
        Kind::Wind => {
            let jet = 26.0 * (lat * std::f64::consts::PI * 2.0).sin();
            jet + 5.0 * ctx.tex(1.5, 3, 0.5)
        }
        Kind::Humidity => {
            let column = (-3.0 * lat * lat).exp();
            let tex = (0.9 * ctx.tex(1.2, 3, 0.5)).exp();
            0.02 * column * tex
        }
        Kind::Precip => {
            // Mostly exactly dry; convective cells where fBm exceeds a
            // threshold (heavy right tail).
            let cell = ctx.tex(3.0, 4, 0.6);
            let band = (-8.0 * lat * lat).exp() + 0.15;
            let active = (cell - 0.32).max(0.0);
            2.0e-7 * band * active * active * 40.0
        }
        Kind::Snow => {
            // Snow depth only on cold high-latitude land; elsewhere exact 0.
            let cold = (lat.abs() - 0.45).max(0.0) / 0.55;
            let pack = (ctx.tex(2.0, 3, 0.5) + 0.7).max(0.0);
            ctx.land * cold * cold * 1.2 * pack
        }
        Kind::LandMask => ctx.land,
        Kind::OceanMask => 1.0 - ctx.land,
        Kind::IceMask => {
            let polar = (lat.abs() - 0.62).max(0.0) / 0.38;
            if polar <= 0.0 {
                0.0
            } else {
                saturate(polar * 1.4 + 0.25 * ctx.tex(2.0, 3, 0.5), 0.15, 0.75)
            }
        }
        Kind::Trace => {
            let plume = ctx.tex(1.8, 4, 0.5);
            1.0e-7 * (2.5 * plume).exp()
        }
    }
}

/// Generate the 79 ATM-like fields at a resolution.
pub fn fields(res: Resolution, master_seed: u64) -> Vec<NamedField> {
    let Shape::D2(rows, cols) = DatasetSpec::of(DatasetId::Atm).shape(res) else {
        unreachable!("ATM is 2-D")
    };
    FIELDS
        .iter()
        .map(|&(name, kind)| NamedField {
            name: name.to_string(),
            data: generate_one(name, kind, rows, cols, master_seed),
        })
        .collect()
}

/// Generate one named ATM field (used by the Fig. 1 harness, which needs a
/// single field rather than the snapshot).
pub fn field_by_name(name: &str, res: Resolution, master_seed: u64) -> Option<NamedField> {
    let Shape::D2(rows, cols) = DatasetSpec::of(DatasetId::Atm).shape(res) else {
        unreachable!("ATM is 2-D")
    };
    FIELDS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(name, kind)| NamedField {
            name: name.to_string(),
            data: generate_one(name, kind, rows, cols, master_seed),
        })
}

/// Names of all 79 fields, in snapshot order.
pub fn field_names() -> Vec<&'static str> {
    FIELDS.iter().map(|(n, _)| *n).collect()
}

fn generate_one(name: &str, kind: Kind, rows: usize, cols: usize, master: u64) -> Field<f32> {
    let seed = field_seed(master, name);
    // ~6 large-scale features across the globe, resolution-independent.
    let su = 6.0 / rows as f64;
    let sv = 6.0 / cols as f64;
    let du = su.max(sv);
    Field::from_fn_2d(rows, cols, |i, j| {
        let lat = 2.0 * (i as f64 + 0.5) / rows as f64 - 1.0;
        let (u, v) = (i as f64 * su, j as f64 * sv);
        let ctx = Ctx {
            lat,
            u,
            v,
            du,
            seed,
            land: land_value(u, v, du, lat, master),
        };
        sample(kind, &ctx) as f32
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_79_fields_with_unique_names() {
        let fs = fields(Resolution::Small, 1);
        assert_eq!(fs.len(), 79);
        let mut names: Vec<&str> = fs.iter().map(|f| f.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 79, "duplicate field names");
    }

    #[test]
    fn cloud_fractions_are_bounded_with_saturation() {
        let f = field_by_name("CLDHGH", Resolution::Small, 3).unwrap();
        let mut saturated = 0usize;
        for &v in f.data.as_slice() {
            assert!((0.0..=1.0).contains(&v), "cloud fraction {v}");
            if v == 0.0 || v == 1.0 {
                saturated += 1;
            }
        }
        assert!(
            saturated * 10 > f.data.len(),
            "expected saturated regions, got {saturated}/{}",
            f.data.len()
        );
    }

    #[test]
    fn temperature_is_plausible_kelvin() {
        let f = field_by_name("TS", Resolution::Small, 3).unwrap();
        let stats = f.data.stats();
        assert!(stats.min > 150.0 && stats.max < 340.0, "{stats:?}");
        assert!(stats.range() > 30.0);
    }

    #[test]
    fn sst_has_constant_land_fill() {
        let f = field_by_name("SST", Resolution::Small, 3).unwrap();
        let fill = f.data.as_slice().iter().filter(|&&v| v == 271.35).count();
        assert!(
            fill * 10 > f.data.len(),
            "land fill region too small: {fill}/{}",
            f.data.len()
        );
    }

    #[test]
    fn phis_is_zero_over_ocean() {
        let f = field_by_name("PHIS", Resolution::Small, 3).unwrap();
        let zeros = f.data.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!(
            zeros * 4 > f.data.len(),
            "ocean zeros {zeros}/{}",
            f.data.len()
        );
        assert!(f.data.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn solin_is_purely_zonal() {
        let f = field_by_name("SOLIN", Resolution::Small, 3).unwrap();
        let Shape::D2(rows, cols) = f.data.shape() else {
            panic!()
        };
        for i in 0..rows {
            let first = f.data.get(&[i, 0]);
            for j in 1..cols {
                assert_eq!(f.data.get(&[i, j]), first, "row {i} not constant");
            }
        }
    }

    #[test]
    fn masks_are_mostly_binary_and_complementary() {
        let land = field_by_name("LANDFRAC", Resolution::Small, 3).unwrap();
        let ocean = field_by_name("OCNFRAC", Resolution::Small, 3).unwrap();
        let binary = land
            .data
            .as_slice()
            .iter()
            .filter(|&&v| v == 0.0 || v == 1.0)
            .count();
        assert!(binary * 2 > land.data.len(), "mask not saturated: {binary}");
        for (&l, &o) in land.data.as_slice().iter().zip(ocean.data.as_slice()) {
            assert!((l + o - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn icefrac_zero_outside_polar_caps() {
        let f = field_by_name("ICEFRAC", Resolution::Small, 3).unwrap();
        let Shape::D2(rows, cols) = f.data.shape() else {
            panic!()
        };
        // Equatorial band must be exactly zero.
        for i in rows * 2 / 5..rows * 3 / 5 {
            for j in 0..cols {
                assert_eq!(f.data.get(&[i, j]), 0.0, "ice at equator ({i},{j})");
            }
        }
    }

    #[test]
    fn precip_is_sparse_and_nonnegative() {
        let f = field_by_name("PRECT", Resolution::Small, 3).unwrap();
        let zeros = f.data.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros * 3 > f.data.len(), "precip not sparse: {zeros} zeros");
        assert!(f.data.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn winds_are_signed() {
        let f = field_by_name("U850", Resolution::Small, 3).unwrap();
        let stats = f.data.stats();
        assert!(stats.min < -1.0 && stats.max > 1.0, "{stats:?}");
    }

    #[test]
    fn trace_fields_have_tiny_magnitudes() {
        let f = field_by_name("BURDEN1", Resolution::Small, 3).unwrap();
        let stats = f.data.stats();
        assert!(stats.max < 1e-4, "{stats:?}");
        assert!(stats.min > 0.0);
    }

    #[test]
    fn fields_differ_from_each_other() {
        let a = field_by_name("CLDHGH", Resolution::Small, 3).unwrap();
        let b = field_by_name("CLDLOW", Resolution::Small, 3).unwrap();
        assert_ne!(a.data.as_slice(), b.data.as_slice());
    }

    #[test]
    fn unknown_field_name_is_none() {
        assert!(field_by_name("NOPE", Resolution::Small, 3).is_none());
    }

    #[test]
    fn resolution_scales_shape() {
        let small = field_by_name("TS", Resolution::Small, 3).unwrap();
        let default = field_by_name("TS", Resolution::Default, 3).unwrap();
        assert!(default.data.len() > small.data.len());
    }

    #[test]
    fn all_samples_finite() {
        for f in fields(Resolution::Small, 5) {
            for &v in f.data.as_slice() {
                assert!(v.is_finite(), "{} has non-finite sample", f.name);
            }
        }
    }
}
