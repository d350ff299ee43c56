//! Seeded lattice value noise and fractional-Brownian-motion stacks.
//!
//! The 2-D/3-D texture primitive behind the ATM- and Hurricane-like
//! generators: smooth multi-scale structure is what makes the Lorenzo
//! predictor's error distribution peaked and symmetric, the property the
//! paper's Fig. 1 shows for real climate data.

/// Deterministic 64-bit hash of lattice coordinates and a seed
/// (SplitMix64-style finalizer — high avalanche, no allocation).
#[inline]
fn hash_lattice(x: i64, y: i64, z: i64, seed: u64) -> u64 {
    let mut h = seed
        ^ (x as u64).wrapping_mul(0x9E3779B97F4A7C15)
        ^ (y as u64).wrapping_mul(0xC2B2AE3D27D4EB4F)
        ^ (z as u64).wrapping_mul(0x165667B19E3779F9);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58476D1CE4E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D049BB133111EB);
    h ^= h >> 31;
    h
}

/// Lattice value in `[-1, 1)`.
#[inline]
fn lattice(x: i64, y: i64, z: i64, seed: u64) -> f64 {
    (hash_lattice(x, y, z, seed) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Quintic smoothstep `6t⁵ − 15t⁴ + 10t³` (C² continuous interpolation).
#[inline]
fn smooth(t: f64) -> f64 {
    t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
}

#[inline]
fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// Smooth 2-D value noise at continuous coordinates, in roughly `[-1, 1]`.
pub fn value_noise_2d(x: f64, y: f64, seed: u64) -> f64 {
    let xi = x.floor() as i64;
    let yi = y.floor() as i64;
    let tx = smooth(x - xi as f64);
    let ty = smooth(y - yi as f64);
    let v00 = lattice(xi, yi, 0, seed);
    let v10 = lattice(xi + 1, yi, 0, seed);
    let v01 = lattice(xi, yi + 1, 0, seed);
    let v11 = lattice(xi + 1, yi + 1, 0, seed);
    lerp(lerp(v00, v10, tx), lerp(v01, v11, tx), ty)
}

/// Smooth 3-D value noise at continuous coordinates, in roughly `[-1, 1]`.
pub fn value_noise_3d(x: f64, y: f64, z: f64, seed: u64) -> f64 {
    let xi = x.floor() as i64;
    let yi = y.floor() as i64;
    let zi = z.floor() as i64;
    let tx = smooth(x - xi as f64);
    let ty = smooth(y - yi as f64);
    let tz = smooth(z - zi as f64);
    let mut corners = [0.0f64; 8];
    for (n, c) in corners.iter_mut().enumerate() {
        let dx = (n & 1) as i64;
        let dy = ((n >> 1) & 1) as i64;
        let dz = ((n >> 2) & 1) as i64;
        *c = lattice(xi + dx, yi + dy, zi + dz, seed);
    }
    let x00 = lerp(corners[0], corners[1], tx);
    let x10 = lerp(corners[2], corners[3], tx);
    let x01 = lerp(corners[4], corners[5], tx);
    let x11 = lerp(corners[6], corners[7], tx);
    lerp(lerp(x00, x10, ty), lerp(x01, x11, ty), tz)
}

/// Fractional Brownian motion: `octaves` layers of value noise, each octave
/// doubling frequency (`lacunarity` 2) and scaling amplitude by `gain`.
/// Output stays in roughly `[-1, 1]` (amplitudes are normalised).
pub fn fbm_2d(x: f64, y: f64, seed: u64, octaves: u32, gain: f64) -> f64 {
    let mut sum = 0.0;
    let mut amp = 1.0;
    let mut norm = 0.0;
    let mut fx = x;
    let mut fy = y;
    for o in 0..octaves {
        sum += amp * value_noise_2d(fx, fy, seed.wrapping_add(o as u64 * 0x9E37));
        norm += amp;
        amp *= gain;
        fx *= 2.0;
        fy *= 2.0;
    }
    sum / norm
}

/// Largest octave count whose finest wavelength still spans at least
/// `min_wavelength_samples` grid samples, given the base octave's noise-space
/// step per sample. Production scientific fields are smooth at the sample
/// scale (that is why Lorenzo prediction works on them); capping octaves
/// keeps the synthetics from degenerating into per-sample noise on coarse
/// test grids.
pub fn max_octaves(noise_units_per_sample: f64, min_wavelength_samples: f64) -> u32 {
    if noise_units_per_sample <= 0.0 {
        return 1;
    }
    // Octave o (0-indexed) has wavelength 1/(step·2^o) samples; require it
    // to stay >= min_wavelength_samples.
    let base_wavelength = 1.0 / noise_units_per_sample;
    let ratio = base_wavelength / min_wavelength_samples;
    if ratio < 1.0 {
        1
    } else {
        ratio.log2().floor() as u32 + 1
    }
}

/// 3-D counterpart of [`fbm_2d`].
pub fn fbm_3d(x: f64, y: f64, z: f64, seed: u64, octaves: u32, gain: f64) -> f64 {
    let mut sum = 0.0;
    let mut amp = 1.0;
    let mut norm = 0.0;
    let (mut fx, mut fy, mut fz) = (x, y, z);
    for o in 0..octaves {
        sum += amp * value_noise_3d(fx, fy, fz, seed.wrapping_add(o as u64 * 0x9E37));
        norm += amp;
        amp *= gain;
        fx *= 2.0;
        fy *= 2.0;
        fz *= 2.0;
    }
    sum / norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic() {
        assert_eq!(value_noise_2d(3.7, -2.2, 42), value_noise_2d(3.7, -2.2, 42));
        assert_ne!(value_noise_2d(3.7, -2.2, 42), value_noise_2d(3.7, -2.2, 43));
    }

    #[test]
    fn noise_interpolates_lattice_values() {
        // At integer coordinates the noise equals the lattice value.
        let v = value_noise_2d(5.0, 7.0, 9);
        assert_eq!(v, lattice(5, 7, 0, 9));
    }

    #[test]
    fn noise_is_bounded() {
        for i in 0..500 {
            let x = i as f64 * 0.173 - 40.0;
            let y = i as f64 * 0.091 + 3.0;
            let v2 = value_noise_2d(x, y, 7);
            let v3 = value_noise_3d(x, y, x * 0.5, 7);
            assert!((-1.01..=1.01).contains(&v2), "2d out of range: {v2}");
            assert!((-1.01..=1.01).contains(&v3), "3d out of range: {v3}");
        }
    }

    #[test]
    fn noise_is_continuous() {
        // Tiny coordinate steps produce tiny value steps.
        let mut prev = value_noise_2d(0.0, 0.0, 5);
        for i in 1..1000 {
            let v = value_noise_2d(i as f64 * 0.001, 0.0, 5);
            assert!((v - prev).abs() < 0.02, "jump at step {i}");
            prev = v;
        }
    }

    #[test]
    fn fbm_is_bounded_and_rougher_with_octaves() {
        let mut vals1 = Vec::new();
        let mut vals6 = Vec::new();
        for i in 0..2000 {
            let x = i as f64 * 0.05;
            vals1.push(fbm_2d(x, 1.3, 11, 1, 0.5));
            vals6.push(fbm_2d(x, 1.3, 11, 6, 0.5));
        }
        for v in vals1.iter().chain(&vals6) {
            assert!((-1.01..=1.01).contains(v));
        }
        // Roughness proxy: mean |first difference| is larger with octaves.
        let rough = |v: &[f64]| {
            v.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (v.len() - 1) as f64
        };
        assert!(rough(&vals6) > rough(&vals1));
    }

    #[test]
    fn max_octaves_caps_fine_scales() {
        // Base wavelength 32 samples, min 4 ⇒ octaves 0..3 allowed (32,16,8,4).
        assert_eq!(max_octaves(1.0 / 32.0, 4.0), 4);
        // Base wavelength already below the minimum ⇒ a single octave.
        assert_eq!(max_octaves(1.0, 4.0), 1);
        // Degenerate step.
        assert_eq!(max_octaves(0.0, 4.0), 1);
    }

    #[test]
    fn fbm_3d_deterministic() {
        assert_eq!(
            fbm_3d(1.0, 2.0, 3.0, 99, 4, 0.5),
            fbm_3d(1.0, 2.0, 3.0, 99, 4, 0.5)
        );
    }
}
