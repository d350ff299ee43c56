//! Separable 2-D and 3-D transforms.
//!
//! The n-dimensional DFT factorizes into 1-D DFTs along each axis; these
//! helpers gather each axis line into a scratch buffer, run the 1-D
//! transform, and scatter back. Grids are row-major with the last index
//! fastest-varying (matching `ndfield`).

use crate::{fft, ifft, Complex};

/// In-place 2-D FFT of a `rows × cols` row-major grid.
///
/// # Panics
/// Panics unless both extents are powers of two and the buffer length is
/// `rows * cols`.
pub fn fft2(data: &mut [Complex], rows: usize, cols: usize) {
    transform2(data, rows, cols, fft);
}

/// In-place 2-D inverse FFT (normalised; `ifft2(fft2(x)) == x`).
///
/// # Panics
/// Same contract as [`fft2`].
pub fn ifft2(data: &mut [Complex], rows: usize, cols: usize) {
    transform2(data, rows, cols, ifft);
}

fn transform2(data: &mut [Complex], rows: usize, cols: usize, f: fn(&mut [Complex])) {
    assert_eq!(data.len(), rows * cols, "grid size mismatch");
    // Rows are contiguous.
    for r in 0..rows {
        f(&mut data[r * cols..(r + 1) * cols]);
    }
    // Columns via gather/scatter.
    let mut line = vec![Complex::ZERO; rows];
    for c in 0..cols {
        for r in 0..rows {
            line[r] = data[r * cols + c];
        }
        f(&mut line);
        for r in 0..rows {
            data[r * cols + c] = line[r];
        }
    }
}

/// In-place 3-D FFT of a `d0 × d1 × d2` row-major grid.
///
/// # Panics
/// Panics unless all extents are powers of two and the buffer length is
/// `d0 * d1 * d2`.
pub fn fft3(data: &mut [Complex], d0: usize, d1: usize, d2: usize) {
    transform3(data, d0, d1, d2, fft);
}

/// In-place 3-D inverse FFT (normalised).
///
/// # Panics
/// Same contract as [`fft3`].
pub fn ifft3(data: &mut [Complex], d0: usize, d1: usize, d2: usize) {
    transform3(data, d0, d1, d2, ifft);
}

fn transform3(data: &mut [Complex], d0: usize, d1: usize, d2: usize, f: fn(&mut [Complex])) {
    assert_eq!(data.len(), d0 * d1 * d2, "grid size mismatch");
    // Axis 2 (contiguous lines).
    for i in 0..d0 * d1 {
        f(&mut data[i * d2..(i + 1) * d2]);
    }
    // Axis 1.
    let mut line1 = vec![Complex::ZERO; d1];
    for i in 0..d0 {
        for k in 0..d2 {
            for j in 0..d1 {
                line1[j] = data[(i * d1 + j) * d2 + k];
            }
            f(&mut line1);
            for j in 0..d1 {
                data[(i * d1 + j) * d2 + k] = line1[j];
            }
        }
    }
    // Axis 0.
    let mut line0 = vec![Complex::ZERO; d0];
    for j in 0..d1 {
        for k in 0..d2 {
            for i in 0..d0 {
                line0[i] = data[(i * d1 + j) * d2 + k];
            }
            f(&mut line0);
            for i in 0..d0 {
                data[(i * d1 + j) * d2 + k] = line0[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_grid(n: usize, seed: u64) -> Vec<Complex> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                Complex::new(
                    (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
                    ((s >> 7) & 0xffff) as f64 / 65536.0 - 0.5,
                )
            })
            .collect()
    }

    #[test]
    fn fft2_roundtrip() {
        let (r, c) = (16, 8);
        let orig = lcg_grid(r * c, 7);
        let mut data = orig.clone();
        fft2(&mut data, r, c);
        ifft2(&mut data, r, c);
        for (a, b) in orig.iter().zip(&data) {
            assert!((a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn fft3_roundtrip() {
        let (a, b, c) = (8, 4, 16);
        let orig = lcg_grid(a * b * c, 99);
        let mut data = orig.clone();
        fft3(&mut data, a, b, c);
        ifft3(&mut data, a, b, c);
        for (x, y) in orig.iter().zip(&data) {
            assert!((x.re - y.re).abs() < 1e-10 && (x.im - y.im).abs() < 1e-10);
        }
    }

    #[test]
    fn fft2_dc_bin_is_grid_sum() {
        let (r, c) = (4, 4);
        let mut data = vec![Complex::new(2.0, 0.0); r * c];
        fft2(&mut data, r, c);
        assert!((data[0].re - 32.0).abs() < 1e-12);
        for v in &data[1..] {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn fft3_plane_wave_lands_in_one_bin() {
        let (d0, d1, d2) = (4, 8, 4);
        let (k0, k1, k2) = (1usize, 3usize, 2usize);
        let mut data = vec![Complex::ZERO; d0 * d1 * d2];
        for i in 0..d0 {
            for j in 0..d1 {
                for k in 0..d2 {
                    let ph = 2.0 * std::f64::consts::PI * (k0 * i) as f64 / d0 as f64
                        + 2.0 * std::f64::consts::PI * (k1 * j) as f64 / d1 as f64
                        + 2.0 * std::f64::consts::PI * (k2 * k) as f64 / d2 as f64;
                    data[(i * d1 + j) * d2 + k] = Complex::new(ph.cos(), ph.sin());
                }
            }
        }
        fft3(&mut data, d0, d1, d2);
        let hot = (k0 * d1 + k1) * d2 + k2;
        for (idx, v) in data.iter().enumerate() {
            if idx == hot {
                assert!((v.re - (d0 * d1 * d2) as f64).abs() < 1e-8);
            } else {
                assert!(v.abs() < 1e-8, "leakage at {idx}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "grid size mismatch")]
    fn wrong_size_rejected() {
        let mut data = vec![Complex::ZERO; 10];
        fft2(&mut data, 4, 4);
    }
}
