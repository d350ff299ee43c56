//! Orthonormal DCT-II bases.
//!
//! The DCT-II with orthonormal scaling,
//! `M[k][n] = s(k) · √(2/N) · cos(π(2n+1)k / 2N)` with
//! `s(0) = 1/√2, s(k>0) = 1`, satisfies `M·Mᵀ = I` — the property Theorem 2
//! requires. Matrices are built once per block size and applied as dense
//! mat-vecs (blocks are 4 or 8 wide; dense is faster than fancy here).

/// Which orthonormal basis a block codec uses. Theorem 2 holds for *any*
/// orthonormal transform; offering two makes that concrete (and the
/// `ablation` bench compares their rate–distortion behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisKind {
    /// Orthonormal DCT-II (energy-compacting; ZFP-like choice).
    Dct2,
    /// Orthonormal Haar wavelet matrix.
    Haar,
}

impl BasisKind {
    /// Stable container tag.
    pub fn tag(self) -> u8 {
        match self {
            BasisKind::Dct2 => 0,
            BasisKind::Haar => 1,
        }
    }

    /// Inverse of [`BasisKind::tag`].
    pub fn from_tag(tag: u8) -> Option<BasisKind> {
        match tag {
            0 => Some(BasisKind::Dct2),
            1 => Some(BasisKind::Haar),
            _ => None,
        }
    }

    /// Materialize the basis at block size `n`.
    pub fn build(self, n: usize) -> Basis {
        match self {
            BasisKind::Dct2 => Basis::dct2(n),
            BasisKind::Haar => Basis::haar(n),
        }
    }
}

/// An `N × N` orthonormal transform matrix.
#[derive(Debug, Clone)]
pub struct Basis {
    n: usize,
    /// Row-major forward matrix.
    fwd: Vec<f64>,
}

impl Basis {
    /// The orthonormal Haar matrix of size `n` (power of two), built by the
    /// recursion `H_{2m} = [H_m ⊗ (1,1)/√2 ; I_m ⊗ (1,−1)/√2]`.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two ≥ 1.
    pub fn haar(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "Haar needs a power of two, got {n}"
        );
        let mut fwd = vec![1.0f64];
        let mut m = 1usize;
        let s = 1.0 / 2.0f64.sqrt();
        while m < n {
            let next = 2 * m;
            let mut out = vec![0.0f64; next * next];
            // Top half: each existing row spread over pairs, averaged.
            for r in 0..m {
                for c in 0..m {
                    let v = fwd[r * m + c] * s;
                    out[r * next + 2 * c] = v;
                    out[r * next + 2 * c + 1] = v;
                }
            }
            // Bottom half: localized differences.
            for r in 0..m {
                out[(m + r) * next + 2 * r] = s;
                out[(m + r) * next + 2 * r + 1] = -s;
            }
            fwd = out;
            m = next;
        }
        Basis { n, fwd }
    }

    /// The orthonormal DCT-II of size `n`.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn dct2(n: usize) -> Self {
        assert!(n > 0, "empty basis");
        let mut fwd = vec![0.0f64; n * n];
        let norm = (2.0 / n as f64).sqrt();
        for k in 0..n {
            let s = if k == 0 { 1.0 / 2.0f64.sqrt() } else { 1.0 };
            for j in 0..n {
                fwd[k * n + j] = s
                    * norm
                    * ((std::f64::consts::PI * (2.0 * j as f64 + 1.0) * k as f64)
                        / (2.0 * n as f64))
                        .cos();
            }
        }
        Basis { n, fwd }
    }

    /// Block size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Forward transform: `out[k] = Σⱼ M[k][j]·input[j]`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn forward(&self, input: &[f64], out: &mut [f64]) {
        assert_eq!(input.len(), self.n);
        assert_eq!(out.len(), self.n);
        for k in 0..self.n {
            let row = &self.fwd[k * self.n..(k + 1) * self.n];
            out[k] = row.iter().zip(input).map(|(m, x)| m * x).sum();
        }
    }

    /// Inverse transform (the transpose, because the basis is orthonormal).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn inverse(&self, input: &[f64], out: &mut [f64]) {
        assert_eq!(input.len(), self.n);
        assert_eq!(out.len(), self.n);
        for j in 0..self.n {
            let mut acc = 0.0;
            for k in 0..self.n {
                acc += self.fwd[k * self.n + j] * input[k];
            }
            out[j] = acc;
        }
    }

    /// Apply the forward transform along a strided line in place.
    pub fn forward_strided(&self, data: &mut [f64], start: usize, stride: usize) {
        let mut line = vec![0.0; self.n];
        let mut out = vec![0.0; self.n];
        for (i, l) in line.iter_mut().enumerate() {
            *l = data[start + i * stride];
        }
        self.forward(&line, &mut out);
        for (i, o) in out.iter().enumerate() {
            data[start + i * stride] = *o;
        }
    }

    /// Apply the inverse transform along a strided line in place.
    pub fn inverse_strided(&self, data: &mut [f64], start: usize, stride: usize) {
        let mut line = vec![0.0; self.n];
        let mut out = vec![0.0; self.n];
        for (i, l) in line.iter_mut().enumerate() {
            *l = data[start + i * stride];
        }
        self.inverse(&line, &mut out);
        for (i, o) in out.iter().enumerate() {
            data[start + i * stride] = *o;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orthonormality(n: usize) {
        let b = Basis::dct2(n);
        for r1 in 0..n {
            for r2 in 0..n {
                let dot: f64 = (0..n).map(|j| b.fwd[r1 * n + j] * b.fwd[r2 * n + j]).sum();
                let expect = if r1 == r2 { 1.0 } else { 0.0 };
                assert!(
                    (dot - expect).abs() < 1e-12,
                    "rows {r1},{r2} of DCT-{n}: {dot}"
                );
            }
        }
    }

    #[test]
    fn dct4_and_dct8_are_orthonormal() {
        orthonormality(4);
        orthonormality(8);
    }

    fn haar_orthonormality(n: usize) {
        let b = Basis::haar(n);
        for r1 in 0..n {
            for r2 in 0..n {
                let dot: f64 = (0..n).map(|j| b.fwd[r1 * n + j] * b.fwd[r2 * n + j]).sum();
                let expect = if r1 == r2 { 1.0 } else { 0.0 };
                assert!(
                    (dot - expect).abs() < 1e-12,
                    "rows {r1},{r2} of Haar-{n}: {dot}"
                );
            }
        }
    }

    #[test]
    fn haar_matrices_are_orthonormal() {
        for n in [1usize, 2, 4, 8, 16] {
            haar_orthonormality(n);
        }
    }

    #[test]
    fn haar4_matches_hand_construction() {
        let b = Basis::haar(4);
        let expect = [
            [0.5, 0.5, 0.5, 0.5],
            [0.5, 0.5, -0.5, -0.5],
            [
                std::f64::consts::FRAC_1_SQRT_2,
                -std::f64::consts::FRAC_1_SQRT_2,
                0.0,
                0.0,
            ],
            [
                0.0,
                0.0,
                std::f64::consts::FRAC_1_SQRT_2,
                -std::f64::consts::FRAC_1_SQRT_2,
            ],
        ];
        for r in 0..4 {
            for c in 0..4 {
                assert!(
                    (b.fwd[r * 4 + c] - expect[r][c]).abs() < 1e-12,
                    "H[{r}][{c}] = {}",
                    b.fwd[r * 4 + c]
                );
            }
        }
    }

    #[test]
    fn haar_roundtrip_and_l2_preservation() {
        let b = Basis::haar(8);
        let input: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let mut coeff = vec![0.0; 8];
        let mut back = vec![0.0; 8];
        b.forward(&input, &mut coeff);
        b.inverse(&coeff, &mut back);
        for (x, y) in input.iter().zip(&back) {
            assert!((x - y).abs() < 1e-12);
        }
        let e_in: f64 = input.iter().map(|v| v * v).sum();
        let e_out: f64 = coeff.iter().map(|v| v * v).sum();
        assert!((e_in - e_out).abs() / e_in < 1e-12);
    }

    #[test]
    fn basis_kind_tags_roundtrip() {
        for kind in [BasisKind::Dct2, BasisKind::Haar] {
            assert_eq!(BasisKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(BasisKind::from_tag(9), None);
    }

    #[test]
    fn forward_then_inverse_is_identity() {
        let b = Basis::dct2(8);
        let input: Vec<f64> = (0..8).map(|i| (i as f64 * 1.3).sin() * 5.0).collect();
        let mut coeff = vec![0.0; 8];
        let mut back = vec![0.0; 8];
        b.forward(&input, &mut coeff);
        b.inverse(&coeff, &mut back);
        for (x, y) in input.iter().zip(&back) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_block_energy_lands_in_dc() {
        let b = Basis::dct2(4);
        let input = [3.0; 4];
        let mut coeff = [0.0; 4];
        b.forward(&input, &mut coeff);
        // DC = 3 * sqrt(4) = 6; all AC zero.
        assert!((coeff[0] - 6.0).abs() < 1e-12);
        for c in &coeff[1..] {
            assert!(c.abs() < 1e-12);
        }
    }

    #[test]
    fn l2_norm_preserved() {
        let b = Basis::dct2(8);
        let input: Vec<f64> = (0..8).map(|i| (i * i) as f64 - 20.0).collect();
        let mut coeff = vec![0.0; 8];
        b.forward(&input, &mut coeff);
        let e_in: f64 = input.iter().map(|v| v * v).sum();
        let e_out: f64 = coeff.iter().map(|v| v * v).sum();
        assert!((e_in - e_out).abs() / e_in < 1e-12);
    }

    #[test]
    fn strided_application_matches_dense() {
        let b = Basis::dct2(4);
        // 4x4 grid: transform column 1 (stride 4).
        let mut grid: Vec<f64> = (0..16).map(|v| v as f64).collect();
        let col: Vec<f64> = (0..4).map(|r| grid[r * 4 + 1]).collect();
        let mut expect = vec![0.0; 4];
        b.forward(&col, &mut expect);
        b.forward_strided(&mut grid, 1, 4);
        for r in 0..4 {
            assert!((grid[r * 4 + 1] - expect[r]).abs() < 1e-12);
        }
    }
}
