//! l2-norm distortion: MSE, NRMSE, PSNR (paper Eq. 4–5).

use ndfield::{Field, Scalar};

/// l2 distortion between an original field and its reconstruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Distortion {
    /// Mean squared error over finite original samples.
    pub mse: f64,
    /// Value range of the *original* data (the paper's `vr`).
    pub value_range: f64,
    /// Number of samples included (finite in the original).
    pub count: usize,
}

impl Distortion {
    /// Compare two equally shaped fields.
    ///
    /// Samples that are non-finite in the original are excluded (they carry
    /// no distortion information; SZ stores them bit-exactly anyway).
    ///
    /// ```
    /// use ndfield::{Field, Shape};
    /// let a = Field::from_vec(Shape::D1(2), vec![0.0f64, 1.0]);
    /// let b = Field::from_vec(Shape::D1(2), vec![0.01f64, 1.01]);
    /// let d = fpsnr_metrics::Distortion::between(&a, &b);
    /// assert!((d.psnr() - 40.0).abs() < 1e-9); // NRMSE 0.01 ⇔ 40 dB
    /// ```
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn between<T: Scalar>(original: &Field<T>, reconstructed: &Field<T>) -> Self {
        assert_eq!(
            original.shape(),
            reconstructed.shape(),
            "distortion between differently shaped fields"
        );
        let vr = original.value_range();
        let mut sum_sq = 0.0f64;
        let mut count = 0usize;
        for (&x, &y) in original
            .as_slice()
            .iter()
            .zip(reconstructed.as_slice().iter())
        {
            let xf = x.to_f64();
            if !xf.is_finite() {
                continue;
            }
            let d = xf - y.to_f64();
            sum_sq += d * d;
            count += 1;
        }
        Distortion {
            mse: if count > 0 {
                sum_sq / count as f64
            } else {
                0.0
            },
            value_range: vr,
            count,
        }
    }

    /// Root mean squared error.
    pub fn rmse(&self) -> f64 {
        self.mse.sqrt()
    }

    /// Normalized RMSE, `√MSE / vr` (paper Eq. 4). Infinite when the
    /// original field is constant yet distorted.
    pub fn nrmse(&self) -> f64 {
        if self.mse == 0.0 {
            0.0
        } else if self.value_range == 0.0 {
            f64::INFINITY
        } else {
            self.rmse() / self.value_range
        }
    }

    /// Peak signal-to-noise ratio, `−20·log₁₀(NRMSE)` (paper Eq. 5).
    /// Infinite for exact reconstructions.
    pub fn psnr(&self) -> f64 {
        let nrmse = self.nrmse();
        if nrmse == 0.0 {
            f64::INFINITY
        } else {
            -20.0 * nrmse.log10()
        }
    }
}

/// MSE between two raw sample slices (used where fields are unnecessary,
/// e.g. comparing prediction-error streams for the Theorem-1 check).
///
/// # Panics
/// Panics when the slices differ in length.
pub fn mse_slices(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse over mismatched slices");
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum();
    sum / a.len() as f64
}

/// PSNR computed from an MSE and a value range — the *predicted* PSNR path
/// (paper Eq. 5 applied to the Eq. 3/6 MSE estimate).
pub fn psnr_from_mse(mse: f64, value_range: f64) -> f64 {
    if mse <= 0.0 {
        return f64::INFINITY;
    }
    if value_range <= 0.0 {
        return f64::NEG_INFINITY;
    }
    -10.0 * (mse / (value_range * value_range)).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndfield::Shape;

    #[test]
    fn identical_fields_have_infinite_psnr() {
        let f = Field::from_fn_2d(10, 10, |i, j| (i * j) as f32);
        let d = Distortion::between(&f, &f);
        assert_eq!(d.mse, 0.0);
        assert_eq!(d.psnr(), f64::INFINITY);
        assert_eq!(d.nrmse(), 0.0);
    }

    #[test]
    fn known_mse_hand_computed() {
        let a = Field::from_vec(Shape::D1(4), vec![0.0f32, 1.0, 2.0, 3.0]);
        let b = Field::from_vec(Shape::D1(4), vec![0.5f32, 1.0, 2.5, 3.0]);
        let d = Distortion::between(&a, &b);
        assert!((d.mse - 0.125).abs() < 1e-12);
        assert_eq!(d.value_range, 3.0);
        // NRMSE = sqrt(0.125)/3
        assert!((d.nrmse() - 0.125f64.sqrt() / 3.0).abs() < 1e-12);
    }

    #[test]
    fn psnr_matches_closed_form() {
        // NRMSE = 0.01 ⇒ PSNR = 40 dB exactly.
        let a = Field::from_vec(Shape::D1(2), vec![0.0f64, 1.0]);
        let b = Field::from_vec(Shape::D1(2), vec![0.01f64, 1.01]);
        let d = Distortion::between(&a, &b);
        assert!((d.psnr() - 40.0).abs() < 1e-9, "psnr {}", d.psnr());
    }

    #[test]
    fn non_finite_originals_excluded() {
        let a = Field::from_vec(Shape::D1(3), vec![f32::NAN, 1.0, 2.0]);
        let b = Field::from_vec(Shape::D1(3), vec![0.0f32, 1.0, 2.0]);
        let d = Distortion::between(&a, &b);
        assert_eq!(d.count, 2);
        assert_eq!(d.mse, 0.0);
    }

    #[test]
    #[should_panic(expected = "differently shaped")]
    fn shape_mismatch_panics() {
        let a = Field::<f32>::zeros(Shape::D1(3));
        let b = Field::<f32>::zeros(Shape::D1(4));
        Distortion::between(&a, &b);
    }

    #[test]
    fn psnr_from_mse_consistent_with_distortion() {
        let a = Field::from_vec(Shape::D1(4), vec![0.0f64, 2.0, 5.0, 10.0]);
        let b = Field::from_vec(Shape::D1(4), vec![0.1f64, 2.1, 4.95, 10.0]);
        let d = Distortion::between(&a, &b);
        let direct = d.psnr();
        let via = psnr_from_mse(d.mse, d.value_range);
        assert!((direct - via).abs() < 1e-12);
    }

    #[test]
    fn mse_slices_basic() {
        assert_eq!(mse_slices(&[1.0, 2.0], &[1.0, 4.0]), 2.0);
        assert_eq!(mse_slices(&[], &[]), 0.0);
    }

    #[test]
    fn constant_original_distorted_is_degenerate() {
        let a = Field::from_vec(Shape::D1(3), vec![1.0f32; 3]);
        let b = Field::from_vec(Shape::D1(3), vec![1.0f32, 1.5, 1.0]);
        let d = Distortion::between(&a, &b);
        assert_eq!(d.nrmse(), f64::INFINITY);
    }
}
