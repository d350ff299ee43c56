//! Pointwise error measures (the bounds SZ's other modes control).

use ndfield::{Field, Scalar};

/// Pointwise error summary between an original field and a reconstruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointwiseError {
    /// Maximum absolute error over finite originals.
    pub max_abs: f64,
    /// Mean absolute error.
    pub mean_abs: f64,
    /// Maximum pointwise relative error `|x−x̃| / |x|` over samples with
    /// `x ≠ 0` (SZ's pointwise-relative target).
    pub max_rel: f64,
    /// Maximum value-range-relative error `|x−x̃| / vr` (SZ's `ebrel`).
    pub max_range_rel: f64,
    /// Samples compared (finite originals).
    pub count: usize,
}

impl PointwiseError {
    /// Compare two equally shaped fields.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn between<T: Scalar>(original: &Field<T>, reconstructed: &Field<T>) -> Self {
        assert_eq!(
            original.shape(),
            reconstructed.shape(),
            "pointwise error between differently shaped fields"
        );
        let vr = original.value_range();
        let mut max_abs = 0.0f64;
        let mut sum_abs = 0.0f64;
        let mut max_rel = 0.0f64;
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
            let d = (xf - y.to_f64()).abs();
            if d > max_abs {
                max_abs = d;
            }
            sum_abs += d;
            if xf != 0.0 {
                let rel = d / xf.abs();
                if rel > max_rel {
                    max_rel = rel;
                }
            }
            count += 1;
        }
        PointwiseError {
            max_abs,
            mean_abs: if count > 0 {
                sum_abs / count as f64
            } else {
                0.0
            },
            max_rel,
            max_range_rel: if vr > 0.0 { max_abs / vr } else { 0.0 },
            count,
        }
    }

    /// `true` when every finite sample satisfies `|x−x̃| ≤ eb` (with a tiny
    /// round-off allowance of 1 ulp-scale slack).
    pub fn respects_abs_bound(&self, eb: f64) -> bool {
        self.max_abs <= eb * (1.0 + 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndfield::Shape;

    #[test]
    fn hand_computed_errors() {
        let a = Field::from_vec(Shape::D1(4), vec![1.0f64, 2.0, -4.0, 0.0]);
        let b = Field::from_vec(Shape::D1(4), vec![1.1f64, 2.0, -4.2, 0.05]);
        let e = PointwiseError::between(&a, &b);
        assert!((e.max_abs - 0.2).abs() < 1e-12);
        assert!((e.mean_abs - (0.1 + 0.2 + 0.05) / 4.0).abs() < 1e-12);
        // max_rel: 0.1/1 = 0.1 vs 0.2/4 = 0.05 ⇒ 0.1 (zero sample skipped).
        assert!((e.max_rel - 0.1).abs() < 1e-12);
        // vr = 6 ⇒ max range-rel = 0.2/6.
        assert!((e.max_range_rel - 0.2 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn bound_check_with_roundoff_slack() {
        let e = PointwiseError {
            max_abs: 1.0 + 1e-13,
            mean_abs: 0.0,
            max_rel: 0.0,
            max_range_rel: 0.0,
            count: 1,
        };
        assert!(e.respects_abs_bound(1.0));
        assert!(!e.respects_abs_bound(0.5));
    }

    #[test]
    fn nan_original_skipped() {
        let a = Field::from_vec(Shape::D1(2), vec![f32::NAN, 1.0]);
        let b = Field::from_vec(Shape::D1(2), vec![9.0f32, 1.0]);
        let e = PointwiseError::between(&a, &b);
        assert_eq!(e.count, 1);
        assert_eq!(e.max_abs, 0.0);
    }

    #[test]
    fn identical_fields_are_zero_error() {
        let a = Field::from_fn_2d(5, 5, |i, j| (i + j) as f32);
        let e = PointwiseError::between(&a, &a);
        assert_eq!(e.max_abs, 0.0);
        assert_eq!(e.max_rel, 0.0);
        assert_eq!(e.count, 25);
    }
}
