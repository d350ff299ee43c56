//! Streaming field statistics.
//!
//! The fixed-PSNR bound derivation (paper Eq. 7–8) needs exactly one data
//! statistic: the value range `vr = max − min`. SZ computes it in a single
//! pass before compression; we do the same, and count the non-finite
//! samples the pointwise-relative mode carries aside.

/// One-pass statistics over the finite samples of a field.
///
/// Non-finite samples (NaN/±inf) are counted but excluded from min/max,
/// matching how SZ handles fill values in practice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FieldStats {
    /// Number of finite samples.
    pub count: usize,
    /// Number of non-finite samples skipped.
    pub non_finite: usize,
    /// Minimum finite sample (`+inf` when `count == 0`).
    pub min: f64,
    /// Maximum finite sample (`−inf` when `count == 0`).
    pub max: f64,
}

impl FieldStats {
    /// Compute statistics from an iterator of samples in one pass.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut count = 0usize;
        let mut non_finite = 0usize;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in samples {
            if !v.is_finite() {
                non_finite += 1;
                continue;
            }
            count += 1;
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        FieldStats {
            count,
            non_finite,
            min,
            max,
        }
    }

    /// Value range `max − min` (0 when fewer than two finite samples).
    pub fn range(&self) -> f64 {
        if self.count == 0 || self.max <= self.min {
            0.0
        } else {
            self.max - self.min
        }
    }
}

/// Mean and sample standard deviation of a slice — the `AVG` / `STDEV`
/// columns of the paper's Table II (computed over the achieved PSNRs of all
/// fields in a data set).
///
/// Uses the *sample* (n−1) standard deviation, the convention spreadsheet
/// `STDEV` uses. Returns `(0, 0)` for empty input and `(mean, 0)` for a
/// single value.
pub fn mean_stdev(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let ss = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>();
    (mean, (ss / (n - 1.0)).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = FieldStats::from_samples(std::iter::empty());
        assert_eq!((s.count, s.non_finite), (0, 0));
        assert_eq!((s.min, s.max), (f64::INFINITY, f64::NEG_INFINITY));
        assert_eq!(s.range(), 0.0);
    }

    #[test]
    fn min_max_and_range() {
        let s = FieldStats::from_samples([3.0, -1.5, 4.0, 1.0]);
        assert_eq!((s.count, s.non_finite), (4, 0));
        assert_eq!((s.min, s.max), (-1.5, 4.0));
        assert_eq!(s.range(), 5.5);
    }

    #[test]
    fn skips_non_finite() {
        let s = FieldStats::from_samples([
            f64::NAN,
            1.0,
            f64::INFINITY,
            3.0,
            f64::NEG_INFINITY,
            -f64::NAN,
        ]);
        assert_eq!((s.count, s.non_finite), (2, 4));
        assert_eq!((s.min, s.max), (1.0, 3.0));
        assert_eq!(s.range(), 2.0);
        let all_bad = FieldStats::from_samples([f64::NAN, f64::INFINITY]);
        assert_eq!((all_bad.count, all_bad.non_finite), (0, 2));
        assert_eq!(all_bad.range(), 0.0);
    }

    #[test]
    fn signed_zeros_have_zero_range() {
        let s = FieldStats::from_samples([0.0, -0.0, 0.0]);
        assert_eq!(s.count, 3);
        assert_eq!((s.min, s.max), (0.0, 0.0));
        assert_eq!(s.range(), 0.0);
        assert!(s.range().is_sign_positive());
    }

    #[test]
    fn subnormals_are_finite_samples() {
        let tiny = f64::from_bits(1); // smallest positive subnormal
        let s = FieldStats::from_samples([tiny, -tiny, 0.0]);
        assert_eq!((s.count, s.non_finite), (3, 0));
        assert_eq!((s.min, s.max), (-tiny, tiny));
        assert_eq!(s.range(), 2.0 * tiny);
        assert!(s.range() > 0.0);
    }

    #[test]
    fn constant_field_has_zero_range() {
        let s = FieldStats::from_samples([5.0; 10]);
        assert_eq!((s.min, s.max), (5.0, 5.0));
        assert_eq!(s.range(), 0.0);
    }

    #[test]
    fn mean_stdev_matches_hand_computation() {
        let (m, sd) = mean_stdev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        // Sample stdev of this classic example is sqrt(32/7).
        assert!((sd - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mean_stdev_degenerate_inputs() {
        assert_eq!(mean_stdev(&[]), (0.0, 0.0));
        assert_eq!(mean_stdev(&[3.0]), (3.0, 0.0));
    }
}
