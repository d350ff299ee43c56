//! Autocorrelation of compression errors.
//!
//! A good error-bounded compressor leaves *white* (uncorrelated) errors;
//! structured residuals bias downstream statistics even when the PSNR looks
//! fine, which is why the SZ line of papers reports the lag-k
//! autocorrelation of `X − X̃` alongside PSNR.

use ndfield::{Field, Scalar};

/// Lag-`k` sample autocorrelation of a series (Pearson between the series
/// and its `k`-shifted self). Returns 0 for degenerate inputs (shorter than
/// `k + 2` samples or zero variance).
pub fn autocorrelation(series: &[f64], lag: usize) -> f64 {
    if series.len() < lag + 2 {
        return 0.0;
    }
    let n = series.len();
    let mean = series.iter().sum::<f64>() / n as f64;
    let var: f64 = series.iter().map(|v| (v - mean) * (v - mean)).sum();
    if var == 0.0 {
        return 0.0;
    }
    let cov: f64 = (0..n - lag)
        .map(|i| (series[i] - mean) * (series[i + lag] - mean))
        .sum();
    cov / var
}

/// Pointwise compression errors `x − x̃` over finite originals, in scan
/// order (the series the autocorrelation is evaluated on).
pub fn error_series<T: Scalar>(original: &Field<T>, reconstructed: &Field<T>) -> Vec<f64> {
    assert_eq!(
        original.shape(),
        reconstructed.shape(),
        "error series between differently shaped fields"
    );
    original
        .as_slice()
        .iter()
        .zip(reconstructed.as_slice())
        .filter(|(x, _)| x.to_f64().is_finite())
        .map(|(x, y)| x.to_f64() - y.to_f64())
        .collect()
}

/// Lag-1 autocorrelation of the compression errors — the headline number
/// SZ evaluations quote (|value| ≲ 0.1 reads as "effectively white").
pub fn error_autocorrelation<T: Scalar>(original: &Field<T>, reconstructed: &Field<T>) -> f64 {
    autocorrelation(&error_series(original, reconstructed), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndfield::Shape;

    #[test]
    fn white_noise_has_low_autocorrelation() {
        // Deterministic LCG noise: lag-1 autocorrelation near zero.
        let mut x = 123456789u64;
        let series: Vec<f64> = (0..10_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        let r = autocorrelation(&series, 1);
        assert!(r.abs() < 0.05, "white noise r1 = {r}");
    }

    #[test]
    fn constant_offset_sine_has_high_autocorrelation() {
        let series: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
        let r = autocorrelation(&series, 1);
        assert!(r > 0.99, "slow sine r1 = {r}");
    }

    #[test]
    fn alternating_series_is_anticorrelated() {
        let series: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let r = autocorrelation(&series, 1);
        assert!(r < -0.99, "alternation r1 = {r}");
        let r2 = autocorrelation(&series, 2);
        assert!(r2 > 0.99, "alternation r2 = {r2}");
    }

    #[test]
    fn degenerate_inputs_are_zero() {
        assert_eq!(autocorrelation(&[], 1), 0.0);
        assert_eq!(autocorrelation(&[1.0, 2.0], 1), 0.0);
        assert_eq!(autocorrelation(&[3.0; 100], 1), 0.0);
    }

    #[test]
    fn error_series_skips_non_finite_originals() {
        let a = Field::from_vec(Shape::D1(3), vec![1.0f32, f32::NAN, 3.0]);
        let b = Field::from_vec(Shape::D1(3), vec![1.5f32, 0.0, 2.5]);
        let s = error_series(&a, &b);
        assert_eq!(s.len(), 2);
        assert!((s[0] + 0.5).abs() < 1e-6);
        assert!((s[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn identical_fields_have_zero_error_autocorrelation() {
        let f = Field::from_fn_2d(10, 10, |i, j| (i * j) as f32);
        assert_eq!(error_autocorrelation(&f, &f), 0.0);
    }
}
