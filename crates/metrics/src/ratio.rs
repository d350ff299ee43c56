//! Compression-ratio and bit-rate accounting.

/// Size accounting for one compression run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateStats {
    /// Uncompressed payload size in bytes.
    pub original_bytes: usize,
    /// Compressed container size in bytes.
    pub compressed_bytes: usize,
    /// Number of samples.
    pub n_samples: usize,
}

impl RateStats {
    /// Build from sample count, per-sample size and container size.
    pub fn new(n_samples: usize, sample_bytes: usize, compressed_bytes: usize) -> Self {
        RateStats {
            original_bytes: n_samples * sample_bytes,
            compressed_bytes,
            n_samples,
        }
    }

    /// Compression ratio `original / compressed` (∞-safe: 0-byte output
    /// reports as `f64::INFINITY`).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            f64::INFINITY
        } else {
            self.original_bytes as f64 / self.compressed_bytes as f64
        }
    }

    /// Bit rate in bits per sample.
    pub fn bit_rate(&self) -> f64 {
        if self.n_samples == 0 {
            0.0
        } else {
            self.compressed_bytes as f64 * 8.0 / self.n_samples as f64
        }
    }

    /// Space saving as a fraction in `[0, 1)` (negative if inflated).
    pub fn space_saving(&self) -> f64 {
        1.0 - self.compressed_bytes as f64 / self.original_bytes.max(1) as f64
    }

    /// Merge accounting across fields of a data set.
    pub fn combine(&self, other: &RateStats) -> RateStats {
        RateStats {
            original_bytes: self.original_bytes + other.original_bytes,
            compressed_bytes: self.compressed_bytes + other.compressed_bytes,
            n_samples: self.n_samples + other.n_samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_bitrate() {
        let r = RateStats::new(1000, 4, 500);
        assert_eq!(r.original_bytes, 4000);
        assert_eq!(r.ratio(), 8.0);
        assert_eq!(r.bit_rate(), 4.0);
        assert!((r.space_saving() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn zero_compressed_is_infinite_ratio() {
        let r = RateStats::new(10, 4, 0);
        assert_eq!(r.ratio(), f64::INFINITY);
    }

    #[test]
    fn combine_accumulates() {
        let a = RateStats::new(100, 4, 50);
        let b = RateStats::new(300, 4, 150);
        let c = a.combine(&b);
        assert_eq!(c.n_samples, 400);
        assert_eq!(c.original_bytes, 1600);
        assert_eq!(c.compressed_bytes, 200);
        assert_eq!(c.ratio(), 8.0);
    }

    #[test]
    fn inflation_reports_negative_saving() {
        let r = RateStats::new(10, 4, 80);
        assert!(r.space_saving() < 0.0);
    }
}
