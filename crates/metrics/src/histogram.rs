//! Uniform-bin histograms / empirical pdfs.
//!
//! Fig. 1 of the paper plots the probability distribution of SZ's
//! prediction errors for an ATM field, with the uniform quantization bins
//! overlaid. [`Histogram`] produces exactly that series; it is also used by
//! the general-bin MSE estimator (Eq. 3) which integrates `δᵢ³·P(mᵢ)` over
//! an empirical `P`.

/// A uniform-bin histogram over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    clipped: u64,
}

impl Histogram {
    /// Build a histogram of `samples` with `bins` uniform bins over
    /// `[lo, hi)`. Samples outside the interval (or non-finite) are counted
    /// in `clipped` and excluded from densities.
    ///
    /// # Panics
    /// Panics when `bins == 0` or `hi ≤ lo`.
    pub fn new(samples: impl IntoIterator<Item = f64>, lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "empty histogram interval [{lo}, {hi})");
        let mut counts = vec![0u64; bins];
        let mut total = 0u64;
        let mut clipped = 0u64;
        let scale = bins as f64 / (hi - lo);
        for v in samples {
            if !v.is_finite() || v < lo || v >= hi {
                clipped += 1;
                continue;
            }
            let idx = (((v - lo) * scale) as usize).min(bins - 1);
            counts[idx] += 1;
            total += 1;
        }
        Histogram {
            lo,
            hi,
            counts,
            total,
            clipped,
        }
    }

    /// Histogram spanning the finite min/max of the samples (two passes).
    /// Falls back to `[v−0.5, v+0.5)` for constant input.
    pub fn auto(samples: &[f64], bins: usize) -> Self {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in samples {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if !(lo.is_finite() && hi.is_finite()) {
            lo = 0.0;
            hi = 1.0;
        }
        if hi <= lo {
            lo -= 0.5;
            hi += 0.5;
        } else {
            // Nudge the top edge so the max sample lands inside [lo, hi).
            hi += (hi - lo) * 1e-9 + f64::MIN_POSITIVE;
        }
        Self::new(samples.iter().copied(), lo, hi, bins)
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Raw count of bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Samples inside the interval.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples excluded (outside interval / non-finite).
    pub fn clipped(&self) -> u64 {
        self.clipped
    }

    /// Midpoint of bin `i` (the `mᵢ` of paper Eq. 3).
    pub fn midpoint(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Fraction of in-range samples in bin `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// Empirical probability *density* at bin `i` (fraction / bin width),
    /// the `P(mᵢ)` of Eq. 3 — densities integrate to 1 over the interval.
    pub fn density(&self, i: usize) -> f64 {
        self.fraction(i) / self.bin_width()
    }

    /// `(midpoint, fraction)` series — the shape plotted in Fig. 1.
    pub fn series(&self) -> Vec<(f64, f64)> {
        (0..self.bins())
            .map(|i| (self.midpoint(i), self.fraction(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_right_bins() {
        let h = Histogram::new([0.1, 0.9, 1.5, 2.5, 3.9], 0.0, 4.0, 4);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.total(), 5);
        assert_eq!(h.clipped(), 0);
    }

    #[test]
    fn out_of_range_and_nan_clipped() {
        let h = Histogram::new([-1.0, 0.5, 4.0, f64::NAN], 0.0, 4.0, 4);
        assert_eq!(h.total(), 1);
        assert_eq!(h.clipped(), 3);
    }

    #[test]
    fn fractions_sum_to_one() {
        let samples: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin()).collect();
        let h = Histogram::auto(&samples, 32);
        let sum: f64 = (0..h.bins()).map(|i| h.fraction(i)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(h.clipped(), 0);
    }

    #[test]
    fn densities_integrate_to_one() {
        let samples: Vec<f64> = (0..5000).map(|i| ((i * 37) % 100) as f64 / 25.0).collect();
        let h = Histogram::new(samples.iter().copied(), 0.0, 4.0, 16);
        let integral: f64 = (0..h.bins()).map(|i| h.density(i) * h.bin_width()).sum();
        assert!((integral - 1.0).abs() < 1e-12);
    }

    #[test]
    fn midpoints_are_centred() {
        let h = Histogram::new(std::iter::empty(), 0.0, 4.0, 4);
        assert_eq!(h.midpoint(0), 0.5);
        assert_eq!(h.midpoint(3), 3.5);
    }

    #[test]
    fn auto_includes_extremes() {
        let samples = vec![-3.0, 7.0, 1.0];
        let h = Histogram::auto(&samples, 10);
        assert_eq!(h.total(), 3);
        assert_eq!(h.clipped(), 0);
    }

    #[test]
    fn auto_handles_constant_input() {
        let h = Histogram::auto(&[2.0; 50], 8);
        assert_eq!(h.total(), 50);
    }

    #[test]
    fn series_matches_accessors() {
        let h = Histogram::new([0.5, 1.5, 1.6], 0.0, 2.0, 2);
        let s = h.series();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], (h.midpoint(0), h.fraction(0)));
        assert!((s[1].1 - 2.0 / 3.0).abs() < 1e-12);
    }
}
