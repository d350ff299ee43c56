//! Small statistics the benchmark relies on: a seeded generator, the Zipf
//! sampler behind the region-read workload, the quiet level of repeated
//! timings and the percentile rule.

/// SplitMix64: a tiny, fully deterministic generator (inputs depend only
/// on `--seed`).
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf distribution over ranks `0..n`: `P(rank r) ∝ (r + 1)^-s`, sampled
/// by inverting the cumulative weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += ((r + 1) as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Samples that must lie beyond a reported percentile: a p99 from fewer
/// than 1000 samples would rest on fewer than ten observations.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count for which [`percentile`] reports `q`.
pub fn samples_needed(q: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize
}

/// The `q`-quantile (nearest rank) of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "quantile must be in [0, 1)");
    if values.len() < samples_needed(q) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Share of the pooled, normalised repetition times that [`Reps`] takes as
/// the quiet level.
pub const QUIET_QUANTILE: f64 = 0.005;

/// Times of each unit of work over its repetitions, and their quiet level.
///
/// A unit is one call repeated with the same input and the same output
/// (one field's compress, the k-th read of a fixed read sequence). On a
/// shared host most repetitions run slowed by contention, by a factor that
/// comes and goes with the neighbours' load, and only brief quiet moments
/// show the program's own speed. Each repetition is divided by its unit's
/// median, which puts every unit on one scale; the [`QUIET_QUANTILE`] of
/// those ratios, pooled over all units and weighted by each unit's share
/// of the median total, is the quiet factor, and a unit's quiet time is its
/// median times that factor. Pooling lets units that repeat only a few
/// times share the quiet moments any unit saw; the weights keep short
/// units, whose ratios scatter more, from setting the factor for long ones.
#[derive(Default, Clone)]
pub struct Reps {
    secs: Vec<Vec<f64>>,
}

impl Reps {
    pub fn record(&mut self, unit: usize, secs: f64) {
        if self.secs.len() <= unit {
            self.secs.resize(unit + 1, Vec::new());
        }
        self.secs[unit].push(secs);
    }

    /// Each unit's quiet time, in unit order (infinite for a unit that
    /// never ran).
    pub fn quiet_units(&self) -> Vec<f64> {
        let medians: Vec<f64> = self
            .secs
            .iter()
            .map(|v| {
                if v.is_empty() {
                    f64::INFINITY
                } else {
                    median(v)
                }
            })
            .collect();
        // (ratio to the unit's median, weight) of every repetition.
        let mut ratios: Vec<(f64, f64)> = self
            .secs
            .iter()
            .zip(&medians)
            .flat_map(|(v, &m)| v.iter().map(move |&t| (t / m, m / v.len() as f64)))
            .collect();
        if ratios.is_empty() {
            return medians;
        }
        ratios.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: f64 = ratios.iter().map(|r| r.1).sum();
        let mut acc = 0.0;
        let factor = ratios
            .iter()
            .find(|r| {
                acc += r.1;
                acc >= QUIET_QUANTILE * total
            })
            .map_or(ratios[0].0, |r| r.0);
        medians.iter().map(|m| m * factor).collect()
    }

    /// Sum of the units' quiet times.
    pub fn quiet_total(&self) -> f64 {
        self.quiet_units().iter().sum()
    }

    pub fn units(&self) -> usize {
        self.secs.len()
    }

    /// The fewest repetitions any unit got.
    pub fn min_reps(&self) -> usize {
        self.secs.iter().map(Vec::len).min().unwrap_or(0)
    }
}

/// Median of a sample (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let z = Zipf::new(1000, 1.1);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..500).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_rank_frequencies_follow_the_exponent() {
        let s = 1.1;
        let z = Zipf::new(2000, s);
        let mut rng = SplitMix64::new(42);
        let mut counts = vec![0u64; 2000];
        let draws = 400_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        // Least-squares slope of ln(count) against ln(rank) over the ranks
        // with plenty of mass must recover -s.
        let pts: Vec<(f64, f64)> = (0..32)
            .map(|r| (((r + 1) as f64).ln(), (counts[r] as f64).ln()))
            .collect();
        let n = pts.len() as f64;
        let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
        let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
        let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
        let slope = sxy / sxx;
        assert!((slope + s).abs() < 0.05, "slope {slope}");
        // Rank 0 over rank 1 is 2^s in expectation.
        let r01 = counts[0] as f64 / counts[1] as f64;
        assert!((r01 - 2f64.powf(s)).abs() < 0.05, "ratio {r01}");
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
    }

    #[test]
    fn quiet_level_is_pooled_over_units() {
        // Two units, one twice as costly; both run 1.5x slowed except for
        // three quiet repetitions of unit 0. Unit 1 never ran quiet, yet
        // its quiet time follows from the shared factor.
        let mut r = Reps::default();
        for rep in 0..100 {
            let slow = if rep % 40 == 7 { 1.0 } else { 1.5 };
            r.record(0, 1.0 * slow);
            r.record(1, 2.0 * 1.5);
        }
        assert_eq!(r.quiet_units(), vec![1.0, 2.0]);
        assert_eq!(r.quiet_total(), 3.0);
        assert_eq!(r.min_reps(), 100);
        // A unit with few repetitions on its own: the minimum.
        let mut one = Reps::default();
        for t in [3.0, 2.0, 5.0, 4.0] {
            one.record(0, t);
        }
        assert_eq!(one.quiet_total(), 2.0);
        assert_eq!(Reps::default().quiet_total(), 0.0);
    }

    #[test]
    fn short_units_do_not_set_the_quiet_factor() {
        // A 1000x shorter unit whose ratios scatter down to 0.1 carries
        // 1/1001 of the weight, below the quiet quantile: the long unit's
        // steady repetitions set the factor.
        let mut r = Reps::default();
        for rep in 0..50 {
            r.record(0, 1.0);
            r.record(1, if rep % 10 == 0 { 1e-4 } else { 1e-3 });
        }
        assert_eq!(r.quiet_units(), vec![1.0, 1e-3]);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
