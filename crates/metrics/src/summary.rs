//! Per-data-set aggregation — the AVG/STDEV columns of Table II and the
//! per-field meet-rate of Fig. 2 — plus the snapshot-level budget
//! accounting the global bit-allocation driver reports.

use ndfield::stats::mean_stdev;

/// Structured cause of a failed per-field run.
///
/// A 79-field snapshot must not abort because one field is degenerate, so
/// batch drivers report failures per field instead of propagating them —
/// but "achieved PSNR = NaN" alone tells an operator nothing. This pairs
/// the pipeline stage that failed with the underlying error message, so
/// the cause survives aggregation and lands in reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldFailure {
    /// Pipeline stage that failed (`"compress"`, `"decompress"`,
    /// `"pilot"`, ...).
    pub stage: &'static str,
    /// Human-readable cause (the underlying error's message).
    pub detail: String,
}

impl std::fmt::Display for FieldFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} failed: {}", self.stage, self.detail)
    }
}

/// Result of one fixed-PSNR run on one field.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldOutcome {
    /// Field name (e.g. `"CLDHGH"`).
    pub field: String,
    /// PSNR the user requested before compression.
    pub target_psnr: f64,
    /// PSNR measured after decompression.
    pub achieved_psnr: f64,
    /// Compression ratio achieved.
    pub ratio: f64,
    /// Why the run failed, when it did (`achieved_psnr` is NaN then).
    pub failure: Option<FieldFailure>,
}

impl FieldOutcome {
    /// Whether this field "meets" the demand in the paper's sense: achieved
    /// PSNR equal or higher than the user-set PSNR. Failed fields never
    /// meet (their achieved PSNR is NaN).
    pub fn meets_target(&self) -> bool {
        self.failure.is_none() && self.achieved_psnr >= self.target_psnr
    }

    /// Signed deviation `achieved − target` in dB.
    pub fn deviation(&self) -> f64 {
        self.achieved_psnr - self.target_psnr
    }
}

/// Aggregate of all fields of a data set at one target PSNR — one cell pair
/// of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    /// Data set name (NYX / ATM / Hurricane).
    pub dataset: String,
    /// User-set PSNR.
    pub target_psnr: f64,
    /// Average achieved PSNR (Table II "AVG").
    pub avg: f64,
    /// Sample standard deviation of achieved PSNRs (Table II "STDEV").
    pub stdev: f64,
    /// Fraction of fields with achieved ≥ target (Fig. 2 meet-rate).
    pub meet_rate: f64,
    /// Mean absolute deviation |achieved − target| in dB.
    pub mean_abs_deviation: f64,
    /// Number of fields aggregated.
    pub n_fields: usize,
}

impl DatasetSummary {
    /// Aggregate per-field outcomes (all sharing one target PSNR).
    ///
    /// Fields whose achieved PSNR is non-finite (e.g. exact reconstruction
    /// of a constant field) are excluded from AVG/STDEV but still count
    /// toward the meet rate (an exact reconstruction trivially meets any
    /// target).
    pub fn aggregate(dataset: &str, target_psnr: f64, outcomes: &[FieldOutcome]) -> Self {
        let finite: Vec<f64> = outcomes
            .iter()
            .map(|o| o.achieved_psnr)
            .filter(|p| p.is_finite())
            .collect();
        let (avg, stdev) = mean_stdev(&finite);
        let met = outcomes
            .iter()
            .filter(|o| o.achieved_psnr >= target_psnr || o.achieved_psnr == f64::INFINITY)
            .count();
        let mad = if finite.is_empty() {
            0.0
        } else {
            finite.iter().map(|p| (p - target_psnr).abs()).sum::<f64>() / finite.len() as f64
        };
        DatasetSummary {
            dataset: dataset.to_string(),
            target_psnr,
            avg,
            stdev,
            meet_rate: if outcomes.is_empty() {
                0.0
            } else {
                met as f64 / outcomes.len() as f64
            },
            mean_abs_deviation: mad,
            n_fields: outcomes.len(),
        }
    }
}

/// Per-field record of one snapshot-level bit-allocation run — what the
/// allocator assigned, what the compressor delivered, and how many real
/// compression passes it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocFieldStat {
    /// Field name.
    pub field: String,
    /// PSNR target the allocator assigned (NaN for quarantined fields —
    /// degenerate inputs compressed outside the optimization).
    pub assigned_psnr: f64,
    /// PSNR measured after decompression (∞ for exactly-reconstructed
    /// constant fields, NaN for failed fields).
    pub achieved_psnr: f64,
    /// Bytes the rate model predicted for the assigned target (NaN for
    /// quarantined fields, which never enter the model).
    pub predicted_bytes: f64,
    /// Bytes the final container actually occupies (0 for failed fields).
    pub achieved_bytes: u64,
    /// Raw (uncompressed) bytes of the field.
    pub raw_bytes: u64,
    /// Real compression passes spent on this field (pilot excluded).
    pub passes: u32,
    /// Whether the field was quarantined out of the allocation problem.
    pub quarantined: bool,
}

/// Aggregate of one snapshot-level allocation run: budget compliance,
/// utilization, and the min-PSNR the `maximize min PSNR` objective
/// optimizes.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotSummary {
    /// The global byte budget the allocator solved against.
    pub budget_bytes: u64,
    /// Total bytes of every produced container (quarantined included).
    pub total_bytes: u64,
    /// `total_bytes / budget_bytes`.
    pub utilization: f64,
    /// Smallest assigned PSNR over allocated (non-quarantined) fields.
    pub min_assigned_psnr: f64,
    /// Smallest *finite* achieved PSNR over allocated fields.
    pub min_achieved_psnr: f64,
    /// Aggregate compression ratio, `Σ raw / Σ achieved`.
    pub aggregate_ratio: f64,
    /// Largest per-field pass count.
    pub max_passes: u32,
    /// Total compression passes across the snapshot.
    pub total_passes: u64,
    /// Fields in the snapshot.
    pub n_fields: usize,
    /// Fields quarantined out of the allocation.
    pub n_quarantined: usize,
}

impl SnapshotSummary {
    /// Aggregate per-field allocation stats against the budget.
    ///
    /// Empty snapshots yield zero totals with NaN min-PSNRs; quarantined
    /// fields count toward bytes (they still occupy storage) but not
    /// toward the min-PSNR columns (the allocator never controlled them).
    pub fn aggregate(budget_bytes: u64, stats: &[AllocFieldStat]) -> Self {
        let total_bytes: u64 = stats.iter().map(|s| s.achieved_bytes).sum();
        let raw_total: u64 = stats.iter().map(|s| s.raw_bytes).sum();
        let allocated = || stats.iter().filter(|s| !s.quarantined);
        let min_assigned = allocated()
            .map(|s| s.assigned_psnr)
            .filter(|p| p.is_finite())
            .fold(f64::NAN, f64::min);
        let min_achieved = allocated()
            .map(|s| s.achieved_psnr)
            .filter(|p| p.is_finite())
            .fold(f64::NAN, f64::min);
        SnapshotSummary {
            budget_bytes,
            total_bytes,
            utilization: if budget_bytes == 0 {
                f64::NAN
            } else {
                total_bytes as f64 / budget_bytes as f64
            },
            min_assigned_psnr: min_assigned,
            min_achieved_psnr: min_achieved,
            aggregate_ratio: if total_bytes == 0 {
                f64::NAN
            } else {
                raw_total as f64 / total_bytes as f64
            },
            max_passes: stats.iter().map(|s| s.passes).max().unwrap_or(0),
            total_passes: stats.iter().map(|s| s.passes as u64).sum(),
            n_fields: stats.len(),
            n_quarantined: stats.iter().filter(|s| s.quarantined).count(),
        }
    }

    /// Whether the run stayed within `budget · (1 + tolerance)`.
    pub fn within_budget(&self, tolerance: f64) -> bool {
        self.total_bytes as f64 <= self.budget_bytes as f64 * (1.0 + tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(achieved: f64, target: f64) -> FieldOutcome {
        FieldOutcome {
            field: "F".into(),
            target_psnr: target,
            achieved_psnr: achieved,
            ratio: 10.0,
            failure: None,
        }
    }

    #[test]
    fn meets_target_semantics() {
        assert!(outcome(80.2, 80.0).meets_target());
        assert!(outcome(80.0, 80.0).meets_target());
        assert!(!outcome(79.9, 80.0).meets_target());
    }

    #[test]
    fn aggregate_avg_stdev() {
        let outs: Vec<FieldOutcome> = [80.0, 81.0, 82.0]
            .iter()
            .map(|&p| outcome(p, 80.0))
            .collect();
        let s = DatasetSummary::aggregate("ATM", 80.0, &outs);
        assert!((s.avg - 81.0).abs() < 1e-12);
        assert!((s.stdev - 1.0).abs() < 1e-12);
        assert_eq!(s.meet_rate, 1.0);
        assert_eq!(s.n_fields, 3);
        assert!((s.mean_abs_deviation - 1.0).abs() < 1e-12);
    }

    #[test]
    fn meet_rate_counts_failures() {
        let outs = vec![outcome(79.0, 80.0), outcome(81.0, 80.0)];
        let s = DatasetSummary::aggregate("ATM", 80.0, &outs);
        assert_eq!(s.meet_rate, 0.5);
    }

    #[test]
    fn infinite_psnr_meets_but_excluded_from_avg() {
        let outs = vec![outcome(f64::INFINITY, 80.0), outcome(80.0, 80.0)];
        let s = DatasetSummary::aggregate("ATM", 80.0, &outs);
        assert_eq!(s.meet_rate, 1.0);
        assert!((s.avg - 80.0).abs() < 1e-12);
    }

    #[test]
    fn empty_aggregate_is_sane() {
        let s = DatasetSummary::aggregate("X", 40.0, &[]);
        assert_eq!(s.n_fields, 0);
        assert_eq!(s.meet_rate, 0.0);
    }

    #[test]
    fn failed_outcome_never_meets_and_displays_cause() {
        let mut o = outcome(f64::NAN, 80.0);
        o.failure = Some(FieldFailure {
            stage: "compress",
            detail: "bad bound".into(),
        });
        assert!(!o.meets_target());
        assert_eq!(
            o.failure.as_ref().unwrap().to_string(),
            "compress failed: bad bound"
        );
    }

    fn stat(assigned: f64, achieved: f64, bytes: u64, passes: u32) -> AllocFieldStat {
        AllocFieldStat {
            field: "F".into(),
            assigned_psnr: assigned,
            achieved_psnr: achieved,
            predicted_bytes: bytes as f64,
            achieved_bytes: bytes,
            raw_bytes: bytes * 16,
            passes,
            quarantined: false,
        }
    }

    #[test]
    fn snapshot_summary_aggregates_budget_and_minima() {
        let stats = vec![
            stat(62.0, 63.1, 400, 1),
            stat(62.0, 62.4, 500, 2),
            AllocFieldStat {
                quarantined: true,
                assigned_psnr: f64::NAN,
                achieved_psnr: f64::INFINITY,
                ..stat(0.0, 0.0, 50, 1)
            },
        ];
        let s = SnapshotSummary::aggregate(1000, &stats);
        assert_eq!(s.total_bytes, 950);
        assert!((s.utilization - 0.95).abs() < 1e-12);
        assert!((s.min_assigned_psnr - 62.0).abs() < 1e-12);
        assert!((s.min_achieved_psnr - 62.4).abs() < 1e-12);
        assert_eq!(s.max_passes, 2);
        assert_eq!(s.total_passes, 4);
        assert_eq!(s.n_fields, 3);
        assert_eq!(s.n_quarantined, 1);
        assert!((s.aggregate_ratio - 16.0).abs() < 1e-12);
        assert!(s.within_budget(0.0));
        let over = SnapshotSummary::aggregate(900, &stats);
        assert!(!over.within_budget(0.02));
        assert!(over.within_budget(0.06));
    }

    #[test]
    fn empty_snapshot_summary_is_sane() {
        let s = SnapshotSummary::aggregate(100, &[]);
        assert_eq!(s.total_bytes, 0);
        assert_eq!(s.n_fields, 0);
        assert!(s.min_achieved_psnr.is_nan());
        assert!(s.aggregate_ratio.is_nan());
    }
}
