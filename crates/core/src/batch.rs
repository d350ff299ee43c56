//! Parallel multi-field fixed-PSNR runs.
//!
//! The paper's motivating pain is snapshot-scale: CESM writes 100+ fields
//! per dump and each would previously need its own trial-and-error bound
//! tuning. With Eq. 8 the per-field work is a single compression, and
//! fields are independent — a textbook parallel map, run here on the
//! std::thread-backed runtime in `fpsnr-parallel`.
//!
//! [`run_batch_full`] is the primary entry point: it keeps every field's
//! compressed container and byte count (what the snapshot-level allocator
//! in [`crate::alloc`] and archival writers need), and reports per-field
//! failures with their structured cause instead of aborting the batch.
//! [`run_batch`] is the outcome-only view the evaluation harnesses use.

use crate::fixed_psnr::{compress_fixed_psnr, FixedPsnrOptions};
use fpsnr_metrics::summary::{DatasetSummary, FieldFailure, FieldOutcome};
use fpsnr_parallel::par_map;
use ndfield::{Field, Scalar};

/// One field's complete batch result: the measured outcome plus the
/// container it produced (`None` when the field failed).
#[derive(Debug, Clone)]
pub struct FieldRun {
    /// Measured outcome; `outcome.failure` carries the structured cause
    /// when the field failed (its `achieved_psnr` is NaN then).
    pub outcome: FieldOutcome,
    /// The compressed container, kept so batch callers can write or
    /// further account for it without recompressing.
    pub bytes: Option<Vec<u8>>,
}

impl FieldRun {
    /// Compressed size in bytes (0 for failed fields).
    pub fn compressed_bytes(&self) -> usize {
        self.bytes.as_ref().map_or(0, Vec::len)
    }
}

/// Run verified fixed-PSNR compression over every named field, in
/// parallel, returning per-field containers and outcomes in input order.
///
/// Fields whose compression fails (degenerate bounds, non-finite ranges)
/// are reported with `achieved_psnr = NaN` and a [`FieldFailure`] naming
/// the stage and cause, rather than aborting the batch — one bad field
/// must not sink a 79-field snapshot.
pub fn run_batch_full<T: Scalar>(
    fields: &[(String, Field<T>)],
    target_psnr: f64,
    opts: &FixedPsnrOptions,
    threads: usize,
) -> Vec<FieldRun> {
    par_map(fields, threads, |(name, field)| {
        let _field_span = fpsnr_obs::span("batch.field");
        match compress_fixed_psnr(field, target_psnr, opts) {
            Ok(run) => FieldRun {
                outcome: FieldOutcome {
                    field: name.clone(),
                    ..run.outcome
                },
                bytes: Some(run.bytes),
            },
            Err(e) => FieldRun {
                outcome: FieldOutcome {
                    field: name.clone(),
                    target_psnr,
                    achieved_psnr: f64::NAN,
                    ratio: 0.0,
                    failure: Some(FieldFailure {
                        stage: "compress",
                        detail: e.to_string(),
                    }),
                },
                bytes: None,
            },
        }
    })
}

/// [`run_batch_full`] stripped to outcomes (the evaluation view).
pub fn run_batch<T: Scalar>(
    fields: &[(String, Field<T>)],
    target_psnr: f64,
    opts: &FixedPsnrOptions,
    threads: usize,
) -> Vec<FieldOutcome> {
    run_batch_full(fields, target_psnr, opts, threads)
        .into_iter()
        .map(|r| r.outcome)
        .collect()
}

/// [`run_batch`] plus aggregation into one Table II cell.
pub fn run_batch_summary<T: Scalar>(
    dataset: &str,
    fields: &[(String, Field<T>)],
    target_psnr: f64,
    opts: &FixedPsnrOptions,
    threads: usize,
) -> (Vec<FieldOutcome>, DatasetSummary) {
    let outcomes = run_batch(fields, target_psnr, opts, threads);
    let summary = DatasetSummary::aggregate(dataset, target_psnr, &outcomes);
    (outcomes, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndfield::Shape;

    fn snapshot(n: usize) -> Vec<(String, Field<f32>)> {
        (0..n)
            .map(|k| {
                let field = Field::from_fn_2d(48, 48, move |i, j| {
                    ((i as f32 * 0.1 + k as f32).sin() + (j as f32 * 0.08).cos()) * (k + 1) as f32
                });
                (format!("field_{k}"), field)
            })
            .collect()
    }

    /// Batch options that pin a 2-axis chunk grid: fine for the 2-D
    /// snapshot fields, fatal for any lower-rank straggler.
    fn chunked_opts() -> FixedPsnrOptions {
        FixedPsnrOptions {
            chunk_dims: [16, 16, 0],
            ..Default::default()
        }
    }

    /// A field the shared batch config cannot compress: rank 1, so the
    /// snapshot-wide `chunk_dims` name an axis it does not have. (The SZ
    /// pipeline is total over NaN/Inf *values* — degenerate samples ride
    /// the escape path — so shape/config mismatch is the realistic
    /// per-field failure in a mixed snapshot.)
    fn poison() -> Field<f32> {
        let v: Vec<f32> = (0..256).map(|i| (i as f32 * 0.3).sin()).collect();
        Field::from_vec(Shape::D1(256), v)
    }

    #[test]
    fn batch_outcomes_in_input_order() {
        let fields = snapshot(8);
        let outs = run_batch(&fields, 60.0, &FixedPsnrOptions::default(), 4);
        assert_eq!(outs.len(), 8);
        for (k, o) in outs.iter().enumerate() {
            assert_eq!(o.field, format!("field_{k}"));
            assert!(o.achieved_psnr.is_finite());
            assert!(o.failure.is_none());
        }
    }

    #[test]
    fn full_batch_returns_containers_and_byte_counts() {
        let fields = snapshot(5);
        let runs = run_batch_full(&fields, 70.0, &FixedPsnrOptions::default(), 2);
        assert_eq!(runs.len(), 5);
        for run in &runs {
            let bytes = run.bytes.as_ref().expect("healthy field has a container");
            assert_eq!(run.compressed_bytes(), bytes.len());
            assert!(!bytes.is_empty());
            // The container really is the field: it decompresses to the
            // input shape.
            let back: Field<f32> = szlike::decompress(bytes).unwrap();
            assert_eq!(back.shape(), Shape::D2(48, 48));
        }
    }

    #[test]
    fn mixed_failure_snapshot_reports_cause_and_preserves_order() {
        let mut fields = snapshot(4);
        fields.insert(2, ("poison".to_string(), poison()));
        let runs = run_batch_full(&fields, 60.0, &chunked_opts(), 3);
        assert_eq!(runs.len(), 5);
        let expected = ["field_0", "field_1", "poison", "field_2", "field_3"];
        for (run, want) in runs.iter().zip(expected) {
            assert_eq!(run.outcome.field, want);
        }
        let bad = &runs[2];
        assert!(bad.bytes.is_none());
        assert_eq!(bad.compressed_bytes(), 0);
        assert!(bad.outcome.achieved_psnr.is_nan());
        assert!(!bad.outcome.meets_target());
        let failure = bad.outcome.failure.as_ref().expect("failure cause kept");
        assert_eq!(failure.stage, "compress");
        assert!(!failure.detail.is_empty());
        // The healthy neighbours are untouched by the poison field.
        for i in [0, 1, 3, 4] {
            assert!(runs[i].outcome.failure.is_none(), "field {i} poisoned");
            assert!(runs[i].outcome.achieved_psnr.is_finite());
        }
    }

    #[test]
    fn failure_survives_into_summary_counts() {
        let mut fields = snapshot(3);
        fields.push(("poison".to_string(), poison()));
        let (outs, summary) = run_batch_summary("TEST", &fields, 60.0, &chunked_opts(), 2);
        assert_eq!(summary.n_fields, 4);
        // The failed field drags the meet rate down but not the average
        // (NaN outcomes are excluded from AVG/STDEV).
        assert!(summary.meet_rate <= 0.75);
        assert!(summary.avg.is_finite());
        assert_eq!(outs.iter().filter(|o| o.failure.is_some()).count(), 1);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let fields = snapshot(6);
        let opts = FixedPsnrOptions::default();
        let serial = run_batch_full(&fields, 70.0, &opts, 1);
        let parallel = run_batch_full(&fields, 70.0, &opts, 4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.outcome.field, b.outcome.field);
            assert_eq!(a.outcome.achieved_psnr, b.outcome.achieved_psnr);
            assert_eq!(a.outcome.ratio, b.outcome.ratio);
            assert_eq!(a.bytes, b.bytes, "container bytes depend on threads");
        }
    }

    #[test]
    fn summary_reflects_batch() {
        let fields = snapshot(5);
        let (outs, summary) =
            run_batch_summary("TEST", &fields, 80.0, &FixedPsnrOptions::default(), 2);
        assert_eq!(summary.n_fields, 5);
        assert_eq!(summary.dataset, "TEST");
        let mean: f64 = outs.iter().map(|o| o.achieved_psnr).sum::<f64>() / outs.len() as f64;
        assert!((summary.avg - mean).abs() < 1e-9);
        // Smooth synthetic fields at 80 dB land near target.
        assert!((summary.avg - 80.0).abs() < 5.0, "avg {}", summary.avg);
    }

    #[test]
    fn empty_batch_is_empty() {
        let fields: Vec<(String, Field<f32>)> = vec![];
        assert!(run_batch(&fields, 60.0, &FixedPsnrOptions::default(), 4).is_empty());
        assert!(run_batch_full(&fields, 60.0, &FixedPsnrOptions::default(), 4).is_empty());
    }
}
