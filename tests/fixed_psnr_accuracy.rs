//! The paper's headline claims, as integration tests over the synthetic
//! evaluation corpus (Small tier for CI speed; the bench binaries rerun the
//! same protocol at full scale).

mod common;

use common::corpora;
use fixed_psnr::data::{generate, DatasetId, Resolution};
use fixed_psnr::prelude::*;
use std::collections::BTreeSet;

fn dataset(id: DatasetId, seed: u64) -> Vec<(String, Field<f32>)> {
    generate(id, Resolution::Small, seed)
        .into_iter()
        .map(|nf| (nf.name, nf.data))
        .collect()
}

#[test]
fn average_deviation_within_paper_band_on_all_datasets() {
    // Paper abstract: average deviation 0.1 ~ 5.0 dB, largest at the
    // 20 dB target (their Hurricane hits +5.0 with STDEV 6.5 there). Our
    // Small-tier grids amplify the low-target overshoot (sparse
    // hydrometeor fields are almost entirely exactly-predictable), so the
    // 20 dB band gets extra slack; mid/high targets must be tight.
    for id in DatasetId::ALL {
        let fields = dataset(id, 21);
        for (target, band) in [(20.0, 10.0), (60.0, 3.0), (100.0, 3.0)] {
            let (_, summary) =
                run_batch_summary(id.name(), &fields, target, &FixedPsnrOptions::default(), 4);
            let dev = (summary.avg - target).abs();
            assert!(
                dev <= band,
                "{} @ {target}: AVG {} deviates {dev} (band {band})",
                id.name(),
                summary.avg
            );
        }
    }
}

#[test]
fn deviation_shrinks_as_target_grows() {
    // Paper §V: "the higher the PSNR of demand, the better our fixed-PSNR
    // method performs".
    for id in DatasetId::ALL {
        let fields = dataset(id, 22);
        let dev_at = |target: f64| {
            let (_, s) =
                run_batch_summary(id.name(), &fields, target, &FixedPsnrOptions::default(), 4);
            s.mean_abs_deviation
        };
        let low = dev_at(20.0);
        let high = dev_at(100.0);
        assert!(
            high < low,
            "{}: deviation did not shrink (20 dB: {low}, 100 dB: {high})",
            id.name()
        );
    }
}

#[test]
fn stdev_shrinks_as_target_grows() {
    for id in DatasetId::ALL {
        let fields = dataset(id, 23);
        let stdev_at = |target: f64| {
            let (_, s) =
                run_batch_summary(id.name(), &fields, target, &FixedPsnrOptions::default(), 4);
            s.stdev
        };
        assert!(
            stdev_at(120.0) < stdev_at(20.0),
            "{}: STDEV did not shrink with target",
            id.name()
        );
    }
}

#[test]
fn atm_meets_demand_for_most_fields_at_high_targets() {
    // The Fig. 2 claim, at the tier where it is strongest (80/120 dB).
    let fields = dataset(DatasetId::Atm, 24);
    for target in [80.0, 120.0] {
        let (_, summary) =
            run_batch_summary("ATM", &fields, target, &FixedPsnrOptions::default(), 4);
        assert!(
            summary.meet_rate >= 0.8,
            "meet rate at {target} dB only {:.0}%",
            summary.meet_rate * 100.0
        );
    }
}

#[test]
fn single_shot_matches_paper_workflow() {
    // The production path must be exactly one compression whose container
    // is a plain SZ container (decodable by the stock decoder) with the
    // Eq. 8 bound inside.
    let field = &dataset(DatasetId::Atm, 25)[8].1; // TS
    let run = compress_fixed_psnr(field, 90.0, &FixedPsnrOptions::default()).expect("run");
    assert!((run.derived_ebrel - ebrel_for_psnr(90.0)).abs() < 1e-15);
    let direct: Field<f32> = fixed_psnr::sz::decompress(&run.bytes).expect("stock decoder");
    assert_eq!(direct.shape(), field.shape());
}

/// The paper's overhead claim (§IV), exactly: fixed-PSNR is plain SZ plus
/// one evaluation of Eq. 8. For every option set the driver's container
/// equals the one plain SZ writes at `ValueRangeRel(ebrel_for_psnr(t))`
/// with the same knobs, spelled out here rather than taken from the
/// driver, and with obs armed the only work directly inside
/// `fpsnr.compress` is `fpsnr.derive` (Eq. 8) and `sz.compress`.
#[test]
fn fixed_psnr_is_plain_sz_at_the_eq8_bound() {
    use fixed_psnr::sz::LosslessBackend;
    // ATM fields are 2-D, NYX fields 3-D; chunk every axis the field has.
    let chunked = |shape: Shape| {
        let mut dims = [0; 3];
        dims[..shape.dims().len()].fill(8);
        dims
    };
    let mut fields: Vec<(String, Field<f32>)> =
        dataset(DatasetId::Atm, 31).into_iter().step_by(8).collect();
    fields.extend(dataset(DatasetId::Nyx, 31));
    fixed_psnr::obs::reset();
    fixed_psnr::obs::enable();
    // False when built with fpsnr-obs/off: the probes compile to nothing.
    let obs_on = fixed_psnr::obs::is_enabled();
    let mut calls = 0u64;
    for (name, field) in &fields {
        let chunk_dims = chunked(field.shape());
        // (label, driver options, plain SZ with the same knobs at a bound)
        type Plain = fn(SzConfig, [usize; 3]) -> SzConfig;
        let cases: [(&str, FixedPsnrOptions, Plain); 5] = [
            ("defaults", FixedPsnrOptions::default(), |c, _| c),
            (
                "auto",
                FixedPsnrOptions {
                    predictor: PredictorKind::Auto,
                    ..FixedPsnrOptions::default()
                },
                |c, _| c.with_predictor(PredictorKind::Auto),
            ),
            (
                "chunks",
                FixedPsnrOptions {
                    chunk_dims,
                    ..FixedPsnrOptions::default()
                },
                |c, dims| c.with_chunk_dims(dims),
            ),
            (
                "threads=2",
                FixedPsnrOptions {
                    threads: 2,
                    ..FixedPsnrOptions::default()
                },
                |c, _| c.with_threads(2),
            ),
            (
                "lossless=None",
                FixedPsnrOptions {
                    lossless: LosslessBackend::None,
                    ..FixedPsnrOptions::default()
                },
                |c, _| c.with_lossless(LosslessBackend::None),
            ),
        ];
        for (label, opts, plain) in cases {
            for target in [40.0, 80.0, 100.0] {
                // Stock SZ 1.4 defaults: adaptive intervals on.
                let sz = SzConfig::new(ErrorBound::ValueRangeRel(ebrel_for_psnr(target)))
                    .with_auto_intervals(true);
                let want = fixed_psnr::sz::compress(field, &plain(sz, chunk_dims))
                    .unwrap_or_else(|e| panic!("{name}/{label} @ {target}: plain SZ: {e}"));
                let got = compress_fixed_psnr_only(field, target, &opts)
                    .unwrap_or_else(|e| panic!("{name}/{label} @ {target}: driver: {e}"));
                calls += 1;
                assert!(
                    got == want,
                    "{name}/{label} @ {target} dB: driver wrote {} B, plain SZ {} B",
                    got.len(),
                    want.len()
                );
            }
        }
    }
    fixed_psnr::obs::disable();
    if !obs_on {
        return;
    }
    let report = fixed_psnr::obs::snapshot();
    let total = report.span("fpsnr.compress").expect("fpsnr.compress span");
    assert!(
        total.count >= calls,
        "{} fpsnr.compress spans for {calls} calls",
        total.count
    );
    // Other tests in this binary may run while obs is armed; they go
    // through the same driver, so the check reads every path and names
    // whatever sits directly below any `fpsnr.compress`.
    let children: BTreeSet<&str> = report
        .spans
        .iter()
        .flat_map(|s| {
            let parts: Vec<&str> = s.path.split('/').collect();
            parts
                .windows(2)
                .filter(|w| w[0] == "fpsnr.compress")
                .map(|w| w[1])
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(
        children,
        BTreeSet::from(["fpsnr.derive", "sz.compress"]),
        "direct children of fpsnr.compress"
    );
}

/// Run one corpus through the 40–100 dB sweep on a given option set and
/// assert both the dataset-average deviation (paper Table 2 bands) and a
/// per-field undershoot floor.
fn assert_sweep<T: Scalar>(corpus: &str, fields: &[(String, Field<T>)], opts: &FixedPsnrOptions) {
    // 40 dB sits between the paper's loose 20 dB row (their Hurricane
    // deviates +5.0 there) and the tight ≥60 dB rows, so it gets an
    // intermediate band; higher targets must hold the tight band.
    for (target, band) in [(40.0, 6.0), (60.0, 3.0), (80.0, 3.0), (100.0, 3.0)] {
        let (outcomes, summary) = run_batch_summary(corpus, fields, target, opts, 4);
        let dev = (summary.avg - target).abs();
        assert!(
            dev <= band,
            "{corpus} @ {target} dB: AVG {} deviates {dev:.2} (band {band})",
            summary.avg
        );
        for o in &outcomes {
            assert!(
                o.achieved_psnr >= target - 2.0 * band,
                "{corpus}/{} @ {target} dB: achieved only {:.2} dB",
                o.field,
                o.achieved_psnr
            );
        }
    }
}

#[test]
fn sweep_registry_datasets_at_paper_targets() {
    // Every field of every registry data set (NYX, ATM, Hurricane),
    // through the monolithic single-compression path. The corpora come
    // from the shared helper so the fixed-ratio harness sweeps the
    // exact same fields.
    for id in DatasetId::ALL {
        let fields = corpora::registry(id);
        assert_sweep(id.name(), &fields, &FixedPsnrOptions::default());
    }
}

#[test]
fn sweep_registry_datasets_through_blocked_path() {
    // The same sweep through the block-parallel container (auto
    // partition): Theorem 1 holds per block, so accuracy must match the
    // monolithic bands.
    let blocked = FixedPsnrOptions {
        threads: 0,
        ..FixedPsnrOptions::default()
    };
    for id in DatasetId::ALL {
        let fields = corpora::registry(id);
        assert_sweep(id.name(), &fields, &blocked);
    }
}

#[test]
fn sweep_grf_and_timeseries_corpora() {
    // The two non-registry generators: power-law Gaussian random fields
    // (f64, spanning smooth to rough spectra) and a drifting time series
    // (f32 snapshots) — both through monolithic and blocked paths.
    let grf = corpora::grf();
    let ts = corpora::timeseries();

    let blocked = FixedPsnrOptions {
        threads: 0,
        ..FixedPsnrOptions::default()
    };
    assert_sweep("GRF", &grf, &FixedPsnrOptions::default());
    assert_sweep("GRF", &grf, &blocked);
    assert_sweep("TS", &ts, &FixedPsnrOptions::default());
    assert_sweep("TS", &ts, &blocked);
}

#[test]
fn sweep_auto_predictor_holds_the_same_bands() {
    // Theorem 1 is predictor-agnostic, so routing the same sweep through
    // the per-block predictor bake-off (v5 containers) must hold exactly
    // the accuracy bands the Lorenzo-only paths hold.
    let auto = FixedPsnrOptions {
        threads: 0,
        predictor: PredictorKind::Auto,
        ..FixedPsnrOptions::default()
    };
    assert_sweep("GRF/auto", &corpora::grf(), &auto);
    assert_sweep("TS/auto", &corpora::timeseries(), &auto);
    assert_sweep(
        "ATM/auto",
        &corpora::registry(fixed_psnr::data::DatasetId::Atm),
        &auto,
    );
}

#[test]
fn auto_predictor_never_costs_ratio_at_fixed_psnr() {
    // At a fixed PSNR target the derived bound is identical for every
    // predictor, so the cost bake-off can only move the bitrate. Corpus-
    // wide it must never lose more than the per-block tag bytes to
    // Lorenzo, and must clearly win where the regression / spline
    // candidates earn their keep (noisy registry fields at fine bounds,
    // where Lorenzo's noise feedback doubles the residual entropy).
    // Floors sit below the measured uplift — ATM −14.7%, TS −9.9% at
    // 80 dB, NYX −23.2% at 30 dB, see EXPERIMENTS.md — so only a
    // selection regression trips them.
    let lorenzo = FixedPsnrOptions {
        threads: 0,
        ..FixedPsnrOptions::default()
    };
    let auto = FixedPsnrOptions {
        predictor: PredictorKind::Auto,
        ..lorenzo
    };
    /// Total (Lorenzo, auto) bytes over a corpus at one target; the
    /// predictors the auto containers chose go into `mix`.
    fn cell<T: Scalar>(
        fields: &[(String, Field<T>)],
        target: f64,
        opts: [&FixedPsnrOptions; 2],
        mix: &mut BTreeSet<String>,
    ) -> (f64, f64) {
        let mut totals = [0usize; 2];
        for (name, f) in fields {
            for (total, o) in totals.iter_mut().zip(opts) {
                let bytes = compress_fixed_psnr(f, target, o)
                    .unwrap_or_else(|e| panic!("{name} @ {target} dB: {e}"))
                    .bytes;
                *total += bytes.len();
                if o.predictor == PredictorKind::Auto {
                    if let Ok(Some(names)) = fixed_psnr::sz::inspect_block_predictors(&bytes) {
                        mix.extend(names);
                    }
                }
            }
        }
        (totals[0] as f64, totals[1] as f64)
    }
    let opts = [&lorenzo, &auto];
    let mut mix = BTreeSet::new();
    let mut cells = Vec::new();
    let grf = corpora::grf();
    let ts = corpora::timeseries();
    for target in [30.0, 40.0, 60.0, 80.0, 100.0] {
        cells.push(("GRF", target, cell(&grf, target, opts, &mut mix)));
        cells.push(("TS", target, cell(&ts, target, opts, &mut mix)));
    }
    for id in [DatasetId::Nyx, DatasetId::Atm, DatasetId::Hurricane] {
        let fields = corpora::registry(id);
        for target in [30.0, 80.0] {
            cells.push((id.name(), target, cell(&fields, target, opts, &mut mix)));
        }
    }
    // Guardrail: auto may never regress any corpus by more than 0.5%
    // (the measured worst case is +0.14% — pure v5 per-block tag bytes).
    for &(label, target, (base, bake)) in &cells {
        assert!(
            bake <= base * 1.005,
            "{label} @ {target} dB: auto {bake} bytes vs lorenzo {base} bytes"
        );
    }
    // Uplift floors.
    for (label, target, ceiling) in [("ATM", 80.0, 0.90), ("TS", 80.0, 0.95), ("NYX", 30.0, 0.85)] {
        let &(_, _, (base, bake)) = cells
            .iter()
            .find(|c| c.0 == label && c.1 == target)
            .expect("uplift cell is swept");
        assert!(
            bake <= base * ceiling,
            "{label} @ {target} dB: auto {bake} bytes vs lorenzo {base} bytes — uplift below {:.0}%",
            (1.0 - ceiling) * 100.0
        );
    }
    // Diversity: the bake-off really mixes models; it is not Lorenzo in
    // a per-block-tagged wrapper.
    mix.retain(|n| !n.starts_with("unknown") && n != "damaged");
    assert!(mix.len() >= 2, "auto containers used only {mix:?}");
}

#[test]
fn search_baseline_agrees_with_fixed_psnr_but_costs_more() {
    use fixed_psnr::core::search::search_to_target_psnr;
    let field = &dataset(DatasetId::Hurricane, 26)[8].1; // P
    let target = 70.0;
    let fixed = compress_fixed_psnr(field, target, &FixedPsnrOptions::default()).expect("fixed");
    let search = search_to_target_psnr(field, target, 3.0, 30).expect("search");
    assert!(search.achieved_psnr >= target);
    assert!(fixed.outcome.achieved_psnr >= target - 1.0);
    assert!(
        search.invocations > 1,
        "search converged in one probe — baseline degenerate"
    );
}
