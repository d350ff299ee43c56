//! Statistical accuracy harness for the fixed-ratio mode.
//!
//! Protocol: sweep the targets {4, 8, 16, 32}× over the shared corpora
//! (registry data sets, GRF textures, drifting time series — see
//! `common::corpora`), through both the monolithic and blocked paths,
//! and hold the driver to three layers of guarantees:
//!
//! 1. **hard, per pair** — at most 3 compression passes (cross-checked
//!    against the `fratio.*` obs counters), and no *feasible* pair may
//!    land farther than [`WORST_FACTOR`] from its target;
//! 2. **aggregate** — per-corpus hit-rate floors over the feasible
//!    pairs. The corpora are deterministic, so the floors sit just
//!    below the measured rates and any driver regression trips them;
//! 3. **feasibility filter** — a `(field, target)` pair is excluded
//!    only when a near-lossless probe *already overshoots* the band:
//!    sparse hydrometeor / land-flag fields compress 4.4–100× at the
//!    tightest bound, so low targets are unreachable from above and
//!    prove nothing about the driver.
//!
//! Knobs for the CI smoke job: `FPSNR_RATIO_TABLE=1` prints the full
//! achieved-vs-target table on stdout (uploaded as an artifact);
//! `FPSNR_RATIO_TARGETS=8,16` overrides the target list (aggregate
//! floors are calibrated for the default list and are skipped for
//! overridden runs — the hard per-pair guarantees still apply).

mod common;

use common::corpora;
use fixed_psnr::data::DatasetId;
use fixed_psnr::prelude::*;
use fixed_psnr::sz;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Default ratio targets, matching the paper-era SZ/ZFP evaluation grid.
const DEFAULT_TARGETS: [f64; 4] = [4.0, 8.0, 16.0, 32.0];

/// Tolerance band asserted throughout: target · (1 ± 10%).
const TOL: f64 = 0.1;

/// No feasible pair may land farther than this factor from its target,
/// even when it misses the ±10% band (the worst corpus-wide miss is a
/// NYX velocity component at 32× landing ≈ 1.57× low, deep on the
/// noise-feedback shoulder).
const WORST_FACTOR: f64 = 1.75;

/// The obs registry is process-global, so every test that runs the
/// driver serializes on one lock: the counter test must observe *only*
/// its own passes.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn targets() -> Vec<f64> {
    match std::env::var("FPSNR_RATIO_TARGETS") {
        Ok(raw) => raw
            .split(',')
            .map(|t| t.trim().parse::<f64>().expect("bad FPSNR_RATIO_TARGETS"))
            .collect(),
        Err(_) => DEFAULT_TARGETS.to_vec(),
    }
}

/// Aggregate floors only make sense for the target list they were
/// calibrated on.
fn default_targets() -> bool {
    std::env::var_os("FPSNR_RATIO_TARGETS").is_none()
}

fn table_enabled() -> bool {
    std::env::var_os("FPSNR_RATIO_TABLE").is_some()
}

struct Outcome {
    field: String,
    target: f64,
    achieved: f64,
    passes: usize,
    feasible: bool,
    hit: bool,
}

/// Ratio of a near-lossless probe — the smallest ratio any bound can
/// reach (ratio is monotone increasing in the bound). A pair counts as
/// feasible only when this floor sits *below* the band: a floor inside
/// or above it means at best a sliver of the band is reachable, and
/// hitting the sliver would demand more precision than the bound grid
/// itself offers.
fn floor_ratio<T: Scalar>(field: &Field<T>, base: &FixedRatioOptions) -> f64 {
    let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-9))
        .with_quant_bins(base.compress.quant_bins)
        .with_lossless(base.compress.lossless)
        .with_threads(base.compress.threads)
        .with_block_rows(base.compress.block_rows);
    let bytes = sz::compress(field, &cfg).expect("floor probe compresses");
    (field.len() * T::BYTES) as f64 / bytes.len() as f64
}

/// Sweep one corpus over the target grid, returning every outcome.
fn sweep<T: Scalar>(
    corpus: &str,
    fields: &[(String, Field<T>)],
    base: &FixedRatioOptions,
) -> Vec<Outcome> {
    let mut out = Vec::new();
    for (name, field) in fields {
        let floor = floor_ratio(field, base);
        for &target in &targets() {
            let opts = FixedRatioOptions {
                target_ratio: target,
                tolerance: TOL,
                ..*base
            };
            let run = compress_fixed_ratio(field, &opts)
                .unwrap_or_else(|e| panic!("{corpus}/{name} @ {target}x: {e}"));
            let feasible = floor <= target * (1.0 - TOL);
            let hit = run.within_tolerance;
            if table_enabled() {
                println!(
                    "{corpus}\t{name}\t{target}\t{:.3}\t{}\t{}\t{}",
                    run.achieved_ratio,
                    run.passes,
                    if feasible { "feasible" } else { "floor-skip" },
                    if hit { "hit" } else { "miss" },
                );
            }
            out.push(Outcome {
                field: name.clone(),
                target,
                achieved: run.achieved_ratio,
                passes: run.passes,
                feasible,
                hit,
            });
        }
    }
    out
}

/// The three guarantee layers over one corpus's outcomes.
fn assert_corpus(corpus: &str, outcomes: &[Outcome], min_hit_rate: f64) {
    for o in outcomes {
        assert!(
            o.passes <= 3,
            "{corpus}/{} @ {}x: {} passes (budget 3)",
            o.field,
            o.target,
            o.passes
        );
        if o.feasible {
            let off = (o.achieved / o.target).max(o.target / o.achieved);
            assert!(
                off <= WORST_FACTOR,
                "{corpus}/{} @ {}x: achieved {:.2}x, {off:.2}x off target",
                o.field,
                o.target,
                o.achieved
            );
        }
    }
    if !default_targets() {
        return;
    }
    let feasible: Vec<&Outcome> = outcomes.iter().filter(|o| o.feasible).collect();
    assert!(
        !feasible.is_empty(),
        "{corpus}: feasibility filter rejected the whole corpus"
    );
    let hits = feasible.iter().filter(|o| o.hit).count();
    let rate = hits as f64 / feasible.len() as f64;
    assert!(
        rate >= min_hit_rate,
        "{corpus}: hit rate {rate:.3} ({hits}/{}) below floor {min_hit_rate}",
        feasible.len()
    );
}

fn mono() -> FixedRatioOptions {
    FixedRatioOptions::new(8.0)
}

/// Blocked container, auto partition: `threads != 1` routes through the
/// blocked path; the partition itself depends only on the shape, so the
/// sweep is machine-independent.
fn blocked() -> FixedRatioOptions {
    FixedRatioOptions {
        compress: FixedPsnrOptions {
            threads: 2,
            ..FixedPsnrOptions::default()
        },
        ..FixedRatioOptions::new(8.0)
    }
}

/// Measured mono hit rates (feasible pairs, default targets): NYX
/// 20/24, ATM 284/309, Hurricane 40/46. Floors sit one resolution step
/// below so only a real regression trips them. The ATM rate dropped from
/// 291/302 when the lossless tail was rebuilt (per-chunk bake-off):
/// tiny 32× bodies shifted ~0.5–1% in size, which the discrete bound
/// refinement amplifies into several-percent achieved-ratio jumps at the
/// band edge — the trade bought 2–3× faster decompression.
fn registry_floor(id: DatasetId) -> f64 {
    match id {
        DatasetId::Nyx => 0.78,
        DatasetId::Atm => 0.91,
        DatasetId::Hurricane => 0.82,
    }
}

#[test]
fn registry_mono_sweep_hits_targets() {
    let _g = lock();
    for id in DatasetId::ALL {
        let outcomes = sweep(id.name(), &corpora::registry(id), &mono());
        assert_corpus(id.name(), &outcomes, registry_floor(id));
    }
}

#[test]
fn registry_blocked_sweep_hits_targets() {
    let _g = lock();
    for id in DatasetId::ALL {
        let outcomes = sweep(id.name(), &corpora::registry(id), &blocked());
        assert_corpus(id.name(), &outcomes, registry_floor(id) - 0.02);
    }
}

#[test]
fn grf_sweeps_hit_every_target() {
    let _g = lock();
    // Smooth dense textures: no floor skips, no excuses — every pair
    // must land in band on both paths.
    for (label, base) in [("GRF/mono", mono()), ("GRF/blocked", blocked())] {
        let outcomes = sweep(label, &corpora::grf(), &base);
        assert_corpus(label, &outcomes, 1.0);
        assert!(
            outcomes.iter().all(|o| o.feasible),
            "{label}: unexpected floor skip"
        );
    }
}

#[test]
fn auto_predictor_sweeps_hit_targets() {
    let _g = lock();
    // The per-block predictor bake-off (v5 containers) changes the
    // rate–bound curve the driver steers along, but the driver pilots
    // under the same predictor, so the hit-rate guarantees must match
    // the Lorenzo-only paths.
    let auto = FixedRatioOptions {
        compress: FixedPsnrOptions {
            threads: 2,
            predictor: PredictorKind::Auto,
            ..FixedPsnrOptions::default()
        },
        ..FixedRatioOptions::new(8.0)
    };
    let outcomes = sweep("GRF/auto", &corpora::grf(), &auto);
    assert_corpus("GRF/auto", &outcomes, 1.0);
    // Measured 21/24 (one band-edge snapshot per low target drifts out
    // under the bake-off's slightly different rate curve); the floor sits
    // one miss below so only a real regression trips it.
    let outcomes = sweep("TS/auto", &corpora::timeseries(), &auto);
    assert_corpus("TS/auto", &outcomes, 0.85);
}

#[test]
fn timeseries_sweeps_hit_targets() {
    let _g = lock();
    // 24/24 on both paths as of the lossless-tail rebuild (one 32×
    // snapshot used to land 0.5% outside the band); floor 0.9 tolerates
    // a couple of band-edge pairs drifting back out.
    for (label, base) in [("TS/mono", mono()), ("TS/blocked", blocked())] {
        let outcomes = sweep(label, &corpora::timeseries(), &base);
        assert_corpus(label, &outcomes, 0.9);
    }
}

#[test]
fn obs_counters_account_for_every_pass() {
    let _g = lock();
    let fields = corpora::registry(DatasetId::Hurricane);
    fixed_psnr::obs::reset();
    fixed_psnr::obs::enable();
    if !fixed_psnr::obs::is_enabled() {
        // Built with fpsnr-obs/off: the probes compile to nothing, so
        // there are no counters to reconcile.
        return;
    }
    let outcomes = sweep("Hurricane", &fields, &mono());
    fixed_psnr::obs::disable();
    let report = fixed_psnr::obs::snapshot();
    let total_passes: u64 = outcomes.iter().map(|o| o.passes as u64).sum();
    let pairs = outcomes.len() as u64;
    // Every compression the driver ran is on the books, the budget held,
    // and exactly one pilot walk ran per request.
    assert_eq!(
        report.counter("fratio.compress_passes"),
        Some(total_passes),
        "obs pass counter disagrees with driver reports"
    );
    assert!(
        total_passes <= 3 * pairs,
        "pass budget blown: {total_passes} passes for {pairs} pairs"
    );
    assert_eq!(report.counter("fratio.pilot_passes"), Some(pairs));
    // The per-pass prediction trace exists for pass 1 of every request.
    assert!(report.counter("fratio.pass.1.achieved_bpv_milli").is_some());
}

#[test]
fn blocked_container_bytes_ignore_thread_count() {
    let _g = lock();
    let fields = corpora::registry(DatasetId::Nyx);
    let (name, field) = &fields[0];
    let base = FixedRatioOptions {
        compress: FixedPsnrOptions {
            threads: 2,
            block_rows: 16,
            ..FixedPsnrOptions::default()
        },
        ..FixedRatioOptions::new(8.0)
    };
    let two = compress_fixed_ratio(field, &base).expect("2 threads");
    let four = compress_fixed_ratio(
        field,
        &FixedRatioOptions {
            compress: FixedPsnrOptions {
                threads: 4,
                ..base.compress
            },
            ..base
        },
    )
    .expect("4 threads");
    assert_eq!(
        two.bytes, four.bytes,
        "{name}: container bytes depend on the thread count"
    );
    assert_eq!(two.eb_rel, four.eb_rel);
    assert_eq!(two.passes, four.passes);
}
