//! Statistical accuracy harness for the snapshot bit allocator.
//!
//! Protocol: build mixed snapshots from the shared corpora (registry
//! data sets, GRF textures, drifting time series — see
//! `common::corpora`), sweep global budgets from loose (raw/4) to tight
//! (raw/64), and hold [`allocate_snapshot`] to four layers of
//! guarantees:
//!
//! 1. **budget, hard** — a feasible budget is never exceeded by more
//!    than the 2% tolerance, and never under-used past the 90%
//!    utilization floor unless the PSNR grid ceiling caps spending;
//! 2. **pass bound, hard** — no field ever compresses more than twice,
//!    cross-checked against the `alloc.*` obs counters;
//! 3. **optimality** — the achieved min PSNR trails an *oracle* (shared
//!    target found by bisection with real compressions of every field)
//!    by at most [`ORACLE_FLOOR_DB`];
//! 4. **properties** — the allocation is deterministic and thread-count
//!    invariant, monotone in the budget, and degenerate fields
//!    (constant, all-NaN) quarantine instead of poisoning the solve.
//!
//! Knobs for the CI smoke job: `FPSNR_ALLOC_TABLE=1` prints per-field
//! allocation tables on stdout; `FPSNR_ALLOC_FULL=1` additionally runs
//! the oracle comparison on the 79-field ATM snapshot (minutes in debug
//! builds, so it is opt-in — the `alloc-smoke` CI job sets it and gates
//! the number in release mode).

mod common;

use common::corpora;
use fixed_psnr::data::DatasetId;
use fixed_psnr::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Calibrated oracle gap: the allocator's achieved min PSNR may trail
/// the exhaustive shared-target bisection by at most this much. The
/// measured gap on the mixed corpus is ≈ 0.3–0.8 dB (grid quantization
/// at 0.25 dB plus rate-model error absorbed by the feedback pass);
/// 1.5 dB is the acceptance bound from the design doc.
const ORACLE_FLOOR_DB: f64 = 1.5;

/// The obs registry is process-global, so every test that runs the
/// allocator serializes on one lock: the counter test must observe
/// *only* its own passes.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn table_enabled() -> bool {
    std::env::var_os("FPSNR_ALLOC_TABLE").is_some()
}

fn full_enabled() -> bool {
    std::env::var_os("FPSNR_ALLOC_FULL").is_some()
}

/// The main evaluation snapshot: one full registry data set plus the
/// GRF textures (f64) and the drifting time series — 22 fields mixing
/// dtypes, shapes (3-D storm bricks, 2-D spectra, 2-D drift) and
/// entropy regimes.
fn mixed_snapshot() -> Vec<SnapshotField> {
    let mut out: Vec<SnapshotField> = corpora::registry(DatasetId::Hurricane)
        .into_iter()
        .map(|(name, f)| SnapshotField::f32(name, f))
        .collect();
    out.extend(
        corpora::grf()
            .into_iter()
            .map(|(name, f)| SnapshotField::f64(name, f)),
    );
    out.extend(
        corpora::timeseries()
            .into_iter()
            .map(|(name, f)| SnapshotField::f32(name, f)),
    );
    out
}

/// A small snapshot for the property tests (NYX 16³ bricks + GRF +
/// time series = 15 fields, ≈ 0.4 MB raw) — cheap enough to allocate
/// repeatedly.
fn small_snapshot() -> Vec<SnapshotField> {
    let mut out: Vec<SnapshotField> = corpora::registry(DatasetId::Nyx)
        .into_iter()
        .map(|(name, f)| SnapshotField::f32(name, f))
        .collect();
    out.extend(
        corpora::grf()
            .into_iter()
            .map(|(name, f)| SnapshotField::f64(name, f)),
    );
    out.extend(
        corpora::timeseries()
            .into_iter()
            .map(|(name, f)| SnapshotField::f32(name, f)),
    );
    out
}

fn raw_total(fields: &[SnapshotField]) -> u64 {
    fields.iter().map(|f| f.data.raw_bytes()).sum()
}

fn grid_ceiling(opts: &AllocOptions) -> f64 {
    opts.psnr_lo + opts.psnr_step * (opts.psnr_points - 1) as f64
}

fn print_table(label: &str, run: &SnapshotAllocation) {
    if !table_enabled() {
        return;
    }
    println!("== {label} ==");
    println!("field,assigned_psnr,achieved_psnr,bytes,ratio,passes,quarantined");
    for r in &run.fields {
        let s = &r.stat;
        let ratio = if s.achieved_bytes > 0 {
            s.raw_bytes as f64 / s.achieved_bytes as f64
        } else {
            f64::NAN
        };
        println!(
            "{},{:.2},{:.2},{},{:.2},{},{}",
            s.field,
            s.assigned_psnr,
            s.achieved_psnr,
            s.achieved_bytes,
            ratio,
            s.passes,
            s.quarantined
        );
    }
    let sm = &run.summary;
    println!(
        "total {}/{} bytes (utilization {:.3}), min psnr {:.2}/{:.2} dB, passes max {} total {}, resolves {}",
        sm.total_bytes,
        sm.budget_bytes,
        sm.utilization,
        sm.min_assigned_psnr,
        sm.min_achieved_psnr,
        sm.max_passes,
        sm.total_passes,
        run.resolves
    );
}

/// Assert the hard guarantees every healthy allocation must satisfy,
/// and return whether the run was feasible above the grid floor.
fn assert_hard_guarantees(label: &str, run: &SnapshotAllocation, opts: &AllocOptions) -> bool {
    for r in &run.fields {
        assert!(
            r.failure.is_none(),
            "{label}: field {} failed: {:?}",
            r.stat.field,
            r.failure
        );
        assert!(
            r.stat.passes <= 2,
            "{label}: field {} took {} passes",
            r.stat.field,
            r.stat.passes
        );
    }
    assert!(run.summary.max_passes <= 2, "{label}: pass bound blown");
    assert!(run.resolves <= 1, "{label}: more than one re-solve");
    // Above the grid floor the solver had room to move down, so the
    // budget is binding; *at* the floor the budget may be infeasible
    // (nothing below the floor exists to assign) and only the pass
    // bounds apply.
    let feasible = run.summary.min_assigned_psnr > opts.psnr_lo + 1e-9;
    if feasible {
        assert!(
            run.summary.within_budget(opts.tolerance),
            "{label}: budget exceeded: {}/{} bytes",
            run.summary.total_bytes,
            run.summary.budget_bytes
        );
    }
    feasible
}

/// Compress every field at one shared target; `None` when any field
/// fails. Returns (total bytes, min achieved PSNR).
fn compress_all_at(
    fields: &[SnapshotField],
    target: f64,
    opts: &FixedPsnrOptions,
) -> Option<(u64, f64)> {
    let mut total = 0u64;
    let mut min_psnr = f64::INFINITY;
    for f in fields {
        let (bytes, achieved) = match &f.data {
            AnyField::F32(fld) => {
                let r = compress_fixed_psnr(fld, target, opts).ok()?;
                (r.bytes.len() as u64, r.outcome.achieved_psnr)
            }
            AnyField::F64(fld) => {
                let r = compress_fixed_psnr(fld, target, opts).ok()?;
                (r.bytes.len() as u64, r.outcome.achieved_psnr)
            }
        };
        total += bytes;
        if achieved < min_psnr {
            min_psnr = achieved;
        }
    }
    Some((total, min_psnr))
}

struct Oracle {
    target: f64,
    min_achieved: f64,
    total: u64,
}

/// The reference answer the allocator competes against: bisect a
/// *shared* target PSNR with real compressions of every field until the
/// highest budget-fitting target is bracketed. This is exactly the
/// max-min objective solved exhaustively — no prediction error, no grid
/// quantization — at a cost (≈ 10 full snapshot compressions) the
/// allocator is forbidden to pay.
fn oracle_shared_target(
    fields: &[SnapshotField],
    budget: u64,
    opts: &AllocOptions,
) -> Option<Oracle> {
    let copts = opts.compress;
    let mut lo = opts.psnr_lo;
    let mut hi = grid_ceiling(opts);
    let (floor_total, floor_min) = compress_all_at(fields, lo, &copts)?;
    if floor_total > budget {
        return None; // infeasible even at the floor
    }
    let mut best = Oracle {
        target: lo,
        min_achieved: floor_min,
        total: floor_total,
    };
    for _ in 0..9 {
        let mid = 0.5 * (lo + hi);
        match compress_all_at(fields, mid, &copts) {
            Some((total, min_a)) if total <= budget => {
                best = Oracle {
                    target: mid,
                    min_achieved: min_a,
                    total,
                };
                lo = mid;
            }
            _ => hi = mid,
        }
    }
    Some(best)
}

// ---------------------------------------------------------------- tests

#[test]
fn budget_sweep_fits_and_utilizes() {
    let _g = lock();
    let fields = mixed_snapshot();
    let raw = raw_total(&fields);
    for factor in [4u64, 16, 64] {
        let opts = AllocOptions::new(raw / factor);
        let run = allocate_snapshot(&fields, &opts).expect("allocation");
        print_table(&format!("mixed @ {factor}x"), &run);
        let feasible = assert_hard_guarantees(&format!("{factor}x"), &run, &opts);
        assert_eq!(run.fields.len(), fields.len());
        // Utilization floor applies whenever the solver had headroom:
        // feasible and not pinned at the grid ceiling.
        let saturated = run.summary.min_assigned_psnr >= grid_ceiling(&opts) - 1e-9;
        if feasible && !saturated {
            assert!(
                run.summary.utilization >= 0.90,
                "{factor}x: utilization {:.3} below floor ({}/{} bytes)",
                run.summary.utilization,
                run.summary.total_bytes,
                run.summary.budget_bytes
            );
        }
    }
}

#[test]
fn weighted_objective_fits_and_respects_weights() {
    let _g = lock();
    let mut fields = mixed_snapshot();
    // Make the first time-series field precious.
    let heavy = fields.len() - 6;
    fields[heavy] = fields[heavy].clone().with_weight(1e5);
    let raw = raw_total(&fields);
    let opts = AllocOptions {
        objective: AllocObjective::WeightedMse,
        ..AllocOptions::new(raw / 16)
    };
    let run = allocate_snapshot(&fields, &opts).expect("allocation");
    print_table("mixed weighted @ 16x", &run);
    assert_hard_guarantees("weighted", &run, &opts);
    // The upweighted field must sit at or above the median assignment.
    let mut assigned: Vec<f64> = run
        .fields
        .iter()
        .filter(|r| !r.stat.quarantined)
        .map(|r| r.stat.assigned_psnr)
        .collect();
    assigned.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = assigned[assigned.len() / 2];
    assert!(
        run.fields[heavy].stat.assigned_psnr >= median,
        "heavy field assigned {:.2} dB below the median {:.2}",
        run.fields[heavy].stat.assigned_psnr,
        median
    );
}

#[test]
fn min_psnr_tracks_the_oracle() {
    let _g = lock();
    let fields = mixed_snapshot();
    let budget = raw_total(&fields) / 16;
    let opts = AllocOptions::new(budget);
    let run = allocate_snapshot(&fields, &opts).expect("allocation");
    let oracle = oracle_shared_target(&fields, budget, &opts).expect("oracle feasible");
    if table_enabled() {
        println!(
            "oracle target {:.2} dB (min achieved {:.2}, {} bytes) vs allocator min achieved {:.2}",
            oracle.target, oracle.min_achieved, oracle.total, run.summary.min_achieved_psnr
        );
    }
    assert!(
        run.summary.min_achieved_psnr >= oracle.min_achieved - ORACLE_FLOOR_DB,
        "allocator min PSNR {:.2} trails the oracle {:.2} by more than {ORACLE_FLOOR_DB} dB",
        run.summary.min_achieved_psnr,
        oracle.min_achieved
    );
}

#[test]
fn allocation_is_deterministic_and_thread_invariant() {
    let _g = lock();
    let fields = small_snapshot();
    let budget = raw_total(&fields) / 16;
    let runs: Vec<SnapshotAllocation> = [1usize, 4, 8]
        .iter()
        .map(|&t| {
            let opts = AllocOptions {
                threads: t,
                ..AllocOptions::new(budget)
            };
            allocate_snapshot(&fields, &opts).expect("allocation")
        })
        .collect();
    let base = &runs[0];
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            run.summary.total_bytes, base.summary.total_bytes,
            "thread count changed total bytes (run {i})"
        );
        for (a, b) in base.fields.iter().zip(&run.fields) {
            assert_eq!(a.stat.field, b.stat.field, "field order changed (run {i})");
            assert_eq!(
                a.stat.assigned_psnr.to_bits(),
                b.stat.assigned_psnr.to_bits(),
                "assignment for {} changed with thread count",
                a.stat.field
            );
            assert_eq!(
                a.bytes, b.bytes,
                "container bytes for {} changed with thread count",
                a.stat.field
            );
        }
    }
}

#[test]
fn min_psnr_is_monotone_in_budget() {
    let _g = lock();
    let fields = small_snapshot();
    let raw = raw_total(&fields);
    let mut prev = f64::NEG_INFINITY;
    let mut grew = false;
    for factor in [32u64, 16, 8, 4] {
        let opts = AllocOptions::new(raw / factor);
        let run = allocate_snapshot(&fields, &opts).expect("allocation");
        let assigned = run.summary.min_assigned_psnr;
        assert!(
            assigned >= prev - 1e-9,
            "budget raw/{factor} lowered the min assigned PSNR: {prev:.2} -> {assigned:.2}"
        );
        grew |= assigned > prev && prev.is_finite();
        prev = assigned;
    }
    assert!(grew, "larger budgets never bought higher PSNR");
}

#[test]
fn degenerate_fields_quarantine_and_budget_is_resolved() {
    let _g = lock();
    let mut fields = small_snapshot();
    fields.insert(
        2,
        SnapshotField::f32("flat", Field::from_vec(Shape::D2(32, 32), vec![7.5; 1024])),
    );
    fields.push(SnapshotField::f64(
        "nans",
        Field::from_vec(Shape::D2(32, 32), vec![f64::NAN; 1024]),
    ));
    let raw = raw_total(&fields);
    let opts = AllocOptions::new(raw / 16);
    let run = allocate_snapshot(&fields, &opts).expect("allocation");
    print_table("degenerate mix @ 16x", &run);
    assert_hard_guarantees("degenerate", &run, &opts);
    assert_eq!(run.summary.n_quarantined, 2);
    for r in &run.fields {
        if r.stat.quarantined {
            assert!(
                r.bytes.is_some(),
                "{}: quarantined field not stored",
                r.stat.field
            );
            assert!(r.stat.assigned_psnr.is_nan());
            assert_eq!(r.stat.passes, 1);
        } else {
            assert!(
                r.stat.assigned_psnr.is_finite(),
                "{}: healthy field got no assignment",
                r.stat.field
            );
        }
    }
    // The quarantine bytes were pre-charged: the healthy fields'
    // spending plus the quarantine spending still fits the budget.
    assert!(run.summary.within_budget(opts.tolerance));
}

#[test]
fn obs_counters_account_for_every_pass() {
    let _g = lock();
    let fields = mixed_snapshot();
    let opts = AllocOptions::new(raw_total(&fields) / 16);
    fixed_psnr::obs::reset();
    fixed_psnr::obs::enable();
    if !fixed_psnr::obs::is_enabled() {
        // Built with fpsnr-obs/off: the probes compile to nothing.
        return;
    }
    let run = allocate_snapshot(&fields, &opts).expect("allocation");
    fixed_psnr::obs::disable();
    let report = fixed_psnr::obs::snapshot();
    let n = fields.len() as u64;
    let quarantined = run.summary.n_quarantined as u64;
    let second: u64 = run.fields.iter().filter(|r| r.stat.passes == 2).count() as u64;
    // The lock serializes every allocator test in this binary, so the
    // counters are exactly this run's.
    assert_eq!(report.counter("alloc.pilot_passes"), Some(n - quarantined));
    assert_eq!(
        report.counter("alloc.compress_passes"),
        Some(run.summary.total_passes),
        "every compression the allocator ran must be on the books"
    );
    assert!(
        run.summary.total_passes <= 2 * n,
        "pass budget blown: {} passes for {n} fields",
        run.summary.total_passes
    );
    if second > 0 {
        assert_eq!(report.counter("alloc.second_passes"), Some(second));
        assert_eq!(report.counter("alloc.resolves"), Some(run.resolves as u64));
    }
}

/// The acceptance corpus from the design doc: the CESM-ATM registry
/// snapshot (79 fields of 90×180) at a 16×-ratio budget.
#[test]
fn atm_snapshot_79_fields_at_16x() {
    let _g = lock();
    let fields: Vec<SnapshotField> = corpora::registry(DatasetId::Atm)
        .into_iter()
        .map(|(name, f)| SnapshotField::f32(name, f))
        .collect();
    assert_eq!(fields.len(), 79, "ATM registry changed size");
    let budget = raw_total(&fields) / 16;
    let opts = AllocOptions::new(budget);
    let run = allocate_snapshot(&fields, &opts).expect("allocation");
    print_table("ATM @ 16x", &run);
    let feasible = assert_hard_guarantees("ATM", &run, &opts);
    assert!(feasible, "16x must be feasible on ATM");
    assert!(
        run.summary.utilization >= 0.90,
        "ATM utilization {:.3} below floor",
        run.summary.utilization
    );
    // The oracle costs ≈ 10 more full-snapshot compressions, so debug
    // runs only pay it on request; the `alloc-smoke` CI job sets
    // FPSNR_ALLOC_FULL and gates it in release.
    if full_enabled() {
        let oracle = oracle_shared_target(&fields, budget, &opts).expect("oracle feasible");
        assert!(
            run.summary.min_achieved_psnr >= oracle.min_achieved - ORACLE_FLOOR_DB,
            "ATM min PSNR {:.2} trails the oracle {:.2} by more than {ORACLE_FLOOR_DB} dB",
            run.summary.min_achieved_psnr,
            oracle.min_achieved
        );
    }
}
