//! Snapshot-level global bit allocation: one byte budget, many fields.
//!
//! The paper's fixed-PSNR mode answers "give every field this quality";
//! the fixed-ratio driver answers "give this field that size". Production
//! archives ask a third question: *"this snapshot gets 500 MiB — spend it
//! well across all 79 fields."* Per-field targets cannot answer it —
//! fields differ wildly in entropy, so a shared ratio starves the hard
//! fields and a shared PSNR busts the budget — the budget has to be
//! *allocated*.
//!
//! The driver turns the paper's one-pass machinery into a global solver:
//!
//! 1. **Pilot** — every field runs the cheap [`szlike::RateModel`] pilot
//!    (one quantized walk, no entropy/LZ stages) in parallel and
//!    materializes its predicted bytes-vs-PSNR curve on one shared PSNR
//!    grid ([`AllocOptions::psnr_lo`] + `i`·[`AllocOptions::psnr_step`]).
//!    Degenerate fields (constant or all-non-finite: no rate curve
//!    exists) are **quarantined**: compressed outside the optimization at
//!    the grid-floor target, their bytes pre-charged against the budget.
//! 2. **Solve** — on the shared grid both objectives reduce to exact
//!    array arithmetic, so the solve is deterministic to the bit and
//!    independent of thread count:
//!    - [`AllocObjective::MinPsnr`] (default) — *maximize the minimum
//!      PSNR*: every field shares one grid target, and the solver takes
//!      the highest grid point whose summed predicted bytes fit
//!      ([`solve_min_psnr`] — water-filling where the water level *is*
//!      the shared PSNR).
//!    - [`AllocObjective::WeightedMse`] — *minimize `Σ wᵢ·MSEᵢ`*: a
//!      λ-bisection on the Lagrangian `wᵢ·MSEᵢ + λ·bytesᵢ` picks
//!      per-field grid points, then a greedy marginal-gain fill spends
//!      the leftover ([`solve_weighted_mse`]). `MSEᵢ(P) =
//!      vrᵢ²·10^(−P/10)` follows from the PSNR definition.
//! 3. **Compress** — every field compresses at its assigned target in
//!    one parallel pass ([`fpsnr_parallel::nested_split`] divides the
//!    worker budget between field-level and block-level parallelism).
//! 4. **Feedback** — if the measured total overshoots the budget (or
//!    under-uses it beyond [`AllocOptions::utilization_floor`]), each
//!    field's curve is rescaled by its measured/predicted gain (clamped
//!    to `[0.25, 4]`), the budget is re-solved **once**, and only fields
//!    whose assignment changed recompress. At most 2 real compression
//!    passes per field, structurally — there is no loop to bound.
//!
//! Every stage reports through `fpsnr-obs` (`alloc.pilot_passes`,
//! `alloc.compress_passes`, `alloc.second_passes`, `alloc.resolves`,
//! `alloc.quarantined`, spans `alloc.pilot/solve/compress`), which is how
//! the accuracy harness asserts the pass budget from the outside.

use crate::fixed_psnr::{compress_fixed_psnr, FixedPsnrOptions};
use fpsnr_metrics::summary::{AllocFieldStat, FieldFailure, SnapshotSummary};
use fpsnr_parallel::{default_threads, nested_split, par_map};
use ndfield::Field;
use szlike::ratemodel::{RateCurve, RateModel};
use szlike::SzError;

/// A field of either scalar width — snapshots mix f32 and f64 fields, and
/// the allocator treats them uniformly (the rate model and compressor are
/// generic; only the raw-byte accounting differs).
#[derive(Debug, Clone)]
pub enum AnyField {
    /// Single-precision samples.
    F32(Field<f32>),
    /// Double-precision samples.
    F64(Field<f64>),
}

impl AnyField {
    /// Finite-sample value range (the Eq. 8 conversion factor).
    pub fn value_range(&self) -> f64 {
        match self {
            AnyField::F32(f) => f.value_range(),
            AnyField::F64(f) => f.value_range(),
        }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        match self {
            AnyField::F32(f) => f.len(),
            AnyField::F64(f) => f.len(),
        }
    }

    /// Whether the field holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Uncompressed size in bytes.
    pub fn raw_bytes(&self) -> u64 {
        match self {
            AnyField::F32(f) => (f.len() * 4) as u64,
            AnyField::F64(f) => (f.len() * 8) as u64,
        }
    }

    fn pilot(&self, opts: &FixedPsnrOptions) -> Result<RateModel, SzError> {
        // The pilot ignores the bound; 1e-3 is only a placeholder to
        // materialize the config.
        let cfg = opts.sz_config(1e-3);
        match self {
            AnyField::F32(f) => RateModel::pilot(f, &cfg),
            AnyField::F64(f) => RateModel::pilot(f, &cfg),
        }
    }

    /// Verified fixed-PSNR compression; returns (container, achieved
    /// PSNR).
    fn compress(
        &self,
        target_psnr: f64,
        opts: &FixedPsnrOptions,
    ) -> Result<(Vec<u8>, f64), SzError> {
        match self {
            AnyField::F32(f) => compress_fixed_psnr(f, target_psnr, opts)
                .map(|r| (r.bytes, r.outcome.achieved_psnr)),
            AnyField::F64(f) => compress_fixed_psnr(f, target_psnr, opts)
                .map(|r| (r.bytes, r.outcome.achieved_psnr)),
        }
    }
}

/// One named member of a snapshot, with its weight under the
/// [`AllocObjective::WeightedMse`] objective (ignored by
/// [`AllocObjective::MinPsnr`]; default 1).
#[derive(Debug, Clone)]
pub struct SnapshotField {
    /// Field name (e.g. `"CLDHGH"`).
    pub name: String,
    /// Relative importance under the weighted objective; must be finite
    /// and positive.
    pub weight: f64,
    /// The samples.
    pub data: AnyField,
}

impl SnapshotField {
    /// Wrap an f32 field at weight 1.
    pub fn f32(name: impl Into<String>, field: Field<f32>) -> Self {
        SnapshotField {
            name: name.into(),
            weight: 1.0,
            data: AnyField::F32(field),
        }
    }

    /// Wrap an f64 field at weight 1.
    pub fn f64(name: impl Into<String>, field: Field<f64>) -> Self {
        SnapshotField {
            name: name.into(),
            weight: 1.0,
            data: AnyField::F64(field),
        }
    }

    /// Set the weighted-MSE weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }
}

/// What the allocator optimizes subject to `Σ bytesᵢ ≤ budget`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocObjective {
    /// Maximize the minimum per-field PSNR (the archival fairness
    /// objective: no field is left unusable). Default.
    MinPsnr,
    /// Minimize `Σ wᵢ·MSEᵢ` — spend bytes where they buy the most
    /// weighted distortion, allowing per-field quality to diverge.
    WeightedMse,
}

/// A snapshot-allocation request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocOptions {
    /// Global byte budget for the whole snapshot.
    pub budget_bytes: u64,
    /// Objective (default [`AllocObjective::MinPsnr`]).
    pub objective: AllocObjective,
    /// Relative overshoot tolerance: a measured total within
    /// `budget · (1 + tolerance)` does not trigger the feedback pass.
    /// Default 0.02.
    pub tolerance: f64,
    /// Feedback also triggers when the measured total lands *under*
    /// `budget · utilization_floor` and the re-solve can move any field
    /// up the grid. Default 0.90.
    pub utilization_floor: f64,
    /// Total worker threads split between field- and block-level
    /// parallelism (0 = [`default_threads`]).
    pub threads: usize,
    /// Compressor knobs shared by every pass (its `threads` field is
    /// overwritten by the [`nested_split`] inner share).
    pub compress: FixedPsnrOptions,
    /// Lowest PSNR the allocator may assign (grid origin, dB).
    pub psnr_lo: f64,
    /// Grid spacing in dB — the quantum of the allocation.
    pub psnr_step: f64,
    /// Grid length; the ceiling is `psnr_lo + (psnr_points−1)·step`.
    pub psnr_points: usize,
}

impl AllocOptions {
    /// Defaults around a budget: max-min PSNR on a 20–140 dB grid in
    /// 0.25 dB steps, 2% overshoot tolerance, auto threads.
    pub fn new(budget_bytes: u64) -> Self {
        AllocOptions {
            budget_bytes,
            objective: AllocObjective::MinPsnr,
            tolerance: 0.02,
            utilization_floor: 0.90,
            threads: 0,
            compress: FixedPsnrOptions::default(),
            psnr_lo: 20.0,
            psnr_step: 0.25,
            psnr_points: 481,
        }
    }

    fn validate(&self) -> Result<(), SzError> {
        if self.budget_bytes == 0 {
            return Err(SzError::BadBound("snapshot budget must be positive".into()));
        }
        if !(self.tolerance.is_finite() && self.tolerance >= 0.0) {
            return Err(SzError::BadBound(format!(
                "budget tolerance must be finite and non-negative, got {}",
                self.tolerance
            )));
        }
        if !(self.utilization_floor.is_finite() && (0.0..=1.0).contains(&self.utilization_floor)) {
            return Err(SzError::BadBound(format!(
                "utilization floor must be in [0, 1], got {}",
                self.utilization_floor
            )));
        }
        if !(self.psnr_lo.is_finite() && self.psnr_lo > 0.0)
            || !(self.psnr_step.is_finite() && self.psnr_step > 0.0)
            || self.psnr_points == 0
        {
            return Err(SzError::BadBound(format!(
                "PSNR grid must be positive and non-empty (lo {}, step {}, points {})",
                self.psnr_lo, self.psnr_step, self.psnr_points
            )));
        }
        Ok(())
    }

    fn grid_psnr(&self, i: usize) -> f64 {
        self.psnr_lo + self.psnr_step * i as f64
    }
}

/// One field's allocation result: the accounting record plus the
/// container it produced (`None` when the field failed).
#[derive(Debug, Clone)]
pub struct AllocFieldRun {
    /// Assignment, measurements and pass accounting.
    pub stat: AllocFieldStat,
    /// The compressed container.
    pub bytes: Option<Vec<u8>>,
    /// Structured cause when the field failed (pilot or compression).
    pub failure: Option<FieldFailure>,
}

/// A complete snapshot-allocation run.
#[derive(Debug, Clone)]
pub struct SnapshotAllocation {
    /// Per-field results in input order.
    pub fields: Vec<AllocFieldRun>,
    /// Budget compliance, utilization, min-PSNR, pass totals.
    pub summary: SnapshotSummary,
    /// Feedback re-solves performed (0 or 1 by construction).
    pub resolves: u32,
}

/// Maximize-min-PSNR solve: the highest shared grid index whose summed
/// predicted bytes fit the budget (index 0 — the grid floor — when even
/// that does not fit: the budget is infeasible and the caller sees it in
/// the summary's utilization).
///
/// All curves must share one grid. Pure array arithmetic: deterministic,
/// monotone in the budget (a larger budget never yields a lower index).
pub fn solve_min_psnr(curves: &[RateCurve], budget: f64) -> usize {
    if curves.is_empty() {
        return 0;
    }
    let points = curves.iter().map(RateCurve::points).min().unwrap_or(0);
    let mut best = 0usize;
    for j in 0..points {
        let total: f64 = curves.iter().map(|c| c.bytes_at(j)).sum();
        if total <= budget {
            best = j;
        } else {
            // Per-curve bytes are monotone in the grid index, so the
            // first overflow ends the scan.
            break;
        }
    }
    best
}

/// Minimize `Σ wᵢ·MSEᵢ` subject to the budget: λ-bisection on the
/// per-field Lagrangian `wᵢ·MSEᵢ[j] + λ·bytesᵢ[j]` (each field picks its
/// own grid point), then a greedy marginal-gain fill of the leftover.
/// Returns one grid index per curve; all-zero when the budget is
/// infeasible even at the grid floor.
pub fn solve_weighted_mse(
    curves: &[RateCurve],
    weights: &[f64],
    psnr_lo: f64,
    psnr_step: f64,
    budget: f64,
) -> Vec<usize> {
    assert_eq!(curves.len(), weights.len(), "one weight per curve");
    let n = curves.len();
    if n == 0 {
        return Vec::new();
    }
    let points = curves.iter().map(RateCurve::points).min().unwrap_or(0);
    // wᵢ·MSEᵢ[j] = wᵢ·vrᵢ²·10^(−Pⱼ/10), strictly decreasing in j.
    let wmse: Vec<Vec<f64>> = curves
        .iter()
        .zip(weights)
        .map(|(c, &w)| {
            let vr2 = c.value_range() * c.value_range();
            (0..points)
                .map(|j| w * vr2 * 10f64.powf(-(psnr_lo + psnr_step * j as f64) / 10.0))
                .collect()
        })
        .collect();
    let pick = |lambda: f64| -> Vec<usize> {
        (0..n)
            .map(|f| {
                let mut best_j = 0usize;
                let mut best_score = f64::INFINITY;
                for j in 0..points {
                    let score = wmse[f][j] + lambda * curves[f].bytes_at(j);
                    if score < best_score {
                        best_score = score;
                        best_j = j;
                    }
                }
                best_j
            })
            .collect()
    };
    let total = |idx: &[usize]| -> f64 {
        idx.iter()
            .enumerate()
            .map(|(f, &j)| curves[f].bytes_at(j))
            .sum()
    };
    let mut idx = pick(0.0);
    if total(&idx) > budget {
        // Find a λ that fits by doubling, then bisect toward the
        // smallest fitting λ (the highest quality inside the budget).
        let mut hi = 1e-12f64;
        let mut fits = false;
        for _ in 0..120 {
            idx = pick(hi);
            if total(&idx) <= budget {
                fits = true;
                break;
            }
            hi *= 4.0;
        }
        if !fits {
            // Even pure byte-minimization overflows: infeasible budget.
            return vec![0; n];
        }
        let mut lo = 0.0f64;
        for _ in 0..96 {
            let mid = 0.5 * (lo + hi);
            let cand = pick(mid);
            if total(&cand) <= budget {
                hi = mid;
                idx = cand;
            } else {
                lo = mid;
            }
        }
    }
    // Greedy fill: repeatedly upgrade the field with the best weighted
    // distortion drop per byte that still fits. Bounded by n·points
    // upgrades total.
    let mut spent = total(&idx);
    loop {
        let mut best: Option<(f64, usize)> = None;
        for f in 0..n {
            let j = idx[f];
            if j + 1 >= points {
                continue;
            }
            let db = curves[f].bytes_at(j + 1) - curves[f].bytes_at(j);
            if spent + db > budget {
                continue;
            }
            let gain = (wmse[f][j] - wmse[f][j + 1]) / db.max(1e-9);
            if best.map_or(true, |(g, _)| gain > g) {
                best = Some((gain, f));
            }
        }
        match best {
            Some((_, f)) => {
                spent += curves[f].bytes_at(idx[f] + 1) - curves[f].bytes_at(idx[f]);
                idx[f] += 1;
            }
            None => break,
        }
    }
    idx
}

/// What phase 1 produced for one field.
enum Prep {
    /// Healthy: its predicted rate curve on the shared grid.
    Curve(RateCurve),
    /// Degenerate (no rate curve exists): already compressed at the grid
    /// floor, bytes pre-charged to the budget.
    Quarantined { bytes: Vec<u8>, achieved_psnr: f64 },
    /// Neither pilot nor quarantine compression survived.
    Failed(FieldFailure),
}

/// Allocate a global byte budget across a snapshot and compress every
/// field at its assigned target. See the module docs for the algorithm.
///
/// Per-field failures (degenerate inputs the quarantine path cannot even
/// store, config/shape mismatches) are reported in that field's
/// [`AllocFieldRun::failure`] instead of aborting the snapshot.
///
/// # Errors
/// [`SzError::BadBound`] for invalid options or non-positive field
/// weights. Per-field pipeline errors do *not* propagate.
pub fn allocate_snapshot(
    fields: &[SnapshotField],
    opts: &AllocOptions,
) -> Result<SnapshotAllocation, SzError> {
    opts.validate()?;
    for f in fields {
        if !(f.weight.is_finite() && f.weight > 0.0) {
            return Err(SzError::BadBound(format!(
                "field {:?} has non-positive weight {}",
                f.name, f.weight
            )));
        }
    }
    let _total_span = fpsnr_obs::span("alloc.total");
    let threads = if opts.threads == 0 {
        default_threads()
    } else {
        opts.threads
    };
    let (outer, inner) = nested_split(threads, fields.len());
    let copts = FixedPsnrOptions {
        threads: inner,
        ..opts.compress
    };

    // ---- Phase 1: parallel pilots; degenerate fields quarantine now.
    let pilot_span = fpsnr_obs::span("alloc.pilot");
    let preps: Vec<Prep> = par_map(fields, outer, |f| {
        let vr = f.data.value_range();
        if !(vr.is_finite() && vr > 0.0) {
            // No rate curve exists; store the field outside the
            // optimization. The bound is irrelevant for these inputs
            // (constant/non-finite data short-circuits in the
            // compressor), so the grid floor is as good as any.
            return match f.data.compress(opts.grid_psnr(0), &copts) {
                Ok((bytes, achieved_psnr)) => {
                    if fpsnr_obs::is_enabled() {
                        fpsnr_obs::add("alloc.quarantined", 1);
                        fpsnr_obs::add("alloc.compress_passes", 1);
                    }
                    Prep::Quarantined {
                        bytes,
                        achieved_psnr,
                    }
                }
                Err(e) => Prep::Failed(FieldFailure {
                    stage: "compress",
                    detail: e.to_string(),
                }),
            };
        }
        match f.data.pilot(&copts) {
            Ok(model) => {
                if fpsnr_obs::is_enabled() {
                    fpsnr_obs::add("alloc.pilot_passes", 1);
                }
                Prep::Curve(model.curve(opts.psnr_lo, opts.psnr_step, opts.psnr_points, 1.0))
            }
            Err(e) => Prep::Failed(FieldFailure {
                stage: "pilot",
                detail: e.to_string(),
            }),
        }
    });
    drop(pilot_span);

    let quarantine_bytes: u64 = preps
        .iter()
        .map(|p| match p {
            Prep::Quarantined { bytes, .. } => bytes.len() as u64,
            _ => 0,
        })
        .sum();
    // The optimizable sub-problem: curve holders, with the budget net of
    // what the quarantined fields already spent.
    let opt_fields: Vec<usize> = preps
        .iter()
        .enumerate()
        .filter(|(_, p)| matches!(p, Prep::Curve(_)))
        .map(|(i, _)| i)
        .collect();
    let curves: Vec<&RateCurve> = opt_fields
        .iter()
        .map(|&i| match &preps[i] {
            Prep::Curve(c) => c,
            _ => unreachable!("opt_fields holds only curves"),
        })
        .collect();
    let weights: Vec<f64> = opt_fields.iter().map(|&i| fields[i].weight).collect();
    let solve_budget = (opts.budget_bytes.saturating_sub(quarantine_bytes)) as f64;

    let solve = |cs: &[RateCurve]| -> Vec<usize> {
        let _span = fpsnr_obs::span("alloc.solve");
        match opts.objective {
            AllocObjective::MinPsnr => vec![solve_min_psnr(cs, solve_budget); cs.len()],
            AllocObjective::WeightedMse => {
                solve_weighted_mse(cs, &weights, opts.psnr_lo, opts.psnr_step, solve_budget)
            }
        }
    };
    let owned: Vec<RateCurve> = curves.iter().map(|&c| c.clone()).collect();
    let assign = solve(&owned);

    // ---- Phase 2: one parallel compression pass at the assignments.
    struct Pass {
        bytes: Option<Vec<u8>>,
        achieved_psnr: f64,
        failure: Option<FieldFailure>,
        passes: u32,
    }
    let compress_at = |work: &[(usize, usize)]| -> Vec<Pass> {
        // work: (position in opt_fields, grid index)
        let _span = fpsnr_obs::span("alloc.compress");
        let (outer, inner) = nested_split(threads, work.len());
        let copts = FixedPsnrOptions {
            threads: inner,
            ..opts.compress
        };
        par_map(work, outer, |&(k, j)| {
            let f = &fields[opt_fields[k]];
            match f.data.compress(opts.grid_psnr(j), &copts) {
                Ok((bytes, achieved_psnr)) => {
                    if fpsnr_obs::is_enabled() {
                        fpsnr_obs::add("alloc.compress_passes", 1);
                    }
                    Pass {
                        bytes: Some(bytes),
                        achieved_psnr,
                        failure: None,
                        passes: 1,
                    }
                }
                Err(e) => Pass {
                    bytes: None,
                    achieved_psnr: f64::NAN,
                    failure: Some(FieldFailure {
                        stage: "compress",
                        detail: e.to_string(),
                    }),
                    passes: 1,
                },
            }
        })
    };
    let work: Vec<(usize, usize)> = assign.iter().copied().enumerate().collect();
    let mut passes = compress_at(&work);
    let mut assign = assign;

    // ---- Phase 3: bounded feedback. One re-solve on gain-corrected
    // curves; recompress only reassigned fields. Never loops.
    let mut resolves = 0u32;
    let measured_total = |ps: &[Pass]| -> u64 {
        quarantine_bytes
            + ps.iter()
                .map(|p| p.bytes.as_ref().map_or(0, |b| b.len() as u64))
                .sum::<u64>()
    };
    let total = measured_total(&passes);
    let over = total as f64 > opts.budget_bytes as f64 * (1.0 + opts.tolerance);
    let under = (total as f64) < opts.budget_bytes as f64 * opts.utilization_floor;
    if (over || under) && !owned.is_empty() {
        let corrected: Vec<RateCurve> = owned
            .iter()
            .enumerate()
            .map(|(k, c)| {
                let predicted = c.bytes_at(assign[k]);
                let gain = match &passes[k].bytes {
                    Some(b) if predicted > 0.0 => (b.len() as f64 / predicted).clamp(0.25, 4.0),
                    _ => 1.0,
                };
                c.scaled(gain)
            })
            .collect();
        let reassign = solve(&corrected);
        resolves = 1;
        if fpsnr_obs::is_enabled() {
            fpsnr_obs::add("alloc.resolves", 1);
        }
        let rework: Vec<(usize, usize)> = reassign
            .iter()
            .copied()
            .enumerate()
            .filter(|&(k, j)| j != assign[k] && passes[k].failure.is_none())
            .collect();
        if !rework.is_empty() {
            if fpsnr_obs::is_enabled() {
                fpsnr_obs::add("alloc.second_passes", rework.len() as u64);
            }
            let second = compress_at(&rework);
            for (slot, mut p) in rework.into_iter().zip(second) {
                let (k, j) = slot;
                p.passes = passes[k].passes + 1;
                passes[k] = p;
                assign[k] = j;
            }
        }
    }

    // ---- Phase 4: assemble per-field records in input order.
    let mut pass_iter = passes.into_iter();
    let mut k = 0usize; // position in opt_fields / assign
    let runs: Vec<AllocFieldRun> = preps
        .into_iter()
        .enumerate()
        .map(|(i, prep)| {
            let f = &fields[i];
            let raw = f.data.raw_bytes();
            match prep {
                Prep::Curve(curve) => {
                    let p = pass_iter.next().expect("one pass per curve");
                    let j = assign[k];
                    k += 1;
                    AllocFieldRun {
                        stat: AllocFieldStat {
                            field: f.name.clone(),
                            assigned_psnr: opts.grid_psnr(j),
                            achieved_psnr: p.achieved_psnr,
                            predicted_bytes: curve.bytes_at(j),
                            achieved_bytes: p.bytes.as_ref().map_or(0, |b| b.len() as u64),
                            raw_bytes: raw,
                            passes: p.passes,
                            quarantined: false,
                        },
                        bytes: p.bytes,
                        failure: p.failure,
                    }
                }
                Prep::Quarantined {
                    bytes,
                    achieved_psnr,
                } => AllocFieldRun {
                    stat: AllocFieldStat {
                        field: f.name.clone(),
                        assigned_psnr: f64::NAN,
                        achieved_psnr,
                        predicted_bytes: f64::NAN,
                        achieved_bytes: bytes.len() as u64,
                        raw_bytes: raw,
                        passes: 1,
                        quarantined: true,
                    },
                    bytes: Some(bytes),
                    failure: None,
                },
                Prep::Failed(failure) => AllocFieldRun {
                    stat: AllocFieldStat {
                        field: f.name.clone(),
                        assigned_psnr: f64::NAN,
                        achieved_psnr: f64::NAN,
                        predicted_bytes: f64::NAN,
                        achieved_bytes: 0,
                        raw_bytes: raw,
                        passes: 0,
                        quarantined: true,
                    },
                    bytes: None,
                    failure: Some(failure),
                },
            }
        })
        .collect();
    let stats: Vec<AllocFieldStat> = runs.iter().map(|r| r.stat.clone()).collect();
    let summary = SnapshotSummary::aggregate(opts.budget_bytes, &stats);
    Ok(SnapshotAllocation {
        fields: runs,
        summary,
        resolves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndfield::Shape;

    fn textured(k: usize) -> Field<f32> {
        Field::from_fn_2d(40, 52, move |i, j| {
            let x = i as f32 * 0.11 + k as f32 * 0.7;
            let y = j as f32 * 0.13;
            (10.0 + k as f32) * (x.sin() + (y * 0.9).cos()) + ((x * 3.1).sin() * (y * 2.3).cos())
        })
    }

    fn snapshot(n: usize) -> Vec<SnapshotField> {
        (0..n)
            .map(|k| SnapshotField::f32(format!("field_{k}"), textured(k)))
            .collect()
    }

    fn curves_for(fields: &[SnapshotField], opts: &AllocOptions) -> Vec<RateCurve> {
        fields
            .iter()
            .map(|f| {
                f.data.pilot(&opts.compress).unwrap().curve(
                    opts.psnr_lo,
                    opts.psnr_step,
                    opts.psnr_points,
                    1.0,
                )
            })
            .collect()
    }

    #[test]
    fn min_psnr_solver_is_budget_monotone_and_feasible() {
        let opts = AllocOptions::new(1);
        let curves = curves_for(&snapshot(6), &opts);
        let mut prev = 0usize;
        let mut grew = false;
        for budget in (1..=12).map(|m| m as f64 * 4096.0) {
            let j = solve_min_psnr(&curves, budget);
            assert!(j >= prev, "budget {budget}: index {j} < previous {prev}");
            let total: f64 = curves.iter().map(|c| c.bytes_at(j)).sum();
            assert!(
                j == 0 || total <= budget,
                "budget {budget} overspent: {total}"
            );
            grew |= j > prev;
            prev = j;
        }
        assert!(grew, "larger budgets never bought higher PSNR");
    }

    #[test]
    fn weighted_solver_respects_budget_and_favors_weight() {
        let opts = AllocOptions::new(1);
        let fields = snapshot(4);
        let curves = curves_for(&fields, &opts);
        let budget = 3.0 * curves.iter().map(|c| c.bytes_at(0)).sum::<f64>();
        let even = solve_weighted_mse(&curves, &[1.0; 4], opts.psnr_lo, opts.psnr_step, budget);
        let total: f64 = even
            .iter()
            .enumerate()
            .map(|(f, &j)| curves[f].bytes_at(j))
            .sum();
        assert!(
            total <= budget,
            "even weights overspent: {total} > {budget}"
        );
        // Pushing all the weight onto field 0 must not lower its quality.
        let skew = solve_weighted_mse(
            &curves,
            &[1e4, 1.0, 1.0, 1.0],
            opts.psnr_lo,
            opts.psnr_step,
            budget,
        );
        assert!(
            skew[0] >= even[0],
            "upweighting field 0 lowered it: {} -> {}",
            even[0],
            skew[0]
        );
    }

    #[test]
    fn allocation_fits_budget_and_preserves_order() {
        let fields = snapshot(6);
        let raw: u64 = fields.iter().map(|f| f.data.raw_bytes()).sum();
        let opts = AllocOptions {
            threads: 2,
            ..AllocOptions::new(raw / 12)
        };
        let run = allocate_snapshot(&fields, &opts).unwrap();
        assert_eq!(run.fields.len(), 6);
        for (k, r) in run.fields.iter().enumerate() {
            assert_eq!(r.stat.field, format!("field_{k}"));
            assert!(r.failure.is_none(), "field {k}: {:?}", r.failure);
            assert!(r.stat.passes <= 2);
        }
        assert!(run.summary.within_budget(opts.tolerance));
        assert!(run.summary.max_passes <= 2);
        // The shared min-PSNR target: every allocated field gets one level.
        let assigned: Vec<f64> = run.fields.iter().map(|r| r.stat.assigned_psnr).collect();
        assert!(assigned.iter().all(|&a| (a - assigned[0]).abs() < 1e-9));
    }

    #[test]
    fn degenerate_fields_are_quarantined_not_fatal() {
        let mut fields = snapshot(3);
        fields.insert(
            1,
            SnapshotField::f32("flat", Field::from_vec(Shape::D2(16, 16), vec![3.0; 256])),
        );
        fields.push(SnapshotField::f32(
            "nans",
            Field::from_vec(Shape::D2(16, 16), vec![f32::NAN; 256]),
        ));
        let raw: u64 = fields.iter().map(|f| f.data.raw_bytes()).sum();
        let run = allocate_snapshot(&fields, &AllocOptions::new(raw / 10)).unwrap();
        assert_eq!(run.summary.n_quarantined, 2);
        let flat = &run.fields[1];
        assert!(flat.stat.quarantined);
        assert!(flat.stat.assigned_psnr.is_nan());
        assert!(flat.bytes.is_some(), "quarantined fields still get stored");
        assert!(flat.stat.achieved_psnr.is_infinite());
        for r in &run.fields {
            assert!(r.failure.is_none());
        }
        assert!(run.summary.min_assigned_psnr.is_finite());
    }

    #[test]
    fn empty_snapshot_is_fine() {
        let run = allocate_snapshot(&[], &AllocOptions::new(1024)).unwrap();
        assert!(run.fields.is_empty());
        assert_eq!(run.summary.total_bytes, 0);
        assert_eq!(run.resolves, 0);
    }

    #[test]
    fn bad_options_rejected() {
        let fields = snapshot(1);
        assert!(allocate_snapshot(&fields, &AllocOptions::new(0)).is_err());
        let mut bad = AllocOptions::new(1 << 20);
        bad.psnr_points = 0;
        assert!(allocate_snapshot(&fields, &bad).is_err());
        let heavy = vec![snapshot(1).remove(0).with_weight(f64::NAN)];
        assert!(allocate_snapshot(&heavy, &AllocOptions::new(1 << 20)).is_err());
    }

    #[test]
    fn weighted_objective_diverges_per_field_targets() {
        let fields: Vec<SnapshotField> = snapshot(4)
            .into_iter()
            .enumerate()
            .map(|(k, f)| f.with_weight(if k == 0 { 1e6 } else { 1.0 }))
            .collect();
        let raw: u64 = fields.iter().map(|f| f.data.raw_bytes()).sum();
        let opts = AllocOptions {
            objective: AllocObjective::WeightedMse,
            ..AllocOptions::new(raw / 16)
        };
        let run = allocate_snapshot(&fields, &opts).unwrap();
        assert!(run.summary.within_budget(opts.tolerance));
        let a: Vec<f64> = run.fields.iter().map(|r| r.stat.assigned_psnr).collect();
        assert!(
            a[0] >= a[1] && a[0] >= a[2] && a[0] >= a[3],
            "heaviest field got the lowest quality: {a:?}"
        );
    }
}
