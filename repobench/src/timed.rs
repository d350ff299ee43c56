//! The untraced run: set-up, output checks, then a timed window over the
//! workload's user-facing operations.
//!
//! Every timing is a quiet level ([`Reps`]): each unit of work (one
//! container's compress, one container's decompress, the grid write, the
//! k-th read of the region sequence) repeats with the same input and the
//! same output, pass after pass, and its time is taken at the level the
//! quietest repetitions of all units show. Throughput is the units' bytes
//! over the sum of their quiet times.

use crate::checks::{self, ReadPlan};
use crate::corpus::{self, raw_bytes, Workload, MIB};
use crate::report::Tally;
use crate::stats::{percentile, Reps};
use fpsnr_core::ebabs_for_psnr;
use fpsnr_core::fixed_psnr::{compress_fixed_psnr_only, FixedPsnrOptions};
use ndfield::{Field, Shape};
use std::time::{Duration, Instant};
use szlike::{StoreOptions, SzStore};

/// Region reads per pass of the GRF workload (each pass opens a fresh
/// store, so the k-th read finds the same cache state in every pass).
pub const READS_PER_PASS: usize = 1024;
/// Region reads compared against a full decode during the checks.
const CHECKED_READS: usize = 64;

/// What a timed run measured.
#[derive(Default)]
pub struct E2e {
    /// Raw bytes of one pass over the write units.
    pub write_bytes: f64,
    pub write: Reps,
    /// Bytes one pass over the read units returns.
    pub read_bytes: f64,
    pub read: Reps,
    /// Set-up units (each set-up call) over the set-up passes.
    pub setup: Reps,
    pub passes: usize,
    /// Cache behaviour of one pass of the read sequence (region workload).
    pub store_hit_rate: f64,
    pub store_decode_amp: f64,
    pub ratio: f64,
    pub psnr_err_db: f64,
    pub min_psnr_db: f64,
}

impl E2e {
    pub fn metrics(&self, peak_rss_mib: f64) -> Vec<(&'static str, f64)> {
        vec![
            (
                "write_mib_s",
                self.write_bytes / MIB / self.write.quiet_total(),
            ),
            (
                "read_mib_s",
                self.read_bytes / MIB / self.read.quiet_total(),
            ),
            ("ratio", self.ratio),
            ("min_psnr_db", self.min_psnr_db),
            ("setup_s", self.setup.quiet_total()),
            ("peak_rss_mib", peak_rss_mib),
        ]
    }

    /// `q`-quantile of the read units' quiet latencies, µs (`None` under
    /// the percentile rule).
    pub fn read_percentile_us(&self, q: f64) -> Option<f64> {
        let us: Vec<f64> = self.read.quiet_units().iter().map(|s| s * 1e6).collect();
        percentile(&us, q)
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Passes run until `seconds` have passed, and at least once.
fn window_open(start: Instant, passes: usize, seconds: f64) -> bool {
    passes == 0 || start.elapsed().as_secs_f64() < seconds
}

pub fn run(
    w: Workload,
    fields: &[(String, Field<f32>)],
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<E2e, String> {
    match w {
        Workload::Nyx | Workload::AtmAuto => codec(w, fields, seconds, tally),
        Workload::Grf => region(w, &fields[0].1, seed, seconds, tally),
    }
}

/// Fixed-PSNR compress and full decompress of every (field, target) pair.
fn codec(
    w: Workload,
    fields: &[(String, Field<f32>)],
    seconds: f64,
    tally: &mut Tally,
) -> Result<E2e, String> {
    let opts = FixedPsnrOptions {
        predictor: corpus::predictor(w),
        ..FixedPsnrOptions::default()
    };
    let pairs: Vec<(&Field<f32>, f64)> = fields
        .iter()
        .flat_map(|(_, f)| corpus::targets(w).iter().map(move |&t| (f, t)))
        .collect();
    let mut e = E2e::default();

    // Set-up: the untimed warm-up pass, repeated.
    let mut containers: Vec<Vec<u8>> = Vec::new();
    let mut decoded: Vec<Field<f32>> = Vec::new();
    for rep in 0..corpus::setup_reps(w) {
        let mut cs = Vec::with_capacity(pairs.len());
        let mut ds = Vec::with_capacity(pairs.len());
        for (i, &(f, t)) in pairs.iter().enumerate() {
            let (c, dt) = timed(|| compress_fixed_psnr_only(f, t, &opts));
            e.setup.record(2 * i, dt.as_secs_f64());
            let c = c.map_err(|e| e.to_string())?;
            let (d, dt) = timed(|| szlike::decompress::<f32>(&c));
            e.setup.record(2 * i + 1, dt.as_secs_f64());
            ds.push(d.map_err(|e| e.to_string())?);
            cs.push(c);
        }
        if rep == 0 {
            containers = cs;
            decoded = ds;
        } else {
            tally.check(cs == containers, || {
                "containers differ between set-up passes".into()
            });
        }
    }

    // Checks on the untimed pass.
    let (mut raw, mut comp) = (0usize, 0usize);
    e.min_psnr_db = f64::INFINITY;
    for (i, &(f, t)) in pairs.iter().enumerate() {
        let eb = ebabs_for_psnr(t, f.value_range());
        let verdict = checks::bound_holds(f, &decoded[i], eb);
        tally.check(verdict.is_ok(), || {
            format!("pair {i} at {t} dB: {}", verdict.unwrap_err())
        });
        let p = checks::psnr(f, &decoded[i]);
        e.psnr_err_db = e.psnr_err_db.max((p - t).abs());
        e.min_psnr_db = e.min_psnr_db.min(p);
        raw += raw_bytes(f);
        comp += containers[i].len();
    }
    e.ratio = raw as f64 / comp as f64;
    e.write_bytes = raw as f64;
    e.read_bytes = raw as f64;

    // Timed window: compress then decompress each pair, pass after pass.
    let (write_reps, read_reps) = corpus::reps_per_pass(w);
    let start = Instant::now();
    while window_open(start, e.passes, seconds) {
        for (i, &(f, t)) in pairs.iter().enumerate() {
            for _ in 0..write_reps {
                let (c, dt) = timed(|| compress_fixed_psnr_only(f, t, &opts));
                e.write.record(i, dt.as_secs_f64());
                tally.check(c.as_ref().is_ok_and(|c| *c == containers[i]), || {
                    format!("timed compress of pair {i} differs")
                });
            }
            for _ in 0..read_reps {
                let (d, dt) = timed(|| szlike::decompress::<f32>(&containers[i]));
                e.read.record(i, dt.as_secs_f64());
                tally.check(
                    d.as_ref()
                        .is_ok_and(|d| checks::same_bits(d.as_slice(), decoded[i].as_slice())),
                    || format!("timed decompress of pair {i} differs"),
                );
            }
        }
        e.passes += 1;
    }
    Ok(e)
}

/// Fixed-PSNR options writing a chunk grid with `GRF_CHUNK`-sample edges.
pub fn grid_opts(shape: Shape) -> FixedPsnrOptions {
    let mut chunk_dims = [0; 3];
    chunk_dims[..shape.dims().len()].fill(corpus::GRF_CHUNK);
    FixedPsnrOptions {
        chunk_dims,
        ..FixedPsnrOptions::default()
    }
}

pub fn store_opts(field: &Field<f32>) -> StoreOptions {
    StoreOptions {
        cache_budget: raw_bytes(field) / 4,
        ..StoreOptions::default()
    }
}

/// Grid write, then Zipf-ranked region reads through a fresh store.
fn region(
    w: Workload,
    field: &Field<f32>,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<E2e, String> {
    let opts = grid_opts(field.shape());
    let sopts = store_opts(field);
    let target = corpus::GRF_PSNR;
    let mut e = E2e::default();

    // Set-up: write the grid container and open the store, repeated.
    let mut bytes = Vec::new();
    for rep in 0..corpus::setup_reps(w) {
        let (c, dt) = timed(|| compress_fixed_psnr_only(field, target, &opts));
        e.setup.record(0, dt.as_secs_f64());
        let c = c.map_err(|e| e.to_string())?;
        let (store, dt) = timed(|| SzStore::<f32>::open_with(c.clone(), sopts));
        e.setup.record(1, dt.as_secs_f64());
        store.map_err(|e| e.to_string())?;
        if rep == 0 {
            bytes = c;
        } else {
            tally.check(c == bytes, || {
                "grid containers differ between set-up passes".into()
            });
        }
    }

    let full = szlike::decompress::<f32>(&bytes).map_err(|e| e.to_string())?;
    let verdict = checks::bound_holds(field, &full, ebabs_for_psnr(target, field.value_range()));
    tally.check(verdict.is_ok(), || {
        format!("grid decode: {}", verdict.unwrap_err())
    });
    let p = checks::psnr(field, &full);
    e.psnr_err_db = (p - target).abs();
    e.min_psnr_db = p;
    e.ratio = raw_bytes(field) as f64 / bytes.len() as f64;
    e.write_bytes = raw_bytes(field) as f64;

    let plan = ReadPlan::new(field.shape(), seed);
    let reads = plan.sequence(seed, READS_PER_PASS);
    e.read_bytes = reads.iter().map(|r| r.bytes() as f64).sum();
    let expected: Vec<Vec<f32>> = reads
        .iter()
        .map(|r| checks::slice(&full, &r.ranges))
        .collect();
    let probe = SzStore::<f32>::open(&bytes).map_err(|e| e.to_string())?;
    for (k, r) in reads.iter().take(CHECKED_READS).enumerate() {
        let got = probe.read_region(&r.region);
        tally.check(
            got.as_ref()
                .is_ok_and(|g| checks::same_bits(g.as_slice(), &expected[k])),
            || format!("region read {k} differs from slicing the full decode"),
        );
    }

    let (write_reps, read_reps) = corpus::reps_per_pass(w);
    let start = Instant::now();
    while window_open(start, e.passes, seconds) {
        for _ in 0..write_reps {
            let (c, dt) = timed(|| compress_fixed_psnr_only(field, target, &opts));
            e.write.record(0, dt.as_secs_f64());
            tally.check(c.as_ref().is_ok_and(|c| *c == bytes), || {
                "timed grid write differs".into()
            });
        }
        for _ in 0..read_reps {
            let store =
                SzStore::<f32>::open_with(bytes.clone(), sopts).map_err(|e| e.to_string())?;
            for (k, r) in reads.iter().enumerate() {
                let (got, dt) = timed(|| store.read_region(&r.region));
                e.read.record(k, dt.as_secs_f64());
                tally.check(
                    got.as_ref()
                        .is_ok_and(|g| checks::same_bits(g.as_slice(), &expected[k])),
                    || format!("timed region read {k} differs"),
                );
            }
            let st = store.stats();
            e.store_hit_rate = st.hit_rate();
            e.store_decode_amp = st.decode_amplification();
        }
        e.passes += 1;
    }
    Ok(e)
}
