//! Workload definitions and their seeded inputs.

use datagen::{DatasetId, Resolution};
use ndfield::{Field, Shape};
use szlike::PredictorKind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Six NYX 64³ fields at 100 dB, Lorenzo.
    Nyx,
    /// 79 ATM 225×450 fields at 40 and 100 dB, predictor bake-off.
    AtmAuto,
    /// One 128³ GRF in a 16³ chunk grid at 80 dB, Zipf region reads.
    Grf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Nyx, Workload::AtmAuto, Workload::Grf];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Nyx => "nyx-psnr100",
            Workload::AtmAuto => "atm-auto-40-100",
            Workload::Grf => "grf-region-zipf",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Fixed-PSNR targets of a codec workload, in dB.
pub fn targets(w: Workload) -> &'static [f64] {
    match w {
        Workload::Nyx => &[100.0],
        Workload::AtmAuto => &[40.0, 100.0],
        Workload::Grf => &[GRF_PSNR],
    }
}

/// Untimed set-up passes; `setup_s` is the pass's quiet time over them.
pub fn setup_reps(w: Workload) -> usize {
    match w {
        Workload::Nyx => 41,
        Workload::Grf => 41,
        Workload::AtmAuto => 4,
    }
}

/// Repetitions of each write unit and of each read unit per timed pass.
/// Cheap units repeat more, so that each unit's median rests on enough
/// repetitions.
pub fn reps_per_pass(w: Workload) -> (usize, usize) {
    match w {
        Workload::Nyx => (1, 2),
        Workload::AtmAuto => (1, 8),
        Workload::Grf => (4, 1),
    }
}

pub fn predictor(w: Workload) -> PredictorKind {
    match w {
        Workload::AtmAuto => PredictorKind::Auto,
        _ => PredictorKind::Lorenzo1,
    }
}

pub const GRF_DIM: usize = 128;
pub const GRF_PSNR: f64 = 80.0;
/// Chunk edge of the GRF grid container: 8³ = 512 blocks.
pub const GRF_CHUNK: usize = 16;
/// Region edge of one read.
pub const REGION_EDGE: usize = 24;
/// Anchor lattice spacing for region reads: a quarter chunk, so a
/// 24-sample region spans two chunks along an axis (anchor offsets 0, 4, 8
/// within a chunk) or three (offset 12).
pub const ANCHOR_STRIDE: usize = 4;
/// Zipf exponent over anchor ranks.
pub const ZIPF_S: f64 = 1.1;
/// Target ratio of the rate-targeting layers' snapshot (raw/16 budget).
pub const RATE_TARGET: f64 = 16.0;

/// The workload's input fields, generated from `seed`.
pub fn fields(w: Workload, seed: u64) -> Vec<(String, Field<f32>)> {
    match w {
        Workload::Nyx => named(DatasetId::Nyx, seed),
        Workload::AtmAuto => named(DatasetId::Atm, seed),
        Workload::Grf => {
            let n = GRF_DIM;
            let data: Vec<f32> = datagen::grf::grf_3d(n, n, n, 3.0, seed)
                .into_iter()
                .map(|v| v as f32)
                .collect();
            vec![("grf".to_string(), Field::from_vec(Shape::D3(n, n, n), data))]
        }
    }
}

fn named(id: DatasetId, seed: u64) -> Vec<(String, Field<f32>)> {
    datagen::generate(id, Resolution::Default, seed)
        .into_iter()
        .map(|f| (f.name, f.data))
        .collect()
}

pub fn raw_bytes(field: &Field<f32>) -> usize {
    field.len() * 4
}

pub const MIB: f64 = 1024.0 * 1024.0;
