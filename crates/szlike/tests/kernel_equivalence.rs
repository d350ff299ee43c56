//! Differential property tests against the walk oracle,
//! `szlike::kernels::walk_reference`: the per-element walk that is the
//! codec's spec. Bit-identity with it is the contract that keeps the fused
//! hot loops out of the format-stability blast radius.
//!
//! Two levels (see `oracle/mod.rs`):
//!
//! - walk level: `walk_fused` yields the oracle's codes, escapes and
//!   reconstruction bit for bit for every predictor model, at every
//!   `FPSNR_SIMD` dispatch level;
//! - container level: every block of a compressed container decodes to
//!   what the oracle reconstructs from that block's samples with the
//!   predictor `select::model` picks for them, across randomized shapes
//!   (including degenerate dims of 1 and 2, where interior regions
//!   vanish), monolithic and blocked, and every dispatch level writes the
//!   same bytes.
//!
//! The `Auto` production walk continues the bake-off winner's slab walk;
//! `auto_container_is_the_forced_pick_container` pins that resume through
//! the public API.

mod oracle;

use ndfield::{Field, Scalar, Shape};
use oracle::{container_matches_oracle, walk_matches_oracle};
use proptest::prelude::*;
use szlike::{
    compress, select, ErrorBound, EscapeCoding, LosslessBackend, PredictorKind, SzConfig,
};

/// Deterministic samples mixing a smooth carrier with xorshift noise so both
/// the quantized core and the escape path are exercised. With `spikes`,
/// about one sample in 50 is NaN, ±∞ or ±1e30: non-finite values escape
/// and poison the stencils that read them, so escapes land in both rows of
/// wavefront pairs and quads.
fn samples_from_seed(n: usize, seed: u64, spikes: bool) -> Vec<f64> {
    let mut s = seed | 1;
    let mut vals = Vec::with_capacity(n);
    for i in 0..n {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let noise = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let smooth = ((i as f64) * 0.37).sin() * 2.0;
        vals.push(if spikes && s.is_multiple_of(50) {
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e30, -1e30][(s >> 40) as usize % 5]
        } else {
            smooth + noise * 0.2
        });
    }
    vals
}

fn field_from_seed(dims: &[usize], seed: u64) -> Field<f32> {
    typed_field(dims, seed, false)
}

fn typed_field<T: Scalar>(dims: &[usize], seed: u64, spikes: bool) -> Field<T> {
    let shape = Shape::from_dims(dims);
    let vals = samples_from_seed(shape.len(), seed, spikes);
    Field::from_vec(shape, vals.into_iter().map(T::from_f64).collect())
}

const EB: f64 = 1e-3;
/// Every predictor kind, `Auto` included: its bake-off walks each
/// candidate fused, and the production walk continues the winner's walk.
const PREDICTORS: [PredictorKind; 5] = [
    PredictorKind::Lorenzo1,
    PredictorKind::Lorenzo2,
    PredictorKind::Regression,
    PredictorKind::Spline,
    PredictorKind::Auto,
];
const ESCAPES: [EscapeCoding; 2] = [EscapeCoding::Exact, EscapeCoding::Truncated];

proptest! {
    // Default config: 64 cases, raised through PROPTEST_CASES in CI.
    #![proptest_config(ProptestConfig::default())]

    /// Walk level, every model at every rank: random shapes (dims of 1 and
    /// 2 included), bins from 16 (mostly escapes) to 65 536, both escape
    /// codings, non-finite spikes.
    #[test]
    fn fused_walk_matches_the_oracle(
        rank in 1usize..=3,
        d0 in 1usize..24,
        d1 in 1usize..24,
        d2 in 1usize..24,
        seed in any::<u64>(),
        p in 0usize..PREDICTORS.len(),
        bins_log in 0usize..3,
        e in 0usize..2,
        f64_data in proptest::bool::ANY,
    ) {
        let dims = match rank {
            1 => vec![d0 * d1 * d2],
            2 => vec![d0 * d2, d1],
            _ => vec![d0, d1, d2],
        };
        let bins = [16, 256, 65_536][bins_log];
        let label = format!("walk {dims:?} pred={p} bins={bins} escape={e}");
        let result = if f64_data {
            walk_for(&typed_field::<f64>(&dims, seed, true), PREDICTORS[p], bins, ESCAPES[e], &label)
        } else {
            walk_for(&typed_field::<f32>(&dims, seed, true), PREDICTORS[p], bins, ESCAPES[e], &label)
        };
        if let Err(msg) = result {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn containers_match_oracle_1d(
        n in 1usize..600,
        seed in any::<u64>(),
        p in 0usize..PREDICTORS.len(),
    ) {
        let field = field_from_seed(&[n], seed);
        let cfg = SzConfig::new(ErrorBound::Abs(EB)).with_predictor(PREDICTORS[p]);
        if let Err(msg) = container_matches_oracle(&field, &cfg, &format!("1D n={n} pred={p}")) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn containers_match_oracle_2d(
        rows in 1usize..40,
        cols in 1usize..40,
        seed in any::<u64>(),
        p in 0usize..PREDICTORS.len(),
        e in 0usize..2,
    ) {
        let field = typed_field::<f32>(&[rows, cols], seed, true);
        let cfg = SzConfig::new(ErrorBound::Abs(EB))
            .with_predictor(PREDICTORS[p])
            .with_escape(ESCAPES[e]);
        let label = format!("2D {rows}x{cols} pred={p} escape={e}");
        if let Err(msg) = container_matches_oracle(&field, &cfg, &label) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn containers_match_oracle_3d(
        d0 in 1usize..12,
        d1 in 1usize..12,
        d2 in 1usize..12,
        seed in any::<u64>(),
        p in 0usize..PREDICTORS.len(),
    ) {
        let field = field_from_seed(&[d0, d1, d2], seed);
        let cfg = SzConfig::new(ErrorBound::Abs(EB)).with_predictor(PREDICTORS[p]);
        let label = format!("3D {d0}x{d1}x{d2} pred={p}");
        if let Err(msg) = container_matches_oracle(&field, &cfg, &label) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn containers_match_oracle_blocked(
        rows in 1usize..30,
        cols in 1usize..30,
        seed in any::<u64>(),
        block_rows in 1usize..7,
        p in 0usize..PREDICTORS.len(),
    ) {
        // block_rows >= 1 forces the blocked container, so every block's
        // walk and the per-block decode mirror are compared.
        let field = field_from_seed(&[rows, cols], seed);
        let cfg = SzConfig::new(ErrorBound::Abs(EB))
            .with_predictor(PREDICTORS[p])
            .with_block_rows(block_rows);
        let label = format!("blocked {rows}x{cols} block_rows={block_rows} pred={p}");
        if let Err(msg) = container_matches_oracle(&field, &cfg, &label) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn containers_match_oracle_degenerate_shapes(
        seed in any::<u64>(),
        p in 0usize..PREDICTORS.len(),
        long in 3usize..60,
    ) {
        // Shapes where one or more dims are 1 or 2: the interior regions
        // collapse and every element takes the boundary path, the exact
        // cases a region-decomposition bug would miss.
        let shapes: [&[usize]; 8] = [
            &[1], &[2], &[1, long], &[long, 1], &[2, 2],
            &[1, 1, long], &[long, 1, 1], &[2, 2, 2],
        ];
        for dims in shapes {
            let field = field_from_seed(dims, seed);
            let cfg = SzConfig::new(ErrorBound::Abs(EB)).with_predictor(PREDICTORS[p]);
            let label = format!("degenerate {dims:?} pred={p}");
            if let Err(msg) = container_matches_oracle(&field, &cfg, &label) {
                prop_assert!(false, "{}", msg);
            }
        }
    }

    /// The resume of the bake-off winner's slab walk: a monolithic `Auto`
    /// container equals the container forced to the kind `select::model`
    /// picks, which walks from the start. Fields run past the 65 536-sample
    /// slab, so most resumes continue mid-field.
    #[test]
    fn auto_container_is_the_forced_pick_container(
        rank in 1usize..=3,
        len in 1usize..90_000,
        seed in any::<u64>(),
        f64_data in proptest::bool::ANY,
        spikes in proptest::bool::ANY,
    ) {
        // Outer extent first: the slab is whole outer slices.
        let dims = match rank {
            1 => vec![len],
            2 => vec![len / 173 + 1, 173],
            _ => vec![len / 400 + 1, 20, 20],
        };
        let result = if f64_data {
            auto_is_forced_pick(&typed_field::<f64>(&dims, seed, spikes))
        } else {
            auto_is_forced_pick(&typed_field::<f32>(&dims, seed, spikes))
        };
        if let Err(msg) = result {
            prop_assert!(false, "{:?} f64={} spikes={}: {}", dims, f64_data, spikes, msg);
        }
    }
}

/// Walk-level check for the model `kind` resolves to on `field`.
fn walk_for<T: Scalar>(
    field: &Field<T>,
    kind: PredictorKind,
    bins: usize,
    escape: EscapeCoding,
    label: &str,
) -> Result<(), String> {
    let (data, shape) = (field.as_slice(), field.shape());
    let model = select::model(data, shape, kind, EB, bins).model;
    walk_matches_oracle(data, shape, EB, bins, model, escape, label)
}

fn auto_is_forced_pick<T: Scalar>(field: &Field<T>) -> Result<(), String> {
    let cfg = SzConfig::new(ErrorBound::Abs(EB)).with_lossless(LosslessBackend::None);
    let (data, shape) = (field.as_slice(), field.shape());
    let picked = select::model(data, shape, PredictorKind::Auto, EB, cfg.quant_bins)
        .model
        .kind();
    let auto =
        compress(field, &cfg.with_predictor(PredictorKind::Auto)).map_err(|e| e.to_string())?;
    let forced = compress(field, &cfg.with_predictor(picked)).map_err(|e| e.to_string())?;
    if auto != forced {
        return Err(format!(
            "Auto container differs from the forced {picked:?} container"
        ));
    }
    Ok(())
}

/// Fields larger than one bake-off slab (65 536 samples), so `Auto`'s
/// production walk continues the winner's slab walk mid-field, with
/// non-finite samples scattered past the slab. `Truncated` escapes never
/// resume and must agree too.
#[test]
fn containers_match_oracle_past_the_bakeoff_slab() {
    let shapes: [&[usize]; 4] = [&[70_001], &[280, 250], &[20, 60, 60], &[70_001, 1]];
    for (s, dims) in shapes.into_iter().enumerate() {
        let mut field = field_from_seed(dims, 0x5EED + s as u64);
        let n = field.len();
        for (t, lin) in [n - 1, n - 700, n - 1_403, 66_001].into_iter().enumerate() {
            field.as_mut_slice()[lin] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30][t];
        }
        for p in PREDICTORS {
            for escape in ESCAPES {
                let cfg = SzConfig::new(ErrorBound::Abs(EB))
                    .with_predictor(p)
                    .with_escape(escape);
                if let Err(msg) =
                    container_matches_oracle(&field, &cfg, &format!("{dims:?} {p:?} {escape:?}"))
                {
                    panic!("{msg}");
                }
            }
        }
    }
}

/// The corpora the SIMD tripwire bench times — a 3-D GRF of 32³, a 2-D
/// GRF of 128² and the drift series — at a value-range-relative bound
/// with auto intervals: realistic smooth-plus-detail data, where the
/// property fields above are synthetic. The fused walk must equal the
/// oracle walk bit for bit at every dispatch level, and the containers
/// must decode to it.
#[test]
fn fused_matches_reference_on_bench_corpora() {
    use datagen::grf::{grf_2d, grf_3d};
    use datagen::timeseries::DriftField;
    const DIM: usize = 32;
    let narrow = |v: Vec<f64>| v.into_iter().map(|x| x as f32).collect::<Vec<_>>();
    let grf3 = Field::from_vec(
        Shape::D3(DIM, DIM, DIM),
        narrow(grf_3d(DIM, DIM, DIM, 3.0, 20180713)),
    );
    let side = 4 * DIM;
    let grf2 = Field::from_vec(
        Shape::D2(side, side),
        narrow(grf_2d(side, side, 3.0, 20180713)),
    );
    let drift = DriftField {
        rows: DIM,
        cols: 4 * DIM,
        ..DriftField::default()
    }
    .at(0.0);
    let series = Field::from_vec(Shape::D1(drift.len()), drift.as_slice().to_vec());
    let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-4)).with_auto_intervals(true);
    for (name, field) in [("grf3d", grf3), ("grf2d", grf2), ("timeseries1d", series)] {
        let eb = 1e-4 * field.value_range();
        let bins = select::intervals(&field, eb, cfg.quant_bins);
        let (data, shape) = (field.as_slice(), field.shape());
        for kind in &PREDICTORS[..4] {
            let model = select::model(data, shape, *kind, eb, bins).model;
            let label = format!("{name} {kind:?}");
            if let Err(msg) = walk_matches_oracle(data, shape, eb, bins, model, cfg.escape, &label)
            {
                panic!("{msg}");
            }
        }
        if let Err(msg) = container_matches_oracle(&field, &cfg, name) {
            panic!("{msg}");
        }
    }
}
