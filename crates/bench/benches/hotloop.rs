//! Criterion micro-benches for the fused predict–quantize–encode kernels
//! vs the per-element reference walk, per stage and per predictor.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use datagen::grf::grf_3d;
use ndfield::{Field, Shape};
use szlike::kernels::{reconstruct_fused, reconstruct_reference, walk_fused, walk_reference};
use szlike::{ErrorBound, EscapeCoding, KernelMode, PredictorModel, SzConfig};

fn bench_hotloop(c: &mut Criterion) {
    let dim = 32usize; // CI-friendly; the hotloop bin sweeps 64^3
    let data: Vec<f32> = grf_3d(dim, dim, dim, 3.0, 20180713)
        .into_iter()
        .map(|v| v as f32)
        .collect();
    let field = Field::from_vec(Shape::D3(dim, dim, dim), data);
    let shape = field.shape();
    let raw = (field.len() * 4) as u64;
    let eb = 1e-4 * field.value_range();
    let bins = 65536usize;

    let mut group = c.benchmark_group("kernel_walk");
    group.throughput(Throughput::Bytes(raw));
    for pred in [PredictorModel::Lorenzo1, PredictorModel::Lorenzo2] {
        let tag = match pred {
            PredictorModel::Lorenzo1 => "l1",
            _ => "l2",
        };
        group.bench_function(format!("fused_{tag}"), |b| {
            let mut scratch = Vec::new();
            b.iter(|| {
                walk_fused::<f32>(
                    black_box(field.as_slice()),
                    shape,
                    eb,
                    bins,
                    pred,
                    EscapeCoding::Exact,
                    &mut scratch,
                )
            });
        });
        group.bench_function(format!("reference_{tag}"), |b| {
            let mut scratch = Vec::new();
            b.iter(|| {
                walk_reference::<f32>(
                    black_box(field.as_slice()),
                    shape,
                    eb,
                    bins,
                    pred,
                    EscapeCoding::Exact,
                    &mut scratch,
                )
            });
        });
    }
    group.finish();

    let mut scratch = Vec::new();
    let walk = walk_fused::<f32>(
        field.as_slice(),
        shape,
        eb,
        bins,
        PredictorModel::Lorenzo1,
        EscapeCoding::Exact,
        &mut scratch,
    );
    let mut group = c.benchmark_group("kernel_reconstruct");
    group.throughput(Throughput::Bytes(raw));
    group.bench_function("fused", |b| {
        b.iter(|| {
            reconstruct_fused(
                black_box(&walk.codes),
                walk.unpred.clone(),
                shape,
                eb,
                bins,
                PredictorModel::Lorenzo1,
            )
            .unwrap()
        });
    });
    group.bench_function("reference", |b| {
        b.iter(|| {
            reconstruct_reference(
                black_box(&walk.codes),
                &walk.unpred,
                shape,
                eb,
                bins,
                PredictorModel::Lorenzo1,
            )
            .unwrap()
        });
    });
    group.finish();

    let cfg = SzConfig::new(ErrorBound::ValueRangeRel(1e-4)).with_auto_intervals(true);
    let mut group = c.benchmark_group("kernel_compress");
    group.throughput(Throughput::Bytes(raw));
    group.bench_function("fused", |b| {
        b.iter(|| szlike::compress(&field, &cfg.with_kernel(KernelMode::Fused)).unwrap());
    });
    group.bench_function("reference", |b| {
        b.iter(|| szlike::compress(&field, &cfg.with_kernel(KernelMode::Reference)).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_hotloop);
criterion_main!(benches);
