//! The paper's overhead claim (§IV): the fixed-PSNR mode's only cost over
//! plain SZ is evaluating Eq. 8 once per field — negligible.
//!
//! Benchmarks the identical field through (a) SZ with a directly supplied
//! value-range-relative bound and (b) the fixed-PSNR driver with the target
//! whose Eq. 8 derivation yields that same bound. Any measurable gap would
//! falsify the claim.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use datagen::{DatasetId, Resolution};
use fpsnr_bench::dataset_fields;
use fpsnr_core::ebrel_for_psnr;
use fpsnr_core::fixed_psnr::{compress_fixed_psnr_only, FixedPsnrOptions};
use szlike::{ErrorBound, SzConfig};

fn bench_overhead(c: &mut Criterion) {
    let atm = dataset_fields(DatasetId::Atm, Resolution::Small, 1);
    let field = &atm.iter().find(|f| f.0 == "TS").unwrap().1;
    let target = 80.0;
    let ebrel = ebrel_for_psnr(target);

    let mut group = c.benchmark_group("fixed_psnr_overhead");
    group.throughput(Throughput::Bytes((field.len() * 4) as u64));
    group.bench_function("plain_sz_rel_bound", |b| {
        let cfg = SzConfig::new(ErrorBound::ValueRangeRel(ebrel));
        b.iter(|| szlike::compress(field, &cfg).unwrap());
    });
    group.bench_function("fixed_psnr_mode", |b| {
        let opts = FixedPsnrOptions::default();
        b.iter(|| compress_fixed_psnr_only(field, target, &opts).unwrap());
    });
    group.finish();

    // The Eq. 8 derivation itself, in isolation: nanoseconds.
    let mut group = c.benchmark_group("eq8_derivation");
    group.bench_function("alone", |b| {
        b.iter(|| std::hint::black_box(ebrel_for_psnr(std::hint::black_box(80.0))));
    });
    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
