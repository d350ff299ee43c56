//! The traced run: replay each layer's public functions on the workload's
//! own inputs, with the parameters the containers record, one span per
//! call. Every replay is checked against the production call it mirrors
//! (same container bytes, same decoded samples, same predictor picks, same
//! allocation), so the layer times describe the bytes the untraced run
//! produces.
//!
//! Layers a workload's production path does not use are still replayed on
//! its fields (a grid container of its first field for the store, a
//! snapshot of its fields for the rate-targeting layers), so every metric
//! is measured on every workload; `NOTES.md` says which layers each
//! workload exercises.

use crate::checks::{self, ReadPlan};
use crate::corpus::{self, raw_bytes, Workload, MIB};
use crate::report::{nproc, Tally};
use crate::stats::{percentile, Reps};
use crate::timed::{self, READS_PER_PASS};
use crate::trace::Tracer;
use fpsnr_core::alloc::{
    allocate_snapshot, solve_min_psnr, AllocOptions, SnapshotAllocation, SnapshotField,
};
use fpsnr_core::ebrel_for_psnr;
use fpsnr_core::fixed_psnr::{compress_fixed_psnr_only, FixedPsnrOptions};
use fpsnr_core::fixed_ratio::{compress_fixed_ratio, FixedRatioOptions};
use losslesskit::lz77::Effort;
use losslesskit::{bakeoff, crc32::crc32, freq, mshuf, varint, HuffmanCodec};
use ndfield::{Field, Shape};
use std::collections::BTreeMap;
use std::time::Instant;
use szlike::format::{self, Mode};
use szlike::kernels::{reconstruct_fused, walk_fused};
use szlike::{
    ErrorBound, EscapeCoding, Predictor, PredictorKind, PredictorModel, RateModel, StoreOptions,
    SzConfig, SzStore,
};

/// Interleaved Huffman streams of the monolithic quantized body.
const HUFF_STREAMS: usize = 4;
/// Regions read from a fully cached store to time assembly alone.
const ASSEMBLE_READS: usize = 256;
/// Store opens timed per iteration.
const OPEN_REPS: usize = 8;
/// Allocation solves timed per iteration (one solve takes microseconds).
const SOLVE_REPS: usize = 64;

/// One fixed-PSNR container of the workload and the input it encodes.
struct Item<'a> {
    field: &'a Field<f32>,
    target: f64,
    opts: FixedPsnrOptions,
    container: Vec<u8>,
    parsed: Mono,
}

/// Parameters a monolithic quantized container records.
#[derive(Clone, Copy)]
struct Mono {
    shape: Shape,
    eb: f64,
    bins: usize,
    model: PredictorModel,
    flag: u8,
    payload: (usize, usize),
}

fn parse_mono(src: &[u8]) -> Result<Mono, String> {
    let body = &src[..src
        .len()
        .checked_sub(4)
        .ok_or("container shorter than its CRC")?];
    let mut pos = 0usize;
    let header = format::read_header(body, &mut pos).map_err(|e| e.to_string())?;
    if header.mode != Mode::Quantized || header.scalar_tag != "f32" {
        return Err(format!(
            "expected a monolithic f32 quantized container, got {:?}",
            header.mode
        ));
    }
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
        let s = body.get(*pos..*pos + n).ok_or("container truncated")?;
        *pos += n;
        Ok(s)
    };
    let eb = f64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
    let bins = varint::read_u64(body, &mut pos).map_err(|e| e.to_string())? as usize;
    let tag = take(&mut pos, 1)?[0];
    let coeffs = if tag == 3 {
        take(&mut pos, szlike::predictor::REGRESSION_COEFF_BYTES)?
    } else {
        &[]
    };
    let model = PredictorModel::from_tag_and_coeffs(tag, coeffs).ok_or("unknown predictor tag")?;
    let flag = take(&mut pos, 1)?[0];
    let len = varint::read_u64(body, &mut pos).map_err(|e| e.to_string())? as usize;
    if pos + len != body.len() {
        return Err("payload does not end at the CRC trailer".into());
    }
    Ok(Mono {
        shape: header.shape,
        eb,
        bins,
        model,
        flag,
        payload: (pos, pos + len),
    })
}

/// Exact, program-level counts from the first replay iteration.
#[derive(Default)]
struct Counts {
    raw_bytes: u64,
    unpred: u64,
    codes: u64,
    blob_bytes: u64,
    body_bytes: u64,
    payload_bytes: u64,
    container_bytes: u64,
    chunks: [u64; 4],
    overhead_bytes: u64,
    auto_wins: u64,
    auto_items: u64,
    store_hit_rate: f64,
    store_decode_amp: f64,
    alloc_passes: u64,
    alloc_utilization: f64,
    fratio_passes: u64,
    psnr_err_db: f64,
}

/// Re-encode `item` from the layer functions; returns the container.
fn encode(tr: &mut Tracer, item: &Item<'_>, counts: Option<&mut Counts>) -> Vec<u8> {
    let m = item.parsed;
    let mut scratch = Vec::new();
    let s = tr.enter("kernels.walk");
    let walk = walk_fused(
        item.field.as_slice(),
        m.shape,
        m.eb,
        m.bins,
        m.model,
        EscapeCoding::Exact,
        &mut scratch,
    );
    tr.exit(s);
    let s = tr.enter("entropy.table");
    let hist = freq::count_dense(&walk.codes, m.bins);
    let codec = HuffmanCodec::from_counts(&hist);
    let mut table = Vec::new();
    codec.write_table(&mut table);
    tr.exit(s);
    let s = tr.enter("entropy.encode");
    let blob = mshuf::encode(&walk.codes, &codec, HUFF_STREAMS);
    tr.exit(s);

    let mut body = Vec::with_capacity(table.len() + blob.len() + walk.unpred.len() * 4 + 32);
    body.push(2u8);
    varint::write_u64(&mut body, table.len() as u64);
    body.extend_from_slice(&table);
    varint::write_u64(&mut body, blob.len() as u64);
    body.extend_from_slice(&blob);
    varint::write_u64(&mut body, walk.unpred.len() as u64);
    body.push(0u8);
    for u in &walk.unpred {
        body.extend_from_slice(&u.to_le_bytes());
    }

    let s = tr.enter("bakeoff.compress");
    let (baked, stats) = bakeoff::compress_with_stats(&body, Effort::Default);
    tr.exit(s);
    let (flag, payload) = if baked.len() < body.len() {
        (2u8, &baked)
    } else {
        (0u8, &body)
    };
    let mut out = Vec::with_capacity(payload.len() + 64);
    format::write_header(&mut out, "f32", Mode::Quantized, m.shape).expect("f32 header");
    out.extend_from_slice(&m.eb.to_le_bytes());
    varint::write_u64(&mut out, m.bins as u64);
    out.push(m.model.tag());
    out.extend_from_slice(&m.model.coeff_bytes());
    out.push(flag);
    varint::write_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    let s = tr.enter("crc.compute");
    let crc = crc32(&out);
    tr.exit(s);
    out.extend_from_slice(&crc.to_le_bytes());

    if let Some(c) = counts {
        c.raw_bytes += raw_bytes(item.field) as u64;
        c.unpred += walk.unpred.len() as u64;
        c.codes += walk.codes.len() as u64;
        c.blob_bytes += blob.len() as u64;
        c.body_bytes += body.len() as u64;
        c.payload_bytes += payload.len() as u64;
        if flag == 2 {
            for (k, n) in stats.chunks.iter().enumerate() {
                c.chunks[k] += n;
            }
        }
    }
    out
}

/// Decode `container` through the layer functions.
fn decode(tr: &mut Tracer, container: &[u8], m: &Mono) -> Result<Vec<f32>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let (body_src, trailer) = container.split_at(container.len() - 4);
    let s = tr.enter("crc.verify");
    let crc = crc32(body_src);
    tr.exit(s);
    if crc.to_le_bytes() != trailer {
        return Err("CRC mismatch".into());
    }
    let payload = &container[m.payload.0..m.payload.1];
    let s = tr.enter("bakeoff.decompress");
    let body = match m.flag {
        2 => bakeoff::decompress_bounded(payload, usize::MAX).map_err(|e| err(&e))?,
        0 => std::borrow::Cow::Borrowed(payload),
        f => return Err(format!("unexpected lossless flag {f}")),
    };
    tr.exit(s);
    let n = m.shape.len();
    if body.first() != Some(&2) {
        return Err("expected entropy stage 2".into());
    }
    let mut pos = 1usize;
    let table_len = varint::read_u64(&body, &mut pos).map_err(|e| err(&e))? as usize;
    let s = tr.enter("entropy.table_read");
    let codec =
        HuffmanCodec::read_table(&body[..pos + table_len], &mut pos).map_err(|e| err(&e))?;
    tr.exit(s);
    let blob_len = varint::read_u64(&body, &mut pos).map_err(|e| err(&e))? as usize;
    let blob = &body[pos..pos + blob_len];
    pos += blob_len;
    let s = tr.enter("entropy.decode");
    let codes = mshuf::decode_all(blob, &codec, n).map_err(|e| err(&e))?;
    tr.exit(s);
    let n_unpred = varint::read_u64(&body, &mut pos).map_err(|e| err(&e))? as usize;
    if body.get(pos) != Some(&0) {
        return Err("expected exact escapes".into());
    }
    pos += 1;
    let unpred: Vec<f32> = body[pos..pos + 4 * n_unpred]
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
        .collect();
    let s = tr.enter("kernels.reconstruct");
    let out =
        reconstruct_fused(&codes, unpred, m.shape, m.eb, m.bins, m.model).map_err(|e| err(&e))?;
    tr.exit(s);
    Ok(out)
}

/// Production call, then its replay, in both directions, for every item.
fn codec_pass(
    tr: &mut Tracer,
    items: &[Item<'_>],
    decoded: &[Field<f32>],
    mut counts: Option<&mut Counts>,
    tally: &mut Tally,
) {
    for (i, item) in items.iter().enumerate() {
        tr.next_op();
        let s = tr.enter("op.compress");
        let prod = compress_fixed_psnr_only(item.field, item.target, &item.opts);
        tr.exit(s);
        tally.check(prod.is_ok_and(|p| p == item.container), || {
            format!("item {i}: production compress differs from the workload's container")
        });
        let s = tr.enter("replay.compress");
        let rebuilt = encode(tr, item, counts.as_deref_mut());
        tr.exit(s);
        tally.check(rebuilt == item.container, || {
            format!("item {i}: layer replay does not rebuild the container")
        });

        tr.next_op();
        let s = tr.enter("op.decompress");
        let prod = szlike::decompress::<f32>(&item.container);
        tr.exit(s);
        tally.check(
            prod.is_ok_and(|p| checks::same_bits(p.as_slice(), decoded[i].as_slice())),
            || format!("item {i}: production decompress differs"),
        );
        let s = tr.enter("replay.decompress");
        let replayed = decode(tr, &item.container, &item.parsed);
        tr.exit(s);
        tally.check(
            replayed
                .as_ref()
                .is_ok_and(|r| checks::same_bits(r, decoded[i].as_slice())),
            || {
                format!(
                    "item {i}: layer replay decodes differently: {:?}",
                    replayed.err()
                )
            },
        );
    }
}

/// Predictor bake-off: auto, the forced pick, and forced Lorenzo.
fn predictor_pass(
    tr: &mut Tracer,
    items: &[Item<'_>],
    counts: Option<&mut Counts>,
    tally: &mut Tally,
) {
    let (mut wins, mut n) = (0u64, 0u64);
    for (i, item) in items.iter().enumerate() {
        tr.next_op();
        let with = |kind| FixedPsnrOptions {
            predictor: kind,
            ..item.opts
        };
        let s = tr.enter("predictor.auto");
        let auto = compress_fixed_psnr_only(item.field, item.target, &with(PredictorKind::Auto));
        tr.exit(s);
        let Ok(auto) = auto else {
            tally.check(false, || format!("item {i}: auto compress failed"));
            continue;
        };
        let Ok(pick) = parse_mono(&auto).map(|m| m.model.kind()) else {
            tally.check(false, || format!("item {i}: auto container unreadable"));
            continue;
        };
        let s = tr.enter("predictor.forced");
        let forced = compress_fixed_psnr_only(item.field, item.target, &with(pick));
        tr.exit(s);
        tally.check(forced.as_ref().is_ok_and(|f| *f == auto), || {
            format!("item {i}: forcing the auto pick {pick:?} changes the container")
        });
        let lorenzo_len = if pick == PredictorKind::Lorenzo1 {
            auto.len()
        } else {
            let s = tr.enter("predictor.lorenzo");
            let l =
                compress_fixed_psnr_only(item.field, item.target, &with(PredictorKind::Lorenzo1));
            tr.exit(s);
            l.map_or(usize::MAX, |l| l.len())
        };
        if item.opts.predictor == PredictorKind::Auto {
            tally.check(item.parsed.model.kind() == pick, || {
                format!("item {i}: replayed pick {pick:?} differs from the container's")
            });
        }
        wins += (auto.len() < lorenzo_len) as u64;
        n += 1;
    }
    if let Some(c) = counts {
        c.auto_wins = wins;
        c.auto_items = n;
    }
}

/// Store layer on a grid container: open, cold block decode, cached
/// assembly, and the Zipf read sequence on a fresh store: its cache
/// behaviour and each read's latency (recorded in `read_times`).
#[allow(clippy::too_many_arguments)]
fn store_pass(
    tr: &mut Tracer,
    grid: &[u8],
    field: &Field<f32>,
    plan: &ReadPlan,
    seed: u64,
    counts: Option<&mut Counts>,
    read_times: &mut Reps,
    tally: &mut Tally,
) -> Result<(), String> {
    let sopts = timed::store_opts(field);
    for _ in 0..OPEN_REPS {
        let bytes = grid.to_vec();
        let s = tr.enter("store.open");
        let store = SzStore::<f32>::open_with(bytes, sopts);
        tr.exit(s);
        tally.check(store.is_ok(), || "store open failed".into());
    }
    let all = SzStore::<f32>::open_with(grid.to_vec(), StoreOptions::default())
        .map_err(|e| e.to_string())?;
    for b in 0..all.grid().n_blocks() {
        let s = tr.enter("store.block");
        let r = all.block(b);
        tr.exit(s);
        tally.check(r.is_ok(), || format!("block {b} failed to decode"));
    }
    let reads = plan.sequence(seed, READS_PER_PASS);
    let decoded_before = all.stats().blocks_decoded;
    for r in reads.iter().take(ASSEMBLE_READS) {
        let s = tr.enter("store.assemble");
        let got = all.read_region(&r.region);
        tr.exit(s);
        tally.check(got.is_ok(), || "cached region read failed".into());
    }
    tally.check(all.stats().blocks_decoded == decoded_before, || {
        "reads from a fully cached store decoded blocks".into()
    });
    let store = SzStore::<f32>::open_with(grid.to_vec(), sopts).map_err(|e| e.to_string())?;
    for (k, r) in reads.iter().enumerate() {
        let t0 = Instant::now();
        let s = tr.enter("store.read");
        let got = store.read_region(&r.region);
        tr.exit(s);
        read_times.record(k, t0.elapsed().as_secs_f64());
        tally.check(got.is_ok(), || "region read failed".into());
    }
    if let Some(c) = counts {
        let st = store.stats();
        c.store_hit_rate = st.hit_rate();
        c.store_decode_amp = st.decode_amplification();
    }
    Ok(())
}

fn snapshot(fields: &[(String, Field<f32>)]) -> Vec<SnapshotField> {
    fields
        .iter()
        .map(|(n, f)| SnapshotField::f32(n.clone(), f.clone()))
        .collect()
}

/// Allocation at a raw/`RATE_TARGET` budget with the max-min objective.
fn alloc_opts(fields: &[(String, Field<f32>)], threads: usize) -> AllocOptions {
    let raw: usize = fields.iter().map(|(_, f)| raw_bytes(f)).sum();
    AllocOptions {
        threads,
        ..AllocOptions::new((raw as f64 / corpus::RATE_TARGET) as u64)
    }
}

/// Containers of one allocation, in field order (`None` for a failed field).
fn alloc_containers(a: &SnapshotAllocation) -> Vec<Option<&Vec<u8>>> {
    a.fields.iter().map(|f| f.bytes.as_ref()).collect()
}

/// Rate-targeting layers: pilots, curves, the solve, both allocation
/// thread counts and the fixed-ratio driver.
fn rate_pass(
    tr: &mut Tracer,
    w: Workload,
    fields: &[(String, Field<f32>)],
    production: &SnapshotAllocation,
    counts: Option<&mut Counts>,
    tally: &mut Tally,
) {
    let snap = snapshot(fields);
    let par = alloc_opts(fields, nproc());
    // Budget compliance on the 79-field ATM snapshot, the case the
    // allocator's accuracy suite holds it to. Its feedback re-solves once
    // and never loops, so the 6-field NYX and 1-field GRF snapshots may end
    // over budget; that is reported as `alloc.utilization`.
    if w == Workload::AtmAuto {
        let s = &production.summary;
        tally.check(s.within_budget(par.tolerance), || {
            format!(
                "snapshot total {} over budget {} (tolerance {})",
                s.total_bytes, s.budget_bytes, par.tolerance
            )
        });
    }
    // The configuration the allocator's pilots use.
    let cfg =
        SzConfig::new(ErrorBound::ValueRangeRel(ebrel_for_psnr(60.0))).with_auto_intervals(true);
    let mut curves = Vec::with_capacity(fields.len());
    for (_, f) in fields {
        tr.next_op();
        let s = tr.enter("ratemodel.pilot");
        let model = RateModel::pilot(f, &cfg);
        tr.exit(s);
        let Ok(model) = model else {
            tally.check(false, || "pilot failed".into());
            return;
        };
        let s = tr.enter("ratemodel.curve");
        curves.push(model.curve(par.psnr_lo, par.psnr_step, par.psnr_points, 1.0));
        tr.exit(s);
    }
    let mut idx = 0;
    for _ in 0..SOLVE_REPS {
        let s = tr.enter("alloc.solve");
        idx = solve_min_psnr(&curves, par.budget_bytes as f64);
        tr.exit(s);
    }
    let first_pass_psnr = par.psnr_lo + par.psnr_step * idx as f64;
    if production.resolves == 0 {
        tally.check(
            production
                .fields
                .iter()
                .all(|f| f.stat.quarantined || f.stat.assigned_psnr == first_pass_psnr),
            || format!("replayed solve assigns {first_pass_psnr} dB, production differs"),
        );
    }
    tr.next_op();
    let s = tr.enter("alloc.serial");
    let serial = allocate_snapshot(&snap, &alloc_opts(fields, 1));
    tr.exit(s);
    tally.check(serial.is_ok(), || "serial allocation failed".into());
    let s = tr.enter("alloc.parallel");
    let parallel = allocate_snapshot(&snap, &par);
    tr.exit(s);
    let same = parallel
        .as_ref()
        .is_ok_and(|p| alloc_containers(p) == alloc_containers(production));
    tally.check(same, || "allocation differs from the production run".into());
    let ropts = FixedRatioOptions::new(corpus::RATE_TARGET);
    let mut fratio_passes = 0u64;
    for (_, f) in fields {
        tr.next_op();
        let s = tr.enter("fratio.compress");
        let r = compress_fixed_ratio(f, &ropts);
        tr.exit(s);
        match r {
            Ok(r) => fratio_passes += r.passes as u64,
            Err(e) => {
                tally.check(false, || format!("fixed ratio failed: {e}"));
            }
        }
    }
    if let Some(c) = counts {
        c.alloc_passes = production.fields.iter().map(|f| f.stat.passes as u64).sum();
        c.alloc_utilization = production.summary.utilization;
        c.fratio_passes = fratio_passes;
    }
}

pub fn run(
    w: Workload,
    fields: &[(String, Field<f32>)],
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, String> {
    // Set-up: the workload's production containers.
    let production = allocate_snapshot(&snapshot(fields), &alloc_opts(fields, nproc()))
        .map_err(|e| e.to_string())?;
    let base = FixedPsnrOptions {
        predictor: corpus::predictor(w),
        ..FixedPsnrOptions::default()
    };
    let pairs: Vec<_> = fields
        .iter()
        .flat_map(|(_, f)| corpus::targets(w).iter().map(move |&t| (f, t)))
        .collect();
    let mut items = Vec::with_capacity(pairs.len());
    for (field, target) in pairs {
        let container =
            compress_fixed_psnr_only(field, target, &base).map_err(|e| e.to_string())?;
        let parsed = parse_mono(&container)?;
        items.push(Item {
            field,
            target,
            opts: base,
            container,
            parsed,
        });
    }
    let decoded: Vec<Field<f32>> = items
        .iter()
        .map(|it| szlike::decompress::<f32>(&it.container).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    // The store layer runs on a chunk grid of the first field.
    let (_, field0) = &fields[0];
    let target0 = items[0].target;
    let gopts = timed::grid_opts(field0.shape());
    let grid = compress_fixed_psnr_only(field0, target0, &gopts).map_err(|e| e.to_string())?;
    let plan = ReadPlan::new(field0.shape(), seed);

    // Fixed-PSNR accuracy (Table II) of the containers the workload writes.
    let psnr_err_db = match w {
        Workload::Grf => {
            let back = szlike::decompress::<f32>(&grid).map_err(|e| e.to_string())?;
            (checks::psnr(field0, &back) - target0).abs()
        }
        _ => items
            .iter()
            .zip(&decoded)
            .map(|(it, d)| (checks::psnr(it.field, d) - it.target).abs())
            .fold(0.0, f64::max),
    };
    let mut counts = Counts {
        psnr_err_db,
        ..Counts::default()
    };

    // Framing overhead of the containers the workload writes.
    let framed: Vec<&[u8]> = match w {
        Workload::Grf => vec![&grid],
        _ => items.iter().map(|it| it.container.as_slice()).collect(),
    };
    for c in framed {
        let info = szlike::inspect_sections(c).map_err(|e| e.to_string())?;
        let sections: usize = info.sections.iter().map(|s| s.comp_len).sum();
        counts.overhead_bytes += (c.len() - sections) as u64;
    }
    counts.container_bytes = items.iter().map(|it| it.container.len() as u64).sum();

    let mut tr = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    let (mut armed_s, mut disarmed_s) = (0.0, 0.0);
    let mut read_times = Reps::default();
    let mut iters = 0u64;
    let start = Instant::now();
    while iters == 0 || start.elapsed().as_secs_f64() < seconds {
        let first = iters == 0;
        let t0 = Instant::now();
        codec_pass(
            &mut tr,
            &items,
            &decoded,
            first.then_some(&mut counts),
            tally,
        );
        armed_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        codec_pass(&mut quiet, &items, &decoded, None, tally);
        disarmed_s += t0.elapsed().as_secs_f64();
        predictor_pass(&mut tr, &items, first.then_some(&mut counts), tally);
        store_pass(
            &mut tr,
            &grid,
            field0,
            &plan,
            seed,
            first.then_some(&mut counts),
            &mut read_times,
            tally,
        )?;
        rate_pass(
            &mut tr,
            w,
            fields,
            &production,
            first.then_some(&mut counts),
            tally,
        );
        iters += 1;
    }

    let spans_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/spans");
    let path = format!("{spans_dir}/{}-seed{seed}.jsonl", w.name());
    std::fs::create_dir_all(spans_dir)
        .and_then(|_| std::fs::write(&path, tr.to_jsonl()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "spans {} written to {path} ({iters} iterations)",
        tr.spans().len()
    );

    Ok(derive(
        &tr.totals(),
        &counts,
        &read_times,
        iters as f64,
        armed_s,
        disarmed_s,
    ))
}

fn derive(
    t: &BTreeMap<&'static str, crate::trace::Totals>,
    c: &Counts,
    read_times: &Reps,
    iters: f64,
    armed_s: f64,
    disarmed_s: f64,
) -> Vec<(&'static str, f64)> {
    let get = |n: &str| t.get(n).copied().unwrap_or_default();
    let self_s = |n: &str| get(n).self_ns as f64 / 1e9;
    let total_s = |n: &str| get(n).total_ns as f64 / 1e9;
    let mean_us = |n: &str| self_s(n) * 1e6 / get(n).count as f64;
    let mib = |bytes: u64| iters * bytes as f64 / MIB;
    let read_us = |q: f64| {
        let us: Vec<f64> = read_times.quiet_units().iter().map(|s| s * 1e6).collect();
        percentile(&us, q).unwrap_or(f64::NAN)
    };
    let enc_layers = [
        "kernels.walk",
        "entropy.table",
        "entropy.encode",
        "bakeoff.compress",
        "crc.compute",
    ];
    let dec_layers = [
        "crc.verify",
        "bakeoff.decompress",
        "entropy.table_read",
        "entropy.decode",
        "kernels.reconstruct",
    ];
    let sum = |names: &[&str]| names.iter().map(|n| self_s(n)).sum::<f64>();
    let replay_self = self_s("replay.compress") + self_s("replay.decompress");
    let replay_total = total_s("replay.compress") + total_s("replay.decompress");
    let auto = total_s("predictor.auto");
    vec![
        ("fpsnr.psnr_err_db", c.psnr_err_db),
        (
            "kernels.walk_mib_s",
            mib(c.raw_bytes) / self_s("kernels.walk"),
        ),
        (
            "kernels.reconstruct_mib_s",
            mib(c.raw_bytes) / self_s("kernels.reconstruct"),
        ),
        ("kernels.escape_frac", c.unpred as f64 / c.codes as f64),
        (
            "predictor.select_share",
            (auto - total_s("predictor.forced")) / auto,
        ),
        (
            "predictor.win_frac",
            c.auto_wins as f64 / c.auto_items as f64,
        ),
        ("entropy.table_us", mean_us("entropy.table")),
        (
            "entropy.encode_msym_s",
            iters * c.codes as f64 / 1e6 / self_s("entropy.encode"),
        ),
        (
            "entropy.decode_msym_s",
            iters * c.codes as f64 / 1e6 / self_s("entropy.decode"),
        ),
        (
            "entropy.bits_per_code",
            8.0 * c.blob_bytes as f64 / c.codes as f64,
        ),
        (
            "bakeoff.compress_mib_s",
            mib(c.body_bytes) / self_s("bakeoff.compress"),
        ),
        (
            "bakeoff.decompress_mib_s",
            mib(c.body_bytes) / self_s("bakeoff.decompress"),
        ),
        ("bakeoff.chunks_stored", c.chunks[0] as f64),
        ("bakeoff.chunks_deflate", c.chunks[1] as f64),
        ("bakeoff.chunks_huffman", c.chunks[2] as f64),
        ("bakeoff.chunks_range", c.chunks[3] as f64),
        ("bakeoff.gain", c.body_bytes as f64 / c.payload_bytes as f64),
        (
            "crc.mib_s",
            mib(2 * c.container_bytes) / (self_s("crc.compute") + self_s("crc.verify")),
        ),
        ("format.overhead_bytes", c.overhead_bytes as f64),
        ("trace.other_share", replay_self / replay_total),
        ("store.open_us", mean_us("store.open")),
        ("store.hit_rate", c.store_hit_rate),
        ("store.decode_amp", c.store_decode_amp),
        ("store.block_decode_us", mean_us("store.block")),
        ("store.assemble_us", mean_us("store.assemble")),
        ("store.read_p50_us", read_us(0.5)),
        ("store.read_p99_us", read_us(0.99)),
        ("ratemodel.pilot_ms", mean_us("ratemodel.pilot") / 1e3),
        ("ratemodel.curve_us", mean_us("ratemodel.curve")),
        ("alloc.solve_us", mean_us("alloc.solve")),
        ("alloc.passes", c.alloc_passes as f64),
        ("alloc.utilization", c.alloc_utilization),
        ("fratio.passes", c.fratio_passes as f64),
        (
            "parallel.efficiency",
            total_s("alloc.serial") / (nproc() as f64 * total_s("alloc.parallel")),
        ),
        ("trace.overhead", (armed_s - disarmed_s) / disarmed_s),
        (
            "trace.coverage.compress",
            sum(&enc_layers) / total_s("op.compress"),
        ),
        (
            "trace.coverage.decompress",
            sum(&dec_layers) / total_s("op.decompress"),
        ),
    ]
}
