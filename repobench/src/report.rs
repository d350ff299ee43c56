//! Metric registry, failure tally, host stamp and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
/// Each has a meaning on every workload; see `NOTES.md` for the mapping.
pub const END_TO_END: &[(&str, &str)] = &[
    ("write_mib_s", "MiB/s"),
    ("read_mib_s", "MiB/s"),
    ("ratio", "x"),
    ("min_psnr_db", "dB"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fpsnr.psnr_err_db", "dB"),
    ("kernels.walk_mib_s", "MiB/s"),
    ("kernels.reconstruct_mib_s", "MiB/s"),
    ("kernels.escape_frac", "fraction"),
    ("predictor.select_share", "fraction"),
    ("predictor.win_frac", "fraction"),
    ("entropy.table_us", "us"),
    ("entropy.encode_msym_s", "Msym/s"),
    ("entropy.decode_msym_s", "Msym/s"),
    ("entropy.bits_per_code", "bits"),
    ("bakeoff.compress_mib_s", "MiB/s"),
    ("bakeoff.decompress_mib_s", "MiB/s"),
    ("bakeoff.chunks_stored", "count"),
    ("bakeoff.chunks_deflate", "count"),
    ("bakeoff.chunks_huffman", "count"),
    ("bakeoff.chunks_range", "count"),
    ("bakeoff.gain", "x"),
    ("crc.mib_s", "MiB/s"),
    ("format.overhead_bytes", "bytes"),
    ("trace.other_share", "fraction"),
    ("store.open_us", "us"),
    ("store.hit_rate", "fraction"),
    ("store.decode_amp", "x"),
    ("store.block_decode_us", "us"),
    ("store.assemble_us", "us"),
    ("store.read_p50_us", "us"),
    ("store.read_p99_us", "us"),
    ("ratemodel.pilot_ms", "ms"),
    ("ratemodel.curve_us", "us"),
    ("alloc.solve_us", "us"),
    ("alloc.passes", "count"),
    ("alloc.utilization", "fraction"),
    ("fratio.passes", "count"),
    ("parallel.efficiency", "fraction"),
    ("trace.overhead", "fraction"),
    ("trace.coverage.compress", "fraction"),
    ("trace.coverage.decompress", "fraction"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not registered"))
}

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Attempted operations and failed ones. Every output check and every
/// timed call counts as one attempt.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
        ok
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host stamp printed with every result.
pub fn host_stamp(seed: u64) -> String {
    let nproc = nproc();
    let l2 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"nproc\":{nproc},\"simd\":\"{}\",\"rustc\":\"{}\",\"l2\":\"{l2}\",\"seed\":{seed},\"obs_armed\":{}}}",
        losslesskit::simd::active().name(),
        env!("REPOBENCH_RUSTC"),
        fpsnr_obs::is_enabled()
    )
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(tally: &Tally, metrics: &[(&'static str, f64)]) -> String {
    let mut m = String::new();
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(valid_name("store.hit_rate"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registered_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut t = Tally::default();
        t.check(true, String::new);
        t.check(false, || "boom".into());
        let line = result_line(&t, &[("ratio", 3.25), ("setup_s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"ratio\": {\"value\": 3.25, \"unit\": \"x\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
