//! End-to-end tests driving the `fpsnr` binary.

use std::path::PathBuf;
use std::process::Command;

fn fpsnr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fpsnr"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fpsnr_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tmpdir");
    dir
}

fn write_test_field(path: &std::path::Path, rows: usize, cols: usize) {
    let mut bytes = Vec::with_capacity(rows * cols * 4);
    for i in 0..rows {
        for j in 0..cols {
            let v = ((i as f32 * 0.1).sin() + (j as f32 * 0.07).cos()) * 8.0;
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    std::fs::write(path, bytes).expect("write raw");
}

/// Non-separable texture: a pure `f(i)+g(j)` field is predicted exactly
/// by Lorenzo-2D, leaving a degenerate rate curve no ratio target can
/// invert — the product term keeps the fixed-ratio tests meaningful.
fn write_textured_field(path: &std::path::Path, rows: usize, cols: usize) {
    let mut bytes = Vec::with_capacity(rows * cols * 4);
    for i in 0..rows {
        for j in 0..cols {
            let x = i as f32 * 0.11;
            let y = j as f32 * 0.13;
            let v = 20.0 * (x.sin() + (y * 0.7).cos()) + 3.0 * ((x * 3.7).sin() * (y * 2.9).cos());
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    std::fs::write(path, bytes).expect("write raw");
}

#[test]
fn help_lists_commands() {
    let out = fpsnr().arg("help").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["compress", "decompress", "analyze", "gen", "eval"] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn compress_decompress_analyze_cycle() {
    let dir = tmpdir("cycle");
    let raw = dir.join("in.raw");
    let szr = dir.join("out.szr");
    let back = dir.join("back.raw");
    write_test_field(&raw, 40, 50);

    let out = fpsnr()
        .args([
            "compress", "-i", raw.to_str().unwrap(), "-o", szr.to_str().unwrap(),
            "--type", "f32", "--dims", "40x50", "--mode", "psnr:80", "--verify",
        ])
        .output()
        .expect("run compress");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("eb_rel"), "no Eq. 8 trace: {text}");
    assert!(text.contains("PSNR"), "no verify output: {text}");

    let out = fpsnr()
        .args([
            "decompress", "-i", szr.to_str().unwrap(), "-o", back.to_str().unwrap(),
        ])
        .output()
        .expect("run decompress");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::metadata(&back).unwrap().len(),
        40 * 50 * 4,
        "decompressed size mismatch"
    );

    let out = fpsnr()
        .args([
            "analyze", "-i", raw.to_str().unwrap(), "-r", back.to_str().unwrap(),
            "--type", "f32", "--dims", "40x50",
        ])
        .output()
        .expect("run analyze");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("PSNR"), "analyze output: {text}");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn abs_mode_round_trip() {
    let dir = tmpdir("abs");
    let raw = dir.join("in.raw");
    let szr = dir.join("out.szr");
    write_test_field(&raw, 16, 16);
    let out = fpsnr()
        .args([
            "compress", "-i", raw.to_str().unwrap(), "-o", szr.to_str().unwrap(),
            "--type", "f32", "--dims", "16x16", "--mode", "abs:0.01",
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(dir).ok();
}

/// Check that `text` is one JSON object (the workspace has no JSON
/// crate) and return its top-level keys in order.
fn json_object_keys(text: &str) -> Result<Vec<String>, String> {
    struct Reader<'a>(&'a [u8], usize);
    impl Reader<'_> {
        fn peek(&mut self) -> Option<u8> {
            while self.0.get(self.1).is_some_and(u8::is_ascii_whitespace) {
                self.1 += 1;
            }
            self.0.get(self.1).copied()
        }
        fn eat(&mut self, b: u8) -> Result<(), String> {
            if self.peek() != Some(b) {
                return Err(format!("expected '{}' at byte {}", b as char, self.1));
            }
            self.1 += 1;
            Ok(())
        }
        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let start = self.1;
            while self.0.get(self.1) != Some(&b'"') {
                if self.1 >= self.0.len() {
                    return Err("unterminated string".into());
                }
                self.1 += if self.0[self.1] == b'\\' { 2 } else { 1 };
            }
            self.1 += 1;
            Ok(String::from_utf8_lossy(&self.0[start..self.1 - 1]).into_owned())
        }
        /// One value; the keys of an object value go into `keys`.
        fn value(&mut self, keys: &mut Vec<String>) -> Result<(), String> {
            match self.peek() {
                Some(open @ (b'{' | b'[')) => {
                    let close = if open == b'{' { b'}' } else { b']' };
                    self.1 += 1;
                    if self.peek() == Some(close) {
                        self.1 += 1;
                        return Ok(());
                    }
                    loop {
                        if open == b'{' {
                            keys.push(self.string()?);
                            self.eat(b':')?;
                        }
                        self.value(&mut Vec::new())?;
                        if self.peek() != Some(b',') {
                            return self.eat(close);
                        }
                        self.1 += 1;
                    }
                }
                Some(b'"') => self.string().map(drop),
                _ => {
                    let start = self.1;
                    let scalar = |c: &u8| c.is_ascii_alphanumeric() || b"+-.".contains(c);
                    while self.0.get(self.1).is_some_and(scalar) {
                        self.1 += 1;
                    }
                    let tok = std::str::from_utf8(&self.0[start..self.1]).unwrap_or("");
                    let number = tok.starts_with(|c: char| c == '-' || c.is_ascii_digit())
                        && tok.parse::<f64>().is_ok();
                    if number || matches!(tok, "true" | "false" | "null") {
                        Ok(())
                    } else {
                        Err(format!("bad token {tok:?} at byte {start}"))
                    }
                }
            }
        }
    }
    let mut reader = Reader(text.as_bytes(), 0);
    if reader.peek() != Some(b'{') {
        return Err("not a JSON object".into());
    }
    let mut keys = Vec::new();
    reader.value(&mut keys)?;
    match reader.peek() {
        None => Ok(keys),
        Some(_) => Err(format!("trailing content at byte {}", reader.1)),
    }
}

/// `--profile json` ends stdout with a one-line JSON report. In the
/// instrumented build the codec's span nests under the command's span;
/// with `fpsnr-obs/off` the report is still valid JSON, with no spans.
#[test]
fn compress_profile_json_reports_spans_and_counters() {
    let dir = tmpdir("profile");
    let raw = dir.join("in.raw");
    let szr = dir.join("out.szr");
    write_test_field(&raw, 40, 50);
    let out = fpsnr()
        .args([
            "compress", "-i", raw.to_str().unwrap(), "-o", szr.to_str().unwrap(),
            "--type", "f32", "--dims", "40x50", "--mode", "psnr:80", "--profile", "json",
        ])
        .output()
        .expect("run compress");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().expect("no stdout");
    let keys = json_object_keys(last).unwrap_or_else(|e| panic!("{e}: {last}"));
    assert_eq!(keys, ["spans", "counters"], "{last}");
    fpsnr_obs::enable();
    let instrumented = fpsnr_obs::is_enabled(); // false under fpsnr-obs/off
    fpsnr_obs::disable();
    let codec_span = last.contains("\"path\":\"fpsnr.compress/sz.compress\"");
    assert_eq!(codec_span, instrumented, "{last}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn gen_writes_manifest_and_fields() {
    let dir = tmpdir("gen");
    let out = fpsnr()
        .args([
            "gen", "--dataset", "nyx", "--res", "small",
            "--out-dir", dir.to_str().unwrap(), "--seed", "7",
        ])
        .output()
        .expect("run gen");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).expect("manifest");
    assert!(manifest.contains("baryon_density.f32"));
    let meta = std::fs::metadata(dir.join("baryon_density.f32")).expect("field file");
    assert_eq!(meta.len(), 16 * 16 * 16 * 4);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn eval_reports_summary() {
    let out = fpsnr()
        .args([
            "eval", "--dataset", "nyx", "--psnr", "60", "--res", "small",
            "--seed", "3", "--quiet",
        ])
        .output()
        .expect("run eval");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("AVG"), "no summary: {text}");
    assert!(text.contains("meet-rate"));
}

#[test]
fn budget_mode_fits_requested_size() {
    let dir = tmpdir("budget");
    let raw = dir.join("in.raw");
    let szr = dir.join("out.szr");
    write_test_field(&raw, 64, 64);
    let budget = 4096usize; // 1/4 of raw
    let out = fpsnr()
        .args([
            "compress", "-i", raw.to_str().unwrap(), "-o", szr.to_str().unwrap(),
            "--type", "f32", "--dims", "64x64",
            "--mode", &format!("budget:{budget}"),
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let size = std::fs::metadata(&szr).unwrap().len() as usize;
    assert!(size <= budget, "container {size} > budget {budget}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn transform_codec_cycle() {
    let dir = tmpdir("xfm");
    let raw = dir.join("in.raw");
    let szr = dir.join("out.xfm");
    let back = dir.join("back.raw");
    write_test_field(&raw, 32, 32);
    let out = fpsnr()
        .args([
            "compress", "-i", raw.to_str().unwrap(), "-o", szr.to_str().unwrap(),
            "--type", "f32", "--dims", "32x32", "--mode", "psnr:70",
            "--transform", "--verify",
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = fpsnr()
        .args(["decompress", "-i", szr.to_str().unwrap(), "-o", back.to_str().unwrap()])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(std::fs::metadata(&back).unwrap().len(), 32 * 32 * 4);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn f64_compress_decompress_cycle() {
    let dir = tmpdir("f64");
    let raw = dir.join("in.raw");
    let szr = dir.join("out.szr");
    let back = dir.join("back.raw");
    let mut bytes = Vec::new();
    for i in 0..400usize {
        let v = (i as f64 * 0.01).sin() * 3.0;
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(&raw, bytes).expect("write raw");

    let out = fpsnr()
        .args([
            "compress", "-i", raw.to_str().unwrap(), "-o", szr.to_str().unwrap(),
            "--type", "f64", "--dims", "20x20", "--mode", "psnr:90", "--verify",
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = fpsnr()
        .args(["decompress", "-i", szr.to_str().unwrap(), "-o", back.to_str().unwrap()])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(std::fs::metadata(&back).unwrap().len(), 400 * 8);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn ratio_mode_round_trip_lands_in_band() {
    let dir = tmpdir("ratio");
    let raw = dir.join("in.raw");
    let szr = dir.join("out.szr");
    let back = dir.join("back.raw");
    write_textured_field(&raw, 128, 160);

    let out = fpsnr()
        .args([
            "compress", "-i", raw.to_str().unwrap(), "-o", szr.to_str().unwrap(),
            "--type", "f32", "--dims", "128x160", "--ratio", "10", "--ratio-tol", "0.1",
        ])
        .output()
        .expect("run compress");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fixed-ratio: target 10x"), "no ratio trace: {text}");
    assert!(
        !text.contains("outside tolerance"),
        "driver missed the band: {text}"
    );
    let raw_len = std::fs::metadata(&raw).unwrap().len() as f64;
    let szr_len = std::fs::metadata(&szr).unwrap().len() as f64;
    let achieved = raw_len / szr_len;
    assert!(
        (achieved / 10.0 - 1.0).abs() <= 0.1,
        "file sizes say {achieved:.2}x, wanted 10x +/-10%"
    );

    let out = fpsnr()
        .args(["decompress", "-i", szr.to_str().unwrap(), "-o", back.to_str().unwrap()])
        .output()
        .expect("run decompress");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(std::fs::metadata(&back).unwrap().len(), 128 * 160 * 4);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn ratio_flag_conflicts_are_rejected() {
    let dir = tmpdir("ratio_conflict");
    let raw = dir.join("in.raw");
    write_textured_field(&raw, 16, 16);
    let base = [
        "compress", "-i", raw.to_str().unwrap(), "-o", "/dev/null",
        "--type", "f32", "--dims", "16x16",
    ];

    // --ratio and --mode are two answers to the same question.
    let out = fpsnr()
        .args(base)
        .args(["--ratio", "10", "--mode", "psnr:80"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--ratio replaces --mode"));

    // --ratio-tol without --ratio is meaningless.
    let out = fpsnr()
        .args(base)
        .args(["--ratio-tol", "0.2"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs --ratio"));

    // The transform codec has no rate model.
    let out = fpsnr()
        .args(base)
        .args(["--ratio", "10", "--transform"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--transform"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn inspect_and_verify_exit_codes_distinguish_damage() {
    let dir = tmpdir("verify_exit");
    let raw = dir.join("in.raw");
    let szr = dir.join("out.szr");
    write_textured_field(&raw, 48, 64);
    let out = fpsnr()
        .args([
            "compress", "-i", raw.to_str().unwrap(), "-o", szr.to_str().unwrap(),
            "--type", "f32", "--dims", "48x64", "--mode", "psnr:80",
        ])
        .output()
        .expect("run compress");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Clean container: both report success.
    for cmd in ["inspect", "verify"] {
        let out = fpsnr()
            .args([cmd, "-i", szr.to_str().unwrap()])
            .output()
            .expect("run");
        assert!(out.status.success(), "{cmd} failed on a clean container");
    }
    let out = fpsnr()
        .args(["verify", "-i", szr.to_str().unwrap()])
        .output()
        .expect("run");
    assert!(String::from_utf8_lossy(&out.stdout).contains("verify: OK"));

    // Flip one payload byte: inspect stays informational (exit 0),
    // verify becomes the machine-checkable gate (exit 1).
    let mut bytes = std::fs::read(&szr).expect("read container");
    let n = bytes.len();
    bytes[n - 10] ^= 0xFF;
    std::fs::write(&szr, bytes).expect("write damaged");

    let out = fpsnr()
        .args(["inspect", "-i", szr.to_str().unwrap()])
        .output()
        .expect("run");
    assert!(out.status.success(), "inspect must not fail on damage");

    let out = fpsnr()
        .args(["verify", "-i", szr.to_str().unwrap()])
        .output()
        .expect("run");
    assert!(!out.status.success(), "verify accepted a damaged container");
    assert!(!out.stderr.is_empty());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn bad_arguments_exit_nonzero_with_message() {
    let out = fpsnr().args(["compress", "--bogus"]).output().expect("run");
    assert!(!out.status.success());
    assert!(!out.stderr.is_empty());

    let out = fpsnr()
        .args(["eval", "--dataset", "marsclimate", "--psnr", "60"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));
}

#[test]
fn snapshot_allocates_generated_dataset_within_budget() {
    let out = fpsnr()
        .args([
            "snapshot", "--dataset", "nyx", "--res", "small", "--budget", "8KiB",
            "--threads", "2",
        ])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("field,assigned_psnr"), "missing table header");
    assert!(text.contains("allocated 6 fields"), "missing summary: {text}");
    // The budget line reports total/budget; parse and check compliance.
    let summary = text
        .lines()
        .find(|l| l.starts_with("allocated"))
        .expect("summary line");
    let total: u64 = summary
        .split(": ")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .expect("total bytes");
    assert!(total as f64 <= 8192.0 * 1.02, "budget busted: {total}");
}

#[test]
fn snapshot_manifest_mixes_types_and_writes_containers() {
    let dir = tmpdir("snapshot_manifest");
    write_textured_field(&dir.join("a.f32"), 40, 50);
    write_textured_field(&dir.join("b.f32"), 32, 32);
    // An f64 field: doubled samples of the same texture.
    let mut bytes = Vec::new();
    for i in 0..24usize {
        for j in 0..24usize {
            let v = ((i as f64 * 0.11).sin() + (j as f64 * 0.13).cos()) * 5.0
                + (i as f64 * 0.37).sin() * (j as f64 * 0.29).cos();
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    std::fs::write(dir.join("c.f64"), bytes).expect("write f64 raw");
    let manifest = r#"{
        "fields": [
            {"name": "a", "path": "a.f32", "dims": [40, 50]},
            {"name": "b", "path": "b.f32", "dims": [32, 32], "weight": 2.0},
            {"name": "c", "path": "c.f64", "type": "f64", "dims": [24, 24]}
        ]
    }"#;
    let mpath = dir.join("fields.json");
    std::fs::write(&mpath, manifest).expect("write manifest");
    let outdir = dir.join("out");
    let out = fpsnr()
        .args([
            "snapshot", "--manifest", mpath.to_str().unwrap(), "--budget", "4096",
            "--objective", "weighted", "--out-dir", outdir.to_str().unwrap(),
        ])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("allocated 3 fields"), "{text}");
    for name in ["a.szr", "b.szr", "c.szr"] {
        assert!(outdir.join(name).exists(), "missing container {name}");
    }
    // The containers decode: run them through decompress.
    let back = dir.join("back.raw");
    let out = fpsnr()
        .args([
            "decompress", "-i", outdir.join("c.szr").to_str().unwrap(),
            "-o", back.to_str().unwrap(),
        ])
        .output()
        .expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("f64"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn snapshot_rejects_bad_budgets_and_objectives() {
    for bad in [
        vec!["snapshot", "--dataset", "nyx", "--res", "small"], // no budget
        vec!["snapshot", "--dataset", "nyx", "--budget", "0"],
        vec!["snapshot", "--dataset", "nyx", "--budget", "12parsecs"],
        vec![
            "snapshot", "--dataset", "nyx", "--budget", "1MiB", "--objective", "fastest",
        ],
        vec!["snapshot", "--budget", "1MiB"], // no source
    ] {
        let out = fpsnr().args(&bad).output().expect("run");
        assert!(!out.status.success(), "{bad:?} accepted");
        assert!(!out.stderr.is_empty());
    }
}
