//! Tiny dependency-free argument parser.
//!
//! Grammar: `fpsnr <command> [--flag value]... [--switch]...`. Flags may be
//! given in any order; unknown flags are errors so typos fail loudly.

use std::collections::HashMap;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// First positional token (the subcommand).
    pub command: String,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Flags that take a value, per command.
const VALUE_FLAGS: &[&str] = &[
    "--input",
    "-i",
    "--output",
    "-o",
    "--recon",
    "-r",
    "--type",
    "--dims",
    "--mode",
    "--bins",
    "--dataset",
    "--res",
    "--psnr",
    "--seed",
    "--threads",
    "--block-size",
    "--out-dir",
    "--profile",
    "--ratio",
    "--ratio-tol",
    "--chunks",
    "--region",
    "--addr",
    "--cache-mb",
    "--predictor",
    "--budget",
    "--objective",
    "--manifest",
];
/// Boolean switches.
const SWITCHES: &[&str] = &["--no-lz", "--verify", "--quiet", "--transform"];

impl Args {
    /// Parse a raw argument vector (without the program name).
    ///
    /// # Errors
    /// Returns a human-readable message on unknown flags, missing values,
    /// or a missing command.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut it = argv.iter();
        let command = it
            .next()
            .ok_or_else(|| "missing command (try `fpsnr help`)".to_string())?
            .clone();
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        while let Some(tok) = it.next() {
            if SWITCHES.contains(&tok.as_str()) {
                switches.push(tok.clone());
            } else if VALUE_FLAGS.contains(&tok.as_str()) {
                let val = it
                    .next()
                    .ok_or_else(|| format!("flag {tok} needs a value"))?;
                let canonical = match tok.as_str() {
                    "-i" => "--input",
                    "-o" => "--output",
                    "-r" => "--recon",
                    other => other,
                };
                flags.insert(canonical.to_string(), val.clone());
            } else {
                return Err(format!("unknown argument: {tok}"));
            }
        }
        Ok(Args {
            command,
            flags,
            switches,
        })
    }

    /// Value of a flag, if present.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(|s| s.as_str())
    }

    /// Value of a required flag.
    ///
    /// # Errors
    /// Message naming the missing flag.
    pub fn require(&self, flag: &str) -> Result<&str, String> {
        self.get(flag)
            .ok_or_else(|| format!("missing required flag {flag}"))
    }

    /// Whether a boolean switch was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// Parse `--dims 100x500x500` into extents.
    ///
    /// # Errors
    /// Message on malformed dimension strings.
    pub fn dims(&self) -> Result<Vec<usize>, String> {
        let raw = self.require("--dims")?;
        let dims: Result<Vec<usize>, _> = raw.split('x').map(|p| p.parse::<usize>()).collect();
        let dims = dims.map_err(|e| format!("bad --dims {raw}: {e}"))?;
        if dims.is_empty() || dims.len() > 3 || dims.contains(&0) {
            return Err(format!("--dims must be 1-3 nonzero extents, got {raw}"));
        }
        Ok(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(toks: &[&str]) -> Result<Args, String> {
        let v: Vec<String> = toks.iter().map(|s| s.to_string()).collect();
        Args::parse(&v)
    }

    #[test]
    fn basic_parse() {
        let a = parse(&["compress", "-i", "in.raw", "--mode", "psnr:80", "--no-lz"]).unwrap();
        assert_eq!(a.command, "compress");
        assert_eq!(a.get("--input"), Some("in.raw"));
        assert_eq!(a.get("--mode"), Some("psnr:80"));
        assert!(a.has("--no-lz"));
        assert!(!a.has("--verify"));
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["compress", "--bogus", "1"]).is_err());
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse(&["compress", "--input"]).is_err());
    }

    #[test]
    fn missing_command_rejected() {
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn dims_parse() {
        let a = parse(&["compress", "--dims", "100x500x500"]).unwrap();
        assert_eq!(a.dims().unwrap(), vec![100, 500, 500]);
        let a = parse(&["compress", "--dims", "1800x3600"]).unwrap();
        assert_eq!(a.dims().unwrap(), vec![1800, 3600]);
    }

    #[test]
    fn bad_dims_rejected() {
        for bad in ["0x5", "axb", "1x2x3x4", ""] {
            let a = parse(&["c", "--dims", bad]).unwrap();
            assert!(a.dims().is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn require_reports_flag_name() {
        let a = parse(&["compress"]).unwrap();
        let err = a.require("--input").unwrap_err();
        assert!(err.contains("--input"));
    }
}
