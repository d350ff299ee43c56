//! Snapshot types and the two reporters (JSON and aligned pretty table).
//!
//! Both reporters are hand-rolled: the workspace builds fully offline, so
//! there is no serde. The JSON emitted here is deliberately flat and
//! stable-ordered (spans and counters each sorted by key) so downstream
//! tooling — the `BENCH_*.json` capture described in EXPERIMENTS.md — can
//! diff runs textually.

/// Aggregate statistics for one span path (e.g. `sz.compress/sz.quantize`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Hierarchical '/'-joined path of the span.
    pub path: String,
    /// Number of times the span was entered and retired.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Fastest single entry, nanoseconds.
    pub min_ns: u64,
    /// Slowest single entry, nanoseconds.
    pub max_ns: u64,
}

/// One monotonic counter (bytes, invocations, busy nanoseconds, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterStat {
    /// Counter name, e.g. `sz.bytes_in` or `sz.lossless.chunks.deflate`.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// A point-in-time copy of the registry, ready for rendering or queries.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All span aggregates, sorted by path.
    pub spans: Vec<SpanStat>,
    /// All counters, sorted by name.
    pub counters: Vec<CounterStat>,
}

impl Report {
    /// Look up a span aggregate by its exact path.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Look up a counter value by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Render as a single-line JSON object:
    /// `{"spans":[{"path":...,"count":...,"total_ns":...,"min_ns":...,
    /// "max_ns":...}, ...],"counters":[{"name":...,"value":...}, ...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 96 * (self.spans.len() + self.counters.len()));
        out.push_str("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"path\":");
            json_string(&mut out, &s.path);
            out.push_str(&format!(
                ",\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                s.count, s.total_ns, s.min_ns, s.max_ns
            ));
        }
        out.push_str("],\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_string(&mut out, &c.name);
            out.push_str(&format!(",\"value\":{}}}", c.value));
        }
        out.push_str("]}");
        out
    }

    /// Render as an aligned, human-readable table. Span rows are indented
    /// by nesting depth; durations are scaled to the most readable unit.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            let name_w = self
                .spans
                .iter()
                .map(|s| display_name(&s.path).len() + 2 * depth(&s.path))
                .max()
                .unwrap_or(4)
                .max(4);
            out.push_str(&format!(
                "  {:<name_w$}  {:>8}  {:>12}  {:>12}  {:>12}\n",
                "span", "count", "total", "min", "max"
            ));
            for s in &self.spans {
                let indent = "  ".repeat(depth(&s.path));
                out.push_str(&format!(
                    "  {:<name_w$}  {:>8}  {:>12}  {:>12}  {:>12}\n",
                    format!("{indent}{}", display_name(&s.path)),
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.min_ns),
                    fmt_ns(s.max_ns),
                ));
            }
        }
        if !self.counters.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str("counters:\n");
            let name_w = self
                .counters
                .iter()
                .map(|c| c.name.len())
                .max()
                .unwrap_or(4)
                .max(4);
            for c in &self.counters {
                out.push_str(&format!("  {:<name_w$}  {:>16}\n", c.name, c.value));
            }
        }
        if out.is_empty() {
            out.push_str("(no instrumentation recorded)\n");
        }
        out
    }
}

/// Nesting depth of a span path (number of '/' separators).
fn depth(path: &str) -> usize {
    path.matches('/').count()
}

/// Leaf name of a span path.
fn display_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Scale nanoseconds to a fixed-width human unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Append `s` as a JSON string literal (quotes, backslashes, control
/// characters escaped).
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            spans: vec![
                SpanStat {
                    path: "a".into(),
                    count: 2,
                    total_ns: 3_000_000,
                    min_ns: 1_000_000,
                    max_ns: 2_000_000,
                },
                SpanStat {
                    path: "a/b".into(),
                    count: 1,
                    total_ns: 500,
                    min_ns: 500,
                    max_ns: 500,
                },
            ],
            counters: vec![CounterStat {
                name: "bytes".into(),
                value: 42,
            }],
        }
    }

    #[test]
    fn json_shape() {
        let j = sample().to_json();
        assert_eq!(
            j,
            "{\"spans\":[\
             {\"path\":\"a\",\"count\":2,\"total_ns\":3000000,\"min_ns\":1000000,\"max_ns\":2000000},\
             {\"path\":\"a/b\",\"count\":1,\"total_ns\":500,\"min_ns\":500,\"max_ns\":500}],\
             \"counters\":[{\"name\":\"bytes\",\"value\":42}]}"
        );
    }

    #[test]
    fn json_escapes_specials() {
        let mut s = String::new();
        json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn pretty_indents_nested_spans() {
        let p = sample().render_pretty();
        assert!(p.contains("spans:"));
        assert!(p.contains("counters:"));
        // Leaf 'b' is indented under 'a'.
        assert!(p.contains("\n    b") || p.contains("  b  "), "pretty:\n{p}");
        assert!(p.contains("3.000ms"));
    }

    #[test]
    fn empty_report_renders_placeholder() {
        assert!(Report::default()
            .render_pretty()
            .contains("no instrumentation"));
    }

    #[test]
    fn lookup_helpers() {
        let r = sample();
        assert_eq!(r.span("a/b").unwrap().count, 1);
        assert_eq!(r.counter("bytes"), Some(42));
        assert!(r.span("missing").is_none());
        assert_eq!(r.counter("missing"), None);
    }
}
