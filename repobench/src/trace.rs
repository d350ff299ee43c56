//! In-memory span recorder for the traced run.
//!
//! The benchmark opens one span around each call it makes into a layer's
//! public functions (nothing inside the program is instrumented). A span
//! keeps its name, start, end, parent and operation id; self time is the
//! span's duration minus its direct children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    armed: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recording tracer, or (`armed = false`) one whose probes do nothing,
    /// used to measure what recording costs.
    pub fn new(armed: bool) -> Self {
        Tracer {
            armed,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Start a new operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.armed {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Per-name totals: (count, total duration, total self time), in ns.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        totals(&self.spans)
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| s.dur_ns().saturating_sub(c))
        .collect()
}

pub fn totals(spans: &[SpanRec]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut map: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = map.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > a1 [15,25); root > b [50,90).
        let spans = vec![
            rec("root", 0, 100, None),
            rec("a", 10, 40, Some(0)),
            rec("a1", 15, 25, Some(1)),
            rec("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let t = totals(&spans);
        assert_eq!(t["root"].self_ns, 30);
        assert_eq!(t["a"].total_ns, 30);
    }

    #[test]
    fn totals_aggregate_by_name() {
        let spans = vec![
            rec("op", 0, 50, None),
            rec("walk", 0, 20, Some(0)),
            rec("op", 60, 100, None),
            rec("walk", 60, 90, Some(2)),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["walk"],
            Totals {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        assert_eq!(
            t["op"],
            Totals {
                count: 2,
                total_ns: 90,
                self_ns: 40
            }
        );
    }

    #[test]
    fn recorder_nests_and_disarmed_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.next_op();
        let outer = tr.enter("outer");
        let inner = tr.enter("inner");
        tr.exit(inner);
        tr.exit(outer);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].op, 1);
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);
        let mut off = Tracer::new(false);
        let s = off.enter("x");
        off.exit(s);
        assert!(off.spans().is_empty());
    }
}
