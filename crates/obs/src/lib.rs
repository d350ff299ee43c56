//! # fpsnr-obs — pipeline observability
//!
//! Per-stage instrumentation for the fixed-PSNR compression pipeline. The
//! paper's core performance claim — fixed-PSNR mode has *negligible
//! overhead* versus search-based PSNR targeting — rests on knowing where
//! time goes inside the pipeline (predict → quantize → encode → lossless).
//! This crate provides that visibility with three primitives:
//!
//! - **scoped spans** ([`span`], [`scope`]): monotonic stage timers that
//!   nest; a span opened while another is active on the same thread records
//!   under the hierarchical path `parent/child`,
//! - **counters** ([`add`]): monotonically increasing u64 totals (bytes in,
//!   bytes out, compressor invocations, per-worker busy nanoseconds),
//! - **a global registry** ([`snapshot`], [`reset`]): thread-safe
//!   aggregation keyed by span path / counter name, rendered as JSON
//!   ([`Report::to_json`]) or an aligned table ([`Report::render_pretty`]).
//!
//! ## Cost model
//!
//! Instrumentation is **off by default**. Every probe starts with one
//! relaxed atomic load ([`is_enabled`]); while disabled that load and its
//! branch are the entire cost, so instrumented builds are safe to ship.
//! Enabling ([`enable`]) arms the probes: span start/stop takes a
//! monotonic-clock read each, and retiring a span or bumping a counter
//! takes the registry lock once. Probes are placed at *stage* granularity
//! (never per-sample), so the lock is uncontended in practice.
//!
//! For builds that must not carry the probes at all, the `off` cargo
//! feature compiles every entry point down to an empty inline function —
//! the `Disabled`-sink-at-compile-time path.
//!
//! ## Example
//!
//! ```
//! fpsnr_obs::reset();
//! fpsnr_obs::enable();
//! {
//!     let _outer = fpsnr_obs::span("compress");
//!     let _inner = fpsnr_obs::span("quantize");
//!     fpsnr_obs::add("bytes_in", 4096);
//! }
//! fpsnr_obs::disable();
//! let report = fpsnr_obs::snapshot();
//! # #[cfg(not(feature = "off"))]
//! assert!(report.span("compress/quantize").is_some());
//! # #[cfg(not(feature = "off"))]
//! assert_eq!(report.counter("bytes_in"), Some(4096));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod report;

pub use report::{CounterStat, Report, SpanStat};

#[cfg(not(feature = "off"))]
mod imp {
    use crate::report::{CounterStat, Report, SpanStat};
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    static ENABLED: AtomicBool = AtomicBool::new(false);

    #[derive(Default)]
    struct SpanAgg {
        count: u64,
        total_ns: u64,
        min_ns: u64,
        max_ns: u64,
    }

    #[derive(Default)]
    struct Registry {
        spans: HashMap<String, SpanAgg>,
        counters: HashMap<String, u64>,
    }

    fn registry() -> &'static Mutex<Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
    }

    fn lock_registry() -> std::sync::MutexGuard<'static, Registry> {
        // A panic while holding the lock only ever happens in unit tests;
        // the aggregates are plain counters, safe to keep using.
        registry().lock().unwrap_or_else(|e| e.into_inner())
    }

    thread_local! {
        /// Names of the spans currently open on this thread, outermost
        /// first. Joined with '/' to form the hierarchical path.
        static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    }

    #[inline]
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    pub fn enable() {
        ENABLED.store(true, Ordering::SeqCst);
    }

    pub fn disable() {
        ENABLED.store(false, Ordering::SeqCst);
    }

    /// RAII stage timer (armed variant); see the crate-root re-export.
    pub struct Span {
        start: Option<Instant>,
    }

    impl Span {
        fn armed(name: String) -> Span {
            SPAN_STACK.with(|s| s.borrow_mut().push(name));
            Span {
                start: Some(Instant::now()),
            }
        }

        pub(crate) const INERT: Span = Span { start: None };
    }

    impl Drop for Span {
        fn drop(&mut self) {
            let Some(start) = self.start else {
                return;
            };
            let ns = start.elapsed().as_nanos() as u64;
            let path = SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let path = stack.join("/");
                stack.pop();
                path
            });
            let mut reg = lock_registry();
            let agg = reg.spans.entry(path).or_default();
            agg.count += 1;
            agg.total_ns += ns;
            agg.max_ns = agg.max_ns.max(ns);
            agg.min_ns = if agg.count == 1 {
                ns
            } else {
                agg.min_ns.min(ns)
            };
        }
    }

    #[inline]
    pub fn span(name: &'static str) -> Span {
        if is_enabled() {
            Span::armed(name.to_string())
        } else {
            Span::INERT
        }
    }

    #[inline]
    pub fn span_labeled(prefix: &str, index: usize) -> Span {
        if is_enabled() {
            Span::armed(format!("{prefix}.{index}"))
        } else {
            Span::INERT
        }
    }

    #[inline]
    pub fn add(name: &str, n: u64) {
        if is_enabled() {
            let mut reg = lock_registry();
            match reg.counters.get_mut(name) {
                Some(v) => *v += n,
                None => {
                    reg.counters.insert(name.to_string(), n);
                }
            }
        }
    }

    #[inline]
    pub fn add_labeled(index: usize, prefix: &str, suffix: &str, n: u64) {
        if is_enabled() {
            add(&format!("{prefix}.{index}.{suffix}"), n);
        }
    }

    pub fn reset() {
        let mut reg = lock_registry();
        reg.spans.clear();
        reg.counters.clear();
    }

    pub fn snapshot() -> Report {
        let reg = lock_registry();
        let mut spans: Vec<SpanStat> = reg
            .spans
            .iter()
            .map(|(path, a)| SpanStat {
                path: path.clone(),
                count: a.count,
                total_ns: a.total_ns,
                min_ns: a.min_ns,
                max_ns: a.max_ns,
            })
            .collect();
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        let mut counters: Vec<CounterStat> = reg
            .counters
            .iter()
            .map(|(name, &value)| CounterStat {
                name: name.clone(),
                value,
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        Report { spans, counters }
    }
}

#[cfg(feature = "off")]
mod imp {
    //! Compile-out sink: every probe is an empty inline function the
    //! optimizer erases entirely.

    use crate::report::Report;

    /// Inert stand-in for the RAII stage timer.
    pub struct Span;

    #[inline(always)]
    pub fn is_enabled() -> bool {
        false
    }

    #[inline(always)]
    pub fn enable() {}

    #[inline(always)]
    pub fn disable() {}

    #[inline(always)]
    pub fn span(_name: &'static str) -> Span {
        Span
    }

    #[inline(always)]
    pub fn span_labeled(_prefix: &str, _index: usize) -> Span {
        Span
    }

    #[inline(always)]
    pub fn add(_name: &str, _n: u64) {}

    #[inline(always)]
    pub fn add_labeled(_index: usize, _prefix: &str, _suffix: &str, _n: u64) {}

    #[inline(always)]
    pub fn reset() {}

    pub fn snapshot() -> Report {
        Report {
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }
}

/// RAII stage timer: created by [`span`] / [`span_labeled`], records its
/// elapsed time under the thread's hierarchical span path when dropped.
/// Inert (records nothing) while instrumentation is disabled.
pub use imp::Span;

/// Whether instrumentation is currently armed. One relaxed atomic load —
/// this is the single branch every probe pays when disabled. Constant
/// `false` under the `off` feature.
#[inline]
pub fn is_enabled() -> bool {
    imp::is_enabled()
}

/// Arm the probes process-wide.
pub fn enable() {
    imp::enable()
}

/// Disarm the probes process-wide (spans already open still retire).
pub fn disable() {
    imp::disable()
}

/// Open a stage timer. The returned [`Span`] records elapsed nanoseconds
/// under `parent/.../name` (nesting is per-thread) when dropped.
#[inline]
pub fn span(name: &'static str) -> Span {
    imp::span(name)
}

/// [`span`] with a runtime-numbered name, e.g. `par_map.worker.3` — used for
/// per-worker accounting where the index is not known at compile time.
#[inline]
pub fn span_labeled(prefix: &str, index: usize) -> Span {
    imp::span_labeled(prefix, index)
}

/// Time a closure under `name` and return its result.
///
/// ```
/// let v = fpsnr_obs::scope("stage", || 2 + 2);
/// assert_eq!(v, 4);
/// ```
#[inline]
pub fn scope<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}

/// Add `n` to the named monotonic counter (bytes, invocations, …).
#[inline]
pub fn add(name: &str, n: u64) {
    imp::add(name, n)
}

/// [`add`] to a runtime-numbered counter `prefix.index.suffix`, e.g.
/// `fratio.pass.1.predicted_bpv_milli`.
#[inline]
pub fn add_labeled(index: usize, prefix: &str, suffix: &str, n: u64) {
    imp::add_labeled(index, prefix, suffix, n)
}

/// Clear every recorded span and counter.
pub fn reset() {
    imp::reset()
}

/// Copy the current aggregates out of the registry. Cheap relative to any
/// workload worth profiling; safe to call while other threads record.
pub fn snapshot() -> Report {
    imp::snapshot()
}

#[cfg(all(test, not(feature = "off")))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry and enable flag are process-global; tests serialize on
    /// this lock so `cargo test`'s parallel runner cannot interleave them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn isolated() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        enable();
        guard
    }

    #[test]
    fn nested_spans_record_hierarchical_paths() {
        let _g = isolated();
        {
            let _a = span("outer");
            {
                let _b = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            {
                let _b2 = span("inner");
            }
        }
        disable();
        let r = snapshot();
        let outer = r.span("outer").expect("outer recorded");
        let inner = r.span("outer/inner").expect("nested path recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        assert!(r.span("inner").is_none(), "bare inner must not exist");
        assert!(outer.total_ns >= inner.total_ns - inner.max_ns);
        assert!(inner.min_ns <= inner.max_ns);
    }

    #[test]
    fn sibling_threads_do_not_nest_into_each_other() {
        let _g = isolated();
        let t = std::thread::spawn(|| {
            let _s = span("thread_b");
        });
        {
            let _a = span("thread_a");
            t.join().unwrap();
        }
        disable();
        let r = snapshot();
        assert!(r.span("thread_b").is_some());
        assert!(r.span("thread_a/thread_b").is_none());
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let _g = isolated();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        add("hits", 1);
                    }
                });
            }
        });
        add_labeled(3, "worker", "jobs", 7);
        disable();
        let r = snapshot();
        assert_eq!(r.counter("hits"), Some(800));
        assert_eq!(r.counter("worker.3.jobs"), Some(7));
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = isolated();
        disable();
        {
            let _s = span("ghost");
            add("ghost_counter", 5);
        }
        let r = snapshot();
        assert!(r.spans.is_empty(), "span recorded while disabled");
        assert!(r.counters.is_empty(), "counter recorded while disabled");
    }

    #[test]
    fn scope_times_and_returns() {
        let _g = isolated();
        let v = scope("scoped", || 41 + 1);
        assert_eq!(v, 42);
        disable();
        assert_eq!(snapshot().span("scoped").unwrap().count, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let _g = isolated();
        {
            let _s = span("x");
        }
        add("c", 1);
        reset();
        disable();
        let r = snapshot();
        assert!(r.spans.is_empty() && r.counters.is_empty());
    }

    #[test]
    fn json_report_is_well_formed() {
        let _g = isolated();
        {
            let _s = span("stage");
        }
        add("bytes", 123);
        disable();
        let json = snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"path\":\"stage\""));
        assert!(json.contains("\"name\":\"bytes\",\"value\":123"));
    }
}
