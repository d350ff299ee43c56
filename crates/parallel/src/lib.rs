//! # fpsnr-parallel — minimal data-parallel runtime
//!
//! The paper's motivating scenario is compressing *many* fields per
//! snapshot (CESM involves 100+ fields); the natural parallel axis is one
//! task per field, plus independent blocks inside one field that share
//! one global error bound.
//!
//! The domain guides recommend Rayon-style data parallelism, but this
//! project builds fully offline with no external crates, so the needed
//! subset is implemented directly on `std::thread::scope` and
//! `std::sync`:
//!
//! - [`par_map`] / [`par_map_indexed`] — dynamically scheduled parallel map
//!   over a slice, preserving input order in the output, with per-worker
//!   busy time recorded as `par_map.worker.<i>` spans in `fpsnr-obs`,
//! - [`nested_split`] — how a thread budget divides between an outer map
//!   over fields and an inner map over the blocks of each field.
//!
//! This is the one parallel runtime of the workspace: the per-field
//! batch and allocation passes, the blocked encoder's walk, encode and
//! lossless phases, and the blocked decoders all run on [`par_map`].
//! Workers are scoped threads spawned per call, so closures may borrow
//! the caller's data, and work is distributed through an atomic cursor:
//! data-race-free by construction.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads to use by default: the machine's available
/// parallelism, capped at 16 (the experiment harness never benefits past
/// that on these workloads).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// Split a thread budget across two nesting levels — an outer parallel
/// map over items (fields of a snapshot) each of which runs an inner
/// parallel stage (blocks of a field) — such that `outer · inner ≤
/// budget`: the composition can never explode into `budget²` threads.
///
/// The outer level is saturated first (item-level parallelism has no
/// synchronization inside the map, block-level parallelism pays merge
/// barriers), then whole leftover factors go inner: with 8 threads and 3
/// items, `(3, 2)` — 3 field tasks, each compressing with 2 block
/// workers, 6 ≤ 8.
///
/// ```
/// assert_eq!(fpsnr_parallel::nested_split(8, 79), (8, 1));  // wide snapshot
/// assert_eq!(fpsnr_parallel::nested_split(8, 3), (3, 2));   // few huge fields
/// assert_eq!(fpsnr_parallel::nested_split(8, 1), (1, 8));   // single field
/// ```
pub fn nested_split(budget: usize, items: usize) -> (usize, usize) {
    let budget = budget.max(1);
    if items == 0 {
        return (1, budget);
    }
    let outer = budget.min(items);
    (outer, (budget / outer).max(1))
}

/// Parallel map over a slice with dynamic (work-stealing-style) scheduling:
/// each worker repeatedly claims the next unprocessed index from an atomic
/// cursor, so uneven per-item cost balances automatically (compressing 79
/// ATM fields of very different entropy is exactly that situation).
///
/// Results are returned in input order. With `threads <= 1` or a single
/// item, runs inline with no thread overhead.
///
/// ```
/// let squares = fpsnr_parallel::par_map(&[1u64, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, threads, |_, item| f(item))
}

/// [`par_map`] variant whose closure also receives the item index.
pub fn par_map_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    // Collect per-worker and scatter afterwards — allocation-light and
    // contention-free (no shared mutable output while threads run).
    let mut partials: Vec<Vec<(usize, R)>> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let cursor = &cursor;
            let f = &f;
            handles.push(s.spawn(move || {
                let busy = fpsnr_obs::span_labeled("par_map.worker", worker);
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                drop(busy);
                local
            }));
        }
        for h in handles {
            partials.push(h.join().expect("parallel map worker panicked"));
        }
    });
    for (i, r) in partials.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("all indices claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, 8, |&x| x * x);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i * i) as u64);
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_single_thread_inline() {
        let items = vec![1, 2, 3];
        assert_eq!(par_map(&items, 1, |&x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn par_map_indexed_sees_indices() {
        let items = vec!["a", "b", "c"];
        let out = par_map_indexed(&items, 2, |i, s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn par_map_runs_every_item_once() {
        let counter = AtomicU64::new(0);
        let items: Vec<u32> = (0..500).collect();
        par_map(&items, 6, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn par_map_uneven_work_balances() {
        // Items with wildly different cost still all complete correctly.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, 8, |&x| {
            let iters = if x % 8 == 0 { 200_000 } else { 10 };
            let mut acc = x;
            for _ in 0..iters {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, &(x, _)) in out.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }

    #[test]
    #[should_panic(expected = "parallel map worker panicked")]
    fn par_map_propagates_worker_panic() {
        let items: Vec<u32> = (0..64).collect();
        par_map(&items, 4, |&x| {
            if x == 13 {
                panic!("unlucky item");
            }
            x
        });
    }

    #[test]
    fn default_threads_is_positive() {
        let n = default_threads();
        assert!(n >= 1 && n <= 16);
    }

    #[test]
    fn nested_split_never_exceeds_budget() {
        for budget in 1..=32 {
            for items in 0..=100 {
                let (outer, inner) = nested_split(budget, items);
                assert!(outer >= 1 && inner >= 1);
                assert!(
                    outer * inner <= budget.max(1),
                    "budget {budget} items {items} -> {outer}x{inner}"
                );
                if items > 0 {
                    assert!(outer <= items.max(1));
                }
            }
        }
    }

    #[test]
    fn nested_split_saturates_outer_first() {
        assert_eq!(nested_split(16, 79), (16, 1));
        assert_eq!(nested_split(4, 4), (4, 1));
        assert_eq!(nested_split(9, 2), (2, 4));
        assert_eq!(nested_split(1, 50), (1, 1));
        assert_eq!(nested_split(0, 5), (1, 1));
        assert_eq!(nested_split(6, 0), (1, 6));
    }
}
