//! Parallel sweep runner for the experiment binaries.
//!
//! Every table/figure workload in `ga-bench` is a grid of independent
//! simulated runs (seed × population × crossover-rate cells — each one
//! a self-contained FPGA simulation). This module gives them one shared
//! work-distribution primitive instead of per-binary ad-hoc threading:
//! a scoped thread pool pulling indices off an atomic counter, with the
//! results **always returned in input order** regardless of thread
//! count or completion order — so a sweep's output is byte-identical
//! whether it ran on one core or sixteen.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Worker-thread count for sweeps: the machine's available parallelism
/// (1 when it cannot be queried).
pub fn default_threads() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` over every item of `items` on up to `threads` scoped worker
/// threads and collect the results **in input order**.
///
/// `f` receives `(index, &item)` and must be a pure function of them —
/// the scheduler makes no ordering promises about *execution*, only
/// about the returned `Vec` (result `i` always corresponds to
/// `items[i]`). With `threads <= 1` (or a single item) the sweep runs
/// inline on the caller's thread, which is also the reference semantics
/// the parallel path is property-tested against.
pub fn run_sweep<I, T, F>(items: &[I], threads: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }

    // Work claim: each worker pulls the next unclaimed index; finished
    // (index, result) pairs accumulate thread-locally and merge under
    // the mutex once per worker, so the lock is cold.
    let next = AtomicUsize::new(0);
    let merged: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(items.len()));
    thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                merged
                    .lock()
                    .expect("sweep worker panicked while holding the collector")
                    .append(&mut local);
            });
        }
    });

    let mut got = merged
        .into_inner()
        .expect("sweep worker panicked while holding the collector");
    got.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(got.len(), items.len());
    got.into_iter().map(|(_, v)| v).collect()
}

/// The cross product `a × b × c` in row-major order (`a` slowest,
/// `c` fastest) — the cell order the paper's grid tables print in
/// (seed rows; `p32/x10, p32/x12, p64/x10, p64/x12` columns).
pub fn grid3<A: Copy, B: Copy, C: Copy>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
    let mut out = Vec::with_capacity(a.len() * b.len() * c.len());
    for &x in a {
        for &y in b {
            for &z in c {
                out.push((x, y, z));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_sweep_is_empty() {
        let out: Vec<u32> = run_sweep(&[], 4, |_, item: &u32| *item);
        assert!(out.is_empty());
    }

    #[test]
    fn grid3_is_row_major() {
        let g = grid3(&[1, 2], &[10, 20], &[100, 200]);
        assert_eq!(g.len(), 8);
        assert_eq!(g[0], (1, 10, 100));
        assert_eq!(g[1], (1, 10, 200));
        assert_eq!(g[2], (1, 20, 100));
        assert_eq!(g[4], (2, 10, 100));
        assert_eq!(g[7], (2, 20, 200));
    }

    #[test]
    fn results_are_input_ordered_with_many_threads() {
        // More threads than items, uneven per-item work.
        let items: Vec<u64> = (0..37).collect();
        let out = run_sweep(&items, 16, |i, &x| {
            // Busy-work proportional to a hash of the index so
            // completion order scrambles.
            let mut acc = x;
            for _ in 0..((i * 7919) % 999) {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i as u64, x, acc)
        });
        for (i, &(idx, x, _)) in out.iter().enumerate() {
            assert_eq!(idx, i as u64);
            assert_eq!(x, items[i]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The parallel sweep's output is byte-identical to the
        /// sequential reference for any item set and thread count.
        #[test]
        fn parallel_matches_sequential(
            items in prop::collection::vec(any::<u16>(), 0..48),
            threads in 1usize..6,
        ) {
            let f = |i: usize, x: &u16| format!("{i}:{:04X}:{}", x, x.wrapping_mul(31));
            let sequential: Vec<String> =
                items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
            let swept = run_sweep(&items, threads, f);
            prop_assert_eq!(sequential, swept);
        }
    }
}
