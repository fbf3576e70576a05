//! Scoped-thread execution layer with deterministic work splitting.
//!
//! The only primitive here is [`par_ranges`]: split `0..n` into contiguous
//! index ranges, run a worker per range on its own OS thread, and return the
//! per-range outputs **in index order**. Combined with per-index seed
//! derivation ([`crate::SeedSequence`]), this makes every parallel result a
//! pure function of `(input, master seed)`: chunk boundaries only decide
//! which thread computes a sample, never what the sample is, and outputs are
//! recombined in a fixed order (concatenation for sample pools, commutative
//! integer addition for count accumulators).
//!
//! The crate deliberately avoids a work-stealing pool dependency; scoped
//! threads are spawned per call, which is cheap relative to the
//! `O(Θ·ω)` sampling work each call amortizes.

use std::ops::Range;

/// How to execute a parallelizable stage. The default is `Threads(1)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parallelism {
    /// Pick a thread count from the environment: `RAYON_NUM_THREADS`, then
    /// `COD_THREADS`, then [`std::thread::available_parallelism`].
    Auto,
    /// Exactly `n` worker threads (clamped to at least 1). Results are
    /// identical for every `n` — `Threads(1)` and `Threads(8)` agree bit
    /// for bit.
    Threads(usize),
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::Threads(1)
    }
}

impl Parallelism {
    /// The number of worker threads this policy resolves to.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        match *self {
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => env_thread_override()
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from)),
        }
    }
}

fn env_thread_override() -> Option<usize> {
    for var in ["RAYON_NUM_THREADS", "COD_THREADS"] {
        if let Ok(raw) = std::env::var(var) {
            if let Ok(n) = raw.trim().parse::<usize>() {
                if n >= 1 {
                    return Some(n);
                }
            }
        }
    }
    None
}

/// Splits `0..n` into at most `threads` contiguous, balanced ranges and runs
/// `worker` on each, returning the per-range outputs in index order.
///
/// With `threads <= 1` (or `n <= 1`) the worker runs on the calling thread.
/// A worker panic is propagated to the caller.
pub fn par_ranges<T, F>(n: usize, threads: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        return vec![worker(0..n)];
    }
    let chunk = n.div_ceil(threads);
    let ranges: Vec<Range<usize>> = (0..threads)
        .map(|t| (t * chunk).min(n)..((t + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect();
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| scope.spawn(move || worker(r)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_exactly_once_for_any_thread_count() {
        for n in [0usize, 1, 2, 7, 64, 101] {
            for threads in [1usize, 2, 3, 8, 200] {
                let parts = par_ranges(n, threads, |r| r.collect::<Vec<_>>());
                let flat: Vec<usize> = parts.into_iter().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} t={threads}");
            }
        }
    }

    #[test]
    fn serial_runs_on_calling_thread() {
        let id = std::thread::current().id();
        let out = par_ranges(5, 1, |r| (std::thread::current().id(), r.len()));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, id);
        assert_eq!(out[0].1, 5);
    }

    #[test]
    fn thread_count_resolution() {
        assert_eq!(Parallelism::Threads(0).thread_count(), 1);
        assert_eq!(Parallelism::Threads(6).thread_count(), 6);
        assert!(Parallelism::Auto.thread_count() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Threads(1));
    }
}
