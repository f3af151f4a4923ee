//! Lock-cheap event counters.
//!
//! A [`Counter`] is a monotonically increasing `u64` that threads bump
//! with one relaxed `fetch_add`. It is one atomic word on a cache line
//! of its own, so two counters never false-share. It is not sharded:
//! the engine adds once per statement, index probe, `fetch_many` call,
//! refine chunk or morsel, not once per row it reads, so a worker adds
//! every few microseconds at most (an index-nested-loop join, one probe
//! per outer row, is the densest case), and a per-statement snapshot
//! reads one word per counter.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter, alone on its cache line.
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The count so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_across_threads() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn a_counter_is_one_word_alone_on_a_cache_line() {
        assert_eq!(std::mem::align_of::<Counter>(), 64);
        assert_eq!(std::mem::size_of::<Counter>(), 64);
    }

    #[test]
    fn add_batches() {
        let c = Counter::new();
        c.add(5);
        c.add(0);
        c.add(37);
        assert_eq!(c.get(), 42);
    }
}
