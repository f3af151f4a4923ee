//! Fixed-bucket log-scaled histograms.
//!
//! A [`Histogram`] records `u64` samples (typically nanoseconds) into 64
//! power-of-two buckets: bucket `b > 0` holds values `v` with
//! `2^(b-1) <= v < 2^b`, bucket 0 holds exactly zero. Recording is one
//! relaxed `fetch_add` plus a `fetch_max`, so it is safe on the query
//! hot path; reading produces a [`HistogramSnapshot`] whose quantiles
//! are bucket upper bounds (at most 2x the true value — plenty for
//! attribution, never used for pass/fail timing assertions).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per possible `leading_zeros` outcome.
pub const BUCKETS: usize = 64;

/// A concurrent log2-bucket histogram.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .field("max", &s.max)
            .finish()
    }
}

/// The bucket a value lands in: 0 for 0, otherwise its bit length.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy. Mid-flight the fields may be mutually
    /// inconsistent by a few in-progress samples; they are never torn
    /// within one field.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Records one sample into this (non-atomic) snapshot. Used where a
    /// histogram accumulates under an outer lock — e.g. the per-
    /// fingerprint stats table — and paying 67 atomics per value would
    /// be waste.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Mean sample value, zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Nearest-rank quantile, reported as the upper bound of the bucket
    /// the rank falls in (`q` in `[0, 1]`). Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(b);
            }
        }
        self.max
    }

    /// Element-wise sum with another snapshot (used by tests to check
    /// merge monotonicity and by multi-engine aggregation).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            count: self.count + other.count,
            sum: self.sum + other.sum,
            max: self.max.max(other.max),
        }
    }

    /// Per-bucket difference against an earlier snapshot of the same
    /// histogram, saturating so a racy pair can never panic.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }
}

/// Largest value that lands in bucket `b` (`u64::MAX` for the last
/// bucket).
fn bucket_upper_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantiles_are_ordered() {
        let h = Histogram::new();
        for v in [1u64, 10, 100, 1000, 10_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 11_111);
        assert_eq!(s.max, 10_000);
        assert!(s.quantile(0.5) <= s.quantile(0.95));
        assert!(s.quantile(0.95) <= s.quantile(1.0));
        // Upper bound is within 2x of the true max.
        assert!(s.quantile(1.0) >= 10_000 && s.quantile(1.0) < 20_000);
    }

    #[test]
    fn delta_and_merge() {
        let h = Histogram::new();
        h.record(7);
        let before = h.snapshot();
        h.record(9);
        h.record(0);
        let after = h.snapshot();
        let delta = after.delta_since(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 9);
        let merged = before.merge(&delta);
        assert_eq!(merged.count, after.count);
        assert_eq!(merged.sum, after.sum);
    }
}
