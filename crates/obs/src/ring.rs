//! The always-on flight recorder: a fixed-capacity ring of completed
//! query traces, plus the threshold-gated slow-query log built on it.
//!
//! Production databases cannot re-run a query "with tracing on" after it
//! was slow, so the engine keeps the last N completed [`QueryTrace`]s at
//! all times. The ring is lock-light: recording is one short mutex hold
//! around a `VecDeque` push of an `Arc` (the trace itself is built by the
//! caller, outside the lock), so contention is bounded by pointer-sized
//! critical sections. Traces are never torn — a reader either sees a
//! whole `Arc<QueryTrace>` or nothing.

use crate::trace::{duration_ns, QueryTrace};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Poison-ignoring lock (matches the workspace's `storage::sync`
/// convention; `obs` sits below `storage`, so it wraps std directly).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fixed-capacity ring buffer of completed query traces, oldest
/// evicted first.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    buf: Mutex<VecDeque<Arc<QueryTrace>>>,
    recorded: AtomicU64,
    evicted: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` traces; `capacity` must be
    /// non-zero (recording has no off switch).
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "a flight recorder needs a non-zero capacity");
        FlightRecorder {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Maximum number of traces retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Traces currently retained.
    pub fn len(&self) -> usize {
        lock(&self.buf).len()
    }

    /// Whether the ring holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records one completed trace, evicting the oldest beyond capacity.
    pub fn push(&self, trace: Arc<QueryTrace>) {
        let mut buf = lock(&self.buf);
        if buf.len() == self.capacity {
            buf.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(trace);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// The retained traces, oldest first. The ring keeps its contents.
    pub fn recent(&self) -> Vec<Arc<QueryTrace>> {
        lock(&self.buf).iter().cloned().collect()
    }

    /// Removes and returns every retained trace, oldest first.
    pub fn drain(&self) -> Vec<Arc<QueryTrace>> {
        lock(&self.buf).drain(..).collect()
    }

    /// Total traces ever pushed (including later-evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Traces evicted to make room (drained traces are not evictions).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

/// The slow-query log: a second ring that only admits traces whose total
/// latency reaches a configurable threshold. When queries are fast the
/// cost is one relaxed atomic load (the threshold check) per statement.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold_ns: AtomicU64,
    ring: FlightRecorder,
}

impl SlowQueryLog {
    /// A log retaining at most `capacity` slow traces at `threshold`.
    pub fn new(capacity: usize, threshold: Duration) -> SlowQueryLog {
        SlowQueryLog {
            threshold_ns: AtomicU64::new(duration_ns(threshold)),
            ring: FlightRecorder::new(capacity),
        }
    }

    /// The current slow threshold.
    pub fn threshold(&self) -> Duration {
        Duration::from_nanos(self.threshold_ns.load(Ordering::Relaxed))
    }

    /// Sets the slow threshold. `Duration::ZERO` admits every query;
    /// `Duration::MAX` effectively disables the log. A hook for
    /// `tests/flight_recorder.rs` and `tests/syscat.rs`.
    pub fn set_threshold(&self, threshold: Duration) {
        self.threshold_ns.store(duration_ns(threshold), Ordering::Relaxed);
    }

    /// Admits `trace` iff its total latency reaches the threshold.
    /// Returns whether it was admitted.
    pub fn offer(&self, trace: &Arc<QueryTrace>) -> bool {
        let ns = duration_ns(trace.total);
        if ns < self.threshold_ns.load(Ordering::Relaxed) {
            return false;
        }
        self.ring.push(trace.clone());
        true
    }

    /// The retained slow traces, oldest first.
    pub fn recent(&self) -> Vec<Arc<QueryTrace>> {
        self.ring.recent()
    }

    /// Removes and returns every retained slow trace, oldest first.
    pub fn drain(&self) -> Vec<Arc<QueryTrace>> {
        self.ring.drain()
    }

    /// Slow traces currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the log holds no traces.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EngineMetrics;

    fn trace(sql: &str, total: Duration) -> Arc<QueryTrace> {
        let m = EngineMetrics::new();
        Arc::new(QueryTrace::new(sql, total, 0, m.snapshot().delta_since(&m.snapshot())))
    }

    #[test]
    fn evicts_oldest_beyond_capacity() {
        let r = FlightRecorder::new(3);
        for i in 0..5 {
            r.push(trace(&format!("q{i}"), Duration::ZERO));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.evicted(), 2);
        let recent = r.recent();
        let sqls: Vec<&str> = recent.iter().map(|t| t.sql.as_str()).collect();
        assert_eq!(sqls, vec!["q2", "q3", "q4"], "oldest evicted, order preserved");
    }

    #[test]
    fn drain_empties_without_counting_evictions() {
        let r = FlightRecorder::new(4);
        r.push(trace("a", Duration::ZERO));
        r.push(trace("b", Duration::ZERO));
        let drained = r.drain();
        assert_eq!(drained.len(), 2);
        assert!(r.is_empty());
        assert_eq!(r.evicted(), 0);
    }

    #[test]
    fn slow_log_admits_only_above_threshold() {
        let log = SlowQueryLog::new(8, Duration::from_millis(10));
        assert!(!log.offer(&trace("fast", Duration::from_millis(1))));
        assert!(log.offer(&trace("slow", Duration::from_millis(50))));
        assert!(log.offer(&trace("edge", Duration::from_millis(10))), "threshold is inclusive");
        assert_eq!(log.len(), 2);

        log.set_threshold(Duration::ZERO);
        assert!(log.offer(&trace("any", Duration::ZERO)));
        assert_eq!(log.threshold(), Duration::ZERO);
    }
}
