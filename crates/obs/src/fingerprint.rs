//! Per-fingerprint rolling query statistics.
//!
//! A *fingerprint* is a stable 64-bit digest of a normalized statement
//! (literals replaced by `?`, case and whitespace folded — the
//! normalization itself lives next to the tokenizer, in
//! `jackpine-sqlmini`; this crate only hashes and aggregates). The
//! [`QueryStatsTable`] keeps rolling statistics per fingerprint — call
//! count, error count, cumulative rows and a latency histogram — in a
//! bounded top-K table, the way `pg_stat_statements` does.

use crate::histogram::HistogramSnapshot;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// FNV-1a 64-bit digest of a normalized statement. Stable across runs
/// and platforms; pinned by the fingerprint property suite.
pub fn digest(normalized: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in normalized.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rolling statistics for one statement shape.
#[derive(Clone, Debug)]
pub struct FingerprintStats {
    /// The fingerprint digest ([`digest`] of `normalized`).
    pub digest: u64,
    /// The normalized statement text (literals as `?`), truncated to
    /// [`QueryStatsTable::NORMALIZED_TEXT_CAP`] bytes.
    pub normalized: String,
    /// Successful executions.
    pub count: u64,
    /// Failed executions (parse, plan or runtime errors).
    pub errors: u64,
    /// Cumulative rows returned by successful executions.
    pub rows: u64,
    /// Latency histogram over successful executions, nanoseconds.
    pub latency_ns: HistogramSnapshot,
}

impl FingerprintStats {
    fn new(digest: u64, normalized: &str) -> FingerprintStats {
        let mut text = normalized;
        if text.len() > QueryStatsTable::NORMALIZED_TEXT_CAP {
            let mut cut = QueryStatsTable::NORMALIZED_TEXT_CAP;
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text = &text[..cut];
        }
        FingerprintStats {
            digest,
            normalized: text.to_string(),
            count: 0,
            errors: 0,
            rows: 0,
            latency_ns: HistogramSnapshot::empty(),
        }
    }

    /// Total executions, successful or not.
    pub fn executions(&self) -> u64 {
        self.count + self.errors
    }

    /// Mean successful-execution latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.latency_ns.mean() as f64 / 1e6
    }

    /// p95 latency in milliseconds (bucket upper bound, ≤ 2× true).
    pub fn p95_ms(&self) -> f64 {
        self.latency_ns.quantile(0.95) as f64 / 1e6
    }
}

/// A bounded map from fingerprint digest to rolling stats. When full, a
/// new fingerprint evicts the least-executed existing entry, so the
/// table converges on the top-K statement shapes by execution count
/// (one-off shapes churn through the cold end; heavy hitters stay).
#[derive(Debug)]
pub struct QueryStatsTable {
    capacity: usize,
    inner: Mutex<HashMap<u64, FingerprintStats>>,
}

impl QueryStatsTable {
    /// Longest normalized text retained per fingerprint.
    pub const NORMALIZED_TEXT_CAP: usize = 512;

    /// A table tracking at most `capacity` fingerprints; `capacity` must
    /// be non-zero.
    pub fn new(capacity: usize) -> QueryStatsTable {
        assert!(capacity > 0, "a query stats table needs a non-zero capacity");
        QueryStatsTable { capacity, inner: Mutex::new(HashMap::new()) }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, FingerprintStats>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one execution of the statement shape `normalized` (whose
    /// digest the caller already computed, typically once per statement).
    pub fn record(&self, digest: u64, normalized: &str, total: Duration, rows: u64, error: bool) {
        let mut map = self.lock();
        if !map.contains_key(&digest) && map.len() >= self.capacity {
            // Evict the least-executed entry (ties broken by digest so
            // eviction is deterministic).
            if let Some(&coldest) =
                map.iter().min_by_key(|(d, s)| (s.executions(), **d)).map(|(d, _)| d)
            {
                map.remove(&coldest);
            }
        }
        let entry = map.entry(digest).or_insert_with(|| FingerprintStats::new(digest, normalized));
        if error {
            entry.errors += 1;
        } else {
            entry.count += 1;
            entry.rows += rows;
            entry.latency_ns.record(total.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// Distinct fingerprints currently tracked.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no fingerprints are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The top `k` fingerprints by execution count (ties broken by
    /// digest for deterministic output).
    pub fn top(&self, k: usize) -> Vec<FingerprintStats> {
        let mut all: Vec<FingerprintStats> = self.lock().values().cloned().collect();
        all.sort_by(|a, b| {
            b.executions().cmp(&a.executions()).then_with(|| a.digest.cmp(&b.digest))
        });
        all.truncate(k);
        all
    }

    /// Forgets every fingerprint.
    pub fn clear(&self) {
        self.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_pinned() {
        // Frozen: changing the hash silently invalidates stored
        // fingerprints, so the constant is asserted verbatim.
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("select * from t where id = ?"), digest("select * from t where id = ?"));
        assert_ne!(digest("select a from t"), digest("select b from t"));
    }

    #[test]
    fn records_and_ranks() {
        let t = QueryStatsTable::new(16);
        for i in 0..5 {
            t.record(1, "select ?", Duration::from_millis(2), 10, false);
            if i < 2 {
                t.record(2, "insert ?", Duration::from_millis(1), 1, false);
            }
        }
        t.record(2, "insert ?", Duration::from_millis(1), 0, true);
        let top = t.top(10);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].digest, 1);
        assert_eq!(top[0].count, 5);
        assert_eq!(top[0].rows, 50);
        assert_eq!(top[1].errors, 1);
        assert_eq!(top[1].executions(), 3);
        assert!(top[0].mean_ms() > 0.0);
    }

    #[test]
    fn full_table_evicts_least_executed() {
        let t = QueryStatsTable::new(2);
        t.record(1, "hot", Duration::ZERO, 0, false);
        t.record(1, "hot", Duration::ZERO, 0, false);
        t.record(2, "warm", Duration::ZERO, 0, false);
        t.record(3, "new", Duration::ZERO, 0, false); // evicts digest 2
        assert_eq!(t.len(), 2);
        let digests: Vec<u64> = t.top(10).iter().map(|s| s.digest).collect();
        assert!(digests.contains(&1) && digests.contains(&3), "got {digests:?}");
    }

    #[test]
    fn long_normalized_text_truncated() {
        let t = QueryStatsTable::new(4);
        let long = "x".repeat(2 * QueryStatsTable::NORMALIZED_TEXT_CAP);
        t.record(9, &long, Duration::ZERO, 0, false);
        assert_eq!(t.top(1)[0].normalized.len(), QueryStatsTable::NORMALIZED_TEXT_CAP);
    }
}
