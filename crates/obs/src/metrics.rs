//! The engine metrics registry: every counter and histogram the engine
//! exposes, under canonical names, with snapshot/delta support.
//!
//! Counters fall into two classes, and the split is load-bearing for
//! tests:
//!
//! * **deterministic** — a function of the statement sequence alone,
//!   identical at any intra-query worker count (index probes, candidate
//!   and hit counts, heap rows fetched, WAL appends). The parallel
//!   equivalence suite asserts exact equality of these across worker
//!   counts.
//! * **scheduling-dependent** — plan-cache, morsel, batch and
//!   group-commit counts, lock waits and stage timings, which
//!   legitimately vary run to run.

use crate::counter::Counter;
use crate::histogram::{Histogram, HistogramSnapshot};
use std::time::Duration;

/// The stages a query passes through, in pipeline order. The order here
/// is the canonical render/snapshot order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// SQL text → AST.
    Parse,
    /// AST → plan tree (or plan-cache lookup).
    Plan,
    /// Spatial/ordered index window or nearest probe.
    IndexProbe,
    /// Vectorized envelope prefilter over packed MBR columns (the
    /// batch executor's branch-free reject pass before refinement).
    Prefilter,
    /// Exact predicate refinement (DE-9IM and friends) over candidates.
    Refine,
    /// Row materialization of the final result set.
    Materialize,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Parse,
        Stage::Plan,
        Stage::IndexProbe,
        Stage::Prefilter,
        Stage::Refine,
        Stage::Materialize,
    ];

    /// Stable snake_case name used in snapshots and `jp_*` columns.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Plan => "plan",
            Stage::IndexProbe => "index_probe",
            Stage::Prefilter => "prefilter",
            Stage::Refine => "refine",
            Stage::Materialize => "materialize",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The sites at which a statement can wait on the exclusive writer txn
/// lock. Per-site histograms attribute contention to the statement kind
/// that suffered it, the way `pg_stat_activity` wait events do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnSite {
    /// `INSERT` row batches.
    Insert,
    /// `DELETE ... WHERE`.
    Delete,
    /// `UPDATE ... WHERE`.
    Update,
    /// DDL: create/drop table or index.
    Ddl,
    /// Explicit checkpoints.
    Checkpoint,
}

impl TxnSite {
    /// All sites, in the canonical snapshot order.
    pub const ALL: [TxnSite; 5] =
        [TxnSite::Insert, TxnSite::Delete, TxnSite::Update, TxnSite::Ddl, TxnSite::Checkpoint];

    /// Stable wait-histogram name used in snapshots and `jp_metrics`.
    pub fn wait_name(self) -> &'static str {
        match self {
            TxnSite::Insert => "txn_wait_insert_ns",
            TxnSite::Delete => "txn_wait_delete_ns",
            TxnSite::Update => "txn_wait_update_ns",
            TxnSite::Ddl => "txn_wait_ddl_ns",
            TxnSite::Checkpoint => "txn_wait_checkpoint_ns",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Canonical counter names, in snapshot order: deterministic counters
/// first, scheduling-dependent ones after.
pub const DETERMINISTIC_COUNTERS: [&str; 14] = [
    "queries",
    "index_probes",
    "index_candidates",
    "index_nodes_visited",
    "refine_candidates",
    "refine_hits",
    "refine_short_circuits",
    "prefilter_rejects",
    "selvec_survivors",
    "prepared_cache_hits",
    "prepared_cache_misses",
    "heap_rows_fetched",
    "wal_appends",
    "wal_fsyncs",
];

/// Counters whose value depends on scheduling (worker count, cache
/// state), snapshot-ordered after the deterministic set.
pub const SCHEDULING_COUNTERS: [&str; 6] = [
    "plan_cache_hits",
    "plan_cache_misses",
    "morsels_dispatched",
    "batches_dispatched",
    "group_commit_batches",
    "group_commit_size",
];

/// Canonical gauge names, in snapshot order. Gauges report current
/// levels (not cumulative events) of engine state this registry does not
/// hold: the engine computes them when a whole snapshot is read, and a
/// per-statement snapshot carries none, so delta arithmetic never applies
/// to them.
pub const GAUGES: [&str; 3] =
    ["active_snapshots", "pending_reclaim_rows", "oldest_snapshot_age_us"];

/// Canonical wait-histogram names, in snapshot order: the per-site
/// writer-lock waits, then the commit-pipeline follower wait, then the
/// snapshot-pin lifetime.
pub const WAIT_HISTOGRAMS: [&str; 7] = [
    "txn_wait_insert_ns",
    "txn_wait_delete_ns",
    "txn_wait_update_ns",
    "txn_wait_ddl_ns",
    "txn_wait_checkpoint_ns",
    "commit_follower_wait_us",
    "snapshot_pin_ns",
];

/// All counters and histograms the engine maintains. One instance per
/// `SpatialDb`, shared by reference with every subsystem that records.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Statements executed (of any kind).
    pub queries: Counter,
    /// Index probe calls (window, ordered range, nearest).
    pub index_probes: Counter,
    /// Candidate rows returned by index probes.
    pub index_candidates: Counter,
    /// Index tree nodes / grid cells inspected while probing.
    pub index_nodes_visited: Counter,
    /// Rows entering exact-predicate refinement.
    pub refine_candidates: Counter,
    /// Rows surviving refinement.
    pub refine_hits: Counter,
    /// Refine decisions made by a prepared-geometry short-circuit
    /// (envelope reject / shared-point accept) without a full DE-9IM
    /// matrix.
    pub refine_short_circuits: Counter,
    /// Rows decided by the vectorized envelope prefilter (no refine
    /// needed). Zero for filters the generic evaluator runs.
    pub prefilter_rejects: Counter,
    /// Selection-vector entries that survived the prefilter and entered
    /// batch refinement. `prefilter_rejects + selvec_survivors ==
    /// refine_candidates` on vectorized filters.
    pub selvec_survivors: Counter,
    /// Geometry preparations the vectorized refine reused within a batch
    /// (a row column already prepared for an earlier pair of the batch).
    pub prepared_cache_hits: Counter,
    /// Geometry preparations the vectorized refine built.
    pub prepared_cache_misses: Counter,
    /// Heap rows fetched during scans and candidate lookups.
    pub heap_rows_fetched: Counter,
    /// WAL records appended.
    pub wal_appends: Counter,
    /// WAL fsync (`sync_data`) calls.
    pub wal_fsyncs: Counter,
    /// Plan-cache hits.
    pub plan_cache_hits: Counter,
    /// Plan-cache misses (fresh plans).
    pub plan_cache_misses: Counter,
    /// Morsels run by parallel workers (serial execution runs none).
    pub morsels_dispatched: Counter,
    /// Batches processed by the vectorized filter path.
    pub batches_dispatched: Counter,
    /// Fsync batches flushed by the group-commit pipeline (one leader
    /// `sync_data` per batch).
    pub group_commit_batches: Counter,
    /// Commits covered by those batches; `group_commit_size /
    /// group_commit_batches` is the mean batch size, and the pipeline
    /// guarantees at most one fsync per batch.
    pub group_commit_size: Counter,
    /// Microseconds each committing session waited for its group-commit
    /// batch to reach disk (queue wait + shared fsync).
    pub commit_wait_us: Histogram,
    /// Microseconds a committing session spent blocked as a group-commit
    /// *follower* (waiting for a leader's fsync to cover its ticket) —
    /// a subset of `commit_wait_us` isolating pure pipeline queueing.
    pub commit_follower_wait_us: Histogram,
    /// Nanoseconds each snapshot pin lived, recorded when the last
    /// reader of a generation releases it. Long pins are what hold back
    /// the vacuum horizon.
    pub snapshot_pin_ns: Histogram,
    /// Self-time per stage, nanoseconds (indexed by `Stage`).
    stage_ns: [Histogram; 6],
    /// Writer txn-lock wait per site, nanoseconds (indexed by `TxnSite`).
    txn_wait_ns: [Histogram; 5],
}

impl EngineMetrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one self-time sample for a stage.
    #[inline]
    pub fn record_stage(&self, stage: Stage, elapsed: Duration) {
        self.stage_ns[stage.index()].record(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one writer txn-lock wait at `site`.
    #[inline]
    pub fn record_txn_wait(&self, site: TxnSite, waited: Duration) {
        self.txn_wait_ns[site.index()].record(waited.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records the lifetime of one released snapshot pin.
    #[inline]
    pub fn record_snapshot_pin(&self, lived: Duration) {
        self.snapshot_pin_ns.record(lived.as_nanos().min(u64::MAX as u128) as u64);
    }

    fn counter(&self, name: &str) -> &Counter {
        match name {
            "queries" => &self.queries,
            "index_probes" => &self.index_probes,
            "index_candidates" => &self.index_candidates,
            "index_nodes_visited" => &self.index_nodes_visited,
            "refine_candidates" => &self.refine_candidates,
            "refine_hits" => &self.refine_hits,
            "refine_short_circuits" => &self.refine_short_circuits,
            "prefilter_rejects" => &self.prefilter_rejects,
            "selvec_survivors" => &self.selvec_survivors,
            "prepared_cache_hits" => &self.prepared_cache_hits,
            "prepared_cache_misses" => &self.prepared_cache_misses,
            "heap_rows_fetched" => &self.heap_rows_fetched,
            "wal_appends" => &self.wal_appends,
            "wal_fsyncs" => &self.wal_fsyncs,
            "plan_cache_hits" => &self.plan_cache_hits,
            "plan_cache_misses" => &self.plan_cache_misses,
            "morsels_dispatched" => &self.morsels_dispatched,
            "batches_dispatched" => &self.batches_dispatched,
            "group_commit_batches" => &self.group_commit_batches,
            "group_commit_size" => &self.group_commit_size,
            other => panic!("unknown counter {other:?}"),
        }
    }

    /// A point-in-time copy of every counter and histogram, in canonical
    /// order, with no gauge (the engine adds them). Safe to call from any
    /// thread at any time.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut waits = Vec::with_capacity(WAIT_HISTOGRAMS.len());
        for site in TxnSite::ALL {
            waits.push((site.wait_name(), self.txn_wait_ns[site.index()].snapshot()));
        }
        waits.push(("commit_follower_wait_us", self.commit_follower_wait_us.snapshot()));
        waits.push(("snapshot_pin_ns", self.snapshot_pin_ns.snapshot()));
        let mut snap = self.query_snapshot();
        snap.waits = waits;
        snap
    }

    /// The per-query subset of [`Self::snapshot`]: counters, the stage
    /// histograms and the commit wait, *without* the engine-wide
    /// wait-state histograms. This is what the recorded-statement path
    /// snapshots twice per query — skipping the seven wait histograms
    /// (each a 64-bucket copy) keeps the always-on recording cost inside
    /// the 2% overhead budget; wait states are engine-level series
    /// (`jp_metrics`), not per-query deltas.
    pub fn query_snapshot(&self) -> MetricsSnapshot {
        let mut counters =
            Vec::with_capacity(DETERMINISTIC_COUNTERS.len() + SCHEDULING_COUNTERS.len());
        for name in DETERMINISTIC_COUNTERS.iter().chain(SCHEDULING_COUNTERS.iter()) {
            counters.push((*name, self.counter(name).get()));
        }
        MetricsSnapshot {
            counters,
            gauges: Vec::new(),
            stages: Stage::ALL.map(|s| (s, self.stage_ns[s.index()].snapshot())),
            waits: Vec::new(),
            commit_wait_us: self.commit_wait_us.snapshot(),
        }
    }
}

/// A point-in-time copy of an [`EngineMetrics`], used both as the
/// machine-readable API surface and as the subtrahend for per-query
/// deltas.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// `(name, value)` in canonical order: [`DETERMINISTIC_COUNTERS`]
    /// then [`SCHEDULING_COUNTERS`].
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, level)` point-in-time gauges in [`GAUGES`] order, or none
    /// (a per-statement snapshot). Gauges are levels, not event counts:
    /// `delta_since` carries the *later* snapshot's values through
    /// unchanged.
    pub gauges: Vec<(&'static str, u64)>,
    /// Per-stage self-time histograms in [`Stage::ALL`] order.
    pub stages: [(Stage, HistogramSnapshot); 6],
    /// `(name, histogram)` wait-state histograms in [`WAIT_HISTOGRAMS`]
    /// order: per-site txn-lock waits, commit follower waits, snapshot
    /// pin lifetimes.
    pub waits: Vec<(&'static str, HistogramSnapshot)>,
    /// Group-commit wait histogram (microseconds per committed session).
    pub commit_wait_us: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Value of a counter by canonical name; panics on unknown names so
    /// golden tests catch renames.
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_opt(name).unwrap_or_else(|| panic!("unknown counter {name:?}"))
    }

    /// Value of a counter by name, `None` when this snapshot does not
    /// carry it — the lenient lookup `delta_since` uses so snapshots
    /// taken across a counter-vocabulary change never panic.
    pub fn counter_opt(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Level of a gauge by canonical name; panics on unknown names.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("unknown gauge {name:?}"))
    }

    /// A wait-state histogram by canonical name; panics on unknown names.
    pub fn wait(&self, name: &str) -> &HistogramSnapshot {
        self.wait_opt(name).unwrap_or_else(|| panic!("unknown wait histogram {name:?}"))
    }

    fn wait_opt(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.waits.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// The worker-count-invariant subset, in canonical order. Two runs
    /// of the same statement sequence must produce equal vectors here
    /// regardless of `workers`: a hook for `tests/equivalence.rs`.
    pub fn deterministic_counters(&self) -> Vec<(&'static str, u64)> {
        self.counters.iter().filter(|(n, _)| DETERMINISTIC_COUNTERS.contains(n)).copied().collect()
    }

    /// Turns this snapshot, taken earlier, into the delta from it to
    /// `now`: the numbers of `now.delta_since(self)`, written into this
    /// snapshot's own storage, so a record built before a statement ran
    /// needs no new allocation once it has.
    pub fn rebase_to(&mut self, now: &MetricsSnapshot) {
        let delta = now.delta_since(self);
        self.counters.clone_from(&delta.counters);
        self.gauges.clone_from(&delta.gauges);
        self.stages = delta.stages;
        self.waits.clone_from(&delta.waits);
        self.commit_wait_us = delta.commit_wait_us;
    }

    /// Difference against an earlier snapshot, saturating per entry.
    ///
    /// The two snapshots' name sets may differ (a counter or wait
    /// histogram introduced after `earlier` was taken): names missing
    /// from `earlier` are treated as zero there, so they appear in the
    /// delta with their full later value — never a panic or underflow.
    /// Gauges are levels, not events, so the delta carries the later
    /// snapshot's gauge values through unchanged.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, v)| (*name, v.saturating_sub(earlier.counter_opt(name).unwrap_or(0))))
                .collect(),
            gauges: self.gauges.clone(),
            stages: Stage::ALL.map(|s| {
                let now = &self.stages[s.index()].1;
                let then = &earlier.stages[s.index()].1;
                (s, now.delta_since(then))
            }),
            waits: self
                .waits
                .iter()
                .map(|(name, h)| match earlier.wait_opt(name) {
                    Some(then) => (*name, h.delta_since(then)),
                    None => (*name, h.clone()),
                })
                .collect(),
            commit_wait_us: self.commit_wait_us.delta_since(&earlier.commit_wait_us),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_order_is_canonical() {
        let m = EngineMetrics::new();
        let names: Vec<&str> = m.snapshot().counters.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> =
            DETERMINISTIC_COUNTERS.iter().chain(SCHEDULING_COUNTERS.iter()).copied().collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn delta_counts_only_new_events() {
        let m = EngineMetrics::new();
        m.queries.incr();
        m.index_probes.add(3);
        let before = m.snapshot();
        m.index_probes.add(2);
        m.refine_hits.add(7);
        let delta = m.snapshot().delta_since(&before);
        assert_eq!(delta.counter("queries"), 0);
        assert_eq!(delta.counter("index_probes"), 2);
        assert_eq!(delta.counter("refine_hits"), 7);
    }

    #[test]
    fn rebase_to_writes_the_delta_into_the_earlier_snapshot() {
        let m = EngineMetrics::new();
        m.index_probes.add(3);
        let before = m.query_snapshot();
        let mut rebased = before.clone();
        let counters_at = rebased.counters.as_ptr();
        m.index_probes.add(2);
        m.record_stage(Stage::Refine, Duration::from_nanos(1500));
        let now = m.query_snapshot();
        rebased.rebase_to(&now);
        let delta = now.delta_since(&before);
        assert_eq!(rebased.counters, delta.counters);
        assert_eq!(rebased.stages, delta.stages);
        assert_eq!(rebased.counter("index_probes"), 2);
        assert_eq!(rebased.counters.as_ptr(), counters_at, "rebased in its own storage");
    }

    #[test]
    fn stage_record_round_trips() {
        let m = EngineMetrics::new();
        m.record_stage(Stage::Refine, Duration::from_nanos(1500));
        let snap = m.snapshot();
        let refine = &snap.stages[Stage::Refine as usize].1;
        assert_eq!(refine.count, 1);
        assert_eq!(refine.sum, 1500);
    }

    #[test]
    fn deterministic_subset_excludes_scheduling() {
        let m = EngineMetrics::new();
        let det = m.snapshot().deterministic_counters();
        assert_eq!(det.len(), DETERMINISTIC_COUNTERS.len());
        assert!(det.iter().all(|(n, _)| !SCHEDULING_COUNTERS.contains(n)));
    }

    /// A counter introduced after the earlier snapshot was taken (e.g. a
    /// snapshot persisted by an older binary) must surface in the delta
    /// with its full later value — never a panic, never an underflow.
    #[test]
    fn delta_tolerates_counters_missing_from_earlier_snapshot() {
        let m = EngineMetrics::new();
        m.queries.add(3);
        m.group_commit_batches.add(2);
        let mut earlier = m.snapshot();
        // Simulate an older counter vocabulary: the earlier snapshot
        // never heard of group_commit_batches (or any wait histogram).
        earlier.counters.retain(|(n, _)| *n != "group_commit_batches");
        earlier.waits.clear();
        m.queries.incr();
        m.record_txn_wait(TxnSite::Insert, Duration::from_nanos(500));
        let delta = m.snapshot().delta_since(&earlier);
        assert_eq!(delta.counter("queries"), 1, "shared counters still subtract");
        assert_eq!(
            delta.counter("group_commit_batches"),
            2,
            "missing-from-earlier counters appear with full value"
        );
        assert_eq!(delta.wait("txn_wait_insert_ns").count, 1);
        assert_eq!(delta.wait("txn_wait_insert_ns").sum, 500);
    }

    /// And the reverse skew: the earlier snapshot carries a counter the
    /// later one dropped. The delta simply omits it (the later vocabulary
    /// wins), with no panic on the extra name.
    #[test]
    fn delta_ignores_counters_dropped_from_later_snapshot() {
        let m = EngineMetrics::new();
        m.queries.incr();
        let earlier = m.snapshot();
        let mut later = m.snapshot();
        later.counters.retain(|(n, _)| *n != "wal_fsyncs");
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.counter_opt("wal_fsyncs"), None);
        assert_eq!(delta.counter("queries"), 0);
    }

    #[test]
    fn gauges_are_levels_not_deltas() {
        let m = EngineMetrics::new();
        let levels = |backlog, pins| {
            let mut snap = m.snapshot();
            snap.gauges = vec![
                ("active_snapshots", pins),
                ("pending_reclaim_rows", backlog),
                ("oldest_snapshot_age_us", 0),
            ];
            snap
        };
        let before = levels(10, 0);
        let delta = levels(4, 2).delta_since(&before);
        // A shrinking backlog must read 4, not a saturated 0.
        assert_eq!(delta.gauge("pending_reclaim_rows"), 4);
        assert_eq!(delta.gauge("active_snapshots"), 2);
        let names: Vec<&str> = delta.gauges.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, GAUGES.to_vec());
    }

    #[test]
    fn wait_histograms_record_per_site() {
        let m = EngineMetrics::new();
        m.record_txn_wait(TxnSite::Delete, Duration::from_nanos(300));
        m.record_txn_wait(TxnSite::Delete, Duration::from_nanos(700));
        m.record_snapshot_pin(Duration::from_nanos(900));
        let snap = m.snapshot();
        let names: Vec<&str> = snap.waits.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, WAIT_HISTOGRAMS.to_vec());
        assert_eq!(snap.wait("txn_wait_delete_ns").count, 2);
        assert_eq!(snap.wait("txn_wait_delete_ns").sum, 1000);
        assert_eq!(snap.wait("txn_wait_insert_ns").count, 0);
        assert_eq!(snap.wait("snapshot_pin_ns").max, 900);
    }
}
