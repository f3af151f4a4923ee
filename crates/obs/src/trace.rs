//! Span-style per-query traces.
//!
//! A [`QueryTrace`] is the per-query view of the metrics registry: the
//! engine snapshots [`EngineMetrics`](crate::EngineMetrics) before and
//! after a statement and hands the delta here, together with the SQL
//! text and wall-clock total. The trace renders as `EXPLAIN ANALYZE`-
//! style text, which names the wall time no stage accounts for.

use crate::metrics::MetricsSnapshot;
use std::time::Duration;

/// Everything observed while executing one statement.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// The statement, verbatim.
    pub sql: String,
    /// Wall-clock execution time, including parse and plan.
    pub total: Duration,
    /// Rows in the final result set.
    pub rows: usize,
    /// Metrics delta attributable to this statement. Stage entries with
    /// zero samples are stages the query never entered.
    pub delta: MetricsSnapshot,
}

impl QueryTrace {
    /// Builds a trace from a before/after metrics delta.
    pub fn new(sql: &str, total: Duration, rows: usize, delta: MetricsSnapshot) -> Self {
        QueryTrace { sql: sql.to_string(), total, rows, delta }
    }

    /// Names of the stages this query actually passed through, in
    /// pipeline order: a hook for the golden traces of
    /// `tests/observability.rs`.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.delta.stages.iter().filter(|(_, h)| h.count > 0).map(|(s, _)| s.name()).collect()
    }

    /// Total self-time recorded for a stage, zero if never entered.
    pub fn stage_ns(&self, name: &str) -> u64 {
        self.delta.stages.iter().find(|(s, _)| s.name() == name).map(|(_, h)| h.sum).unwrap_or(0)
    }

    /// Shorthand for a counter in the delta.
    pub fn counter(&self, name: &str) -> u64 {
        self.delta.counter(name)
    }

    /// Wall time charged to no stage: `total` minus the stage self-times
    /// minus the commit wait, zero when those exceed `total` (stage
    /// times summed across parallel workers overlap in wall time).
    pub fn unaccounted(&self) -> Duration {
        Duration::from_nanos(duration_ns(self.total).saturating_sub(self.accounted_ns()))
    }

    /// Stage self-times plus commit wait, nanoseconds.
    fn accounted_ns(&self) -> u64 {
        let stages = self.delta.stages.iter().fold(0u64, |sum, (_, h)| sum.saturating_add(h.sum));
        stages.saturating_add(self.delta.commit_wait_us.sum.saturating_mul(1_000))
    }

    /// `EXPLAIN ANALYZE`-style rendering: one line per stage the query
    /// entered, the unaccounted remainder, then each non-zero counter.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "query: {}\ntotal: {:.3} ms, rows: {}\n",
            self.sql,
            self.total.as_secs_f64() * 1e3,
            self.rows
        ));
        for (stage, h) in &self.delta.stages {
            if h.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "  stage {:<12} {:>10.3} ms  ({} sample{})\n",
                stage.name(),
                h.sum as f64 / 1e6,
                h.count,
                if h.count == 1 { "" } else { "s" }
            ));
        }
        let (total_ns, accounted_ns) = (duration_ns(self.total), self.accounted_ns());
        let unaccounted_ns = total_ns.saturating_sub(accounted_ns);
        let share = if accounted_ns > total_ns {
            "stages overlap".to_string()
        } else {
            format!("{:.1} % of total", 100.0 * unaccounted_ns as f64 / total_ns.max(1) as f64)
        };
        out.push_str(&format!(
            "  {:<18} {:>10.3} ms  ({share})\n",
            "unaccounted",
            unaccounted_ns as f64 / 1e6
        ));
        // Index probe stats get a dedicated summary line so the SQL
        // surface (EXPLAIN ANALYZE) exposes the same detail as the
        // ProbeStats API: how many probes ran, how much of the tree they
        // touched, and how many candidates survived the filter step.
        let probes = self.counter("index_probes");
        if probes > 0 {
            out.push_str(&format!(
                "  index probes: {probes} ({} nodes visited, {} candidates)\n",
                self.counter("index_nodes_visited"),
                self.counter("index_candidates")
            ));
        }
        // Spatial-filter stats: how much of the refine input the
        // envelope rule decided outright, and how many rows went on to
        // exact refinement.
        let rejects = self.counter("prefilter_rejects");
        let survivors = self.counter("selvec_survivors");
        if rejects + survivors > 0 {
            out.push_str(&format!(
                "  prefilter: {rejects} of {} decided by MBR ({:.1}% reject rate), {survivors} refined\n",
                rejects + survivors,
                100.0 * rejects as f64 / (rejects + survivors) as f64
            ));
        }
        // Prepared-geometry stats mirror the index-probe summary: how
        // many preparations the refine built and reused within a run,
        // plus how many refine decisions short-circuited before a full
        // DE-9IM matrix.
        let built = self.counter("prepared_cache_misses");
        let reused = self.counter("prepared_cache_hits");
        if built + reused > 0 {
            out.push_str(&format!(
                "  prepared geometries: {built} built, {reused} reused, {} short-circuits\n",
                self.counter("refine_short_circuits")
            ));
        }
        for (name, v) in &self.delta.counters {
            if *v > 0 {
                out.push_str(&format!("  counter {:<20} {v}\n", name));
            }
        }
        // Group-commit stats for DML: how many fsync batches the
        // statement's commits rode, the mean batch size, and the
        // commit-wait distribution (quantiles are log2-bucket upper
        // bounds, like every histogram in this crate).
        let batches = self.counter("group_commit_batches");
        if batches > 0 {
            let size = self.counter("group_commit_size");
            let wait = &self.delta.commit_wait_us;
            out.push_str(&format!(
                "  group commit: {batches} batch{}, mean size {:.1}, commit wait p50 {} us / p99 {} us\n",
                if batches == 1 { "" } else { "es" },
                size as f64 / batches as f64,
                wait.quantile(0.5),
                wait.quantile(0.99)
            ));
        }
        out
    }
}

/// A duration in nanoseconds, saturating at `u64::MAX`.
pub(crate) fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{EngineMetrics, Stage};

    fn sample_trace() -> QueryTrace {
        let m = EngineMetrics::new();
        let before = m.snapshot();
        m.queries.incr();
        m.index_probes.incr();
        m.index_candidates.add(10);
        m.refine_candidates.add(10);
        m.refine_hits.add(4);
        m.record_stage(Stage::Parse, Duration::from_nanos(10_000));
        m.record_stage(Stage::Refine, Duration::from_nanos(250_000));
        QueryTrace::new("SELECT 1", Duration::from_millis(1), 4, m.snapshot().delta_since(&before))
    }

    #[test]
    fn stage_names_in_pipeline_order() {
        let t = sample_trace();
        assert_eq!(t.stage_names(), vec!["parse", "refine"]);
        assert_eq!(t.stage_ns("refine"), 250_000);
        assert_eq!(t.stage_ns("materialize"), 0);
    }

    #[test]
    fn render_mentions_stages_and_counters() {
        let t = sample_trace();
        let text = t.render();
        assert!(text.contains("stage parse"));
        assert!(text.contains("stage refine"));
        assert!(text.contains("counter index_probes"));
        assert!(text.contains("index probes: 1 (0 nodes visited, 10 candidates)"), "{text}");
        assert!(text.contains("rows: 4"));
    }

    #[test]
    fn render_includes_group_commit_stats_for_dml() {
        let m = EngineMetrics::new();
        let before = m.snapshot();
        m.queries.incr();
        m.group_commit_batches.incr();
        m.group_commit_size.add(3);
        m.commit_wait_us.record(120);
        let t = QueryTrace::new(
            "INSERT INTO t VALUES (1)",
            Duration::from_millis(1),
            0,
            m.snapshot().delta_since(&before),
        );
        let text = t.render();
        assert!(text.contains("group commit: 1 batch, mean size 3.0"), "{text}");
        assert!(text.contains("commit wait p50"), "{text}");
        assert!(text.contains("/ p99"), "{text}");
        // Read-only statements (no commits) keep the line out entirely.
        let quiet = sample_trace().render();
        assert!(!quiet.contains("group commit:"), "{quiet}");
        // The commit wait is accounted: 1 ms - 120 us = 880 us.
        assert_eq!(t.unaccounted(), Duration::from_micros(880));
    }

    #[test]
    fn unaccounted_is_total_minus_stages() {
        // 1 ms total, 10 us parse + 250 us refine.
        let t = sample_trace();
        assert_eq!(t.unaccounted(), Duration::from_micros(740));
        let text = t.render();
        assert!(text.contains("unaccounted             0.740 ms  (74.0 % of total)"), "{text}");

        // Stage times summed across workers can exceed the wall time.
        let overlapped = QueryTrace { total: Duration::from_micros(100), ..sample_trace() };
        assert_eq!(overlapped.unaccounted(), Duration::ZERO);
        let text = overlapped.render();
        assert!(text.contains("unaccounted             0.000 ms  (stages overlap)"), "{text}");
    }
}
