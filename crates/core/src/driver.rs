//! The workload driver: repeated, timed query execution with warm or
//! cold cache behaviour.

use crate::stats::Stats;
use crate::{ctx, Result};
use jackpine_engine::SpatialConnector;
use std::time::{Duration, Instant};

/// Whether caches persist between repetitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Warm-up runs first; caches persist across repetitions.
    Warm,
    /// Every repetition starts from evicted caches (buffer-pool-miss
    /// behaviour of the paper's cold runs).
    Cold,
}

/// One benchmarked query's outcome.
#[derive(Clone, Debug)]
pub struct QueryMeasurement {
    /// Query label (e.g. `T03 Crosses line/polygon`).
    pub label: String,
    /// The SQL that ran.
    pub sql: String,
    /// Latency statistics over the repetitions.
    pub stats: Stats,
    /// Rows returned (from the last repetition).
    pub rows: usize,
    /// The scalar result if the query returns one (for result validation
    /// across engines).
    pub scalar: Option<String>,
}

/// Driver configuration.
#[derive(Clone, Copy, Debug)]
pub struct Driver {
    /// Timed repetitions per query.
    pub repetitions: usize,
    /// Untimed warm-up executions (ignored in cold mode).
    pub warmup: usize,
    /// Cache behaviour.
    pub cache_mode: CacheMode,
}

impl Default for Driver {
    fn default() -> Self {
        Driver { repetitions: 5, warmup: 1, cache_mode: CacheMode::Warm }
    }
}

impl Driver {
    /// Runs one query to completion `repetitions` times and reports
    /// statistics.
    pub fn run_query(
        &self,
        conn: &dyn SpatialConnector,
        label: &str,
        sql: &str,
    ) -> Result<QueryMeasurement> {
        let context = || format!("query {label}");
        if self.cache_mode == CacheMode::Warm {
            for _ in 0..self.warmup {
                ctx(conn.execute(sql), context())?;
            }
        }
        let mut samples: Vec<Duration> = Vec::with_capacity(self.repetitions);
        let mut rows = 0;
        let mut scalar = None;
        for _ in 0..self.repetitions.max(1) {
            if self.cache_mode == CacheMode::Cold {
                conn.clear_caches();
            }
            let start = Instant::now();
            let result = ctx(conn.execute(sql), context())?;
            samples.push(start.elapsed());
            rows = result.len();
            scalar = result.scalar().map(|v| v.to_string());
        }
        Ok(QueryMeasurement {
            label: label.to_string(),
            sql: sql.to_string(),
            stats: Stats::from_durations(&samples),
            rows,
            scalar,
        })
    }

    /// Runs a sequence of `(label, sql)` steps once each, timing the whole
    /// sequence; used by the macro scenarios where throughput over a
    /// session matters more than per-query statistics.
    pub fn run_session(
        &self,
        conn: &dyn SpatialConnector,
        steps: &[(String, String)],
    ) -> Result<SessionMeasurement> {
        if self.cache_mode == CacheMode::Cold {
            conn.clear_caches();
        }
        let mut per_step: Vec<(String, Duration, usize)> = Vec::with_capacity(steps.len());
        let start = Instant::now();
        for (label, sql) in steps {
            let qstart = Instant::now();
            let result = ctx(conn.execute(sql), format!("session step {label}"))?;
            per_step.push((label.clone(), qstart.elapsed(), result.len()));
        }
        Ok(SessionMeasurement { total: start.elapsed(), per_step })
    }
}

/// Timing of one macro-scenario session.
#[derive(Clone, Debug)]
pub struct SessionMeasurement {
    /// Wall time of the whole session.
    pub total: Duration,
    /// `(step label, elapsed, rows)` per query.
    pub per_step: Vec<(String, Duration, usize)>,
}

impl SessionMeasurement {
    /// Queries per second over the session.
    pub fn throughput_qps(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.per_step.len() as f64 / self.total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jackpine_engine::{EngineProfile, SpatialDb};
    use std::sync::Arc;

    fn conn() -> Arc<SpatialDb> {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE t (id BIGINT)").unwrap();
        for i in 0..50 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        db
    }

    #[test]
    fn measures_repetitions() {
        let db = conn();
        let d = Driver { repetitions: 3, warmup: 1, cache_mode: CacheMode::Warm };
        let m = d.run_query(&db, "count", "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(m.stats.n, 3);
        assert_eq!(m.rows, 1);
        assert_eq!(m.scalar.as_deref(), Some("50"));
    }

    #[test]
    fn cold_mode_runs() {
        let db = conn();
        let d = Driver { repetitions: 2, warmup: 0, cache_mode: CacheMode::Cold };
        // A projection fetches its rows (a COUNT(*) would fetch none).
        let m = d.run_query(&db, "ids", "SELECT id FROM t").unwrap();
        assert_eq!(m.stats.n, 2);
        let stats = db.table("t").unwrap().heap.stats();
        assert!(stats.cache_misses >= 50, "cold repetitions must decode rows");
    }

    #[test]
    fn session_throughput() {
        let db = conn();
        let d = Driver::default();
        let steps = vec![
            ("a".to_string(), "SELECT COUNT(*) FROM t".to_string()),
            ("b".to_string(), "SELECT COUNT(*) FROM t WHERE id > 10".to_string()),
        ];
        let m = d.run_session(&db, &steps).unwrap();
        assert_eq!(m.per_step.len(), 2);
        assert!(m.throughput_qps() > 0.0);
    }

    #[test]
    fn errors_carry_context() {
        let db = conn();
        let d = Driver::default();
        let err = d.run_query(&db, "bad", "SELECT * FROM missing").unwrap_err();
        assert!(err.to_string().contains("bad"));
    }
}
