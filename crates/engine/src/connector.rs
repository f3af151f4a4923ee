//! The portability layer: Jackpine drives any backend through this trait,
//! the way the original harness drove any database with a JDBC driver.
//! It varies exactly what the paper varies through that layer — the
//! statement, spatial index on/off, cold/warm cache — and nothing else;
//! engine-specific tuning and introspection are inherent methods of the
//! engine ([`SpatialDb`]), not part of the comparison surface.
//!
//! A connector is `Send + Sync` and every method is `&self`, so benchmark
//! client threads share one connector.

use crate::{EngineProfile, Result, SpatialDb};
use jackpine_sqlmini::functions::Func;
use jackpine_sqlmini::ResultSet;
use std::sync::Arc;

/// A benchmarkable spatial database connection.
///
/// The benchmark core is written exclusively against this trait; adding a
/// new system to the comparison means implementing these five methods.
pub trait SpatialConnector: Send + Sync {
    /// Short system name used in reports.
    fn name(&self) -> String;

    /// Executes one SQL statement.
    fn execute(&self, sql: &str) -> Result<ResultSet>;

    /// Whether the system supports a given spatial function (the
    /// feature-matrix probe).
    fn supports_function(&self, function: &str) -> bool;

    /// Drops whatever caches the system keeps, to produce cold-cache runs.
    fn clear_caches(&self);

    /// Turns use of spatial indexes on or off, where the system allows it.
    fn set_use_spatial_index(&self, on: bool);
}

impl SpatialConnector for Arc<SpatialDb> {
    fn name(&self) -> String {
        self.profile().name().to_string()
    }

    fn execute(&self, sql: &str) -> Result<ResultSet> {
        SpatialDb::execute(self, sql)
    }

    fn supports_function(&self, function: &str) -> bool {
        Func::from_name(function).is_some_and(|f| f.available_in(self.profile().function_mode()))
    }

    fn clear_caches(&self) {
        SpatialDb::clear_caches(self)
    }

    fn set_use_spatial_index(&self, on: bool) {
        SpatialDb::set_use_spatial_index(self, on)
    }
}

/// Convenience: a ready connection for each engine profile.
pub fn all_profiles() -> Vec<Arc<SpatialDb>> {
    EngineProfile::ALL.iter().map(|p| Arc::new(SpatialDb::new(*p))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connector_surface() {
        let db = Arc::new(SpatialDb::new(EngineProfile::MbrOnly));
        let conn: &dyn SpatialConnector = &db;
        assert_eq!(conn.name(), "mbr-only");
        assert!(!conn.supports_function("ST_Buffer"));
        assert!(conn.supports_function("ST_Intersects"));
        assert!(conn.supports_function("mbrIntersects"));
        // A name no function has is supported by no profile.
        for db in all_profiles() {
            assert!(!(&db as &dyn SpatialConnector).supports_function("ST_NoSuch"));
        }
        conn.execute("CREATE TABLE t (id BIGINT)").unwrap();
        conn.execute("INSERT INTO t VALUES (1)").unwrap();
        let r = conn.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], jackpine_storage::Value::Int(1));
        conn.clear_caches();
        conn.set_use_spatial_index(false);
    }

    #[test]
    fn three_profiles() {
        let all = all_profiles();
        assert_eq!(all.len(), 3);
        let names: Vec<String> = all.iter().map(|d| d.name()).collect();
        assert_eq!(names, vec!["exact-rtree", "mbr-only", "exact-grid"]);
    }
}
