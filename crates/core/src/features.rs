//! The feature-support matrix (the paper's T2): which spatial predicates
//! and analysis functions each system under test provides.

use jackpine_engine::SpatialConnector;

/// Functions probed for the matrix, grouped as in the paper: the DE-9IM
/// predicates first, then the analysis functions.
pub const PROBED_FUNCTIONS: [&str; 24] = [
    "ST_Equals",
    "ST_Disjoint",
    "ST_Intersects",
    "ST_Touches",
    "ST_Crosses",
    "ST_Within",
    "ST_Contains",
    "ST_Overlaps",
    "ST_Relate",
    "ST_Area",
    "ST_Length",
    "ST_Dimension",
    "ST_Envelope",
    "ST_Boundary",
    "ST_Centroid",
    "ST_Buffer",
    "ST_ConvexHull",
    "ST_Union",
    "ST_Intersection",
    "ST_Distance",
    "ST_Simplify",
    "ST_DistanceSphere",
    "ST_LengthSphere",
    "ST_AreaSphere",
];

/// One engine's support row.
#[derive(Clone, Debug)]
pub struct FeatureRow {
    /// Engine name.
    pub engine: String,
    /// `(function, supported)` pairs in [`PROBED_FUNCTIONS`] order.
    pub support: Vec<(&'static str, bool)>,
}

impl FeatureRow {
    /// Number of supported functions: a hook for
    /// `tests/benchmark_smoke.rs`.
    pub fn supported_count(&self) -> usize {
        self.support.iter().filter(|(_, s)| *s).count()
    }
}

/// Probes every function on every connector.
pub fn feature_matrix(conns: &[&dyn SpatialConnector]) -> Vec<FeatureRow> {
    conns
        .iter()
        .map(|c| FeatureRow {
            engine: c.name(),
            support: PROBED_FUNCTIONS.iter().map(|f| (*f, c.supports_function(f))).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jackpine_engine::{EngineProfile, SpatialDb};
    use std::sync::Arc;

    #[test]
    fn matrix_reflects_profiles() {
        let dbs: Vec<Arc<SpatialDb>> =
            EngineProfile::ALL.iter().map(|p| Arc::new(SpatialDb::new(*p))).collect();
        let conns: Vec<&dyn SpatialConnector> =
            dbs.iter().map(|d| d as &dyn SpatialConnector).collect();
        let m = feature_matrix(&conns);
        assert_eq!(m.len(), 3);
        let exact = &m[0];
        let mbr = &m[1];
        assert_eq!(exact.supported_count(), PROBED_FUNCTIONS.len());
        assert!(mbr.supported_count() < PROBED_FUNCTIONS.len());
        // The specific paper-era gaps.
        let lookup = |row: &FeatureRow, f: &str| {
            row.support.iter().find(|(n, _)| *n == f).map(|(_, s)| *s).unwrap()
        };
        assert!(!lookup(mbr, "ST_Buffer"));
        assert!(!lookup(mbr, "ST_ConvexHull"));
        assert!(!lookup(mbr, "ST_Union"));
        assert!(lookup(mbr, "ST_Area"));
        assert!(lookup(mbr, "ST_Intersects"));
    }
}
