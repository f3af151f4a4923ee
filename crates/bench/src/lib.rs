//! # jackpine-bench
//!
//! The Jackpine benchmark harness: shared setup helpers for the `repro`
//! binary, which regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md's experiment index).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use jackpine_core::load_dataset;
use jackpine_datagen::{TigerConfig, TigerDataset};
use jackpine_engine::{EngineProfile, SpatialDb};
use std::sync::Arc;

/// Default dataset scale for interactive runs (keeps a full `repro -- all`
/// under a few minutes; raise with `--scale` for bigger runs).
pub const DEFAULT_SCALE: f64 = 0.05;

/// Default dataset seed.
pub const DEFAULT_SEED: u64 = 20110411; // the paper's publication date

/// Generates the dataset for a scale, with the fixed benchmark seed.
pub fn dataset(scale: f64) -> TigerDataset {
    TigerDataset::generate(&TigerConfig { seed: DEFAULT_SEED, scale })
}

/// Builds a loaded, indexed engine instance for one profile.
pub fn engine_with_data(profile: EngineProfile, data: &TigerDataset) -> Arc<SpatialDb> {
    let db = Arc::new(SpatialDb::new(profile));
    load_dataset(&db, data).expect("benchmark dataset load must succeed");
    db
}

/// Builds all three profiles over the same dataset.
pub fn all_engines(data: &TigerDataset) -> Vec<Arc<SpatialDb>> {
    EngineProfile::ALL.iter().map(|p| engine_with_data(*p, data)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jackpine_engine::SpatialConnector;

    #[test]
    fn setup_produces_three_loaded_engines() {
        let data = dataset(0.02);
        let engines = all_engines(&data);
        assert_eq!(engines.len(), 3);
        for e in &engines {
            let r = e.execute("SELECT COUNT(*) FROM roads").unwrap();
            assert_eq!(
                r.scalar().unwrap().to_string(),
                data.roads.len().to_string(),
                "engine {}",
                e.name()
            );
        }
    }
}
