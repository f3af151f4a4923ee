//! # jackpine
//!
//! Rust reproduction of **Jackpine: a benchmark to evaluate spatial
//! database performance** (Ray, Simion & Demke Brown, ICDE 2011), as a
//! complete, self-contained stack:
//!
//! * [`geom`] — computational-geometry kernel (Simple Features model,
//!   WKT/WKB, robust predicates, measures, overlay, buffering),
//! * [`topo`] — DE-9IM intersection matrices and the named topological
//!   predicates,
//! * [`index`] — R\*-tree, grid and ordered indexes,
//! * [`obs`] — the query-observability layer: engine counters, stage
//!   histograms and per-query traces,
//! * [`storage`] — slotted-page heaps behind one buffer pool, and schemas,
//! * [`sql`] — the SQL front end (parser, planner, executor),
//! * [`engine`] — the three benchmarked engine profiles behind the
//!   [`engine::SpatialConnector`] portability trait,
//! * [`datagen`] — the deterministic TIGER-like dataset generator,
//! * [`mod@bench`] — the benchmark itself: micro suites, macro scenarios,
//!   driver, feature matrix and reporting.
//!
//! ## Quick start
//!
//! ```
//! use jackpine::engine::{EngineProfile, SpatialDb, SpatialConnector};
//! use std::sync::Arc;
//!
//! let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
//! db.execute("CREATE TABLE parks (id BIGINT, geom GEOMETRY)").unwrap();
//! db.execute("INSERT INTO parks VALUES (1, \
//!     ST_GeomFromText('POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))'))").unwrap();
//! let r = db.execute("SELECT COUNT(*) FROM parks WHERE \
//!     ST_Contains(geom, ST_GeomFromText('POINT (1 1)'))").unwrap();
//! assert_eq!(r.scalar().unwrap().to_string(), "1");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use jackpine_core as bench;
pub use jackpine_datagen as datagen;
pub use jackpine_engine as engine;
pub use jackpine_geom as geom;
pub use jackpine_index as index;
pub use jackpine_obs as obs;
pub use jackpine_sqlmini as sql;
pub use jackpine_storage as storage;
pub use jackpine_topo as topo;
