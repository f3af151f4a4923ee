//! # jackpine-engine
//!
//! The spatial database engines under benchmark: a storage + index + SQL
//! facade ([`SpatialDb`]) instantiated under three profiles
//! ([`EngineProfile`]) that model the systems compared in the Jackpine
//! paper, and the portability layer ([`SpatialConnector`]) that plays the
//! role JDBC played in the original harness.
//!
//! | Profile | Models | Index | Predicates |
//! |---|---|---|---|
//! | [`EngineProfile::ExactRtree`] | PostgreSQL/PostGIS | R\*-tree (GiST-like) | exact, filter-refine |
//! | [`EngineProfile::MbrOnly`] | MySQL (paper era) | R-tree | MBR-only, reduced function set |
//! | [`EngineProfile::ExactGrid`] | commercial "DBMS X" | fixed grid (tessellation) | exact, filter-refine |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod commit;
mod connector;
mod db;
pub mod failpoint;
mod persist;
mod profile;
mod statement;
mod syscat;
mod txn;
pub mod wal;

pub use connector::{all_profiles, SpatialConnector};
pub use db::{
    DurabilityOptions, EngineError, SpatialDb, FLIGHT_RECORDER_CAPACITY, METRICS_HISTORY_CAPACITY,
    METRICS_HISTORY_INTERVAL, QUERY_STATS_CAPACITY, SLOW_LOG_CAPACITY, SLOW_QUERY_THRESHOLD,
    SNAPSHOT_FILE, WAL_FILE,
};
pub use profile::EngineProfile;

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
