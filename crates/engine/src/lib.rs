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

mod catalog;
mod checksum;
mod commit;
mod connector;
mod db;
mod durable;
pub mod failpoint;
mod indexes;
mod persist;
mod profile;
mod seeds;
mod statement;
mod syscat;
mod txn;
pub mod wal;

pub use catalog::Table;
pub use connector::{all_profiles, SpatialConnector};
pub use db::{EngineError, SpatialDb};
pub use durable::{DurabilityOptions, SNAPSHOT_FILE, WAL_FILE};
pub use profile::EngineProfile;
pub use syscat::FLIGHT_RECORDER_CAPACITY;

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
