//! # jackpine-index
//!
//! Spatial and attribute access methods for the Jackpine engines:
//!
//! * [`RTree`] — an R\*-tree (forced reinsert, margin-driven split, STR
//!   bulk load, window and k-nearest-neighbour search). This is the
//!   PostGIS-GiST analogue used by the `ExactRtree` and `MbrOnly` engine
//!   profiles.
//! * [`GridIndex`] — a fixed multi-cell grid (tessellation) index, the
//!   commercial-DBMS analogue used by the `ExactGrid` profile.
//! * [`OrderedIndex`] — a sorted attribute index used by the geocoding
//!   macro scenario for street-name lookups.
//!
//! All spatial indexes take [`jackpine_geom::Envelope`]s and store a
//! caller-chosen payload (typically a row id). The R-tree keeps each
//! envelope as a [`BoxKey`], four `f32` bounds rounded outward, so its
//! probes return a superset of the exact answer; the grid keeps the
//! envelopes as given.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod ordered;
mod rtree;

pub use grid::GridIndex;
pub use ordered::OrderedIndex;
pub use rtree::{BoxKey, LeafPager, LeafPayload, RTree, RTreeConfig};

/// Statistics shared by the spatial indexes, for the benchmark's
/// instrumentation (index structure vs. probe cost).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Tree height (R-tree) or 1 (grid).
    pub height: usize,
    /// Total number of stored entries.
    pub entries: usize,
    /// Internal nodes (R-tree) or occupied cells (grid).
    pub nodes: usize,
}

/// Cost of a single index probe, reported by the `*_probe` query
/// variants for the observability layer. Both fields are deterministic
/// functions of the index contents and the query, never of scheduling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Tree nodes (R-tree) or grid cells inspected during the probe.
    pub nodes_visited: u64,
    /// Candidate entries emitted to the caller.
    pub candidates: u64,
}

impl ProbeStats {
    /// Component-wise sum, for aggregating probes.
    pub fn merge(self, other: ProbeStats) -> ProbeStats {
        ProbeStats {
            nodes_visited: self.nodes_visited + other.nodes_visited,
            candidates: self.candidates + other.candidates,
        }
    }
}
