//! # jackpine-topo
//!
//! Dimensionally Extended 9-Intersection Model (DE-9IM) for the Jackpine
//! benchmark.
//!
//! The DE-9IM describes the topological relationship between two
//! geometries `a` and `b` as a 3×3 matrix: for each pairing of
//! {interior, boundary, exterior} of `a` with the same three point sets of
//! `b`, the matrix records the dimension of the intersection
//! (`F` = empty, `0`, `1` or `2`). Jackpine's topological micro benchmark
//! is built from queries over the eight named relations derived from this
//! matrix (Equals, Disjoint, Intersects, Touches, Crosses, Within,
//! Contains, Overlaps), which this crate implements for all concrete
//! geometry-type pairs.
//!
//! Entry points:
//! * [`relate()`] — compute the full matrix,
//! * [`IntersectionMatrix::matches`] — test against a pattern such as
//!   `"T*F**FFF*"`,
//! * the named predicates in [`predicates`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod matrix;
pub mod predicates;
pub mod prepared;
mod relate;

pub use error::TopoError;
pub use matrix::IntersectionMatrix;
pub use predicates::{
    contains, covered_by, covers, crosses, disjoint, equals, intersects, overlaps, touches, within,
    PredicateKind,
};
pub use prepared::{evaluate, relate_prepared, PredicateOutcome, PreparedGeometry};
pub use relate::{interior_point, relate};

/// Result alias for topological computations.
pub type Result<T> = std::result::Result<T, TopoError>;
