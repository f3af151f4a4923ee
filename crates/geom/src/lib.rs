//! # jackpine-geom
//!
//! Computational-geometry kernel for the Jackpine spatial database benchmark.
//!
//! This crate implements, from scratch, everything a spatial SQL engine needs
//! from a geometry library:
//!
//! * the OGC Simple Features geometry model ([`Point`], [`LineString`],
//!   [`Polygon`], the `Multi*` variants and [`Geometry`] as the closed sum),
//! * text and binary serialization ([`wkt`], [`wkb`]),
//! * measures and constructive algorithms ([`algorithms`]): area, length,
//!   centroid, convex hull, distance, simplification, buffering and polygon
//!   overlay (intersection / union / difference),
//! * the low-level robust predicates those algorithms are built on
//!   ([`algorithms::orientation`], [`algorithms::segment`]).
//!
//! The crate is `#![forbid(unsafe_code)]` and never panics on untrusted
//! input: all parsing and construction entry points return [`GeomError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod codec;
mod coord;
mod envelope;
mod error;
mod geometry;
mod linestring;
mod multi;
mod point;
/// Polygon and ring types.
pub mod polygon;
pub mod prepared;
pub mod wkb;
pub mod wkt;

pub use coord::Coord;
pub use envelope::Envelope;
pub use error::GeomError;
pub use geometry::{Dimension, Geometry, GeometryRef, GeometryType};
pub use linestring::LineString;
pub use multi::{GeometryCollection, MultiLineString, MultiPoint, MultiPolygon};
pub use point::Point;
pub use polygon::{Polygon, Ring};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, GeomError>;
