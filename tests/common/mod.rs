//! Shared generators for the randomized integration tests: random (but
//! always *valid*) geometries built on the in-tree seeded PRNG, so the
//! suite needs no external crates and every run is reproducible.

#![allow(dead_code)]

pub mod alloc;

use jackpine::datagen::rng::Rng;
use jackpine::geom::{Coord, Geometry, LineString, Point, Polygon, Ring};

/// Randomized-test iteration count: `base` normally, 8x under the
/// `slow-tests` feature (`cargo test --features slow-tests`).
pub fn cases(base: usize) -> usize {
    if cfg!(feature = "slow-tests") {
        base * 8
    } else {
        base
    }
}

/// A fresh deterministic generator for one test, keyed by test name so
/// suites don't share streams.
pub fn test_rng(name: &str) -> Rng {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Rng::seed_from_u64(h)
}

/// A finite coordinate within a benchmark-like range.
pub fn coord(rng: &mut Rng) -> Coord {
    Coord::new(rng.gen_range(-1000.0..1000.0f64), rng.gen_range(-1000.0..1000.0f64))
}

/// A random point geometry.
pub fn point(rng: &mut Rng) -> Geometry {
    Geometry::Point(Point::from_coord(coord(rng)).expect("finite coord"))
}

/// A random polyline with 2–10 distinct vertices.
pub fn linestring(rng: &mut Rng) -> Geometry {
    let mut pts = vec![coord(rng)];
    let steps = rng.gen_range(1..9usize);
    for _ in 0..steps {
        let last = *pts.last().expect("non-empty");
        let (dx, dy) = (rng.gen_range(-10.0..10.0f64), rng.gen_range(-10.0..10.0f64));
        // Guarantee distinct consecutive vertices.
        pts.push(Coord::new(last.x + dx + 0.001, last.y + dy + 0.001));
    }
    Geometry::LineString(LineString::new(pts).expect("constructed distinct"))
}

/// A random star-shaped (hence simple and valid) polygon geometry.
pub fn polygon(rng: &mut Rng) -> Geometry {
    Geometry::Polygon(star_polygon(rng))
}

/// A star polygon: sorted angles with positive radii around a centre.
pub fn star_polygon(rng: &mut Rng) -> Polygon {
    let center = coord(rng);
    let n = rng.gen_range(3..12usize);
    let phase = rng.gen_range(0.0..std::f64::consts::TAU);
    let mut pts: Vec<Coord> = Vec::with_capacity(n + 1);
    for k in 0..n {
        let r = rng.gen_range(0.5..10.0f64);
        let theta = phase + std::f64::consts::TAU * k as f64 / n as f64;
        pts.push(Coord::new(center.x + r * theta.cos(), center.y + r * theta.sin()));
    }
    pts.push(pts[0]);
    Polygon::new(Ring::new(pts).expect("star ring is simple"), Vec::new())
}

/// Any of the three basic geometry kinds.
pub fn geometry(rng: &mut Rng) -> Geometry {
    match rng.gen_range(0..3usize) {
        0 => point(rng),
        1 => linestring(rng),
        _ => polygon(rng),
    }
}
