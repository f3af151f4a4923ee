//! Minimum Euclidean distance between any two geometries.

use super::locate::{locate_in_polygon, Location};
use super::segment::{segment_intersection, SegmentIntersection};
use crate::{Coord, Geometry, LineString, Polygon};

/// Minimum distance between two geometries, `f64::INFINITY` when either is
/// empty (matching SQL NULL-ish semantics at the engine layer).
pub fn distance(a: &Geometry, b: &Geometry) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    let mut best = f64::INFINITY;
    for_each_part(a, &mut |pa| {
        for_each_part(b, &mut |pb| {
            let d = part_distance(pa, pb);
            if d < best {
                best = d;
            }
        });
    });
    best
}

/// Squared distance from a coordinate to the closed segment `a b`.
pub fn point_segment_distance_sq(p: Coord, a: Coord, b: Coord) -> f64 {
    let ab = b - a;
    let denom = ab.norm_sq();
    if denom == 0.0 {
        return p.distance_sq(a);
    }
    let t = ((p - a).dot(ab) / denom).clamp(0.0, 1.0);
    p.distance_sq(a.lerp(b, t))
}

/// Distance between two closed segments.
pub fn segment_segment_distance(a: Coord, b: Coord, c: Coord, d: Coord) -> f64 {
    if segment_intersection(a, b, c, d) != SegmentIntersection::None {
        return 0.0;
    }
    point_segment_distance_sq(a, c, d)
        .min(point_segment_distance_sq(b, c, d))
        .min(point_segment_distance_sq(c, a, b))
        .min(point_segment_distance_sq(d, a, b))
        .sqrt()
}

/// A single-part view used to decompose Multi*/collections.
enum Part<'a> {
    Pt(Coord),
    Line(&'a LineString),
    Poly(&'a Polygon),
}

fn for_each_part<'a>(g: &'a Geometry, f: &mut dyn FnMut(&Part<'a>)) {
    match g {
        Geometry::Point(p) => {
            if let Some(c) = p.coord() {
                f(&Part::Pt(c));
            }
        }
        Geometry::LineString(l) => {
            if !l.is_empty() {
                f(&Part::Line(l));
            }
        }
        Geometry::Polygon(p) => f(&Part::Poly(p)),
        Geometry::MultiPoint(m) => {
            for p in &m.0 {
                if let Some(c) = p.coord() {
                    f(&Part::Pt(c));
                }
            }
        }
        Geometry::MultiLineString(m) => {
            for l in &m.0 {
                if !l.is_empty() {
                    f(&Part::Line(l));
                }
            }
        }
        Geometry::MultiPolygon(m) => {
            for p in &m.0 {
                f(&Part::Poly(p));
            }
        }
        Geometry::GeometryCollection(c) => {
            for g in &c.0 {
                for_each_part(g, f);
            }
        }
    }
}

fn part_distance(a: &Part<'_>, b: &Part<'_>) -> f64 {
    match (a, b) {
        (Part::Pt(p), Part::Pt(q)) => p.distance(*q),
        (Part::Pt(p), Part::Line(l)) | (Part::Line(l), Part::Pt(p)) => point_line_distance(*p, l),
        (Part::Pt(p), Part::Poly(poly)) | (Part::Poly(poly), Part::Pt(p)) => {
            point_polygon_distance(*p, poly)
        }
        (Part::Line(l), Part::Line(m)) => line_line_distance(l, m),
        (Part::Line(l), Part::Poly(p)) | (Part::Poly(p), Part::Line(l)) => {
            line_polygon_distance(l, p)
        }
        (Part::Poly(p), Part::Poly(q)) => polygon_polygon_distance(p, q),
    }
}

fn point_line_distance(p: Coord, l: &LineString) -> f64 {
    l.segments()
        .map(|(a, b)| point_segment_distance_sq(p, a, b))
        .fold(f64::INFINITY, f64::min)
        .sqrt()
}

fn point_polygon_distance(p: Coord, poly: &Polygon) -> f64 {
    if locate_in_polygon(p, poly) != Location::Exterior {
        return 0.0;
    }
    poly.rings()
        .flat_map(|r| r.segments())
        .map(|(a, b)| point_segment_distance_sq(p, a, b))
        .fold(f64::INFINITY, f64::min)
        .sqrt()
}

fn line_line_distance(l: &LineString, m: &LineString) -> f64 {
    let mut best = f64::INFINITY;
    for (a, b) in l.segments() {
        for (c, d) in m.segments() {
            let dd = segment_segment_distance(a, b, c, d);
            if dd == 0.0 {
                return 0.0;
            }
            best = best.min(dd);
        }
    }
    best
}

fn line_polygon_distance(l: &LineString, p: &Polygon) -> f64 {
    // If any vertex is inside, or any segment crosses the boundary, the
    // distance is zero.
    if let Some(first) = l.start() {
        if locate_in_polygon(first, p) != Location::Exterior {
            return 0.0;
        }
    }
    let mut best = f64::INFINITY;
    for (a, b) in l.segments() {
        for (c, d) in p.rings().flat_map(|r| r.segments()) {
            let dd = segment_segment_distance(a, b, c, d);
            if dd == 0.0 {
                return 0.0;
            }
            best = best.min(dd);
        }
    }
    best
}

fn polygon_polygon_distance(p: &Polygon, q: &Polygon) -> f64 {
    // Containment / overlap check via a representative vertex each way.
    let pv = p.exterior().coords()[0];
    let qv = q.exterior().coords()[0];
    if locate_in_polygon(pv, q) != Location::Exterior
        || locate_in_polygon(qv, p) != Location::Exterior
    {
        return 0.0;
    }
    let mut best = f64::INFINITY;
    for (a, b) in p.rings().flat_map(|r| r.segments()) {
        for (c, d) in q.rings().flat_map(|r| r.segments()) {
            let dd = segment_segment_distance(a, b, c, d);
            if dd == 0.0 {
                return 0.0;
            }
            best = best.min(dd);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    fn pt(x: f64, y: f64) -> Geometry {
        Point::new(x, y).unwrap().into()
    }

    fn sq(x0: f64, y0: f64, s: f64) -> Geometry {
        Polygon::from_xy(&[(x0, y0), (x0 + s, y0), (x0 + s, y0 + s), (x0, y0 + s)]).unwrap().into()
    }

    #[test]
    fn point_point() {
        assert_eq!(distance(&pt(0.0, 0.0), &pt(3.0, 4.0)), 5.0);
    }

    #[test]
    fn point_segment_endpoints_and_projection() {
        let a = Coord::new(0.0, 0.0);
        let b = Coord::new(10.0, 0.0);
        assert_eq!(point_segment_distance_sq(Coord::new(5.0, 3.0), a, b), 9.0);
        assert_eq!(point_segment_distance_sq(Coord::new(-3.0, 4.0), a, b), 25.0);
        assert_eq!(point_segment_distance_sq(Coord::new(13.0, 4.0), a, b), 25.0);
        // degenerate segment
        assert_eq!(point_segment_distance_sq(Coord::new(3.0, 4.0), a, a), 25.0);
    }

    #[test]
    fn point_line_and_polygon() {
        let l: Geometry = LineString::from_xy(&[(0.0, 0.0), (10.0, 0.0)]).unwrap().into();
        assert_eq!(distance(&pt(5.0, 2.0), &l), 2.0);
        assert_eq!(distance(&pt(2.0, 2.0), &sq(0.0, 0.0, 4.0)), 0.0); // inside
        assert_eq!(distance(&pt(4.0, 2.0), &sq(0.0, 0.0, 4.0)), 0.0); // boundary
        assert_eq!(distance(&pt(7.0, 2.0), &sq(0.0, 0.0, 4.0)), 3.0);
    }

    #[test]
    fn crossing_lines_have_zero_distance() {
        let a: Geometry = LineString::from_xy(&[(0.0, 0.0), (2.0, 2.0)]).unwrap().into();
        let b: Geometry = LineString::from_xy(&[(0.0, 2.0), (2.0, 0.0)]).unwrap().into();
        assert_eq!(distance(&a, &b), 0.0);
    }

    #[test]
    fn parallel_lines() {
        let a: Geometry = LineString::from_xy(&[(0.0, 0.0), (10.0, 0.0)]).unwrap().into();
        let b: Geometry = LineString::from_xy(&[(0.0, 3.0), (10.0, 3.0)]).unwrap().into();
        assert_eq!(distance(&a, &b), 3.0);
    }

    #[test]
    fn polygon_polygon_cases() {
        assert_eq!(distance(&sq(0.0, 0.0, 2.0), &sq(5.0, 0.0, 2.0)), 3.0);
        assert_eq!(distance(&sq(0.0, 0.0, 4.0), &sq(1.0, 1.0, 1.0)), 0.0); // nested
        assert_eq!(distance(&sq(0.0, 0.0, 2.0), &sq(1.0, 1.0, 2.0)), 0.0); // overlapping
                                                                           // diagonal separation
        let d = distance(&sq(0.0, 0.0, 1.0), &sq(2.0, 2.0, 1.0));
        assert!((d - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn line_inside_polygon() {
        let l: Geometry = LineString::from_xy(&[(1.0, 1.0), (2.0, 2.0)]).unwrap().into();
        assert_eq!(distance(&l, &sq(0.0, 0.0, 4.0)), 0.0);
    }

    #[test]
    fn empty_inputs_give_infinity() {
        let e: Geometry = Point::empty().into();
        assert_eq!(distance(&e, &pt(0.0, 0.0)), f64::INFINITY);
    }

    #[test]
    fn symmetry() {
        let a = sq(0.0, 0.0, 2.0);
        let l: Geometry = LineString::from_xy(&[(5.0, 0.0), (5.0, 10.0)]).unwrap().into();
        assert_eq!(distance(&a, &l), distance(&l, &a));
        assert_eq!(distance(&a, &l), 3.0);
    }
}
