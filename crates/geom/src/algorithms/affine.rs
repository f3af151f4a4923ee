//! Affine transformations: translate, scale, rotate, and the general
//! 2×3 matrix form (`ST_Translate` / `ST_Scale` / `ST_Rotate`).

use crate::polygon::Ring;
use crate::{
    Coord, Geometry, GeometryCollection, LineString, MultiLineString, MultiPoint, MultiPolygon,
    Point, Polygon, Result,
};

/// A 2-D affine transform: `x' = a·x + b·y + c`, `y' = d·x + e·y + f`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AffineTransform {
    /// Coefficient on x for x'.
    pub a: f64,
    /// Coefficient on y for x'.
    pub b: f64,
    /// Constant for x'.
    pub c: f64,
    /// Coefficient on x for y'.
    pub d: f64,
    /// Coefficient on y for y'.
    pub e: f64,
    /// Constant for y'.
    pub f: f64,
}

impl AffineTransform {
    /// The identity transform.
    pub const IDENTITY: AffineTransform =
        AffineTransform { a: 1.0, b: 0.0, c: 0.0, d: 0.0, e: 1.0, f: 0.0 };

    /// Translation by `(dx, dy)`.
    pub fn translation(dx: f64, dy: f64) -> AffineTransform {
        AffineTransform { a: 1.0, b: 0.0, c: dx, d: 0.0, e: 1.0, f: dy }
    }

    /// Scaling by `(sx, sy)` about `origin`.
    pub fn scaling(sx: f64, sy: f64, origin: Coord) -> AffineTransform {
        AffineTransform {
            a: sx,
            b: 0.0,
            c: origin.x * (1.0 - sx),
            d: 0.0,
            e: sy,
            f: origin.y * (1.0 - sy),
        }
    }

    /// Counter-clockwise rotation by `radians` about `origin`.
    pub fn rotation(radians: f64, origin: Coord) -> AffineTransform {
        let (s, c) = radians.sin_cos();
        AffineTransform {
            a: c,
            b: -s,
            c: origin.x - c * origin.x + s * origin.y,
            d: s,
            e: c,
            f: origin.y - s * origin.x - c * origin.y,
        }
    }

    /// Applies the transform to one coordinate.
    #[inline]
    pub fn apply(&self, p: Coord) -> Coord {
        Coord::new(self.a * p.x + self.b * p.y + self.c, self.d * p.x + self.e * p.y + self.f)
    }

    /// Composition: `self ∘ other` (apply `other` first).
    pub fn compose(&self, other: &AffineTransform) -> AffineTransform {
        AffineTransform {
            a: self.a * other.a + self.b * other.d,
            b: self.a * other.b + self.b * other.e,
            c: self.a * other.c + self.b * other.f + self.c,
            d: self.d * other.a + self.e * other.d,
            e: self.d * other.b + self.e * other.e,
            f: self.d * other.c + self.e * other.f + self.f,
        }
    }
}

/// Applies `t` to every coordinate of `g`, rebuilding the geometry.
///
/// Degenerate results (e.g. scaling by zero collapsing a ring) surface as
/// [`crate::GeomError::InvalidGeometry`].
pub fn affine(g: &Geometry, t: &AffineTransform) -> Result<Geometry> {
    Ok(match g {
        Geometry::Point(p) => Geometry::Point(match p.coord() {
            Some(c) => Point::from_coord(t.apply(c))?,
            None => Point::empty(),
        }),
        Geometry::LineString(l) => Geometry::LineString(map_line(l, t)?),
        Geometry::Polygon(p) => Geometry::Polygon(map_polygon(p, t)?),
        Geometry::MultiPoint(m) => Geometry::MultiPoint(MultiPoint(
            m.0.iter()
                .map(|p| match p.coord() {
                    Some(c) => Point::from_coord(t.apply(c)),
                    None => Ok(Point::empty()),
                })
                .collect::<Result<_>>()?,
        )),
        Geometry::MultiLineString(m) => Geometry::MultiLineString(MultiLineString(
            m.0.iter().map(|l| map_line(l, t)).collect::<Result<_>>()?,
        )),
        Geometry::MultiPolygon(m) => Geometry::MultiPolygon(MultiPolygon(
            m.0.iter().map(|p| map_polygon(p, t)).collect::<Result<_>>()?,
        )),
        Geometry::GeometryCollection(c) => Geometry::GeometryCollection(GeometryCollection(
            c.0.iter().map(|g| affine(g, t)).collect::<Result<_>>()?,
        )),
    })
}

/// Translates `g` by `(dx, dy)`.
pub fn translate(g: &Geometry, dx: f64, dy: f64) -> Result<Geometry> {
    affine(g, &AffineTransform::translation(dx, dy))
}

/// Scales `g` by `(sx, sy)` about the origin.
pub fn scale(g: &Geometry, sx: f64, sy: f64) -> Result<Geometry> {
    affine(g, &AffineTransform::scaling(sx, sy, Coord::new(0.0, 0.0)))
}

/// Rotates `g` counter-clockwise by `radians` about `origin`.
pub fn rotate(g: &Geometry, radians: f64, origin: Coord) -> Result<Geometry> {
    affine(g, &AffineTransform::rotation(radians, origin))
}

fn map_line(l: &LineString, t: &AffineTransform) -> Result<LineString> {
    if l.is_empty() {
        return Ok(LineString::empty());
    }
    LineString::new(l.coords().iter().map(|&c| t.apply(c)).collect())
}

fn map_polygon(p: &Polygon, t: &AffineTransform) -> Result<Polygon> {
    let map_ring =
        |r: &Ring| -> Result<Ring> { Ring::new(r.coords().iter().map(|&c| t.apply(c)).collect()) };
    Ok(Polygon::new(
        map_ring(p.exterior())?,
        p.holes().iter().map(map_ring).collect::<Result<_>>()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::measures::area;
    use crate::wkt;

    fn sq() -> Geometry {
        wkt::parse("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))").unwrap()
    }

    #[test]
    fn translation_moves_envelope() {
        let g = translate(&sq(), 10.0, -5.0).unwrap();
        let e = g.envelope();
        assert_eq!((e.min_x, e.min_y, e.max_x, e.max_y), (10.0, -5.0, 12.0, -3.0));
        assert_eq!(area(&g), 4.0);
    }

    #[test]
    fn scaling_scales_area_quadratically() {
        let g = scale(&sq(), 3.0, 2.0).unwrap();
        assert_eq!(area(&g), 24.0);
        // Orientation preserved: still a valid CCW polygon.
        match g {
            Geometry::Polygon(p) => assert!(p.exterior().is_ccw()),
            other => panic!("expected polygon, got {other:?}"),
        }
    }

    #[test]
    fn negative_scale_flips_but_stays_valid() {
        let t = AffineTransform::scaling(-1.0, 1.0, Coord::new(0.0, 0.0));
        assert!(t.a * t.e - t.b * t.d < 0.0, "a negative determinant flips orientation");
        let g = affine(&sq(), &t).unwrap();
        assert_eq!(area(&g), 4.0); // Polygon::new renormalizes winding
    }

    #[test]
    fn rotation_preserves_area_and_distance_from_origin() {
        let g = rotate(&sq(), std::f64::consts::FRAC_PI_2, Coord::new(0.0, 0.0)).unwrap();
        assert!((area(&g) - 4.0).abs() < 1e-9);
        // (2, 0) rotates to (0, 2).
        let p = wkt::parse("POINT (2 0)").unwrap();
        let r = rotate(&p, std::f64::consts::FRAC_PI_2, Coord::new(0.0, 0.0)).unwrap();
        match r {
            Geometry::Point(pt) => {
                let c = pt.coord().unwrap();
                assert!(c.close_to(Coord::new(0.0, 2.0), 1e-12), "got {c}");
            }
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn rotation_about_nonzero_origin() {
        let p = wkt::parse("POINT (3 2)").unwrap();
        let r = rotate(&p, std::f64::consts::PI, Coord::new(2.0, 2.0)).unwrap();
        match r {
            Geometry::Point(pt) => {
                assert!(pt.coord().unwrap().close_to(Coord::new(1.0, 2.0), 1e-12));
            }
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn composition_matches_sequential_application() {
        let t1 = AffineTransform::translation(1.0, 2.0);
        let t2 = AffineTransform::rotation(0.7, Coord::new(3.0, -1.0));
        let composed = t2.compose(&t1);
        let p = Coord::new(5.0, 6.0);
        let seq = t2.apply(t1.apply(p));
        let one = composed.apply(p);
        assert!(seq.close_to(one, 1e-9));
    }

    #[test]
    fn zero_scale_rejected() {
        assert!(scale(&sq(), 0.0, 1.0).is_err());
    }

    #[test]
    fn identity_is_noop() {
        let g = sq();
        assert_eq!(affine(&g, &AffineTransform::IDENTITY).unwrap(), g);
    }
}
