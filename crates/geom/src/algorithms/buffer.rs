//! Buffer computation (the `ST_Buffer` of the analysis micro benchmark and
//! the core primitive of the flood-risk and toxic-spill macro scenarios).
//!
//! Strategy: a buffered point is a discretized circle; a buffered line is
//! the union of per-segment *capsules* (rectangle plus round caps); a
//! buffered polygon is the polygon unioned with capsules along its
//! boundary (or, for negative distances, minus those capsules). All unions
//! go through the overlay module, so the result is a proper polygon set.

use super::clip::{difference, union, BoolOp};
use crate::{Coord, GeomError, Geometry, GeometryCollection, LineString, Point, Polygon, Result};

/// Number of segments per quarter circle used to approximate arcs.
/// Eight matches PostGIS's default `quad_segs`.
pub const DEFAULT_QUAD_SEGS: usize = 8;

/// Computes the buffer of `g` at `distance` with the default arc
/// approximation ([`DEFAULT_QUAD_SEGS`]).
pub fn buffer(g: &Geometry, distance: f64) -> Result<Geometry> {
    buffer_with_segments(g, distance, DEFAULT_QUAD_SEGS)
}

/// Computes the buffer of `g` at `distance` using `quad_segs` segments per
/// quarter circle.
///
/// * `distance > 0`: grow. Supported for every geometry type.
/// * `distance == 0`: identity for areal geometries, empty for others
///   (matching common spatial-SQL behaviour).
/// * `distance < 0`: shrink. Supported for areal geometries only.
pub fn buffer_with_segments(g: &Geometry, distance: f64, quad_segs: usize) -> Result<Geometry> {
    if !distance.is_finite() {
        return Err(GeomError::InvalidArgument("buffer distance must be finite".into()));
    }
    if quad_segs == 0 {
        return Err(GeomError::InvalidArgument("quad_segs must be at least 1".into()));
    }
    if distance == 0.0 {
        return Ok(match g {
            Geometry::Polygon(_) | Geometry::MultiPolygon(_) => g.clone(),
            _ => empty(),
        });
    }
    if distance < 0.0 {
        return match g {
            Geometry::Polygon(_) | Geometry::MultiPolygon(_) => {
                polygon_buffer(g, -distance, quad_segs, BoolOp::Difference)
            }
            _ => {
                Err(GeomError::InvalidArgument("negative buffer requires an areal geometry".into()))
            }
        };
    }

    match g {
        Geometry::Point(p) => match p.coord() {
            Some(c) => Ok(Geometry::Polygon(circle_polygon(c, distance, quad_segs)?)),
            None => Ok(empty()),
        },
        Geometry::MultiPoint(m) => {
            let circles =
                m.0.iter()
                    .filter_map(Point::coord)
                    .map(|c| Ok(Geometry::Polygon(circle_polygon(c, distance, quad_segs)?)));
            Ok(fold_parts(None, circles, BoolOp::Union)?.unwrap_or_else(empty))
        }
        Geometry::LineString(l) => line_buffer(l, distance, quad_segs),
        Geometry::MultiLineString(m) => {
            let lines = m.0.iter().filter(|l| !l.is_empty());
            let buffers = lines.map(|l| line_buffer(l, distance, quad_segs));
            Ok(fold_parts(None, buffers, BoolOp::Union)?.unwrap_or_else(empty))
        }
        Geometry::Polygon(_) | Geometry::MultiPolygon(_) => {
            polygon_buffer(g, distance, quad_segs, BoolOp::Union)
        }
        Geometry::GeometryCollection(c) => {
            let members = c.0.iter().filter(|member| !member.is_empty());
            let buffers = members
                .map(|member| buffer_with_segments(member, distance, quad_segs))
                .filter(|b| !matches!(b, Ok(b) if b.is_empty()));
            Ok(fold_parts(None, buffers, BoolOp::Union)?.unwrap_or_else(empty))
        }
    }
}

/// The empty result of a buffer with nothing to buffer.
fn empty() -> Geometry {
    Geometry::GeometryCollection(GeometryCollection(Vec::new()))
}

/// The one fold every buffer is built by: `op` of the running result
/// and each part in turn, left to right, starting from `seed` or else
/// from the first part (`None` when there is neither). The order is
/// the parts' order, so the output's bits are fixed by it. `op` is
/// `Union` or `Difference`; a difference that leaves nothing ends the
/// fold, as nothing is left to take from.
fn fold_parts(
    seed: Option<Geometry>,
    parts: impl IntoIterator<Item = Result<Geometry>>,
    op: BoolOp,
) -> Result<Option<Geometry>> {
    let mut acc = seed;
    for part in parts {
        let part = part?;
        acc = Some(match (acc, op) {
            (None, _) => part,
            (Some(a), BoolOp::Difference) => {
                let rest = difference(&a, &part)?;
                if rest.is_empty() {
                    return Ok(Some(rest));
                }
                rest
            }
            (Some(a), _) => union(&a, &part)?,
        });
    }
    Ok(acc)
}

/// Emits the vertices of a CCW arc around `center` from `from` to `to`
/// radians (`to > from`).
///
/// Interior vertices are placed on a *global* angular grid (multiples of
/// the step), so two arcs around the same center with the same radius
/// produce bitwise-identical coordinates wherever they overlap. Capsules
/// of adjacent polyline segments share their joint's cap vertices exactly,
/// which keeps the downstream overlay free of near-coincident slivers.
fn arc_points(
    center: Coord,
    radius: f64,
    from: f64,
    to: f64,
    quad_segs: usize,
    out: &mut Vec<Coord>,
) {
    let per_circle = 4 * quad_segs as i64;
    let step = std::f64::consts::TAU / per_circle as f64;
    let push = |theta: f64, out: &mut Vec<Coord>| {
        let p = Coord::new(center.x + radius * theta.cos(), center.y + radius * theta.sin());
        if out.last() != Some(&p) {
            out.push(p);
        }
    };
    push(from, out);
    // Interior vertices on the global angular grid. The grid index is
    // reduced modulo a full circle *before* the trigonometry, so arcs of
    // different parametrizations around the same center produce bitwise
    // identical vertices wherever they overlap.
    let mut k = (from / step).floor() as i64 + 1;
    while (k as f64) * step <= from {
        k += 1;
    }
    while (k as f64) * step < to {
        let m = k.rem_euclid(per_circle);
        push(m as f64 * step, out);
        k += 1;
    }
    push(to, out);
}

/// A discretized circle as a CCW polygon.
fn circle_polygon(center: Coord, radius: f64, quad_segs: usize) -> Result<Polygon> {
    let mut pts = Vec::with_capacity(quad_segs * 4 + 2);
    arc_points(center, radius, 0.0, std::f64::consts::TAU, quad_segs, &mut pts);
    // arc_points emits both 0 and 2π; force exact closure.
    if let Some(&first) = pts.first() {
        if let Some(last) = pts.last_mut() {
            *last = first;
        }
    }
    Ok(Polygon::new(crate::polygon::Ring::new(pts)?, Vec::new()))
}

/// A capsule (stadium shape) around segment `a b` as a CCW polygon.
fn capsule_polygon(a: Coord, b: Coord, radius: f64, quad_segs: usize) -> Result<Polygon> {
    let d = b - a;
    let len = d.norm();
    if len == 0.0 {
        return circle_polygon(a, radius, quad_segs);
    }
    let dir_angle = d.y.atan2(d.x);
    let mut pts: Vec<Coord> = Vec::with_capacity(4 * quad_segs + 6);
    // Semicircle around b: from dir−90° to dir+90°, CCW.
    arc_points(
        b,
        radius,
        dir_angle - std::f64::consts::FRAC_PI_2,
        dir_angle + std::f64::consts::FRAC_PI_2,
        quad_segs,
        &mut pts,
    );
    // Semicircle around a: from dir+90° to dir+270°, CCW.
    arc_points(
        a,
        radius,
        dir_angle + std::f64::consts::FRAC_PI_2,
        dir_angle + 1.5 * std::f64::consts::PI,
        quad_segs,
        &mut pts,
    );
    pts.push(pts[0]);
    pts.dedup();
    Ok(Polygon::new(crate::polygon::Ring::new(pts)?, Vec::new()))
}

fn line_buffer(l: &LineString, distance: f64, quad_segs: usize) -> Result<Geometry> {
    let capsules = l.segments().map(|(a, b)| capsule(a, b, distance, quad_segs));
    fold_parts(None, capsules, BoolOp::Union)?
        .ok_or_else(|| GeomError::InvalidArgument("cannot buffer an empty linestring".into()))
}

fn capsule(a: Coord, b: Coord, distance: f64, quad_segs: usize) -> Result<Geometry> {
    Ok(Geometry::Polygon(capsule_polygon(a, b, distance, quad_segs)?))
}

/// The polygon folded with the capsules along every ring edge, in ring
/// order: `Union` grows it, `Difference` shrinks it.
fn polygon_buffer(g: &Geometry, distance: f64, quad_segs: usize, op: BoolOp) -> Result<Geometry> {
    let polys = match g {
        Geometry::Polygon(p) => std::slice::from_ref(p),
        Geometry::MultiPolygon(m) => &m.0[..],
        _ => unreachable!("caller checked arity"),
    };
    let edges = polys.iter().flat_map(|p| p.rings().flat_map(|r| r.segments()));
    let capsules = edges.map(|(a, b)| capsule(a, b, distance, quad_segs));
    Ok(fold_parts(Some(g.clone()), capsules, op)?.expect("seeded fold"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::measures::area;
    use crate::Point;

    #[test]
    fn point_buffer_is_near_circle() {
        let p: Geometry = Point::new(0.0, 0.0).unwrap().into();
        let b = buffer(&p, 2.0).unwrap();
        let a = area(&b);
        let exact = std::f64::consts::PI * 4.0;
        // Inscribed polygon: slightly below πr², within 2 %.
        assert!(a < exact && a > exact * 0.98, "area = {a}");
    }

    #[test]
    fn line_buffer_area_close_to_capsule_formula() {
        let l: Geometry = LineString::from_xy(&[(0.0, 0.0), (10.0, 0.0)]).unwrap().into();
        let b = buffer(&l, 1.0).unwrap();
        let a = area(&b);
        let exact = 10.0 * 2.0 + std::f64::consts::PI; // rectangle + two half caps
        assert!((a - exact).abs() < exact * 0.02, "area = {a}, want ≈ {exact}");
    }

    #[test]
    fn bent_line_buffer() {
        let l: Geometry =
            LineString::from_xy(&[(0.0, 0.0), (5.0, 0.0), (5.0, 5.0)]).unwrap().into();
        let b = buffer(&l, 0.5).unwrap();
        let a = area(&b);
        // Two capsules of length 5 overlapping near the elbow: total close
        // to 2*(5*1 + π/4) minus the elbow overlap.
        assert!(a > 9.0 && a < 11.5, "area = {a}");
    }

    #[test]
    fn polygon_positive_buffer_grows() {
        let s: Geometry =
            Polygon::from_xy(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).unwrap().into();
        let b = buffer(&s, 1.0).unwrap();
        let a = area(&b);
        // Exact: 16 + perimeter*1 + π*1² = 16 + 16 + π ≈ 35.14
        let exact = 16.0 + 16.0 + std::f64::consts::PI;
        assert!((a - exact).abs() < exact * 0.02, "area = {a}, want ≈ {exact}");
    }

    #[test]
    fn polygon_negative_buffer_shrinks() {
        let s: Geometry =
            Polygon::from_xy(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).unwrap().into();
        let b = buffer(&s, -1.0).unwrap();
        let a = area(&b);
        assert!((a - 4.0).abs() < 0.2, "area = {a}, want ≈ 4");
    }

    #[test]
    fn negative_buffer_annihilates_small_polygon() {
        let s: Geometry =
            Polygon::from_xy(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]).unwrap().into();
        let b = buffer(&s, -2.0).unwrap();
        assert_eq!(area(&b), 0.0);
    }

    #[test]
    fn zero_distance_semantics() {
        let s: Geometry =
            Polygon::from_xy(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]).unwrap().into();
        assert_eq!(buffer(&s, 0.0).unwrap(), s);
        let p: Geometry = Point::new(0.0, 0.0).unwrap().into();
        assert!(buffer(&p, 0.0).unwrap().is_empty());
    }

    #[test]
    fn invalid_arguments() {
        let p: Geometry = Point::new(0.0, 0.0).unwrap().into();
        assert!(buffer(&p, f64::NAN).is_err());
        assert!(buffer(&p, -1.0).is_err()); // negative on non-areal
        assert!(buffer_with_segments(&p, 1.0, 0).is_err());
    }

    #[test]
    fn buffer_contains_original_for_positive_distance() {
        use crate::algorithms::locate::{locate_in_polygon, Location};
        let l = LineString::from_xy(&[(0.0, 0.0), (3.0, 1.0), (6.0, 0.0)]).unwrap();
        let b = buffer(&l.clone().into(), 0.5).unwrap();
        let polys: Vec<&Polygon> = match &b {
            Geometry::Polygon(p) => vec![p],
            Geometry::MultiPolygon(m) => m.0.iter().collect(),
            other => panic!("expected areal buffer, got {other:?}"),
        };
        for c in l.coords() {
            assert!(
                polys.iter().any(|p| locate_in_polygon(*c, p) == Location::Interior),
                "vertex {c} not inside buffer"
            );
        }
    }

    #[test]
    fn quad_segs_controls_fidelity() {
        let p: Geometry = Point::new(0.0, 0.0).unwrap().into();
        let coarse = area(&buffer_with_segments(&p, 1.0, 2).unwrap());
        let fine = area(&buffer_with_segments(&p, 1.0, 16).unwrap());
        let exact = std::f64::consts::PI;
        assert!((fine - exact).abs() < (coarse - exact).abs());
    }
}
