//! Polygon overlay: intersection, union and difference.
//!
//! The implementation follows the *edge classification* scheme rather than
//! classic Greiner–Hormann pointer surgery, because it degrades gracefully
//! on the degeneracies real cadastral data is full of (shared edges,
//! T-junctions, vertices on edges):
//!
//! 1. split every boundary edge of each operand at all intersections with
//!    the other operand's boundary (robust classification via
//!    [`segment_intersection`]),
//! 2. classify each sub-edge by the location of its midpoint in the other
//!    operand (interior / boundary / exterior),
//! 3. select sub-edges according to the boolean operation, reversing where
//!    the operation requires it (holes from `difference`),
//! 4. stitch the selected directed edges into rings by angular walking and
//!    assemble shells and holes into polygons.
//!
//! Directed edges always keep the operand's interior on their **left**
//! (counter-clockwise shells, clockwise holes), which makes the selection
//! rules purely local.

use super::locate::{locate_in_polygon, locate_in_ring, Location};
use super::segment::{segment_intersection, SegmentIntersection};
use super::tolerance::{param_on_segment, OVERLAP_TOL, PARAM_EPS};
use crate::polygon::Ring;
use crate::{
    Coord, Envelope, GeomError, Geometry, GeometryCollection, LineString, MultiLineString,
    MultiPoint, MultiPolygon, Point, Polygon, Result,
};
use std::collections::HashMap;

/// The three supported boolean operations on areal geometries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoolOp {
    /// Points in both operands.
    Intersection,
    /// Points in either operand.
    Union,
    /// Points in the first operand but not the second.
    Difference,
}

/// Geometric intersection of two geometries.
///
/// Supported operand combinations (symmetric unless noted):
/// point × anything, line × line, line × polygon, polygon × polygon, and
/// the corresponding Multi*/collection decompositions. The result is the
/// lowest-dimension faithful representation (possibly an empty collection).
pub fn intersection(a: &Geometry, b: &Geometry) -> Result<Geometry> {
    match (a, b) {
        // Point against anything: membership test.
        (Geometry::Point(_) | Geometry::MultiPoint(_), _) => point_intersection(a, b),
        (_, Geometry::Point(_) | Geometry::MultiPoint(_)) => point_intersection(b, a),
        // Line against line.
        (
            Geometry::LineString(_) | Geometry::MultiLineString(_),
            Geometry::LineString(_) | Geometry::MultiLineString(_),
        ) => line_line_intersection(a, b),
        // Line against areal.
        (
            Geometry::LineString(_) | Geometry::MultiLineString(_),
            Geometry::Polygon(_) | Geometry::MultiPolygon(_),
        ) => line_areal_intersection(a, b),
        (
            Geometry::Polygon(_) | Geometry::MultiPolygon(_),
            Geometry::LineString(_) | Geometry::MultiLineString(_),
        ) => line_areal_intersection(b, a),
        // Areal against areal.
        (
            Geometry::Polygon(_) | Geometry::MultiPolygon(_),
            Geometry::Polygon(_) | Geometry::MultiPolygon(_),
        ) => areal_overlay(a, b, BoolOp::Intersection),
        _ => Err(GeomError::InvalidArgument(format!(
            "intersection not supported between {:?} and {:?}",
            a.geometry_type(),
            b.geometry_type()
        ))),
    }
}

/// Geometric union. Supported for areal × areal (and Multi* thereof);
/// other combinations return [`GeomError::InvalidArgument`].
pub fn union(a: &Geometry, b: &Geometry) -> Result<Geometry> {
    match (a, b) {
        (
            Geometry::Polygon(_) | Geometry::MultiPolygon(_),
            Geometry::Polygon(_) | Geometry::MultiPolygon(_),
        ) => areal_overlay(a, b, BoolOp::Union),
        _ => Err(GeomError::InvalidArgument(format!(
            "union not supported between {:?} and {:?}",
            a.geometry_type(),
            b.geometry_type()
        ))),
    }
}

/// Geometric difference `a − b`. Supported for areal × areal.
pub fn difference(a: &Geometry, b: &Geometry) -> Result<Geometry> {
    match (a, b) {
        (
            Geometry::Polygon(_) | Geometry::MultiPolygon(_),
            Geometry::Polygon(_) | Geometry::MultiPolygon(_),
        ) => areal_overlay(a, b, BoolOp::Difference),
        _ => Err(GeomError::InvalidArgument(format!(
            "difference not supported between {:?} and {:?}",
            a.geometry_type(),
            b.geometry_type()
        ))),
    }
}

// ---------------------------------------------------------------------------
// Point and line cases
// ---------------------------------------------------------------------------

fn point_coords(g: &Geometry, out: &mut Vec<Coord>) {
    match g {
        Geometry::Point(p) => out.extend(p.coord()),
        Geometry::MultiPoint(m) => out.extend(m.0.iter().filter_map(Point::coord)),
        Geometry::GeometryCollection(c) => {
            for g in &c.0 {
                point_coords(g, out);
            }
        }
        _ => {}
    }
}

fn point_intersection(pts: &Geometry, other: &Geometry) -> Result<Geometry> {
    let mut cs = Vec::new();
    point_coords(pts, &mut cs);
    let kept: Vec<Point> = cs
        .into_iter()
        .filter(|&c| coord_intersects_geometry(c, other))
        .map(|c| Point(Some(c)))
        .collect();
    Ok(collapse_points(kept))
}

fn collapse_points(mut pts: Vec<Point>) -> Geometry {
    pts.sort_by(|a, b| {
        let (ca, cb) = (a.coord().unwrap_or_default(), b.coord().unwrap_or_default());
        ca.x.total_cmp(&cb.x).then(ca.y.total_cmp(&cb.y))
    });
    pts.dedup();
    match pts.len() {
        0 => Geometry::GeometryCollection(GeometryCollection(Vec::new())),
        1 => Geometry::Point(pts.pop().expect("len checked")),
        _ => Geometry::MultiPoint(MultiPoint(pts)),
    }
}

/// `true` when coordinate `c` is a point of `g` (interior or boundary).
pub(crate) fn coord_intersects_geometry(c: Coord, g: &Geometry) -> bool {
    use super::segment::point_on_segment;
    match g {
        Geometry::Point(p) => p.coord() == Some(c),
        Geometry::MultiPoint(m) => m.0.iter().any(|p| p.coord() == Some(c)),
        Geometry::LineString(l) => l.segments().any(|(a, b)| point_on_segment(c, a, b)),
        Geometry::MultiLineString(m) => {
            m.0.iter().any(|l| l.segments().any(|(a, b)| point_on_segment(c, a, b)))
        }
        Geometry::Polygon(p) => locate_in_polygon(c, p) != Location::Exterior,
        Geometry::MultiPolygon(m) => {
            m.0.iter().any(|p| locate_in_polygon(c, p) != Location::Exterior)
        }
        Geometry::GeometryCollection(gc) => gc.0.iter().any(|g| coord_intersects_geometry(c, g)),
    }
}

fn lines_of<'a>(g: &'a Geometry, out: &mut Vec<&'a LineString>) {
    match g {
        Geometry::LineString(l) if !l.is_empty() => {
            out.push(l);
        }
        Geometry::MultiLineString(m) => out.extend(m.0.iter().filter(|l| !l.is_empty())),
        Geometry::GeometryCollection(c) => {
            for g in &c.0 {
                lines_of(g, out);
            }
        }
        _ => {}
    }
}

fn polygons_of<'a>(g: &'a Geometry, out: &mut Vec<&'a Polygon>) {
    match g {
        Geometry::Polygon(p) => out.push(p),
        Geometry::MultiPolygon(m) => out.extend(m.0.iter()),
        Geometry::GeometryCollection(c) => {
            for g in &c.0 {
                polygons_of(g, out);
            }
        }
        _ => {}
    }
}

fn line_line_intersection(a: &Geometry, b: &Geometry) -> Result<Geometry> {
    let (mut la, mut lb) = (Vec::new(), Vec::new());
    lines_of(a, &mut la);
    lines_of(b, &mut lb);
    let mut points: Vec<Point> = Vec::new();
    let mut overlaps: Vec<LineString> = Vec::new();
    for l in &la {
        for m in &lb {
            for (p, q) in l.segments() {
                for (r, s) in m.segments() {
                    match segment_intersection(p, q, r, s) {
                        SegmentIntersection::None => {}
                        SegmentIntersection::Point(x) => points.push(Point(Some(x))),
                        SegmentIntersection::Overlap(x, y) => {
                            overlaps.push(LineString::new(vec![x, y])?);
                        }
                    }
                }
            }
        }
    }
    if overlaps.is_empty() {
        Ok(collapse_points(points))
    } else if points.is_empty() && overlaps.len() == 1 {
        Ok(Geometry::LineString(overlaps.pop().expect("len checked")))
    } else if points.is_empty() {
        Ok(Geometry::MultiLineString(MultiLineString(overlaps)))
    } else {
        let mut members: Vec<Geometry> = overlaps.into_iter().map(Geometry::LineString).collect();
        members.push(collapse_points(points));
        Ok(Geometry::GeometryCollection(GeometryCollection(members)))
    }
}

fn line_areal_intersection(lines: &Geometry, areal: &Geometry) -> Result<Geometry> {
    let mut ls = Vec::new();
    lines_of(lines, &mut ls);
    let mut polys = Vec::new();
    polygons_of(areal, &mut polys);
    let mut pieces: Vec<LineString> = Vec::new();
    for l in &ls {
        for p in &polys {
            for portion in super::line_split::split_line_by_polygon(l, p) {
                if portion.class != super::line_split::PortionClass::Outside {
                    pieces.push(LineString::new(portion.coords)?);
                }
            }
        }
    }
    Ok(match pieces.len() {
        0 => Geometry::GeometryCollection(GeometryCollection(Vec::new())),
        1 => Geometry::LineString(pieces.pop().expect("len checked")),
        _ => Geometry::MultiLineString(MultiLineString(pieces)),
    })
}

// ---------------------------------------------------------------------------
// Areal overlay
// ---------------------------------------------------------------------------

fn areal_overlay(a: &Geometry, b: &Geometry, op: BoolOp) -> Result<Geometry> {
    let (mut pa, mut pb) = (Vec::new(), Vec::new());
    polygons_of(a, &mut pa);
    polygons_of(b, &mut pb);

    match op {
        BoolOp::Intersection => {
            // Distribute over members, then union the pieces.
            let mut acc: Vec<Polygon> = Vec::new();
            for p in &pa {
                for q in &pb {
                    let pieces = overlay_pair(p, q, BoolOp::Intersection)?;
                    acc = union_accumulate(acc, pieces)?;
                }
            }
            Ok(polygons_to_geometry(acc))
        }
        BoolOp::Union => {
            let mut acc: Vec<Polygon> = pa.iter().map(|p| (*p).clone()).collect();
            for q in &pb {
                acc = union_accumulate(acc, vec![(*q).clone()])?;
            }
            Ok(polygons_to_geometry(acc))
        }
        BoolOp::Difference => {
            // (⋃ pa) − (⋃ pb): subtract each q from every accumulated piece.
            let mut acc: Vec<Polygon> = pa.iter().map(|p| (*p).clone()).collect();
            for q in &pb {
                let mut next: Vec<Polygon> = Vec::new();
                for p in &acc {
                    next.extend(overlay_pair(p, q, BoolOp::Difference)?);
                }
                acc = next;
            }
            Ok(polygons_to_geometry(acc))
        }
    }
}

/// Folds `pieces` into `acc` maintaining a disjoint-polygon invariant by
/// unioning overlapping members pairwise.
fn union_accumulate(acc: Vec<Polygon>, pieces: Vec<Polygon>) -> Result<Vec<Polygon>> {
    let mut result = acc;
    for piece in pieces {
        let mut current = piece;
        loop {
            let mut merged = false;
            let mut i = 0;
            while i < result.len() {
                if current.envelope().intersects(&result[i].envelope()) {
                    let candidate = overlay_pair(&result[i], &current, BoolOp::Union)?;
                    // A genuine merge yields exactly one polygon.
                    if candidate.len() == 1 {
                        result.swap_remove(i);
                        current = candidate.into_iter().next().expect("len checked");
                        merged = true;
                        continue;
                    }
                }
                i += 1;
            }
            if !merged {
                break;
            }
        }
        result.push(current);
    }
    Ok(result)
}

fn polygons_to_geometry(mut ps: Vec<Polygon>) -> Geometry {
    match ps.len() {
        0 => Geometry::GeometryCollection(GeometryCollection(Vec::new())),
        1 => Geometry::Polygon(ps.pop().expect("len checked")),
        _ => Geometry::MultiPolygon(MultiPolygon(ps)),
    }
}

/// A directed edge selected for the output, interior of the result on its
/// left.
#[derive(Clone, Copy, Debug)]
struct DirEdge {
    from: Coord,
    to: Coord,
}

/// Overlay of exactly two polygons; returns the result as disjoint
/// polygons (shells with their holes).
fn overlay_pair(a: &Polygon, b: &Polygon, op: BoolOp) -> Result<Vec<Polygon>> {
    // Fast paths on envelopes.
    if !a.envelope().intersects(&b.envelope()) {
        return Ok(match op {
            BoolOp::Intersection => Vec::new(),
            BoolOp::Union => vec![a.clone(), b.clone()],
            BoolOp::Difference => vec![a.clone()],
        });
    }

    let snap = snap_epsilon(&a.envelope().union(&b.envelope()));
    let mut edges: Vec<DirEdge> = Vec::new();
    collect_selected_edges(a, b, op, /*reverse=*/ false, snap, &mut edges);
    let reverse_b = op == BoolOp::Difference;
    collect_selected_edges(b, a, op, reverse_b, snap, &mut edges);

    let rings = stitch_rings(edges, snap)?;
    assemble_polygons(rings)
}

fn snap_epsilon(env: &Envelope) -> f64 {
    let diag = (env.width().hypot(env.height())).max(1.0);
    diag * 1e-10
}

/// Splits `subject`'s directed boundary at intersections with `other` and
/// appends the sub-edges selected by `op` to `out`.
///
/// Selection rules (midpoint location in `other`):
/// * `Intersection`: keep interior midpoints; shared-boundary edges kept
///   from the first operand only, when both interiors are on the same side.
/// * `Union`: keep exterior midpoints; shared-boundary edges kept from the
///   first operand only, same-side rule.
/// * `Difference`, subject = A: keep exterior midpoints; shared edges kept
///   when interiors are on *opposite* sides.
/// * `Difference`, subject = B (`reverse = true`): keep interior midpoints,
///   reversed.
fn collect_selected_edges(
    subject: &Polygon,
    other: &Polygon,
    op: BoolOp,
    reverse: bool,
    snap: f64,
    out: &mut Vec<DirEdge>,
) {
    let is_first_operand = !reverse || op != BoolOp::Difference;
    let mut cuts: Vec<f64> = Vec::new();
    let mut overlaps: Vec<(f64, f64)> = Vec::new();
    for ring in subject.rings() {
        for (p, q) in ring.segments() {
            cuts.clear();
            overlaps.clear();
            cuts.push(0.0);
            cuts.push(1.0);
            for (r, s) in other.rings().flat_map(|rr| rr.segments()) {
                match segment_intersection(p, q, r, s) {
                    SegmentIntersection::None => {}
                    SegmentIntersection::Point(x) => cuts.push(param_on_segment(p, q, x)),
                    SegmentIntersection::Overlap(x, y) => {
                        let (tx, ty) = (param_on_segment(p, q, x), param_on_segment(p, q, y));
                        cuts.push(tx);
                        cuts.push(ty);
                        overlaps.push((tx.min(ty), tx.max(ty)));
                    }
                }
            }
            cuts.sort_by(f64::total_cmp);
            cuts.dedup_by(|x, y| (*x - *y).abs() < PARAM_EPS);
            for w in cuts.windows(2) {
                let (t0, t1) = (w[0], w[1]);
                let from = p.lerp(q, t0);
                let to = p.lerp(q, t1);
                if from.close_to(to, snap) {
                    continue;
                }
                let mid = p.lerp(q, (t0 + t1) * 0.5);
                // A sub-edge inside a collinear-overlap interval runs along
                // the other operand's boundary. This must be decided from
                // the recorded intervals, not by locating the rounded
                // midpoint: the midpoint of a diagonal edge is generally
                // *not* exactly on the line through its endpoints, so the
                // exact point-location would misclassify shared edges.
                let on_other_boundary =
                    overlaps.iter().any(|&(a, b)| a <= t0 + OVERLAP_TOL && t1 <= b + OVERLAP_TOL);
                let keep = if on_other_boundary {
                    shared_edge_keep(mid, from, to, other, op, is_first_operand, snap)
                } else {
                    match locate_in_polygon(mid, other) {
                        Location::Interior => matches!(
                            (op, reverse),
                            (BoolOp::Intersection, _) | (BoolOp::Difference, true)
                        ),
                        Location::Exterior => matches!(
                            (op, reverse),
                            (BoolOp::Union, _) | (BoolOp::Difference, false)
                        ),
                        Location::Boundary => {
                            shared_edge_keep(mid, from, to, other, op, is_first_operand, snap)
                        }
                    }
                };
                if keep {
                    if reverse {
                        out.push(DirEdge { from: to, to: from });
                    } else {
                        out.push(DirEdge { from, to });
                    }
                }
            }
        }
    }
}

/// Decides whether a sub-edge lying *on* the other operand's boundary
/// belongs to the result. The subject's interior is on the edge's left;
/// probe which side the other operand's interior is on.
fn shared_edge_keep(
    mid: Coord,
    from: Coord,
    to: Coord,
    other: &Polygon,
    op: BoolOp,
    is_first_operand: bool,
    snap: f64,
) -> bool {
    // Probe a point slightly to the left of the directed edge.
    let d = to - from;
    let n = Coord::new(-d.y, d.x); // left normal
    let len = n.norm();
    if len == 0.0 {
        return false;
    }
    let probe_dist = (snap * 1e3).min(d.norm() * 1e-3).max(snap * 10.0);
    let left_probe = Coord::new(mid.x + n.x / len * probe_dist, mid.y + n.y / len * probe_dist);
    let other_left = locate_in_polygon(left_probe, other) == Location::Interior;
    match op {
        // Same side ⇒ the edge bounds both regions identically.
        // With the interior on the left, "same side" means other_left.
        BoolOp::Intersection | BoolOp::Union => other_left && is_first_operand,
        // Difference keeps A-boundary edges where B is on the right.
        BoolOp::Difference => is_first_operand && !other_left,
    }
}

/// Integer grid key used to merge nearly identical coordinates.
fn snap_key(c: Coord, snap: f64) -> (i64, i64) {
    ((c.x / snap).round() as i64, (c.y / snap).round() as i64)
}

/// Chains directed edges into closed rings. At junction vertices the walk
/// takes the most counter-clockwise outgoing edge relative to the reversed
/// incoming direction, which traces faces keeping the interior on the left.
fn stitch_rings(edges: Vec<DirEdge>, snap: f64) -> Result<Vec<Vec<Coord>>> {
    // Snap coordinates so edges computed from different operand pairs meet.
    let mut nodes: HashMap<(i64, i64), Coord> = HashMap::new();
    let mut canon = |c: Coord| -> Coord {
        let k = snap_key(c, snap);
        // Check the cell and neighbours for an existing representative.
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(&rep) = nodes.get(&(k.0 + dx, k.1 + dy)) {
                    if rep.close_to(c, snap * 2.0) {
                        return rep;
                    }
                }
            }
        }
        nodes.insert(k, c);
        c
    };

    let mut canon_edges: Vec<(Coord, Coord)> = Vec::with_capacity(edges.len());
    for e in edges {
        let f = canon(e.from);
        let t = canon(e.to);
        if f != t {
            canon_edges.push((f, t));
        }
    }
    // Deduplicate identical directed edges (shared boundaries contribute
    // one copy from each operand in some configurations).
    canon_edges.sort_by(|a, b| {
        a.0.x
            .total_cmp(&b.0.x)
            .then(a.0.y.total_cmp(&b.0.y))
            .then(a.1.x.total_cmp(&b.1.x))
            .then(a.1.y.total_cmp(&b.1.y))
    });
    canon_edges.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);

    // Outgoing adjacency.
    let mut out_edges: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
    for (i, (f, _)) in canon_edges.iter().enumerate() {
        out_edges.entry(snap_key(*f, snap)).or_default().push(i);
    }

    let mut used = vec![false; canon_edges.len()];
    let mut rings: Vec<Vec<Coord>> = Vec::new();

    for start in 0..canon_edges.len() {
        if used[start] {
            continue;
        }
        let mut ring: Vec<Coord> = Vec::new();
        let mut current = start;
        let origin = canon_edges[start].0;
        ring.push(origin);
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > canon_edges.len() + 1 {
                // Unclosable chain: drop it rather than loop forever.
                ring.clear();
                break;
            }
            used[current] = true;
            let (from, to) = canon_edges[current];
            ring.push(to);
            if to == origin {
                break;
            }
            let Some(candidates) = out_edges.get(&snap_key(to, snap)) else {
                ring.clear();
                break;
            };
            let incoming = to - from;
            let mut best: Option<(usize, f64)> = None;
            for &cand in candidates {
                if used[cand] {
                    continue;
                }
                let dir = canon_edges[cand].1 - canon_edges[cand].0;
                // CCW angle from the reversed incoming direction.
                let back = -incoming;
                let ang = ccw_angle(back, dir);
                match best {
                    None => best = Some((cand, ang)),
                    Some((_, ba)) if ang < ba => best = Some((cand, ang)),
                    _ => {}
                }
            }
            match best {
                Some((next, _)) => current = next,
                None => {
                    ring.clear();
                    break;
                }
            }
        }
        if ring.len() >= 4 {
            rings.push(ring);
        }
    }
    Ok(rings)
}

/// Counter-clockwise angle in `(0, 2π]` from direction `a` to direction `b`.
fn ccw_angle(a: Coord, b: Coord) -> f64 {
    let ang = b.y.atan2(b.x) - a.y.atan2(a.x);
    let two_pi = std::f64::consts::TAU;
    let mut r = ang % two_pi;
    if r <= 0.0 {
        r += two_pi;
    }
    r
}

/// Groups stitched rings into polygons: CCW rings are shells, CW rings are
/// holes assigned to the smallest enclosing shell.
fn assemble_polygons(raw_rings: Vec<Vec<Coord>>) -> Result<Vec<Polygon>> {
    let mut shells: Vec<Ring> = Vec::new();
    let mut holes: Vec<Ring> = Vec::new();
    for mut coords in raw_rings {
        coords.dedup();
        if coords.len() < 4 || coords.first() != coords.last() {
            continue;
        }
        let Ok(ring) = Ring::new(coords) else {
            continue; // degenerate sliver: drop
        };
        if ring.area() < 1e-20 {
            continue;
        }
        if ring.is_ccw() {
            shells.push(ring);
        } else {
            holes.push(ring);
        }
    }

    let mut assigned: Vec<Vec<Ring>> = vec![Vec::new(); shells.len()];
    'hole: for hole in holes {
        let probe = hole.coords()[0];
        let mut best: Option<(usize, f64)> = None;
        for (i, shell) in shells.iter().enumerate() {
            if locate_in_ring(probe, shell.coords()) != Location::Exterior {
                let a = shell.area();
                if best.is_none_or(|(_, ba)| a < ba) {
                    best = Some((i, a));
                }
            }
        }
        if let Some((i, _)) = best {
            assigned[i].push(hole);
            continue 'hole;
        }
        // Orphan hole: numerical artefact; drop it.
    }

    Ok(shells.into_iter().zip(assigned).map(|(shell, hs)| Polygon::new(shell, hs)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::measures::area;

    fn sq(x0: f64, y0: f64, s: f64) -> Geometry {
        Polygon::from_xy(&[(x0, y0), (x0 + s, y0), (x0 + s, y0 + s), (x0, y0 + s)]).unwrap().into()
    }

    #[test]
    fn overlapping_squares_intersection() {
        let g = intersection(&sq(0.0, 0.0, 2.0), &sq(1.0, 1.0, 2.0)).unwrap();
        assert!((area(&g) - 1.0).abs() < 1e-9, "area = {}", area(&g));
    }

    #[test]
    fn overlapping_squares_union() {
        let g = union(&sq(0.0, 0.0, 2.0), &sq(1.0, 1.0, 2.0)).unwrap();
        assert!((area(&g) - 7.0).abs() < 1e-9, "area = {}", area(&g));
    }

    #[test]
    fn overlapping_squares_difference() {
        let g = difference(&sq(0.0, 0.0, 2.0), &sq(1.0, 1.0, 2.0)).unwrap();
        assert!((area(&g) - 3.0).abs() < 1e-9, "area = {}", area(&g));
    }

    #[test]
    fn disjoint_squares() {
        let a = sq(0.0, 0.0, 1.0);
        let b = sq(5.0, 5.0, 1.0);
        assert_eq!(area(&intersection(&a, &b).unwrap()), 0.0);
        assert!((area(&union(&a, &b).unwrap()) - 2.0).abs() < 1e-9);
        assert!((area(&difference(&a, &b).unwrap()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nested_squares() {
        let outer = sq(0.0, 0.0, 4.0);
        let inner = sq(1.0, 1.0, 2.0);
        assert!((area(&intersection(&outer, &inner).unwrap()) - 4.0).abs() < 1e-9);
        assert!((area(&union(&outer, &inner).unwrap()) - 16.0).abs() < 1e-9);
        // Difference punches a hole.
        let d = difference(&outer, &inner).unwrap();
        assert!((area(&d) - 12.0).abs() < 1e-9);
        match &d {
            Geometry::Polygon(p) => assert_eq!(p.holes().len(), 1),
            other => panic!("expected polygon with hole, got {other:?}"),
        }
    }

    #[test]
    fn shared_edge_squares_union() {
        // Two squares sharing a full edge: union is a 2×1 rectangle.
        let g = union(&sq(0.0, 0.0, 1.0), &sq(1.0, 0.0, 1.0)).unwrap();
        assert!((area(&g) - 2.0).abs() < 1e-9, "area = {}", area(&g));
        match &g {
            Geometry::Polygon(_) => {}
            other => panic!("expected single polygon, got {other:?}"),
        }
    }

    #[test]
    fn shared_edge_squares_intersection_is_empty_area() {
        let g = intersection(&sq(0.0, 0.0, 1.0), &sq(1.0, 0.0, 1.0)).unwrap();
        assert_eq!(area(&g), 0.0);
    }

    #[test]
    fn identical_squares() {
        let a = sq(0.0, 0.0, 2.0);
        assert!((area(&intersection(&a, &a).unwrap()) - 4.0).abs() < 1e-9);
        assert!((area(&union(&a, &a).unwrap()) - 4.0).abs() < 1e-9);
        assert_eq!(area(&difference(&a, &a).unwrap()), 0.0);
    }

    #[test]
    fn concave_intersection() {
        // L-shape ∩ square covering the notch.
        let l = Geometry::Polygon(
            Polygon::from_xy(&[
                (0.0, 0.0),
                (3.0, 0.0),
                (3.0, 1.0),
                (1.0, 1.0),
                (1.0, 3.0),
                (0.0, 3.0),
            ])
            .unwrap(),
        );
        let s = sq(0.5, 0.5, 2.0);
        let g = intersection(&l, &s).unwrap();
        // Overlap: the part of the square inside the L.
        // Square spans (0.5,0.5)-(2.5,2.5). Inside L: x in [0.5,2.5],y in [0.5,1]
        // → 2.0*0.5 = 1.0 ; plus x in [0.5,1], y in [1,2.5] → 0.5*1.5 = 0.75.
        assert!((area(&g) - 1.75).abs() < 1e-9, "area = {}", area(&g));
    }

    #[test]
    fn point_in_polygon_intersection() {
        let p: Geometry = Point::new(1.0, 1.0).unwrap().into();
        let s = sq(0.0, 0.0, 2.0);
        match intersection(&p, &s).unwrap() {
            Geometry::Point(pt) => assert_eq!(pt.coord(), Some(Coord::new(1.0, 1.0))),
            other => panic!("expected point, got {other:?}"),
        }
        let outside: Geometry = Point::new(9.0, 9.0).unwrap().into();
        assert!(intersection(&outside, &s).unwrap().is_empty());
    }

    #[test]
    fn line_line_intersections() {
        let a: Geometry = LineString::from_xy(&[(0.0, 0.0), (2.0, 2.0)]).unwrap().into();
        let b: Geometry = LineString::from_xy(&[(0.0, 2.0), (2.0, 0.0)]).unwrap().into();
        match intersection(&a, &b).unwrap() {
            Geometry::Point(p) => {
                assert!(p.coord().unwrap().close_to(Coord::new(1.0, 1.0), 1e-9))
            }
            other => panic!("expected point, got {other:?}"),
        }
        // Collinear overlap.
        let c: Geometry = LineString::from_xy(&[(1.0, 1.0), (5.0, 5.0)]).unwrap().into();
        match intersection(&a, &c).unwrap() {
            Geometry::LineString(l) => assert!((l.length() - 2.0_f64.sqrt()).abs() < 1e-9),
            other => panic!("expected linestring, got {other:?}"),
        }
    }

    #[test]
    fn line_polygon_intersection() {
        let l: Geometry = LineString::from_xy(&[(-1.0, 1.0), (3.0, 1.0)]).unwrap().into();
        let s = sq(0.0, 0.0, 2.0);
        match intersection(&l, &s).unwrap() {
            Geometry::LineString(ls) => assert!((ls.length() - 2.0).abs() < 1e-9),
            other => panic!("expected linestring, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_combination_errors() {
        let l: Geometry = LineString::from_xy(&[(0.0, 0.0), (1.0, 0.0)]).unwrap().into();
        assert!(union(&l, &sq(0.0, 0.0, 1.0)).is_err());
    }

    #[test]
    fn union_area_inclusion_exclusion() {
        // |A ∪ B| = |A| + |B| − |A ∩ B| must hold.
        let a = sq(0.0, 0.0, 3.0);
        let b = sq(1.5, 1.0, 3.0);
        let u = area(&union(&a, &b).unwrap());
        let i = area(&intersection(&a, &b).unwrap());
        assert!((u - (9.0 + 9.0 - i)).abs() < 1e-9);
    }

    #[test]
    fn multipolygon_operands() {
        let mp = Geometry::MultiPolygon(MultiPolygon(vec![
            Polygon::from_xy(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]).unwrap(),
            Polygon::from_xy(&[(3.0, 0.0), (4.0, 0.0), (4.0, 1.0), (3.0, 1.0)]).unwrap(),
        ]));
        let band = sq(0.0, 0.0, 5.0);
        assert!((area(&intersection(&mp, &band).unwrap()) - 2.0).abs() < 1e-9);
        assert!((area(&difference(&band, &mp).unwrap()) - 23.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod capsule_regression {
    use super::*;
    use crate::algorithms::buffer::buffer;
    use crate::algorithms::measures::area;
    use crate::LineString;

    /// Regression: adjacent-segment capsules share bitwise-identical arc
    /// runs; the overlay must merge them into one polygon (it used to drop
    /// the shared edges and fail to stitch).
    #[test]
    fn adjacent_capsules_union_into_one_polygon() {
        let s1: Geometry = LineString::from_xy(&[(0.0, 0.0), (5.0, 0.0)]).unwrap().into();
        let s2: Geometry = LineString::from_xy(&[(5.0, 0.0), (5.0, 5.0)]).unwrap().into();
        let c1 = buffer(&s1, 0.5).unwrap();
        let c2 = buffer(&s2, 0.5).unwrap();
        let u = union(&c1, &c2).unwrap();
        assert!(
            matches!(u, Geometry::Polygon(_)),
            "expected single polygon, got {:?}",
            u.geometry_type()
        );
        let a = area(&u);
        // Two capsules (each ≈ 5.78) minus the elbow overlap (≈ disc quarter
        // + square ≈ 0.94): ≈ 10.6.
        assert!(a > 10.3 && a < 10.9, "area = {a}");
    }
}
