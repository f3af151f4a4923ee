use crate::{
    Envelope, GeometryCollection, LineString, MultiLineString, MultiPoint, MultiPolygon, Point,
    Polygon,
};
use std::fmt;

/// The topological dimension of a geometry or of an intersection-matrix
/// cell, following the DE-9IM convention.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dimension {
    /// The empty set (written `F` in DE-9IM patterns, value −1 in OGC).
    Empty,
    /// Zero-dimensional: points.
    Zero,
    /// One-dimensional: curves.
    One,
    /// Two-dimensional: surfaces.
    Two,
}

impl Dimension {
    /// The larger of two dimensions (used when combining components).
    #[inline]
    pub fn max(self, other: Dimension) -> Dimension {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// OGC integer encoding: −1, 0, 1, 2.
    pub fn as_i32(self) -> i32 {
        match self {
            Dimension::Empty => -1,
            Dimension::Zero => 0,
            Dimension::One => 1,
            Dimension::Two => 2,
        }
    }

    /// The DE-9IM pattern character: `F`, `0`, `1` or `2`.
    pub fn as_char(self) -> char {
        match self {
            Dimension::Empty => 'F',
            Dimension::Zero => '0',
            Dimension::One => '1',
            Dimension::Two => '2',
        }
    }
}

/// Discriminant of the seven Simple Features geometry types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GeometryType {
    /// `POINT`
    Point,
    /// `LINESTRING`
    LineString,
    /// `POLYGON`
    Polygon,
    /// `MULTIPOINT`
    MultiPoint,
    /// `MULTILINESTRING`
    MultiLineString,
    /// `MULTIPOLYGON`
    MultiPolygon,
    /// `GEOMETRYCOLLECTION`
    GeometryCollection,
}

impl GeometryType {
    /// The WKT keyword for this type.
    pub fn wkt_keyword(self) -> &'static str {
        match self {
            GeometryType::Point => "POINT",
            GeometryType::LineString => "LINESTRING",
            GeometryType::Polygon => "POLYGON",
            GeometryType::MultiPoint => "MULTIPOINT",
            GeometryType::MultiLineString => "MULTILINESTRING",
            GeometryType::MultiPolygon => "MULTIPOLYGON",
            GeometryType::GeometryCollection => "GEOMETRYCOLLECTION",
        }
    }

    /// The WKB type code (1–7).
    pub fn wkb_code(self) -> u32 {
        match self {
            GeometryType::Point => 1,
            GeometryType::LineString => 2,
            GeometryType::Polygon => 3,
            GeometryType::MultiPoint => 4,
            GeometryType::MultiLineString => 5,
            GeometryType::MultiPolygon => 6,
            GeometryType::GeometryCollection => 7,
        }
    }
}

/// The closed sum of all geometry types — what flows through the SQL engine,
/// the indexes and the benchmark.
#[derive(Clone, Debug, PartialEq)]
pub enum Geometry {
    /// A single position.
    Point(Point),
    /// A polyline.
    LineString(LineString),
    /// A surface with optional holes.
    Polygon(Polygon),
    /// Several points.
    MultiPoint(MultiPoint),
    /// Several polylines.
    MultiLineString(MultiLineString),
    /// Several surfaces.
    MultiPolygon(MultiPolygon),
    /// A heterogeneous bag of geometries.
    GeometryCollection(GeometryCollection),
}

// Every decoded row and result row holds its geometries by value: 32 is
// the widest payload (a 24-byte `Polygon`) plus the discriminant.
const _: () = assert!(size_of::<Geometry>() == 32);

/// A geometry borrowed where it lies: a record's own point, linestring or
/// polygon, or a whole [`Geometry`] — what [`crate::wkb::encode_into`]
/// writes without a `Geometry` being built to hold it. Debug-prints as
/// the `Geometry` it stands for.
#[derive(Clone, Copy)]
pub enum GeometryRef<'a> {
    /// A single position.
    Point(&'a Point),
    /// A polyline.
    LineString(&'a LineString),
    /// A surface with optional holes.
    Polygon(&'a Polygon),
    /// Any geometry.
    Geometry(&'a Geometry),
}

impl<'a> From<&'a Point> for GeometryRef<'a> {
    fn from(p: &'a Point) -> Self {
        GeometryRef::Point(p)
    }
}

impl<'a> From<&'a LineString> for GeometryRef<'a> {
    fn from(l: &'a LineString) -> Self {
        GeometryRef::LineString(l)
    }
}

impl<'a> From<&'a Polygon> for GeometryRef<'a> {
    fn from(p: &'a Polygon) -> Self {
        GeometryRef::Polygon(p)
    }
}

impl<'a> From<&'a Geometry> for GeometryRef<'a> {
    fn from(g: &'a Geometry) -> Self {
        GeometryRef::Geometry(g)
    }
}

impl fmt::Debug for GeometryRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GeometryRef::Point(p) => f.debug_tuple("Point").field(p).finish(),
            GeometryRef::LineString(l) => f.debug_tuple("LineString").field(l).finish(),
            GeometryRef::Polygon(p) => f.debug_tuple("Polygon").field(p).finish(),
            GeometryRef::Geometry(g) => fmt::Debug::fmt(g, f),
        }
    }
}

impl Geometry {
    /// The type discriminant.
    pub fn geometry_type(&self) -> GeometryType {
        match self {
            Geometry::Point(_) => GeometryType::Point,
            Geometry::LineString(_) => GeometryType::LineString,
            Geometry::Polygon(_) => GeometryType::Polygon,
            Geometry::MultiPoint(_) => GeometryType::MultiPoint,
            Geometry::MultiLineString(_) => GeometryType::MultiLineString,
            Geometry::MultiPolygon(_) => GeometryType::MultiPolygon,
            Geometry::GeometryCollection(_) => GeometryType::GeometryCollection,
        }
    }

    /// `true` when the geometry contains no point of the plane.
    pub fn is_empty(&self) -> bool {
        match self {
            Geometry::Point(p) => p.is_empty(),
            Geometry::LineString(l) => l.is_empty(),
            Geometry::Polygon(_) => false, // a valid polygon always has area
            Geometry::MultiPoint(m) => m.is_empty(),
            Geometry::MultiLineString(m) => m.is_empty(),
            Geometry::MultiPolygon(m) => m.is_empty(),
            Geometry::GeometryCollection(c) => c.is_empty(),
        }
    }

    /// Topological dimension of the point set ([`Dimension::Empty`] for
    /// empty geometries; the max over members for collections).
    pub fn dimension(&self) -> Dimension {
        match self {
            Geometry::Point(p) => {
                if p.is_empty() {
                    Dimension::Empty
                } else {
                    Dimension::Zero
                }
            }
            Geometry::LineString(l) => {
                if l.is_empty() {
                    Dimension::Empty
                } else {
                    Dimension::One
                }
            }
            Geometry::Polygon(_) => Dimension::Two,
            Geometry::MultiPoint(m) => {
                if m.is_empty() {
                    Dimension::Empty
                } else {
                    Dimension::Zero
                }
            }
            Geometry::MultiLineString(m) => {
                if m.is_empty() {
                    Dimension::Empty
                } else {
                    Dimension::One
                }
            }
            Geometry::MultiPolygon(m) => {
                if m.is_empty() {
                    Dimension::Empty
                } else {
                    Dimension::Two
                }
            }
            Geometry::GeometryCollection(c) => {
                c.0.iter().map(Geometry::dimension).fold(Dimension::Empty, Dimension::max)
            }
        }
    }

    /// Minimum bounding rectangle.
    pub fn envelope(&self) -> Envelope {
        match self {
            Geometry::Point(p) => p.envelope(),
            Geometry::LineString(l) => l.envelope(),
            Geometry::Polygon(p) => p.envelope(),
            Geometry::MultiPoint(m) => m.envelope(),
            Geometry::MultiLineString(m) => m.envelope(),
            Geometry::MultiPolygon(m) => m.envelope(),
            Geometry::GeometryCollection(c) => c.envelope(),
        }
    }

    /// The combinatorial boundary per Simple Features:
    /// * point / multipoint → empty collection,
    /// * linestring → its two endpoints (empty if closed),
    /// * multilinestring → endpoints occurring an odd number of times
    ///   (the "mod-2" rule),
    /// * polygon → its rings as a multilinestring,
    /// * collections → boundaries of the members.
    pub fn boundary(&self) -> Geometry {
        match self {
            Geometry::Point(_) | Geometry::MultiPoint(_) => {
                Geometry::GeometryCollection(GeometryCollection(Vec::new()))
            }
            Geometry::LineString(l) => boundary_of_lines(std::slice::from_ref(l)),
            Geometry::MultiLineString(m) => boundary_of_lines(&m.0),
            Geometry::Polygon(p) => Geometry::MultiLineString(MultiLineString(
                p.rings().map(|r| r.to_linestring()).collect(),
            )),
            Geometry::MultiPolygon(m) => Geometry::MultiLineString(MultiLineString(
                m.0.iter().flat_map(|p| p.rings().map(|r| r.to_linestring())).collect(),
            )),
            Geometry::GeometryCollection(c) => Geometry::GeometryCollection(GeometryCollection(
                c.0.iter().map(Geometry::boundary).collect(),
            )),
        }
    }

    /// Total number of coordinates in the geometry (closing repeats counted).
    pub fn num_coords(&self) -> usize {
        match self {
            Geometry::Point(p) => usize::from(!p.is_empty()),
            Geometry::LineString(l) => l.num_coords(),
            Geometry::Polygon(p) => p.rings().map(|r| r.num_coords()).sum(),
            Geometry::MultiPoint(m) => m.0.iter().filter(|p| !p.is_empty()).count(),
            Geometry::MultiLineString(m) => m.0.iter().map(LineString::num_coords).sum(),
            Geometry::MultiPolygon(m) => {
                m.0.iter().map(|p| p.rings().map(|r| r.num_coords()).sum::<usize>()).sum()
            }
            Geometry::GeometryCollection(c) => c.0.iter().map(Geometry::num_coords).sum(),
        }
    }
}

/// Boundary of a set of linestrings under the mod-2 rule: an endpoint is on
/// the boundary iff it terminates an odd number of member curves.
fn boundary_of_lines(lines: &[LineString]) -> Geometry {
    use crate::Coord;
    let mut counts: Vec<(Coord, usize)> = Vec::new();
    let mut bump = |c: Coord| {
        if let Some(entry) = counts.iter_mut().find(|(k, _)| *k == c) {
            entry.1 += 1;
        } else {
            counts.push((c, 1));
        }
    };
    for l in lines {
        if l.is_empty() || l.is_closed() {
            continue;
        }
        if let (Some(s), Some(e)) = (l.start(), l.end()) {
            bump(s);
            bump(e);
        }
    }
    let pts: Vec<Point> =
        counts.into_iter().filter(|&(_, n)| n % 2 == 1).map(|(c, _)| Point(Some(c))).collect();
    Geometry::MultiPoint(MultiPoint(pts))
}

impl From<Point> for Geometry {
    fn from(p: Point) -> Geometry {
        Geometry::Point(p)
    }
}
impl From<LineString> for Geometry {
    fn from(l: LineString) -> Geometry {
        Geometry::LineString(l)
    }
}
impl From<Polygon> for Geometry {
    fn from(p: Polygon) -> Geometry {
        Geometry::Polygon(p)
    }
}
impl From<MultiPoint> for Geometry {
    fn from(m: MultiPoint) -> Geometry {
        Geometry::MultiPoint(m)
    }
}
impl From<MultiLineString> for Geometry {
    fn from(m: MultiLineString) -> Geometry {
        Geometry::MultiLineString(m)
    }
}
impl From<MultiPolygon> for Geometry {
    fn from(m: MultiPolygon) -> Geometry {
        Geometry::MultiPolygon(m)
    }
}
impl From<GeometryCollection> for Geometry {
    fn from(c: GeometryCollection) -> Geometry {
        Geometry::GeometryCollection(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coord;

    fn square() -> Polygon {
        Polygon::from_xy(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]).unwrap()
    }

    #[test]
    fn dimensions() {
        assert_eq!(Geometry::from(Point::new(0.0, 0.0).unwrap()).dimension(), Dimension::Zero);
        assert_eq!(Geometry::from(Point::empty()).dimension(), Dimension::Empty);
        assert_eq!(
            Geometry::from(LineString::from_xy(&[(0.0, 0.0), (1.0, 1.0)]).unwrap()).dimension(),
            Dimension::One
        );
        assert_eq!(Geometry::from(square()).dimension(), Dimension::Two);
        let gc = Geometry::GeometryCollection(GeometryCollection(vec![
            Geometry::from(Point::new(0.0, 0.0).unwrap()),
            Geometry::from(square()),
        ]));
        assert_eq!(gc.dimension(), Dimension::Two);
    }

    #[test]
    fn dimension_codes() {
        assert_eq!(Dimension::Empty.as_i32(), -1);
        assert_eq!(Dimension::Two.as_i32(), 2);
        assert_eq!(Dimension::Empty.as_char(), 'F');
        assert_eq!(Dimension::One.as_char(), '1');
        assert_eq!(Dimension::Zero.max(Dimension::One), Dimension::One);
    }

    #[test]
    fn boundary_of_open_line_is_endpoints() {
        let l = LineString::from_xy(&[(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)]).unwrap();
        match Geometry::from(l).boundary() {
            Geometry::MultiPoint(mp) => {
                assert_eq!(mp.0.len(), 2);
                assert_eq!(mp.0[0].coord(), Some(Coord::new(0.0, 0.0)));
                assert_eq!(mp.0[1].coord(), Some(Coord::new(2.0, 1.0)));
            }
            other => panic!("expected multipoint, got {other:?}"),
        }
    }

    #[test]
    fn boundary_of_closed_line_is_empty() {
        let ring = LineString::from_xy(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]).unwrap();
        match Geometry::from(ring).boundary() {
            Geometry::MultiPoint(mp) => assert!(mp.0.is_empty()),
            other => panic!("expected multipoint, got {other:?}"),
        }
    }

    #[test]
    fn mod2_boundary_rule() {
        // Two lines sharing an endpoint at (1,0): that point touches twice,
        // so it is NOT on the boundary of the multilinestring.
        let a = LineString::from_xy(&[(0.0, 0.0), (1.0, 0.0)]).unwrap();
        let b = LineString::from_xy(&[(1.0, 0.0), (2.0, 0.0)]).unwrap();
        match Geometry::MultiLineString(MultiLineString(vec![a, b])).boundary() {
            Geometry::MultiPoint(mp) => {
                let coords: Vec<_> = mp.0.iter().filter_map(Point::coord).collect();
                assert_eq!(coords.len(), 2);
                assert!(coords.contains(&Coord::new(0.0, 0.0)));
                assert!(coords.contains(&Coord::new(2.0, 0.0)));
            }
            other => panic!("expected multipoint, got {other:?}"),
        }
    }

    #[test]
    fn polygon_boundary_is_rings() {
        match Geometry::from(square()).boundary() {
            Geometry::MultiLineString(ml) => {
                assert_eq!(ml.0.len(), 1);
                assert!(ml.0[0].is_closed());
            }
            other => panic!("expected multilinestring, got {other:?}"),
        }
    }

    #[test]
    fn point_boundary_is_empty() {
        let b = Geometry::from(Point::new(1.0, 2.0).unwrap()).boundary();
        assert!(b.is_empty());
    }

    #[test]
    fn num_coords_counts_everything() {
        assert_eq!(Geometry::from(square()).num_coords(), 5);
        assert_eq!(Geometry::from(Point::empty()).num_coords(), 0);
    }

    #[test]
    fn type_metadata() {
        assert_eq!(GeometryType::Polygon.wkt_keyword(), "POLYGON");
        assert_eq!(GeometryType::MultiPolygon.wkb_code(), 6);
        assert_eq!(Geometry::from(square()).geometry_type(), GeometryType::Polygon);
    }
}
