//! The spatial (and scalar) function registry.
//!
//! A call's name is resolved once, at bind, to a [`Func`]
//! ([`Func::from_name`] is the one place a function name is
//! case-folded); evaluation, availability and the planner's questions
//! all go through that value.
//!
//! Two evaluation modes mirror the engines Jackpine compared:
//!
//! * [`FunctionMode::Exact`] — full exact geometry semantics and the full
//!   function set (the PostGIS-like profiles).
//! * [`FunctionMode::MbrOnly`] — topological predicates evaluated on
//!   minimum bounding rectangles only, and the constructive functions
//!   (buffer, overlay, hull, simplify) *unavailable* — the behaviour of
//!   MySQL's spatial support at the time of the paper, and the source of
//!   its feature-matrix gaps.

use crate::{Result, SqlError};
use jackpine_geom::algorithms as alg;
use jackpine_geom::{wkt, Envelope, Geometry, GeometryCollection, LineString, Point, Polygon};
use jackpine_storage::Value;
use jackpine_topo as topo;
use jackpine_topo::PredicateKind;

/// Spatial evaluation mode of an engine profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FunctionMode {
    /// Exact geometry semantics, full function set.
    Exact,
    /// MBR-approximate predicates, reduced function set.
    MbrOnly,
}

/// The topological predicates' SQL names (shared by planners and the
/// feature matrix), as [`topo::predicates::SQL_NAMES`] spells them.
pub use topo::predicates::SQL_NAMES as TOPO_PREDICATES;

/// A SQL function, resolved from its name at bind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Func {
    /// A named topological predicate (`ST_Intersects`, …): exact or on
    /// envelopes, as the profile's [`FunctionMode`] decides.
    Predicate(PredicateKind),
    /// An explicit MBR predicate, on envelopes in every mode: one of
    /// `MBREquals`, `MBRDisjoint`, `MBRIntersects`, `MBRTouches`,
    /// `MBRWithin`, `MBRContains` and `MBROverlaps`.
    Mbr(PredicateKind),
    /// `ST_GeomFromText(wkt)`
    GeomFromText,
    /// `ST_AsText(g)`
    AsText,
    /// `ST_Point(x, y)`
    Point,
    /// `ST_MakePoint(x, y)`, an alias of [`Func::Point`]
    MakePoint,
    /// `ST_MakeEnvelope(xmin, ymin, xmax, ymax)`
    MakeEnvelope,
    /// `ST_X(point)`
    X,
    /// `ST_Y(point)`
    Y,
    /// `ST_Area(g)`
    Area,
    /// `ST_Length(g)`
    Length,
    /// `ST_Perimeter(g)`, an alias of [`Func::Length`]
    Perimeter,
    /// `ST_Dimension(g)`
    Dimension,
    /// `ST_NumPoints(g)`
    NumPoints,
    /// `ST_NPoints(g)`, an alias of [`Func::NumPoints`]
    NPoints,
    /// `ST_GeometryType(g)`
    GeometryType,
    /// `ST_Envelope(g)`
    Envelope,
    /// `ST_Boundary(g)`
    Boundary,
    /// `ST_Centroid(g)`
    Centroid,
    /// `ST_Buffer(g, d [, quad_segs])`
    Buffer,
    /// `ST_ConvexHull(g)`
    ConvexHull,
    /// `ST_Simplify(g, tolerance)`
    Simplify,
    /// `ST_Union(a, b)`
    Union,
    /// `ST_Intersection(a, b)`
    Intersection,
    /// `ST_Difference(a, b)`
    Difference,
    /// `ST_IsEmpty(g)`
    IsEmpty,
    /// `ST_IsClosed(line)`
    IsClosed,
    /// `ST_StartPoint(line)`
    StartPoint,
    /// `ST_EndPoint(line)`
    EndPoint,
    /// `ST_NumGeometries(g)`
    NumGeometries,
    /// `ST_GeometryN(g, n)`, 1-based
    GeometryN,
    /// `ST_PointOnSurface(g)`
    PointOnSurface,
    /// `ST_AsBinary(g)`, as hex text
    AsBinary,
    /// `ST_GeomFromWKB(hex)`
    GeomFromWkb,
    /// `ST_Translate(g, dx, dy)`
    Translate,
    /// `ST_Scale(g, sx, sy)`
    Scale,
    /// `ST_Rotate(g, angle [, x0, y0])`
    Rotate,
    /// `ST_DistanceSphere(a, b)`
    DistanceSphere,
    /// `ST_LengthSphere(g)`
    LengthSphere,
    /// `ST_AreaSphere(g)`
    AreaSphere,
    /// `ST_Distance(a, b)`
    Distance,
    /// `ST_DWithin(a, b, d)`
    DWithin,
    /// `ST_Relate(a, b [, pattern])`
    Relate,
    /// `ABS(x)`
    Abs,
    /// `UPPER(s)`
    Upper,
    /// `LOWER(s)`
    Lower,
    /// `CHAR_LENGTH(s)`
    CharLength,
}

/// The upper-cased SQL name of every [`Func`] but [`Func::Predicate`]
/// (whose names [`topo::predicates::SQL_NAMES`] spells): the one place
/// each is spelled.
const NAMES: [(Func, &str); 52] = [
    (Func::GeomFromText, "ST_GEOMFROMTEXT"),
    (Func::AsText, "ST_ASTEXT"),
    (Func::Point, "ST_POINT"),
    (Func::MakePoint, "ST_MAKEPOINT"),
    (Func::MakeEnvelope, "ST_MAKEENVELOPE"),
    (Func::X, "ST_X"),
    (Func::Y, "ST_Y"),
    (Func::Area, "ST_AREA"),
    (Func::Length, "ST_LENGTH"),
    (Func::Perimeter, "ST_PERIMETER"),
    (Func::Dimension, "ST_DIMENSION"),
    (Func::NumPoints, "ST_NUMPOINTS"),
    (Func::NPoints, "ST_NPOINTS"),
    (Func::GeometryType, "ST_GEOMETRYTYPE"),
    (Func::Envelope, "ST_ENVELOPE"),
    (Func::Boundary, "ST_BOUNDARY"),
    (Func::Centroid, "ST_CENTROID"),
    (Func::Buffer, "ST_BUFFER"),
    (Func::ConvexHull, "ST_CONVEXHULL"),
    (Func::Simplify, "ST_SIMPLIFY"),
    (Func::Union, "ST_UNION"),
    (Func::Intersection, "ST_INTERSECTION"),
    (Func::Difference, "ST_DIFFERENCE"),
    (Func::IsEmpty, "ST_ISEMPTY"),
    (Func::IsClosed, "ST_ISCLOSED"),
    (Func::StartPoint, "ST_STARTPOINT"),
    (Func::EndPoint, "ST_ENDPOINT"),
    (Func::NumGeometries, "ST_NUMGEOMETRIES"),
    (Func::GeometryN, "ST_GEOMETRYN"),
    (Func::PointOnSurface, "ST_POINTONSURFACE"),
    (Func::AsBinary, "ST_ASBINARY"),
    (Func::GeomFromWkb, "ST_GEOMFROMWKB"),
    (Func::Translate, "ST_TRANSLATE"),
    (Func::Scale, "ST_SCALE"),
    (Func::Rotate, "ST_ROTATE"),
    (Func::DistanceSphere, "ST_DISTANCESPHERE"),
    (Func::LengthSphere, "ST_LENGTHSPHERE"),
    (Func::AreaSphere, "ST_AREASPHERE"),
    (Func::Distance, "ST_DISTANCE"),
    (Func::DWithin, "ST_DWITHIN"),
    (Func::Relate, "ST_RELATE"),
    (Func::Mbr(PredicateKind::Equals), "MBREQUALS"),
    (Func::Mbr(PredicateKind::Disjoint), "MBRDISJOINT"),
    (Func::Mbr(PredicateKind::Intersects), "MBRINTERSECTS"),
    (Func::Mbr(PredicateKind::Touches), "MBRTOUCHES"),
    (Func::Mbr(PredicateKind::Within), "MBRWITHIN"),
    (Func::Mbr(PredicateKind::Contains), "MBRCONTAINS"),
    (Func::Mbr(PredicateKind::Overlaps), "MBROVERLAPS"),
    (Func::Abs, "ABS"),
    (Func::Upper, "UPPER"),
    (Func::Lower, "LOWER"),
    (Func::CharLength, "CHAR_LENGTH"),
];

impl Func {
    /// Every function, the named predicates first: the registry
    /// [`Func::from_name`] resolves names in.
    pub fn all() -> impl Iterator<Item = Func> {
        PredicateKind::ALL.into_iter().map(Func::Predicate).chain(NAMES.iter().map(|&(f, _)| f))
    }

    /// Resolves a SQL function name written in any case: the one place
    /// a function name is case-folded. `None` for a name no function
    /// has; the aggregates are the planner's, not functions.
    pub fn from_name(name: &str) -> Option<Func> {
        let upper = name.to_ascii_uppercase();
        match PredicateKind::from_sql_name(&upper) {
            Some(kind) => Some(Func::Predicate(kind)),
            None => NAMES.iter().find(|(_, n)| *n == upper).map(|&(f, _)| f),
        }
    }

    /// The upper-cased SQL name, as error texts spell it.
    ///
    /// # Panics
    ///
    /// On a [`Func::Mbr`] of a kind no MBR function names (crosses,
    /// covers, covered-by), which [`Func::from_name`] never returns.
    pub fn name(self) -> &'static str {
        match self {
            Func::Predicate(kind) => kind.sql_name(),
            _ => NAMES
                .iter()
                .find(|(f, _)| *f == self)
                .map(|&(_, n)| n)
                .expect("NAMES spells every function but the predicates"),
        }
    }

    /// Whether the function is available in `mode`. The MBR-only profile
    /// lacks the MySQL-era gaps that Jackpine's feature matrix reports:
    /// the constructive functions, `ST_Relate`, `ST_Covers`,
    /// `ST_CoveredBy` and `ST_DWithin`, geodetic measures (one of the
    /// axes the paper's feature comparison calls out) and affine editing.
    pub fn available_in(self, mode: FunctionMode) -> bool {
        mode == FunctionMode::Exact
            || !matches!(
                self,
                Func::Buffer
                    | Func::ConvexHull
                    | Func::Union
                    | Func::Intersection
                    | Func::Difference
                    | Func::Simplify
                    | Func::Relate
                    | Func::Predicate(PredicateKind::Covers | PredicateKind::CoveredBy)
                    | Func::DWithin
                    | Func::DistanceSphere
                    | Func::LengthSphere
                    | Func::AreaSphere
                    | Func::Translate
                    | Func::Scale
                    | Func::Rotate
            )
    }

    /// Whether the planner can serve a call with a spatial-index filter
    /// step: `ST_DWithin`, and every predicate the envelope rule
    /// ([`PredicateKind::on_disjoint_envelopes`]) makes false for
    /// geometries whose envelopes do not meet, which are the rows an
    /// index skips.
    pub fn is_index_filter(self) -> bool {
        match self {
            Func::Predicate(kind) | Func::Mbr(kind) => {
                kind.on_disjoint_envelopes(&Envelope::EMPTY, &Envelope::EMPTY) == Some(false)
            }
            Func::DWithin => true,
            _ => false,
        }
    }

    /// The predicate a call decides on its two geometries' envelopes
    /// alone in `mode` ([`mbr_predicate`]): an explicit MBR predicate in
    /// every mode, and a named one the MBR-only profile has.
    pub(crate) fn envelope_test(self, mode: FunctionMode) -> Option<PredicateKind> {
        match self {
            Func::Mbr(kind) => Some(kind),
            Func::Predicate(kind) if mode == FunctionMode::MbrOnly && self.available_in(mode) => {
                Some(kind)
            }
            _ => None,
        }
    }

    /// Whether a call with constant arguments is evaluated once, at bind:
    /// the cheap constructors, whose answers no profile changes.
    pub(crate) fn is_foldable(self) -> bool {
        matches!(self, Func::GeomFromText | Func::Point | Func::MakePoint | Func::MakeEnvelope)
    }
}

/// Evaluates a (non-aggregate) function call on already-computed argument
/// values. Every function is strict, as PostGIS's are: a NULL argument
/// gives a NULL result. Availability is checked here, not at bind, so a
/// function the profile lacks fails only when a call is evaluated.
pub fn call(mode: FunctionMode, func: Func, args: &[Value]) -> Result<Value> {
    if !func.available_in(mode) {
        return Err(SqlError::UnsupportedFeature(func.name().to_string()));
    }
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    let geom = |i| geom_arg(func, args, i);
    let num = |i| num_arg(func, args, i);
    let text = |i| text_arg(func, args, i);
    match func {
        // ----- constructors ------------------------------------------------
        Func::GeomFromText => Ok(Value::Geom(wkt::parse(text(0)?)?)),
        Func::AsText => Ok(Value::Text(wkt::write(geom(0)?))),
        Func::Point | Func::MakePoint => {
            Ok(Value::Geom(Geometry::Point(Point::new(num(0)?, num(1)?)?)))
        }
        Func::MakeEnvelope => {
            let e = Envelope::new(num(0)?, num(1)?, num(2)?, num(3)?);
            Ok(Value::Geom(envelope_geometry(&e)))
        }

        // ----- accessors / measures ---------------------------------------
        Func::X => point_component(func, args, |c| c.x),
        Func::Y => point_component(func, args, |c| c.y),
        Func::Area => Ok(Value::Float(alg::area(geom(0)?))),
        Func::Length | Func::Perimeter => Ok(Value::Float(alg::length(geom(0)?))),
        Func::Dimension => Ok(Value::Int(geom(0)?.dimension().as_i32() as i64)),
        Func::NumPoints | Func::NPoints => Ok(Value::Int(geom(0)?.num_coords() as i64)),
        Func::GeometryType => {
            Ok(Value::Text(format!("ST_{}", geom(0)?.geometry_type().wkt_keyword())))
        }
        Func::Envelope => Ok(Value::Geom(envelope_geometry(&geom(0)?.envelope()))),
        Func::Boundary => Ok(Value::Geom(geom(0)?.boundary())),
        Func::Centroid => Ok(match alg::centroid(geom(0)?) {
            Some(c) => Value::Geom(Geometry::Point(Point::from_coord(c)?)),
            None => Value::Geom(Geometry::GeometryCollection(GeometryCollection(vec![]))),
        }),

        // ----- constructive -------------------------------------------------
        Func::Buffer => {
            let g = geom(0)?;
            let d = num(1)?;
            let quad = match args.get(2) {
                Some(v) => {
                    v.as_f64().ok_or_else(|| SqlError::Type("quad_segs must be numeric".into()))?
                        as usize
                }
                None => alg::buffer::DEFAULT_QUAD_SEGS,
            };
            Ok(Value::Geom(alg::buffer::buffer_with_segments(g, d, quad)?))
        }
        Func::ConvexHull => Ok(Value::Geom(alg::convex_hull(geom(0)?)?)),
        Func::Simplify => Ok(Value::Geom(alg::simplify(geom(0)?, num(1)?)?)),
        Func::Union => Ok(Value::Geom(alg::union(geom(0)?, geom(1)?)?)),
        Func::Intersection => Ok(Value::Geom(alg::intersection(geom(0)?, geom(1)?)?)),
        Func::Difference => Ok(Value::Geom(alg::difference(geom(0)?, geom(1)?)?)),

        // ----- accessors (structural) -----------------------------------------
        Func::IsEmpty => Ok(bool_value(geom(0)?.is_empty())),
        Func::IsClosed => match geom(0)? {
            Geometry::LineString(l) => Ok(bool_value(l.is_closed())),
            Geometry::MultiLineString(m) => {
                Ok(bool_value(!m.0.is_empty() && m.0.iter().all(LineString::is_closed)))
            }
            _ => Err(SqlError::Type(format!("{}: argument must be a line", func.name()))),
        },
        Func::StartPoint | Func::EndPoint => match geom(0)? {
            Geometry::LineString(l) => {
                let c = if func == Func::StartPoint { l.start() } else { l.end() };
                Ok(match c {
                    Some(c) => Value::Geom(Geometry::Point(Point::from_coord(c)?)),
                    None => Value::Null,
                })
            }
            _ => Err(SqlError::Type(format!("{}: argument must be a linestring", func.name()))),
        },
        Func::NumGeometries => {
            let n = match geom(0)? {
                Geometry::MultiPoint(m) => m.0.len(),
                Geometry::MultiLineString(m) => m.0.len(),
                Geometry::MultiPolygon(m) => m.0.len(),
                Geometry::GeometryCollection(c) => c.0.len(),
                _ => 1,
            };
            Ok(Value::Int(n as i64))
        }
        Func::GeometryN => {
            let n = num(1)? as usize;
            if n < 1 {
                return Err(SqlError::Type("ST_GeometryN index starts at 1".into()));
            }
            let member = match geom(0)? {
                Geometry::MultiPoint(m) => m.0.get(n - 1).copied().map(Geometry::Point),
                Geometry::MultiLineString(m) => m.0.get(n - 1).cloned().map(Geometry::LineString),
                Geometry::MultiPolygon(m) => m.0.get(n - 1).cloned().map(Geometry::Polygon),
                Geometry::GeometryCollection(c) => c.0.get(n - 1).cloned(),
                single if n == 1 => Some(single.clone()),
                _ => None,
            };
            Ok(member.map(Value::Geom).unwrap_or(Value::Null))
        }
        Func::PointOnSurface => match geom(0)? {
            Geometry::Polygon(p) => {
                Ok(Value::Geom(Geometry::Point(Point::from_coord(topo::interior_point(p))?)))
            }
            Geometry::MultiPolygon(m) => match m.0.first() {
                Some(p) => {
                    Ok(Value::Geom(Geometry::Point(Point::from_coord(topo::interior_point(p))?)))
                }
                None => Ok(Value::Null),
            },
            Geometry::Point(p) => Ok(Value::Geom(Geometry::Point(*p))),
            other => Err(SqlError::Type(format!(
                "{}: unsupported argument type {:?}",
                func.name(),
                other.geometry_type()
            ))),
        },

        // ----- binary serialization ---------------------------------------------
        Func::AsBinary => Ok(Value::Text(hex_encode(&jackpine_geom::wkb::encode(geom(0)?)))),
        Func::GeomFromWkb => {
            let bytes =
                hex_decode(text(0)?).ok_or_else(|| SqlError::Type("malformed hex WKB".into()))?;
            Ok(Value::Geom(jackpine_geom::wkb::decode(&bytes)?))
        }

        // ----- affine editing --------------------------------------------------
        Func::Translate => Ok(Value::Geom(alg::affine::translate(geom(0)?, num(1)?, num(2)?)?)),
        Func::Scale => Ok(Value::Geom(alg::affine::scale(geom(0)?, num(1)?, num(2)?)?)),
        Func::Rotate => {
            let g = geom(0)?;
            let angle = num(1)?;
            let origin = match (args.get(2), args.get(3)) {
                (Some(x), Some(y)) => jackpine_geom::Coord::new(
                    x.as_f64()
                        .ok_or_else(|| SqlError::Type("rotation origin must be numeric".into()))?,
                    y.as_f64()
                        .ok_or_else(|| SqlError::Type("rotation origin must be numeric".into()))?,
                ),
                _ => jackpine_geom::Coord::new(0.0, 0.0),
            };
            Ok(Value::Geom(alg::affine::rotate(g, angle, origin)?))
        }

        // ----- geodetic measures ---------------------------------------------
        Func::DistanceSphere => {
            let d = alg::geodesic::distance_sphere(geom(0)?, geom(1)?);
            Ok(if d.is_finite() { Value::Float(d) } else { Value::Null })
        }
        Func::LengthSphere => Ok(Value::Float(alg::geodesic::length_sphere(geom(0)?))),
        Func::AreaSphere => Ok(Value::Float(alg::geodesic::area_sphere(geom(0)?))),

        // ----- metric predicates -------------------------------------------
        Func::Distance => {
            let d = alg::distance(geom(0)?, geom(1)?);
            Ok(if d.is_finite() { Value::Float(d) } else { Value::Null })
        }
        Func::DWithin => {
            let d = alg::distance(geom(0)?, geom(1)?);
            Ok(bool_value(d <= num(2)?))
        }

        Func::Relate => {
            let m = topo::relate(geom(0)?, geom(1)?)?;
            match args.get(2) {
                Some(p) => {
                    let pattern = p
                        .as_str()
                        .ok_or_else(|| SqlError::Type("relate pattern must be text".into()))?;
                    Ok(bool_value(m.matches(pattern)?))
                }
                None => Ok(Value::Text(m.to_string())),
            }
        }

        // ----- topological predicates -----------------------------------------
        Func::Predicate(kind) => {
            let (a, b) = (geom(0)?, geom(1)?);
            Ok(bool_value(match mode {
                FunctionMode::Exact => topo::holds(kind, a, b)?,
                FunctionMode::MbrOnly => mbr_predicate(kind, &a.envelope(), &b.envelope()),
            }))
        }
        // ----- explicit MBR predicates (available in every mode) ------------
        Func::Mbr(kind) => {
            Ok(bool_value(mbr_predicate(kind, &geom(0)?.envelope(), &geom(1)?.envelope())))
        }

        // ----- scalar helpers ------------------------------------------------
        Func::Abs => Ok(Value::Float(num(0)?.abs())),
        Func::Upper => Ok(Value::Text(text(0)?.to_uppercase())),
        Func::Lower => Ok(Value::Text(text(0)?.to_lowercase())),
        Func::CharLength => Ok(Value::Int(text(0)?.chars().count() as i64)),
    }
}

/// MBR-approximate evaluation of a named predicate (the MySQL-era
/// semantics: correct for rectangles, a superset/approximation for real
/// shapes), behind the envelope rule the exact predicates apply
/// ([`PredicateKind::on_disjoint_envelopes`]): envelopes that do not
/// meet, an empty one among them, satisfy Disjoint alone, so a scan
/// answers as an index probe does.
pub(crate) fn mbr_predicate(kind: PredicateKind, a: &Envelope, b: &Envelope) -> bool {
    if let Some(value) = kind.on_disjoint_envelopes(a, b) {
        return value;
    }
    match kind {
        PredicateKind::Equals => a == b,
        PredicateKind::Disjoint => false,
        PredicateKind::Intersects => true,
        PredicateKind::Within => b.contains_envelope(a),
        PredicateKind::Contains => a.contains_envelope(b),
        // Rectangles touch when they meet only along their boundary.
        PredicateKind::Touches => a.intersection(b).is_some_and(|i| i.area() == 0.0),
        // Interiors intersect, neither contains the other.
        PredicateKind::Overlaps | PredicateKind::Crosses => {
            a.intersection(b).is_some_and(|i| i.area() > 0.0)
                && !a.contains_envelope(b)
                && !b.contains_envelope(a)
        }
        PredicateKind::Covers | PredicateKind::CoveredBy => false,
    }
}

/// Builds the geometry of an envelope: point, line or polygon depending on
/// degeneracy.
fn envelope_geometry(e: &Envelope) -> Geometry {
    if e.is_empty() {
        return Geometry::GeometryCollection(GeometryCollection(vec![]));
    }
    if e.width() == 0.0 && e.height() == 0.0 {
        return Geometry::Point(Point::new(e.min_x, e.min_y).expect("finite envelope corner"));
    }
    if e.width() == 0.0 || e.height() == 0.0 {
        let l = LineString::new(vec![
            jackpine_geom::Coord::new(e.min_x, e.min_y),
            jackpine_geom::Coord::new(e.max_x, e.max_y),
        ])
        .expect("distinct corners of a degenerate envelope");
        return Geometry::LineString(l);
    }
    Geometry::Polygon(Polygon::from_envelope(e).expect("non-degenerate envelope"))
}

fn bool_value(b: bool) -> Value {
    Value::Int(i64::from(b))
}

fn geom_arg(func: Func, args: &[Value], i: usize) -> Result<&Geometry> {
    args.get(i)
        .and_then(Value::as_geom)
        .ok_or_else(|| SqlError::Type(format!("{}: argument {i} must be a geometry", func.name())))
}

fn num_arg(func: Func, args: &[Value], i: usize) -> Result<f64> {
    args.get(i)
        .and_then(Value::as_f64)
        .ok_or_else(|| SqlError::Type(format!("{}: argument {i} must be numeric", func.name())))
}

fn text_arg(func: Func, args: &[Value], i: usize) -> Result<&str> {
    args.get(i)
        .and_then(Value::as_str)
        .ok_or_else(|| SqlError::Type(format!("{}: argument {i} must be text", func.name())))
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02X}"));
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2).map(|i| u8::from_str_radix(s.get(2 * i..2 * i + 2)?, 16).ok()).collect()
}

fn point_component(
    func: Func,
    args: &[Value],
    f: impl Fn(jackpine_geom::Coord) -> f64,
) -> Result<Value> {
    match geom_arg(func, args, 0)? {
        Geometry::Point(p) => Ok(match p.coord() {
            Some(c) => Value::Float(f(c)),
            None => Value::Null,
        }),
        _ => Err(SqlError::Type(format!("{}: argument must be a point", func.name()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(w: &str) -> Value {
        Value::Geom(wkt::parse(w).unwrap())
    }

    #[test]
    fn constructors_and_accessors() {
        let g = call(FunctionMode::Exact, Func::GeomFromText, &[Value::Text("POINT (1 2)".into())])
            .unwrap();
        assert_eq!(
            call(FunctionMode::Exact, Func::X, std::slice::from_ref(&g)).unwrap(),
            Value::Float(1.0)
        );
        assert_eq!(
            call(FunctionMode::Exact, Func::Y, std::slice::from_ref(&g)).unwrap(),
            Value::Float(2.0)
        );
        assert_eq!(
            call(FunctionMode::Exact, Func::AsText, &[g]).unwrap(),
            Value::Text("POINT (1 2)".into())
        );
    }

    #[test]
    fn a_null_argument_gives_a_null_result() {
        let p = geom("POINT (1 2)");
        for (func, args) in [
            (Func::Distance, vec![Value::Null, p.clone()]),
            (Func::Predicate(PredicateKind::Intersects), vec![p.clone(), Value::Null]),
            (Func::Buffer, vec![p.clone(), Value::Null]),
            (Func::Area, vec![Value::Null]),
            (Func::GeomFromText, vec![Value::Null]),
        ] {
            assert_eq!(call(FunctionMode::Exact, func, &args).unwrap(), Value::Null, "{func:?}");
        }
        // Availability is still the profile's to decide.
        let err = call(FunctionMode::MbrOnly, Func::Buffer, &[Value::Null, Value::Null]);
        assert!(matches!(err, Err(SqlError::UnsupportedFeature(_))));
    }

    #[test]
    fn measures() {
        let sq = geom("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))");
        assert_eq!(
            call(FunctionMode::Exact, Func::Area, std::slice::from_ref(&sq)).unwrap(),
            Value::Float(4.0)
        );
        assert_eq!(
            call(FunctionMode::Exact, Func::Length, std::slice::from_ref(&sq)).unwrap(),
            Value::Float(8.0)
        );
        assert_eq!(
            call(FunctionMode::Exact, Func::Dimension, std::slice::from_ref(&sq)).unwrap(),
            Value::Int(2)
        );
        assert_eq!(call(FunctionMode::Exact, Func::NumPoints, &[sq]).unwrap(), Value::Int(5));
    }

    #[test]
    fn predicates_exact_vs_mbr() {
        // A diagonal line and a square that intersect in MBR but not in
        // reality: the canonical Jackpine false-positive case.
        let line = geom("LINESTRING (0 0, 10 10)");
        let poly = geom("POLYGON ((8 0, 9 0, 9 1, 8 1, 8 0))");
        let exact = call(
            FunctionMode::Exact,
            Func::Predicate(PredicateKind::Intersects),
            &[line.clone(), poly.clone()],
        )
        .unwrap();
        let mbr =
            call(FunctionMode::MbrOnly, Func::Predicate(PredicateKind::Intersects), &[line, poly])
                .unwrap();
        assert_eq!(exact, Value::Int(0));
        assert_eq!(mbr, Value::Int(1)); // MBR false positive
    }

    #[test]
    fn mbr_mode_feature_gaps() {
        let sq = geom("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))");
        let err = call(FunctionMode::MbrOnly, Func::Buffer, &[sq.clone(), Value::Float(1.0)]);
        assert!(matches!(err, Err(SqlError::UnsupportedFeature(_))));
        assert!(Func::Area.available_in(FunctionMode::MbrOnly));
        assert!(!Func::ConvexHull.available_in(FunctionMode::MbrOnly));
        assert!(Func::ConvexHull.available_in(FunctionMode::Exact));
        // Measures still work in MBR mode.
        assert_eq!(call(FunctionMode::MbrOnly, Func::Area, &[sq]).unwrap(), Value::Float(4.0));
    }

    #[test]
    fn relate_matrix_and_pattern() {
        let a = geom("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))");
        let b = geom("POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))");
        let m = call(FunctionMode::Exact, Func::Relate, &[a.clone(), b.clone()]).unwrap();
        assert_eq!(m, Value::Text("212101212".into()));
        let hit = call(FunctionMode::Exact, Func::Relate, &[a, b, Value::Text("T*T***T**".into())])
            .unwrap();
        assert_eq!(hit, Value::Int(1));
    }

    #[test]
    fn distance_and_dwithin() {
        let a = geom("POINT (0 0)");
        let b = geom("POINT (3 4)");
        assert_eq!(
            call(FunctionMode::Exact, Func::Distance, &[a.clone(), b.clone()]).unwrap(),
            Value::Float(5.0)
        );
        assert_eq!(
            call(FunctionMode::Exact, Func::DWithin, &[a.clone(), b.clone(), Value::Float(5.0)])
                .unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            call(FunctionMode::Exact, Func::DWithin, &[a, b, Value::Float(4.9)]).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn envelope_degeneracies() {
        let p = geom("POINT (1 2)");
        assert!(matches!(
            call(FunctionMode::Exact, Func::Envelope, &[p]).unwrap(),
            Value::Geom(Geometry::Point(_))
        ));
        let l = geom("LINESTRING (0 0, 0 5)");
        assert!(matches!(
            call(FunctionMode::Exact, Func::Envelope, &[l]).unwrap(),
            Value::Geom(Geometry::LineString(_))
        ));
        let sq = geom("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))");
        assert!(matches!(
            call(FunctionMode::Exact, Func::Envelope, &[sq]).unwrap(),
            Value::Geom(Geometry::Polygon(_))
        ));
    }

    #[test]
    fn type_errors() {
        assert!(call(FunctionMode::Exact, Func::Area, &[Value::Int(1)]).is_err());
        assert!(call(FunctionMode::Exact, Func::X, &[geom("LINESTRING (0 0, 1 1)")]).is_err());
        assert!(call(FunctionMode::Exact, Func::GeomFromText, &[Value::Int(2)]).is_err());
    }

    #[test]
    fn explicit_mbr_functions_work_in_exact_mode() {
        let line = geom("LINESTRING (0 0, 10 10)");
        let poly = geom("POLYGON ((8 0, 9 0, 9 1, 8 1, 8 0))");
        assert_eq!(
            call(FunctionMode::Exact, Func::Mbr(PredicateKind::Intersects), &[line, poly]).unwrap(),
            Value::Int(1)
        );
    }

    /// Every name the registry accepted when it dispatched on the name
    /// at each call.
    const ACCEPTED: [&str; 62] = [
        "ST_GEOMFROMTEXT",
        "ST_ASTEXT",
        "ST_POINT",
        "ST_MAKEPOINT",
        "ST_MAKEENVELOPE",
        "ST_X",
        "ST_Y",
        "ST_AREA",
        "ST_LENGTH",
        "ST_PERIMETER",
        "ST_DIMENSION",
        "ST_NUMPOINTS",
        "ST_NPOINTS",
        "ST_GEOMETRYTYPE",
        "ST_ENVELOPE",
        "ST_BOUNDARY",
        "ST_CENTROID",
        "ST_BUFFER",
        "ST_CONVEXHULL",
        "ST_SIMPLIFY",
        "ST_UNION",
        "ST_INTERSECTION",
        "ST_DIFFERENCE",
        "ST_ISEMPTY",
        "ST_ISCLOSED",
        "ST_STARTPOINT",
        "ST_ENDPOINT",
        "ST_NUMGEOMETRIES",
        "ST_GEOMETRYN",
        "ST_POINTONSURFACE",
        "ST_ASBINARY",
        "ST_GEOMFROMWKB",
        "ST_TRANSLATE",
        "ST_SCALE",
        "ST_ROTATE",
        "ST_DISTANCESPHERE",
        "ST_LENGTHSPHERE",
        "ST_AREASPHERE",
        "ST_DISTANCE",
        "ST_DWITHIN",
        "ST_RELATE",
        "MBRINTERSECTS",
        "MBRCONTAINS",
        "MBRWITHIN",
        "MBREQUALS",
        "MBRDISJOINT",
        "MBROVERLAPS",
        "MBRTOUCHES",
        "ABS",
        "UPPER",
        "LOWER",
        "CHAR_LENGTH",
        "ST_EQUALS",
        "ST_DISJOINT",
        "ST_INTERSECTS",
        "ST_TOUCHES",
        "ST_CROSSES",
        "ST_WITHIN",
        "ST_CONTAINS",
        "ST_OVERLAPS",
        "ST_COVERS",
        "ST_COVEREDBY",
    ];

    #[test]
    fn every_accepted_name_resolves_in_any_case_and_round_trips() {
        for name in ACCEPTED {
            let mixed: String = name
                .chars()
                .enumerate()
                .map(|(i, c)| if i % 2 == 1 { c.to_ascii_lowercase() } else { c })
                .collect();
            let func = Func::from_name(&mixed).unwrap_or_else(|| panic!("{mixed} resolves"));
            assert_eq!(Func::from_name(&name.to_ascii_lowercase()), Some(func));
            // Each name is its own function, aliases included, so an
            // error text names the function as it was called.
            assert_eq!(func.name(), name);
            assert_eq!(Func::from_name(func.name()), Some(func));
        }
        for unknown in ["ST_NoSuch", "COUNT", "MBRCrosses", "MBRCovers", "ST_", ""] {
            assert_eq!(Func::from_name(unknown), None, "{unknown}");
        }
    }

    #[test]
    fn an_alias_names_itself_in_its_errors() {
        for (func, text) in [
            (Func::Point, "ST_POINT: argument 0 must be numeric"),
            (Func::MakePoint, "ST_MAKEPOINT: argument 0 must be numeric"),
            (Func::Length, "ST_LENGTH: argument 0 must be a geometry"),
            (Func::Perimeter, "ST_PERIMETER: argument 0 must be a geometry"),
            (Func::NumPoints, "ST_NUMPOINTS: argument 0 must be a geometry"),
            (Func::NPoints, "ST_NPOINTS: argument 0 must be a geometry"),
        ] {
            let err = call(FunctionMode::Exact, func, &[Value::Text("x".into()), Value::Int(1)]);
            assert_eq!(err, Err(SqlError::Type(text.into())));
        }
    }

    #[test]
    fn indexable_predicates() {
        let index_filter = |name| Func::from_name(name).is_some_and(Func::is_index_filter);
        assert!(index_filter("ST_Intersects"));
        assert!(index_filter("st_contains"));
        assert!(!index_filter("ST_Disjoint"));
        assert!(index_filter("ST_DWithin"));
        assert!(index_filter("MBRWithin"));
        assert!(!index_filter("MBRDisjoint"));
        assert!(!index_filter("ST_Area"));
    }
}

#[cfg(test)]
mod accessor_tests {
    use super::*;

    fn geom(w: &str) -> Value {
        Value::Geom(wkt::parse(w).unwrap())
    }

    #[test]
    fn structural_accessors() {
        let line = geom("LINESTRING (0 0, 1 0, 1 1)");
        assert_eq!(
            call(FunctionMode::Exact, Func::IsClosed, std::slice::from_ref(&line)).unwrap(),
            Value::Int(0)
        );
        let ring = geom("LINESTRING (0 0, 1 0, 1 1, 0 0)");
        assert_eq!(call(FunctionMode::Exact, Func::IsClosed, &[ring]).unwrap(), Value::Int(1));
        assert_eq!(
            call(FunctionMode::Exact, Func::StartPoint, std::slice::from_ref(&line)).unwrap(),
            geom("POINT (0 0)")
        );
        assert_eq!(
            call(FunctionMode::Exact, Func::EndPoint, &[line]).unwrap(),
            geom("POINT (1 1)")
        );
        assert_eq!(
            call(FunctionMode::Exact, Func::IsEmpty, &[geom("POINT EMPTY")]).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn collection_accessors() {
        let mp = geom("MULTIPOINT ((0 0), (1 1), (2 2))");
        assert_eq!(
            call(FunctionMode::Exact, Func::NumGeometries, std::slice::from_ref(&mp)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            call(FunctionMode::Exact, Func::GeometryN, &[mp.clone(), Value::Int(2)]).unwrap(),
            geom("POINT (1 1)")
        );
        assert_eq!(
            call(FunctionMode::Exact, Func::GeometryN, &[mp, Value::Int(9)]).unwrap(),
            Value::Null
        );
        // Single geometry behaves like a 1-element collection.
        let p = geom("POINT (5 5)");
        assert_eq!(
            call(FunctionMode::Exact, Func::NumGeometries, std::slice::from_ref(&p)).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            call(FunctionMode::Exact, Func::GeometryN, &[p.clone(), Value::Int(1)]).unwrap(),
            p
        );
    }

    #[test]
    fn point_on_surface_is_interior() {
        // A concave polygon whose envelope centre is OUTSIDE it.
        let u = geom("POLYGON ((0 0, 6 0, 6 6, 4 6, 4 2, 2 2, 2 6, 0 6, 0 0))");
        let r = call(FunctionMode::Exact, Func::PointOnSurface, std::slice::from_ref(&u)).unwrap();
        let within =
            call(FunctionMode::Exact, Func::Predicate(PredicateKind::Within), &[r, u]).unwrap();
        assert_eq!(within, Value::Int(1));
    }

    #[test]
    fn wkb_hex_roundtrip() {
        let g = geom("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
        let hexv = call(FunctionMode::Exact, Func::AsBinary, std::slice::from_ref(&g)).unwrap();
        let hex = hexv.as_str().unwrap().to_string();
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        let back = call(FunctionMode::Exact, Func::GeomFromWkb, &[Value::Text(hex)]).unwrap();
        assert_eq!(back, g);
        // Malformed input is an error, not a panic.
        assert!(call(FunctionMode::Exact, Func::GeomFromWkb, &[Value::Text("zz".into())]).is_err());
        assert!(call(FunctionMode::Exact, Func::GeomFromWkb, &[Value::Text("ABC".into())]).is_err());
    }

    #[test]
    fn affine_functions_via_sql_registry() {
        let g = geom("POINT (1 2)");
        assert_eq!(
            call(FunctionMode::Exact, Func::Translate, &[g.clone(), Value::Int(3), Value::Int(4)])
                .unwrap(),
            geom("POINT (4 6)")
        );
        assert_eq!(
            call(FunctionMode::Exact, Func::Scale, &[g.clone(), Value::Int(2), Value::Int(3)])
                .unwrap(),
            geom("POINT (2 6)")
        );
        // MBR-only profile lacks affine editing.
        assert!(call(FunctionMode::MbrOnly, Func::Translate, &[g, Value::Int(1), Value::Int(1)])
            .is_err());
    }

    #[test]
    fn geodetic_functions_via_sql_registry() {
        let a = geom("POINT (0 0)");
        let b = geom("POINT (0 1)");
        let d = call(FunctionMode::Exact, Func::DistanceSphere, &[a.clone(), b]).unwrap();
        let m = d.as_f64().unwrap();
        assert!((m - 111_195.0).abs() < 300.0, "1 degree = {m} m");
        assert!(call(FunctionMode::MbrOnly, Func::DistanceSphere, &[a.clone(), a]).is_err());
    }
}
