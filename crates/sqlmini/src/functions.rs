//! The spatial (and scalar) function registry.
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

/// Functions absent from the MBR-only profile (the MySQL-era gaps that
/// Jackpine's feature matrix reports).
const MBR_ONLY_MISSING: [&str; 16] = [
    "ST_BUFFER",
    "ST_CONVEXHULL",
    "ST_UNION",
    "ST_INTERSECTION",
    "ST_DIFFERENCE",
    "ST_SIMPLIFY",
    "ST_RELATE",
    "ST_COVERS",
    "ST_COVEREDBY",
    "ST_DWITHIN",
    // No geodetic support in the MySQL-era profile — one of the axes the
    // paper's feature comparison calls out.
    "ST_DISTANCESPHERE",
    "ST_LENGTHSPHERE",
    "ST_AREASPHERE",
    // Affine geometry editing is likewise absent from the paper-era
    // MySQL function set.
    "ST_TRANSLATE",
    "ST_SCALE",
    "ST_ROTATE",
];

/// The topological predicates' SQL names (shared by planners and the
/// feature matrix), as [`topo::predicates::SQL_NAMES`] spells them.
pub use topo::predicates::SQL_NAMES as TOPO_PREDICATES;

impl FunctionMode {
    /// Whether a function name is available in this mode.
    pub fn supports(self, name: &str) -> bool {
        let upper = name.to_ascii_uppercase();
        match self {
            FunctionMode::Exact => true,
            FunctionMode::MbrOnly => !MBR_ONLY_MISSING.contains(&upper.as_str()),
        }
    }
}

/// `true` when `name` is a topological predicate the planner can serve
/// with a spatial-index filter step (everything except `ST_Disjoint`,
/// whose candidates an intersection-style index cannot narrow).
pub fn is_indexable_predicate(name: &str) -> bool {
    let upper = name.to_ascii_uppercase();
    PredicateKind::from_sql_name(&upper).is_some_and(|kind| kind != PredicateKind::Disjoint)
        || upper == "ST_DWITHIN"
        || upper.starts_with("MBR") && upper != "MBRDISJOINT"
}

/// Evaluates a (non-aggregate) function call on already-computed argument
/// values. Every function is strict, as PostGIS's are: a NULL argument
/// gives a NULL result.
pub fn call(mode: FunctionMode, name: &str, args: &[Value]) -> Result<Value> {
    let upper = name.to_ascii_uppercase();
    if !mode.supports(&upper) {
        return Err(SqlError::UnsupportedFeature(name.to_string()));
    }
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    match upper.as_str() {
        // ----- constructors ------------------------------------------------
        "ST_GEOMFROMTEXT" => {
            let s = text_arg(&upper, args, 0)?;
            Ok(Value::Geom(wkt::parse(s)?))
        }
        "ST_ASTEXT" => Ok(Value::Text(wkt::write(geom_arg(&upper, args, 0)?))),
        "ST_POINT" | "ST_MAKEPOINT" => {
            let x = num_arg(&upper, args, 0)?;
            let y = num_arg(&upper, args, 1)?;
            Ok(Value::Geom(Geometry::Point(Point::new(x, y)?)))
        }
        "ST_MAKEENVELOPE" => {
            let e = Envelope::new(
                num_arg(&upper, args, 0)?,
                num_arg(&upper, args, 1)?,
                num_arg(&upper, args, 2)?,
                num_arg(&upper, args, 3)?,
            );
            Ok(Value::Geom(envelope_geometry(&e)))
        }

        // ----- accessors / measures ---------------------------------------
        "ST_X" => point_component(&upper, args, |c| c.x),
        "ST_Y" => point_component(&upper, args, |c| c.y),
        "ST_AREA" => Ok(Value::Float(alg::area(geom_arg(&upper, args, 0)?))),
        "ST_LENGTH" | "ST_PERIMETER" => Ok(Value::Float(alg::length(geom_arg(&upper, args, 0)?))),
        "ST_DIMENSION" => Ok(Value::Int(geom_arg(&upper, args, 0)?.dimension().as_i32() as i64)),
        "ST_NUMPOINTS" | "ST_NPOINTS" => {
            Ok(Value::Int(geom_arg(&upper, args, 0)?.num_coords() as i64))
        }
        "ST_GEOMETRYTYPE" => Ok(Value::Text(format!(
            "ST_{}",
            geom_arg(&upper, args, 0)?.geometry_type().wkt_keyword()
        ))),
        "ST_ENVELOPE" => Ok(Value::Geom(envelope_geometry(&geom_arg(&upper, args, 0)?.envelope()))),
        "ST_BOUNDARY" => Ok(Value::Geom(geom_arg(&upper, args, 0)?.boundary())),
        "ST_CENTROID" => {
            let g = geom_arg(&upper, args, 0)?;
            Ok(match alg::centroid(g) {
                Some(c) => Value::Geom(Geometry::Point(Point::from_coord(c)?)),
                None => Value::Geom(Geometry::GeometryCollection(GeometryCollection(vec![]))),
            })
        }

        // ----- constructive -------------------------------------------------
        "ST_BUFFER" => {
            let g = geom_arg(&upper, args, 0)?;
            let d = num_arg(&upper, args, 1)?;
            let quad = match args.get(2) {
                Some(v) => {
                    v.as_f64().ok_or_else(|| SqlError::Type("quad_segs must be numeric".into()))?
                        as usize
                }
                None => alg::buffer::DEFAULT_QUAD_SEGS,
            };
            Ok(Value::Geom(alg::buffer::buffer_with_segments(g, d, quad)?))
        }
        "ST_CONVEXHULL" => Ok(Value::Geom(alg::convex_hull(geom_arg(&upper, args, 0)?)?)),
        "ST_SIMPLIFY" => {
            Ok(Value::Geom(alg::simplify(geom_arg(&upper, args, 0)?, num_arg(&upper, args, 1)?)?))
        }
        "ST_UNION" => {
            Ok(Value::Geom(alg::union(geom_arg(&upper, args, 0)?, geom_arg(&upper, args, 1)?)?))
        }
        "ST_INTERSECTION" => Ok(Value::Geom(alg::intersection(
            geom_arg(&upper, args, 0)?,
            geom_arg(&upper, args, 1)?,
        )?)),
        "ST_DIFFERENCE" => Ok(Value::Geom(alg::difference(
            geom_arg(&upper, args, 0)?,
            geom_arg(&upper, args, 1)?,
        )?)),

        // ----- accessors (structural) -----------------------------------------
        "ST_ISEMPTY" => Ok(bool_value(geom_arg(&upper, args, 0)?.is_empty())),
        "ST_ISCLOSED" => match geom_arg(&upper, args, 0)? {
            Geometry::LineString(l) => Ok(bool_value(l.is_closed())),
            Geometry::MultiLineString(m) => {
                Ok(bool_value(!m.0.is_empty() && m.0.iter().all(LineString::is_closed)))
            }
            _ => Err(SqlError::Type(format!("{upper}: argument must be a line"))),
        },
        "ST_STARTPOINT" | "ST_ENDPOINT" => match geom_arg(&upper, args, 0)? {
            Geometry::LineString(l) => {
                let c = if upper == "ST_STARTPOINT" { l.start() } else { l.end() };
                Ok(match c {
                    Some(c) => Value::Geom(Geometry::Point(Point::from_coord(c)?)),
                    None => Value::Null,
                })
            }
            _ => Err(SqlError::Type(format!("{upper}: argument must be a linestring"))),
        },
        "ST_NUMGEOMETRIES" => {
            let n = match geom_arg(&upper, args, 0)? {
                Geometry::MultiPoint(m) => m.0.len(),
                Geometry::MultiLineString(m) => m.0.len(),
                Geometry::MultiPolygon(m) => m.0.len(),
                Geometry::GeometryCollection(c) => c.0.len(),
                _ => 1,
            };
            Ok(Value::Int(n as i64))
        }
        "ST_GEOMETRYN" => {
            let n = num_arg(&upper, args, 1)? as usize;
            if n < 1 {
                return Err(SqlError::Type("ST_GeometryN index starts at 1".into()));
            }
            let g = geom_arg(&upper, args, 0)?;
            let member = match g {
                Geometry::MultiPoint(m) => m.0.get(n - 1).copied().map(Geometry::Point),
                Geometry::MultiLineString(m) => m.0.get(n - 1).cloned().map(Geometry::LineString),
                Geometry::MultiPolygon(m) => m.0.get(n - 1).cloned().map(Geometry::Polygon),
                Geometry::GeometryCollection(c) => c.0.get(n - 1).cloned(),
                single if n == 1 => Some(single.clone()),
                _ => None,
            };
            Ok(member.map(Value::Geom).unwrap_or(Value::Null))
        }
        "ST_POINTONSURFACE" => match geom_arg(&upper, args, 0)? {
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
                "{upper}: unsupported argument type {:?}",
                other.geometry_type()
            ))),
        },

        // ----- binary serialization ---------------------------------------------
        "ST_ASBINARY" => {
            let bytes = jackpine_geom::wkb::encode(geom_arg(&upper, args, 0)?);
            Ok(Value::Text(hex_encode(&bytes)))
        }
        "ST_GEOMFROMWKB" => {
            let hex = text_arg(&upper, args, 0)?;
            let bytes =
                hex_decode(hex).ok_or_else(|| SqlError::Type("malformed hex WKB".into()))?;
            Ok(Value::Geom(jackpine_geom::wkb::decode(&bytes)?))
        }

        // ----- affine editing --------------------------------------------------
        "ST_TRANSLATE" => Ok(Value::Geom(alg::affine::translate(
            geom_arg(&upper, args, 0)?,
            num_arg(&upper, args, 1)?,
            num_arg(&upper, args, 2)?,
        )?)),
        "ST_SCALE" => Ok(Value::Geom(alg::affine::scale(
            geom_arg(&upper, args, 0)?,
            num_arg(&upper, args, 1)?,
            num_arg(&upper, args, 2)?,
        )?)),
        "ST_ROTATE" => {
            let g = geom_arg(&upper, args, 0)?;
            let angle = num_arg(&upper, args, 1)?;
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
        "ST_DISTANCESPHERE" => {
            let d = alg::geodesic::distance_sphere(
                geom_arg(&upper, args, 0)?,
                geom_arg(&upper, args, 1)?,
            );
            Ok(if d.is_finite() { Value::Float(d) } else { Value::Null })
        }
        "ST_LENGTHSPHERE" => {
            Ok(Value::Float(alg::geodesic::length_sphere(geom_arg(&upper, args, 0)?)))
        }
        "ST_AREASPHERE" => Ok(Value::Float(alg::geodesic::area_sphere(geom_arg(&upper, args, 0)?))),

        // ----- metric predicates -------------------------------------------
        "ST_DISTANCE" => {
            let d = alg::distance(geom_arg(&upper, args, 0)?, geom_arg(&upper, args, 1)?);
            Ok(if d.is_finite() { Value::Float(d) } else { Value::Null })
        }
        "ST_DWITHIN" => {
            let d = alg::distance(geom_arg(&upper, args, 0)?, geom_arg(&upper, args, 1)?);
            Ok(bool_value(d <= num_arg(&upper, args, 2)?))
        }

        "ST_RELATE" => {
            let a = geom_arg(&upper, args, 0)?;
            let b = geom_arg(&upper, args, 1)?;
            let m = topo::relate(a, b)?;
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

        // ----- explicit MBR predicates (available in every mode) ------------
        "MBRINTERSECTS" | "MBRCONTAINS" | "MBRWITHIN" | "MBREQUALS" | "MBRDISJOINT"
        | "MBROVERLAPS" | "MBRTOUCHES" => {
            let a = geom_arg(&upper, args, 0)?.envelope();
            let b = geom_arg(&upper, args, 1)?.envelope();
            let kind = PredicateKind::from_sql_name(&upper.replace("MBR", "ST_"))
                .expect("each MBR function names a predicate");
            Ok(bool_value(mbr_predicate(kind, &a, &b)))
        }

        // ----- scalar helpers ------------------------------------------------
        "ABS" => Ok(Value::Float(num_arg(&upper, args, 0)?.abs())),
        "UPPER" => Ok(Value::Text(text_arg(&upper, args, 0)?.to_uppercase())),
        "LOWER" => Ok(Value::Text(text_arg(&upper, args, 0)?.to_lowercase())),
        "CHAR_LENGTH" => Ok(Value::Int(text_arg(&upper, args, 0)?.chars().count() as i64)),

        // ----- topological predicates ---------------------------------------
        other => {
            let kind = PredicateKind::from_sql_name(other)
                .ok_or_else(|| SqlError::Unresolved(format!("function {name}")))?;
            let a = geom_arg(&upper, args, 0)?;
            let b = geom_arg(&upper, args, 1)?;
            Ok(bool_value(match mode {
                FunctionMode::Exact => topo::holds(kind, a, b)?,
                FunctionMode::MbrOnly => mbr_predicate(kind, &a.envelope(), &b.envelope()),
            }))
        }
    }
}

/// MBR-approximate evaluation of a named predicate (the MySQL-era
/// semantics: correct for rectangles, a superset/approximation for real
/// shapes).
fn mbr_predicate(kind: PredicateKind, a: &Envelope, b: &Envelope) -> bool {
    match kind {
        PredicateKind::Equals => a == b,
        PredicateKind::Disjoint => !a.intersects(b),
        PredicateKind::Intersects => a.intersects(b),
        PredicateKind::Within => b.contains_envelope(a),
        PredicateKind::Contains => a.contains_envelope(b),
        PredicateKind::Touches => {
            // Rectangles touch when they meet only along their boundary.
            match a.intersection(b) {
                Some(i) => i.area() == 0.0,
                None => false,
            }
        }
        PredicateKind::Overlaps | PredicateKind::Crosses => {
            // Interiors intersect, neither contains the other.
            match a.intersection(b) {
                Some(i) => i.area() > 0.0 && !a.contains_envelope(b) && !b.contains_envelope(a),
                None => false,
            }
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

fn geom_arg<'a>(fname: &str, args: &'a [Value], i: usize) -> Result<&'a Geometry> {
    args.get(i)
        .and_then(Value::as_geom)
        .ok_or_else(|| SqlError::Type(format!("{fname}: argument {i} must be a geometry")))
}

fn num_arg(fname: &str, args: &[Value], i: usize) -> Result<f64> {
    args.get(i)
        .and_then(Value::as_f64)
        .ok_or_else(|| SqlError::Type(format!("{fname}: argument {i} must be numeric")))
}

fn text_arg<'a>(fname: &str, args: &'a [Value], i: usize) -> Result<&'a str> {
    args.get(i)
        .and_then(Value::as_str)
        .ok_or_else(|| SqlError::Type(format!("{fname}: argument {i} must be text")))
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
    fname: &str,
    args: &[Value],
    f: impl Fn(jackpine_geom::Coord) -> f64,
) -> Result<Value> {
    match geom_arg(fname, args, 0)? {
        Geometry::Point(p) => Ok(match p.coord() {
            Some(c) => Value::Float(f(c)),
            None => Value::Null,
        }),
        _ => Err(SqlError::Type(format!("{fname}: argument must be a point"))),
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
        let g = call(FunctionMode::Exact, "ST_GeomFromText", &[Value::Text("POINT (1 2)".into())])
            .unwrap();
        assert_eq!(
            call(FunctionMode::Exact, "ST_X", std::slice::from_ref(&g)).unwrap(),
            Value::Float(1.0)
        );
        assert_eq!(
            call(FunctionMode::Exact, "ST_Y", std::slice::from_ref(&g)).unwrap(),
            Value::Float(2.0)
        );
        assert_eq!(
            call(FunctionMode::Exact, "ST_AsText", &[g]).unwrap(),
            Value::Text("POINT (1 2)".into())
        );
    }

    #[test]
    fn a_null_argument_gives_a_null_result() {
        let p = geom("POINT (1 2)");
        for (name, args) in [
            ("ST_Distance", vec![Value::Null, p.clone()]),
            ("ST_Intersects", vec![p.clone(), Value::Null]),
            ("ST_Buffer", vec![p.clone(), Value::Null]),
            ("ST_Area", vec![Value::Null]),
            ("ST_GeomFromText", vec![Value::Null]),
        ] {
            assert_eq!(call(FunctionMode::Exact, name, &args).unwrap(), Value::Null, "{name}");
        }
        // Availability is still the profile's to decide.
        let err = call(FunctionMode::MbrOnly, "ST_Buffer", &[Value::Null, Value::Null]);
        assert!(matches!(err, Err(SqlError::UnsupportedFeature(_))));
    }

    #[test]
    fn measures() {
        let sq = geom("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))");
        assert_eq!(
            call(FunctionMode::Exact, "ST_Area", std::slice::from_ref(&sq)).unwrap(),
            Value::Float(4.0)
        );
        assert_eq!(
            call(FunctionMode::Exact, "ST_Length", std::slice::from_ref(&sq)).unwrap(),
            Value::Float(8.0)
        );
        assert_eq!(
            call(FunctionMode::Exact, "ST_Dimension", std::slice::from_ref(&sq)).unwrap(),
            Value::Int(2)
        );
        assert_eq!(call(FunctionMode::Exact, "ST_NumPoints", &[sq]).unwrap(), Value::Int(5));
    }

    #[test]
    fn predicates_exact_vs_mbr() {
        // A diagonal line and a square that intersect in MBR but not in
        // reality: the canonical Jackpine false-positive case.
        let line = geom("LINESTRING (0 0, 10 10)");
        let poly = geom("POLYGON ((8 0, 9 0, 9 1, 8 1, 8 0))");
        let exact =
            call(FunctionMode::Exact, "ST_Intersects", &[line.clone(), poly.clone()]).unwrap();
        let mbr = call(FunctionMode::MbrOnly, "ST_Intersects", &[line, poly]).unwrap();
        assert_eq!(exact, Value::Int(0));
        assert_eq!(mbr, Value::Int(1)); // MBR false positive
    }

    #[test]
    fn mbr_mode_feature_gaps() {
        let sq = geom("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))");
        let err = call(FunctionMode::MbrOnly, "ST_Buffer", &[sq.clone(), Value::Float(1.0)]);
        assert!(matches!(err, Err(SqlError::UnsupportedFeature(_))));
        assert!(FunctionMode::MbrOnly.supports("ST_Area"));
        assert!(!FunctionMode::MbrOnly.supports("ST_ConvexHull"));
        assert!(FunctionMode::Exact.supports("ST_ConvexHull"));
        // Measures still work in MBR mode.
        assert_eq!(call(FunctionMode::MbrOnly, "ST_Area", &[sq]).unwrap(), Value::Float(4.0));
    }

    #[test]
    fn relate_matrix_and_pattern() {
        let a = geom("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))");
        let b = geom("POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))");
        let m = call(FunctionMode::Exact, "ST_Relate", &[a.clone(), b.clone()]).unwrap();
        assert_eq!(m, Value::Text("212101212".into()));
        let hit = call(FunctionMode::Exact, "ST_Relate", &[a, b, Value::Text("T*T***T**".into())])
            .unwrap();
        assert_eq!(hit, Value::Int(1));
    }

    #[test]
    fn distance_and_dwithin() {
        let a = geom("POINT (0 0)");
        let b = geom("POINT (3 4)");
        assert_eq!(
            call(FunctionMode::Exact, "ST_Distance", &[a.clone(), b.clone()]).unwrap(),
            Value::Float(5.0)
        );
        assert_eq!(
            call(FunctionMode::Exact, "ST_DWithin", &[a.clone(), b.clone(), Value::Float(5.0)])
                .unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            call(FunctionMode::Exact, "ST_DWithin", &[a, b, Value::Float(4.9)]).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn envelope_degeneracies() {
        let p = geom("POINT (1 2)");
        assert!(matches!(
            call(FunctionMode::Exact, "ST_Envelope", &[p]).unwrap(),
            Value::Geom(Geometry::Point(_))
        ));
        let l = geom("LINESTRING (0 0, 0 5)");
        assert!(matches!(
            call(FunctionMode::Exact, "ST_Envelope", &[l]).unwrap(),
            Value::Geom(Geometry::LineString(_))
        ));
        let sq = geom("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))");
        assert!(matches!(
            call(FunctionMode::Exact, "ST_Envelope", &[sq]).unwrap(),
            Value::Geom(Geometry::Polygon(_))
        ));
    }

    #[test]
    fn type_errors() {
        assert!(call(FunctionMode::Exact, "ST_Area", &[Value::Int(1)]).is_err());
        assert!(call(FunctionMode::Exact, "ST_X", &[geom("LINESTRING (0 0, 1 1)")]).is_err());
        assert!(call(FunctionMode::Exact, "NoSuchFn", &[]).is_err());
        assert!(call(FunctionMode::Exact, "ST_GeomFromText", &[Value::Int(2)]).is_err());
    }

    #[test]
    fn explicit_mbr_functions_work_in_exact_mode() {
        let line = geom("LINESTRING (0 0, 10 10)");
        let poly = geom("POLYGON ((8 0, 9 0, 9 1, 8 1, 8 0))");
        assert_eq!(
            call(FunctionMode::Exact, "MBRIntersects", &[line, poly]).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn indexable_predicates() {
        assert!(is_indexable_predicate("ST_Intersects"));
        assert!(is_indexable_predicate("st_contains"));
        assert!(!is_indexable_predicate("ST_Disjoint"));
        assert!(is_indexable_predicate("ST_DWithin"));
        assert!(!is_indexable_predicate("ST_Area"));
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
            call(FunctionMode::Exact, "ST_IsClosed", std::slice::from_ref(&line)).unwrap(),
            Value::Int(0)
        );
        let ring = geom("LINESTRING (0 0, 1 0, 1 1, 0 0)");
        assert_eq!(call(FunctionMode::Exact, "ST_IsClosed", &[ring]).unwrap(), Value::Int(1));
        assert_eq!(
            call(FunctionMode::Exact, "ST_StartPoint", std::slice::from_ref(&line)).unwrap(),
            geom("POINT (0 0)")
        );
        assert_eq!(call(FunctionMode::Exact, "ST_EndPoint", &[line]).unwrap(), geom("POINT (1 1)"));
        assert_eq!(
            call(FunctionMode::Exact, "ST_IsEmpty", &[geom("POINT EMPTY")]).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn collection_accessors() {
        let mp = geom("MULTIPOINT ((0 0), (1 1), (2 2))");
        assert_eq!(
            call(FunctionMode::Exact, "ST_NumGeometries", std::slice::from_ref(&mp)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            call(FunctionMode::Exact, "ST_GeometryN", &[mp.clone(), Value::Int(2)]).unwrap(),
            geom("POINT (1 1)")
        );
        assert_eq!(
            call(FunctionMode::Exact, "ST_GeometryN", &[mp, Value::Int(9)]).unwrap(),
            Value::Null
        );
        // Single geometry behaves like a 1-element collection.
        let p = geom("POINT (5 5)");
        assert_eq!(
            call(FunctionMode::Exact, "ST_NumGeometries", std::slice::from_ref(&p)).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            call(FunctionMode::Exact, "ST_GeometryN", &[p.clone(), Value::Int(1)]).unwrap(),
            p
        );
    }

    #[test]
    fn point_on_surface_is_interior() {
        // A concave polygon whose envelope centre is OUTSIDE it.
        let u = geom("POLYGON ((0 0, 6 0, 6 6, 4 6, 4 2, 2 2, 2 6, 0 6, 0 0))");
        let r = call(FunctionMode::Exact, "ST_PointOnSurface", std::slice::from_ref(&u)).unwrap();
        let within = call(FunctionMode::Exact, "ST_Within", &[r, u]).unwrap();
        assert_eq!(within, Value::Int(1));
    }

    #[test]
    fn wkb_hex_roundtrip() {
        let g = geom("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
        let hexv = call(FunctionMode::Exact, "ST_AsBinary", std::slice::from_ref(&g)).unwrap();
        let hex = hexv.as_str().unwrap().to_string();
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        let back = call(FunctionMode::Exact, "ST_GeomFromWKB", &[Value::Text(hex)]).unwrap();
        assert_eq!(back, g);
        // Malformed input is an error, not a panic.
        assert!(call(FunctionMode::Exact, "ST_GeomFromWKB", &[Value::Text("zz".into())]).is_err());
        assert!(call(FunctionMode::Exact, "ST_GeomFromWKB", &[Value::Text("ABC".into())]).is_err());
    }

    #[test]
    fn affine_functions_via_sql_registry() {
        let g = geom("POINT (1 2)");
        assert_eq!(
            call(FunctionMode::Exact, "ST_Translate", &[g.clone(), Value::Int(3), Value::Int(4)])
                .unwrap(),
            geom("POINT (4 6)")
        );
        assert_eq!(
            call(FunctionMode::Exact, "ST_Scale", &[g.clone(), Value::Int(2), Value::Int(3)])
                .unwrap(),
            geom("POINT (2 6)")
        );
        // MBR-only profile lacks affine editing.
        assert!(call(FunctionMode::MbrOnly, "ST_Translate", &[g, Value::Int(1), Value::Int(1)])
            .is_err());
    }

    #[test]
    fn geodetic_functions_via_sql_registry() {
        let a = geom("POINT (0 0)");
        let b = geom("POINT (0 1)");
        let d = call(FunctionMode::Exact, "ST_DistanceSphere", &[a.clone(), b]).unwrap();
        let m = d.as_f64().unwrap();
        assert!((m - 111_195.0).abs() < 300.0, "1 degree = {m} m");
        assert!(call(FunctionMode::MbrOnly, "ST_DistanceSphere", &[a.clone(), a]).is_err());
    }
}
