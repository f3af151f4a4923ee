//! Well-Known Text reading and writing for all seven geometry types.
//!
//! The parser is a hand-rolled recursive-descent scanner that accepts the
//! OGC grammar (case-insensitive keywords, `EMPTY` at any level, optional
//! whitespace) and reports byte-accurate error positions. The writer
//! produces canonical upper-case WKT with minimal float formatting.

use crate::polygon::Ring;
use crate::wkb::MAX_NESTING;
use crate::{
    Coord, GeomError, Geometry, GeometryCollection, LineString, MultiLineString, MultiPoint,
    MultiPolygon, Point, Polygon, Result,
};
use std::fmt::Write as _;

/// Parses a WKT string into a [`Geometry`]. Members nest at most
/// [`MAX_NESTING`] deep, as [`crate::wkb::decode`] reads them; deeper text
/// is a [`GeomError::WktParse`].
pub fn parse(input: &str) -> Result<Geometry> {
    let mut p = Parser { input, pos: 0 };
    let g = p.parse_geometry(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing characters after geometry"));
    }
    Ok(g)
}

/// Serializes a [`Geometry`] to canonical WKT.
pub fn write(g: &Geometry) -> String {
    let mut s = String::new();
    write_geometry(g, &mut s);
    s
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn fmt_f64(v: f64, out: &mut String) {
    // Integral values print without a trailing ".0" to match common WKT.
    if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_coord(c: Coord, out: &mut String) {
    fmt_f64(c.x, out);
    out.push(' ');
    fmt_f64(c.y, out);
}

fn write_coord_seq(coords: &[Coord], out: &mut String) {
    out.push('(');
    for (i, c) in coords.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_coord(*c, out);
    }
    out.push(')');
}

fn write_polygon_body(p: &Polygon, out: &mut String) {
    out.push('(');
    write_coord_seq(p.exterior().coords(), out);
    for h in p.holes() {
        out.push_str(", ");
        write_coord_seq(h.coords(), out);
    }
    out.push(')');
}

fn write_geometry(g: &Geometry, out: &mut String) {
    match g {
        Geometry::Point(p) => match p.coord() {
            None => out.push_str("POINT EMPTY"),
            Some(c) => {
                out.push_str("POINT (");
                write_coord(c, out);
                out.push(')');
            }
        },
        Geometry::LineString(l) => {
            if l.is_empty() {
                out.push_str("LINESTRING EMPTY");
            } else {
                out.push_str("LINESTRING ");
                write_coord_seq(l.coords(), out);
            }
        }
        Geometry::Polygon(p) => {
            out.push_str("POLYGON ");
            write_polygon_body(p, out);
        }
        Geometry::MultiPoint(m) => {
            if m.0.is_empty() {
                out.push_str("MULTIPOINT EMPTY");
            } else {
                out.push_str("MULTIPOINT (");
                for (i, p) in m.0.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    match p.coord() {
                        None => out.push_str("EMPTY"),
                        Some(c) => {
                            out.push('(');
                            write_coord(c, out);
                            out.push(')');
                        }
                    }
                }
                out.push(')');
            }
        }
        Geometry::MultiLineString(m) => {
            if m.0.is_empty() {
                out.push_str("MULTILINESTRING EMPTY");
            } else {
                out.push_str("MULTILINESTRING (");
                for (i, l) in m.0.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_coord_seq(l.coords(), out);
                }
                out.push(')');
            }
        }
        Geometry::MultiPolygon(m) => {
            if m.0.is_empty() {
                out.push_str("MULTIPOLYGON EMPTY");
            } else {
                out.push_str("MULTIPOLYGON (");
                for (i, p) in m.0.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_polygon_body(p, out);
                }
                out.push(')');
            }
        }
        Geometry::GeometryCollection(c) => {
            if c.0.is_empty() {
                out.push_str("GEOMETRYCOLLECTION EMPTY");
            } else {
                out.push_str("GEOMETRYCOLLECTION (");
                for (i, g) in c.0.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_geometry(g, out);
                }
                out.push(')');
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> GeomError {
        GeomError::WktParse { position: self.pos, message: msg.to_string() }
    }

    fn bytes(&self) -> &[u8] {
        self.input.as_bytes()
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn eat(&mut self, ch: u8) -> Result<()> {
        self.skip_ws();
        if self.peek() == Some(ch) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", ch as char)))
        }
    }

    fn try_eat(&mut self, ch: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(ch) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Reads an identifier (letters only) and upper-cases it.
    fn keyword(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len() && self.bytes()[self.pos].is_ascii_alphabetic() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a keyword"));
        }
        Ok(self.input[start..self.pos].to_ascii_uppercase())
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = &self.input[self.pos..];
        if rest.len() >= kw.len() && rest[..kw.len()].eq_ignore_ascii_case(kw) {
            // Must not be followed by another letter.
            let after = rest.as_bytes().get(kw.len());
            if after.is_none_or(|b| !b.is_ascii_alphabetic()) {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn number(&mut self) -> Result<f64> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.bytes();
        let mut i = self.pos;
        if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
            i += 1;
        }
        let mut saw_digit = false;
        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
            saw_digit |= bytes[i].is_ascii_digit();
            i += 1;
        }
        if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
            i += 1;
            if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                i += 1;
            }
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
        if !saw_digit {
            return Err(self.err("expected a number"));
        }
        let text = &self.input[start..i];
        self.pos = i;
        text.parse::<f64>().map_err(|_| self.err("malformed number"))
    }

    fn coord(&mut self) -> Result<Coord> {
        let x = self.number()?;
        let y = self.number()?;
        let c = Coord::new(x, y);
        if !c.is_finite() {
            return Err(self.err("non-finite coordinate"));
        }
        Ok(c)
    }

    fn coord_seq(&mut self) -> Result<Vec<Coord>> {
        self.eat(b'(')?;
        let mut out = vec![self.coord()?];
        while self.try_eat(b',') {
            out.push(self.coord()?);
        }
        self.eat(b')')?;
        Ok(out)
    }

    /// The geometry at the cursor, `depth` deep (a member of a top-level
    /// multi-geometry or collection is one deep).
    fn parse_geometry(&mut self, depth: usize) -> Result<Geometry> {
        self.nested(depth)?;
        let kw = self.keyword()?;
        match kw.as_str() {
            "POINT" => {
                if self.try_keyword("EMPTY") {
                    return Ok(Geometry::Point(Point::empty()));
                }
                self.eat(b'(')?;
                let c = self.coord()?;
                self.eat(b')')?;
                Ok(Geometry::Point(Point::from_coord(c)?))
            }
            "LINESTRING" => {
                if self.try_keyword("EMPTY") {
                    return Ok(Geometry::LineString(LineString::empty()));
                }
                Ok(Geometry::LineString(LineString::new(self.coord_seq()?)?))
            }
            "POLYGON" => {
                if self.try_keyword("EMPTY") {
                    return Err(self
                        .err("POLYGON EMPTY is not representable; use GEOMETRYCOLLECTION EMPTY"));
                }
                Ok(Geometry::Polygon(self.polygon_body()?))
            }
            "MULTIPOINT" => {
                if self.try_keyword("EMPTY") {
                    return Ok(Geometry::MultiPoint(MultiPoint(Vec::new())));
                }
                self.nested(depth + 1)?;
                self.eat(b'(')?;
                let mut pts = vec![self.multipoint_member()?];
                while self.try_eat(b',') {
                    pts.push(self.multipoint_member()?);
                }
                self.eat(b')')?;
                Ok(Geometry::MultiPoint(MultiPoint(pts)))
            }
            "MULTILINESTRING" => {
                if self.try_keyword("EMPTY") {
                    return Ok(Geometry::MultiLineString(MultiLineString(Vec::new())));
                }
                self.nested(depth + 1)?;
                self.eat(b'(')?;
                let mut ls = vec![LineString::new(self.coord_seq()?)?];
                while self.try_eat(b',') {
                    ls.push(LineString::new(self.coord_seq()?)?);
                }
                self.eat(b')')?;
                Ok(Geometry::MultiLineString(MultiLineString(ls)))
            }
            "MULTIPOLYGON" => {
                if self.try_keyword("EMPTY") {
                    return Ok(Geometry::MultiPolygon(MultiPolygon(Vec::new())));
                }
                self.nested(depth + 1)?;
                self.eat(b'(')?;
                let mut ps = vec![self.polygon_body()?];
                while self.try_eat(b',') {
                    ps.push(self.polygon_body()?);
                }
                self.eat(b')')?;
                Ok(Geometry::MultiPolygon(MultiPolygon(ps)))
            }
            "GEOMETRYCOLLECTION" => {
                if self.try_keyword("EMPTY") {
                    return Ok(Geometry::GeometryCollection(GeometryCollection(Vec::new())));
                }
                self.eat(b'(')?;
                let mut gs = vec![self.parse_geometry(depth + 1)?];
                while self.try_eat(b',') {
                    gs.push(self.parse_geometry(depth + 1)?);
                }
                self.eat(b')')?;
                Ok(Geometry::GeometryCollection(GeometryCollection(gs)))
            }
            other => Err(self.err(&format!("unknown geometry keyword '{other}'"))),
        }
    }

    /// Refuses a geometry `depth` deep when that is past [`MAX_NESTING`],
    /// before recursing: unbounded text would overflow the stack.
    fn nested(&self, depth: usize) -> Result<()> {
        if depth > MAX_NESTING {
            return Err(self.err(&format!("geometries nested over {MAX_NESTING} deep")));
        }
        Ok(())
    }

    /// `(x y)` or bare `x y` (both appear in the wild) or `EMPTY`.
    fn multipoint_member(&mut self) -> Result<Point> {
        if self.try_keyword("EMPTY") {
            return Ok(Point::empty());
        }
        if self.try_eat(b'(') {
            let c = self.coord()?;
            self.eat(b')')?;
            Point::from_coord(c)
        } else {
            let c = self.coord()?;
            Point::from_coord(c)
        }
    }

    fn polygon_body(&mut self) -> Result<Polygon> {
        self.eat(b'(')?;
        let exterior = Ring::new(self.coord_seq()?)?;
        let mut holes = Vec::new();
        while self.try_eat(b',') {
            holes.push(Ring::new(self.coord_seq()?)?);
        }
        self.eat(b')')?;
        Ok(Polygon::new(exterior, holes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(wkt: &str) {
        let g = parse(wkt).unwrap();
        let out = write(&g);
        let g2 = parse(&out).unwrap();
        assert_eq!(g, g2, "roundtrip mismatch for {wkt}");
    }

    #[test]
    fn parse_point() {
        match parse("POINT (1.5 -2)").unwrap() {
            Geometry::Point(p) => {
                assert_eq!(p.x(), Some(1.5));
                assert_eq!(p.y(), Some(-2.0));
            }
            other => panic!("expected point, got {other:?}"),
        }
        assert!(matches!(parse("point(1 2)").unwrap(), Geometry::Point(_)));
        assert!(parse("POINT EMPTY").unwrap().is_empty());
    }

    #[test]
    fn parse_linestring_and_polygon() {
        roundtrip("LINESTRING (0 0, 1 1, 2 0)");
        roundtrip("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
        roundtrip("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))");
    }

    #[test]
    fn parse_multis() {
        roundtrip("MULTIPOINT ((0 0), (1 1))");
        // Bare-coordinate multipoint variant.
        match parse("MULTIPOINT (0 0, 1 1)").unwrap() {
            Geometry::MultiPoint(m) => assert_eq!(m.0.len(), 2),
            other => panic!("expected multipoint, got {other:?}"),
        }
        roundtrip("MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))");
        roundtrip("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))");
        roundtrip("GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))");
        roundtrip("GEOMETRYCOLLECTION EMPTY");
        roundtrip("MULTIPOLYGON EMPTY");
    }

    #[test]
    fn scientific_notation_and_signs() {
        match parse("POINT (1e3 -2.5E-2)").unwrap() {
            Geometry::Point(p) => {
                assert_eq!(p.x(), Some(1000.0));
                assert_eq!(p.y(), Some(-0.025));
            }
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn error_positions() {
        match parse("POINT (1 )") {
            Err(GeomError::WktParse { position, .. }) => assert!(position >= 8),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(parse("CIRCLE (0 0, 5)").is_err());
        assert!(parse("POINT (1 2) garbage").is_err());
        assert!(parse("LINESTRING (0 0)").is_err()); // single coordinate
        assert!(parse("POLYGON ((0 0, 1 0, 0 0))").is_err()); // degenerate ring
    }

    #[test]
    fn nested_collection() {
        roundtrip("GEOMETRYCOLLECTION (GEOMETRYCOLLECTION (POINT (1 1)), POINT (2 2))");
    }

    #[test]
    fn collections_nested_past_the_bound_are_an_error_not_an_overflow() {
        let nest = |depth: usize, inner: &str| {
            format!("{}{inner}{}", "GEOMETRYCOLLECTION (".repeat(depth), ")".repeat(depth))
        };
        // 2.1 MB whose recursion would overflow any thread's stack: refused
        // where the 257th-deep geometry starts, 257 × 20 bytes in.
        let deep = parse(&nest(100_000, "POINT (1 2)"));
        assert!(matches!(deep, Err(GeomError::WktParse { position: 5_140, .. })), "{deep:?}");
        // The bound is WKB's: what parses at it, WKB reads back.
        let at = parse(&nest(MAX_NESTING, "POINT (1 2)")).unwrap();
        assert_eq!(crate::wkb::nesting(&at), MAX_NESTING);
        assert_eq!(crate::wkb::decode(&crate::wkb::encode(&at)).unwrap(), at);
        assert!(parse(&nest(MAX_NESTING + 1, "POINT (1 2)")).is_err());
        // A multi-geometry's members are one deeper, as WKB counts them.
        assert!(parse(&nest(MAX_NESTING - 1, "MULTIPOINT ((1 2))")).is_ok());
        assert!(parse(&nest(MAX_NESTING, "MULTIPOINT ((1 2))")).is_err());
        assert!(parse(&nest(MAX_NESTING, "MULTIPOINT EMPTY")).is_ok());
    }

    #[test]
    fn whitespace_tolerance() {
        let g = parse("  POLYGON  (  ( 0 0 ,4 0,  4 4, 0 4 , 0 0 ) ) ").unwrap();
        assert!(matches!(g, Geometry::Polygon(_)));
    }

    #[test]
    fn writer_formats_integers_compactly() {
        let g = parse("POINT (1 2)").unwrap();
        assert_eq!(write(&g), "POINT (1 2)");
        let g = parse("POINT (1.5 2)").unwrap();
        assert_eq!(write(&g), "POINT (1.5 2)");
    }
}
