//! Well-Known Binary encoding and decoding.
//!
//! Supports both byte orders on read (the leading byte-order mark decides)
//! and emits little-endian on write, matching the behaviour of the systems
//! Jackpine originally benchmarked. `POINT EMPTY` is encoded as a point
//! with NaN coordinates, the de-facto convention. A reader follows a
//! geometry collection's members down at most [`MAX_NESTING`] levels, so
//! hostile bytes cannot overflow the stack.

use crate::codec::{PutBytes, TakeBytes};
use crate::polygon::Ring;
use crate::{
    Coord, Envelope, GeomError, Geometry, GeometryCollection, GeometryRef, GeometryType,
    LineString, MultiLineString, MultiPoint, MultiPolygon, Point, Polygon, Result,
};

/// Encodes a geometry as little-endian WKB.
pub fn encode(g: &Geometry) -> Vec<u8> {
    let mut buf = Vec::with_capacity(estimate_size(g));
    encode_into(g, &mut buf);
    buf
}

/// How deep [`decode`] and [`envelope`] follow geometries nested in
/// multi-geometries and collections: a member of a top-level collection
/// is one deep. Deeper bytes are a [`GeomError::WkbDecode`].
pub const MAX_NESTING: usize = 256;

/// Decodes a WKB byte string (either endianness).
pub fn decode(mut data: &[u8]) -> Result<Geometry> {
    let g = decode_geometry(&mut data, 0)?;
    if !data.is_empty() {
        return Err(GeomError::WkbDecode(format!("{} trailing bytes", data.len())));
    }
    Ok(g)
}

/// How deep `g` nests as [`decode`] counts it: 0 for a point, a
/// linestring, a polygon or an empty multi-geometry or collection, and
/// one more than its deepest member otherwise. [`decode`] reads back
/// what nests at most [`MAX_NESTING`] deep.
pub fn nesting<'a>(g: impl Into<GeometryRef<'a>>) -> usize {
    let GeometryRef::Geometry(g) = g.into() else { return 0 };
    match g {
        Geometry::MultiPoint(m) => usize::from(!m.0.is_empty()),
        Geometry::MultiLineString(m) => usize::from(!m.0.is_empty()),
        Geometry::MultiPolygon(m) => usize::from(!m.0.is_empty()),
        Geometry::GeometryCollection(c) => c.0.iter().map(|m| 1 + nesting(m)).max().unwrap_or(0),
        Geometry::Point(_) | Geometry::LineString(_) | Geometry::Polygon(_) => 0,
    }
}

/// The envelope of a WKB geometry, read off its bytes without building
/// it: bit-identical to `decode(data)?.envelope()` — the same
/// coordinates folded in the same order, so a polygon's holes are
/// stepped over unread, as [`Polygon::envelope`] ignores them. Framing
/// is checked as [`decode`] checks it (lengths, counts, member kinds,
/// finite coordinates read, no trailing bytes); ring closure and vertex
/// counts are not, since only decodable geometries are ever stored.
pub fn envelope(mut data: &[u8]) -> Result<Envelope> {
    let e = envelope_of(&mut data, None, 0)?;
    if !data.is_empty() {
        return Err(GeomError::WkbDecode(format!("{} trailing bytes", data.len())));
    }
    Ok(e)
}

/// The bytes [`encode`] reserves for `g`: 16 a coordinate plus 64, which
/// covers the headers and counts of every geometry but a multi-geometry
/// or collection of many members.
pub fn estimate_size(g: &Geometry) -> usize {
    16 * g.num_coords() + 64
}

// ---------------------------------------------------------------------------
// Encoding (always little-endian)
// ---------------------------------------------------------------------------

/// Appends the little-endian WKB of `g` — a [`Geometry`], or a point,
/// linestring or polygon borrowed where it lies ([`GeometryRef`]) — to
/// `buf`: [`encode`] into a buffer the caller owns, so a geometry inside a
/// larger record is written in place and nothing is built to hold it.
pub fn encode_into<'a>(g: impl Into<GeometryRef<'a>>, buf: &mut Vec<u8>) {
    put_geometry(g.into(), buf);
}

/// [`encode_into`]: members of a multi-geometry are written where they
/// are, as the borrowed geometries they are, never cloned into a
/// `Geometry` of their own.
fn put_geometry(g: GeometryRef<'_>, buf: &mut Vec<u8>) {
    match g {
        GeometryRef::Point(p) => {
            put_header(GeometryType::Point.wkb_code(), buf);
            match p.coord() {
                Some(c) => put_coord(c, buf),
                None => {
                    buf.put_f64_le(f64::NAN);
                    buf.put_f64_le(f64::NAN);
                }
            }
        }
        GeometryRef::LineString(l) => {
            put_header(GeometryType::LineString.wkb_code(), buf);
            put_coord_seq(l.coords(), buf);
        }
        GeometryRef::Polygon(p) => {
            put_header(GeometryType::Polygon.wkb_code(), buf);
            put_polygon_body(p, buf);
        }
        GeometryRef::Geometry(g) => match g {
            Geometry::Point(p) => put_geometry(p.into(), buf),
            Geometry::LineString(l) => put_geometry(l.into(), buf),
            Geometry::Polygon(p) => put_geometry(p.into(), buf),
            Geometry::MultiPoint(m) => put_members(g, &m.0, buf),
            Geometry::MultiLineString(m) => put_members(g, &m.0, buf),
            Geometry::MultiPolygon(m) => put_members(g, &m.0, buf),
            Geometry::GeometryCollection(c) => put_members(g, &c.0, buf),
        },
    }
}

/// A multi-geometry or collection `g` whose members are `members`.
fn put_members<'a, T>(g: &Geometry, members: &'a [T], buf: &mut Vec<u8>)
where
    &'a T: Into<GeometryRef<'a>>,
{
    put_header(g.geometry_type().wkb_code(), buf);
    buf.put_u32_le(members.len() as u32);
    members.iter().for_each(|m| put_geometry(m.into(), buf));
}

/// A geometry's byte-order mark (little-endian) and type code.
fn put_header(code: u32, buf: &mut Vec<u8>) {
    buf.put_u8(1);
    buf.put_u32_le(code);
}

fn put_coord(c: Coord, buf: &mut Vec<u8>) {
    buf.put_f64_le(c.x);
    buf.put_f64_le(c.y);
}

fn put_coord_seq(coords: &[Coord], buf: &mut Vec<u8>) {
    buf.put_u32_le(coords.len() as u32);
    for &c in coords {
        put_coord(c, buf);
    }
}

fn put_polygon_body(p: &Polygon, buf: &mut Vec<u8>) {
    buf.put_u32_le(1 + p.holes().len() as u32);
    put_coord_seq(p.exterior().coords(), buf);
    for h in p.holes() {
        put_coord_seq(h.coords(), buf);
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Sanity cap on declared element counts, to reject hostile inputs before
/// attempting huge allocations.
const MAX_ELEMENTS: u32 = 64 * 1024 * 1024;

/// The geometry at the front of `data`, `depth` deep.
fn decode_geometry(data: &mut &[u8], depth: usize) -> Result<Geometry> {
    nested(depth)?;
    if data.remaining() < 5 {
        return Err(GeomError::WkbDecode("truncated header".into()));
    }
    let little = match data.get_u8() {
        0 => false,
        1 => true,
        other => return Err(GeomError::WkbDecode(format!("bad byte-order mark {other}"))),
    };
    let code = get_u32(data, little)?;
    match code {
        1 => {
            let c = get_coord(data, little)?;
            if c.x.is_nan() && c.y.is_nan() {
                Ok(Geometry::Point(Point::empty()))
            } else {
                Ok(Geometry::Point(Point::from_coord(c)?))
            }
        }
        2 => Ok(Geometry::LineString(LineString::new(get_coord_seq(data, little)?)?)),
        3 => Ok(Geometry::Polygon(get_polygon_body(data, little)?)),
        4 => {
            let n = get_count(data, little)?;
            let mut pts = Vec::with_capacity(n as usize);
            for _ in 0..n {
                match decode_geometry(data, depth + 1)? {
                    Geometry::Point(p) => pts.push(p),
                    other => {
                        return Err(GeomError::WkbDecode(format!(
                            "multipoint member is {:?}",
                            other.geometry_type()
                        )))
                    }
                }
            }
            Ok(Geometry::MultiPoint(MultiPoint(pts)))
        }
        5 => {
            let n = get_count(data, little)?;
            let mut ls = Vec::with_capacity(n as usize);
            for _ in 0..n {
                match decode_geometry(data, depth + 1)? {
                    Geometry::LineString(l) => ls.push(l),
                    other => {
                        return Err(GeomError::WkbDecode(format!(
                            "multilinestring member is {:?}",
                            other.geometry_type()
                        )))
                    }
                }
            }
            Ok(Geometry::MultiLineString(MultiLineString(ls)))
        }
        6 => {
            let n = get_count(data, little)?;
            let mut ps = Vec::with_capacity(n as usize);
            for _ in 0..n {
                match decode_geometry(data, depth + 1)? {
                    Geometry::Polygon(p) => ps.push(p),
                    other => {
                        return Err(GeomError::WkbDecode(format!(
                            "multipolygon member is {:?}",
                            other.geometry_type()
                        )))
                    }
                }
            }
            Ok(Geometry::MultiPolygon(MultiPolygon(ps)))
        }
        7 => {
            let n = get_count(data, little)?;
            let mut gs = Vec::with_capacity(n as usize);
            for _ in 0..n {
                gs.push(decode_geometry(data, depth + 1)?);
            }
            Ok(Geometry::GeometryCollection(GeometryCollection(gs)))
        }
        other => Err(GeomError::WkbDecode(format!("unknown geometry code {other}"))),
    }
}

/// Refuses a geometry `depth` deep when that is past [`MAX_NESTING`].
fn nested(depth: usize) -> Result<()> {
    if depth > MAX_NESTING {
        return Err(GeomError::WkbDecode(format!("geometries nested over {MAX_NESTING} deep")));
    }
    Ok(())
}

fn get_u32(data: &mut &[u8], little: bool) -> Result<u32> {
    if data.remaining() < 4 {
        return Err(GeomError::WkbDecode("truncated u32".into()));
    }
    Ok(if little { data.get_u32_le() } else { data.get_u32() })
}

fn get_count(data: &mut &[u8], little: bool) -> Result<u32> {
    let n = get_u32(data, little)?;
    if n > MAX_ELEMENTS {
        return Err(GeomError::WkbDecode(format!("element count {n} exceeds sanity cap")));
    }
    Ok(n)
}

fn get_f64(data: &mut &[u8], little: bool) -> Result<f64> {
    if data.remaining() < 8 {
        return Err(GeomError::WkbDecode("truncated f64".into()));
    }
    Ok(if little { data.get_f64_le() } else { data.get_f64() })
}

fn get_coord(data: &mut &[u8], little: bool) -> Result<Coord> {
    let x = get_f64(data, little)?;
    let y = get_f64(data, little)?;
    Ok(Coord::new(x, y))
}

fn get_coord_seq(data: &mut &[u8], little: bool) -> Result<Vec<Coord>> {
    let n = get_count(data, little)?;
    if (data.remaining() as u64) < n as u64 * 16 {
        return Err(GeomError::WkbDecode("coordinate sequence longer than buffer".into()));
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let c = get_coord(data, little)?;
        if !c.is_finite() {
            return Err(GeomError::WkbDecode("non-finite coordinate".into()));
        }
        out.push(c);
    }
    Ok(out)
}

fn get_polygon_body(data: &mut &[u8], little: bool) -> Result<Polygon> {
    let nrings = get_count(data, little)?;
    if nrings == 0 {
        return Err(GeomError::WkbDecode("polygon with zero rings".into()));
    }
    let exterior = Ring::new(get_coord_seq(data, little)?)?;
    let mut holes = Vec::with_capacity(nrings as usize - 1);
    for _ in 1..nrings {
        holes.push(Ring::new(get_coord_seq(data, little)?)?);
    }
    Ok(Polygon::new(exterior, holes))
}

// ---------------------------------------------------------------------------
// Envelope walk (no allocation)
// ---------------------------------------------------------------------------

/// [`envelope`] of the geometry at the front of `data`, `depth` deep,
/// whose type code must be `member` when it is given (a multi-geometry's
/// members).
fn envelope_of(data: &mut &[u8], member: Option<u32>, depth: usize) -> Result<Envelope> {
    nested(depth)?;
    if data.remaining() < 5 {
        return Err(GeomError::WkbDecode("truncated header".into()));
    }
    let little = match data.get_u8() {
        0 => false,
        1 => true,
        other => return Err(GeomError::WkbDecode(format!("bad byte-order mark {other}"))),
    };
    let code = get_u32(data, little)?;
    if member.is_some_and(|want| want != code) {
        return Err(GeomError::WkbDecode(format!("multi-geometry member has code {code}")));
    }
    match code {
        1 => {
            let c = get_coord(data, little)?;
            if c.x.is_nan() && c.y.is_nan() {
                return Ok(Envelope::EMPTY);
            }
            Point::from_coord(c)?;
            Ok(Envelope::from_coord(c))
        }
        2 => coord_seq_envelope(data, little),
        3 => {
            let nrings = get_count(data, little)?;
            if nrings == 0 {
                return Err(GeomError::WkbDecode("polygon with zero rings".into()));
            }
            let exterior = coord_seq_envelope(data, little)?;
            for _ in 1..nrings {
                let n = get_count(data, little)?;
                if (data.remaining() as u64) < n as u64 * 16 {
                    return Err(GeomError::WkbDecode("hole longer than buffer".into()));
                }
                data.advance(n as usize * 16);
            }
            Ok(exterior)
        }
        4..=7 => {
            let member = (code != 7).then_some(code - 3);
            let n = get_count(data, little)?;
            let mut e = Envelope::EMPTY;
            for _ in 0..n {
                e.expand_to_include(&envelope_of(data, member, depth + 1)?);
            }
            Ok(e)
        }
        other => Err(GeomError::WkbDecode(format!("unknown geometry code {other}"))),
    }
}

/// [`Envelope::from_coords`] of the coordinate sequence at the front of
/// `data`, its length checked once up front.
fn coord_seq_envelope(data: &mut &[u8], little: bool) -> Result<Envelope> {
    let len = get_count(data, little)? as usize * 16;
    let Some(coords) = data.get(..len) else {
        return Err(GeomError::WkbDecode("coordinate sequence longer than buffer".into()));
    };
    let f64_at = |b: &[u8]| {
        let b = b.try_into().expect("chunks of 16 split in halves of 8");
        if little {
            f64::from_le_bytes(b)
        } else {
            f64::from_be_bytes(b)
        }
    };
    let mut e = Envelope::EMPTY;
    for xy in coords.chunks_exact(16) {
        let c = Coord::new(f64_at(&xy[..8]), f64_at(&xy[8..]));
        if !c.is_finite() {
            return Err(GeomError::WkbDecode("non-finite coordinate".into()));
        }
        e.expand_to_coord(c);
    }
    data.advance(len);
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wkt;

    fn roundtrip(wkt_str: &str) {
        let g = wkt::parse(wkt_str).unwrap();
        let bytes = encode(&g);
        let g2 = decode(&bytes).unwrap();
        assert_eq!(g, g2, "WKB roundtrip failed for {wkt_str}");
    }

    #[test]
    fn roundtrip_all_types() {
        roundtrip("POINT (1 2)");
        roundtrip("POINT EMPTY");
        roundtrip("LINESTRING (0 0, 1 1, 2 0)");
        roundtrip("LINESTRING EMPTY");
        roundtrip("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
        roundtrip("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))");
        roundtrip("MULTIPOINT ((0 0), (1 1))");
        roundtrip("MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))");
        roundtrip("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)))");
        roundtrip("GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))");
        roundtrip("GEOMETRYCOLLECTION EMPTY");
    }

    #[test]
    fn big_endian_decoding() {
        // Hand-build a big-endian POINT (1 2).
        let mut buf = Vec::new();
        buf.put_u8(0);
        buf.put_u32(1);
        buf.put_f64(1.0);
        buf.put_f64(2.0);
        match decode(&buf).unwrap() {
            Geometry::Point(p) => {
                assert_eq!(p.x(), Some(1.0));
                assert_eq!(p.y(), Some(2.0));
            }
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[2, 0, 0, 0, 1]).is_err()); // bad byte-order mark
        assert!(decode(&[1, 9, 0, 0, 0]).is_err()); // unknown type code
                                                    // Truncated coordinate payload.
        let mut buf = Vec::new();
        buf.put_u8(1);
        buf.put_u32_le(1);
        buf.put_f64_le(1.0);
        assert!(decode(&buf).is_err());
        // Hostile element count.
        let mut buf = Vec::new();
        buf.put_u8(1);
        buf.put_u32_le(2); // linestring
        buf.put_u32_le(u32::MAX);
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let g = wkt::parse("POINT (1 2)").unwrap();
        let mut bytes = encode(&g);
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn collections_nested_past_the_bound_are_an_error_not_an_overflow() {
        // 100,000 collections, each holding the next: 900 KB whose
        // recursion would overflow any thread's stack.
        let depth = 100_000;
        let mut deep = Vec::with_capacity(9 * depth + 21);
        for _ in 0..depth {
            put_header(GeometryType::GeometryCollection.wkb_code(), &mut deep);
            deep.put_u32_le(1);
        }
        put_header(GeometryType::Point.wkb_code(), &mut deep);
        put_coord(Coord::new(1.0, 2.0), &mut deep);
        assert!(matches!(decode(&deep), Err(GeomError::WkbDecode(_))));
        assert!(matches!(envelope(&deep), Err(GeomError::WkbDecode(_))));
        // At the bound, both still read.
        let mut g = wkt::parse("POINT (1 2)").unwrap();
        for _ in 0..MAX_NESTING {
            g = Geometry::GeometryCollection(GeometryCollection(vec![g]));
        }
        let bytes = encode(&g);
        assert_eq!(decode(&bytes).unwrap(), g);
        assert_eq!(envelope(&bytes).unwrap(), Envelope::new(1.0, 2.0, 1.0, 2.0));
        assert_eq!(nesting(&g), MAX_NESTING);
        let g = Geometry::GeometryCollection(GeometryCollection(vec![g]));
        assert!(decode(&encode(&g)).is_err() && envelope(&encode(&g)).is_err(), "one past");
        assert_eq!(nesting(&g), MAX_NESTING + 1);
        for (text, depth) in [
            ("POINT (1 2)", 0),
            ("MULTIPOINT EMPTY", 0),
            ("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)))", 1),
            ("GEOMETRYCOLLECTION EMPTY", 0),
            ("GEOMETRYCOLLECTION (POINT (1 1), GEOMETRYCOLLECTION (MULTIPOINT ((1 1))))", 3),
        ] {
            assert_eq!(nesting(&wkt::parse(text).unwrap()), depth, "{text}");
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let g = wkt::parse("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))").unwrap();
        assert_eq!(encode(&g), encode(&g));
    }
}
