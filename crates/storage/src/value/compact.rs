//! The stored row codec: the one form a row takes at rest — in a heap
//! page, and so in a spill file, in the write-ahead log's insert records
//! and in a snapshot's page entries, which all carry a page's tuples as
//! they are.
//!
//! ```text
//! row:   arity varint | per value: tag u8 | payload
//!   0 NULL     nothing
//!   1 integer  zigzag varint
//!   2 float    f64
//!   3 text     length varint | UTF-8
//!   4 geometry the geometry, compact (below)
//!   5 geometry length varint | its WKB
//! geometry:  type u8 (the WKB code, 1..=7; a member of a multi-point,
//!            -linestring or -polygon has none: it is its parent's)
//!   point       x f64 | y f64 (both NaN: POINT EMPTY)
//!   linestring  count varint | count × (x f64 | y f64)
//!   polygon     ring count varint | per ring:
//!               count − 1 varint | all but the closing vertex
//!   multi, collection  member count varint | the members
//! ```
//!
//! Every varint is an unsigned LEB128 ([`crate::page`]'s) and every
//! `f64` little-endian. Coordinates are kept bit for bit, NaN and `-0.0`
//! included. A ring's closing vertex is implied only when its bits are
//! its first vertex's; a geometry with a ring that fails that test, or
//! nested deeper than [`MAX_DEPTH`], is stored whole, as its WKB under
//! tag 5. So a tuple decodes to exactly the values it was encoded from.
//!
//! A row is encoded straight from its values, lent or owned
//! ([`Value::store_row_into`]), and read back in place ([`Field::of`]: a
//! column's integer, its text, or the envelope of its geometry, with
//! nothing built) or whole ([`Value::decode_row`]). This is not the
//! canonical form: [`Value::encode_row`]'s tags, fixed-width numbers and
//! WKB are what results are digested and measured in, and no page, log
//! record or snapshot holds them.
//!
//! The readers take what a damaged spill file or a crafted log or
//! snapshot may hold: every count and length is checked against the
//! bytes left before anything is reserved, and geometries nest at most
//! [`MAX_DEPTH`] deep, so a bad tuple is [`StorageError::Corrupt`] (or
//! the geometry error of a member that does not validate), never a
//! panic.

use super::{Field, Lend, Row, Value, ValueRef};
use crate::page::{put_varint, take_varint};
use crate::{Result, Schema, StorageError};
use jackpine_geom::{
    wkb, Coord, Envelope, Geometry, GeometryCollection, GeometryRef, LineString, MultiLineString,
    MultiPoint, MultiPolygon, Point, Polygon, Ring,
};

/// How deep geometries nest in a stored tuple: a collection in a
/// collection is two. A deeper one is stored whole.
pub const MAX_DEPTH: usize = 16;

/// A coordinate: two `f64`s.
const COORD: usize = 16;

fn corrupt(what: &str) -> StorageError {
    StorageError::Corrupt(format!("compact row: {what}"))
}

fn put_uvarint(buf: &mut Vec<u8>, v: u64) {
    put_varint(|byte| buf.push(byte), v);
}

/// Appends the stored form of `row` to `buf`.
pub(super) fn put_row<V: Lend>(row: &[V], buf: &mut Vec<u8>) {
    put_uvarint(buf, row.len() as u64);
    for v in row {
        match v.lend() {
            ValueRef::Null => buf.push(0),
            ValueRef::Int(i) => {
                buf.push(1);
                put_uvarint(buf, ((i << 1) ^ (i >> 63)) as u64);
            }
            ValueRef::Float(f) => {
                buf.push(2);
                buf.extend_from_slice(&f.to_le_bytes());
            }
            ValueRef::Text(s) => {
                buf.push(3);
                put_uvarint(buf, s.len() as u64);
                buf.extend_from_slice(s.as_bytes());
            }
            ValueRef::Geom(g) => {
                let mark = buf.len();
                buf.push(4);
                if put_geometry(g, false, 0, buf).is_none() {
                    buf.truncate(mark);
                    let mut whole = Vec::new();
                    wkb::encode_into(g, &mut whole);
                    buf.push(5);
                    put_uvarint(buf, whole.len() as u64);
                    buf.extend_from_slice(&whole);
                }
            }
        }
    }
}

fn put_coords(coords: &[Coord], buf: &mut Vec<u8>) {
    buf.reserve(coords.len() * COORD);
    for c in coords {
        buf.extend_from_slice(&c.x.to_le_bytes());
        buf.extend_from_slice(&c.y.to_le_bytes());
    }
}

/// Writes the compact form of `g`, `depth` deep, without its type byte
/// when it is a `member` of a multi-geometry; `None` where it cannot be
/// stored compact (what was written of it is then the caller's to
/// rewind).
fn put_geometry(g: GeometryRef<'_>, member: bool, depth: usize, buf: &mut Vec<u8>) -> Option<()> {
    let kind = |code: u8, buf: &mut Vec<u8>| {
        if !member {
            buf.push(code);
        }
    };
    match g {
        GeometryRef::Point(p) => {
            kind(1, buf);
            put_coords(&[p.coord().unwrap_or(Coord::new(f64::NAN, f64::NAN))], buf);
        }
        GeometryRef::LineString(l) => {
            kind(2, buf);
            put_uvarint(buf, l.coords().len() as u64);
            put_coords(l.coords(), buf);
        }
        GeometryRef::Polygon(p) => {
            kind(3, buf);
            put_uvarint(buf, 1 + p.holes().len() as u64);
            for ring in p.rings() {
                let (last, open) = ring.coords().split_last()?;
                let first = open.first()?;
                if (last.x.to_bits(), last.y.to_bits()) != (first.x.to_bits(), first.y.to_bits()) {
                    return None;
                }
                put_uvarint(buf, open.len() as u64);
                put_coords(open, buf);
            }
        }
        GeometryRef::Geometry(g) => match g {
            Geometry::Point(p) => put_geometry(p.into(), member, depth, buf)?,
            Geometry::LineString(l) => put_geometry(l.into(), member, depth, buf)?,
            Geometry::Polygon(p) => put_geometry(p.into(), member, depth, buf)?,
            Geometry::MultiPoint(m) => put_members(4, &m.0, true, depth, buf)?,
            Geometry::MultiLineString(m) => put_members(5, &m.0, true, depth, buf)?,
            Geometry::MultiPolygon(m) => put_members(6, &m.0, true, depth, buf)?,
            Geometry::GeometryCollection(c) => put_members(7, &c.0, false, depth, buf)?,
        },
    }
    Some(())
}

/// A multi-geometry or collection of type `code`, `depth` deep, whose
/// `members` go without their type bytes when they are `typed` by it.
fn put_members<'a, T>(
    code: u8,
    members: &'a [T],
    typed: bool,
    depth: usize,
    buf: &mut Vec<u8>,
) -> Option<()>
where
    &'a T: Into<GeometryRef<'a>>,
{
    if !members.is_empty() && depth + 1 >= MAX_DEPTH {
        return None;
    }
    buf.push(code);
    put_uvarint(buf, members.len() as u64);
    members.iter().try_for_each(|m| put_geometry(m.into(), typed, depth + 1, buf))
}

/// A stored tuple being read: its bytes not yet read.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    #[inline]
    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, rest) = self
            .0
            .split_at_checked(n)
            .ok_or_else(|| corrupt("a count or length runs past the row"))?;
        self.0 = rest;
        Ok(head)
    }

    #[inline]
    fn byte(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    #[inline]
    fn varint(&mut self) -> Result<u64> {
        match self.0.split_first() {
            Some((&byte, rest)) if byte < 0x80 => {
                self.0 = rest;
                Ok(u64::from(byte))
            }
            _ => take_varint(|| self.byte()),
        }
    }

    /// A count of things that take at least `min` bytes each, checked
    /// against the bytes left.
    #[inline]
    fn count(&mut self, min: usize) -> Result<usize> {
        let n = self.varint()?;
        if n.saturating_mul(min as u64) > self.0.len() as u64 {
            return Err(corrupt("a count or length runs past the row"));
        }
        Ok(n as usize)
    }

    /// A length varint and the bytes it counts.
    #[inline]
    fn sized(&mut self) -> Result<&'a [u8]> {
        let n = self.count(1)?;
        self.bytes(n)
    }

    /// The coordinates of a run of `n` vertices.
    #[inline]
    fn coords(&mut self, n: usize) -> Result<&'a [u8]> {
        self.bytes(n * COORD)
    }

    /// A ring's vertex count less its implied closing vertex: one at
    /// least.
    #[inline]
    fn ring(&mut self) -> Result<usize> {
        match self.count(COORD)? {
            0 => Err(corrupt("a ring without a vertex")),
            n => Ok(n),
        }
    }

    /// A member count of a geometry `depth` deep, whose members take at
    /// least `min` bytes each.
    #[inline]
    fn members(&mut self, min: usize, depth: usize) -> Result<usize> {
        let n = self.count(min)?;
        if n > 0 && depth + 1 >= MAX_DEPTH {
            return Err(corrupt("geometries nested too deep"));
        }
        Ok(n)
    }

    /// The row's column count.
    fn arity(&mut self) -> Result<u16> {
        u16::try_from(self.varint()?).map_err(|_| corrupt("more columns than a row holds"))
    }
}

fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

fn text(bytes: &[u8]) -> Result<&str> {
    std::str::from_utf8(bytes).map_err(|_| StorageError::Corrupt("invalid UTF-8".into()))
}

fn coord(xy: &[u8]) -> Coord {
    let (x, y) = xy.split_at(8);
    let f = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("a coordinate is two f64s"));
    Coord::new(f(x), f(y))
}

/// The vertices of `raw`, and the first again when `closed`.
fn vertices(raw: &[u8], closed: bool) -> Vec<Coord> {
    let mut out = Vec::with_capacity(raw.len() / COORD + usize::from(closed));
    read_vertices(raw, closed, &mut out);
    out
}

/// [`vertices`] of `raw`, read into `out` in place of what it held.
fn read_vertices<'o>(raw: &[u8], closed: bool, out: &'o mut Vec<Coord>) -> &'o [Coord] {
    out.clear();
    out.extend(raw.chunks_exact(COORD).map(coord));
    if closed {
        out.push(out[0]);
    }
    out
}

/// Decodes the row at the front of `data`, advancing past it.
pub(super) fn take_row(data: &mut &[u8]) -> Result<Row> {
    let mut r = Reader(data);
    let arity = r.arity()?;
    // Clamp: a value takes its tag byte at least.
    let mut row = Vec::with_capacity(usize::from(arity).min(r.0.len()));
    for _ in 0..arity {
        row.push(match r.byte()? {
            0 => Value::Null,
            1 => Value::Int(unzigzag(r.varint()?)),
            2 => Value::Float(f64::from_le_bytes(r.bytes(8)?.try_into().expect("eight bytes"))),
            3 => Value::Text(text(r.sized()?)?.to_owned()),
            4 => Value::Geom(take_geometry(&mut r, 0)?),
            5 => Value::Geom(wkb::decode(r.sized()?)?),
            t => return Err(corrupt(&format!("unknown value tag {t}"))),
        });
    }
    *data = r.0;
    Ok(row)
}

fn take_point(r: &mut Reader<'_>) -> Result<Point> {
    let c = coord(r.coords(1)?);
    if c.x.is_nan() && c.y.is_nan() {
        return Ok(Point::empty());
    }
    Ok(Point::from_coord(c)?)
}

fn take_line(r: &mut Reader<'_>) -> Result<LineString> {
    let n = r.count(COORD)?;
    Ok(LineString::new(vertices(r.coords(n)?, false))?)
}

fn take_polygon(r: &mut Reader<'_>) -> Result<Polygon> {
    let rings = r.count(1 + COORD)?;
    if rings == 0 {
        return Err(corrupt("a polygon without a ring"));
    }
    let mut ring = || -> Result<Ring> {
        let n = r.ring()?;
        Ok(Ring::new(vertices(r.coords(n)?, true))?)
    };
    let exterior = ring()?;
    let holes = (1..rings).map(|_| ring()).collect::<Result<_>>()?;
    Ok(Polygon::new(exterior, holes))
}

/// The members of a geometry `depth` deep, each at least `min` bytes
/// and read by `take`.
fn take_members<'a, T>(
    r: &mut Reader<'a>,
    min: usize,
    depth: usize,
    mut take: impl FnMut(&mut Reader<'a>) -> Result<T>,
) -> Result<Vec<T>> {
    let n = r.members(min, depth)?;
    (0..n).map(|_| take(r)).collect()
}

/// Decodes the compact geometry at the front of `r`, `depth` deep.
fn take_geometry(r: &mut Reader<'_>, depth: usize) -> Result<Geometry> {
    Ok(match r.byte()? {
        1 => Geometry::Point(take_point(r)?),
        2 => Geometry::LineString(take_line(r)?),
        3 => Geometry::Polygon(take_polygon(r)?),
        4 => Geometry::MultiPoint(MultiPoint(take_members(r, COORD, depth, take_point)?)),
        5 => Geometry::MultiLineString(MultiLineString(take_members(r, 1, depth, take_line)?)),
        6 => Geometry::MultiPolygon(MultiPolygon(take_members(r, 1, depth, take_polygon)?)),
        7 => Geometry::GeometryCollection(GeometryCollection(take_members(r, 1, depth, |r| {
            take_geometry(r, depth + 1)
        })?)),
        t => return Err(corrupt(&format!("unknown geometry type {t}"))),
    })
}

/// A geometry column as it is stored, borrowed from its tuple: read its
/// envelope in place, or decode it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeomBytes<'a> {
    bytes: &'a [u8],
    /// Stored whole, as WKB (tag 5).
    whole: bool,
}

impl GeomBytes<'_> {
    /// The geometry's envelope, read off its bytes without building it:
    /// bit-identical to the decoded geometry's, the same coordinates
    /// folded in the same order (a ring's closing vertex last, a
    /// polygon's holes stepped over, as [`Polygon::envelope`] ignores
    /// them).
    ///
    /// # Errors
    /// As for [`GeomBytes::decode`], but for what only building the
    /// geometry checks (ring closure, vertex counts, duplicates).
    pub fn envelope(&self) -> Result<Envelope> {
        if self.whole {
            return Ok(wkb::envelope(self.bytes)?);
        }
        walk(&mut Reader(self.bytes), None, 0, &mut Visit::Fold)
    }

    /// The geometry.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] for bytes that are no stored geometry,
    /// and the geometry error of one that does not validate.
    pub fn decode(&self) -> Result<Geometry> {
        if self.whole {
            return Ok(wkb::decode(self.bytes)?);
        }
        take_geometry(&mut Reader(self.bytes), 0)
    }
}

/// What [`walk`] does with the coordinates it steps over.
enum Visit<'v> {
    /// Passes them over unread.
    Skip,
    /// Folds them into the envelope it returns ([`GeomBytes::envelope`]).
    Fold,
    /// Reads each point, line and ring — into the buffer — and checks it
    /// by the rules that build it: [`Point::check`],
    /// [`LineString::check`], [`Ring::check`].
    Check(&'v mut Vec<Coord>),
}

/// Steps `r` over the compact geometry at its front, `depth` deep, of
/// type `member` when it is a multi-geometry's member: its counts are
/// read, and its coordinates as `visit` says. The envelope is empty but
/// when it folds them.
fn walk(
    r: &mut Reader<'_>,
    member: Option<u8>,
    depth: usize,
    visit: &mut Visit<'_>,
) -> Result<Envelope> {
    let code = match member {
        Some(kind) => kind,
        None => r.byte()?,
    };
    let mut e = Envelope::EMPTY;
    match code {
        1 => {
            let c = coord(r.coords(1)?);
            let empty = c.x.is_nan() && c.y.is_nan();
            match visit {
                Visit::Fold if !empty => e = bounds([c])?,
                Visit::Check(_) if !empty => Point::check(c)?,
                _ => {}
            }
        }
        2 => {
            let n = r.count(COORD)?;
            let run = r.coords(n)?;
            match visit {
                Visit::Skip => {}
                Visit::Fold => e = bounds(run.chunks_exact(COORD).map(coord))?,
                Visit::Check(buf) => LineString::check(read_vertices(run, false, buf))?,
            }
        }
        3 => {
            let rings = r.count(1 + COORD)?;
            if rings == 0 {
                return Err(corrupt("a polygon without a ring"));
            }
            for ring in 0..rings {
                let n = r.ring()?;
                let run = r.coords(n)?;
                match visit {
                    // The exterior's, its implied closing vertex last.
                    Visit::Fold if ring == 0 => {
                        let closing = coord(&run[..COORD]);
                        e = bounds(run.chunks_exact(COORD).map(coord).chain([closing]))?;
                    }
                    Visit::Check(buf) => Ring::check(read_vertices(run, true, buf))?,
                    _ => {}
                }
            }
        }
        4..=7 => {
            let kind = (code != 7).then_some(code - 3);
            let min = if code == 4 { COORD } else { 1 };
            for _ in 0..r.members(min, depth)? {
                e.expand_to_include(&walk(r, kind, depth + 1, visit)?);
            }
        }
        t => return Err(corrupt(&format!("unknown geometry type {t}"))),
    }
    Ok(e)
}

/// [`Envelope::from_coords`] of `coords`: an error at the first that is
/// not finite.
fn bounds(coords: impl IntoIterator<Item = Coord>) -> Result<Envelope> {
    let mut e = Envelope::EMPTY;
    for c in coords {
        if !c.is_finite() {
            return Err(corrupt("a coordinate that is not finite"));
        }
        e.expand_to_coord(c);
    }
    Ok(e)
}

/// Steps `r` over one value, or reads it as a field when `read`; a
/// compact geometry is walked as `visit` says.
#[inline]
fn field<'a>(r: &mut Reader<'a>, read: bool, visit: &mut Visit<'_>) -> Result<Field<'a>> {
    Ok(match r.byte()? {
        0 => Field::Null,
        1 => Field::Int(unzigzag(r.varint()?)),
        2 => Field::Float(f64::from_le_bytes(r.bytes(8)?.try_into().expect("eight bytes"))),
        3 if read => Field::Text(text(r.sized()?)?),
        3 => Field::Text(r.sized().map(|_| "")?),
        4 => {
            let at = r.0;
            walk(r, None, 0, visit)?;
            Field::Geom(GeomBytes { bytes: &at[..at.len() - r.0.len()], whole: false })
        }
        5 => Field::Geom(GeomBytes { bytes: r.sized()?, whole: true }),
        t => return Err(corrupt(&format!("unknown value tag {t}"))),
    })
}

/// [`Field::of`].
pub(super) fn fields<'a, E: From<StorageError>>(
    tuple: &'a [u8],
    cols: &[usize],
    mut visit: impl FnMut(usize, Field<'a>) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    let mut r = Reader(tuple);
    let arity = usize::from(r.arity()?);
    // The number of the column `r` starts at.
    let mut next = 0;
    for (i, &col) in cols.iter().enumerate() {
        assert!(col >= next, "columns {cols:?} are not ascending");
        if col >= arity {
            break;
        }
        for _ in next..col {
            field(&mut r, false, &mut Visit::Skip)?;
        }
        let f = field(&mut r, true, &mut Visit::Skip)?;
        next = col + 1;
        visit(i, f)?;
    }
    Ok(())
}

/// [`Schema::check_tuple`]: one walk of the row, each value read as a
/// field and each compact geometry checked as it is walked.
pub(crate) fn check_row(tuple: &[u8], schema: &Schema, coords: &mut Vec<Coord>) -> Result<()> {
    let mut r = Reader(tuple);
    schema.check_arity(usize::from(r.arity()?))?;
    let mut visit = Visit::Check(coords);
    for col in schema.columns() {
        let f = field(&mut r, true, &mut visit)?;
        if !col.fits(f.data_type()) {
            return Err(col.misfit(&match f {
                Field::Geom(_) => "a geometry".into(),
                f => format!("value {f:?}"),
            }));
        }
        // A compact geometry nests at most `MAX_DEPTH` deep, within what
        // a WKB reader follows; one stored whole is decoded to be sure.
        if let Field::Geom(g @ GeomBytes { whole: true, .. }) = f {
            col.check_nesting((&g.decode()?).into())?;
        }
    }
    if !r.0.is_empty() {
        return Err(corrupt("bytes after the last value"));
    }
    Ok(())
}

const _: () = assert!(MAX_DEPTH <= wkb::MAX_NESTING);

#[cfg(test)]
mod tests {
    use super::*;
    use jackpine_geom::{wkt, Geometry};

    /// The stored form of `row`, checked to decode back to it bit for
    /// bit and to read in place as it decodes.
    fn round_trip(row: &[Value]) -> Vec<u8> {
        let tuple = Value::store_row(row);
        let back = Value::decode_row(&tuple).unwrap();
        assert!(Value::encode_row(&back) == Value::encode_row(row), "{row:?}: decoded to {back:?}");
        let every: Vec<usize> = (0..row.len()).collect();
        Field::of(&tuple, &every, |c, f| {
            let want = row[c].mbr().map(|q| q.map(f64::to_bits));
            assert_eq!(f.mbr()?.map(|q| q.map(f64::to_bits)), want, "{row:?}: column {c}");
            Ok::<(), StorageError>(())
        })
        .unwrap();
        tuple
    }

    fn geom(text: &str) -> Value {
        Value::Geom(wkt::parse(text).unwrap())
    }

    #[test]
    fn scalars_take_their_varints() {
        assert_eq!(
            round_trip(&[Value::Null, Value::Int(-1), Value::Int(63)]),
            [3, 0, 1, 1, 1, 126]
        );
        for i in [0, 1, -64, 64, i64::MIN, i64::MAX, i64::MIN + 1] {
            round_trip(&[Value::Int(i)]);
        }
        assert_eq!(round_trip(&[Value::Int(i64::MIN)]).len(), 1 + 1 + 10);
        for f in [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, 1e-310, 2.5] {
            let tuple = round_trip(&[Value::Float(f)]);
            assert_eq!(tuple.len(), 1 + 9);
            let back = Value::decode_row(&tuple).unwrap()[0].as_f64().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f}: bit for bit");
        }
        assert_eq!(round_trip(&[Value::Text(String::new())]), [1, 3, 0]);
        assert_eq!(round_trip(&[Value::Text("g".repeat(20_000))]).len(), 1 + 1 + 3 + 20_000);
        assert_eq!(round_trip(&[]), [0]);
    }

    #[test]
    fn every_geometry_kind_is_stored_compact() {
        for (text, len) in [
            ("POINT (1 2)", 1 + 16),
            ("POINT EMPTY", 1 + 16),
            ("LINESTRING (0 0, 3 4, 5 1)", 1 + 1 + 48),
            ("LINESTRING EMPTY", 1 + 1),
            (
                "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 2))",
                1 + 1 + 1 + 64 + 1 + 48,
            ),
            ("MULTIPOINT ((1 1), (2 3))", 1 + 1 + 32),
            ("MULTIPOINT EMPTY", 1 + 1),
            ("MULTILINESTRING ((0 0, 1 1), (2 2, 3 5, 4 4))", 1 + 1 + 1 + 32 + 1 + 48),
            ("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 9 5, 9 9, 5 5)))", 1 + 1 + 2 * 50),
            (
                "GEOMETRYCOLLECTION (POINT (4 4), MULTILINESTRING ((0 1, 1 0)), \
                 GEOMETRYCOLLECTION (POLYGON ((0 0, 1 0, 1 1, 0 0))))",
                1 + 1 + 17 + (1 + 1 + 1 + 32) + (1 + 1 + 1 + 1 + 1 + 48),
            ),
            ("GEOMETRYCOLLECTION EMPTY", 1 + 1),
        ] {
            // The arity, the tag, the geometry.
            let tuple = round_trip(&[geom(text)]);
            assert_eq!((tuple.len(), tuple[1]), (1 + 1 + len, 4), "{text}");
        }
    }

    #[test]
    fn a_geometry_it_cannot_rebuild_is_stored_whole() {
        // A ring closed on `(-0 0)` where it opened on `(0 0)`: equal to
        // the first vertex, not its bits. Stored as the WKB, not rewritten.
        let open = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)];
        let coords = open.iter().chain(&[(-0.0, 0.0)]).map(|&(x, y)| Coord::new(x, y));
        let ring = Ring::new(coords.collect()).unwrap();
        let signed_zero = Value::Geom(Geometry::Polygon(Polygon::new(ring, vec![])));
        let tuple = round_trip(std::slice::from_ref(&signed_zero));
        assert_eq!(tuple[1], 5, "a ring closed on -0 is stored whole");
        let Value::Geom(g) = &signed_zero else { unreachable!() };
        assert!(tuple.ends_with(&wkb::encode(g)), "the WKB, as it is");
        let Value::Geom(Geometry::Polygon(back)) = &Value::decode_row(&tuple).unwrap()[0] else {
            panic!("a polygon")
        };
        assert_eq!(back.exterior().coords()[4].x.to_bits(), (-0.0f64).to_bits());
        // Collections nested past the depth, and one level less.
        let mut deep = wkt::parse("POINT (1 1)").unwrap();
        for _ in 0..MAX_DEPTH {
            deep = Geometry::GeometryCollection(GeometryCollection(vec![deep]));
        }
        assert_eq!(round_trip(&[Value::Geom(deep.clone())])[1], 5, "too deep");
        let Geometry::GeometryCollection(c) = deep else { unreachable!() };
        assert_eq!(round_trip(&[Value::Geom(c.0[0].clone())])[1], 4, "one level less");
    }

    #[test]
    fn what_is_not_a_compact_tuple_is_corrupt() {
        let good = round_trip(&[Value::Int(7), geom("POLYGON ((0 0, 4 0, 4 4, 0 0))")]);
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("empty", vec![]),
            ("eleven-byte varint", [&[1, 1][..], &[0x80; 9], &[0x81, 0]].concat()),
            (
                "varint over 64 bits",
                vec![1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2],
            ),
            ("arity over u16", vec![0x80, 0x80, 0x04]),
            ("text past the row", vec![1, 3, 9, b'a']),
            ("unknown tag", vec![1, 6]),
            ("unknown geometry type", vec![1, 4, 8]),
            ("truncated coordinate", vec![1, 4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            ("count past the row", vec![1, 4, 2, 0x80, 0x80, 0x80, 0x80, 0x01]),
            ("ring without a vertex", [&[1, 4, 3, 1, 0][..], &[0; 16]].concat()),
            ("missing value", vec![2, 0]),
            ("bytes after the row", [&good[..], &[0]].concat()),
            ("truncated", good[..good.len() - 1].to_vec()),
        ];
        for (what, tuple) in cases {
            let err = Value::decode_row(&tuple).err();
            assert!(matches!(err, Some(StorageError::Corrupt(_))), "{what}: {err:?}");
            if what != "bytes after the row" {
                let read = Field::of(&tuple, &[0, 1], |_, f| f.mbr().map(drop));
                assert!(matches!(read, Err(StorageError::Corrupt(_))), "{what}: read {read:?}");
            }
        }
        // Nested past the depth.
        let deep = [&[1, 4][..], &[7, 1].repeat(MAX_DEPTH), &[1], &[0; 16]].concat();
        assert!(matches!(Value::decode_row(&deep), Err(StorageError::Corrupt(_))));
        assert!(Field::of(&deep, &[0], |_, _| Ok::<(), StorageError>(())).is_err());
    }
}
