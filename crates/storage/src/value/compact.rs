//! The compact row codec: how a snapshot stores a heap tuple.
//!
//! A heap tuple ([`Value::encode_row`](crate::Value::encode_row))
//! spends eight bytes on every integer, four on every text's and
//! geometry's length and a nine-byte WKB header on every geometry, and
//! repeats each ring's closing vertex.
//! The heap keeps those bytes, because a row is read from them in place
//! (the spill files and the write-ahead log keep them too); a snapshot
//! stores each tuple as [`compact_tuple`] writes it and its reader puts
//! back the heap's bytes with [`expand_tuple`]:
//!
//! ```text
//! row:   arity varint | per value: tag u8 | payload
//!   0 NULL     nothing
//!   1 integer  zigzag varint
//!   2 float    f64, as stored
//!   3 text     length varint | UTF-8
//!   4 geometry the geometry, compact (below)
//!   5 geometry length varint | the WKB, as stored
//! geometry:  type u8 (the WKB code, 1..=7; a member of a multi-point,
//!            -linestring or -polygon has none: it is its parent's)
//!   point       x f64 | y f64
//!   linestring  count varint | count × (x f64 | y f64)
//!   polygon     ring count varint | per ring:
//!               count − 1 varint | all but the closing vertex
//!   multi, collection  member count varint | the members
//! ```
//!
//! Every varint is an unsigned LEB128 ([`crate::page`]'s). Coordinates
//! are copied bit for bit, NaN and `-0.0` included. A ring's closing
//! vertex is implied only when its bits are its first vertex's; a
//! geometry with a ring that fails that test, or that is not
//! little-endian WKB of a kind above, is stored whole under tag 5. So
//! `expand(compact(t)) == t` byte for byte for every tuple the heap
//! holds.
//!
//! [`expand_tuple`] reads what a damaged or crafted snapshot may hold:
//! every count and length is checked against the bytes left before
//! anything is written, and geometries nest at most [`MAX_DEPTH`] deep,
//! so a bad tuple is [`StorageError::Corrupt`], never a panic, and
//! writes at most a few bytes for each byte it reads.

use super::split_value;
use crate::page::{put_varint, take_varint};
use crate::{Result, StorageError};

/// How deep geometries nest in a compact tuple: a collection in a
/// collection is two. A deeper one is stored whole.
pub const MAX_DEPTH: usize = 16;

/// A coordinate: two `f64`s.
const COORD: usize = 16;

/// Where a codec writes: a buffer, or a `usize` that only counts the
/// bytes, which takes a tuple's length without writing it.
pub trait Out {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
    /// How many bytes have been put.
    fn written(&self) -> usize;
    /// Forgets the bytes put after the first `len`.
    fn rewind(&mut self, len: usize);
    /// Overwrites the four bytes at `at` with `v`, little-endian.
    fn patch_u32(&mut self, at: usize, v: u32);
}

impl Out for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    #[inline]
    fn written(&self) -> usize {
        self.len()
    }
    #[inline]
    fn rewind(&mut self, len: usize) {
        self.truncate(len);
    }
    #[inline]
    fn patch_u32(&mut self, at: usize, v: u32) {
        self[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
}

impl Out for usize {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
    #[inline]
    fn written(&self) -> usize {
        *self
    }
    #[inline]
    fn rewind(&mut self, len: usize) {
        *self = len;
    }
    #[inline]
    fn patch_u32(&mut self, _: usize, _: u32) {}
}

fn corrupt(what: &str) -> StorageError {
    StorageError::Corrupt(format!("compact row: {what}"))
}

/// Puts `lead` and then `v` as a varint, with one [`Out::put`].
fn put_after(out: &mut impl Out, lead: &[u8], v: u64) {
    let mut buf = [0; 12];
    buf[..lead.len()].copy_from_slice(lead);
    let mut n = lead.len();
    put_varint(
        |byte| {
            buf[n] = byte;
            n += 1;
        },
        v,
    );
    out.put(&buf[..n]);
}

/// Writes the compact form of the heap tuple `tuple` to `out`.
///
/// # Errors
/// [`StorageError::Corrupt`] when `tuple` is not a whole encoded row.
pub fn compact_tuple(tuple: &[u8], out: &mut impl Out) -> Result<()> {
    let Some((arity, mut rest)) = tuple.split_first_chunk() else {
        return Err(corrupt("truncated row header"));
    };
    let arity = u16::from_le_bytes(*arity);
    put_after(out, &[], u64::from(arity));
    for _ in 0..arity {
        let (tag, body, after) = split_value(rest)?;
        match tag {
            1 => {
                let i = i64::from_le_bytes(body.try_into().expect("an integer is 8 bytes"));
                put_after(out, &[1], ((i << 1) ^ (i >> 63)) as u64);
            }
            3 => {
                put_after(out, &[3], body.len() as u64);
                out.put(body);
            }
            4 => {
                let mark = out.written();
                out.put(&[4]);
                let mut wkb = body;
                if compact_geometry(&mut wkb, None, 0, out).is_none() || !wkb.is_empty() {
                    out.rewind(mark);
                    put_after(out, &[5], body.len() as u64);
                    out.put(body);
                }
            }
            // NULL and a float: the tag and the bytes after it, as stored.
            _ => out.put(&rest[..rest.len() - after.len()]),
        }
        rest = after;
    }
    if !rest.is_empty() {
        return Err(corrupt("bytes after the last value"));
    }
    Ok(())
}

/// Takes `n` bytes off the front of `data`.
#[inline]
fn take<'a>(data: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, rest) = data.split_at_checked(n)?;
    *data = rest;
    Some(head)
}

#[inline]
fn take_u32(data: &mut &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(take(data, 4)?.try_into().ok()?))
}

/// Writes the compact form of the WKB geometry at the front of `wkb`,
/// a member of kind `member` if that is given, `depth` deep; `None`
/// where the geometry cannot be stored compact (what was written of it
/// is then the caller's to rewind).
fn compact_geometry(
    wkb: &mut &[u8],
    member: Option<u32>,
    depth: usize,
    out: &mut impl Out,
) -> Option<()> {
    if depth >= MAX_DEPTH || take(wkb, 1)? != [1] {
        return None;
    }
    let code = take_u32(wkb)?;
    let kind: &[u8] = match member {
        Some(kind) if kind != code => return None,
        Some(_) => &[],
        None => &[u8::try_from(code).ok().filter(|c| (1..=7).contains(c))?],
    };
    match code {
        1 => {
            out.put(kind);
            out.put(take(wkb, COORD)?);
        }
        2 => {
            let n = take_u32(wkb)?;
            put_after(out, kind, u64::from(n));
            out.put(take(wkb, n as usize * COORD)?);
        }
        3 => {
            let rings = take_u32(wkb)?;
            put_after(out, kind, u64::from(rings));
            for _ in 0..rings {
                let n = take_u32(wkb)? as usize;
                let ring = take(wkb, n * COORD)?;
                let (open, last) = ring.split_at_checked(n.checked_sub(1)? * COORD)?;
                if n < 2 || last != &ring[..COORD] {
                    return None;
                }
                put_after(out, &[], n as u64 - 1);
                out.put(open);
            }
        }
        4..=7 => {
            let n = take_u32(wkb)?;
            put_after(out, kind, u64::from(n));
            let kind = (code != 7).then_some(code - 3);
            for _ in 0..n {
                compact_geometry(wkb, kind, depth + 1, out)?;
            }
        }
        _ => return None,
    }
    Some(())
}

/// A compact tuple being read: its bytes not yet read.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    #[inline]
    fn bytes(&mut self, n: u64) -> Result<&'a [u8]> {
        let n = usize::try_from(n).map_err(|_| corrupt("a length past the address space"))?;
        take(&mut self.0, n).ok_or_else(|| corrupt("a count or length runs past the row"))
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
    /// against the bytes left, and which a WKB count can hold.
    #[inline]
    fn count(&mut self, min: u64) -> Result<u32> {
        let n = self.varint()?;
        if n.saturating_mul(min) > self.0.len() as u64 {
            return Err(corrupt("a count or length runs past the row"));
        }
        u32::try_from(n).map_err(|_| corrupt("a count over 2^32"))
    }
}

/// Writes the heap tuple that the compact tuple `compact` stands for to
/// `out`: the bytes [`compact_tuple`] read to write `compact`.
///
/// # Errors
/// [`StorageError::Corrupt`] when `compact` is not one whole compact
/// tuple: an unknown tag or geometry type, a varint over ten bytes or
/// 64 bits, a count or length that runs past the bytes, a ring with no
/// vertex, geometries nested deeper than [`MAX_DEPTH`], or bytes after
/// the last value.
pub fn expand_tuple(compact: &[u8], out: &mut impl Out) -> Result<()> {
    let mut r = Reader(compact);
    let arity = r.varint()?;
    let arity = u16::try_from(arity).map_err(|_| corrupt("more columns than a row holds"))?;
    out.put(&arity.to_le_bytes());
    for _ in 0..arity {
        let at = r.0;
        match r.byte()? {
            0 => out.put(&[0]),
            1 => {
                let z = r.varint()?;
                let mut int = [1; 9];
                int[1..].copy_from_slice(&((z >> 1) as i64 ^ -((z & 1) as i64)).to_le_bytes());
                out.put(&int);
            }
            // The tag and the float, as stored.
            2 => out.put(&at[..1 + r.bytes(8)?.len()]),
            tag @ (3 | 5) => {
                let len = r.varint()?;
                let body = r.bytes(len)?;
                let mut head = [if tag == 3 { 3 } else { 4 }; 5];
                head[1..].copy_from_slice(&(body.len() as u32).to_le_bytes());
                out.put(&head);
                out.put(body);
            }
            4 => {
                out.put(&[4, 0, 0, 0, 0]);
                let start = out.written();
                expand_geometry(&mut r, None, 0, out)?;
                let len = u32::try_from(out.written() - start)
                    .map_err(|_| corrupt("a geometry over 4 GiB"))?;
                out.patch_u32(start - 4, len);
            }
            t => return Err(corrupt(&format!("unknown value tag {t}"))),
        }
    }
    if !r.0.is_empty() {
        return Err(corrupt("bytes after the last value"));
    }
    Ok(())
}

/// Writes the WKB of the compact geometry at the front of `r`, a member
/// of kind `member` if that is given, `depth` deep.
fn expand_geometry(
    r: &mut Reader<'_>,
    member: Option<u32>,
    depth: usize,
    out: &mut impl Out,
) -> Result<()> {
    if depth >= MAX_DEPTH {
        return Err(corrupt("geometries nested too deep"));
    }
    let code = match member {
        Some(kind) => kind,
        None => u32::from(r.byte()?),
    };
    // The header and, in every kind but a point, the count after it.
    let header = |out: &mut _, count: u32| {
        let mut head = [1; 9];
        head[1..5].copy_from_slice(&code.to_le_bytes());
        head[5..].copy_from_slice(&count.to_le_bytes());
        Out::put(out, &head[..if code == 1 { 5 } else { 9 }]);
    };
    match code {
        1 => {
            header(out, 0);
            out.put(r.bytes(COORD as u64)?);
        }
        2 => {
            let n = r.count(COORD as u64)?;
            header(out, n);
            out.put(r.bytes(u64::from(n) * COORD as u64)?);
        }
        3 => {
            // A ring takes its count and at least one vertex.
            let rings = r.count(1 + COORD as u64)?;
            header(out, rings);
            for _ in 0..rings {
                let n = r.count(COORD as u64)?;
                let open = r.bytes(u64::from(n) * COORD as u64)?;
                let closed = n.checked_add(1).filter(|_| n > 0);
                let closed = closed.ok_or_else(|| corrupt("a ring without a vertex"))?;
                out.put(&closed.to_le_bytes());
                out.put(open);
                out.put(&open[..COORD]);
            }
        }
        4..=7 => {
            // A member takes a byte at least: a type, or a count.
            let n = r.count(1)?;
            header(out, n);
            let kind = (code != 7).then_some(code - 3);
            for _ in 0..n {
                expand_geometry(r, kind, depth + 1, out)?;
            }
        }
        t => return Err(corrupt(&format!("unknown geometry type {t}"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use jackpine_geom::{wkb, wkt, Geometry};

    /// The compact form of `row`'s tuple, checked to expand back to it
    /// and to be as long as the counting pass says.
    fn round_trip(row: &[Value]) -> Vec<u8> {
        let tuple = Value::encode_row(row);
        let mut compact = Vec::new();
        compact_tuple(&tuple, &mut compact).unwrap();
        let mut len = 0;
        compact_tuple(&tuple, &mut len).unwrap();
        assert_eq!(len, compact.len(), "{row:?}: counted");
        let mut back = Vec::new();
        expand_tuple(&compact, &mut back).unwrap();
        assert!(back == tuple, "{row:?}: expanded to other bytes");
        let mut len = 0;
        expand_tuple(&compact, &mut len).unwrap();
        assert_eq!(len, tuple.len(), "{row:?}: counted expanded");
        compact
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
            assert_eq!(round_trip(&[Value::Float(f)]).len(), 1 + 9);
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
            assert_eq!(round_trip(&[geom(text)]).len(), 1 + 1 + len, "{text}");
        }
    }

    /// `row`'s tuple with its geometry's WKB changed by `edit`.
    fn edited(row: &[Value], edit: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
        let mut tuple = Value::encode_row(row);
        let mut wkb = tuple.split_off(2 + 1 + 4);
        edit(&mut wkb);
        tuple.truncate(3);
        tuple.extend_from_slice(&(wkb.len() as u32).to_le_bytes());
        tuple.extend_from_slice(&wkb);
        tuple
    }

    /// `tuple` compacts under tag 5: stored whole, and expands to itself.
    fn assert_stored_whole(tuple: &[u8], what: &str) {
        let mut compact = Vec::new();
        compact_tuple(tuple, &mut compact).unwrap();
        assert_eq!(compact[1], 5, "{what}: stored compact");
        assert!(compact.ends_with(&tuple[7..]), "{what}: the WKB, as it was");
        let mut back = Vec::new();
        expand_tuple(&compact, &mut back).unwrap();
        assert!(back == tuple, "{what}: expanded to other bytes");
    }

    #[test]
    fn a_geometry_it_cannot_rebuild_is_stored_whole() {
        let square = [geom("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")];
        // The closing vertex is `(-0 0)`: equal to the first, not its bits.
        let signed_zero = edited(&square, |wkb| {
            let at = wkb.len() - 16;
            wkb[at..at + 8].copy_from_slice(&(-0.0f64).to_le_bytes());
        });
        let g = Value::decode_row(&signed_zero).unwrap();
        assert_eq!(g, square, "-0 == 0: the same polygon, other bits");
        assert_stored_whole(&signed_zero, "a ring closed on -0");
        // Big-endian WKB, a trailing byte, an unknown type code.
        let big_endian = edited(&square, |wkb| {
            *wkb = wkb::encode(square[0].as_geom().unwrap());
            wkb[0] = 0;
            let n = wkb.len();
            for word in [1..5, 5..9, 9..13] {
                wkb[word].reverse();
            }
            for at in (13..n).step_by(8) {
                wkb[at..at + 8].reverse();
            }
        });
        assert!(Value::decode_row(&big_endian).unwrap() == square, "big-endian decodes alike");
        assert_stored_whole(&big_endian, "big-endian");
        assert_stored_whole(&edited(&square, |wkb| wkb.push(0)), "a trailing byte");
        assert_stored_whole(&edited(&square, |wkb| wkb[1] = 9), "type 9");
        // A multi-polygon whose member says it is a point.
        let multi = [geom("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)))")];
        assert_stored_whole(&edited(&multi, |wkb| wkb[10] = 1), "a misfit member");
        // Collections nested past the depth.
        let mut deep = wkt::parse("POINT (1 1)").unwrap();
        for _ in 0..MAX_DEPTH {
            deep = Geometry::GeometryCollection(jackpine_geom::GeometryCollection(vec![deep]));
        }
        assert_stored_whole(&Value::encode_row(&[Value::Geom(deep.clone())]), "too deep");
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
        for (what, compact) in cases {
            let err = expand_tuple(&compact, &mut Vec::new()).err();
            assert!(matches!(err, Some(StorageError::Corrupt(_))), "{what}: {err:?}");
            assert!(expand_tuple(&compact, &mut 0).is_err(), "{what}: counted");
        }
        // Nested past the depth.
        let deep = [&[1, 4][..], &[7, 1].repeat(MAX_DEPTH), &[1], &[0; 16]].concat();
        assert!(expand_tuple(&deep, &mut Vec::new()).is_err());
        assert!(compact_tuple(&[1], &mut Vec::new()).is_err(), "a heap tuple's header torn");
        assert!(compact_tuple(&[1, 0, 0, 0], &mut Vec::new()).is_err(), "a byte after the row");
    }
}
