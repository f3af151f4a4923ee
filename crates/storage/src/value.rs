//! Typed SQL values and their page codec.

use crate::{Result, StorageError};
use jackpine_geom::codec::{PutBytes, TakeBytes};
use jackpine_geom::{wkb, Envelope, Geometry, GeometryRef};
use std::fmt;

/// A single SQL value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Text(String),
    /// Spatial value (stored as WKB on pages).
    Geom(Geometry),
}

// The widest variant is an inline 32-byte `Geometry`. A decoded row pays
// one slot per column, so a wider variant would cost every row.
const _: () = assert!(size_of::<Value>() == 32);

/// A tuple of values, ordered per the table schema.
pub type Row = Vec<Value>;

/// A value lent to the engine, borrowed where it lies: what a [`Value`]
/// holds, with nothing built to hold it. [`Schema::check_row`] checks
/// rows of these and [`ValueRef::encode`] stores them; a producer that
/// lends a row as `[ValueRef; N]` inserts it without cloning a field.
///
/// [`Schema::check_row`]: crate::Schema::check_row
#[derive(Clone, Copy, Debug)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Text(&'a str),
    /// Spatial value.
    Geom(GeometryRef<'a>),
}

/// A column value the engine can borrow to check and encode: a
/// [`Value`], or a [`ValueRef`] as a producer lends it.
pub trait Lend {
    /// The value, borrowed.
    fn lend(&self) -> ValueRef<'_>;
}

impl Lend for Value {
    fn lend(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Text(s) => ValueRef::Text(s),
            Value::Geom(g) => ValueRef::Geom(g.into()),
        }
    }
}

impl Lend for ValueRef<'_> {
    fn lend(&self) -> ValueRef<'_> {
        *self
    }
}

impl ValueRef<'_> {
    /// Serializes the value into `buf` (tag byte + payload): the one
    /// value encoder, of stored rows and of log records alike.
    pub fn encode(self, buf: &mut Vec<u8>) {
        match self {
            ValueRef::Null => buf.put_u8(0),
            ValueRef::Int(i) => {
                buf.put_u8(1);
                buf.put_i64_le(i);
            }
            ValueRef::Float(f) => {
                buf.put_u8(2);
                buf.put_f64_le(f);
            }
            ValueRef::Text(s) => {
                buf.put_u8(3);
                buf.put_u32_le(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
            ValueRef::Geom(g) => {
                // Straight into `buf`: its length is patched in after.
                buf.put_u8(4);
                let at = buf.len();
                buf.put_u32_le(0);
                wkb::encode_into(g, buf);
                let len = (buf.len() - at - 4) as u32;
                buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
            }
        }
    }
}

impl Value {
    /// `true` for SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: Int and Float coerce to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (no float coercion).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Geometry view.
    pub fn as_geom(&self) -> Option<&Geometry> {
        match self {
            Value::Geom(g) => Some(g),
            _ => None,
        }
    }

    /// The geometry's MBR as a packed quad ([`Envelope::quad`]: all-NaN
    /// for an empty geometry). `None` for non-geometry values.
    pub fn mbr(&self) -> Option<[f64; 4]> {
        self.as_geom().map(|g| g.envelope().quad())
    }

    /// Serializes the value into `buf`: [`ValueRef::encode`] of it.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        self.lend().encode(buf);
    }

    /// About how many bytes [`Value::encode`] writes of this value:
    /// exact but for a geometry, which counts [`wkb::estimate_size`].
    fn encoded_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) | Value::Float(_) => 9,
            Value::Text(s) => 5 + s.len(),
            Value::Geom(g) => 5 + wkb::estimate_size(g),
        }
    }

    /// Decodes one value from the front of `data`, advancing it.
    pub fn decode(data: &mut &[u8]) -> Result<Value> {
        if data.is_empty() {
            return Err(StorageError::Corrupt("empty value payload".into()));
        }
        let tag = data.get_u8();
        match tag {
            0 => Ok(Value::Null),
            1 => {
                if data.remaining() < 8 {
                    return Err(StorageError::Corrupt("truncated int".into()));
                }
                Ok(Value::Int(data.get_i64_le()))
            }
            2 => {
                if data.remaining() < 8 {
                    return Err(StorageError::Corrupt("truncated float".into()));
                }
                Ok(Value::Float(data.get_f64_le()))
            }
            3 => {
                let len = get_len(data)?;
                let s = std::str::from_utf8(&data[..len])
                    .map_err(|_| StorageError::Corrupt("invalid UTF-8".into()))?
                    .to_string();
                data.advance(len);
                Ok(Value::Text(s))
            }
            4 => {
                let len = get_len(data)?;
                let g = wkb::decode(&data[..len])?;
                data.advance(len);
                Ok(Value::Geom(g))
            }
            t => Err(StorageError::Corrupt(format!("unknown value tag {t}"))),
        }
    }

    /// Serializes a whole row.
    pub fn encode_row(row: &[Value]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(2 + row.iter().map(Value::encoded_size).sum::<usize>());
        Value::encode_row_into(row, &mut buf);
        buf
    }

    /// [`Value::encode_row`] of `row`, whichever form its values are lent
    /// in, appended to `buf`: a write transaction encodes each row
    /// straight into the buffer it stages, with nothing built in between.
    pub fn encode_row_into<V: Lend>(row: &[V], buf: &mut Vec<u8>) {
        buf.put_u16_le(row.len() as u16);
        for v in row {
            v.lend().encode(buf);
        }
    }

    /// Decodes a whole row.
    pub fn decode_row(mut data: &[u8]) -> Result<Row> {
        if data.remaining() < 2 {
            return Err(StorageError::Corrupt("truncated row header".into()));
        }
        let n = data.get_u16_le() as usize;
        // Clamp: a value needs at least its tag byte, so a corrupt count
        // cannot pre-allocate more than the payload could hold.
        let mut row = Vec::with_capacity(n.min(data.remaining()));
        for _ in 0..n {
            row.push(Value::decode(&mut data)?);
        }
        Ok(row)
    }
}

/// One column of an encoded row, borrowed from its bytes: what
/// [`Value::decode`] would build, before anything is built.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Field<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Text(&'a str),
    /// A geometry's WKB.
    Geom(&'a [u8]),
}

impl<'a> Field<'a> {
    /// Columns `cols` of the encoded row `tuple` ([`Value::encode_row`]),
    /// each handed to `visit` with its position in `cols`, in one walk of
    /// the row: the columns between are stepped over by their tags and
    /// lengths, and nothing is decoded or allocated. A column past the
    /// row's last is not visited. Stops at the first error, `visit`'s or
    /// the walk's.
    ///
    /// # Panics
    ///
    /// If `cols` is not strictly ascending.
    pub fn of<E: From<StorageError>>(
        tuple: &'a [u8],
        cols: &[usize],
        mut visit: impl FnMut(usize, Field<'a>) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let Some((arity, mut rest)) = tuple.split_first_chunk() else {
            return Err(StorageError::Corrupt("truncated row header".into()).into());
        };
        let arity = u16::from_le_bytes(*arity) as usize;
        // The number of the column `rest` starts at.
        let mut next = 0;
        for (i, &col) in cols.iter().enumerate() {
            assert!(col >= next, "columns {cols:?} are not ascending");
            if col >= arity {
                break;
            }
            for _ in next..col {
                rest = split_value(rest)?.2;
            }
            let (tag, body, after) = split_value(rest)?;
            (rest, next) = (after, col + 1);
            let number = || body.try_into().expect("split_value cuts numbers at 8 bytes");
            visit(
                i,
                match tag {
                    0 => Field::Null,
                    1 => Field::Int(i64::from_le_bytes(number())),
                    2 => Field::Float(f64::from_le_bytes(number())),
                    3 => Field::Text(
                        std::str::from_utf8(body)
                            .map_err(|_| StorageError::Corrupt("invalid UTF-8".into()))?,
                    ),
                    _ => Field::Geom(body),
                },
            )?;
        }
        Ok(())
    }

    /// The envelope of a geometry field, read off its WKB by
    /// [`wkb::envelope`] without decoding the geometry; `None` for any
    /// other field.
    pub fn envelope(&self) -> Result<Option<Envelope>> {
        let Field::Geom(wkb) = self else { return Ok(None) };
        Ok(Some(wkb::envelope(wkb)?))
    }

    /// [`Value::mbr`] of the value this field decodes to, from
    /// [`Field::envelope`].
    pub fn mbr(&self) -> Result<Option<[f64; 4]>> {
        Ok(self.envelope()?.as_ref().map(Envelope::quad))
    }
}

/// The encoded value at the front of `data` ([`ValueRef::encode`]) as its
/// tag, its payload (a string's or geometry's without the length) and
/// the bytes after it — plain slice splits, checked, nothing read.
fn split_value(data: &[u8]) -> Result<(u8, &[u8], &[u8])> {
    let Some((&tag, rest)) = data.split_first() else {
        return Err(StorageError::Corrupt("empty value payload".into()));
    };
    let (width, rest) = match tag {
        0 => (0, rest),
        1 | 2 => (8, rest),
        3 | 4 => match rest.split_first_chunk() {
            Some((len, rest)) => (u32::from_le_bytes(*len) as usize, rest),
            None => return Err(StorageError::Corrupt("truncated length".into())),
        },
        t => return Err(StorageError::Corrupt(format!("unknown value tag {t}"))),
    };
    match rest.split_at_checked(width) {
        Some((body, rest)) => Ok((tag, body, rest)),
        None => Err(StorageError::Corrupt("length exceeds payload".into())),
    }
}

fn get_len(data: &mut &[u8]) -> Result<usize> {
    if data.remaining() < 4 {
        return Err(StorageError::Corrupt("truncated length".into()));
    }
    let len = data.get_u32_le() as usize;
    if data.remaining() < len {
        return Err(StorageError::Corrupt("length exceeds payload".into()));
    }
    Ok(len)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Geom(g) => write!(f, "{}", jackpine_geom::wkt::write(g)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jackpine_geom::{wkt, Geometry};

    #[test]
    fn roundtrip_scalars() {
        let row =
            vec![Value::Null, Value::Int(-42), Value::Float(3.25), Value::Text("Oak St".into())];
        let bytes = Value::encode_row(&row);
        assert_eq!(Value::decode_row(&bytes).unwrap(), row);
    }

    #[test]
    fn roundtrip_geometry() {
        let g = wkt::parse("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))").unwrap();
        let row = vec![Value::Int(1), Value::Geom(g.clone())];
        let bytes = Value::encode_row(&row);
        let back = Value::decode_row(&bytes).unwrap();
        assert_eq!(back[1].as_geom(), Some(&g));
    }

    #[test]
    fn corrupt_payloads_rejected() {
        assert!(Value::decode_row(&[]).is_err());
        assert!(Value::decode_row(&[2, 0]).is_err()); // claims 2 values, none present
        let mut bad = Value::encode_row(&[Value::Text("hello".into())]);
        bad.truncate(bad.len() - 2);
        assert!(Value::decode_row(&bad).is_err());
        // Unknown tag.
        assert!(Value::decode_row(&[1, 0, 99]).is_err());
        // The column cursor rejects what the decoder rejects, read or
        // stepped over.
        fn of(tuple: &[u8], col: usize) -> Result<Option<Field<'_>>> {
            let mut got = None;
            Field::of(tuple, &[col], |_, f| {
                got = Some(f);
                Ok::<(), StorageError>(())
            })?;
            Ok(got)
        }
        assert!(of(&[], 0).is_err());
        assert!(of(&[1, 0, 99], 0).is_err());
        assert!(of(&[2, 0, 99, 0], 1).is_err());
        assert!(of(&bad, 0).is_err());
        assert_eq!(of(&[1, 0, 0], 1), Ok(None), "past the last column");
    }

    #[test]
    fn one_walk_visits_the_asked_columns_in_order() {
        let row = vec![
            Value::Int(-3),
            Value::Null,
            Value::Text("Oak St".into()),
            Value::Float(0.5),
            Value::Geom(wkt::parse("POINT (1 2)").unwrap()),
        ];
        let tuple = Value::encode_row(&row);
        let mut seen = Vec::new();
        Field::of(&tuple, &[0, 2, 3, 9], |i, f| {
            seen.push((i, f));
            Ok::<(), StorageError>(())
        })
        .unwrap();
        let want = vec![(0, Field::Int(-3)), (1, Field::Text("Oak St")), (2, Field::Float(0.5))];
        assert_eq!(seen, want, "column 9 is past the row");
        let mut geom = None;
        Field::of(&tuple, &[4], |_, f| {
            geom = f.envelope()?;
            Ok::<(), StorageError>(())
        })
        .unwrap();
        assert_eq!(geom, Some(Envelope::new(1.0, 2.0, 1.0, 2.0)));
    }

    /// [`Value::encode_row`] as it was before geometries were encoded in
    /// place: each geometry's WKB into a `Vec` of its own, then copied —
    /// and each member of a multi-geometry encoded on its own, as the
    /// cloning arms of the WKB encoder did.
    fn encode_row_by_copy(row: &[Value]) -> Vec<u8> {
        fn wkb_by_copy(g: &Geometry) -> Vec<u8> {
            let members: Vec<Geometry> = match g {
                Geometry::MultiLineString(m) => {
                    m.0.iter().cloned().map(Geometry::LineString).collect()
                }
                Geometry::MultiPolygon(m) => m.0.iter().cloned().map(Geometry::Polygon).collect(),
                _ => return wkb::encode(g),
            };
            let mut out = vec![1];
            out.put_u32_le(g.geometry_type().wkb_code());
            out.put_u32_le(members.len() as u32);
            for m in &members {
                out.extend(wkb_by_copy(m));
            }
            out
        }
        let mut buf = Vec::new();
        buf.put_u16_le(row.len() as u16);
        for v in row {
            match v {
                Value::Geom(g) => {
                    let bytes = wkb_by_copy(g);
                    buf.put_u8(4);
                    buf.put_u32_le(bytes.len() as u32);
                    buf.put_slice(&bytes);
                }
                other => other.encode(&mut buf),
            }
        }
        buf
    }

    #[test]
    fn encode_row_writes_the_bytes_a_copied_wkb_would() {
        for text in [
            "POINT (1 2)",
            "POINT EMPTY",
            "LINESTRING (0 0, 3 4, 5 1)",
            "LINESTRING EMPTY",
            "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))",
            "MULTIPOINT ((1 1), (2 3))",
            "MULTIPOINT EMPTY",
            "MULTILINESTRING ((0 0, 1 1), (2 2, 3 5, 4 4))",
            "MULTILINESTRING EMPTY",
            "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), \
             ((5 5, 9 5, 9 9, 5 9, 5 5), (6 6, 7 6, 7 7, 6 6)))",
            "MULTIPOLYGON EMPTY",
            "GEOMETRYCOLLECTION (POINT (4 4), MULTILINESTRING ((0 1, 1 0)), \
             POLYGON ((0 0, 1 0, 1 1, 0 0)))",
            "GEOMETRYCOLLECTION EMPTY",
        ] {
            let g = wkt::parse(text).unwrap();
            let row = vec![Value::Int(1), Value::Geom(g.clone()), Value::Null, Value::Geom(g)];
            assert!(
                Value::encode_row(&row) == encode_row_by_copy(&row),
                "{text}: encoded in place, the bytes differ"
            );
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Text("x".into()).as_f64(), None);
        assert_eq!(Value::Int(7).as_i64(), Some(7));
        assert_eq!(Value::Float(7.0).as_i64(), None);
        assert!(Value::Null.is_null());
        assert_eq!(Value::Text("a".into()).as_str(), Some("a"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(5).to_string(), "5");
        let g = wkt::parse("POINT (1 2)").unwrap();
        assert_eq!(Value::Geom(g).to_string(), "POINT (1 2)");
    }
}
