//! Typed SQL values and their two byte forms: the stored one
//! ([`compact`]), which every page, log record and snapshot holds, and
//! the canonical one ([`Value::encode_row`]), which results are digested
//! and measured in.

pub mod compact;

use crate::{DataType, Result, StorageError};
use compact::GeomBytes;
use jackpine_geom::codec::PutBytes;
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
    /// Spatial value.
    Geom(Geometry),
}

// The widest variant is an inline 32-byte `Geometry`. A decoded row pays
// one slot per column, so a wider variant would cost every row.
const _: () = assert!(size_of::<Value>() == 32);

/// A tuple of values, ordered per the table schema.
pub type Row = Vec<Value>;

/// A value lent to the engine, borrowed where it lies: what a [`Value`]
/// holds, with nothing built to hold it. [`Schema::check_row`] checks
/// rows of these and [`Value::store_row_into`] stores them; a producer
/// that lends a row as `[ValueRef; N]` inserts it without cloning a field.
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
    /// The value's type; `None` for NULL.
    #[inline]
    pub(crate) fn data_type(&self) -> Option<DataType> {
        match self {
            ValueRef::Null => None,
            ValueRef::Int(_) => Some(DataType::Int),
            ValueRef::Float(_) => Some(DataType::Float),
            ValueRef::Text(_) => Some(DataType::Text),
            ValueRef::Geom(_) => Some(DataType::Geometry),
        }
    }

    /// Serializes the value into `buf` in the canonical form (tag byte +
    /// payload: fixed-width numbers, a `u32` length before a text or a
    /// geometry's WKB): what results are digested in. Nothing stores it.
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

    /// Serializes a whole row in the canonical form: a `u16` column
    /// count, then [`Value::encode`] of each value.
    pub fn encode_row(row: &[Value]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(2 + row.iter().map(Value::encoded_size).sum::<usize>());
        buf.put_u16_le(row.len() as u16);
        row.iter().for_each(|v| v.encode(&mut buf));
        buf
    }

    /// The stored form of `row` ([`compact`]): the bytes a heap page
    /// holds of it.
    pub fn store_row(row: &[Value]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(row.iter().map(Value::encoded_size).sum());
        Value::store_row_into(row, &mut buf);
        buf
    }

    /// [`Value::store_row`] of `row`, whichever form its values are lent
    /// in, appended to `buf`: a write transaction and the loader encode
    /// each row straight into the buffer they stage, with nothing built
    /// in between.
    pub fn store_row_into<V: Lend>(row: &[V], buf: &mut Vec<u8>) {
        compact::put_row(row, buf);
    }

    /// Decodes a stored row ([`Value::store_row`]), which must be all of
    /// `data`.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] when `data` is not one whole stored row,
    /// and the geometry error of a geometry that does not validate.
    pub fn decode_row(mut data: &[u8]) -> Result<Row> {
        let row = Value::take_row(&mut data)?;
        if !data.is_empty() {
            return Err(StorageError::Corrupt("compact row: bytes after the last value".into()));
        }
        Ok(row)
    }

    /// Decodes the stored row at the front of `data`, advancing past it:
    /// a stored row delimits itself, so a log record ends with one.
    ///
    /// # Errors
    /// As for [`Value::decode_row`].
    pub fn take_row(data: &mut &[u8]) -> Result<Row> {
        compact::take_row(data)
    }
}

/// One column of a stored row, borrowed from its bytes: what
/// [`Value::decode_row`] would build, before anything is built.
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
    /// A geometry, as it is stored.
    Geom(GeomBytes<'a>),
}

impl<'a> Field<'a> {
    /// Columns `cols` of the stored row `tuple` ([`Value::store_row`]),
    /// each handed to `visit` with its position in `cols`, in one walk of
    /// the row: the columns between are stepped over by their tags,
    /// lengths and counts, and nothing is decoded or allocated. A column
    /// past the row's last is not visited. Stops at the first error,
    /// `visit`'s or the walk's.
    ///
    /// # Panics
    ///
    /// If `cols` is not strictly ascending.
    pub fn of<E: From<StorageError>>(
        tuple: &'a [u8],
        cols: &[usize],
        visit: impl FnMut(usize, Field<'a>) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        compact::fields(tuple, cols, visit)
    }

    /// The envelope of a geometry field, read off its bytes
    /// ([`GeomBytes::envelope`]) without decoding the geometry; `None`
    /// for any other field.
    pub fn envelope(&self) -> Result<Option<Envelope>> {
        let Field::Geom(g) = self else { return Ok(None) };
        Ok(Some(g.envelope()?))
    }

    /// [`Value::mbr`] of the value this field decodes to, from
    /// [`Field::envelope`].
    pub fn mbr(&self) -> Result<Option<[f64; 4]>> {
        Ok(self.envelope()?.as_ref().map(Envelope::quad))
    }

    /// The type of the value this field decodes to; `None` for NULL.
    pub(crate) fn data_type(&self) -> Option<DataType> {
        match self {
            Field::Null => None,
            Field::Int(_) => Some(DataType::Int),
            Field::Float(_) => Some(DataType::Float),
            Field::Text(_) => Some(DataType::Text),
            Field::Geom(_) => Some(DataType::Geometry),
        }
    }
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
        let bytes = Value::store_row(&row);
        assert_eq!(Value::decode_row(&bytes).unwrap(), row);
    }

    #[test]
    fn roundtrip_geometry() {
        let g = wkt::parse("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))").unwrap();
        let row = vec![Value::Int(1), Value::Geom(g.clone())];
        let bytes = Value::store_row(&row);
        let back = Value::decode_row(&bytes).unwrap();
        assert_eq!(back[1].as_geom(), Some(&g));
    }

    #[test]
    fn corrupt_payloads_rejected() {
        assert!(Value::decode_row(&[]).is_err());
        assert!(Value::decode_row(&[2, 0]).is_err()); // claims 2 values, holds one
        let mut bad = Value::store_row(&[Value::Text("hello".into())]);
        bad.truncate(bad.len() - 2);
        assert!(Value::decode_row(&bad).is_err());
        // Unknown tag, and a byte after the row.
        assert!(Value::decode_row(&[1, 99]).is_err());
        assert!(Value::decode_row(&[1, 0, 0]).is_err());
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
        assert!(of(&[1, 99], 0).is_err());
        assert!(of(&[2, 99, 0], 1).is_err());
        assert!(of(&bad, 0).is_err());
        assert_eq!(of(&[1, 0], 1), Ok(None), "past the last column");
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
        let tuple = Value::store_row(&row);
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
