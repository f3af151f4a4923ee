//! Table schemas and type checking.

use crate::{Lend, Result, StorageError, ValueRef};
use jackpine_geom::wkb;

/// SQL column types supported by the engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Spatial geometry.
    Geometry,
}

impl DataType {
    /// SQL spelling of the type.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Int => "BIGINT",
            DataType::Float => "DOUBLE",
            DataType::Text => "TEXT",
            DataType::Geometry => "GEOMETRY",
        }
    }
}

/// A column definition.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnDef {
    /// Column name (matched case-insensitively).
    pub name: String,
    /// Column type.
    pub ty: DataType,
}

impl ColumnDef {
    /// Shorthand constructor.
    pub fn new(name: &str, ty: DataType) -> ColumnDef {
        ColumnDef { name: name.to_string(), ty }
    }
}

/// An ordered list of columns.
#[derive(Clone, Debug, PartialEq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Builds a schema; column names must be distinct (case-insensitive).
    pub fn new(columns: Vec<ColumnDef>) -> Result<Schema> {
        for (i, a) in columns.iter().enumerate() {
            for b in &columns[i + 1..] {
                if a.name.eq_ignore_ascii_case(&b.name) {
                    return Err(StorageError::SchemaMismatch(format!(
                        "duplicate column name '{}'",
                        a.name
                    )));
                }
            }
        }
        Ok(Schema { columns })
    }

    /// The column list.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the named column (case-insensitive).
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| StorageError::NoSuchColumn(name.to_string()))
    }

    /// Validates a row against the schema (arity and value types; NULL is
    /// accepted for any column), whichever form its values are lent in:
    /// the one check, of [`Value`](crate::Value) rows and lent ones alike.
    pub fn check_row<V: Lend>(&self, row: &[V]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "expected {} values, got {}",
                self.columns.len(),
                row.len()
            )));
        }
        for (v, col) in row.iter().zip(&self.columns) {
            let v = v.lend();
            let ok = match (v, col.ty) {
                (ValueRef::Null, _) => true,
                (ValueRef::Int(_), DataType::Int) => true,
                (ValueRef::Float(_), DataType::Float) => true,
                (ValueRef::Int(_), DataType::Float) => true, // widening accepted
                (ValueRef::Text(_), DataType::Text) => true,
                // Deeper than a WKB reader follows, it could be stored but
                // never read back.
                (ValueRef::Geom(g), DataType::Geometry) if wkb::nesting(g) > wkb::MAX_NESTING => {
                    return Err(StorageError::SchemaMismatch(format!(
                        "a geometry for column '{}' nests deeper than {} levels",
                        col.name,
                        wkb::MAX_NESTING
                    )));
                }
                (ValueRef::Geom(_), DataType::Geometry) => true,
                _ => false,
            };
            if !ok {
                return Err(StorageError::SchemaMismatch(format!(
                    "value {v:?} does not fit column '{}' of type {}",
                    col.name,
                    col.ty.sql_name()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use jackpine_geom::{wkt, Geometry, GeometryRef};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("name", DataType::Text),
            ColumnDef::new("geom", DataType::Geometry),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_case_insensitive() {
        let s = schema();
        assert_eq!(s.column_index("ID").unwrap(), 0);
        assert_eq!(s.column_index("Geom").unwrap(), 2);
        assert!(s.column_index("missing").is_err());
        assert_eq!(s.arity(), 3);
    }

    #[test]
    fn duplicate_columns_rejected() {
        assert!(Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("A", DataType::Text),
        ])
        .is_err());
    }

    #[test]
    fn row_checking() {
        let s = schema();
        let g = jackpine_geom::wkt::parse("POINT (1 2)").unwrap();
        assert!(s.check_row(&[Value::Int(1), Value::Text("x".into()), Value::Geom(g)]).is_ok());
        assert!(s.check_row(&[Value::Int(1), Value::Null, Value::Null]).is_ok());
        assert!(s.check_row(&[Value::Int(1), Value::Text("x".into())]).is_err()); // arity
        assert!(s
            .check_row(&[Value::Text("no".into()), Value::Text("x".into()), Value::Null])
            .is_err()); // type
    }

    #[test]
    fn int_widens_to_float() {
        let s = Schema::new(vec![ColumnDef::new("v", DataType::Float)]).unwrap();
        assert!(s.check_row(&[Value::Int(3)]).is_ok());
    }

    /// The check as it was before rows were lent: over `Value`s only.
    fn value_verdict(s: &Schema, row: &[Value]) -> bool {
        row.len() == s.arity()
            && row.iter().zip(s.columns()).all(|(v, c)| {
                matches!(
                    (v, c.ty),
                    (Value::Null, _)
                        | (Value::Int(_), DataType::Int | DataType::Float)
                        | (Value::Float(_), DataType::Float)
                        | (Value::Text(_), DataType::Text)
                        | (Value::Geom(_), DataType::Geometry)
                )
            })
    }

    #[test]
    fn a_lent_row_gets_the_verdict_and_the_message_of_its_values() {
        let s = Schema::new(vec![
            ColumnDef::new("i", DataType::Int),
            ColumnDef::new("f", DataType::Float),
            ColumnDef::new("t", DataType::Text),
            ColumnDef::new("g", DataType::Geometry),
        ])
        .unwrap();
        let g = wkt::parse("POLYGON ((0 0, 4 0, 4 4, 0 0))").unwrap();
        let fits = vec![Value::Int(1), Value::Float(0.5), Value::Text("x".into()), Value::Geom(g)];
        let kinds = [Value::Null, Value::Int(7), Value::Float(2.5), Value::Text("y".into())];
        // Wrong arity, short and long; then every kind in every column of
        // a row that fits: each type mismatch, NULL in each column, and an
        // integer into the DOUBLE column.
        let mut cases = vec![vec![], fits[..3].to_vec(), [&fits[..], &[Value::Null]].concat()];
        for col in 0..fits.len() {
            for v in kinds.iter().chain([&fits[3]]) {
                let mut row = fits.clone();
                row[col] = v.clone();
                cases.push(row);
            }
        }
        let mut accepted = 0;
        for row in &cases {
            let lent: Vec<ValueRef<'_>> = row.iter().map(Lend::lend).collect();
            let verdict = s.check_row(row);
            assert_eq!(verdict.is_ok(), value_verdict(&s, row), "{row:?}");
            assert_eq!(s.check_row(&lent), verdict, "{row:?}");
            accepted += usize::from(verdict.is_ok());
        }
        // The fitting row once per column, NULL in each, and 7 as a DOUBLE.
        assert_eq!(accepted, 4 + 4 + 1);
        // A borrowed polygon reads in a message as the geometry it is.
        let Value::Geom(Geometry::Polygon(p)) = &fits[3] else { unreachable!() };
        let borrowed = [Value::Int(1), Value::Float(0.5), Value::Text("x".into())];
        let mut lent: Vec<ValueRef<'_>> = borrowed.iter().map(Lend::lend).collect();
        lent.insert(0, ValueRef::Geom(GeometryRef::Polygon(p)));
        let mut owned = borrowed.to_vec();
        owned.insert(0, fits[3].clone());
        assert_eq!(s.check_row(&lent[..3]), s.check_row(&owned[..3]));
        assert_eq!(s.check_row(&lent), s.check_row(&owned));
        assert!(s.check_row(&owned).unwrap_err().to_string().contains("Polygon"));
    }
}
