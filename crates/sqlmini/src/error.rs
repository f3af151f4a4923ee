use jackpine_storage::StorageError;
use std::fmt;

/// Errors from SQL parsing, planning and execution.
#[derive(Clone, Debug, PartialEq)]
pub enum SqlError {
    /// The statement text could not be tokenized.
    Lex {
        /// Byte position of the offending character.
        position: usize,
        /// Description of the problem.
        message: String,
    },
    /// The token stream does not form a valid statement.
    Parse {
        /// Byte position where parsing failed.
        position: usize,
        /// What was expected.
        message: String,
    },
    /// A name (table, column, alias, function) could not be resolved.
    Unresolved(String),
    /// An expression was applied to values of the wrong type.
    Type(String),
    /// The function exists but is not supported by the active engine
    /// profile (Jackpine's feature-matrix rows).
    UnsupportedFeature(String),
    /// Error bubbled up from the storage layer, as it was raised.
    Storage(StorageError),
    /// Error bubbled up from geometry or topology computation.
    Geometry(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex { position, message } => {
                write!(f, "lex error at byte {position}: {message}")
            }
            SqlError::Parse { position, message } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            SqlError::Unresolved(n) => write!(f, "unresolved name: {n}"),
            SqlError::Type(m) => write!(f, "type error: {m}"),
            SqlError::UnsupportedFeature(m) => {
                write!(f, "feature not supported by this engine profile: {m}")
            }
            SqlError::Storage(m) => write!(f, "storage error: {m}"),
            SqlError::Geometry(m) => write!(f, "geometry error: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<StorageError> for SqlError {
    fn from(e: StorageError) -> Self {
        SqlError::Storage(e)
    }
}

impl From<jackpine_geom::GeomError> for SqlError {
    fn from(e: jackpine_geom::GeomError) -> Self {
        SqlError::Geometry(e.to_string())
    }
}

impl From<jackpine_topo::TopoError> for SqlError {
    fn from(e: jackpine_topo::TopoError) -> Self {
        SqlError::Geometry(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = SqlError::Parse { position: 12, message: "expected FROM".into() };
        assert!(e.to_string().contains("byte 12"));
        assert!(SqlError::UnsupportedFeature("ST_Buffer".into()).to_string().contains("ST_Buffer"));
    }
}
