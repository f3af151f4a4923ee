use crate::{Result, TopoError};
use jackpine_geom::Dimension;
use std::fmt;

/// One of the three point sets a geometry partitions the plane into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Position {
    /// The geometry's interior.
    Interior,
    /// The geometry's combinatorial boundary.
    Boundary,
    /// Everything else.
    Exterior,
}

impl Position {
    const ALL: [Position; 3] = [Position::Interior, Position::Boundary, Position::Exterior];

    fn index(self) -> usize {
        match self {
            Position::Interior => 0,
            Position::Boundary => 1,
            Position::Exterior => 2,
        }
    }
}

/// A DE-9IM matrix: the dimensions of the nine pairwise intersections of
/// `{interior, boundary, exterior}(a)` × `{interior, boundary, exterior}(b)`.
///
/// Printed and pattern-matched in row-major order
/// (`II IB IE / BI BB BE / EI EB EE`), e.g. `"212101212"`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct IntersectionMatrix {
    cells: [[Dimension; 3]; 3],
}

impl IntersectionMatrix {
    /// A matrix with every cell empty (`FFFFFFFFF`).
    pub fn empty() -> IntersectionMatrix {
        IntersectionMatrix { cells: [[Dimension::Empty; 3]; 3] }
    }

    /// Reads one cell.
    #[inline]
    pub fn get(&self, a: Position, b: Position) -> Dimension {
        self.cells[a.index()][b.index()]
    }

    /// Sets one cell.
    #[inline]
    pub fn set(&mut self, a: Position, b: Position, dim: Dimension) {
        self.cells[a.index()][b.index()] = dim;
    }

    /// Raises one cell to at least `dim` (never lowers it).
    #[inline]
    pub fn set_at_least(&mut self, a: Position, b: Position, dim: Dimension) {
        let cur = self.get(a, b);
        if dim > cur {
            self.set(a, b, dim);
        }
    }

    /// The matrix of the swapped operand order (`relate(b, a)`).
    pub fn transposed(&self) -> IntersectionMatrix {
        let mut out = IntersectionMatrix::empty();
        for a in Position::ALL {
            for b in Position::ALL {
                out.set(b, a, self.get(a, b));
            }
        }
        out
    }

    /// Tests the matrix against a 9-character DE-9IM pattern.
    ///
    /// Pattern characters: `F` (must be empty), `T` (must be non-empty),
    /// `*` (anything), `0`/`1`/`2` (exact dimension). Case-insensitive.
    ///
    /// # Errors
    /// [`TopoError::BadPattern`] for a wrong-length pattern or an unknown
    /// character.
    pub fn matches(&self, pattern: &str) -> Result<bool> {
        let chars: Vec<char> = pattern.chars().collect();
        if chars.len() != 9 {
            return Err(TopoError::BadPattern(pattern.to_string()));
        }
        // Validate the whole pattern before evaluating, so malformed
        // patterns are rejected even when an earlier cell already fails.
        if chars.iter().any(|c| !"FT*012ft".contains(*c)) {
            return Err(TopoError::BadPattern(pattern.to_string()));
        }
        for (i, &pc) in chars.iter().enumerate() {
            let dim = self.cells[i / 3][i % 3];
            let ok = match pc.to_ascii_uppercase() {
                'F' => dim == Dimension::Empty,
                'T' => dim != Dimension::Empty,
                '*' => true,
                '0' => dim == Dimension::Zero,
                '1' => dim == Dimension::One,
                '2' => dim == Dimension::Two,
                _ => unreachable!("validated above"),
            };
            if !ok {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl fmt::Display for IntersectionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.cells {
            for d in row {
                write!(f, "{}", d.as_char())?;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for IntersectionMatrix {
    /// Debug delegates to the canonical 9-character form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IM({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl IntersectionMatrix {
        /// Parses a matrix from its 9-character string form (digits and `F`).
        ///
        /// # Errors
        /// [`TopoError::BadPattern`] on malformed input (note `T` and `*` are
        /// pattern-only and not valid here).
        fn from_string(s: &str) -> Result<IntersectionMatrix> {
            let chars: Vec<char> = s.chars().collect();
            if chars.len() != 9 {
                return Err(TopoError::BadPattern(s.to_string()));
            }
            let mut m = IntersectionMatrix::empty();
            for (i, &c) in chars.iter().enumerate() {
                let dim = match c.to_ascii_uppercase() {
                    'F' => Dimension::Empty,
                    '0' => Dimension::Zero,
                    '1' => Dimension::One,
                    '2' => Dimension::Two,
                    _ => return Err(TopoError::BadPattern(s.to_string())),
                };
                m.cells[i / 3][i % 3] = dim;
            }
            Ok(m)
        }
    }

    #[test]
    fn roundtrip_string() {
        let m = IntersectionMatrix::from_string("212101212").unwrap();
        assert_eq!(m.to_string(), "212101212");
        let m = IntersectionMatrix::from_string("FF1FF0102").unwrap();
        assert_eq!(m.to_string(), "FF1FF0102");
    }

    #[test]
    fn get_set() {
        let mut m = IntersectionMatrix::empty();
        assert_eq!(m.get(Position::Interior, Position::Interior), Dimension::Empty);
        m.set(Position::Interior, Position::Exterior, Dimension::Two);
        assert_eq!(m.get(Position::Interior, Position::Exterior), Dimension::Two);
        m.set_at_least(Position::Interior, Position::Exterior, Dimension::Zero);
        assert_eq!(m.get(Position::Interior, Position::Exterior), Dimension::Two);
        m.set_at_least(Position::Boundary, Position::Boundary, Dimension::One);
        assert_eq!(m.get(Position::Boundary, Position::Boundary), Dimension::One);
    }

    #[test]
    fn transpose() {
        let m = IntersectionMatrix::from_string("01201F2F1").unwrap();
        let t = m.transposed();
        assert_eq!(t.to_string(), "00211F2F1");
        // Explicit cell check: (I,B) of m == (B,I) of t.
        assert_eq!(
            m.get(Position::Interior, Position::Boundary),
            t.get(Position::Boundary, Position::Interior)
        );
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn pattern_matching() {
        let m = IntersectionMatrix::from_string("212FF1FF2").unwrap();
        assert!(m.matches("T*F**FFF*").is_ok());
        assert!(!m.matches("T*F**FFF*").unwrap()); // BE is 1, pattern wants F at position 5
        assert!(m.matches("2*2FF*FF2").unwrap());
        assert!(m.matches("T********").unwrap());
        assert!(m.matches("*********").unwrap());
        assert!(!m.matches("F********").unwrap());
    }

    #[test]
    fn bad_patterns() {
        let m = IntersectionMatrix::empty();
        assert!(m.matches("TT").is_err());
        assert!(m.matches("TTTTTTTTX").is_err());
        assert!(IntersectionMatrix::from_string("T********").is_err());
        assert!(IntersectionMatrix::from_string("12").is_err());
    }

    #[test]
    fn case_insensitive_patterns() {
        let m = IntersectionMatrix::from_string("fff fff ff2".replace(' ', "").as_str()).unwrap();
        assert!(m.matches("fffffffft").unwrap());
    }
}
