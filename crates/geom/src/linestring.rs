use crate::{Coord, Envelope, GeomError, Result};

/// A polyline: an ordered sequence of two or more coordinates, or empty.
///
/// Invariants enforced at construction:
/// * either zero coordinates (`LINESTRING EMPTY`) or at least two,
/// * every coordinate finite,
/// * no two *consecutive* coordinates identical (repeated points carry no
///   geometric information and break several algorithms).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LineString {
    coords: Vec<Coord>,
}

impl LineString {
    /// Builds a linestring from a coordinate sequence.
    ///
    /// Consecutive duplicate coordinates are rejected rather than silently
    /// dropped so that callers notice malformed data.
    ///
    /// # Errors
    /// [`GeomError::InvalidGeometry`] for a single-coordinate input or
    /// consecutive duplicates; [`GeomError::NonFiniteCoordinate`] for
    /// NaN/infinite components.
    pub fn new(coords: Vec<Coord>) -> Result<LineString> {
        LineString::check(&coords)?;
        Ok(LineString { coords })
    }

    /// Checks `coords` as [`LineString::new`] does, building nothing: the
    /// one statement of a linestring's invariants.
    ///
    /// # Errors
    /// As for [`LineString::new`].
    pub fn check(coords: &[Coord]) -> Result<()> {
        if coords.len() == 1 {
            return Err(GeomError::InvalidGeometry(
                "linestring needs at least 2 coordinates (or 0 for EMPTY)".into(),
            ));
        }
        for w in coords.windows(2) {
            if w[0] == w[1] {
                return Err(GeomError::InvalidGeometry(
                    "linestring has consecutive duplicate coordinates".into(),
                ));
            }
        }
        if coords.iter().any(|c| !c.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        Ok(())
    }

    /// Builds a linestring from `(x, y)` pairs. Convenience for tests and
    /// data generation.
    pub fn from_xy(pairs: &[(f64, f64)]) -> Result<LineString> {
        LineString::new(pairs.iter().map(|&(x, y)| Coord::new(x, y)).collect())
    }

    /// The empty linestring.
    #[inline]
    pub fn empty() -> LineString {
        LineString { coords: Vec::new() }
    }

    /// Coordinate slice (empty slice for `LINESTRING EMPTY`).
    #[inline]
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// Number of coordinates.
    #[inline]
    pub fn num_coords(&self) -> usize {
        self.coords.len()
    }

    /// `true` for `LINESTRING EMPTY`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// `true` when the first and last coordinates coincide (a ring-shaped
    /// line). Empty linestrings are not closed.
    pub fn is_closed(&self) -> bool {
        match (self.coords.first(), self.coords.last()) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// First coordinate, if any.
    #[inline]
    pub fn start(&self) -> Option<Coord> {
        self.coords.first().copied()
    }

    /// Last coordinate, if any.
    #[inline]
    pub fn end(&self) -> Option<Coord> {
        self.coords.last().copied()
    }

    /// Iterator over the line's segments as coordinate pairs.
    pub fn segments(&self) -> impl Iterator<Item = (Coord, Coord)> + '_ {
        self.coords.windows(2).map(|w| (w[0], w[1]))
    }

    /// Minimum bounding rectangle.
    pub fn envelope(&self) -> Envelope {
        Envelope::from_coords(self.coords.iter())
    }

    /// Sum of segment lengths.
    pub fn length(&self) -> f64 {
        self.segments().map(|(a, b)| a.distance(b)).sum()
    }

    /// Returns a copy with the coordinate order reversed.
    pub fn reversed(&self) -> LineString {
        let mut coords = self.coords.clone();
        coords.reverse();
        LineString { coords }
    }

    /// The point at parametric distance `d` along the line (clamped to the
    /// endpoints). `None` for the empty linestring.
    pub fn interpolate(&self, d: f64) -> Option<Coord> {
        let first = self.coords.first()?;
        if d <= 0.0 {
            return Some(*first);
        }
        let mut remaining = d;
        for (a, b) in self.segments() {
            let seg = a.distance(b);
            if remaining <= seg {
                return Some(a.lerp(b, remaining / seg));
            }
            remaining -= seg;
        }
        self.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(pairs: &[(f64, f64)]) -> LineString {
        LineString::from_xy(pairs).unwrap()
    }

    #[test]
    fn construction_invariants() {
        assert!(LineString::from_xy(&[(0.0, 0.0)]).is_err());
        assert!(LineString::from_xy(&[(0.0, 0.0), (0.0, 0.0)]).is_err());
        assert!(LineString::from_xy(&[(0.0, 0.0), (1.0, 1.0), (1.0, 1.0)]).is_err());
        assert!(LineString::from_xy(&[]).unwrap().is_empty());
        assert!(LineString::new(vec![Coord::new(f64::NAN, 0.0), Coord::new(1.0, 1.0)]).is_err());
    }

    #[test]
    fn closedness() {
        let open = line(&[(0.0, 0.0), (1.0, 0.0)]);
        assert!(!open.is_closed());
        let ring = line(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]);
        assert!(ring.is_closed());
        assert!(!LineString::empty().is_closed());
    }

    #[test]
    fn length_and_segments() {
        let l = line(&[(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]);
        assert_eq!(l.length(), 7.0);
        assert_eq!(l.segments().count(), 2);
        assert_eq!(l.envelope(), Envelope::new(0.0, 0.0, 3.0, 4.0));
    }

    #[test]
    fn interpolation() {
        let l = line(&[(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]);
        assert_eq!(l.interpolate(0.0), Some(Coord::new(0.0, 0.0)));
        assert_eq!(l.interpolate(3.0), Some(Coord::new(3.0, 0.0)));
        assert_eq!(l.interpolate(5.0), Some(Coord::new(3.0, 2.0)));
        assert_eq!(l.interpolate(100.0), Some(Coord::new(3.0, 4.0)));
        assert_eq!(LineString::empty().interpolate(1.0), None);
    }

    #[test]
    fn reversal() {
        let l = line(&[(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)]);
        let r = l.reversed();
        assert_eq!(r.start(), Some(Coord::new(2.0, 1.0)));
        assert_eq!(r.end(), Some(Coord::new(0.0, 0.0)));
        assert_eq!(r.length(), l.length());
    }
}
