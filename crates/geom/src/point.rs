use crate::{Coord, Envelope, GeomError, Result};

/// A single position, or the empty point.
///
/// OGC Simple Features allows `POINT EMPTY`; we model that with an inner
/// `Option<Coord>` so emptiness is explicit rather than encoded as NaN.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point(pub(crate) Option<Coord>);

impl Point {
    /// Creates a point at `(x, y)`.
    ///
    /// # Errors
    /// Returns [`GeomError::NonFiniteCoordinate`] if either component is
    /// NaN or infinite.
    pub fn new(x: f64, y: f64) -> Result<Point> {
        Point::from_coord(Coord::new(x, y))
    }

    /// Creates the empty point (`POINT EMPTY`).
    #[inline]
    pub const fn empty() -> Point {
        Point(None)
    }

    /// Creates a point from an existing coordinate.
    ///
    /// # Errors
    /// Returns [`GeomError::NonFiniteCoordinate`] for non-finite input.
    pub fn from_coord(c: Coord) -> Result<Point> {
        Point::check(c)?;
        Ok(Point(Some(c)))
    }

    /// Checks `c` as [`Point::from_coord`] does, building nothing.
    ///
    /// # Errors
    /// As for [`Point::from_coord`].
    pub fn check(c: Coord) -> Result<()> {
        if !c.is_finite() {
            return Err(GeomError::NonFiniteCoordinate);
        }
        Ok(())
    }

    /// The underlying coordinate, or `None` for the empty point.
    #[inline]
    pub fn coord(&self) -> Option<Coord> {
        self.0
    }

    /// `true` for `POINT EMPTY`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// X component; `None` when empty.
    #[inline]
    pub fn x(&self) -> Option<f64> {
        self.0.map(|c| c.x)
    }

    /// Y component; `None` when empty.
    #[inline]
    pub fn y(&self) -> Option<f64> {
        self.0.map(|c| c.y)
    }

    /// Minimum bounding rectangle (empty envelope for the empty point).
    pub fn envelope(&self) -> Envelope {
        match self.0 {
            Some(c) => Envelope::from_coord(c),
            None => Envelope::EMPTY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let p = Point::new(1.5, -2.0).unwrap();
        assert_eq!(p.x(), Some(1.5));
        assert_eq!(p.y(), Some(-2.0));
        assert!(!p.is_empty());
        assert_eq!(p.envelope(), Envelope::new(1.5, -2.0, 1.5, -2.0));
    }

    #[test]
    fn empty_point() {
        let p = Point::empty();
        assert!(p.is_empty());
        assert_eq!(p.x(), None);
        assert!(p.envelope().is_empty());
    }

    #[test]
    fn rejects_non_finite() {
        assert_eq!(Point::new(f64::NAN, 0.0), Err(GeomError::NonFiniteCoordinate));
        assert_eq!(Point::new(0.0, f64::INFINITY), Err(GeomError::NonFiniteCoordinate));
    }
}
