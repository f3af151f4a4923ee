use crate::{Coord, Envelope, GeomError, LineString, Result};

/// A closed ring of coordinates: first and last coincide, at least four
/// entries (a triangle plus the closing repeat).
///
/// Rings are the building blocks of [`Polygon`]. On construction the
/// orientation is *not* changed; [`Polygon::new`] normalizes its rings
/// (exterior counter-clockwise, holes clockwise).
#[derive(Clone, Debug, PartialEq)]
pub struct Ring {
    /// A boxed slice, not a `Vec`: a ring never grows, and the 8 bytes
    /// of capacity it saves are what bring [`Polygon`] to 24.
    coords: Box<[Coord]>,
}

impl Ring {
    /// Builds a ring, validating closure, minimum size, finiteness and the
    /// absence of consecutive duplicates and of zero area.
    ///
    /// # Errors
    /// [`GeomError::InvalidGeometry`] when any invariant is violated.
    pub fn new(coords: Vec<Coord>) -> Result<Ring> {
        Ring::check(&coords)?;
        Ok(Ring { coords: coords.into_boxed_slice() })
    }

    /// Checks `coords` as [`Ring::new`] does, building nothing: the one
    /// statement of a ring's invariants.
    ///
    /// # Errors
    /// As for [`Ring::new`].
    pub fn check(coords: &[Coord]) -> Result<()> {
        if coords.len() < 4 {
            return Err(GeomError::InvalidGeometry(
                "ring needs at least 4 coordinates (closed triangle)".into(),
            ));
        }
        if coords.first() != coords.last() {
            return Err(GeomError::InvalidGeometry("ring is not closed".into()));
        }
        for w in coords.windows(2) {
            if w[0] == w[1] {
                return Err(GeomError::InvalidGeometry(
                    "ring has consecutive duplicate coordinates".into(),
                ));
            }
        }
        if coords.iter().any(|c| !c.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        if signed_area(coords) == 0.0 {
            return Err(GeomError::InvalidGeometry("ring has zero area".into()));
        }
        Ok(())
    }

    /// Builds a ring from `(x, y)` pairs, closing it automatically if the
    /// last pair does not repeat the first.
    pub fn from_xy(pairs: &[(f64, f64)]) -> Result<Ring> {
        let mut coords: Vec<Coord> = pairs.iter().map(|&(x, y)| Coord::new(x, y)).collect();
        if !coords.is_empty() && coords.first() != coords.last() {
            coords.push(coords[0]);
        }
        Ring::new(coords)
    }

    /// Coordinate slice, first == last.
    #[inline]
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// Number of coordinates including the closing repeat.
    #[inline]
    pub fn num_coords(&self) -> usize {
        self.coords.len()
    }

    /// Iterator over the ring's edges.
    pub fn segments(&self) -> impl Iterator<Item = (Coord, Coord)> + '_ {
        self.coords.windows(2).map(|w| (w[0], w[1]))
    }

    /// Shoelace signed area: positive for counter-clockwise rings.
    pub fn signed_area(&self) -> f64 {
        signed_area(&self.coords)
    }

    /// Absolute enclosed area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// `true` when the ring winds counter-clockwise.
    #[inline]
    pub fn is_ccw(&self) -> bool {
        self.signed_area() > 0.0
    }

    /// Perimeter length.
    pub fn perimeter(&self) -> f64 {
        self.segments().map(|(a, b)| a.distance(b)).sum()
    }

    /// Minimum bounding rectangle.
    pub fn envelope(&self) -> Envelope {
        Envelope::from_coords(self.coords.iter())
    }

    /// Returns the ring with reversed winding.
    pub fn reversed(&self) -> Ring {
        let mut coords = self.coords.clone();
        coords.reverse();
        Ring { coords }
    }

    /// The ring as a closed [`LineString`] (used for boundary extraction).
    pub fn to_linestring(&self) -> LineString {
        // Invariant: a valid ring is always a valid linestring.
        LineString::new(self.coords.to_vec()).expect("valid ring is a valid linestring")
    }
}

/// Shoelace signed area of the closed run `coords`: positive for a
/// counter-clockwise one.
fn signed_area(coords: &[Coord]) -> f64 {
    let mut acc = 0.0;
    for w in coords.windows(2) {
        acc += w[0].cross(w[1]);
    }
    acc * 0.5
}

/// A polygon: one exterior ring and zero or more interior rings (holes).
///
/// Normalization performed by [`Polygon::new`]: the exterior ring is stored
/// counter-clockwise and every hole clockwise, so downstream algorithms can
/// rely on winding. Hole placement (inside the exterior, non-overlapping)
/// is the data producer's responsibility, as in most spatial databases.
#[derive(Clone, Debug, PartialEq)]
pub struct Polygon {
    exterior: Ring,
    /// Behind one thin pointer, `None` for the common hole-free polygon:
    /// never `Some` of an empty list, which would allocate for nothing.
    #[allow(clippy::box_collection)] // one word, where a `Box<[Ring]>` takes two
    holes: Option<Box<Vec<Ring>>>,
}

// A polygon is the widest payload of `Geometry` and so of every decoded
// `Value`: a field that widens it widens every row the engine holds.
const _: () = assert!(size_of::<Polygon>() == 24);

impl Polygon {
    /// Builds a polygon from an exterior ring and holes, normalizing the
    /// winding of each ring.
    pub fn new(exterior: Ring, holes: Vec<Ring>) -> Polygon {
        let exterior = if exterior.is_ccw() { exterior } else { exterior.reversed() };
        let holes: Vec<Ring> =
            holes.into_iter().map(|h| if h.is_ccw() { h.reversed() } else { h }).collect();
        Polygon { exterior, holes: (!holes.is_empty()).then(|| Box::new(holes)) }
    }

    /// Builds a hole-free polygon from `(x, y)` pairs.
    pub fn from_xy(pairs: &[(f64, f64)]) -> Result<Polygon> {
        Ok(Polygon::new(Ring::from_xy(pairs)?, Vec::new()))
    }

    /// Builds the axis-aligned rectangle polygon of an envelope.
    ///
    /// # Errors
    /// [`GeomError::InvalidGeometry`] if the envelope is empty or degenerate
    /// (zero width or height — a rectangle must enclose area).
    pub fn from_envelope(e: &Envelope) -> Result<Polygon> {
        if e.is_empty() || e.width() == 0.0 || e.height() == 0.0 {
            return Err(GeomError::InvalidGeometry(
                "cannot build a polygon from an empty or degenerate envelope".into(),
            ));
        }
        let mut cs = e.corners();
        cs.push(cs[0]);
        Ok(Polygon::new(Ring::new(cs)?, Vec::new()))
    }

    /// The exterior ring (always counter-clockwise).
    #[inline]
    pub fn exterior(&self) -> &Ring {
        &self.exterior
    }

    /// The interior rings (always clockwise).
    #[inline]
    pub fn holes(&self) -> &[Ring] {
        self.holes.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Enclosed area: exterior area minus hole areas.
    pub fn area(&self) -> f64 {
        let holes: f64 = self.holes().iter().map(Ring::area).sum();
        (self.exterior.area() - holes).max(0.0)
    }

    /// Total boundary length (exterior plus holes).
    pub fn perimeter(&self) -> f64 {
        self.exterior.perimeter() + self.holes().iter().map(Ring::perimeter).sum::<f64>()
    }

    /// Minimum bounding rectangle (the exterior's).
    pub fn envelope(&self) -> Envelope {
        self.exterior.envelope()
    }

    /// All rings: exterior first, then holes.
    pub fn rings(&self) -> impl Iterator<Item = &Ring> {
        std::iter::once(&self.exterior).chain(self.holes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::from_xy(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]).unwrap()
    }

    #[test]
    fn ring_validation() {
        assert!(Ring::from_xy(&[(0.0, 0.0), (1.0, 0.0)]).is_err());
        // collinear degenerate ring (zero area)
        assert!(Ring::from_xy(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]).is_err());
        let open = vec![
            Coord::new(0.0, 0.0),
            Coord::new(1.0, 0.0),
            Coord::new(1.0, 1.0),
            Coord::new(0.5, 0.5),
        ];
        assert!(Ring::new(open).is_err());
    }

    #[test]
    fn ring_auto_close_and_area() {
        let r = Ring::from_xy(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]).unwrap();
        assert_eq!(r.num_coords(), 5);
        assert_eq!(r.signed_area(), 4.0);
        assert!(r.is_ccw());
        assert_eq!(r.reversed().signed_area(), -4.0);
        assert_eq!(r.perimeter(), 8.0);
    }

    #[test]
    fn polygon_normalizes_winding() {
        // clockwise exterior input
        let cw = Ring::from_xy(&[(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]).unwrap();
        assert!(!cw.is_ccw());
        let p = Polygon::new(cw, Vec::new());
        assert!(p.exterior().is_ccw());

        let hole_ccw =
            Ring::from_xy(&[(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]).unwrap();
        let outer = Ring::from_xy(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]).unwrap();
        let p = Polygon::new(outer, vec![hole_ccw]);
        assert!(!p.holes()[0].is_ccw());
    }

    #[test]
    fn polygon_area_subtracts_holes() {
        let outer = Ring::from_xy(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).unwrap();
        let hole = Ring::from_xy(&[(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)]).unwrap();
        let p = Polygon::new(outer, vec![hole]);
        assert_eq!(p.area(), 15.0);
        assert_eq!(p.perimeter(), 16.0 + 4.0);
    }

    #[test]
    fn hole_free_polygons_keep_no_hole_list() {
        assert!(unit_square().holes.is_none());
        let outer = Ring::from_xy(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).unwrap();
        assert!(Polygon::new(outer.clone(), Vec::new()).holes.is_none());
        let hole = Ring::from_xy(&[(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)]).unwrap();
        assert_eq!(Polygon::new(outer, vec![hole]).holes.map(|h| h.len()), Some(1));
    }

    #[test]
    fn polygon_from_envelope() {
        let e = Envelope::new(0.0, 0.0, 2.0, 3.0);
        let p = Polygon::from_envelope(&e).unwrap();
        assert_eq!(p.area(), 6.0);
        assert!(Polygon::from_envelope(&Envelope::EMPTY).is_err());
        assert!(Polygon::from_envelope(&Envelope::new(1.0, 1.0, 1.0, 5.0)).is_err());
    }

    #[test]
    fn envelope_of_polygon() {
        assert_eq!(unit_square().envelope(), Envelope::new(0.0, 0.0, 1.0, 1.0));
    }
}
