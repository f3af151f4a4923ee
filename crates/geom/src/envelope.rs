use crate::Coord;

/// An axis-aligned bounding rectangle (minimum bounding rectangle, MBR).
///
/// Envelopes are the currency of spatial indexing and of MBR-only predicate
/// semantics (the MySQL-era behaviour one Jackpine engine profile models).
/// An envelope may be *empty* — the canonical result of taking the envelope
/// of an empty geometry — represented by inverted bounds so that
/// [`Envelope::expand_to_include`] works without special cases.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Envelope {
    /// Minimum x (west edge). Greater than `max_x` iff the envelope is empty.
    pub min_x: f64,
    /// Minimum y (south edge).
    pub min_y: f64,
    /// Maximum x (east edge).
    pub max_x: f64,
    /// Maximum y (north edge).
    pub max_y: f64,
}

impl Envelope {
    /// The empty envelope: contains nothing, expands to anything.
    pub const EMPTY: Envelope = Envelope {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    /// Creates an envelope from bounds, normalizing the order of each pair.
    #[inline]
    pub fn new(x1: f64, y1: f64, x2: f64, y2: f64) -> Envelope {
        Envelope { min_x: x1.min(x2), min_y: y1.min(y2), max_x: x1.max(x2), max_y: y1.max(y2) }
    }

    /// Creates a degenerate envelope covering a single coordinate.
    #[inline]
    pub fn from_coord(c: Coord) -> Envelope {
        Envelope { min_x: c.x, min_y: c.y, max_x: c.x, max_y: c.y }
    }

    /// Builds the envelope of an arbitrary coordinate sequence.
    pub fn from_coords<'a, I: IntoIterator<Item = &'a Coord>>(coords: I) -> Envelope {
        let mut e = Envelope::EMPTY;
        for c in coords {
            e.expand_to_coord(*c);
        }
        e
    }

    /// `true` when the envelope contains no point at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// The envelope packed as `[min_x, min_y, max_x, max_y]`, the layout
    /// the vectorized executor's columnar prefilter consumes. An empty
    /// envelope packs as all-NaN, so the positive-form intersection test
    /// (`a.min <= b.max && ...`) rejects it, like [`Envelope::intersects`]
    /// does. The one encoder of that layout: every quad the prefilter
    /// compares is made here.
    #[inline]
    pub fn quad(&self) -> [f64; 4] {
        if self.is_empty() {
            [f64::NAN; 4]
        } else {
            [self.min_x, self.min_y, self.max_x, self.max_y]
        }
    }

    /// Width of the envelope (0 for empty envelopes).
    #[inline]
    pub fn width(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max_x - self.min_x
        }
    }

    /// Height of the envelope (0 for empty envelopes).
    #[inline]
    pub fn height(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max_y - self.min_y
        }
    }

    /// Area of the envelope.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half-perimeter (margin), the quantity the R*-tree split optimizes.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Center point; `None` for empty envelopes.
    #[inline]
    pub fn center(&self) -> Option<Coord> {
        if self.is_empty() {
            None
        } else {
            Some(Coord::new((self.min_x + self.max_x) * 0.5, (self.min_y + self.max_y) * 0.5))
        }
    }

    /// Grows the envelope in place to cover `c`.
    #[inline]
    pub fn expand_to_coord(&mut self, c: Coord) {
        self.min_x = self.min_x.min(c.x);
        self.min_y = self.min_y.min(c.y);
        self.max_x = self.max_x.max(c.x);
        self.max_y = self.max_y.max(c.y);
    }

    /// Grows the envelope in place to cover `other`.
    #[inline]
    pub fn expand_to_include(&mut self, other: &Envelope) {
        if other.is_empty() {
            return;
        }
        self.min_x = self.min_x.min(other.min_x);
        self.min_y = self.min_y.min(other.min_y);
        self.max_x = self.max_x.max(other.max_x);
        self.max_y = self.max_y.max(other.max_y);
    }

    /// Returns the smallest envelope covering both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Envelope) -> Envelope {
        let mut e = *self;
        e.expand_to_include(other);
        e
    }

    /// Returns the envelope grown by `d` on every side.
    #[inline]
    pub fn expanded_by(&self, d: f64) -> Envelope {
        if self.is_empty() {
            return *self;
        }
        Envelope {
            min_x: self.min_x - d,
            min_y: self.min_y - d,
            max_x: self.max_x + d,
            max_y: self.max_y + d,
        }
    }

    /// `true` when the two envelopes share at least one point
    /// (closed-rectangle semantics: touching edges intersect).
    #[inline]
    pub fn intersects(&self, other: &Envelope) -> bool {
        !(self.is_empty()
            || other.is_empty()
            || other.min_x > self.max_x
            || other.max_x < self.min_x
            || other.min_y > self.max_y
            || other.max_y < self.min_y)
    }

    /// The rectangle common to both envelopes, or `None` if disjoint.
    pub fn intersection(&self, other: &Envelope) -> Option<Envelope> {
        if !self.intersects(other) {
            return None;
        }
        Some(Envelope {
            min_x: self.min_x.max(other.min_x),
            min_y: self.min_y.max(other.min_y),
            max_x: self.max_x.min(other.max_x),
            max_y: self.max_y.min(other.max_y),
        })
    }

    /// `true` when `c` lies inside or on the boundary.
    #[inline]
    pub fn contains_coord(&self, c: Coord) -> bool {
        !self.is_empty()
            && c.x >= self.min_x
            && c.x <= self.max_x
            && c.y >= self.min_y
            && c.y <= self.max_y
    }

    /// `true` when `other` lies entirely inside or on the boundary.
    ///
    /// Every envelope (including `self`) contains the empty envelope.
    #[inline]
    pub fn contains_envelope(&self, other: &Envelope) -> bool {
        other.is_empty()
            || (!self.is_empty()
                && other.min_x >= self.min_x
                && other.max_x <= self.max_x
                && other.min_y >= self.min_y
                && other.max_y <= self.max_y)
    }

    /// `true` when `c` lies strictly inside (not on the boundary). A hook
    /// for `tests/proptest_sql.rs`'s window-boundary cases.
    #[inline]
    pub fn contains_coord_strict(&self, c: Coord) -> bool {
        !self.is_empty()
            && c.x > self.min_x
            && c.x < self.max_x
            && c.y > self.min_y
            && c.y < self.max_y
    }

    /// Minimum distance from `c` to the envelope (0 when inside).
    pub fn distance_to_coord(&self, c: Coord) -> f64 {
        self.distance_sq_to_coord(c).sqrt()
    }

    /// Squared minimum distance from `c` to the envelope (0 when inside).
    pub fn distance_sq_to_coord(&self, c: Coord) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        let dx = if c.x < self.min_x {
            self.min_x - c.x
        } else if c.x > self.max_x {
            c.x - self.max_x
        } else {
            0.0
        };
        let dy = if c.y < self.min_y {
            self.min_y - c.y
        } else if c.y > self.max_y {
            c.y - self.max_y
        } else {
            0.0
        };
        dx * dx + dy * dy
    }

    /// Minimum distance between two envelopes (0 when they intersect). A
    /// hook for `tests/proptest_geom.rs`, which bounds `distance` by it.
    pub fn distance_to_envelope(&self, other: &Envelope) -> f64 {
        if self.is_empty() || other.is_empty() {
            return f64::INFINITY;
        }
        let dx = (other.min_x - self.max_x).max(self.min_x - other.max_x).max(0.0);
        let dy = (other.min_y - self.max_y).max(self.min_y - other.max_y).max(0.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// The four corners in counter-clockwise order starting at (min, min).
    /// Empty envelopes yield an empty vector.
    pub fn corners(&self) -> Vec<Coord> {
        if self.is_empty() {
            return Vec::new();
        }
        vec![
            Coord::new(self.min_x, self.min_y),
            Coord::new(self.max_x, self.min_y),
            Coord::new(self.max_x, self.max_y),
            Coord::new(self.min_x, self.max_y),
        ]
    }
}

impl Default for Envelope {
    fn default() -> Self {
        Envelope::EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_envelope_properties() {
        let e = Envelope::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.width(), 0.0);
        assert_eq!(e.area(), 0.0);
        assert!(e.center().is_none());
        assert!(!e.contains_coord(Coord::new(0.0, 0.0)));
    }

    #[test]
    fn new_normalizes_order() {
        let e = Envelope::new(5.0, 7.0, 1.0, 2.0);
        assert_eq!(e.min_x, 1.0);
        assert_eq!(e.max_x, 5.0);
        assert_eq!(e.min_y, 2.0);
        assert_eq!(e.max_y, 7.0);
    }

    #[test]
    fn expansion_from_empty() {
        let mut e = Envelope::EMPTY;
        e.expand_to_coord(Coord::new(1.0, 1.0));
        assert!(!e.is_empty());
        assert_eq!(e, Envelope::new(1.0, 1.0, 1.0, 1.0));
        e.expand_to_coord(Coord::new(-1.0, 3.0));
        assert_eq!(e, Envelope::new(-1.0, 1.0, 1.0, 3.0));
    }

    #[test]
    fn intersects_including_touching() {
        let a = Envelope::new(0.0, 0.0, 2.0, 2.0);
        let b = Envelope::new(2.0, 0.0, 4.0, 2.0); // shares an edge
        let c = Envelope::new(3.0, 3.0, 4.0, 4.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!b.intersects(&c)); // disjoint in y: [0,2] vs [3,4]
        let d = Envelope::new(4.0, 2.0, 6.0, 3.0); // touches b at corner (4,2)
        assert!(b.intersects(&d));
    }

    #[test]
    fn intersection_rectangle() {
        let a = Envelope::new(0.0, 0.0, 2.0, 2.0);
        let b = Envelope::new(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection(&b), Some(Envelope::new(1.0, 1.0, 2.0, 2.0)));
        let d = Envelope::new(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.intersection(&d), None);
    }

    #[test]
    fn containment() {
        let a = Envelope::new(0.0, 0.0, 4.0, 4.0);
        let b = Envelope::new(1.0, 1.0, 2.0, 2.0);
        assert!(a.contains_envelope(&b));
        assert!(!b.contains_envelope(&a));
        assert!(a.contains_envelope(&Envelope::EMPTY));
        assert!(a.contains_coord(Coord::new(0.0, 0.0)));
        assert!(!a.contains_coord_strict(Coord::new(0.0, 0.0)));
        assert!(a.contains_coord_strict(Coord::new(1.0, 1.0)));
    }

    #[test]
    fn distances() {
        let a = Envelope::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.distance_to_coord(Coord::new(1.0, 1.0)), 0.0);
        assert_eq!(a.distance_to_coord(Coord::new(5.0, 2.0)), 3.0);
        assert_eq!(a.distance_to_coord(Coord::new(5.0, 6.0)), 5.0);
        let b = Envelope::new(5.0, 0.0, 6.0, 2.0);
        assert_eq!(a.distance_to_envelope(&b), 3.0);
        assert_eq!(a.distance_to_envelope(&a), 0.0);
    }

    #[test]
    fn corners_ccw() {
        let a = Envelope::new(0.0, 0.0, 1.0, 2.0);
        let cs = a.corners();
        assert_eq!(cs.len(), 4);
        assert_eq!(cs[0], Coord::new(0.0, 0.0));
        assert_eq!(cs[2], Coord::new(1.0, 2.0));
    }

    #[test]
    fn distance_sq_matches_distance() {
        let a = Envelope::new(0.0, 0.0, 2.0, 2.0);
        let p = Coord::new(5.0, 6.0);
        assert!((a.distance_sq_to_coord(p) - 25.0).abs() < 1e-12);
    }
}
