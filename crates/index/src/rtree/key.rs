//! The R-tree's keys: float4 boxes rounded outward, as PostGIS's GiST
//! stores its 2-D keys (`BOX2DF`).

use jackpine_geom::{Coord, Envelope};

/// The key of an R-tree entry: an [`Envelope`] held as four `f32`
/// bounds, 16 bytes where the envelope takes 32. The minimum bounds are
/// rounded toward −∞ and the maximum bounds toward +∞, so a key contains
/// the envelope it was made from. A key is only a filter: a probe that
/// tests keys returns every entry whose envelope it meets and perhaps a
/// few more, which the caller's exact test drops.
///
/// [`BoxKey::EMPTY`] and NaN bounds are kept as they are. A bound beyond
/// the `f32` range goes to `±f32::MAX` or `±∞`, whichever lies outward.
/// Every `f32` is an `f64`, so [`BoxKey::envelope`] loses nothing and
/// re-keying that envelope gives the same key back.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxKey {
    min_x: f32,
    min_y: f32,
    max_x: f32,
    max_y: f32,
}

impl BoxKey {
    /// The key of [`Envelope::EMPTY`]: contains nothing, expands to
    /// anything.
    pub const EMPTY: BoxKey = BoxKey {
        min_x: f32::INFINITY,
        min_y: f32::INFINITY,
        max_x: f32::NEG_INFINITY,
        max_y: f32::NEG_INFINITY,
    };

    /// The smallest key that contains `e`.
    pub fn outward(e: &Envelope) -> BoxKey {
        BoxKey {
            min_x: down(e.min_x),
            min_y: down(e.min_y),
            max_x: up(e.max_x),
            max_y: up(e.max_y),
        }
    }

    /// The key as an envelope, exactly.
    #[inline]
    pub fn envelope(&self) -> Envelope {
        Envelope {
            min_x: self.min_x.into(),
            min_y: self.min_y.into(),
            max_x: self.max_x.into(),
            max_y: self.max_y.into(),
        }
    }

    /// `[min_x, min_y, max_x, max_y]`, the order the leaf codec writes.
    pub fn bounds(&self) -> [f32; 4] {
        [self.min_x, self.min_y, self.max_x, self.max_y]
    }

    /// Inverse of [`BoxKey::bounds`]: the bounds as they are, unrounded
    /// and unnormalized, so `EMPTY` survives.
    pub(super) fn from_bounds([min_x, min_y, max_x, max_y]: [f32; 4]) -> BoxKey {
        BoxKey { min_x, min_y, max_x, max_y }
    }

    /// `true` when the key contains no point at all.
    #[inline]
    pub(super) fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Grows the key in place to cover `other`: the `f32` minimum and
    /// maximum of the bounds, so nothing is rounded twice.
    #[inline]
    pub(super) fn expand_to_include(&mut self, other: &BoxKey) {
        if other.is_empty() {
            return;
        }
        self.min_x = self.min_x.min(other.min_x);
        self.min_y = self.min_y.min(other.min_y);
        self.max_x = self.max_x.max(other.max_x);
        self.max_y = self.max_y.max(other.max_y);
    }

    /// `true` when `other` lies inside or on the boundary (every key
    /// contains the empty key), as [`Envelope::contains_envelope`].
    #[inline]
    pub(super) fn contains(&self, other: &BoxKey) -> bool {
        other.is_empty()
            || (!self.is_empty()
                && other.min_x >= self.min_x
                && other.max_x <= self.max_x
                && other.min_y >= self.min_y
                && other.max_y <= self.max_y)
    }

    /// `true` when the key meets `window` (closed rectangles).
    #[inline]
    pub(super) fn intersects(&self, window: &Envelope) -> bool {
        self.envelope().intersects(window)
    }

    /// Distance from `c` to the key: at most the distance to the
    /// envelope it was made from.
    #[inline]
    pub(super) fn distance_to_coord(&self, c: Coord) -> f64 {
        self.envelope().distance_to_coord(c)
    }
}

/// The largest `f32` at or below `x`; NaN stays NaN.
///
/// Both candidates are computed and one is selected, with no branch on
/// the data: whether `x as f32` (round to nearest) lands on the wrong
/// side is a coin toss, and a branch on it cost `bulk_load` a fifth of
/// its time.
fn down(x: f64) -> f32 {
    let f = x as f32;
    // One step toward -inf is one unit less in the bits of a positive
    // float, one more in those of a negative one (-0.0 goes to the
    // negative subnormal, +inf to f32::MAX); `x as f32` keeps the sign.
    let bits = f.to_bits();
    let below = f32::from_bits(bits.wrapping_add(((bits >> 31) << 1).wrapping_sub(1)));
    if f64::from(f) > x {
        below
    } else {
        f
    }
}

/// The smallest `f32` at or above `x`; NaN stays NaN. The mirror of
/// [`down`].
fn up(x: f64) -> f32 {
    let f = x as f32;
    let bits = f.to_bits();
    let above = f32::from_bits(bits.wrapping_add(1u32.wrapping_sub((bits >> 31) << 1)));
    if f64::from(f) < x {
        above
    } else {
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_round_outward_and_specials_keep() {
        let third = 1.0 / 3.0;
        let k = BoxKey::outward(&Envelope::new(third, -third, third, -third));
        let [min_x, min_y, max_x, max_y] = k.bounds().map(f64::from);
        assert!(min_x < third && max_x > third && min_y < -third && max_y > -third);
        // One float4 step apart: as tight as outward can be.
        assert_eq!(k.bounds()[0].next_up(), k.bounds()[2]);
        // Exact f32 values and both zeros stay put.
        let k = BoxKey::outward(&Envelope { min_x: -0.0, min_y: 0.0, max_x: 0.5, max_y: 2.0 });
        assert_eq!(k.bounds().map(f32::to_bits), [-0.0f32, 0.0, 0.5, 2.0].map(f32::to_bits));
        // Beyond f32 range: MAX or infinity, whichever is outward.
        let k =
            BoxKey::outward(&Envelope { min_x: 1e300, min_y: -1e300, max_x: 1e300, max_y: -1e300 });
        assert_eq!(k.bounds(), [f32::MAX, f32::NEG_INFINITY, f32::INFINITY, -f32::MAX]);
        // Subnormal f64 bounds leave zero outward by the smallest f32 step.
        let tiny = f64::from_bits(1);
        let k = BoxKey::outward(&Envelope { min_x: tiny, min_y: -tiny, max_x: tiny, max_y: -tiny });
        let step = f32::from_bits(1);
        assert_eq!(k.bounds(), [0.0, -step, step, -0.0]);
        assert_eq!(BoxKey::outward(&Envelope::EMPTY), BoxKey::EMPTY);
        assert!(BoxKey::EMPTY.is_empty() && BoxKey::EMPTY.envelope() == Envelope::EMPTY);
        let nan = Envelope { min_x: f64::NAN, min_y: 1.0, max_x: 2.0, max_y: f64::NAN };
        let k = BoxKey::outward(&nan).bounds();
        assert!(k[0].is_nan() && k[3].is_nan() && k[1] == 1.0 && k[2] == 2.0);
    }
}
