//! Robust 2-D orientation predicate.
//!
//! [`orient2d`] decides whether three points make a left turn, a right turn
//! or are collinear. Getting this *exactly* right is what separates a
//! geometry kernel that survives real cadastral data from one that
//! misclassifies near-degenerate inputs. The implementation follows
//! Shewchuk's classic scheme: a fast floating-point evaluation with a
//! forward error bound, falling back to exact expansion arithmetic only
//! when the fast result is uncertain.

use crate::Coord;

/// The three possible turn directions of an ordered point triple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orientation {
    /// `c` lies to the left of the directed line `a → b` (counter-clockwise).
    CounterClockwise,
    /// `c` lies to the right of the directed line `a → b` (clockwise).
    Clockwise,
    /// The three points are exactly collinear.
    Collinear,
}

impl Orientation {
    /// Maps a determinant sign to an orientation.
    #[inline]
    fn from_det(det: f64) -> Orientation {
        if det > 0.0 {
            Orientation::CounterClockwise
        } else if det < 0.0 {
            Orientation::Clockwise
        } else {
            Orientation::Collinear
        }
    }

    /// The opposite turn (collinear stays collinear).
    pub fn reversed(self) -> Orientation {
        match self {
            Orientation::CounterClockwise => Orientation::Clockwise,
            Orientation::Clockwise => Orientation::CounterClockwise,
            Orientation::Collinear => Orientation::Collinear,
        }
    }
}

/// Error-bound coefficient for the fast path, from Shewchuk's analysis:
/// `(3 + 16ε)ε` where ε is the machine epsilon for rounding (2⁻⁵³).
const CCW_ERRBOUND_A: f64 = (3.0 + 16.0 * f64::EPSILON * 0.5) * (f64::EPSILON * 0.5);

/// Exact orientation of the triple `(a, b, c)`.
///
/// Returns [`Orientation::CounterClockwise`] when the signed area of the
/// triangle `a b c` is positive. The result is exact for all finite inputs:
/// the fast floating-point evaluation is accepted only when it provably has
/// the correct sign, otherwise the determinant is recomputed with exact
/// expansion arithmetic.
pub fn orient2d(a: Coord, b: Coord, c: Coord) -> Orientation {
    let detleft = (a.x - c.x) * (b.y - c.y);
    let detright = (a.y - c.y) * (b.x - c.x);
    let det = detleft - detright;

    let detsum = if detleft > 0.0 {
        if detright <= 0.0 {
            return Orientation::from_det(det);
        }
        detleft + detright
    } else if detleft < 0.0 {
        if detright >= 0.0 {
            return Orientation::from_det(det);
        }
        -detleft - detright
    } else {
        return Orientation::from_det(det);
    };

    let errbound = CCW_ERRBOUND_A * detsum;
    if det >= errbound || -det >= errbound {
        return Orientation::from_det(det);
    }
    orient2d_exact(a, b, c)
}

// ---------------------------------------------------------------------------
// Exact expansion arithmetic (Shewchuk). An "expansion" is a sum of
// non-overlapping f64 components ordered by increasing magnitude; its sign
// is the sign of its largest (last nonzero) component.
// ---------------------------------------------------------------------------

/// Knuth's TwoSum: `a + b = x + y` exactly, with `x = fl(a+b)`.
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let x = a + b;
    let bvirt = x - a;
    let avirt = x - bvirt;
    let bround = b - bvirt;
    let around = a - avirt;
    (x, around + bround)
}

/// TwoDiff: `a - b = x + y` exactly.
#[inline]
fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let x = a - b;
    let bvirt = a - x;
    let avirt = x + bvirt;
    let bround = bvirt - b;
    let around = a - avirt;
    (x, around + bround)
}

/// Veltkamp's splitter constant: 2^27 + 1.
const SPLITTER: f64 = 134_217_729.0;

/// Splits `a` into high and low halves whose product terms are exact.
#[inline]
fn split(a: f64) -> (f64, f64) {
    let c = SPLITTER * a;
    let abig = c - a;
    let ahi = c - abig;
    let alo = a - ahi;
    (ahi, alo)
}

/// Dekker's TwoProduct: `a * b = x + y` exactly.
#[inline]
fn two_product(a: f64, b: f64) -> (f64, f64) {
    let x = a * b;
    let (ahi, alo) = split(a);
    let (bhi, blo) = split(b);
    let err1 = x - (ahi * bhi);
    let err2 = err1 - (alo * bhi);
    let err3 = err2 - (ahi * blo);
    (x, alo * blo - err3)
}

/// Adds the scalar `b` into the expansion `e`, producing a new expansion.
/// Shewchuk's GROW-EXPANSION; output components are non-overlapping and in
/// increasing magnitude order if `e` was.
fn grow_expansion(e: &[f64], b: f64, out: &mut Vec<f64>) {
    out.clear();
    let mut q = b;
    for &ei in e {
        let (qnew, h) = two_sum(q, ei);
        if h != 0.0 {
            out.push(h);
        }
        q = qnew;
    }
    if q != 0.0 || out.is_empty() {
        out.push(q);
    }
}

/// Sign of the exact determinant
/// `(a.x-c.x)(b.y-c.y) - (a.y-c.y)(b.x-c.x)` computed with expansions.
fn orient2d_exact(a: Coord, b: Coord, c: Coord) -> Orientation {
    // Exact differences: each is a two-component expansion.
    let (axcy_hi, axcy_lo) = two_diff(a.x, c.x);
    let (bycy_hi, bycy_lo) = two_diff(b.y, c.y);
    let (aycy_hi, aycy_lo) = two_diff(a.y, c.y);
    let (bxcx_hi, bxcx_lo) = two_diff(b.x, c.x);

    // det = (axcy_hi+axcy_lo)(bycy_hi+bycy_lo) - (aycy_hi+aycy_lo)(bxcx_hi+bxcx_lo)
    // Expand both products into exact component lists.
    let mut components: Vec<f64> = Vec::with_capacity(16);
    for &(p, q) in &[(axcy_hi, bycy_hi), (axcy_hi, bycy_lo), (axcy_lo, bycy_hi), (axcy_lo, bycy_lo)]
    {
        let (x, y) = two_product(p, q);
        components.push(x);
        components.push(y);
    }
    for &(p, q) in &[(aycy_hi, bxcx_hi), (aycy_hi, bxcx_lo), (aycy_lo, bxcx_hi), (aycy_lo, bxcx_lo)]
    {
        let (x, y) = two_product(p, q);
        components.push(-x);
        components.push(-y);
    }

    // Distill the component list into a single non-overlapping expansion by
    // growing it one scalar at a time.
    let mut e: Vec<f64> = vec![0.0];
    let mut scratch: Vec<f64> = Vec::with_capacity(components.len() + 1);
    for comp in components {
        if comp == 0.0 {
            continue;
        }
        grow_expansion(&e, comp, &mut scratch);
        std::mem::swap(&mut e, &mut scratch);
    }

    // Sign of the expansion = sign of its largest-magnitude (last) nonzero
    // component.
    for &v in e.iter().rev() {
        if v != 0.0 {
            return Orientation::from_det(v);
        }
    }
    Orientation::Collinear
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_turns() {
        let a = Coord::new(0.0, 0.0);
        let b = Coord::new(1.0, 0.0);
        assert_eq!(orient2d(a, b, Coord::new(0.0, 1.0)), Orientation::CounterClockwise);
        assert_eq!(orient2d(a, b, Coord::new(0.0, -1.0)), Orientation::Clockwise);
        assert_eq!(orient2d(a, b, Coord::new(2.0, 0.0)), Orientation::Collinear);
    }

    #[test]
    fn reversal() {
        assert_eq!(Orientation::CounterClockwise.reversed(), Orientation::Clockwise);
        assert_eq!(Orientation::Collinear.reversed(), Orientation::Collinear);
    }

    #[test]
    fn antisymmetry_under_swap() {
        let a = Coord::new(0.3, 0.7);
        let b = Coord::new(1.9, -0.2);
        let c = Coord::new(-0.5, 2.4);
        assert_eq!(orient2d(a, b, c), orient2d(b, a, c).reversed());
    }

    /// The classic robustness torture test: points nearly on the line
    /// `y = x`, offset by one ulp. The naive determinant gets many of these
    /// wrong; the exact fallback must not.
    #[test]
    fn near_collinear_exactness() {
        let a = Coord::new(0.5, 0.5);
        let b = Coord::new(12.0, 12.0);
        // Exactly on the line.
        assert_eq!(orient2d(a, b, Coord::new(24.0, 24.0)), Orientation::Collinear);
        // One ulp above / below in y.
        let above = Coord::new(24.0, f64::from_bits(24.0_f64.to_bits() + 1));
        let below = Coord::new(24.0, f64::from_bits(24.0_f64.to_bits() - 1));
        assert_eq!(orient2d(a, b, above), Orientation::CounterClockwise);
        assert_eq!(orient2d(a, b, below), Orientation::Clockwise);
    }

    #[test]
    fn tiny_coordinates_remain_exact() {
        let a = Coord::new(1e-300, 1e-300);
        let b = Coord::new(2e-300, 2e-300);
        let c = Coord::new(3e-300, 3e-300);
        assert_eq!(orient2d(a, b, c), Orientation::Collinear);
    }

    #[test]
    fn exact_path_agrees_with_fast_path_on_clear_cases() {
        // Force the exact routine directly and compare.
        let a = Coord::new(0.0, 0.0);
        let b = Coord::new(10.0, 0.0);
        let c = Coord::new(5.0, 3.0);
        assert_eq!(orient2d_exact(a, b, c), Orientation::CounterClockwise);
        assert_eq!(orient2d_exact(a, c, b), Orientation::Clockwise);
        assert_eq!(orient2d_exact(a, b, Coord::new(20.0, 0.0)), Orientation::Collinear);
    }

    #[test]
    fn two_sum_and_two_product_are_exact() {
        let (x, y) = two_sum(1e16, 1.0);
        assert_eq!(x + y, 1e16 + 1.0);
        assert_eq!(x, 1e16); // 1.0 lost in rounding, recovered in y
        assert_eq!(y, 1.0);
        let (p, q) = two_product(1e8 + 1.0, 1e8 + 1.0);
        // (1e8+1)² = 1e16 + 2e8 + 1. The rounded product loses the final
        // +1 (ulp at that magnitude is 2); TwoProduct recovers it exactly.
        assert_eq!(p, (1e8 + 1.0) * (1e8 + 1.0));
        assert_eq!(p, 1.0e16 + 2.0e8);
        assert_eq!(q, 1.0);
    }

    #[test]
    fn translation_consistency_near_degenerate() {
        // A thin triangle translated far from the origin: sign must be stable.
        let dx = 1e7;
        let a = Coord::new(dx, dx);
        let b = Coord::new(dx + 1.0, dx + 1.0);
        let c = Coord::new(dx + 2.0, dx + 2.0 + 1e-9);
        assert_eq!(orient2d(a, b, c), Orientation::CounterClockwise);
        let c2 = Coord::new(dx + 2.0, dx + 2.0 - 1e-9);
        assert_eq!(orient2d(a, b, c2), Orientation::Clockwise);
    }
}
