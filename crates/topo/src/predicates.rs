//! The named topological predicates of the OGC Simple Features standard,
//! defined as DE-9IM pattern matches — exactly the relations Jackpine's
//! topological micro benchmark queries.

use crate::matrix::IntersectionMatrix;
use crate::{relate, Result};
use jackpine_geom::{Dimension, Envelope, Geometry};

/// The ten named predicates, as data — so callers (the SQL layer, the
/// prepared-geometry evaluator) can route a predicate by value instead
/// of by function pointer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PredicateKind {
    /// [`equals`]
    Equals,
    /// [`disjoint`]
    Disjoint,
    /// [`intersects`]
    Intersects,
    /// [`touches`]
    Touches,
    /// [`crosses`]
    Crosses,
    /// [`within`]
    Within,
    /// [`contains`]
    Contains,
    /// [`overlaps`]
    Overlaps,
    /// [`covers`]
    Covers,
    /// [`covered_by`]
    CoveredBy,
}

impl PredicateKind {
    /// Every predicate, in the order of [`SQL_NAMES`].
    pub const ALL: [PredicateKind; 10] = [
        PredicateKind::Equals,
        PredicateKind::Disjoint,
        PredicateKind::Intersects,
        PredicateKind::Touches,
        PredicateKind::Crosses,
        PredicateKind::Within,
        PredicateKind::Contains,
        PredicateKind::Overlaps,
        PredicateKind::Covers,
        PredicateKind::CoveredBy,
    ];

    /// Map an upper-cased SQL function name (`ST_INTERSECTS`, …) to its
    /// predicate kind. Returns `None` for non-topological functions.
    pub fn from_sql_name(upper: &str) -> Option<PredicateKind> {
        SQL_NAMES.iter().position(|&name| name == upper).map(|i| PredicateKind::ALL[i])
    }

    /// The upper-cased SQL name of this predicate (`ST_INTERSECTS`, …).
    pub fn sql_name(self) -> &'static str {
        SQL_NAMES[self as usize]
    }

    /// The envelope rule, the one place it is written: when the
    /// envelopes `a` and `b` of two geometries do not meet (an empty
    /// envelope meets nothing), only Disjoint holds, whatever the
    /// geometries are, so the answer is `Some` without looking at them.
    /// `None` when the envelopes meet and the predicate itself decides.
    /// [`holds`], [`crate::evaluate`], the SQL layer's envelope
    /// predicates and its spatial filter apply it first; an index,
    /// which returns no row whose envelope misses its window, serves
    /// exactly the predicates it answers `false` for.
    pub fn on_disjoint_envelopes(self, a: &Envelope, b: &Envelope) -> Option<bool> {
        (!a.intersects(b)).then_some(self == PredicateKind::Disjoint)
    }
}

/// The upper-cased SQL name of each predicate of [`PredicateKind::ALL`],
/// in its order: the one place the names are spelled.
pub const SQL_NAMES: [&str; 10] = [
    "ST_EQUALS",
    "ST_DISJOINT",
    "ST_INTERSECTS",
    "ST_TOUCHES",
    "ST_CROSSES",
    "ST_WITHIN",
    "ST_CONTAINS",
    "ST_OVERLAPS",
    "ST_COVERS",
    "ST_COVEREDBY",
];

/// Evaluates `kind` naively, behind the envelope rule
/// ([`PredicateKind::on_disjoint_envelopes`]): disjoint envelopes decide
/// every predicate without touching the operands, unsupported ones
/// included; otherwise the named predicate below decides.
pub fn holds(kind: PredicateKind, a: &Geometry, b: &Geometry) -> Result<bool> {
    if let Some(value) = kind.on_disjoint_envelopes(&a.envelope(), &b.envelope()) {
        return Ok(value);
    }
    let predicate = match kind {
        PredicateKind::Equals => equals,
        PredicateKind::Disjoint => disjoint,
        PredicateKind::Intersects => intersects,
        PredicateKind::Touches => touches,
        PredicateKind::Crosses => crosses,
        PredicateKind::Within => within,
        PredicateKind::Contains => contains,
        PredicateKind::Overlaps => overlaps,
        PredicateKind::Covers => covers,
        PredicateKind::CoveredBy => covered_by,
    };
    predicate(a, b)
}

/// Evaluate a named predicate against an already-computed DE-9IM matrix
/// for operands of dimensions `da` × `db`. This is the single pattern
/// table shared by the naive wrappers below and the prepared path, so
/// the two can never drift.
pub(crate) fn eval_matrix(
    kind: PredicateKind,
    m: &IntersectionMatrix,
    da: Dimension,
    db: Dimension,
) -> Result<bool> {
    match kind {
        PredicateKind::Equals => m.matches("T*F**FFF*"),
        PredicateKind::Disjoint => m.matches("FF*FF****"),
        PredicateKind::Intersects => Ok(!m.matches("FF*FF****")?),
        PredicateKind::Touches => {
            Ok(m.matches("FT*******")? || m.matches("F**T*****")? || m.matches("F***T****")?)
        }
        PredicateKind::Crosses => {
            if da < db {
                m.matches("T*T******")
            } else if da > db {
                m.matches("T*****T**")
            } else if da == Dimension::One && db == Dimension::One {
                m.matches("0********")
            } else {
                Ok(false)
            }
        }
        PredicateKind::Within => m.matches("T*F**F***"),
        PredicateKind::Contains => eval_matrix(PredicateKind::Within, &m.transposed(), db, da),
        PredicateKind::Overlaps => {
            if da != db {
                return Ok(false);
            }
            match da {
                Dimension::Zero | Dimension::Two => m.matches("T*T***T**"),
                Dimension::One => m.matches("1*T***T**"),
                _ => Ok(false),
            }
        }
        PredicateKind::Covers => Ok(m.matches("T*****FF*")?
            || m.matches("*T****FF*")?
            || m.matches("***T**FF*")?
            || m.matches("****T*FF*")?),
        PredicateKind::CoveredBy => eval_matrix(PredicateKind::Covers, &m.transposed(), db, da),
    }
}

fn eval(kind: PredicateKind, a: &Geometry, b: &Geometry) -> Result<bool> {
    eval_matrix(kind, &relate(a, b)?, a.dimension(), b.dimension())
}

/// `a` and `b` are topologically equal (same point set): `T*F**FFF*`.
pub fn equals(a: &Geometry, b: &Geometry) -> Result<bool> {
    eval(PredicateKind::Equals, a, b)
}

/// `a` and `b` share no point: `FF*FF****`.
pub fn disjoint(a: &Geometry, b: &Geometry) -> Result<bool> {
    eval(PredicateKind::Disjoint, a, b)
}

/// `a` and `b` share at least one point (negation of [`disjoint`]).
pub fn intersects(a: &Geometry, b: &Geometry) -> Result<bool> {
    eval(PredicateKind::Intersects, a, b)
}

/// `a` touches `b`: they intersect, but only at boundaries
/// (`FT*******`, `F**T*****` or `F***T****`).
pub fn touches(a: &Geometry, b: &Geometry) -> Result<bool> {
    eval(PredicateKind::Touches, a, b)
}

/// `a` crosses `b`: interiors intersect in a lower dimension than the
/// operands allow.
pub fn crosses(a: &Geometry, b: &Geometry) -> Result<bool> {
    eval(PredicateKind::Crosses, a, b)
}

/// `a` lies within `b`: `T*F**F***`.
pub fn within(a: &Geometry, b: &Geometry) -> Result<bool> {
    eval(PredicateKind::Within, a, b)
}

/// `a` contains `b` (transpose of [`within`]).
pub fn contains(a: &Geometry, b: &Geometry) -> Result<bool> {
    within(b, a)
}

/// `a` overlaps `b`: same dimension, interiors intersect, and each has
/// interior points the other lacks.
pub fn overlaps(a: &Geometry, b: &Geometry) -> Result<bool> {
    eval(PredicateKind::Overlaps, a, b)
}

/// `a` covers `b`: every point of `b` is a point of `a`.
pub fn covers(a: &Geometry, b: &Geometry) -> Result<bool> {
    eval(PredicateKind::Covers, a, b)
}

/// `a` is covered by `b` (transpose of [`covers`]).
pub fn covered_by(a: &Geometry, b: &Geometry) -> Result<bool> {
    covers(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jackpine_geom::wkt;

    fn g(w: &str) -> Geometry {
        wkt::parse(w).unwrap()
    }

    const SQ: &str = "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))";
    const SQ_SHIFT: &str = "POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))";
    const SQ_FAR: &str = "POLYGON ((5 5, 6 5, 6 6, 5 6, 5 5))";
    const SQ_INNER: &str = "POLYGON ((0.5 0.5, 1.5 0.5, 1.5 1.5, 0.5 1.5, 0.5 0.5))";
    const SQ_EDGE: &str = "POLYGON ((2 0, 4 0, 4 2, 2 2, 2 0))";

    #[test]
    fn the_envelope_rule_decides_disjoint_envelopes_only() {
        let (a, b) = (Envelope::new(0.0, 0.0, 1.0, 1.0), Envelope::new(2.0, 2.0, 3.0, 3.0));
        let corner = Envelope::new(1.0, 1.0, 2.0, 2.0);
        for kind in PredicateKind::ALL {
            let apart = Some(kind == PredicateKind::Disjoint);
            assert_eq!(kind.on_disjoint_envelopes(&a, &b), apart, "{kind:?}");
            // An empty envelope meets nothing, itself included.
            assert_eq!(kind.on_disjoint_envelopes(&a, &Envelope::EMPTY), apart, "{kind:?}");
            assert_eq!(kind.on_disjoint_envelopes(&Envelope::EMPTY, &Envelope::EMPTY), apart);
            // Touching corners meet: the predicate decides.
            assert_eq!(kind.on_disjoint_envelopes(&a, &corner), None, "{kind:?}");
        }
    }

    #[test]
    fn equals_pred() {
        assert!(equals(&g(SQ), &g(SQ)).unwrap());
        // Same region, different vertex order/start.
        assert!(equals(&g(SQ), &g("POLYGON ((2 0, 2 2, 0 2, 0 0, 2 0))")).unwrap());
        assert!(!equals(&g(SQ), &g(SQ_SHIFT)).unwrap());
        assert!(equals(&g("LINESTRING (0 0, 2 0)"), &g("LINESTRING (2 0, 0 0)")).unwrap());
        // Same line with an extra interior vertex.
        assert!(equals(&g("LINESTRING (0 0, 2 0)"), &g("LINESTRING (0 0, 1 0, 2 0)")).unwrap());
    }

    #[test]
    fn disjoint_and_intersects() {
        assert!(disjoint(&g(SQ), &g(SQ_FAR)).unwrap());
        assert!(!disjoint(&g(SQ), &g(SQ_SHIFT)).unwrap());
        assert!(intersects(&g(SQ), &g(SQ_SHIFT)).unwrap());
        assert!(intersects(&g(SQ), &g(SQ_EDGE)).unwrap()); // edge touch
    }

    #[test]
    fn touches_pred() {
        assert!(touches(&g(SQ), &g(SQ_EDGE)).unwrap());
        assert!(!touches(&g(SQ), &g(SQ_SHIFT)).unwrap()); // overlap, not touch
        assert!(!touches(&g(SQ), &g(SQ_FAR)).unwrap());
        // Point on polygon boundary touches; inside does not.
        assert!(touches(&g("POINT (2 1)"), &g(SQ)).unwrap());
        assert!(!touches(&g("POINT (1 1)"), &g(SQ)).unwrap());
        // Lines meeting end-to-end.
        assert!(touches(&g("LINESTRING (0 0, 1 0)"), &g("LINESTRING (1 0, 2 0)")).unwrap());
    }

    #[test]
    fn crosses_pred() {
        assert!(crosses(&g("LINESTRING (0 0, 2 2)"), &g("LINESTRING (0 2, 2 0)")).unwrap());
        assert!(crosses(&g("LINESTRING (-1 1, 3 1)"), &g(SQ)).unwrap());
        // A line fully inside does not cross.
        assert!(!crosses(&g("LINESTRING (0.5 1, 1.5 1)"), &g(SQ)).unwrap());
        // Touching lines do not cross.
        assert!(!crosses(&g("LINESTRING (0 0, 1 0)"), &g("LINESTRING (1 0, 2 0)")).unwrap());
        // Multipoint crossing a polygon: some in, some out.
        assert!(crosses(&g("MULTIPOINT ((1 1), (9 9))"), &g(SQ)).unwrap());
    }

    #[test]
    fn within_contains() {
        assert!(within(&g(SQ_INNER), &g(SQ)).unwrap());
        assert!(contains(&g(SQ), &g(SQ_INNER)).unwrap());
        assert!(!within(&g(SQ), &g(SQ_INNER)).unwrap());
        assert!(within(&g("POINT (1 1)"), &g(SQ)).unwrap());
        // A point on the boundary is NOT within (but is covered by).
        assert!(!within(&g("POINT (2 1)"), &g(SQ)).unwrap());
        assert!(covered_by(&g("POINT (2 1)"), &g(SQ)).unwrap());
        assert!(covers(&g(SQ), &g("POINT (2 1)")).unwrap());
    }

    #[test]
    fn overlaps_pred() {
        assert!(overlaps(&g(SQ), &g(SQ_SHIFT)).unwrap());
        assert!(!overlaps(&g(SQ), &g(SQ_INNER)).unwrap()); // containment
        assert!(!overlaps(&g(SQ), &g(SQ_EDGE)).unwrap()); // touch
        assert!(!overlaps(&g(SQ), &g(SQ)).unwrap()); // equal
                                                     // Collinear partially overlapping lines.
        assert!(overlaps(&g("LINESTRING (0 0, 2 0)"), &g("LINESTRING (1 0, 3 0)")).unwrap());
        // Crossing lines do not overlap (dim-0 intersection).
        assert!(!overlaps(&g("LINESTRING (0 0, 2 2)"), &g("LINESTRING (0 2, 2 0)")).unwrap());
        // Point sets sharing some but not all members.
        assert!(overlaps(&g("MULTIPOINT ((0 0), (1 1))"), &g("MULTIPOINT ((1 1), (2 2))")).unwrap());
    }

    #[test]
    fn covers_vs_contains_boundary_case() {
        // A polygon covers a line on its boundary but does not contain it.
        let edge_line = g("LINESTRING (0.5 0, 1.5 0)");
        assert!(covers(&g(SQ), &edge_line).unwrap());
        assert!(!contains(&g(SQ), &edge_line).unwrap());
    }

    #[test]
    fn predicate_consistency_within_implies_covered_by() {
        let pairs = [(SQ_INNER, SQ), ("POINT (1 1)", SQ), ("LINESTRING (0.5 1, 1.5 1)", SQ)];
        for (a, b) in pairs {
            assert!(within(&g(a), &g(b)).unwrap(), "{a} within {b}");
            assert!(covered_by(&g(a), &g(b)).unwrap(), "{a} coveredBy {b}");
            assert!(contains(&g(b), &g(a)).unwrap(), "{b} contains {a}");
        }
    }
}
