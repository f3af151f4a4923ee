//! Prepared geometries: reusable acceleration structures for repeated
//! DE-9IM evaluation against one geometry.
//!
//! A [`PreparedGeometry`] decomposes its geometry into a dimension
//! family once (like [`crate::relate()`] does per call) and builds the
//! `jackpine_geom::prepared` indexes — monotone-chain envelope trees
//! for every curve and y-slab edge bins for every ring — so that the
//! spatial join's refine stage pays the preparation cost once per
//! *geometry*, not once per *candidate pair*.
//!
//! ## Bit-identity with the naive path
//!
//! The relate kernels in `relate::{line_rel, poly_rel, point_rel}` are
//! generic over the `CurveIndex` / `AreaOps` traits; this module only
//! supplies indexed implementations of those traits. The indexes are
//! pure candidate filters: they yield a superset of the
//! envelope-intersecting segments, and every surviving pair still goes
//! through the same exact predicates (`orient2d`-based segment tests,
//! ray-cast location), so [`relate_prepared`] returns matrices
//! **bit-identical** to [`crate::relate()`]. `tests/prepared_equivalence.rs`
//! asserts exactly that over the snapped corpus of `tests/common/shapes.rs`.
//!
//! [`evaluate`] adds sound short-circuits on top (envelope rejects and
//! shared-point accepts) that decide a named predicate without
//! computing the full matrix; each is justified where it is applied.

use std::sync::OnceLock;

use crate::matrix::IntersectionMatrix;
use crate::predicates::{eval_matrix, PredicateKind};
use crate::relate::line_rel::{lines_areas_ix, lines_lines_ix};
use crate::relate::point_rel::{points_areas_ix, points_lines, points_points};
use crate::relate::poly_rel::areas_areas_ix;
use crate::relate::shape::{
    decompose, interior_point, split_line_by_areas_with, AreaOps, CurveIndex, LineSet, Shape,
};
use crate::relate::{empty_vs_family, FamilyKind};
use crate::Result;
use jackpine_geom::algorithms::line_split::LinePortion;
use jackpine_geom::algorithms::locate::Location;
use jackpine_geom::prepared::{ChainSet, PreparedPolygon};
use jackpine_geom::{Coord, Dimension, Envelope, Geometry, LineString, Polygon};

/// A curve set with a monotone-chain envelope tree per member curve.
struct PreparedLineSet {
    set: LineSet,
    chains: Vec<ChainSet>,
}

impl PreparedLineSet {
    fn new(set: LineSet) -> PreparedLineSet {
        let chains = set.lines.iter().map(ChainSet::from_linestring).collect();
        PreparedLineSet { set, chains }
    }
}

impl CurveIndex for PreparedLineSet {
    fn line_set(&self) -> &LineSet {
        &self.set
    }
    fn candidates(&self, qenv: &Envelope, f: &mut dyn FnMut(Coord, Coord)) {
        for c in &self.chains {
            c.for_candidate_edges(qenv, f);
        }
    }
}

/// A polygon set with prepared rings and lazily cached interior probes.
struct PreparedAreaSet {
    polys: Vec<PreparedPolygon>,
    probes: Vec<OnceLock<Coord>>,
}

impl PreparedAreaSet {
    fn new(areas: &[Polygon]) -> PreparedAreaSet {
        let polys: Vec<PreparedPolygon> = areas.iter().map(PreparedPolygon::new).collect();
        let probes = (0..polys.len()).map(|_| OnceLock::new()).collect();
        PreparedAreaSet { polys, probes }
    }
}

impl AreaOps for PreparedAreaSet {
    fn len(&self) -> usize {
        self.polys.len()
    }
    fn polygon(&self, i: usize) -> &Polygon {
        self.polys[i].polygon()
    }
    fn split(&self, line: &LineString) -> Vec<LinePortion> {
        split_line_by_areas_with(line, self.polys.len(), &mut |i, piece| {
            self.polys[i].split_line(piece)
        })
    }
    fn locate(&self, c: Coord) -> Location {
        // Mirrors `locate_in_areas` over the prepared per-polygon locators.
        let mut on_boundary = false;
        for p in &self.polys {
            match p.locate(c) {
                Location::Interior => return Location::Interior,
                Location::Boundary => on_boundary = true,
                Location::Exterior => {}
            }
        }
        if on_boundary {
            Location::Boundary
        } else {
            Location::Exterior
        }
    }
    fn probe(&self, i: usize) -> Coord {
        // `interior_point` is deterministic, so caching its value cannot
        // change any downstream decision.
        *self.probes[i].get_or_init(|| interior_point(self.polys[i].polygon()))
    }
}

/// The indexed counterpart of `relate::shape::Shape`.
enum PreparedShape {
    Empty,
    Points(Vec<Coord>),
    Lines(PreparedLineSet),
    Areas(PreparedAreaSet),
    /// Decomposition failed (mixed-dimension collection); kept so the
    /// prepared entry points can reproduce the naive error lazily.
    Unsupported,
}

impl PreparedShape {
    fn family(&self) -> FamilyKind {
        match self {
            PreparedShape::Empty => FamilyKind::Empty,
            PreparedShape::Points(_) => FamilyKind::Points,
            PreparedShape::Lines(l) => {
                FamilyKind::Lines { has_boundary: !l.set.boundary.is_empty() }
            }
            PreparedShape::Areas(_) => FamilyKind::Areas,
            PreparedShape::Unsupported => unreachable!("unsupported shapes never reach dispatch"),
        }
    }
}

/// A geometry plus the acceleration structures for repeated relate and
/// predicate evaluation against it.
///
/// Construction never fails: geometries the relate machinery does not
/// support (mixed-dimension collections) are remembered as such, and
/// every entry point falls back to the naive path for them so errors
/// are identical to [`crate::relate()`]'s.
pub struct PreparedGeometry {
    geom: Geometry,
    env: Envelope,
    dim: Dimension,
    shape: PreparedShape,
}

impl PreparedGeometry {
    /// Prepares `g`: decomposes it into its dimension family and builds
    /// chain trees (curves) or prepared rings (polygons).
    pub fn new(g: &Geometry) -> PreparedGeometry {
        let shape = match decompose(g) {
            Ok(Shape::Empty) => PreparedShape::Empty,
            Ok(Shape::Points(p)) => PreparedShape::Points(p),
            Ok(Shape::Lines(l)) => PreparedShape::Lines(PreparedLineSet::new(l)),
            Ok(Shape::Areas(a)) => PreparedShape::Areas(PreparedAreaSet::new(&a)),
            Err(_) => PreparedShape::Unsupported,
        };
        PreparedGeometry { geom: g.clone(), env: g.envelope(), dim: g.dimension(), shape }
    }

    /// The geometry this preparation was built from.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The geometry's envelope (cached at preparation time).
    pub fn envelope(&self) -> &Envelope {
        &self.env
    }

    fn supported(&self) -> bool {
        !matches!(self.shape, PreparedShape::Unsupported)
    }
}

/// Computes the DE-9IM matrix of two prepared geometries.
///
/// Returns exactly what `relate(a.geometry(), b.geometry())` returns —
/// same matrix, same errors — but runs the kernels over the prepared
/// indexes.
pub fn relate_prepared(a: &PreparedGeometry, b: &PreparedGeometry) -> Result<IntersectionMatrix> {
    if !a.supported() || !b.supported() {
        // Reproduce the naive error (or result, if only one side failed
        // decomposition the naive call fails the same way).
        return crate::relate::relate(&a.geom, &b.geom);
    }
    use PreparedShape as P;
    Ok(match (&a.shape, &b.shape) {
        (P::Empty, _) => empty_vs_family(b.shape.family()),
        (_, P::Empty) => empty_vs_family(a.shape.family()).transposed(),
        (P::Points(pa), P::Points(pb)) => points_points(pa, pb),
        (P::Points(p), P::Lines(l)) => points_lines(p, &l.set),
        (P::Lines(l), P::Points(p)) => points_lines(p, &l.set).transposed(),
        (P::Points(p), P::Areas(ar)) => points_areas_ix(p, ar),
        (P::Areas(ar), P::Points(p)) => points_areas_ix(p, ar).transposed(),
        (P::Lines(la), P::Lines(lb)) => lines_lines_ix(la, lb),
        (P::Lines(l), P::Areas(ar)) => lines_areas_ix(l, ar),
        (P::Areas(ar), P::Lines(l)) => lines_areas_ix(l, ar).transposed(),
        (P::Areas(aa), P::Areas(ab)) => areas_areas_ix(aa, ab),
        (P::Unsupported, _) | (_, P::Unsupported) => unreachable!(),
    })
}

/// The result of [`evaluate`]: the predicate's value plus whether a
/// short-circuit decided it without computing the full matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredicateOutcome {
    /// The predicate's truth value.
    pub value: bool,
    /// `true` when an envelope reject or shared-point accept decided the
    /// predicate before the DE-9IM matrix was computed.
    pub short_circuit: bool,
}

/// Evaluates a named predicate over prepared operands.
///
/// Produces the same value (and the same errors) as the naive
/// [`holds`](crate::holds): both apply the envelope rule
/// ([`PredicateKind::on_disjoint_envelopes`]) first, and every further
/// short-circuit is a sound decision of the predicate itself.
pub fn evaluate(
    kind: PredicateKind,
    a: &PreparedGeometry,
    b: &PreparedGeometry,
) -> Result<PredicateOutcome> {
    let sc = |value| Ok(PredicateOutcome { value, short_circuit: true });

    if let Some(value) = kind.on_disjoint_envelopes(&a.env, &b.env) {
        return sc(value);
    }

    // Further short-circuits need decomposed shapes; gate them on both
    // sides being supported so unsupported operands fall through to the
    // full path and fail with the naive error.
    if a.supported() && b.supported() {
        match kind {
            // Equal point sets have equal envelopes.
            PredicateKind::Equals if a.env != b.env => return sc(false),
            // a ⊆ b (within / covered-by) forces env(a) ⊆ env(b).
            PredicateKind::Within | PredicateKind::CoveredBy
                if !b.env.contains_envelope(&a.env) =>
            {
                return sc(false)
            }
            PredicateKind::Contains | PredicateKind::Covers if !a.env.contains_envelope(&b.env) => {
                return sc(false)
            }
            // A single shared point decides intersects/disjoint; only a
            // *found* point is conclusive (absence proves nothing).
            PredicateKind::Intersects | PredicateKind::Disjoint if quick_shared_point(a, b) => {
                return sc(kind == PredicateKind::Intersects)
            }
            _ => {}
        }
    }

    let m = relate_prepared(a, b)?;
    Ok(PredicateOutcome { value: eval_matrix(kind, &m, a.dim, b.dim)?, short_circuit: false })
}

/// Cheap sound test for a point common to both operands: locates a few
/// vertices of one side's members against the other side's prepared
/// areas. `true` is conclusive (the point is in both); `false` means
/// "unknown".
fn quick_shared_point(a: &PreparedGeometry, b: &PreparedGeometry) -> bool {
    use PreparedShape as P;
    match (&a.shape, &b.shape) {
        (P::Areas(sa), P::Areas(sb)) => areas_vertex_hit(sa, sb) || areas_vertex_hit(sb, sa),
        (P::Lines(sl), P::Areas(sa)) | (P::Areas(sa), P::Lines(sl)) => sl
            .set
            .lines
            .iter()
            .filter_map(|l| l.start())
            .any(|c| sa.locate(c) != Location::Exterior),
        _ => false,
    }
}

/// `true` when some exterior-ring vertex of a member of `sub` lies in or
/// on `sup`. A vertex is a point of its polygon (boundary ⊆ polygon), so
/// a non-exterior location is a shared point.
fn areas_vertex_hit(sub: &PreparedAreaSet, sup: &PreparedAreaSet) -> bool {
    sub.polys
        .iter()
        .map(|p| p.polygon().exterior().coords()[0])
        .any(|c| sup.locate(c) != Location::Exterior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relate::relate;
    use jackpine_geom::wkt;

    fn g(w: &str) -> Geometry {
        wkt::parse(w).unwrap()
    }

    const CASES: &[&str] = &[
        "POINT (1 1)",
        "POINT (5 5)",
        "MULTIPOINT ((0 0), (2 2), (9 9))",
        "LINESTRING (0 0, 2 2, 4 0)",
        "LINESTRING (-1 1, 5 1)",
        "LINESTRING (0 0, 2 0)",
        "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))",
        "POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))",
        "POLYGON ((5 5, 6 5, 6 6, 5 6, 5 5))",
        "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 8 2, 8 8, 2 8, 2 2))",
        "POLYGON ((3 3, 7 3, 7 7, 3 7, 3 3))",
        "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))",
        "GEOMETRYCOLLECTION EMPTY",
    ];

    #[test]
    fn relate_prepared_matches_naive_over_case_grid() {
        for wa in CASES {
            let ga = g(wa);
            let pa = PreparedGeometry::new(&ga);
            for wb in CASES {
                let gb = g(wb);
                let pb = PreparedGeometry::new(&gb);
                let naive = relate(&ga, &gb).unwrap().to_string();
                let prep = relate_prepared(&pa, &pb).unwrap().to_string();
                assert_eq!(naive, prep, "{wa} vs {wb}");
            }
        }
    }

    #[test]
    fn evaluate_matches_naive_predicates_behind_env_gate() {
        use crate::predicates;
        type Naive = fn(&Geometry, &Geometry) -> Result<bool>;
        let kinds = [
            (PredicateKind::Equals, predicates::equals as Naive),
            (PredicateKind::Disjoint, predicates::disjoint),
            (PredicateKind::Intersects, predicates::intersects),
            (PredicateKind::Touches, predicates::touches),
            (PredicateKind::Crosses, predicates::crosses),
            (PredicateKind::Within, predicates::within),
            (PredicateKind::Contains, predicates::contains),
            (PredicateKind::Overlaps, predicates::overlaps),
            (PredicateKind::Covers, predicates::covers),
            (PredicateKind::CoveredBy, predicates::covered_by),
        ];
        for wa in CASES {
            let ga = g(wa);
            let pa = PreparedGeometry::new(&ga);
            for wb in CASES {
                let gb = g(wb);
                let pb = PreparedGeometry::new(&gb);
                let envs_intersect = ga.envelope().intersects(&gb.envelope());
                for (kind, naive) in kinds {
                    // The SQL layer's naive expression.
                    let expect = if kind == PredicateKind::Disjoint {
                        !envs_intersect || naive(&ga, &gb).unwrap()
                    } else {
                        envs_intersect && naive(&ga, &gb).unwrap()
                    };
                    let got = evaluate(kind, &pa, &pb).unwrap();
                    assert_eq!(expect, got.value, "{kind:?}: {wa} vs {wb}");
                }
            }
        }
    }

    #[test]
    fn unsupported_operand_reproduces_naive_error() {
        let mixed = g("GEOMETRYCOLLECTION (POINT (0 0), LINESTRING (0 0, 1 1))");
        let poly = g("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))");
        let pm = PreparedGeometry::new(&mixed);
        let pp = PreparedGeometry::new(&poly);
        assert!(relate(&mixed, &poly).is_err());
        assert!(relate_prepared(&pm, &pp).is_err());
        // Overlapping envelopes: the full path must fail like the naive one.
        assert!(evaluate(PredicateKind::Intersects, &pm, &pp).is_err());
        // Disjoint envelopes: both paths short-circuit without error.
        let far = PreparedGeometry::new(&g("POINT (100 100)"));
        let out = evaluate(PredicateKind::Intersects, &pm, &far).unwrap();
        assert!(!out.value);
        assert!(out.short_circuit);
    }

    #[test]
    fn short_circuits_fire_where_expected() {
        let a = PreparedGeometry::new(&g("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"));
        let b = PreparedGeometry::new(&g("POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))"));
        let far = PreparedGeometry::new(&g("POLYGON ((9 9, 10 9, 10 10, 9 10, 9 9))"));
        // Envelope reject.
        let out = evaluate(PredicateKind::Intersects, &a, &far).unwrap();
        assert!(!out.value && out.short_circuit);
        let out = evaluate(PredicateKind::Disjoint, &a, &far).unwrap();
        assert!(out.value && out.short_circuit);
        // Containment envelope reject: b's env is not inside a's.
        let out = evaluate(PredicateKind::Contains, &a, &b).unwrap();
        assert!(!out.value && out.short_circuit);
        // Shared-vertex accept: b's corner (1,1) is interior to a.
        let out = evaluate(PredicateKind::Intersects, &a, &b).unwrap();
        assert!(out.value && out.short_circuit);
        // Touches has no short-circuit here: full matrix.
        let out = evaluate(PredicateKind::Touches, &a, &b).unwrap();
        assert!(!out.value && !out.short_circuit);
    }
}
