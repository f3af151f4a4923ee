//! The snapped shape corpus: grid-snapped rectangles, holed rectangles,
//! triangles, line walks and points, with pinned boundary-contact cases
//! on top. Integer coordinates make shared edges, coincident vertices,
//! corner contacts and exact equality common rather than measure-zero,
//! which is where refine fast paths and batch filters go wrong.
//!
//! The SQL tables add what only an engine can hold: `NULL` geometries,
//! an empty geometry, a lattice of points long enough to split over
//! morsels, and a mixed-dimension collection the DE-9IM machinery
//! rejects (the poison row).

use jackpine::datagen::rng::Rng;
use jackpine::engine::SpatialDb;
use jackpine::geom::{wkt, Geometry, Point};
use jackpine::sql::functions::Func;
use jackpine::storage::Value;
use jackpine::topo::{
    contains, covered_by, covers, crosses, disjoint, equals, intersects, overlaps, touches, within,
    PredicateKind,
};
use std::sync::Arc;

/// Hand-picked boundary-touching, hole and degenerate-contact cases:
/// the configurations where a short-circuit that is merely *plausible*
/// (rather than sound) would diverge from the naive answer. Index 5 is
/// the donut whose hole a corpus square fills.
pub const PINNED: [&str; 14] = [
    // Two squares sharing a full edge, and a corner-only pair.
    "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))",
    "POLYGON ((2 0, 4 0, 4 2, 2 2, 2 0))",
    "POLYGON ((4 2, 6 2, 6 4, 4 4, 4 2))",
    // Identical square (Equals must hold) and its expansion.
    "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))",
    "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
    // Donut whose hole exactly matches a corpus square: the square
    // touches the donut only along the hole ring — the case that refutes
    // "envelope overlap + vertex probe ⇒ interior overlap".
    "POLYGON ((-1 -1, 3 -1, 3 3, -1 3, -1 -1), (0 0, 2 0, 2 2, 0 2, 0 0))",
    // Square strictly inside that hole (disjoint despite nested
    // envelopes).
    "POLYGON ((0.5 0.5, 1.5 0.5, 1.5 1.5, 0.5 1.5, 0.5 0.5))",
    // Line along a square's edge, through its interior, ending exactly
    // on its boundary.
    "LINESTRING (0 0, 2 0)",
    "LINESTRING (-1 1, 3 1)",
    "LINESTRING (2 2, 5 5)",
    // Point on a boundary vertex, on an edge, in an interior.
    "POINT (0 0)",
    "POINT (1 0)",
    "POINT (1 1)",
    "MULTIPOINT ((0 0), (2 2), (9 9))",
];

/// The empty geometry: a NaN envelope, which intersects nothing.
pub const EMPTY: &str = "GEOMETRYCOLLECTION EMPTY";

/// A mixed-dimension collection: the DE-9IM refine rejects it, but only
/// for operands whose envelopes meet its `(0 0, 6 6)` box.
pub const POISON: &str = "GEOMETRYCOLLECTION (POINT (1 1), LINESTRING (0 0, 6 6))";

/// Side of the lattice of points: 4,900 rows put a filter over a scan
/// on five morsels at four workers.
pub const LATTICE: i64 = 70;

/// Uniform in `0..n`.
fn below(rng: &mut Rng, n: i64) -> i64 {
    rng.gen_range(0..n)
}

/// Axis-aligned rectangle with integer corners on a small grid.
pub fn rect(rng: &mut Rng) -> String {
    let (x, y) = (below(rng, 8), below(rng, 8));
    let (w, h) = (1 + below(rng, 4), 1 + below(rng, 4));
    let (x1, y1) = (x + w, y + h);
    format!("POLYGON (({x} {y}, {x1} {y}, {x1} {y1}, {x} {y1}, {x} {y}))")
}

/// Rectangle with a rectangular hole strictly inside it, large enough
/// that other shapes fall inside the hole, on its ring or in the
/// annulus.
pub fn donut(rng: &mut Rng) -> String {
    let (x, y) = (below(rng, 5), below(rng, 5));
    let (w, h) = (4 + below(rng, 4), 4 + below(rng, 4));
    let (hx, hy) = (x + 1, y + 1);
    let (hw, hh) = (1 + below(rng, w - 2), 1 + below(rng, h - 2));
    let (x1, y1, hx1, hy1) = (x + w, y + h, hx + hw, hy + hh);
    format!(
        "POLYGON (({x} {y}, {x1} {y}, {x1} {y1}, {x} {y1}, {x} {y}), \
         ({hx} {hy}, {hx1} {hy}, {hx1} {hy1}, {hx} {hy1}, {hx} {hy}))"
    )
}

/// Always-valid triangle: slanted edges exercise the chain intersection
/// kernels off the grid axes.
pub fn triangle(rng: &mut Rng) -> String {
    let (x, y) = (below(rng, 8), below(rng, 8));
    let (a, b) = (2 + below(rng, 3), 2 + below(rng, 3));
    let apex = x + below(rng, 3);
    format!("POLYGON (({x} {y}, {} {y}, {apex} {}, {x} {y}))", x + a, y + b)
}

/// Grid random walk of 2–5 segments: revisited grid points make
/// self-touching and collinear-overlap pairs likely.
pub fn walk(rng: &mut Rng) -> String {
    let (mut x, mut y) = (below(rng, 8), below(rng, 8));
    let mut pts = vec![format!("{x} {y}")];
    for _ in 0..2 + below(rng, 4) {
        let step = 1 + below(rng, 2);
        match below(rng, 4) {
            0 => x += step,
            1 => x -= step,
            2 => y += step,
            _ => y -= step,
        }
        pts.push(format!("{x} {y}"));
    }
    format!("LINESTRING ({})", pts.join(", "))
}

/// A grid point.
pub fn point(rng: &mut Rng) -> String {
    format!("POINT ({} {})", below(rng, 10), below(rng, 10))
}

/// The corpus: [`PINNED`], then 11 rounds of a rectangle, a triangle, a
/// walk and a point, then 4 donuts — 62 shapes.
pub fn corpus(rng: &mut Rng) -> Vec<String> {
    let mut all: Vec<String> = PINNED.iter().map(|w| w.to_string()).collect();
    for _ in 0..11 {
        all.extend([rect(rng), triangle(rng), walk(rng), point(rng)]);
    }
    all.extend((0..4).map(|_| donut(rng)));
    all
}

/// Parses corpus WKT.
pub fn parse(text: &str) -> Geometry {
    wkt::parse(text).unwrap_or_else(|e| panic!("corpus WKT {text:?}: {e}"))
}

/// The rows of the `shapes` table: the corpus, the empty geometry and
/// two `NULL`s, ids from 0 in that order.
pub fn shape_rows(rng: &mut Rng) -> Vec<Option<String>> {
    let mut rows: Vec<Option<String>> = corpus(rng).into_iter().map(Some).collect();
    rows.extend([Some(EMPTY.to_string()), None, None]);
    rows
}

/// Id of the first lattice point in the `field` table.
pub const LATTICE_BASE: usize = 1000;

/// The lattice's points, row-major.
pub fn lattice() -> impl Iterator<Item = Geometry> {
    (0..LATTICE * LATTICE)
        .map(|i| Geometry::Point(Point::new((i % LATTICE) as f64, (i / LATTICE) as f64).unwrap()))
}

/// Creates three tables of `(id BIGINT, tag TEXT, geom GEOMETRY)`, each
/// spatially indexed: `shapes` holds `rows` (id = position, tag `t<id>`
/// or `NULL` with the geometry), `field` the same rows and then the
/// lattice (ids from [`LATTICE_BASE`], tag `p`), and `poisoned` the same
/// rows and then the poison row (id 800, tag `mixed`).
pub fn create_tables(db: &Arc<SpatialDb>, rows: &[Option<String>]) {
    let row = |id: usize, tag: Option<String>, geom: Option<Geometry>| {
        let text = tag.map_or(Value::Null, Value::Text);
        vec![Value::Int(id as i64), text, geom.map_or(Value::Null, Value::Geom)]
    };
    let shapes: Vec<Vec<Value>> = rows
        .iter()
        .enumerate()
        .map(|(i, w)| row(i, w.as_ref().map(|_| format!("t{i}")), w.as_deref().map(parse)))
        .collect();
    let lattice =
        lattice().enumerate().map(|(i, g)| row(LATTICE_BASE + i, Some("p".into()), Some(g)));
    let poison = row(800, Some("mixed".into()), Some(parse(POISON)));
    let tables = [("shapes", vec![]), ("field", lattice.collect()), ("poisoned", vec![poison])];
    for (table, extra) in tables {
        db.execute(&format!("CREATE TABLE {table} (id BIGINT, tag TEXT, geom GEOMETRY)")).unwrap();
        db.insert_rows(table, shapes.iter().chain(&extra)).unwrap();
        db.create_spatial_index(table, "geom").unwrap();
    }
}

/// Every named predicate.
pub const ALL_KINDS: [PredicateKind; 10] = PredicateKind::ALL;

/// What each index-eligible function is called against: a window, the
/// empty geometry, a point, `NULL` and a number.
fn index_filter_constants() -> [String; 5] {
    [
        "ST_MakeEnvelope(0, 0, 5, 5)".into(),
        format!("ST_GeomFromText('{EMPTY}')"),
        "ST_GeomFromText('POINT (3 4)')".into(),
        "NULL".into(),
        "5".into(),
    ]
}

/// Every function the planner may serve with a spatial-index filter
/// step (`Func::is_index_filter`), taken from the function registry so
/// that a later index-eligible function is covered without a new line,
/// called on column `geom` against each constant in both argument
/// orders (`ST_DWithin` at a distance of 1.5 and of `NULL`).
pub fn index_filter_predicates() -> Vec<String> {
    let mut all = Vec::new();
    for f in Func::all().filter(|f| f.is_index_filter()) {
        // `ST_DWithin` takes a distance after its two geometries.
        let tails: &[&str] = if f == Func::DWithin { &[", 1.5", ", NULL"] } else { &[""] };
        let name = f.name();
        for c in index_filter_constants() {
            for tail in tails {
                all.push(format!("{name}(geom, {c}{tail})"));
                all.push(format!("{name}({c}, geom{tail})"));
            }
        }
    }
    all
}

/// What the SQL layer computes without a fast path: the envelope test
/// (`envelopes meet && pred`, its negation for disjoint) around the
/// naive predicate.
pub fn naive(kind: PredicateKind, a: &Geometry, b: &Geometry) -> jackpine::topo::Result<bool> {
    if !a.envelope().intersects(&b.envelope()) {
        return Ok(kind == PredicateKind::Disjoint);
    }
    let f = match kind {
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
    f(a, b)
}
