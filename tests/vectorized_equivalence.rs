//! Vectorized-vs-generic equivalence: the batch filter (columnar MBR
//! prefilter + selection-vector refine over prepared geometries) must be
//! **bit-identical** to evaluating the predicate row by row through the
//! generic expression evaluator and naive `relate` — same rows in the
//! same order, same errors, same NULL semantics, same DE-9IM outcomes —
//! at every worker count, across batch and morsel boundaries.
//!
//! The reference is reached through SQL alone: spelling a predicate
//! `pred(a, b) = 1` makes it a comparison, not a recognised spatial
//! shape, so it plans as a `Filter` over the generic evaluator (no
//! prefilter, no prepared-geometry lookups — the counter test pins
//! that). The same spelling also hides the predicate from the planner's
//! index rules, so comparisons hold the plan shape equal by switching
//! the spatial index off, or use inputs the index cannot reorder or
//! thin out (no NULL geometries, order-insensitive aggregates).
//!
//! The corpus mixes grid-snapped polygons/lines/points (shared edges and
//! corner contacts are common, not measure-zero), NULL geometries,
//! empty geometries (NaN-envelope encoding), and — for the error-path
//! checks — mixed-dimension geometry collections that the DE-9IM
//! machinery rejects, so refine-stage errors must surface identically
//! and at the same first row on both paths.

use jackpine::bench::load_dataset;
use jackpine::bench::micro::{analysis_suite, topo_suite};
use jackpine::datagen::{TigerConfig, TigerDataset};
use jackpine::engine::{EngineProfile, SpatialDb};
use jackpine::sql::functions::TOPO_PREDICATES;
use jackpine::sql::ResultSet;
use std::sync::Arc;

/// Deterministic 64-bit LCG (same constants as the in-tree PRNG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

/// Grid-snapped WKT corpus: rectangles, triangles, line walks, points,
/// plus pinned boundary-contact cases, one empty geometry and NULLs
/// (added by the loader). Integer coordinates make touches/equality
/// common. 73 shapes: a self-join's 5 329 pairs span five whole
/// 1 024-row batches plus a ragged tail, enough for parallel dispatch.
fn corpus_wkts(seed: u64) -> Vec<String> {
    let mut rng = Lcg(seed);
    let mut all: Vec<String> = vec![
        // Shared full edge, corner-only contact, identical squares.
        "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))".into(),
        "POLYGON ((2 0, 4 0, 4 2, 2 2, 2 0))".into(),
        "POLYGON ((4 2, 6 2, 6 4, 4 4, 4 2))".into(),
        "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))".into(),
        // Donut with a square exactly filling the hole ring.
        "POLYGON ((-1 -1, 3 -1, 3 3, -1 3, -1 -1), (0 0, 2 0, 2 2, 0 2, 0 0))".into(),
        "POLYGON ((0.5 0.5, 1.5 0.5, 1.5 1.5, 0.5 1.5, 0.5 0.5))".into(),
        // Lines on an edge, through an interior, ending on a boundary.
        "LINESTRING (0 0, 2 0)".into(),
        "LINESTRING (-1 1, 3 1)".into(),
        "LINESTRING (2 2, 5 5)".into(),
        // Boundary vertex, edge point, interior point.
        "POINT (0 0)".into(),
        "POINT (1 0)".into(),
        "POINT (1 1)".into(),
        // Empty geometry: NaN-quad envelope, intersects nothing.
        "GEOMETRYCOLLECTION EMPTY".into(),
    ];
    for _ in 0..20 {
        let (x, y) = (rng.below(8), rng.below(8));
        let (w, h) = (1 + rng.below(4), 1 + rng.below(4));
        all.push(format!(
            "POLYGON (({x} {y}, {} {y}, {} {}, {x} {}, {x} {y}))",
            x + w,
            x + w,
            y + h,
            y + h
        ));
        let (px, py) = (rng.below(10), rng.below(10));
        all.push(format!("POINT ({px} {py})"));
        let (mut lx, mut ly) = (rng.below(8), rng.below(8));
        let mut pts = vec![format!("{lx} {ly}")];
        for _ in 0..2 + rng.below(3) {
            match rng.below(4) {
                0 => lx += 1 + rng.below(2),
                1 => lx -= 1 + rng.below(2),
                2 => ly += 1 + rng.below(2),
                _ => ly -= 1 + rng.below(2),
            }
            pts.push(format!("{lx} {ly}"));
        }
        all.push(format!("LINESTRING ({})", pts.join(", ")));
    }
    all
}

/// A table of the corpus with a non-geometry column, spatially
/// indexed, plus two NULL-geometry rows when `with_nulls`. A NULL
/// operand makes every predicate raise a type error — identically on
/// both paths — so only the error-path test asks for them.
fn corpus_db(seed: u64, with_nulls: bool) -> Arc<SpatialDb> {
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE shapes (id BIGINT, tag TEXT, geom GEOMETRY)").unwrap();
    for (i, w) in corpus_wkts(seed).iter().enumerate() {
        db.execute(&format!("INSERT INTO shapes VALUES ({i}, 't{i}', ST_GeomFromText('{w}'))"))
            .unwrap();
    }
    if with_nulls {
        db.execute("INSERT INTO shapes VALUES (900, 'null-geom', NULL)").unwrap();
        db.execute("INSERT INTO shapes VALUES (901, NULL, NULL)").unwrap();
    }
    db.create_spatial_index("shapes", "geom").unwrap();
    db
}

/// Worker counts the vectorized path is swept over.
const WORKERS: [usize; 2] = [1, 4];

/// `sql` with every named-predicate call respelled `pred(..) = 1`, which
/// the executor evaluates generically (see the module docs).
fn generic_spelling(sql: &str) -> String {
    // ASCII upper-casing keeps byte offsets, so a match indexes `sql` too.
    let upper = sql.to_ascii_uppercase();
    let (mut out, mut done) = (String::new(), 0);
    while let Some((at, name)) = TOPO_PREDICATES
        .iter()
        .filter_map(|p| Some((done + upper[done..].find(&format!("{p}("))?, p)))
        .min()
    {
        // WKT literals are paren-balanced, so counting depth finds the
        // end of the call.
        let open = at + name.len();
        let mut depth = 0;
        let call_len = sql[open..].find(|c| {
            depth += i32::from(c == '(') - i32::from(c == ')');
            depth == 0
        });
        let close = open + call_len.expect("balanced call");
        out = out + &sql[done..=close] + " = 1";
        done = close + 1;
    }
    out + &sql[done..]
}

/// Runs the generic spelling of `sql` serially as the reference —
/// checking that it kept clear of the batch filter — then asserts `sql`
/// itself reproduces it exactly: the same `ResultSet` (content **and**
/// order) or the same error message, at every worker count.
fn assert_equivalent(db: &Arc<SpatialDb>, label: &str, sql: &str) {
    db.set_workers(1);
    let before = db.metrics_snapshot();
    let reference = db.execute(&generic_spelling(sql)).map_err(|e| e.to_string());
    let batches = db.metrics_snapshot().delta_since(&before).counter("batches_dispatched");
    assert_eq!(batches, 0, "{label}: the reference ran the batch filter");
    for workers in WORKERS {
        db.set_workers(workers);
        let vectorized = db.execute(sql).map_err(|e| e.to_string());
        assert_eq!(reference, vectorized, "{label}: generic vs vectorized (workers={workers})");
    }
    db.set_workers(1);
}

/// Every named predicate over every ordered corpus pair — self-join,
/// column-column operands (the pairwise kernel). Both spellings plan as
/// a nested loop with the index off, and the pair list is long enough
/// that workers = 4 splits it into one-batch morsels while workers = 1
/// walks the same batches, tail included, in one chunk.
#[test]
fn self_joins_identical_across_paths() {
    let db = corpus_db(0x9e3779b97f4a7c15, false);
    db.set_use_spatial_index(false);
    let pairs = corpus_wkts(0).len().pow(2);
    assert!(
        pairs > 4 * 1024 && !pairs.is_multiple_of(1024),
        "{pairs} pairs must dispatch, raggedly"
    );
    for pred in TOPO_PREDICATES {
        let sql = format!("SELECT a.id, b.id FROM shapes a, shapes b WHERE {pred}(a.geom, b.geom)");
        assert_equivalent(&db, pred, &sql);
    }
}

/// Constant-probe filters (the column-vs-constant kernel, MBR quads
/// gathered from the heap's quad cache) over a full scan and through the
/// spatial index scan, including a probe that overlaps nothing. The
/// index hands over its candidates in tree order where the generic
/// spelling scans in heap order, so with the index on the rows are
/// compared sorted by their unique id.
///
/// Quads gathered for a filter directly over a scan are addressed by
/// global row offset, so a 70 × 70 lattice of points joins the corpus:
/// 4 973 rows put workers = 4 on five morsels of that column.
#[test]
fn constant_filters_identical_across_paths() {
    let db = corpus_db(0xdecafbad, false);
    let lattice: Vec<String> = (0..4900)
        .map(|i| format!("({}, 'p', ST_GeomFromText('POINT ({} {})'))", 1000 + i, i % 70, i / 70))
        .collect();
    db.execute(&format!("INSERT INTO shapes VALUES {}", lattice.join(", "))).unwrap();
    let probes = [
        "POLYGON ((0 0, 3 0, 3 3, 0 3, 0 0))",
        "POLYGON ((100 100, 101 100, 101 101, 100 101, 100 100))",
        "POINT (1 1)",
        // Lattice points of the third and fourth morsel only.
        "POLYGON ((10 30, 20 30, 20 40, 10 40, 10 30))",
    ];
    for index in [false, true] {
        db.set_use_spatial_index(index);
        let order = if index { " ORDER BY id" } else { "" };
        for probe in probes {
            for pred in ["ST_Intersects", "ST_Disjoint", "ST_Within", "ST_Contains"] {
                let sql = format!(
                    "SELECT id, tag FROM shapes WHERE {pred}(geom, \
                     ST_GeomFromText('{probe}')){order}"
                );
                assert_equivalent(&db, &format!("{pred}/{probe} index={index}"), &sql);
            }
        }
    }
}

/// Mixed-dimension geometry collections make the DE-9IM refine error
/// out — but only for pairs whose envelopes intersect, so the prefilter
/// must not change *which* row errors first — and a NULL operand is a
/// type error wherever it is evaluated. Both paths must return the same
/// error text, whichever of the two comes first in row order.
#[test]
fn refine_errors_surface_identically() {
    for with_nulls in [false, true] {
        let db = corpus_db(0xfeedface, with_nulls);
        // Envelope overlaps the whole grid corpus, so refine is reached.
        db.execute(
            "INSERT INTO shapes VALUES (800, 'mixed', ST_GeomFromText('GEOMETRYCOLLECTION (\
             POINT (1 1), LINESTRING (0 0, 6 6))'))",
        )
        .unwrap();
        db.set_use_spatial_index(false);
        for pred in ["ST_Intersects", "ST_Touches", "ST_Equals"] {
            let sql = format!("SELECT a.id FROM shapes a, shapes b WHERE {pred}(a.geom, b.geom)");
            assert!(db.execute(&sql).is_err(), "{pred}: the poison row must be refined");
            assert_equivalent(&db, &format!("{pred} nulls={with_nulls}"), &sql);
        }
        if with_nulls {
            continue;
        }
        // A disjoint constant probe never refines against the mixed
        // collection: both paths must succeed despite the poison row,
        // scanning every row or only the index's candidates.
        let ok = "SELECT COUNT(*) FROM shapes WHERE ST_Intersects(geom, \
                  ST_GeomFromText('POLYGON ((50 50, 51 50, 51 51, 50 51, 50 50))'))";
        for index in [false, true] {
            db.set_use_spatial_index(index);
            assert!(db.execute(ok).is_ok(), "an env-disjoint poison row must be skipped");
            assert_equivalent(&db, &format!("poison skip index={index}"), ok);
        }
    }
}

/// The full micro suites on generated TIGER data: realistic queries
/// (scans, joins, aggregates, analysis functions) must agree between
/// the two evaluators at every worker count.
#[test]
fn micro_suites_identical_across_paths() {
    let data = TigerDataset::generate(&TigerConfig { scale: 0.02, ..TigerConfig::default() });
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    load_dataset(&db, &data).expect("dataset loads");
    // The same plan shape on both sides: every query, bit for bit.
    db.set_use_spatial_index(false);
    for q in topo_suite(&data).iter().chain(analysis_suite(&data).iter()) {
        assert_equivalent(&db, q.id, &q.sql);
    }
    // Index-fed filter inputs, the position the benchmark runs. The two
    // spellings now join in different pair orders, which a float SUM
    // over the pairs can see; the topological suite only counts.
    db.set_use_spatial_index(true);
    for q in topo_suite(&data) {
        assert_equivalent(&db, q.id, &q.sql);
    }
}

/// Deterministic counters are a function of the statement sequence
/// alone: both worker counts must report identical values over filter
/// inputs that workers = 4 dispatches in parallel. The refine counters
/// the generic evaluator shares (`refine_candidates`, `refine_hits`)
/// must match it exactly, and the vectorized-only counters satisfy
/// `prefilter_rejects + selvec_survivors == refine_candidates` on this
/// all-spatial workload.
#[test]
fn deterministic_counters_stable_across_batch_shapes() {
    let suite: Vec<String> = TOPO_PREDICATES
        .iter()
        .map(|p| format!("SELECT COUNT(*) FROM shapes a, shapes b WHERE {p}(a.geom, b.geom)"))
        .collect();
    let run = |generic: bool, workers: usize| {
        let db = corpus_db(0x5eed, false);
        db.set_use_spatial_index(false);
        db.set_workers(workers);
        let before = db.metrics_snapshot();
        let rows: Vec<ResultSet> = suite
            .iter()
            .map(|sql| if generic { generic_spelling(sql) } else { sql.clone() })
            .map(|sql| db.execute(&sql).unwrap())
            .collect();
        (rows, db.metrics_snapshot().delta_since(&before))
    };

    let (ref_rows, generic) = run(true, 1);
    let (vec_rows, reference) = run(false, 1);
    assert_eq!(ref_rows, vec_rows, "generic and vectorized paths disagree on results");

    for batch_only in ["prefilter_rejects", "prepared_cache_hits", "prepared_cache_misses"] {
        assert_eq!(generic.counter(batch_only), 0, "the reference must not count {batch_only}");
    }
    for shared in ["refine_candidates", "refine_hits"] {
        assert_eq!(
            generic.counter(shared),
            reference.counter(shared),
            "{shared} differs between generic and vectorized paths"
        );
    }
    assert_eq!(
        reference.counter("prefilter_rejects") + reference.counter("selvec_survivors"),
        reference.counter("refine_candidates"),
        "every vectorized candidate is either MBR-decided or refined"
    );
    assert!(reference.counter("prefilter_rejects") > 0, "corpus must exercise the prefilter");
    assert!(
        reference.counter("prepared_cache_hits") > 0,
        "a join must reuse its inner preparations within a batch"
    );

    let (rows, parallel) = run(false, 4);
    assert_eq!(ref_rows, rows, "results differ at workers=4");
    assert!(parallel.counter("morsels_dispatched") > 0, "workers=4 must dispatch morsels");
    assert_eq!(
        reference.deterministic_counters(),
        parallel.deterministic_counters(),
        "deterministic counters differ at workers=4"
    );
}
