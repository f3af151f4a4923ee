//! Randomized tests: the spatial indexes must agree with brute force
//! under arbitrary data and query mixes (deterministic seeded PRNG).

mod common;

use common::{cases, test_rng};
use jackpine::datagen::rng::Rng;
use jackpine::engine::{EngineProfile, SpatialDb};
use jackpine::geom::{wkt, Coord, Envelope, Geometry, LineString, Polygon, Ring};
use jackpine::index::{BoxKey, GridIndex, OrderedIndex, RTree, RTreeConfig};
use std::sync::Arc;

/// An arbitrary envelope in a bounded range.
fn env(rng: &mut Rng) -> Envelope {
    let x = rng.gen_range(-100.0..100.0f64);
    let y = rng.gen_range(-100.0..100.0f64);
    let w = rng.gen_range(0.0..20.0f64);
    let h = rng.gen_range(0.0..20.0f64);
    Envelope::new(x, y, x + w, y + h)
}

fn env_items(rng: &mut Rng, max: usize) -> Vec<(Envelope, usize)> {
    let n = rng.gen_range(1..max);
    (0..n).map(|i| (env(rng), i)).collect()
}

fn brute_window(items: &[(Envelope, usize)], w: &Envelope) -> Vec<usize> {
    let mut v: Vec<usize> =
        items.iter().filter(|(e, _)| w.intersects(e)).map(|(_, i)| *i).collect();
    v.sort_unstable();
    v
}

/// The R-tree's own keys of `items`, as envelopes.
fn keyed(items: &[(Envelope, usize)]) -> Vec<(Envelope, usize)> {
    items.iter().map(|(e, i)| (BoxKey::outward(e).envelope(), *i)).collect()
}

/// An R-tree's window answer is brute force over its keys, and holds
/// brute force over the exact envelopes.
fn assert_rtree_window(t: &RTree<usize>, items: &[(Envelope, usize)], w: &Envelope) {
    let mut got = t.window(w);
    got.sort_unstable();
    assert_eq!(got, brute_window(&keyed(items), w));
    assert!(brute_window(items, w).iter().all(|i| got.binary_search(i).is_ok()));
}

#[test]
fn rtree_window_matches_brute_force() {
    let mut rng = test_rng("rtree_window_matches_brute_force");
    for _ in 0..cases(32) {
        let items = env_items(&mut rng, 300);
        let window = env(&mut rng);
        // Incremental insert path.
        let mut t: RTree<usize> = RTree::default();
        for (e, v) in &items {
            t.insert(*e, *v);
        }
        assert_rtree_window(&t, &items, &window);
        // Bulk-load path must agree too.
        let bulk = RTree::bulk_load(RTreeConfig::default(), items.clone());
        assert_rtree_window(&bulk, &items, &window);
    }
}

/// A bound from the awkward corners of `f64`: signed zeros, subnormals,
/// magnitudes beyond `f32`, infinities, NaN, or an ordinary value.
fn awkward_bound(rng: &mut Rng) -> f64 {
    let tiny = f64::from_bits(rng.gen_range(1..1u64 << 52));
    match rng.gen_range(0..9usize) {
        0 => 0.0,
        1 => -0.0,
        2 => tiny,
        3 => -tiny,
        4 => 1e300,
        5 => -1e300,
        6 => f64::NAN,
        7 => [f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..2usize)],
        _ => rng.gen_range(-1e6..1e6f64),
    }
}

/// An envelope whose bounds are `awkward_bound`s, unnormalized (so
/// NaN stays where it is), or `EMPTY`.
fn awkward_envelope(rng: &mut Rng) -> Envelope {
    if rng.gen_range(0..10usize) == 0 {
        return Envelope::EMPTY;
    }
    let [a, b, c, d] = [(); 4].map(|_| awkward_bound(rng));
    let (min_x, max_x) = if a <= c { (a, c) } else { (c, a) };
    let (min_y, max_y) = if b <= d { (b, d) } else { (d, b) };
    Envelope { min_x, min_y, max_x, max_y }
}

#[test]
fn every_key_contains_its_envelope() {
    let mut rng = test_rng("every_key_contains_its_envelope");
    for _ in 0..cases(4096) {
        let e = awkward_envelope(&mut rng);
        let k = BoxKey::outward(&e).envelope();
        let exact = [e.min_x, e.min_y, e.max_x, e.max_y];
        let key = [k.min_x, k.min_y, k.max_x, k.max_y];
        for (i, (x, kx)) in exact.into_iter().zip(key).enumerate() {
            if x.is_nan() {
                assert!(kx.is_nan(), "{e:?} keyed as {k:?}");
            } else if i < 2 {
                assert!(kx <= x, "{e:?} keyed as {k:?}");
            } else {
                assert!(kx >= x, "{e:?} keyed as {k:?}");
            }
        }
        assert!(e.is_empty() == k.is_empty(), "{e:?} keyed as {k:?}");
        if !exact.iter().any(|x| x.is_nan()) {
            assert!(k.contains_envelope(&e), "{e:?} keyed as {k:?}");
        }
    }
    assert_eq!(BoxKey::outward(&Envelope::EMPTY), BoxKey::EMPTY);
}

#[test]
fn rekeying_a_key_changes_nothing() {
    let mut rng = test_rng("rekeying_a_key_changes_nothing");
    let bits = |k: BoxKey| k.bounds().map(f32::to_bits);
    for _ in 0..cases(4096) {
        let k = BoxKey::outward(&awkward_envelope(&mut rng));
        assert_eq!(bits(BoxKey::outward(&k.envelope())), bits(k), "{k:?}");
    }
}

#[test]
fn rtree_survives_deletions() {
    let mut rng = test_rng("rtree_survives_deletions");
    for _ in 0..cases(32) {
        let mut items = env_items(&mut rng, 200);
        if items.len() < 2 {
            items.push((env(&mut rng), items.len()));
        }
        let window = env(&mut rng);
        let mut t = RTree::bulk_load(RTreeConfig::default(), items.clone());
        // Delete every other entry.
        for (e, v) in items.iter().step_by(2) {
            assert_eq!(t.remove(e, |x| x == v), Some(*v));
        }
        let remaining: Vec<(Envelope, usize)> = items.iter().skip(1).step_by(2).cloned().collect();
        assert_rtree_window(&t, &remaining, &window);
        assert_eq!(t.len(), remaining.len());
    }
}

#[test]
fn grid_agrees_with_rtree() {
    let mut rng = test_rng("grid_agrees_with_rtree");
    for _ in 0..cases(32) {
        let items = env_items(&mut rng, 200);
        let window = env(&mut rng);
        let cells = rng.gen_range(2..24usize);
        let extent = Envelope::new(-110.0, -110.0, 130.0, 130.0);
        let mut g: GridIndex<usize> = GridIndex::new(extent, cells, cells);
        for (e, v) in &items {
            g.insert(*e, *v);
        }
        let mut got = g.window(&window);
        got.sort_unstable();
        assert_eq!(got, brute_window(&items, &window));
    }
}

#[test]
fn knn_orders_match_brute_force() {
    let mut rng = test_rng("knn_orders_match_brute_force");
    for _ in 0..cases(32) {
        let items = env_items(&mut rng, 150);
        let q = Coord::new(rng.gen_range(-120.0..120.0f64), rng.gen_range(-120.0..120.0f64));
        let k = rng.gen_range(1..12usize);
        let t = RTree::bulk_load(RTreeConfig::default(), items.clone());
        let got = t.nearest(q, k);
        let sorted = |items: &[(Envelope, usize)]| {
            let mut d: Vec<f64> = items.iter().map(|(e, _)| e.distance_to_coord(q)).collect();
            d.sort_by(f64::total_cmp);
            d
        };
        // The R-tree ranks its keys.
        let keys = sorted(&keyed(&items));
        assert_eq!(got.len(), k.min(items.len()));
        for (i, (d, _)) in got.iter().enumerate() {
            assert!((d - keys[i]).abs() < 1e-9, "k={i}: rtree {d} vs brute {}", keys[i]);
        }
        // The grid keeps exact envelopes, and ranks them.
        let dists = sorted(&items);
        let extent = Envelope::new(-110.0, -110.0, 130.0, 130.0);
        let mut g: GridIndex<usize> = GridIndex::new(extent, 16, 16);
        for (e, v) in &items {
            g.insert(*e, *v);
        }
        let got = g.nearest(q, k);
        for (i, (d, _)) in got.iter().enumerate() {
            assert!((d - dists[i]).abs() < 1e-9, "grid k={i}: {d} vs brute {}", dists[i]);
        }
    }
}

/// A line or a polygon in a crowded 100-wide square: long lines whose
/// envelopes overlap, so envelope distance ranks them badly.
fn crowded_line_or_polygon(rng: &mut Rng) -> Geometry {
    let mut at = || Coord::new(rng.gen_range(-50.0..50.0f64), rng.gen_range(-50.0..50.0f64));
    let centre = at();
    if rng.gen_range(0..2usize) == 0 {
        let mut pts = vec![centre];
        for _ in 0..rng.gen_range(1..4usize) {
            let last = *pts.last().unwrap();
            let (dx, dy) = (rng.gen_range(-60.0..60.0f64), rng.gen_range(-60.0..60.0f64));
            pts.push(Coord::new(last.x + dx + 0.001, last.y + dy + 0.001));
        }
        return Geometry::LineString(LineString::new(pts).unwrap());
    }
    let n = rng.gen_range(3..9usize);
    let mut pts: Vec<Coord> = (0..n)
        .map(|i| {
            let (r, theta) =
                (rng.gen_range(0.5..25.0f64), std::f64::consts::TAU * i as f64 / n as f64);
            Coord::new(centre.x + r * theta.cos(), centre.y + r * theta.sin())
        })
        .collect();
    pts.push(pts[0]);
    Geometry::Polygon(Polygon::new(Ring::new(pts).unwrap(), Vec::new()))
}

#[test]
fn knn_ids_match_the_index_off_plan_over_lines_and_polygons() {
    let mut rng = test_rng("knn_ids_match_the_index_off_plan_over_lines_and_polygons");
    for case in 0..cases(24) {
        let profile = [EngineProfile::ExactRtree, EngineProfile::ExactGrid][case % 2];
        let db = Arc::new(SpatialDb::new(profile));
        db.execute("CREATE TABLE t (id BIGINT, geom GEOMETRY)").unwrap();
        for i in 0..rng.gen_range(20..80usize) {
            let g = wkt::write(&crowded_line_or_polygon(&mut rng));
            db.execute(&format!("INSERT INTO t VALUES ({i}, ST_GeomFromText('{g}'))")).unwrap();
        }
        db.create_spatial_index("t", "geom").unwrap();
        let query = wkt::write(&crowded_line_or_polygon(&mut rng));
        let k = rng.gen_range(1..6usize);
        let sql = format!(
            "SELECT id FROM t ORDER BY ST_Distance(geom, ST_GeomFromText('{query}')) LIMIT {k}"
        );
        let on = db.execute(&sql).unwrap().rows;
        db.set_use_spatial_index(false);
        let off = db.execute(&sql).unwrap().rows;
        assert_eq!(on, off, "{profile:?}: {sql}");
    }
}

#[test]
fn ordered_index_matches_btree_semantics() {
    let mut rng = test_rng("ordered_index_matches_btree_semantics");
    for _ in 0..cases(32) {
        let n = rng.gen_range(0..200usize);
        let pairs: Vec<(i64, usize)> =
            (0..n).map(|_| (rng.gen_range(0..50i64), rng.gen_range(0..1000usize))).collect();
        let probe = rng.gen_range(0..50i64);
        let mut idx: OrderedIndex<i64, usize> = OrderedIndex::new();
        for (k, v) in &pairs {
            idx.insert(*k, *v);
        }
        assert_eq!(idx.len(), pairs.len());
        let mut got = idx.get(&probe).to_vec();
        got.sort_unstable();
        let mut want: Vec<usize> =
            pairs.iter().filter(|(k, _)| *k == probe).map(|(_, v)| *v).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
