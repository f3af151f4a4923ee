//! Randomized tests: the spatial indexes must agree with brute force
//! under arbitrary data and query mixes (deterministic seeded PRNG).

mod common;

use common::{cases, test_rng};
use jackpine::datagen::rng::Rng;
use jackpine::engine::{EngineProfile, SpatialDb};
use jackpine::geom::{wkt, Coord, Envelope, Geometry, LineString, Polygon, Ring};
use jackpine::index::{GridIndex, OrderedIndex, RTree, RTreeConfig};
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
        let mut got = t.window(&window);
        got.sort_unstable();
        assert_eq!(&got, &brute_window(&items, &window));
        // Bulk-load path must agree too.
        let bulk = RTree::bulk_load(RTreeConfig::default(), items.clone());
        let mut got = bulk.window(&window);
        got.sort_unstable();
        assert_eq!(&got, &brute_window(&items, &window));
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
        let mut got = t.window(&window);
        got.sort_unstable();
        assert_eq!(got, brute_window(&remaining, &window));
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
        let mut dists: Vec<f64> = items.iter().map(|(e, _)| e.distance_to_coord(q)).collect();
        dists.sort_by(f64::total_cmp);
        assert_eq!(got.len(), k.min(items.len()));
        for (i, (d, _)) in got.iter().enumerate() {
            assert!((d - dists[i]).abs() < 1e-9, "k={i}: rtree {d} vs brute {}", dists[i]);
        }
        // Grid kNN must agree on distances as well.
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
        let (lo, hi) = (rng.gen_range(0..50i64), rng.gen_range(0..50i64));
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

        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let mut got = idx.range(&lo, &hi);
        got.sort_unstable();
        let mut want: Vec<usize> =
            pairs.iter().filter(|(k, _)| *k >= lo && *k <= hi).map(|(_, v)| *v).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
