//! Ground-truth integration tests: SQL answers on the benchmark dataset
//! must equal brute-force computation with the geometry/topology crates
//! directly — the SQL engine, planner and indexes may not change answers.

use jackpine::bench::load_dataset;
use jackpine::datagen::{TigerConfig, TigerDataset};
use jackpine::engine::{EngineProfile, SpatialDb};
use jackpine::geom::algorithms as alg;
use jackpine::geom::{wkt, Geometry};
use jackpine::storage::Value;
use jackpine::topo;
use std::sync::Arc;

fn setup() -> (TigerDataset, Arc<SpatialDb>) {
    let data = TigerDataset::generate(&TigerConfig { seed: 31, scale: 0.03 });
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    load_dataset(&db, &data).expect("load");
    (data, db)
}

fn scalar_i64(db: &Arc<SpatialDb>, sql: &str) -> i64 {
    db.execute(sql).expect("query").scalar().and_then(Value::as_i64).expect("int scalar")
}

fn scalar_f64(db: &Arc<SpatialDb>, sql: &str) -> f64 {
    db.execute(sql).expect("query").scalar().and_then(Value::as_f64).expect("float scalar")
}

#[test]
fn crosses_count_matches_brute_force() {
    let (data, db) = setup();
    let river = data.areawater.iter().find(|w| w.name.ends_with("RIVER")).expect("river exists");
    let river_geom = Geometry::Polygon(river.geom.clone());
    let want = data
        .roads
        .iter()
        .filter(|r| {
            topo::crosses(&Geometry::LineString(r.geom.clone()), &river_geom).expect("crosses")
        })
        .count() as i64;
    let got = scalar_i64(
        &db,
        &format!(
            "SELECT COUNT(*) FROM roads WHERE ST_Crosses(geom, ST_GeomFromText('{}'))",
            wkt::write(&river_geom)
        ),
    );
    assert_eq!(got, want);
    assert!(want > 0, "the river should cross some roads at this scale");
}

#[test]
fn county_touch_pairs_match_brute_force() {
    let (data, db) = setup();
    let mut want = 0i64;
    for (i, a) in data.counties.iter().enumerate() {
        for b in &data.counties[i + 1..] {
            if topo::touches(&Geometry::Polygon(a.geom.clone()), &Geometry::Polygon(b.geom.clone()))
                .expect("touches")
            {
                want += 1;
            }
        }
    }
    let got = scalar_i64(
        &db,
        "SELECT COUNT(*) FROM county a JOIN county b ON ST_Touches(a.geom, b.geom) \
         WHERE a.id < b.id",
    );
    assert_eq!(got, want);
    assert!(want > 0);
}

#[test]
fn total_road_length_matches_brute_force() {
    let (data, db) = setup();
    let want: f64 = data.roads.iter().map(|r| r.geom.length()).sum();
    let got = scalar_f64(&db, "SELECT SUM(ST_Length(geom)) FROM roads");
    assert!((got - want).abs() < want * 1e-12, "SQL {got} vs direct {want}");
}

#[test]
fn total_landmark_area_matches_brute_force() {
    let (data, db) = setup();
    let want: f64 = data.arealm.iter().map(|a| a.geom.area()).sum();
    let got = scalar_f64(&db, "SELECT SUM(ST_Area(geom)) FROM arealm");
    assert!((got - want).abs() < want * 1e-12);
}

#[test]
fn points_within_window_match_brute_force() {
    let (data, db) = setup();
    let window =
        wkt::parse("POLYGON ((-102 28, -97 28, -97 33, -102 33, -102 28))").expect("window wkt");
    let want = data
        .pointlm
        .iter()
        .filter(|p| topo::within(&Geometry::Point(p.geom), &window).expect("within"))
        .count() as i64;
    let got = scalar_i64(
        &db,
        &format!(
            "SELECT COUNT(*) FROM pointlm WHERE ST_Within(geom, ST_GeomFromText('{}'))",
            wkt::write(&window)
        ),
    );
    assert_eq!(got, want);
    assert!(want > 0, "central window should contain landmarks");
}

#[test]
fn overlap_pairs_and_intersection_area_match_brute_force() {
    let (data, db) = setup();
    let mut pairs = 0i64;
    let mut area_sum = 0.0f64;
    for a in &data.arealm {
        let ga = Geometry::Polygon(a.geom.clone());
        for w in &data.areawater {
            let gw = Geometry::Polygon(w.geom.clone());
            if topo::overlaps(&ga, &gw).expect("overlaps") {
                pairs += 1;
                area_sum += alg::area(&alg::intersection(&ga, &gw).expect("intersection computes"));
            }
        }
    }
    let got_pairs = scalar_i64(
        &db,
        "SELECT COUNT(*) FROM arealm a JOIN areawater b ON ST_Overlaps(a.geom, b.geom)",
    );
    assert_eq!(got_pairs, pairs);
    if pairs > 0 {
        let got_area = scalar_f64(
            &db,
            "SELECT SUM(ST_Area(ST_Intersection(a.geom, b.geom))) FROM arealm a \
             JOIN areawater b ON ST_Overlaps(a.geom, b.geom)",
        );
        assert!(
            (got_area - area_sum).abs() < area_sum.max(1e-9) * 1e-9,
            "SQL {got_area} vs direct {area_sum}"
        );
    }
}

#[test]
fn nearest_road_matches_brute_force() {
    let (data, db) = setup();
    let q = jackpine::geom::Coord::new(-100.0, 30.0);
    // Brute force by exact geometry distance.
    let want = data
        .roads
        .iter()
        .min_by(|a, b| {
            let pa = Geometry::Point(jackpine::geom::Point::from_coord(q).unwrap());
            let da = alg::distance(&Geometry::LineString(a.geom.clone()), &pa);
            let dbv = alg::distance(&Geometry::LineString(b.geom.clone()), &pa);
            da.total_cmp(&dbv)
        })
        .expect("roads non-empty")
        .id;
    let r = db
        .execute(
            "SELECT id FROM roads \
             ORDER BY ST_Distance(geom, ST_GeomFromText('POINT (-100 30)')) LIMIT 1",
        )
        .expect("knn query");
    assert_eq!(r.rows[0][0], Value::Int(want));
}

/// A table `t (id BIGINT, geom GEOMETRY)` holding `wkts` (row `i` has
/// id `i`) under a spatial index, on `profile` at `workers`.
fn geometry_table(profile: EngineProfile, workers: usize, wkts: &[String]) -> Arc<SpatialDb> {
    let db = Arc::new(SpatialDb::new(profile));
    db.set_workers(workers);
    db.execute("CREATE TABLE t (id BIGINT, geom GEOMETRY)").unwrap();
    for (i, w) in wkts.iter().enumerate() {
        db.execute(&format!("INSERT INTO t VALUES ({i}, ST_GeomFromText('{w}'))")).unwrap();
    }
    db.create_spatial_index("t", "geom").unwrap();
    db
}

/// `sql`'s rows with the spatial index off, after asserting that the
/// index-on plan gives the same rows.
fn as_without_the_index(db: &Arc<SpatialDb>, sql: &str) -> Vec<Vec<Value>> {
    db.set_use_spatial_index(true);
    let on = db.execute(sql).unwrap().rows;
    db.set_use_spatial_index(false);
    let off = db.execute(sql).unwrap().rows;
    db.set_use_spatial_index(true);
    assert_eq!(on, off, "index on vs off: {sql}");
    on
}

fn explain(db: &Arc<SpatialDb>, sql: &str) -> String {
    let r = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    r.rows.iter().map(|row| row[0].to_string() + "\n").collect()
}

#[test]
fn knn_is_exact_when_envelope_distance_misleads() {
    // 17 long segments on x + y = -80: their envelopes hold the origin,
    // the segments pass 56.57 from it. Row 17 is 1 from it, its
    // envelope is not.
    let mut wkts: Vec<String> = (0..17)
        .map(|i| format!("LINESTRING ({} {}, {} {})", -100 - i, 20 + i, 20 + i, -100 - i))
        .collect();
    wkts.push("LINESTRING (1 0, 2 0)".into());
    let sql = "SELECT id FROM t ORDER BY ST_Distance(geom, ST_GeomFromText('POINT (0 0)')) LIMIT 1";
    for profile in [EngineProfile::ExactRtree, EngineProfile::ExactGrid] {
        for workers in [1, 2] {
            let db = geometry_table(profile, workers, &wkts);
            assert!(explain(&db, sql).contains("KnnScan col=1 k=1\n"), "{}", explain(&db, sql));
            assert_eq!(as_without_the_index(&db, sql), vec![vec![Value::Int(17)]], "{profile:?}");
        }
    }
}

#[test]
fn knn_from_a_line_is_exact() {
    // The line's envelope centre (50 0) is nearest the 40 points at
    // distance 3; row 40 is 0.5 from the line but far from its centre.
    let mut wkts: Vec<String> =
        (0..40).map(|i| format!("POINT ({} 3)", 45.0 + 0.25 * i as f64)).collect();
    wkts.push("POINT (100 0.5)".into());
    let db = geometry_table(EngineProfile::ExactRtree, 1, &wkts);
    let sql = "SELECT id FROM t \
               ORDER BY ST_Distance(geom, ST_GeomFromText('LINESTRING (0 0, 100 0)')) LIMIT 1";
    assert_eq!(as_without_the_index(&db, sql), vec![vec![Value::Int(40)]]);
    // Ties keep storage order, as the scan's stable sort keeps them.
    let sql = sql.replace("LIMIT 1", "LIMIT 4");
    let want: Vec<_> = [40, 0, 1, 2].map(|i| vec![Value::Int(i)]).into();
    assert_eq!(as_without_the_index(&db, &sql), want);
}

#[test]
fn an_aggregate_ordered_by_distance_counts_every_row() {
    let wkts: Vec<String> = (0..40).map(|i| format!("POINT ({i} {})", i % 7)).collect();
    let db = geometry_table(EngineProfile::ExactRtree, 1, &wkts);
    let sql = "SELECT COUNT(*) FROM t \
               ORDER BY ST_Distance(geom, ST_GeomFromText('POINT (0 0)')) LIMIT 1";
    assert!(!explain(&db, sql).contains("KnnScan"), "{}", explain(&db, sql));
    assert_eq!(as_without_the_index(&db, sql), vec![vec![Value::Int(40)]]);
}

#[test]
fn knn_from_an_empty_geometry_answers_as_without_the_index() {
    let wkts: Vec<String> = (0..40).map(|i| format!("POINT ({i} {})", i % 7)).collect();
    let db = geometry_table(EngineProfile::ExactRtree, 1, &wkts);
    let sql = "SELECT id FROM t \
               ORDER BY ST_Distance(geom, ST_GeomFromText('POINT EMPTY')) LIMIT 1";
    assert_eq!(as_without_the_index(&db, sql), vec![vec![Value::Int(0)]]);
}

#[test]
fn group_by_category_matches_brute_force() {
    let (data, db) = setup();
    let r = db
        .execute("SELECT category, COUNT(*) FROM arealm GROUP BY category ORDER BY 1")
        .expect("group query");
    use std::collections::BTreeMap;
    let mut want: BTreeMap<&str, i64> = BTreeMap::new();
    for a in &data.arealm {
        *want.entry(a.category.as_str()).or_default() += 1;
    }
    let got: Vec<(String, i64)> =
        r.rows.iter().map(|row| (row[0].to_string(), row[1].as_i64().expect("count"))).collect();
    let want: Vec<(String, i64)> = want.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    assert_eq!(got, want);
}
