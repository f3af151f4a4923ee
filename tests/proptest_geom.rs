//! Randomized tests pinning the geometry kernel's invariants
//! (deterministic seeded PRNG; more iterations under `slow-tests`).

mod common;

use common::{cases, coord, geometry, linestring, point, polygon, star_polygon, test_rng};
use jackpine::datagen::rng::Rng;
use jackpine::geom::algorithms::locate::{locate_in_polygon, Location};
use jackpine::geom::algorithms::orientation::{orient2d, Orientation};
use jackpine::geom::algorithms::{
    area, buffer, convex_hull, difference, distance, intersection, simplify, union,
};
use jackpine::geom::{
    wkb, wkt, Coord, Envelope, Geometry, GeometryCollection, LineString, MultiLineString,
    MultiPoint, MultiPolygon, Point, Polygon, Ring,
};
use jackpine::storage::{DataType, Field, StorageError, Value};

// ----- serialization roundtrips ------------------------------------

#[test]
fn wkt_roundtrip() {
    let mut rng = test_rng("wkt_roundtrip");
    for _ in 0..cases(64) {
        let g = geometry(&mut rng);
        let text = wkt::write(&g);
        let back = wkt::parse(&text).expect("written WKT must parse");
        // Float formatting is exact (shortest roundtrip form), so the
        // geometry must be bit-identical.
        assert_eq!(g, back);
    }
}

#[test]
fn wkb_roundtrip() {
    let mut rng = test_rng("wkb_roundtrip");
    for _ in 0..cases(64) {
        let g = geometry(&mut rng);
        let bytes = wkb::encode(&g);
        let back = wkb::decode(&bytes).expect("encoded WKB must decode");
        assert_eq!(g, back);
    }
}

/// A star polygon with `holes` small triangles near its centre, wound
/// either way before `Polygon::new` normalizes them.
fn holed_polygon(rng: &mut Rng, holes: usize) -> Polygon {
    let p = star_polygon(rng);
    let c = p.envelope().center().expect("a star has area");
    let holes = (0..holes)
        .map(|k| {
            let (dx, dy) = (0.1 * k as f64, 0.05 * k as f64);
            let mut tri: Vec<Coord> = [(-0.04, -0.02), (0.04, -0.02), (0.0, 0.04), (-0.04, -0.02)]
                .iter()
                .map(|&(x, y)| Coord::new(c.x + dx + x, c.y + dy + y))
                .collect();
            if rng.gen_range(0..2usize) == 0 {
                tri.reverse();
            }
            Ring::new(tri).expect("a triangle is a ring")
        })
        .collect();
    Polygon::new(p.exterior().clone(), holes)
}

#[test]
fn polygons_with_and_without_holes_roundtrip() {
    let mut rng = test_rng("polygon_holes_roundtrip");
    for _ in 0..cases(32) {
        let polys: Vec<Polygon> = [0, 1, 4].map(|n| holed_polygon(&mut rng, n)).into();
        let mut shapes: Vec<Geometry> = polys.iter().cloned().map(Geometry::Polygon).collect();
        shapes.push(Geometry::MultiPolygon(MultiPolygon(polys.clone())));
        shapes.push(Geometry::MultiPolygon(MultiPolygon(vec![polys[0].clone()])));
        for g in &shapes {
            assert_eq!(&wkb::decode(&wkb::encode(g)).unwrap(), g, "WKB {}", wkt::write(g));
            assert_eq!(&wkt::parse(&wkt::write(g)).unwrap(), g, "WKT {}", wkt::write(g));
        }
        for (p, n) in polys.iter().zip([0, 1, 4]) {
            assert_eq!(p.holes().len(), n);
            assert_eq!(p.rings().count(), n + 1);
            assert_eq!(p.rings().next(), Some(p.exterior()), "the exterior comes first");
        }
        // No holes, however spelled, is one polygon: the one decoding builds.
        let bare = Polygon::new(polys[0].exterior().clone(), vec![]);
        assert!(bare.holes().is_empty());
        assert_eq!(wkb::decode(&wkb::encode(&shapes[0])).unwrap(), Geometry::Polygon(bare));
    }
}

// ----- envelopes off the bytes ----------------------------------------

/// Any of the seven geometry kinds: empties, polygons with holes (one of
/// them outside the exterior's envelope, which must not count) and
/// collections nested up to three deep.
fn any_geometry(rng: &mut Rng, depth: usize) -> Geometry {
    let n = rng.gen_range(0..4usize);
    match rng.gen_range(0..9usize) {
        0 => point(rng),
        1 => linestring(rng),
        2 => polygon(rng),
        3 => {
            let p = star_polygon(rng);
            let c = p.envelope().center().expect("a star has area");
            let hole = |dx: f64| {
                let tri = [(dx - 0.2, -0.1), (dx + 0.2, -0.1), (dx, 0.2), (dx - 0.2, -0.1)];
                Ring::new(tri.iter().map(|&(x, y)| Coord::new(c.x + x, c.y + y)).collect())
                    .expect("a triangle is a ring")
            };
            Geometry::Polygon(Polygon::new(p.exterior().clone(), vec![hole(0.0), hole(50.0)]))
        }
        4 => Geometry::MultiPoint(MultiPoint(
            (0..n)
                .map(|_| match rng.gen_range(0..4usize) {
                    0 => Point::empty(),
                    _ => Point::from_coord(coord(rng)).expect("finite coord"),
                })
                .collect(),
        )),
        5 => Geometry::MultiLineString(MultiLineString(
            (0..n)
                .map(|_| match linestring(rng) {
                    Geometry::LineString(l) if rng.gen_range(0..4usize) > 0 => l,
                    _ => LineString::empty(),
                })
                .collect(),
        )),
        6 => Geometry::MultiPolygon(MultiPolygon((0..n).map(|_| star_polygon(rng)).collect())),
        7 if depth < 3 => Geometry::GeometryCollection(GeometryCollection(
            (0..n).map(|_| any_geometry(rng, depth + 1)).collect(),
        )),
        _ => match rng.gen_range(0..3usize) {
            0 => Geometry::Point(Point::empty()),
            1 => Geometry::LineString(LineString::empty()),
            _ => Geometry::GeometryCollection(GeometryCollection(Vec::new())),
        },
    }
}

fn bits(e: Envelope) -> [u64; 4] {
    [e.min_x, e.min_y, e.max_x, e.max_y].map(f64::to_bits)
}

#[test]
fn wkb_envelope_is_the_decoded_envelope_bit_for_bit() {
    let mut rng = test_rng("wkb_envelope");
    let mut kinds = std::collections::HashSet::new();
    for _ in 0..cases(256) {
        let g = any_geometry(&mut rng, 0);
        kinds.insert(g.geometry_type());
        let bytes = wkb::encode(&g);
        let walked = wkb::envelope(&bytes).expect("encoded WKB must walk");
        assert_eq!(bits(walked), bits(g.envelope()), "{}", wkt::write(&g));
        // A prefix is missing bytes some count promised; a suffix is
        // trailing garbage. Neither is an envelope, and neither panics.
        for cut in 0..bytes.len() {
            assert!(wkb::envelope(&bytes[..cut]).is_err(), "{cut}-byte prefix of {g:?}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(wkb::envelope(&longer).is_err());
    }
    assert_eq!(kinds.len(), 7, "all seven kinds were drawn: {kinds:?}");
    let empty = wkb::envelope(&wkb::encode(&Geometry::Point(Point::empty()))).unwrap();
    assert_eq!(bits(empty), bits(Envelope::EMPTY), "POINT EMPTY is NaN on the wire");
}

#[test]
fn wkb_envelope_reads_big_endian_images() {
    // MULTIPOLYGON (((0 0, 4 0, 4 3, 0 0), (9 9, 8 9, 8 8, 9 9))) and a
    // big-endian LINESTRING (1 -2, -3 4), built by hand.
    use jackpine::geom::codec::PutBytes;
    let ring = |buf: &mut Vec<u8>, pts: &[(f64, f64)]| {
        buf.put_u32(pts.len() as u32);
        for &(x, y) in pts {
            buf.put_f64(x);
            buf.put_f64(y);
        }
    };
    let mut mpoly = vec![0];
    mpoly.put_u32(6);
    mpoly.put_u32(1);
    mpoly.push(0);
    mpoly.put_u32(3);
    mpoly.put_u32(2);
    ring(&mut mpoly, &[(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (0.0, 0.0)]);
    ring(&mut mpoly, &[(9.0, 9.0), (8.0, 9.0), (8.0, 8.0), (9.0, 9.0)]);
    let mut line = vec![0];
    line.put_u32(2);
    ring(&mut line, &[(1.0, -2.0), (-3.0, 4.0)]);
    for (image, want) in [(mpoly, [0.0, 0.0, 4.0, 3.0]), (line, [-3.0, -2.0, 1.0, 4.0])] {
        let decoded = wkb::decode(&image).expect("a valid big-endian image");
        let walked = wkb::envelope(&image).unwrap();
        assert_eq!(bits(walked), bits(decoded.envelope()));
        assert_eq!([walked.min_x, walked.min_y, walked.max_x, walked.max_y], want);
    }
}

#[test]
fn a_tuple_column_reads_as_its_decoded_value() {
    // Every column of the five benchmark schemas, with NULL in each
    // position in turn (and nowhere).
    let mut rng = test_rng("tuple_field");
    for (table, cols) in jackpine::bench::dataset::table_schemas() {
        for null_at in 0..=cols.len() {
            let row: Vec<Value> = cols
                .iter()
                .enumerate()
                .map(|(c, def)| match def.ty {
                    _ if c == null_at => Value::Null,
                    DataType::Int => Value::Int(rng.gen_range(-1000..1000i64)),
                    DataType::Float => Value::Float(rng.gen_range(-1.0..1.0f64)),
                    DataType::Text => Value::Text(format!("{table}-{c}-é")),
                    DataType::Geometry => Value::Geom(any_geometry(&mut rng, 0)),
                })
                .collect();
            let tuple = Value::store_row(&row);
            let decoded = Value::decode_row(&tuple).unwrap();
            // One walk over every column, and one past the last.
            let every: Vec<usize> = (0..=cols.len()).collect();
            let mut fields = Vec::new();
            Field::of(&tuple, &every, |c, f| {
                fields.push((c, f));
                Ok::<(), StorageError>(())
            })
            .unwrap();
            assert_eq!(fields.len(), cols.len(), "{table}: the column past the last was visited");
            for ((c, field), want) in fields.into_iter().zip(&decoded) {
                let got = match field {
                    Field::Null => Value::Null,
                    Field::Int(i) => Value::Int(i),
                    Field::Float(f) => Value::Float(f),
                    Field::Text(s) => Value::Text(s.to_string()),
                    Field::Geom(g) => Value::Geom(g.decode().unwrap()),
                };
                assert_eq!(&got, want, "{table} column {c}");
                let mbr = field.mbr().unwrap().map(|q| q.map(f64::to_bits));
                assert_eq!(mbr, want.mbr().map(|q| q.map(f64::to_bits)), "{table} column {c}");
            }
            for cut in 0..tuple.len() {
                let short = Field::of(&tuple[..cut], &every, |_, _| Ok::<(), StorageError>(()));
                assert!(short.is_err(), "{table}: a {cut}-byte prefix read as a whole row");
            }
        }
    }
}

// ----- orientation predicate ----------------------------------------

#[test]
fn orient2d_cyclic_invariance() {
    let mut rng = test_rng("orient2d_cyclic_invariance");
    for _ in 0..cases(64) {
        let mut c = || Coord::new(rng.gen_range(-1e3..1e3f64), rng.gen_range(-1e3..1e3f64));
        let (a, b, c) = (c(), c(), c());
        assert_eq!(orient2d(a, b, c), orient2d(b, c, a));
        assert_eq!(orient2d(a, b, c), orient2d(c, a, b));
        // Swapping two points flips the sign.
        assert_eq!(orient2d(a, b, c), orient2d(b, a, c).reversed());
    }
}

#[test]
fn orient2d_degenerate_duplicates_are_collinear() {
    let mut rng = test_rng("orient2d_degenerate");
    for _ in 0..cases(64) {
        let mut c = || Coord::new(rng.gen_range(-1e3..1e3f64), rng.gen_range(-1e3..1e3f64));
        let (a, b) = (c(), c());
        assert_eq!(orient2d(a, a, b), Orientation::Collinear);
        assert_eq!(orient2d(a, b, b), Orientation::Collinear);
        assert_eq!(orient2d(a, b, a), Orientation::Collinear);
    }
}

// ----- hull -----------------------------------------------------------

#[test]
fn convex_hull_contains_inputs_and_is_idempotent() {
    let mut rng = test_rng("convex_hull");
    for _ in 0..cases(64) {
        let g = geometry(&mut rng);
        let hull = convex_hull(&g).expect("hull computes");
        // Hull area dominates the input's.
        assert!(area(&hull) + 1e-9 >= area(&g));
        // Idempotence.
        let hull2 = convex_hull(&hull).expect("hull of hull computes");
        assert!((area(&hull) - area(&hull2)).abs() <= 1e-9 * area(&hull).max(1.0));
        // Every original vertex is inside or on the hull.
        if let (Geometry::Polygon(hp), Geometry::Polygon(p)) = (&hull, &g) {
            for c in p.exterior().coords() {
                assert_ne!(locate_in_polygon(*c, hp), Location::Exterior);
            }
        }
    }
}

// ----- measures ---------------------------------------------------------

#[test]
fn area_is_nonnegative_and_envelope_bounds_it() {
    let mut rng = test_rng("area_nonnegative");
    for _ in 0..cases(64) {
        let g = geometry(&mut rng);
        let a = area(&g);
        assert!(a >= 0.0);
        let env = g.envelope();
        assert!(a <= env.area() + 1e-9);
    }
}

// ----- simplification -----------------------------------------------------

#[test]
fn simplify_never_adds_vertices() {
    let mut rng = test_rng("simplify_never_adds");
    for _ in 0..cases(64) {
        let g = geometry(&mut rng);
        let tol = rng.gen_range(0.0..5.0f64);
        let s = simplify(&g, tol).expect("simplify computes");
        assert!(s.num_coords() <= g.num_coords());
        // The simplified geometry stays within the original envelope.
        assert!(g.envelope().expanded_by(1e-9).contains_envelope(&s.envelope()));
    }
}

// ----- overlay ---------------------------------------------------------------

#[test]
fn overlay_inclusion_exclusion() {
    let mut rng = test_rng("overlay_inclusion_exclusion");
    for _ in 0..cases(64) {
        let ga = Geometry::Polygon(star_polygon(&mut rng));
        let gb = Geometry::Polygon(star_polygon(&mut rng));
        let u = area(&union(&ga, &gb).expect("union computes"));
        let i = area(&intersection(&ga, &gb).expect("intersection computes"));
        let total = area(&ga) + area(&gb);
        let tol = total.max(1.0) * 1e-6;
        assert!((u + i - total).abs() < tol, "|A∪B|+|A∩B| = {} vs |A|+|B| = {}", u + i, total);
        // Monotonicity.
        assert!(u + tol >= area(&ga).max(area(&gb)));
        assert!(i <= area(&ga).min(area(&gb)) + tol);
    }
}

#[test]
fn difference_partitions_area() {
    let mut rng = test_rng("difference_partitions_area");
    for _ in 0..cases(64) {
        let ga = Geometry::Polygon(star_polygon(&mut rng));
        let gb = Geometry::Polygon(star_polygon(&mut rng));
        let d = area(&difference(&ga, &gb).expect("difference computes"));
        let i = area(&intersection(&ga, &gb).expect("intersection computes"));
        let tol = (area(&ga) + area(&gb)).max(1.0) * 1e-6;
        assert!(
            (d + i - area(&ga)).abs() < tol,
            "|A−B| + |A∩B| = {} vs |A| = {}",
            d + i,
            area(&ga)
        );
    }
}

// ----- distance -----------------------------------------------------------------

#[test]
fn distance_is_symmetric_and_nonnegative() {
    let mut rng = test_rng("distance_symmetric");
    for _ in 0..cases(64) {
        let a = geometry(&mut rng);
        let b = geometry(&mut rng);
        let d1 = distance(&a, &b);
        let d2 = distance(&b, &a);
        assert!(d1 >= 0.0);
        assert!((d1 - d2).abs() < 1e-9 || (d1.is_infinite() && d2.is_infinite()));
        assert_eq!(distance(&a, &a), 0.0);
    }
}

#[test]
fn positive_distance_implies_envelope_gap_bound() {
    let mut rng = test_rng("distance_envelope_gap");
    for _ in 0..cases(64) {
        let a = polygon(&mut rng);
        let b = polygon(&mut rng);
        // Geometry distance is at least the envelope distance.
        let d = distance(&a, &b);
        let ed = a.envelope().distance_to_envelope(&b.envelope());
        assert!(d + 1e-9 >= ed, "geom distance {d} < envelope distance {ed}");
    }
}

// ----- buffer ---------------------------------------------------------------------

#[test]
fn point_buffer_area_brackets_circle() {
    let mut rng = test_rng("point_buffer_area");
    for _ in 0..cases(64) {
        let p = point(&mut rng);
        let r = rng.gen_range(0.1..5.0f64);
        let b = buffer(&p, r).expect("buffer computes");
        let a = area(&b);
        let exact = std::f64::consts::PI * r * r;
        // Inscribed polygon: below πr² but within 2 %.
        assert!(a <= exact + 1e-9);
        assert!(a >= exact * 0.97, "buffer area {a} too small vs {exact}");
    }
}
