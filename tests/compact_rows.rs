//! The stored row codec (`jackpine::storage::compact`), the one form a
//! row takes in a heap page, a spill file, the write-ahead log and a
//! snapshot: every row of a TIGER load and every geometry of the shape
//! corpus decodes from it to exactly the values it was stored from, and
//! reads in place as it decodes. The canonical bytes those values encode
//! to — what the benchmark digests results in and measures storage
//! against — are pinned. The in-place check restore runs
//! (`Schema::check_tuple`) gives decode's verdict on every stored tuple
//! and on damaged ones. The codec's malformed inputs are its unit tests.

use jackpine::bench::dataset::load_dataset;
use jackpine::datagen::{TigerConfig, TigerDataset};
use jackpine::engine::{EngineProfile, SpatialDb};
use jackpine::geom::{
    wkt, Coord, Geometry, GeometryCollection, LineString, MultiLineString, MultiPoint,
    MultiPolygon, Point, Polygon, Ring,
};
use jackpine::storage::compact::MAX_DEPTH;
use jackpine::storage::{ColumnDef, DataType, Field, Schema, StorageError, Value};
use std::sync::Arc;

mod common;
use common::shapes;

/// FNV-1a, 64 bits, continuing from `state`.
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

fn tiger_load() -> (TigerDataset, Arc<SpatialDb>) {
    let data = TigerDataset::generate(&TigerConfig { seed: 7, scale: 0.2 });
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    load_dataset(&db, &data).unwrap();
    (data, db)
}

/// Every geometry of the shape corpus, the poison collection and the
/// lattice.
fn corpus(name: &str) -> Vec<Geometry> {
    let mut rng = common::test_rng(name);
    let rows = shapes::shape_rows(&mut rng).into_iter().flatten();
    rows.chain([shapes::POISON.to_string()])
        .map(|text| shapes::parse(&text))
        .chain(shapes::lattice())
        .collect()
}

/// The stored form of `row`, checked to decode back to it bit for bit
/// (its canonical bytes, which hold every float's bits, are equal) and to
/// read in place, column by column, as it decodes.
fn round_trip(row: &[Value]) -> Vec<u8> {
    let tuple = Value::store_row(row);
    let back = Value::decode_row(&tuple).unwrap();
    assert!(Value::encode_row(&back) == Value::encode_row(row), "{row:?} decoded to {back:?}");
    assert_read_in_place(&tuple, &back);
    tuple
}

/// Every column of `tuple`, read in place, is the value of `row` there:
/// the same scalar, or a geometry that decodes to it and whose envelope,
/// read off the bytes, is its envelope bit for bit.
fn assert_read_in_place(tuple: &[u8], row: &[Value]) {
    let every: Vec<usize> = (0..=row.len()).collect();
    let mut seen = 0;
    Field::of(tuple, &every, |c, f| {
        let got = match f {
            Field::Null => Value::Null,
            Field::Int(i) => Value::Int(i),
            Field::Float(x) => Value::Float(x),
            Field::Text(s) => Value::Text(s.to_string()),
            Field::Geom(g) => Value::Geom(g.decode()?),
        };
        assert!(Value::encode_row(&[got]) == Value::encode_row(&row[c..=c]), "column {c}");
        let mbr = f.mbr()?.map(|q| q.map(f64::to_bits));
        assert_eq!(mbr, row[c].mbr().map(|q| q.map(f64::to_bits)), "column {c}: envelope");
        seen += 1;
        Ok::<(), StorageError>(())
    })
    .unwrap();
    assert_eq!(seen, row.len(), "the column past the last was visited");
}

#[test]
fn the_canonical_bytes_of_every_row_and_geometry_are_pinned() {
    // The rows of a TIGER load as the heap hands them back, and every
    // corpus geometry, in the canonical form: pinned before the heap
    // stored rows in the compact codec, so neither the benchmark's result
    // digests nor the byte count its storage is measured against moved.
    let (_, db) = tiger_load();
    let mut names = db.table_names();
    names.sort();
    let (mut digest, mut rows) = (0xcbf2_9ce4_8422_2325, 0);
    for name in names {
        let heap = &db.table(&name).unwrap().heap;
        for row in heap.get_many(&heap.row_ids(), false).unwrap() {
            digest = fnv1a(digest, &Value::encode_row(&row));
            rows += 1;
        }
    }
    let mut geometries = 0;
    let mut buf = Vec::new();
    for g in corpus("canonical-bytes") {
        buf.clear();
        Value::Geom(g).encode(&mut buf);
        digest = fnv1a(digest, &buf);
        geometries += 1;
    }
    assert_eq!((rows, geometries, digest), (5_278, 4_964, 1_861_926_960_788_180_942));
}

#[test]
fn every_tuple_of_a_tiger_load_round_trips() {
    let (data, db) = tiger_load();
    let mut rows = 0;
    for name in db.table_names() {
        let heap = &db.table(&name).unwrap().heap;
        let (mut stored, mut canonical) = (0, 0);
        heap.scan_tuples(&heap.row_ids(), |_, tuple| {
            let row = Value::decode_row(tuple)?;
            assert!(Value::store_row(&row) == tuple, "{name}: {row:?} is stored otherwise");
            assert_read_in_place(tuple, &row);
            stored += tuple.len();
            canonical += Value::encode_row(&row).len();
            rows += 1;
            Ok::<(), StorageError>(())
        })
        .unwrap();
        assert!(stored < canonical, "{name}: {stored} stored bytes of {canonical}");
        println!("{name}: {stored} / {canonical} = {:.3}", stored as f64 / canonical as f64);
    }
    assert_eq!(rows, data.total_rows());
}

#[test]
fn every_geometry_of_the_shape_corpus_round_trips() {
    let geometries = corpus("compact-rows");
    let mut rng = common::test_rng("compact-rows");
    assert!(geometries.len() > shapes::corpus(&mut rng).len() + 4_000);
    for g in geometries {
        let tuple = round_trip(&[Value::Int(1), Value::Geom(g.clone())]);
        // The arity, the integer, and the geometry under tag 4: every
        // corpus ring closes on its first vertex's bits.
        assert_eq!(tuple[3], 4, "{g:?} is stored whole");
    }
}

#[test]
fn the_codec_edges_round_trip() {
    let g = |text: &str| Value::Geom(wkt::parse(text).unwrap());
    let scalars = [
        Value::Null,
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Int(0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Float(-f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Text(String::new()),
        Value::Text("g".repeat(20_000)),
        Value::Text("ß·x".into()),
    ];
    round_trip(&scalars);
    let pt = |x, y| Point::new(x, y).unwrap();
    let line = |c: &[(f64, f64)]| LineString::from_xy(c).unwrap();
    let square = |x: f64| Polygon::from_xy(&[(x, 0.0), (x + 1.0, 0.0), (x + 1.0, 1.0)]).unwrap();
    let kinds = [
        g("POINT EMPTY"),
        g("LINESTRING EMPTY"),
        g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))"),
        Value::Geom(Geometry::MultiPoint(MultiPoint(vec![pt(1.0, 2.0), Point::empty()]))),
        g("MULTIPOINT EMPTY"),
        Value::Geom(Geometry::MultiLineString(MultiLineString(vec![
            line(&[(0.0, 0.0), (1.0, -0.0)]),
            LineString::empty(),
        ]))),
        Value::Geom(Geometry::MultiPolygon(MultiPolygon(vec![square(0.0), square(5.0)]))),
        g("GEOMETRYCOLLECTION (POINT (4 4), MULTILINESTRING ((0 1, 1 0)), \
           GEOMETRYCOLLECTION (POLYGON ((0 0, 1 0, 1 1, 0 0)), POINT EMPTY))"),
        g("GEOMETRYCOLLECTION EMPTY"),
    ];
    for v in &kinds {
        assert_eq!(round_trip(std::slice::from_ref(v))[1], 4, "{v:?}: stored compact");
    }
    round_trip(&kinds);

    // Stored whole, as its WKB: collections nested past the depth, and a
    // ring that closes on `(-0 0)` where it opened on `(0 0)` — the same
    // vertex to `==`, not to its bits, so it is not rewritten.
    let mut deep = Geometry::Point(pt(1.0, 1.0));
    for _ in 0..=MAX_DEPTH {
        deep = Geometry::GeometryCollection(GeometryCollection(vec![deep]));
    }
    let open = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (-0.0, 0.0)];
    let ring = Ring::new(open.iter().map(|&(x, y)| Coord::new(x, y)).collect()).unwrap();
    let signed_zero = Geometry::Polygon(Polygon::new(ring, vec![]));
    for whole in [deep, signed_zero] {
        let tuple = round_trip(&[Value::Geom(whole.clone())]);
        assert_eq!(tuple[1], 5, "{whole:?}: stored whole");
        assert!(tuple.ends_with(&jackpine::geom::wkb::encode(&whole)), "the WKB, as it is");
    }
}

/// The in-place check's verdict on `tuple`, asserted to be decode's and
/// then the schema check's.
fn check_agrees(schema: &Schema, tuple: &[u8], coords: &mut Vec<Coord>) -> bool {
    let checked = schema.check_tuple(tuple, coords);
    let decoded = Value::decode_row(tuple).and_then(|row| schema.check_row(&row));
    assert_eq!(checked.is_ok(), decoded.is_ok(), "{tuple:?}: {checked:?} vs {decoded:?}");
    checked.is_ok()
}

#[test]
fn the_in_place_check_agrees_with_decode() {
    let mut coords = Vec::new();
    // Every tuple of a TIGER load, under its table's schema.
    let (_, db) = tiger_load();
    let mut stored: Vec<(Arc<Schema>, Vec<u8>)> = Vec::new();
    for name in db.table_names() {
        let heap = &db.table(&name).unwrap().heap;
        heap.scan_tuples(&heap.row_ids(), |_, tuple| {
            assert!(check_agrees(heap.schema(), tuple, &mut coords), "{name}: refused");
            stored.push((heap.schema().clone(), tuple.to_vec()));
            Ok::<(), StorageError>(())
        })
        .unwrap();
    }
    // Every geometry of the shape corpus, in a geometry column and, as a
    // misfit, in a text one.
    let schema = |ty| {
        Arc::new(
            Schema::new(vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("g", ty)])
                .unwrap(),
        )
    };
    let (fits, misfit) = (schema(DataType::Geometry), schema(DataType::Text));
    for g in corpus("in-place-check") {
        let tuple = Value::store_row(&[Value::Int(1), Value::Geom(g)]);
        assert!(check_agrees(&fits, &tuple, &mut coords), "{tuple:?}: refused");
        assert!(!check_agrees(&misfit, &tuple, &mut coords), "{tuple:?}: a misfit accepted");
        stored.push((fits.clone(), tuple));
    }
    // Each single-byte change and each truncation of 200 of them.
    let mut rng = common::test_rng("in-place-check");
    let (mut accepted, mut refused) = (0, 0);
    for _ in 0..200 {
        let (schema, tuple) = &stored[rng.gen_range(0..stored.len())];
        let mut damaged = tuple.clone();
        for at in 0..tuple.len() {
            for flip in [0x01, 0x10, 0x80, 0xff] {
                damaged[at] ^= flip;
                match check_agrees(schema, &damaged, &mut coords) {
                    true => accepted += 1,
                    false => refused += 1,
                }
                damaged[at] ^= flip;
            }
        }
        for len in 0..tuple.len() {
            assert!(!check_agrees(schema, &tuple[..len], &mut coords), "a truncation accepted");
        }
    }
    // Most changes land in a coordinate, which any finite value fits.
    assert!(accepted > 0 && refused > 0, "{accepted} accepted, {refused} refused");
}
