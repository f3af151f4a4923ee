//! The compact row codec a snapshot stores rows in
//! (`jackpine::storage::compact`): every tuple a TIGER load stores and
//! every geometry of the shape corpus compacts and expands back to the
//! very bytes the heap holds. The codec's edge cases (NULL, the extreme
//! integers, `-0.0` and NaN, empty and long texts, every geometry kind,
//! a ring closed on `-0`) are its unit tests.

use jackpine::bench::dataset::load_dataset;
use jackpine::datagen::{TigerConfig, TigerDataset};
use jackpine::engine::{EngineProfile, SpatialDb};
use jackpine::storage::compact::{compact_tuple, expand_tuple};
use jackpine::storage::{StorageError, Value};
use std::sync::Arc;

mod common;
use common::shapes;

/// The compact form of `tuple`, checked to expand back to it and to be
/// as long as the codec's counting walks say.
fn round_trip(tuple: &[u8]) -> Vec<u8> {
    let mut compact = Vec::new();
    compact_tuple(tuple, &mut compact).unwrap();
    let mut len = 0;
    compact_tuple(tuple, &mut len).unwrap();
    assert_eq!(len, compact.len(), "the counted compact length");
    let mut back = Vec::new();
    expand_tuple(&compact, &mut back).unwrap();
    assert!(back == tuple, "{tuple:?} expanded to {back:?}");
    let mut len = 0;
    expand_tuple(&compact, &mut len).unwrap();
    assert_eq!(len, tuple.len(), "the counted expanded length");
    compact
}

#[test]
fn every_tuple_of_a_tiger_load_round_trips() {
    let data = TigerDataset::generate(&TigerConfig { seed: 7, scale: 0.2 });
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    load_dataset(&db, &data).unwrap();
    let mut rows = 0;
    for name in db.table_names() {
        let heap = &db.table(&name).unwrap().heap;
        let (mut stored, mut compact) = (0, 0);
        heap.scan_tuples(&heap.row_ids(), |_, tuple| {
            stored += tuple.len();
            compact += round_trip(tuple).len();
            rows += 1;
            Ok::<(), StorageError>(())
        })
        .unwrap();
        assert!(compact < stored, "{name}: {compact} compact bytes of {stored}");
        println!("{name}: {compact} / {stored} = {:.3}", compact as f64 / stored as f64);
    }
    assert_eq!(rows, data.total_rows());
}

#[test]
fn every_geometry_of_the_shape_corpus_round_trips() {
    let mut rng = common::test_rng("compact-rows");
    let corpus = shapes::shape_rows(&mut rng).into_iter().flatten();
    let geometries: Vec<_> = corpus
        .chain([shapes::POISON.to_string()])
        .map(|text| shapes::parse(&text))
        .chain(shapes::lattice())
        .collect();
    assert!(geometries.len() > shapes::corpus(&mut rng).len() + 4_000);
    for g in geometries {
        let tuple = Value::encode_row(&[Value::Int(1), Value::Geom(g.clone())]);
        // The arity, the integer, and the geometry under tag 4: every
        // corpus ring closes on its first vertex's bits.
        assert_eq!(round_trip(&tuple)[3], 4, "{g:?} is stored whole");
    }
}
