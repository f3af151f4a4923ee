//! An index probe answers as a scan does. Every function the planner
//! may serve with a spatial-index filter step (`Func::is_index_filter`),
//! taken from the function registry so that a later index-eligible
//! function is covered without a new line, is called in both argument
//! orders against a window, the empty geometry, a point, `NULL` and a
//! number (and `ST_DWithin` at a `NULL` distance too), over the shape
//! corpus (its empty geometry and `NULL`s included) and over an empty
//! table. Each statement must give the same rows, in any order, or the
//! same error, with the spatial index on and off, in `ExactRtree`,
//! `ExactGrid` and `MbrOnly`.

mod common;

use common::shapes;
use jackpine::engine::{EngineProfile, SpatialDb};
use std::sync::Arc;

/// Every index-eligible function against every constant, both ways,
/// over `table`.
fn statements(table: &str) -> Vec<String> {
    let predicates = shapes::index_filter_predicates();
    predicates.iter().map(|p| format!("SELECT id FROM {table} WHERE {p}")).collect()
}

#[test]
fn an_index_probe_answers_as_a_scan_does() {
    let statements = [statements("shapes"), statements("nothing")].concat();
    assert!(statements.len() >= 2 * 16 * 10, "{} statements", statements.len());
    let rows = shapes::shape_rows(&mut common::test_rng("index filters"));
    let (mut differ, mut found, mut probed) = (Vec::new(), 0, 0);
    for profile in [EngineProfile::ExactRtree, EngineProfile::ExactGrid, EngineProfile::MbrOnly] {
        let db = Arc::new(SpatialDb::new(profile));
        shapes::create_tables(&db, &rows);
        db.execute("CREATE TABLE nothing (id BIGINT, geom GEOMETRY)").unwrap();
        db.create_spatial_index("nothing", "geom").unwrap();
        for sql in &statements {
            let mut answer = |index: bool| {
                db.set_use_spatial_index(index);
                let (answer, probes) = match db.execute_traced(sql) {
                    Ok((rs, trace)) => (Ok(rs), trace.counter("index_probes")),
                    Err(e) => (Err(e.to_string()), 0),
                };
                probed += usize::from(index && probes > 0);
                answer.map(|rs| {
                    let mut ids: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
                    ids.sort();
                    ids
                })
            };
            let (off, on) = (answer(false), answer(true));
            found += off.as_ref().map_or(0, Vec::len);
            if off != on {
                differ.push(format!("{}: {sql}\n  off: {off:?}\n  on:  {on:?}", profile.name()));
            }
        }
    }
    assert!(
        differ.is_empty(),
        "{} statements answer differently with the index on:\n{}",
        differ.len(),
        differ.join("\n")
    );
    assert!(found > 0, "no statement found a row");
    assert!(probed > statements.len(), "only {probed} statements probed the index");
}
