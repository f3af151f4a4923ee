//! Filters decided on stored rows answer exactly as filters over
//! decoded rows do.
//!
//! The executor decides two kinds of filter over a scan before any row
//! is fetched: an envelope test of a geometry column against a constant
//! (every `MBR*` function, and a named predicate under `MbrOnly`) on
//! the quads the heap keeps, and a predicate that reads only
//! non-geometry columns on the stored fields; `COUNT(*)` over them
//! fetches nothing. The oracle is the same statement planned over the
//! rows `SELECT *` decodes, held in a [`VirtualTable`], which has no
//! stored rows and so takes the decoded path. `ExactRtree`, `ExactGrid`
//! and `MbrOnly` — at one worker with every row decoded, and at two with
//! the caches dropped before every statement — must each give the
//! oracle's rows in its order, or its error.
//!
//! A storage error under such a filter is returned, not a count.
//!
//! An `UPDATE` or `DELETE` finds its rows as the `SELECT` under the same
//! WHERE does, so each acts on exactly the rows that `SELECT` returns, or
//! fails as it does and changes nothing.

mod common;

use common::shapes;
use jackpine::engine::{EngineError, EngineProfile, SpatialDb};
use jackpine::geom::Geometry;
use jackpine::sql::ast::Statement;
use jackpine::sql::exec::{execute_with, ExecOptions, MIN_PARALLEL_ROWS};
use jackpine::sql::provider::{CatalogProvider, TableProvider};
use jackpine::sql::virt::VirtualTable;
use jackpine::sql::{parser, plan_select, PlanOptions, ResultSet, SqlError};
use jackpine::storage::{StorageError, Value};
use std::sync::Arc;

/// The `MBR*` functions, each an envelope test in every mode.
const MBR_FUNCTIONS: [&str; 7] = [
    "MBREquals",
    "MBRDisjoint",
    "MBRIntersects",
    "MBRTouches",
    "MBRWithin",
    "MBRContains",
    "MBROverlaps",
];

/// `s (id BIGINT, n DOUBLE, k BIGINT, tag TEXT, geom GEOMETRY)`: the
/// shape corpus with its empty geometry and two `NULL`s, then the
/// lattice — past the serial cutoff, so two workers split a scan. `n`
/// mixes integers, floats and `NULL`s in one column; `tag` is text or
/// `NULL`; `k` is a small key with an ordered index.
fn table(profile: EngineProfile) -> Arc<SpatialDb> {
    let db = table_of(profile, usize::MAX);
    assert!(db.table("s").unwrap().heap.len() > MIN_PARALLEL_ROWS);
    db
}

/// [`table`] with only the first `lattice` points of the lattice.
fn table_of(profile: EngineProfile, lattice: usize) -> Arc<SpatialDb> {
    let mut rng = common::test_rng("stored filters");
    let shapes = shapes::shape_rows(&mut rng).into_iter().map(|w| w.as_deref().map(shapes::parse));
    let points = shapes::lattice().take(lattice).map(Some);
    let geoms: Vec<Option<Geometry>> = shapes.chain(points).collect();
    let rows: Vec<Vec<Value>> = geoms
        .into_iter()
        .enumerate()
        .map(|(i, g)| {
            let n = match i % 7 {
                0 => Value::Null,
                1 | 4 => Value::Float(i as f64 / 4.0),
                _ => Value::Int((i % 11) as i64),
            };
            let tag = if i % 5 == 0 { Value::Null } else { Value::Text(format!("t{}", i % 23)) };
            vec![
                Value::Int(i as i64),
                n,
                Value::Int((i % 13) as i64),
                tag,
                g.map_or(Value::Null, Value::Geom),
            ]
        })
        .collect();
    let db = Arc::new(SpatialDb::new(profile));
    db.execute("CREATE TABLE s (id BIGINT, n DOUBLE, k BIGINT, tag TEXT, geom GEOMETRY)").unwrap();
    db.insert_rows("s", &rows).unwrap();
    db.create_spatial_index("s", "geom").unwrap();
    db.create_ordered_index("s", "k").unwrap();
    db
}

/// The constants the envelope tests compare with: the pinned shapes,
/// the empty geometry and a window over part of the lattice.
fn constants() -> Vec<String> {
    let mut all: Vec<String> =
        shapes::PINNED.iter().map(|w| format!("ST_GeomFromText('{w}')")).collect();
    all.push(format!("ST_GeomFromText('{}')", shapes::EMPTY));
    all.push("ST_MakeEnvelope(3, 2, 40.5, 9)".into());
    all
}

const WINDOW: &str = "ST_MakeEnvelope(3, 2, 40.5, 9)";

/// Every statement: each `MBR*` function against each constant in both
/// argument orders, the named predicates, scalar predicates, `COUNT(*)`
/// with and without filters, projections of what filters keep, and
/// statements that fail on a row.
fn statements() -> Vec<String> {
    let mut all = Vec::new();
    for f in MBR_FUNCTIONS {
        for c in constants() {
            all.push(format!("SELECT id FROM s WHERE {f}(geom, {c})"));
            all.push(format!("SELECT id FROM s WHERE {f}({c}, geom)"));
        }
    }
    for p in shapes::ALL_KINDS {
        let name = p.sql_name();
        all.push(format!("SELECT id FROM s WHERE {name}(geom, {WINDOW})"));
        all.push(format!("SELECT COUNT(*) FROM s WHERE {name}({WINDOW}, geom)"));
    }
    let scalar = [
        "n > 3",
        "n = 2",
        "n >= 2.5",
        "n < id",
        "n = k",
        "n + 1 > id / 2",
        "-n < -2",
        "ABS(n - 3) < 1",
        "id BETWEEN 10 AND 20",
        "n BETWEEN 1 AND 2.5",
        "n BETWEEN NULL AND 3",
        "n IS NULL",
        "tag IS NULL",
        "tag IS NOT NULL",
        "tag = 't3'",
        "tag < 't15'",
        "UPPER(tag) = 'T3'",
        "CHAR_LENGTH(tag) > 2",
        "NOT (n > 1)",
        "n > 1 OR tag IS NULL",
        "k = 3",
        "k = 3 AND n > 1",
        "k = 3.0",
        "1 = 1",
        "0 = 1",
        "id > 60 AND geom IS NULL",
        // Errors, on the first row that reaches them.
        "tag + 1 > 0",
        "n > 1 AND tag + 1 > 0",
        "ABS(tag) > 0",
        "MBRIntersects(id, geom)",
        "MBRIntersects(n, ST_MakeEnvelope(0, 0, 1, 1))",
    ];
    for p in scalar {
        all.push(format!("SELECT id FROM s WHERE {p}"));
        all.push(format!("SELECT COUNT(*) FROM s WHERE {p}"));
    }
    all.extend(
        [
            "SELECT COUNT(*) FROM s",
            "SELECT COUNT(*), COUNT(*) FROM s WHERE MBRIntersects(geom, {W})",
            "SELECT COUNT(*) FROM s WHERE MBRIntersects(geom, {W}) AND tag IS NOT NULL",
            "SELECT COUNT(*) FROM s WHERE MBRIntersects(geom, NULL)",
            "SELECT COUNT(id) FROM s WHERE n > 1",
            "SELECT COUNT(*), SUM(n) FROM s WHERE MBRWithin(geom, {W})",
            "SELECT tag, COUNT(*) FROM s WHERE MBRWithin(geom, {W}) GROUP BY tag ORDER BY 1",
            "SELECT * FROM s WHERE MBRWithin(geom, {W}) AND n > 1",
            "SELECT id, tag, geom FROM s WHERE k = 3 AND n > 1 AND tag >= 't1'",
            "SELECT id FROM s WHERE MBRIntersects(geom, {W}) ORDER BY n DESC, id LIMIT 7",
        ]
        .map(|s| s.replace("{W}", WINDOW)),
    );
    all
}

/// One table, name `s`: the oracle's catalog.
struct Decoded(Arc<dyn TableProvider>);

impl CatalogProvider for Decoded {
    fn table(&self, name: &str) -> jackpine::sql::Result<Arc<dyn TableProvider>> {
        match name.eq_ignore_ascii_case("s") {
            true => Ok(self.0.clone()),
            false => Err(SqlError::Unresolved(format!("no table {name}"))),
        }
    }
}

/// A statement's rows, or its error's text.
type Answer = Result<ResultSet, String>;

/// An answer's rows in sorted order, or its error's text.
fn sorted(answer: &Answer) -> Result<Vec<String>, &String> {
    let mut rows: Vec<String> = answer.as_ref()?.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    Ok(rows)
}

/// The oracle's answers: every statement over the rows `SELECT *` of
/// `db` decodes, in `db`'s function mode.
fn oracle(db: &Arc<SpatialDb>, profile: EngineProfile, statements: &[String]) -> Vec<Answer> {
    let all = db.execute("SELECT * FROM s").unwrap();
    let schema = (**db.table("s").unwrap().schema()).clone();
    let decoded = Decoded(Arc::new(VirtualTable::new(schema, all.rows).unwrap()));
    let opts = PlanOptions { mode: profile.function_mode(), use_spatial_index: false };
    statements
        .iter()
        .map(|sql| {
            let Statement::Select(select) = parser::parse(sql).unwrap() else { unreachable!() };
            plan_select(&decoded, &select, &opts)
                .and_then(|plan| execute_with(&plan, &ExecOptions::default()))
                .map_err(|e| EngineError::from(e).to_string())
        })
        .collect()
}

#[test]
fn stored_filters_answer_as_decoded_rows_do() {
    let statements = statements();
    let profiles = [EngineProfile::ExactRtree, EngineProfile::ExactGrid, EngineProfile::MbrOnly];
    std::thread::scope(|scope| {
        for profile in profiles {
            let statements = &statements;
            scope.spawn(move || {
                let db = table(profile);
                let want = oracle(&db, profile, statements);
                let (mut rows, mut errors) = (0, 0);
                // Warm, every statement reads the rows the oracle's
                // `SELECT *` decoded; cold, it reads stored bytes. With
                // the index on, a probe finds the rows a scan keeps, in
                // the index's order.
                for index in [false, true] {
                    db.set_use_spatial_index(index);
                    for (workers, cold) in [(1, false), (2, true)] {
                        db.set_workers(workers);
                        let config = format!(
                            "{} at {workers} workers, cold {cold}, index {index}",
                            profile.name()
                        );
                        for (sql, want) in statements.iter().zip(&want) {
                            if cold {
                                db.clear_caches();
                            }
                            let have = db.execute(sql).map_err(|e| e.to_string());
                            match index {
                                false => assert_eq!(&have, want, "{config}: {sql}"),
                                true => assert_eq!(sorted(&have), sorted(want), "{config}: {sql}"),
                            }
                            rows += have.as_ref().map_or(0, |r| r.len());
                            errors += usize::from(have.is_err());
                        }
                    }
                }
                assert!(rows > 20_000 && errors >= 4 * 10, "{rows} rows, {errors} errors");
            });
        }
    });
}

/// `COUNT(*)` over an envelope or scalar filter fetches no row: the
/// in-place path ran, and the comparisons above test it.
#[test]
fn a_count_over_stored_filters_fetches_no_row() {
    let db = table(EngineProfile::ExactRtree);
    for index in [false, true] {
        db.set_use_spatial_index(index);
        for sql in [
            format!("SELECT COUNT(*) FROM s WHERE MBRIntersects(geom, {WINDOW})"),
            format!("SELECT COUNT(*) FROM s WHERE MBRContains({WINDOW}, geom) AND n > 1"),
            "SELECT COUNT(*) FROM s WHERE k = 3 AND tag IS NOT NULL".into(),
            "SELECT COUNT(*) FROM s".into(),
        ] {
            let (answer, trace) = db.execute_traced(&sql).unwrap();
            assert!(matches!(answer.scalar(), Some(Value::Int(n)) if *n > 0), "{sql}: {answer:?}");
            assert_eq!(trace.counter("heap_rows_fetched"), 0, "{sql}");
        }
    }
    assert_eq!(db.pool_stats().decoded_rows, 0, "nothing was decoded");
}

/// A page that cannot be read back under an envelope filter is a
/// storage error, not a count and not a panic, now that `COUNT(*)`
/// reads nothing but the quads.
#[test]
fn an_unreadable_page_under_a_count_is_a_storage_error() {
    let spill = std::env::temp_dir().join(format!("jackpine-stored-{}", std::process::id()));
    std::fs::remove_dir_all(&spill).ok();
    std::fs::create_dir_all(&spill).unwrap();
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE pts (id BIGINT, pad TEXT, geom GEOMETRY)").unwrap();
    db.table("pts").unwrap().heap.pool().set_spill_dir(Some(spill.clone()));
    let pad = "x".repeat(400);
    let rows: Vec<Vec<Value>> = (0..200)
        .map(|i| {
            let g = jackpine::geom::wkt::parse(&format!("POINT ({i} {i})")).unwrap();
            vec![Value::Int(i), Value::Text(pad.clone()), Value::Geom(g)]
        })
        .collect();
    db.insert_rows("pts", &rows).unwrap();
    // Through the index: a scan would collect its row ids first, and
    // `row_ids` reads every page and panics on one it cannot read.
    db.create_spatial_index("pts", "geom").unwrap();
    let count =
        "SELECT COUNT(*) FROM pts WHERE MBRIntersects(geom, ST_MakeEnvelope(-1, -1, 500, 500))";
    assert_eq!(db.execute(count).unwrap().scalar(), Some(&Value::Int(200)));

    db.set_pool_bytes(2 * jackpine::storage::PAGE_SIZE);
    let heap = std::fs::read_dir(&spill)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("heap"));
    let heap = heap.expect("the heap spilled");
    std::fs::OpenOptions::new().write(true).open(heap).unwrap().set_len(100).unwrap();
    match db.execute(count) {
        Err(EngineError::Storage(StorageError::Corrupt(_))) => {}
        other => panic!("a truncated spill file must fail the count: {other:?}"),
    }
    drop(db);
    std::fs::remove_dir_all(&spill).ok();
}

/// The WHERE of every statement above and every index-eligible function
/// call of `index_filters.rs`, each once, in order.
fn predicates() -> Vec<String> {
    let clauses = statements().into_iter().filter_map(|sql| {
        let (_, rest) = sql.split_once(" WHERE ")?;
        let rest = rest.split(" GROUP BY ").next()?;
        Some(rest.split(" ORDER BY ").next()?.to_string())
    });
    let mut all: Vec<String> = Vec::new();
    for p in clauses.chain(shapes::index_filter_predicates()) {
        if !all.contains(&p) {
            all.push(p);
        }
    }
    all
}

/// The sorted `id`s a statement returns, or its error's text.
fn ids(db: &Arc<SpatialDb>, sql: &str) -> Result<Vec<i64>, String> {
    let rs = db.execute(sql).map_err(|e| e.to_string())?;
    let mut ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    ids.sort_unstable();
    Ok(ids)
}

/// `DELETE FROM s WHERE p` removes exactly the ids `SELECT id FROM s
/// WHERE p` returns, and `UPDATE s SET tag = '<unique>' WHERE p` renames
/// exactly them; where the `SELECT` fails, each fails with its text and
/// changes nothing. Every predicate runs on a fresh engine opened from
/// one snapshot image, in each profile, with the index on and off, at
/// one and two workers: first the UPDATE, then the DELETE on what the
/// UPDATE left, each against the `SELECT` run just before it. The
/// image holds the shape corpus and the first 100 lattice points: a
/// write costs a row insert or two a row it acts on, and over the whole
/// lattice the matrix takes minutes. (The statements above split
/// filters over the full lattice at two workers; a write reads through
/// the same filters.)
#[test]
fn dml_acts_on_the_rows_select_returns() {
    let predicates = predicates();
    assert!(predicates.len() > 400, "{} predicates", predicates.len());
    let profiles = [EngineProfile::ExactRtree, EngineProfile::ExactGrid, EngineProfile::MbrOnly];
    std::thread::scope(|scope| {
        for profile in profiles {
            let predicates = &predicates;
            scope.spawn(move || {
                let image = table_of(profile, 100).snapshot_bytes().unwrap();
                let (mut acted, mut failed) = (0, 0);
                for index in [false, true] {
                    for workers in [1, 2] {
                        let config =
                            format!("{} at {workers} workers, index {index}", profile.name());
                        for (k, p) in predicates.iter().enumerate() {
                            let db = SpatialDb::open_from(&image[..]).unwrap();
                            db.set_use_spatial_index(index);
                            db.set_workers(workers);
                            let select = format!("SELECT id FROM s WHERE {p}");
                            let tag = format!("dml{k}");
                            let renamed = format!("SELECT id FROM s WHERE tag = '{tag}'");

                            let want = ids(&db, &select);
                            let generation = db.commit_generation();
                            let update = format!("UPDATE s SET tag = '{tag}' WHERE {p}");
                            match (&want, ids(&db, &update)) {
                                (Ok(want), Ok(n)) => {
                                    assert_eq!(n, [want.len() as i64], "{config}: {update}");
                                    assert_eq!(
                                        &ids(&db, &renamed).unwrap(),
                                        want,
                                        "{config}: {update}"
                                    );
                                    acted += want.len();
                                }
                                (Err(want), Err(have)) => {
                                    assert_eq!(&have, want, "{config}: {update}");
                                    assert_eq!(
                                        db.commit_generation(),
                                        generation,
                                        "{config}: {update}"
                                    );
                                    failed += 1;
                                }
                                (want, have) => panic!("{config}: {update}: {want:?} / {have:?}"),
                            }

                            let want = ids(&db, &select);
                            let before = ids(&db, "SELECT id FROM s").unwrap();
                            let delete = format!("DELETE FROM s WHERE {p}");
                            let have = ids(&db, &delete);
                            let after = ids(&db, "SELECT id FROM s").unwrap();
                            let removed: Vec<i64> = before
                                .iter()
                                .copied()
                                .filter(|id| after.binary_search(id).is_err())
                                .collect();
                            match (&want, have) {
                                (Ok(want), Ok(n)) => {
                                    assert_eq!(n, [want.len() as i64], "{config}: {delete}");
                                    assert_eq!(&removed, want, "{config}: {delete}");
                                }
                                (Err(want), Err(have)) => {
                                    assert_eq!(&have, want, "{config}: {delete}");
                                    assert_eq!(before, after, "{config}: {delete}");
                                }
                                (want, have) => panic!("{config}: {delete}: {want:?} / {have:?}"),
                            }
                        }
                    }
                }
                assert!(acted > 20_000 && failed >= 4 * 10, "{acted} rows, {failed} failures");
            });
        }
    });
}
