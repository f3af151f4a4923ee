//! Loading the synthetic TIGER-like dataset into an engine instance:
//! schema creation, bulk row insertion and index builds.

use crate::{ctx, Result};
use jackpine_datagen::TigerDataset;
use jackpine_engine::SpatialDb;
use jackpine_geom::Geometry;
use jackpine_storage::{ColumnDef, DataType, Row, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What was loaded, with table cardinalities and build times — the raw
/// material of the paper's dataset-inventory table (T1).
#[derive(Clone, Debug)]
pub struct LoadSummary {
    /// `(table name, row count)` pairs in load order.
    pub tables: Vec<(String, usize)>,
    /// Wall time spent inserting rows.
    pub load_time: Duration,
    /// Wall time spent building spatial + ordered indexes.
    pub index_time: Duration,
}

impl LoadSummary {
    /// Total rows across tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|(_, n)| n).sum()
    }
}

/// The five benchmark tables and their schemas.
pub fn table_schemas() -> Vec<(&'static str, Vec<ColumnDef>)> {
    vec![
        (
            "county",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("geom", DataType::Geometry),
            ],
        ),
        (
            "roads",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("zip", DataType::Int),
                ColumnDef::new("from_addr", DataType::Int),
                ColumnDef::new("to_addr", DataType::Int),
                ColumnDef::new("geom", DataType::Geometry),
            ],
        ),
        (
            "arealm",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("category", DataType::Text),
                ColumnDef::new("geom", DataType::Geometry),
            ],
        ),
        (
            "pointlm",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("category", DataType::Text),
                ColumnDef::new("geom", DataType::Geometry),
            ],
        ),
        (
            "areawater",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("geom", DataType::Geometry),
            ],
        ),
    ]
}

/// Rows per load transaction. A batch commits far fewer times than one
/// transaction per row, and its rows go in as bytes, one encoding each.
/// It stays bounded because every row of an open transaction keeps a
/// visibility entry in its heap until the commit settles it, and that
/// map keeps the capacity it grew to: one transaction for a whole table
/// would leave it sized for every row.
const LOAD_BATCH: usize = 1024;

/// Inserts one row per item of `items`, built by `row`, into `table`,
/// [`LOAD_BATCH`] rows per transaction.
fn load<T>(db: &SpatialDb, table: &str, items: &[T], row: impl Fn(&T) -> Row) -> Result<()> {
    for batch in items.chunks(LOAD_BATCH) {
        ctx(db.insert_rows(table, batch.iter().map(&row)), format!("loading {table}"))?;
    }
    Ok(())
}

/// Loads `data` into `db`: creates the five tables, inserts every record
/// in transactions of 1,024 rows, then builds a spatial index on each
/// geometry column plus the ordered indexes the geocoding scenarios rely
/// on (`roads.name`, `roads.zip`, `arealm.id`, `county.name`), one
/// `create_indexes` — one heap scan — per table.
pub fn load_dataset(db: &Arc<SpatialDb>, data: &TigerDataset) -> Result<LoadSummary> {
    for (name, cols) in table_schemas() {
        ctx(db.create_table(name, cols), format!("creating table {name}"))?;
    }

    let start = Instant::now();
    load(db, "county", &data.counties, |c| {
        vec![
            Value::Int(c.id),
            Value::Text(c.name.clone()),
            Value::Geom(Geometry::Polygon(c.geom.clone())),
        ]
    })?;
    load(db, "roads", &data.roads, |r| {
        vec![
            Value::Int(r.id),
            Value::Text(r.name.clone()),
            Value::Int(r.zip),
            Value::Int(r.from_addr),
            Value::Int(r.to_addr),
            Value::Geom(Geometry::LineString(r.geom.clone())),
        ]
    })?;
    load(db, "arealm", &data.arealm, |a| {
        vec![
            Value::Int(a.id),
            Value::Text(a.name.clone()),
            Value::Text(a.category.clone()),
            Value::Geom(Geometry::Polygon(a.geom.clone())),
        ]
    })?;
    load(db, "pointlm", &data.pointlm, |p| {
        vec![
            Value::Int(p.id),
            Value::Text(p.name.clone()),
            Value::Text(p.category.clone()),
            Value::Geom(Geometry::Point(p.geom)),
        ]
    })?;
    load(db, "areawater", &data.areawater, |w| {
        vec![
            Value::Int(w.id),
            Value::Text(w.name.clone()),
            Value::Geom(Geometry::Polygon(w.geom.clone())),
        ]
    })?;
    let load_time = start.elapsed();

    let start = Instant::now();
    for (table, ordered) in [
        ("county", &["name"][..]),
        ("roads", &["name", "zip"]),
        ("arealm", &["id"]),
        ("pointlm", &[]),
        ("areawater", &[]),
    ] {
        ctx(db.create_indexes(table, &["geom"], ordered), format!("indexing {table}"))?;
    }
    let index_time = start.elapsed();

    Ok(LoadSummary {
        tables: vec![
            ("county".into(), data.counties.len()),
            ("roads".into(), data.roads.len()),
            ("arealm".into(), data.arealm.len()),
            ("pointlm".into(), data.pointlm.len()),
            ("areawater".into(), data.areawater.len()),
        ],
        load_time,
        index_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jackpine_datagen::TigerConfig;
    use jackpine_engine::EngineProfile;

    #[test]
    fn load_small_dataset_into_every_profile() {
        let data = TigerDataset::generate(&TigerConfig { seed: 7, scale: 0.02 });
        for profile in EngineProfile::ALL {
            let db = Arc::new(SpatialDb::new(profile));
            let summary = load_dataset(&db, &data).unwrap();
            assert_eq!(summary.total_rows(), data.total_rows(), "profile {profile}");
            let r = db.execute("SELECT COUNT(*) FROM roads").unwrap();
            assert_eq!(
                r.scalar().unwrap().as_i64().unwrap() as usize,
                data.roads.len(),
                "profile {profile}"
            );
            // Spatial index live: window query through SQL.
            let r = db
                .execute(
                    "SELECT COUNT(*) FROM pointlm WHERE MBRIntersects(geom, \
                     ST_MakeEnvelope(-106, 25.8, -93.5, 36.5))",
                )
                .unwrap();
            assert_eq!(r.scalar().unwrap().as_i64().unwrap() as usize, data.pointlm.len());
        }
    }

    #[test]
    fn geocoding_indexes_usable() {
        let data = TigerDataset::generate(&TigerConfig { seed: 7, scale: 0.02 });
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        load_dataset(&db, &data).unwrap();
        let name = &data.roads[0].name;
        let r = db.execute(&format!("SELECT COUNT(*) FROM roads WHERE name = '{name}'")).unwrap();
        assert!(r.scalar().unwrap().as_i64().unwrap() >= 1);
    }
}
