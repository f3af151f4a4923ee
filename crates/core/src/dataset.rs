//! Loading the synthetic TIGER-like dataset into an engine instance:
//! schema creation, bulk row insertion and index builds.

use crate::{ctx, Result};
use jackpine_datagen::{AreaLandmark, AreaWater, County, PointLandmark, Road, TigerDataset};
use jackpine_engine::SpatialDb;
use jackpine_storage::{ColumnDef, DataType, ValueRef};
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
/// transaction per row; its rows are encoded straight into the
/// transaction's staging buffer and go into the heap a page run at a
/// time. It stays bounded because every row of an open transaction keeps
/// a visibility entry in its heap until the commit settles it, and that
/// map keeps the capacity it grew to — one transaction for a whole table
/// would leave it sized for every row — and because the staging buffer
/// holds the whole batch's bytes until the commit.
const LOAD_BATCH: usize = 1024;

/// Inserts one row per item of `items` into `table`, [`LOAD_BATCH`] rows
/// per transaction. `lend` lends each item's fields as the row's values:
/// nothing is cloned or built per row.
fn load<T, const N: usize>(
    db: &SpatialDb,
    table: &str,
    items: &[T],
    lend: impl Fn(&T) -> [ValueRef<'_>; N],
) -> Result<()> {
    for batch in items.chunks(LOAD_BATCH) {
        ctx(db.insert_rows(table, batch.iter().map(&lend)), format!("loading {table}"))?;
    }
    Ok(())
}

/// A `county` row, lent from its record.
fn county(c: &County) -> [ValueRef<'_>; 3] {
    [ValueRef::Int(c.id), ValueRef::Text(&c.name), ValueRef::Geom((&c.geom).into())]
}

/// A `roads` row, lent from its record.
fn road(r: &Road) -> [ValueRef<'_>; 6] {
    [
        ValueRef::Int(r.id),
        ValueRef::Text(&r.name),
        ValueRef::Int(r.zip),
        ValueRef::Int(r.from_addr),
        ValueRef::Int(r.to_addr),
        ValueRef::Geom((&r.geom).into()),
    ]
}

/// An `arealm` row, lent from its record.
fn area_landmark(a: &AreaLandmark) -> [ValueRef<'_>; 4] {
    let geom = ValueRef::Geom((&a.geom).into());
    [ValueRef::Int(a.id), ValueRef::Text(&a.name), ValueRef::Text(&a.category), geom]
}

/// A `pointlm` row, lent from its record.
fn point_landmark(p: &PointLandmark) -> [ValueRef<'_>; 4] {
    let geom = ValueRef::Geom((&p.geom).into());
    [ValueRef::Int(p.id), ValueRef::Text(&p.name), ValueRef::Text(&p.category), geom]
}

/// An `areawater` row, lent from its record.
fn area_water(w: &AreaWater) -> [ValueRef<'_>; 3] {
    [ValueRef::Int(w.id), ValueRef::Text(&w.name), ValueRef::Geom((&w.geom).into())]
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
    load(db, "county", &data.counties, county)?;
    load(db, "roads", &data.roads, road)?;
    load(db, "arealm", &data.arealm, area_landmark)?;
    load(db, "pointlm", &data.pointlm, point_landmark)?;
    load(db, "areawater", &data.areawater, area_water)?;
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
    use jackpine_geom::Geometry;
    use jackpine_storage::{Row, Value};

    /// Checks that each of `items`, lent by `lend`, is stored as exactly
    /// the bytes of the row `own` builds of it, as the loader built rows
    /// before they were lent; returns how many were checked.
    fn lent_as_owned<T, const N: usize>(
        items: &[T],
        lend: impl Fn(&T) -> [ValueRef<'_>; N],
        own: impl Fn(&T) -> Row,
    ) -> usize {
        let mut lent = Vec::new();
        for (i, item) in items.iter().enumerate() {
            lent.clear();
            Value::store_row_into(&lend(item), &mut lent);
            assert!(lent == Value::store_row(&own(item)), "record {i} is stored differently");
        }
        items.len()
    }

    #[test]
    fn every_lent_record_encodes_as_the_row_it_used_to_be() {
        let data = TigerDataset::generate(&TigerConfig { seed: 7, scale: 0.05 });
        let checked = lent_as_owned(&data.counties, county, |c| {
            let geom = Value::Geom(Geometry::Polygon(c.geom.clone()));
            vec![Value::Int(c.id), Value::Text(c.name.clone()), geom]
        }) + lent_as_owned(&data.roads, road, |r| {
            vec![
                Value::Int(r.id),
                Value::Text(r.name.clone()),
                Value::Int(r.zip),
                Value::Int(r.from_addr),
                Value::Int(r.to_addr),
                Value::Geom(Geometry::LineString(r.geom.clone())),
            ]
        }) + lent_as_owned(&data.arealm, area_landmark, |a| {
            let geom = Value::Geom(Geometry::Polygon(a.geom.clone()));
            vec![
                Value::Int(a.id),
                Value::Text(a.name.clone()),
                Value::Text(a.category.clone()),
                geom,
            ]
        }) + lent_as_owned(&data.pointlm, point_landmark, |p| {
            let geom = Value::Geom(Geometry::Point(p.geom));
            vec![
                Value::Int(p.id),
                Value::Text(p.name.clone()),
                Value::Text(p.category.clone()),
                geom,
            ]
        }) + lent_as_owned(&data.areawater, area_water, |w| {
            let geom = Value::Geom(Geometry::Polygon(w.geom.clone()));
            vec![Value::Int(w.id), Value::Text(w.name.clone()), geom]
        });
        assert_eq!(checked, data.total_rows());
        assert_eq!(data.roads.len(), 1000, "scale 0.05");
    }

    /// FNV-1a, 64 bits.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    #[test]
    fn the_loaded_image_is_byte_for_byte_the_one_owned_rows_made() {
        // The snapshot image of a scale-0.05 load: every tuple, page and
        // index as the loader wrote them when it built a `Row` per record.
        // (Re-pinned when snapshot format v5 replaced v4, when v6
        // replaced v5 — the v4 image of 209,612 bytes, the v5 image of
        // 196,171 bytes and the v6 image of 148,331 bytes restore the same
        // rows at the same row ids on the same pages — and when v7 copied
        // the heap's own pages, whose rows are stored compact: more rows
        // fit a page, so the same rows sit on fewer pages.)
        let data = TigerDataset::generate(&TigerConfig { seed: 7, scale: 0.05 });
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        load_dataset(&db, &data).unwrap();
        let image = db.snapshot_bytes().unwrap();
        println!("loaded image: {} bytes, FNV-1a {:016x}", image.len(), fnv1a(&image));
        assert_eq!((image.len(), fnv1a(&image)), (148_296, 0x8d8c_de15_be97_833c));
    }

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
