//! Isolated probes of single layers: each a fixed loop over seeded
//! inputs, timing only public functions of `geom`, `topo`, `index`,
//! `storage`, `sqlmini` and `engine`, with the estimator the workloads
//! use (the kernel's compute part before every sample, lower quartile
//! over repeats, divided by how slow the host's cores ran). They say
//! what a pin, a probe, a relate or an fsync costs on its own, next to
//! the whole statements the workloads time.

use crate::calib::{q1, Kernel, REF_COMPUTE_MS};
use crate::host::{self, Scratch};
use crate::spec::DATASET_SEED;
use jackpine_core::dataset::table_schemas;
use jackpine_core::load_dataset;
use jackpine_core::macrobench::{self, ScenarioConfig};
use jackpine_datagen::rng::Rng;
use jackpine_datagen::{TigerConfig, TigerDataset, EXTENT};
use jackpine_engine::wal::{Wal, WalRecord};
use jackpine_engine::{DurabilityOptions, EngineProfile, SpatialDb, SNAPSHOT_FILE};
use jackpine_geom::{wkb, wkt, Coord, Envelope, Geometry};
use jackpine_index::{LeafPager, RTree, RTreeConfig};
use jackpine_sqlmini::ast::Statement;
use jackpine_sqlmini::provider::{CatalogProvider, TableProvider};
use jackpine_sqlmini::{parser, plan_select, PlanOptions, SqlError};
use jackpine_storage::sync::Mutex;
use jackpine_storage::{BufferPool, HeapFile, Row, RowId, Schema, Value, PAGE_SIZE};
use jackpine_topo::{relate, relate_prepared, PreparedGeometry};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Collects probe samples in host time; [`Prober::finish`] divides by
/// how slow the host's cores ran while they were taken.
struct Prober {
    kernel: Kernel,
    repeats: usize,
    /// Compute part of every kernel sample, host ms.
    cal_compute: Vec<f64>,
    samples: Vec<(String, Vec<f64>)>,
}

impl Prober {
    /// Takes `repeats` samples of `passes` calls of `pass` each (enough
    /// of them that a sample lasts milliseconds), the kernel's compute
    /// part before each. A pass prepares what it needs untimed and
    /// returns how long its operations took and how many there were; the
    /// metric is the lower quartile of time per operation, in `unit_ns`
    /// nanoseconds.
    fn probe(
        &mut self,
        name: &str,
        unit_ns: f64,
        passes: usize,
        mut pass: impl FnMut() -> (Duration, u64),
    ) {
        let mut samples = Vec::with_capacity(self.repeats);
        for _ in 0..self.repeats {
            self.cal_compute.push(self.kernel.compute());
            let (mut took, mut ops) = (Duration::ZERO, 0);
            for _ in 0..passes {
                let (t, n) = pass();
                took += t;
                ops += n;
            }
            samples.push(took.as_nanos() as f64 / ops.max(1) as f64 / unit_ns);
        }
        self.samples.push((name.to_string(), samples));
    }

    /// The probes loop over little data that stays in the core's caches,
    /// which the memory part of the kernel would sweep out, so only the
    /// compute part is run, and it alone says how slow the host was.
    fn finish(self) -> Vec<(String, f64)> {
        let factor = q1(&self.cal_compute) / REF_COMPUTE_MS;
        self.samples.into_iter().map(|(name, samples)| (name, q1(&samples) / factor)).collect()
    }
}

/// How long `f` took; what it returns is dropped after the clock stops.
fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let t0 = Instant::now();
    let out = f();
    let took = t0.elapsed();
    drop(out);
    took
}

/// Schemas without rows: all the planner asks a catalog for.
struct SchemaOnly(Arc<Schema>);

impl TableProvider for SchemaOnly {
    fn schema(&self) -> Arc<Schema> {
        self.0.clone()
    }
    fn row_ids(&self) -> Vec<RowId> {
        Vec::new()
    }
    fn fetch(&self, id: RowId) -> jackpine_sqlmini::Result<Arc<Row>> {
        Err(SqlError::Type(format!("schema-only table has no row {id:?}")))
    }
    fn spatial_candidates(&self, _: usize, _: &Envelope) -> Option<Vec<RowId>> {
        Some(Vec::new())
    }
    fn ordered_candidates(&self, _: usize, _: &Value) -> Option<Vec<RowId>> {
        Some(Vec::new())
    }
    fn nearest(&self, _: usize, _: Coord, _: usize) -> Option<Vec<RowId>> {
        Some(Vec::new())
    }
}

struct SchemaCatalog(HashMap<String, Arc<SchemaOnly>>);

impl CatalogProvider for SchemaCatalog {
    fn table(&self, name: &str) -> jackpine_sqlmini::Result<Arc<dyn TableProvider>> {
        match self.0.get(&name.to_ascii_lowercase()) {
            Some(t) => Ok(t.clone()),
            None => Err(SqlError::Type(format!("no table {name}"))),
        }
    }
}

/// R-tree leaves held in memory behind the pager interface, counting
/// the reads that fault them back.
#[derive(Debug, Default)]
struct MemPager {
    leaves: Mutex<HashMap<u64, Vec<u8>>>,
    reads: AtomicU64,
}

impl LeafPager for MemPager {
    fn write(&self, leaf: u64, bytes: &[u8]) {
        self.leaves.lock().insert(leaf, bytes.to_vec());
    }
    fn read(&self, leaf: u64) -> Option<Vec<u8>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.leaves.lock().get(&leaf).cloned()
    }
}

/// Pairs of geometries whose envelopes meet, `a` from `left` and `b`
/// from `right`: what a filter step hands the refine step.
fn pairs(left: &[Geometry], right: &[Geometry], want: usize) -> Vec<(Geometry, Geometry)> {
    let tree = RTree::bulk_load(
        RTreeConfig::default(),
        right.iter().enumerate().map(|(i, g)| (g.envelope(), i)).collect(),
    );
    let mut out = Vec::new();
    for a in left {
        if let Some(i) = tree.window(&a.envelope()).into_iter().min() {
            if !std::ptr::eq(a, &right[i]) {
                out.push((a.clone(), right[i].clone()));
            }
        }
        if out.len() == want {
            break;
        }
    }
    out
}

/// Runs every probe and returns `(metric name, value)` in the order of
/// the per-layer list.
pub fn probes(seed: u64, scratch: &Scratch, smoke: bool) -> Result<Vec<(String, f64)>, String> {
    let io = |e: std::io::Error| format!("probe i/o: {e}");
    let scale = if smoke { 0.1 } else { 0.5 };
    let n = if smoke { 200 } else { 2000 };
    let mut p = Prober {
        kernel: Kernel::new(),
        repeats: if smoke { 2 } else { 5 },
        cal_compute: Vec::new(),
        samples: Vec::new(),
    };
    let data = TigerDataset::generate(&TigerConfig { seed: DATASET_SEED, scale });
    let mut rng = Rng::seed_from_u64(seed ^ 0x001a_7e25);

    // sqlmini: the statements of a few browsing sessions.
    let config = ScenarioConfig { seed, sessions: 6 };
    let sqls: Vec<String> = [
        macrobench::map_browsing(&data, &config),
        macrobench::geocoding(&data, &config),
        macrobench::reverse_geocoding(&data, &config),
    ]
    .into_iter()
    .flat_map(|s| s.steps.into_iter().map(|(_, sql)| sql))
    .collect();
    p.probe("sqlmini.tokenize_parse_ns", 1.0, 16, || {
        let took = timed(|| {
            for sql in &sqls {
                black_box(parser::parse(black_box(sql)).is_ok());
            }
        });
        (took, sqls.len() as u64)
    });
    let catalog = SchemaCatalog(
        table_schemas()
            .into_iter()
            .map(|(name, cols)| {
                let schema = Schema::new(cols).expect("benchmark schemas are valid");
                (name.to_string(), Arc::new(SchemaOnly(Arc::new(schema))))
            })
            .collect(),
    );
    let selects: Vec<_> = sqls
        .iter()
        .filter_map(|sql| match parser::parse(sql) {
            Ok(Statement::Select(s)) => Some(s),
            _ => None,
        })
        .collect();
    p.probe("sqlmini.plan_ns", 1.0, 16, || {
        let took = timed(|| {
            for s in &selects {
                black_box(plan_select(&catalog, s, &PlanOptions::default()).is_ok());
            }
        });
        (took, selects.len() as u64)
    });

    // index: an R-tree over the road envelopes.
    let road_envs: Vec<(Envelope, u64)> =
        data.roads.iter().enumerate().map(|(i, r)| (r.geom.envelope(), i as u64)).collect();
    let mut tree = RTree::bulk_load(RTreeConfig::default(), road_envs.clone());
    let windows: Vec<Envelope> = (0..n)
        .map(|_| {
            let x = rng.gen_range(EXTENT.min_x..EXTENT.max_x - 0.1);
            let y = rng.gen_range(EXTENT.min_y..EXTENT.max_y - 0.1);
            Envelope::new(x, y, x + 0.1, y + 0.1)
        })
        .collect();
    p.probe("index.window_probe_ns", 1.0, 4, || {
        let took = timed(|| {
            let mut hits = 0u64;
            for w in &windows {
                tree.query_window(w, |_, v| hits += *v);
            }
            black_box(hits);
        });
        (took, windows.len() as u64)
    });
    p.probe("index.nearest_probe_ns", 1.0, 1, || {
        let took = timed(|| {
            for w in &windows {
                black_box(tree.nearest(Coord::new(w.min_x, w.min_y), 1));
            }
        });
        (took, windows.len() as u64)
    });
    p.probe("index.insert_ns", 1.0, 1, || {
        let mut fresh = RTree::new(RTreeConfig::default());
        let items = &road_envs[..road_envs.len().min(2 * n)];
        let took = timed(|| {
            for (env, v) in items {
                fresh.insert(*env, *v);
            }
        });
        black_box(fresh.len());
        (took, items.len() as u64)
    });
    p.probe("index.bulk_load_ms", 1e6, 5, || {
        let items = road_envs.clone();
        let took = timed(|| {
            black_box(RTree::bulk_load(RTreeConfig::default(), items).len());
        });
        (took, 1)
    });
    let pager = Arc::new(MemPager::default());
    tree.attach_pager(pager.clone());
    tree.spill_leaves();
    p.probe("index.leaf_fault_ns", 1.0, 2, || {
        tree.clear_leaf_cache();
        let reads = pager.reads.load(Ordering::Relaxed);
        let took = timed(|| {
            let mut hits = 0u64;
            for w in &windows {
                tree.query_window(w, |_, v| hits += *v);
            }
            black_box(hits);
        });
        (took, pager.reads.load(Ordering::Relaxed) - reads)
    });
    drop(tree);

    // topo and geom: pairs the filter step would pass on.
    let points: Vec<Geometry> = data.pointlm.iter().map(|r| r.geometry()).collect();
    let lines: Vec<Geometry> = data.roads.iter().map(|r| r.geometry()).collect();
    let mut polys: Vec<Geometry> = data.areawater.iter().map(|r| r.geometry()).collect();
    polys.extend(data.counties.iter().map(|r| r.geometry()));
    let areas: Vec<Geometry> = data.arealm.iter().map(|r| r.geometry()).collect();
    let want = n / 4;
    let classes = [
        ("point_poly", 20, pairs(&points, &polys, want)),
        ("line_line", 8, pairs(&lines, &lines[lines.len() / 2..], want)),
        ("line_poly", 4, pairs(&lines, &polys, want)),
        ("poly_poly", 1, pairs(&areas, &polys, want)),
    ];
    for (class, passes, class_pairs) in &classes {
        p.probe(&format!("topo.relate_ns.{class}"), 1.0, *passes, || {
            let took = timed(|| {
                for (a, b) in class_pairs {
                    black_box(relate(a, b).is_ok());
                }
            });
            (took, class_pairs.len() as u64)
        });
    }
    for (class, passes, class_pairs) in &classes {
        let prepared: Vec<_> = class_pairs
            .iter()
            .map(|(a, b)| (PreparedGeometry::new(a), PreparedGeometry::new(b)))
            .collect();
        p.probe(&format!("topo.relate_prepared_ns.{class}"), 1.0, 4 * passes, || {
            let took = timed(|| {
                for (a, b) in &prepared {
                    black_box(relate_prepared(a, b).is_ok());
                }
            });
            (took, prepared.len() as u64)
        });
    }
    let sample: Vec<&Geometry> =
        lines.iter().step_by(lines.len() / want + 1).chain(polys.iter().take(want)).collect();
    p.probe("geom.prepare_ns", 1.0, 10, || {
        let took = timed(|| {
            for g in &sample {
                black_box(PreparedGeometry::new(g).envelope().min_x);
            }
        });
        (took, sample.len() as u64)
    });
    let encoded: Vec<Vec<u8>> = sample.iter().map(|g| wkb::encode(g)).collect();
    p.probe("geom.wkb_decode_ns", 1.0, 30, || {
        let took = timed(|| {
            for bytes in &encoded {
                black_box(wkb::decode(bytes).is_ok());
            }
        });
        (took, encoded.len() as u64)
    });
    let texts: Vec<String> = sample.iter().map(|g| wkt::write(g)).collect();
    p.probe("geom.wkt_parse_ns", 1.0, 8, || {
        let took = timed(|| {
            for text in &texts {
                black_box(wkt::parse(text).is_ok());
            }
        });
        (took, texts.len() as u64)
    });

    // storage: the pool with a real spill directory, then a heap.
    let spill = scratch.path("probe-spill");
    std::fs::create_dir_all(&spill).map_err(io)?;
    let pool = BufferPool::new();
    pool.set_spill_dir(Some(spill));
    let file = pool.register("probe");
    let pages = 256u32;
    let tuple = vec![7u8; 1024];
    for page in 0..pages {
        pool.pin(file, page).write().insert(&tuple);
    }
    p.probe("storage.pool_pin_hit_ns", 1.0, 30, || {
        let took = timed(|| {
            for i in 0..n as u32 {
                black_box(pool.pin(file, i % pages).read().slot_count());
            }
        });
        (took, n as u64)
    });
    // A sixteenth of the pages fit: a sequential sweep misses every time.
    pool.set_capacity_bytes(pages as usize / 16 * PAGE_SIZE);
    p.probe("storage.pool_cold_pin_ns", 1.0, 16, || {
        let took = timed(|| {
            for page in 0..pages {
                black_box(pool.pin(file, page).read().slot_count());
            }
        });
        (took, u64::from(pages))
    });
    p.probe("storage.pool_dirty_evict_ns", 1.0, 10, || {
        let took = timed(|| {
            for page in 0..pages {
                // Taking the write guard marks the frame dirty, so its
                // eviction a few pins later writes it back.
                black_box(pool.pin(file, page).write().slot_count());
            }
        });
        (took, u64::from(pages))
    });
    drop(pool);

    let road_schema = table_schemas()
        .into_iter()
        .find(|(name, _)| *name == "roads")
        .map(|(_, cols)| Arc::new(Schema::new(cols).expect("benchmark schemas are valid")))
        .expect("roads is a benchmark table");
    let rows: Vec<Row> = data
        .roads
        .iter()
        .take(2 * n)
        .map(|r| {
            vec![
                Value::Int(r.id),
                Value::Text(r.name.clone()),
                Value::Int(r.zip),
                Value::Int(r.from_addr),
                Value::Int(r.to_addr),
                Value::Geom(r.geometry()),
            ]
        })
        .collect();
    let heap = HeapFile::new(road_schema.clone());
    let mut ids = Vec::with_capacity(rows.len());
    for row in &rows {
        ids.push(heap.insert(row.clone()).map_err(|e| format!("heap insert: {e}"))?);
    }
    for (name, cold) in
        [("storage.heap_get_cached_ns", false), ("storage.heap_get_decode_ns", true)]
    {
        p.probe(name, 1.0, if cold { 3 } else { 30 }, || {
            if cold {
                heap.clear_cache();
            }
            let took = timed(|| {
                for id in &ids {
                    black_box(heap.get(*id).is_ok());
                }
            });
            (took, ids.len() as u64)
        });
    }
    p.probe("storage.heap_insert_ns", 1.0, 3, || {
        let fresh = HeapFile::new(road_schema.clone());
        let batch = rows.clone();
        let count = batch.len() as u64;
        let took = timed(|| {
            for row in batch {
                black_box(fresh.insert(row).is_ok());
            }
        });
        (took, count)
    });

    // engine: the log, a snapshot, a durable open.
    let records: Vec<WalRecord> = rows
        .iter()
        .zip(&ids)
        .map(|(row, id)| WalRecord::InsertAt { table: "roads".into(), id: *id, row: row.clone() })
        .collect();
    let wal_path = scratch.path("probe.jkwl");
    p.probe("engine.wal_append_ns", 1.0, 1, || {
        let wal = Wal::create(&wal_path, false, 1).expect("probe WAL is creatable");
        let took = timed(|| {
            for record in &records {
                black_box(wal.append(record).is_ok());
            }
        });
        (took, records.len() as u64)
    });
    p.probe("engine.wal_fsync_ns", 1.0, 3, || {
        let wal = Wal::create(&wal_path, false, 1).expect("probe WAL is creatable");
        let mut took = Duration::ZERO;
        let syncs = 16;
        for record in records.iter().take(syncs) {
            black_box(wal.write_frames(std::slice::from_ref(record)).is_ok());
            took += timed(|| {
                black_box(wal.sync().is_ok());
            });
        }
        (took, syncs as u64)
    });
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    load_dataset(&db, &data).map_err(|e| format!("probe load: {e}"))?;
    let durable = scratch.path("probe-durable");
    std::fs::create_dir_all(&durable).map_err(io)?;
    let image = durable.join(SNAPSHOT_FILE);
    p.probe("engine.snapshot_save_ms", 1e6, 1, || (timed(|| db.save(&image)), 1));
    drop(db);
    let copy = scratch.path("probe-reopen");
    p.probe("engine.open_durable_ms", 1e6, 1, || {
        let _ = std::fs::remove_dir_all(&copy);
        host::copy_dir(&durable, &copy).expect("probe directory is copyable");
        let options = DurabilityOptions { sync_each_append: true };
        (timed(|| SpatialDb::open_durable(&copy, EngineProfile::ExactRtree, options)), 1)
    });
    Ok(p.finish())
}
