//! The statements each workload runs, drawn once from the seed. The
//! engine sees only the SQL text.

use crate::spec::{declared, Kind};
use jackpine_core::macrobench::{self, ScenarioConfig};
use jackpine_core::micro;
use jackpine_datagen::rng::Rng;
use jackpine_datagen::{TigerDataset, EXTENT};
use jackpine_geom::{wkt, Envelope};
use jackpine_storage::{Row, Value};

/// A group of statements whose latency is reported together.
pub struct Class {
    pub name: String,
    /// Index into [`crate::spec::Declared::families`].
    pub family: usize,
}

/// What a write-workload statement does, for the model that checks it.
pub enum Effect {
    /// A read-workload statement: checked by digest, not by the model.
    Query,
    Insert {
        table: usize,
        row: Row,
    },
    /// `SET name = .. WHERE id >= lo AND id < hi`.
    Rename {
        table: usize,
        lo: i64,
        hi: i64,
        name: String,
    },
    Delete {
        table: usize,
        lo: i64,
        hi: i64,
    },
    /// `COUNT(*) .. WHERE MBRIntersects(geom, window)`.
    CountWindow {
        table: usize,
        window: Envelope,
    },
    /// Not SQL: `SpatialDb::checkpoint`.
    Checkpoint,
}

pub struct Stmt {
    pub class: usize,
    pub sql: String,
    pub effect: Effect,
}

/// Tables the write workload touches, by [`Effect`] table index.
pub const WRITE_TABLES: [&str; 3] = ["pointlm", "roads", "arealm"];

/// A workload's statements: a table of them and, per round, which run.
pub struct Plan {
    pub classes: Vec<Class>,
    pub stmts: Vec<Stmt>,
    pub rounds: Vec<Vec<u32>>,
}

impl Plan {
    /// FNV-1a over the SQL of one round, statement by statement.
    pub fn round_digest(&self, round: usize) -> u64 {
        let mut text = Vec::new();
        for i in &self.rounds[round] {
            text.extend_from_slice(self.stmts[*i as usize].sql.as_bytes());
            text.push(b'\n');
        }
        crate::digest::fnv1a(&text)
    }

    fn class(&mut self, name: String, family: &str) -> usize {
        if let Some(i) = self.classes.iter().position(|c| c.name == name) {
            return i;
        }
        let family = declared()
            .families()
            .iter()
            .position(|f| *f == family)
            .expect("every family has a family.*_ms metric in BENCHMARK.json");
        self.classes.push(Class { name, family });
        self.classes.len() - 1
    }

    fn push(&mut self, round: usize, class: usize, sql: String, effect: Effect) {
        self.stmts.push(Stmt { class, sql, effect });
        self.rounds[round].push((self.stmts.len() - 1) as u32);
    }
}

/// Builds the statements of `rounds` rounds of a workload.
pub fn plan(kind: Kind, data: &TigerDataset, seed: u64, rounds: usize) -> Plan {
    let mut plan =
        Plan { classes: Vec::new(), stmts: Vec::new(), rounds: vec![Vec::new(); rounds] };
    match kind {
        Kind::RefineWarm => refine(&mut plan, data, seed),
        Kind::BrowseWarm | Kind::ColdBounded => browse(&mut plan, data, seed),
        Kind::IngestDurable => ingest(&mut plan, seed),
    }
    plan
}

/// Every round: the micro suite, then one M4 session. The suite has no
/// parameters (its operands are constants of the dataset), so the seed
/// only orders the rivers the M4 sessions work through, one a round.
fn refine(plan: &mut Plan, data: &TigerDataset, seed: u64) {
    let mut suite = micro::topo_suite(data);
    suite.extend(micro::analysis_suite(data));
    let mut micro_stmts = Vec::new();
    for q in suite {
        let family = match q.id {
            "T08" | "T09" | "T10" => "topo_join",
            id if id.starts_with('T') => "topo_const",
            _ => "analysis",
        };
        let class = plan.class(q.id.to_string(), family);
        plan.stmts.push(Stmt { class, sql: q.sql, effect: Effect::Query });
        micro_stmts.push((plan.stmts.len() - 1) as u32);
    }
    // A session is determined by its river, so many sessions hold few
    // distinct ones; keep the first of each, in the order the seed drew.
    let drawn = macrobench::flood_risk(data, &ScenarioConfig { seed, sessions: 64 });
    let mut sessions: Vec<Vec<u32>> = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for steps in drawn.steps.chunks(5) {
        if seen.contains(&steps[0].1.as_str()) {
            continue;
        }
        seen.push(&steps[0].1);
        let mut session = Vec::new();
        for (label, sql) in steps {
            let class = plan.class(format!("M4 {label}"), "flood");
            plan.stmts.push(Stmt { class, sql: sql.clone(), effect: Effect::Query });
            session.push((plan.stmts.len() - 1) as u32);
        }
        sessions.push(session);
    }
    for (r, round) in plan.rounds.iter_mut().enumerate() {
        round.extend(&micro_stmts);
        round.extend(&sessions[r % sessions.len()]);
    }
}

/// Sessions of each browsing scenario per round.
const BROWSE_SESSIONS: usize = 40;

/// Every round: 40 fresh sessions each of M1, M2 and M3. Fresh, because
/// one round's 40 map centres land on denser or sparser country than
/// another's; over a run's rounds every seed samples the same country.
fn browse(plan: &mut Plan, data: &TigerDataset, seed: u64) {
    for r in 0..plan.rounds.len() {
        let config = ScenarioConfig {
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(r as u64),
            sessions: BROWSE_SESSIONS,
        };
        for (scenario, family) in [
            (macrobench::map_browsing(data, &config), "window"),
            (macrobench::geocoding(data, &config), "lookup"),
            (macrobench::reverse_geocoding(data, &config), "knn"),
        ] {
            for (label, sql) in scenario.steps {
                let class = plan.class(format!("{} {label}", scenario.id), family);
                plan.push(r, class, sql, Effect::Query);
            }
        }
    }
}

/// Batches a round of the write workload is made of; the checkpoint
/// closes the last one.
const INGEST_BATCHES: usize = 5;
const INSERTS_PER_BATCH: usize = 200;
const ROWS_PER_DML: i64 = 20;
/// Ids the benchmark's rows start from, per table; the dataset's own ids
/// stay far below.
const ID_BASE: [i64; 3] = [5_000_000, 6_000_000, 7_000_000];

/// Every round: five batches of 200 single-row INSERTs with a window
/// read after every tenth, one 20-row UPDATE and one 20-row DELETE, then
/// a checkpoint. A batch writes into a half-degree box the seed places,
/// and reads from the same box.
fn ingest(plan: &mut Plan, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x0012_69e5_7d0a_b1e5);
    let insert = plan.class("insert".into(), "insert");
    let read = plan.class("read".into(), "read");
    let update = plan.class("update".into(), "update");
    let delete = plan.class("delete".into(), "delete");
    let checkpoint = plan.class("checkpoint".into(), "checkpoint");
    let mut next_id = ID_BASE;
    for r in 0..plan.rounds.len() {
        for b in 0..INGEST_BATCHES {
            let cx = rng.gen_range(EXTENT.min_x + 0.5..EXTENT.max_x - 0.5);
            let cy = rng.gen_range(EXTENT.min_y + 0.5..EXTENT.max_y - 0.5);
            let first_id = next_id;
            for i in 0..INSERTS_PER_BATCH {
                let table = match i % 10 {
                    0..=4 => 0,
                    5..=7 => 1,
                    _ => 2,
                };
                let id = next_id[table];
                next_id[table] += 1;
                let x = cx + rng.gen_range(-0.25..0.25);
                let y = cy + rng.gen_range(-0.25..0.25);
                let (sql, row) = insert_row(table, id, x, y, &mut rng);
                plan.push(r, insert, sql, Effect::Insert { table, row });
                if i % 10 == 9 {
                    let table = (i / 10) % 3;
                    let wx = cx + rng.gen_range(-0.2..0.2);
                    let wy = cy + rng.gen_range(-0.2..0.2);
                    let window = Envelope::new(wx - 0.05, wy - 0.05, wx + 0.05, wy + 0.05);
                    let sql = format!(
                        "SELECT COUNT(*) FROM {} WHERE MBRIntersects(geom, \
                         ST_MakeEnvelope({}, {}, {}, {}))",
                        WRITE_TABLES[table], window.min_x, window.min_y, window.max_x, window.max_y
                    );
                    plan.push(r, read, sql, Effect::CountWindow { table, window });
                }
            }
            // The UPDATE renames the batch's first rows of one table, the
            // DELETE removes its last rows of the next table.
            let batch = r * INGEST_BATCHES + b;
            let table = batch % 3;
            let (lo, hi) = (first_id[table], first_id[table] + ROWS_PER_DML);
            let name = format!("RENAMED {batch}");
            let sql = format!(
                "UPDATE {} SET name = '{name}' WHERE id >= {lo} AND id < {hi}",
                WRITE_TABLES[table]
            );
            plan.push(r, update, sql, Effect::Rename { table, lo, hi, name });
            let table = (batch + 1) % 3;
            let (lo, hi) = (next_id[table] - ROWS_PER_DML, next_id[table]);
            let sql = format!("DELETE FROM {} WHERE id >= {lo} AND id < {hi}", WRITE_TABLES[table]);
            plan.push(r, delete, sql, Effect::Delete { table, lo, hi });
        }
        plan.push(r, checkpoint, String::new(), Effect::Checkpoint);
    }
}

/// One row for a write table around `(x, y)`: the INSERT and the row the
/// engine must hold afterwards.
fn insert_row(table: usize, id: i64, x: f64, y: f64, rng: &mut Rng) -> (String, Row) {
    let (wkt_text, mut row, values) = match table {
        0 => {
            let name = format!("BENCH POINT {id}");
            (
                format!("POINT ({x} {y})"),
                vec![Value::Int(id), Value::Text(name.clone()), Value::Text("D51".into())],
                format!("{id}, '{name}', 'D51'"),
            )
        }
        1 => {
            let name = format!("BENCH RD {id}");
            let zip = 70_000 + rng.gen_range(0..999i64);
            let from = rng.gen_range(1..500i64) * 2;
            let to = from + 98;
            let mut pts = vec![format!("{x} {y}")];
            let (mut px, mut py) = (x, y);
            for _ in 0..4 {
                px += rng.gen_range(-0.004..0.004);
                py += rng.gen_range(-0.004..0.004);
                pts.push(format!("{px} {py}"));
            }
            (
                format!("LINESTRING ({})", pts.join(", ")),
                vec![
                    Value::Int(id),
                    Value::Text(name.clone()),
                    Value::Int(zip),
                    Value::Int(from),
                    Value::Int(to),
                ],
                format!("{id}, '{name}', {zip}, {from}, {to}"),
            )
        }
        _ => {
            let name = format!("BENCH PARK {id}");
            let (w, h) = (rng.gen_range(0.002..0.006), rng.gen_range(0.002..0.006));
            let ring =
                [(x - w, y - h), (x + w, y - h), (x + w, y + h), (x - w, y + h), (x - w, y - h)]
                    .map(|(px, py)| format!("{px} {py}"))
                    .join(", ");
            (
                format!("POLYGON (({ring}))"),
                vec![Value::Int(id), Value::Text(name.clone()), Value::Text("D85".into())],
                format!("{id}, '{name}', 'D85'"),
            )
        }
    };
    // The model parses the text the engine parses, so both hold the
    // same coordinates to the last bit.
    row.push(Value::Geom(wkt::parse(&wkt_text).expect("generated WKT is well-formed")));
    let sql = format!(
        "INSERT INTO {} VALUES ({values}, ST_GeomFromText('{wkt_text}'))",
        WRITE_TABLES[table]
    );
    (sql, row)
}
