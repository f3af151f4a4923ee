//! One equivalence harness: every engine configuration answers the same
//! statements as one reference configuration, and the reference answers
//! the shape corpus as a naive model does.
//!
//! The **reference** is `ExactRtree` at one worker, with an unbounded
//! pool, the spatial index off, warm caches, and every named predicate
//! spelled `pred(a, b) = 1`. That spelling makes the predicate a
//! comparison rather than a recognised spatial shape, so it plans as a
//! `Filter` over the generic evaluator and naive `topo::relate` (no
//! envelope prefilter, no prepared geometry, no batch: the counters pin
//! that). The **matrix** ([`LANES`]) is the batch-filter spelling and,
//! with it, workers {2, 4} × pool {8 MiB, 64 KiB} with the caches
//! dropped, the caches dropped alone, the index on, `ExactGrid` and
//! `MbrOnly`.
//!
//! Every configuration runs two corpora, each loaded once per engine:
//! the TIGER micro and macro statements, and the snapped shape corpus of
//! `tests/common/shapes.rs` (self-joins and constant filters under every
//! named predicate, `NULL` and empty geometries, a lattice long enough
//! for morsels, and a poison row the refine rejects). Answers are
//! compared exactly (rows and order, or the same error text) where the
//! plan is the reference's, that is with the index off. Where the plan
//! differs (the index on, `ExactGrid`) rows are compared sorted, floats
//! at nine significant digits. `MbrOnly` returns a superset wherever its
//! MBR evaluation can only add rows. Configurations that share a
//! profile, an index position and a spelling report the same
//! deterministic counters, and the counters that tell the generic and
//! batch refine paths apart hold their identities.
//!
//! The shape corpus also has an independent oracle: a double loop over
//! its geometries with `topo`'s predicates behind the envelope test, and
//! no engine. A `NULL` geometry matches nothing, as every SQL function
//! is strict.
//!
//! Each corpus runs in every configuration once, and each test checks
//! a part of what it did: one configuration or group of them against
//! the reference, one kind of shape statement in every configuration
//! and against the oracle, or the counters.
//!
//! The rest is not pairwise: the global-aggregate and tied-key orders,
//! mid-flight metric snapshots, the pool's resize, eviction and churn,
//! the non-trivial answers guard, and the datagen row counts.

mod common;

use common::shapes;
use jackpine::bench::load_dataset;
use jackpine::bench::macrobench::{all_scenarios, ScenarioConfig};
use jackpine::bench::micro::{analysis_suite, topo_suite};
use jackpine::datagen::{TigerConfig, TigerDataset};
use jackpine::engine::{EngineProfile, SpatialDb};
use jackpine::geom::Geometry;
use jackpine::sql::exec::MIN_PARALLEL_ROWS;
use jackpine::sql::functions::TOPO_PREDICATES;
use jackpine::sql::ResultSet;
use jackpine::storage::Value;
use jackpine::topo::PredicateKind;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

const MIB: usize = 1024 * 1024;

/// Eight frames: far smaller than either corpus, so every scan cycles
/// pages through the clock sweep.
const TINY: usize = 64 * 1024;

/// One engine configuration.
#[derive(Clone, Copy, Debug)]
struct Config {
    name: &'static str,
    profile: EngineProfile,
    workers: usize,
    /// Pool capacity in bytes; 0 is unbounded.
    pool_bytes: usize,
    /// Caches dropped (`clear_caches`) before the corpus runs.
    cold: bool,
    /// The spatial index on.
    index: bool,
    /// Named predicates spelled `pred(..) = 1` (see the module docs).
    generic: bool,
}

const REFERENCE: Config = Config {
    name: "reference",
    profile: EngineProfile::ExactRtree,
    workers: 1,
    pool_bytes: 0,
    cold: false,
    index: false,
    generic: true,
};

const BATCH: Config = Config { name: "batch filter", generic: false, ..REFERENCE };

const COLD: Config = Config { name: "cold", cold: true, ..BATCH };

/// Every configuration, by the engine that runs it: each lane loads its
/// own engine and runs its configurations in order on a thread of its
/// own. The reference and the batch filter come first. The pool lane
/// goes unbounded → 8 MiB → eight frames → 8 MiB → eight frames, so the
/// index leaves spill and respill.
const LANES: [&[Config]; 4] = [
    &[REFERENCE, BATCH, COLD, Config { name: "index on", index: true, ..BATCH }],
    &[
        Config { name: "workers 2, pool 8 MiB", workers: 2, pool_bytes: 8 * MIB, ..COLD },
        Config { name: "workers 2, pool 64 KiB", workers: 2, pool_bytes: TINY, ..COLD },
        Config { name: "workers 4, pool 8 MiB", workers: 4, pool_bytes: 8 * MIB, ..COLD },
        Config { name: "workers 4, pool 64 KiB", workers: 4, pool_bytes: TINY, ..COLD },
    ],
    &[Config { name: "ExactGrid", profile: EngineProfile::ExactGrid, index: true, ..BATCH }],
    &[Config { name: "MbrOnly", profile: EngineProfile::MbrOnly, index: true, ..BATCH }],
];

/// One statement of a corpus.
struct Statement {
    label: String,
    sql: String,
    /// Its only predicates are ones whose MBR evaluation can only add
    /// rows (`ST_Intersects`, `ST_Within`, `ST_Contains`, `ST_Equals`),
    /// and it returns rows or one count.
    monotone: bool,
}

impl Statement {
    fn new(label: impl Into<String>, sql: impl Into<String>) -> Statement {
        let sql = sql.into();
        let upper = sql.to_ascii_uppercase();
        let named: Vec<&str> =
            TOPO_PREDICATES.iter().copied().filter(|p| upper.contains(&format!("{p}("))).collect();
        let counts_or_lists = upper.starts_with("SELECT COUNT(*) FROM")
            || !(upper.contains("SUM(") || upper.contains("AVG("));
        let monotone = !named.is_empty()
            && counts_or_lists
            && named
                .iter()
                .all(|p| ["ST_INTERSECTS", "ST_WITHIN", "ST_CONTAINS", "ST_EQUALS"].contains(p));
        Statement { label: label.into(), sql, monotone }
    }
}

/// A statement's rows, or its error's text.
type Answer = Result<ResultSet, String>;

/// What one configuration did with a corpus.
struct Run {
    answers: Vec<Answer>,
    /// Deterministic counters summed over the statements that succeeded
    /// (an error stops each worker at a point that depends on timing).
    counters: BTreeMap<&'static str, u64>,
    /// Batches the batch filter dispatched, over every statement.
    batches: u64,
    /// Morsels dispatched to the workers, over every statement.
    morsels: u64,
    /// Pages the pool faulted in, over every statement.
    cold_pins: u64,
}

impl Run {
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// `sql` with every named-predicate call respelled `pred(..) = 1`, which
/// the executor evaluates generically (see the module docs).
fn generic_spelling(sql: &str) -> String {
    // ASCII upper-casing keeps byte offsets, so a match indexes `sql` too.
    let upper = sql.to_ascii_uppercase();
    let (mut out, mut done) = (String::new(), 0);
    while let Some((at, name)) = TOPO_PREDICATES
        .iter()
        .filter_map(|p| Some((done + upper[done..].find(&format!("{p}("))?, p)))
        .min()
    {
        // WKT literals are paren-balanced, so counting depth finds the
        // end of the call.
        let open = at + name.len();
        let mut depth = 0;
        let call_len = sql[open..].find(|c| {
            depth += i32::from(c == '(') - i32::from(c == ')');
            depth == 0
        });
        let close = open + call_len.expect("balanced call");
        out = out + &sql[done..=close] + " = 1";
        done = close + 1;
    }
    out + &sql[done..]
}

/// Puts `db` in `config` and runs every statement once.
fn run(db: &Arc<SpatialDb>, config: &Config, statements: &[Statement]) -> Run {
    db.set_workers(config.workers);
    db.set_pool_bytes(config.pool_bytes);
    db.set_use_spatial_index(config.index);
    if config.cold {
        db.clear_caches();
    }
    let pool_before = db.pool_stats();
    let mut counters = BTreeMap::new();
    let (mut batches, mut morsels) = (0, 0);
    let mut answers = Vec::with_capacity(statements.len());
    let mut before = db.metrics_snapshot();
    for s in statements {
        let sql = if config.generic { generic_spelling(&s.sql) } else { s.sql.clone() };
        let answer = db.execute(&sql).map_err(|e| e.to_string());
        let after = db.metrics_snapshot();
        let delta = after.delta_since(&before);
        before = after;
        batches += delta.counter("batches_dispatched");
        morsels += delta.counter("morsels_dispatched");
        if answer.is_ok() {
            for (name, n) in delta.deterministic_counters() {
                *counters.entry(name).or_default() += n;
            }
        }
        answers.push(answer);
    }
    let cold_pins = db.pool_stats().cold_pins - pool_before.cold_pins;
    Run { answers, counters, batches, morsels, cold_pins }
}

/// Rows as text, sorted, floats at nine significant digits (the
/// benchmark's result-digest rule): equal for any plan that finds the
/// same rows.
fn canonical(answer: &Answer) -> Result<Vec<String>, &str> {
    answer.as_ref().map(|rs| canonical_rows(&rs.rows)).map_err(String::as_str)
}

fn canonical_rows(rows: &[Vec<Value>]) -> Vec<String> {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("{f:.8e}"),
        v => format!("{v:?}"),
    };
    let mut rows: Vec<String> =
        rows.iter().map(|r| r.iter().map(cell).collect::<Vec<_>>().join(" | ")).collect();
    rows.sort();
    rows
}

/// Whether the MBR-only answer `mbr` holds every row of `exact` (for
/// one count: is at least as large). Panics naming `label` if not;
/// returns whether it holds strictly more.
fn assert_superset(label: &str, mbr: &ResultSet, exact: &ResultSet) -> bool {
    if let (Some(Value::Int(m)), Some(Value::Int(e))) = (mbr.scalar(), exact.scalar()) {
        assert!(m >= e, "{label}: MbrOnly count {m} below the exact {e}");
        return m > e;
    }
    // Both are sorted, so one pass over the MBR rows finds every exact
    // row in turn.
    let mut mbr_rows = canonical_rows(&mbr.rows).into_iter();
    for row in canonical_rows(&exact.rows) {
        assert!(mbr_rows.any(|r| r == row), "{label}: MbrOnly lost the exact row {row}");
    }
    mbr.rows.len() > exact.rows.len()
}

/// Compares `have`, the answer of `config` to `s`, with the
/// reference's `want` (see the module docs). Returns whether an
/// `MbrOnly` answer held rows the exact one did not.
fn compare(config: &Config, s: &Statement, want: &Answer, have: &Answer) -> bool {
    let label = format!("{} ({}): {}", s.label, config.name, s.sql);
    match config.profile {
        EngineProfile::MbrOnly => {
            if let (true, Ok(want)) = (s.monotone, want) {
                let have = have.as_ref().unwrap_or_else(|e| panic!("{label}: {e}"));
                return assert_superset(&label, have, want);
            }
        }
        _ if !config.index => assert_eq!(want, have, "{label}"),
        _ => assert_eq!(canonical(want), canonical(have), "{label}"),
    }
    false
}

/// What every configuration of [`LANES`] did with one corpus. It runs
/// once, and each test checks a part of it.
struct Matrix {
    statements: Vec<Statement>,
    /// The reference's run first, then the batch filter's.
    runs: Vec<(Config, Run)>,
}

impl Matrix {
    /// Runs every configuration of [`LANES`] over `statements`, each lane
    /// on an engine made by `load`.
    fn run(
        statements: Vec<Statement>,
        load: impl Fn(EngineProfile) -> Arc<SpatialDb> + Sync,
    ) -> Matrix {
        let runs = std::thread::scope(|scope| {
            let lanes = LANES.map(|lane| {
                let (load, statements) = (&load, &statements);
                scope.spawn(move || {
                    let db = load(lane[0].profile);
                    lane.iter().map(|c| (*c, run(&db, c, statements))).collect::<Vec<_>>()
                })
            });
            let joined =
                lanes.map(|lane| lane.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            joined.into_iter().flatten().collect()
        });
        Matrix { statements, runs }
    }

    fn reference(&self) -> &Run {
        &self.runs[0].1
    }

    fn batch(&self) -> &Run {
        &self.runs[1].1
    }

    /// Compares every configuration `pick` selects with the reference,
    /// over the statements whose position `keep` selects. A bounded pool
    /// must have faulted pages in, and more than one worker split a
    /// statement. Returns whether an `MbrOnly` answer held rows the exact
    /// one did not.
    fn check(&self, keep: impl Fn(usize) -> bool, pick: impl Fn(&Config) -> bool) -> bool {
        let picked: Vec<_> = self.runs[1..].iter().filter(|(c, _)| pick(c)).collect();
        assert!(!picked.is_empty(), "no configuration of the matrix was picked");
        let mut strictly_larger = false;
        for (config, got) in picked {
            let name = config.name;
            if config.pool_bytes != 0 {
                assert!(got.cold_pins > 0, "{name}: the bounded pool never faulted a page");
            }
            // With the index on, no TIGER statement at this scale has
            // inputs long enough to split; with it off, every join's
            // pairs do.
            if config.workers > 1 && !config.index {
                assert!(got.morsels > 0, "{name}: no statement was split over the workers");
            }
            let answers = self.reference().answers.iter().zip(&got.answers);
            for (i, (s, (want, have))) in self.statements.iter().zip(answers).enumerate() {
                if keep(i) {
                    strictly_larger |= compare(config, s, want, have);
                }
            }
        }
        strictly_larger
    }

    /// Configurations that share a profile, an index position and a
    /// spelling report the deterministic counters of the first of them,
    /// which moved at least one.
    fn check_counter_groups(&self) {
        let mut groups = BTreeMap::new();
        for (config, got) in &self.runs[1..] {
            let key = (config.profile.name(), config.index, config.generic);
            let (first, want) = groups.entry(key).or_insert((config.name, &got.counters));
            assert!(want.values().any(|&n| n > 0), "{first} moved no deterministic counter");
            assert_eq!(
                **want, got.counters,
                "deterministic counters differ between {first} and {}",
                config.name
            );
        }
    }

    /// The counters that tell the two refine paths apart: the reference
    /// never runs the batch filter, both count the same refines, and the
    /// batch filter prefilters and reuses its preparations.
    fn check_refine_counters(&self) {
        let (reference, batch) = (self.reference(), self.batch());
        assert_eq!(reference.batches, 0, "the reference ran the batch filter");
        for batch_only in ["prefilter_rejects", "prepared_cache_hits", "prepared_cache_misses"] {
            assert_eq!(reference.counter(batch_only), 0, "the reference counted {batch_only}");
        }
        for shared in ["refine_candidates", "refine_hits"] {
            assert_eq!(reference.counter(shared), batch.counter(shared), "{shared} differs");
        }
        assert!(batch.counter("prefilter_rejects") > 0, "the corpus must exercise the prefilter");
        assert!(
            batch.counter("prepared_cache_hits") > 0,
            "a join must reuse its inner preparations within a batch"
        );
    }
}

/// The TIGER extract the engine tests load, generated once.
fn tiger_data() -> &'static TigerDataset {
    static DATA: OnceLock<TigerDataset> = OnceLock::new();
    DATA.get_or_init(|| {
        TigerDataset::generate(&TigerConfig { scale: 0.02, ..TigerConfig::default() })
    })
}

fn tiger_db(profile: EngineProfile, data: &TigerDataset) -> Arc<SpatialDb> {
    let db = Arc::new(SpatialDb::new(profile));
    load_dataset(&db, data).expect("dataset loads");
    db
}

/// T01–T19, A01–A12 and one session of every macro scenario, but for
/// M4's in-database buffer: it reads no table, so no configuration can
/// change its answer, and it is the slowest statement of all (its bits
/// are pinned in `flood_risk.rs`). Also returns how many of them, the
/// first, are micro queries.
fn tiger_statements(data: &TigerDataset) -> (usize, Vec<Statement>) {
    let micro = topo_suite(data).into_iter().chain(analysis_suite(data));
    let mut all: Vec<Statement> = micro.map(|q| Statement::new(q.id, q.sql)).collect();
    let micro = all.len();
    for scenario in all_scenarios(data, &ScenarioConfig { seed: 0xbead, sessions: 1 }) {
        for (label, sql) in scenario.steps.into_iter().filter(|(_, sql)| sql.contains(" FROM ")) {
            all.push(Statement::new(format!("{}/{label}", scenario.id), sql));
        }
    }
    (micro, all)
}

/// The TIGER statements in every configuration, and how many of them
/// are micro queries.
fn tiger_matrix() -> &'static (usize, Matrix) {
    static MATRIX: OnceLock<(usize, Matrix)> = OnceLock::new();
    MATRIX.get_or_init(|| {
        let data = tiger_data();
        let (micro, statements) = tiger_statements(data);
        (micro, Matrix::run(statements, |profile| tiger_db(profile, data)))
    })
}

fn every(_: usize) -> bool {
    true
}

/// The batch-filter spelling, on the micro and the macro statements.
#[test]
fn micro_suites_identical_across_paths() {
    tiger_matrix().1.check(every, |c| c.name == BATCH.name);
}

#[test]
fn cold_runs_return_warm_answers() {
    tiger_matrix().1.check(every, |c| c.name == COLD.name);
}

#[test]
fn index_toggle_never_changes_answers() {
    tiger_matrix().1.check(every, |c| c.profile == EngineProfile::ExactRtree && c.index);
}

/// `ExactGrid`, on the micro and the macro statements.
#[test]
fn exact_profiles_agree_on_every_micro_query() {
    tiger_matrix().1.check(every, |c| c.profile == EngineProfile::ExactGrid);
}

#[test]
fn micro_suites_identical_at_any_worker_count() {
    let (micro, matrix) = tiger_matrix();
    matrix.check(|i| i < *micro, |c| c.workers > 1);
}

#[test]
fn macro_scenario_steps_identical_at_any_worker_count() {
    let (micro, matrix) = tiger_matrix();
    matrix.check(|i| i >= *micro, |c| c.workers > 1);
}

#[test]
fn corpus_identical_across_pool_configs() {
    tiger_matrix().1.check(every, |c| c.pool_bytes != 0);
}

#[test]
fn mbr_profile_returns_supersets_on_monotone_predicates() {
    for matrix in [&tiger_matrix().1, &shape_corpus().matrix] {
        let strictly_larger = matrix.check(every, |c| c.profile == EngineProfile::MbrOnly);
        assert!(strictly_larger, "at least one MbrOnly answer should show false positives");
    }
}

#[test]
fn deterministic_counters_equal_across_worker_counts() {
    tiger_matrix().1.check_counter_groups();
    shape_corpus().matrix.check_counter_groups();
}

#[test]
fn deterministic_counters_stable_across_batch_shapes() {
    tiger_matrix().1.check_refine_counters();
    let batch = shape_corpus().matrix.batch();
    // Every shape statement is a spatial filter: each candidate the
    // batch filter sees is either decided on its MBR or refined.
    assert_eq!(
        batch.counter("prefilter_rejects") + batch.counter("selvec_survivors"),
        batch.counter("refine_candidates"),
        "every batch candidate is either MBR-decided or refined"
    );
    shape_corpus().matrix.check_refine_counters();
}

/// Constant probes of the shape corpus: a corner of the pinned cases, a
/// box that meets nothing, a point, and a box over lattice points of the
/// third morsel only.
const PROBES: [&str; 4] = [
    "POLYGON ((0 0, 3 0, 3 3, 0 3, 0 0))",
    "POLYGON ((100 100, 101 100, 101 101, 100 101, 100 100))",
    "POINT (1 1)",
    "POLYGON ((10 30, 20 30, 20 40, 10 40, 10 30))",
];

/// What a shape statement asks, read both by its SQL and by the oracle:
/// the ordered pairs of `table` under `pred` (both ids, or only `a.id`),
/// or the rows of `table` whose geometry meets `PROBES[probe]` under
/// `pred`.
#[derive(Clone, Copy)]
enum Ask {
    Join { table: &'static str, pred: &'static str, both_ids: bool },
    Filter { table: &'static str, pred: &'static str, probe: usize },
}

impl Ask {
    fn statement(self) -> Statement {
        match self {
            Ask::Join { table, pred, both_ids } => {
                let ids = if both_ids { "a.id, b.id" } else { "a.id" };
                Statement::new(
                    format!("{pred} self-join of {table}"),
                    format!("SELECT {ids} FROM {table} a, {table} b WHERE {pred}(a.geom, b.geom)"),
                )
            }
            Ask::Filter { table, pred, probe } => Statement::new(
                format!("{pred} probe {probe} over {table}"),
                format!(
                    "SELECT id, tag FROM {table} WHERE {pred}(geom, ST_GeomFromText('{}'))",
                    PROBES[probe]
                ),
            ),
        }
    }

    /// The naive model's answer: a double loop over the table's
    /// geometries, no engine. A `NULL` geometry matches nothing; the
    /// first error (the poison row refined) is the answer when there is
    /// one.
    fn oracle(self, tables: &BTreeMap<&str, Vec<ModelRow>>) -> Result<Vec<String>, ()> {
        let (Ask::Join { table, pred, .. } | Ask::Filter { table, pred, .. }) = self;
        let kind = PredicateKind::from_sql_name(pred).expect("a named predicate");
        let holds = |a: &Option<Geometry>, b: &Geometry| match a {
            Some(a) => shapes::naive(kind, a, b).map_err(|_| ()),
            None => Ok(false),
        };
        let rows = &tables[table];
        let mut out = Vec::new();
        match self {
            Ask::Join { both_ids, .. } => {
                for (a_id, _, a) in rows {
                    for (b_id, _, b) in rows {
                        if let Some(b) = b {
                            if holds(a, b)? {
                                let (a_id, b_id) = (Value::Int(*a_id), Value::Int(*b_id));
                                out.push(if both_ids { vec![a_id, b_id] } else { vec![a_id] });
                            }
                        }
                    }
                }
            }
            Ask::Filter { probe, .. } => {
                let probe = shapes::parse(PROBES[probe]);
                for (id, tag, g) in rows {
                    if holds(g, &probe)? {
                        out.push(vec![
                            Value::Int(*id),
                            tag.clone().map_or(Value::Null, Value::Text),
                        ]);
                    }
                }
            }
        }
        Ok(canonical_rows(&out))
    }
}

/// The shape corpus's statements: every named predicate as a self-join
/// of `shapes` (4,225 ordered pairs: four whole 1,024-row batches and a
/// ragged tail, past the executor's serial cutoff) and as a filter of
/// `shapes` against every probe; three filters of `field`, whose lattice
/// spreads a filter over a scan across morsels; over `poisoned`,
/// self-joins whose pairs reach the poison row and filters that do or
/// do not.
fn shape_asks() -> Vec<Ask> {
    let filter = |table, pred, probe| Ask::Filter { table, pred, probe };
    let mut all = Vec::new();
    for pred in TOPO_PREDICATES {
        all.push(Ask::Join { table: "shapes", pred, both_ids: true });
        all.extend((0..PROBES.len()).map(|p| filter("shapes", pred, p)));
    }
    all.extend([
        filter("field", "ST_INTERSECTS", 3),
        filter("field", "ST_DISJOINT", 3),
        filter("field", "ST_WITHIN", 0),
    ]);
    for pred in ["ST_INTERSECTS", "ST_TOUCHES", "ST_EQUALS"] {
        all.push(Ask::Join { table: "poisoned", pred, both_ids: false });
    }
    all.extend([0, 1].map(|p| filter("poisoned", "ST_INTERSECTS", p)));
    all
}

fn shape_db(profile: EngineProfile, rows: &[Option<String>]) -> Arc<SpatialDb> {
    let db = Arc::new(SpatialDb::new(profile));
    shapes::create_tables(&db, rows);
    db
}

/// A table's rows as the oracle sees them: id, tag, geometry.
type ModelRow = (i64, Option<String>, Option<Geometry>);

/// The oracle's answer to every ask, over the model of the tables
/// `shapes::create_tables` fills from `rows`.
fn model_answers(rows: &[Option<String>], asks: &[Ask]) -> Vec<Result<Vec<String>, ()>> {
    let model: Vec<ModelRow> = rows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            (i as i64, w.as_ref().map(|_| format!("t{i}")), w.as_deref().map(shapes::parse))
        })
        .collect();
    let lattice = shapes::lattice()
        .enumerate()
        .map(|(i, g)| ((shapes::LATTICE_BASE + i) as i64, Some("p".to_string()), Some(g)));
    let poison = (800, Some("mixed".to_string()), Some(shapes::parse(shapes::POISON)));
    let tables = BTreeMap::from([
        ("shapes", model.clone()),
        ("field", model.iter().cloned().chain(lattice).collect()),
        ("poisoned", model.iter().cloned().chain([poison]).collect()),
    ]);
    asks.iter().map(|ask| ask.oracle(&tables)).collect()
}

/// The shape corpus: its asks, what every configuration did with them,
/// and the oracle's answers.
struct ShapeCorpus {
    asks: Vec<Ask>,
    matrix: Matrix,
    oracle: Vec<Result<Vec<String>, ()>>,
}

fn shape_corpus() -> &'static ShapeCorpus {
    static CORPUS: OnceLock<ShapeCorpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let rows = shapes::shape_rows(&mut common::test_rng("shape corpus"));
        let pairs = rows.len().pow(2);
        assert!(
            pairs > MIN_PARALLEL_ROWS && !pairs.is_multiple_of(1024),
            "{pairs} pairs must split over workers and batch raggedly"
        );
        let asks = shape_asks();
        let statements = asks.iter().map(|a| a.statement()).collect();
        // The model needs no engine, so it answers beside the matrix.
        let (oracle, matrix) = std::thread::scope(|scope| {
            let model = scope.spawn(|| model_answers(&rows, &asks));
            let matrix = Matrix::run(statements, |profile| shape_db(profile, &rows));
            (model.join().unwrap_or_else(|e| std::panic::resume_unwind(e)), matrix)
        });
        ShapeCorpus { asks, matrix, oracle }
    })
}

impl ShapeCorpus {
    /// Checks every configuration on the asks `keep` selects, and the
    /// reference's answers to them against the oracle's. Returns how
    /// many of those the oracle answers with the poison row's error.
    fn check(&self, keep: impl Fn(&Ask) -> bool) -> usize {
        self.matrix.check(|i| keep(&self.asks[i]), |_| true);
        let mut errors = 0;
        let answers = self.matrix.statements.iter().zip(&self.matrix.reference().answers);
        for ((ask, want), (s, answer)) in self.asks.iter().zip(&self.oracle).zip(answers) {
            match want {
                _ if !keep(ask) => {}
                Ok(want) => {
                    let have = canonical(answer).map_err(|_| ());
                    assert_eq!(have.as_ref(), Ok(want), "{}: {}", s.label, s.sql);
                }
                Err(()) => {
                    errors += 1;
                    assert!(
                        answer.is_err(),
                        "{}: the poison row must be refined: {}",
                        s.label,
                        s.sql
                    );
                }
            }
        }
        errors
    }
}

#[test]
fn self_joins_identical_across_paths() {
    shape_corpus().check(|ask| matches!(ask, Ask::Join { table: "shapes", .. }));
}

#[test]
fn constant_filters_identical_across_paths() {
    shape_corpus().check(|ask| matches!(ask, Ask::Filter { table: "shapes" | "field", .. }));
}

#[test]
fn refine_errors_surface_identically() {
    let poisoned = |ask: &Ask| {
        matches!(ask, Ask::Join { table: "poisoned", .. } | Ask::Filter { table: "poisoned", .. })
    };
    assert!(shape_corpus().check(poisoned) > 0, "no statement reached the poison row");
}

/// Guard against a corpus whose answers check nothing: more than half
/// the oracle's answers hold rows, and some are the poison row's error.
#[test]
fn shape_corpus_answers_are_non_trivial() {
    let oracle = &shape_corpus().oracle;
    let nonempty = oracle.iter().filter(|a| a.as_ref().is_ok_and(|rows| !rows.is_empty())).count();
    let errors = oracle.iter().filter(|a| a.is_err()).count();
    assert!(errors > 0 && nonempty > oracle.len() / 2, "{errors} errors, {nonempty} non-empty");
}

/// Rows past the executor's serial cutoff, so key tuples and aggregate
/// arguments are evaluated morsel-parallel: `id` ascending (the scan
/// order), `one` the same for every row, `tie` in 7 runs of equal keys,
/// `x` a float whose sum depends on the order it is added in, and
/// `name` text; `x` and `name` are NULL here and there.
fn parallel_sized_table() -> Arc<SpatialDb> {
    use jackpine::storage::{ColumnDef, DataType};
    let n = 3 * MIN_PARALLEL_ROWS + 17;
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    let columns = [
        ("id", DataType::Int),
        ("one", DataType::Int),
        ("tie", DataType::Int),
        ("x", DataType::Float),
        ("name", DataType::Text),
    ];
    db.create_table("t", columns.iter().map(|&(c, ty)| ColumnDef::new(c, ty)).collect()).unwrap();
    let rows = (0..n).map(|i| {
        let x = match i % 5 {
            0 => Value::Null,
            k => Value::Float((i as f64).sqrt() * 1e7 + 0.1 * k as f64),
        };
        let name =
            if i % 11 == 0 { Value::Null } else { Value::Text(format!("n{}", i * 37 % 101)) };
        vec![Value::Int(i as i64), Value::Int(1), Value::Int((i * 13 % 7) as i64), x, name]
    });
    db.insert_rows("t", rows.collect::<Vec<_>>()).unwrap();
    db
}

/// A value with its float bits, so "equal" means bit for bit.
fn bits(r: &ResultSet) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("float {:#x}", f.to_bits()),
        v => format!("{v:?}"),
    };
    r.rows.iter().map(|row| row.iter().map(cell).collect()).collect()
}

#[test]
fn a_global_aggregate_is_the_one_group_of_all_rows_bit_for_bit() {
    let db = parallel_sized_table();
    let aggs = "COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x), COUNT(name), MIN(name), \
                MAX(name)";
    let global = format!("SELECT {aggs} FROM t");
    let grouped = format!("SELECT {aggs} FROM t GROUP BY one");
    db.set_workers(1);
    let want = bits(&db.execute(&global).unwrap());
    assert_eq!(want.len(), 1);
    for workers in [1usize, 2, 7] {
        db.set_workers(workers);
        assert_eq!(bits(&db.execute(&global).unwrap()), want, "global, workers={workers}");
        assert_eq!(bits(&db.execute(&grouped).unwrap()), want, "one group, workers={workers}");
    }
    // Over no rows the global aggregate is still one row; GROUP BY has
    // no group to report.
    let none = db.execute(&format!("SELECT {aggs} FROM t WHERE id < 0")).unwrap();
    assert_eq!(bits(&none).len(), 1);
    assert_eq!(none.rows[0][0], Value::Int(0));
    assert_eq!(none.rows[0][2], Value::Null);
    let no_group = db.execute(&format!("SELECT {aggs} FROM t WHERE id < 0 GROUP BY one")).unwrap();
    assert!(no_group.is_empty());
}

#[test]
fn order_by_with_tied_keys_keeps_input_order_at_every_worker_count() {
    let db = parallel_sized_table();
    for dir in ["", " DESC"] {
        let sql = format!("SELECT tie, id FROM t ORDER BY tie{dir}");
        db.set_workers(1);
        let serial = db.execute(&sql).unwrap();
        for workers in [1usize, 2, 4, 7] {
            db.set_workers(workers);
            let r = db.execute(&sql).unwrap();
            assert_eq!(r.len(), 3 * MIN_PARALLEL_ROWS + 17);
            for pair in r.rows.windows(2) {
                let [Value::Int(ta), Value::Int(ia)] = pair[0][..] else { panic!() };
                let [Value::Int(tb), Value::Int(ib)] = pair[1][..] else { panic!() };
                let in_order = if dir.is_empty() { ta <= tb } else { ta >= tb };
                assert!(in_order, "ORDER BY tie{dir} out of order at workers={workers}");
                if ta == tb {
                    assert!(ia < ib, "tie {ta} lost input order at workers={workers}: {ia}, {ib}");
                }
            }
            assert_eq!(r, serial, "ORDER BY tie{dir}: workers=1 vs workers={workers}");
        }
    }
}

/// Metric snapshots are safe at any moment: a thread hammering
/// `metrics_snapshot()` while parallel queries run must never panic,
/// and counters never go backwards.
#[test]
fn mid_flight_snapshots_never_panic() {
    let data = tiger_data();
    let db = tiger_db(EngineProfile::ExactRtree, data);
    db.set_workers(4);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let observer = scope.spawn(|| {
            let mut last_queries = 0u64;
            let mut snapshots = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let snap = db.metrics_snapshot();
                let queries = snap.counter("queries");
                assert!(queries >= last_queries, "counter went backwards");
                last_queries = queries;
                snapshots += 1;
            }
            snapshots
        });
        for q in topo_suite(data) {
            db.execute(&q.sql).expect(q.id);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let snapshots = observer.join().expect("observer thread must not panic");
        assert!(snapshots > 0, "observer never got a snapshot in");
    });
}

/// The full micro corpus in suite order.
fn run_micro(db: &Arc<SpatialDb>, data: &TigerDataset) -> Vec<ResultSet> {
    topo_suite(data)
        .iter()
        .chain(analysis_suite(data).iter())
        .map(|q| db.execute(&q.sql).unwrap_or_else(|e| panic!("{}: {e}", q.id)))
        .collect()
}

/// Bounding the pool spills index leaves; unbounding pulls them back;
/// bounding it again re-spills them through the pagers already attached.
/// Every transition preserves results, and the eight-frame bound
/// (smaller than the dataset's heap) must evict each time.
#[test]
fn resize_transitions_preserve_results_and_evict_when_undersized() {
    let data = tiger_data();
    let db = tiger_db(EngineProfile::ExactRtree, data);
    db.set_workers(1);
    let reference = run_micro(&db, data);

    db.set_pool_bytes(TINY);
    db.clear_caches();
    assert_eq!(reference, run_micro(&db, data), "eight-frame bound changes results");
    let stats = db.pool_stats();
    assert!(stats.evictions > 0, "an eight-frame pool must evict on this corpus");
    assert!(stats.dirty_writebacks > 0 || stats.cold_pins > 0, "pool never cycled a frame");

    db.set_pool_bytes(0);
    assert_eq!(reference, run_micro(&db, data), "unbounding changes results");

    // Bounded again: the trees keep the pagers the first bound attached,
    // and their leaves spill through them once more.
    let before = db.pool_stats();
    db.set_pool_bytes(TINY);
    db.clear_caches();
    assert_eq!(reference, run_micro(&db, data), "re-bounding changes results");
    let after = db.pool_stats();
    assert_eq!(after.capacity_frames, stats.capacity_frames);
    assert!(after.evictions > before.evictions, "the re-bounded pool must evict again");
}

/// Concurrent writers churn an indexed table through a two-frame pool
/// (the table's heap pages and its index leaves, packed a run to a page,
/// fit in eight) — every insert dirties pages that evict mid-transaction
/// — while readers hold pinned snapshots. Afterwards the bounded engine
/// must agree bit for bit with an unbounded engine that applied the same
/// statements.
#[test]
fn concurrent_writers_with_pinned_snapshots_stay_equivalent() {
    let build = |pool_bytes: usize| {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE pts (id BIGINT, geom GEOMETRY)").unwrap();
        for i in 0..256 {
            db.execute(&format!(
                "INSERT INTO pts VALUES ({i}, ST_GeomFromText('POINT ({} {})'))",
                i % 16,
                i / 16
            ))
            .unwrap();
        }
        db.create_spatial_index("pts", "geom").unwrap();
        db.set_pool_bytes(pool_bytes);
        db
    };
    let bounded = build(2 * 8192);
    let unbounded = build(0);

    for db in [&bounded, &unbounded] {
        // An old generation stays pinned for the whole run: vacuum must
        // defer, and no page a reader can still see may be reclaimed.
        let pin = db.pin_snapshot_handle();
        let writers = 2usize;
        std::thread::scope(|s| {
            for w in 0..writers {
                let db = db.clone();
                s.spawn(move || {
                    for i in 0..128 {
                        let id = 1000 + w * 1000 + i;
                        db.execute(&format!(
                            "INSERT INTO pts VALUES ({id}, ST_GeomFromText('POINT ({} {})'))",
                            id % 32,
                            id / 32
                        ))
                        .expect("concurrent insert");
                        if i % 4 == 3 {
                            db.execute(&format!("DELETE FROM pts WHERE id = {}", id - 2))
                                .expect("concurrent delete");
                        }
                    }
                });
            }
            let db = db.clone();
            s.spawn(move || {
                for _ in 0..64 {
                    // Readers run against whatever generation is
                    // current; they must never error or see a torn row.
                    db.execute(
                        "SELECT COUNT(*) FROM pts WHERE ST_Intersects(geom, \
                         ST_GeomFromText('POLYGON ((0 0, 40 0, 40 40, 0 40, 0 0))'))",
                    )
                    .expect("concurrent read");
                }
            });
        });
        drop(pin);
    }

    let corpus = [
        "SELECT COUNT(*) FROM pts",
        "SELECT id FROM pts WHERE ST_Within(geom, \
         ST_GeomFromText('POLYGON ((0 0, 8 0, 8 8, 0 8, 0 0))')) ORDER BY id",
        "SELECT COUNT(*) FROM pts a, pts b WHERE ST_Equals(a.geom, b.geom)",
    ];
    for sql in corpus {
        assert_eq!(
            unbounded.execute(sql).unwrap(),
            bounded.execute(sql).unwrap(),
            "bounded and unbounded engines disagree after concurrent churn: {sql}"
        );
    }
    let stats = bounded.pool_stats();
    assert!(
        stats.dirty_writebacks > 0,
        "churn through a two-frame pool must write back dirty pages"
    );
}

#[test]
fn micro_queries_have_nontrivial_answers() {
    // Guard against a silently empty benchmark: across the topological
    // suite, a healthy share of queries must return non-zero counts.
    let data = TigerDataset::generate(&TigerConfig { seed: 77, scale: 0.05 });
    let db = tiger_db(EngineProfile::ExactRtree, &data);
    let mut nonzero = 0;
    let mut total = 0;
    for q in topo_suite(&data) {
        if let Some(v) = db.execute(&q.sql).expect("query runs").scalar().and_then(Value::as_i64) {
            total += 1;
            if v > 0 {
                nonzero += 1;
            }
        }
    }
    assert!(
        nonzero * 2 >= total,
        "only {nonzero} of {total} topological queries return rows; dataset too sparse"
    );
}

#[test]
fn datagen_row_counts_pinned_at_quarter_scale() {
    let data = TigerDataset::generate(&TigerConfig { scale: 0.25, ..TigerConfig::default() });
    assert_eq!(data.counties.len(), 16, "county count drifted");
    assert_eq!(data.roads.len(), 5008, "roads count drifted");
    assert_eq!(data.arealm.len(), 375, "arealm count drifted");
    assert_eq!(data.pointlm.len(), 1000, "pointlm count drifted");
    assert_eq!(data.areawater.len(), 202, "areawater count drifted");
    assert_eq!(data.total_rows(), 6601);
}
